//! The application interface for state-machine replication.
//!
//! Services (the key-value store `mrp-store`, the distributed log
//! `mrp-dlog`, or user code) implement [`Application`] and are hosted by
//! a replica (`mrp_amcast::EngineReplica`): every atomic-multicast
//! delivery is executed deterministically, replies are routed back to
//! client sessions, and the application state is periodically
//! checkpointed for recovery.

use crate::codec::{get_bytes, get_u64, put_bytes, CodecError};
use crate::types::{ClientId, GroupId, InstanceId, Value};
use bytes::{BufMut, Bytes, BytesMut};

/// One delivered multicast value handed to the application.
#[derive(Clone, PartialEq, Debug)]
pub struct Delivery {
    /// Group the value was multicast to.
    pub group: GroupId,
    /// Consensus instance of the group's ring that decided it.
    pub instance: InstanceId,
    /// The value.
    pub value: Value,
}

/// A reply to a client session, produced by command execution.
#[derive(Clone, PartialEq, Debug)]
pub struct Reply {
    /// The client session to answer.
    pub client: ClientId,
    /// The request number being answered.
    pub request: u64,
    /// Reply payload.
    pub payload: Bytes,
}

/// A deterministic, checkpointable replicated state machine.
///
/// Implementations must be deterministic: executing the same deliveries
/// in the same order from the same snapshot must produce identical state
/// and replies on every replica. All I/O must go through the returned
/// replies and the snapshot mechanism.
pub trait Application {
    /// Executes one delivered command, mutating the state and returning
    /// any client replies.
    fn execute(&mut self, delivery: &Delivery) -> Vec<Reply>;

    /// Serializes the full application state.
    fn snapshot(&self) -> Bytes;

    /// Replaces the state with a previously produced snapshot.
    fn restore(&mut self, snapshot: &Bytes);
}

/// Encodes a client command frame: services embed the client session and
/// request number in the multicast payload so any replica can answer
/// (the paper's replicas reply to clients over UDP).
pub fn encode_command(client: ClientId, request: u64, cmd: &[u8]) -> Bytes {
    let mut buf = BytesMut::with_capacity(8 + 8 + 4 + cmd.len());
    buf.put_u64_le(client.value());
    buf.put_u64_le(request);
    put_bytes(&mut buf, cmd);
    buf.freeze()
}

/// Decodes a client command frame produced by [`encode_command`].
/// Returns `None` if the frame is malformed.
pub fn decode_command(mut frame: Bytes) -> Option<(ClientId, u64, Bytes)> {
    fn read(frame: &mut Bytes) -> Result<(ClientId, u64, Bytes), CodecError> {
        let client = ClientId::new(get_u64(frame)?);
        Ok((client, get_u64(frame)?, get_bytes(frame)?))
    }
    read(&mut frame).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every replica of every addressed group parses these bytes out
    /// of the delivered value: the layout is part of the replicated
    /// state machine.
    #[test]
    fn command_frame_encodes_to_the_pinned_bytes() {
        let frame = encode_command(ClientId::new(42), 7, b"hello");
        let hex: String = frame.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, "2a0000000000000007000000000000000500000068656c6c6f");
    }

    #[test]
    fn command_frame_roundtrip() {
        let frame = encode_command(ClientId::new(42), 7, b"hello");
        let (client, request, cmd) = decode_command(frame).unwrap();
        assert_eq!(client, ClientId::new(42));
        assert_eq!(request, 7);
        assert_eq!(&cmd[..], b"hello");
    }

    #[test]
    fn malformed_frames_rejected() {
        assert!(decode_command(Bytes::from_static(b"short")).is_none());
        // Length prefix larger than remaining payload.
        let mut buf = BytesMut::new();
        buf.put_u64_le(1);
        buf.put_u64_le(1);
        buf.put_u32_le(100);
        buf.put_slice(b"abc");
        assert!(decode_command(buf.freeze()).is_none());
    }

    #[test]
    fn empty_command_allowed() {
        let frame = encode_command(ClientId::new(0), 0, b"");
        let (_, _, cmd) = decode_command(frame).unwrap();
        assert!(cmd.is_empty());
    }

    #[test]
    fn every_strict_prefix_of_a_command_frame_is_rejected() {
        let frame = encode_command(ClientId::new(42), 7, b"hello");
        for cut in 0..frame.len() {
            assert_eq!(decode_command(frame.slice(..cut)), None, "cut at {cut}");
        }
    }

    proptest! {
        /// Uniform noise, and noise in place of the header of a valid
        /// frame (whose length field then lies).
        #[test]
        fn prop_decoding_arbitrary_bytes_never_panics(
            noise in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let _ = decode_command(Bytes::from(noise.clone()));
            let mut frame = encode_command(ClientId::new(42), 7, b"hello").to_vec();
            for (b, n) in frame.iter_mut().zip(&noise) {
                *b = *n;
            }
            let _ = decode_command(Bytes::from(frame));
        }
    }
}
