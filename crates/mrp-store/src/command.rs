//! The MRP-Store command set (Table 1 of the paper) and its wire
//! encoding.

use bytes::Bytes;
use multiring_paxos::codec::{wire_tags, Flat, Wire};

/// One store operation (Table 1), plus client-side batches ("clients may
/// batch small commands, grouped by partition, up to 32 Kbytes").
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StoreCommand {
    /// `read(k)`: return the value of entry `k`, if existent.
    Read {
        /// Key.
        key: Bytes,
    },
    /// `scan(k, k')`: return up to `limit` entries within `k..=k'`.
    Scan {
        /// Range start (inclusive).
        from: Bytes,
        /// Range end (inclusive).
        to: Bytes,
        /// Maximum entries returned per partition (0 = unlimited).
        limit: u32,
    },
    /// `update(k, v)`: update entry `k` with value `v`, if existent.
    Update {
        /// Key.
        key: Bytes,
        /// New value.
        value: Bytes,
    },
    /// `insert(k, v)`: insert `(k, v)` into the database.
    Insert {
        /// Key.
        key: Bytes,
        /// Value.
        value: Bytes,
    },
    /// `delete(k)`: delete entry `k`.
    Delete {
        /// Key.
        key: Bytes,
    },
    /// Several commands executed in order within one multicast. Flat:
    /// a batch inside a batch does not decode.
    Batch(Vec<StoreCommand>),
}

/// The response to a [`StoreCommand`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StoreResponse {
    /// Result of a read: the value, if present.
    Value(Option<Bytes>),
    /// Result of a scan over one partition.
    Entries(Vec<(Bytes, Bytes)>),
    /// The operation succeeded.
    Ok,
    /// `update` on a missing key or `insert` on an existing key.
    Miss,
    /// Responses of a batch, in command order.
    Batch(Vec<StoreResponse>),
}

wire_tags! {
    /// The byte a [`StoreCommand`] opens with, one per variant.
    enum CommandTag for StoreCommand {
        Read = 1 { key },
        Scan = 2 { from, to, limit },
        Update = 3 { key, value },
        Insert = 4 { key, value },
        Delete = 5 { key },
        Batch = 6 (commands: Flat<{ CommandTag::Batch as u8 }>),
    }
}

wire_tags! {
    /// The byte a [`StoreResponse`] opens with: one per variant, two for
    /// the two arms of `Value`.
    enum ResponseTag for StoreResponse {
        ValueNone = 1 => Value(None),
        ValueSome = 2 => Value(Some(value)),
        Entries = 3 (entries),
        Ok = 4,
        Miss = 5,
        Batch = 6 (responses: Flat<{ ResponseTag::Batch as u8 }>),
    }
}

impl StoreCommand {
    /// Encodes the command.
    pub fn encode(&self) -> Bytes {
        self.to_bytes()
    }

    /// Size of the encoding (used for the client's 32 KB batch cap).
    pub fn encoded_len(&self) -> usize {
        self.wire_len()
    }

    /// Decodes a command; `None` on malformed input.
    pub fn decode(buf: &mut Bytes) -> Option<StoreCommand> {
        Self::get(buf).ok()
    }
}

impl StoreResponse {
    /// Encodes the response.
    pub fn encode(&self) -> Bytes {
        self.to_bytes()
    }

    /// Decodes a response; `None` on malformed input.
    pub fn decode(buf: &mut Bytes) -> Option<StoreResponse> {
        Self::get(buf).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::{Buf, BufMut, BytesMut};
    use proptest::prelude::*;

    const C_READ: u8 = CommandTag::Read as u8;
    const C_BATCH: u8 = CommandTag::Batch as u8;
    const R_BATCH: u8 = ResponseTag::Batch as u8;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Every byte the reader takes for a tag opens a pinned encoding: a
    /// tag nobody writes and a variant nobody pinned end here (and one
    /// written under another's tag fails its golden).
    #[test]
    fn every_tag_opens_a_golden() {
        for tag in (0..=u8::MAX).filter_map(|byte| CommandTag::from_u8(byte).ok()) {
            let opens = format!("{:02x}", tag as u8);
            let pins = |(_, pinned): &(StoreCommand, &str)| pinned.starts_with(&opens);
            assert!(golden_commands().iter().any(pins), "no golden for {tag:?}");
        }
        for tag in (0..=u8::MAX).filter_map(|byte| ResponseTag::from_u8(byte).ok()) {
            let opens = format!("{:02x}", tag as u8);
            let pins = |(_, pinned): &(StoreResponse, &str)| pinned.starts_with(&opens);
            assert!(golden_responses().iter().any(pins), "no golden for {tag:?}");
        }
    }

    fn b(s: &'static str) -> Bytes {
        Bytes::from_static(s.as_bytes())
    }

    /// Every command variant with the bytes clients send and every
    /// replica of the partition parses (pinned before the codec
    /// rewrite; a moved byte is a format change).
    fn golden_commands() -> Vec<(StoreCommand, &'static str)> {
        vec![
            (StoreCommand::Read { key: b("k1") }, "01020000006b31"),
            (
                StoreCommand::Scan {
                    from: b("a"),
                    to: b("zz"),
                    limit: 10,
                },
                "020100000061020000007a7a0a000000",
            ),
            (
                StoreCommand::Update {
                    key: b("k"),
                    value: b("new"),
                },
                "03010000006b030000006e6577",
            ),
            (
                StoreCommand::Insert {
                    key: b("key"),
                    value: b("v"),
                },
                "04030000006b65790100000076",
            ),
            (StoreCommand::Delete { key: b("k") }, "05010000006b"),
            (
                StoreCommand::Batch(vec![
                    StoreCommand::Read { key: b("a") },
                    StoreCommand::Delete { key: b("b") },
                ]),
                "0602000000010100000061050100000062",
            ),
        ]
    }

    fn golden_responses() -> Vec<(StoreResponse, &'static str)> {
        vec![
            (StoreResponse::Value(None), "01"),
            (StoreResponse::Value(Some(b("v"))), "020100000076"),
            (
                StoreResponse::Entries(vec![(b("k"), b("v")), (b("k2"), b(""))]),
                "0302000000010000006b0100000076020000006b3200000000",
            ),
            (StoreResponse::Ok, "04"),
            (StoreResponse::Miss, "05"),
            (
                StoreResponse::Batch(vec![StoreResponse::Ok, StoreResponse::Miss]),
                "06020000000405",
            ),
        ]
    }

    #[test]
    fn commands_and_responses_encode_to_the_pinned_bytes() {
        for (cmd, pinned) in golden_commands() {
            assert_eq!(hex(&cmd.encode()), pinned, "{cmd:?}");
            assert_eq!(cmd.encoded_len(), pinned.len() / 2, "{cmd:?}");
        }
        for (response, pinned) in golden_responses() {
            assert_eq!(hex(&response.encode()), pinned, "{response:?}");
        }
    }

    fn roundtrip_cmd(cmd: StoreCommand) {
        let mut encoded = cmd.encode();
        assert_eq!(encoded.len(), cmd.encoded_len());
        let back = StoreCommand::decode(&mut encoded).unwrap();
        assert_eq!(back, cmd);
        assert_eq!(encoded.remaining(), 0);
    }

    #[test]
    fn command_roundtrips() {
        roundtrip_cmd(StoreCommand::Read {
            key: Bytes::from_static(b"k1"),
        });
        roundtrip_cmd(StoreCommand::Scan {
            from: Bytes::from_static(b"a"),
            to: Bytes::from_static(b"z"),
            limit: 10,
        });
        roundtrip_cmd(StoreCommand::Update {
            key: Bytes::from_static(b"k"),
            value: Bytes::from_static(b"v"),
        });
        roundtrip_cmd(StoreCommand::Insert {
            key: Bytes::from_static(b"k"),
            value: Bytes::from(vec![0u8; 1024]),
        });
        roundtrip_cmd(StoreCommand::Delete {
            key: Bytes::from_static(b"k"),
        });
        roundtrip_cmd(StoreCommand::Batch(vec![
            StoreCommand::Read {
                key: Bytes::from_static(b"a"),
            },
            StoreCommand::Delete {
                key: Bytes::from_static(b"b"),
            },
        ]));
    }

    #[test]
    fn response_roundtrips() {
        for r in [
            StoreResponse::Value(None),
            StoreResponse::Value(Some(Bytes::from_static(b"v"))),
            StoreResponse::Entries(vec![(Bytes::from_static(b"k"), Bytes::from_static(b"v"))]),
            StoreResponse::Ok,
            StoreResponse::Miss,
            StoreResponse::Batch(vec![StoreResponse::Ok, StoreResponse::Miss]),
        ] {
            let mut encoded = r.encode();
            assert_eq!(StoreResponse::decode(&mut encoded).unwrap(), r);
        }
    }

    /// 10 000 batches, each the only item of the one before (50 001
    /// bytes), as a client can send them in one command. Decoding used
    /// to recurse once per level and overflow a default 2 MiB thread
    /// stack — on every replica of the partition, and again on
    /// re-delivery after a restart — so the verdict is taken on such a
    /// thread. `StoreClient` builds flat batches only; a batch inside a
    /// batch is malformed.
    fn nested_batches(tag: u8) -> Bytes {
        let mut input = BytesMut::new();
        for _ in 0..10_000 {
            input.put_u8(tag);
            input.put_u32_le(1);
        }
        input.put_u8(tag);
        assert_eq!(input.len(), 50_001);
        input.freeze()
    }

    #[test]
    fn nested_batch_command_is_refused_instead_of_recursed_into() {
        let mut input = nested_batches(C_BATCH);
        let decoder = std::thread::spawn(move || StoreCommand::decode(&mut input));
        assert_eq!(decoder.join().expect("decoder thread"), None);
        let nested = StoreCommand::Batch(vec![StoreCommand::Batch(vec![])]);
        assert_eq!(StoreCommand::decode(&mut nested.encode()), None);
    }

    #[test]
    fn nested_batch_response_is_refused_instead_of_recursed_into() {
        let mut input = nested_batches(R_BATCH);
        let decoder = std::thread::spawn(move || StoreResponse::decode(&mut input));
        assert_eq!(decoder.join().expect("decoder thread"), None);
        let nested = StoreResponse::Batch(vec![StoreResponse::Batch(vec![])]);
        assert_eq!(StoreResponse::decode(&mut nested.encode()), None);
    }

    #[test]
    fn malformed_input_rejected() {
        let mut empty = Bytes::new();
        assert!(StoreCommand::decode(&mut empty).is_none());
        let mut bad_tag = Bytes::from_static(&[99]);
        assert!(StoreCommand::decode(&mut bad_tag).is_none());
        let mut truncated = Bytes::from_static(&[C_READ, 10, 0, 0, 0, 1]);
        assert!(StoreCommand::decode(&mut truncated).is_none());
    }

    /// Every field is fixed-size or length-prefixed, so no valid
    /// encoding has a valid encoding as a strict prefix.
    #[test]
    fn every_strict_prefix_of_a_valid_encoding_is_rejected() {
        for (cmd, _) in golden_commands() {
            let full = cmd.encode();
            for cut in 0..full.len() {
                let prefix = StoreCommand::decode(&mut full.slice(..cut));
                assert_eq!(prefix, None, "{cmd:?} cut at {cut}");
            }
        }
        for (response, _) in golden_responses() {
            let full = response.encode();
            for cut in 0..full.len() {
                let prefix = StoreResponse::decode(&mut full.slice(..cut));
                assert_eq!(prefix, None, "{response:?} cut at {cut}");
            }
        }
    }

    /// `valid` with one byte in four overwritten from `noise`, by a
    /// value below 64 — a tag, a small count or length. Unlike uniform
    /// noise, which dies at the first tag, this reaches the fields.
    fn damaged(valid: &[u8], noise: &[u8]) -> Bytes {
        let mut bytes = valid.to_vec();
        for (b, n) in bytes.iter_mut().zip(noise) {
            if n % 4 == 0 {
                *b = n / 4;
            }
        }
        Bytes::from(bytes)
    }

    proptest! {
        /// Uniform noise, and the same noise laid over a valid command
        /// and a valid response.
        #[test]
        fn prop_decoding_arbitrary_bytes_never_panics(
            noise in proptest::collection::vec(any::<u8>(), 0..512),
            pick in any::<u64>(),
        ) {
            let _ = StoreCommand::decode(&mut Bytes::from(noise.clone()));
            let _ = StoreResponse::decode(&mut Bytes::from(noise.clone()));
            let (commands, responses) = (golden_commands(), golden_responses());
            let (cmd, _) = &commands[pick as usize % commands.len()];
            let _ = StoreCommand::decode(&mut damaged(&cmd.encode(), &noise));
            let (response, _) = &responses[pick as usize % responses.len()];
            let _ = StoreResponse::decode(&mut damaged(&response.encode(), &noise));
        }
    }
}
