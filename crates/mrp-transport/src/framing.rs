//! Length-prefixed message framing over byte streams.
//!
//! A frame is `u32` little-endian payload length followed by one encoded
//! [`Message`]. The first frame on every connection is a handshake frame
//! carrying the sender's process id.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use multiring_paxos::codec::{self, CodecError};
use multiring_paxos::event::Message;
use multiring_paxos::types::ProcessId;
use std::io::{Read, Write};

/// Maximum accepted frame length (64 MiB): guards against corrupt
/// prefixes.
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Appends one framed message to `buf`, which a writer fills with as
/// many frames as it wants to hand to one `write`.
pub fn put_frame(buf: &mut BytesMut, msg: &Message) {
    let at = buf.len();
    buf.put_u32_le(0); // placeholder
    codec::encode(msg, buf);
    let len = (buf.len() - at - 4) as u32;
    buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Writes one framed message to `w`, encoding through a caller-owned
/// scratch buffer.
///
/// The buffer is cleared (capacity retained), so a long-lived
/// connection that passes the same `scratch` for every frame stops
/// allocating once the buffer has grown to its steady-state frame size.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_frame_into(
    w: &mut impl Write,
    msg: &Message,
    scratch: &mut BytesMut,
) -> std::io::Result<()> {
    scratch.clear();
    put_frame(scratch, msg);
    w.write_all(scratch)
}

/// The connection handshake: the dialer announces its process id so the
/// acceptor can attribute inbound frames.
pub fn write_hello(w: &mut impl Write, me: ProcessId) -> std::io::Result<()> {
    w.write_all(&me.value().to_le_bytes())
}

/// Reads the dialer's process id.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn read_hello(r: &mut impl Read) -> std::io::Result<ProcessId> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(ProcessId::new(u32::from_le_bytes(buf)))
}

/// Incremental decoder the TCP readers feed one `read` at a time.
///
/// The buffered region is frozen into a shared [`Bytes`] once per
/// accumulation burst and complete frames are then served as zero-copy
/// sub-views ([`Bytes::split_to`]), so decoded payloads alias the
/// accumulator's storage instead of being copied out frame by frame.
/// At most one of the two internal buffers is non-empty at a time; a
/// partial trailing frame is folded back into the mutable side only
/// when more bytes arrive.
#[derive(Default, Debug)]
pub struct FrameAccumulator {
    /// Mutable accumulation buffer (bytes not yet frozen).
    buf: BytesMut,
    /// Frozen region complete frames are split from without copying.
    frozen: Bytes,
    /// The first error [`next`](Self::next) returned. The stream is
    /// damaged from there on: nothing behind it is served.
    failed: Option<CodecError>,
}

/// Payload length of the frame at the head of `bytes`, once all of it
/// has arrived. The prefix is checked as soon as it is readable, so a
/// lying one is refused before anything is buffered toward it.
fn whole_frame(bytes: &[u8]) -> Result<Option<usize>, CodecError> {
    let Some(prefix) = bytes.first_chunk::<4>() else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(*prefix);
    if len > MAX_FRAME {
        return Err(CodecError::BadLength(u64::from(len)));
    }
    Ok(Some(len as usize).filter(|len| bytes.len() - 4 >= *len))
}

impl FrameAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds raw bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        if !self.frozen.is_empty() {
            // A partial frame is stranded in the frozen region; fold it
            // back so the new bytes extend it contiguously. This copies
            // at most one partial frame, not the whole history.
            self.buf.extend_from_slice(&self.frozen);
            self.frozen = Bytes::new();
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame, if any.
    ///
    /// # Errors
    ///
    /// Returns decode failures, and a length prefix above
    /// [`MAX_FRAME`], as [`CodecError`]; the stream cannot be
    /// resynchronised after either, so every later call repeats the
    /// error.
    // Fallible and non-iterating, so deliberately not `Iterator::next`.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Message>, CodecError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        let popped = self.pop();
        if let Err(e) = &popped {
            self.failed = Some(e.clone());
        }
        popped
    }

    fn pop(&mut self) -> Result<Option<Message>, CodecError> {
        if self.frozen.is_empty() {
            // Freeze only what holds a whole frame: one larger than a
            // `read` then grows in place instead of being folded back
            // and copied again on every `extend`.
            if whole_frame(&self.buf)?.is_none() {
                return Ok(None);
            }
            self.frozen = std::mem::take(&mut self.buf).freeze();
        }
        let Some(len) = whole_frame(&self.frozen)? else {
            return Ok(None);
        };
        self.frozen.advance(4);
        let mut frame = self.frozen.split_to(len);
        codec::decode(&mut frame).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multiring_paxos::types::{ClientId, GroupId, InstanceId, RingId};
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    fn sample() -> Message {
        Message::TrimCommand {
            ring: RingId::new(3),
            upto: InstanceId::new(77),
        }
    }

    fn query(seq: u64) -> Message {
        Message::TrimQuery {
            group: GroupId::new(1),
            seq,
        }
    }

    fn framed(msgs: &[Message]) -> Vec<u8> {
        let mut buf = BytesMut::new();
        for m in msgs {
            put_frame(&mut buf, m);
        }
        buf.to_vec()
    }

    fn drain(acc: &mut FrameAccumulator) -> Vec<Message> {
        std::iter::from_fn(|| acc.next().unwrap()).collect()
    }

    #[test]
    fn hello_roundtrip() {
        let mut buf = Vec::new();
        write_hello(&mut buf, ProcessId::new(9)).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_hello(&mut cursor).unwrap(), ProcessId::new(9));
    }

    #[test]
    fn write_frame_into_reuses_scratch_across_frames() {
        let mut actual = Vec::new();
        let mut scratch = BytesMut::new();
        write_frame_into(&mut actual, &sample(), &mut scratch).unwrap();
        write_frame_into(&mut actual, &query(4), &mut scratch).unwrap();
        assert_eq!(actual, framed(&[sample(), query(4)]));
    }

    #[test]
    fn lying_prefix_is_refused_before_anything_is_buffered_toward_it() {
        let mut acc = FrameAccumulator::new();
        acc.extend(&(MAX_FRAME + 1).to_le_bytes());
        assert_eq!(
            acc.next(),
            Err(CodecError::BadLength(u64::from(MAX_FRAME) + 1))
        );
        // The largest honest prefix is only waited for.
        let mut acc = FrameAccumulator::new();
        acc.extend(&MAX_FRAME.to_le_bytes());
        assert_eq!(acc.next(), Ok(None));
    }

    #[test]
    fn prefix_torn_across_two_reads() {
        let bytes = framed(&[sample(), query(9)]);
        let first = framed(&[sample()]).len();
        // The second frame's length prefix is cut after two bytes.
        let mut acc = FrameAccumulator::new();
        acc.extend(&bytes[..first + 2]);
        assert_eq!(drain(&mut acc), [sample()]);
        acc.extend(&bytes[first + 2..]);
        assert_eq!(drain(&mut acc), [query(9)]);
    }

    #[test]
    fn thousand_frames_in_one_extend() {
        let msgs: Vec<Message> = (0..1000).map(query).collect();
        let mut acc = FrameAccumulator::new();
        acc.extend(&framed(&msgs));
        assert_eq!(drain(&mut acc), msgs);
    }

    #[test]
    fn accumulator_folds_partial_tail_across_bursts() {
        // A complete frame plus a torn prefix of the next one arrive in
        // one burst; the remainder lands later. Both frames must decode.
        let a = framed(&[sample()]);
        let b = framed(&[query(9)]);
        let mut acc = FrameAccumulator::new();
        let split = b.len() / 2;
        let mut first = a.clone();
        first.extend_from_slice(&b[..split]);
        acc.extend(&first);
        assert_eq!(acc.next().unwrap(), Some(sample()));
        assert_eq!(acc.next().unwrap(), None);
        acc.extend(&b[split..]);
        assert_eq!(acc.next().unwrap(), Some(query(9)));
        assert_eq!(acc.next().unwrap(), None);
    }

    /// A stream of `n` mixed frames drawn from `seed`: the fixed-size
    /// kinds, requests with payloads from nothing to a few reads' worth,
    /// engine frames, and link-level batches of them.
    fn mixed(seed: u64, n: usize) -> Vec<Message> {
        let mut rng = TestRng::deterministic(&seed.to_string());
        let plain = |rng: &mut TestRng| match rng.below(4) {
            0 => sample(),
            1 => query(rng.next_u64()),
            2 => Message::Request {
                client: ClientId::new(rng.next_u64()),
                request: rng.next_u64(),
                groups: (0..rng.below(4)).map(|g| GroupId::new(g as u16)).collect(),
                payload: Bytes::from(vec![rng.next_u64() as u8; rng.below(3_000) as usize]),
            },
            _ => Message::Engine {
                engine: rng.below(3) as u8,
                payload: Bytes::from(vec![rng.next_u64() as u8; rng.below(200) as usize]),
            },
        };
        (0..n)
            .map(|_| match rng.below(5) {
                0 => Message::Batch((0..rng.below(4)).map(|_| plain(&mut rng)).collect()),
                _ => plain(&mut rng),
            })
            .collect()
    }

    /// Feeds `bytes` cut wherever `cuts` says (chunk lengths, cycled),
    /// popping after every chunk as the readers do, until the first
    /// error; then keeps feeding and popping to see the accumulator
    /// stay shut. Returns the frames served and that error.
    fn feed(bytes: &[u8], cuts: &[usize]) -> (Vec<Message>, Option<CodecError>) {
        let mut acc = FrameAccumulator::new();
        let (mut out, mut failed) = (Vec::new(), None);
        let mut rest = bytes;
        for cut in cuts.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (chunk, tail) = rest.split_at((*cut).clamp(1, rest.len()));
            rest = tail;
            acc.extend(chunk);
            loop {
                match acc.next() {
                    Ok(Some(m)) if failed.is_none() => out.push(m),
                    Ok(Some(m)) => panic!("served {m:?} after {failed:?}"),
                    Ok(None) => break,
                    Err(e) => {
                        assert_eq!(*failed.get_or_insert(e.clone()), e, "the error changed");
                        break;
                    }
                }
            }
        }
        (out, failed)
    }

    proptest! {
        /// However a valid stream is cut into reads, the frames out are
        /// the frames in.
        #[test]
        fn prop_every_chunking_of_a_valid_stream_yields_its_frames(
            seed in any::<u64>(),
            n in 1usize..40,
            cuts in proptest::collection::vec(1usize..5_000, 1..32),
        ) {
            let msgs = mixed(seed, n);
            let (out, failed) = feed(&framed(&msgs), &cuts);
            prop_assert_eq!(failed, None);
            prop_assert_eq!(out, msgs);
        }

        /// Noise laid over a valid stream — a run of it somewhere, so
        /// what precedes the damage is still well-formed and the damage
        /// lands in prefixes, tags, lengths and payloads alike — never
        /// panics, whatever the chunking; what is served before the
        /// first error starts with the frames wholly before the damage,
        /// and nothing is served after it.
        #[test]
        fn prop_noise_over_a_valid_stream_never_panics_and_the_first_error_is_final(
            seed in any::<u64>(),
            n in 1usize..40,
            cuts in proptest::collection::vec(1usize..5_000, 1..32),
            at in any::<u64>(),
            noise in proptest::collection::vec(any::<u8>(), 1..64),
        ) {
            let msgs = mixed(seed, n);
            let mut bytes = framed(&msgs);
            let at = at as usize % bytes.len();
            for (b, noise) in bytes[at..].iter_mut().zip(&noise) {
                *b = *noise;
            }
            let (out, _) = feed(&bytes, &cuts);
            let intact = (1..=n).take_while(|&k| framed(&msgs[..k]).len() <= at).count();
            prop_assert!(out.len() >= intact, "{} of {intact} intact frames", out.len());
            prop_assert_eq!(&out[..intact], &msgs[..intact]);
        }
    }

    #[test]
    fn accumulator_handles_partial_input() {
        let msgs = [sample(), query(4)];
        let mut acc = FrameAccumulator::new();
        // Feed byte by byte: frames appear exactly when complete.
        let mut decoded = Vec::new();
        for b in framed(&msgs) {
            acc.extend(&[b]);
            decoded.extend(drain(&mut acc));
        }
        assert_eq!(decoded, msgs);
    }
}
