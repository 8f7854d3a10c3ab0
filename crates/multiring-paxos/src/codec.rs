//! Binary wire encoding of protocol messages.
//!
//! A hand-written codec on top of [`bytes`]: the TCP transport uses it
//! to frame messages, the acceptor WAL to store [`PersistRecord`]s, and
//! the simulator uses [`encoded_len`]/[`record_len`] to charge links and
//! disks for exactly the bytes a real deployment would move. Integers
//! are little-endian; variable-size fields carry `u32` length prefixes.
//!
//! This module is the one place a byte layout is written down, and each
//! layout is written down twice, never three times: a writer into any
//! [`BufMut`] and a reader over any [`Buf`]. A length is the writer run
//! over a sink that only counts ([`counted`]), so it cannot disagree
//! with the bytes; a field that is not there is refused by the checked
//! readers below, so no decoder compares `remaining()` itself.
//!
//! ## Field helpers
//!
//! The shared vocabulary of every format built on this codec — the
//! engine-private frames inside [`Message::Engine`] payloads, the
//! services' command sets, their snapshots, the checkpoint blob:
//!
//! | write | read | field |
//! |---|---|---|
//! | `BufMut::put_u8` … `put_u64_le` | [`get_u8`], [`get_u16`], [`get_u32`], [`get_u64`] | fixed-size integers |
//! | [`put_bytes`] | [`get_bytes`] | `u32` length + bytes |
//! | — | [`get_exact`] | bytes whose length was read some other way |
//! | [`put_value`] | [`get_value`] | a multicast [`Value`] |
//! | count, then each item | a count, then [`get_seq`] | a sequence |
//! | `Tag::X as u8` | `Tag::from_u8` | a tag declared by [`wire_tags!`](crate::codec::wire_tags) |
//!
//! ## Adding a frame
//!
//! 1. Add the variant to [`Message`] (or [`PersistRecord`]) and its tag,
//!    with the next free value, to the `Tag` (or `RecordTag`) enum here.
//! 2. One arm in [`encode`] (or [`encode_record`]) that writes the tag
//!    and then the fields through the helpers above.
//! 3. One arm in [`decode`] (or [`decode_record`]) that reads the same
//!    fields in the same order.
//!
//! The compiler asks for each step the one before leaves open — the
//! three `match`es are exhaustive, a tag value used twice is E0081 — and
//! then for a golden: the test module's `tag_of` does not compile
//! without the variant, and `every_tag_opens_a_golden` fails until
//! `golden_messages` (or `golden_records`) pins its bytes. There is no
//! length function to extend, no bounds check to write and no list to
//! keep in step elsewhere.
//!
//! Every format built on this codec declares its tags the same way,
//! through [`wire_tags!`](crate::codec::wire_tags).

use crate::event::{Message, PersistRecord};
use crate::recovery::CheckpointId;
use crate::types::{
    Ballot, ClientId, ConsensusValue, GroupId, InstanceId, ProcessId, Value, ValueId,
};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

/// Errors produced while decoding a frame.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CodecError {
    /// The buffer ended before the message was complete.
    Truncated,
    /// An unknown message or enum tag was encountered.
    BadTag(u8),
    /// A length prefix exceeded the remaining buffer or a sanity bound.
    BadLength(u64),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "frame truncated"),
            CodecError::BadTag(t) => write!(f, "unknown tag {t}"),
            CodecError::BadLength(l) => write!(f, "implausible length {l}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Upper bound accepted for any single length prefix (1 GiB): protects
/// against corrupt frames allocating unbounded memory.
const MAX_LEN: u64 = 1 << 30;

/// Declares one wire vocabulary: a `#[repr(u8)]` enum whose explicit
/// discriminants are the tag bytes. A writer puts `Tag::X as u8`; a
/// reader matches on `Tag::from_u8(byte)?`, exhaustively — so a tag
/// without a read arm does not compile, and neither do two tags with one
/// value.
///
/// ```
/// multiring_paxos::codec::wire_tags! {
///     /// What a reply opens with.
///     enum ReplyTag {
///         Ok = 1,
///         Miss = 2,
///     }
/// }
/// assert_eq!(ReplyTag::from_u8(ReplyTag::Miss as u8), Ok(ReplyTag::Miss));
/// assert!(ReplyTag::from_u8(3).is_err());
/// ```
#[macro_export]
macro_rules! wire_tags {
    ($(#[$meta:meta])* $vis:vis enum $name:ident { $($variant:ident = $value:literal),+ $(,)? }) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        #[repr(u8)]
        $vis enum $name {
            $($variant = $value,)+
        }

        impl $name {
            /// The tag `byte` stands for.
            ///
            /// # Errors
            ///
            /// `CodecError::BadTag` carrying `byte` when no tag has that
            /// value.
            $vis fn from_u8(byte: u8) -> Result<$name, $crate::codec::CodecError> {
                match byte {
                    $($value => Ok($name::$variant),)+
                    _ => Err($crate::codec::CodecError::BadTag(byte)),
                }
            }
        }
    };
}
pub use wire_tags;

wire_tags! {
    /// The byte a [`Message`] frame opens with, one per variant.
    enum Tag {
        Forward = 1,
        Phase1A = 2,
        Phase1B = 3,
        Phase2 = 4,
        Decision = 5,
        Retransmit = 6,
        RetransmitReply = 7,
        TrimQuery = 8,
        TrimReply = 9,
        TrimCommand = 10,
        CheckpointQuery = 11,
        CheckpointInfo = 12,
        CheckpointFetch = 13,
        CheckpointData = 14,
        Request = 15,
        Response = 16,
        Batch = 17,
        Engine = 18,
    }
}

/// Encodes `msg` into `buf`.
pub fn encode(msg: &Message, buf: &mut impl BufMut) {
    match msg {
        Message::Forward { ring, values, hops } => {
            buf.put_u8(Tag::Forward as u8);
            buf.put_u16_le(ring.value());
            buf.put_u32_le(*hops);
            buf.put_u32_le(values.len() as u32);
            for v in values {
                put_value(buf, v);
            }
        }
        Message::Phase1A { ring, ballot, from } => {
            buf.put_u8(Tag::Phase1A as u8);
            buf.put_u16_le(ring.value());
            put_ballot(buf, *ballot);
            buf.put_u64_le(from.value());
        }
        Message::Phase1B {
            ring,
            ballot,
            from,
            accepted,
            trimmed,
        } => {
            buf.put_u8(Tag::Phase1B as u8);
            buf.put_u16_le(ring.value());
            put_ballot(buf, *ballot);
            buf.put_u64_le(from.value());
            buf.put_u64_le(trimmed.value());
            buf.put_u32_le(accepted.len() as u32);
            for (i, b, v) in accepted {
                buf.put_u64_le(i.value());
                put_ballot(buf, *b);
                put_cv(buf, v);
            }
        }
        Message::Phase2 {
            ring,
            ballot,
            first,
            count,
            value,
            votes,
        } => {
            buf.put_u8(Tag::Phase2 as u8);
            buf.put_u16_le(ring.value());
            put_ballot(buf, *ballot);
            buf.put_u64_le(first.value());
            buf.put_u32_le(*count);
            buf.put_u32_le(*votes);
            put_cv(buf, value);
        }
        Message::Decision {
            ring,
            first,
            count,
            value,
            hops,
        } => {
            buf.put_u8(Tag::Decision as u8);
            buf.put_u16_le(ring.value());
            buf.put_u64_le(first.value());
            buf.put_u32_le(*count);
            buf.put_u32_le(*hops);
            put_opt(buf, value.as_ref(), put_cv);
        }
        Message::Retransmit { ring, from, to } => {
            buf.put_u8(Tag::Retransmit as u8);
            buf.put_u16_le(ring.value());
            buf.put_u64_le(from.value());
            buf.put_u64_le(to.value());
        }
        Message::RetransmitReply {
            ring,
            decided,
            trimmed,
        } => {
            buf.put_u8(Tag::RetransmitReply as u8);
            buf.put_u16_le(ring.value());
            buf.put_u64_le(trimmed.value());
            buf.put_u32_le(decided.len() as u32);
            for (i, c, v) in decided {
                buf.put_u64_le(i.value());
                buf.put_u32_le(*c);
                put_cv(buf, v);
            }
        }
        Message::TrimQuery { group, seq } => {
            buf.put_u8(Tag::TrimQuery as u8);
            buf.put_u16_le(group.value());
            buf.put_u64_le(*seq);
        }
        Message::TrimReply { group, seq, safe } => {
            buf.put_u8(Tag::TrimReply as u8);
            buf.put_u16_le(group.value());
            buf.put_u64_le(*seq);
            buf.put_u64_le(safe.value());
        }
        Message::TrimCommand { ring, upto } => {
            buf.put_u8(Tag::TrimCommand as u8);
            buf.put_u16_le(ring.value());
            buf.put_u64_le(upto.value());
        }
        Message::CheckpointQuery { seq } => {
            buf.put_u8(Tag::CheckpointQuery as u8);
            buf.put_u64_le(*seq);
        }
        Message::CheckpointInfo { seq, checkpoint } => {
            buf.put_u8(Tag::CheckpointInfo as u8);
            buf.put_u64_le(*seq);
            put_opt(buf, checkpoint.as_ref(), put_ckpt);
        }
        Message::CheckpointFetch { seq, id } => {
            buf.put_u8(Tag::CheckpointFetch as u8);
            buf.put_u64_le(*seq);
            put_ckpt(buf, id);
        }
        Message::CheckpointData { seq, id, snapshot } => {
            buf.put_u8(Tag::CheckpointData as u8);
            buf.put_u64_le(*seq);
            put_ckpt(buf, id);
            put_opt(buf, snapshot.as_ref(), |buf, s| put_bytes(buf, s));
        }
        Message::Request {
            client,
            request,
            groups,
            payload,
        } => {
            buf.put_u8(Tag::Request as u8);
            buf.put_u64_le(client.value());
            buf.put_u64_le(*request);
            buf.put_u16_le(groups.len() as u16);
            for g in groups {
                buf.put_u16_le(g.value());
            }
            put_bytes(buf, payload);
        }
        Message::Response {
            client,
            request,
            payload,
        } => {
            buf.put_u8(Tag::Response as u8);
            buf.put_u64_le(client.value());
            buf.put_u64_le(*request);
            put_bytes(buf, payload);
        }
        Message::Batch(msgs) => {
            buf.put_u8(Tag::Batch as u8);
            buf.put_u32_le(msgs.len() as u32);
            for m in msgs {
                encode(m, buf);
            }
        }
        Message::Engine { engine, payload } => {
            buf.put_u8(Tag::Engine as u8);
            buf.put_u8(*engine);
            put_bytes(buf, payload);
        }
    }
}

/// Encodes `msg` into a fresh buffer.
pub fn encode_to_bytes(msg: &Message) -> Bytes {
    let mut buf = BytesMut::with_capacity(encoded_len(msg));
    encode(msg, &mut buf);
    buf.freeze()
}

/// The exact number of bytes [`encode`] produces for `msg`, without
/// allocating. The simulator uses this to charge link bandwidth.
pub fn encoded_len(msg: &Message) -> usize {
    count(|sink| encode(msg, sink))
}

/// Decodes one message from `buf`.
///
/// # Errors
///
/// Returns [`CodecError`] if the buffer is truncated, a tag is unknown or
/// a length prefix is implausible.
pub fn decode(buf: &mut impl Buf) -> Result<Message, CodecError> {
    match Tag::from_u8(get_u8(buf)?)? {
        Tag::Forward => {
            let ring = GroupId::new(get_u16(buf)?);
            let hops = get_u32(buf)?;
            let values = get_seq(get_len(buf)?, buf, get_value)?;
            Ok(Message::Forward { ring, values, hops })
        }
        Tag::Phase1A => Ok(Message::Phase1A {
            ring: GroupId::new(get_u16(buf)?),
            ballot: get_ballot(buf)?,
            from: InstanceId::new(get_u64(buf)?),
        }),
        Tag::Phase1B => {
            let ring = GroupId::new(get_u16(buf)?);
            let ballot = get_ballot(buf)?;
            let from = InstanceId::new(get_u64(buf)?);
            let trimmed = InstanceId::new(get_u64(buf)?);
            let accepted = get_seq(get_len(buf)?, buf, |buf| {
                let i = InstanceId::new(get_u64(buf)?);
                Ok((i, get_ballot(buf)?, get_cv(buf)?))
            })?;
            Ok(Message::Phase1B {
                ring,
                ballot,
                from,
                accepted,
                trimmed,
            })
        }
        Tag::Phase2 => Ok(Message::Phase2 {
            ring: GroupId::new(get_u16(buf)?),
            ballot: get_ballot(buf)?,
            first: InstanceId::new(get_u64(buf)?),
            count: get_u32(buf)?,
            votes: get_u32(buf)?,
            value: get_cv(buf)?,
        }),
        Tag::Decision => {
            let ring = GroupId::new(get_u16(buf)?);
            let first = InstanceId::new(get_u64(buf)?);
            let count = get_u32(buf)?;
            let hops = get_u32(buf)?;
            Ok(Message::Decision {
                ring,
                first,
                count,
                value: get_opt(buf, get_cv)?,
                hops,
            })
        }
        Tag::Retransmit => Ok(Message::Retransmit {
            ring: GroupId::new(get_u16(buf)?),
            from: InstanceId::new(get_u64(buf)?),
            to: InstanceId::new(get_u64(buf)?),
        }),
        Tag::RetransmitReply => {
            let ring = GroupId::new(get_u16(buf)?);
            let trimmed = InstanceId::new(get_u64(buf)?);
            let decided = get_seq(get_len(buf)?, buf, |buf| {
                let i = InstanceId::new(get_u64(buf)?);
                Ok((i, get_u32(buf)?, get_cv(buf)?))
            })?;
            Ok(Message::RetransmitReply {
                ring,
                decided,
                trimmed,
            })
        }
        Tag::TrimQuery => Ok(Message::TrimQuery {
            group: GroupId::new(get_u16(buf)?),
            seq: get_u64(buf)?,
        }),
        Tag::TrimReply => Ok(Message::TrimReply {
            group: GroupId::new(get_u16(buf)?),
            seq: get_u64(buf)?,
            safe: InstanceId::new(get_u64(buf)?),
        }),
        Tag::TrimCommand => Ok(Message::TrimCommand {
            ring: GroupId::new(get_u16(buf)?),
            upto: InstanceId::new(get_u64(buf)?),
        }),
        Tag::CheckpointQuery => Ok(Message::CheckpointQuery { seq: get_u64(buf)? }),
        Tag::CheckpointInfo => Ok(Message::CheckpointInfo {
            seq: get_u64(buf)?,
            checkpoint: get_opt(buf, get_ckpt)?,
        }),
        Tag::CheckpointFetch => Ok(Message::CheckpointFetch {
            seq: get_u64(buf)?,
            id: get_ckpt(buf)?,
        }),
        Tag::CheckpointData => Ok(Message::CheckpointData {
            seq: get_u64(buf)?,
            id: get_ckpt(buf)?,
            snapshot: get_opt(buf, get_bytes)?,
        }),
        Tag::Request => {
            let client = ClientId::new(get_u64(buf)?);
            let request = get_u64(buf)?;
            let groups = get_seq(get_u16(buf)?.into(), buf, |buf| {
                Ok(GroupId::new(get_u16(buf)?))
            })?;
            Ok(Message::Request {
                client,
                request,
                groups,
                payload: get_bytes(buf)?,
            })
        }
        Tag::Response => Ok(Message::Response {
            client: ClientId::new(get_u64(buf)?),
            request: get_u64(buf)?,
            payload: get_bytes(buf)?,
        }),
        Tag::Batch => Ok(Message::Batch(get_seq(get_len(buf)?, buf, |buf| {
            // Nothing sends a batch inside a batch, and refusing one
            // bounds this recursion at two frames whatever the bytes
            // say (one per level would let a 50 kB frame overflow the
            // stack).
            if buf.chunk().first() == Some(&(Tag::Batch as u8)) {
                return Err(CodecError::BadTag(Tag::Batch as u8));
            }
            decode(buf)
        })?)),
        Tag::Engine => Ok(Message::Engine {
            engine: get_u8(buf)?,
            payload: get_bytes(buf)?,
        }),
    }
}

// ---- persist records (acceptor WAL / checkpoint files) ----------------

wire_tags! {
    /// The byte a [`PersistRecord`] opens with, one per variant.
    enum RecordTag {
        Promise = 40,
        Vote = 41,
        Checkpoint = 42,
        Decision = 43,
    }
}

/// Encodes a stable-storage record (acceptor WAL entry or checkpoint).
pub fn encode_record(record: &PersistRecord, buf: &mut impl BufMut) {
    match record {
        PersistRecord::Promise { ring, ballot, from } => {
            buf.put_u8(RecordTag::Promise as u8);
            buf.put_u16_le(ring.value());
            put_ballot(buf, *ballot);
            buf.put_u64_le(from.value());
        }
        PersistRecord::Vote {
            ring,
            ballot,
            first,
            count,
            value,
        } => {
            buf.put_u8(RecordTag::Vote as u8);
            buf.put_u16_le(ring.value());
            put_ballot(buf, *ballot);
            buf.put_u64_le(first.value());
            buf.put_u32_le(*count);
            put_cv(buf, value);
        }
        PersistRecord::Checkpoint { id, snapshot } => {
            buf.put_u8(RecordTag::Checkpoint as u8);
            put_ckpt(buf, id);
            put_bytes(buf, snapshot);
        }
        PersistRecord::Decision { ring, first, count } => {
            buf.put_u8(RecordTag::Decision as u8);
            buf.put_u16_le(ring.value());
            buf.put_u64_le(first.value());
            buf.put_u32_le(*count);
        }
    }
}

/// The number of bytes [`encode_record`] produces (used by disk models to
/// charge write bandwidth).
pub fn record_len(record: &PersistRecord) -> usize {
    count(|sink| encode_record(record, sink))
}

/// Decodes a stable-storage record.
///
/// # Errors
///
/// Returns [`CodecError`] on truncation or unknown tags.
pub fn decode_record(buf: &mut impl Buf) -> Result<PersistRecord, CodecError> {
    match RecordTag::from_u8(get_u8(buf)?)? {
        RecordTag::Promise => Ok(PersistRecord::Promise {
            ring: GroupId::new(get_u16(buf)?),
            ballot: get_ballot(buf)?,
            from: InstanceId::new(get_u64(buf)?),
        }),
        RecordTag::Vote => Ok(PersistRecord::Vote {
            ring: GroupId::new(get_u16(buf)?),
            ballot: get_ballot(buf)?,
            first: InstanceId::new(get_u64(buf)?),
            count: get_u32(buf)?,
            value: get_cv(buf)?,
        }),
        RecordTag::Checkpoint => Ok(PersistRecord::Checkpoint {
            id: get_ckpt(buf)?,
            snapshot: get_bytes(buf)?,
        }),
        RecordTag::Decision => Ok(PersistRecord::Decision {
            ring: GroupId::new(get_u16(buf)?),
            first: InstanceId::new(get_u64(buf)?),
            count: get_u32(buf)?,
        }),
    }
}

// ---- lengths ----------------------------------------------------------

/// A sink that counts what a writer puts into it and keeps none of it.
struct Counter(usize);

impl BufMut for Counter {
    fn put_slice(&mut self, src: &[u8]) {
        self.0 += src.len();
    }
}

fn count(write: impl FnOnce(&mut Counter)) -> usize {
    let mut sink = Counter(0);
    write(&mut sink);
    sink.0
}

/// The number of bytes `write` puts into the sink it is handed: how a
/// format outside this module gets its length from its own encoder.
/// (`dyn`, because the sink's type stays private; the module's own
/// lengths run the same sink statically.)
pub fn counted(write: impl FnOnce(&mut dyn BufMut)) -> usize {
    count(|sink| write(sink))
}

// ---- field helpers ----------------------------------------------------
//
// The `pub` ones are the vocabulary the module doc lists.

fn put_ballot(buf: &mut impl BufMut, b: Ballot) {
    buf.put_u32_le(b.round());
    buf.put_u32_le(b.node().value());
}

fn get_ballot(buf: &mut impl Buf) -> Result<Ballot, CodecError> {
    let round = get_u32(buf)?;
    let node = ProcessId::new(get_u32(buf)?);
    Ok(Ballot::new(round, node))
}

/// Appends a [`Value`]: proposer, sequence, group, length-prefixed
/// payload.
pub fn put_value(buf: &mut impl BufMut, v: &Value) {
    buf.put_u32_le(v.id.proposer.value());
    buf.put_u64_le(v.id.seq);
    buf.put_u16_le(v.group.value());
    put_bytes(buf, &v.payload);
}

/// Reads a [`Value`] written by [`put_value`].
///
/// # Errors
///
/// [`CodecError::Truncated`] or [`CodecError::BadLength`] on a short or
/// implausible buffer.
pub fn get_value(buf: &mut impl Buf) -> Result<Value, CodecError> {
    let proposer = ProcessId::new(get_u32(buf)?);
    let seq = get_u64(buf)?;
    let group = GroupId::new(get_u16(buf)?);
    let payload = get_bytes(buf)?;
    Ok(Value::new(ValueId::new(proposer, seq), group, payload))
}

fn put_cv(buf: &mut impl BufMut, cv: &ConsensusValue) {
    match cv {
        ConsensusValue::Skip => buf.put_u8(0),
        ConsensusValue::Values(vs) => {
            buf.put_u8(1);
            buf.put_u32_le(vs.len() as u32);
            for v in vs {
                put_value(buf, v);
            }
        }
    }
}

fn get_cv(buf: &mut impl Buf) -> Result<ConsensusValue, CodecError> {
    match get_u8(buf)? {
        0 => Ok(ConsensusValue::Skip),
        1 => Ok(ConsensusValue::Values(get_seq(
            get_len(buf)?,
            buf,
            get_value,
        )?)),
        t => Err(CodecError::BadTag(t)),
    }
}

fn put_ckpt(buf: &mut impl BufMut, c: &CheckpointId) {
    buf.put_u32_le(c.marks.len() as u32);
    for (g, i) in &c.marks {
        buf.put_u16_le(g.value());
        buf.put_u64_le(i.value());
    }
}

fn get_ckpt(buf: &mut impl Buf) -> Result<CheckpointId, CodecError> {
    Ok(CheckpointId {
        marks: get_seq(get_len(buf)?, buf, |buf| {
            Ok((GroupId::new(get_u16(buf)?), InstanceId::new(get_u64(buf)?)))
        })?,
    })
}

/// An `Option`: a presence byte, then the value if there is one.
fn put_opt<B: BufMut, T>(buf: &mut B, value: Option<&T>, put: impl FnOnce(&mut B, &T)) {
    match value {
        None => buf.put_u8(0),
        Some(v) => {
            buf.put_u8(1);
            put(buf, v);
        }
    }
}

fn get_opt<B: Buf, T>(
    buf: &mut B,
    get: impl FnOnce(&mut B) -> Result<T, CodecError>,
) -> Result<Option<T>, CodecError> {
    match get_u8(buf)? {
        0 => Ok(None),
        1 => get(buf).map(Some),
        t => Err(CodecError::BadTag(t)),
    }
}

/// Appends a `u32` length and then `b`. (`?Sized`, so an encoder that
/// uses it can also be run over [`counted`]'s sink.)
pub fn put_bytes<B: BufMut + ?Sized>(buf: &mut B, b: &[u8]) {
    buf.put_u32_le(b.len() as u32);
    buf.put_slice(b);
}

/// Reads bytes written by [`put_bytes`]; from a [`Bytes`] they alias
/// the input instead of being copied.
///
/// # Errors
///
/// [`CodecError::BadLength`] on a length above 1 GiB, and
/// [`CodecError::Truncated`] when fewer bytes remain than it names.
pub fn get_bytes(buf: &mut impl Buf) -> Result<Bytes, CodecError> {
    let n = get_len(buf)?;
    get_exact(buf, n as u64)
}

/// Reads the next `n` bytes, checked: for a field whose length the
/// caller read in some other width than [`get_bytes`]'s `u32`.
///
/// # Errors
///
/// [`CodecError::Truncated`] when fewer than `n` bytes remain.
pub fn get_exact(buf: &mut impl Buf, n: u64) -> Result<Bytes, CodecError> {
    if (buf.remaining() as u64) < n {
        return Err(CodecError::Truncated);
    }
    Ok(buf.copy_to_bytes(n as usize))
}

/// Reads a `u32` count or length, refusing one above 1 GiB.
///
/// # Errors
///
/// [`CodecError::Truncated`] or [`CodecError::BadLength`].
pub fn get_len(buf: &mut impl Buf) -> Result<usize, CodecError> {
    let n = u64::from(get_u32(buf)?);
    if n > MAX_LEN {
        return Err(CodecError::BadLength(n));
    }
    Ok(n as usize)
}

/// Reads `n` items with `item`. The one place a count from the wire
/// sizes an allocation: clamped, so a lying count reserves 4096 slots at
/// most before the items it promised fail to arrive.
///
/// # Errors
///
/// The first error `item` returns.
pub fn get_seq<B: Buf, T>(
    n: usize,
    buf: &mut B,
    mut item: impl FnMut(&mut B) -> Result<T, CodecError>,
) -> Result<Vec<T>, CodecError> {
    let mut items = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        items.push(item(buf)?);
    }
    Ok(items)
}

/// Reads a `u8`, checked.
///
/// # Errors
///
/// [`CodecError::Truncated`] when fewer than 1 byte remain.
pub fn get_u8(buf: &mut impl Buf) -> Result<u8, CodecError> {
    if buf.remaining() < 1 {
        return Err(CodecError::Truncated);
    }
    Ok(buf.get_u8())
}

/// Reads a little-endian `u16`, checked.
///
/// # Errors
///
/// [`CodecError::Truncated`] when fewer than 2 bytes remain.
pub fn get_u16(buf: &mut impl Buf) -> Result<u16, CodecError> {
    if buf.remaining() < 2 {
        return Err(CodecError::Truncated);
    }
    Ok(buf.get_u16_le())
}

/// Reads a little-endian `u32`, checked.
///
/// # Errors
///
/// [`CodecError::Truncated`] when fewer than 4 bytes remain.
pub fn get_u32(buf: &mut impl Buf) -> Result<u32, CodecError> {
    if buf.remaining() < 4 {
        return Err(CodecError::Truncated);
    }
    Ok(buf.get_u32_le())
}

/// Reads a little-endian `u64`, checked.
///
/// # Errors
///
/// [`CodecError::Truncated`] when fewer than 8 bytes remain.
pub fn get_u64(buf: &mut impl Buf) -> Result<u64, CodecError> {
    if buf.remaining() < 8 {
        return Err(CodecError::Truncated);
    }
    Ok(buf.get_u64_le())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const TAG_REQUEST: u8 = Tag::Request as u8;
    const TAG_BATCH: u8 = Tag::Batch as u8;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Exhaustive on purpose: a new variant does not compile here until
    /// it names its tag, and then [`every_tag_opens_a_golden`] wants
    /// its bytes pinned.
    fn tag_of(msg: &Message) -> Tag {
        match msg {
            Message::Forward { .. } => Tag::Forward,
            Message::Phase1A { .. } => Tag::Phase1A,
            Message::Phase1B { .. } => Tag::Phase1B,
            Message::Phase2 { .. } => Tag::Phase2,
            Message::Decision { .. } => Tag::Decision,
            Message::Retransmit { .. } => Tag::Retransmit,
            Message::RetransmitReply { .. } => Tag::RetransmitReply,
            Message::TrimQuery { .. } => Tag::TrimQuery,
            Message::TrimReply { .. } => Tag::TrimReply,
            Message::TrimCommand { .. } => Tag::TrimCommand,
            Message::CheckpointQuery { .. } => Tag::CheckpointQuery,
            Message::CheckpointInfo { .. } => Tag::CheckpointInfo,
            Message::CheckpointFetch { .. } => Tag::CheckpointFetch,
            Message::CheckpointData { .. } => Tag::CheckpointData,
            Message::Request { .. } => Tag::Request,
            Message::Response { .. } => Tag::Response,
            Message::Batch(_) => Tag::Batch,
            Message::Engine { .. } => Tag::Engine,
        }
    }

    fn record_tag_of(record: &PersistRecord) -> RecordTag {
        match record {
            PersistRecord::Promise { .. } => RecordTag::Promise,
            PersistRecord::Vote { .. } => RecordTag::Vote,
            PersistRecord::Checkpoint { .. } => RecordTag::Checkpoint,
            PersistRecord::Decision { .. } => RecordTag::Decision,
        }
    }

    /// Every byte the reader takes for a tag opens a pinned encoding of
    /// the variant it stands for: a tag nobody writes, a variant nobody
    /// pinned and a variant written under another's tag all end here.
    #[test]
    fn every_tag_opens_a_golden() {
        for tag in (0..=u8::MAX).filter_map(|byte| Tag::from_u8(byte).ok()) {
            let opens = format!("{:02x}", tag as u8);
            let pins =
                |(msg, pinned): &(Message, &str)| tag_of(msg) == tag && pinned.starts_with(&opens);
            assert!(golden_messages().iter().any(pins), "no golden for {tag:?}");
        }
        for tag in (0..=u8::MAX).filter_map(|byte| RecordTag::from_u8(byte).ok()) {
            let opens = format!("{:02x}", tag as u8);
            let pins = |(record, pinned): &(PersistRecord, &str)| {
                record_tag_of(record) == tag && pinned.starts_with(&opens)
            };
            assert!(golden_records().iter().any(pins), "no golden for {tag:?}");
        }
    }

    /// Every `Message` variant — both arms of each `Option`, `Skip` and
    /// `Values` — with the bytes the encoder produced before the codec
    /// was rewritten onto one counted writer. Deployed peers parse
    /// exactly these bytes and the simulator charges links by their
    /// length: moving one is a wire-format change, not a refactor.
    fn golden_messages() -> Vec<(Message, &'static str)> {
        let value = Value::new(
            ValueId::new(ProcessId::new(3), 77),
            GroupId::new(2),
            vec![1u8, 2, 3, 4],
        );
        let cv = ConsensusValue::Values(vec![value.clone()]);
        let ckpt = CheckpointId {
            marks: vec![
                (GroupId::new(0), InstanceId::new(10)),
                (GroupId::new(1), InstanceId::new(9)),
            ],
        };
        vec![
            (
                Message::Forward {
                    ring: GroupId::new(1),
                    values: vec![value.clone()],
                    hops: 2,
                },
                "0101000200000001000000030000004d0000000000000002000400000001020304",
            ),
            (
                Message::Phase1A {
                    ring: GroupId::new(1),
                    ballot: Ballot::new(4, ProcessId::new(2)),
                    from: InstanceId::new(5),
                },
                "02010004000000020000000500000000000000",
            ),
            (
                Message::Phase1B {
                    ring: GroupId::new(1),
                    ballot: Ballot::new(4, ProcessId::new(2)),
                    from: InstanceId::new(5),
                    accepted: vec![
                        (
                            InstanceId::new(6),
                            Ballot::new(3, ProcessId::new(1)),
                            cv.clone(),
                        ),
                        (
                            InstanceId::new(7),
                            Ballot::new(3, ProcessId::new(1)),
                            ConsensusValue::Skip,
                        ),
                    ],
                    trimmed: InstanceId::new(2),
                },
                "03010004000000020000000500000000000000020000000000000002000000060000000000000003000000010000000101000000030000004d00000000000000020004000000010203040700000000000000030000000100000000",
            ),
            (
                Message::Phase2 {
                    ring: GroupId::new(1),
                    ballot: Ballot::new(4, ProcessId::new(2)),
                    first: InstanceId::new(7),
                    count: 1,
                    value: cv.clone(),
                    votes: 2,
                },
                "0401000400000002000000070000000000000001000000020000000101000000030000004d0000000000000002000400000001020304",
            ),
            (
                Message::Phase2 {
                    ring: GroupId::new(1),
                    ballot: Ballot::new(4, ProcessId::new(2)),
                    first: InstanceId::new(8),
                    count: 16,
                    value: ConsensusValue::Skip,
                    votes: 1,
                },
                "04010004000000020000000800000000000000100000000100000000",
            ),
            (
                Message::Decision {
                    ring: GroupId::new(1),
                    first: InstanceId::new(7),
                    count: 3,
                    value: Some(ConsensusValue::Skip),
                    hops: 1,
                },
                "050100070000000000000003000000010000000100",
            ),
            (
                Message::Decision {
                    ring: GroupId::new(1),
                    first: InstanceId::new(8),
                    count: 1,
                    value: Some(cv.clone()),
                    hops: 0,
                },
                "05010008000000000000000100000000000000010101000000030000004d0000000000000002000400000001020304",
            ),
            (
                Message::Decision {
                    ring: GroupId::new(1),
                    first: InstanceId::new(9),
                    count: 1,
                    value: None,
                    hops: 2,
                },
                "0501000900000000000000010000000200000000",
            ),
            (
                Message::Retransmit {
                    ring: GroupId::new(0),
                    from: InstanceId::new(1),
                    to: InstanceId::new(4),
                },
                "06000001000000000000000400000000000000",
            ),
            (
                Message::RetransmitReply {
                    ring: GroupId::new(0),
                    decided: vec![
                        (InstanceId::new(1), 2, ConsensusValue::Skip),
                        (InstanceId::new(3), 1, cv),
                    ],
                    trimmed: InstanceId::ZERO,
                },
                "070000000000000000000002000000010000000000000002000000000300000000000000010000000101000000030000004d0000000000000002000400000001020304",
            ),
            (
                Message::TrimQuery {
                    group: GroupId::new(3),
                    seq: 9,
                },
                "0803000900000000000000",
            ),
            (
                Message::TrimReply {
                    group: GroupId::new(3),
                    seq: 9,
                    safe: InstanceId::new(100),
                },
                "09030009000000000000006400000000000000",
            ),
            (
                Message::TrimCommand {
                    ring: GroupId::new(2),
                    upto: InstanceId::new(50),
                },
                "0a02003200000000000000",
            ),
            (Message::CheckpointQuery { seq: 1 }, "0b0100000000000000"),
            (
                Message::CheckpointInfo {
                    seq: 1,
                    checkpoint: Some(ckpt.clone()),
                },
                "0c0100000000000000010200000000000a0000000000000001000900000000000000",
            ),
            (
                Message::CheckpointInfo {
                    seq: 2,
                    checkpoint: None,
                },
                "0c020000000000000000",
            ),
            (
                Message::CheckpointFetch {
                    seq: 3,
                    id: ckpt.clone(),
                },
                "0d03000000000000000200000000000a0000000000000001000900000000000000",
            ),
            (
                Message::CheckpointData {
                    seq: 3,
                    id: ckpt.clone(),
                    snapshot: Some(Bytes::from_static(b"snapshot")),
                },
                "0e03000000000000000200000000000a00000000000000010009000000000000000108000000736e617073686f74",
            ),
            (
                Message::CheckpointData {
                    seq: 4,
                    id: ckpt,
                    snapshot: None,
                },
                "0e04000000000000000200000000000a000000000000000100090000000000000000",
            ),
            (
                Message::Request {
                    client: ClientId::new(8),
                    request: 55,
                    groups: vec![GroupId::new(1)],
                    payload: Bytes::from_static(b"cmd"),
                },
                "0f080000000000000037000000000000000100010003000000636d64",
            ),
            (
                Message::Request {
                    client: ClientId::new(9),
                    request: 56,
                    groups: vec![GroupId::new(0), GroupId::new(2), GroupId::new(5)],
                    payload: Bytes::from_static(b"scan"),
                },
                "0f090000000000000038000000000000000300000002000500040000007363616e",
            ),
            (
                Message::Response {
                    client: ClientId::new(8),
                    request: 55,
                    payload: Bytes::from_static(b"ok"),
                },
                "1008000000000000003700000000000000020000006f6b",
            ),
            (
                Message::Batch(vec![
                    Message::CheckpointQuery { seq: 4 },
                    Message::TrimCommand {
                        ring: GroupId::new(0),
                        upto: InstanceId::new(1),
                    },
                ]),
                "11020000000b04000000000000000a00000100000000000000",
            ),
            (
                Message::Engine {
                    engine: 1,
                    payload: Bytes::from_static(b"engine-frame"),
                },
                "12010c000000656e67696e652d6672616d65",
            ),
        ]
    }

    /// Every stable-storage record with its pinned bytes: the WAL and
    /// the checkpoint file are durable formats, read back by whatever
    /// version restarts on them.
    fn golden_records() -> Vec<(PersistRecord, &'static str)> {
        let value = Value::new(
            ValueId::new(ProcessId::new(3), 77),
            GroupId::new(2),
            vec![1u8, 2, 3, 4],
        );
        vec![
            (
                PersistRecord::Promise {
                    ring: GroupId::new(1),
                    ballot: Ballot::new(4, ProcessId::new(2)),
                    from: InstanceId::new(5),
                },
                "28010004000000020000000500000000000000",
            ),
            (
                PersistRecord::Vote {
                    ring: GroupId::new(1),
                    ballot: Ballot::new(4, ProcessId::new(2)),
                    first: InstanceId::new(7),
                    count: 1,
                    value: ConsensusValue::Values(vec![value]),
                },
                "29010004000000020000000700000000000000010000000101000000030000004d0000000000000002000400000001020304",
            ),
            (
                PersistRecord::Vote {
                    ring: GroupId::new(1),
                    ballot: Ballot::new(4, ProcessId::new(2)),
                    first: InstanceId::new(8),
                    count: 16,
                    value: ConsensusValue::Skip,
                },
                "290100040000000200000008000000000000001000000000",
            ),
            (
                PersistRecord::Checkpoint {
                    id: CheckpointId {
                        marks: vec![(GroupId::new(0), InstanceId::new(10))],
                    },
                    snapshot: Bytes::from_static(b"snapshot"),
                },
                "2a0100000000000a0000000000000008000000736e617073686f74",
            ),
            (
                PersistRecord::Decision {
                    ring: GroupId::new(1),
                    first: InstanceId::new(7),
                    count: 2,
                },
                "2b0100070000000000000002000000",
            ),
        ]
    }

    fn sample_messages() -> Vec<Message> {
        golden_messages().into_iter().map(|(m, _)| m).collect()
    }

    #[test]
    fn messages_encode_to_the_pinned_bytes() {
        for (msg, pinned) in golden_messages() {
            assert_eq!(hex(&encode_to_bytes(&msg)), pinned, "{msg:?}");
            assert_eq!(encoded_len(&msg), pinned.len() / 2, "{msg:?}");
        }
    }

    #[test]
    fn records_encode_to_the_pinned_bytes_and_decode_back() {
        for (record, pinned) in golden_records() {
            let mut buf = BytesMut::new();
            encode_record(&record, &mut buf);
            assert_eq!(hex(&buf), pinned, "{record:?}");
            assert_eq!(record_len(&record), pinned.len() / 2, "{record:?}");
            let mut frozen = buf.freeze();
            assert_eq!(decode_record(&mut frozen), Ok(record));
            assert_eq!(frozen.remaining(), 0);
        }
    }

    #[test]
    fn roundtrip_all_variants() {
        for msg in sample_messages() {
            let mut buf = BytesMut::new();
            encode(&msg, &mut buf);
            assert_eq!(
                buf.len(),
                encoded_len(&msg),
                "encoded_len mismatch for {msg:?}"
            );
            let mut frozen = buf.freeze();
            let back = decode(&mut frozen).expect("decode");
            assert_eq!(back, msg);
            assert_eq!(frozen.remaining(), 0, "trailing bytes for {msg:?}");
        }
    }

    #[test]
    fn truncated_frames_error() {
        for msg in sample_messages() {
            let full = encode_to_bytes(&msg);
            for cut in 0..full.len() {
                let mut partial = full.slice(..cut);
                assert!(
                    decode(&mut partial).is_err(),
                    "decode of {cut}/{} bytes should fail for {msg:?}",
                    full.len()
                );
            }
        }
    }

    #[test]
    fn every_strict_prefix_of_a_valid_record_is_rejected() {
        for (record, _) in golden_records() {
            let mut buf = BytesMut::new();
            encode_record(&record, &mut buf);
            let full = buf.freeze();
            for cut in 0..full.len() {
                assert!(
                    decode_record(&mut full.slice(..cut)).is_err(),
                    "{record:?} cut at {cut}"
                );
            }
        }
    }

    /// `valid` with one byte in four overwritten from `noise`, by a
    /// value below 64 — a tag, a presence byte, a small count. Unlike
    /// uniform noise, which dies at the first tag, this reaches the
    /// fields.
    fn damaged(valid: &[u8], noise: &[u8]) -> Bytes {
        let mut bytes = valid.to_vec();
        for (b, n) in bytes.iter_mut().zip(noise) {
            if n % 4 == 0 {
                *b = n / 4;
            }
        }
        Bytes::from(bytes)
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut buf = Bytes::from_static(&[99u8, 0, 0, 0]);
        assert_eq!(decode(&mut buf), Err(CodecError::BadTag(99)));
    }

    /// 10 000 batches, each the only item of the one before: 50 001
    /// bytes that fit in one TCP frame. Decoding used to recurse once
    /// per level and overflow a default 2 MiB thread stack — the whole
    /// process dies, no `Err` — so the verdict is taken on such a
    /// thread. Nothing produces a batch inside a batch (coalescing
    /// merges engine frames only), so the first nested one is refused.
    #[test]
    fn nested_batch_is_refused_instead_of_recursed_into() {
        let mut input = BytesMut::new();
        for _ in 0..10_000 {
            input.put_u8(TAG_BATCH);
            input.put_u32_le(1);
        }
        input.put_u8(TAG_BATCH);
        assert_eq!(input.len(), 50_001);
        #[allow(
            clippy::disallowed_methods,
            reason = "a fresh thread has the default stack the verdict is about"
        )]
        let decoder = std::thread::spawn(move || decode(&mut input.freeze()));
        assert_eq!(
            decoder.join().expect("decoder thread"),
            Err(CodecError::BadTag(TAG_BATCH))
        );
        // Two levels are as foreign as ten thousand.
        let nested = Message::Batch(vec![Message::Batch(vec![])]);
        assert_eq!(
            decode(&mut encode_to_bytes(&nested)),
            Err(CodecError::BadTag(TAG_BATCH))
        );
    }

    #[test]
    fn implausible_length_rejected() {
        // A Request whose payload length prefix claims 2 GiB.
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_REQUEST);
        buf.put_u64_le(1);
        buf.put_u64_le(1);
        buf.put_u16_le(1);
        buf.put_u16_le(0);
        buf.put_u32_le(u32::MAX);
        let mut frozen = buf.freeze();
        assert!(matches!(decode(&mut frozen), Err(CodecError::BadLength(_))));
    }

    proptest! {
        #[test]
        fn prop_request_roundtrip(client in any::<u64>(), request in any::<u64>(),
                                  groups in proptest::collection::vec(any::<u16>(), 1..6),
                                  payload in proptest::collection::vec(any::<u8>(), 0..512)) {
            let msg = Message::Request {
                client: ClientId::new(client),
                request,
                groups: groups.into_iter().map(GroupId::new).collect(),
                payload: Bytes::from(payload),
            };
            let mut buf = BytesMut::new();
            encode(&msg, &mut buf);
            prop_assert_eq!(buf.len(), encoded_len(&msg));
            let back = decode(&mut buf.freeze()).unwrap();
            prop_assert_eq!(back, msg);
        }

        #[test]
        fn prop_phase2_roundtrip(ring in any::<u16>(), round in any::<u32>(),
                                 node in any::<u32>(), first in 1u64..u64::MAX/2,
                                 count in 1u32..1000, votes in 0u32..100,
                                 payload in proptest::collection::vec(any::<u8>(), 0..256),
                                 skip in any::<bool>()) {
            let value = if skip {
                ConsensusValue::Skip
            } else {
                ConsensusValue::Values(vec![Value::new(
                    ValueId::new(ProcessId::new(node), first),
                    GroupId::new(ring),
                    payload,
                )])
            };
            let msg = Message::Phase2 {
                ring: GroupId::new(ring),
                ballot: Ballot::new(round, ProcessId::new(node)),
                first: InstanceId::new(first),
                count,
                value,
                votes,
            };
            let mut buf = BytesMut::new();
            encode(&msg, &mut buf);
            prop_assert_eq!(buf.len(), encoded_len(&msg));
            let back = decode(&mut buf.freeze()).unwrap();
            prop_assert_eq!(back, msg);
        }

        /// Uniform noise up to 64 KiB; the same noise laid over a valid
        /// frame and a valid record; and the noise behind up to 13 000
        /// nested batch headers (10 000 used to end the process).
        #[test]
        fn prop_decode_arbitrary_bytes_never_panics(
            data in proptest::collection::vec(any::<u8>(), 0..65_536),
            pick in any::<u64>(),
        ) {
            let _ = decode(&mut Bytes::from(data.clone()));
            let _ = decode_record(&mut Bytes::from(data.clone()));
            let messages = golden_messages();
            let (msg, _) = &messages[pick as usize % messages.len()];
            let _ = decode(&mut damaged(&encode_to_bytes(msg), &data));
            let records = golden_records();
            let mut buf = BytesMut::new();
            encode_record(&records[pick as usize % records.len()].0, &mut buf);
            let _ = decode_record(&mut damaged(&buf, &data));
            let mut nested = [TAG_BATCH, 1, 0, 0, 0].repeat(pick as usize % 13_000);
            nested.extend_from_slice(&data);
            let _ = decode(&mut Bytes::from(nested));
        }

        /// The zero-copy wire path: decoding from a frozen buffer must
        /// not copy payload bytes — the decoded payload is a slice of
        /// the input allocation (`copy_to_bytes` on `Bytes` shares the
        /// backing storage instead of allocating).
        #[test]
        fn prop_decoded_payload_aliases_the_input_buffer(
            client in any::<u64>(), request in any::<u64>(),
            payload in proptest::collection::vec(any::<u8>(), 1..512),
        ) {
            let msg = Message::Request {
                client: ClientId::new(client),
                request,
                groups: vec![GroupId::new(1), GroupId::new(2)],
                payload: Bytes::from(payload),
            };
            let mut buf = BytesMut::new();
            encode(&msg, &mut buf);
            let input = buf.freeze();
            let base = input.as_slice().as_ptr() as usize;
            let len = input.len();
            let back = decode(&mut input.clone()).unwrap();
            let Message::Request { payload: decoded, .. } = back else {
                panic!("request decodes as request");
            };
            let p = decoded.as_slice().as_ptr() as usize;
            prop_assert!(
                p >= base && p + decoded.len() <= base + len,
                "decoded payload must alias the input allocation \
                 (payload {:#x}+{} outside input {:#x}+{})",
                p, decoded.len(), base, len
            );
        }
    }
}
