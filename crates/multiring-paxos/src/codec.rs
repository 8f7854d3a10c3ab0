//! Binary wire encoding of protocol messages.
//!
//! A codec on top of [`bytes`]: the TCP transport uses it to frame
//! messages, the acceptor WAL to store [`PersistRecord`]s, and the
//! simulator uses [`encoded_len`]/[`record_len`] to charge links and
//! disks for exactly the bytes a real deployment would move. Integers
//! are little-endian; variable-size fields carry `u32` length prefixes.
//!
//! Each frame's layout is written down once: [`wire_tags!`](crate::codec::wire_tags)
//! declares a vocabulary's tag bytes and, per tag, the names of the
//! variant's fields in wire order. From that one list it generates the
//! [`Wire`] impl of the type: the writer, the checked reader, the exact
//! length (the writer run over a sink that only counts) and
//! [`Wire::draw`], a generator of frames for fuzzing whose fields lean
//! to the edges of their domains (the few the reader refuses — an empty
//! range, a batch inside a batch, a checkpoint mark at the last
//! instance — a fuzz skips).
//!
//! ## `Wire` primitives
//!
//! What a declared field is made of, one impl each:
//!
//! | type | wire form |
//! |---|---|
//! | `u8`, `u16`, `u32`, `u64` | little-endian |
//! | [`GroupId`], [`ProcessId`], [`ClientId`], [`InstanceId`] | their integer |
//! | [`Ballot`] | round, node |
//! | [`ValueId`] | proposer, sequence |
//! | [`Value`] | id, group, payload |
//! | [`ConsensusValue`] | `0` (skip) or `1` and its values |
//! | [`CheckpointId`] | its marks, each with a successor |
//! | [`Bytes`] | `u32` length + bytes ([`get_len`]'s 1 GiB bound) |
//! | `Vec<T>` | `u32` count + items ([`get_seq`]'s clamp) |
//! | `Option<T>` | a presence byte, then the value |
//! | `(A, B)`, `(A, B, C)`, `(A, B, C, D)` | the items in order |
//!
//! A field written another way names a [`Via`] after its name:
//! [`Short`] (a `u16` count) or [`Flat`] (a batch that refuses a batch
//! inside it).
//!
//! ## Adding a frame
//!
//! Add the variant to its enum (here [`Message`] or [`PersistRecord`])
//! and one line to the declaration: its tag, with the next free value,
//! and its field names in wire order. The compiler checks the line
//! against the type both ways — the writer destructures the variant
//! exhaustively and the reader builds it with a struct literal — a tag
//! value used twice is E0081, and `every_tag_opens_a_golden` fails until
//! the golden list next to the format pins its bytes.
//!
//! The formats built by hand on this codec — the snapshots, the
//! checkpoint blob, the client command frame — use the checked readers
//! below ([`get_u8`] … [`get_u64`], [`get_bytes`], [`get_exact`],
//! [`get_len`], [`get_seq`]) and [`put_bytes`].

use crate::event::{Message, PersistRecord};
use crate::recovery::CheckpointId;
use crate::types::{
    Ballot, ClientId, ConsensusValue, GroupId, InstanceId, ProcessId, Value, ValueId,
};
use bytes::{Bytes, BytesMut};
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

/// A type with a wire form.
pub trait Wire: Sized {
    /// Appends the wire form of `self`.
    fn put<B: BufMut + ?Sized>(&self, buf: &mut B);

    /// Reads one value written by [`Wire::put`].
    ///
    /// # Errors
    ///
    /// [`CodecError`] on a short buffer, an unknown tag or an
    /// implausible length.
    fn get<B: Buf>(buf: &mut B) -> Result<Self, CodecError>;

    /// A value whose fields lean to the edges of their domain (see
    /// [`Edges`]); what a fuzz encodes, decodes and dispatches.
    fn draw(edges: &mut Edges) -> Self;

    /// The exact number of bytes [`Wire::put`] writes.
    fn wire_len(&self) -> usize {
        let mut sink = Counter(0);
        self.put(&mut sink);
        sink.0
    }

    /// The wire form in a fresh buffer.
    fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.wire_len());
        self.put(&mut buf);
        buf.freeze()
    }
}

/// A sink that counts what a writer puts into it and keeps none of it.
struct Counter(usize);

impl BufMut for Counter {
    fn put_slice(&mut self, src: &[u8]) {
        self.0 += src.len();
    }
}

/// A deterministic stream of draws (splitmix64) for [`Wire::draw`].
/// Integers come out as 0, 1, their maximum or the maximum less one
/// half the time, and otherwise below 4 — an id, a round or an instance
/// a small live cluster holds.
#[derive(Clone, Debug)]
pub struct Edges(u64);

impl Edges {
    /// The stream `seed` starts.
    pub fn new(seed: u64) -> Self {
        Edges(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A draw below `n` (non-zero).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn edge(&mut self, max: u64) -> u64 {
        let r = self.next_u64();
        match r % 8 {
            0 => 0,
            1 => 1,
            2 => max,
            3 => max - 1,
            _ => (r >> 3) % 4,
        }
    }
}

/// How a field goes on the wire when not as its type's own [`Wire`]
/// form: named after the field in a [`wire_tags!`](crate::codec::wire_tags)
/// declaration.
pub trait Via<T> {
    /// Appends `value`.
    fn put<B: BufMut + ?Sized>(value: &T, buf: &mut B);
    /// Reads a value written by [`Via::put`].
    ///
    /// # Errors
    ///
    /// As [`Wire::get`].
    fn get<B: Buf>(buf: &mut B) -> Result<T, CodecError>;
    /// As [`Wire::draw`].
    fn draw(edges: &mut Edges) -> T;
}

/// The field's own [`Wire`] form: what a field without a `Via` uses.
#[derive(Debug)]
pub struct Plain;

impl<T: Wire> Via<T> for Plain {
    fn put<B: BufMut + ?Sized>(value: &T, buf: &mut B) {
        value.put(buf);
    }
    fn get<B: Buf>(buf: &mut B) -> Result<T, CodecError> {
        T::get(buf)
    }
    fn draw(edges: &mut Edges) -> T {
        T::draw(edges)
    }
}

/// A sequence with a `u16` count.
#[derive(Debug)]
pub struct Short;

impl<T: Wire> Via<Vec<T>> for Short {
    fn put<B: BufMut + ?Sized>(value: &Vec<T>, buf: &mut B) {
        (value.len() as u16).put(buf);
        value.iter().for_each(|item| item.put(buf));
    }
    fn get<B: Buf>(buf: &mut B) -> Result<Vec<T>, CodecError> {
        let n = u16::get(buf)?;
        get_seq(n.into(), buf, T::get)
    }
    fn draw(edges: &mut Edges) -> Vec<T> {
        Vec::draw(edges)
    }
}

/// A `u32`-counted batch none of whose items opens with the tag `BATCH`:
/// nothing sends a batch inside a batch, and refusing one bounds
/// decoding's recursion at two frames whatever the bytes say (one level
/// per frame would let a 50 kB frame overflow the stack).
#[derive(Debug)]
pub struct Flat<const BATCH: u8>;

impl<T: Wire, const BATCH: u8> Via<Vec<T>> for Flat<BATCH> {
    fn put<B: BufMut + ?Sized>(value: &Vec<T>, buf: &mut B) {
        value.put(buf);
    }
    fn get<B: Buf>(buf: &mut B) -> Result<Vec<T>, CodecError> {
        get_seq(get_len(buf)?, buf, |buf| {
            if buf.chunk().first() == Some(&BATCH) {
                return Err(CodecError::BadTag(BATCH));
            }
            T::get(buf)
        })
    }
    fn draw(edges: &mut Edges) -> Vec<T> {
        Vec::draw(edges)
    }
}

/// Declares one wire vocabulary: a `#[repr(u8)]` enum whose explicit
/// discriminants are the tag bytes, with `from_u8`, the checked reading
/// of a tag byte.
///
/// With `for Type`, each tag also names its variant of `Type` and that
/// variant's fields in wire order, and the declaration generates
/// `Type`'s [`Wire`](crate::codec::Wire) impl:
///
/// - `Tag = n { a, b: Via, c }`: a variant with named fields; a field
///   written other than as its own type names its
///   [`Via`](crate::codec::Via);
/// - `Tag = n (x: Via)`: a one-field tuple variant, its field bound to
///   `x` (`: Via` optional);
/// - `Tag = n`: a unit variant;
/// - `None = n => Variant(None)` and `Some = m => Variant(Some(x))`:
///   the two arms of an `Option` field, each under its own tag;
/// - `... where check(a, b)`: after the fields are read, a check over
///   them that refuses the frame with its `Err`.
///
/// ```
/// use multiring_paxos::codec::{Short, Wire};
///
/// #[derive(Clone, PartialEq, Debug)]
/// enum Reply {
///     Ok,
///     Hits { keys: Vec<u16>, total: u64 },
///     Found(Option<u64>),
/// }
///
/// multiring_paxos::codec::wire_tags! {
///     /// What a reply opens with.
///     enum ReplyTag for Reply {
///         Ok = 1,
///         Hits = 2 { total, keys: Short },
///         Missing = 3 => Found(None),
///         Present = 4 => Found(Some(value)),
///     }
/// }
///
/// let hits = Reply::Hits { keys: vec![7], total: 9 };
/// assert_eq!(hits.to_bytes().as_slice(), [2, 9, 0, 0, 0, 0, 0, 0, 0, 1, 0, 7, 0]);
/// assert_eq!(Reply::get(&mut hits.to_bytes()), Ok(hits));
/// assert_eq!(ReplyTag::from_u8(ReplyTag::Missing as u8), Ok(ReplyTag::Missing));
/// assert!(ReplyTag::from_u8(5).is_err());
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
    ($(#[$meta:meta])* $vis:vis enum $name:ident for $ty:ident { $($body:tt)* }) => {
        $crate::wire_tags!(@arms [$(#[$meta])* $vis enum $name for $ty] [] $($body)*);
    };
    // Each arm is gathered as `[tag = value, (variant pattern), [field: Via, ...], [check]]`.
    (@arms $head:tt [$($arm:tt)*] $tag:ident = $n:literal
        { $($f:ident $(: $via:ty)?),* $(,)? } $(where $check:expr)? $(, $($rest:tt)*)?) => {
        $crate::wire_tags!(@arms $head [$($arm)* [$tag = $n, ($tag { $($f),* }),
            [$($f: $crate::wire_tags!(@via $($via)?)),*], [$($check)?]]] $($($rest)*)?);
    };
    (@arms $head:tt [$($arm:tt)*] $tag:ident = $n:literal
        ($f:ident $(: $via:ty)?) $(, $($rest:tt)*)?) => {
        $crate::wire_tags!(@arms $head [$($arm)* [$tag = $n, ($tag($f)),
            [$f: $crate::wire_tags!(@via $($via)?)], []]] $($($rest)*)?);
    };
    (@arms $head:tt [$($arm:tt)*] $tag:ident = $n:literal => $variant:ident(None)
        $(, $($rest:tt)*)?) => {
        $crate::wire_tags!(@arms $head [$($arm)* [$tag = $n, ($variant(None)), [], []]]
            $($($rest)*)?);
    };
    (@arms $head:tt [$($arm:tt)*] $tag:ident = $n:literal => $variant:ident(Some($f:ident))
        $(, $($rest:tt)*)?) => {
        $crate::wire_tags!(@arms $head [$($arm)* [$tag = $n, ($variant(Some($f))),
            [$f: $crate::codec::Plain], []]] $($($rest)*)?);
    };
    (@arms $head:tt [$($arm:tt)*] $tag:ident = $n:literal $(, $($rest:tt)*)?) => {
        $crate::wire_tags!(@arms $head [$($arm)* [$tag = $n, ($tag), [], []]] $($($rest)*)?);
    };
    (@via) => { $crate::codec::Plain };
    (@via $via:ty) => { $via };
    (@path $ty:ident ($($pat:tt)*)) => { $ty::$($pat)* };
    (@arms [$(#[$meta:meta])* $vis:vis enum $name:ident for $ty:ident]
        [$([$tag:ident = $n:literal, $pat:tt, [$($f:ident: $via:ty),*], [$($check:expr)?]])*]) => {
        $crate::wire_tags! { $(#[$meta])* $vis enum $name { $($tag = $n),* } }

        impl $crate::codec::Wire for $ty {
            fn put<B: $crate::codec::BufMut + ?Sized>(&self, buf: &mut B) {
                match self {
                    $($crate::wire_tags!(@path $ty $pat) => {
                        $crate::codec::Wire::put(&($name::$tag as u8), buf);
                        $(<$via as $crate::codec::Via<_>>::put($f, buf);)*
                    })*
                }
            }

            #[allow(unused_variables, reason = "a check binds every field and reads a few")]
            fn get<B: $crate::codec::Buf>(buf: &mut B) -> Result<Self, $crate::codec::CodecError> {
                match $name::from_u8(<u8 as $crate::codec::Wire>::get(buf)?)? {
                    $($name::$tag => {
                        $(let $f = <$via as $crate::codec::Via<_>>::get(buf)?;)*
                        let frame = $crate::wire_tags!(@path $ty $pat);
                        $(if let $crate::wire_tags!(@path $ty $pat) = &frame {
                            $check?;
                        })?
                        Ok(frame)
                    })*
                }
            }

            fn draw(edges: &mut $crate::codec::Edges) -> Self {
                let tags = [$($name::$tag),*];
                match tags[edges.below(tags.len())] {
                    $($name::$tag => {
                        $(let $f = <$via as $crate::codec::Via<_>>::draw(edges);)*
                        $crate::wire_tags!(@path $ty $pat)
                    })*
                }
            }
        }
    };
}
pub use bytes::{Buf, BufMut};
pub use wire_tags;

wire_tags! {
    /// The byte a [`Message`] frame opens with, one per variant.
    enum Tag for Message {
        Forward = 1 { ring, hops, values },
        Phase1A = 2 { ring, ballot, from },
        Phase1B = 3 { ring, ballot, from, decided, accepted }
            where accepted.iter().try_for_each(|(first, count, _, value)| {
                range(first, count).and(span(count, Some(value)))
            }),
        Phase2 = 4 { ring, ballot, first, count, votes, value }
            where range(first, count).and(span(count, Some(value))),
        Decision = 5 { ring, first, count, hops, value }
            where range(first, count).and(span(count, value.as_ref())),
        Retransmit = 6 { ring, from, to },
        RetransmitReply = 7 { ring, trimmed, decided }
            where decided.iter().try_for_each(|(first, count, value)| {
                range(first, count).and(span(count, Some(value)))
            }),
        TrimQuery = 8 { group, seq },
        TrimReply = 9 { group, seq, safe },
        TrimCommand = 10 { ring, upto },
        CheckpointQuery = 11 { seq },
        CheckpointInfo = 12 { seq, checkpoint },
        CheckpointFetch = 13 { seq, id },
        CheckpointData = 14 { seq, id, snapshot },
        Request = 15 { client, request, groups: Short, payload },
        Response = 16 { client, request, payload },
        Batch = 17 (messages: Flat<{ Tag::Batch as u8 }>),
        Engine = 18 { engine, payload },
    }
}

wire_tags! {
    /// The byte a [`PersistRecord`] opens with, one per variant.
    enum RecordTag for PersistRecord {
        Promise = 40 { ring, ballot, from },
        Vote = 41 { ring, ballot, first, count, value }
            where range(first, count).and(span(count, Some(value))),
        Checkpoint = 42 { id, snapshot },
        Decision = 43 { ring, first, count } where range(first, count),
    }
}

wire_tags! {
    /// The byte a [`ConsensusValue`] opens with.
    enum ValueTag for ConsensusValue {
        Skip = 0,
        Values = 1 (values),
    }
}

/// The one place an instance range `(first, count)` from the wire or the
/// WAL is checked, by every frame and record that carries one: it covers
/// at least one instance, and the instance after its last exists, so
/// neither `first + count - 1` nor its successor overflows downstream.
fn range(first: &InstanceId, count: &u32) -> Result<(), CodecError> {
    match first.value().checked_add(u64::from(*count)) {
        Some(_) if *count > 0 => Ok(()),
        _ => Err(CodecError::BadLength(u64::from(*count))),
    }
}

/// The one place a range's value is checked, beside [`range`]: values
/// are decided one instance at a time and only a skip spans several, so
/// the learner and the merge, which count a range's instances, never
/// meet values over several.
fn span(count: &u32, value: Option<&ConsensusValue>) -> Result<(), CodecError> {
    match value {
        Some(ConsensusValue::Values(_)) if *count > 1 => {
            Err(CodecError::BadLength(u64::from(*count)))
        }
        _ => Ok(()),
    }
}

/// The one place a checkpoint mark from the wire or the WAL is checked:
/// the instance after it exists, so installing the checkpoint (which
/// resumes at `mark.next()`) does not overflow.
fn mark(mark: &InstanceId) -> Result<(), CodecError> {
    match mark.value().checked_add(1) {
        Some(_) => Ok(()),
        None => Err(CodecError::BadLength(mark.value())),
    }
}

/// Encodes `msg` into `buf`.
pub fn encode(msg: &Message, buf: &mut impl BufMut) {
    msg.put(buf);
}

/// Encodes `msg` into a fresh buffer.
pub fn encode_to_bytes(msg: &Message) -> Bytes {
    msg.to_bytes()
}

/// The exact number of bytes [`encode`] produces for `msg`, without
/// allocating. The simulator uses this to charge link bandwidth.
pub fn encoded_len(msg: &Message) -> usize {
    msg.wire_len()
}

/// Decodes one message from `buf`.
///
/// # Errors
///
/// Returns [`CodecError`] if the buffer is truncated, a tag is unknown, a
/// length prefix is implausible or an instance range is empty.
pub fn decode(buf: &mut impl Buf) -> Result<Message, CodecError> {
    Message::get(buf)
}

/// Encodes a stable-storage record (acceptor WAL entry or checkpoint).
pub fn encode_record(record: &PersistRecord, buf: &mut impl BufMut) {
    record.put(buf);
}

/// The number of bytes [`encode_record`] produces (used by disk models to
/// charge write bandwidth).
pub fn record_len(record: &PersistRecord) -> usize {
    record.wire_len()
}

/// Decodes a stable-storage record.
///
/// # Errors
///
/// Returns [`CodecError`] on truncation, unknown tags or an empty
/// instance range.
pub fn decode_record(buf: &mut impl Buf) -> Result<PersistRecord, CodecError> {
    PersistRecord::get(buf)
}

// ---- primitives ----------------------------------------------------------

macro_rules! int {
    ($($t:ty: $put:ident, $get:ident;)*) => {$(
        impl Wire for $t {
            fn put<B: BufMut + ?Sized>(&self, buf: &mut B) {
                buf.$put(*self);
            }
            fn get<B: Buf>(buf: &mut B) -> Result<Self, CodecError> {
                if buf.remaining() < std::mem::size_of::<$t>() {
                    return Err(CodecError::Truncated);
                }
                Ok(buf.$get())
            }
            fn draw(edges: &mut Edges) -> Self {
                edges.edge(<$t>::MAX.into()) as $t
            }
        }
    )*};
}

int! {
    u8: put_u8, get_u8;
    u16: put_u16_le, get_u16_le;
    u32: put_u32_le, get_u32_le;
    u64: put_u64_le, get_u64_le;
}

macro_rules! id {
    ($($t:ident),*) => {$(
        impl Wire for $t {
            fn put<B: BufMut + ?Sized>(&self, buf: &mut B) {
                self.value().put(buf);
            }
            fn get<B: Buf>(buf: &mut B) -> Result<Self, CodecError> {
                Wire::get(buf).map($t::new)
            }
            fn draw(edges: &mut Edges) -> Self {
                $t::new(Wire::draw(edges))
            }
        }
    )*};
}

id!(GroupId, ProcessId, ClientId, InstanceId);

/// A struct written as its fields in order.
macro_rules! fields {
    ($($t:ident { $($f:ident),* };)*) => {$(
        impl Wire for $t {
            fn put<B: BufMut + ?Sized>(&self, buf: &mut B) {
                $(self.$f.put(buf);)*
            }
            fn get<B: Buf>(buf: &mut B) -> Result<Self, CodecError> {
                Ok($t { $($f: Wire::get(buf)?),* })
            }
            fn draw(edges: &mut Edges) -> Self {
                $t { $($f: Wire::draw(edges)),* }
            }
        }
    )*};
}

fields! {
    ValueId { proposer, seq };
    Value { id, group, payload };
}

impl Wire for CheckpointId {
    fn put<B: BufMut + ?Sized>(&self, buf: &mut B) {
        self.marks.put(buf);
    }
    fn get<B: Buf>(buf: &mut B) -> Result<Self, CodecError> {
        let marks: Vec<(GroupId, InstanceId)> = Wire::get(buf)?;
        marks.iter().try_for_each(|(_, m)| mark(m))?;
        Ok(CheckpointId { marks })
    }
    fn draw(edges: &mut Edges) -> Self {
        CheckpointId {
            marks: Wire::draw(edges),
        }
    }
}

impl Wire for Ballot {
    fn put<B: BufMut + ?Sized>(&self, buf: &mut B) {
        (self.round(), self.node()).put(buf);
    }
    fn get<B: Buf>(buf: &mut B) -> Result<Self, CodecError> {
        let (round, node) = Wire::get(buf)?;
        Ok(Ballot::new(round, node))
    }
    fn draw(edges: &mut Edges) -> Self {
        let (round, node) = Wire::draw(edges);
        Ballot::new(round, node)
    }
}

impl Wire for Bytes {
    fn put<B: BufMut + ?Sized>(&self, buf: &mut B) {
        put_bytes(buf, self);
    }
    fn get<B: Buf>(buf: &mut B) -> Result<Self, CodecError> {
        get_bytes(buf)
    }
    fn draw(edges: &mut Edges) -> Self {
        let len = edges.below(8);
        (0..len)
            .map(|_| edges.next_u64() as u8)
            .collect::<Vec<_>>()
            .into()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put<B: BufMut + ?Sized>(&self, buf: &mut B) {
        (self.len() as u32).put(buf);
        self.iter().for_each(|item| item.put(buf));
    }
    fn get<B: Buf>(buf: &mut B) -> Result<Self, CodecError> {
        get_seq(get_len(buf)?, buf, T::get)
    }
    fn draw(edges: &mut Edges) -> Self {
        let len = edges.below(3);
        (0..len).map(|_| T::draw(edges)).collect()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put<B: BufMut + ?Sized>(&self, buf: &mut B) {
        match self {
            None => buf.put_u8(0),
            Some(value) => {
                buf.put_u8(1);
                value.put(buf);
            }
        }
    }
    fn get<B: Buf>(buf: &mut B) -> Result<Self, CodecError> {
        match u8::get(buf)? {
            0 => Ok(None),
            1 => T::get(buf).map(Some),
            t => Err(CodecError::BadTag(t)),
        }
    }
    fn draw(edges: &mut Edges) -> Self {
        (edges.below(2) == 1).then(|| T::draw(edges))
    }
}

macro_rules! tuple {
    ($($t:ident $i:tt),*) => {
        impl<$($t: Wire),*> Wire for ($($t,)*) {
            fn put<B: BufMut + ?Sized>(&self, buf: &mut B) {
                $(self.$i.put(buf);)*
            }
            fn get<B: Buf>(buf: &mut B) -> Result<Self, CodecError> {
                Ok(($($t::get(buf)?,)*))
            }
            fn draw(edges: &mut Edges) -> Self {
                ($($t::draw(edges),)*)
            }
        }
    };
}

tuple!(T0 0, T1 1);
tuple!(T0 0, T1 1, T2 2);
tuple!(T0 0, T1 1, T2 2, T3 3);

// ---- readers for the formats built by hand ----------------------------

/// Appends a `u32` length and then `b`.
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
    let n = u64::from(u32::get(buf)?);
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
/// [`CodecError::Truncated`] when the buffer is empty.
pub fn get_u8(buf: &mut impl Buf) -> Result<u8, CodecError> {
    u8::get(buf)
}

/// Reads a little-endian `u16`, checked.
///
/// # Errors
///
/// [`CodecError::Truncated`] when fewer than 2 bytes remain.
pub fn get_u16(buf: &mut impl Buf) -> Result<u16, CodecError> {
    u16::get(buf)
}

/// Reads a little-endian `u32`, checked.
///
/// # Errors
///
/// [`CodecError::Truncated`] when fewer than 4 bytes remain.
pub fn get_u32(buf: &mut impl Buf) -> Result<u32, CodecError> {
    u32::get(buf)
}

/// Reads a little-endian `u64`, checked.
///
/// # Errors
///
/// [`CodecError::Truncated`] when fewer than 8 bytes remain.
pub fn get_u64(buf: &mut impl Buf) -> Result<u64, CodecError> {
    u64::get(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{single_ring, ClusterConfig, RingSpec, RingTuning, Roles};
    use crate::event::{Action, Event, StateMachine, TimerKind};
    use crate::node::Node;
    use crate::types::Time;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    const TAG_REQUEST: u8 = Tag::Request as u8;
    const TAG_BATCH: u8 = Tag::Batch as u8;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Every byte the reader takes for a tag opens a pinned encoding: a
    /// tag nobody writes and a variant nobody pinned end here (and one
    /// written under another's tag fails its golden).
    #[test]
    fn every_tag_opens_a_golden() {
        for tag in (0..=u8::MAX).filter_map(|byte| Tag::from_u8(byte).ok()) {
            let opens = format!("{:02x}", tag as u8);
            let pins = |(_, pinned): &(Message, &str)| pinned.starts_with(&opens);
            assert!(golden_messages().iter().any(pins), "no golden for {tag:?}");
        }
        for tag in (0..=u8::MAX).filter_map(|byte| RecordTag::from_u8(byte).ok()) {
            let opens = format!("{:02x}", tag as u8);
            let pins = |(_, pinned): &(PersistRecord, &str)| pinned.starts_with(&opens);
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
                    decided: InstanceId::new(2),
                    accepted: vec![
                        (
                            InstanceId::new(6),
                            1,
                            Ballot::new(3, ProcessId::new(1)),
                            cv.clone(),
                        ),
                        (
                            InstanceId::new(7),
                            4,
                            Ballot::new(3, ProcessId::new(1)),
                            ConsensusValue::Skip,
                        ),
                    ],
                },
                "0301000400000002000000050000000000000002000000000000000200000006000000000000000100000003000000010000000101000000030000004d0000000000000002000400000001020304070000000000000004000000030000000100000000",
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

    /// A checkpoint mark at the last instance has no successor for the
    /// merge to resume at (installing it panicked `Merger::install`):
    /// the frame and the record that carry one are refused, and the
    /// mark below it still decodes.
    #[test]
    fn a_checkpoint_mark_without_a_successor_is_refused() {
        let id = |mark| CheckpointId {
            marks: vec![
                (GroupId::new(0), InstanceId::new(1)),
                (GroupId::new(1), mark),
            ],
        };
        let frame = |mark| Message::CheckpointData {
            seq: 1,
            id: id(mark),
            snapshot: Some(Bytes::new()),
        };
        let record = |mark| PersistRecord::Checkpoint {
            id: id(mark),
            snapshot: Bytes::new(),
        };
        let last = InstanceId::new(u64::MAX);
        let refused = CodecError::BadLength(u64::MAX);
        assert_eq!(
            decode(&mut encode_to_bytes(&frame(last))),
            Err(refused.clone())
        );
        assert_eq!(decode_record(&mut record(last).to_bytes()), Err(refused));
        let below = InstanceId::new(u64::MAX - 1);
        assert_eq!(
            decode(&mut encode_to_bytes(&frame(below))),
            Ok(frame(below))
        );
        assert_eq!(
            decode_record(&mut record(below).to_bytes()),
            Ok(record(below))
        );
    }

    /// Values are decided one instance at a time: a range carrying
    /// values over several instances is refused in every frame and
    /// record that carries a value (one reached the merge through a
    /// `RetransmitReply` and threw it off its instance count), and a
    /// skip over several still decodes.
    #[test]
    fn a_value_range_over_several_instances_is_refused() {
        let (ring, first, ballot) = (GroupId::new(0), InstanceId::new(1), Ballot::ZERO);
        let values = ConsensusValue::Values(vec![Value::new(
            ValueId::new(ProcessId::new(1), 1),
            ring,
            vec![7],
        )]);
        let frames = |value: ConsensusValue, count| {
            vec![
                Message::Phase1B {
                    ring,
                    ballot,
                    from: first,
                    decided: InstanceId::ZERO,
                    accepted: vec![(first, count, ballot, value.clone())],
                },
                Message::Phase2 {
                    ring,
                    ballot,
                    first,
                    count,
                    votes: 0,
                    value: value.clone(),
                },
                Message::Decision {
                    ring,
                    first,
                    count,
                    hops: 0,
                    value: Some(value.clone()),
                },
                Message::RetransmitReply {
                    ring,
                    trimmed: InstanceId::ZERO,
                    decided: vec![(first, count, value)],
                },
            ]
        };
        let vote = |value, count| PersistRecord::Vote {
            ring,
            ballot,
            first,
            count,
            value,
        };
        for msg in frames(values.clone(), 3) {
            assert_eq!(
                decode(&mut encode_to_bytes(&msg)),
                Err(CodecError::BadLength(3)),
                "{msg:?}"
            );
        }
        let refused = decode_record(&mut vote(values.clone(), 3).to_bytes());
        assert_eq!(refused, Err(CodecError::BadLength(3)));
        for (value, count) in [(values, 1), (ConsensusValue::Skip, 3)] {
            for msg in frames(value.clone(), count) {
                assert_eq!(decode(&mut encode_to_bytes(&msg)), Ok(msg));
            }
            let record = vote(value, count);
            assert_eq!(decode_record(&mut record.to_bytes()), Ok(record));
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

    /// A range must cover an instance, and the instance after its last
    /// must exist: wire frames and WAL records alike. Each of these
    /// decoded at first and then panicked a node (`count - 1` in the
    /// learner, the merge and the acceptor, `last.next()` in the
    /// learner's release).
    #[test]
    fn a_range_without_an_instance_or_a_successor_is_refused() {
        let (ring, max) = (GroupId::new(0), InstanceId::new(u64::MAX));
        let decision = |first, count| Message::Decision {
            ring,
            first,
            count,
            value: Some(ConsensusValue::Skip),
            hops: 0,
        };
        let refused = [
            decision(InstanceId::new(1), 0),
            decision(max, 1),
            decision(InstanceId::new(u64::MAX - 1), 2),
            Message::Phase2 {
                ring,
                ballot: Ballot::ZERO,
                first: InstanceId::new(1),
                count: 0,
                value: ConsensusValue::Skip,
                votes: 0,
            },
            Message::RetransmitReply {
                ring,
                decided: vec![
                    (InstanceId::new(1), 1, ConsensusValue::Skip),
                    (max, 1, ConsensusValue::Skip),
                ],
                trimmed: InstanceId::ZERO,
            },
        ];
        for msg in refused {
            assert!(
                matches!(
                    decode(&mut encode_to_bytes(&msg)),
                    Err(CodecError::BadLength(_))
                ),
                "{msg:?}"
            );
        }
        let edge = decision(InstanceId::new(u64::MAX - 1), 1);
        assert_eq!(decode(&mut encode_to_bytes(&edge)), Ok(edge));
        let records = [
            PersistRecord::Vote {
                ring,
                ballot: Ballot::ZERO,
                first: InstanceId::new(1),
                count: 0,
                value: ConsensusValue::Skip,
            },
            PersistRecord::Decision {
                ring,
                first: max,
                count: 1,
            },
        ];
        for record in records {
            let mut buf = BytesMut::new();
            encode_record(&record, &mut buf);
            assert!(decode_record(&mut buf.freeze()).is_err(), "{record:?}");
        }
    }

    /// Runs `actions` emitted by `from` among `nodes` until nothing is
    /// left to deliver; timers and records are dropped.
    fn pump(nodes: &mut [Node], from: ProcessId, actions: Vec<Action>) {
        let mut queue: VecDeque<_> = actions.into_iter().map(|a| (from, a)).collect();
        while let Some((from, action)) = queue.pop_front() {
            if let Action::Send { to, msg } = action {
                let out =
                    nodes[to.value() as usize].on_event(Time::ZERO, Event::Message { from, msg });
                queue.extend(out.into_iter().map(|a| (to, a)));
            }
        }
    }

    /// Three processes started and run to quiescence, with `values`
    /// multicast from p1 to each of `groups` in turn.
    fn quiescent(config: &ClusterConfig, groups: &[GroupId], values: usize) -> Vec<Node> {
        let mut nodes: Vec<Node> = (0..3)
            .map(|p| Node::new(ProcessId::new(p), config.clone()))
            .collect();
        for p in 0..3 {
            let out = nodes[p].on_event(Time::ZERO, Event::Start);
            pump(&mut nodes, ProcessId::new(p as u32), out);
        }
        for (k, group) in groups.iter().cycle().take(values).enumerate() {
            let payload = Bytes::from(vec![k as u8; 4]);
            let (_, out) = nodes[1]
                .multicast(Time::ZERO, &[*group], payload)
                .expect("p1 proposes");
            pump(&mut nodes, ProcessId::new(1), out);
        }
        nodes
    }

    /// The ring nodes a frame meets: of a 3-process ring with two values
    /// decided, its coordinator p0, the middle acceptor p1 and the last
    /// acceptor p2; and p0 of a deployment of two such rings, whose merge
    /// holds group 0's second value while it waits on group 1.
    fn live_nodes() -> Vec<Node> {
        let mut nodes = quiescent(
            &single_ring(3, RingTuning::default()),
            &[GroupId::new(0)],
            2,
        );
        let mut b = ClusterConfig::builder();
        for g in 0..2 {
            let mut spec = RingSpec::new(GroupId::new(g));
            for p in 0..3 {
                spec = spec.member(ProcessId::new(p), Roles::ALL);
                b = b.subscribe(ProcessId::new(p), GroupId::new(g));
            }
            b = b.ring(spec);
        }
        let config = b.build().expect("two-ring config");
        nodes.extend(
            quiescent(&config, &[GroupId::new(0)], 2)
                .into_iter()
                .take(1),
        );
        nodes
    }

    /// Frames the generated ring fuzz draws.
    const RING_FRAMES: usize = 3_000;

    /// Generated frames (see [`Wire::draw`]), each encoded, decoded back
    /// to itself and dispatched into every node of [`live_nodes`], which
    /// then runs its ring timers past every timeout. A frame the decoder
    /// refuses (an empty range, a batch inside a batch) goes nowhere. No
    /// frame may panic a node or hold it for more than a few seconds.
    #[test]
    fn generated_frames_never_panic_or_stall_a_ring_node() {
        let mut edges = Edges::new(0x5eed);
        let later = Time::from_millis(2_000);
        for i in 0..RING_FRAMES {
            let frame = Message::draw(&mut edges);
            let bytes = encode_to_bytes(&frame);
            assert_eq!(bytes.len(), encoded_len(&frame), "{frame:?}");
            let nested = Message::Batch(vec![Message::Batch(vec![frame.clone()])]);
            assert_eq!(
                decode(&mut encode_to_bytes(&nested)),
                Err(CodecError::BadTag(TAG_BATCH))
            );
            let Ok(msg) = decode(&mut bytes.clone()) else {
                continue;
            };
            assert_eq!(msg, frame);
            let from = ProcessId::new(edges.below(3) as u32);
            #[allow(
                clippy::disallowed_methods,
                reason = "a stall is wall-clock time the test itself spends"
            )]
            let started = std::time::Instant::now();
            let run = std::panic::catch_unwind(|| {
                for mut node in live_nodes() {
                    node.on_event(
                        Time::from_millis(10),
                        Event::Message {
                            from,
                            msg: msg.clone(),
                        },
                    );
                    for g in 0..2 {
                        for timer in [
                            TimerKind::Delta,
                            TimerKind::GapCheck,
                            TimerKind::ProposalResend,
                        ] {
                            node.on_event(later, Event::Timer(timer(GroupId::new(g))));
                        }
                    }
                }
            });
            assert!(run.is_ok(), "frame {i} panicked a node: {frame:?}");
            let took = started.elapsed();
            assert!(
                took.as_secs() < 10,
                "frame {i} held a node for {took:?}: {frame:?}"
            );
        }
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
            // Values span one instance; only a skip spans several.
            let back = decode(&mut buf.freeze());
            if skip || count == 1 {
                prop_assert_eq!(back, Ok(msg));
            } else {
                prop_assert_eq!(back, Err(CodecError::BadLength(u64::from(count))));
            }
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
