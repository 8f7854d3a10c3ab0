//! Core identifiers and value types shared by every protocol module.
//!
//! All identifiers are newtypes ([C-NEWTYPE]) so that a `ProcessId` can
//! never be confused with a `GroupId` at a call site. They are `Copy`,
//! ordered, hashable and displayable.
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use bytes::Bytes;
use std::fmt;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $inner:ty) => {
        $(#[$doc])*
        #[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name($inner);

        impl $name {
            /// Creates an identifier from its numeric value.
            pub const fn new(value: $inner) -> Self {
                Self(value)
            }

            /// Returns the underlying numeric value.
            pub const fn value(self) -> $inner {
                self.0
            }
        }

        impl From<$inner> for $name {
            fn from(value: $inner) -> Self {
                Self(value)
            }
        }

        impl From<$name> for $inner {
            fn from(id: $name) -> $inner {
                id.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }
    };
}

define_id! {
    /// Identifies a process (node) in the system.
    ///
    /// A process may play several roles (proposer, acceptor, learner) in
    /// several rings at once; the id is global across the deployment.
    ProcessId, u32
}

define_id! {
    /// Identifies a multicast group — and the ring that orders it.
    ///
    /// Each group is ordered by its own Ring Paxos instance, so the
    /// group's id also names its ring (message and timer fields called
    /// `ring` hold one). Learners subscribe to the groups they are
    /// interested in ("inverted" addressing, Section 3 of the paper).
    GroupId, u16
}

/// The id of a group's ring: the group's own id.
pub type RingId = GroupId;

define_id! {
    /// Identifies a client session (a logical closed-loop requester).
    ClientId, u64
}

/// Identifies one consensus instance within a ring.
///
/// Instances are numbered consecutively starting at 1; `InstanceId::ZERO`
/// means "nothing decided yet" and is used as the initial checkpoint
/// watermark.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct InstanceId(u64);

impl InstanceId {
    /// The sentinel "no instance" value; real instances start at 1.
    pub const ZERO: InstanceId = InstanceId(0);

    /// Creates an instance id from its numeric value.
    pub const fn new(value: u64) -> Self {
        Self(value)
    }

    /// Returns the underlying numeric value.
    pub const fn value(self) -> u64 {
        self.0
    }

    /// Returns the instance `n` positions after this one.
    #[must_use]
    pub const fn plus(self, n: u64) -> Self {
        Self(self.0 + n)
    }

    /// Returns the immediately following instance.
    #[must_use]
    pub const fn next(self) -> Self {
        Self(self.0 + 1)
    }
}

impl From<u64> for InstanceId {
    fn from(value: u64) -> Self {
        Self(value)
    }
}

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

impl fmt::Debug for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// A Paxos ballot: a round number qualified by the proposing coordinator,
/// so ballots from distinct coordinators never compare equal.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Ballot {
    round: u32,
    node: ProcessId,
}

impl Ballot {
    /// The null ballot, smaller than every real ballot.
    pub const ZERO: Ballot = Ballot {
        round: 0,
        node: ProcessId::new(0),
    };

    /// Creates a ballot for round `round` owned by `node`.
    pub const fn new(round: u32, node: ProcessId) -> Self {
        Self { round, node }
    }

    /// The round number.
    pub const fn round(self) -> u32 {
        self.round
    }

    /// The coordinator that owns this ballot.
    pub const fn node(self) -> ProcessId {
        self.node
    }

    /// The smallest ballot owned by `node` that is strictly greater than
    /// `self`.
    #[must_use]
    pub const fn bump(self, node: ProcessId) -> Self {
        Self {
            round: self.round + 1,
            node,
        }
    }
}

impl fmt::Display for Ballot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}.{}", self.round, self.node.value())
    }
}

/// Virtual or wall-clock time, in microseconds since an arbitrary origin.
///
/// The protocol only ever compares times and adds durations, so a single
/// monotone `u64` is sufficient for both the simulator (virtual time) and
/// the TCP runtime (microseconds since process start).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

impl Time {
    /// The origin of time.
    pub const ZERO: Time = Time(0);

    /// Creates a time from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Self(us)
    }

    /// Creates a time from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Self(ms * 1_000)
    }

    /// Creates a time from seconds.
    pub const fn from_secs(s: u64) -> Self {
        Self(s * 1_000_000)
    }

    /// This time expressed in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This time expressed in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This time expressed in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// The time `us` microseconds after this one.
    #[must_use]
    pub const fn plus(self, us: u64) -> Self {
        Self(self.0 + us)
    }

    /// Microseconds elapsed from `earlier` to `self`, saturating at zero.
    pub const fn since(self, earlier: Time) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.0 as f64 / 1000.0)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}ms", self.0 as f64 / 1000.0)
    }
}

/// Uniquely identifies a multicast value across the whole deployment:
/// the proposing process plus a per-proposer sequence number.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ValueId {
    /// The process that first multicast this value.
    pub proposer: ProcessId,
    /// Sequence number local to `proposer`, starting at 1.
    pub seq: u64,
}

impl ValueId {
    /// Creates a value id.
    pub const fn new(proposer: ProcessId, seq: u64) -> Self {
        Self { proposer, seq }
    }
}

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}.{}", self.proposer.value(), self.seq)
    }
}

/// A client value multicast to a group: an opaque payload tagged with the
/// globally unique [`ValueId`] of its original multicast.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Value {
    /// Unique id assigned at `multicast` time.
    pub id: ValueId,
    /// The group the value was multicast to.
    pub group: GroupId,
    /// Application payload (opaque to the protocol).
    pub payload: Bytes,
}

impl Value {
    /// Creates a value.
    pub fn new(id: ValueId, group: GroupId, payload: impl Into<Bytes>) -> Self {
        Self {
            id,
            group,
            payload: payload.into(),
        }
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }
}

/// The value decided by one consensus instance of a ring.
///
/// Rate leveling (Section 4) lets coordinators decide `Skip` in instances
/// that would otherwise idle; learners consume the instance slot in the
/// deterministic merge without delivering anything.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum ConsensusValue {
    /// One or more client values batched into this instance.
    Values(Vec<Value>),
    /// A null instance proposed by rate leveling.
    Skip,
}

impl ConsensusValue {
    /// Total payload bytes carried by this consensus value.
    pub fn payload_bytes(&self) -> usize {
        match self {
            ConsensusValue::Values(vs) => vs.iter().map(Value::len).sum(),
            ConsensusValue::Skip => 0,
        }
    }

    /// Whether this is a skip (null) value.
    pub fn is_skip(&self) -> bool {
        matches!(self, ConsensusValue::Skip)
    }
}

/// An exactly-once filter over per-proposer sequence numbers: a low
/// watermark (every sequence at or below it was seen) plus the sparse
/// set of seen sequences above it.
///
/// A plain "maximum seen" is *not* sound here: after a coordinator
/// change, newly submitted values can overtake older ones that were in
/// flight to the crashed coordinator; when the old values are resent
/// they must still be accepted exactly once even though larger
/// sequences have already passed.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct SeqFilter {
    low: u64,
    seen: std::collections::BTreeSet<u64>,
}

impl SeqFilter {
    /// An empty filter (nothing seen).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `seq`; returns `true` if it was new (first sighting).
    pub fn insert(&mut self, seq: u64) -> bool {
        if seq <= self.low || !self.seen.insert(seq) {
            return false;
        }
        // Compact the contiguous prefix into the watermark.
        while self.seen.remove(&(self.low + 1)) {
            self.low += 1;
        }
        true
    }

    /// Whether `seq` was already recorded.
    pub fn contains(&self, seq: u64) -> bool {
        seq <= self.low || self.seen.contains(&seq)
    }

    /// The low watermark (all sequences ≤ it are recorded).
    pub fn watermark(&self) -> u64 {
        self.low
    }

    /// Sequences recorded above the watermark (bounded by in-flight
    /// reordering, for tests/metrics).
    pub fn sparse_len(&self) -> usize {
        self.seen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_filter_exactly_once_under_reordering() {
        let mut f = SeqFilter::new();
        assert!(f.insert(1));
        assert!(f.insert(2));
        assert!(!f.insert(2), "duplicate rejected");
        // Out-of-order overtaking: 56 arrives before 51..55.
        assert!(f.insert(56));
        assert!(f.insert(51));
        assert!(!f.insert(51));
        for s in 52..=55 {
            assert!(f.insert(s), "late seq {s} still accepted once");
        }
        assert!(!f.insert(56));
        assert_eq!(f.watermark(), 2);
        assert!(f.contains(1));
        assert!(f.contains(55));
        assert!(!f.contains(57));
        // Filling 3..50 compacts everything into the watermark.
        for s in 3..=50 {
            assert!(f.insert(s));
        }
        assert_eq!(f.watermark(), 56);
        assert_eq!(f.sparse_len(), 0);
    }

    #[test]
    fn id_roundtrip_and_display() {
        let p = ProcessId::new(7);
        assert_eq!(p.value(), 7);
        assert_eq!(u32::from(p), 7);
        assert_eq!(ProcessId::from(7u32), p);
        assert_eq!(p.to_string(), "ProcessId(7)");
        assert_eq!(format!("{p:?}"), "ProcessId(7)");
    }

    #[test]
    fn instance_arithmetic() {
        let i = InstanceId::new(10);
        assert_eq!(i.next(), InstanceId::new(11));
        assert_eq!(i.plus(5), InstanceId::new(15));
        assert!(InstanceId::ZERO < i);
        assert_eq!(i.to_string(), "i10");
    }

    #[test]
    fn ballot_ordering_breaks_ties_by_node() {
        let a = Ballot::new(1, ProcessId::new(1));
        let b = Ballot::new(1, ProcessId::new(2));
        let c = Ballot::new(2, ProcessId::new(0));
        assert!(a < b);
        assert!(b < c);
        assert!(Ballot::ZERO < a);
        assert_eq!(a.bump(ProcessId::new(9)), Ballot::new(2, ProcessId::new(9)));
    }

    #[test]
    fn time_arithmetic() {
        let t = Time::from_millis(3);
        assert_eq!(t.as_micros(), 3_000);
        assert_eq!(t.plus(500).as_micros(), 3_500);
        assert_eq!(Time::from_secs(1).since(t), 997_000);
        assert_eq!(t.since(Time::from_secs(1)), 0);
        assert!((t.as_millis_f64() - 3.0).abs() < 1e-9);
        assert!((Time::from_secs(2).as_secs_f64() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn consensus_value_accounting() {
        let v1 = Value::new(
            ValueId::new(ProcessId::new(0), 1),
            GroupId::new(0),
            vec![0u8; 10],
        );
        let v2 = Value::new(
            ValueId::new(ProcessId::new(0), 2),
            GroupId::new(0),
            vec![0u8; 22],
        );
        let cv = ConsensusValue::Values(vec![v1, v2]);
        assert_eq!(cv.payload_bytes(), 32);
        assert!(!cv.is_skip());
        assert_eq!(ConsensusValue::Skip.payload_bytes(), 0);
        assert!(ConsensusValue::Skip.is_skip());
    }

    #[test]
    fn value_len() {
        let v = Value::new(
            ValueId::new(ProcessId::new(1), 1),
            GroupId::new(3),
            Bytes::new(),
        );
        assert!(v.is_empty());
        assert_eq!(v.len(), 0);
    }
}
