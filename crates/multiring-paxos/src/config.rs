//! Cluster, ring and tuning configuration.
//!
//! A [`ClusterConfig`] fully describes a Multi-Ring Paxos deployment: the
//! rings with their ordered members and roles, the group-to-ring mapping,
//! learner subscriptions, and the protocol tuning parameters (`M`, `Δ`,
//! `λ`, batching, storage mode). Configurations are built with
//! [`ClusterConfig::builder`] and validated by [`ClusterConfigBuilder::build`].
//!
//! In a full deployment the configuration is stored in and distributed by
//! a coordination service external to this repository (the paper uses
//! Zookeeper; `mrp-coord` holds only the partitioning schema); the
//! protocol state machines only ever see an immutable snapshot of it.

use crate::types::{GroupId, ProcessId, RingId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// Role flags of a ring member. A member may combine any subset of
/// proposer, acceptor and learner roles (processes in the paper's
/// evaluation frequently play all three).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Default)]
pub struct Roles(u8);

impl Roles {
    /// No role (invalid for an actual member; useful as a zero element).
    pub const NONE: Roles = Roles(0);
    /// May submit values to the ring's coordinator.
    pub const PROPOSER: Roles = Roles(1);
    /// Votes in consensus instances and logs them to stable storage.
    pub const ACCEPTOR: Roles = Roles(2);
    /// Learns decisions, participates in the deterministic merge.
    pub const LEARNER: Roles = Roles(4);
    /// Proposer + acceptor + learner.
    pub const ALL: Roles = Roles(7);

    /// Whether every role in `other` is present in `self`.
    pub const fn contains(self, other: Roles) -> bool {
        self.0 & other.0 == other.0
    }

    /// Union of two role sets.
    #[must_use]
    pub const fn union(self, other: Roles) -> Roles {
        Roles(self.0 | other.0)
    }

    /// Whether this member proposes.
    pub const fn is_proposer(self) -> bool {
        self.contains(Roles::PROPOSER)
    }

    /// Whether this member accepts.
    pub const fn is_acceptor(self) -> bool {
        self.contains(Roles::ACCEPTOR)
    }

    /// Whether this member learns.
    pub const fn is_learner(self) -> bool {
        self.contains(Roles::LEARNER)
    }
}

impl std::ops::BitOr for Roles {
    type Output = Roles;
    fn bitor(self, rhs: Roles) -> Roles {
        self.union(rhs)
    }
}

impl fmt::Debug for Roles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        if self.is_proposer() {
            parts.push("P");
        }
        if self.is_acceptor() {
            parts.push("A");
        }
        if self.is_learner() {
            parts.push("L");
        }
        if parts.is_empty() {
            parts.push("-");
        }
        write!(f, "Roles({})", parts.join("+"))
    }
}

/// How acceptors persist consensus state (the five storage modes of the
/// paper's Figure 3 collapse to a mode plus a disk model chosen by the
/// runtime).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum StorageMode {
    /// Keep acceptor state in memory only (pre-allocated buffers in the
    /// paper). Fastest; an acceptor that crashes loses its vote history.
    #[default]
    InMemory,
    /// Write to the log asynchronously: the acceptor votes without waiting
    /// for the disk.
    AsyncDisk,
    /// Write to the log synchronously: the acceptor only forwards its vote
    /// once the write is durable. Batching of writes is disabled in this
    /// mode, matching Section 8.2.
    SyncDisk,
}

/// Per-ring protocol tuning.
#[derive(Copy, Clone, PartialEq, Hash, Debug)]
pub struct RingTuning {
    /// Maximum number of undecided instances the coordinator keeps in
    /// flight (pipelining window).
    pub window: u32,
    /// Maximum client values batched into a single consensus instance:
    /// what the coordinator finds queued when a window slot frees — a
    /// batched submission, or values that arrived while the window was
    /// full — shares one. `1` disables proposal batching (the Figure 3
    /// setting).
    pub values_per_instance: usize,
    /// Maximum payload bytes batched into a single consensus instance.
    pub bytes_per_instance: usize,
    /// Rate-leveling interval Δ, in microseconds (paper: 5 ms within a
    /// datacenter, 20 ms across datacenters).
    pub delta_us: u64,
    /// Rate-leveling maximum expected rate λ, in consensus instances per
    /// second (paper: 9000 within a datacenter, 2000 across).
    pub lambda: u64,
    /// How acceptors persist consensus state.
    pub storage: StorageMode,
    /// How long a learner waits on an instance gap before requesting a
    /// retransmission from an acceptor, in microseconds.
    pub gap_timeout_us: u64,
    /// How often a proposer resends values that have not been decided
    /// yet (lost messages, coordinator changes), in microseconds.
    pub proposal_resend_us: u64,
    /// How long the coordinator waits before re-proposing an undecided
    /// in-flight instance (lost Phase 2 or vote rejection), in
    /// microseconds. Must comfortably exceed a slow disk's sync write
    /// plus a ring round-trip.
    pub repropose_us: u64,
    /// How often the coordinator re-runs the trim protocol (Section 5.2),
    /// in microseconds. `0` disables coordinated trimming.
    pub trim_interval_us: u64,
}

impl Default for RingTuning {
    fn default() -> Self {
        Self {
            window: 128,
            values_per_instance: 64,
            bytes_per_instance: 32 * 1024,
            delta_us: 5_000,
            lambda: 9_000,
            storage: StorageMode::InMemory,
            gap_timeout_us: 20_000,
            proposal_resend_us: 500_000,
            repropose_us: 1_000_000,
            trim_interval_us: 0,
        }
    }
}

impl RingTuning {
    /// Tuning used by the paper for deployments within a datacenter:
    /// `M = 1`, `Δ = 5 ms`, `λ = 9000`.
    pub fn datacenter() -> Self {
        Self::default()
    }

    /// Tuning used by the paper for deployments across datacenters:
    /// `M = 1`, `Δ = 20 ms`, `λ = 2000` (`M` lives in [`ClusterConfig`]).
    pub fn wide_area() -> Self {
        Self {
            delta_us: 20_000,
            lambda: 2_000,
            ..Self::default()
        }
    }
}

/// One member of a ring: a process and the roles it plays there.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct Member {
    /// The process.
    pub process: ProcessId,
    /// Roles played by `process` in this ring.
    pub roles: Roles,
}

/// Declarative description of one ring, fed to the
/// [`ClusterConfigBuilder`].
#[derive(Clone, Debug)]
pub struct RingSpec {
    id: RingId,
    members: Vec<Member>,
    coordinator: Option<ProcessId>,
    tuning: RingTuning,
}

impl RingSpec {
    /// Starts a ring description.
    pub fn new(id: RingId) -> Self {
        Self {
            id,
            members: Vec::new(),
            coordinator: None,
            tuning: RingTuning::default(),
        }
    }

    /// Appends a member; ring order is the insertion order.
    #[must_use]
    pub fn member(mut self, process: ProcessId, roles: Roles) -> Self {
        self.members.push(Member { process, roles });
        self
    }

    /// Pins the initial coordinator (must be an acceptor member). By
    /// default the first acceptor in ring order coordinates.
    #[must_use]
    pub fn coordinator(mut self, process: ProcessId) -> Self {
        self.coordinator = Some(process);
        self
    }

    /// Overrides the ring tuning.
    #[must_use]
    pub fn tuning(mut self, tuning: RingTuning) -> Self {
        self.tuning = tuning;
        self
    }
}

/// Validated, immutable configuration of one ring.
#[derive(Clone, Hash, Debug)]
pub struct RingConfig {
    id: RingId,
    members: Vec<Member>,
    acceptors: Vec<ProcessId>,
    coordinator: ProcessId,
    tuning: RingTuning,
    index_of: BTreeMap<ProcessId, usize>,
}

impl RingConfig {
    /// The ring id.
    pub fn id(&self) -> RingId {
        self.id
    }

    /// Members in ring order.
    pub fn members(&self) -> &[Member] {
        &self.members
    }

    /// Acceptors in ring order.
    pub fn acceptors(&self) -> &[ProcessId] {
        &self.acceptors
    }

    /// The configured (initial) coordinator.
    pub fn coordinator(&self) -> ProcessId {
        self.coordinator
    }

    /// Protocol tuning for this ring.
    pub fn tuning(&self) -> &RingTuning {
        &self.tuning
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the ring has no members (never true for a validated ring).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// A majority of acceptors (quorum size).
    pub fn majority(&self) -> usize {
        self.acceptors.len() / 2 + 1
    }

    /// Whether `p` is a member.
    pub fn is_member(&self, p: ProcessId) -> bool {
        self.index_of.contains_key(&p)
    }

    /// Roles of `p` in this ring ([`Roles::NONE`] if not a member).
    pub fn roles_of(&self, p: ProcessId) -> Roles {
        self.index_of
            .get(&p)
            .map_or(Roles::NONE, |&i| self.members[i].roles)
    }

    /// Position of `p` in ring order.
    pub fn position(&self, p: ProcessId) -> Option<usize> {
        self.index_of.get(&p).copied()
    }

    /// The successor of `p` on the unidirectional ring.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a member.
    pub fn successor(&self, p: ProcessId) -> ProcessId {
        let i = self.index_of[&p];
        self.members[(i + 1) % self.members.len()].process
    }

    /// Ring distance (number of hops) from `from` to `to`.
    ///
    /// # Panics
    ///
    /// Panics if either process is not a member.
    pub fn distance(&self, from: ProcessId, to: ProcessId) -> usize {
        let n = self.members.len();
        let i = self.index_of[&from];
        let j = self.index_of[&to];
        (j + n - i) % n
    }

    /// The acceptor farthest from the coordinator along the ring: the
    /// process that observes the majority vote and emits decisions
    /// ("last acceptor", Section 4).
    pub fn last_acceptor(&self) -> ProcessId {
        *self
            .acceptors
            .iter()
            .max_by_key(|&&a| self.distance(self.coordinator, a))
            .expect("validated ring has at least one acceptor")
    }

    /// Whether a process at ring distance `d` from the coordinator saw the
    /// Phase 2 message for an instance (the Phase 2 arc runs from the
    /// coordinator to the last acceptor, inclusive).
    pub fn on_phase2_arc(&self, p: ProcessId) -> bool {
        let d = self.distance(self.coordinator, p);
        d <= self.distance(self.coordinator, self.last_acceptor())
    }
}

/// Errors detected while validating a [`ClusterConfig`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ConfigError {
    /// Two rings share the same id.
    DuplicateRing(RingId),
    /// A ring has no members.
    EmptyRing(RingId),
    /// The same process appears twice in one ring.
    DuplicateMember(RingId, ProcessId),
    /// A ring has no acceptor.
    NoAcceptor(RingId),
    /// The pinned coordinator is not an acceptor member of the ring.
    BadCoordinator(RingId, ProcessId),
    /// A group maps to an unknown ring.
    UnknownRing(GroupId, RingId),
    /// Two groups share the same id.
    DuplicateGroup(GroupId),
    /// Two groups map to the same ring.
    SharedRing(RingId, GroupId, GroupId),
    /// A subscription names an unknown group.
    UnknownGroup(ProcessId, GroupId),
    /// A subscriber is not a learner member of the group's ring.
    NotALearner(ProcessId, GroupId, RingId),
    /// A ring was declared but no group maps to it.
    UnusedRing(RingId),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::DuplicateRing(r) => write!(f, "duplicate ring {r}"),
            ConfigError::EmptyRing(r) => write!(f, "ring {r} has no members"),
            ConfigError::DuplicateMember(r, p) => {
                write!(f, "process {p} appears twice in ring {r}")
            }
            ConfigError::NoAcceptor(r) => write!(f, "ring {r} has no acceptor"),
            ConfigError::BadCoordinator(r, p) => {
                write!(f, "coordinator {p} of ring {r} is not an acceptor member")
            }
            ConfigError::UnknownRing(g, r) => {
                write!(f, "group {g} maps to unknown ring {r}")
            }
            ConfigError::DuplicateGroup(g) => write!(f, "duplicate group {g}"),
            ConfigError::SharedRing(r, a, b) => {
                write!(f, "groups {a} and {b} both map to ring {r}")
            }
            ConfigError::UnknownGroup(p, g) => {
                write!(f, "process {p} subscribes to unknown group {g}")
            }
            ConfigError::NotALearner(p, g, r) => write!(
                f,
                "process {p} subscribes to group {g} but is not a learner member of ring {r}"
            ),
            ConfigError::UnusedRing(r) => write!(f, "no group maps to ring {r}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validated, immutable configuration of a Multi-Ring Paxos deployment.
///
/// Cheaply cloneable (internally reference-counted): every node holds a
/// copy.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    inner: Arc<ConfigInner>,
}

#[derive(Debug)]
struct ConfigInner {
    rings: BTreeMap<RingId, RingConfig>,
    groups: BTreeMap<GroupId, RingId>,
    subscriptions: BTreeMap<ProcessId, BTreeSet<GroupId>>,
    merge_window: u32,
}

impl ClusterConfig {
    /// Starts building a configuration.
    pub fn builder() -> ClusterConfigBuilder {
        ClusterConfigBuilder::default()
    }

    /// All rings, keyed by id.
    pub fn rings(&self) -> &BTreeMap<RingId, RingConfig> {
        &self.inner.rings
    }

    /// The ring configuration for `id`.
    pub fn ring(&self, id: RingId) -> Option<&RingConfig> {
        self.inner.rings.get(&id)
    }

    /// The ring a group maps to.
    pub fn ring_of_group(&self, group: GroupId) -> Option<RingId> {
        self.inner.groups.get(&group).copied()
    }

    /// The group mapped to a ring (rings and groups are 1:1).
    pub fn group_of_ring(&self, ring: RingId) -> Option<GroupId> {
        self.inner
            .groups
            .iter()
            .find(|&(_, &r)| r == ring)
            .map(|(&g, _)| g)
    }

    /// All groups, keyed by id, with the ring each maps to.
    pub fn groups(&self) -> &BTreeMap<GroupId, RingId> {
        &self.inner.groups
    }

    /// The merge window `M`: how many consensus instances the
    /// deterministic merge consumes from each subscribed ring per turn.
    pub fn merge_window(&self) -> u32 {
        self.inner.merge_window
    }

    /// Groups subscribed to by `p`, in group-id order (the round-robin
    /// order of the deterministic merge).
    pub fn subscriptions_of(&self, p: ProcessId) -> Vec<GroupId> {
        self.inner
            .subscriptions
            .get(&p)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// All subscribing processes.
    pub fn subscribers(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.inner.subscriptions.keys().copied()
    }

    /// Processes that subscribe to `group`, in process-id order. These are
    /// the "replicas of `group`" for the trim protocol (quorum
    /// `Q_T`).
    pub fn subscribers_of(&self, group: GroupId) -> Vec<ProcessId> {
        self.inner
            .subscriptions
            .iter()
            .filter(|(_, subs)| subs.contains(&group))
            .map(|(&p, _)| p)
            .collect()
    }

    /// The *partition* of `p`: all processes with exactly the same
    /// subscription set (Section 5.2). Replicas in the same partition
    /// evolve through the same sequence of states, so a recovering replica
    /// may install checkpoints only from partition peers.
    pub fn partition_of(&self, p: ProcessId) -> Vec<ProcessId> {
        let Some(mine) = self.inner.subscriptions.get(&p) else {
            return Vec::new();
        };
        self.inner
            .subscriptions
            .iter()
            .filter(|(_, subs)| *subs == mine)
            .map(|(&q, _)| q)
            .collect()
    }

    /// Every process mentioned anywhere in the configuration.
    pub fn processes(&self) -> BTreeSet<ProcessId> {
        let mut out = BTreeSet::new();
        for ring in self.inner.rings.values() {
            out.extend(ring.members.iter().map(|m| m.process));
        }
        out.extend(self.inner.subscriptions.keys().copied());
        out
    }

    /// Rings in which `p` is a member, in ring-id order.
    pub fn rings_of(&self, p: ProcessId) -> Vec<RingId> {
        self.inner
            .rings
            .values()
            .filter(|r| r.is_member(p))
            .map(RingConfig::id)
            .collect()
    }
}

/// Builder for [`ClusterConfig`]; see [`ClusterConfig::builder`].
#[derive(Default, Debug)]
pub struct ClusterConfigBuilder {
    rings: Vec<RingSpec>,
    groups: Vec<(GroupId, RingId)>,
    subscriptions: Vec<(ProcessId, GroupId)>,
    merge_window: u32,
}

impl ClusterConfigBuilder {
    /// Adds a ring.
    #[must_use]
    pub fn ring(mut self, spec: RingSpec) -> Self {
        self.rings.push(spec);
        self
    }

    /// Maps a multicast group onto a ring.
    #[must_use]
    pub fn group(mut self, group: GroupId, ring: RingId) -> Self {
        self.groups.push((group, ring));
        self
    }

    /// Subscribes `process` to `group`. The process must be a learner
    /// member of the group's ring.
    #[must_use]
    pub fn subscribe(mut self, process: ProcessId, group: GroupId) -> Self {
        self.subscriptions.push((process, group));
        self
    }

    /// Sets the merge window `M` (default 1, the paper's setting; 0
    /// reads as the default).
    #[must_use]
    pub fn merge_window(mut self, m: u32) -> Self {
        self.merge_window = m;
        self
    }

    /// Validates and freezes the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first inconsistency found
    /// (duplicate ids, rings without acceptors, subscriptions by
    /// non-learners, …).
    pub fn build(self) -> Result<ClusterConfig, ConfigError> {
        let merge_window = self.merge_window.max(1);

        let mut rings = BTreeMap::new();
        for spec in self.rings {
            if spec.members.is_empty() {
                return Err(ConfigError::EmptyRing(spec.id));
            }
            let mut index_of = BTreeMap::new();
            for (i, m) in spec.members.iter().enumerate() {
                if index_of.insert(m.process, i).is_some() {
                    return Err(ConfigError::DuplicateMember(spec.id, m.process));
                }
            }
            let acceptors: Vec<ProcessId> = spec
                .members
                .iter()
                .filter(|m| m.roles.is_acceptor())
                .map(|m| m.process)
                .collect();
            if acceptors.is_empty() {
                return Err(ConfigError::NoAcceptor(spec.id));
            }
            let coordinator = match spec.coordinator {
                Some(c) => {
                    if !acceptors.contains(&c) {
                        return Err(ConfigError::BadCoordinator(spec.id, c));
                    }
                    c
                }
                None => acceptors[0],
            };
            let cfg = RingConfig {
                id: spec.id,
                members: spec.members,
                acceptors,
                coordinator,
                tuning: spec.tuning,
                index_of,
            };
            if rings.insert(spec.id, cfg).is_some() {
                return Err(ConfigError::DuplicateRing(spec.id));
            }
        }

        let mut groups = BTreeMap::new();
        for (g, r) in self.groups {
            if !rings.contains_key(&r) {
                return Err(ConfigError::UnknownRing(g, r));
            }
            if groups.contains_key(&g) {
                return Err(ConfigError::DuplicateGroup(g));
            }
            // Rings and groups are 1:1: a node builds one ring's state
            // for one group, so a second group's stream would never be fed.
            if let Some((&other, _)) = groups.iter().find(|&(_, &ring)| ring == r) {
                return Err(ConfigError::SharedRing(r, other, g));
            }
            groups.insert(g, r);
        }
        for &r in rings.keys() {
            if !groups.values().any(|&gr| gr == r) {
                return Err(ConfigError::UnusedRing(r));
            }
        }

        let mut subscriptions: BTreeMap<ProcessId, BTreeSet<GroupId>> = BTreeMap::new();
        for (p, g) in self.subscriptions {
            let Some(&r) = groups.get(&g) else {
                return Err(ConfigError::UnknownGroup(p, g));
            };
            let ring = &rings[&r];
            if !ring.roles_of(p).is_learner() {
                return Err(ConfigError::NotALearner(p, g, r));
            }
            subscriptions.entry(p).or_default().insert(g);
        }

        Ok(ClusterConfig {
            inner: Arc::new(ConfigInner {
                rings,
                groups,
                subscriptions,
                merge_window,
            }),
        })
    }
}

/// Convenience: builds the canonical test deployment used throughout the
/// paper's baseline experiment (Section 8.3.1): one ring of `n` processes,
/// all of them proposers, acceptors and learners, all subscribed to group
/// 0, first process coordinating.
pub fn single_ring(n: u32, tuning: RingTuning) -> ClusterConfig {
    let mut spec = RingSpec::new(RingId::new(0)).tuning(tuning);
    for p in 0..n {
        spec = spec.member(ProcessId::new(p), Roles::ALL);
    }
    let mut b = ClusterConfig::builder()
        .ring(spec)
        .group(GroupId::new(0), RingId::new(0));
    for p in 0..n {
        b = b.subscribe(ProcessId::new(p), GroupId::new(0));
    }
    b.build().expect("single-ring config is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn roles_flags() {
        let r = Roles::PROPOSER | Roles::LEARNER;
        assert!(r.is_proposer());
        assert!(!r.is_acceptor());
        assert!(r.is_learner());
        assert!(Roles::ALL.contains(r));
        assert!(!r.contains(Roles::ALL));
        assert_eq!(format!("{r:?}"), "Roles(P+L)");
        assert_eq!(format!("{:?}", Roles::NONE), "Roles(-)");
    }

    #[test]
    fn single_ring_shape() {
        let c = single_ring(3, RingTuning::default());
        let ring = c.ring(RingId::new(0)).unwrap();
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.majority(), 2);
        assert_eq!(ring.coordinator(), p(0));
        assert_eq!(ring.successor(p(2)), p(0));
        assert_eq!(ring.distance(p(1), p(0)), 2);
        assert_eq!(ring.last_acceptor(), p(2));
        assert_eq!(c.subscribers_of(GroupId::new(0)), vec![p(0), p(1), p(2)]);
        assert_eq!(c.partition_of(p(1)), vec![p(0), p(1), p(2)]);
        assert_eq!(c.merge_window(), 1);
    }

    #[test]
    fn a_zero_merge_window_reads_as_the_default() {
        let window = |m| {
            let ring = RingSpec::new(RingId::new(0)).member(p(0), Roles::ALL);
            let b = ClusterConfig::builder()
                .ring(ring)
                .group(GroupId::new(0), RingId::new(0));
            b.merge_window(m).build().map(|c| c.merge_window())
        };
        assert_eq!((window(0), window(3)), (Ok(1), Ok(3)));
    }

    #[test]
    fn phase2_arc() {
        // Ring order: 0(P) 1(A,coord) 2(A) 3(A) 4(L): phase-2 arc is 1..=3.
        let c = ClusterConfig::builder()
            .ring(
                RingSpec::new(RingId::new(0))
                    .member(p(0), Roles::PROPOSER)
                    .member(p(1), Roles::ACCEPTOR)
                    .member(p(2), Roles::ACCEPTOR)
                    .member(p(3), Roles::ACCEPTOR)
                    .member(p(4), Roles::LEARNER),
            )
            .group(GroupId::new(0), RingId::new(0))
            .subscribe(p(4), GroupId::new(0))
            .build()
            .unwrap();
        let ring = c.ring(RingId::new(0)).unwrap();
        assert_eq!(ring.coordinator(), p(1));
        assert_eq!(ring.last_acceptor(), p(3));
        assert!(ring.on_phase2_arc(p(1)));
        assert!(ring.on_phase2_arc(p(2)));
        assert!(ring.on_phase2_arc(p(3)));
        assert!(!ring.on_phase2_arc(p(4)));
        assert!(!ring.on_phase2_arc(p(0)));
    }

    #[test]
    fn rejects_empty_ring() {
        let err = ClusterConfig::builder()
            .ring(RingSpec::new(RingId::new(0)))
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::EmptyRing(RingId::new(0)));
    }

    #[test]
    fn rejects_duplicate_member() {
        let err = ClusterConfig::builder()
            .ring(
                RingSpec::new(RingId::new(0))
                    .member(p(0), Roles::ALL)
                    .member(p(0), Roles::ALL),
            )
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::DuplicateMember(RingId::new(0), p(0)));
    }

    #[test]
    fn rejects_ring_without_acceptor() {
        let err = ClusterConfig::builder()
            .ring(RingSpec::new(RingId::new(0)).member(p(0), Roles::PROPOSER))
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::NoAcceptor(RingId::new(0)));
    }

    #[test]
    fn rejects_non_acceptor_coordinator() {
        let err = ClusterConfig::builder()
            .ring(
                RingSpec::new(RingId::new(0))
                    .member(p(0), Roles::PROPOSER)
                    .member(p(1), Roles::ACCEPTOR)
                    .coordinator(p(0)),
            )
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::BadCoordinator(RingId::new(0), p(0)));
    }

    #[test]
    fn rejects_group_on_unknown_ring() {
        let err = ClusterConfig::builder()
            .ring(RingSpec::new(RingId::new(0)).member(p(0), Roles::ALL))
            .group(GroupId::new(0), RingId::new(9))
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::UnknownRing(GroupId::new(0), RingId::new(9))
        );
    }

    #[test]
    fn rejects_subscription_by_non_learner() {
        let err = ClusterConfig::builder()
            .ring(
                RingSpec::new(RingId::new(0))
                    .member(p(0), Roles::ACCEPTOR)
                    .member(p(1), Roles::LEARNER),
            )
            .group(GroupId::new(0), RingId::new(0))
            .subscribe(p(0), GroupId::new(0))
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::NotALearner(p(0), GroupId::new(0), RingId::new(0))
        );
    }

    #[test]
    fn rejects_two_groups_on_one_ring() {
        let two_on_ring_0 = |second: u16| {
            ClusterConfig::builder()
                .ring(RingSpec::new(RingId::new(0)).member(p(0), Roles::ALL))
                .group(GroupId::new(0), RingId::new(0))
                .group(GroupId::new(second), RingId::new(0))
                .subscribe(p(0), GroupId::new(second))
                .build()
                .unwrap_err()
        };
        assert_eq!(
            two_on_ring_0(1),
            ConfigError::SharedRing(RingId::new(0), GroupId::new(0), GroupId::new(1))
        );
        // The same group named twice is still its own error.
        assert_eq!(
            two_on_ring_0(0),
            ConfigError::DuplicateGroup(GroupId::new(0))
        );
    }

    #[test]
    fn rejects_unused_ring() {
        let err = ClusterConfig::builder()
            .ring(RingSpec::new(RingId::new(0)).member(p(0), Roles::ALL))
            .ring(RingSpec::new(RingId::new(1)).member(p(0), Roles::ALL))
            .group(GroupId::new(0), RingId::new(0))
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::UnusedRing(RingId::new(1)));
    }

    #[test]
    fn partitions_by_subscription_set() {
        // p0,p1 subscribe to {g0,g1}; p2 subscribes to {g1} only (the
        // learner-L3 configuration of Figure 2c).
        let mut spec0 = RingSpec::new(RingId::new(0));
        let mut spec1 = RingSpec::new(RingId::new(1));
        for i in 0..3 {
            spec0 = spec0.member(p(i), Roles::ALL);
            spec1 = spec1.member(p(i), Roles::ALL);
        }
        let c = ClusterConfig::builder()
            .ring(spec0)
            .ring(spec1)
            .group(GroupId::new(0), RingId::new(0))
            .group(GroupId::new(1), RingId::new(1))
            .subscribe(p(0), GroupId::new(0))
            .subscribe(p(0), GroupId::new(1))
            .subscribe(p(1), GroupId::new(0))
            .subscribe(p(1), GroupId::new(1))
            .subscribe(p(2), GroupId::new(1))
            .build()
            .unwrap();
        assert_eq!(c.partition_of(p(0)), vec![p(0), p(1)]);
        assert_eq!(c.partition_of(p(2)), vec![p(2)]);
        assert_eq!(c.subscribers_of(GroupId::new(1)), vec![p(0), p(1), p(2)]);
        assert_eq!(
            c.subscriptions_of(p(0)),
            vec![GroupId::new(0), GroupId::new(1)]
        );
        assert_eq!(c.rings_of(p(2)), vec![RingId::new(0), RingId::new(1)]);
    }
}
