//! The composite per-process state machine.
//!
//! A [`Node`] hosts, for one process, every role it plays in every ring
//! it belongs to, plus the deterministic merge over its subscribed
//! groups and (when it coordinates a ring) the trim protocol. It is the
//! unit a runtime drives: feed it [`Event`]s, execute the returned
//! [`Action`]s.
//!
//! Messages a node sends to itself (its own successor in a singleton
//! ring, the local acceptor of a coordinator, …) are processed inline
//! rather than round-tripping through the runtime.

use crate::config::ClusterConfig;
use crate::digest::Fnv1a;
use crate::event::{Action, Event, Message, PersistToken, StateMachine, TimerKind};
use crate::multiring::Merger;
use crate::paxos::AcceptorRecovery;
use crate::recovery::{CheckpointId, TrimCoordinator};
use crate::ring::{Effects, RingState};
use crate::telemetry::EngineTelemetry;
use crate::types::{Ballot, ClientId, GroupId, InstanceId, ProcessId, Time, ValueId};
use bytes::Bytes;
use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Locally submitted values whose submission time is retained for
/// latency attribution; beyond this many in flight, extra submissions
/// are simply not timed (the protocol itself is unaffected).
const PENDING_TIMING_CAP: usize = 4096;

/// The counters a [`Node`] keeps, registered from the start so every
/// snapshot carries them.
const COUNTERS: [&str; 4] = [
    "proposed",
    "delivered",
    "backfill_rounds",
    "checkpoint_installs",
];

/// Errors returned by [`Node::multicast`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MulticastError {
    /// The group does not exist in the configuration.
    UnknownGroup(GroupId),
    /// This process has no proposer role in the group's ring.
    NotAProposer(GroupId),
    /// The destination group set was empty.
    NoDestination,
    /// A multi-group message was submitted but no configured group's
    /// subscribers cover every addressed group's subscribers, so the
    /// ring engine has no single ring that reaches them all (deploy a
    /// global ring, or use a genuine engine).
    NoCoveringGroup(Vec<GroupId>),
}

impl fmt::Display for MulticastError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MulticastError::UnknownGroup(g) => write!(f, "unknown group {g}"),
            MulticastError::NotAProposer(g) => {
                write!(f, "process is not a proposer for group {g}")
            }
            MulticastError::NoDestination => write!(f, "empty destination group set"),
            MulticastError::NoCoveringGroup(gs) => {
                write!(f, "no configured group covers the subscribers of {gs:?}")
            }
        }
    }
}

impl std::error::Error for MulticastError {}

/// The per-process protocol state machine: ring roles, deterministic
/// merge, trim coordination.
pub struct Node {
    me: ProcessId,
    config: ClusterConfig,
    rings: BTreeMap<GroupId, RingState>,
    merger: Merger,
    trim: BTreeMap<GroupId, TrimCoordinator>,
    gated: BTreeMap<PersistToken, Vec<Action>>,
    token_seed: u64,
    need_checkpoint: Option<(GroupId, InstanceId)>,
    /// Memoized covering-group resolutions, keyed by the sorted,
    /// deduplicated multi-group destination set.
    covering: BTreeMap<Vec<GroupId>, GroupId>,
    /// Submission times of locally multicast values, for latency
    /// attribution at delivery (bounded by `PENDING_TIMING_CAP`).
    pending_at: BTreeMap<ValueId, Time>,
    /// The [`COUNTERS`], the submit→deliver `ring_latency_us`
    /// histogram, and the recovery trace: `"ring.backfill"` (detail:
    /// chunk size) and `"ring.ckpt_install"` (detail: total instances
    /// covered; time 0 — installation happens before the clock is
    /// threaded in).
    tel: EngineTelemetry,
}

impl fmt::Debug for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Node")
            .field("me", &self.me)
            .field("rings", &self.rings.keys().collect::<Vec<_>>())
            .field("groups", &self.merger.groups())
            .finish_non_exhaustive()
    }
}

impl Node {
    /// Creates a fresh node for process `me`.
    pub fn new(me: ProcessId, config: ClusterConfig) -> Self {
        Self::with_recovery(me, config, BTreeMap::new())
    }

    /// Creates a node restoring acceptor state from recovered stable
    /// logs (keyed by ring).
    pub fn with_recovery(
        me: ProcessId,
        config: ClusterConfig,
        mut acceptor_logs: BTreeMap<GroupId, AcceptorRecovery>,
    ) -> Self {
        let subscriptions = config.subscriptions_of(me);
        let mut rings = BTreeMap::new();
        for (&ring_id, ring_cfg) in config.rings() {
            if !ring_cfg.is_member(me) {
                continue;
            }
            let subscribed = subscriptions.contains(&ring_id);
            let state = RingState::with_recovery(
                me,
                ring_cfg.clone(),
                subscribed,
                acceptor_logs.remove(&ring_id),
            );
            rings.insert(ring_id, state);
        }
        let merger = Merger::new(subscriptions);
        let mut tel = EngineTelemetry::default();
        for counter in COUNTERS {
            tel.incr(counter, 0);
        }
        Self {
            me,
            config,
            rings,
            merger,
            trim: BTreeMap::new(),
            gated: BTreeMap::new(),
            token_seed: 0,
            need_checkpoint: None,
            covering: BTreeMap::new(),
            pending_at: BTreeMap::new(),
            tel,
        }
    }

    /// The node's live telemetry store: the registry it counts into and
    /// its recovery trace (see the field docs for the names).
    pub fn tel(&self) -> &EngineTelemetry {
        &self.tel
    }

    /// Submission time of the oldest locally submitted value that has
    /// not been delivered back through the merge yet (stall-probe
    /// input; `None` when nothing timed is outstanding).
    pub fn oldest_pending_submission(&self) -> Option<Time> {
        self.pending_at.values().min().copied()
    }

    /// The largest rate-leveling interval Δ (µs) over this node's rings
    /// — the natural unit for stall thresholds.
    pub fn max_delta_us(&self) -> u64 {
        self.config
            .rings()
            .values()
            .map(|r| r.tuning().delta_us)
            .max()
            .unwrap_or(0)
    }

    /// The process this node embodies.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Per-ring state (for inspection and tests).
    pub fn ring(&self, ring: GroupId) -> Option<&RingState> {
        self.rings.get(&ring)
    }

    /// The merge position over subscribed groups, used as checkpoint id.
    pub fn watermarks(&self) -> CheckpointId {
        self.merger.watermarks()
    }

    /// Total consensus instances consumed by the merge (progress metric).
    pub fn merge_progress(&self) -> u64 {
        self.merger.total_consumed()
    }

    /// Repositions the merge and the per-ring learners at `ckpt`
    /// (checkpoint installation during recovery).
    pub fn install_watermarks(&mut self, ckpt: &CheckpointId) {
        self.tel.incr("checkpoint_installs", 1);
        self.tel.trace(
            Time::ZERO,
            "ring.ckpt_install",
            None,
            ckpt.total_instances(),
        );
        self.merger.install(ckpt);
        for ring in self.rings.values_mut() {
            let mark = ckpt.mark_of(ring.id());
            if let Some(l) = ring.learner_mut() {
                l.fast_forward(mark);
            }
        }
    }

    /// Asks acceptors to retransmit everything after the current learner
    /// positions (bounded by `chunk` instances per ring); used right
    /// after checkpoint installation to backfill without waiting for
    /// live traffic to reveal the gap.
    pub fn request_backfill(&mut self, now: Time, chunk: u64) -> Vec<Action> {
        self.tel.incr("backfill_rounds", 1);
        self.tel.trace(now, "ring.backfill", None, chunk);
        let mut fx = Effects::new(self.token_seed);
        for ring in self.rings.values_mut() {
            ring.backfill(chunk, &mut fx);
        }
        self.token_seed = fx.token_seed();
        let mut out = Vec::new();
        self.finish(Time::ZERO, fx, &mut out);
        out
    }

    /// The group and trimmed instance of a learner whose repair hit
    /// trimmed acceptor logs and is still stuck at or below them: only a
    /// checkpoint covering the trimmed prefix can move it again. Clears
    /// by itself once one is installed.
    pub fn needs_checkpoint(&self) -> Option<(GroupId, InstanceId)> {
        let (group, trimmed) = self.need_checkpoint?;
        let ring = self.rings.get(&group)?;
        (ring.learner()?.next_release() <= trimmed).then_some((group, trimmed))
    }

    /// An FNV-1a fingerprint of the protocol-relevant state (see
    /// [`crate::digest`]). The destructuring is exhaustive on purpose: a
    /// new field does not compile until it is hashed or named here as
    /// outside the digest.
    pub fn state_digest(&self) -> u64 {
        let Self {
            me,
            rings,
            merger,
            trim,
            gated,
            token_seed,
            need_checkpoint,
            // Outside the digest: constant under exploration, a memo of
            // it, and what only observes (submission times, telemetry) —
            // schedules that commute into the same protocol state must
            // fingerprint identically whatever they counted on the way.
            config: _,
            covering: _,
            pending_at: _,
            tel: _,
        } = self;
        let mut h = Fnv1a::new();
        (me, rings, merger, trim, gated, token_seed, need_checkpoint).hash(&mut h);
        h.finish()
    }

    /// Atomically multicasts `payloads`, all addressed to the group set
    /// `groups`, via the local proposer role (the paper's
    /// `multicast(γ, m)`, batched). Returns the assigned value ids in
    /// payload order plus the actions to execute.
    ///
    /// The batch is handed to the serving ring in one submission, so
    /// the coordinator can pack it into as few consensus instances as
    /// its tuning allows (`values_per_instance` / `bytes_per_instance`);
    /// each value is still delivered individually, in submission order.
    ///
    /// A single-group message is ordered on that group's ring. A
    /// multi-group message is routed through a *covering group*: a
    /// configured group whose subscribers include every subscriber of
    /// every addressed group (deployments realize this as their global
    /// ring), preserving the engine's ordering semantics at the cost of
    /// involving the covering group's whole subscriber set.
    ///
    /// # Errors
    ///
    /// Fails if the set is empty, a group is unknown, this process
    /// cannot propose to the serving ring, or no covering group exists;
    /// on error no value from the batch is submitted.
    pub fn multicast_batch(
        &mut self,
        now: Time,
        groups: &[GroupId],
        payloads: Vec<Bytes>,
    ) -> Result<(Vec<ValueId>, Vec<Action>), MulticastError> {
        let group = self.resolve_serving_group(groups)?;
        let Some(ring) = self.rings.get_mut(&group) else {
            return Err(MulticastError::NotAProposer(group));
        };
        let mut fx = Effects::new(self.token_seed);
        let ids = ring
            .multicast_batch(now, payloads, &mut fx)
            .ok_or(MulticastError::NotAProposer(group))?;
        self.tel.incr("proposed", ids.len() as u64);
        // Only timed when this node also subscribes to the serving
        // group: otherwise the merge never delivers the value here and
        // the entry would never resolve (poisoning the stall probe).
        if self.merger.groups().contains(&group) {
            let room = PENDING_TIMING_CAP.saturating_sub(self.pending_at.len());
            self.pending_at
                .extend(ids.iter().take(room).map(|&id| (id, now)));
        }
        self.token_seed = fx.token_seed();
        let mut out = Vec::new();
        self.finish(now, fx, &mut out);
        Ok((ids, out))
    }

    /// [`multicast_batch`](Self::multicast_batch) for one payload.
    ///
    /// # Errors
    ///
    /// As for [`multicast_batch`](Self::multicast_batch).
    pub fn multicast(
        &mut self,
        now: Time,
        groups: &[GroupId],
        payload: Bytes,
    ) -> Result<(ValueId, Vec<Action>), MulticastError> {
        let (ids, actions) = self.multicast_batch(now, groups, vec![payload])?;
        Ok((ids[0], actions))
    }

    /// Resolves the group whose ring orders a multicast to `groups`: the
    /// single group, or the covering group for a multi-group set.
    fn resolve_serving_group(&mut self, groups: &[GroupId]) -> Result<GroupId, MulticastError> {
        match groups {
            [] => Err(MulticastError::NoDestination),
            &[one] if self.config.ring(one).is_none() => Err(MulticastError::UnknownGroup(one)),
            &[one] => Ok(one),
            many => {
                // Memoized per deduped set: the answer is a pure
                // function of the (immutable) configuration, and
                // multi-group traffic tends to repeat the same sets
                // (a store's scan range, a dlog's destination logs).
                let mut key = many.to_vec();
                key.sort_unstable();
                key.dedup();
                if let Some(&g) = self.covering.get(&key) {
                    return Ok(g);
                }
                let g = self.covering_group(&key)?;
                self.covering.insert(key, g);
                Ok(g)
            }
        }
    }

    /// Resolves the group whose ring orders a multi-group message: the
    /// smallest configured group (fewest subscribers, then lowest id)
    /// whose subscriber set contains every subscriber of every addressed
    /// group.
    fn covering_group(&self, groups: &[GroupId]) -> Result<GroupId, MulticastError> {
        let mut union: Vec<ProcessId> = Vec::new();
        for &g in groups {
            if self.config.ring(g).is_none() {
                return Err(MulticastError::UnknownGroup(g));
            }
            union.extend(self.config.subscribers_of(g));
        }
        union.sort_unstable();
        union.dedup();
        self.config
            .rings()
            .keys()
            .filter_map(|&candidate| {
                let subs = self.config.subscribers_of(candidate);
                union
                    .iter()
                    .all(|p| subs.contains(p))
                    .then_some((subs.len(), candidate))
            })
            .min()
            .map(|(_, g)| g)
            .ok_or_else(|| MulticastError::NoCoveringGroup(groups.to_vec()))
    }

    /// Values proposed locally and not yet acknowledged as decided.
    pub fn proposer_backlog(&self) -> usize {
        self.rings.values().map(RingState::proposer_pending).sum()
    }

    fn finish(&mut self, now: Time, fx: Effects, out: &mut Vec<Action>) {
        let Effects {
            actions,
            released,
            need_checkpoint,
            gated,
            ..
        } = fx;
        if let Some(nc) = need_checkpoint {
            self.need_checkpoint = Some(nc);
        }
        for (group, range) in released {
            self.merger
                .push(group, range.first, range.count, range.value);
        }
        let deliveries = self.merger.poll();
        if !deliveries.is_empty() {
            self.tel.incr("delivered", deliveries.len() as u64);
        }
        for d in deliveries {
            if let Some(submitted) = self.pending_at.remove(&d.value.id) {
                self.tel.record("ring_latency_us", now.since(submitted));
            }
            out.push(Action::Deliver {
                group: d.group,
                instance: d.instance,
                value: d.value,
            });
        }
        self.gated.extend(gated);
        for action in actions {
            match action {
                Action::Send { to, msg } if to == self.me => {
                    self.dispatch_message(now, self.me, msg, out);
                }
                other => out.push(other),
            }
        }
    }

    fn dispatch_message(
        &mut self,
        now: Time,
        from: ProcessId,
        msg: Message,
        out: &mut Vec<Action>,
    ) {
        match msg {
            Message::Batch(msgs) => {
                for m in msgs {
                    self.dispatch_message(now, from, m, out);
                }
            }
            Message::TrimReply { group, seq, safe } => {
                self.on_trim_reply(now, from, group, seq, safe, out);
            }
            Message::Request {
                client,
                request,
                groups,
                payload,
            } => {
                self.on_request(now, client, request, &groups, payload, out);
            }
            msg => {
                if let Some(ring_id) = msg.ring() {
                    let mut fx = Effects::new(self.token_seed);
                    if let Some(ring) = self.rings.get_mut(&ring_id) {
                        ring.on_message(now, from, msg, &mut fx);
                    }
                    self.token_seed = fx.token_seed();
                    self.finish(now, fx, out);
                }
                // Messages without a ring scope that reach a bare node
                // (checkpoint queries, trim queries) are replica-layer
                // concerns; the replica intercepts them before this point.
            }
        }
    }

    /// Handles a client request arriving at this proposer: wraps the
    /// command with the client session so replicas can reply directly.
    fn on_request(
        &mut self,
        now: Time,
        client: ClientId,
        request: u64,
        groups: &[GroupId],
        payload: Bytes,
        out: &mut Vec<Action>,
    ) {
        let framed = crate::app::encode_command(client, request, &payload);
        match self.multicast(now, groups, framed) {
            Ok((_, actions)) => out.extend(actions),
            Err(_) => {
                // Not a proposer for this group set: drop; the client
                // will time out and retry against a correct proposer.
            }
        }
    }

    fn on_trim_reply(
        &mut self,
        now: Time,
        from: ProcessId,
        group: GroupId,
        seq: u64,
        safe: InstanceId,
        out: &mut Vec<Action>,
    ) {
        let Some(tc) = self.trim.get_mut(&group) else {
            return;
        };
        if let Some(upto) = tc.on_reply(from, seq, safe) {
            let acceptors: Vec<ProcessId> = self
                .config
                .ring(group)
                .map(|r| r.acceptors().to_vec())
                .unwrap_or_default();
            for a in acceptors {
                let msg = Message::TrimCommand { ring: group, upto };
                if a == self.me {
                    self.dispatch_message(now, self.me, msg, out);
                } else {
                    out.push(Action::Send { to: a, msg });
                }
            }
        }
    }

    fn on_start(&mut self, now: Time, out: &mut Vec<Action>) {
        let ring_ids: Vec<GroupId> = self.rings.keys().copied().collect();
        for ring_id in ring_ids {
            let mut fx = Effects::new(self.token_seed);
            if let Some(ring) = self.rings.get_mut(&ring_id) {
                ring.on_start(now, &mut fx);
            }
            self.token_seed = fx.token_seed();
            self.finish(now, fx, out);
            self.maybe_start_trim(ring_id, out);
        }
    }

    fn maybe_start_trim(&mut self, ring_id: GroupId, out: &mut Vec<Action>) {
        let Some(ring) = self.rings.get(&ring_id) else {
            return;
        };
        let interval = ring.config().tuning().trim_interval_us;
        if interval == 0 || ring.coordinator_proc() != self.me {
            self.trim.remove(&ring_id);
            return;
        }
        if !self.trim.contains_key(&ring_id) {
            self.trim
                .insert(ring_id, TrimCoordinator::new(ring_id, &self.config));
            out.push(Action::SetTimer {
                after_us: interval,
                timer: TimerKind::TrimTick(ring_id),
            });
        }
    }

    fn on_timer(&mut self, now: Time, kind: TimerKind, out: &mut Vec<Action>) {
        match kind {
            TimerKind::Delta(r) | TimerKind::GapCheck(r) | TimerKind::ProposalResend(r) => {
                let mut fx = Effects::new(self.token_seed);
                if let Some(ring) = self.rings.get_mut(&r) {
                    ring.on_timer(now, kind, &mut fx);
                }
                self.token_seed = fx.token_seed();
                self.finish(now, fx, out);
            }
            TimerKind::TrimTick(r) => {
                let interval = self
                    .rings
                    .get(&r)
                    .map_or(0, |ring| ring.config().tuning().trim_interval_us);
                if let Some(tc) = self.trim.get_mut(&r) {
                    let group = tc.group();
                    let (seq, targets) = tc.begin_round();
                    for t in targets {
                        let msg = Message::TrimQuery { group, seq };
                        if t == self.me {
                            // The replica layer answers; a bare node has
                            // no checkpoints and simply does not reply.
                        } else {
                            out.push(Action::Send { to: t, msg });
                        }
                    }
                    if interval > 0 {
                        out.push(Action::SetTimer {
                            after_us: interval,
                            timer: kind,
                        });
                    }
                }
            }
            TimerKind::CheckpointTick | TimerKind::RecoveryRetry | TimerKind::SubmitFlush => {
                // Replica- and batcher-layer timers; a bare node
                // ignores them.
            }
        }
    }

    fn on_coordinator_change(
        &mut self,
        now: Time,
        ring_id: GroupId,
        coordinator: ProcessId,
        supersedes: Ballot,
        out: &mut Vec<Action>,
    ) {
        let mut fx = Effects::new(self.token_seed);
        if let Some(ring) = self.rings.get_mut(&ring_id) {
            ring.set_coordinator(now, coordinator, supersedes, &mut fx);
        }
        self.token_seed = fx.token_seed();
        self.finish(now, fx, out);
        self.maybe_start_trim(ring_id, out);
    }
}

impl StateMachine for Node {
    fn on_event(&mut self, now: Time, event: Event) -> Vec<Action> {
        let mut out = Vec::new();
        match event {
            Event::Start => self.on_start(now, &mut out),
            Event::Message { from, msg } => self.dispatch_message(now, from, msg, &mut out),
            Event::Timer(kind) => self.on_timer(now, kind, &mut out),
            Event::PersistDone(token) => {
                if let Some(actions) = self.gated.remove(&token) {
                    for action in actions {
                        match action {
                            Action::Send { to, msg } if to == self.me => {
                                self.dispatch_message(now, self.me, msg, &mut out);
                            }
                            other => out.push(other),
                        }
                    }
                }
            }
            Event::CoordinatorChange {
                ring,
                coordinator,
                supersedes,
            } => self.on_coordinator_change(now, ring, coordinator, supersedes, &mut out),
            Event::MembershipChange { ring, down } => {
                if let Some(state) = self.rings.get_mut(&ring) {
                    state.set_down(down);
                }
            }
        }
        out
    }

    fn process_id(&self) -> ProcessId {
        self.me
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{single_ring, RingTuning};
    use crate::host::Host;
    use std::collections::VecDeque;

    fn quiet_tuning() -> RingTuning {
        RingTuning {
            lambda: 0,
            ..RingTuning::default()
        }
    }

    type Hosts = BTreeMap<ProcessId, Host<Node>>;

    /// Three hosted nodes of `config`, started and settled.
    fn started(config: &ClusterConfig) -> Hosts {
        let mut nodes: Hosts = (0..3)
            .map(|i| {
                let p = ProcessId::new(i);
                (p, Host::new(Node::new(p, config.clone())))
            })
            .collect();
        let mut queue = VecDeque::new();
        for (&p, host) in &mut nodes {
            let mut out = Vec::new();
            host.on_event(Time::ZERO, Event::Start, &mut out);
            queue.extend(out.into_iter().map(|a| (p, a)));
        }
        run_to_quiescence(&mut nodes, queue);
        nodes
    }

    /// Routes every frame at zero latency, in send order (the reliable
    /// FIFO channel `Action::Send` promises), until none is left;
    /// returns the values each process delivered. Timers never fire.
    fn run_to_quiescence(
        nodes: &mut Hosts,
        mut queue: VecDeque<(ProcessId, Action)>,
    ) -> BTreeMap<ProcessId, Vec<(GroupId, InstanceId, ValueId)>> {
        let mut delivered: BTreeMap<ProcessId, Vec<(GroupId, InstanceId, ValueId)>> =
            BTreeMap::new();
        let mut steps = 0;
        while let Some((origin, action)) = queue.pop_front() {
            steps += 1;
            assert!(steps < 100_000, "no quiescence");
            match action {
                Action::Send { to, msg } => {
                    let host = nodes.get_mut(&to).expect("known process");
                    let event = Event::Message { from: origin, msg };
                    let mut out = Vec::new();
                    host.on_event(Time::ZERO, event, &mut out);
                    queue.extend(out.into_iter().map(|a| (to, a)));
                }
                Action::Deliver {
                    group,
                    instance,
                    value,
                } => {
                    delivered
                        .entry(origin)
                        .or_default()
                        .push((group, instance, value.id));
                }
                _ => {}
            }
        }
        delivered
    }

    #[test]
    fn three_process_ring_delivers_in_total_order() {
        let mut nodes = started(&single_ring(3, quiet_tuning()));
        // Multicast three values from different proposers.
        let mut queue = VecDeque::new();
        for (i, proposer) in [0u32, 1, 2].iter().enumerate() {
            let p = ProcessId::new(*proposer);
            let host = nodes.get_mut(&p).unwrap();
            let (_, actions) = host
                .machine_mut()
                .multicast(Time::ZERO, &[GroupId::new(0)], Bytes::from(vec![i as u8]))
                .unwrap();
            let mut out = Vec::new();
            host.absorb(Time::ZERO, actions, &mut out);
            queue.extend(out.into_iter().map(|a| (p, a)));
        }
        let delivered = run_to_quiescence(&mut nodes, queue);
        assert_eq!(delivered.len(), 3, "all three learners deliver");
        let reference = &delivered[&ProcessId::new(0)];
        assert_eq!(reference.len(), 3);
        for seq in delivered.values() {
            assert_eq!(seq, reference, "identical delivery order everywhere");
        }
    }

    #[test]
    fn multicast_to_unknown_group_fails() {
        let config = single_ring(3, quiet_tuning());
        let mut node = Node::new(ProcessId::new(0), config);
        let err = node
            .multicast(Time::ZERO, &[GroupId::new(9)], Bytes::new())
            .unwrap_err();
        assert_eq!(err, MulticastError::UnknownGroup(GroupId::new(9)));
        let err = node.multicast(Time::ZERO, &[], Bytes::new()).unwrap_err();
        assert_eq!(err, MulticastError::NoDestination);
    }

    /// Two partition rings over disjoint learners plus a "global" ring
    /// everyone subscribes to: a multi-group message must be routed
    /// through the global group; without it, there is no covering group.
    #[test]
    fn multigroup_routes_through_covering_group() {
        use crate::config::{ClusterConfig, RingSpec, Roles};
        let mut b = ClusterConfig::builder();
        for ring in 0..2u16 {
            let mut spec = RingSpec::new(GroupId::new(ring)).tuning(quiet_tuning());
            for p in 0..2u32 {
                spec = spec.member(ProcessId::new(u32::from(ring) * 2 + p), Roles::ALL);
            }
            b = b.ring(spec);
        }
        let mut global = RingSpec::new(GroupId::new(2)).tuning(quiet_tuning());
        for p in 0..4u32 {
            global = global.member(ProcessId::new(p), Roles::ALL);
        }
        b = b.ring(global);
        for p in 0..4u32 {
            b = b
                .subscribe(ProcessId::new(p), GroupId::new(p as u16 / 2))
                .subscribe(ProcessId::new(p), GroupId::new(2));
        }
        let config = b.build().expect("covering config");
        let node = Node::new(ProcessId::new(0), config.clone());
        assert_eq!(
            node.covering_group(&[GroupId::new(0), GroupId::new(1)]),
            Ok(GroupId::new(2))
        );
        // Degenerate covering: a set within one partition is covered by
        // the partition group itself (2 subscribers beat the global 4).
        assert_eq!(
            node.covering_group(&[GroupId::new(0), GroupId::new(0)]),
            Ok(GroupId::new(0))
        );

        // Without the global ring no group covers {0, 1}.
        let mut b = ClusterConfig::builder();
        for ring in 0..2u16 {
            let mut spec = RingSpec::new(GroupId::new(ring)).tuning(quiet_tuning());
            for p in 0..2u32 {
                spec = spec.member(ProcessId::new(u32::from(ring) * 2 + p), Roles::ALL);
            }
            b = b.ring(spec);
        }
        for p in 0..4u32 {
            b = b.subscribe(ProcessId::new(p), GroupId::new(p as u16 / 2));
        }
        let independent = b.build().expect("independent config");
        let mut node = Node::new(ProcessId::new(0), independent);
        let err = node
            .multicast(
                Time::ZERO,
                &[GroupId::new(0), GroupId::new(1)],
                Bytes::new(),
            )
            .unwrap_err();
        assert_eq!(
            err,
            MulticastError::NoCoveringGroup(vec![GroupId::new(0), GroupId::new(1)])
        );
    }

    #[test]
    fn request_is_framed_and_multicast() {
        let mut nodes = started(&single_ring(3, quiet_tuning()));
        let p0 = ProcessId::new(0);
        let request = Event::Message {
            from: ProcessId::new(99),
            msg: Message::Request {
                client: ClientId::new(5),
                request: 1,
                groups: vec![GroupId::new(0)],
                payload: Bytes::from_static(b"cmd"),
            },
        };
        let mut queue = VecDeque::new();
        let host = nodes.get_mut(&p0).unwrap();
        let mut out = Vec::new();
        host.on_event(Time::ZERO, request, &mut out);
        queue.extend(out.into_iter().map(|a| (p0, a)));
        let delivered = run_to_quiescence(&mut nodes, queue);
        assert_eq!(delivered[&p0].len(), 1);
    }
}
