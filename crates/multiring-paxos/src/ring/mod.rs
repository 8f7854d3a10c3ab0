//! The Ring Paxos overlay: unidirectional ring routing for one ring.
//!
//! [`RingState`] hosts the consensus roles a process plays in one ring
//! and implements the message choreography of Section 4 / Figure 2 of the
//! paper:
//!
//! * proposals circulate along the ring until they reach the coordinator;
//! * the coordinator emits a combined Phase 2A/2B message that travels
//!   from acceptor to acceptor accumulating votes;
//! * the *last acceptor* (the one farthest from the coordinator along the
//!   ring) replaces a majority-voted Phase 2 message with a decision;
//! * decisions circulate until every member has seen them, carrying the
//!   value only on the arc whose members did not see the Phase 2 message
//!   (each link transports each value exactly once).

pub mod learner;

pub use learner::{ReleasedRange, RepairOutcome, RingLearner};

use crate::config::{RingConfig, StorageMode};
use crate::event::{Action, Message, PersistRecord, PersistToken, TimerKind};
use crate::paxos::acceptor::InstanceRange;
use crate::paxos::{Acceptor, AcceptorRecovery, Coordinator, Phase1Outcome, Phase2Outcome};
use crate::types::{Ballot, ConsensusValue, GroupId, InstanceId, ProcessId, Time, Value, ValueId};
use std::collections::{BTreeMap, BTreeSet};

/// Effect sink passed through ring processing; the node translates it
/// into the final action list, routing self-sends back into itself and
/// registering persist-gated actions.
#[derive(Debug, Default)]
pub struct Effects {
    /// Plain actions, in order.
    pub actions: Vec<Action>,
    /// Decided ranges released by learners, to feed the merge.
    pub released: Vec<(GroupId, ReleasedRange)>,
    /// Signals that acceptors trimmed instances a learner still needs
    /// (replica recovery must fetch a checkpoint).
    pub need_checkpoint: Option<(GroupId, InstanceId)>,
    /// Gated actions keyed by persist token: released on `PersistDone`.
    pub gated: Vec<(PersistToken, Vec<Action>)>,
    next_token: u64,
}

impl Effects {
    /// A sink whose persist tokens start after `token_seed`.
    pub fn new(token_seed: u64) -> Self {
        Self {
            next_token: token_seed,
            ..Self::default()
        }
    }

    /// Tokens consumed so far (the node persists this as its seed).
    pub fn token_seed(&self) -> u64 {
        self.next_token
    }

    fn send(&mut self, to: ProcessId, msg: Message) {
        self.actions.push(Action::Send { to, msg });
    }

    fn timer(&mut self, after_us: u64, timer: TimerKind) {
        self.actions.push(Action::SetTimer { after_us, timer });
    }

    /// Emits a persist action and returns its token.
    fn persist(&mut self, record: PersistRecord, sync: bool) -> PersistToken {
        let token = PersistToken(self.next_token);
        self.next_token += 1;
        self.actions.push(Action::Persist {
            record,
            sync,
            token,
        });
        token
    }

    /// Runs `build` to collect actions, then either gates them behind a
    /// synchronous persist of `record` or emits them directly, according
    /// to the storage `mode`.
    fn persist_then(&mut self, mode: StorageMode, record: PersistRecord, follow_ups: Vec<Action>) {
        match mode {
            StorageMode::InMemory => self.actions.extend(follow_ups),
            StorageMode::AsyncDisk => {
                self.persist(record, false);
                self.actions.extend(follow_ups);
            }
            StorageMode::SyncDisk => {
                let token = self.persist(record, true);
                self.gated.push((token, follow_ups));
            }
        }
    }
}

#[derive(Hash, Debug, Default)]
struct ProposerState {
    next_seq: u64,
    /// Unacknowledged values by sequence number.
    pending: BTreeMap<u64, Value>,
    resend_armed: bool,
}

impl ProposerState {
    /// Acknowledges pending values strictly by the *contents* of a
    /// decision. Acking by instance number would be unsound: after a
    /// coordinator change an instance a value was once proposed at can
    /// be re-decided with a different value (e.g. a hole-filling skip),
    /// and the original value would be silently dropped. A value whose
    /// decisions this proposer never sees resolved simply keeps being
    /// resent; the coordinator's per-proposer sequence filter makes the
    /// resends idempotent.
    fn observe_decision(&mut self, me: ProcessId, value: Option<&ConsensusValue>) {
        if let Some(ConsensusValue::Values(vs)) = value {
            for v in vs {
                if v.id.proposer == me {
                    self.pending.remove(&v.id.seq);
                }
            }
        }
    }
}

/// Per-ring protocol state of one process: the roles it plays plus the
/// routing logic of the unidirectional ring overlay.
#[derive(Hash, Debug)]
pub struct RingState {
    me: ProcessId,
    cfg: RingConfig,
    /// Current believed coordinator (starts at the configured one; updated
    /// by `CoordinatorChange` events from the coordination service).
    coordinator_proc: ProcessId,
    highest_ballot_seen: Ballot,
    coordinator: Option<Coordinator>,
    acceptor: Option<Acceptor>,
    learner: Option<RingLearner>,
    proposer: Option<ProposerState>,
    gap_timer_armed: bool,
    /// When the current Phase 1 round started (for retry under loss).
    phase1_at: Time,
    /// Rotates the acceptor asked for retransmissions, so a learner is
    /// not stuck on an acceptor that lost its history.
    repair_attempts: u32,
    /// Members currently reported down by the coordination service; the
    /// overlay routes around them.
    down: BTreeSet<ProcessId>,
}

impl RingState {
    /// Creates the per-ring state for process `me`. `subscribed` controls
    /// whether the learner role is activated (a learner member that does
    /// not subscribe to the ring's group only forwards traffic).
    pub fn new(me: ProcessId, cfg: RingConfig, subscribed: bool) -> Self {
        Self::with_recovery(me, cfg, subscribed, None)
    }

    /// Like [`RingState::new`], but restores the acceptor from the state
    /// recovered from its stable log.
    pub fn with_recovery(
        me: ProcessId,
        cfg: RingConfig,
        subscribed: bool,
        acceptor_log: Option<AcceptorRecovery>,
    ) -> Self {
        let roles = cfg.roles_of(me);
        let acceptor = roles.is_acceptor().then(|| match acceptor_log {
            Some(rec) => Acceptor::recover(cfg.id(), rec),
            None => Acceptor::new(cfg.id()),
        });
        let learner = (roles.is_learner() && subscribed).then(|| RingLearner::new(cfg.id()));
        let proposer = roles.is_proposer().then(ProposerState::default);
        let coordinator_proc = cfg.coordinator();
        Self {
            me,
            cfg,
            coordinator_proc,
            highest_ballot_seen: Ballot::ZERO,
            coordinator: None,
            acceptor,
            learner,
            proposer,
            gap_timer_armed: false,
            phase1_at: Time::ZERO,
            repair_attempts: 0,
            down: BTreeSet::new(),
        }
    }

    /// Updates the set of members the coordination service reports as
    /// down; ring traffic is routed around them from now on.
    pub fn set_down(&mut self, down: impl IntoIterator<Item = ProcessId>) {
        self.down = down.into_iter().collect();
        self.down.remove(&self.me);
    }

    /// Live members (not reported down).
    fn live_len(&self) -> usize {
        self.cfg.len() - self.down.len()
    }

    /// The group this ring orders.
    pub fn id(&self) -> GroupId {
        self.cfg.id()
    }

    /// The ring configuration.
    pub fn config(&self) -> &RingConfig {
        &self.cfg
    }

    /// The process currently believed to coordinate the ring.
    pub fn coordinator_proc(&self) -> ProcessId {
        self.coordinator_proc
    }

    /// The learner, if this process learns for the ring.
    pub fn learner(&self) -> Option<&RingLearner> {
        self.learner.as_ref()
    }

    /// Mutable learner access (used by replica recovery to fast-forward).
    pub fn learner_mut(&mut self) -> Option<&mut RingLearner> {
        self.learner.as_mut()
    }

    /// The acceptor, if this process accepts for the ring.
    pub fn acceptor(&self) -> Option<&Acceptor> {
        self.acceptor.as_ref()
    }

    /// The active coordinator state, if this process coordinates.
    pub fn coordinator(&self) -> Option<&Coordinator> {
        self.coordinator.as_ref()
    }

    /// Values submitted by the local proposer that have not been
    /// acknowledged as decided yet.
    pub fn proposer_pending(&self) -> usize {
        self.proposer.as_ref().map_or(0, |p| p.pending.len())
    }

    fn successor(&self) -> ProcessId {
        let mut succ = self.cfg.successor(self.me);
        // Route around members reported down (at most n-1 skips).
        for _ in 0..self.cfg.len() {
            if succ == self.me || !self.down.contains(&succ) {
                break;
            }
            succ = self.cfg.successor(succ);
        }
        succ
    }

    /// The *live* acceptor farthest from the current coordinator: the
    /// member that observes majorities and emits decisions.
    fn last_acceptor(&self) -> ProcessId {
        self.cfg
            .acceptors()
            .iter()
            .filter(|a| !self.down.contains(a))
            .max_by_key(|&&a| self.cfg.distance(self.coordinator_proc, a))
            .copied()
            .unwrap_or(self.coordinator_proc)
    }

    /// Whether `p` lies on the Phase 2 arc (coordinator → last acceptor)
    /// relative to the current coordinator.
    fn on_phase2_arc(&self, p: ProcessId) -> bool {
        self.cfg.distance(self.coordinator_proc, p)
            <= self
                .cfg
                .distance(self.coordinator_proc, self.last_acceptor())
    }

    /// Initial activity on process start: if this process is the
    /// configured coordinator, run Phase 1.
    pub fn on_start(&mut self, now: Time, fx: &mut Effects) {
        if self.me == self.coordinator_proc {
            self.become_coordinator(now, Ballot::ZERO, fx);
        }
        if self.learner.is_some() {
            // Periodic low-rate safety net for gaps that form without
            // further traffic behind them.
            self.arm_gap_timer(fx);
        }
    }

    /// The coordination service designated `who` as the ring coordinator.
    pub fn set_coordinator(
        &mut self,
        now: Time,
        who: ProcessId,
        supersedes: Ballot,
        fx: &mut Effects,
    ) {
        self.coordinator_proc = who;
        if who == self.me {
            self.become_coordinator(now, supersedes.max(self.highest_ballot_seen), fx);
        } else {
            self.coordinator = None;
        }
    }

    fn become_coordinator(&mut self, now: Time, supersedes: Ballot, fx: &mut Effects) {
        let tuning = *self.cfg.tuning();
        let majority = self.cfg.majority();
        let coord = self
            .coordinator
            .get_or_insert_with(|| Coordinator::new(self.cfg.id(), self.me, majority, tuning));
        self.phase1_at = now;
        let decided = self
            .acceptor
            .as_ref()
            .map_or(InstanceId::ZERO, Acceptor::decided);
        let (ballot, from) = coord.start(now, supersedes, decided);
        self.highest_ballot_seen = self.highest_ballot_seen.max(ballot);
        for &a in self.cfg.acceptors() {
            fx.send(
                a,
                Message::Phase1A {
                    ring: self.cfg.id(),
                    ballot,
                    from,
                },
            );
        }
        // Rate leveling and re-proposal housekeeping.
        fx.timer(self.cfg.tuning().delta_us, TimerKind::Delta(self.cfg.id()));
    }

    /// Multicasts a batch of payloads to the ring's group via the local
    /// proposer in one submission: all values are minted and handed to
    /// the coordinator (or forwarded) together, so instance packing can
    /// amortize the consensus round across the whole batch. Returns the
    /// assigned value ids in payload order, or `None` if this process
    /// has no proposer role here.
    pub fn multicast_batch(
        &mut self,
        now: Time,
        payloads: Vec<bytes::Bytes>,
        fx: &mut Effects,
    ) -> Option<Vec<ValueId>> {
        let resend_us = self.cfg.tuning().proposal_resend_us;
        let ring_id = self.cfg.id();
        let proposer = self.proposer.as_mut()?;
        let mut ids = Vec::with_capacity(payloads.len());
        let mut values = Vec::with_capacity(payloads.len());
        for payload in payloads {
            proposer.next_seq += 1;
            let id = ValueId::new(self.me, proposer.next_seq);
            let value = Value::new(id, ring_id, payload);
            proposer.pending.insert(id.seq, value.clone());
            ids.push(id);
            values.push(value);
        }
        if !values.is_empty() {
            if !proposer.resend_armed {
                proposer.resend_armed = true;
                fx.timer(resend_us, TimerKind::ProposalResend(ring_id));
            }
            self.submit_or_forward(now, values, 0, fx);
        }
        Some(ids)
    }

    fn submit_or_forward(&mut self, now: Time, values: Vec<Value>, hops: u32, fx: &mut Effects) {
        if self.me == self.coordinator_proc {
            if let Some(c) = self.coordinator.as_mut() {
                let proposals = c.submit(now, values);
                self.emit_proposals(now, proposals, fx);
            }
            // Not started yet: drop; proposer resend recovers the values.
        } else if hops < self.live_len() as u32 {
            let msg = Message::Forward {
                ring: self.cfg.id(),
                values,
                hops: hops + 1,
            };
            self.send_ring(msg, fx);
        }
    }

    fn emit_proposals(&mut self, now: Time, proposals: Vec<InstanceRange>, fx: &mut Effects) {
        let Some(c) = self.coordinator.as_ref() else {
            return;
        };
        let ballot = c.ballot();
        for p in proposals {
            let msg = Message::Phase2 {
                ring: self.cfg.id(),
                ballot,
                first: p.first,
                count: p.count,
                value: p.value,
                votes: 0,
            };
            // The coordinator is itself an acceptor: vote locally first.
            self.handle_phase2(now, msg, fx);
        }
    }

    fn send_ring(&mut self, msg: Message, fx: &mut Effects) {
        fx.send(self.successor(), msg);
    }

    fn arm_gap_timer(&mut self, fx: &mut Effects) {
        if !self.gap_timer_armed {
            self.gap_timer_armed = true;
            let timeout = self.cfg.tuning().gap_timeout_us;
            fx.timer(timeout, TimerKind::GapCheck(self.cfg.id()));
        }
    }

    /// Handles a ring-scoped message addressed to this process.
    pub fn on_message(&mut self, now: Time, from: ProcessId, msg: Message, fx: &mut Effects) {
        match msg {
            Message::Forward { values, hops, .. } => self.submit_or_forward(now, values, hops, fx),
            Message::Phase1A {
                ballot, from: f, ..
            } => self.handle_phase1a(ballot, f, fx),
            Message::Phase1B {
                ballot,
                accepted,
                decided,
                ..
            } => self.handle_phase1b(now, from, ballot, accepted, decided, fx),
            msg @ Message::Phase2 { .. } => self.handle_phase2(now, msg, fx),
            Message::Decision {
                first,
                count,
                value,
                hops,
                ..
            } => self.handle_decision(now, first, count, value, hops, fx),
            Message::Retransmit { from: f, to, .. } => {
                if let Some(a) = self.acceptor.as_ref() {
                    let (decided, trimmed) = a.serve_retransmit(f, to);
                    fx.send(
                        from,
                        Message::RetransmitReply {
                            ring: self.cfg.id(),
                            decided,
                            trimmed,
                        },
                    );
                }
            }
            Message::RetransmitReply {
                decided, trimmed, ..
            } => {
                if let Some(l) = self.learner.as_mut() {
                    let (released, outcome) = l.on_retransmit_reply(now, decided, trimmed);
                    for r in released {
                        fx.released.push((self.cfg.id(), r));
                    }
                    if let RepairOutcome::NeedCheckpoint { trimmed } = outcome {
                        fx.need_checkpoint = Some((self.cfg.id(), trimmed));
                    }
                    if self.learner.as_ref().is_some_and(RingLearner::has_gap) {
                        self.arm_gap_timer(fx);
                    }
                }
            }
            Message::TrimCommand { upto, .. } => {
                if let Some(a) = self.acceptor.as_mut() {
                    a.trim(upto);
                    fx.actions.push(Action::TrimStorage {
                        ring: self.cfg.id(),
                        upto,
                    });
                }
            }
            _ => {}
        }
    }

    fn handle_phase1a(&mut self, ballot: Ballot, from_inst: InstanceId, fx: &mut Effects) {
        self.highest_ballot_seen = self.highest_ballot_seen.max(ballot);
        let mode = self.cfg.tuning().storage;
        let Some(a) = self.acceptor.as_mut() else {
            return;
        };
        match a.on_phase1a(ballot, from_inst) {
            Phase1Outcome::Promised { accepted, decided } => {
                let reply = Action::Send {
                    to: ballot.node(),
                    msg: Message::Phase1B {
                        ring: self.cfg.id(),
                        ballot,
                        from: from_inst,
                        decided,
                        accepted,
                    },
                };
                fx.persist_then(
                    mode,
                    PersistRecord::Promise {
                        ring: self.cfg.id(),
                        ballot,
                        from: from_inst,
                    },
                    vec![reply],
                );
            }
            Phase1Outcome::Rejected { promised } => {
                // Tell the stale coordinator which ballot to supersede.
                fx.send(
                    ballot.node(),
                    Message::Phase1B {
                        ring: self.cfg.id(),
                        ballot: promised,
                        from: from_inst,
                        decided: InstanceId::ZERO,
                        accepted: Vec::new(),
                    },
                );
            }
        }
    }

    fn handle_phase1b(
        &mut self,
        now: Time,
        from: ProcessId,
        ballot: Ballot,
        accepted: Vec<(InstanceId, u32, Ballot, ConsensusValue)>,
        decided: InstanceId,
        fx: &mut Effects,
    ) {
        self.highest_ballot_seen = self.highest_ballot_seen.max(ballot);
        let Some(c) = self.coordinator.as_mut() else {
            return;
        };
        if ballot == c.ballot() {
            let proposals = c.on_phase1b(now, from, ballot, accepted, decided);
            self.emit_proposals(now, proposals, fx);
        } else if ballot > c.ballot() {
            // An acceptor promised a higher ballot: restart Phase 1 above
            // it (we remain the designated coordinator).
            self.become_coordinator(now, ballot, fx);
        }
    }

    fn handle_phase2(&mut self, now: Time, msg: Message, fx: &mut Effects) {
        let Message::Phase2 {
            ballot,
            first,
            count,
            value,
            mut votes,
            ..
        } = msg
        else {
            unreachable!("handle_phase2 called with a non-Phase2 message");
        };
        self.highest_ballot_seen = self.highest_ballot_seen.max(ballot);
        if let Some(l) = self.learner.as_mut() {
            l.on_phase2_value(first, count, &value);
        }
        let mode = self.cfg.tuning().storage;
        let mut voted = false;
        if let Some(a) = self.acceptor.as_mut() {
            match a.on_phase2(ballot, first, count, &value) {
                Phase2Outcome::Voted => {
                    // Saturating: the count arrives from the wire.
                    votes = votes.saturating_add(1);
                    voted = true;
                }
                Phase2Outcome::Rejected { .. } => {}
            }
        }
        let majority = self.cfg.majority() as u32;
        let i_am_last = self.me == self.last_acceptor() && self.acceptor.is_some();
        if i_am_last {
            if votes >= majority {
                // Replace the Phase 2 message by a decision.
                let follow_ups = self.decision_sends(first, count, &value);
                let record = PersistRecord::Vote {
                    ring: self.cfg.id(),
                    ballot,
                    first,
                    count,
                    value: value.clone(),
                };
                if voted {
                    fx.persist_then(mode, record, follow_ups);
                } else {
                    fx.actions.extend(follow_ups);
                }
                self.process_decision_locally(now, first, count, Some(value), fx);
            }
            // Below majority at the last acceptor: the round is lost;
            // the coordinator re-proposes after its timeout.
        } else {
            let forward = Action::Send {
                to: self.successor(),
                msg: Message::Phase2 {
                    ring: self.cfg.id(),
                    ballot,
                    first,
                    count,
                    value: value.clone(),
                    votes,
                },
            };
            if voted {
                // In sync mode the forward waits for the vote's
                // durability.
                let record = PersistRecord::Vote {
                    ring: self.cfg.id(),
                    ballot,
                    first,
                    count,
                    value,
                };
                fx.persist_then(mode, record, vec![forward]);
            } else {
                fx.actions.push(forward);
            }
        }
    }

    /// Builds the decision message(s) the last acceptor sends to its
    /// successor, stripping the value when the successor saw Phase 2.
    fn decision_sends(
        &mut self,
        first: InstanceId,
        count: u32,
        value: &ConsensusValue,
    ) -> Vec<Action> {
        if self.live_len() <= 1 {
            return Vec::new();
        }
        let succ = self.successor();
        let carried = if self.on_phase2_arc(succ) {
            None
        } else {
            Some(value.clone())
        };
        vec![Action::Send {
            to: succ,
            msg: Message::Decision {
                ring: self.cfg.id(),
                first,
                count,
                value: carried,
                hops: 1,
            },
        }]
    }

    fn handle_decision(
        &mut self,
        now: Time,
        first: InstanceId,
        count: u32,
        value: Option<ConsensusValue>,
        hops: u32,
        fx: &mut Effects,
    ) {
        self.process_decision_locally(now, first, count, value.clone(), fx);
        let n = self.live_len() as u32;
        if n > 1 && hops < n - 1 {
            let succ = self.successor();
            let carried = if self.on_phase2_arc(succ) {
                None
            } else {
                // Re-materialize the value if we can (robust against arcs
                // shifting under coordinator changes).
                value.or_else(|| {
                    self.acceptor
                        .as_ref()
                        .and_then(|a| a.decided_at(first))
                        .map(|r| r.value)
                })
            };
            self.send_ring(
                Message::Decision {
                    ring: self.cfg.id(),
                    first,
                    count,
                    value: carried,
                    hops: hops + 1,
                },
                fx,
            );
        }
    }

    fn process_decision_locally(
        &mut self,
        now: Time,
        first: InstanceId,
        count: u32,
        value: Option<ConsensusValue>,
        fx: &mut Effects,
    ) {
        let resolved = if let Some(a) = self.acceptor.as_mut() {
            let resolved = match value {
                Some(v) => {
                    a.on_decision(first, count, v.clone());
                    Some(v)
                }
                None => a.on_decision_from_accepted(first, count),
            };
            if resolved.is_some() && self.cfg.tuning().storage != StorageMode::InMemory {
                // Tiny async marker so a restarted acceptor can still
                // serve retransmissions (the value is recovered from the
                // vote record logged for the same instance).
                fx.persist(
                    PersistRecord::Decision {
                        ring: self.cfg.id(),
                        first,
                        count,
                    },
                    false,
                );
            }
            resolved
        } else {
            value
        };
        if let Some(p) = self.proposer.as_mut() {
            p.observe_decision(self.me, resolved.as_ref());
        }
        if let Some(l) = self.learner.as_mut() {
            let released = l.on_decision(now, first, count, resolved);
            for r in released {
                fx.released.push((self.cfg.id(), r));
            }
            if self.learner.as_ref().is_some_and(RingLearner::has_gap) {
                self.arm_gap_timer(fx);
            }
        }
        if self.coordinator.is_some() && self.me == self.coordinator_proc {
            let more = self
                .coordinator
                .as_mut()
                .map(|c| c.on_decided(now, first, count))
                .unwrap_or_default();
            self.emit_proposals(now, more, fx);
        }
    }

    /// Handles a ring-scoped timer. Returns `false` if the timer does not
    /// belong to this ring.
    pub fn on_timer(&mut self, now: Time, kind: TimerKind, fx: &mut Effects) -> bool {
        match kind {
            TimerKind::Delta(r) | TimerKind::GapCheck(r) | TimerKind::ProposalResend(r)
                if r != self.cfg.id() =>
            {
                false
            }
            TimerKind::Delta(_) => {
                if self.me == self.coordinator_proc {
                    // Phase 1 retry: lost Phase 1A/1B messages would
                    // otherwise leave the coordinator preparing forever.
                    let stuck = self.coordinator.as_ref().is_some_and(|c| {
                        c.status() == crate::paxos::CoordinatorStatus::Preparing
                            && now.since(self.phase1_at) >= self.cfg.tuning().repropose_us
                    });
                    if stuck {
                        let supersedes = self.highest_ballot_seen;
                        self.become_coordinator(now, supersedes, fx);
                        return true; // become_coordinator re-arms Delta
                    }
                    if let Some(c) = self.coordinator.as_mut() {
                        let proposals = c.on_delta(now);
                        self.emit_proposals(now, proposals, fx);
                        fx.timer(self.cfg.tuning().delta_us, kind);
                    }
                }
                true
            }
            TimerKind::GapCheck(_) => {
                self.gap_timer_armed = false;
                let timeout = self.cfg.tuning().gap_timeout_us;
                if let Some(l) = self.learner.as_ref() {
                    if let Some((from, to)) = l.repair_request(now, timeout) {
                        let target = self.repair_target();
                        self.repair_attempts = self.repair_attempts.wrapping_add(1);
                        fx.send(
                            target,
                            Message::Retransmit {
                                ring: self.cfg.id(),
                                from,
                                to,
                            },
                        );
                    } else {
                        self.repair_attempts = 0;
                    }
                    if l.has_gap() {
                        self.arm_gap_timer(fx);
                    }
                }
                true
            }
            TimerKind::ProposalResend(_) => {
                let resend_us = self.cfg.tuning().proposal_resend_us;
                let Some(p) = self.proposer.as_mut() else {
                    return true;
                };
                p.resend_armed = false;
                let values: Vec<Value> = p.pending.values().cloned().collect();
                if !values.is_empty() {
                    if let Some(p) = self.proposer.as_mut() {
                        p.resend_armed = true;
                    }
                    fx.timer(resend_us, kind);
                    self.submit_or_forward(now, values, 0, fx);
                }
                true
            }
            // The node's trim round, and replica- and batcher-layer
            // timers: none is a ring's.
            TimerKind::TrimTick(_)
            | TimerKind::CheckpointTick
            | TimerKind::RecoveryRetry
            | TimerKind::SubmitFlush => false,
        }
    }

    /// Proactively asks an acceptor for the next `chunk` instances after
    /// the learner's current position (used right after a recovering
    /// replica installs a checkpoint, when no live traffic reveals the
    /// backlog).
    pub fn backfill(&mut self, chunk: u64, fx: &mut Effects) {
        let Some(l) = self.learner.as_ref() else {
            return;
        };
        let from = l.next_release();
        let to = from.plus(chunk.max(1) - 1);
        let target = self.repair_target();
        fx.send(
            target,
            Message::Retransmit {
                ring: self.cfg.id(),
                from,
                to,
            },
        );
    }

    /// The acceptor a learner asks for retransmissions: the nearest live
    /// acceptor upstream of this process (possibly itself), rotating to
    /// the next one on repeated attempts.
    fn repair_target(&self) -> ProcessId {
        let acceptors: Vec<ProcessId> = self
            .cfg
            .acceptors()
            .iter()
            .filter(|a| !self.down.contains(a))
            .copied()
            .collect();
        if acceptors.is_empty() {
            return self.me;
        }
        let nearest = acceptors
            .iter()
            .enumerate()
            .min_by_key(|&(_, &a)| self.cfg.distance(a, self.me))
            .map_or(0, |(i, _)| i);
        acceptors[(nearest + self.repair_attempts as usize) % acceptors.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ClusterConfig, RingSpec, Roles};

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    /// Ring order 0(P) 1(A, coordinator) 2(A) 3(A) 4(L), as seen by `me`.
    fn five(me: u32) -> RingState {
        let c = ClusterConfig::builder()
            .ring(
                RingSpec::new(GroupId::new(0))
                    .member(p(0), Roles::PROPOSER)
                    .member(p(1), Roles::ACCEPTOR)
                    .member(p(2), Roles::ACCEPTOR)
                    .member(p(3), Roles::ACCEPTOR)
                    .member(p(4), Roles::LEARNER),
            )
            .subscribe(p(4), GroupId::new(0))
            .build()
            .unwrap();
        RingState::new(p(me), c.ring(GroupId::new(0)).unwrap().clone(), false)
    }

    #[test]
    fn phase2_arc() {
        // The arc runs from the coordinator to the last acceptor: 1..=3.
        let ring = five(4);
        assert_eq!(ring.coordinator_proc(), p(1));
        assert_eq!(ring.last_acceptor(), p(3));
        let arc: Vec<bool> = (0..5).map(|i| ring.on_phase2_arc(p(i))).collect();
        assert_eq!(arc, [false, true, true, true, false]);
    }

    #[test]
    fn a_down_last_acceptor_shortens_the_phase2_arc() {
        let mut ring = five(4);
        ring.set_down([p(3)]);
        assert_eq!(ring.last_acceptor(), p(2));
        let arc: Vec<bool> = (0..5).map(|i| ring.on_phase2_arc(p(i))).collect();
        assert_eq!(arc, [false, true, true, false, false]);
    }

    #[test]
    fn successor_skips_down_members() {
        let mut ring = five(1);
        assert_eq!(ring.successor(), p(2));
        ring.set_down([p(2)]);
        assert_eq!(ring.successor(), p(3));
        ring.set_down([p(2), p(3), p(4)]);
        assert_eq!(ring.successor(), p(0), "wraps around the ring");
        // A report naming this process itself is ignored.
        ring.set_down([p(1), p(2)]);
        assert_eq!(ring.successor(), p(3));
    }

    /// The vote count arrives from the wire: at its maximum the middle
    /// acceptor still votes and forwards (it used to overflow).
    #[test]
    fn a_phase2_carrying_the_maximum_vote_count_is_voted_and_forwarded() {
        let mut ring = five(2);
        let mut fx = Effects::new(0);
        let phase2 = |votes| Message::Phase2 {
            ring: GroupId::new(0),
            ballot: Ballot::new(1, p(1)),
            first: InstanceId::new(1),
            count: 1,
            value: ConsensusValue::Skip,
            votes,
        };
        ring.on_message(Time::ZERO, p(1), phase2(u32::MAX), &mut fx);
        let forwarded = Action::Send {
            to: p(3),
            msg: phase2(u32::MAX),
        };
        assert_eq!(fx.actions, [forwarded]);
    }

    /// Acceptors p2 and p3 voted one skip of `count` instances at a
    /// ballot below the coordinator p1's, and neither saw it decided;
    /// p1 runs Phase 1 over them.
    /// Returns how many ranges each acceptor answered with and the
    /// Phase 2 ranges p1 proposed once both promised.
    fn phase1_over_one_voted_skip(count: u32) -> (Vec<usize>, Vec<(InstanceId, u32)>) {
        let mut coordinator = five(1);
        let mut fx = Effects::new(0);
        coordinator.on_start(Time::ZERO, &mut fx);
        let phase1a = fx.actions.iter().find_map(|a| match a {
            Action::Send { to, msg } if *to == p(2) => Some(msg.clone()),
            _ => None,
        });
        let phase1a = phase1a.expect("a Phase 1A to p2");
        let (mut answers, mut reported) = (Vec::new(), Vec::new());
        for me in [2, 3] {
            let mut acceptor = five(me);
            let mut fx = Effects::new(0);
            let vote = Message::Phase2 {
                ring: GroupId::new(0),
                ballot: Ballot::new(1, p(0)),
                first: InstanceId::new(1),
                count,
                value: ConsensusValue::Skip,
                votes: 0,
            };
            acceptor.on_message(Time::ZERO, p(1), vote, &mut fx);
            let mut fx = Effects::new(0);
            acceptor.on_message(Time::ZERO, p(1), phase1a.clone(), &mut fx);
            let [Action::Send { msg, .. }] = &fx.actions[..] else {
                panic!("one answer: {:?}", fx.actions.len());
            };
            if let Message::Phase1B { accepted, .. } = msg {
                reported.push(accepted.len());
            }
            answers.push((p(me), msg.clone()));
        }
        let mut fx = Effects::new(0);
        for (from, msg) in answers {
            coordinator.on_message(Time::ZERO, from, msg, &mut fx);
        }
        let proposed = (fx.actions.iter())
            .filter_map(|a| match a {
                Action::Send {
                    msg: Message::Phase2 { first, count, .. },
                    ..
                } => Some((*first, *count)),
                _ => None,
            })
            .collect();
        (reported, proposed)
    }

    /// One voted skip of 2²² instances is one range in each promise and
    /// one skip proposal after a quorum of them: it was 4 194 304
    /// entries each.
    #[test]
    fn a_voted_skip_of_2_22_instances_is_one_range_and_one_proposal() {
        let count = 1 << 22;
        let (reported, proposed) = phase1_over_one_voted_skip(count);
        assert_eq!(reported, [1, 1]);
        assert_eq!(proposed, [(InstanceId::new(1), count)]);
    }

    /// The largest skip a range can say costs Phase 1 no more: well
    /// under a second, where one entry per instance would be ≈ 4·10⁹.
    #[test]
    fn a_voted_skip_of_u32_max_instances_is_recovered_in_bounded_time() {
        #[allow(
            clippy::disallowed_methods,
            reason = "the bound is wall-clock time the test itself spends"
        )]
        let started = std::time::Instant::now();
        let (reported, proposed) = phase1_over_one_voted_skip(u32::MAX);
        assert_eq!(reported, [1, 1]);
        assert_eq!(proposed, [(InstanceId::new(1), u32::MAX)]);
        assert!(started.elapsed().as_secs() < 5, "{:?}", started.elapsed());
    }

    #[test]
    fn set_coordinator_reanchors_the_phase2_arc() {
        let mut ring = five(4);
        let mut fx = Effects::new(0);
        ring.set_coordinator(Time::ZERO, p(2), Ballot::ZERO, &mut fx);
        assert!(fx.actions.is_empty(), "a learner only re-anchors");
        assert_eq!(ring.coordinator_proc(), p(2));
        // From 2 the farthest acceptor is 1, four hops on: every member
        // now sees Phase 2.
        assert_eq!(ring.last_acceptor(), p(1));
        assert!((0..5).all(|i| ring.on_phase2_arc(p(i))));
    }

    /// Another ring's `Delta`, `GapCheck` and `ProposalResend`, the
    /// node's trim round and the replica and batcher timers are not this
    /// ring's: at every role, with every ring timer armed and a proposal
    /// pending, each is declined with no effect and no state change.
    #[test]
    fn timers_that_are_not_the_rings_are_declined() {
        use crate::digest::Fnv1a;
        use std::hash::{Hash, Hasher};

        let digest = |ring: &RingState| {
            let mut h = Fnv1a::new();
            ring.hash(&mut h);
            h.finish()
        };
        let other = GroupId::new(1);
        let declined = [
            TimerKind::Delta(other),
            TimerKind::GapCheck(other),
            TimerKind::ProposalResend(other),
            TimerKind::TrimTick(GroupId::new(0)),
            TimerKind::CheckpointTick,
            TimerKind::RecoveryRetry,
            TimerKind::SubmitFlush,
        ];
        for me in 0..5 {
            let mut ring = five(me);
            let mut fx = Effects::new(0);
            ring.on_start(Time::ZERO, &mut fx);
            ring.multicast_batch(Time::ZERO, vec![bytes::Bytes::from_static(b"v")], &mut fx);
            for kind in declined {
                let before = digest(&ring);
                let mut fx = Effects::new(7);
                assert!(
                    !ring.on_timer(Time::from_millis(1), kind, &mut fx),
                    "p{me}: {kind:?}"
                );
                assert!(fx.actions.is_empty(), "p{me}: {kind:?} acted");
                assert!(fx.released.is_empty() && fx.gated.is_empty());
                assert!(fx.need_checkpoint.is_none());
                assert_eq!(fx.token_seed(), 7, "p{me}: {kind:?} persisted");
                assert_eq!(digest(&ring), before, "p{me}: {kind:?} changed the ring");
            }
            let own = TimerKind::GapCheck(GroupId::new(0));
            assert!(ring.on_timer(Time::from_millis(1), own, &mut fx), "p{me}");
        }
    }
}
