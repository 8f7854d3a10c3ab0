//! The [`AmcastEngine`] trait, the [`EngineKind`] selector, and the
//! [`AnyEngine`] wrapper that lets runtimes host either engine behind
//! one concrete type — with the submission-edge hold of multi-group
//! requests and outgoing-frame coalescing layered on top.

use crate::batcher::{BatchConfig, Batcher, PushOutcome, SUBMIT_HOLD_US};
use crate::telemetry::{
    EngineTelemetry, HealthIssue, HealthReport, MetricsRegistry, TelemetrySnapshot, STALL_DELTAS,
};
use crate::wbcast::WbcastNode;
use bytes::Bytes;
use multiring_paxos::app::encode_command;
use multiring_paxos::config::ClusterConfig;
use multiring_paxos::digest::Fnv1a;
use multiring_paxos::event::{Action, Event, Message, StateMachine, TimerKind};
use multiring_paxos::node::{MulticastError, Node};
use multiring_paxos::paxos::AcceptorRecovery;
use multiring_paxos::types::{GroupId, ProcessId, Time, ValueId};
use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The engine-generic **delivery watermark**: for every subscribed
/// group, a position in that group's delivery stream such that every
/// value at or below it has been delivered (and executed) locally, and
/// no value at or below it will ever be delivered again.
///
/// The unit of a mark is engine-specific — the ring engine reports the
/// consensus *instance* of the group's ring, the white-box engine the
/// final *timestamp* of the group's sequencer stream — but the contract
/// is shared: a watermark plus an application snapshot taken at the same
/// instant form a **checkpoint**, and [`AmcastEngine::trim`] lets the
/// engine discard protocol state (dedup records, retained history,
/// acceptor log entries) below a durable watermark.
///
/// Structurally this is the ring engine's checkpoint identifier
/// ([`CheckpointId`](multiring_paxos::recovery::CheckpointId)): per-group
/// marks and nothing else. Reusing the type keeps watermarks storable
/// through the existing
/// [`PersistRecord::Checkpoint`](multiring_paxos::event::PersistRecord)
/// record and comparable with the coordinated trim protocol.
pub use multiring_paxos::recovery::CheckpointId as Watermark;

/// A sans-io atomic-multicast ordering engine.
///
/// Beyond the [`StateMachine`] contract (events in, actions out), an
/// engine accepts local submissions and reports its identity. All
/// engines must provide agreement, validity and acyclic order for the
/// values they deliver via [`Action::Deliver`].
pub trait AmcastEngine: StateMachine {
    /// Atomically multicasts `payloads`, all addressed to the group set
    /// `groups`, from this process in one submission (the paper's
    /// `multicast(γ, m)`, batched — the form the submission-edge
    /// [`Batcher`] flushes into), returning the assigned value ids in
    /// payload order and the actions to execute.
    ///
    /// Every correct subscriber of every addressed group delivers each
    /// message exactly once, individually via [`Action::Deliver`], in a
    /// position consistent with one global acyclic order. A *genuine*
    /// engine (see [`EngineKind::genuine`]) involves only the addressed
    /// groups' processes; the ring engine instead routes multi-group
    /// messages through a covering group. Where one round (one
    /// consensus instance, one sequencer exchange) can carry the whole
    /// batch, it should.
    ///
    /// # Errors
    ///
    /// Fails — submitting nothing — if the set is empty, a group is
    /// unknown in the configuration, this process may not propose to
    /// it, or (ring engine only) no covering group exists for a
    /// multi-group set.
    fn multicast_batch(
        &mut self,
        now: Time,
        groups: &[GroupId],
        payloads: Vec<Bytes>,
    ) -> Result<(Vec<ValueId>, Vec<Action>), MulticastError>;

    /// [`multicast_batch`](Self::multicast_batch) for one payload. Not
    /// meant to be overridden: every engine has one submit body.
    ///
    /// # Errors
    ///
    /// As for [`multicast_batch`](Self::multicast_batch).
    fn multicast(
        &mut self,
        now: Time,
        groups: &[GroupId],
        payload: Bytes,
    ) -> Result<(ValueId, Vec<Action>), MulticastError> {
        let (ids, actions) = self.multicast_batch(now, groups, vec![payload])?;
        Ok((ids[0], actions))
    }

    /// A short, stable engine name (for metrics and reports).
    fn engine_name(&self) -> &'static str;

    /// Values submitted locally and not yet known to be ordered
    /// (backpressure signal; engines without tracking return 0).
    fn backlog(&self) -> usize {
        0
    }

    /// An FNV-1a fingerprint of the engine's protocol-relevant state —
    /// everything that influences future protocol behavior, with
    /// telemetry, latency samples and pure progress counters excluded.
    /// The model checker (`mrp-check`) prunes its interleaving search on
    /// it: two schedules whose commuting steps reach the same protocol
    /// state must fingerprint identically, and states that differ in
    /// any way that matters must (collisions aside) fingerprint
    /// differently. See [`multiring_paxos::digest`].
    fn state_digest(&self) -> u64;

    // --- the observability surface ---------------------------------

    /// A point-in-time snapshot of the engine's telemetry: phase-level
    /// counters and latency histograms recorded on the protocol hot
    /// paths, gauges computed from live state (backlogs, lags, epochs),
    /// and the retained trace window of
    /// [`ProtocolEvent`](crate::telemetry::ProtocolEvent)s. Engines
    /// that record nothing return an empty snapshot.
    fn telemetry(&self) -> TelemetrySnapshot {
        TelemetrySnapshot::empty(self.engine_name())
    }

    /// The health/stall probe, evaluated against `now`: flags rounds
    /// pending longer than [`STALL_DELTAS`]·Δ, frozen checkpoint prune
    /// floors, and deliveries held behind a recovery — the conditions
    /// that otherwise only surface as a timed-out test. Pure
    /// inspection: no state changes, safe at any frequency.
    fn health(&self, now: Time) -> HealthReport {
        HealthReport::healthy(now)
    }

    // --- the checkpoint/trim surface -------------------------------
    //
    // A replica checkpoints by snapshotting its application at the
    // engine's current `watermark()` (plus the engine's own
    // `checkpoint_state()`), persisting all three together. Once the
    // checkpoint is durable it calls `trim(watermark)` so the engine
    // can discard protocol state below it; after a crash it rebuilds
    // the engine, calls `install_checkpoint(watermark, state)` with the
    // restored blob (its own, then possibly a fresher peer's), and
    // finally `resume(now)` to re-fetch everything the checkpoint does
    // not cover.

    /// The engine's current delivery watermark: the stable prefix of
    /// its per-group delivery streams (see [`Watermark`]).
    ///
    /// Everything at or below the returned marks has been delivered to
    /// this process exactly once and is reflected in any application
    /// state snapshot taken in the same instant; nothing at or below
    /// them will be delivered again. Engines with no checkpoint support
    /// report an empty watermark.
    fn watermark(&self) -> Watermark {
        Watermark::default()
    }

    /// Engine-private recovery state to store *inside* a checkpoint,
    /// alongside the application snapshot (e.g. the white-box engine's
    /// residual delivered-id dedup records above the watermark, which
    /// make recovery exact when several values share a timestamp).
    /// Engines without such state return an empty buffer.
    fn checkpoint_state(&self) -> Bytes {
        Bytes::new()
    }

    /// Restores a freshly built engine from a durable checkpoint:
    /// `watermark` is the checkpoint's delivery watermark and `state`
    /// the blob a previous incarnation returned from
    /// [`checkpoint_state`](Self::checkpoint_state). Deliveries at or
    /// below the watermark are suppressed from now on (the restored
    /// application snapshot already contains them).
    fn install_checkpoint(&mut self, _watermark: &Watermark, _state: &Bytes) {}

    /// The checkpoint identified by `watermark` became durable: discard
    /// protocol state at or below it (dedup records, retained history)
    /// and notify whatever remote state the engine keeps per subscriber
    /// (the white-box engine reports the mark to each group's sequencer
    /// so it can prune its decided-id map and released-value history;
    /// the ring engine's acceptor logs are trimmed by the coordinated
    /// quorum protocol instead, fed by the replica's `TrimQuery`
    /// answers). Returns the actions to execute.
    fn trim(&mut self, _now: Time, _watermark: &Watermark) -> Vec<Action> {
        Vec::new()
    }

    /// Called once after a crash-restart, after the last
    /// [`install_checkpoint`](Self::install_checkpoint): returns
    /// the actions that re-fetch the deliveries between the restored
    /// watermark and the live streams (ring engine: instance backfill
    /// from the acceptors; white-box engine: a `Resync` request to each
    /// subscribed group's sequencer, answered from its retained
    /// released-value history).
    fn resume(&mut self, _now: Time) -> Vec<Action> {
        Vec::new()
    }
}

/// Instances per ring requested in one backfill batch when a ring-engine
/// replica resumes from a checkpoint.
const BACKFILL_CHUNK: u64 = 10_000;

impl AmcastEngine for Node {
    fn multicast_batch(
        &mut self,
        now: Time,
        groups: &[GroupId],
        payloads: Vec<Bytes>,
    ) -> Result<(Vec<ValueId>, Vec<Action>), MulticastError> {
        Node::multicast_batch(self, now, groups, payloads)
    }

    fn engine_name(&self) -> &'static str {
        "multiring"
    }

    fn state_digest(&self) -> u64 {
        Node::state_digest(self)
    }

    fn backlog(&self) -> usize {
        self.proposer_backlog()
    }

    /// The node's registry and recovery trace (see [`Node::tel`]), plus
    /// gauges computed from live state: proposer backlog, merge
    /// progress and merge-watermark lag.
    fn telemetry(&self) -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot::from_telemetry("multiring", self.tel());
        snap.gauges
            .insert("backlog".into(), self.proposer_backlog() as u64);
        snap.gauges
            .insert("merge_progress".into(), self.merge_progress());
        let wm = self.watermarks();
        let marks = wm.marks.iter().map(|&(_, i)| i.value());
        let lag = marks.clone().max().unwrap_or(0) - marks.min().unwrap_or(0);
        snap.gauges.insert("merge_watermark_lag".into(), lag);
        snap
    }

    /// Flags a locally submitted value that the merge has not delivered
    /// back after [`STALL_DELTAS`]·Δ — undecided proposals and wedged
    /// merges both surface here (code `"stalled_round"`, detail: µs
    /// outstanding) — and a learner stuck behind trimmed acceptor logs,
    /// which only a checkpoint can move again (code
    /// `"needs_checkpoint"`, detail: the trimmed instance).
    fn health(&self, now: Time) -> HealthReport {
        let mut report = HealthReport::healthy(now);
        if let Some((group, trimmed)) = self.needs_checkpoint() {
            report.issues.push(HealthIssue {
                code: "needs_checkpoint",
                group: Some(group),
                detail: trimmed.value(),
            });
        }
        let threshold = STALL_DELTAS * self.max_delta_us().max(1);
        if let Some(oldest) = self.oldest_pending_submission() {
            let waited = now.since(oldest);
            if waited > threshold {
                report.issues.push(HealthIssue {
                    code: "stalled_round",
                    group: None,
                    detail: waited,
                });
            }
        }
        report
    }

    /// The deterministic merge's per-group instance watermarks — exactly
    /// the ring engine's checkpoint identifier.
    fn watermark(&self) -> Watermark {
        self.watermarks()
    }

    fn install_checkpoint(&mut self, watermark: &Watermark, _state: &Bytes) {
        self.install_watermarks(watermark);
    }

    /// Backfills the instances between the installed watermark and the
    /// live rings from the acceptors.
    fn resume(&mut self, now: Time) -> Vec<Action> {
        self.request_backfill(now, BACKFILL_CHUNK)
    }
}

/// Which atomic-multicast engine a deployment runs.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum EngineKind {
    /// Multi-Ring Paxos: one Ring Paxos instance per group,
    /// deterministic merge at the learners (the paper's protocol).
    #[default]
    MultiRing,
    /// Timestamp-based Skeen/white-box multicast: per-group sequencer
    /// timestamps, delivery in global `(timestamp, group)` order.
    Wbcast,
}

impl EngineKind {
    /// Every selectable engine, for parameterized tests and benches.
    pub const ALL: [EngineKind; 2] = [EngineKind::MultiRing, EngineKind::Wbcast];

    /// The engine's short name.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::MultiRing => "multiring",
            EngineKind::Wbcast => "wbcast",
        }
    }

    /// Whether multi-group messages are *genuine* (only the addressed
    /// groups' processes do protocol work for them). The ring engine
    /// instead routes `multicast(γ, m)` with `|γ| > 1` through a
    /// covering group — typically a deployment's global ring — whose
    /// whole subscriber set participates.
    pub fn genuine(self) -> bool {
        match self {
            EngineKind::MultiRing => false,
            EngineKind::Wbcast => true,
        }
    }

    /// Builds an engine of this kind for process `me` over `config`.
    ///
    /// Both engines consume the same [`ClusterConfig`]: one ring per
    /// group (wbcast treats it as the group's replica set, whose
    /// coordinator is the group's sequencer), roles and learner
    /// subscriptions. Nothing else configures the result: how a client
    /// request is submitted is [`AnyEngine`]'s decision per request.
    pub fn build(self, me: ProcessId, config: ClusterConfig) -> AnyEngine {
        AnyEngine::new(match self {
            EngineKind::MultiRing => EngineInner::MultiRing(Node::new(me, config)),
            EngineKind::Wbcast => EngineInner::Wbcast(WbcastNode::new(me, config)),
        })
    }

    /// Builds an engine of this kind for a process restarting after a
    /// crash, restoring whatever per-ring stable state the engine keeps:
    /// the ring engine reloads its acceptor logs; the white-box engine
    /// (which keeps no stable protocol state of its own) starts fresh —
    /// with every sequencer role *relinquished* until the coordination
    /// service confirms it, since its pre-crash ordering state died with
    /// it — and relies on
    /// [`install_checkpoint`](AmcastEngine::install_checkpoint) /
    /// [`resume`](AmcastEngine::resume) to rejoin its streams.
    pub fn build_recovering(
        self,
        me: ProcessId,
        config: ClusterConfig,
        acceptor_logs: BTreeMap<GroupId, AcceptorRecovery>,
    ) -> AnyEngine {
        AnyEngine::new(match self {
            EngineKind::MultiRing => {
                EngineInner::MultiRing(Node::with_recovery(me, config, acceptor_logs))
            }
            EngineKind::Wbcast => EngineInner::Wbcast(WbcastNode::recovering(me, config)),
        })
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The inner either-engine dispatch: exactly the engine the deployment
/// selected, with no wrapper behavior.
#[derive(Debug)]
enum EngineInner {
    /// The Multi-Ring Paxos engine.
    MultiRing(Node),
    /// The timestamp-based white-box engine.
    Wbcast(WbcastNode),
}

impl EngineInner {
    fn kind(&self) -> EngineKind {
        match self {
            EngineInner::MultiRing(_) => EngineKind::MultiRing,
            EngineInner::Wbcast(_) => EngineKind::Wbcast,
        }
    }

    fn get(&self) -> &dyn AmcastEngine {
        match self {
            EngineInner::MultiRing(n) => n,
            EngineInner::Wbcast(n) => n,
        }
    }

    fn get_mut(&mut self) -> &mut dyn AmcastEngine {
        match self {
            EngineInner::MultiRing(n) => n,
            EngineInner::Wbcast(n) => n,
        }
    }
}

/// A concrete either-engine type, so runtimes and services can host an
/// engine chosen at configuration time without trait objects.
///
/// Beyond plain dispatch, the wrapper owns the submission edge — one
/// path, decided per request from what this process can observe:
///
/// - A client [`Message::Request`] addressed to **one group** goes to
///   the engine in the activation that received it.
/// - A request addressed to **several groups** — the kind that costs a
///   whole extra exchange — is submitted at once when this process has
///   no earlier submission outstanding ([`AmcastEngine::backlog`] is
///   zero), so an idle system never waits. Behind an outstanding
///   submission it is framed and queued per group set by a
///   [`Batcher`], and each queue goes out as one
///   [`AmcastEngine::multicast_batch`] round when a [`BatchConfig`]
///   budget trips, when an event leaves the backlog at zero, or when
///   the `SubmitFlush` timer fires ([`SUBMIT_HOLD_US`] after the first
///   value queued — single-group traffic that keeps the backlog above
///   zero cannot starve it). The bound is shorter than one network hop:
///   a request still queued when the process crashes is lost like one
///   lost on the wire (the client's retry covers both), and that
///   window is all a crash adds to the engine's own.
/// - **Outgoing frame coalescing** — [`Message::Engine`] sends to the
///   same destination produced by one event are merged into a single
///   [`Message::Batch`] frame (both engines unpack batches natively),
///   which in particular makes a white-box sequencer's burst of
///   `Ordered` releases to one subscriber ride one frame.
#[derive(Debug)]
pub struct AnyEngine {
    inner: EngineInner,
    batcher: Batcher,
    /// The wrapper's own counters — `batch.flushes` (one per γ-queue
    /// handed to the engine), `batch.submitted_values`,
    /// `wire.frames_coalesced` (`n` merged sends save `n - 1` frames) —
    /// and the values-per-flush histogram `batch.occupancy`.
    tel: MetricsRegistry,
}

impl AnyEngine {
    fn new(inner: EngineInner) -> Self {
        Self {
            inner,
            batcher: Batcher::default(),
            tel: MetricsRegistry::default(),
        }
    }

    /// Which kind this engine is.
    pub fn kind(&self) -> EngineKind {
        self.inner.kind()
    }

    /// The hosted engine's live telemetry store. No snapshot is built,
    /// so this is cheap enough to read after every event —
    /// [`EngineReplica`](crate::EngineReplica) does, to log recovery
    /// actions as they happen.
    pub fn live_telemetry(&self) -> &EngineTelemetry {
        match &self.inner {
            EngineInner::MultiRing(n) => n.tel(),
            EngineInner::Wbcast(n) => n.tel(),
        }
    }

    /// Replaces the hold queues' budgets — for tests that want a budget
    /// to trip on a handful of values; every deployment runs
    /// [`BatchConfig::enabled`]. Values queued under the previous
    /// budgets are submitted immediately; the returned actions must be
    /// executed like any other engine output.
    pub fn set_batching(&mut self, now: Time, cfg: BatchConfig) -> Vec<Action> {
        let mut out = Vec::new();
        let held = self.batcher.set_config(Some(cfg));
        self.submit_held(now, held, &mut out);
        self.coalesce_outgoing(&mut out);
        out
    }

    /// Submits the queues the batcher gave up, one round each.
    fn submit_held(
        &mut self,
        now: Time,
        held: Vec<(Vec<GroupId>, Vec<Bytes>)>,
        out: &mut Vec<Action>,
    ) {
        for (groups, payloads) in held {
            self.submit_batch(now, &groups, payloads, out);
        }
    }

    /// Submits one flushed batch to the inner engine. Errors mirror the
    /// direct `Request` path: the values are dropped and the clients
    /// time out and retry against a correct proposer.
    fn submit_batch(
        &mut self,
        now: Time,
        groups: &[GroupId],
        payloads: Vec<Bytes>,
        out: &mut Vec<Action>,
    ) {
        self.tel.incr("batch.flushes", 1);
        self.tel
            .incr("batch.submitted_values", payloads.len() as u64);
        self.tel.record("batch.occupancy", payloads.len() as u64);
        if let Ok((_, actions)) = self.inner.get_mut().multicast_batch(now, groups, payloads) {
            out.extend(actions);
        }
    }

    /// Merges same-destination [`Message::Engine`] sends into one
    /// [`Message::Batch`] frame. Only engine frames are touched (other
    /// message kinds may be handled outside the engine's own dispatch,
    /// e.g. by the replica layer), and per-destination send order is
    /// preserved: the merged frame takes the position of the
    /// destination's last original send.
    fn coalesce_outgoing(&mut self, actions: &mut Vec<Action>) {
        let mut total: BTreeMap<ProcessId, usize> = BTreeMap::new();
        for a in actions.iter() {
            if let Action::Send {
                to,
                msg: Message::Engine { .. },
            } = a
            {
                *total.entry(*to).or_insert(0) += 1;
            }
        }
        if !total.values().any(|&n| n > 1) {
            return;
        }
        let mut left = total.clone();
        let mut grouped: BTreeMap<ProcessId, Vec<Message>> = BTreeMap::new();
        let old = std::mem::take(actions);
        for a in old {
            match a {
                Action::Send {
                    to,
                    msg: msg @ Message::Engine { .. },
                } if total[&to] > 1 => {
                    let queue = grouped.entry(to).or_default();
                    queue.push(msg);
                    let l = left.get_mut(&to).expect("counted above");
                    *l -= 1;
                    if *l == 0 {
                        let msgs = grouped.remove(&to).expect("just pushed");
                        self.tel
                            .incr("wire.frames_coalesced", msgs.len() as u64 - 1);
                        actions.push(Action::Send {
                            to,
                            msg: Message::Batch(msgs),
                        });
                    }
                }
                other => actions.push(other),
            }
        }
        // A destination whose counter never reached zero is impossible:
        // every counted send is consumed in this pass.
        debug_assert!(grouped.is_empty());
    }
}

impl StateMachine for AnyEngine {
    fn on_event(&mut self, now: Time, event: Event) -> Vec<Action> {
        let mut out = Vec::new();
        match event {
            // A multi-group request behind a submission of this
            // process that is still outstanding: queue it, so same-γ
            // requests arriving meanwhile share its round.
            Event::Message {
                msg:
                    Message::Request {
                        client,
                        request,
                        groups,
                        payload,
                    },
                ..
            } if groups.iter().any(|g| *g != groups[0]) && self.backlog() > 0 => {
                let framed = encode_command(client, request, &payload);
                match self.batcher.push(&groups, framed) {
                    PushOutcome::Flush(key, payloads) => {
                        self.submit_batch(now, &key, payloads, &mut out);
                    }
                    PushOutcome::ArmTimer => out.push(Action::SetTimer {
                        after_us: SUBMIT_HOLD_US,
                        timer: TimerKind::SubmitFlush,
                    }),
                    PushOutcome::Queued => {}
                }
            }
            Event::Timer(TimerKind::SubmitFlush) => {
                let held = self.batcher.timer_fired();
                self.submit_held(now, held, &mut out);
            }
            // Everything else — single-group requests and a multi-group
            // request on an idle process included — is the engine's.
            other => {
                out = self.inner.get_mut().on_event(now, other);
                if self.batcher.pending() > 0 && self.inner.get().backlog() == 0 {
                    let held = self.batcher.drain();
                    self.submit_held(now, held, &mut out);
                }
            }
        }
        self.coalesce_outgoing(&mut out);
        out
    }

    fn process_id(&self) -> ProcessId {
        self.inner.get().process_id()
    }
}

impl AmcastEngine for AnyEngine {
    /// Direct submissions need their [`ValueId`]s synchronously, so
    /// they are never queued; outgoing coalescing still applies.
    fn multicast_batch(
        &mut self,
        now: Time,
        groups: &[GroupId],
        payloads: Vec<Bytes>,
    ) -> Result<(Vec<ValueId>, Vec<Action>), MulticastError> {
        let (ids, mut actions) = self
            .inner
            .get_mut()
            .multicast_batch(now, groups, payloads)?;
        self.coalesce_outgoing(&mut actions);
        Ok((ids, actions))
    }

    fn engine_name(&self) -> &'static str {
        self.inner.get().engine_name()
    }

    fn backlog(&self) -> usize {
        self.inner.get().backlog() + self.batcher.pending()
    }

    /// The inner engine's fingerprint folded together with the
    /// submission-edge batcher: a value parked in the batcher is
    /// protocol-relevant state the inner engine has not seen yet. The
    /// destructuring is exhaustive for the same reason as the engines'.
    fn state_digest(&self) -> u64 {
        let Self {
            inner,
            batcher,
            // Outside the digest: the wrapper's own counters.
            tel: _,
        } = self;
        let mut h = Fnv1a::new();
        (inner.get().state_digest(), batcher).hash(&mut h);
        h.finish()
    }

    /// The inner engine's snapshot, plus whatever the wrapper itself
    /// has recorded: the `batch.flushes` / `batch.submitted_values` /
    /// `wire.frames_coalesced` counters and the `batch.occupancy`
    /// histogram (values per flush), each present once it is non-zero.
    fn telemetry(&self) -> TelemetrySnapshot {
        let mut snap = self.inner.get().telemetry();
        let counters = self.tel.counters().map(|(name, n)| (name.into(), n));
        snap.counters.extend(counters);
        let histograms = self.tel.histograms();
        snap.histograms
            .extend(histograms.map(|(name, h)| (name.into(), h.clone())));
        snap
    }

    fn health(&self, now: Time) -> HealthReport {
        self.inner.get().health(now)
    }

    fn watermark(&self) -> Watermark {
        self.inner.get().watermark()
    }

    fn checkpoint_state(&self) -> Bytes {
        self.inner.get().checkpoint_state()
    }

    fn install_checkpoint(&mut self, watermark: &Watermark, state: &Bytes) {
        self.inner.get_mut().install_checkpoint(watermark, state);
    }

    fn trim(&mut self, now: Time, watermark: &Watermark) -> Vec<Action> {
        self.inner.get_mut().trim(now, watermark)
    }

    fn resume(&mut self, now: Time) -> Vec<Action> {
        self.inner.get_mut().resume(now)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use multiring_paxos::config::{single_ring, RingTuning};

    #[test]
    fn kind_display_is_its_name() {
        for kind in EngineKind::ALL {
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(EngineKind::Wbcast.to_string(), "wbcast");
    }

    #[test]
    fn genuineness_flag() {
        assert!(!EngineKind::MultiRing.genuine());
        assert!(EngineKind::Wbcast.genuine());
    }

    #[test]
    fn build_produces_matching_engine() {
        let config = single_ring(3, RingTuning::default());
        for kind in EngineKind::ALL {
            let engine = kind.build(ProcessId::new(0), config.clone());
            assert_eq!(engine.kind(), kind);
            assert_eq!(engine.engine_name(), kind.name());
            assert_eq!(engine.process_id(), ProcessId::new(0));
        }
    }

    /// The one submit path: on identically built and started engines,
    /// `multicast(p)` is `multicast_batch(vec![p])` — same id, same
    /// actions, same resulting state — at the sequencer/coordinator and
    /// at a forwarding proposer.
    #[test]
    fn multicast_is_the_single_value_batch() {
        let config = single_ring(3, RingTuning::default());
        let groups = [GroupId::new(0)];
        for kind in EngineKind::ALL {
            for me in [0, 1].map(ProcessId::new) {
                let build = || {
                    let mut e = kind.build(me, config.clone());
                    e.on_event(Time::ZERO, Event::Start);
                    e
                };
                let (mut single, mut batch) = (build(), build());
                for round in 0..3u8 {
                    let now = Time::from_micros(u64::from(round) * 10);
                    let payload = Bytes::from(vec![round; 16]);
                    let (id, actions) = single.multicast(now, &groups, payload.clone()).unwrap();
                    let (ids, batch_actions) =
                        batch.multicast_batch(now, &groups, vec![payload]).unwrap();
                    assert_eq!(ids, vec![id], "{kind}/{me}");
                    assert_eq!(actions, batch_actions, "{kind}/{me}");
                    assert_eq!(single.state_digest(), batch.state_digest());
                }
            }
        }
    }

    /// Digest stability: the fingerprint is a function of the state
    /// alone. Two engines built alike and fed the same events agree
    /// after every step, and every step that changes the state changes
    /// the fingerprint.
    #[test]
    fn same_events_same_digest_on_every_engine() {
        let config = single_ring(3, RingTuning::default());
        for kind in EngineKind::ALL {
            let run = || {
                let mut e = kind.build(ProcessId::new(0), config.clone());
                let mut digests = vec![e.state_digest()];
                e.on_event(Time::ZERO, Event::Start);
                digests.push(e.state_digest());
                e.multicast(
                    Time::from_micros(10),
                    &[GroupId::new(0)],
                    Bytes::from_static(b"v"),
                )
                .unwrap();
                digests.push(e.state_digest());
                e.on_event(
                    Time::from_micros(20),
                    Event::MembershipChange {
                        ring: GroupId::new(0),
                        down: vec![ProcessId::new(2)],
                    },
                );
                digests.push(e.state_digest());
                digests
            };
            let (first, second) = (run(), run());
            assert_eq!(first, second, "{kind}");
            let distinct: std::collections::BTreeSet<u64> = first.iter().copied().collect();
            assert_eq!(distinct.len(), first.len(), "{kind}: {first:?}");
        }
    }

    /// A ring learner told that the instances it needs were trimmed is
    /// wedged until a checkpoint covers them: the health probe names
    /// the group and the trimmed instance, and clears once one does.
    #[test]
    fn trimmed_learner_reports_needs_checkpoint_until_one_is_installed() {
        use multiring_paxos::types::InstanceId;
        let mut node = Node::new(ProcessId::new(1), single_ring(3, RingTuning::default()));
        assert!(node.health(Time::ZERO).is_healthy());
        node.on_event(
            Time::ZERO,
            Event::Message {
                from: ProcessId::new(0),
                msg: Message::RetransmitReply {
                    ring: GroupId::new(0),
                    decided: Vec::new(),
                    trimmed: InstanceId::new(6),
                },
            },
        );
        assert_eq!(
            node.health(Time::ZERO).issues,
            vec![HealthIssue {
                code: "needs_checkpoint",
                group: Some(GroupId::new(0)),
                detail: 6,
            }]
        );
        let covering = Watermark {
            marks: vec![(GroupId::new(0), InstanceId::new(6))],
        };
        node.install_checkpoint(&covering, &Bytes::new());
        assert!(node.health(Time::ZERO).is_healthy());
    }

    /// Two groups over the same three processes, everyone subscribed to
    /// both (so g0 covers {g0, g1} for the ring engine), rings rotated
    /// so p0 leads g0 and p1 leads g1. Δ is short — an idle ring pads
    /// the merge every 20 µs — so a round completes well inside the
    /// hold bound.
    pub(crate) fn two_groups() -> ClusterConfig {
        use multiring_paxos::config::{RingSpec, Roles};
        let tuning = RingTuning {
            delta_us: 20,
            lambda: 50_000,
            ..RingTuning::default()
        };
        let mut b = ClusterConfig::builder();
        for g in 0..2u16 {
            let mut spec = RingSpec::new(GroupId::new(g)).tuning(tuning);
            for p in 0..3u32 {
                spec = spec.member(ProcessId::new((p + u32::from(g)) % 3), Roles::ALL);
                b = b.subscribe(ProcessId::new(p), GroupId::new(g));
            }
            b = b.ring(spec);
        }
        b.build().expect("two-group config")
    }

    pub(crate) fn request(n: u64, groups: &[u16]) -> Event {
        Event::Message {
            from: ProcessId::new(9),
            msg: Message::Request {
                client: multiring_paxos::types::ClientId::new(7),
                request: n,
                groups: groups.iter().map(|&g| GroupId::new(g)).collect(),
                payload: Bytes::from_static(b"cmd"),
            },
        }
    }

    fn arms_submit_flush(actions: &[Action]) -> bool {
        let flush = TimerKind::SubmitFlush;
        actions
            .iter()
            .any(|a| matches!(a, Action::SetTimer { timer, .. } if *timer == flush))
    }

    /// Three engines of one kind over [`two_groups`] on a virtual
    /// clock: frames arrive in FIFO order, one a microsecond, and
    /// timers fire when due.
    struct Net {
        engines: Vec<AnyEngine>,
        wire: std::collections::VecDeque<(ProcessId, ProcessId, Message)>,
        timers: BTreeMap<(u64, u64), (ProcessId, TimerKind)>,
        now: u64,
        seq: u64,
        delivered: [usize; 3],
    }

    impl Net {
        fn start(kind: EngineKind) -> Net {
            let build = |p| kind.build(ProcessId::new(p), two_groups());
            let mut net = Net {
                engines: (0..3).map(build).collect(),
                wire: Default::default(),
                timers: BTreeMap::new(),
                now: 0,
                seq: 0,
                delivered: [0; 3],
            };
            for p in 0..3 {
                net.feed(p, Event::Start);
            }
            while !net.wire.is_empty() {
                net.step();
            }
            net
        }

        fn feed(&mut self, p: usize, event: Event) {
            let at = ProcessId::new(p as u32);
            for a in self.engines[p].on_event(Time::from_micros(self.now), event) {
                match a {
                    Action::Send { to, msg } => self.wire.push_back((at, to, msg)),
                    Action::SetTimer { after_us, timer } => {
                        self.seq += 1;
                        self.timers
                            .insert((self.now + after_us, self.seq), (at, timer));
                    }
                    Action::Deliver { .. } => self.delivered[p] += 1,
                    _ => {}
                }
            }
        }

        /// Fires the next timer if it is due, else delivers one frame
        /// (taking 1 µs), else waits for the timer; returns the timer
        /// fired.
        fn step(&mut self) -> Option<TimerKind> {
            self.seq += 1;
            assert!(self.seq < 100_000, "no progress after 100 000 events");
            let (&key, &(at, timer)) = self.timers.iter().next().expect("a Δ timer is armed");
            if key.0 > self.now {
                if let Some((from, to, msg)) = self.wire.pop_front() {
                    self.now += 1;
                    self.feed(to.value() as usize, Event::Message { from, msg });
                    return None;
                }
                self.now = key.0;
            }
            self.timers.remove(&key);
            self.feed(at.value() as usize, Event::Timer(timer));
            Some(timer)
        }

        fn flushes(&self) -> (u64, u64) {
            let tel = &self.engines[0].tel;
            (
                tel.counter("batch.flushes"),
                tel.counter("batch.submitted_values"),
            )
        }
    }

    /// A lone request — one group or several — is the inner engine's
    /// own path: the actions of a bare engine fed the same event, in
    /// the activation that received it, and no hold timer.
    #[test]
    fn a_lone_request_is_submitted_in_its_activation_exactly_as_the_engine_would() {
        let me = ProcessId::new(0);
        for kind in EngineKind::ALL {
            for groups in [&[0u16][..], &[0, 1]] {
                let mut bare: Box<dyn AmcastEngine> = match kind {
                    EngineKind::MultiRing => Box::new(Node::new(me, two_groups())),
                    EngineKind::Wbcast => Box::new(WbcastNode::new(me, two_groups())),
                };
                let mut wrapped = kind.build(me, two_groups());
                bare.on_event(Time::ZERO, Event::Start);
                wrapped.on_event(Time::ZERO, Event::Start);
                let expected = bare.on_event(Time::ZERO, request(1, groups));
                let actions = wrapped.on_event(Time::ZERO, request(1, groups));
                assert_eq!(actions, expected, "{kind}/{groups:?}");
                assert!(!arms_submit_flush(&actions), "{kind}/{groups:?}");
                assert_eq!(wrapped.inner.get().backlog(), 1, "{kind}/{groups:?}");
                assert_eq!(wrapped.batcher.pending(), 0, "{kind}/{groups:?}");
                assert_eq!(wrapped.telemetry().counter("batch.flushes"), 0);
            }
        }
    }

    /// Three multi-group requests arriving behind an outstanding one
    /// are held, and ride one batched submission released by the event
    /// that clears the backlog — long before the hold bound.
    #[test]
    fn requests_behind_an_outstanding_one_ride_one_round_when_the_backlog_clears() {
        for kind in EngineKind::ALL {
            let mut net = Net::start(kind);
            let t0 = net.now;
            for n in 1..=4 {
                net.feed(0, request(n, &[0, 1]));
            }
            assert_eq!(net.flushes(), (0, 0), "{kind}");
            assert_eq!(net.engines[0].batcher.pending(), 3, "{kind}");
            assert_eq!(net.engines[0].backlog(), 4, "{kind}");
            while net.flushes().0 == 0 {
                let fired = net.step();
                assert_ne!(
                    fired,
                    Some(TimerKind::SubmitFlush),
                    "{kind}: not by the timer"
                );
            }
            assert_eq!(net.flushes(), (1, 3), "{kind}");
            assert!(net.now < t0 + SUBMIT_HOLD_US, "{kind}: at {} µs", net.now);
            assert_eq!(
                net.delivered[0], 1,
                "{kind}: the delivery that cleared the backlog"
            );
            while net.delivered != [4; 3] {
                net.step();
                assert!(net.now < 1_000_000, "{kind}: {:?} delivered", net.delivered);
            }
        }
    }

    /// Single-group traffic that never lets the backlog reach zero
    /// cannot starve a held multi-group request: the `SubmitFlush`
    /// timer submits it [`SUBMIT_HOLD_US`] after it was queued — not
    /// before (nothing else releases it), and no later.
    #[test]
    fn a_request_held_behind_single_group_traffic_is_submitted_by_the_hold_bound() {
        for kind in EngineKind::ALL {
            let mut net = Net::start(kind);
            net.feed(0, request(1, &[0]));
            let t0 = net.now;
            net.feed(0, request(2, &[0, 1]));
            assert_eq!(net.engines[0].batcher.pending(), 1, "{kind}");
            let mut n = 2;
            let fired = loop {
                // A fresh single-group request before every step: the
                // latest is always still outstanding.
                n += 1;
                net.feed(0, request(n, &[0]));
                let fired = net.step();
                if fired == Some(TimerKind::SubmitFlush) {
                    break net.now;
                }
                assert!(net.engines[0].inner.get().backlog() > 0, "{kind}");
                assert_eq!(net.flushes(), (0, 0), "{kind}: released early");
            };
            assert_eq!(fired, t0 + SUBMIT_HOLD_US, "{kind}");
            assert_eq!(net.flushes(), (1, 1), "{kind}");
            assert_eq!(net.engines[0].batcher.pending(), 0, "{kind}");
        }
    }

    /// Two hold cycles inside one window share one timer: the backlog
    /// clearing releases the first queue and leaves the timer out, a
    /// request held meanwhile arms no second one, and the first firing
    /// — [`SUBMIT_HOLD_US`] after the *first* value queued — takes it.
    #[test]
    fn a_second_hold_cycle_rides_the_timer_the_first_one_armed() {
        let pending_flushes = |net: &Net| {
            let flush = |(_, t): &&(ProcessId, TimerKind)| *t == TimerKind::SubmitFlush;
            net.timers.values().filter(flush).count()
        };
        for kind in EngineKind::ALL {
            let mut net = Net::start(kind);
            net.feed(0, request(1, &[0, 1]));
            let t0 = net.now;
            net.feed(0, request(2, &[0, 1]));
            assert_eq!(pending_flushes(&net), 1, "{kind}");
            while net.flushes().0 == 0 {
                assert_ne!(net.step(), Some(TimerKind::SubmitFlush), "{kind}");
            }
            assert!(net.now < t0 + SUBMIT_HOLD_US, "{kind}: at {} µs", net.now);
            // Request 2 is outstanding now; request 3 is held behind it.
            net.feed(0, request(3, &[0, 1]));
            assert_eq!(net.engines[0].batcher.pending(), 1, "{kind}");
            assert_eq!(pending_flushes(&net), 1, "{kind}: a second timer");
            let mut n = 3;
            let fired = loop {
                n += 1;
                net.feed(0, request(n, &[0]));
                if net.step() == Some(TimerKind::SubmitFlush) {
                    break net.now;
                }
                assert_eq!(net.flushes(), (1, 1), "{kind}: released early");
            };
            assert_eq!(fired, t0 + SUBMIT_HOLD_US, "{kind}");
            assert_eq!(net.flushes(), (2, 2), "{kind}");
            assert_eq!(pending_flushes(&net), 0, "{kind}");
        }
    }

    /// The frame coalescer: a destination receiving several engine
    /// frames gets exactly one [`Message::Batch`] at its *last* send
    /// position; destinations with a single engine frame — and
    /// non-engine sends — pass through untouched. (Regression: the
    /// rebuild pass once guarded on the countdown it was decrementing,
    /// dropping every multi-send destination's last frame.)
    #[test]
    fn coalescer_merges_multi_sends_and_keeps_singles_verbatim() {
        let config = single_ring(3, RingTuning::default());
        let mut engine = EngineKind::Wbcast.build(ProcessId::new(0), config);
        let frame = |tag: u8| Message::Engine {
            engine: 1,
            payload: Bytes::from(vec![tag]),
        };
        let p1 = ProcessId::new(1);
        let p2 = ProcessId::new(2);
        let mut actions = vec![
            Action::Send {
                to: p1,
                msg: frame(0),
            },
            Action::Send {
                to: p2,
                msg: frame(1),
            },
            Action::Send {
                to: p1,
                msg: frame(2),
            },
        ];
        engine.coalesce_outgoing(&mut actions);
        assert_eq!(actions.len(), 2);
        // p2's single frame stays verbatim and keeps its place...
        assert!(matches!(
            &actions[0],
            Action::Send { to, msg: Message::Engine { .. } } if *to == p2
        ));
        // ...while p1's two frames ride one Batch at the last position,
        // in send order.
        match &actions[1] {
            Action::Send {
                to,
                msg: Message::Batch(msgs),
            } => {
                assert_eq!(*to, p1);
                let tags: Vec<u8> = msgs
                    .iter()
                    .map(|m| match m {
                        Message::Engine { payload, .. } => payload.as_slice()[0],
                        other => panic!("non-engine frame in batch: {other:?}"),
                    })
                    .collect();
                assert_eq!(tags, vec![0, 2]);
            }
            other => panic!("expected a coalesced batch: {other:?}"),
        }
        assert_eq!(engine.tel.counter("wire.frames_coalesced"), 1);
    }
}
