//! A timestamp-based Skeen-style ("white-box") atomic multicast engine
//! with *genuine* multi-group messages.
//!
//! ## Message flow
//!
//! Each multicast group has one *sequencer*: the coordinator of the
//! ring the group maps to in the [`ClusterConfig`]. The sequencer role
//! is **fault-tolerant**: when the coordination service designates a
//! new ring coordinator ([`Event::CoordinatorChange`]), the group's
//! sequencer moves with it — see *Sequencer failover* below.
//!
//! ### Single-group messages (one phase)
//!
//! ```text
//!  proposer            sequencer of g                subscribers of g
//!     │  Submit(γ={g})     │                               │
//!     ├───────────────────▶│ ts := clock(g)++              │
//!     │                    ├── Ordered(g, ts, γ, v) ──────▶│  buffer by (ts, id)
//!     │                    ├── Heartbeat(g, promise) ──···▶│  deliver in global
//!     │                                                    │  (ts, id) order
//!
//!                      sequencer of idle h       a subscriber of g and h
//!                          │◀──── Probe(h, ts) ────────────┤  (ts, id) waits on h
//!                          │ clock(h) := max(clock(h), ts+1)
//!                          ├── Heartbeat(h, promise ≥ ts) ▶│  deliver
//! ```
//!
//! ### Multi-group messages (Skeen phase 2, the paper's `multicast(γ, m)`)
//!
//! ```text
//!  initiator         sequencer of g₁   sequencer of g₂     subscribers of γ
//!     │  Submit(γ, v)      │                 │                   │
//!     ├───────────────────▶│ ts₁ := clock₁++ │                   │
//!     ├─────────────────────────────────────▶│ ts₂ := clock₂++   │
//!     │◀─ ProposeAck(ts₁) ─┤                 │                   │
//!     │◀─ ProposeAck(ts₂) ──────────────────-┤                   │
//!     │  fts := max(ts₁, ts₂)                │                   │
//!     ├─ Final(fts) ──────▶│                 │                   │
//!     ├─ Final(fts) ──────────────────────--▶│                   │
//!     │                    ├── Ordered(g₁, fts, γ, v) ──────────▶│ deliver once at
//!     │                    │                 ├─ Ordered(g₂,…) ──▶│ global (fts, id)
//! ```
//!
//! 1. **Submit** — the initiator assigns the value its [`ValueId`] and
//!    sends it to the sequencer of *each* addressed group. This is the
//!    step that makes the engine *genuine*: only the addressed groups'
//!    processes are ever involved with the message.
//! 2. **Propose** — each addressed sequencer assigns the value the next
//!    per-group timestamp. For a single-group message that timestamp is
//!    final immediately; for a multi-group message the sequencer holds
//!    the value as *undecided* and reports the proposal back to the
//!    initiator.
//! 3. **Decide** — the initiator collects one proposal per addressed
//!    group and sends the maximum back as the final timestamp. Each
//!    sequencer re-keys the value at the final timestamp, advances its
//!    clock past it (Lamport receive rule), and releases its ordered
//!    stream strictly in `(timestamp, id)` order — values keyed above a
//!    still-undecided proposal wait, because that proposal's final
//!    timestamp may land below them.
//! 4. **Deliver** — every subscriber buffers `Ordered` values and
//!    delivers in the global lexicographic `(timestamp, id)` order. A
//!    buffered value is deliverable once every other subscribed group's
//!    *frontier* (largest key observed from its sequencer, streams are
//!    released in key order over reliable FIFO channels) has reached the
//!    value's key. A subscriber of several addressed groups receives one
//!    copy per stream and delivers exactly once: only the copy in the
//!    smallest addressed group it subscribes to enters the buffer, the
//!    others merely advance frontiers.
//! 5. **Heartbeat** — a sequencer promises "all my future timestamps
//!    exceed X" so that other groups' deliveries are not blocked by an
//!    idle group. A promise never overtakes an undecided proposal. It
//!    is made on two occasions, by one piece of code
//!    (`emit_heartbeats`):
//!    * **on demand** — a subscriber whose next value waits on group
//!      `h`'s frontier sends `h`'s sequencer a `Probe` naming the
//!      blocked timestamp, once; the sequencer moves its clock past it
//!      (Lamport receive rule) and, if `h` has nothing in flight,
//!      promises at once, to every subscriber (if it has, releasing
//!      that work says as much, and a heartbeat follows only where it
//!      does not). A sequencer, unlike the Paxos ring whose rate
//!      leveling this step was copied from, can answer "how far is your
//!      clock?" in one message, so delivery costs message delays, not a
//!      timer period. A sequencer that subscribes to the busy group
//!      sees the value itself and asks itself, inline; the others then
//!      do not ask at all. This is the accelerator: it is sent once and
//!      never retried.
//!    * **every Δ** of the group's ring — the backstop for a probe lost
//!      with a connection or a crashed sequencer, and what the liveness
//!      argument rests on. It also still wins where a round trip
//!      exceeds Δ (WAN links): there the probe arrives after the tick
//!      has promised past it and is dropped unanswered.
//! 6. **Release acknowledgement** — when a sequencer emits a value into
//!    its ordered stream it also sends the initiator a `FinalAck`.
//!    Released frames are never lost (reliable FIFO channels), so a
//!    `FinalAck` from every addressed group means the value is safe and
//!    the initiator can stop tracking it.
//!
//! ## Module layout
//!
//! One module per role of *White-Box Atomic Multicast* (arXiv
//! 1904.07171). Each module's own docs describe the part of the
//! protocol it implements and list the metrics it records:
//!
//! | module | role |
//! |---|---|
//! | `wire` | the thirteen frames and their byte layout |
//! | `sequencer` | the group-local state machine: clock, proposals, release in key order, heartbeat promises, resync replay, pruning, takeover and resignation (*Sequencer failover*) |
//! | `rounds` | the initiator's cross-group timestamp agreement and its retries |
//! | `frontier` | the subscriber's delivery frontier and the checkpoint surface (*Checkpointing, resync and bounded state*) |
//! | `recovery` | orphaned rounds, membership and coordinator changes (*Initiator crash recovery*) |
//!
//! This module holds what they share: the protocol constants,
//! [`WbcastNode`] and its construction, frame dispatch, the state digest
//! and the engine-trait impls.
//!
//! ## Metrics
//!
//! Counters, histograms and trace events are recorded where things
//! happen and are listed in the recording module's docs: `seq.*` in
//! `sequencer`, `sub.*` in `frontier`, `round.*` in `rounds`, `orphan.*`
//! in `recovery`. The gauges are computed from live state whenever a
//! snapshot is taken ([`AmcastEngine::telemetry`]):
//!
//! | gauge | meaning |
//! |---|---|
//! | `backlog` | locally submitted values addressed to a subscribed group and not yet delivered locally |
//! | `inflight` | locally submitted values still tracked: some addressed group has not confirmed release |
//! | `dedup_records` | delivered-id records retained (the window above the last trim) |
//! | `orphan.rounds_open` | recovery rounds this process is running |
//! | `seq.groups_led` | groups this process sequences |
//! | `seq.history_retained` | released values retained for resyncs, over the led groups |
//! | `seq.undecided` | undecided multi-group proposals held, over the led groups (zero in a quiesced cluster) |
//! | `seq.outq_depth` | decided values gated behind an undecided proposal or a takeover hold |
//! | `seq.prune_floor_lag` | largest distance, in timestamps, between a led group's newest retained release and its eviction floor |
//! | `sub.pending_depth` | ordered-but-undeliverable values buffered, over the subscribed streams |
//! | `sub.resyncing_streams` | subscribed streams holding deliveries behind an outstanding resync |
//! | `max_epoch` | highest sequencer epoch led or observed |
//!
//! ## Remaining assumptions
//!
//! The model's remaining assumptions: the takeover resume point exceeds
//! every timestamp the crashed sequencer exposed (guaranteed by the
//! hybrid clock whenever the election timeout exceeds the count-driven
//! clock skew — in a full deployment the counter is Paxos-replicated
//! inside the group instead); a *sequencer* crash also loses its
//! released-value history, so subscribers that crash while the
//! replacement leads can only resync what the replacement released
//! itself (replicating the history inside the group goes together with
//! counter replication); dedup pruning assumes a failover re-release
//! or orphan-recovery re-submission of an old value lands within one
//! checkpoint interval of its re-probe (the takeover grace window and
//! the orphan timeout are orders of magnitude shorter than any
//! sensible checkpoint interval); a decided-wins re-injection into a
//! group whose proposal died with its previous sequencer lands inside
//! the replacement's takeover hold ([`TAKEOVER_GRACE_DELTAS`] exceeds
//! the orphan timeout exactly for this) — only if the recovery signal
//! itself is delayed past that window (e.g. lost membership events)
//! can the re-keyed release land below the new stream's frontier; and
//! while the fence serializes the initiator against recovery, two
//! *concurrent recoverers* whose state snapshots were split by a
//! second sequencer failover in the middle of recovery can still race
//! their decisions. Making those last two windows exact needs the
//! final timestamp agreed inside the group, i.e. the paper's full
//! in-group replication of the initiator state, which goes together
//! with the counter/history replication above.
//!
//! Timestamps are Lamport-style hybrid clocks: they advance with
//! submissions *and* with elapsed time (in a fixed quantum shared by
//! every group, [`CLOCK_QUANTUM_US`]). "Elapsed time" is the hosting
//! process's `now`, and time bases are **per process**: the simulator
//! hands every process one global clock, but `TcpRuntime` counts from
//! each process's own start, so two groups' clocks sit as far apart as
//! their sequencers' processes were started. Delivery does not depend
//! on their alignment: a subscriber blocked on the group that is behind
//! tells its sequencer the timestamp it needs (step 5). What still
//! leans on the time component is takeover's hybrid-clock floor (the
//! first assumption above), which a successor computes from *its own*
//! `now`: over TCP it covers the predecessor's unobserved assignments
//! only as far as the two processes' time bases agree.
//!
//! Compared with the ring engine, a multi-group message costs two extra
//! message delays (propose/decide) but involves *only* the addressed
//! groups, where Multi-Ring Paxos must route it through a covering
//! (global) ring that every replica subscribes to — the scalability
//! bottleneck the paper's Figure 4 measures.
//!
//! All engine traffic travels in opaque
//! [`Message::Engine`] frames
//! with wire id [`WBCAST_WIRE_ID`], so every existing runtime
//! (simulator, TCP transport) carries it unchanged.

mod frontier;
mod recovery;
mod rounds;
mod sequencer;
mod wire;

pub use sequencer::CLOCK_QUANTUM_US;
pub use wire::{frame_kind, message_carries_value, WBCAST_WIRE_ID};

use crate::engine::{AmcastEngine, Watermark};
use crate::telemetry::{
    EngineTelemetry, HealthIssue, HealthReport, TelemetrySnapshot, STALL_DELTAS,
};
use bytes::Bytes;
use frontier::Subscription;
use multiring_paxos::app::encode_command;
use multiring_paxos::config::ClusterConfig;
use multiring_paxos::digest::Fnv1a;
use multiring_paxos::event::{Action, Event, Message, StateMachine, TimerKind};
use multiring_paxos::node::MulticastError;
use multiring_paxos::types::{ClientId, GroupId, ProcessId, RingId, Time, ValueId};
use recovery::OrphanRound;
use rounds::Inflight;
use sequencer::Sequencer;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use wire::WbMessage;

/// Initiator retry pacing: unconfirmed `Submit`/`Final` rounds are
/// re-probed every this-many Δ of the addressed group's ring.
pub const RETRY_DELTAS: u64 = 4;

/// Orphan timeout, in Δ of the proposing sequencer's ring: a
/// multi-group proposal whose initiator has shown no sign of life (no
/// `Final`, no retransmitted `Submit`) for this long is presumed
/// orphaned, and the sequencer holding it assumes the initiator role
/// for the round (see *Initiator crash recovery* in `recovery`'s docs).
/// Three full retry periods mean a live initiator has had several
/// chances to refresh the proposal before recovery ever fires — and a
/// spurious recovery of a live round is harmless anyway (the exchange
/// is idempotent and decides exactly what the initiator would).
pub const ORPHAN_DELTAS: u64 = 3 * RETRY_DELTAS;

/// A fresh sequencer's recovery window, in Δ of its ring: releases and
/// heartbeat promises are held this long after takeover so that
/// decided values re-injected at their original (possibly small)
/// timestamps re-enter the stream *before* the frontier advances past
/// them. Two sources re-inject: a live initiator re-running its
/// interrupted rounds (re-probes fire inline on `CoordinatorChange`,
/// then every [`RETRY_DELTAS`] × Δ), and orphan recovery acting for a
/// dead initiator — which fires up to [`ORPHAN_DELTAS`] × Δ after the
/// initiator's last sign of life. The window exceeds the orphan
/// timeout by a retry period so that even a decided-wins re-injection
/// of a round whose proposal died with this group's previous sequencer
/// lands while the stream is still held, keeping the
/// released-in-key-order invariant.
pub const TAKEOVER_GRACE_DELTAS: u64 = ORPHAN_DELTAS + RETRY_DELTAS;

// The recovery-window algebra above is load-bearing: a takeover grace
// shorter than the orphan timeout plus one retry period could advance
// the frontier past a re-injected decided value, and an orphan timeout
// at or below the retry period would recover live rounds constantly.
// The `protocol-constants` lint (`mrp-check`) checks these assertions stay
// present.
const _: () = assert!(TAKEOVER_GRACE_DELTAS >= ORPHAN_DELTAS + RETRY_DELTAS);
const _: () = assert!(ORPHAN_DELTAS > RETRY_DELTAS);

/// Cap on a sequencer's retained released-value history while **not**
/// every subscriber of the group participates in checkpointing (has
/// sent at least one `CkptMark`): without the reports, nothing ever
/// authorizes a prune, and retaining the full stream would grow memory
/// with uptime in deployments that never checkpoint (bare engine nodes,
/// benches). A resync against a capped history replays best-effort —
/// a subscriber that never checkpointed could not have been made whole
/// before this PR either (no replay path existed at all). Checkpointing
/// deployments are unaffected once every subscriber has reported:
/// pruning then follows the collective watermark exactly.
pub const UNREPORTED_HISTORY_CAP: usize = 4096;

/// A global delivery key: final timestamp, tie-broken by the value id
/// (final timestamps of multi-group messages can collide, even within
/// one group's stream).
type Key = (u64, ValueId);

/// The per-process state machine of the white-box engine: sequencer
/// roles for the groups this process coordinates, the initiator state
/// for in-flight multi-group submissions, plus the delivery buffer over
/// its subscribed groups.
pub struct WbcastNode {
    me: ProcessId,
    config: ClusterConfig,
    /// Groups this process sequences.
    led: BTreeMap<GroupId, Sequencer>,
    /// Groups this process subscribes to.
    subs: BTreeMap<GroupId, Subscription>,
    /// The believed current coordinator (= sequencer host) per ring,
    /// maintained from [`Event::CoordinatorChange`] notifications.
    coordinators: BTreeMap<RingId, ProcessId>,
    /// Highest sequencer epoch known per ring (observed on frames or
    /// used by a local takeover); a takeover uses the next epoch.
    ring_epochs: BTreeMap<RingId, u32>,
    /// Highest timestamp observed per group, from any frame touching
    /// that group's clock: the takeover resume point.
    observed: BTreeMap<GroupId, u64>,
    /// Ids delivered locally, with the timestamp they delivered at:
    /// exactly-once across failover re-releases and resync replays.
    /// Pruned below the checkpoint watermark on [`AmcastEngine::trim`];
    /// the entries above the watermark travel inside the checkpoint
    /// ([`AmcastEngine::checkpoint_state`]) so recovery stays exact even
    /// when several values share the boundary timestamp.
    delivered_ids: BTreeMap<ValueId, u64>,
    /// Locally submitted values still being tracked (retries, backlog).
    inflight: BTreeMap<ValueId, Inflight>,
    /// Orphan-recovery rounds this process is running on behalf of
    /// presumed-crashed initiators, by orphaned value id.
    orphans: BTreeMap<ValueId, OrphanRound>,
    /// Per-ring down-sets as the coordination service last reported
    /// them ([`Event::MembershipChange`]). Kept per ring — one global
    /// set would let a later event from ring B (whose down-list only
    /// covers B's members) silently overwrite ring A's verdict about a
    /// shared member. A process counts as crashed while *any* ring
    /// reports it down (`recovery::down_union`): crashed processes
    /// are excluded from the checkpoint prune floor, and their
    /// in-flight multi-group rounds are recovered without waiting for
    /// the orphan timeout.
    down: BTreeMap<RingId, BTreeSet<ProcessId>>,
    /// A restarted process whose [`AmcastEngine::resume`] has not run
    /// yet: its streams are held like resyncing ones, but no `Resync` is
    /// outstanding — the replay position is only known once the replica
    /// has chosen the checkpoint to recover from.
    awaiting_resume: bool,
    /// Rings with a live Δ heartbeat timer (avoids double-arming when a
    /// resigned ring is re-acquired before its old timer fired).
    delta_armed: BTreeSet<RingId>,
    /// Rings with a live retry timer.
    retry_armed: BTreeSet<RingId>,
    /// Per-proposer sequence numbers for [`ValueId`] assignment.
    next_seq: u64,
    /// Phase-level metrics and the protocol-event trace ring.
    tel: EngineTelemetry,
    /// Telemetry, like `tel` (and like it outside the state digest):
    /// the head key [`Self::drain`] last found blocked and when it first
    /// did, for `sub.frontier_wait_us` and the `"blocked_stream"` health
    /// issue.
    head_wait: Option<(Key, Time)>,
}

impl fmt::Debug for WbcastNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WbcastNode")
            .field("me", &self.me)
            .field("leads", &self.led.keys().collect::<Vec<_>>())
            .field("subscribes", &self.subs.keys().collect::<Vec<_>>())
            .finish_non_exhaustive()
    }
}

impl WbcastNode {
    /// Creates the engine for process `me` over `config`. The
    /// sequencer of each group is the coordinator of the group's ring;
    /// subscriptions are the config's learner subscriptions.
    pub fn new(me: ProcessId, config: ClusterConfig) -> Self {
        Self::build(me, config, false)
    }

    /// Creates the engine for a process **restarting after a crash**.
    ///
    /// Identical to [`WbcastNode::new`] except that the process does
    /// *not* assume the sequencer role for the rings it statically
    /// coordinates: its pre-crash ordering state (clock, undecided
    /// proposals, released history) died with it, and a replacement may
    /// have been elected while it was down. Until the coordination
    /// service confirms the role via `Event::CoordinatorChange` — which
    /// runtimes deliver right after the restart's `Event::Start` — the
    /// node neither orders submissions nor answers resyncs for those
    /// groups, so a post-resume [`AmcastEngine::resume`] request stays
    /// outstanding (and is re-issued to whoever the service names)
    /// instead of being answered from a spuriously empty history.
    ///
    /// Every subscribed stream also starts **held**, exactly as while a
    /// resync is outstanding: live frames that arrive before
    /// [`AmcastEngine::resume`] (a replica first asks its partition
    /// peers for a fresher checkpoint) buffer and advance frontiers, but
    /// nothing is delivered past the hole the crash left until the
    /// replay's terminator closes it.
    pub fn recovering(me: ProcessId, config: ClusterConfig) -> Self {
        Self::build(me, config, true)
    }

    fn build(me: ProcessId, config: ClusterConfig, recovering: bool) -> Self {
        let mut led = BTreeMap::new();
        let mut coordinators = BTreeMap::new();
        for (&group, &ring_id) in config.groups() {
            let ring = config.ring(ring_id).expect("validated config");
            coordinators.insert(ring_id, ring.coordinator());
            if !recovering && ring.coordinator() == me {
                let subscribers = config.subscribers_of(group);
                let delta_us = ring.tuning().delta_us;
                led.insert(
                    group,
                    Sequencer::new(ring_id, delta_us, 0, 1, None, subscribers),
                );
            }
        }
        let subs = config
            .subscriptions_of(me)
            .into_iter()
            .map(|g| {
                let sub = Subscription {
                    resyncing: recovering,
                    ..Subscription::default()
                };
                (g, sub)
            })
            .collect();
        Self {
            me,
            config,
            led,
            subs,
            coordinators,
            ring_epochs: BTreeMap::new(),
            observed: BTreeMap::new(),
            delivered_ids: BTreeMap::new(),
            inflight: BTreeMap::new(),
            orphans: BTreeMap::new(),
            down: BTreeMap::new(),
            awaiting_resume: recovering,
            delta_armed: BTreeSet::new(),
            retry_armed: BTreeSet::new(),
            next_seq: 0,
            tel: EngineTelemetry::default(),
            head_wait: None,
        }
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The timestamp frontier per subscribed group (inspection: equal
    /// frontiers on two subscribers of a group mean equal histories).
    pub fn horizons(&self) -> BTreeMap<GroupId, u64> {
        self.subs.iter().map(|(&g, s)| (g, s.frontier.0)).collect()
    }

    /// Dedup entries retained for deliveries at or below timestamp
    /// `ts`. After [`AmcastEngine::trim`] at a watermark whose smallest
    /// mark is `ts`, this is zero — the invariant the bounded-state
    /// regression tests assert.
    pub fn dedup_retained_at_or_below(&self, ts: u64) -> usize {
        self.delivered_ids.values().filter(|&&t| t <= ts).count()
    }

    /// Sequencer-side bookkeeping retained for the groups this process
    /// leads: `(decided-id entries, released-history entries)`. Both are
    /// pruned below the collective checkpoint watermark reported by the
    /// groups' subscribers.
    pub fn sequencer_footprint(&self) -> (usize, usize) {
        self.led.values().fold((0, 0), |(d, h), seq| {
            (d + seq.state.done.len(), h + seq.state.history.len())
        })
    }

    /// An FNV-1a fingerprint of the protocol-relevant state (see
    /// [`multiring_paxos::digest`]). The destructuring is exhaustive on
    /// purpose: a new field does not compile until it is hashed or named
    /// here as outside the digest.
    pub fn state_digest(&self) -> u64 {
        let Self {
            me,
            led,
            subs,
            coordinators,
            ring_epochs,
            observed,
            delivered_ids,
            inflight,
            orphans,
            down,
            awaiting_resume,
            delta_armed,
            retry_armed,
            next_seq,
            // Outside the digest: constant under exploration, and what
            // only observes — schedules that commute into the same
            // protocol state must fingerprint identically whatever they
            // counted on the way.
            config: _,
            tel: _,
            head_wait: _,
        } = self;
        let mut h = Fnv1a::new();
        // (Tuples implement `Hash` up to twelve fields.)
        (me, led, subs, coordinators, ring_epochs, observed).hash(&mut h);
        (delivered_ids, inflight, orphans, down).hash(&mut h);
        (awaiting_resume, delta_armed, retry_armed, next_seq).hash(&mut h);
        h.finish()
    }

    /// Resync replays that terminated with a truncation flag: the
    /// sequencer had discarded *retained* history below the requested
    /// position (capped retention, checkpoint pruning past a dead
    /// subscriber), so the stream was re-anchored past a potential
    /// delivery gap instead of silently claiming prefix-completeness.
    /// Deployments that require gapless recovery must treat a nonzero
    /// count as a failed recovery (re-seed the replica from a peer
    /// checkpoint). Note the flag covers retention-driven truncation
    /// only: a *replacement* sequencer answering from its necessarily
    /// empty history (the deposed incarnation's stream died with it) is
    /// the separate, documented remaining limitation that in-group
    /// history replication will close — it cannot be flagged off the
    /// takeover resume point, whose wall-clock component sits far above
    /// every real timestamp and would write off grace-window
    /// re-injections that other subscribers deliver.
    pub fn resync_truncations(&self) -> u64 {
        self.tel.registry.counter("sub.resync_truncations")
    }

    /// The node's live telemetry store (the module docs say where each
    /// metric is listed).
    pub fn tel(&self) -> &EngineTelemetry {
        &self.tel
    }

    /// The believed current sequencer of `group`: the coordinator the
    /// coordination service last announced for the group's ring.
    fn sequencer_of(&self, group: GroupId) -> Option<ProcessId> {
        let ring = self.config.ring_of_group(group)?;
        self.coordinators.get(&ring).copied()
    }

    /// Records a timestamp exposed for `group` (the takeover resume
    /// point: a new sequencer never assigns at or below it).
    fn note_observed(&mut self, group: GroupId, ts: u64) {
        let o = self.observed.entry(group).or_insert(0);
        *o = (*o).max(ts);
    }

    /// Records a sequencer epoch seen for `group`'s ring.
    fn note_epoch(&mut self, group: GroupId, epoch: u32) {
        if let Some(ring) = self.config.ring_of_group(group) {
            self.note_ring_epoch(ring, epoch);
        }
    }

    /// Records an epoch floor for `ring` (observed on a frame, or the
    /// coordination service's election round).
    fn note_ring_epoch(&mut self, ring: RingId, epoch: u32) {
        let e = self.ring_epochs.entry(ring).or_insert(0);
        *e = (*e).max(epoch);
    }

    /// Routes an engine message to a peer, or handles it inline when
    /// addressed to this process itself.
    fn route(&mut self, now: Time, to: ProcessId, msg: WbMessage, out: &mut Vec<Action>) {
        if to == self.me {
            self.on_wb_message(now, self.me, msg, out);
        } else {
            out.push(Action::Send {
                to,
                msg: msg.into_frame(),
            });
        }
    }

    /// Routes `msg` to the believed current sequencer of `group`.
    fn route_to_sequencer(
        &mut self,
        now: Time,
        group: GroupId,
        msg: WbMessage,
        out: &mut Vec<Action>,
    ) {
        if let Some(sequencer) = self.sequencer_of(group) {
            self.route(now, sequencer, msg, out);
        }
    }

    fn on_wb_message(&mut self, now: Time, from: ProcessId, msg: WbMessage, out: &mut Vec<Action>) {
        match msg {
            WbMessage::Submit {
                group,
                groups,
                value,
            } => self.on_submit(now, group, groups, value, out),
            WbMessage::ProposeAck { group, id, ts } => {
                self.on_propose_ack(now, group, id, ts, out);
            }
            WbMessage::Final { group, id, ts } => self.on_final(now, group, id, ts, false, out),
            WbMessage::FinalAck { group, id, ts } => self.on_final_ack(now, group, id, ts),
            WbMessage::Ordered {
                group,
                epoch,
                ts,
                groups,
                value,
            } => self.on_ordered(now, group, epoch, ts, groups, value, out),
            WbMessage::Heartbeat { group, epoch, ts } => {
                self.on_heartbeat(now, group, epoch, ts, out);
            }
            WbMessage::Probe { group, ts } => self.on_probe(now, group, ts, out),
            WbMessage::Resync { group, from_ts } => self.on_resync(now, from, group, from_ts, out),
            WbMessage::CkptMark { group, ts } => self.on_ckpt_mark(from, group, ts),
            WbMessage::ResyncDone {
                group,
                epoch,
                ts,
                gap_to,
            } => {
                self.on_resync_done(now, group, epoch, ts, gap_to, out);
            }
            WbMessage::OrphanQuery { group, id, attempt } => {
                self.on_orphan_query(now, from, group, id, attempt, out);
            }
            WbMessage::OrphanState {
                group,
                id,
                attempt,
                state,
            } => self.on_orphan_state(now, group, id, attempt, state, out),
            WbMessage::OrphanFinal { group, id, ts } => {
                self.on_final(now, group, id, ts, true, out);
            }
        }
    }

    /// Handles a client request arriving at this proposer, mirroring
    /// the ring engine: the command is framed with its client session
    /// so any subscriber can answer.
    fn on_request(
        &mut self,
        now: Time,
        client: ClientId,
        request: u64,
        groups: &[GroupId],
        payload: Bytes,
        out: &mut Vec<Action>,
    ) {
        let framed = encode_command(client, request, &payload);
        if let Ok((_, actions)) = AmcastEngine::multicast(self, now, groups, framed) {
            out.extend(actions);
        }
        // Not a proposer / unknown group: drop; the client retries
        // against a correct proposer (same policy as the ring engine).
    }

    fn dispatch_message(
        &mut self,
        now: Time,
        from: ProcessId,
        msg: Message,
        out: &mut Vec<Action>,
    ) {
        match msg {
            Message::Engine { engine, payload } if engine == WBCAST_WIRE_ID => {
                if let Some(wb) = WbMessage::parse(payload) {
                    self.on_wb_message(now, from, wb, out);
                }
            }
            Message::Batch(msgs) => {
                for m in msgs {
                    self.dispatch_message(now, from, m, out);
                }
            }
            Message::Request {
                client,
                request,
                groups,
                payload,
            } => self.on_request(now, client, request, &groups, payload, out),
            // Ring traffic, trim/checkpoint protocol and foreign engine
            // frames do not concern this engine.
            _ => {}
        }
    }

    fn on_start(&mut self, out: &mut Vec<Action>) {
        // One Δ timer per distinct ring this process sequences groups
        // of (several groups may share a ring), in ring order.
        let rings: BTreeMap<RingId, u64> = self
            .led
            .values()
            .map(|seq| (seq.ring, seq.delta_us))
            .collect();
        for (ring, delta_us) in rings {
            self.arm_delta(ring, delta_us, out);
        }
    }
}

impl StateMachine for WbcastNode {
    fn on_event(&mut self, now: Time, event: Event) -> Vec<Action> {
        let mut out = Vec::new();
        match event {
            Event::Start => self.on_start(&mut out),
            Event::Message { from, msg } => self.dispatch_message(now, from, msg, &mut out),
            Event::Timer(TimerKind::Delta(ring)) => self.heartbeat_tick(now, ring, &mut out),
            Event::Timer(TimerKind::ProposalResend(ring)) => self.retry_ring(now, ring, &mut out),
            Event::CoordinatorChange {
                ring,
                coordinator,
                supersedes,
            } => self.on_coordinator_change(now, ring, coordinator, supersedes, &mut out),
            Event::MembershipChange { ring, down } => {
                self.on_membership_change(now, ring, down, &mut out);
            }
            // The engine keeps no stable storage; other timers and
            // persistence completions are ring-engine concerns.
            Event::Timer(_) | Event::PersistDone(_) => {}
        }
        out
    }

    fn process_id(&self) -> ProcessId {
        self.me
    }
}

impl AmcastEngine for WbcastNode {
    fn multicast_batch(
        &mut self,
        now: Time,
        groups: &[GroupId],
        payloads: Vec<Bytes>,
    ) -> Result<(Vec<ValueId>, Vec<Action>), MulticastError> {
        WbcastNode::multicast_batch(self, now, groups, payloads)
    }

    fn engine_name(&self) -> &'static str {
        "wbcast"
    }

    fn state_digest(&self) -> u64 {
        WbcastNode::state_digest(self)
    }

    /// Locally submitted values addressed to at least one subscribed
    /// group that have not yet been delivered locally. Submissions to
    /// entirely foreign groups are tracked (and retried) until every
    /// addressed group confirms release, but are not counted here: no
    /// local delivery ever confirms them.
    fn backlog(&self) -> usize {
        self.inflight
            .values()
            .filter(|e| e.local && !e.delivered)
            .count()
    }

    fn watermark(&self) -> Watermark {
        WbcastNode::watermark(self)
    }

    fn checkpoint_state(&self) -> Bytes {
        WbcastNode::checkpoint_state(self)
    }

    fn install_checkpoint(&mut self, watermark: &Watermark, state: &Bytes) {
        WbcastNode::install_checkpoint(self, watermark, state);
    }

    fn trim(&mut self, now: Time, watermark: &Watermark) -> Vec<Action> {
        WbcastNode::trim(self, now, watermark)
    }

    fn resume(&mut self, now: Time) -> Vec<Action> {
        WbcastNode::resume(self, now)
    }

    /// The registry's counters and histograms, the trace ring, plus
    /// gauges computed from live state: initiator backlog and dedup
    /// footprint, sequencer queue depths and checkpoint prune-floor lag,
    /// subscriber buffer depth and resync holds (the gauge table in the
    /// module docs).
    fn telemetry(&self) -> TelemetrySnapshot {
        let mut snap =
            TelemetrySnapshot::from_telemetry(AmcastEngine::engine_name(self), &self.tel);
        snap.gauges
            .insert("backlog".into(), AmcastEngine::backlog(self) as u64);
        snap.gauges
            .insert("inflight".into(), self.inflight.len() as u64);
        snap.gauges
            .insert("dedup_records".into(), self.delivered_ids.len() as u64);
        snap.gauges
            .insert("orphan.rounds_open".into(), self.orphans.len() as u64);
        snap.gauges
            .insert("seq.groups_led".into(), self.led.len() as u64);
        let mut history = 0u64;
        let mut undecided = 0u64;
        let mut outq = 0u64;
        let mut prune_lag = 0u64;
        let mut max_epoch = 0u32;
        for seq in self.led.values() {
            history += seq.state.history.len() as u64;
            undecided += seq.state.pending.len() as u64;
            outq += seq.state.outq.len() as u64;
            if let Some((&(ts, _), _)) = seq.state.history.last_key_value() {
                prune_lag = prune_lag.max(ts.saturating_sub(seq.state.evicted));
            }
            max_epoch = max_epoch.max(seq.state.epoch);
        }
        snap.gauges.insert("seq.history_retained".into(), history);
        snap.gauges.insert("seq.undecided".into(), undecided);
        snap.gauges.insert("seq.outq_depth".into(), outq);
        snap.gauges.insert("seq.prune_floor_lag".into(), prune_lag);
        let mut pending = 0u64;
        let mut resyncing = 0u64;
        for sub in self.subs.values() {
            pending += sub.pending.len() as u64;
            resyncing += u64::from(sub.resyncing);
            max_epoch = max_epoch.max(sub.epoch);
        }
        snap.gauges.insert("sub.pending_depth".into(), pending);
        snap.gauges
            .insert("sub.resyncing_streams".into(), resyncing);
        snap.gauges.insert("max_epoch".into(), u64::from(max_epoch));
        snap
    }

    /// Flags, against `now`:
    ///
    /// * `"stalled_round"` — a locally submitted round unsettled for
    ///   longer than [`STALL_DELTAS`] heartbeat intervals of the slowest
    ///   ring (detail: µs waited);
    /// * `"frozen_prune_floor"` — a led group retaining more than
    ///   [`UNREPORTED_HISTORY_CAP`] released values even though every
    ///   live subscriber has reported a mark, i.e. some reported mark
    ///   stopped advancing (detail: retained entries);
    /// * `"held_deliveries"` — a subscribed stream holding deliveries
    ///   behind an outstanding resync (detail: buffered values);
    /// * `"blocked_stream"` — the next value to deliver has waited longer
    ///   than [`STALL_DELTAS`] heartbeat intervals for the named stream's
    ///   frontier to reach it: neither a probe nor a Δ heartbeat of that
    ///   group's sequencer has arrived (detail: µs waited).
    fn health(&self, now: Time) -> HealthReport {
        let mut report = HealthReport::healthy(now);
        let delta_us = self
            .config
            .rings()
            .values()
            .map(|r| r.tuning().delta_us)
            .max()
            .unwrap_or(1)
            .max(1);
        let threshold = STALL_DELTAS * delta_us;
        for entry in self.inflight.values() {
            let settled =
                entry.released.len() == entry.groups.len() && (!entry.local || entry.delivered);
            let waited = now.since(entry.submitted_at);
            if !settled && waited > threshold {
                report.issues.push(HealthIssue {
                    code: "stalled_round",
                    group: entry.groups.first().copied(),
                    detail: waited,
                });
            }
        }
        for (&g, seq) in &self.led {
            if seq.state.history.len() > UNREPORTED_HISTORY_CAP {
                report.issues.push(HealthIssue {
                    code: "frozen_prune_floor",
                    group: Some(g),
                    detail: seq.state.history.len() as u64,
                });
            }
        }
        for (&g, sub) in &self.subs {
            if sub.resyncing {
                report.issues.push(HealthIssue {
                    code: "held_deliveries",
                    group: Some(g),
                    detail: sub.pending.len() as u64,
                });
            }
        }
        if let (Some((key, since)), Some((head, g))) = (self.head_wait, self.head()) {
            let waited = now.since(since);
            if key == head && waited > threshold {
                if let Some(stream) = self.blocking_stream(head, g) {
                    report.issues.push(HealthIssue {
                        code: "blocked_stream",
                        group: Some(stream),
                        detail: waited,
                    });
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests;
