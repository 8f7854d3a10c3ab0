//! The group-local sequencer: the per-group clock, the undecided
//! proposals, the decided-but-gated queue, the released history and the
//! checkpoint reports — plus everything a process does *as* a group's
//! sequencer (timestamping submissions, applying final timestamps,
//! releasing the stream in key order, heartbeat promises — every Δ and
//! when a subscriber's `Probe` asks —, resync replays, pruning, takeover
//! and resignation).
//!
//! ## Sequencer failover
//!
//! A crashed sequencer must not stall the groups it ordered, nor the
//! multi-group rounds it participated in. Three mechanisms cooperate
//! (the failover protocol of *White-Box Atomic Multicast* (Gotsman et
//! al., DSN 2019), adapted to this engine's single-process sequencers):
//!
//! * **Takeover / resign.** On `Event::CoordinatorChange` the named
//!   process adopts the sequencer role for the ring's groups, resuming
//!   each group's clock at a safe point: past every key and promise it
//!   has *observed* for the group, and past the hybrid-clock floor.
//!   Frames carry a **sequencer epoch** (bumped per takeover) so
//!   subscribers re-anchor their frontier to the new stream and fence
//!   frames from deposed sequencers. The deposed process (if alive)
//!   drops its sequencer state. A fresh sequencer holds releases and
//!   promises for a short recovery window ([`TAKEOVER_GRACE_DELTAS`] ×
//!   Δ) so that recovered values — whose already-decided timestamps may
//!   be small — re-enter the stream *before* the frontier advances past
//!   them, keeping the released-in-key-order invariant.
//! * **Initiator retries.** Every local submission is tracked until
//!   each addressed group confirms release. Unconfirmed groups are
//!   probed with retransmitted `Submit`s every [`RETRY_DELTAS`](super::RETRY_DELTAS) × Δ,
//!   routed to the *current* sequencer; a `CoordinatorChange` voids
//!   acks obtained from the previous sequencer and re-runs the round
//!   immediately. Receivers deduplicate: a retransmitted `Submit` never
//!   gets a second timestamp (the pending proposal or decided value is
//!   re-acknowledged instead) and a duplicate `Final` is idempotent. A
//!   decided final timestamp is immutable — a post-failover re-proposal
//!   is answered by re-issuing the original `Final`.
//! * **Subscriber dedup.** Subscribers remember delivered value ids, so
//!   a value re-released by a new sequencer (because the initiator
//!   could not know the old one had already released it) is delivered
//!   exactly once; extra copies only advance frontiers.
//!
//! ## Metrics recorded here
//!
//! | counter | counts |
//! |---|---|
//! | `seq.proposals` | multi-group submissions given a proposal timestamp |
//! | `seq.ordered_single` | single-group submissions ordered on arrival |
//! | `seq.dedup_submits` | retransmitted `Submit`s re-acknowledged instead of re-timestamped |
//! | `seq.finals_applied` | proposals decided by a `Final` or `OrphanFinal` |
//! | `seq.fenced_final_drops` | initiator `Final`s dropped because recovery owns the round |
//! | `seq.released` | values released into a led group's ordered stream |
//! | `seq.history_evictions` | retained releases evicted by [`UNREPORTED_HISTORY_CAP`] |
//! | `seq.resync_replays` | `Resync` requests served |
//! | `seq.resync_frames_replayed` | `Ordered` frames retransmitted by those replays |
//! | `seq.ckpt_marks` | `CkptMark` reports received for a led group |
//! | `seq.probes_answered` | promises fanned out because a `Probe` asked for them — on arrival at an idle group, or right after the release that emptied a busy one (useful outcomes) |
//! | `seq.probes_redundant` | `Probe`s for a timestamp already promised: a second subscriber's, a link duplicate, or one a Δ tick or a release overtook (wasted attempts; `sub.probes_sent` − answered − redundant = lost, stale, or answered by the group's own releases) |
//! | `seq.takeovers` / `seq.resignations` | groups adopted / dropped on a coordinator change |
//!
//! Trace events: `seq.takeover` and `seq.resign` (detail: the epoch),
//! `resync.replay` (detail: the requested position).

use super::frontier::promise_key;
use super::recovery::down_union;
use super::wire::WbMessage;
use super::{Key, WbcastNode, TAKEOVER_GRACE_DELTAS, UNREPORTED_HISTORY_CAP};
use multiring_paxos::event::{Action, Message, TimerKind};
use multiring_paxos::types::{GroupId, ProcessId, RingId, Time, Value, ValueId};
use std::collections::{BTreeMap, BTreeSet};

/// A multi-group value whose final timestamp is still being agreed on
/// (held by the sequencer that proposed for it).
#[derive(Hash, Debug)]
pub(super) struct Proposal {
    /// The timestamp this sequencer proposed (the final one is ≥ it).
    pub(super) ts: u64,
    /// The value, emitted into the stream once decided.
    pub(super) value: Value,
    /// The full addressed group set γ.
    pub(super) groups: Vec<GroupId>,
    /// When the initiator last showed a sign of life for this round
    /// (the proposal's creation, a retransmitted `Submit`), or when the
    /// last orphan-recovery attempt for it started: the clock the
    /// [`ORPHAN_DELTAS`](super::ORPHAN_DELTAS) timeout runs against.
    pub(super) since: Time,
    /// Set once this sequencer has answered an [`WbMessage::OrphanQuery`]
    /// for the proposal: recovery owns the round from here on. A plain
    /// `Final` from the (possibly falsely-suspected, possibly
    /// stale-viewed) initiator is ignored — only an `OrphanFinal`
    /// decides — so the initiator and a recoverer that re-submitted
    /// after a sequencer failover can never split the round across two
    /// final timestamps by winning the race in different groups.
    /// Duplicate `Submit`s stop refreshing `since` for a fenced
    /// proposal, so if the recoverer dies the orphan timeout re-fires
    /// here no matter how lively the initiator's retries are.
    pub(super) fenced: bool,
}

/// The **replicable** part of a group's sequencer: the clock and the
/// maps that define the group's ordered stream, with nothing in it that
/// refers to the hosting process. This is the struct in-group
/// replication has to ship to the group's members (ROADMAP, carried
/// item) so that a replacement resumes exactly here, instead of at a
/// point reconstructed from what it happened to observe.
#[derive(Hash, Debug, Default)]
pub(super) struct SequencerState {
    /// Sequencer generation: 0 for the configured coordinator, bumped
    /// on every takeover. Stamped into `Ordered`/`Heartbeat` frames so
    /// subscribers can fence deposed sequencers.
    pub(super) epoch: u32,
    /// Next timestamp to assign (timestamps start at 1).
    pub(super) next_ts: u64,
    /// Undecided multi-group proposals, by value id.
    pub(super) pending: BTreeMap<ValueId, Proposal>,
    /// Decided values not yet released to the stream: a value keyed
    /// above an undecided proposal waits, because that proposal's final
    /// timestamp (≥ its proposed one) may still land below.
    pub(super) outq: BTreeMap<Key, (Value, Vec<GroupId>)>,
    /// Every value this sequencer has decided, id → final timestamp
    /// (single-group values decide at submission, multi-group at
    /// `Final`). Retransmission dedup: a duplicate `Submit` or `Final`
    /// is re-acknowledged from here instead of getting a second
    /// timestamp. Pruned below the collective checkpoint watermark
    /// (see [`WbMessage::CkptMark`]); grows only with the un-checkpointed
    /// window.
    pub(super) done: BTreeMap<ValueId, u64>,
    /// Released values retained to serve subscriber resyncs after a
    /// crash-restart ([`WbMessage::Resync`]): the group's ordered stream
    /// above the collective checkpoint watermark. Pruned together with
    /// `done` — this is the "retired backlog" a checkpoint lets the
    /// sequencer discard.
    pub(super) history: BTreeMap<Key, (Value, Vec<GroupId>)>,
    /// Highest released timestamp no longer in `history`: the retained
    /// stream's floor, raised by the [`UNREPORTED_HISTORY_CAP`]
    /// eviction and by checkpoint-authorized pruning. A resync from
    /// below it cannot be made prefix-complete, and its `ResyncDone`
    /// says so (`gap_to`) instead of silently claiming completeness.
    pub(super) evicted: u64,
    /// The latest durable checkpoint mark each subscriber reported
    /// (`CkptMark`). `done`/`history` are pruned below the minimum over
    /// the subscribers the coordination service considers *alive* once
    /// each of them has reported; a live subscriber that has never
    /// checkpointed keeps the full history available (it would resync
    /// from the very beginning). Subscribers reported crashed
    /// (`Event::MembershipChange`) are excluded so a permanent death
    /// no longer freezes the prune floor — if one nevertheless revives
    /// and resyncs from below the advanced floor, the replay signals
    /// the truncation (`gap_to`) instead of leaving a silent hole.
    pub(super) reported: BTreeMap<ProcessId, u64>,
}

/// A group's sequencer as hosted by the group's coordinator: the
/// replicable [`SequencerState`] plus what concerns only this host —
/// where the group's frames go and what this incarnation has already
/// said or is still holding back.
#[derive(Hash, Debug)]
pub(super) struct Sequencer {
    /// The ring whose Δ paces this group's heartbeats.
    pub(super) ring: RingId,
    /// Heartbeat interval, microseconds.
    pub(super) delta_us: u64,
    /// The group's subscribers, precomputed: the fan-out target of
    /// every `Ordered`/`Heartbeat`, resolved once instead of scanning
    /// the subscription map per message.
    pub(super) subscribers: Vec<ProcessId>,
    /// Highest promise already made (avoids redundant sends): by a
    /// heartbeat, or implied by releasing a value keyed above it.
    pub(super) promised: u64,
    /// Highest timestamp a subscriber has probed for
    /// ([`WbMessage::Probe`]). While it exceeds `promised`, a blocked
    /// subscriber is waiting on a promise that work in flight held
    /// back; the release of that work makes it, or is followed by it.
    pub(super) wanted: u64,
    /// While set, releases and heartbeat promises are held: the
    /// takeover recovery window, during which initiators re-inject
    /// values whose decided timestamps may sort below the new clock.
    pub(super) resume_at: Option<Time>,
    /// The group's clock and ordered stream.
    pub(super) state: SequencerState,
}

/// The shared time unit of the hybrid clocks, microseconds. Every
/// sequencer ticks in this fixed quantum — *not* in its ring's Δ — so
/// groups with different Δ advance their timestamps at the same rate.
/// Δ only paces how often the promise is *communicated* unasked
/// (heartbeats).
///
/// The rate is all they share: each clock reads its own process's
/// `now`, and over TCP every process counts from its own start. Nor
/// does the quantum bound cross-group release any more. A busy group's
/// count-driven timestamps can outrun an idle group's time-driven
/// promise, but the blocked subscriber then names the timestamp it
/// waits for (`Probe`) and the idle sequencer's clock jumps past it, as
/// it always has when that sequencer's process subscribes to the busy
/// group and observes the timestamp first-hand. One microsecond keeps
/// time-driven timestamps readable as "µs since the sequencer's process
/// started" at no cost: they are u64 and their magnitude carries no
/// meaning.
pub const CLOCK_QUANTUM_US: u64 = 1;

impl Sequencer {
    /// A sequencer of generation `epoch` whose first timestamp is
    /// `next_ts`, holding releases and promises until `resume_at`.
    pub(super) fn new(
        ring: RingId,
        delta_us: u64,
        epoch: u32,
        next_ts: u64,
        resume_at: Option<Time>,
        subscribers: Vec<ProcessId>,
    ) -> Self {
        Sequencer {
            ring,
            delta_us,
            subscribers,
            promised: 0,
            wanted: 0,
            resume_at,
            state: SequencerState {
                epoch,
                next_ts,
                ..SequencerState::default()
            },
        }
    }

    /// Advances the hybrid clock with elapsed time: future timestamps
    /// of this group always exceed `now / CLOCK_QUANTUM_US` — this
    /// process's `now`, so an idle group's promises keep rising between
    /// the timestamps it is told about.
    pub(super) fn bump_clock(&mut self, now: Time) {
        let floor = (now.as_micros() / CLOCK_QUANTUM_US).saturating_add(1);
        self.state.next_ts = self.state.next_ts.max(floor);
    }

    /// Lamport receive rule: the clock jumps past `ts`. Applied to the
    /// group's own final and released timestamps, and to every timestamp
    /// observed from another group — so a busy group's count-driven
    /// timestamps never outrun an idle co-located group's promises
    /// (which would cap the busy group's delivery rate at the
    /// time-based tick rate).
    ///
    /// `ts` may come straight off the wire, so the step saturates: a
    /// hostile `u64::MAX` pins the clock instead of wrapping it to zero
    /// (or panicking a debug build).
    fn observe(&mut self, ts: u64) {
        self.state.next_ts = self.state.next_ts.max(ts.saturating_add(1));
    }

    /// The smallest key an undecided proposal could still finalize at
    /// (its final timestamp is ≥ its proposed one, so keys strictly
    /// below this bound are settled).
    fn undecided_bound(&self) -> Option<Key> {
        self.state.pending.iter().map(|(&id, p)| (p.ts, id)).min()
    }

    /// Whether every subscriber of the group *not reported crashed* has
    /// reported a durable checkpoint mark at least once (the
    /// precondition for pruning the released history by the collective
    /// watermark; until then the history is bounded by
    /// [`UNREPORTED_HISTORY_CAP`] instead).
    fn all_reported(&self, down: &BTreeSet<ProcessId>) -> bool {
        let mut live = self.subscribers.iter().filter(|p| !down.contains(p));
        live.clone().count() > 0 && live.all(|p| self.state.reported.contains_key(p))
    }

    /// Prunes the decided-id map and released history once every live
    /// subscriber has reported a durable mark. Two floors cooperate:
    ///
    /// * The **hard floor** — the minimum over *every* reported mark,
    ///   crashed reporters included — is unconditionally prunable: each
    ///   reporter's own durable checkpoint covers it, so no resync ever
    ///   starts below its own mark.
    /// * Above that, the band up to the **live floor** (minimum over
    ///   the live subscribers only) is retained solely as a courtesy to
    ///   dead reporters that may yet revive and resync from their stale
    ///   mark. It is capped at [`UNREPORTED_HISTORY_CAP`] entries:
    ///   a short-downtime restart replays exactly, while a permanent
    ///   death no longer grows `history`/`done` without bound — the
    ///   effective floor advances past the dead reporter's mark, and a
    ///   late revival from below it gets a truncation-flagged replay
    ///   instead of a silent hole.
    pub(super) fn prune_below_collective_mark(&mut self, down: &BTreeSet<ProcessId>) {
        if !self.all_reported(down) {
            return;
        }
        let Some(live_floor) = self
            .subscribers
            .iter()
            .filter(|p| !down.contains(p))
            .map(|p| self.state.reported[p])
            .min()
        else {
            return;
        };
        // Every live subscriber has reported (checked above), so the
        // reported set is a non-empty superset of the live marks and
        // its minimum can only sit at or below the live floor.
        let hard_floor = *self
            .state
            .reported
            .values()
            .min()
            .expect("all_reported implies a non-empty reported set");
        if hard_floor > 0 {
            self.state.history.retain(|&(ts, _), _| ts > hard_floor);
            self.state.evicted = self.state.evicted.max(hard_floor);
        }
        let band: Vec<Key> = self
            .state
            .history
            .range(..=promise_key(live_floor))
            .map(|(&k, _)| k)
            .collect();
        if band.len() > UNREPORTED_HISTORY_CAP {
            let drop = band.len() - UNREPORTED_HISTORY_CAP;
            for key in &band[..drop] {
                self.state.history.remove(key);
            }
            self.state.evicted = self.state.evicted.max(band[drop - 1].0);
        }
        let evicted = self.state.evicted;
        self.state.done.retain(|_, fts| *fts > evicted);
    }

    /// The final timestamp `id` was decided at, if it was, and whether
    /// the value has since been released into the stream (a decided
    /// value gated behind earlier keys lives only in this sequencer's
    /// memory and is not yet confirmable).
    pub(super) fn decided(&self, id: ValueId) -> Option<(u64, bool)> {
        let fts = *self.state.done.get(&id)?;
        Some((fts, !self.state.outq.contains_key(&(fts, id))))
    }

    /// Encodes `msg` once and sends it to every subscriber of the group
    /// but `me` (`Message` clones share the payload); returns whether
    /// `me` subscribes too, in which case the caller handles the frame
    /// inline.
    fn fan_out(&self, me: ProcessId, msg: WbMessage, out: &mut Vec<Action>) -> bool {
        let frame = msg.into_frame();
        for &to in self.subscribers.iter().filter(|&&to| to != me) {
            out.push(Action::Send {
                to,
                msg: frame.clone(),
            });
        }
        self.subscribers.contains(&me)
    }

    /// The highest timestamp this sequencer may promise: everything
    /// below `next_ts`, capped by undecided proposals (their final
    /// timestamps may equal the proposal) and by unreleased decided
    /// values.
    fn safe_promise(&self) -> u64 {
        let mut promise = self.state.next_ts - 1;
        if let Some((ts, _)) = self.undecided_bound() {
            promise = promise.min(ts - 1);
        }
        if let Some((&(ts, _), _)) = self.state.outq.first_key_value() {
            promise = promise.min(ts - 1);
        }
        promise
    }
}

impl WbcastNode {
    /// Sequencer side: a submission for `group`, one of the addressed
    /// groups γ. Single-group values take their timestamp as final and
    /// enter the stream directly; multi-group values become undecided
    /// proposals reported back to the initiator. Retransmissions never
    /// get a second timestamp: a pending proposal is re-acknowledged
    /// and a decided value re-confirmed (once released).
    pub(super) fn on_submit(
        &mut self,
        now: Time,
        group: GroupId,
        groups: Vec<GroupId>,
        value: Value,
        out: &mut Vec<Action>,
    ) {
        let id = value.id;
        let (reply, release, mark) = {
            let Some(seq) = self.led.get_mut(&group) else {
                // Stale submission (this process no longer sequences the
                // group); the initiator re-routes on CoordinatorChange.
                return;
            };
            if let Some(p) = seq.state.pending.get_mut(&id) {
                // Duplicate of an undecided proposal: same timestamp.
                // The retransmission is a sign of life from the
                // initiator (or a recoverer), so the orphan clock
                // restarts — unless recovery already owns the round
                // (fenced): then only recovery's own attempts reset it,
                // so a lively-but-fenced initiator cannot postpone the
                // backstop forever.
                if !p.fenced {
                    p.since = now;
                }
                (
                    Some(WbMessage::ProposeAck {
                        group,
                        id,
                        ts: p.ts,
                    }),
                    false,
                    "seq.dedup_submits",
                )
            } else if let Some((fts, released)) = seq.decided(id) {
                // Already decided; confirm only once released (a gated
                // value confirms via flush_group when it releases).
                (
                    released.then_some(WbMessage::FinalAck { group, id, ts: fts }),
                    false,
                    "seq.dedup_submits",
                )
            } else {
                seq.bump_clock(now);
                let ts = seq.state.next_ts;
                seq.state.next_ts = ts.saturating_add(1);
                if groups.len() > 1 {
                    seq.state.pending.insert(
                        id,
                        Proposal {
                            ts,
                            value,
                            groups,
                            since: now,
                            fenced: false,
                        },
                    );
                    (
                        Some(WbMessage::ProposeAck { group, id, ts }),
                        false,
                        "seq.proposals",
                    )
                } else {
                    seq.state.done.insert(id, ts);
                    seq.state.outq.insert((ts, id), (value, groups));
                    (None, true, "seq.ordered_single")
                }
            }
        };
        self.tel.incr(mark, 1);
        if let Some(msg) = reply {
            self.route(now, id.proposer, msg, out);
        }
        if release {
            self.flush_group(now, group, out);
        }
    }

    /// Sequencer side: the final timestamp for an undecided proposal
    /// arrived; re-key the value at it and release what became settled.
    /// A duplicate `Final` is idempotent: re-confirm if released.
    /// `from_recovery` distinguishes an `OrphanFinal` from the
    /// initiator's own `Final`: once recovery has queried a pending
    /// proposal (fenced), only recovery may decide it — a
    /// falsely-suspected initiator racing the recoverer could otherwise
    /// win in one group while the recoverer (whose view may differ
    /// after a sequencer failover re-proposal) wins in another,
    /// splitting the round across two final timestamps.
    pub(super) fn on_final(
        &mut self,
        now: Time,
        group: GroupId,
        id: ValueId,
        fts: u64,
        from_recovery: bool,
        out: &mut Vec<Action>,
    ) {
        self.observe_ts(group, fts);
        if !from_recovery {
            let fenced = self
                .led
                .get(&group)
                .is_some_and(|seq| seq.state.pending.get(&id).is_some_and(|p| p.fenced));
            if fenced {
                // Recovery owns this round: the initiator's Final is
                // dropped (not even re-acknowledged), and its retries
                // settle once recovery releases the value.
                self.tel.incr("seq.fenced_final_drops", 1);
                return;
            }
            self.stand_down_undecided_recovery(id);
        }
        let (reack, decided) = {
            let Some(seq) = self.led.get_mut(&group) else {
                return;
            };
            match seq.state.pending.remove(&id) {
                Some(p) => {
                    // The final timestamp orders this group's future
                    // assignments after the value (Lamport receive rule
                    // on the group clock).
                    seq.observe(fts);
                    seq.state.done.insert(id, fts);
                    seq.state.outq.insert((fts, id), (p.value, p.groups));
                    (None, true)
                }
                None => (
                    seq.decided(id)
                        .and_then(|(done_ts, released)| released.then_some(done_ts)),
                    false,
                ),
            }
        };
        if decided {
            self.tel.incr("seq.finals_applied", 1);
        }
        if let Some(done_ts) = reack {
            self.route(
                now,
                id.proposer,
                WbMessage::FinalAck {
                    group,
                    id,
                    ts: done_ts,
                },
                out,
            );
            return;
        }
        self.flush_group(now, group, out);
    }

    /// Releases the settled prefix of a led group's stream: decided
    /// values strictly below every undecided proposal, fanned out to the
    /// subscribers in increasing `(ts, id)` order. The frame is encoded
    /// once and shared across subscribers (`Message` clones are cheap:
    /// the payload is a reference-counted `Bytes`).
    pub(super) fn flush_group(&mut self, now: Time, group: GroupId, out: &mut Vec<Action>) {
        loop {
            let Some(seq) = self.led.get_mut(&group) else {
                return;
            };
            // Takeover recovery window: hold the stream so values
            // re-injected by initiators (at their already-decided,
            // possibly small timestamps) sort in before release.
            if seq.resume_at.is_some_and(|t| now < t) {
                break;
            }
            let Some((&key, _)) = seq.state.outq.first_key_value() else {
                break;
            };
            if seq.undecided_bound().is_some_and(|bound| key > bound) {
                break;
            }
            let (value, groups) = seq.state.outq.remove(&key).expect("head key present");
            // Future assignments must key above everything released —
            // which makes the release itself a promise of everything
            // below its timestamp: no heartbeat need say so again. (A
            // decided key carries the `Final`'s wire-supplied timestamp,
            // zero included.)
            seq.observe(key.0);
            seq.promised = seq.promised.max(key.0.saturating_sub(1));
            // Retain the released value for subscriber resyncs; the
            // clones are cheap (`Bytes` payload) and the entry is
            // pruned once every subscriber's durable checkpoint
            // covers it — or, while some subscriber has never
            // checkpointed, bounded by the cap (best-effort resync
            // beats unbounded memory in never-checkpointing
            // deployments). The down-set union is built only on that
            // rare over-cap path, keeping the per-release fast path
            // allocation-free.
            seq.state
                .history
                .insert(key, (value.clone(), groups.clone()));
            if seq.state.history.len() > UNREPORTED_HISTORY_CAP
                && !seq.all_reported(&down_union(&self.down))
            {
                if let Some(((ts, _), _)) = seq.state.history.pop_first() {
                    // The retained stream's floor moved: a resync from
                    // below it can no longer be served prefix-complete,
                    // and must say so.
                    seq.state.evicted = seq.state.evicted.max(ts);
                    self.tel.incr("seq.history_evictions", 1);
                }
            }
            let (ts, epoch) = (key.0, seq.state.epoch);
            let ordered = WbMessage::Ordered {
                group,
                epoch,
                ts,
                groups: groups.clone(),
                value: value.clone(),
            };
            let local = seq.fan_out(self.me, ordered, out);
            self.tel.incr("seq.released", 1);
            // Release confirmation: the value is now in the group's
            // stream and can no longer be lost with this sequencer.
            let id = value.id;
            self.route(now, id.proposer, WbMessage::FinalAck { group, id, ts }, out);
            if local {
                self.on_ordered(now, group, epoch, ts, groups, value, out);
            }
        }
        // A probe may have been waiting for exactly this release.
        self.honour_probe(now, group, out);
    }

    /// Sequencer side: a subscriber's delivery is blocked on `group`'s
    /// frontier at timestamp `ts`. The clock jumps past `ts` (Lamport
    /// receive rule) and, the group being idle, the promise goes out
    /// now instead of at the next Δ tick — through
    /// [`Self::emit_heartbeats`], to every subscriber, so the other
    /// subscribers' probes for the same timestamp find it already made.
    pub(super) fn on_probe(&mut self, now: Time, group: GroupId, ts: u64, out: &mut Vec<Action>) {
        let Some(seq) = self.led.get_mut(&group) else {
            // Not this group's sequencer (anymore): whoever is covers
            // the subscriber with its Δ heartbeat.
            return;
        };
        if ts <= seq.promised {
            self.tel.incr("seq.probes_redundant", 1);
            return;
        }
        seq.observe(ts);
        seq.wanted = seq.wanted.max(ts);
        self.honour_probe(now, group, out);
    }

    /// Makes the promise a probe is waiting for, once the group has
    /// nothing in flight. While it has — an undecided proposal, a
    /// decided value gated behind one — the promise is either capped
    /// below the probed timestamp, or about to be overtaken by the
    /// release of that work, which says the same thing without a second
    /// fan-out: a busy stream carries its own frontier, only an idle one
    /// has to be asked. (Where every group is busy and the processors
    /// are saturated, heartbeats sent ahead of in-flight rounds are pure
    /// cost: each is one more frame for every subscriber to receive.)
    fn honour_probe(&mut self, now: Time, group: GroupId, out: &mut Vec<Action>) {
        let Some(seq) = self.led.get(&group) else {
            return;
        };
        let in_flight = !(seq.state.pending.is_empty() && seq.state.outq.is_empty());
        if seq.wanted <= seq.promised || in_flight {
            return;
        }
        self.emit_heartbeats(now, &[group], out);
        // Unless a takeover hold made `emit_heartbeats` sit this out.
        if self.led.get(&group).is_some_and(|s| s.wanted <= s.promised) {
            self.tel.incr("seq.probes_answered", 1);
        }
    }

    /// A frame exposed timestamp `ts` of `from_group`'s clock. It feeds
    /// the takeover resume point for that group, and — Lamport receive
    /// rule over every sequencer this process hosts — drags the local
    /// clocks of the *other* groups past it (see [`Sequencer::observe`]).
    pub(super) fn observe_ts(&mut self, from_group: GroupId, ts: u64) {
        self.note_observed(from_group, ts);
        for (&g, seq) in &mut self.led {
            if g != from_group {
                seq.observe(ts);
            }
        }
    }

    /// Sequencer side: a subscriber restarted from a checkpoint whose
    /// delivery mark for this group is `from_ts` — replay the retained
    /// released stream above it (in key order; the per-channel FIFO
    /// guarantee then keeps subsequent live releases behind the replay)
    /// and re-anchor the requester's frontier with the current promise.
    pub(super) fn on_resync(
        &mut self,
        now: Time,
        from: ProcessId,
        group: GroupId,
        from_ts: u64,
        out: &mut Vec<Action>,
    ) {
        let Some(seq) = self.led.get(&group) else {
            // Not this group's sequencer (anymore): the restarted
            // subscriber re-anchors to whatever the current sequencer
            // streams; values only the deposed incarnation held are
            // re-run by their initiators' retries.
            return;
        };
        let mut frames: Vec<Message> = seq
            .state
            .history
            .range((
                std::ops::Bound::Excluded(promise_key(from_ts)),
                std::ops::Bound::Unbounded,
            ))
            .map(|(&(ts, _), (value, groups))| {
                WbMessage::Ordered {
                    group,
                    epoch: seq.state.epoch,
                    ts,
                    groups: groups.clone(),
                    value: value.clone(),
                }
                .into_frame()
            })
            .collect();
        // The replay terminator: releases the requester's delivery hold
        // and republishes the current promise over the same channel, so
        // its frontier is prefix-complete from here on. When the
        // request starts below the retained history's floor (capped
        // eviction, checkpoint pruning past a dead subscriber), the
        // replay is truncated and the terminator says so — the
        // requester must re-anchor past the hole, not claim a complete
        // prefix it never received.
        let gap_to = if from_ts < seq.state.evicted {
            seq.state.evicted
        } else {
            0
        };
        frames.push(
            WbMessage::ResyncDone {
                group,
                epoch: seq.state.epoch,
                ts: seq.promised,
                gap_to,
            }
            .into_frame(),
        );
        self.tel.incr("seq.resync_replays", 1);
        self.tel
            .incr("seq.resync_frames_replayed", frames.len() as u64 - 1);
        self.tel.trace(now, "resync.replay", Some(group), from_ts);
        if from == self.me {
            // A sequencer that also subscribes resyncs against itself
            // (only meaningful when its own state survived, i.e. never
            // after a real crash — then history is empty anyway).
            for frame in frames {
                self.dispatch_message(now, self.me, frame, out);
            }
        } else {
            out.extend(frames.into_iter().map(|msg| Action::Send { to: from, msg }));
        }
    }

    /// Sequencer side: a subscriber's durable checkpoint covers `group`
    /// up to `ts`. Once every live subscriber has reported, protocol
    /// state below the minimum mark is unreachable — no retry can
    /// resurrect it (initiators stop at `FinalAck`) and no live
    /// subscriber resyncs below its own durable checkpoint — so the
    /// decided-id map and the released history are pruned to the
    /// un-checkpointed window. Subscribers the coordination service
    /// reports crashed are dropped from the minimum (their last mark
    /// would otherwise freeze the floor forever); if one revives, its
    /// below-floor resync is answered with an explicit truncation.
    pub(super) fn on_ckpt_mark(&mut self, from: ProcessId, group: GroupId, ts: u64) {
        let down = down_union(&self.down);
        let Some(seq) = self.led.get_mut(&group) else {
            return;
        };
        let mark = seq.state.reported.entry(from).or_insert(0);
        *mark = (*mark).max(ts);
        seq.prune_below_collective_mark(&down);
        self.tel.incr("seq.ckpt_marks", 1);
    }

    /// Emits fresh heartbeat promises for `groups`, the led groups of
    /// one ring (skipping groups still inside their takeover recovery
    /// window, whose windows end lazily here).
    fn emit_heartbeats(&mut self, now: Time, groups: &[GroupId], out: &mut Vec<Action>) {
        for &group in groups {
            let seq = self.led.get_mut(&group).expect("led group");
            if seq.resume_at.is_some_and(|t| now < t) {
                continue;
            }
            seq.resume_at = None;
            seq.bump_clock(now);
            let ts = seq.safe_promise();
            if ts <= seq.promised {
                continue;
            }
            seq.promised = ts;
            let epoch = seq.state.epoch;
            if seq.fan_out(self.me, WbMessage::Heartbeat { group, epoch, ts }, out) {
                self.on_heartbeat(now, group, epoch, ts, out);
            }
        }
    }

    /// Arms `ring`'s Δ heartbeat timer unless one is already live —
    /// exactly one per ring, regardless of how many led groups share
    /// it: runtimes do not dedupe timers, so one `SetTimer` per group
    /// would multiply live timers every Δ.
    pub(super) fn arm_delta(&mut self, ring: RingId, delta_us: u64, out: &mut Vec<Action>) {
        if self.delta_armed.insert(ring) {
            out.push(Action::SetTimer {
                after_us: delta_us.max(1),
                timer: TimerKind::Delta(ring),
            });
        }
    }

    pub(super) fn heartbeat_tick(&mut self, now: Time, ring: RingId, out: &mut Vec<Action>) {
        // The timer that fired is spent. If this process resigned the
        // ring between arming and firing, it simply lapses.
        self.delta_armed.remove(&ring);
        let groups: Vec<GroupId> = self
            .led
            .iter()
            .filter(|(_, s)| s.ring == ring)
            .map(|(&g, _)| g)
            .collect();
        let Some(first) = groups.first() else {
            return;
        };
        let delta_us = self.led[first].delta_us;
        // Release anything a just-ended recovery window was holding
        // before promising past it.
        for &g in &groups {
            self.flush_group(now, g, out);
        }
        // Initiator liveness backstop: proposals whose initiator went
        // silent are recovered, and outstanding recovery rounds that
        // stopped making progress (a decision frame died with a crashed
        // sequencer) are re-driven, before the next promise round (the
        // promise is capped by pending proposals anyway).
        self.scan_orphans(now, ring, out);
        self.reprobe_orphan_rounds(now, delta_us, out);
        self.emit_heartbeats(now, &groups, out);
        self.arm_delta(ring, delta_us, out);
    }

    /// Takeover: this process was named coordinator of `ring` and adopts
    /// the sequencer role for those of the ring's `groups` it does not
    /// lead yet, one epoch above everything known for the ring. Each
    /// clock resumes past everything the previous sequencer is known to
    /// have exposed and past the hybrid-clock floor (which covers
    /// unobserved assignments as long as the election outlasts
    /// count-driven skew). A fresh sequencer has no released history to
    /// serve: subscribers that crash while this incarnation leads can
    /// only resync values it released itself (replicating
    /// [`SequencerState`] inside the group is what closes that).
    pub(super) fn take_over(
        &mut self,
        now: Time,
        ring: RingId,
        groups: &[GroupId],
        out: &mut Vec<Action>,
    ) {
        let fresh: Vec<GroupId> = groups
            .iter()
            .copied()
            .filter(|g| !self.led.contains_key(g))
            .collect();
        if fresh.is_empty() {
            return;
        }
        let Some(ringcfg) = self.config.ring(ring) else {
            return;
        };
        let delta_us = ringcfg.tuning().delta_us;
        let epoch = self.ring_epochs.get(&ring).copied().unwrap_or(0) + 1;
        self.ring_epochs.insert(ring, epoch);
        let resume_at = now.plus((delta_us * TAKEOVER_GRACE_DELTAS).max(1));
        for g in fresh {
            let mut seq = Sequencer::new(
                ring,
                delta_us,
                epoch,
                self.observed
                    .get(&g)
                    .copied()
                    .unwrap_or(0)
                    .saturating_add(1),
                Some(resume_at),
                self.config.subscribers_of(g),
            );
            seq.bump_clock(now);
            self.led.insert(g, seq);
            self.tel.incr("seq.takeovers", 1);
            self.tel
                .trace(now, "seq.takeover", Some(g), u64::from(epoch));
        }
        self.arm_delta(ring, delta_us, out);
    }

    /// Resignation: another process was named coordinator, so any
    /// sequencer state held for `groups` is dropped — the initiators'
    /// retries re-run undelivered `pending`/`outq` rounds against the
    /// new sequencer.
    pub(super) fn resign(&mut self, now: Time, groups: &[GroupId]) {
        for &g in groups {
            if let Some(seq) = self.led.remove(&g) {
                // Fold the resigned clock into the observation record
                // so a later re-takeover resumes above everything this
                // incarnation assigned or promised.
                let top = seq.state.next_ts.saturating_sub(1).max(seq.promised);
                self.note_observed(g, top);
                self.tel.incr("seq.resignations", 1);
                self.tel
                    .trace(now, "seq.resign", Some(g), u64::from(seq.state.epoch));
            }
        }
    }
}
