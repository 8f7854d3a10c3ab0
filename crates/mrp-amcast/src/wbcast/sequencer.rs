//! The group-local sequencer: the per-group clock, the undecided
//! proposals, the decided-but-gated queue, the released history and the
//! checkpoint reports — plus everything a process does *as* a group's
//! sequencer (timestamping submissions, applying final timestamps,
//! releasing the stream in key order, heartbeat promises, resync
//! replays, pruning, takeover and resignation).
//!
//! ## Sequencer failover
//!
//! A crashed sequencer must not stall the groups it ordered, nor the
//! multi-group rounds it participated in. Three mechanisms cooperate
//! (the failover protocol of *White-Box Atomic Multicast* (Gotsman et
//! al., DSN 2019), adapted to this engine's single-process sequencers):
//!
//! * **Takeover / resign.** On [`Event::CoordinatorChange`] the named
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
//!   probed with retransmitted `Submit`s every [`RETRY_DELTAS`] × Δ,
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

use super::frontier::promise_key;
use super::wire::WbMessage;
use super::{Key, WbcastNode, UNREPORTED_HISTORY_CAP};
use multiring_paxos::event::{Action, Message, TimerKind};
use multiring_paxos::types::{GroupId, ProcessId, RingId, Time, Value, ValueId};
use std::collections::{BTreeMap, BTreeSet};

/// A multi-group value whose final timestamp is still being agreed on
/// (held by the sequencer that proposed for it).
#[derive(Debug)]
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
    /// [`ORPHAN_DELTAS`] timeout runs against.
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

/// Per-group sequencer state (held by the group's coordinator).
#[derive(Debug)]
pub(super) struct Sequencer {
    /// The ring whose Δ paces this group's heartbeats.
    pub(super) ring: RingId,
    /// Heartbeat interval, microseconds.
    pub(super) delta_us: u64,
    /// Sequencer generation: 0 for the configured coordinator, bumped
    /// on every takeover. Stamped into `Ordered`/`Heartbeat` frames so
    /// subscribers can fence deposed sequencers.
    pub(super) epoch: u32,
    /// Next timestamp to assign (timestamps start at 1).
    pub(super) next_ts: u64,
    /// Highest promise already heartbeated (avoids redundant sends).
    pub(super) promised: u64,
    /// While set, releases and heartbeat promises are held: the
    /// takeover recovery window, during which initiators re-inject
    /// values whose decided timestamps may sort below the new clock.
    pub(super) resume_at: Option<Time>,
    /// The group's subscribers, precomputed: the fan-out target of
    /// every `Ordered`/`Heartbeat`, resolved once instead of scanning
    /// the subscription map per message.
    pub(super) subscribers: Vec<ProcessId>,
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
    /// ([`Event::MembershipChange`]) are excluded so a permanent death
    /// no longer freezes the prune floor — if one nevertheless revives
    /// and resyncs from below the advanced floor, the replay signals
    /// the truncation (`gap_to`) instead of leaving a silent hole.
    pub(super) reported: BTreeMap<ProcessId, u64>,
}

/// The shared time unit of the hybrid clocks, microseconds. Every
/// sequencer ticks in this fixed quantum — *not* in its ring's Δ —
/// so groups with different Δ still advance their timestamps at the
/// same wall-clock rate and no subscriber's delivery of one group can
/// lag another group's clock without bound. Δ only paces how often
/// the promise is *communicated* (heartbeats).
///
/// The quantum also bounds cross-group release: when a busy group's
/// count-driven timestamps outrun an idle group's time-driven promise,
/// the busy group's deliveries at shared subscribers drain at most
/// `1 / CLOCK_QUANTUM_US` values per second (the sequencer's Lamport
/// receive rule lifts this cap entirely when the idle sequencer's process also
/// subscribes to the busy group). One microsecond puts that floor at
/// 10⁶ values/s/group — above any workload this simulator drives — at
/// no cost: timestamps are u64 and their magnitude carries no meaning.
pub const CLOCK_QUANTUM_US: u64 = 1;

impl Sequencer {
    /// Advances the hybrid clock with elapsed time: future timestamps
    /// of this group always exceed `now / CLOCK_QUANTUM_US`, keeping
    /// independent groups loosely aligned so no group waits long on
    /// another.
    pub(super) fn bump_clock(&mut self, now: Time) {
        let floor = now.as_micros() / CLOCK_QUANTUM_US + 1;
        self.next_ts = self.next_ts.max(floor);
    }

    /// Lamport receive rule: a sequencer that observes another group's
    /// timestamp jumps its own clock past it, so a busy group's
    /// count-driven timestamps never outrun an idle co-located group's
    /// promises (which would cap the busy group's delivery rate at the
    /// time-based tick rate).
    fn observe(&mut self, ts: u64) {
        self.next_ts = self.next_ts.max(ts + 1);
    }

    /// The smallest key an undecided proposal could still finalize at
    /// (its final timestamp is ≥ its proposed one, so keys strictly
    /// below this bound are settled).
    fn undecided_bound(&self) -> Option<Key> {
        self.pending.iter().map(|(&id, p)| (p.ts, id)).min()
    }

    /// Whether every subscriber of the group *not reported crashed* has
    /// reported a durable checkpoint mark at least once (the
    /// precondition for pruning the released history by the collective
    /// watermark; until then the history is bounded by
    /// [`UNREPORTED_HISTORY_CAP`] instead).
    fn all_reported(&self, down: &BTreeSet<ProcessId>) -> bool {
        let mut live = self.subscribers.iter().filter(|p| !down.contains(p));
        live.clone().count() > 0 && live.all(|p| self.reported.contains_key(p))
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
            .map(|p| self.reported[p])
            .min()
        else {
            return;
        };
        // Every live subscriber has reported (checked above), so the
        // reported set is a non-empty superset of the live marks and
        // its minimum can only sit at or below the live floor.
        let hard_floor = *self
            .reported
            .values()
            .min()
            .expect("all_reported implies a non-empty reported set");
        if hard_floor > 0 {
            self.history.retain(|&(ts, _), _| ts > hard_floor);
            self.evicted = self.evicted.max(hard_floor);
        }
        let band: Vec<Key> = self
            .history
            .range(..=promise_key(live_floor))
            .map(|(&k, _)| k)
            .collect();
        if band.len() > UNREPORTED_HISTORY_CAP {
            let drop = band.len() - UNREPORTED_HISTORY_CAP;
            for key in &band[..drop] {
                self.history.remove(key);
            }
            self.evicted = self.evicted.max(band[drop - 1].0);
        }
        let evicted = self.evicted;
        self.done.retain(|_, fts| *fts > evicted);
    }

    /// The highest timestamp this sequencer may promise: everything
    /// below `next_ts`, capped by undecided proposals (their final
    /// timestamps may equal the proposal) and by unreleased decided
    /// values.
    fn safe_promise(&self) -> u64 {
        let mut promise = self.next_ts - 1;
        if let Some((ts, _)) = self.undecided_bound() {
            promise = promise.min(ts - 1);
        }
        if let Some((&(ts, _), _)) = self.outq.first_key_value() {
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
            if let Some(p) = seq.pending.get_mut(&id) {
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
            } else if let Some(&fts) = seq.done.get(&id) {
                // Already decided; confirm only once released (a gated
                // value confirms via flush_group when it releases).
                let released = !seq.outq.contains_key(&(fts, id));
                (
                    released.then_some(WbMessage::FinalAck { group, id, ts: fts }),
                    false,
                    "seq.dedup_submits",
                )
            } else {
                seq.bump_clock(now);
                let ts = seq.next_ts;
                seq.next_ts += 1;
                if groups.len() > 1 {
                    seq.pending.insert(
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
                    seq.done.insert(id, ts);
                    seq.outq.insert((ts, id), (value, groups));
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
        self.note_observed(group, fts);
        self.observe_ts(group, fts);
        if !from_recovery
            && self
                .led
                .get(&group)
                .is_some_and(|seq| seq.pending.get(&id).is_some_and(|p| p.fenced))
        {
            // Recovery owns this round: the initiator's Final is
            // dropped (not even re-acknowledged), and its retries
            // settle once recovery releases the value.
            self.tel.incr("seq.fenced_final_drops", 1);
            return;
        }
        if !from_recovery && self.orphans.get(&id).is_some_and(|r| r.decided.is_none()) {
            // The live initiator is driving this round (it retries
            // until release-time FinalAcks) and recovery has not
            // decided anything yet: stand down. A round recovery
            // already *decided* stays tracked through release
            // confirmation — the initiator may crash again before
            // re-driving a group whose sequencer lost the decision,
            // and only this round's re-probe would re-detect that
            // (the group's replacement holds no pending proposal for
            // the scan to fire on). A recovery decision (`OrphanFinal`)
            // never stands a round down either.
            self.orphans.remove(&id);
        }
        let (reack, decided) = {
            let Some(seq) = self.led.get_mut(&group) else {
                return;
            };
            match seq.pending.remove(&id) {
                Some(p) => {
                    // The final timestamp orders this group's future
                    // assignments after the value (Lamport receive rule
                    // on the group clock).
                    seq.next_ts = seq.next_ts.max(fts + 1);
                    seq.done.insert(id, fts);
                    seq.outq.insert((fts, id), (p.value, p.groups));
                    (None, true)
                }
                None => (
                    seq.done
                        .get(&id)
                        .copied()
                        .filter(|&done_ts| !seq.outq.contains_key(&(done_ts, id))),
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
        let me = self.me;
        loop {
            let released = {
                let Some(seq) = self.led.get_mut(&group) else {
                    return;
                };
                // Takeover recovery window: hold the stream so values
                // re-injected by initiators (at their already-decided,
                // possibly small timestamps) sort in before release.
                if seq.resume_at.is_some_and(|t| now < t) {
                    return;
                }
                let Some((&key, _)) = seq.outq.first_key_value() else {
                    return;
                };
                if seq.undecided_bound().is_some_and(|bound| key > bound) {
                    return;
                }
                let (value, groups) = seq.outq.remove(&key).expect("head key present");
                // Future assignments must key above everything released.
                seq.next_ts = seq.next_ts.max(key.0 + 1);
                // Retain the released value for subscriber resyncs; the
                // clones are cheap (`Bytes` payload) and the entry is
                // pruned once every subscriber's durable checkpoint
                // covers it — or, while some subscriber has never
                // checkpointed, bounded by the cap (best-effort resync
                // beats unbounded memory in never-checkpointing
                // deployments).
                seq.history.insert(key, (value.clone(), groups.clone()));
                let mut evictions = 0u64;
                if seq.history.len() > UNREPORTED_HISTORY_CAP {
                    // The union is built only on this rare over-cap
                    // path (never-checkpointing deployments), keeping
                    // the per-release fast path allocation-free.
                    let down: BTreeSet<ProcessId> = self.down.values().flatten().copied().collect();
                    if !seq.all_reported(&down) {
                        if let Some(((ts, _), _)) = seq.history.pop_first() {
                            // The retained stream's floor moved: a
                            // resync from below it can no longer be
                            // served prefix-complete, and must say so.
                            seq.evicted = seq.evicted.max(ts);
                            evictions = 1;
                        }
                    }
                }
                let frame = WbMessage::Ordered {
                    group,
                    epoch: seq.epoch,
                    ts: key.0,
                    groups: groups.clone(),
                    value: value.clone(),
                }
                .into_frame();
                let mut local = false;
                for &to in &seq.subscribers {
                    if to == me {
                        local = true;
                    } else {
                        out.push(Action::Send {
                            to,
                            msg: frame.clone(),
                        });
                    }
                }
                (key.0, seq.epoch, groups, value, local, evictions)
            };
            let (ts, epoch, groups, value, local, evictions) = released;
            self.tel.incr("seq.released", 1);
            if evictions > 0 {
                self.tel.incr("seq.history_evictions", evictions);
            }
            // Release confirmation: the value is now in the group's
            // stream and can no longer be lost with this sequencer.
            self.route(
                now,
                value.id.proposer,
                WbMessage::FinalAck {
                    group,
                    id: value.id,
                    ts,
                },
                out,
            );
            if local {
                self.on_ordered(now, group, epoch, ts, groups, value, out);
            }
        }
    }

    /// Lamport receive rule over every sequencer this process hosts:
    /// any timestamp observed from another group drags the local
    /// clocks past it (see [`Sequencer::observe`]).
    pub(super) fn observe_ts(&mut self, from_group: GroupId, ts: u64) {
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
            .history
            .range((
                std::ops::Bound::Excluded(promise_key(from_ts)),
                std::ops::Bound::Unbounded,
            ))
            .map(|(&(ts, _), (value, groups))| {
                WbMessage::Ordered {
                    group,
                    epoch: seq.epoch,
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
        let gap_to = if from_ts < seq.evicted {
            seq.evicted
        } else {
            0
        };
        frames.push(
            WbMessage::ResyncDone {
                group,
                epoch: seq.epoch,
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
        let down = self.down_union();
        let Some(seq) = self.led.get_mut(&group) else {
            return;
        };
        let mark = seq.reported.entry(from).or_insert(0);
        *mark = (*mark).max(ts);
        seq.prune_below_collective_mark(&down);
        self.tel.incr("seq.ckpt_marks", 1);
    }

    /// Emits fresh heartbeat promises for the led groups of `ring`
    /// (skipping groups still inside their takeover recovery window,
    /// whose windows end lazily here).
    fn emit_heartbeats(&mut self, now: Time, ring: RingId, out: &mut Vec<Action>) {
        let groups: Vec<GroupId> = self
            .led
            .iter()
            .filter(|(_, s)| s.ring == ring)
            .map(|(&g, _)| g)
            .collect();
        let me = self.me;
        for group in groups {
            let (promise, epoch, heartbeat_locally) = {
                let seq = self.led.get_mut(&group).expect("led group");
                if seq.resume_at.is_some_and(|t| now < t) {
                    continue;
                }
                seq.resume_at = None;
                seq.bump_clock(now);
                let promise = seq.safe_promise();
                if promise <= seq.promised {
                    continue;
                }
                seq.promised = promise;
                let frame = WbMessage::Heartbeat {
                    group,
                    epoch: seq.epoch,
                    ts: promise,
                }
                .into_frame();
                let mut heartbeat_locally = false;
                for &to in &seq.subscribers {
                    if to == me {
                        heartbeat_locally = true;
                    } else {
                        out.push(Action::Send {
                            to,
                            msg: frame.clone(),
                        });
                    }
                }
                (promise, seq.epoch, heartbeat_locally)
            };
            if heartbeat_locally {
                self.on_heartbeat(now, group, epoch, promise, out);
            }
        }
    }

    pub(super) fn heartbeat_tick(&mut self, now: Time, ring: RingId, out: &mut Vec<Action>) {
        let groups: Vec<GroupId> = self
            .led
            .iter()
            .filter(|(_, s)| s.ring == ring)
            .map(|(&g, _)| g)
            .collect();
        if groups.is_empty() {
            // Resigned between arming and firing: let the timer lapse.
            self.delta_armed.remove(&ring);
            return;
        }
        let delta_us = self.led[&groups[0]].delta_us;
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
        self.emit_heartbeats(now, ring, out);
        // Exactly one re-arm per ring, regardless of how many led
        // groups share it: runtimes do not dedupe timers, so one
        // SetTimer per group would multiply live timers every Δ.
        out.push(Action::SetTimer {
            after_us: delta_us.max(1),
            timer: TimerKind::Delta(ring),
        });
    }
}
