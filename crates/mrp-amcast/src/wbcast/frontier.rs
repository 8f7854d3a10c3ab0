//! The subscriber's delivery frontier: per subscribed group a
//! [`Subscription`] buffers `Ordered` values and tracks how far the
//! group's stream has been observed; values are delivered in global
//! `(timestamp, id)` order once every other stream's frontier has passed
//! them. Also the subscriber half of the checkpoint surface: watermark,
//! checkpoint state, install, trim and resume.
//!
//! ## Checkpointing, resync and bounded state
//!
//! The engine implements the generic checkpoint/trim surface of
//! [`AmcastEngine`](crate::AmcastEngine) (see the crate docs), which both bounds the
//! protocol's per-key bookkeeping and gives crashed subscribers an
//! exact rejoin path:
//!
//! * **Watermark.** Per subscribed group, the *delivery mark*: the
//!   largest timestamp whose whole prefix has been delivered locally
//!   (the frontier, capped below any still-pending value and excluding
//!   a possibly-tied boundary timestamp). The engine's
//!   `checkpoint_state` adds the residual delivered-id records above
//!   the marks plus the local id-sequence floor, making restores exact
//!   even at timestamp ties.
//! * **Resync.** A restarted subscriber installs its latest durable
//!   checkpoint and asks each subscribed group's sequencer to replay
//!   its released stream above the restored mark (`Resync`: the
//!   sequencer retains every released value above the collective
//!   checkpoint watermark exactly for this). Deliveries stay
//!   **held** until the replay's `ResyncDone` terminator arrives: live
//!   frames received before the replay advance frontiers past keys the
//!   replay still carries, so only the terminator restores the
//!   frontier's "nothing smaller can arrive" meaning — this is what
//!   makes the recovered delivery sequence byte-identical to the
//!   survivors', not merely the same set.
//! * **Trim.** After a checkpoint becomes durable, the subscriber
//!   prunes its delivered-id dedup below the watermark and reports the
//!   marks (`CkptMark`) to the sequencers, which prune their decided-id
//!   maps and released history below the *minimum over the live
//!   subscribers* — conservative (no quorum), so any live subscriber
//!   can still resync from its own latest durable checkpoint.
//!   Subscribers the coordination service reports crashed are dropped
//!   from the minimum, so one permanent death does not freeze the
//!   floor and grow sequencer state forever.
//! * **Truncation is loud.** Whenever a sequencer's retained history
//!   no longer reaches back to a resync's requested position — the
//!   [`UNREPORTED_HISTORY_CAP`](super::UNREPORTED_HISTORY_CAP) eviction in never-checkpointing
//!   deployments, or pruning that advanced past a dead subscriber's
//!   stale mark before it revived — the replay terminator carries the
//!   gap's extent, and the recovering subscriber **re-anchors past the
//!   hole** and counts the event
//!   ([`WbcastNode::resync_truncations`]) instead of delivering a
//!   gapped stream behind a terminator that claims completeness.
//!
//! ## `Probe`: asking for the promise delivery waits on
//!
//! **`Probe { group: h, ts }`** — sent by a subscriber to the sequencer
//! of `h`.
//!
//! - `group`: the subscribed stream whose frontier is behind
//! - `ts`: the timestamp of the value that cannot be delivered
//!
//! Sent from [`WbcastNode::drain`] when the smallest buffered key
//! `(ts, id)` is held back by `h`'s frontier: once per stream and
//! blocked timestamp, never retried, and not at all when `h`'s sequencer
//! subscribes to the value's own stream (it then holds the same value
//! and asks itself). The sequencer answers with an ordinary `Heartbeat`
//! to *all* of `h`'s subscribers, or not at all: a probe for a
//! timestamp already promised is dropped, one that finds `h` with work
//! in flight (an undecided proposal, a gated release) is answered by
//! the release of that work — the `Ordered` frame itself if it is keyed
//! past `ts`, a heartbeat right behind it if not —, one that reaches a
//! process that no longer leads `h` is ignored. It carries no value
//! and no id, so it moves no value between stages by itself — it
//! shortens *ordered → delivered* at the sender from "the next Δ tick
//! of `h`" to a round trip. `Heartbeat { group, epoch, ts }` is the
//! frame that moves the frontier, whoever asked.
//!
//! ## Metrics recorded here
//!
//! | counter | counts |
//! |---|---|
//! | `sub.delivered` | values delivered to the application |
//! | `sub.probes_sent` | `Probe`s sent, self-routed ones included (attempts; the outcomes are `seq.probes_answered` / `seq.probes_redundant` at the sequencers). Exactly 0 at a process subscribed to one group |
//! | `sub.dedup_drops` | buffered copies dropped at delivery time because the id had already been delivered (failover re-releases) |
//! | `sub.fenced_frames` | `Ordered`/`Heartbeat` frames of a deposed sequencer's epoch dropped |
//! | `sub.resync_truncations` | replays that ended with a truncation flag, the stream re-anchored past the gap ([`WbcastNode::resync_truncations`]) |
//!
//! | histogram | recorded when |
//! |---|---|
//! | `sub.frontier_wait_us` | a value that was found blocked at the head of the buffer is delivered: µs since it was first found blocked (0 when a self-routed probe unblocked it in the same activation) |
//!
//! A head value still blocked after `STALL_DELTAS` heartbeat intervals
//! shows in `health()` as `"blocked_stream"`, naming the stream waited
//! on. Delivery of a locally submitted value also records the histogram
//! `round.delivery_latency_us` (listed with the other `round.*` metrics
//! in `rounds`). Trace events: `resync.done` (detail: the promise the
//! stream re-anchored at) and `resync.truncated` (detail: the gap's end).

use super::wire::{get_id, put_id, WbMessage};
use super::{Key, WbcastNode};
use crate::engine::Watermark;
use bytes::{BufMut, Bytes, BytesMut};
use multiring_paxos::codec::get_u64;
use multiring_paxos::event::Action;
use multiring_paxos::types::{GroupId, InstanceId, ProcessId, Time, Value, ValueId};
use std::collections::BTreeMap;

/// Frontier position a heartbeat promise translates to: anything at the
/// promised timestamp (any id) has been ruled out for the future.
pub(super) fn promise_key(ts: u64) -> Key {
    (ts, ValueId::new(ProcessId::new(u32::MAX), u64::MAX))
}

/// Per-subscribed-group delivery state.
#[derive(Hash, Debug)]
pub(super) struct Subscription {
    /// Highest sequencer epoch observed on this group's stream. Frames
    /// from strictly lower epochs are fenced (a deposed sequencer must
    /// not advance the frontier the new one rebuilds).
    pub(super) epoch: u32,
    /// Largest key observed from the group's sequencer. The sequencer
    /// releases its stream in strictly increasing key order over a
    /// reliable FIFO channel, so every future arrival is strictly
    /// greater — except recovery re-releases, which only dedup against
    /// it.
    pub(super) frontier: Key,
    /// Checkpoint floor: values keyed at or below this timestamp are
    /// covered by a restored (or durable) checkpoint and are never
    /// delivered again — a resync replay or stale re-release below it
    /// only advances the frontier.
    pub(super) floor: u64,
    /// A [`WbMessage::Resync`] is outstanding for this stream: frames
    /// keep buffering and frontiers keep advancing, but nothing is
    /// *delivered* until the [`WbMessage::ResyncDone`] marker restores
    /// the frontier's prefix-completeness guarantee.
    pub(super) resyncing: bool,
    /// Ordered-but-not-yet-deliverable values, keyed by `(ts, id)`.
    pub(super) pending: BTreeMap<Key, Value>,
    /// Highest blocked timestamp for which asking this stream's
    /// sequencer has been considered ([`WbMessage::Probe`]): at most one
    /// probe per stream and blocked timestamp. A probe lost with a
    /// connection or a crashed sequencer is not retried — the Δ
    /// heartbeat covers it — but a new sequencer's first admitted frame
    /// resets the mark, so it can be asked afresh.
    pub(super) probed: u64,
}

impl Default for Subscription {
    fn default() -> Self {
        Self {
            epoch: 0,
            frontier: (0, ValueId::new(ProcessId::new(0), 0)),
            floor: 0,
            resyncing: false,
            pending: BTreeMap::new(),
            probed: 0,
        }
    }
}

impl Subscription {
    /// The epoch fence every frame of the stream passes first: a frame
    /// of a strictly lower epoch comes from a deposed sequencer and must
    /// not advance the frontier the new one rebuilds; any other frame
    /// (re-)anchors the stream at its epoch. Returns whether the frame
    /// is admitted.
    fn admit(&mut self, epoch: u32) -> bool {
        if epoch > self.epoch {
            self.epoch = epoch;
            self.probed = 0;
        }
        epoch >= self.epoch
    }

    /// The group's current **delivery mark**: the largest timestamp `t`
    /// such that every value of this stream keyed at or below `t` has
    /// been delivered locally (directly or deduplicated against another
    /// subscribed stream) and none will arrive anymore.
    ///
    /// The frontier's own timestamp is excluded unless the frontier is a
    /// heartbeat promise — a future release may still share it with a
    /// larger id — and anything from the first still-pending value
    /// onward is excluded because it has not been executed yet.
    pub(super) fn delivery_mark(&self) -> u64 {
        // While a resync is outstanding the frontier may stand past
        // values only the pending replay can supply (live heartbeats
        // keep arriving during the hold): the stream's stable prefix is
        // still exactly the restored checkpoint floor. Reporting the
        // frontier here would let a checkpoint claim values the
        // application never executed — and the subsequent trim would
        // floor the replay out, losing them permanently.
        if self.resyncing {
            return self.floor;
        }
        let mut mark = if self.frontier.1 == promise_key(self.frontier.0).1 {
            self.frontier.0
        } else {
            self.frontier.0.saturating_sub(1)
        };
        if let Some((&(ts, _), _)) = self.pending.first_key_value() {
            mark = mark.min(ts.saturating_sub(1));
        }
        mark.max(self.floor)
    }
}

impl WbcastNode {
    /// Subscriber side: buffers and drains in global `(ts, id)` order.
    /// A multi-group value arrives once per subscribed addressed group;
    /// only the copy in the smallest such group enters the delivery
    /// buffer — the others advance their stream's frontier, which is
    /// exactly what the delivery condition waits for.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn on_ordered(
        &mut self,
        now: Time,
        group: GroupId,
        epoch: u32,
        ts: u64,
        groups: Vec<GroupId>,
        value: Value,
        out: &mut Vec<Action>,
    ) {
        self.observe_ts(group, ts);
        self.note_epoch(group, epoch);
        let delivery_group = groups
            .iter()
            .copied()
            .filter(|g| self.subs.contains_key(g))
            .min();
        let duplicate = self.delivered_ids.contains_key(&value.id);
        let Some(sub) = self.subs.get_mut(&group) else {
            return;
        };
        if !sub.admit(epoch) {
            // A deposed sequencer's frame arriving after the new
            // stream anchored; its releases were re-run by initiators.
            self.tel.incr("sub.fenced_frames", 1);
            return;
        }
        let key = (ts, value.id);
        sub.frontier = sub.frontier.max(key);
        // Values at or below the checkpoint floor are already reflected
        // in the restored snapshot: a resync replay (or stale
        // re-release) of them only advances the frontier.
        if delivery_group == Some(group) && !duplicate && ts > sub.floor {
            sub.pending.insert(key, value);
        }
        self.drain(now, out);
    }

    pub(super) fn on_heartbeat(
        &mut self,
        now: Time,
        group: GroupId,
        epoch: u32,
        ts: u64,
        out: &mut Vec<Action>,
    ) {
        self.observe_ts(group, ts);
        self.note_epoch(group, epoch);
        let Some(sub) = self.subs.get_mut(&group) else {
            return;
        };
        // The first heartbeat of a higher epoch adopts the new
        // sequencer's stream (the frontier itself only ever grows).
        if !sub.admit(epoch) {
            self.tel.incr("sub.fenced_frames", 1);
            return;
        }
        let key = promise_key(ts);
        if key <= sub.frontier {
            return;
        }
        sub.frontier = key;
        self.drain(now, out);
    }

    /// Delivers every buffered value whose `(ts, id)` key can no longer
    /// be preceded: every other subscribed group's frontier must have
    /// reached the key (streams arrive in strictly increasing key order,
    /// so nothing smaller can still arrive from a group at or past it).
    pub(super) fn drain(&mut self, now: Time, out: &mut Vec<Action>) {
        // While any stream is being resynced, its frontier may stand
        // past keys the replay has not retransmitted yet, so no frontier
        // comparison is conclusive: hold all deliveries until every
        // outstanding replay has terminated.
        if self.subs.values().any(|s| s.resyncing) {
            return;
        }
        while let Some((key, g)) = self.head() {
            if self.blocking_stream(key, g).is_some() {
                if self.head_wait.is_none_or(|(k, _)| k != key) {
                    self.head_wait = Some((key, now));
                }
                self.probe_blocking_streams(now, key, g, out);
                break;
            }
            if let Some((_, since)) = self.head_wait.take_if(|(k, _)| *k == key) {
                self.tel.record("sub.frontier_wait_us", now.since(since));
            }
            let value = self
                .subs
                .get_mut(&g)
                .expect("candidate group is subscribed")
                .pending
                .remove(&key)
                .expect("candidate key is pending");
            if self.delivered_ids.contains_key(&value.id) {
                // A failover re-release of a value this process already
                // delivered (or also holds at its original key): the
                // insert-time check only covers ids delivered *before*
                // the copy arrived, so dedup again at delivery time.
                self.tel.incr("sub.dedup_drops", 1);
                continue;
            }
            self.tel.incr("sub.delivered", 1);
            self.delivered_ids.insert(value.id, key.0);
            if let Some(entry) = self.inflight.get_mut(&value.id) {
                entry.delivered = true;
                let submitted_at = entry.submitted_at;
                // The initiator's submit→deliver time for its own
                // values: the paper's end-to-end multicast latency.
                self.tel
                    .record("round.delivery_latency_us", now.since(submitted_at));
                if entry.released.len() == entry.groups.len() {
                    self.inflight.remove(&value.id);
                }
            }
            out.push(Action::Deliver {
                group: g,
                instance: InstanceId::new(key.0),
                value,
            });
        }
    }

    /// The smallest buffered key and the stream holding it: the next
    /// value to deliver.
    pub(super) fn head(&self) -> Option<(Key, GroupId)> {
        self.subs
            .iter()
            .filter_map(|(&g, s)| s.pending.first_key_value().map(|(&key, _)| (key, g)))
            .min()
    }

    /// A subscribed stream other than `of` whose frontier has not
    /// reached `key` yet — something smaller may still arrive on it.
    pub(super) fn blocking_stream(&self, key: Key, of: GroupId) -> Option<GroupId> {
        self.subs
            .iter()
            .find(|&(&g, s)| g != of && s.frontier < key)
            .map(|(&g, _)| g)
    }

    /// Asks the sequencer of every stream that holds back `key` (the
    /// head, buffered on stream `of`) for a promise covering it — once
    /// per stream and blocked timestamp.
    ///
    /// A sequencer that subscribes to `of` itself is not asked: it
    /// receives the same `Ordered` frame, and if that leaves its own
    /// delivery blocked on the stream it leads, the probe it routes to
    /// itself is answered in that very activation — a message delay
    /// sooner than ours could arrive, which would only find the promise
    /// made. A self-routed probe re-enters [`Self::drain`], so each
    /// stream's state is read only when its turn comes.
    fn probe_blocking_streams(&mut self, now: Time, key: Key, of: GroupId, out: &mut Vec<Action>) {
        let behind = |s: &Subscription| s.frontier < key && s.probed < key.0;
        let streams: Vec<GroupId> = self
            .subs
            .iter()
            .filter(|&(&g, s)| g != of && behind(s))
            .map(|(&g, _)| g)
            .collect();
        for group in streams {
            let sub = self.subs.get_mut(&group).expect("subscribed stream");
            if !behind(sub) {
                continue;
            }
            sub.probed = key.0;
            let Some(sequencer) = self.sequencer_of(group) else {
                continue;
            };
            if sequencer != self.me && self.config.subscriptions_of(sequencer).contains(&of) {
                continue;
            }
            self.tel.incr("sub.probes_sent", 1);
            self.route(now, sequencer, WbMessage::Probe { group, ts: key.0 }, out);
        }
    }

    /// Subscriber side: the replay for `group` has fully arrived — the
    /// stream's frontier is prefix-complete again, deliveries may
    /// proceed (once no other stream is still resyncing). A nonzero
    /// `gap_to` means the sequencer could not serve the requested
    /// prefix (its retained history starts above it): rather than
    /// deliver around a silent hole, the stream **re-anchors at the
    /// gap's end** — everything at or below `gap_to` is written off,
    /// buffered stragglers from inside the hole are discarded, and the
    /// truncation is surfaced in [`WbcastNode::resync_truncations`] so
    /// the deployment can fail loudly (e.g. re-seed from a peer
    /// checkpoint) instead of proceeding on a gapped history.
    pub(super) fn on_resync_done(
        &mut self,
        now: Time,
        group: GroupId,
        epoch: u32,
        ts: u64,
        gap_to: u64,
        out: &mut Vec<Action>,
    ) {
        self.observe_ts(group, ts);
        self.note_epoch(group, epoch);
        let Some(sub) = self.subs.get_mut(&group) else {
            return;
        };
        if !sub.admit(epoch) {
            // Answered by a deposed sequencer; the CoordinatorChange
            // that deposed it re-issued the resync to its successor.
            return;
        }
        if gap_to > sub.floor {
            self.tel.incr("sub.resync_truncations", 1);
            self.tel.trace(now, "resync.truncated", Some(group), gap_to);
            sub.floor = gap_to;
            sub.pending.retain(|&(ts, _), _| ts > gap_to);
            // The frontier anchor below (ts.max(sub.floor)) covers the
            // raised floor.
        }
        sub.resyncing = false;
        self.tel.trace(now, "resync.done", Some(group), ts);
        sub.frontier = sub.frontier.max(promise_key(ts.max(sub.floor)));
        self.drain(now, out);
    }

    /// Per subscribed group, the stream's delivery mark — the largest
    /// timestamp whose whole prefix has been delivered locally.
    pub(super) fn watermark(&self) -> Watermark {
        Watermark {
            marks: self
                .subs
                .iter()
                .map(|(&g, s)| (g, InstanceId::new(s.delivery_mark())))
                .collect(),
        }
    }

    /// The engine's recovery records: the local [`ValueId`] sequence
    /// floor, plus every delivered id above the watermark with its
    /// delivery timestamp. The dedup records are needed because marks
    /// are plain timestamps while delivery keys are `(ts, id)` — at a
    /// tie on the boundary timestamp, some ids are already executed and
    /// some are not, and only the id set makes the restore exact. The
    /// sequence floor keeps post-restart submissions from minting ids a
    /// previous incarnation already used (which the restored dedup
    /// records would silently swallow).
    pub(super) fn checkpoint_state(&self) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_u64_le(self.next_seq);
        buf.put_u64_le(self.delivered_ids.len() as u64);
        for (&id, &ts) in &self.delivered_ids {
            put_id(&mut buf, id);
            buf.put_u64_le(ts);
        }
        buf.freeze()
    }

    pub(super) fn install_checkpoint(&mut self, watermark: &Watermark, state: &Bytes) {
        let buf = &mut state.clone();
        if let (Ok(next_seq), Ok(n)) = (get_u64(buf), get_u64(buf)) {
            self.next_seq = self.next_seq.max(next_seq);
            for _ in 0..n {
                let (Some(id), Ok(ts)) = (get_id(buf), get_u64(buf)) else {
                    break;
                };
                self.delivered_ids.insert(id, ts);
            }
        }
        for (&g, sub) in &mut self.subs {
            let floor = sub.floor.max(watermark.mark_of(g).value());
            sub.floor = floor;
            // Nothing at or below the floor will be replayed (resync
            // starts above it), so the frontier can anchor there.
            sub.frontier = sub.frontier.max(promise_key(floor));
            sub.pending.retain(|&(ts, _), _| ts > floor);
        }
    }

    /// Prunes the local dedup records below the durable watermark and
    /// reports the per-group marks to the groups' sequencers
    /// (`CkptMark` frames) so they can prune their decided-id maps and
    /// released-value history in turn.
    pub(super) fn trim(&mut self, now: Time, watermark: &Watermark) -> Vec<Action> {
        let mut out = Vec::new();
        let mut min_mark = u64::MAX;
        let mut reports: Vec<(GroupId, u64)> = Vec::new();
        for (&g, sub) in &mut self.subs {
            let mark = watermark.mark_of(g).value();
            sub.floor = sub.floor.max(mark);
            min_mark = min_mark.min(mark);
            reports.push((g, mark));
        }
        if min_mark != u64::MAX {
            self.delivered_ids.retain(|_, ts| *ts > min_mark);
        }
        for (group, ts) in reports {
            self.route_to_sequencer(now, group, WbMessage::CkptMark { group, ts }, &mut out);
        }
        out
    }

    /// Asks each subscribed group's sequencer to replay its released
    /// stream above the restored checkpoint floor. Also floors the local
    /// [`ValueId`] sequence at the restart's wall-clock microsecond so
    /// ids minted by this incarnation cannot collide with submissions
    /// the previous incarnation made *after* its last checkpoint (the
    /// same elapsed-time argument the hybrid clock rests on).
    pub(super) fn resume(&mut self, now: Time) -> Vec<Action> {
        self.awaiting_resume = false;
        self.next_seq = self.next_seq.max(now.as_micros());
        let mut out = Vec::new();
        let requests: Vec<(GroupId, u64)> = self.subs.iter().map(|(&g, s)| (g, s.floor)).collect();
        for (group, from_ts) in requests {
            // Hold deliveries until this stream's replay terminates (a
            // self-routed resync clears the flag inline).
            self.subs
                .get_mut(&group)
                .expect("subscribed group")
                .resyncing = true;
            self.route_to_sequencer(now, group, WbMessage::Resync { group, from_ts }, &mut out);
        }
        out
    }
}
