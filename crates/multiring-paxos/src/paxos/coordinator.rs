//! The coordinator role: instance allocation, Phase 1 pre-execution,
//! pipelined Phase 2, duplicate suppression and rate leveling.

use crate::config::RingTuning;
use crate::paxos::acceptor::InstanceRange;
use crate::types::{
    Ballot, ConsensusValue, GroupId, InstanceId, ProcessId, SeqFilter, Time, Value,
};
use std::collections::{BTreeMap, VecDeque};

/// Maximum number of undecided instances a coordinator keeps in flight
/// (the pipelining window).
pub const WINDOW: usize = 128;

/// Maximum payload bytes batched into one consensus instance (a single
/// larger value still gets an instance of its own).
pub const BYTES_PER_INSTANCE: usize = 32 * 1024;

/// Where the coordinator stands in the protocol.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum CoordinatorStatus {
    /// Phase 1 is in flight; values are queued until a promise quorum
    /// arrives.
    Preparing,
    /// Phase 1 completed; Phase 2 rounds are pipelined as values arrive.
    Steady,
}

#[derive(Clone, Hash, Debug)]
struct InFlight {
    range: InstanceRange,
    proposed_at: Time,
}

/// The coordinator of one ring.
///
/// A pure state machine: methods return the [`InstanceRange`]s to propose
/// as Phase 2 messages, and the ring layer handles routing, the local
/// acceptor vote and persistence.
#[derive(Hash, Debug)]
pub struct Coordinator {
    ring: GroupId,
    me: ProcessId,
    majority: usize,
    tuning: RingTuning,
    ballot: Ballot,
    status: CoordinatorStatus,
    phase1_from: InstanceId,
    promises: Vec<ProcessId>,
    /// The promises' accepted ranges `(first, count, ballot, value)`.
    reported: Vec<(InstanceId, u32, Ballot, ConsensusValue)>,
    /// The highest decided watermark a promise reported.
    reported_decided: InstanceId,
    next_instance: InstanceId,
    pending: VecDeque<Value>,
    seen: BTreeMap<ProcessId, SeqFilter>,
    in_flight: BTreeMap<InstanceId, InFlight>,
    started_in_interval: u64,
    interval_started_at: Time,
}

impl Coordinator {
    /// Creates an idle coordinator for `ring` at process `me`; call
    /// [`Coordinator::start`] to run Phase 1 and take over.
    pub fn new(ring: GroupId, me: ProcessId, majority: usize, tuning: RingTuning) -> Self {
        Self {
            ring,
            me,
            majority,
            tuning,
            ballot: Ballot::ZERO,
            status: CoordinatorStatus::Preparing,
            phase1_from: InstanceId::new(1),
            promises: Vec::new(),
            reported: Vec::new(),
            reported_decided: InstanceId::ZERO,
            next_instance: InstanceId::new(1),
            pending: VecDeque::new(),
            seen: BTreeMap::new(),
            in_flight: BTreeMap::new(),
            started_in_interval: 0,
            interval_started_at: Time::ZERO,
        }
    }

    /// Begins Phase 1 with a ballot that supersedes `supersedes`
    /// (typically the highest ballot observed in the ring), above the
    /// `decided` watermark this process knows. Returns the
    /// `(ballot, from)` pair for the Phase 1A message; the ring layer
    /// sends it to every acceptor.
    pub fn start(
        &mut self,
        now: Time,
        supersedes: Ballot,
        decided: InstanceId,
    ) -> (Ballot, InstanceId) {
        self.ballot = supersedes.bump(self.me);
        self.status = CoordinatorStatus::Preparing;
        self.phase1_from = self.phase1_from.max(decided.next());
        self.promises.clear();
        self.reported.clear();
        self.reported_decided = InstanceId::ZERO;
        self.interval_started_at = now;
        self.started_in_interval = 0;
        (self.ballot, self.phase1_from)
    }

    /// The ring this coordinator serves.
    pub fn ring(&self) -> GroupId {
        self.ring
    }

    /// The ballot this coordinator currently owns.
    pub fn ballot(&self) -> Ballot {
        self.ballot
    }

    /// Current protocol status.
    pub fn status(&self) -> CoordinatorStatus {
        self.status
    }

    /// Values queued but not yet proposed.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Proposed-but-undecided instances.
    pub fn in_flight_len(&self) -> usize {
        self.in_flight.len()
    }

    /// The next unused consensus instance.
    pub fn next_instance(&self) -> InstanceId {
        self.next_instance
    }

    /// Handles a Phase 1B promise. Once a majority of acceptors promised,
    /// returns the Phase 2 ranges to send: the reported ranges merged by
    /// interval from above the highest reported watermark (Paxos
    /// safety), then any queued client values.
    pub fn on_phase1b(
        &mut self,
        now: Time,
        from: ProcessId,
        ballot: Ballot,
        accepted: Vec<(InstanceId, u32, Ballot, ConsensusValue)>,
        decided: InstanceId,
    ) -> Vec<InstanceRange> {
        if self.status != CoordinatorStatus::Preparing
            || ballot != self.ballot
            || self.promises.contains(&from)
        {
            return Vec::new();
        }
        self.promises.push(from);
        self.reported.extend(accepted);
        self.reported_decided = self.reported_decided.max(decided);
        if self.promises.len() < self.majority {
            return Vec::new();
        }
        self.status = CoordinatorStatus::Steady;
        // What this coordinator proposed at an older ballot was chosen
        // only where the quorum reports it, and its instances now belong
        // to the merge below: queue its values again rather than resend
        // them where they were (the merge of rings delivers a value
        // decided twice once, and the loop below drops a recovered one).
        let mut requeued: VecDeque<Value> = std::mem::take(&mut self.in_flight)
            .into_values()
            .flat_map(|f| f.range.value.values().to_vec())
            .collect();
        requeued.append(&mut self.pending);
        self.pending = requeued;
        // Nothing at or below a reported watermark is proposed again: the
        // acceptor that reported it hides its votes there, so the votes
        // the others report there are a partial set.
        let floor = self.phase1_from.max(self.reported_decided.next());
        let mut proposals = recover(std::mem::take(&mut self.reported), floor);
        self.next_instance = proposals.last().map_or(floor, |p| p.last().next());
        for p in &proposals {
            // Learn proposer sequence numbers embedded in recovered values
            // so duplicate suppression survives failover.
            for value in p.value.values() {
                let seen = self.seen.entry(value.id.proposer).or_default();
                if !seen.insert(value.id.seq) {
                    // The proposer resent the value while Phase 1 was in
                    // flight and it queued: drop the queued copy, or the
                    // value would be decided twice.
                    self.pending.retain(|q| q.id != value.id);
                }
            }
            self.track(now, p);
        }
        // Drain any values that queued up during Phase 1.
        proposals.extend(self.try_propose(now));
        proposals
    }

    /// Accepts values forwarded by proposers: suppresses duplicates
    /// (resends after a proposer timeout or coordinator change), queues
    /// the rest, and returns new Phase 2 ranges up to the pipelining
    /// window.
    pub fn submit(&mut self, now: Time, values: Vec<Value>) -> Vec<InstanceRange> {
        for v in values {
            let fresh = self.seen.entry(v.id.proposer).or_default().insert(v.id.seq);
            if fresh {
                self.pending.push_back(v);
            }
        }
        if self.status == CoordinatorStatus::Steady {
            self.try_propose(now)
        } else {
            Vec::new()
        }
    }

    fn try_propose(&mut self, now: Time) -> Vec<InstanceRange> {
        let mut out = Vec::new();
        while !self.pending.is_empty() && self.in_flight.len() < WINDOW {
            let mut batch = Vec::new();
            let mut bytes = 0usize;
            while batch.len() < self.tuning.values_per_instance {
                let Some(v) = self.pending.front() else { break };
                if !batch.is_empty() && bytes + v.len() > BYTES_PER_INSTANCE {
                    break;
                }
                bytes += v.len();
                batch.push(self.pending.pop_front().expect("front exists"));
            }
            out.push(self.fresh(now, 1, ConsensusValue::Values(batch)));
        }
        out
    }

    /// Puts `range` in flight, proposed at `now`.
    fn track(&mut self, now: Time, range: &InstanceRange) {
        self.started_in_interval += u64::from(range.count);
        let (range, proposed_at) = (range.clone(), now);
        self.in_flight
            .insert(range.first, InFlight { range, proposed_at });
    }

    /// Proposes `value` over the next `count` unused instances.
    fn fresh(&mut self, now: Time, count: u32, value: ConsensusValue) -> InstanceRange {
        let first = self.next_instance;
        let range = InstanceRange {
            first,
            count,
            value,
        };
        self.next_instance = range.last().next();
        self.track(now, &range);
        range
    }

    /// Notes a decision observed on the ring, freeing pipeline slots.
    /// Returns newly admitted proposals.
    pub fn on_decided(&mut self, now: Time, first: InstanceId, _count: u32) -> Vec<InstanceRange> {
        self.in_flight.remove(&first);
        if self.status == CoordinatorStatus::Steady {
            self.try_propose(now)
        } else {
            Vec::new()
        }
    }

    /// Rate leveling (Section 4): called every Δ. Compares the number of
    /// instances started during the interval with the expected rate λ and
    /// returns a `Skip` range for the deficit, plus re-proposals of
    /// instances that have been in flight for more than four intervals.
    pub fn on_delta(&mut self, now: Time) -> Vec<InstanceRange> {
        let mut out = Vec::new();
        if self.status != CoordinatorStatus::Steady {
            return out;
        }
        let elapsed = now.since(self.interval_started_at);
        if elapsed >= self.tuning.delta_us {
            let target = self.tuning.lambda * elapsed / 1_000_000;
            if self.tuning.lambda > 0 && self.started_in_interval < target {
                let deficit = (target - self.started_in_interval) as u32;
                out.push(self.fresh(now, deficit, ConsensusValue::Skip));
            }
            self.started_in_interval = 0;
            self.interval_started_at = now;
        }
        // Re-propose stalled instances (lost Phase 2 or vote rejection).
        let resend_after = self.tuning.repropose_us.max(1);
        for inflight in self.in_flight.values_mut() {
            if now.since(inflight.proposed_at) >= resend_after {
                inflight.proposed_at = now;
                out.push(inflight.range.clone());
            }
        }
        out
    }
}

/// Merges a quorum's reported ranges into what to propose from `floor`
/// on, in instance order: on each sub-range the value of the highest
/// ballot that covers it, and each gap between them one skip (split at
/// `u32::MAX`).
fn recover(
    mut reported: Vec<(InstanceId, u32, Ballot, ConsensusValue)>,
    floor: InstanceId,
) -> Vec<InstanceRange> {
    reported.sort_by_key(|r| std::cmp::Reverse(r.2));
    // Disjoint, by first instance: each range keeps what no higher
    // ballot took.
    let mut taken: BTreeMap<InstanceId, InstanceRange> = BTreeMap::new();
    for (first, count, _, value) in reported {
        let last = first.plus(u64::from(count) - 1);
        let mut next = first.max(floor);
        if next > last {
            continue;
        }
        let start = taken.range(..=next).next_back().map_or(next, |(&f, _)| f);
        let mut pieces = Vec::new();
        for r in taken.range(start..=last).map(|(_, r)| r) {
            if r.first > next {
                pieces.push((next, r.first));
            }
            next = next.max(r.last().next());
        }
        pieces.push((next, last.next()));
        for (first, end) in pieces.into_iter().filter(|(f, end)| f < end) {
            let count = (end.value() - first.value()) as u32;
            let value = value.clone();
            taken.insert(
                first,
                InstanceRange {
                    first,
                    count,
                    value,
                },
            );
        }
    }
    let mut out = Vec::new();
    let mut next = floor;
    for r in taken.into_values() {
        while next < r.first {
            let count = (r.first.value() - next.value()).min(u64::from(u32::MAX)) as u32;
            out.push(InstanceRange {
                first: next,
                count,
                value: ConsensusValue::Skip,
            });
            next = next.plus(u64::from(count));
        }
        next = r.last().next();
        out.push(r);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{GroupId, ValueId};

    fn mkval(proposer: u32, seq: u64) -> Value {
        Value::new(
            ValueId::new(ProcessId::new(proposer), seq),
            GroupId::new(0),
            vec![0u8; 8],
        )
    }

    fn quorum_start(c: &mut Coordinator) -> Vec<InstanceRange> {
        let now = Time::ZERO;
        c.start(now, Ballot::ZERO, InstanceId::ZERO);
        let mut all = c.on_phase1b(now, ProcessId::new(0), c.ballot(), vec![], InstanceId::ZERO);
        all.extend(c.on_phase1b(now, ProcessId::new(1), c.ballot(), vec![], InstanceId::ZERO));
        all
    }

    fn coord() -> Coordinator {
        Coordinator::new(
            GroupId::new(0),
            ProcessId::new(0),
            2,
            RingTuning {
                // One value an instance (the Figure 3 setting): these
                // tests count instances.
                values_per_instance: 1,
                lambda: 0,
                ..RingTuning::default()
            },
        )
    }

    #[test]
    fn phase1_quorum_then_steady() {
        let mut c = coord();
        let props = quorum_start(&mut c);
        assert!(props.is_empty());
        assert_eq!(c.status(), CoordinatorStatus::Steady);
        assert_eq!(c.next_instance(), InstanceId::new(1));
    }

    #[test]
    fn duplicate_promises_ignored() {
        let mut c = coord();
        let now = Time::ZERO;
        c.start(now, Ballot::ZERO, InstanceId::ZERO);
        c.on_phase1b(now, ProcessId::new(0), c.ballot(), vec![], InstanceId::ZERO);
        let r = c.on_phase1b(now, ProcessId::new(0), c.ballot(), vec![], InstanceId::ZERO);
        assert!(r.is_empty());
        assert_eq!(c.status(), CoordinatorStatus::Preparing);
    }

    #[test]
    fn values_queue_during_phase1() {
        let mut c = coord();
        let now = Time::ZERO;
        c.start(now, Ballot::ZERO, InstanceId::ZERO);
        assert!(c.submit(now, vec![mkval(1, 1)]).is_empty());
        assert_eq!(c.pending_len(), 1);
        c.on_phase1b(now, ProcessId::new(0), c.ballot(), vec![], InstanceId::ZERO);
        let props = c.on_phase1b(now, ProcessId::new(1), c.ballot(), vec![], InstanceId::ZERO);
        assert_eq!(props.len(), 1);
        assert_eq!(props[0].first, InstanceId::new(1));
        assert!(matches!(&props[0].value, ConsensusValue::Values(v) if v.len() == 1));
    }

    #[test]
    fn recovery_reproposes_and_fills_holes() {
        let mut c = coord();
        let now = Time::ZERO;
        c.start(now, Ballot::ZERO, InstanceId::ZERO);
        let old = Ballot::new(1, ProcessId::new(9));
        let v5 = ConsensusValue::Values(vec![mkval(7, 3)]);
        c.on_phase1b(
            now,
            ProcessId::new(0),
            c.ballot(),
            vec![(InstanceId::new(5), 1, old, v5.clone())],
            InstanceId::ZERO,
        );
        let props = c.on_phase1b(now, ProcessId::new(1), c.ballot(), vec![], InstanceId::ZERO);
        // Holes 1..=4 skipped in one range, then instance 5 re-proposed.
        assert_eq!(props.len(), 2);
        assert_eq!(props[0].first, InstanceId::new(1));
        assert_eq!(props[0].count, 4);
        assert!(props[0].value.is_skip());
        assert_eq!(props[1].first, InstanceId::new(5));
        assert_eq!(props[1].value, v5);
        assert_eq!(c.next_instance(), InstanceId::new(6));
        // Sequence learned from the recovered value suppresses the resend.
        assert!(c.submit(now, vec![mkval(7, 3)]).is_empty());
        assert_eq!(c.pending_len(), 0);
    }

    /// A proposer resend that arrives while Phase 1 is still collecting
    /// promises queues the value; if Phase 1B then recovers the same
    /// value at its original instance, the queued copy must be dropped —
    /// otherwise the value is decided at two instances and delivered
    /// twice.
    #[test]
    fn resend_queued_during_phase1_is_purged_by_recovery() {
        let mut c = coord();
        let now = Time::ZERO;
        c.start(now, Ballot::ZERO, InstanceId::ZERO);
        // The resend lands mid-Phase-1 and queues.
        assert!(c.submit(now, vec![mkval(7, 3)]).is_empty());
        assert_eq!(c.pending_len(), 1);
        // Recovery returns the same value, accepted at instance 2.
        let old = Ballot::new(1, ProcessId::new(9));
        let v2 = ConsensusValue::Values(vec![mkval(7, 3)]);
        c.on_phase1b(
            now,
            ProcessId::new(0),
            c.ballot(),
            vec![(InstanceId::new(2), 1, old, v2.clone())],
            InstanceId::ZERO,
        );
        let props = c.on_phase1b(now, ProcessId::new(1), c.ballot(), vec![], InstanceId::ZERO);
        // Hole 1 skipped, instance 2 re-proposed — and nothing else: the
        // queued duplicate must not surface at a fresh instance.
        assert_eq!(props.len(), 2);
        assert_eq!(props[1].first, InstanceId::new(2));
        assert_eq!(props[1].value, v2);
        assert_eq!(c.pending_len(), 0, "queued duplicate purged");
        assert_eq!(c.in_flight_len(), 2);
    }

    #[test]
    fn trim_watermark_advances_next_instance() {
        let mut c = coord();
        let now = Time::ZERO;
        c.start(now, Ballot::ZERO, InstanceId::ZERO);
        c.on_phase1b(
            now,
            ProcessId::new(0),
            c.ballot(),
            vec![],
            InstanceId::new(100),
        );
        let props = c.on_phase1b(now, ProcessId::new(1), c.ballot(), vec![], InstanceId::ZERO);
        assert!(props.is_empty());
        assert_eq!(c.next_instance(), InstanceId::new(101));
    }

    /// The quorum's ranges are merged by interval: on each sub-range
    /// the highest ballot's value, each gap one skip.
    #[test]
    fn recovery_takes_the_highest_ballot_per_sub_range() {
        let mut c = coord();
        let now = Time::ZERO;
        c.start(now, Ballot::ZERO, InstanceId::ZERO);
        let (b1, b2) = (
            Ballot::new(1, ProcessId::new(9)),
            Ballot::new(2, ProcessId::new(9)),
        );
        let v6 = ConsensusValue::Values(vec![mkval(7, 1)]);
        let w12 = ConsensusValue::Values(vec![mkval(7, 2)]);
        let i = InstanceId::new;
        let skip = ConsensusValue::Skip;
        let reported = vec![(i(3), 8, b1, skip.clone()), (i(12), 1, b1, w12.clone())];
        c.on_phase1b(
            now,
            ProcessId::new(0),
            c.ballot(),
            reported,
            InstanceId::ZERO,
        );
        let reported = vec![(i(6), 1, b2, v6.clone())];
        let props = c.on_phase1b(
            now,
            ProcessId::new(1),
            c.ballot(),
            reported,
            InstanceId::ZERO,
        );
        let got: Vec<(u64, u32, &ConsensusValue)> = props
            .iter()
            .map(|p| (p.first.value(), p.count, &p.value))
            .collect();
        let want = [
            (1, 2, &skip),
            (3, 3, &skip),
            (6, 1, &v6),
            (7, 4, &skip),
            (11, 1, &skip),
            (12, 1, &w12),
        ];
        assert_eq!(got, want);
        assert_eq!(c.next_instance(), i(13));
    }

    /// Phase 1 starts above the watermark the coordinator knows, and
    /// nothing at or below the highest reported watermark is proposed:
    /// the acceptor that reported it hid its own votes there.
    #[test]
    fn nothing_at_or_below_a_reported_watermark_is_proposed_again() {
        let mut c = coord();
        let now = Time::ZERO;
        let (_, from) = c.start(now, Ballot::ZERO, InstanceId::new(1));
        assert_eq!(from, InstanceId::new(2));
        let stale = ConsensusValue::Values(vec![mkval(7, 1)]);
        let old = Ballot::new(1, ProcessId::new(9));
        let reported = vec![(InstanceId::new(2), 1, old, stale)];
        c.on_phase1b(
            now,
            ProcessId::new(0),
            c.ballot(),
            reported,
            InstanceId::new(1),
        );
        let props = c.on_phase1b(
            now,
            ProcessId::new(1),
            c.ballot(),
            vec![],
            InstanceId::new(3),
        );
        assert!(props.is_empty(), "{props:?}");
        assert_eq!(c.next_instance(), InstanceId::new(4));
    }

    /// A gap longer than a range can say is skipped in pieces of
    /// `u32::MAX` instances.
    #[test]
    fn a_gap_past_u32_max_is_split() {
        let mut c = coord();
        let now = Time::ZERO;
        c.start(now, Ballot::ZERO, InstanceId::ZERO);
        let far = InstanceId::new(u64::from(u32::MAX) + 10);
        let v = ConsensusValue::Values(vec![mkval(7, 1)]);
        let reported = vec![(far, 1, Ballot::new(1, ProcessId::new(9)), v)];
        c.on_phase1b(
            now,
            ProcessId::new(0),
            c.ballot(),
            reported,
            InstanceId::ZERO,
        );
        let props = c.on_phase1b(now, ProcessId::new(1), c.ballot(), vec![], InstanceId::ZERO);
        let got: Vec<(u64, u32)> = props.iter().map(|p| (p.first.value(), p.count)).collect();
        assert_eq!(
            got,
            [
                (1, u32::MAX),
                (u64::from(u32::MAX) + 1, 9),
                (far.value(), 1)
            ]
        );
    }

    /// A Phase 1 restarted at a higher ballot takes back what the
    /// coordinator had in flight at its older one: where the quorum
    /// reports a rival's range over it, or a watermark above it, no old
    /// proposal is resent at its instance (a second value chosen there),
    /// and each old value is proposed once more at a fresh instance.
    #[test]
    fn a_restarted_phase1_never_resends_an_old_proposal_where_it_was() {
        let i = InstanceId::new;
        let rival = Ballot::new(5, ProcessId::new(9));
        let skip = (i(55), 16, rival, ConsensusValue::Skip);
        for (reported, decided) in [(vec![skip], i(0)), (vec![], i(70))] {
            let mut c = coord();
            let now = Time::ZERO;
            c.start(now, Ballot::ZERO, i(54));
            c.on_phase1b(now, ProcessId::new(0), c.ballot(), vec![], i(54));
            c.on_phase1b(now, ProcessId::new(1), c.ballot(), vec![], i(54));
            let values: Vec<Value> = (1..=8).map(|s| mkval(1, s)).collect();
            let old = c.submit(now, values.clone());
            assert_eq!(old.first().map(|p| p.first), Some(i(55)));
            c.start(now, rival, i(54));
            let p0 = ProcessId::new(0);
            let mut props = c.on_phase1b(now, p0, c.ballot(), reported, decided);
            props.extend(c.on_phase1b(now, ProcessId::new(1), c.ballot(), vec![], i(54)));
            props.extend(c.on_delta(Time::from_micros(60_000_000)));
            // Each old value at one fresh instance (resent there by
            // `on_delta`), and nothing but skips at the old ones.
            let mut at = BTreeMap::new();
            for p in &props {
                if p.first <= i(70) {
                    assert!(p.value.is_skip(), "{p:?} resent at its old instance");
                }
                for v in p.value.values() {
                    assert_eq!(*at.entry(v.id).or_insert(p.first), p.first);
                }
            }
            assert_eq!(
                at.keys().copied().collect::<Vec<_>>(),
                values.iter().map(|v| v.id).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn duplicate_values_suppressed() {
        let mut c = coord();
        let now = Time::ZERO;
        quorum_start(&mut c);
        let p1 = c.submit(now, vec![mkval(1, 1), mkval(1, 2)]);
        assert_eq!(p1.len(), 2);
        let p2 = c.submit(now, vec![mkval(1, 1), mkval(1, 2)]);
        assert!(p2.is_empty());
        let p3 = c.submit(now, vec![mkval(1, 3)]);
        assert_eq!(p3.len(), 1);
    }

    #[test]
    fn window_limits_pipeline() {
        let mut c = coord();
        let now = Time::ZERO;
        quorum_start(&mut c);
        let window = WINDOW as u64;
        let vals: Vec<Value> = (1..=window + 3).map(|s| mkval(1, s)).collect();
        let props = c.submit(now, vals);
        assert_eq!(props.len(), WINDOW);
        assert_eq!(c.pending_len(), 3);
        assert_eq!(c.in_flight_len(), WINDOW);
        // A decision frees a slot and admits the next value.
        let more = c.on_decided(now, InstanceId::new(1), 1);
        assert_eq!(more.len(), 1);
        assert_eq!(more[0].first, InstanceId::new(window + 1));
    }

    #[test]
    fn proposal_batching_respects_caps() {
        let mut c = Coordinator::new(
            GroupId::new(0),
            ProcessId::new(0),
            2,
            RingTuning {
                values_per_instance: 3,
                lambda: 0,
                ..RingTuning::default()
            },
        );
        let now = Time::ZERO;
        quorum_start(&mut c);
        // Two values of 2/5 of the byte cap fit an instance, a third
        // does not: the byte cap binds before the 3-value cap.
        let size = BYTES_PER_INSTANCE * 2 / 5;
        let vals = (1..=4).map(|s| {
            Value::new(
                ValueId::new(ProcessId::new(1), s),
                GroupId::new(0),
                vec![0u8; size],
            )
        });
        let props = c.submit(now, vals.collect());
        assert_eq!(props.len(), 2);
        for p in &props {
            match &p.value {
                ConsensusValue::Values(vs) => assert_eq!(vs.len(), 2),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn rate_leveling_fills_deficit() {
        let mut c = Coordinator::new(
            GroupId::new(0),
            ProcessId::new(0),
            2,
            RingTuning {
                delta_us: 1_000,
                lambda: 5_000, // 5 instances per 1 ms interval
                values_per_instance: 1,
                ..RingTuning::default()
            },
        );
        quorum_start(&mut c);
        let t1 = Time::from_micros(1_000);
        let skips = c.on_delta(t1);
        assert_eq!(skips.len(), 1);
        assert_eq!(skips[0].count, 5);
        assert!(skips[0].value.is_skip());
        assert_eq!(c.next_instance(), InstanceId::new(6));
        // With traffic meeting the rate, no skip is proposed.
        let vals: Vec<Value> = (1..=5).map(|s| mkval(1, s)).collect();
        c.on_decided(t1, InstanceId::new(1), 5);
        c.submit(t1, vals);
        let t2 = Time::from_micros(2_000);
        let skips2 = c.on_delta(t2);
        assert!(skips2.iter().all(|r| !r.value.is_skip() || r.count == 0));
    }

    #[test]
    fn stalled_instances_are_reproposed() {
        let mut c = Coordinator::new(
            GroupId::new(0),
            ProcessId::new(0),
            2,
            RingTuning {
                delta_us: 1_000,
                lambda: 0,
                repropose_us: 4_000,
                ..RingTuning::default()
            },
        );
        quorum_start(&mut c);
        c.submit(Time::ZERO, vec![mkval(1, 1)]);
        // Not yet at 2 ms...
        assert!(c.on_delta(Time::from_micros(2_000)).is_empty());
        // ...re-proposed once the repropose timeout elapses.
        let props = c.on_delta(Time::from_micros(4_000));
        assert_eq!(props.len(), 1);
        assert_eq!(props[0].first, InstanceId::new(1));
    }
}
