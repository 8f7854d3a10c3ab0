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
    count: u32,
    value: ConsensusValue,
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
    recovered: BTreeMap<InstanceId, (Ballot, ConsensusValue)>,
    recovered_trim_max: InstanceId,
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
            recovered: BTreeMap::new(),
            recovered_trim_max: InstanceId::ZERO,
            next_instance: InstanceId::new(1),
            pending: VecDeque::new(),
            seen: BTreeMap::new(),
            in_flight: BTreeMap::new(),
            started_in_interval: 0,
            interval_started_at: Time::ZERO,
        }
    }

    /// Begins Phase 1 with a ballot that supersedes `supersedes`
    /// (typically the highest ballot observed in the ring). Returns the
    /// `(ballot, from)` pair for the Phase 1A message; the ring layer
    /// sends it to every acceptor.
    pub fn start(&mut self, now: Time, supersedes: Ballot) -> (Ballot, InstanceId) {
        self.ballot = supersedes.bump(self.me);
        self.status = CoordinatorStatus::Preparing;
        self.promises.clear();
        self.recovered.clear();
        self.recovered_trim_max = InstanceId::ZERO;
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
    /// returns the Phase 2 ranges to send: recovered values re-proposed
    /// at their original instances (Paxos safety), holes filled with
    /// `Skip`, and any queued client values after those.
    pub fn on_phase1b(
        &mut self,
        now: Time,
        from: ProcessId,
        ballot: Ballot,
        accepted: Vec<(InstanceId, Ballot, ConsensusValue)>,
        trimmed: InstanceId,
    ) -> Vec<InstanceRange> {
        if self.status != CoordinatorStatus::Preparing || ballot != self.ballot {
            return Vec::new();
        }
        if self.promises.contains(&from) {
            return Vec::new();
        }
        self.promises.push(from);
        self.recovered_trim_max = self.recovered_trim_max.max(trimmed);
        for (inst, b, v) in accepted {
            match self.recovered.get(&inst) {
                Some(&(prev, _)) if prev >= b => {}
                _ => {
                    self.recovered.insert(inst, (b, v));
                }
            }
        }
        if self.promises.len() < self.majority {
            return Vec::new();
        }

        // Quorum reached: compute the recovery proposals.
        self.status = CoordinatorStatus::Steady;
        let mut proposals = Vec::new();
        let max_recovered = self.recovered.keys().next_back().copied();
        let horizon = match max_recovered {
            Some(m) => m.max(self.recovered_trim_max),
            None => self.recovered_trim_max,
        };
        let mut i = self.phase1_from.max(self.recovered_trim_max.next());
        while i <= horizon {
            if let Some((_, v)) = self.recovered.remove(&i) {
                // Learn proposer sequence numbers embedded in recovered
                // values so duplicate-suppression survives failover.
                if let ConsensusValue::Values(vs) = &v {
                    for value in vs {
                        let fresh = self
                            .seen
                            .entry(value.id.proposer)
                            .or_default()
                            .insert(value.id.seq);
                        if !fresh {
                            // The proposer resent the value while Phase 1
                            // was in flight and it queued: drop the
                            // queued copy, or the re-proposal at the
                            // original instance plus the queued one at a
                            // fresh instance would decide it twice.
                            self.pending.retain(|p| p.id != value.id);
                        }
                    }
                }
                proposals.push(InstanceRange {
                    first: i,
                    count: 1,
                    value: v,
                });
                i = i.next();
            } else {
                // Fill the hole (and any contiguous holes) with one skip.
                let mut count = 1u32;
                let mut j = i.next();
                while j <= horizon && !self.recovered.contains_key(&j) {
                    count += 1;
                    j = j.next();
                }
                proposals.push(InstanceRange {
                    first: i,
                    count,
                    value: ConsensusValue::Skip,
                });
                i = j;
            }
        }
        self.next_instance = horizon.next().max(self.phase1_from);
        for p in &proposals {
            self.in_flight.insert(
                p.first,
                InFlight {
                    count: p.count,
                    value: p.value.clone(),
                    proposed_at: now,
                },
            );
        }
        self.started_in_interval += proposals.iter().map(|p| u64::from(p.count)).sum::<u64>();
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
            let range = InstanceRange {
                first: self.next_instance,
                count: 1,
                value: ConsensusValue::Values(batch),
            };
            self.next_instance = self.next_instance.next();
            self.in_flight.insert(
                range.first,
                InFlight {
                    count: 1,
                    value: range.value.clone(),
                    proposed_at: now,
                },
            );
            self.started_in_interval += 1;
            out.push(range);
        }
        out
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
                let range = InstanceRange {
                    first: self.next_instance,
                    count: deficit,
                    value: ConsensusValue::Skip,
                };
                self.next_instance = self.next_instance.plus(u64::from(deficit));
                self.in_flight.insert(
                    range.first,
                    InFlight {
                        count: deficit,
                        value: ConsensusValue::Skip,
                        proposed_at: now,
                    },
                );
                out.push(range);
            }
            self.started_in_interval = 0;
            self.interval_started_at = now;
        }
        // Re-propose stalled instances (lost Phase 2 or vote rejection).
        let resend_after = self.tuning.repropose_us.max(1);
        for (&first, inflight) in &mut self.in_flight {
            if now.since(inflight.proposed_at) >= resend_after {
                inflight.proposed_at = now;
                out.push(InstanceRange {
                    first,
                    count: inflight.count,
                    value: inflight.value.clone(),
                });
            }
        }
        out
    }
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
        c.start(now, Ballot::ZERO);
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
        c.start(now, Ballot::ZERO);
        c.on_phase1b(now, ProcessId::new(0), c.ballot(), vec![], InstanceId::ZERO);
        let r = c.on_phase1b(now, ProcessId::new(0), c.ballot(), vec![], InstanceId::ZERO);
        assert!(r.is_empty());
        assert_eq!(c.status(), CoordinatorStatus::Preparing);
    }

    #[test]
    fn values_queue_during_phase1() {
        let mut c = coord();
        let now = Time::ZERO;
        c.start(now, Ballot::ZERO);
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
        c.start(now, Ballot::ZERO);
        let old = Ballot::new(1, ProcessId::new(9));
        let v5 = ConsensusValue::Values(vec![mkval(7, 3)]);
        c.on_phase1b(
            now,
            ProcessId::new(0),
            c.ballot(),
            vec![(InstanceId::new(5), old, v5.clone())],
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
        c.start(now, Ballot::ZERO);
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
            vec![(InstanceId::new(2), old, v2.clone())],
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
        c.start(now, Ballot::ZERO);
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
