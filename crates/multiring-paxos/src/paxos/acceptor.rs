//! The acceptor role: promises, votes, decisions and the trimmable log.

use crate::types::{Ballot, ConsensusValue, GroupId, InstanceId};
use std::collections::BTreeMap;

/// A contiguous range of instances sharing one consensus value (client
/// values always span one instance; rate-leveling skips may span many).
#[derive(Clone, PartialEq, Hash, Debug)]
pub struct InstanceRange {
    /// First instance of the range.
    pub first: InstanceId,
    /// Number of instances covered (at least 1).
    pub count: u32,
    /// The value.
    pub value: ConsensusValue,
}

impl InstanceRange {
    /// Last instance of the range (inclusive).
    pub fn last(&self) -> InstanceId {
        self.first.plus(u64::from(self.count) - 1)
    }

    /// Whether the range contains `i`.
    pub fn contains(&self, i: InstanceId) -> bool {
        self.first <= i && i <= self.last()
    }
}

/// Outcome of processing a Phase 1A message.
#[derive(Clone, PartialEq, Debug)]
pub enum Phase1Outcome {
    /// The acceptor promises the ballot; reply with a Phase 1B.
    Promised {
        /// Accepted `(first, count, ballot, value)` ranges above the
        /// decided watermark, clipped to start no earlier than the
        /// requested instance.
        accepted: Vec<(InstanceId, u32, Ballot, ConsensusValue)>,
        /// The decided watermark: see [`Acceptor::decided`].
        decided: InstanceId,
    },
    /// The ballot is stale; the acceptor stays on `promised`.
    Rejected {
        /// The ballot currently promised.
        promised: Ballot,
    },
}

/// Outcome of processing a Phase 2 message.
#[derive(Clone, PartialEq, Debug)]
pub enum Phase2Outcome {
    /// The acceptor votes for the value (the vote must be persisted
    /// according to the ring's storage mode before it is forwarded).
    Voted,
    /// The ballot is stale; the vote is withheld and the message is
    /// forwarded unchanged.
    Rejected {
        /// The ballot currently promised.
        promised: Ballot,
    },
}

/// State an acceptor reloads from its stable log after a crash.
#[derive(Clone, Default, Debug)]
pub struct AcceptorRecovery {
    /// Highest promised ballot found in the log.
    pub promised: Ballot,
    /// Accepted ranges: `(first, count, ballot, value)`.
    pub accepted: Vec<(InstanceId, u32, Ballot, ConsensusValue)>,
    /// Decision markers: `(first, count, value)`.
    pub decided: Vec<(InstanceId, u32, ConsensusValue)>,
    /// Trim watermark found in the log.
    pub trimmed: InstanceId,
}

/// The Paxos acceptor for one ring.
///
/// Pure state: persistence is orchestrated by the ring layer, which emits
/// [`crate::event::Action::Persist`] actions before forwarding votes when
/// the storage mode requires it.
#[derive(Hash, Debug)]
pub struct Acceptor {
    ring: GroupId,
    promised: Ballot,
    accepted: BTreeMap<InstanceId, (u32, Ballot, ConsensusValue)>,
    decided: BTreeMap<InstanceId, (u32, ConsensusValue)>,
    trimmed: InstanceId,
}

impl Acceptor {
    /// A fresh acceptor for `ring`.
    pub fn new(ring: GroupId) -> Self {
        Self {
            ring,
            promised: Ballot::ZERO,
            accepted: BTreeMap::new(),
            decided: BTreeMap::new(),
            trimmed: InstanceId::ZERO,
        }
    }

    /// Rebuilds an acceptor from the state recovered from its stable log.
    pub fn recover(ring: GroupId, rec: AcceptorRecovery) -> Self {
        let accepted = rec.accepted.into_iter();
        let decided = rec.decided.into_iter();
        Self {
            ring,
            promised: rec.promised,
            accepted: accepted.map(|(f, c, b, v)| (f, (c, b, v))).collect(),
            decided: decided.map(|(f, c, v)| (f, (c, v))).collect(),
            trimmed: rec.trimmed,
        }
    }

    /// The ring this acceptor serves.
    pub fn ring(&self) -> GroupId {
        self.ring
    }

    /// The currently promised ballot.
    pub fn promised(&self) -> Ballot {
        self.promised
    }

    /// The decided watermark: every instance at or below it is decided
    /// here, or trimmed (which only a decided instance is).
    pub fn decided(&self) -> InstanceId {
        let mut upto = self.trimmed;
        for (&first, &(count, _)) in &self.decided {
            if first > upto.next() {
                break;
            }
            upto = upto.max(first.plus(u64::from(count) - 1));
        }
        upto
    }

    /// Handles Phase 1A: promise `ballot` for all instances at or after
    /// `from` if it is not stale, reporting the ranges voted there. Votes
    /// at or below the decided watermark stay hidden: those instances
    /// are decided.
    pub fn on_phase1a(&mut self, ballot: Ballot, from: InstanceId) -> Phase1Outcome {
        if ballot < self.promised {
            return Phase1Outcome::Rejected {
                promised: self.promised,
            };
        }
        self.promised = ballot;
        let decided = self.decided();
        let start = from.max(decided.next());
        let accepted = (self.accepted.iter())
            .filter_map(|(&first, &(count, b, ref v))| {
                let last = first.plus(u64::from(count) - 1);
                let first = first.max(start);
                let count = (last.value() + 1).checked_sub(first.value())?;
                (count > 0).then(|| (first, count as u32, b, v.clone()))
            })
            .collect();
        Phase1Outcome::Promised { accepted, decided }
    }

    /// Handles Phase 2A/2B: vote for `value` over `[first, first+count)`
    /// at `ballot` unless a higher ballot was promised.
    pub fn on_phase2(
        &mut self,
        ballot: Ballot,
        first: InstanceId,
        count: u32,
        value: &ConsensusValue,
    ) -> Phase2Outcome {
        if ballot < self.promised {
            return Phase2Outcome::Rejected {
                promised: self.promised,
            };
        }
        self.promised = ballot;
        self.accepted.insert(first, (count, ballot, value.clone()));
        Phase2Outcome::Voted
    }

    /// Records a decision observed on the ring (acceptors keep decisions
    /// to serve learner retransmission requests).
    pub fn on_decision(&mut self, first: InstanceId, count: u32, value: ConsensusValue) {
        if first > self.trimmed {
            self.decided.insert(first, (count, value));
        }
    }

    /// Records a decision whose value was stripped on the wire, falling
    /// back to the locally accepted value for the instance (an acceptor
    /// on the Phase 2 arc always voted before the decision came around).
    /// Returns the value if it could be resolved.
    pub fn on_decision_from_accepted(
        &mut self,
        first: InstanceId,
        count: u32,
    ) -> Option<ConsensusValue> {
        let (_, _, value) = self.accepted.get(&first)?;
        let value = value.clone();
        self.on_decision(first, count, value.clone());
        Some(value)
    }

    /// The decided value covering instance `i`, if known and not trimmed.
    pub fn decided_at(&self, i: InstanceId) -> Option<InstanceRange> {
        let (&first, &(count, ref value)) = self.decided.range(..=i).next_back()?;
        let r = InstanceRange {
            first,
            count,
            value: value.clone(),
        };
        r.contains(i).then_some(r)
    }

    /// Serves a retransmission request: every decided range intersecting
    /// `[from, to]`, plus the current trim watermark so the requester
    /// knows whether older instances require checkpoint recovery.
    pub fn serve_retransmit(
        &self,
        from: InstanceId,
        to: InstanceId,
    ) -> (Vec<(InstanceId, u32, ConsensusValue)>, InstanceId) {
        // Start from the last range beginning at or before `from` (it may
        // straddle), then walk forward.
        let start = (self.decided.range(..=from).next_back()).map_or(from, |(&f, _)| f);
        let out = (self.decided.range(start..))
            .take_while(|&(&first, _)| first <= to)
            .filter(|&(&first, &(count, _))| first.plus(u64::from(count) - 1) >= from)
            .map(|(&first, &(count, ref value))| (first, count, value.clone()))
            .collect();
        (out, self.trimmed)
    }

    /// Deletes promise/vote/decision state for instances up to `upto`
    /// (inclusive). Ranges straddling the watermark are kept whole.
    pub fn trim(&mut self, upto: InstanceId) {
        if upto <= self.trimmed {
            return;
        }
        self.trimmed = upto;
        self.accepted
            .retain(|&first, &mut (count, _, _)| first.plus(u64::from(count) - 1) > upto);
        self.decided
            .retain(|&first, &mut (count, _)| first.plus(u64::from(count) - 1) > upto);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{GroupId, ProcessId, Value, ValueId};

    fn b(round: u32) -> Ballot {
        Ballot::new(round, ProcessId::new(0))
    }

    fn i(n: u64) -> InstanceId {
        InstanceId::new(n)
    }

    fn val(n: u64) -> ConsensusValue {
        ConsensusValue::Values(vec![Value::new(
            ValueId::new(ProcessId::new(1), n),
            GroupId::new(0),
            vec![n as u8],
        )])
    }

    #[test]
    fn promise_then_reject_stale() {
        let mut a = Acceptor::new(GroupId::new(0));
        assert!(matches!(
            a.on_phase1a(b(2), i(1)),
            Phase1Outcome::Promised { .. }
        ));
        assert!(matches!(
            a.on_phase1a(b(1), i(1)),
            Phase1Outcome::Rejected { promised } if promised == b(2)
        ));
        assert_eq!(a.promised(), b(2));
    }

    #[test]
    fn vote_requires_fresh_ballot() {
        let mut a = Acceptor::new(GroupId::new(0));
        a.on_phase1a(b(2), i(1));
        assert_eq!(a.on_phase2(b(2), i(1), 1, &val(1)), Phase2Outcome::Voted);
        assert!(matches!(
            a.on_phase2(b(1), i(2), 1, &val(2)),
            Phase2Outcome::Rejected { .. }
        ));
        // A higher ballot bumps the promise implicitly.
        assert_eq!(a.on_phase2(b(3), i(2), 1, &val(2)), Phase2Outcome::Voted);
        assert_eq!(a.promised(), b(3));
    }

    #[test]
    fn phase1b_reports_accepted_at_or_after_from() {
        let mut a = Acceptor::new(GroupId::new(0));
        a.on_phase1a(b(1), i(1));
        a.on_phase2(b(1), i(1), 1, &val(1));
        a.on_phase2(b(1), i(2), 3, &ConsensusValue::Skip);
        a.on_phase2(b(1), i(5), 1, &val(5));
        let Phase1Outcome::Promised { accepted, decided } = a.on_phase1a(b(2), i(3)) else {
            panic!("promised");
        };
        // The skip range 2..=4 is clipped to 3..=4.
        let ranges: Vec<(u64, u32)> = accepted.iter().map(|r| (r.0.value(), r.1)).collect();
        assert_eq!(ranges, vec![(3, 2), (5, 1)]);
        assert_eq!(decided, InstanceId::ZERO);
    }

    /// Votes at or below the contiguous decided watermark are not
    /// reported; a decision past a hole does not raise it.
    #[test]
    fn phase1b_hides_votes_at_or_below_the_decided_watermark() {
        let mut a = Acceptor::new(GroupId::new(0));
        a.on_phase2(b(1), i(1), 4, &ConsensusValue::Skip);
        a.on_phase2(b(1), i(5), 1, &val(5));
        a.on_phase2(b(1), i(7), 1, &val(7));
        a.on_decision(i(1), 2, ConsensusValue::Skip);
        a.on_decision(i(7), 1, val(7));
        let Phase1Outcome::Promised { accepted, decided } = a.on_phase1a(b(2), i(1)) else {
            panic!("promised");
        };
        assert_eq!(decided, i(2));
        let ranges: Vec<(u64, u32)> = accepted.iter().map(|r| (r.0.value(), r.1)).collect();
        assert_eq!(ranges, vec![(3, 2), (5, 1), (7, 1)]);
        a.on_decision(i(3), 2, ConsensusValue::Skip);
        a.on_decision(i(5), 1, val(5));
        assert_eq!(a.decided(), i(5), "6 is voted, not decided");
    }

    /// One voted skip of 2²² instances is one range in the answer to a
    /// higher Phase 1A, however many instances it covers (it was one
    /// entry per instance, 4 194 304 of them).
    #[test]
    fn a_long_voted_skip_is_reported_as_one_range() {
        let mut a = Acceptor::new(GroupId::new(0));
        a.on_phase2(b(1), i(1), 1 << 22, &ConsensusValue::Skip);
        let Phase1Outcome::Promised { accepted, .. } = a.on_phase1a(b(2), i(1)) else {
            panic!("promised");
        };
        assert_eq!(accepted, vec![(i(1), 1 << 22, b(1), ConsensusValue::Skip)]);
    }

    #[test]
    fn decisions_serve_retransmissions() {
        let mut a = Acceptor::new(GroupId::new(0));
        a.on_decision(i(1), 1, val(1));
        a.on_decision(i(2), 3, ConsensusValue::Skip);
        a.on_decision(i(5), 1, val(5));
        let (ranges, trimmed) = a.serve_retransmit(i(3), i(5));
        assert_eq!(trimmed, InstanceId::ZERO);
        // The straddling skip range and instance 5.
        assert_eq!(ranges.len(), 2);
        assert_eq!(ranges[0].0, i(2));
        assert_eq!(ranges[1].0, i(5));
        assert!(a.decided_at(i(4)).unwrap().value.is_skip());
        assert_eq!(a.decided_at(i(9)), None);
    }

    #[test]
    fn trim_drops_old_state() {
        let mut a = Acceptor::new(GroupId::new(0));
        for n in 1..=10 {
            a.on_phase2(b(1), i(n), 1, &val(n));
            a.on_decision(i(n), 1, val(n));
        }
        a.trim(i(7));
        assert_eq!(a.decided_at(i(7)), None);
        assert!(a.decided_at(i(8)).is_some());
        let (ranges, trimmed) = a.serve_retransmit(i(1), i(10));
        assert_eq!(trimmed, i(7));
        assert_eq!(ranges.first().unwrap().0, i(8));
        // Trimming backwards is a no-op.
        a.trim(i(3));
        assert_eq!(a.serve_retransmit(i(1), i(10)).1, i(7));
    }

    #[test]
    fn straddling_range_survives_trim() {
        let mut a = Acceptor::new(GroupId::new(0));
        a.on_decision(i(1), 10, ConsensusValue::Skip);
        a.trim(i(5));
        // The range 1..=10 straddles the watermark and is kept whole.
        assert!(a.decided_at(i(9)).is_some());
    }

    #[test]
    fn recovery_restores_log_state() {
        let rec = AcceptorRecovery {
            promised: b(4),
            accepted: vec![(i(1), 1, b(4), val(1))],
            decided: vec![(i(1), 1, val(1))],
            trimmed: InstanceId::ZERO,
        };
        let mut a = Acceptor::recover(GroupId::new(0), rec);
        assert_eq!(a.promised(), b(4));
        assert!(a.decided_at(i(1)).is_some());
        assert!(matches!(
            a.on_phase1a(b(3), i(1)),
            Phase1Outcome::Rejected { .. }
        ));
    }
}
