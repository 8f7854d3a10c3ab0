//! The acceptor role: promises, votes, decisions and the trimmable log.

use crate::types::{Ballot, ConsensusValue, GroupId, InstanceId};
use std::collections::BTreeMap;

/// A contiguous range of instances sharing one consensus value (client
/// values always span one instance; rate-leveling skips may span many).
#[derive(Clone, PartialEq, Debug)]
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
    /// The acceptor promises the ballot; reply with a Phase 1B carrying
    /// the accepted values at or after the requested instance.
    Promised {
        /// Accepted `(instance, ballot, value)` triples to report.
        accepted: Vec<(InstanceId, Ballot, ConsensusValue)>,
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
        let mut a = Self::new(ring);
        a.promised = rec.promised;
        for (first, count, ballot, value) in rec.accepted {
            a.accepted.insert(first, (count, ballot, value));
        }
        for (first, count, value) in rec.decided {
            a.decided.insert(first, (count, value));
        }
        a.trimmed = rec.trimmed;
        a
    }

    /// The ring this acceptor serves.
    pub fn ring(&self) -> GroupId {
        self.ring
    }

    /// The currently promised ballot.
    pub fn promised(&self) -> Ballot {
        self.promised
    }

    /// The trim watermark: instances at or below it have been deleted.
    pub fn trimmed(&self) -> InstanceId {
        self.trimmed
    }

    /// Handles Phase 1A: promise `ballot` for all instances at or after
    /// `from` if it is not stale.
    pub fn on_phase1a(&mut self, ballot: Ballot, from: InstanceId) -> Phase1Outcome {
        if ballot < self.promised {
            return Phase1Outcome::Rejected {
                promised: self.promised,
            };
        }
        self.promised = ballot;
        let accepted = self
            .accepted
            .iter()
            .filter(|&(&first, &(count, _, _))| first.plus(u64::from(count) - 1) >= from)
            .flat_map(|(&first, &(count, b, ref v))| {
                // Report per instance so the coordinator can re-propose
                // exactly the instances that need it.
                (0..u64::from(count)).map(move |k| (first.plus(k), b, v.clone()))
            })
            .filter(|&(i, _, _)| i >= from)
            .collect();
        Phase1Outcome::Promised { accepted }
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
        let mut out = Vec::new();
        // Start from the last range beginning at or before `from` (it may
        // straddle), then walk forward.
        let start = self
            .decided
            .range(..=from)
            .next_back()
            .map_or(from, |(&f, _)| f);
        for (&first, &(count, ref value)) in self.decided.range(start..) {
            if first > to {
                break;
            }
            let r = InstanceRange {
                first,
                count,
                value: value.clone(),
            };
            if r.last() < from {
                continue;
            }
            out.push((first, count, value.clone()));
        }
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
        match a.on_phase1a(b(2), i(3)) {
            Phase1Outcome::Promised { accepted } => {
                let insts: Vec<u64> = accepted.iter().map(|&(x, _, _)| x.value()).collect();
                // Skip range 2..=4 contributes instances 3 and 4 only.
                assert_eq!(insts, vec![3, 4, 5]);
            }
            other => panic!("unexpected {other:?}"),
        }
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
        assert_eq!(a.trimmed(), i(7));
        assert_eq!(a.decided_at(i(7)), None);
        assert!(a.decided_at(i(8)).is_some());
        let (ranges, trimmed) = a.serve_retransmit(i(1), i(10));
        assert_eq!(trimmed, i(7));
        assert_eq!(ranges.first().unwrap().0, i(8));
        // Trimming backwards is a no-op.
        a.trim(i(3));
        assert_eq!(a.trimmed(), i(7));
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
