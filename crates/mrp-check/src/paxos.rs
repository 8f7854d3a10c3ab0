//! Paxos safety beneath [`AbstractAmcast`](crate::AbstractAmcast): what a
//! ring's acceptors write to stable storage, judged as Paxos.
//!
//! Every `PersistRecord::{Promise, Vote, Decision}` an acceptor writes
//! passes through its host's `Io::write`. [`PaxosSpec`] consumes that
//! stream — the checker's recording driver feeds it after every step,
//! and the simulator's `Cluster::check_history` replays every record its
//! actors wrote — and checks, per ring:
//!
//! * each acceptor's promised ballot never decreases;
//! * no acceptor votes at a ballot below its promise;
//! * a value is *chosen* over a range once a majority of the ring's
//!   acceptors voted it, over that range, at one ballot; no instance has
//!   two chosen values;
//! * every `Decision` record covers only chosen instances.
//!
//! A mistake in Phase 1 surfaces here at the vote that makes it, long
//! before a delivery inversion would reach [`AbstractAmcast`](crate::AbstractAmcast).
//! State is kept per range, as the records carry it: one voted skip may
//! span `u32::MAX` instances. A ring in the `InMemory` storage mode
//! writes no record, so it gives the spec nothing to judge.

use std::collections::{BTreeMap, BTreeSet};

use multiring_paxos::config::ClusterConfig;
use multiring_paxos::event::PersistRecord;
use multiring_paxos::types::{Ballot, ConsensusValue, GroupId, InstanceId, ProcessId};

/// A value voted for a proposal, and who voted it.
type Tally = (ConsensusValue, BTreeSet<ProcessId>);

/// The Paxos state the records establish; see the module docs.
#[derive(Clone, Debug, Default)]
pub struct PaxosSpec {
    /// Quorum size of each ring.
    majority: BTreeMap<GroupId, usize>,
    /// Each `(ring, acceptor)`'s highest promise (a vote promises too).
    promised: BTreeMap<(GroupId, ProcessId), Ballot>,
    /// Per proposal `(ring, ballot, first, count)`: each value voted
    /// there, with its voters.
    votes: BTreeMap<(GroupId, Ballot, InstanceId, u32), Vec<Tally>>,
    /// Per ring, the chosen ranges, disjoint: `first → (last, value)`.
    chosen: BTreeMap<GroupId, BTreeMap<InstanceId, (InstanceId, ConsensusValue)>>,
}

impl PaxosSpec {
    /// A spec for the rings of `config`, nothing written yet.
    pub fn new(config: &ClusterConfig) -> Self {
        Self {
            majority: (config.rings().iter())
                .map(|(&g, ring)| (g, ring.majority()))
                .collect(),
            ..Self::default()
        }
    }

    /// Judges `record`, written by `acceptor`.
    ///
    /// # Errors
    ///
    /// The invariant the record breaks, described.
    pub fn record(&mut self, acceptor: ProcessId, record: &PersistRecord) -> Result<(), String> {
        match *record {
            PersistRecord::Promise { ring, ballot, .. } => {
                self.promise(ring, acceptor, ballot, "promised")
            }
            PersistRecord::Vote {
                ring,
                ballot,
                first,
                count,
                ref value,
            } => {
                self.promise(ring, acceptor, ballot, "voted at")?;
                let majority = *self
                    .majority
                    .get(&ring)
                    .ok_or("a vote in an unknown ring")?;
                let tallies = self.votes.entry((ring, ballot, first, count)).or_default();
                let i = match tallies.iter().position(|(v, _)| v == value) {
                    Some(i) => i,
                    None => {
                        tallies.push((value.clone(), BTreeSet::new()));
                        tallies.len() - 1
                    }
                };
                let voters = &mut tallies[i].1;
                if voters.insert(acceptor) && voters.len() == majority {
                    let last = first.plus(u64::from(count) - 1);
                    self.choose(ring, first, last, value)?;
                }
                Ok(())
            }
            PersistRecord::Decision { ring, first, count } => {
                let last = first.plus(u64::from(count) - 1);
                if self.covered(ring, first, last) {
                    Ok(())
                } else {
                    Err(format!(
                        "p{} recorded ring {ring} decided over {first}..={last}, \
                         which is not all chosen",
                        acceptor.value()
                    ))
                }
            }
            PersistRecord::Checkpoint { .. } => Ok(()),
        }
    }

    /// Raises `acceptor`'s promise in `ring` to `ballot`, refusing a
    /// lower one.
    fn promise(
        &mut self,
        ring: GroupId,
        acceptor: ProcessId,
        ballot: Ballot,
        what: &str,
    ) -> Result<(), String> {
        let promised = self.promised.entry((ring, acceptor)).or_default();
        if ballot < *promised {
            return Err(format!(
                "p{} {what} {ballot} in ring {ring} after promising {promised}",
                acceptor.value()
            ));
        }
        *promised = ballot;
        Ok(())
    }

    /// `first..=last` of `ring` is chosen as `value`: refused where a
    /// chosen range overlapping it holds another value, else recorded.
    fn choose(
        &mut self,
        ring: GroupId,
        first: InstanceId,
        last: InstanceId,
        value: &ConsensusValue,
    ) -> Result<(), String> {
        let chosen = self.chosen.entry(ring).or_default();
        let start = chosen
            .range(..=first)
            .next_back()
            .map_or(first, |(&f, _)| f);
        let mut gaps = Vec::new();
        let mut next = first;
        for (&f, (l, v)) in chosen.range(start..=last) {
            if *l < first {
                continue;
            }
            if v != value {
                return Err(format!(
                    "ring {ring} chose {} and {} over {}..={}",
                    name(v),
                    name(value),
                    f.max(first),
                    (*l).min(last)
                ));
            }
            if f > next {
                gaps.push((next, InstanceId::new(f.value() - 1)));
            }
            next = next.max(l.next());
        }
        if next <= last {
            gaps.push((next, last));
        }
        for (f, l) in gaps {
            chosen.insert(f, (l, value.clone()));
        }
        Ok(())
    }

    /// The value chosen at `instance` of `ring`, if any is.
    pub fn chosen(&self, ring: GroupId, instance: InstanceId) -> Option<&ConsensusValue> {
        let (_, (last, value)) = self.chosen.get(&ring)?.range(..=instance).next_back()?;
        (instance <= *last).then_some(value)
    }

    /// Whether every instance of `first..=last` in `ring` is chosen.
    fn covered(&self, ring: GroupId, first: InstanceId, last: InstanceId) -> bool {
        let Some(chosen) = self.chosen.get(&ring) else {
            return false;
        };
        let start = chosen
            .range(..=first)
            .next_back()
            .map_or(first, |(&f, _)| f);
        let mut next = first;
        for (&f, &(l, _)) in chosen.range(start..=last) {
            if l < next {
                continue;
            }
            if f > next {
                return false;
            }
            if l >= last {
                return true;
            }
            next = l.next();
        }
        false
    }
}

/// A short name for a consensus value in a violation.
fn name(value: &ConsensusValue) -> String {
    match value {
        ConsensusValue::Skip => "skip".into(),
        ConsensusValue::Values(vs) => {
            let ids: Vec<String> = vs.iter().map(|v| v.id.to_string()).collect();
            format!("[{}]", ids.join(", "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multiring_paxos::config::{single_ring, RingTuning};
    use multiring_paxos::types::{Value, ValueId};

    fn spec() -> PaxosSpec {
        PaxosSpec::new(&single_ring(3, RingTuning::default()))
    }

    fn p(n: u32) -> ProcessId {
        ProcessId::new(n)
    }

    fn b(round: u32) -> Ballot {
        Ballot::new(round, p(0))
    }

    fn i(n: u64) -> InstanceId {
        InstanceId::new(n)
    }

    fn value(seq: u64) -> ConsensusValue {
        let id = ValueId::new(p(9), seq);
        ConsensusValue::Values(vec![Value::new(id, GroupId::new(0), vec![1])])
    }

    fn vote(ballot: Ballot, first: u64, count: u32, value: ConsensusValue) -> PersistRecord {
        PersistRecord::Vote {
            ring: GroupId::new(0),
            ballot,
            first: i(first),
            count,
            value,
        }
    }

    fn decision(first: u64, count: u32) -> PersistRecord {
        PersistRecord::Decision {
            ring: GroupId::new(0),
            first: i(first),
            count,
        }
    }

    #[test]
    fn a_promise_never_decreases_and_no_vote_goes_below_it() {
        let mut s = spec();
        let promise = |ballot| PersistRecord::Promise {
            ring: GroupId::new(0),
            ballot,
            from: i(1),
        };
        assert_eq!(s.record(p(1), &promise(b(2))), Ok(()));
        assert_eq!(s.record(p(1), &promise(b(2))), Ok(()));
        assert!(s.record(p(1), &promise(b(1))).is_err());
        assert!(s.record(p(1), &vote(b(1), 1, 1, value(1))).is_err());
        // A vote at a higher ballot is a promise of it.
        assert_eq!(s.record(p(2), &vote(b(3), 1, 1, value(1))), Ok(()));
        assert!(s.record(p(2), &promise(b(2))).is_err());
    }

    #[test]
    fn a_majority_at_one_ballot_chooses_and_a_second_value_is_refused() {
        let mut s = spec();
        let skip = ConsensusValue::Skip;
        assert_eq!(
            s.record(p(0), &vote(b(1), 1, 1 << 31, skip.clone())),
            Ok(())
        );
        // One vote chooses nothing: its decision is refused.
        assert!(s.record(p(0), &decision(1, 1 << 31)).is_err());
        assert_eq!(
            s.record(p(1), &vote(b(1), 1, 1 << 31, skip.clone())),
            Ok(())
        );
        assert_eq!(s.record(p(2), &decision(1, 1 << 31)), Ok(()));
        // The same value again over a piece of it, at a later ballot.
        assert_eq!(s.record(p(1), &vote(b(2), 5, 3, skip.clone())), Ok(()));
        assert_eq!(s.record(p(2), &vote(b(2), 5, 3, skip)), Ok(()));
        // Another value over an instance inside it.
        assert_eq!(s.record(p(1), &vote(b(3), 9, 1, value(1))), Ok(()));
        let err = s.record(p(2), &vote(b(3), 9, 1, value(1)));
        assert!(err.is_err_and(|e| e.contains("chose skip and")));
        // A decision past everything chosen.
        assert!(s.record(p(2), &decision(1 << 31, 2)).is_err());
    }

    #[test]
    fn a_decision_may_span_adjacent_chosen_ranges() {
        let mut s = spec();
        for (first, count) in [(3, 2), (1, 2)] {
            for a in [p(0), p(1)] {
                let v = vote(b(1), first, count, ConsensusValue::Skip);
                assert_eq!(s.record(a, &v), Ok(()));
            }
        }
        assert_eq!(s.record(p(0), &decision(1, 4)), Ok(()));
        assert!(s.record(p(0), &decision(1, 5)).is_err());
    }
}
