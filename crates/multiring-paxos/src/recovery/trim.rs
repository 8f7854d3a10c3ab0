//! Coordinated log trimming (Section 5.2).
//!
//! The coordinator of a multicast group periodically asks the replicas
//! subscribed to the group for the highest consensus instance their
//! durable checkpoints cover (`k[x]_p`). Once a quorum `Q_T` answers, the
//! coordinator computes `K[x]_T = min` over the answers (Predicate 2) and
//! authorizes the ring's acceptors to delete log entries up to it.
//!
//! To guarantee `Q_T ∩ Q_R ≠ ∅` for *every* partition that may later
//! recover a replica (Predicates 4–5), this implementation strengthens
//! the quorum: it waits for a majority of subscribers **within each
//! partition** among the group's subscribers, not just a global majority.

use crate::config::ClusterConfig;
use crate::types::{GroupId, InstanceId, ProcessId};
use std::collections::BTreeMap;

/// The trim protocol state at a group's coordinator.
#[derive(Hash, Debug)]
pub struct TrimCoordinator {
    group: GroupId,
    /// Partition groups among the subscribers of `group`.
    partitions: Vec<Vec<ProcessId>>,
    seq: u64,
    replies: BTreeMap<ProcessId, InstanceId>,
    last_trim: InstanceId,
}

impl TrimCoordinator {
    /// Builds the trim coordinator for `group` (whose ring's acceptors
    /// get trimmed) from the cluster layout.
    pub fn new(group: GroupId, config: &ClusterConfig) -> Self {
        let subscribers = config.subscribers_of(group);
        let mut partitions: Vec<Vec<ProcessId>> = Vec::new();
        for &p in &subscribers {
            let members: Vec<ProcessId> = config
                .partition_of(p)
                .into_iter()
                .filter(|q| subscribers.contains(q))
                .collect();
            if !partitions.contains(&members) {
                partitions.push(members);
            }
        }
        Self {
            group,
            partitions,
            seq: 0,
            replies: BTreeMap::new(),
            last_trim: InstanceId::ZERO,
        }
    }

    /// The group being trimmed.
    pub fn group(&self) -> GroupId {
        self.group
    }

    /// The highest instance already authorized for trimming.
    pub fn last_trim(&self) -> InstanceId {
        self.last_trim
    }

    /// All subscribers queried by the protocol.
    pub fn subscribers(&self) -> Vec<ProcessId> {
        let mut all: Vec<ProcessId> = self.partitions.iter().flatten().copied().collect();
        all.sort_unstable();
        all.dedup();
        all
    }

    /// Starts a new round: returns the query sequence number and the
    /// replicas to query.
    pub fn begin_round(&mut self) -> (u64, Vec<ProcessId>) {
        self.seq += 1;
        self.replies.clear();
        (self.seq, self.subscribers())
    }

    /// Records a reply. When the per-partition majorities are all in,
    /// returns the new trim watermark `K[x]_T` (only if it advances).
    pub fn on_reply(&mut self, from: ProcessId, seq: u64, safe: InstanceId) -> Option<InstanceId> {
        if seq != self.seq {
            return None;
        }
        self.replies.insert(from, safe);
        let quorate = self.partitions.iter().all(|members| {
            let majority = members.len() / 2 + 1;
            members
                .iter()
                .filter(|p| self.replies.contains_key(p))
                .count()
                >= majority
        });
        if !quorate {
            return None;
        }
        // Predicate 2: K ≤ k[x]_p for every p in the quorum — take the
        // minimum over everything heard this round.
        let k = self.replies.values().copied().min()?;
        if k > self.last_trim {
            self.last_trim = k;
            // Close the round so late replies do not re-trigger.
            self.seq += 1;
            self.replies.clear();
            Some(k)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ClusterConfig, RingSpec, Roles};

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn g(i: u16) -> GroupId {
        GroupId::new(i)
    }

    fn i(n: u64) -> InstanceId {
        InstanceId::new(n)
    }

    fn three_replica_config() -> ClusterConfig {
        crate::config::single_ring(3, crate::config::RingTuning::default())
    }

    #[test]
    fn trims_at_quorum_minimum() {
        let cfg = three_replica_config();
        let mut tc = TrimCoordinator::new(g(0), &cfg);
        let (seq, targets) = tc.begin_round();
        assert_eq!(targets, vec![p(0), p(1), p(2)]);
        assert_eq!(tc.on_reply(p(0), seq, i(10)), None);
        // Majority of the single partition {0,1,2} is 2: second reply
        // closes the round with the minimum.
        assert_eq!(tc.on_reply(p(1), seq, i(7)), Some(i(7)));
        assert_eq!(tc.last_trim(), i(7));
    }

    #[test]
    fn stale_replies_ignored() {
        let cfg = three_replica_config();
        let mut tc = TrimCoordinator::new(g(0), &cfg);
        let (seq, _) = tc.begin_round();
        assert_eq!(tc.on_reply(p(0), seq + 5, i(10)), None);
        assert_eq!(tc.on_reply(p(0), seq, i(10)), None);
        assert_eq!(tc.on_reply(p(1), seq, i(10)), Some(i(10)));
        // A late third reply cannot re-trigger the closed round.
        assert_eq!(tc.on_reply(p(2), seq, i(3)), None);
    }

    #[test]
    fn watermark_only_advances() {
        let cfg = three_replica_config();
        let mut tc = TrimCoordinator::new(g(0), &cfg);
        let (seq, _) = tc.begin_round();
        tc.on_reply(p(0), seq, i(10));
        tc.on_reply(p(1), seq, i(10));
        assert_eq!(tc.last_trim(), i(10));
        let (seq2, _) = tc.begin_round();
        tc.on_reply(p(0), seq2, i(9));
        assert_eq!(tc.on_reply(p(1), seq2, i(9)), None);
        assert_eq!(tc.last_trim(), i(10));
    }

    #[test]
    fn per_partition_majorities_required() {
        // Five subscribers of g1: partition A = {0,1} (subscribe to g0
        // and g1), partition B = {2,3,4} (subscribe to g1 only).
        let mut spec0 = RingSpec::new(g(0));
        let mut spec1 = RingSpec::new(g(1));
        for n in 0..5 {
            spec0 = spec0.member(p(n), Roles::ALL);
            spec1 = spec1.member(p(n), Roles::ALL);
        }
        let mut b = ClusterConfig::builder().ring(spec0).ring(spec1);
        for n in 0..2 {
            b = b.subscribe(p(n), g(0)).subscribe(p(n), g(1));
        }
        for n in 2..5 {
            b = b.subscribe(p(n), g(1));
        }
        let cfg = b.build().unwrap();
        let mut tc = TrimCoordinator::new(g(1), &cfg);
        let (seq, targets) = tc.begin_round();
        assert_eq!(targets.len(), 5);
        // A global majority (3 of 5) drawn only from partition B must
        // NOT trigger: partition A has no majority yet.
        assert_eq!(tc.on_reply(p(2), seq, i(5)), None);
        assert_eq!(tc.on_reply(p(3), seq, i(6)), None);
        assert_eq!(tc.on_reply(p(4), seq, i(7)), None);
        // One reply from partition A ({0,1} majority = 1... no: 2/2+1=2).
        assert_eq!(tc.on_reply(p(0), seq, i(4)), None);
        assert_eq!(tc.on_reply(p(1), seq, i(9)), Some(i(4)));
    }
}
