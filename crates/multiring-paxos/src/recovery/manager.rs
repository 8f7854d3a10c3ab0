//! Replica recovery (Section 5.2).
//!
//! A recovering replica must rebuild a state consistent with its
//! partition peers. It queries the peers for their most recent durable
//! checkpoints, waits for a recovery quorum `Q_R` (a majority of the
//! partition, the recovering replica included), installs the most
//! up-to-date checkpoint available (Predicate 3) — preferring its own
//! local checkpoint when it is close enough (the "too old" optimization
//! of Section 5.1) — and then retransmits the missing consensus
//! instances from the acceptors.

use crate::recovery::CheckpointId;
use crate::types::ProcessId;
use bytes::Bytes;
use std::collections::BTreeMap;

/// Prefer the local checkpoint unless a peer's is ahead by more than
/// this many watermark units, summed over groups (Section 5.1's "too
/// old" heuristic: state transfer costs more than a short catch-up).
const PREFER_LOCAL_WITHIN: u64 = 1_000;

/// Where the recovery protocol stands.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum RecoveryPhase {
    /// Querying partition peers for checkpoint ids.
    Querying,
    /// Fetching a remote checkpoint snapshot.
    Fetching,
    /// Recovery complete (checkpoint chosen and installed).
    Complete,
}

/// What the replica should do next, produced by the manager when enough
/// information arrived.
#[derive(Clone, PartialEq, Debug)]
pub enum Resolution {
    /// Keep the locally available checkpoint (or start fresh if `None`):
    /// no peer had anything meaningfully newer.
    UseLocal(Option<CheckpointId>),
    /// Install the fetched remote checkpoint.
    Install {
        /// The checkpoint id.
        id: CheckpointId,
        /// Serialized application state.
        snapshot: Bytes,
    },
}

/// Messages the manager wants sent, expressed abstractly so the replica
/// layer can wrap them into [`crate::event::Message`]s.
#[derive(Clone, PartialEq, Debug)]
pub enum RecoveryStep {
    /// Send `CheckpointQuery { seq }` to each process.
    Query {
        /// Correlation sequence number.
        seq: u64,
        /// Peers to query.
        peers: Vec<ProcessId>,
    },
    /// Send `CheckpointFetch { seq, id }` to `from`.
    Fetch {
        /// Correlation sequence number.
        seq: u64,
        /// The peer holding the checkpoint.
        from: ProcessId,
        /// The checkpoint to transfer.
        id: CheckpointId,
    },
}

/// The recovery protocol state machine at a recovering replica.
#[derive(Debug)]
pub struct RecoveryManager {
    peers: Vec<ProcessId>,
    /// Majority of the partition (peers + self).
    quorum: usize,
    local: Option<CheckpointId>,
    seq: u64,
    phase: RecoveryPhase,
    replies: BTreeMap<ProcessId, Option<CheckpointId>>,
    chosen: Option<(ProcessId, CheckpointId)>,
}

impl RecoveryManager {
    /// Creates a manager for a replica whose partition peers are `peers`
    /// (excluding the replica itself) and whose local durable checkpoint
    /// is `local`.
    pub fn new(peers: Vec<ProcessId>, local: Option<CheckpointId>) -> Self {
        let quorum = peers.len().div_ceil(2) + 1;
        Self {
            peers,
            quorum,
            local,
            seq: 0,
            phase: RecoveryPhase::Querying,
            replies: BTreeMap::new(),
            chosen: None,
        }
    }

    /// Current phase.
    pub fn phase(&self) -> RecoveryPhase {
        self.phase
    }

    /// Kicks off recovery. Returns the first step, or a resolution if no
    /// peers exist (singleton partition).
    pub fn start(&mut self) -> Result<RecoveryStep, Resolution> {
        if self.peers.is_empty() {
            self.phase = RecoveryPhase::Complete;
            return Err(Resolution::UseLocal(self.local.clone()));
        }
        self.seq += 1;
        self.phase = RecoveryPhase::Querying;
        self.replies.clear();
        Ok(RecoveryStep::Query {
            seq: self.seq,
            peers: self.peers.clone(),
        })
    }

    /// Handles a `CheckpointInfo` reply. Returns the next step or the
    /// final resolution once a recovery quorum `Q_R` has answered.
    pub fn on_info(
        &mut self,
        from: ProcessId,
        seq: u64,
        checkpoint: Option<CheckpointId>,
    ) -> Option<Result<RecoveryStep, Resolution>> {
        if self.phase != RecoveryPhase::Querying || seq != self.seq {
            return None;
        }
        if !self.peers.contains(&from) {
            return None;
        }
        self.replies.insert(from, checkpoint);
        // Q_R = majority of the partition; the recovering replica itself
        // counts as one member.
        if self.replies.len() + 1 < self.quorum {
            return None;
        }
        // Predicate 3: pick the most up-to-date checkpoint in Q_R.
        let best_remote: Option<(ProcessId, CheckpointId)> = self
            .replies
            .iter()
            .filter_map(|(&p, c)| c.clone().map(|c| (p, c)))
            .max_by(|(_, a), (_, b)| a.cmp_total(b));
        let local_total = self.local.as_ref().map_or(0, CheckpointId::total_instances);
        match best_remote {
            Some((owner, remote))
                if remote.total_instances() > local_total + PREFER_LOCAL_WITHIN =>
            {
                self.phase = RecoveryPhase::Fetching;
                self.seq += 1;
                self.chosen = Some((owner, remote.clone()));
                Some(Ok(RecoveryStep::Fetch {
                    seq: self.seq,
                    from: owner,
                    id: remote,
                }))
            }
            _ => {
                self.phase = RecoveryPhase::Complete;
                Some(Err(Resolution::UseLocal(self.local.clone())))
            }
        }
    }

    /// Handles a `CheckpointData` reply carrying the snapshot (or `None`
    /// if the peer no longer holds it, in which case recovery restarts).
    pub fn on_data(
        &mut self,
        seq: u64,
        id: &CheckpointId,
        snapshot: Option<Bytes>,
    ) -> Option<Result<RecoveryStep, Resolution>> {
        if self.phase != RecoveryPhase::Fetching || seq != self.seq {
            return None;
        }
        match (&self.chosen, snapshot) {
            (Some((_, chosen_id)), Some(bytes)) if chosen_id == id => {
                self.phase = RecoveryPhase::Complete;
                Some(Err(Resolution::Install {
                    id: id.clone(),
                    snapshot: bytes,
                }))
            }
            _ => {
                // The peer lost the checkpoint (e.g. it advanced and
                // dropped the old one): restart the query round.
                Some(self.start())
            }
        }
    }

    /// Retry hook for the `RecoveryRetry` timer: re-issues the current
    /// step (peers may have been down or messages lost).
    pub fn on_retry(&mut self) -> Option<RecoveryStep> {
        match self.phase {
            RecoveryPhase::Querying => {
                let missing: Vec<ProcessId> = self
                    .peers
                    .iter()
                    .copied()
                    .filter(|p| !self.replies.contains_key(p))
                    .collect();
                (!missing.is_empty()).then_some(RecoveryStep::Query {
                    seq: self.seq,
                    peers: missing,
                })
            }
            RecoveryPhase::Fetching => self.chosen.clone().map(|(from, id)| RecoveryStep::Fetch {
                seq: self.seq,
                from,
                id,
            }),
            RecoveryPhase::Complete => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{GroupId, InstanceId};

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn ckpt(n: u64) -> CheckpointId {
        CheckpointId {
            marks: vec![(GroupId::new(0), InstanceId::new(n))],
        }
    }

    #[test]
    fn singleton_partition_uses_local() {
        let mut m = RecoveryManager::new(vec![], Some(ckpt(5)));
        match m.start() {
            Err(Resolution::UseLocal(Some(c))) => assert_eq!(c, ckpt(5)),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(m.phase(), RecoveryPhase::Complete);
    }

    #[test]
    fn fetches_newer_remote_checkpoint() {
        let mut m = RecoveryManager::new(vec![p(1), p(2)], Some(ckpt(5)));
        let step = m.start().unwrap();
        let RecoveryStep::Query { seq, peers } = step else {
            panic!()
        };
        assert_eq!(peers.len(), 2);
        // Quorum of partition {me,1,2} is 2 → one peer reply suffices.
        let next = m.on_info(p(1), seq, Some(ckpt(5_000))).unwrap().unwrap();
        let RecoveryStep::Fetch {
            seq: fseq,
            from,
            id,
        } = next
        else {
            panic!()
        };
        assert_eq!(from, p(1));
        assert_eq!(id, ckpt(5_000));
        let res = m.on_data(fseq, &ckpt(5_000), Some(Bytes::from_static(b"s")));
        match res {
            Some(Err(Resolution::Install { id, snapshot })) => {
                assert_eq!(id, ckpt(5_000));
                assert_eq!(&snapshot[..], b"s");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn prefers_local_when_close_enough() {
        let mut m = RecoveryManager::new(vec![p(1), p(2)], Some(ckpt(4_000)));
        let RecoveryStep::Query { seq, .. } = m.start().unwrap() else {
            panic!()
        };
        // Remote is ahead by 1 000 ≤ PREFER_LOCAL_WITHIN: stay local.
        match m.on_info(p(1), seq, Some(ckpt(5_000))) {
            Some(Err(Resolution::UseLocal(Some(c)))) => assert_eq!(c, ckpt(4_000)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn no_remote_checkpoints_means_local_or_fresh() {
        let mut m = RecoveryManager::new(vec![p(1), p(2)], None);
        let RecoveryStep::Query { seq, .. } = m.start().unwrap() else {
            panic!()
        };
        match m.on_info(p(2), seq, None) {
            Some(Err(Resolution::UseLocal(None))) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn lost_snapshot_restarts_query() {
        let mut m = RecoveryManager::new(vec![p(1), p(2)], None);
        let RecoveryStep::Query { seq, .. } = m.start().unwrap() else {
            panic!()
        };
        let RecoveryStep::Fetch { seq: fseq, id, .. } =
            m.on_info(p(1), seq, Some(ckpt(9_000))).unwrap().unwrap()
        else {
            panic!()
        };
        match m.on_data(fseq, &id, None) {
            Some(Ok(RecoveryStep::Query { .. })) => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(m.phase(), RecoveryPhase::Querying);
    }

    #[test]
    fn stale_and_foreign_replies_ignored() {
        let mut m = RecoveryManager::new(vec![p(1), p(2)], None);
        let RecoveryStep::Query { seq, .. } = m.start().unwrap() else {
            panic!()
        };
        assert!(m.on_info(p(1), seq + 9, Some(ckpt(1))).is_none());
        assert!(m.on_info(p(7), seq, Some(ckpt(1))).is_none());
    }

    #[test]
    fn retry_targets_missing_peers() {
        let mut m = RecoveryManager::new(vec![p(1), p(2), p(3), p(4)], None);
        let RecoveryStep::Query { seq, .. } = m.start().unwrap() else {
            panic!()
        };
        // Quorum of 5 is 3 → two replies are not enough.
        assert!(m.on_info(p(1), seq, None).is_none());
        match m.on_retry() {
            Some(RecoveryStep::Query { peers, .. }) => {
                assert_eq!(peers, vec![p(2), p(3), p(4)]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
