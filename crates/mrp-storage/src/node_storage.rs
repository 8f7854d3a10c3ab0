//! The logical stable state of one process.

use bytes::Bytes;
use multiring_paxos::event::PersistRecord;
use multiring_paxos::paxos::AcceptorRecovery;
use multiring_paxos::recovery::CheckpointId;
use multiring_paxos::types::{Ballot, ConsensusValue, GroupId, InstanceId};
use std::collections::BTreeMap;

/// Durable acceptor state for one ring: everything an acceptor must
/// reload to participate safely after a crash (Section 5.1: "before
/// responding ... an acceptor must log its response onto stable
/// storage").
#[derive(Clone, Default, Debug)]
pub struct AcceptorLog {
    promised: Ballot,
    promised_from: InstanceId,
    /// Votes keyed by first instance: `(count, ballot, value)`.
    votes: BTreeMap<InstanceId, (u32, Ballot, ConsensusValue)>,
    /// Decision markers whose value must be resolved from `votes` at
    /// recovery time (written by the tiny async `Decision` record).
    markers: BTreeMap<InstanceId, u32>,
    trimmed: InstanceId,
}

impl AcceptorLog {
    /// A fresh, empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a promise.
    pub fn promise(&mut self, ballot: Ballot, from: InstanceId) {
        if ballot > self.promised {
            self.promised = ballot;
            self.promised_from = from;
        }
    }

    /// Records a vote.
    pub fn vote(&mut self, ballot: Ballot, first: InstanceId, count: u32, value: ConsensusValue) {
        if ballot > self.promised {
            self.promised = ballot;
        }
        self.votes.insert(first, (count, ballot, value));
    }

    /// Records a value-less decision marker; the value is resolved from
    /// the logged vote at recovery time.
    pub fn decision_marker(&mut self, first: InstanceId, count: u32) {
        if first > self.trimmed {
            self.markers.insert(first, count);
        }
    }

    /// Deletes state up to `upto` (inclusive); ranges straddling the
    /// watermark are kept whole.
    pub fn trim(&mut self, upto: InstanceId) {
        if upto <= self.trimmed {
            return;
        }
        self.trimmed = upto;
        self.votes
            .retain(|&f, &mut (c, _, _)| f.plus(u64::from(c) - 1) > upto);
        self.markers
            .retain(|&f, &mut c| f.plus(u64::from(c) - 1) > upto);
    }

    /// The trim watermark.
    pub fn trimmed(&self) -> InstanceId {
        self.trimmed
    }

    /// Approximate bytes retained (payloads only), for metrics.
    pub fn payload_bytes(&self) -> usize {
        self.votes.values().map(|(_, _, v)| v.payload_bytes()).sum()
    }

    /// Builds the recovery image for a restarting acceptor. Decision
    /// markers are resolved against the logged votes; markers whose vote
    /// was superseded or lost are dropped (the live ring will re-decide
    /// or retransmission falls back to another acceptor).
    pub fn recovery(&self) -> AcceptorRecovery {
        let decided = self
            .markers
            .iter()
            .filter_map(|(&first, &count)| match self.votes.get(&first) {
                Some((vcount, _, value)) if *vcount == count => Some((first, count, value.clone())),
                _ => None,
            })
            .collect();
        AcceptorRecovery {
            promised: self.promised,
            accepted: self
                .votes
                .iter()
                .map(|(&f, &(c, b, ref v))| (f, c, b, v.clone()))
                .collect(),
            decided,
            trimmed: self.trimmed,
        }
    }
}

/// The complete stable state of one process: acceptor logs per ring plus
/// the most recent replica checkpoint.
///
/// The simulator keeps one `NodeStorage` per process across simulated
/// crashes; the TCP runtime persists it via [`crate::DirStorage`].
#[derive(Clone, Default, Debug)]
pub struct NodeStorage {
    logs: BTreeMap<GroupId, AcceptorLog>,
    checkpoint: Option<(CheckpointId, Bytes)>,
}

impl NodeStorage {
    /// Empty storage (first boot).
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies a persist record (called when the write becomes durable).
    pub fn apply(&mut self, record: &PersistRecord) {
        match record {
            PersistRecord::Promise { ring, ballot, from } => {
                self.logs.entry(*ring).or_default().promise(*ballot, *from);
            }
            PersistRecord::Vote {
                ring,
                ballot,
                first,
                count,
                value,
            } => {
                self.logs
                    .entry(*ring)
                    .or_default()
                    .vote(*ballot, *first, *count, value.clone());
            }
            PersistRecord::Checkpoint { id, snapshot } => {
                self.checkpoint = Some((id.clone(), snapshot.clone()));
            }
            PersistRecord::Decision { ring, first, count } => {
                self.logs
                    .entry(*ring)
                    .or_default()
                    .decision_marker(*first, *count);
            }
        }
    }

    /// Trims the acceptor log of `ring`.
    pub fn trim(&mut self, ring: GroupId, upto: InstanceId) {
        if let Some(log) = self.logs.get_mut(&ring) {
            log.trim(upto);
        }
    }

    /// The acceptor log of `ring`, if any writes happened.
    pub fn log(&self, ring: GroupId) -> Option<&AcceptorLog> {
        self.logs.get(&ring)
    }

    /// Builds the acceptor recovery images for every ring with a log.
    pub fn acceptor_recovery(&self) -> BTreeMap<GroupId, AcceptorRecovery> {
        self.logs
            .iter()
            .map(|(&ring, log)| (ring, log.recovery()))
            .collect()
    }

    /// The latest durable checkpoint.
    pub fn checkpoint(&self) -> Option<&(CheckpointId, Bytes)> {
        self.checkpoint.as_ref()
    }

    /// Takes the latest durable checkpoint (cloning).
    pub fn checkpoint_cloned(&self) -> Option<(CheckpointId, Bytes)> {
        self.checkpoint.clone()
    }

    /// Total payload bytes retained across rings (metrics/trim tests).
    pub fn payload_bytes(&self) -> usize {
        self.logs.values().map(AcceptorLog::payload_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multiring_paxos::types::{GroupId, ProcessId, Value, ValueId};

    fn b(n: u32) -> Ballot {
        Ballot::new(n, ProcessId::new(0))
    }

    fn i(n: u64) -> InstanceId {
        InstanceId::new(n)
    }

    fn cv(n: u64) -> ConsensusValue {
        ConsensusValue::Values(vec![Value::new(
            ValueId::new(ProcessId::new(1), n),
            GroupId::new(0),
            vec![0u8; 16],
        )])
    }

    #[test]
    fn apply_and_recover_roundtrip() {
        let mut s = NodeStorage::new();
        let ring = GroupId::new(0);
        s.apply(&PersistRecord::Promise {
            ring,
            ballot: b(1),
            from: i(1),
        });
        s.apply(&PersistRecord::Vote {
            ring,
            ballot: b(1),
            first: i(1),
            count: 1,
            value: cv(1),
        });
        s.apply(&PersistRecord::Decision {
            ring,
            first: i(1),
            count: 1,
        });
        let rec = s.acceptor_recovery();
        let log = &rec[&ring];
        assert_eq!(log.promised, b(1));
        assert_eq!(log.accepted.len(), 1);
        assert_eq!(log.decided.len(), 1);
        assert_eq!(log.trimmed, InstanceId::ZERO);
    }

    #[test]
    fn checkpoint_replaces_previous() {
        let mut s = NodeStorage::new();
        let id1 = CheckpointId {
            marks: vec![(GroupId::new(0), i(1))],
        };
        let id2 = CheckpointId {
            marks: vec![(GroupId::new(0), i(5))],
        };
        s.apply(&PersistRecord::Checkpoint {
            id: id1,
            snapshot: Bytes::from_static(b"a"),
        });
        s.apply(&PersistRecord::Checkpoint {
            id: id2.clone(),
            snapshot: Bytes::from_static(b"b"),
        });
        let (id, snap) = s.checkpoint().unwrap();
        assert_eq!(*id, id2);
        assert_eq!(&snap[..], b"b");
    }

    #[test]
    fn trim_reclaims_space() {
        let mut s = NodeStorage::new();
        let ring = GroupId::new(0);
        for n in 1..=10 {
            s.apply(&PersistRecord::Vote {
                ring,
                ballot: b(1),
                first: i(n),
                count: 1,
                value: cv(n),
            });
            s.apply(&PersistRecord::Decision {
                ring,
                first: i(n),
                count: 1,
            });
        }
        let before = s.payload_bytes();
        s.trim(ring, i(8));
        assert!(s.payload_bytes() < before / 2);
        let rec = s.acceptor_recovery();
        assert_eq!(rec[&ring].trimmed, i(8));
        assert_eq!(rec[&ring].accepted.len(), 2);
    }

    #[test]
    fn promise_keeps_highest_ballot() {
        let mut log = AcceptorLog::new();
        log.promise(b(5), i(1));
        log.promise(b(3), i(1));
        assert_eq!(log.recovery().promised, b(5));
        // A higher vote ballot also raises the promise.
        log.vote(b(7), i(1), 1, cv(1));
        assert_eq!(log.recovery().promised, b(7));
    }
}
