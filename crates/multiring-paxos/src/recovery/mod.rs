//! Recovery: checkpoint identifiers, coordinated log trimming and replica
//! recovery (Section 5 of the paper).
//!
//! Recovery in Multi-Ring Paxos is more elaborate than in a single ring
//! because replicas subscribed to different group sets evolve through
//! different state sequences. The protocol pieces are:
//!
//! * [`CheckpointId`] — a replica checkpoint is identified by a *tuple* of
//!   consensus instances, one entry per subscribed group, plus the
//!   deterministic-merge cursor; Predicate 1 of the paper (monotonicity
//!   along the round-robin delivery order) makes tuples of one partition
//!   totally ordered.
//! * [`trim::TrimCoordinator`] — the coordinator of a group periodically
//!   collects checkpoint watermarks from a quorum `Q_T` of subscribed
//!   replicas and authorizes acceptors to trim their logs up to the
//!   quorum minimum (Predicate 2).
//! * [`manager::RecoveryManager`] — a recovering replica queries a quorum
//!   `Q_R` of partition peers, installs the most recent checkpoint
//!   available (Predicate 3) and retransmits the missing instances from
//!   acceptors; `Q_T ∩ Q_R ≠ ∅` guarantees those instances have not been
//!   trimmed (Predicates 4–5).

pub mod manager;
pub mod trim;

pub use manager::{RecoveryManager, RecoveryPhase, RecoveryStep, Resolution};
pub use trim::TrimCoordinator;

use crate::types::{GroupId, InstanceId};
use std::cmp::Ordering;
use std::fmt;

/// Identifies a replica checkpoint: for every subscribed group, the
/// highest consensus instance whose effects are reflected in the
/// checkpointed state, plus the position of the deterministic merge
/// cursor at checkpoint time.
///
/// Within one partition (replicas with identical subscription sets),
/// checkpoints are totally ordered (Predicate 1 of the paper):
/// comparing any two, one dominates the other component-wise.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct CheckpointId {
    /// `(group, highest reflected instance)` pairs, sorted by group id
    /// (the round-robin order of the merge).
    pub marks: Vec<(GroupId, InstanceId)>,
    /// Index (into the sorted group list) of the group the merge would
    /// consume from next.
    pub cursor_group: u32,
    /// Instances already consumed from that group in the current
    /// `M`-instance window.
    pub cursor_used: u32,
}

impl CheckpointId {
    /// A checkpoint covering nothing (fresh replica).
    pub fn genesis(groups: &[GroupId]) -> Self {
        Self {
            marks: groups.iter().map(|&g| (g, InstanceId::ZERO)).collect(),
            cursor_group: 0,
            cursor_used: 0,
        }
    }

    /// The watermark for `group`, or [`InstanceId::ZERO`] if the group is
    /// not part of this checkpoint.
    pub fn mark_of(&self, group: GroupId) -> InstanceId {
        self.marks
            .iter()
            .find(|&&(g, _)| g == group)
            .map_or(InstanceId::ZERO, |&(_, i)| i)
    }

    /// Whether both checkpoints cover the same group set (i.e. belong to
    /// the same partition).
    pub fn same_partition(&self, other: &CheckpointId) -> bool {
        self.marks.len() == other.marks.len()
            && self
                .marks
                .iter()
                .zip(&other.marks)
                .all(|(&(g, _), &(h, _))| g == h)
    }

    /// Whether every mark of `self` is at least the corresponding mark of
    /// `other` (the `≥` of Predicate 3).
    pub fn dominates(&self, other: &CheckpointId) -> bool {
        self.same_partition(other)
            && self
                .marks
                .iter()
                .zip(&other.marks)
                .all(|(&(_, a), &(_, b))| a >= b)
    }

    /// Total order among checkpoints of the same partition.
    ///
    /// Predicate 1 guarantees that valid checkpoints are componentwise
    /// comparable; for robustness against malformed inputs this falls
    /// back to lexicographic comparison when neither dominates.
    pub fn cmp_total(&self, other: &CheckpointId) -> Ordering {
        if self.dominates(other) && other.dominates(self) {
            Ordering::Equal
        } else if self.dominates(other) {
            Ordering::Greater
        } else if other.dominates(self) {
            Ordering::Less
        } else {
            // Not expected for checkpoints produced by the protocol;
            // compare lexicographically so the order stays total.
            self.marks
                .iter()
                .map(|&(_, i)| i)
                .cmp(other.marks.iter().map(|&(_, i)| i))
        }
    }

    /// Total consensus instances covered by this checkpoint, summed over
    /// groups. Useful as a cheap progress metric.
    pub fn total_instances(&self) -> u64 {
        self.marks.iter().map(|&(_, i)| i.value()).sum()
    }

    /// Checks Predicate 1 of the paper: since the merge consumes groups
    /// round-robin in group-id order, for any two subscribed groups
    /// `x < y` the checkpoint must satisfy `k[x] >= k[y]` whenever both
    /// groups have seen the same number of merge rounds.
    ///
    /// With `m` instances consumed per group per round, a valid cursor
    /// position implies marks differ by at most `m` across groups and are
    /// non-increasing... more precisely: groups before the cursor are one
    /// window ahead. This verifies exactly that shape.
    pub fn cursor_consistent(&self, m: u32) -> bool {
        let m = u64::from(m);
        if self.marks.is_empty() {
            return self.cursor_group == 0 && self.cursor_used == 0;
        }
        if self.cursor_group as usize >= self.marks.len() || u64::from(self.cursor_used) > m {
            return false;
        }
        // Let r be the number of completed windows of the cursor group.
        let cg = self.cursor_group as usize;
        let r = (self.marks[cg]
            .1
            .value()
            .saturating_sub(u64::from(self.cursor_used)))
            / m;
        for (i, &(_, mark)) in self.marks.iter().enumerate() {
            let expect = match i.cmp(&cg) {
                Ordering::Less => (r + 1) * m,
                Ordering::Equal => r * m + u64::from(self.cursor_used),
                Ordering::Greater => r * m,
            };
            if mark.value() != expect {
                return false;
            }
        }
        true
    }
}

impl fmt::Display for CheckpointId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ckpt[")?;
        for (i, (g, inst)) in self.marks.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}:{}", g.value(), inst.value())?;
        }
        write!(f, "]@{}+{}", self.cursor_group, self.cursor_used)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(i: u16) -> GroupId {
        GroupId::new(i)
    }

    fn ckpt(marks: &[(u16, u64)], cg: u32, cu: u32) -> CheckpointId {
        CheckpointId {
            marks: marks
                .iter()
                .map(|&(gr, i)| (g(gr), InstanceId::new(i)))
                .collect(),
            cursor_group: cg,
            cursor_used: cu,
        }
    }

    #[test]
    fn genesis_covers_nothing() {
        let c = CheckpointId::genesis(&[g(0), g(1)]);
        assert_eq!(c.mark_of(g(0)), InstanceId::ZERO);
        assert_eq!(c.mark_of(g(1)), InstanceId::ZERO);
        assert_eq!(c.mark_of(g(9)), InstanceId::ZERO);
        assert_eq!(c.total_instances(), 0);
        assert!(c.cursor_consistent(1));
    }

    #[test]
    fn domination_and_total_order() {
        let a = ckpt(&[(0, 5), (1, 5)], 0, 0);
        let b = ckpt(&[(0, 6), (1, 5)], 1, 0);
        assert!(b.dominates(&a));
        assert!(!a.dominates(&b));
        assert_eq!(a.cmp_total(&b), Ordering::Less);
        assert_eq!(b.cmp_total(&a), Ordering::Greater);
        assert_eq!(a.cmp_total(&a.clone()), Ordering::Equal);
    }

    #[test]
    fn different_partitions_do_not_dominate() {
        let a = ckpt(&[(0, 5)], 0, 0);
        let b = ckpt(&[(0, 5), (1, 5)], 0, 0);
        assert!(!a.same_partition(&b));
        assert!(!a.dominates(&b));
        assert!(!b.dominates(&a));
    }

    #[test]
    fn predicate1_shape_m1() {
        // With M = 1 and groups (0, 1): valid states alternate.
        assert!(ckpt(&[(0, 0), (1, 0)], 0, 0).cursor_consistent(1));
        assert!(ckpt(&[(0, 1), (1, 0)], 1, 0).cursor_consistent(1));
        assert!(ckpt(&[(0, 1), (1, 1)], 0, 0).cursor_consistent(1));
        assert!(ckpt(&[(0, 2), (1, 1)], 1, 0).cursor_consistent(1));
        // k[0] < k[1] violates Predicate 1.
        assert!(!ckpt(&[(0, 0), (1, 1)], 0, 0).cursor_consistent(1));
        // Jumping two ahead violates the round-robin shape.
        assert!(!ckpt(&[(0, 2), (1, 0)], 1, 0).cursor_consistent(1));
    }

    #[test]
    fn predicate1_shape_m3_mid_window() {
        // M = 3, cursor inside group 1's window: group 0 finished its
        // window (6 = 2 rounds * 3), group 1 consumed 3 + 2.
        let c = ckpt(&[(0, 6), (1, 5)], 1, 2);
        assert!(c.cursor_consistent(3));
        assert!(!c.cursor_consistent(1));
    }

    #[test]
    fn cursor_bounds_checked() {
        assert!(!ckpt(&[(0, 0)], 1, 0).cursor_consistent(1));
        assert!(!ckpt(&[(0, 0)], 0, 5).cursor_consistent(1));
    }

    #[test]
    fn display_is_compact() {
        let c = ckpt(&[(0, 5), (1, 4)], 1, 0);
        assert_eq!(c.to_string(), "ckpt[0:5,1:4]@1+0");
    }
}
