//! The per-ring learner: collects decisions in instance order, repairs
//! gaps via acceptor retransmission, and releases a contiguous stream of
//! decided instances to the deterministic merge.

use crate::types::{ConsensusValue, InstanceId, RingId, Time};
use std::collections::BTreeMap;

/// A decided range released by the learner to the merge layer.
#[derive(Clone, PartialEq, Debug)]
pub struct ReleasedRange {
    /// First instance.
    pub first: InstanceId,
    /// Number of instances.
    pub count: u32,
    /// Decided value.
    pub value: ConsensusValue,
}

/// Outcome of ingesting a retransmission reply.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum RepairOutcome {
    /// Progress was (or may yet be) possible from acceptor logs.
    Repairing,
    /// The acceptors trimmed instances the learner still needs; only a
    /// checkpoint from a partition peer can help (replica recovery).
    NeedCheckpoint {
        /// Acceptor-side trim watermark.
        trimmed: InstanceId,
    },
}

/// Learner state for one ring.
#[derive(Hash, Debug)]
pub struct RingLearner {
    ring: RingId,
    /// Next instance to release to the merge (everything below is out).
    next_release: InstanceId,
    /// Highest instance known to be decided anywhere (from any decision
    /// seen, even out of order).
    highest_seen: InstanceId,
    /// Out-of-order decided ranges awaiting release, keyed by first
    /// instance.
    decided: BTreeMap<InstanceId, (u32, ConsensusValue)>,
    /// Values seen in Phase 2 messages, pending their decision (lets the
    /// ring strip values from decisions on the Phase 2 arc).
    phase2_cache: BTreeMap<InstanceId, (u32, ConsensusValue)>,
    /// When the current head-of-line gap was first observed.
    gap_since: Option<Time>,
}

impl RingLearner {
    /// A fresh learner starting at instance 1.
    pub fn new(ring: RingId) -> Self {
        Self {
            ring,
            next_release: InstanceId::new(1),
            highest_seen: InstanceId::ZERO,
            decided: BTreeMap::new(),
            phase2_cache: BTreeMap::new(),
            gap_since: None,
        }
    }

    /// The ring.
    pub fn ring(&self) -> RingId {
        self.ring
    }

    /// Next instance the merge expects from this ring.
    pub fn next_release(&self) -> InstanceId {
        self.next_release
    }

    /// Highest decided instance observed.
    pub fn highest_seen(&self) -> InstanceId {
        self.highest_seen
    }

    /// Remembers the value of a Phase 2 message so a later value-less
    /// decision can be resolved locally.
    pub fn on_phase2_value(&mut self, first: InstanceId, count: u32, value: &ConsensusValue) {
        if first >= self.next_release {
            self.phase2_cache.insert(first, (count, value.clone()));
        }
    }

    /// Ingests a decision; `value` may be `None` if it was stripped on
    /// the Phase 2 arc, in which case the cached Phase 2 value is used.
    /// Returns the ranges that became releasable, in order.
    pub fn on_decision(
        &mut self,
        now: Time,
        first: InstanceId,
        count: u32,
        value: Option<ConsensusValue>,
    ) -> Vec<ReleasedRange> {
        let last = first.plus(u64::from(count) - 1);
        self.highest_seen = self.highest_seen.max(last);
        if last < self.next_release {
            return Vec::new(); // stale duplicate
        }
        let resolved = match value {
            Some(v) => Some(v),
            None => self.phase2_cache.get(&first).map(|(_, v)| v.clone()),
        };
        if let Some(v) = resolved {
            self.decided.entry(first).or_insert((count, v));
            self.phase2_cache.remove(&first);
        }
        // Value unknown: the gap-repair path will fetch it from an
        // acceptor; `highest_seen` already advanced.
        self.release(now)
    }

    fn release(&mut self, now: Time) -> Vec<ReleasedRange> {
        let mut out = Vec::new();
        // A range containing `next_release` may start at or before it.
        while let Some((&first, &(count, ref value))) =
            self.decided.range(..=self.next_release).next_back()
        {
            let last = first.plus(u64::from(count) - 1);
            if last < self.next_release {
                break;
            }
            let value = value.clone();
            self.decided.remove(&first);
            // Trim the part already released (can happen after recovery
            // fast-forward into the middle of a skip range).
            let effective_first = self.next_release;
            let effective_count = (last.value() - effective_first.value() + 1) as u32;
            out.push(ReleasedRange {
                first: effective_first,
                count: effective_count,
                value,
            });
            self.next_release = last.next();
        }
        // Track whether a head-of-line gap remains.
        if self.next_release <= self.highest_seen {
            if self.gap_since.is_none() {
                self.gap_since = Some(now);
            }
        } else {
            self.gap_since = None;
        }
        // Drop stale cache entries.
        while let Some((&first, &(count, _))) = self.phase2_cache.iter().next() {
            if first.plus(u64::from(count) - 1) < self.next_release {
                self.phase2_cache.remove(&first);
            } else {
                break;
            }
        }
        out
    }

    /// Whether a head-of-line gap exists (a later instance is decided
    /// while an earlier one is missing).
    pub fn has_gap(&self) -> bool {
        self.next_release <= self.highest_seen
            && self
                .decided
                .range(..=self.next_release)
                .next_back()
                .is_none_or(|(&f, &(c, _))| f.plus(u64::from(c) - 1) < self.next_release)
    }

    /// If the head-of-line gap has persisted for `timeout_us`, returns
    /// the missing range to request from an acceptor.
    pub fn repair_request(&self, now: Time, timeout_us: u64) -> Option<(InstanceId, InstanceId)> {
        if !self.has_gap() {
            return None;
        }
        let since = self.gap_since?;
        if now.since(since) < timeout_us {
            return None;
        }
        // Request up to the first out-of-order range we already hold.
        let to = self
            .decided
            .range(self.next_release..)
            .next()
            .map_or(self.highest_seen.value(), |(&f, _)| f.value() - 1);
        Some((self.next_release, InstanceId::new(to)))
    }

    /// Ingests a retransmission reply. Returns released ranges and the
    /// repair outcome.
    pub fn on_retransmit_reply(
        &mut self,
        now: Time,
        ranges: Vec<(InstanceId, u32, ConsensusValue)>,
        trimmed: InstanceId,
    ) -> (Vec<ReleasedRange>, RepairOutcome) {
        for (first, count, value) in ranges {
            let last = first.plus(u64::from(count) - 1);
            self.highest_seen = self.highest_seen.max(last);
            if last >= self.next_release {
                self.decided.entry(first).or_insert((count, value));
            }
        }
        let released = self.release(now);
        // Restart the gap clock: we made an attempt; give the next
        // request a fresh timeout.
        if self.has_gap() {
            self.gap_since = Some(now);
        }
        let outcome = if trimmed >= self.next_release {
            RepairOutcome::NeedCheckpoint { trimmed }
        } else {
            RepairOutcome::Repairing
        };
        (released, outcome)
    }

    /// Fast-forwards past everything up to and including `upto`
    /// (checkpoint installation during recovery).
    pub fn fast_forward(&mut self, upto: InstanceId) {
        if upto.next() <= self.next_release {
            return;
        }
        self.next_release = upto.next();
        self.highest_seen = self.highest_seen.max(upto);
        // Drop fully covered ranges; keep straddlers (release() clips).
        self.decided
            .retain(|&f, &mut (c, _)| f.plus(u64::from(c) - 1) >= self.next_release);
        self.phase2_cache
            .retain(|&f, &mut (c, _)| f.plus(u64::from(c) - 1) >= self.next_release);
        self.gap_since = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{GroupId, ProcessId, Value, ValueId};

    fn i(n: u64) -> InstanceId {
        InstanceId::new(n)
    }

    fn val(n: u64) -> ConsensusValue {
        ConsensusValue::Values(vec![Value::new(
            ValueId::new(ProcessId::new(1), n),
            GroupId::new(0),
            vec![0u8; 4],
        )])
    }

    fn t(ms: u64) -> Time {
        Time::from_millis(ms)
    }

    #[test]
    fn in_order_decisions_release_immediately() {
        let mut l = RingLearner::new(RingId::new(0));
        let r1 = l.on_decision(t(0), i(1), 1, Some(val(1)));
        assert_eq!(r1.len(), 1);
        assert_eq!(r1[0].first, i(1));
        let r2 = l.on_decision(t(0), i(2), 1, Some(val(2)));
        assert_eq!(r2.len(), 1);
        assert_eq!(l.next_release(), i(3));
        assert!(!l.has_gap());
    }

    #[test]
    fn out_of_order_buffered_until_gap_fills() {
        let mut l = RingLearner::new(RingId::new(0));
        assert!(l.on_decision(t(0), i(2), 1, Some(val(2))).is_empty());
        assert!(l.has_gap());
        let r = l.on_decision(t(1), i(1), 1, Some(val(1)));
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].first, i(1));
        assert_eq!(r[1].first, i(2));
        assert!(!l.has_gap());
    }

    #[test]
    fn stripped_decision_resolved_from_phase2_cache() {
        let mut l = RingLearner::new(RingId::new(0));
        l.on_phase2_value(i(1), 1, &val(1));
        let r = l.on_decision(t(0), i(1), 1, None);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].value, val(1));
    }

    #[test]
    fn stripped_decision_without_cache_leaves_gap() {
        let mut l = RingLearner::new(RingId::new(0));
        assert!(l.on_decision(t(0), i(1), 1, None).is_empty());
        assert!(l.has_gap());
        assert_eq!(l.highest_seen(), i(1));
    }

    #[test]
    fn repair_request_after_timeout() {
        let mut l = RingLearner::new(RingId::new(0));
        l.on_decision(t(0), i(5), 1, Some(val(5)));
        assert_eq!(l.repair_request(t(0), 10_000), None);
        assert_eq!(l.repair_request(t(20), 10_000), Some((i(1), i(4))));
    }

    #[test]
    fn retransmit_reply_fills_gap() {
        let mut l = RingLearner::new(RingId::new(0));
        l.on_decision(t(0), i(4), 1, Some(val(4)));
        let (released, outcome) = l.on_retransmit_reply(
            t(5),
            vec![(i(1), 1, val(1)), (i(2), 2, ConsensusValue::Skip)],
            InstanceId::ZERO,
        );
        assert_eq!(outcome, RepairOutcome::Repairing);
        assert_eq!(released.len(), 3);
        assert_eq!(l.next_release(), i(5));
    }

    #[test]
    fn trimmed_reply_requires_checkpoint() {
        let mut l = RingLearner::new(RingId::new(0));
        l.on_decision(t(0), i(10), 1, Some(val(10)));
        let (_, outcome) = l.on_retransmit_reply(t(1), vec![], i(6));
        assert_eq!(outcome, RepairOutcome::NeedCheckpoint { trimmed: i(6) });
    }

    #[test]
    fn fast_forward_clips_straddling_ranges() {
        let mut l = RingLearner::new(RingId::new(0));
        // Skip range 1..=10 buffered out of order behind nothing; fast
        // forward to 5, the remainder 6..=10 must release.
        l.on_decision(t(0), i(1), 10, Some(ConsensusValue::Skip));
        // All released immediately since no gap: reset scenario instead.
        let mut l = RingLearner::new(RingId::new(0));
        l.fast_forward(i(5));
        assert_eq!(l.next_release(), i(6));
        let r = l.on_decision(t(0), i(1), 10, Some(ConsensusValue::Skip));
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].first, i(6));
        assert_eq!(r[0].count, 5);
        assert_eq!(l.next_release(), i(11));
    }

    #[test]
    fn stale_duplicates_ignored() {
        let mut l = RingLearner::new(RingId::new(0));
        l.on_decision(t(0), i(1), 1, Some(val(1)));
        assert!(l.on_decision(t(0), i(1), 1, Some(val(1))).is_empty());
        assert_eq!(l.next_release(), i(2));
    }
}
