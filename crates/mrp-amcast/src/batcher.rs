//! The submission-edge hold queue of the engine wrapper ([`AnyEngine`]).
//!
//! A multi-group message is what costs an engine a whole extra
//! exchange: a covering-ring consensus instance on the ring engine, a
//! Skeen `Submit/ProposeAck/Final` round on the white-box engine. When
//! a process still has a submission of its own outstanding, the
//! wrapper therefore parks further multi-group requests here, one
//! queue per group set γ, and hands each queue to the engine as one
//! batched submission ([`AmcastEngine::multicast_batch`]) — when a
//! [`BatchConfig`] budget trips, when the backlog clears, or after
//! [`SUBMIT_HOLD_US`] at the latest. Nothing is ever held on an idle
//! process and single-group requests never come here; the policy is
//! [`AnyEngine`]'s `on_event`, this module is its queue. Delivery is
//! unchanged: each value is still delivered individually, exactly
//! once, in a position consistent with the engine's global acyclic
//! order.
//!
//! [`AnyEngine`]: crate::AnyEngine
//! [`AmcastEngine::multicast_batch`]: crate::AmcastEngine::multicast_batch

use bytes::Bytes;
use multiring_paxos::types::GroupId;
use std::collections::BTreeMap;

/// The longest a queued submission waits, in microseconds: the
/// `SubmitFlush` timer armed by the first value queued fires this long
/// after it and empties every queue. It bounds the hold when the
/// backlog never clears (saturating single-group traffic in front of a
/// rare multi-group request); an idle process never waits for it. It is
/// also all a crash can cost: a request accepted by a process that dies
/// is gone only if it was still queued, so the bound is one LAN hop —
/// shorter than any round, and what `BENCH_multigroup.json` reads best
/// at (200 µs, a round's length, is 10 % slower on the wbcast 500 ‰
/// row). A protocol constant, like the white-box engine's `*_DELTAS`.
pub const SUBMIT_HOLD_US: u64 = 50;

/// The budgets of one γ-queue: it is submitted as soon as it holds
/// [`max_values`] values or [`max_bytes`] payload bytes, whichever
/// trips first. Queues are per group set γ (sorted, deduplicated), so
/// values in one batch always share a destination and can ride one
/// engine round.
///
/// [`max_values`]: BatchConfig::max_values
/// [`max_bytes`]: BatchConfig::max_bytes
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct BatchConfig {
    /// Submit a γ-queue once it holds this many values.
    pub max_values: usize,
    /// Submit a γ-queue once its queued payloads reach this many bytes,
    /// even if `max_values` has not been reached — bounds the memory a
    /// queue can pin and the size of the frame a flush produces.
    pub max_bytes: usize,
}

impl BatchConfig {
    /// The budgets every deployment runs with: up to 64 values or
    /// 64 KiB per batch. Tests pass smaller ones to
    /// `AnyEngine::set_batching`.
    pub fn enabled() -> Self {
        Self {
            max_values: 64,
            max_bytes: 64 * 1024,
        }
    }
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self::enabled()
    }
}

/// One queued submission batch for a single group set.
#[derive(Default, Hash, Debug)]
struct PendingQueue {
    payloads: Vec<Bytes>,
    bytes: usize,
}

/// The sans-io queue state the engine wrapper drives: per-γ queues and
/// the flush-timer arm flag. Flush statistics are kept by the wrapper
/// (which sees every flush as it submits it).
#[derive(Default, Hash, Debug)]
pub struct Batcher {
    cfg: BatchConfig,
    queues: BTreeMap<Vec<GroupId>, PendingQueue>,
    timer_armed: bool,
}

/// What `push` asks the wrapper to do next.
#[derive(Debug)]
pub enum PushOutcome {
    /// A size/byte budget tripped: submit this γ-queue now.
    Flush(Vec<GroupId>, Vec<Bytes>),
    /// Queued; arm the `SubmitFlush` timer ([`SUBMIT_HOLD_US`]).
    ArmTimer,
    /// Queued under an already-armed timer; nothing to do.
    Queued,
}

impl Batcher {
    /// Replaces the budgets (`None`: [`BatchConfig::enabled`]); queues
    /// filled under the previous ones are returned so the caller can
    /// submit them rather than drop them.
    pub fn set_config(&mut self, cfg: Option<BatchConfig>) -> Vec<(Vec<GroupId>, Vec<Bytes>)> {
        self.cfg = cfg.unwrap_or_default();
        self.drain()
    }

    /// Enqueues one framed payload for group set `groups`.
    ///
    /// The key is the sorted, deduplicated group set, so differently
    /// ordered spellings of the same γ share a queue.
    pub fn push(&mut self, groups: &[GroupId], payload: Bytes) -> PushOutcome {
        let mut key = groups.to_vec();
        key.sort_unstable();
        key.dedup();
        let queue = self.queues.entry(key.clone()).or_default();
        queue.bytes += payload.len();
        queue.payloads.push(payload);
        if queue.payloads.len() >= self.cfg.max_values || queue.bytes >= self.cfg.max_bytes {
            let q = self.queues.remove(&key).expect("queue just touched");
            return PushOutcome::Flush(key, q.payloads);
        }
        if !self.timer_armed {
            self.timer_armed = true;
            return PushOutcome::ArmTimer;
        }
        PushOutcome::Queued
    }

    /// Takes every pending queue (backlog cleared, or new budgets). An
    /// armed timer stays armed — the runtimes cannot cancel one — so a
    /// value queued before it fires rides it instead of arming a second.
    pub fn drain(&mut self) -> Vec<(Vec<GroupId>, Vec<Bytes>)> {
        let queues = std::mem::take(&mut self.queues);
        queues
            .into_iter()
            .map(|(key, q)| (key, q.payloads))
            .collect()
    }

    /// The `SubmitFlush` timer fired: disarms it and takes every queue.
    /// At most one timer is ever outstanding, so no value waits longer
    /// than [`SUBMIT_HOLD_US`].
    pub fn timer_fired(&mut self) -> Vec<(Vec<GroupId>, Vec<Bytes>)> {
        self.timer_armed = false;
        self.drain()
    }

    /// Values currently queued and not yet submitted.
    pub fn pending(&self) -> usize {
        self.queues.values().map(|q| q.payloads.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gs(ids: &[u16]) -> Vec<GroupId> {
        ids.iter().map(|&g| GroupId::new(g)).collect()
    }

    fn payload(n: usize) -> Bytes {
        Bytes::from(vec![7u8; n])
    }

    fn batcher(max_values: usize, max_bytes: usize) -> Batcher {
        let mut b = Batcher::default();
        b.set_config(Some(BatchConfig {
            max_values,
            max_bytes,
        }));
        b
    }

    #[test]
    fn size_budget_flushes_exactly_at_max_values() {
        let mut b = batcher(3, usize::MAX);
        assert!(matches!(
            b.push(&gs(&[1]), payload(4)),
            PushOutcome::ArmTimer
        ));
        assert!(matches!(b.push(&gs(&[1]), payload(4)), PushOutcome::Queued));
        match b.push(&gs(&[1]), payload(4)) {
            PushOutcome::Flush(key, values) => {
                assert_eq!(key, gs(&[1]));
                assert_eq!(values.len(), 3);
            }
            _ => panic!("third push must flush"),
        }
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn byte_budget_flushes_before_value_budget() {
        let mut b = batcher(100, 10);
        assert!(matches!(
            b.push(&gs(&[2]), payload(6)),
            PushOutcome::ArmTimer
        ));
        assert!(matches!(
            b.push(&gs(&[2]), payload(6)),
            PushOutcome::Flush(_, _)
        ));
    }

    #[test]
    fn window_timer_arms_once_and_drain_takes_all_queues() {
        let mut b = Batcher::default();
        assert!(matches!(
            b.push(&gs(&[1]), payload(1)),
            PushOutcome::ArmTimer
        ));
        assert!(matches!(b.push(&gs(&[2]), payload(1)), PushOutcome::Queued));
        assert_eq!(b.pending(), 2);
        let drained = b.drain();
        assert_eq!(drained.len(), 2, "one batch per group set");
        assert_eq!(b.pending(), 0);
        // The timer is still out: a value queued now rides it.
        assert!(matches!(b.push(&gs(&[1]), payload(1)), PushOutcome::Queued));
        assert_eq!(b.timer_fired().len(), 1);
        // Only once it has fired does the next value arm another.
        assert!(matches!(
            b.push(&gs(&[1]), payload(1)),
            PushOutcome::ArmTimer
        ));
    }

    #[test]
    fn group_set_key_is_order_and_duplicate_insensitive() {
        let mut b = batcher(2, usize::MAX);
        assert!(matches!(
            b.push(&gs(&[3, 1]), payload(1)),
            PushOutcome::ArmTimer
        ));
        match b.push(&gs(&[1, 3, 1]), payload(1)) {
            PushOutcome::Flush(key, values) => {
                assert_eq!(key, gs(&[1, 3]));
                assert_eq!(values.len(), 2);
            }
            _ => panic!("same γ under different spellings must share a queue"),
        }
    }
}
