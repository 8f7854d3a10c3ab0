//! Submission-edge batching for the engine wrapper ([`AnyEngine`]).
//!
//! Every client operation used to cost one full engine round: one
//! `multicast(γ, m)`, one consensus instance (ring engine) or one
//! Skeen `Submit/ProposeAck/Final` exchange (white-box engine), and one
//! freshly framed message per hop. The [`Batcher`] coalesces
//! submissions to the *same group set* that arrive within a
//! configurable window / size budget and hands them to the engine as
//! one batched submission ([`AmcastEngine::multicast_batch`]), so a
//! single round carries many values. Delivery is unchanged: each value
//! is still delivered individually, exactly once, in a position
//! consistent with the engine's global acyclic order.
//!
//! Batching is **off by default** — an unconfigured deployment behaves
//! exactly as before — and is enabled per process via
//! [`BatchConfig::from_env`] (the `MRP_BATCH` switch) or
//! programmatically via `AnyEngine::set_batching`.
//!
//! [`AnyEngine`]: crate::AnyEngine
//! [`AmcastEngine::multicast_batch`]: crate::AmcastEngine::multicast_batch

use bytes::Bytes;
use multiring_paxos::types::GroupId;
use std::collections::BTreeMap;

/// Knobs for submission-edge batching.
///
/// A batch flushes as soon as its queue holds [`max_values`] values or
/// [`max_bytes`] payload bytes, whichever trips first; a queue that
/// stays below both budgets flushes when the [`window_us`] timer fires.
/// Queues are per group set γ (sorted, deduplicated), so values in one
/// batch always share a destination and can ride one engine round.
///
/// [`max_values`]: BatchConfig::max_values
/// [`max_bytes`]: BatchConfig::max_bytes
/// [`window_us`]: BatchConfig::window_us
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct BatchConfig {
    /// Flush a γ-queue once it holds this many values (size-bound
    /// batching). `1` makes every submission its own batch.
    pub max_values: usize,
    /// Flush a γ-queue once its queued payloads reach this many bytes,
    /// even if `max_values` has not been reached — bounds the memory a
    /// queue can pin and the size of the frame a flush produces.
    pub max_bytes: usize,
    /// Flush all queues this many microseconds after the first value
    /// was enqueued (window-bound batching). `0` disarms the timer, so
    /// only the size budgets flush.
    pub window_us: u64,
}

impl BatchConfig {
    /// The default *enabled* configuration: up to 64 values or 64 KiB
    /// per batch, flushed after at most 200 µs.
    pub fn enabled() -> Self {
        Self {
            max_values: 64,
            max_bytes: 64 * 1024,
            window_us: 200,
        }
    }

    /// Reads the `MRP_BATCH` environment switch: `1`/`on`/`true` turns
    /// batching on with the [`BatchConfig::enabled`] budgets; unset,
    /// empty, `0`/`off`/`false` leave it off (`None`) — case-insensitive.
    /// Other budgets are set programmatically
    /// (`AnyEngine::set_batching`).
    ///
    /// # Panics
    ///
    /// Panics on any other value, naming the accepted spellings — like
    /// `MRP_ENGINE`, a typo fails loudly instead of silently running
    /// the other configuration.
    pub fn from_env() -> Option<Self> {
        Self::parse_switch(&std::env::var("MRP_BATCH").unwrap_or_default())
    }

    fn parse_switch(value: &str) -> Option<Self> {
        match value.trim().to_ascii_lowercase().as_str() {
            "1" | "on" | "true" => Some(Self::enabled()),
            "" | "0" | "off" | "false" => None,
            _ => panic!(
                "invalid MRP_BATCH value {value:?} (expected one of: 1 | on | true | 0 | off | false)"
            ),
        }
    }
}

/// One queued submission batch for a single group set.
#[derive(Default, Hash, Debug)]
struct PendingQueue {
    payloads: Vec<Bytes>,
    bytes: usize,
}

/// The sans-io batching state the engine wrapper drives: per-γ queues
/// and the flush-timer arm flag. Flush statistics are kept by the
/// wrapper (which sees every flush as it submits it).
#[derive(Default, Hash, Debug)]
pub struct Batcher {
    cfg: Option<BatchConfig>,
    queues: BTreeMap<Vec<GroupId>, PendingQueue>,
    timer_armed: bool,
}

/// What `push` asks the wrapper to do next.
#[derive(Debug)]
pub enum PushOutcome {
    /// A size/byte budget tripped: submit this γ-queue now.
    Flush(Vec<GroupId>, Vec<Bytes>),
    /// Queued; arm the window timer (`window_us`) if none is armed.
    ArmTimer(u64),
    /// Queued under an already-armed timer; nothing to do.
    Queued,
}

impl Batcher {
    /// Whether batching is enabled.
    pub fn enabled(&self) -> bool {
        self.cfg.is_some()
    }

    /// Reconfigures batching; pending queues from a previous
    /// configuration are returned so the caller can submit them rather
    /// than drop them.
    pub fn set_config(&mut self, cfg: Option<BatchConfig>) -> Vec<(Vec<GroupId>, Vec<Bytes>)> {
        self.cfg = cfg;
        self.drain()
    }

    /// The active configuration.
    pub fn config(&self) -> Option<BatchConfig> {
        self.cfg
    }

    /// Enqueues one framed payload for group set `groups`.
    ///
    /// The key is the sorted, deduplicated group set, so differently
    /// ordered spellings of the same γ share a queue.
    pub fn push(&mut self, groups: &[GroupId], payload: Bytes) -> PushOutcome {
        let Some(cfg) = self.cfg else {
            // Disabled: the caller must not queue; treat as an
            // immediate single-value flush to stay safe regardless.
            return PushOutcome::Flush(groups.to_vec(), vec![payload]);
        };
        let mut key = groups.to_vec();
        key.sort_unstable();
        key.dedup();
        let queue = self.queues.entry(key.clone()).or_default();
        queue.bytes += payload.len();
        queue.payloads.push(payload);
        if queue.payloads.len() >= cfg.max_values || queue.bytes >= cfg.max_bytes {
            let q = self.queues.remove(&key).expect("queue just touched");
            return PushOutcome::Flush(key, q.payloads);
        }
        if cfg.window_us > 0 && !self.timer_armed {
            self.timer_armed = true;
            return PushOutcome::ArmTimer(cfg.window_us);
        }
        PushOutcome::Queued
    }

    /// Takes every pending queue (window expiry, reconfiguration, or
    /// shutdown) and disarms the timer.
    pub fn drain(&mut self) -> Vec<(Vec<GroupId>, Vec<Bytes>)> {
        self.timer_armed = false;
        let queues = std::mem::take(&mut self.queues);
        queues
            .into_iter()
            .map(|(key, q)| (key, q.payloads))
            .collect()
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

    #[test]
    fn env_switch_is_strict() {
        let on = Some(BatchConfig::enabled());
        for (value, want) in [
            ("1", on),
            (" ON ", on),
            ("true", on),
            ("", None),
            ("0", None),
            ("Off", None),
            ("false", None),
        ] {
            assert_eq!(BatchConfig::parse_switch(value), want, "{value:?}");
        }
        // The old parser read every unknown spelling as "on".
        let typo = std::panic::catch_unwind(|| BatchConfig::parse_switch("of"));
        assert!(typo.is_err(), "a typo must fail loudly");
    }

    #[test]
    fn size_budget_flushes_exactly_at_max_values() {
        let mut b = Batcher::default();
        b.set_config(Some(BatchConfig {
            max_values: 3,
            max_bytes: usize::MAX,
            window_us: 0,
        }));
        assert!(matches!(b.push(&gs(&[1]), payload(4)), PushOutcome::Queued));
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
        let mut b = Batcher::default();
        b.set_config(Some(BatchConfig {
            max_values: 100,
            max_bytes: 10,
            window_us: 0,
        }));
        assert!(matches!(b.push(&gs(&[2]), payload(6)), PushOutcome::Queued));
        assert!(matches!(
            b.push(&gs(&[2]), payload(6)),
            PushOutcome::Flush(_, _)
        ));
    }

    #[test]
    fn window_timer_arms_once_and_drain_takes_all_queues() {
        let mut b = Batcher::default();
        b.set_config(Some(BatchConfig {
            max_values: 100,
            max_bytes: usize::MAX,
            window_us: 250,
        }));
        assert!(matches!(
            b.push(&gs(&[1]), payload(1)),
            PushOutcome::ArmTimer(250)
        ));
        assert!(matches!(b.push(&gs(&[2]), payload(1)), PushOutcome::Queued));
        assert_eq!(b.pending(), 2);
        let drained = b.drain();
        assert_eq!(drained.len(), 2, "one batch per group set");
        assert_eq!(b.pending(), 0);
        // Timer can re-arm after a drain.
        assert!(matches!(
            b.push(&gs(&[1]), payload(1)),
            PushOutcome::ArmTimer(250)
        ));
    }

    #[test]
    fn group_set_key_is_order_and_duplicate_insensitive() {
        let mut b = Batcher::default();
        b.set_config(Some(BatchConfig {
            max_values: 2,
            max_bytes: usize::MAX,
            window_us: 0,
        }));
        assert!(matches!(
            b.push(&gs(&[3, 1]), payload(1)),
            PushOutcome::Queued
        ));
        match b.push(&gs(&[1, 3, 1]), payload(1)) {
            PushOutcome::Flush(key, values) => {
                assert_eq!(key, gs(&[1, 3]));
                assert_eq!(values.len(), 2);
            }
            _ => panic!("same γ under different spellings must share a queue"),
        }
    }

    #[test]
    fn disabled_batcher_passes_values_straight_through() {
        let mut b = Batcher::default();
        match b.push(&gs(&[1]), payload(1)) {
            PushOutcome::Flush(key, values) => {
                assert_eq!(key, gs(&[1]));
                assert_eq!(values.len(), 1);
            }
            _ => panic!("disabled batcher must not queue"),
        }
    }
}
