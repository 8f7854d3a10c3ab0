//! Telemetry primitives: the plain-data store every engine records
//! into sans-io while it processes protocol events.
//!
//! * [`MetricsRegistry`] — named counters and log-linear
//!   [`Histogram`]s (gauges are computed from live state when a
//!   snapshot is taken, not stored). Keys are `&'static str`, so recording on the hot
//!   path allocates nothing beyond the first insertion.
//! * [`TraceRing`] — a bounded ring of structured [`ProtocolEvent`]s
//!   (sequencer takeovers, orphan recoveries, backfills, …). Old events
//!   are dropped, never reallocated: the ring is a flight recorder, not
//!   a log.
//! * [`EngineTelemetry`] — one of each, the store an engine carries
//!   inline ([`Node`](crate::Node) here, `WbcastNode` in `mrp-amcast`).
//!
//! The read-out side (snapshots, the health probe) lives with the
//! engine trait in `mrp_amcast::telemetry`, which re-exports everything
//! here unchanged.

use crate::types::{GroupId, Time};
use std::collections::{BTreeMap, VecDeque};

/// Precision bits of the log-linear histogram (relative error ≤ 1/2^P).
const P: u32 = 7;

/// Default capacity of an engine's [`TraceRing`].
pub const TRACE_RING_CAPACITY: usize = 256;

/// A log-linear histogram of `u64` samples (microseconds, bytes, …):
/// constant relative precision like HDR histograms, O(1) record.
///
/// An empty histogram is well-defined: [`Histogram::min`] and
/// [`Histogram::max`] both return 0 (there is no smallest or largest
/// sample, and 0 is the conventional "nothing recorded" reading), and
/// `Default` is identical to [`Histogram::new`] — the internal
/// `min`-tracking seed is an implementation detail that must never leak
/// through either constructor.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: BTreeMap<u32, u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: BTreeMap::new(),
            count: 0,
            sum: 0,
            // Seeded so the first `record` wins the `min` comparison;
            // never observable (an empty histogram reports `min() == 0`).
            min: u64::MAX,
            max: 0,
        }
    }

    fn index(v: u64) -> u32 {
        if v < (1 << P) {
            v as u32
        } else {
            let k = 63 - v.leading_zeros(); // k >= P
            ((k - P + 1) << P) + (((v >> (k - P)) as u32) & ((1 << P) - 1))
        }
    }

    fn representative(idx: u32) -> u64 {
        if idx < (1 << P) {
            u64::from(idx)
        } else {
            let group = (idx >> P) - 1;
            let sub = u64::from(idx & ((1 << P) - 1));
            let base = 1u64 << (group + P);
            base + sub * (base >> P) + (base >> (P + 1))
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        *self.buckets.entry(Self::index(v)).or_insert(0) += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest sample (0 if empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (0 if empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at quantile `q` in `[0, 1]` (approximate to the bucket
    /// resolution).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0)) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (&idx, &n) in &self.buckets {
            seen += n;
            if seen >= target {
                return Self::representative(idx);
            }
        }
        self.max
    }

    /// The (value, cumulative fraction) points of the CDF, one per
    /// occupied bucket — directly plottable.
    pub fn cdf(&self) -> Vec<(u64, f64)> {
        let mut out = Vec::with_capacity(self.buckets.len());
        let mut seen = 0u64;
        for (&idx, &n) in &self.buckets {
            seen += n;
            out.push((Self::representative(idx), seen as f64 / self.count as f64));
        }
        out
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (&idx, &n) in &other.buckets {
            *self.buckets.entry(idx).or_insert(0) += n;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A structured protocol-phase event recorded by an engine into its
/// [`TraceRing`]: what happened, when, on which group, with one numeric
/// detail (a timestamp, an epoch, a count — whatever the `kind`
/// documents).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ProtocolEvent {
    /// When the event was recorded (the engine's event-loop `now`).
    pub at: Time,
    /// Event kind, a static tag like `"seq.takeover"` or
    /// `"resync.truncated"`. Tags are engine-defined and listed in each
    /// engine's module docs.
    pub kind: &'static str,
    /// The group concerned, when the event is group-scoped.
    pub group: Option<GroupId>,
    /// One kind-specific numeric detail (epoch, timestamp, count, …).
    pub detail: u64,
}

/// A bounded ring of [`ProtocolEvent`]s: O(1) record, oldest events
/// dropped on overflow (with a count, so a snapshot shows the window is
/// partial).
#[derive(Clone, Debug)]
pub struct TraceRing {
    buf: VecDeque<ProtocolEvent>,
    cap: usize,
    dropped: u64,
}

impl Default for TraceRing {
    fn default() -> Self {
        Self::new(TRACE_RING_CAPACITY)
    }
}

impl TraceRing {
    /// A ring retaining the most recent `cap` events (`cap` ≥ 1).
    pub fn new(cap: usize) -> Self {
        Self {
            buf: VecDeque::with_capacity(cap.max(1)),
            cap: cap.max(1),
            dropped: 0,
        }
    }

    /// Records an event, evicting the oldest one when full.
    pub fn record(&mut self, event: ProtocolEvent) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(event);
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &ProtocolEvent> {
        self.buf.iter()
    }

    /// Events evicted because the ring was full (the trace is a window,
    /// not a history — nonzero means older events are gone).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Named counters and histograms an engine records into on its
/// protocol hot paths. Keys are static strings so steady-state
/// recording allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsRegistry {
    /// Adds `n` to counter `name`.
    pub fn incr(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Reads counter `name` (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Records sample `v` into histogram `name`.
    pub fn record(&mut self, name: &'static str, v: u64) {
        self.histograms.entry(name).or_default().record(v);
    }

    /// Reads histogram `name`, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// The counters, in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// The histograms, in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> {
        self.histograms.iter().map(|(&k, v)| (k, v))
    }
}

/// The telemetry an engine carries inline: a [`MetricsRegistry`] plus a
/// [`TraceRing`], both recorded into sans-io as protocol events are
/// processed.
#[derive(Clone, Debug, Default)]
pub struct EngineTelemetry {
    /// Counters and histograms recorded on the protocol hot paths.
    pub registry: MetricsRegistry,
    /// The flight recorder of notable protocol events.
    pub trace: TraceRing,
}

impl EngineTelemetry {
    /// Adds `n` to counter `name`.
    pub fn incr(&mut self, name: &'static str, n: u64) {
        self.registry.incr(name, n);
    }

    /// Records sample `v` into histogram `name`.
    pub fn record(&mut self, name: &'static str, v: u64) {
        self.registry.record(name, v);
    }

    /// Records a trace event.
    pub fn trace(&mut self, at: Time, kind: &'static str, group: Option<GroupId>, detail: u64) {
        self.trace.record(ProtocolEvent {
            at,
            kind,
            group,
            detail,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_histogram_matches_new() {
        // The satellite bug: the derived Default left `min = 0`, so a
        // defaulted histogram reported min 0 forever. Both constructors
        // must now behave identically.
        let mut by_new = Histogram::new();
        let mut by_default = Histogram::default();
        for h in [&mut by_new, &mut by_default] {
            h.record(500);
            h.record(300);
        }
        assert_eq!(by_new.min(), 300);
        assert_eq!(by_default.min(), 300, "Default must seed min like new()");
        assert_eq!(by_new.max(), by_default.max());
        assert_eq!(by_new.count(), by_default.count());
    }

    #[test]
    fn empty_histogram_min_max_well_defined() {
        for h in [Histogram::new(), Histogram::default()] {
            assert_eq!(h.count(), 0);
            assert_eq!(h.min(), 0, "empty histogram min is 0, not the seed");
            assert_eq!(h.max(), 0);
            assert_eq!(h.quantile(0.5), 0);
            assert_eq!(h.mean(), 0.0);
        }
    }

    #[test]
    fn merge_of_empty_histograms_stays_empty() {
        let mut a = Histogram::default();
        let b = Histogram::default();
        a.merge(&b);
        assert_eq!(a.min(), 0);
        assert_eq!(a.max(), 0);
        a.record(7);
        assert_eq!(a.min(), 7, "merge must not poison min-tracking");
    }

    #[test]
    fn histogram_small_values_exact() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 100, 127] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 127);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 127);
    }

    #[test]
    fn histogram_relative_precision() {
        let mut h = Histogram::new();
        h.record(1_000_000);
        let q = h.quantile(0.5) as f64;
        assert!((q - 1_000_000.0).abs() / 1_000_000.0 < 0.01, "q={q}");
    }

    #[test]
    fn histogram_quantiles_ordered() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        let p90 = h.quantile(0.9);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p90 && p90 <= p99);
        assert!((p50 as f64 - 5000.0).abs() / 5000.0 < 0.02);
        assert!((p99 as f64 - 9900.0).abs() / 9900.0 < 0.02);
        let mean = h.mean();
        assert!((mean - 5000.5).abs() < 1.0);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(20);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 20);
    }

    #[test]
    fn trace_ring_bounds_and_counts_drops() {
        let mut ring = TraceRing::new(3);
        for i in 0..5u64 {
            ring.record(ProtocolEvent {
                at: Time::from_micros(i),
                kind: "test",
                group: None,
                detail: i,
            });
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let details: Vec<u64> = ring.events().map(|e| e.detail).collect();
        assert_eq!(details, vec![2, 3, 4], "oldest evicted first");
    }

    #[test]
    fn registry_counters_and_histograms() {
        let mut reg = MetricsRegistry::default();
        reg.incr("rounds", 2);
        reg.incr("rounds", 1);
        reg.record("lat", 40);
        assert_eq!(reg.counter("rounds"), 3);
        assert_eq!(reg.counter("missing"), 0);
        assert_eq!(reg.histogram("lat").unwrap().count(), 1);
    }
}
