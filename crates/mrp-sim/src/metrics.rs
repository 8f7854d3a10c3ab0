//! Measurement primitives: counters, log-linear histograms (for latency
//! percentiles/CDFs) and time series (for throughput-over-time plots
//! like the paper's Figure 8).

use multiring_paxos::types::Time;
use std::collections::BTreeMap;

// One histogram implementation for the harness and for the engine
// snapshots the cluster folds into these metrics.
pub use multiring_paxos::telemetry::Histogram;

/// A time series bucketed into fixed windows (for throughput-over-time
/// plots).
#[derive(Clone, Debug)]
pub struct TimeSeries {
    window_us: u64,
    buckets: BTreeMap<u64, f64>,
}

impl TimeSeries {
    /// A series with the given window width.
    pub fn new(window_us: u64) -> Self {
        Self {
            window_us: window_us.max(1),
            buckets: BTreeMap::new(),
        }
    }

    /// Adds `v` to the window containing `t`.
    pub fn add(&mut self, t: Time, v: f64) {
        *self
            .buckets
            .entry(t.as_micros() / self.window_us)
            .or_insert(0.0) += v;
    }

    /// The window width in microseconds.
    pub fn window_us(&self) -> u64 {
        self.window_us
    }

    /// `(window start time, sum)` points in time order.
    pub fn points(&self) -> Vec<(Time, f64)> {
        self.buckets
            .iter()
            .map(|(&w, &v)| (Time::from_micros(w * self.window_us), v))
            .collect()
    }

    /// Sum over every window.
    pub fn total(&self) -> f64 {
        self.buckets.values().sum()
    }

    /// Value in the window containing `t` (0 if empty).
    pub fn at(&self, t: Time) -> f64 {
        self.buckets
            .get(&(t.as_micros() / self.window_us))
            .copied()
            .unwrap_or(0.0)
    }
}

/// A named registry of counters, histograms and series shared by the
/// simulation harness and actors.
#[derive(Debug)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    series: BTreeMap<String, TimeSeries>,
    series_window_us: u64,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new(1_000_000)
    }
}

impl Metrics {
    /// A registry whose series use `series_window_us` windows.
    pub fn new(series_window_us: u64) -> Self {
        Self {
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
            series: BTreeMap::new(),
            series_window_us,
        }
    }

    /// Adds `n` to counter `name`.
    pub fn incr(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Reads counter `name` (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Records `v` into histogram `name`.
    pub fn record(&mut self, name: &str, v: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(v);
    }

    /// Merges a whole histogram into `name` (used when folding per-node
    /// engine telemetry into a run's metrics).
    pub fn merge_histogram(&mut self, name: &str, h: &Histogram) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .merge(h);
    }

    /// Reads histogram `name`, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Adds `v` at time `t` to series `name`.
    pub fn series_add(&mut self, name: &str, t: Time, v: f64) {
        let w = self.series_window_us;
        self.series
            .entry(name.to_string())
            .or_insert_with(|| TimeSeries::new(w))
            .add(t, v);
    }

    /// Reads series `name`.
    pub fn series(&self, name: &str) -> Option<&TimeSeries> {
        self.series.get(name)
    }

    /// All counter names (for reports).
    pub fn counter_names(&self) -> impl Iterator<Item = &str> {
        self.counters.keys().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn series_buckets_by_window() {
        let mut s = TimeSeries::new(1_000_000);
        s.add(Time::from_millis(100), 1.0);
        s.add(Time::from_millis(900), 2.0);
        s.add(Time::from_millis(1500), 5.0);
        assert_eq!(s.at(Time::from_millis(500)), 3.0);
        assert_eq!(s.at(Time::from_millis(1999)), 5.0);
        assert_eq!(s.total(), 8.0);
        assert_eq!(s.points().len(), 2);
    }

    /// Regression: the pre-extraction local histogram's derived
    /// `Default` left `min = 0`, so a default-constructed histogram
    /// disagreed with `Histogram::new()` after recording. The shared
    /// type keeps both construction paths identical and empty-histogram
    /// `min()`/`max()` well-defined.
    #[test]
    fn default_histogram_behaves_like_new() {
        let empty = Histogram::default();
        assert_eq!(empty.min(), 0);
        assert_eq!(empty.max(), 0);
        let mut a = Histogram::default();
        let mut b = Histogram::new();
        a.record(42);
        b.record(42);
        assert_eq!(a.min(), b.min());
        assert_eq!(a.min(), 42, "default construction must not pin min at 0");
    }

    #[test]
    fn merge_histogram_folds_external_samples() {
        let mut m = Metrics::new(1_000_000);
        m.record("lat", 10);
        let mut h = Histogram::new();
        h.record(30);
        h.record(5);
        m.merge_histogram("lat", &h);
        let merged = m.histogram("lat").unwrap();
        assert_eq!(merged.count(), 3);
        assert_eq!(merged.min(), 5);
        assert_eq!(merged.max(), 30);
        // Merging into a fresh name starts from a well-defined empty.
        m.merge_histogram("other", &h);
        assert_eq!(m.histogram("other").unwrap().min(), 5);
    }

    #[test]
    fn registry_roundtrip() {
        let mut m = Metrics::new(1_000_000);
        m.incr("ops", 3);
        m.incr("ops", 2);
        assert_eq!(m.counter("ops"), 5);
        assert_eq!(m.counter("missing"), 0);
        m.record("lat", 42);
        assert_eq!(m.histogram("lat").unwrap().count(), 1);
        m.series_add("tput", Time::from_secs(2), 7.0);
        assert_eq!(m.series("tput").unwrap().total(), 7.0);
    }
}
