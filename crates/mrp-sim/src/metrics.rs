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
/// simulation harness and actors. Series use one-second windows
/// ([`Metrics::SERIES_WINDOW_US`]); a reader wanting coarser ones sums
/// them.
#[derive(Default, Debug)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    series: BTreeMap<String, TimeSeries>,
}

impl Metrics {
    /// The window width of every series in the registry, microseconds.
    pub const SERIES_WINDOW_US: u64 = 1_000_000;

    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
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
        self.series
            .entry(name.to_string())
            .or_insert_with(|| TimeSeries::new(Self::SERIES_WINDOW_US))
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

    #[test]
    fn merge_histogram_folds_external_samples() {
        let mut m = Metrics::new();
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
        let mut m = Metrics::new();
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
