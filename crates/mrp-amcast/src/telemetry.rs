//! Engine telemetry read-outs: snapshots of the protocol-phase metrics
//! and trace ring every engine records into, and the health/stall
//! probe.
//!
//! The paper's evaluation reasons in protocol phases (submit → propose
//! → final → release), and so does anyone debugging a stalled Skeen
//! round or a frozen prune floor. Engines record that structure sans-io
//! into the plain-data store of [`multiring_paxos::telemetry`]
//! ([`MetricsRegistry`], [`TraceRing`], [`Histogram`], bundled as
//! [`EngineTelemetry`] — re-exported here unchanged); this module holds
//! the two read-outs the engine trait exposes:
//!
//! * [`TelemetrySnapshot`] — the read-out surface
//!   ([`AmcastEngine::telemetry`](crate::AmcastEngine::telemetry)):
//!   a point-in-time copy of the registry plus snapshot-time gauges the
//!   engine computes from live state (backlogs, watermark lag).
//! * [`HealthReport`] — the stall probe
//!   ([`AmcastEngine::health`](crate::AmcastEngine::health)): flags
//!   rounds pending longer than [`STALL_DELTAS`]·Δ, frozen checkpoint
//!   prune floors, and held deliveries.

pub use multiring_paxos::telemetry::{
    EngineTelemetry, Histogram, MetricsRegistry, ProtocolEvent, TraceRing, TRACE_RING_CAPACITY,
};
use multiring_paxos::types::{GroupId, Time};
use std::collections::BTreeMap;

/// Stall threshold factor for the health probe: a round (or held
/// delivery) outstanding longer than this many Δ heartbeat periods is
/// flagged. Retries fire every 4 Δ and orphan recovery every 12 Δ, so a
/// round that survived 64 Δ has outlived every repair mechanism.
pub const STALL_DELTAS: u64 = 64;

/// A point-in-time copy of an engine's telemetry: the registry's
/// counters and histograms, gauges the engine computes from live state
/// at snapshot time (backlogs, lags, epochs), and the retained trace
/// window. Keys are owned strings so engines can add per-group
/// snapshot-time gauges (`"backlog.g0"`).
#[derive(Clone, Debug, Default)]
pub struct TelemetrySnapshot {
    /// The reporting engine's [`engine_name`](crate::AmcastEngine::engine_name).
    pub engine: &'static str,
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Instantaneous gauges (computed at snapshot time).
    pub gauges: BTreeMap<String, u64>,
    /// Latency/size distributions.
    pub histograms: BTreeMap<String, Histogram>,
    /// The trace ring's retained events, oldest first.
    pub events: Vec<ProtocolEvent>,
}

impl TelemetrySnapshot {
    /// An empty snapshot for `engine` (the trait default for engines
    /// that record nothing).
    pub fn empty(engine: &'static str) -> Self {
        Self {
            engine,
            ..Self::default()
        }
    }

    /// Starts a snapshot from a live registry and trace ring; the
    /// engine adds its gauges.
    pub fn from_telemetry(engine: &'static str, tel: &EngineTelemetry) -> Self {
        Self {
            engine,
            counters: tel
                .registry
                .counters()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            gauges: BTreeMap::new(),
            histograms: tel
                .registry
                .histograms()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            events: tel.trace.events().copied().collect(),
        }
    }

    /// Reads counter `name` (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Reads gauge `name` (0 if absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Reads histogram `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }
}

/// One condition the health probe flagged.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HealthIssue {
    /// Stable issue code: `"stalled_round"`, `"frozen_prune_floor"`,
    /// `"held_deliveries"`, … (engine-documented).
    pub code: &'static str,
    /// The group concerned, when group-scoped.
    pub group: Option<GroupId>,
    /// Issue-specific magnitude: how long the round has been pending
    /// (µs), how many history entries the frozen floor retains, ….
    pub detail: u64,
}

/// The health probe's verdict: empty issues = healthy. Produced by
/// [`AmcastEngine::health`](crate::AmcastEngine::health) from live
/// engine state against the probe's `now` — no history is kept, so the
/// probe is safe to call at any frequency.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HealthReport {
    /// The instant the probe ran against.
    pub at: Time,
    /// Everything wrong, empty when healthy.
    pub issues: Vec<HealthIssue>,
}

impl HealthReport {
    /// A clean bill of health at `at`.
    pub fn healthy(at: Time) -> Self {
        Self {
            at,
            issues: Vec::new(),
        }
    }

    /// Whether no issue was flagged.
    pub fn is_healthy(&self) -> bool {
        self.issues.is_empty()
    }

    /// The issues carrying `code`.
    pub fn issues_with<'a>(&'a self, code: &'a str) -> impl Iterator<Item = &'a HealthIssue> {
        self.issues.iter().filter(move |i| i.code == code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_copies_registry_and_trace() {
        let mut tel = EngineTelemetry::default();
        tel.incr("a", 1);
        tel.record("h", 9);
        tel.trace(Time::from_micros(5), "ev", Some(GroupId::new(1)), 42);
        let snap = TelemetrySnapshot::from_telemetry("test", &tel);
        assert_eq!(snap.engine, "test");
        assert_eq!(snap.counter("a"), 1);
        assert_eq!(snap.histogram("h").unwrap().max(), 9);
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].kind, "ev");
        assert_eq!(snap.events[0].group, Some(GroupId::new(1)));
    }

    #[test]
    fn health_report_filters_by_code() {
        let mut r = HealthReport::healthy(Time::ZERO);
        assert!(r.is_healthy());
        r.issues.push(HealthIssue {
            code: "stalled_round",
            group: Some(GroupId::new(0)),
            detail: 100,
        });
        r.issues.push(HealthIssue {
            code: "frozen_prune_floor",
            group: None,
            detail: 5000,
        });
        assert!(!r.is_healthy());
        assert_eq!(r.issues_with("stalled_round").count(), 1);
        assert_eq!(r.issues_with("nothing").count(), 0);
    }
}
