//! Figure 9 (extension): atomic-multicast engine comparison —
//! Multi-Ring Paxos vs the timestamp-based Skeen/white-box engine on
//! the identical closed-loop workload as groups scale.
//!
//! Prints the table and writes `BENCH_fig9.json` — the client-side rows
//! plus an `engine_telemetry` section carrying the engines' own
//! phase-level counters, merged latency histograms and health verdicts
//! (schema documented in the `mrp-bench` crate docs).

use mrp_bench::figures::Fig9Row;
use mrp_bench::json::{write_artifact, Value};
use mrp_bench::table::{fmt_f, Table};
use mrp_bench::{figures, Scale};

fn to_json(rows: &[Fig9Row]) -> Value {
    let cell = |r: &Fig9Row| {
        [
            ("engine", r.engine.into()),
            ("groups", u64::from(r.groups).into()),
        ]
    };
    Value::object([
        (
            "rows",
            Value::array(rows, |r| {
                Value::object(cell(r).into_iter().chain([
                    ("ops_per_sec", Value::rounded(r.ops_per_sec, 1)),
                    ("latency_ms", Value::rounded(r.latency_ms, 3)),
                    ("p50_ms", Value::rounded(r.p50_ms, 3)),
                    ("p99_ms", Value::rounded(r.p99_ms, 3)),
                ]))
            }),
        ),
        (
            "engine_telemetry",
            Value::array(rows, |r| {
                let t = &r.telemetry;
                Value::object(cell(r).into_iter().chain([
                    ("nodes", (t.nodes as u64).into()),
                    ("healthy", Value::Bool(t.healthy)),
                    (
                        "counters",
                        Value::object(t.counters.iter().map(|(k, &v)| (k.as_str(), v.into()))),
                    ),
                    (
                        "histograms",
                        Value::object(t.histograms.iter().map(|(k, h)| {
                            let summary = Value::object([
                                ("count", h.count().into()),
                                ("p50_us", h.quantile(0.5).into()),
                                ("p99_us", h.quantile(0.99).into()),
                                ("max_us", h.max().into()),
                            ]);
                            (k.as_str(), summary)
                        })),
                    ),
                ]))
            }),
        ),
    ])
}

fn main() {
    let scale = Scale::from_env();
    let rows = figures::fig9(scale);
    let mut t = Table::new(
        "Figure 9 — engine comparison (3 processes, 8 sessions/group, 512 B requests)",
        &[
            "engine",
            "groups",
            "ops_per_sec",
            "latency_ms",
            "p50_ms",
            "p99_ms",
            "healthy",
        ],
    );
    for r in &rows {
        t.row(&[
            r.engine.to_string(),
            r.groups.to_string(),
            fmt_f(r.ops_per_sec),
            fmt_f(r.latency_ms),
            fmt_f(r.p50_ms),
            fmt_f(r.p99_ms),
            r.telemetry.healthy.to_string(),
        ]);
    }
    t.print();
    let what = format!("{} rows", rows.len());
    write_artifact("BENCH_fig9.json", &to_json(&rows), &what);
}
