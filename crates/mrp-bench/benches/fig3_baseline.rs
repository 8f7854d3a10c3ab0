//! Figure 3: Multi-Ring Paxos baseline — throughput, latency,
//! coordinator CPU and latency CDF under five storage modes and four
//! request sizes.

use mrp_bench::json::{write_artifact, Value};
use mrp_bench::table::{fmt_f, Table};
use mrp_bench::{figures, Scale};

fn main() {
    let scale = Scale::from_env();
    let rows = figures::fig3(scale);
    let mut t = Table::new(
        "Figure 3 — Multi-Ring Paxos baseline (1 ring x 3 processes, 10 proposer threads)",
        &[
            "mode",
            "size",
            "throughput_mbps",
            "latency_ms",
            "cpu_pct@coord",
        ],
    );
    for r in &rows {
        t.row(&[
            r.mode.to_string(),
            r.size.to_string(),
            fmt_f(r.mbps),
            fmt_f(r.latency_ms),
            fmt_f(r.cpu_pct),
        ]);
    }
    t.print();

    let mut cdf = Table::new(
        "Figure 3 (bottom-right) — latency CDF at 32 KB",
        &["mode", "p50_ms", "p90_ms", "p99_ms"],
    );
    for r in rows.iter().filter(|r| r.size == 32 * 1024) {
        let q = |p: f64| {
            r.cdf
                .iter()
                .find(|&&(_, f)| f >= p)
                .map_or(0.0, |&(v, _)| v as f64 / 1000.0)
        };
        cdf.row(&[
            r.mode.to_string(),
            fmt_f(q(0.5)),
            fmt_f(q(0.9)),
            fmt_f(q(0.99)),
        ]);
    }
    cdf.print();
    write_artifact("BENCH_fig3.json", &Value::array(&rows, |r| {
        let q = |p: f64| {
            Value::rounded(
                r.cdf
                    .iter()
                    .find(|&&(_, f)| f >= p)
                    .map_or(0.0, |&(v, _)| v as f64 / 1000.0),
                3,
            )
        };
        Value::object([
            ("mode", r.mode.into()),
            ("size", (r.size as u64).into()),
            ("throughput_mbps", Value::rounded(r.mbps, 2)),
            ("latency_ms", Value::rounded(r.latency_ms, 3)),
            ("cpu_pct", Value::rounded(r.cpu_pct, 1)),
            ("p50_ms", q(0.5)),
            ("p90_ms", q(0.9)),
            ("p99_ms", q(0.99)),
        ])
    }), "rows");
}
