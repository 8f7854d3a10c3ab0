//! Figure 6: dLog vertical scalability — aggregate throughput and
//! latency CDF as rings (and disks) are added.

use mrp_bench::json::{write_artifact, Value};
use mrp_bench::table::{fmt_f, Table};
use mrp_bench::{figures, Scale};

fn main() {
    let scale = Scale::from_env();
    let rows = figures::fig6(scale);
    let mut t = Table::new(
        "Figure 6 — dLog vertical scalability (async disk, one disk per ring)",
        &["rings", "aggregate_ops_per_sec(1KB)", "pct_of_linear"],
    );
    for r in &rows {
        t.row(&[
            r.rings.to_string(),
            fmt_f(r.ops_per_sec),
            format!("{}%", fmt_f(r.pct_linear)),
        ]);
    }
    t.print();

    let mut cdf = Table::new(
        "Figure 6 (bottom) — latency CDF",
        &["rings", "p50_ms", "p90_ms", "p99_ms"],
    );
    for r in &rows {
        let q = |p: f64| {
            r.cdf
                .iter()
                .find(|&&(_, f)| f >= p)
                .map_or(0.0, |&(v, _)| v as f64 / 1000.0)
        };
        cdf.row(&[
            r.rings.to_string(),
            fmt_f(q(0.5)),
            fmt_f(q(0.9)),
            fmt_f(q(0.99)),
        ]);
    }
    cdf.print();
    write_artifact("BENCH_fig6.json", &Value::array(&rows, |r| {
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
            ("rings", u64::from(r.rings).into()),
            ("ops_per_sec", Value::rounded(r.ops_per_sec, 1)),
            ("pct_linear", Value::rounded(r.pct_linear, 1)),
            ("p50_ms", q(0.5)),
            ("p90_ms", q(0.9)),
            ("p99_ms", q(0.99)),
        ])
    }), "rows");
}
