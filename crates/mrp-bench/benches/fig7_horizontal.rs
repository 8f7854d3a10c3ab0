//! Figure 7: MRP-Store horizontal scalability across EC2 regions —
//! aggregate throughput and the us-west-2 latency CDF.

use mrp_bench::json::{write_artifact, Value};
use mrp_bench::table::{fmt_f, Table};
use mrp_bench::{figures, Scale};

fn main() {
    let scale = Scale::from_env();
    let rows = figures::fig7(scale);
    let mut t = Table::new(
        "Figure 7 — MRP-Store across EC2 regions (1 KB updates in 32 KB batches)",
        &["regions", "aggregate_ops_per_sec", "pct_of_linear"],
    );
    for r in &rows {
        t.row(&[
            r.regions.to_string(),
            fmt_f(r.ops_per_sec),
            format!("{}%", fmt_f(r.pct_linear)),
        ]);
    }
    t.print();

    let mut cdf = Table::new(
        "Figure 7 (bottom) — latency CDF at the us-west-2 client",
        &["regions", "p50_ms", "p90_ms", "p99_ms"],
    );
    for r in &rows {
        let q = |p: f64| {
            r.cdf
                .iter()
                .find(|&&(_, f)| f >= p)
                .map_or(0.0, |&(v, _)| v as f64 / 1000.0)
        };
        cdf.row(&[
            r.regions.to_string(),
            fmt_f(q(0.5)),
            fmt_f(q(0.9)),
            fmt_f(q(0.99)),
        ]);
    }
    cdf.print();
    write_artifact("BENCH_fig7.json", &Value::array(&rows, |r| {
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
            ("regions", u64::from(r.regions).into()),
            ("ops_per_sec", Value::rounded(r.ops_per_sec, 1)),
            ("pct_linear", Value::rounded(r.pct_linear, 1)),
            ("p50_ms", q(0.5)),
            ("p90_ms", q(0.9)),
            ("p99_ms", q(0.99)),
        ])
    }), "rows");
}
