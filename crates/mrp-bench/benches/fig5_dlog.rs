//! Figure 5: dLog vs a Bookkeeper-like quorum log — throughput and
//! latency vs number of client threads (1 KB synchronous appends).

use mrp_bench::json::{write_artifact, Value};
use mrp_bench::table::{fmt_f, Table};
use mrp_bench::{figures, Scale};

fn main() {
    let scale = Scale::from_env();
    let rows = figures::fig5(scale);
    let mut t = Table::new(
        "Figure 5 — dLog vs Bookkeeper-like (1 KB appends, sync writes)",
        &["clients", "system", "ops_per_sec", "latency_ms"],
    );
    for r in &rows {
        t.row(&[
            r.clients.to_string(),
            r.system.to_string(),
            fmt_f(r.ops_per_sec),
            fmt_f(r.latency_ms),
        ]);
    }
    t.print();
    write_artifact("BENCH_fig5.json", &Value::array(&rows, |r| {
        Value::object([
            ("clients", u64::from(r.clients).into()),
            ("system", r.system.into()),
            ("ops_per_sec", Value::rounded(r.ops_per_sec, 1)),
            ("latency_ms", Value::rounded(r.latency_ms, 3)),
        ])
    }), "rows");
}
