//! Figure 4: YCSB A–F across the four systems, plus the workload-F
//! latency breakdown.

use mrp_bench::json::{write_artifact, Value};
use mrp_bench::table::{fmt_f, Table};
use mrp_bench::{figures, Scale};
use mrp_ycsb::WorkloadKind;

fn main() {
    let scale = Scale::from_env();
    let rows = figures::fig4(scale, &WorkloadKind::all());
    let mut t = Table::new(
        "Figure 4 (top) — YCSB throughput, ops/s (100 client threads)",
        &[
            "workload",
            "cassandra-like",
            "mrp-store (indep.)",
            "mrp-store",
            "mysql-like",
        ],
    );
    for kind in WorkloadKind::all() {
        let get = |sys: &str| {
            rows.iter()
                .find(|r| r.workload == kind.letter() && r.system == sys)
                .map(|r| fmt_f(r.ops_per_sec))
                .unwrap_or_default()
        };
        t.row(&[
            kind.letter().to_string(),
            get("cassandra-like"),
            get("mrp-store (indep. rings)"),
            get("mrp-store"),
            get("mysql-like"),
        ]);
    }
    t.print();

    let mut f = Table::new(
        "Figure 4 (bottom) — workload F latency breakdown, ms",
        &["system", "read", "update", "read-modify-write"],
    );
    for r in rows.iter().filter(|r| r.workload == 'F') {
        if let Some((read, update, rmw)) = r.f_latency_ms {
            f.row(&[r.system.to_string(), fmt_f(read), fmt_f(update), fmt_f(rmw)]);
        }
    }
    f.print();
    write_artifact("BENCH_fig4.json", &Value::array(&rows, |r| {
        let f = |pick: fn((f64, f64, f64)) -> f64| {
            r.f_latency_ms
                .map_or(Value::Null, |t| Value::rounded(pick(t), 3))
        };
        Value::object([
            ("system", r.system.into()),
            ("workload", r.workload.to_string().as_str().into()),
            ("ops_per_sec", Value::rounded(r.ops_per_sec, 1)),
            ("read_ms", f(|t| t.0)),
            ("update_ms", f(|t| t.1)),
            ("rmw_ms", f(|t| t.2)),
        ])
    }), "rows");
}
