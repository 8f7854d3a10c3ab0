//! Multi-group multicast comparison (extension figure): the fraction of
//! multi-group messages on the x-axis, both atomic-multicast engines on
//! the identical mixed workload — genuine max-timestamp ordering
//! (wbcast) vs covering-group routing (Multi-Ring Paxos).
//!
//! Prints the table and writes the rows as `BENCH_multigroup.json` for
//! downstream tooling — or, under `MRP_MULTIGROUP_CRASH_MS` churn, as
//! `BENCH_multigroup_churn.json`, so that the committed churn-free
//! baseline CI diffs is only ever rewritten by a clean run.

use mrp_bench::figures::MultigroupRow;
use mrp_bench::json::{write_artifact, Value};
use mrp_bench::table::{fmt_f, Table};
use mrp_bench::{figures, Scale};

fn to_json(rows: &[MultigroupRow]) -> Value {
    Value::array(rows, |r| {
        Value::object([
            ("engine", r.engine.into()),
            ("multi_per_mille", u64::from(r.multi_per_mille).into()),
            ("crash_ms", r.crash_ms.into()),
            ("ops_per_sec", Value::rounded(r.ops_per_sec, 1)),
            ("latency_ms", Value::rounded(r.latency_ms, 3)),
            ("single_ms", Value::rounded(r.single_ms, 3)),
            ("multi_ms", Value::rounded(r.multi_ms, 3)),
            ("p99_ms", Value::rounded(r.p99_ms, 3)),
        ])
    })
}

fn main() {
    let scale = Scale::from_env();
    let rows = figures::fig_multigroup(scale);
    let mut t = Table::new(
        "Multi-group multicast — genuine (wbcast) vs covering group (multiring); \
         3 groups x 3 processes, 24 sessions, 512 B requests \
         (MRP_MULTIGROUP_CRASH_MS=<period> adds initiator churn)",
        &[
            "engine",
            "multi_permille",
            "crash_ms",
            "ops_per_sec",
            "latency_ms",
            "single_ms",
            "multi_ms",
            "p99_ms",
        ],
    );
    for r in &rows {
        t.row(&[
            r.engine.to_string(),
            r.multi_per_mille.to_string(),
            r.crash_ms.to_string(),
            fmt_f(r.ops_per_sec),
            fmt_f(r.latency_ms),
            fmt_f(r.single_ms),
            fmt_f(r.multi_ms),
            fmt_f(r.p99_ms),
        ]);
    }
    t.print();
    let what = format!("{} rows", rows.len());
    let churn = rows.iter().any(|r| r.crash_ms != 0);
    let path = if churn {
        "BENCH_multigroup_churn.json"
    } else {
        "BENCH_multigroup.json"
    };
    write_artifact(path, &to_json(&rows), &what);
}
