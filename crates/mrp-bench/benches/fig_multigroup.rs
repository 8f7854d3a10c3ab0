//! Multi-group multicast comparison (extension figure): the fraction of
//! multi-group messages on the x-axis, both atomic-multicast engines on
//! the identical mixed workload — genuine max-timestamp ordering
//! (wbcast) vs covering-group routing (Multi-Ring Paxos).
//!
//! Prints the table and writes the rows as `BENCH_multigroup.json` for
//! downstream tooling — or, under `MRP_MULTIGROUP_CRASH_MS` churn, as
//! `BENCH_multigroup_churn.json`, so that the committed churn-free
//! baseline CI diffs is only ever rewritten by a clean run.
//!
//! Exits non-zero unless every row completed operations and every row
//! with multi-group traffic completed multi-group ones: the check that
//! gives a churn run, whose rows no committed file holds, a verdict.

use mrp_bench::json::Value;
use mrp_bench::{figures, Scale};

fn main() {
    let scale = Scale::from_env();
    let fig = figures::fig_multigroup(scale);
    let churn = fig
        .rows()
        .iter()
        .any(|r| r.get("crash_ms").and_then(Value::as_u64) != Some(0));
    fig.report(
        scale,
        if churn {
            "multigroup_churn"
        } else {
            "multigroup"
        },
        "Multi-group multicast — genuine (wbcast) vs covering group (multiring); \
         3 groups x 3 processes, 24 sessions, 512 B requests \
         (MRP_MULTIGROUP_CRASH_MS=<period> adds initiator churn)",
    );
    for row in fig.rows() {
        let num = |key| row.get(key).and_then(Value::as_f64).unwrap_or(0.0);
        let stalled =
            num("ops_per_sec") <= 0.0 || (num("multi_per_mille") > 0.0 && num("multi_ms") <= 0.0);
        if stalled {
            eprintln!("MULTIGROUP CHECK FAILED: a row completed nothing of its traffic: {row:?}");
            std::process::exit(1);
        }
    }
}
