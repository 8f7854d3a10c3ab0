//! Section 3 ablation: conflicting cross-partition transactions under
//! no-wait two-phase commit vs atomic-multicast ordering.

use mrp_bench::json::{write_artifact, Value};
use mrp_bench::table::{fmt_f, Table};
use mrp_bench::{figures, Scale};

fn main() {
    let scale = Scale::from_env();
    let rows = figures::ablation_2pc(scale);
    let mut t = Table::new(
        "Ablation — 2PC aborts vs atomic multicast (32 concurrent cross-partition txns)",
        &[
            "hot_keys",
            "2pc_commits_per_s",
            "2pc_abort_pct",
            "multicast_txn_per_s",
        ],
    );
    for r in &rows {
        t.row(&[
            r.hot_keys.to_string(),
            fmt_f(r.twopc_commits_per_sec),
            format!("{}%", fmt_f(r.twopc_abort_pct)),
            fmt_f(r.multicast_txn_per_sec),
        ]);
    }
    t.print();
    write_artifact("BENCH_ablation_2pc.json", &Value::array(&rows, |r| {
        Value::object([
            ("hot_keys", r.hot_keys.into()),
            ("twopc_commits_per_sec", Value::rounded(r.twopc_commits_per_sec, 1)),
            ("twopc_abort_pct", Value::rounded(r.twopc_abort_pct, 2)),
            ("multicast_txn_per_sec", Value::rounded(r.multicast_txn_per_sec, 1)),
        ])
    }), "rows");
}
