//! Section 4 ablation: deterministic-merge sensitivity to rate leveling
//! (λ, Δ) when one subscribed ring idles.

use mrp_bench::json::{write_artifact, Value};
use mrp_bench::table::{fmt_f, Table};
use mrp_bench::{figures, Scale};

fn main() {
    let scale = Scale::from_env();
    let rows = figures::ablation_merge(scale);
    let mut t = Table::new(
        "Ablation — rate leveling: busy ring + idle ring at one learner",
        &["lambda", "delta_ms", "busy_latency_ms", "busy_ops_per_s"],
    );
    for r in &rows {
        t.row(&[
            r.lambda.to_string(),
            r.delta_ms.to_string(),
            if r.latency_ms.is_finite() {
                fmt_f(r.latency_ms)
            } else {
                "stalled".to_string()
            },
            fmt_f(r.ops_per_sec),
        ]);
    }
    t.print();
    write_artifact("BENCH_ablation_merge.json", &Value::array(&rows, |r| {
        Value::object([
            ("lambda", r.lambda.into()),
            ("delta_ms", r.delta_ms.into()),
            ("latency_ms", Value::rounded(r.latency_ms, 3)),
            ("ops_per_sec", Value::rounded(r.ops_per_sec, 1)),
        ])
    }), "rows");
}
