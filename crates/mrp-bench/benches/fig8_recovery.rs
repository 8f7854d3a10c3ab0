//! Figure 8: impact of recovery on performance — throughput and latency
//! over a 300 s run with a replica kill at 20 s and restart at 240 s,
//! swept over **both** atomic-multicast engines (the ring engine
//! recovers via checkpoint + acceptor-log retransmission, the white-box
//! engine via checkpoint + sequencer stream resync).
//!
//! Prints one table per engine and writes the runs as
//! `BENCH_fig8.json` for downstream tooling (see the bench-artifact
//! schema in the `mrp-bench` crate docs).

use mrp_amcast::EngineKind;
use mrp_bench::figures::Fig8Result;
use mrp_bench::json::{write_artifact, Value};
use mrp_bench::table::{fmt_f, Table};
use mrp_bench::{figures, Scale};

fn to_json(results: &[Fig8Result]) -> Value {
    Value::array(results, |r| {
        Value::object([
            ("engine", r.engine.into()),
            ("checkpoints", r.checkpoints.into()),
            ("trims", r.trims.into()),
            (
                "events",
                Value::array(&r.events, |&(t_s, what)| {
                    Value::object([("t_s", t_s.into()), ("what", what.into())])
                }),
            ),
            (
                "timeline",
                Value::array(&r.timeline, |p| {
                    Value::object([
                        ("t_s", p.t_s.into()),
                        ("ops_per_sec", Value::rounded(p.ops_per_sec, 1)),
                        ("latency_ms", Value::rounded(p.latency_ms, 3)),
                    ])
                }),
            ),
        ])
    })
}

fn main() {
    let scale = Scale::from_env();
    let mut results = Vec::new();
    for kind in EngineKind::ALL {
        let result = figures::fig8(scale, kind);
        let mut t = Table::new(
            format!("Figure 8 — recovery timeline, {kind} engine (replica killed / restarted)"),
            &["t_s", "ops_per_sec", "latency_ms"],
        );
        for p in &result.timeline {
            t.row(&[p.t_s.to_string(), fmt_f(p.ops_per_sec), fmt_f(p.latency_ms)]);
        }
        t.print();
        println!("\nevents:");
        for (t_s, what) in &result.events {
            println!("  t={t_s:>4}s  {what}");
        }
        println!(
            "  checkpoints taken: {}   acceptor log trims: {}\n",
            result.checkpoints, result.trims
        );
        results.push(result);
    }
    let what = format!("{} runs", results.len());
    write_artifact("BENCH_fig8.json", &to_json(&results), &what);
}
