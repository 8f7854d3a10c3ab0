//! Figure 9 (extension): atomic-multicast engine comparison —
//! Multi-Ring Paxos vs the timestamp-based Skeen/white-box engine on
//! the identical closed-loop workload as groups scale.
//!
//! Prints the client-side rows and each cell's health, and writes
//! `BENCH_fig9.json` — the rows plus an `engine_telemetry` section
//! carrying the engines' own phase-level counters, merged latency
//! histograms and health verdicts.

use mrp_bench::json::write_artifact;
use mrp_bench::{figures, Scale};

fn main() {
    let scale = Scale::from_env();
    let fig = figures::fig9(scale);
    fig.rows
        .print("Figure 9 — engine comparison (3 processes, 8 sessions/group, 512 B requests)");
    fig.engine_telemetry
        .print("Figure 9 — engine telemetry (counters and histograms: see the artifact)");
    let what = format!("{} rows", fig.rows.rows().len());
    write_artifact(&scale.artifact("fig9"), &fig.json(), &what);
}
