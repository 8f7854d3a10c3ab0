//! Figure 8: impact of recovery on performance — throughput and latency
//! over a 300 s run with a replica kill at 20 s and restart at 240 s,
//! swept over **both** atomic-multicast engines (the ring engine
//! recovers via checkpoint + acceptor-log retransmission, the white-box
//! engine via checkpoint + sequencer stream resync).
//!
//! Prints each engine's timeline and events and writes the runs as
//! `BENCH_fig8.json`.

use mrp_amcast::EngineKind;
use mrp_bench::json::{write_artifact, Value};
use mrp_bench::{figures, Scale};

fn main() {
    let scale = Scale::from_env();
    let mut runs = Vec::new();
    for kind in EngineKind::ALL {
        let run = figures::fig8(scale, kind);
        run.timeline.print(&format!(
            "Figure 8 — recovery timeline, {kind} engine (replica killed / restarted)"
        ));
        run.events.print("events");
        println!(
            "  checkpoints taken: {}   acceptor log trims: {}\n",
            run.checkpoints, run.trims
        );
        runs.push(run.json());
    }
    let what = format!("{} runs", runs.len());
    write_artifact(&scale.artifact("fig8"), &Value::Array(runs), &what);
}
