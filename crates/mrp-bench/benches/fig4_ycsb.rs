//! Figure 4: YCSB A–F across the four systems, plus the workload-F
//! latency breakdown.

use mrp_bench::{figures, Scale};
use mrp_ycsb::WorkloadKind;

fn main() {
    let scale = Scale::from_env();
    figures::fig4(scale, &WorkloadKind::all()).report(
        scale,
        "fig4",
        "Figure 4 — YCSB throughput (100 client threads) and workload F's latency breakdown",
    );
}
