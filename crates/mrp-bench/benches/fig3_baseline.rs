//! Figure 3: Multi-Ring Paxos baseline — throughput, latency,
//! coordinator CPU and three points of the latency CDF under five
//! storage modes and four request sizes.

use mrp_bench::{figures, Scale};

fn main() {
    let scale = Scale::from_env();
    figures::fig3(scale).report(
        scale,
        "fig3",
        "Figure 3 — Multi-Ring Paxos baseline (1 ring x 3 processes, 10 proposer threads)",
    );
}
