//! Figure 5: dLog vs a Bookkeeper-like quorum log — throughput and
//! latency vs number of client threads (1 KB synchronous appends).

use mrp_bench::{figures, Scale};

fn main() {
    let scale = Scale::from_env();
    figures::fig5(scale).report(
        scale,
        "fig5",
        "Figure 5 — dLog vs Bookkeeper-like (1 KB appends, sync writes)",
    );
}
