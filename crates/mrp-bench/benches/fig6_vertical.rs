//! Figure 6: dLog vertical scalability — aggregate throughput and
//! latency CDF as rings (and disks) are added.

use mrp_bench::{figures, Scale};

fn main() {
    let scale = Scale::from_env();
    figures::fig6(scale).report(
        scale,
        "fig6",
        "Figure 6 — dLog vertical scalability (async disk, one disk per ring; 1 KB appends)",
    );
}
