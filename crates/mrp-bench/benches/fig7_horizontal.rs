//! Figure 7: MRP-Store horizontal scalability across EC2 regions —
//! aggregate throughput and the us-west-2 latency CDF.

use mrp_bench::{figures, Scale};

fn main() {
    let scale = Scale::from_env();
    figures::fig7(scale).report(
        scale,
        "fig7",
        "Figure 7 — MRP-Store across EC2 regions (1 KB updates in 32 KB batches; \
         latency at the us-west-2 client)",
    );
}
