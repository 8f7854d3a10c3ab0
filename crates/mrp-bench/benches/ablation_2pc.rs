//! Section 3 ablation: conflicting cross-partition transactions under
//! no-wait two-phase commit vs atomic-multicast ordering.

use mrp_bench::{figures, Scale};

fn main() {
    let scale = Scale::from_env();
    figures::ablation_2pc(scale).report(
        scale,
        "ablation_2pc",
        "Ablation — 2PC aborts vs atomic multicast (32 concurrent cross-partition txns)",
    );
}
