//! Section 4 ablation: deterministic-merge sensitivity to rate leveling
//! (λ, Δ) when one subscribed ring idles.

use mrp_bench::{figures, Scale};

fn main() {
    let scale = Scale::from_env();
    figures::ablation_merge(scale).report(
        scale,
        "ablation_merge",
        "Ablation — rate leveling: busy ring + idle ring at one learner (latency -: stalled)",
    );
}
