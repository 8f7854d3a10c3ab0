//! Engine comparison: the same two-group workload ordered by each
//! atomic-multicast engine, selected from configuration at run time.
//!
//! The engine is picked per deployment with `EngineKind` (or the
//! `MRP_ENGINE` environment variable: `multiring` | `wbcast`), and the
//! cluster spawns it through the engine-generic
//! `Cluster::add_engine_actors` — no engine-specific types appear in
//! the workload.
//!
//! Run with: `cargo run --example engine_compare`

use atomic_multicast::amcast::EngineKind;
use atomic_multicast::core::config::{ClusterConfig, RingSpec, RingTuning, Roles};
use atomic_multicast::core::types::{ClientId, GroupId, ProcessId, Time};
use atomic_multicast::sim::cluster::{Cluster, SimConfig};
use atomic_multicast::sim::net::Topology;
use atomic_multicast::sim::Burst;
use bytes::Bytes;

/// Two groups over the same three processes, everyone subscribing to
/// both — the deployment shape where the engines' ordering paths differ
/// most (ring circulation + merge vs sequencer timestamps).
fn config() -> ClusterConfig {
    let tuning = RingTuning {
        lambda: 3_000,
        delta_us: 5_000,
        ..RingTuning::default()
    };
    let mut b = ClusterConfig::builder();
    for ring in 0..2u16 {
        let mut spec = RingSpec::new(GroupId::new(ring)).tuning(tuning);
        for p in 0..3u32 {
            // Rotate membership so coordinators/sequencers spread.
            spec = spec.member(ProcessId::new((p + u32::from(ring)) % 3), Roles::ALL);
        }
        b = b.ring(spec);
    }
    for p in 0..3u32 {
        for g in 0..2u16 {
            b = b.subscribe(ProcessId::new(p), GroupId::new(g));
        }
    }
    b.build().expect("engine_compare config")
}

/// Runs the workload under `kind`: 20 requests to each group. Returns
/// the values delivered, or the first way the run broke the multicast
/// contract.
fn run(kind: EngineKind) -> Result<u64, String> {
    let config = config();
    let mut cluster = Cluster::new(SimConfig::default(), Topology::lan(8));
    // The whole engine choice is this one argument.
    cluster.add_engine_actors(&config, kind);
    for g in 0..2u16 {
        let client = ClientId::new(u64::from(g));
        let target = ProcessId::new(u32::from(g));
        let burst = Burst::new(
            client,
            target,
            vec![GroupId::new(g)],
            20,
            Bytes::from(vec![0u8; 64]),
        );
        cluster.add_client(ProcessId::new(100 + u32::from(g)), client, Box::new(burst));
    }
    cluster.start();
    cluster.run_until(Time::from_secs(3));
    cluster.check_history()?;
    Ok(cluster.metrics().counter("delivered_values"))
}

fn main() {
    // 20 values × 2 groups × 3 subscribers each.
    const EXPECTED: u64 = 20 * 2 * 3;

    let engines: Vec<EngineKind> = match std::env::var("MRP_ENGINE") {
        Ok(name) => vec![name.parse().expect("MRP_ENGINE is `multiring` or `wbcast`")],
        Err(_) => EngineKind::ALL.to_vec(),
    };
    for kind in engines {
        let delivered = run(kind).unwrap_or_else(|e| panic!("engine {kind}: {e}"));
        println!("engine {kind:>9}: delivered {delivered} values (expected {EXPECTED})");
        // With every value everywhere, the contract the history was
        // judged by — each once, in an order no process contradicts —
        // is one total order per subscription set.
        assert_eq!(
            delivered, EXPECTED,
            "engine {kind} lost or duplicated deliveries"
        );
    }
    println!("both engines satisfy the same multicast contract — swap them freely.");
}
