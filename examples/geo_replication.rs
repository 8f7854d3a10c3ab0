//! Geo-replication example: MRP-Store across four simulated EC2 regions
//! — one partition ring per region plus a global ring, exactly the
//! horizontal-scalability deployment of the paper's Section 8.4.2.
//!
//! Run with: `cargo run --example geo_replication --release`

use atomic_multicast::core::config::RingTuning;
use atomic_multicast::core::replica::CheckpointPolicy;
use atomic_multicast::core::types::{ClientId, ProcessId, Time};
use atomic_multicast::sim::cluster::{Cluster, SimConfig};
use atomic_multicast::sim::net::{Region, Topology};
use atomic_multicast::sim::rng::Rng;
use atomic_multicast::store::client::{ClientOp, StoreClient, StoreClientConfig};
use atomic_multicast::store::command::StoreCommand;
use atomic_multicast::store::{StoreApp, StoreDeployment, StoreTopology};
use bytes::Bytes;

fn main() {
    let tuning = RingTuning::wide_area(); // Δ=20ms, λ=2000
    let topo =
        StoreTopology::local(4, tuning).engine(atomic_multicast::amcast::EngineKind::MultiRing);
    let deployment = StoreDeployment::build(&topo);

    // Pin each partition and its client to a region.
    let regions = Region::all();
    let mut net = Topology::ec2_four_regions();
    for part in 0..4u16 {
        let site = regions[part as usize].site();
        for &p in &deployment.replicas[&part] {
            net.assign(p, site);
        }
        net.assign(ProcessId::new(900 + u32::from(part)), site);
    }

    let mut cluster = Cluster::new(SimConfig::default(), net);
    deployment.spawn_replicas(
        &mut cluster,
        CheckpointPolicy {
            interval_us: 0,
            sync: false,
        },
        StoreApp::new,
    );
    // One client per region, updating its local partition only.
    for part in 0..4u16 {
        let client_proc = ProcessId::new(900 + u32::from(part));
        let client_id = ClientId::new(1 + u64::from(part));
        let map = deployment.partition_map.clone();
        let keys: Vec<Bytes> = (0..100_000u64)
            .map(|i| Bytes::from(format!("key{i:09}")))
            .filter(|k| map.group_of(k).value() == part)
            .take(500)
            .collect();
        let mut n = 0usize;
        let gen = move |_r: &mut Rng| {
            n += 1;
            ClientOp::Single {
                cmd: StoreCommand::Insert {
                    key: keys[n % keys.len()].clone(),
                    value: Bytes::from(vec![0x11u8; 256]),
                },
                tag: "update",
            }
        };
        let mut cfg = StoreClientConfig::new(client_id, 10);
        cfg.metric_prefix = format!("region{part}");
        let client = StoreClient::new(cfg, deployment.clone(), gen);
        cluster.add_actor(client_proc, Box::new(client));
        cluster.register_client(client_id, client_proc);
    }
    cluster.start();
    cluster.run_until(Time::from_secs(20));

    println!("MRP-Store across 4 EC2 regions, 20 simulated seconds:");
    let names = ["us-west-2", "us-west-1", "us-east-1", "eu-west-1"];
    for part in 0..4 {
        let ops = cluster.metrics().counter(&format!("region{part}/ops"));
        let lat = cluster
            .metrics()
            .histogram(&format!("region{part}/latency_us"))
            .map_or(0.0, |h| h.mean() / 1000.0);
        println!(
            "  {:>10}: {:>6} local updates, mean latency {:>7.1} ms",
            names[part as usize], ops, lat
        );
        assert!(ops > 0, "{} made no progress", names[part as usize]);
    }
    println!("every region progressed at its own pace; the global ring only carried");
    println!("rate-leveling skips, so local throughput is independent of distance.");
}
