//! MRP-Store example: a three-partition strongly consistent key-value
//! store with a global ring, driven by a mixed workload including
//! cross-partition scans.
//!
//! Run with: `cargo run --example kv_store`

use atomic_multicast::amcast::EngineReplica;
use atomic_multicast::core::app::Application;
use atomic_multicast::core::config::RingTuning;
use atomic_multicast::core::replica::CheckpointPolicy;
use atomic_multicast::core::types::{ClientId, ProcessId, Time};
use atomic_multicast::sim::cluster::{Cluster, SimConfig};
use atomic_multicast::sim::net::Topology;
use atomic_multicast::sim::rng::Rng;
use atomic_multicast::store::client::{ClientOp, StoreClient, StoreClientConfig};
use atomic_multicast::store::command::StoreCommand;
use atomic_multicast::store::{StoreApp, StoreDeployment, StoreTopology};
use bytes::Bytes;

fn main() {
    let tuning = RingTuning {
        lambda: 2_000,
        ..RingTuning::default()
    };
    let deployment = StoreDeployment::build(&StoreTopology::local(3, tuning));
    println!(
        "MRP-Store: {} partitions x 3 replicas, global ring = {:?}",
        deployment.replicas.len(),
        deployment.global_group
    );

    let mut cluster = Cluster::new(SimConfig::default(), Topology::lan(16));
    let map = deployment.partition_map.clone();
    deployment.spawn_replicas(
        &mut cluster,
        CheckpointPolicy {
            interval_us: 0,
            sync: false,
        },
        move |partition| {
            let mut app = StoreApp::new(partition);
            // Preload a small database.
            for i in 0..300 {
                let key = format!("user{i:06}");
                if map.group_of(key.as_bytes()).value() == partition {
                    app.load(Bytes::from(key), Bytes::from(format!("value-{i}")));
                }
            }
            app
        },
    );

    // A client mixing reads, updates and cross-partition scans.
    let client_proc = ProcessId::new(900);
    let client_id = ClientId::new(1);
    let mut op = 0u64;
    let gen = move |rng: &mut Rng| {
        op += 1;
        let k = rng.below(300);
        match op % 4 {
            0 => ClientOp::Single {
                cmd: StoreCommand::Scan {
                    from: Bytes::from(format!("user{k:06}")),
                    to: Bytes::from(format!("user{:06}", k + 10)),
                    limit: 10,
                },
                tag: "scan",
            },
            1 => ClientOp::Single {
                cmd: StoreCommand::Update {
                    key: Bytes::from(format!("user{k:06}")),
                    value: Bytes::from(format!("updated-{op}")),
                },
                tag: "update",
            },
            _ => ClientOp::Single {
                cmd: StoreCommand::Read {
                    key: Bytes::from(format!("user{k:06}")),
                },
                tag: "read",
            },
        }
    };
    let client = StoreClient::new(
        StoreClientConfig::new(client_id, 8),
        deployment.clone(),
        gen,
    );
    cluster.add_actor(client_proc, Box::new(client));
    cluster.register_client(client_id, client_proc);
    cluster.start();
    cluster.run_until(Time::from_secs(5));

    let m = cluster.metrics();
    println!(
        "completed {} operations in 5 simulated seconds",
        m.counter("store/ops")
    );
    for tag in ["read", "update", "scan"] {
        let h = m.histogram(&format!("store/latency_us/{tag}"));
        let h = h.unwrap_or_else(|| panic!("no {tag} completed"));
        println!(
            "  {tag:>6}: {} ops, mean latency {:.2} ms, p99 {:.2} ms",
            h.count(),
            h.mean() / 1000.0,
            h.quantile(0.99) as f64 / 1000.0
        );
    }
    // Stop the client, let in-flight work drain, and compare: every
    // replica of a partition applied the same updates in the same
    // order, whichever engine MRP_ENGINE selected.
    cluster.schedule_crash(Time::from_secs(5), client_proc);
    cluster.run_until(Time::from_secs(6));
    for (partition, replicas) in &deployment.replicas {
        let mut snaps = Vec::new();
        for &p in replicas {
            let replica = cluster.actor_as::<EngineReplica<StoreApp>>(p);
            snaps.push(replica.expect("replica").app().snapshot());
        }
        assert!(
            snaps.windows(2).all(|w| w[0] == w[1]),
            "partition {partition}: replicas diverged"
        );
    }
    println!("the replicas of every partition agree byte for byte — scans were ordered");
    if deployment.engine.genuine() {
        println!("against every single-partition write, multicast only to the partitions");
        println!("each scan involves.");
    } else {
        println!("against every single-partition write by the global ring.");
    }
}
