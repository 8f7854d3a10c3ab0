//! End-to-end MRP-Store tests on the deterministic simulator.

use bytes::Bytes;
use mrp_sim::cluster::{Cluster, SimConfig};
use mrp_sim::net::Topology;
use mrp_sim::rng::Rng;
use mrp_store::client::{ClientOp, StoreClient, StoreClientConfig};
use mrp_store::command::StoreCommand;
use mrp_store::{StoreApp, StoreDeployment, StoreTopology};

type StoreReplica = mrp_amcast::EngineReplica<StoreApp>;
use multiring_paxos::app::Application;
use multiring_paxos::config::RingTuning;
use multiring_paxos::replica::CheckpointPolicy;
use multiring_paxos::types::{ClientId, ProcessId, Time};

fn tuning() -> RingTuning {
    RingTuning {
        lambda: 2_000,
        delta_us: 5_000,
        ..RingTuning::default()
    }
}

fn spawn_store(cluster: &mut Cluster, deployment: &StoreDeployment, preload: u32) {
    let map = deployment.partition_map.clone();
    deployment.spawn_replicas(
        cluster,
        CheckpointPolicy {
            interval_us: 0,
            sync: true,
        },
        move |partition| {
            let mut app = StoreApp::new(partition);
            for i in 0..preload {
                let key = format!("user{i:06}");
                if map.group_of(key.as_bytes()).value() == partition {
                    app.load(Bytes::from(key), Bytes::from(vec![7u8; 64]));
                }
            }
            app
        },
    );
}

#[test]
fn mixed_workload_completes_operations() {
    let deployment = StoreDeployment::build(
        &StoreTopology::local(3, tuning()).engine(mrp_amcast::EngineKind::MultiRing),
    );
    let mut cluster = Cluster::new(
        SimConfig {
            seed: 11,
            ..SimConfig::default()
        },
        Topology::lan(16),
    );
    spawn_store(&mut cluster, &deployment, 200);

    let client_proc = ProcessId::new(900);
    let client_id = ClientId::new(1);
    let mut op_rng = Rng::new(99);
    let gen = move |_r: &mut Rng| {
        let k = op_rng.below(200);
        let key = Bytes::from(format!("user{k:06}"));
        match op_rng.below(5) {
            0 => ClientOp::Single {
                cmd: StoreCommand::Read { key },
                tag: "read",
            },
            1 => ClientOp::Single {
                cmd: StoreCommand::Update {
                    key,
                    value: Bytes::from(vec![1u8; 64]),
                },
                tag: "update",
            },
            2 => ClientOp::Single {
                cmd: StoreCommand::Insert {
                    key,
                    value: Bytes::from(vec![2u8; 64]),
                },
                tag: "insert",
            },
            3 => ClientOp::Single {
                cmd: StoreCommand::Scan {
                    from: key.clone(),
                    to: Bytes::from(format!("user{:06}", k + 20)),
                    limit: 20,
                },
                tag: "scan",
            },
            _ => ClientOp::ReadModifyWrite {
                key,
                value: Bytes::from(vec![3u8; 64]),
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
    cluster.run_until(Time::from_secs(10));

    let ops = cluster.metrics().counter("store/ops");
    assert!(ops > 100, "expected progress, got {ops} ops");
    // Scans and RMWs completed too.
    assert!(cluster
        .metrics()
        .histogram("store/latency_us/scan")
        .is_some_and(|h| h.count() > 0));
    assert!(cluster
        .metrics()
        .histogram("store/latency_us/rmw")
        .is_some_and(|h| h.count() > 0));
    // A read-modify-write is one operation: its update half is recorded
    // under `update` (one sample an RMW) and counted nowhere else.
    let samples = |tag: &str| {
        let h = cluster
            .metrics()
            .histogram(&format!("store/latency_us{tag}"));
        h.map_or(0, mrp_sim::Histogram::count)
    };
    let by_class: u64 = ["/read", "/update", "/insert", "/scan"]
        .map(samples)
        .iter()
        .sum();
    assert_eq!((samples(""), by_class), (ops, ops));
}

#[test]
fn replicas_of_a_partition_converge() {
    let deployment = StoreDeployment::build(
        &StoreTopology::local(2, tuning()).engine(mrp_amcast::EngineKind::MultiRing),
    );
    let mut cluster = Cluster::new(
        SimConfig {
            seed: 5,
            ..SimConfig::default()
        },
        Topology::lan(16),
    );
    spawn_store(&mut cluster, &deployment, 0);

    let client_proc = ProcessId::new(900);
    let client_id = ClientId::new(1);
    let mut n = 0u64;
    let gen = move |_r: &mut Rng| {
        n += 1;
        ClientOp::Single {
            cmd: StoreCommand::Insert {
                key: Bytes::from(format!("key{:04}", n % 50)),
                value: Bytes::from(format!("v{n}")),
            },
            tag: "insert",
        }
    };
    let client = StoreClient::new(
        StoreClientConfig::new(client_id, 4),
        deployment.clone(),
        gen,
    );
    cluster.add_actor(client_proc, Box::new(client));
    cluster.register_client(client_id, client_proc);
    cluster.start();
    cluster.run_until(Time::from_secs(5));

    // Every replica of each partition holds the same entries.
    for (&partition, members) in &deployment.replicas.clone() {
        let mut snapshots = Vec::new();
        for &p in members {
            let replica = cluster
                .actor_as::<StoreReplica>(p)
                .expect("replica present");
            assert_eq!(replica.app().partition(), partition);
            snapshots.push(replica.app().snapshot());
        }
        for pair in snapshots.windows(2) {
            assert_eq!(
                pair[0], pair[1],
                "replicas of partition {partition} diverge"
            );
        }
    }
    assert!(cluster.metrics().counter("store/ops") > 50);
}

#[test]
fn batching_reduces_requests_but_completes_all_ops() {
    let deployment = StoreDeployment::build(
        &StoreTopology::local(2, tuning()).engine(mrp_amcast::EngineKind::MultiRing),
    );
    let mut cluster = Cluster::new(
        SimConfig {
            seed: 8,
            ..SimConfig::default()
        },
        Topology::lan(16),
    );
    spawn_store(&mut cluster, &deployment, 100);

    let client_proc = ProcessId::new(900);
    let client_id = ClientId::new(1);
    let mut k = 0u64;
    let gen = move |_r: &mut Rng| {
        k += 1;
        ClientOp::Single {
            cmd: StoreCommand::Update {
                key: Bytes::from(format!("user{:06}", k % 100)),
                value: Bytes::from(vec![9u8; 256]),
            },
            tag: "update",
        }
    };
    let mut cfg = StoreClientConfig::new(client_id, 32);
    cfg.batch = Some(mrp_store::client::ClientBatching {
        max_bytes: 4096,
        linger_us: 500,
    });
    let client = StoreClient::new(cfg, deployment.clone(), gen);
    cluster.add_actor(client_proc, Box::new(client));
    cluster.register_client(client_id, client_proc);
    cluster.start();
    cluster.run_until(Time::from_secs(5));
    let ops = cluster.metrics().counter("store/ops");
    assert!(ops > 200, "batched updates progressed: {ops}");
}

#[test]
fn wbcast_engine_serves_store_and_replicas_converge() {
    // The identical insert workload, ordered by the timestamp-based
    // engine selected purely from deployment configuration.
    let deployment = StoreDeployment::build(
        &StoreTopology::local(2, tuning()).engine(mrp_amcast::EngineKind::Wbcast),
    );
    let mut cluster = Cluster::new(
        SimConfig {
            seed: 6,
            ..SimConfig::default()
        },
        Topology::lan(16),
    );
    spawn_store(&mut cluster, &deployment, 0);

    let client_proc = ProcessId::new(900);
    let client_id = ClientId::new(1);
    let mut n = 0u64;
    let gen = move |_r: &mut Rng| {
        n += 1;
        ClientOp::Single {
            cmd: StoreCommand::Insert {
                key: Bytes::from(format!("key{:04}", n % 50)),
                value: Bytes::from(format!("v{n}")),
            },
            tag: "insert",
        }
    };
    let client = StoreClient::new(
        StoreClientConfig::new(client_id, 4),
        deployment.clone(),
        gen,
    );
    cluster.add_actor(client_proc, Box::new(client));
    cluster.register_client(client_id, client_proc);
    cluster.start();
    // Stop the workload at 5 s, then let in-flight commands drain:
    // wbcast subscribers may trail each other by up to one heartbeat
    // interval, so state is only comparable at quiescence.
    cluster.schedule_crash(Time::from_secs(5), client_proc);
    cluster.run_until(Time::from_secs(6));

    // Every replica of each partition holds the same entries.
    for (&partition, members) in &deployment.replicas.clone() {
        let mut snapshots = Vec::new();
        for &p in members {
            let replica = cluster
                .actor_as::<StoreReplica>(p)
                .expect("wbcast replica present");
            assert_eq!(replica.app().partition(), partition);
            snapshots.push(replica.app().snapshot());
        }
        for pair in snapshots.windows(2) {
            assert_eq!(
                pair[0], pair[1],
                "wbcast replicas of partition {partition} diverge"
            );
        }
    }
    assert!(cluster.metrics().counter("store/ops") > 50);
}

#[test]
fn wbcast_scans_need_no_global_ring() {
    // The acceptance shape of genuine multi-group multicast: a store
    // with *no* global ring, ordered by the white-box engine. Scans —
    // the multi-partition commands — are multicast once to exactly the
    // covering partition groups and still complete with one response
    // per involved partition, consistently ordered against writes.
    let deployment = StoreDeployment::build(
        &StoreTopology::independent(3, tuning()).engine(mrp_amcast::EngineKind::Wbcast),
    );
    assert_eq!(deployment.global_group, None);
    let mut cluster = Cluster::new(
        SimConfig {
            seed: 13,
            ..SimConfig::default()
        },
        Topology::lan(16),
    );
    spawn_store(&mut cluster, &deployment, 200);

    let client_proc = ProcessId::new(900);
    let client_id = ClientId::new(1);
    let mut op_rng = Rng::new(4242);
    let gen = move |_r: &mut Rng| {
        let k = op_rng.below(200);
        let key = Bytes::from(format!("user{k:06}"));
        match op_rng.below(3) {
            0 => ClientOp::Single {
                cmd: StoreCommand::Scan {
                    from: key.clone(),
                    to: Bytes::from(format!("user{:06}", k + 30)),
                    limit: 30,
                },
                tag: "scan",
            },
            1 => ClientOp::Single {
                cmd: StoreCommand::Update {
                    key,
                    value: Bytes::from(vec![5u8; 64]),
                },
                tag: "update",
            },
            _ => ClientOp::Single {
                cmd: StoreCommand::Read { key },
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
    cluster.schedule_crash(Time::from_secs(8), client_proc);
    cluster.run_until(Time::from_secs(9));

    let scans = cluster
        .metrics()
        .histogram("store/latency_us/scan")
        .map_or(0, mrp_sim::Histogram::count);
    assert!(scans > 10, "cross-partition scans completed: {scans}");

    // Replicas of each partition converge despite the interleaved
    // multi-group scans (which every involved partition must order
    // identically against its writes).
    for (&partition, members) in &deployment.replicas.clone() {
        let mut snapshots = Vec::new();
        for &p in members {
            let replica = cluster
                .actor_as::<StoreReplica>(p)
                .expect("wbcast replica present");
            snapshots.push(replica.app().snapshot());
        }
        for pair in snapshots.windows(2) {
            assert_eq!(
                pair[0], pair[1],
                "wbcast replicas of partition {partition} diverge"
            );
        }
    }
}
