//! Recovery example (Section 5): a replica is killed mid-run, its peers
//! keep serving, checkpoints let acceptors trim their logs, and the
//! restarted replica rebuilds its state from a remote checkpoint plus
//! retransmitted consensus instances (or, with `MRP_ENGINE=wbcast`, the
//! sequencer's replayed stream).
//!
//! Run with: `cargo run --example recovery --release`

use atomic_multicast::amcast::{EngineKind, EngineReplica};
use atomic_multicast::core::app::Application;
use atomic_multicast::core::config::{ClusterConfig, RingSpec, RingTuning, Roles};
use atomic_multicast::core::replica::CheckpointPolicy;
use atomic_multicast::core::types::{ClientId, GroupId, ProcessId, RingId, Time};
use atomic_multicast::sim::cluster::{Cluster, SimConfig};
use atomic_multicast::sim::disk::DiskModel;
use atomic_multicast::sim::net::Topology;
use atomic_multicast::store::command::StoreCommand;
use atomic_multicast::store::StoreApp;
use bytes::Bytes;
use mrp_bench::OpenLoopClient;

fn main() {
    let kind = EngineKind::from_env();
    // One ring: three proposer/acceptors + three learner replicas.
    let tuning = RingTuning {
        lambda: 2_000,
        trim_interval_us: 3_000_000,
        ..RingTuning::default()
    };
    let mut spec = RingSpec::new(RingId::new(0)).tuning(tuning);
    for i in 0..3 {
        spec = spec.member(ProcessId::new(i), Roles::PROPOSER | Roles::ACCEPTOR);
    }
    for i in 3..6 {
        spec = spec.member(ProcessId::new(i), Roles::LEARNER);
    }
    let mut builder = ClusterConfig::builder()
        .ring(spec)
        .group(GroupId::new(0), RingId::new(0));
    for i in 3..6 {
        builder = builder.subscribe(ProcessId::new(i), GroupId::new(0));
    }
    let config = builder.build().expect("valid config");

    let mut cluster = Cluster::new(
        SimConfig {
            election_timeout_us: 300_000,
            ..SimConfig::default()
        },
        Topology::lan(8),
    );
    cluster.set_protocol(config.clone());
    for i in 0..3 {
        let p = ProcessId::new(i);
        cluster.add_actor(p, Box::new(kind.build(p, config.clone())));
        cluster.add_disk(p, DiskModel::ssd());
    }
    let policy = CheckpointPolicy {
        interval_us: 3_000_000,
        sync: true,
    };
    for i in 3..6 {
        let p = ProcessId::new(i);
        cluster.add_recoverable_replica_actor(kind, p, config.clone(), policy, || StoreApp::new(0));
        cluster.add_disk(p, DiskModel::ssd());
    }
    // Steady write load.
    let client_proc = ProcessId::new(900);
    let client_id = ClientId::new(1);
    let client = OpenLoopClient::new(
        client_id,
        ProcessId::new(0),
        GroupId::new(0),
        1_000, // 1000 writes/s
        "load",
        |req| {
            StoreCommand::Insert {
                key: Bytes::from(format!("key{:05}", req % 1000)),
                value: Bytes::from(format!("{req:064}")),
            }
            .encode()
        },
    );
    cluster.add_actor(client_proc, Box::new(client));
    cluster.register_client(client_id, client_proc);

    cluster.start();
    println!("t= 0s: cluster running, replica p4 will crash at t=3s");
    cluster.schedule_crash(Time::from_secs(3), ProcessId::new(4));
    cluster.schedule_restart(Time::from_secs(10), ProcessId::new(4));
    // Stop the load a second before the end so in-flight writes drain
    // and the stores can be compared byte for byte.
    cluster.schedule_crash(Time::from_secs(15), client_proc);
    cluster.run_until(Time::from_secs(16));

    println!("t=16s: run finished");
    println!(
        "  acceptor log trims executed: {}",
        cluster.metrics().counter("trim_storage")
    );
    let mut executed = Vec::new();
    let mut snapshots = Vec::new();
    for i in 3..6 {
        let p = ProcessId::new(i);
        let r = cluster
            .actor_as::<EngineReplica<StoreApp>>(p)
            .expect("replica");
        println!(
            "  replica p{}: executed {:>5} commands, {:>4} keys, {} checkpoints{}",
            i,
            r.executed(),
            r.app().len(),
            r.checkpoints_taken(),
            if i == 4 {
                "   <- crashed & recovered"
            } else {
                ""
            }
        );
        assert!(!r.is_recovering());
        executed.push(r.executed());
        snapshots.push(r.app().snapshot());
    }
    assert!(
        0 < executed[1] && executed[1] < executed[0],
        "state transfer plus a short replay, not the whole history"
    );
    assert_eq!(snapshots[0], snapshots[2]);
    assert_eq!(snapshots[0], snapshots[1], "recovered replica caught up");
    println!("the restarted replica installed a remote checkpoint and replayed the gap.");
}
