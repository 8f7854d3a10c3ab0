//! End-to-end recovery tests (Section 5): checkpointing, coordinated
//! trimming, and a replica recovering from a remote checkpoint plus
//! retransmissions after the acceptors (or sequencers) trimmed past its
//! own checkpoint — for every engine.

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

const CLIENT_PROC: ProcessId = ProcessId::new(900);

/// Three proposer/acceptors (p0..p2) ordering for three learner
/// replicas (p3..p5) under 500 writes/s. Keys wrap at 500 but every
/// write carries its request number, so the store's content names the
/// last write each replica executed.
fn build_cluster(kind: EngineKind, ckpt_interval_s: u64, trim_interval_s: u64) -> Cluster {
    let tuning = RingTuning {
        lambda: 2_000,
        trim_interval_us: trim_interval_s * 1_000_000,
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
    let config = builder.build().expect("config");

    let mut cluster = Cluster::new(
        SimConfig {
            seed: 77,
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
        interval_us: ckpt_interval_s * 1_000_000,
        sync: true,
    };
    for i in 3..6 {
        let p = ProcessId::new(i);
        cluster.add_recoverable_replica_actor(kind, p, config.clone(), policy, || StoreApp::new(0));
        cluster.add_disk(p, DiskModel::ssd());
    }
    let client_id = ClientId::new(1);
    let client = OpenLoopClient::new(
        client_id,
        ProcessId::new(0),
        GroupId::new(0),
        2_000, // 500 writes/s
        "load",
        |req| {
            StoreCommand::Insert {
                key: Bytes::from(format!("key{:05}", req % 500)),
                value: Bytes::from(format!("{req:064}")),
            }
            .encode()
        },
    );
    cluster.add_actor(CLIENT_PROC, Box::new(client));
    cluster.register_client(client_id, CLIENT_PROC);
    cluster
}

fn replica(cluster: &mut Cluster, i: u32) -> &EngineReplica<StoreApp> {
    cluster
        .actor_as::<EngineReplica<StoreApp>>(ProcessId::new(i))
        .expect("replica")
}

#[test]
fn checkpoints_enable_acceptor_trimming() {
    let mut cluster = build_cluster(EngineKind::MultiRing, 2, 2);
    cluster.start();
    cluster.run_until(Time::from_secs(10));
    // Replicas checkpointed and the coordinator trimmed acceptor logs.
    let checkpoints: u64 = (3..6)
        .map(|i| replica(&mut cluster, i).checkpoints_taken())
        .sum();
    assert!(checkpoints >= 3, "replicas checkpoint periodically");
    assert!(
        cluster.metrics().counter("trim_storage") > 0,
        "acceptors trimmed their logs after quorum checkpoints"
    );
    // The stable storage of an acceptor is bounded: it retains far fewer
    // payload bytes than the total written.
    let storage = cluster.storage(ProcessId::new(0)).expect("storage");
    let total_written: u64 = cluster.metrics().counter("load/ops") * 64;
    assert!(
        (storage.payload_bytes() as u64) < total_written / 2,
        "trim keeps the acceptor log bounded ({} vs {} written)",
        storage.payload_bytes(),
        total_written
    );
}

#[test]
fn replica_recovers_from_remote_checkpoint_after_trim() {
    for kind in EngineKind::ALL {
        let mut cluster = build_cluster(kind, 2, 2);
        cluster.start();
        // Kill replica p4 early; let the system run long enough that the
        // acceptors (sequencer) trim past everything p4 saw; restart it
        // under load; then stop the load and let in-flight work drain so
        // the three stores can be compared byte for byte.
        cluster.schedule_crash(Time::from_secs(3), ProcessId::new(4));
        cluster.schedule_restart(Time::from_secs(12), ProcessId::new(4));
        cluster.run_until(Time::from_secs(12));
        let executed_by_peer_at_restart = replica(&mut cluster, 3).executed();
        cluster.schedule_crash(Time::from_secs(17), CLIENT_PROC);
        cluster.run_until(Time::from_secs(18));

        assert!(cluster.is_up(ProcessId::new(4)));
        for i in 3..6 {
            assert!(
                !replica(&mut cluster, i).is_recovering(),
                "{kind}: p{i} finished the recovery protocol"
            );
        }
        // The restarted replica executes again: everything its peers
        // executed since the restart, plus at most the short tail
        // between the checkpoint it installed and the restart — not the
        // history that checkpoint covers (state transfer, not replay).
        let executed: Vec<u64> = (3..6)
            .map(|i| replica(&mut cluster, i).executed())
            .collect();
        let since_restart = executed[0] - executed_by_peer_at_restart;
        assert!(since_restart > 2_000, "{kind}: load ran after the restart");
        assert!(
            executed[1] >= since_restart,
            "{kind}: restarted replica executed {} of the {since_restart} commands since",
            executed[1]
        );
        assert!(
            executed[1] < executed[0] / 2,
            "{kind}: restarted replica skipped checkpointed history ({} vs {})",
            executed[1],
            executed[0]
        );
        // Every key was overwritten with a fresh value after the restart,
        // so equal snapshots mean p4 applied those writes too.
        let snapshots: Vec<Bytes> = (3..6)
            .map(|i| replica(&mut cluster, i).app().snapshot())
            .collect();
        assert_eq!(snapshots[0], snapshots[2], "{kind}: survivors diverge");
        assert_eq!(
            snapshots[0], snapshots[1],
            "{kind}: recovered replica diverges from its peers"
        );
        // It caught up from a peer's checkpoint, not by re-anchoring its
        // stream past a hole.
        assert_eq!(
            replica(&mut cluster, 4)
                .telemetry()
                .counter("sub.resync_truncations"),
            0,
            "{kind}: stream truncated during recovery"
        );
    }
}
