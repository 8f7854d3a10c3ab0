//! End-to-end dLog tests on the deterministic simulator.

use mrp_dlog::{DLogApp, DLogDeployment, DLogTopology};
use mrp_sim::client::ClosedLoopClient;
use mrp_sim::cluster::{Cluster, SimConfig};
use mrp_sim::net::Topology;
use multiring_paxos::app::Application;
use multiring_paxos::config::RingTuning;
use multiring_paxos::replica::CheckpointPolicy;
use multiring_paxos::types::{ClientId, ProcessId, Time};

type Server = mrp_amcast::EngineReplica<DLogApp>;

fn tuning() -> RingTuning {
    RingTuning {
        lambda: 2_000,
        delta_us: 5_000,
        ..RingTuning::default()
    }
}

fn spawn_dlog(cluster: &mut Cluster, deployment: &DLogDeployment) {
    deployment.spawn_servers(
        cluster,
        CheckpointPolicy {
            interval_us: 0,
            sync: true,
        },
        200 * 1024 * 1024,
    );
}

#[test]
fn appends_and_multi_appends_complete_and_servers_agree() {
    let deployment = DLogDeployment::build(
        &DLogTopology::new(2, tuning()).engine(mrp_amcast::EngineKind::MultiRing),
    );
    let mut cluster = Cluster::new(
        SimConfig {
            seed: 21,
            ..SimConfig::default()
        },
        Topology::lan(8),
    );
    spawn_dlog(&mut cluster, &deployment);

    let client_proc = ProcessId::new(900);
    let client_id = ClientId::new(1);
    // 10% multi-appends
    let workload = mrp_dlog::appends(deployment.clone(), 512, 100);
    let client = ClosedLoopClient::new(client_id, 8, "dlog", workload);
    cluster.add_client(client_proc, client_id, Box::new(client));
    cluster.start();
    cluster.run_until(Time::from_secs(10));

    let ops = cluster.metrics().counter("dlog/ops");
    assert!(ops > 100, "appends progressed: {ops}");

    // All three servers hold identical log states.
    let mut snaps = Vec::new();
    for &s in &deployment.servers.clone() {
        let server = cluster.actor_as::<Server>(s).expect("server");
        assert!(server.app().appended() > 0);
        snaps.push(server.app().snapshot());
    }
    assert_eq!(snaps[0], snaps[1]);
    assert_eq!(snaps[1], snaps[2]);
}

#[test]
fn wbcast_engine_serves_dlog_and_servers_agree() {
    // The identical workload, ordered by the timestamp-based engine
    // selected purely from deployment configuration.
    let deployment = DLogDeployment::build(
        &DLogTopology::new(2, tuning()).engine(mrp_amcast::EngineKind::Wbcast),
    );
    let mut cluster = Cluster::new(
        SimConfig {
            seed: 22,
            ..SimConfig::default()
        },
        Topology::lan(8),
    );
    spawn_dlog(&mut cluster, &deployment);

    let client_proc = ProcessId::new(900);
    let client_id = ClientId::new(1);
    let workload = mrp_dlog::appends(deployment.clone(), 512, 100);
    let client = ClosedLoopClient::new(client_id, 8, "dlog", workload);
    cluster.add_client(client_proc, client_id, Box::new(client));
    cluster.start();
    // Stop the workload at 10 s, then let in-flight commands drain:
    // wbcast subscribers may trail each other by up to one heartbeat
    // interval, so state is only comparable at quiescence.
    cluster.schedule_crash(Time::from_secs(10), client_proc);
    cluster.run_until(Time::from_secs(11));

    let ops = cluster.metrics().counter("dlog/ops");
    assert!(ops > 100, "appends progressed under wbcast: {ops}");

    let mut snaps = Vec::new();
    for &s in &deployment.servers.clone() {
        let server = cluster.actor_as::<Server>(s).expect("wbcast server");
        assert!(server.app().appended() > 0);
        snaps.push(server.app().snapshot());
    }
    assert_eq!(snaps[0], snaps[1]);
    assert_eq!(snaps[1], snaps[2]);
}

#[test]
fn wbcast_multi_appends_need_no_common_ring() {
    // Genuine multi-group multicast: multi-appends address exactly the
    // destination logs' groups, so the common ring is not deployed at
    // all.
    let mut topology = DLogTopology::new(3, tuning()).engine(mrp_amcast::EngineKind::Wbcast);
    topology.common_ring = false;
    let deployment = DLogDeployment::build(&topology);
    assert_eq!(deployment.common_group, None);
    let mut cluster = Cluster::new(
        SimConfig {
            seed: 29,
            ..SimConfig::default()
        },
        Topology::lan(8),
    );
    spawn_dlog(&mut cluster, &deployment);

    let client_proc = ProcessId::new(900);
    let client_id = ClientId::new(1);
    // 20% multi-appends
    let workload = mrp_dlog::appends(deployment.clone(), 512, 200);
    let client = ClosedLoopClient::new(client_id, 8, "dlog", workload);
    cluster.add_client(client_proc, client_id, Box::new(client));
    cluster.start();
    cluster.schedule_crash(Time::from_secs(10), client_proc);
    cluster.run_until(Time::from_secs(11));

    let ops = cluster.metrics().counter("dlog/ops");
    assert!(ops > 100, "appends progressed without a common ring: {ops}");

    let mut snaps = Vec::new();
    for &s in &deployment.servers.clone() {
        let server = cluster.actor_as::<Server>(s).expect("wbcast server");
        assert!(server.app().appended() > 0);
        snaps.push(server.app().snapshot());
    }
    assert_eq!(snaps[0], snaps[1]);
    assert_eq!(snaps[1], snaps[2]);
}
