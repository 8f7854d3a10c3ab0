//! dLog example: two logs plus a common ring; concurrent appenders and
//! atomic multi-appends; all three servers agree on every position.
//!
//! The same deployment runs once per atomic-multicast engine.
//!
//! Run with: `cargo run --example distributed_log`

use atomic_multicast::amcast::{EngineKind, EngineReplica};
use atomic_multicast::core::app::Application;
use atomic_multicast::core::config::RingTuning;
use atomic_multicast::core::replica::CheckpointPolicy;
use atomic_multicast::core::types::{ClientId, ProcessId, Time};
use atomic_multicast::dlog::{self, DLogApp, DLogDeployment, DLogTopology};
use atomic_multicast::sim::client::ClosedLoopClient;
use atomic_multicast::sim::cluster::{Cluster, SimConfig};
use atomic_multicast::sim::net::Topology;

fn main() {
    for kind in EngineKind::ALL {
        run(kind);
    }
}

fn run(kind: EngineKind) {
    let tuning = RingTuning {
        lambda: 2_000,
        ..RingTuning::default()
    };
    let deployment = DLogDeployment::build(&DLogTopology::new(2, tuning).engine(kind));
    println!(
        "dLog on {kind}: {} logs over {} servers, common ring for multi-appends",
        deployment.group_of_log.len(),
        deployment.servers.len()
    );

    let mut cluster = Cluster::new(SimConfig::default(), Topology::lan(8));
    deployment.spawn_servers(
        &mut cluster,
        CheckpointPolicy {
            interval_us: 0,
            sync: false,
        },
        200 * 1024 * 1024,
    );

    let client_proc = ProcessId::new(900);
    let client_id = ClientId::new(1);
    // 20% atomic multi-appends
    let workload = dlog::appends(deployment.clone(), 256, 200);
    let client = ClosedLoopClient::new(client_id, 6, "dlog", workload);
    cluster.add_client(client_proc, client_id, Box::new(client));
    cluster.start();
    cluster.run_until(Time::from_secs(5));

    let appends = cluster.metrics().counter("dlog/ops");
    println!("completed {appends} appends in 5 simulated seconds");
    assert!(appends > 0, "{kind}: no append completed");
    // Quiesce before comparing: stop the appender and drain in-flight
    // work. The servers converge once traffic stops (the wbcast
    // engine's subscribers settle on heartbeats rather than in
    // lockstep, so an arbitrary cutoff catches them mid-drain).
    cluster.schedule_crash(Time::from_secs(5), client_proc);
    cluster.run_until(Time::from_secs(6));
    // The three servers agree byte-for-byte on every log, on either
    // engine.
    let mut snaps = Vec::new();
    for &s in &deployment.servers {
        let server = cluster
            .actor_as::<EngineReplica<DLogApp>>(s)
            .expect("server");
        let app = server.app();
        for &log in deployment.group_of_log.keys() {
            let len = app.len_of(log).unwrap_or(0);
            println!("  server {} log {}: next position {}", s.value(), log, len);
        }
        snaps.push(app.snapshot());
    }
    assert!(
        snaps.windows(2).all(|w| w[0] == w[1]),
        "{kind}: servers diverged"
    );
    println!("all servers agree on all positions — multi-appends were atomic.");
}
