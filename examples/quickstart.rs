//! Quickstart: a three-process Multi-Ring Paxos ring on the
//! deterministic simulator. Three clients multicast values to one group
//! and every learner delivers them in the same total order.
//!
//! Run with: `cargo run --example quickstart`

use atomic_multicast::core::config::{single_ring, RingTuning};
use atomic_multicast::core::node::Node;
use atomic_multicast::core::types::{ClientId, GroupId, ProcessId, Time};
use atomic_multicast::sim::cluster::{Cluster, SimConfig};
use atomic_multicast::sim::net::Topology;
use atomic_multicast::sim::Burst;
use bytes::Bytes;

fn main() {
    // One ring, three processes, all of them proposer+acceptor+learner.
    let config = single_ring(
        3,
        RingTuning {
            lambda: 0,
            ..RingTuning::default()
        },
    );
    let mut cluster = Cluster::new(SimConfig::default(), Topology::lan(8));
    cluster.set_protocol(config.clone());
    for i in 0..3 {
        let p = ProcessId::new(i);
        cluster.add_actor(p, Box::new(Node::new(p, config.clone())));
    }
    // Three independent clients, each sending to a different proposer.
    for c in 0..3u32 {
        let client = ClientId::new(u64::from(c));
        let payload = Bytes::from(format!("hello from client {c}"));
        let burst = Burst::new(client, ProcessId::new(c), vec![GroupId::new(0)], 3, payload);
        cluster.add_client(ProcessId::new(100 + c), client, Box::new(burst));
    }
    cluster.start();
    cluster.run_until(Time::from_secs(2));

    println!(
        "delivered {} values across 3 learners in {:.1} simulated seconds",
        cluster.metrics().counter("delivered_values"),
        cluster.now().as_secs_f64()
    );
    // Every learner consumed the same merge positions.
    for i in 0..3 {
        let node = cluster.actor_as::<Node>(ProcessId::new(i)).expect("node");
        println!("  learner {}: merge watermark = {}", i, node.watermarks());
    }
    assert_eq!(cluster.metrics().counter("delivered_values"), 27); // 9 values × 3 learners

    // Each learner delivered every value once, in an order no other
    // learner contradicts: with all nine everywhere, one total order.
    cluster
        .check_history()
        .expect("the run is an atomic multicast history");
    println!("all learners agree — atomic multicast order is total.");
}
