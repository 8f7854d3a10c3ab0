//! Quickstart: a three-process Multi-Ring Paxos ring on the
//! deterministic simulator. Three clients multicast values to one group
//! and every learner delivers them in the same total order.
//!
//! Run with: `cargo run --example quickstart`

use atomic_multicast::core::config::{single_ring, RingTuning};
use atomic_multicast::core::node::Node;
use atomic_multicast::core::types::{ClientId, GroupId, ProcessId, Time};
use atomic_multicast::sim::actor::{Actor, ActorCtx, ActorEvent, Outbox};
use atomic_multicast::sim::cluster::{Cluster, SimConfig};
use atomic_multicast::sim::net::Topology;
use bytes::Bytes;
use multiring_paxos::event::{Event, Message};
use std::any::Any;

/// A tiny client that fires a burst of requests at a proposer.
#[derive(Debug)]
struct Burst {
    target: ProcessId,
    client: ClientId,
    n: u64,
}

impl Actor for Burst {
    fn on_event(&mut self, _now: Time, ev: ActorEvent, out: &mut Outbox, _ctx: &mut ActorCtx<'_>) {
        if ev == ActorEvent::Protocol(Event::Start) {
            for i in 0..self.n {
                out.send(
                    self.target,
                    Message::Request {
                        client: self.client,
                        request: i,
                        groups: vec![GroupId::new(0)],
                        payload: Bytes::from(format!("client{}-msg{}", self.client.value(), i)),
                    },
                );
            }
        }
    }
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

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
        let client_proc = ProcessId::new(100 + c);
        cluster.add_actor(
            client_proc,
            Box::new(Burst {
                target: ProcessId::new(c),
                client: ClientId::new(u64::from(c)),
                n: 3,
            }),
        );
        cluster.register_client(ClientId::new(u64::from(c)), client_proc);
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
    println!("all learners agree — atomic multicast order is total.");
}
