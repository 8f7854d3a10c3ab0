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
use atomic_multicast::core::types::{ClientId, GroupId, ProcessId, RingId, Time};
use atomic_multicast::sim::actor::{Actor, ActorCtx, ActorEvent, Outbox};
use atomic_multicast::sim::cluster::{Cluster, SimConfig};
use atomic_multicast::sim::net::Topology;
use bytes::Bytes;
use multiring_paxos::event::{Event, Message};
use std::any::Any;

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
        let mut spec = RingSpec::new(RingId::new(ring)).tuning(tuning);
        for p in 0..3u32 {
            // Rotate membership so coordinators/sequencers spread.
            spec = spec.member(ProcessId::new((p + u32::from(ring)) % 3), Roles::ALL);
        }
        b = b.ring(spec).group(GroupId::new(ring), RingId::new(ring));
    }
    for p in 0..3u32 {
        for g in 0..2u16 {
            b = b.subscribe(ProcessId::new(p), GroupId::new(g));
        }
    }
    b.build().expect("engine_compare config")
}

/// Fires a burst of requests at a proposer.
#[derive(Debug)]
struct Burst {
    target: ProcessId,
    group: GroupId,
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
                        groups: vec![self.group],
                        payload: Bytes::from(vec![0u8; 64]),
                    },
                );
            }
        }
    }
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

fn run(kind: EngineKind) -> u64 {
    let config = config();
    let mut cluster = Cluster::new(SimConfig::default(), Topology::lan(8));
    // The whole engine choice is this one argument.
    cluster.add_engine_actors(&config, kind);
    for g in 0..2u16 {
        let client_proc = ProcessId::new(100 + u32::from(g));
        let client_id = ClientId::new(u64::from(g));
        cluster.add_actor(
            client_proc,
            Box::new(Burst {
                target: ProcessId::new(u32::from(g)),
                group: GroupId::new(g),
                client: client_id,
                n: 20,
            }),
        );
        cluster.register_client(client_id, client_proc);
    }
    cluster.start();
    cluster.run_until(Time::from_secs(3));
    cluster.metrics().counter("delivered_values")
}

fn main() {
    // 20 values × 2 groups × 3 subscribers each.
    const EXPECTED: u64 = 20 * 2 * 3;

    let engines: Vec<EngineKind> = match std::env::var("MRP_ENGINE") {
        Ok(name) => vec![name.parse().expect("MRP_ENGINE is `multiring` or `wbcast`")],
        Err(_) => EngineKind::ALL.to_vec(),
    };
    for kind in engines {
        let delivered = run(kind);
        println!("engine {kind:>9}: delivered {delivered} values (expected {EXPECTED})");
        assert_eq!(
            delivered, EXPECTED,
            "engine {kind} lost or duplicated deliveries"
        );
    }
    println!("both engines satisfy the same multicast contract — swap them freely.");
}
