//! A single-server strongly consistent store (MySQL-like baseline of
//! Figure 4): one process holds the whole database and executes
//! operations serially. Strong consistency is trivial; the cost is that
//! it cannot scale horizontally — its throughput is whatever one
//! server's CPU model admits.

use bytes::Bytes;
use mrp_sim::actor::{Actor, ActorCtx, ActorEvent, Op, Outbox};
use mrp_store::app::StoreApp;
use mrp_store::command::StoreCommand;
use mrp_store::kv::KvStore;
use multiring_paxos::event::{Action, Event, Message};
use multiring_paxos::types::Time;
use std::any::Any;

/// The single server.
#[derive(Debug, Default)]
pub struct SingleServer {
    kv: KvStore,
}

impl SingleServer {
    /// An empty server.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-loads an entry.
    pub fn load(&mut self, key: Bytes, value: Bytes) {
        self.kv.load(key, value);
    }

    /// Entries held.
    pub fn len(&self) -> usize {
        self.kv.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.kv.is_empty()
    }
}

impl Actor for SingleServer {
    fn on_event(
        &mut self,
        _now: Time,
        event: ActorEvent,
        out: &mut Outbox,
        _ctx: &mut ActorCtx<'_>,
    ) {
        let ActorEvent::Protocol(Event::Message {
            msg:
                Message::Request {
                    client,
                    request,
                    payload,
                    ..
                },
            ..
        }) = event
        else {
            return;
        };
        let mut buf = payload;
        let Some(cmd) = StoreCommand::decode(&mut buf) else {
            return;
        };
        let response = self.kv.apply(&cmd);
        out.push(Op::Protocol(Action::Respond {
            client,
            request,
            payload: StoreApp::frame_response(0, &response),
        }));
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eventual::store_ops;
    use mrp_coord::PartitionMap;
    use mrp_sim::client::ClosedLoopClient;
    use mrp_sim::cluster::{Cluster, SimConfig};
    use mrp_sim::cpu::CpuModel;
    use mrp_sim::net::Topology;
    use multiring_paxos::types::{ClientId, ProcessId};
    use std::collections::BTreeMap;

    #[test]
    fn cpu_model_caps_throughput() {
        // Two runs: a fast server and a slow server; the slow one must
        // complete measurably fewer ops in the same time.
        let mut totals = Vec::new();
        for per_event_us in [10u64, 1000] {
            let mut cluster = Cluster::new(SimConfig::default(), Topology::lan(4));
            let server = ProcessId::new(0);
            cluster.add_actor(server, Box::new(SingleServer::new()));
            cluster.set_cpu(server, CpuModel::new(per_event_us, 0));
            let client_proc = ProcessId::new(9);
            let client_id = ClientId::new(1);
            let mut n = 0u64;
            let workload = store_ops(
                PartitionMap::hash(1, 0),
                BTreeMap::from([(0u16, server)]),
                move |_rng| {
                    n += 1;
                    (
                        StoreCommand::Insert {
                            key: Bytes::from(format!("k{n}")),
                            value: Bytes::from_static(b"v"),
                        },
                        "insert",
                    )
                },
            );
            let client = ClosedLoopClient::new(client_id, 4, "mysql", workload);
            cluster.add_client(client_proc, client_id, Box::new(client));
            cluster.start();
            cluster.run_until(Time::from_secs(2));
            totals.push(cluster.metrics().counter("mysql/ops"));
        }
        assert!(
            totals[0] > totals[1] * 5,
            "fast {} vs slow {}",
            totals[0],
            totals[1]
        );
    }
}
