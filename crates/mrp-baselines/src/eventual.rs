//! An eventually consistent partitioned store (Cassandra-like).
//!
//! Each partition has an owner and `RF - 1` asynchronous replicas. The
//! owner executes operations against its local tree and answers the
//! client *immediately*; mutations propagate to the replicas in the
//! background with no ordering. This captures the property the paper
//! contrasts in Figure 4: no request ordering ⇒ lower latency and higher
//! throughput, weaker guarantees (consistency ONE).

use bytes::Bytes;
use mrp_sim::actor::{Actor, ActorCtx, ActorEvent, Op, Outbox};
use mrp_sim::client::Operation;
use mrp_sim::rng::Rng;
use mrp_store::command::StoreCommand;
use mrp_store::kv::KvStore;
use mrp_store::PartitionMap;
use multiring_paxos::event::{Action, Event, Message};
use multiring_paxos::types::{ClientId, GroupId, ProcessId, Time};
use std::any::Any;
use std::collections::BTreeMap;

/// Marks internal replication traffic (never a real client id).
const REPLICATION_CLIENT: ClientId = ClientId::new(u64::MAX);

/// One partition server of the eventual store.
#[derive(Debug)]
pub struct EventualServer {
    partition: u16,
    /// Asynchronous replicas of this partition (receive mutations in
    /// the background).
    replicas: Vec<ProcessId>,
    kv: KvStore,
    /// Extra CPU microseconds charged per entry returned by a scan:
    /// models LSM/SSTable merges and read repair — the reason range
    /// scans are the workload where this style of store loses in the
    /// paper's Figure 4 (workload E).
    scan_us_per_entry: u64,
}

impl EventualServer {
    /// A server for `partition` replicating to `replicas`.
    pub fn new(partition: u16, replicas: Vec<ProcessId>) -> Self {
        Self {
            partition,
            replicas,
            kv: KvStore::new(),
            scan_us_per_entry: 15,
        }
    }

    /// Pre-loads an entry.
    pub fn load(&mut self, key: Bytes, value: Bytes) {
        self.kv.load(key, value);
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.kv.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.kv.is_empty()
    }
}

impl Actor for EventualServer {
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
        let mut buf = payload.clone();
        let Some(cmd) = StoreCommand::decode(&mut buf) else {
            return;
        };
        let response = self.kv.apply(&cmd);
        if let mrp_store::command::StoreResponse::Entries(es) = &response {
            // LSM scan penalty (see `scan_us_per_entry`).
            out.push(Op::Busy {
                us: self.scan_us_per_entry * (es.len() as u64 + 1),
            });
        }
        if client == REPLICATION_CLIENT {
            return; // background replication: no reply, no re-replication
        }
        // Answer immediately (consistency ONE)…
        out.push(Op::Protocol(Action::Respond {
            client,
            request,
            payload: mrp_store::app::StoreApp::frame_response(self.partition, &response),
        }));
        // …and propagate mutations asynchronously.
        let mutates = matches!(
            cmd,
            StoreCommand::Update { .. }
                | StoreCommand::Insert { .. }
                | StoreCommand::Delete { .. }
                | StoreCommand::Batch(_)
        );
        if mutates {
            for &r in &self.replicas {
                out.send(
                    r,
                    Message::Request {
                        client: REPLICATION_CLIENT,
                        request: 0,
                        groups: vec![GroupId::new(self.partition)],
                        payload: payload.clone(),
                    },
                );
            }
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// The key that places `cmd`: a batch goes where its first command
/// goes; a scan names none.
fn key_of(cmd: &StoreCommand) -> Option<&Bytes> {
    match cmd {
        StoreCommand::Read { key }
        | StoreCommand::Update { key, .. }
        | StoreCommand::Insert { key, .. }
        | StoreCommand::Delete { key } => Some(key),
        StoreCommand::Batch(cmds) => cmds.first().and_then(key_of),
        StoreCommand::Scan { .. } => None,
    }
}

/// The workload of a partitioned baseline store ([`EventualServer`] and
/// the single-server store), for `mrp_sim::ClosedLoopClient::new`:
/// `source` draws the next command and its metric tag from the
/// client's deterministic random stream; the command goes to the owner
/// of its key's partition, one that names no key to every owner (and
/// completes when all have answered).
pub fn store_ops(
    partition_map: PartitionMap,
    owners: BTreeMap<u16, ProcessId>,
    mut source: impl FnMut(&mut Rng) -> (StoreCommand, &'static str),
) -> impl FnMut(&mut Rng) -> Operation {
    move |rng| {
        let (cmd, tag) = source(rng);
        let targets: Vec<ProcessId> = match key_of(&cmd) {
            Some(key) => vec![owners[&partition_map.group_of(key).value()]],
            None => owners.values().copied().collect(),
        };
        Operation {
            need: targets.len(),
            to: targets
                .into_iter()
                .map(|t| (t, vec![GroupId::new(0)]))
                .collect(),
            payload: cmd.encode(),
            tag: Some(tag),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrp_sim::client::ClosedLoopClient;
    use mrp_sim::cluster::{Cluster, SimConfig};
    use mrp_sim::net::Topology;

    #[test]
    fn eventual_store_serves_and_replicates() {
        let mut cluster = Cluster::new(SimConfig::default(), Topology::lan(8));
        // Partition 0: owner p0, replicas p1, p2.
        let owner = ProcessId::new(0);
        let mut s0 = EventualServer::new(0, vec![ProcessId::new(1), ProcessId::new(2)]);
        s0.load(Bytes::from_static(b"k"), Bytes::from_static(b"v0"));
        cluster.add_actor(owner, Box::new(s0));
        for i in 1..3 {
            cluster.add_actor(ProcessId::new(i), Box::new(EventualServer::new(0, vec![])));
        }
        let client_proc = ProcessId::new(9);
        let client_id = ClientId::new(1);
        let mut n = 0u64;
        let workload = store_ops(
            PartitionMap::hash(1, 0),
            BTreeMap::from([(0u16, owner)]),
            move |_rng| {
                n += 1;
                (
                    StoreCommand::Insert {
                        key: Bytes::from(format!("key{}", n % 20)),
                        value: Bytes::from_static(b"x"),
                    },
                    "insert",
                )
            },
        );
        let client = ClosedLoopClient::new(client_id, 2, "cassandra", workload);
        cluster.add_client(client_proc, client_id, Box::new(client));
        cluster.start();
        cluster.run_until(Time::from_secs(2));
        assert!(cluster.metrics().counter("cassandra/ops") > 100);
        // Replication reached the async replicas.
        let r1 = cluster
            .actor_as::<EventualServer>(ProcessId::new(1))
            .unwrap();
        assert!(!r1.is_empty(), "async replica received mutations");
    }
}
