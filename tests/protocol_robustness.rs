//! Robustness tests: the protocol under message loss, with link-level
//! batching enabled, with synchronous storage gating votes, across
//! coordinator failovers (no duplicate or lost deliveries), and for the
//! wbcast orphan-recovery exchange under duplicated/reordered frames
//! and revived-initiator retries; and, over real sockets, a store
//! partition handed a client command built to exhaust the decoder's
//! stack.

use atomic_multicast::amcast::wbcast::{frame_kind, WbcastNode};
use atomic_multicast::amcast::AmcastEngine;
use atomic_multicast::core::config::{
    single_ring, ClusterConfig, RingSpec, RingTuning, Roles, StorageMode,
};
use atomic_multicast::core::node::Node;
use atomic_multicast::core::types::{ClientId, GroupId, ProcessId, Time, ValueId};
use atomic_multicast::sim::actor::{Actor, ActorCtx, ActorEvent, Outbox};
use atomic_multicast::sim::cluster::{Cluster, SimConfig};
use atomic_multicast::sim::disk::DiskModel;
use atomic_multicast::sim::net::Topology;
use bytes::Bytes;
use multiring_paxos::event::{Action, Event, Message, StateMachine, TimerKind};
use std::any::Any;
use std::collections::{BTreeMap, VecDeque};

/// Client that spreads `n` requests over time (one per `gap_us`).
#[derive(Debug)]
struct Trickle {
    target: ProcessId,
    client: ClientId,
    n: u64,
    sent: u64,
    gap_us: u64,
}

impl Actor for Trickle {
    fn on_event(&mut self, _now: Time, ev: ActorEvent, out: &mut Outbox, _ctx: &mut ActorCtx<'_>) {
        match ev {
            ActorEvent::Protocol(Event::Start) | ActorEvent::Wakeup(0) if self.sent < self.n => {
                out.send(
                    self.target,
                    Message::Request {
                        client: self.client,
                        request: self.sent,
                        groups: vec![GroupId::new(0)],
                        payload: Bytes::from(vec![0u8; 32]),
                    },
                );
                self.sent += 1;
                out.wakeup(self.gap_us, 0);
            }
            _ => {}
        }
    }
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

fn build(tuning: RingTuning, topology: Topology, seed: u64, disks: bool) -> Cluster {
    let config = single_ring(3, tuning);
    let mut cluster = Cluster::new(
        SimConfig {
            seed,
            election_timeout_us: 200_000,
        },
        topology,
    );
    cluster.set_protocol(config.clone());
    for i in 0..3 {
        let p = ProcessId::new(i);
        cluster.add_actor(p, Box::new(Node::new(p, config.clone())));
        if disks {
            cluster.add_disk(p, DiskModel::ssd());
        }
    }
    cluster
}

fn delivered(cluster: &Cluster, p: u32) -> usize {
    cluster.delivered(ProcessId::new(p)).count()
}

#[test]
fn survives_heavy_message_loss() {
    // 20% of messages dropped: proposer resend, coordinator re-proposal
    // and learner gap repair must still deliver everything exactly once.
    let tuning = RingTuning {
        lambda: 0,
        gap_timeout_us: 50_000,
        proposal_resend_us: 100_000,
        repropose_us: 150_000,
        ..RingTuning::default()
    };
    let mut topology = Topology::lan(8);
    topology.loss = 0.2;
    let mut cluster = build(tuning, topology, 41, false);
    let client_proc = ProcessId::new(100);
    cluster.add_actor(
        client_proc,
        Box::new(Trickle {
            target: ProcessId::new(1),
            client: ClientId::new(1),
            n: 40,
            sent: 0,
            gap_us: 10_000,
        }),
    );
    cluster.register_client(ClientId::new(1), client_proc);
    cluster.start();
    cluster.run_until(Time::from_secs(30));

    assert_eq!(cluster.check_history(), Ok(()));
    for p in 0..3 {
        assert_eq!(
            delivered(&cluster, p),
            40,
            "learner {p} delivered everything"
        );
    }
}

#[test]
fn sync_storage_gates_votes_but_preserves_total_order() {
    let tuning = RingTuning {
        lambda: 0,
        storage: StorageMode::SyncDisk,
        ..RingTuning::default()
    };
    let mut cluster = build(tuning, Topology::lan(8), 43, true);
    let client_proc = ProcessId::new(100);
    cluster.add_actor(
        client_proc,
        Box::new(Trickle {
            target: ProcessId::new(0),
            client: ClientId::new(1),
            n: 50,
            sent: 0,
            gap_us: 2_000,
        }),
    );
    cluster.register_client(ClientId::new(1), client_proc);
    cluster.start();
    cluster.run_until(Time::from_secs(5));
    assert_eq!(cluster.check_history(), Ok(()));
    for p in 0..3 {
        assert_eq!(delivered(&cluster, p), 50, "learner {p}");
    }
    // Votes really are on stable storage.
    let storage = cluster.storage(ProcessId::new(1)).expect("storage");
    let rec = storage.acceptor_recovery();
    assert!(
        rec[&multiring_paxos::types::GroupId::new(0)].accepted.len() >= 50,
        "sync mode logged every vote"
    );
}

#[test]
fn coordinator_failover_neither_loses_nor_duplicates() {
    let tuning = RingTuning {
        lambda: 0,
        gap_timeout_us: 50_000,
        proposal_resend_us: 100_000,
        repropose_us: 200_000,
        ..RingTuning::default()
    };
    let mut cluster = build(tuning, Topology::lan(8), 44, false);
    let client_proc = ProcessId::new(100);
    // 100 requests over 4 seconds aimed at p1 (which survives); the
    // coordinator p0 dies mid-stream.
    cluster.add_actor(
        client_proc,
        Box::new(Trickle {
            target: ProcessId::new(1),
            client: ClientId::new(1),
            n: 100,
            sent: 0,
            gap_us: 40_000,
        }),
    );
    cluster.register_client(ClientId::new(1), client_proc);
    cluster.start();
    cluster.schedule_crash(Time::from_secs(2), ProcessId::new(0));
    cluster.run_until(Time::from_secs(10));

    // No duplicates across the failover, one order at the survivors —
    // and the dead coordinator's deliveries agree with theirs.
    assert_eq!(cluster.check_history(), Ok(()));
    for p in 1..3 {
        assert_eq!(
            delivered(&cluster, p),
            100,
            "learner {p} delivered the full stream"
        );
    }
    assert!(cluster.metrics().counter("elections") >= 1);
}

// ---------------- wbcast orphan-recovery robustness -------------------

/// Two disjoint two-process groups: ring 0 = {p0, p1} (sequencer p0),
/// ring 1 = {p2, p3} (sequencer p2); members subscribe their own
/// group. p1 — a proposer that coordinates nothing — initiates the
/// multi-group rounds.
fn orphan_config() -> ClusterConfig {
    let mut b = ClusterConfig::builder();
    for (ring, members) in [(0u16, [0u32, 1]), (1, [2, 3])] {
        let mut spec = RingSpec::new(GroupId::new(ring));
        for p in members {
            spec = spec.member(ProcessId::new(p), Roles::ALL);
        }
        b = b.ring(spec);
        for p in members {
            b = b.subscribe(ProcessId::new(p), GroupId::new(ring));
        }
    }
    b.build().expect("orphan config")
}

/// A hand-driven network over [`WbcastNode`]s with targeted fault
/// injection: frames to `slow` are *held* (the falsely-suspected
/// initiator — delayed, not lost, matching the engine's reliable-FIFO
/// channel contract), and — when enabled — every orphan-recovery frame
/// (`OrphanQuery`/`OrphanState`/`OrphanFinal`) is delivered twice and
/// each step's batch of them in reverse order.
struct OrphanNet {
    nodes: BTreeMap<ProcessId, WbcastNode>,
    slow: ProcessId,
    held: Vec<(ProcessId, Message)>,
    dup_reorder_orphans: bool,
    delivered: BTreeMap<ProcessId, Vec<(u64, ValueId)>>,
    /// `Ordered` frames put on the wire (releases and re-releases).
    ordered_frames: u64,
}

impl OrphanNet {
    fn new(config: &ClusterConfig, slow: ProcessId) -> Self {
        Self {
            nodes: config
                .processes()
                .into_iter()
                .map(|p| (p, WbcastNode::new(p, config.clone())))
                .collect(),
            slow,
            held: Vec::new(),
            dup_reorder_orphans: false,
            delivered: BTreeMap::new(),
            ordered_frames: 0,
        }
    }

    fn enqueue(
        &mut self,
        queue: &mut VecDeque<(ProcessId, ProcessId, Message)>,
        from: ProcessId,
        actions: Vec<Action>,
    ) {
        let mut orphans = Vec::new();
        for a in actions {
            match a {
                Action::Send { to, msg } => {
                    let is_orphan = matches!(
                        &msg,
                        Message::Engine { payload, .. }
                            if frame_kind(payload.clone())
                                .is_some_and(|k| k.starts_with("orphan"))
                    );
                    if let Message::Engine { payload, .. } = &msg {
                        if frame_kind(payload.clone()) == Some("ordered") {
                            self.ordered_frames += 1;
                        }
                    }
                    if self.dup_reorder_orphans && is_orphan {
                        orphans.push((from, to, msg));
                    } else {
                        queue.push_back((from, to, msg));
                    }
                }
                Action::Deliver {
                    instance, value, ..
                } => self
                    .delivered
                    .entry(from)
                    .or_default()
                    .push((instance.value(), value.id)),
                _ => {}
            }
        }
        // Reordered and duplicated: the exchange must be insensitive to
        // both.
        for (from, to, msg) in orphans.into_iter().rev() {
            queue.push_back((from, to, msg.clone()));
            queue.push_back((from, to, msg));
        }
    }

    /// Runs `actions` (attributed to `from`) to quiescence at `t`.
    fn pump(&mut self, t: Time, from: ProcessId, actions: Vec<Action>) {
        let mut queue = VecDeque::new();
        self.enqueue(&mut queue, from, actions);
        let mut steps = 0;
        while let Some((origin, to, msg)) = queue.pop_front() {
            steps += 1;
            assert!(steps < 100_000, "no quiescence");
            if to == self.slow {
                self.held.push((origin, msg));
                continue;
            }
            let out = self
                .nodes
                .get_mut(&to)
                .expect("known process")
                .on_event(t, Event::Message { from: origin, msg });
            self.enqueue(&mut queue, to, out);
        }
    }

    /// Fires an event on one node and pumps the fallout.
    fn fire(&mut self, t: Time, p: ProcessId, ev: Event) {
        let out = self
            .nodes
            .get_mut(&p)
            .expect("known process")
            .on_event(t, ev);
        self.pump(t, p, out);
    }

    /// Releases the frames held for the slow process (the "partition"
    /// heals: they arrive late, in order) and pumps the fallout.
    fn heal(&mut self, t: Time) {
        let held = std::mem::take(&mut self.held);
        let slow = self.slow;
        for (origin, msg) in held {
            let out = self
                .nodes
                .get_mut(&slow)
                .expect("slow process")
                .on_event(t, Event::Message { from: origin, msg });
            self.pump(t, slow, out);
        }
    }

    fn copies_of(&self, p: u32, id: ValueId) -> usize {
        self.delivered
            .get(&ProcessId::new(p))
            .into_iter()
            .flatten()
            .filter(|(_, i)| *i == id)
            .count()
    }

    fn key_of(&self, p: u32, id: ValueId) -> Option<u64> {
        self.delivered
            .get(&ProcessId::new(p))
            .into_iter()
            .flatten()
            .find(|(_, i)| *i == id)
            .map(|(ts, _)| *ts)
    }
}

/// Drives a multi-group round into the orphaned state — p1's `Submit`s
/// are out, every reply toward p1 is held — and returns the round's id.
fn strand_round(net: &mut OrphanNet) -> ValueId {
    let p1 = ProcessId::new(1);
    let (id, actions) = AmcastEngine::multicast(
        net.nodes.get_mut(&p1).unwrap(),
        Time::ZERO,
        &[GroupId::new(0), GroupId::new(1)],
        Bytes::from_static(b"orphan"),
    )
    .unwrap();
    net.pump(Time::ZERO, p1, actions);
    assert_eq!(
        net.nodes[&ProcessId::new(0)].telemetry().gauges["seq.undecided"],
        1
    );
    assert_eq!(
        net.nodes[&ProcessId::new(2)].telemetry().gauges["seq.undecided"],
        1
    );
    id
}

/// Both sequencers detect the orphan concurrently, every recovery frame
/// is delivered twice and each batch in reverse order: the exchange
/// must stay idempotent — one delivery per subscriber, one consistent
/// final timestamp across groups, no undecided residue (no
/// double-decide: a second decision would re-release at a second key).
#[test]
fn orphan_recovery_is_idempotent_under_duplicated_and_reordered_frames() {
    let config = orphan_config();
    let mut net = OrphanNet::new(&config, ProcessId::new(1));
    let id = strand_round(&mut net);
    net.dup_reorder_orphans = true;
    // Both sequencers' orphan timeouts fire in the same instant: two
    // concurrent recoverers, their exchanges interleaved, duplicated
    // and reordered.
    let t = Time::from_millis(100);
    net.fire(
        t,
        ProcessId::new(0),
        Event::Timer(TimerKind::Delta(GroupId::new(0))),
    );
    net.fire(
        t,
        ProcessId::new(2),
        Event::Timer(TimerKind::Delta(GroupId::new(1))),
    );
    for p in [0u32, 2, 3] {
        assert_eq!(
            net.copies_of(p, id),
            1,
            "subscriber {p} must deliver the orphan exactly once"
        );
    }
    assert_eq!(
        net.key_of(0, id),
        net.key_of(2, id),
        "one final timestamp across groups — no double-decide"
    );
    for p in [0u32, 2] {
        assert_eq!(
            net.nodes[&ProcessId::new(p)].telemetry().gauges["seq.undecided"],
            0
        );
    }
}

/// A falsely-suspected initiator revives after the group completed its
/// round: its stale `ProposeAck`s make it compute and distribute its
/// own `Final`, and its retry timer re-submits the round — all of it
/// must be absorbed by the id-based dedup (re-acknowledged, never
/// re-released), and the revived initiator itself converges: it
/// delivers the value once and its backlog settles.
#[test]
fn revived_initiator_retries_after_orphan_completion_are_deduplicated() {
    let config = orphan_config();
    let mut net = OrphanNet::new(&config, ProcessId::new(1));
    let id = strand_round(&mut net);
    let t = Time::from_millis(100);
    net.fire(
        t,
        ProcessId::new(0),
        Event::Timer(TimerKind::Delta(GroupId::new(0))),
    );
    assert_eq!(net.copies_of(0, id), 1, "recovery completed");
    let released = net.ordered_frames;
    // The partition heals: p1 processes the stale ProposeAcks (and the
    // held Ordered release), completes "its" round with its own Final,
    // and its retry timer re-probes both groups.
    let t2 = Time::from_millis(200);
    net.heal(t2);
    net.fire(
        t2,
        ProcessId::new(1),
        Event::Timer(TimerKind::ProposalResend(GroupId::new(0))),
    );
    net.fire(
        t2,
        ProcessId::new(1),
        Event::Timer(TimerKind::ProposalResend(GroupId::new(1))),
    );
    assert_eq!(
        net.ordered_frames, released,
        "the revived initiator's stale Final/Submit retries must re-release nothing"
    );
    for p in [0u32, 1, 2, 3] {
        assert_eq!(
            net.copies_of(p, id),
            1,
            "subscriber {p} delivers exactly once despite the revival"
        );
    }
    assert_eq!(
        net.key_of(1, id),
        net.key_of(0, id),
        "the revived initiator's copy sits at the recovered timestamp"
    );
    assert_eq!(
        AmcastEngine::backlog(&net.nodes[&ProcessId::new(1)]),
        0,
        "the revived initiator's round settles"
    );
}

/// A client can put a batch inside a batch inside a batch, 10 000 deep,
/// into one 50 kB command. Every replica of the partition is delivered
/// those bytes and parses them in `StoreApp::execute`; decoding used to
/// recurse once per level and overflow the protocol thread's stack,
/// which ends the process — all three of them. The command is
/// malformed, so it is not answered; the one after it is, by each of
/// the three replicas.
#[test]
fn nested_batch_command_over_tcp_leaves_all_three_replicas_answering() {
    use atomic_multicast::amcast::{EngineKind, EngineReplica};
    use atomic_multicast::core::replica::CheckpointPolicy;
    use atomic_multicast::store::command::{StoreCommand, StoreResponse};
    use atomic_multicast::store::StoreApp;
    use atomic_multicast::transport::tcp::{ClientPort, RuntimeConfig, TcpRuntime};
    use std::net::{SocketAddr, TcpListener};
    use std::time::Duration;

    let batch_of_one = &StoreCommand::Batch(vec![StoreCommand::Batch(vec![])]).encode()[..5];
    let mut nested = batch_of_one.repeat(10_000);
    nested.push(batch_of_one[0]);
    assert_eq!(nested.len(), 50_001);
    let nested = Bytes::from(nested);

    for kind in EngineKind::ALL {
        let tuning = RingTuning {
            lambda: 0,
            ..RingTuning::default()
        };
        let config = single_ring(3, tuning);
        let addrs: Vec<SocketAddr> = (0..4)
            .map(|_| {
                let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
                listener.local_addr().expect("addr")
            })
            .collect();
        let client_proc = ProcessId::new(50);
        let mut peers: BTreeMap<ProcessId, SocketAddr> = (0..3)
            .map(|i| (ProcessId::new(i), addrs[i as usize]))
            .collect();
        peers.insert(client_proc, addrs[3]);
        let session = ClientId::new(1);
        let policy = CheckpointPolicy {
            interval_us: 0,
            sync: false,
        };
        let replicas: Vec<_> = (0..3u32)
            .map(|i| {
                let p = ProcessId::new(i);
                let mut rc = RuntimeConfig::new(p, addrs[i as usize]);
                rc.peers = peers.clone();
                rc.clients = BTreeMap::from([(session, client_proc)]);
                let replica = EngineReplica::new(kind, p, config.clone(), StoreApp::new(0), policy);
                TcpRuntime::spawn(rc, replica).expect("spawn replica")
            })
            .collect();
        let client = ClientPort::bind(client_proc, addrs[3], peers).expect("client port");

        let insert = StoreCommand::Insert {
            key: Bytes::from_static(b"k"),
            value: Bytes::from_static(b"v"),
        };
        for (request, command) in [(0, nested.clone()), (1, insert.encode())] {
            let groups = vec![GroupId::new(0)];
            client.request(ProcessId::new(0), session, request, groups, command);
        }
        for answer in 1..=3 {
            let (_, request, payload) = client
                .responses()
                .recv_timeout(Duration::from_secs(20))
                .unwrap_or_else(|e| panic!("{kind}: answer {answer} of 3: {e}"));
            assert_eq!(request, 1, "{kind}: the malformed command is not answered");
            assert_eq!(
                StoreApp::unframe_response(&payload),
                Some((0, StoreResponse::Ok)),
                "{kind}"
            );
        }
        for replica in replicas {
            replica.shutdown();
        }
    }
}
