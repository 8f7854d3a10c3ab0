//! The simulation event loop: hosts actors, models the network, disks
//! and CPUs, injects crashes/restarts, and runs coordinator re-election
//! (the role Zookeeper plays in the paper's deployment).

use crate::actor::{Actor, ActorCtx, ActorEvent, Op, Outbox};
use crate::cpu::CpuModel;
use crate::disk::DiskModel;
use crate::history::History;
use crate::metrics::Metrics;
use crate::net::{NetState, Topology};
use crate::rng::Rng;
use mrp_amcast::{EngineKind, EngineReplica, HealthReport, TelemetrySnapshot};
use mrp_storage::NodeStorage;
use multiring_paxos::app::Application;
use multiring_paxos::codec;
use multiring_paxos::config::ClusterConfig;
use multiring_paxos::event::{Action, Event, Message, PersistRecord, TimerKind};
use multiring_paxos::host::Host;
use multiring_paxos::replica::CheckpointPolicy;
use multiring_paxos::types::{Ballot, ClientId, GroupId, ProcessId, Time, ValueId};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// Global simulation knobs.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Master random seed; everything is deterministic given it.
    pub seed: u64,
    /// Failure-detection delay of the coordination service the harness
    /// plays: this long after a crash, the crashed process's rings
    /// learn it is down and a crashed coordinator is replaced by the
    /// lowest-id live acceptor. Microseconds.
    pub election_timeout_us: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            seed: 1,
            election_timeout_us: 1_000_000,
        }
    }
}

enum What {
    /// An input for `p`. `own` is set on one that `p` scheduled for
    /// itself — a wakeup, a self-send, an input requeued behind its
    /// busy CPU — to the incarnation that scheduled it: a crash ends
    /// that incarnation, and the input is dropped rather than reach the
    /// restarted process. Frames from other processes and the
    /// coordination service carry `None`.
    Actor {
        p: ProcessId,
        ev: ActorEvent,
        own: Option<u64>,
    },
    /// A disk write of `p`, with its record if any, its token and the
    /// incarnation that wrote it: on completion the record becomes
    /// stable and the token reaches that incarnation. A crash loses both.
    Written(ProcessId, Option<PersistRecord>, u64, u64),
    /// A timer of `p`, with its deadline and the incarnation that
    /// armed it; it fires only if that is still the kind's deadline in
    /// `p`'s host ([`Actor::timers`]) when `p`'s CPU takes it.
    Timer(ProcessId, TimerKind, Time, u64),
    Crash(ProcessId),
    Restart(ProcessId),
    Elect(GroupId),
    Membership(GroupId),
}

struct Sched {
    at: Time,
    seq: u64,
    what: What,
}

impl PartialEq for Sched {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Sched {}
impl PartialOrd for Sched {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Sched {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Factory rebuilding an actor from its stable storage on restart.
pub type ActorFactory = Box<dyn FnMut(&NodeStorage) -> Box<dyn Actor>>;

struct Slot {
    actor: Option<Box<dyn Actor>>,
    factory: Option<ActorFactory>,
    storage: NodeStorage,
    disks: Vec<DiskModel>,
    disk_of_ring: BTreeMap<GroupId, usize>,
    cpu: Option<CpuModel>,
    rng: Rng,
    up: bool,
    /// Bumped by every crash; see [`What::Actor`].
    incarnation: u64,
}

/// The simulated cluster.
pub struct Cluster {
    cfg: SimConfig,
    topology: Topology,
    net: NetState,
    queue: BinaryHeap<Reverse<Sched>>,
    seq: u64,
    now: Time,
    slots: BTreeMap<ProcessId, Slot>,
    clients: BTreeMap<ClientId, ProcessId>,
    protocol: Option<ClusterConfig>,
    ring_coordinator: BTreeMap<GroupId, ProcessId>,
    /// Monotonic election round per ring (the coordination service's
    /// zxid analogue), carried as the `supersedes` ballot of every
    /// `CoordinatorChange` it announces.
    election_round: BTreeMap<GroupId, u32>,
    metrics: Metrics,
    history: History,
    rng: Rng,
    started: bool,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("now", &self.now)
            .field("processes", &self.slots.len())
            .field("pending_events", &self.queue.len())
            .finish_non_exhaustive()
    }
}

impl Cluster {
    /// A cluster over `topology` with the given knobs.
    pub fn new(cfg: SimConfig, topology: Topology) -> Self {
        let mut rng = Rng::new(cfg.seed);
        let _ = rng.next_u64();
        Self {
            cfg,
            topology,
            net: NetState::default(),
            queue: BinaryHeap::new(),
            seq: 0,
            now: Time::ZERO,
            slots: BTreeMap::new(),
            clients: BTreeMap::new(),
            protocol: None,
            ring_coordinator: BTreeMap::new(),
            election_round: BTreeMap::new(),
            metrics: Metrics::default(),
            history: History::default(),
            rng,
            started: false,
        }
    }

    /// Registers the protocol configuration, enabling coordinator
    /// re-election on crashes.
    pub fn set_protocol(&mut self, config: ClusterConfig) {
        for (&ring_id, ring) in config.rings() {
            self.ring_coordinator.insert(ring_id, ring.coordinator());
        }
        self.protocol = Some(config);
    }

    /// Adds an actor for process `p`. If the cluster already started,
    /// the actor is started immediately.
    pub fn add_actor(&mut self, p: ProcessId, actor: Box<dyn Actor>) {
        let rng = self.rng.fork();
        self.slots.insert(
            p,
            Slot {
                actor: Some(actor),
                factory: None,
                storage: NodeStorage::new(),
                disks: Vec::new(),
                disk_of_ring: BTreeMap::new(),
                cpu: None,
                rng,
                up: true,
                incarnation: 0,
            },
        );
        if self.started {
            self.push_event(self.now, p, Event::Start);
        }
    }

    /// Adds one bare ordering node per process of `config`, built by
    /// the selected atomic-multicast engine, and registers the protocol
    /// configuration. This is how engine-generic workloads (tests,
    /// benches, examples) spawn a cluster without naming an engine
    /// type.
    pub fn add_engine_actors(&mut self, config: &ClusterConfig, kind: EngineKind) {
        self.set_protocol(config.clone());
        for p in config.processes() {
            self.add_actor(p, Box::new(Host::new(kind.build(p, config.clone()))));
        }
    }

    /// Adds one replicated-service actor for `p`: an [`EngineReplica`]
    /// running `mk_app()` over the selected engine, checkpointing per
    /// `policy`, with a restart factory that rebuilds it from its stable
    /// storage after [`Cluster::schedule_crash`] /
    /// [`Cluster::schedule_restart`]: the acceptor logs plus the latest
    /// durable checkpoint feed [`EngineReplica::recovering`], which asks
    /// its partition peers for a fresher checkpoint (Section 5.2) before
    /// the engine rejoins its streams. `mk_app` builds a fresh application instance on every
    /// (re)start. Service deployment helpers (MRP-Store, dLog) and the
    /// benches all funnel through here.
    pub fn add_recoverable_replica_actor<A, F>(
        &mut self,
        kind: EngineKind,
        p: ProcessId,
        config: ClusterConfig,
        policy: CheckpointPolicy,
        mut mk_app: F,
    ) where
        A: Application + 'static,
        F: FnMut() -> A + 'static,
    {
        let replica = EngineReplica::new(kind, p, config.clone(), mk_app(), policy);
        self.add_actor(p, Box::new(Host::new(replica)));
        self.set_factory(
            p,
            Box::new(move |storage: &NodeStorage| {
                Box::new(Host::new(EngineReplica::recovering(
                    kind,
                    p,
                    config.clone(),
                    mk_app(),
                    policy,
                    storage.acceptor_recovery(),
                    storage.checkpoint_cloned(),
                )))
            }),
        );
    }

    /// Registers the factory used to rebuild `p`'s actor on restart.
    pub fn set_factory(&mut self, p: ProcessId, factory: ActorFactory) {
        if let Some(slot) = self.slots.get_mut(&p) {
            slot.factory = Some(factory);
        }
    }

    /// Attaches a CPU model to `p`.
    pub fn set_cpu(&mut self, p: ProcessId, cpu: CpuModel) {
        if let Some(slot) = self.slots.get_mut(&p) {
            slot.cpu = Some(cpu);
        }
    }

    /// Adds a disk to `p`, returning its index.
    pub fn add_disk(&mut self, p: ProcessId, disk: DiskModel) -> usize {
        let slot = self.slots.get_mut(&p).expect("unknown process");
        slot.disks.push(disk);
        slot.disks.len() - 1
    }

    /// Routes persist records of `ring` at `p` to disk index `disk`.
    pub fn map_ring_to_disk(&mut self, p: ProcessId, ring: GroupId, disk: usize) {
        if let Some(slot) = self.slots.get_mut(&p) {
            slot.disk_of_ring.insert(ring, disk);
        }
    }

    /// Declares that client session `client` lives on process `home`
    /// (service replies are routed there).
    pub fn register_client(&mut self, client: ClientId, home: ProcessId) {
        self.clients.insert(client, home);
    }

    /// Adds `actor` as process `p` and makes it the home of client
    /// session `client`.
    pub fn add_client(&mut self, p: ProcessId, client: ClientId, actor: Box<dyn Actor>) {
        self.add_actor(p, actor);
        self.register_client(client, p);
    }

    /// Starts every registered actor (at the current time).
    pub fn start(&mut self) {
        self.started = true;
        let ps: Vec<ProcessId> = self.slots.keys().copied().collect();
        for p in ps {
            self.push_event(self.now, p, Event::Start);
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Reads the current engine telemetry snapshot and health report of
    /// `p`, if its actor hosts an engine ([`Actor::telemetry`]) and is
    /// up.
    pub fn engine_telemetry(&mut self, p: ProcessId) -> Option<(TelemetrySnapshot, HealthReport)> {
        let slot = self.slots.get_mut(&p).filter(|s| s.up)?;
        slot.actor.as_mut()?.telemetry(self.now)
    }

    /// Asks every live actor for its engine telemetry and folds the
    /// snapshots into the run [`Metrics`]:
    ///
    /// * counters sum across nodes into `engine.<name>.<counter>`;
    /// * histograms merge into `engine.<name>.<histogram>`;
    /// * each gauge records one sample per node into
    ///   `engine.<name>.<gauge>` (a per-node distribution);
    /// * health issues count into `engine.health.<code>`.
    ///
    /// Returns the per-node snapshots for harnesses that want the
    /// unmerged view (benchmark reports embed them per run).
    pub fn collect_engine_telemetry(&mut self) -> BTreeMap<ProcessId, TelemetrySnapshot> {
        let mut snapshots: BTreeMap<ProcessId, TelemetrySnapshot> = BTreeMap::new();
        let mut issues: Vec<&'static str> = Vec::new();
        let ps: Vec<ProcessId> = self.slots.keys().copied().collect();
        for p in ps {
            if let Some((snapshot, health)) = self.engine_telemetry(p) {
                issues.extend(health.issues.iter().map(|i| i.code));
                snapshots.insert(p, snapshot);
            }
        }
        for snapshot in snapshots.values() {
            let engine = snapshot.engine;
            for (name, &v) in &snapshot.counters {
                self.metrics.incr(&format!("engine.{engine}.{name}"), v);
            }
            for (name, &v) in &snapshot.gauges {
                self.metrics.record(&format!("engine.{engine}.{name}"), v);
            }
            for (name, h) in &snapshot.histograms {
                self.metrics
                    .merge_histogram(&format!("engine.{engine}.{name}"), h);
            }
        }
        for code in issues {
            self.metrics.incr(&format!("engine.health.{code}"), 1);
        }
        snapshots
    }

    /// Total bytes offered to the network.
    pub fn network_bytes(&self) -> u64 {
        self.net.bytes_sent
    }

    /// Stable storage of `p` (inspection).
    pub fn storage(&self, p: ProcessId) -> Option<&NodeStorage> {
        self.slots.get(&p).map(|s| &s.storage)
    }

    /// CPU model of `p` (inspection).
    pub fn cpu(&self, p: ProcessId) -> Option<&CpuModel> {
        self.slots.get(&p).and_then(|s| s.cpu.as_ref())
    }

    /// Judges this run by the atomic-multicast specification the model
    /// checker uses: every request sent so far is a message addressed to
    /// the subscribers of its groups (under [`Cluster::set_protocol`]'s
    /// configuration), and every delivery an actor emitted — crashed
    /// processes' included — must be one of them, at one of its
    /// destinations, once per process (a restart starts the process's
    /// deliveries afresh), in an order acyclic across all processes.
    /// Only deliveries that reach the cluster are judged: an
    /// [`EngineReplica`] hands its own to the application.
    ///
    /// # Errors
    ///
    /// The first delivery that breaks the specification, with the
    /// property it breaks; or no protocol configuration to resolve
    /// groups with.
    pub fn check_history(&self) -> Result<(), String> {
        let config = self
            .protocol
            .as_ref()
            .ok_or("no protocol configuration is set")?;
        self.history.check(config)
    }

    /// The group and value id of every delivery `p` made in this run,
    /// in delivery order, restarts included.
    pub fn delivered(&self, p: ProcessId) -> impl Iterator<Item = (GroupId, ValueId)> + '_ {
        self.history.delivered(p)
    }

    /// Whether `p` is currently up.
    pub fn is_up(&self, p: ProcessId) -> bool {
        self.slots.get(&p).is_some_and(|s| s.up)
    }

    /// Downcasts `p`'s actor for inspection (a hosted machine, not its
    /// [`Host`]).
    pub fn actor_as<T: 'static>(&mut self, p: ProcessId) -> Option<&mut T> {
        self.slots
            .get_mut(&p)?
            .actor
            .as_mut()?
            .as_any()
            .downcast_mut::<T>()
    }

    /// Schedules a crash of `p` at absolute time `at`. The timers,
    /// wakeups, self-sends, queued inputs and disk writes `p` has
    /// pending die with it; a restarted `p` sees none of them.
    pub fn schedule_crash(&mut self, at: Time, p: ProcessId) {
        self.push(at, What::Crash(p));
    }

    /// Schedules a restart of `p` at absolute time `at` (requires a
    /// factory).
    pub fn schedule_restart(&mut self, at: Time, p: ProcessId) {
        self.push(at, What::Restart(p));
    }

    /// Schedules protocol input `ev` for `p` at `at`.
    fn push_event(&mut self, at: Time, p: ProcessId, ev: Event) {
        let ev = ActorEvent::Protocol(ev);
        self.push(at, What::Actor { p, ev, own: None });
    }

    /// Schedules input `ev` that `p` arranged for itself, for `p`'s
    /// current incarnation only.
    fn push_own(&mut self, at: Time, p: ProcessId, ev: ActorEvent) {
        let own = self.slots.get(&p).map(|s| s.incarnation);
        self.push(at, What::Actor { p, ev, own });
    }

    fn push(&mut self, at: Time, what: What) {
        self.seq += 1;
        self.queue.push(Reverse(Sched {
            at,
            seq: self.seq,
            what,
        }));
    }

    /// Runs until virtual time `t` (inclusive of events at `t`).
    pub fn run_until(&mut self, t: Time) {
        while let Some(Reverse(head)) = self.queue.peek() {
            if head.at > t {
                break;
            }
            let Reverse(sched) = self.queue.pop().expect("peeked");
            self.now = sched.at;
            self.process(sched);
        }
        self.now = t;
    }

    fn process(&mut self, sched: Sched) {
        match sched.what {
            What::Actor { p, ev, own } => self.deliver(p, ev, own),
            What::Written(p, record, token, own) => {
                let Some(slot) = self.slots.get_mut(&p) else {
                    return;
                };
                if slot.incarnation != own {
                    return; // the write was lost with the crash
                }
                if let Some(record) = &record {
                    slot.storage.apply(record);
                }
                self.deliver(p, ActorEvent::DiskDone(token), Some(own));
            }
            What::Timer(p, timer, due, own) => {
                let Some(slot) = self.slots.get_mut(&p) else {
                    return;
                };
                let timers = slot.actor.as_ref().and_then(|a| a.timers());
                if slot.incarnation != own || timers.and_then(|t| t.due(timer)) != Some(due) {
                    return; // superseded by a later arm, or lost with a crash
                }
                // Behind a busy CPU the firing waits as a timer, so an
                // arm handled meanwhile still supersedes it.
                let busy = slot.cpu.as_ref().map(CpuModel::next_free);
                if let Some(at) = busy.filter(|&at| at > self.now) {
                    self.push(at, What::Timer(p, timer, due, own));
                    return;
                }
                self.deliver(p, ActorEvent::Protocol(Event::Timer(timer)), Some(own));
            }
            What::Crash(p) => self.crash(p),
            What::Restart(p) => self.restart(p),
            What::Elect(ring) => self.elect(ring),
            What::Membership(ring) => self.broadcast_membership(ring),
        }
    }

    fn event_bytes(ev: &ActorEvent) -> usize {
        match ev {
            ActorEvent::Protocol(Event::Message { msg, .. }) => codec::encoded_len(msg),
            _ => 0,
        }
    }

    fn deliver(&mut self, p: ProcessId, ev: ActorEvent, own: Option<u64>) {
        let Some(slot) = self.slots.get_mut(&p) else {
            return;
        };
        if !slot.up || own.is_some_and(|i| i != slot.incarnation) {
            return;
        }
        // CPU gating: requeue if busy, otherwise charge and process at
        // the completion instant.
        let t_proc = if let Some(cpu) = slot.cpu.as_mut() {
            if cpu.next_free() > self.now {
                let at = cpu.next_free();
                let own = Some(slot.incarnation);
                self.push(at, What::Actor { p, ev, own });
                return;
            }
            cpu.charge(self.now, Self::event_bytes(&ev))
        } else {
            self.now
        };
        let Some(mut actor) = slot.actor.take() else {
            return;
        };
        let mut out = Outbox::new();
        {
            let slot = self.slots.get_mut(&p).expect("slot exists");
            let mut ctx = ActorCtx {
                me: p,
                rng: &mut slot.rng,
                metrics: &mut self.metrics,
            };
            actor.on_event(t_proc, ev, &mut out, &mut ctx);
        }
        if let Some(slot) = self.slots.get_mut(&p) {
            if slot.actor.is_none() {
                slot.actor = Some(actor);
            }
        }
        for op in out.take() {
            self.apply_op(p, t_proc, op);
        }
    }

    fn apply_op(&mut self, p: ProcessId, t: Time, op: Op) {
        match op {
            Op::Protocol(Action::Send { to, msg }) => self.send_message(p, to, t, msg),
            Op::Armed(timer, due) => {
                let slot = self.slots.get(&p).expect("slot exists");
                // Else the firing is judged stale and silently dropped.
                let timers = slot.actor.as_ref().and_then(|a| a.timers());
                assert!(timers.is_some(), "{p:?} arms timers `Actor::timers` hides");
                let own = slot.incarnation;
                self.push(due, What::Timer(p, timer, due, own));
            }
            Op::Wakeup { after_us, token } => {
                self.push_own(t.plus(after_us), p, ActorEvent::Wakeup(token));
            }
            Op::Record(record, sync, token) => {
                let disk = match &record {
                    PersistRecord::Promise { ring, .. }
                    | PersistRecord::Vote { ring, .. }
                    | PersistRecord::Decision { ring, .. } => {
                        let slot = self.slots.get(&p).expect("slot exists");
                        slot.disk_of_ring.get(ring).copied().unwrap_or(0)
                    }
                    PersistRecord::Checkpoint { .. } => 0,
                };
                let bytes = codec::record_len(&record);
                self.disk_write(p, t, (disk, bytes, sync), token.0, Some(record));
            }
            Op::Protocol(Action::TrimStorage { ring, upto }) => {
                if let Some(slot) = self.slots.get_mut(&p) {
                    slot.storage.trim(ring, upto);
                }
                self.metrics.incr("trim_storage", 1);
            }
            Op::Busy { us } => {
                if let Some(slot) = self.slots.get_mut(&p) {
                    if let Some(cpu) = slot.cpu.as_mut() {
                        cpu.occupy(t, us);
                    }
                }
            }
            Op::DiskWrite {
                disk,
                bytes,
                sync,
                token,
            } => self.disk_write(p, t, (disk, bytes, sync), token, None),
            Op::Protocol(Action::Deliver { group, value, .. }) => {
                self.history.deliver(p, group, &value);
                self.metrics.incr("delivered_values", 1);
                self.metrics
                    .incr("delivered_bytes", value.payload.len() as u64);
                self.metrics.series_add("deliveries", t, 1.0);
            }
            Op::Protocol(Action::Respond {
                client,
                request,
                payload,
            }) => {
                if let Some(&home) = self.clients.get(&client) {
                    self.send_message(
                        p,
                        home,
                        t,
                        Message::Response {
                            client,
                            request,
                            payload,
                        },
                    );
                }
            }
            Op::Protocol(other) => unreachable!("a host keeps timers and persists: {other:?}"),
        }
    }

    /// Writes `bytes` to `p`'s disk `disk` at `t` (its last disk if it
    /// has fewer; 1 µs if it has none). When the write completes,
    /// `record`, if any, becomes stable and the writing incarnation
    /// gets [`ActorEvent::DiskDone`] with `token`.
    fn disk_write(
        &mut self,
        p: ProcessId,
        t: Time,
        (disk, bytes, sync): (usize, usize, bool),
        token: u64,
        record: Option<PersistRecord>,
    ) {
        let slot = self.slots.get_mut(&p).expect("slot exists");
        let idx = disk.min(slot.disks.len().saturating_sub(1));
        let done = match slot.disks.get_mut(idx) {
            Some(d) => d.write(t, bytes, sync),
            None => t.plus(1),
        };
        let own = slot.incarnation;
        self.push(done, What::Written(p, record, token, own));
    }

    fn send_message(&mut self, from: ProcessId, to: ProcessId, t: Time, msg: Message) {
        if !self.slots.contains_key(&to) {
            return;
        }
        if let Message::Request {
            client,
            request,
            groups,
            ..
        } = &msg
        {
            self.history.request((*client, *request), groups);
        }
        if from == to {
            self.push_own(t, to, ActorEvent::Protocol(Event::Message { from, msg }));
            return;
        }
        let bytes = codec::encoded_len(&msg);
        // Client RPC traffic (the paper's Thrift/UDP paths with
        // application-level retries) is exempt from loss injection: the
        // loss knob stresses the ring protocol, whose own retransmission
        // machinery must absorb it. Engine frames are exempt too — the
        // `Action::Send` contract promises a reliable FIFO channel
        // (TCP), and alternative engines (wbcast) build on exactly that
        // promise with no repair path of their own; dropping their
        // frames would silently diverge replicas rather than stress
        // anything the loss knob is meant to stress.
        let reliable = matches!(
            msg,
            Message::Request { .. } | Message::Response { .. } | Message::Engine { .. }
        );
        let arrival = if reliable && self.topology.loss > 0.0 {
            let saved = std::mem::replace(&mut self.topology.loss, 0.0);
            let a = self
                .net
                .transit(&self.topology, t, from, to, bytes, &mut self.rng);
            self.topology.loss = saved;
            a
        } else {
            self.net
                .transit(&self.topology, t, from, to, bytes, &mut self.rng)
        };
        if let Some(arrival) = arrival {
            self.push_event(arrival, to, Event::Message { from, msg });
        }
    }

    fn crash(&mut self, p: ProcessId) {
        let Some(slot) = self.slots.get_mut(&p) else {
            return;
        };
        slot.up = false;
        slot.actor = None;
        slot.incarnation += 1;
        self.metrics.incr("crashes", 1);
        let detected = self.now.plus(self.cfg.election_timeout_us);
        let rings: Vec<GroupId> = self
            .ring_coordinator
            .iter()
            .filter(|&(_, &c)| c == p)
            .map(|(&r, _)| r)
            .collect();
        for r in rings {
            self.push(detected, What::Elect(r));
        }
        // Every ring this process belongs to learns (after the detection
        // timeout) that it must route around it.
        if let Some(config) = self.protocol.clone() {
            for r in config.rings_of(p) {
                self.push(detected, What::Membership(r));
            }
        }
    }

    /// Sends the current down-set of `ring` to all its live members (the
    /// coordination service's failure-detector output).
    fn broadcast_membership(&mut self, ring_id: GroupId) {
        let Some(config) = self.protocol.clone() else {
            return;
        };
        let Some(ring) = config.ring(ring_id) else {
            return;
        };
        let down: Vec<ProcessId> = ring
            .members()
            .iter()
            .map(|m| m.process)
            .filter(|q| !self.slots.get(q).is_some_and(|s| s.up))
            .collect();
        for m in ring.members() {
            if self.slots.get(&m.process).is_some_and(|s| s.up) {
                let change = Event::MembershipChange {
                    ring: ring_id,
                    down: down.clone(),
                };
                self.push_event(self.now, m.process, change);
            }
        }
    }

    fn restart(&mut self, p: ProcessId) {
        let Some(slot) = self.slots.get_mut(&p) else {
            return;
        };
        if slot.up {
            return;
        }
        let Some(factory) = slot.factory.as_mut() else {
            return;
        };
        let actor = factory(&slot.storage);
        slot.actor = Some(actor);
        slot.up = true;
        self.history.restart(p);
        self.metrics.incr("restarts", 1);
        self.push_event(self.now, p, Event::Start);
        // Tell the restarted process who currently coordinates its rings
        // (the coordination service's configuration snapshot), and let
        // every ring fold the process back into the overlay.
        if let Some(config) = self.protocol.clone() {
            for ring_id in config.rings_of(p) {
                if let Some(&coordinator) = self.ring_coordinator.get(&ring_id) {
                    let round = self.election_round.get(&ring_id).copied().unwrap_or(0);
                    let change = Event::CoordinatorChange {
                        ring: ring_id,
                        coordinator,
                        supersedes: Ballot::new(round, coordinator),
                    };
                    self.push_event(self.now, p, change);
                }
                self.push(
                    self.now.plus(self.cfg.election_timeout_us),
                    What::Membership(ring_id),
                );
            }
        }
    }

    fn elect(&mut self, ring_id: GroupId) {
        let Some(config) = self.protocol.clone() else {
            return;
        };
        let Some(ring) = config.ring(ring_id) else {
            return;
        };
        // The current believed coordinator may have recovered meanwhile.
        if let Some(&cur) = self.ring_coordinator.get(&ring_id) {
            if self.slots.get(&cur).is_some_and(|s| s.up) {
                return;
            }
        }
        let Some(&new) = ring
            .acceptors()
            .iter()
            .find(|&&a| self.slots.get(&a).is_some_and(|s| s.up))
        else {
            return;
        };
        self.ring_coordinator.insert(ring_id, new);
        let round = self.election_round.entry(ring_id).or_insert(0);
        *round += 1;
        let supersedes = Ballot::new(*round, new);
        self.metrics.incr("elections", 1);
        // The coordination service's configuration watch fires at every
        // live process, not only the ring's members: ring members re-run
        // Phase 1, while engine actors re-route in-flight submissions
        // and adopt or resign the sequencer role (wbcast failover).
        // Processes the event does not concern ignore it.
        let live: Vec<ProcessId> = self
            .slots
            .iter()
            .filter(|(_, s)| s.up)
            .map(|(&p, _)| p)
            .collect();
        for p in live {
            let change = Event::CoordinatorChange {
                ring: ring_id,
                coordinator: new,
                supersedes,
            };
            self.push_event(self.now, p, change);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Burst;
    use crate::disk::DiskModel;
    use bytes::Bytes;
    use mrp_amcast::AmcastEngine;
    use multiring_paxos::app::{Delivery, Reply};
    use multiring_paxos::config::{single_ring, ClusterConfig, RingSpec, RingTuning, Roles};
    use multiring_paxos::event::{PersistToken, StateMachine};
    use multiring_paxos::host::Timers;
    use multiring_paxos::node::Node;
    use multiring_paxos::types::InstanceId;
    use std::any::Any;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn quiet() -> RingTuning {
        RingTuning {
            lambda: 0,
            ..RingTuning::default()
        }
    }

    /// A client of session `client` firing `n` requests at `target`.
    fn pulse(client: u64, target: u32, groups: Vec<GroupId>, n: u64) -> Box<Burst> {
        let payload = Bytes::from_static(b"ping");
        let (client, target) = (ClientId::new(client), ProcessId::new(target));
        Box::new(Burst::new(client, target, groups, n, payload))
    }

    fn build(seed: u64) -> Cluster {
        let config = single_ring(3, quiet());
        let mut cluster = Cluster::new(
            SimConfig {
                seed,
                election_timeout_us: 100_000,
            },
            Topology::lan(4),
        );
        cluster.set_protocol(config.clone());
        for i in 0..3 {
            let p = ProcessId::new(i);
            let cfg = config.clone();
            cluster.add_actor(p, Box::new(Host::new(Node::new(p, cfg.clone()))));
            cluster.set_factory(
                p,
                Box::new(move |storage: &NodeStorage| {
                    Box::new(Host::new(Node::with_recovery(
                        p,
                        cfg.clone(),
                        storage.acceptor_recovery(),
                    )))
                }),
            );
        }
        let client = ProcessId::new(100);
        cluster.add_client(
            client,
            ClientId::new(1),
            pulse(1, 1, vec![GroupId::new(0)], 10),
        );
        cluster
    }

    #[test]
    fn end_to_end_delivery_over_simulated_lan() {
        let mut cluster = build(7);
        cluster.start();
        cluster.run_until(Time::from_secs(2));
        // 10 requests delivered at each of the 3 learners.
        assert_eq!(cluster.metrics().counter("delivered_values"), 30);
        assert_eq!(cluster.check_history(), Ok(()));
    }

    /// A service that executes nothing and answers nothing.
    struct Sink;

    impl Application for Sink {
        fn execute(&mut self, _: &Delivery) -> Vec<Reply> {
            Vec::new()
        }

        fn snapshot(&self) -> Bytes {
            Bytes::new()
        }

        fn restore(&mut self, _: &Bytes) {}
    }

    /// Both engines' telemetry reaches the cluster through
    /// [`Actor::telemetry`], bare and inside a replica: per-node
    /// snapshots report deliveries and a quiescent cluster is healthy,
    /// the fold lands under the `engine.<name>.` metric namespace — the
    /// replica's own counters with it — and a client contributes
    /// nothing.
    #[test]
    fn engine_telemetry_collection_folds_into_metrics() {
        for kind in EngineKind::ALL {
            for replicas in [false, true] {
                let config = single_ring(3, quiet());
                let mut cluster = Cluster::new(
                    SimConfig {
                        seed: 11,
                        ..SimConfig::default()
                    },
                    Topology::lan(4),
                );
                if replicas {
                    cluster.set_protocol(config.clone());
                    let never = CheckpointPolicy {
                        interval_us: 0,
                        sync: false,
                    };
                    for p in config.processes() {
                        cluster.add_recoverable_replica_actor(
                            kind,
                            p,
                            config.clone(),
                            never,
                            || Sink,
                        );
                    }
                } else {
                    cluster.add_engine_actors(&config, kind);
                }
                let client = ProcessId::new(100);
                cluster.add_client(
                    client,
                    ClientId::new(1),
                    pulse(1, 1, vec![GroupId::new(0)], 10),
                );
                cluster.start();
                cluster.run_until(Time::from_secs(2));
                let (snapshot, health) = cluster
                    .engine_telemetry(ProcessId::new(0))
                    .expect("an engine node answers");
                assert_eq!(
                    snapshot.engine,
                    kind.build(ProcessId::new(0), config).engine_name()
                );
                assert!(
                    health.is_healthy(),
                    "{kind}: settled cluster reports healthy: {health:?}"
                );
                assert!(
                    cluster.engine_telemetry(client).is_none(),
                    "{kind}: a client"
                );
                let snapshots = cluster.collect_engine_telemetry();
                assert_eq!(snapshots.len(), 3, "{kind}: every engine node reports");
                let engine = snapshot.engine;
                let delivered_key = match kind {
                    EngineKind::MultiRing => format!("engine.{engine}.delivered"),
                    _ => format!("engine.{engine}.sub.delivered"),
                };
                let counter = |name: &str| cluster.metrics().counter(name);
                assert_eq!(
                    counter(&delivered_key),
                    30,
                    "{kind}: 10 deliveries at each of 3 subscribers"
                );
                assert_eq!(
                    counter(&format!("engine.{engine}.replica.executed")),
                    if replicas { 30 } else { 0 },
                    "{kind}: replicas {replicas}"
                );
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = build(42);
        let mut b = build(42);
        a.start();
        b.start();
        a.run_until(Time::from_secs(2));
        b.run_until(Time::from_secs(2));
        assert_eq!(
            a.metrics().counter("delivered_values"),
            b.metrics().counter("delivered_values")
        );
        assert_eq!(a.network_bytes(), b.network_bytes());
    }

    /// On starting, arms a checkpoint tick one second out and writes a
    /// decision marker for each ring it names: the first asynchronous,
    /// the rest synchronous.
    struct Writes(Vec<GroupId>);

    impl StateMachine for Writes {
        fn on_event(&mut self, _: Time, event: Event) -> Vec<Action> {
            if event != Event::Start {
                return Vec::new();
            }
            let tick = Action::SetTimer {
                after_us: 1_000_000,
                timer: TimerKind::CheckpointTick,
            };
            let writes = self.0.iter().zip(1..).map(|(&ring, n)| Action::Persist {
                record: PersistRecord::Decision {
                    ring,
                    first: InstanceId::new(1),
                    count: 1,
                },
                sync: n > 1,
                token: PersistToken(n),
            });
            std::iter::once(tick).chain(writes).collect()
        }

        fn process_id(&self) -> ProcessId {
            ProcessId::new(0)
        }
    }

    /// Hosts [`Writes`], logs every input it receives into a log shared
    /// by all its incarnations, and asks for a wakeup one second out
    /// when it starts.
    struct Arming(Host<Writes>, Rc<RefCell<Vec<ActorEvent>>>);

    impl Actor for Arming {
        fn on_event(
            &mut self,
            now: Time,
            event: ActorEvent,
            out: &mut Outbox,
            _: &mut ActorCtx<'_>,
        ) {
            self.1.borrow_mut().push(event.clone());
            match event {
                ActorEvent::Protocol(Event::Start) => {
                    out.wakeup(1_000_000, 7);
                    self.0.on_event(now, Event::Start, out);
                }
                ActorEvent::Protocol(Event::Timer(kind)) => {
                    self.0.fire(now, kind, out);
                }
                ActorEvent::DiskDone(token) => self.0.complete(now, PersistToken(token), out),
                _ => {}
            }
        }

        fn timers(&self) -> Option<&Timers> {
            Some(self.0.timers())
        }

        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// A crash ends an incarnation together with what it scheduled for
    /// itself: the wakeup and tick armed before the crash, due after the
    /// restart, never reach the new incarnation, which gets its own. Of
    /// the first incarnation's two records, the one written before the
    /// crash is stable; the one a slow disk completes after it is lost,
    /// and its completion reaches no one.
    #[test]
    fn a_restarted_process_receives_none_of_its_previous_incarnations_events() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let p = ProcessId::new(0);
        let (early, late) = (GroupId::new(0), GroupId::new(1));
        let mut cluster = Cluster::new(SimConfig::default(), Topology::lan(1));
        let writes = Host::new(Writes(vec![early, late]));
        cluster.add_actor(p, Box::new(Arming(writes, log.clone())));
        // A 150 ms flush: the synchronous record completes after the
        // crash, the asynchronous one in microseconds.
        cluster.add_disk(p, DiskModel::custom("slow", 150_000, 1));
        let shared = log.clone();
        cluster.set_factory(
            p,
            Box::new(move |_| Box::new(Arming(Host::new(Writes(Vec::new())), shared.clone()))),
        );
        cluster.schedule_crash(Time::from_millis(100), p);
        cluster.schedule_restart(Time::from_millis(200), p);
        cluster.start();
        cluster.run_until(Time::from_secs(2));
        let start = ActorEvent::Protocol(Event::Start);
        let tick = ActorEvent::Protocol(Event::Timer(TimerKind::CheckpointTick));
        assert_eq!(
            *log.borrow(),
            [
                start.clone(),
                ActorEvent::DiskDone(1),
                start,
                ActorEvent::Wakeup(7),
                tick
            ]
        );
        let storage = cluster.storage(p).expect("a slot");
        assert!(storage.log(early).is_some(), "the early record is stable");
        assert!(storage.log(late).is_none(), "the late record was lost");
    }

    #[test]
    fn coordinator_crash_triggers_election_and_progress_resumes() {
        let mut cluster = build(3);
        cluster.start();
        cluster.run_until(Time::from_secs(1));
        assert_eq!(cluster.metrics().counter("delivered_values"), 30);
        // Kill the coordinator (p0); elections should move the ring to
        // p1 and new traffic should still be ordered and delivered to
        // the two surviving learners.
        cluster.schedule_crash(Time::from_millis(1100), ProcessId::new(0));
        cluster.run_until(Time::from_millis(1500));
        assert_eq!(cluster.metrics().counter("elections"), 1);
        assert!(!cluster.is_up(ProcessId::new(0)));
        let late_client = ProcessId::new(101);
        cluster.add_actor(late_client, pulse(2, 1, vec![GroupId::new(0)], 5));
        cluster.run_until(Time::from_secs(4));
        // 30 before the crash + 5 × 2 surviving learners.
        assert_eq!(cluster.metrics().counter("delivered_values"), 40);
        assert_eq!(cluster.check_history(), Ok(()));
    }

    #[test]
    fn crashed_process_recovers_and_catches_up() {
        let mut cluster = build(5);
        cluster.start();
        cluster.run_until(Time::from_secs(1));
        // Crash a non-coordinator learner, keep traffic flowing, restart.
        cluster.schedule_crash(Time::from_millis(1100), ProcessId::new(2));
        cluster.schedule_restart(Time::from_millis(1400), ProcessId::new(2));
        let late_client = ProcessId::new(101);
        cluster.add_actor(late_client, pulse(2, 0, vec![GroupId::new(0)], 5));
        cluster.run_until(Time::from_secs(5));
        assert_eq!(cluster.metrics().counter("restarts"), 1);
        assert!(cluster.is_up(ProcessId::new(2)));
        // 10 + 5 at p0 and p1. The restarted p2 read nothing from its
        // in-memory acceptor log, but gap repair must recover the 5 new
        // values after its 10 from before the crash (it may or may not
        // replay the old 10, depending on what acceptors retained) —
        // and in the order everyone else delivered them.
        let delivered = |p| cluster.delivered(ProcessId::new(p)).count();
        assert_eq!((delivered(0), delivered(1)), (15, 15));
        assert!(delivered(2) >= 15, "p2 delivered {}", delivered(2));
        assert_eq!(cluster.check_history(), Ok(()));
    }

    /// The crash/re-election machinery is engine-generic: killing the
    /// wbcast sequencer (the ring coordinator) hands the group to the
    /// next live acceptor, and traffic submitted afterwards is ordered
    /// by the new sequencer and delivered to the surviving subscribers.
    #[test]
    fn wbcast_sequencer_crash_triggers_failover_and_progress_resumes() {
        let config = single_ring(3, quiet());
        let mut cluster = Cluster::new(
            SimConfig {
                seed: 11,
                election_timeout_us: 100_000,
            },
            Topology::lan(4),
        );
        cluster.add_engine_actors(&config, EngineKind::Wbcast);
        let client = ProcessId::new(100);
        cluster.add_client(
            client,
            ClientId::new(1),
            pulse(1, 1, vec![GroupId::new(0)], 10),
        );
        cluster.start();
        cluster.run_until(Time::from_secs(1));
        assert_eq!(cluster.metrics().counter("delivered_values"), 30);
        // Kill the sequencer (p0, the ring coordinator).
        cluster.schedule_crash(Time::from_millis(1100), ProcessId::new(0));
        cluster.run_until(Time::from_millis(1500));
        assert_eq!(cluster.metrics().counter("elections"), 1);
        assert!(!cluster.is_up(ProcessId::new(0)));
        let late_client = ProcessId::new(101);
        cluster.add_actor(late_client, pulse(2, 1, vec![GroupId::new(0)], 5));
        cluster.run_until(Time::from_secs(4));
        // 30 before the crash + 5 × 2 surviving subscribers.
        assert_eq!(cluster.metrics().counter("delivered_values"), 40);
        assert_eq!(cluster.check_history(), Ok(()));
    }

    /// Crashing the *initiator* of multi-group wbcast rounds mid-round
    /// — a plain proposer, so no election fires at all — must not stall
    /// the addressed groups: the crash/membership machinery notifies
    /// the sequencers, which recover the orphaned rounds themselves.
    /// The crash instant is controlled to catch the rounds with their
    /// `Submit`s delivered but every `ProposeAck` still in flight.
    #[test]
    fn wbcast_initiator_crash_mid_round_is_recovered_by_the_groups() {
        // Two rings over three processes, rotated so p0 and p1 are the
        // coordinators (= sequencers) and p2 coordinates nothing;
        // everyone subscribes to both groups.
        let mut b = ClusterConfig::builder();
        for ring in 0..2u16 {
            let mut spec = RingSpec::new(GroupId::new(ring)).tuning(quiet());
            for p in 0..3u32 {
                spec = spec.member(ProcessId::new((p + u32::from(ring)) % 3), Roles::ALL);
            }
            b = b.ring(spec);
        }
        for p in 0..3u32 {
            for g in 0..2u16 {
                b = b.subscribe(ProcessId::new(p), GroupId::new(g));
            }
        }
        let config = b.build().expect("two-ring config");
        let mut cluster = Cluster::new(
            SimConfig {
                seed: 13,
                election_timeout_us: 100_000,
            },
            Topology::lan(4),
        );
        cluster.add_engine_actors(&config, EngineKind::Wbcast);
        let client = ProcessId::new(100);
        cluster.add_client(
            client,
            ClientId::new(1),
            pulse(1, 2, vec![GroupId::new(0), GroupId::new(1)], 5),
        );
        // At 120 µs the client's requests (one ~50 µs hop) have reached
        // p2 and its Submits are on the wire, while the sequencers'
        // ProposeAcks (~165 µs round trip) have not come back: every
        // round dies undecided with its initiator.
        cluster.schedule_crash(Time::from_micros(120), ProcessId::new(2));
        cluster.start();
        cluster.run_until(Time::from_secs(2));
        assert_eq!(
            cluster.metrics().counter("elections"),
            0,
            "no sequencer was involved in the crash — recovery is the groups' own"
        );
        assert!(!cluster.is_up(ProcessId::new(2)));
        // 5 orphaned rounds × 2 surviving subscribers of both groups.
        assert_eq!(cluster.metrics().counter("delivered_values"), 10);
        assert_eq!(cluster.check_history(), Ok(()));
    }
}
