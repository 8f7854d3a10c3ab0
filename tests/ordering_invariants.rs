//! Cross-crate integration tests of the atomic multicast properties
//! (Section 2 of the paper): agreement, validity and acyclic order —
//! including the global acyclicity of multi-group deliveries, checked by
//! building the delivery graph and topologically sorting it.
//!
//! Every test is parameterized over [`EngineKind::ALL`] through the
//! [`AmcastEngine`] abstraction: the same invariants must hold for the
//! Multi-Ring Paxos engine and for the timestamp-based white-box
//! engine, on the identical workload and simulated network. The
//! tests that submit multi-group requests additionally run under two
//! hold-queue budgets ([`budgets`]) — the ordering invariants must be
//! insensitive to how held submissions are packed into engine rounds.

use atomic_multicast::amcast::{
    AmcastEngine, AnyEngine, BatchConfig, EngineKind, HealthReport, TelemetrySnapshot,
};
use atomic_multicast::core::config::{ClusterConfig, RingSpec, RingTuning, Roles};
use atomic_multicast::core::types::{ClientId, GroupId, ProcessId, RingId, Time, ValueId};
use atomic_multicast::sim::actor::{Actor, ActorCtx, ActorEvent, Op, Outbox};
use atomic_multicast::sim::cluster::{Cluster, SimConfig};
use atomic_multicast::sim::net::Topology;
use bytes::Bytes;
use multiring_paxos::event::{Action, Event, Message};
use proptest::prelude::*;
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Client that sends `n` requests to `target`, each addressed to the
/// group set `groups` (one element = the classic single-group case).
#[derive(Debug)]
struct Burst {
    target: ProcessId,
    groups: Vec<GroupId>,
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
                        groups: self.groups.clone(),
                        payload: Bytes::from(vec![0u8; 16]),
                    },
                );
            }
        }
    }
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// Records its node's deliveries (wraps an engine and captures the
/// deliveries the harness would otherwise only count), plus every
/// received engine frame that carries or references a value — the
/// observable genuineness tests assert on.
#[derive(Debug)]
struct Recorder {
    node: AnyEngine,
    delivered: Vec<(GroupId, ValueId)>,
    value_frames: u64,
}

impl Recorder {
    fn new(node: AnyEngine) -> Self {
        Self {
            node,
            delivered: Vec::new(),
            value_frames: 0,
        }
    }
}

/// Counts value-bearing engine frames, descending into link-level
/// [`Message::Batch`] packs (the wrapper's frame coalescing must not
/// hide value traffic from the genuineness assertions).
fn count_value_frames(msg: &Message, count: &mut u64) {
    match msg {
        Message::Engine { payload, .. }
            if atomic_multicast::amcast::wbcast::frame_references_value(payload.clone()) =>
        {
            *count += 1;
        }
        Message::Batch(inner) => {
            for m in inner {
                count_value_frames(m, count);
            }
        }
        _ => {}
    }
}

impl Actor for Recorder {
    fn on_event(&mut self, now: Time, ev: ActorEvent, out: &mut Outbox, ctx: &mut ActorCtx<'_>) {
        if let ActorEvent::Protocol(Event::Message { msg, .. }) = &ev {
            count_value_frames(msg, &mut self.value_frames);
        }
        let mut inner_out = Outbox::new();
        Actor::on_event(&mut self.node, now, ev, &mut inner_out, ctx);
        for op in inner_out.take() {
            if let Op::Protocol(Action::Deliver { group, value, .. }) = &op {
                self.delivered.push((*group, value.id));
            }
            out.push(op);
        }
    }
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// The hold-queue budgets the multi-group tests run under: the ones
/// every deployment has (64 values — a queue is released by the backlog
/// clearing or by the hold bound) and a two-value budget that trips
/// inside a burst.
fn budgets() -> [BatchConfig; 2] {
    let small = BatchConfig {
        max_values: 2,
        ..BatchConfig::enabled()
    };
    [BatchConfig::enabled(), small]
}

/// Builds an engine for `pid` with hold-queue budgets `mode`. At build
/// time nothing is queued, so replacing the budgets flushes nothing.
fn build_engine(
    kind: EngineKind,
    mode: BatchConfig,
    pid: ProcessId,
    config: &ClusterConfig,
) -> AnyEngine {
    let mut engine = kind.build(pid, config.clone());
    let flushed = engine.set_batching(Time::ZERO, mode);
    assert!(flushed.is_empty(), "no submissions pending at build time");
    engine
}

/// The Figure 2(c) deployment: two rings; learners L1, L2 subscribe to
/// both; L3 subscribes to ring 2 only.
fn fig2c_config() -> ClusterConfig {
    let tuning = RingTuning {
        lambda: 3_000,
        delta_us: 5_000,
        ..RingTuning::default()
    };
    let mut b = ClusterConfig::builder();
    for ring in 0..2u16 {
        let mut spec = RingSpec::new(RingId::new(ring)).tuning(tuning);
        for p in 0..3u32 {
            spec = spec.member(ProcessId::new(p), Roles::ALL);
        }
        b = b.ring(spec).group(GroupId::new(ring), RingId::new(ring));
    }
    b = b
        .subscribe(ProcessId::new(0), GroupId::new(0))
        .subscribe(ProcessId::new(0), GroupId::new(1))
        .subscribe(ProcessId::new(1), GroupId::new(0))
        .subscribe(ProcessId::new(1), GroupId::new(1))
        .subscribe(ProcessId::new(2), GroupId::new(1));
    b.build().expect("fig2c config")
}

fn run_fig2c(seed: u64, kind: EngineKind) -> BTreeMap<ProcessId, Vec<(GroupId, ValueId)>> {
    let config = fig2c_config();
    let mut cluster = Cluster::new(
        SimConfig {
            seed,
            ..SimConfig::default()
        },
        Topology::lan(8),
    );
    cluster.set_protocol(config.clone());
    for p in 0..3u32 {
        let pid = ProcessId::new(p);
        cluster.add_actor(
            pid,
            Box::new(Recorder::new(kind.build(pid, config.clone()))),
        );
    }
    for (i, group) in [(0u32, 0u16), (1, 1)] {
        let client_proc = ProcessId::new(100 + i);
        let client_id = ClientId::new(u64::from(i));
        cluster.add_actor(
            client_proc,
            Box::new(Burst {
                target: ProcessId::new(i),
                groups: vec![GroupId::new(group)],
                client: client_id,
                n: 25,
            }),
        );
        cluster.register_client(client_id, client_proc);
    }
    cluster.start();
    cluster.run_until(Time::from_secs(5));
    let mut out = BTreeMap::new();
    for p in 0..3u32 {
        let pid = ProcessId::new(p);
        let r = cluster.actor_as::<Recorder>(pid).expect("recorder");
        out.insert(pid, r.delivered.clone());
    }
    out
}

#[test]
fn agreement_and_validity_per_group() {
    for kind in EngineKind::ALL {
        let delivered = run_fig2c(17, kind);
        // Validity: all 25 multicasts to each group delivered at its
        // subscribers.
        for (p, seq) in &delivered {
            let g0 = seq.iter().filter(|(g, _)| *g == GroupId::new(0)).count();
            let g1 = seq.iter().filter(|(g, _)| *g == GroupId::new(1)).count();
            if *p == ProcessId::new(2) {
                assert_eq!(g0, 0, "{kind}: L3 does not subscribe to group 0");
            } else {
                assert_eq!(g0, 25, "{kind}: {p} must deliver all of group 0");
            }
            assert_eq!(g1, 25, "{kind}: {p} must deliver all of group 1");
        }
        // Agreement + same relative order per group at all
        // subscribers.
        let filt = |p: u32, g: u16| -> Vec<ValueId> {
            delivered[&ProcessId::new(p)]
                .iter()
                .filter(|(gr, _)| *gr == GroupId::new(g))
                .map(|(_, id)| *id)
                .collect()
        };
        assert_eq!(filt(0, 0), filt(1, 0), "{kind}");
        assert_eq!(filt(0, 1), filt(1, 1), "{kind}");
        assert_eq!(filt(0, 1), filt(2, 1), "{kind}");
    }
}

#[test]
fn multigroup_delivery_order_is_acyclic() {
    for kind in EngineKind::ALL {
        let delivered = run_fig2c(23, kind);
        // Build the global precedence graph: m -> m' if some process
        // delivers m before m'. Atomic multicast requires it acyclic.
        let mut edges: BTreeMap<(GroupId, ValueId), BTreeSet<(GroupId, ValueId)>> = BTreeMap::new();
        let mut nodes: BTreeSet<(GroupId, ValueId)> = BTreeSet::new();
        for seq in delivered.values() {
            for w in seq.windows(2) {
                edges.entry(w[0]).or_default().insert(w[1]);
                nodes.insert(w[0]);
                nodes.insert(w[1]);
            }
        }
        // Kahn's algorithm: a topological order must consume every node.
        let mut indegree: BTreeMap<(GroupId, ValueId), usize> =
            nodes.iter().map(|&n| (n, 0)).collect();
        for succs in edges.values() {
            for s in succs {
                *indegree.get_mut(s).expect("known node") += 1;
            }
        }
        let mut queue: VecDeque<(GroupId, ValueId)> = indegree
            .iter()
            .filter(|&(_, &d)| d == 0)
            .map(|(&n, _)| n)
            .collect();
        let mut visited = 0;
        while let Some(n) = queue.pop_front() {
            visited += 1;
            if let Some(succs) = edges.get(&n) {
                for &s in succs {
                    let d = indegree.get_mut(&s).expect("known node");
                    *d -= 1;
                    if *d == 0 {
                        queue.push_back(s);
                    }
                }
            }
        }
        assert_eq!(
            visited,
            nodes.len(),
            "{kind}: delivery precedence graph has a cycle: atomic multicast order \
         violated"
        );
    }
}

#[test]
fn deterministic_merge_interleaving_matches_across_learners() {
    // L1 and L2 subscribe to the same two groups: their *interleaved*
    // sequences (not just per-group projections) must match exactly —
    // for the ring engine via the deterministic merge, for the
    // white-box engine via the global (timestamp, group) order.
    for kind in EngineKind::ALL {
        let delivered = run_fig2c(31, kind);
        assert_eq!(
            delivered[&ProcessId::new(0)],
            delivered[&ProcessId::new(1)],
            "{kind}: learners with identical subscriptions must deliver identical \
             sequences"
        );
    }
}

/// Two groups over the same three processes, everyone subscribing to
/// both: the deployment where single- and multi-group messages share
/// every subscriber, so their interleaving is fully observable. Any
/// group covers both, so the ring engine can order multi-group
/// messages here too (through the covering-group path).
fn shared_two_group_config() -> ClusterConfig {
    let tuning = RingTuning {
        lambda: 3_000,
        delta_us: 5_000,
        ..RingTuning::default()
    };
    let mut b = ClusterConfig::builder();
    for ring in 0..2u16 {
        let mut spec = RingSpec::new(RingId::new(ring)).tuning(tuning);
        for p in 0..3u32 {
            spec = spec.member(ProcessId::new((p + u32::from(ring)) % 3), Roles::ALL);
        }
        b = b.ring(spec).group(GroupId::new(ring), RingId::new(ring));
    }
    for p in 0..3u32 {
        for g in 0..2u16 {
            b = b.subscribe(ProcessId::new(p), GroupId::new(g));
        }
    }
    b.build().expect("shared two-group config")
}

/// Runs a two-group, three-process cluster under `kind` and `mode`:
/// `bursts[i]` single-group requests fired at proposer `i` for group
/// `i % 2`, plus `multi` requests addressed to *both* groups. Returns
/// each process's delivery sequence and each process's end-of-run
/// engine telemetry snapshot.
fn run_mixed(
    seed: u64,
    kind: EngineKind,
    mode: BatchConfig,
    bursts: &[u8],
    multi: u8,
) -> (BTreeMap<ProcessId, Vec<ValueId>>, Vec<TelemetrySnapshot>) {
    let config = shared_two_group_config();
    let mut cluster = Cluster::new(
        SimConfig {
            seed,
            ..SimConfig::default()
        },
        Topology::lan(8),
    );
    cluster.set_protocol(config.clone());
    for p in 0..3u32 {
        let pid = ProcessId::new(p);
        cluster.add_actor(
            pid,
            Box::new(Recorder::new(build_engine(kind, mode, pid, &config))),
        );
    }
    for (i, &n) in bursts.iter().enumerate() {
        let client_proc = ProcessId::new(100 + i as u32);
        let client_id = ClientId::new(i as u64);
        cluster.add_actor(
            client_proc,
            Box::new(Burst {
                target: ProcessId::new(i as u32 % 3),
                groups: vec![GroupId::new(i as u16 % 2)],
                client: client_id,
                n: u64::from(n),
            }),
        );
        cluster.register_client(client_id, client_proc);
    }
    if multi > 0 {
        let client_proc = ProcessId::new(200);
        let client_id = ClientId::new(99);
        cluster.add_actor(
            client_proc,
            Box::new(Burst {
                target: ProcessId::new(2),
                groups: vec![GroupId::new(0), GroupId::new(1)],
                client: client_id,
                n: u64::from(multi),
            }),
        );
        cluster.register_client(client_id, client_proc);
    }
    cluster.start();
    cluster.run_until(Time::from_secs(2));
    let mut delivered = BTreeMap::new();
    let mut telemetry = Vec::new();
    for p in 0..3u32 {
        let pid = ProcessId::new(p);
        let r = cluster.actor_as::<Recorder>(pid).expect("recorder");
        delivered.insert(pid, r.delivered.iter().map(|(_, id)| *id).collect());
        telemetry.push(r.node.telemetry());
    }
    (delivered, telemetry)
}

/// A multi-group message addressed to both groups interleaves with
/// single-group traffic in one total order: every process delivers the
/// identical sequence, each message exactly once — on both engines
/// (genuinely for wbcast, via the covering group for Multi-Ring Paxos).
#[test]
fn multigroup_and_single_group_share_one_total_order() {
    for kind in EngineKind::ALL {
        for mode in budgets() {
            let (delivered, _) = run_mixed(41, kind, mode, &[10, 10], 5);
            let reference = &delivered[&ProcessId::new(0)];
            assert_eq!(
                reference.len(),
                25,
                "{kind}/{mode:?}: all messages delivered"
            );
            let unique: BTreeSet<&ValueId> = reference.iter().collect();
            assert_eq!(
                unique.len(),
                reference.len(),
                "{kind}/{mode:?}: multi-group message delivered twice at one process"
            );
            for (p, seq) in &delivered {
                assert_eq!(seq, reference, "{kind}/{mode:?}: {p} diverges");
            }
        }
    }
}

/// The hold's telemetry surface. A burst of five multi-group requests
/// at an idle process: the first is submitted in the activation that
/// received it and never touches a queue, the four behind it are held
/// and flushed in batches (`batch.submitted_values` accounts for
/// exactly them, `batch.occupancy` for how they were packed) — and on
/// the white-box engine, whose protocol frames ride `Message::Engine`,
/// the wrapper coalesces same-destination frame fan-outs
/// (`wire.frames_coalesced`). Single-group requests are never held,
/// whatever is outstanding: without the multi-group burst no `batch.*`
/// metric exists.
#[test]
fn batched_submission_records_batch_telemetry() {
    for kind in EngineKind::ALL {
        for (mode, packed) in budgets().into_iter().zip([4, 2]) {
            let (_, telemetry) = run_mixed(41, kind, mode, &[10, 10], 5);
            let flushes: u64 = telemetry.iter().map(|s| s.counter("batch.flushes")).sum();
            let submitted: u64 = telemetry
                .iter()
                .map(|s| s.counter("batch.submitted_values"))
                .sum();
            assert_eq!(
                submitted, 4,
                "{kind}/{mode:?}: all but the first of the burst are held"
            );
            assert!(
                flushes > 0 && flushes < submitted,
                "{kind}/{mode:?}: a flush must pack several values \
                 ({flushes} flushes for {submitted} values)"
            );
            let occupancy_max = telemetry
                .iter()
                .filter_map(|s| s.histogram("batch.occupancy"))
                .map(atomic_multicast::sim::metrics::Histogram::max)
                .max()
                .unwrap_or_else(|| {
                    panic!("{kind}/{mode:?}: occupancy histogram missing despite flushes")
                });
            assert_eq!(
                occupancy_max, packed,
                "{kind}/{mode:?}: the budget that trips (or the whole held burst)"
            );
            if kind == EngineKind::Wbcast {
                let coalesced: u64 = telemetry
                    .iter()
                    .map(|s| s.counter("wire.frames_coalesced"))
                    .sum();
                assert!(
                    coalesced > 0,
                    "{kind}/{mode:?}: batched submissions must coalesce engine frames"
                );
            }
        }
        let (_, telemetry) = run_mixed(41, kind, BatchConfig::enabled(), &[10, 10], 0);
        for snap in &telemetry {
            for key in ["batch.flushes", "batch.submitted_values"] {
                assert!(
                    !snap.counters.contains_key(key),
                    "{kind}: {key} reported though nothing was held"
                );
            }
            assert!(
                snap.histogram("batch.occupancy").is_none(),
                "{kind}: occupancy histogram reported though nothing was held"
            );
        }
    }
}

/// Genuineness (wbcast): three disjoint two-process groups; traffic —
/// single- and multi-group — addressed to groups 0 and 1 only. Group
/// 2's processes must receive *no* engine frame carrying or referencing
/// a value (their own group's heartbeats are the only permitted
/// traffic), and deliver nothing.
#[test]
fn wbcast_nonaddressed_groups_see_no_engine_traffic() {
    let tuning = RingTuning {
        lambda: 3_000,
        delta_us: 5_000,
        ..RingTuning::default()
    };
    let mut b = ClusterConfig::builder();
    for ring in 0..3u16 {
        let mut spec = RingSpec::new(RingId::new(ring)).tuning(tuning);
        for p in 0..2u32 {
            spec = spec.member(ProcessId::new(u32::from(ring) * 2 + p), Roles::ALL);
        }
        b = b.ring(spec).group(GroupId::new(ring), RingId::new(ring));
        for p in 0..2u32 {
            b = b.subscribe(ProcessId::new(u32::from(ring) * 2 + p), GroupId::new(ring));
        }
    }
    let config = b.build().expect("disjoint three-group config");
    let mut cluster = Cluster::new(
        SimConfig {
            seed: 7,
            ..SimConfig::default()
        },
        Topology::lan(8),
    );
    cluster.set_protocol(config.clone());
    for p in 0..6u32 {
        let pid = ProcessId::new(p);
        cluster.add_actor(
            pid,
            Box::new(Recorder::new(EngineKind::Wbcast.build(pid, config.clone()))),
        );
    }
    for (i, groups) in [
        vec![GroupId::new(0)],
        vec![GroupId::new(1)],
        vec![GroupId::new(0), GroupId::new(1)],
    ]
    .into_iter()
    .enumerate()
    {
        let client_proc = ProcessId::new(100 + i as u32);
        let client_id = ClientId::new(i as u64);
        // Target a proposer inside the first addressed group.
        let target = ProcessId::new(u32::from(groups[0].value()) * 2);
        cluster.add_actor(
            client_proc,
            Box::new(Burst {
                target,
                groups,
                client: client_id,
                n: 10,
            }),
        );
        cluster.register_client(client_id, client_proc);
    }
    cluster.start();
    cluster.run_until(Time::from_secs(5));
    // The addressed groups' subscribers deliver everything addressed to
    // them: 10 singles + 10 multis each.
    for p in 0..4u32 {
        let r = cluster.actor_as::<Recorder>(ProcessId::new(p)).unwrap();
        assert_eq!(r.delivered.len(), 20, "process {p}");
        let unique: BTreeSet<ValueId> = r.delivered.iter().map(|(_, id)| *id).collect();
        assert_eq!(unique.len(), 20, "process {p}: duplicate delivery");
    }
    // Acyclic cross-group order: the messages delivered on both sides
    // (exactly the multi-group ones) appear in the same relative order
    // at a group-0 subscriber and a group-1 subscriber.
    let seq_of = |cluster: &mut Cluster, p: u32| -> Vec<ValueId> {
        cluster
            .actor_as::<Recorder>(ProcessId::new(p))
            .unwrap()
            .delivered
            .iter()
            .map(|(_, id)| *id)
            .collect()
    };
    let g0_seq = seq_of(&mut cluster, 0);
    let g1_seq = seq_of(&mut cluster, 2);
    let shared: BTreeSet<ValueId> = g0_seq
        .iter()
        .copied()
        .filter(|id| g1_seq.contains(id))
        .collect();
    assert_eq!(shared.len(), 10, "the ten multi-group messages");
    let project = |seq: &[ValueId]| -> Vec<ValueId> {
        seq.iter()
            .copied()
            .filter(|id| shared.contains(id))
            .collect()
    };
    assert_eq!(
        project(&g0_seq),
        project(&g1_seq),
        "multi-group messages must be ordered identically across groups"
    );
    // Genuineness: group 2's processes saw zero value-bearing frames.
    for p in 4..6u32 {
        let r = cluster.actor_as::<Recorder>(ProcessId::new(p)).unwrap();
        assert_eq!(
            r.value_frames, 0,
            "process {p} is outside every addressed γ but received value traffic"
        );
        assert!(r.delivered.is_empty(), "process {p} delivered a value");
    }
}

/// The dLog deployment (three servers, two logs plus the common group,
/// every server subscribed to all three, one sequencer each) with one
/// busy log: every server delivers the same sequence on either engine.
/// For wbcast the two idle groups' frontiers decide *when*: their
/// sequencers are asked for the promise delivery needs, so
/// submit→deliver costs message delays on the LAN link (50 µs one way),
/// not the wait for the idle groups' next Δ heartbeat.
#[test]
fn one_busy_group_among_idle_ones_delivers_in_total_order_without_waiting_a_delta() {
    use atomic_multicast::dlog::{DLogDeployment, DLogTopology};
    for kind in EngineKind::ALL {
        let tuning = RingTuning::default();
        let config = DLogDeployment::build(&DLogTopology::new(2, tuning).engine(kind)).config;
        let mut cluster = Cluster::new(
            SimConfig {
                seed: 17,
                ..SimConfig::default()
            },
            Topology::lan(8),
        );
        cluster.set_protocol(config.clone());
        for p in 0..3u32 {
            let pid = ProcessId::new(p);
            cluster.add_actor(
                pid,
                Box::new(Recorder::new(kind.build(pid, config.clone()))),
            );
        }
        let (client_proc, client_id) = (ProcessId::new(100), ClientId::new(0));
        cluster.add_actor(
            client_proc,
            Box::new(Burst {
                target: ProcessId::new(0),
                groups: vec![GroupId::new(0)],
                client: client_id,
                n: 20,
            }),
        );
        cluster.register_client(client_id, client_proc);
        cluster.start();
        cluster.run_until(Time::from_secs(2));
        let sequences: Vec<Vec<(GroupId, ValueId)>> = (0..3u32)
            .map(|p| {
                let r = cluster.actor_as::<Recorder>(ProcessId::new(p)).unwrap();
                r.delivered.clone()
            })
            .collect();
        assert_eq!(sequences[0].len(), 20, "{kind}: everything delivered");
        let unique: BTreeSet<&(GroupId, ValueId)> = sequences[0].iter().collect();
        assert_eq!(unique.len(), 20, "{kind}: duplicate delivery");
        assert!(
            sequences.iter().all(|s| *s == sequences[0]),
            "{kind}: servers diverge"
        );
        if kind == EngineKind::Wbcast {
            let submitter = cluster.actor_as::<Recorder>(ProcessId::new(0)).unwrap();
            let telemetry = submitter.node.telemetry();
            let waited = telemetry
                .histogram("round.delivery_latency_us")
                .expect("p0 submitted and delivered");
            assert_eq!(waited.count(), 20);
            assert!(
                waited.max() < tuning.delta_us / 4,
                "submit→deliver took up to {} µs of a {} µs Δ",
                waited.max(),
                tuning.delta_us
            );
            // Asked for by the idle groups' sequencers themselves: they
            // subscribe to the busy group and see its values first-hand.
            let asked: u64 = (1..3u32)
                .map(|p| {
                    let r = cluster.actor_as::<Recorder>(ProcessId::new(p)).unwrap();
                    r.node.telemetry().counter("sub.probes_sent")
                })
                .sum();
            assert!(asked > 0 && telemetry.counter("sub.probes_sent") == 0);
        }
    }
}

/// Like [`shared_two_group_config`], tuned for crash tests: faster
/// proposer retransmission so the ring engine recovers in-flight
/// proposals lost with the coordinator within the test horizon.
fn failover_config() -> ClusterConfig {
    let tuning = RingTuning {
        lambda: 3_000,
        delta_us: 5_000,
        proposal_resend_us: 50_000,
        ..RingTuning::default()
    };
    let mut b = ClusterConfig::builder();
    for ring in 0..2u16 {
        let mut spec = RingSpec::new(RingId::new(ring)).tuning(tuning);
        for p in 0..3u32 {
            spec = spec.member(ProcessId::new((p + u32::from(ring)) % 3), Roles::ALL);
        }
        b = b.ring(spec).group(GroupId::new(ring), RingId::new(ring));
    }
    for p in 0..3u32 {
        for g in 0..2u16 {
            b = b.subscribe(ProcessId::new(p), GroupId::new(g));
        }
    }
    b.build().expect("failover config")
}

/// Crashes p0 — the sequencer of group 0 for the white-box engine, the
/// ring-0 Paxos coordinator for the ring engine — at `crash_us`, with
/// single- and multi-group messages still in flight, then submits a
/// post-election wave. Returns the survivors' delivery sequences, their
/// residual engine backlogs, and their telemetry read-outs (snapshot,
/// health report at the end of the run).
#[allow(clippy::type_complexity)]
fn run_failover(
    seed: u64,
    kind: EngineKind,
    mode: BatchConfig,
    crash_us: u64,
) -> (
    BTreeMap<ProcessId, Vec<ValueId>>,
    Vec<usize>,
    Vec<(TelemetrySnapshot, HealthReport)>,
) {
    let config = failover_config();
    let mut cluster = Cluster::new(
        SimConfig {
            seed,
            election_timeout_us: 50_000,
            ..SimConfig::default()
        },
        Topology::lan(8),
    );
    cluster.set_protocol(config.clone());
    for p in 0..3u32 {
        let pid = ProcessId::new(p);
        cluster.add_actor(
            pid,
            Box::new(Recorder::new(build_engine(kind, mode, pid, &config))),
        );
    }
    // In-flight at crash time: singles on both groups plus multi-group
    // messages, all initiated at the survivors. Each proposer sticks to
    // one ring (p1: group 0 + multis through the covering group 0; p2:
    // group 1): the ring engine's value ids are per-ring proposer
    // sequences, so a proposer splitting traffic across rings would
    // reuse ids and defeat the exactly-once accounting below.
    for (i, (target, groups, n)) in [
        (1u32, vec![GroupId::new(0)], 6u64),
        (2, vec![GroupId::new(1)], 6),
        (1, vec![GroupId::new(0), GroupId::new(1)], 5),
    ]
    .into_iter()
    .enumerate()
    {
        let client_proc = ProcessId::new(100 + i as u32);
        let client_id = ClientId::new(i as u64);
        cluster.add_actor(
            client_proc,
            Box::new(Burst {
                target: ProcessId::new(target),
                groups,
                client: client_id,
                n,
            }),
        );
        cluster.register_client(client_id, client_proc);
    }
    cluster.schedule_crash(Time::ZERO.plus(crash_us), ProcessId::new(0));
    cluster.start();
    cluster.run_until(Time::from_secs(1));
    // Post-election wave: the new sequencer must order fresh traffic.
    for (i, (target, groups, n)) in [
        (1u32, vec![GroupId::new(0), GroupId::new(1)], 3u64),
        (2, vec![GroupId::new(1)], 3),
    ]
    .into_iter()
    .enumerate()
    {
        let client_proc = ProcessId::new(200 + i as u32);
        let client_id = ClientId::new(10 + i as u64);
        cluster.add_actor(
            client_proc,
            Box::new(Burst {
                target: ProcessId::new(target),
                groups,
                client: client_id,
                n,
            }),
        );
        cluster.register_client(client_id, client_proc);
    }
    cluster.run_until(Time::from_secs(3));
    let mut delivered = BTreeMap::new();
    let mut backlogs = Vec::new();
    let mut telemetry = Vec::new();
    for p in 1..3u32 {
        let pid = ProcessId::new(p);
        let r = cluster.actor_as::<Recorder>(pid).expect("survivor");
        delivered.insert(pid, r.delivered.iter().map(|(_, id)| *id).collect());
        backlogs.push(r.node.backlog());
        let engine = &r.node;
        telemetry.push((engine.telemetry(), engine.health(Time::from_secs(3))));
    }
    (delivered, backlogs, telemetry)
}

/// Coordinator-crash-and-resume liveness (the ROADMAP's former top open
/// item): crashing the process that sequences an addressed group while
/// single- and multi-group messages are undecided must not stall the
/// engine. After re-election, every message — submitted before the
/// crash or after the election — is delivered exactly once by both
/// survivors, in one identical total order, with zero residual
/// initiator backlog. Parameterized over every engine and over crash
/// instants that catch the protocol in different phases.
///
/// The engines' own telemetry must agree with the injected fault: each
/// survivor's delivery counter matches the workload, exactly one
/// survivor records a sequencer takeover for the crashed coordinator's
/// group (wbcast), no orphan recovery runs (the multi-group initiators
/// survive here), and every health probe is clean once the run settles.
#[test]
fn sequencer_failover_delivers_every_message_exactly_once() {
    // Every initiator survives here, so nothing held can be lost and
    // the test must hold under both budgets. (A value still queued when
    // its process dies is lost like a request lost on the wire, which
    // only the client — absent in this harness — could retry; the
    // initiator-crash test below runs the production budgets and
    // crashes its initiator after the hold bound has emptied them.)
    for kind in EngineKind::ALL {
        for mode in budgets() {
            for crash_us in [400u64, 2_000, 12_000] {
                let (delivered, backlogs, telemetry) = run_failover(47, kind, mode, crash_us);
                let total = 6 + 6 + 5 + 3 + 3;
                let reference = &delivered[&ProcessId::new(1)];
                assert_eq!(
                    reference.len(),
                    total,
                    "{kind}/{mode:?}/crash@{crash_us}µs: every message delivered"
                );
                let unique: BTreeSet<&ValueId> = reference.iter().collect();
                assert_eq!(
                    unique.len(),
                    total,
                    "{kind}/{mode:?}/crash@{crash_us}µs: duplicate delivery"
                );
                assert_eq!(
                    reference,
                    &delivered[&ProcessId::new(2)],
                    "{kind}/{mode:?}/crash@{crash_us}µs: survivors diverge"
                );
                for (i, b) in backlogs.iter().enumerate() {
                    assert_eq!(
                        *b, 0,
                        "{kind}/{mode:?}/crash@{crash_us}µs: residual backlog at survivor {i}"
                    );
                }
                // Telemetry agrees with the injected fault and the outcome.
                let delivered_counter = match kind {
                    EngineKind::MultiRing => "delivered",
                    EngineKind::Wbcast => "sub.delivered",
                };
                for (i, (snap, health)) in telemetry.iter().enumerate() {
                    assert_eq!(
                        snap.counter(delivered_counter),
                        total as u64,
                        "{kind}/{mode:?}/crash@{crash_us}µs: survivor {i} delivery counter"
                    );
                    assert!(
                    health.is_healthy(),
                    "{kind}/{mode:?}/crash@{crash_us}µs: survivor {i} unhealthy after settle: {:?}",
                    health.issues
                );
                }
                if kind == EngineKind::Wbcast {
                    let takeovers: u64 = telemetry
                        .iter()
                        .map(|(snap, _)| snap.counter("seq.takeovers"))
                        .sum();
                    assert_eq!(
                        takeovers, 1,
                        "{kind}/{mode:?}/crash@{crash_us}µs: exactly one survivor adopts the dead \
                     sequencer's group"
                    );
                    let orphans: u64 = telemetry
                        .iter()
                        .map(|(snap, _)| snap.counter("orphan.rounds_started"))
                        .sum();
                    assert_eq!(
                    orphans, 0,
                    "{kind}/{mode:?}/crash@{crash_us}µs: no orphan recovery — the initiators survive"
                );
                }
            }
        }
    }
}

/// Crashes p2 — a plain proposer that coordinates nothing, i.e. a pure
/// *initiator* — at `crash_us`, with its multi-group submissions caught
/// mid-round at a phase the instant selects: before any `ProposeAck`
/// reached it, after partial `ProposeAck`s, or after partial `Final`s
/// already left. Survivors keep submitting before and after. Returns
/// the survivors' delivery sequences, their residual engine backlogs,
/// (wbcast) their residual undecided-proposal counts, and their
/// end-of-run telemetry snapshots and health reports.
#[allow(clippy::type_complexity)]
fn run_initiator_crash(
    seed: u64,
    kind: EngineKind,
    crash_us: u64,
) -> (
    BTreeMap<ProcessId, Vec<ValueId>>,
    Vec<usize>,
    Vec<usize>,
    Vec<(TelemetrySnapshot, HealthReport)>,
) {
    let config = failover_config();
    let mut cluster = Cluster::new(
        SimConfig {
            seed,
            election_timeout_us: 50_000,
            ..SimConfig::default()
        },
        Topology::lan(8),
    );
    cluster.set_protocol(config.clone());
    for p in 0..3u32 {
        let pid = ProcessId::new(p);
        cluster.add_actor(
            pid,
            Box::new(Recorder::new(kind.build(pid, config.clone()))),
        );
    }
    // In flight at crash time: singles on both groups from the
    // survivors (p0 sequences/coordinates group 0, p1 group 1), plus
    // multi-group messages whose *initiator is p2* — the process about
    // to die. p2 coordinates no ring, so its crash triggers no
    // election: the orphaned rounds must be recovered by the addressed
    // groups themselves.
    for (i, (target, groups, n)) in [
        (0u32, vec![GroupId::new(0)], 6u64),
        (1, vec![GroupId::new(1)], 6),
        (2, vec![GroupId::new(0), GroupId::new(1)], 5),
    ]
    .into_iter()
    .enumerate()
    {
        let client_proc = ProcessId::new(100 + i as u32);
        let client_id = ClientId::new(i as u64);
        cluster.add_actor(
            client_proc,
            Box::new(Burst {
                target: ProcessId::new(target),
                groups,
                client: client_id,
                n,
            }),
        );
        cluster.register_client(client_id, client_proc);
    }
    cluster.schedule_crash(Time::ZERO.plus(crash_us), ProcessId::new(2));
    cluster.start();
    cluster.run_until(Time::from_secs(1));
    // Post-crash wave: both streams must still be live — nothing may
    // stay wedged behind an orphaned proposal.
    for (i, (target, groups, n)) in [
        (0u32, vec![GroupId::new(0), GroupId::new(1)], 3u64),
        (1, vec![GroupId::new(1)], 3),
    ]
    .into_iter()
    .enumerate()
    {
        let client_proc = ProcessId::new(200 + i as u32);
        let client_id = ClientId::new(10 + i as u64);
        cluster.add_actor(
            client_proc,
            Box::new(Burst {
                target: ProcessId::new(target),
                groups,
                client: client_id,
                n,
            }),
        );
        cluster.register_client(client_id, client_proc);
    }
    cluster.run_until(Time::from_secs(3));
    let mut delivered = BTreeMap::new();
    let mut backlogs = Vec::new();
    let mut undecided = Vec::new();
    let mut recovery = Vec::new();
    for p in 0..2u32 {
        let pid = ProcessId::new(p);
        let r = cluster.actor_as::<Recorder>(pid).expect("survivor");
        delivered.insert(pid, r.delivered.iter().map(|(_, id)| *id).collect());
        backlogs.push(r.node.backlog());
        let engine = &r.node;
        let snap = engine.telemetry();
        // wbcast only; the ring engine has no such gauge and reads 0.
        undecided.push(snap.gauge("seq.undecided") as usize);
        recovery.push((snap, engine.health(Time::from_secs(3))));
    }
    (delivered, backlogs, undecided, recovery)
}

/// The tentpole acceptance test: crashing the *initiator* of in-flight
/// multi-group rounds must not stall `multicast(γ, m)` — previously the
/// engine's own docs admitted this wedged every addressed group's
/// stream forever. With orphan recovery, every submitted value — the
/// orphaned multi-group rounds included — is delivered exactly once in
/// an identical order at all surviving subscribers, the post-crash wave
/// proves no stream stayed wedged, and no residual backlog or
/// undecided proposal survives. Parameterized over every engine and
/// over crash instants that catch the Skeen rounds in different
/// phases: before any `ProposeAck` returned (≈120 µs: the submissions
/// are at the sequencers, the acks still in flight), amid the
/// `ProposeAck` burst (≈170 µs), amid the `Final` fan-out (≈185 µs),
/// and long after quiescence (2 ms, the trivial instant).
#[test]
fn initiator_crash_mid_round_does_not_stall_delivery() {
    for kind in EngineKind::ALL {
        for crash_us in [120u64, 170, 185, 2_000] {
            let (delivered, backlogs, undecided, recovery) =
                run_initiator_crash(61, kind, crash_us);
            let total = 6 + 6 + 5 + 3 + 3;
            let reference = &delivered[&ProcessId::new(0)];
            assert_eq!(
                reference.len(),
                total,
                "{kind}/crash@{crash_us}µs: every submitted value delivered"
            );
            let unique: BTreeSet<&ValueId> = reference.iter().collect();
            assert_eq!(
                unique.len(),
                total,
                "{kind}/crash@{crash_us}µs: duplicate delivery"
            );
            assert_eq!(
                reference,
                &delivered[&ProcessId::new(1)],
                "{kind}/crash@{crash_us}µs: survivors diverge"
            );
            for (i, b) in backlogs.iter().enumerate() {
                assert_eq!(
                    *b, 0,
                    "{kind}/crash@{crash_us}µs: residual backlog at survivor {i}"
                );
            }
            for (i, u) in undecided.iter().enumerate() {
                assert_eq!(
                    *u, 0,
                    "{kind}/crash@{crash_us}µs: stalled undecided proposal at survivor {i}"
                );
            }
            // Telemetry agrees with the injected fault: every orphan
            // round a survivor started was driven to confirmation, and
            // the survivors end the run healthy. The earliest instant
            // (120 µs: the initiator dies before any ProposeAck returns)
            // is guaranteed to orphan all five multi-group rounds; after
            // quiescence (2 ms) there is nothing to recover. The
            // intermediate instants may resolve either way — the Finals
            // may already have left the initiator — so only the
            // started == completed invariant is asserted there.
            for (i, (snap, health)) in recovery.iter().enumerate() {
                assert_eq!(
                    snap.counter("orphan.rounds_completed"),
                    snap.counter("orphan.rounds_started"),
                    "{kind}/crash@{crash_us}µs: unfinished orphan recovery at survivor {i}"
                );
                assert!(
                    health.is_healthy(),
                    "{kind}/crash@{crash_us}µs: survivor {i} unhealthy after settle: {:?}",
                    health.issues
                );
            }
            if kind == EngineKind::Wbcast {
                let started: u64 = recovery
                    .iter()
                    .map(|(snap, _)| snap.counter("orphan.rounds_started"))
                    .sum();
                if crash_us == 120 {
                    assert!(
                        started > 0,
                        "{kind}/crash@{crash_us}µs: mid-flight initiator crash must \
                         trigger orphan recovery"
                    );
                } else if crash_us == 2_000 {
                    assert_eq!(
                        started, 0,
                        "{kind}/crash@{crash_us}µs: nothing was in flight to orphan"
                    );
                }
            }
        }
    }
}

/// What the hold bound leaves exposed, stated rather than avoided: an
/// initiator that dies *inside* it (80 µs: the burst arrived ≈ 50 µs
/// in, the first request left at once, the four behind it are still
/// queued) loses exactly those four — like requests lost on the wire,
/// the absent client's to retry — and nothing else: the round that had
/// left is recovered, the survivors agree, both streams stay live, no
/// backlog or undecided proposal is left behind.
#[test]
fn initiator_crash_inside_the_hold_bound_loses_only_what_was_still_held() {
    for kind in EngineKind::ALL {
        let (delivered, backlogs, undecided, recovery) = run_initiator_crash(61, kind, 80);
        let reference = &delivered[&ProcessId::new(0)];
        let unique: BTreeSet<&ValueId> = reference.iter().collect();
        assert_eq!(unique.len(), reference.len(), "{kind}: duplicate delivery");
        assert_eq!(
            reference.len(),
            6 + 6 + 1 + 3 + 3,
            "{kind}: four held, lost"
        );
        assert_eq!(
            reference,
            &delivered[&ProcessId::new(1)],
            "{kind}: diverged"
        );
        assert_eq!(backlogs, [0, 0], "{kind}: residual backlog");
        assert_eq!(undecided, [0, 0], "{kind}: stalled undecided proposal");
        for (snap, health) in &recovery {
            assert_eq!(
                snap.counter("orphan.rounds_completed"),
                snap.counter("orphan.rounds_started"),
                "{kind}: unfinished orphan recovery"
            );
            assert!(health.is_healthy(), "{kind}: {:?}", health.issues);
        }
    }
}

/// A deterministic application for the recovery test: records every
/// executed command as a `(client, request)` pair — so duplicate
/// executions and gaps are directly visible — and snapshot/restore
/// round-trips the whole state, as the checkpoint protocol requires.
#[derive(Default, Debug)]
struct CmdLog {
    entries: Vec<(u64, u64)>,
}

impl multiring_paxos::app::Application for CmdLog {
    fn execute(
        &mut self,
        delivery: &multiring_paxos::app::Delivery,
    ) -> Vec<multiring_paxos::app::Reply> {
        if let Some((client, request, _)) =
            multiring_paxos::app::decode_command(delivery.value.payload.clone())
        {
            self.entries.push((client.value(), request));
        }
        Vec::new()
    }

    fn snapshot(&self) -> Bytes {
        use bytes::BufMut;
        let mut buf = bytes::BytesMut::with_capacity(self.entries.len() * 16);
        for &(client, request) in &self.entries {
            buf.put_u64_le(client);
            buf.put_u64_le(request);
        }
        buf.freeze()
    }

    fn restore(&mut self, snapshot: &Bytes) {
        use bytes::Buf;
        let mut buf = snapshot.clone();
        self.entries.clear();
        while buf.remaining() >= 16 {
            let client = buf.get_u64_le();
            let request = buf.get_u64_le();
            self.entries.push((client, request));
        }
    }
}

/// The recovery deployment: two proposer/acceptor rings over p0–p2
/// (ring 1 rotated so its coordinator — and wbcast sequencer — is p1),
/// three learner-only replicas p3–p5 subscribing to both groups.
fn recovery_config() -> ClusterConfig {
    let tuning = RingTuning {
        lambda: 3_000,
        delta_us: 5_000,
        proposal_resend_us: 50_000,
        ..RingTuning::default()
    };
    let mut b = ClusterConfig::builder();
    for ring in 0..2u16 {
        let mut spec = RingSpec::new(RingId::new(ring)).tuning(tuning);
        for p in 0..3u32 {
            spec = spec.member(
                ProcessId::new((p + u32::from(ring)) % 3),
                Roles::PROPOSER | Roles::ACCEPTOR,
            );
        }
        for p in 3..6u32 {
            spec = spec.member(ProcessId::new(p), Roles::LEARNER);
        }
        b = b.ring(spec).group(GroupId::new(ring), RingId::new(ring));
    }
    for p in 3..6u32 {
        for g in 0..2u16 {
            b = b.subscribe(ProcessId::new(p), GroupId::new(g));
        }
    }
    b.build().expect("recovery config")
}

/// The tentpole acceptance test: a replica killed mid-run recovers from
/// its latest durable checkpoint and converges to the identical
/// delivery sequence, each command executed exactly once — for every
/// engine, through `EngineReplica::recovering` (peer-checkpoint query,
/// then acceptor backfill for the ring engine, sequencer stream resync
/// for the white-box engine) as wired by
/// `Cluster::add_recoverable_replica_actor`. For wbcast the
/// test additionally asserts the dedup state is pruned below the
/// durable watermark — the unbounded-growth fix.
#[test]
fn replica_crash_and_restart_recovers_from_checkpoint() {
    use atomic_multicast::core::replica::CheckpointPolicy;
    use mrp_amcast::EngineReplica;

    let g0 = GroupId::new(0);
    let g1 = GroupId::new(1);
    for kind in EngineKind::ALL {
        let config = recovery_config();
        let mut cluster = Cluster::new(
            SimConfig {
                seed: 53,
                election_timeout_us: 50_000,
                ..SimConfig::default()
            },
            Topology::lan(8),
        );
        cluster.set_protocol(config.clone());
        for p in 0..3u32 {
            let pid = ProcessId::new(p);
            cluster.add_actor(pid, Box::new(kind.build(pid, config.clone())));
        }
        let policy = CheckpointPolicy {
            interval_us: 150_000,
            sync: true,
        };
        for p in 3..6u32 {
            cluster.add_recoverable_replica_actor(
                kind,
                ProcessId::new(p),
                config.clone(),
                policy,
                CmdLog::default,
            );
        }
        let mut expected = 0u64;
        let wave = |cluster: &mut Cluster, base: u64, bursts: &[(u32, Vec<GroupId>, u64)]| {
            for (i, (target, groups, n)) in bursts.iter().enumerate() {
                let client_proc = ProcessId::new(100 + base as u32 * 10 + i as u32);
                let client_id = ClientId::new(base * 10 + i as u64);
                cluster.add_actor(
                    client_proc,
                    Box::new(Burst {
                        target: ProcessId::new(*target),
                        groups: groups.clone(),
                        client: client_id,
                        n: *n,
                    }),
                );
                cluster.register_client(client_id, client_proc);
            }
        };
        // Wave 1: singles on both groups plus multi-group messages, all
        // delivered and checkpointed before the crash.
        wave(
            &mut cluster,
            0,
            &[(0, vec![g0], 10), (1, vec![g1], 10), (0, vec![g0, g1], 5)],
        );
        expected += 25;
        cluster.start();
        cluster.run_until(Time::from_millis(700));
        // A durable checkpoint exists on the victim's stable storage
        // before the crash: recovery below starts from it, not from
        // scratch.
        let ckpt_watermark = cluster
            .storage(ProcessId::new(4))
            .and_then(|s| s.checkpoint())
            .map_or_else(
                || panic!("{kind}: no durable checkpoint before the crash"),
                |(id, _)| id.clone(),
            );
        assert!(
            ckpt_watermark.total_instances() > 0,
            "{kind}: checkpoint covers deliveries"
        );
        cluster.schedule_crash(Time::from_millis(750), ProcessId::new(4));
        cluster.run_until(Time::from_millis(800));
        // Wave 2 while the replica is down: it must recover these from
        // the checkpointed peers' streams, not have seen them live.
        wave(&mut cluster, 1, &[(0, vec![g0], 8), (1, vec![g1], 8)]);
        expected += 16;
        cluster.run_until(Time::from_millis(1_500));
        cluster.schedule_restart(Time::from_millis(1_550), ProcessId::new(4));
        cluster.run_until(Time::from_millis(1_700));
        assert!(
            cluster.is_up(ProcessId::new(4)),
            "{kind}: replica restarted"
        );
        // Wave 3 after the restart: new traffic reaches everyone.
        wave(
            &mut cluster,
            2,
            &[(0, vec![g0], 6), (1, vec![g1], 6), (1, vec![g0, g1], 3)],
        );
        expected += 15;
        cluster.run_until(Time::from_secs(4));

        let log_of = |cluster: &mut Cluster, p: u32| -> Vec<(u64, u64)> {
            cluster
                .actor_as::<EngineReplica<CmdLog>>(ProcessId::new(p))
                .map(|r| r.app().entries.clone())
                .expect("replica actor")
        };
        let reference = log_of(&mut cluster, 3);
        assert_eq!(
            reference.len() as u64,
            expected,
            "{kind}: every command executed at the survivor"
        );
        let unique: BTreeSet<&(u64, u64)> = reference.iter().collect();
        assert_eq!(
            unique.len(),
            reference.len(),
            "{kind}: a command executed twice at the survivor"
        );
        assert_eq!(
            log_of(&mut cluster, 5),
            reference,
            "{kind}: survivors diverge"
        );
        // The acceptance bar: the crashed-and-restarted replica holds
        // the identical execution history, exactly once per command —
        // the pre-checkpoint prefix from the restored snapshot, the
        // post-checkpoint window from backfill/resync, the rest live.
        assert_eq!(
            log_of(&mut cluster, 4),
            reference,
            "{kind}: restarted replica diverges from the survivors"
        );
        if kind == EngineKind::Wbcast {
            let r = &*cluster
                .actor_as::<EngineReplica<CmdLog>>(ProcessId::new(4))
                .expect("wbcast replica");
            let watermark = r
                .stable_watermark()
                .expect("checkpoints resumed after restart")
                .clone();
            let min_mark = watermark
                .marks
                .iter()
                .map(|&(_, i)| i.value())
                .min()
                .expect("two subscribed groups");
            assert!(min_mark > 0, "watermark advanced past genesis");
            let dedup = r.telemetry().gauge("dedup_records");
            assert!(
                dedup < expected,
                "dedup entries bounded by the checkpoint window, not history: {dedup}"
            );
        }
    }
}

proptest! {
    /// Cross-engine property: for random mixes of single-group bursts
    /// and multi-group messages under random schedules, delivery is a
    /// *legal total order* on every engine — all processes deliver the
    /// same sequence, with no duplicates, and exactly the multicast
    /// values in it.
    #[test]
    fn mixed_group_delivery_is_a_legal_total_order(
        seed in 1u64..1_000_000,
        bursts in proptest::collection::vec(1u8..8, 2..4),
        multi in 0u8..5,
    ) {
        // One budget per case keeps the proptest budget flat; it is
        // drawn from the seed so the corpus covers both.
        let mode = budgets()[(seed % 2) as usize];
        for kind in EngineKind::ALL {
            let (delivered, _) = run_mixed(seed, kind, mode, &bursts, multi);
            let total: u64 =
                bursts.iter().map(|&n| u64::from(n)).sum::<u64>() + u64::from(multi);
            let reference = &delivered[&ProcessId::new(0)];
            // Totality: every multicast value is delivered exactly once.
            prop_assert_eq!(reference.len() as u64, total, "{}/{:?}: wrong count", kind, mode);
            let unique: BTreeSet<&ValueId> = reference.iter().collect();
            prop_assert_eq!(
                unique.len(),
                reference.len(),
                "{}/{:?}: duplicate delivery",
                kind,
                mode
            );
            // Total order: identical sequences at every subscriber.
            for (p, seq) in &delivered {
                prop_assert_eq!(seq, reference, "{}/{:?}: {} diverges", kind, mode, p);
            }
        }
    }
}
