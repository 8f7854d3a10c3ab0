//! Cross-crate integration tests of the atomic multicast properties
//! (Section 2 of the paper) on the simulator. Each test keeps the
//! delivery counts its workload implies — validity — and leaves the
//! rest to the one ordering oracle, `Cluster::check_history`, the
//! executable specification the model checker refines the engines
//! against: every delivery is a multicast message, at one of its
//! destinations, once per process, in an order that stays acyclic
//! across all processes. With exactly-once delivery and an acyclic
//! order, two processes that deliver everything addressed to the same
//! subscriptions deliver it in one identical sequence.
//!
//! Every test is parameterized over [`EngineKind::ALL`] through the
//! [`AmcastEngine`] abstraction: the same invariants must hold for the
//! Multi-Ring Paxos engine and for the timestamp-based white-box
//! engine, on the identical workload and simulated network. The
//! tests that submit multi-group requests additionally run under two
//! hold-queue budgets ([`budgets`]) — the ordering invariants must be
//! insensitive to how held submissions are packed into engine rounds.

use atomic_multicast::amcast::wbcast::message_carries_value;
use atomic_multicast::amcast::{
    AmcastEngine, AnyEngine, BatchConfig, EngineKind, HealthReport, TelemetrySnapshot,
};
use atomic_multicast::core::config::{ClusterConfig, RingSpec, RingTuning, Roles};
use atomic_multicast::core::types::{ClientId, GroupId, ProcessId, RingId, Time};
use atomic_multicast::sim::actor::{Actor, ActorCtx, ActorEvent, Outbox};
use atomic_multicast::sim::cluster::{Cluster, SimConfig};
use atomic_multicast::sim::net::Topology;
use atomic_multicast::sim::Burst;
use bytes::Bytes;
use multiring_paxos::event::Event;
use proptest::prelude::*;
use std::any::Any;
use std::collections::BTreeSet;

/// Adds client session `client`, at process `100 + client`, which fires
/// `n` requests at `target`, each addressed to the group set `groups`
/// (one element = the classic single-group case).
fn add_burst(cluster: &mut Cluster, client: u64, target: u32, groups: Vec<GroupId>, n: u64) {
    let id = ClientId::new(client);
    let payload = Bytes::from(vec![0u8; 16]);
    let burst = Burst::new(id, ProcessId::new(target), groups, n, payload);
    cluster.add_client(ProcessId::new(100 + client as u32), id, Box::new(burst));
}

/// How many values `p` delivered, through `group` only if one is named.
fn count(cluster: &Cluster, p: u32, group: Option<u16>) -> usize {
    let through = |g: &GroupId| group.is_none_or(|want| g.value() == want);
    cluster
        .delivered(ProcessId::new(p))
        .filter(|(g, _)| through(g))
        .count()
}

/// The bare engine hosted as process `p`.
fn engine(cluster: &mut Cluster, p: u32) -> &mut AnyEngine {
    cluster
        .actor_as::<AnyEngine>(ProcessId::new(p))
        .expect("an engine actor")
}

/// An engine that counts the frames it receives that carry or reference
/// a value — the traffic genuineness forbids outside every addressed γ.
#[derive(Debug)]
struct Outsider {
    node: AnyEngine,
    value_frames: u64,
}

impl Actor for Outsider {
    fn on_event(&mut self, now: Time, ev: ActorEvent, out: &mut Outbox, ctx: &mut ActorCtx<'_>) {
        if let ActorEvent::Protocol(Event::Message { msg, .. }) = &ev {
            self.value_frames += u64::from(message_carries_value(msg));
        }
        Actor::on_event(&mut self.node, now, ev, out, ctx);
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

/// Runs the Figure 2(c) deployment: 25 requests to each group.
fn run_fig2c(seed: u64, kind: EngineKind) -> Cluster {
    let config = fig2c_config();
    let mut cluster = Cluster::new(
        SimConfig {
            seed,
            ..SimConfig::default()
        },
        Topology::lan(8),
    );
    cluster.add_engine_actors(&config, kind);
    for i in 0..2u16 {
        add_burst(
            &mut cluster,
            u64::from(i),
            u32::from(i),
            vec![GroupId::new(i)],
            25,
        );
    }
    cluster.start();
    cluster.run_until(Time::from_secs(5));
    cluster
}

#[test]
fn agreement_and_validity_per_group() {
    for kind in EngineKind::ALL {
        let cluster = run_fig2c(17, kind);
        assert_eq!(cluster.check_history(), Ok(()), "{kind}");
        // Validity: all 25 multicasts to each group delivered at its
        // subscribers. Agreement and one relative order per group at
        // all subscribers follow from the oracle.
        for p in 0..3 {
            let g0 = if p == 2 { 0 } else { 25 };
            assert_eq!(count(&cluster, p, Some(0)), g0, "{kind}: p{p}, group 0");
            assert_eq!(count(&cluster, p, Some(1)), 25, "{kind}: p{p}, group 1");
        }
    }
}

#[test]
fn multigroup_delivery_order_is_acyclic() {
    for kind in EngineKind::ALL {
        let cluster = run_fig2c(23, kind);
        // The global precedence graph — m → m' if some process delivers
        // m before m' — must be acyclic.
        assert_eq!(cluster.check_history(), Ok(()), "{kind}");
    }
}

#[test]
fn deterministic_merge_interleaving_matches_across_learners() {
    // L1 and L2 subscribe to the same two groups: their *interleaved*
    // sequences (not just per-group projections) must match exactly —
    // for the ring engine via the deterministic merge, for the
    // white-box engine via the global (timestamp, group) order. Both
    // delivering all 50 under the oracle is that.
    for kind in EngineKind::ALL {
        let cluster = run_fig2c(31, kind);
        assert_eq!(cluster.check_history(), Ok(()), "{kind}");
        assert_eq!(count(&cluster, 0, None), 50, "{kind}");
        assert_eq!(count(&cluster, 1, None), 50, "{kind}");
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
/// the cluster at the end of the run.
fn run_mixed(seed: u64, kind: EngineKind, mode: BatchConfig, bursts: &[u8], multi: u8) -> Cluster {
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
        cluster.add_actor(pid, Box::new(build_engine(kind, mode, pid, &config)));
    }
    for (i, &n) in bursts.iter().enumerate() {
        let groups = vec![GroupId::new(i as u16 % 2)];
        add_burst(&mut cluster, i as u64, i as u32 % 3, groups, u64::from(n));
    }
    if multi > 0 {
        let both = vec![GroupId::new(0), GroupId::new(1)];
        add_burst(&mut cluster, 99, 2, both, u64::from(multi));
    }
    cluster.start();
    cluster.run_until(Time::from_secs(2));
    cluster
}

/// Each engine's telemetry at the end of a [`run_mixed`].
fn snapshots(cluster: &mut Cluster) -> Vec<TelemetrySnapshot> {
    (0..3)
        .map(|p| AmcastEngine::telemetry(engine(cluster, p)))
        .collect()
}

/// A multi-group message addressed to both groups interleaves with
/// single-group traffic in one total order: every process delivers the
/// identical sequence, each message exactly once — on both engines
/// (genuinely for wbcast, via the covering group for Multi-Ring Paxos).
#[test]
fn multigroup_and_single_group_share_one_total_order() {
    for kind in EngineKind::ALL {
        for mode in budgets() {
            let cluster = run_mixed(41, kind, mode, &[10, 10], 5);
            assert_eq!(cluster.check_history(), Ok(()), "{kind}/{mode:?}");
            for p in 0..3 {
                assert_eq!(count(&cluster, p, None), 25, "{kind}/{mode:?}: p{p}");
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
            let telemetry = snapshots(&mut run_mixed(41, kind, mode, &[10, 10], 5));
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
        let telemetry = snapshots(&mut run_mixed(
            41,
            kind,
            BatchConfig::enabled(),
            &[10, 10],
            0,
        ));
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
        let node = EngineKind::Wbcast.build(pid, config.clone());
        if p < 4 {
            cluster.add_actor(pid, Box::new(node));
        } else {
            let value_frames = 0;
            cluster.add_actor(pid, Box::new(Outsider { node, value_frames }));
        }
    }
    for (i, groups) in [
        vec![GroupId::new(0)],
        vec![GroupId::new(1)],
        vec![GroupId::new(0), GroupId::new(1)],
    ]
    .into_iter()
    .enumerate()
    {
        // Target a proposer inside the first addressed group.
        let target = u32::from(groups[0].value()) * 2;
        add_burst(&mut cluster, i as u64, target, groups, 10);
    }
    cluster.start();
    cluster.run_until(Time::from_secs(5));
    // The oracle holds the ten multi-group messages to one order across
    // both groups and keeps group 2's processes from delivering
    // anything; the addressed groups' subscribers deliver everything
    // addressed to them: 10 singles + 10 multis each.
    assert_eq!(cluster.check_history(), Ok(()));
    for p in 0..4 {
        assert_eq!(count(&cluster, p, None), 20, "process {p}");
    }
    // Genuineness: group 2's processes saw zero value-bearing frames.
    for p in 4..6u32 {
        let outsider = cluster.actor_as::<Outsider>(ProcessId::new(p)).unwrap();
        assert_eq!(
            outsider.value_frames, 0,
            "process {p} is outside every addressed γ but received value traffic"
        );
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
        cluster.add_engine_actors(&config, kind);
        add_burst(&mut cluster, 0, 0, vec![GroupId::new(0)], 20);
        cluster.start();
        cluster.run_until(Time::from_secs(2));
        assert_eq!(cluster.check_history(), Ok(()), "{kind}");
        for p in 0..3 {
            assert_eq!(count(&cluster, p, None), 20, "{kind}: p{p}");
        }
        if kind == EngineKind::Wbcast {
            let telemetry = AmcastEngine::telemetry(engine(&mut cluster, 0));
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
                    AmcastEngine::telemetry(engine(&mut cluster, p)).counter("sub.probes_sent")
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

/// One `(target, groups, n)` burst of an [`add_wave`].
type Burst3 = (u32, Vec<GroupId>, u64);

/// Fires each burst of `wave` from a session of its own, numbered from
/// `first`.
fn add_wave(cluster: &mut Cluster, first: u64, wave: impl IntoIterator<Item = Burst3>) {
    for (client, (target, groups, n)) in (first..).zip(wave) {
        add_burst(cluster, client, target, groups, n);
    }
}

/// What a surviving engine ended a crash run with.
struct Survivor {
    backlog: usize,
    telemetry: TelemetrySnapshot,
    health: HealthReport,
}

fn survivor(cluster: &mut Cluster, p: u32) -> Survivor {
    let now = cluster.now();
    let node = engine(cluster, p);
    Survivor {
        backlog: node.backlog(),
        telemetry: AmcastEngine::telemetry(node),
        health: node.health(now),
    }
}

/// Crashes p0 — the sequencer of group 0 for the white-box engine, the
/// ring-0 Paxos coordinator for the ring engine — at `crash_us`, with
/// single- and multi-group messages still in flight, then submits a
/// post-election wave. Returns the cluster three seconds in.
fn run_failover(seed: u64, kind: EngineKind, mode: BatchConfig, crash_us: u64) -> Cluster {
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
        cluster.add_actor(pid, Box::new(build_engine(kind, mode, pid, &config)));
    }
    // In flight at crash time: singles on both groups plus multi-group
    // messages, all initiated at the survivors, each proposer on one
    // ring (p1: group 0 + multis through the covering group 0; p2:
    // group 1).
    let (g0, g1) = (GroupId::new(0), GroupId::new(1));
    let wave = [(1, vec![g0], 6), (2, vec![g1], 6), (1, vec![g0, g1], 5)];
    add_wave(&mut cluster, 0, wave);
    cluster.schedule_crash(Time::ZERO.plus(crash_us), ProcessId::new(0));
    cluster.start();
    cluster.run_until(Time::from_secs(1));
    // Post-election wave: the new sequencer must order fresh traffic.
    add_wave(&mut cluster, 10, [(1, vec![g0, g1], 3), (2, vec![g1], 3)]);
    cluster.run_until(Time::from_secs(3));
    cluster
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
    let total = 6 + 6 + 5 + 3 + 3;
    for kind in EngineKind::ALL {
        for mode in budgets() {
            for crash_us in [400u64, 2_000, 12_000] {
                let case = format!("{kind}/{mode:?}/crash@{crash_us}µs");
                let mut cluster = run_failover(47, kind, mode, crash_us);
                assert_eq!(cluster.check_history(), Ok(()), "{case}");
                let delivered_counter = match kind {
                    EngineKind::MultiRing => "delivered",
                    EngineKind::Wbcast => "sub.delivered",
                };
                let mut takeovers = 0;
                for p in 1..3 {
                    assert_eq!(count(&cluster, p, None), total, "{case}: p{p} delivered");
                    let s = survivor(&mut cluster, p);
                    assert_eq!(s.backlog, 0, "{case}: residual backlog at p{p}");
                    // Telemetry agrees with the injected fault and the
                    // outcome.
                    assert_eq!(
                        s.telemetry.counter(delivered_counter),
                        total as u64,
                        "{case}: p{p} delivery counter"
                    );
                    assert!(
                        s.health.is_healthy(),
                        "{case}: p{p} unhealthy after settle: {:?}",
                        s.health.issues
                    );
                    assert_eq!(
                        s.telemetry.counter("orphan.rounds_started"),
                        0,
                        "{case}: no orphan recovery — the initiators survive"
                    );
                    takeovers += s.telemetry.counter("seq.takeovers");
                }
                if kind == EngineKind::Wbcast {
                    assert_eq!(
                        takeovers, 1,
                        "{case}: exactly one survivor adopts the dead sequencer's group"
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
/// the cluster three seconds in.
fn run_initiator_crash(seed: u64, kind: EngineKind, crash_us: u64) -> Cluster {
    let config = failover_config();
    let mut cluster = Cluster::new(
        SimConfig {
            seed,
            election_timeout_us: 50_000,
            ..SimConfig::default()
        },
        Topology::lan(8),
    );
    cluster.add_engine_actors(&config, kind);
    // In flight at crash time: singles on both groups from the
    // survivors (p0 sequences/coordinates group 0, p1 group 1), plus
    // multi-group messages whose *initiator is p2* — the process about
    // to die. p2 coordinates no ring, so its crash triggers no
    // election: the orphaned rounds must be recovered by the addressed
    // groups themselves.
    let (g0, g1) = (GroupId::new(0), GroupId::new(1));
    let wave = [(0, vec![g0], 6), (1, vec![g1], 6), (2, vec![g0, g1], 5)];
    add_wave(&mut cluster, 0, wave);
    cluster.schedule_crash(Time::ZERO.plus(crash_us), ProcessId::new(2));
    cluster.start();
    cluster.run_until(Time::from_secs(1));
    // Post-crash wave: both streams must still be live — nothing may
    // stay wedged behind an orphaned proposal.
    add_wave(&mut cluster, 10, [(0, vec![g0, g1], 3), (1, vec![g1], 3)]);
    cluster.run_until(Time::from_secs(3));
    cluster
}

/// What every survivor of an initiator crash must end with, whatever
/// the crash instant: no residual backlog, no stalled undecided
/// proposal (wbcast only; the ring engine has no such gauge and reads
/// 0), every orphan round a survivor started driven to confirmation,
/// and a clean health probe. Returns the orphan rounds started.
fn settled_after_initiator_crash(cluster: &mut Cluster, case: &str) -> u64 {
    let mut started = 0;
    for p in 0..2 {
        let s = survivor(cluster, p);
        assert_eq!(s.backlog, 0, "{case}: residual backlog at p{p}");
        let undecided = s.telemetry.gauge("seq.undecided");
        assert_eq!(undecided, 0, "{case}: stalled undecided proposal at p{p}");
        assert_eq!(
            s.telemetry.counter("orphan.rounds_completed"),
            s.telemetry.counter("orphan.rounds_started"),
            "{case}: unfinished orphan recovery at p{p}"
        );
        assert!(s.health.is_healthy(), "{case}: p{p}: {:?}", s.health.issues);
        started += s.telemetry.counter("orphan.rounds_started");
    }
    started
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
            let case = format!("{kind}/crash@{crash_us}µs");
            let mut cluster = run_initiator_crash(61, kind, crash_us);
            assert_eq!(cluster.check_history(), Ok(()), "{case}");
            for p in 0..2 {
                let total = 6 + 6 + 5 + 3 + 3;
                assert_eq!(count(&cluster, p, None), total, "{case}: p{p} delivered");
            }
            let started = settled_after_initiator_crash(&mut cluster, &case);
            // The earliest instant (120 µs: the initiator dies before
            // any ProposeAck returns) is guaranteed to orphan all five
            // multi-group rounds; after quiescence (2 ms) there is
            // nothing to recover. The intermediate instants may resolve
            // either way — the Finals may already have left the
            // initiator.
            if kind == EngineKind::Wbcast && crash_us == 120 {
                assert!(
                    started > 0,
                    "{case}: mid-flight initiator crash must trigger orphan recovery"
                );
            } else if kind == EngineKind::Wbcast && crash_us == 2_000 {
                assert_eq!(started, 0, "{case}: nothing was in flight to orphan");
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
        let mut cluster = run_initiator_crash(61, kind, 80);
        // Nineteen of the 23 at each survivor, under the oracle, is not
        // yet the *same* nineteen: that is asserted on its own.
        assert_eq!(cluster.check_history(), Ok(()), "{kind}");
        let delivered = |p| {
            let ids = cluster.delivered(ProcessId::new(p)).map(|(_, id)| id);
            ids.collect::<Vec<_>>()
        };
        assert_eq!(
            delivered(0).len(),
            6 + 6 + 1 + 3 + 3,
            "{kind}: four held, lost"
        );
        assert_eq!(delivered(0), delivered(1), "{kind}: diverged");
        settled_after_initiator_crash(&mut cluster, &kind.to_string());
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
        // Wave 1: singles on both groups plus multi-group messages, all
        // delivered and checkpointed before the crash.
        let wave = [(0, vec![g0], 10), (1, vec![g1], 10), (0, vec![g0, g1], 5)];
        add_wave(&mut cluster, 0, wave);
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
        add_wave(&mut cluster, 10, [(0, vec![g0], 8), (1, vec![g1], 8)]);
        expected += 16;
        cluster.run_until(Time::from_millis(1_500));
        cluster.schedule_restart(Time::from_millis(1_550), ProcessId::new(4));
        cluster.run_until(Time::from_millis(1_700));
        assert!(
            cluster.is_up(ProcessId::new(4)),
            "{kind}: replica restarted"
        );
        // Wave 3 after the restart: new traffic reaches everyone.
        let wave = [(0, vec![g0], 6), (1, vec![g1], 6), (1, vec![g0, g1], 3)];
        add_wave(&mut cluster, 20, wave);
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
    /// *legal total order* on every engine — all processes deliver
    /// every multicast value, and the oracle holds them to one
    /// sequence without duplicates.
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
            let cluster = run_mixed(seed, kind, mode, &bursts, multi);
            let total = bursts.iter().map(|&n| usize::from(n)).sum::<usize>() + usize::from(multi);
            // Totality: every multicast value is delivered at every
            // process; the oracle makes it once each, in one order.
            prop_assert_eq!(cluster.check_history(), Ok(()), "{}/{:?}", kind, mode);
            for p in 0..3 {
                prop_assert_eq!(count(&cluster, p, None), total, "{}/{:?}: p{}", kind, mode, p);
            }
        }
    }
}
