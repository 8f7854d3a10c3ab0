//! Every `TimerKind` is armed. A timer that nothing arms is a feature
//! that was deleted while its handlers stayed; the handlers themselves
//! are the compiler's to check, because every terminal handler
//! (`Node::on_timer`, `RingState::on_timer`, `WbcastNode::on_event`)
//! names every variant.
//!
//! One simulated deployment per engine exercises what arms each timer:
//! coordinators and sequencers (Δ), learners (gap repair), proposers
//! and multi-group initiators (resend), coordinated trimming,
//! checkpointing replicas, a replica crash and restart (recovery
//! retry) and multi-group requests held behind an outstanding one
//! (submission flush). A wrapper actor counts every `SetTimer` the
//! hosted actors emit, and an exhaustive `match` files each under its
//! variant.

use atomic_multicast::amcast::{EngineKind, EngineReplica};
use atomic_multicast::core::config::{ClusterConfig, RingSpec, RingTuning, Roles};
use atomic_multicast::core::event::{Action, TimerKind};
use atomic_multicast::core::replica::CheckpointPolicy;
use atomic_multicast::core::types::{ClientId, GroupId, ProcessId, Time};
use atomic_multicast::sim::actor::{Actor, ActorCtx, ActorEvent, Op, Outbox};
use atomic_multicast::sim::cluster::{Cluster, SimConfig};
use atomic_multicast::sim::net::Topology;
use atomic_multicast::sim::Burst;
use atomic_multicast::storage::NodeStorage;
use bytes::Bytes;
use mrp_bench::EchoApp;
use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;

/// `SetTimer` actions seen, per `TimerKind` variant.
#[derive(Default, Debug)]
struct Armed {
    delta: u64,
    gap_check: u64,
    trim_tick: u64,
    proposal_resend: u64,
    checkpoint_tick: u64,
    recovery_retry: u64,
    submit_flush: u64,
}

impl Armed {
    /// A new variant does not compile here until it has a field, and
    /// the destructuring in the test then demands that field be armed.
    fn count(&mut self, kind: TimerKind) {
        let n = match kind {
            TimerKind::Delta(_) => &mut self.delta,
            TimerKind::GapCheck(_) => &mut self.gap_check,
            TimerKind::TrimTick(_) => &mut self.trim_tick,
            TimerKind::ProposalResend(_) => &mut self.proposal_resend,
            TimerKind::CheckpointTick => &mut self.checkpoint_tick,
            TimerKind::RecoveryRetry => &mut self.recovery_retry,
            TimerKind::SubmitFlush => &mut self.submit_flush,
        };
        *n += 1;
    }
}

/// Hosts `inner` and counts the timers it arms.
struct Counting {
    inner: Box<dyn Actor>,
    armed: Rc<RefCell<Armed>>,
}

/// `inner`, counting into `armed`.
fn counting(inner: impl Actor, armed: &Rc<RefCell<Armed>>) -> Box<dyn Actor> {
    Box::new(Counting {
        inner: Box::new(inner),
        armed: Rc::clone(armed),
    })
}

impl Actor for Counting {
    fn on_event(&mut self, now: Time, ev: ActorEvent, out: &mut Outbox, ctx: &mut ActorCtx<'_>) {
        self.inner.on_event(now, ev, out, ctx);
        for op in out.take() {
            if let Op::Protocol(Action::SetTimer { timer, .. }) = &op {
                self.armed.borrow_mut().count(*timer);
            }
            out.push(op);
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self.inner.as_any()
    }
}

/// Two groups, each ordered by a ring of proposer/acceptors p0–p2
/// (rotated, so each ring has its own coordinator and sequencer) that
/// trims every 200 ms, and three learner replicas p3–p5 subscribing to
/// both: either group covers the other, so the ring engine orders
/// multi-group messages too.
fn config() -> ClusterConfig {
    let tuning = RingTuning {
        lambda: 3_000,
        delta_us: 5_000,
        trim_interval_us: 200_000,
        ..RingTuning::default()
    };
    let mut b = ClusterConfig::builder();
    for ring in 0..2u16 {
        let mut spec = RingSpec::new(GroupId::new(ring)).tuning(tuning);
        for p in 0..3u32 {
            let member = ProcessId::new((p + u32::from(ring)) % 3);
            spec = spec.member(member, Roles::PROPOSER | Roles::ACCEPTOR);
        }
        for p in 3..6u32 {
            spec = spec.member(ProcessId::new(p), Roles::LEARNER);
        }
        b = b.ring(spec);
    }
    for p in 3..6u32 {
        for g in 0..2u16 {
            b = b.subscribe(ProcessId::new(p), GroupId::new(g));
        }
    }
    b.build().expect("two-group config")
}

/// Adds client session `client` (at process `100 + client`), firing
/// `n` requests addressed to `groups` at `target` at once.
fn add_burst(cluster: &mut Cluster, client: u64, target: u32, groups: &[u16], n: u64) {
    let id = ClientId::new(client);
    let groups = groups.iter().copied().map(GroupId::new).collect();
    let payload = Bytes::from(vec![0u8; 16]);
    let burst = Burst::new(id, ProcessId::new(target), groups, n, payload);
    cluster.add_client(ProcessId::new(100 + client as u32), id, Box::new(burst));
}

/// Runs one engine through the deployment, counting into `armed`.
fn run(kind: EngineKind, armed: &Rc<RefCell<Armed>>) {
    let config = config();
    let mut cluster = Cluster::new(
        SimConfig {
            seed: 7,
            election_timeout_us: 50_000,
        },
        Topology::lan(8),
    );
    cluster.set_protocol(config.clone());
    for p in (0..3).map(ProcessId::new) {
        cluster.add_actor(p, counting(kind.build(p, config.clone()), armed));
    }
    let policy = CheckpointPolicy {
        interval_us: 150_000,
        sync: true,
    };
    for p in (3..6).map(ProcessId::new) {
        let replica = EngineReplica::new(kind, p, config.clone(), EchoApp::new(), policy);
        cluster.add_actor(p, counting(replica, armed));
        let config = config.clone();
        let armed = Rc::clone(armed);
        cluster.set_factory(
            p,
            Box::new(move |storage: &NodeStorage| {
                let replica = EngineReplica::recovering(
                    kind,
                    p,
                    config.clone(),
                    EchoApp::new(),
                    policy,
                    storage.acceptor_recovery(),
                    storage.checkpoint_cloned(),
                );
                counting(replica, &armed)
            }),
        );
    }
    add_burst(&mut cluster, 0, 0, &[0], 20);
    add_burst(&mut cluster, 1, 1, &[1], 20);
    // The first is submitted at once, the rest wait for it.
    add_burst(&mut cluster, 2, 0, &[0, 1], 5);
    cluster.start();
    cluster.run_until(Time::from_millis(700));
    cluster.schedule_crash(Time::from_millis(750), ProcessId::new(4));
    cluster.schedule_restart(Time::from_millis(1_000), ProcessId::new(4));
    cluster.run_until(Time::from_millis(1_500));
    assert!(cluster.is_up(ProcessId::new(4)), "{kind}: p4 restarted");
}

#[test]
fn every_timer_kind_is_armed() {
    let armed = Rc::new(RefCell::new(Armed::default()));
    for kind in EngineKind::ALL {
        run(kind, &armed);
    }
    let armed = armed.borrow();
    let Armed {
        delta,
        gap_check,
        trim_tick,
        proposal_resend,
        checkpoint_tick,
        recovery_retry,
        submit_flush,
    } = *armed;
    for (kind, n) in [
        ("Delta", delta),
        ("GapCheck", gap_check),
        ("TrimTick", trim_tick),
        ("ProposalResend", proposal_resend),
        ("CheckpointTick", checkpoint_tick),
        ("RecoveryRetry", recovery_retry),
        ("SubmitFlush", submit_flush),
    ] {
        assert!(n > 0, "TimerKind::{kind} was never armed: {armed:?}");
    }
}
