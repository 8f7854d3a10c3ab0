//! End-to-end recovery tests (Section 5): checkpointing, coordinated
//! trimming, and a replica recovering from a remote checkpoint plus
//! retransmissions after the acceptors (or sequencers) trimmed past its
//! own checkpoint — for every engine.

use atomic_multicast::amcast::replica::RECOVERY_RETRY_US;
use atomic_multicast::amcast::{EngineKind, EngineReplica};
use atomic_multicast::core::app::Application;
use atomic_multicast::core::config::{ClusterConfig, RingSpec, RingTuning, Roles};
use atomic_multicast::core::event::{Action, Event, Message};
use atomic_multicast::core::host::{Host, Timers};
use atomic_multicast::core::replica::CheckpointPolicy;
use atomic_multicast::core::types::{ClientId, GroupId, ProcessId, Time};
use atomic_multicast::sim::actor::{Actor, ActorCtx, ActorEvent, Op, Outbox};
use atomic_multicast::sim::cluster::{Cluster, SimConfig};
use atomic_multicast::sim::cpu::CpuModel;
use atomic_multicast::sim::disk::DiskModel;
use atomic_multicast::sim::net::Topology;
use atomic_multicast::storage::NodeStorage;
use atomic_multicast::store::command::StoreCommand;
use atomic_multicast::store::StoreApp;
use bytes::Bytes;
use mrp_bench::OpenLoopClient;
use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

const CLIENT_PROC: ProcessId = ProcessId::new(900);

/// Three proposer/acceptors (p0..p2) ordering for three learner
/// replicas (p3..p5) under 500 writes/s. Keys wrap at 500 but every
/// write carries its request number, so the store's content names the
/// last write each replica executed.
fn build_cluster(kind: EngineKind, ckpt_interval_s: u64, trim_interval_s: u64) -> Cluster {
    let config = build_config(trim_interval_s);
    let mut cluster = Cluster::new(
        SimConfig {
            seed: 77,
            election_timeout_us: 300_000,
        },
        Topology::lan(8),
    );
    cluster.set_protocol(config.clone());
    for i in 0..3 {
        let p = ProcessId::new(i);
        cluster.add_actor(p, Box::new(Host::new(kind.build(p, config.clone()))));
        cluster.add_disk(p, DiskModel::ssd());
    }
    for i in 3..6 {
        let p = ProcessId::new(i);
        let policy = policy(ckpt_interval_s);
        cluster.add_recoverable_replica_actor(kind, p, config.clone(), policy, || StoreApp::new(0));
        cluster.add_disk(p, DiskModel::ssd());
    }
    let client_id = ClientId::new(1);
    let client = OpenLoopClient::new(
        client_id,
        ProcessId::new(0),
        GroupId::new(0),
        2_000, // 500 writes/s
        "load",
        |req| {
            StoreCommand::Insert {
                key: Bytes::from(format!("key{:05}", req % 500)),
                value: Bytes::from(format!("{req:064}")),
            }
            .encode()
        },
    );
    cluster.add_actor(CLIENT_PROC, Box::new(client));
    cluster.register_client(client_id, CLIENT_PROC);
    cluster
}

/// The ring of [`build_cluster`], trimming every `trim_interval_s`.
fn build_config(trim_interval_s: u64) -> ClusterConfig {
    let tuning = RingTuning {
        lambda: 2_000,
        trim_interval_us: trim_interval_s * 1_000_000,
        ..RingTuning::default()
    };
    let mut spec = RingSpec::new(GroupId::new(0)).tuning(tuning);
    for i in 0..3 {
        spec = spec.member(ProcessId::new(i), Roles::PROPOSER | Roles::ACCEPTOR);
    }
    for i in 3..6 {
        spec = spec.member(ProcessId::new(i), Roles::LEARNER);
    }
    let mut builder = ClusterConfig::builder().ring(spec);
    for i in 3..6 {
        builder = builder.subscribe(ProcessId::new(i), GroupId::new(0));
    }
    builder.build().expect("config")
}

/// The replicas' synchronous checkpoint every `ckpt_interval_s`.
fn policy(ckpt_interval_s: u64) -> CheckpointPolicy {
    CheckpointPolicy {
        interval_us: ckpt_interval_s * 1_000_000,
        sync: true,
    }
}

fn replica(cluster: &mut Cluster, i: u32) -> &EngineReplica<StoreApp> {
    cluster
        .actor_as::<EngineReplica<StoreApp>>(ProcessId::new(i))
        .expect("replica")
}

#[test]
fn checkpoints_enable_acceptor_trimming() {
    let mut cluster = build_cluster(EngineKind::MultiRing, 2, 2);
    cluster.start();
    cluster.run_until(Time::from_secs(10));
    // Replicas checkpointed and the coordinator trimmed acceptor logs.
    let checkpoints: u64 = (3..6)
        .map(|i| replica(&mut cluster, i).checkpoints_taken())
        .sum();
    assert!(checkpoints >= 3, "replicas checkpoint periodically");
    assert!(
        cluster.metrics().counter("trim_storage") > 0,
        "acceptors trimmed their logs after quorum checkpoints"
    );
    // The stable storage of an acceptor is bounded: it retains far fewer
    // payload bytes than the total written.
    let storage = cluster.storage(ProcessId::new(0)).expect("storage");
    let total_written: u64 = cluster.metrics().counter("load/ops") * 64;
    assert!(
        (storage.payload_bytes() as u64) < total_written / 2,
        "trim keeps the acceptor log bounded ({} vs {} written)",
        storage.payload_bytes(),
        total_written
    );
}

#[test]
fn replica_recovers_from_remote_checkpoint_after_trim() {
    for kind in EngineKind::ALL {
        let mut cluster = build_cluster(kind, 2, 2);
        cluster.start();
        // Kill replica p4 early; let the system run long enough that the
        // acceptors (sequencer) trim past everything p4 saw; restart it
        // under load; then stop the load and let in-flight work drain so
        // the three stores can be compared byte for byte.
        cluster.schedule_crash(Time::from_secs(3), ProcessId::new(4));
        cluster.schedule_restart(Time::from_secs(12), ProcessId::new(4));
        cluster.run_until(Time::from_secs(12));
        let executed_by_peer_at_restart = replica(&mut cluster, 3).executed();
        cluster.schedule_crash(Time::from_secs(17), CLIENT_PROC);
        cluster.run_until(Time::from_secs(18));

        assert!(cluster.is_up(ProcessId::new(4)));
        for i in 3..6 {
            assert!(
                !replica(&mut cluster, i).is_recovering(),
                "{kind}: p{i} finished the recovery protocol"
            );
        }
        // The restarted replica executes again: everything its peers
        // executed since the restart, plus at most the short tail
        // between the checkpoint it installed and the restart — not the
        // history that checkpoint covers (state transfer, not replay).
        let executed: Vec<u64> = (3..6)
            .map(|i| replica(&mut cluster, i).executed())
            .collect();
        let since_restart = executed[0] - executed_by_peer_at_restart;
        assert!(since_restart > 2_000, "{kind}: load ran after the restart");
        assert!(
            executed[1] >= since_restart,
            "{kind}: restarted replica executed {} of the {since_restart} commands since",
            executed[1]
        );
        assert!(
            executed[1] < executed[0] / 2,
            "{kind}: restarted replica skipped checkpointed history ({} vs {})",
            executed[1],
            executed[0]
        );
        // Every key was overwritten with a fresh value after the restart,
        // so equal snapshots mean p4 applied those writes too.
        let snapshots: Vec<Bytes> = (3..6)
            .map(|i| replica(&mut cluster, i).app().snapshot())
            .collect();
        assert_eq!(snapshots[0], snapshots[2], "{kind}: survivors diverge");
        assert_eq!(
            snapshots[0], snapshots[1],
            "{kind}: recovered replica diverges from its peers"
        );
        // It caught up from a peer's checkpoint, not by re-anchoring its
        // stream past a hole.
        assert_eq!(
            replica(&mut cluster, 4)
                .telemetry()
                .counter("sub.resync_truncations"),
            0,
            "{kind}: stream truncated during recovery"
        );
    }
}

/// How late a [`SlowTransfer`] hands a checkpoint's snapshot over: past
/// the deadline of the query that found the checkpoint.
const TRANSFER_US: u64 = RECOVERY_RETRY_US + 100_000;

/// The wakeup tokens of a [`SlowTransfer`]: release a held snapshot,
/// occupy the CPU across the first query's deadline, and hand over the
/// answers to that query.
const RELEASE: u64 = u64::MAX;
const BUSY: u64 = u64::MAX - 1;
const ANSWER: u64 = u64::MAX - 2;

/// What a [`SlowTransfer`] does with the answers to the first query.
enum Answers {
    Pass,
    /// Hold them once the query is sent.
    Await,
    Hold(Vec<ActorEvent>),
}

/// Hosts a recovering replica behind a slow snapshot transfer: every
/// `CheckpointData` reaches it [`TRANSFER_US`] late. Logs when the
/// replica sends each `CheckpointFetch`.
///
/// With a CPU model it also holds the answers to the first query until
/// 500 µs before the query's deadline and occupies the CPU from 1 ms
/// before it to 1 ms after: both the answers and the query's firing
/// wait behind the busy CPU, and the answers, queued first, move
/// recovery to fetching before the firing is handled.
struct SlowTransfer {
    inner: Box<dyn Actor>,
    held: VecDeque<ActorEvent>,
    answers: Answers,
    fetches: Rc<RefCell<Vec<Time>>>,
}

impl Actor for SlowTransfer {
    fn on_event(&mut self, now: Time, ev: ActorEvent, out: &mut Outbox, ctx: &mut ActorCtx<'_>) {
        let events = match ev {
            ev @ ActorEvent::Protocol(Event::Message {
                msg: Message::CheckpointData { .. },
                ..
            }) => {
                self.held.push_back(ev);
                out.wakeup(TRANSFER_US, RELEASE);
                return;
            }
            ev @ ActorEvent::Protocol(Event::Message {
                msg: Message::CheckpointInfo { .. },
                ..
            }) if matches!(self.answers, Answers::Hold(_)) => {
                if let Answers::Hold(held) = &mut self.answers {
                    held.push(ev);
                }
                return;
            }
            ActorEvent::Wakeup(RELEASE) => vec![self.held.pop_front().expect("a held snapshot")],
            ActorEvent::Wakeup(BUSY) => {
                out.push(Op::Busy { us: 2_000 });
                return;
            }
            ActorEvent::Wakeup(ANSWER) => {
                let Answers::Hold(held) = std::mem::replace(&mut self.answers, Answers::Pass)
                else {
                    unreachable!("answers are held");
                };
                held
            }
            ev => vec![ev],
        };
        for ev in events {
            self.inner.on_event(now, ev, out, ctx);
        }
        for op in out.take() {
            if let Op::Protocol(Action::Send { msg, .. }) = &op {
                match msg {
                    Message::CheckpointFetch { .. } => self.fetches.borrow_mut().push(now),
                    Message::CheckpointQuery { .. } if matches!(self.answers, Answers::Await) => {
                        self.answers = Answers::Hold(Vec::new());
                        out.wakeup(RECOVERY_RETRY_US - 1_000, BUSY);
                        out.wakeup(RECOVERY_RETRY_US - 500, ANSWER);
                    }
                    _ => {}
                }
            }
            out.push(op);
        }
    }

    fn timers(&self) -> Option<&Timers> {
        self.inner.timers()
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self.inner.as_any()
    }
}

/// Restarts p4 behind a [`SlowTransfer`] (on `cpu`, if given) and
/// returns when it sent each `CheckpointFetch`.
fn slow_snapshot_fetches(kind: EngineKind, cpu: Option<CpuModel>) -> Vec<Time> {
    let mut cluster = build_cluster(kind, 2, 2);
    let fetches = Rc::new(RefCell::new(Vec::new()));
    let p4 = ProcessId::new(4);
    let (config, policy) = (build_config(2), policy(2));
    let log = Rc::clone(&fetches);
    let held_answers = cpu.is_some();
    cluster.set_factory(
        p4,
        Box::new(move |storage: &NodeStorage| {
            let replica = EngineReplica::recovering(
                kind,
                p4,
                config.clone(),
                StoreApp::new(0),
                policy,
                storage.acceptor_recovery(),
                storage.checkpoint_cloned(),
            );
            Box::new(SlowTransfer {
                inner: Box::new(Host::new(replica)),
                held: VecDeque::new(),
                answers: if held_answers {
                    Answers::Await
                } else {
                    Answers::Pass
                },
                fetches: Rc::clone(&log),
            })
        }),
    );
    if let Some(cpu) = cpu {
        cluster.set_cpu(p4, cpu);
    }
    cluster.start();
    cluster.schedule_crash(Time::from_secs(3), p4);
    cluster.schedule_restart(Time::from_secs(12), p4);
    cluster.run_until(Time::from_secs(15));
    assert!(
        !replica(&mut cluster, 4).is_recovering(),
        "{kind}: p4 installed the snapshot"
    );
    let fetches = fetches.borrow().clone();
    fetches
}

/// The `CheckpointFetch`es sent within one retry window of the first.
fn first_window(fetches: &[Time]) -> usize {
    let first = *fetches.first().expect("p4 fetched a remote checkpoint");
    fetches
        .iter()
        .filter(|t| t.since(first) < RECOVERY_RETRY_US)
        .count()
}

/// §5.2 recovery re-arms `RecoveryRetry` when it moves from querying
/// its peers to fetching a checkpoint. The fetch's deadline replaces
/// the query's, so a snapshot slower than one retry window is fetched
/// once per window: the query's deadline does not send a second
/// `CheckpointFetch` early.
#[test]
fn a_slow_snapshot_is_fetched_once_per_retry_window() {
    for kind in EngineKind::ALL {
        let fetches = slow_snapshot_fetches(kind, None);
        assert_eq!(first_window(&fetches), 1, "{kind}: fetches at {fetches:?}");
    }
}

/// The same behind a busy CPU: the query's firing reaches the CPU only
/// after the answers that re-arm the timer, and is then superseded.
#[test]
fn a_slow_snapshot_is_fetched_once_per_retry_window_behind_a_busy_cpu() {
    for kind in EngineKind::ALL {
        let fetches = slow_snapshot_fetches(kind, Some(CpuModel::new(10, 0)));
        assert_eq!(first_window(&fetches), 1, "{kind}: fetches at {fetches:?}");
    }
}
