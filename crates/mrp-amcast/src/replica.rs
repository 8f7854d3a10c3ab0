//! State-machine replication over any [`AmcastEngine`]: couples the
//! engine with an [`Application`], executing deliveries, routing replies
//! to client sessions, taking periodic checkpoints through the engine's
//! watermark surface, trimming engine state once a checkpoint is
//! durable, serving its checkpoints to partition peers, and after a
//! crash recovering from the freshest checkpoint a quorum of those peers
//! holds (Section 5 of the paper). This is the only replica in the
//! workspace; it never looks at which engine it hosts.
//!
//! ## Checkpoint lifecycle
//!
//! 1. On every `CheckpointTick` the replica reads the engine's
//!    [`delivery watermark`](AmcastEngine::watermark), snapshots the
//!    application, packs the engine's own
//!    [`checkpoint_state`](AmcastEngine::checkpoint_state) in front of
//!    the snapshot and persists all of it as one
//!    [`PersistRecord::Checkpoint`].
//! 2. When the write completes durably ([`Event::PersistDone`]) the
//!    checkpoint becomes *stable*: `TrimQuery` (the coordinated trim of
//!    the ring engine's acceptor logs, Predicate 2) and
//!    `CheckpointQuery`/`CheckpointFetch` (recovering peers) are answered
//!    from it, and the engine gets to [`trim`](AmcastEngine::trim)
//!    protocol state below the watermark (the white-box engine prunes
//!    dedup records and reports the marks to its sequencers).
//!
//! ## Recovery
//!
//! After a crash the runtime rebuilds the replica with
//! [`EngineReplica::recovering`], handing it the engine's per-ring
//! stable state and the latest *local* checkpoint, which is installed at
//! once (application [`restore`](Application::restore), engine
//! [`install_checkpoint`](AmcastEngine::install_checkpoint)). The first
//! [`Event::Start`] then runs the `Q_R` protocol of Section 5.2 before
//! the engine rejoins its streams:
//!
//! ```text
//!            Start                 Q_R answered, a peer is ahead
//! recovering ─────► Querying ───────────────────────────────────► Fetching
//!                      │  ▲  CheckpointData{snapshot: None}          │
//!                      │  └──────────────────────────────────────────┤
//!                      │ Q_R answered, local is fresh enough          │ CheckpointData
//!                      ▼ (or the partition has no other member)       ▼ install the blob
//!                   resume() ◄────────────────────────────────────────┘
//! ```
//!
//! * **Querying** — `CheckpointQuery` to every partition peer (the
//!   processes with the same subscription set); each answers with the
//!   watermark of its stable checkpoint. Once a majority of the
//!   partition (this replica included) has answered, the
//!   [`RecoveryManager`] picks the most advanced one (Predicate 3) unless
//!   the local checkpoint is within 1000 watermark units of it.
//! * **Fetching** — `CheckpointFetch` to the owner; the reply carries the
//!   whole packed blob (engine state + application snapshot), installed
//!   exactly like a local one and adopted as this replica's stable
//!   checkpoint. A peer that has moved on answers `snapshot: None` and
//!   the query round restarts.
//! * A `RecoveryRetry` timer re-sends the outstanding step every
//!   500 ms (peers may be down, messages lost).
//! * Only then does the engine's [`resume`](AmcastEngine::resume) run,
//!   re-fetching what lies between the installed watermark and the live
//!   streams — which `Q_T ∩ Q_R ≠ ∅` guarantees the acceptors (or the
//!   sequencers' histories) still hold.
//!
//! The engine itself starts immediately (a restarted acceptor is needed
//! for its rings' quorums); it may deliver on its own while the query is
//! in flight, so a fetched checkpoint is installed only if it is still
//! ahead of where the engine stands. No checkpoint is taken until
//! recovery completes.

use crate::engine::{AmcastEngine, AnyEngine, EngineKind, Watermark};
use crate::telemetry::{HealthReport, TelemetrySnapshot};
use bytes::{BufMut, Bytes, BytesMut};
use multiring_paxos::app::{Application, Delivery, Reply};
use multiring_paxos::codec::{get_exact, get_u64};
use multiring_paxos::config::ClusterConfig;
use multiring_paxos::event::{
    Action, Event, Message, PersistRecord, PersistToken, StateMachine, TimerKind,
};
use multiring_paxos::paxos::AcceptorRecovery;
use multiring_paxos::recovery::{RecoveryManager, RecoveryStep, Resolution};
use multiring_paxos::replica::CheckpointPolicy;
use multiring_paxos::types::{GroupId, InstanceId, ProcessId, Time};
use std::collections::BTreeMap;
use std::fmt;

/// Packs a checkpoint blob: the engine's private recovery state in
/// front of the application snapshot, so both travel in one
/// [`PersistRecord::Checkpoint`].
fn pack_checkpoint(engine_state: &Bytes, app_snapshot: &Bytes) -> Bytes {
    let mut buf = BytesMut::with_capacity(8 + engine_state.len() + app_snapshot.len());
    buf.put_u64_le(engine_state.len() as u64);
    buf.put_slice(engine_state);
    buf.put_slice(app_snapshot);
    buf.freeze()
}

/// Splits a blob produced by [`pack_checkpoint`] back into
/// `(engine_state, app_snapshot)`; `None` on a malformed blob.
fn unpack_checkpoint(blob: &Bytes) -> Option<(Bytes, Bytes)> {
    let mut buf = blob.clone();
    let engine_len = get_u64(&mut buf).ok()?;
    let engine_state = get_exact(&mut buf, engine_len).ok()?;
    Some((engine_state, buf))
}

/// How long a recovering replica waits for checkpoint replies before
/// re-sending the outstanding query or fetch.
pub const RECOVERY_RETRY_US: u64 = 500_000;

/// The recovery outcomes the engines count — registry counter name and
/// the line logged when it rises: a sequencer takeover, an orphan
/// recovery, a truncated resync or a checkpoint install is an
/// operational event worth a line, not a silent counter bump.
const RECOVERY_TRANSITIONS: [(&str, &str); 6] = [
    (
        "sub.resync_truncations",
        "resync truncation: stream re-anchored past a gap",
    ),
    ("orphan.rounds_started", "orphan recovery started"),
    ("orphan.rounds_completed", "orphan recovery completed"),
    ("seq.takeovers", "sequencer takeover"),
    ("backfill_rounds", "backfill round"),
    ("checkpoint_installs", "checkpoint install"),
];

/// Turns a recovery step into its wire messages plus the retry timer.
fn send_recovery_step(step: RecoveryStep, out: &mut Vec<Action>) {
    match step {
        RecoveryStep::Query { seq, peers } => {
            out.extend(peers.into_iter().map(|to| Action::Send {
                to,
                msg: Message::CheckpointQuery { seq },
            }));
        }
        RecoveryStep::Fetch { seq, from, id } => out.push(Action::Send {
            to: from,
            msg: Message::CheckpointFetch { seq, id },
        }),
    }
    out.push(Action::SetTimer {
        after_us: RECOVERY_RETRY_US,
        timer: TimerKind::RecoveryRetry,
    });
}

/// A replicated service endpoint over a configurable ordering engine,
/// with engine-generic checkpointing and crash recovery.
pub struct EngineReplica<A> {
    engine: AnyEngine,
    app: A,
    policy: CheckpointPolicy,
    /// Last durable checkpoint: watermark + packed blob, served to
    /// recovering peers and used to answer trim queries.
    stable: Option<(Watermark, Bytes)>,
    /// Checkpoints written but not yet durable, keyed by persist token.
    pending_ckpt: BTreeMap<PersistToken, (Watermark, Bytes)>,
    ckpt_token_seed: u64,
    /// The `Q_R` protocol of a restarted replica, from
    /// [`EngineReplica::recovering`] until a checkpoint is chosen and
    /// the engine resumed.
    recovery: Option<RecoveryManager>,
    /// Statistics: commands executed since start.
    executed: u64,
    /// Statistics: checkpoints completed since start.
    checkpoints_taken: u64,
    /// The engine's [`RECOVERY_TRANSITIONS`] counters as of the last
    /// event, diffed after every event so recovery actions are logged
    /// the moment they happen instead of sitting in a poll-only counter.
    last_recovery: [u64; RECOVERY_TRANSITIONS.len()],
    /// Trace events the engine had recorded as of that diff.
    last_traced: u64,
}

impl<A: fmt::Debug> fmt::Debug for EngineReplica<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EngineReplica")
            .field("engine", &self.engine.engine_name())
            .field("app", &self.app)
            .field("stable", &self.stable.as_ref().map(|(w, _)| w))
            .field("recovering", &self.recovery.is_some())
            .finish_non_exhaustive()
    }
}

impl<A: Application> EngineReplica<A> {
    /// A fresh replica (first boot) running `app` over an engine of
    /// `kind`, checkpointing per `policy`.
    pub fn new(
        kind: EngineKind,
        me: ProcessId,
        config: ClusterConfig,
        app: A,
        policy: CheckpointPolicy,
    ) -> Self {
        Self::over(kind.build(me, config), app, policy)
    }

    fn over(engine: AnyEngine, app: A, policy: CheckpointPolicy) -> Self {
        Self {
            engine,
            app,
            policy,
            stable: None,
            pending_ckpt: BTreeMap::new(),
            // Disjoint from the tokens the hosted engine mints itself.
            ckpt_token_seed: u64::MAX / 2,
            recovery: None,
            executed: 0,
            checkpoints_taken: 0,
            // Zero even for a recovering replica, whose engine bumps a
            // counter while the local checkpoint is installed: the first
            // event's diff then reports the install, keeping recovery
            // loud from the very first action.
            last_recovery: [0; RECOVERY_TRANSITIONS.len()],
            last_traced: 0,
        }
    }

    /// A replica restarting after a crash: `acceptor_logs` is the
    /// engine's per-ring stable state (ring engine; empty for engines
    /// without one) and `checkpoint` the latest durable local checkpoint
    /// — the watermark plus the packed blob previously persisted via
    /// [`PersistRecord::Checkpoint`] — both loaded by the runtime from
    /// stable storage. The local checkpoint is installed immediately;
    /// the peer-checkpoint query and the engine's catch-up
    /// ([`AmcastEngine::resume`]) run from [`Event::Start`] (see the
    /// module docs).
    pub fn recovering(
        kind: EngineKind,
        me: ProcessId,
        config: ClusterConfig,
        app: A,
        policy: CheckpointPolicy,
        acceptor_logs: BTreeMap<GroupId, AcceptorRecovery>,
        checkpoint: Option<(Watermark, Bytes)>,
    ) -> Self {
        let peers = config
            .partition_of(me)
            .into_iter()
            .filter(|&p| p != me)
            .collect();
        let engine = kind.build_recovering(me, config, acceptor_logs);
        let mut replica = Self::over(engine, app, policy);
        if let Some((watermark, blob)) = checkpoint {
            replica.install(watermark, blob);
        }
        replica.recovery = Some(RecoveryManager::new(
            peers,
            replica.stable_watermark().cloned(),
        ));
        replica
    }

    /// Installs a durable checkpoint — this replica's own or a peer's —
    /// into the application and the engine, and adopts it as the stable
    /// checkpoint. A malformed blob is ignored.
    fn install(&mut self, watermark: Watermark, blob: Bytes) {
        let Some((engine_state, app_snapshot)) = unpack_checkpoint(&blob) else {
            return;
        };
        self.app.restore(&app_snapshot);
        self.engine.install_checkpoint(&watermark, &engine_state);
        self.stable = Some((watermark, blob));
    }

    /// Acts on the recovery manager's verdict: sends the next query or
    /// fetch, or — once a checkpoint is chosen — installs it and lets
    /// the engine rejoin its streams.
    fn advance_recovery(
        &mut self,
        now: Time,
        step: Result<RecoveryStep, Resolution>,
        out: &mut Vec<Action>,
    ) {
        let resolution = match step {
            Ok(step) => return send_recovery_step(step, out),
            Err(resolution) => resolution,
        };
        if let Resolution::Install { id, snapshot } = resolution {
            // The engine kept running while the query was in flight: if
            // it caught up past the fetched checkpoint by itself,
            // installing it would roll the application back under the
            // engine.
            if id.dominates(&self.engine.watermark()) {
                self.install(id, snapshot);
            }
        }
        self.recovery = None;
        let actions = self.engine.resume(now);
        self.post_process(actions, out);
    }

    /// The ordering engine.
    pub fn engine(&self) -> &AnyEngine {
        &self.engine
    }

    /// The application.
    pub fn app(&self) -> &A {
        &self.app
    }

    /// Commands executed since start.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Checkpoints completed since start.
    pub fn checkpoints_taken(&self) -> u64 {
        self.checkpoints_taken
    }

    /// Whether the replica is still choosing the checkpoint to recover
    /// from (see the module docs).
    pub fn is_recovering(&self) -> bool {
        self.recovery.is_some()
    }

    /// The watermark of the last durable checkpoint, if any.
    pub fn stable_watermark(&self) -> Option<&Watermark> {
        self.stable.as_ref().map(|(w, _)| w)
    }

    /// The hosted engine's [`telemetry
    /// snapshot`](AmcastEngine::telemetry), with the replica's own
    /// lifecycle counters (`replica.executed`,
    /// `replica.checkpoints_taken`) folded in.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        let mut snap = self.engine.telemetry();
        snap.counters
            .insert("replica.executed".into(), self.executed);
        snap.counters
            .insert("replica.checkpoints_taken".into(), self.checkpoints_taken);
        snap
    }

    /// The hosted engine's [`health probe`](AmcastEngine::health)
    /// against `now`.
    pub fn health(&self, now: Time) -> HealthReport {
        self.engine.health(now)
    }

    /// Diffs the engine's live [`RECOVERY_TRANSITIONS`] counters
    /// against the last event's and logs every increase.
    fn report_recovery_transitions(&mut self) {
        let tel = self.engine.live_telemetry();
        // Every recovery transition also leaves a trace event, so an
        // unchanged trace means unchanged counters: the common case
        // costs one comparison, not six lookups.
        let traced = tel.trace.len() as u64 + tel.trace.dropped();
        if traced == self.last_traced {
            return;
        }
        self.last_traced = traced;
        for (last, (name, what)) in self.last_recovery.iter_mut().zip(RECOVERY_TRANSITIONS) {
            let after = tel.registry.counter(name);
            let before = std::mem::replace(last, after);
            if after > before {
                eprintln!(
                    "[{} {}] {what} (+{}, total {after})",
                    self.engine.engine_name(),
                    self.engine.process_id(),
                    after - before
                );
            }
        }
    }

    fn take_checkpoint(&mut self, out: &mut Vec<Action>) {
        let watermark = self.engine.watermark();
        if self
            .stable
            .as_ref()
            .is_some_and(|(stable_w, _)| *stable_w == watermark)
        {
            return; // nothing new to checkpoint
        }
        if self.pending_ckpt.values().any(|(w, _)| *w == watermark) {
            // The same watermark is already on its way to disk (a slow
            // sync write can outlast the checkpoint interval): queueing
            // another full-snapshot write buys nothing.
            return;
        }
        let blob = pack_checkpoint(&self.engine.checkpoint_state(), &self.app.snapshot());
        self.ckpt_token_seed += 1;
        let token = PersistToken(self.ckpt_token_seed);
        self.pending_ckpt
            .insert(token, (watermark.clone(), blob.clone()));
        out.push(Action::Persist {
            record: PersistRecord::Checkpoint {
                id: watermark,
                snapshot: blob,
            },
            sync: self.policy.sync,
            token,
        });
    }

    /// Executes deliveries against the application, turning them into
    /// client responses; passes every other action through.
    fn post_process(&mut self, actions: Vec<Action>, out: &mut Vec<Action>) {
        for action in actions {
            match action {
                Action::Deliver {
                    group,
                    instance,
                    value,
                } => {
                    self.executed += 1;
                    let delivery = Delivery {
                        group,
                        instance,
                        value,
                    };
                    for Reply {
                        client,
                        request,
                        payload,
                    } in self.app.execute(&delivery)
                    {
                        out.push(Action::Respond {
                            client,
                            request,
                            payload,
                        });
                    }
                }
                other => out.push(other),
            }
        }
    }
}

impl<A: Application> StateMachine for EngineReplica<A> {
    fn on_event(&mut self, now: Time, event: Event) -> Vec<Action> {
        let mut out = Vec::new();
        match event {
            Event::Start => {
                if let Some(recovery) = self.recovery.as_mut() {
                    let step = recovery.start();
                    self.advance_recovery(now, step, &mut out);
                }
                let actions = self.engine.on_event(now, Event::Start);
                self.post_process(actions, &mut out);
                if self.policy.interval_us > 0 {
                    out.push(Action::SetTimer {
                        after_us: self.policy.interval_us,
                        timer: TimerKind::CheckpointTick,
                    });
                }
            }
            Event::Timer(TimerKind::CheckpointTick) => {
                if self.recovery.is_none() {
                    self.take_checkpoint(&mut out);
                }
                if self.policy.interval_us > 0 {
                    out.push(Action::SetTimer {
                        after_us: self.policy.interval_us,
                        timer: TimerKind::CheckpointTick,
                    });
                }
            }
            Event::Timer(TimerKind::RecoveryRetry) => {
                if let Some(step) = self.recovery.as_mut().and_then(RecoveryManager::on_retry) {
                    send_recovery_step(step, &mut out);
                }
            }
            Event::PersistDone(token) if self.pending_ckpt.contains_key(&token) => {
                let (watermark, blob) = self
                    .pending_ckpt
                    .remove(&token)
                    .expect("checked contains_key");
                self.checkpoints_taken += 1;
                self.stable = Some((watermark.clone(), blob));
                let actions = self.engine.trim(now, &watermark);
                self.post_process(actions, &mut out);
            }
            Event::Message { from, msg } => match msg {
                Message::TrimQuery { group, seq } => {
                    out.push(Action::Send {
                        to: from,
                        msg: Message::TrimReply {
                            group,
                            seq,
                            // No durable checkpoint yet: instance 0,
                            // which keeps the acceptor logs untrimmed.
                            safe: self
                                .stable_watermark()
                                .map_or(InstanceId::ZERO, |w| w.mark_of(group)),
                        },
                    });
                }
                Message::CheckpointQuery { seq } => {
                    out.push(Action::Send {
                        to: from,
                        msg: Message::CheckpointInfo {
                            seq,
                            checkpoint: self.stable.as_ref().map(|(w, _)| w.clone()),
                        },
                    });
                }
                Message::CheckpointFetch { seq, id } => {
                    let snapshot = self
                        .stable
                        .as_ref()
                        .filter(|(stable_w, _)| *stable_w == id)
                        .map(|(_, blob)| blob.clone());
                    out.push(Action::Send {
                        to: from,
                        msg: Message::CheckpointData { seq, id, snapshot },
                    });
                }
                Message::CheckpointInfo { seq, checkpoint } => {
                    let step = self
                        .recovery
                        .as_mut()
                        .and_then(|r| r.on_info(from, seq, checkpoint));
                    if let Some(step) = step {
                        self.advance_recovery(now, step, &mut out);
                    }
                }
                Message::CheckpointData { seq, id, snapshot } => {
                    let step = self
                        .recovery
                        .as_mut()
                        .and_then(|r| r.on_data(seq, &id, snapshot));
                    if let Some(step) = step {
                        self.advance_recovery(now, step, &mut out);
                    }
                }
                msg => {
                    let actions = self.engine.on_event(now, Event::Message { from, msg });
                    self.post_process(actions, &mut out);
                }
            },
            event => {
                let actions = self.engine.on_event(now, event);
                self.post_process(actions, &mut out);
            }
        }
        self.report_recovery_transitions();
        out
    }

    fn process_id(&self) -> ProcessId {
        self.engine.process_id()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multiring_paxos::app::decode_command;
    use multiring_paxos::config::{single_ring, RingSpec, RingTuning, Roles};
    use multiring_paxos::event::Message;
    use multiring_paxos::types::{ClientId, GroupId};

    /// Echoes every command back to its client.
    #[derive(Default, Debug)]
    struct Echo {
        log: Vec<u8>,
    }

    impl Application for Echo {
        fn execute(&mut self, delivery: &Delivery) -> Vec<Reply> {
            let Some((client, request, cmd)) = decode_command(delivery.value.payload.clone())
            else {
                return Vec::new();
            };
            self.log.extend_from_slice(&cmd);
            vec![Reply {
                client,
                request,
                payload: cmd,
            }]
        }

        fn snapshot(&self) -> Bytes {
            Bytes::from(self.log.clone())
        }

        fn restore(&mut self, snapshot: &Bytes) {
            self.log = snapshot.to_vec();
        }
    }

    fn config() -> ClusterConfig {
        single_ring(
            1,
            RingTuning {
                lambda: 0,
                ..RingTuning::default()
            },
        )
    }

    fn disabled() -> CheckpointPolicy {
        CheckpointPolicy {
            interval_us: 0,
            sync: true,
        }
    }

    fn request(payload: &'static [u8], request: u64) -> Event {
        Event::Message {
            from: ProcessId::new(9),
            msg: Message::Request {
                client: ClientId::new(7),
                request,
                groups: vec![GroupId::new(0)],
                payload: Bytes::from_static(payload),
            },
        }
    }

    /// The blob inside every `PersistRecord::Checkpoint` and
    /// `CheckpointData` frame: durable and exchanged between peers,
    /// pinned before the codec rewrite.
    #[test]
    fn checkpoint_blob_packs_to_the_pinned_bytes() {
        let (engine, app) = (Bytes::from_static(b"engine"), Bytes::from_static(b"app"));
        let blob = pack_checkpoint(&engine, &app);
        let hex: String = blob.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, "0600000000000000656e67696e65617070");
        assert_eq!(unpack_checkpoint(&blob), Some((engine, app)));
        let empty = pack_checkpoint(&Bytes::new(), &Bytes::new());
        assert_eq!(&empty[..], &[0u8; 8]);
        assert_eq!(
            unpack_checkpoint(&empty),
            Some((Bytes::new(), Bytes::new()))
        );
    }

    /// The engine state is length-prefixed, the application snapshot is
    /// whatever follows it (the enclosing record or frame carries the
    /// blob's own length): a cut through the header or the engine state
    /// is refused, a cut after them shortens the snapshot.
    #[test]
    fn checkpoint_blob_cut_short_of_its_engine_state_is_rejected() {
        let (engine, app) = (Bytes::from_static(b"engine"), Bytes::from_static(b"app"));
        let blob = pack_checkpoint(&engine, &app);
        for cut in 0..8 + engine.len() {
            assert_eq!(unpack_checkpoint(&blob.slice(..cut)), None, "cut at {cut}");
        }
        for cut in 8 + engine.len()..=blob.len() {
            let unpacked = unpack_checkpoint(&blob.slice(..cut));
            assert_eq!(unpacked, Some((engine.clone(), blob.slice(14..cut))));
        }
    }

    proptest::proptest! {
        /// Uniform noise (a length field of eight random bytes names
        /// more than any buffer holds), and noise behind a small one.
        #[test]
        fn prop_unpacking_arbitrary_bytes_never_panics(
            noise in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..64),
        ) {
            let _ = unpack_checkpoint(&Bytes::from(noise.clone()));
            let mut blob = vec![0u8; 8];
            blob[0] = noise.first().map_or(0, |n| n % 80);
            blob.extend_from_slice(&noise);
            let _ = unpack_checkpoint(&Bytes::from(blob));
        }
    }

    #[test]
    fn singleton_replica_executes_and_responds_on_both_engines() {
        for kind in EngineKind::ALL {
            let mut r = EngineReplica::new(
                kind,
                ProcessId::new(0),
                config(),
                Echo::default(),
                disabled(),
            );
            r.on_event(Time::ZERO, Event::Start);
            let out = r.on_event(Time::ZERO, request(b"x", 3));
            let responds: Vec<&Action> = out
                .iter()
                .filter(|a| matches!(a, Action::Respond { .. }))
                .collect();
            assert_eq!(responds.len(), 1, "{kind}: one reply expected");
            assert_eq!(r.executed(), 1, "{kind}");
            assert_eq!(r.app().log, vec![b'x'], "{kind}");
        }
    }

    /// The names `bench/` reads through [`EngineReplica::telemetry`]
    /// (it is a package outside this workspace, so nothing else guards
    /// them), with their meaning: commands executed, — ring engine —
    /// merge deliveries against consensus instances consumed (`bench/`
    /// derives the skip share from the two), and flushes and flushed
    /// values of the submission edge's hold queues.
    #[test]
    fn telemetry_names_the_e2e_benchmark_reads_keep_their_meaning() {
        use crate::batcher::BatchConfig;
        use crate::engine::tests::{request as to_groups, two_groups};
        for kind in EngineKind::ALL {
            let mut r = EngineReplica::new(
                kind,
                ProcessId::new(0),
                config(),
                Echo::default(),
                disabled(),
            );
            r.on_event(Time::ZERO, Event::Start);
            for i in 1..=6 {
                r.on_event(Time::ZERO, request(b"v", i));
            }
            let snap = r.telemetry();
            assert_eq!(snap.counter("batch.flushes"), 0, "{kind}: nothing was held");
            assert_eq!(snap.counter("replica.executed"), 6, "{kind}");
            assert_eq!(r.executed(), 6, "{kind}");
            if kind == EngineKind::MultiRing {
                assert_eq!(snap.counter("delivered"), 6);
                assert!(snap.gauges.contains_key("merge_progress"));
                // No rate leveling in this configuration: every
                // instance the merge consumed carried one value.
                assert_eq!(snap.gauge("merge_progress"), 6);
            }
            // One of three processes, hearing from nobody: its first
            // submission stays outstanding, and the multi-group
            // requests behind it are held, two to a flush.
            let mut r = EngineReplica::new(
                kind,
                ProcessId::new(0),
                two_groups(),
                Echo::default(),
                disabled(),
            );
            let pairs = BatchConfig {
                max_values: 2,
                ..BatchConfig::enabled()
            };
            r.engine.set_batching(Time::ZERO, pairs);
            r.on_event(Time::ZERO, Event::Start);
            for i in 1..=5 {
                r.on_event(Time::ZERO, to_groups(i, &[0, 1]));
            }
            let snap = r.telemetry();
            assert_eq!(snap.counter("batch.flushes"), 2, "{kind}");
            assert_eq!(snap.counter("batch.submitted_values"), 4, "{kind}");
        }
    }

    /// What `r` tells a group's coordinator is safe to trim.
    fn trim_query(r: &mut EngineReplica<Echo>, group: GroupId) -> InstanceId {
        let query = Message::TrimQuery { group, seq: 2 };
        let from = ProcessId::new(2);
        let out = r.on_event(Time::from_millis(2), Event::Message { from, msg: query });
        match out[..] {
            [Action::Send {
                to,
                msg:
                    Message::TrimReply {
                        group: g,
                        seq,
                        safe,
                    },
            }] => {
                assert_eq!((to, g, seq), (from, group, 2));
                safe
            }
            _ => panic!("one TrimReply expected, got {out:?}"),
        }
    }

    #[test]
    fn checkpoint_lifecycle_trim_reply_and_recovery_on_both_engines() {
        for kind in EngineKind::ALL {
            let policy = CheckpointPolicy {
                interval_us: 1_000,
                sync: true,
            };
            let mut r =
                EngineReplica::new(kind, ProcessId::new(0), config(), Echo::default(), policy);
            r.on_event(Time::ZERO, Event::Start);
            r.on_event(Time::ZERO, request(b"y", 1));
            // A second delivery pushes the first below the wbcast
            // boundary exclusion, so both engines' watermarks cover at
            // least one value. Then: checkpoint tick persists, the
            // completion makes it durable and lets the engine trim.
            r.on_event(Time::ZERO, request(b"z", 2));
            let out = r.on_event(
                Time::from_millis(1),
                Event::Timer(TimerKind::CheckpointTick),
            );
            let (token, blob) = out
                .iter()
                .find_map(|a| match a {
                    Action::Persist {
                        token,
                        sync,
                        record: PersistRecord::Checkpoint { snapshot, .. },
                    } => {
                        assert!(*sync, "{kind}");
                        Some((*token, snapshot.clone()))
                    }
                    _ => None,
                })
                .expect("checkpoint persisted");
            assert_eq!(r.checkpoints_taken(), 0, "{kind}");
            assert_eq!(
                trim_query(&mut r, GroupId::new(0)),
                InstanceId::ZERO,
                "{kind}: a checkpoint still being written licenses no trim"
            );
            r.on_event(Time::from_millis(2), Event::PersistDone(token));
            assert_eq!(r.checkpoints_taken(), 1, "{kind}");
            let snap = r.telemetry();
            assert_eq!(snap.counter("replica.executed"), 2, "{kind}");
            assert_eq!(snap.counter("replica.checkpoints_taken"), 1, "{kind}");
            assert!(
                r.health(Time::from_millis(2)).is_healthy(),
                "{kind}: a settled singleton replica is healthy"
            );
            let watermark = r.stable_watermark().expect("stable").clone();
            assert!(
                watermark.mark_of(GroupId::new(0)).value() >= 1,
                "{kind}: the delivery is covered"
            );
            // Trim queries are answered from the durable watermark; a
            // group it does not cover is safe up to nothing.
            assert!(watermark.mark_of(GroupId::new(0)) > InstanceId::ZERO);
            for group in [GroupId::new(0), GroupId::new(9)] {
                assert_eq!(
                    trim_query(&mut r, group),
                    watermark.mark_of(group),
                    "{kind}"
                );
            }
            // An unchanged watermark produces no second persist.
            let out = r.on_event(
                Time::from_millis(4),
                Event::Timer(TimerKind::CheckpointTick),
            );
            assert!(
                out.iter().all(|a| !matches!(a, Action::Persist { .. })),
                "{kind}: unchanged state skips the checkpoint"
            );
            // A recovering peer is told about the stable checkpoint and
            // served its whole blob — unless it asks for another one.
            let peer = ProcessId::new(5);
            let mut ask =
                |msg| r.on_event(Time::from_millis(5), Event::Message { from: peer, msg });
            assert_eq!(
                ask(Message::CheckpointQuery { seq: 9 }),
                vec![Action::Send {
                    to: peer,
                    msg: Message::CheckpointInfo {
                        seq: 9,
                        checkpoint: Some(watermark.clone()),
                    },
                }],
                "{kind}"
            );
            for (id, snapshot) in [
                (watermark.clone(), Some(blob.clone())),
                (Watermark::default(), None),
            ] {
                assert_eq!(
                    ask(Message::CheckpointFetch {
                        seq: 10,
                        id: id.clone(),
                    }),
                    vec![Action::Send {
                        to: peer,
                        msg: Message::CheckpointData {
                            seq: 10,
                            id,
                            snapshot,
                        },
                    }],
                    "{kind}"
                );
            }
            // Crash: rebuild from the persisted checkpoint. The restored
            // application already holds the executed command.
            let recovered = EngineReplica::recovering(
                kind,
                ProcessId::new(0),
                config(),
                Echo::default(),
                policy,
                BTreeMap::new(),
                Some((watermark.clone(), blob)),
            );
            assert_eq!(
                recovered.app().log,
                b"yz".to_vec(),
                "{kind}: snapshot restored"
            );
            assert_eq!(
                recovered.stable_watermark(),
                Some(&watermark),
                "{kind}: watermark reinstalled"
            );
        }
    }

    #[test]
    fn recovered_replica_does_not_reexecute_covered_commands() {
        // Singleton wbcast replica: deliver two commands, checkpoint,
        // crash, restart — the resync replay of the boundary value must
        // not re-execute anything the snapshot already contains.
        let policy = CheckpointPolicy {
            interval_us: 1_000,
            sync: true,
        };
        let kind = EngineKind::Wbcast;
        let mut r = EngineReplica::new(kind, ProcessId::new(0), config(), Echo::default(), policy);
        r.on_event(Time::ZERO, Event::Start);
        r.on_event(Time::ZERO, request(b"a", 1));
        r.on_event(Time::ZERO, request(b"b", 2));
        let out = r.on_event(
            Time::from_millis(1),
            Event::Timer(TimerKind::CheckpointTick),
        );
        let token = out
            .iter()
            .find_map(|a| match a {
                Action::Persist { token, .. } => Some(*token),
                _ => None,
            })
            .expect("checkpoint persisted");
        r.on_event(Time::from_millis(2), Event::PersistDone(token));
        let (watermark, blob) = (
            r.stable_watermark().unwrap().clone(),
            r.stable.as_ref().unwrap().1.clone(),
        );
        let mut recovered = EngineReplica::recovering(
            kind,
            ProcessId::new(0),
            config(),
            Echo::default(),
            policy,
            BTreeMap::new(),
            Some((watermark, blob)),
        );
        assert_eq!(recovered.app().log, b"ab".to_vec());
        // Start issues the resume request, but a recovering node does
        // not assume its statically-configured sequencer role: nothing
        // answers until the coordination service confirms it.
        recovered.on_event(Time::from_millis(3), Event::Start);
        assert_eq!(recovered.executed(), 0, "no covered command re-executes");
        assert_eq!(recovered.app().log, b"ab".to_vec());
        // The coordination service re-confirms this process as the
        // ring's coordinator (runtimes deliver this right after the
        // restart's Start): it re-acquires the sequencer role and the
        // self-routed resync terminates, without re-executing anything
        // the snapshot already contains.
        recovered.on_event(
            Time::from_millis(4),
            Event::CoordinatorChange {
                ring: multiring_paxos::types::GroupId::new(0),
                coordinator: ProcessId::new(0),
                supersedes: multiring_paxos::types::Ballot::ZERO,
            },
        );
        assert_eq!(recovered.executed(), 0, "no covered command re-executes");
        // New traffic flows again; the fresh sequencer holds releases
        // for its takeover grace window, which the next Δ tick past it
        // flushes.
        recovered.on_event(Time::from_millis(5), request(b"c", 3));
        recovered.on_event(
            Time::from_secs(2),
            Event::Timer(TimerKind::Delta(multiring_paxos::types::GroupId::new(0))),
        );
        assert_eq!(recovered.app().log, b"abc".to_vec());
    }

    /// A restarted learner of a three-replica partition (p0 orders, p1
    /// and p2 only learn), with nothing on its own disk, plus the
    /// checkpoint a peer will offer it.
    fn recovering_replica(kind: EngineKind) -> (EngineReplica<Echo>, Watermark, Bytes) {
        let quiet = RingTuning {
            lambda: 0,
            ..RingTuning::default()
        };
        let mut spec = RingSpec::new(GroupId::new(0))
            .tuning(quiet)
            .member(ProcessId::new(0), Roles::ALL);
        let mut builder = ClusterConfig::builder();
        for p in (0..3).map(ProcessId::new) {
            if p.value() > 0 {
                spec = spec.member(p, Roles::LEARNER);
            }
            builder = builder.subscribe(p, GroupId::new(0));
        }
        let config = builder.ring(spec).build().expect("valid config");
        let policy = CheckpointPolicy {
            interval_us: 1_000,
            sync: true,
        };
        let r = EngineReplica::recovering(
            kind,
            ProcessId::new(1),
            config,
            Echo::default(),
            policy,
            BTreeMap::new(),
            None,
        );
        let id = Watermark {
            marks: vec![(GroupId::new(0), InstanceId::new(5_000))],
        };
        let blob = pack_checkpoint(&Bytes::new(), &Bytes::from_static(b"yz"));
        (r, id, blob)
    }

    /// Sends that ask the ordering layer for missed deliveries — what
    /// [`AmcastEngine::resume`] emits.
    fn catch_up_requests(out: &[Action]) -> usize {
        out.iter()
            .filter(|a| {
                matches!(
                    a,
                    Action::Send {
                        msg: Message::Retransmit { .. } | Message::Engine { .. },
                        ..
                    }
                )
            })
            .count()
    }

    fn queried(out: &[Action]) -> Vec<(ProcessId, u64)> {
        out.iter()
            .filter_map(|a| match a {
                Action::Send {
                    to,
                    msg: Message::CheckpointQuery { seq },
                } => Some((*to, *seq)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn recovery_queries_peers_installs_the_fetched_checkpoint_then_resumes() {
        for kind in EngineKind::ALL {
            let (mut r, id, blob) = recovering_replica(kind);
            let (p0, p2) = (ProcessId::new(0), ProcessId::new(2));
            let t = Time::from_millis;
            let retry_armed = |out: &[Action]| {
                out.contains(&Action::SetTimer {
                    after_us: RECOVERY_RETRY_US,
                    timer: TimerKind::RecoveryRetry,
                })
            };
            // Start: ask both peers; the engine does not catch up yet.
            let out = r.on_event(t(1), Event::Start);
            assert_eq!(queried(&out), vec![(p0, 1), (p2, 1)], "{kind}");
            assert!(retry_armed(&out), "{kind}");
            assert_eq!(catch_up_requests(&out), 0, "{kind}");
            assert!(r.is_recovering(), "{kind}");
            // No checkpoint while recovering; the tick stays armed.
            let out = r.on_event(t(2), Event::Timer(TimerKind::CheckpointTick));
            assert!(
                matches!(out[..], [Action::SetTimer { .. }]),
                "{kind}: {out:?}"
            );
            // Nobody answered: the retry asks the same peers again.
            let out = r.on_event(t(500), Event::Timer(TimerKind::RecoveryRetry));
            assert_eq!(queried(&out), vec![(p0, 1), (p2, 1)], "{kind}");
            assert!(retry_armed(&out), "{kind}");
            // One peer is a quorum of three with this replica: its
            // checkpoint is far ahead of nothing, so fetch it.
            let fetch = Action::Send {
                to: p2,
                msg: Message::CheckpointFetch {
                    seq: 2,
                    id: id.clone(),
                },
            };
            let out = r.on_event(
                t(501),
                Event::Message {
                    from: p2,
                    msg: Message::CheckpointInfo {
                        seq: 1,
                        checkpoint: Some(id.clone()),
                    },
                },
            );
            assert!(out.contains(&fetch) && retry_armed(&out), "{kind}: {out:?}");
            let out = r.on_event(t(1_000), Event::Timer(TimerKind::RecoveryRetry));
            assert!(out.contains(&fetch), "{kind}: the fetch is retried");
            assert_eq!(catch_up_requests(&out), 0, "{kind}");
            assert!(r.app().log.is_empty(), "{kind}: nothing installed yet");
            // The blob arrives: installed into application and engine,
            // adopted as the stable checkpoint, and only now the engine
            // asks for what lies above it.
            let out = r.on_event(
                t(1_001),
                Event::Message {
                    from: p2,
                    msg: Message::CheckpointData {
                        seq: 2,
                        id: id.clone(),
                        snapshot: Some(blob.clone()),
                    },
                },
            );
            assert!(!r.is_recovering(), "{kind}");
            assert_eq!(r.app().log, b"yz".to_vec(), "{kind}");
            assert_eq!(r.stable_watermark(), Some(&id), "{kind}");
            assert_eq!(r.engine().watermark(), id, "{kind}");
            assert!(catch_up_requests(&out) > 0, "{kind}: {out:?}");
            // Recovery is over: late replies and retries are inert.
            let out = r.on_event(t(1_500), Event::Timer(TimerKind::RecoveryRetry));
            assert!(out.is_empty(), "{kind}: {out:?}");
        }
    }

    /// The engine keeps running while the peers are asked. If it got
    /// past the offered checkpoint on its own, installing that would
    /// roll the application back under it.
    #[test]
    fn recovery_skips_a_checkpoint_the_engine_already_passed() {
        for kind in EngineKind::ALL {
            let (mut r, id, blob) = recovering_replica(kind);
            let p2 = ProcessId::new(2);
            r.on_event(Time::from_millis(1), Event::Start);
            let info = Message::CheckpointInfo {
                seq: 1,
                checkpoint: Some(id.clone()),
            };
            r.on_event(
                Time::from_millis(2),
                Event::Message {
                    from: p2,
                    msg: info,
                },
            );
            let mut ahead = id.clone();
            ahead.marks[0].1 = InstanceId::new(9_000);
            r.engine.install_checkpoint(&ahead, &Bytes::new());
            let data = Message::CheckpointData {
                seq: 2,
                id,
                snapshot: Some(blob),
            };
            let out = r.on_event(
                Time::from_millis(3),
                Event::Message {
                    from: p2,
                    msg: data,
                },
            );
            assert!(!r.is_recovering(), "{kind}");
            assert!(r.app().log.is_empty(), "{kind}: application untouched");
            assert_eq!(r.stable_watermark(), None, "{kind}");
            assert_eq!(r.engine().watermark(), ahead, "{kind}");
            assert!(catch_up_requests(&out) > 0, "{kind}: still resumes");
        }
    }
}
