//! # mrp-amcast: the pluggable atomic-multicast engine layer
//!
//! The paper's thesis is that *atomic multicast* — not atomic broadcast
//! — is the right communication primitive for global, partitioned
//! systems, and that Multi-Ring Paxos is one (scalable) implementation
//! of it. This crate makes that separation explicit in the codebase:
//! the `multicast(γ, m)` / `deliver(m)` contract becomes the
//! [`AmcastEngine`] trait, and everything above it (simulator hosting,
//! services, benchmarks) is written against the trait instead of the
//! concrete ring protocol.
//!
//! ## The engine contract
//!
//! An engine is a sans-io state machine ([`StateMachine`]: consume
//! [`Event`]s, emit [`Action`]s) that additionally exposes local
//! submission: [`AmcastEngine::multicast_batch`] — the one submit body
//! an engine implements; [`AmcastEngine::multicast`] is its provided
//! single-value form — takes the paper's destination **set** γ of
//! groups: a single-element set is the common partition-local case; a
//! larger set is a cross-partition operation (a multi-key transaction,
//! a scan, a multi-log append). Every engine
//! must provide the atomic-multicast properties of Section 2 of the
//! paper for the values it delivers via `Action::Deliver`:
//!
//! * **agreement** — all correct subscribers of an addressed group
//!   deliver the same messages;
//! * **validity** — messages multicast by correct processes are
//!   delivered;
//! * **integrity** — every subscriber of γ delivers m exactly once,
//!   even when it subscribes to several groups of γ;
//! * **acyclic order** — the global relation "some process delivers m
//!   before m′" has no cycles, *across* groups included.
//!
//! Engines differ in **genuineness** ([`EngineKind::genuine`]): a
//! genuine engine involves only the addressed groups' processes in
//! ordering m. The white-box engine orders multi-group messages
//! genuinely (each addressed group's sequencer proposes a timestamp,
//! the initiator distributes the maximum, groups deliver at the final
//! `(timestamp, id)` position). The ring engine is genuine for
//! single-group messages only: a multi-group message is routed through
//! a *covering group* — a configured group, typically a deployment's
//! global ring, whose subscribers include every addressed group's
//! subscribers — and fails with `NoCoveringGroup` when none exists.
//!
//! Two engines ship today, selected in code by [`EngineKind`] (a
//! deployment helper's `.engine(..)`; [`EngineKind::ALL`] runs both):
//!
//! | engine | ordering mechanism | multi-group messages | trade-off |
//! |---|---|---|---|
//! | [`EngineKind::MultiRing`] | one Ring Paxos instance per group, deterministic merge + rate leveling at learners | covering (global) group | high throughput, fault-tolerant ordering, merge adds Δ-bounded latency |
//! | [`EngineKind::Wbcast`] | per-group sequencer timestamps, delivery in global `(timestamp, id)` order (Skeen / white-box style) | genuine: max-timestamp agreement among addressed groups | one less message delay for single-group, two more for multi-group, throughput bound by the sequencer |
//!
//! Both engines survive coordinator crashes: the ring engine re-runs
//! Phase 1 under the re-elected coordinator, and the wbcast engine
//! treats [`Event::CoordinatorChange`](multiring_paxos::event::Event)
//! as sequencer handover (epoch-stamped streams, initiator retries
//! with receiver-side dedup, subscriber re-anchoring — see [`wbcast`]).
//! `tests/ordering_invariants.rs` exercises the crash path for every
//! [`EngineKind`].
//!
//! Backpressure: [`AmcastEngine::backlog`] reports locally submitted,
//! not-yet-settled values for both engines (ring: proposals not yet
//! decided; wbcast: submissions to subscribed groups not yet delivered
//! locally).
//!
//! ## Checkpointing and recovery
//!
//! The trait also carries the engine-generic **checkpoint/trim
//! surface** (the paper's Section 5, generalized beyond the ring
//! engine):
//!
//! * [`AmcastEngine::watermark`] reports the stable prefix of the
//!   engine's per-group delivery streams as a [`Watermark`]
//!   — consensus instances for the ring engine, sequencer timestamps
//!   for wbcast;
//! * a replica checkpoints by persisting that watermark together with
//!   the application snapshot and the engine's own
//!   [`checkpoint_state`](AmcastEngine::checkpoint_state);
//! * once durable, [`AmcastEngine::trim`] discards protocol state below
//!   the watermark — wbcast prunes its delivered-id dedup records and
//!   tells each group's sequencer to prune its decided-id map and
//!   released-value history (min over all subscribers' reports); the
//!   ring engine's acceptor logs are trimmed by the coordinated quorum
//!   protocol instead;
//! * after a crash, [`AmcastEngine::install_checkpoint`] restores the
//!   watermark into a freshly built engine and
//!   [`AmcastEngine::resume`] re-fetches the gap up to the live streams
//!   (ring: acceptor backfill; wbcast: a `Resync` replay of the
//!   retained history, with deliveries held until the replay
//!   terminates so the recovered sequence is byte-identical to the
//!   survivors').
//!
//! [`EngineReplica`] drives the whole cycle for any engine, including
//! the choice of *which* checkpoint to install after a crash — its own
//! or a fresher one fetched from a partition peer (see the [`replica`]
//! module docs). `replica_crash_and_restart_recovers_from_checkpoint`
//! in `tests/ordering_invariants.rs` and `tests/recovery_e2e.rs`
//! exercise it for every [`EngineKind`].
//!
//! ## Adding a third engine
//!
//! 1. Implement the engine as a sans-io state machine and give it a
//!    wire id; encode its private messages into
//!    [`Message::Engine`](multiring_paxos::event::Message::Engine)
//!    frames. [`wbcast`] is the pattern, one module per protocol role:
//!    `wbcast/wire.rs` (frames and byte layout), `sequencer.rs`,
//!    `rounds.rs`, `frontier.rs`, `recovery.rs` (the roles, each
//!    documenting its part of the protocol and its metrics) and
//!    `mod.rs` (constants, the node, dispatch, the trait impls).
//!    Declare each frame once, through
//!    [`wire_tags!`](multiring_paxos::codec::wire_tags): its tag and
//!    its field names in wire order, from which the writer, the reader,
//!    the length and a fuzz generator follow. A frame then is "add the
//!    variant and its line and fix what does not compile" (the dispatch
//!    `match` is exhaustive too), the last stop being the golden
//!    `every_tag_opens_a_golden` asks for — no lint to extend — and the
//!    engine's fuzz, which dispatches generated frames into a live node.
//!    Engines share the [`Event`]/[`Action`] vocabulary, so every
//!    existing runtime (simulator, TCP transport) hosts them unchanged.
//! 2. Implement [`AmcastEngine`] for it: `multicast_batch`,
//!    `engine_name` and `state_digest` are mandatory (for the last,
//!    derive `Hash` on your state structs and destructure the node
//!    exhaustively, naming what stays outside the fingerprint — see
//!    [`multiring_paxos::digest`]); implement
//!    `backlog` if the engine can track in-flight submissions,
//!    `telemetry`/`health` over an
//!    [`EngineTelemetry`] store it records into, and the checkpoint
//!    surface (`watermark`,
//!    `checkpoint_state`, `install_checkpoint`, `trim`, `resume`) if it
//!    should support bounded state and crash recovery — the defaults
//!    are safe no-ops, so a minimal engine still runs everywhere.
//! 3. Add a variant to [`EngineKind`]/[`AnyEngine`] so configuration
//!    can select it, and run `tests/ordering_invariants.rs` (which is
//!    parameterized over every [`EngineKind`]) against it.
//!
//! ## The submission edge
//!
//! [`AnyEngine`] decides per client `Request`, from the size of its
//! group set γ and its own backlog — there is no mode and nothing to
//! configure. A request to one group goes to the engine in the
//! activation that received it. A request to several groups does too
//! when this process has nothing outstanding; behind an outstanding
//! submission it waits in a per-γ queue ([`batcher::Batcher`]) and the
//! queue goes out as one [`AmcastEngine::multicast_batch`] round — one
//! consensus instance on the ring engine, one coalesced sequencer
//! exchange on wbcast — when a [`BatchConfig`] budget trips, when an
//! event leaves the backlog at zero, or after
//! [`batcher::SUBMIT_HOLD_US`] at the latest. Same-destination engine
//! frames emitted by one activation always ride a single
//! `Message::Batch` wire frame. Per-value delivery semantics
//! (exactly-once, global acyclic order) are unchanged; the telemetry
//! (`batch.flushes`, `batch.submitted_values`, `batch.occupancy`,
//! `wire.frames_coalesced`) rides the snapshot below. See the
//! `Performance` section of the repository README for measured
//! numbers.
//!
//! ## Observability
//!
//! Every engine records into one sans-io store — an
//! [`EngineTelemetry`] (counters, gauges, log-linear histograms and a
//! bounded trace ring; the primitives live in
//! [`multiring_paxos::telemetry`], re-exported by [`telemetry`]) — and
//! the trait exposes exactly two read-outs:
//!
//! * [`AmcastEngine::telemetry`] — a [`TelemetrySnapshot`] of
//!   phase-level counters, gauges and latency histograms plus the
//!   retained [`ProtocolEvent`](telemetry::ProtocolEvent)s (takeovers,
//!   orphan recoveries, truncations, backfills, checkpoint installs);
//! * [`AmcastEngine::health`] — a [`HealthReport`] from the stall
//!   probe: rounds pending longer than
//!   [`STALL_DELTAS`](telemetry::STALL_DELTAS)·Δ, frozen checkpoint
//!   prune floors, deliveries held behind a resync.
//!
//! Recovery outcomes are ordinary counters in that store
//! (`sub.resync_truncations`, `orphan.rounds_started`/`_completed`,
//! `seq.takeovers`, `backfill_rounds`, `checkpoint_installs`);
//! [`EngineReplica`] reads them live through
//! [`AnyEngine::live_telemetry`] after every event to log recovery
//! actions as they happen.
//!
//! The simulator folds per-node snapshots into each run's metrics, the
//! TCP runtime logs them periodically, and `mrp-bench` emits them as
//! the `engine_telemetry` section of its `BENCH_*.json` artifacts.
//!
//! [`Event`]: multiring_paxos::event::Event
//! [`Action`]: multiring_paxos::event::Action
//! [`StateMachine`]: multiring_paxos::event::StateMachine

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batcher;
pub mod engine;
pub mod replica;
pub mod telemetry;
pub mod wbcast;

pub use batcher::BatchConfig;
pub use engine::{AmcastEngine, AnyEngine, EngineKind, Watermark};
pub use replica::EngineReplica;
pub use telemetry::{
    EngineTelemetry, HealthIssue, HealthReport, Histogram, MetricsRegistry, TelemetrySnapshot,
};
pub use wbcast::WbcastNode;
