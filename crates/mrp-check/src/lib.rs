//! # mrp-check: bounded model checking and liveness
//!
//! The engines behind [`mrp_amcast::AmcastEngine`] are sans-io state
//! machines: events in, actions out, no clocks, no threads, no
//! non-determinism. That discipline is what makes them *checkable* — a
//! schedule of event deliveries fully determines every state they reach
//! — and this crate is the tooling that cashes the cheque:
//!
//! * [`checker`] — a deterministic bounded model checker. A
//!   [`checker::Checker`] drives N engine nodes through every
//!   interleaving of in-flight events up to a depth bound, pruning with
//!   state-fingerprint deduplication (the engines' `state_digest()`
//!   hook) and sleep-set partial-order reduction, optionally branching
//!   into faults (frame drop/duplication, crash/restart through the
//!   checkpoint surface). Every delivery is judged against [`spec`]
//!   (refinement), every frame sent against white-box genuineness,
//!   and fault-free quiescent states against validity; a
//!   violation is minimized into a replayable [`checker::Schedule`]
//!   a plain `#[test]` can re-execute. With
//!   [`CheckerConfig::liveness`](checker::CheckerConfig) set, the DFS
//!   additionally hunts for *lassos*: cycles over progress-insensitive
//!   state fingerprints in which a process is still owed a delivery yet
//!   every armed timer fired and every in-flight frame was delivered —
//!   a fair non-progress loop, minimized and replayable like any
//!   safety counterexample.
//! * [`paxos`] — [`PaxosSpec`], the rings' Paxos invariants beneath
//!   it: every promise, vote and decision record an acceptor writes is
//!   judged as it is written (promises never fall, no vote below a
//!   promise, one chosen value per instance, decisions only over chosen
//!   instances), in the checker after every step and in the simulator's
//!   `Cluster::check_history`.
//! * [`spec`] — [`AbstractAmcast`], atomic multicast as the paper
//!   specifies it, as an executable data structure. During exploration
//!   every concrete delivery is mapped to the spec's single `deliver`
//!   transition; a trace the spec rejects is a refinement violation.
//!   The simulator judges whole simulated runs with the same machine
//!   (`mrp_sim::Cluster::check_history`).
//! * [`scenario`] — canned multi-node deployments (both engines,
//!   multi-group traffic, held submissions, a ring coordinator change
//!   over a seeded durable log) the checker and the
//!   regression schedules under `schedules/` run against.
//! * [`toy`] — a deliberately small hub-ordered engine with three
//!   sabotaged variants (dropped decision, wedged retry loop,
//!   order-inverting receiver) used to prove the validity, liveness and
//!   refinement detectors each fire and minimize.
//!
//! Sans-io purity is not checked here: clippy rejects wall clocks,
//! threads, hash collections, stdout and environment reads in the
//! engine crates (`crates/multiring-paxos/clippy.toml`, shared by
//! `mrp-amcast`), and polling waits in the TCP runtime
//! (`crates/mrp-transport/clippy.toml`). Nor are source files read
//! as text: every wire vocabulary is a tag enum, so tag collisions and
//! frame coverage are compile errors (E0081, E0004), with
//! `every_tag_opens_a_golden` beside each format's goldens; every
//! timer handler matches `TimerKind` exhaustively, and the root test
//! `tests/timer_coverage.rs` sees every kind armed in a simulated run.
//!
//! The `check` binary (`cargo run --release -p mrp-check --bin check`)
//! runs the bounded exploration for both engines with fault branching
//! on and reports explored/pruned state counts, including the reduction
//! factor of dedup + partial-order reduction over a naive DFS. CI runs
//! it twice: a smoke pass, and a deep `--liveness` pass whose exact
//! counts are diffed against the committed `CHECK_baseline.json`
//! (exploration is deterministic; drift fails the build until the
//! baseline is consciously regenerated).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checker;
pub mod paxos;
pub mod scenario;
pub mod spec;
pub mod toy;

pub use checker::{
    check, replay_schedule, Checker, CheckerConfig, Choice, FaultBudget, ReplayOutcome, Report,
    Schedule, Violation,
};
pub use paxos::PaxosSpec;
pub use scenario::{Scenario, Submission};
pub use spec::{request_key, AbstractAmcast, MsgKey};
