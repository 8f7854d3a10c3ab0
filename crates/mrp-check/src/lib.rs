//! # mrp-check: bounded model checking, liveness and static suites
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
//! * [`spec`] — [`AbstractAmcast`], atomic multicast as the paper
//!   specifies it, as an executable data structure. During exploration
//!   every concrete delivery is mapped to the spec's single `deliver`
//!   transition; a trace the spec rejects is a refinement violation.
//!   The simulator judges whole simulated runs with the same machine
//!   (`mrp_sim::Cluster::check_history`).
//! * [`scenario`] — canned multi-node deployments (both engines,
//!   multi-group traffic, held submissions) the checker and the
//!   regression schedules under `schedules/` run against.
//! * [`lint`] — a source-level static pass (no new dependencies) that
//!   rejects sans-io purity violations in the engine crates: wall-clock
//!   reads, thread spawns, order-nondeterministic hash collections,
//!   stray stdout. Run it as `cargo run -p mrp-check --bin lint`.
//! * [`conformance`] — the two cross-file rules the same binary runs
//!   and the compiler cannot: the pinned protocol-constant static
//!   asserts (`protocol-constants`) and every `TimerKind` armed and
//!   handled (`timer-liveness`). Tag collisions, frame coverage and
//!   round-trips used to be scanned for here too; since every wire
//!   vocabulary is a tag enum they are compile errors (E0081, E0004)
//!   and `every_tag_opens_a_golden` tests beside each format's goldens.
//! * [`toy`] — a deliberately small hub-ordered engine with three
//!   sabotaged variants (dropped decision, wedged retry loop,
//!   order-inverting receiver) used to prove the validity, liveness and
//!   refinement detectors each fire and minimize.
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
pub mod conformance;
pub mod lint;
pub mod scenario;
pub mod spec;
pub mod toy;

pub use checker::{
    check, replay_schedule, Checker, CheckerConfig, Choice, FaultBudget, ReplayOutcome, Report,
    Schedule, Violation,
};
pub use conformance::{conformance_check, Finding};
pub use lint::{
    lint_engine_sources, lint_source, lint_transport_source, lint_transport_sources, Allowlist,
    Diagnostic,
};
pub use scenario::{Scenario, Submission};
pub use spec::{request_key, AbstractAmcast, MsgKey};
