//! # atomic-multicast
//!
//! Umbrella crate for the Multi-Ring Paxos atomic multicast stack — a
//! from-scratch Rust reproduction of *"Building global and scalable
//! systems with atomic multicast"* (Benz, Jalili Marandi, Pedone,
//! Garbinato — Middleware 2014).
//!
//! It re-exports the workspace crates under stable paths:
//!
//! * [`core`] — the sans-io Multi-Ring Paxos protocol
//!   (rings, deterministic merge, rate leveling, recovery).
//! * [`amcast`] — the pluggable atomic-multicast engine
//!   layer: the [`AmcastEngine`](mrp_amcast::AmcastEngine) trait every
//!   ordering engine implements, engine selection via
//!   [`EngineKind`](mrp_amcast::EngineKind), and a second, timestamp-
//!   based Skeen/white-box engine ([`wbcast`](mrp_amcast::wbcast)).
//! * [`sim`] — deterministic discrete-event simulator (WAN
//!   topologies, disk/CPU models, fault injection) used by tests and by
//!   the benchmark harness that regenerates the paper's figures.
//! * [`transport`] — length-prefixed framing of the core's wire
//!   codec (`core::codec`) and a real TCP runtime.
//! * [`storage`] — acceptor write-ahead logs and checkpoint
//!   storage.
//! * [`store`] — MRP-Store, the partitioned strongly
//!   consistent key-value store of Section 6.1, with the partitioning
//!   schema its clients read (`store::partition`).
//! * [`dlog`] — dLog, the distributed shared log of
//!   Section 6.2.
//! * [`ycsb`] — YCSB-style workload generator.
//! * [`baselines`] — comparison systems used by the
//!   evaluation.
//!
//! ## The engine abstraction
//!
//! Everything above the ordering layer — the simulator's cluster,
//! MRP-Store, dLog, the benchmark harness — is written against
//! [`amcast::AmcastEngine`], the explicit
//! form of the paper's set-addressed `multicast(γ, m)`/`deliver(m)`
//! contract. Deployments pick an engine with
//! [`EngineKind`](mrp_amcast::EngineKind) (`MultiRing` is the paper's
//! protocol, routing multi-group messages through a covering/global
//! ring; `Wbcast` orders via per-group sequencer timestamps and handles
//! multi-group messages genuinely — only the addressed groups do
//! work); run
//! `cargo run --example engine_compare` to see both engines drive the
//! same workload, and `cargo bench -p mrp-bench --bench fig9_engines`
//! for the quantitative comparison. How to add a third engine is
//! documented in [`mrp_amcast`].
//!
//! See the `examples/` directory for runnable end-to-end scenarios and
//! the repository `README.md` for the paper-figure reproductions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mrp_amcast as amcast;
pub use mrp_baselines as baselines;
pub use mrp_dlog as dlog;
pub use mrp_sim as sim;
pub use mrp_storage as storage;
pub use mrp_store as store;
pub use mrp_transport as transport;
pub use mrp_ycsb as ycsb;
pub use multiring_paxos as core;

/// Broadly useful items for building on the stack.
pub mod prelude {
    pub use multiring_paxos::prelude::*;
}
