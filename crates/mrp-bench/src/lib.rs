//! # Benchmark harness: regenerating the paper's evaluation
//!
//! One bench target per figure of Section 8 (run with
//! `cargo bench -p mrp-bench --bench <name>`):
//!
//! | target | paper artifact |
//! |---|---|
//! | `fig3_baseline` | Fig. 3 — Multi-Ring Paxos under 5 storage modes × request sizes |
//! | `fig4_ycsb` | Fig. 4 — YCSB A–F: Cassandra-like vs MRP-Store (indep.) vs MRP-Store vs MySQL-like |
//! | `fig5_dlog` | Fig. 5 — dLog vs Bookkeeper-like quorum log |
//! | `fig6_vertical` | Fig. 6 — dLog vertical scalability (1–5 rings/disks) |
//! | `fig7_horizontal` | Fig. 7 — MRP-Store across 4 EC2 regions |
//! | `fig8_recovery` | Fig. 8 — recovery impact timeline |
//! | `ablation_2pc` | §3 — 2PC aborts vs atomic-multicast ordering |
//! | `ablation_merge` | §4 — rate-leveling (Δ, λ) sensitivity |
//! | `fig9_engines` | extension — Multi-Ring Paxos vs the white-box engine as groups scale (emits `BENCH_fig9.json`) |
//! | `fig_multigroup` | extension — genuine multi-group multicast vs global-ring routing as the multi-group fraction grows (emits `BENCH_multigroup.json`) |
//! | `micro` | Criterion micro-benchmarks of the hot paths |
//!
//! Every harness prints the same rows/series the paper reports and is
//! parameterized by [`Scale`] so the test suite can run a fast smoke
//! version of the exact same code (`MRP_BENCH_SCALE=smoke`).
//!
//! ## Bench artifacts: the `BENCH_*.json` schema
//!
//! Benches that feed cross-PR trajectory comparisons additionally write
//! JSON — every one through [`json::Value::render`], the workspace's
//! one emitter (it is offline-hermetic: no serde) — into the bench
//! binary's working directory, which `cargo bench` sets to
//! `crates/mrp-bench/`. CI runs them at smoke scale and uploads the
//! files as artifacts, so numbers are comparable PR-over-PR as long as
//! they come from the same scale. The three simulator artifacts below
//! are virtual time and reproduce to the byte, so smoke-scale copies
//! are committed and CI fails when regenerating them changes a byte
//! (`git diff --exit-code`, as for the checker's state counts);
//! `BENCH_micro.json` holds clocks and is gated on its counts only.
//!
//! `BENCH_multigroup.json` — an array with one row per
//! (engine, multi-group fraction) cell of the sweep:
//!
//! | field | meaning |
//! |---|---|
//! | `engine` | engine name (`multiring` \| `wbcast`) |
//! | `multi_per_mille` | multi-group messages per 1000 client requests |
//! | `crash_ms` | initiator-churn period in ms (`0` = none): every period the multi-group initiator is crashed and restarted half a period later (`MRP_MULTIGROUP_CRASH_MS`), measuring throughput under repeatedly orphaned rounds; a churn run writes `BENCH_multigroup_churn.json` and leaves the baseline alone |
//! | `ops_per_sec` | completed client operations per second |
//! | `latency_ms` | mean end-to-end latency over all operations |
//! | `single_ms` / `multi_ms` | mean latency split by message class |
//! | `p99_ms` | 99th-percentile latency |
//!
//! `BENCH_fig8.json` — an array with one object per engine run of the
//! recovery timeline:
//!
//! | field | meaning |
//! |---|---|
//! | `engine` | engine name the run used |
//! | `checkpoints` | replica checkpoints completed during the run |
//! | `trims` | acceptor-log trim commands executed (ring engine only; wbcast prunes sequencer history instead) |
//! | `events` | `{t_s, what}` annotations: the replica kill and restart instants |
//! | `timeline` | `{t_s, ops_per_sec, latency_ms}` per throughput window |
//!
//! The recovery dip and the post-restart catch-up are what to look at
//! in `timeline`; `checkpoints > 0` is what makes the restart recover
//! from a snapshot rather than replaying history from genesis.
//!
//! `BENCH_fig9.json` — the engine comparison, an object with two
//! parallel arrays (one entry each per `(engine, groups)` cell):
//!
//! | field | meaning |
//! |---|---|
//! | `rows[].engine` | engine name (`multiring` \| `wbcast`) |
//! | `rows[].groups` | number of multicast groups in the cell |
//! | `rows[].ops_per_sec`, `latency_ms`, `p50_ms`, `p99_ms` | client-side throughput and latency |
//! | `engine_telemetry[].engine`, `groups` | the matching cell |
//! | `engine_telemetry[].nodes` | nodes that contributed a snapshot |
//! | `engine_telemetry[].healthy` | `true` iff every node's end-of-run health probe was clean |
//! | `engine_telemetry[].counters` | protocol counters summed over nodes (the engine's own phase metrics, e.g. `sub.delivered`, `seq.takeovers` for wbcast; `delivered`, `backfill_rounds` for multiring) |
//! | `engine_telemetry[].histograms` | phase-latency histograms merged over nodes, summarized as `{count, p50_us, p99_us, max_us}` |
//!
//! A smoke-scale `BENCH_fig9.json` is checked in at the crate root as
//! the perf baseline; the `bench_baseline` integration test asserts it
//! (and any regenerated replacement) parses — with the zero-dependency
//! reader in [`json`] — and matches this schema.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod harness;
pub mod json;
pub mod table;

pub use harness::{EchoApp, MixedGroupClient, OpenLoopClient, PingClient, Scale};
pub use table::Table;
