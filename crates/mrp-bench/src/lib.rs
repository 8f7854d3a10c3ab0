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
//! | `fig9_engines` | extension — Multi-Ring Paxos vs the white-box engine as groups scale |
//! | `fig_multigroup` | extension — genuine multi-group multicast vs global-ring routing as the multi-group fraction grows |
//! | `micro` | Criterion micro-benchmarks of the hot paths |
//!
//! Every harness prints the same rows/series the paper reports and is
//! parameterized by [`Scale`] so the test suite can run a fast smoke
//! version of the exact same code (`MRP_BENCH_SCALE=smoke`).
//!
//! ## Bench artifacts: the `BENCH_*.json` files
//!
//! Every figure is a [`Figure`]: rows of JSON objects beside the ordered
//! list of their columns, built once in [`figures`]. The bench prints
//! the rows as a table and writes the same rows — through
//! [`json::Value::render`], the workspace's one emitter (it is
//! offline-hermetic: no serde) — into the bench binary's working
//! directory, which `cargo bench` sets to `crates/mrp-bench/`. **The
//! columns are the keys**: a row's members are the table's columns,
//! named where `figures.rs` computes the cell, and the doc comment of
//! each `figures::fig*` says what they measure.
//!
//! The ten simulator artifacts are virtual time and reproduce to the
//! byte, so smoke-scale copies are committed and CI fails when
//! regenerating them changes a byte (`git diff --exit-code`, as for the
//! checker's state counts). Only a smoke-scale run writes those names:
//! any other scale writes `BENCH_<name>_full.json`
//! ([`Scale::artifact`]), and a churn run of `fig_multigroup`
//! `BENCH_multigroup_churn.json`. A row of each:
//!
//! | artifact | a row is |
//! |---|---|
//! | `BENCH_fig3.json` | one (storage mode, request size): throughput, mean latency, coordinator CPU, latency p50/p90/p99 |
//! | `BENCH_fig4.json` | one (system, YCSB workload): ops/s; on workload F the mean read / update / read-modify-write latency (`null` elsewhere) |
//! | `BENCH_fig5.json` | one (client threads, system): appends/s and mean latency of dLog or the Bookkeeper-like log |
//! | `BENCH_fig6.json` | one count of dLog rings: aggregate 1 KB appends/s, % of linear, latency p50/p90/p99 |
//! | `BENCH_fig7.json` | one count of loaded EC2 regions: aggregate updates/s, % of linear, latency p50/p90/p99 at the us-west-2 client |
//! | `BENCH_fig8.json` | one engine's recovery run: `checkpoints`, `trims`, the kill/restart `events` and the `timeline` of `{t_s, ops_per_sec, latency_ms}` windows — the dip and the catch-up are what to look at; `checkpoints > 0` is what makes the restart recover from a snapshot |
//! | `BENCH_fig9.json` | an object of two parallel arrays, one entry per (engine, groups): client-side `rows`, and `engine_telemetry` with the engines' own `counters` (summed over nodes), latency `histograms` (merged, as `{count, p50_us, p99_us, max_us}`) and the `healthy` verdict of the end-of-run probes |
//! | `BENCH_multigroup.json` | one (engine, multi-group ‰, churn period): ops/s, mean latency overall and by message class, p99 |
//! | `BENCH_ablation_2pc.json` | one count of hot keys: 2PC commits/s and abort share against multicast-ordered transactions/s |
//! | `BENCH_ablation_merge.json` | one (λ, Δ) of the idle ring: the busy group's mean latency (`null`: stalled) and ops/s |
//!
//! `BENCH_micro.json` (`micro`) holds clocks, not virtual time: it is
//! committed for its counts — `wire_frames` / `wire_bytes` are pinned
//! exactly — and not diffed. The `bench_baseline` integration test
//! reads all eleven with the zero-dependency reader in [`json`]: schema
//! for fig9 and micro, and for every figure of the paper its claim as
//! an inequality over the committed rows — the scorecard in the
//! repository `README.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod harness;
pub mod json;
pub mod table;

pub use harness::{EchoApp, OpenLoopClient, Scale};
pub use table::Figure;
