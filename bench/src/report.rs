//! Metric names, how each is computed from a run, and the output: the
//! human-readable tables, the span file and the one-line JSON result.

use crate::driver::{peak_rss_mb, Block, BlockKind, EngineRun};
use crate::ledger;
use crate::stats::{median, median_of_kept, percentile, percentile_sorted};
use crate::trace::{match_fifo, NodeTrace};
use crate::workload::WorkloadSpec;
use mrp_amcast::EngineKind;
use multiring_paxos::event::{Message, PersistRecord};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// Spans of at most this many requests per engine go to the span file.
const SPAN_REQUESTS: usize = 2000;

/// The end-to-end metrics, as `(name, unit)`: the ones with a bound in
/// `BENCHMARK.json`. Every workload reports all of them, untraced.
pub const END_TO_END: [(&str, &str); 1] = [("setup_s", "s")];

/// Every engine's two headline numbers, as `(name, unit)`; reported as
/// `ring.<name>` and `wb.<name>`. One that [`END_TO_END`] does not list
/// did not repeat within its bound (see `NOISE.md`) and is a per-layer
/// metric: a traced run reports it from its untraced reference blocks.
pub const HEADLINE: [(&str, &str); 2] = [("tput_ops_s", "1/s"), ("lat_p50_us", "us")];

/// The per-layer metrics that exist once per engine, as `(name, unit)`;
/// reported as `ring.<name>` and `wb.<name>`.
pub const PER_ENGINE: [(&str, &str); 34] = [
    ("tcp.ingress_p50_us", "us"),
    ("tcp.ingress_p99_us", "us"),
    ("tcp.egress_p50_us", "us"),
    ("tcp.egress_p99_us", "us"),
    ("tcp.hop_p50_us", "us"),
    ("tcp.frames_per_op", "count"),
    ("tcp.bytes_per_op", "B"),
    ("tcp.handoff_residual_us", "us"),
    ("engine.order_p50_us", "us"),
    ("engine.order_p99_us", "us"),
    ("engine.activations_per_op", "count"),
    ("engine.busy_us_per_op", "us"),
    ("engine.on_msg_p50_ns", "ns"),
    ("engine.on_msg_p99_ns", "ns"),
    ("engine.on_timer_p50_ns", "ns"),
    ("engine.actions_per_activation", "count"),
    ("engine.empty_activation_share", "ratio"),
    ("engine.timer_activations_per_s", "1/s"),
    ("batcher.values_per_flush", "count"),
    ("batcher.flushes_per_op", "count"),
    ("merge.skip_share", "ratio"),
    ("replica.exec_ns_per_op", "ns"),
    ("replica.exec_p99_ns", "ns"),
    ("replica.replies_per_op", "count"),
    ("replica.useful_reply_ratio", "ratio"),
    ("storage.persists_per_op", "count"),
    ("storage.sync_persists_per_op", "count"),
    ("storage.persist_wait_p50_us", "us"),
    ("storage.persist_wait_p99_us", "us"),
    ("storage.wal_bytes_per_op", "B"),
    ("lat_p99_us", "us"),
    ("sat_lat_p50_us", "us"),
    ("sat_lat_p99_us", "us"),
    ("cpu_us_per_op", "us"),
];

/// The per-layer metrics about the benchmark itself and the fault
/// epilogue.
pub const RUN_WIDE: [(&str, &str); 7] = [
    ("gen.handoff_probe_us", "us"),
    ("gen.loopback_rtt_us", "us"),
    ("gen.disturbed_blocks", "count"),
    ("gen.trace_overhead_share", "ratio"),
    ("gen.peak_rss_mb", "MiB"),
    ("ring.recovery.outage_ms", "ms"),
    ("wb.recovery.outage_ms", "ms"),
];

/// The prefix of an engine's metrics.
pub fn prefix(engine: EngineKind) -> &'static str {
    match engine {
        EngineKind::MultiRing => "ring",
        EngineKind::Wbcast => "wb",
    }
}

/// Every per-layer metric a traced run prints, as `(name, unit)`, in
/// report order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for engine in EngineKind::ALL {
        for (name, unit) in HEADLINE.into_iter().chain(PER_ENGINE) {
            let name = format!("{}.{name}", prefix(engine));
            if !END_TO_END.iter().any(|&(gated, _)| gated == name) {
                out.push((name, unit));
            }
        }
    }
    for (name, unit) in ledger::ROWS {
        out.push((name.to_string(), unit));
    }
    for (name, unit) in RUN_WIDE {
        out.push((name.to_string(), unit));
    }
    out
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value.
    pub value: f64,
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// A metric's value over all blocks of one kind: the median of the
/// per-block values the noise guard kept, and how many blocks it
/// flagged (it drops them only while enough remain).
fn over_blocks<'a>(
    blocks: impl Iterator<Item = &'a Block>,
    probe_limit: f64,
    value: impl Fn(&Block) -> f64,
) -> (f64, usize) {
    let blocks: Vec<&Block> = blocks.collect();
    let values: Vec<f64> = blocks.iter().map(|b| value(b)).collect();
    let disturbed: Vec<bool> = blocks.iter().map(|b| b.disturbed(probe_limit)).collect();
    let flagged = disturbed.iter().filter(|&&d| d).count();
    (median_of_kept(&values, &disturbed).0, flagged)
}

/// An engine's two headline numbers from its blocks with tracing state
/// `traced`: `(tput_ops_s, lat_p50_us, blocks the guard flagged)`.
pub fn headline(run: &EngineRun, traced: bool, probe_limit: f64) -> (f64, f64, usize) {
    let (tput, d1) = over_blocks(
        run.blocks_of(BlockKind::Sat, traced),
        probe_limit,
        Block::throughput,
    );
    let (lat, d2) = over_blocks(run.blocks_of(BlockKind::Svc, traced), probe_limit, |b| {
        b.latency_us(0.5)
    });
    (tput, lat, d1 + d2)
}

/// `setup_s` and every engine's headline numbers from the untraced
/// blocks: what a run is about, gated or not.
pub fn headlines(runs: &[EngineRun], probe_limit: f64) -> Vec<Metric> {
    // One cluster set-up of each engine, summed; the median over the
    // set-up trials.
    let trials = runs.iter().map(|r| r.setups_s.len()).min().unwrap_or(0);
    let sums: Vec<f64> = (0..trials)
        .map(|t| runs.iter().map(|r| r.setups_s[t]).sum())
        .collect();
    let mut out = vec![Metric {
        name: "setup_s".into(),
        unit: "s",
        value: median(&sums),
    }];
    for run in runs {
        let (tput, lat, _) = headline(run, false, probe_limit);
        for ((name, unit), value) in HEADLINE.into_iter().zip([tput, lat]) {
            out.push(Metric {
                name: format!("{}.{name}", prefix(run.engine)),
                unit,
                value,
            });
        }
    }
    out
}

/// The end-to-end metrics of an untraced run: the [`headlines`] that
/// [`END_TO_END`] lists.
pub fn end_to_end(runs: &[EngineRun], probe_limit: f64) -> Vec<Metric> {
    let mut all = headlines(runs, probe_limit);
    all.retain(|m| END_TO_END.iter().any(|&(name, _)| name == m.name));
    all
}

fn pooled_ns(traces: &[NodeTrace], pick: impl Fn(&NodeTrace) -> &Vec<u32>) -> Vec<u32> {
    traces
        .iter()
        .flat_map(|t| pick(t).iter().copied())
        .collect()
}

fn pooled_latencies<'a>(blocks: impl Iterator<Item = &'a Block>) -> Vec<u32> {
    blocks
        .flat_map(|b| b.latencies_ns.iter().copied())
        .collect()
}

/// The critical path of one request, from the traces: every time in ns
/// on the hub's clock.
#[derive(Copy, Clone, Debug)]
struct Path5 {
    request: u64,
    /// `ClientPort::request` called.
    sent: u64,
    /// `on_event(Request)` entered at the proposer.
    entered: u64,
    /// `Application::execute` entered on the first replica.
    exec_start: u64,
    /// … and returned.
    exec_end: u64,
    /// The first activation returning the reply returned.
    responded: u64,
    /// First reply read by the client.
    replied: u64,
}

/// Joins the client's and the servers' records of the `svc` requests.
fn critical_paths(run: &EngineRun) -> Vec<Path5> {
    let mut entered: HashMap<u64, u64> = HashMap::new();
    let mut exec: HashMap<u64, (u64, u64)> = HashMap::new();
    let mut responded: HashMap<u64, u64> = HashMap::new();
    for t in &run.node_traces {
        for &(id, at) in &t.request_entered {
            entered.entry(id).or_insert(at);
        }
        for &(id, start, dur) in &t.executes {
            let e = exec.entry(id).or_insert((start, start + u64::from(dur)));
            if start < e.0 {
                *e = (start, start + u64::from(dur));
            }
        }
        for &(id, at) in &t.respond_returned {
            let r = responded.entry(id).or_insert(at);
            *r = (*r).min(at);
        }
    }
    run.client_trace
        .requests
        .iter()
        .filter(|r| r.3)
        .filter_map(|&(request, sent, replied, _)| {
            let (exec_start, exec_end) = *exec.get(&request)?;
            Some(Path5 {
                request,
                sent,
                entered: *entered.get(&request)?,
                exec_start,
                exec_end,
                responded: *responded.get(&request)?,
                replied,
            })
        })
        .collect()
}

fn quantiles_us(mut ns: Vec<u32>) -> (f64, f64) {
    ns.sort_unstable();
    (
        percentile_sorted(&ns, 0.5) / 1000.0,
        percentile_sorted(&ns, 0.99) / 1000.0,
    )
}

fn span_ns(paths: &[Path5], from: impl Fn(&Path5) -> u64, to: impl Fn(&Path5) -> u64) -> Vec<u32> {
    paths
        .iter()
        .map(|p| u32::try_from(to(p).saturating_sub(from(p))).unwrap_or(u32::MAX))
        .collect()
}

/// The ledger of one engine: how the typical `svc` request's service
/// time splits over the layers, in µs.
///
/// Medians of parts do not add up to the median of the whole, so the
/// ledger averages each part over the *typical requests* — those whose
/// end-to-end time lies between the 40th and 60th percentile — and the
/// parts then sum to that band's end-to-end time exactly. They are
/// measured with tracing on and the end-to-end figure with tracing off,
/// so each part is scaled by `untraced / traced` before it is set
/// against the untraced figure: the cost of taking the timestamps is
/// charged to no layer.
#[derive(Copy, Clone, Debug, Default)]
pub struct EngineLedger {
    /// `ClientPort::request` → `on_event(Request)` entered.
    pub ingress: f64,
    /// `on_event(Request)` entered → `execute` entered, first replica.
    pub order: f64,
    /// `execute`.
    pub exec: f64,
    /// `Action::Respond` returned → reply read.
    pub egress: f64,
    /// `ClientPort::request` → reply read, the same requests.
    pub traced_total: f64,
    /// The same cluster's median service time with tracing off (the
    /// reference blocks interleaved with the traced ones).
    pub untraced_total: f64,
}

impl EngineLedger {
    /// The typical requests of `paths` against `untraced_total`.
    fn new(paths: &[Path5], untraced_total: f64) -> Self {
        let mut sorted: Vec<&Path5> = paths.iter().collect();
        sorted.sort_by_key(|p| p.replied.saturating_sub(p.sent));
        let band = &sorted[sorted.len() * 2 / 5..(sorted.len() * 3).div_ceil(5)];
        let mean_us = |from: fn(&Path5) -> u64, to: fn(&Path5) -> u64| {
            let total: u64 = band.iter().map(|p| to(p).saturating_sub(from(p))).sum();
            ratio(total as f64 / 1000.0, band.len() as f64)
        };
        Self {
            ingress: mean_us(|p| p.sent, |p| p.entered),
            order: mean_us(|p| p.entered, |p| p.exec_start),
            exec: mean_us(|p| p.exec_start, |p| p.exec_end),
            egress: mean_us(|p| p.responded, |p| p.replied),
            traced_total: mean_us(|p| p.sent, |p| p.replied),
            untraced_total,
        }
    }

    fn scale(&self) -> f64 {
        ratio(self.untraced_total, self.traced_total)
    }

    /// The attributed parts together, scaled to the untraced run.
    pub fn attributed(&self) -> f64 {
        (self.ingress + self.order + self.exec + self.egress) * self.scale()
    }

    /// What the four spans leave: the rest of the activation after
    /// `execute` returned, until `on_event` handed the reply back.
    pub fn residual(&self) -> f64 {
        self.untraced_total - self.attributed()
    }
}

/// The per-engine per-layer metrics of a traced run, unprefixed, plus
/// the engine's ledger.
fn engine_layers(run: &EngineRun) -> (BTreeMap<&'static str, f64>, EngineLedger) {
    let mut m: BTreeMap<&'static str, f64> = PER_ENGINE.iter().map(|&(n, _)| (n, 0.0)).collect();
    let traces = &run.node_traces;
    let client = &run.client_trace;
    let ops = client.first_replies as f64;
    let sum = |f: fn(&NodeTrace) -> u64| traces.iter().map(f).sum::<u64>() as f64;

    // tcp + the critical path.
    let paths = critical_paths(run);
    let (ingress_p50, ingress_p99) = quantiles_us(span_ns(&paths, |p| p.sent, |p| p.entered));
    let (order_p50, order_p99) = quantiles_us(span_ns(&paths, |p| p.entered, |p| p.exec_start));
    let (egress_p50, egress_p99) = quantiles_us(span_ns(&paths, |p| p.responded, |p| p.replied));
    let mut reference = pooled_latencies(run.blocks_of(BlockKind::Svc, false));
    let ledger = EngineLedger::new(&paths, percentile(&mut reference, 0.5) / 1000.0);
    m.insert("tcp.ingress_p50_us", ingress_p50);
    m.insert("tcp.ingress_p99_us", ingress_p99);
    m.insert("tcp.egress_p50_us", egress_p50);
    m.insert("tcp.egress_p99_us", egress_p99);
    m.insert("engine.order_p50_us", order_p50);
    m.insert("engine.order_p99_us", order_p99);
    m.insert("tcp.handoff_residual_us", ledger.residual());
    // Server-to-server frames sent while a traced `svc` block ran: with
    // one request in flight a hop waits behind nothing.
    let svc_spans: Vec<(u64, u64)> = run
        .blocks_of(BlockKind::Svc, true)
        .map(|b| b.span_ns)
        .collect();
    let mut hops: Vec<u32> = Vec::new();
    for (from, sender) in traces.iter().enumerate() {
        for (to, sent) in &sender.sent {
            let sent: Vec<(u64, u64)> = sent
                .iter()
                .copied()
                .filter(|&(_, at)| svc_spans.iter().any(|&(a, b)| a <= at && at <= b))
                .collect();
            let received = traces
                .get(*to as usize)
                .and_then(|t| t.received.get(&(from as u32)));
            if let Some(received) = received {
                hops.extend(
                    match_fifo(&sent, received)
                        .into_iter()
                        .map(|ns| u32::try_from(ns).unwrap_or(u32::MAX)),
                );
            }
        }
    }
    m.insert("tcp.hop_p50_us", percentile(&mut hops, 0.5) / 1000.0);
    let frames = sum(|t| t.frames) + client.frames as f64;
    let bytes = sum(|t| t.frame_bytes) + client.frame_bytes as f64;
    m.insert("tcp.frames_per_op", ratio(frames, ops));
    m.insert("tcp.bytes_per_op", ratio(bytes, ops));

    // engine.
    let activations = sum(|t| t.activations);
    let traced_s: f64 = run
        .blocks
        .iter()
        .filter(|b| b.traced)
        .map(|b| b.elapsed_s)
        .sum();
    m.insert("engine.activations_per_op", ratio(activations, ops));
    m.insert(
        "engine.busy_us_per_op",
        ratio(sum(|t| t.busy_ns) / 1000.0, ops),
    );
    let mut on_msg = pooled_ns(traces, |t| &t.on_msg_ns);
    on_msg.sort_unstable();
    m.insert("engine.on_msg_p50_ns", percentile_sorted(&on_msg, 0.5));
    m.insert("engine.on_msg_p99_ns", percentile_sorted(&on_msg, 0.99));
    m.insert(
        "engine.on_timer_p50_ns",
        percentile(&mut pooled_ns(traces, |t| &t.on_timer_ns), 0.5),
    );
    m.insert(
        "engine.actions_per_activation",
        ratio(sum(|t| t.actions), activations),
    );
    m.insert(
        "engine.empty_activation_share",
        ratio(sum(|t| t.empty_activations), activations),
    );
    m.insert(
        "engine.timer_activations_per_s",
        ratio(sum(|t| t.timer_activations), traced_s),
    );

    // batcher / merge, from the servers' public telemetry.
    let counter = |name: &str| -> f64 {
        run.reports
            .iter()
            .map(|r| r.telemetry.counter(name))
            .sum::<u64>() as f64
    };
    let gauge = |name: &str| -> f64 {
        run.reports
            .iter()
            .map(|r| r.telemetry.gauge(name))
            .sum::<u64>() as f64
    };
    let completed = run.completed_at_report as f64;
    m.insert(
        "batcher.values_per_flush",
        ratio(counter("batch.submitted_values"), counter("batch.flushes")),
    );
    m.insert(
        "batcher.flushes_per_op",
        ratio(counter("batch.flushes"), completed),
    );
    if run.engine == EngineKind::MultiRing {
        // Consensus instances the merge consumed that delivered nothing
        // (a lower bound where one instance packs several values).
        let share = 1.0 - ratio(counter("delivered"), gauge("merge_progress"));
        m.insert("merge.skip_share", share.clamp(0.0, 1.0));
    }

    // replica.
    let exec_total: f64 = traces
        .iter()
        .flat_map(|t| t.executes.iter().map(|e| f64::from(e.2)))
        .sum();
    m.insert("replica.exec_ns_per_op", ratio(exec_total, ops));
    let mut execs: Vec<u32> = traces
        .iter()
        .flat_map(|t| t.executes.iter().map(|e| e.2))
        .collect();
    m.insert("replica.exec_p99_ns", percentile(&mut execs, 0.99));
    m.insert("replica.replies_per_op", ratio(client.replies as f64, ops));
    m.insert(
        "replica.useful_reply_ratio",
        ratio(client.first_replies as f64, client.replies as f64),
    );

    // storage.
    m.insert("storage.persists_per_op", ratio(sum(|t| t.persists), ops));
    m.insert(
        "storage.sync_persists_per_op",
        ratio(sum(|t| t.sync_persists), ops),
    );
    let (wait_p50, wait_p99) = quantiles_us(pooled_ns(traces, |t| &t.persist_wait_ns));
    m.insert("storage.persist_wait_p50_us", wait_p50);
    m.insert("storage.persist_wait_p99_us", wait_p99);
    m.insert(
        "storage.wal_bytes_per_op",
        ratio(run.wal_bytes as f64, completed),
    );

    // whole process, from the untraced reference blocks.
    let mut svc = pooled_latencies(run.blocks_of(BlockKind::Svc, false));
    m.insert("lat_p99_us", percentile(&mut svc, 0.99) / 1000.0);
    let (sat_p50, sat_p99) = quantiles_us(pooled_latencies(run.blocks_of(BlockKind::Sat, false)));
    m.insert("sat_lat_p50_us", sat_p50);
    m.insert("sat_lat_p99_us", sat_p99);
    let cpu: f64 = run.blocks_of(BlockKind::Svc, false).map(|b| b.cpu_us).sum();
    let done: u64 = run
        .blocks_of(BlockKind::Svc, false)
        .map(|b| b.completions)
        .sum();
    m.insert("cpu_us_per_op", ratio(cpu, done as f64));
    (m, ledger)
}

/// Everything a traced run reports.
pub struct LayerReport {
    /// Every per-layer metric, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// The reconciliation tables, ready to print.
    pub tables: String,
}

/// The per-layer metrics of a traced run. `tmp` is scratch space for the
/// isolated storage rows.
pub fn per_layer(
    spec: &WorkloadSpec,
    runs: &[EngineRun],
    probe_limit: f64,
    tmp: &Path,
) -> LayerReport {
    // The headline numbers that are not gated are per-layer metrics,
    // taken from the untraced reference blocks.
    let mut values: BTreeMap<String, f64> = headlines(runs, probe_limit)
        .into_iter()
        .map(|m| (m.name, m.value))
        .collect();
    let mut tables = String::new();
    let mut frames: Vec<Message> = Vec::new();
    let mut requests: Vec<Message> = Vec::new();
    let mut records: Vec<PersistRecord> = Vec::new();
    let mut frames_per_op = Vec::new();
    let mut overheads = Vec::new();
    let mut flagged = 0;
    let mut per_engine = Vec::new();
    for run in runs {
        let (layers, ledger) = engine_layers(run);
        for (name, v) in &layers {
            values.insert(format!("{}.{name}", prefix(run.engine)), *v);
        }
        for t in &run.node_traces {
            frames.extend(t.captured_frames.iter().cloned());
            records.extend(t.captured_records.iter().cloned());
        }
        requests.extend(run.client_trace.captured.iter().cloned());
        frames_per_op.push(layers["tcp.frames_per_op"]);
        let (traced_tput, _, d_on) = headline(run, true, probe_limit);
        let (ref_tput, _, d_off) = headline(run, false, probe_limit);
        flagged += d_on + d_off;
        overheads.push(1.0 - ratio(traced_tput, ref_tput));
        values.insert(
            format!("{}.recovery.outage_ms", prefix(run.engine)),
            run.outage_ms.unwrap_or(0.0),
        );
        per_engine.push((run.engine, layers, ledger));
    }
    let isolated = ledger::isolated_rows(
        spec.service,
        &frames,
        &requests,
        &records,
        median(&frames_per_op),
        tmp,
    );
    for (name, v) in &isolated {
        values.insert((*name).to_string(), *v);
    }
    let probes: Vec<_> = runs
        .iter()
        .flat_map(|r| r.blocks.iter().map(|b| b.probe))
        .collect();
    values.insert(
        "gen.handoff_probe_us".into(),
        median(&probes.iter().map(|p| p.handoff_us).collect::<Vec<_>>()),
    );
    values.insert(
        "gen.loopback_rtt_us".into(),
        median(&probes.iter().map(|p| p.loopback_us).collect::<Vec<_>>()),
    );
    values.insert("gen.disturbed_blocks".into(), flagged as f64);
    values.insert(
        "gen.trace_overhead_share".into(),
        overheads.iter().copied().fold(0.0, f64::max),
    );
    values.insert("gen.peak_rss_mb".into(), peak_rss_mb());

    for (engine, layers, ledger) in &per_engine {
        let p = prefix(*engine);
        let verdict = if ledger.attributed() <= ledger.untraced_total {
            "ok"
        } else {
            "OVER-ATTRIBUTED"
        };
        let _ = writeln!(
            tables,
            "ledger {p:<4} (typical svc request, us; traced parts x {:.3} = untraced/traced {:.1}/{:.1}): ingress {:.1} + order {:.1} + exec {:.1} + egress {:.1} = attributed {:.1} <= lat {:.1} [{verdict}]; residual {:.1}",
            ratio(ledger.untraced_total, ledger.traced_total),
            ledger.untraced_total,
            ledger.traced_total,
            ledger.ingress,
            ledger.order,
            ledger.exec,
            ledger.egress,
            ledger.attributed(),
            ledger.untraced_total,
            ledger.residual(),
        );
        // The isolated rows priced at this engine's per-op counts,
        // against the busy time its activations actually took.
        let f = layers["tcp.frames_per_op"];
        let codec =
            (isolated["codec.encode_ns_per_frame"] + isolated["codec.decode_ns_per_frame"]) * f;
        let framing =
            (isolated["framing.write_ns_per_frame"] + isolated["framing.accum_ns_per_frame"]) * f;
        let batcher = (isolated["batcher.push_ns"] + isolated["batcher.drain_ns_per_value"])
            * if layers["batcher.flushes_per_op"] > 0.0 {
                1.0
            } else {
                0.0
            };
        let apply = isolated["store.apply_ns_per_op"]
            + isolated["store.cmd_codec_ns_per_op"]
            + isolated["dlog.apply_ns_per_op"];
        let replicas = layers["replica.replies_per_op"];
        let busy = layers["engine.busy_us_per_op"];
        let exec = layers["replica.exec_ns_per_op"] / 1000.0;
        let _ = writeln!(
            tables,
            "isolated x per-op counts, {p} (us/op): codec {:.2} + framing {:.2} (both on reader/writer threads) | batcher {:.2} <= engine.busy {busy:.2} | app {:.2} x {replicas:.1} replicas vs replica.exec {exec:.2}",
            codec / 1000.0,
            framing / 1000.0,
            batcher / 1000.0,
            apply / 1000.0,
        );
    }

    let metrics = per_layer_names()
        .into_iter()
        .map(|(name, unit)| Metric {
            value: finite(values.get(&name).copied().unwrap_or(0.0)),
            name,
            unit,
        })
        .collect();
    LayerReport { metrics, tables }
}

/// Writes the spans of the first `svc` requests of every engine to
/// `path`, one JSON object per line. Children of one request share its
/// `trace` id and name their parent.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_spans(path: &Path, runs: &[EngineRun]) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut written = 0;
    for run in runs {
        let engine = prefix(run.engine);
        for p in critical_paths(run).into_iter().take(SPAN_REQUESTS) {
            let spans: [(&str, Option<&str>, u64, u64); 6] = [
                ("client.request", None, p.sent, p.replied),
                ("tcp.ingress", Some("client.request"), p.sent, p.entered),
                (
                    "engine.order",
                    Some("client.request"),
                    p.entered,
                    p.exec_start,
                ),
                (
                    "replica.exec",
                    Some("client.request"),
                    p.exec_start,
                    p.exec_end,
                ),
                (
                    "engine.post_exec",
                    Some("client.request"),
                    p.exec_end,
                    p.responded,
                ),
                ("tcp.egress", Some("client.request"), p.responded, p.replied),
            ];
            for (name, parent, start, end) in spans {
                let parent = parent.map_or("null".to_string(), |p| format!("\"{p}\""));
                writeln!(
                    out,
                    "{{\"engine\":\"{engine}\",\"trace\":{},\"span\":\"{name}\",\"parent\":{parent},\"start_ns\":{start},\"end_ns\":{end}}}",
                    p.request
                )?;
                written += 1;
            }
        }
    }
    out.flush()?;
    Ok(written)
}

/// Writes every block to `path` as CSV, so a run whose numbers look off
/// can be read block by block.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_blocks(path: &Path, runs: &[EngineRun], probe_limit: f64) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "engine,kind,traced,block,elapsed_s,completions,p50_us,steal_share,probe_before_us,probe_after_us,disturbed"
    )?;
    for run in runs {
        for (i, b) in run.blocks.iter().enumerate() {
            writeln!(
                out,
                "{},{:?},{},{i},{:.6},{},{:.3},{:.4},{:.3},{:.3},{}",
                prefix(run.engine),
                b.kind,
                u8::from(b.traced),
                b.elapsed_s,
                b.completions,
                b.latency_us(0.5),
                b.steal_share,
                b.probe.loopback_us,
                b.probe_after.loopback_us,
                u8::from(b.disturbed(probe_limit)),
            )?;
        }
    }
    out.flush()
}

/// A metric as one line of text.
pub fn metric_line(m: &Metric) -> String {
    format!("{:<40} {:>14.4} {}", m.name, m.value, m.unit)
}

/// Reads a [`metric_line`] of a headline number (`setup_s`, or an
/// engine's [`HEADLINE`] name) back; `None` for any other line.
pub fn parse_headline_line(line: &str) -> Option<(String, f64)> {
    let mut fields = line.split_ascii_whitespace();
    let (name, value, _unit) = (fields.next()?, fields.next()?, fields.next()?);
    if fields.next().is_some() {
        return None;
    }
    let headline = name == "setup_s"
        || name
            .split_once('.')
            .is_some_and(|(_, rest)| HEADLINE.iter().any(|&(h, _)| h == rest));
    headline.then_some((name.to_string(), value.parse().ok()?))
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            finite(m.value),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

/// The verdict of a [`result_json`] line read back.
#[derive(Debug, PartialEq)]
pub struct RunResult {
    /// Whether every oracle check passed.
    pub correct: bool,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that timed out.
    pub failed: u64,
}

/// Reads the verdict of a [`result_json`] line back (the `repeat` tool
/// checks its children's runs with it).
pub fn parse_result(line: &str) -> Option<RunResult> {
    let field = |key: &str| -> Option<&str> {
        let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        let rest = &line[at..];
        Some(rest[..rest.find([',', '}'])?].trim())
    };
    line.find("\"metrics\": {")?;
    Some(RunResult {
        correct: field("correct")? == "true",
        attempted: field("attempted")?.parse().ok()?,
        failed: field("failed")?.parse().ok()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `(name, unit)` pairs of one array of `BENCHMARK.json`.
    fn declared(json: &str, array: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{array}\"")).expect("array present");
        let body = &json[start..];
        let body = &body[body.find('[').unwrap()..=body.find(']').unwrap()];
        let string_after = |text: &str, key: &str| -> Option<(String, usize)> {
            let at = text.find(&format!("\"{key}\""))?;
            let rest = &text[at + key.len() + 2..];
            let open = rest.find('"')?;
            let close = rest[open + 1..].find('"')?;
            Some((
                rest[open + 1..open + 1 + close].to_string(),
                at + key.len() + 2 + open + 1 + close,
            ))
        };
        let mut out = Vec::new();
        let mut rest = body;
        while let Some(open) = rest.find('{') {
            let object = &rest[open..=open + rest[open..].find('}').unwrap()];
            let (name, _) = string_after(object, "name").unwrap();
            let (unit, _) = string_after(object, "unit").unwrap();
            out.push((name, unit));
            rest = &rest[open + object.len()..];
        }
        out
    }

    fn benchmark_json() -> String {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")
    }

    #[test]
    fn benchmark_json_and_describe_list_the_same_metrics() {
        let json = benchmark_json();
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared(&json, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer_names()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(declared(&json, "per_layer"), layers);
        assert!(layers.len() <= 128);
    }

    #[test]
    fn benchmark_json_lists_the_workloads_and_the_protocol_constants() {
        let json = benchmark_json();
        let start = json.find("\"workloads\"").unwrap();
        let body = &json[start..start + json[start..].find(']').unwrap()];
        for w in crate::workload::WORKLOADS {
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
            assert!(body.contains(&entry), "{}", w.name);
        }
        assert!(json.contains(&format!(
            "\"run_seconds\": {}",
            crate::driver::NOMINAL_SECONDS as u64
        )));
    }

    #[test]
    fn ledger_parts_never_exceed_the_end_to_end_figure() {
        // 100 requests whose parts vary against each other, each with
        // 3 us between `execute` returning and the reply being handed
        // back.
        let paths: Vec<Path5> = (0..100u64)
            .map(|i| {
                let sent = i * 1_000_000;
                let entered = sent + 20_000 + (i % 7) * 1_000;
                let exec_start = entered + 40_000 - (i % 5) * 2_000;
                let exec_end = exec_start + 2_000;
                let responded = exec_end + 3_000;
                Path5 {
                    request: i,
                    sent,
                    entered,
                    exec_start,
                    exec_end,
                    responded,
                    replied: responded + 15_000 + (i % 3) * 4_000,
                }
            })
            .collect();
        // Tracing cost 10%: the untraced figure is below the traced one.
        let traced = EngineLedger::new(&paths, 0.0).traced_total;
        let ledger = EngineLedger::new(&paths, traced * 0.9);
        assert!(ledger.attributed() <= ledger.untraced_total);
        assert!((ledger.residual() - 3.0 * 0.9).abs() < 1e-9, "{ledger:?}");
        let parts = ledger.ingress + ledger.order + ledger.exec + ledger.egress;
        assert!((parts + 3.0 - ledger.traced_total).abs() < 1e-9);
        // No traced request at all: an empty ledger, not a panic.
        assert_eq!(EngineLedger::new(&[], 50.0).attributed(), 0.0);
    }

    #[test]
    fn headline_lines_round_trip_and_other_lines_do_not_parse() {
        let m = Metric {
            name: "wb.lat_p50_us".into(),
            unit: "us",
            value: 146.561,
        };
        assert_eq!(
            parse_headline_line(&metric_line(&m)),
            Some(("wb.lat_p50_us".to_string(), 146.561))
        );
        assert_eq!(
            parse_headline_line("setup_s   0.1126 s"),
            Some(("setup_s".to_string(), 0.1126))
        );
        for other in [
            "wb.lat_p99_us   501.6430 us",
            "wb.tcp.lat_p50_us 1.0 us x",
            "attempted 10 failed 0 correct true peak_rss_mb 43",
            "",
        ] {
            assert_eq!(parse_headline_line(other), None, "{other:?}");
        }
    }

    #[test]
    fn result_line_round_trips() {
        let metrics = vec![
            Metric {
                name: "setup_s".into(),
                unit: "s",
                value: 0.123_456_789,
            },
            Metric {
                name: "ring.tput_ops_s".into(),
                unit: "1/s",
                value: 25_000.0,
            },
            Metric {
                name: "bad".into(),
                unit: "us",
                value: f64::NAN,
            },
        ];
        let line = result_json(true, 1000, 0, &metrics);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.123456789, \"unit\": \"s\"}"));
        assert!(line.contains("\"bad\": {\"value\": 0, \"unit\": \"us\"}"));
        assert_eq!(
            parse_result(&line),
            Some(RunResult {
                correct: true,
                attempted: 1000,
                failed: 0,
            })
        );
        assert_eq!(parse_result("attempted 3 failed 0 correct true"), None);
    }
}
