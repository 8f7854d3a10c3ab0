//! Micro-benchmarks of the hot paths.
//!
//! Two kinds of benchmark live here:
//!
//! * Criterion-style per-iteration timings of the wire codec,
//!   deterministic merge, acceptor voting and YCSB key generation
//!   (printed as `bench <name> <ns>/iter`).
//! * Hand-timed throughput benchmarks of the submission path (batched
//!   vs unbatched, both engines, through a 3-process virtual-clock
//!   pump that routes every `Action::Send` through the real wire
//!   codec) and of burst decoding (per-frame copy-out vs the
//!   zero-copy [`FrameAccumulator`] path), and per-record timings of
//!   filling MRP-Store's tree (the preload before a run and a peer's
//!   checkpoint after a restart) against a tree filled insert by
//!   insert. These write `BENCH_micro.json` next to the other
//!   committed bench artifacts.
//!
//! Regression gate: set `MRP_MICRO_BASELINE=<path to a committed
//! BENCH_micro.json>` and the run exits non-zero if the fresh batched
//! submission throughput of either engine falls below the committed
//! *unbatched* baseline — batching must never be slower than the
//! un-batched path it replaced — or if the store's bulk-loaded tree is
//! not built at least twice as fast as the insert-by-insert one.

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

use bytes::{Bytes, BytesMut};
use criterion::{criterion_group, BatchSize, Criterion, Throughput};
use mrp_amcast::{AmcastEngine, AnyEngine, EngineKind};
use mrp_bench::json::{write_artifact, Value as Json};
use mrp_bench::Scale;
use mrp_store::{KvStore, StoreCommand};
use mrp_transport::framing::{write_frame_into, FrameAccumulator};
use mrp_ycsb::workload::key_for;
use mrp_ycsb::{KeyChooser, SmallRng};
use multiring_paxos::codec;
use multiring_paxos::config::{single_ring, RingTuning};
use multiring_paxos::event::{Action, Event, Message, PersistToken, StateMachine, TimerKind};
use multiring_paxos::multiring::Merger;
use multiring_paxos::paxos::Acceptor;
use multiring_paxos::types::{
    Ballot, ConsensusValue, GroupId, InstanceId, ProcessId, RingId, Time, Value, ValueId,
};

fn phase2_msg(size: usize) -> Message {
    Message::Phase2 {
        ring: RingId::new(0),
        ballot: Ballot::new(1, ProcessId::new(0)),
        first: InstanceId::new(42),
        count: 1,
        value: ConsensusValue::Values(vec![Value::new(
            ValueId::new(ProcessId::new(1), 7),
            GroupId::new(0),
            vec![0xABu8; size],
        )]),
        votes: 2,
    }
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec");
    for size in [512usize, 32 * 1024] {
        let msg = phase2_msg(size);
        group.throughput(Throughput::Bytes(codec::encoded_len(&msg) as u64));
        group.bench_function(format!("encode_{size}"), |b| {
            b.iter(|| {
                let mut buf = BytesMut::with_capacity(codec::encoded_len(&msg));
                codec::encode(&msg, &mut buf);
                buf
            });
        });
        let encoded = codec::encode_to_bytes(&msg);
        group.bench_function(format!("decode_{size}"), |b| {
            b.iter(|| {
                let mut buf = encoded.clone();
                codec::decode(&mut buf).expect("valid frame")
            });
        });
    }
    group.finish();
}

fn bench_merge(c: &mut Criterion) {
    c.bench_function("merge_poll_2rings_1000", |b| {
        b.iter_batched(
            || {
                let mut m = Merger::new(vec![GroupId::new(0), GroupId::new(1)], 1);
                for i in 1..=1000u64 {
                    for g in 0..2u16 {
                        m.push(
                            GroupId::new(g),
                            InstanceId::new(i),
                            1,
                            ConsensusValue::Values(vec![Value::new(
                                ValueId::new(ProcessId::new(u32::from(g)), i),
                                GroupId::new(g),
                                vec![0u8; 64],
                            )]),
                        );
                    }
                }
                m
            },
            |mut m| m.poll(),
            BatchSize::SmallInput,
        );
    });
}

fn bench_acceptor(c: &mut Criterion) {
    c.bench_function("acceptor_phase2_vote_x100", |b| {
        b.iter_batched(
            || {
                let mut a = Acceptor::new(RingId::new(0));
                a.on_phase1a(Ballot::new(1, ProcessId::new(0)), InstanceId::new(1));
                let v = ConsensusValue::Values(vec![Value::new(
                    ValueId::new(ProcessId::new(1), 1),
                    GroupId::new(0),
                    vec![0u8; 512],
                )]);
                (a, v)
            },
            |(mut a, v)| {
                for i in 1..=100u64 {
                    a.on_phase2(Ballot::new(1, ProcessId::new(0)), InstanceId::new(i), 1, &v);
                }
                a
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_ycsb(c: &mut Criterion) {
    c.bench_function("zipfian_next_x1000", |b| {
        let chooser = KeyChooser::zipfian(1_000_000);
        let mut rng = SmallRng::new(1);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..1000 {
                acc = acc.wrapping_add(chooser.next(&mut rng));
            }
            acc
        });
    });
}

criterion_group!(
    criterion_benches,
    bench_codec,
    bench_merge,
    bench_acceptor,
    bench_ycsb
);

// ---------------------------------------------------------------------
// Hand-timed throughput benchmarks (the criterion shim cannot export
// its timings, so these measure wall time themselves).
// ---------------------------------------------------------------------

const PAYLOAD: usize = 64;
const CHUNK: usize = 64;

/// A 3-process deployment driven to completion on a virtual clock.
///
/// Every [`Action::Send`] is encoded with the real wire codec and
/// decoded again at the destination, so the measured cost includes the
/// per-frame serialization that batching amortizes. Persists complete
/// immediately (in-memory durability); timers fire only when no
/// message is in flight, exactly like an idle network.
struct Pump {
    engines: Vec<AnyEngine>,
    inbox: VecDeque<(ProcessId, ProcessId, Bytes)>,
    persists: VecDeque<(ProcessId, PersistToken)>,
    timers: BTreeMap<(u64, u64), (ProcessId, TimerKind)>,
    now_us: u64,
    seq: u64,
    submitter: ProcessId,
    delivered: u64,
    wire_frames: u64,
    wire_bytes: u64,
}

impl Pump {
    fn new(kind: EngineKind, batched: bool) -> Pump {
        let tuning = RingTuning {
            // Batched deployments let one consensus instance carry a
            // whole submission batch; unbatched is the Figure 3
            // one-value-per-instance setting.
            values_per_instance: if batched { CHUNK } else { 1 },
            ..RingTuning::default()
        };
        let config = single_ring(3, tuning);
        let mut pump = Pump {
            engines: (0..3)
                .map(|p| kind.build(ProcessId::new(p), config.clone()))
                .collect(),
            inbox: VecDeque::new(),
            persists: VecDeque::new(),
            timers: BTreeMap::new(),
            now_us: 0,
            seq: 0,
            submitter: ProcessId::new(1),
            delivered: 0,
            wire_frames: 0,
            wire_bytes: 0,
        };
        for p in 0..3usize {
            let acts = pump.engines[p].on_event(Time::ZERO, Event::Start);
            pump.absorb(ProcessId::new(p as u32), acts);
        }
        pump
    }

    fn absorb(&mut self, at: ProcessId, actions: Vec<Action>) {
        for a in actions {
            match a {
                Action::Send { to, msg } => {
                    let mut buf = BytesMut::with_capacity(codec::encoded_len(&msg));
                    codec::encode(&msg, &mut buf);
                    let frame = buf.freeze();
                    self.wire_frames += 1;
                    self.wire_bytes += frame.len() as u64;
                    self.inbox.push_back((at, to, frame));
                }
                Action::SetTimer { after_us, timer } => {
                    self.seq += 1;
                    self.timers
                        .insert((self.now_us + after_us, self.seq), (at, timer));
                }
                Action::Persist { token, .. } => self.persists.push_back((at, token)),
                Action::Deliver { .. } => {
                    if at == self.submitter {
                        self.delivered += 1;
                    }
                }
                Action::TrimStorage { .. } | Action::Respond { .. } => {}
            }
        }
    }

    fn step(&mut self) {
        if let Some((at, token)) = self.persists.pop_front() {
            let now = Time::from_micros(self.now_us);
            let acts = self.engines[at.value() as usize].on_event(now, Event::PersistDone(token));
            self.absorb(at, acts);
        } else if let Some((from, to, frame)) = self.inbox.pop_front() {
            let msg = codec::decode(&mut frame.clone()).expect("pump frames are valid");
            let now = Time::from_micros(self.now_us);
            let acts =
                self.engines[to.value() as usize].on_event(now, Event::Message { from, msg });
            self.absorb(to, acts);
        } else if let Some((&key, _)) = self.timers.iter().next() {
            let (at, timer) = self.timers.remove(&key).expect("just observed");
            self.now_us = self.now_us.max(key.0);
            let now = Time::from_micros(self.now_us);
            let acts = self.engines[at.value() as usize].on_event(now, Event::Timer(timer));
            self.absorb(at, acts);
        } else {
            panic!(
                "pump wedged with {} values delivered and nothing runnable",
                self.delivered
            );
        }
    }

    fn run_until_delivered(&mut self, target: u64) {
        let mut budget = 200_000_000u64;
        while self.delivered < target {
            self.step();
            budget -= 1;
            assert!(budget > 0, "pump exceeded its event budget");
        }
    }
}

struct SubmitRow {
    engine: &'static str,
    mode: &'static str,
    values: u64,
    elapsed_ns: u128,
    values_per_sec: f64,
    wire_frames: u64,
    wire_bytes: u64,
}

/// One measured submission run: `values` 64-byte payloads submitted at
/// a non-coordinator process, pumped until every one is delivered
/// locally. Batched mode submits in [`CHUNK`]-value batches through
/// [`AmcastEngine::multicast_batch`]; unbatched loops `multicast`.
fn run_submit(kind: EngineKind, batched: bool, values: u64) -> SubmitRow {
    let mut pump = Pump::new(kind, batched);
    let groups = [GroupId::new(0)];
    let submitter = pump.submitter;
    let start = Instant::now();
    if batched {
        let mut left = values;
        while left > 0 {
            let n = left.min(CHUNK as u64);
            let payloads: Vec<Bytes> = (0..n).map(|_| Bytes::from(vec![0xA5u8; PAYLOAD])).collect();
            let now = Time::from_micros(pump.now_us);
            let (_ids, acts) = pump.engines[submitter.value() as usize]
                .multicast_batch(now, &groups, payloads)
                .expect("submitter may propose to group 0");
            pump.absorb(submitter, acts);
            left -= n;
        }
    } else {
        for _ in 0..values {
            let now = Time::from_micros(pump.now_us);
            let (_id, acts) = pump.engines[submitter.value() as usize]
                .multicast(now, &groups, Bytes::from(vec![0xA5u8; PAYLOAD]))
                .expect("submitter may propose to group 0");
            pump.absorb(submitter, acts);
        }
    }
    pump.run_until_delivered(values);
    let elapsed = start.elapsed();
    SubmitRow {
        engine: kind.name(),
        mode: if batched { "batched" } else { "unbatched" },
        values,
        elapsed_ns: elapsed.as_nanos(),
        values_per_sec: values as f64 / elapsed.as_secs_f64(),
        wire_frames: pump.wire_frames,
        wire_bytes: pump.wire_bytes,
    }
}

/// Best-of-`reps` submission throughput (first rep doubles as warmup).
fn bench_submit(kind: EngineKind, batched: bool, values: u64, reps: u32) -> SubmitRow {
    let mut best: Option<SubmitRow> = None;
    for _ in 0..reps {
        let row = run_submit(kind, batched, values);
        if best
            .as_ref()
            .is_none_or(|b| row.values_per_sec > b.values_per_sec)
        {
            best = Some(row);
        }
    }
    best.expect("at least one rep")
}

struct DecodeRow {
    name: &'static str,
    frames: u64,
    bytes: u64,
    elapsed_ns: u128,
    mb_per_sec: f64,
}

/// A burst of length-prefixed 32 KiB frames, as one TCP read delivers.
fn burst(frames: usize) -> Vec<u8> {
    let msg = phase2_msg(32 * 1024);
    let mut wire = Vec::new();
    let mut scratch = BytesMut::new();
    for _ in 0..frames {
        write_frame_into(&mut wire, &msg, &mut scratch).expect("Vec writes never fail");
    }
    wire
}

/// Decodes `reps` bursts the way the accumulator worked before the
/// zero-copy shim: append the read into a `Vec<u8>`, copy each frame
/// body out into a fresh allocation, decode the copy, then shift the
/// consumed prefix out of the buffer.
fn decode_copying(wire: &[u8], reps: u32) -> DecodeRow {
    let mut frames = 0u64;
    let mut buf: Vec<u8> = Vec::new();
    let start = Instant::now();
    for _ in 0..reps {
        buf.extend_from_slice(wire);
        let mut off = 0usize;
        while buf.len() - off >= 4 {
            let len = u32::from_le_bytes(buf[off..off + 4].try_into().expect("4 bytes")) as usize;
            if buf.len() - off < 4 + len {
                break;
            }
            let body: Vec<u8> = buf[off + 4..off + 4 + len].to_vec();
            let mut frame = Bytes::from(body);
            let msg = codec::decode(&mut frame).expect("valid frame");
            assert!(matches!(msg, Message::Phase2 { .. }));
            frames += 1;
            off += 4 + len;
        }
        buf.drain(..off);
    }
    let elapsed = start.elapsed();
    let bytes = wire.len() as u64 * u64::from(reps);
    DecodeRow {
        name: "copying_32k",
        frames,
        bytes,
        elapsed_ns: elapsed.as_nanos(),
        mb_per_sec: bytes as f64 / elapsed.as_secs_f64() / (1024.0 * 1024.0),
    }
}

/// Decodes `reps` bursts through [`FrameAccumulator`]: one
/// freeze per burst, every payload a zero-copy slice of it.
fn decode_zero_copy(wire: &[u8], reps: u32) -> DecodeRow {
    let mut frames = 0u64;
    let mut acc = FrameAccumulator::new();
    let start = Instant::now();
    for _ in 0..reps {
        acc.extend(wire);
        while let Some(msg) = acc.next().expect("valid frames") {
            assert!(matches!(msg, Message::Phase2 { .. }));
            frames += 1;
        }
    }
    let elapsed = start.elapsed();
    let bytes = wire.len() as u64 * u64::from(reps);
    DecodeRow {
        name: "zero_copy_32k",
        frames,
        bytes,
        elapsed_ns: elapsed.as_nanos(),
        mb_per_sec: bytes as f64 / elapsed.as_secs_f64() / (1024.0 * 1024.0),
    }
}

/// Records in one preload: what `bench/` loads into every replica.
const PRELOAD_RECORDS: u64 = 10_000;
const PRELOAD_VALUE: usize = 100;

struct PreloadRow {
    name: &'static str,
    ns_per_record: f64,
}

fn preload_records() -> Vec<(Bytes, Bytes)> {
    (0..PRELOAD_RECORDS)
        .map(|i| {
            let value = vec![i as u8; PRELOAD_VALUE];
            (Bytes::from(key_for(i).into_bytes()), Bytes::from(value))
        })
        .collect()
}

/// Best-of-`reps` time of `run` over a fresh `input()`, per record;
/// making the input and dropping the result are not timed.
fn preload_row<I, O>(
    name: &'static str,
    reps: u32,
    input: impl Fn() -> I,
    run: impl Fn(I) -> O,
) -> PreloadRow {
    let best = (0..reps)
        .map(|_| {
            let input = input();
            let start = Instant::now();
            let output = black_box(run(black_box(input)));
            let elapsed = start.elapsed();
            drop(output);
            elapsed
        })
        .min()
        .expect("at least one rep");
    PreloadRow {
        name,
        ns_per_record: best.as_nanos() as f64 / PRELOAD_RECORDS as f64,
    }
}

/// Filling a replica's tree with [`PRELOAD_RECORDS`] ascending
/// `user…` keys, and making the keys.
fn bench_preload(reps: u32) -> Vec<PreloadRow> {
    let first_key = StoreCommand::Read {
        key: Bytes::from(key_for(0).into_bytes()),
    };
    let snapshot = {
        let mut kv = KvStore::new();
        for (k, v) in preload_records() {
            kv.load(k, v);
        }
        kv.snapshot()
    };
    vec![
        // The reference: one root-to-leaf descent per record, which is
        // what `KvStore::load` did before it staged.
        preload_row("insert_each", reps, preload_records, |records| {
            let mut tree = BTreeMap::new();
            for (k, v) in records {
                tree.insert(k, v);
            }
            tree
        }),
        preload_row("staged_build", reps, preload_records, |records| {
            let mut kv = KvStore::new();
            for (k, v) in records {
                kv.load(k, v);
            }
            black_box(kv.apply(&first_key));
            kv
        }),
        preload_row(
            "restore",
            reps,
            || (),
            |()| {
                let mut kv = KvStore::new();
                kv.restore(&snapshot);
                black_box(kv.apply(&first_key));
                kv
            },
        ),
        // The reference: the formatter `key_for` was.
        preload_row(
            "key_format",
            reps,
            || (),
            |()| {
                for i in 0..PRELOAD_RECORDS {
                    let index = black_box(i);
                    black_box(format!("user{index:012}"));
                }
            },
        ),
        preload_row(
            "key_for",
            reps,
            || (),
            |()| {
                for i in 0..PRELOAD_RECORDS {
                    black_box(key_for(black_box(i)));
                }
            },
        ),
    ]
}

/// How many times faster row `fast` is than row `slow`.
fn preload_speedup(rows: &[PreloadRow], slow: &str, fast: &str) -> f64 {
    let ns = |name| {
        rows.iter()
            .find(|r| r.name == name)
            .map_or(0.0, |r| r.ns_per_record)
    };
    ns(slow) / ns(fast).max(1e-9)
}

fn to_json(
    scale: Scale,
    submit: &[SubmitRow],
    decode: &[DecodeRow],
    preload: &[PreloadRow],
) -> Json {
    let vps = |engine: &str, mode: &str| {
        submit
            .iter()
            .find(|r| r.engine == engine && r.mode == mode)
            .map_or(0.0, |r| r.values_per_sec)
    };
    let speedup = |engine| vps(engine, "batched") / vps(engine, "unbatched").max(1e-9);
    let decode_speedup = match (decode.first(), decode.last()) {
        (Some(copying), Some(zero)) if copying.mb_per_sec > 0.0 => {
            zero.mb_per_sec / copying.mb_per_sec
        }
        _ => 0.0,
    };
    Json::object([
        ("scale", scale.pick("full", "smoke").into()),
        (
            "submit",
            Json::array(submit, |r| {
                Json::object([
                    ("engine", r.engine.into()),
                    ("mode", r.mode.into()),
                    ("values", r.values.into()),
                    ("elapsed_ns", (r.elapsed_ns as u64).into()),
                    ("values_per_sec", Json::rounded(r.values_per_sec, 1)),
                    ("wire_frames", r.wire_frames.into()),
                    ("wire_bytes", r.wire_bytes.into()),
                ])
            }),
        ),
        (
            "decode",
            Json::array(decode, |r| {
                Json::object([
                    ("name", r.name.into()),
                    ("frames", r.frames.into()),
                    ("bytes", r.bytes.into()),
                    ("elapsed_ns", (r.elapsed_ns as u64).into()),
                    ("mb_per_sec", Json::rounded(r.mb_per_sec, 1)),
                ])
            }),
        ),
        (
            "preload",
            Json::array(preload, |r| {
                Json::object([
                    ("name", r.name.into()),
                    ("records", PRELOAD_RECORDS.into()),
                    ("ns_per_record", Json::rounded(r.ns_per_record, 1)),
                ])
            }),
        ),
        (
            "speedup",
            Json::object([
                ("submit_multiring", Json::rounded(speedup("multiring"), 2)),
                ("submit_wbcast", Json::rounded(speedup("wbcast"), 2)),
                ("decode_32k", Json::rounded(decode_speedup, 2)),
                (
                    "preload_build",
                    Json::rounded(preload_speedup(preload, "insert_each", "staged_build"), 2),
                ),
                (
                    "preload_key_for",
                    Json::rounded(preload_speedup(preload, "key_format", "key_for"), 2),
                ),
            ]),
        ),
    ])
}

/// `MRP_MICRO_BASELINE=<path>`: fail the run if batched submission
/// throughput regressed below the unbatched baseline, or the store's
/// bulk load towards the insert-by-insert one.
///
/// Three checks per run:
///
/// * Same machine: the tree built from a bulk load must be ready at
///   least twice as fast as one filled insert by insert (measured 3–4×;
///   both sides run here, so the machine cancels out).
/// * Same machine (hardware-independent): each engine's fresh batched
///   run must stay within 10% of its fresh unbatched run — batching
///   must never lose to the path it replaces.
/// * Against the committed artifact: fresh batched multiring must beat
///   the committed *unbatched* multiring baseline outright. The
///   multiring gap is >4x, so the check holds across the hardware
///   differences between the committing machine and CI; the wbcast gap
///   (frame coalescing only — the virtual pump does not price
///   syscalls) is too thin to compare across machines.
fn check_baseline(
    submit: &[SubmitRow],
    preload: &[PreloadRow],
    baseline: Option<(String, String)>,
) -> Result<(), String> {
    let Some((path, text)) = baseline else {
        return Ok(());
    };
    let build = preload_speedup(preload, "insert_each", "staged_build");
    if build < 2.0 {
        return Err(format!(
            "the store's staged build is {build:.2}x insert-by-insert, below the 2x floor"
        ));
    }
    println!("baseline gate: staged build {build:.2}x insert-by-insert");
    let fresh = |engine: &str, mode: &str| {
        submit
            .iter()
            .find(|r| r.engine == engine && r.mode == mode)
            .map(|r| r.values_per_sec)
            .ok_or_else(|| format!("fresh run has no {mode} {engine} row"))
    };
    for engine in ["multiring", "wbcast"] {
        let unbatched = fresh(engine, "unbatched")?;
        let batched = fresh(engine, "batched")?;
        if batched < unbatched * 0.9 {
            return Err(format!(
                "batched {engine} submission lost to unbatched on the same machine: \
                 {batched:.0} < 0.9 x {unbatched:.0} values/s"
            ));
        }
        println!(
            "baseline gate: {engine} batched {batched:.0} vs unbatched {unbatched:.0} values/s"
        );
    }
    let doc = mrp_bench::json::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
    let committed = doc
        .get("submit")
        .and_then(|v| v.as_array())
        .ok_or_else(|| format!("{path}: no submit array"))?
        .iter()
        .find(|r| {
            r.get("engine").and_then(|v| v.as_str()) == Some("multiring")
                && r.get("mode").and_then(|v| v.as_str()) == Some("unbatched")
        })
        .and_then(|r| r.get("values_per_sec"))
        .and_then(mrp_bench::json::Value::as_f64)
        .ok_or_else(|| format!("{path}: no unbatched multiring baseline row"))?;
    let batched = fresh("multiring", "batched")?;
    if batched < committed {
        return Err(format!(
            "batched multiring submission regressed below the committed unbatched \
             baseline: {batched:.0} < {committed:.0} values/s"
        ));
    }
    println!(
        "baseline gate: batched multiring {batched:.0} values/s >= \
         committed unbatched baseline {committed:.0} values/s"
    );
    Ok(())
}

fn main() {
    criterion_benches();

    // Snapshot the committed baseline before this run overwrites the
    // artifact in place (CI points MRP_MICRO_BASELINE at the same
    // path the run writes).
    let baseline = std::env::var("MRP_MICRO_BASELINE").ok().map(|path| {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("MICRO BASELINE GATE FAILED: read {path}: {e}");
            std::process::exit(1);
        });
        (path, text)
    });

    let scale = Scale::from_env();
    let values = scale.pick(65_536u64, 8_192u64);
    let reps = scale.pick(5u32, 3u32);

    let mut submit = Vec::new();
    for kind in EngineKind::ALL {
        for batched in [false, true] {
            let row = bench_submit(kind, batched, values, reps);
            println!(
                "submit {}/{}: {:.0} values/s ({} values, {} wire frames, {} wire bytes)",
                row.engine,
                row.mode,
                row.values_per_sec,
                row.values,
                row.wire_frames,
                row.wire_bytes
            );
            submit.push(row);
        }
    }

    let wire = burst(scale.pick(64, 16));
    let decode_reps = scale.pick(200u32, 50u32);
    // Warmup, then measure.
    decode_copying(&wire, 2);
    decode_zero_copy(&wire, 2);
    let decode = vec![
        decode_copying(&wire, decode_reps),
        decode_zero_copy(&wire, decode_reps),
    ];
    for r in &decode {
        println!(
            "decode {}: {:.0} MB/s ({} frames, {} bytes)",
            r.name, r.mb_per_sec, r.frames, r.bytes
        );
    }

    let preload = bench_preload(scale.pick(30u32, 10u32));
    for r in &preload {
        println!("preload {}: {:.1} ns/record", r.name, r.ns_per_record);
    }

    let doc = to_json(scale, &submit, &decode, &preload);
    write_artifact(
        &scale.artifact("micro"),
        &doc,
        "submit, decode and preload rows",
    );

    if let Err(e) = check_baseline(&submit, &preload, baseline) {
        eprintln!("MICRO BASELINE GATE FAILED: {e}");
        std::process::exit(1);
    }
}
