//! Validates the checked-in benchmark baselines `BENCH_fig9.json`,
//! `BENCH_micro.json` and `BENCH_multigroup.json`: they must parse as
//! JSON and carry the documented schema — the client-side rows plus the
//! `engine_telemetry` section (fig9), and the submission/decode
//! throughput rows — their wire-frame and wire-byte counts pinned
//! exactly — and the store's preload rows with their speedup summary
//! (micro) — and hold the shape they were accepted on (multigroup). CI
//! regenerates the files at smoke scale and re-runs this test, so a
//! writer/schema drift fails loudly in both places.
//!
//! And the paper scorecard: for `BENCH_fig3`–`fig8` and the two
//! ablations, the claim of the paper's evaluation as an inequality
//! over the committed rows — one test per artifact, and the table in
//! README.md rendered from the same lines.

use mrp_bench::json::{self, Value};
use mrp_bench::Figure;

fn load(name: &str) -> Value {
    let path = format!("{}/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("checked-in baseline {path} must be readable: {e}"));
    json::parse(&text).unwrap_or_else(|e| panic!("{path} must parse as JSON: {e}"))
}

fn baseline() -> Value {
    load("BENCH_fig9.json")
}

#[test]
fn fig9_baseline_rows_match_schema() {
    let doc = baseline();
    let rows = doc
        .get("rows")
        .and_then(Value::as_array)
        .expect("top-level \"rows\" array");
    assert!(!rows.is_empty(), "baseline must carry at least one cell");
    let mut engines = std::collections::BTreeSet::new();
    for row in rows {
        let engine = row
            .get("engine")
            .and_then(Value::as_str)
            .expect("row.engine");
        engines.insert(engine.to_string());
        assert!(row.get("groups").and_then(Value::as_u64).is_some());
        for field in ["ops_per_sec", "latency_ms", "p50_ms", "p99_ms"] {
            let v = row
                .get(field)
                .and_then(Value::as_f64)
                .unwrap_or_else(|| panic!("row.{field} must be a number"));
            assert!(v.is_finite() && v >= 0.0, "row.{field} = {v}");
        }
    }
    assert_eq!(
        engines.into_iter().collect::<Vec<_>>(),
        ["multiring", "wbcast"],
        "the baseline compares both engines"
    );
}

#[test]
fn fig9_baseline_engine_telemetry_matches_schema() {
    let doc = baseline();
    let cells = doc
        .get("engine_telemetry")
        .and_then(Value::as_array)
        .expect("top-level \"engine_telemetry\" array");
    let rows = doc.get("rows").and_then(Value::as_array).expect("rows");
    assert_eq!(
        cells.len(),
        rows.len(),
        "one telemetry entry per benchmark cell"
    );
    for cell in cells {
        let engine = cell
            .get("engine")
            .and_then(Value::as_str)
            .expect("cell.engine");
        assert!(cell.get("nodes").and_then(Value::as_u64).unwrap_or(0) > 0);
        assert_eq!(
            cell.get("healthy").and_then(Value::as_bool),
            Some(true),
            "{engine}: a checked-in baseline must come from a healthy run"
        );
        let counters = cell
            .get("counters")
            .and_then(Value::as_object)
            .expect("cell.counters object");
        // The engines' delivery counters must show the workload actually
        // flowed through the instrumented phases.
        let delivered_counter = match engine {
            "multiring" => "delivered",
            "wbcast" => "sub.delivered",
            other => panic!("unknown engine {other}"),
        };
        let delivered = counters
            .get(delivered_counter)
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("{engine}: missing counter {delivered_counter}"));
        assert!(delivered > 0, "{engine}: no deliveries in baseline");
        for (name, v) in counters {
            assert!(v.as_u64().is_some(), "{engine}: counter {name} not a u64");
        }
        let histograms = cell
            .get("histograms")
            .and_then(Value::as_object)
            .expect("cell.histograms object");
        let latency_histogram = match engine {
            "multiring" => "ring_latency_us",
            "wbcast" => "round.delivery_latency_us",
            other => panic!("unknown engine {other}"),
        };
        let h = histograms
            .get(latency_histogram)
            .unwrap_or_else(|| panic!("{engine}: missing histogram {latency_histogram}"));
        let count = h.get("count").and_then(Value::as_u64).expect("count");
        assert!(count > 0, "{engine}: empty latency histogram in baseline");
        for field in ["p50_us", "p99_us", "max_us"] {
            assert!(
                h.get(field).and_then(Value::as_u64).is_some(),
                "{engine}: histogram field {field}"
            );
        }
    }
}

#[test]
fn micro_baseline_matches_schema_and_batching_pays() {
    let doc = load("BENCH_micro.json");
    let submit = doc
        .get("submit")
        .and_then(Value::as_array)
        .expect("top-level \"submit\" array");
    let mut seen = std::collections::BTreeSet::new();
    for row in submit {
        let engine = row
            .get("engine")
            .and_then(Value::as_str)
            .expect("row.engine");
        let mode = row.get("mode").and_then(Value::as_str).expect("row.mode");
        seen.insert(format!("{engine}/{mode}"));
        // Counts of an in-process pump over the smoke scale's 8 192
        // values: they repeat exactly, so a codec, coalescing or
        // batching change that moves one has to say so here. PR 22
        // moved wbcast/unbatched from (32 768, 2 768 896): frame
        // coalescing runs in every activation now, so the `Ordered`
        // and the `FinalAck` a sequencer sends the submitter in one
        // activation share a `Batch` frame (a quarter fewer frames, 5
        // bytes of batch header a value more).
        let (wire_frames, wire_bytes) = match (engine, mode) {
            ("multiring", "unbatched") => (49_156, 3_719_268),
            ("multiring", "batched") => (772, 2_703_204),
            ("wbcast", "unbatched") => (24_576, 2_809_856),
            ("wbcast", "batched") => (384, 2_770_816),
            other => panic!("unknown submit row {other:?}"),
        };
        let count = |field: &str| row.get(field).and_then(Value::as_u64);
        assert_eq!(count("values"), Some(8_192), "{engine}/{mode}");
        assert_eq!(count("wire_frames"), Some(wire_frames), "{engine}/{mode}");
        assert_eq!(count("wire_bytes"), Some(wire_bytes), "{engine}/{mode}");
        let vps = row
            .get("values_per_sec")
            .and_then(Value::as_f64)
            .expect("row.values_per_sec");
        assert!(vps.is_finite() && vps > 0.0, "{engine}/{mode}: vps = {vps}");
    }
    assert_eq!(
        seen.into_iter().collect::<Vec<_>>(),
        [
            "multiring/batched",
            "multiring/unbatched",
            "wbcast/batched",
            "wbcast/unbatched"
        ],
        "both engines, both submission modes"
    );
    let decode = doc
        .get("decode")
        .and_then(Value::as_array)
        .expect("top-level \"decode\" array");
    assert_eq!(decode.len(), 2, "copying and zero-copy decode rows");
    for row in decode {
        assert!(row.get("name").and_then(Value::as_str).is_some());
        let mbps = row
            .get("mb_per_sec")
            .and_then(Value::as_f64)
            .expect("row.mb_per_sec");
        assert!(mbps.is_finite() && mbps > 0.0);
    }
    let preload = doc
        .get("preload")
        .and_then(Value::as_array)
        .expect("top-level \"preload\" array");
    let names: Vec<&str> = preload
        .iter()
        .map(|row| row.get("name").and_then(Value::as_str).expect("row.name"))
        .collect();
    assert_eq!(
        names,
        [
            "insert_each",
            "load_then_read",
            "restore",
            "key_format",
            "key_for",
            "make_records"
        ],
        "the two references, what replaced them, and making the records"
    );
    for row in preload {
        assert!(row.get("records").and_then(Value::as_u64).unwrap_or(0) > 0);
        let ns = row
            .get("ns_per_record")
            .and_then(Value::as_f64)
            .expect("row.ns_per_record");
        assert!(ns.is_finite() && ns > 0.0);
    }
    let store = doc
        .get("store")
        .and_then(Value::as_array)
        .expect("top-level \"store\" array");
    let names: Vec<&str> = store
        .iter()
        .map(|row| row.get("name").and_then(Value::as_str).expect("row.name"))
        .collect();
    assert_eq!(
        names,
        ["btree_read", "point_read", "point_update"],
        "the reference and the store's point operations"
    );
    for row in store {
        let ns = row
            .get("ns_per_op")
            .and_then(Value::as_f64)
            .expect("row.ns_per_op");
        assert!(ns.is_finite() && ns > 0.0);
    }
    let first_read = doc
        .get("first_read_cold_us")
        .and_then(Value::as_f64)
        .expect("first_read_cold_us");
    assert!(first_read.is_finite() && first_read > 0.0);
    let speedup = doc
        .get("speedup")
        .and_then(Value::as_object)
        .expect("top-level \"speedup\" object");
    let s = |k: &str| {
        speedup
            .get(k)
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("speedup.{k}"))
    };
    // The headline claim: packing submission batches into shared
    // consensus instances beats one-value-per-instance by a wide
    // margin. 2.0 is a deliberately loose floor (measured ~4.5x) so
    // slow CI machines don't flake; a real regression lands far below.
    assert!(
        s("submit_multiring") >= 2.0,
        "batched multiring submission must stay well ahead of unbatched \
         (measured {:.2}x, floor 2.0x)",
        s("submit_multiring")
    );
    // Frame coalescing alone cannot lose throughput; the virtual pump
    // does not price syscalls, so parity is the honest expectation.
    assert!(
        s("submit_wbcast") >= 0.8,
        "batched wbcast submission fell behind unbatched: {:.2}x",
        s("submit_wbcast")
    );
    assert!(
        s("decode_32k") >= 1.0,
        "zero-copy burst decode fell behind the copying path: {:.2}x",
        s("decode_32k")
    );
    // MRP-Store's cold start: a bulk load searched in place against
    // one tree descent per record, and the key written by hand against
    // the formatter (measured 2-2.4x; its floor is the allocation both
    // sides make). Its steady state: a point read bisects the loaded
    // records, which must not lose to the plain tree it replaced.
    assert!(
        s("preload_build") >= 2.0,
        "load-then-read must stay well ahead of insert-by-insert: {:.2}x",
        s("preload_build")
    );
    assert!(
        s("point_read") >= 1.0,
        "the store's point read fell behind a plain BTreeMap's: {:.2}x",
        s("point_read")
    );
    assert!(
        s("preload_key_for") >= 1.5,
        "key_for fell back towards the formatter it replaced: {:.2}x",
        s("preload_key_for")
    );
}

/// The shape `BENCH_multigroup.json` was accepted on (PR 22), as
/// inequalities over its rows — virtual time, so they hold to the digit
/// or the artifact's byte-diff fails first. Submission used to be a
/// mode: holding every request for a window won the 500 ‰ rows and
/// lost the 0 ‰ ones by 12–43 %. The one path that replaced the switch
/// must hold the better of the two on every row: the unheld rows where
/// no request addresses two groups, at least the held ones where half
/// of them do (the ring engine's 500 ‰ row against its unheld figure;
/// ROADMAP has what is left of that one). And no row says which mode
/// it ran in.
#[test]
fn multigroup_baseline_holds_the_better_of_both_deleted_modes_on_every_row() {
    let doc = load("BENCH_multigroup.json");
    let rows = doc.as_array().expect("top-level array of rows");
    // (engine, multi-group ‰, ops/s floor, p99 ceiling in ms)
    let floors = [
        ("multiring", 0, 64_272.0 * 0.999, 0.439),
        ("multiring", 500, 2_329.0, f64::INFINITY),
        ("wbcast", 0, 99_473.0, 0.279),
        ("wbcast", 500, 45_133.0, f64::INFINITY),
    ];
    assert_eq!(rows.len(), floors.len(), "one row per (engine, ‰)");
    for (row, (engine, per_mille, ops_floor, p99_ceiling)) in rows.iter().zip(floors) {
        assert!(
            row.get("batch").is_none(),
            "{engine}/{per_mille}: a mode column"
        );
        assert_eq!(row.get("engine").and_then(Value::as_str), Some(engine));
        assert_eq!(
            row.get("multi_per_mille").and_then(Value::as_u64),
            Some(per_mille)
        );
        let num = |field: &str| row.get(field).and_then(Value::as_f64).expect(field);
        assert!(
            num("ops_per_sec") >= ops_floor,
            "{engine}/{per_mille}: {} ops/s under the floor of {ops_floor}",
            num("ops_per_sec")
        );
        assert!(
            num("p99_ms") <= p99_ceiling,
            "{engine}/{per_mille}: p99 {} ms over {p99_ceiling}",
            num("p99_ms")
        );
    }
}

// ------------------------------------------------------------ scorecard

/// One line of the scorecard: a claim of the paper's evaluation (§8;
/// §3 and §4 for the ablations, as the bench headers and the baselines'
/// module docs quote them) and what the committed smoke rows say.
struct Claim {
    figure: &'static str,
    claim: &'static str,
    /// The rows the verdict was read from, as the README shows them.
    ours: String,
    holds: bool,
}

/// Claims the simulator does not reproduce, by `Claim::claim`. Each is
/// an entry under ROADMAP.md "Measured anomalies" with its row; the
/// assertion is not weakened — the line says "does not hold" until the
/// model (or the claim) is fixed and the entry struck.
const ANOMALIES: [&str; 1] = ["async-ssd ≥ async-disk throughput at every request size"];

fn rows(name: &str) -> Vec<Value> {
    load(name).as_array().expect("an array of rows").to_vec()
}

fn num(row: &Value, field: &str) -> f64 {
    row.get(field)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("{field} of {row:?}"))
}

/// The row whose `fields` hold `values`.
fn find<'a>(rows: &'a [Value], fields: [&str; 2], values: (&str, u64)) -> &'a Value {
    rows.iter()
        .find(|r| {
            r.get(fields[0]).and_then(Value::as_str) == Some(values.0)
                && r.get(fields[1]).and_then(Value::as_u64) == Some(values.1)
        })
        .unwrap_or_else(|| panic!("no row {fields:?} = {values:?}"))
}

fn joined(values: impl IntoIterator<Item = f64>, by: &str) -> String {
    let values: Vec<String> = values.into_iter().map(|v| v.to_string()).collect();
    values.join(by)
}

fn fig3_claims() -> Vec<Claim> {
    let rows = rows("BENCH_fig3.json");
    let sizes = [512, 2048, 8192, 32768];
    let mbps = |mode: &str, size| {
        num(
            find(&rows, ["mode", "size"], (mode, size)),
            "throughput_mbps",
        )
    };
    let ordered = |modes: &[&str]| {
        sizes.iter().all(|&size| {
            modes
                .windows(2)
                .all(|w| mbps(w[0], size) >= mbps(w[1], size))
        })
    };
    let at = |modes: &[&str], size| joined(modes.iter().map(|m| mbps(m, size)), " ≥ ");
    let by_storage = ["in-memory", "async-disk", "sync-ssd", "sync-disk"];
    let by_medium = ["async-ssd", "async-disk"];
    vec![
        Claim {
            figure: "Fig. 3",
            claim: "throughput in-memory ≥ async-disk ≥ sync-ssd ≥ sync-disk at every request size",
            ours: format!("{} Mbps at 512 B", at(&by_storage, 512)),
            holds: ordered(&by_storage),
        },
        Claim {
            figure: "Fig. 3",
            claim: "async-ssd ≥ async-disk throughput at every request size",
            ours: format!(
                "{} Mbps at 32 KB",
                joined(by_medium.iter().map(|m| mbps(m, 32768)), " < ")
            ),
            holds: ordered(&by_medium),
        },
    ]
}

fn fig4_claims() -> Vec<Claim> {
    let rows = rows("BENCH_fig4.json");
    let ops = |system: &str, workload: &str| {
        let row = rows.iter().find(|r| {
            r.get("system").and_then(Value::as_str) == Some(system)
                && r.get("workload").and_then(Value::as_str) == Some(workload)
        });
        num(
            row.unwrap_or_else(|| panic!("{system} on {workload}")),
            "ops_per_sec",
        )
    };
    let (cassandra, indep, global) = ("cassandra-like", "mrp-store (indep. rings)", "mrp-store");
    let workloads = ["A", "B", "C", "D", "E", "F"];
    vec![
        Claim {
            figure: "Fig. 4",
            claim: "MRP-Store with independent rings ≥ MRP-Store with the global ring on every workload",
            ours: format!("{} ≥ {} ops/s on A", ops(indep, "A"), ops(global, "A")),
            holds: workloads.iter().all(|w| ops(indep, w) >= ops(global, w)),
        },
        Claim {
            figure: "Fig. 4",
            claim: "no request ordering: Cassandra-like ≥ MRP-Store on the point workloads A–D and F",
            ours: format!("{} ≥ {} ops/s on A", ops(cassandra, "A"), ops(indep, "A")),
            holds: ["A", "B", "C", "D", "F"]
                .iter()
                .all(|w| ops(cassandra, w) >= ops(indep, w)),
        },
        Claim {
            figure: "Fig. 4",
            claim: "range scans: both MRP-Store deployments ≥ 5x Cassandra-like on workload E",
            ours: format!(
                "{} / {} vs {} ops/s",
                ops(indep, "E"),
                ops(global, "E"),
                ops(cassandra, "E")
            ),
            holds: ops(global, "E") >= 5.0 * ops(cassandra, "E"),
        },
    ]
}

fn fig5_claims() -> Vec<Claim> {
    let rows = rows("BENCH_fig5.json");
    let clients = [1, 10, 50, 100, 200];
    let cell = |system: &str, n, field| num(find(&rows, ["system", "clients"], (system, n)), field);
    let pair = |n, field| {
        format!(
            "{} vs {}",
            cell("dlog", n, field),
            cell("bookkeeper-like", n, field)
        )
    };
    vec![
        Claim {
            figure: "Fig. 5",
            claim: "dLog ≥ Bookkeeper-like appends/s at every client count",
            ours: format!(
                "{} … {} ops/s",
                pair(1, "ops_per_sec"),
                pair(200, "ops_per_sec")
            ),
            holds: clients.iter().all(|&n| {
                cell("dlog", n, "ops_per_sec") >= cell("bookkeeper-like", n, "ops_per_sec")
            }),
        },
        Claim {
            figure: "Fig. 5",
            claim: "dLog's latency under Bookkeeper-like's (aggressive batching) up to 100 clients",
            ours: format!("{} … {} ms", pair(1, "latency_ms"), pair(100, "latency_ms")),
            holds: clients[..4]
                .iter()
                .all(|&n| cell("dlog", n, "latency_ms") < cell("bookkeeper-like", n, "latency_ms")),
        },
    ]
}

/// The scaling figures: `pct_linear` at least `floor` at every point.
fn scales(figure: &'static str, claim: &'static str, rows: &[Value], floor: f64) -> Claim {
    let pct: Vec<f64> = rows.iter().map(|r| num(r, "pct_linear")).collect();
    Claim {
        figure,
        claim,
        ours: format!("{} % of linear", joined(pct.iter().copied(), ", ")),
        holds: pct.iter().all(|&p| p >= floor),
    }
}

fn fig6_claims() -> Vec<Claim> {
    vec![scales(
        "Fig. 6",
        "dLog throughput grows linearly with rings and disks: ≥ 95 % of linear at every ring count",
        &rows("BENCH_fig6.json"),
        95.0,
    )]
}

fn fig7_claims() -> Vec<Claim> {
    let rows = rows("BENCH_fig7.json");
    let p50: Vec<f64> = rows.iter().map(|r| num(r, "p50_ms")).collect();
    vec![
        scales(
            "Fig. 7",
            "MRP-Store throughput adds up region by region: ≥ 90 % of linear at every region count",
            &rows,
            90.0,
        ),
        Claim {
            figure: "Fig. 7",
            claim: "latency at the us-west-2 client stays flat as regions load: p50 within 5 % of one region's",
            ours: format!("{} ms", joined(p50.iter().copied(), " vs ")),
            holds: p50.iter().all(|&p| (p - p50[0]).abs() <= 0.05 * p50[0]),
        },
    ]
}

/// Fig. 8, per engine run: the best throughput window that started
/// before the replica was killed (`events[0]`) against the last window,
/// which must start after the restart (`events[1]`).
fn fig8_claims() -> Vec<Claim> {
    let runs = rows("BENCH_fig8.json");
    let field = |run: &Value, name: &str| {
        run.get(name)
            .and_then(Value::as_array)
            .expect(name)
            .to_vec()
    };
    let recovery: Vec<(String, f64, f64, bool)> = runs
        .iter()
        .map(|run| {
            let engine = run.get("engine").and_then(Value::as_str).expect("engine");
            let [kill, restart] = [0, 1].map(|i| num(&field(run, "events")[i], "t_s"));
            let timeline = field(run, "timeline");
            let before = timeline
                .iter()
                .filter(|w| num(w, "t_s") < kill)
                .map(|w| num(w, "ops_per_sec"))
                .fold(0.0, f64::max);
            let last = timeline.last().expect("a window");
            let after = num(last, "t_s") >= restart;
            (engine.to_string(), before, num(last, "ops_per_sec"), after)
        })
        .collect();
    vec![Claim {
        figure: "Fig. 8",
        claim: "after the restart, each engine's last window ≥ 95 % of its best pre-kill window",
        ours: recovery
            .iter()
            .map(|(engine, before, last, _)| format!("{engine} {last} vs {before}"))
            .collect::<Vec<_>>()
            .join(", ")
            + " ops/s",
        holds: recovery.len() == 2
            && recovery
                .iter()
                .all(|&(_, before, last, after)| after && last >= 0.95 * before),
    }]
}

fn ablation_2pc_claims() -> Vec<Claim> {
    let rows = rows("BENCH_ablation_2pc.json");
    let aborts: Vec<f64> = rows.iter().map(|r| num(r, "twopc_abort_pct")).collect();
    let mcast: Vec<f64> = rows
        .iter()
        .map(|r| num(r, "multicast_txn_per_sec"))
        .collect();
    vec![
        Claim {
            figure: "§3, 2PC",
            claim: "no-wait 2PC (mrp-baselines twopc.rs) aborts a strictly growing share as hot keys fall",
            ours: format!("{} % aborted", joined(aborts.iter().copied(), " < ")),
            holds: aborts.windows(2).all(|w| w[0] < w[1]),
        },
        Claim {
            figure: "§3, 2PC",
            claim: "atomic multicast orders the same conflicting transactions and aborts none: constant rate",
            ours: format!("{} txn/s on every row", mcast[0]),
            holds: mcast.iter().all(|&m| m == mcast[0] && m > 0.0),
        },
    ]
}

fn ablation_merge_claims() -> Vec<Claim> {
    let rows = rows("BENCH_ablation_merge.json");
    let (off, leveled) = rows.split_first().expect("the λ = 0 row first");
    let pairs: Vec<(f64, f64)> = leveled
        .iter()
        .map(|r| (num(r, "latency_ms"), num(r, "delta_ms")))
        .collect();
    vec![
        Claim {
            figure: "§4, merge",
            claim: "without rate leveling (λ = 0) an idle subscribed ring stalls the busy group's delivery",
            ours: format!("{} ops/s, no latency sample", num(off, "ops_per_sec")),
            holds: num(off, "lambda") == 0.0
                && num(off, "ops_per_sec") == 0.0
                && off.get("latency_ms") == Some(&Value::Null),
        },
        Claim {
            figure: "§4, merge",
            claim: "with rate leveling the busy group's latency tracks the idle ring's Δ (within 10 %)",
            ours: joined(pairs.iter().map(|p| p.0), " / ")
                + " ms at Δ = "
                + &joined(pairs.iter().map(|p| p.1), " / "),
            holds: pairs.iter().all(|&(ms, delta)| (ms - delta).abs() <= 0.1 * delta),
        },
    ]
}

/// Every claim holds on the committed rows, or is a listed anomaly —
/// which then does *not* hold: one that starts holding is struck from
/// the list and from ROADMAP.md, not left to rot.
fn assert_scorecard(claims: Vec<Claim>) {
    for c in claims {
        let anomaly = ANOMALIES.contains(&c.claim);
        assert_eq!(
            c.holds, !anomaly,
            "{}: {} — ours: {}",
            c.figure, c.claim, c.ours
        );
    }
}

#[test]
fn fig3_rows_order_the_storage_modes_as_the_paper_does() {
    assert_scorecard(fig3_claims());
}

#[test]
fn fig4_rows_rank_the_stores_as_the_paper_does() {
    assert_scorecard(fig4_claims());
}

#[test]
fn fig5_rows_put_dlog_ahead_of_the_quorum_log() {
    assert_scorecard(fig5_claims());
}

#[test]
fn fig6_rows_scale_with_rings_and_disks() {
    assert_scorecard(fig6_claims());
}

#[test]
fn fig7_rows_scale_with_regions_at_flat_latency() {
    assert_scorecard(fig7_claims());
}

#[test]
fn fig8_rows_recover_the_pre_crash_throughput_on_both_engines() {
    assert_scorecard(fig8_claims());
}

#[test]
fn ablation_2pc_rows_abort_under_contention_where_multicast_does_not() {
    assert_scorecard(ablation_2pc_claims());
}

#[test]
fn ablation_merge_rows_stall_without_rate_leveling_and_track_delta_with_it() {
    assert_scorecard(ablation_merge_claims());
}

/// README's `## Scorecard` is the table the generic printer renders
/// from the committed rows (on a mismatch the panic carries the block
/// to paste), and every anomaly is named under ROADMAP's "Measured
/// anomalies".
#[test]
fn readme_scorecard_is_rendered_from_the_committed_rows() {
    let mut table = Figure::new();
    let all = [
        fig3_claims(),
        fig4_claims(),
        fig5_claims(),
        fig6_claims(),
        fig7_claims(),
        fig8_claims(),
        ablation_2pc_claims(),
        ablation_merge_claims(),
    ];
    for c in all.into_iter().flatten() {
        let verdict = if c.holds { "holds" } else { "does not hold" };
        table.push([
            ("figure", c.figure.into()),
            ("paper's claim", c.claim.into()),
            ("our smoke row", c.ours.as_str().into()),
            ("verdict", verdict.into()),
        ]);
    }
    let rendered = table.render("Scorecard — the paper's claims over the committed smoke rows");
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let read = |name: &str| std::fs::read_to_string(format!("{root}/{name}")).expect(name);
    assert!(
        read("README.md").contains(rendered.trim_start()),
        "README.md `## Scorecard` is out of date; it should hold:\n{rendered}"
    );
    let roadmap = read("ROADMAP.md")
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ");
    for anomaly in ANOMALIES {
        assert!(
            roadmap.contains(anomaly),
            "ROADMAP.md does not name: {anomaly}"
        );
    }
}
