//! Validates the checked-in benchmark baselines `BENCH_fig9.json`,
//! `BENCH_micro.json` and `BENCH_multigroup.json`: they must parse as
//! JSON and carry the documented schema — the client-side rows plus the
//! `engine_telemetry` section (fig9), and the submission/decode
//! throughput rows — their wire-frame and wire-byte counts pinned
//! exactly — and the store's preload rows with their speedup summary
//! (micro) — and hold the shape they were accepted on (multigroup). CI
//! regenerates the files at smoke scale and re-runs this test, so a
//! writer/schema drift fails loudly in both places.

use mrp_bench::json::{self, Value};

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
            "staged_build",
            "restore",
            "key_format",
            "key_for"
        ],
        "the two references and what replaced them"
    );
    for row in preload {
        assert!(row.get("records").and_then(Value::as_u64).unwrap_or(0) > 0);
        let ns = row
            .get("ns_per_record")
            .and_then(Value::as_f64)
            .expect("row.ns_per_record");
        assert!(ns.is_finite() && ns > 0.0);
    }
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
    // MRP-Store's cold start: the tree built once from a bulk load
    // against one descent per record (measured 3-4x), and the key
    // written by hand against the formatter (measured 2-2.4x; its floor
    // is the allocation both sides make).
    assert!(
        s("preload_build") >= 2.0,
        "the staged build must stay well ahead of insert-by-insert: {:.2}x",
        s("preload_build")
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
