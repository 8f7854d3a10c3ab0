//! CI entry point for the bounded exploration:
//! `cargo run --release -p mrp-check --bin check -- [--depth N] [--liveness] [--out FILE] [--baseline FILE]`.
//!
//! Explores both engines' three-node mixed-traffic scenario (plus the
//! genuineness deployment, the two held-submission deployments, the
//! idle-stream deployment whose delivery rides on a `Probe`, and a ring
//! coordinator change over a seeded durable log) with fault
//! branching on, twice each: once with deduplication and partial-order
//! reduction enabled, once naive, reporting the state-count reduction.
//! `--liveness` additionally runs lasso-based non-progress detection on
//! the reduced pass (the exploration itself is identical, so the
//! reduction ratio is unaffected; the pass reports how many candidate
//! cycles it examined). Writes a small JSON artifact with the counts
//! when `--out` is given; `--baseline FILE` compares that artifact, as
//! rendered, with a committed one and fails on the first line that
//! differs — every count in it is exact, so a mismatch means the
//! protocol, the checker or the reduction changed and the baseline
//! must be reviewed and regenerated. Exits non-zero on any invariant
//! violation.

use std::process::ExitCode;

use mrp_amcast::EngineKind;
use mrp_check::{check, CheckerConfig, FaultBudget, Report, Scenario};

struct Run {
    name: String,
    reduced: Report,
    naive: Report,
    depth: usize,
}

fn ratio(naive: &Report, reduced: &Report) -> f64 {
    naive.explored as f64 / reduced.explored.max(1) as f64
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn render_json(runs: &[Run], liveness: bool) -> String {
    let mut out = String::from("{\n  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        let violation = match &r.reduced.violation {
            Some(v) => format!("\"{}\"", json_escape(&v.oracle)),
            None => "null".into(),
        };
        out.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"depth\": {}, \"explored\": {}, \
             \"pruned_dedup\": {}, \"pruned_sleep\": {}, \"quiescent\": {}, \
             \"depth_cutoffs\": {}, \"capped\": {}, \"naive_explored\": {}, \
             \"reduction\": {:.1}, \"liveness\": {}, \"lasso_candidates\": {}, \
             \"violation\": {}}}{}\n",
            json_escape(&r.name),
            r.depth,
            r.reduced.explored,
            r.reduced.pruned_dedup,
            r.reduced.pruned_sleep,
            r.reduced.quiescent,
            r.reduced.depth_cutoffs,
            r.reduced.capped,
            r.naive.explored,
            ratio(&r.naive, &r.reduced),
            liveness,
            r.reduced.lasso_candidates,
            violation,
            if i + 1 < runs.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The first line where the rendered artifact differs from the
/// committed one, or `None` when they are the same.
fn first_drift(actual: &str, baseline: &str) -> Option<String> {
    let end = ["<end of file>"];
    let (i, (got, want)) = (actual.lines().chain(end))
        .zip(baseline.lines().chain(end))
        .enumerate()
        .find(|(_, (a, b))| a != b)?;
    Some(format!(
        "line {}: got {}\n  baseline has {}",
        i + 1,
        got.trim(),
        want.trim()
    ))
}

fn main() -> ExitCode {
    let mut depth = 5usize;
    let mut out_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut liveness = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--depth" => {
                depth = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--depth needs a number"));
            }
            "--out" => {
                out_path = Some(args.next().unwrap_or_else(|| usage("--out needs a path")));
            }
            "--baseline" => {
                baseline_path = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--baseline needs a path")),
                );
            }
            "--liveness" => liveness = true,
            other => usage(&format!("unknown argument `{other}`")),
        }
    }

    let faults = FaultBudget {
        drops: 1,
        dups: 1,
        crashes: 1,
        checkpoints: 1,
    };
    let reduced_cfg = CheckerConfig {
        depth,
        max_timer_fires: 1,
        faults,
        reduce: true,
        max_states: 2_000_000,
        liveness,
    };
    // The naive cap only exists so a future depth bump cannot hang CI;
    // at the default depth the naive DFS completes well under it, so
    // the reported reduction is exact rather than a lower bound. The
    // naive pass stays safety-only: lasso detection does not change
    // which states are explored, so running it once is enough.
    let naive_cfg = CheckerConfig {
        reduce: false,
        max_states: 3_000_000,
        liveness: false,
        ..reduced_cfg
    };

    let scenarios: Vec<Scenario> = vec![
        Scenario::mixed(EngineKind::MultiRing),
        Scenario::mixed(EngineKind::Wbcast),
        Scenario::genuine_pairs(),
        Scenario::batched(EngineKind::Wbcast, false),
        Scenario::batched(EngineKind::Wbcast, true),
        Scenario::idle_stream(),
        Scenario::coordinator_change(),
    ];
    let mut runs = Vec::new();
    let mut failed = false;
    for scenario in &scenarios {
        let reduced = check(scenario, reduced_cfg);
        let naive = check(scenario, naive_cfg);
        let r = ratio(&naive, &reduced);
        println!(
            "{:<18} depth {}: explored {:>8} (dedup-pruned {}, sleep-pruned {}, quiescent {}, \
             cutoffs {}){}{} | naive explored {:>8}{} | reduction {:.1}x",
            scenario.name,
            depth,
            reduced.explored,
            reduced.pruned_dedup,
            reduced.pruned_sleep,
            reduced.quiescent,
            reduced.depth_cutoffs,
            if liveness {
                format!(", lasso candidates {}", reduced.lasso_candidates)
            } else {
                String::new()
            },
            if reduced.capped { " CAPPED" } else { "" },
            naive.explored,
            if naive.capped { " (capped)" } else { "" },
            r,
        );
        if let Some(v) = &reduced.violation {
            println!("VIOLATION in {}:\n{v}", scenario.name);
            failed = true;
        }
        if let Some(v) = &naive.violation {
            println!("VIOLATION (naive run) in {}:\n{v}", scenario.name);
            failed = true;
        }
        // The headline engine scenarios must keep a >10x reduction over
        // the naive DFS (only asserted when the naive run completed, so
        // the ratio is exact). The ratio grows with depth, so the floor
        // only applies from the default depth up — a shallower manual
        // run legitimately reduces less.
        if scenario.name.starts_with("mixed-") && depth >= 5 && !naive.capped && r < 10.0 {
            println!(
                "REGRESSION: {} reduction {r:.1}x fell below the 10x floor",
                scenario.name
            );
            failed = true;
        }
        runs.push(Run {
            name: scenario.name.clone(),
            reduced,
            naive,
            depth,
        });
    }

    let json = render_json(&runs, liveness);
    if let Some(path) = &baseline_path {
        match std::fs::read_to_string(path) {
            Ok(baseline) => match first_drift(&json, &baseline) {
                None => println!("state counts match the committed baseline ({path})"),
                Some(drift) => {
                    println!("BASELINE DRIFT: {drift}");
                    println!(
                        "state counts drifted from {path}; if the change is intended, \
                         regenerate it with --out and commit the diff"
                    );
                    failed = true;
                }
            },
            Err(e) => {
                eprintln!("check: cannot read baseline {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(path) = out_path {
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("check: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("state counts written to {path}");
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn usage(err: &str) -> ! {
    eprintln!("check: {err}\nusage: check [--depth N] [--liveness] [--out FILE] [--baseline FILE]");
    std::process::exit(2)
}
