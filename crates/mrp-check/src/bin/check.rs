//! CI entry point for the bounded exploration:
//! `cargo run --release -p mrp-check --bin check -- [--depth N] [--liveness] [--out FILE] [--baseline FILE]`.
//!
//! Explores both engines' three-node mixed-traffic scenario (plus the
//! genuineness deployment, the two held-submission deployments and the
//! idle-stream deployment whose delivery rides on a `Probe`) with fault
//! branching on, twice each: once with deduplication and partial-order
//! reduction enabled, once naive, reporting the state-count reduction.
//! `--liveness` additionally runs lasso-based non-progress detection on
//! the reduced pass (the exploration itself is identical, so the
//! reduction ratio is unaffected; the pass reports how many candidate
//! cycles it examined). Writes a small JSON artifact with the counts
//! when `--out` is given; `--baseline FILE` compares the deterministic
//! counts against a committed artifact and fails on any drift — state
//! counts are exact, so a mismatch means the protocol, the checker or
//! the reduction changed and the baseline must be reviewed and
//! regenerated. Exits non-zero on any invariant violation.

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

/// Extracts `"field": value` for the run whose `"scenario"` matches, by
/// plain text scanning — the artifact format is ours and line-oriented,
/// so a JSON parser dependency is not warranted.
fn baseline_field(baseline: &str, scenario: &str, field: &str) -> Option<String> {
    let line = baseline
        .lines()
        .find(|l| l.contains(&format!("\"scenario\": \"{scenario}\"")))?;
    let tail = line.split(&format!("\"{field}\": ")).nth(1)?;
    let value: String = tail
        .chars()
        .take_while(|c| !matches!(c, ',' | '}' | '\n'))
        .collect();
    Some(value.trim().to_string())
}

/// Compares the deterministic state counts of `runs` against a
/// committed baseline artifact; returns the list of drifts.
fn diff_baseline(baseline: &str, runs: &[Run]) -> Vec<String> {
    let mut drifts = Vec::new();
    for r in runs {
        for (field, actual) in [
            ("depth", r.depth.to_string()),
            ("explored", r.reduced.explored.to_string()),
            ("naive_explored", r.naive.explored.to_string()),
        ] {
            match baseline_field(baseline, &r.name, field) {
                None => {
                    drifts.push(format!("{}: `{field}` missing from baseline", r.name));
                    break;
                }
                Some(expected) if expected != actual => {
                    drifts.push(format!(
                        "{}: `{field}` is {actual}, baseline says {expected}",
                        r.name
                    ));
                }
                Some(_) => {}
            }
        }
    }
    drifts
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
        dedup: true,
        por: true,
        max_states: 2_000_000,
        liveness,
    };
    // The naive cap only exists so a future depth bump cannot hang CI;
    // at the default depth the naive DFS completes well under it, so
    // the reported reduction is exact rather than a lower bound. The
    // naive pass stays safety-only: lasso detection does not change
    // which states are explored, so running it once is enough.
    let naive_cfg = CheckerConfig {
        dedup: false,
        por: false,
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

    if let Some(path) = &baseline_path {
        match std::fs::read_to_string(path) {
            Ok(baseline) => {
                let drifts = diff_baseline(&baseline, &runs);
                if drifts.is_empty() {
                    println!("state counts match the committed baseline ({path})");
                } else {
                    for d in &drifts {
                        println!("BASELINE DRIFT: {d}");
                    }
                    println!(
                        "state counts drifted from {path}; if the change is intended, \
                         regenerate it with --out and commit the diff"
                    );
                    failed = true;
                }
            }
            Err(e) => {
                eprintln!("check: cannot read baseline {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(path) = out_path {
        let json = render_json(&runs, liveness);
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
