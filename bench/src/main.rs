//! `e2e-bench`: the repo's wall-clock benchmark over loopback TCP.
//!
//! ```text
//! e2e-bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! e2e-bench repeat --runs <n> [--workload <name>] [--seconds <s>] [--seed <first>]
//! e2e-bench describe
//! ```
//!
//! See `README.md` for the metric glossary and the run protocol.

mod cluster;
mod driver;
mod ledger;
mod oracle;
mod probe;
mod report;
mod stats;
mod trace;
mod workload;

use driver::{BlockKind, EngineRun, RunArgs};
use report::{prefix, Metric};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::WorkloadSpec;

/// Removes the run's scratch directory (WAL directories, ledger files)
/// when the run ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: e2e-bench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n       e2e-bench repeat --runs N [--workload W] [--seconds S] [--seed FIRST]\n       e2e-bench describe",
        workload::WORKLOADS.map(|w| w.name).join("|")
    );
    ExitCode::from(2)
}

/// `--key value` pairs after the optional subcommand.
fn flag<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("describe") => describe(),
        Some("repeat") => repeat(&args[1..]),
        Some(_) => run(&args),
        None => usage(),
    }
}

fn describe() -> ExitCode {
    println!("workloads:");
    for w in &workload::WORKLOADS {
        println!("  {:<12} {}", w.name, w.why);
    }
    println!("end_to_end:");
    for (name, unit) in report::END_TO_END {
        println!("  {name} [{unit}]");
    }
    println!("per_layer:");
    for (name, unit) in report::per_layer_names() {
        println!("  {name} [{unit}]");
    }
    ExitCode::SUCCESS
}

/// One line per engine, kind and tracing state: how many blocks the
/// guard flagged and the quartiles of the others' values.
fn print_blocks(run: &EngineRun, probe_limit: f64) {
    let p = prefix(run.engine);
    for (kind, label, unit) in [
        (BlockKind::Svc, "svc", "p50 us"),
        (BlockKind::Sat, "sat", "ops/s"),
    ] {
        for traced in [false, true] {
            let blocks: Vec<_> = run.blocks_of(kind, traced).collect();
            if blocks.is_empty() {
                continue;
            }
            let clean: Vec<f64> = blocks
                .iter()
                .filter(|b| !b.disturbed(probe_limit))
                .map(|b| match kind {
                    BlockKind::Svc => b.latency_us(0.5),
                    BlockKind::Sat => b.throughput(),
                })
                .collect();
            let (q1, q2, q3) = stats::quartiles(&clean);
            let kept = clean.len() as f64 >= blocks.len() as f64 * stats::MIN_KEPT_SHARE;
            println!(
                "  {p:<4} {label}{} [{unit}]: {} of {} blocks undisturbed, quartiles {q1:.1} {q2:.1} {q3:.1}{}",
                if traced { " traced" } else { "" },
                clean.len(),
                blocks.len(),
                if kept { "" } else { " | fewer than 2/3: every block counts" },
            );
        }
    }
}

fn run(args: &[String]) -> ExitCode {
    let Some(spec) = flag(args, "--workload").and_then(workload::find) else {
        return usage();
    };
    let parsed = (
        flag(args, "--seed").map_or(Ok(1), str::parse::<u64>),
        flag(args, "--seconds").map_or(Ok(driver::NOMINAL_SECONDS), str::parse::<f64>),
        flag(args, "--trace").map_or(Ok(0), str::parse::<u8>),
    );
    let (Ok(seed), Ok(seconds), Ok(trace @ (0 | 1))) = parsed else {
        return usage();
    };
    if !(seconds > 0.0 && seconds <= 600.0) {
        return usage();
    }
    let out_dir = PathBuf::from(flag(args, "--out").unwrap_or("bench/out"));
    let run_args = RunArgs {
        seed,
        seconds,
        trace: trace == 1,
    };
    match run_workload(spec, &run_args, &out_dir) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2e-bench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_workload(
    spec: &'static WorkloadSpec,
    args: &RunArgs,
    out_dir: &Path,
) -> std::io::Result<()> {
    // The caller's environment must not change a workload: the engine
    // and batching knobs are read when a replica is built, so they are
    // settled here, before any thread exists.
    for key in [
        "MRP_ENGINE",
        "MRP_BATCH",
        "MRP_BATCH_VALUES",
        "MRP_BATCH_BYTES",
        "MRP_BATCH_WINDOW_US",
    ] {
        std::env::remove_var(key);
    }
    if spec.batching {
        std::env::set_var("MRP_BATCH", "1");
    }
    let scratch = Scratch(std::env::temp_dir().join(format!("e2e-bench-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0)?;

    println!(
        "workload {} seed {} seconds {} trace {} | 3 servers + 1 client port over loopback TCP in one process, message delay injected: none (latencies are processor and kernel time, not network time) | CPUs this process may run on: {}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    println!(
        "protocol: engines in sequence; per engine {} set-ups, {}s warm-up discarded, {} rounds of [svc {}s: 1 outstanding][sat {}s: window {}]; tput = median of block rates, lat = median of block medians, over the blocks the noise guard kept; times scaled by seconds/{}",
        driver::SETUP_TRIALS,
        driver::WARMUP_SECONDS,
        driver::ROUNDS,
        driver::BLOCK_SECONDS,
        driver::BLOCK_SECONDS,
        driver::SAT_WINDOW,
        driver::NOMINAL_SECONDS,
    );

    let mut noise = driver::NoiseProbe::start()?;
    let runs = driver::run_engines(spec, args, &mut noise, &scratch.0)?;
    drop(noise);
    let probe_limit = driver::probe_limit(&runs);
    for run in &runs {
        print_blocks(run, probe_limit);
    }

    let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    let correct = runs.iter().all(|r| r.correct);
    for run in &runs {
        for failure in &run.failures {
            println!("oracle {}: FAILED {failure}", prefix(run.engine));
        }
    }

    report::write_blocks(
        &out_dir.join(format!(
            "blocks-{}-trace{}.csv",
            spec.name,
            u8::from(args.trace)
        )),
        &runs,
        probe_limit,
    )?;
    let metrics: Vec<Metric> = if args.trace {
        let layers = report::per_layer(spec, &runs, probe_limit, &scratch.0);
        print!("{}", layers.tables);
        let path = out_dir.join(format!("trace-{}.jsonl", spec.name));
        let spans = report::write_spans(&path, &runs)?;
        println!("spans: {spans} written to {}", path.display());
        layers.metrics
    } else {
        // For people and for `repeat`: the headline numbers that are not
        // gated, which the result line below may not carry.
        for m in report::headlines(&runs, probe_limit) {
            println!("{}", report::metric_line(&m));
        }
        report::end_to_end(&runs, probe_limit)
    };
    if args.trace {
        for m in &metrics {
            println!("{}", report::metric_line(m));
        }
    }
    println!(
        "attempted {attempted} failed {failed} correct {correct} peak_rss_mb {:.0}",
        driver::peak_rss_mb()
    );
    println!(
        "{}",
        report::result_json(correct, attempted, failed, &metrics)
    );
    Ok(())
}

/// Runs every (or one) workload `--runs` times in fresh child processes
/// with consecutive seeds and prints, per headline metric, the median,
/// quartiles, inter-quartile share and largest deviation, as Markdown.
fn repeat(args: &[String]) -> ExitCode {
    let Some(Ok(runs)) = flag(args, "--runs").map(str::parse::<usize>) else {
        return usage();
    };
    let seconds = flag(args, "--seconds").unwrap_or("30");
    let Ok(first_seed) = flag(args, "--seed").map_or(Ok(1), str::parse::<u64>) else {
        return usage();
    };
    let out = flag(args, "--out").unwrap_or("bench/out");
    let only = flag(args, "--workload");
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("e2e-bench: cannot find own executable");
        return ExitCode::FAILURE;
    };
    let mut all_ok = true;
    for spec in workload::WORKLOADS
        .iter()
        .filter(|w| only.is_none_or(|o| o == w.name))
    {
        let mut samples: Vec<(String, Vec<f64>)> = Vec::new();
        for i in 0..runs {
            let seed = first_seed + i as u64;
            let output = std::process::Command::new(&exe)
                .args([
                    "--workload",
                    spec.name,
                    "--seconds",
                    seconds,
                    "--trace",
                    "0",
                ])
                .args(["--seed", &seed.to_string(), "--out", out])
                .stderr(std::process::Stdio::inherit())
                .output();
            let text = output.map_or(String::new(), |o| {
                String::from_utf8_lossy(&o.stdout).into_owned()
            });
            let Some(result) = text.lines().last().and_then(report::parse_result) else {
                eprintln!("e2e-bench: run {i} of {} printed no result", spec.name);
                all_ok = false;
                continue;
            };
            if !result.correct || result.failed > 0 {
                eprintln!(
                    "e2e-bench: run {i} of {}: correct {}, failed {} of {}",
                    spec.name, result.correct, result.failed, result.attempted
                );
                all_ok = false;
            }
            // The headline lines, not the result line: that one carries
            // the gated metrics only.
            for (name, value) in text.lines().filter_map(report::parse_headline_line) {
                match samples.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, values)) => values.push(value),
                    None => samples.push((name, vec![value])),
                }
            }
        }
        println!(
            "\n### {} — {runs} runs, seeds {first_seed}..={}, {seconds} s\n",
            spec.name,
            first_seed + runs as u64 - 1
        );
        println!("| metric | median | q1 | q3 | iqr/median | max dev | values |");
        println!("|---|---|---|---|---|---|---|");
        for (name, values) in &samples {
            let (q1, q2, q3) = stats::quartiles(values);
            let listed: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            println!(
                "| `{name}` | {q2:.4} | {q1:.4} | {q3:.4} | {:.2}% | {:.2}% | {} |",
                stats::iqr_share(values) * 100.0,
                stats::max_rel_deviation(values) * 100.0,
                listed.join(" ")
            );
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
