//! CI entry point for the static suites:
//! `cargo run -p mrp-check --bin lint`.
//!
//! Runs the sans-io purity lints over the engine crates, the
//! `transport-poll` rule over the TCP runtime, then the two conformance
//! rules (`protocol-constants`, `timer-liveness`). Exits 0 when
//! everything is clean, 1 with diagnostics when not, and 2 on an
//! operational error (bad allowlist, unreadable tree).

use mrp_check::Diagnostic;
use std::path::Path;
use std::process::ExitCode;

/// A source-level lint over one set of crates: diagnostics and the
/// number of files scanned.
type SourceLint = fn(&Path) -> Result<(Vec<Diagnostic>, usize), String>;

fn main() -> ExitCode {
    // The binary is built from a fixed spot in the workspace; resolve
    // the repo root relative to it so the lint runs correctly from any
    // working directory.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let root = root.canonicalize().unwrap_or(root);
    let mut problems = 0usize;

    let source_lints: [(SourceLint, &str, &str); 2] = [
        (
            mrp_check::lint_engine_sources,
            "engine source files sans-io clean",
            "engines must stay sans-io (see crates/mrp-check/src/lint.rs for the rules and \
             lint.allow for exemptions)",
        ),
        (
            mrp_check::lint_transport_sources,
            "transport source files wait for events only",
            "a transport wait blocks until its event (see crates/mrp-check/src/lint.rs; \
             `lint:allow(transport-poll)` with the reason where there is no event)",
        ),
    ];
    for (lint, clean, rule) in source_lints {
        match lint(&root) {
            Ok((diags, files)) if diags.is_empty() => println!("lint: {files} {clean}"),
            Ok((diags, files)) => {
                for d in &diags {
                    println!("{d}");
                }
                println!(
                    "lint: {} violation(s) across {files} files — {rule}",
                    diags.len()
                );
                problems += diags.len();
            }
            Err(e) => {
                eprintln!("lint: error: {e}");
                return ExitCode::from(2);
            }
        }
    }

    match mrp_check::conformance_check(&root) {
        Ok((findings, files)) if findings.is_empty() => {
            println!("lint: conformance clean ({files} files inspected)");
        }
        Ok((findings, _)) => {
            for f in &findings {
                println!("{f}");
            }
            println!(
                "lint: {} conformance finding(s) — the protocol-constant asserts stay and every \
                 timer is armed and handled (see crates/mrp-check/src/conformance.rs)",
                findings.len()
            );
            problems += findings.len();
        }
        Err(e) => {
            eprintln!("lint: error: {e}");
            return ExitCode::from(2);
        }
    }

    if problems == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
