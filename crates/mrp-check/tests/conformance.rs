//! The real workspace must pass the conformance rules: the
//! protocol-constant assertions present, every `TimerKind` armed and
//! handled.

use std::path::Path;

use mrp_check::conformance_check;

fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

#[test]
fn workspace_is_conformance_clean() {
    let (findings, files) = conformance_check(repo_root()).expect("sources readable");
    assert!(files >= 3, "expected to inspect at least 3 files");
    assert!(
        findings.is_empty(),
        "conformance findings:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
