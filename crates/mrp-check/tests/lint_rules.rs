//! Sans-io purity lint self-tests: the engine crates in this workspace
//! must be clean, and every rule must fire (with file:line precision)
//! on a deliberately violating source.

use std::path::Path;

use mrp_check::{
    lint_engine_sources, lint_source, lint_transport_source, lint_transport_sources, Allowlist,
};

fn no_allow() -> Allowlist {
    Allowlist::parse("").unwrap()
}

#[test]
fn engine_crates_are_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (diags, files) = lint_engine_sources(&root).expect("lint walk must succeed");
    assert!(files >= 10, "suspiciously few engine sources: {files}");
    assert!(
        diags.is_empty(),
        "sans-io violations in engine crates:\n{}",
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn every_rule_fires_on_injected_source() {
    let cases = [
        ("wall-clock", "let t = Instant::now();"),
        ("wall-clock", "let t = SystemTime::now();"),
        ("thread", "std::thread::sleep(d);"),
        ("thread", "let h = thread::spawn(move || {});"),
        (
            "hash-collections",
            "let m: HashMap<u32, u32> = HashMap::new();",
        ),
        ("hash-collections", "let s = HashSet::from([1]);"),
        ("stdout", "println!(\"state: {x}\");"),
        ("stdout", "dbg!(x);"),
        ("rand", "let mut rng = thread_rng();"),
    ];
    for (rule, line) in cases {
        let src = format!("fn f() {{\n    {line}\n}}\n");
        let diags = lint_source("engine.rs", &src, &no_allow());
        assert!(
            diags.iter().any(|d| d.rule == rule && d.line == 2),
            "`{line}` should trip `{rule}` at line 2, got {diags:?}"
        );
    }
}

#[test]
fn transport_waits_for_events_except_where_it_says_why() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (diags, files) = lint_transport_sources(&root).expect("lint walk must succeed");
    assert!(files >= 3, "suspiciously few transport sources: {files}");
    assert!(diags.is_empty(), "polls in mrp-transport: {diags:?}");

    for line in [
        "listener.set_nonblocking(true)?;",
        "match rx.recv_timeout(Duration::from_millis(100)) {",
        "let (guard, _) = cond.wait_timeout(guard, Duration::from_millis(10)).unwrap();",
        "let _ = cond.wait_timeout_while(guard, backoff, |n| *n == seen);",
        "thread::sleep(Duration::from_millis(10));",
    ] {
        let src = format!("fn f() {{\n    {line}\n}}\n");
        let diags = lint_transport_source("tcp.rs", &src, &no_allow());
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "transport-poll" && d.line == 2),
            "`{line}` should trip `transport-poll` at line 2, got {diags:?}"
        );
        let allowed = format!("fn f() {{\n    {line} // lint:allow(transport-poll)\n}}\n");
        assert!(lint_transport_source("tcp.rs", &allowed, &no_allow()).is_empty());
        assert!(
            lint_source("tcp.rs", &src, &no_allow())
                .iter()
                .all(|d| d.rule != "transport-poll"),
            "the rule is the transport's alone"
        );
    }
    // What the runtime does instead stays legal.
    let src = "fn f() { let c = listener.accept(); let m = rx.recv(); }\n";
    assert!(lint_transport_source("tcp.rs", src, &no_allow()).is_empty());
}

#[test]
fn the_environment_is_read_where_the_engine_is_chosen_and_nowhere_else() {
    // A switch coming back: read directly, or through an import.
    for line in [
        "let on = std::env::var(\"MRP_SWITCH\").is_ok();",
        "let on = env::var(\"MRP_SWITCH\").is_ok();",
    ] {
        let src = format!("fn f() {{\n    {line}\n}}\n");
        let diags = lint_source("crates/mrp-amcast/src/batcher.rs", &src, &no_allow());
        assert!(
            diags.iter().any(|d| d.rule == "env-read" && d.line == 2),
            "`{line}` should trip `env-read` at line 2, got {diags:?}"
        );
        assert!(
            lint_transport_source("tcp.rs", &src, &no_allow()).is_empty(),
            "the rule is the engine crates' alone"
        );
    }
    // The one sanctioned read says so where it happens (and
    // `engine_crates_are_clean` holds the real tree to that).
    let src = "fn try_from_env() {\n    let value = std::env::var(\"MRP_ENGINE\"); // lint:allow(env-read)\n}\n";
    assert!(lint_source("engine.rs", src, &no_allow()).is_empty());
}

#[test]
fn stderr_logging_does_not_trip_the_stdout_rule() {
    let src = "fn f() { eprintln!(\"diag\"); eprint!(\"d\"); }\n";
    assert!(lint_source("engine.rs", src, &no_allow()).is_empty());
}

#[test]
fn strings_and_comments_are_not_linted() {
    let src = r##"
// Instant::now() in a comment is fine.
/* and HashMap in /* nested */ block comments too */
fn f() -> &'static str {
    let doc = "call Instant::now() and thread::spawn";
    let raw = r#"HashMap::new() println!("x")"#;
    doc
}
"##;
    assert!(
        lint_source("engine.rs", src, &no_allow()).is_empty(),
        "quoted/commented patterns must not fire"
    );
}

#[test]
fn test_modules_are_exempt() {
    let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t() { println!(\"ok\"); }\n}\n";
    assert!(lint_source("engine.rs", src, &no_allow()).is_empty());
}

#[test]
fn inline_allow_suppresses_a_single_line() {
    let src = "fn f() {\n    let t = Instant::now(); // lint:allow(wall-clock)\n    let u = Instant::now();\n}\n";
    let diags = lint_source("engine.rs", src, &no_allow());
    assert_eq!(diags.len(), 1, "only the unannotated line fires: {diags:?}");
    assert_eq!(diags[0].line, 3);
}

#[test]
fn allowlist_suppresses_by_rule_and_path_suffix() {
    let allow = Allowlist::parse("wall-clock src/shim.rs # reviewed\n").unwrap();
    assert!(allow.permits("wall-clock", "crates/x/src/shim.rs"));
    assert!(!allow.permits("wall-clock", "crates/x/src/other.rs"));
    assert!(!allow.permits("thread", "crates/x/src/shim.rs"));

    let src = "fn f() { let t = Instant::now(); }\n";
    assert!(lint_source("crates/x/src/shim.rs", src, &allow).is_empty());
    assert_eq!(lint_source("crates/x/src/other.rs", src, &allow).len(), 1);
}

#[test]
fn allowlist_rejects_unknown_rules() {
    assert!(Allowlist::parse("no-such-rule src/a.rs\n").is_err());
    assert!(Allowlist::parse("wall-clock\n").is_err(), "missing suffix");
}

#[test]
fn diagnostics_carry_file_and_line() {
    let src = "fn f() {\n\n    let m = HashMap::new();\n}\n";
    let diags = lint_source("crates/e/src/lib.rs", src, &no_allow());
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].file, "crates/e/src/lib.rs");
    assert_eq!(diags[0].line, 3);
    let rendered = diags[0].to_string();
    assert!(
        rendered.contains("crates/e/src/lib.rs:3"),
        "diagnostic must render file:line, got `{rendered}`"
    );
}
