//! Source-level sans-io purity lints for the engine crates.
//!
//! The engines must stay deterministic, replayable state machines —
//! that is what the model checker's stateless re-execution and the
//! simulator's reproducibility rest on. This pass rejects the ways that
//! discipline usually erodes:
//!
//! | rule              | rejects                                        |
//! |-------------------|------------------------------------------------|
//! | `wall-clock`      | `Instant::now`, `SystemTime` — time must come in through [`Event`](multiring_paxos::event::Event)s |
//! | `thread`          | `std::thread`, `thread::spawn` — concurrency belongs to the runtime |
//! | `hash-collections`| `HashMap`, `HashSet` — iteration order is seeded per process; use `BTreeMap`/`BTreeSet` |
//! | `stdout`          | `println!`, `print!`, `dbg!` — engines report through actions and telemetry (`eprintln!` is allowed for operator warnings) |
//! | `rand`            | `thread_rng`, `rand::` — randomness must be injected |
//! | `env-read`        | `std::env`, `env::var` — how an engine behaves is decided from what it observes, never from a switch in the environment; the one allowed read is `EngineKind::try_from_env` (which engine to build) |
//!
//! The TCP runtime (`crates/mrp-transport/src`) threads and hashes by
//! design and has one rule of its own: every wait is for an event, so
//! what makes a wait a poll is rejected.
//!
//! | rule              | rejects                                        |
//! |-------------------|------------------------------------------------|
//! | `transport-poll`  | `set_nonblocking(true)`, `recv_timeout`, `wait_timeout`, `wait_timeout_while`, `thread::sleep` — block in the call and have the event end it |
//!
//! Comments and string literals are stripped before matching, matching
//! stops at the first `#[cfg(test)]` (test modules may use whatever
//! they like), and two escape hatches exist: an allowlist file
//! (`crates/mrp-check/lint.allow`, one `rule path-suffix` pair per
//! line) and an inline `lint:allow(rule)` marker in a comment on the
//! offending line. No dependencies, no proc macros: plain substring
//! scanning with word boundaries, fast enough to run on every CI push
//! via `cargo run -p mrp-check --bin lint`.

use std::fmt;
use std::path::{Path, PathBuf};

/// One lint finding: `file:line` plus the rule and offending text.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// File the violation is in (as given to the linter).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (`wall-clock`, `thread`, ...).
    pub rule: &'static str,
    /// The pattern that matched.
    pub pattern: &'static str,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] `{}` — {}",
            self.file, self.line, self.rule, self.pattern, self.snippet
        )
    }
}

/// A rule table: `(rule, patterns)`.
type Rules = &'static [(&'static str, &'static [&'static str])];

/// What the engine crates may not contain.
const ENGINE_RULES: Rules = &[
    ("wall-clock", &["Instant::now", "SystemTime"]),
    ("thread", &["std::thread", "thread::spawn"]),
    ("hash-collections", &["HashMap", "HashSet"]),
    ("stdout", &["println!", "print!", "dbg!"]),
    ("rand", &["thread_rng", "rand::"]),
    ("env-read", &["std::env", "env::var"]),
];

/// What the TCP runtime may not contain.
const TRANSPORT_RULES: Rules = &[(
    "transport-poll",
    &[
        "set_nonblocking(true)",
        "recv_timeout",
        "wait_timeout",
        "wait_timeout_while",
        "thread::sleep",
    ],
)];

/// Path-suffix exemptions, loaded from `lint.allow`.
///
/// Each non-comment line is `rule path-suffix`: the named rule is
/// suppressed in any file whose path ends with the suffix. Keeping the
/// file tiny and reviewed is the point — every entry is a documented
/// exception to the sans-io discipline.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Allowlist {
    entries: Vec<(String, String)>,
}

impl Allowlist {
    /// Parses the allowlist format (`rule path-suffix` lines, `#`
    /// comments).
    ///
    /// # Errors
    ///
    /// Fails on a malformed line or an unknown rule name.
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut entries = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut it = line.split_whitespace();
            let rule = it.next().expect("non-empty line");
            let suffix = it
                .next()
                .ok_or_else(|| format!("lint.allow line {}: missing path suffix", idx + 1))?;
            if !ENGINE_RULES
                .iter()
                .chain(TRANSPORT_RULES)
                .any(|(r, _)| *r == rule)
            {
                return Err(format!(
                    "lint.allow line {}: unknown rule `{rule}`",
                    idx + 1
                ));
            }
            if let Some(extra) = it.next() {
                return Err(format!(
                    "lint.allow line {}: trailing token `{extra}`",
                    idx + 1
                ));
            }
            entries.push((rule.to_string(), suffix.to_string()));
        }
        Ok(Allowlist { entries })
    }

    /// Is `rule` exempted for `file`?
    pub fn permits(&self, rule: &str, file: &str) -> bool {
        self.entries
            .iter()
            .any(|(r, suffix)| r == rule && file.ends_with(suffix.as_str()))
    }
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Strips comments and string/char literals from one file, preserving
/// line structure so diagnostics keep their line numbers. Handles line
/// and (nested) block comments, escaped strings, raw strings and the
/// char-literal/lifetime ambiguity well enough for this codebase.
/// Shared with the [`conformance`](crate::conformance) suite.
pub(crate) fn strip(source: &str) -> String {
    let chars: Vec<char> = source.chars().collect();
    let mut out = String::with_capacity(source.len());
    let mut i = 0;
    let mut block_depth = 0usize;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        if block_depth > 0 {
            if c == '*' && next == Some('/') {
                block_depth -= 1;
                i += 2;
                continue;
            }
            if c == '/' && next == Some('*') {
                block_depth += 1;
                i += 2;
                continue;
            }
            if c == '\n' {
                out.push('\n');
            }
            i += 1;
            continue;
        }
        match c {
            '/' if next == Some('/') => {
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
            }
            '/' if next == Some('*') => {
                block_depth = 1;
                i += 2;
            }
            'r' | 'b'
                if !matches!(out.chars().last(), Some(p) if is_ident(p))
                    && raw_string_start(&chars, i).is_some() =>
            {
                let (body_start, hashes) = raw_string_start(&chars, i).expect("checked");
                i = skip_raw_string(&chars, body_start, hashes, &mut out);
            }
            '"' => {
                i += 1;
                while i < chars.len() {
                    match chars[i] {
                        '\\' => i += 2,
                        '"' => {
                            i += 1;
                            break;
                        }
                        '\n' => {
                            out.push('\n');
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
            }
            '\'' => {
                // Char literal vs lifetime: 'x' / '\n' are literals,
                // 'a as in &'a is a lifetime (no closing quote ahead).
                if next == Some('\\') {
                    i += 2; // opening quote + backslash
                    while i < chars.len() && chars[i] != '\'' {
                        i += 1;
                    }
                    i += 1;
                } else if chars.get(i + 2).copied() == Some('\'') {
                    i += 3;
                } else {
                    out.push(c);
                    i += 1;
                }
            }
            _ => {
                out.push(c);
                i += 1;
            }
        }
    }
    out
}

/// If position `i` starts a raw (byte) string (`r"`, `r#"`, `br#"`,
/// ...), returns `(index of first body char, hash count)`.
fn raw_string_start(chars: &[char], i: usize) -> Option<(usize, usize)> {
    let mut j = i;
    if chars.get(j).copied() == Some('b') {
        j += 1;
    }
    if chars.get(j).copied() != Some('r') {
        return None;
    }
    j += 1;
    let mut hashes = 0;
    while chars.get(j).copied() == Some('#') {
        hashes += 1;
        j += 1;
    }
    if chars.get(j).copied() == Some('"') {
        Some((j + 1, hashes))
    } else {
        None
    }
}

fn skip_raw_string(chars: &[char], mut i: usize, hashes: usize, out: &mut String) -> usize {
    while i < chars.len() {
        if chars[i] == '\n' {
            out.push('\n');
        }
        if chars[i] == '"'
            && chars[i + 1..]
                .iter()
                .take(hashes)
                .filter(|&&c| c == '#')
                .count()
                == hashes
        {
            return i + 1 + hashes;
        }
        i += 1;
    }
    i
}

/// Lints one engine source file's text. `file` is used for diagnostics
/// and allowlist matching only — nothing is read from disk.
pub fn lint_source(file: &str, source: &str, allow: &Allowlist) -> Vec<Diagnostic> {
    lint_with(ENGINE_RULES, file, source, allow)
}

/// Like [`lint_source`], with the TCP runtime's rule.
pub fn lint_transport_source(file: &str, source: &str, allow: &Allowlist) -> Vec<Diagnostic> {
    lint_with(TRANSPORT_RULES, file, source, allow)
}

fn lint_with(rules: Rules, file: &str, source: &str, allow: &Allowlist) -> Vec<Diagnostic> {
    let stripped = strip(source);
    let mut out = Vec::new();
    let raw_lines: Vec<&str> = source.lines().collect();
    for (idx, line) in stripped.lines().enumerate() {
        // Test modules may thread, print and hash at will.
        if line.trim_start().starts_with("#[cfg(test)]") {
            break;
        }
        let raw = raw_lines.get(idx).copied().unwrap_or("");
        for &(rule, patterns) in rules {
            if allow.permits(rule, file) || raw.contains(&format!("lint:allow({rule})")) {
                continue;
            }
            for &pattern in patterns {
                if contains_word(line, pattern) {
                    out.push(Diagnostic {
                        file: file.to_string(),
                        line: idx + 1,
                        rule,
                        pattern,
                        snippet: raw.trim().to_string(),
                    });
                }
            }
        }
    }
    out
}

/// Substring match with word boundaries: the character before the match
/// must not be part of an identifier (so `eprintln!` does not trip
/// `println!`), and when the pattern ends in an identifier character,
/// neither may the character after (so a `HashMapShim` name would not
/// trip `HashMap` — but `HashMap::new` and `HashMap<K, V>` do).
fn contains_word(line: &str, pattern: &str) -> bool {
    let bytes = line.as_bytes();
    let pat = pattern.as_bytes();
    let check_suffix = pattern.chars().last().is_some_and(is_ident);
    let mut start = 0;
    while let Some(pos) = line[start..].find(pattern) {
        let at = start + pos;
        let pre_ok = at == 0 || !is_ident(bytes[at - 1] as char);
        let end = at + pat.len();
        let post_ok = !check_suffix || end >= bytes.len() || !is_ident(bytes[end] as char);
        if pre_ok && post_ok {
            return true;
        }
        start = at + 1;
    }
    false
}

/// The crates whose sources must stay sans-io pure.
const ENGINE_SRC_DIRS: &[&str] = &["crates/multiring-paxos/src", "crates/mrp-amcast/src"];

/// The TCP runtime, whose waits must be for events.
const TRANSPORT_SRC_DIRS: &[&str] = &["crates/mrp-transport/src"];

/// Walks the engine crates under `repo_root` and lints every `.rs`
/// file, using the allowlist at `crates/mrp-check/lint.allow` when
/// present. Returns the diagnostics and the number of files scanned.
///
/// # Errors
///
/// Fails on I/O errors or a malformed allowlist.
pub fn lint_engine_sources(repo_root: &Path) -> Result<(Vec<Diagnostic>, usize), String> {
    lint_dirs(repo_root, ENGINE_SRC_DIRS, ENGINE_RULES)
}

/// Like [`lint_engine_sources`], over the TCP runtime with its rule.
///
/// # Errors
///
/// Fails on I/O errors or a malformed allowlist.
pub fn lint_transport_sources(repo_root: &Path) -> Result<(Vec<Diagnostic>, usize), String> {
    lint_dirs(repo_root, TRANSPORT_SRC_DIRS, TRANSPORT_RULES)
}

fn lint_dirs(
    repo_root: &Path,
    dirs: &[&str],
    rules: Rules,
) -> Result<(Vec<Diagnostic>, usize), String> {
    let allow_path = repo_root.join("crates/mrp-check/lint.allow");
    let allow = if allow_path.exists() {
        let text = std::fs::read_to_string(&allow_path)
            .map_err(|e| format!("{}: {e}", allow_path.display()))?;
        Allowlist::parse(&text)?
    } else {
        Allowlist::default()
    };
    let mut files = Vec::new();
    for dir in dirs {
        collect_rs_files(&repo_root.join(dir), &mut files)?;
    }
    files.sort();
    let mut diags = Vec::new();
    for path in &files {
        let source =
            std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let label = path
            .strip_prefix(repo_root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        diags.extend(lint_with(rules, &label, &source, &allow));
    }
    Ok((diags, files.len()))
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
