//! Conformance lints: what the protocol sources must keep saying and
//! the compiler cannot check.
//!
//! The sans-io lints in [`lint`](crate::lint) keep the engines
//! *checkable*; the two rule families here keep two cross-file promises,
//! by dependency-free source scanning:
//!
//! | rule                | rejects |
//! |---------------------|---------|
//! | `protocol-constants`| a missing `const _` static assertion for the load-bearing recovery-window algebra (`TAKEOVER_GRACE_DELTAS ≥ ORPHAN_DELTAS + RETRY_DELTAS`, `ORPHAN_DELTAS > RETRY_DELTAS`) |
//! | `timer-liveness`    | a `TimerKind` variant no non-test code arms (`SetTimer { timer: TimerKind::V }` or `fx.timer(.., TimerKind::V)`), or none handles (an `Event::Timer(TimerKind::V)` pattern or an `on_timer` arm) — a timer whose feature was deleted must go with it |
//!
//! Three more families lived here until every wire vocabulary became a
//! tag enum (`multiring_paxos::codec::wire_tags!`); the compiler and
//! each format's test module now say the same in every build, for the
//! services' command sets too:
//!
//! | retired rule     | now |
//! |------------------|-----|
//! | `codec-tags`     | two tags with one value: E0081; a tag without a read arm: E0004; a tag nobody writes fails `every_tag_opens_a_golden` |
//! | `frame-coverage` | a variant missing from `encode`/`into_frame`/`on_wb_message`: E0004; from `decode`/`parse`: its tag has no read arm (E0004) or no golden |
//! | `round-trip`     | a variant without a pinned sample does not compile (the tests' exhaustive `tag_of`), then fails `every_tag_opens_a_golden`; the goldens are what round-trips |
//!
//! Like the purity lints, sources are stripped of comments and string
//! literals and matching stops at the first `#[cfg(test)]`. The
//! functions all take source *text* so the self-tests can feed doctored
//! sources with injected violations; [`conformance_check`] is the
//! entry point the `lint` binary runs against the real tree.

use std::collections::BTreeSet;
use std::fmt;
use std::path::Path;

use crate::lint::strip;

/// One conformance finding: the rule, the (logical) file and what is
/// inconsistent.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Finding {
    /// Rule identifier (`protocol-constants`, `timer-liveness`).
    pub rule: &'static str,
    /// File the inconsistency concerns (as given to the checker).
    pub file: String,
    /// Human-readable description.
    pub detail: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: [{}] {}", self.file, self.rule, self.detail)
    }
}

/// Strips comments/strings and truncates at the first `#[cfg(test)]`
/// so test-module mentions never satisfy (or trip) a rule.
fn prepared(source: &str) -> String {
    let stripped = strip(source);
    let before_tests = |l: &&str| !l.trim_start().starts_with("#[cfg(test)]");
    let lines: Vec<&str> = stripped.lines().take_while(before_tests).collect();
    lines.join("\n")
}

/// Parses the variant names of `enum enum_name` out of `source`
/// (stripped, pre-`#[cfg(test)]`).
pub fn parse_enum_variants(source: &str, enum_name: &str) -> Vec<String> {
    let text = prepared(source);
    let Some(body) = item_body(&text, "enum", enum_name) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut at_variant = true;
    let mut chars = body.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '{' | '(' | '<' | '[' => depth += 1,
            '}' | ')' | '>' | ']' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => at_variant = true,
            c if at_variant && depth == 0 && c.is_ascii_uppercase() => {
                let mut name = String::from(c);
                while let Some(n) = chars.next_if(|n| n.is_ascii_alphanumeric() || *n == '_') {
                    name.push(n);
                }
                out.push(name);
                at_variant = false;
            }
            c if !c.is_whitespace() && depth == 0 => at_variant = false,
            _ => {}
        }
    }
    out
}

/// Returns the brace-matched body of the first item `keyword name`
/// (`enum Message`, `fn on_timer`) in `text`, which must already be
/// stripped; `None` when there is no such item.
fn item_body<'t>(text: &'t str, keyword: &str, name: &str) -> Option<&'t str> {
    let needle = format!("{keyword} {name}");
    let mut search = 0usize;
    loop {
        let at = search + text[search..].find(&needle)?;
        let end = at + needle.len();
        let next = text[end..].chars().next();
        if next.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_') {
            search = end;
            continue;
        }
        let open = end + text[end..].find('{')?;
        let mut depth = 0usize;
        for (i, c) in text[open..].char_indices() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(&text[open + 1..open + i]);
                    }
                }
                _ => {}
            }
        }
        return None;
    }
}

/// The static assertions the `protocol-constants` rule demands in the
/// white-box engine source, compared whitespace-insensitively. The
/// recovery-window algebra from the sequencer-handover fix is
/// load-bearing: the takeover grace must cover the orphan timeout plus
/// one retry period or re-injected decided values can miss the held
/// stream.
const REQUIRED_CONST_ASSERTS: &[&str] = &[
    "const _: () = assert!(TAKEOVER_GRACE_DELTAS >= ORPHAN_DELTAS + RETRY_DELTAS",
    "const _: () = assert!(ORPHAN_DELTAS > RETRY_DELTAS",
];

/// The `protocol-constants` rule: the white-box engine source must
/// carry a compile-time assertion for each relation in
/// `REQUIRED_CONST_ASSERTS`.
pub fn check_protocol_constants(file: &str, source: &str) -> Vec<Finding> {
    let squeezed: String = prepared(source)
        .chars()
        .filter(|c| !c.is_whitespace())
        .collect();
    let mut out = Vec::new();
    for required in REQUIRED_CONST_ASSERTS {
        let needle: String = required.chars().filter(|c| !c.is_whitespace()).collect();
        if !squeezed.contains(&needle) {
            out.push(Finding {
                rule: "protocol-constants",
                file: file.to_string(),
                detail: format!("missing static assertion `{required}...)`"),
            });
        }
    }
    out
}

/// The `TimerKind` variant names that directly follow each occurrence
/// of `marker` (which ends in `TimerKind::`) in `text`.
fn timer_kinds_after<'t>(text: &'t str, marker: &'t str) -> impl Iterator<Item = String> + 't {
    text.match_indices(marker).map(|(at, m)| {
        let tail = &text[at + m.len()..];
        let end = tail.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'));
        tail[..end.unwrap_or(tail.len())].to_string()
    })
}

/// The `timer-liveness` rule: every `TimerKind` variant (parsed from
/// `event_src`) must be *armed* somewhere in `sources` — named by the
/// `timer:` field of a `SetTimer` literal or inside a `.timer(..)`
/// call — and *handled* — matched as `Event::Timer(TimerKind::V..)` or
/// inside an `fn on_timer` body. Test modules count for neither.
pub fn check_timer_liveness(event_src: &str, sources: &[&str]) -> Vec<Finding> {
    let mut armed = BTreeSet::new();
    let mut handled = BTreeSet::new();
    for src in sources {
        let text = prepared(src);
        let on_timer = item_body(&text, "fn", "on_timer").unwrap_or_default();
        handled.extend(timer_kinds_after(on_timer, "TimerKind::"));
        let squeezed: String = text.chars().filter(|c| !c.is_whitespace()).collect();
        handled.extend(timer_kinds_after(&squeezed, "Event::Timer(TimerKind::"));
        armed.extend(timer_kinds_after(&squeezed, "timer:TimerKind::"));
        for (at, call) in squeezed.match_indices(".timer(") {
            // The call is a statement: its arguments end at the `;`.
            let args = squeezed[at + call.len()..].split(';').next();
            armed.extend(timer_kinds_after(args.unwrap_or_default(), "TimerKind::"));
        }
    }
    let mut out = Vec::new();
    for v in parse_enum_variants(event_src, "TimerKind") {
        for (sites, what) in [(&armed, "armed"), (&handled, "handled")] {
            if !sites.contains(&v) {
                out.push(Finding {
                    rule: "timer-liveness",
                    file: "crates/multiring-paxos/src/event.rs".into(),
                    detail: format!("`TimerKind::{v}` is never {what} outside tests"),
                });
            }
        }
    }
    out
}

/// Runs both rules against the real tree under `repo_root`. Returns the
/// findings and the number of source files inspected.
///
/// # Errors
///
/// Fails when one of the inspected sources cannot be read.
pub fn conformance_check(repo_root: &Path) -> Result<(Vec<Finding>, usize), String> {
    // The white-box engine is one module per protocol role: the
    // protocol constants live in `mod.rs`, and any role may arm a timer.
    const WBCAST_DIR: &str = "crates/mrp-amcast/src/wbcast";
    const MOD: &str = "crates/mrp-amcast/src/wbcast/mod.rs";
    let read = |rel: &str| -> Result<String, String> {
        std::fs::read_to_string(repo_root.join(rel)).map_err(|e| format!("{rel}: {e}"))
    };
    let event_src = read("crates/multiring-paxos/src/event.rs")?;
    let mod_src = read(MOD)?;
    let mut timer_srcs = vec![
        read("crates/multiring-paxos/src/ring/mod.rs")?,
        read("crates/multiring-paxos/src/node.rs")?,
        read("crates/mrp-amcast/src/engine.rs")?,
        read("crates/mrp-amcast/src/replica.rs")?,
    ];
    let dir_err = |e: std::io::Error| format!("{WBCAST_DIR}: {e}");
    for entry in std::fs::read_dir(repo_root.join(WBCAST_DIR)).map_err(dir_err)? {
        let name = entry.map_err(dir_err)?.file_name();
        let name = name.to_string_lossy();
        if name.ends_with(".rs") && name != "tests.rs" {
            timer_srcs.push(read(&format!("{WBCAST_DIR}/{name}"))?);
        }
    }
    let timer_srcs: Vec<&str> = timer_srcs.iter().map(String::as_str).collect();
    let mut findings = check_protocol_constants(MOD, &mod_src);
    findings.extend(check_timer_liveness(&event_src, &timer_srcs));
    // `event.rs` and each timer source; `mod.rs` is one of those.
    Ok((findings, 1 + timer_srcs.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enum_variants_parse_from_real_shapes() {
        let src = "pub enum Message {\n    Forward { ring: RingId, values: Vec<Value> },\n\
                   \n    Decision {\n        ring: RingId,\n    },\n    Batch(Vec<Message>),\n\
                       Ping,\n}\n";
        assert_eq!(
            parse_enum_variants(src, "Message"),
            vec!["Forward", "Decision", "Batch", "Ping"]
        );
    }

    #[test]
    fn missing_const_assert_is_flagged() {
        let with =
            "const _: () = assert!(TAKEOVER_GRACE_DELTAS >= ORPHAN_DELTAS + RETRY_DELTAS);\n\
                    const _: () = assert!(ORPHAN_DELTAS > RETRY_DELTAS);\n";
        assert!(check_protocol_constants("d.rs", with).is_empty());
        let without = "const TAKEOVER_GRACE_DELTAS: u64 = 16;\n";
        let findings = check_protocol_constants("d.rs", without);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings[0].rule == "protocol-constants");
    }

    #[test]
    fn dead_timers_are_flagged() {
        let event = "pub enum TimerKind { Delta(RingId), Stale(RingId), Orphan, Tick }";
        // Delta: armed through `fx.timer`, handled in `on_timer`. Tick:
        // armed by a `SetTimer` literal, handled as an `Event::Timer`
        // pattern. Stale: still matched, its arming site deleted.
        // Orphan: still armed, nothing handles it. Test modules and
        // mentions outside arming/handling sites vouch for nothing.
        let src = "fn arm(fx: &mut Fx) {\n    fx.timer(self.cfg.delta(), TimerKind::Delta(self.id()));\n\
                   out.push(Action::SetTimer {\n after_us: 5,\n timer: TimerKind::Tick,\n });\n\
                   fx.timer(9, TimerKind::Orphan);\n let k = TimerKind::Stale(r);\n}\n\
                   fn on_timer(k: TimerKind) { match k { TimerKind::Delta(r) | TimerKind::Stale(r) => {} } }\n\
                   fn on_event(e: Event) { match e { Event::Timer(TimerKind::Tick) => {} } }\n\
                   #[cfg(test)]\nmod tests { fn t() { fx.timer(1, TimerKind::Stale(r)); } }\n";
        let details: Vec<String> = check_timer_liveness(event, &[src])
            .into_iter()
            .map(|f| f.detail)
            .collect();
        assert_eq!(
            details,
            [
                "`TimerKind::Stale` is never armed outside tests",
                "`TimerKind::Orphan` is never handled outside tests",
            ]
        );
    }
}
