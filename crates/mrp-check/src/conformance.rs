//! Wire-conformance lints: the codec, the engine frame vocabulary and
//! the protocol constants must stay mutually consistent.
//!
//! The sans-io lints in [`lint`](crate::lint) keep the engines
//! *checkable*; this suite keeps the wire layer *honest*. Five rule
//! families, all dependency-free source scanning plus one live codec
//! exercise:
//!
//! | rule                | rejects |
//! |---------------------|---------|
//! | `codec-tags`        | colliding wire-tag values; a declared tag not referenced by both an encode and a decode path (dead vocabulary) |
//! | `frame-coverage`    | an enum variant missing from any of its codec/dispatch functions — every [`Message`] variant must appear in `encode` and `decode`; every [`PersistRecord`] variant in `encode_record` and `decode_record` (lengths are the encoder run over a counting sink, so there is no third function to cover); every white-box `WbMessage` frame in `into_frame`, `parse` and `on_wb_message` (constructed somewhere ⇒ matched somewhere) |
//! | `protocol-constants`| a missing `const _` static assertion for the load-bearing recovery-window algebra (`TAKEOVER_GRACE_DELTAS ≥ ORPHAN_DELTAS + RETRY_DELTAS`, `ORPHAN_DELTAS > RETRY_DELTAS`) |
//! | `round-trip`        | a [`Message`] or [`PersistRecord`] variant without a sample that encodes, decodes, compares equal and leaves no trailing byte through the live codec |
//! | `timer-liveness`    | a `TimerKind` variant no non-test code arms (`SetTimer { timer: TimerKind::V }` or `fx.timer(.., TimerKind::V)`), or none handles (an `Event::Timer(TimerKind::V)` pattern or an `on_timer` arm) — a timer whose feature was deleted must go with it |
//!
//! Like the purity lints, sources are stripped of comments and string
//! literals and matching stops at the first `#[cfg(test)]`. The
//! functions all take source *text* so the self-tests can feed doctored
//! sources with injected violations; [`conformance_check`] is the
//! entry point the `lint` binary runs against the real tree.

use std::collections::BTreeSet;
use std::fmt;
use std::path::Path;

use bytes::{Bytes, BytesMut};
use multiring_paxos::codec::{decode, decode_record, encode, encode_record, CodecError};
use multiring_paxos::event::{Message, PersistRecord};
use multiring_paxos::recovery::CheckpointId;
use multiring_paxos::types::{
    Ballot, ClientId, ConsensusValue, GroupId, InstanceId, ProcessId, RingId, Value, ValueId,
};

use crate::lint::{contains_word, strip};

/// One conformance finding: the rule, the (logical) file and what is
/// inconsistent.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Finding {
    /// Rule identifier (`codec-tags`, `frame-coverage`,
    /// `protocol-constants`, `round-trip`, `timer-liveness`).
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
    match stripped
        .lines()
        .position(|l| l.trim_start().starts_with("#[cfg(test)]"))
    {
        Some(cut) => stripped.lines().take(cut).collect::<Vec<_>>().join("\n"),
        None => stripped,
    }
}

/// Counts word-boundary occurrences of `needle` in `text`.
fn count_word(text: &str, needle: &str) -> usize {
    text.lines().filter(|l| contains_word(l, needle)).count()
}

/// Extracts `const TAG_*` declarations with `u8` literal values:
/// `(name, value, 1-based line)`.
pub fn parse_tag_consts(source: &str) -> Vec<(String, u8, usize)> {
    let mut out = Vec::new();
    for (idx, raw) in prepared(source).lines().enumerate() {
        let line = raw.trim_start().trim_start_matches("pub ");
        let Some(rest) = line.strip_prefix("const TAG_") else {
            continue;
        };
        let Some((name_tail, rest)) = rest.split_once(':') else {
            continue;
        };
        let Some((_, value)) = rest.split_once('=') else {
            continue;
        };
        let Ok(value) = value.trim().trim_end_matches(';').trim().parse::<u8>() else {
            continue;
        };
        out.push((format!("TAG_{}", name_tail.trim()), value, idx + 1));
    }
    out
}

/// The `codec-tags` rule over one file: no two tags may share a value,
/// and every declared tag must be referenced at least twice beyond its
/// declaration (once encoding, once decoding) — a tag that is not is
/// dead vocabulary.
pub fn check_codec_tags(file: &str, source: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    let text = prepared(source);
    let tags = parse_tag_consts(source);
    for (i, (name, value, line)) in tags.iter().enumerate() {
        for (other, value2, line2) in tags.iter().skip(i + 1) {
            if value == value2 {
                out.push(Finding {
                    rule: "codec-tags",
                    file: file.to_string(),
                    detail: format!(
                        "tag collision: `{name}` (line {line}) and `{other}` (line {line2}) \
                         both use wire value {value}"
                    ),
                });
            }
        }
        let uses = count_word(&text, name);
        if uses < 3 {
            out.push(Finding {
                rule: "codec-tags",
                file: file.to_string(),
                detail: format!(
                    "dead tag: `{name}` (line {line}) referenced on {uses} line(s) including \
                     its declaration; an alive tag appears in both an encode and a decode path"
                ),
            });
        }
    }
    out
}

/// Parses the variant names of `enum enum_name` out of `source`
/// (stripped, pre-`#[cfg(test)]`).
pub fn parse_enum_variants(source: &str, enum_name: &str) -> Vec<String> {
    let text = prepared(source);
    let Some(body) = enum_body(&text, enum_name) else {
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
                let mut name = String::new();
                name.push(c);
                while let Some(&n) = chars.peek() {
                    if n.is_ascii_alphanumeric() || n == '_' {
                        name.push(n);
                        chars.next();
                    } else {
                        break;
                    }
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

/// Returns the brace-matched body of `enum enum_name { ... }`.
fn enum_body<'t>(text: &'t str, enum_name: &str) -> Option<&'t str> {
    let needle = format!("enum {enum_name}");
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

/// Returns the brace-matched body of the first function named
/// `fn_name` in `text` (which must already be stripped).
fn fn_body<'t>(text: &'t str, fn_name: &str) -> Option<&'t str> {
    let needle = format!("fn {fn_name}");
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
                        return Some(&text[open..open + i + 1]);
                    }
                }
                _ => {}
            }
        }
        return None;
    }
}

/// The `frame-coverage` rule: every variant of `enum_name` (parsed from
/// `enum_src`) must appear, qualified (`Enum::Variant`), inside the
/// body of each function in `fns` within `impl_src` — constructed
/// somewhere means matched somewhere, in every direction the frame
/// travels.
pub fn check_enum_fn_coverage(
    file: &str,
    enum_src: &str,
    enum_name: &str,
    impl_src: &str,
    fns: &[&str],
) -> Vec<Finding> {
    let mut out = Vec::new();
    let variants = parse_enum_variants(enum_src, enum_name);
    if variants.is_empty() {
        out.push(Finding {
            rule: "frame-coverage",
            file: file.to_string(),
            detail: format!("enum `{enum_name}` not found (or has no variants)"),
        });
        return out;
    }
    let text = prepared(impl_src);
    for &f in fns {
        let Some(body) = fn_body(&text, f) else {
            out.push(Finding {
                rule: "frame-coverage",
                file: file.to_string(),
                detail: format!("function `{f}` not found while checking `{enum_name}` coverage"),
            });
            continue;
        };
        for v in &variants {
            let needle = format!("{enum_name}::{v}");
            if !body.lines().any(|l| contains_word(l, &needle)) {
                out.push(Finding {
                    rule: "frame-coverage",
                    file: file.to_string(),
                    detail: format!("`{needle}` is not handled in `{f}`"),
                });
            }
        }
    }
    out
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

/// One hand-maintained sample per [`Message`] variant for the live
/// round-trip check. The completeness of this list is itself checked
/// against the enum source, so a new variant without a sample is a
/// finding, not a silent gap.
fn message_samples() -> Vec<(&'static str, Message)> {
    let value = Value::new(
        ValueId::new(ProcessId::new(3), 77),
        GroupId::new(2),
        Bytes::from_static(b"conformance"),
    );
    let cv = ConsensusValue::Values(vec![value.clone()]);
    let ckpt = CheckpointId {
        marks: vec![(GroupId::new(0), InstanceId::new(10))],
        cursor_group: 1,
        cursor_used: 0,
    };
    vec![
        (
            "Forward",
            Message::Forward {
                ring: RingId::new(1),
                values: vec![value],
                hops: 2,
            },
        ),
        (
            "Phase1A",
            Message::Phase1A {
                ring: RingId::new(1),
                ballot: Ballot::new(4, ProcessId::new(2)),
                from: InstanceId::new(5),
            },
        ),
        (
            "Phase1B",
            Message::Phase1B {
                ring: RingId::new(1),
                ballot: Ballot::new(4, ProcessId::new(2)),
                from: InstanceId::new(5),
                accepted: vec![(
                    InstanceId::new(6),
                    Ballot::new(3, ProcessId::new(1)),
                    cv.clone(),
                )],
                trimmed: InstanceId::new(2),
            },
        ),
        (
            "Phase2",
            Message::Phase2 {
                ring: RingId::new(1),
                ballot: Ballot::new(4, ProcessId::new(2)),
                first: InstanceId::new(7),
                count: 1,
                value: cv.clone(),
                votes: 2,
            },
        ),
        (
            "Decision",
            Message::Decision {
                ring: RingId::new(1),
                first: InstanceId::new(7),
                count: 1,
                value: Some(cv),
                hops: 1,
            },
        ),
        (
            "Retransmit",
            Message::Retransmit {
                ring: RingId::new(0),
                from: InstanceId::new(1),
                to: InstanceId::new(4),
            },
        ),
        (
            "RetransmitReply",
            Message::RetransmitReply {
                ring: RingId::new(0),
                decided: vec![(InstanceId::new(1), 2, ConsensusValue::Skip)],
                trimmed: InstanceId::ZERO,
            },
        ),
        (
            "TrimQuery",
            Message::TrimQuery {
                group: GroupId::new(3),
                seq: 9,
            },
        ),
        (
            "TrimReply",
            Message::TrimReply {
                group: GroupId::new(3),
                seq: 9,
                safe: InstanceId::new(100),
            },
        ),
        (
            "TrimCommand",
            Message::TrimCommand {
                ring: RingId::new(2),
                upto: InstanceId::new(50),
            },
        ),
        ("CheckpointQuery", Message::CheckpointQuery { seq: 1 }),
        (
            "CheckpointInfo",
            Message::CheckpointInfo {
                seq: 1,
                checkpoint: Some(ckpt.clone()),
            },
        ),
        (
            "CheckpointFetch",
            Message::CheckpointFetch {
                seq: 3,
                id: ckpt.clone(),
            },
        ),
        (
            "CheckpointData",
            Message::CheckpointData {
                seq: 3,
                id: ckpt,
                snapshot: Some(Bytes::from_static(b"snapshot")),
            },
        ),
        (
            "Request",
            Message::Request {
                client: ClientId::new(8),
                request: 55,
                groups: vec![GroupId::new(1)],
                payload: Bytes::from_static(b"cmd"),
            },
        ),
        (
            "Response",
            Message::Response {
                client: ClientId::new(8),
                request: 55,
                payload: Bytes::from_static(b"ok"),
            },
        ),
        (
            "Batch",
            Message::Batch(vec![Message::CheckpointQuery { seq: 4 }]),
        ),
        (
            "Engine",
            Message::Engine {
                engine: 1,
                payload: Bytes::from_static(b"engine-frame"),
            },
        ),
    ]
}

/// One sample per [`PersistRecord`] variant, held to the same
/// checked-complete rule as [`message_samples`]: the WAL and the
/// checkpoint file are read back by whatever version restarts on them.
fn record_samples() -> Vec<(&'static str, PersistRecord)> {
    let value = Value::new(
        ValueId::new(ProcessId::new(3), 77),
        GroupId::new(2),
        Bytes::from_static(b"conformance"),
    );
    vec![
        (
            "Promise",
            PersistRecord::Promise {
                ring: RingId::new(1),
                ballot: Ballot::new(4, ProcessId::new(2)),
                from: InstanceId::new(5),
            },
        ),
        (
            "Vote",
            PersistRecord::Vote {
                ring: RingId::new(1),
                ballot: Ballot::new(4, ProcessId::new(2)),
                first: InstanceId::new(7),
                count: 1,
                value: ConsensusValue::Values(vec![value]),
            },
        ),
        (
            "Checkpoint",
            PersistRecord::Checkpoint {
                id: CheckpointId {
                    marks: vec![(GroupId::new(0), InstanceId::new(10))],
                    cursor_group: 1,
                    cursor_used: 0,
                },
                snapshot: Bytes::from_static(b"snapshot"),
            },
        ),
        (
            "Decision",
            PersistRecord::Decision {
                ring: RingId::new(1),
                first: InstanceId::new(7),
                count: 2,
            },
        ),
    ]
}

/// The `round-trip` rule for one enum: every variant of `enum_name`
/// parsed from `event_src` must have a sample in `samples` that
/// decodes back equal through the live codec and leaves no trailing
/// bytes.
fn check_round_trip<T: PartialEq>(
    event_src: &str,
    enum_name: &str,
    samples: &[(&'static str, T)],
    encode: impl Fn(&T, &mut BytesMut),
    decode: impl Fn(&mut Bytes) -> Result<T, CodecError>,
) -> Vec<Finding> {
    let finding = |file: &str, detail| Finding {
        rule: "round-trip",
        file: format!("crates/multiring-paxos/src/{file}"),
        detail,
    };
    let mut out = Vec::new();
    for v in parse_enum_variants(event_src, enum_name) {
        if !samples.iter().any(|(name, _)| *name == v) {
            out.push(finding(
                "event.rs",
                format!("`{enum_name}::{v}` has no round-trip sample in the conformance suite"),
            ));
        }
    }
    for (name, sample) in samples {
        let mut buf = BytesMut::new();
        encode(sample, &mut buf);
        let mut frozen = buf.freeze();
        let detail = match decode(&mut frozen) {
            Ok(back) if &back == sample && frozen.is_empty() => continue,
            Ok(back) if &back == sample => format!(
                "`{enum_name}::{name}` leaves {} trailing byte(s) after decode",
                frozen.len()
            ),
            Ok(_) => format!("`{enum_name}::{name}` does not decode back to itself"),
            Err(e) => format!("`{enum_name}::{name}` fails to decode: {e}"),
        };
        out.push(finding("codec.rs", detail));
    }
    out
}

/// The `round-trip` rule over the [`Message`] variants parsed from
/// `event_src`.
pub fn check_message_round_trip(event_src: &str) -> Vec<Finding> {
    check_round_trip(event_src, "Message", &message_samples(), encode, decode)
}

/// The `round-trip` rule over the [`PersistRecord`] variants parsed
/// from `event_src`.
pub fn check_record_round_trip(event_src: &str) -> Vec<Finding> {
    let samples = record_samples();
    check_round_trip(
        event_src,
        "PersistRecord",
        &samples,
        encode_record,
        decode_record,
    )
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
        let on_timer = fn_body(&text, "on_timer").unwrap_or_default();
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

/// Runs the whole wire-conformance suite against the real tree under
/// `repo_root`. Returns the findings and the number of source files
/// inspected.
///
/// # Errors
///
/// Fails when one of the inspected sources cannot be read.
pub fn conformance_check(repo_root: &Path) -> Result<(Vec<Finding>, usize), String> {
    // The white-box engine is one module per protocol role: the frame
    // codec lives in `wire.rs`, dispatch and the protocol constants in
    // `mod.rs`, and any of the role modules may arm a timer.
    const WBCAST_DIR: &str = "crates/mrp-amcast/src/wbcast";
    const WIRE: &str = "crates/mrp-amcast/src/wbcast/wire.rs";
    const MOD: &str = "crates/mrp-amcast/src/wbcast/mod.rs";
    let mut files_read = 0;
    let mut read = |rel: &str| -> Result<String, String> {
        files_read += 1;
        std::fs::read_to_string(repo_root.join(rel)).map_err(|e| format!("{rel}: {e}"))
    };
    let event_src = read("crates/multiring-paxos/src/event.rs")?;
    let codec_src = read("crates/multiring-paxos/src/codec.rs")?;
    let wire_src = read(WIRE)?;
    let mod_src = read(MOD)?;
    let mut role_srcs = Vec::new();
    let dir_err = |e: std::io::Error| format!("{WBCAST_DIR}: {e}");
    for entry in std::fs::read_dir(repo_root.join(WBCAST_DIR)).map_err(dir_err)? {
        let name = entry.map_err(dir_err)?.file_name();
        let name = name.to_string_lossy();
        if name.ends_with(".rs") && !["wire.rs", "mod.rs", "tests.rs"].contains(&&*name) {
            role_srcs.push(read(&format!("{WBCAST_DIR}/{name}"))?);
        }
    }
    let mut findings = Vec::new();
    findings.extend(check_codec_tags(
        "crates/multiring-paxos/src/codec.rs",
        &codec_src,
    ));
    findings.extend(check_codec_tags(WIRE, &wire_src));
    findings.extend(check_enum_fn_coverage(
        "crates/multiring-paxos/src/codec.rs",
        &event_src,
        "Message",
        &codec_src,
        &["encode", "decode"],
    ));
    findings.extend(check_enum_fn_coverage(
        "crates/multiring-paxos/src/codec.rs",
        &event_src,
        "PersistRecord",
        &codec_src,
        &["encode_record", "decode_record"],
    ));
    findings.extend(check_enum_fn_coverage(
        WIRE,
        &wire_src,
        "WbMessage",
        &wire_src,
        &["into_frame", "parse"],
    ));
    findings.extend(check_enum_fn_coverage(
        MOD,
        &wire_src,
        "WbMessage",
        &mod_src,
        &["on_wb_message"],
    ));
    findings.extend(check_protocol_constants(MOD, &mod_src));
    findings.extend(check_message_round_trip(&event_src));
    findings.extend(check_record_round_trip(&event_src));
    let ring_src = read("crates/multiring-paxos/src/ring/mod.rs")?;
    let node_src = read("crates/multiring-paxos/src/node.rs")?;
    let engine_src = read("crates/mrp-amcast/src/engine.rs")?;
    let replica_src = read("crates/mrp-amcast/src/replica.rs")?;
    let mut timer_srcs: Vec<&str> = vec![
        &ring_src,
        &node_src,
        &engine_src,
        &replica_src,
        &wire_src,
        &mod_src,
    ];
    timer_srcs.extend(role_srcs.iter().map(String::as_str));
    findings.extend(check_timer_liveness(&event_src, &timer_srcs));
    Ok((findings, files_read))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn colliding_and_dead_tags_are_flagged() {
        let src = "const TAG_A: u8 = 1;\nconst TAG_B: u8 = 1;\nconst TAG_C: u8 = 2;\n\
                   fn encode() { use_tag(TAG_A); use_tag(TAG_B); use_tag(TAG_C); }\n\
                   fn decode() { use_tag(TAG_A); use_tag(TAG_B); }\n";
        let findings = check_codec_tags("doctored.rs", src);
        assert!(
            findings
                .iter()
                .any(|f| f.detail.contains("collision") && f.detail.contains("TAG_B")),
            "{findings:?}"
        );
        assert!(
            findings
                .iter()
                .any(|f| f.detail.contains("dead tag") && f.detail.contains("TAG_C")),
            "{findings:?}"
        );
        assert_eq!(findings.len(), 2, "{findings:?}");
    }

    #[test]
    fn tag_mentions_inside_tests_do_not_count() {
        let src = "const TAG_A: u8 = 1;\nfn encode() { t(TAG_A); }\n\
                   #[cfg(test)]\nmod tests { fn x() { t(TAG_A); t(TAG_A); } }\n";
        let findings = check_codec_tags("doctored.rs", src);
        assert!(
            findings.iter().any(|f| f.detail.contains("dead tag")),
            "uses inside #[cfg(test)] must not keep a tag alive: {findings:?}"
        );
    }

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
    fn missing_handler_coverage_is_flagged() {
        let enum_src = "enum Wb { A { x: u8 }, B, C(u8) }";
        let impl_src = "fn into_frame(self) { match self { Wb::A { .. } => 1, Wb::B => 2, \
                        Wb::C(_) => 3 } }\n\
                        fn parse(b: u8) { if b == 1 { Wb::A { x: 0 } } else { Wb::B } }\n";
        let findings =
            check_enum_fn_coverage("d.rs", enum_src, "Wb", impl_src, &["into_frame", "parse"]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0]
            .detail
            .contains("`Wb::C` is not handled in `parse`"));
    }

    #[test]
    fn missing_function_is_flagged() {
        let findings =
            check_enum_fn_coverage("d.rs", "enum E { V }", "E", "fn other() {}", &["handle"]);
        assert!(
            findings
                .iter()
                .any(|f| f.detail.contains("`handle` not found")),
            "{findings:?}"
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

    #[test]
    fn unknown_variant_without_sample_is_flagged() {
        let doctored = "pub enum Message { Forward { x: u8 }, Teleport { warp: u64 } }";
        let findings = check_message_round_trip(doctored);
        assert!(
            findings.iter().any(|f| f
                .detail
                .contains("`Message::Teleport` has no round-trip sample")),
            "{findings:?}"
        );
    }

    #[test]
    fn live_codec_round_trips_every_sample() {
        // Against a minimal enum source listing exactly the real
        // variants, the rule reduces to the live encode/decode checks.
        let findings = check_message_round_trip("enum Message { Forward }");
        assert!(findings.is_empty(), "{findings:?}");
        let findings = check_record_round_trip("enum PersistRecord { Vote }");
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn record_variant_without_sample_is_flagged() {
        let doctored = "pub enum PersistRecord { Vote { x: u8 }, Lease { until: u64 } }";
        let details: Vec<String> = check_record_round_trip(doctored)
            .into_iter()
            .map(|f| f.detail)
            .collect();
        assert_eq!(
            details,
            ["`PersistRecord::Lease` has no round-trip sample in the conformance suite"]
        );
    }

    #[test]
    fn a_codec_that_does_not_round_trip_is_flagged() {
        // A decoder that loses a field, one that stops a byte short,
        // and one that fails: each is a finding against codec.rs.
        let samples = [("A", 7u8)];
        let put = |v: &u8, buf: &mut BytesMut| buf.extend_from_slice(&[*v, *v]);
        let run = |decode: fn(&mut Bytes) -> Result<u8, CodecError>| {
            let findings = check_round_trip("enum E { A }", "E", &samples, put, decode);
            assert_eq!(findings.len(), 1, "{findings:?}");
            assert!(findings[0].file.ends_with("codec.rs"));
            findings[0].detail.clone()
        };
        assert!(run(|b| {
            *b = Bytes::new();
            Ok(8)
        })
        .contains("does not decode back to itself"));
        assert!(run(|b| Ok(b.split_to(1)[0])).contains("1 trailing byte"));
        assert!(run(|_| Err(CodecError::Truncated)).contains("fails to decode"));
    }
}
