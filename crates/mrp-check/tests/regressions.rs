//! Checked-in regression schedules: interleavings that exposed real
//! bugs in earlier PRs, replayed against HEAD on every test run. Each
//! `.sched` file documents the pre-fix failure mode; these tests assert
//! the schedules now run violation-free with the expected deliveries.
//! The two `pr17_probe_*` schedules pin fault branches rather than past
//! bugs: the exact drop and duplicate the exploration of
//! `idle-stream-wbcast` takes on the channel that carries only probes.

use mrp_amcast::EngineKind;
use mrp_check::toy::{toy_reorder_scenario, toy_wedge_scenario};
use mrp_check::{replay_schedule, Scenario, Schedule};
use multiring_paxos::types::ProcessId;
use std::collections::BTreeMap;

const COALESCER_SCHED: &str = include_str!("../schedules/pr7_coalescer_last_frame.sched");
const ORPHAN_SCHED: &str = include_str!("../schedules/pr5_orphan_reentrancy.sched");
const PROBE_DROPPED_SCHED: &str = include_str!("../schedules/pr17_probe_dropped.sched");
const PROBE_DUPLICATED_SCHED: &str = include_str!("../schedules/pr17_probe_duplicated.sched");
const WEDGE_SCHED: &str = include_str!("../schedules/toy_wedge_lasso.sched");
const REORDER_SCHED: &str = include_str!("../schedules/toy_reorder_refinement.sched");

/// PR 7: the per-destination frame coalescer dropped the last frame of
/// a flushed submission batch, so the second of two coalesced values
/// never left the submitter and validity failed everywhere else.
#[test]
fn pr7_coalescer_delivers_the_last_frame() {
    let schedule = Schedule::parse(COALESCER_SCHED).expect("schedule file must parse");
    let scenario = Scenario::batched(EngineKind::Wbcast, false);
    let outcome =
        replay_schedule(&scenario, &schedule).expect("schedule must stay applicable on HEAD");
    assert!(
        outcome.violation.is_none(),
        "regression:\n{}",
        outcome.violation.unwrap()
    );
    assert!(outcome.quiescent, "replay must drain to quiescence");
    for p in 0..3u32 {
        let delivered = &outcome.delivered[&ProcessId::new(p)];
        assert_eq!(
            delivered.len(),
            4,
            "p{p} delivered {} of 4 values",
            delivered.len()
        );
    }
    let p0 = &outcome.counters[&ProcessId::new(0)];
    assert_eq!(
        (p0["batch.flushes"], p0["batch.submitted_values"]),
        (1, 2),
        "the held pair must ride one flush"
    );
    assert!(p0["wire.frames_coalesced"] > 0, "nothing was coalesced");
}

/// PR 5: `on_orphan_state` re-entrancy — with every remaining group
/// self-led by the sequencer, the orphan exchange re-enters inline and
/// used to observe a half-classified state map, wedging the round.
#[test]
fn pr5_orphaned_round_completes_after_initiator_crash() {
    let schedule = Schedule::parse(ORPHAN_SCHED).expect("schedule file must parse");
    let outcome = replay_schedule(&Scenario::orphan(), &schedule)
        .expect("schedule must stay applicable on HEAD");
    assert!(
        outcome.violation.is_none(),
        "regression:\n{}",
        outcome.violation.unwrap()
    );
    assert!(outcome.quiescent, "replay must drain to quiescence");
    // Both survivors deliver the orphaned value exactly once (the
    // releasing group differs per node; delivery is per-value).
    for p in 0..2u32 {
        let delivered = &outcome.delivered[&ProcessId::new(p)];
        assert_eq!(delivered.len(), 1, "p{p} must deliver the orphaned value");
    }
    // And delivery went through the orphan path, not the initiator:
    // p0's sequencers started at least one recovery round. (Completion
    // is not asserted — retiring the round needs a post-release
    // re-probe tick the deterministic drain stops short of.)
    let p0 = &outcome.counters[&ProcessId::new(0)];
    assert!(
        p0["orphan.rounds_started"] >= 1,
        "value was not recovered through the orphan path"
    );
}

/// Replays `text` against the idle-stream deployment: quiescent, no
/// violation, p2's delivery log equal to p0's. Returns the per-node
/// counters.
fn replay_idle_stream(text: &str) -> BTreeMap<ProcessId, BTreeMap<String, u64>> {
    let schedule = Schedule::parse(text).expect("schedule file must parse");
    let outcome = replay_schedule(&Scenario::idle_stream(), &schedule)
        .expect("schedule must stay applicable on HEAD");
    assert!(
        outcome.violation.is_none(),
        "regression:\n{}",
        outcome.violation.unwrap()
    );
    assert!(outcome.quiescent, "replay must drain to quiescence");
    assert_eq!(outcome.delivered[&ProcessId::new(0)].len(), 1);
    assert_eq!(
        outcome.delivered[&ProcessId::new(2)],
        outcome.delivered[&ProcessId::new(0)]
    );
    outcome.counters
}

fn count(counters: &BTreeMap<ProcessId, BTreeMap<String, u64>>, p: u32, name: &str) -> u64 {
    counters[&ProcessId::new(p)].get(name).copied().unwrap_or(0)
}

/// PR 17: a dropped `Probe` is not retried; the idle sequencer's next Δ
/// heartbeat delivers instead.
#[test]
fn pr17_dropped_probe_falls_back_to_the_delta_heartbeat() {
    let counters = replay_idle_stream(PROBE_DROPPED_SCHED);
    assert_eq!(count(&counters, 2, "sub.probes_sent"), 1);
    assert_eq!(count(&counters, 1, "seq.probes_answered"), 0);
}

/// PR 17: a duplicated `Probe` is answered once; the copy is dropped by
/// the promise it finds already made.
#[test]
fn pr17_duplicated_probe_is_answered_once() {
    let counters = replay_idle_stream(PROBE_DUPLICATED_SCHED);
    assert_eq!(count(&counters, 2, "sub.probes_sent"), 1);
    assert_eq!(count(&counters, 1, "seq.probes_answered"), 1);
    assert_eq!(count(&counters, 1, "seq.probes_redundant"), 1);
}

/// Checker self-test kept as a schedule: the minimized lasso for the
/// wedging toy hub must keep being classified as a liveness violation
/// (not merely as validity's quiescence heuristic) on replay.
#[test]
fn toy_wedge_lasso_is_detected_on_replay() {
    let schedule = Schedule::parse(WEDGE_SCHED).expect("schedule file must parse");
    let outcome = replay_schedule(&toy_wedge_scenario(), &schedule)
        .expect("schedule must stay applicable on HEAD");
    let v = outcome.violation.expect("the lasso must reproduce");
    assert_eq!(v.oracle, "liveness", "wrong oracle: {v}");
    assert!(v.detail.contains("non-progress cycle"), "{}", v.detail);
}

/// Checker self-test kept as a schedule: the minimized spec divergence
/// for the reordering toy victim must keep firing the refinement
/// oracle on replay.
#[test]
fn toy_reorder_refinement_is_detected_on_replay() {
    let schedule = Schedule::parse(REORDER_SCHED).expect("schedule file must parse");
    let outcome = replay_schedule(&toy_reorder_scenario(), &schedule)
        .expect("schedule must stay applicable on HEAD");
    let v = outcome.violation.expect("the divergence must reproduce");
    assert_eq!(v.oracle, "refinement", "wrong oracle: {v}");
    assert!(v.detail.contains("cycle"), "{}", v.detail);
}

#[test]
fn schedule_text_round_trips() {
    for text in [
        COALESCER_SCHED,
        ORPHAN_SCHED,
        PROBE_DROPPED_SCHED,
        PROBE_DUPLICATED_SCHED,
        WEDGE_SCHED,
        REORDER_SCHED,
    ] {
        let parsed = Schedule::parse(text).unwrap();
        let rendered = parsed.to_string();
        assert_eq!(Schedule::parse(&rendered).unwrap(), parsed);
    }
    // Every choice kind, including the fault and timer vocabulary.
    let all = "deliver 0>1\ndrop 2>0\ndup 1>2\nfire 0 delta:0\nfire 1 resend:1\n\
               fire 2 gap\nfire 1 trim\nfire 2 ckpt-tick\n\
               fire 0 recovery\nfire 1 submit-flush\nckpt 1\ncrash 2\nrestart 2\ndrain\n";
    let parsed = Schedule::parse(all).unwrap();
    assert!(parsed.drain);
    assert_eq!(parsed.steps.len(), 13);
    assert_eq!(Schedule::parse(&parsed.to_string()).unwrap(), parsed);
}

#[test]
fn malformed_schedules_are_rejected() {
    for bad in [
        "deliver 0",            // missing destination
        "fire 0 frobnicate",    // unknown timer
        "teleport 1>2",         // unknown verb
        "deliver 0>1 trailing", // trailing junk
    ] {
        assert!(Schedule::parse(bad).is_err(), "`{bad}` must not parse");
    }
}
