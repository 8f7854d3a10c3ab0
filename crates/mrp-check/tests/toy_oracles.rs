//! Checker self-tests against the toy hub-ordered engine: the buggy
//! variant must be caught within the depth bound with a minimized,
//! replayable counterexample (each pinned to the exact schedule the
//! minimizer produces); the correct variant must explore clean;
//! and replays must be digest-stable (the whole premise of
//! fingerprint deduplication).

use mrp_amcast::EngineKind;
use mrp_check::toy::{toy_reorder_scenario, toy_scenario, toy_wedge_scenario};
use mrp_check::{check, replay_schedule, CheckerConfig, Scenario, Schedule};

const WEDGE_SCHED: &str = include_str!("../schedules/toy_wedge_lasso.sched");
const REORDER_SCHED: &str = include_str!("../schedules/toy_reorder_refinement.sched");

fn cfg(depth: usize) -> CheckerConfig {
    CheckerConfig {
        depth,
        ..CheckerConfig::default()
    }
}

#[test]
fn buggy_toy_engine_is_caught_within_depth_bound() {
    // The buggy hub never sends sequence number 2 to its last
    // subscriber, so that node under-delivers: the validity oracle must
    // fire on the fault-free drain of some explored interleaving.
    let report = check(&toy_scenario(3, true), cfg(4));
    let v = report.violation.expect("the planted bug must be found");
    assert_eq!(v.oracle, "validity", "wrong oracle: {v}");
    // Minimized to nothing but the close-out: the fault-free drain from
    // the initial state already under-delivers.
    assert_eq!(v.schedule, Schedule::parse("drain").unwrap());

    // The minimized counterexample replays from scratch to the same
    // oracle — this is exactly what a checked-in regression test of a
    // real bug would do.
    let outcome = replay_schedule(&toy_scenario(3, true), &v.schedule)
        .expect("minimized schedule must stay applicable");
    let replayed = outcome.violation.expect("replay must reproduce");
    assert_eq!(replayed.oracle, "validity");
}

#[test]
fn wedged_toy_engine_is_caught_by_lasso_detection() {
    // The wedged hub parks the second value behind a retry timer that
    // re-arms without retrying. Every safety oracle stays silent — only
    // the liveness pass can object, by finding a fair cycle (the timer
    // fires, the state repeats, someone is still owed a delivery).
    let live = CheckerConfig {
        liveness: true,
        ..cfg(8)
    };
    let report = check(&toy_wedge_scenario(), live);
    assert!(report.lasso_candidates > 0, "no lasso candidates seen");
    let v = report.violation.expect("the wedge must be found");
    assert_eq!(v.oracle, "liveness", "wrong oracle: {v}");
    assert_eq!(v.schedule, Schedule::parse(WEDGE_SCHED).unwrap());

    // Without the liveness pass the close-out drain's validity
    // heuristic still notices the under-delivery — but only as "some
    // deliveries missing at quiescence", with no evidence the stall is
    // permanent. The lasso pass upgrades that to a proper non-progress
    // counterexample: a repeating state whose every timer fired.
    let blind = check(&toy_wedge_scenario(), cfg(8));
    let heuristic = blind.violation.expect("validity heuristic fires too");
    assert_eq!(heuristic.oracle, "validity");
    assert_eq!(blind.lasso_candidates, 0, "no lasso accounting when off");

    // The minimized lasso replays from scratch to the same verdict.
    let outcome = replay_schedule(&toy_wedge_scenario(), &v.schedule)
        .expect("minimized schedule must stay applicable");
    let replayed = outcome.violation.expect("replay must reproduce");
    assert_eq!(replayed.oracle, "liveness");
}

#[test]
fn reordering_toy_engine_is_caught_by_the_refinement_oracle() {
    // The victim plays sequence 2 before sequence 1; once any other
    // process exhibits the agreed 1-then-2 order, the two executions
    // close a cycle in the spec's global partial order and the trace
    // stops being a behavior of the abstract multicast.
    let report = check(&toy_reorder_scenario(), cfg(8));
    let v = report.violation.expect("the reordering must be found");
    assert_eq!(v.oracle, "refinement", "wrong oracle: {v}");
    assert_eq!(v.schedule, Schedule::parse(REORDER_SCHED).unwrap());
    assert!(
        v.detail.contains("cycle") || v.detail.contains("acyclic"),
        "unexpected detail: {}",
        v.detail
    );

    let outcome = replay_schedule(&toy_reorder_scenario(), &v.schedule)
        .expect("minimized schedule must stay applicable");
    let replayed = outcome.violation.expect("replay must reproduce");
    assert_eq!(replayed.oracle, "refinement");
}

#[test]
fn correct_toy_engine_explores_clean() {
    let report = check(&toy_scenario(3, false), cfg(4));
    assert!(
        report.violation.is_none(),
        "false positive:\n{}",
        report.violation.unwrap()
    );

    // A single-value run is small enough to fully quiesce inside the
    // depth bound (hub orders inline, three decisions to deliver).
    let small = check(&toy_scenario(1, false), cfg(6));
    assert!(small.violation.is_none());
    assert!(small.quiescent > 0, "one-value toy run must quiesce");
}

#[test]
fn exploration_is_deterministic() {
    let a = check(&toy_scenario(2, false), cfg(4));
    let b = check(&toy_scenario(2, false), cfg(4));
    assert_eq!(a.explored, b.explored);
    assert_eq!(a.pruned_dedup, b.pruned_dedup);
    assert_eq!(a.pruned_sleep, b.pruned_sleep);
}

#[test]
fn replays_are_digest_stable() {
    // Identical schedules over identical scenarios must land on the
    // same world fingerprint — for the toy and for both real engines.
    let schedule = Schedule::parse("drain").unwrap();
    for build in [
        (|| toy_scenario(2, false)) as fn() -> Scenario,
        || Scenario::mixed(EngineKind::MultiRing),
        || Scenario::mixed(EngineKind::Wbcast),
    ] {
        let a = replay_schedule(&build(), &schedule).unwrap();
        let b = replay_schedule(&build(), &schedule).unwrap();
        assert_eq!(a.final_digest, b.final_digest);
        assert_eq!(a.executed, b.executed, "drain must be deterministic");
        assert!(a.violation.is_none());
    }
}
