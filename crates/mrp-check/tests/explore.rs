//! Bounded exploration of the real engines: both engines' mixed-traffic
//! scenario is explored with fault branching on and must stay
//! violation-free; dedup + partial-order reduction must beat a naive
//! DFS. These run the debug build, so depths are kept small — the CI
//! smoke (`cargo run --release -p mrp-check --bin check`) explores a
//! depth deeper and enforces the >10x reduction criterion.

use mrp_amcast::EngineKind;
use mrp_check::{check, CheckerConfig, FaultBudget, Scenario};

fn fault_cfg(depth: usize) -> CheckerConfig {
    CheckerConfig {
        depth,
        max_timer_fires: 1,
        faults: FaultBudget {
            drops: 1,
            dups: 1,
            crashes: 1,
            checkpoints: 1,
        },
        dedup: true,
        por: true,
        max_states: 2_000_000,
        ..CheckerConfig::default()
    }
}

#[test]
fn multiring_mixed_traffic_is_violation_free_under_faults() {
    let scenario = Scenario::mixed(EngineKind::MultiRing);
    let report = check(&scenario, fault_cfg(4));
    assert!(
        report.violation.is_none(),
        "unexpected violation:\n{}",
        report.violation.unwrap()
    );
    assert!(!report.capped, "exploration hit the state cap");
    assert!(report.explored > 5_000, "explored only {}", report.explored);
    // Quiescence within four steps is not expected — terminals are
    // depth cutoffs, each drained fault-free for the validity oracle.
    assert!(report.depth_cutoffs > 0);
}

#[test]
fn wbcast_mixed_traffic_is_violation_free_under_faults() {
    let scenario = Scenario::mixed(EngineKind::Wbcast);
    let report = check(&scenario, fault_cfg(4));
    assert!(
        report.violation.is_none(),
        "unexpected violation:\n{}",
        report.violation.unwrap()
    );
    assert!(!report.capped, "exploration hit the state cap");
    assert!(report.explored > 5_000, "explored only {}", report.explored);
    assert!(report.depth_cutoffs > 0);
}

#[test]
fn batched_scenarios_are_violation_free_under_faults() {
    // The submission-edge hold, released both ways: by the size budget
    // (a second held request trips the flush inline), and — budgets
    // slack — by whichever the checker fires first, the delivery that
    // clears the submitter's backlog or the SubmitFlush timer,
    // interleaved against deliveries and faults like any other choice.
    for kind in [EngineKind::MultiRing, EngineKind::Wbcast] {
        for hold_bound in [false, true] {
            let scenario = Scenario::batched(kind, hold_bound);
            let report = check(&scenario, fault_cfg(3));
            assert!(
                report.violation.is_none(),
                "{}: unexpected violation:\n{}",
                scenario.name,
                report.violation.unwrap()
            );
            assert!(!report.capped, "{}: hit the state cap", scenario.name);
            assert!(
                report.explored > 100,
                "{}: explored only {}",
                scenario.name,
                report.explored
            );
        }
    }
}

#[test]
fn idle_stream_delivery_survives_lost_and_repeated_probes() {
    // p2's delivery of g0's value rides on a Probe to idle g1's
    // sequencer. The fault budget drops and duplicates it (and crashes
    // either end); refinement and the lasso pass must both stay clean —
    // the Δ heartbeat is the liveness argument, the probe only a
    // short-cut.
    let scenario = Scenario::idle_stream();
    let report = check(
        &scenario,
        CheckerConfig {
            liveness: true,
            ..fault_cfg(5)
        },
    );
    assert!(
        report.violation.is_none(),
        "unexpected violation:\n{}",
        report.violation.unwrap()
    );
    assert!(!report.capped, "exploration hit the state cap");
    assert!(report.explored > 1_000, "explored only {}", report.explored);
    assert!(report.quiescent > 0, "some schedule must run to completion");
}

#[test]
fn liveness_pass_is_clean_on_the_real_engines() {
    // Lasso detection must not produce false positives on the real
    // engines: every repeated progress-insensitive state the DFS sees
    // either owes nobody anything or is still being driven (some timer
    // or frame had no chance to act inside the segment).
    for build in [
        (|| Scenario::mixed(EngineKind::MultiRing)) as fn() -> Scenario,
        || Scenario::mixed(EngineKind::Wbcast),
        || Scenario::batched(EngineKind::Wbcast, true),
    ] {
        let scenario = build();
        let report = check(
            &scenario,
            CheckerConfig {
                liveness: true,
                ..fault_cfg(3)
            },
        );
        assert!(
            report.violation.is_none(),
            "{}: liveness false positive:\n{}",
            scenario.name,
            report.violation.unwrap()
        );
    }
}

#[test]
fn dedup_and_por_beat_naive_dfs() {
    for kind in [EngineKind::MultiRing, EngineKind::Wbcast] {
        let scenario = Scenario::mixed(kind);
        let reduced = check(&scenario, fault_cfg(3));
        let naive = check(
            &scenario,
            CheckerConfig {
                dedup: false,
                por: false,
                ..fault_cfg(3)
            },
        );
        assert!(reduced.violation.is_none() && naive.violation.is_none());
        assert!(!naive.capped, "naive DFS must complete at this depth");
        assert!(
            reduced.pruned_dedup > 0 && reduced.pruned_sleep > 0,
            "{}: both pruning mechanisms should fire (dedup {}, sleep {})",
            scenario.name,
            reduced.pruned_dedup,
            reduced.pruned_sleep
        );
        let ratio = naive.explored as f64 / reduced.explored.max(1) as f64;
        assert!(
            ratio >= 2.0,
            "{}: reduction only {ratio:.1}x ({} vs {})",
            scenario.name,
            naive.explored,
            reduced.explored
        );
    }
}

#[test]
fn genuineness_holds_on_disjoint_rings() {
    // No frame referencing the g0-only value may reach p2 or p3.
    let scenario = Scenario::genuine_pairs();
    let report = check(&scenario, fault_cfg(3));
    assert!(
        report.violation.is_none(),
        "unexpected violation:\n{}",
        report.violation.unwrap()
    );
    assert!(report.explored > 100);
}

#[test]
fn genuineness_oracle_fires_on_over_tight_allowlist() {
    // Positive control: the mixed wbcast deployment legitimately sends
    // value-bearing frames to every process, so restricting the allowed
    // set to p0 alone must trip the oracle (already while applying the
    // submissions — the violation carries an empty schedule prefix).
    let mut scenario = Scenario::mixed(EngineKind::Wbcast);
    scenario.value_frame_allowed = Some(
        [multiring_paxos::types::ProcessId::new(0)]
            .into_iter()
            .collect(),
    );
    let report = check(&scenario, fault_cfg(2));
    let v = report.violation.expect("oracle must fire");
    assert_eq!(v.oracle, "genuineness", "wrong oracle: {v}");
}
