//! Telemetry must be an observer, not a participant: `state_digest()`
//! reflects protocol state only, or the checker's fingerprint
//! deduplication (and the replay stability of checked-in schedules)
//! degrades with every counter. Reading a snapshot cannot show that —
//! `telemetry()` and `health()` take `&self` — so each engine is fed an
//! input that changes **nothing but a counter**, and the digest must
//! not move while the counter does. Hashing the telemetry store into
//! either engine's digest makes its test here fail.

use mrp_amcast::EngineKind;
use mrp_check::{replay_schedule, Scenario, Schedule};
use multiring_paxos::event::Event;
use multiring_paxos::types::{ProcessId, Time};

const PROBE_DUPLICATED_SCHED: &str = include_str!("../schedules/pr17_probe_duplicated.sched");

/// wbcast: a duplicated `Probe` finds its promise already made and is
/// only counted (`seq.probes_redundant`). p1 after the schedule and
/// after the same schedule without the duplicate (and the delivery of
/// the copy) is in the same protocol state, one counter apart.
#[test]
fn a_redundant_probe_moves_a_counter_and_not_the_wbcast_digest() {
    let duplicated = Schedule::parse(PROBE_DUPLICATED_SCHED).expect("schedule file must parse");
    let control = PROBE_DUPLICATED_SCHED.replacen("dup 2>1\ndeliver 2>1\n", "", 1);
    assert_ne!(
        control, PROBE_DUPLICATED_SCHED,
        "the schedule changed shape"
    );
    let control = Schedule::parse(&control).expect("control schedule must parse");

    let p1 = ProcessId::new(1);
    let [with_dup, without] = [duplicated, control].map(|schedule| {
        let outcome = replay_schedule(&Scenario::idle_stream(), &schedule)
            .expect("schedule must stay applicable on HEAD");
        assert!(
            outcome.violation.is_none(),
            "{}",
            outcome.violation.unwrap()
        );
        let redundant = outcome.counters[&p1]
            .get("seq.probes_redundant")
            .copied()
            .unwrap_or(0);
        (redundant, outcome.engine_digests[&p1])
    });
    assert_eq!((with_dup.0, without.0), (1, 0), "seq.probes_redundant");
    assert_eq!(
        with_dup.1, without.1,
        "a counter-only input perturbed the wbcast digest"
    );
}

/// Ring engine: `resume()` on a node that is not behind asks the
/// acceptors for a backfill it does not need — frames out, the
/// `backfill_rounds` counter and a trace record, no state change.
#[test]
fn an_idle_backfill_moves_a_counter_and_not_the_ring_digest() {
    let scenario = Scenario::mixed(EngineKind::MultiRing);
    let now = Time::ZERO.plus(1_000);
    for p in scenario.config.processes() {
        let mut engine = (scenario.factory)(p, false);
        engine.on_event(Time::ZERO, Event::Start);
        let before = (
            engine.telemetry().counters["backfill_rounds"],
            engine.state_digest(),
        );
        let _frames = engine.resume(now);
        let after = (
            engine.telemetry().counters["backfill_rounds"],
            engine.state_digest(),
        );
        assert_eq!(after.0, before.0 + 1, "p{}: backfill_rounds", p.value());
        assert_eq!(
            after.1,
            before.1,
            "p{}: a counter-only input perturbed the ring digest",
            p.value()
        );
    }
}
