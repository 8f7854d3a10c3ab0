//! Telemetry must be an observer, not a participant: taking a
//! [`TelemetrySnapshot`](mrp_amcast::telemetry::TelemetrySnapshot) or a
//! health report mid-exploration must leave `state_digest()` unchanged
//! on both engines. The checker's
//! fingerprint deduplication (and the replay stability of checked-in
//! schedules) depends on digests reflecting protocol state only —
//! counters, histograms and trace rings are excluded by design.

use std::collections::{BTreeMap, VecDeque};

use mrp_amcast::EngineKind;
use mrp_check::Scenario;
use multiring_paxos::event::{Action, Event, Message};
use multiring_paxos::types::{ProcessId, Time};

/// Routes one activation's actions through the mini runtime: sends land
/// on FIFO channels, persists complete inline (feeding any follow-up
/// actions back through), timers and local effects are ignored.
fn apply(
    pid: ProcessId,
    actions: Vec<Action>,
    engines: &mut BTreeMap<ProcessId, Box<dyn mrp_amcast::engine::AmcastEngine>>,
    channels: &mut BTreeMap<(ProcessId, ProcessId), VecDeque<Message>>,
    now: Time,
) {
    let mut queue: VecDeque<Action> = actions.into();
    while let Some(action) = queue.pop_front() {
        match action {
            Action::Send { to, msg } => {
                channels.entry((pid, to)).or_default().push_back(msg);
            }
            Action::Persist { token, .. } => {
                let more = engines
                    .get_mut(&pid)
                    .expect("known pid")
                    .on_event(now, Event::PersistDone(token));
                queue.extend(more);
            }
            _ => {}
        }
    }
}

/// Drives the three nodes of `scenario` through their start-up exchange
/// plus every submission to quiescence — a miniature deterministic
/// runtime: FIFO channels, persists completing inline, timers ignored.
/// Returns the engines for inspection.
fn run_to_quiescence(scenario: Scenario) -> Vec<Box<dyn mrp_amcast::engine::AmcastEngine>> {
    let now = Time::ZERO;
    let pids: Vec<ProcessId> = scenario.config.processes().into_iter().collect();
    let mut engines: BTreeMap<ProcessId, Box<dyn mrp_amcast::engine::AmcastEngine>> = pids
        .iter()
        .map(|&p| (p, (scenario.factory)(p, false)))
        .collect();
    let mut channels: BTreeMap<(ProcessId, ProcessId), VecDeque<Message>> = BTreeMap::new();

    for &p in &pids {
        let actions = engines
            .get_mut(&p)
            .expect("known pid")
            .on_event(now, Event::Start);
        apply(p, actions, &mut engines, &mut channels, now);
    }
    for sub in &scenario.submissions {
        let actions = engines
            .get_mut(&sub.at)
            .expect("known pid")
            .multicast(now, &sub.groups, sub.payload.clone())
            .expect("submission accepted")
            .1;
        apply(sub.at, actions, &mut engines, &mut channels, now);
    }
    for _ in 0..100_000 {
        let Some((&(from, to), _)) = channels.iter().find(|(_, q)| !q.is_empty()) else {
            return engines.into_values().collect();
        };
        let msg = channels
            .get_mut(&(from, to))
            .and_then(VecDeque::pop_front)
            .expect("non-empty");
        let actions = engines
            .get_mut(&to)
            .expect("known pid")
            .on_event(now, Event::Message { from, msg });
        apply(to, actions, &mut engines, &mut channels, now);
    }
    panic!("exchange did not quiesce");
}

#[test]
fn telemetry_snapshots_leave_the_state_digest_unchanged() {
    for kind in [EngineKind::MultiRing, EngineKind::Wbcast] {
        for scenario in [Scenario::mixed(kind), Scenario::batched(kind, true)] {
            let name = scenario.name.clone();
            for engine in run_to_quiescence(scenario) {
                let before = engine.state_digest();
                let snapshot = engine.telemetry();
                let _ = engine.health(Time::ZERO.plus(1_000_000));
                let after = engine.state_digest();
                assert_eq!(
                    before,
                    after,
                    "{name}/{}: telemetry observation perturbed the digest",
                    engine.engine_name()
                );
                // And the telemetry itself must not be hashed: the
                // snapshot has recorded real activity, yet repeated
                // digests stay bit-identical.
                assert!(
                    !snapshot.counters.is_empty() || !snapshot.gauges.is_empty(),
                    "{name}: expected some recorded activity"
                );
                assert_eq!(engine.state_digest(), after);
            }
        }
    }
}
