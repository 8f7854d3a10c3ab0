//! A deliberately tiny engine used to validate the checker itself.
//!
//! [`ToyEngine`] is a hub-ordered broadcast: every submission is
//! forwarded to the lowest process id (the hub), which assigns a global
//! sequence number and broadcasts the decision; receivers deliver in
//! sequence order. Correct by construction — unless built with one of
//! the sabotaged variants, each of which must be caught by a different
//! part of the checking apparatus:
//!
//! * [`ToyEngine::buggy`] — the hub *skips sending one decision to the
//!   highest process*, a silent delivery drop the **validity** oracle
//!   must catch within a small depth bound.
//! * [`ToyEngine::wedged`] — the hub orders its first value normally
//!   but silently parks every later one behind a retry timer that
//!   re-arms without ever retrying. No safety oracle can object (what
//!   is delivered is delivered correctly); only the **liveness** pass
//!   can, by finding a fair non-progress lasso.
//! * [`ToyEngine::reordering`] — the highest process stashes sequence 1
//!   and plays it *after* sequence 2, a local inversion of the global
//!   order the **refinement** oracle rejects as soon as any other
//!   process exhibits the agreed order.
//!
//! That closes the loop on the whole apparatus: if a sabotage ever goes
//! unnoticed, the oracles (not the engines) are broken.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use bytes::Bytes;
use mrp_amcast::engine::AmcastEngine;
use multiring_paxos::config::{single_ring, ClusterConfig};
use multiring_paxos::digest::Fnv1a;
use multiring_paxos::event::{Action, Event, Message, StateMachine, TimerKind};
use multiring_paxos::node::MulticastError;
use multiring_paxos::types::{
    ConsensusValue, GroupId, InstanceId, ProcessId, Time, Value, ValueId,
};

use crate::scenario::{Scenario, Submission};

/// The sequence number (1-based) whose decision the buggy hub fails to
/// send to the highest process.
pub const BUGGY_SEQ: u64 = 2;

/// Which sabotage, if any, a [`ToyEngine`] carries.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
enum ToyMode {
    /// Correct hub-ordered broadcast.
    Correct,
    /// The hub drops the [`BUGGY_SEQ`]-th decision for the highest
    /// process (validity violation).
    DropDecision,
    /// The hub parks every value after the first behind a retry timer
    /// that never retries (liveness violation).
    Wedge,
    /// The highest process delivers sequence 2 before sequence 1
    /// (refinement violation).
    Reorder,
}

/// A hub-ordered broadcast over one group; see the module docs.
#[derive(Hash, Debug)]
pub struct ToyEngine {
    me: ProcessId,
    hub: ProcessId,
    subscribers: Vec<ProcessId>,
    /// Hub only: next sequence number to assign.
    next_seq: u64,
    /// Per-submitter value counter (value ids must be unique).
    next_local: u64,
    /// Out-of-order decisions waiting for their predecessors.
    pending: BTreeMap<u64, Value>,
    /// Next sequence number to deliver.
    next_deliver: u64,
    /// Wedged hub only: values parked behind the do-nothing retry.
    parked: Vec<Value>,
    mode: ToyMode,
}

impl ToyEngine {
    /// A correct toy node for a `single_ring` configuration.
    pub fn new(me: ProcessId, config: &ClusterConfig) -> ToyEngine {
        let subscribers = config.subscribers_of(GroupId::new(0));
        let hub = *subscribers.first().expect("toy config has processes");
        ToyEngine {
            me,
            hub,
            subscribers,
            next_seq: 0,
            next_local: 0,
            pending: BTreeMap::new(),
            next_deliver: 1,
            parked: Vec::new(),
            mode: ToyMode::Correct,
        }
    }

    /// Same engine, but the hub drops the [`BUGGY_SEQ`]-th decision for
    /// the highest process.
    pub fn buggy(me: ProcessId, config: &ClusterConfig) -> ToyEngine {
        ToyEngine {
            mode: ToyMode::DropDecision,
            ..ToyEngine::new(me, config)
        }
    }

    /// Same engine, but the hub orders only its first value; later ones
    /// are parked behind a [`TimerKind::RecoveryRetry`] that re-arms
    /// itself forever without retrying anything.
    pub fn wedged(me: ProcessId, config: &ClusterConfig) -> ToyEngine {
        ToyEngine {
            mode: ToyMode::Wedge,
            ..ToyEngine::new(me, config)
        }
    }

    /// Same engine, but the highest process stashes sequence 1 and
    /// delivers it after sequence 2.
    pub fn reordering(me: ProcessId, config: &ClusterConfig) -> ToyEngine {
        ToyEngine {
            mode: ToyMode::Reorder,
            ..ToyEngine::new(me, config)
        }
    }

    fn victim(&self) -> ProcessId {
        *self.subscribers.last().expect("non-empty")
    }

    /// Hub-side: order `value` and broadcast the decision.
    fn order(&mut self, value: Value, out: &mut Vec<Action>) {
        if self.mode == ToyMode::Wedge && self.next_seq >= 1 {
            // Park the value and pretend a retry will handle it. The
            // timer is real and fires fairly; the retry never comes.
            self.parked.push(value);
            out.push(Action::SetTimer {
                after_us: 50_000,
                timer: TimerKind::RecoveryRetry,
            });
            return;
        }
        self.next_seq += 1;
        let seq = self.next_seq;
        let victim = self.victim();
        for &to in &self.subscribers {
            if self.mode == ToyMode::DropDecision && seq == BUGGY_SEQ && to == victim {
                continue;
            }
            out.push(Action::Send {
                to,
                msg: Message::Decision {
                    ring: GroupId::new(0),
                    first: InstanceId::new(seq),
                    count: 1,
                    value: Some(ConsensusValue::Values(vec![value.clone()])),
                    hops: 0,
                },
            });
        }
    }

    /// Receiver-side: buffer and release in sequence order — except the
    /// reordering victim, which holds sequence 1 back until sequence 2
    /// has arrived and then plays them inverted.
    fn on_decision(&mut self, seq: u64, value: Value, out: &mut Vec<Action>) {
        self.pending.insert(seq, value);
        if self.mode == ToyMode::Reorder && self.me == self.victim() && self.next_deliver == 1 {
            if !(self.pending.contains_key(&1) && self.pending.contains_key(&2)) {
                return;
            }
            for seq in [2, 1] {
                let value = self.pending.remove(&seq).expect("both present");
                out.push(Action::Deliver {
                    group: GroupId::new(0),
                    instance: InstanceId::new(seq),
                    value,
                });
            }
            self.next_deliver = 3;
        }
        while let Some(value) = self.pending.remove(&self.next_deliver) {
            out.push(Action::Deliver {
                group: GroupId::new(0),
                instance: InstanceId::new(self.next_deliver),
                value,
            });
            self.next_deliver += 1;
        }
    }
}

impl StateMachine for ToyEngine {
    fn on_event(&mut self, _now: Time, event: Event) -> Vec<Action> {
        let mut out = Vec::new();
        match event {
            Event::Message {
                msg: Message::Forward { values, .. },
                ..
            } if self.me == self.hub => {
                for v in values {
                    self.order(v, &mut out);
                }
            }
            Event::Message {
                msg:
                    Message::Decision {
                        first,
                        value: Some(ConsensusValue::Values(values)),
                        ..
                    },
                ..
            } => {
                for (i, v) in values.into_iter().enumerate() {
                    self.on_decision(first.value() + i as u64, v, &mut out);
                }
            }
            Event::Timer(TimerKind::RecoveryRetry) if self.mode == ToyMode::Wedge => {
                // The wedge: the "retry" re-arms itself and does
                // nothing else, a fair timer that never makes progress.
                out.push(Action::SetTimer {
                    after_us: 50_000,
                    timer: TimerKind::RecoveryRetry,
                });
            }
            _ => {}
        }
        out
    }

    fn process_id(&self) -> ProcessId {
        self.me
    }
}

impl AmcastEngine for ToyEngine {
    fn multicast_batch(
        &mut self,
        _now: Time,
        groups: &[GroupId],
        payloads: Vec<Bytes>,
    ) -> Result<(Vec<ValueId>, Vec<Action>), MulticastError> {
        if groups.is_empty() {
            return Err(MulticastError::NoDestination);
        }
        let mut ids = Vec::new();
        let mut out = Vec::new();
        for payload in payloads {
            self.next_local += 1;
            let id = ValueId::new(self.me, self.next_local);
            ids.push(id);
            let value = Value::new(id, groups[0], payload);
            if self.me == self.hub {
                self.order(value, &mut out);
            } else {
                out.push(Action::Send {
                    to: self.hub,
                    msg: Message::Forward {
                        ring: GroupId::new(0),
                        values: vec![value],
                        hops: 0,
                    },
                });
            }
        }
        Ok((ids, out))
    }

    fn engine_name(&self) -> &'static str {
        "toy"
    }

    fn state_digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        self.hash(&mut h);
        h.finish()
    }
}

/// A three-node toy scenario with `count` submissions spread across the
/// processes; `buggy` selects the delivery-dropping hub.
pub fn toy_scenario(count: u64, buggy: bool) -> Scenario {
    let config = single_ring(3, multiring_paxos::config::RingTuning::default());
    let submissions = (0..count)
        .map(|i| Submission {
            at: ProcessId::new((i % 3) as u32),
            groups: vec![GroupId::new(0)],
            payload: Bytes::from(format!("toy-{i}").into_bytes()),
            via_request: false,
        })
        .collect();
    let factory_config = config.clone();
    Scenario {
        name: if buggy {
            "toy-buggy".into()
        } else {
            "toy".into()
        },
        factory: Box::new(move |p, _log| {
            if buggy {
                Box::new(ToyEngine::buggy(p, &factory_config))
            } else {
                Box::new(ToyEngine::new(p, &factory_config))
            }
        }),
        config,
        submissions,
        value_frame_allowed: None,
        seed: Vec::new(),
    }
}

/// Two submissions from the non-hub processes so neither engine-level
/// sabotage needs the hub to submit: the sabotaged behavior is purely
/// in how frames are handled.
fn toy_sabotage_scenario(
    name: &str,
    build: impl Fn(ProcessId, &ClusterConfig) -> ToyEngine + 'static,
) -> Scenario {
    let config = single_ring(3, multiring_paxos::config::RingTuning::default());
    let submissions = (0..2u64)
        .map(|i| Submission {
            at: ProcessId::new((i + 1) as u32),
            groups: vec![GroupId::new(0)],
            payload: Bytes::from(format!("{name}-{i}").into_bytes()),
            via_request: false,
        })
        .collect();
    let factory_config = config.clone();
    Scenario {
        name: name.into(),
        factory: Box::new(move |p, _log| Box::new(build(p, &factory_config))),
        config,
        submissions,
        value_frame_allowed: None,
        seed: Vec::new(),
    }
}

/// The wedging hub under two submissions: the first delivers, the
/// second parks forever behind the do-nothing retry. Only the liveness
/// pass (`CheckerConfig::liveness`) can catch it.
pub fn toy_wedge_scenario() -> Scenario {
    toy_sabotage_scenario("toy-wedge", ToyEngine::wedged)
}

/// The reordering victim under two submissions: the highest process
/// plays sequence 2 before sequence 1, which the refinement oracle
/// rejects against the abstract spec's global partial order.
pub fn toy_reorder_scenario() -> Scenario {
    toy_sabotage_scenario("toy-reorder", ToyEngine::reordering)
}
