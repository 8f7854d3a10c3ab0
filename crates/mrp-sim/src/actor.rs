//! The actor interface the simulator hosts. A sans-io protocol
//! [`StateMachine`] — an engine or a replica — is an actor as it is: it
//! receives [`ActorEvent::Protocol`] and its actions come back as
//! [`Op::Protocol`]. Only what the protocol has no word for is declared
//! here: custom wakeups, service CPU time and raw disk writes.

use crate::metrics::Metrics;
use crate::rng::Rng;
use mrp_amcast::{AmcastEngine, AnyEngine, EngineReplica, HealthReport, TelemetrySnapshot};
use multiring_paxos::app::Application;
use multiring_paxos::event::{Action, Event, Message, StateMachine};
use multiring_paxos::node::Node;
use multiring_paxos::types::{ProcessId, Time};
use std::any::Any;

/// Inputs delivered to an actor by the simulator.
#[derive(Clone, PartialEq, Debug)]
pub enum ActorEvent {
    /// A protocol input: the start, a message, a timer, a persist
    /// completion, a coordination-service announcement.
    Protocol(Event),
    /// A custom wakeup requested via [`Outbox::wakeup`].
    Wakeup(u64),
    /// A raw disk write requested via [`Op::DiskWrite`] completed.
    DiskDone(u64),
}

/// Effects an actor requests from the simulator.
#[derive(Clone, PartialEq, Debug)]
pub enum Op {
    /// A protocol effect. Sends are charged for latency and bandwidth,
    /// persists go through the process's disk model, a delivery is
    /// counted as the "dummy service" of Section 8.3.1, and a reply is
    /// routed to its client session's home.
    Protocol(Action),
    /// Fire [`ActorEvent::Wakeup`] later.
    Wakeup {
        /// Delay.
        after_us: u64,
        /// Token echoed back.
        token: u64,
    },
    /// Charges extra CPU time to this process (models service work the
    /// per-message cost cannot capture, e.g. LSM merges during scans).
    Busy {
        /// Microseconds of CPU time.
        us: u64,
    },
    /// A raw, service-level disk write (e.g. a baseline system's log
    /// flush) charged to one of the process's disks; completes with
    /// [`ActorEvent::DiskDone`].
    DiskWrite {
        /// Disk index.
        disk: usize,
        /// Bytes written.
        bytes: usize,
        /// Synchronous flush?
        sync: bool,
        /// Completion token.
        token: u64,
    },
}

/// Ordered buffer of requested effects.
#[derive(Default, Debug)]
pub struct Outbox {
    ops: Vec<Op>,
}

impl Outbox {
    /// An empty outbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues an op.
    pub fn push(&mut self, op: Op) {
        self.ops.push(op);
    }

    /// Queues a message send.
    pub fn send(&mut self, to: ProcessId, msg: Message) {
        self.push(Op::Protocol(Action::Send { to, msg }));
    }

    /// Queues a wakeup.
    pub fn wakeup(&mut self, after_us: u64, token: u64) {
        self.push(Op::Wakeup { after_us, token });
    }

    /// Drains the ops.
    pub fn take(&mut self) -> Vec<Op> {
        std::mem::take(&mut self.ops)
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Context handed to actors on every event.
#[derive(Debug)]
pub struct ActorCtx<'a> {
    /// This actor's process id.
    pub me: ProcessId,
    /// Deterministic randomness (per-process stream).
    pub rng: &'a mut Rng,
    /// Shared metrics registry.
    pub metrics: &'a mut Metrics,
}

/// Anything the simulator can host.
pub trait Actor: 'static {
    /// Handles one event, pushing effects into `out`.
    fn on_event(&mut self, now: Time, event: ActorEvent, out: &mut Outbox, ctx: &mut ActorCtx<'_>);

    /// The engine telemetry snapshot and health report of an actor that
    /// hosts an engine; `None` for everything else.
    fn telemetry(&mut self, _now: Time) -> Option<(TelemetrySnapshot, HealthReport)> {
        None
    }

    /// Downcast support for test inspection.
    fn as_any(&mut self) -> &mut dyn Any;
}

/// The protocol state machines the simulator hosts, all through one
/// body: a protocol input goes in as it came, every action comes out as
/// [`Op::Protocol`], and the simulator-only inputs are not theirs.
/// `telemetry` names the snapshot function of the type.
macro_rules! state_machine_actors {
    ($(impl$([$($generics:tt)*])? for $ty:ty { telemetry: $telemetry:path })*) => {$(
        impl$(<$($generics)*>)? Actor for $ty {
            fn on_event(
                &mut self,
                now: Time,
                event: ActorEvent,
                out: &mut Outbox,
                _ctx: &mut ActorCtx<'_>,
            ) {
                if let ActorEvent::Protocol(event) = event {
                    let actions = StateMachine::on_event(self, now, event);
                    out.ops.extend(actions.into_iter().map(Op::Protocol));
                }
            }

            fn telemetry(&mut self, now: Time) -> Option<(TelemetrySnapshot, HealthReport)> {
                Some(($telemetry(self), self.health(now)))
            }

            fn as_any(&mut self) -> &mut dyn Any {
                self
            }
        }
    )*};
}

state_machine_actors! {
    impl for Node { telemetry: AmcastEngine::telemetry }
    impl for AnyEngine { telemetry: AmcastEngine::telemetry }
    impl[A: Application + 'static] for EngineReplica<A> { telemetry: EngineReplica::telemetry }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Probe {
        events: Vec<ActorEvent>,
    }

    impl Actor for Probe {
        fn on_event(
            &mut self,
            _now: Time,
            event: ActorEvent,
            out: &mut Outbox,
            _ctx: &mut ActorCtx<'_>,
        ) {
            self.events.push(event);
            out.wakeup(10, 1);
        }

        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn outbox_collects_and_drains() {
        let mut out = Outbox::new();
        assert!(out.is_empty());
        out.send(ProcessId::new(1), Message::CheckpointQuery { seq: 1 });
        out.wakeup(5, 9);
        let ops = out.take();
        assert_eq!(ops.len(), 2);
        assert!(out.is_empty());
    }

    #[test]
    fn probe_downcast_via_any() {
        let mut probe: Box<dyn Actor> = Box::new(Probe { events: vec![] });
        let mut rng = Rng::new(0);
        let mut metrics = Metrics::default();
        let mut ctx = ActorCtx {
            me: ProcessId::new(0),
            rng: &mut rng,
            metrics: &mut metrics,
        };
        let mut out = Outbox::new();
        let start = ActorEvent::Protocol(Event::Start);
        probe.on_event(Time::ZERO, start, &mut out, &mut ctx);
        assert!(probe.telemetry(Time::ZERO).is_none(), "not an engine");
        let p = probe.as_any().downcast_mut::<Probe>().unwrap();
        assert_eq!(p.events.len(), 1);
    }
}
