//! The actor interface the simulator hosts. A sans-io protocol
//! [`StateMachine`](multiring_paxos::event::StateMachine) — an engine,
//! a replica or a bare ring node — is an actor inside a [`Host`], as
//! under every other driver: it receives [`ActorEvent::Protocol`], its
//! sends, trims, deliveries and replies come back as [`Op::Protocol`],
//! and the [`Outbox`] is its host's [`Io`]: each arm is reported as
//! [`Op::Armed`], and each record is an [`Op::Record`] that completes
//! later, on the disk model, through [`Host::complete`]. The rest is
//! what the protocol has no word for: custom wakeups, service CPU time
//! and raw disk writes.

use crate::metrics::Metrics;
use crate::rng::Rng;
use mrp_amcast::{AmcastEngine, AnyEngine, EngineReplica, HealthReport, TelemetrySnapshot};
use multiring_paxos::app::Application;
use multiring_paxos::event::{Action, Event, Message, PersistRecord, PersistToken, TimerKind};
use multiring_paxos::host::{Host, Io, Timers};
use multiring_paxos::node::Node;
use multiring_paxos::types::{ProcessId, Time};
use std::any::Any;

/// Inputs delivered to an actor by the simulator.
#[derive(Clone, PartialEq, Debug)]
pub enum ActorEvent {
    /// A protocol input: the start, a message, a timer, a
    /// coordination-service announcement.
    Protocol(Event),
    /// A custom wakeup requested via [`Outbox::wakeup`].
    Wakeup(u64),
    /// An [`Op::DiskWrite`] or [`Op::Record`] with this token completed.
    DiskDone(u64),
}

/// Effects an actor requests from the simulator.
#[derive(Clone, PartialEq, Debug)]
pub enum Op {
    /// A protocol effect. Sends are charged for latency and bandwidth,
    /// a delivery is counted as the "dummy service" of Section 8.3.1,
    /// and a reply is routed to its client session's home. Never a
    /// timer or a persist: a [`Host`] keeps those.
    Protocol(Action),
    /// A hosted machine armed a timer to fire at a deadline. The host
    /// keeps the deadline ([`Actor::timers`]); the simulator schedules
    /// the firing.
    Armed(TimerKind, Time),
    /// A hosted machine's record, whether to flush it, and its token:
    /// written to its ring's disk
    /// ([`Cluster::map_ring_to_disk`](crate::cluster::Cluster::map_ring_to_disk))
    /// and stable once that write completes; completes with
    /// [`ActorEvent::DiskDone`].
    Record(PersistRecord, bool, PersistToken),
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

/// A hosted machine's driver: each write completes later, on the disk
/// model, and each arm is scheduled.
impl Io for Outbox {
    fn write(&mut self, record: PersistRecord, sync: bool, token: PersistToken) -> bool {
        self.push(Op::Record(record, sync, token));
        false
    }

    fn emit(&mut self, action: Action) {
        self.push(Op::Protocol(action));
    }

    fn armed(&mut self, timer: TimerKind, due: Time) {
        self.push(Op::Armed(timer, due));
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

    /// The armed timers of an actor that hosts a machine: a firing
    /// reaches it only while its deadline is still the kind's current
    /// one. A wrapper actor forwards its inner actor's.
    fn timers(&self) -> Option<&Timers> {
        None
    }

    /// The engine telemetry snapshot and health report of an actor that
    /// hosts an engine; `None` for everything else.
    fn telemetry(&mut self, _now: Time) -> Option<(TelemetrySnapshot, HealthReport)> {
        None
    }

    /// Downcast support for test inspection.
    fn as_any(&mut self) -> &mut dyn Any;
}

/// The protocol state machines the simulator hosts, all through one
/// body: a timer fires through the host (the cluster checked its
/// deadline), a disk completion completes the record written with its
/// token, wakeups are not a machine's, and the machine is what
/// [`Actor::as_any`] shows. `telemetry` names the snapshot function of
/// the type.
macro_rules! hosted_actors {
    ($(impl$([$($generics:tt)*])? for $ty:ty { telemetry: $telemetry:path })*) => {$(
        impl$(<$($generics)*>)? Actor for Host<$ty> {
            fn on_event(
                &mut self,
                now: Time,
                event: ActorEvent,
                out: &mut Outbox,
                _ctx: &mut ActorCtx<'_>,
            ) {
                match event {
                    ActorEvent::Protocol(Event::Timer(kind)) => {
                        self.fire(now, kind, out);
                    }
                    ActorEvent::Protocol(event) => Host::on_event(self, now, event, out),
                    ActorEvent::DiskDone(token) => self.complete(now, PersistToken(token), out),
                    ActorEvent::Wakeup(_) => {}
                }
            }

            fn timers(&self) -> Option<&Timers> {
                Some(Host::timers(self))
            }

            fn telemetry(&mut self, now: Time) -> Option<(TelemetrySnapshot, HealthReport)> {
                let machine = self.machine();
                Some(($telemetry(machine), machine.health(now)))
            }

            fn as_any(&mut self) -> &mut dyn Any {
                self.machine_mut()
            }
        }
    )*};
}

hosted_actors! {
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
