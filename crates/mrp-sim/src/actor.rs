//! The actor interface the simulator hosts, and the adapter that hosts
//! any sans-io protocol [`StateMachine`] (an engine or a replica) as an
//! actor.

use crate::metrics::Metrics;
use crate::rng::Rng;
use bytes::Bytes;
use multiring_paxos::event::{
    Action, Event, Message, PersistRecord, PersistToken, StateMachine, TimerKind,
};
use multiring_paxos::types::{
    Ballot, ClientId, GroupId, InstanceId, ProcessId, RingId, Time, Value,
};
use std::any::Any;

/// Inputs delivered to an actor by the simulator.
#[derive(Clone, PartialEq, Debug)]
pub enum ActorEvent {
    /// The process starts (first boot or restart).
    Start,
    /// A message arrived.
    Message {
        /// Sender.
        from: ProcessId,
        /// The message.
        msg: Message,
    },
    /// A protocol timer fired.
    ProtoTimer(TimerKind),
    /// A custom wakeup requested via [`Outbox::wakeup`].
    Wakeup(u64),
    /// A raw disk write requested via [`Op::DiskWrite`] completed.
    DiskDone(u64),
    /// A durable write completed.
    PersistDone(PersistToken),
    /// The (simulated) coordination service designates a ring
    /// coordinator.
    CoordinatorChange {
        /// Ring affected.
        ring: RingId,
        /// New coordinator.
        coordinator: ProcessId,
        /// The highest ballot known to be in use for the ring: the
        /// service's monotonic per-ring election round. The ring engine
        /// starts Phase 1 above it; the wbcast engine derives globally
        /// unique sequencer epochs from it (two successive coordinators
        /// that never observed each other's frames would otherwise mint
        /// colliding epochs).
        supersedes: Ballot,
    },
    /// The (simulated) coordination service reports the down members of
    /// a ring.
    MembershipChange {
        /// Ring affected.
        ring: RingId,
        /// Members currently down.
        down: Vec<ProcessId>,
    },
}

/// Effects an actor requests from the simulator.
#[derive(Clone, PartialEq, Debug)]
pub enum Op {
    /// Send a message (charged for latency and bandwidth).
    Send {
        /// Destination.
        to: ProcessId,
        /// The message.
        msg: Message,
    },
    /// Re-fire a protocol timer.
    ProtoTimer {
        /// Delay.
        after_us: u64,
        /// Timer identity.
        timer: TimerKind,
    },
    /// Fire [`ActorEvent::Wakeup`] later.
    Wakeup {
        /// Delay.
        after_us: u64,
        /// Token echoed back.
        token: u64,
    },
    /// Durably persist a record through the process's disk model.
    Persist {
        /// The record.
        record: PersistRecord,
        /// Synchronous write?
        sync: bool,
        /// Completion token.
        token: PersistToken,
    },
    /// Reclaim acceptor log space.
    TrimStorage {
        /// Ring.
        ring: RingId,
        /// Trim watermark.
        upto: InstanceId,
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
    /// An atomic-multicast delivery surfaced by a bare node (the
    /// "dummy service" of Section 8.3.1). The harness records
    /// throughput/latency metrics for it.
    Delivered {
        /// Group.
        group: GroupId,
        /// Deciding instance.
        instance: InstanceId,
        /// The value.
        value: Value,
    },
    /// A service reply to route back to a client session.
    Respond {
        /// Client session.
        client: ClientId,
        /// Request echoed.
        request: u64,
        /// Payload.
        payload: Bytes,
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
        self.push(Op::Send { to, msg });
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

    /// Downcast support for test inspection.
    fn as_any(&mut self) -> &mut dyn Any;
}

/// Hosts any sans-io protocol [`StateMachine`] as a simulator actor,
/// translating between [`ActorEvent`]/[`Op`] and the protocol's
/// [`Event`]/[`Action`].
#[derive(Debug)]
pub struct Hosted<S> {
    inner: S,
}

impl<S: StateMachine + 'static> Hosted<S> {
    /// Wraps a state machine.
    pub fn new(inner: S) -> Self {
        Self { inner }
    }

    /// The wrapped state machine.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Mutable access to the wrapped state machine.
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Boxes this adapter as an [`Actor`].
    pub fn boxed(self) -> Box<dyn Actor> {
        Box::new(self)
    }

    /// Maps protocol actions into simulator ops.
    pub fn map_actions(actions: Vec<Action>, out: &mut Outbox) {
        for action in actions {
            out.push(match action {
                Action::Send { to, msg } => Op::Send { to, msg },
                Action::SetTimer { after_us, timer } => Op::ProtoTimer { after_us, timer },
                Action::Persist {
                    record,
                    sync,
                    token,
                } => Op::Persist {
                    record,
                    sync,
                    token,
                },
                Action::TrimStorage { ring, upto } => Op::TrimStorage { ring, upto },
                Action::Deliver {
                    group,
                    instance,
                    value,
                } => Op::Delivered {
                    group,
                    instance,
                    value,
                },
                Action::Respond {
                    client,
                    request,
                    payload,
                } => Op::Respond {
                    client,
                    request,
                    payload,
                },
            });
        }
    }
}

impl<S: StateMachine + 'static> Actor for Hosted<S> {
    fn on_event(
        &mut self,
        now: Time,
        event: ActorEvent,
        out: &mut Outbox,
        _ctx: &mut ActorCtx<'_>,
    ) {
        let proto_event = match event {
            ActorEvent::Start => Event::Start,
            ActorEvent::Message { from, msg } => Event::Message { from, msg },
            ActorEvent::ProtoTimer(kind) => Event::Timer(kind),
            ActorEvent::PersistDone(token) => Event::PersistDone(token),
            ActorEvent::CoordinatorChange {
                ring,
                coordinator,
                supersedes,
            } => Event::CoordinatorChange {
                ring,
                coordinator,
                supersedes,
            },
            ActorEvent::MembershipChange { ring, down } => Event::MembershipChange { ring, down },
            // Protocol nodes take no custom wakeups or raw disk ops.
            ActorEvent::Wakeup(_) | ActorEvent::DiskDone(_) => return,
        };
        let actions = self.inner.on_event(now, proto_event);
        Self::map_actions(actions, out);
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
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
        probe.on_event(Time::ZERO, ActorEvent::Start, &mut out, &mut ctx);
        let p = probe.as_any().downcast_mut::<Probe>().unwrap();
        assert_eq!(p.events.len(), 1);
    }
}
