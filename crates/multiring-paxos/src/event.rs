//! The sans-io vocabulary: [`Message`]s exchanged between processes,
//! [`Event`]s fed *into* a state machine and [`Action`]s emitted *out* of
//! it.
//!
//! A runtime (the `mrp-sim` simulator or the `mrp-transport` TCP runtime)
//! owns the sockets, clocks and disks. It hosts a
//! [`Node`](crate::node::Node) (or a replica wrapping an engine) through
//! a [`Host`](crate::host::Host), which keeps the timers and feeds each
//! persist's completion back once the record is durable; the runtime
//! translates I/O into events and executes the sends, trims, deliveries
//! and replies that come out. The TCP runtime's writes are durable on
//! return; the simulator's complete later, on its disk model, through
//! [`Host::complete`](crate::host::Host::complete).

use crate::recovery::CheckpointId;
use crate::types::{Ballot, ClientId, ConsensusValue, GroupId, InstanceId, ProcessId, Time, Value};
use bytes::Bytes;

/// A protocol message exchanged between processes.
///
/// The first block is the Ring Paxos data path (Section 4 and Figure 2 of
/// the paper); the second block is learner catch-up; the third is the
/// coordinated trim protocol and replica recovery (Section 5); the last is
/// the client request path used by services.
#[derive(Clone, PartialEq, Hash, Debug)]
pub enum Message {
    /// A proposer's values circulating along the ring toward the
    /// coordinator.
    Forward {
        /// Destination ring.
        ring: GroupId,
        /// Values to order (each one a client multicast).
        values: Vec<Value>,
        /// Ring hops traversed so far; dropped after a full loop so
        /// proposals cannot circulate forever during coordinator changes.
        hops: u32,
    },
    /// Phase 1A: the coordinator asks acceptors to promise ballot `ballot`
    /// for every instance at or after `from` (Phase 1 is pre-executed for
    /// open-ended instance ranges).
    Phase1A {
        /// Ring.
        ring: GroupId,
        /// Ballot to promise.
        ballot: Ballot,
        /// First instance covered by the promise.
        from: InstanceId,
    },
    /// Phase 1B: an acceptor's promise, carrying every value it has
    /// accepted at or after `from` so the coordinator can re-propose them.
    Phase1B {
        /// Ring.
        ring: GroupId,
        /// The promised ballot (echo of the Phase 1A ballot).
        ballot: Ballot,
        /// First instance covered.
        from: InstanceId,
        /// Accepted values at or after `from`: `(instance, ballot,
        /// value)` triples.
        accepted: Vec<(InstanceId, Ballot, ConsensusValue)>,
        /// The acceptor's trim watermark: instances at or below it were
        /// deleted, so the new coordinator must allocate instances above
        /// it.
        trimmed: InstanceId,
    },
    /// Combined Phase 2A/2B message circulating from the coordinator to
    /// the last acceptor, accumulating votes.
    Phase2 {
        /// Ring.
        ring: GroupId,
        /// Ballot the value is proposed at.
        ballot: Ballot,
        /// First instance of the proposed range.
        first: InstanceId,
        /// Number of consecutive instances the value covers (always 1 for
        /// client values; skip ranges may cover many).
        count: u32,
        /// The proposed value.
        value: ConsensusValue,
        /// Number of acceptor votes accumulated so far (the coordinator's
        /// own vote included).
        votes: u32,
    },
    /// A decision circulating around the ring from the last acceptor.
    ///
    /// `value` is `Some` while the decision travels the arc whose members
    /// have not seen the Phase 2 message, and is stripped to `None` on the
    /// arc that already has the value (Section 4: each link carries a
    /// value exactly once).
    Decision {
        /// Ring.
        ring: GroupId,
        /// First instance of the decided range.
        first: InstanceId,
        /// Number of consecutive instances decided.
        count: u32,
        /// The decided value, if the next hop has not seen it yet.
        value: Option<ConsensusValue>,
        /// Links traversed so far; forwarding stops after `n - 1` hops.
        hops: u32,
    },
    /// A learner asks an acceptor to retransmit decided instances in
    /// `[from, to]` (gap repair and replica recovery).
    Retransmit {
        /// Ring.
        ring: GroupId,
        /// First missing instance.
        from: InstanceId,
        /// Last missing instance (inclusive).
        to: InstanceId,
    },
    /// An acceptor's answer to [`Message::Retransmit`].
    RetransmitReply {
        /// Ring.
        ring: GroupId,
        /// Decided ranges: `(first, count, value)`.
        decided: Vec<(InstanceId, u32, ConsensusValue)>,
        /// Instances up to and including this one have been trimmed and
        /// can only be obtained via a checkpoint.
        trimmed: InstanceId,
    },
    /// Trim protocol: the group coordinator asks a subscribed replica for
    /// the highest instance its durable checkpoint covers.
    TrimQuery {
        /// Group being trimmed.
        group: GroupId,
        /// Correlates replies with queries.
        seq: u64,
    },
    /// A replica's reply: instances of `group` up to `safe` are reflected
    /// in a durable checkpoint (`k[x]_p` in the paper).
    TrimReply {
        /// Group.
        group: GroupId,
        /// Echo of the query sequence number.
        seq: u64,
        /// Highest checkpoint-covered instance.
        safe: InstanceId,
    },
    /// The coordinator authorizes acceptors to delete log entries up to
    /// `upto` (`K[x]_T` in the paper, Predicate 2).
    TrimCommand {
        /// Ring.
        ring: GroupId,
        /// Highest instance to delete (inclusive).
        upto: InstanceId,
    },
    /// A recovering replica asks a partition peer which checkpoint it
    /// holds.
    CheckpointQuery {
        /// Correlates replies.
        seq: u64,
    },
    /// A peer's answer: the id of its most recent durable checkpoint, or
    /// `None` if it has never checkpointed.
    CheckpointInfo {
        /// Echo of the query sequence number.
        seq: u64,
        /// Most recent durable checkpoint id.
        checkpoint: Option<CheckpointId>,
    },
    /// The recovering replica fetches the snapshot of checkpoint `id`.
    CheckpointFetch {
        /// Correlates replies.
        seq: u64,
        /// The checkpoint to transfer.
        id: CheckpointId,
    },
    /// Checkpoint state transfer; `snapshot` is `None` if the peer no
    /// longer holds the requested checkpoint.
    CheckpointData {
        /// Echo of the fetch sequence number.
        seq: u64,
        /// The checkpoint id.
        id: CheckpointId,
        /// Serialized application state.
        snapshot: Option<Bytes>,
    },
    /// A client submits a command to a proposer, addressed to a *set*
    /// of groups (the paper's `multicast(γ, m)`; a single-element set is
    /// the common single-group case). The proposer hands the set to its
    /// ordering engine, which either orders the message genuinely among
    /// the addressed groups (wbcast) or routes it through a group whose
    /// subscribers cover them all (Multi-Ring Paxos).
    Request {
        /// Requesting client session.
        client: ClientId,
        /// Client-local request number.
        request: u64,
        /// Destination group set γ (non-empty).
        groups: Vec<GroupId>,
        /// Service command payload.
        payload: Bytes,
    },
    /// A replica's reply to a client (the paper sends these over UDP,
    /// directly from replica to client).
    Response {
        /// The client session addressed.
        client: ClientId,
        /// Echo of the request number.
        request: u64,
        /// Service reply payload.
        payload: Bytes,
    },
    /// Several messages for the same destination packed into one frame:
    /// the engine wrapper's outgoing-frame coalescing (`mrp-amcast`'s
    /// `AnyEngine`) merges the engine frames one activation sends to a
    /// peer; receivers unpack it and handle each message in order. A
    /// batch never holds a batch: nothing builds one and the codec
    /// refuses to decode one.
    Batch(Vec<Message>),
    /// An opaque message belonging to an alternative atomic-multicast
    /// engine (see the `mrp-amcast` crate). `engine` namespaces the
    /// wire format; `payload` is encoded by that engine's own codec.
    /// Ring-Paxos nodes ignore these frames.
    Engine {
        /// Engine wire id (e.g. `mrp_amcast::wbcast::WBCAST_WIRE_ID`).
        engine: u8,
        /// Engine-encoded payload.
        payload: Bytes,
    },
}

impl Message {
    /// The ring this message belongs to, if it is ring traffic.
    pub fn ring(&self) -> Option<GroupId> {
        match self {
            Message::Forward { ring, .. }
            | Message::Phase1A { ring, .. }
            | Message::Phase1B { ring, .. }
            | Message::Phase2 { ring, .. }
            | Message::Decision { ring, .. }
            | Message::Retransmit { ring, .. }
            | Message::RetransmitReply { ring, .. }
            | Message::TrimCommand { ring, .. } => Some(*ring),
            _ => None,
        }
    }
}

/// Timers a state machine may request; the runtime fires them back as
/// [`Event::Timer`]. A process has at most one deadline per kind:
/// re-arming a pending kind replaces its deadline
/// ([`Timers`](crate::host::Timers)), and timers due at the same
/// instant fire in declaration order.
///
/// Every terminal handler names every variant, with no wildcard:
/// `Node::on_timer`, `RingState::on_timer` and the white-box engine's
/// `WbcastNode::on_event`, so a new variant does not compile until each
/// engine decides what to do with it. The wrappers that own a timer
/// (`AnyEngine`: `SubmitFlush`; `EngineReplica`: `CheckpointTick`,
/// `RecoveryRetry`) forward the others. The root test
/// `tests/timer_coverage.rs` runs both engines on the simulator and
/// fails unless every variant is armed.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum TimerKind {
    /// Rate-leveling interval Δ elapsed for a ring (coordinator only).
    Delta(GroupId),
    /// Check for instance gaps at a learner and request retransmission.
    GapCheck(GroupId),
    /// Run the coordinated trim protocol for a ring (coordinator only).
    TrimTick(GroupId),
    /// Resend unacknowledged proposals: the ring engine's proposer
    /// retransmissions, and the wbcast engine's initiator-side retries
    /// of unconfirmed `Submit`/`Final` rounds toward the ring's current
    /// sequencer.
    ProposalResend(GroupId),
    /// Take a periodic application checkpoint (replica only).
    CheckpointTick,
    /// Retry a stalled recovery step (replica only).
    RecoveryRetry,
    /// The hold bound of the submission edge: submit whatever
    /// multi-group requests are still queued (engine wrapper only; see
    /// `mrp_amcast::batcher`).
    SubmitFlush,
}

/// Token correlating a [`Action::Persist`] request with its
/// [`Event::PersistDone`] completion.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PersistToken(pub u64);

/// What a state machine asks the runtime to persist.
#[derive(Clone, PartialEq, Hash, Debug)]
pub enum PersistRecord {
    /// An acceptor's promise (must be durable before the Phase 1B reply
    /// in sync mode).
    Promise {
        /// Ring.
        ring: GroupId,
        /// Promised ballot.
        ballot: Ballot,
        /// First instance covered.
        from: InstanceId,
    },
    /// An acceptor's vote (must be durable before the Phase 2B vote is
    /// forwarded in sync mode).
    Vote {
        /// Ring.
        ring: GroupId,
        /// Ballot voted at.
        ballot: Ballot,
        /// First instance of the voted range.
        first: InstanceId,
        /// Number of instances covered.
        count: u32,
        /// The accepted value.
        value: ConsensusValue,
    },
    /// A replica's application checkpoint.
    Checkpoint {
        /// Checkpoint id (per-group instance watermarks).
        id: CheckpointId,
        /// Serialized application state.
        snapshot: Bytes,
    },
    /// A decision marker written asynchronously by acceptors. The value
    /// is not repeated — at recovery it is resolved from the vote logged
    /// for the same instance — so the record stays tiny.
    Decision {
        /// Ring.
        ring: GroupId,
        /// First instance of the decided range.
        first: InstanceId,
        /// Number of instances covered.
        count: u32,
    },
}

/// An input to a protocol state machine.
#[derive(Clone, PartialEq, Debug)]
pub enum Event {
    /// The process (re)starts; schedule initial timers.
    Start,
    /// A message arrived from `from`.
    Message {
        /// Sending process.
        from: ProcessId,
        /// The message.
        msg: Message,
    },
    /// A requested timer fired.
    Timer(TimerKind),
    /// A requested persist completed durably.
    PersistDone(PersistToken),
    /// The runtime (via the coordination service) designates a new
    /// coordinator for a ring. The named process starts Phase 1 with a
    /// ballot greater than `supersedes`; engines that derive other
    /// roles from the coordinator react too (the wbcast engine treats
    /// this as sequencer handover for the ring's group and re-routes
    /// its in-flight submissions).
    CoordinatorChange {
        /// Ring affected.
        ring: GroupId,
        /// New coordinator.
        coordinator: ProcessId,
        /// The highest ballot known to be in use.
        supersedes: Ballot,
    },
    /// The runtime (via the coordination service) reports which ring
    /// members are currently unreachable; the overlay routes around
    /// them. Ring positions and quorum sizes are unaffected (majorities
    /// stay over the full acceptor set).
    MembershipChange {
        /// Ring affected.
        ring: GroupId,
        /// Members currently considered down.
        down: Vec<ProcessId>,
    },
}

/// An effect requested by a protocol state machine.
#[derive(Clone, PartialEq, Hash, Debug)]
pub enum Action {
    /// Send `msg` to `to` (reliable FIFO channel, e.g. TCP).
    Send {
        /// Destination process.
        to: ProcessId,
        /// The message.
        msg: Message,
    },
    /// Fire [`Event::Timer`] with `timer` after `after_us` microseconds;
    /// re-arming a pending kind replaces its deadline.
    SetTimer {
        /// Delay in microseconds.
        after_us: u64,
        /// Timer identity.
        timer: TimerKind,
    },
    /// Durably store `record`; fire [`Event::PersistDone`] with `token`
    /// when complete. `sync` requests an immediate flush (no
    /// write-behind).
    Persist {
        /// What to store.
        record: PersistRecord,
        /// Whether the write must be flushed before completion.
        sync: bool,
        /// Completion token.
        token: PersistToken,
    },
    /// Delete acceptor log records of `ring` up to `upto` (inclusive).
    TrimStorage {
        /// Ring whose log to trim.
        ring: GroupId,
        /// Highest instance to delete.
        upto: InstanceId,
    },
    /// Atomic multicast delivery: the deterministic merge released
    /// `value`, decided at `instance` of the ring serving `group`.
    Deliver {
        /// Group the value was multicast to.
        group: GroupId,
        /// Consensus instance that decided it.
        instance: InstanceId,
        /// The value.
        value: Value,
    },
    /// A service reply produced by the application, to be routed to the
    /// client session (UDP in the paper).
    Respond {
        /// Client session.
        client: ClientId,
        /// Request number echoed.
        request: u64,
        /// Reply payload.
        payload: Bytes,
    },
}

impl Action {
    /// Convenience accessor: the destination of a `Send` action.
    pub fn send_to(&self) -> Option<ProcessId> {
        match self {
            Action::Send { to, .. } => Some(*to),
            _ => None,
        }
    }
}

/// The interface every hostable protocol state machine implements;
/// runtimes are generic over it ([`Node`](crate::node::Node), the other
/// engines and the replica that wraps them all implement it).
pub trait StateMachine {
    /// Feeds one event; returns the actions it provoked.
    fn on_event(&mut self, now: Time, event: Event) -> Vec<Action>;

    /// The process this state machine embodies.
    fn process_id(&self) -> ProcessId;
}

impl<S: StateMachine + ?Sized> StateMachine for Box<S> {
    fn on_event(&mut self, now: Time, event: Event) -> Vec<Action> {
        (**self).on_event(now, event)
    }

    fn process_id(&self) -> ProcessId {
        (**self).process_id()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_ring_accessor() {
        let m = Message::TrimCommand {
            ring: GroupId::new(3),
            upto: InstanceId::new(9),
        };
        assert_eq!(m.ring(), Some(GroupId::new(3)));
        let q = Message::CheckpointQuery { seq: 1 };
        assert_eq!(q.ring(), None);
    }

    #[test]
    fn send_to_accessor() {
        let a = Action::Send {
            to: ProcessId::new(4),
            msg: Message::Batch(vec![]),
        };
        assert_eq!(a.send_to(), Some(ProcessId::new(4)));
        let t = Action::SetTimer {
            after_us: 1,
            timer: TimerKind::CheckpointTick,
        };
        assert_eq!(t.send_to(), None);
    }
}
