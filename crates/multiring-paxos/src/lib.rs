//! # Multi-Ring Paxos: atomic multicast for global and scalable systems
//!
//! This crate implements the **Multi-Ring Paxos** atomic multicast protocol
//! described in *"Building global and scalable systems with atomic
//! multicast"* (Benz, Jalili Marandi, Pedone, Garbinato — Middleware 2014).
//!
//! Atomic multicast is a communication abstraction defined by two
//! primitives, `multicast(group, message)` and `deliver(message)`, that
//! guarantees *agreement* (all correct subscribers of a group deliver the
//! same messages), *validity* (messages from correct processes are
//! delivered) and *acyclic order* (the global delivery relation has no
//! cycles, so any two processes deliver common messages in the same order).
//! Unlike atomic **broadcast**, a message is only handled by the ring of
//! its group, which is what makes the primitive scale with partitioned
//! state.
//!
//! Multi-Ring Paxos composes one [Ring Paxos](crate::ring) instance per
//! multicast group and coordinates them at the learners with a
//! [deterministic merge](crate::multiring) strategy (round-robin over
//! subscribed rings, one consensus instance at a time), complemented by
//! *rate leveling*: coordinators of slow rings periodically propose `skip`
//! (null) instances so that merge never stalls on an idle ring.
//!
//! ## Sans-io design
//!
//! Every protocol participant is a pure state machine: it consumes
//! [`Event`]s (message received, timer fired, disk write completed) and
//! emits [`Action`]s (send a message, set a timer, persist a record,
//! deliver a value). No sockets, threads or clocks appear in protocol
//! code. The same state machines therefore run unchanged under
//!
//! * `mrp-sim` — a deterministic discrete-event simulator used by the test
//!   suite and by the benchmark harness that regenerates the paper's
//!   figures, and
//! * `mrp-transport` — a real TCP runtime (thread-per-peer, crossbeam
//!   queues) for actual deployments.
//!
//! ## Quickstart
//!
//! ```
//! use multiring_paxos::config::{ClusterConfig, RingSpec, Roles};
//! use multiring_paxos::types::{GroupId, ProcessId};
//!
//! // Three processes, all of them proposer + acceptor + learner, in the
//! // ring of group 0 (a group's id also names its ring).
//! let p: Vec<ProcessId> = (0..3).map(ProcessId::new).collect();
//! let config = ClusterConfig::builder()
//!     .ring(RingSpec::new(GroupId::new(0))
//!         .member(p[0], Roles::ALL)
//!         .member(p[1], Roles::ALL)
//!         .member(p[2], Roles::ALL))
//!     .subscribe(p[0], GroupId::new(0))
//!     .subscribe(p[1], GroupId::new(0))
//!     .subscribe(p[2], GroupId::new(0))
//!     .build()?;
//! assert_eq!(config.rings().len(), 1);
//! # Ok::<(), multiring_paxos::config::ConfigError>(())
//! ```
//!
//! The crate is organized bottom-up:
//!
//! * [`types`] — identifiers, time, values, ballots.
//! * [`config`] — cluster/ring configuration and validation.
//! * [`event`] — the [`Event`]/[`Action`] vocabulary of the state machines.
//! * [`host`] — the one way to drive a state machine: its timers and
//!   the persist → `PersistDone` loop, shared by every runtime.
//! * [`paxos`] — single-ring consensus roles (coordinator, acceptor).
//! * [`ring`] — the Ring Paxos overlay: unidirectional ring routing,
//!   decisions, learner gap handling.
//! * [`multiring`] — group subscriptions, deterministic merge, rate
//!   leveling.
//! * [`recovery`] — checkpoint tuples, coordinated log trimming and
//!   replica recovery (Section 5 of the paper).
//! * [`node`] — the composite per-process state machine.
//! * [`replica`] — the replica checkpointing policy (the replica itself
//!   is engine-generic: `mrp_amcast::EngineReplica`).
//! * [`telemetry`] — the counters/histograms/trace-ring store engines
//!   record into.
//! * [`codec`] — binary wire encoding shared by transports and simulator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod app;
pub mod codec;
pub mod config;
pub mod digest;
pub mod event;
pub mod host;
pub mod multiring;
pub mod node;
pub mod paxos;
pub mod recovery;
pub mod replica;
pub mod ring;
pub mod telemetry;
pub mod types;

pub use app::Application;
pub use config::{ClusterConfig, ClusterConfigBuilder, RingSpec, Roles};
pub use event::{Action, Event};
pub use node::Node;
pub use types::{Ballot, GroupId, InstanceId, ProcessId, Time, Value};

/// Commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use crate::app::Application;
    pub use crate::config::{ClusterConfig, RingSpec, Roles};
    pub use crate::event::{Action, Event};
    pub use crate::node::Node;
    pub use crate::types::{Ballot, GroupId, InstanceId, ProcessId, Time, Value, ValueId};
}
