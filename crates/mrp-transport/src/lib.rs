//! Real transports for Multi-Ring Paxos.
//!
//! The paper's implementation is a multi-threaded Java code base whose
//! threads communicate through queues, with all inter-process traffic on
//! TCP. This crate reproduces that runtime shape in Rust:
//!
//! * [`framing`] — length-prefixed frames carrying
//!   [`Message`](multiring_paxos::event::Message)s encoded with the
//!   shared binary codec;
//! * [`tcp`] — a thread-per-peer TCP runtime hosting any sans-io
//!   [`StateMachine`](multiring_paxos::event::StateMachine): reader
//!   threads decode each `read`'s frames into a crossbeam channel, a
//!   main loop drives the state machine (blocking until the next input
//!   or timer deadline), writer threads send what their per-peer queue
//!   holds as one `write`, and stable storage goes through
//!   [`mrp_storage::DirStorage`] with real `fsync` on synchronous
//!   writes.
//!
//! The deterministic simulator (`mrp-sim`) is the preferred harness for
//! tests and benchmarks; this runtime is what a downstream deployment
//! uses, and the integration tests exercise it over loopback TCP.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod framing;
pub mod tcp;

pub use tcp::{RuntimeConfig, RuntimeEvent, RuntimeHandle, StatusProbe, TcpRuntime};
