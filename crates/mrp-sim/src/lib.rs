//! Deterministic discrete-event simulator for Multi-Ring Paxos.
//!
//! The paper's evaluation ran on a 10 GbE cluster and across four Amazon
//! EC2 regions. This crate substitutes that testbed with a discrete-event
//! simulation that runs the *same protocol state machines*
//! (`multiring-paxos` is sans-io) under controlled, reproducible
//! conditions:
//!
//! * [`actor`] — what the simulator hosts. An engine, a replica or a
//!   bare ring node is an actor inside the
//!   [`Host`](multiring_paxos::host::Host) every driver uses: it
//!   receives the protocol's own
//!   [`Event`](multiring_paxos::event::Event) as
//!   [`ActorEvent::Protocol`], its sends, deliveries and replies come
//!   back as [`Op::Protocol`], and its records complete later, on the
//!   disk model. Clients and baseline systems also get wakeups, CPU
//!   time and raw disk writes, and an actor that hosts an engine
//!   answers [`Actor::telemetry`].
//! * [`net`] — WAN/LAN topologies: per-link one-way latency, jitter and
//!   bandwidth with FIFO serialization queues; presets for the paper's
//!   local cluster and the four EC2 regions of Section 8.4.2.
//! * [`disk`] — disk service models (7200-RPM HDD, SATA SSD) with seek
//!   cost, streaming bandwidth and a FIFO queue; sync writes pay the
//!   latency before the acceptor's vote is forwarded, exactly like the
//!   paper's five storage modes.
//! * [`cpu`] — an optional per-process CPU cost model (per-message +
//!   per-byte), capturing the coordinator bottleneck visible in the
//!   paper's Figure 3.
//! * [`client`] — the closed-loop client every simple workload of the
//!   evaluation runs on (a workload is a source of operations), and the
//!   one-shot [`Burst`] tests and examples fire requests with.
//! * [`cluster`] — the event loop: hosts protocol nodes and custom
//!   actors (clients, baseline systems), injects crashes/restarts, runs
//!   coordinator re-election, collects [`metrics`], and records the
//!   run's multicast history, which
//!   [`Cluster::check_history`](cluster::Cluster::check_history) judges
//!   by the model checker's specification.
//!
//! Everything is deterministic given a seed: the event queue breaks time
//! ties by insertion order and all randomness flows from one
//! [`rng::Rng`].
//!
//! ```
//! use mrp_sim::cluster::{Cluster, SimConfig};
//! use mrp_sim::net::Topology;
//! use multiring_paxos::types::Time;
//!
//! let mut cluster = Cluster::new(SimConfig::default(), Topology::lan(4));
//! cluster.run_until(Time::from_secs(1));
//! assert_eq!(cluster.now(), Time::from_secs(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actor;
pub mod client;
pub mod cluster;
pub mod cpu;
pub mod disk;
mod history;
pub mod metrics;
pub mod net;
pub mod rng;

pub use actor::{Actor, ActorEvent, Op, Outbox};
pub use client::{Burst, ClosedLoopClient, Operation};
pub use cluster::{Cluster, SimConfig};
pub use disk::DiskModel;
pub use metrics::{Histogram, Metrics, TimeSeries};
pub use net::Topology;
pub use rng::Rng;
