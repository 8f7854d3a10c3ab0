//! What Multi-Ring Paxos services read from the coordination service.
//!
//! The paper delegates ring configuration, failure detection,
//! coordinator election and the partitioning schema to Zookeeper
//! (Sections 4 and 7). It is an *oracle* — never on the ordering data
//! path — and in this repository it stays **external**, as the paper's
//! Zookeeper is: the engines take its verdicts as
//! `Event::CoordinatorChange` / `Event::MembershipChange`, announced by
//! whoever hosts them (the simulator's `Cluster` on a crash, the
//! end-to-end benchmark's driver by hand). A runtime that detects
//! failures by itself is future work (ROADMAP direction 5(a)), to be
//! written against `TcpRuntime`'s connections — which already know when
//! a peer is up — not against a registry embedded here.
//!
//! What this crate provides is the part of the schema services compute
//! with: [`PartitionMap`], the hash/range partitioning MRP-Store
//! clients read (Section 6.1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod partition;

pub use partition::{PartitionMap, Partitioning};
