//! # MRP-Store: a strongly consistent partitioned key-value store
//!
//! The key-value service of Section 6.1 of the paper, built on
//! Multi-Ring Paxos atomic multicast and state-machine replication:
//!
//! * keys are strings (byte strings here), values arbitrary byte arrays;
//! * the database is split into `l` partitions, hash- or
//!   range-partitioned ([`PartitionMap`]); each partition is
//!   replicated with state-machine replication on its own ring;
//! * single-key operations (`read`, `update`, `insert`, `delete`) are
//!   multicast to the partition owning the key; `scan` operations are
//!   multicast to the *global* group subscribed by every replica, which
//!   orders them against all single-partition operations (this is what
//!   makes multi-partition executions serializable — Section 6.1);
//! * a configuration without the global ring ("independent rings" in
//!   Figure 4) trades cross-partition ordering for throughput;
//! * clients send commands to a proposer of the relevant ring and wait
//!   for the first replica response (one response per partition for
//!   scans); small commands may be batched per partition up to 32 KB.
//!
//! The service guarantees sequential consistency: one serialization of
//! all operations consistent with each client's program order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod client;
pub mod command;
pub mod kv;
pub mod partition;
pub mod setup;

pub use app::StoreApp;
pub use client::StoreClient;
pub use command::{StoreCommand, StoreResponse};
pub use kv::KvStore;
pub use partition::{PartitionMap, Partitioning};
pub use setup::{StoreDeployment, StoreTopology};
