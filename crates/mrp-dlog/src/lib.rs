//! # dLog: a distributed shared log on atomic multicast
//!
//! The distributed log service of Section 6.2 of the paper: multiple
//! concurrent writers append data to one or several logs *atomically*.
//!
//! * every log is assigned to one multicast group (ring); `append`,
//!   `read` and `trim` commands are multicast to the log's group;
//! * `multi-append` appends one value to several logs atomically: it is
//!   multicast to the *common* group every server subscribes to, so the
//!   deterministic merge orders it consistently against all
//!   single-log appends;
//! * positions are assigned deterministically at execution, so every
//!   replica agrees on them and `append` can return "the position of the
//!   log at which the data was stored" (Table 2);
//! * servers hold recent appends in an in-memory cache (200 MB in the
//!   paper) and rely on the ring's acceptor logs for durability; `trim`
//!   flushes the cache up to a position.
//!
//! Unlike sequencer-based logs (CORFU), append load scales by adding
//! rings — there is no central sequencer to saturate (Section 9).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod client;
pub mod command;
pub mod setup;

pub use app::DLogApp;
pub use client::appends;
pub use command::{DLogCommand, DLogResponse, LogId};
pub use setup::{DLogDeployment, DLogTopology};
