//! The Multi-Ring layer: deterministic merge of the per-ring decision
//! streams into a single atomic-multicast delivery order.
//!
//! A learner subscribed to several groups must deliver messages from all
//! of them in an order that every other learner with overlapping
//! subscriptions agrees with. Multi-Ring Paxos achieves this without any
//! cross-ring coordination: learners deliver decided consensus instances
//! from their subscribed rings *round-robin in group-id order*, one
//! instance at a time ([`Merger`]). Because the schedule is a pure
//! function of the per-ring decision sequences, any two learners
//! subscribed to the same groups produce the same interleaving.
//!
//! The price is that a round-robin consumer stalls on its slowest ring;
//! the *rate leveling* mechanism (skip instances proposed by coordinators
//! of underloaded rings, implemented in
//! [`crate::paxos::Coordinator::on_delta`]) keeps every ring flowing at a
//! configured rate λ so the stall is bounded by Δ.

pub mod merge;

pub use merge::{MergeDelivery, Merger};
