//! The checkpointing policy of a state-machine replica. The replica
//! itself — execute, checkpoint, answer the coordinated trim, recover
//! from a partition peer — is engine-generic and lives in
//! `mrp_amcast::EngineReplica`; only this plain policy struct stays at
//! the path deployments already import it from.

/// Checkpointing policy of a replica.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct CheckpointPolicy {
    /// Take a checkpoint every this many microseconds (0 disables
    /// periodic checkpoints).
    pub interval_us: u64,
    /// Whether checkpoints are flushed synchronously (the paper's
    /// MRP-Store writes them synchronously so acceptor logs can be
    /// trimmed safely).
    pub sync: bool,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        Self {
            interval_us: 5_000_000,
            sync: true,
        }
    }
}
