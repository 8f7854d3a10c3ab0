//! Deployment helper for dLog clusters: `k` log rings plus a common
//! ring, hosted by a fixed set of server processes (the paper's vertical
//! scalability setup, Section 8.4.1).

use crate::app::DLogApp;
use crate::command::LogId;
use mrp_amcast::EngineKind;
use mrp_sim::cluster::Cluster;
use multiring_paxos::config::{ClusterConfig, RingSpec, RingTuning, Roles};
use multiring_paxos::replica::CheckpointPolicy;
use multiring_paxos::types::{GroupId, ProcessId, RingId};
use std::collections::BTreeMap;

/// Shape of a dLog deployment.
#[derive(Clone, Debug)]
pub struct DLogTopology {
    /// Number of logs (= log rings).
    pub logs: u16,
    /// Number of server processes (each hosts every log; the paper uses
    /// 3).
    pub servers: u32,
    /// Whether the common ring for multi-appends exists.
    pub common_ring: bool,
    /// Ring tuning.
    pub tuning: RingTuning,
    /// Which atomic-multicast engine orders appends.
    pub engine: EngineKind,
}

impl DLogTopology {
    /// The paper's setup: `logs` rings over 3 servers with a common
    /// ring. The engine defaults to the `MRP_ENGINE` environment
    /// variable (Multi-Ring Paxos when unset);
    /// [`engine`](Self::engine) overrides it.
    pub fn new(logs: u16, tuning: RingTuning) -> Self {
        Self {
            logs,
            servers: 3,
            common_ring: true,
            tuning,
            engine: EngineKind::from_env(),
        }
    }

    /// Selects the ordering engine.
    #[must_use]
    pub fn engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }
}

/// A resolved dLog deployment.
#[derive(Clone, Debug)]
pub struct DLogDeployment {
    /// The validated cluster configuration.
    pub config: ClusterConfig,
    /// Server processes.
    pub servers: Vec<ProcessId>,
    /// The group of each log.
    pub group_of_log: BTreeMap<LogId, GroupId>,
    /// The common group for multi-appends, if configured.
    pub common_group: Option<GroupId>,
    /// A proposer per group.
    pub proposer_of: BTreeMap<GroupId, ProcessId>,
    /// The ordering engine the deployment runs.
    pub engine: EngineKind,
}

impl DLogDeployment {
    /// Builds the deployment: log `i` ↔ ring/group `i`; the common ring
    /// is group `logs`. Every server is a member of every ring with all
    /// roles and subscribes to every group.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate topology.
    pub fn build(topology: &DLogTopology) -> Self {
        assert!(topology.logs > 0 && topology.servers > 0);
        let servers: Vec<ProcessId> = (0..topology.servers).map(ProcessId::new).collect();
        let mut builder = ClusterConfig::builder();
        let mut group_of_log = BTreeMap::new();
        let mut proposer_of = BTreeMap::new();
        let mut groups = Vec::new();

        // Ring membership is rotated per ring so coordination load (the
        // first acceptor coordinates) spreads across the servers — the
        // paper's vertical-scalability experiment depends on rings not
        // sharing one coordinator.
        let rotated = |k: usize| -> Vec<ProcessId> {
            (0..servers.len())
                .map(|j| servers[(k + j) % servers.len()])
                .collect()
        };
        for log in 0..topology.logs {
            let ring_id = RingId::new(log);
            let group = GroupId::new(log);
            group_of_log.insert(log, group);
            groups.push(group);
            let mut spec = RingSpec::new(ring_id).tuning(topology.tuning);
            let members = rotated(usize::from(log));
            for &s in &members {
                spec = spec.member(s, Roles::ALL);
            }
            proposer_of.insert(group, members[0]);
            builder = builder.ring(spec).group(group, ring_id);
        }
        let common_group = topology.common_ring.then(|| GroupId::new(topology.logs));
        if let Some(g) = common_group {
            let ring_id = RingId::new(topology.logs);
            let mut spec = RingSpec::new(ring_id).tuning(topology.tuning);
            let members = rotated(usize::from(topology.logs));
            for &s in &members {
                spec = spec.member(s, Roles::ALL);
            }
            proposer_of.insert(g, members[0]);
            groups.push(g);
            builder = builder.ring(spec).group(g, ring_id);
        }
        for &s in &servers {
            for &g in &groups {
                builder = builder.subscribe(s, g);
            }
        }
        let config = builder.build().expect("dlog deployment config is valid");
        Self {
            config,
            servers,
            group_of_log,
            common_group,
            proposer_of,
            engine: topology.engine,
        }
    }

    /// Spawns one server actor per process on `cluster`: an
    /// [`EngineReplica`](mrp_amcast::EngineReplica) over the
    /// deployment's ordering engine, checkpointing per `policy`, with a
    /// restart factory so crashed servers recover from their latest
    /// durable checkpoint or a fresher peer's.
    /// Each server hosts every log with `wal_capacity` bytes of
    /// in-memory log budget.
    pub fn spawn_servers(
        &self,
        cluster: &mut Cluster,
        policy: CheckpointPolicy,
        wal_capacity: usize,
    ) {
        cluster.set_protocol(self.config.clone());
        let logs: Vec<LogId> = self.group_of_log.keys().copied().collect();
        for &s in &self.servers {
            let logs = logs.clone();
            cluster.add_recoverable_replica_actor(
                self.engine,
                s,
                self.config.clone(),
                policy,
                move || DLogApp::new(logs.clone(), wal_capacity),
            );
        }
    }

    /// The group set γ a command must be multicast to. Single-log
    /// commands address their log's group. Multi-appends address
    /// exactly the destination logs' groups when the engine orders
    /// multi-group messages genuinely; the ring engine routes them
    /// through the common ring instead (`None` without one).
    pub fn route(&self, cmd: &crate::command::DLogCommand) -> Option<Vec<GroupId>> {
        use crate::command::DLogCommand as C;
        match cmd {
            C::Append { log, .. } | C::Read { log, .. } | C::Trim { log, .. } => {
                self.group_of_log.get(log).map(|&g| vec![g])
            }
            C::MultiAppend { logs, .. } => {
                if self.engine.genuine() {
                    logs.iter()
                        .map(|l| self.group_of_log.get(l).copied())
                        .collect()
                } else {
                    self.common_group.map(|g| vec![g])
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::DLogCommand;
    use bytes::Bytes;

    fn quiet() -> RingTuning {
        RingTuning {
            lambda: 0,
            ..RingTuning::default()
        }
    }

    #[test]
    fn builds_log_rings_plus_common() {
        let d = DLogDeployment::build(&DLogTopology::new(5, quiet()));
        assert_eq!(d.config.rings().len(), 6);
        assert_eq!(d.servers.len(), 3);
        // Each server subscribes to 6 groups.
        assert_eq!(d.config.subscriptions_of(d.servers[0]).len(), 6);
        assert_eq!(d.common_group, Some(GroupId::new(5)));
        // All servers form one recovery partition.
        assert_eq!(d.config.partition_of(d.servers[0]).len(), 3);
    }

    #[test]
    fn routes_by_log_and_common() {
        let d = DLogDeployment::build(&DLogTopology::new(3, quiet()).engine(EngineKind::MultiRing));
        assert_eq!(
            d.route(&DLogCommand::Append {
                log: 2,
                data: Bytes::new()
            }),
            Some(vec![GroupId::new(2)])
        );
        assert_eq!(
            d.route(&DLogCommand::MultiAppend {
                logs: vec![0, 2],
                data: Bytes::new()
            }),
            Some(vec![GroupId::new(3)])
        );
        assert_eq!(
            d.route(&DLogCommand::Append {
                log: 9,
                data: Bytes::new()
            }),
            None
        );
    }

    /// A genuine engine addresses multi-appends to exactly the
    /// destination logs' groups — the common ring is not involved.
    #[test]
    fn genuine_engine_routes_multi_append_to_destination_logs() {
        let d = DLogDeployment::build(&DLogTopology::new(3, quiet()).engine(EngineKind::Wbcast));
        assert_eq!(
            d.route(&DLogCommand::MultiAppend {
                logs: vec![0, 2],
                data: Bytes::new()
            }),
            Some(vec![GroupId::new(0), GroupId::new(2)])
        );
        assert_eq!(
            d.route(&DLogCommand::MultiAppend {
                logs: vec![0, 9],
                data: Bytes::new()
            }),
            None,
            "unknown destination log"
        );
    }
}
