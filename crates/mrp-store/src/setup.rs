//! Deployment helper: builds the Multi-Ring Paxos configuration for an
//! MRP-Store cluster (partition rings plus optional global ring) the way
//! the paper's evaluation deploys it.

use crate::app::StoreApp;
use crate::partition::PartitionMap;
use mrp_amcast::EngineKind;
use mrp_sim::cluster::Cluster;
use multiring_paxos::config::{ClusterConfig, RingSpec, RingTuning, Roles};
use multiring_paxos::replica::CheckpointPolicy;
use multiring_paxos::types::{GroupId, ProcessId};
use std::collections::BTreeMap;

/// Replicas per partition (ring size), as in the paper's deployments.
const REPLICAS: u32 = 3;

/// Shape of an MRP-Store deployment.
#[derive(Clone, Debug)]
pub struct StoreTopology {
    /// Number of partitions `l`, each a ring of three replicas.
    pub partitions: u16,
    /// Whether replicas also subscribe to a common global ring that
    /// orders cross-partition operations (Figure 4 compares with and
    /// without it).
    pub global_ring: bool,
    /// Ring tuning applied to every ring, the global one included.
    pub tuning: RingTuning,
    /// Which atomic-multicast engine orders the store's commands.
    pub engine: EngineKind,
}

impl StoreTopology {
    /// The paper's local setup: `partitions` rings of 3 replicas with a
    /// global ring, ordered by the default engine (Multi-Ring Paxos);
    /// [`engine`](Self::engine) selects another.
    pub fn local(partitions: u16, tuning: RingTuning) -> Self {
        Self {
            partitions,
            global_ring: true,
            tuning,
            engine: EngineKind::default(),
        }
    }

    /// Selects the ordering engine.
    #[must_use]
    pub fn engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// The "independent rings" configuration of Figure 4 (no global
    /// ring; no cross-partition ordering).
    pub fn independent(partitions: u16, tuning: RingTuning) -> Self {
        Self {
            global_ring: false,
            ..Self::local(partitions, tuning)
        }
    }
}

/// A fully resolved deployment: configuration plus routing tables.
#[derive(Clone, Debug)]
pub struct StoreDeployment {
    /// The validated cluster configuration.
    pub config: ClusterConfig,
    /// Key → group mapping (hash partitioning over the partition
    /// groups).
    pub partition_map: PartitionMap,
    /// The global group, if the topology has one.
    pub global_group: Option<GroupId>,
    /// Replica processes per partition, in ring order.
    pub replicas: BTreeMap<u16, Vec<ProcessId>>,
    /// A proposer to contact per group (the first ring member).
    pub proposer_of: BTreeMap<GroupId, ProcessId>,
    /// The ordering engine the deployment runs.
    pub engine: EngineKind,
}

impl StoreDeployment {
    /// Builds the deployment: partition `i` is group `i`, its ring
    /// processes `3i .. 3i + 3`; the optional global ring is
    /// group `l` and includes every replica.
    ///
    /// # Panics
    ///
    /// Panics if the topology has no partitions.
    pub fn build(topology: &StoreTopology) -> Self {
        assert!(topology.partitions > 0);
        let l = topology.partitions;
        let mut builder = ClusterConfig::builder();
        let mut replicas: BTreeMap<u16, Vec<ProcessId>> = BTreeMap::new();
        let mut proposer_of = BTreeMap::new();

        for part in 0..l {
            let group = GroupId::new(part);
            let mut spec = RingSpec::new(group).tuning(topology.tuning);
            let mut members = Vec::new();
            for j in 0..REPLICAS {
                let p = ProcessId::new(u32::from(part) * REPLICAS + j);
                spec = spec.member(p, Roles::ALL);
                members.push(p);
            }
            proposer_of.insert(group, members[0]);
            replicas.insert(part, members);
            builder = builder.ring(spec);
        }

        let global_group = topology.global_ring.then(|| GroupId::new(l));
        if let Some(g) = global_group {
            let mut spec = RingSpec::new(g).tuning(topology.tuning);
            for members in replicas.values() {
                for &p in members {
                    spec = spec.member(p, Roles::ALL);
                }
            }
            let first = replicas[&0][0];
            proposer_of.insert(g, first);
            builder = builder.ring(spec);
        }

        for (&part, members) in &replicas {
            for &p in members {
                builder = builder.subscribe(p, GroupId::new(part));
                if let Some(g) = global_group {
                    builder = builder.subscribe(p, g);
                }
            }
        }

        let config = builder.build().expect("store deployment config is valid");
        Self {
            config,
            partition_map: PartitionMap::hash(l, 0),
            global_group,
            replicas,
            proposer_of,
            engine: topology.engine,
        }
    }

    /// Spawns one replica actor per process on `cluster`: an
    /// [`EngineReplica`](mrp_amcast::EngineReplica) over the
    /// deployment's ordering engine, checkpointing per `policy`. Every
    /// replica also gets a restart factory, so `cluster.schedule_crash`
    /// / `schedule_restart` recover it from its stable storage (latest
    /// durable checkpoint + acceptor logs) or a fresher peer checkpoint. `mk_app` builds (and may
    /// preload) a replica's application from its partition number; it
    /// runs again on every restart to rebuild the pre-checkpoint state.
    pub fn spawn_replicas(
        &self,
        cluster: &mut Cluster,
        policy: CheckpointPolicy,
        mk_app: impl Fn(u16) -> StoreApp + Clone + 'static,
    ) {
        cluster.set_protocol(self.config.clone());
        for (p, partition) in self.all_replicas() {
            let mk = mk_app.clone();
            cluster.add_recoverable_replica_actor(
                self.engine,
                p,
                self.config.clone(),
                policy,
                move || mk(partition),
            );
        }
    }

    /// Every replica process with its partition.
    pub fn all_replicas(&self) -> Vec<(ProcessId, u16)> {
        self.replicas
            .iter()
            .flat_map(|(&part, ms)| ms.iter().map(move |&p| (p, part)))
            .collect()
    }

    /// The group set γ a command must be multicast to: the owning
    /// partition group for single-key commands; for scans (the
    /// multi-partition commands), exactly the covering partition groups
    /// when the engine orders multi-group messages genuinely, otherwise
    /// the global group if present, otherwise every covering partition
    /// group as independent (unordered) per-group requests.
    pub fn route(&self, cmd: &crate::command::StoreCommand) -> Vec<GroupId> {
        use crate::command::StoreCommand as C;
        match cmd {
            C::Read { key } | C::Update { key, .. } | C::Insert { key, .. } | C::Delete { key } => {
                vec![self.partition_map.group_of(key)]
            }
            C::Scan { from, to, .. } => {
                if self.engine.genuine() {
                    self.partition_map.groups_for_range(from, to)
                } else {
                    match self.global_group {
                        Some(g) => vec![g],
                        None => self.partition_map.groups_for_range(from, to),
                    }
                }
            }
            C::Batch(cmds) => {
                // A batch is routed by its first command; the client
                // builder only groups commands of one partition.
                cmds.first().map(|c| self.route(c)).unwrap_or_default()
            }
        }
    }

    /// Whether [`route`](Self::route)'s group set travels as *one*
    /// atomic multicast (the engine orders it as a single message
    /// across the set) instead of one independent request per group.
    /// Single-group sets are trivially atomic; larger sets require a
    /// genuine engine — with the ring engine a deployment expresses
    /// cross-partition ordering through its global ring, which `route`
    /// already collapsed to a single group.
    pub fn atomic_multicast(&self, groups: &[GroupId]) -> bool {
        groups.len() <= 1 || self.engine.genuine()
    }

    /// How many distinct partition responses a command needs before the
    /// client can complete it.
    pub fn responses_needed(&self, cmd: &crate::command::StoreCommand) -> usize {
        use crate::command::StoreCommand as C;
        match cmd {
            C::Scan { from, to, .. } => {
                if self.engine.genuine() || self.global_group.is_none() {
                    self.partition_map.groups_for_range(from, to).len()
                } else {
                    // Ordered through the global ring: every partition's
                    // replicas deliver and answer.
                    usize::from(self.partition_map.partitions())
                }
            }
            _ => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::StoreCommand;
    use bytes::Bytes;

    fn quiet() -> RingTuning {
        RingTuning {
            lambda: 0,
            ..RingTuning::default()
        }
    }

    #[test]
    fn builds_rings_and_global_ring() {
        let d = StoreDeployment::build(&StoreTopology::local(3, quiet()));
        assert_eq!(d.config.rings().len(), 4);
        assert_eq!(d.global_group, Some(GroupId::new(3)));
        // 9 replicas, each subscribing to its partition and the global
        // group.
        assert_eq!(d.all_replicas().len(), 9);
        let p0 = ProcessId::new(0);
        assert_eq!(
            d.config.subscriptions_of(p0),
            vec![GroupId::new(0), GroupId::new(3)]
        );
        // Partitions are separate partitions-in-the-recovery-sense too.
        assert_eq!(d.config.partition_of(p0).len(), 3);
    }

    #[test]
    fn independent_rings_have_no_global_group() {
        let d = StoreDeployment::build(&StoreTopology::independent(3, quiet()));
        assert_eq!(d.config.rings().len(), 3);
        assert_eq!(d.global_group, None);
    }

    #[test]
    fn routing_single_key_and_scan() {
        // The ring engine routes a scan through the global group.
        let d =
            StoreDeployment::build(&StoreTopology::local(3, quiet()).engine(EngineKind::MultiRing));
        let read = StoreCommand::Read {
            key: Bytes::from_static(b"alpha"),
        };
        let groups = d.route(&read);
        assert_eq!(groups.len(), 1);
        assert!(groups[0].value() < 3);
        assert_eq!(d.responses_needed(&read), 1);

        let scan = StoreCommand::Scan {
            from: Bytes::from_static(b"a"),
            to: Bytes::from_static(b"z"),
            limit: 10,
        };
        assert_eq!(d.route(&scan), vec![GroupId::new(3)]);
        assert_eq!(d.responses_needed(&scan), 3);
        assert!(d.atomic_multicast(&d.route(&scan)));

        let indep = StoreDeployment::build(
            &StoreTopology::independent(3, quiet()).engine(EngineKind::MultiRing),
        );
        assert_eq!(indep.route(&scan).len(), 3);
        assert_eq!(indep.responses_needed(&scan), 3);
        // Ring engine without a global ring: independent per-group
        // requests, no cross-partition ordering.
        assert!(!indep.atomic_multicast(&indep.route(&scan)));
    }

    /// With a genuine engine, scans address exactly the involved
    /// partition groups as one atomic multicast — no global ring needed.
    #[test]
    fn genuine_engine_routes_scans_to_involved_partitions() {
        let topo = StoreTopology::independent(3, quiet()).engine(EngineKind::Wbcast);
        let d = StoreDeployment::build(&topo);
        assert_eq!(d.global_group, None);
        let scan = StoreCommand::Scan {
            from: Bytes::from_static(b"a"),
            to: Bytes::from_static(b"z"),
            limit: 10,
        };
        let groups = d.route(&scan);
        assert_eq!(groups.len(), 3, "every covering partition is addressed");
        assert!(d.atomic_multicast(&groups), "one multicast, not a fan-out");
        assert_eq!(d.responses_needed(&scan), 3);

        // Even with a global ring configured, the genuine engine
        // bypasses it and addresses the involved partitions directly.
        let topo = StoreTopology::local(3, quiet()).engine(EngineKind::Wbcast);
        let d = StoreDeployment::build(&topo);
        let groups = d.route(&scan);
        assert_eq!(groups.len(), 3);
        assert!(!groups.contains(&d.global_group.unwrap()));
        assert!(d.atomic_multicast(&groups));
    }
}
