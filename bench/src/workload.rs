//! The four workloads: what each deploys and the request stream it
//! sends. A stream is a pure function of `--seed`; the cluster sees
//! only the generated requests.

use bytes::Bytes;
use mrp_amcast::EngineKind;
use mrp_dlog::command::{DLogCommand, LogId};
use mrp_dlog::{DLogDeployment, DLogTopology};
use mrp_store::command::StoreCommand;
use mrp_store::{StoreDeployment, StoreTopology};
use mrp_ycsb::{SmallRng, Workload as Ycsb, WorkloadKind as YcsbKind, YcsbOp};
use multiring_paxos::config::{ClusterConfig, RingTuning, StorageMode};
use multiring_paxos::types::{GroupId, ProcessId};

/// Records preloaded into every MRP-Store replica.
pub const KV_RECORDS: u64 = 10_000;
/// Value size of a store record.
pub const KV_VALUE_BYTES: usize = 100;
/// Payload of one dLog append.
pub const DLOG_APPEND_BYTES: usize = 4096;
/// Multi-appends (to both logs) per thousand dLog operations.
pub const DLOG_MULTI_PER_MILLE: u64 = 200;
/// Logs of the dLog deployment.
pub const DLOG_LOGS: u16 = 2;
/// Per-log cache budget of a dLog server; older entries are evicted,
/// identically on every replica.
pub const DLOG_CACHE_BYTES: usize = 2 << 20;

/// Which replicated service a workload runs.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Service {
    /// MRP-Store, one partition of three replicas.
    Store,
    /// dLog, two logs and a common ring on three servers.
    DLog,
}

/// One benchmark workload.
#[derive(Copy, Clone, Debug)]
pub struct WorkloadSpec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists (one line).
    pub why: &'static str,
    /// The service deployed.
    pub service: Service,
    /// How acceptors persist; `SyncDisk` also gives every server a WAL
    /// directory.
    pub storage: StorageMode,
    /// Submission batching (`MRP_BATCH`) on every server.
    pub batching: bool,
    /// Whether YCSB-A's reads are turned into updates of the same key
    /// (store workloads).
    pub all_updates: bool,
    /// Whether the traced run ends with the fault epilogue.
    pub fault_epilogue: bool,
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "kv-mem",
        why: "MRP-Store in memory, batching off: the CPU and thread hand-off path; storage and batcher work must not show. Per engine 30 x (0.2 s svc, 1 outstanding + 0.2 s sat, window 32).",
        service: Service::Store,
        storage: StorageMode::InMemory,
        batching: false,
        all_updates: false,
        fault_epilogue: true,
    },
    WorkloadSpec {
        name: "kv-batched",
        why: "kv-mem's byte-identical request stream with submission batching on (64 values, 64 KiB, 200 us): latency pays the flush window, throughput collects the amortisation.",
        service: Service::Store,
        storage: StorageMode::InMemory,
        batching: true,
        all_updates: false,
        fault_epilogue: false,
    },
    WorkloadSpec {
        name: "kv-durable",
        why: "kv-mem's deployment with a real WAL and fsync, all updates: mrp-storage sets the ring engine's pace; wbcast persists nothing on its ordering path and is the control.",
        service: Service::Store,
        storage: StorageMode::SyncDisk,
        batching: false,
        all_updates: true,
        fault_epilogue: false,
    },
    WorkloadSpec {
        name: "dlog-multi",
        why: "dLog, 2 logs + common ring, 4 KiB appends, 20% multi-appends to both logs: multicast to a set of groups, byte-proportional codec cost, latency set by protocol timers.",
        service: Service::DLog,
        storage: StorageMode::InMemory,
        batching: false,
        all_updates: false,
        fault_epilogue: false,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What the oracle needs to know about a request it sent.
#[derive(Clone, Debug)]
pub enum OpKind {
    /// A store read.
    KvRead,
    /// A store update of `key` to `value`.
    KvUpdate { key: Bytes, value: Bytes },
    /// An append to one log.
    Append { log: LogId },
    /// An atomic append to every log.
    MultiAppend,
    /// A dLog read (set-up probe only).
    LogRead,
}

/// One generated client request.
#[derive(Clone, Debug)]
pub struct Request {
    /// The proposer it is sent to.
    pub to: ProcessId,
    /// Destination group set γ.
    pub groups: Vec<GroupId>,
    /// Encoded service command.
    pub payload: Bytes,
    /// What it does, for the oracle.
    pub kind: OpKind,
}

/// The resolved deployment of one engine under one workload.
#[derive(Clone, Debug)]
pub enum Deployment {
    /// An MRP-Store deployment.
    Store(StoreDeployment),
    /// A dLog deployment.
    DLog(DLogDeployment),
}

impl Deployment {
    /// Builds the deployment `spec` describes for `engine`.
    pub fn build(spec: &WorkloadSpec, engine: EngineKind) -> Self {
        match spec.service {
            Service::Store => {
                // One ring carries everything, so rate leveling (skip
                // instances at rate λ) has nothing to level.
                let tuning = RingTuning {
                    lambda: 0,
                    storage: spec.storage,
                    ..RingTuning::default()
                };
                let topology = StoreTopology::independent(1, tuning).engine(engine);
                Deployment::Store(StoreDeployment::build(&topology))
            }
            Service::DLog => {
                let tuning = RingTuning {
                    storage: spec.storage,
                    ..RingTuning::default()
                };
                let topology = DLogTopology::new(DLOG_LOGS, tuning).engine(engine);
                Deployment::DLog(DLogDeployment::build(&topology))
            }
        }
    }

    /// The cluster configuration every server runs.
    pub fn config(&self) -> &ClusterConfig {
        match self {
            Deployment::Store(d) => &d.config,
            Deployment::DLog(d) => &d.config,
        }
    }

    /// The server processes, in id order.
    pub fn servers(&self) -> Vec<ProcessId> {
        match self {
            Deployment::Store(d) => d.all_replicas().into_iter().map(|(p, _)| p).collect(),
            Deployment::DLog(d) => d.servers.clone(),
        }
    }

    fn store_request(d: &StoreDeployment, cmd: &StoreCommand, kind: OpKind) -> Request {
        let groups = d.route(cmd);
        Request {
            to: d.proposer_of[&groups[0]],
            groups,
            payload: cmd.encode(),
            kind,
        }
    }

    fn dlog_request(d: &DLogDeployment, cmd: &DLogCommand, kind: OpKind) -> Request {
        let groups = d.route(cmd).expect("every log has a group");
        Request {
            to: d.proposer_of[&groups[0]],
            groups,
            payload: cmd.encode(),
            kind,
        }
    }

    /// A read-only request that changes no state: the set-up probe and
    /// the oracle's read-back.
    pub fn read_request(&self, key: &Bytes) -> Request {
        match self {
            Deployment::Store(d) => {
                Self::store_request(d, &StoreCommand::Read { key: key.clone() }, OpKind::KvRead)
            }
            Deployment::DLog(d) => {
                Self::dlog_request(d, &DLogCommand::Read { log: 0, pos: 0 }, OpKind::LogRead)
            }
        }
    }
}

/// The canonical key of store record `index`.
pub fn kv_key(index: u64) -> Bytes {
    Bytes::from(mrp_ycsb::workload::key_for(index).into_bytes())
}

/// The value every store record is preloaded with.
pub fn kv_initial_value(index: u64) -> Bytes {
    let mut v = vec![0u8; KV_VALUE_BYTES];
    for (i, b) in v.iter_mut().enumerate() {
        *b = (index as u8).wrapping_add(i as u8);
    }
    Bytes::from(v)
}

/// The seeded request stream of one workload.
pub struct Stream {
    deployment: Deployment,
    source: Source,
}

enum Source {
    Kv {
        ycsb: Ycsb,
        /// Draws the values of the updates that replace YCSB-A's reads
        /// in an all-updates workload.
        extra: SmallRng,
        all_updates: bool,
    },
    DLog {
        rng: SmallRng,
        round_robin: u64,
    },
}

impl Stream {
    /// The stream of `spec` for `seed`, addressed per `deployment`.
    pub fn new(spec: &WorkloadSpec, deployment: Deployment, seed: u64) -> Self {
        let source = match spec.service {
            Service::Store => Source::Kv {
                ycsb: Ycsb::new(YcsbKind::A, KV_RECORDS, KV_VALUE_BYTES, seed),
                extra: SmallRng::new(seed ^ 0x9E37_79B9_7F4A_7C15),
                all_updates: spec.all_updates,
            },
            Service::DLog => Source::DLog {
                rng: SmallRng::new(seed),
                round_robin: 0,
            },
        };
        Self { deployment, source }
    }

    /// The deployment the stream addresses.
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// Draws the next request.
    pub fn next_request(&mut self) -> Request {
        match (&mut self.source, &self.deployment) {
            (
                Source::Kv {
                    ycsb,
                    extra,
                    all_updates,
                },
                Deployment::Store(d),
            ) => {
                // YCSB-A is 50/50; an all-updates workload turns each
                // read into an update of the same key.
                let (key, value) = match ycsb.next_op() {
                    YcsbOp::Read { key } if !*all_updates => (key, None),
                    YcsbOp::Read { key } => {
                        let mut v = vec![0u8; KV_VALUE_BYTES];
                        for chunk in v.chunks_mut(8) {
                            let r = extra.next_u64().to_le_bytes();
                            chunk.copy_from_slice(&r[..chunk.len()]);
                        }
                        (key, Some(v))
                    }
                    YcsbOp::Update { key, value } => (key, Some(value)),
                    other => unreachable!("YCSB-A draws reads and updates only: {other:?}"),
                };
                let key = Bytes::from(key.into_bytes());
                match value {
                    None => self.deployment.read_request(&key),
                    Some(value) => {
                        let value = Bytes::from(value);
                        let cmd = StoreCommand::Update {
                            key: key.clone(),
                            value: value.clone(),
                        };
                        Deployment::store_request(d, &cmd, OpKind::KvUpdate { key, value })
                    }
                }
            }
            (Source::DLog { rng, round_robin }, Deployment::DLog(d)) => {
                let mut data = vec![0u8; DLOG_APPEND_BYTES];
                for chunk in data.chunks_mut(8) {
                    chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
                }
                let data = Bytes::from(data);
                if rng.below(1000) < DLOG_MULTI_PER_MILLE {
                    let cmd = DLogCommand::MultiAppend {
                        logs: (0..DLOG_LOGS).collect(),
                        data,
                    };
                    Deployment::dlog_request(d, &cmd, OpKind::MultiAppend)
                } else {
                    *round_robin += 1;
                    let log = (*round_robin % u64::from(DLOG_LOGS)) as LogId;
                    let cmd = DLogCommand::Append { log, data };
                    Deployment::dlog_request(d, &cmd, OpKind::Append { log })
                }
            }
            _ => unreachable!("stream source and deployment come from the same spec"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payloads(name: &str, seed: u64, n: usize) -> Vec<Bytes> {
        let spec = find(name).unwrap();
        let d = Deployment::build(spec, EngineKind::MultiRing);
        let mut s = Stream::new(spec, d, seed);
        (0..n).map(|_| s.next_request().payload).collect()
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for w in &WORKLOADS {
            assert_eq!(payloads(w.name, 7, 200), payloads(w.name, 7, 200));
            assert_ne!(payloads(w.name, 7, 200), payloads(w.name, 8, 200));
        }
    }

    #[test]
    fn kv_batched_replays_kv_mem_byte_for_byte() {
        assert_eq!(payloads("kv-mem", 3, 500), payloads("kv-batched", 3, 500));
    }

    #[test]
    fn mixes_match_the_specs() {
        let count = |name: &str| {
            let spec = find(name).unwrap();
            let d = Deployment::build(spec, EngineKind::Wbcast);
            let mut s = Stream::new(spec, d, 1);
            let mut reads = 0;
            let mut multi = 0;
            for _ in 0..4000 {
                match s.next_request().kind {
                    OpKind::KvRead => reads += 1,
                    OpKind::MultiAppend => multi += 1,
                    _ => {}
                }
            }
            (reads, multi)
        };
        let (reads, _) = count("kv-mem");
        assert!(
            (1800..2200).contains(&reads),
            "YCSB-A is half reads: {reads}"
        );
        assert_eq!(count("kv-durable").0, 0, "kv-durable is all updates");
        let (_, multi) = count("dlog-multi");
        assert!(
            (650..950).contains(&multi),
            "a fifth are multi-appends: {multi}"
        );
    }

    #[test]
    fn multi_appends_address_both_logs_on_a_genuine_engine_only() {
        let spec = find("dlog-multi").unwrap();
        for (engine, groups) in [(EngineKind::Wbcast, 2), (EngineKind::MultiRing, 1)] {
            let mut s = Stream::new(spec, Deployment::build(spec, engine), 1);
            let multi = std::iter::repeat_with(|| s.next_request())
                .find(|r| matches!(r.kind, OpKind::MultiAppend))
                .unwrap();
            assert_eq!(multi.groups.len(), groups, "{engine}");
        }
    }
}
