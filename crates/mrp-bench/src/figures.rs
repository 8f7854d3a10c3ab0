//! Parameterized runners for every figure of the paper's evaluation.
//!
//! Each `figN` function builds the deployment the paper describes,
//! drives it on the deterministic simulator, and returns structured
//! results; the bench targets print them as tables/series. Absolute
//! numbers depend on the calibrated CPU/disk/network models — the
//! *shape* (who wins, scaling factors, crossovers) is the reproduction
//! target (see the repository `README.md`).

use crate::harness::{EchoApp, OpenLoopClient, PingClient, Scale};
use bytes::Bytes;
use mrp_amcast::{EngineKind, EngineReplica};
use mrp_baselines::eventual::{BaselineClient, EventualServer};
use mrp_baselines::quorumlog::{Bookie, JournalPolicy, QuorumLogClient};
use mrp_baselines::single::SingleServer;
use mrp_baselines::twopc::{TwoPcClient, TxnParticipant};
use mrp_coord::PartitionMap;
use mrp_dlog::{DLogClient, DLogClientConfig, DLogDeployment, DLogTopology};
use mrp_sim::actor::Hosted;
use mrp_sim::cluster::{Cluster, SimConfig};
use mrp_sim::cpu::CpuModel;
use mrp_sim::disk::DiskModel;
use mrp_sim::net::{Region, Topology};
use mrp_store::client::{ClientOp, StoreClient, StoreClientConfig};
use mrp_store::command::StoreCommand;
use mrp_store::{StoreApp, StoreDeployment, StoreTopology};
use mrp_ycsb::{Workload, WorkloadKind, YcsbOp};
use multiring_paxos::config::{ClusterConfig, RingSpec, RingTuning, Roles, StorageMode};
use multiring_paxos::replica::CheckpointPolicy;
use multiring_paxos::types::{ClientId, GroupId, ProcessId, RingId, Time};
use std::collections::BTreeMap;

/// CPU model used for every server process in the service-level
/// comparisons (calibrated so absolute throughputs land in the same
/// order of magnitude as the paper's testbed).
fn server_cpu() -> CpuModel {
    CpuModel::new(60, 2)
}

/// CPU model for the protocol baseline of Figure 3 (faster per event:
/// the dummy service does no work).
fn proto_cpu() -> CpuModel {
    CpuModel::new(8, 4)
}

/// Replicas that never checkpoint (the figures without a crash).
const NO_CHECKPOINTS: CheckpointPolicy = CheckpointPolicy {
    interval_us: 0,
    sync: false,
};

/// Registers `config` and spawns processes `0..n` as dummy-service
/// ([`EchoApp`]) replicas over `kind`, each on `cpu` when given.
fn spawn_echo_replicas(
    cluster: &mut Cluster,
    kind: EngineKind,
    config: &ClusterConfig,
    n: u32,
    policy: CheckpointPolicy,
    cpu: Option<fn() -> CpuModel>,
) {
    cluster.set_protocol(config.clone());
    for p in (0..n).map(ProcessId::new) {
        cluster.add_recoverable_replica_actor(kind, p, config.clone(), policy, EchoApp::new);
        if let Some(cpu) = cpu {
            cluster.set_cpu(p, cpu());
        }
    }
}

// ---------------------------------------------------------------- fig 3

/// One row of Figure 3.
#[derive(Clone, Debug)]
pub struct Fig3Row {
    /// Storage mode name.
    pub mode: &'static str,
    /// Request size in bytes.
    pub size: usize,
    /// Delivered throughput in megabits per second.
    pub mbps: f64,
    /// Mean client latency in milliseconds.
    pub latency_ms: f64,
    /// Coordinator CPU utilization in percent.
    pub cpu_pct: f64,
    /// Latency CDF points `(us, fraction)` (kept for the 32 KB plot).
    pub cdf: Vec<(u64, f64)>,
}

/// A Figure 3 storage mode: name, acceptor mode, disk model factory.
type StorageModeRow = (&'static str, StorageMode, Option<fn() -> DiskModel>);

/// Figure 3: one ring, three processes (proposer+acceptor+learner), ten
/// closed-loop proposer threads, five storage modes × request sizes.
pub fn fig3(scale: Scale) -> Vec<Fig3Row> {
    let sizes: &[usize] = &[512, 2048, 8192, 32 * 1024];
    let modes: &[StorageModeRow] = &[
        ("in-memory", StorageMode::InMemory, None),
        ("async-disk", StorageMode::AsyncDisk, Some(DiskModel::hdd)),
        ("async-ssd", StorageMode::AsyncDisk, Some(DiskModel::ssd)),
        ("sync-disk", StorageMode::SyncDisk, Some(DiskModel::hdd)),
        ("sync-ssd", StorageMode::SyncDisk, Some(DiskModel::ssd)),
    ];
    let warmup_s = scale.pick(2, 1);
    let run_s = scale.pick(12, 2);
    let mut rows = Vec::new();
    for &(mode, storage, disk) in modes {
        for &size in sizes {
            let tuning = RingTuning {
                storage,
                lambda: 0,
                // The paper's Figure 3 setting: one value an instance.
                values_per_instance: 1,
                ..RingTuning::default()
            };
            let config = multiring_paxos::config::single_ring(3, tuning);
            let mut cluster = Cluster::new(
                SimConfig {
                    seed: 3,
                    ..SimConfig::default()
                },
                Topology::lan(8),
            );
            spawn_echo_replicas(
                &mut cluster,
                EngineKind::MultiRing,
                &config,
                3,
                NO_CHECKPOINTS,
                Some(proto_cpu),
            );
            if let Some(mk) = disk {
                for i in 0..3 {
                    cluster.add_disk(ProcessId::new(i), mk());
                }
            }
            let client_proc = ProcessId::new(50);
            let client_id = ClientId::new(1);
            let client = PingClient::new(
                client_id,
                10,
                ProcessId::new(0),
                GroupId::new(0),
                size,
                "fig3",
            )
            .warmup_until(Time::from_secs(warmup_s));
            cluster.add_actor(client_proc, Box::new(client));
            cluster.register_client(client_id, client_proc);
            cluster.start();
            cluster.run_until(Time::from_secs(warmup_s + run_s));

            let ops = cluster.metrics().counter("fig3/ops");
            let bytes = cluster.metrics().counter("fig3/bytes");
            let h = cluster.metrics().histogram("fig3/latency_us");
            let window_s = run_s as f64;
            let mbps = bytes as f64 * 8.0 / window_s / 1e6;
            let latency_ms = h.map_or(0.0, |h| h.mean() / 1000.0);
            let cdf = h.map(mrp_sim::metrics::Histogram::cdf).unwrap_or_default();
            let elapsed = cluster.now().as_micros();
            let cpu_pct = cluster
                .cpu(ProcessId::new(0))
                .map_or(0.0, |c| c.utilization(elapsed) * 100.0);
            let _ = ops;
            rows.push(Fig3Row {
                mode,
                size,
                mbps,
                latency_ms,
                cpu_pct,
                cdf,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------- fig 4

/// One cell of Figure 4.
#[derive(Clone, Debug)]
pub struct Fig4Row {
    /// System name.
    pub system: &'static str,
    /// YCSB workload letter.
    pub workload: char,
    /// Completed operations per second.
    pub ops_per_sec: f64,
    /// Workload-F latency breakdown (read / update / rmw) in
    /// milliseconds, only for workload F.
    pub f_latency_ms: Option<(f64, f64, f64)>,
}

const YCSB_RECORDS: u64 = 10_000;
const YCSB_VALUE: usize = 256;

fn ycsb_to_store_op(op: YcsbOp) -> ClientOp {
    match op {
        YcsbOp::Read { key } => ClientOp::Single {
            cmd: StoreCommand::Read {
                key: Bytes::from(key),
            },
            tag: "read",
        },
        YcsbOp::Update { key, value } => ClientOp::Single {
            cmd: StoreCommand::Update {
                key: Bytes::from(key),
                value: Bytes::from(value),
            },
            tag: "update",
        },
        YcsbOp::Insert { key, value } => ClientOp::Single {
            cmd: StoreCommand::Insert {
                key: Bytes::from(key),
                value: Bytes::from(value),
            },
            tag: "insert",
        },
        YcsbOp::Scan { key, len } => ClientOp::Single {
            cmd: StoreCommand::Scan {
                from: Bytes::from(key),
                to: Bytes::from_static(b"user\xff"),
                limit: len,
            },
            tag: "scan",
        },
        YcsbOp::ReadModifyWrite { key, value } => ClientOp::ReadModifyWrite {
            key: Bytes::from(key),
            value: Bytes::from(value),
        },
    }
}

fn ycsb_to_cmd(op: YcsbOp) -> (StoreCommand, &'static str) {
    match ycsb_to_store_op(op) {
        ClientOp::Single { cmd, tag } => (cmd, tag),
        // Baselines execute RMW as one update round-trip (their servers
        // have no read-then-write protocol; this only favors them).
        ClientOp::ReadModifyWrite { key, value } => (StoreCommand::Update { key, value }, "rmw"),
    }
}

/// Spawns `deployment`'s non-checkpointing replicas on [`server_cpu`]s.
fn spawn_store_replicas(
    cluster: &mut Cluster,
    deployment: &StoreDeployment,
    mk_app: impl Fn(u16) -> StoreApp + Clone + 'static,
) {
    deployment.spawn_replicas(cluster, NO_CHECKPOINTS, mk_app);
    for (p, _) in deployment.all_replicas() {
        cluster.set_cpu(p, server_cpu());
    }
}

fn run_mrp_ycsb(
    kind: WorkloadKind,
    scale: Scale,
    independent: bool,
) -> (f64, Option<(f64, f64, f64)>) {
    // The paper's local configuration: M=1, Delta=5ms, lambda=9000 —
    // lambda must sit above the per-ring delivery rate or the merge
    // throttles every partition to the global ring's skip rate.
    let tuning = RingTuning {
        lambda: 9_000,
        ..RingTuning::default()
    };
    // Pinned to the paper's engine: these rows are labeled as
    // Multi-Ring Paxos results, so MRP_ENGINE must not flip them.
    let topo = if independent {
        StoreTopology::independent(3, tuning)
    } else {
        StoreTopology::local(3, tuning)
    }
    .engine(EngineKind::MultiRing);
    let deployment = StoreDeployment::build(&topo);
    let mut cluster = Cluster::new(
        SimConfig {
            seed: 4,
            ..SimConfig::default()
        },
        Topology::lan(16),
    );
    let map = deployment.partition_map.clone();
    spawn_store_replicas(&mut cluster, &deployment, move |partition| {
        let mut app = StoreApp::new(partition);
        for i in 0..YCSB_RECORDS {
            let key = mrp_ycsb::workload::key_for(i);
            if map.group_of(key.as_bytes()).value() == partition {
                app.load(Bytes::from(key), Bytes::from(vec![1u8; YCSB_VALUE]));
            }
        }
        app
    });
    let warmup_s = scale.pick(2, 1);
    let run_s = scale.pick(8, 2);
    let client_proc = ProcessId::new(900);
    let client_id = ClientId::new(1);
    let mut workload = Workload::new(kind, YCSB_RECORDS, YCSB_VALUE, 7);
    let gen = move |_r: &mut mrp_sim::rng::Rng| ycsb_to_store_op(workload.next_op());
    let mut cfg = StoreClientConfig::new(client_id, 100);
    cfg.warmup_until = Time::from_secs(warmup_s);
    let client = StoreClient::new(cfg, deployment.clone(), gen);
    cluster.add_actor(client_proc, Box::new(client));
    cluster.register_client(client_id, client_proc);
    cluster.start();
    cluster.run_until(Time::from_secs(warmup_s + run_s));
    let ops = cluster.metrics().counter("store/ops") as f64 / run_s as f64;
    let breakdown = (kind == WorkloadKind::F).then(|| {
        let g = |tag: &str| {
            cluster
                .metrics()
                .histogram(&format!("store/latency_us/{tag}"))
                .map_or(0.0, |h| h.mean() / 1000.0)
        };
        (g("read"), g("update"), g("rmw"))
    });
    (ops, breakdown)
}

fn run_eventual_ycsb(kind: WorkloadKind, scale: Scale) -> (f64, Option<(f64, f64, f64)>) {
    let mut cluster = Cluster::new(
        SimConfig {
            seed: 4,
            ..SimConfig::default()
        },
        Topology::lan(8),
    );
    let servers: Vec<ProcessId> = (0..3).map(ProcessId::new).collect();
    let map = PartitionMap::hash(3, 0);
    for (i, &s) in servers.iter().enumerate() {
        let replicas: Vec<ProcessId> = servers.iter().copied().filter(|&q| q != s).collect();
        let mut server = EventualServer::new(i as u16, replicas);
        for r in 0..YCSB_RECORDS {
            let key = mrp_ycsb::workload::key_for(r);
            if map.group_of(key.as_bytes()).value() == i as u16 {
                server.load(Bytes::from(key), Bytes::from(vec![1u8; YCSB_VALUE]));
            }
        }
        cluster.add_actor(s, Box::new(server));
        cluster.set_cpu(s, server_cpu());
    }
    let owners: BTreeMap<u16, ProcessId> = (0..3u16).map(|i| (i, servers[i as usize])).collect();
    let warmup_s = scale.pick(2, 1);
    let run_s = scale.pick(8, 2);
    let client_proc = ProcessId::new(900);
    let client_id = ClientId::new(1);
    let mut workload = Workload::new(kind, YCSB_RECORDS, YCSB_VALUE, 7);
    let client = BaselineClient::new(client_id, 100, map, owners, "cassandra", move |_rng| {
        ycsb_to_cmd(workload.next_op())
    })
    .warmup_until(Time::from_secs(warmup_s));
    cluster.add_actor(client_proc, Box::new(client));
    cluster.register_client(client_id, client_proc);
    cluster.start();
    cluster.run_until(Time::from_secs(warmup_s + run_s));
    let ops = cluster.metrics().counter("cassandra/ops") as f64 / run_s as f64;
    let breakdown = (kind == WorkloadKind::F).then(|| {
        let g = |tag: &str| {
            cluster
                .metrics()
                .histogram(&format!("cassandra/latency_us/{tag}"))
                .map_or(0.0, |h| h.mean() / 1000.0)
        };
        (g("read"), g("rmw"), g("rmw"))
    });
    (ops, breakdown)
}

fn run_single_ycsb(kind: WorkloadKind, scale: Scale) -> (f64, Option<(f64, f64, f64)>) {
    let mut cluster = Cluster::new(
        SimConfig {
            seed: 4,
            ..SimConfig::default()
        },
        Topology::lan(4),
    );
    let server = ProcessId::new(0);
    let mut s = SingleServer::new();
    for r in 0..YCSB_RECORDS {
        s.load(
            Bytes::from(mrp_ycsb::workload::key_for(r)),
            Bytes::from(vec![1u8; YCSB_VALUE]),
        );
    }
    cluster.add_actor(server, Box::new(s));
    cluster.set_cpu(server, server_cpu());
    let warmup_s = scale.pick(2, 1);
    let run_s = scale.pick(8, 2);
    let client_proc = ProcessId::new(900);
    let client_id = ClientId::new(1);
    let mut workload = Workload::new(kind, YCSB_RECORDS, YCSB_VALUE, 7);
    let client = BaselineClient::new(
        client_id,
        100,
        PartitionMap::hash(1, 0),
        BTreeMap::from([(0u16, server)]),
        "mysql",
        move |_rng| ycsb_to_cmd(workload.next_op()),
    )
    .warmup_until(Time::from_secs(warmup_s));
    cluster.add_actor(client_proc, Box::new(client));
    cluster.register_client(client_id, client_proc);
    cluster.start();
    cluster.run_until(Time::from_secs(warmup_s + run_s));
    let ops = cluster.metrics().counter("mysql/ops") as f64 / run_s as f64;
    let breakdown = (kind == WorkloadKind::F).then(|| {
        let g = |tag: &str| {
            cluster
                .metrics()
                .histogram(&format!("mysql/latency_us/{tag}"))
                .map_or(0.0, |h| h.mean() / 1000.0)
        };
        (g("read"), g("rmw"), g("rmw"))
    });
    (ops, breakdown)
}

/// Figure 4: YCSB A–F over the four systems.
pub fn fig4(scale: Scale, workloads: &[WorkloadKind]) -> Vec<Fig4Row> {
    let mut rows = Vec::new();
    for &kind in workloads {
        let (ops, f) = run_eventual_ycsb(kind, scale);
        rows.push(Fig4Row {
            system: "cassandra-like",
            workload: kind.letter(),
            ops_per_sec: ops,
            f_latency_ms: f,
        });
        let (ops, f) = run_mrp_ycsb(kind, scale, true);
        rows.push(Fig4Row {
            system: "mrp-store (indep. rings)",
            workload: kind.letter(),
            ops_per_sec: ops,
            f_latency_ms: f,
        });
        let (ops, f) = run_mrp_ycsb(kind, scale, false);
        rows.push(Fig4Row {
            system: "mrp-store",
            workload: kind.letter(),
            ops_per_sec: ops,
            f_latency_ms: f,
        });
        let (ops, f) = run_single_ycsb(kind, scale);
        rows.push(Fig4Row {
            system: "mysql-like",
            workload: kind.letter(),
            ops_per_sec: ops,
            f_latency_ms: f,
        });
    }
    rows
}

// ---------------------------------------------------------------- fig 5

/// One point of Figure 5.
#[derive(Clone, Debug)]
pub struct Fig5Row {
    /// System name.
    pub system: &'static str,
    /// Client threads.
    pub clients: u32,
    /// Appends per second.
    pub ops_per_sec: f64,
    /// Mean latency in milliseconds.
    pub latency_ms: f64,
}

/// In-memory log budget of every dLog server in the figures.
const DLOG_WAL_BYTES: usize = 200 * 1024 * 1024;

/// The journal disk of the log comparison: a disk with a write cache
/// (sync writes ~350 µs, 200 MB/s streaming).
fn journal_disk() -> DiskModel {
    DiskModel::custom("journal", 350, 200)
}

/// Figure 5: dLog (2 rings × 3 servers, synchronous writes) vs a
/// Bookkeeper-like quorum log over the same 3 servers/disks; 1 KB
/// appends, 1–200 client threads.
pub fn fig5(scale: Scale) -> Vec<Fig5Row> {
    let sweep: &[u32] = &[1, 10, 50, 100, 200];
    let warmup_s = scale.pick(2, 1);
    let run_s = scale.pick(8, 2);
    let mut rows = Vec::new();
    for &clients in sweep {
        // --- dLog ---
        let tuning = RingTuning {
            storage: StorageMode::SyncDisk,
            lambda: 1_000,
            ..RingTuning::default()
        };
        let deployment =
            DLogDeployment::build(&DLogTopology::new(2, tuning).engine(EngineKind::MultiRing));
        let mut cluster = Cluster::new(
            SimConfig {
                seed: 5,
                ..SimConfig::default()
            },
            Topology::lan(8),
        );
        deployment.spawn_servers(&mut cluster, NO_CHECKPOINTS, DLOG_WAL_BYTES);
        for &s in &deployment.servers {
            cluster.set_cpu(s, server_cpu());
            // One journal disk per ring (paper: one disk per ring).
            for r in 0..=2u16 {
                let d = cluster.add_disk(s, journal_disk());
                cluster.map_ring_to_disk(s, RingId::new(r), d);
            }
        }
        let client_proc = ProcessId::new(900);
        let client_id = ClientId::new(1);
        let mut cfg = DLogClientConfig::new(client_id, clients);
        cfg.warmup_until = Time::from_secs(warmup_s);
        let client = DLogClient::new(cfg, deployment.clone());
        cluster.add_actor(client_proc, Box::new(client));
        cluster.register_client(client_id, client_proc);
        cluster.start();
        cluster.run_until(Time::from_secs(warmup_s + run_s));
        rows.push(Fig5Row {
            system: "dlog",
            clients,
            ops_per_sec: cluster.metrics().counter("dlog/ops") as f64 / run_s as f64,
            latency_ms: cluster
                .metrics()
                .histogram("dlog/latency_us")
                .map_or(0.0, |h| h.mean() / 1000.0),
        });

        // --- Bookkeeper-like ---
        let mut cluster = Cluster::new(
            SimConfig {
                seed: 5,
                ..SimConfig::default()
            },
            Topology::lan(8),
        );
        let ensemble: Vec<ProcessId> = (0..3).map(ProcessId::new).collect();
        for &b in &ensemble {
            cluster.add_actor(
                b,
                Box::new(Bookie::new(JournalPolicy {
                    // Aggressive batching: large chunks, long linger —
                    // the mechanism the paper blames for Bookkeeper's
                    // latency (Section 8.3.3).
                    flush_bytes: 256 * 1024,
                    flush_interval_us: 150_000,
                    disk: 0,
                })),
            );
            cluster.set_cpu(b, server_cpu());
            cluster.add_disk(b, journal_disk());
        }
        let client_proc = ProcessId::new(900);
        let client_id = ClientId::new(1);
        let client = QuorumLogClient::new(client_id, clients, ensemble, 2, 1024, "bookkeeper")
            .warmup_until(Time::from_secs(warmup_s));
        cluster.add_actor(client_proc, Box::new(client));
        cluster.register_client(client_id, client_proc);
        cluster.start();
        cluster.run_until(Time::from_secs(warmup_s + run_s));
        rows.push(Fig5Row {
            system: "bookkeeper-like",
            clients,
            ops_per_sec: cluster.metrics().counter("bookkeeper/ops") as f64 / run_s as f64,
            latency_ms: cluster
                .metrics()
                .histogram("bookkeeper/latency_us")
                .map_or(0.0, |h| h.mean() / 1000.0),
        });
    }
    rows
}

// ---------------------------------------------------------------- fig 6

/// One point of Figure 6.
#[derive(Clone, Debug)]
pub struct Fig6Row {
    /// Number of log rings.
    pub rings: u16,
    /// Aggregate throughput in 1 KB-append operations per second.
    pub ops_per_sec: f64,
    /// Scalability relative to linear extrapolation from 1 ring, in %.
    pub pct_linear: f64,
    /// Latency CDF points in microseconds.
    pub cdf: Vec<(u64, f64)>,
}

/// Figure 6: dLog vertical scalability — 1..5 log rings, one disk per
/// ring, asynchronous writes; clients submit 32 KB batches of 1 KB
/// appends.
pub fn fig6(scale: Scale) -> Vec<Fig6Row> {
    let warmup_s = scale.pick(2, 1);
    let run_s = scale.pick(8, 2);
    let max_rings = scale.pick(5u16, 3);
    let mut rows: Vec<Fig6Row> = Vec::new();
    let mut base: Option<f64> = None;
    for rings in 1..=max_rings {
        let tuning = RingTuning {
            storage: StorageMode::AsyncDisk,
            lambda: 2_000,
            ..RingTuning::default()
        };
        let deployment =
            DLogDeployment::build(&DLogTopology::new(rings, tuning).engine(EngineKind::MultiRing));
        let mut cluster = Cluster::new(
            SimConfig {
                seed: 6,
                ..SimConfig::default()
            },
            Topology::lan(8),
        );
        deployment.spawn_servers(&mut cluster, NO_CHECKPOINTS, DLOG_WAL_BYTES);
        for &s in &deployment.servers {
            // The paper's 32-core servers absorb per-byte work across
            // rings; charge per-event cost only so the disks (one per
            // ring) govern scaling as in the paper.
            cluster.set_cpu(s, CpuModel::new(40, 0));
            for r in 0..=rings {
                let d = cluster.add_disk(s, DiskModel::hdd());
                cluster.map_ring_to_disk(s, RingId::new(r), d);
            }
        }
        let client_proc = ProcessId::new(900);
        let client_id = ClientId::new(1);
        let mut cfg = DLogClientConfig::new(client_id, 16 * u32::from(rings));
        cfg.append_bytes = 32 * 1024; // a 32 KB packet of 1 KB appends
        cfg.warmup_until = Time::from_secs(warmup_s);
        let client = DLogClient::new(cfg, deployment.clone());
        cluster.add_actor(client_proc, Box::new(client));
        cluster.register_client(client_id, client_proc);
        cluster.start();
        cluster.run_until(Time::from_secs(warmup_s + run_s));
        // One 32 KB packet = 32 logical 1 KB appends.
        let ops = cluster.metrics().counter("dlog/ops") as f64 * 32.0 / run_s as f64;
        let pct = match base {
            None => {
                base = Some(ops);
                100.0
            }
            Some(b) => ops / (b * f64::from(rings)) * 100.0,
        };
        let cdf = cluster
            .metrics()
            .histogram("dlog/latency_us")
            .map(mrp_sim::metrics::Histogram::cdf)
            .unwrap_or_default();
        rows.push(Fig6Row {
            rings,
            ops_per_sec: ops,
            pct_linear: pct,
            cdf,
        });
    }
    rows
}

// ---------------------------------------------------------------- fig 7

/// One point of Figure 7.
#[derive(Clone, Debug)]
pub struct Fig7Row {
    /// Number of regions (= partitions/rings).
    pub regions: u16,
    /// Aggregate throughput in operations per second (1 KB updates).
    pub ops_per_sec: f64,
    /// Scalability relative to linear extrapolation, %.
    pub pct_linear: f64,
    /// Latency CDF (us) measured at the us-west-2 client.
    pub cdf: Vec<(u64, f64)>,
}

/// Figure 7: MRP-Store deployed across four EC2 regions — one
/// partition ring per region plus a global ring over all replicas. The
/// deployment is constant (all four regions, as in the paper); the sweep
/// adds client load region by region. Latency stays roughly constant
/// (it is governed by the fixed global-ring circuit) while aggregate
/// throughput adds up per region.
pub fn fig7(scale: Scale) -> Vec<Fig7Row> {
    let warmup_s = scale.pick(5, 3);
    let run_s = scale.pick(15, 4);
    let max_active = scale.pick(4u16, 2);
    let region_order = [
        Region::UsWest2,
        Region::UsWest1,
        Region::UsEast1,
        Region::EuWest1,
    ];
    let mut rows: Vec<Fig7Row> = Vec::new();
    let mut base: Option<f64> = None;
    for active in 1..=max_active {
        let tuning = RingTuning::wide_area();
        let topo = StoreTopology {
            partitions: 4,
            replicas_per_partition: 3,
            global_ring: true,
            tuning,
            global_tuning: tuning,
            engine: EngineKind::MultiRing,
        };
        let deployment = StoreDeployment::build(&topo);
        let mut net = Topology::ec2_four_regions();
        for part in 0..4u16 {
            let site = region_order[part as usize].site();
            for &p in &deployment.replicas[&part] {
                net.assign(p, site);
            }
            net.assign(ProcessId::new(900 + u32::from(part)), site);
        }
        let mut cluster = Cluster::new(
            SimConfig {
                seed: 7,
                ..SimConfig::default()
            },
            net,
        );
        spawn_store_replicas(&mut cluster, &deployment, StoreApp::new);
        // Clients in the first `active` regions, each writing only keys
        // owned by its local partition.
        for part in 0..active {
            let client_proc = ProcessId::new(900 + u32::from(part));
            let client_id = ClientId::new(1 + u64::from(part));
            let map = deployment.partition_map.clone();
            let keys: Vec<Bytes> = (0..200_000u64)
                .map(|i| Bytes::from(format!("key{i:09}")))
                .filter(|k| map.group_of(k).value() == part)
                .take(2_000)
                .collect();
            let mut n = 0usize;
            let gen = move |_r: &mut mrp_sim::rng::Rng| {
                n += 1;
                ClientOp::Single {
                    cmd: StoreCommand::Insert {
                        key: keys[n % keys.len()].clone(),
                        value: Bytes::from(vec![0x42u8; 1024]),
                    },
                    tag: "update",
                }
            };
            let mut cfg = StoreClientConfig::new(client_id, 200);
            cfg.batch = Some(mrp_store::client::ClientBatching {
                max_bytes: 32 * 1024,
                linger_us: 5_000,
            });
            cfg.warmup_until = Time::from_secs(warmup_s);
            cfg.metric_prefix = format!("fig7/r{part}");
            cfg.proposer_override
                .insert(GroupId::new(part), deployment.replicas[&part][0]);
            let client = StoreClient::new(cfg, deployment.clone(), gen);
            cluster.add_actor(client_proc, Box::new(client));
            cluster.register_client(client_id, client_proc);
        }
        cluster.start();
        cluster.run_until(Time::from_secs(warmup_s + run_s));
        let mut total_ops = 0.0;
        for part in 0..active {
            total_ops += cluster.metrics().counter(&format!("fig7/r{part}/ops")) as f64;
        }
        let ops = total_ops / run_s as f64;
        let pct = match base {
            None => {
                base = Some(ops);
                100.0
            }
            Some(b) => ops / (b * f64::from(active)) * 100.0,
        };
        let cdf = cluster
            .metrics()
            .histogram("fig7/r0/latency_us")
            .map(mrp_sim::metrics::Histogram::cdf)
            .unwrap_or_default();
        rows.push(Fig7Row {
            regions: active,
            ops_per_sec: ops,
            pct_linear: pct,
            cdf,
        });
    }
    rows
}

// ---------------------------------------------------------------- fig 8

/// One window of the Figure 8 timeline.
#[derive(Clone, Debug)]
pub struct Fig8Point {
    /// Window start, seconds.
    pub t_s: u64,
    /// Completed operations per second in the window.
    pub ops_per_sec: f64,
    /// Mean latency in the window, milliseconds.
    pub latency_ms: f64,
}

/// The Figure 8 result: the timeline plus event annotations.
#[derive(Clone, Debug)]
pub struct Fig8Result {
    /// The atomic-multicast engine the run used.
    pub engine: &'static str,
    /// Per-window points.
    pub timeline: Vec<Fig8Point>,
    /// `(time s, event)` annotations.
    pub events: Vec<(u64, &'static str)>,
    /// Checkpoints taken by the replicas.
    pub checkpoints: u64,
    /// Acceptor log trims executed (ring engine only; the white-box
    /// engine prunes sequencer history instead, which the simulator does
    /// not count as a storage trim).
    pub trims: u64,
}

/// Figure 8: impact of recovery — a replica is killed at 20 s and
/// restarts at 240 s of a 300 s run; replicas checkpoint synchronously
/// every 30 s, acceptors trim after checkpoints; the system runs at
/// roughly 75 % of its peak load. Parameterized over the ordering
/// engine: the ring engine recovers through checkpoint + acceptor-log
/// retransmission, the white-box engine through checkpoint + sequencer
/// stream resync — both behind the same engine-generic replica surface.
pub fn fig8(scale: Scale, kind: EngineKind) -> Fig8Result {
    let total_s = scale.pick(300u64, 30);
    let kill_s = scale.pick(20u64, 4);
    let restart_s = scale.pick(240u64, 18);
    let ckpt_interval_s = scale.pick(30u64, 5);

    // Ring: three proposer/acceptors (p0..p2) + three replicas (p3..p5).
    let tuning = RingTuning {
        storage: StorageMode::AsyncDisk,
        lambda: 2_000,
        trim_interval_us: ckpt_interval_s * 1_000_000,
        ..RingTuning::default()
    };
    let mut spec = RingSpec::new(RingId::new(0)).tuning(tuning);
    for i in 0..3 {
        spec = spec.member(ProcessId::new(i), Roles::PROPOSER | Roles::ACCEPTOR);
    }
    for i in 3..6 {
        spec = spec.member(ProcessId::new(i), Roles::LEARNER);
    }
    let mut builder = ClusterConfig::builder()
        .ring(spec)
        .group(GroupId::new(0), RingId::new(0));
    for i in 3..6 {
        builder = builder.subscribe(ProcessId::new(i), GroupId::new(0));
    }
    let config = builder.build().expect("fig8 config");

    let mut cluster = Cluster::new(
        SimConfig {
            seed: 8,
            election_timeout_us: 500_000,
            series_window_us: 5_000_000,
            ..SimConfig::default()
        },
        Topology::lan(8),
    );
    cluster.set_protocol(config.clone());
    for i in 0..3 {
        let p = ProcessId::new(i);
        cluster.add_actor(p, Hosted::new(kind.build(p, config.clone())).boxed());
        cluster.set_cpu(p, server_cpu());
        cluster.add_disk(p, DiskModel::hdd());
    }
    let policy = CheckpointPolicy {
        interval_us: ckpt_interval_s * 1_000_000,
        sync: true,
    };
    for i in 3..6 {
        let p = ProcessId::new(i);
        cluster.add_recoverable_replica_actor(kind, p, config.clone(), policy, || StoreApp::new(0));
        cluster.set_cpu(p, server_cpu());
        cluster.add_disk(p, DiskModel::ssd());
    }
    // Open-loop load at ~75% of the CPU-bound peak.
    let client_proc = ProcessId::new(900);
    let client_id = ClientId::new(1);
    let mut k = 0u64;
    let client = OpenLoopClient::new(
        client_id,
        ProcessId::new(0),
        GroupId::new(0),
        360, // ~2800 ops/s, about 70% of the measured peak
        "fig8",
        move |_req| {
            k += 1;
            StoreCommand::Insert {
                key: Bytes::from(format!("key{:06}", k % 5_000)),
                value: Bytes::from(vec![0x7Au8; 128]),
            }
            .encode()
        },
    );
    cluster.add_actor(client_proc, Box::new(client));
    cluster.register_client(client_id, client_proc);
    cluster.start();
    cluster.schedule_crash(Time::from_secs(kill_s), ProcessId::new(4));
    cluster.schedule_restart(Time::from_secs(restart_s), ProcessId::new(4));
    cluster.run_until(Time::from_secs(total_s));

    let mut timeline = Vec::new();
    if let Some(ops) = cluster.metrics().series("fig8/ops") {
        let lat = cluster.metrics().series("fig8/latency_sum_us");
        for (t, n) in ops.points() {
            let window_s = ops.window_us() as f64 / 1e6;
            let latency_ms = lat.map_or(0.0, |l| l.at(t) / n.max(1.0) / 1000.0);
            timeline.push(Fig8Point {
                t_s: t.as_micros() / 1_000_000,
                ops_per_sec: n / window_s,
                latency_ms,
            });
        }
    }
    let mut checkpoints = 0;
    for i in 3..6 {
        let p = ProcessId::new(i);
        if let Some(r) = cluster.actor_as::<Hosted<EngineReplica<StoreApp>>>(p) {
            checkpoints += r.inner().checkpoints_taken();
        }
    }
    Fig8Result {
        engine: kind.name(),
        timeline,
        events: vec![
            (kill_s, "replica terminated"),
            (
                restart_s,
                "replica restarts (checkpoint + resync/retransmission)",
            ),
        ],
        checkpoints,
        trims: cluster.metrics().counter("trim_storage"),
    }
}

// ------------------------------------------------------------- ablations

/// One row of the 2PC-vs-multicast ablation.
#[derive(Clone, Debug)]
pub struct Ablation2pcRow {
    /// Hot keys per partition (smaller = more contention).
    pub hot_keys: u64,
    /// 2PC committed transactions per second.
    pub twopc_commits_per_sec: f64,
    /// 2PC abort ratio in percent.
    pub twopc_abort_pct: f64,
    /// Atomic-multicast ordered transactions per second (never abort).
    pub multicast_txn_per_sec: f64,
}

/// Section 3 ablation: conflicting cross-partition transactions under
/// no-wait 2PC vs ordered execution through the global ring.
pub fn ablation_2pc(scale: Scale) -> Vec<Ablation2pcRow> {
    let warmup_s = scale.pick(1, 1);
    let run_s = scale.pick(6, 2);
    let sweep: &[u64] = &[10_000, 100, 10, 2];
    let mut rows = Vec::new();
    for &hot in sweep {
        // --- 2PC ---
        let mut cluster = Cluster::new(SimConfig::default(), Topology::lan(8));
        let parts: Vec<ProcessId> = (0..2).map(ProcessId::new).collect();
        for &p in &parts {
            cluster.add_actor(p, Box::new(TxnParticipant::new()));
            cluster.set_cpu(p, server_cpu());
        }
        let client_proc = ProcessId::new(900);
        let client_id = ClientId::new(1);
        let client = TwoPcClient::new(client_id, 32, parts, hot, "2pc")
            .warmup_until(Time::from_secs(warmup_s));
        cluster.add_actor(client_proc, Box::new(client));
        cluster.register_client(client_id, client_proc);
        cluster.start();
        cluster.run_until(Time::from_secs(warmup_s + run_s));
        let commits = cluster.metrics().counter("2pc/commit") as f64;
        let aborts = cluster.metrics().counter("2pc/abort") as f64;

        // --- atomic multicast: the same conflicting pairs ordered via
        // the global ring always commit ---
        let tuning = RingTuning {
            lambda: 2_000,
            ..RingTuning::default()
        };
        let deployment =
            StoreDeployment::build(&StoreTopology::local(2, tuning).engine(EngineKind::MultiRing));
        let mut cluster = Cluster::new(SimConfig::default(), Topology::lan(16));
        spawn_store_replicas(&mut cluster, &deployment, StoreApp::new);
        let global = deployment.global_group.expect("global ring");
        let payload = StoreCommand::Batch(vec![
            StoreCommand::Insert {
                key: Bytes::from_static(b"x"),
                value: Bytes::from_static(b"1"),
            },
            StoreCommand::Insert {
                key: Bytes::from_static(b"y"),
                value: Bytes::from_static(b"2"),
            },
        ])
        .encode();
        let client_proc = ProcessId::new(900);
        let client_id = ClientId::new(1);
        let target = deployment.proposer_of[&global];
        let client = PingClient::new(client_id, 32, target, global, payload.len(), "mcast")
            .with_payload(payload.clone())
            .warmup_until(Time::from_secs(warmup_s));
        cluster.add_actor(client_proc, Box::new(client));
        cluster.register_client(client_id, client_proc);
        cluster.start();
        cluster.run_until(Time::from_secs(warmup_s + run_s));
        let mcast = cluster.metrics().counter("mcast/ops") as f64;

        rows.push(Ablation2pcRow {
            hot_keys: hot,
            twopc_commits_per_sec: commits / run_s as f64,
            twopc_abort_pct: if commits + aborts > 0.0 {
                aborts / (commits + aborts) * 100.0
            } else {
                0.0
            },
            multicast_txn_per_sec: mcast / run_s as f64,
        });
    }
    rows
}

/// One row of the rate-leveling ablation.
#[derive(Clone, Debug)]
pub struct AblationMergeRow {
    /// λ of the idle ring (instances/s; 0 disables rate leveling).
    pub lambda: u64,
    /// Δ of the idle ring, milliseconds.
    pub delta_ms: u64,
    /// Mean delivery latency of the busy group, milliseconds.
    pub latency_ms: f64,
    /// Operations per second on the busy group.
    pub ops_per_sec: f64,
}

/// Section 4 ablation: a learner subscribed to a busy and an idle ring
/// only delivers at the pace of the idle ring unless rate leveling
/// (λ, Δ) keeps it flowing.
pub fn ablation_merge(scale: Scale) -> Vec<AblationMergeRow> {
    let warmup_s = scale.pick(1, 1);
    let run_s = scale.pick(6, 2);
    let sweep: &[(u64, u64)] = &[(0, 5), (200, 100), (2_000, 20), (9_000, 5)];
    let mut rows = Vec::new();
    for &(lambda, delta_ms) in sweep {
        let mk_tuning = |l: u64| RingTuning {
            lambda: l,
            delta_us: delta_ms * 1000,
            ..RingTuning::default()
        };
        let mut builder = ClusterConfig::builder();
        for ring in 0..2u16 {
            let mut spec = RingSpec::new(RingId::new(ring)).tuning(mk_tuning(lambda));
            for p in 0..3 {
                spec = spec.member(ProcessId::new(p), Roles::ALL);
            }
            builder = builder
                .ring(spec)
                .group(GroupId::new(ring), RingId::new(ring));
        }
        for p in 0..3 {
            builder = builder
                .subscribe(ProcessId::new(p), GroupId::new(0))
                .subscribe(ProcessId::new(p), GroupId::new(1));
        }
        let config = builder.build().expect("merge ablation config");
        let mut cluster = Cluster::new(SimConfig::default(), Topology::lan(8));
        spawn_echo_replicas(
            &mut cluster,
            EngineKind::MultiRing,
            &config,
            3,
            NO_CHECKPOINTS,
            None,
        );
        // Busy client on group 0; group 1 idles entirely.
        let client_proc = ProcessId::new(900);
        let client_id = ClientId::new(1);
        let client = PingClient::new(
            client_id,
            16,
            ProcessId::new(0),
            GroupId::new(0),
            512,
            "busy",
        )
        .warmup_until(Time::from_secs(warmup_s));
        cluster.add_actor(client_proc, Box::new(client));
        cluster.register_client(client_id, client_proc);
        cluster.start();
        cluster.run_until(Time::from_secs(warmup_s + run_s));
        rows.push(AblationMergeRow {
            lambda,
            delta_ms,
            latency_ms: cluster
                .metrics()
                .histogram("busy/latency_us")
                .map_or(f64::INFINITY, |h| h.mean() / 1000.0),
            ops_per_sec: cluster.metrics().counter("busy/ops") as f64 / run_s as f64,
        });
    }
    rows
}

// ---------------------------------------------------------------- fig 9

/// Aggregated engine telemetry for one benchmark cell: the per-node
/// [`mrp_amcast::TelemetrySnapshot`]s collected by
/// [`Cluster::collect_engine_telemetry`] at the end of the run, folded
/// across nodes (counters summed, latency histograms merged).
#[derive(Clone, Debug, Default)]
pub struct EngineTelemetrySummary {
    /// Nodes that contributed a snapshot.
    pub nodes: usize,
    /// Whether every node's end-of-run health probe came back clean.
    pub healthy: bool,
    /// Protocol counters summed over the nodes.
    pub counters: BTreeMap<String, u64>,
    /// Phase-latency histograms merged over the nodes.
    pub histograms: BTreeMap<String, mrp_amcast::Histogram>,
}

/// One row of the engine comparison (Figure 9, an extension of the
/// paper's evaluation: same workload ordered by different
/// atomic-multicast engines).
#[derive(Clone, Debug)]
pub struct Fig9Row {
    /// Engine name.
    pub engine: &'static str,
    /// Number of multicast groups.
    pub groups: u16,
    /// Completed operations per second.
    pub ops_per_sec: f64,
    /// Mean client latency in milliseconds.
    pub latency_ms: f64,
    /// Median client latency in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile client latency in milliseconds.
    pub p99_ms: f64,
    /// The engines' own phase-level telemetry for this cell.
    pub telemetry: EngineTelemetrySummary,
}

/// A deployment for the engine comparison: `groups` rings over the same
/// `n` processes (membership rotated so coordinators/sequencers spread),
/// every process playing all roles and subscribing to every group.
fn engines_config(groups: u16, n: u32, tuning: RingTuning) -> ClusterConfig {
    let mut builder = ClusterConfig::builder();
    for g in 0..groups {
        let mut spec = RingSpec::new(RingId::new(g)).tuning(tuning);
        for j in 0..n {
            let p = ProcessId::new((u32::from(g) + j) % n);
            spec = spec.member(p, Roles::ALL);
        }
        builder = builder.ring(spec).group(GroupId::new(g), RingId::new(g));
    }
    for p in 0..n {
        for g in 0..groups {
            builder = builder.subscribe(ProcessId::new(p), GroupId::new(g));
        }
    }
    builder.build().expect("engines config is valid")
}

/// Figure 9: Multi-Ring Paxos vs the timestamp-based white-box engine
/// on the identical closed-loop workload, as the number of groups
/// grows. Both engines run behind the same engine-generic replica, so
/// the difference is purely the ordering path.
pub fn fig9(scale: Scale) -> Vec<Fig9Row> {
    let group_counts: &[u16] = scale.pick(&[1, 2, 4], &[1, 2]);
    let warmup_ms = scale.pick(2_000, 1_000);
    let run_ms = scale.pick(10_000, 2_000);
    let mut rows = Vec::new();
    for kind in EngineKind::ALL {
        for &groups in group_counts {
            rows.push(fig9_cell(kind, groups, warmup_ms, run_ms));
        }
    }
    rows
}

/// One `(engine, groups)` cell of Figure 9: 3 processes, 8 sessions per
/// group, measured for `run_ms` after `warmup_ms`.
fn fig9_cell(kind: EngineKind, groups: u16, warmup_ms: u64, run_ms: u64) -> Fig9Row {
    let n = 3u32;
    let tuning = RingTuning {
        lambda: 3_000,
        delta_us: 5_000,
        ..RingTuning::default()
    };
    let config = engines_config(groups, n, tuning);
    let mut cluster = Cluster::new(
        SimConfig {
            seed: 9,
            ..SimConfig::default()
        },
        Topology::lan(16),
    );
    spawn_echo_replicas(
        &mut cluster,
        kind,
        &config,
        n,
        NO_CHECKPOINTS,
        Some(proto_cpu),
    );
    for g in 0..groups {
        let client_proc = ProcessId::new(900 + u32::from(g));
        let client_id = ClientId::new(u64::from(g) + 1);
        // Target the group's ring-rotation head so load (and the
        // sequencer role) spreads over the processes.
        let target = ProcessId::new(u32::from(g) % n);
        let client = PingClient::new(client_id, 8, target, GroupId::new(g), 512, "fig9")
            .warmup_until(Time::from_millis(warmup_ms));
        cluster.add_actor(client_proc, Box::new(client));
        cluster.register_client(client_id, client_proc);
    }
    cluster.start();
    cluster.run_until(Time::from_millis(warmup_ms + run_ms));
    let per_node = cluster.collect_engine_telemetry();
    let mut telemetry = EngineTelemetrySummary {
        nodes: per_node.len(),
        // `collect_engine_telemetry` folds health issues into
        // `engine.health.<code>` counters; none means every node's
        // probe came back clean.
        healthy: !cluster
            .metrics()
            .counter_names()
            .any(|name| name.starts_with("engine.health.")),
        ..EngineTelemetrySummary::default()
    };
    for snapshot in per_node.values() {
        for (name, &v) in &snapshot.counters {
            *telemetry.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, h) in &snapshot.histograms {
            telemetry
                .histograms
                .entry(name.clone())
                .or_default()
                .merge(h);
        }
    }
    let h = cluster.metrics().histogram("fig9/latency_us");
    Fig9Row {
        engine: kind.name(),
        groups,
        ops_per_sec: cluster.metrics().counter("fig9/ops") as f64 * 1000.0 / run_ms as f64,
        latency_ms: h.map_or(0.0, |h| h.mean() / 1000.0),
        p50_ms: h.map_or(0.0, |h| h.quantile(0.5) as f64 / 1000.0),
        p99_ms: h.map_or(0.0, |h| h.quantile(0.99) as f64 / 1000.0),
        telemetry,
    }
}

// ------------------------------------------------------- fig multigroup

/// One row of the multi-group multicast comparison: the same mixed
/// workload with a growing fraction of multi-group messages, ordered by
/// each engine. The white-box engine orders them genuinely among the
/// addressed groups; Multi-Ring Paxos routes them through a covering
/// (global-ring-shaped) group.
#[derive(Clone, Debug)]
pub struct MultigroupRow {
    /// Engine name.
    pub engine: &'static str,
    /// Fraction of multi-group messages, per mille.
    pub multi_per_mille: u32,
    /// Initiator-churn period in milliseconds (`0` = no churn): every
    /// `crash_ms` the process that initiates the multi-group messages
    /// is crashed and restarted half a period later, so the row
    /// measures throughput with multi-group rounds repeatedly orphaned
    /// mid-flight. Set via the `MRP_MULTIGROUP_CRASH_MS` env var.
    pub crash_ms: u64,
    /// Completed operations per second.
    pub ops_per_sec: f64,
    /// Mean client latency in milliseconds, all operations.
    pub latency_ms: f64,
    /// Mean latency of single-group operations, milliseconds.
    pub single_ms: f64,
    /// Mean latency of multi-group operations, milliseconds.
    pub multi_ms: f64,
    /// 99th-percentile client latency in milliseconds.
    pub p99_ms: f64,
}

/// Extension figure: genuine multi-group multicast vs covering-group
/// routing, as the fraction of multi-group messages grows (x-axis).
/// Three groups over three processes, every process subscribing to
/// every group — so the ring engine has a covering group available and
/// both engines run the identical workload behind the identical
/// engine-generic replica.
///
/// Setting `MRP_MULTIGROUP_CRASH_MS=<period>` adds **initiator churn**:
/// every period the process that initiates the multi-group messages is
/// crashed (orphaning its in-flight Skeen rounds) and restarted half a
/// period later, and client sessions retry abandoned operations — so
/// the rows (which the bench then writes to `BENCH_multigroup_churn.json`)
/// record throughput while orphan recovery (wbcast) / coordinator
/// re-election (both engines) runs continuously.
pub fn fig_multigroup(scale: Scale) -> Vec<MultigroupRow> {
    use crate::harness::MixedGroupClient;
    let fractions: &[u32] = scale.pick(&[0, 50, 200, 500, 1000], &[0, 500]);
    let warmup_s = scale.pick(2, 1);
    let run_s = scale.pick(10, 2);
    let crash_ms: u64 = std::env::var("MRP_MULTIGROUP_CRASH_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let n = 3u32;
    let groups = 3u16;
    let mut rows = Vec::new();
    for kind in EngineKind::ALL {
        for &multi_per_mille in fractions {
            let tuning = RingTuning {
                lambda: 3_000,
                delta_us: 5_000,
                ..RingTuning::default()
            };
            let config = engines_config(groups, n, tuning);
            let mut cluster = Cluster::new(
                SimConfig {
                    seed: 11,
                    election_timeout_us: 50_000,
                    ..SimConfig::default()
                },
                Topology::lan(16),
            );
            let policy = CheckpointPolicy {
                // Churn runs checkpoint so a restarted victim rejoins
                // from a snapshot instead of replaying from genesis.
                interval_us: if crash_ms > 0 { 100_000 } else { 0 },
                sync: false,
            };
            spawn_echo_replicas(&mut cluster, kind, &config, n, policy, Some(proto_cpu));
            let targets: Vec<(ProcessId, GroupId)> = (0..groups)
                .map(|g| (ProcessId::new(u32::from(g) % n), GroupId::new(g)))
                .collect();
            // The multi-group initiator (the first target) dies and
            // comes back every churn period.
            if crash_ms > 0 {
                let victim = targets[0].0;
                let period = crash_ms * 1_000;
                let mut t = warmup_s * 1_000_000 + period;
                while t + period / 2 < (warmup_s + run_s) * 1_000_000 {
                    cluster.schedule_crash(Time::from_micros(t), victim);
                    cluster.schedule_restart(Time::from_micros(t + period / 2), victim);
                    t += period;
                }
            }
            let client_proc = ProcessId::new(950);
            let client_id = ClientId::new(1);
            let mut client =
                MixedGroupClient::new(client_id, 24, targets, multi_per_mille, 512, "multigroup")
                    .warmup_until(Time::from_secs(warmup_s));
            if crash_ms > 0 {
                client = client.with_retry(crash_ms * 1_000 / 2);
            }
            cluster.add_actor(client_proc, Box::new(client));
            cluster.register_client(client_id, client_proc);
            cluster.start();
            cluster.run_until(Time::from_secs(warmup_s + run_s));
            let h = cluster.metrics().histogram("multigroup/latency_us");
            let single = cluster.metrics().histogram("multigroup/latency_us/single");
            let multi = cluster.metrics().histogram("multigroup/latency_us/multi");
            rows.push(MultigroupRow {
                engine: kind.name(),
                multi_per_mille,
                crash_ms,
                ops_per_sec: cluster.metrics().counter("multigroup/ops") as f64 / run_s as f64,
                latency_ms: h.map_or(0.0, |h| h.mean() / 1000.0),
                single_ms: single.map_or(0.0, |h| h.mean() / 1000.0),
                multi_ms: multi.map_or(0.0, |h| h.mean() / 1000.0),
                p99_ms: h.map_or(0.0, |h| h.quantile(0.99) as f64 / 1000.0),
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    /// Every counter and histogram the committed `BENCH_fig9.json`
    /// carries in its `engine_telemetry` section is still emitted, under
    /// the same name, by a (much shorter) run of the same cell — the
    /// guard for anything keyed on those names, now that both engines
    /// record into the shared `multiring_paxos::telemetry` store.
    #[test]
    fn fig9_telemetry_keys_of_the_committed_baseline_are_still_emitted() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_fig9.json");
        let text = std::fs::read_to_string(path).expect("committed baseline");
        let doc = json::parse(&text).expect("baseline parses");
        let cells = doc.get("engine_telemetry").and_then(Value::as_array);
        for kind in EngineKind::ALL {
            // Long enough for the wbcast sequencer to evict history.
            let fresh = fig9_cell(kind, 1, 10, 150).telemetry;
            let cell = cells
                .expect("engine_telemetry")
                .iter()
                .find(|c| {
                    c.get("engine").and_then(Value::as_str) == Some(kind.name())
                        && c.get("groups").and_then(Value::as_u64) == Some(1)
                })
                .expect("one-group cell");
            let keys = |section| cell.get(section).and_then(Value::as_object).unwrap().keys();
            for name in keys("counters") {
                assert!(fresh.counters.contains_key(name), "{kind}: counter {name}");
            }
            for name in keys("histograms") {
                assert!(
                    fresh.histograms.contains_key(name),
                    "{kind}: histogram {name}"
                );
            }
        }
    }
}
