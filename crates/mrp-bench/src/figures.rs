//! Parameterized runners for every figure of the paper's evaluation.
//!
//! Each `figN` function builds the deployment the paper describes,
//! drives it on the deterministic simulator, and returns its rows as a
//! [`Figure`]: the bench target prints them and writes them as the
//! figure's `BENCH_*.json` artifact. Absolute numbers depend on the
//! calibrated CPU/disk/network models — the *shape* (who wins, scaling
//! factors, crossovers) is the reproduction target (see the repository
//! `README.md`).

use crate::harness::{mixed_groups, ping, EchoApp, OpenLoopClient, Scale};
use crate::json::Value;
use crate::table::Figure;
use bytes::Bytes;
use mrp_amcast::{EngineKind, EngineReplica};
use mrp_baselines::eventual::{store_ops, EventualServer};
use mrp_baselines::quorumlog::{quorum_appends, Bookie, JournalPolicy};
use mrp_baselines::single::SingleServer;
use mrp_baselines::twopc::{TwoPcClient, TxnParticipant};
use mrp_dlog::{DLogDeployment, DLogTopology};
use mrp_sim::client::{ClosedLoopClient, Operation};
use mrp_sim::cluster::{Cluster, SimConfig};
use mrp_sim::cpu::CpuModel;
use mrp_sim::disk::DiskModel;
use mrp_sim::metrics::TimeSeries;
use mrp_sim::net::{Region, Topology};
use mrp_sim::rng::Rng;
use mrp_store::client::{ClientOp, StoreClient, StoreClientConfig};
use mrp_store::command::StoreCommand;
use mrp_store::PartitionMap;
use mrp_store::{StoreApp, StoreDeployment, StoreTopology};
use mrp_ycsb::{Workload, WorkloadKind, YcsbOp};
use multiring_paxos::config::{ClusterConfig, RingSpec, RingTuning, Roles, StorageMode};
use multiring_paxos::replica::CheckpointPolicy;
use multiring_paxos::types::{ClientId, GroupId, ProcessId, Time};
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

/// The default simulation, seeded.
fn seeded(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        ..SimConfig::default()
    }
}

/// One measured cell of a figure: a cluster that runs for a warm-up and
/// then for the window its clients record in.
struct Cell {
    cluster: Cluster,
    warmup: Time,
    window_us: u64,
}

impl Cell {
    fn new(sim: SimConfig, net: Topology, warmup: Time, window: Time) -> Self {
        Self {
            cluster: Cluster::new(sim, net),
            warmup,
            window_us: window.as_micros(),
        }
    }

    /// Attaches `sessions` closed loops over `source` as client `id` on
    /// process `proc`, recording under `prefix` once warm.
    fn closed_loop(
        &mut self,
        proc: u32,
        id: u64,
        sessions: u32,
        prefix: &str,
        source: impl FnMut(&mut Rng) -> Operation + 'static,
    ) {
        let id = ClientId::new(id);
        let client = ClosedLoopClient::new(id, sessions, prefix, source).warmup_until(self.warmup);
        self.cluster
            .add_client(ProcessId::new(proc), id, Box::new(client));
    }

    /// Starts every actor and runs to the end of the window.
    fn run(&mut self) {
        self.cluster.start();
        self.cluster.run_until(self.warmup.plus(self.window_us));
    }

    /// `counter`'s total (the clients count only once warm).
    fn count(&self, counter: &str) -> u64 {
        self.cluster.metrics().counter(counter)
    }

    /// `count` events in the window as a rate per second.
    fn rate(&self, count: u64) -> f64 {
        count as f64 * 1e6 / self.window_us as f64
    }

    /// `counter`'s rate per second over the window.
    fn per_sec(&self, counter: &str) -> f64 {
        self.rate(self.count(counter))
    }

    /// Mean of `histogram` in milliseconds (0 without samples).
    fn mean_ms(&self, histogram: &str) -> f64 {
        let h = self.cluster.metrics().histogram(histogram);
        h.map_or(0.0, |h| h.mean() / 1000.0)
    }

    /// The `q` quantile of `histogram` in milliseconds.
    fn quantile_ms(&self, histogram: &str, q: f64) -> f64 {
        let h = self.cluster.metrics().histogram(histogram);
        h.map_or(0.0, |h| h.quantile(q) as f64 / 1000.0)
    }

    /// Three points of `histogram`'s CDF, as the cells that close a row.
    fn cdf_cells(&self, histogram: &str) -> [(&'static str, Value); 3] {
        [("p50_ms", 0.5), ("p90_ms", 0.9), ("p99_ms", 0.99)]
            .map(|(name, q)| (name, Value::rounded(self.quantile_ms(histogram, q), 3)))
    }
}

/// Aggregate throughput against `rings` times the one-ring `base`, in
/// percent (the first point is the base).
fn pct_linear(base: &mut Option<f64>, n: u16, ops: f64) -> f64 {
    ops / (*base.get_or_insert(ops) * f64::from(n)) * 100.0
}

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

/// A Figure 3 storage mode: name, acceptor mode, disk model factory.
type StorageModeRow = (&'static str, StorageMode, Option<fn() -> DiskModel>);

/// Figure 3: one ring, three processes (proposer+acceptor+learner), ten
/// closed-loop proposer threads, five storage modes × request sizes. A
/// row is one (mode, size): delivered throughput, mean client latency,
/// coordinator CPU utilization and three points of the latency CDF.
pub fn fig3(scale: Scale) -> Figure {
    let sizes: &[usize] = &[512, 2048, 8192, 32 * 1024];
    let modes: &[StorageModeRow] = &[
        ("in-memory", StorageMode::InMemory, None),
        ("async-disk", StorageMode::AsyncDisk, Some(DiskModel::hdd)),
        ("async-ssd", StorageMode::AsyncDisk, Some(DiskModel::ssd)),
        ("sync-disk", StorageMode::SyncDisk, Some(DiskModel::hdd)),
        ("sync-ssd", StorageMode::SyncDisk, Some(DiskModel::ssd)),
    ];
    let warmup = Time::from_secs(scale.pick(2, 1));
    let window = Time::from_secs(scale.pick(12, 2));
    let mut fig = Figure::new();
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
            let mut cell = Cell::new(seeded(3), Topology::lan(8), warmup, window);
            spawn_echo_replicas(
                &mut cell.cluster,
                EngineKind::MultiRing,
                &config,
                3,
                NO_CHECKPOINTS,
                Some(proto_cpu),
            );
            if let Some(mk) = disk {
                for i in 0..3 {
                    cell.cluster.add_disk(ProcessId::new(i), mk());
                }
            }
            let payload = Bytes::from(vec![0x5Au8; size]);
            let source = ping(ProcessId::new(0), GroupId::new(0), payload);
            cell.closed_loop(50, 1, 10, "fig3", source);
            cell.run();
            let elapsed = cell.cluster.now().as_micros();
            let cpu_pct = cell
                .cluster
                .cpu(ProcessId::new(0))
                .map_or(0.0, |c| c.utilization(elapsed) * 100.0);
            let cells = [
                ("mode", mode.into()),
                ("size", (size as u64).into()),
                (
                    "throughput_mbps",
                    Value::rounded(cell.per_sec("fig3/bytes") * 8.0 / 1e6, 2),
                ),
                (
                    "latency_ms",
                    Value::rounded(cell.mean_ms("fig3/latency_us"), 3),
                ),
                ("cpu_pct", Value::rounded(cpu_pct, 1)),
            ];
            fig.push(cells.into_iter().chain(cell.cdf_cells("fig3/latency_us")));
        }
    }
    fig
}

// ---------------------------------------------------------------- fig 4

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

/// The YCSB records `partition` of `map` owns, as `(key, value)` loads.
fn ycsb_records(map: &PartitionMap, partition: u16) -> impl Iterator<Item = (Bytes, Bytes)> + '_ {
    (0..YCSB_RECORDS)
        .map(mrp_ycsb::workload::key_for)
        .filter(move |key| map.group_of(key.as_bytes()).value() == partition)
        .map(|key| (Bytes::from(key), Bytes::from(vec![1u8; YCSB_VALUE])))
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

/// A Figure 4 cell with MRP-Store's servers in place and its client
/// attached; the client records under `store`.
fn mrp_ycsb(cell: &mut Cell, kind: WorkloadKind, independent: bool) {
    // The paper's local configuration: M=1, Delta=5ms, lambda=9000 —
    // lambda must sit above the per-ring delivery rate or the merge
    // throttles every partition to the global ring's skip rate.
    let tuning = RingTuning {
        lambda: 9_000,
        ..RingTuning::default()
    };
    // Pinned to the paper's engine: these rows are labeled as
    // Multi-Ring Paxos results.
    let topo = if independent {
        StoreTopology::independent(3, tuning)
    } else {
        StoreTopology::local(3, tuning)
    }
    .engine(EngineKind::MultiRing);
    let deployment = StoreDeployment::build(&topo);
    let map = deployment.partition_map.clone();
    spawn_store_replicas(&mut cell.cluster, &deployment, move |partition| {
        let mut app = StoreApp::new(partition);
        for (key, value) in ycsb_records(&map, partition) {
            app.load(key, value);
        }
        app
    });
    let client_id = ClientId::new(1);
    let mut workload = Workload::new(kind, YCSB_RECORDS, YCSB_VALUE, 7);
    let gen = move |_r: &mut Rng| ycsb_to_store_op(workload.next_op());
    let mut cfg = StoreClientConfig::new(client_id, 100);
    cfg.warmup_until = cell.warmup;
    let client = StoreClient::new(cfg, deployment.clone(), gen);
    cell.cluster
        .add_client(ProcessId::new(900), client_id, Box::new(client));
}

/// A Figure 4 cell with the Cassandra-like store's three owners in
/// place and its client attached; the client records under `cassandra`.
fn eventual_ycsb(cell: &mut Cell, kind: WorkloadKind) {
    let servers: Vec<ProcessId> = (0..3).map(ProcessId::new).collect();
    let map = PartitionMap::hash(3, 0);
    for (i, &s) in servers.iter().enumerate() {
        let replicas: Vec<ProcessId> = servers.iter().copied().filter(|&q| q != s).collect();
        let mut server = EventualServer::new(i as u16, replicas);
        for (key, value) in ycsb_records(&map, i as u16) {
            server.load(key, value);
        }
        cell.cluster.add_actor(s, Box::new(server));
        cell.cluster.set_cpu(s, server_cpu());
    }
    let owners: BTreeMap<u16, ProcessId> = (0..3u16).map(|i| (i, servers[i as usize])).collect();
    let mut workload = Workload::new(kind, YCSB_RECORDS, YCSB_VALUE, 7);
    let source = store_ops(map, owners, move |_| ycsb_to_cmd(workload.next_op()));
    cell.closed_loop(900, 1, 100, "cassandra", source);
}

/// A Figure 4 cell with the MySQL-like single server in place and its
/// client attached; the client records under `mysql`.
fn single_ycsb(cell: &mut Cell, kind: WorkloadKind) {
    let server = ProcessId::new(0);
    let map = PartitionMap::hash(1, 0);
    let mut s = SingleServer::new();
    for (key, value) in ycsb_records(&map, 0) {
        s.load(key, value);
    }
    cell.cluster.add_actor(server, Box::new(s));
    cell.cluster.set_cpu(server, server_cpu());
    let mut workload = Workload::new(kind, YCSB_RECORDS, YCSB_VALUE, 7);
    let owners = BTreeMap::from([(0u16, server)]);
    let source = store_ops(map, owners, move |_| ycsb_to_cmd(workload.next_op()));
    cell.closed_loop(900, 1, 100, "mysql", source);
}

/// The metric tags behind workload F's read / update / read-modify-write
/// columns. F issues reads and read-modify-writes only: MRP-Store's
/// client chains the latter as a read and an update and records all
/// three; a baseline executes it in one round trip, which stands for
/// its update too.
const STORE_F: [&str; 3] = ["read", "update", "rmw"];
const BASELINE_F: [&str; 3] = ["read", "rmw", "rmw"];

/// Figure 4: YCSB A–F over the four systems, 100 client threads. A row
/// is one (system, workload): completed operations per second and, for
/// workload F, the mean latency of its three operation classes.
pub fn fig4(scale: Scale, workloads: &[WorkloadKind]) -> Figure {
    let warmup = Time::from_secs(scale.pick(2, 1));
    let window = Time::from_secs(scale.pick(8, 2));
    let mut fig = Figure::new();
    for &kind in workloads {
        // One system: its name, LAN sites, metric prefix, F tags, and
        // what puts its servers and client into the cell.
        type Deploy<'a> = &'a dyn Fn(&mut Cell, WorkloadKind);
        let mut row = |system: &str, sites, prefix: &str, f_tags: [&str; 3], deploy: Deploy| {
            let mut cell = Cell::new(seeded(4), Topology::lan(sites), warmup, window);
            deploy(&mut cell, kind);
            cell.run();
            let [read, update, rmw] = f_tags.map(|tag| {
                if kind == WorkloadKind::F {
                    Value::rounded(cell.mean_ms(&format!("{prefix}/latency_us/{tag}")), 3)
                } else {
                    Value::Null
                }
            });
            fig.push([
                ("system", system.into()),
                ("workload", Value::String(kind.letter().to_string())),
                (
                    "ops_per_sec",
                    Value::rounded(cell.per_sec(&format!("{prefix}/ops")), 1),
                ),
                ("read_ms", read),
                ("update_ms", update),
                ("rmw_ms", rmw),
            ]);
        };
        row("cassandra-like", 8, "cassandra", BASELINE_F, &eventual_ycsb);
        row("mrp-store (indep. rings)", 16, "store", STORE_F, &|c, k| {
            mrp_ycsb(c, k, true);
        });
        row("mrp-store", 16, "store", STORE_F, &|c, k| {
            mrp_ycsb(c, k, false);
        });
        row("mysql-like", 4, "mysql", BASELINE_F, &single_ycsb);
    }
    fig
}

// ---------------------------------------------------------------- fig 5

/// In-memory log budget of every dLog server in the figures.
const DLOG_WAL_BYTES: usize = 200 * 1024 * 1024;

/// The journal disk of the log comparison: a disk with a write cache
/// (sync writes ~350 µs, 200 MB/s streaming).
fn journal_disk() -> DiskModel {
    DiskModel::custom("journal", 350, 200)
}

/// Spawns a dLog of `logs` rings (plus the common ring) into `cluster`,
/// every server on `cpu` with one `disk` per ring (paper: one disk per
/// ring).
fn spawn_dlog(
    cluster: &mut Cluster,
    logs: u16,
    tuning: RingTuning,
    cpu: fn() -> CpuModel,
    disk: fn() -> DiskModel,
) -> DLogDeployment {
    let deployment =
        DLogDeployment::build(&DLogTopology::new(logs, tuning).engine(EngineKind::MultiRing));
    deployment.spawn_servers(cluster, NO_CHECKPOINTS, DLOG_WAL_BYTES);
    for &s in &deployment.servers {
        cluster.set_cpu(s, cpu());
        for r in 0..=logs {
            let d = cluster.add_disk(s, disk());
            cluster.map_ring_to_disk(s, GroupId::new(r), d);
        }
    }
    deployment
}

/// Figure 5: dLog (2 rings × 3 servers, synchronous writes) vs a
/// Bookkeeper-like quorum log over the same 3 servers/disks; 1 KB
/// appends, 1–200 client threads. A row is one (clients, system):
/// appends per second and mean latency.
pub fn fig5(scale: Scale) -> Figure {
    let sweep: &[u32] = &[1, 10, 50, 100, 200];
    let warmup = Time::from_secs(scale.pick(2, 1));
    let window = Time::from_secs(scale.pick(8, 2));
    let mut fig = Figure::new();
    for &clients in sweep {
        let mut row = |system: &str, ops: &str, latency: &str, mut cell: Cell| {
            cell.run();
            fig.push([
                ("clients", u64::from(clients).into()),
                ("system", system.into()),
                ("ops_per_sec", Value::rounded(cell.per_sec(ops), 1)),
                ("latency_ms", Value::rounded(cell.mean_ms(latency), 3)),
            ]);
        };

        let mut cell = Cell::new(seeded(5), Topology::lan(8), warmup, window);
        let tuning = RingTuning {
            storage: StorageMode::SyncDisk,
            lambda: 1_000,
            ..RingTuning::default()
        };
        let deployment = spawn_dlog(&mut cell.cluster, 2, tuning, server_cpu, journal_disk);
        cell.closed_loop(
            900,
            1,
            clients,
            "dlog",
            mrp_dlog::appends(deployment, 1024, 0),
        );
        row("dlog", "dlog/ops", "dlog/latency_us", cell);

        let mut cell = Cell::new(seeded(5), Topology::lan(8), warmup, window);
        let ensemble: Vec<ProcessId> = (0..3).map(ProcessId::new).collect();
        for &b in &ensemble {
            cell.cluster.add_actor(
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
            cell.cluster.set_cpu(b, server_cpu());
            cell.cluster.add_disk(b, journal_disk());
        }
        let source = quorum_appends(ensemble, 2, 1024);
        cell.closed_loop(900, 1, clients, "bookkeeper", source);
        row(
            "bookkeeper-like",
            "bookkeeper/ops",
            "bookkeeper/latency_us",
            cell,
        );
    }
    fig
}

// ---------------------------------------------------------------- fig 6

/// Figure 6: dLog vertical scalability — 1..5 log rings, one disk per
/// ring, asynchronous writes; clients submit 32 KB batches of 1 KB
/// appends. A row is one ring count: aggregate 1 KB appends per second,
/// that as a percentage of linear extrapolation from one ring, and
/// three points of the latency CDF.
pub fn fig6(scale: Scale) -> Figure {
    let warmup = Time::from_secs(scale.pick(2, 1));
    let window = Time::from_secs(scale.pick(8, 2));
    let max_rings = scale.pick(5u16, 3);
    let mut fig = Figure::new();
    let mut base = None;
    for rings in 1..=max_rings {
        let tuning = RingTuning {
            storage: StorageMode::AsyncDisk,
            lambda: 2_000,
            ..RingTuning::default()
        };
        let mut cell = Cell::new(seeded(6), Topology::lan(8), warmup, window);
        // The paper's 32-core servers absorb per-byte work across
        // rings; charge per-event cost only so the disks (one per
        // ring) govern scaling as in the paper.
        let cpu = || CpuModel::new(40, 0);
        let deployment = spawn_dlog(&mut cell.cluster, rings, tuning, cpu, DiskModel::hdd);
        // A 32 KB packet of 1 KB appends.
        let source = mrp_dlog::appends(deployment, 32 * 1024, 0);
        cell.closed_loop(900, 1, 16 * u32::from(rings), "dlog", source);
        cell.run();
        // One 32 KB packet = 32 logical 1 KB appends.
        let ops = cell.per_sec("dlog/ops") * 32.0;
        let cells = [
            ("rings", u64::from(rings).into()),
            ("ops_per_sec", Value::rounded(ops, 1)),
            (
                "pct_linear",
                Value::rounded(pct_linear(&mut base, rings, ops), 1),
            ),
        ];
        fig.push(cells.into_iter().chain(cell.cdf_cells("dlog/latency_us")));
    }
    fig
}

// ---------------------------------------------------------------- fig 7

/// Figure 7: MRP-Store deployed across four EC2 regions — one
/// partition ring per region plus a global ring over all replicas. The
/// deployment is constant (all four regions, as in the paper); the sweep
/// adds client load region by region. Latency stays roughly constant
/// (it is governed by the fixed global-ring circuit) while aggregate
/// throughput adds up per region. A row is one count of loaded regions:
/// aggregate 1 KB updates per second, that as a percentage of linear
/// extrapolation, and three points of the latency CDF at the us-west-2
/// client.
pub fn fig7(scale: Scale) -> Figure {
    let warmup = Time::from_secs(scale.pick(5, 3));
    let window = Time::from_secs(scale.pick(15, 4));
    let max_active = scale.pick(4u16, 2);
    let region_order = [
        Region::UsWest2,
        Region::UsWest1,
        Region::UsEast1,
        Region::EuWest1,
    ];
    let mut fig = Figure::new();
    let mut base = None;
    for active in 1..=max_active {
        let topo = StoreTopology::local(4, RingTuning::wide_area()).engine(EngineKind::MultiRing);
        let deployment = StoreDeployment::build(&topo);
        let mut net = Topology::ec2_four_regions();
        for part in 0..4u16 {
            let site = region_order[part as usize].site();
            for &p in &deployment.replicas[&part] {
                net.assign(p, site);
            }
            net.assign(ProcessId::new(900 + u32::from(part)), site);
        }
        let mut cell = Cell::new(seeded(7), net, warmup, window);
        spawn_store_replicas(&mut cell.cluster, &deployment, StoreApp::new);
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
            let gen = move |_r: &mut Rng| {
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
            cfg.warmup_until = warmup;
            cfg.metric_prefix = format!("fig7/r{part}");
            let client = StoreClient::new(cfg, deployment.clone(), gen);
            cell.cluster
                .add_client(client_proc, client_id, Box::new(client));
        }
        cell.run();
        let ops = cell.rate(
            (0..active)
                .map(|part| cell.count(&format!("fig7/r{part}/ops")))
                .sum(),
        );
        let cells = [
            ("regions", u64::from(active).into()),
            ("ops_per_sec", Value::rounded(ops, 1)),
            (
                "pct_linear",
                Value::rounded(pct_linear(&mut base, active, ops), 1),
            ),
        ];
        fig.push(
            cells
                .into_iter()
                .chain(cell.cdf_cells("fig7/r0/latency_us")),
        );
    }
    fig
}

// ---------------------------------------------------------------- fig 8

/// One engine's Figure 8 run; an object of `BENCH_fig8.json`.
#[derive(Clone, Debug)]
pub struct Fig8Run {
    /// The atomic-multicast engine the run used.
    pub engine: &'static str,
    /// Checkpoints taken by the replicas.
    pub checkpoints: u64,
    /// Acceptor log trims executed (ring engine only; the white-box
    /// engine prunes sequencer history instead, which the simulator does
    /// not count as a storage trim).
    pub trims: u64,
    /// The replica kill and restart instants.
    pub events: Figure,
    /// One row per throughput window: window start, completed
    /// operations per second and mean latency in it.
    pub timeline: Figure,
}

impl Fig8Run {
    /// The run as its artifact object.
    pub fn json(&self) -> Value {
        Value::object([
            ("engine", self.engine.into()),
            ("checkpoints", self.checkpoints.into()),
            ("trims", self.trims.into()),
            ("events", self.events.json()),
            ("timeline", self.timeline.json()),
        ])
    }
}

/// Figure 8: impact of recovery — a replica is killed at 20 s and
/// restarts at 240 s of a 300 s run; replicas checkpoint synchronously
/// every 30 s, acceptors trim after checkpoints; the system runs at
/// roughly 75 % of its peak load. Parameterized over the ordering
/// engine: the ring engine recovers through checkpoint + acceptor-log
/// retransmission, the white-box engine through checkpoint + sequencer
/// stream resync — both behind the same engine-generic replica surface.
pub fn fig8(scale: Scale, kind: EngineKind) -> Fig8Run {
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
    let mut spec = RingSpec::new(GroupId::new(0)).tuning(tuning);
    for i in 0..3 {
        spec = spec.member(ProcessId::new(i), Roles::PROPOSER | Roles::ACCEPTOR);
    }
    for i in 3..6 {
        spec = spec.member(ProcessId::new(i), Roles::LEARNER);
    }
    let mut builder = ClusterConfig::builder().ring(spec);
    for i in 3..6 {
        builder = builder.subscribe(ProcessId::new(i), GroupId::new(0));
    }
    let config = builder.build().expect("fig8 config");

    let sim = SimConfig {
        election_timeout_us: 500_000,
        ..seeded(8)
    };
    // The open-loop client has no warm-up: the timeline starts at 0.
    let mut cell = Cell::new(sim, Topology::lan(8), Time::ZERO, Time::from_secs(total_s));
    let cluster = &mut cell.cluster;
    cluster.set_protocol(config.clone());
    for i in 0..3 {
        let p = ProcessId::new(i);
        cluster.add_actor(p, Box::new(kind.build(p, config.clone())));
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
    cluster.add_client(ProcessId::new(900), client_id, Box::new(client));
    cluster.schedule_crash(Time::from_secs(kill_s), ProcessId::new(4));
    cluster.schedule_restart(Time::from_secs(restart_s), ProcessId::new(4));
    cell.run();
    let cluster = &mut cell.cluster;

    // The registry's one-second windows, summed into five-second ones.
    let windowed = |name| {
        let mut series = TimeSeries::new(5_000_000);
        let points = cluster.metrics().series(name).map(TimeSeries::points);
        for (t, v) in points.unwrap_or_default() {
            series.add(t, v);
        }
        series
    };
    let (ops, lat) = (windowed("fig8/ops"), windowed("fig8/latency_sum_us"));
    let mut timeline = Figure::new();
    for (t, n) in ops.points() {
        let window_s = ops.window_us() as f64 / 1e6;
        let latency_ms = lat.at(t) / n.max(1.0) / 1000.0;
        timeline.push([
            ("t_s", (t.as_micros() / 1_000_000).into()),
            ("ops_per_sec", Value::rounded(n / window_s, 1)),
            ("latency_ms", Value::rounded(latency_ms, 3)),
        ]);
    }
    let mut events = Figure::new();
    for (t_s, what) in [
        (kill_s, "replica terminated"),
        (
            restart_s,
            "replica restarts (checkpoint + resync/retransmission)",
        ),
    ] {
        events.push([("t_s", t_s.into()), ("what", what.into())]);
    }
    let mut checkpoints = 0;
    for i in 3..6 {
        let p = ProcessId::new(i);
        if let Some(r) = cluster.actor_as::<EngineReplica<StoreApp>>(p) {
            checkpoints += r.checkpoints_taken();
        }
    }
    Fig8Run {
        engine: kind.name(),
        checkpoints,
        trims: cluster.metrics().counter("trim_storage"),
        events,
        timeline,
    }
}

// ------------------------------------------------------------- ablations

/// Section 3 ablation: conflicting cross-partition transactions under
/// no-wait 2PC vs ordered execution through the global ring. A row is
/// one count of hot keys per partition (smaller = more contention):
/// 2PC's committed transactions per second and abort share, against
/// the transactions per second atomic multicast orders (none aborts).
pub fn ablation_2pc(scale: Scale) -> Figure {
    let warmup = Time::from_secs(scale.pick(1, 1));
    let window = Time::from_secs(scale.pick(6, 2));
    let sweep: &[u64] = &[10_000, 100, 10, 2];
    let mut fig = Figure::new();
    for &hot in sweep {
        let mut twopc = Cell::new(SimConfig::default(), Topology::lan(8), warmup, window);
        let parts: Vec<ProcessId> = (0..2).map(ProcessId::new).collect();
        for &p in &parts {
            twopc.cluster.add_actor(p, Box::new(TxnParticipant::new()));
            twopc.cluster.set_cpu(p, server_cpu());
        }
        let client_id = ClientId::new(1);
        let client = TwoPcClient::new(client_id, 32, parts, hot, "2pc").warmup_until(warmup);
        twopc
            .cluster
            .add_client(ProcessId::new(900), client_id, Box::new(client));
        twopc.run();
        let commits = twopc.count("2pc/commit");
        let aborts = twopc.count("2pc/abort");

        // Atomic multicast: the same conflicting pairs ordered via the
        // global ring always commit.
        let tuning = RingTuning {
            lambda: 2_000,
            ..RingTuning::default()
        };
        let deployment =
            StoreDeployment::build(&StoreTopology::local(2, tuning).engine(EngineKind::MultiRing));
        let mut mcast = Cell::new(SimConfig::default(), Topology::lan(16), warmup, window);
        spawn_store_replicas(&mut mcast.cluster, &deployment, StoreApp::new);
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
        let source = ping(deployment.proposer_of[&global], global, payload);
        mcast.closed_loop(900, 1, 32, "mcast", source);
        mcast.run();

        let abort_pct = if commits + aborts > 0 {
            aborts as f64 / (commits + aborts) as f64 * 100.0
        } else {
            0.0
        };
        fig.push([
            ("hot_keys", hot.into()),
            (
                "twopc_commits_per_sec",
                Value::rounded(twopc.rate(commits), 1),
            ),
            ("twopc_abort_pct", Value::rounded(abort_pct, 2)),
            (
                "multicast_txn_per_sec",
                Value::rounded(mcast.per_sec("mcast/ops"), 1),
            ),
        ]);
    }
    fig
}

/// Section 4 ablation: a learner subscribed to a busy and an idle ring
/// only delivers at the pace of the idle ring unless rate leveling
/// (λ, Δ) keeps it flowing. A row is one (λ, Δ) of the idle ring
/// (instances/s, 0 disables rate leveling; milliseconds): the busy
/// group's mean delivery latency — `null` when nothing was delivered —
/// and its operations per second.
pub fn ablation_merge(scale: Scale) -> Figure {
    let warmup = Time::from_secs(scale.pick(1, 1));
    let window = Time::from_secs(scale.pick(6, 2));
    let sweep: &[(u64, u64)] = &[(0, 5), (200, 100), (2_000, 20), (9_000, 5)];
    let mut fig = Figure::new();
    for &(lambda, delta_ms) in sweep {
        let tuning = RingTuning {
            lambda,
            delta_us: delta_ms * 1000,
            ..RingTuning::default()
        };
        let mut builder = ClusterConfig::builder();
        for ring in 0..2u16 {
            let mut spec = RingSpec::new(GroupId::new(ring)).tuning(tuning);
            for p in 0..3 {
                spec = spec.member(ProcessId::new(p), Roles::ALL);
            }
            builder = builder.ring(spec);
        }
        for p in 0..3 {
            builder = builder
                .subscribe(ProcessId::new(p), GroupId::new(0))
                .subscribe(ProcessId::new(p), GroupId::new(1));
        }
        let config = builder.build().expect("merge ablation config");
        let mut cell = Cell::new(SimConfig::default(), Topology::lan(8), warmup, window);
        spawn_echo_replicas(
            &mut cell.cluster,
            EngineKind::MultiRing,
            &config,
            3,
            NO_CHECKPOINTS,
            None,
        );
        // Busy client on group 0; group 1 idles entirely.
        let payload = Bytes::from(vec![0x5Au8; 512]);
        let source = ping(ProcessId::new(0), GroupId::new(0), payload);
        cell.closed_loop(900, 1, 16, "busy", source);
        cell.run();
        let ops = cell.per_sec("busy/ops");
        let latency_ms = if ops > 0.0 {
            cell.mean_ms("busy/latency_us")
        } else {
            f64::INFINITY // stalled
        };
        fig.push([
            ("lambda", lambda.into()),
            ("delta_ms", delta_ms.into()),
            ("latency_ms", Value::rounded(latency_ms, 3)),
            ("ops_per_sec", Value::rounded(ops, 1)),
        ]);
    }
    fig
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

/// The engine comparison (Figure 9, an extension of the paper's
/// evaluation: same workload ordered by different atomic-multicast
/// engines): the two arrays of `BENCH_fig9.json`, one entry each per
/// (engine, groups) cell.
#[derive(Clone, Debug, Default)]
pub struct Fig9 {
    /// Client side: completed operations per second, mean, median and
    /// 99th-percentile latency.
    pub rows: Figure,
    /// The engines' own phase-level telemetry: contributing `nodes`,
    /// the `healthy` verdict, `counters` summed and latency
    /// `histograms` merged over the nodes, each summarized as
    /// `{count, p50_us, p99_us, max_us}`.
    pub engine_telemetry: Figure,
}

impl Fig9 {
    /// The artifact: an object of the two arrays.
    pub fn json(&self) -> Value {
        Value::object([
            ("rows", self.rows.json()),
            ("engine_telemetry", self.engine_telemetry.json()),
        ])
    }
}

/// A deployment for the engine comparison: `groups` rings over the same
/// `n` processes (membership rotated so coordinators/sequencers spread),
/// every process playing all roles and subscribing to every group.
fn engines_config(groups: u16, n: u32, tuning: RingTuning) -> ClusterConfig {
    let mut builder = ClusterConfig::builder();
    for g in 0..groups {
        let mut spec = RingSpec::new(GroupId::new(g)).tuning(tuning);
        for j in 0..n {
            let p = ProcessId::new((u32::from(g) + j) % n);
            spec = spec.member(p, Roles::ALL);
        }
        builder = builder.ring(spec);
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
pub fn fig9(scale: Scale) -> Fig9 {
    let group_counts: &[u16] = scale.pick(&[1, 2, 4], &[1, 2]);
    let warmup_ms = scale.pick(2_000, 1_000);
    let run_ms = scale.pick(10_000, 2_000);
    let mut fig = Fig9::default();
    for kind in EngineKind::ALL {
        for &groups in group_counts {
            let cell = fig9_cell(kind, groups, warmup_ms, run_ms);
            let key = [
                ("engine", kind.name().into()),
                ("groups", u64::from(groups).into()),
            ];
            fig.rows.push(key.clone().into_iter().chain(cell.client));
            let t = cell.telemetry;
            fig.engine_telemetry.push(key.into_iter().chain([
                ("nodes", (t.nodes as u64).into()),
                ("healthy", Value::Bool(t.healthy)),
                (
                    "counters",
                    Value::object(t.counters.iter().map(|(k, &v)| (k.as_str(), v.into()))),
                ),
                (
                    "histograms",
                    Value::object(t.histograms.iter().map(|(k, h)| {
                        let summary = Value::object([
                            ("count", h.count().into()),
                            ("p50_us", h.quantile(0.5).into()),
                            ("p99_us", h.quantile(0.99).into()),
                            ("max_us", h.max().into()),
                        ]);
                        (k.as_str(), summary)
                    })),
                ),
            ]));
        }
    }
    fig
}

/// What one `(engine, groups)` cell of Figure 9 measured.
struct Fig9Cell {
    /// The client-side cells of its row.
    client: [(&'static str, Value); 4],
    telemetry: EngineTelemetrySummary,
}

/// One `(engine, groups)` cell of Figure 9: 3 processes, 8 sessions per
/// group, measured for `run_ms` after `warmup_ms`.
fn fig9_cell(kind: EngineKind, groups: u16, warmup_ms: u64, run_ms: u64) -> Fig9Cell {
    let n = 3u32;
    let tuning = RingTuning {
        lambda: 3_000,
        delta_us: 5_000,
        ..RingTuning::default()
    };
    let config = engines_config(groups, n, tuning);
    let mut cell = Cell::new(
        seeded(9),
        Topology::lan(16),
        Time::from_millis(warmup_ms),
        Time::from_millis(run_ms),
    );
    spawn_echo_replicas(
        &mut cell.cluster,
        kind,
        &config,
        n,
        NO_CHECKPOINTS,
        Some(proto_cpu),
    );
    for g in 0..groups {
        // Target the group's ring-rotation head so load (and the
        // sequencer role) spreads over the processes.
        let target = ProcessId::new(u32::from(g) % n);
        let payload = Bytes::from(vec![0x5Au8; 512]);
        let source = ping(target, GroupId::new(g), payload);
        cell.closed_loop(900 + u32::from(g), u64::from(g) + 1, 8, "fig9", source);
    }
    cell.run();
    let per_node = cell.cluster.collect_engine_telemetry();
    let mut telemetry = EngineTelemetrySummary {
        nodes: per_node.len(),
        // `collect_engine_telemetry` folds health issues into
        // `engine.health.<code>` counters; none means every node's
        // probe came back clean.
        healthy: !cell
            .cluster
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
    let latency = "fig9/latency_us";
    Fig9Cell {
        client: [
            ("ops_per_sec", Value::rounded(cell.per_sec("fig9/ops"), 1)),
            ("latency_ms", Value::rounded(cell.mean_ms(latency), 3)),
            ("p50_ms", Value::rounded(cell.quantile_ms(latency, 0.5), 3)),
            ("p99_ms", Value::rounded(cell.quantile_ms(latency, 0.99), 3)),
        ],
        telemetry,
    }
}

// ------------------------------------------------------- fig multigroup

/// Extension figure: genuine multi-group multicast vs covering-group
/// routing, as the fraction of multi-group messages grows (x-axis).
/// Three groups over three processes, every process subscribing to
/// every group — so the ring engine has a covering group available and
/// both engines run the identical workload behind the identical
/// engine-generic replica: the white-box engine orders multi-group
/// messages genuinely among the addressed groups, Multi-Ring Paxos
/// routes them through a covering (global-ring-shaped) group. A row is
/// one (engine, multi-group messages per 1000 requests): completed
/// operations per second, mean latency over all operations and split by
/// message class, and the 99th percentile.
///
/// Setting `MRP_MULTIGROUP_CRASH_MS=<period>` adds **initiator churn**
/// (the rows' `crash_ms`; 0 = none): every period the process that
/// initiates the multi-group messages is crashed (orphaning its
/// in-flight Skeen rounds) and restarted half a period later, and client
/// sessions retry abandoned operations — so the rows (which the bench
/// then writes to `BENCH_multigroup_churn.json`) record throughput while
/// orphan recovery (wbcast) / coordinator re-election (both engines)
/// runs continuously.
pub fn fig_multigroup(scale: Scale) -> Figure {
    let fractions: &[u32] = scale.pick(&[0, 50, 200, 500, 1000], &[0, 500]);
    let warmup_s = scale.pick(2, 1);
    let run_s = scale.pick(10, 2);
    let crash_ms: u64 = std::env::var("MRP_MULTIGROUP_CRASH_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let n = 3u32;
    let groups = 3u16;
    let mut fig = Figure::new();
    for kind in EngineKind::ALL {
        for &multi_per_mille in fractions {
            let tuning = RingTuning {
                lambda: 3_000,
                delta_us: 5_000,
                ..RingTuning::default()
            };
            let config = engines_config(groups, n, tuning);
            let sim = SimConfig {
                election_timeout_us: 50_000,
                ..seeded(11)
            };
            let mut cell = Cell::new(
                sim,
                Topology::lan(16),
                Time::from_secs(warmup_s),
                Time::from_secs(run_s),
            );
            let policy = CheckpointPolicy {
                // Churn runs checkpoint so a restarted victim rejoins
                // from a snapshot instead of replaying from genesis.
                interval_us: if crash_ms > 0 { 100_000 } else { 0 },
                sync: false,
            };
            spawn_echo_replicas(&mut cell.cluster, kind, &config, n, policy, Some(proto_cpu));
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
                    cell.cluster.schedule_crash(Time::from_micros(t), victim);
                    cell.cluster
                        .schedule_restart(Time::from_micros(t + period / 2), victim);
                    t += period;
                }
            }
            let client_id = ClientId::new(1);
            let source = mixed_groups(targets, multi_per_mille, 512);
            // Without churn the retry period is 0: no session retries.
            let client = ClosedLoopClient::new(client_id, 24, "multigroup", source)
                .warmup_until(cell.warmup)
                .with_retry(crash_ms * 1_000 / 2);
            cell.cluster
                .add_client(ProcessId::new(950), client_id, Box::new(client));
            cell.run();
            let latency = "multigroup/latency_us";
            fig.push([
                ("engine", kind.name().into()),
                ("multi_per_mille", u64::from(multi_per_mille).into()),
                ("crash_ms", crash_ms.into()),
                (
                    "ops_per_sec",
                    Value::rounded(cell.per_sec("multigroup/ops"), 1),
                ),
                ("latency_ms", Value::rounded(cell.mean_ms(latency), 3)),
                (
                    "single_ms",
                    Value::rounded(cell.mean_ms("multigroup/latency_us/single"), 3),
                ),
                (
                    "multi_ms",
                    Value::rounded(cell.mean_ms("multigroup/latency_us/multi"), 3),
                ),
                ("p99_ms", Value::rounded(cell.quantile_ms(latency, 0.99), 3)),
            ]);
        }
    }
    fig
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
