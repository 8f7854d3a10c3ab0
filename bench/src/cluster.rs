//! Cluster set-up: the deployment a downstream user runs, inside the
//! bench process — three servers hosted by `TcpRuntime` on loopback
//! ports, an `EngineReplica` per server, one `ClientPort`.

use crate::trace::{TraceHub, Traced, TracedApp};
use crate::workload::{
    kv_initial_value, kv_key, Deployment, Service, WorkloadSpec, DLOG_CACHE_BYTES, DLOG_LOGS,
    KV_RECORDS,
};
use crossbeam::channel::{unbounded, Receiver, Sender};
use mrp_amcast::{EngineKind, EngineReplica, TelemetrySnapshot};
use mrp_dlog::DLogApp;
use mrp_store::StoreApp;
use mrp_transport::tcp::{ClientPort, RuntimeConfig, RuntimeHandle, TcpRuntime};
use multiring_paxos::app::Application;
use multiring_paxos::config::StorageMode;
use multiring_paxos::event::Event;
use multiring_paxos::replica::CheckpointPolicy;
use multiring_paxos::types::{ClientId, ProcessId};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The one client session of a run.
pub const CLIENT: ClientId = ClientId::new(1);
/// The pseudo-process id of the `ClientPort`.
pub const CLIENT_PROCESS: ProcessId = ProcessId::new(50);
/// How often the protocol loops call the status probe, µs.
const STATUS_INTERVAL_US: u64 = 20_000;

/// What one server reports when asked: its application state and its
/// public telemetry, read on the protocol thread through `StatusProbe`.
#[derive(Debug)]
pub struct NodeReport {
    /// The reporting server.
    pub node: ProcessId,
    /// FNV-1a of `Application::snapshot()`.
    pub snapshot_hash: u64,
    /// Length of the snapshot.
    pub snapshot_len: usize,
    /// `EngineReplica::telemetry()`.
    pub telemetry: TelemetrySnapshot,
}

/// A running cluster.
pub struct Cluster {
    /// The resolved deployment (routing, proposers).
    pub deployment: Deployment,
    /// The client endpoint.
    pub client: ClientPort,
    /// The wrappers' shared trace.
    pub hub: Arc<TraceHub>,
    handles: RefCell<BTreeMap<ProcessId, RuntimeHandle>>,
    /// Raised to make every server's next status probe report.
    report_epoch: Arc<AtomicU64>,
    reports: Receiver<NodeReport>,
    /// Per-server WAL directories, when the workload persists.
    wal_dirs: Vec<PathBuf>,
}

fn free_addr() -> std::io::Result<SocketAddr> {
    std::net::TcpListener::bind("127.0.0.1:0")?.local_addr()
}

/// FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

type Hosted<A> = Traced<EngineReplica<TracedApp<A>>>;

#[allow(clippy::too_many_arguments)]
fn spawn_server<A: Application + Send + 'static>(
    engine: EngineKind,
    deployment: &Deployment,
    rc: RuntimeConfig,
    app: A,
    hub: &Arc<TraceHub>,
    report_epoch: &Arc<AtomicU64>,
    reports: Sender<NodeReport>,
) -> std::io::Result<RuntimeHandle> {
    let me = rc.me;
    // No periodic checkpoints: a run is seconds long and a checkpoint's
    // snapshot copy would land in some blocks and not in others.
    let policy = CheckpointPolicy {
        interval_us: 0,
        sync: false,
    };
    let replica = EngineReplica::new(
        engine,
        me,
        deployment.config().clone(),
        TracedApp::new(app, Arc::clone(hub), me),
        policy,
    );
    let epoch = Arc::clone(report_epoch);
    let mut reported = 0;
    TcpRuntime::spawn_with_status(
        rc,
        Traced::new(replica, Arc::clone(hub)),
        Box::new(move |_, sm: &Hosted<A>| {
            let wanted = epoch.load(Ordering::SeqCst);
            if wanted == reported {
                return;
            }
            reported = wanted;
            let replica = sm.inner();
            let snapshot = replica.app().snapshot();
            let _ = reports.send(NodeReport {
                node: me,
                snapshot_hash: fnv1a(snapshot.as_slice()),
                snapshot_len: snapshot.len(),
                telemetry: replica.telemetry(),
            });
        }),
    )
}

impl Cluster {
    /// Brings the cluster of `spec` up on `engine`. `wal_base` is where
    /// the servers' WAL directories go when the workload persists.
    ///
    /// # Errors
    ///
    /// Fails if a socket cannot be bound or a WAL directory opened.
    pub fn start(
        spec: &WorkloadSpec,
        engine: EngineKind,
        wal_base: &Path,
    ) -> std::io::Result<Self> {
        let deployment = Deployment::build(spec, engine);
        let servers = deployment.servers();
        let hub = TraceHub::new(servers.len());
        let mut peers: BTreeMap<ProcessId, SocketAddr> = BTreeMap::new();
        for &p in &servers {
            peers.insert(p, free_addr()?);
        }
        peers.insert(CLIENT_PROCESS, free_addr()?);

        let report_epoch = Arc::new(AtomicU64::new(0));
        let (report_tx, reports) = unbounded();
        let mut handles = BTreeMap::new();
        let mut wal_dirs = Vec::new();
        // Each ring's rate-leveling clock starts when its coordinator
        // does, so the offsets between the rings' Δ ticks — which decide
        // how long the deterministic merge waits — are the servers'
        // start offsets. Started back to back they are whatever thread
        // creation took; started Δ/n apart they are the same every time.
        let stagger = Duration::from_micros(
            deployment
                .config()
                .rings()
                .values()
                .map(|r| r.tuning().delta_us)
                .max()
                .unwrap_or(0)
                / servers.len() as u64,
        );
        for (i, &p) in servers.iter().enumerate() {
            if i > 0 {
                std::thread::sleep(stagger);
            }
            let mut rc = RuntimeConfig::new(p, peers[&p]);
            rc.peers = peers.clone();
            rc.clients = BTreeMap::from([(CLIENT, CLIENT_PROCESS)]);
            rc.status_interval_us = STATUS_INTERVAL_US;
            if spec.storage != StorageMode::InMemory {
                let dir = wal_base.join(format!("{}-node{}", engine.name(), p.value()));
                wal_dirs.push(dir.clone());
                rc.storage_dir = Some(dir);
            }
            let handle = match spec.service {
                Service::Store => {
                    let mut app = StoreApp::new(0);
                    for i in 0..KV_RECORDS {
                        app.load(kv_key(i), kv_initial_value(i));
                    }
                    spawn_server(
                        engine,
                        &deployment,
                        rc,
                        app,
                        &hub,
                        &report_epoch,
                        report_tx.clone(),
                    )?
                }
                Service::DLog => spawn_server(
                    engine,
                    &deployment,
                    rc,
                    DLogApp::new(0..DLOG_LOGS, DLOG_CACHE_BYTES),
                    &hub,
                    &report_epoch,
                    report_tx.clone(),
                )?,
            };
            handles.insert(p, handle);
        }
        let client = ClientPort::bind(CLIENT_PROCESS, peers[&CLIENT_PROCESS], peers)?;
        Ok(Self {
            deployment,
            client,
            hub,
            handles: RefCell::new(handles),
            report_epoch,
            reports,
            wal_dirs,
        })
    }

    /// The servers still running.
    pub fn live_servers(&self) -> Vec<ProcessId> {
        self.handles.borrow().keys().copied().collect()
    }

    /// Asks every live server for a [`NodeReport`] and waits for them.
    /// A server that does not answer within two seconds is missing from
    /// the result.
    pub fn collect_reports(&self) -> Vec<NodeReport> {
        while self.reports.try_recv().is_ok() {}
        self.report_epoch.fetch_add(1, Ordering::SeqCst);
        let mut out = Vec::new();
        let live = self.handles.borrow().len();
        while out.len() < live {
            match self.reports.recv_timeout(Duration::from_secs(2)) {
                Ok(r) => out.push(r),
                Err(_) => break,
            }
        }
        out.sort_by_key(|r| r.node);
        out
    }

    /// Takes server `p`'s handle out of the cluster; shutting it down
    /// is the fault epilogue's kill.
    pub fn take_handle(&self, p: ProcessId) -> Option<RuntimeHandle> {
        self.handles.borrow_mut().remove(&p)
    }

    /// Injects `event` into every live server, as the coordination
    /// service's watch would.
    pub fn inject_all(&self, event: &Event) {
        for handle in self.handles.borrow().values() {
            handle.inject(event.clone());
        }
    }

    /// Bytes the servers' write-ahead logs hold on disk.
    pub fn wal_bytes(&self) -> u64 {
        fn dir_bytes(dir: &Path) -> u64 {
            let Ok(entries) = std::fs::read_dir(dir) else {
                return 0;
            };
            entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        }
        self.wal_dirs.iter().map(|d| dir_bytes(d)).sum()
    }

    /// Stops every server and joins its protocol thread.
    pub fn shutdown(&self) {
        for (_, handle) in std::mem::take(&mut *self.handles.borrow_mut()) {
            handle.shutdown();
        }
    }
}
