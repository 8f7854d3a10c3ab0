//! The load generator and the run protocol.
//!
//! One generator thread drives one `ClientPort`: it sends, receives,
//! times and checks every request. Per engine a run is: a few timed
//! cluster set-ups, a discarded warm-up at the saturating window, then
//! [`ROUNDS`] rounds of a `svc` block (one request outstanding) and a
//! `sat` block ([`SAT_WINDOW`] outstanding), with a noise probe between
//! blocks. A traced run pairs each block with an untraced reference
//! block on the same cluster and runs half the rounds.

use crate::cluster::{Cluster, NodeReport, CLIENT};
use crate::oracle::{quiescent, Oracle};
use crate::probe::{Probe, ProbeReading};
use crate::trace::NodeTrace;
use crate::workload::{kv_key, OpKind, Request, Stream, WorkloadSpec};
use bytes::Bytes;
use crossbeam::channel::RecvTimeoutError;
use mrp_amcast::EngineKind;
use multiring_paxos::codec;
use multiring_paxos::event::{Event, Message};
use multiring_paxos::types::{Ballot, ProcessId, RingId};
use std::io::ErrorKind;
use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Rounds of one `svc` and one `sat` block per engine.
pub const ROUNDS: usize = 30;
/// Requests outstanding in a `sat` block.
pub const SAT_WINDOW: usize = 32;
/// Length of one block when `--seconds` is [`NOMINAL_SECONDS`].
pub const BLOCK_SECONDS: f64 = 0.2;
/// Length of the discarded warm-up when `--seconds` is
/// [`NOMINAL_SECONDS`].
pub const WARMUP_SECONDS: f64 = 1.5;
/// The `--seconds` the block lengths are quoted for; other values scale
/// them in proportion.
pub const NOMINAL_SECONDS: f64 = 30.0;
/// A block during which the hypervisor stole at least this share of the
/// machine's CPU time is disturbed. At the nominal block length that is
/// two clock ticks on one core.
pub const STEAL_LIMIT: f64 = 0.04;
/// A block is disturbed when the noise probe on either side of it reads
/// more than this multiple of the run's median reading.
pub const PROBE_LIMIT: f64 = 1.3;
/// A request with no reply after this long is a failure.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(2);
/// Timed cluster set-ups per engine; `setup_s` is their median.
pub const SETUP_TRIALS: usize = 11;
/// How often one set-up is started over because a port it had picked
/// was taken before the server bound it.
const PORT_RETRIES: usize = 5;
/// The fault epilogue sends one request per this interval.
const EPILOGUE_INTERVAL: Duration = Duration::from_millis(1);
/// How long the fault epilogue waits for the survivors to answer.
const EPILOGUE_LIMIT: Duration = Duration::from_secs(20);

/// Slots of the outstanding-request table; more than any window.
const SLOTS: usize = 4096;
/// Request-id ranges of the three generators a cluster can see.
const SETUP_IDS: u64 = 0;
const MAIN_IDS: u64 = 1 << 20;
const EPILOGUE_IDS: u64 = 1 << 40;

/// What a block measures.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum BlockKind {
    /// One request outstanding: the service time a lone client sees.
    Svc,
    /// [`SAT_WINDOW`] requests outstanding: throughput.
    Sat,
}

/// One measured block: the unit the reported values are taken over.
#[derive(Debug)]
pub struct Block {
    /// What it measured.
    pub kind: BlockKind,
    /// Whether the tracing wrappers were recording.
    pub traced: bool,
    /// Requests completed inside the block.
    pub completions: u64,
    /// The block's length, seconds.
    pub elapsed_s: f64,
    /// Request → first reply of each completion, ns.
    pub latencies_ns: Vec<u32>,
    /// Process CPU time (user + system) spent during the block, µs.
    pub cpu_us: f64,
    /// Share of the machine's CPU time the hypervisor gave to someone
    /// else during the block (`steal` in `/proc/stat`).
    pub steal_share: f64,
    /// The noise probe taken right before the block.
    pub probe: ProbeReading,
    /// The noise probe taken right after the block.
    pub probe_after: ProbeReading,
    /// When the block ran, ns on the trace hub's clock.
    pub span_ns: (u64, u64),
}

impl Block {
    /// Completions per second.
    pub fn throughput(&self) -> f64 {
        self.completions as f64 / self.elapsed_s
    }

    /// The `q`-quantile of the block's latencies, µs.
    pub fn latency_us(&self, q: f64) -> f64 {
        let mut sorted = self.latencies_ns.clone();
        crate::stats::percentile(&mut sorted, q) / 1000.0
    }

    /// The worse of the two probe readings around the block.
    pub fn probe_level(&self) -> f64 {
        self.probe.loopback_us.max(self.probe_after.loopback_us)
    }

    /// Whether the noise guard flags the block: the hypervisor took CPU
    /// time away while it ran, or a probe beside it read above
    /// `probe_limit` (see [`probe_limit`]). Both tests look at the
    /// machine, never at the block's own result.
    pub fn disturbed(&self, probe_limit: f64) -> bool {
        self.steal_share >= STEAL_LIMIT || self.probe_level() > probe_limit
    }
}

/// Process CPU time so far in µs, from `/proc/self/stat` (user + system
/// ticks; Linux reports them in 1/100 s regardless of the kernel's HZ).
fn process_cpu_us() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line, the 12th and 13th after it.
    let Some((_, rest)) = stat.rsplit_once(") ") else {
        return 0.0;
    };
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick() + tick()) * 10_000.0
}

/// `(steal, total)` CPU ticks of the whole machine so far, from the
/// first line of `/proc/stat`.
fn machine_ticks() -> (f64, f64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0.0, 0.0);
    };
    let ticks: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_ascii_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user.
    (
        ticks.get(7).copied().unwrap_or(0.0),
        ticks.iter().take(8).sum(),
    )
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[derive(Debug)]
struct Outstanding {
    id: u64,
    sent: Instant,
    sent_ns: u64,
    kind: OpKind,
}

/// What the client side recorded while the hub was on.
#[derive(Default, Debug)]
pub struct ClientTrace {
    /// `(request, ClientPort::request called, first reply read, sent in
    /// a svc block)`, times in ns on the hub's clock.
    pub requests: Vec<(u64, u64, u64, bool)>,
    /// Request frames sent.
    pub frames: u64,
    /// Their encoded size, length prefix included.
    pub frame_bytes: u64,
    /// Replies read (all replicas).
    pub replies: u64,
    /// First replies read: completed requests.
    pub first_replies: u64,
    /// The first request frames sent, for the isolated ledger rows.
    pub captured: Vec<Message>,
}

/// The load generator of one cluster.
pub struct LoadGen {
    cluster: Rc<Cluster>,
    stream: Stream,
    next_id: u64,
    slots: Vec<Option<Outstanding>>,
    /// `(request, hash of its first reply)` of completed requests, for
    /// comparing the other replicas' replies.
    done: Vec<(u64, u64)>,
    outstanding: usize,
    /// When set, every request goes to this server (fault epilogue).
    redirect: Option<ProcessId>,
    /// Whether the block now running has one request outstanding.
    in_svc: bool,
    /// The run's correctness oracle.
    pub oracle: Oracle,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that got no reply in [`REQUEST_TIMEOUT`].
    pub failed: u64,
    /// Requests completed.
    pub completed: u64,
    /// Client-side trace.
    pub trace: ClientTrace,
}

impl LoadGen {
    /// A generator sending `spec`'s stream for `seed` to `cluster`,
    /// numbering its requests from `first_id + 1`. Generators that share
    /// a cluster take disjoint ranges, so a late reply to one cannot be
    /// mistaken for a reply to another.
    pub fn new(cluster: Rc<Cluster>, spec: &WorkloadSpec, seed: u64, first_id: u64) -> Self {
        Self {
            stream: Stream::new(spec, cluster.deployment.clone(), seed),
            cluster,
            next_id: first_id,
            slots: (0..SLOTS).map(|_| None).collect(),
            done: vec![(0, 0); SLOTS],
            outstanding: 0,
            redirect: None,
            in_svc: false,
            oracle: Oracle::new(spec.service),
            attempted: 0,
            failed: 0,
            completed: 0,
            trace: ClientTrace::default(),
        }
    }

    fn send(&mut self, req: Request) -> u64 {
        self.next_id += 1;
        let id = self.next_id;
        self.attempted += 1;
        self.outstanding += 1;
        self.oracle.on_issue(&req.kind);
        let to = self.redirect.unwrap_or(req.to);
        let mut sent_ns = 0;
        if self.cluster.hub.is_on() {
            let frame = Message::Request {
                client: CLIENT,
                request: id,
                groups: req.groups.clone(),
                payload: req.payload.clone(),
            };
            self.trace.frames += 1;
            self.trace.frame_bytes += codec::encoded_len(&frame) as u64 + 4;
            if self.trace.captured.len() < 512 {
                self.trace.captured.push(frame);
            }
            sent_ns = self.cluster.hub.now_ns();
        }
        let sent = Instant::now();
        self.cluster
            .client
            .request(to, CLIENT, id, req.groups, req.payload);
        let slot = &mut self.slots[id as usize % SLOTS];
        debug_assert!(slot.is_none(), "window exceeds the slot table");
        *slot = Some(Outstanding {
            id,
            sent,
            sent_ns,
            kind: req.kind,
        });
        id
    }

    fn issue(&mut self) {
        let req = self.stream.next_request();
        self.send(req);
    }

    /// Handles one reply read at `now`; returns the request's latency
    /// and kind if this was its first reply.
    fn on_reply(&mut self, id: u64, payload: &Bytes, now: Instant) -> Option<(Duration, OpKind)> {
        let on = self.cluster.hub.is_on();
        if on {
            self.trace.replies += 1;
        }
        let index = id as usize % SLOTS;
        match self.slots[index].take() {
            Some(o) if o.id == id => {
                self.outstanding -= 1;
                self.completed += 1;
                let hash = self.oracle.on_first_reply(id, &o.kind, payload);
                self.done[index] = (id, hash);
                if on && o.sent_ns > 0 {
                    self.trace.first_replies += 1;
                    self.trace.requests.push((
                        id,
                        o.sent_ns,
                        self.cluster.hub.now_ns(),
                        self.in_svc,
                    ));
                }
                Some((now.duration_since(o.sent), o.kind))
            }
            other => {
                self.slots[index] = other;
                let (done_id, hash) = self.done[index];
                if done_id == id {
                    self.oracle.on_duplicate_reply(id, hash, payload);
                }
                None
            }
        }
    }

    /// Fails every request outstanding longer than [`REQUEST_TIMEOUT`].
    fn expire(&mut self, now: Instant) {
        if self.outstanding == 0 {
            return;
        }
        for slot in &mut self.slots {
            if slot
                .as_ref()
                .is_some_and(|o| now.duration_since(o.sent) >= REQUEST_TIMEOUT)
            {
                let o = slot.take().expect("checked above");
                self.outstanding -= 1;
                self.failed += 1;
                self.oracle.on_timeout(&o.kind);
            }
        }
    }

    /// Reads replies until nothing is outstanding (or everything left
    /// has timed out).
    pub fn drain(&mut self) {
        while self.outstanding > 0 {
            match self
                .cluster
                .client
                .responses()
                .recv_timeout(Duration::from_millis(50))
            {
                Ok((_, id, payload)) => {
                    self.on_reply(id, &payload, Instant::now());
                }
                Err(RecvTimeoutError::Timeout) => self.expire(Instant::now()),
                Err(RecvTimeoutError::Disconnected) => return,
            }
        }
    }

    /// Sends one request and waits for its first reply.
    pub fn call(&mut self, req: Request) -> Option<Bytes> {
        let id = self.send(req);
        loop {
            match self
                .cluster
                .client
                .responses()
                .recv_timeout(Duration::from_millis(50))
            {
                Ok((_, got, payload)) => {
                    let first = self.on_reply(got, &payload, Instant::now()).is_some();
                    if first && got == id {
                        return Some(payload);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    self.expire(Instant::now());
                    let timed_out = self.slots[id as usize % SLOTS].is_none();
                    if timed_out {
                        return None;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return None,
            }
        }
    }

    /// Runs one closed-loop block: `window` requests outstanding for
    /// `length`, then a drain that is not part of the block.
    pub fn run_block(&mut self, kind: BlockKind, length: Duration, probe: ProbeReading) -> Block {
        let window = match kind {
            BlockKind::Svc => 1,
            BlockKind::Sat => SAT_WINDOW,
        };
        self.in_svc = kind == BlockKind::Svc;
        let mut latencies_ns: Vec<u32> = Vec::with_capacity(1 << 14);
        let cpu_before = process_cpu_us();
        let ticks_before = machine_ticks();
        let start_ns = self.cluster.hub.now_ns();
        let start = Instant::now();
        let end = start + length;
        while self.outstanding < window {
            self.issue();
        }
        let mut last_scan = start;
        loop {
            let now = Instant::now();
            if now >= end {
                break;
            }
            let wait = (end - now).min(Duration::from_millis(50));
            match self.cluster.client.responses().recv_timeout(wait) {
                Ok((_, id, payload)) => {
                    let now = Instant::now();
                    if let Some((latency, _)) = self.on_reply(id, &payload, now) {
                        if now <= end {
                            latencies_ns
                                .push(u32::try_from(latency.as_nanos()).unwrap_or(u32::MAX));
                            while self.outstanding < window {
                                self.issue();
                            }
                        }
                    }
                    if now.duration_since(last_scan) >= Duration::from_millis(250) {
                        last_scan = now;
                        self.expire(now);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    let now = Instant::now();
                    self.expire(now);
                    if now < end {
                        while self.outstanding < window {
                            self.issue();
                        }
                    }
                }
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        let elapsed_s = start.elapsed().as_secs_f64();
        let span_ns = (start_ns, self.cluster.hub.now_ns());
        let cpu_us = process_cpu_us() - cpu_before;
        let ticks = machine_ticks();
        self.drain();
        Block {
            kind,
            traced: self.cluster.hub.is_on(),
            completions: latencies_ns.len() as u64,
            elapsed_s,
            latencies_ns,
            cpu_us,
            steal_share: if ticks.1 > ticks_before.1 {
                (ticks.0 - ticks_before.0) / (ticks.1 - ticks_before.1)
            } else {
                0.0
            },
            probe,
            probe_after: probe,
            span_ns,
        }
    }

    /// After quiescence: reads back a sample of acknowledged updates,
    /// checks the dLog positions, and compares the servers' states.
    /// Returns the servers' final reports.
    pub fn verify(&mut self) -> Vec<NodeReport> {
        self.drain();
        for (key, expected) in self.oracle.read_back_sample() {
            let req = self.stream.deployment().read_request(&key);
            match self.call(req) {
                Some(payload) => self.oracle.on_read_back(&key, &expected, &payload),
                None => self
                    .oracle
                    .fail("acknowledged-write-reads-back: read-back timed out".into()),
            }
        }
        if self.failed == 0 {
            self.oracle.check_positions();
        }
        // The first reply completes a request; the other replicas may
        // still be executing. Wait until all have executed the same
        // number of commands before comparing their states.
        let servers = self.cluster.live_servers().len();
        let mut reports = Vec::new();
        for _ in 0..40 {
            std::thread::sleep(Duration::from_millis(25));
            reports = self.cluster.collect_reports();
            if reports.len() == servers && quiescent(&reports) {
                break;
            }
        }
        self.oracle.check_reports(&reports, servers);
        reports
    }

    /// The fault epilogue: stops the coordinator (ring engine) /
    /// sequencer (wbcast) `victim`, tells the survivors what the
    /// coordination service would, keeps sending one request per
    /// millisecond to `successor`, and returns kill → first reply in ms
    /// (`None` if the survivors never answered).
    pub fn fault_epilogue(
        &mut self,
        rings: &[RingId],
        victim: ProcessId,
        successor: ProcessId,
    ) -> Option<f64> {
        self.drain();
        self.redirect = Some(successor);
        let killed = Instant::now();
        if let Some(handle) = self.cluster.take_handle(victim) {
            handle.shutdown();
        }
        for &ring in rings {
            self.cluster.inject_all(&Event::MembershipChange {
                ring,
                down: vec![victim],
            });
            self.cluster.inject_all(&Event::CoordinatorChange {
                ring,
                coordinator: successor,
                supersedes: Ballot::new(1, successor),
            });
        }
        let mut next_send = Instant::now();
        let mut outage = None;
        while outage.is_none() && killed.elapsed() < EPILOGUE_LIMIT {
            let now = Instant::now();
            if now >= next_send && self.outstanding < SLOTS / 2 {
                self.issue();
                next_send += EPILOGUE_INTERVAL;
                continue;
            }
            let wait = next_send.saturating_duration_since(now);
            if let Ok((_, id, payload)) = self.cluster.client.responses().recv_timeout(wait) {
                if self.on_reply(id, &payload, Instant::now()).is_some() {
                    outage = Some(killed.elapsed().as_secs_f64() * 1000.0);
                }
            }
        }
        // Requests sent into the outage are retried by the engines'
        // own timers; give them the request timeout to come back.
        self.drain();
        outage
    }
}

/// What one engine's part of a run produced.
pub struct EngineRun {
    /// The engine.
    pub engine: EngineKind,
    /// Cluster construction → first reply, one per set-up, seconds.
    pub setups_s: Vec<f64>,
    /// The measured blocks, in order.
    pub blocks: Vec<Block>,
    /// Requests sent (warm-up, blocks, read-backs, epilogue).
    pub attempted: u64,
    /// Requests that timed out.
    pub failed: u64,
    /// Whether every oracle check passed.
    pub correct: bool,
    /// The failed checks.
    pub failures: Vec<String>,
    /// The servers' reports after the measured blocks.
    pub reports: Vec<NodeReport>,
    /// Bytes in the servers' WALs after the measured blocks.
    pub wal_bytes: u64,
    /// Requests completed before `wal_bytes` was read.
    pub completed_at_report: u64,
    /// Per-server traces (traced runs).
    pub node_traces: Vec<NodeTrace>,
    /// Client-side trace (traced runs).
    pub client_trace: ClientTrace,
    /// Fault epilogue: kill → first reply, ms.
    pub outage_ms: Option<f64>,
}

impl EngineRun {
    /// The blocks of one kind and tracing state.
    pub fn blocks_of(&self, kind: BlockKind, traced: bool) -> impl Iterator<Item = &Block> {
        self.blocks
            .iter()
            .filter(move |b| b.kind == kind && b.traced == traced)
    }
}

/// How a run was asked for.
#[derive(Copy, Clone, Debug)]
pub struct RunArgs {
    /// Request-stream seed.
    pub seed: u64,
    /// Measuring budget, seconds, both engines together.
    pub seconds: f64,
    /// Whether this is the traced invocation.
    pub trace: bool,
}

/// The probe reading above which a block of `runs` is disturbed:
/// [`PROBE_LIMIT`] × the median of the run's readings.
pub fn probe_limit(runs: &[EngineRun]) -> f64 {
    let readings: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.blocks.iter().map(|b| b.probe_after.loopback_us))
        .collect();
    PROBE_LIMIT * crate::stats::median(&readings)
}

/// The noise probe with the reading that opens the next block.
pub struct NoiseProbe {
    probe: Probe,
    last: ProbeReading,
}

impl NoiseProbe {
    /// Starts the probe's helper threads.
    ///
    /// # Errors
    ///
    /// Fails if the probe's loopback socket cannot be set up.
    pub fn start() -> std::io::Result<Self> {
        Ok(Self {
            probe: Probe::start()?,
            last: ProbeReading::default(),
        })
    }

    fn read(&mut self) -> ProbeReading {
        self.last = self.probe.read();
        self.last
    }
}

/// One engine's cluster with its load generator, from the timed set-ups
/// to the final report.
pub struct Session {
    spec: &'static WorkloadSpec,
    engine: EngineKind,
    cluster: Rc<Cluster>,
    gen: LoadGen,
    setups_s: Vec<f64>,
    setup_failed: u64,
    blocks: Vec<Block>,
}

impl Session {
    /// Brings the cluster up [`SETUP_TRIALS`] times, timing each from
    /// building the deployment to the first reply, and keeps the last.
    ///
    /// # Errors
    ///
    /// Fails if a cluster cannot be brought up (sockets, WAL directory).
    pub fn start(
        spec: &'static WorkloadSpec,
        engine: EngineKind,
        seed: u64,
        wal_base: &Path,
    ) -> std::io::Result<Self> {
        let mut setups_s = Vec::with_capacity(SETUP_TRIALS);
        let mut setup_failed = 0;
        let mut last: Option<Rc<Cluster>> = None;
        for trial in 0..SETUP_TRIALS {
            if let Some(previous) = last.take() {
                previous.shutdown();
            }
            // A server's port is picked by binding port 0 and letting go
            // of it again, because `TcpRuntime` takes an address, not a
            // listener: until the server binds it, any connection the
            // kernel opens may take it. Such a set-up is started over,
            // and timed from its own start.
            let mut collisions = 0;
            let (cluster, begin) = loop {
                let begin = Instant::now();
                let wal_dir = wal_base.join(format!("setup{trial}-{collisions}"));
                match Cluster::start(spec, engine, &wal_dir) {
                    Ok(cluster) => break (Rc::new(cluster), begin),
                    Err(e) if e.kind() == ErrorKind::AddrInUse && collisions < PORT_RETRIES => {
                        collisions += 1;
                    }
                    Err(e) => return Err(e),
                }
            };
            let mut gen = LoadGen::new(Rc::clone(&cluster), spec, 0, SETUP_IDS);
            let first = cluster.deployment.read_request(&kv_key(0));
            setup_failed += u64::from(gen.call(first).is_none());
            setups_s.push(begin.elapsed().as_secs_f64());
            last = Some(cluster);
        }
        let cluster = last.expect("at least one set-up trial");
        let gen = LoadGen::new(Rc::clone(&cluster), spec, seed, MAIN_IDS);
        Ok(Self {
            spec,
            engine,
            cluster,
            gen,
            setups_s,
            setup_failed,
            blocks: Vec::new(),
        })
    }

    /// The discarded warm-up at the saturating window.
    pub fn warm_up(&mut self, length: Duration) {
        self.gen
            .run_block(BlockKind::Sat, length, ProbeReading::default());
    }

    /// One round: a `svc` and a `sat` block of `length`, each closed by a
    /// probe reading. A traced round runs every block twice: an untraced
    /// reference, then the traced one.
    pub fn round(&mut self, noise: &mut NoiseProbe, length: Duration, trace: bool) {
        let modes: &[bool] = if trace { &[false, true] } else { &[false] };
        for kind in [BlockKind::Svc, BlockKind::Sat] {
            for &traced in modes {
                self.cluster.hub.set_on(traced);
                let mut block = self.gen.run_block(kind, length, noise.last);
                self.cluster.hub.set_on(false);
                block.probe_after = noise.read();
                self.blocks.push(block);
            }
        }
    }

    /// Quiescence, the oracle, the traces, the fault epilogue where it
    /// applies, and the cluster's shutdown.
    pub fn finish(mut self, args: &RunArgs) -> EngineRun {
        let reports = self.gen.verify();
        let mut run = EngineRun {
            engine: self.engine,
            setups_s: self.setups_s,
            blocks: self.blocks,
            attempted: self.gen.attempted + SETUP_TRIALS as u64,
            failed: self.gen.failed + self.setup_failed,
            correct: self.gen.oracle.correct(),
            failures: self.gen.oracle.failures().0.to_vec(),
            reports,
            wal_bytes: self.cluster.wal_bytes(),
            completed_at_report: self.gen.completed,
            node_traces: (0..self.cluster.hub.servers())
                .map(|i| std::mem::take(&mut *self.cluster.hub.node(i)))
                .collect(),
            client_trace: std::mem::take(&mut self.gen.trace),
            outage_ms: None,
        };
        if args.trace && self.spec.fault_epilogue {
            fault_epilogue(self.spec, &self.cluster, args, &mut run);
        }
        self.cluster.shutdown();
        run
    }
}

/// Runs both engines of one workload, one after the other: set-ups,
/// warm-up, the rounds, the oracle.
///
/// # Errors
///
/// Fails if a cluster cannot be brought up (sockets, WAL directory).
pub fn run_engines(
    spec: &'static WorkloadSpec,
    args: &RunArgs,
    noise: &mut NoiseProbe,
    scratch: &Path,
) -> std::io::Result<Vec<EngineRun>> {
    let scale = args.seconds / NOMINAL_SECONDS;
    let secs = |s: f64| Duration::from_secs_f64(s * scale);
    let rounds = if args.trace { ROUNDS / 2 } else { ROUNDS };
    let mut runs = Vec::new();
    for engine in EngineKind::ALL {
        let mut session = Session::start(spec, engine, args.seed, &scratch.join(engine.name()))?;
        session.warm_up(secs(WARMUP_SECONDS));
        noise.read();
        for _ in 0..rounds {
            session.round(noise, secs(BLOCK_SECONDS), args.trace);
        }
        runs.push(session.finish(args));
    }
    Ok(runs)
}

/// Runs the fault epilogue on `cluster` and folds its outcome into
/// `run`.
fn fault_epilogue(spec: &WorkloadSpec, cluster: &Rc<Cluster>, args: &RunArgs, run: &mut EngineRun) {
    let servers = cluster.deployment.servers();
    let (victim, successor) = (servers[0], servers[1]);
    let rings: Vec<RingId> = cluster
        .deployment
        .config()
        .rings()
        .keys()
        .copied()
        .collect();
    let mut gen = LoadGen::new(Rc::clone(cluster), spec, args.seed ^ 0xFA17, EPILOGUE_IDS);
    let outage = gen.fault_epilogue(&rings, victim, successor);
    if outage.is_none() {
        gen.oracle
            .fail("fault-epilogue: the survivors never answered".into());
    }
    gen.verify();
    run.outage_ms = outage;
    run.attempted += gen.attempted;
    // Requests sent into the outage may time out at the client while
    // the engines are still electing; they are the outage, not failures
    // of the measured workload, and are reported through `outage_ms`.
    run.correct &= gen.oracle.correct();
    run.failures.extend(gen.oracle.failures().0.iter().cloned());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = process_cpu_us();
        let mut x = 0u64;
        let start = Instant::now();
        while start.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(
            process_cpu_us() - before >= 30_000.0,
            "60 ms of spinning is ≥ 3 ticks"
        );
        assert!(peak_rss_mb() > 0.0);
    }
}
