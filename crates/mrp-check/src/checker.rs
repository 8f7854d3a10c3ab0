//! The bounded model checker: exhaustive interleaving exploration over
//! sans-io engine nodes.
//!
//! A [`Checker`] instantiates one engine per process of a
//! [`Scenario`], pumps the deterministic
//! start-up exchange to quiescence, applies the scenario's submissions,
//! and then explores **every schedule** of the resulting in-flight
//! choices — message deliveries, timer firings and (within a
//! [`FaultBudget`]) frame drops, frame duplications, checkpoints,
//! crashes and restarts — up to a configurable depth.
//!
//! Exploration is *stateless*: engines are not `Clone`, so each search
//! node is reconstructed by replaying its choice prefix from the root.
//! Two prunings keep the tree tractable:
//!
//! * **state-fingerprint deduplication** — a world digest built from
//!   every engine's [`state_digest`](mrp_amcast::AmcastEngine::state_digest)
//!   plus channels, timers, clocks and budgets; a state already visited
//!   with a compatible sleep set is not re-expanded;
//! * **sleep-set partial-order reduction** — independent choices
//!   (disjoint node/channel footprints) are explored in only one order.
//!
//! Correctness is judged against the executable specification in
//! [`spec`](crate::spec): every concrete delivery is mapped to an
//! [`AbstractAmcast`] transition, and a delivery the spec rejects is a
//! `refinement` violation — the trace is not a behavior of the paper's
//! primitive (integrity, exactly-once, agreement and acyclic order in
//! one check). Two oracles look at what the spec cannot see: white-box
//! `genuineness` of every frame sent, and `validity` at fault-free
//! quiescence. With
//! [`CheckerConfig::liveness`] set, the checker additionally hunts
//! *lassos*: a cycle over progress-insensitive world digests in which
//! some submitted message never delivers, every armed timer fires and
//! every in-flight frame is delivered — a bounded non-progress
//! counterexample. Any violation is minimized into a replayable
//! [`Schedule`] that a plain `#[test]` can re-execute with
//! [`replay_schedule`].

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::hash::{Hash, Hasher};

use bytes::Bytes;
use mrp_amcast::engine::AmcastEngine;
use mrp_amcast::wbcast::message_carries_value;
use multiring_paxos::digest::Fnv1a;
use multiring_paxos::event::{Action, Event, Message, TimerKind};
use multiring_paxos::types::{ClientId, GroupId, ProcessId, Time, ValueId};

use crate::scenario::Scenario;
use crate::spec::{request_key, AbstractAmcast, MsgKey};

/// A node's armed timers, keyed by [`timer_kind_key`] so the map order
/// is deterministic (`TimerKind` itself is not `Ord`).
type TimerTable = BTreeMap<(u8, u16), (TimerKind, Time)>;

/// One scheduling decision: the atomic unit of a [`Schedule`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Choice {
    /// Deliver the frame at the head of channel `from → to`.
    Deliver {
        /// Sending process.
        from: ProcessId,
        /// Receiving process.
        to: ProcessId,
    },
    /// Fire an armed timer at `node` (the virtual clock jumps to the
    /// timer's due time if it has not reached it yet).
    Fire {
        /// Process whose timer fires.
        node: ProcessId,
        /// Which timer.
        timer: TimerKind,
    },
    /// Fault: silently discard the frame at the head of `from → to`.
    Drop {
        /// Sending process.
        from: ProcessId,
        /// Receiving process.
        to: ProcessId,
    },
    /// Fault: enqueue a second copy of the frame at the head of
    /// `from → to` (models link-level retransmission duplicates).
    Duplicate {
        /// Sending process.
        from: ProcessId,
        /// Receiving process.
        to: ProcessId,
    },
    /// Take a durable checkpoint at `node` through the engine's
    /// checkpoint surface (watermark + opaque state) and let it trim.
    Checkpoint {
        /// Process checkpointing.
        node: ProcessId,
    },
    /// Fault: crash `node` — its engine, timers and undelivered inbound
    /// frames vanish; in-flight frames it already sent survive.
    Crash {
        /// Process crashing.
        node: ProcessId,
    },
    /// Restart a crashed `node` from its last durable checkpoint (or
    /// from scratch if it never checkpointed).
    Restart {
        /// Process restarting.
        node: ProcessId,
    },
}

impl Choice {
    /// Canonical exploration order (also the `Ord` key).
    fn sort_key(&self) -> (u8, u64, u64, u8, u16) {
        match *self {
            Choice::Deliver { from, to } => {
                (0, u64::from(from.value()), u64::from(to.value()), 0, 0)
            }
            Choice::Fire { node, timer } => {
                let (tag, ring) = timer_kind_key(timer);
                (1, u64::from(node.value()), 0, tag, ring)
            }
            Choice::Drop { from, to } => (2, u64::from(from.value()), u64::from(to.value()), 0, 0),
            Choice::Duplicate { from, to } => {
                (3, u64::from(from.value()), u64::from(to.value()), 0, 0)
            }
            Choice::Checkpoint { node } => (4, u64::from(node.value()), 0, 0, 0),
            Choice::Crash { node } => (5, u64::from(node.value()), 0, 0, 0),
            Choice::Restart { node } => (6, u64::from(node.value()), 0, 0, 0),
        }
    }

    /// The footprint used by the independence relation:
    /// `(engine node touched, channel front touched, wide)`. `wide`
    /// choices (crash/restart) conflict with everything.
    fn footprint(&self) -> (Option<ProcessId>, Option<(ProcessId, ProcessId)>, bool) {
        match *self {
            Choice::Deliver { from, to } => (Some(to), Some((from, to)), false),
            Choice::Fire { node, .. } => (Some(node), None, false),
            Choice::Drop { from, to } | Choice::Duplicate { from, to } => {
                (None, Some((from, to)), false)
            }
            Choice::Checkpoint { node } => (Some(node), None, false),
            Choice::Crash { node } | Choice::Restart { node } => (Some(node), None, true),
        }
    }

    /// Budget class: choices drawing on the same bounded fault budget
    /// can disable each other and are therefore never independent.
    fn budget_class(&self) -> Option<u8> {
        match self {
            Choice::Drop { .. } => Some(0),
            Choice::Duplicate { .. } => Some(1),
            Choice::Checkpoint { .. } => Some(2),
            Choice::Crash { .. } | Choice::Restart { .. } => Some(3),
            _ => None,
        }
    }
}

impl PartialOrd for Choice {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Choice {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.sort_key().cmp(&other.sort_key())
    }
}

/// `true` when the two choices may not commute (shared engine, shared
/// channel front, shared budget, or a wide choice): the sleep-set
/// reduction only reorders *independent* pairs.
fn dependent(a: &Choice, b: &Choice) -> bool {
    let (na, ca, wa) = a.footprint();
    let (nb, cb, wb) = b.footprint();
    if wa || wb {
        return true;
    }
    if let (Some(x), Some(y)) = (a.budget_class(), b.budget_class()) {
        if x == y {
            return true;
        }
    }
    matches!((na, nb), (Some(x), Some(y)) if x == y)
        || matches!((ca, cb), (Some(x), Some(y)) if x == y)
}

/// A compact, `Ord`-able key identifying a [`TimerKind`]: discriminant
/// plus the ring it concerns (0 for process-wide timers).
///
/// `TimerKind` itself deliberately does not implement `Ord`; the checker
/// needs a canonical order for its choice enumeration, its timer tables
/// and its schedules, and this key is it.
fn timer_kind_key(kind: TimerKind) -> (u8, u16) {
    match kind {
        TimerKind::Delta(r) => (1, r.value()),
        TimerKind::GapCheck(r) => (3, r.value()),
        TimerKind::TrimTick(r) => (4, r.value()),
        TimerKind::ProposalResend(r) => (5, r.value()),
        TimerKind::CheckpointTick => (6, 0),
        TimerKind::RecoveryRetry => (7, 0),
        TimerKind::SubmitFlush => (8, 0),
    }
}

fn timer_name(timer: TimerKind) -> String {
    match timer {
        TimerKind::Delta(r) => format!("delta:{}", r.value()),
        TimerKind::GapCheck(r) => format!("gap:{}", r.value()),
        TimerKind::TrimTick(r) => format!("trim:{}", r.value()),
        TimerKind::ProposalResend(r) => format!("resend:{}", r.value()),
        TimerKind::CheckpointTick => "ckpt-tick".into(),
        TimerKind::RecoveryRetry => "recovery".into(),
        TimerKind::SubmitFlush => "submit-flush".into(),
    }
}

fn parse_timer(text: &str) -> Result<TimerKind, String> {
    let (name, ring) = match text.split_once(':') {
        Some((n, r)) => {
            let ring: u16 = r
                .parse()
                .map_err(|_| format!("bad ring in timer `{text}`"))?;
            (n, ring)
        }
        None => (text, 0),
    };
    let ring = GroupId::new(ring);
    Ok(match name {
        "delta" => TimerKind::Delta(ring),
        "gap" => TimerKind::GapCheck(ring),
        "trim" => TimerKind::TrimTick(ring),
        "resend" => TimerKind::ProposalResend(ring),
        "ckpt-tick" => TimerKind::CheckpointTick,
        "recovery" => TimerKind::RecoveryRetry,
        "submit-flush" => TimerKind::SubmitFlush,
        other => return Err(format!("unknown timer `{other}`")),
    })
}

impl fmt::Display for Choice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Choice::Deliver { from, to } => write!(f, "deliver {}>{}", from.value(), to.value()),
            Choice::Fire { node, timer } => {
                write!(f, "fire {} {}", node.value(), timer_name(timer))
            }
            Choice::Drop { from, to } => write!(f, "drop {}>{}", from.value(), to.value()),
            Choice::Duplicate { from, to } => write!(f, "dup {}>{}", from.value(), to.value()),
            Choice::Checkpoint { node } => write!(f, "ckpt {}", node.value()),
            Choice::Crash { node } => write!(f, "crash {}", node.value()),
            Choice::Restart { node } => write!(f, "restart {}", node.value()),
        }
    }
}

fn parse_pair(text: &str) -> Result<(ProcessId, ProcessId), String> {
    let (a, b) = text
        .split_once('>')
        .ok_or_else(|| format!("expected `from>to`, got `{text}`"))?;
    let from: u32 = a
        .trim()
        .parse()
        .map_err(|_| format!("bad process id `{a}`"))?;
    let to: u32 = b
        .trim()
        .parse()
        .map_err(|_| format!("bad process id `{b}`"))?;
    Ok((ProcessId::new(from), ProcessId::new(to)))
}

impl Choice {
    /// Parses the one-line textual form produced by `Display`
    /// (`deliver 0>1`, `fire 0 delta:0`, `drop 2>0`, `dup 1>2`,
    /// `ckpt 1`, `crash 2`, `restart 2`).
    pub fn parse(line: &str) -> Result<Choice, String> {
        let mut it = line.split_whitespace();
        let verb = it.next().ok_or_else(|| "empty choice".to_string())?;
        let arg = it
            .next()
            .ok_or_else(|| format!("`{verb}` needs an argument"))?;
        let choice = match verb {
            "deliver" => {
                let (from, to) = parse_pair(arg)?;
                Choice::Deliver { from, to }
            }
            "drop" => {
                let (from, to) = parse_pair(arg)?;
                Choice::Drop { from, to }
            }
            "dup" => {
                let (from, to) = parse_pair(arg)?;
                Choice::Duplicate { from, to }
            }
            "fire" => {
                let node: u32 = arg.parse().map_err(|_| format!("bad process id `{arg}`"))?;
                let t = it
                    .next()
                    .ok_or_else(|| "`fire` needs a timer name".to_string())?;
                Choice::Fire {
                    node: ProcessId::new(node),
                    timer: parse_timer(t)?,
                }
            }
            "ckpt" | "crash" | "restart" => {
                let node: u32 = arg.parse().map_err(|_| format!("bad process id `{arg}`"))?;
                let node = ProcessId::new(node);
                match verb {
                    "ckpt" => Choice::Checkpoint { node },
                    "crash" => Choice::Crash { node },
                    _ => Choice::Restart { node },
                }
            }
            other => return Err(format!("unknown choice verb `{other}`")),
        };
        if let Some(extra) = it.next() {
            return Err(format!("trailing token `{extra}` after `{line}`"));
        }
        Ok(choice)
    }
}

/// A replayable sequence of [`Choice`]s, the checker's counterexample
/// format and the on-disk format of the regression schedules under
/// `schedules/`.
///
/// The textual form is one choice per line; `#` starts a comment, blank
/// lines are ignored, and a final bare `drain` directive asks the
/// replayer to deterministically run the system to quiescence after the
/// scripted prefix (delivering every frame and firing due timers, up to
/// a bounded number of steps).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Schedule {
    /// The scripted choices, in order.
    pub steps: Vec<Choice>,
    /// Whether to drain to quiescence after the scripted prefix.
    pub drain: bool,
}

impl Schedule {
    /// Parses the textual schedule format.
    pub fn parse(text: &str) -> Result<Schedule, String> {
        let mut steps = Vec::new();
        let mut drain = false;
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if drain {
                return Err(format!(
                    "line {}: `drain` must be the last directive",
                    idx + 1
                ));
            }
            if line == "drain" {
                drain = true;
                continue;
            }
            steps.push(Choice::parse(line).map_err(|e| format!("line {}: {e}", idx + 1))?);
        }
        Ok(Schedule { steps, drain })
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in &self.steps {
            writeln!(f, "{c}")?;
        }
        if self.drain {
            writeln!(f, "drain")?;
        }
        Ok(())
    }
}

/// How many fault choices of each kind the checker may branch into
/// along a single schedule. All-zero (the default) explores only
/// fault-free interleavings.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct FaultBudget {
    /// Frame drops.
    pub drops: u32,
    /// Frame duplications.
    pub dups: u32,
    /// Node crashes (each crashed node may also restart once).
    pub crashes: u32,
    /// Durable checkpoints (not faults per se, but scheduled like them
    /// so trim interacts with everything else).
    pub checkpoints: u32,
}

/// Exploration bounds and pruning switches.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CheckerConfig {
    /// Maximum schedule length (choices per path).
    pub depth: usize,
    /// Maximum explicit timer firings per node along one path (timers
    /// re-arm forever; this keeps the tree finite).
    pub max_timer_fires: u32,
    /// Fault branching budget.
    pub faults: FaultBudget,
    /// Enable state-fingerprint deduplication.
    pub dedup: bool,
    /// Enable sleep-set partial-order reduction.
    pub por: bool,
    /// Hard cap on expanded states (0 = unlimited); sets
    /// [`Report::capped`] when hit.
    pub max_states: u64,
    /// Enable bounded liveness checking: detect lassos — cycles over
    /// progress-insensitive world digests along the DFS path in which
    /// some submitted message never delivers although every armed timer
    /// fires and every in-flight frame is delivered inside the cycle.
    /// Reported under the `liveness` oracle.
    pub liveness: bool,
}

impl Default for CheckerConfig {
    fn default() -> Self {
        Self {
            depth: 10,
            max_timer_fires: 2,
            faults: FaultBudget::default(),
            dedup: true,
            por: true,
            max_states: 500_000,
            liveness: false,
        }
    }
}

/// An invariant breach, with the minimized schedule that reproduces it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Violation {
    /// Which oracle fired (`refinement`, `liveness`, `validity`,
    /// `genuineness`).
    pub oracle: String,
    /// Human-readable description of the breach.
    pub detail: String,
    /// A schedule that reproduces the breach from the scenario's
    /// initial state via [`replay_schedule`].
    pub schedule: Schedule,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} violated: {}", self.oracle, self.detail)?;
        write!(f, "schedule:\n{}", self.schedule)
    }
}

/// Exploration statistics and outcome.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Report {
    /// Search states expanded (worlds materialized).
    pub explored: u64,
    /// Branches pruned by state-fingerprint deduplication.
    pub pruned_dedup: u64,
    /// Branches pruned by the sleep-set reduction.
    pub pruned_sleep: u64,
    /// Paths cut by the depth bound.
    pub depth_cutoffs: u64,
    /// Terminal states with nothing left to schedule.
    pub quiescent: u64,
    /// Whether the `max_states` cap stopped the search early.
    pub capped: bool,
    /// Liveness mode only: digest-repeat states examined as potential
    /// lassos (most are benign — a cycle the fairness conditions or the
    /// progress obligation rule out).
    pub lasso_candidates: u64,
    /// The first (minimized) violation found, if any.
    pub violation: Option<Violation>,
}

/// Result of replaying a [`Schedule`] against a scenario.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// The violation hit during replay, if any (oracles run after every
    /// step, exactly as during exploration).
    pub violation: Option<Violation>,
    /// Per-node delivery logs, in delivery order.
    pub delivered: BTreeMap<ProcessId, Vec<(GroupId, ValueId)>>,
    /// Per-node telemetry counters at the end of the replay, by
    /// registry name (empty for a node that is down).
    pub counters: BTreeMap<ProcessId, BTreeMap<String, u64>>,
    /// Per-node engine `state_digest()` at the end of the replay (no
    /// entry for a node that is down).
    pub engine_digests: BTreeMap<ProcessId, u64>,
    /// Whether all channels were empty when the replay finished.
    pub quiescent: bool,
    /// Every choice executed, including steps appended by `drain`.
    pub executed: Vec<Choice>,
    /// The world fingerprint at the end of the replay: two replays of
    /// the same schedule must agree on it (digest stability).
    pub final_digest: u64,
}

// ---------------------------------------------------------------------
// The world: N engines + channels + timers + virtual clocks.
// ---------------------------------------------------------------------

#[derive(Hash)]
struct Durable {
    watermark: mrp_amcast::engine::Watermark,
    state: Bytes,
    delivered: Vec<(GroupId, ValueId)>,
}

struct NodeSlot {
    /// `None` while crashed — but also, transiently, while the engine
    /// is taken out of the slot to be fed an event. `down` is the
    /// authoritative liveness flag.
    engine: Option<Box<dyn AmcastEngine>>,
    /// `true` between a crash and the matching restart. Checked by
    /// [`World::route`] instead of `engine.is_none()`: routing happens
    /// mid-`feed`, when a live node's engine is momentarily out of its
    /// slot, and a self-send from there must not be mistaken for a
    /// frame to a crashed process.
    down: bool,
    delivered: Vec<(GroupId, ValueId)>,
    durable: Option<Durable>,
    /// This node's virtual clock (per-node so timer firings at
    /// different nodes commute; engines never compare clocks across
    /// processes).
    now: Time,
    fires: u32,
    ever_crashed: bool,
}

struct World<'a> {
    scenario: &'a Scenario,
    nodes: BTreeMap<ProcessId, NodeSlot>,
    /// FIFO per ordered pair; self-sends travel through `(p, p)`.
    channels: BTreeMap<(ProcessId, ProcessId), VecDeque<Message>>,
    /// Armed timers per node, keyed by [`timer_kind_key`].
    timers: BTreeMap<ProcessId, TimerTable>,
    budget: FaultBudget,
    /// Values each node must eventually deliver (fault-free validity).
    expected: BTreeMap<ProcessId, usize>,
    any_fault: bool,
    violation: Option<(String, String)>,
    /// The abstract reference machine this path must refine: every
    /// concrete delivery is checked as a spec transition.
    spec: AbstractAmcast,
    /// The message each direct `multicast` submission's value id names
    /// (request-path values carry their name in the payload).
    direct: BTreeMap<ValueId, MsgKey>,
}

impl<'a> World<'a> {
    /// Builds the initial state: engines started, start-up exchange
    /// pumped to quiescence, submissions applied (their frames left in
    /// flight for the exploration to schedule).
    fn build(scenario: &'a Scenario, faults: FaultBudget) -> Result<World<'a>, String> {
        let mut w = World {
            scenario,
            nodes: BTreeMap::new(),
            channels: BTreeMap::new(),
            timers: BTreeMap::new(),
            budget: faults,
            expected: BTreeMap::new(),
            any_fault: false,
            violation: None,
            spec: AbstractAmcast::new(),
            direct: BTreeMap::new(),
        };
        let pids: Vec<ProcessId> = scenario.config.processes().into_iter().collect();
        for &p in &pids {
            w.nodes.insert(
                p,
                NodeSlot {
                    engine: Some((scenario.factory)(p, false)),
                    delivered: Vec::new(),
                    durable: None,
                    now: Time::ZERO,
                    fires: 0,
                    down: false,
                    ever_crashed: false,
                },
            );
        }
        for &p in &pids {
            w.feed(p, Event::Start);
        }
        // The start-up exchange (ring Phase 1, sequencer epochs) is the
        // same under every delivery order we would explore; pump it
        // deterministically so exploration starts at the interesting
        // frontier. Timers stay armed but do not fire here.
        w.pump();
        for (i, sub) in scenario.submissions.iter().enumerate() {
            let at = sub.at;
            // Register the submission with the abstract spec first:
            // deliveries can happen while the submission's own frames
            // are still being applied.
            let dests: BTreeSet<ProcessId> = sub
                .groups
                .iter()
                .flat_map(|&g| scenario.config.subscribers_of(g))
                .collect();
            let (client, request) = (ClientId::new(9_000 + i as u64), 1);
            w.spec.submit((client, request), sub.groups.clone(), dests);
            if sub.via_request {
                let msg = Message::Request {
                    client,
                    request,
                    groups: sub.groups.clone(),
                    payload: sub.payload.clone(),
                };
                w.feed(at, Event::Message { from: at, msg });
            } else {
                let now = w.nodes[&at].now;
                let mut engine = w
                    .nodes
                    .get_mut(&at)
                    .and_then(|s| s.engine.take())
                    .ok_or_else(|| format!("submitter {} not alive", at.value()))?;
                let res = engine.multicast(now, &sub.groups, sub.payload.clone());
                w.nodes.get_mut(&at).expect("slot exists").engine = Some(engine);
                let (id, actions) = res.map_err(|e| format!("submission {i} rejected: {e:?}"))?;
                // Direct submissions have no client session, but they
                // reveal their value id up front.
                w.direct.insert(id, (client, request));
                w.apply(at, actions);
            }
            for (p, count) in w.expected_for(&sub.groups) {
                *w.expected.entry(p).or_insert(0) += count;
            }
        }
        // A violation during setup (e.g. genuineness on a submission's
        // own sends) stays recorded in `w.violation`: the caller
        // surfaces it as a violation with an empty schedule.
        Ok(w)
    }

    /// Delivers frames in deterministic (first non-empty channel)
    /// order until none remain: collapses the start-up exchange, whose
    /// interleavings are not interesting, into one canonical run. No
    /// timers fire here.
    fn pump(&mut self) {
        for _ in 0..100_000 {
            let next = self
                .channels
                .iter()
                .find(|((_, to), q)| {
                    !q.is_empty() && self.nodes.get(to).is_some_and(|s| s.engine.is_some())
                })
                .map(|(&(from, to), _)| (from, to));
            let Some((from, to)) = next else { return };
            let msg = self
                .channels
                .get_mut(&(from, to))
                .and_then(VecDeque::pop_front)
                .expect("channel just observed non-empty");
            self.feed(to, Event::Message { from, msg });
        }
        panic!("start-up exchange did not quiesce within 100000 deliveries");
    }

    /// How many of this submission's deliveries each node owes: 1 for
    /// every node subscribed to at least one addressed group.
    fn expected_for(&self, groups: &[GroupId]) -> BTreeMap<ProcessId, usize> {
        let mut out = BTreeMap::new();
        let mut dests: BTreeSet<ProcessId> = BTreeSet::new();
        for &g in groups {
            dests.extend(self.scenario.config.subscribers_of(g));
        }
        for p in dests {
            out.insert(p, 1);
        }
        out
    }

    /// Feeds one event to `pid`'s engine and applies every resulting
    /// action; persists complete inline (the checker models a durable,
    /// instantaneous store), so `PersistDone` events chain in-place.
    fn feed(&mut self, pid: ProcessId, event: Event) {
        let Some(mut engine) = self.nodes.get_mut(&pid).and_then(|s| s.engine.take()) else {
            return;
        };
        let mut queue = VecDeque::new();
        queue.push_back(event);
        while let Some(ev) = queue.pop_front() {
            let now = self.nodes[&pid].now;
            for action in engine.on_event(now, ev) {
                self.apply_one(pid, action, &mut queue);
            }
        }
        self.nodes.get_mut(&pid).expect("slot exists").engine = Some(engine);
    }

    /// Applies actions produced outside `feed` (multicast, trim,
    /// resume); persist completions chain through the engine.
    fn apply(&mut self, pid: ProcessId, actions: Vec<Action>) {
        let mut queue = VecDeque::new();
        for action in actions {
            self.apply_one(pid, action, &mut queue);
        }
        while let Some(ev) = queue.pop_front() {
            // Re-enter the engine for the chained persist completions.
            let Some(mut engine) = self.nodes.get_mut(&pid).and_then(|s| s.engine.take()) else {
                return;
            };
            let now = self.nodes[&pid].now;
            for action in engine.on_event(now, ev) {
                self.apply_one(pid, action, &mut queue);
            }
            self.nodes.get_mut(&pid).expect("slot exists").engine = Some(engine);
        }
    }

    fn apply_one(&mut self, pid: ProcessId, action: Action, queue: &mut VecDeque<Event>) {
        match action {
            Action::Send { to, msg } => self.route(pid, to, msg),
            Action::SetTimer { after_us, timer } => {
                let due = self.nodes[&pid].now.plus(after_us);
                self.timers
                    .entry(pid)
                    .or_default()
                    .insert(timer_kind_key(timer), (timer, due));
            }
            Action::Persist { token, .. } => queue.push_back(Event::PersistDone(token)),
            Action::TrimStorage { .. } => {}
            Action::Deliver { group, value, .. } => {
                // The refinement oracle: a delivery the abstract spec
                // rejects means this trace is not a spec behavior.
                let key = self.direct.get(&value.id).copied();
                if let Err(detail) = self.spec.deliver(pid, key.or_else(|| request_key(&value))) {
                    if self.violation.is_none() {
                        self.violation = Some(("refinement".into(), detail));
                    }
                }
                let slot = self.nodes.get_mut(&pid).expect("slot exists");
                slot.delivered.push((group, value.id));
            }
            Action::Respond { .. } => {}
        }
    }

    /// Routes one frame; sends to crashed processes vanish (their
    /// connections are down), everything else queues FIFO — including
    /// self-sends, which the engines already require to be deferred.
    fn route(&mut self, from: ProcessId, to: ProcessId, msg: Message) {
        self.genuineness_check(to, &msg);
        if self.nodes.get(&to).is_none_or(|s| s.down) {
            return;
        }
        self.channels.entry((from, to)).or_default().push_back(msg);
    }

    /// The genuineness oracle, checked at send time: with a configured
    /// allow-set, no frame that references a submitted value's payload
    /// may travel to a process outside it. Recurses into coalesced
    /// batches.
    fn genuineness_check(&mut self, to: ProcessId, msg: &Message) {
        let Some(allowed) = &self.scenario.value_frame_allowed else {
            return;
        };
        if allowed.contains(&to) || self.violation.is_some() {
            return;
        }
        if message_carries_value(msg) {
            self.violation = Some((
                "genuineness".into(),
                format!(
                    "a value-bearing frame was sent to process {}, outside the addressed \
                     groups' process set",
                    to.value()
                ),
            ));
        }
    }

    /// All schedulable choices in canonical order.
    fn enabled(&self, cfg: &CheckerConfig) -> Vec<Choice> {
        let mut out = Vec::new();
        for (&(from, to), q) in &self.channels {
            if !q.is_empty() && self.nodes.get(&to).is_some_and(|s| s.engine.is_some()) {
                out.push(Choice::Deliver { from, to });
            }
        }
        for (&p, slot) in &self.nodes {
            if slot.engine.is_some() && slot.fires < cfg.max_timer_fires {
                if let Some(timers) = self.timers.get(&p) {
                    for &(timer, _) in timers.values() {
                        out.push(Choice::Fire { node: p, timer });
                    }
                }
            }
        }
        if self.budget.drops > 0 || self.budget.dups > 0 {
            for (&(from, to), q) in &self.channels {
                if q.is_empty() {
                    continue;
                }
                if self.budget.drops > 0 {
                    out.push(Choice::Drop { from, to });
                }
                if self.budget.dups > 0 {
                    out.push(Choice::Duplicate { from, to });
                }
            }
        }
        for (&p, slot) in &self.nodes {
            if slot.engine.is_some() {
                if self.budget.checkpoints > 0 {
                    out.push(Choice::Checkpoint { node: p });
                }
                if self.budget.crashes > 0 {
                    out.push(Choice::Crash { node: p });
                }
            } else {
                out.push(Choice::Restart { node: p });
            }
        }
        out.sort();
        out
    }

    /// Executes one choice. `Err` means the choice is not applicable in
    /// this state (only possible when replaying an external or shrunken
    /// schedule; exploration only steps enabled choices).
    fn step(&mut self, choice: Choice) -> Result<(), String> {
        match choice {
            Choice::Deliver { from, to } => {
                let msg = self.pop(from, to)?;
                if self.nodes.get(&to).is_some_and(|s| s.engine.is_some()) {
                    self.feed(to, Event::Message { from, msg });
                } else {
                    return Err(format!("deliver to crashed node {}", to.value()));
                }
            }
            Choice::Fire { node, timer } => {
                let due = self
                    .timers
                    .get_mut(&node)
                    .and_then(|t| t.remove(&timer_kind_key(timer)))
                    .ok_or_else(|| format!("timer {} not armed", timer_name(timer)))?
                    .1;
                let slot = self.nodes.get_mut(&node).ok_or("no such node")?;
                if slot.engine.is_none() {
                    return Err(format!("fire on crashed node {}", node.value()));
                }
                slot.now = slot.now.max(due);
                slot.fires += 1;
                self.feed(node, Event::Timer(timer));
            }
            Choice::Drop { from, to } => {
                self.pop(from, to)?;
                self.budget.drops = self.budget.drops.checked_sub(1).ok_or("drop budget")?;
                self.any_fault = true;
            }
            Choice::Duplicate { from, to } => {
                let q = self
                    .channels
                    .get_mut(&(from, to))
                    .ok_or("no such channel")?;
                let front = q.front().cloned().ok_or("empty channel")?;
                q.push_back(front);
                self.budget.dups = self.budget.dups.checked_sub(1).ok_or("dup budget")?;
                self.any_fault = true;
            }
            Choice::Checkpoint { node } => {
                let mut engine = self
                    .nodes
                    .get_mut(&node)
                    .and_then(|s| s.engine.take())
                    .ok_or_else(|| format!("checkpoint on crashed node {}", node.value()))?;
                let watermark = engine.watermark();
                let state = engine.checkpoint_state();
                let now = self.nodes[&node].now;
                let actions = engine.trim(now, &watermark);
                let slot = self.nodes.get_mut(&node).expect("slot exists");
                slot.durable = Some(Durable {
                    watermark,
                    state,
                    delivered: slot.delivered.clone(),
                });
                slot.engine = Some(engine);
                self.apply(node, actions);
                self.budget.checkpoints = self
                    .budget
                    .checkpoints
                    .checked_sub(1)
                    .ok_or("ckpt budget")?;
            }
            Choice::Crash { node } => {
                let slot = self.nodes.get_mut(&node).ok_or("no such node")?;
                if slot.engine.take().is_none() {
                    return Err(format!("node {} already crashed", node.value()));
                }
                slot.down = true;
                slot.ever_crashed = true;
                self.timers.remove(&node);
                // Undelivered inbound frames die with the connections.
                for ((_, to), q) in &mut self.channels {
                    if *to == node {
                        q.clear();
                    }
                }
                self.budget.crashes = self.budget.crashes.checked_sub(1).ok_or("crash budget")?;
                self.any_fault = true;
            }
            Choice::Restart { node } => {
                let slot = self.nodes.get_mut(&node).ok_or("no such node")?;
                if slot.engine.is_some() {
                    return Err(format!("node {} is not crashed", node.value()));
                }
                slot.down = false;
                let mut engine = (self.scenario.factory)(node, true);
                match &slot.durable {
                    Some(d) => {
                        engine.install_checkpoint(&d.watermark, &d.state);
                        slot.delivered = d.delivered.clone();
                    }
                    None => slot.delivered.clear(),
                }
                slot.engine = Some(engine);
                // Mirror the crash in the spec: the delivery sequence
                // resumes from the durable prefix (order edges persist
                // — uniformity).
                let keep = slot.delivered.len();
                self.spec.truncate(node, keep);
                self.feed(node, Event::Start);
                let now = self.nodes[&node].now;
                let mut engine = self
                    .nodes
                    .get_mut(&node)
                    .and_then(|s| s.engine.take())
                    .expect("just restarted");
                let actions = engine.resume(now);
                self.nodes.get_mut(&node).expect("slot exists").engine = Some(engine);
                self.apply(node, actions);
            }
        }
        Ok(())
    }

    fn pop(&mut self, from: ProcessId, to: ProcessId) -> Result<Message, String> {
        self.channels
            .get_mut(&(from, to))
            .and_then(VecDeque::pop_front)
            .ok_or_else(|| format!("channel {}>{} empty", from.value(), to.value()))
    }

    /// Deterministically delivers every frame until quiescence (first
    /// non-empty channel first), collecting the executed choices. When
    /// deliveries alone stall, due timers fire (earliest due first) to
    /// unblock protocol rounds that need a tick. Bounded by `max_steps`.
    fn drain(&mut self, max_steps: usize, executed: &mut Vec<Choice>) {
        let mut fires = 0usize;
        for _ in 0..max_steps {
            if self.violation.is_some() {
                return;
            }
            let deliver = self
                .channels
                .iter()
                .find(|((_, to), q)| {
                    !q.is_empty() && self.nodes.get(to).is_some_and(|s| s.engine.is_some())
                })
                .map(|(&(from, to), _)| Choice::Deliver { from, to });
            let choice = match deliver {
                Some(c) => c,
                None => {
                    if self.validity_met() || fires >= max_steps / 2 {
                        return;
                    }
                    // Fire the earliest-due armed timer anywhere.
                    let next = self
                        .timers
                        .iter()
                        .flat_map(|(&p, ts)| ts.values().map(move |&(timer, due)| (due, p, timer)))
                        .filter(|(_, p, _)| self.nodes.get(p).is_some_and(|s| s.engine.is_some()))
                        .min_by_key(|&(due, p, timer)| (due, p, timer_kind_key(timer)));
                    match next {
                        Some((_, node, timer)) => {
                            fires += 1;
                            Choice::Fire { node, timer }
                        }
                        None => return,
                    }
                }
            };
            if self.step(choice).is_err() {
                return;
            }
            executed.push(choice);
        }
    }

    fn validity_met(&self) -> bool {
        self.expected.iter().all(|(p, &want)| {
            self.nodes
                .get(p)
                .is_some_and(|s| s.engine.is_none() || s.delivered.len() >= want)
        })
    }

    /// The validity oracle: at fault-free quiescence, every live node
    /// has delivered every value addressed to a group it subscribes to.
    fn check_validity(&mut self) {
        if self.violation.is_some() || self.any_fault {
            return;
        }
        for (&p, &want) in &self.expected {
            let got = self.nodes.get(&p).map_or(0, |s| s.delivered.len());
            if got < want {
                self.violation = Some((
                    "validity".into(),
                    format!(
                        "process {} delivered {got} of {want} values addressed to its \
                         subscriptions at quiescence",
                        p.value()
                    ),
                ));
                return;
            }
        }
    }

    /// Fingerprint of everything that influences future behavior:
    /// engine digests, clocks, channels, timers, delivery logs, durable
    /// checkpoints, remaining budgets and the abstract spec state.
    fn digest(&self) -> u64 {
        self.digest_with(false)
    }

    /// The progress-insensitive fingerprint the lasso detector cycles
    /// over: like [`digest`](World::digest) but without the per-node
    /// clocks, fire counters and timer due times — all monotonically
    /// advancing, so a wedged protocol revisits the *same* liveness
    /// digest while its full digest keeps changing.
    fn liveness_digest(&self) -> u64 {
        self.digest_with(true)
    }

    fn digest_with(&self, progress_insensitive: bool) -> u64 {
        let mut h = Fnv1a::new();
        self.nodes.len().hash(&mut h);
        for (p, slot) in &self.nodes {
            p.hash(&mut h);
            if !progress_insensitive {
                (slot.now, slot.fires).hash(&mut h);
            }
            slot.engine.as_ref().map(|e| e.state_digest()).hash(&mut h);
            slot.delivered.hash(&mut h);
            slot.durable.hash(&mut h);
        }
        let busy: Vec<_> = self
            .channels
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .collect();
        busy.hash(&mut h);
        self.timers.len().hash(&mut h);
        for (p, timers) in &self.timers {
            (p, timers.len()).hash(&mut h);
            for (key, (_, due)) in timers {
                key.hash(&mut h);
                if !progress_insensitive {
                    due.hash(&mut h);
                }
            }
        }
        (self.budget, self.any_fault).hash(&mut h);
        self.spec.hash(&mut h);
        h.finish()
    }

    /// Judges a digest-repeating DFS segment as a non-progress lasso.
    /// `segment` is the choice sequence between the two states with
    /// equal [`liveness_digest`](World::liveness_digest)s; `self` is
    /// the state at the cycle's (re-)entry point. Returns the violation
    /// detail when all of the following hold:
    ///
    /// * some live node still owes expected deliveries (a submitted
    ///   message never delivers),
    /// * every node is up (a crashed node explains any stall — the
    ///   `restart` choice, not the protocol, is what is being starved),
    /// * every timer armed at the cycle state fired inside the segment
    ///   and every non-empty channel was delivered from inside it (weak
    ///   fairness: the Δ-paced retry/orphan machinery got its chance).
    ///
    /// Budget-consuming choices cannot occur inside a candidate segment
    /// at all: budgets only decrease and are part of the digest, so the
    /// endpoints would not match.
    fn lasso_violation(&self, segment: &[Choice]) -> Option<String> {
        if segment.is_empty() {
            return None;
        }
        if !self.nodes.values().all(|s| s.engine.is_some() && !s.down) {
            return None;
        }
        let owed: Vec<String> = self
            .expected
            .iter()
            .filter_map(|(&p, &want)| {
                let got = self.nodes.get(&p).map_or(0, |s| s.delivered.len());
                (got < want).then(|| format!("p{} delivered {got}/{want}", p.value()))
            })
            .collect();
        if owed.is_empty() {
            return None;
        }
        for (&p, timers) in &self.timers {
            for &(timer, _) in timers.values() {
                let fired = segment.iter().any(|c| {
                    matches!(c, Choice::Fire { node, timer: t }
                        if *node == p && timer_kind_key(*t) == timer_kind_key(timer))
                });
                if !fired {
                    return None;
                }
            }
        }
        for (&(from, to), q) in &self.channels {
            if q.is_empty() {
                continue;
            }
            let served = segment
                .iter()
                .any(|c| matches!(c, Choice::Deliver { from: f, to: t } if *f == from && *t == to));
            if !served {
                return None;
            }
        }
        Some(format!(
            "non-progress cycle of {} step(s): {} although every armed timer fired and \
             every in-flight frame was delivered inside the cycle",
            segment.len(),
            owed.join(", "),
        ))
    }
}

// ---------------------------------------------------------------------
// The checker: stateless DFS with dedup + sleep sets.
// ---------------------------------------------------------------------

/// Number of deterministic steps the quiescence drain may take when
/// closing out a terminal state for the validity oracle.
const DRAIN_STEPS: usize = 400;

/// A bounded model checker over one [`Scenario`].
///
/// Engines are rebuilt and the choice prefix replayed for every search
/// node (stateless search), so the scenario factory must be
/// deterministic — which is exactly the sans-io contract the
/// [`lint`](crate::lint) pass enforces.
pub struct Checker<'a> {
    scenario: &'a Scenario,
    cfg: CheckerConfig,
    report: Report,
    /// digest → sleep sets it was expanded with (subset rule).
    seen: BTreeMap<u64, Vec<BTreeSet<Choice>>>,
    /// Liveness mode: the progress-insensitive digests of every prefix
    /// of the current DFS path (index i = prefix of length i), scanned
    /// for repeats — a repeat is a lasso candidate.
    live_stack: Vec<u64>,
}

impl fmt::Debug for Checker<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Checker")
            .field("scenario", &self.scenario.name)
            .field("cfg", &self.cfg)
            .field("report", &self.report)
            .finish_non_exhaustive()
    }
}

impl<'a> Checker<'a> {
    /// Creates a checker for `scenario` with the given bounds.
    pub fn new(scenario: &'a Scenario, cfg: CheckerConfig) -> Self {
        Self {
            scenario,
            cfg,
            report: Report::default(),
            seen: BTreeMap::new(),
            live_stack: Vec::new(),
        }
    }

    /// Runs the bounded exploration and returns the report. On a
    /// violation the offending schedule is minimized before being
    /// returned; exploration stops at the first violation.
    pub fn run(&mut self) -> Report {
        let mut path = Vec::new();
        self.live_stack.clear();
        if let Err(v) = self.explore(&mut path, BTreeSet::new()) {
            let minimized = self.minimize(v);
            self.report.violation = Some(minimized);
        }
        self.report.clone()
    }

    /// Replays `path` from the initial state; `Err` carries the first
    /// violation (with the prefix that reaches it as its schedule).
    fn replay(&self, path: &[Choice]) -> Result<(World<'a>, usize), Violation> {
        let mut world = World::build(self.scenario, self.cfg.faults)
            .unwrap_or_else(|e| panic!("scenario `{}` failed setup: {e}", self.scenario.name));
        if let Some((oracle, detail)) = world.violation.clone() {
            return Err(Violation {
                oracle,
                detail,
                schedule: Schedule::default(),
            });
        }
        for (i, &c) in path.iter().enumerate() {
            if let Err(e) = world.step(c) {
                // Only reachable when shrinking hands us a stale prefix.
                return Err(Violation {
                    oracle: "inapplicable".into(),
                    detail: e,
                    schedule: Schedule {
                        steps: path[..i].to_vec(),
                        drain: false,
                    },
                });
            }
            if let Some((oracle, detail)) = world.violation.clone() {
                return Err(Violation {
                    oracle,
                    detail,
                    schedule: Schedule {
                        steps: path[..=i].to_vec(),
                        drain: false,
                    },
                });
            }
        }
        Ok((world, path.len()))
    }

    fn explore(
        &mut self,
        path: &mut Vec<Choice>,
        sleep: BTreeSet<Choice>,
    ) -> Result<(), Violation> {
        if self.cfg.max_states > 0 && self.report.explored >= self.cfg.max_states {
            self.report.capped = true;
            return Ok(());
        }
        let (world, _) = self.replay(path)?;
        self.report.explored += 1;
        if self.cfg.liveness {
            let ld = world.liveness_digest();
            // A repeat against any shorter prefix of the current path
            // is a cycle; the earliest match gives the longest segment,
            // which the fairness conditions judge most precisely (the
            // minimizer shrinks the counterexample afterwards).
            if let Some(j) = self.live_stack.iter().position(|&d| d == ld) {
                self.report.lasso_candidates += 1;
                if let Some(detail) = world.lasso_violation(&path[j..]) {
                    return Err(Violation {
                        oracle: "liveness".into(),
                        detail,
                        schedule: Schedule {
                            steps: path.clone(),
                            drain: false,
                        },
                    });
                }
            }
            self.live_stack.push(ld);
            let res = self.expand(path, sleep, world);
            self.live_stack.pop();
            res
        } else {
            self.expand(path, sleep, world)
        }
    }

    /// The expansion half of [`explore`](Checker::explore): dedup, the
    /// depth/quiescence close-out and recursion into child choices.
    fn expand(
        &mut self,
        path: &mut Vec<Choice>,
        sleep: BTreeSet<Choice>,
        mut world: World<'a>,
    ) -> Result<(), Violation> {
        if self.cfg.dedup {
            let d = world.digest();
            let entries = self.seen.entry(d).or_default();
            if entries.iter().any(|s| s.is_subset(&sleep)) {
                self.report.pruned_dedup += 1;
                return Ok(());
            }
            entries.retain(|s| !sleep.is_subset(s));
            entries.push(sleep.clone());
        }
        let enabled = world.enabled(&self.cfg);
        let choices: Vec<Choice> = if self.cfg.por {
            let kept: Vec<Choice> = enabled
                .iter()
                .filter(|c| !sleep.contains(c))
                .copied()
                .collect();
            self.report.pruned_sleep += (enabled.len() - kept.len()) as u64;
            kept
        } else {
            enabled
        };
        if path.len() >= self.cfg.depth || choices.is_empty() {
            if path.len() >= self.cfg.depth {
                self.report.depth_cutoffs += 1;
            } else {
                self.report.quiescent += 1;
            }
            // Close out: drain deterministically and assert validity on
            // fault-free paths. The drained world is discarded (the
            // next sibling replays from the root anyway).
            if !world.any_fault {
                let mut executed = Vec::new();
                world.drain(DRAIN_STEPS, &mut executed);
                world.check_validity();
                if let Some((oracle, detail)) = world.violation.clone() {
                    // The drain is deterministic, so the counterexample
                    // records only the scripted prefix plus the `drain`
                    // directive — the replayer re-derives the rest and
                    // re-asserts validity at quiescence.
                    return Err(Violation {
                        oracle,
                        detail,
                        schedule: Schedule {
                            steps: path.clone(),
                            drain: true,
                        },
                    });
                }
            }
            return Ok(());
        }
        let mut slept = sleep;
        for c in choices {
            let child_sleep: BTreeSet<Choice> = slept
                .iter()
                .filter(|x| !dependent(x, &c))
                .copied()
                .collect();
            path.push(c);
            let res = self.explore(path, child_sleep);
            path.pop();
            res?;
            slept.insert(c);
        }
        Ok(())
    }

    /// Greedy delta-debugging shrink: one backward pass dropping each
    /// choice whose removal keeps the violation (same oracle)
    /// reproducible. A single pass bounds minimization at `O(n)`
    /// replays; validity violations found at quiescence close-out are
    /// re-detected by draining the shortened prefix.
    fn minimize(&self, violation: Violation) -> Violation {
        let oracle = violation.oracle.clone();
        let mut best = violation;
        let mut i = best.schedule.steps.len();
        while i > 0 {
            i -= 1;
            if i >= best.schedule.steps.len() {
                continue;
            }
            let mut candidate: Vec<Choice> = best.schedule.steps.clone();
            candidate.remove(i);
            if let Some(v) = self.reproduce(&candidate, &oracle) {
                best = v;
            }
        }
        best
    }

    /// Replays `candidate` (plus a validity close-out drain when
    /// applicable) and returns the violation if `oracle` reproduces.
    fn reproduce(&self, candidate: &[Choice], oracle: &str) -> Option<Violation> {
        if oracle == "liveness" {
            return self.reproduce_liveness(candidate);
        }
        match self.replay(candidate) {
            Err(v) if v.oracle == oracle => Some(v),
            Err(_) => None,
            Ok((mut world, _)) => {
                if oracle != "validity" || world.any_fault {
                    return None;
                }
                let mut sink = Vec::new();
                world.drain(DRAIN_STEPS, &mut sink);
                world.check_validity();
                match world.violation.clone() {
                    Some((o, detail)) if o == oracle => Some(Violation {
                        oracle: o,
                        detail,
                        schedule: Schedule {
                            steps: candidate.to_vec(),
                            drain: true,
                        },
                    }),
                    _ => None,
                }
            }
        }
    }

    /// Replays `candidate` with lasso detection after every step (same
    /// fault budgets as the exploration, so the digests agree) and
    /// returns the first liveness violation, trimmed to the prefix that
    /// closes the cycle.
    fn reproduce_liveness(&self, candidate: &[Choice]) -> Option<Violation> {
        let mut world = World::build(self.scenario, self.cfg.faults).ok()?;
        if world.violation.is_some() {
            return None;
        }
        let mut stack = vec![world.liveness_digest()];
        for (i, &c) in candidate.iter().enumerate() {
            if world.step(c).is_err() || world.violation.is_some() {
                return None;
            }
            let ld = world.liveness_digest();
            if let Some(j) = stack.iter().position(|&d| d == ld) {
                if let Some(detail) = world.lasso_violation(&candidate[j..=i]) {
                    return Some(Violation {
                        oracle: "liveness".into(),
                        detail,
                        schedule: Schedule {
                            steps: candidate[..=i].to_vec(),
                            drain: false,
                        },
                    });
                }
            }
            stack.push(ld);
        }
        None
    }
}

/// Convenience: explore `scenario` under `cfg` and return the report.
pub fn check(scenario: &Scenario, cfg: CheckerConfig) -> Report {
    Checker::new(scenario, cfg).run()
}

/// Replays a [`Schedule`] against a scenario, judging every step as
/// exploration does; with [`Schedule::drain`] set, the system
/// is then driven deterministically to quiescence and the validity
/// oracle asserted (fault-free replays only).
///
/// # Errors
///
/// Fails when a scripted choice is not applicable in the state it is
/// reached in (wrong channel, dead node, unarmed timer) — i.e. the
/// schedule no longer matches the protocol's behavior.
pub fn replay_schedule(scenario: &Scenario, schedule: &Schedule) -> Result<ReplayOutcome, String> {
    let mut world = World::build(
        scenario,
        FaultBudget {
            // Replays are scripts, not searches: let them perform any fault
            // the schedule asks for.
            drops: u32::MAX,
            dups: u32::MAX,
            crashes: u32::MAX,
            checkpoints: u32::MAX,
        },
    )?;
    let mut executed = Vec::new();
    // Scripted liveness counterexamples (lassos) are re-detected during
    // replay, so a checked-in `.sched` for a stall reproduces like any
    // safety schedule does.
    let mut live_stack = vec![world.liveness_digest()];
    for (i, &c) in schedule.steps.iter().enumerate() {
        if world.violation.is_some() {
            break;
        }
        world
            .step(c)
            .map_err(|e| format!("step {} (`{c}`): {e}", i + 1))?;
        executed.push(c);
        if world.violation.is_none() {
            let ld = world.liveness_digest();
            if let Some(j) = live_stack.iter().position(|&d| d == ld) {
                if let Some(detail) = world.lasso_violation(&executed[j..]) {
                    world.violation = Some(("liveness".into(), detail));
                }
            }
            live_stack.push(ld);
        }
    }
    if schedule.drain && world.violation.is_none() {
        world.drain(DRAIN_STEPS, &mut executed);
        if !world.any_fault {
            world.check_validity();
        } else {
            // A scripted fault still demands eventual delivery from the
            // survivors: assert validity over live nodes only.
            world.check_validity_live();
        }
    }
    let violation = world.violation.clone().map(|(oracle, detail)| Violation {
        oracle,
        detail,
        schedule: Schedule {
            steps: executed.clone(),
            drain: false,
        },
    });
    let final_digest = world.digest();
    let quiescent = world.channels.values().all(VecDeque::is_empty);
    let delivered = world
        .nodes
        .iter()
        .map(|(&p, s)| (p, s.delivered.clone()))
        .collect();
    let counters = world
        .nodes
        .iter()
        .map(|(&p, s)| {
            let c = s.engine.as_ref().map(|e| e.telemetry().counters);
            (p, c.unwrap_or_default())
        })
        .collect();
    let engine_digests = world
        .nodes
        .iter()
        .filter_map(|(&p, s)| Some((p, s.engine.as_ref()?.state_digest())))
        .collect();
    Ok(ReplayOutcome {
        violation,
        delivered,
        counters,
        engine_digests,
        quiescent,
        executed,
        final_digest,
    })
}

impl World<'_> {
    /// Validity restricted to never-crashed nodes: what a faulty run
    /// still owes (uniformity for survivors).
    fn check_validity_live(&mut self) {
        if self.violation.is_some() {
            return;
        }
        for (&p, &want) in &self.expected {
            let Some(slot) = self.nodes.get(&p) else {
                continue;
            };
            if slot.ever_crashed || slot.engine.is_none() {
                continue;
            }
            if slot.delivered.len() < want {
                self.violation = Some((
                    "validity".into(),
                    format!(
                        "surviving process {} delivered {} of {} values addressed to its \
                         subscriptions after drain",
                        p.value(),
                        slot.delivered.len(),
                        want
                    ),
                ));
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_keys_are_distinct() {
        let kinds = [
            TimerKind::Delta(GroupId::new(0)),
            TimerKind::Delta(GroupId::new(1)),
            TimerKind::GapCheck(GroupId::new(0)),
            TimerKind::TrimTick(GroupId::new(0)),
            TimerKind::ProposalResend(GroupId::new(0)),
            TimerKind::CheckpointTick,
            TimerKind::RecoveryRetry,
            TimerKind::SubmitFlush,
        ];
        let keys: BTreeSet<(u8, u16)> = kinds.iter().map(|&k| timer_kind_key(k)).collect();
        assert_eq!(keys.len(), kinds.len());
    }
}
