//! The bounded model checker: exhaustive interleaving exploration over
//! sans-io engine nodes.
//!
//! A [`Checker`] instantiates one engine per process of a
//! [`Scenario`], drains the start-up exchange deterministically,
//! applies the scenario's submissions,
//! and then explores **every schedule** of the resulting in-flight
//! choices — message deliveries, timer firings and (within a
//! [`FaultBudget`]) frame drops, frame duplications, checkpoints,
//! crashes and restarts — up to a configurable depth.
//!
//! Exploration is *stateless*: engines are not `Clone`, so each search
//! node is reconstructed by replaying its choice prefix from the root.
//! Every replay — a search node, a candidate of the minimizer, a
//! checked-in [`Schedule`] — goes through one step loop that judges
//! each step as it runs, and every path ends in one close-out: drain,
//! then validity. Two prunings keep the tree tractable:
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
use multiring_paxos::host::Host;
use multiring_paxos::types::{ClientId, GroupId, ProcessId, Time, ValueId};

use crate::scenario::Scenario;
use crate::spec::{request_key, AbstractAmcast, MsgKey};

/// One scheduling decision: the atomic unit of a [`Schedule`]. The
/// canonical exploration order is `Ord`'s: by variant in declaration
/// order, then by field.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
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

/// The timer `text` names in a schedule: [`timer_name`]'s inverse,
/// with a missing ring read as ring 0.
fn parse_timer(text: &str) -> Result<TimerKind, String> {
    let (name, ring) = text.split_once(':').unwrap_or((text, "0"));
    let ring = GroupId::new(
        ring.parse()
            .map_err(|_| format!("bad ring in timer `{text}`"))?,
    );
    [
        TimerKind::Delta(ring),
        TimerKind::GapCheck(ring),
        TimerKind::TrimTick(ring),
        TimerKind::ProposalResend(ring),
        TimerKind::CheckpointTick,
        TimerKind::RecoveryRetry,
        TimerKind::SubmitFlush,
    ]
    .into_iter()
    .find(|&kind| timer_name(kind).split(':').next() == Some(name))
    .ok_or_else(|| format!("unknown timer `{name}`"))
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

/// Exploration bounds and the pruning switch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CheckerConfig {
    /// Maximum schedule length (choices per path).
    pub depth: usize,
    /// Maximum explicit timer firings per node along one path (timers
    /// re-arm forever; this keeps the tree finite).
    pub max_timer_fires: u32,
    /// Fault branching budget.
    pub faults: FaultBudget,
    /// Prune the search: state-fingerprint deduplication plus sleep-set
    /// partial-order reduction. Off only for the naive DFS that the
    /// reduction is measured against.
    pub reduce: bool,
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
            reduce: true,
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

/// An engine behind the host every runtime drives it through.
type Hosted = Host<Box<dyn AmcastEngine>>;

struct NodeSlot {
    /// The engine and the timers it armed; `None` between a crash and
    /// the matching restart (and while [`World::drive`] holds it).
    host: Option<Hosted>,
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
    budget: FaultBudget,
    /// Values each node must eventually deliver: one per submission
    /// addressed to a group it subscribes to.
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
    /// drained, submissions applied (their frames left in flight for
    /// the exploration to schedule).
    fn build(scenario: &'a Scenario, faults: FaultBudget) -> Result<World<'a>, String> {
        let mut w = World {
            scenario,
            nodes: BTreeMap::new(),
            channels: BTreeMap::new(),
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
                    host: Some(Host::new((scenario.factory)(p, false))),
                    delivered: Vec::new(),
                    durable: None,
                    now: Time::ZERO,
                    fires: 0,
                    ever_crashed: false,
                },
            );
        }
        for &p in &pids {
            w.feed(p, Event::Start)?;
        }
        // The start-up exchange (ring Phase 1, sequencer epochs) is the
        // same under every delivery order we would explore; drain it
        // deterministically so exploration starts at the interesting
        // frontier. Nothing is owed yet, so no timer fires here.
        w.drain();
        assert!(
            w.channels.values().all(VecDeque::is_empty),
            "start-up exchange did not quiesce within {DRAIN_STEPS} deliveries"
        );
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
            for &p in &dests {
                *w.expected.entry(p).or_insert(0) += 1;
            }
            let (client, request) = (ClientId::new(9_000 + i as u64), 1);
            w.spec.submit((client, request), sub.groups.clone(), dests);
            if sub.via_request {
                let msg = Message::Request {
                    client,
                    request,
                    groups: sub.groups.clone(),
                    payload: sub.payload.clone(),
                };
                w.feed(at, Event::Message { from: at, msg })?;
            } else {
                let mut rejected = None;
                w.drive(at, |w, host, now, out| {
                    let engine = host.machine_mut();
                    match engine.multicast(now, &sub.groups, sub.payload.clone()) {
                        // Direct submissions have no client session, but
                        // they reveal their value id up front.
                        Ok((id, actions)) => {
                            w.direct.insert(id, (client, request));
                            host.absorb(now, actions, out);
                        }
                        Err(e) => rejected = Some(e),
                    }
                })?;
                if let Some(e) = rejected {
                    return Err(format!("submission {i} rejected: {e:?}"));
                }
            }
        }
        // A violation during setup (e.g. genuineness on a submission's
        // own sends) stays recorded in `w.violation`: the caller
        // surfaces it as a violation with an empty schedule.
        Ok(w)
    }

    /// The one way to drive an engine: takes `pid`'s host out of its
    /// slot, lets `call` act on it at the node's clock (with the world
    /// at hand, to record what the call returns), puts it back and
    /// applies what the host emitted into `call`'s list, which is its
    /// driver: a `Vec<Action>` keeps no log, so every write is durable on
    /// return and the host feeds each `PersistDone` back within the
    /// call. `Err` when `pid` is down.
    fn drive(
        &mut self,
        pid: ProcessId,
        call: impl FnOnce(&mut Self, &mut Hosted, Time, &mut Vec<Action>),
    ) -> Result<(), String> {
        let slot = self.nodes.get_mut(&pid).ok_or("no such node")?;
        let now = slot.now;
        let mut host = slot
            .host
            .take()
            .ok_or_else(|| format!("node {} is down", pid.value()))?;
        let mut actions = Vec::new();
        call(self, &mut host, now, &mut actions);
        self.nodes.get_mut(&pid).expect("slot exists").host = Some(host);
        for action in actions {
            self.apply_one(pid, action);
        }
        Ok(())
    }

    /// Feeds one event to `pid`'s engine.
    fn feed(&mut self, pid: ProcessId, event: Event) -> Result<(), String> {
        self.drive(pid, |_, host, now, out| {
            host.on_event(now, event, out);
        })
    }

    fn apply_one(&mut self, pid: ProcessId, action: Action) {
        match action {
            Action::Send { to, msg } => self.route(pid, to, msg),
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
            // Trims and replies leave nothing the oracles judge.
            _ => {}
        }
    }

    /// Routes one frame; sends to crashed processes vanish (their
    /// connections are down), everything else queues FIFO — including
    /// self-sends, which the engines already require to be deferred.
    fn route(&mut self, from: ProcessId, to: ProcessId, msg: Message) {
        self.genuineness_check(to, &msg);
        if self.nodes.get(&to).is_none_or(|s| s.host.is_none()) {
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

    /// One `Deliver` per non-empty channel into a live node, in channel
    /// order.
    fn deliverable(&self) -> impl Iterator<Item = Choice> + '_ {
        self.channels
            .iter()
            .filter(|((_, to), q)| {
                !q.is_empty() && self.nodes.get(to).is_some_and(|s| s.host.is_some())
            })
            .map(|(&(from, to), _)| Choice::Deliver { from, to })
    }

    /// All schedulable choices in canonical order.
    fn enabled(&self, cfg: &CheckerConfig) -> Vec<Choice> {
        let mut out: Vec<Choice> = self.deliverable().collect();
        for (&p, slot) in &self.nodes {
            if let Some(host) = slot
                .host
                .as_ref()
                .filter(|_| slot.fires < cfg.max_timer_fires)
            {
                let fire = |(timer, _)| Choice::Fire { node: p, timer };
                out.extend(host.timers().iter().map(fire));
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
            if slot.host.is_some() {
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
                self.feed(to, Event::Message { from, msg })?;
            }
            Choice::Fire { node, timer } => {
                let slot = self.nodes.get_mut(&node).ok_or("no such node")?;
                let due = slot
                    .host
                    .as_ref()
                    .and_then(|host| host.timers().due(timer))
                    .ok_or_else(|| format!("timer {} not armed", timer_name(timer)))?;
                slot.now = slot.now.max(due);
                slot.fires += 1;
                self.drive(node, |_, host, now, out| {
                    assert!(host.fire(now, timer, out), "armed");
                })?;
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
                self.drive(node, |w, host, now, out| {
                    let engine = host.machine_mut();
                    let watermark = engine.watermark();
                    let state = engine.checkpoint_state();
                    let actions = engine.trim(now, &watermark);
                    let slot = w.nodes.get_mut(&node).expect("slot exists");
                    slot.durable = Some(Durable {
                        watermark,
                        state,
                        delivered: slot.delivered.clone(),
                    });
                    host.absorb(now, actions, out);
                })?;
                self.budget.checkpoints = self
                    .budget
                    .checkpoints
                    .checked_sub(1)
                    .ok_or("ckpt budget")?;
            }
            Choice::Crash { node } => {
                let slot = self.nodes.get_mut(&node).ok_or("no such node")?;
                // Its timers go with its host.
                if slot.host.take().is_none() {
                    return Err(format!("node {} already crashed", node.value()));
                }
                slot.ever_crashed = true;
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
                if slot.host.is_some() {
                    return Err(format!("node {} is not crashed", node.value()));
                }
                let mut engine = (self.scenario.factory)(node, true);
                match &slot.durable {
                    Some(d) => {
                        engine.install_checkpoint(&d.watermark, &d.state);
                        slot.delivered = d.delivered.clone();
                    }
                    None => slot.delivered.clear(),
                }
                slot.host = Some(Host::new(engine));
                // Mirror the crash in the spec: the delivery sequence
                // resumes from the durable prefix (order edges persist
                // — uniformity).
                let keep = slot.delivered.len();
                self.spec.truncate(node, keep);
                self.feed(node, Event::Start)?;
                self.drive(node, |_, host, now, out| {
                    let actions = host.machine_mut().resume(now);
                    host.absorb(now, actions, out);
                })?;
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

    /// The one step loop: executes `path` from this state and stops
    /// after the first choice that records a violation. With `lassos`
    /// set, the state after each step is also judged by
    /// [`lasso`](World::lasso) against the states before it. Returns
    /// how many choices ran; `Err((i, e))` when choice `i` is not
    /// applicable in the state it is reached in.
    fn run(&mut self, path: &[Choice], lassos: bool) -> Result<usize, (usize, String)> {
        let mut stack = Vec::new();
        if lassos {
            stack.push(self.digest(true));
        }
        for (i, &choice) in path.iter().enumerate() {
            if self.violation.is_some() {
                return Ok(i);
            }
            self.step(choice).map_err(|e| (i, e))?;
            if lassos && self.violation.is_none() {
                if let Some(Some(detail)) = self.lasso(&mut stack, &path[..=i]) {
                    self.violation = Some(("liveness".into(), detail));
                }
            }
        }
        Ok(path.len())
    }

    /// Deterministically delivers every frame until quiescence (first
    /// non-empty channel first) and returns the choices it executed.
    /// When deliveries alone stall while a live node is still owed a
    /// delivery, due timers fire (earliest due first) to unblock
    /// protocol rounds that need a tick. Bounded by [`DRAIN_STEPS`].
    fn drain(&mut self) -> Vec<Choice> {
        let mut executed = Vec::new();
        let mut fires = 0usize;
        for _ in 0..DRAIN_STEPS {
            if self.violation.is_some() {
                break;
            }
            let choice = match self.deliverable().next() {
                Some(c) => c,
                None => {
                    if self.owed(|s| s.host.is_none()).is_empty() || fires >= DRAIN_STEPS / 2 {
                        break;
                    }
                    // Fire the earliest-due armed timer anywhere.
                    let next = self
                        .nodes
                        .iter()
                        .filter_map(|(&p, s)| {
                            let (due, timer) = s.host.as_ref()?.timers().next()?;
                            Some((due, p, timer))
                        })
                        .min();
                    let Some((_, node, timer)) = next else { break };
                    fires += 1;
                    Choice::Fire { node, timer }
                }
            };
            if self.step(choice).is_err() {
                break;
            }
            executed.push(choice);
        }
        executed
    }

    /// The close-out of a path: [`drain`](World::drain), then the
    /// validity oracle — every node has delivered every value addressed
    /// to a group it subscribes to, a node that ever crashed excused
    /// (after a fault-free path, nobody is). Returns the drained
    /// choices.
    fn close_out(&mut self) -> Vec<Choice> {
        let drained = self.drain();
        if self.violation.is_none() {
            if let Some(&(p, got, want)) = self.owed(|s| s.ever_crashed).first() {
                self.violation = Some((
                    "validity".into(),
                    format!(
                        "process {} delivered {got} of {want} values addressed to its \
                         subscriptions at quiescence",
                        p.value()
                    ),
                ));
            }
        }
        drained
    }

    /// The one validity rule: every node still owed deliveries, as
    /// `(node, delivered, addressed)`, less those `excused` lets off.
    fn owed(&self, excused: impl Fn(&NodeSlot) -> bool) -> Vec<(ProcessId, usize, usize)> {
        self.expected
            .iter()
            .filter_map(|(&p, &want)| {
                let slot = &self.nodes[&p];
                let got = slot.delivered.len();
                (got < want && !excused(slot)).then_some((p, got, want))
            })
            .collect()
    }

    /// The recorded violation, if any, with `steps` (plus the close-out
    /// drain when `drain` is set) as the schedule that reproduces it.
    fn verdict(&self, steps: &[Choice], drain: bool) -> Option<Violation> {
        let (oracle, detail) = self.violation.clone()?;
        Some(Violation {
            oracle,
            detail,
            schedule: Schedule {
                steps: steps.to_vec(),
                drain,
            },
        })
    }

    /// Fingerprint of everything that influences future behavior:
    /// engine digests, clocks, channels, timers, delivery logs, durable
    /// checkpoints, remaining budgets and the abstract spec state.
    ///
    /// With `liveness` set it is the progress-insensitive fingerprint
    /// the lasso detector cycles over: the per-node clocks, fire
    /// counters and timer due times are left out — all monotonically
    /// advancing, so a wedged protocol revisits the *same* liveness
    /// digest while its full digest keeps changing.
    fn digest(&self, liveness: bool) -> u64 {
        let mut h = Fnv1a::new();
        self.nodes.len().hash(&mut h);
        for (p, slot) in &self.nodes {
            p.hash(&mut h);
            if !liveness {
                (slot.now, slot.fires).hash(&mut h);
            }
            let host = slot.host.as_ref();
            host.map(|host| host.machine().state_digest()).hash(&mut h);
            let timers = host.iter().flat_map(|host| host.timers().iter());
            let timers = timers.map(|(kind, due)| (kind, (!liveness).then_some(due)));
            timers.collect::<Vec<_>>().hash(&mut h);
            slot.delivered.hash(&mut h);
            slot.durable.hash(&mut h);
        }
        let busy: Vec<_> = self
            .channels
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .collect();
        busy.hash(&mut h);
        (self.budget, self.any_fault).hash(&mut h);
        self.spec.hash(&mut h);
        h.finish()
    }

    /// The lasso judgement after a step, shared by the step loop and
    /// the exploration's DFS stack. `stack` holds the liveness digests
    /// of the states before this one along `path`; a repeat closes a
    /// cycle, and the earliest match gives the longest segment, which
    /// [`lasso_violation`](World::lasso_violation) judges most
    /// precisely (the minimizer shrinks it afterwards). Pushes this
    /// state's digest. `None` without a repeat, else the verdict.
    fn lasso(&self, stack: &mut Vec<u64>, path: &[Choice]) -> Option<Option<String>> {
        let digest = self.digest(true);
        let repeat = stack.iter().position(|&d| d == digest);
        stack.push(digest);
        repeat.map(|j| self.lasso_violation(&path[j..]))
    }

    /// Judges a digest-repeating DFS segment as a non-progress lasso.
    /// `segment` is the choice sequence between the two states with
    /// equal liveness [`digest`](World::digest)s; `self` is the state
    /// at the cycle's (re-)entry point. Returns the violation detail
    /// when all of the following hold:
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
        if !self.nodes.values().all(|s| s.host.is_some()) {
            return None;
        }
        let owed: Vec<String> = self
            .owed(|_| false)
            .into_iter()
            .map(|(p, got, want)| format!("p{} delivered {got}/{want}", p.value()))
            .collect();
        if owed.is_empty() {
            return None;
        }
        for (&p, slot) in &self.nodes {
            for (timer, _) in slot.host.iter().flat_map(|host| host.timers().iter()) {
                let fired = segment.iter().any(
                    |c| matches!(c, Choice::Fire { node, timer: t } if *node == p && *t == timer),
                );
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

/// Number of deterministic steps a drain may take: the start-up
/// exchange, and the close-out of a path for the validity oracle.
const DRAIN_STEPS: usize = 400;

/// A bounded model checker over one [`Scenario`].
///
/// Engines are rebuilt and the choice prefix replayed for every search
/// node (stateless search), so the scenario factory must be
/// deterministic — which is exactly the sans-io contract the engine
/// crates' `clippy.toml` enforces.
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

    /// Builds the initial state and runs `path` through the step loop;
    /// `Err` carries the first violation, with the prefix that reaches
    /// it as its schedule. A choice that is not applicable — only
    /// possible for a shrunken prefix — is reported under the
    /// `inapplicable` pseudo-oracle, which no search is looking for.
    fn replay(&self, path: &[Choice], lassos: bool) -> Result<World<'a>, Violation> {
        let mut world = World::build(self.scenario, self.cfg.faults)
            .unwrap_or_else(|e| panic!("scenario `{}` failed setup: {e}", self.scenario.name));
        match world.run(path, lassos) {
            Err((i, detail)) => Err(Violation {
                oracle: "inapplicable".into(),
                detail,
                schedule: Schedule {
                    steps: path[..i].to_vec(),
                    drain: false,
                },
            }),
            Ok(ran) => world.verdict(&path[..ran], false).map_or(Ok(world), Err),
        }
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
        let world = self.replay(path, false)?;
        self.report.explored += 1;
        if !self.cfg.liveness {
            return self.expand(path, sleep, world);
        }
        if let Some(verdict) = world.lasso(&mut self.live_stack, path) {
            self.report.lasso_candidates += 1;
            if let Some(detail) = verdict {
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
        let res = self.expand(path, sleep, world);
        self.live_stack.pop();
        res
    }

    /// The expansion half of [`explore`](Checker::explore): dedup, the
    /// depth/quiescence close-out and recursion into child choices.
    fn expand(
        &mut self,
        path: &mut Vec<Choice>,
        sleep: BTreeSet<Choice>,
        mut world: World<'a>,
    ) -> Result<(), Violation> {
        if self.cfg.reduce {
            let entries = self.seen.entry(world.digest(false)).or_default();
            if entries.iter().any(|s| s.is_subset(&sleep)) {
                self.report.pruned_dedup += 1;
                return Ok(());
            }
            entries.retain(|s| !sleep.is_subset(s));
            entries.push(sleep.clone());
        }
        let mut choices = world.enabled(&self.cfg);
        if self.cfg.reduce {
            let enabled = choices.len();
            choices.retain(|c| !sleep.contains(c));
            self.report.pruned_sleep += (enabled - choices.len()) as u64;
        }
        if path.len() >= self.cfg.depth || choices.is_empty() {
            if path.len() >= self.cfg.depth {
                self.report.depth_cutoffs += 1;
            } else {
                self.report.quiescent += 1;
            }
            // Close out fault-free paths. The drained world is discarded
            // (the next sibling replays from the root anyway), and the
            // drain is deterministic, so the counterexample records only
            // the scripted prefix plus the `drain` directive.
            if !world.any_fault {
                world.close_out();
                if let Some(v) = world.verdict(path, true) {
                    return Err(v);
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
    /// re-detected by closing out the shortened prefix.
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

    /// Replays `candidate` — judging lassos too when the violation is a
    /// liveness one, and closing out a fault-free candidate when it is
    /// a validity one — and returns the violation if `oracle`
    /// reproduces.
    fn reproduce(&self, candidate: &[Choice], oracle: &str) -> Option<Violation> {
        match self.replay(candidate, oracle == "liveness") {
            Err(v) => (v.oracle == oracle).then_some(v),
            Ok(mut world) if oracle == "validity" && !world.any_fault => {
                world.close_out();
                world
                    .verdict(candidate, true)
                    .filter(|v| v.oracle == oracle)
            }
            Ok(_) => None,
        }
    }
}

/// Convenience: explore `scenario` under `cfg` and return the report.
pub fn check(scenario: &Scenario, cfg: CheckerConfig) -> Report {
    Checker::new(scenario, cfg).run()
}

/// Replays a [`Schedule`] against a scenario through the checker's
/// step loop, judging every step as exploration does (lassos
/// included), with no limit on the faults it may script. With
/// [`Schedule::drain`] set, the replay then closes out as exploration
/// does: drain deterministically, then assert validity for every node
/// that never crashed — after a fault-free prefix, every node.
///
/// # Errors
///
/// Fails when a scripted choice is not applicable in the state it is
/// reached in (wrong channel, dead node, unarmed timer) — i.e. the
/// schedule no longer matches the protocol's behavior.
pub fn replay_schedule(scenario: &Scenario, schedule: &Schedule) -> Result<ReplayOutcome, String> {
    let unlimited = FaultBudget {
        drops: u32::MAX,
        dups: u32::MAX,
        crashes: u32::MAX,
        checkpoints: u32::MAX,
    };
    let mut world = World::build(scenario, unlimited)?;
    let steps = &schedule.steps;
    let ran = world
        .run(steps, true)
        .map_err(|(i, e)| format!("step {} (`{}`): {e}", i + 1, steps[i]))?;
    let mut executed = steps[..ran].to_vec();
    if schedule.drain && world.violation.is_none() {
        executed.extend(world.close_out());
    }
    let violation = world.verdict(&executed, false);
    let final_digest = world.digest(false);
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
            let c = s.host.as_ref().map(|h| h.machine().telemetry().counters);
            (p, c.unwrap_or_default())
        })
        .collect();
    let engine_digests = world
        .nodes
        .iter()
        .filter_map(|(&p, s)| Some((p, s.host.as_ref()?.machine().state_digest())))
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Every timer has its own name in a schedule, and the name reads
    /// back as that timer.
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
        let names: BTreeSet<String> = kinds.iter().map(|&k| timer_name(k)).collect();
        assert_eq!(names.len(), kinds.len());
        for kind in kinds {
            assert_eq!(parse_timer(&timer_name(kind)), Ok(kind));
        }
    }
}
