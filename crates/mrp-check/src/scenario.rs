//! Canned deployments the checker explores: cluster configuration,
//! an engine factory, and the workload to submit.
//!
//! A [`Scenario`] is everything [`check`](crate::checker::check) and
//! [`replay_schedule`](crate::checker::replay_schedule) need: how many
//! processes, which rings and groups, how to build (and rebuild, after
//! a crash) each node's engine, and which values get multicast once the
//! start-up exchange has settled. The constructors here cover the
//! deployments the regression schedules and the CI smoke run against.

use std::collections::BTreeSet;
use std::fmt;

use bytes::Bytes;
use mrp_amcast::engine::AmcastEngine;
use mrp_amcast::{BatchConfig, EngineKind, WbcastNode};
use multiring_paxos::config::{ClusterConfig, RingSpec, RingTuning, Roles};
use multiring_paxos::types::{GroupId, ProcessId, RingId, Time};

/// One value multicast into the system after start-up.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Submission {
    /// Submitting process.
    pub at: ProcessId,
    /// Destination group set γ.
    pub groups: Vec<GroupId>,
    /// Payload bytes.
    pub payload: Bytes,
    /// Submit through the client request path (the wrapper's per-request
    /// decision: straight through, or framed and held) instead of
    /// calling `multicast` directly.
    pub via_request: bool,
}

/// A checkable deployment: configuration, engine factory and workload.
pub struct Scenario {
    /// Display name (reports, CI artifacts).
    pub name: String,
    /// The cluster layout all engines share.
    pub config: ClusterConfig,
    /// Builds the engine for a process; the `bool` is `true` when the
    /// process is restarting after a crash (recovery path). Must be
    /// deterministic — the checker rebuilds worlds constantly.
    pub factory: Box<dyn Fn(ProcessId, bool) -> Box<dyn AmcastEngine>>,
    /// Values to multicast once start-up has quiesced.
    pub submissions: Vec<Submission>,
    /// When set, the genuineness oracle rejects any value-bearing frame
    /// sent to a process outside this set (the union of the addressed
    /// groups' processes).
    pub value_frame_allowed: Option<BTreeSet<ProcessId>>,
}

impl fmt::Debug for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scenario")
            .field("name", &self.name)
            .field("submissions", &self.submissions)
            .field("value_frame_allowed", &self.value_frame_allowed)
            .finish_non_exhaustive()
    }
}

/// Tuning for model checking: a short Δ so timer fires advance the
/// virtual clock in small steps, λ sized so every Δ tick yields exactly
/// one rate-leveling Skip (an idle ring must pad the deterministic
/// merge or multi-ring delivery stalls — Section 4.2 of the paper), and
/// no background trim (checkpoints are scheduled explicitly as
/// choices).
fn quiet_tuning() -> RingTuning {
    RingTuning {
        lambda: 2_000,
        delta_us: 500,
        trim_interval_us: 0,
        ..RingTuning::default()
    }
}

/// Two groups over the same three processes, rings rotated so the two
/// coordinators (and wbcast sequencers) differ.
fn shared_two_group_config() -> ClusterConfig {
    let tuning = quiet_tuning();
    let mut b = ClusterConfig::builder();
    for ring in 0..2u16 {
        let mut spec = RingSpec::new(RingId::new(ring)).tuning(tuning);
        for p in 0..3u32 {
            spec = spec.member(ProcessId::new((p + u32::from(ring)) % 3), Roles::ALL);
        }
        b = b.ring(spec).group(GroupId::new(ring), RingId::new(ring));
    }
    for p in 0..3u32 {
        for g in 0..2u16 {
            b = b.subscribe(ProcessId::new(p), GroupId::new(g));
        }
    }
    b.build().expect("static scenario config is valid")
}

fn boxed_factory(
    kind: EngineKind,
    config: ClusterConfig,
    budgets: BatchConfig,
) -> Box<dyn Fn(ProcessId, bool) -> Box<dyn AmcastEngine>> {
    Box::new(move |p, recovering| {
        let mut engine = if recovering {
            kind.build_recovering(p, config.clone(), std::collections::BTreeMap::new())
        } else {
            kind.build(p, config.clone())
        };
        let _ = engine.set_batching(Time::ZERO, budgets);
        Box::new(engine)
    })
}

impl Scenario {
    /// The CI smoke deployment: three processes, two groups on rotated
    /// rings, one single-group and one multi-group submission — the
    /// multi-group value exercises the covering-group route on the ring
    /// engine and the timestamp merge on the white-box engine.
    pub fn mixed(kind: EngineKind) -> Scenario {
        let config = shared_two_group_config();
        Scenario {
            name: format!("mixed-{}", engine_tag(kind)),
            factory: boxed_factory(kind, config.clone(), BatchConfig::enabled()),
            config,
            submissions: vec![
                Submission {
                    at: ProcessId::new(0),
                    groups: vec![GroupId::new(0)],
                    payload: Bytes::from_static(b"a"),
                    via_request: false,
                },
                Submission {
                    at: ProcessId::new(2),
                    groups: vec![GroupId::new(0), GroupId::new(1)],
                    payload: Bytes::from_static(b"b"),
                    via_request: false,
                },
            ],
            value_frame_allowed: None,
        }
    }

    /// Two disjoint rings ({p0, p1} and {p2, p3}) with one submission
    /// addressed only to the first group: with the white-box engine, no
    /// frame referencing the value may ever reach p2 or p3
    /// (genuineness, Section 2 of the paper).
    pub fn genuine_pairs() -> Scenario {
        let tuning = quiet_tuning();
        let config = ClusterConfig::builder()
            .ring(
                RingSpec::new(RingId::new(0))
                    .tuning(tuning)
                    .member(ProcessId::new(0), Roles::ALL)
                    .member(ProcessId::new(1), Roles::ALL),
            )
            .ring(
                RingSpec::new(RingId::new(1))
                    .tuning(tuning)
                    .member(ProcessId::new(2), Roles::ALL)
                    .member(ProcessId::new(3), Roles::ALL),
            )
            .group(GroupId::new(0), RingId::new(0))
            .group(GroupId::new(1), RingId::new(1))
            .subscribe(ProcessId::new(0), GroupId::new(0))
            .subscribe(ProcessId::new(1), GroupId::new(0))
            .subscribe(ProcessId::new(2), GroupId::new(1))
            .subscribe(ProcessId::new(3), GroupId::new(1))
            .build()
            .expect("static scenario config is valid");
        Scenario {
            name: "genuine-pairs".into(),
            factory: boxed_factory(EngineKind::Wbcast, config.clone(), BatchConfig::enabled()),
            config,
            submissions: vec![Submission {
                at: ProcessId::new(0),
                groups: vec![GroupId::new(0)],
                payload: Bytes::from_static(b"only-g0"),
                via_request: false,
            }],
            value_frame_allowed: Some([ProcessId::new(0), ProcessId::new(1)].into_iter().collect()),
        }
    }

    /// An idle stream in front of a busy one: g0 lives on ring
    /// {p0, p2} and is sequenced by p0, g1 on ring {p1, p2} sequenced by
    /// p1; only p2 subscribes to both, and the one submission goes to
    /// g0. p2 cannot deliver it until g1's frontier passes its
    /// timestamp, and p1 — which never sees g0's traffic — learns that
    /// timestamp only from p2's `Probe`. The `2>1` channel carries
    /// nothing else, so the drop and duplicate branches on it are
    /// exactly "probe lost" (the Δ heartbeat must still deliver) and
    /// "probe repeated" (one promise, not two).
    pub fn idle_stream() -> Scenario {
        let tuning = quiet_tuning();
        let mut b = ClusterConfig::builder();
        for g in 0..2u16 {
            b = b
                .ring(
                    RingSpec::new(RingId::new(g))
                        .tuning(tuning)
                        .member(ProcessId::new(u32::from(g)), Roles::ALL)
                        .member(ProcessId::new(2), Roles::ALL),
                )
                .group(GroupId::new(g), RingId::new(g))
                .subscribe(ProcessId::new(u32::from(g)), GroupId::new(g))
                .subscribe(ProcessId::new(2), GroupId::new(g));
        }
        let config = b.build().expect("static scenario config is valid");
        Scenario {
            name: "idle-stream-wbcast".into(),
            factory: boxed_factory(EngineKind::Wbcast, config.clone(), BatchConfig::enabled()),
            config,
            submissions: vec![Submission {
                at: ProcessId::new(0),
                groups: vec![GroupId::new(0)],
                payload: Bytes::from_static(b"behind-idle-g1"),
                via_request: false,
            }],
            value_frame_allowed: Some([ProcessId::new(0), ProcessId::new(2)].into_iter().collect()),
        }
    }

    /// The submission-edge hold of either engine: a single-group
    /// request at p0 (g0's sequencer) stays outstanding, so the
    /// multi-group requests that follow it there are held. With
    /// `hold_bound` false the budget is two values: the second
    /// multi-group request trips the flush inline and the pair rides
    /// one batched submission, its frames coalesced per destination
    /// (the PR 7 regression replays against this deployment); a third
    /// process submits meanwhile. With it true the budgets are slack
    /// and one multi-group request waits: whichever the checker
    /// schedules first — the delivery that clears p0's backlog or the
    /// `SubmitFlush` timer — releases it.
    pub fn batched(kind: EngineKind, hold_bound: bool) -> Scenario {
        let config = shared_two_group_config();
        let budgets = BatchConfig {
            max_values: if hold_bound { 8 } else { 2 },
            max_bytes: 1 << 20,
        };
        let request = |at: u32, groups: &[u16], payload: &'static [u8]| Submission {
            at: ProcessId::new(at),
            groups: groups.iter().map(|&g| GroupId::new(g)).collect(),
            payload: Bytes::from_static(payload),
            via_request: true,
        };
        let mut submissions = vec![request(0, &[0], b"ahead"), request(0, &[0, 1], b"held-a")];
        if !hold_bound {
            submissions.push(request(0, &[0, 1], b"held-b"));
            submissions.push(request(2, &[1], b"elsewhere"));
        }
        let bound = if hold_bound { "window" } else { "size" };
        Scenario {
            name: format!("batched-{bound}-{}", engine_tag(kind)),
            factory: boxed_factory(kind, config.clone(), budgets),
            config,
            submissions,
            value_frame_allowed: None,
        }
    }

    /// The PR 5 regression deployment: three groups whose rings are all
    /// coordinated (and hence wbcast-sequenced) by p0, with a
    /// multi-group submission from p2 — crash p2 after one Submit frame
    /// lands and the sequencer must complete the round as an orphan,
    /// self-leading every remaining group.
    pub fn orphan() -> Scenario {
        let tuning = quiet_tuning();
        let mut b = ClusterConfig::builder().ring(
            RingSpec::new(RingId::new(0))
                .tuning(tuning)
                .member(ProcessId::new(0), Roles::ALL)
                .member(ProcessId::new(1), Roles::ALL)
                .member(ProcessId::new(2), Roles::ALL),
        );
        for ring in 1..3u16 {
            b = b.ring(
                RingSpec::new(RingId::new(ring))
                    .tuning(tuning)
                    .member(ProcessId::new(0), Roles::ALL)
                    .member(ProcessId::new(1), Roles::ALL),
            );
        }
        for g in 0..3u16 {
            b = b.group(GroupId::new(g), RingId::new(g));
            b = b
                .subscribe(ProcessId::new(0), GroupId::new(g))
                .subscribe(ProcessId::new(1), GroupId::new(g));
        }
        b = b.subscribe(ProcessId::new(2), GroupId::new(0));
        let config = b.build().expect("static scenario config is valid");
        Scenario {
            name: "orphan".into(),
            // The bare engine: the wrapper would merge the three
            // `Submit`s into one frame to p0, and the schedule has to
            // lose two of them.
            factory: {
                let config = config.clone();
                Box::new(move |p, recovering| {
                    Box::new(if recovering {
                        WbcastNode::recovering(p, config.clone())
                    } else {
                        WbcastNode::new(p, config.clone())
                    })
                })
            },
            config,
            submissions: vec![Submission {
                at: ProcessId::new(2),
                groups: vec![GroupId::new(0), GroupId::new(1), GroupId::new(2)],
                payload: Bytes::from_static(b"orphaned"),
                via_request: false,
            }],
            value_frame_allowed: None,
        }
    }
}

fn engine_tag(kind: EngineKind) -> &'static str {
    match kind {
        EngineKind::MultiRing => "multiring",
        EngineKind::Wbcast => "wbcast",
    }
}
