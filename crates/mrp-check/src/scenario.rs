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
use mrp_amcast::{BatchConfig, EngineKind};
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
    /// Submit through the client request path (framing + submission
    /// batcher) instead of calling `multicast` directly.
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
    batching: Option<BatchConfig>,
) -> Box<dyn Fn(ProcessId, bool) -> Box<dyn AmcastEngine>> {
    Box::new(move |p, recovering| {
        let mut engine = if recovering {
            kind.build_recovering(p, config.clone(), std::collections::BTreeMap::new())
        } else {
            kind.build(p, config.clone())
        };
        // Batching is configured explicitly (never from the
        // environment): checker runs must be reproducible.
        let _ = engine.set_batching(Time::ZERO, batching);
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
            factory: boxed_factory(kind, config.clone(), None),
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
            factory: boxed_factory(EngineKind::Wbcast, config.clone(), None),
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
            factory: boxed_factory(EngineKind::Wbcast, config.clone(), None),
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

    /// A batching-enabled deployment of either engine: three client
    /// requests at two processes through the submission batcher. With
    /// `window_bound` false the batcher flushes on its two-value size
    /// bound; with it true the size bound is slack (eight values) and
    /// every flush must come from a `SubmitFlush` timer firing, so the
    /// checker interleaves the flush tick against deliveries and other
    /// timers like any other choice.
    pub fn batched(kind: EngineKind, window_bound: bool) -> Scenario {
        let config = shared_two_group_config();
        let batching = Some(if window_bound {
            BatchConfig {
                max_values: 8,
                max_bytes: 1 << 20,
                window_us: 500,
            }
        } else {
            BatchConfig {
                max_values: 2,
                max_bytes: 1 << 20,
                window_us: 1_000,
            }
        });
        let bound = if window_bound { "window" } else { "size" };
        Scenario {
            name: format!("batched-{bound}-{}", engine_tag(kind)),
            factory: boxed_factory(kind, config.clone(), batching),
            config,
            // Two values batch together at p0; the third, at p2, keeps a
            // second batcher (and a second SubmitFlush timer) in play.
            submissions: vec![
                Submission {
                    at: ProcessId::new(0),
                    groups: vec![GroupId::new(0)],
                    payload: Bytes::from_static(b"batch-a"),
                    via_request: true,
                },
                Submission {
                    at: ProcessId::new(0),
                    groups: vec![GroupId::new(0)],
                    payload: Bytes::from_static(b"batch-b"),
                    via_request: true,
                },
                Submission {
                    at: ProcessId::new(2),
                    groups: vec![GroupId::new(1)],
                    payload: Bytes::from_static(b"batch-c"),
                    via_request: true,
                },
            ],
            value_frame_allowed: None,
        }
    }

    /// The PR 7 regression deployment: white-box engine with the
    /// submission batcher flushing at two values, fed through the client
    /// request path so the flush produces coalesced outgoing frames.
    pub fn coalescer() -> Scenario {
        let config = shared_two_group_config();
        let batching = Some(BatchConfig {
            max_values: 2,
            max_bytes: 1 << 20,
            window_us: 1_000,
        });
        Scenario {
            name: "coalescer".into(),
            factory: boxed_factory(EngineKind::Wbcast, config.clone(), batching),
            config,
            submissions: vec![
                Submission {
                    at: ProcessId::new(0),
                    groups: vec![GroupId::new(0)],
                    payload: Bytes::from_static(b"req-1"),
                    via_request: true,
                },
                Submission {
                    at: ProcessId::new(0),
                    groups: vec![GroupId::new(0)],
                    payload: Bytes::from_static(b"req-2"),
                    via_request: true,
                },
            ],
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
            factory: boxed_factory(EngineKind::Wbcast, config.clone(), None),
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
