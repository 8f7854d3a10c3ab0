use super::*;
use multiring_paxos::config::{single_ring, RingSpec, RingTuning, Roles};
use multiring_paxos::types::{InstanceId, Value};
use std::collections::BTreeMap as Map;
use wire::OrphanSt;

/// A counter of `n`'s telemetry snapshot (zero until first recorded).
fn counter(n: &WbcastNode, name: &str) -> u64 {
    n.telemetry().counters.get(name).copied().unwrap_or(0)
}

/// A gauge of `n`'s telemetry snapshot.
fn gauge(n: &WbcastNode, name: &str) -> u64 {
    n.telemetry().gauges[name]
}

/// Executes all Send actions at zero latency (in-order), collecting
/// deliveries per process and counting received engine frames that
/// reference a value (for genuineness assertions).
pub(super) struct Pumped {
    delivered: Map<ProcessId, Vec<(GroupId, u64, ValueId)>>,
    value_frames_at: Map<ProcessId, u64>,
}

fn pump(nodes: &mut Map<ProcessId, WbcastNode>, queue: Vec<(ProcessId, Action)>) -> Pumped {
    pump_at(nodes, queue, Time::ZERO, true)
}

/// Like [`pump`], but frames to processes missing from `nodes` are
/// dropped (they crashed) instead of flagging a harness mistake.
pub(super) fn pump_lossy(
    nodes: &mut Map<ProcessId, WbcastNode>,
    queue: Vec<(ProcessId, Action)>,
    now: Time,
) -> Pumped {
    pump_at(nodes, queue, now, false)
}

fn pump_at(
    nodes: &mut Map<ProcessId, WbcastNode>,
    queue: Vec<(ProcessId, Action)>,
    now: Time,
    strict: bool,
) -> Pumped {
    pump_with(nodes, queue, strict, |_| now, |_| 1)
}

/// The general pump: every process reads its own clock (`now_of` — as
/// over TCP, where each runtime counts from its own start), and
/// `copies` decides how many times a sent frame arrives (0 drops it,
/// 2 duplicates it).
fn pump_with(
    nodes: &mut Map<ProcessId, WbcastNode>,
    queue: Vec<(ProcessId, Action)>,
    strict: bool,
    now_of: impl Fn(ProcessId) -> Time,
    mut copies: impl FnMut(&Message) -> usize,
) -> Pumped {
    // FIFO processing: the Action::Send contract promises reliable
    // in-order channels, and the engine's stream frontiers build on
    // exactly that promise.
    let mut queue: std::collections::VecDeque<(ProcessId, Action)> = queue.into();
    let mut result = Pumped {
        delivered: Map::new(),
        value_frames_at: Map::new(),
    };
    let mut steps = 0;
    while let Some((origin, action)) = queue.pop_front() {
        steps += 1;
        assert!(steps < 100_000, "no quiescence");
        match action {
            Action::Send { to, msg } => {
                let Some(node) = nodes.get_mut(&to) else {
                    assert!(!strict, "send to unknown process {to}");
                    continue; // crashed process: the frame is lost
                };
                for _ in 0..copies(&msg) {
                    if message_carries_value(&msg) {
                        *result.value_frames_at.entry(to).or_default() += 1;
                    }
                    let event = Event::Message {
                        from: origin,
                        msg: msg.clone(),
                    };
                    for a in node.on_event(now_of(to), event) {
                        queue.push_back((to, a));
                    }
                }
            }
            Action::Deliver {
                group,
                instance,
                value,
            } => result.delivered.entry(origin).or_default().push((
                group,
                instance.value(),
                value.id,
            )),
            _ => {}
        }
    }
    result
}

/// `n_groups` groups; group `g` is served by a dedicated ring whose
/// members (and subscribers) are `processes[g]`.
fn disjoint_config(members: &[&[u32]]) -> ClusterConfig {
    let mut b = ClusterConfig::builder();
    for (g, ps) in members.iter().enumerate() {
        let mut spec = RingSpec::new(RingId::new(g as u16));
        for &p in *ps {
            spec = spec.member(ProcessId::new(p), Roles::ALL);
        }
        b = b
            .ring(spec)
            .group(GroupId::new(g as u16), RingId::new(g as u16));
        for &p in *ps {
            b = b.subscribe(ProcessId::new(p), GroupId::new(g as u16));
        }
    }
    b.build().expect("disjoint config")
}

pub(super) fn spawn(config: &ClusterConfig) -> Map<ProcessId, WbcastNode> {
    config
        .processes()
        .into_iter()
        .map(|p| (p, WbcastNode::new(p, config.clone())))
        .collect()
}

#[test]
fn single_group_delivers_in_submission_order_everywhere() {
    let config = single_ring(3, RingTuning::default());
    let mut nodes = spawn(&config);
    let mut queue = Vec::new();
    for proposer in [1u32, 2, 0] {
        let p = ProcessId::new(proposer);
        let (_, actions) = AmcastEngine::multicast(
            nodes.get_mut(&p).unwrap(),
            Time::ZERO,
            &[GroupId::new(0)],
            Bytes::from(vec![proposer as u8]),
        )
        .unwrap();
        queue.extend(actions.into_iter().map(|a| (p, a)));
    }
    let delivered = pump(&mut nodes, queue).delivered;
    assert_eq!(delivered.len(), 3, "all three subscribers deliver");
    let reference = &delivered[&ProcessId::new(0)];
    assert_eq!(reference.len(), 3);
    for seq in delivered.values() {
        assert_eq!(seq, reference, "identical delivery sequences");
    }
    // Timestamps are dense from 1.
    let ts: Vec<u64> = reference.iter().map(|(_, t, _)| *t).collect();
    assert_eq!(ts, vec![1, 2, 3]);
}

#[test]
fn multicast_to_unknown_group_fails() {
    let config = single_ring(2, RingTuning::default());
    let mut n = WbcastNode::new(ProcessId::new(0), config);
    let err =
        AmcastEngine::multicast(&mut n, Time::ZERO, &[GroupId::new(7)], Bytes::new()).unwrap_err();
    assert_eq!(err, MulticastError::UnknownGroup(GroupId::new(7)));
    let err = AmcastEngine::multicast(&mut n, Time::ZERO, &[], Bytes::new()).unwrap_err();
    assert_eq!(err, MulticastError::NoDestination);
}

#[test]
fn request_is_framed_ordered_and_delivered() {
    let config = single_ring(1, RingTuning::default());
    let mut n = WbcastNode::new(ProcessId::new(0), config);
    let out = n.on_event(
        Time::ZERO,
        Event::Message {
            from: ProcessId::new(9),
            msg: Message::Request {
                client: ClientId::new(4),
                request: 1,
                groups: vec![GroupId::new(0)],
                payload: Bytes::from_static(b"cmd"),
            },
        },
    );
    // Singleton: submit, order and deliver complete inline.
    assert!(out
        .iter()
        .any(|a| matches!(a, Action::Deliver { group, .. } if *group == GroupId::new(0))));
    assert_eq!(counter(&n, "sub.delivered"), 1);
}

#[test]
fn heartbeats_advance_idle_groups() {
    let config = single_ring(1, RingTuning::default());
    let mut n = WbcastNode::new(ProcessId::new(0), config);
    let start = n.on_event(Time::ZERO, Event::Start);
    assert!(start.iter().any(|a| matches!(
        a,
        Action::SetTimer {
            timer: TimerKind::Delta(_),
            ..
        }
    )));
    let out = n.on_event(
        Time::from_millis(50),
        Event::Timer(TimerKind::Delta(RingId::new(0))),
    );
    // Re-armed, and the (self-subscribed) horizon advanced with time.
    assert!(out.iter().any(|a| matches!(
        a,
        Action::SetTimer {
            timer: TimerKind::Delta(_),
            ..
        }
    )));
    assert!(n.horizons()[&GroupId::new(0)] > 0);
}

#[test]
fn observed_timestamps_drag_idle_sequencer_clocks_forward() {
    // Two groups over the same processes; p0 sequences both. A burst
    // into group 0 drives its count-based timestamps far past wall
    // clock; the Lamport receive rule must drag group 1's clock
    // along, so group 1's next heartbeat promise releases the burst
    // instead of capping delivery at the time-based tick rate.
    let mut b = ClusterConfig::builder();
    for ring in 0..2u16 {
        let mut spec = RingSpec::new(RingId::new(ring));
        for p in 0..2u32 {
            spec = spec.member(ProcessId::new(p), Roles::ALL);
        }
        b = b.ring(spec).group(GroupId::new(ring), RingId::new(ring));
    }
    for p in 0..2u32 {
        for g in 0..2u16 {
            b = b.subscribe(ProcessId::new(p), GroupId::new(g));
        }
    }
    let config = b.build().expect("two-group config");
    let mut nodes = spawn(&config);
    // 40 submissions to group 0 only, all at t=0 (time-based clock
    // floor stays at 1, so timestamps run ahead on counts alone).
    let mut queue = Vec::new();
    let p0 = ProcessId::new(0);
    for i in 0..40u8 {
        let (_, actions) = AmcastEngine::multicast(
            nodes.get_mut(&p0).unwrap(),
            Time::ZERO,
            &[GroupId::new(0)],
            Bytes::from(vec![i]),
        )
        .unwrap();
        queue.extend(actions.into_iter().map(|a| (p0, a)));
    }
    let delivered = pump(&mut nodes, queue).delivered;
    // One group-1 heartbeat at t=0 must now promise past the burst
    // (clock observed ts=40) and release everything at once.
    let hb = nodes
        .get_mut(&p0)
        .unwrap()
        .on_event(Time::ZERO, Event::Timer(TimerKind::Delta(RingId::new(1))));
    let mut queue: Vec<(ProcessId, Action)> = hb.into_iter().map(|a| (p0, a)).collect();
    queue.retain(|(_, a)| !matches!(a, Action::SetTimer { .. }));
    let late = pump(&mut nodes, queue).delivered;
    let total: usize = [&delivered, &late]
        .iter()
        .flat_map(|d| d.get(&p0))
        .map(std::vec::Vec::len)
        .sum();
    assert_eq!(total, 40, "idle group 1 must not throttle group 0's burst");
}

/// Three disjoint two-process groups. A message addressed to groups
/// {0, 1} must be delivered by exactly their four subscribers, in
/// one consistent position, and group 2's processes must receive no
/// frame referencing any value — the genuineness property.
#[test]
fn multigroup_is_genuine_and_delivered_by_addressed_groups_only() {
    let config = disjoint_config(&[&[0, 1], &[2, 3], &[4, 5]]);
    let mut nodes = spawn(&config);
    let p0 = ProcessId::new(0);
    // A few single-group messages on each addressed group, plus the
    // multi-group message, all initiated by p0 / p2.
    let mut queue = Vec::new();
    for (proposer, groups) in [
        (0u32, vec![GroupId::new(0)]),
        (2, vec![GroupId::new(1)]),
        (0, vec![GroupId::new(0), GroupId::new(1)]),
        (0, vec![GroupId::new(0)]),
        (2, vec![GroupId::new(1)]),
    ] {
        let p = ProcessId::new(proposer);
        let (_, actions) = AmcastEngine::multicast(
            nodes.get_mut(&p).unwrap(),
            Time::ZERO,
            &groups,
            Bytes::from(vec![proposer as u8]),
        )
        .unwrap();
        queue.extend(actions.into_iter().map(|a| (p, a)));
    }
    let multi_id = ValueId::new(p0, 2); // p0's second submission
    let result = pump(&mut nodes, queue);

    // Genuineness: the outsiders saw no value traffic at all.
    for outsider in [4u32, 5] {
        let p = ProcessId::new(outsider);
        assert_eq!(
            result.value_frames_at.get(&p).copied().unwrap_or(0),
            0,
            "process {p} is outside γ but received value frames"
        );
        assert!(result.delivered.get(&p).is_none_or(std::vec::Vec::is_empty));
    }

    // Exactly the four subscribers of groups 0 and 1 deliver the
    // multi-group message, exactly once each.
    for p in [0u32, 1, 2, 3] {
        let seq = &result.delivered[&ProcessId::new(p)];
        let copies = seq.iter().filter(|(_, _, id)| *id == multi_id).count();
        assert_eq!(copies, 1, "process {p} must deliver the multicast once");
    }

    // Consistent relative order: every process orders the multi
    // message against its group's singles at the same timestamp
    // position, so the (ts, id) keys must agree across groups.
    let key_of = |p: u32| {
        result.delivered[&ProcessId::new(p)]
            .iter()
            .find(|(_, _, id)| *id == multi_id)
            .map(|(_, ts, id)| (*ts, *id))
            .expect("delivered")
    };
    assert_eq!(key_of(0), key_of(2), "same final timestamp in both groups");
    assert_eq!(key_of(0), key_of(1));
    assert_eq!(key_of(2), key_of(3));
}

/// Two groups over overlapping subscribers: everyone subscribed to
/// both groups must deliver the *interleaved* sequence identically,
/// with multi-group messages appearing exactly once.
#[test]
fn multigroup_interleaves_in_one_total_order_at_shared_subscribers() {
    let mut b = ClusterConfig::builder();
    for ring in 0..2u16 {
        let mut spec = RingSpec::new(RingId::new(ring));
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
    let config = b.build().expect("overlapping config");
    let mut nodes = spawn(&config);
    let mut queue = Vec::new();
    let mut expected = 0usize;
    for (proposer, groups) in [
        (0u32, vec![GroupId::new(0)]),
        (1, vec![GroupId::new(1)]),
        (2, vec![GroupId::new(0), GroupId::new(1)]),
        (0, vec![GroupId::new(1)]),
        (1, vec![GroupId::new(0), GroupId::new(1)]),
        (2, vec![GroupId::new(0)]),
    ] {
        let p = ProcessId::new(proposer);
        let (_, actions) = AmcastEngine::multicast(
            nodes.get_mut(&p).unwrap(),
            Time::ZERO,
            &groups,
            Bytes::from(vec![proposer as u8]),
        )
        .unwrap();
        queue.extend(actions.into_iter().map(|a| (p, a)));
        expected += 1;
    }
    let mut delivered = pump(&mut nodes, queue).delivered;
    // One heartbeat round: without it a tail value can legitimately
    // stay buffered, waiting for the other group's idle promise
    // (runtimes re-fire Δ timers; the unit pump must do it once).
    let mut queue = Vec::new();
    for (&p, node) in &mut nodes {
        for ring in 0..2u16 {
            let hb = node.on_event(
                Time::from_millis(10),
                Event::Timer(TimerKind::Delta(RingId::new(ring))),
            );
            queue.extend(
                hb.into_iter()
                    .filter(|a| !matches!(a, Action::SetTimer { .. }))
                    .map(|a| (p, a)),
            );
        }
    }
    for (p, seq) in pump(&mut nodes, queue).delivered {
        delivered.entry(p).or_default().extend(seq);
    }
    let reference = &delivered[&ProcessId::new(0)];
    assert_eq!(reference.len(), expected, "all messages delivered once");
    let unique: BTreeSet<ValueId> = reference.iter().map(|(_, _, id)| *id).collect();
    assert_eq!(unique.len(), expected, "no duplicate deliveries");
    for p in 1..3u32 {
        assert_eq!(
            &delivered[&ProcessId::new(p)],
            reference,
            "identical interleaved sequences at shared subscribers"
        );
    }
}

#[test]
fn backlog_counts_local_submissions_until_delivery() {
    let config = single_ring(3, RingTuning::default());
    let mut nodes = spawn(&config);
    let p1 = ProcessId::new(1);
    // p1 submits but the network has not run yet: one value in
    // flight (p1 subscribes to the group, so delivery will settle
    // it).
    let (_, actions) = AmcastEngine::multicast(
        nodes.get_mut(&p1).unwrap(),
        Time::ZERO,
        &[GroupId::new(0)],
        Bytes::from_static(b"v"),
    )
    .unwrap();
    assert_eq!(AmcastEngine::backlog(nodes.get_mut(&p1).unwrap()), 1);
    let queue = actions.into_iter().map(|a| (p1, a)).collect();
    let delivered = pump(&mut nodes, queue).delivered;
    assert_eq!(delivered[&p1].len(), 1);
    assert_eq!(
        AmcastEngine::backlog(nodes.get_mut(&p1).unwrap()),
        0,
        "delivery settles the backlog"
    );
}

#[test]
fn wire_roundtrip_of_engine_frames() {
    let value = Value::new(
        ValueId::new(ProcessId::new(3), 9),
        GroupId::new(1),
        Bytes::from_static(b"payload"),
    );
    let gamma = vec![GroupId::new(0), GroupId::new(1)];
    for msg in [
        WbMessage::Submit {
            group: GroupId::new(1),
            groups: gamma.clone(),
            value: value.clone(),
        },
        WbMessage::ProposeAck {
            group: GroupId::new(0),
            id: value.id,
            ts: 17,
        },
        WbMessage::Final {
            group: GroupId::new(1),
            id: value.id,
            ts: 18,
        },
        WbMessage::FinalAck {
            group: GroupId::new(1),
            id: value.id,
            ts: 18,
        },
        WbMessage::Ordered {
            group: GroupId::new(1),
            epoch: 3,
            ts: 42,
            groups: gamma,
            value,
        },
        WbMessage::Heartbeat {
            group: GroupId::new(0),
            epoch: 2,
            ts: 7,
        },
        WbMessage::Resync {
            group: GroupId::new(1),
            from_ts: 12,
        },
        WbMessage::CkptMark {
            group: GroupId::new(0),
            ts: 11,
        },
        WbMessage::ResyncDone {
            group: GroupId::new(1),
            epoch: 4,
            ts: 13,
            gap_to: 6,
        },
        WbMessage::OrphanQuery {
            group: GroupId::new(1),
            id: ValueId::new(ProcessId::new(3), 9),
            attempt: 2,
        },
        WbMessage::OrphanState {
            group: GroupId::new(1),
            id: ValueId::new(ProcessId::new(3), 9),
            attempt: 2,
            state: OrphanSt::Proposed(21),
        },
        WbMessage::OrphanState {
            group: GroupId::new(0),
            id: ValueId::new(ProcessId::new(3), 9),
            attempt: 3,
            state: OrphanSt::Unknown,
        },
        WbMessage::OrphanState {
            group: GroupId::new(0),
            id: ValueId::new(ProcessId::new(3), 9),
            attempt: 3,
            state: OrphanSt::Decided(23),
        },
        WbMessage::OrphanState {
            group: GroupId::new(1),
            id: ValueId::new(ProcessId::new(3), 9),
            attempt: 4,
            state: OrphanSt::Released(23),
        },
        WbMessage::OrphanFinal {
            group: GroupId::new(1),
            id: ValueId::new(ProcessId::new(3), 9),
            ts: 23,
        },
    ] {
        let frame = msg.clone().into_frame();
        let Message::Engine { engine, payload } = frame.clone() else {
            panic!("expected engine frame");
        };
        assert_eq!(engine, WBCAST_WIRE_ID);
        let carries = !matches!(
            msg,
            WbMessage::Heartbeat { .. }
                | WbMessage::Resync { .. }
                | WbMessage::CkptMark { .. }
                | WbMessage::ResyncDone { .. }
        );
        assert_eq!(message_carries_value(&frame), carries);
        assert_eq!(WbMessage::parse(payload), Some(msg));
    }
    assert_eq!(WbMessage::parse(Bytes::from_static(b"")), None);
    assert_eq!(WbMessage::parse(Bytes::from_static(&[9, 0, 0])), None);
}

/// Satellite regression: a submission that reaches a dead (or
/// stale) sequencer must not leak in `backlog()` forever. After the
/// coordination service hands the ring to this process, its own
/// retransmission self-routes, the value is ordered by the new
/// sequencer and delivered locally, and the backlog drains to zero.
#[test]
fn backlog_settles_after_sequencer_failover() {
    let config = disjoint_config(&[&[0, 1]]);
    let mut n1 = WbcastNode::new(ProcessId::new(1), config);
    let (_, actions) = AmcastEngine::multicast(
        &mut n1,
        Time::ZERO,
        &[GroupId::new(0)],
        Bytes::from_static(b"v"),
    )
    .unwrap();
    // The Submit went to p0, which crashed: drop everything.
    assert!(actions
        .iter()
        .any(|a| a.send_to() == Some(ProcessId::new(0))));
    assert_eq!(AmcastEngine::backlog(&n1), 1);
    // Election: p1 becomes the coordinator. The takeover retransmits
    // inline, but the fresh sequencer holds its stream for the
    // recovery window, so the value is not yet delivered.
    let out = n1.on_event(
        Time::from_millis(100),
        Event::CoordinatorChange {
            ring: RingId::new(0),
            coordinator: ProcessId::new(1),
            supersedes: multiring_paxos::types::Ballot::ZERO,
        },
    );
    assert_eq!(AmcastEngine::backlog(&n1), 1, "held by the grace window");
    assert!(!out.iter().any(|a| matches!(a, Action::Deliver { .. })));
    // First Δ tick past the window releases, delivers locally and
    // settles the backlog.
    let out = n1.on_event(
        Time::from_secs(2),
        Event::Timer(TimerKind::Delta(RingId::new(0))),
    );
    assert!(out.iter().any(|a| matches!(a, Action::Deliver { .. })));
    assert_eq!(AmcastEngine::backlog(&n1), 0, "failover settles the leak");
    assert_eq!(counter(&n1, "sub.delivered"), 1);
}

/// Satellite regression: a stray or duplicated `ProposeAck` for a
/// group outside the value's γ must not enter the collection — it
/// could otherwise complete the round with a bogus maximum.
#[test]
fn stray_propose_ack_from_foreign_group_is_ignored() {
    let config = disjoint_config(&[&[0, 1], &[2, 3], &[4, 5]]);
    let mut n0 = WbcastNode::new(ProcessId::new(0), config);
    let (id, _) = AmcastEngine::multicast(
        &mut n0,
        Time::ZERO,
        &[GroupId::new(0), GroupId::new(1)],
        Bytes::from_static(b"m"),
    )
    .unwrap();
    // g0's sequencer is n0 itself, so one genuine ack is already
    // collected. A stray ack for non-addressed g2 must be ignored…
    let stray = WbMessage::ProposeAck {
        group: GroupId::new(2),
        id,
        ts: 999,
    }
    .into_frame();
    let out = n0.on_event(
        Time::ZERO,
        Event::Message {
            from: ProcessId::new(4),
            msg: stray,
        },
    );
    let finals = |actions: &[Action]| {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Send {
                    msg: Message::Engine { payload, .. },
                    ..
                } => match WbMessage::parse(payload.clone()) {
                    Some(WbMessage::Final { ts, .. }) => Some(ts),
                    _ => None,
                },
                _ => None,
            })
            .collect::<Vec<u64>>()
    };
    assert!(
        finals(&out).is_empty(),
        "stray ack must not close the round"
    );
    // …while the genuine g1 ack completes it with the true maximum.
    let genuine = WbMessage::ProposeAck {
        group: GroupId::new(1),
        id,
        ts: 5,
    }
    .into_frame();
    let out = n0.on_event(
        Time::ZERO,
        Event::Message {
            from: ProcessId::new(2),
            msg: genuine,
        },
    );
    assert_eq!(finals(&out), vec![5], "final is max(1, 5), not 999");
}

/// A retransmitted `Submit` must not get a second timestamp, and a
/// duplicate `Final` is idempotent.
#[test]
fn retransmissions_deduplicate_at_the_sequencer() {
    let config = disjoint_config(&[&[0, 1], &[2, 3]]);
    let mut n2 = WbcastNode::new(ProcessId::new(2), config);
    let value = Value::new(
        ValueId::new(ProcessId::new(0), 1),
        GroupId::new(0),
        Bytes::from_static(b"m"),
    );
    let submit = WbMessage::Submit {
        group: GroupId::new(1),
        groups: vec![GroupId::new(0), GroupId::new(1)],
        value,
    }
    .into_frame();
    let ack_ts = |actions: &[Action]| {
        actions.iter().find_map(|a| match a {
            Action::Send {
                msg: Message::Engine { payload, .. },
                ..
            } => match WbMessage::parse(payload.clone()) {
                Some(WbMessage::ProposeAck { ts, .. }) => Some(ts),
                _ => None,
            },
            _ => None,
        })
    };
    let from0 = ProcessId::new(0);
    let ev = |msg: Message| Event::Message { from: from0, msg };
    let first = n2.on_event(Time::ZERO, ev(submit.clone()));
    let ts1 = ack_ts(&first).expect("proposal acknowledged");
    let clock_after = n2.led[&GroupId::new(1)].state.next_ts;
    let dup = n2.on_event(Time::ZERO, ev(submit));
    assert_eq!(ack_ts(&dup), Some(ts1), "same proposal re-acknowledged");
    assert_eq!(
        n2.led[&GroupId::new(1)].state.next_ts,
        clock_after,
        "no second timestamp assigned"
    );
    let fin = WbMessage::Final {
        group: GroupId::new(1),
        id: ValueId::new(from0, 1),
        ts: ts1 + 3,
    }
    .into_frame();
    let released = n2.on_event(Time::ZERO, ev(fin.clone()));
    let ordered = |actions: &[Action]| {
        actions
            .iter()
            .filter(|a| match a {
                Action::Send {
                    msg: Message::Engine { payload, .. },
                    ..
                } => matches!(
                    WbMessage::parse(payload.clone()),
                    Some(WbMessage::Ordered { .. })
                ),
                _ => false,
            })
            .count()
    };
    assert!(ordered(&released) > 0, "final releases the value");
    let dup_fin = n2.on_event(Time::ZERO, ev(fin));
    assert_eq!(ordered(&dup_fin), 0, "duplicate final re-releases nothing");
    assert!(
        dup_fin.iter().any(|a| match a {
            Action::Send {
                to,
                msg: Message::Engine { payload, .. },
            } => {
                *to == from0
                    && matches!(
                        WbMessage::parse(payload.clone()),
                        Some(WbMessage::FinalAck { .. })
                    )
            }
            _ => false,
        }),
        "duplicate final is re-acknowledged idempotently"
    );
}

/// A value that is still *pending* (not yet deliverable) at a
/// subscriber when a failover re-release of the same value arrives
/// at a different key must be delivered exactly once: the dedup
/// cannot rely on the delivered-id set alone, because neither copy
/// has been delivered when the second one is buffered.
#[test]
fn failover_rerelease_of_pending_value_delivers_once() {
    // Two groups over the same two processes; p0 sequences both,
    // p1 is a pure subscriber of both.
    let mut b = ClusterConfig::builder();
    for ring in 0..2u16 {
        let mut spec = RingSpec::new(RingId::new(ring));
        for p in 0..2u32 {
            spec = spec.member(ProcessId::new(p), Roles::ALL);
        }
        b = b.ring(spec).group(GroupId::new(ring), RingId::new(ring));
    }
    for p in 0..2u32 {
        for g in 0..2u16 {
            b = b.subscribe(ProcessId::new(p), GroupId::new(g));
        }
    }
    let config = b.build().expect("two-group config");
    let mut n1 = WbcastNode::new(ProcessId::new(1), config);
    let value = Value::new(
        ValueId::new(ProcessId::new(0), 1),
        GroupId::new(0),
        Bytes::from_static(b"v"),
    );
    let ev = |msg: WbMessage| Event::Message {
        from: ProcessId::new(0),
        msg: msg.into_frame(),
    };
    let mut deliveries = 0usize;
    // Original release: parks in pending (group 1's frontier is 0).
    let out = n1.on_event(
        Time::ZERO,
        ev(WbMessage::Ordered {
            group: GroupId::new(0),
            epoch: 0,
            ts: 41,
            groups: vec![GroupId::new(0)],
            value: value.clone(),
        }),
    );
    deliveries += out
        .iter()
        .filter(|a| matches!(a, Action::Deliver { .. }))
        .count();
    // Failover re-release of the same value at a fresh timestamp.
    let out = n1.on_event(
        Time::ZERO,
        ev(WbMessage::Ordered {
            group: GroupId::new(0),
            epoch: 1,
            ts: 50_000,
            groups: vec![GroupId::new(0)],
            value: value.clone(),
        }),
    );
    deliveries += out
        .iter()
        .filter(|a| matches!(a, Action::Deliver { .. }))
        .count();
    // Group 1's promise unblocks everything buffered.
    let out = n1.on_event(
        Time::ZERO,
        ev(WbMessage::Heartbeat {
            group: GroupId::new(1),
            epoch: 0,
            ts: 60_000,
        }),
    );
    deliveries += out
        .iter()
        .filter(|a| matches!(a, Action::Deliver { .. }))
        .count();
    assert_eq!(deliveries, 1, "both copies pending must dedup to one");
    assert_eq!(counter(&n1, "sub.delivered"), 1);
}

/// The coordination service's election round (the `supersedes`
/// ballot) is the authoritative epoch floor: a new coordinator that
/// never observed the previous incarnation's frames must still mint
/// a strictly greater epoch.
#[test]
fn takeover_epoch_supersedes_election_round() {
    let config = disjoint_config(&[&[0, 1]]);
    let mut n1 = WbcastNode::new(ProcessId::new(1), config);
    n1.on_event(
        Time::ZERO,
        Event::CoordinatorChange {
            ring: RingId::new(0),
            coordinator: ProcessId::new(1),
            supersedes: multiring_paxos::types::Ballot::new(4, ProcessId::new(0)),
        },
    );
    assert_eq!(
        n1.led[&GroupId::new(0)].state.epoch,
        5,
        "epoch must exceed the election round even with no frames observed"
    );
}

/// Satellite regression: the per-key dedup/bookkeeping state —
/// subscriber-side delivered-id records, sequencer-side decided-id
/// map and released history — is bounded by the checkpoint window,
/// not by total delivered history (the unbounded-growth bug the
/// checkpoint/trim surface fixes).
#[test]
fn checkpoint_trim_bounds_dedup_and_sequencer_state() {
    let config = single_ring(1, RingTuning::default());
    let mut n = WbcastNode::new(ProcessId::new(0), config);
    let submit_round = |n: &mut WbcastNode, base: u8| {
        for i in 0..100u8 {
            AmcastEngine::multicast(
                n,
                Time::ZERO,
                &[GroupId::new(0)],
                Bytes::from(vec![base, i]),
            )
            .unwrap();
        }
    };
    submit_round(&mut n, 0);
    assert_eq!(counter(&n, "sub.delivered"), 100);
    assert_eq!(
        gauge(&n, "dedup_records"),
        100,
        "one dedup record per delivery"
    );
    assert_eq!(n.sequencer_footprint(), (100, 100));
    // One checkpoint cycle: report the watermark, trim below it.
    let w = AmcastEngine::watermark(&n);
    let mark = w.mark_of(GroupId::new(0)).value();
    assert!(mark >= 99, "watermark tracks the delivered prefix: {mark}");
    let actions = AmcastEngine::trim(&mut n, Time::ZERO, &w);
    assert!(actions.is_empty(), "singleton: the mark self-routes");
    assert_eq!(
        n.dedup_retained_at_or_below(mark),
        0,
        "no dedup record survives at or below the watermark"
    );
    // Only the boundary value (excluded from the mark because a
    // future release could share its timestamp) may remain.
    assert!(
        gauge(&n, "dedup_records") <= 1,
        "dedup bounded: {}",
        gauge(&n, "dedup_records")
    );
    let (done, history) = n.sequencer_footprint();
    assert!(
        done <= 1 && history <= 1,
        "sequencer bookkeeping bounded: {done}/{history}"
    );
    // A second window: sizes stay at the window bound, proving the
    // state scales with the checkpoint interval, not uptime.
    submit_round(&mut n, 1);
    let w = AmcastEngine::watermark(&n);
    AmcastEngine::trim(&mut n, Time::ZERO, &w);
    assert!(gauge(&n, "dedup_records") <= 1);
    let (done, history) = n.sequencer_footprint();
    assert!(done <= 1 && history <= 1);
    assert_eq!(
        counter(&n, "sub.delivered"),
        200,
        "trimming never affects delivery"
    );
}

/// A subscriber that restarts from a checkpoint resyncs the released
/// stream above its watermark from the sequencer's retained history:
/// nothing covered by the checkpoint (or by the residual dedup
/// records above the boundary) is delivered twice, and new traffic
/// reaches the restarted process exactly once.
#[test]
fn restarted_subscriber_resyncs_from_checkpoint() {
    let config = single_ring(3, RingTuning::default());
    let mut nodes = spawn(&config);
    let p0 = ProcessId::new(0);
    let p1 = ProcessId::new(1);
    let submit = |nodes: &mut Map<ProcessId, WbcastNode>, k: u8| {
        let (_, actions) = AmcastEngine::multicast(
            nodes.get_mut(&p0).unwrap(),
            Time::ZERO,
            &[GroupId::new(0)],
            Bytes::from(vec![k]),
        )
        .unwrap();
        pump(nodes, actions.into_iter().map(|a| (p0, a)).collect());
    };
    for k in 0..5 {
        submit(&mut nodes, k);
    }
    assert_eq!(counter(&nodes[&p1], "sub.delivered"), 5);
    // p1 checkpoints (watermark + engine recovery state), then
    // crashes: the process state is rebuilt from scratch.
    let w = AmcastEngine::watermark(&nodes[&p1]);
    let state = AmcastEngine::checkpoint_state(&nodes[&p1]);
    assert_eq!(
        w.mark_of(GroupId::new(0)).value(),
        4,
        "the boundary value stays above the mark (a future release could tie its timestamp)"
    );
    let mut fresh = WbcastNode::recovering(p1, config.clone());
    AmcastEngine::install_checkpoint(&mut fresh, &w, &state);
    nodes.insert(p1, fresh);
    // Restart: resync replays the history above the mark — the
    // boundary value arrives again but is deduplicated against the
    // restored residual records.
    let actions = AmcastEngine::resume(nodes.get_mut(&p1).unwrap(), Time::ZERO);
    assert!(!actions.is_empty(), "a resync request is issued");
    pump(&mut nodes, actions.into_iter().map(|a| (p1, a)).collect());
    assert_eq!(
        counter(&nodes[&p1], "sub.delivered"),
        0,
        "everything before the crash is covered by checkpoint + dedup"
    );
    // New traffic is delivered exactly once and the restarted
    // subscriber's stream position matches the others'.
    for k in 5..8 {
        submit(&mut nodes, k);
    }
    assert_eq!(counter(&nodes[&p1], "sub.delivered"), 3);
    assert_eq!(
        nodes[&p1].horizons()[&GroupId::new(0)],
        nodes[&p0].horizons()[&GroupId::new(0)],
        "frontier re-anchored to the live stream"
    );
}

/// Review regression: while a resync is outstanding, the delivery
/// watermark must stay at the restored checkpoint floor — live
/// heartbeats advance the frontier past values only the pending
/// replay can supply, and a checkpoint taken at that frontier would
/// claim (and, after trim, permanently drop) values the
/// application never executed.
#[test]
fn watermark_holds_at_floor_while_resyncing() {
    let config = single_ring(3, RingTuning::default());
    let p1 = ProcessId::new(1);
    let g = GroupId::new(0);
    let mut fresh = WbcastNode::recovering(p1, config);
    let restored = crate::engine::Watermark {
        marks: vec![(g, InstanceId::new(4))],
        cursor_group: 0,
        cursor_used: 0,
    };
    AmcastEngine::install_checkpoint(&mut fresh, &restored, &Bytes::new());
    let resume = AmcastEngine::resume(&mut fresh, Time::from_secs(1));
    assert!(!resume.is_empty(), "resync issued to the sequencer");
    // A live heartbeat with a far-future promise arrives before the
    // replay: the frontier moves, the watermark must not.
    fresh.on_event(
        Time::from_secs(1),
        Event::Message {
            from: ProcessId::new(0),
            msg: WbMessage::Heartbeat {
                group: g,
                epoch: 0,
                ts: 10_000,
            }
            .into_frame(),
        },
    );
    assert_eq!(
        AmcastEngine::watermark(&fresh).mark_of(g).value(),
        4,
        "watermark pinned to the restored floor while resyncing"
    );
    // The replay terminator restores the frontier's meaning and
    // with it the watermark.
    fresh.on_event(
        Time::from_secs(1),
        Event::Message {
            from: ProcessId::new(0),
            msg: WbMessage::ResyncDone {
                group: g,
                epoch: 0,
                ts: 9_000,
                gap_to: 0,
            }
            .into_frame(),
        },
    );
    assert!(
        AmcastEngine::watermark(&fresh).mark_of(g).value() >= 9_000,
        "watermark tracks the live stream again after ResyncDone"
    );
}

/// Review regression: a restarted process that *statically*
/// coordinates a group it subscribes to must not answer its own
/// resync from its freshly empty history — that would clear the
/// delivery hold and permanently skip everything a replacement
/// sequencer released while it was down. A recovering node
/// relinquishes the role until the coordination service speaks; the
/// `CoordinatorChange` then re-routes the still-outstanding resync
/// to the actual sequencer.
#[test]
fn restarted_configured_sequencer_resyncs_from_replacement() {
    let config = disjoint_config(&[&[0, 1]]);
    let p0 = ProcessId::new(0);
    let p1 = ProcessId::new(1);
    let g = GroupId::new(0);
    let ring = RingId::new(0);
    let mut nodes = spawn(&config);
    // Three values ordered by the configured sequencer p0.
    let mut queue = Vec::new();
    for k in 0..3u8 {
        let (_, actions) = AmcastEngine::multicast(
            nodes.get_mut(&p0).unwrap(),
            Time::ZERO,
            &[g],
            Bytes::from(vec![k]),
        )
        .unwrap();
        queue.extend(actions.into_iter().map(|a| (p0, a)));
    }
    pump(&mut nodes, queue);
    assert_eq!(counter(&nodes[&p0], "sub.delivered"), 3);
    // p0 checkpoints, then crashes. p1 is elected sequencer and
    // orders two more values; frames toward the dead p0 are lost.
    let w = AmcastEngine::watermark(&nodes[&p0]);
    let state = AmcastEngine::checkpoint_state(&nodes[&p0]);
    nodes.remove(&p0);
    let election = Event::CoordinatorChange {
        ring,
        coordinator: p1,
        supersedes: multiring_paxos::types::Ballot::new(1, p1),
    };
    let drive = |nodes: &mut Map<ProcessId, WbcastNode>, from: ProcessId, t: Time, ev: Event| {
        let mut queue: std::collections::VecDeque<(ProcessId, Action)> = nodes
            .get_mut(&from)
            .unwrap()
            .on_event(t, ev)
            .into_iter()
            .map(|a| (from, a))
            .collect();
        while let Some((origin, action)) = queue.pop_front() {
            if let Action::Send { to, msg } = action {
                let Some(node) = nodes.get_mut(&to) else {
                    continue; // p0 is down: the frame is lost
                };
                for a in node.on_event(t, Event::Message { from: origin, msg }) {
                    queue.push_back((to, a));
                }
            }
        }
    };
    drive(&mut nodes, p1, Time::from_millis(100), election.clone());
    for k in 3..5u8 {
        let (_, actions) = AmcastEngine::multicast(
            nodes.get_mut(&p1).unwrap(),
            Time::from_millis(100),
            &[g],
            Bytes::from(vec![k]),
        )
        .unwrap();
        for (from, a) in actions.into_iter().map(|a| (p1, a)) {
            if let Action::Send { to, msg } = a {
                if nodes.contains_key(&to) {
                    nodes
                        .get_mut(&to)
                        .unwrap()
                        .on_event(Time::from_millis(100), Event::Message { from, msg });
                }
            }
        }
    }
    // Past the takeover grace window, p1's Δ tick releases both.
    drive(
        &mut nodes,
        p1,
        Time::from_millis(900),
        Event::Timer(TimerKind::Delta(ring)),
    );
    assert_eq!(counter(&nodes[&p1], "sub.delivered"), 5);
    // p0 restarts from its checkpoint. Its resume self-routes the
    // resync (the static config names itself), but a recovering
    // node holds no sequencer role: the request stays outstanding
    // and nothing is delivered.
    let mut fresh = WbcastNode::recovering(p0, config.clone());
    AmcastEngine::install_checkpoint(&mut fresh, &w, &state);
    nodes.insert(p0, fresh);
    let resume_actions = AmcastEngine::resume(nodes.get_mut(&p0).unwrap(), Time::from_secs(1));
    assert!(
        resume_actions.is_empty(),
        "the self-addressed resync is swallowed, not answered from an empty history"
    );
    assert_eq!(counter(&nodes[&p0], "sub.delivered"), 0);
    // The coordination service announces the actual sequencer: the
    // still-outstanding resync is re-issued to p1, whose history
    // replays exactly the two values released during the downtime.
    drive(&mut nodes, p0, Time::from_secs(2), election);
    assert_eq!(
        counter(&nodes[&p0], "sub.delivered"),
        2,
        "the downtime gap is replayed from the replacement sequencer"
    );
    assert_eq!(
        nodes[&p0].horizons()[&g],
        nodes[&p1].horizons()[&g],
        "frontier re-anchored to the live stream"
    );
}

/// A takeover resumes the group clock past every key and promise
/// the new sequencer observed from the previous one, and stamps a
/// fresh epoch.
#[test]
fn takeover_resumes_above_observed_keys() {
    let config = disjoint_config(&[&[0, 1]]);
    let mut n1 = WbcastNode::new(ProcessId::new(1), config);
    let value = Value::new(
        ValueId::new(ProcessId::new(0), 1),
        GroupId::new(0),
        Bytes::from_static(b"x"),
    );
    let ordered = WbMessage::Ordered {
        group: GroupId::new(0),
        epoch: 0,
        ts: 41,
        groups: vec![GroupId::new(0)],
        value,
    }
    .into_frame();
    n1.on_event(
        Time::ZERO,
        Event::Message {
            from: ProcessId::new(0),
            msg: ordered,
        },
    );
    n1.on_event(
        Time::ZERO,
        Event::CoordinatorChange {
            ring: RingId::new(0),
            coordinator: ProcessId::new(1),
            supersedes: multiring_paxos::types::Ballot::ZERO,
        },
    );
    let seq = &n1.led[&GroupId::new(0)];
    assert!(
        seq.state.next_ts > 41,
        "clock resumed past the observed key"
    );
    assert_eq!(seq.state.epoch, 1, "fresh sequencer epoch");
    assert!(seq.resume_at.is_some(), "recovery window armed");
}

/// The tentpole's core scenario: the initiator of a multi-group
/// round crashes after its `Submit`s went out but before any
/// `Final` — previously every addressed group's stream stalled
/// forever behind the undecided proposal. The orphan timeout makes
/// the sequencers assume the initiator role: they collect each
/// other's proposals and complete the round at the max timestamp,
/// so every surviving subscriber of γ delivers exactly once, at the
/// identical final key in both groups.
#[test]
fn initiator_crash_orphan_recovery_completes_round() {
    let config = disjoint_config(&[&[0, 1], &[2, 3]]);
    let mut nodes = spawn(&config);
    let p1 = ProcessId::new(1);
    let (id, actions) = AmcastEngine::multicast(
        nodes.get_mut(&p1).unwrap(),
        Time::ZERO,
        &[GroupId::new(0), GroupId::new(1)],
        Bytes::from_static(b"orphan"),
    )
    .unwrap();
    // p1 crashes: its state is gone, frames to it are lost.
    nodes.remove(&p1);
    let queue = actions.into_iter().map(|a| (p1, a)).collect();
    pump_lossy(&mut nodes, queue, Time::ZERO);
    for p in [0u32, 2] {
        assert_eq!(
            gauge(&nodes[&ProcessId::new(p)], "seq.undecided"),
            1,
            "sequencer {p} holds the orphaned proposal"
        );
    }
    // Past the orphan timeout, group 0's Δ tick starts recovery and
    // the exchange completes the round in both groups.
    let t = Time::from_millis(100);
    let p0 = ProcessId::new(0);
    let ticked = nodes
        .get_mut(&p0)
        .unwrap()
        .on_event(t, Event::Timer(TimerKind::Delta(RingId::new(0))));
    let queue = ticked.into_iter().map(|a| (p0, a)).collect();
    let late = pump_lossy(&mut nodes, queue, t);
    let key_of = |p: u32| {
        late.delivered
            .get(&ProcessId::new(p))
            .into_iter()
            .flatten()
            .filter(|(_, _, i)| *i == id)
            .map(|(_, ts, i)| (*ts, *i))
            .collect::<Vec<_>>()
    };
    for p in [0u32, 2, 3] {
        assert_eq!(
            key_of(p).len(),
            1,
            "survivor {p} delivers the orphan exactly once"
        );
    }
    assert_eq!(
        key_of(0),
        key_of(2),
        "identical final timestamp in both groups"
    );
    for p in [0u32, 2] {
        assert_eq!(
            gauge(&nodes[&ProcessId::new(p)], "seq.undecided"),
            0,
            "no residual undecided proposal at sequencer {p}"
        );
    }
    // The round is tracked until every group confirms release: the
    // recoverer's next re-probe past another orphan timeout sees
    // `Released` everywhere and retires it.
    assert_eq!(nodes[&p0].orphans.len(), 1, "awaiting release confirmation");
    let t2 = Time::from_millis(200);
    let ticked = nodes
        .get_mut(&p0)
        .unwrap()
        .on_event(t2, Event::Timer(TimerKind::Delta(RingId::new(0))));
    let queue = ticked.into_iter().map(|a| (p0, a)).collect();
    pump_lossy(&mut nodes, queue, t2);
    assert!(
        nodes[&p0].orphans.is_empty(),
        "round retires once every group confirms release"
    );
}

/// Review regression: once a sequencer has answered an
/// `OrphanQuery` for a pending proposal, a plain `Final` from the
/// (falsely-suspected) initiator must be dropped — if it could race
/// the recoverer's `OrphanFinal`, the two deciders could win in
/// different groups and split the round across two final
/// timestamps. Only the recovery decision lands.
#[test]
fn fenced_proposal_ignores_the_initiators_final_until_recovery_decides() {
    let config = disjoint_config(&[&[0, 1], &[2, 3]]);
    let mut n2 = WbcastNode::new(ProcessId::new(2), config);
    let initiator = ProcessId::new(0);
    let id = ValueId::new(initiator, 1);
    let value = Value::new(id, GroupId::new(0), Bytes::from_static(b"m"));
    let g1 = GroupId::new(1);
    let ev = |from: ProcessId, msg: WbMessage| Event::Message {
        from,
        msg: msg.into_frame(),
    };
    n2.on_event(
        Time::ZERO,
        ev(
            initiator,
            WbMessage::Submit {
                group: g1,
                groups: vec![GroupId::new(0), g1],
                value,
            },
        ),
    );
    let ts = n2.led[&g1].state.pending[&id].ts;
    // A recoverer (group 0's sequencer) queries: the proposal is
    // now fenced.
    n2.on_event(
        Time::ZERO,
        ev(
            ProcessId::new(0),
            WbMessage::OrphanQuery {
                group: g1,
                id,
                attempt: 1,
            },
        ),
    );
    // The slow initiator's own Final arrives: dropped, the round
    // stays pending.
    let out = n2.on_event(
        Time::ZERO,
        ev(
            initiator,
            WbMessage::Final {
                group: g1,
                id,
                ts: ts + 3,
            },
        ),
    );
    assert!(out.is_empty(), "fenced round ignores the initiator's Final");
    assert_eq!(
        gauge(&n2, "seq.undecided"),
        1,
        "still pending — recovery owns it"
    );
    // The recovery decision lands and releases at ITS timestamp.
    let out = n2.on_event(
        Time::ZERO,
        ev(
            ProcessId::new(0),
            WbMessage::OrphanFinal {
                group: g1,
                id,
                ts: ts + 7,
            },
        ),
    );
    assert_eq!(
        gauge(&n2, "seq.undecided"),
        0,
        "recovery decides the fenced round"
    );
    let released: Vec<u64> = out
        .iter()
        .filter_map(|a| match a {
            Action::Send {
                msg: Message::Engine { payload, .. },
                ..
            } => match WbMessage::parse(payload.clone()) {
                Some(WbMessage::Ordered { ts, .. }) => Some(ts),
                _ => None,
            },
            _ => None,
        })
        .collect();
    assert!(
        released.contains(&(ts + 7)),
        "released at the recovery timestamp: {released:?}"
    );
    assert!(
        !released.contains(&(ts + 3)),
        "the initiator's racing timestamp never enters the stream"
    );
}

/// Review regression (agreement): an `OrphanFinal` that dies with
/// an addressed sequencer which crashed right after reporting its
/// proposal must not lose the round in that group while the others
/// deliver. The recoverer keeps the round until every group
/// confirms *release*: its re-probe finds the replacement sequencer
/// empty-handed, re-seeds it, and re-decides at the recorded —
/// immutable — timestamp, so the late group delivers at exactly the
/// key the early group already used.
#[test]
fn lost_orphan_final_is_redriven_until_every_group_confirms_release() {
    let config = disjoint_config(&[&[0, 1], &[2, 3]]);
    let mut nodes = spawn(&config);
    let p0 = ProcessId::new(0);
    let p1 = ProcessId::new(1);
    let p2 = ProcessId::new(2);
    let p3 = ProcessId::new(3);
    let g1 = GroupId::new(1);
    let (id, actions) = AmcastEngine::multicast(
        nodes.get_mut(&p1).unwrap(),
        Time::ZERO,
        &[GroupId::new(0), g1],
        Bytes::from_static(b"orphan"),
    )
    .unwrap();
    nodes.remove(&p1); // the initiator dies with the round in flight
    pump_lossy(
        &mut nodes,
        actions.into_iter().map(|a| (p1, a)).collect(),
        Time::ZERO,
    );
    // p0's orphan timeout: step the exchange by hand so p2 can
    // crash at the worst instant — after its OrphanState reply,
    // before the OrphanFinal reaches it.
    let t = Time::from_millis(100);
    let ticked = nodes
        .get_mut(&p0)
        .unwrap()
        .on_event(t, Event::Timer(TimerKind::Delta(RingId::new(0))));
    let to_p2: Vec<Message> = ticked
        .iter()
        .filter_map(|a| match a {
            Action::Send { to, msg } if *to == p2 => Some(msg.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(to_p2.len(), 1, "exactly the OrphanQuery goes to p2");
    let replies = nodes.get_mut(&p2).unwrap().on_event(
        t,
        Event::Message {
            from: p0,
            msg: to_p2[0].clone(),
        },
    );
    // p2 crashes now: its reply survives (already on the wire), the
    // OrphanFinal p0 sends in response dies on the way back.
    nodes.remove(&p2);
    let mut p0_fts = None;
    for a in replies {
        if let Action::Send { to, msg } = a {
            assert_eq!(to, p0);
            let out = nodes
                .get_mut(&p0)
                .unwrap()
                .on_event(t, Event::Message { from: p2, msg });
            for a in out {
                if let Action::Deliver { instance, .. } = a {
                    p0_fts = Some(instance.value());
                }
                // Sends to the dead p2 (the OrphanFinal) are lost.
            }
        }
    }
    let p0_fts = p0_fts.expect("p0 delivered its copy at the decided timestamp");
    assert!(
        counter(&nodes[&p3], "sub.delivered") == 0,
        "group 1 lost the decision"
    );
    // The coordination service elects p3 as group 1's sequencer:
    // p0's stuck-round re-kick finds the replacement empty-handed,
    // re-seeds it, and re-decides at the recorded timestamp.
    let t2 = Time::from_millis(300);
    let election = |coordinator| Event::CoordinatorChange {
        ring: RingId::new(1),
        coordinator,
        supersedes: multiring_paxos::types::Ballot::new(1, p3),
    };
    nodes.get_mut(&p3).unwrap().on_event(t2, election(p3));
    let rekick = nodes.get_mut(&p0).unwrap().on_event(t2, election(p3));
    pump_lossy(
        &mut nodes,
        rekick.into_iter().map(|a| (p0, a)).collect(),
        t2,
    );
    // Past p3's takeover grace window, its Δ tick releases the
    // re-decided value.
    let t3 = Time::from_millis(600);
    let released = nodes
        .get_mut(&p3)
        .unwrap()
        .on_event(t3, Event::Timer(TimerKind::Delta(RingId::new(1))));
    let p3_fts: Vec<u64> = released
        .iter()
        .filter_map(|a| match a {
            Action::Deliver {
                instance, value, ..
            } if value.id == id => Some(instance.value()),
            _ => None,
        })
        .collect();
    assert_eq!(
        p3_fts,
        vec![p0_fts],
        "the late group delivers exactly once, at the early group's timestamp"
    );
    // The recoverer's next re-probe sees Released everywhere and
    // retires the round.
    let t4 = Time::from_millis(900);
    let probe = nodes
        .get_mut(&p0)
        .unwrap()
        .on_event(t4, Event::Timer(TimerKind::Delta(RingId::new(0))));
    pump_lossy(&mut nodes, probe.into_iter().map(|a| (p0, a)).collect(), t4);
    assert!(nodes[&p0].orphans.is_empty(), "round confirmed and retired");
}

/// Recovery when one addressed group never saw the `Submit` (lost
/// with the crash): the recoverer re-submits on the orphan's behalf
/// and completes once the fresh proposal is in.
#[test]
fn orphan_recovery_resubmits_to_groups_that_never_saw_the_submit() {
    let config = disjoint_config(&[&[0, 1], &[2, 3]]);
    let mut nodes = spawn(&config);
    let p1 = ProcessId::new(1);
    let (id, actions) = AmcastEngine::multicast(
        nodes.get_mut(&p1).unwrap(),
        Time::ZERO,
        &[GroupId::new(0), GroupId::new(1)],
        Bytes::from_static(b"partial"),
    )
    .unwrap();
    nodes.remove(&p1);
    // Only group 0's Submit survives the crash.
    let queue = actions
        .into_iter()
        .filter(|a| a.send_to() == Some(ProcessId::new(0)))
        .map(|a| (p1, a))
        .collect();
    pump_lossy(&mut nodes, queue, Time::ZERO);
    assert_eq!(gauge(&nodes[&ProcessId::new(0)], "seq.undecided"), 1);
    assert_eq!(
        gauge(&nodes[&ProcessId::new(2)], "seq.undecided"),
        0,
        "group 1 never saw the round"
    );
    let t = Time::from_millis(100);
    let p0 = ProcessId::new(0);
    let ticked = nodes
        .get_mut(&p0)
        .unwrap()
        .on_event(t, Event::Timer(TimerKind::Delta(RingId::new(0))));
    let queue = ticked.into_iter().map(|a| (p0, a)).collect();
    let late = pump_lossy(&mut nodes, queue, t);
    for p in [0u32, 2, 3] {
        let copies = late
            .delivered
            .get(&ProcessId::new(p))
            .into_iter()
            .flatten()
            .filter(|(_, _, i)| *i == id)
            .count();
        assert_eq!(copies, 1, "survivor {p} delivers exactly once");
    }
    for p in [0u32, 2] {
        assert_eq!(gauge(&nodes[&ProcessId::new(p)], "seq.undecided"), 0);
    }
}

/// Satellite regression (`on_resync` silent gap): a resync from
/// below the sequencer's retained-history floor — here created by
/// the [`UNREPORTED_HISTORY_CAP`] eviction — must not replay a
/// truncated stream behind a terminator that claims
/// prefix-completeness. The terminator now carries the gap, and the
/// recovering subscriber re-anchors at the floor and surfaces the
/// truncation instead of delivering with a silent hole.
#[test]
fn below_floor_resync_signals_truncation_and_reanchors() {
    let config = single_ring(2, RingTuning::default());
    let p0 = ProcessId::new(0);
    let p1 = ProcessId::new(1);
    let mut nodes = spawn(&config);
    let extra = 10u64;
    let total = UNREPORTED_HISTORY_CAP as u64 + extra;
    // p1 is down the whole time: p0 orders `total` values alone and
    // the cap evicts the oldest `extra` from its history.
    nodes.remove(&p1);
    for i in 0..total {
        let (_, actions) = AmcastEngine::multicast(
            nodes.get_mut(&p0).unwrap(),
            Time::ZERO,
            &[GroupId::new(0)],
            Bytes::from(i.to_le_bytes().to_vec()),
        )
        .unwrap();
        pump_lossy(
            &mut nodes,
            actions.into_iter().map(|a| (p0, a)).collect(),
            Time::ZERO,
        );
    }
    let (_, history) = nodes[&p0].sequencer_footprint();
    assert_eq!(history, UNREPORTED_HISTORY_CAP, "cap enforced");
    // p1 starts from scratch (no checkpoint) and resyncs from 0 —
    // below the evicted floor.
    let mut fresh = WbcastNode::recovering(p1, config.clone());
    let resume = AmcastEngine::resume(&mut fresh, Time::from_millis(1));
    nodes.insert(p1, fresh);
    let replay = pump_lossy(
        &mut nodes,
        resume.into_iter().map(|a| (p1, a)).collect(),
        Time::from_millis(1),
    );
    let n1 = &nodes[&p1];
    assert_eq!(
        n1.resync_truncations(),
        1,
        "the truncated replay is surfaced, not silent"
    );
    let delivered = replay.delivered.get(&p1).map_or(0, std::vec::Vec::len) as u64;
    assert_eq!(
        delivered,
        total - extra,
        "exactly the retained suffix is delivered"
    );
    // The re-anchor writes the hole off explicitly: the floor sits
    // at the evicted boundary, and the watermark never claims the
    // missing prefix was executed as part of a complete stream.
    assert_eq!(
        n1.horizons()[&GroupId::new(0)],
        nodes[&p0].horizons()[&GroupId::new(0)],
        "frontier re-anchored to the live stream"
    );
}

/// Satellite regression (dead-subscriber prune-floor freeze): a
/// subscriber that reported one durable mark and then crashed no
/// longer pins the sequencer's `done`/`history` growth — once the
/// coordination service reports it down, the retention floor
/// advances past its stale mark (modulo a bounded courtesy band so
/// a quick restart still replays exactly), and a late revival
/// resyncing from below the advanced floor is answered with an
/// explicit truncation.
#[test]
fn prune_floor_advances_past_dead_reporter() {
    let config = single_ring(3, RingTuning::default());
    let p0 = ProcessId::new(0);
    let g = GroupId::new(0);
    let mut n = WbcastNode::new(p0, config);
    let submit = |n: &mut WbcastNode, count: u64| {
        for i in 0..count {
            AmcastEngine::multicast(n, Time::ZERO, &[g], Bytes::from(i.to_le_bytes().to_vec()))
                .unwrap();
        }
    };
    submit(&mut n, 50);
    // All three subscribers report once (which also lifts the
    // unreported-history cap); p2's mark then freezes at 10.
    for (p, ts) in [(0u32, 40u64), (1, 40), (2, 10)] {
        n.on_event(
            Time::ZERO,
            Event::Message {
                from: ProcessId::new(p),
                msg: WbMessage::CkptMark { group: g, ts }.into_frame(),
            },
        );
    }
    assert_eq!(n.sequencer_footprint(), (40, 40), "pruned to the min mark");
    // p2 never reports again; p0/p1 keep checkpointing. While p2 is
    // believed alive, its stale mark freezes the floor: state grows
    // with uptime.
    let burst = UNREPORTED_HISTORY_CAP as u64 + 250;
    submit(&mut n, burst);
    let live_mark = 10 + 40 + burst; // timestamps are dense from 1
    for p in [0u32, 1] {
        n.on_event(
            Time::ZERO,
            Event::Message {
                from: ProcessId::new(p),
                msg: WbMessage::CkptMark {
                    group: g,
                    ts: live_mark,
                }
                .into_frame(),
            },
        );
    }
    let (done, history) = n.sequencer_footprint();
    assert!(
        history > UNREPORTED_HISTORY_CAP && done > UNREPORTED_HISTORY_CAP,
        "a live-but-lagging reporter legitimately freezes the floor: {done}/{history}"
    );
    // The coordination service reports p2 crashed: the floor
    // advances past its mark, and retention drops to the bounded
    // courtesy band plus the live checkpoint window.
    n.on_event(
        Time::ZERO,
        Event::MembershipChange {
            ring: RingId::new(0),
            down: vec![ProcessId::new(2)],
        },
    );
    let (done, history) = n.sequencer_footprint();
    assert!(
        history <= UNREPORTED_HISTORY_CAP + 250 && done <= UNREPORTED_HISTORY_CAP + 250,
        "dead reporter no longer grows sequencer state with uptime: {done}/{history}"
    );
    // A revived p2 resyncing from its stale mark gets the gap
    // spelled out in the replay terminator instead of a silently
    // truncated stream.
    let out = n.on_event(
        Time::ZERO,
        Event::Message {
            from: ProcessId::new(2),
            msg: WbMessage::Resync {
                group: g,
                from_ts: 10,
            }
            .into_frame(),
        },
    );
    let gap = out.iter().find_map(|a| match a {
        Action::Send {
            to,
            msg: Message::Engine { payload, .. },
        } if *to == ProcessId::new(2) => match WbMessage::parse(payload.clone()) {
            Some(WbMessage::ResyncDone { gap_to, .. }) => Some(gap_to),
            _ => None,
        },
        _ => None,
    });
    let gap = gap.expect("replay terminator present");
    assert!(gap > 10, "below-floor resync flags the truncation: {gap}");
}

/// Health probe: a multi-group round whose frames to the other
/// group's sequencer are all lost stays unsettled, and once it has
/// waited past the stall window the probe flags it — while a fresh
/// probe right after submission stays clean.
#[test]
fn health_probe_flags_wedged_round() {
    let config = disjoint_config(&[&[0], &[1]]);
    let p0 = ProcessId::new(0);
    let mut n = WbcastNode::new(p0, config.clone());
    let (_, actions) = AmcastEngine::multicast(
        &mut n,
        Time::ZERO,
        &[GroupId::new(0), GroupId::new(1)],
        Bytes::from_static(b"wedged"),
    )
    .unwrap();
    // The frames to group 1's sequencer (p1) are dropped: the round
    // can never collect its second timestamp proposal.
    drop(actions);
    assert!(
        AmcastEngine::health(&n, Time::ZERO).is_healthy(),
        "a just-submitted round is not a stall"
    );
    let delta_us = config
        .rings()
        .values()
        .map(|r| r.tuning().delta_us)
        .max()
        .unwrap();
    let late = Time::ZERO.plus(crate::telemetry::STALL_DELTAS * delta_us + 1);
    let report = AmcastEngine::health(&n, late);
    assert_eq!(
        report.issues_with("stalled_round").count(),
        1,
        "the wedged round trips the probe: {report:?}"
    );
    let snap = AmcastEngine::telemetry(&n);
    assert_eq!(snap.counter("round.submitted"), 1);
    assert_eq!(snap.counter("round.submitted_multi_group"), 1);
    assert_eq!(snap.counter("round.released"), 0);
    assert_eq!(snap.gauge("inflight"), 1);
}

/// Health probe: a live-but-lagging reporter freezing the
/// checkpoint prune floor is flagged while the floor is frozen, and
/// the flag clears once the coordination service declares the
/// laggard down and the floor advances again.
#[test]
fn health_probe_flags_frozen_prune_floor() {
    let config = single_ring(3, RingTuning::default());
    let p0 = ProcessId::new(0);
    let g = GroupId::new(0);
    let mut n = WbcastNode::new(p0, config);
    // Everyone reports once, then p2's mark freezes while the
    // others keep checkpointing through a large burst.
    for i in 0..50u64 {
        AmcastEngine::multicast(
            &mut n,
            Time::ZERO,
            &[g],
            Bytes::from(i.to_le_bytes().to_vec()),
        )
        .unwrap();
    }
    for (p, ts) in [(0u32, 40u64), (1, 40), (2, 10)] {
        n.on_event(
            Time::ZERO,
            Event::Message {
                from: ProcessId::new(p),
                msg: WbMessage::CkptMark { group: g, ts }.into_frame(),
            },
        );
    }
    let burst = UNREPORTED_HISTORY_CAP as u64 + 250;
    for i in 0..burst {
        AmcastEngine::multicast(
            &mut n,
            Time::ZERO,
            &[g],
            Bytes::from(i.to_le_bytes().to_vec()),
        )
        .unwrap();
    }
    let live_mark = 10 + 40 + burst;
    for p in [0u32, 1] {
        n.on_event(
            Time::ZERO,
            Event::Message {
                from: ProcessId::new(p),
                msg: WbMessage::CkptMark {
                    group: g,
                    ts: live_mark,
                }
                .into_frame(),
            },
        );
    }
    let report = AmcastEngine::health(&n, Time::ZERO);
    assert_eq!(
        report.issues_with("frozen_prune_floor").count(),
        1,
        "over-cap retention with a frozen mark trips the probe: {report:?}"
    );
    assert!(
        AmcastEngine::telemetry(&n).gauge("seq.history_retained") > UNREPORTED_HISTORY_CAP as u64
    );
    n.on_event(
        Time::ZERO,
        Event::MembershipChange {
            ring: RingId::new(0),
            down: vec![ProcessId::new(2)],
        },
    );
    assert_eq!(
        AmcastEngine::health(&n, Time::ZERO)
            .issues_with("frozen_prune_floor")
            .count(),
        0,
        "declaring the laggard down advances the floor and clears the flag"
    );
}

/// Health probe: a recovering subscriber whose resync is still
/// unanswered holds deliveries, and the probe says so until the
/// replay terminator arrives.
#[test]
fn health_probe_flags_held_deliveries_during_resync() {
    let config = single_ring(2, RingTuning::default());
    let p1 = ProcessId::new(1);
    let mut fresh = WbcastNode::recovering(p1, config);
    let _resync_frames = AmcastEngine::resume(&mut fresh, Time::ZERO);
    let report = AmcastEngine::health(&fresh, Time::ZERO);
    assert_eq!(
        report.issues_with("held_deliveries").count(),
        1,
        "the outstanding resync holds the stream: {report:?}"
    );
    assert_eq!(
        AmcastEngine::telemetry(&fresh).gauge("sub.resyncing_streams"),
        1
    );
}

// ---------------------------------------------------------------------
// Demand-driven promises: a blocked subscriber probes the idle stream.
// ---------------------------------------------------------------------

/// g0 on ring {p0, p2} (sequencer p0), g1 on ring {p1, p2} (sequencer
/// p1); only p2 subscribes to both, so neither sequencer ever sees the
/// other group's timestamps.
fn idle_stream_config() -> ClusterConfig {
    let mut b = ClusterConfig::builder();
    for g in 0..2u16 {
        b = b
            .ring(
                RingSpec::new(RingId::new(g))
                    .member(ProcessId::new(u32::from(g)), Roles::ALL)
                    .member(ProcessId::new(2), Roles::ALL),
            )
            .group(GroupId::new(g), RingId::new(g))
            .subscribe(ProcessId::new(u32::from(g)), GroupId::new(g))
            .subscribe(ProcessId::new(2), GroupId::new(g));
    }
    b.build().expect("idle-stream config")
}

/// Submits one single-group value at `p` and returns the resulting
/// actions tagged with their origin, ready for a pump.
fn submit(
    nodes: &mut Map<ProcessId, WbcastNode>,
    p: ProcessId,
    now: Time,
    group: GroupId,
) -> Vec<(ProcessId, Action)> {
    let node = nodes.get_mut(&p).unwrap();
    let (_, actions) =
        AmcastEngine::multicast(node, now, &[group], Bytes::from_static(b"v")).unwrap();
    actions.into_iter().map(|a| (p, a)).collect()
}

fn is_probe(msg: &Message) -> bool {
    matches!(msg, Message::Engine { payload, .. } if frame_kind(payload.clone()) == Some("probe"))
}

/// The wbcast frames among `actions`' sends.
fn sent_frames(actions: &[Action]) -> Vec<WbMessage> {
    actions
        .iter()
        .filter_map(|a| match a {
            Action::Send {
                msg: Message::Engine { payload, .. },
                ..
            } => WbMessage::parse(payload.clone()),
            _ => None,
        })
        .collect()
}

/// Over TCP every process counts time from its own start, so two
/// sequencers' hybrid clocks can sit arbitrarily far apart. Without the
/// probe, p2 would hold g0's value until p1's clock — 10 s behind p0's —
/// caught up by itself; with it, delivery costs one round trip to p1
/// and no timer at all (this pump fires none).
#[test]
fn blocked_subscriber_probes_the_idle_sequencer_across_time_bases() {
    let (p0, p1, p2) = (ProcessId::new(0), ProcessId::new(1), ProcessId::new(2));
    let mut nodes = spawn(&idle_stream_config());
    let now_of = |p: ProcessId| {
        if p == p0 {
            Time::from_secs(10)
        } else {
            Time::from_micros(300)
        }
    };
    let queue = submit(&mut nodes, p0, now_of(p0), GroupId::new(0));
    let delivered = pump_with(&mut nodes, queue, true, now_of, |_| 1).delivered;
    assert_eq!(delivered[&p2].len(), 1, "p2 delivers on the probe's answer");
    assert_eq!(delivered[&p2], delivered[&p0]);
    assert!(delivered[&p2][0].1 > 10_000_000, "keyed on p0's time base");
    assert_eq!(counter(&nodes[&p2], "sub.probes_sent"), 1);
    assert_eq!(counter(&nodes[&p1], "seq.probes_answered"), 1);
    assert_eq!(counter(&nodes[&p1], "seq.probes_redundant"), 0);
    let waits = &nodes[&p2].telemetry().histograms["sub.frontier_wait_us"];
    assert_eq!(waits.count(), 1, "the blocked head's wait is recorded");
}

/// Where the idle group's sequencer subscribes to the busy group (the
/// dLog and MRP-Store deployments: everyone subscribes to everything)
/// it sees the value itself, and the probe that matters is the one it
/// routes to itself — nobody else puts a `Probe` on the wire.
#[test]
fn sequencer_that_sees_the_value_asks_itself_and_nobody_else_asks() {
    let mut b = ClusterConfig::builder();
    for g in 0..2u16 {
        let mut spec = RingSpec::new(RingId::new(g));
        for p in 0..3u32 {
            spec = spec.member(ProcessId::new((p + u32::from(g)) % 3), Roles::ALL);
            b = b.subscribe(ProcessId::new(p), GroupId::new(g));
        }
        b = b.ring(spec).group(GroupId::new(g), RingId::new(g));
    }
    let mut nodes = spawn(&b.build().expect("shared two-group config"));
    let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
    // g0's sequencer p0 runs 10 s ahead of everyone else.
    let now_of = |p: ProcessId| Time::from_secs(if p == p0 { 10 } else { 0 });
    let queue = submit(&mut nodes, p0, now_of(p0), GroupId::new(0));
    let mut probes_on_the_wire = 0;
    let delivered = pump_with(&mut nodes, queue, true, now_of, |m| {
        probes_on_the_wire += usize::from(is_probe(m));
        1
    })
    .delivered;
    assert_eq!(delivered.len(), 3, "everyone delivers, no timer fired");
    assert_eq!(probes_on_the_wire, 0);
    let sent: Vec<u64> = nodes
        .values()
        .map(|n| counter(n, "sub.probes_sent"))
        .collect();
    assert_eq!(sent, [0, 1, 0], "g1's sequencer p1 asked itself");
    assert_eq!(counter(&nodes[&p1], "seq.probes_answered"), 1);
}

/// The Δ heartbeat is the backstop: with every `Probe` lost, each
/// subscriber still delivers the sequence it delivers with probes, one
/// tick later. (Sequences of values: the timestamps differ, a probe
/// being one more frame the Lamport receive rule applies to.)
#[test]
fn dropped_probes_fall_back_to_the_delta_heartbeat() {
    let (p0, p1, p2) = (ProcessId::new(0), ProcessId::new(1), ProcessId::new(2));
    let (g0, g1) = (GroupId::new(0), GroupId::new(1));
    let at = Time::from_micros(1_000);
    let run = |lose_probes: bool| {
        let mut nodes = spawn(&idle_stream_config());
        let mut delivered: Map<ProcessId, Vec<(GroupId, ValueId)>> = Map::new();
        let mut pump = |nodes: &mut Map<ProcessId, WbcastNode>, queue, now: Time| {
            let copies = |m: &Message| usize::from(!(lose_probes && is_probe(m)));
            for (p, seq) in pump_with(nodes, queue, true, |_| now, copies).delivered {
                let values = seq.into_iter().map(|(g, _, id)| (g, id));
                delivered.entry(p).or_default().extend(values);
            }
            delivered.get(&p2).map_or(0, Vec::len)
        };
        let mut before_tick = 0;
        for (p, g) in [(p0, g0), (p1, g1), (p0, g0)] {
            let queue = submit(&mut nodes, p, at, g);
            before_tick = pump(&mut nodes, queue, at);
        }
        // One Δ later both sequencers tick.
        let tick = at.plus(RingTuning::default().delta_us);
        for (p, ring) in [(p0, 0), (p1, 1)] {
            let fired = nodes
                .get_mut(&p)
                .unwrap()
                .on_event(tick, Event::Timer(TimerKind::Delta(RingId::new(ring))));
            pump(
                &mut nodes,
                fired.into_iter().map(|a| (p, a)).collect(),
                tick,
            );
        }
        (delivered, before_tick)
    };
    let (with_probes, early) = run(false);
    let (without, early_without) = run(true);
    assert_eq!(with_probes[&p2].len(), 3);
    assert_eq!(early, 3, "probes deliver everything before any tick");
    assert!(early_without < 3, "without them p2 waits for the tick");
    assert_eq!(without, with_probes, "same sequences at every subscriber");
}

/// A probe for a timestamp already promised — the second subscriber's,
/// a link-level duplicate, or one the Δ tick overtook — costs a counter
/// bump and nothing on the wire.
#[test]
fn duplicated_or_overtaken_probe_makes_no_second_promise() {
    let (p1, p2) = (ProcessId::new(1), ProcessId::new(2));
    let g1 = GroupId::new(1);
    let mut n1 = WbcastNode::new(p1, idle_stream_config());
    let probe = |n1: &mut WbcastNode, now: Time, ts: u64| {
        let msg = WbMessage::Probe { group: g1, ts }.into_frame();
        sent_frames(&n1.on_event(now, Event::Message { from: p2, msg }))
    };
    let now = Time::from_micros(100);
    let first = probe(&mut n1, now, 5_000);
    assert!(
        matches!(first[..], [WbMessage::Heartbeat { ts, .. }] if ts >= 5_000),
        "one promise, to the one remote subscriber: {first:?}"
    );
    assert_eq!(probe(&mut n1, now, 5_000), vec![], "duplicate");
    assert_eq!(
        probe(&mut n1, now, 4_000),
        vec![],
        "reordered behind a later one"
    );
    // The tick promises past 9 000 before the probe for it arrives.
    let tick = Time::from_micros(9_500);
    let fired = n1.on_event(tick, Event::Timer(TimerKind::Delta(RingId::new(1))));
    assert_eq!(sent_frames(&fired).len(), 1);
    assert_eq!(
        probe(&mut n1, tick, 9_000),
        vec![],
        "overtaken by the Δ heartbeat"
    );
    assert_eq!(counter(&n1, "seq.probes_answered"), 1);
    assert_eq!(counter(&n1, "seq.probes_redundant"), 3);
}

/// A promise may not overtake an undecided proposal, so a probe that
/// meets one is not answered on arrival. It is answered by the
/// activation that decides the proposal, not by the next Δ tick: by the
/// released value itself when that is keyed past the probed timestamp,
/// by a heartbeat right behind it when it is not.
#[test]
fn probe_behind_an_undecided_proposal_is_answered_by_its_final() {
    let (p1, p2) = (ProcessId::new(1), ProcessId::new(2));
    let (g0, g1) = (GroupId::new(0), GroupId::new(1));
    // The probe asks for `proposal + 50`; the round decides `decided_at`
    // past the proposal. Returns what the Final's activation sends.
    let run = |decided_at: u64| {
        let mut n1 = WbcastNode::new(p1, idle_stream_config());
        let now = Time::from_micros(100);
        let mut recv = |msg: WbMessage| {
            let msg = msg.into_frame();
            sent_frames(&n1.on_event(now, Event::Message { from: p2, msg }))
        };
        let id = ValueId::new(p2, 1);
        let proposed = recv(WbMessage::Submit {
            group: g1,
            groups: vec![g0, g1],
            value: Value::new(id, g0, Bytes::from_static(b"m")),
        });
        let [WbMessage::ProposeAck { ts: proposal, .. }] = proposed[..] else {
            panic!("expected a proposal, got {proposed:?}");
        };
        let probed = recv(WbMessage::Probe {
            group: g1,
            ts: proposal + 50,
        });
        assert_eq!(probed, vec![], "nothing is promised past the proposal");
        let ts = proposal + decided_at;
        let sent = recv(WbMessage::Final { group: g1, id, ts });
        let shape: Vec<(&str, u64)> = sent
            .iter()
            .filter_map(|m| match m {
                WbMessage::Ordered { ts, .. } => Some(("ordered", *ts - proposal)),
                WbMessage::Heartbeat { ts, .. } => Some(("heartbeat", *ts - proposal)),
                _ => None,
            })
            .collect();
        (shape, counter(&n1, "seq.probes_answered"))
    };
    // Decided below the probed timestamp: value first, promise behind.
    let (sent, answered) = run(7);
    assert!(
        matches!(sent[..], [("ordered", 7), ("heartbeat", at)] if at >= 50),
        "{sent:?}"
    );
    assert_eq!(answered, 1);
    // Decided past it: the value is the answer.
    assert_eq!(run(60), (vec![("ordered", 60)], 0));
}

/// A process subscribed to one group has no other stream to wait for:
/// it never sends a probe, whatever the load.
#[test]
fn single_group_subscriber_never_probes() {
    let mut nodes = spawn(&single_ring(3, RingTuning::default()));
    let mut probes_seen = 0;
    for i in 0..30u64 {
        let p = ProcessId::new((i % 3) as u32);
        let now = Time::from_micros(i * 40);
        let queue = submit(&mut nodes, p, now, GroupId::new(0));
        pump_with(
            &mut nodes,
            queue,
            true,
            |_| now,
            |m| {
                probes_seen += usize::from(is_probe(m));
                1
            },
        );
    }
    assert_eq!(probes_seen, 0);
    for n in nodes.values() {
        assert_eq!(counter(n, "sub.delivered"), 30);
        assert_eq!(counter(n, "sub.probes_sent"), 0);
    }
}

/// Health probe: a head value that neither a probe's answer nor a Δ
/// heartbeat has unblocked for [`STALL_DELTAS`] intervals names the
/// stream it is waiting on.
#[test]
fn health_probe_names_the_stream_blocking_the_head() {
    let (p0, p2) = (ProcessId::new(0), ProcessId::new(2));
    let mut nodes = spawn(&idle_stream_config());
    let at = Time::from_micros(1_000);
    let queue = submit(&mut nodes, p0, at, GroupId::new(0));
    // p1 is unreachable: the probe is lost and no heartbeat comes.
    nodes.remove(&ProcessId::new(1));
    pump_lossy(&mut nodes, queue, at);
    let n2 = &nodes[&p2];
    assert_eq!(counter(n2, "sub.delivered"), 0);
    let delta_us = RingTuning::default().delta_us;
    let threshold = crate::telemetry::STALL_DELTAS * delta_us;
    assert!(AmcastEngine::health(n2, at.plus(threshold)).is_healthy());
    let report = AmcastEngine::health(n2, at.plus(threshold + 1));
    let issue = report
        .issues_with("blocked_stream")
        .next()
        .expect("flagged");
    assert_eq!(issue.group, Some(GroupId::new(1)), "waiting on idle g1");
    assert_eq!(issue.detail, threshold + 1);
}
