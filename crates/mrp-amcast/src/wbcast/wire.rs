//! The engine's private wire vocabulary: the thirteen [`WbMessage`] frames
//! carried inside [`Message::Engine`] payloads, their byte layout (one
//! declaration: every frame opens with its tag and the group it
//! concerns), and the two frame classifiers test harnesses use without
//! depending on that layout.

use bytes::Bytes;
use multiring_paxos::codec::{wire_tags, Buf, BufMut, CodecError, Edges, Short, Wire};
use multiring_paxos::event::Message;
use multiring_paxos::types::{GroupId, Value, ValueId};

/// Wire id of this engine inside [`Message::Engine`] frames.
pub const WBCAST_WIRE_ID: u8 = 1;

wire_tags! {
    /// The byte a [`WbMessage`] payload opens with, one per frame.
    enum Tag for WbMessage {
        Submit = 1 { group, groups: Short, value },
        Ordered = 2 { group, epoch, ts, groups: Short, value },
        Heartbeat = 3 { group, epoch, ts },
        ProposeAck = 4 { group, id, ts },
        Final = 5 { group, id, ts },
        FinalAck = 6 { group, id, ts },
        Resync = 7 { group, from_ts },
        CkptMark = 8 { group, ts },
        ResyncDone = 9 { group, epoch, ts, gap_to },
        OrphanQuery = 10 { group, id, attempt },
        OrphanState = 11 { group, id, attempt, state },
        OrphanFinal = 12 { group, id, ts },
        Probe = 13 { group, ts },
    }
}

/// The engine's private messages, carried inside [`Message::Engine`].
#[derive(Clone, PartialEq, Debug)]
pub(super) enum WbMessage {
    /// The initiator submits a value to the sequencer of `group`, one of
    /// the addressed groups `groups` (γ).
    Submit {
        group: GroupId,
        groups: Vec<GroupId>,
        value: Value,
    },
    /// A sequencer's timestamp proposal for a multi-group value, sent
    /// back to the initiator.
    ProposeAck {
        group: GroupId,
        id: ValueId,
        ts: u64,
    },
    /// The initiator's decision: the final (maximum) timestamp for a
    /// multi-group value, sent to each addressed sequencer.
    Final {
        group: GroupId,
        id: ValueId,
        ts: u64,
    },
    /// The sequencer's confirmation to the initiator that the value was
    /// released into `group`'s ordered stream at timestamp `ts`
    /// (single-group values confirm at release too). Stops the
    /// initiator's retransmissions for that group.
    FinalAck {
        group: GroupId,
        id: ValueId,
        ts: u64,
    },
    /// A sequencer's ordering decision at the final timestamp, fanned
    /// out to the group's subscribers in strictly increasing key order.
    /// `epoch` identifies the sequencer generation (bumped on
    /// takeover), fencing deposed sequencers at subscribers.
    Ordered {
        group: GroupId,
        epoch: u32,
        ts: u64,
        groups: Vec<GroupId>,
        value: Value,
    },
    /// The sequencer's promise that all future timestamps of `group`
    /// are strictly greater than `ts`, stamped with its epoch.
    Heartbeat { group: GroupId, epoch: u32, ts: u64 },
    /// A subscriber whose delivery is blocked on `group`'s frontier asks
    /// the group's sequencer for a promise covering `ts`, the blocked
    /// value's timestamp, instead of waiting for the next Δ heartbeat.
    /// Answered, if at all, by an ordinary [`WbMessage::Heartbeat`] to
    /// every subscriber.
    Probe { group: GroupId, ts: u64 },
    /// A subscriber restarting from a checkpoint asks `group`'s
    /// sequencer to replay its released stream above `from_ts` (the
    /// restored checkpoint's delivery mark) from the retained
    /// released-value history.
    Resync { group: GroupId, from_ts: u64 },
    /// A subscriber reports the delivery mark of its latest **durable**
    /// checkpoint for `group`. Once every subscriber of the group has
    /// reported, the sequencer prunes its decided-id map and released
    /// history below the minimum — the engine-generic analogue of the
    /// ring engine's coordinated trim (Predicate 2), conservative (min
    /// over *all* subscribers, not a quorum) so a lagging or crashed
    /// subscriber can always still resync.
    CkptMark { group: GroupId, ts: u64 },
    /// Terminates a [`WbMessage::Resync`] replay: everything the
    /// sequencer had released for `group` has been retransmitted, and
    /// its promise stands at `ts`. Until this frame arrives, the
    /// restarting subscriber must not deliver — frames received before
    /// the replay (live releases, heartbeats with post-crash promises)
    /// advance frontiers past keys the replay still carries, so the
    /// frontiers only regain their "nothing smaller can arrive" meaning
    /// here. `gap_to` is zero when the replay is prefix-complete from
    /// the requested position; otherwise the sequencer has discarded
    /// history up to `gap_to` (capped retention, or pruning authorized
    /// by the live subscribers' checkpoints) and values in
    /// `(from_ts, gap_to]` may be missing from the replay — the
    /// recovering subscriber must not pretend its stream has no hole.
    ResyncDone {
        group: GroupId,
        epoch: u32,
        ts: u64,
        gap_to: u64,
    },
    /// Orphan recovery, step 1: a sequencer acting as recovery
    /// initiator for the presumed-orphaned round `id` asks `group`'s
    /// sequencer for its state. `attempt` fences replies: stale answers
    /// from a previous recovery attempt (possibly by a since-deposed
    /// sequencer) must not leak into a later collection.
    OrphanQuery {
        group: GroupId,
        id: ValueId,
        attempt: u32,
    },
    /// Orphan recovery, step 2: `group`'s sequencer reports what it
    /// holds for `id` — a decided final timestamp, a still-undecided
    /// proposal, or nothing at all (it never saw the `Submit`, or a
    /// replacement sequencer lost it with its predecessor).
    OrphanState {
        group: GroupId,
        id: ValueId,
        attempt: u32,
        state: OrphanSt,
    },
    /// Orphan recovery, step 3: the recoverer's decision — the final
    /// timestamp for the round, computed exactly as the crashed
    /// initiator would have (any already-decided timestamp wins,
    /// otherwise the maximum over every addressed group's proposal).
    /// Handled like [`WbMessage::Final`]: first decide wins, duplicates
    /// are idempotent.
    OrphanFinal {
        group: GroupId,
        id: ValueId,
        ts: u64,
    },
}

/// A sequencer's state for an orphaned round, reported in
/// [`WbMessage::OrphanState`].
#[derive(Clone, Copy, PartialEq, Hash, Debug)]
pub(super) enum OrphanSt {
    /// No trace of the value: the `Submit` never arrived (or died with
    /// a deposed sequencer). The recoverer re-submits on the orphan's
    /// behalf.
    Unknown,
    /// An undecided proposal at this timestamp.
    Proposed(u64),
    /// Decided at this final timestamp (immutable), but not yet
    /// released into the group's stream (gated behind earlier keys).
    /// The value could still be lost with this sequencer, so the
    /// recoverer keeps tracking the round.
    Decided(u64),
    /// Decided *and* released into the group's ordered stream at this
    /// final timestamp. Released frames are never lost (reliable FIFO
    /// channels), so the value is safe in this group: the recoverer's
    /// release-confirmation — the analogue of the `FinalAck` a live
    /// initiator waits for before it stops retrying.
    Released(u64),
}

/// A kind byte and a timestamp (zero for `Unknown`).
impl Wire for OrphanSt {
    fn put<B: BufMut + ?Sized>(&self, buf: &mut B) {
        match *self {
            OrphanSt::Unknown => (0u8, 0u64),
            OrphanSt::Proposed(ts) => (1, ts),
            OrphanSt::Decided(ts) => (2, ts),
            OrphanSt::Released(ts) => (3, ts),
        }
        .put(buf);
    }
    fn get<B: Buf>(buf: &mut B) -> Result<Self, CodecError> {
        Ok(match <(u8, u64)>::get(buf)? {
            (0, _) => OrphanSt::Unknown,
            (1, ts) => OrphanSt::Proposed(ts),
            (2, ts) => OrphanSt::Decided(ts),
            (3, ts) => OrphanSt::Released(ts),
            (kind, _) => return Err(CodecError::BadTag(kind)),
        })
    }
    fn draw(edges: &mut Edges) -> Self {
        let ts = u64::draw(edges);
        [
            OrphanSt::Unknown,
            OrphanSt::Proposed(ts),
            OrphanSt::Decided(ts),
            OrphanSt::Released(ts),
        ][edges.below(4)]
    }
}

impl WbMessage {
    /// Wraps this message into the shared [`Message`] vocabulary.
    pub(super) fn into_frame(self) -> Message {
        Message::Engine {
            engine: WBCAST_WIRE_ID,
            payload: self.to_bytes(),
        }
    }

    /// Parses an engine payload; `None` on malformed or foreign frames.
    pub(super) fn parse(mut payload: Bytes) -> Option<WbMessage> {
        WbMessage::get(&mut payload).ok()
    }
}

/// Whether a frame is wbcast traffic that carries or references a
/// multicast value, looking inside coalesced [`Message::Batch`] packs:
/// `Submit`/`Ordered` carry one, `ProposeAck`/`Final`/`FinalAck` and the
/// orphan-recovery exchange (`OrphanQuery`/`OrphanState`/`OrphanFinal`,
/// which travels only between addressed groups' sequencers) reference
/// one by id; heartbeats, the probes that ask for one, and the
/// checkpoint traffic (`Resync`/`CkptMark`) — all of which travel only
/// between a group's subscribers and its sequencer and name timestamps,
/// never a value — are pure control traffic, and so is every other
/// engine's frame. Genuineness oracles use this to assert that
/// processes outside an addressed group set γ see no protocol traffic
/// for γ's messages.
pub fn message_carries_value(msg: &Message) -> bool {
    match msg {
        Message::Batch(inner) => inner.iter().any(message_carries_value),
        Message::Engine { engine, payload } if *engine == WBCAST_WIRE_ID => matches!(
            WbMessage::parse(payload.clone()),
            Some(
                WbMessage::Submit { .. }
                    | WbMessage::Ordered { .. }
                    | WbMessage::ProposeAck { .. }
                    | WbMessage::Final { .. }
                    | WbMessage::FinalAck { .. }
                    | WbMessage::OrphanQuery { .. }
                    | WbMessage::OrphanState { .. }
                    | WbMessage::OrphanFinal { .. }
            )
        ),
        _ => false,
    }
}

/// Coarse classification of a wbcast [`Message::Engine`] payload by its
/// frame type (`"submit"`, `"ordered"`, `"orphan_query"`, …), `None`
/// for malformed or foreign payloads. Test harnesses use this to
/// target fault injection — e.g. duplicating or reordering exactly the
/// orphan-recovery exchange — without depending on the private wire
/// format.
pub fn frame_kind(payload: Bytes) -> Option<&'static str> {
    Some(match WbMessage::parse(payload)? {
        WbMessage::Submit { .. } => "submit",
        WbMessage::ProposeAck { .. } => "propose_ack",
        WbMessage::Final { .. } => "final",
        WbMessage::FinalAck { .. } => "final_ack",
        WbMessage::Ordered { .. } => "ordered",
        WbMessage::Heartbeat { .. } => "heartbeat",
        WbMessage::Probe { .. } => "probe",
        WbMessage::Resync { .. } => "resync",
        WbMessage::CkptMark { .. } => "ckpt_mark",
        WbMessage::ResyncDone { .. } => "resync_done",
        WbMessage::OrphanQuery { .. } => "orphan_query",
        WbMessage::OrphanState { .. } => "orphan_state",
        WbMessage::OrphanFinal { .. } => "orphan_final",
    })
}

#[cfg(test)]
mod tests {
    use super::super::WbcastNode;
    use super::*;
    use multiring_paxos::config::{ClusterConfig, RingSpec, Roles};
    use multiring_paxos::event::{Event, StateMachine, TimerKind};
    use multiring_paxos::types::{Ballot, GroupId, ProcessId, Time};
    use proptest::prelude::*;

    /// One frame per wire tag plus the remaining three [`OrphanSt`]
    /// kinds, each with the bytes the encoder produced at the commit
    /// before the wire code was rewritten onto `codec`'s field helpers.
    /// Deployed peers parse exactly these bytes: an encoder change that
    /// moves any of them is a wire-format change, not a refactor.
    /// (`Probe`, tag 13, came later and is pinned at its first encoding.)
    fn golden() -> Vec<(WbMessage, &'static str)> {
        let id = ValueId::new(ProcessId::new(3), 9);
        let value = Value::new(id, GroupId::new(1), Bytes::from_static(b"payload"));
        let gamma = vec![GroupId::new(0), GroupId::new(1)];
        let (g0, g1) = (GroupId::new(0), GroupId::new(1));
        let orphan_state = |group, attempt, state| WbMessage::OrphanState {
            group,
            id,
            attempt,
            state,
        };
        vec![
            (
                WbMessage::Submit {
                    group: g1,
                    groups: gamma.clone(),
                    value: value.clone(),
                },
                "0101000200000001000300000009000000000000000100070000007061796c6f6164",
            ),
            (
                WbMessage::ProposeAck {
                    group: g0,
                    id,
                    ts: 17,
                },
                "0400000300000009000000000000001100000000000000",
            ),
            (
                WbMessage::Final {
                    group: g1,
                    id,
                    ts: 18,
                },
                "0501000300000009000000000000001200000000000000",
            ),
            (
                WbMessage::FinalAck {
                    group: g1,
                    id,
                    ts: 0x0102_0304_0506_0708,
                },
                "0601000300000009000000000000000807060504030201",
            ),
            (
                WbMessage::Ordered {
                    group: g1,
                    epoch: 3,
                    ts: 42,
                    groups: gamma,
                    value,
                },
                "020100030000002a000000000000000200000001000300000009000000000000000100070000007061796c6f6164",
            ),
            (
                WbMessage::Heartbeat {
                    group: g0,
                    epoch: 2,
                    ts: 7,
                },
                "030000020000000700000000000000",
            ),
            (WbMessage::Probe { group: g1, ts: 8 }, "0d01000800000000000000"),
            (
                WbMessage::Resync {
                    group: g1,
                    from_ts: 12,
                },
                "0701000c00000000000000",
            ),
            (WbMessage::CkptMark { group: g0, ts: 11 }, "0800000b00000000000000"),
            (
                WbMessage::ResyncDone {
                    group: g1,
                    epoch: 4,
                    ts: 13,
                    gap_to: 6,
                },
                "090100040000000d000000000000000600000000000000",
            ),
            (
                WbMessage::OrphanQuery {
                    group: g1,
                    id,
                    attempt: 2,
                },
                "0a010003000000090000000000000002000000",
            ),
            (orphan_state(g0, 3, OrphanSt::Unknown), "0b000003000000090000000000000003000000000000000000000000"),
            (orphan_state(g1, 2, OrphanSt::Proposed(21)), "0b010003000000090000000000000002000000011500000000000000"),
            (orphan_state(g0, 3, OrphanSt::Decided(23)), "0b000003000000090000000000000003000000021700000000000000"),
            (orphan_state(g1, 4, OrphanSt::Released(23)), "0b010003000000090000000000000004000000031700000000000000"),
            (
                WbMessage::OrphanFinal {
                    group: g1,
                    id,
                    ts: 23,
                },
                "0c01000300000009000000000000001700000000000000",
            ),
        ]
    }

    /// Every byte the reader takes for a tag opens a pinned encoding: a
    /// tag nobody writes and a frame nobody pinned end here (and one
    /// written under another's tag fails its golden).
    #[test]
    fn every_tag_opens_a_golden() {
        for tag in (0..=u8::MAX).filter_map(|byte| Tag::from_u8(byte).ok()) {
            let opens = format!("{:02x}", tag as u8);
            let pins = |(_, pinned): &(WbMessage, &str)| pinned.starts_with(&opens);
            assert!(golden().iter().any(pins), "no golden for {tag:?}");
        }
    }

    fn payload_of(msg: WbMessage) -> Bytes {
        let Message::Engine { engine, payload } = msg.into_frame() else {
            panic!("expected engine frame");
        };
        assert_eq!(engine, WBCAST_WIRE_ID);
        payload
    }

    #[test]
    fn frames_encode_to_the_pinned_bytes() {
        for (msg, pinned) in golden() {
            let hex: String = payload_of(msg.clone())
                .as_slice()
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect();
            assert_eq!(hex, pinned, "{msg:?}");
        }
    }

    /// Every field is fixed-size or length-prefixed, so no valid frame
    /// has a valid frame as a strict prefix: a truncated frame must be
    /// rejected, never parsed into something shorter.
    #[test]
    fn every_strict_prefix_of_a_valid_frame_is_rejected() {
        for (msg, _) in golden() {
            let payload = payload_of(msg.clone());
            assert_eq!(WbMessage::parse(payload.clone()), Some(msg.clone()));
            for cut in 0..payload.len() {
                assert_eq!(
                    WbMessage::parse(payload.slice(..cut)),
                    None,
                    "{msg:?} cut at {cut}"
                );
            }
        }
    }

    /// `Probe` names a timestamp, never a value: genuineness oracles
    /// must not count it as traffic for a message.
    #[test]
    fn probe_is_classified_as_control_traffic() {
        let probe = WbMessage::Probe {
            group: GroupId::new(1),
            ts: 8,
        };
        assert_eq!(frame_kind(payload_of(probe.clone())), Some("probe"));
        assert!(!message_carries_value(&probe.into_frame()));
    }

    /// p0 of three processes that all subscribe to three groups on
    /// rotated rings: it sequences g0, subscribes to everything, and
    /// holds an undecided proposal — every handler has live state to
    /// run against.
    fn live_node() -> WbcastNode {
        let mut b = ClusterConfig::builder();
        for g in 0..3u16 {
            let mut spec = RingSpec::new(GroupId::new(g));
            for p in 0..3u32 {
                spec = spec.member(ProcessId::new((p + u32::from(g)) % 3), Roles::ALL);
                b = b.subscribe(ProcessId::new(p), GroupId::new(g));
            }
            b = b.ring(spec);
        }
        let config = b.build().expect("three-group config");
        let mut node = WbcastNode::new(ProcessId::new(0), config);
        node.on_event(Time::ZERO, Event::Start);
        // Small enough for a generated id to name it.
        let id = ValueId::new(ProcessId::new(3), 3);
        let submit = WbMessage::Submit {
            group: GroupId::new(0),
            groups: vec![GroupId::new(0), GroupId::new(1)],
            value: Value::new(id, GroupId::new(0), Bytes::from_static(b"pending")),
        };
        node.on_event(
            Time::ZERO,
            Event::Message {
                from: ProcessId::new(1),
                msg: submit.into_frame(),
            },
        );
        node
    }

    /// Feeds `payload` to a live node as an engine frame from p1, then
    /// lets the node run a heartbeat tick over whatever state it left.
    fn dispatch(node: &mut WbcastNode, payload: Bytes) {
        let msg = Message::Engine {
            engine: WBCAST_WIRE_ID,
            payload,
        };
        let from = ProcessId::new(1);
        node.on_event(Time::from_micros(10), Event::Message { from, msg });
        node.on_event(
            Time::from_micros(20),
            Event::Timer(TimerKind::Delta(GroupId::new(0))),
        );
    }

    proptest! {
        /// No byte string panics the parser, and whatever it accepts is
        /// safe to hand to a running node (debug assertions on, so
        /// arithmetic on a wire-supplied field may not overflow).
        #[test]
        fn prop_parse_arbitrary_bytes_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            let payload = Bytes::from(data);
            if WbMessage::parse(payload.clone()).is_some() {
                dispatch(&mut live_node(), payload);
            }
        }

        /// The same for generated frames (see [`Wire::draw`]): a
        /// sequence of frames of every kind, their fields drawn from the
        /// edges of their domains or from the ids [`live_node`] holds
        /// (its groups, its pending round), dispatched into one node so
        /// each meets the state the previous ones left (a clock pinned at
        /// the maximum, a proposal decided at zero, …). Each frame
        /// encodes, decodes back to itself and has the length it claims.
        #[test]
        fn prop_dispatching_frames_with_extreme_fields_never_panics(seed in any::<u64>()) {
            let mut node = live_node();
            let mut edges = Edges::new(seed);
            for _ in 0..FRAMES {
                let frame = WbMessage::draw(&mut edges);
                let payload = payload_of(frame.clone());
                prop_assert_eq!(payload.len(), frame.wire_len());
                prop_assert_eq!(WbMessage::parse(payload.clone()).as_ref(), Some(&frame));
                dispatch(&mut node, payload);
            }
            // And a takeover resumes past whatever they made it observe.
            let takeover = Event::CoordinatorChange {
                ring: GroupId::new(1),
                coordinator: ProcessId::new(0),
                supersedes: Ballot::new(1, ProcessId::new(0)),
            };
            node.on_event(Time::from_micros(30), takeover);
        }
    }

    /// Frames each case of the generated fuzz dispatches into one node.
    const FRAMES: usize = 50;
}
