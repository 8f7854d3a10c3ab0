//! The engine's private wire vocabulary: the thirteen [`WbMessage`] frames
//! carried inside [`Message::Engine`] payloads, their byte layout
//! (`into_frame` / `parse`), and the two frame classifiers test
//! harnesses use without depending on that layout.

use bytes::{BufMut, Bytes, BytesMut};
use multiring_paxos::codec::{
    get_seq, get_u16, get_u32, get_u64, get_u8, get_value, put_value, wire_tags,
};
use multiring_paxos::event::Message;
use multiring_paxos::types::{GroupId, ProcessId, Value, ValueId};

/// Wire id of this engine inside [`Message::Engine`] frames.
pub const WBCAST_WIRE_ID: u8 = 1;

wire_tags! {
    /// The byte a [`WbMessage`] payload opens with, one per frame.
    enum Tag {
        Submit = 1,
        Ordered = 2,
        Heartbeat = 3,
        ProposeAck = 4,
        Final = 5,
        FinalAck = 6,
        Resync = 7,
        CkptMark = 8,
        ResyncDone = 9,
        OrphanQuery = 10,
        OrphanState = 11,
        OrphanFinal = 12,
        Probe = 13,
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

impl OrphanSt {
    /// The wire form: a kind byte and a timestamp (zero for `Unknown`).
    fn to_wire(self) -> (u8, u64) {
        match self {
            OrphanSt::Unknown => (0, 0),
            OrphanSt::Proposed(ts) => (1, ts),
            OrphanSt::Decided(ts) => (2, ts),
            OrphanSt::Released(ts) => (3, ts),
        }
    }

    fn from_wire(kind: u8, ts: u64) -> Option<Self> {
        Some(match kind {
            0 => OrphanSt::Unknown,
            1 => OrphanSt::Proposed(ts),
            2 => OrphanSt::Decided(ts),
            3 => OrphanSt::Released(ts),
            _ => return None,
        })
    }
}

/// Every frame starts with its tag and the group it concerns.
fn put_head(buf: &mut BytesMut, tag: Tag, group: GroupId) {
    buf.put_u8(tag as u8);
    buf.put_u16_le(group.value());
}

fn put_groups(buf: &mut BytesMut, groups: &[GroupId]) {
    buf.put_u16_le(groups.len() as u16);
    for g in groups {
        buf.put_u16_le(g.value());
    }
}

fn get_groups(buf: &mut Bytes) -> Option<Vec<GroupId>> {
    let n = get_u16(buf).ok()?;
    get_seq(n.into(), buf, |buf| Ok(GroupId::new(get_u16(buf)?))).ok()
}

pub(super) fn put_id(buf: &mut BytesMut, id: ValueId) {
    buf.put_u32_le(id.proposer.value());
    buf.put_u64_le(id.seq);
}

pub(super) fn get_id(buf: &mut Bytes) -> Option<ValueId> {
    let proposer = ProcessId::new(get_u32(buf).ok()?);
    Some(ValueId::new(proposer, get_u64(buf).ok()?))
}

/// The body shared by the four `{group, id, ts}` frames of a round's
/// timestamp agreement.
fn put_round_ts(buf: &mut BytesMut, tag: Tag, group: GroupId, id: ValueId, ts: u64) {
    put_head(buf, tag, group);
    put_id(buf, id);
    buf.put_u64_le(ts);
}

fn get_round_ts(buf: &mut Bytes) -> Option<(ValueId, u64)> {
    Some((get_id(buf)?, get_u64(buf).ok()?))
}

impl WbMessage {
    /// Wraps this message into the shared [`Message`] vocabulary.
    pub(super) fn into_frame(self) -> Message {
        let mut buf = BytesMut::new();
        let b = &mut buf;
        match &self {
            WbMessage::Submit {
                group,
                groups,
                value,
            } => {
                put_head(b, Tag::Submit, *group);
                put_groups(b, groups);
                put_value(b, value);
            }
            WbMessage::ProposeAck { group, id, ts } => {
                put_round_ts(b, Tag::ProposeAck, *group, *id, *ts);
            }
            WbMessage::Final { group, id, ts } => put_round_ts(b, Tag::Final, *group, *id, *ts),
            WbMessage::FinalAck { group, id, ts } => {
                put_round_ts(b, Tag::FinalAck, *group, *id, *ts);
            }
            WbMessage::OrphanFinal { group, id, ts } => {
                put_round_ts(b, Tag::OrphanFinal, *group, *id, *ts);
            }
            WbMessage::Ordered {
                group,
                epoch,
                ts,
                groups,
                value,
            } => {
                put_head(b, Tag::Ordered, *group);
                b.put_u32_le(*epoch);
                b.put_u64_le(*ts);
                put_groups(b, groups);
                put_value(b, value);
            }
            WbMessage::Heartbeat { group, epoch, ts } => {
                put_head(b, Tag::Heartbeat, *group);
                b.put_u32_le(*epoch);
                b.put_u64_le(*ts);
            }
            WbMessage::Probe { group, ts } => {
                put_head(b, Tag::Probe, *group);
                b.put_u64_le(*ts);
            }
            WbMessage::Resync { group, from_ts } => {
                put_head(b, Tag::Resync, *group);
                b.put_u64_le(*from_ts);
            }
            WbMessage::CkptMark { group, ts } => {
                put_head(b, Tag::CkptMark, *group);
                b.put_u64_le(*ts);
            }
            WbMessage::ResyncDone {
                group,
                epoch,
                ts,
                gap_to,
            } => {
                put_head(b, Tag::ResyncDone, *group);
                b.put_u32_le(*epoch);
                b.put_u64_le(*ts);
                b.put_u64_le(*gap_to);
            }
            WbMessage::OrphanQuery { group, id, attempt } => {
                put_head(b, Tag::OrphanQuery, *group);
                put_id(b, *id);
                b.put_u32_le(*attempt);
            }
            WbMessage::OrphanState {
                group,
                id,
                attempt,
                state,
            } => {
                put_head(b, Tag::OrphanState, *group);
                put_id(b, *id);
                b.put_u32_le(*attempt);
                let (kind, ts) = state.to_wire();
                b.put_u8(kind);
                b.put_u64_le(ts);
            }
        }
        Message::Engine {
            engine: WBCAST_WIRE_ID,
            payload: buf.freeze(),
        }
    }

    /// Parses an engine payload; `None` on malformed or foreign frames.
    pub(super) fn parse(mut payload: Bytes) -> Option<WbMessage> {
        let b = &mut payload;
        let tag = Tag::from_u8(get_u8(b).ok()?).ok()?;
        let group = GroupId::new(get_u16(b).ok()?);
        Some(match tag {
            Tag::Submit => WbMessage::Submit {
                group,
                groups: get_groups(b)?,
                value: get_value(b).ok()?,
            },
            Tag::ProposeAck => {
                let (id, ts) = get_round_ts(b)?;
                WbMessage::ProposeAck { group, id, ts }
            }
            Tag::Final => {
                let (id, ts) = get_round_ts(b)?;
                WbMessage::Final { group, id, ts }
            }
            Tag::FinalAck => {
                let (id, ts) = get_round_ts(b)?;
                WbMessage::FinalAck { group, id, ts }
            }
            Tag::OrphanFinal => {
                let (id, ts) = get_round_ts(b)?;
                WbMessage::OrphanFinal { group, id, ts }
            }
            Tag::Ordered => WbMessage::Ordered {
                group,
                epoch: get_u32(b).ok()?,
                ts: get_u64(b).ok()?,
                groups: get_groups(b)?,
                value: get_value(b).ok()?,
            },
            Tag::Heartbeat => WbMessage::Heartbeat {
                group,
                epoch: get_u32(b).ok()?,
                ts: get_u64(b).ok()?,
            },
            Tag::Probe => WbMessage::Probe {
                group,
                ts: get_u64(b).ok()?,
            },
            Tag::Resync => WbMessage::Resync {
                group,
                from_ts: get_u64(b).ok()?,
            },
            Tag::CkptMark => WbMessage::CkptMark {
                group,
                ts: get_u64(b).ok()?,
            },
            Tag::ResyncDone => WbMessage::ResyncDone {
                group,
                epoch: get_u32(b).ok()?,
                ts: get_u64(b).ok()?,
                gap_to: get_u64(b).ok()?,
            },
            Tag::OrphanQuery => WbMessage::OrphanQuery {
                group,
                id: get_id(b)?,
                attempt: get_u32(b).ok()?,
            },
            Tag::OrphanState => WbMessage::OrphanState {
                group,
                id: get_id(b)?,
                attempt: get_u32(b).ok()?,
                state: OrphanSt::from_wire(get_u8(b).ok()?, get_u64(b).ok()?)?,
            },
        })
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
    use multiring_paxos::types::{Ballot, GroupId, Time};
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

    /// Exhaustive on purpose: a new frame does not compile here until
    /// it names its tag, and then [`every_tag_opens_a_golden`] wants
    /// its bytes pinned.
    fn tag_of(msg: &WbMessage) -> Tag {
        match msg {
            WbMessage::Submit { .. } => Tag::Submit,
            WbMessage::ProposeAck { .. } => Tag::ProposeAck,
            WbMessage::Final { .. } => Tag::Final,
            WbMessage::FinalAck { .. } => Tag::FinalAck,
            WbMessage::Ordered { .. } => Tag::Ordered,
            WbMessage::Heartbeat { .. } => Tag::Heartbeat,
            WbMessage::Probe { .. } => Tag::Probe,
            WbMessage::Resync { .. } => Tag::Resync,
            WbMessage::CkptMark { .. } => Tag::CkptMark,
            WbMessage::ResyncDone { .. } => Tag::ResyncDone,
            WbMessage::OrphanQuery { .. } => Tag::OrphanQuery,
            WbMessage::OrphanState { .. } => Tag::OrphanState,
            WbMessage::OrphanFinal { .. } => Tag::OrphanFinal,
        }
    }

    /// Every byte the reader takes for a tag opens a pinned encoding of
    /// the frame it stands for: a tag nobody writes, a frame nobody
    /// pinned and a frame written under another's tag all end here.
    #[test]
    fn every_tag_opens_a_golden() {
        for tag in (0..=u8::MAX).filter_map(|byte| Tag::from_u8(byte).ok()) {
            let opens = format!("{:02x}", tag as u8);
            let pins = |(msg, pinned): &(WbMessage, &str)| {
                tag_of(msg) == tag && pinned.starts_with(&opens)
            };
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
        let id = ValueId::new(ProcessId::new(3), 9);
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

        /// The same for well-formed frames with hostile fields: a
        /// sequence of frames of every kind, their timestamps drawn from
        /// the edges of `u64`, dispatched into one node so each meets
        /// the state the previous ones left (a clock pinned at the
        /// maximum, a proposal decided at zero, …).
        #[test]
        fn prop_dispatching_frames_with_extreme_fields_never_panics(
            draws in proptest::collection::vec(any::<u64>(), 3..150),
        ) {
            let mut node = live_node();
            for draw in draws.chunks_exact(3) {
                dispatch(&mut node, payload_of(hostile_frame(draw[0], draw[1], draw[2])));
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

    /// A timestamp at an edge of the domain three times out of four.
    fn edge(draw: u64) -> u64 {
        match draw % 4 {
            0 => 0,
            1 => u64::MAX,
            2 => u64::MAX - 1,
            _ => (draw >> 2) % 64,
        }
    }

    /// A well-formed frame of the kind, group and round `shape` picks,
    /// carrying timestamps `edge(t1)` / `edge(t2)`. Half the frames
    /// concern the proposal [`live_node`] holds undecided.
    fn hostile_frame(shape: u64, t1: u64, t2: u64) -> WbMessage {
        let group = GroupId::new((shape >> 8) as u16 % 4);
        let epoch = (shape >> 16) as u32 % 3;
        let attempt = (shape >> 24) as u32 % 3;
        let seq = if shape >> 32 & 1 == 0 {
            9
        } else {
            10 + (shape >> 33) % 4
        };
        let id = ValueId::new(ProcessId::new(3), seq);
        let (ts, ts2) = (edge(t1), edge(t2));
        let value = Value::new(id, group, Bytes::from_static(b"hostile"));
        let groups = vec![
            group,
            GroupId::new(group.value() + (shape >> 40) as u16 % 2),
        ];
        match shape % 13 {
            0 => WbMessage::Submit {
                group,
                groups,
                value,
            },
            1 => WbMessage::ProposeAck { group, id, ts },
            2 => WbMessage::Final { group, id, ts },
            3 => WbMessage::FinalAck { group, id, ts },
            4 => WbMessage::Ordered {
                group,
                epoch,
                ts,
                groups,
                value,
            },
            5 => WbMessage::Heartbeat { group, epoch, ts },
            6 => WbMessage::Probe { group, ts },
            7 => WbMessage::Resync { group, from_ts: ts },
            8 => WbMessage::CkptMark { group, ts },
            9 => WbMessage::ResyncDone {
                group,
                epoch,
                ts,
                gap_to: ts2,
            },
            10 => WbMessage::OrphanQuery { group, id, attempt },
            11 => {
                let state = OrphanSt::from_wire((t2 >> 2) as u8 % 4, ts).expect("kind below 4");
                WbMessage::OrphanState {
                    group,
                    id,
                    attempt,
                    state,
                }
            }
            _ => WbMessage::OrphanFinal { group, id, ts },
        }
    }
}
