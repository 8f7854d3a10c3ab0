//! A timestamp-based Skeen-style ("white-box") atomic multicast engine
//! with *genuine* multi-group messages.
//!
//! ## Message flow
//!
//! Each multicast group has one *sequencer*: the coordinator of the
//! ring the group maps to in the [`ClusterConfig`]. The sequencer role
//! is **fault-tolerant**: when the coordination service designates a
//! new ring coordinator ([`Event::CoordinatorChange`]), the group's
//! sequencer moves with it — see *Sequencer failover* below.
//!
//! ### Single-group messages (one phase)
//!
//! ```text
//!  proposer            sequencer of g                subscribers of g
//!     │  Submit(γ={g})     │                               │
//!     ├───────────────────▶│ ts := clock(g)++              │
//!     │                    ├── Ordered(g, ts, γ, v) ──────▶│  buffer by (ts, id)
//!     │                    ├── Heartbeat(g, promise) ──···▶│  deliver in global
//!     │                                                    │  (ts, id) order
//! ```
//!
//! ### Multi-group messages (Skeen phase 2, the paper's `multicast(γ, m)`)
//!
//! ```text
//!  initiator         sequencer of g₁   sequencer of g₂     subscribers of γ
//!     │  Submit(γ, v)      │                 │                   │
//!     ├───────────────────▶│ ts₁ := clock₁++ │                   │
//!     ├─────────────────────────────────────▶│ ts₂ := clock₂++   │
//!     │◀─ ProposeAck(ts₁) ─┤                 │                   │
//!     │◀─ ProposeAck(ts₂) ──────────────────-┤                   │
//!     │  fts := max(ts₁, ts₂)                │                   │
//!     ├─ Final(fts) ──────▶│                 │                   │
//!     ├─ Final(fts) ──────────────────────--▶│                   │
//!     │                    ├── Ordered(g₁, fts, γ, v) ──────────▶│ deliver once at
//!     │                    │                 ├─ Ordered(g₂,…) ──▶│ global (fts, id)
//! ```
//!
//! 1. **Submit** — the initiator assigns the value its [`ValueId`] and
//!    sends it to the sequencer of *each* addressed group. This is the
//!    step that makes the engine *genuine*: only the addressed groups'
//!    processes are ever involved with the message.
//! 2. **Propose** — each addressed sequencer assigns the value the next
//!    per-group timestamp. For a single-group message that timestamp is
//!    final immediately; for a multi-group message the sequencer holds
//!    the value as *undecided* and reports the proposal back to the
//!    initiator.
//! 3. **Decide** — the initiator collects one proposal per addressed
//!    group and sends the maximum back as the final timestamp. Each
//!    sequencer re-keys the value at the final timestamp, advances its
//!    clock past it (Lamport receive rule), and releases its ordered
//!    stream strictly in `(timestamp, id)` order — values keyed above a
//!    still-undecided proposal wait, because that proposal's final
//!    timestamp may land below them.
//! 4. **Deliver** — every subscriber buffers `Ordered` values and
//!    delivers in the global lexicographic `(timestamp, id)` order. A
//!    buffered value is deliverable once every other subscribed group's
//!    *frontier* (largest key observed from its sequencer, streams are
//!    released in key order over reliable FIFO channels) has reached the
//!    value's key. A subscriber of several addressed groups receives one
//!    copy per stream and delivers exactly once: only the copy in the
//!    smallest addressed group it subscribes to enters the buffer, the
//!    others merely advance frontiers.
//! 5. **Heartbeat** — sequencers of idle groups periodically promise
//!    "all my future timestamps exceed X" so that other groups'
//!    deliveries are never blocked by an idle group: the analogue of
//!    Multi-Ring Paxos rate leveling, paced by the ring's Δ. A promise
//!    never overtakes an undecided proposal.
//! 6. **Release acknowledgement** — when a sequencer emits a value into
//!    its ordered stream it also sends the initiator a `FinalAck`.
//!    Released frames are never lost (reliable FIFO channels), so a
//!    `FinalAck` from every addressed group means the value is safe and
//!    the initiator can stop tracking it.
//!
//! ## Sequencer failover
//!
//! A crashed sequencer must not stall the groups it ordered, nor the
//! multi-group rounds it participated in. Three mechanisms cooperate
//! (the failover protocol of *White-Box Atomic Multicast* (Gotsman et
//! al., DSN 2019), adapted to this engine's single-process sequencers):
//!
//! * **Takeover / resign.** On [`Event::CoordinatorChange`] the named
//!   process adopts the sequencer role for the ring's groups, resuming
//!   each group's clock at a safe point: past every key and promise it
//!   has *observed* for the group, and past the hybrid-clock floor.
//!   Frames carry a **sequencer epoch** (bumped per takeover) so
//!   subscribers re-anchor their frontier to the new stream and fence
//!   frames from deposed sequencers. The deposed process (if alive)
//!   drops its sequencer state. A fresh sequencer holds releases and
//!   promises for a short recovery window ([`TAKEOVER_GRACE_DELTAS`] ×
//!   Δ) so that recovered values — whose already-decided timestamps may
//!   be small — re-enter the stream *before* the frontier advances past
//!   them, keeping the released-in-key-order invariant.
//! * **Initiator retries.** Every local submission is tracked until
//!   each addressed group confirms release. Unconfirmed groups are
//!   probed with retransmitted `Submit`s every [`RETRY_DELTAS`] × Δ,
//!   routed to the *current* sequencer; a `CoordinatorChange` voids
//!   acks obtained from the previous sequencer and re-runs the round
//!   immediately. Receivers deduplicate: a retransmitted `Submit` never
//!   gets a second timestamp (the pending proposal or decided value is
//!   re-acknowledged instead) and a duplicate `Final` is idempotent. A
//!   decided final timestamp is immutable — a post-failover re-proposal
//!   is answered by re-issuing the original `Final`.
//! * **Subscriber dedup.** Subscribers remember delivered value ids, so
//!   a value re-released by a new sequencer (because the initiator
//!   could not know the old one had already released it) is delivered
//!   exactly once; extra copies only advance frontiers.
//!
//! ## Initiator crash recovery
//!
//! A multi-group round is driven by its initiator, and an initiator
//! that crashes before distributing the final timestamp would leave an
//! *orphan*: an undecided proposal that gates every later key of each
//! addressed group's stream forever. The group recovers the round
//! itself — the in-flight state is replicated across the addressed
//! sequencers, so any of them can finish what the initiator started
//! (the failover idea of *White-Box Atomic Multicast*, applied to the
//! initiator role):
//!
//! * **Detection.** A sequencer presumes a proposal orphaned when the
//!   coordination service reports its initiator crashed
//!   ([`Event::MembershipChange`] down-sets; a `CoordinatorChange`
//!   deposing the initiator's process counts too) — or, as a backstop
//!   that needs no failure detector, when the initiator shows no sign
//!   of life (no `Final`, no retransmitted `Submit`) for
//!   [`ORPHAN_DELTAS`] × Δ.
//! * **Recovery exchange.** The detecting sequencer assumes the
//!   initiator role for the round: it asks every addressed group's
//!   current sequencer for its state (`OrphanQuery` → `OrphanState`:
//!   decided at some timestamp / proposed at some timestamp / never
//!   seen). If some group never saw the `Submit`, the recoverer
//!   re-submits the orphan's value there on its behalf — id-based
//!   dedup guarantees the round is never forked — and re-queries. Once
//!   every group holds the value, the recoverer completes the round
//!   deterministically (`OrphanFinal`): an already-decided timestamp
//!   wins (decided timestamps are immutable), otherwise the maximum
//!   over the proposals — byte-for-byte the decision the initiator
//!   would have made. The round is then tracked until every addressed
//!   group reports the value *released* into its stream (from where it
//!   can no longer be lost) — the recoverer's analogue of the
//!   `FinalAck` a live initiator retries toward: a decision frame that
//!   dies with an addressed sequencer is re-driven on the next
//!   Δ-paced re-probe, re-seeding an empty-handed replacement and
//!   re-deciding at the recorded timestamp, never losing the round in
//!   one group while another delivers it.
//! * **Convergence.** Several sequencers may recover the same orphan
//!   concurrently, and a falsely-suspected (or revived) initiator may
//!   keep retrying its own round: all of them compute the same final
//!   timestamp from the same immutable proposals, every frame is
//!   deduplicated exactly like initiator retries (`OrphanFinal` is a
//!   `Final`: first decide wins, duplicates re-acknowledge), and
//!   `OrphanState` replies are fenced by a per-attempt counter so
//!   answers stranded at a deposed sequencer cannot leak into a later
//!   collection. Once a sequencer has *answered* an `OrphanQuery` for a
//!   pending proposal, recovery owns that round: the proposal is
//!   **fenced** — a plain `Final` from the suspected initiator is
//!   dropped (its view may predate a sequencer failover that
//!   re-proposed the value elsewhere, so letting it race the recoverer
//!   could decide two different timestamps in two groups), and only an
//!   `OrphanFinal` decides. A round is therefore never aborted in one
//!   group and delivered in another — it is always *completed*,
//!   exactly once.
//!
//! ## Checkpointing, resync and bounded state
//!
//! The engine implements the generic checkpoint/trim surface of
//! [`AmcastEngine`] (see the crate docs), which both bounds the
//! protocol's per-key bookkeeping and gives crashed subscribers an
//! exact rejoin path:
//!
//! * **Watermark.** Per subscribed group, the *delivery mark*: the
//!   largest timestamp whose whole prefix has been delivered locally
//!   (the frontier, capped below any still-pending value and excluding
//!   a possibly-tied boundary timestamp). The engine's
//!   `checkpoint_state` adds the residual delivered-id records above
//!   the marks plus the local id-sequence floor, making restores exact
//!   even at timestamp ties.
//! * **Resync.** A restarted subscriber installs its latest durable
//!   checkpoint and asks each subscribed group's sequencer to replay
//!   its released stream above the restored mark (`Resync`: the
//!   sequencer retains every released value above the collective
//!   checkpoint watermark exactly for this). Deliveries stay
//!   **held** until the replay's `ResyncDone` terminator arrives: live
//!   frames received before the replay advance frontiers past keys the
//!   replay still carries, so only the terminator restores the
//!   frontier's "nothing smaller can arrive" meaning — this is what
//!   makes the recovered delivery sequence byte-identical to the
//!   survivors', not merely the same set.
//! * **Trim.** After a checkpoint becomes durable, the subscriber
//!   prunes its delivered-id dedup below the watermark and reports the
//!   marks (`CkptMark`) to the sequencers, which prune their decided-id
//!   maps and released history below the *minimum over the live
//!   subscribers* — conservative (no quorum), so any live subscriber
//!   can still resync from its own latest durable checkpoint.
//!   Subscribers the coordination service reports crashed are dropped
//!   from the minimum, so one permanent death does not freeze the
//!   floor and grow sequencer state forever.
//! * **Truncation is loud.** Whenever a sequencer's retained history
//!   no longer reaches back to a resync's requested position — the
//!   [`UNREPORTED_HISTORY_CAP`] eviction in never-checkpointing
//!   deployments, or pruning that advanced past a dead subscriber's
//!   stale mark before it revived — the replay terminator carries the
//!   gap's extent, and the recovering subscriber **re-anchors past the
//!   hole** and counts the event
//!   ([`WbcastNode::resync_truncations`]) instead of delivering a
//!   gapped stream behind a terminator that claims completeness.
//!
//! The model's remaining assumptions: the takeover resume point exceeds
//! every timestamp the crashed sequencer exposed (guaranteed by the
//! hybrid clock whenever the election timeout exceeds the count-driven
//! clock skew — in a full deployment the counter is Paxos-replicated
//! inside the group instead); a *sequencer* crash also loses its
//! released-value history, so subscribers that crash while the
//! replacement leads can only resync what the replacement released
//! itself (replicating the history inside the group goes together with
//! counter replication); dedup pruning assumes a failover re-release
//! or orphan-recovery re-submission of an old value lands within one
//! checkpoint interval of its re-probe (the takeover grace window and
//! the orphan timeout are orders of magnitude shorter than any
//! sensible checkpoint interval); a decided-wins re-injection into a
//! group whose proposal died with its previous sequencer lands inside
//! the replacement's takeover hold ([`TAKEOVER_GRACE_DELTAS`] exceeds
//! the orphan timeout exactly for this) — only if the recovery signal
//! itself is delayed past that window (e.g. lost membership events)
//! can the re-keyed release land below the new stream's frontier; and
//! while the fence serializes the initiator against recovery, two
//! *concurrent recoverers* whose state snapshots were split by a
//! second sequencer failover in the middle of recovery can still race
//! their decisions. Making those last two windows exact needs the
//! final timestamp agreed inside the group, i.e. the paper's full
//! in-group replication of the initiator state, which goes together
//! with the counter/history replication above.
//!
//! Timestamps are Lamport-style hybrid clocks: they advance with
//! submissions *and* with elapsed time (in a fixed quantum shared by
//! every group, [`CLOCK_QUANTUM_US`]), so timestamps of different groups
//! stay loosely aligned without any cross-group communication.
//!
//! Compared with the ring engine, a multi-group message costs two extra
//! message delays (propose/decide) but involves *only* the addressed
//! groups, where Multi-Ring Paxos must route it through a covering
//! (global) ring that every replica subscribes to — the scalability
//! bottleneck the paper's Figure 4 measures.
//!
//! All engine traffic travels in opaque
//! [`Message::Engine`] frames
//! with wire id [`WBCAST_WIRE_ID`], so every existing runtime
//! (simulator, TCP transport) carries it unchanged.

use crate::engine::AmcastEngine;
use crate::telemetry::{
    EngineTelemetry, HealthIssue, HealthReport, TelemetrySnapshot, STALL_DELTAS,
};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use multiring_paxos::app::encode_command;
use multiring_paxos::config::ClusterConfig;
use multiring_paxos::event::{Action, Event, Message, StateMachine, TimerKind};
use multiring_paxos::node::MulticastError;
use multiring_paxos::types::{
    Ballot, ClientId, GroupId, InstanceId, ProcessId, RingId, Time, Value, ValueId,
};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Wire id of this engine inside [`Message::Engine`] frames.
pub const WBCAST_WIRE_ID: u8 = 1;

const TAG_SUBMIT: u8 = 1;
const TAG_ORDERED: u8 = 2;
const TAG_HEARTBEAT: u8 = 3;
const TAG_PROPOSE_ACK: u8 = 4;
const TAG_FINAL: u8 = 5;
const TAG_FINAL_ACK: u8 = 6;
const TAG_RESYNC: u8 = 7;
const TAG_CKPT_MARK: u8 = 8;
const TAG_RESYNC_DONE: u8 = 9;
const TAG_ORPHAN_QUERY: u8 = 10;
const TAG_ORPHAN_STATE: u8 = 11;
const TAG_ORPHAN_FINAL: u8 = 12;

/// Initiator retry pacing: unconfirmed `Submit`/`Final` rounds are
/// re-probed every this-many Δ of the addressed group's ring.
pub const RETRY_DELTAS: u64 = 4;

/// Orphan timeout, in Δ of the proposing sequencer's ring: a
/// multi-group proposal whose initiator has shown no sign of life (no
/// `Final`, no retransmitted `Submit`) for this long is presumed
/// orphaned, and the sequencer holding it assumes the initiator role
/// for the round (see *Initiator crash recovery* in the module docs).
/// Three full retry periods mean a live initiator has had several
/// chances to refresh the proposal before recovery ever fires — and a
/// spurious recovery of a live round is harmless anyway (the exchange
/// is idempotent and decides exactly what the initiator would).
pub const ORPHAN_DELTAS: u64 = 3 * RETRY_DELTAS;

/// A fresh sequencer's recovery window, in Δ of its ring: releases and
/// heartbeat promises are held this long after takeover so that
/// decided values re-injected at their original (possibly small)
/// timestamps re-enter the stream *before* the frontier advances past
/// them. Two sources re-inject: a live initiator re-running its
/// interrupted rounds (re-probes fire inline on `CoordinatorChange`,
/// then every [`RETRY_DELTAS`] × Δ), and orphan recovery acting for a
/// dead initiator — which fires up to [`ORPHAN_DELTAS`] × Δ after the
/// initiator's last sign of life. The window exceeds the orphan
/// timeout by a retry period so that even a decided-wins re-injection
/// of a round whose proposal died with this group's previous sequencer
/// lands while the stream is still held, keeping the
/// released-in-key-order invariant.
pub const TAKEOVER_GRACE_DELTAS: u64 = ORPHAN_DELTAS + RETRY_DELTAS;

// The recovery-window algebra above is load-bearing: a takeover grace
// shorter than the orphan timeout plus one retry period could advance
// the frontier past a re-injected decided value, and an orphan timeout
// at or below the retry period would recover live rounds constantly.
// The wire-conformance lint (`mrp-check`) checks these assertions stay
// present.
const _: () = assert!(TAKEOVER_GRACE_DELTAS >= ORPHAN_DELTAS + RETRY_DELTAS);
const _: () = assert!(ORPHAN_DELTAS > RETRY_DELTAS);

/// Cap on a sequencer's retained released-value history while **not**
/// every subscriber of the group participates in checkpointing (has
/// sent at least one `CkptMark`): without the reports, nothing ever
/// authorizes a prune, and retaining the full stream would grow memory
/// with uptime in deployments that never checkpoint (bare engine nodes,
/// benches). A resync against a capped history replays best-effort —
/// a subscriber that never checkpointed could not have been made whole
/// before this PR either (no replay path existed at all). Checkpointing
/// deployments are unaffected once every subscriber has reported:
/// pruning then follows the collective watermark exactly.
pub const UNREPORTED_HISTORY_CAP: usize = 4096;

/// A global delivery key: final timestamp, tie-broken by the value id
/// (final timestamps of multi-group messages can collide, even within
/// one group's stream).
type Key = (u64, ValueId);

/// The engine's private messages, carried inside [`Message::Engine`].
#[derive(Clone, PartialEq, Debug)]
enum WbMessage {
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
#[derive(Clone, Copy, PartialEq, Debug)]
enum OrphanSt {
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

fn put_value(buf: &mut BytesMut, v: &Value) {
    buf.put_u32_le(v.id.proposer.value());
    buf.put_u64_le(v.id.seq);
    buf.put_u16_le(v.group.value());
    buf.put_u32_le(v.payload.len() as u32);
    buf.put_slice(&v.payload);
}

fn get_value(buf: &mut Bytes) -> Option<Value> {
    if buf.remaining() < 4 + 8 + 2 + 4 {
        return None;
    }
    let proposer = ProcessId::new(buf.get_u32_le());
    let seq = buf.get_u64_le();
    let group = GroupId::new(buf.get_u16_le());
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return None;
    }
    let payload = buf.copy_to_bytes(len);
    Some(Value::new(ValueId::new(proposer, seq), group, payload))
}

fn put_groups(buf: &mut BytesMut, groups: &[GroupId]) {
    buf.put_u16_le(groups.len() as u16);
    for g in groups {
        buf.put_u16_le(g.value());
    }
}

fn get_groups(buf: &mut Bytes) -> Option<Vec<GroupId>> {
    if buf.remaining() < 2 {
        return None;
    }
    let n = buf.get_u16_le() as usize;
    if buf.remaining() < 2 * n {
        return None;
    }
    Some((0..n).map(|_| GroupId::new(buf.get_u16_le())).collect())
}

fn put_id(buf: &mut BytesMut, id: ValueId) {
    buf.put_u32_le(id.proposer.value());
    buf.put_u64_le(id.seq);
}

fn get_id(buf: &mut Bytes) -> Option<ValueId> {
    if buf.remaining() < 4 + 8 {
        return None;
    }
    let proposer = ProcessId::new(buf.get_u32_le());
    Some(ValueId::new(proposer, buf.get_u64_le()))
}

impl WbMessage {
    /// Wraps this message into the shared [`Message`] vocabulary.
    fn into_frame(self) -> Message {
        let mut buf = BytesMut::new();
        match &self {
            WbMessage::Submit {
                group,
                groups,
                value,
            } => {
                buf.put_u8(TAG_SUBMIT);
                buf.put_u16_le(group.value());
                put_groups(&mut buf, groups);
                put_value(&mut buf, value);
            }
            WbMessage::ProposeAck { group, id, ts } => {
                buf.put_u8(TAG_PROPOSE_ACK);
                buf.put_u16_le(group.value());
                put_id(&mut buf, *id);
                buf.put_u64_le(*ts);
            }
            WbMessage::Final { group, id, ts } => {
                buf.put_u8(TAG_FINAL);
                buf.put_u16_le(group.value());
                put_id(&mut buf, *id);
                buf.put_u64_le(*ts);
            }
            WbMessage::FinalAck { group, id, ts } => {
                buf.put_u8(TAG_FINAL_ACK);
                buf.put_u16_le(group.value());
                put_id(&mut buf, *id);
                buf.put_u64_le(*ts);
            }
            WbMessage::Ordered {
                group,
                epoch,
                ts,
                groups,
                value,
            } => {
                buf.put_u8(TAG_ORDERED);
                buf.put_u16_le(group.value());
                buf.put_u32_le(*epoch);
                buf.put_u64_le(*ts);
                put_groups(&mut buf, groups);
                put_value(&mut buf, value);
            }
            WbMessage::Heartbeat { group, epoch, ts } => {
                buf.put_u8(TAG_HEARTBEAT);
                buf.put_u16_le(group.value());
                buf.put_u32_le(*epoch);
                buf.put_u64_le(*ts);
            }
            WbMessage::Resync { group, from_ts } => {
                buf.put_u8(TAG_RESYNC);
                buf.put_u16_le(group.value());
                buf.put_u64_le(*from_ts);
            }
            WbMessage::CkptMark { group, ts } => {
                buf.put_u8(TAG_CKPT_MARK);
                buf.put_u16_le(group.value());
                buf.put_u64_le(*ts);
            }
            WbMessage::ResyncDone {
                group,
                epoch,
                ts,
                gap_to,
            } => {
                buf.put_u8(TAG_RESYNC_DONE);
                buf.put_u16_le(group.value());
                buf.put_u32_le(*epoch);
                buf.put_u64_le(*ts);
                buf.put_u64_le(*gap_to);
            }
            WbMessage::OrphanQuery { group, id, attempt } => {
                buf.put_u8(TAG_ORPHAN_QUERY);
                buf.put_u16_le(group.value());
                put_id(&mut buf, *id);
                buf.put_u32_le(*attempt);
            }
            WbMessage::OrphanState {
                group,
                id,
                attempt,
                state,
            } => {
                buf.put_u8(TAG_ORPHAN_STATE);
                buf.put_u16_le(group.value());
                put_id(&mut buf, *id);
                buf.put_u32_le(*attempt);
                let (kind, ts) = match state {
                    OrphanSt::Unknown => (0u8, 0u64),
                    OrphanSt::Proposed(ts) => (1, *ts),
                    OrphanSt::Decided(ts) => (2, *ts),
                    OrphanSt::Released(ts) => (3, *ts),
                };
                buf.put_u8(kind);
                buf.put_u64_le(ts);
            }
            WbMessage::OrphanFinal { group, id, ts } => {
                buf.put_u8(TAG_ORPHAN_FINAL);
                buf.put_u16_le(group.value());
                put_id(&mut buf, *id);
                buf.put_u64_le(*ts);
            }
        }
        Message::Engine {
            engine: WBCAST_WIRE_ID,
            payload: buf.freeze(),
        }
    }

    /// Parses an engine payload; `None` on malformed or foreign frames.
    fn parse(mut payload: Bytes) -> Option<WbMessage> {
        if payload.remaining() < 1 + 2 {
            return None;
        }
        let tag = payload.get_u8();
        let group = GroupId::new(payload.get_u16_le());
        match tag {
            TAG_SUBMIT => Some(WbMessage::Submit {
                group,
                groups: get_groups(&mut payload)?,
                value: get_value(&mut payload)?,
            }),
            TAG_PROPOSE_ACK => {
                let id = get_id(&mut payload)?;
                if payload.remaining() < 8 {
                    return None;
                }
                Some(WbMessage::ProposeAck {
                    group,
                    id,
                    ts: payload.get_u64_le(),
                })
            }
            TAG_FINAL => {
                let id = get_id(&mut payload)?;
                if payload.remaining() < 8 {
                    return None;
                }
                Some(WbMessage::Final {
                    group,
                    id,
                    ts: payload.get_u64_le(),
                })
            }
            TAG_FINAL_ACK => {
                let id = get_id(&mut payload)?;
                if payload.remaining() < 8 {
                    return None;
                }
                Some(WbMessage::FinalAck {
                    group,
                    id,
                    ts: payload.get_u64_le(),
                })
            }
            TAG_ORDERED => {
                if payload.remaining() < 4 + 8 {
                    return None;
                }
                let epoch = payload.get_u32_le();
                let ts = payload.get_u64_le();
                Some(WbMessage::Ordered {
                    group,
                    epoch,
                    ts,
                    groups: get_groups(&mut payload)?,
                    value: get_value(&mut payload)?,
                })
            }
            TAG_HEARTBEAT => {
                if payload.remaining() < 4 + 8 {
                    return None;
                }
                let epoch = payload.get_u32_le();
                Some(WbMessage::Heartbeat {
                    group,
                    epoch,
                    ts: payload.get_u64_le(),
                })
            }
            TAG_RESYNC => {
                if payload.remaining() < 8 {
                    return None;
                }
                Some(WbMessage::Resync {
                    group,
                    from_ts: payload.get_u64_le(),
                })
            }
            TAG_CKPT_MARK => {
                if payload.remaining() < 8 {
                    return None;
                }
                Some(WbMessage::CkptMark {
                    group,
                    ts: payload.get_u64_le(),
                })
            }
            TAG_RESYNC_DONE => {
                if payload.remaining() < 4 + 8 + 8 {
                    return None;
                }
                let epoch = payload.get_u32_le();
                let ts = payload.get_u64_le();
                Some(WbMessage::ResyncDone {
                    group,
                    epoch,
                    ts,
                    gap_to: payload.get_u64_le(),
                })
            }
            TAG_ORPHAN_QUERY => {
                let id = get_id(&mut payload)?;
                if payload.remaining() < 4 {
                    return None;
                }
                Some(WbMessage::OrphanQuery {
                    group,
                    id,
                    attempt: payload.get_u32_le(),
                })
            }
            TAG_ORPHAN_STATE => {
                let id = get_id(&mut payload)?;
                if payload.remaining() < 4 + 1 + 8 {
                    return None;
                }
                let attempt = payload.get_u32_le();
                let kind = payload.get_u8();
                let ts = payload.get_u64_le();
                let state = match kind {
                    0 => OrphanSt::Unknown,
                    1 => OrphanSt::Proposed(ts),
                    2 => OrphanSt::Decided(ts),
                    3 => OrphanSt::Released(ts),
                    _ => return None,
                };
                Some(WbMessage::OrphanState {
                    group,
                    id,
                    attempt,
                    state,
                })
            }
            TAG_ORPHAN_FINAL => {
                let id = get_id(&mut payload)?;
                if payload.remaining() < 8 {
                    return None;
                }
                Some(WbMessage::OrphanFinal {
                    group,
                    id,
                    ts: payload.get_u64_le(),
                })
            }
            _ => None,
        }
    }
}

/// Whether a wbcast [`Message::Engine`] payload carries or references a
/// multicast value: `Submit`/`Ordered` carry one,
/// `ProposeAck`/`Final`/`FinalAck` and the orphan-recovery exchange
/// (`OrphanQuery`/`OrphanState`/`OrphanFinal`, which travels only
/// between addressed groups' sequencers) reference one by id;
/// heartbeats and the checkpoint traffic (`Resync`/`CkptMark`, which
/// travel only between a group's subscribers and its sequencer) are
/// pure control traffic. Genuineness tests use this to assert that
/// processes outside an addressed group set γ see no protocol traffic
/// for γ's messages.
pub fn frame_references_value(payload: Bytes) -> bool {
    matches!(
        WbMessage::parse(payload),
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
    )
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
        WbMessage::Resync { .. } => "resync",
        WbMessage::CkptMark { .. } => "ckpt_mark",
        WbMessage::ResyncDone { .. } => "resync_done",
        WbMessage::OrphanQuery { .. } => "orphan_query",
        WbMessage::OrphanState { .. } => "orphan_state",
        WbMessage::OrphanFinal { .. } => "orphan_final",
    })
}

/// A multi-group value whose final timestamp is still being agreed on
/// (held by the sequencer that proposed for it).
#[derive(Debug)]
struct Proposal {
    /// The timestamp this sequencer proposed (the final one is ≥ it).
    ts: u64,
    /// The value, emitted into the stream once decided.
    value: Value,
    /// The full addressed group set γ.
    groups: Vec<GroupId>,
    /// When the initiator last showed a sign of life for this round
    /// (the proposal's creation, a retransmitted `Submit`), or when the
    /// last orphan-recovery attempt for it started: the clock the
    /// [`ORPHAN_DELTAS`] timeout runs against.
    since: Time,
    /// Set once this sequencer has answered an [`WbMessage::OrphanQuery`]
    /// for the proposal: recovery owns the round from here on. A plain
    /// `Final` from the (possibly falsely-suspected, possibly
    /// stale-viewed) initiator is ignored — only an `OrphanFinal`
    /// decides — so the initiator and a recoverer that re-submitted
    /// after a sequencer failover can never split the round across two
    /// final timestamps by winning the race in different groups.
    /// Duplicate `Submit`s stop refreshing `since` for a fenced
    /// proposal, so if the recoverer dies the orphan timeout re-fires
    /// here no matter how lively the initiator's retries are.
    fenced: bool,
}

/// Per-group sequencer state (held by the group's coordinator).
#[derive(Debug)]
struct Sequencer {
    /// The ring whose Δ paces this group's heartbeats.
    ring: RingId,
    /// Heartbeat interval, microseconds.
    delta_us: u64,
    /// Sequencer generation: 0 for the configured coordinator, bumped
    /// on every takeover. Stamped into `Ordered`/`Heartbeat` frames so
    /// subscribers can fence deposed sequencers.
    epoch: u32,
    /// Next timestamp to assign (timestamps start at 1).
    next_ts: u64,
    /// Highest promise already heartbeated (avoids redundant sends).
    promised: u64,
    /// While set, releases and heartbeat promises are held: the
    /// takeover recovery window, during which initiators re-inject
    /// values whose decided timestamps may sort below the new clock.
    resume_at: Option<Time>,
    /// The group's subscribers, precomputed: the fan-out target of
    /// every `Ordered`/`Heartbeat`, resolved once instead of scanning
    /// the subscription map per message.
    subscribers: Vec<ProcessId>,
    /// Undecided multi-group proposals, by value id.
    pending: BTreeMap<ValueId, Proposal>,
    /// Decided values not yet released to the stream: a value keyed
    /// above an undecided proposal waits, because that proposal's final
    /// timestamp (≥ its proposed one) may still land below.
    outq: BTreeMap<Key, (Value, Vec<GroupId>)>,
    /// Every value this sequencer has decided, id → final timestamp
    /// (single-group values decide at submission, multi-group at
    /// `Final`). Retransmission dedup: a duplicate `Submit` or `Final`
    /// is re-acknowledged from here instead of getting a second
    /// timestamp. Pruned below the collective checkpoint watermark
    /// (see [`WbMessage::CkptMark`]); grows only with the un-checkpointed
    /// window.
    done: BTreeMap<ValueId, u64>,
    /// Released values retained to serve subscriber resyncs after a
    /// crash-restart ([`WbMessage::Resync`]): the group's ordered stream
    /// above the collective checkpoint watermark. Pruned together with
    /// `done` — this is the "retired backlog" a checkpoint lets the
    /// sequencer discard.
    history: BTreeMap<Key, (Value, Vec<GroupId>)>,
    /// Highest released timestamp no longer in `history`: the retained
    /// stream's floor, raised by the [`UNREPORTED_HISTORY_CAP`]
    /// eviction and by checkpoint-authorized pruning. A resync from
    /// below it cannot be made prefix-complete, and its `ResyncDone`
    /// says so (`gap_to`) instead of silently claiming completeness.
    evicted: u64,
    /// The latest durable checkpoint mark each subscriber reported
    /// (`CkptMark`). `done`/`history` are pruned below the minimum over
    /// the subscribers the coordination service considers *alive* once
    /// each of them has reported; a live subscriber that has never
    /// checkpointed keeps the full history available (it would resync
    /// from the very beginning). Subscribers reported crashed
    /// ([`Event::MembershipChange`]) are excluded so a permanent death
    /// no longer freezes the prune floor — if one nevertheless revives
    /// and resyncs from below the advanced floor, the replay signals
    /// the truncation (`gap_to`) instead of leaving a silent hole.
    reported: BTreeMap<ProcessId, u64>,
}

/// The shared time unit of the hybrid clocks, microseconds. Every
/// sequencer ticks in this fixed quantum — *not* in its ring's Δ —
/// so groups with different Δ still advance their timestamps at the
/// same wall-clock rate and no subscriber's delivery of one group can
/// lag another group's clock without bound. Δ only paces how often
/// the promise is *communicated* (heartbeats).
///
/// The quantum also bounds cross-group release: when a busy group's
/// count-driven timestamps outrun an idle group's time-driven promise,
/// the busy group's deliveries at shared subscribers drain at most
/// `1 / CLOCK_QUANTUM_US` values per second (the sequencer's Lamport
/// receive rule lifts this cap entirely when the idle sequencer's process also
/// subscribes to the busy group). One microsecond puts that floor at
/// 10⁶ values/s/group — above any workload this simulator drives — at
/// no cost: timestamps are u64 and their magnitude carries no meaning.
pub const CLOCK_QUANTUM_US: u64 = 1;

impl Sequencer {
    /// Advances the hybrid clock with elapsed time: future timestamps
    /// of this group always exceed `now / CLOCK_QUANTUM_US`, keeping
    /// independent groups loosely aligned so no group waits long on
    /// another.
    fn bump_clock(&mut self, now: Time) {
        let floor = now.as_micros() / CLOCK_QUANTUM_US + 1;
        self.next_ts = self.next_ts.max(floor);
    }

    /// Lamport receive rule: a sequencer that observes another group's
    /// timestamp jumps its own clock past it, so a busy group's
    /// count-driven timestamps never outrun an idle co-located group's
    /// promises (which would cap the busy group's delivery rate at the
    /// time-based tick rate).
    fn observe(&mut self, ts: u64) {
        self.next_ts = self.next_ts.max(ts + 1);
    }

    /// The smallest key an undecided proposal could still finalize at
    /// (its final timestamp is ≥ its proposed one, so keys strictly
    /// below this bound are settled).
    fn undecided_bound(&self) -> Option<Key> {
        self.pending.iter().map(|(&id, p)| (p.ts, id)).min()
    }

    /// Whether every subscriber of the group *not reported crashed* has
    /// reported a durable checkpoint mark at least once (the
    /// precondition for pruning the released history by the collective
    /// watermark; until then the history is bounded by
    /// [`UNREPORTED_HISTORY_CAP`] instead).
    fn all_reported(&self, down: &BTreeSet<ProcessId>) -> bool {
        let mut live = self.subscribers.iter().filter(|p| !down.contains(p));
        live.clone().count() > 0 && live.all(|p| self.reported.contains_key(p))
    }

    /// Prunes the decided-id map and released history once every live
    /// subscriber has reported a durable mark. Two floors cooperate:
    ///
    /// * The **hard floor** — the minimum over *every* reported mark,
    ///   crashed reporters included — is unconditionally prunable: each
    ///   reporter's own durable checkpoint covers it, so no resync ever
    ///   starts below its own mark.
    /// * Above that, the band up to the **live floor** (minimum over
    ///   the live subscribers only) is retained solely as a courtesy to
    ///   dead reporters that may yet revive and resync from their stale
    ///   mark. It is capped at [`UNREPORTED_HISTORY_CAP`] entries:
    ///   a short-downtime restart replays exactly, while a permanent
    ///   death no longer grows `history`/`done` without bound — the
    ///   effective floor advances past the dead reporter's mark, and a
    ///   late revival from below it gets a truncation-flagged replay
    ///   instead of a silent hole.
    fn prune_below_collective_mark(&mut self, down: &BTreeSet<ProcessId>) {
        if !self.all_reported(down) {
            return;
        }
        let Some(live_floor) = self
            .subscribers
            .iter()
            .filter(|p| !down.contains(p))
            .map(|p| self.reported[p])
            .min()
        else {
            return;
        };
        // Every live subscriber has reported (checked above), so the
        // reported set is a non-empty superset of the live marks and
        // its minimum can only sit at or below the live floor.
        let hard_floor = *self
            .reported
            .values()
            .min()
            .expect("all_reported implies a non-empty reported set");
        if hard_floor > 0 {
            self.history.retain(|&(ts, _), _| ts > hard_floor);
            self.evicted = self.evicted.max(hard_floor);
        }
        let band: Vec<Key> = self
            .history
            .range(..=promise_key(live_floor))
            .map(|(&k, _)| k)
            .collect();
        if band.len() > UNREPORTED_HISTORY_CAP {
            let drop = band.len() - UNREPORTED_HISTORY_CAP;
            for key in &band[..drop] {
                self.history.remove(key);
            }
            self.evicted = self.evicted.max(band[drop - 1].0);
        }
        let evicted = self.evicted;
        self.done.retain(|_, fts| *fts > evicted);
    }

    /// The highest timestamp this sequencer may promise: everything
    /// below `next_ts`, capped by undecided proposals (their final
    /// timestamps may equal the proposal) and by unreleased decided
    /// values.
    fn safe_promise(&self) -> u64 {
        let mut promise = self.next_ts - 1;
        if let Some((ts, _)) = self.undecided_bound() {
            promise = promise.min(ts - 1);
        }
        if let Some((&(ts, _), _)) = self.outq.first_key_value() {
            promise = promise.min(ts - 1);
        }
        promise
    }
}

/// Frontier position a heartbeat promise translates to: anything at the
/// promised timestamp (any id) has been ruled out for the future.
fn promise_key(ts: u64) -> Key {
    (ts, ValueId::new(ProcessId::new(u32::MAX), u64::MAX))
}

/// Per-subscribed-group delivery state.
#[derive(Debug)]
struct Subscription {
    /// Highest sequencer epoch observed on this group's stream. Frames
    /// from strictly lower epochs are fenced (a deposed sequencer must
    /// not advance the frontier the new one rebuilds).
    epoch: u32,
    /// Largest key observed from the group's sequencer. The sequencer
    /// releases its stream in strictly increasing key order over a
    /// reliable FIFO channel, so every future arrival is strictly
    /// greater — except recovery re-releases, which only dedup against
    /// it.
    frontier: Key,
    /// Checkpoint floor: values keyed at or below this timestamp are
    /// covered by a restored (or durable) checkpoint and are never
    /// delivered again — a resync replay or stale re-release below it
    /// only advances the frontier.
    floor: u64,
    /// A [`WbMessage::Resync`] is outstanding for this stream: frames
    /// keep buffering and frontiers keep advancing, but nothing is
    /// *delivered* until the [`WbMessage::ResyncDone`] marker restores
    /// the frontier's prefix-completeness guarantee.
    resyncing: bool,
    /// Ordered-but-not-yet-deliverable values, keyed by `(ts, id)`.
    pending: BTreeMap<Key, Value>,
}

impl Default for Subscription {
    fn default() -> Self {
        Self {
            epoch: 0,
            frontier: (0, ValueId::new(ProcessId::new(0), 0)),
            floor: 0,
            resyncing: false,
            pending: BTreeMap::new(),
        }
    }
}

impl Subscription {
    /// The group's current **delivery mark**: the largest timestamp `t`
    /// such that every value of this stream keyed at or below `t` has
    /// been delivered locally (directly or deduplicated against another
    /// subscribed stream) and none will arrive anymore.
    ///
    /// The frontier's own timestamp is excluded unless the frontier is a
    /// heartbeat promise — a future release may still share it with a
    /// larger id — and anything from the first still-pending value
    /// onward is excluded because it has not been executed yet.
    fn delivery_mark(&self) -> u64 {
        // While a resync is outstanding the frontier may stand past
        // values only the pending replay can supply (live heartbeats
        // keep arriving during the hold): the stream's stable prefix is
        // still exactly the restored checkpoint floor. Reporting the
        // frontier here would let a checkpoint claim values the
        // application never executed — and the subsequent trim would
        // floor the replay out, losing them permanently.
        if self.resyncing {
            return self.floor;
        }
        let mut mark = if self.frontier.1 == promise_key(self.frontier.0).1 {
            self.frontier.0
        } else {
            self.frontier.0.saturating_sub(1)
        };
        if let Some((&(ts, _), _)) = self.pending.first_key_value() {
            mark = mark.min(ts.saturating_sub(1));
        }
        mark.max(self.floor)
    }
}

/// The state an initiator keeps per locally submitted value until every
/// addressed group has confirmed its release (and, when a subscribed
/// group is addressed, until local delivery): the retry machinery's
/// unit of work.
#[derive(Debug)]
struct Inflight {
    /// The addressed group set γ, sorted and deduplicated.
    groups: Vec<GroupId>,
    /// The submitted value, kept for retransmission.
    value: Value,
    /// Timestamp proposals collected so far (multi-group round).
    acks: BTreeMap<GroupId, u64>,
    /// The decided final timestamp. Immutable once set: post-failover
    /// re-proposals are answered by re-issuing this decision.
    final_ts: Option<u64>,
    /// Groups that confirmed release (`FinalAck`). A `CoordinatorChange`
    /// voids the confirmation of that ring's groups.
    released: BTreeSet<GroupId>,
    /// Whether γ contains a locally subscribed group (the value then
    /// counts toward `backlog()` until delivered locally).
    local: bool,
    /// Whether the value was delivered locally.
    delivered: bool,
    /// When the value was submitted locally (round-latency attribution
    /// and the stall probe).
    submitted_at: Time,
}

/// A recovery round this process runs on behalf of a presumed-crashed
/// initiator: one [`WbMessage::OrphanQuery`] per addressed group, the
/// collected [`WbMessage::OrphanState`] answers, and — once every group
/// holds the value — the deterministic decision the initiator would
/// have made. Created by the sequencer that detected the orphan; the
/// entry retires only when **every addressed group confirms release**
/// ([`OrphanSt::Released`]) — a fire-and-forget `OrphanFinal` could die
/// with an addressed sequencer that crashed right after answering,
/// permanently losing the round in that group while others deliver.
/// Until then the round is re-probed every orphan-timeout period, and
/// a group whose replacement sequencer lost everything is re-submitted
/// and re-decided at the recorded (immutable) timestamp.
#[derive(Debug)]
struct OrphanRound {
    /// The addressed group set γ (from the orphaned proposal).
    groups: Vec<GroupId>,
    /// The orphaned value, kept for re-submission to groups that never
    /// saw the initiator's `Submit`.
    value: Value,
    /// Fences [`WbMessage::OrphanState`] replies: answers from an
    /// earlier attempt (possibly by a since-deposed sequencer) are
    /// discarded, so a recovery re-run after a `CoordinatorChange`
    /// collects a consistent snapshot.
    attempt: u32,
    /// States collected in the current attempt, one per addressed
    /// group.
    states: BTreeMap<GroupId, OrphanSt>,
    /// The round's final timestamp, once first computed. Immutable: a
    /// later re-probe that has to re-submit the value to an
    /// empty-handed replacement sequencer re-decides at exactly this
    /// timestamp, never at a fresh maximum.
    decided: Option<u64>,
    /// When this round last made progress (attempt started, decision
    /// sent): the clock the Δ-paced re-probe runs against.
    since: Time,
}

/// The per-process state machine of the white-box engine: sequencer
/// roles for the groups this process coordinates, the initiator state
/// for in-flight multi-group submissions, plus the delivery buffer over
/// its subscribed groups.
pub struct WbcastNode {
    me: ProcessId,
    config: ClusterConfig,
    /// Groups this process sequences.
    led: BTreeMap<GroupId, Sequencer>,
    /// Groups this process subscribes to.
    subs: BTreeMap<GroupId, Subscription>,
    /// The believed current coordinator (= sequencer host) per ring,
    /// maintained from [`Event::CoordinatorChange`] notifications.
    coordinators: BTreeMap<RingId, ProcessId>,
    /// Highest sequencer epoch known per ring (observed on frames or
    /// used by a local takeover); a takeover uses the next epoch.
    ring_epochs: BTreeMap<RingId, u32>,
    /// Highest timestamp observed per group, from any frame touching
    /// that group's clock: the takeover resume point.
    observed: BTreeMap<GroupId, u64>,
    /// Ids delivered locally, with the timestamp they delivered at:
    /// exactly-once across failover re-releases and resync replays.
    /// Pruned below the checkpoint watermark on [`AmcastEngine::trim`];
    /// the entries above the watermark travel inside the checkpoint
    /// ([`AmcastEngine::checkpoint_state`]) so recovery stays exact even
    /// when several values share the boundary timestamp.
    delivered_ids: BTreeMap<ValueId, u64>,
    /// Locally submitted values still being tracked (retries, backlog).
    inflight: BTreeMap<ValueId, Inflight>,
    /// Orphan-recovery rounds this process is running on behalf of
    /// presumed-crashed initiators, by orphaned value id.
    orphans: BTreeMap<ValueId, OrphanRound>,
    /// Per-ring down-sets as the coordination service last reported
    /// them ([`Event::MembershipChange`]). Kept per ring — one global
    /// set would let a later event from ring B (whose down-list only
    /// covers B's members) silently overwrite ring A's verdict about a
    /// shared member. A process counts as crashed while *any* ring
    /// reports it down ([`WbcastNode::down_union`]): crashed processes
    /// are excluded from the checkpoint prune floor, and their
    /// in-flight multi-group rounds are recovered without waiting for
    /// the orphan timeout.
    down: BTreeMap<RingId, BTreeSet<ProcessId>>,
    /// A restarted process whose [`AmcastEngine::resume`] has not run
    /// yet: its streams are held like resyncing ones, but no `Resync` is
    /// outstanding — the replay position is only known once the replica
    /// has chosen the checkpoint to recover from.
    awaiting_resume: bool,
    /// Rings with a live Δ heartbeat timer (avoids double-arming when a
    /// resigned ring is re-acquired before its old timer fired).
    delta_armed: BTreeSet<RingId>,
    /// Rings with a live retry timer.
    retry_armed: BTreeSet<RingId>,
    /// Per-proposer sequence numbers for [`ValueId`] assignment.
    next_seq: u64,
    /// Phase-level metrics and the protocol-event trace ring.
    tel: EngineTelemetry,
}

impl fmt::Debug for WbcastNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WbcastNode")
            .field("me", &self.me)
            .field("leads", &self.led.keys().collect::<Vec<_>>())
            .field("subscribes", &self.subs.keys().collect::<Vec<_>>())
            .finish_non_exhaustive()
    }
}

impl WbcastNode {
    /// Creates the engine for process `me` over `config`. The
    /// sequencer of each group is the coordinator of the group's ring;
    /// subscriptions are the config's learner subscriptions.
    pub fn new(me: ProcessId, config: ClusterConfig) -> Self {
        Self::build(me, config, false)
    }

    /// Creates the engine for a process **restarting after a crash**.
    ///
    /// Identical to [`WbcastNode::new`] except that the process does
    /// *not* assume the sequencer role for the rings it statically
    /// coordinates: its pre-crash ordering state (clock, undecided
    /// proposals, released history) died with it, and a replacement may
    /// have been elected while it was down. Until the coordination
    /// service confirms the role via `Event::CoordinatorChange` — which
    /// runtimes deliver right after the restart's `Event::Start` — the
    /// node neither orders submissions nor answers resyncs for those
    /// groups, so a post-resume [`AmcastEngine::resume`] request stays
    /// outstanding (and is re-issued to whoever the service names)
    /// instead of being answered from a spuriously empty history.
    ///
    /// Every subscribed stream also starts **held**, exactly as while a
    /// resync is outstanding: live frames that arrive before
    /// [`AmcastEngine::resume`] (a replica first asks its partition
    /// peers for a fresher checkpoint) buffer and advance frontiers, but
    /// nothing is delivered past the hole the crash left until the
    /// replay's terminator closes it.
    pub fn recovering(me: ProcessId, config: ClusterConfig) -> Self {
        Self::build(me, config, true)
    }

    fn build(me: ProcessId, config: ClusterConfig, recovering: bool) -> Self {
        let mut led = BTreeMap::new();
        let mut coordinators = BTreeMap::new();
        for (&group, &ring_id) in config.groups() {
            let ring = config.ring(ring_id).expect("validated config");
            coordinators.insert(ring_id, ring.coordinator());
            if !recovering && ring.coordinator() == me {
                led.insert(
                    group,
                    Sequencer {
                        ring: ring_id,
                        delta_us: ring.tuning().delta_us,
                        epoch: 0,
                        next_ts: 1,
                        promised: 0,
                        resume_at: None,
                        subscribers: config.subscribers_of(group),
                        pending: BTreeMap::new(),
                        outq: BTreeMap::new(),
                        done: BTreeMap::new(),
                        history: BTreeMap::new(),
                        evicted: 0,
                        reported: BTreeMap::new(),
                    },
                );
            }
        }
        let subs = config
            .subscriptions_of(me)
            .into_iter()
            .map(|g| {
                let sub = Subscription {
                    resyncing: recovering,
                    ..Subscription::default()
                };
                (g, sub)
            })
            .collect();
        Self {
            me,
            config,
            led,
            subs,
            coordinators,
            ring_epochs: BTreeMap::new(),
            observed: BTreeMap::new(),
            delivered_ids: BTreeMap::new(),
            inflight: BTreeMap::new(),
            orphans: BTreeMap::new(),
            down: BTreeMap::new(),
            awaiting_resume: recovering,
            delta_armed: BTreeSet::new(),
            retry_armed: BTreeSet::new(),
            next_seq: 0,
            tel: EngineTelemetry::default(),
        }
    }

    /// The process this engine embodies.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Values delivered so far (progress metric).
    pub fn delivered(&self) -> u64 {
        self.tel.registry.counter("sub.delivered")
    }

    /// The timestamp frontier per subscribed group (inspection: equal
    /// frontiers on two subscribers of a group mean equal histories).
    pub fn horizons(&self) -> BTreeMap<GroupId, u64> {
        self.subs.iter().map(|(&g, s)| (g, s.frontier.0)).collect()
    }

    /// Ordered-but-undeliverable values buffered (backpressure metric).
    pub fn pending_len(&self) -> usize {
        self.subs.values().map(|s| s.pending.len()).sum()
    }

    /// Delivered-id dedup entries currently retained — the per-key
    /// bookkeeping the checkpoint/trim cycle keeps bounded (it grows
    /// only with the window above the last durable checkpoint).
    pub fn dedup_len(&self) -> usize {
        self.delivered_ids.len()
    }

    /// Dedup entries retained for deliveries at or below timestamp
    /// `ts`. After [`AmcastEngine::trim`] at a watermark whose smallest
    /// mark is `ts`, this is zero — the invariant the bounded-state
    /// regression tests assert.
    pub fn dedup_retained_at_or_below(&self, ts: u64) -> usize {
        self.delivered_ids.values().filter(|&&t| t <= ts).count()
    }

    /// Sequencer-side bookkeeping retained for the groups this process
    /// leads: `(decided-id entries, released-history entries)`. Both are
    /// pruned below the collective checkpoint watermark reported by the
    /// groups' subscribers.
    pub fn sequencer_footprint(&self) -> (usize, usize) {
        self.led.values().fold((0, 0), |(d, h), seq| {
            (d + seq.done.len(), h + seq.history.len())
        })
    }

    /// Undecided multi-group proposals held by the groups this process
    /// sequences. A stalled stream always shows up here: every key
    /// above an undecided proposal is gated on it, so a quiesced
    /// cluster must report zero (the liveness invariant the
    /// initiator-crash suite asserts).
    pub fn undecided_len(&self) -> usize {
        self.led.values().map(|s| s.pending.len()).sum()
    }

    /// An FNV-1a fingerprint of the protocol-relevant state: sequencer
    /// clocks/streams, subscriptions, initiator in-flight rounds,
    /// orphan recovery and timer arming. Telemetry, the protocol-event
    /// trace ring and pure progress counters are excluded so schedules
    /// that commute into the same protocol state fingerprint
    /// identically (see [`multiring_paxos::digest`]).
    pub fn state_digest(&self) -> u64 {
        use multiring_paxos::digest::{DigestInto, Fnv1a};
        fn orphan_st(st: &OrphanSt, h: &mut Fnv1a) {
            match st {
                OrphanSt::Unknown => h.write_u8(1),
                OrphanSt::Proposed(ts) => {
                    h.write_u8(2);
                    h.write_u64(*ts);
                }
                OrphanSt::Decided(ts) => {
                    h.write_u8(3);
                    h.write_u64(*ts);
                }
                OrphanSt::Released(ts) => {
                    h.write_u8(4);
                    h.write_u64(*ts);
                }
            }
        }
        let mut h = Fnv1a::new();
        self.me.digest_into(&mut h);
        h.write_usize(self.led.len());
        for (g, s) in &self.led {
            g.digest_into(&mut h);
            s.ring.digest_into(&mut h);
            h.write_u64(s.delta_us);
            h.write_u64(u64::from(s.epoch));
            h.write_u64(s.next_ts);
            h.write_u64(s.promised);
            s.resume_at.digest_into(&mut h);
            h.write_usize(s.pending.len());
            for (id, p) in &s.pending {
                id.digest_into(&mut h);
                h.write_u64(p.ts);
                p.value.digest_into(&mut h);
                p.groups.digest_into(&mut h);
                p.since.digest_into(&mut h);
                p.fenced.digest_into(&mut h);
            }
            s.outq.digest_into(&mut h);
            s.done.digest_into(&mut h);
            s.history.digest_into(&mut h);
            h.write_u64(s.evicted);
            s.reported.digest_into(&mut h);
        }
        h.write_usize(self.subs.len());
        for (g, s) in &self.subs {
            g.digest_into(&mut h);
            h.write_u64(u64::from(s.epoch));
            s.frontier.digest_into(&mut h);
            h.write_u64(s.floor);
            s.resyncing.digest_into(&mut h);
            s.pending.digest_into(&mut h);
        }
        self.awaiting_resume.digest_into(&mut h);
        self.coordinators.digest_into(&mut h);
        self.ring_epochs.digest_into(&mut h);
        self.observed.digest_into(&mut h);
        self.delivered_ids.digest_into(&mut h);
        h.write_usize(self.inflight.len());
        for (id, inf) in &self.inflight {
            id.digest_into(&mut h);
            inf.groups.digest_into(&mut h);
            inf.value.digest_into(&mut h);
            inf.acks.digest_into(&mut h);
            inf.final_ts.digest_into(&mut h);
            inf.released.digest_into(&mut h);
            inf.local.digest_into(&mut h);
            inf.delivered.digest_into(&mut h);
            inf.submitted_at.digest_into(&mut h);
        }
        h.write_usize(self.orphans.len());
        for (id, round) in &self.orphans {
            id.digest_into(&mut h);
            round.groups.digest_into(&mut h);
            round.value.digest_into(&mut h);
            h.write_u64(u64::from(round.attempt));
            h.write_usize(round.states.len());
            for (g, st) in &round.states {
                g.digest_into(&mut h);
                orphan_st(st, &mut h);
            }
            round.decided.digest_into(&mut h);
            round.since.digest_into(&mut h);
        }
        self.down.digest_into(&mut h);
        self.delta_armed.digest_into(&mut h);
        self.retry_armed.digest_into(&mut h);
        h.write_u64(self.next_seq);
        h.finish()
    }

    /// Resync replays that terminated with a truncation flag: the
    /// sequencer had discarded *retained* history below the requested
    /// position (capped retention, checkpoint pruning past a dead
    /// subscriber), so the stream was re-anchored past a potential
    /// delivery gap instead of silently claiming prefix-completeness.
    /// Deployments that require gapless recovery must treat a nonzero
    /// count as a failed recovery (re-seed the replica from a peer
    /// checkpoint). Note the flag covers retention-driven truncation
    /// only: a *replacement* sequencer answering from its necessarily
    /// empty history (the deposed incarnation's stream died with it) is
    /// the separate, documented remaining limitation that in-group
    /// history replication will close — it cannot be flagged off the
    /// takeover resume point, whose wall-clock component sits far above
    /// every real timestamp and would write off grace-window
    /// re-injections that other subscribers deliver.
    pub fn resync_truncations(&self) -> u64 {
        self.tel.registry.counter("sub.resync_truncations")
    }

    /// The node's live telemetry store (see the module docs' metric
    /// table).
    pub fn tel(&self) -> &EngineTelemetry {
        &self.tel
    }

    /// The believed current sequencer of `group`: the coordinator the
    /// coordination service last announced for the group's ring.
    fn sequencer_of(&self, group: GroupId) -> Option<ProcessId> {
        let ring = self.config.ring_of_group(group)?;
        self.coordinators.get(&ring).copied()
    }

    /// Records a timestamp exposed for `group` (the takeover resume
    /// point: a new sequencer never assigns at or below it).
    fn note_observed(&mut self, group: GroupId, ts: u64) {
        let o = self.observed.entry(group).or_insert(0);
        *o = (*o).max(ts);
    }

    /// Records a sequencer epoch seen for `group`'s ring.
    fn note_epoch(&mut self, group: GroupId, epoch: u32) {
        if let Some(ring) = self.config.ring_of_group(group) {
            self.note_ring_epoch(ring, epoch);
        }
    }

    /// Records an epoch floor for `ring` (observed on a frame, or the
    /// coordination service's election round).
    fn note_ring_epoch(&mut self, ring: RingId, epoch: u32) {
        let e = self.ring_epochs.entry(ring).or_insert(0);
        *e = (*e).max(epoch);
    }

    /// The retransmission interval for submissions routed to `ring`.
    fn retry_interval(&self, ring: RingId) -> u64 {
        let delta = self
            .config
            .ring(ring)
            .map_or(1_000, |r| r.tuning().delta_us);
        (delta * RETRY_DELTAS).max(1)
    }

    /// Routes an engine message to a peer, or handles it inline when
    /// addressed to this process itself.
    fn route(&mut self, now: Time, to: ProcessId, msg: WbMessage, out: &mut Vec<Action>) {
        if to == self.me {
            self.on_wb_message(now, self.me, msg, out);
        } else {
            out.push(Action::Send {
                to,
                msg: msg.into_frame(),
            });
        }
    }

    /// Sequencer side: a submission for `group`, one of the addressed
    /// groups γ. Single-group values take their timestamp as final and
    /// enter the stream directly; multi-group values become undecided
    /// proposals reported back to the initiator. Retransmissions never
    /// get a second timestamp: a pending proposal is re-acknowledged
    /// and a decided value re-confirmed (once released).
    fn on_submit(
        &mut self,
        now: Time,
        group: GroupId,
        groups: Vec<GroupId>,
        value: Value,
        out: &mut Vec<Action>,
    ) {
        let id = value.id;
        let (reply, release, mark) = {
            let Some(seq) = self.led.get_mut(&group) else {
                // Stale submission (this process no longer sequences the
                // group); the initiator re-routes on CoordinatorChange.
                return;
            };
            if let Some(p) = seq.pending.get_mut(&id) {
                // Duplicate of an undecided proposal: same timestamp.
                // The retransmission is a sign of life from the
                // initiator (or a recoverer), so the orphan clock
                // restarts — unless recovery already owns the round
                // (fenced): then only recovery's own attempts reset it,
                // so a lively-but-fenced initiator cannot postpone the
                // backstop forever.
                if !p.fenced {
                    p.since = now;
                }
                (
                    Some(WbMessage::ProposeAck {
                        group,
                        id,
                        ts: p.ts,
                    }),
                    false,
                    "seq.dedup_submits",
                )
            } else if let Some(&fts) = seq.done.get(&id) {
                // Already decided; confirm only once released (a gated
                // value confirms via flush_group when it releases).
                let released = !seq.outq.contains_key(&(fts, id));
                (
                    released.then_some(WbMessage::FinalAck { group, id, ts: fts }),
                    false,
                    "seq.dedup_submits",
                )
            } else {
                seq.bump_clock(now);
                let ts = seq.next_ts;
                seq.next_ts += 1;
                if groups.len() > 1 {
                    seq.pending.insert(
                        id,
                        Proposal {
                            ts,
                            value,
                            groups,
                            since: now,
                            fenced: false,
                        },
                    );
                    (
                        Some(WbMessage::ProposeAck { group, id, ts }),
                        false,
                        "seq.proposals",
                    )
                } else {
                    seq.done.insert(id, ts);
                    seq.outq.insert((ts, id), (value, groups));
                    (None, true, "seq.ordered_single")
                }
            }
        };
        self.tel.incr(mark, 1);
        if let Some(msg) = reply {
            self.route(now, id.proposer, msg, out);
        }
        if release {
            self.flush_group(now, group, out);
        }
    }

    /// Initiator side: collects one timestamp proposal per addressed
    /// group; once complete, the maximum becomes the final timestamp and
    /// is sent to every addressed sequencer. Once decided, the final
    /// timestamp is immutable: a later ack (a re-proposal by a
    /// post-failover sequencer) is answered by re-issuing the decision.
    fn on_propose_ack(
        &mut self,
        now: Time,
        group: GroupId,
        id: ValueId,
        ts: u64,
        out: &mut Vec<Action>,
    ) {
        self.note_observed(group, ts);
        self.observe_ts(group, ts);
        let Some(entry) = self.inflight.get_mut(&id) else {
            return;
        };
        // A stray or duplicated ack for a group outside γ must not
        // enter the round: it could complete the collection with a
        // bogus maximum.
        if !entry.groups.contains(&group) {
            return;
        }
        let (fts, groups, decided) = if let Some(fts) = entry.final_ts {
            (fts, vec![group], None)
        } else {
            entry.acks.insert(group, ts);
            if entry.acks.len() < entry.groups.len() {
                return;
            }
            let fts = entry.acks.values().copied().max().expect("non-empty acks");
            entry.final_ts = Some(fts);
            (fts, entry.groups.clone(), Some(entry.submitted_at))
        };
        if let Some(submitted_at) = decided {
            self.tel.incr("round.decided", 1);
            self.tel
                .record("round.decide_latency_us", now.since(submitted_at));
        }
        for g in groups {
            let Some(sequencer) = self.sequencer_of(g) else {
                continue;
            };
            self.route(
                now,
                sequencer,
                WbMessage::Final {
                    group: g,
                    id,
                    ts: fts,
                },
                out,
            );
        }
    }

    /// Sequencer side: the final timestamp for an undecided proposal
    /// arrived; re-key the value at it and release what became settled.
    /// A duplicate `Final` is idempotent: re-confirm if released.
    /// `from_recovery` distinguishes an `OrphanFinal` from the
    /// initiator's own `Final`: once recovery has queried a pending
    /// proposal (fenced), only recovery may decide it — a
    /// falsely-suspected initiator racing the recoverer could otherwise
    /// win in one group while the recoverer (whose view may differ
    /// after a sequencer failover re-proposal) wins in another,
    /// splitting the round across two final timestamps.
    fn on_final(
        &mut self,
        now: Time,
        group: GroupId,
        id: ValueId,
        fts: u64,
        from_recovery: bool,
        out: &mut Vec<Action>,
    ) {
        self.note_observed(group, fts);
        self.observe_ts(group, fts);
        if !from_recovery
            && self
                .led
                .get(&group)
                .is_some_and(|seq| seq.pending.get(&id).is_some_and(|p| p.fenced))
        {
            // Recovery owns this round: the initiator's Final is
            // dropped (not even re-acknowledged), and its retries
            // settle once recovery releases the value.
            self.tel.incr("seq.fenced_final_drops", 1);
            return;
        }
        if !from_recovery && self.orphans.get(&id).is_some_and(|r| r.decided.is_none()) {
            // The live initiator is driving this round (it retries
            // until release-time FinalAcks) and recovery has not
            // decided anything yet: stand down. A round recovery
            // already *decided* stays tracked through release
            // confirmation — the initiator may crash again before
            // re-driving a group whose sequencer lost the decision,
            // and only this round's re-probe would re-detect that
            // (the group's replacement holds no pending proposal for
            // the scan to fire on). A recovery decision (`OrphanFinal`)
            // never stands a round down either.
            self.orphans.remove(&id);
        }
        let (reack, decided) = {
            let Some(seq) = self.led.get_mut(&group) else {
                return;
            };
            match seq.pending.remove(&id) {
                Some(p) => {
                    // The final timestamp orders this group's future
                    // assignments after the value (Lamport receive rule
                    // on the group clock).
                    seq.next_ts = seq.next_ts.max(fts + 1);
                    seq.done.insert(id, fts);
                    seq.outq.insert((fts, id), (p.value, p.groups));
                    (None, true)
                }
                None => (
                    seq.done
                        .get(&id)
                        .copied()
                        .filter(|&done_ts| !seq.outq.contains_key(&(done_ts, id))),
                    false,
                ),
            }
        };
        if decided {
            self.tel.incr("seq.finals_applied", 1);
        }
        if let Some(done_ts) = reack {
            self.route(
                now,
                id.proposer,
                WbMessage::FinalAck {
                    group,
                    id,
                    ts: done_ts,
                },
                out,
            );
            return;
        }
        self.flush_group(now, group, out);
    }

    /// Initiator side: `group`'s sequencer released the value into its
    /// stream; stop retransmitting toward it. Once every addressed
    /// group has confirmed (and the value was delivered locally, when a
    /// subscribed group is addressed), the tracking entry retires.
    fn on_final_ack(&mut self, now: Time, group: GroupId, id: ValueId, ts: u64) {
        self.note_observed(group, ts);
        self.observe_ts(group, ts);
        let Some(entry) = self.inflight.get_mut(&id) else {
            return;
        };
        if !entry.groups.contains(&group) {
            return;
        }
        let fresh = entry.released.insert(group);
        let fully_released = entry.released.len() == entry.groups.len();
        let retire = fully_released && (!entry.local || entry.delivered);
        let submitted_at = entry.submitted_at;
        if fresh && fully_released {
            // The round is safe in every addressed group's stream:
            // submit→release is the initiator's view of round latency.
            self.tel.incr("round.released", 1);
            self.tel
                .record("round.release_latency_us", now.since(submitted_at));
        }
        if retire {
            self.inflight.remove(&id);
        }
    }

    // --- initiator crash recovery (orphaned multi-group rounds) -----
    //
    // A multi-group round whose initiator crashed before distributing
    // the final timestamp would stall every addressed group's stream
    // behind the undecided proposal forever. Any sequencer holding such
    // a proposal eventually assumes the initiator role for the round:
    // it collects every addressed sequencer's state for the value
    // (`OrphanQuery`/`OrphanState`), re-submits on the orphan's behalf
    // to groups that never saw the `Submit` (id-based dedup makes the
    // re-submission safe), and — once every group holds the value —
    // completes the round deterministically (`OrphanFinal`): an
    // already-decided timestamp wins, otherwise the maximum over the
    // proposals, exactly the initiator's own rule. Concurrent
    // recoverers therefore decide identically, duplicates are absorbed
    // by the same dedup that protects initiator retries, and a decided
    // timestamp is never overwritten (first decide wins at each
    // sequencer).

    /// Starts (or re-runs) an orphan-recovery round for `id`: bumps the
    /// attempt — fencing any state replies still in flight from a
    /// previous attempt — and queries the current sequencer of every
    /// addressed group.
    fn start_orphan_recovery(
        &mut self,
        now: Time,
        id: ValueId,
        value: Value,
        groups: Vec<GroupId>,
        out: &mut Vec<Action>,
    ) {
        let round = self.orphans.entry(id).or_insert(OrphanRound {
            groups: groups.clone(),
            value,
            attempt: 0,
            states: BTreeMap::new(),
            decided: None,
            since: now,
        });
        round.attempt += 1;
        round.states.clear();
        round.since = now;
        let attempt = round.attempt;
        if attempt == 1 {
            self.tel.incr("orphan.rounds_started", 1);
            self.tel.trace(now, "orphan.start", None, id.seq);
        } else {
            self.tel.incr("orphan.reprobes", 1);
        }
        for g in groups {
            let Some(sequencer) = self.sequencer_of(g) else {
                continue;
            };
            self.route(
                now,
                sequencer,
                WbMessage::OrphanQuery {
                    group: g,
                    id,
                    attempt,
                },
                out,
            );
        }
    }

    /// Kicks off recovery for every pending proposal of this process's
    /// sequencers that matches `orphaned` (called with the proposal's
    /// ring, its ring's Δ, the value id, and the proposal itself).
    /// Matched proposals get their liveness clock reset — a recovery
    /// attempt is progress — before the exchange starts.
    fn kick_orphans(
        &mut self,
        now: Time,
        out: &mut Vec<Action>,
        mut orphaned: impl FnMut(RingId, u64, ValueId, &Proposal) -> bool,
    ) {
        let mut stale: Vec<(ValueId, Value, Vec<GroupId>)> = Vec::new();
        for seq in self.led.values_mut() {
            let (ring, delta_us) = (seq.ring, seq.delta_us);
            for (&id, p) in &mut seq.pending {
                if orphaned(ring, delta_us, id, p) {
                    p.since = now;
                    stale.push((id, p.value.clone(), p.groups.clone()));
                }
            }
        }
        for (id, value, gamma) in stale {
            self.start_orphan_recovery(now, id, value, gamma, out);
        }
    }

    /// Re-runs recovery for every pending proposal this process's
    /// sequencers hold whose initiator is in `suspects` (the
    /// coordination service reported them crashed): the fast path that
    /// skips the orphan timeout.
    fn recover_orphans_of(
        &mut self,
        now: Time,
        suspects: &BTreeSet<ProcessId>,
        out: &mut Vec<Action>,
    ) {
        self.kick_orphans(now, out, |_, _, id, _| suspects.contains(&id.proposer));
    }

    /// The Δ-paced backstop: proposals of the led groups of `ring`
    /// whose initiator has shown no sign of life for
    /// [`ORPHAN_DELTAS`] × Δ are presumed orphaned and recovered. This
    /// catches what no crash notification can: initiators that are not
    /// ring members anywhere, lost notifications, recovery exchanges
    /// that themselves lost frames, and recoverers that died after
    /// fencing a proposal (the proposal is still pending, so the scan
    /// simply fires again).
    fn scan_orphans(&mut self, now: Time, ring: RingId, out: &mut Vec<Action>) {
        self.kick_orphans(now, out, |r, delta_us, _, p| {
            r == ring && now.since(p.since) >= (delta_us * ORPHAN_DELTAS).max(1)
        });
    }

    /// Sequencer side: a recoverer asks what this process holds for the
    /// orphaned round `id` in `group`. Answer from the authoritative
    /// maps; stay silent when this process does not (or no longer)
    /// sequence the group — the recoverer re-routes on
    /// `CoordinatorChange` and re-fires on its orphan timeout.
    fn on_orphan_query(
        &mut self,
        now: Time,
        from: ProcessId,
        group: GroupId,
        id: ValueId,
        attempt: u32,
        out: &mut Vec<Action>,
    ) {
        let Some(seq) = self.led.get_mut(&group) else {
            return;
        };
        let state = if let Some(&fts) = seq.done.get(&id) {
            if seq.outq.contains_key(&(fts, id)) {
                // Decided but gated behind earlier keys: still only in
                // this sequencer's memory, so not yet confirmable.
                OrphanSt::Decided(fts)
            } else {
                OrphanSt::Released(fts)
            }
        } else if let Some(p) = seq.pending.get_mut(&id) {
            // Answering hands the round to recovery: from here only an
            // OrphanFinal decides this proposal (see `Proposal::fenced`).
            p.fenced = true;
            OrphanSt::Proposed(p.ts)
        } else {
            OrphanSt::Unknown
        };
        self.route(
            now,
            from,
            WbMessage::OrphanState {
                group,
                id,
                attempt,
                state,
            },
            out,
        );
    }

    /// Recoverer side: collects one state per addressed group. Once the
    /// collection is complete, either every group holds the value —
    /// then the round is finished exactly as the initiator would have
    /// (decided timestamp wins, else max over proposals) — or some
    /// group never saw the `Submit`: re-submit the orphan's value there
    /// (receiver-side dedup makes duplicates harmless) and re-query it
    /// over the same FIFO channel, so the refreshed state arrives right
    /// behind the new proposal.
    fn on_orphan_state(
        &mut self,
        now: Time,
        group: GroupId,
        id: ValueId,
        attempt: u32,
        state: OrphanSt,
        out: &mut Vec<Action>,
    ) {
        enum Next {
            /// Every addressed group confirmed the value in its
            /// released stream (never lost from there): recovery
            /// retires.
            Confirmed,
            /// Some groups never saw the `Submit`: re-seed them, then
            /// re-collect.
            Reseed(Vec<GroupId>),
            /// Every group holds the value: (re-)send the decision to
            /// the not-yet-released ones and await confirmation.
            Decide(u64, Vec<GroupId>),
        }
        {
            let Some(round) = self.orphans.get_mut(&id) else {
                return;
            };
            if attempt != round.attempt || !round.groups.contains(&group) {
                return;
            }
            round.states.insert(group, state);
            if round.states.len() < round.groups.len() {
                return;
            }
        }
        // The collection is complete: classify it into the next step,
        // shedding all Unknown states *before* routing anything — a
        // re-submit to a self-led group is handled inline and can
        // re-enter this function, so the map must already be consistent
        // by then.
        let (next, value, gamma, attempt) = {
            let round = self.orphans.get_mut(&id).expect("checked above");
            // The round's timestamp is immutable once first computed:
            // re-proposals minted for an empty-handed replacement
            // sequencer must never move an already-decided round, so
            // the recorded value (or any group's reported decision —
            // every decision of this round carries the same one,
            // first-decide-wins at each sequencer) beats any maximum
            // over fresh proposals.
            let decided = round.decided.or_else(|| {
                round.states.values().find_map(|s| match s {
                    OrphanSt::Decided(ts) | OrphanSt::Released(ts) => Some(*ts),
                    _ => None,
                })
            });
            let unknown: Vec<GroupId> = round
                .states
                .iter()
                .filter(|(_, s)| matches!(s, OrphanSt::Unknown))
                .map(|(&g, _)| g)
                .collect();
            for g in &unknown {
                round.states.remove(g);
            }
            let next = if !unknown.is_empty() {
                Next::Reseed(unknown)
            } else if round
                .states
                .values()
                .all(|s| matches!(s, OrphanSt::Released(_)))
            {
                Next::Confirmed
            } else {
                let fts = decided.unwrap_or_else(|| {
                    round
                        .states
                        .values()
                        .map(|s| match s {
                            OrphanSt::Proposed(ts)
                            | OrphanSt::Decided(ts)
                            | OrphanSt::Released(ts) => *ts,
                            OrphanSt::Unknown => 0,
                        })
                        .max()
                        .expect("non-empty states")
                });
                let unreleased: Vec<GroupId> = round
                    .states
                    .iter()
                    .filter(|(_, s)| !matches!(s, OrphanSt::Released(_)))
                    .map(|(&g, _)| g)
                    .collect();
                // Record the decision and keep the round: a
                // fire-and-forget OrphanFinal could die with an
                // addressed sequencer that crashed right after
                // answering, losing the round in that group forever
                // while the others deliver. The Δ-paced re-probe
                // re-drives the decision until every group confirms
                // release.
                round.decided = Some(fts);
                round.since = now;
                Next::Decide(fts, unreleased)
            };
            (
                next,
                round.value.clone(),
                round.groups.clone(),
                round.attempt,
            )
        };
        match next {
            Next::Confirmed => {
                self.orphans.remove(&id);
                self.tel.incr("orphan.rounds_completed", 1);
                self.tel.trace(now, "orphan.confirmed", None, id.seq);
            }
            Next::Reseed(groups) => {
                for g in groups {
                    let Some(sequencer) = self.sequencer_of(g) else {
                        continue;
                    };
                    self.route(
                        now,
                        sequencer,
                        WbMessage::Submit {
                            group: g,
                            groups: gamma.clone(),
                            value: value.clone(),
                        },
                        out,
                    );
                    self.route(
                        now,
                        sequencer,
                        WbMessage::OrphanQuery {
                            group: g,
                            id,
                            attempt,
                        },
                        out,
                    );
                }
            }
            Next::Decide(fts, groups) => {
                for g in groups {
                    let Some(sequencer) = self.sequencer_of(g) else {
                        continue;
                    };
                    self.route(
                        now,
                        sequencer,
                        WbMessage::OrphanFinal {
                            group: g,
                            id,
                            ts: fts,
                        },
                        out,
                    );
                }
            }
        }
    }

    /// Re-probes outstanding orphan rounds that have gone an orphan
    /// timeout without progress: a fresh attempt re-queries every
    /// addressed group, so a decision frame lost with a crashed
    /// sequencer is re-driven (re-submission included) until every
    /// group confirms release.
    fn reprobe_orphan_rounds(&mut self, now: Time, delta_us: u64, out: &mut Vec<Action>) {
        let timeout = (delta_us * ORPHAN_DELTAS).max(1);
        let stale: Vec<(ValueId, Value, Vec<GroupId>)> = self
            .orphans
            .iter()
            .filter(|(_, r)| now.since(r.since) >= timeout)
            .map(|(&id, r)| (id, r.value.clone(), r.groups.clone()))
            .collect();
        for (id, value, gamma) in stale {
            self.start_orphan_recovery(now, id, value, gamma, out);
        }
    }

    /// The coordination service reported the current down-set of
    /// `ring`'s members. Two consumers: the checkpoint prune floor
    /// drops crashed subscribers (a permanent death no longer freezes
    /// sequencer `history`/`done` growth), and pending multi-group
    /// proposals whose initiator is among the dead are recovered
    /// immediately instead of waiting out the orphan timeout.
    fn on_membership_change(
        &mut self,
        now: Time,
        ring: RingId,
        down: Vec<ProcessId>,
        out: &mut Vec<Action>,
    ) {
        let Some(ringcfg) = self.config.ring(ring) else {
            return;
        };
        let down_set: BTreeSet<ProcessId> = down
            .into_iter()
            .filter(|p| ringcfg.members().iter().any(|m| m.process == *p))
            .collect();
        self.down.insert(ring, down_set.clone());
        let down_now = self.down_union();
        for seq in self.led.values_mut() {
            seq.prune_below_collective_mark(&down_now);
        }
        self.recover_orphans_of(now, &down_set, out);
    }

    /// Processes the coordination service currently reports crashed in
    /// *any* ring (per-ring down-sets never overwrite each other's
    /// verdicts about a shared member; erring toward "down" only
    /// advances a prune floor, and a wrongly-pruned-past subscriber is
    /// still answered with an explicit truncation, never a silent gap).
    fn down_union(&self) -> BTreeSet<ProcessId> {
        self.down.values().flatten().copied().collect()
    }

    /// Releases the settled prefix of a led group's stream: decided
    /// values strictly below every undecided proposal, fanned out to the
    /// subscribers in increasing `(ts, id)` order. The frame is encoded
    /// once and shared across subscribers (`Message` clones are cheap:
    /// the payload is a reference-counted `Bytes`).
    fn flush_group(&mut self, now: Time, group: GroupId, out: &mut Vec<Action>) {
        let me = self.me;
        loop {
            let released = {
                let Some(seq) = self.led.get_mut(&group) else {
                    return;
                };
                // Takeover recovery window: hold the stream so values
                // re-injected by initiators (at their already-decided,
                // possibly small timestamps) sort in before release.
                if seq.resume_at.is_some_and(|t| now < t) {
                    return;
                }
                let Some((&key, _)) = seq.outq.first_key_value() else {
                    return;
                };
                if seq.undecided_bound().is_some_and(|bound| key > bound) {
                    return;
                }
                let (value, groups) = seq.outq.remove(&key).expect("head key present");
                // Future assignments must key above everything released.
                seq.next_ts = seq.next_ts.max(key.0 + 1);
                // Retain the released value for subscriber resyncs; the
                // clones are cheap (`Bytes` payload) and the entry is
                // pruned once every subscriber's durable checkpoint
                // covers it — or, while some subscriber has never
                // checkpointed, bounded by the cap (best-effort resync
                // beats unbounded memory in never-checkpointing
                // deployments).
                seq.history.insert(key, (value.clone(), groups.clone()));
                let mut evictions = 0u64;
                if seq.history.len() > UNREPORTED_HISTORY_CAP {
                    // The union is built only on this rare over-cap
                    // path (never-checkpointing deployments), keeping
                    // the per-release fast path allocation-free.
                    let down: BTreeSet<ProcessId> = self.down.values().flatten().copied().collect();
                    if !seq.all_reported(&down) {
                        if let Some(((ts, _), _)) = seq.history.pop_first() {
                            // The retained stream's floor moved: a
                            // resync from below it can no longer be
                            // served prefix-complete, and must say so.
                            seq.evicted = seq.evicted.max(ts);
                            evictions = 1;
                        }
                    }
                }
                let frame = WbMessage::Ordered {
                    group,
                    epoch: seq.epoch,
                    ts: key.0,
                    groups: groups.clone(),
                    value: value.clone(),
                }
                .into_frame();
                let mut local = false;
                for &to in &seq.subscribers {
                    if to == me {
                        local = true;
                    } else {
                        out.push(Action::Send {
                            to,
                            msg: frame.clone(),
                        });
                    }
                }
                (key.0, seq.epoch, groups, value, local, evictions)
            };
            let (ts, epoch, groups, value, local, evictions) = released;
            self.tel.incr("seq.released", 1);
            if evictions > 0 {
                self.tel.incr("seq.history_evictions", evictions);
            }
            // Release confirmation: the value is now in the group's
            // stream and can no longer be lost with this sequencer.
            self.route(
                now,
                value.id.proposer,
                WbMessage::FinalAck {
                    group,
                    id: value.id,
                    ts,
                },
                out,
            );
            if local {
                self.on_ordered(now, group, epoch, ts, groups, value, out);
            }
        }
    }

    /// Lamport receive rule over every sequencer this process hosts:
    /// any timestamp observed from another group drags the local
    /// clocks past it (see [`Sequencer::observe`]).
    fn observe_ts(&mut self, from_group: GroupId, ts: u64) {
        for (&g, seq) in &mut self.led {
            if g != from_group {
                seq.observe(ts);
            }
        }
    }

    /// Subscriber side: buffers and drains in global `(ts, id)` order.
    /// A multi-group value arrives once per subscribed addressed group;
    /// only the copy in the smallest such group enters the delivery
    /// buffer — the others advance their stream's frontier, which is
    /// exactly what the delivery condition waits for.
    #[allow(clippy::too_many_arguments)]
    fn on_ordered(
        &mut self,
        now: Time,
        group: GroupId,
        epoch: u32,
        ts: u64,
        groups: Vec<GroupId>,
        value: Value,
        out: &mut Vec<Action>,
    ) {
        self.note_observed(group, ts);
        self.note_epoch(group, epoch);
        self.observe_ts(group, ts);
        let delivery_group = groups
            .iter()
            .copied()
            .filter(|g| self.subs.contains_key(g))
            .min();
        let duplicate = self.delivered_ids.contains_key(&value.id);
        let Some(sub) = self.subs.get_mut(&group) else {
            return;
        };
        if epoch < sub.epoch {
            // A deposed sequencer's frame arriving after the new
            // stream anchored; its releases were re-run by initiators.
            self.tel.incr("sub.fenced_frames", 1);
            return;
        }
        sub.epoch = epoch;
        let key = (ts, value.id);
        sub.frontier = sub.frontier.max(key);
        // Values at or below the checkpoint floor are already reflected
        // in the restored snapshot: a resync replay (or stale
        // re-release) of them only advances the frontier.
        if delivery_group == Some(group) && !duplicate && ts > sub.floor {
            sub.pending.insert(key, value);
        }
        self.drain(now, out);
    }

    fn on_heartbeat(
        &mut self,
        now: Time,
        group: GroupId,
        epoch: u32,
        ts: u64,
        out: &mut Vec<Action>,
    ) {
        self.note_observed(group, ts);
        self.note_epoch(group, epoch);
        self.observe_ts(group, ts);
        let Some(sub) = self.subs.get_mut(&group) else {
            return;
        };
        if epoch < sub.epoch {
            self.tel.incr("sub.fenced_frames", 1);
            return;
        }
        // Re-anchor: the first heartbeat of a higher epoch adopts the
        // new sequencer's stream (the frontier itself only ever grows).
        sub.epoch = epoch;
        let key = promise_key(ts);
        if key <= sub.frontier {
            return;
        }
        sub.frontier = key;
        self.drain(now, out);
    }

    /// Delivers every buffered value whose `(ts, id)` key can no longer
    /// be preceded: every other subscribed group's frontier must have
    /// reached the key (streams arrive in strictly increasing key order,
    /// so nothing smaller can still arrive from a group at or past it).
    fn drain(&mut self, now: Time, out: &mut Vec<Action>) {
        // While any stream is being resynced, its frontier may stand
        // past keys the replay has not retransmitted yet, so no frontier
        // comparison is conclusive: hold all deliveries until every
        // outstanding replay has terminated.
        if self.subs.values().any(|s| s.resyncing) {
            return;
        }
        loop {
            let mut best: Option<(Key, GroupId)> = None;
            for (&g, s) in &self.subs {
                if let Some((&key, _)) = s.pending.first_key_value() {
                    if best.is_none_or(|b| (key, g) < b) {
                        best = Some((key, g));
                    }
                }
            }
            let Some((key, g)) = best else { break };
            let releasable = self
                .subs
                .iter()
                .all(|(&g2, s2)| g2 == g || s2.frontier >= key);
            if !releasable {
                break;
            }
            let value = self
                .subs
                .get_mut(&g)
                .expect("candidate group is subscribed")
                .pending
                .remove(&key)
                .expect("candidate key is pending");
            if self.delivered_ids.contains_key(&value.id) {
                // A failover re-release of a value this process already
                // delivered (or also holds at its original key): the
                // insert-time check only covers ids delivered *before*
                // the copy arrived, so dedup again at delivery time.
                self.tel.incr("sub.dedup_drops", 1);
                continue;
            }
            self.tel.incr("sub.delivered", 1);
            self.delivered_ids.insert(value.id, key.0);
            if let Some(entry) = self.inflight.get_mut(&value.id) {
                entry.delivered = true;
                let submitted_at = entry.submitted_at;
                // The initiator's submit→deliver time for its own
                // values: the paper's end-to-end multicast latency.
                self.tel
                    .record("round.delivery_latency_us", now.since(submitted_at));
                if entry.released.len() == entry.groups.len() {
                    self.inflight.remove(&value.id);
                }
            }
            out.push(Action::Deliver {
                group: g,
                instance: InstanceId::new(key.0),
                value,
            });
        }
    }

    /// Sequencer side: a subscriber restarted from a checkpoint whose
    /// delivery mark for this group is `from_ts` — replay the retained
    /// released stream above it (in key order; the per-channel FIFO
    /// guarantee then keeps subsequent live releases behind the replay)
    /// and re-anchor the requester's frontier with the current promise.
    fn on_resync(
        &mut self,
        now: Time,
        from: ProcessId,
        group: GroupId,
        from_ts: u64,
        out: &mut Vec<Action>,
    ) {
        let Some(seq) = self.led.get(&group) else {
            // Not this group's sequencer (anymore): the restarted
            // subscriber re-anchors to whatever the current sequencer
            // streams; values only the deposed incarnation held are
            // re-run by their initiators' retries.
            return;
        };
        let mut frames: Vec<Message> = seq
            .history
            .range((
                std::ops::Bound::Excluded(promise_key(from_ts)),
                std::ops::Bound::Unbounded,
            ))
            .map(|(&(ts, _), (value, groups))| {
                WbMessage::Ordered {
                    group,
                    epoch: seq.epoch,
                    ts,
                    groups: groups.clone(),
                    value: value.clone(),
                }
                .into_frame()
            })
            .collect();
        // The replay terminator: releases the requester's delivery hold
        // and republishes the current promise over the same channel, so
        // its frontier is prefix-complete from here on. When the
        // request starts below the retained history's floor (capped
        // eviction, checkpoint pruning past a dead subscriber), the
        // replay is truncated and the terminator says so — the
        // requester must re-anchor past the hole, not claim a complete
        // prefix it never received.
        let gap_to = if from_ts < seq.evicted {
            seq.evicted
        } else {
            0
        };
        frames.push(
            WbMessage::ResyncDone {
                group,
                epoch: seq.epoch,
                ts: seq.promised,
                gap_to,
            }
            .into_frame(),
        );
        self.tel.incr("seq.resync_replays", 1);
        self.tel
            .incr("seq.resync_frames_replayed", frames.len() as u64 - 1);
        self.tel.trace(now, "resync.replay", Some(group), from_ts);
        if from == self.me {
            // A sequencer that also subscribes resyncs against itself
            // (only meaningful when its own state survived, i.e. never
            // after a real crash — then history is empty anyway).
            for frame in frames {
                self.dispatch_message(now, self.me, frame, out);
            }
        } else {
            out.extend(frames.into_iter().map(|msg| Action::Send { to: from, msg }));
        }
    }

    /// Subscriber side: the replay for `group` has fully arrived — the
    /// stream's frontier is prefix-complete again, deliveries may
    /// proceed (once no other stream is still resyncing). A nonzero
    /// `gap_to` means the sequencer could not serve the requested
    /// prefix (its retained history starts above it): rather than
    /// deliver around a silent hole, the stream **re-anchors at the
    /// gap's end** — everything at or below `gap_to` is written off,
    /// buffered stragglers from inside the hole are discarded, and the
    /// truncation is surfaced in [`WbcastNode::resync_truncations`] so
    /// the deployment can fail loudly (e.g. re-seed from a peer
    /// checkpoint) instead of proceeding on a gapped history.
    fn on_resync_done(
        &mut self,
        now: Time,
        group: GroupId,
        epoch: u32,
        ts: u64,
        gap_to: u64,
        out: &mut Vec<Action>,
    ) {
        self.note_observed(group, ts);
        self.note_epoch(group, epoch);
        self.observe_ts(group, ts);
        let Some(sub) = self.subs.get_mut(&group) else {
            return;
        };
        if epoch < sub.epoch {
            // Answered by a deposed sequencer; the CoordinatorChange
            // that deposed it re-issued the resync to its successor.
            return;
        }
        sub.epoch = epoch;
        if gap_to > sub.floor {
            self.tel.incr("sub.resync_truncations", 1);
            self.tel.trace(now, "resync.truncated", Some(group), gap_to);
            sub.floor = gap_to;
            sub.pending.retain(|&(ts, _), _| ts > gap_to);
            // The frontier anchor below (ts.max(sub.floor)) covers the
            // raised floor.
        }
        sub.resyncing = false;
        self.tel.trace(now, "resync.done", Some(group), ts);
        sub.frontier = sub.frontier.max(promise_key(ts.max(sub.floor)));
        self.drain(now, out);
    }

    /// Sequencer side: a subscriber's durable checkpoint covers `group`
    /// up to `ts`. Once every live subscriber has reported, protocol
    /// state below the minimum mark is unreachable — no retry can
    /// resurrect it (initiators stop at `FinalAck`) and no live
    /// subscriber resyncs below its own durable checkpoint — so the
    /// decided-id map and the released history are pruned to the
    /// un-checkpointed window. Subscribers the coordination service
    /// reports crashed are dropped from the minimum (their last mark
    /// would otherwise freeze the floor forever); if one revives, its
    /// below-floor resync is answered with an explicit truncation.
    fn on_ckpt_mark(&mut self, from: ProcessId, group: GroupId, ts: u64) {
        let down = self.down_union();
        let Some(seq) = self.led.get_mut(&group) else {
            return;
        };
        let mark = seq.reported.entry(from).or_insert(0);
        *mark = (*mark).max(ts);
        seq.prune_below_collective_mark(&down);
        self.tel.incr("seq.ckpt_marks", 1);
    }

    fn on_wb_message(&mut self, now: Time, from: ProcessId, msg: WbMessage, out: &mut Vec<Action>) {
        match msg {
            WbMessage::Submit {
                group,
                groups,
                value,
            } => self.on_submit(now, group, groups, value, out),
            WbMessage::ProposeAck { group, id, ts } => {
                self.on_propose_ack(now, group, id, ts, out);
            }
            WbMessage::Final { group, id, ts } => self.on_final(now, group, id, ts, false, out),
            WbMessage::FinalAck { group, id, ts } => self.on_final_ack(now, group, id, ts),
            WbMessage::Ordered {
                group,
                epoch,
                ts,
                groups,
                value,
            } => self.on_ordered(now, group, epoch, ts, groups, value, out),
            WbMessage::Heartbeat { group, epoch, ts } => {
                self.on_heartbeat(now, group, epoch, ts, out);
            }
            WbMessage::Resync { group, from_ts } => self.on_resync(now, from, group, from_ts, out),
            WbMessage::CkptMark { group, ts } => self.on_ckpt_mark(from, group, ts),
            WbMessage::ResyncDone {
                group,
                epoch,
                ts,
                gap_to,
            } => {
                self.on_resync_done(now, group, epoch, ts, gap_to, out);
            }
            WbMessage::OrphanQuery { group, id, attempt } => {
                self.on_orphan_query(now, from, group, id, attempt, out);
            }
            WbMessage::OrphanState {
                group,
                id,
                attempt,
                state,
            } => self.on_orphan_state(now, group, id, attempt, state, out),
            WbMessage::OrphanFinal { group, id, ts } => {
                self.on_final(now, group, id, ts, true, out);
            }
        }
    }

    /// Handles a client request arriving at this proposer, mirroring
    /// the ring engine: the command is framed with its client session
    /// so any subscriber can answer.
    fn on_request(
        &mut self,
        now: Time,
        client: ClientId,
        request: u64,
        groups: &[GroupId],
        payload: Bytes,
        out: &mut Vec<Action>,
    ) {
        let framed = encode_command(client, request, &payload);
        if let Ok((_, actions)) = AmcastEngine::multicast(self, now, groups, framed) {
            out.extend(actions);
        }
        // Not a proposer / unknown group: drop; the client retries
        // against a correct proposer (same policy as the ring engine).
    }

    fn dispatch_message(
        &mut self,
        now: Time,
        from: ProcessId,
        msg: Message,
        out: &mut Vec<Action>,
    ) {
        match msg {
            Message::Engine { engine, payload } if engine == WBCAST_WIRE_ID => {
                if let Some(wb) = WbMessage::parse(payload) {
                    self.on_wb_message(now, from, wb, out);
                }
            }
            Message::Batch(msgs) => {
                for m in msgs {
                    self.dispatch_message(now, from, m, out);
                }
            }
            Message::Request {
                client,
                request,
                groups,
                payload,
            } => self.on_request(now, client, request, &groups, payload, out),
            // Ring traffic, trim/checkpoint protocol and foreign engine
            // frames do not concern this engine.
            _ => {}
        }
    }

    /// Emits fresh heartbeat promises for the led groups of `ring`
    /// (skipping groups still inside their takeover recovery window,
    /// whose windows end lazily here).
    fn emit_heartbeats(&mut self, now: Time, ring: RingId, out: &mut Vec<Action>) {
        let groups: Vec<GroupId> = self
            .led
            .iter()
            .filter(|(_, s)| s.ring == ring)
            .map(|(&g, _)| g)
            .collect();
        let me = self.me;
        for group in groups {
            let (promise, epoch, heartbeat_locally) = {
                let seq = self.led.get_mut(&group).expect("led group");
                if seq.resume_at.is_some_and(|t| now < t) {
                    continue;
                }
                seq.resume_at = None;
                seq.bump_clock(now);
                let promise = seq.safe_promise();
                if promise <= seq.promised {
                    continue;
                }
                seq.promised = promise;
                let frame = WbMessage::Heartbeat {
                    group,
                    epoch: seq.epoch,
                    ts: promise,
                }
                .into_frame();
                let mut heartbeat_locally = false;
                for &to in &seq.subscribers {
                    if to == me {
                        heartbeat_locally = true;
                    } else {
                        out.push(Action::Send {
                            to,
                            msg: frame.clone(),
                        });
                    }
                }
                (promise, seq.epoch, heartbeat_locally)
            };
            if heartbeat_locally {
                self.on_heartbeat(now, group, epoch, promise, out);
            }
        }
    }

    fn heartbeat_tick(&mut self, now: Time, ring: RingId, out: &mut Vec<Action>) {
        let groups: Vec<GroupId> = self
            .led
            .iter()
            .filter(|(_, s)| s.ring == ring)
            .map(|(&g, _)| g)
            .collect();
        if groups.is_empty() {
            // Resigned between arming and firing: let the timer lapse.
            self.delta_armed.remove(&ring);
            return;
        }
        let delta_us = self.led[&groups[0]].delta_us;
        // Release anything a just-ended recovery window was holding
        // before promising past it.
        for &g in &groups {
            self.flush_group(now, g, out);
        }
        // Initiator liveness backstop: proposals whose initiator went
        // silent are recovered, and outstanding recovery rounds that
        // stopped making progress (a decision frame died with a crashed
        // sequencer) are re-driven, before the next promise round (the
        // promise is capped by pending proposals anyway).
        self.scan_orphans(now, ring, out);
        self.reprobe_orphan_rounds(now, delta_us, out);
        self.emit_heartbeats(now, ring, out);
        // Exactly one re-arm per ring, regardless of how many led
        // groups share it: runtimes do not dedupe timers, so one
        // SetTimer per group would multiply live timers every Δ.
        out.push(Action::SetTimer {
            after_us: delta_us.max(1),
            timer: TimerKind::Delta(ring),
        });
    }

    /// Re-runs the unconfirmed parts of in-flight submissions routed to
    /// `ring`: a `Submit` probe to the current sequencer of every
    /// addressed group that has neither confirmed release nor holds a
    /// live proposal. Receiver-side dedup makes probes idempotent.
    fn retry_ring(&mut self, now: Time, ring: RingId, out: &mut Vec<Action>) {
        self.retry_armed.remove(&ring);
        let mut probes: Vec<(GroupId, Vec<GroupId>, Value)> = Vec::new();
        let mut unconfirmed = false;
        for entry in self.inflight.values() {
            for &g in &entry.groups {
                if self.config.ring_of_group(g) != Some(ring) || entry.released.contains(&g) {
                    continue;
                }
                unconfirmed = true;
                // A live proposal needs no probe: the Final settles it,
                // or a CoordinatorChange voids the ack and re-probes.
                if entry.final_ts.is_none() && entry.acks.contains_key(&g) {
                    continue;
                }
                probes.push((g, entry.groups.clone(), entry.value.clone()));
            }
        }
        for (g, groups, value) in probes {
            if let Some(sequencer) = self.sequencer_of(g) {
                self.tel.incr("round.retry_probes", 1);
                self.route(
                    now,
                    sequencer,
                    WbMessage::Submit {
                        group: g,
                        groups,
                        value,
                    },
                    out,
                );
            }
        }
        if unconfirmed && self.retry_armed.insert(ring) {
            out.push(Action::SetTimer {
                after_us: self.retry_interval(ring),
                timer: TimerKind::ProposalResend(ring),
            });
        }
    }

    /// The coordination service designated `coordinator` for `ring`:
    /// sequencer handover. The named process adopts every group of the
    /// ring at a safe resume point; everyone else drops any sequencer
    /// state it held for them, voids acks obtained from the previous
    /// sequencer, and re-runs its interrupted rounds.
    fn on_coordinator_change(
        &mut self,
        now: Time,
        ring: RingId,
        coordinator: ProcessId,
        supersedes: Ballot,
        out: &mut Vec<Action>,
    ) {
        // The election round is the authoritative epoch floor: two
        // successive coordinators that never observed each other's
        // frames would otherwise mint colliding epochs.
        self.note_ring_epoch(ring, supersedes.round());
        let deposed = self
            .coordinators
            .insert(ring, coordinator)
            .filter(|&old| old != coordinator);
        let groups: Vec<GroupId> = self
            .config
            .groups()
            .iter()
            .filter(|&(_, &r)| r == ring)
            .map(|(&g, _)| g)
            .collect();
        if groups.is_empty() {
            return;
        }
        if coordinator == self.me {
            let fresh: Vec<GroupId> = groups
                .iter()
                .copied()
                .filter(|g| !self.led.contains_key(g))
                .collect();
            if !fresh.is_empty() {
                let Some(ringcfg) = self.config.ring(ring) else {
                    return;
                };
                let delta_us = ringcfg.tuning().delta_us;
                let epoch = self.ring_epochs.get(&ring).copied().unwrap_or(0) + 1;
                self.ring_epochs.insert(ring, epoch);
                let resume_at = now.plus((delta_us * TAKEOVER_GRACE_DELTAS).max(1));
                for g in fresh {
                    // Resume past everything the previous sequencer is
                    // known to have exposed, and past the hybrid-clock
                    // floor (which covers unobserved assignments as
                    // long as the election outlasts count-driven skew).
                    let mut seq = Sequencer {
                        ring,
                        delta_us,
                        epoch,
                        next_ts: self.observed.get(&g).copied().unwrap_or(0) + 1,
                        promised: 0,
                        resume_at: Some(resume_at),
                        subscribers: self.config.subscribers_of(g),
                        pending: BTreeMap::new(),
                        outq: BTreeMap::new(),
                        done: BTreeMap::new(),
                        // A fresh sequencer has no released history to
                        // serve: subscribers that crash while this
                        // incarnation leads can only resync values it
                        // released itself (replicating the history
                        // inside the group is future work, with the
                        // per-group counter replication).
                        history: BTreeMap::new(),
                        evicted: 0,
                        reported: BTreeMap::new(),
                    };
                    seq.bump_clock(now);
                    self.led.insert(g, seq);
                    self.tel.incr("seq.takeovers", 1);
                    self.tel
                        .trace(now, "seq.takeover", Some(g), u64::from(epoch));
                }
                if self.delta_armed.insert(ring) {
                    out.push(Action::SetTimer {
                        after_us: delta_us.max(1),
                        timer: TimerKind::Delta(ring),
                    });
                }
            }
        } else {
            for &g in &groups {
                if let Some(seq) = self.led.remove(&g) {
                    // Fold the resigned clock into the observation
                    // record so a later re-takeover resumes above
                    // everything this incarnation assigned or promised.
                    let top = seq.next_ts.saturating_sub(1).max(seq.promised);
                    self.note_observed(g, top);
                    // Undelivered pending/outq state is dropped: the
                    // initiators' retries re-run those rounds against
                    // the new sequencer.
                    self.tel.incr("seq.resignations", 1);
                    self.tel
                        .trace(now, "seq.resign", Some(g), u64::from(seq.epoch));
                }
            }
        }
        // Subscriber side: an unanswered resync addressed to the
        // deposed sequencer would hold deliveries forever — re-issue it
        // to the new one (which answers from whatever history it has,
        // then terminates the hold). Before `resume` there is none to
        // re-issue.
        let resyncs: Vec<(GroupId, u64)> = groups
            .iter()
            .filter_map(|&g| {
                self.subs
                    .get(&g)
                    .filter(|s| s.resyncing && !self.awaiting_resume)
                    .map(|s| (g, s.floor))
            })
            .collect();
        for (g, from_ts) in resyncs {
            self.route(
                now,
                coordinator,
                WbMessage::Resync { group: g, from_ts },
                out,
            );
        }
        // Initiator side: acknowledgements from the deposed sequencer
        // are void. Re-run each affected round against the new one
        // immediately (and keep the retry timer as backstop).
        let mut probes: Vec<(GroupId, Vec<GroupId>, Value)> = Vec::new();
        for entry in self.inflight.values_mut() {
            for &g in &groups {
                if !entry.groups.contains(&g) {
                    continue;
                }
                entry.released.remove(&g);
                if entry.final_ts.is_none() {
                    entry.acks.remove(&g);
                }
                probes.push((g, entry.groups.clone(), entry.value.clone()));
            }
        }
        let any = !probes.is_empty();
        for (g, gamma, value) in probes {
            self.route(
                now,
                coordinator,
                WbMessage::Submit {
                    group: g,
                    groups: gamma,
                    value,
                },
                out,
            );
        }
        if any && self.retry_armed.insert(ring) {
            out.push(Action::SetTimer {
                after_us: self.retry_interval(ring),
                timer: TimerKind::ProposalResend(ring),
            });
        }
        // Orphan recovery fast paths. The election usually means the
        // previous coordinator crashed: rounds it *initiated* are
        // recovered immediately wherever this process holds their
        // proposals. And outstanding recovery rounds that address one
        // of this ring's groups re-run with a fresh attempt, so queries
        // stranded at the deposed sequencer re-route to its successor
        // (the attempt bump fences any late answer the deposed one
        // still sends).
        if let Some(old) = deposed {
            let suspects = BTreeSet::from([old]);
            self.recover_orphans_of(now, &suspects, out);
        }
        let stuck: Vec<ValueId> = self
            .orphans
            .iter()
            .filter(|(_, r)| r.groups.iter().any(|g| groups.contains(g)))
            .map(|(&id, _)| id)
            .collect();
        for id in stuck {
            let round = &self.orphans[&id];
            let (value, gamma) = (round.value.clone(), round.groups.clone());
            self.start_orphan_recovery(now, id, value, gamma, out);
        }
    }

    fn on_start(&mut self, out: &mut Vec<Action>) {
        // One Δ timer per distinct ring this process sequences groups
        // of (several groups may share a ring).
        let mut rings: BTreeMap<RingId, u64> = BTreeMap::new();
        for seq in self.led.values() {
            rings.entry(seq.ring).or_insert(seq.delta_us);
        }
        for (ring, delta_us) in rings {
            self.delta_armed.insert(ring);
            out.push(Action::SetTimer {
                after_us: delta_us.max(1),
                timer: TimerKind::Delta(ring),
            });
        }
    }
}

impl StateMachine for WbcastNode {
    fn on_event(&mut self, now: Time, event: Event) -> Vec<Action> {
        let mut out = Vec::new();
        match event {
            Event::Start => self.on_start(&mut out),
            Event::Message { from, msg } => self.dispatch_message(now, from, msg, &mut out),
            Event::Timer(TimerKind::Delta(ring)) => self.heartbeat_tick(now, ring, &mut out),
            Event::Timer(TimerKind::ProposalResend(ring)) => self.retry_ring(now, ring, &mut out),
            Event::CoordinatorChange {
                ring,
                coordinator,
                supersedes,
            } => self.on_coordinator_change(now, ring, coordinator, supersedes, &mut out),
            Event::MembershipChange { ring, down } => {
                self.on_membership_change(now, ring, down, &mut out);
            }
            // The engine keeps no stable storage; other timers and
            // persistence completions are ring-engine concerns.
            Event::Timer(_) | Event::PersistDone(_) => {}
        }
        out
    }

    fn process_id(&self) -> ProcessId {
        self.me
    }
}

impl AmcastEngine for WbcastNode {
    /// Each payload starts its own round (the sequencers frame every
    /// value individually), so a batch behaves exactly like its values
    /// submitted one after the other.
    fn multicast_batch(
        &mut self,
        now: Time,
        groups: &[GroupId],
        payloads: Vec<Bytes>,
    ) -> Result<(Vec<ValueId>, Vec<Action>), MulticastError> {
        if groups.is_empty() {
            return Err(MulticastError::NoDestination);
        }
        let mut gamma = groups.to_vec();
        gamma.sort_unstable();
        gamma.dedup();
        let mut proposer_somewhere = false;
        let mut rings: BTreeSet<RingId> = BTreeSet::new();
        for &g in &gamma {
            let Some(ring_id) = self.config.ring_of_group(g) else {
                return Err(MulticastError::UnknownGroup(g));
            };
            let ring = self.config.ring(ring_id).expect("validated config");
            proposer_somewhere |= ring.roles_of(self.me).is_proposer();
            rings.insert(ring_id);
        }
        if !proposer_somewhere {
            return Err(MulticastError::NotAProposer(gamma[0]));
        }
        let local = gamma.iter().any(|g| self.subs.contains_key(g));
        let mut ids = Vec::with_capacity(payloads.len());
        let mut out = Vec::new();
        for payload in payloads {
            self.next_seq += 1;
            let id = ValueId::new(self.me, self.next_seq);
            ids.push(id);
            let value = Value::new(id, gamma[0], payload);
            self.tel.incr("round.submitted", 1);
            if gamma.len() > 1 {
                self.tel.incr("round.submitted_multi_group", 1);
            }
            self.inflight.insert(
                id,
                Inflight {
                    groups: gamma.clone(),
                    value: value.clone(),
                    acks: BTreeMap::new(),
                    final_ts: None,
                    released: BTreeSet::new(),
                    local,
                    delivered: false,
                    submitted_at: now,
                },
            );
            for &g in &gamma {
                let sequencer = self.sequencer_of(g).expect("group has a ring");
                self.route(
                    now,
                    sequencer,
                    WbMessage::Submit {
                        group: g,
                        groups: gamma.clone(),
                        value: value.clone(),
                    },
                    &mut out,
                );
            }
            // Retransmission backstop until every addressed group
            // confirms release (a fast path may already have confirmed
            // inline).
            if self.inflight.contains_key(&id) {
                for &ring in &rings {
                    if self.retry_armed.insert(ring) {
                        out.push(Action::SetTimer {
                            after_us: self.retry_interval(ring),
                            timer: TimerKind::ProposalResend(ring),
                        });
                    }
                }
            }
        }
        Ok((ids, out))
    }

    fn engine_name(&self) -> &'static str {
        "wbcast"
    }

    fn state_digest(&self) -> u64 {
        WbcastNode::state_digest(self)
    }

    /// Locally submitted values addressed to at least one subscribed
    /// group that have not yet been delivered locally. Submissions to
    /// entirely foreign groups are tracked (and retried) until every
    /// addressed group confirms release, but are not counted here: no
    /// local delivery ever confirms them.
    fn backlog(&self) -> usize {
        self.inflight
            .values()
            .filter(|e| e.local && !e.delivered)
            .count()
    }

    /// Per subscribed group, the stream's delivery mark — the largest
    /// timestamp whose whole prefix has been delivered locally; the
    /// merge-cursor fields are unused by this engine.
    fn watermark(&self) -> crate::engine::Watermark {
        crate::engine::Watermark {
            marks: self
                .subs
                .iter()
                .map(|(&g, s)| (g, InstanceId::new(s.delivery_mark())))
                .collect(),
            cursor_group: 0,
            cursor_used: 0,
        }
    }

    /// The engine's recovery records: the local [`ValueId`] sequence
    /// floor, plus every delivered id above the watermark with its
    /// delivery timestamp. The dedup records are needed because marks
    /// are plain timestamps while delivery keys are `(ts, id)` — at a
    /// tie on the boundary timestamp, some ids are already executed and
    /// some are not, and only the id set makes the restore exact. The
    /// sequence floor keeps post-restart submissions from minting ids a
    /// previous incarnation already used (which the restored dedup
    /// records would silently swallow).
    fn checkpoint_state(&self) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_u64_le(self.next_seq);
        buf.put_u64_le(self.delivered_ids.len() as u64);
        for (&id, &ts) in &self.delivered_ids {
            put_id(&mut buf, id);
            buf.put_u64_le(ts);
        }
        buf.freeze()
    }

    fn install_checkpoint(&mut self, watermark: &crate::engine::Watermark, state: &Bytes) {
        let mut buf = state.clone();
        if buf.remaining() >= 16 {
            self.next_seq = self.next_seq.max(buf.get_u64_le());
            let n = buf.get_u64_le();
            for _ in 0..n {
                let Some(id) = get_id(&mut buf) else { break };
                if buf.remaining() < 8 {
                    break;
                }
                let ts = buf.get_u64_le();
                self.delivered_ids.insert(id, ts);
            }
        }
        for (&g, sub) in &mut self.subs {
            let floor = sub.floor.max(watermark.mark_of(g).value());
            sub.floor = floor;
            // Nothing at or below the floor will be replayed (resync
            // starts above it), so the frontier can anchor there.
            sub.frontier = sub.frontier.max(promise_key(floor));
            sub.pending.retain(|&(ts, _), _| ts > floor);
        }
    }

    /// Prunes the local dedup records below the durable watermark and
    /// reports the per-group marks to the groups' sequencers
    /// (`CkptMark` frames) so they can prune their decided-id maps and
    /// released-value history in turn.
    fn trim(&mut self, now: Time, watermark: &crate::engine::Watermark) -> Vec<Action> {
        let mut out = Vec::new();
        let mut min_mark = u64::MAX;
        let mut reports: Vec<(GroupId, u64)> = Vec::new();
        for (&g, sub) in &mut self.subs {
            let mark = watermark.mark_of(g).value();
            sub.floor = sub.floor.max(mark);
            min_mark = min_mark.min(mark);
            reports.push((g, mark));
        }
        if min_mark != u64::MAX {
            self.delivered_ids.retain(|_, ts| *ts > min_mark);
        }
        for (g, ts) in reports {
            if let Some(sequencer) = self.sequencer_of(g) {
                self.route(
                    now,
                    sequencer,
                    WbMessage::CkptMark { group: g, ts },
                    &mut out,
                );
            }
        }
        out
    }

    /// Asks each subscribed group's sequencer to replay its released
    /// stream above the restored checkpoint floor. Also floors the local
    /// [`ValueId`] sequence at the restart's wall-clock microsecond so
    /// ids minted by this incarnation cannot collide with submissions
    /// the previous incarnation made *after* its last checkpoint (the
    /// same elapsed-time argument the hybrid clock rests on).
    fn resume(&mut self, now: Time) -> Vec<Action> {
        self.awaiting_resume = false;
        self.next_seq = self.next_seq.max(now.as_micros());
        let mut out = Vec::new();
        let requests: Vec<(GroupId, u64)> = self.subs.iter().map(|(&g, s)| (g, s.floor)).collect();
        for (g, from_ts) in requests {
            if let Some(sequencer) = self.sequencer_of(g) {
                // Hold deliveries until this stream's replay terminates
                // (a self-routed resync clears the flag inline).
                self.subs.get_mut(&g).expect("subscribed group").resyncing = true;
                self.route(
                    now,
                    sequencer,
                    WbMessage::Resync { group: g, from_ts },
                    &mut out,
                );
            }
        }
        out
    }

    /// The registry's counters and histograms, the trace ring, plus
    /// gauges computed from live state: initiator backlog and dedup
    /// footprint, sequencer queue depths and checkpoint prune-floor lag,
    /// subscriber buffer depth and resync holds (see the module docs'
    /// metric table).
    fn telemetry(&self) -> TelemetrySnapshot {
        let mut snap =
            TelemetrySnapshot::from_telemetry(AmcastEngine::engine_name(self), &self.tel);
        snap.gauges
            .insert("backlog".into(), AmcastEngine::backlog(self) as u64);
        snap.gauges
            .insert("inflight".into(), self.inflight.len() as u64);
        snap.gauges
            .insert("dedup_records".into(), self.delivered_ids.len() as u64);
        snap.gauges
            .insert("orphan.rounds_open".into(), self.orphans.len() as u64);
        snap.gauges
            .insert("seq.groups_led".into(), self.led.len() as u64);
        let mut history = 0u64;
        let mut undecided = 0u64;
        let mut outq = 0u64;
        let mut prune_lag = 0u64;
        let mut max_epoch = 0u32;
        for seq in self.led.values() {
            history += seq.history.len() as u64;
            undecided += seq.pending.len() as u64;
            outq += seq.outq.len() as u64;
            if let Some((&(ts, _), _)) = seq.history.last_key_value() {
                prune_lag = prune_lag.max(ts.saturating_sub(seq.evicted));
            }
            max_epoch = max_epoch.max(seq.epoch);
        }
        snap.gauges.insert("seq.history_retained".into(), history);
        snap.gauges.insert("seq.undecided".into(), undecided);
        snap.gauges.insert("seq.outq_depth".into(), outq);
        snap.gauges.insert("seq.prune_floor_lag".into(), prune_lag);
        let mut pending = 0u64;
        let mut resyncing = 0u64;
        for sub in self.subs.values() {
            pending += sub.pending.len() as u64;
            resyncing += u64::from(sub.resyncing);
            max_epoch = max_epoch.max(sub.epoch);
        }
        snap.gauges.insert("sub.pending_depth".into(), pending);
        snap.gauges
            .insert("sub.resyncing_streams".into(), resyncing);
        snap.gauges.insert("max_epoch".into(), u64::from(max_epoch));
        snap
    }

    /// Flags, against `now`:
    ///
    /// * `"stalled_round"` — a locally submitted round unsettled for
    ///   longer than [`STALL_DELTAS`] heartbeat intervals of the slowest
    ///   ring (detail: µs waited);
    /// * `"frozen_prune_floor"` — a led group retaining more than
    ///   [`UNREPORTED_HISTORY_CAP`] released values even though every
    ///   live subscriber has reported a mark, i.e. some reported mark
    ///   stopped advancing (detail: retained entries);
    /// * `"held_deliveries"` — a subscribed stream holding deliveries
    ///   behind an outstanding resync (detail: buffered values).
    fn health(&self, now: Time) -> HealthReport {
        let mut report = HealthReport::healthy(now);
        let delta_us = self
            .config
            .rings()
            .values()
            .map(|r| r.tuning().delta_us)
            .max()
            .unwrap_or(1)
            .max(1);
        let threshold = STALL_DELTAS * delta_us;
        for entry in self.inflight.values() {
            let settled =
                entry.released.len() == entry.groups.len() && (!entry.local || entry.delivered);
            let waited = now.since(entry.submitted_at);
            if !settled && waited > threshold {
                report.issues.push(HealthIssue {
                    code: "stalled_round",
                    group: entry.groups.first().copied(),
                    detail: waited,
                });
            }
        }
        for (&g, seq) in &self.led {
            if seq.history.len() > UNREPORTED_HISTORY_CAP {
                report.issues.push(HealthIssue {
                    code: "frozen_prune_floor",
                    group: Some(g),
                    detail: seq.history.len() as u64,
                });
            }
        }
        for (&g, sub) in &self.subs {
            if sub.resyncing {
                report.issues.push(HealthIssue {
                    code: "held_deliveries",
                    group: Some(g),
                    detail: sub.pending.len() as u64,
                });
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multiring_paxos::config::{single_ring, RingSpec, RingTuning, Roles};
    use std::collections::BTreeMap as Map;

    /// Executes all Send actions at zero latency (in-order), collecting
    /// deliveries per process and counting received engine frames that
    /// reference a value (for genuineness assertions).
    struct Pumped {
        delivered: Map<ProcessId, Vec<(GroupId, u64, ValueId)>>,
        value_frames_at: Map<ProcessId, u64>,
    }

    fn pump(nodes: &mut Map<ProcessId, WbcastNode>, queue: Vec<(ProcessId, Action)>) -> Pumped {
        pump_at(nodes, queue, Time::ZERO, true)
    }

    /// Like [`pump`], but frames to processes missing from `nodes` are
    /// dropped (they crashed) instead of flagging a harness mistake.
    fn pump_lossy(
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
                    if let Message::Engine { payload, .. } = &msg {
                        if frame_references_value(payload.clone()) {
                            *result.value_frames_at.entry(to).or_default() += 1;
                        }
                    }
                    for a in node.on_event(now, Event::Message { from: origin, msg }) {
                        queue.push_back((to, a));
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

    fn spawn(config: &ClusterConfig) -> Map<ProcessId, WbcastNode> {
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
        let err = AmcastEngine::multicast(&mut n, Time::ZERO, &[GroupId::new(7)], Bytes::new())
            .unwrap_err();
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
        assert_eq!(n.delivered(), 1);
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
            let Message::Engine { engine, payload } = msg.clone().into_frame() else {
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
            assert_eq!(frame_references_value(payload.clone()), carries);
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
        assert_eq!(n1.delivered(), 1);
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
        let clock_after = n2.led[&GroupId::new(1)].next_ts;
        let dup = n2.on_event(Time::ZERO, ev(submit));
        assert_eq!(ack_ts(&dup), Some(ts1), "same proposal re-acknowledged");
        assert_eq!(
            n2.led[&GroupId::new(1)].next_ts,
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
        assert_eq!(n1.delivered(), 1);
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
            n1.led[&GroupId::new(0)].epoch,
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
        assert_eq!(n.delivered(), 100);
        assert_eq!(n.dedup_len(), 100, "one dedup record per delivery");
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
        assert!(n.dedup_len() <= 1, "dedup bounded: {}", n.dedup_len());
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
        assert!(n.dedup_len() <= 1);
        let (done, history) = n.sequencer_footprint();
        assert!(done <= 1 && history <= 1);
        assert_eq!(n.delivered(), 200, "trimming never affects delivery");
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
        assert_eq!(nodes[&p1].delivered(), 5);
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
            nodes[&p1].delivered(),
            0,
            "everything before the crash is covered by checkpoint + dedup"
        );
        // New traffic is delivered exactly once and the restarted
        // subscriber's stream position matches the others'.
        for k in 5..8 {
            submit(&mut nodes, k);
        }
        assert_eq!(nodes[&p1].delivered(), 3);
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
        assert_eq!(nodes[&p0].delivered(), 3);
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
        let drive =
            |nodes: &mut Map<ProcessId, WbcastNode>, from: ProcessId, t: Time, ev: Event| {
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
        assert_eq!(nodes[&p1].delivered(), 5);
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
        assert_eq!(nodes[&p0].delivered(), 0);
        // The coordination service announces the actual sequencer: the
        // still-outstanding resync is re-issued to p1, whose history
        // replays exactly the two values released during the downtime.
        drive(&mut nodes, p0, Time::from_secs(2), election);
        assert_eq!(
            nodes[&p0].delivered(),
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
        assert!(seq.next_ts > 41, "clock resumed past the observed key");
        assert_eq!(seq.epoch, 1, "fresh sequencer epoch");
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
                nodes[&ProcessId::new(p)].undecided_len(),
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
                nodes[&ProcessId::new(p)].undecided_len(),
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
        let ts = n2.led[&g1].pending[&id].ts;
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
        assert_eq!(n2.undecided_len(), 1, "still pending — recovery owns it");
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
        assert_eq!(n2.undecided_len(), 0, "recovery decides the fenced round");
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
        assert!(nodes[&p3].delivered() == 0, "group 1 lost the decision");
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
        assert_eq!(nodes[&ProcessId::new(0)].undecided_len(), 1);
        assert_eq!(
            nodes[&ProcessId::new(2)].undecided_len(),
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
            assert_eq!(nodes[&ProcessId::new(p)].undecided_len(), 0);
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
            AmcastEngine::telemetry(&n).gauge("seq.history_retained")
                > UNREPORTED_HISTORY_CAP as u64
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
}
