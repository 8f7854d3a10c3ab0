//! Recovery of rounds whose initiator is gone, and the reactions to
//! what the coordination service reports: membership changes (crashed
//! subscribers and initiators) and coordinator changes (sequencer
//! handover, voided acknowledgements, re-routed resyncs and recovery
//! rounds).
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
//!   (`Event::MembershipChange` down-sets; a `CoordinatorChange`
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
//! ## Metrics recorded here
//!
//! | counter | counts |
//! |---|---|
//! | `orphan.rounds_started` | recovery rounds opened (first attempt) |
//! | `orphan.reprobes` | later attempts: Δ-paced re-probes and coordinator-change re-runs |
//! | `orphan.rounds_completed` | rounds retired because every addressed group confirmed release |
//!
//! Trace events: `orphan.start` and `orphan.confirmed` (detail: the
//! orphaned value's sequence number).

use super::sequencer::Proposal;
use super::wire::{OrphanSt, WbMessage};
use super::{WbcastNode, ORPHAN_DELTAS};
use multiring_paxos::event::Action;
use multiring_paxos::types::{Ballot, GroupId, ProcessId, Time, Value, ValueId};
use std::collections::{BTreeMap, BTreeSet};

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
#[derive(Hash, Debug)]
pub(super) struct OrphanRound {
    /// The addressed group set γ (from the orphaned proposal).
    pub(super) groups: Vec<GroupId>,
    /// The orphaned value, kept for re-submission to groups that never
    /// saw the initiator's `Submit`.
    pub(super) value: Value,
    /// Fences [`WbMessage::OrphanState`] replies: answers from an
    /// earlier attempt (possibly by a since-deposed sequencer) are
    /// discarded, so a recovery re-run after a `CoordinatorChange`
    /// collects a consistent snapshot.
    pub(super) attempt: u32,
    /// States collected in the current attempt, one per addressed
    /// group.
    pub(super) states: BTreeMap<GroupId, OrphanSt>,
    /// The round's final timestamp, once first computed. Immutable: a
    /// later re-probe that has to re-submit the value to an
    /// empty-handed replacement sequencer re-decides at exactly this
    /// timestamp, never at a fresh maximum.
    pub(super) decided: Option<u64>,
    /// When this round last made progress (attempt started, decision
    /// sent): the clock the Δ-paced re-probe runs against.
    pub(super) since: Time,
}

/// How long a proposal or a recovery round may go without progress
/// before it is (re-)recovered, for a ring whose heartbeat interval is
/// `delta_us`.
fn orphan_timeout(delta_us: u64) -> u64 {
    (delta_us * ORPHAN_DELTAS).max(1)
}

/// Processes the coordination service currently reports crashed in
/// *any* ring (per-ring down-sets never overwrite each other's verdicts
/// about a shared member; erring toward "down" only advances a prune
/// floor, and a wrongly-pruned-past subscriber is still answered with an
/// explicit truncation, never a silent gap).
pub(super) fn down_union(down: &BTreeMap<GroupId, BTreeSet<ProcessId>>) -> BTreeSet<ProcessId> {
    down.values().flatten().copied().collect()
}

impl WbcastNode {
    /// Starts an orphan-recovery round for `id` — or, when this process
    /// already runs one, re-runs it.
    fn start_orphan_recovery(
        &mut self,
        now: Time,
        id: ValueId,
        value: Value,
        groups: Vec<GroupId>,
        out: &mut Vec<Action>,
    ) {
        self.orphans.entry(id).or_insert(OrphanRound {
            groups,
            value,
            attempt: 0,
            states: BTreeMap::new(),
            decided: None,
            since: now,
        });
        self.run_orphan_attempt(now, id, out);
    }

    /// A fresh attempt of the recovery round for `id`: bumps the attempt
    /// — fencing any state replies still in flight from a previous one —
    /// and queries the current sequencer of every addressed group.
    fn run_orphan_attempt(&mut self, now: Time, id: ValueId, out: &mut Vec<Action>) {
        let Some(round) = self.orphans.get_mut(&id) else {
            return;
        };
        round.attempt += 1;
        round.states.clear();
        round.since = now;
        let (attempt, groups) = (round.attempt, round.groups.clone());
        if attempt == 1 {
            self.tel.incr("orphan.rounds_started", 1);
            self.tel.trace(now, "orphan.start", None, id.seq);
        } else {
            self.tel.incr("orphan.reprobes", 1);
        }
        for group in groups {
            let query = WbMessage::OrphanQuery { group, id, attempt };
            self.route_to_sequencer(now, group, query, out);
        }
    }

    /// The live initiator's own `Final` for `id` arrived, so it is
    /// driving the round itself (it retries until release-time
    /// `FinalAck`s): a recovery round that has not decided anything yet
    /// stands down. A round recovery already *decided* stays tracked
    /// through release confirmation — the initiator may crash again
    /// before re-driving a group whose sequencer lost the decision, and
    /// only this round's re-probe would re-detect that (the group's
    /// replacement holds no pending proposal for the scan to fire on).
    pub(super) fn stand_down_undecided_recovery(&mut self, id: ValueId) {
        if self.orphans.get(&id).is_some_and(|r| r.decided.is_none()) {
            self.orphans.remove(&id);
        }
    }

    /// Kicks off recovery for every pending proposal of this process's
    /// sequencers that matches `orphaned` (called with the proposal's
    /// group, its ring's Δ, the value id, and the proposal itself).
    /// Matched proposals get their liveness clock reset — a recovery
    /// attempt is progress — before the exchange starts.
    fn kick_orphans(
        &mut self,
        now: Time,
        out: &mut Vec<Action>,
        mut orphaned: impl FnMut(GroupId, u64, ValueId, &Proposal) -> bool,
    ) {
        let mut stale: Vec<(ValueId, Value, Vec<GroupId>)> = Vec::new();
        for (&group, seq) in &mut self.led {
            for (&id, p) in &mut seq.state.pending {
                if orphaned(group, seq.delta_us, id, p) {
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

    /// The Δ-paced backstop: proposals of the led `group` whose
    /// initiator has shown no sign of life for
    /// [`ORPHAN_DELTAS`] × Δ are presumed orphaned and recovered. This
    /// catches what no crash notification can: initiators that are not
    /// ring members anywhere, lost notifications, recovery exchanges
    /// that themselves lost frames, and recoverers that died after
    /// fencing a proposal (the proposal is still pending, so the scan
    /// simply fires again).
    pub(super) fn scan_orphans(&mut self, now: Time, group: GroupId, out: &mut Vec<Action>) {
        self.kick_orphans(now, out, |g, delta_us, _, p| {
            g == group && now.since(p.since) >= orphan_timeout(delta_us)
        });
    }

    /// Sequencer side: a recoverer asks what this process holds for the
    /// orphaned round `id` in `group`. Answer from the authoritative
    /// maps; stay silent when this process does not (or no longer)
    /// sequence the group — the recoverer re-routes on
    /// `CoordinatorChange` and re-fires on its orphan timeout.
    pub(super) fn on_orphan_query(
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
        let state = if let Some((fts, released)) = seq.decided(id) {
            if released {
                OrphanSt::Released(fts)
            } else {
                OrphanSt::Decided(fts)
            }
        } else if let Some(p) = seq.state.pending.get_mut(&id) {
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
    pub(super) fn on_orphan_state(
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
                for group in groups {
                    let submit = WbMessage::Submit {
                        group,
                        groups: gamma.clone(),
                        value: value.clone(),
                    };
                    self.route_to_sequencer(now, group, submit, out);
                    let query = WbMessage::OrphanQuery { group, id, attempt };
                    self.route_to_sequencer(now, group, query, out);
                }
            }
            Next::Decide(ts, groups) => {
                for group in groups {
                    self.route_to_sequencer(
                        now,
                        group,
                        WbMessage::OrphanFinal { group, id, ts },
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
    pub(super) fn reprobe_orphan_rounds(
        &mut self,
        now: Time,
        delta_us: u64,
        out: &mut Vec<Action>,
    ) {
        let stale: Vec<ValueId> = self
            .orphans
            .iter()
            .filter(|(_, r)| now.since(r.since) >= orphan_timeout(delta_us))
            .map(|(&id, _)| id)
            .collect();
        for id in stale {
            self.run_orphan_attempt(now, id, out);
        }
    }

    /// The coordination service reported the current down-set of
    /// `ring`'s members. Two consumers: the checkpoint prune floor
    /// drops crashed subscribers (a permanent death no longer freezes
    /// sequencer `history`/`done` growth), and pending multi-group
    /// proposals whose initiator is among the dead are recovered
    /// immediately instead of waiting out the orphan timeout.
    pub(super) fn on_membership_change(
        &mut self,
        now: Time,
        ring: GroupId,
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
        let down_now = down_union(&self.down);
        for seq in self.led.values_mut() {
            seq.prune_below_collective_mark(&down_now);
        }
        self.recover_orphans_of(now, &down_set, out);
    }

    /// The coordination service designated `coordinator` for `group`'s
    /// ring: sequencer handover. The named process adopts the group at
    /// a safe resume point; everyone else drops any sequencer state it
    /// held for it, voids acks obtained from the previous sequencer, and
    /// re-runs its interrupted rounds.
    pub(super) fn on_coordinator_change(
        &mut self,
        now: Time,
        group: GroupId,
        coordinator: ProcessId,
        supersedes: Ballot,
        out: &mut Vec<Action>,
    ) {
        // The election round is the authoritative epoch floor: two
        // successive coordinators that never observed each other's
        // frames would otherwise mint colliding epochs.
        self.note_epoch(group, supersedes.round());
        let deposed = self
            .coordinators
            .insert(group, coordinator)
            .filter(|&old| old != coordinator);
        if self.config.ring(group).is_none() {
            return;
        }
        if coordinator == self.me {
            self.take_over(now, group, out);
        } else {
            self.resign(now, group);
        }
        // Subscriber side: an unanswered resync addressed to the
        // deposed sequencer would hold deliveries forever — re-issue it
        // to the new one (which answers from whatever history it has,
        // then terminates the hold). Before `resume` there is none to
        // re-issue.
        let resync = self
            .subs
            .get(&group)
            .filter(|s| s.resyncing && !self.awaiting_resume)
            .map(|s| s.floor);
        if let Some(from_ts) = resync {
            self.route(now, coordinator, WbMessage::Resync { group, from_ts }, out);
        }
        // Initiator side: acknowledgements from the deposed sequencer
        // are void. Re-run each affected round against the new one
        // immediately (and keep the retry timer as backstop).
        for entry in self.inflight.values_mut() {
            if entry.groups.contains(&group) {
                entry.released.remove(&group);
                if entry.final_ts.is_none() {
                    entry.acks.remove(&group);
                }
            }
        }
        self.probe_group(now, group, out);
        // Orphan recovery fast paths. The election usually means the
        // previous coordinator crashed: rounds it *initiated* are
        // recovered immediately wherever this process holds their
        // proposals. And outstanding recovery rounds that address the
        // group re-run with a fresh attempt, so queries
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
            .filter(|(_, r)| r.groups.contains(&group))
            .map(|(&id, _)| id)
            .collect();
        for id in stuck {
            self.run_orphan_attempt(now, id, out);
        }
    }
}
