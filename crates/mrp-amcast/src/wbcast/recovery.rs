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

use super::sequencer::{Proposal, Sequencer};
use super::wire::{OrphanSt, WbMessage};
use super::{WbcastNode, ORPHAN_DELTAS, TAKEOVER_GRACE_DELTAS};
use multiring_paxos::event::{Action, TimerKind};
use multiring_paxos::types::{Ballot, GroupId, ProcessId, RingId, Time, Value, ValueId};
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
#[derive(Debug)]
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

impl WbcastNode {
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
    pub(super) fn scan_orphans(&mut self, now: Time, ring: RingId, out: &mut Vec<Action>) {
        self.kick_orphans(now, out, |r, delta_us, _, p| {
            r == ring && now.since(p.since) >= (delta_us * ORPHAN_DELTAS).max(1)
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
    pub(super) fn reprobe_orphan_rounds(
        &mut self,
        now: Time,
        delta_us: u64,
        out: &mut Vec<Action>,
    ) {
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
    pub(super) fn on_membership_change(
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
    pub(super) fn down_union(&self) -> BTreeSet<ProcessId> {
        self.down.values().flatten().copied().collect()
    }

    /// The coordination service designated `coordinator` for `ring`:
    /// sequencer handover. The named process adopts every group of the
    /// ring at a safe resume point; everyone else drops any sequencer
    /// state it held for them, voids acks obtained from the previous
    /// sequencer, and re-runs its interrupted rounds.
    pub(super) fn on_coordinator_change(
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
}
