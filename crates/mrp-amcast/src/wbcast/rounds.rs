//! The initiator's side of a round: a locally submitted value is
//! tracked ([`Inflight`]) from `Submit` through the cross-group
//! timestamp agreement (`ProposeAck` → `Final`) until every addressed
//! group confirms release (`FinalAck`), with Δ-paced `Submit` probes
//! toward the groups that have not.
//!
//! ## Metrics recorded here
//!
//! | counter | counts |
//! |---|---|
//! | `round.submitted` | values submitted locally |
//! | `round.submitted_multi_group` | those addressed to more than one group |
//! | `round.decided` | multi-group rounds whose final timestamp this initiator computed |
//! | `round.released` | rounds confirmed released by every addressed group |
//! | `round.retry_probes` | `Submit` probes retransmitted on the retry timer |
//!
//! | histogram (µs since local submission) | recorded when |
//! |---|---|
//! | `round.decide_latency_us` | the last `ProposeAck` completes the collection |
//! | `round.release_latency_us` | the last `FinalAck` arrives |
//! | `round.delivery_latency_us` | the value is delivered locally (recorded by `frontier`'s drain) |
//!
//! All three measure *initiator-local* time: a round handled entirely
//! inline — submitted at the group's sequencer, which also subscribes —
//! starts and ends in one activation at one `now` and records a true 0.

use super::wire::WbMessage;
use super::{WbcastNode, RETRY_DELTAS};
use bytes::Bytes;
use multiring_paxos::event::{Action, TimerKind};
use multiring_paxos::node::MulticastError;
use multiring_paxos::types::{GroupId, Time, Value, ValueId};
use std::collections::{BTreeMap, BTreeSet};

/// The state an initiator keeps per locally submitted value until every
/// addressed group has confirmed its release (and, when a subscribed
/// group is addressed, until local delivery): the retry machinery's
/// unit of work.
#[derive(Hash, Debug)]
pub(super) struct Inflight {
    /// The addressed group set γ, sorted and deduplicated.
    pub(super) groups: Vec<GroupId>,
    /// The submitted value, kept for retransmission.
    pub(super) value: Value,
    /// Timestamp proposals collected so far (multi-group round).
    pub(super) acks: BTreeMap<GroupId, u64>,
    /// The decided final timestamp. Immutable once set: post-failover
    /// re-proposals are answered by re-issuing this decision.
    pub(super) final_ts: Option<u64>,
    /// Groups that confirmed release (`FinalAck`). A `CoordinatorChange`
    /// voids the confirmation of that ring's group.
    pub(super) released: BTreeSet<GroupId>,
    /// Whether γ contains a locally subscribed group (the value then
    /// counts toward `backlog()` until delivered locally).
    pub(super) local: bool,
    /// Whether the value was delivered locally.
    pub(super) delivered: bool,
    /// When the value was submitted locally (round-latency attribution
    /// and the stall probe).
    pub(super) submitted_at: Time,
}

impl WbcastNode {
    /// Each payload starts its own round (the sequencers frame every
    /// value individually), so a batch behaves exactly like its values
    /// submitted one after the other.
    pub(super) fn multicast_batch(
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
        for &g in &gamma {
            let Some(ring) = self.config.ring(g) else {
                return Err(MulticastError::UnknownGroup(g));
            };
            proposer_somewhere |= ring.roles_of(self.me).is_proposer();
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
            for &group in &gamma {
                let submit = WbMessage::Submit {
                    group,
                    groups: gamma.clone(),
                    value: value.clone(),
                };
                self.route_to_sequencer(now, group, submit, &mut out);
            }
            // Retransmission backstop until every addressed group
            // confirms release (a fast path may already have confirmed
            // inline).
            if self.inflight.contains_key(&id) {
                for &group in &gamma {
                    self.arm_retry(group, &mut out);
                }
            }
        }
        Ok((ids, out))
    }

    /// Initiator side: collects one timestamp proposal per addressed
    /// group; once complete, the maximum becomes the final timestamp and
    /// is sent to every addressed sequencer. Once decided, the final
    /// timestamp is immutable: a later ack (a re-proposal by a
    /// post-failover sequencer) is answered by re-issuing the decision.
    pub(super) fn on_propose_ack(
        &mut self,
        now: Time,
        group: GroupId,
        id: ValueId,
        ts: u64,
        out: &mut Vec<Action>,
    ) {
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
        for group in groups {
            self.route_to_sequencer(now, group, WbMessage::Final { group, id, ts: fts }, out);
        }
    }

    /// Initiator side: `group`'s sequencer released the value into its
    /// stream; stop retransmitting toward it. Once every addressed
    /// group has confirmed (and the value was delivered locally, when a
    /// subscribed group is addressed), the tracking entry retires.
    pub(super) fn on_final_ack(&mut self, now: Time, group: GroupId, id: ValueId, ts: u64) {
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

    /// The retry timer of `group` fired: re-run the unconfirmed parts
    /// of the in-flight submissions addressed to it.
    pub(super) fn retry_group(&mut self, now: Time, group: GroupId, out: &mut Vec<Action>) {
        self.retry_armed.remove(&group);
        let probes = self.probe_group(now, group, out);
        if probes > 0 {
            self.tel.incr("round.retry_probes", probes);
        }
    }

    /// Sends a `Submit` probe to the current sequencer of `group` for
    /// every in-flight submission that addresses it and has neither
    /// confirmed release there nor holds a live proposal, and keeps the
    /// group's retry timer armed while anything is unconfirmed.
    /// Receiver-side dedup makes probes idempotent. Returns the number
    /// of probes sent.
    pub(super) fn probe_group(&mut self, now: Time, group: GroupId, out: &mut Vec<Action>) -> u64 {
        let mut probes: Vec<WbMessage> = Vec::new();
        let mut unconfirmed = false;
        for entry in self.inflight.values() {
            if !entry.groups.contains(&group) || entry.released.contains(&group) {
                continue;
            }
            unconfirmed = true;
            // A live proposal needs no probe: the Final settles it, or a
            // CoordinatorChange voids the ack and re-probes.
            if entry.final_ts.is_none() && entry.acks.contains_key(&group) {
                continue;
            }
            probes.push(WbMessage::Submit {
                group,
                groups: entry.groups.clone(),
                value: entry.value.clone(),
            });
        }
        let sent = probes.len() as u64;
        for submit in probes {
            self.route_to_sequencer(now, group, submit, out);
        }
        if unconfirmed {
            self.arm_retry(group, out);
        }
        sent
    }

    /// Arms `group`'s retry timer unless one is already live.
    fn arm_retry(&mut self, group: GroupId, out: &mut Vec<Action>) {
        if self.retry_armed.insert(group) {
            let delta = self
                .config
                .ring(group)
                .map_or(1_000, |r| r.tuning().delta_us);
            out.push(Action::SetTimer {
                after_us: (delta * RETRY_DELTAS).max(1),
                timer: TimerKind::ProposalResend(group),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{pump_lossy, spawn};
    use crate::engine::AmcastEngine;
    use bytes::Bytes;
    use multiring_paxos::config::{single_ring, RingTuning};
    use multiring_paxos::event::Action;
    use multiring_paxos::types::{GroupId, ProcessId, Time};

    /// `BENCH_fig9.json` reads `round.release_latency_us` and
    /// `round.delivery_latency_us` p50 = p99 = max = 0 for this engine at
    /// one group. That is a true zero, not a clock defect: `fig9` sends
    /// every request to the group's sequencer, which also subscribes, so
    /// the whole round — submit, order, release confirmation, local
    /// delivery — is handled inline in one activation at one `now`, and
    /// the histograms measure initiator-local time. The same deployment
    /// measured from a proposer that is not the sequencer records the
    /// network's share.
    #[test]
    fn round_latency_is_zero_only_when_submitted_at_the_sequencer() {
        // fig9's one-group cell: one ring of three, everyone subscribes,
        // p0 sequences.
        let mut nodes = spawn(&single_ring(3, RingTuning::default()));
        let submitted = Time::from_micros(1_000);
        let arrives = submitted.plus(250);
        let mut submit_at = |p: ProcessId| {
            let node = nodes.get_mut(&p).unwrap();
            let (_, actions) = node
                .multicast(submitted, &[GroupId::new(0)], Bytes::from_static(b"v"))
                .unwrap();
            let queue: Vec<(ProcessId, Action)> = actions.into_iter().map(|a| (p, a)).collect();
            // Every frame the round needs lands 250 µs after submission.
            pump_lossy(&mut nodes, queue, arrives);
            let histograms = nodes[&p].telemetry().histograms;
            ["round.release_latency_us", "round.delivery_latency_us"]
                .map(|name| (histograms[name].count(), histograms[name].max()))
        };
        assert_eq!(submit_at(ProcessId::new(0)), [(1, 0), (1, 0)]);
        assert_eq!(submit_at(ProcessId::new(1)), [(1, 250), (1, 250)]);
    }
}
