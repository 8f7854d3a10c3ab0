//! Two-phase commit with no-wait locking across partitions.
//!
//! Section 3 of the paper argues that storage systems built on atomic
//! commitment let unordered cross-partition transactions invalidate each
//! other: two transactions `T1` (read x, write y) and `T2` (read y,
//! write x) that prepare concurrently both abort, while with atomic
//! multicast both are ordered and commit. This module implements the 2PC
//! side of that comparison; the ablation benchmark runs the same
//! conflicting workload through both.

use bytes::{BufMut, Bytes, BytesMut};
use mrp_sim::actor::{Actor, ActorCtx, ActorEvent, Op, Outbox};
use multiring_paxos::codec::{get_seq, get_u16, get_u64, get_u8, wire_tags, CodecError};
use multiring_paxos::event::{Action, Event, Message};
use multiring_paxos::types::{ClientId, GroupId, ProcessId, Time};
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};

wire_tags! {
    /// What the coordinator asks of a participant.
    enum Ask {
        Prepare = 1,
        Commit = 2,
        Abort = 3,
    }
}

wire_tags! {
    /// The one byte a participant answers with.
    enum Answer {
        VoteYes = 1,
        VoteNo = 2,
        Done = 3,
    }
}

/// Encodes a participant message: tag + transaction id + keys.
fn encode_msg(tag: Ask, txn: u64, keys: &[u64]) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_u8(tag as u8);
    buf.put_u64_le(txn);
    buf.put_u16_le(keys.len() as u16);
    for &k in keys {
        buf.put_u64_le(k);
    }
    buf.freeze()
}

fn decode_msg(mut b: Bytes) -> Option<(Ask, u64, Vec<u64>)> {
    fn read(b: &mut Bytes) -> Result<(Ask, u64, Vec<u64>), CodecError> {
        let (tag, txn) = (Ask::from_u8(get_u8(b)?)?, get_u64(b)?);
        Ok((tag, txn, get_seq(get_u16(b)?.into(), b, get_u64)?))
    }
    read(&mut b).ok()
}

/// A 2PC participant: owns a key partition, locks keys at prepare with
/// a no-wait policy (any conflict votes no).
#[derive(Debug, Default)]
pub struct TxnParticipant {
    locks: BTreeMap<u64, u64>,         // key → owning txn
    prepared: BTreeMap<u64, Vec<u64>>, // txn → locked keys
    commits: u64,
    aborts: u64,
}

impl TxnParticipant {
    /// A participant with no locks held.
    pub fn new() -> Self {
        Self::default()
    }

    /// Transactions committed here.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Prepares voted down here.
    pub fn aborts(&self) -> u64 {
        self.aborts
    }
}

impl Actor for TxnParticipant {
    fn on_event(
        &mut self,
        _now: Time,
        event: ActorEvent,
        out: &mut Outbox,
        _ctx: &mut ActorCtx<'_>,
    ) {
        let ActorEvent::Protocol(Event::Message {
            msg:
                Message::Request {
                    client,
                    request,
                    payload,
                    ..
                },
            ..
        }) = event
        else {
            return;
        };
        let Some((tag, txn, keys)) = decode_msg(payload) else {
            return;
        };
        match tag {
            Ask::Prepare => {
                let conflict = keys
                    .iter()
                    .any(|k| self.locks.get(k).is_some_and(|&owner| owner != txn));
                let vote = if conflict {
                    self.aborts += 1;
                    Answer::VoteNo
                } else {
                    for &k in &keys {
                        self.locks.insert(k, txn);
                    }
                    self.prepared.insert(txn, keys);
                    Answer::VoteYes
                };
                out.push(Op::Protocol(Action::Respond {
                    client,
                    request,
                    payload: Bytes::from(vec![vote as u8]),
                }));
            }
            Ask::Commit | Ask::Abort => {
                if let Some(keys) = self.prepared.remove(&txn) {
                    for k in keys {
                        if self.locks.get(&k) == Some(&txn) {
                            self.locks.remove(&k);
                        }
                    }
                }
                if tag == Ask::Commit {
                    self.commits += 1;
                }
                out.push(Op::Protocol(Action::Respond {
                    client,
                    request,
                    payload: Bytes::from(vec![Answer::Done as u8]),
                }));
            }
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

#[derive(Debug)]
enum TxnPhase {
    Preparing { yes: u32, no: u32 },
    Finishing { acks: u32, committed: bool },
}

#[derive(Debug)]
struct OpenTxn {
    session: u32,
    issued_at: Time,
    participants: Vec<ProcessId>,
    phase: TxnPhase,
}

/// The client-coordinated 2PC driver: sessions issue symmetric
/// cross-partition transactions (`T1`/`T2` of Section 3) and record the
/// commit/abort outcome.
pub struct TwoPcClient {
    client: ClientId,
    sessions: u32,
    /// One owner process per partition.
    partitions: Vec<ProcessId>,
    /// Keys are drawn from this many hot keys per partition: smaller =
    /// more contention.
    hot_keys: u64,
    next_request: u64,
    next_txn: u64,
    open: BTreeMap<u64, u64>, // request → txn
    txns: BTreeMap<u64, OpenTxn>,
    warmup_until: Time,
    metric_prefix: String,
}

impl std::fmt::Debug for TwoPcClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TwoPcClient")
            .field("client", &self.client)
            .finish_non_exhaustive()
    }
}

impl TwoPcClient {
    /// Creates the driver.
    pub fn new(
        client: ClientId,
        sessions: u32,
        partitions: Vec<ProcessId>,
        hot_keys: u64,
        metric_prefix: impl Into<String>,
    ) -> Self {
        Self {
            client,
            sessions,
            partitions,
            hot_keys: hot_keys.max(1),
            next_request: 0,
            next_txn: 0,
            open: BTreeMap::new(),
            txns: BTreeMap::new(),
            warmup_until: Time::ZERO,
            metric_prefix: metric_prefix.into(),
        }
    }

    /// Discards samples before `t`.
    pub fn warmup_until(mut self, t: Time) -> Self {
        self.warmup_until = t;
        self
    }

    fn issue(&mut self, session: u32, now: Time, out: &mut Outbox, rng: &mut mrp_sim::rng::Rng) {
        // A symmetric cross-partition transaction: read a hot key on one
        // partition, write a hot key on another.
        self.next_txn += 1;
        let txn = self.next_txn;
        let a = rng.below(self.partitions.len() as u64) as usize;
        let mut b = rng.below(self.partitions.len() as u64) as usize;
        if self.partitions.len() > 1 && b == a {
            b = (a + 1) % self.partitions.len();
        }
        let parts: BTreeSet<usize> = [a, b].into_iter().collect();
        let participants: Vec<ProcessId> = parts.iter().map(|&i| self.partitions[i]).collect();
        let keys_by_part: Vec<Vec<u64>> = parts
            .iter()
            .map(|_| vec![rng.below(self.hot_keys)])
            .collect();
        self.txns.insert(
            txn,
            OpenTxn {
                session,
                issued_at: now,
                participants: participants.clone(),
                phase: TxnPhase::Preparing { yes: 0, no: 0 },
            },
        );
        for (p, keys) in participants.iter().zip(&keys_by_part) {
            self.next_request += 1;
            self.open.insert(self.next_request, txn);
            out.send(
                *p,
                Message::Request {
                    client: self.client,
                    request: self.next_request,
                    groups: vec![GroupId::new(0)],
                    payload: encode_msg(Ask::Prepare, txn, keys),
                },
            );
        }
    }

    fn finish(&mut self, txn: u64, commit: bool, out: &mut Outbox) {
        let Some(t) = self.txns.get_mut(&txn) else {
            return;
        };
        t.phase = TxnPhase::Finishing {
            acks: 0,
            committed: commit,
        };
        let tag = if commit { Ask::Commit } else { Ask::Abort };
        let participants = t.participants.clone();
        for p in participants {
            self.next_request += 1;
            self.open.insert(self.next_request, txn);
            out.send(
                p,
                Message::Request {
                    client: self.client,
                    request: self.next_request,
                    groups: vec![GroupId::new(0)],
                    payload: encode_msg(tag, txn, &[]),
                },
            );
        }
    }
}

impl Actor for TwoPcClient {
    fn on_event(&mut self, now: Time, event: ActorEvent, out: &mut Outbox, ctx: &mut ActorCtx<'_>) {
        match event {
            ActorEvent::Protocol(Event::Start) => {
                for s in 0..self.sessions {
                    self.issue(s, now, out, ctx.rng);
                }
            }
            ActorEvent::Protocol(Event::Message {
                msg: Message::Response {
                    request, payload, ..
                },
                ..
            }) => {
                let Some(txn) = self.open.remove(&request) else {
                    return;
                };
                let Some(t) = self.txns.get_mut(&txn) else {
                    return;
                };
                let n = t.participants.len() as u32;
                match &mut t.phase {
                    TxnPhase::Preparing { yes, no } => {
                        // Anything but a yes — `Done` and garbage too —
                        // counts against the transaction.
                        match payload.first().map(|&b| Answer::from_u8(b)) {
                            Some(Ok(Answer::VoteYes)) => *yes += 1,
                            _ => *no += 1,
                        }
                        if *yes + *no == n {
                            let commit = *no == 0;
                            self.finish(txn, commit, out);
                        }
                    }
                    TxnPhase::Finishing { acks, committed } => {
                        *acks += 1;
                        if *acks == n {
                            let committed = *committed;
                            let t = self.txns.remove(&txn).expect("open txn");
                            if now >= self.warmup_until {
                                let prefix = &self.metric_prefix;
                                let outcome = if committed { "commit" } else { "abort" };
                                ctx.metrics.incr(&format!("{prefix}/{outcome}"), 1);
                                ctx.metrics.record(
                                    &format!("{prefix}/latency_us"),
                                    now.since(t.issued_at),
                                );
                            }
                            self.issue(t.session, now, out, ctx.rng);
                        }
                    }
                }
            }
            _ => {}
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrp_sim::cluster::{Cluster, SimConfig};
    use mrp_sim::net::Topology;

    fn run(hot_keys: u64, sessions: u32) -> (u64, u64) {
        let mut cluster = Cluster::new(SimConfig::default(), Topology::lan(8));
        let parts: Vec<ProcessId> = (0..2).map(ProcessId::new).collect();
        for &p in &parts {
            cluster.add_actor(p, Box::new(TxnParticipant::new()));
        }
        let client_proc = ProcessId::new(9);
        let client_id = ClientId::new(1);
        cluster.add_actor(
            client_proc,
            Box::new(TwoPcClient::new(
                client_id, sessions, parts, hot_keys, "2pc",
            )),
        );
        cluster.register_client(client_id, client_proc);
        cluster.start();
        cluster.run_until(Time::from_secs(2));
        (
            cluster.metrics().counter("2pc/commit"),
            cluster.metrics().counter("2pc/abort"),
        )
    }

    #[test]
    fn asks_round_trip_and_an_unknown_one_is_refused() {
        for ask in [Ask::Prepare, Ask::Commit, Ask::Abort] {
            let back = decode_msg(encode_msg(ask, 7, &[1, 2]));
            assert_eq!(back, Some((ask, 7, vec![1, 2])));
        }
        assert_eq!(decode_msg(Bytes::from_static(&[4; 11])), None);
    }

    #[test]
    fn low_contention_mostly_commits() {
        let (commits, aborts) = run(10_000, 2);
        assert!(commits > 100);
        assert!(
            aborts * 10 < commits,
            "low contention: {commits} commits vs {aborts} aborts"
        );
    }

    #[test]
    fn high_contention_aborts() {
        let (commits, aborts) = run(1, 16);
        assert!(
            aborts > commits / 5,
            "high contention should abort often: {commits} commits vs {aborts} aborts"
        );
    }
}
