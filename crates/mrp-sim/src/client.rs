//! The closed-loop client of the evaluation: `sessions` loops that each
//! keep one [`Operation`] outstanding and issue the next the moment the
//! current one completes (the paper's client threads). [`Burst`], the
//! open-ended client tests and examples use, is at the end.
//!
//! What is common to every such workload lives here — request numbers,
//! the pending map, completion after `need` replies, the duplicate-reply
//! drop, the warm-up gate, the optional abandon-and-reissue timer and
//! the metric records. A workload is only its *source*: a closure from
//! the actor's [`Rng`] to the next [`Operation`], called once per issue
//! (so a seeded run draws exactly what the workload draws).
//!
//! Records, under the client's metric prefix: `latency_us` (histogram),
//! `latency_us/<tag>` for a tagged operation, `ops` (counter and
//! series) and `bytes` (payload bytes completed).

use crate::actor::{Actor, ActorCtx, ActorEvent, Outbox};
use crate::rng::Rng;
use bytes::Bytes;
use multiring_paxos::event::{Event, Message};
use multiring_paxos::types::{ClientId, GroupId, ProcessId, Time};
use std::any::Any;
use std::collections::BTreeMap;

/// The wakeup token of the retry sweep.
const RETRY_TIMER: u64 = 0;

/// One operation for a session to issue.
#[derive(Clone, Debug)]
pub struct Operation {
    /// One `Message::Request` per entry: the process it is sent to and
    /// the groups γ it addresses.
    pub to: Vec<(ProcessId, Vec<GroupId>)>,
    /// The payload every one of those requests carries.
    pub payload: Bytes,
    /// Replies that complete the operation (1: the first replica to
    /// answer; an acknowledgement quorum; every partition of a scan).
    pub need: usize,
    /// The operation's class: its latency is also recorded under
    /// `latency_us/<tag>`.
    pub tag: Option<&'static str>,
}

impl Operation {
    /// `payload` multicast to `groups` through `proposer`, complete on
    /// the first reply.
    pub fn to_one(proposer: ProcessId, groups: Vec<GroupId>, payload: Bytes) -> Self {
        Self {
            to: vec![(proposer, groups)],
            payload,
            need: 1,
            tag: None,
        }
    }

    /// The same operation, classed as `tag`.
    pub fn tagged(mut self, tag: &'static str) -> Self {
        self.tag = Some(tag);
        self
    }
}

struct Pending {
    session: u32,
    issued_at: Time,
    missing: usize,
    tag: Option<&'static str>,
    bytes: u64,
}

/// The closed-loop client actor (see the module docs).
pub struct ClosedLoopClient {
    client: ClientId,
    sessions: u32,
    source: Box<dyn FnMut(&mut Rng) -> Operation>,
    prefix: String,
    warmup_until: Time,
    /// When nonzero, a session whose operation has been unanswered this
    /// long abandons it and issues a fresh one — the at-least-once
    /// client behavior churn experiments need (a request sent to a
    /// crashed replica would otherwise kill its closed loop forever).
    retry_us: u64,
    next_request: u64,
    pending: BTreeMap<u64, Pending>,
}

impl std::fmt::Debug for ClosedLoopClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClosedLoopClient")
            .field("client", &self.client)
            .field("prefix", &self.prefix)
            .finish_non_exhaustive()
    }
}

impl ClosedLoopClient {
    /// `sessions` closed loops over `source`, speaking as `client` and
    /// recording under `prefix`.
    pub fn new(
        client: ClientId,
        sessions: u32,
        prefix: impl Into<String>,
        source: impl FnMut(&mut Rng) -> Operation + 'static,
    ) -> Self {
        Self {
            client,
            sessions,
            source: Box::new(source),
            prefix: prefix.into(),
            warmup_until: Time::ZERO,
            retry_us: 0,
            next_request: 0,
            pending: BTreeMap::new(),
        }
    }

    /// Discards samples before `t`.
    pub fn warmup_until(mut self, t: Time) -> Self {
        self.warmup_until = t;
        self
    }

    /// Enables session retries: an operation unanswered for `retry_us`
    /// is abandoned and the session issues a fresh one (at-least-once —
    /// the abandoned command may still execute). Required for churn
    /// runs where the target replica crashes with requests in flight.
    pub fn with_retry(mut self, retry_us: u64) -> Self {
        self.retry_us = retry_us;
        self
    }

    fn issue(&mut self, session: u32, now: Time, out: &mut Outbox, rng: &mut Rng) {
        let op = (self.source)(rng);
        self.next_request += 1;
        self.pending.insert(
            self.next_request,
            Pending {
                session,
                issued_at: now,
                missing: op.need,
                tag: op.tag,
                bytes: op.payload.len() as u64,
            },
        );
        for (to, groups) in op.to {
            out.send(
                to,
                Message::Request {
                    client: self.client,
                    request: self.next_request,
                    groups,
                    payload: op.payload.clone(),
                },
            );
        }
    }
}

impl Actor for ClosedLoopClient {
    fn on_event(&mut self, now: Time, event: ActorEvent, out: &mut Outbox, ctx: &mut ActorCtx<'_>) {
        match event {
            ActorEvent::Protocol(Event::Start) => {
                for s in 0..self.sessions {
                    self.issue(s, now, out, ctx.rng);
                }
                if self.retry_us > 0 {
                    out.wakeup(self.retry_us, RETRY_TIMER);
                }
            }
            ActorEvent::Wakeup(RETRY_TIMER) if self.retry_us > 0 => {
                let stale: Vec<u64> = self
                    .pending
                    .iter()
                    .filter(|(_, p)| now.since(p.issued_at) >= self.retry_us)
                    .map(|(&request, _)| request)
                    .collect();
                for request in stale {
                    let p = self.pending.remove(&request).expect("stale entry");
                    self.issue(p.session, now, out, ctx.rng);
                }
                out.wakeup(self.retry_us, RETRY_TIMER);
            }
            ActorEvent::Protocol(Event::Message {
                msg: Message::Response { request, .. },
                ..
            }) => {
                // A reply to a completed (or abandoned) operation — the
                // other replicas', the rest of an ensemble — finds no
                // entry and is dropped.
                let Some(p) = self.pending.get_mut(&request) else {
                    return;
                };
                p.missing = p.missing.saturating_sub(1);
                if p.missing > 0 {
                    return;
                }
                let p = self.pending.remove(&request).expect("present");
                if now >= self.warmup_until {
                    let prefix = &self.prefix;
                    let latency = now.since(p.issued_at);
                    ctx.metrics.record(&format!("{prefix}/latency_us"), latency);
                    if let Some(tag) = p.tag {
                        ctx.metrics
                            .record(&format!("{prefix}/latency_us/{tag}"), latency);
                    }
                    ctx.metrics.incr(&format!("{prefix}/ops"), 1);
                    ctx.metrics.incr(&format!("{prefix}/bytes"), p.bytes);
                    ctx.metrics.series_add(&format!("{prefix}/ops"), now, 1.0);
                }
                self.issue(p.session, now, out, ctx.rng);
            }
            _ => {}
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// The open-ended client of tests and examples: at start it sends `n`
/// requests, numbered `0..n`, to `target`, each addressed to `groups`
/// and carrying `payload`, and it ignores every reply.
#[derive(Debug)]
pub struct Burst {
    client: ClientId,
    target: ProcessId,
    groups: Vec<GroupId>,
    n: u64,
    payload: Bytes,
}

impl Burst {
    /// `n` requests of session `client` through `target` to `groups`.
    pub fn new(
        client: ClientId,
        target: ProcessId,
        groups: Vec<GroupId>,
        n: u64,
        payload: Bytes,
    ) -> Self {
        Self {
            client,
            target,
            groups,
            n,
            payload,
        }
    }
}

impl Actor for Burst {
    fn on_event(&mut self, _now: Time, event: ActorEvent, out: &mut Outbox, _: &mut ActorCtx<'_>) {
        if event == ActorEvent::Protocol(Event::Start) {
            for request in 0..self.n {
                let msg = Message::Request {
                    client: self.client,
                    request,
                    groups: self.groups.clone(),
                    payload: self.payload.clone(),
                };
                out.send(self.target, msg);
            }
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::Op;
    use crate::cluster::{Cluster, SimConfig};
    use crate::net::Topology;
    use multiring_paxos::event::Action;

    /// Answers every request `copies` times, `delay_us` after it came.
    struct Echo {
        copies: usize,
        delay_us: u64,
        held: Vec<(ClientId, u64)>,
    }

    impl Actor for Echo {
        fn on_event(&mut self, _: Time, event: ActorEvent, out: &mut Outbox, _: &mut ActorCtx<'_>) {
            match event {
                ActorEvent::Protocol(Event::Message {
                    msg:
                        Message::Request {
                            client, request, ..
                        },
                    ..
                }) => {
                    self.held.push((client, request));
                    out.wakeup(self.delay_us, 7);
                }
                ActorEvent::Wakeup(7) => {
                    let (client, request) = self.held.remove(0);
                    for _ in 0..self.copies {
                        out.push(Op::Protocol(Action::Respond {
                            client,
                            request,
                            payload: Bytes::new(),
                        }));
                    }
                }
                _ => {}
            }
        }

        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn run(servers: u32, copies: usize, delay_us: u64, client: ClosedLoopClient) -> Cluster {
        let mut cluster = Cluster::new(SimConfig::default(), Topology::lan(8));
        for p in 0..servers {
            let echo = Echo {
                copies,
                delay_us,
                held: Vec::new(),
            };
            cluster.add_actor(ProcessId::new(p), Box::new(echo));
        }
        cluster.add_client(ProcessId::new(9), ClientId::new(1), Box::new(client));
        cluster.start();
        cluster.run_until(Time::from_millis(100));
        cluster
    }

    fn to_all(servers: u32, need: usize) -> impl FnMut(&mut Rng) -> Operation {
        move |_| Operation {
            to: (0..servers)
                .map(|p| (ProcessId::new(p), vec![GroupId::new(0)]))
                .collect(),
            payload: Bytes::from_static(b"abcd"),
            need,
            tag: Some("all"),
        }
    }

    #[test]
    fn an_operation_completes_once_on_its_needth_reply_and_later_ones_are_dropped() {
        // Three servers answering twice each: six replies an operation,
        // two needed. Every completion issues exactly one successor, so
        // the two sessions never become more.
        let client = ClosedLoopClient::new(ClientId::new(1), 2, "t", to_all(3, 2));
        let mut cluster = run(3, 2, 1_000, client);
        let ops = cluster.metrics().counter("t/ops");
        assert!(ops > 50, "{ops}");
        assert_eq!(cluster.metrics().counter("t/bytes"), ops * 4);
        let all = cluster.metrics().histogram("t/latency_us/all").unwrap();
        assert_eq!(all.count(), ops);
        assert_eq!(
            cluster.metrics().histogram("t/latency_us").unwrap().count(),
            ops
        );
        let c = cluster
            .actor_as::<ClosedLoopClient>(ProcessId::new(9))
            .unwrap();
        assert_eq!(c.pending.len(), 2, "one outstanding operation a session");
        assert_eq!(c.next_request, ops + 2);
    }

    #[test]
    fn samples_before_the_warm_up_instant_are_not_recorded() {
        let client = ClosedLoopClient::new(ClientId::new(1), 1, "t", to_all(1, 1))
            .warmup_until(Time::from_millis(50));
        let mut cluster = run(1, 1, 1_000, client);
        let ops = cluster.metrics().counter("t/ops");
        let c = cluster
            .actor_as::<ClosedLoopClient>(ProcessId::new(9))
            .unwrap();
        assert!(ops > 10 && ops < c.next_request * 6 / 10, "{ops}");
    }

    #[test]
    fn an_unanswered_operation_is_abandoned_and_its_session_reissues() {
        // Nobody answers within the 100 ms run: without retries the
        // one session issues once; with them, once more at each of the
        // ten sweeps.
        let silent = ClosedLoopClient::new(ClientId::new(1), 1, "t", to_all(1, 1));
        let mut cluster = run(1, 1, 10_000_000, silent);
        let c = cluster
            .actor_as::<ClosedLoopClient>(ProcessId::new(9))
            .unwrap();
        assert_eq!((c.next_request, c.pending.len()), (1, 1));

        let retrying =
            ClosedLoopClient::new(ClientId::new(1), 1, "t", to_all(1, 1)).with_retry(10_000);
        let mut cluster = run(1, 1, 10_000_000, retrying);
        let c = cluster
            .actor_as::<ClosedLoopClient>(ProcessId::new(9))
            .unwrap();
        assert_eq!((c.next_request, c.pending.len()), (11, 1));
        assert_eq!(cluster.metrics().counter("t/ops"), 0);
    }
}
