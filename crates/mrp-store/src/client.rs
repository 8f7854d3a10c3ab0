//! The MRP-Store client: closed-loop sessions ("client threads" in the
//! paper), command routing via the partition map, per-partition batching
//! up to 32 KB, scan fan-in (one response per partition), and
//! read-modify-write chaining for YCSB workload F.

use crate::app::StoreApp;
use crate::command::StoreCommand;
use crate::setup::StoreDeployment;
use bytes::Bytes;
use mrp_sim::actor::{Actor, ActorCtx, ActorEvent, Outbox};
use mrp_sim::rng::Rng;
use multiring_paxos::event::{Event, Message};
use multiring_paxos::types::{ClientId, GroupId, ProcessId, Time};
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};

/// One logical operation issued by a session.
#[derive(Clone, Debug)]
pub enum ClientOp {
    /// A single store command, tagged for metrics (`"read"`,
    /// `"update"`, `"scan"`, …).
    Single {
        /// The command.
        cmd: StoreCommand,
        /// Metrics tag.
        tag: &'static str,
    },
    /// YCSB workload F's read-modify-write: read `key`, then update it
    /// with `value`. One operation, recorded under `rmw` with the
    /// composite latency; the update half's latency is also recorded
    /// under `update`.
    ReadModifyWrite {
        /// Key.
        key: Bytes,
        /// New value written after the read.
        value: Bytes,
    },
}

/// Client-side batching configuration (Section 7.2: batches per
/// partition up to 32 KB).
#[derive(Copy, Clone, Debug)]
pub struct ClientBatching {
    /// Flush a partition's batch at this many encoded bytes.
    pub max_bytes: usize,
    /// Flush at the latest after this many microseconds.
    pub linger_us: u64,
}

/// Configuration of a [`StoreClient`].
#[derive(Clone, Debug)]
pub struct StoreClientConfig {
    /// This client's session id space.
    pub client: ClientId,
    /// Number of closed-loop sessions (the paper's "client threads").
    pub sessions: u32,
    /// Optional batching.
    pub batch: Option<ClientBatching>,
    /// Samples before this instant are not recorded (warm-up).
    pub warmup_until: Time,
    /// Metrics name prefix.
    pub metric_prefix: String,
}

impl StoreClientConfig {
    /// A reasonable default configuration for `client` with `sessions`
    /// closed-loop sessions.
    pub fn new(client: ClientId, sessions: u32) -> Self {
        Self {
            client,
            sessions,
            batch: None,
            warmup_until: Time::ZERO,
            metric_prefix: "store".to_string(),
        }
    }
}

#[derive(Clone, Debug)]
enum RmwStage {
    /// The read half completed next; the update must follow.
    AfterRead {
        key: Bytes,
        value: Bytes,
        started: Time,
    },
    /// This is the final (update) half; record the composite latency
    /// from `started`.
    Final { started: Time },
}

#[derive(Debug)]
struct BatchItem {
    session: u32,
    tag: &'static str,
    issued_at: Time,
    rmw: Option<RmwStage>,
}

#[derive(Debug)]
enum Outstanding {
    Op {
        session: u32,
        tag: &'static str,
        issued_at: Time,
        need: usize,
        parts: BTreeSet<u16>,
        rmw: Option<RmwStage>,
    },
    Batch {
        items: Vec<BatchItem>,
    },
}

#[derive(Default, Debug)]
struct PendingBatch {
    cmds: Vec<StoreCommand>,
    items: Vec<BatchItem>,
    bytes: usize,
    linger_armed: bool,
}

/// The closed-loop MRP-Store client actor for the simulator.
pub struct StoreClient {
    cfg: StoreClientConfig,
    deployment: StoreDeployment,
    source: Box<dyn FnMut(&mut Rng) -> ClientOp>,
    next_request: u64,
    outstanding: BTreeMap<u64, Outstanding>,
    batches: BTreeMap<GroupId, PendingBatch>,
}

impl std::fmt::Debug for StoreClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreClient")
            .field("client", &self.cfg.client)
            .field("sessions", &self.cfg.sessions)
            .field("outstanding", &self.outstanding.len())
            .finish_non_exhaustive()
    }
}

impl StoreClient {
    /// Creates a client over `deployment` issuing the operations
    /// `source` draws from the actor's deterministic random stream.
    pub fn new(
        cfg: StoreClientConfig,
        deployment: StoreDeployment,
        source: impl FnMut(&mut Rng) -> ClientOp + 'static,
    ) -> Self {
        Self {
            cfg,
            deployment,
            source: Box::new(source),
            next_request: 0,
            outstanding: BTreeMap::new(),
            batches: BTreeMap::new(),
        }
    }

    fn proposer_for(&self, group: GroupId) -> Option<ProcessId> {
        self.deployment.proposer_of.get(&group).copied()
    }

    fn issue_next(&mut self, session: u32, now: Time, out: &mut Outbox, rng: &mut Rng) {
        let op = (self.source)(rng);
        match op {
            ClientOp::Single { cmd, tag } => self.dispatch(session, cmd, tag, None, now, out),
            ClientOp::ReadModifyWrite { key, value } => {
                let cmd = StoreCommand::Read { key: key.clone() };
                self.dispatch(
                    session,
                    cmd,
                    "rmw_read",
                    Some(RmwStage::AfterRead {
                        key,
                        value,
                        started: now,
                    }),
                    now,
                    out,
                );
            }
        }
    }

    fn dispatch(
        &mut self,
        session: u32,
        cmd: StoreCommand,
        tag: &'static str,
        rmw: Option<RmwStage>,
        now: Time,
        out: &mut Outbox,
    ) {
        let is_scan = matches!(cmd, StoreCommand::Scan { .. });
        if let (Some(batch), false) = (self.cfg.batch, is_scan) {
            let groups = self.deployment.route(&cmd);
            let group = groups[0];
            let entry = self.batches.entry(group).or_default();
            entry.bytes += cmd.encoded_len();
            entry.cmds.push(cmd);
            entry.items.push(BatchItem {
                session,
                tag,
                issued_at: now,
                rmw,
            });
            if entry.bytes >= batch.max_bytes {
                self.flush_batch(group, out);
            } else if !entry.linger_armed {
                entry.linger_armed = true;
                out.wakeup(batch.linger_us, u64::from(group.value()));
            }
            return;
        }
        let groups = self.deployment.route(&cmd);
        let need = self.deployment.responses_needed(&cmd);
        self.next_request += 1;
        let request = self.next_request;
        self.outstanding.insert(
            request,
            Outstanding::Op {
                session,
                tag,
                issued_at: now,
                need,
                parts: BTreeSet::new(),
                rmw,
            },
        );
        let payload = cmd.encode();
        if self.deployment.atomic_multicast(&groups) {
            // One multicast addressed to the whole group set: the
            // engine orders the command consistently across every
            // involved partition (genuinely, or via the global ring
            // `route` collapsed the set to).
            if let Some(proposer) = groups.first().and_then(|&g| self.proposer_for(g)) {
                out.send(
                    proposer,
                    Message::Request {
                        client: self.cfg.client,
                        request,
                        groups,
                        payload,
                    },
                );
            }
        } else {
            // Independent rings without cross-partition ordering
            // (Figure 4's "independent" configuration): one unordered
            // request per covering partition.
            for g in groups {
                if let Some(proposer) = self.proposer_for(g) {
                    out.send(
                        proposer,
                        Message::Request {
                            client: self.cfg.client,
                            request,
                            groups: vec![g],
                            payload: payload.clone(),
                        },
                    );
                }
            }
        }
    }

    fn flush_batch(&mut self, group: GroupId, out: &mut Outbox) {
        let Some(mut batch) = self.batches.remove(&group) else {
            return;
        };
        if batch.cmds.is_empty() {
            return;
        }
        batch.linger_armed = false;
        self.next_request += 1;
        let request = self.next_request;
        let cmd = if batch.cmds.len() == 1 {
            batch.cmds.pop().expect("len checked")
        } else {
            StoreCommand::Batch(std::mem::take(&mut batch.cmds))
        };
        let single = batch.items.len() == 1;
        if single {
            let item = batch.items.pop().expect("len checked");
            self.outstanding.insert(
                request,
                Outstanding::Op {
                    session: item.session,
                    tag: item.tag,
                    issued_at: item.issued_at,
                    need: 1,
                    parts: BTreeSet::new(),
                    rmw: item.rmw,
                },
            );
        } else {
            self.outstanding
                .insert(request, Outstanding::Batch { items: batch.items });
        }
        if let Some(proposer) = self.proposer_for(group) {
            out.send(
                proposer,
                Message::Request {
                    client: self.cfg.client,
                    request,
                    groups: vec![group],
                    payload: cmd.encode(),
                },
            );
        }
    }

    fn record(
        &self,
        tag: &'static str,
        issued_at: Time,
        now: Time,
        metrics: &mut mrp_sim::metrics::Metrics,
    ) {
        if now < self.cfg.warmup_until {
            return;
        }
        let latency = now.since(issued_at);
        let prefix = &self.cfg.metric_prefix;
        metrics.record(&format!("{prefix}/latency_us"), latency);
        metrics.record(&format!("{prefix}/latency_us/{tag}"), latency);
        metrics.incr(&format!("{prefix}/ops"), 1);
        metrics.series_add(&format!("{prefix}/ops"), now, 1.0);
    }

    /// Completes one logical item; returns the follow-up dispatch if it
    /// was the read half of a read-modify-write.
    #[allow(clippy::too_many_arguments)]
    fn complete_item(
        &mut self,
        session: u32,
        tag: &'static str,
        issued_at: Time,
        rmw: Option<RmwStage>,
        now: Time,
        out: &mut Outbox,
        ctx: &mut ActorCtx<'_>,
    ) {
        match rmw {
            Some(RmwStage::AfterRead {
                key,
                value,
                started,
            }) => {
                // Read half done: chain the update, which completes the
                // operation.
                self.dispatch(
                    session,
                    StoreCommand::Update { key, value },
                    "update",
                    Some(RmwStage::Final { started }),
                    now,
                    out,
                );
            }
            Some(RmwStage::Final { started }) => {
                // The update half is a latency class of its own, not a
                // second operation.
                if now >= self.cfg.warmup_until {
                    let prefix = &self.cfg.metric_prefix;
                    let latency = now.since(issued_at);
                    ctx.metrics
                        .record(&format!("{prefix}/latency_us/{tag}"), latency);
                }
                self.record("rmw", started, now, ctx.metrics);
                self.issue_next(session, now, out, ctx.rng);
            }
            None => {
                self.record(tag, issued_at, now, ctx.metrics);
                self.issue_next(session, now, out, ctx.rng);
            }
        }
    }

    fn on_response(
        &mut self,
        request: u64,
        payload: &Bytes,
        now: Time,
        out: &mut Outbox,
        ctx: &mut ActorCtx<'_>,
    ) {
        let Some((partition, _response)) = StoreApp::unframe_response(payload) else {
            return;
        };
        let Some(outstanding) = self.outstanding.get_mut(&request) else {
            return; // duplicate replica response
        };
        match outstanding {
            Outstanding::Op { need, parts, .. } => {
                parts.insert(partition);
                if parts.len() < *need {
                    return;
                }
                let Some(Outstanding::Op {
                    session,
                    tag,
                    issued_at,
                    rmw,
                    ..
                }) = self.outstanding.remove(&request)
                else {
                    unreachable!("matched above");
                };
                self.complete_item(session, tag, issued_at, rmw, now, out, ctx);
            }
            Outstanding::Batch { .. } => {
                let Some(Outstanding::Batch { items }) = self.outstanding.remove(&request) else {
                    unreachable!("matched above");
                };
                for item in items {
                    self.complete_item(
                        item.session,
                        item.tag,
                        item.issued_at,
                        item.rmw,
                        now,
                        out,
                        ctx,
                    );
                }
            }
        }
    }
}

impl Actor for StoreClient {
    fn on_event(&mut self, now: Time, event: ActorEvent, out: &mut Outbox, ctx: &mut ActorCtx<'_>) {
        match event {
            ActorEvent::Protocol(Event::Start) => {
                for session in 0..self.cfg.sessions {
                    self.issue_next(session, now, out, ctx.rng);
                }
            }
            ActorEvent::Protocol(Event::Message {
                msg: Message::Response {
                    request, payload, ..
                },
                ..
            }) => {
                self.on_response(request, &payload, now, out, ctx);
            }
            ActorEvent::Wakeup(token) => {
                let group = GroupId::new(token as u16);
                if let Some(b) = self.batches.get_mut(&group) {
                    b.linger_armed = false;
                }
                self.flush_batch(group, out);
            }
            _ => {}
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}
