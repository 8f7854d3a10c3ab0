//! Shared pieces of the figure harnesses: the dummy service, the
//! protocol-level workloads of [`ClosedLoopClient`](mrp_sim::ClosedLoopClient),
//! the open-loop client, and run-scale selection.

use bytes::Bytes;
use mrp_sim::actor::{Actor, ActorCtx, ActorEvent, Outbox};
use mrp_sim::client::Operation;
use mrp_sim::rng::Rng;
use multiring_paxos::app::{decode_command, Application, Delivery, Reply};
use multiring_paxos::event::{Event, Message};
use multiring_paxos::types::{ClientId, GroupId, ProcessId, Time};
use std::any::Any;
use std::collections::BTreeMap;

/// Run scale: the full figure parameters or a fast smoke version (same
/// code path) used by the test suite.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Paper-like parameters (tens of simulated seconds).
    Full,
    /// Seconds-scale smoke parameters for CI.
    Smoke,
}

impl Scale {
    /// Reads `MRP_BENCH_SCALE` (`smoke` selects the fast version).
    pub fn from_env() -> Scale {
        match std::env::var("MRP_BENCH_SCALE").as_deref() {
            Ok("smoke") => Scale::Smoke,
            _ => Scale::Full,
        }
    }

    /// The file a bench writes its rows to: `BENCH_<name>.json` at smoke
    /// scale — the scale of the committed copies CI regenerates and
    /// diffs — and `BENCH_<name>_full.json` otherwise, so that a
    /// full-scale run never rewrites a committed file.
    pub fn artifact(self, name: &str) -> String {
        format!("BENCH_{name}{}.json", self.pick("_full", ""))
    }

    /// Picks `full` or `smoke` accordingly.
    pub fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }
}

/// The "dummy service" of Section 8.3.1: commands execute no operation;
/// the reply is empty. Used to measure the bare atomic-multicast stack.
#[derive(Default, Debug)]
pub struct EchoApp {
    executed: u64,
    bytes: u64,
}

impl EchoApp {
    /// A fresh dummy service.
    pub fn new() -> Self {
        Self::default()
    }

    /// Commands executed.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Payload bytes executed.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Application for EchoApp {
    fn execute(&mut self, delivery: &Delivery) -> Vec<Reply> {
        let Some((client, request, cmd)) = decode_command(delivery.value.payload.clone()) else {
            return Vec::new();
        };
        self.executed += 1;
        self.bytes += cmd.len() as u64;
        vec![Reply {
            client,
            request,
            payload: Bytes::new(),
        }]
    }

    fn snapshot(&self) -> Bytes {
        Bytes::copy_from_slice(&self.executed.to_le_bytes())
    }

    fn restore(&mut self, snapshot: &Bytes) {
        if snapshot.len() >= 8 {
            let mut b = [0u8; 8];
            b.copy_from_slice(&snapshot[..8]);
            self.executed = u64::from_le_bytes(b);
        }
    }
}

/// The paper's proposer threads: the same `payload` to `group` through
/// `target`, every time.
pub fn ping(
    target: ProcessId,
    group: GroupId,
    payload: Bytes,
) -> impl FnMut(&mut Rng) -> Operation {
    move |_| Operation::to_one(target, vec![group], payload.clone())
}

/// A mix of single-group and multi-group requests: with probability
/// `multi_per_mille / 1000` an operation is multicast to *all*
/// configured groups (the cross-partition shape — a scan, a multi-log
/// append) through the first proposer, otherwise to one group
/// round-robin through its own. `targets` holds one (proposer, group)
/// pair per group; latencies are classed `single` and `multi`.
pub fn mixed_groups(
    targets: Vec<(ProcessId, GroupId)>,
    multi_per_mille: u32,
    payload_bytes: usize,
) -> impl FnMut(&mut Rng) -> Operation {
    assert!(!targets.is_empty());
    let payload = Bytes::from(vec![0x6Bu8; payload_bytes]);
    let mut round_robin = 0u64;
    move |rng| {
        if multi_per_mille > 0 && rng.below(1000) < u64::from(multi_per_mille) {
            let groups = targets.iter().map(|&(_, g)| g).collect();
            Operation::to_one(targets[0].0, groups, payload.clone()).tagged("multi")
        } else {
            round_robin += 1;
            let (p, g) = targets[(round_robin % targets.len() as u64) as usize];
            Operation::to_one(p, vec![g], payload.clone()).tagged("single")
        }
    }
}

/// An open-loop client issuing requests at a fixed rate regardless of
/// responses (used by the recovery experiment, which runs the system at
/// 75 % of peak load).
pub struct OpenLoopClient {
    client: ClientId,
    target: ProcessId,
    group: GroupId,
    payload_of: Box<dyn FnMut(u64) -> Bytes>,
    interval_us: u64,
    next_request: u64,
    issued_at: BTreeMap<u64, Time>,
    warmup_until: Time,
    prefix: String,
}

impl std::fmt::Debug for OpenLoopClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpenLoopClient")
            .field("client", &self.client)
            .finish_non_exhaustive()
    }
}

impl OpenLoopClient {
    /// A client issuing one request every `interval_us`, with payloads
    /// produced by `payload_of(request_number)`.
    pub fn new(
        client: ClientId,
        target: ProcessId,
        group: GroupId,
        interval_us: u64,
        prefix: impl Into<String>,
        payload_of: impl FnMut(u64) -> Bytes + 'static,
    ) -> Self {
        Self {
            client,
            target,
            group,
            payload_of: Box::new(payload_of),
            interval_us: interval_us.max(1),
            next_request: 0,
            issued_at: BTreeMap::new(),
            warmup_until: Time::ZERO,
            prefix: prefix.into(),
        }
    }

    /// Discards samples before `t`.
    pub fn warmup_until(mut self, t: Time) -> Self {
        self.warmup_until = t;
        self
    }

    fn tick(&mut self, now: Time, out: &mut Outbox) {
        self.next_request += 1;
        let payload = (self.payload_of)(self.next_request);
        self.issued_at.insert(self.next_request, now);
        // Bound memory if the service stalls (recovery experiments).
        while self.issued_at.len() > 100_000 {
            let Some((&old, _)) = self.issued_at.iter().next() else {
                break;
            };
            self.issued_at.remove(&old);
        }
        out.send(
            self.target,
            Message::Request {
                client: self.client,
                request: self.next_request,
                groups: vec![self.group],
                payload,
            },
        );
        out.wakeup(self.interval_us, 0);
    }
}

impl Actor for OpenLoopClient {
    fn on_event(&mut self, now: Time, event: ActorEvent, out: &mut Outbox, ctx: &mut ActorCtx<'_>) {
        match event {
            ActorEvent::Protocol(Event::Start) | ActorEvent::Wakeup(0) => self.tick(now, out),
            ActorEvent::Protocol(Event::Message {
                msg: Message::Response { request, .. },
                ..
            }) => {
                let Some(issued) = self.issued_at.remove(&request) else {
                    return;
                };
                if now >= self.warmup_until {
                    let prefix = &self.prefix;
                    ctx.metrics
                        .record(&format!("{prefix}/latency_us"), now.since(issued));
                    ctx.metrics.incr(&format!("{prefix}/ops"), 1);
                    ctx.metrics.series_add(&format!("{prefix}/ops"), now, 1.0);
                    ctx.metrics.series_add(
                        &format!("{prefix}/latency_sum_us"),
                        now,
                        now.since(issued) as f64,
                    );
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
    use multiring_paxos::app::encode_command;
    use multiring_paxos::types::{InstanceId, Value, ValueId};

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Full.pick(10, 1), 10);
        assert_eq!(Scale::Smoke.pick(10, 1), 1);
        assert_eq!(Scale::Smoke.artifact("fig3"), "BENCH_fig3.json");
        assert_eq!(Scale::Full.artifact("fig3"), "BENCH_fig3_full.json");
    }

    #[test]
    fn echo_app_counts_and_replies() {
        let mut app = EchoApp::new();
        let d = Delivery {
            group: GroupId::new(0),
            instance: InstanceId::new(1),
            value: Value::new(
                ValueId::new(ProcessId::new(0), 1),
                GroupId::new(0),
                encode_command(ClientId::new(3), 8, b"abcd"),
            ),
        };
        let replies = app.execute(&d);
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].request, 8);
        assert_eq!(app.executed(), 1);
        assert_eq!(app.bytes(), 4);
    }
}
