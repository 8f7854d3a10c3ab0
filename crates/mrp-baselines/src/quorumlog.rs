//! A quorum-replicated log with aggressive batching (Bookkeeper-like
//! baseline of Figure 5).
//!
//! Clients write each entry to an ensemble of bookies and wait for an
//! acknowledgement quorum. Every bookie appends entries to a journal it
//! flushes *in large batches* — the strategy the paper identifies as the
//! source of Bookkeeper's high latency ("its aggressive batching
//! mechanism, which attempts to maximize disk use by writing in large
//! chunks").

use bytes::{Bytes, BytesMut};
use mrp_sim::actor::{Actor, ActorCtx, ActorEvent, Op, Outbox};
use mrp_sim::client::Operation;
use mrp_sim::rng::Rng;
use multiring_paxos::codec::{get_bytes, put_bytes};
use multiring_paxos::event::{Action, Event, Message};
use multiring_paxos::types::{ClientId, GroupId, ProcessId, Time};
use std::any::Any;
use std::collections::BTreeMap;

/// Batching policy of a bookie's journal.
#[derive(Copy, Clone, Debug)]
pub struct JournalPolicy {
    /// Flush when this many bytes have accumulated.
    pub flush_bytes: usize,
    /// Flush at the latest after this many microseconds.
    pub flush_interval_us: u64,
    /// Disk index used for journal writes.
    pub disk: usize,
}

impl Default for JournalPolicy {
    fn default() -> Self {
        Self {
            flush_bytes: 64 * 1024,
            flush_interval_us: 10_000,
            disk: 0,
        }
    }
}

const FLUSH_TIMER: u64 = 1;

/// One bookie: journals entries and acknowledges them once the batch
/// containing them is durable.
#[derive(Debug)]
pub struct Bookie {
    policy: JournalPolicy,
    /// Entries awaiting the next flush: `(client, request)`.
    buffered: Vec<(ClientId, u64)>,
    buffered_bytes: usize,
    /// Entries inside the flush currently on disk, keyed by token.
    in_flight: BTreeMap<u64, Vec<(ClientId, u64)>>,
    next_token: u64,
    timer_armed: bool,
    entries: u64,
}

impl Bookie {
    /// A bookie with the given journal policy.
    pub fn new(policy: JournalPolicy) -> Self {
        Self {
            policy,
            buffered: Vec::new(),
            buffered_bytes: 0,
            in_flight: BTreeMap::new(),
            next_token: 100, // distinct from FLUSH_TIMER wakeups
            timer_armed: false,
            entries: 0,
        }
    }

    /// Entries journaled so far.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    fn flush(&mut self, out: &mut Outbox) {
        if self.buffered.is_empty() {
            return;
        }
        self.next_token += 1;
        let token = self.next_token;
        let batch = std::mem::take(&mut self.buffered);
        let bytes = std::mem::take(&mut self.buffered_bytes);
        self.in_flight.insert(token, batch);
        out.push(Op::DiskWrite {
            disk: self.policy.disk,
            bytes,
            sync: true,
            token,
        });
    }
}

impl Actor for Bookie {
    fn on_event(
        &mut self,
        _now: Time,
        event: ActorEvent,
        out: &mut Outbox,
        _ctx: &mut ActorCtx<'_>,
    ) {
        match event {
            ActorEvent::Protocol(Event::Message {
                msg:
                    Message::Request {
                        client,
                        request,
                        payload,
                        ..
                    },
                ..
            }) => {
                self.entries += 1;
                self.buffered.push((client, request));
                self.buffered_bytes += payload.len();
                if self.buffered_bytes >= self.policy.flush_bytes {
                    self.flush(out);
                } else if !self.timer_armed {
                    self.timer_armed = true;
                    out.wakeup(self.policy.flush_interval_us, FLUSH_TIMER);
                }
            }
            ActorEvent::Wakeup(FLUSH_TIMER) => {
                self.timer_armed = false;
                self.flush(out);
            }
            ActorEvent::DiskDone(token) => {
                if let Some(batch) = self.in_flight.remove(&token) {
                    for (client, request) in batch {
                        out.push(Op::Protocol(Action::Respond {
                            client,
                            request,
                            payload: Bytes::new(),
                        }));
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

/// Encodes an append entry for the wire (entry id + payload).
pub fn encode_entry(data: &Bytes) -> Bytes {
    let mut buf = BytesMut::with_capacity(4 + data.len());
    put_bytes(&mut buf, data);
    buf.freeze()
}

/// Decodes an append entry.
pub fn decode_entry(mut b: Bytes) -> Option<Bytes> {
    get_bytes(&mut b).ok()
}

/// The Bookkeeper-style workload, for `mrp_sim::ClosedLoopClient::new`:
/// every `entry_bytes` entry is written to the whole `ensemble` and
/// completes on `ack_quorum` acknowledgements.
pub fn quorum_appends(
    ensemble: Vec<ProcessId>,
    ack_quorum: usize,
    entry_bytes: usize,
) -> impl FnMut(&mut Rng) -> Operation {
    let payload = encode_entry(&Bytes::from(vec![0xB0u8; entry_bytes]));
    move |_| Operation {
        to: ensemble
            .iter()
            .map(|&b| (b, vec![GroupId::new(0)]))
            .collect(),
        payload: payload.clone(),
        need: ack_quorum,
        tag: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrp_sim::client::ClosedLoopClient;
    use mrp_sim::cluster::{Cluster, SimConfig};
    use mrp_sim::disk::DiskModel;
    use mrp_sim::net::Topology;

    #[test]
    fn quorum_appends_complete_after_batched_flush() {
        let mut cluster = Cluster::new(SimConfig::default(), Topology::lan(8));
        let ensemble: Vec<ProcessId> = (0..3).map(ProcessId::new).collect();
        for &b in &ensemble {
            cluster.add_actor(b, Box::new(Bookie::new(JournalPolicy::default())));
            cluster.add_disk(b, DiskModel::hdd());
        }
        let client_proc = ProcessId::new(9);
        let client_id = ClientId::new(1);
        let workload = quorum_appends(ensemble.clone(), 2, 1024);
        let client = ClosedLoopClient::new(client_id, 4, "bookkeeper", workload);
        cluster.add_client(client_proc, client_id, Box::new(client));
        cluster.start();
        cluster.run_until(Time::from_secs(2));
        let ops = cluster.metrics().counter("bookkeeper/ops");
        assert!(ops > 20, "quorum appends progressed: {ops}");
        // Latency is dominated by the flush interval (10 ms policy).
        let h = cluster
            .metrics()
            .histogram("bookkeeper/latency_us")
            .unwrap();
        assert!(
            h.quantile(0.5) >= 5_000,
            "batched flushes should dominate latency, p50={}",
            h.quantile(0.5)
        );
    }

    #[test]
    fn entry_codec_roundtrip() {
        let e = encode_entry(&Bytes::from_static(b"data"));
        assert_eq!(decode_entry(e).unwrap(), Bytes::from_static(b"data"));
        assert!(decode_entry(Bytes::from_static(&[1, 0])).is_none());
    }
}
