//! Bench-owned tracing around the crates' public entry points.
//!
//! This PR may not edit the crates, so every span is recorded from
//! outside: [`Traced`] wraps the state machine handed to
//! `TcpRuntime::spawn` (it timestamps every `on_event` and classifies
//! the returned actions), [`TracedApp`] wraps the application inside the
//! replica (it times `execute`), and the load generator records the
//! client side. Everything lives in memory until the run ends. With the
//! hub switched off a wrapper costs one relaxed atomic load and the
//! per-pair frame counters that keep send↔receive matching aligned.

use bytes::Bytes;
use multiring_paxos::app::{Application, Delivery, Reply};
use multiring_paxos::codec;
use multiring_paxos::event::{Action, Event, Message, PersistRecord, PersistToken, StateMachine};
use multiring_paxos::types::{ProcessId, Time};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Frames and persist records kept per node for the isolated ledger
/// rows.
const CAPTURE_CAP: usize = 512;

/// One timed interval: the unit spans are built from.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Interval {
    /// Start, ns since the hub's epoch.
    pub start: u64,
    /// End, ns since the hub's epoch.
    pub end: u64,
}

impl Interval {
    /// Length in ns.
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A span's self time: its duration minus the part of it its child
/// spans cover. Children are clipped to the parent and overlapping
/// children are counted once.
pub fn self_time(parent: Interval, children: &[Interval]) -> u64 {
    let mut clipped: Vec<Interval> = children
        .iter()
        .map(|c| Interval {
            start: c.start.max(parent.start),
            end: c.end.min(parent.end),
        })
        .filter(|c| c.end > c.start)
        .collect();
    clipped.sort_by_key(|c| c.start);
    let mut covered = 0;
    let mut cursor = parent.start;
    for c in clipped {
        let start = c.start.max(cursor);
        if c.end > start {
            covered += c.end - start;
            cursor = c.end;
        }
    }
    parent.len() - covered
}

/// Joins the n-th frame sent A→B with the n-th frame B received from A
/// (TCP is FIFO per pair) and returns each matched frame's transit time
/// in ns. Both lists carry `(sequence number, timestamp)` in ascending
/// sequence order; a frame recorded on one side only (tracing was
/// switched while it was in flight) is skipped.
pub fn match_fifo(sent: &[(u64, u64)], received: &[(u64, u64)]) -> Vec<u64> {
    let mut out = Vec::with_capacity(sent.len().min(received.len()));
    let (mut i, mut j) = (0, 0);
    while i < sent.len() && j < received.len() {
        match sent[i].0.cmp(&received[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(received[j].1.saturating_sub(sent[i].1));
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// What one server recorded while the hub was on.
#[derive(Default, Debug)]
pub struct NodeTrace {
    /// Activations (`on_event` calls) of any kind.
    pub activations: u64,
    /// Activations caused by a timer.
    pub timer_activations: u64,
    /// Activations that returned no action.
    pub empty_activations: u64,
    /// Actions returned, over all activations.
    pub actions: u64,
    /// Activation self time (duration minus `execute` inside it), ns.
    pub busy_ns: u64,
    /// Durations of message activations, ns.
    pub on_msg_ns: Vec<u32>,
    /// Durations of timer activations, ns.
    pub on_timer_ns: Vec<u32>,
    /// `(request, t)`: `on_event(Request)` entered here.
    pub request_entered: Vec<(u64, u64)>,
    /// `(request, t)`: an activation returned `Action::Respond`.
    pub respond_returned: Vec<(u64, u64)>,
    /// `(request, start, duration)`: `Application::execute`.
    pub executes: Vec<(u64, u64, u32)>,
    /// `execute` calls inside the activation now running: the child
    /// spans its self time excludes.
    exec_in_activation: Vec<Interval>,
    /// Per destination: `(sequence, t)` of every `Action::Send`.
    pub sent: HashMap<u32, Vec<(u64, u64)>>,
    /// Per source: `(sequence, t)` of every peer frame entering.
    pub received: HashMap<u32, Vec<(u64, u64)>>,
    /// Frames put on the wire (sends and responses).
    pub frames: u64,
    /// Their encoded size, length prefix included.
    pub frame_bytes: u64,
    /// `Action::Persist` returned.
    pub persists: u64,
    /// Of those, with `sync` set.
    pub sync_persists: u64,
    /// Encoded size of the persisted records.
    pub persist_bytes: u64,
    /// Persists in flight: token → time returned.
    persist_pending: HashMap<PersistToken, u64>,
    /// `Action::Persist` returned → `Event::PersistDone` entered, ns.
    pub persist_wait_ns: Vec<u32>,
    /// The first frames sent, for the isolated ledger rows.
    pub captured_frames: Vec<Message>,
    /// The first records persisted, for the isolated ledger rows.
    pub captured_records: Vec<PersistRecord>,
}

/// Shared by every wrapper of one cluster: the on/off switch, the common
/// clock and one [`NodeTrace`] per server.
#[derive(Debug)]
pub struct TraceHub {
    epoch: Instant,
    on: AtomicBool,
    nodes: Vec<Mutex<NodeTrace>>,
}

impl TraceHub {
    /// A hub for `servers` processes (ids `0..servers`), switched off.
    pub fn new(servers: usize) -> Arc<Self> {
        Arc::new(Self {
            epoch: Instant::now(),
            on: AtomicBool::new(false),
            nodes: (0..servers).map(|_| Mutex::default()).collect(),
        })
    }

    /// Nanoseconds since the hub was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Switches recording on or off. The flag publishes no data, only
    /// whether to record, so relaxed ordering is enough.
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Whether wrappers are recording.
    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Number of servers traced.
    pub fn servers(&self) -> usize {
        self.nodes.len()
    }

    /// Server `index`'s trace.
    pub fn node(&self, index: usize) -> MutexGuard<'_, NodeTrace> {
        self.nodes[index]
            .lock()
            .expect("a tracing wrapper panicked while holding its node trace")
    }
}

fn ns32(ns: u64) -> u32 {
    u32::try_from(ns).unwrap_or(u32::MAX)
}

/// The `(client, request)` id embedded at the front of a delivered
/// command frame (`multiring_paxos::app::encode_command`); the bench
/// runs one client session, so the request number identifies it.
fn request_of(payload: &Bytes) -> Option<u64> {
    let bytes = payload.as_slice().get(8..16)?;
    Some(u64::from_le_bytes(bytes.try_into().ok()?))
}

/// A [`StateMachine`] wrapper that records every activation.
#[derive(Debug)]
pub struct Traced<S> {
    inner: S,
    hub: Arc<TraceHub>,
    me: usize,
    /// Frames sent to each server so far (counted even while off).
    send_seq: Vec<u64>,
    /// Frames received from each server so far (counted even while off).
    recv_seq: Vec<u64>,
}

impl<S: StateMachine> Traced<S> {
    /// Wraps `inner`, recording into `hub`.
    pub fn new(inner: S, hub: Arc<TraceHub>) -> Self {
        let me = inner.process_id().value() as usize;
        let servers = hub.servers();
        Self {
            inner,
            hub,
            me,
            send_seq: vec![0; servers],
            recv_seq: vec![0; servers],
        }
    }

    /// The wrapped state machine.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

enum Cause {
    Request(u64),
    PeerFrame { from: u32, seq: u64 },
    OtherMessage,
    Timer,
    PersistDone(PersistToken),
    Other,
}

impl<S: StateMachine> StateMachine for Traced<S> {
    fn on_event(&mut self, now: Time, event: Event) -> Vec<Action> {
        let cause = match &event {
            Event::Message {
                msg: Message::Request { request, .. },
                ..
            } => Cause::Request(*request),
            Event::Message { from, .. } => match self.recv_seq.get_mut(from.value() as usize) {
                Some(seq) => {
                    *seq += 1;
                    Cause::PeerFrame {
                        from: from.value(),
                        seq: *seq,
                    }
                }
                None => Cause::OtherMessage,
            },
            Event::Timer(_) => Cause::Timer,
            Event::PersistDone(token) => Cause::PersistDone(*token),
            _ => Cause::Other,
        };
        if !self.hub.is_on() {
            let actions = self.inner.on_event(now, event);
            for action in &actions {
                if let Action::Send { to, .. } = action {
                    if let Some(seq) = self.send_seq.get_mut(to.value() as usize) {
                        *seq += 1;
                    }
                }
            }
            return actions;
        }

        let start = self.hub.now_ns();
        let actions = self.inner.on_event(now, event);
        let end = self.hub.now_ns();
        let duration = end - start;

        let mut t = self.hub.node(self.me);
        t.activations += 1;
        t.actions += actions.len() as u64;
        if actions.is_empty() {
            t.empty_activations += 1;
        }
        let children = std::mem::take(&mut t.exec_in_activation);
        t.busy_ns += self_time(Interval { start, end }, &children);
        match cause {
            Cause::Request(request) => {
                t.request_entered.push((request, start));
                t.on_msg_ns.push(ns32(duration));
            }
            Cause::PeerFrame { from, seq } => {
                t.received.entry(from).or_default().push((seq, start));
                t.on_msg_ns.push(ns32(duration));
            }
            Cause::OtherMessage => t.on_msg_ns.push(ns32(duration)),
            Cause::Timer => {
                t.timer_activations += 1;
                t.on_timer_ns.push(ns32(duration));
            }
            Cause::PersistDone(token) => {
                if let Some(returned) = t.persist_pending.remove(&token) {
                    t.persist_wait_ns.push(ns32(start.saturating_sub(returned)));
                }
            }
            Cause::Other => {}
        }
        for action in &actions {
            match action {
                Action::Send { to, msg } => {
                    t.frames += 1;
                    t.frame_bytes += codec::encoded_len(msg) as u64 + 4;
                    if let Some(seq) = self.send_seq.get_mut(to.value() as usize) {
                        *seq += 1;
                        t.sent.entry(to.value()).or_default().push((*seq, end));
                    }
                    if t.captured_frames.len() < CAPTURE_CAP {
                        t.captured_frames.push(msg.clone());
                    }
                }
                Action::Respond {
                    client,
                    request,
                    payload,
                } => {
                    t.respond_returned.push((*request, end));
                    let frame = Message::Response {
                        client: *client,
                        request: *request,
                        payload: payload.clone(),
                    };
                    t.frames += 1;
                    t.frame_bytes += codec::encoded_len(&frame) as u64 + 4;
                    if t.captured_frames.len() < CAPTURE_CAP {
                        t.captured_frames.push(frame);
                    }
                }
                Action::Persist {
                    record,
                    sync,
                    token,
                } => {
                    t.persists += 1;
                    t.sync_persists += u64::from(*sync);
                    t.persist_bytes += codec::record_len(record) as u64;
                    t.persist_pending.insert(*token, end);
                    if t.captured_records.len() < CAPTURE_CAP {
                        t.captured_records.push(record.clone());
                    }
                }
                _ => {}
            }
        }
        actions
    }

    fn process_id(&self) -> ProcessId {
        self.inner.process_id()
    }
}

/// An [`Application`] wrapper that times `execute`.
#[derive(Debug)]
pub struct TracedApp<A> {
    inner: A,
    hub: Arc<TraceHub>,
    me: usize,
}

impl<A: Application> TracedApp<A> {
    /// Wraps `inner`, hosted by server `me`, recording into `hub`.
    pub fn new(inner: A, hub: Arc<TraceHub>, me: ProcessId) -> Self {
        Self {
            inner,
            hub,
            me: me.value() as usize,
        }
    }
}

impl<A: Application> Application for TracedApp<A> {
    fn execute(&mut self, delivery: &Delivery) -> Vec<Reply> {
        if !self.hub.is_on() {
            return self.inner.execute(delivery);
        }
        let start = self.hub.now_ns();
        let replies = self.inner.execute(delivery);
        let end = self.hub.now_ns();
        let mut t = self.hub.node(self.me);
        t.exec_in_activation.push(Interval { start, end });
        if let Some(request) = request_of(&delivery.value.payload) {
            t.executes.push((request, start, ns32(end - start)));
        }
        replies
    }

    fn snapshot(&self) -> Bytes {
        self.inner.snapshot()
    }

    fn restore(&mut self, snapshot: &Bytes) {
        self.inner.restore(snapshot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multiring_paxos::app::encode_command;
    use multiring_paxos::types::{ClientId, GroupId, InstanceId, Value, ValueId};

    fn iv(start: u64, end: u64) -> Interval {
        Interval { start, end }
    }

    #[test]
    fn self_time_is_parent_minus_children() {
        let parent = iv(100, 200);
        assert_eq!(self_time(parent, &[]), 100);
        assert_eq!(self_time(parent, &[iv(110, 130), iv(150, 160)]), 70);
        // Overlapping children count once; children are clipped to the
        // parent; a child outside it counts for nothing.
        assert_eq!(self_time(parent, &[iv(110, 140), iv(130, 150)]), 60);
        assert_eq!(self_time(parent, &[iv(50, 120), iv(190, 400)]), 70);
        assert_eq!(self_time(parent, &[iv(300, 400)]), 100);
        assert_eq!(self_time(parent, &[iv(0, 1000)]), 0);
    }

    #[test]
    fn fifo_matching_joins_by_sequence_and_skips_one_sided_frames() {
        let sent = [(1, 10), (2, 20), (3, 30), (5, 50)];
        let received = [(2, 26), (3, 31), (4, 45), (5, 58)];
        assert_eq!(match_fifo(&sent, &received), vec![6, 1, 8]);
        assert!(match_fifo(&sent, &[]).is_empty());
    }

    /// A state machine that answers a request with one send, one persist
    /// and one response, and echoes nothing else.
    struct Script;

    impl StateMachine for Script {
        fn on_event(&mut self, _now: Time, event: Event) -> Vec<Action> {
            match event {
                Event::Message {
                    msg:
                        Message::Request {
                            client,
                            request,
                            payload,
                            ..
                        },
                    ..
                } => vec![
                    Action::Send {
                        to: ProcessId::new(1),
                        msg: Message::CheckpointQuery { seq: request },
                    },
                    Action::Persist {
                        record: PersistRecord::Decision {
                            ring: multiring_paxos::types::RingId::new(0),
                            first: InstanceId::new(1),
                            count: 1,
                        },
                        sync: true,
                        token: PersistToken(request),
                    },
                    Action::Respond {
                        client,
                        request,
                        payload,
                    },
                ],
                _ => Vec::new(),
            }
        }

        fn process_id(&self) -> ProcessId {
            ProcessId::new(0)
        }
    }

    fn request(n: u64) -> Event {
        Event::Message {
            from: ProcessId::new(50),
            msg: Message::Request {
                client: ClientId::new(1),
                request: n,
                groups: vec![GroupId::new(0)],
                payload: Bytes::from_static(b"x"),
            },
        }
    }

    #[test]
    fn wrapper_classifies_actions_and_keeps_sequences_while_off() {
        let hub = TraceHub::new(2);
        let mut sm = Traced::new(Script, Arc::clone(&hub));
        // Off: nothing recorded, but the frame is counted.
        assert_eq!(sm.on_event(Time::ZERO, request(1)).len(), 3);
        assert_eq!(hub.node(0).activations, 0);
        hub.set_on(true);
        sm.on_event(Time::ZERO, request(2));
        sm.on_event(Time::ZERO, Event::PersistDone(PersistToken(2)));
        sm.on_event(Time::ZERO, Event::Start);
        let t = hub.node(0);
        assert_eq!(t.activations, 3);
        assert_eq!(t.empty_activations, 2);
        assert_eq!(t.actions, 3);
        assert_eq!(t.frames, 2, "one send and one response");
        assert_eq!((t.persists, t.sync_persists), (1, 1));
        assert_eq!(t.persist_wait_ns.len(), 1);
        assert_eq!(t.request_entered.len(), 1);
        assert_eq!(t.respond_returned[0].0, 2);
        assert_eq!(t.sent[&1][0].0, 2, "second frame to server 1");
        assert_eq!(t.captured_frames.len(), 2);
        assert_eq!(t.captured_records.len(), 1);
    }

    struct Noop;
    impl Application for Noop {
        fn execute(&mut self, _: &Delivery) -> Vec<Reply> {
            Vec::new()
        }
        fn snapshot(&self) -> Bytes {
            Bytes::new()
        }
        fn restore(&mut self, _: &Bytes) {}
    }

    #[test]
    fn app_wrapper_recovers_the_request_id_from_the_command_frame() {
        let hub = TraceHub::new(1);
        hub.set_on(true);
        let mut app = TracedApp::new(Noop, Arc::clone(&hub), ProcessId::new(0));
        let framed = encode_command(ClientId::new(1), 77, b"cmd");
        app.execute(&Delivery {
            group: GroupId::new(0),
            instance: InstanceId::new(1),
            value: Value::new(ValueId::new(ProcessId::new(0), 1), GroupId::new(0), framed),
        });
        assert_eq!(hub.node(0).executes[0].0, 77);
    }
}
