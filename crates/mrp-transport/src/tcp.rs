//! A thread-per-peer TCP runtime for sans-io state machines.
//!
//! Mirrors the paper's implementation architecture (Section 7.1): every
//! process is multi-threaded — reader threads per inbound connection,
//! writer threads per outbound peer, one protocol thread — and threads
//! communicate through queues (crossbeam channels). All inter-process
//! communication is TCP; stable storage is a real write-ahead log with
//! `fsync` on synchronous writes.
//!
//! Every thread waits for an event: the listener in `accept`, a reader
//! in `read`, a writer and the protocol thread in `recv` (the latter up
//! to its next timer deadline). A writer whose dial was refused waits
//! for the peer to show that it is up — any connection that says hello
//! to this process wakes the process's writers — and, because a peer
//! need never dial us, for at most a back-off that doubles from
//! `DIAL_BACKOFF_MIN` (200 µs) to `DIAL_BACKOFF_MAX` (50 ms).

use crate::framing::{self, FrameAccumulator};
use bytes::BytesMut;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use mrp_storage::DirStorage;
use multiring_paxos::event::{Action, Event, Message, StateMachine, TimerKind};
use multiring_paxos::types::{ClientId, GroupId, InstanceId, ProcessId, Time, Value};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar};
use std::thread;
use std::time::{Duration, Instant};

/// The longest a refused dial waits before the next one; doubled after
/// every further refusal, up to [`DIAL_BACKOFF_MAX`]. A hello read from
/// any peer in the meantime ends the wait at once
/// ([`Signals::count_hello`]): the back-off is what reaches a peer that
/// never dials us.
const DIAL_BACKOFF_MIN: Duration = Duration::from_micros(200);
const DIAL_BACKOFF_MAX: Duration = Duration::from_millis(50);
/// Bytes a reader asks of one `read`, and the size past which a writer
/// stops adding queued frames to the `write` it is about to issue.
const BURST_BYTES: usize = 64 * 1024;

/// Static configuration of one runtime process.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// This process.
    pub me: ProcessId,
    /// Address to listen on.
    pub listen: SocketAddr,
    /// Peer addresses (processes and client ports).
    pub peers: BTreeMap<ProcessId, SocketAddr>,
    /// Maps client sessions to the process (usually a
    /// [`ClientPort`]) their responses are sent to.
    pub clients: BTreeMap<ClientId, ProcessId>,
    /// Directory for the write-ahead log and checkpoints; `None` keeps
    /// stable state in memory (tests, in-memory storage mode).
    pub storage_dir: Option<PathBuf>,
    /// Interval between status-probe invocations
    /// ([`TcpRuntime::spawn_with_status`]), microseconds; 0 disables
    /// the probe.
    pub status_interval_us: u64,
}

impl RuntimeConfig {
    /// A minimal config for `me` listening on `listen`.
    pub fn new(me: ProcessId, listen: SocketAddr) -> Self {
        Self {
            me,
            listen,
            peers: BTreeMap::new(),
            clients: BTreeMap::new(),
            storage_dir: None,
            status_interval_us: 0,
        }
    }
}

/// A periodic observer of the hosted state machine, invoked from the
/// protocol thread between events (never concurrently with one): the
/// place to snapshot engine telemetry, run the health probe and log
/// both — the closure knows the concrete `S`, so the runtime stays
/// engine-agnostic.
pub type StatusProbe<S> = Box<dyn FnMut(Time, &S) + Send>;

/// Events surfaced by the runtime to its embedding application.
#[derive(Clone, PartialEq, Debug)]
pub enum RuntimeEvent {
    /// An atomic-multicast delivery (bare nodes).
    Delivered {
        /// Group.
        group: GroupId,
        /// Deciding instance.
        instance: InstanceId,
        /// The value.
        value: Value,
    },
    /// A client response produced locally whose session has no
    /// registered home (surfaced instead of sent).
    Response {
        /// Client session.
        client: ClientId,
        /// Request number.
        request: u64,
        /// Payload.
        payload: bytes::Bytes,
    },
}

enum Cmd {
    Inject(Event),
    Shutdown,
}

/// Everything the protocol thread receives, merged into one channel so
/// it blocks in one place.
enum Inbound {
    Net { from: ProcessId, msg: Message },
    Cmd(Cmd),
}

/// Handle to a running [`TcpRuntime`].
pub struct RuntimeHandle {
    cmd_tx: Sender<Inbound>,
    events_rx: Receiver<RuntimeEvent>,
    join: Option<thread::JoinHandle<()>>,
    acceptor: Acceptor,
}

impl std::fmt::Debug for RuntimeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuntimeHandle").finish_non_exhaustive()
    }
}

impl RuntimeHandle {
    /// Injects a client request as if it arrived from `client`'s
    /// session: the hosted node frames and multicasts it to the
    /// addressed group set.
    pub fn request(
        &self,
        client: ClientId,
        request: u64,
        groups: Vec<GroupId>,
        payload: bytes::Bytes,
    ) {
        let _ = self.cmd_tx.send(Inbound::Cmd(Cmd::Inject(Event::Message {
            from: ProcessId::new(u32::MAX),
            msg: Message::Request {
                client,
                request,
                groups,
                payload,
            },
        })));
    }

    /// Injects an arbitrary protocol event (tests, coordination
    /// service).
    pub fn inject(&self, event: Event) {
        let _ = self.cmd_tx.send(Inbound::Cmd(Cmd::Inject(event)));
    }

    /// The stream of surfaced events (deliveries, local responses).
    pub fn events(&self) -> &Receiver<RuntimeEvent> {
        &self.events_rx
    }

    /// Stops the runtime: closes the listen socket and every accepted
    /// connection, and joins the listener, reader and protocol threads.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.acceptor.close();
        let _ = self.cmd_tx.send(Inbound::Cmd(Cmd::Shutdown));
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

impl Drop for RuntimeHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// The TCP runtime: hosts one state machine per process.
#[derive(Debug)]
pub struct TcpRuntime;

#[derive(PartialEq, Eq)]
struct Deadline(u64, TimerKind);

impl PartialOrd for Deadline {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Deadline {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.0.cmp(&self.0) // min-heap
    }
}

impl TcpRuntime {
    /// Spawns the runtime threads around `sm`.
    ///
    /// # Errors
    ///
    /// Fails if the listen socket cannot be bound or the storage
    /// directory cannot be opened.
    pub fn spawn<S: StateMachine + Send + 'static>(
        config: RuntimeConfig,
        sm: S,
    ) -> std::io::Result<RuntimeHandle> {
        Self::spawn_inner(config, sm, None)
    }

    /// Like [`TcpRuntime::spawn`], but additionally invokes `probe`
    /// every [`RuntimeConfig::status_interval_us`] microseconds with
    /// the current runtime time and a reference to the hosted state
    /// machine — periodic telemetry/health logging for long-running
    /// deployments.
    ///
    /// # Errors
    ///
    /// Fails if the listen socket cannot be bound or the storage
    /// directory cannot be opened.
    pub fn spawn_with_status<S: StateMachine + Send + 'static>(
        config: RuntimeConfig,
        sm: S,
        probe: StatusProbe<S>,
    ) -> std::io::Result<RuntimeHandle> {
        Self::spawn_inner(config, sm, Some(probe))
    }

    fn spawn_inner<S: StateMachine + Send + 'static>(
        config: RuntimeConfig,
        sm: S,
        probe: Option<StatusProbe<S>>,
    ) -> std::io::Result<RuntimeHandle> {
        let (in_tx, in_rx) = unbounded::<Inbound>();
        let net_tx = in_tx.clone();
        let acceptor = Acceptor::bind(config.listen, move |from, msg| {
            net_tx.send(Inbound::Net { from, msg }).is_ok()
        })?;
        let signals = Arc::clone(&acceptor.signals);
        let storage = match &config.storage_dir {
            Some(dir) => {
                Some(DirStorage::open(dir).map_err(|e| std::io::Error::other(e.to_string()))?)
            }
            None => None,
        };
        let (events_tx, events_rx) = unbounded::<RuntimeEvent>();

        let join = thread::Builder::new()
            .name(format!("mrp-node-{}", config.me.value()))
            .spawn(move || {
                Self::protocol_loop(config, sm, storage, in_rx, events_tx, signals, probe);
            })?;

        Ok(RuntimeHandle {
            cmd_tx: in_tx,
            events_rx,
            join: Some(join),
            acceptor,
        })
    }

    #[allow(clippy::too_many_lines)]
    #[allow(clippy::too_many_arguments)]
    fn protocol_loop<S: StateMachine>(
        config: RuntimeConfig,
        mut sm: S,
        mut storage: Option<DirStorage>,
        in_rx: Receiver<Inbound>,
        events_tx: Sender<RuntimeEvent>,
        signals: Arc<Signals>,
        mut probe: Option<StatusProbe<S>>,
    ) {
        let start = Instant::now();
        let now_us = || start.elapsed().as_micros() as u64;
        let mut timers: BinaryHeap<Deadline> = BinaryHeap::new();
        let mut writers: HashMap<ProcessId, Sender<Message>> = HashMap::new();
        let mut pending: VecDeque<Event> = VecDeque::new();
        let status_interval = if probe.is_some() {
            config.status_interval_us
        } else {
            0
        };
        let mut next_status_us = if status_interval > 0 {
            status_interval
        } else {
            u64::MAX
        };

        pending.push_back(Event::Start);
        'main: loop {
            // Drain pending protocol events first.
            while let Some(event) = pending.pop_front() {
                let now = Time::from_micros(now_us());
                let actions = sm.on_event(now, event);
                Self::run_actions(
                    &config,
                    actions,
                    &mut timers,
                    &mut writers,
                    &mut storage,
                    &mut pending,
                    &events_tx,
                    &signals,
                    now_us(),
                );
            }
            if signals.closing() {
                break;
            }
            // Block until the next input, timer deadline or status
            // probe, whichever comes first: all producers feed the
            // single merged channel.
            let wake_us = timers.peek().map_or(u64::MAX, |d| d.0).min(next_status_us);
            let input = if wake_us == u64::MAX {
                in_rx.recv().map_err(|_| RecvTimeoutError::Disconnected)
            } else {
                let wait = Duration::from_micros(wake_us.saturating_sub(now_us()));
                in_rx.recv_timeout(wait) // lint:allow(transport-poll) a deadline, not an interval
            };
            match input {
                Ok(Inbound::Net { from, msg }) => {
                    pending.push_back(Event::Message { from, msg });
                }
                Ok(Inbound::Cmd(Cmd::Inject(ev))) => pending.push_back(ev),
                Ok(Inbound::Cmd(Cmd::Shutdown)) | Err(RecvTimeoutError::Disconnected) => {
                    break 'main;
                }
                Err(RecvTimeoutError::Timeout) => {}
            }
            // Fire due timers.
            let t = now_us();
            while timers.peek().is_some_and(|d| d.0 <= t) {
                let Deadline(_, kind) = timers.pop().expect("peeked");
                pending.push_back(Event::Timer(kind));
            }
            // Periodic status probe: between events on the protocol
            // thread, so it reads a quiescent state machine.
            if t >= next_status_us {
                if let Some(probe) = probe.as_mut() {
                    probe(Time::from_micros(t), &sm);
                }
                next_status_us = t + status_interval;
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn run_actions(
        config: &RuntimeConfig,
        actions: Vec<Action>,
        timers: &mut BinaryHeap<Deadline>,
        writers: &mut HashMap<ProcessId, Sender<Message>>,
        storage: &mut Option<DirStorage>,
        pending: &mut VecDeque<Event>,
        events_tx: &Sender<RuntimeEvent>,
        signals: &Arc<Signals>,
        now_us: u64,
    ) {
        for action in actions {
            match action {
                Action::Send { to, msg } => {
                    Self::send_to(config, writers, signals, to, msg);
                }
                Action::SetTimer { after_us, timer } => {
                    timers.push(Deadline(now_us + after_us, timer));
                }
                Action::Persist {
                    record,
                    sync,
                    token,
                } => {
                    if let Some(store) = storage.as_mut() {
                        // Real durability; an I/O failure here is fatal
                        // for the acceptor's safety guarantees.
                        store
                            .persist(&record, sync)
                            .expect("stable storage write failed");
                    }
                    pending.push_back(Event::PersistDone(token));
                }
                Action::TrimStorage { ring, upto } => {
                    if let Some(store) = storage.as_mut() {
                        let _ = store.trim(ring, upto);
                    }
                }
                Action::Deliver {
                    group,
                    instance,
                    value,
                } => {
                    let _ = events_tx.send(RuntimeEvent::Delivered {
                        group,
                        instance,
                        value,
                    });
                }
                Action::Respond {
                    client,
                    request,
                    payload,
                } => {
                    if let Some(&home) = config.clients.get(&client) {
                        Self::send_to(
                            config,
                            writers,
                            signals,
                            home,
                            Message::Response {
                                client,
                                request,
                                payload,
                            },
                        );
                    } else {
                        let _ = events_tx.send(RuntimeEvent::Response {
                            client,
                            request,
                            payload,
                        });
                    }
                }
            }
        }
    }

    fn send_to(
        config: &RuntimeConfig,
        writers: &mut HashMap<ProcessId, Sender<Message>>,
        signals: &Arc<Signals>,
        to: ProcessId,
        msg: Message,
    ) {
        let tx = writers
            .entry(to)
            .or_insert_with(|| spawn_writer(config.me, config.peers.get(&to), signals));
        let _ = tx.send(msg);
    }
}

/// What the threads of one process tell each other besides frames.
#[derive(Default)]
struct Signals {
    /// Raised by [`Acceptor::close`].
    shutdown: AtomicBool,
    /// Connections that have said hello to this process so far.
    hellos: std::sync::Mutex<u64>,
    hello: Condvar,
}

impl Signals {
    fn closing(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn hellos(&self) -> u64 {
        *self.hellos.lock().expect("no panic while counting")
    }

    /// A reader has read a peer's hello, so that peer is up: writers
    /// waiting out a refused dial try again now.
    fn count_hello(&self) {
        *self.hellos.lock().expect("no panic while counting") += 1;
        self.hello.notify_all();
    }

    /// Returns once more than `seen` hellos have been read, and after
    /// `limit` at the latest.
    fn await_hello(&self, seen: u64, limit: Duration) {
        let hellos = self.hellos.lock().expect("no panic while counting");
        let _ = self.hello.wait_timeout_while(hellos, limit, |n| *n == seen); // lint:allow(transport-poll) a peer that never dials us sends no event
    }
}

/// An accepted connection: our handle on the stream and its reader.
type Accepted = (TcpStream, thread::JoinHandle<()>);

/// The listening half of a process: one thread blocked in `accept` and
/// one reader thread per inbound connection, each blocked in `read`.
struct Acceptor {
    addr: SocketAddr,
    /// Shared with the process's other threads: `close` raises
    /// `shutdown`, the readers count hellos for the writers.
    signals: Arc<Signals>,
    /// Returns the connections it accepted.
    listener: Option<thread::JoinHandle<Vec<Accepted>>>,
}

impl Acceptor {
    /// Binds `listen` and hands every frame that arrives on it to
    /// `on_frame`, with the process id the connection's hello announced;
    /// a reader ends when `on_frame` returns `false`.
    fn bind<F>(listen: SocketAddr, on_frame: F) -> std::io::Result<Self>
    where
        F: Fn(ProcessId, Message) -> bool + Clone + Send + 'static,
    {
        let listener = TcpListener::bind(listen)?;
        let addr = listener.local_addr()?;
        let signals = Arc::new(Signals::default());
        let shared = Arc::clone(&signals);
        let listener = thread::spawn(move || {
            let mut conns: Vec<Accepted> = Vec::new();
            while let Ok((stream, _)) = listener.accept() {
                if shared.closing() {
                    break; // the connection `close` woke us with
                }
                conns.retain(|(_, reader)| !reader.is_finished());
                let Ok(ours) = stream.try_clone() else {
                    continue;
                };
                let (on_frame, signals) = (on_frame.clone(), Arc::clone(&shared));
                let reader = thread::spawn(move || {
                    read_loop(&stream, &signals, on_frame);
                    // `ours` keeps the socket open: hang up explicitly.
                    let _ = stream.shutdown(Shutdown::Both);
                });
                conns.push((ours, reader));
            }
            conns
        });
        Ok(Self {
            addr,
            signals,
            listener: Some(listener),
        })
    }

    /// Raises `shutdown`, closes the listen socket and every accepted
    /// connection, and joins the listener and reader threads.
    fn close(&mut self) {
        self.signals.shutdown.store(true, Ordering::SeqCst);
        let Some(listener) = self.listener.take() else {
            return;
        };
        // `accept` has no deadline; a connection is the event that ends
        // it. If none can be made the thread is left to itself.
        if TcpStream::connect(self.addr).is_err() && !listener.is_finished() {
            return;
        }
        for (stream, reader) in listener.join().unwrap_or_default() {
            let _ = stream.shutdown(Shutdown::Both);
            let _ = reader.join();
        }
    }
}

impl Drop for Acceptor {
    fn drop(&mut self) {
        self.close();
    }
}

/// One inbound connection: the hello, which is signalled to the writers,
/// then one `read` per burst, every complete frame of which goes to
/// `on_frame`. Ends at end of stream, on an I/O error and on a frame that
/// does not decode.
fn read_loop(
    mut stream: &TcpStream,
    signals: &Signals,
    on_frame: impl Fn(ProcessId, Message) -> bool,
) {
    let Ok(peer) = framing::read_hello(&mut stream) else {
        return;
    };
    signals.count_hello();
    let mut frames = FrameAccumulator::new();
    let mut burst = vec![0u8; BURST_BYTES];
    loop {
        match stream.read(&mut burst) {
            Ok(0) => return,
            Ok(n) => frames.extend(&burst[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
        loop {
            match frames.next() {
                Ok(Some(msg)) => {
                    if !on_frame(peer, msg) {
                        return;
                    }
                }
                Ok(None) => break,
                Err(_) => return,
            }
        }
    }
}

/// The queue of a new writer thread to the peer at `addr`. Frames for a
/// peer without an address are dropped.
fn spawn_writer(
    me: ProcessId,
    addr: Option<&SocketAddr>,
    signals: &Arc<Signals>,
) -> Sender<Message> {
    let (tx, rx) = unbounded::<Message>();
    if let Some(&addr) = addr {
        let signals = Arc::clone(signals);
        // Not joined: it may be inside `connect`, which has no deadline.
        // It ends by itself once its queue is gone or `shutdown` is up.
        thread::spawn(move || writer_loop(me, addr, &rx, &signals));
    }
    tx
}

fn dial(me: ProcessId, addr: SocketAddr) -> std::io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    framing::write_hello(&mut stream, me)?;
    Ok(stream)
}

/// One outbound peer: blocks while its queue is empty, then sends what
/// has queued up as one `write`. Ends when the queue's senders are gone,
/// or when `shutdown` is raised while the peer cannot be reached.
fn writer_loop(me: ProcessId, addr: SocketAddr, rx: &Receiver<Message>, signals: &Signals) {
    let mut conn: Option<TcpStream> = None;
    let mut backoff = DIAL_BACKOFF_MIN;
    // One encode buffer per peer: bursts reuse its capacity instead of
    // allocating per message.
    let mut burst = BytesMut::new();
    while let Ok(first) = rx.recv() {
        burst.clear();
        framing::put_frame(&mut burst, &first);
        while burst.len() < BURST_BYTES {
            let Ok(next) = rx.try_recv() else { break };
            framing::put_frame(&mut burst, &next);
        }
        // The burst is the unit of retry: after a failed `write` all of
        // it goes to the next connection, so the peer may see frames
        // twice (the engines deduplicate). What an earlier `write` had
        // handed to the kernel when the peer died is lost, as on any TCP
        // sender; the protocols' retransmissions cover that.
        loop {
            let stream = match &mut conn {
                Some(stream) => stream,
                None => {
                    // Counted before the dial: a hello that arrives
                    // between the refusal and the wait still ends it.
                    let hellos = signals.hellos();
                    match dial(me, addr) {
                        Ok(stream) => {
                            backoff = DIAL_BACKOFF_MIN;
                            conn.insert(stream)
                        }
                        Err(_) if signals.closing() => return,
                        Err(_) => {
                            signals.await_hello(hellos, backoff);
                            backoff = (backoff * 2).min(DIAL_BACKOFF_MAX);
                            continue;
                        }
                    }
                }
            };
            if stream.write_all(&burst).is_ok() {
                break;
            }
            conn = None;
            if signals.closing() {
                return;
            }
        }
    }
}

/// A lightweight client endpoint: binds a socket, receives
/// [`Message::Response`] frames addressed to its sessions, and sends
/// [`Message::Request`]s to runtime processes. This is the paper's
/// "client connects to proposers, replicas answer over the network"
/// shape.
pub struct ClientPort {
    me: ProcessId,
    peers: BTreeMap<ProcessId, SocketAddr>,
    responses_rx: Receiver<(ClientId, u64, bytes::Bytes)>,
    writers: Mutex<HashMap<ProcessId, Sender<Message>>>,
    /// Closed on drop, which also raises the writers' `shutdown`.
    acceptor: Acceptor,
}

impl std::fmt::Debug for ClientPort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientPort").field("me", &self.me).finish()
    }
}

impl ClientPort {
    /// Binds a client port as pseudo-process `me` on `listen`.
    ///
    /// # Errors
    ///
    /// Fails if the socket cannot be bound.
    pub fn bind(
        me: ProcessId,
        listen: SocketAddr,
        peers: BTreeMap<ProcessId, SocketAddr>,
    ) -> std::io::Result<Self> {
        let (tx, rx) = unbounded();
        let acceptor = Acceptor::bind(listen, move |_, msg| match msg {
            Message::Response {
                client,
                request,
                payload,
            } => tx.send((client, request, payload)).is_ok(),
            _ => true,
        })?;
        Ok(Self {
            me,
            peers,
            responses_rx: rx,
            writers: Mutex::new(HashMap::new()),
            acceptor,
        })
    }

    /// Sends a request addressed to the group set `groups` to process
    /// `to`.
    pub fn request(
        &self,
        to: ProcessId,
        client: ClientId,
        request: u64,
        groups: Vec<GroupId>,
        payload: bytes::Bytes,
    ) {
        let msg = Message::Request {
            client,
            request,
            groups,
            payload,
        };
        let mut writers = self.writers.lock();
        let tx = writers
            .entry(to)
            .or_insert_with(|| spawn_writer(self.me, self.peers.get(&to), &self.acceptor.signals));
        let _ = tx.send(msg);
    }

    /// The stream of responses: `(client, request, payload)`.
    pub fn responses(&self) -> &Receiver<(ClientId, u64, bytes::Bytes)> {
        &self.responses_rx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_between_the_count_and_the_wait_ends_the_wait() {
        let signals = Signals::default();
        let seen = signals.hellos();
        signals.count_hello();
        let begin = Instant::now();
        signals.await_hello(seen, Duration::from_secs(60));
        assert!(begin.elapsed() < Duration::from_secs(30));
    }

    #[test]
    fn wait_without_a_hello_lasts_its_limit() {
        let signals = Signals::default();
        signals.count_hello();
        let limit = Duration::from_millis(20);
        let begin = Instant::now();
        signals.await_hello(signals.hellos(), limit);
        assert!(begin.elapsed() >= limit);
    }
}
