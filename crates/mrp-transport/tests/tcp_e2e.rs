//! End-to-end tests of the TCP runtime: a three-process ring over
//! loopback TCP, a client port issuing requests, identical delivery
//! order at every learner, durable acceptor state on disk — and what
//! the connections do when peers are late, broken, bursty or dying.

use bytes::{Bytes, BytesMut};
use mrp_transport::framing::{self, FrameAccumulator, MAX_FRAME};
use mrp_transport::tcp::{ClientPort, RuntimeConfig, RuntimeEvent, RuntimeHandle, TcpRuntime};
use multiring_paxos::config::{single_ring, RingTuning, StorageMode};
use multiring_paxos::event::{Action, Event, Message, StateMachine};
use multiring_paxos::node::Node;
use multiring_paxos::types::{ClientId, GroupId, ProcessId, Time, ValueId};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn free_addr() -> SocketAddr {
    let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    l.local_addr().expect("addr")
}

#[test]
fn three_nodes_total_order_over_loopback_tcp() {
    let tuning = RingTuning {
        lambda: 0,
        ..RingTuning::default()
    };
    let config = single_ring(3, tuning);
    let addrs: Vec<SocketAddr> = (0..4).map(|_| free_addr()).collect();
    let mut peers: BTreeMap<ProcessId, SocketAddr> = BTreeMap::new();
    for (i, a) in addrs.iter().enumerate().take(3) {
        peers.insert(ProcessId::new(i as u32), *a);
    }
    let client_proc = ProcessId::new(50);
    peers.insert(client_proc, addrs[3]);

    // Node 0 runs with a periodic status probe (the telemetry-logging
    // hook): it must fire while the run makes progress and observe the
    // node's delivery counters advancing.
    let probe_runs = Arc::new(AtomicU64::new(0));
    let probe_delivered = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for i in 0..3u32 {
        let p = ProcessId::new(i);
        let mut rc = RuntimeConfig::new(p, addrs[i as usize]);
        rc.peers = peers.clone();
        rc.clients = BTreeMap::from([(ClientId::new(1), client_proc)]);
        let node = Node::new(p, config.clone());
        if i == 0 {
            rc.status_interval_us = 50_000;
            let runs = Arc::clone(&probe_runs);
            let delivered = Arc::clone(&probe_delivered);
            handles.push(
                TcpRuntime::spawn_with_status(
                    rc,
                    node,
                    Box::new(move |_, node: &Node| {
                        runs.fetch_add(1, Ordering::SeqCst);
                        delivered
                            .fetch_max(node.tel().registry.counter("delivered"), Ordering::SeqCst);
                    }),
                )
                .expect("spawn"),
            );
        } else {
            handles.push(TcpRuntime::spawn(rc, node).expect("spawn"));
        }
    }
    let client = ClientPort::bind(client_proc, addrs[3], peers.clone()).expect("client");

    // Send 20 requests to proposer p1.
    for r in 0..20u64 {
        client.request(
            ProcessId::new(1),
            ClientId::new(1),
            r,
            vec![GroupId::new(0)],
            Bytes::from(format!("req-{r}")),
        );
    }

    // Collect 20 deliveries from each node, in order.
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut orders: Vec<Vec<ValueId>> = vec![Vec::new(); 3];
    while orders.iter().any(|o| o.len() < 20) && Instant::now() < deadline {
        for (i, h) in handles.iter().enumerate() {
            while let Ok(ev) = h.events().try_recv() {
                if let RuntimeEvent::Delivered { value, .. } = ev {
                    orders[i].push(value.id);
                }
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(orders[0].len(), 20, "node 0 delivered everything");
    assert_eq!(orders[0], orders[1], "identical order at node 1");
    assert_eq!(orders[0], orders[2], "identical order at node 2");
    // Give the probe at least one more firing window after the last
    // delivery, then check it both ran and saw the node's telemetry.
    std::thread::sleep(Duration::from_millis(200));
    assert!(
        probe_runs.load(Ordering::SeqCst) > 0,
        "status probe fired periodically"
    );
    assert_eq!(
        probe_delivered.load(Ordering::SeqCst),
        20,
        "status probe observed the node's delivery counter"
    );

    for h in handles {
        h.shutdown();
    }
}

#[test]
fn acceptor_state_is_durable_across_runtime_restart() {
    let dir = std::env::temp_dir().join(format!("mrp-tcp-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let tuning = RingTuning {
        lambda: 0,
        storage: StorageMode::SyncDisk,
        ..RingTuning::default()
    };
    // Singleton ring: one process is proposer, acceptor, learner.
    let config = single_ring(1, tuning);
    let addr = free_addr();
    let p = ProcessId::new(0);

    {
        let mut rc = RuntimeConfig::new(p, addr);
        rc.peers = BTreeMap::from([(p, addr)]);
        rc.storage_dir = Some(dir.clone());
        let node = Node::new(p, config.clone());
        let h = TcpRuntime::spawn(rc, node).expect("spawn");
        h.request(
            ClientId::new(9),
            1,
            vec![GroupId::new(0)],
            Bytes::from_static(b"durable"),
        );
        // Wait for the delivery (implies the sync write completed).
        let ev = h
            .events()
            .recv_timeout(Duration::from_secs(10))
            .expect("delivery");
        assert!(matches!(ev, RuntimeEvent::Delivered { .. }));
        h.shutdown();
    }

    // Reopen storage: the vote for instance 1 must be on disk.
    let store = mrp_storage::DirStorage::open(&dir).expect("reopen");
    let rec = store.state().acceptor_recovery();
    let ring0 = &rec[&multiring_paxos::types::RingId::new(0)];
    assert!(
        !ring0.accepted.is_empty(),
        "sync-mode vote must be durable across restart"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Hosted by the runtime under test: answers every request with its own
/// payload under the session number of the connection it came in on, so
/// `events()` is the runtime's inbound sequence — (peer, request,
/// payload) — in the order the protocol thread saw it.
struct Echo;

impl StateMachine for Echo {
    fn on_event(&mut self, _now: Time, event: Event) -> Vec<Action> {
        match event {
            Event::Message {
                from,
                msg: Message::Request {
                    request, payload, ..
                },
            } => vec![Action::Respond {
                client: ClientId::new(u64::from(from.value())),
                request,
                payload,
            }],
            _ => Vec::new(),
        }
    }

    fn process_id(&self) -> ProcessId {
        SERVER
    }
}

const SERVER: ProcessId = ProcessId::new(0);
const CLIENT: ProcessId = ProcessId::new(50);

fn echo_server(listen: SocketAddr) -> RuntimeHandle {
    TcpRuntime::spawn(RuntimeConfig::new(SERVER, listen), Echo).expect("spawn")
}

fn client_port(server: SocketAddr) -> ClientPort {
    ClientPort::bind(CLIENT, free_addr(), BTreeMap::from([(SERVER, server)])).expect("client")
}

fn send(client: &ClientPort, request: u64, payload: Bytes) {
    client.request(
        SERVER,
        ClientId::new(1),
        request,
        vec![GroupId::new(0)],
        payload,
    );
}

fn request(request: u64) -> Message {
    Message::Request {
        client: ClientId::new(1),
        request,
        groups: vec![GroupId::new(0)],
        payload: Bytes::from(format!("payload-{request}")),
    }
}

fn framed(msgs: impl IntoIterator<Item = Message>) -> BytesMut {
    let mut buf = BytesMut::new();
    for m in msgs {
        framing::put_frame(&mut buf, &m);
    }
    buf
}

/// A connection the test writes by hand, hello sent.
fn raw_peer(server: SocketAddr, id: u32) -> TcpStream {
    let mut s = TcpStream::connect(server).expect("connect");
    s.set_nodelay(true).expect("nodelay");
    framing::write_hello(&mut s, ProcessId::new(id)).expect("hello");
    s
}

/// The next `n` inbound frames as (peer, request, payload). The wait
/// only bounds a failing run.
fn inbound(server: &RuntimeHandle, n: usize) -> Vec<(u64, u64, Bytes)> {
    (0..n)
        .map(
            |_| match server.events().recv_timeout(Duration::from_secs(20)) {
                Ok(RuntimeEvent::Response {
                    client,
                    request,
                    payload,
                }) => (client.value(), request, payload),
                other => panic!("expected an echoed request, got {other:?}"),
            },
        )
        .collect()
}

fn numbers(frames: &[(u64, u64, Bytes)]) -> Vec<u64> {
    frames.iter().map(|f| f.1).collect()
}

#[test]
fn peer_dialled_before_it_listens_gets_every_queued_frame_once_in_order() {
    let addr = free_addr();
    let client = client_port(addr);
    for r in 0..50 {
        send(&client, r, Bytes::from_static(b"early"));
    }
    let server = echo_server(addr);
    // Frame 50 is sent once the others are in: a second copy of any of
    // them would arrive ahead of it.
    let first = inbound(&server, 50);
    send(&client, 50, Bytes::from_static(b"late"));
    let last = inbound(&server, 1);
    assert_eq!(numbers(&first), (0..50).collect::<Vec<_>>());
    assert_eq!(numbers(&last), [50]);
    assert!(first.iter().all(|f| f.0 == u64::from(CLIENT.value())));
    server.shutdown();
}

/// A refused dial waits for the peer, not for the clock: once the peer
/// has connected to us and said hello, the writer that was backing off
/// from it dials again at once.
#[test]
fn hello_from_the_peer_ends_the_back_off_of_the_writer_dialling_it() {
    let (a_addr, b_addr) = (free_addr(), free_addr());
    let a = ClientPort::bind(CLIENT, a_addr, BTreeMap::from([(SERVER, b_addr)])).expect("client");
    for r in 0..10 {
        send(&a, r, Bytes::from_static(b"queued"));
    }
    // B is refused 0.2, 0.6, 1.4, 3, 6.2, 12.6, 25.4 and 51 ms after the
    // first dial: from then to 101 ms A's writer sits in a 50 ms wait.
    std::thread::sleep(Duration::from_millis(60));
    let b = TcpListener::bind(b_addr).expect("bind");
    let mut to_a = raw_peer(a_addr, SERVER.value());
    let frame = framed([Message::Response {
        client: ClientId::new(1),
        request: 0,
        payload: Bytes::from_static(b"up"),
    }]);
    to_a.write_all(&frame).expect("write");
    let said_hello = Instant::now();

    let (mut conn, _) = b.accept().expect("accept");
    assert_eq!(framing::read_hello(&mut conn).expect("hello"), CLIENT);
    let got = read_requests(&mut conn, |seen| seen.len() == 10);
    let waited = said_hello.elapsed();
    assert_eq!(got, (0..10).collect::<Vec<_>>());
    // Some 40 ms of the back-off were left; a dial and a write are not 1.
    assert!(
        waited < Duration::from_millis(20),
        "queued frames arrived {waited:?} after the hello"
    );
}

#[test]
fn broken_peers_do_not_disturb_the_others() {
    let addr = free_addr();
    let server = echo_server(addr);

    // Hello and half a frame, then gone.
    let bytes = framed([request(7)]);
    let mut half = raw_peer(addr, 98);
    half.write_all(&bytes[..bytes.len() / 2]).expect("write");
    drop(half);
    // Hello and nothing else, for as long as the test runs.
    let _silent = raw_peer(addr, 97);
    // A length prefix no frame may have: the server hangs up, and the
    // frame behind the prefix is not taken for one.
    let mut liar = raw_peer(addr, 96);
    liar.write_all(&(MAX_FRAME + 1).to_le_bytes())
        .expect("write");
    let _ = liar.write_all(&bytes); // may already meet the hang-up
    let mut rest = Vec::new();
    let _ = liar.read_to_end(&mut rest); // end of stream or a reset
    assert!(rest.is_empty());

    let client = client_port(addr);
    for r in 0..20 {
        send(&client, r, Bytes::from_static(b"fine"));
    }
    let got = inbound(&server, 20);
    assert_eq!(numbers(&got), (0..20).collect::<Vec<_>>());
    assert!(got.iter().all(|f| f.0 == u64::from(CLIENT.value())));
    server.shutdown();
}

#[test]
fn one_write_and_one_byte_per_write_yield_the_same_inbound_sequence() {
    let addr = free_addr();
    let server = echo_server(addr);
    let bytes = framed((0..500).map(request));

    let mut burst = raw_peer(addr, 7);
    burst.write_all(&bytes).expect("write");
    let at_once = inbound(&server, 500);

    let mut trickle = raw_peer(addr, 7);
    for b in bytes.iter() {
        trickle.write_all(&[*b]).expect("write");
    }
    let byte_by_byte = inbound(&server, 500);

    assert_eq!(numbers(&at_once), (0..500).collect::<Vec<_>>());
    assert_eq!(at_once, byte_by_byte);
    server.shutdown();
}

/// Reads frames off a hand-held connection until `done` says so;
/// returns the request numbers in arrival order.
fn read_requests(conn: &mut TcpStream, done: impl Fn(&[u64]) -> bool) -> Vec<u64> {
    let mut frames = FrameAccumulator::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut seen = Vec::new();
    while !done(&seen) {
        let n = conn.read(&mut chunk).expect("read");
        assert!(n > 0, "stream ended after {seen:?}");
        frames.extend(&chunk[..n]);
        while let Some(msg) = frames.next().expect("decode") {
            match msg {
                Message::Request { request, .. } => seen.push(request),
                other => panic!("unexpected frame {other:?}"),
            }
        }
    }
    seen
}

#[test]
fn writer_whose_peer_dies_mid_burst_resends_the_burst() {
    // Larger than loopback's send and receive buffers can grow to
    // together (tcp_wmem + tcp_rmem maxima: 4 + 32 MiB), so the `write`
    // carrying it cannot complete while the receiver is not reading.
    const HUGE: usize = 48 << 20;
    let addr = free_addr();
    let client = client_port(addr);
    send(&client, 0, Bytes::from_static(b"small"));
    send(&client, 1, Bytes::from_static(b"small"));
    send(&client, 2, Bytes::from(vec![7u8; HUGE]));
    send(&client, 3, Bytes::from_static(b"small"));
    send(&client, 4, Bytes::from_static(b"small"));

    // The peer comes up, takes frames 0 and 1 and dies with frame 2
    // under way.
    let listener = TcpListener::bind(addr).expect("bind");
    let (mut conn, _) = listener.accept().expect("accept");
    assert_eq!(framing::read_hello(&mut conn).expect("hello"), CLIENT);
    let before = read_requests(&mut conn, |seen| seen.contains(&1));
    assert_eq!(before[..2], [0, 1]);
    drop(conn);

    // Its successor is sent the interrupted burst from the start: maybe
    // frames it had, never a gap, and everything after.
    let (mut conn, _) = listener.accept().expect("accept");
    assert_eq!(framing::read_hello(&mut conn).expect("hello"), CLIENT);
    let after = read_requests(&mut conn, |seen| seen.contains(&4));
    assert!(after[0] <= 2, "gap: {before:?} then {after:?}");
    assert_eq!(after, (after[0]..=4).collect::<Vec<_>>());
}
