//! End-to-end test of the TCP runtime: a three-process ring over
//! loopback TCP, a client port issuing requests, identical delivery
//! order at every learner, and durable acceptor state on disk.

use bytes::Bytes;
use mrp_transport::tcp::{ClientPort, RuntimeConfig, RuntimeEvent, TcpRuntime};
use multiring_paxos::config::{single_ring, RingTuning, StorageMode};
use multiring_paxos::node::Node;
use multiring_paxos::types::{ClientId, GroupId, ProcessId, ValueId};
use std::collections::BTreeMap;
use std::net::SocketAddr;
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
