//! `shutdown()` closes what the runtime opened. Alone in its test
//! binary, one `#[test]`: it counts the process's threads, which a test
//! running beside it would change.
#![allow(
    clippy::disallowed_methods,
    reason = "a test waits for the runtime from outside, where a bounded wait is the point"
)]

mod loopback;

use bytes::Bytes;
use mrp_transport::tcp::{RuntimeEvent, TcpRuntime};
use multiring_paxos::config::{single_ring, RingTuning};
use multiring_paxos::node::Node;
use multiring_paxos::types::{ClientId, GroupId, ProcessId};
use std::net::TcpListener;
use std::time::{Duration, Instant};

#[cfg(target_os = "linux")]
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

#[test]
fn shutdown_frees_the_addresses_and_ends_the_threads() {
    #[cfg(target_os = "linux")]
    let threads_before = threads();

    let tuning = RingTuning {
        lambda: 0,
        ..RingTuning::default()
    };
    let config = single_ring(3, tuning);
    let (handles, client, addrs) = loopback::start(3, |p, rc| {
        TcpRuntime::spawn(rc, Node::new(p, config.clone()))
    });

    // Traffic until every node has delivered: by then the ring's
    // connections, readers and writers all exist.
    for r in 0..5 {
        client.request(
            ProcessId::new(1),
            ClientId::new(1),
            r,
            vec![GroupId::new(0)],
            Bytes::from_static(b"x"),
        );
    }
    for h in &handles {
        for _ in 0..5 {
            let ev = h.events().recv_timeout(Duration::from_secs(20));
            assert!(matches!(ev, Ok(RuntimeEvent::Delivered { .. })), "{ev:?}");
        }
    }

    for h in handles {
        h.shutdown();
    }
    drop(client);

    for addr in &addrs {
        TcpListener::bind(addr).expect("the listen address is free again");
    }
    #[cfg(target_os = "linux")]
    {
        // Writers are not joined; each ends within one dial back-off.
        let deadline = Instant::now() + Duration::from_secs(1);
        while threads() != threads_before && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(threads(), threads_before, "threads left behind");
    }
}
