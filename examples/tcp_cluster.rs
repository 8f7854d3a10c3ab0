//! Real-deployment example: a three-node MRP-Store partition over
//! loopback TCP with durable write-ahead logs — the thread-per-peer
//! runtime a downstream user would actually run, no simulator involved.
//! The cluster is brought up once per atomic-multicast engine, each with
//! write-ahead logs of its own.
//!
//! Run with: `cargo run --example tcp_cluster`

use atomic_multicast::amcast::{EngineKind, EngineReplica};
use atomic_multicast::core::config::{single_ring, RingTuning, StorageMode};
use atomic_multicast::core::replica::CheckpointPolicy;
use atomic_multicast::core::types::{ClientId, GroupId, ProcessId};
use atomic_multicast::store::command::{StoreCommand, StoreResponse};
use atomic_multicast::store::StoreApp;
use atomic_multicast::transport::tcp::{ClientPort, RuntimeConfig, TcpRuntime};
use bytes::Bytes;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::Duration;

fn free_addr() -> SocketAddr {
    std::net::TcpListener::bind("127.0.0.1:0")
        .expect("bind")
        .local_addr()
        .expect("addr")
}

fn main() {
    for kind in EngineKind::ALL {
        run(kind);
    }
}

fn run(kind: EngineKind) {
    let tuning = RingTuning {
        lambda: 0,
        storage: StorageMode::AsyncDisk,
        ..RingTuning::default()
    };
    let config = single_ring(3, tuning);
    let addrs: Vec<SocketAddr> = (0..4).map(|_| free_addr()).collect();
    let client_proc = ProcessId::new(50);
    let mut peers: BTreeMap<ProcessId, SocketAddr> = BTreeMap::new();
    for i in 0..3 {
        peers.insert(ProcessId::new(i), addrs[i as usize]);
    }
    peers.insert(client_proc, addrs[3]);

    let base = std::env::temp_dir().join(format!("mrp-example-{}-{kind}", std::process::id()));
    let mut handles = Vec::new();
    for i in 0..3u32 {
        let p = ProcessId::new(i);
        let mut rc = RuntimeConfig::new(p, addrs[i as usize]);
        rc.peers = peers.clone();
        rc.clients = BTreeMap::from([(ClientId::new(1), client_proc)]);
        rc.storage_dir = Some(base.join(format!("node{i}")));
        let replica = EngineReplica::new(
            kind,
            p,
            config.clone(),
            StoreApp::new(0),
            CheckpointPolicy {
                interval_us: 0,
                sync: false,
            },
        );
        handles.push(TcpRuntime::spawn(rc, replica).expect("spawn node"));
    }
    let client = ClientPort::bind(client_proc, addrs[3], peers.clone()).expect("client");

    println!("{kind}: 3 nodes listening on loopback TCP; inserting 10 entries...");
    for i in 0..10u64 {
        let cmd = StoreCommand::Insert {
            key: Bytes::from(format!("key{i}")),
            value: Bytes::from(format!("value{i}")),
        };
        client.request(
            ProcessId::new(0),
            ClientId::new(1),
            i,
            vec![GroupId::new(0)],
            cmd.encode(),
        );
    }
    // Collect first responses (each of the 3 replicas answers; we count
    // unique request ids).
    let mut seen = std::collections::BTreeSet::new();
    while seen.len() < 10 {
        let (_, request, _) = client
            .responses()
            .recv_timeout(Duration::from_secs(10))
            .expect("response");
        seen.insert(request);
    }
    println!("all inserts acknowledged; reading one back...");
    let cmd = StoreCommand::Read {
        key: Bytes::from_static(b"key7"),
    };
    client.request(
        ProcessId::new(1),
        ClientId::new(1),
        100,
        vec![GroupId::new(0)],
        cmd.encode(),
    );
    let value = loop {
        let (_, request, payload) = client
            .responses()
            .recv_timeout(Duration::from_secs(10))
            .expect("read response");
        if request == 100 {
            let (_, resp) = StoreApp::unframe_response(&payload).expect("framed");
            break resp;
        }
    };
    println!("read(key7) -> {value:?}");
    assert_eq!(
        value,
        StoreResponse::Value(Some(Bytes::from_static(b"value7"))),
        "{kind}"
    );
    for h in handles {
        h.shutdown();
    }
    let _ = std::fs::remove_dir_all(&base);
    println!("done — write-ahead logs lived in {}", base.display());
}
