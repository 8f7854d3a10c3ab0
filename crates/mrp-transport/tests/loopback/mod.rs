//! Loopback clusters of runtimes on fresh ports, for the tests that
//! start several runtimes at once.

use mrp_transport::tcp::{ClientPort, RuntimeConfig, RuntimeHandle};
use multiring_paxos::types::{ClientId, ProcessId};
use std::collections::BTreeMap;
use std::io::{self, ErrorKind};
use std::net::{SocketAddr, TcpListener};

/// The process of the client port [`start`] binds; client session 1
/// lives there.
pub const CLIENT_PROC: ProcessId = ProcessId::new(50);

/// Starts after which a lost port fails the test.
const PORT_RETRIES: usize = 5;

/// A port picked by binding port 0 and letting go of it again.
pub fn free_addr() -> SocketAddr {
    let l = TcpListener::bind("127.0.0.1:0").expect("bind");
    l.local_addr().expect("addr")
}

/// Starts processes `0..servers`, each by `spawn` from its
/// configuration (every server and [`CLIENT_PROC`] as peers, client
/// session 1 homed at [`CLIENT_PROC`]), then a client port at
/// [`CLIENT_PROC`]. Returns the runtimes, the client port and every
/// listen address, the client's last.
///
/// A runtime takes an address, not a listener, so each port is picked
/// with [`free_addr`]: until its server binds it, an outbound connection
/// of a runtime already started may take it as its local port, and the
/// bind fails with `AddrInUse`. What was started is then shut down and
/// the cluster started again on fresh ports, at most [`PORT_RETRIES`]
/// times.
pub fn start(
    servers: u32,
    mut spawn: impl FnMut(ProcessId, RuntimeConfig) -> io::Result<RuntimeHandle>,
) -> (Vec<RuntimeHandle>, ClientPort, Vec<SocketAddr>) {
    let mut collisions = 0;
    loop {
        let addrs: Vec<SocketAddr> = (0..=servers).map(|_| free_addr()).collect();
        let mut peers: BTreeMap<ProcessId, SocketAddr> = (0..servers)
            .map(|i| (ProcessId::new(i), addrs[i as usize]))
            .collect();
        peers.insert(CLIENT_PROC, addrs[servers as usize]);
        let mut handles = Vec::new();
        let started = (0..servers)
            .try_for_each(|i| {
                let p = ProcessId::new(i);
                let mut rc = RuntimeConfig::new(p, addrs[i as usize]);
                rc.peers = peers.clone();
                rc.clients = BTreeMap::from([(ClientId::new(1), CLIENT_PROC)]);
                handles.push(spawn(p, rc)?);
                Ok(())
            })
            .and_then(|()| ClientPort::bind(CLIENT_PROC, addrs[servers as usize], peers));
        match started {
            Ok(client) => return (handles, client, addrs),
            Err(e) if e.kind() == ErrorKind::AddrInUse && collisions < PORT_RETRIES => {
                collisions += 1;
                for h in handles {
                    h.shutdown();
                }
            }
            Err(e) => panic!("start: {e}"),
        }
    }
}
