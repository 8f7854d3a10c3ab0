//! The replicated application: executes delivered commands against the
//! in-memory tree and answers clients.

use crate::command::StoreCommand;
use crate::kv::KvStore;
use bytes::{BufMut, Bytes, BytesMut};
use multiring_paxos::app::{decode_command, Application, Delivery, Reply};
use multiring_paxos::codec::get_u16;

/// The MRP-Store state machine hosted by an
/// [`EngineReplica`](mrp_amcast::EngineReplica).
///
/// Replies are tagged with the replica's partition id so clients can
/// collect "at least one response from every partition" for scans
/// (Section 7.2).
#[derive(Debug)]
pub struct StoreApp {
    partition: u16,
    kv: KvStore,
    executed: u64,
}

// A replica's state holds no cell: it may be shared between threads.
const _: () = {
    const fn sync<T: Sync>() {}
    sync::<KvStore>();
    sync::<StoreApp>();
};

impl StoreApp {
    /// An empty store app for `partition`.
    pub fn new(partition: u16) -> Self {
        Self {
            partition,
            kv: KvStore::new(),
            executed: 0,
        }
    }

    /// Pre-loads an entry (database initialization before the run). It
    /// is visible to every later command, `len` and `snapshot`. The
    /// loading thread pays for it — one comparison and a push when keys
    /// arrive in order — and nothing is built at the first `execute` on
    /// the replica's protocol thread (see [`KvStore::load`]).
    pub fn load(&mut self, key: Bytes, value: Bytes) {
        self.kv.load(key, value);
    }

    /// The partition this replica serves.
    pub fn partition(&self) -> u16 {
        self.partition
    }

    /// Entries currently stored.
    pub fn len(&self) -> usize {
        self.kv.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.kv.is_empty()
    }

    /// Commands executed.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Frames a reply payload: partition tag + encoded response.
    pub fn frame_response(partition: u16, response: &crate::command::StoreResponse) -> Bytes {
        let encoded = response.encode();
        let mut buf = BytesMut::with_capacity(2 + encoded.len());
        buf.put_u16_le(partition);
        buf.put_slice(&encoded);
        buf.freeze()
    }

    /// Splits a reply payload into partition tag + response.
    pub fn unframe_response(payload: &Bytes) -> Option<(u16, crate::command::StoreResponse)> {
        let mut rest = payload.clone();
        let partition = get_u16(&mut rest).ok()?;
        let response = crate::command::StoreResponse::decode(&mut rest)?;
        Some((partition, response))
    }
}

impl Application for StoreApp {
    fn execute(&mut self, delivery: &Delivery) -> Vec<Reply> {
        let Some((client, request, cmd_bytes)) = decode_command(delivery.value.payload.clone())
        else {
            return Vec::new();
        };
        let mut buf = cmd_bytes;
        let Some(cmd) = StoreCommand::decode(&mut buf) else {
            return Vec::new();
        };
        self.executed += 1;
        let response = self.kv.apply(&cmd);
        vec![Reply {
            client,
            request,
            payload: Self::frame_response(self.partition, &response),
        }]
    }

    fn snapshot(&self) -> Bytes {
        self.kv.snapshot()
    }

    fn restore(&mut self, snapshot: &Bytes) {
        self.kv.restore(snapshot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::StoreResponse;
    use multiring_paxos::app::encode_command;
    use multiring_paxos::types::{ClientId, GroupId, InstanceId, ProcessId, Value, ValueId};

    fn delivery(cmd: &StoreCommand) -> Delivery {
        let framed = encode_command(ClientId::new(5), 3, &cmd.encode());
        Delivery {
            group: GroupId::new(0),
            instance: InstanceId::new(1),
            value: Value::new(ValueId::new(ProcessId::new(1), 1), GroupId::new(0), framed),
        }
    }

    #[test]
    fn executes_and_tags_partition() {
        let mut app = StoreApp::new(2);
        let replies = app.execute(&delivery(&StoreCommand::Insert {
            key: Bytes::from_static(b"k"),
            value: Bytes::from_static(b"v"),
        }));
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].client, ClientId::new(5));
        assert_eq!(replies[0].request, 3);
        let (partition, response) = StoreApp::unframe_response(&replies[0].payload).unwrap();
        assert_eq!(partition, 2);
        assert_eq!(response, StoreResponse::Ok);
        assert_eq!(app.executed(), 1);
        assert_eq!(app.len(), 1);
    }

    #[test]
    fn snapshot_restore_preserves_state() {
        let mut app = StoreApp::new(0);
        app.load(Bytes::from_static(b"a"), Bytes::from_static(b"1"));
        let snap = app.snapshot();
        let mut fresh = StoreApp::new(0);
        fresh.restore(&snap);
        let replies = fresh.execute(&delivery(&StoreCommand::Read {
            key: Bytes::from_static(b"a"),
        }));
        let (_, response) = StoreApp::unframe_response(&replies[0].payload).unwrap();
        assert_eq!(
            response,
            StoreResponse::Value(Some(Bytes::from_static(b"1")))
        );
    }

    /// A client may send a scan whose bounds are inverted; every replica
    /// that delivers it must answer it, not panic.
    #[test]
    fn an_inverted_scan_from_a_client_answers_empty() {
        let mut app = StoreApp::new(1);
        for k in [&b"b"[..], b"m", b"z"] {
            app.load(Bytes::from_static(k), Bytes::from_static(b"v"));
        }
        let scan = StoreCommand::Scan {
            from: Bytes::from_static(b"z"),
            to: Bytes::from_static(b"b"),
            limit: 0,
        };
        let replies = app.execute(&delivery(&scan));
        let (partition, response) = StoreApp::unframe_response(&replies[0].payload).unwrap();
        assert_eq!(partition, 1);
        assert_eq!(response, StoreResponse::Entries(Vec::new()));
        let replies = app.execute(&delivery(&StoreCommand::Read {
            key: Bytes::from_static(b"m"),
        }));
        let (_, response) = StoreApp::unframe_response(&replies[0].payload).unwrap();
        assert_eq!(
            response,
            StoreResponse::Value(Some(Bytes::from_static(b"v")))
        );
    }

    #[test]
    fn garbage_payload_ignored() {
        let mut app = StoreApp::new(0);
        let d = Delivery {
            group: GroupId::new(0),
            instance: InstanceId::new(1),
            value: Value::new(
                ValueId::new(ProcessId::new(1), 1),
                GroupId::new(0),
                Bytes::from_static(b"junk"),
            ),
        };
        assert!(app.execute(&d).is_empty());
    }
}
