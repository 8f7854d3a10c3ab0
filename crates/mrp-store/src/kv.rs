//! The in-memory tree every replica keeps (Section 7.2: "database
//! entries are stored in an in-memory tree at every replica").

use crate::command::{StoreCommand, StoreResponse};
use bytes::{BufMut, Bytes, BytesMut};
use multiring_paxos::codec::{get_bytes, get_u64, put_bytes, CodecError};
use std::collections::BTreeMap;

/// A deterministic, snapshot-able key-value tree.
#[derive(Clone, Default, Debug)]
pub struct KvStore {
    entries: BTreeMap<Bytes, Bytes>,
}

impl KvStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Direct insert (used for bulk loading).
    pub fn load(&mut self, key: Bytes, value: Bytes) {
        self.entries.insert(key, value);
    }

    /// Executes one command deterministically.
    pub fn apply(&mut self, cmd: &StoreCommand) -> StoreResponse {
        match cmd {
            StoreCommand::Read { key } => StoreResponse::Value(self.entries.get(key).cloned()),
            StoreCommand::Scan { from, to, limit } => {
                let mut out = Vec::new();
                for (k, v) in self.entries.range(from.clone()..=to.clone()) {
                    if *limit > 0 && out.len() as u32 >= *limit {
                        break;
                    }
                    out.push((k.clone(), v.clone()));
                }
                StoreResponse::Entries(out)
            }
            StoreCommand::Update { key, value } => {
                if let Some(v) = self.entries.get_mut(key) {
                    *v = value.clone();
                    StoreResponse::Ok
                } else {
                    StoreResponse::Miss
                }
            }
            StoreCommand::Insert { key, value } => {
                self.entries.insert(key.clone(), value.clone());
                StoreResponse::Ok
            }
            StoreCommand::Delete { key } => {
                if self.entries.remove(key).is_some() {
                    StoreResponse::Ok
                } else {
                    StoreResponse::Miss
                }
            }
            StoreCommand::Batch(cmds) => {
                StoreResponse::Batch(cmds.iter().map(|c| self.apply(c)).collect())
            }
        }
    }

    /// Serializes the whole tree (checkpointing).
    pub fn snapshot(&self) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_u64_le(self.entries.len() as u64);
        for (k, v) in &self.entries {
            put_bytes(&mut buf, k);
            put_bytes(&mut buf, v);
        }
        buf.freeze()
    }

    /// Replaces the tree from a snapshot; silently ignores a malformed
    /// tail (snapshots are always produced by [`KvStore::snapshot`]).
    pub fn restore(&mut self, snapshot: &Bytes) {
        self.entries.clear();
        let _ = self.read_entries(&mut snapshot.clone());
    }

    fn read_entries(&mut self, buf: &mut Bytes) -> Result<(), CodecError> {
        for _ in 0..get_u64(buf)? {
            let (k, v) = (get_bytes(buf)?, get_bytes(buf)?);
            self.entries.insert(k, v);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::from(s.to_string())
    }

    #[test]
    fn crud_semantics() {
        let mut kv = KvStore::new();
        assert_eq!(
            kv.apply(&StoreCommand::Read { key: b("x") }),
            StoreResponse::Value(None)
        );
        assert_eq!(
            kv.apply(&StoreCommand::Update {
                key: b("x"),
                value: b("1")
            }),
            StoreResponse::Miss,
            "update requires existence"
        );
        assert_eq!(
            kv.apply(&StoreCommand::Insert {
                key: b("x"),
                value: b("1")
            }),
            StoreResponse::Ok
        );
        assert_eq!(
            kv.apply(&StoreCommand::Update {
                key: b("x"),
                value: b("2")
            }),
            StoreResponse::Ok
        );
        assert_eq!(
            kv.apply(&StoreCommand::Read { key: b("x") }),
            StoreResponse::Value(Some(b("2")))
        );
        assert_eq!(
            kv.apply(&StoreCommand::Delete { key: b("x") }),
            StoreResponse::Ok
        );
        assert_eq!(
            kv.apply(&StoreCommand::Delete { key: b("x") }),
            StoreResponse::Miss
        );
    }

    #[test]
    fn scan_respects_range_and_limit() {
        let mut kv = KvStore::new();
        for k in ["a", "b", "c", "d", "e"] {
            kv.load(b(k), b(&format!("v{k}")));
        }
        let r = kv.apply(&StoreCommand::Scan {
            from: b("b"),
            to: b("d"),
            limit: 0,
        });
        match r {
            StoreResponse::Entries(es) => {
                let keys: Vec<&[u8]> = es.iter().map(|(k, _)| k.as_ref()).collect();
                assert_eq!(keys, vec![b"b", b"c", b"d"]);
            }
            other => panic!("unexpected {other:?}"),
        }
        let r = kv.apply(&StoreCommand::Scan {
            from: b("a"),
            to: b("z"),
            limit: 2,
        });
        assert!(matches!(r, StoreResponse::Entries(es) if es.len() == 2));
    }

    #[test]
    fn batch_executes_in_order() {
        let mut kv = KvStore::new();
        let r = kv.apply(&StoreCommand::Batch(vec![
            StoreCommand::Insert {
                key: b("k"),
                value: b("1"),
            },
            StoreCommand::Read { key: b("k") },
            StoreCommand::Delete { key: b("k") },
            StoreCommand::Read { key: b("k") },
        ]));
        assert_eq!(
            r,
            StoreResponse::Batch(vec![
                StoreResponse::Ok,
                StoreResponse::Value(Some(b("1"))),
                StoreResponse::Ok,
                StoreResponse::Value(None),
            ])
        );
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut kv = KvStore::new();
        for i in 0..100 {
            kv.load(b(&format!("key{i:03}")), b(&format!("val{i}")));
        }
        let snap = kv.snapshot();
        let mut fresh = KvStore::new();
        fresh.restore(&snap);
        assert_eq!(fresh.len(), 100);
        assert_eq!(
            fresh.apply(&StoreCommand::Read { key: b("key042") }),
            StoreResponse::Value(Some(b("val42")))
        );
    }

    /// The snapshot is what a checkpoint persists and a recovering peer
    /// fetches: a durable format, pinned before the codec rewrite.
    #[test]
    fn snapshot_encodes_to_the_pinned_bytes() {
        let mut kv = KvStore::new();
        kv.load(b("b"), b("two"));
        kv.load(b("a"), b(""));
        let hex: String = kv.snapshot().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "020000000000000001000000610000000001000000620300000074776f"
        );
    }

    #[test]
    fn restore_replaces_existing_state() {
        let mut a = KvStore::new();
        a.load(b("old"), b("x"));
        let mut b2 = KvStore::new();
        b2.load(b("new"), b("y"));
        a.restore(&b2.snapshot());
        assert_eq!(a.len(), 1);
        assert_eq!(
            a.apply(&StoreCommand::Read { key: b("old") }),
            StoreResponse::Value(None)
        );
    }
}
