//! The in-memory tree every replica keeps (Section 7.2: "database
//! entries are stored in an in-memory tree at every replica").
//!
//! The store is filled in bulk twice in a replica's life — the preload
//! before a run and a peer's checkpoint after a restart — and both
//! arrive in key order. Those records are kept as they came, in one
//! sorted array that is searched in place: the loader pays one
//! comparison and a push per record, and nothing is built at the first
//! command. Each entry carries its key's first 16 bytes as an integer,
//! so a bisection compares integers and reads key bytes only on a tie
//! with a key longer than that.
//! Keys that do not fit the array's order — new ones from `Insert`, and
//! loads that arrive out of order — go to a `BTreeMap` beside it.

use crate::command::{StoreCommand, StoreResponse};
use bytes::{BufMut, Bytes, BytesMut};
use multiring_paxos::codec::{get_bytes, get_u64, put_bytes, CodecError};
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// A deterministic, snapshot-able key-value tree.
#[derive(Clone, Default, Debug)]
pub struct KvStore {
    /// Records bulk-loaded in ascending key order, as they arrived. A
    /// deleted key keeps its slot; no key here is also in `tree`.
    base: Vec<Entry>,
    /// Slots of `base` that hold a value.
    base_live: usize,
    /// Every other key.
    tree: BTreeMap<Bytes, Bytes>,
}

#[derive(Clone, Debug)]
struct Entry {
    /// [`prefix`] of `key`.
    prefix: u128,
    key: Bytes,
    value: Option<Bytes>,
}

/// The key's first 16 bytes, zero-padded, as a big-endian integer: if
/// `prefix(a) < prefix(b)` then `a < b`, and equal prefixes leave the
/// order to the lengths and the bytes after the 16th.
fn prefix(key: &[u8]) -> u128 {
    if let Some(head) = key.first_chunk() {
        return u128::from_be_bytes(*head);
    }
    let mut head = [0; 16];
    head[..key.len()].copy_from_slice(key);
    u128::from_be_bytes(head)
}

impl Entry {
    /// How this entry's key orders against `key`, whose prefix is `p`.
    /// On a tie between two keys of at most 16 bytes the shorter one is
    /// the smaller (the longer only adds zero bytes), so the key bytes
    /// are read only when one of them is longer.
    fn cmp_key(&self, p: u128, key: &[u8]) -> Ordering {
        self.prefix.cmp(&p).then_with(|| {
            if self.key.len() <= 16 && key.len() <= 16 {
                self.key.len().cmp(&key.len())
            } else {
                self.key[..].cmp(key)
            }
        })
    }
}

impl KvStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.base_live + self.tree.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Direct insert (used for bulk loading): `key` maps to `value` for
    /// every later operation, exactly as if it had been inserted now.
    ///
    /// A key above every bulk-loaded one costs one comparison and a
    /// push, so a preload in key order — what `bench/`, the figures and
    /// [`snapshot`](KvStore::snapshot) produce — builds nothing, on this
    /// thread or at the first command. Any other key is looked up and
    /// set in place, or goes to the tree.
    pub fn load(&mut self, key: Bytes, value: Bytes) {
        let p = prefix(&key);
        let above = self
            .base
            .last()
            .is_none_or(|last| last.cmp_key(p, &key) == Ordering::Less);
        if above {
            self.tree.remove(&key);
            self.base.push(Entry {
                prefix: p,
                key,
                value: Some(value),
            });
            self.base_live += 1;
        } else {
            self.set(key, value);
        }
    }

    /// Maps `key` to `value` in its base slot if it has one, else in the
    /// tree.
    fn set(&mut self, key: Bytes, value: Bytes) {
        match self.find(&key) {
            Ok(i) => {
                self.base_live += usize::from(self.base[i].value.is_none());
                self.base[i].value = Some(value);
            }
            Err(_) => {
                self.tree.insert(key, value);
            }
        }
    }

    /// `key`'s slot in the base, or where it would go.
    fn find(&self, key: &[u8]) -> Result<usize, usize> {
        let p = prefix(key);
        self.base.binary_search_by(|e| e.cmp_key(p, key))
    }

    /// Executes one command deterministically.
    pub fn apply(&mut self, cmd: &StoreCommand) -> StoreResponse {
        match cmd {
            StoreCommand::Read { key } => StoreResponse::Value(match self.find(key) {
                Ok(i) => self.base[i].value.clone(),
                Err(_) => self.tree.get(key).cloned(),
            }),
            StoreCommand::Scan { from, to, limit } => {
                if from > to {
                    return StoreResponse::Entries(Vec::new());
                }
                let (pf, pt) = (prefix(from), prefix(to));
                let lo = self.base.partition_point(|e| e.cmp_key(pf, from).is_lt());
                let hi = self.base.partition_point(|e| e.cmp_key(pt, to).is_le());
                let limit = if *limit == 0 {
                    usize::MAX
                } else {
                    *limit as usize
                };
                let tree = self.tree.range(from.clone()..=to.clone());
                StoreResponse::Entries(
                    merged(&self.base[lo..hi], tree)
                        .take(limit)
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect(),
                )
            }
            StoreCommand::Update { key, value } => {
                let slot = match self.find(key) {
                    Ok(i) => self.base[i].value.as_mut(),
                    Err(_) => self.tree.get_mut(key),
                };
                if let Some(v) = slot {
                    *v = value.clone();
                    StoreResponse::Ok
                } else {
                    StoreResponse::Miss
                }
            }
            StoreCommand::Insert { key, value } => {
                self.set(key.clone(), value.clone());
                StoreResponse::Ok
            }
            StoreCommand::Delete { key } => {
                let removed = match self.find(key) {
                    Ok(i) => {
                        let removed = self.base[i].value.take().is_some();
                        self.base_live -= usize::from(removed);
                        removed
                    }
                    Err(_) => self.tree.remove(key).is_some(),
                };
                if removed {
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
        buf.put_u64_le(self.len() as u64);
        for (k, v) in merged(&self.base, self.tree.iter()) {
            put_bytes(&mut buf, k);
            put_bytes(&mut buf, v);
        }
        buf.freeze()
    }

    /// Replaces the tree from a snapshot; silently ignores a malformed
    /// tail (snapshots are always produced by [`KvStore::snapshot`]).
    /// Entries need not be sorted or distinct — a later one replaces an
    /// earlier one with its key — and a sorted snapshot, which is what
    /// `snapshot` writes, is [`load`](KvStore::load)ed at one comparison
    /// and a push per entry.
    pub fn restore(&mut self, snapshot: &Bytes) {
        *self = Self::default();
        let _ = self.load_entries(&mut snapshot.clone());
    }

    /// Loads the snapshot's entries, up to the first that does not
    /// decode.
    fn load_entries(&mut self, buf: &mut Bytes) -> Result<(), CodecError> {
        for _ in 0..get_u64(buf)? {
            let (key, value) = (get_bytes(buf)?, get_bytes(buf)?);
            self.load(key, value);
        }
        Ok(())
    }
}

/// The entries of `base` that hold a value and those of `tree`, in key
/// order; the two share no key.
fn merged<'a>(
    base: &'a [Entry],
    tree: impl Iterator<Item = (&'a Bytes, &'a Bytes)>,
) -> impl Iterator<Item = (&'a Bytes, &'a Bytes)> {
    let mut base = base
        .iter()
        .filter_map(|e| Some((&e.key, e.value.as_ref()?)))
        .peekable();
    let mut tree = tree.peekable();
    std::iter::from_fn(move || match (base.peek(), tree.peek()) {
        (Some(b), Some(t)) if t.0 < b.0 => tree.next(),
        (Some(_), _) => base.next(),
        (None, _) => tree.next(),
    })
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

    /// The reference the store is held to: the store as it was before
    /// bulk loading, every pair inserted into one tree on arrival, and
    /// an inverted scan answered empty.
    #[derive(Default)]
    struct Model(BTreeMap<Bytes, Bytes>);

    impl Model {
        fn apply(&mut self, cmd: &StoreCommand) -> StoreResponse {
            match cmd {
                StoreCommand::Read { key } => StoreResponse::Value(self.0.get(key).cloned()),
                StoreCommand::Scan { from, to, .. } if from > to => {
                    StoreResponse::Entries(Vec::new())
                }
                StoreCommand::Scan { from, to, limit } => StoreResponse::Entries(
                    self.0
                        .range(from.clone()..=to.clone())
                        .take(if *limit == 0 {
                            usize::MAX
                        } else {
                            *limit as usize
                        })
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect(),
                ),
                StoreCommand::Update { key, value } => match self.0.get_mut(key) {
                    Some(v) => {
                        *v = value.clone();
                        StoreResponse::Ok
                    }
                    None => StoreResponse::Miss,
                },
                StoreCommand::Insert { key, value } => {
                    self.0.insert(key.clone(), value.clone());
                    StoreResponse::Ok
                }
                StoreCommand::Delete { key } => match self.0.remove(key) {
                    Some(_) => StoreResponse::Ok,
                    None => StoreResponse::Miss,
                },
                StoreCommand::Batch(cmds) => {
                    StoreResponse::Batch(cmds.iter().map(|c| self.apply(c)).collect())
                }
            }
        }

        fn snapshot(&self) -> Bytes {
            encode_snapshot(self.0.len() as u64, self.0.iter())
        }

        fn restore(&mut self, snapshot: &Bytes) {
            self.0.clear();
            let buf = &mut snapshot.clone();
            let Ok(n) = get_u64(buf) else { return };
            for _ in 0..n {
                let (Ok(k), Ok(v)) = (get_bytes(buf), get_bytes(buf)) else {
                    return;
                };
                self.0.insert(k, v);
            }
        }
    }

    /// A snapshot announcing `count` entries and holding `entries`, in
    /// the order given.
    fn encode_snapshot<'a>(
        count: u64,
        entries: impl IntoIterator<Item = (&'a Bytes, &'a Bytes)>,
    ) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_u64_le(count);
        for (k, v) in entries {
            put_bytes(&mut buf, k);
            put_bytes(&mut buf, v);
        }
        buf.freeze()
    }

    /// Keys that order the same by their 16-byte prefix and by their
    /// bytes only if the tie-break is right: longer than 16 bytes with
    /// the first 16 shared, differing only by trailing zero bytes, and
    /// empty. Ascending; few enough that a short sequence repeats some.
    const KEYS: [&[u8]; 20] = [
        b"",
        b"\0",
        b"a",
        b"a\0",
        b"a\0\0",
        b"a\x01",
        b"k00",
        b"k01",
        b"k02",
        b"k03",
        b"k04",
        b"k05",
        b"sixteen-byte-key",
        b"sixteen-byte-key\0",
        b"sixteen-byte-key\0\0",
        b"sixteen-byte-key0",
        b"sixteen-byte-key1",
        b"sixteen-byte-kez",
        b"user000000000000",
        b"user000000000001",
    ];

    fn key(x: u64) -> Bytes {
        Bytes::from_static(KEYS[x as usize % KEYS.len()])
    }

    fn value(x: u64) -> Bytes {
        Bytes::from(format!("v{}", x % 1000))
    }

    /// One command of the variant `x % 6` picks, operands from the rest
    /// of `x`; a batch holds one of each other variant.
    fn command(x: u64) -> StoreCommand {
        let (a, b) = (x >> 8, x >> 20);
        match x % 6 {
            0 => StoreCommand::Read { key: key(a) },
            // Inverted bounds in about half the cases.
            1 => StoreCommand::Scan {
                from: key(a),
                to: key(b),
                limit: (x >> 32) as u32 % 4,
            },
            2 => StoreCommand::Update {
                key: key(a),
                value: value(b),
            },
            3 => StoreCommand::Insert {
                key: key(a),
                value: value(b),
            },
            4 => StoreCommand::Delete { key: key(a) },
            _ => StoreCommand::Batch((0..5).map(|i| command((x >> 8) * 6 + i)).collect()),
        }
    }

    /// Does to both what `x` says and compares whatever comes back.
    fn step(kv: &mut KvStore, model: &mut Model, x: u64) {
        let (a, b) = (x >> 8, x >> 20);
        match x % 16 {
            // Half of all steps load.
            0..=3 => {
                kv.load(key(a), value(b));
                model.0.insert(key(a), value(b));
            }
            // An ascending run, which lands in the base wherever it
            // starts above the base's last key.
            4 | 5 => {
                for i in a % 20..a % 20 + b % 12 {
                    kv.load(key(i), value(b + i));
                    model.0.insert(key(i), value(b + i));
                }
            }
            // A descending run: every load after the first is out of order.
            6 | 7 => {
                for i in (0..a % 20).rev() {
                    kv.load(key(i), value(b + i));
                    model.0.insert(key(i), value(b + i));
                }
            }
            8..=11 => assert_eq!(kv.apply(&command(a)), model.apply(&command(a))),
            12 => {
                assert_eq!(kv.len(), model.0.len());
                assert_eq!(kv.is_empty(), model.0.is_empty());
            }
            13 => assert_eq!(kv.snapshot(), model.snapshot()),
            // A peer's snapshot: unsorted and with keys repeated, or
            // sorted as `snapshot` writes it; in half the cases cut short
            // somewhere.
            _ => {
                let mut entries: Vec<(Bytes, Bytes)> =
                    (0..a % 9).map(|i| (key(b >> i), value(b + i))).collect();
                if x & 32 == 0 {
                    entries.sort_by(|p, q| p.0.cmp(&q.0));
                    entries.dedup_by(|p, q| p.0 == q.0);
                }
                let whole =
                    encode_snapshot(entries.len() as u64, entries.iter().map(|(k, v)| (k, v)));
                let cut = if x & 16 == 0 {
                    whole.len()
                } else {
                    (x >> 40) as usize % (whole.len() + 1)
                };
                let snapshot = whole.slice(..cut);
                kv.restore(&snapshot);
                model.restore(&snapshot);
            }
        }
    }

    proptest::proptest! {
        /// Whatever is loaded, applied, asked and restored, in whatever
        /// order, the base and tree answer as the insert-on-arrival tree
        /// does, down to the snapshot bytes.
        #[test]
        fn bulk_loaded_store_equals_inserting_on_arrival(
            steps in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..120),
        ) {
            let (mut kv, mut model) = (KvStore::new(), Model::default());
            for &x in &steps {
                step(&mut kv, &mut model, x);
            }
            assert_eq!(kv.snapshot(), model.snapshot());
            assert_eq!(kv.len(), model.0.len());
        }
    }

    /// Keys around the 16-byte prefix boundary, loaded in byte order,
    /// all land in the base, and scans and snapshots return them in
    /// byte order.
    #[test]
    fn the_prefix_orders_keys_as_their_bytes_do() {
        let keys: [&[u8]; 8] = [
            b"0123456789abcde",
            b"0123456789abcde\0",
            b"0123456789abcdef",
            b"0123456789abcdef\0",
            b"0123456789abcdef\x01",
            b"0123456789abcdef\xff",
            b"0123456789abcdeg",
            b"0123456789abcdeg\0",
        ];
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        let mut kv = KvStore::new();
        for (i, k) in keys.iter().enumerate() {
            kv.load(Bytes::from_static(k), Bytes::from(vec![i as u8]));
        }
        assert!(kv.tree.is_empty(), "every key landed in the base");
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(
                kv.apply(&StoreCommand::Read {
                    key: Bytes::from_static(k)
                }),
                StoreResponse::Value(Some(Bytes::from(vec![i as u8])))
            );
        }
        let StoreResponse::Entries(es) = kv.apply(&StoreCommand::Scan {
            from: Bytes::from_static(keys[1]),
            to: Bytes::from_static(keys[5]),
            limit: 0,
        }) else {
            panic!("a scan answers entries")
        };
        let got: Vec<&[u8]> = es.iter().map(|(k, _)| &k[..]).collect();
        assert_eq!(got, keys[1..=5]);
        let mut model = Model::default();
        for (i, k) in keys.iter().enumerate().rev() {
            model
                .0
                .insert(Bytes::from_static(k), Bytes::from(vec![i as u8]));
        }
        assert_eq!(kv.snapshot(), model.snapshot());
    }

    #[test]
    fn same_key_loaded_twice_last_wins() {
        let mut kv = KvStore::new();
        kv.load(b("k"), b("first"));
        kv.load(b("a"), b("other"));
        kv.load(b("k"), b("second"));
        assert_eq!(kv.len(), 2);
        assert_eq!(
            kv.apply(&StoreCommand::Read { key: b("k") }),
            StoreResponse::Value(Some(b("second")))
        );
    }

    #[test]
    fn load_after_apply_is_visible_to_the_next_read() {
        let mut kv = KvStore::new();
        kv.load(b("a"), b("1"));
        let insert = StoreCommand::Insert {
            key: b("b"),
            value: b("applied"),
        };
        assert_eq!(kv.apply(&insert), StoreResponse::Ok);
        kv.load(b("b"), b("loaded"));
        kv.load(b("c"), b("3"));
        assert_eq!(
            kv.apply(&StoreCommand::Read { key: b("b") }),
            StoreResponse::Value(Some(b("loaded")))
        );
        assert_eq!(kv.len(), 3);
    }

    #[test]
    fn snapshot_and_len_on_a_shared_reference_see_what_was_just_loaded() {
        let mut kv = KvStore::new();
        kv.load(b("b"), b("two"));
        kv.load(b("a"), b(""));
        let shared = &kv;
        assert!(!shared.is_empty());
        assert_eq!(shared.len(), 2);
        let mut model = Model::default();
        model.0.insert(b("b"), b("two"));
        model.0.insert(b("a"), b(""));
        assert_eq!(shared.snapshot(), model.snapshot());
        // A copy taken before anything read the original has them too.
        let mut fresh = KvStore::new();
        fresh.load(b("x"), b("y"));
        assert_eq!(fresh.clone().len(), 1);
    }

    #[test]
    fn restore_of_unsorted_and_repeated_entries_equals_inserting_them_in_order() {
        let entries = [
            (b("m"), b("1")),
            (b("c"), b("2")),
            (b("m"), b("3")),
            (b("a"), b("4")),
            (b("c"), b("5")),
        ];
        let snapshot = encode_snapshot(5, entries.iter().map(|(k, v)| (k, v)));
        let mut kv = KvStore::new();
        kv.load(b("gone"), b("x"));
        kv.restore(&snapshot);
        let mut model = Model::default();
        model.restore(&snapshot);
        assert_eq!(model.0.len(), 3);
        assert_eq!(kv.snapshot(), model.snapshot());
        assert_eq!(
            kv.apply(&StoreCommand::Read { key: b("m") }),
            StoreResponse::Value(Some(b("3")))
        );
    }

    /// A store of distinct keys with values of uneven length (some
    /// empty), its snapshot, and the offset at which each entry ends.
    fn sample_entries(seed: u64) -> (Vec<(Bytes, Bytes)>, Bytes, Vec<usize>) {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let entries: Vec<(Bytes, Bytes)> = (0..2 + next() % 18)
            .map(|i| {
                let value = vec![b'a' + (next() % 26) as u8; (next() % 12) as usize];
                (b(&format!("key{i:02}")), Bytes::from(value))
            })
            .collect();
        let mut end = 8;
        let ends = entries
            .iter()
            .map(|(k, v)| {
                end += 4 + k.len() + 4 + v.len();
                end
            })
            .collect();
        let snapshot = encode_snapshot(entries.len() as u64, entries.iter().map(|(k, v)| (k, v)));
        (entries, snapshot, ends)
    }

    /// The documented behaviour on a snapshot cut short: exactly the
    /// entries wholly before the cut are restored (and what was there
    /// before is gone), nothing panics.
    #[test]
    fn restore_of_every_strict_prefix_keeps_the_entries_before_the_cut() {
        let (entries, snapshot, ends) = sample_entries(17);
        assert_eq!(ends.last(), Some(&snapshot.len()));
        for cut in 0..snapshot.len() {
            let mut kv = KvStore::new();
            kv.load(b("old"), b("x"));
            kv.restore(&snapshot.slice(..cut));
            let whole = ends.iter().filter(|&&end| end <= cut).count();
            let kept = &entries[..whole];
            assert_eq!(
                kv.snapshot(),
                encode_snapshot(whole as u64, kept.iter().map(|(k, v)| (k, v))),
                "cut at {cut}"
            );
        }
    }

    proptest::proptest! {
        /// A peer-supplied snapshot with a run of noise laid over it —
        /// uniform bytes, or bytes of the snapshot itself from somewhere
        /// else, which reads as plausible counts, lengths and keys in
        /// the wrong places — never panics and restores what inserting
        /// the decodable entries one by one would. Every key wholly
        /// before the damage is there, and holds its own value unless
        /// the damaged rest names that key again (a later entry
        /// replaces an earlier one, as in a sound snapshot).
        #[test]
        fn prop_restore_of_a_damaged_snapshot_keeps_the_entries_before_the_damage(
            seed in proptest::prelude::any::<u64>(),
            at in proptest::prelude::any::<u64>(),
            from in proptest::prelude::any::<u64>(),
            noise in proptest::collection::vec(proptest::prelude::any::<u8>(), 1..48),
            uniform in proptest::prelude::any::<bool>(),
        ) {
            let (entries, snapshot, ends) = sample_entries(seed);
            let mut bytes = snapshot.to_vec();
            let at = at as usize % bytes.len();
            let from = from as usize % bytes.len();
            for i in 0..noise.len().min(bytes.len() - at) {
                bytes[at + i] = if uniform { noise[i] } else { snapshot[(from + i) % snapshot.len()] };
            }
            let damaged = Bytes::from(bytes);
            let mut kv = KvStore::new();
            kv.restore(&damaged);
            let mut model = Model::default();
            model.restore(&damaged);
            proptest::prop_assert_eq!(kv.snapshot(), model.snapshot());
            let whole = ends.iter().filter(|&&end| end <= at).count();
            let rest = &damaged[ends[..whole].last().copied().unwrap_or(8)..];
            for (key, value) in &entries[..whole] {
                let got = kv.apply(&StoreCommand::Read { key: key.clone() });
                let named_again = rest.windows(key.len()).any(|w| w == &key[..]);
                proptest::prop_assert!(
                    got == StoreResponse::Value(Some(value.clone()))
                        || (named_again && matches!(got, StoreResponse::Value(Some(_)))),
                    "{:?} before the damage at {} reads {:?}", key, at, got
                );
            }
        }
    }
}
