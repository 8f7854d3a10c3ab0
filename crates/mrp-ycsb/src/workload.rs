//! The YCSB core workloads A–F.

use crate::generator::{KeyChooser, SmallRng};

/// One generated operation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum YcsbOp {
    /// Read one record.
    Read {
        /// Record key.
        key: String,
    },
    /// Update one record with a fresh value.
    Update {
        /// Record key.
        key: String,
        /// New field value.
        value: Vec<u8>,
    },
    /// Insert a new record.
    Insert {
        /// Record key.
        key: String,
        /// Field value.
        value: Vec<u8>,
    },
    /// Short range scan.
    Scan {
        /// Start key.
        key: String,
        /// Records to read.
        len: u32,
    },
    /// Read-modify-write one record.
    ReadModifyWrite {
        /// Record key.
        key: String,
        /// New field value.
        value: Vec<u8>,
    },
}

/// The six standard core workloads.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum WorkloadKind {
    /// 50% reads / 50% updates, zipfian ("update heavy").
    A,
    /// 95% reads / 5% updates, zipfian ("read mostly").
    B,
    /// 100% reads, zipfian ("read only").
    C,
    /// 95% reads / 5% inserts, latest ("read latest").
    D,
    /// 95% scans / 5% inserts, zipfian ("short ranges").
    E,
    /// 50% reads / 50% read-modify-writes, zipfian.
    F,
}

impl WorkloadKind {
    /// All six, in order.
    pub fn all() -> [WorkloadKind; 6] {
        [
            WorkloadKind::A,
            WorkloadKind::B,
            WorkloadKind::C,
            WorkloadKind::D,
            WorkloadKind::E,
            WorkloadKind::F,
        ]
    }

    /// The canonical letter.
    pub fn letter(self) -> char {
        match self {
            WorkloadKind::A => 'A',
            WorkloadKind::B => 'B',
            WorkloadKind::C => 'C',
            WorkloadKind::D => 'D',
            WorkloadKind::E => 'E',
            WorkloadKind::F => 'F',
        }
    }
}

/// Formats the canonical YCSB key for an index: `user` and the index in
/// decimal, zero-padded to twelve digits (an index of more has them all).
/// Every generated operation makes one, so the digits are written by
/// hand; `format!("user{index:012}")` costs three times as much.
pub fn key_for(index: u64) -> String {
    if index >= 1_000_000_000_000 {
        return format!("user{index}");
    }
    let mut key = *b"user000000000000";
    let mut rest = index;
    for digit in key[4..].iter_mut().rev() {
        *digit += (rest % 10) as u8;
        rest /= 10;
    }
    String::from_utf8(key.to_vec()).expect("ASCII")
}

/// A running workload: draws operations according to the mix.
#[derive(Debug)]
pub struct Workload {
    kind: WorkloadKind,
    chooser: KeyChooser,
    rng: SmallRng,
    value_bytes: usize,
    inserted: u64,
    max_scan_len: u32,
}

impl Workload {
    /// Creates workload `kind` over `records` preloaded records with
    /// `value_bytes` values.
    pub fn new(kind: WorkloadKind, records: u64, value_bytes: usize, seed: u64) -> Self {
        let chooser = match kind {
            WorkloadKind::D => KeyChooser::latest(records),
            _ => KeyChooser::scrambled_zipfian(records),
        };
        Self {
            kind,
            chooser,
            rng: SmallRng::new(seed),
            value_bytes,
            inserted: records,
            max_scan_len: 100,
        }
    }

    /// The workload kind.
    pub fn kind(&self) -> WorkloadKind {
        self.kind
    }

    fn value(&mut self) -> Vec<u8> {
        let mut v = vec![0u8; self.value_bytes];
        for chunk in v.chunks_mut(8) {
            let r = self.rng.next_u64().to_le_bytes();
            chunk.copy_from_slice(&r[..chunk.len()]);
        }
        v
    }

    fn existing_key(&mut self) -> String {
        key_for(self.chooser.next(&mut self.rng))
    }

    fn insert_op(&mut self) -> YcsbOp {
        let key = key_for(self.inserted);
        self.inserted += 1;
        self.chooser.grow();
        let value = self.value();
        YcsbOp::Insert { key, value }
    }

    /// Draws the next operation.
    pub fn next_op(&mut self) -> YcsbOp {
        let roll = self.rng.below(100);
        match self.kind {
            WorkloadKind::A => {
                if roll < 50 {
                    YcsbOp::Read {
                        key: self.existing_key(),
                    }
                } else {
                    let key = self.existing_key();
                    let value = self.value();
                    YcsbOp::Update { key, value }
                }
            }
            WorkloadKind::B => {
                if roll < 95 {
                    YcsbOp::Read {
                        key: self.existing_key(),
                    }
                } else {
                    let key = self.existing_key();
                    let value = self.value();
                    YcsbOp::Update { key, value }
                }
            }
            WorkloadKind::C => YcsbOp::Read {
                key: self.existing_key(),
            },
            WorkloadKind::D => {
                if roll < 95 {
                    YcsbOp::Read {
                        key: self.existing_key(),
                    }
                } else {
                    self.insert_op()
                }
            }
            WorkloadKind::E => {
                if roll < 95 {
                    let key = self.existing_key();
                    let len = 1 + self.rng.below(u64::from(self.max_scan_len)) as u32;
                    YcsbOp::Scan { key, len }
                } else {
                    self.insert_op()
                }
            }
            WorkloadKind::F => {
                if roll < 50 {
                    YcsbOp::Read {
                        key: self.existing_key(),
                    }
                } else {
                    let key = self.existing_key();
                    let value = self.value();
                    YcsbOp::ReadModifyWrite { key, value }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix(kind: WorkloadKind, n: usize) -> std::collections::BTreeMap<&'static str, usize> {
        let mut w = Workload::new(kind, 1000, 32, 42);
        let mut counts = std::collections::BTreeMap::new();
        for _ in 0..n {
            let tag = match w.next_op() {
                YcsbOp::Read { .. } => "read",
                YcsbOp::Update { .. } => "update",
                YcsbOp::Insert { .. } => "insert",
                YcsbOp::Scan { .. } => "scan",
                YcsbOp::ReadModifyWrite { .. } => "rmw",
            };
            *counts.entry(tag).or_insert(0) += 1;
        }
        counts
    }

    #[test]
    fn workload_a_mix() {
        let m = mix(WorkloadKind::A, 10_000);
        let reads = m["read"] as f64 / 10_000.0;
        assert!((reads - 0.5).abs() < 0.05, "reads {reads}");
        assert!(m.contains_key("update"));
        assert!(!m.contains_key("scan"));
    }

    #[test]
    fn workload_c_is_read_only() {
        let m = mix(WorkloadKind::C, 1000);
        assert_eq!(m.len(), 1);
        assert_eq!(m["read"], 1000);
    }

    #[test]
    fn workload_d_inserts_and_reads() {
        let m = mix(WorkloadKind::D, 10_000);
        let inserts = m["insert"] as f64 / 10_000.0;
        assert!((inserts - 0.05).abs() < 0.02, "inserts {inserts}");
    }

    #[test]
    fn workload_e_scans() {
        let m = mix(WorkloadKind::E, 10_000);
        let scans = m["scan"] as f64 / 10_000.0;
        assert!((scans - 0.95).abs() < 0.02, "scans {scans}");
        // Scan lengths bounded.
        let mut w = Workload::new(WorkloadKind::E, 1000, 32, 1);
        for _ in 0..1000 {
            if let YcsbOp::Scan { len, .. } = w.next_op() {
                assert!((1..=100).contains(&len));
            }
        }
    }

    #[test]
    fn workload_f_has_rmw() {
        let m = mix(WorkloadKind::F, 10_000);
        assert!(m.contains_key("rmw"));
        let rmw = m["rmw"] as f64 / 10_000.0;
        assert!((rmw - 0.5).abs() < 0.05);
    }

    #[test]
    fn inserts_use_fresh_increasing_keys() {
        let mut w = Workload::new(WorkloadKind::D, 100, 8, 3);
        let mut last = None;
        for _ in 0..500 {
            if let YcsbOp::Insert { key, .. } = w.next_op() {
                if let Some(prev) = &last {
                    assert!(key > *prev);
                }
                last = Some(key);
            }
        }
        assert!(last.is_some());
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = Workload::new(WorkloadKind::A, 1000, 16, 9);
        let mut b = Workload::new(WorkloadKind::A, 1000, 16, 9);
        for _ in 0..100 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn canonical_key_format() {
        assert_eq!(key_for(42), "user000000000042");
    }

    #[test]
    fn key_for_is_the_zero_padded_format() {
        for index in [
            0,
            9,
            10,
            999_999_999_999,
            1_000_000_000_000,
            1_000_000_000_001,
            u64::MAX,
        ] {
            assert_eq!(key_for(index), format!("user{index:012}"));
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_key_for_is_the_zero_padded_format(
            index in proptest::prelude::any::<u64>(),
            digits in 0u32..20,
        ) {
            // Every magnitude, not only the nineteen-digit ones a
            // uniform u64 almost always is.
            let index = index % 10u64.pow(digits).max(1);
            assert_eq!(key_for(index), format!("user{index:012}"));
        }
    }
}
