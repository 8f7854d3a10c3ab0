//! The partitioning schema of a partitioned service (Section 6.1): how
//! keys map to multicast groups. Stored in the coordination service and
//! read by clients ("clients must know the partitioning scheme").

use multiring_paxos::digest::Fnv1a;
use multiring_paxos::types::GroupId;
use std::hash::Hasher;

/// How the key space is split across partitions.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Partitioning {
    /// Keys are hashed onto `n` partitions (FNV-1a).
    Hash {
        /// Number of partitions.
        partitions: u16,
    },
    /// Keys are range-partitioned by the given split points: partition
    /// `i` holds keys in `[splits[i-1], splits[i])` (lexicographic),
    /// partition `0` everything below `splits[0]`, the last partition
    /// everything at or above the last split.
    Range {
        /// Sorted split points.
        splits: Vec<Vec<u8>>,
    },
}

/// Maps keys to groups according to a [`Partitioning`] and a base group
/// id (partition `i` ↔ group `base + i`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PartitionMap {
    scheme: Partitioning,
    base_group: u16,
}

/// FNV-1a over the key's bytes alone (no length prefix: the mapping is
/// part of the partitioning schema clients and servers share).
fn fnv1a(key: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(key);
    h.finish()
}

impl PartitionMap {
    /// Hash partitioning over `partitions` groups starting at
    /// `base_group`.
    pub fn hash(partitions: u16, base_group: u16) -> Self {
        assert!(partitions > 0, "at least one partition");
        Self {
            scheme: Partitioning::Hash { partitions },
            base_group,
        }
    }

    /// Range partitioning with the given split points.
    ///
    /// # Panics
    ///
    /// Panics if the splits are not strictly ascending.
    pub fn range(splits: Vec<Vec<u8>>, base_group: u16) -> Self {
        assert!(
            splits.windows(2).all(|w| w[0] < w[1]),
            "splits must be strictly ascending"
        );
        Self {
            scheme: Partitioning::Range { splits },
            base_group,
        }
    }

    /// Number of partitions.
    pub fn partitions(&self) -> u16 {
        match &self.scheme {
            Partitioning::Hash { partitions } => *partitions,
            Partitioning::Range { splits } => splits.len() as u16 + 1,
        }
    }

    /// The partitioning scheme.
    pub fn scheme(&self) -> &Partitioning {
        &self.scheme
    }

    /// The group owning `key`.
    pub fn group_of(&self, key: &[u8]) -> GroupId {
        let idx = match &self.scheme {
            Partitioning::Hash { partitions } => (fnv1a(key) % u64::from(*partitions)) as u16,
            Partitioning::Range { splits } => {
                splits.partition_point(|s| s.as_slice() <= key) as u16
            }
        };
        GroupId::new(self.base_group + idx)
    }

    /// The groups a range scan `[from, to]` must be multicast to: the
    /// covering partitions under range partitioning, or *all* partitions
    /// under hash partitioning (Section 6.1).
    pub fn groups_for_range(&self, from: &[u8], to: &[u8]) -> Vec<GroupId> {
        match &self.scheme {
            Partitioning::Hash { partitions } => (0..*partitions)
                .map(|i| GroupId::new(self.base_group + i))
                .collect(),
            Partitioning::Range { splits } => {
                let lo = splits.partition_point(|s| s.as_slice() <= from) as u16;
                let hi = splits.partition_point(|s| s.as_slice() <= to) as u16;
                (lo..=hi)
                    .map(|i| GroupId::new(self.base_group + i))
                    .collect()
            }
        }
    }

    /// All groups of the service.
    pub fn all_groups(&self) -> Vec<GroupId> {
        (0..self.partitions())
            .map(|i| GroupId::new(self.base_group + i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_spreads_keys() {
        let m = PartitionMap::hash(3, 0);
        let mut seen = [0u32; 3];
        for i in 0..3000 {
            let key = format!("user{i}");
            let g = m.group_of(key.as_bytes());
            seen[g.value() as usize] += 1;
        }
        for &c in &seen {
            assert!(c > 700, "distribution too skewed: {seen:?}");
        }
        // Deterministic.
        assert_eq!(m.group_of(b"alpha"), m.group_of(b"alpha"));
    }

    /// The key → group mapping is data placement: committed bench
    /// artifacts and the store tests depend on it. Expected indices are
    /// FNV-1a (64-bit) of the key bytes modulo the partition count,
    /// computed independently of this crate.
    #[test]
    fn hash_sends_a_fixed_list_of_keys_to_the_same_groups() {
        let keys: [&[u8]; 10] = [
            b"",
            b"a",
            b"alpha",
            b"user0",
            b"user1",
            b"user2",
            b"user3",
            b"user42",
            b"key-000017",
            b"\x00\xff",
        ];
        for (partitions, expected) in [
            (3, [2, 1, 0, 0, 1, 1, 2, 2, 1, 2]),
            (7, [2, 5, 5, 0, 3, 1, 4, 6, 1, 6]),
        ] {
            let m = PartitionMap::hash(partitions, 10);
            let got: Vec<u16> = keys.iter().map(|k| m.group_of(k).value() - 10).collect();
            assert_eq!(got, expected, "{partitions} partitions");
        }
    }

    #[test]
    fn hash_scan_hits_all_partitions() {
        let m = PartitionMap::hash(4, 2);
        let gs = m.groups_for_range(b"a", b"b");
        assert_eq!(gs.len(), 4);
        assert_eq!(gs[0], GroupId::new(2));
        assert_eq!(m.all_groups(), gs);
    }

    #[test]
    fn range_partitioning_routes_by_split() {
        let m = PartitionMap::range(vec![b"g".to_vec(), b"p".to_vec()], 0);
        assert_eq!(m.partitions(), 3);
        assert_eq!(m.group_of(b"apple"), GroupId::new(0));
        assert_eq!(m.group_of(b"grape"), GroupId::new(1));
        assert_eq!(m.group_of(b"melon"), GroupId::new(1));
        assert_eq!(m.group_of(b"zebra"), GroupId::new(2));
        // Split boundary belongs to the right partition.
        assert_eq!(m.group_of(b"g"), GroupId::new(1));
    }

    #[test]
    fn range_scan_covers_only_needed_partitions() {
        let m = PartitionMap::range(vec![b"g".to_vec(), b"p".to_vec()], 0);
        assert_eq!(
            m.groups_for_range(b"a", b"f"),
            vec![GroupId::new(0)],
            "scan inside one partition"
        );
        assert_eq!(
            m.groups_for_range(b"e", b"k"),
            vec![GroupId::new(0), GroupId::new(1)]
        );
        assert_eq!(m.groups_for_range(b"a", b"z").len(), 3);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_splits_rejected() {
        let _ = PartitionMap::range(vec![b"p".to_vec(), b"g".to_vec()], 0);
    }
}
