//! State fingerprinting for the model checker (`mrp-check`).
//!
//! A digest is [`Fnv1a`] fed through [`std::hash::Hash`]: every state
//! struct, value and wire type of both engines derives `Hash`, and
//! collections are `BTreeMap`/`BTreeSet`/`Vec`, so equal states hash
//! equal byte streams. There is no second serialization to keep in
//! step with the structs — a field added to any of them is part of the
//! fingerprint from the moment it compiles.
//!
//! **What is outside the digest, and how that is enforced.** Two
//! schedules that commute into the same protocol state must fingerprint
//! identically even though they counted different things on the way, or
//! the checker's deduplication degrades to nothing. So the three
//! top-level `state_digest()` bodies (`Node`, `mrp_amcast`'s
//! `WbcastNode` and `AnyEngine`) destructure `self` exhaustively,
//! without `..`, and name what they leave out: telemetry stores,
//! submission-time samples, memoized lookups and the cluster
//! configuration. A new top-level field does not compile until someone
//! decides which side it is on. Below the top level nothing is left
//! out: static configuration a sub-struct embeds (`RingConfig`,
//! `RingTuning`) is constant under exploration and simply hashed. A
//! digest that is too fine shows up as drift in `mrp-check`'s
//! `CHECK_baseline.json`; `mrp-check`'s `tests/telemetry_digest.rs`
//! feeds both engines an input that moves only a counter and fails if
//! the digest moves with it.
//!
//! The fingerprint never leaves the process (integers are hashed in
//! native byte order) and is only ever compared with another one from
//! the same run.

use std::hash::Hasher;

/// The 64-bit FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The 64-bit FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental 64-bit FNV-1a [`Hasher`].
///
/// FNV-1a is not cryptographic; it is chosen for speed and simplicity —
/// a collision merely makes the checker skip a state it should have
/// explored, it can never manufacture a spurious violation.
#[derive(Clone, Debug)]
pub struct Fnv1a {
    state: u64,
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// Starts a hash at the FNV offset basis.
    pub const fn new() -> Self {
        Self { state: FNV_OFFSET }
    }
}

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Action, Message, PersistRecord, PersistToken};
    use crate::types::{Ballot, InstanceId, ProcessId, RingId};
    use std::collections::BTreeMap;
    use std::hash::Hash;

    fn digest(value: &impl Hash) -> u64 {
        let mut h = Fnv1a::new();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        let mut h = Fnv1a::new();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn collections_digest_by_content() {
        let m1: BTreeMap<u64, u64> = [(1, 10), (2, 20)].into_iter().collect();
        let m2: BTreeMap<u64, u64> = [(2, 20), (1, 10)].into_iter().collect();
        assert_eq!(digest(&m1), digest(&m2));

        let m3: BTreeMap<u64, u64> = [(1, 10), (2, 21)].into_iter().collect();
        assert_ne!(digest(&m1), digest(&m3));
    }

    #[test]
    fn length_prefix_distinguishes_nesting() {
        // [[1], []] vs [[], [1]] must not collide.
        let x: Vec<Vec<u64>> = vec![vec![1], vec![]];
        let y: Vec<Vec<u64>> = vec![vec![], vec![1]];
        assert_ne!(digest(&x), digest(&y));
    }

    #[test]
    fn messages_differing_in_one_field_fingerprint_differently() {
        let phase1a = |from| Message::Phase1A {
            ring: RingId::new(0),
            ballot: Ballot::ZERO.bump(ProcessId::new(1)),
            from: InstanceId::new(from),
        };
        assert_eq!(digest(&phase1a(7)), digest(&phase1a(7)));
        assert_ne!(digest(&phase1a(7)), digest(&phase1a(8)));
    }

    #[test]
    fn persists_differing_in_one_field_fingerprint_differently() {
        let persist = |count, sync| Action::Persist {
            record: PersistRecord::Decision {
                ring: RingId::new(0),
                first: InstanceId::new(1),
                count,
            },
            sync,
            token: PersistToken(3),
        };
        assert_eq!(digest(&persist(1, true)), digest(&persist(1, true)));
        // The record is part of the fingerprint, not only token + sync.
        assert_ne!(digest(&persist(1, true)), digest(&persist(2, true)));
        assert_ne!(digest(&persist(1, true)), digest(&persist(1, false)));
    }
}
