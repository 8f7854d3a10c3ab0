//! State fingerprinting for the model checker (`mrp-check`).
//!
//! A digest is an FNV-1a hash over a *canonical serialization* of the
//! protocol-relevant state of a node: every field that influences future
//! protocol behavior is folded in, in a fixed field order, with
//! collections walked in their deterministic (`BTreeMap`/`BTreeSet`)
//! iteration order. Telemetry, latency samples and event-trace rings are
//! deliberately excluded — two schedules that commute into the same
//! protocol state must produce the same digest even though they counted
//! different things along the way, otherwise state deduplication in the
//! checker's DFS degrades to nothing.
//!
//! The serialization is not self-describing and never leaves the
//! process; it exists only to be hashed. Composite types implement
//! [`DigestInto`]; protocol structs with private fields expose
//! `digest_into` inherent methods in their own modules and the engines
//! surface the result as `state_digest()` on the `AmcastEngine` trait.

use crate::event::{Action, Message, PersistToken, TimerKind};
use crate::types::{
    Ballot, ClientId, ConsensusValue, GroupId, InstanceId, ProcessId, RingId, SeqFilter, Time,
    Value, ValueId,
};
use bytes::Bytes;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The 64-bit FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The 64-bit FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental 64-bit FNV-1a hasher.
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

    /// Folds raw bytes into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds one byte into the hash.
    pub fn write_u8(&mut self, v: u8) {
        self.state ^= u64::from(v);
        self.state = self.state.wrapping_mul(FNV_PRIME);
    }

    /// Folds a `u64` into the hash (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Folds a `usize` into the hash.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// The current hash value.
    pub const fn finish(&self) -> u64 {
        self.state
    }
}

/// Types that can fold themselves into an [`Fnv1a`] hash canonically.
///
/// Implementations must be deterministic functions of the value alone:
/// same value, same byte stream, on every run and platform.
pub trait DigestInto {
    /// Folds `self` into `h`.
    fn digest_into(&self, h: &mut Fnv1a);
}

macro_rules! digest_uint {
    ($($t:ty),*) => {$(
        impl DigestInto for $t {
            fn digest_into(&self, h: &mut Fnv1a) {
                h.write_u64(u64::from(*self));
            }
        }
    )*};
}

digest_uint!(u8, u16, u32, u64, bool);

impl DigestInto for usize {
    fn digest_into(&self, h: &mut Fnv1a) {
        h.write_usize(*self);
    }
}

impl DigestInto for Bytes {
    fn digest_into(&self, h: &mut Fnv1a) {
        h.write_usize(self.len());
        h.write(self);
    }
}

impl DigestInto for &str {
    fn digest_into(&self, h: &mut Fnv1a) {
        h.write_usize(self.len());
        h.write(self.as_bytes());
    }
}

impl<T: DigestInto> DigestInto for Option<T> {
    fn digest_into(&self, h: &mut Fnv1a) {
        match self {
            None => h.write_u8(0),
            Some(v) => {
                h.write_u8(1);
                v.digest_into(h);
            }
        }
    }
}

impl<T: DigestInto> DigestInto for Vec<T> {
    fn digest_into(&self, h: &mut Fnv1a) {
        h.write_usize(self.len());
        for v in self {
            v.digest_into(h);
        }
    }
}

impl<T: DigestInto> DigestInto for VecDeque<T> {
    fn digest_into(&self, h: &mut Fnv1a) {
        h.write_usize(self.len());
        for v in self {
            v.digest_into(h);
        }
    }
}

impl<T: DigestInto> DigestInto for BTreeSet<T> {
    fn digest_into(&self, h: &mut Fnv1a) {
        h.write_usize(self.len());
        for v in self {
            v.digest_into(h);
        }
    }
}

impl<K: DigestInto, V: DigestInto> DigestInto for BTreeMap<K, V> {
    fn digest_into(&self, h: &mut Fnv1a) {
        h.write_usize(self.len());
        for (k, v) in self {
            k.digest_into(h);
            v.digest_into(h);
        }
    }
}

impl<A: DigestInto, B: DigestInto> DigestInto for (A, B) {
    fn digest_into(&self, h: &mut Fnv1a) {
        self.0.digest_into(h);
        self.1.digest_into(h);
    }
}

impl<A: DigestInto, B: DigestInto, C: DigestInto> DigestInto for (A, B, C) {
    fn digest_into(&self, h: &mut Fnv1a) {
        self.0.digest_into(h);
        self.1.digest_into(h);
        self.2.digest_into(h);
    }
}

macro_rules! digest_id {
    ($($t:ty),*) => {$(
        impl DigestInto for $t {
            fn digest_into(&self, h: &mut Fnv1a) {
                h.write_u64(u64::from(self.value()));
            }
        }
    )*};
}

digest_id!(ProcessId, RingId, GroupId, ClientId, InstanceId);

impl DigestInto for Time {
    fn digest_into(&self, h: &mut Fnv1a) {
        h.write_u64(self.as_micros());
    }
}

impl DigestInto for Ballot {
    fn digest_into(&self, h: &mut Fnv1a) {
        h.write_u64(u64::from(self.round()));
        self.node().digest_into(h);
    }
}

impl DigestInto for ValueId {
    fn digest_into(&self, h: &mut Fnv1a) {
        self.proposer.digest_into(h);
        h.write_u64(self.seq);
    }
}

impl DigestInto for Value {
    fn digest_into(&self, h: &mut Fnv1a) {
        self.id.digest_into(h);
        self.group.digest_into(h);
        self.payload.digest_into(h);
    }
}

impl DigestInto for ConsensusValue {
    fn digest_into(&self, h: &mut Fnv1a) {
        match self {
            ConsensusValue::Values(vs) => {
                h.write_u8(1);
                vs.digest_into(h);
            }
            ConsensusValue::Skip => h.write_u8(2),
        }
    }
}

impl DigestInto for SeqFilter {
    fn digest_into(&self, h: &mut Fnv1a) {
        h.write_u64(self.watermark());
        h.write_usize(self.sparse_len());
        for s in self.sparse() {
            h.write_u64(s);
        }
    }
}

impl DigestInto for PersistToken {
    fn digest_into(&self, h: &mut Fnv1a) {
        h.write_u64(self.0);
    }
}

/// A compact, `Ord`-able key identifying a [`TimerKind`]: discriminant
/// plus the ring it concerns (0 for process-wide timers).
///
/// `TimerKind` itself deliberately does not implement `Ord`; the checker
/// needs a canonical order for its choice enumeration and schedules, and
/// the digest needs a stable encoding, so both use this key.
pub fn timer_kind_key(kind: TimerKind) -> (u8, u16) {
    match kind {
        TimerKind::Delta(r) => (1, r.value()),
        TimerKind::GapCheck(r) => (3, r.value()),
        TimerKind::TrimTick(r) => (4, r.value()),
        TimerKind::ProposalResend(r) => (5, r.value()),
        TimerKind::CheckpointTick => (6, 0),
        TimerKind::RecoveryRetry => (7, 0),
        TimerKind::SubmitFlush => (8, 0),
    }
}

impl DigestInto for TimerKind {
    fn digest_into(&self, h: &mut Fnv1a) {
        let (tag, ring) = timer_kind_key(*self);
        h.write_u8(tag);
        h.write_u64(u64::from(ring));
    }
}

impl DigestInto for Message {
    fn digest_into(&self, h: &mut Fnv1a) {
        // The wire codec is already a canonical serialization of every
        // message (round-trip tested), so reuse it rather than
        // duplicating the per-variant field walk here.
        crate::codec::encode_to_bytes(self).digest_into(h);
    }
}

impl DigestInto for Action {
    fn digest_into(&self, h: &mut Fnv1a) {
        match self {
            Action::Send { to, msg } => {
                h.write_u8(1);
                to.digest_into(h);
                msg.digest_into(h);
            }
            Action::SetTimer { after_us, timer } => {
                h.write_u8(2);
                h.write_u64(*after_us);
                timer.digest_into(h);
            }
            Action::Persist { token, sync, .. } => {
                // The record's content is a function of the state that
                // produced it, which is hashed elsewhere; token + sync
                // flag pin the gating behavior.
                h.write_u8(3);
                token.digest_into(h);
                sync.digest_into(h);
            }
            Action::TrimStorage { ring, upto } => {
                h.write_u8(4);
                ring.digest_into(h);
                upto.digest_into(h);
            }
            Action::Deliver {
                group,
                instance,
                value,
            } => {
                h.write_u8(5);
                group.digest_into(h);
                instance.digest_into(h);
                value.digest_into(h);
            }
            Action::Respond {
                client,
                request,
                payload,
            } => {
                h.write_u8(6);
                client.digest_into(h);
                h.write_u64(*request);
                payload.digest_into(h);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut a = Fnv1a::new();
        let mut b = Fnv1a::new();
        let m1: BTreeMap<u64, u64> = [(1, 10), (2, 20)].into_iter().collect();
        let m2: BTreeMap<u64, u64> = [(2, 20), (1, 10)].into_iter().collect();
        m1.digest_into(&mut a);
        m2.digest_into(&mut b);
        assert_eq!(a.finish(), b.finish());

        let mut c = Fnv1a::new();
        let m3: BTreeMap<u64, u64> = [(1, 10), (2, 21)].into_iter().collect();
        m3.digest_into(&mut c);
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn length_prefix_distinguishes_nesting() {
        // [[1], []] vs [[], [1]] must not collide.
        let x: Vec<Vec<u64>> = vec![vec![1], vec![]];
        let y: Vec<Vec<u64>> = vec![vec![], vec![1]];
        let mut a = Fnv1a::new();
        let mut b = Fnv1a::new();
        x.digest_into(&mut a);
        y.digest_into(&mut b);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn timer_keys_are_distinct() {
        use std::collections::BTreeSet;
        let kinds = [
            TimerKind::Delta(RingId::new(0)),
            TimerKind::Delta(RingId::new(1)),
            TimerKind::GapCheck(RingId::new(0)),
            TimerKind::TrimTick(RingId::new(0)),
            TimerKind::ProposalResend(RingId::new(0)),
            TimerKind::CheckpointTick,
            TimerKind::RecoveryRetry,
            TimerKind::SubmitFlush,
        ];
        let keys: BTreeSet<(u8, u16)> = kinds.iter().map(|&k| timer_kind_key(k)).collect();
        assert_eq!(keys.len(), kinds.len());
    }
}
