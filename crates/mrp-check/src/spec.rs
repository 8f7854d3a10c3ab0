//! The executable atomic-multicast specification the engines must
//! refine.
//!
//! [`AbstractAmcast`] is the paper's primitive as a reference state
//! machine: messages move through **pending** (submitted, not yet
//! delivered anywhere) → **committed** (delivered somewhere, hence
//! positioned in the global order) → **delivered** (per process), and
//! the machine accumulates a global partial order over committed
//! messages — the union of every process's consecutive-delivery edges —
//! that must stay acyclic. Genuineness is by construction: a message is
//! only ever deliverable at a process inside its destination set, so an
//! abstract behavior cannot involve a non-addressed process at all.
//!
//! The [`Checker`](crate::Checker) maintains one spec instance per
//! exploration path and maps every concrete `Action::Deliver` to a
//! [`deliver`](AbstractAmcast::deliver) transition. A concrete delivery
//! the spec rejects means the trace is **not a behavior of the
//! specification** — the simulation relation is broken — and the
//! checker reports it under the `refinement` oracle with a minimized
//! schedule. One transition check subsumes the integrity, exactly-once,
//! agreement and acyclic-order oracles (which stay on as cheap
//! fast-fail guards); validity and liveness remain separate because
//! they are properties of whole runs, not single transitions.
//!
//! Crash faults are mirrored through [`truncate`](AbstractAmcast::truncate):
//! a restarting process resumes from its durable delivery prefix, but
//! order edges its pre-crash deliveries contributed are *kept* — the
//! paper's properties are uniform, so even a faulty process's past
//! deliveries constrain everyone else forever.
//!
//! ## Binding concrete values to abstract messages
//!
//! Submissions through `multicast` return their [`ValueId`] up front
//! and are bound eagerly ([`bind`](AbstractAmcast::bind)). Submissions
//! through the client request path get their id assigned deep inside
//! the engine, so they are bound lazily at first delivery, by payload:
//! a delivered payload matches a submission when it is byte-equal or
//! ends with the submitted bytes (the request path wraps commands with
//! a client/request header, leaving the command as the suffix). The
//! scenarios therefore keep payloads non-empty and pairwise distinct.

use std::collections::{BTreeMap, BTreeSet};

use bytes::Bytes;
use multiring_paxos::types::{GroupId, ProcessId, Value, ValueId};

/// One abstract multicast message: destination groups, the processes
/// those groups resolve to, and the submitted payload.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct SpecMessage {
    groups: Vec<GroupId>,
    dests: BTreeSet<ProcessId>,
    payload: Bytes,
}

/// The reference atomic-multicast state machine; see the module docs.
///
/// `Hash` folds the spec state into the checker's world fingerprint,
/// whose dedup must distinguish states whose *future* refinement
/// verdicts differ: a crash-truncated delivery history survives only in
/// the spec's order edges, not in the concrete world state.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct AbstractAmcast {
    /// Every submitted message, in submission order (index = message).
    msgs: Vec<SpecMessage>,
    /// Concrete value id → abstract message, filled eagerly for direct
    /// submissions and lazily (first delivery) for request-path ones.
    bound: BTreeMap<ValueId, usize>,
    /// Per-process delivery sequence (indices into `msgs`).
    seq: BTreeMap<ProcessId, Vec<usize>>,
    /// The accumulated global partial order: an edge `a → b` means some
    /// process delivered `a` immediately before `b`.
    edges: BTreeMap<usize, BTreeSet<usize>>,
}

impl AbstractAmcast {
    /// An empty spec instance (no messages submitted).
    pub fn new() -> AbstractAmcast {
        AbstractAmcast::default()
    }

    /// The `amcast(m, γ)` transition: registers a message addressed to
    /// `groups`, whose union of subscribers is `dests`. Returns the
    /// abstract message index for [`bind`](AbstractAmcast::bind).
    pub fn submit(
        &mut self,
        groups: Vec<GroupId>,
        dests: BTreeSet<ProcessId>,
        payload: Bytes,
    ) -> usize {
        self.msgs.push(SpecMessage {
            groups,
            dests,
            payload,
        });
        self.msgs.len() - 1
    }

    /// Eagerly binds a concrete [`ValueId`] to the abstract message at
    /// `msg` (direct `multicast` submissions, whose id is known at
    /// submission time).
    pub fn bind(&mut self, id: ValueId, msg: usize) {
        self.bound.insert(id, msg);
    }

    /// Number of messages submitted so far.
    pub fn submitted(&self) -> usize {
        self.msgs.len()
    }

    /// Number of messages already committed (delivered somewhere).
    pub fn committed(&self) -> usize {
        let delivered: BTreeSet<usize> = self.seq.values().flatten().copied().collect();
        delivered.len()
    }

    /// How many messages `p` has delivered.
    pub fn delivered_at(&self, p: ProcessId) -> usize {
        self.seq.get(&p).map_or(0, Vec::len)
    }

    /// The `deliver(p, m)` transition for a concrete delivery of
    /// `value` at `p`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable divergence description when the
    /// delivery is not a legal spec transition:
    ///
    /// * **integrity** — the value does not trace back to any
    ///   submission (by bound id or payload);
    /// * **genuineness** — `p` is not in the message's destination set;
    /// * **exactly-once** — `p` already delivered this message;
    /// * **partial order** — accepting the delivery would close a cycle
    ///   in the global order (this is how agreement breaches surface:
    ///   two processes delivering two messages in opposite orders form
    ///   a two-edge cycle).
    pub fn deliver(&mut self, p: ProcessId, value: &Value) -> Result<(), String> {
        let m = self.resolve(value).ok_or_else(|| {
            format!(
                "process {} delivered value {:?} that no submission explains (integrity)",
                p.value(),
                value.id,
            )
        })?;
        let msg = &self.msgs[m];
        if !msg.dests.contains(&p) {
            return Err(format!(
                "process {} delivered message #{m} addressed to groups {:?} it is not a \
                 destination of (genuineness)",
                p.value(),
                msg.groups,
            ));
        }
        let seq = self.seq.entry(p).or_default();
        if seq.contains(&m) {
            return Err(format!(
                "process {} delivered message #{m} twice (exactly-once)",
                p.value(),
            ));
        }
        if let Some(&prev) = seq.last() {
            self.edges.entry(prev).or_default().insert(m);
            if let Some(at) = find_cycle(&self.edges) {
                return Err(format!(
                    "delivering message #{m} at process {} closes a cycle in the global \
                     delivery order through message #{at} (acyclic partial order)",
                    p.value(),
                ));
            }
        }
        self.seq.entry(p).or_default().push(m);
        Ok(())
    }

    /// Mirrors a crash + restart from a durable checkpoint: `p`'s
    /// delivery sequence is truncated to its first `keep` entries (the
    /// checkpointed prefix — the concrete delivery log only ever
    /// appends, so a checkpoint is always a prefix). Order edges the
    /// truncated deliveries contributed are kept (uniformity).
    pub fn truncate(&mut self, p: ProcessId, keep: usize) {
        if let Some(seq) = self.seq.get_mut(&p) {
            seq.truncate(keep);
        }
    }

    /// Maps a concrete value to its abstract message: by already-bound
    /// id first, then by payload against unbound submissions (binding
    /// on success).
    fn resolve(&mut self, value: &Value) -> Option<usize> {
        if let Some(&m) = self.bound.get(&value.id) {
            return Some(m);
        }
        let taken: BTreeSet<usize> = self.bound.values().copied().collect();
        let found =
            self.msgs.iter().enumerate().find(|(i, msg)| {
                !taken.contains(i) && payload_matches(&value.payload, &msg.payload)
            })?;
        let m = found.0;
        self.bound.insert(value.id, m);
        Some(m)
    }
}

/// Does a delivered payload correspond to a submitted one? Byte-equal,
/// or carrying it as a suffix (the client request path prepends a
/// fixed-layout client/request header via `encode_command`).
fn payload_matches(delivered: &Bytes, submitted: &Bytes) -> bool {
    !submitted.is_empty()
        && (delivered == submitted
            || (delivered.len() > submitted.len() && delivered.ends_with(submitted)))
}

/// Cycle detection over the (tiny) abstract order graph: returns a
/// message index on a cycle, if any.
fn find_cycle(edges: &BTreeMap<usize, BTreeSet<usize>>) -> Option<usize> {
    let mut color: BTreeMap<usize, u8> = BTreeMap::new();
    for &start in edges.keys() {
        if color.get(&start).copied().unwrap_or(0) != 0 {
            continue;
        }
        let mut stack = vec![(start, false)];
        while let Some((v, done)) = stack.pop() {
            if done {
                color.insert(v, 2);
                continue;
            }
            match color.get(&v).copied().unwrap_or(0) {
                1 => return Some(v),
                2 => continue,
                _ => {}
            }
            color.insert(v, 1);
            stack.push((v, true));
            if let Some(next) = edges.get(&v) {
                for &n in next {
                    match color.get(&n).copied().unwrap_or(0) {
                        1 => return Some(n),
                        2 => {}
                        _ => stack.push((n, false)),
                    }
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(p: u32) -> ProcessId {
        ProcessId::new(p)
    }

    fn value(proposer: u32, seq: u64, payload: &'static [u8]) -> Value {
        Value::new(
            ValueId::new(pid(proposer), seq),
            GroupId::new(0),
            Bytes::from_static(payload),
        )
    }

    fn two_dest() -> BTreeSet<ProcessId> {
        [pid(0), pid(1)].into_iter().collect()
    }

    #[test]
    fn agreed_order_is_a_behavior() {
        let mut spec = AbstractAmcast::new();
        let a = spec.submit(vec![GroupId::new(0)], two_dest(), Bytes::from_static(b"a"));
        let b = spec.submit(vec![GroupId::new(0)], two_dest(), Bytes::from_static(b"b"));
        spec.bind(ValueId::new(pid(0), 1), a);
        spec.bind(ValueId::new(pid(0), 2), b);
        for p in [pid(0), pid(1)] {
            spec.deliver(p, &value(0, 1, b"a")).unwrap();
            spec.deliver(p, &value(0, 2, b"b")).unwrap();
        }
        assert_eq!(spec.committed(), 2);
        assert_eq!(spec.delivered_at(pid(0)), 2);
    }

    #[test]
    fn opposite_orders_close_a_cycle() {
        let mut spec = AbstractAmcast::new();
        let a = spec.submit(vec![GroupId::new(0)], two_dest(), Bytes::from_static(b"a"));
        let b = spec.submit(vec![GroupId::new(0)], two_dest(), Bytes::from_static(b"b"));
        spec.bind(ValueId::new(pid(0), 1), a);
        spec.bind(ValueId::new(pid(0), 2), b);
        spec.deliver(pid(0), &value(0, 1, b"a")).unwrap();
        spec.deliver(pid(0), &value(0, 2, b"b")).unwrap();
        spec.deliver(pid(1), &value(0, 2, b"b")).unwrap();
        let err = spec.deliver(pid(1), &value(0, 1, b"a")).unwrap_err();
        assert!(err.contains("cycle"), "{err}");
    }

    #[test]
    fn double_delivery_and_unknown_values_are_rejected() {
        let mut spec = AbstractAmcast::new();
        let a = spec.submit(vec![GroupId::new(0)], two_dest(), Bytes::from_static(b"a"));
        spec.bind(ValueId::new(pid(0), 1), a);
        spec.deliver(pid(0), &value(0, 1, b"a")).unwrap();
        let twice = spec.deliver(pid(0), &value(0, 1, b"a")).unwrap_err();
        assert!(twice.contains("exactly-once"), "{twice}");
        let ghost = spec.deliver(pid(0), &value(9, 9, b"ghost")).unwrap_err();
        assert!(ghost.contains("integrity"), "{ghost}");
    }

    #[test]
    fn delivery_outside_the_destination_set_is_rejected() {
        let mut spec = AbstractAmcast::new();
        let a = spec.submit(vec![GroupId::new(0)], two_dest(), Bytes::from_static(b"a"));
        spec.bind(ValueId::new(pid(0), 1), a);
        let err = spec.deliver(pid(7), &value(0, 1, b"a")).unwrap_err();
        assert!(err.contains("genuineness"), "{err}");
    }

    #[test]
    fn request_path_values_bind_lazily_by_payload_suffix() {
        let mut spec = AbstractAmcast::new();
        spec.submit(
            vec![GroupId::new(0)],
            two_dest(),
            Bytes::from_static(b"cmd"),
        );
        // The engine wraps the command with a 20-byte header and picks
        // its own value id; the suffix match binds it.
        let framed = Bytes::from([&[0u8; 20][..], b"cmd"].concat());
        let v = Value::new(ValueId::new(pid(5), 42), GroupId::new(0), framed);
        spec.deliver(pid(0), &v).unwrap();
        assert_eq!(spec.committed(), 1);
        // The binding sticks: the same id re-resolves to the same
        // message, so re-delivery now violates exactly-once.
        let err = spec.deliver(pid(0), &v).unwrap_err();
        assert!(err.contains("exactly-once"), "{err}");
    }

    #[test]
    fn truncate_reopens_exactly_once_but_keeps_edges() {
        let mut spec = AbstractAmcast::new();
        let a = spec.submit(vec![GroupId::new(0)], two_dest(), Bytes::from_static(b"a"));
        let b = spec.submit(vec![GroupId::new(0)], two_dest(), Bytes::from_static(b"b"));
        spec.bind(ValueId::new(pid(0), 1), a);
        spec.bind(ValueId::new(pid(0), 2), b);
        spec.deliver(pid(0), &value(0, 1, b"a")).unwrap();
        spec.deliver(pid(0), &value(0, 2, b"b")).unwrap();
        // Crash without a checkpoint: the whole log is lost...
        spec.truncate(pid(0), 0);
        // ...and re-delivery in the same order is a behavior again.
        spec.deliver(pid(0), &value(0, 1, b"a")).unwrap();
        spec.deliver(pid(0), &value(0, 2, b"b")).unwrap();
        // But the pre-crash a→b edge still binds other processes.
        spec.deliver(pid(1), &value(0, 2, b"b")).unwrap();
        let err = spec.deliver(pid(1), &value(0, 1, b"a")).unwrap_err();
        assert!(err.contains("cycle"), "{err}");
    }
}
