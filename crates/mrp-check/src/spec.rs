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
//! Two judges feed it concrete deliveries, one transition each: the
//! [`Checker`](crate::Checker) keeps one spec instance per exploration
//! path, and the simulator's `Cluster::check_history` replays a whole
//! simulated run through one. A concrete delivery the spec rejects
//! means the history is **not a behavior of the specification**; the
//! checker reports it under the `refinement` oracle with a minimized
//! schedule. One transition check covers integrity, exactly-once,
//! agreement and acyclic order; validity and liveness remain separate
//! because they are properties of whole runs, not single transitions.
//!
//! Crash faults are mirrored through [`truncate`](AbstractAmcast::truncate):
//! a restarting process resumes from its durable delivery prefix, but
//! order edges its pre-crash deliveries contributed are *kept* — the
//! paper's properties are uniform, so even a faulty process's past
//! deliveries constrain everyone else forever.
//!
//! ## Naming messages
//!
//! A message is named by the client session and request number of the
//! `Message::Request` that multicast it, a [`MsgKey`]; [`request_key`]
//! reads the name back out of a delivered value, whose payload the
//! engines frame with `encode_command`. A [`ValueId`](multiring_paxos::types::ValueId)
//! cannot name a message: the ring engine numbers values per ring and
//! proposer, so two messages can carry the same id.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use multiring_paxos::app::decode_command;
use multiring_paxos::types::{ClientId, GroupId, ProcessId, Value};

/// The name of an abstract message: the client session and request
/// number that multicast it.
pub type MsgKey = (ClientId, u64);

/// The [`MsgKey`] a delivered value carries, if its payload is a client
/// command framed by `encode_command`.
pub fn request_key(value: &Value) -> Option<MsgKey> {
    decode_command(value.payload.clone()).map(|(client, request, _)| (client, request))
}

/// One abstract multicast message: destination groups and the
/// processes those groups resolve to.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct SpecMessage {
    groups: Vec<GroupId>,
    dests: BTreeSet<ProcessId>,
}

/// The reference atomic-multicast state machine; see the module docs.
///
/// `Hash` folds the spec state into the checker's world fingerprint,
/// whose dedup must distinguish states whose *future* refinement
/// verdicts differ: a crash-truncated delivery history survives only in
/// the spec's order edges, not in the concrete world state.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct AbstractAmcast {
    /// Every submitted message.
    msgs: BTreeMap<MsgKey, SpecMessage>,
    /// Per-process delivery sequence.
    seq: BTreeMap<ProcessId, Vec<MsgKey>>,
    /// The accumulated global partial order: an edge `a → b` means some
    /// process delivered `a` immediately before `b`.
    edges: BTreeMap<MsgKey, BTreeSet<MsgKey>>,
}

impl AbstractAmcast {
    /// An empty spec instance (no messages submitted).
    pub fn new() -> AbstractAmcast {
        AbstractAmcast::default()
    }

    /// The `amcast(m, γ)` transition: registers message `key` addressed
    /// to `groups`, whose union of subscribers is `dests`. A key
    /// submitted again keeps its first destinations.
    pub fn submit(&mut self, key: MsgKey, groups: Vec<GroupId>, dests: BTreeSet<ProcessId>) {
        self.msgs
            .entry(key)
            .or_insert(SpecMessage { groups, dests });
    }

    /// The `deliver(p, m)` transition for a concrete delivery at `p` of
    /// the message `key` names (`None`: a value that names none).
    ///
    /// # Errors
    ///
    /// Returns a human-readable divergence description, naming the
    /// property, when the delivery is not a legal spec transition:
    ///
    /// * **integrity** — the value names no submitted message;
    /// * **genuineness** — `p` is not in the message's destination set;
    /// * **exactly-once** — `p` already delivered this message;
    /// * **acyclic order** — accepting the delivery would close a cycle
    ///   in the global order (this is how agreement breaches surface:
    ///   two processes delivering two messages in opposite orders form
    ///   a two-edge cycle).
    pub fn deliver(&mut self, p: ProcessId, key: Option<MsgKey>) -> Result<(), String> {
        let at = format!("process {}", p.value());
        let Some((&m, msg)) = key.and_then(|k| self.msgs.get_key_value(&k)) else {
            let named = key.map_or("a value that names no request".into(), name);
            return Err(format!(
                "{at} delivered {named}, which no submission explains (integrity)"
            ));
        };
        if !msg.dests.contains(&p) {
            return Err(format!(
                "{at} delivered {} addressed to groups {:?}, whose subscribers it is not \
                 among (genuineness)",
                name(m),
                msg.groups,
            ));
        }
        let seq = self.seq.entry(p).or_default();
        if seq.contains(&m) {
            return Err(format!("{at} delivered {} twice (exactly-once)", name(m)));
        }
        if let Some(&prev) = seq.last() {
            self.edges.entry(prev).or_default().insert(m);
            if let Some(back) = find_cycle(&self.edges, prev, m) {
                let cycle: Vec<String> = [prev].iter().chain(&back).map(|&k| name(k)).collect();
                return Err(format!(
                    "{at} delivered {} after {}, closing the cycle {} in the global delivery \
                     order (acyclic order)",
                    name(m),
                    name(prev),
                    cycle.join(" → "),
                ));
            }
        }
        seq.push(m);
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
}

/// How an error names a message: `c<client>#<request>`.
fn name((client, request): MsgKey) -> String {
    format!("c{}#{request}", client.value())
}

/// The cycle a new edge `from → to` closes in `edges`, if any: a path
/// from `to` back to `from`, listed from `to` on.
fn find_cycle(
    edges: &BTreeMap<MsgKey, BTreeSet<MsgKey>>,
    from: MsgKey,
    to: MsgKey,
) -> Option<Vec<MsgKey>> {
    let mut parent = BTreeMap::from([(to, to)]);
    let mut stack = vec![to];
    while let Some(v) = stack.pop() {
        if v == from {
            let (mut path, mut at) = (vec![from], from);
            while at != to {
                at = parent[&at];
                path.push(at);
            }
            path.reverse();
            return Some(path);
        }
        for &n in edges.get(&v).into_iter().flatten() {
            if let Entry::Vacant(slot) = parent.entry(n) {
                slot.insert(v);
                stack.push(n);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use multiring_paxos::app::encode_command;
    use multiring_paxos::types::ValueId;

    fn pid(p: u32) -> ProcessId {
        ProcessId::new(p)
    }

    fn key(request: u64) -> Option<MsgKey> {
        Some((ClientId::new(1), request))
    }

    /// A spec with `n` messages (requests `0..n` of client 1) addressed
    /// to one group that p0 and p1 subscribe to.
    fn spec_with(n: u64) -> AbstractAmcast {
        let mut spec = AbstractAmcast::new();
        for request in 0..n {
            let dests = [pid(0), pid(1)].into_iter().collect();
            spec.submit((ClientId::new(1), request), vec![GroupId::new(0)], dests);
        }
        spec
    }

    #[test]
    fn agreed_order_is_a_behavior() {
        let mut spec = spec_with(2);
        for p in [pid(0), pid(1)] {
            spec.deliver(p, key(0)).unwrap();
            spec.deliver(p, key(1)).unwrap();
        }
    }

    #[test]
    fn opposite_orders_close_a_cycle() {
        let mut spec = spec_with(2);
        spec.deliver(pid(0), key(0)).unwrap();
        spec.deliver(pid(0), key(1)).unwrap();
        spec.deliver(pid(1), key(1)).unwrap();
        let err = spec.deliver(pid(1), key(0)).unwrap_err();
        assert!(err.contains("c1#1 → c1#0 → c1#1 in the global"), "{err}");
    }

    #[test]
    fn double_delivery_and_unknown_values_are_rejected() {
        let mut spec = spec_with(1);
        spec.deliver(pid(0), key(0)).unwrap();
        let twice = spec.deliver(pid(0), key(0)).unwrap_err();
        assert!(twice.contains("exactly-once"), "{twice}");
        let ghost = spec.deliver(pid(0), key(9)).unwrap_err();
        assert!(
            ghost.contains("c1#9, which no submission explains"),
            "{ghost}"
        );
        let nameless = spec.deliver(pid(0), None).unwrap_err();
        assert!(nameless.contains("integrity"), "{nameless}");
    }

    #[test]
    fn delivery_outside_the_destination_set_is_rejected() {
        let mut spec = spec_with(1);
        let err = spec.deliver(pid(7), key(0)).unwrap_err();
        assert!(err.contains("genuineness"), "{err}");
    }

    /// The engines deliver a request as `encode_command(client, request,
    /// payload)` under a value id of their own choosing: the key is read
    /// from the frame, and two values that share an id still name two
    /// messages.
    #[test]
    fn request_path_values_are_named_by_client_and_request() {
        let id = ValueId::new(pid(5), 42);
        let framed = |request| {
            let payload = encode_command(ClientId::new(1), request, b"cmd");
            Value::new(id, GroupId::new(0), payload)
        };
        assert_eq!(request_key(&framed(3)), key(3));
        let mut spec = spec_with(2);
        spec.deliver(pid(0), request_key(&framed(0))).unwrap();
        spec.deliver(pid(0), request_key(&framed(1))).unwrap();
        let bare = Value::new(id, GroupId::new(0), bytes::Bytes::from_static(b"cmd"));
        assert_eq!(request_key(&bare), None);
    }

    #[test]
    fn truncate_reopens_exactly_once_but_keeps_edges() {
        let mut spec = spec_with(2);
        spec.deliver(pid(0), key(0)).unwrap();
        spec.deliver(pid(0), key(1)).unwrap();
        // Crash without a checkpoint: the whole log is lost...
        spec.truncate(pid(0), 0);
        // ...and re-delivery in the same order is a behavior again.
        spec.deliver(pid(0), key(0)).unwrap();
        spec.deliver(pid(0), key(1)).unwrap();
        // But the pre-crash 0→1 edge still binds other processes.
        spec.deliver(pid(1), key(1)).unwrap();
        let err = spec.deliver(pid(1), key(0)).unwrap_err();
        assert!(err.contains("acyclic order"), "{err}");
    }
}
