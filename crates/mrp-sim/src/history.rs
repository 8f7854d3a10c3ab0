//! What a simulated run did, in the terms atomic multicast is defined
//! in: every request a client multicast, and every delivery and restart
//! of every process, in the order the cluster saw them.
//! [`Cluster::check_history`](crate::Cluster::check_history) replays
//! it through [`AbstractAmcast`], the executable specification the model
//! checker judges engines by, so a simulated run is held to integrity,
//! genuineness, exactly-once and acyclic order as an explored trace is.
//! Beneath it, every promise, vote and decision record an acceptor wrote
//! is replayed, in the order the records became stable, through
//! [`PaxosSpec`].
//!
//! Recording draws no randomness and schedules no event: it cannot
//! change what a seeded run does.

use mrp_check::{request_key, AbstractAmcast, MsgKey, PaxosSpec};
use multiring_paxos::config::ClusterConfig;
use multiring_paxos::event::PersistRecord;
use multiring_paxos::types::{GroupId, ProcessId, Value, ValueId};
use std::collections::BTreeMap;

#[derive(Debug)]
enum Entry {
    /// `p` delivered value `id` through `group`; `key` names the request
    /// the value carries.
    Delivered {
        p: ProcessId,
        group: GroupId,
        id: ValueId,
        key: Option<MsgKey>,
    },
    /// `p` restarted. Its deliveries begin again: the restartable
    /// actors whose deliveries the cluster sees keep no checkpoint.
    Restarted(ProcessId),
}

/// The recorded history; see the module docs.
#[derive(Debug, Default)]
pub(crate) struct History {
    /// Each request's destination groups γ. A request sent again under
    /// the same name keeps its first γ.
    requests: BTreeMap<MsgKey, Vec<GroupId>>,
    entries: Vec<Entry>,
    /// Each acceptor record as it became stable, with its writer.
    written: Vec<(ProcessId, PersistRecord)>,
}

impl History {
    pub(crate) fn request(&mut self, key: MsgKey, groups: &[GroupId]) {
        self.requests.entry(key).or_insert_with(|| groups.to_vec());
    }

    pub(crate) fn deliver(&mut self, p: ProcessId, group: GroupId, value: &Value) {
        let key = request_key(value);
        let id = value.id;
        self.entries.push(Entry::Delivered { p, group, id, key });
    }

    /// `p`'s `record` became stable; a replica's checkpoint is not kept.
    pub(crate) fn write(&mut self, p: ProcessId, record: &PersistRecord) {
        if !matches!(record, PersistRecord::Checkpoint { .. }) {
            self.written.push((p, record.clone()));
        }
    }

    pub(crate) fn restart(&mut self, p: ProcessId) {
        self.entries.push(Entry::Restarted(p));
    }

    /// Each delivery `p` made, in order, restarts included.
    pub(crate) fn delivered(&self, p: ProcessId) -> impl Iterator<Item = (GroupId, ValueId)> + '_ {
        self.entries.iter().filter_map(move |e| match *e {
            Entry::Delivered {
                p: q, group, id, ..
            } if q == p => Some((group, id)),
            _ => None,
        })
    }

    /// Replays the written records through the Paxos invariants, then
    /// the deliveries through the specification; the destinations of a
    /// request are the subscribers of its groups under `config`.
    pub(crate) fn check(&self, config: &ClusterConfig) -> Result<(), String> {
        let mut paxos = PaxosSpec::new(config);
        for (p, record) in &self.written {
            paxos.record(*p, record)?;
        }
        let mut spec = AbstractAmcast::new();
        for (&key, groups) in &self.requests {
            let dests = groups.iter().flat_map(|&g| config.subscribers_of(g));
            spec.submit(key, groups.clone(), dests.collect());
        }
        for entry in &self.entries {
            match *entry {
                Entry::Delivered { p, group, id, key } => spec
                    .deliver(p, key)
                    .map_err(|e| format!("{e}; value {id}, {group}"))?,
                Entry::Restarted(p) => spec.truncate(p, 0),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::actor::{Actor, ActorCtx, ActorEvent, Op, Outbox};
    use crate::client::Burst;
    use crate::cluster::{Cluster, SimConfig};
    use crate::net::Topology;
    use bytes::Bytes;
    use multiring_paxos::app::encode_command;
    use multiring_paxos::config::{single_ring, RingTuning};
    use multiring_paxos::event::{Action, Event};
    use multiring_paxos::types::{ClientId, GroupId, InstanceId, ProcessId, Time, Value, ValueId};
    use std::any::Any;

    /// A process that, at start, claims to deliver requests of client 1
    /// in the scripted order, whatever it is sent.
    struct Scripted(Vec<u64>);

    impl Actor for Scripted {
        fn on_event(
            &mut self,
            _: Time,
            event: ActorEvent,
            out: &mut Outbox,
            ctx: &mut ActorCtx<'_>,
        ) {
            if event != ActorEvent::Protocol(Event::Start) {
                return;
            }
            for (i, &request) in (1..).zip(&self.0) {
                let payload = encode_command(ClientId::new(1), request, b"");
                let value = Value::new(ValueId::new(ctx.me, i), GroupId::new(0), payload);
                out.push(Op::Protocol(Action::Deliver {
                    group: GroupId::new(0),
                    instance: InstanceId::new(i),
                    value,
                }));
            }
        }

        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Runs the scripted processes next to a client that multicasts
    /// requests 0, 1 and 2 to group 0, whose subscribers are p0–p2, and
    /// judges the history.
    fn judge(scripts: &[(u32, &[u64])]) -> Result<(), String> {
        let mut cluster = Cluster::new(SimConfig::default(), Topology::lan(8));
        cluster.set_protocol(single_ring(3, RingTuning::default()));
        for &(p, script) in scripts {
            cluster.add_actor(ProcessId::new(p), Box::new(Scripted(script.to_vec())));
        }
        let (client, target) = (ClientId::new(1), ProcessId::new(0));
        let burst = Burst::new(client, target, vec![GroupId::new(0)], 3, Bytes::new());
        cluster.add_client(ProcessId::new(100), client, Box::new(burst));
        cluster.start();
        cluster.run_until(Time::from_millis(1));
        cluster.check_history()
    }

    /// The oracle's power: each hand-built fault is rejected, and the
    /// error names the property it breaks — the three-process cycle
    /// included, in which no two processes disagree on any pair.
    #[test]
    fn each_fault_is_rejected_by_the_property_it_breaks() {
        let agreed: &[u64] = &[0, 1, 2];
        assert_eq!(judge(&[(0, agreed), (1, agreed), (2, &[1, 2])]), Ok(()));
        for (faulty, property) in [
            (&[(0, agreed), (1, &[0, 2, 1][..])][..], "c1#2 → c1#1 → c1#2 in"),
            (&[(0, &[0, 1, 0][..])], "c1#0 twice (exactly-once)"),
            (
                &[(0, &[][..]), (7, &[0])],
                "c1#0 addressed to groups [GroupId(0)], whose subscribers it is not among (genuineness)",
            ),
            (&[(0, &[3][..])], "c1#3, which no submission explains (integrity)"),
            (
                &[(0, &[0, 1][..]), (1, &[1, 2]), (2, &[2, 0])],
                "c1#2 → c1#0 → c1#1 → c1#2 in the global delivery order (acyclic order)",
            ),
        ] {
            let err = judge(faulty).expect_err(property);
            assert!(err.contains(property), "{property}: {err}");
        }
    }

    /// A restart lets a process deliver again what it delivered before,
    /// but the order its earlier deliveries set still binds everyone.
    #[test]
    fn a_restart_reopens_deliveries_but_keeps_their_order() {
        let mut history = super::History::default();
        let g0 = GroupId::new(0);
        let deliver = |history: &mut super::History, p: u32, request| {
            let payload = encode_command(ClientId::new(1), request, b"");
            let value = Value::new(ValueId::new(ProcessId::new(9), request), g0, payload);
            history.deliver(ProcessId::new(p), g0, &value);
        };
        for request in 0..2 {
            history.request((ClientId::new(1), request), &[g0]);
        }
        deliver(&mut history, 0, 0);
        deliver(&mut history, 0, 1);
        history.restart(ProcessId::new(0));
        deliver(&mut history, 0, 1);
        let config = single_ring(3, RingTuning::default());
        assert_eq!(history.check(&config), Ok(()));
        assert_eq!(history.delivered(ProcessId::new(0)).count(), 3);
        deliver(&mut history, 1, 1);
        deliver(&mut history, 1, 0);
        let err = history.check(&config).unwrap_err();
        assert!(
            err.contains("(acyclic order); value v9.0, GroupId(0)"),
            "{err}"
        );
    }
}
