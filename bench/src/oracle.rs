//! The per-run correctness oracle.
//!
//! While the load runs it checks every reply: it decodes, it is the
//! reply the operation must get, and replicas answering the same request
//! answer the same bytes. After quiescence the driver asks it which keys
//! to read back and hands it the servers' state reports. Any miss is
//! recorded by name and makes the run `correct: false`.

use crate::cluster::{fnv1a, NodeReport};
use crate::workload::{OpKind, Service, DLOG_LOGS, KV_VALUE_BYTES};
use bytes::Bytes;
use mrp_dlog::{DLogResponse, LogId};
use mrp_store::{StoreApp, StoreResponse};
use std::collections::HashMap;

/// Failures kept verbatim; later ones are only counted.
const KEPT_FAILURES: usize = 8;
/// Keys read back after quiescence.
pub const READ_BACK_KEYS: usize = 128;

#[derive(Debug)]
struct KeyState {
    /// The value of the last update issued.
    expected: Bytes,
    /// Updates of this key sent and not yet acknowledged.
    in_flight: u32,
    /// Whether the last update was issued while another update of the
    /// key was in flight: the multicast order of the two is the
    /// system's to choose, so the final value is not known here.
    ambiguous: bool,
    /// Whether the last update issued has been acknowledged.
    acknowledged: bool,
}

/// The oracle of one cluster's run.
#[derive(Debug)]
pub struct Oracle {
    service: Service,
    keys: HashMap<Bytes, KeyState>,
    /// Positions acknowledged per log.
    positions: Vec<Vec<u64>>,
    failures: Vec<String>,
    failure_count: u64,
}

impl Oracle {
    /// An oracle for a fresh cluster running `service`.
    pub fn new(service: Service) -> Self {
        Self {
            service,
            keys: HashMap::new(),
            positions: vec![Vec::new(); usize::from(DLOG_LOGS)],
            failures: Vec::new(),
            failure_count: 0,
        }
    }

    /// Records a failed check.
    pub fn fail(&mut self, what: String) {
        self.failure_count += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(what);
        }
    }

    /// Whether every check so far passed.
    pub fn correct(&self) -> bool {
        self.failure_count == 0
    }

    /// The failed checks (the first few verbatim) and their total.
    pub fn failures(&self) -> (&[String], u64) {
        (&self.failures, self.failure_count)
    }

    /// A request is about to be sent.
    pub fn on_issue(&mut self, kind: &OpKind) {
        if let OpKind::KvUpdate { key, value } = kind {
            let state = self.keys.entry(key.clone()).or_insert_with(|| KeyState {
                expected: Bytes::new(),
                in_flight: 0,
                ambiguous: false,
                acknowledged: false,
            });
            state.ambiguous = state.in_flight > 0;
            state.in_flight += 1;
            state.expected = value.clone();
            state.acknowledged = false;
        }
    }

    /// A request timed out: whether it took effect is unknown.
    pub fn on_timeout(&mut self, kind: &OpKind) {
        if let OpKind::KvUpdate { key, .. } = kind {
            if let Some(state) = self.keys.get_mut(key) {
                state.in_flight = state.in_flight.saturating_sub(1);
                state.ambiguous = true;
            }
        }
    }

    /// The first reply to request `id` arrived. Returns the hash later
    /// replies to the same request must match.
    pub fn on_first_reply(&mut self, id: u64, kind: &OpKind, payload: &Bytes) -> u64 {
        match self.service {
            Service::Store => self.check_store_reply(id, kind, payload),
            Service::DLog => self.check_dlog_reply(id, kind, payload),
        }
        fnv1a(payload.as_slice())
    }

    /// Another replica's reply to a request already completed.
    pub fn on_duplicate_reply(&mut self, id: u64, first_hash: u64, payload: &Bytes) {
        if fnv1a(payload.as_slice()) != first_hash {
            self.fail(format!(
                "replica-agreement: request {id} got two different replies"
            ));
        }
    }

    fn check_store_reply(&mut self, id: u64, kind: &OpKind, payload: &Bytes) {
        let Some((_, response)) = StoreApp::unframe_response(payload) else {
            self.fail(format!(
                "reply-decodes: request {id} reply is not a store response"
            ));
            return;
        };
        match (kind, response) {
            (OpKind::KvRead, StoreResponse::Value(Some(v))) if v.len() == KV_VALUE_BYTES => {}
            (OpKind::KvUpdate { key, value }, StoreResponse::Ok) => {
                if let Some(state) = self.keys.get_mut(key) {
                    state.in_flight = state.in_flight.saturating_sub(1);
                    if state.expected == *value {
                        state.acknowledged = true;
                    }
                }
            }
            (kind, response) => {
                self.fail(format!(
                    "reply-matches: request {id} ({kind:?}) got {response:?}"
                ));
            }
        }
    }

    fn check_dlog_reply(&mut self, id: u64, kind: &OpKind, payload: &Bytes) {
        let Some(response) = DLogResponse::decode(&mut payload.clone()) else {
            self.fail(format!(
                "reply-decodes: request {id} reply is not a dLog response"
            ));
            return;
        };
        match (kind, response) {
            (OpKind::Append { log }, DLogResponse::Pos(pos)) => {
                self.positions[usize::from(*log)].push(pos);
            }
            (OpKind::MultiAppend, DLogResponse::MultiPos(positions)) => {
                let logs: Vec<LogId> = positions.iter().map(|&(l, _)| l).collect();
                if logs != (0..DLOG_LOGS).collect::<Vec<_>>() {
                    self.fail(format!(
                        "multi-append-positions: request {id} was placed in logs {logs:?}"
                    ));
                    return;
                }
                for (log, pos) in positions {
                    self.positions[usize::from(log)].push(pos);
                }
            }
            (OpKind::LogRead, DLogResponse::Value(_)) => {}
            (kind, response) => {
                self.fail(format!(
                    "reply-matches: request {id} ({kind:?}) got {response:?}"
                ));
            }
        }
    }

    /// Keys whose final value is known — the last update was
    /// acknowledged and raced with no other — with that value: the
    /// sample the driver reads back after quiescence.
    pub fn read_back_sample(&self) -> Vec<(Bytes, Bytes)> {
        let mut known: Vec<(&Bytes, &KeyState)> = self
            .keys
            .iter()
            .filter(|(_, s)| s.acknowledged && !s.ambiguous && s.in_flight == 0)
            .collect();
        // HashMap order differs from run to run; the sample must not.
        known.sort_by(|a, b| a.0.cmp(b.0));
        let step = (known.len() / READ_BACK_KEYS).max(1);
        known
            .into_iter()
            .step_by(step)
            .take(READ_BACK_KEYS)
            .map(|(k, s)| (k.clone(), s.expected.clone()))
            .collect()
    }

    /// The reply to a read-back of `key`.
    pub fn on_read_back(&mut self, key: &Bytes, expected: &Bytes, payload: &Bytes) {
        match StoreApp::unframe_response(payload) {
            Some((_, StoreResponse::Value(Some(v)))) if v == *expected => {}
            other => self.fail(format!(
                "acknowledged-write-reads-back: key {:?} read {other:?}",
                String::from_utf8_lossy(key.as_slice())
            )),
        }
    }

    /// Every request has been acknowledged: each log's positions must be
    /// unique and gapless from 0.
    pub fn check_positions(&mut self) {
        for log in 0..self.positions.len() {
            let mut positions = std::mem::take(&mut self.positions[log]);
            positions.sort_unstable();
            if let Some((i, &p)) = positions.iter().enumerate().find(|&(i, &p)| p != i as u64) {
                let what = if i > 0 && positions[i - 1] == p {
                    "assigned twice"
                } else {
                    "leaves a gap"
                };
                self.fail(format!(
                    "log-positions: log {log} position {p} {what} (rank {i} of {})",
                    positions.len()
                ));
            }
            self.positions[log] = positions;
        }
    }

    /// The servers' state reports after quiescence: every expected
    /// server answered and their application snapshots are equal.
    pub fn check_reports(&mut self, reports: &[NodeReport], expected_servers: usize) {
        if reports.len() != expected_servers {
            self.fail(format!(
                "replicas-agree: {} of {expected_servers} servers reported their state",
                reports.len()
            ));
        }
        if let Some(first) = reports.first() {
            for r in &reports[1..] {
                if (r.snapshot_hash, r.snapshot_len) != (first.snapshot_hash, first.snapshot_len) {
                    self.fail(format!(
                        "replicas-agree: snapshot of {} ({} B, {:016x}) differs from {} ({} B, {:016x})",
                        r.node, r.snapshot_len, r.snapshot_hash,
                        first.node, first.snapshot_len, first.snapshot_hash
                    ));
                }
            }
        }
    }
}

/// Whether `reports` show servers that have stopped executing: the same
/// number of commands executed everywhere.
pub fn quiescent(reports: &[NodeReport]) -> bool {
    let executed = |r: &NodeReport| r.telemetry.counter("replica.executed");
    reports
        .first()
        .is_some_and(|first| reports.iter().all(|r| executed(r) == executed(first)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrp_store::StoreApp;

    fn b(s: &str) -> Bytes {
        Bytes::from(s.as_bytes().to_vec())
    }

    fn ok() -> Bytes {
        StoreApp::frame_response(0, &StoreResponse::Ok)
    }

    fn update(key: &str, value: &str) -> OpKind {
        OpKind::KvUpdate {
            key: b(key),
            value: b(value),
        }
    }

    #[test]
    fn racing_updates_are_left_out_of_the_read_back() {
        let mut o = Oracle::new(Service::Store);
        // k1: two updates in flight together — final value unknown.
        o.on_issue(&update("k1", "a"));
        o.on_issue(&update("k1", "b"));
        o.on_first_reply(1, &update("k1", "a"), &ok());
        o.on_first_reply(2, &update("k1", "b"), &ok());
        // k2: sequential updates — the last one wins.
        o.on_issue(&update("k2", "x"));
        o.on_first_reply(3, &update("k2", "x"), &ok());
        o.on_issue(&update("k2", "y"));
        o.on_first_reply(4, &update("k2", "y"), &ok());
        // k3: issued, never acknowledged.
        o.on_issue(&update("k3", "z"));
        assert!(o.correct());
        assert_eq!(o.read_back_sample(), vec![(b("k2"), b("y"))]);
        let good = StoreApp::frame_response(0, &StoreResponse::Value(Some(b("y"))));
        o.on_read_back(&b("k2"), &b("y"), &good);
        assert!(o.correct());
        let stale = StoreApp::frame_response(0, &StoreResponse::Value(Some(b("x"))));
        o.on_read_back(&b("k2"), &b("y"), &stale);
        assert!(!o.correct());
        assert!(o.failures().0[0].starts_with("acknowledged-write-reads-back"));
    }

    #[test]
    fn wrong_and_undecodable_replies_are_named() {
        let mut o = Oracle::new(Service::Store);
        o.on_first_reply(1, &OpKind::KvRead, &ok());
        o.on_first_reply(2, &OpKind::KvRead, &b("?"));
        let (kept, total) = o.failures();
        assert_eq!(total, 2);
        assert!(kept[0].starts_with("reply-matches"));
        assert!(kept[1].starts_with("reply-decodes"));
    }

    #[test]
    fn differing_duplicate_replies_break_replica_agreement() {
        let mut o = Oracle::new(Service::DLog);
        let first = DLogResponse::Pos(0).encode();
        let h = o.on_first_reply(1, &OpKind::Append { log: 0 }, &first);
        o.on_duplicate_reply(1, h, &first);
        assert!(o.correct());
        o.on_duplicate_reply(1, h, &DLogResponse::Pos(1).encode());
        assert!(!o.correct());
    }

    #[test]
    fn positions_must_be_unique_and_gapless() {
        let reply = |o: &mut Oracle, id: u64, kind: OpKind, r: DLogResponse| {
            o.on_first_reply(id, &kind, &r.encode());
        };
        let mut o = Oracle::new(Service::DLog);
        reply(&mut o, 1, OpKind::Append { log: 0 }, DLogResponse::Pos(1));
        reply(
            &mut o,
            2,
            OpKind::MultiAppend,
            DLogResponse::MultiPos(vec![(0, 0), (1, 0)]),
        );
        reply(&mut o, 3, OpKind::Append { log: 1 }, DLogResponse::Pos(1));
        o.check_positions();
        assert!(o.correct(), "{:?}", o.failures());

        let mut o = Oracle::new(Service::DLog);
        reply(&mut o, 1, OpKind::Append { log: 0 }, DLogResponse::Pos(0));
        reply(&mut o, 2, OpKind::Append { log: 0 }, DLogResponse::Pos(0));
        o.check_positions();
        assert!(o.failures().0[0].contains("assigned twice"));

        let mut o = Oracle::new(Service::DLog);
        reply(&mut o, 1, OpKind::Append { log: 1 }, DLogResponse::Pos(0));
        reply(&mut o, 2, OpKind::Append { log: 1 }, DLogResponse::Pos(2));
        o.check_positions();
        assert!(o.failures().0[0].contains("leaves a gap"));

        let mut o = Oracle::new(Service::DLog);
        reply(
            &mut o,
            1,
            OpKind::MultiAppend,
            DLogResponse::MultiPos(vec![(0, 0)]),
        );
        assert!(o.failures().0[0].starts_with("multi-append-positions"));
    }
}
