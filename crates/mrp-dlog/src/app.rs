//! The dLog replicated state machine: deterministic position assignment,
//! in-memory cache, trim.

use crate::command::{DLogCommand, DLogResponse, LogId};
use bytes::{BufMut, Bytes, BytesMut};
use multiring_paxos::app::{decode_command, Application, Delivery, Reply};
use multiring_paxos::codec::{get_bytes, get_u16, get_u32, get_u64, put_bytes, CodecError};
use std::collections::BTreeMap;

/// Per-log state.
#[derive(Clone, Default, Debug)]
struct LogState {
    /// Next position to assign.
    next_pos: u64,
    /// Entries strictly below this position were trimmed.
    trimmed_to: u64,
    /// Cached entries by position.
    entries: BTreeMap<u64, Bytes>,
    /// Cached bytes.
    cached_bytes: usize,
}

/// The dLog server state machine: hosts a set of logs (the paper's
/// servers subscribe to `k` log rings plus the common ring and hold all
/// `k` logs).
#[derive(Debug)]
pub struct DLogApp {
    logs: BTreeMap<LogId, LogState>,
    /// Cache cap in bytes per log (the paper uses a 200 MB cache per
    /// server); oldest entries are evicted beyond it.
    cache_limit: usize,
    appended: u64,
}

impl DLogApp {
    /// A server hosting `logs`, with the given per-log cache cap.
    pub fn new(logs: impl IntoIterator<Item = LogId>, cache_limit: usize) -> Self {
        Self {
            logs: logs.into_iter().map(|l| (l, LogState::default())).collect(),
            cache_limit,
            appended: 0,
        }
    }

    /// Entries appended since start.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// The next position of `log` (= its current length including
    /// trimmed entries).
    pub fn len_of(&self, log: LogId) -> Option<u64> {
        self.logs.get(&log).map(|l| l.next_pos)
    }

    /// Cached bytes across logs.
    pub fn cached_bytes(&self) -> usize {
        self.logs.values().map(|l| l.cached_bytes).sum()
    }

    fn append_one(&mut self, log: LogId, data: &Bytes) -> Option<u64> {
        let cache_limit = self.cache_limit;
        let state = self.logs.get_mut(&log)?;
        let pos = state.next_pos;
        state.next_pos += 1;
        state.cached_bytes += data.len();
        state.entries.insert(pos, data.clone());
        // Evict oldest beyond the cache cap (they remain recoverable
        // from the ring's acceptor logs / checkpoints).
        while state.cached_bytes > cache_limit && state.entries.len() > 1 {
            if let Some((&old, _)) = state.entries.iter().next() {
                if let Some(v) = state.entries.remove(&old) {
                    state.cached_bytes -= v.len();
                }
            }
        }
        self.appended += 1;
        Some(pos)
    }

    /// Executes one command.
    pub fn apply(&mut self, cmd: &DLogCommand) -> DLogResponse {
        match cmd {
            DLogCommand::Append { log, data } => match self.append_one(*log, data) {
                Some(pos) => DLogResponse::Pos(pos),
                None => DLogResponse::Value(None),
            },
            DLogCommand::MultiAppend { logs, data } => {
                let mut out = Vec::with_capacity(logs.len());
                for &l in logs {
                    if let Some(pos) = self.append_one(l, data) {
                        out.push((l, pos));
                    }
                }
                DLogResponse::MultiPos(out)
            }
            DLogCommand::Read { log, pos } => {
                DLogResponse::Value(self.logs.get(log).and_then(|l| l.entries.get(pos)).cloned())
            }
            DLogCommand::Trim { log, pos } => {
                if let Some(state) = self.logs.get_mut(log) {
                    state.trimmed_to = state.trimmed_to.max(*pos);
                    let dropped: Vec<u64> = state.entries.range(..*pos).map(|(&p, _)| p).collect();
                    for p in dropped {
                        if let Some(v) = state.entries.remove(&p) {
                            state.cached_bytes -= v.len();
                        }
                    }
                }
                DLogResponse::Ok
            }
        }
    }

    /// Replaces the logs with those of a [`snapshot`](Application::snapshot).
    fn read_logs(&mut self, buf: &mut Bytes) -> Result<(), CodecError> {
        let n = get_u16(buf)?;
        self.logs.clear();
        for _ in 0..n {
            let id = get_u16(buf)?;
            // `snapshot` writes the logs in id order: an id that does
            // not ascend is damage, and must not replace a log already
            // restored.
            if self
                .logs
                .last_key_value()
                .is_some_and(|(&last, _)| id <= last)
            {
                return Err(CodecError::BadLength(u64::from(id)));
            }
            let mut state = LogState {
                next_pos: get_u64(buf)?,
                trimmed_to: get_u64(buf)?,
                ..LogState::default()
            };
            for _ in 0..get_u32(buf)? {
                let (pos, data) = (get_u64(buf)?, get_bytes(buf)?);
                state.cached_bytes += data.len();
                state.entries.insert(pos, data);
            }
            self.logs.insert(id, state);
        }
        Ok(())
    }
}

impl Application for DLogApp {
    fn execute(&mut self, delivery: &Delivery) -> Vec<Reply> {
        let Some((client, request, cmd_bytes)) = decode_command(delivery.value.payload.clone())
        else {
            return Vec::new();
        };
        let mut buf = cmd_bytes;
        let Some(cmd) = DLogCommand::decode(&mut buf) else {
            return Vec::new();
        };
        let response = self.apply(&cmd);
        vec![Reply {
            client,
            request,
            payload: response.encode(),
        }]
    }

    fn snapshot(&self) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_u16_le(self.logs.len() as u16);
        for (&id, state) in &self.logs {
            buf.put_u16_le(id);
            buf.put_u64_le(state.next_pos);
            buf.put_u64_le(state.trimmed_to);
            buf.put_u32_le(state.entries.len() as u32);
            for (&pos, data) in &state.entries {
                buf.put_u64_le(pos);
                put_bytes(&mut buf, data);
            }
        }
        buf.freeze()
    }

    /// A malformed snapshot restores the logs that precede the damage
    /// (snapshots are produced by [`DLogApp::snapshot`], but a
    /// recovering replica takes one from a peer).
    fn restore(&mut self, snapshot: &Bytes) {
        let _ = self.read_logs(&mut snapshot.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn b(s: &str) -> Bytes {
        Bytes::from(s.to_string())
    }

    #[test]
    fn append_assigns_consecutive_positions() {
        let mut app = DLogApp::new([0, 1], 1 << 20);
        assert_eq!(
            app.apply(&DLogCommand::Append {
                log: 0,
                data: b("a")
            }),
            DLogResponse::Pos(0)
        );
        assert_eq!(
            app.apply(&DLogCommand::Append {
                log: 0,
                data: b("b")
            }),
            DLogResponse::Pos(1)
        );
        assert_eq!(
            app.apply(&DLogCommand::Append {
                log: 1,
                data: b("c")
            }),
            DLogResponse::Pos(0)
        );
        assert_eq!(app.appended(), 3);
    }

    #[test]
    fn multi_append_is_atomic_across_logs() {
        let mut app = DLogApp::new([0, 1, 2], 1 << 20);
        app.apply(&DLogCommand::Append {
            log: 1,
            data: b("x"),
        });
        let r = app.apply(&DLogCommand::MultiAppend {
            logs: vec![0, 1, 2],
            data: b("m"),
        });
        assert_eq!(r, DLogResponse::MultiPos(vec![(0, 0), (1, 1), (2, 0)]));
        // The value is readable at each assigned position.
        assert_eq!(
            app.apply(&DLogCommand::Read { log: 1, pos: 1 }),
            DLogResponse::Value(Some(b("m")))
        );
    }

    #[test]
    fn read_and_trim() {
        let mut app = DLogApp::new([0], 1 << 20);
        for i in 0..5 {
            app.apply(&DLogCommand::Append {
                log: 0,
                data: b(&format!("e{i}")),
            });
        }
        assert_eq!(
            app.apply(&DLogCommand::Read { log: 0, pos: 3 }),
            DLogResponse::Value(Some(b("e3")))
        );
        assert_eq!(
            app.apply(&DLogCommand::Trim { log: 0, pos: 3 }),
            DLogResponse::Ok
        );
        assert_eq!(
            app.apply(&DLogCommand::Read { log: 0, pos: 2 }),
            DLogResponse::Value(None),
            "trimmed entries are gone"
        );
        assert_eq!(
            app.apply(&DLogCommand::Read { log: 0, pos: 3 }),
            DLogResponse::Value(Some(b("e3")))
        );
        // Positions keep growing after a trim.
        assert_eq!(
            app.apply(&DLogCommand::Append {
                log: 0,
                data: b("e5")
            }),
            DLogResponse::Pos(5)
        );
    }

    #[test]
    fn unknown_log_is_rejected_gracefully() {
        let mut app = DLogApp::new([0], 1 << 20);
        assert_eq!(
            app.apply(&DLogCommand::Append {
                log: 9,
                data: b("x")
            }),
            DLogResponse::Value(None)
        );
    }

    #[test]
    fn cache_evicts_oldest() {
        let mut app = DLogApp::new([0], 10);
        for i in 0..5 {
            app.apply(&DLogCommand::Append {
                log: 0,
                data: Bytes::from(vec![i as u8; 4]),
            });
        }
        assert!(
            app.cached_bytes() <= 12,
            "cache bounded: {}",
            app.cached_bytes()
        );
        // Oldest entries evicted, newest readable.
        assert_eq!(
            app.apply(&DLogCommand::Read { log: 0, pos: 0 }),
            DLogResponse::Value(None)
        );
        assert!(matches!(
            app.apply(&DLogCommand::Read { log: 0, pos: 4 }),
            DLogResponse::Value(Some(_))
        ));
    }

    /// The snapshot is what a checkpoint persists and a recovering peer
    /// fetches: a durable format, pinned before the codec rewrite.
    #[test]
    fn snapshot_encodes_to_the_pinned_bytes() {
        let mut app = DLogApp::new([0, 4], 1 << 20);
        for (log, data) in [(0, "a"), (0, "bc"), (4, "d")] {
            app.apply(&DLogCommand::Append { log, data: b(data) });
        }
        app.apply(&DLogCommand::Trim { log: 0, pos: 1 });
        let hex: String = app.snapshot().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "02000000020000000000000001000000000000000100000001000000000000000200000062630400010000000000000000000000000000000100000000000000000000000100000064"
        );
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut app = DLogApp::new([0, 1], 1 << 20);
        for i in 0..10 {
            app.apply(&DLogCommand::Append {
                log: i % 2,
                data: b(&format!("e{i}")),
            });
        }
        let snap = app.snapshot();
        let mut fresh = DLogApp::new([], 1 << 20);
        fresh.restore(&snap);
        assert_eq!(fresh.len_of(0), Some(5));
        assert_eq!(fresh.len_of(1), Some(5));
        assert_eq!(
            fresh.apply(&DLogCommand::Read { log: 1, pos: 4 }),
            DLogResponse::Value(Some(b("e9")))
        );
    }

    /// Four logs of different shapes (empty, trimmed, many entries, one
    /// large entry), drawn from `seed`, and the offsets at which each
    /// log's encoding ends in the snapshot.
    fn sample_logs(seed: u64) -> (DLogApp, Vec<usize>) {
        let ids = [0, 1, 4, 9];
        let mut app = DLogApp::new(ids, 1 << 20);
        for i in 0..seed % 23 {
            let log = ids[(seed.wrapping_mul(i + 1) % 3) as usize + 1];
            let data = Bytes::from(vec![i as u8; (seed.wrapping_add(i * 7) % 90) as usize]);
            app.apply(&DLogCommand::Append { log, data });
        }
        app.apply(&DLogCommand::Trim { log: 4, pos: 2 });
        let ends = (1..=ids.len())
            .map(|k| first_logs(&app, k).snapshot().len())
            .collect();
        (app, ends)
    }

    /// An app holding exactly the first `k` logs of `app`.
    fn first_logs(app: &DLogApp, k: usize) -> DLogApp {
        let mut out = DLogApp::new([], 1 << 20);
        out.logs = app.logs.clone().into_iter().take(k).collect();
        out
    }

    /// The documented behaviour on a snapshot cut short: exactly the
    /// logs wholly before the cut are restored, nothing panics.
    #[test]
    fn restore_of_every_strict_prefix_keeps_exactly_the_logs_before_the_cut() {
        let (app, ends) = sample_logs(17);
        let snapshot = app.snapshot();
        for cut in 0..snapshot.len() {
            let mut restored = DLogApp::new([], 1 << 20);
            restored.restore(&snapshot.slice(..cut));
            let whole = ends.iter().filter(|&&end| end <= cut).count();
            assert_eq!(
                restored.snapshot(),
                first_logs(&app, whole).snapshot(),
                "cut at {cut}"
            );
        }
    }

    /// Damage that still parses: a later log that claims an earlier
    /// log's id ends the restore instead of replacing it.
    #[test]
    fn restore_of_a_repeated_log_id_keeps_the_log_restored_first() {
        let (app, ends) = sample_logs(17);
        let mut bytes = app.snapshot().to_vec();
        bytes[ends[0]..ends[0] + 2].copy_from_slice(&0u16.to_le_bytes());
        let mut restored = DLogApp::new([], 1 << 20);
        restored.restore(&Bytes::from(bytes));
        assert_eq!(restored.snapshot(), first_logs(&app, 1).snapshot());
    }

    proptest! {
        /// A peer-supplied snapshot with a run of noise laid over it —
        /// uniform bytes, or bytes of the snapshot itself from somewhere
        /// else, which reads as plausible ids, counts and lengths in the
        /// wrong places — never panics, and the logs wholly before the
        /// damage are restored exactly: nothing behind it replaces them.
        #[test]
        fn prop_restore_of_a_damaged_snapshot_keeps_the_logs_before_the_damage(
            seed in any::<u64>(),
            at in any::<u64>(),
            from in any::<u64>(),
            noise in proptest::collection::vec(any::<u8>(), 1..48),
            uniform in any::<bool>(),
        ) {
            let (app, ends) = sample_logs(seed);
            let mut bytes = app.snapshot().to_vec();
            let at = at as usize % bytes.len();
            let from = from as usize % bytes.len();
            for i in 0..noise.len().min(bytes.len() - at) {
                bytes[at + i] = if uniform { noise[i] } else { bytes[(from + i) % bytes.len()] };
            }
            let mut restored = DLogApp::new([], 1 << 20);
            restored.restore(&Bytes::from(bytes));
            let whole = ends.iter().filter(|&&end| end <= at).count();
            for (id, log) in app.logs.iter().take(whole) {
                let got = restored.logs.get(id).expect("a log before the damage");
                prop_assert_eq!(
                    (got.next_pos, got.trimmed_to, &got.entries),
                    (log.next_pos, log.trimmed_to, &log.entries)
                );
            }
        }
    }
}
