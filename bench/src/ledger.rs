//! The isolated ledger rows: what each layer's public function costs on
//! one thread with nothing else running, replaying the frames, requests
//! and persist records *captured* from the traced run. Multiplied by the
//! per-op counts of the traced run they say how much of
//! `engine.busy_us_per_op` and `lat_p50_us` each layer can account for.

use crate::workload::{kv_initial_value, kv_key, Service, DLOG_CACHE_BYTES, DLOG_LOGS, KV_RECORDS};
use bytes::{Bytes, BytesMut};
use mrp_amcast::batcher::{Batcher, PushOutcome};
use mrp_amcast::BatchConfig;
use mrp_dlog::{DLogApp, DLogCommand};
use mrp_storage::{DirStorage, Wal};
use mrp_store::{KvStore, StoreCommand};
use mrp_transport::framing::{write_frame_into, FrameAccumulator};
use multiring_paxos::app::encode_command;
use multiring_paxos::codec;
use multiring_paxos::event::{Message, PersistRecord};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Every isolated row, in report order. A row with no captured input on
/// a workload reads 0.
pub const ROWS: [(&str, &str); 13] = [
    ("codec.encode_ns_per_frame", "ns"),
    ("codec.decode_ns_per_frame", "ns"),
    ("codec.ns_per_op", "ns"),
    ("framing.write_ns_per_frame", "ns"),
    ("framing.accum_ns_per_frame", "ns"),
    ("batcher.push_ns", "ns"),
    ("batcher.drain_ns_per_value", "ns"),
    ("storage.append_ns", "ns"),
    ("storage.append_sync_us", "us"),
    ("storage.persist_sync_us", "us"),
    ("store.apply_ns_per_op", "ns"),
    ("store.cmd_codec_ns_per_op", "ns"),
    ("dlog.apply_ns_per_op", "ns"),
];

/// Each timing loop runs at least this long.
const MIN_LOOP: Duration = Duration::from_millis(10);
/// Synchronous writes timed per row (each is a real `fsync`).
const SYNC_WRITES: usize = 16;

/// Calls `f` on every item, pass after pass, for at least [`MIN_LOOP`];
/// returns ns per call. 0 when there are no items.
fn ns_per_item<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let begin = Instant::now();
    let mut calls = 0u64;
    loop {
        for item in items {
            f(black_box(item));
        }
        calls += items.len() as u64;
        let elapsed = begin.elapsed();
        if elapsed >= MIN_LOOP {
            return elapsed.as_nanos() as f64 / calls as f64;
        }
    }
}

fn request_payloads(requests: &[Message]) -> Vec<Bytes> {
    requests
        .iter()
        .filter_map(|m| match m {
            Message::Request { payload, .. } => Some(payload.clone()),
            _ => None,
        })
        .collect()
}

/// Times every isolated row. `frames` are frames the servers sent,
/// `requests` the request frames the client sent, `records` the persist
/// records the servers wrote; `frames_per_op` comes from the traced run;
/// `tmp` is a scratch directory for the storage rows.
pub fn isolated_rows(
    service: Service,
    frames: &[Message],
    requests: &[Message],
    records: &[PersistRecord],
    frames_per_op: f64,
    tmp: &Path,
) -> BTreeMap<&'static str, f64> {
    let mut rows: BTreeMap<&'static str, f64> = ROWS.iter().map(|&(n, _)| (n, 0.0)).collect();

    // codec + framing, over the frames that actually crossed the wire.
    let mut scratch = BytesMut::new();
    let encode = ns_per_item(frames, |m| {
        scratch.clear();
        codec::encode(m, &mut scratch);
        black_box(scratch.len());
    });
    let encoded: Vec<Bytes> = frames.iter().map(codec::encode_to_bytes).collect();
    let decode = ns_per_item(&encoded, |b| {
        black_box(codec::decode(&mut b.clone()).is_ok());
    });
    rows.insert("codec.encode_ns_per_frame", encode);
    rows.insert("codec.decode_ns_per_frame", decode);
    rows.insert("codec.ns_per_op", (encode + decode) * frames_per_op);

    let mut wire: Vec<u8> = Vec::new();
    rows.insert(
        "framing.write_ns_per_frame",
        ns_per_item(frames, |m| {
            wire.clear();
            let _ = write_frame_into(&mut wire, m, &mut scratch);
            black_box(wire.len());
        }),
    );
    let mut stream: Vec<u8> = Vec::new();
    for m in frames {
        let _ = write_frame_into(&mut stream, m, &mut scratch);
    }
    if !frames.is_empty() {
        // Fed in socket-read-sized pieces; one pass decodes every frame.
        let pass = ns_per_item(&[()], |()| {
            let mut acc = FrameAccumulator::new();
            for piece in stream.chunks(64 * 1024) {
                acc.extend(piece);
                while let Ok(Some(m)) = acc.next() {
                    black_box(m);
                }
            }
        });
        rows.insert("framing.accum_ns_per_frame", pass / frames.len() as f64);
    }

    // batcher: the submission edge of `AnyEngine`, fed the captured
    // requests framed the way the wrapper frames them.
    let framed: Vec<(Vec<_>, Bytes)> = requests
        .iter()
        .filter_map(|m| match m {
            Message::Request {
                client,
                request,
                groups,
                payload,
            } => Some((groups.clone(), encode_command(*client, *request, payload))),
            _ => None,
        })
        .collect();
    let mut batcher = Batcher::default();
    batcher.set_config(Some(BatchConfig::enabled()));
    rows.insert(
        "batcher.push_ns",
        ns_per_item(&framed, |(groups, payload)| {
            if let PushOutcome::Flush(key, values) = batcher.push(groups, payload.clone()) {
                black_box((key, values));
            }
        }),
    );
    let half = BatchConfig::enabled().max_values / 2;
    if framed.len() >= half {
        // Fill the queues below the flush budget (untimed), then time
        // the drain that empties them.
        let mut drained = Duration::ZERO;
        let mut values = 0;
        while drained < MIN_LOOP / 10 {
            for (groups, payload) in &framed[..half] {
                black_box(batcher.push(groups, payload.clone()));
            }
            let begin = Instant::now();
            black_box(batcher.drain());
            drained += begin.elapsed();
            values += half;
        }
        rows.insert(
            "batcher.drain_ns_per_value",
            drained.as_nanos() as f64 / values as f64,
        );
    }

    // storage: the WAL and the directory layer under it, real files.
    if !records.is_empty() {
        let encoded: Vec<BytesMut> = records
            .iter()
            .map(|r| {
                let mut buf = BytesMut::new();
                codec::encode_record(r, &mut buf);
                buf
            })
            .collect();
        if let Ok(mut wal) = Wal::open(tmp.join("ledger-wal")) {
            rows.insert(
                "storage.append_ns",
                ns_per_item(&encoded, |r| {
                    let _ = wal.append(r, false);
                }),
            );
            let begin = Instant::now();
            for r in encoded.iter().cycle().take(SYNC_WRITES) {
                let _ = wal.append(r, true);
            }
            rows.insert(
                "storage.append_sync_us",
                begin.elapsed().as_secs_f64() * 1e6 / SYNC_WRITES as f64,
            );
        }
        if let Ok(mut dir) = DirStorage::open(tmp.join("ledger-dir")) {
            let begin = Instant::now();
            for r in records.iter().cycle().take(SYNC_WRITES) {
                let _ = dir.persist(r, true);
            }
            rows.insert(
                "storage.persist_sync_us",
                begin.elapsed().as_secs_f64() * 1e6 / SYNC_WRITES as f64,
            );
        }
    }

    // the applications, fed the captured commands.
    let payloads = request_payloads(requests);
    match service {
        Service::Store => {
            let commands: Vec<StoreCommand> = payloads
                .iter()
                .filter_map(|p| StoreCommand::decode(&mut p.clone()))
                .collect();
            let mut kv = KvStore::new();
            for i in 0..KV_RECORDS {
                kv.load(kv_key(i), kv_initial_value(i));
            }
            rows.insert(
                "store.apply_ns_per_op",
                ns_per_item(&commands, |c| {
                    black_box(kv.apply(c));
                }),
            );
            rows.insert(
                "store.cmd_codec_ns_per_op",
                ns_per_item(&commands, |c| {
                    black_box(StoreCommand::decode(&mut c.encode()));
                }),
            );
        }
        Service::DLog => {
            let commands: Vec<DLogCommand> = payloads
                .iter()
                .filter_map(|p| DLogCommand::decode(&mut p.clone()))
                .collect();
            let mut app = DLogApp::new(0..DLOG_LOGS, DLOG_CACHE_BYTES);
            rows.insert(
                "dlog.apply_ns_per_op",
                ns_per_item(&commands, |c| {
                    black_box(app.apply(c));
                }),
            );
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::CLIENT;
    use multiring_paxos::types::{Ballot, GroupId, InstanceId, RingId};

    #[test]
    fn rows_are_timed_from_captured_input_and_zero_without_it() {
        let tmp = std::env::temp_dir().join(format!("e2e-ledger-test-{}", std::process::id()));
        let requests: Vec<Message> = (0..64)
            .map(|i| Message::Request {
                client: CLIENT,
                request: i,
                groups: vec![GroupId::new(0)],
                payload: StoreCommand::Update {
                    key: kv_key(i),
                    value: kv_initial_value(i),
                }
                .encode(),
            })
            .collect();
        let records = vec![PersistRecord::Promise {
            ring: RingId::new(0),
            ballot: Ballot::ZERO,
            from: InstanceId::new(1),
        }];
        let rows = isolated_rows(Service::Store, &requests, &requests, &records, 3.0, &tmp);
        assert_eq!(rows.len(), ROWS.len());
        for (name, _) in ROWS {
            let v = rows[name];
            if name == "dlog.apply_ns_per_op" {
                assert_eq!(v, 0.0, "no dLog commands captured");
            } else {
                assert!(v > 0.0, "{name} = {v}");
            }
        }
        let sum = rows["codec.encode_ns_per_frame"] + rows["codec.decode_ns_per_frame"];
        assert!((rows["codec.ns_per_op"] - 3.0 * sum).abs() < 1e-6);

        let empty = isolated_rows(Service::DLog, &[], &[], &[], 0.0, &tmp);
        assert!(empty.values().all(|&v| v == 0.0));
        let _ = std::fs::remove_dir_all(&tmp);
    }
}
