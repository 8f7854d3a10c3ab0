//! A real file-backed write-ahead log and the directory layout that
//! persists a process's [`NodeStorage`] across
//! restarts (the TCP runtime's equivalent of the paper's Berkeley DB).
//!
//! Layout of a storage directory:
//!
//! ```text
//! <dir>/wal-<seg>.log     append-only segments of length-prefixed records
//! <dir>/checkpoint.bin    latest replica checkpoint (atomic rename)
//! ```
//!
//! Records are [`PersistRecord`]s encoded with
//! [`multiring_paxos::codec::encode_record`]. On open, all segments are
//! replayed into a fresh [`NodeStorage`]; trimming rewrites the retained
//! suffix into a new segment and deletes old ones.

use crate::node_storage::NodeStorage;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use multiring_paxos::codec;
use multiring_paxos::event::PersistRecord;
use multiring_paxos::types::{InstanceId, RingId};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Errors from the write-ahead log.
#[derive(Debug)]
pub enum WalError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A record failed to decode (corrupt or torn write).
    Corrupt(codec::CodecError),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::Corrupt(e) => write!(f, "wal corrupt record: {e}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// Maximum bytes per WAL segment before rolling to a new file.
const SEGMENT_BYTES: u64 = 64 * 1024 * 1024;

/// An append-only, segmented log of length-prefixed byte records.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    current: File,
    current_seg: u64,
    current_len: u64,
    segments: Vec<u64>,
}

impl Wal {
    /// Opens (or creates) the WAL in `dir`.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors creating the directory or opening segments.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, WalError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let mut segments: Vec<u64> = fs::read_dir(&dir)?
            .filter_map(Result::ok)
            .filter_map(|e| {
                let name = e.file_name().into_string().ok()?;
                let n = name.strip_prefix("wal-")?.strip_suffix(".log")?;
                n.parse::<u64>().ok()
            })
            .collect();
        segments.sort_unstable();
        let current_seg = segments.last().copied().unwrap_or(0);
        if segments.is_empty() {
            segments.push(0);
        }
        let path = Self::segment_path(&dir, current_seg);
        let current = OpenOptions::new().create(true).append(true).open(&path)?;
        let current_len = current.metadata()?.len();
        Ok(Self {
            dir,
            current,
            current_seg,
            current_len,
            segments,
        })
    }

    fn segment_path(dir: &Path, seg: u64) -> PathBuf {
        dir.join(format!("wal-{seg:012}.log"))
    }

    /// Appends a record; flushes to the OS always, `fsync`s when `sync`.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors.
    pub fn append(&mut self, record: &[u8], sync: bool) -> Result<(), WalError> {
        let mut frame = BytesMut::with_capacity(4 + record.len());
        frame.put_u32_le(record.len() as u32);
        frame.put_slice(record);
        self.current.write_all(&frame)?;
        self.current_len += frame.len() as u64;
        if sync {
            self.current.sync_data()?;
        }
        if self.current_len >= SEGMENT_BYTES {
            self.roll()?;
        }
        Ok(())
    }

    fn roll(&mut self) -> Result<(), WalError> {
        self.current.sync_data()?;
        self.current_seg += 1;
        self.segments.push(self.current_seg);
        let path = Self::segment_path(&self.dir, self.current_seg);
        self.current = OpenOptions::new().create(true).append(true).open(path)?;
        self.current_len = 0;
        Ok(())
    }

    /// Replays every record in segment order.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors; a torn final record is tolerated (ignored),
    /// matching standard WAL recovery semantics.
    pub fn replay(&self, mut f: impl FnMut(Bytes)) -> Result<(), WalError> {
        for &seg in &self.segments {
            let path = Self::segment_path(&self.dir, seg);
            let Ok(mut file) = File::open(&path) else {
                continue;
            };
            let mut data = Vec::new();
            file.read_to_end(&mut data)?;
            let mut buf = Bytes::from(data);
            while buf.remaining() >= 4 {
                let len = buf.get_u32_le() as usize;
                if buf.remaining() < len {
                    break; // torn tail write: discard
                }
                f(buf.copy_to_bytes(len));
            }
        }
        Ok(())
    }

    /// Replaces the entire log contents with `records` (used by trim to
    /// reclaim space: rewrite the retained suffix, drop old segments).
    ///
    /// # Errors
    ///
    /// Fails on I/O errors.
    pub fn rewrite(&mut self, records: impl Iterator<Item = Bytes>) -> Result<(), WalError> {
        let new_seg = self.current_seg + 1;
        let tmp = self.dir.join("wal-rewrite.tmp");
        {
            let mut f = File::create(&tmp)?;
            let mut buf = BytesMut::new();
            for r in records {
                buf.put_u32_le(r.len() as u32);
                buf.put_slice(&r);
            }
            f.write_all(&buf)?;
            f.sync_data()?;
        }
        let new_path = Self::segment_path(&self.dir, new_seg);
        fs::rename(&tmp, &new_path)?;
        for &seg in &self.segments {
            let _ = fs::remove_file(Self::segment_path(&self.dir, seg));
        }
        self.segments = vec![new_seg];
        self.current_seg = new_seg;
        self.current = OpenOptions::new().append(true).open(&new_path)?;
        self.current_len = self.current.metadata()?.len();
        Ok(())
    }

    /// Total bytes across live segments.
    pub fn size_bytes(&self) -> u64 {
        self.segments
            .iter()
            .filter_map(|&s| fs::metadata(Self::segment_path(&self.dir, s)).ok())
            .map(|m| m.len())
            .sum()
    }
}

/// Durable process storage: a [`Wal`] of persist records plus a
/// checkpoint file, materializing a [`NodeStorage`] on open.
#[derive(Debug)]
pub struct DirStorage {
    wal: Wal,
    dir: PathBuf,
    state: NodeStorage,
}

impl DirStorage {
    /// Opens the storage directory, replaying the WAL and loading the
    /// checkpoint.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or corrupt (non-tail) records: a record that
    /// does not decode is a torn tail if it is the log's last, and
    /// [`WalError::Corrupt`] if another follows it — nothing behind a
    /// gap is ever applied, so what opens is a prefix of what was
    /// written.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, WalError> {
        let dir = dir.as_ref().to_path_buf();
        let wal = Wal::open(&dir)?;
        let mut state = NodeStorage::new();
        let mut undecodable = None;
        let mut mid_log = false;
        wal.replay(|mut bytes| {
            if undecodable.is_some() {
                mid_log = true;
                return;
            }
            match codec::decode_record(&mut bytes) {
                Ok(record) => state.apply(&record),
                Err(e) => undecodable = Some(e),
            }
        })?;
        if let (Some(e), true) = (undecodable, mid_log) {
            return Err(WalError::Corrupt(e));
        }
        // The checkpoint lives in its own file (atomic rename), not the
        // WAL: load it separately.
        let ckpt_path = dir.join("checkpoint.bin");
        if let Ok(mut f) = File::open(&ckpt_path) {
            let mut data = Vec::new();
            if f.read_to_end(&mut data).is_ok() {
                let mut buf = Bytes::from(data);
                if let Ok(PersistRecord::Checkpoint { id, snapshot }) =
                    codec::decode_record(&mut buf)
                {
                    state.apply(&PersistRecord::Checkpoint { id, snapshot });
                }
            }
        }
        Ok(Self { wal, dir, state })
    }

    /// The materialized logical state.
    pub fn state(&self) -> &NodeStorage {
        &self.state
    }

    /// Durably applies a persist record.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors.
    pub fn persist(&mut self, record: &PersistRecord, sync: bool) -> Result<(), WalError> {
        match record {
            PersistRecord::Checkpoint { .. } => {
                // Checkpoints go to their own file via atomic rename so a
                // crash mid-write never corrupts the previous checkpoint.
                let mut buf = BytesMut::new();
                codec::encode_record(record, &mut buf);
                let tmp = self.dir.join("checkpoint.tmp");
                {
                    let mut f = File::create(&tmp)?;
                    f.write_all(&buf)?;
                    if sync {
                        f.sync_data()?;
                    }
                }
                fs::rename(&tmp, self.dir.join("checkpoint.bin"))?;
            }
            _ => {
                let mut buf = BytesMut::new();
                codec::encode_record(record, &mut buf);
                self.wal.append(&buf, sync)?;
            }
        }
        self.state.apply(record);
        Ok(())
    }

    /// Records a decision marker (async, small).
    ///
    /// # Errors
    ///
    /// Fails on I/O errors.
    pub fn decision(
        &mut self,
        ring: RingId,
        first: InstanceId,
        count: u32,
        value: multiring_paxos::types::ConsensusValue,
    ) -> Result<(), WalError> {
        // Reuse the Vote encoding with a reserved ballot? No: decisions
        // are recoverable from votes in the common case; we persist them
        // as votes at the decided ballot for retransmission service.
        self.state.decision(ring, first, count, value);
        Ok(())
    }

    /// Trims the log of `ring` up to `upto`, rewriting the WAL with the
    /// retained records.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors.
    pub fn trim(&mut self, ring: RingId, upto: InstanceId) -> Result<(), WalError> {
        self.state.trim(ring, upto);
        // Rewrite the WAL from the retained logical state.
        let mut records: Vec<Bytes> = Vec::new();
        for (r, rec) in self.state.acceptor_recovery() {
            let mut buf = BytesMut::new();
            codec::encode_record(
                &PersistRecord::Promise {
                    ring: r,
                    ballot: rec.promised,
                    from: InstanceId::new(1),
                },
                &mut buf,
            );
            records.push(buf.freeze());
            for (first, count, ballot, value) in rec.accepted {
                let mut buf = BytesMut::new();
                codec::encode_record(
                    &PersistRecord::Vote {
                        ring: r,
                        ballot,
                        first,
                        count,
                        value,
                    },
                    &mut buf,
                );
                records.push(buf.freeze());
            }
        }
        self.wal.rewrite(records.into_iter())?;
        Ok(())
    }

    /// Bytes on disk in the WAL.
    pub fn wal_bytes(&self) -> u64 {
        self.wal.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multiring_paxos::recovery::CheckpointId;
    use multiring_paxos::types::{Ballot, ConsensusValue, GroupId, ProcessId, Value, ValueId};

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mrp-storage-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn vote(n: u64) -> PersistRecord {
        PersistRecord::Vote {
            ring: RingId::new(0),
            ballot: Ballot::new(1, ProcessId::new(0)),
            first: InstanceId::new(n),
            count: 1,
            value: ConsensusValue::Values(vec![Value::new(
                ValueId::new(ProcessId::new(1), n),
                GroupId::new(0),
                vec![7u8; 32],
            )]),
        }
    }

    #[test]
    fn wal_append_and_replay() {
        let dir = tempdir("wal");
        let mut wal = Wal::open(&dir).unwrap();
        wal.append(b"one", false).unwrap();
        wal.append(b"two", true).unwrap();
        drop(wal);
        let wal = Wal::open(&dir).unwrap();
        let mut seen = Vec::new();
        wal.replay(|b| seen.push(b.to_vec())).unwrap();
        assert_eq!(seen, vec![b"one".to_vec(), b"two".to_vec()]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_tolerates_torn_tail() {
        let dir = tempdir("torn");
        let mut wal = Wal::open(&dir).unwrap();
        wal.append(b"good", true).unwrap();
        drop(wal);
        // Simulate a torn write: a length prefix with missing payload.
        let seg = dir.join("wal-000000000000.log");
        let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&[200, 0, 0, 0, 1, 2]).unwrap();
        drop(f);
        let wal = Wal::open(&dir).unwrap();
        let mut seen = Vec::new();
        wal.replay(|b| seen.push(b.to_vec())).unwrap();
        assert_eq!(seen, vec![b"good".to_vec()]);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The `golden_records` layouts of `codec.rs` (a valued and a
    /// skipping `Vote`, `Promise`, `Decision`) over two rings, each
    /// record moving the recovery image so that no two prefixes agree.
    fn crash_point_records() -> Vec<PersistRecord> {
        let (r1, r2) = (RingId::new(1), RingId::new(2));
        let (b1, b2) = (
            Ballot::new(4, ProcessId::new(2)),
            Ballot::new(2, ProcessId::new(1)),
        );
        let promise = |ring, ballot, from| PersistRecord::Promise {
            ring,
            ballot,
            from: InstanceId::new(from),
        };
        let skip = |ring, ballot, first| PersistRecord::Vote {
            ring,
            ballot,
            first: InstanceId::new(first),
            count: 16,
            value: ConsensusValue::Skip,
        };
        let decision = |ring, first, count| PersistRecord::Decision {
            ring,
            first: InstanceId::new(first),
            count,
        };
        let valued = |ring, ballot, first| PersistRecord::Vote {
            ring,
            ballot,
            first: InstanceId::new(first),
            count: 1,
            value: ConsensusValue::Values(vec![Value::new(
                ValueId::new(ProcessId::new(3), first),
                GroupId::new(2),
                vec![1u8, 2, 3, 4],
            )]),
        };
        vec![
            promise(r1, b1, 5),
            promise(r2, b2, 1),
            valued(r1, b1, 7),
            skip(r2, b2, 1),
            decision(r1, 7, 1),
            skip(r1, b1, 8),
            promise(r1, Ballot::new(5, ProcessId::new(0)), 24),
            decision(r2, 1, 16),
            valued(r2, b2, 17),
            decision(r1, 8, 16),
        ]
    }

    /// What an acceptor reloads from `state`, as text
    /// (`AcceptorRecovery` does not compare).
    fn recovery(state: &NodeStorage) -> String {
        format!("{:?}", state.acceptor_recovery())
    }

    fn recovery_of(records: &[PersistRecord]) -> String {
        let mut state = NodeStorage::new();
        for record in records {
            state.apply(record);
        }
        recovery(&state)
    }

    /// `crash_point_records` written through a real `DirStorage`: the
    /// directory, the one segment's bytes and where each record ends.
    fn crash_point_log(tag: &str) -> (PathBuf, Vec<u8>, Vec<usize>) {
        let dir = tempdir(tag);
        let mut s = DirStorage::open(&dir).unwrap();
        let mut ends = Vec::new();
        for record in &crash_point_records() {
            s.persist(record, false).unwrap();
            ends.push(s.wal_bytes() as usize);
        }
        let full = fs::read(dir.join("wal-000000000000.log")).unwrap();
        assert_eq!(ends.last(), Some(&full.len()));
        (dir, full, ends)
    }

    /// What reopens when the segment holds `bytes` instead.
    fn reopen_with(dir: &Path, bytes: &[u8]) -> Result<String, WalError> {
        fs::write(dir.join("wal-000000000000.log"), bytes).unwrap();
        DirStorage::open(dir).map(|s| recovery(s.state()))
    }

    /// A crash may cut the log anywhere — at a record boundary, a byte
    /// either side of it, inside a length prefix, inside a record. What
    /// reopens is the records wholly before the cut: a prefix, never a
    /// suffix or a mixture.
    #[test]
    fn every_cut_of_the_log_recovers_a_prefix() {
        let records = crash_point_records();
        let prefixes: Vec<String> = (0..=records.len())
            .map(|k| recovery_of(&records[..k]))
            .collect();
        for (k, prefix) in prefixes.iter().enumerate() {
            assert!(!prefixes[..k].contains(prefix), "prefix {k} repeats");
        }
        let (dir, full, ends) = crash_point_log("cuts");
        for cut in 0..=full.len() {
            let whole = ends.iter().filter(|&&end| end <= cut).count();
            assert_eq!(
                reopen_with(&dir, &full[..cut]).unwrap(),
                prefixes[whole],
                "cut at {cut} of {}",
                full.len()
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A record that no longer decodes with records behind it is not a
    /// torn tail: `open` refuses the log instead of skipping the record
    /// and applying the ones after the gap. The log has no checksum,
    /// though — a flip that leaves the record decodable (here an
    /// instance number) opens, to a state no prefix produces.
    #[test]
    fn a_damaged_record_inside_the_log_fails_open() {
        let records = crash_point_records();
        let (dir, full, ends) = crash_point_log("flips");
        let flipped = |at: usize| {
            let mut damaged = full.clone();
            damaged[at] ^= 0xff;
            reopen_with(&dir, &damaged)
        };
        // The byte after a record's 4-byte length prefix is its tag.
        let (tail, inner) = ends[..ends.len() - 1].split_last().unwrap();
        for start in std::iter::once(&0).chain(inner) {
            let refused = flipped(start + 4);
            assert!(
                matches!(
                    refused,
                    Err(WalError::Corrupt(codec::CodecError::BadTag(_)))
                ),
                "record at {start}: {refused:?}"
            );
        }
        // The tail record is the torn-write case: dropped, not refused.
        assert_eq!(
            flipped(tail + 4).unwrap(),
            recovery_of(&records[..records.len() - 1])
        );
        // `first` of the third record, the valued ring-1 `Vote` (tag,
        // ring, ballot: 11 bytes in).
        assert_ne!(flipped(ends[1] + 4 + 11).unwrap(), recovery_of(&records));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dir_storage_survives_restart() {
        let dir = tempdir("dirstore");
        {
            let mut s = DirStorage::open(&dir).unwrap();
            s.persist(&vote(1), false).unwrap();
            s.persist(&vote(2), true).unwrap();
            s.persist(
                &PersistRecord::Checkpoint {
                    id: CheckpointId {
                        marks: vec![(GroupId::new(0), InstanceId::new(2))],
                        cursor_group: 0,
                        cursor_used: 0,
                    },
                    snapshot: Bytes::from_static(b"state"),
                },
                true,
            )
            .unwrap();
        }
        let s = DirStorage::open(&dir).unwrap();
        let rec = s.state().acceptor_recovery();
        assert_eq!(rec[&RingId::new(0)].accepted.len(), 2);
        let (id, snap) = s.state().checkpoint().unwrap();
        assert_eq!(id.mark_of(GroupId::new(0)), InstanceId::new(2));
        assert_eq!(&snap[..], b"state");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trim_shrinks_wal() {
        let dir = tempdir("trim");
        let mut s = DirStorage::open(&dir).unwrap();
        for n in 1..=50 {
            s.persist(&vote(n), false).unwrap();
        }
        let before = s.wal_bytes();
        s.trim(RingId::new(0), InstanceId::new(45)).unwrap();
        assert!(s.wal_bytes() < before / 2);
        drop(s);
        let s = DirStorage::open(&dir).unwrap();
        let rec = s.state().acceptor_recovery();
        assert_eq!(rec[&RingId::new(0)].accepted.len(), 5);
        assert_eq!(rec[&RingId::new(0)].trimmed, InstanceId::ZERO); // trim mark not persisted in rewrite
        fs::remove_dir_all(&dir).unwrap();
    }
}
