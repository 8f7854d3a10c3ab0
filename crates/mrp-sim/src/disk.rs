//! Disk service models.
//!
//! The paper's Figure 3 evaluates five storage modes: in-memory,
//! asynchronous and synchronous writes on 7200-RPM hard disks and on
//! SSDs. The in-memory mode never reaches a disk; the other four are
//! modeled here as a FIFO service queue with:
//!
//! * a per-write base cost (positioning/flush overhead), paid only by
//!   synchronous writes — asynchronous writes are coalesced by the OS
//!   write-back path and pay bandwidth only;
//! * a streaming-bandwidth cost proportional to the bytes written.

use multiring_paxos::types::Time;

/// A FIFO disk with seek/flush overhead and streaming bandwidth.
#[derive(Clone, Debug)]
pub struct DiskModel {
    /// Human-readable name for reports.
    pub name: &'static str,
    /// Base cost of a synchronous write (seek + flush), microseconds.
    pub sync_base_us: u64,
    /// Streaming bandwidth, bytes per microsecond (= MB/s).
    pub bytes_per_us: u64,
    next_free: Time,
    busy_us: u64,
    writes: u64,
    bytes: u64,
}

impl DiskModel {
    /// A 7200-RPM hard disk behind a controller with a write-back cache
    /// (the paper's testbed sustains >90 % of synchronous 32 KB writes
    /// under 10 ms, which a raw 5 ms-seek disk cannot): ~1.5 ms per sync
    /// write, ~140 MB/s streaming.
    pub fn hdd() -> Self {
        Self::custom("hdd", 1_500, 140)
    }

    /// A SATA SSD: ~120 µs flush, ~450 MB/s streaming.
    pub fn ssd() -> Self {
        Self::custom("ssd", 120, 450)
    }

    /// A custom disk.
    pub fn custom(name: &'static str, sync_base_us: u64, mb_per_s: u64) -> Self {
        Self {
            name,
            sync_base_us,
            bytes_per_us: mb_per_s.max(1),
            next_free: Time::ZERO,
            busy_us: 0,
            writes: 0,
            bytes: 0,
        }
    }

    /// Schedules a write of `bytes` at `now`; returns its completion
    /// time. Sync writes pay the base cost; async writes pay bandwidth
    /// only (write-back coalescing).
    pub fn write(&mut self, now: Time, bytes: usize, sync: bool) -> Time {
        let cost = if sync { self.sync_base_us } else { 0 } + bytes as u64 / self.bytes_per_us;
        let cost = cost.max(1);
        let start = if self.next_free > now {
            self.next_free
        } else {
            now
        };
        let done = start.plus(cost);
        self.next_free = done;
        self.busy_us += cost;
        self.writes += 1;
        self.bytes += bytes as u64;
        done
    }

    /// Total busy time, microseconds.
    pub fn busy_us(&self) -> u64 {
        self.busy_us
    }

    /// Number of writes issued.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Total bytes written.
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }

    /// Utilization over an elapsed window.
    pub fn utilization(&self, elapsed_us: u64) -> f64 {
        if elapsed_us == 0 {
            0.0
        } else {
            self.busy_us as f64 / elapsed_us as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_write_pays_base_cost() {
        let mut d = DiskModel::hdd();
        let done = d.write(Time::ZERO, 1024, true);
        // 1500 us base (write-cached controller) + 1024/140 ≈ 7 us.
        assert_eq!(done.as_micros(), 1507);
    }

    #[test]
    fn async_write_pays_bandwidth_only() {
        let mut d = DiskModel::ssd();
        let done = d.write(Time::ZERO, 450_000, false);
        assert_eq!(done.as_micros(), 1000);
    }

    #[test]
    fn writes_queue_fifo() {
        let mut d = DiskModel::custom("x", 100, 1);
        let t1 = d.write(Time::ZERO, 100, true);
        assert_eq!(t1.as_micros(), 200);
        let t2 = d.write(Time::ZERO, 100, true);
        assert_eq!(t2.as_micros(), 400);
        // After the queue drains, a later write starts fresh.
        let t3 = d.write(Time::from_millis(1), 100, true);
        assert_eq!(t3.as_micros(), 1200);
        assert_eq!(d.writes(), 3);
        assert_eq!(d.bytes_written(), 300);
    }

    #[test]
    fn utilization_tracks_busy_time() {
        let mut d = DiskModel::custom("x", 500, 1000);
        d.write(Time::ZERO, 0, true);
        assert!((d.utilization(1000) - 0.5).abs() < 1e-9);
        assert_eq!(d.utilization(0), 0.0);
    }

    #[test]
    fn ssd_faster_than_hdd_for_sync() {
        let mut h = DiskModel::hdd();
        let mut s = DiskModel::ssd();
        let th = h.write(Time::ZERO, 32 * 1024, true);
        let ts = s.write(Time::ZERO, 32 * 1024, true);
        assert!(ts < th);
    }
}
