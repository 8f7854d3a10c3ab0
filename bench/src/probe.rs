//! The noise probe: what a thread hand-off and a loopback TCP round trip
//! cost on this machine right now.
//!
//! It runs before every measured block. Its readings price the
//! benchmark's two primitives (`gen.handoff_probe_us`,
//! `gen.loopback_rtt_us`) and let the noise guard mark a block as
//! disturbed from something other than the block's own result.
//!
//! The loopback echo is made by the probing thread itself (it owns both
//! ends of the connection), so its cost is the kernel's socket path and
//! nothing else: that is the reading the guard uses. The ping-pong needs
//! a second thread, and on more than one CPU its cost depends on where
//! the scheduler last put that thread; it is reported, not guarded on.

use crossbeam::channel::{unbounded, Receiver, Sender};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long each of the two probes runs.
const PROBE_SLICE: Duration = Duration::from_millis(3);

/// One probe reading.
#[derive(Copy, Clone, Debug, Default)]
pub struct ProbeReading {
    /// Median round trip of a thread ping-pong over a channel pair, µs.
    pub handoff_us: f64,
    /// Median round trip of an 8-byte echo over loopback TCP, µs: the
    /// figure the noise guard compares across blocks.
    pub loopback_us: f64,
}

/// A parked helper thread that echoes over the crossbeam shim's
/// channels, and a loopback TCP connection with both ends here.
pub struct Probe {
    ping: Option<Sender<u64>>,
    pong: Receiver<u64>,
    near: TcpStream,
    far: TcpStream,
    echo_thread: Option<JoinHandle<()>>,
}

impl Probe {
    /// Starts the helper threads.
    ///
    /// # Errors
    ///
    /// Fails if the loopback socket cannot be set up.
    pub fn start() -> std::io::Result<Self> {
        let (ping, ping_rx) = unbounded::<u64>();
        let (pong_tx, pong) = unbounded::<u64>();
        let channel_echo = std::thread::Builder::new()
            .name("probe-chan".into())
            .spawn(move || {
                while let Ok(v) = ping_rx.recv() {
                    if pong_tx.send(v).is_err() {
                        return;
                    }
                }
            })?;
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let near = TcpStream::connect(listener.local_addr()?)?;
        near.set_nodelay(true)?;
        let (far, _) = listener.accept()?;
        far.set_nodelay(true)?;
        Ok(Self {
            ping: Some(ping),
            pong,
            near,
            far,
            echo_thread: Some(channel_echo),
        })
    }

    /// Takes one reading (about 6 ms).
    pub fn read(&mut self) -> ProbeReading {
        let ping = self.ping.as_ref().expect("probe is running");
        let handoff_us = median_round_trip(|i| ping.send(i).is_ok() && self.pong.recv().is_ok());
        let (near, far) = (&mut self.near, &mut self.far);
        let loopback_us = median_round_trip(|i| {
            let mut buf = i.to_le_bytes();
            near.write_all(&buf).is_ok()
                && far.read_exact(&mut buf).is_ok()
                && far.write_all(&buf).is_ok()
                && near.read_exact(&mut buf).is_ok()
        });
        ProbeReading {
            handoff_us,
            loopback_us,
        }
    }
}

/// Repeats `round_trip` for [`PROBE_SLICE`] and returns the median
/// duration in µs.
fn median_round_trip(mut round_trip: impl FnMut(u64) -> bool) -> f64 {
    let mut samples: Vec<u32> = Vec::with_capacity(1024);
    let begin = Instant::now();
    let mut i = 0;
    loop {
        let t = Instant::now();
        if !round_trip(i) {
            break;
        }
        samples.push(t.elapsed().as_nanos() as u32);
        i += 1;
        if begin.elapsed() >= PROBE_SLICE {
            break;
        }
    }
    crate::stats::percentile(&mut samples, 0.5) / 1000.0
}

impl Drop for Probe {
    fn drop(&mut self) {
        // Closing the channel ends the echo loop.
        self.ping = None;
        if let Some(t) = self.echo_thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_reads_positive_round_trips_and_stops_its_threads() {
        let mut probe = Probe::start().unwrap();
        let r = probe.read();
        assert!(r.handoff_us > 0.0 && r.loopback_us > 0.0, "{r:?}");
        assert!(
            r.handoff_us + r.loopback_us < 100_000.0,
            "a round trip is not 100 ms: {r:?}"
        );
        drop(probe); // joins the helper; hangs here if it leaks
    }
}
