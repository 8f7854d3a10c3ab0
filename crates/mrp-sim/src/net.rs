//! Network models: sites, latency matrices, per-link bandwidth with FIFO
//! serialization queues, optional loss injection.

use crate::rng::Rng;
use multiring_paxos::types::{ProcessId, Time};
use std::collections::BTreeMap;

/// Bits per second of a 10 Gb Ethernet link.
pub const GBPS_10: u64 = 10_000_000_000;
/// Bits per second of a 1 Gb Ethernet link.
pub const GBPS_1: u64 = 1_000_000_000;
/// Bits per second assumed between EC2 regions (large instances, 2014).
pub const INTER_REGION_BPS: u64 = 300_000_000;

/// A static description of where processes live and what the links
/// between sites look like.
#[derive(Clone, Debug)]
pub struct Topology {
    site_of: BTreeMap<ProcessId, usize>,
    sites: usize,
    /// One-way latency between sites, microseconds.
    latency_us: Vec<Vec<u64>>,
    /// Jitter bound (uniform, added to latency), microseconds.
    jitter_us: Vec<Vec<u64>>,
    /// Link bandwidth between sites, bits per second.
    bandwidth_bps: Vec<Vec<u64>>,
    /// Default site for unassigned processes.
    default_site: usize,
    /// Probability that a message is dropped (0 for TCP-like links).
    pub loss: f64,
}

impl Topology {
    /// A single-site LAN: `n` is only advisory (any process id may send);
    /// 0.05 ms one-way latency (0.1 ms RTT, the paper's local cluster)
    /// and 10 Gbps links.
    pub fn lan(_n: u32) -> Self {
        Self::uniform(1, 50, 5, GBPS_10)
    }

    /// A topology of `sites` sites with uniform parameters.
    pub fn uniform(sites: usize, latency_us: u64, jitter_us: u64, bandwidth_bps: u64) -> Self {
        let l = vec![vec![latency_us; sites]; sites];
        let j = vec![vec![jitter_us; sites]; sites];
        let b = vec![vec![bandwidth_bps; sites]; sites];
        Self {
            site_of: BTreeMap::new(),
            sites,
            latency_us: l,
            jitter_us: j,
            bandwidth_bps: b,
            default_site: 0,
            loss: 0.0,
        }
    }

    /// The four-region EC2 topology of the paper's Section 8.4.2
    /// (eu-west-1, us-east-1, us-west-1, us-west-2), with measured-era
    /// round-trip times. Site indices follow [`Region`].
    pub fn ec2_four_regions() -> Self {
        // RTT in milliseconds between regions (order: EuWest, UsEast,
        // UsWest1, UsWest2); intra-region RTT 1 ms.
        const RTT_MS: [[u64; 4]; 4] = [
            [1, 80, 160, 150],
            [80, 1, 75, 85],
            [160, 75, 1, 25],
            [150, 85, 25, 1],
        ];
        let mut t = Self::uniform(4, 0, 0, GBPS_1);
        for (a, row) in RTT_MS.iter().enumerate() {
            for (b, &rtt) in row.iter().enumerate() {
                t.latency_us[a][b] = rtt * 1000 / 2;
                t.jitter_us[a][b] = rtt * 25; // 5% of RTT
                t.bandwidth_bps[a][b] = if a == b { GBPS_1 } else { INTER_REGION_BPS };
            }
        }
        t
    }

    /// Assigns a process to a site.
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range.
    pub fn assign(&mut self, p: ProcessId, site: usize) {
        assert!(site < self.sites, "site {site} out of range");
        self.site_of.insert(p, site);
    }

    /// The site a process lives in.
    pub fn site_of(&self, p: ProcessId) -> usize {
        self.site_of.get(&p).copied().unwrap_or(self.default_site)
    }

    /// Number of sites.
    pub fn sites(&self) -> usize {
        self.sites
    }

    /// One-way latency between two processes, without jitter.
    pub fn base_latency_us(&self, from: ProcessId, to: ProcessId) -> u64 {
        self.latency_us[self.site_of(from)][self.site_of(to)]
    }

    /// Link bandwidth between two processes.
    pub fn bandwidth_bps(&self, from: ProcessId, to: ProcessId) -> u64 {
        self.bandwidth_bps[self.site_of(from)][self.site_of(to)]
    }

    fn jitter(&self, from: ProcessId, to: ProcessId, rng: &mut Rng) -> u64 {
        let j = self.jitter_us[self.site_of(from)][self.site_of(to)];
        if j == 0 {
            0
        } else {
            rng.below(j)
        }
    }
}

/// EC2 regions used by the paper's horizontal-scalability experiment.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Region {
    /// eu-west-1 (Ireland) — site 0.
    EuWest1,
    /// us-east-1 (Virginia) — site 1.
    UsEast1,
    /// us-west-1 (N. California) — site 2.
    UsWest1,
    /// us-west-2 (Oregon) — site 3.
    UsWest2,
}

impl Region {
    /// The site index of this region in
    /// [`Topology::ec2_four_regions`].
    pub fn site(self) -> usize {
        match self {
            Region::EuWest1 => 0,
            Region::UsEast1 => 1,
            Region::UsWest1 => 2,
            Region::UsWest2 => 3,
        }
    }

    /// All four regions in site order.
    pub fn all() -> [Region; 4] {
        [
            Region::EuWest1,
            Region::UsEast1,
            Region::UsWest1,
            Region::UsWest2,
        ]
    }
}

/// Dynamic link state: FIFO serialization queues per ordered process
/// pair.
#[derive(Debug, Default)]
pub struct NetState {
    next_free: BTreeMap<(ProcessId, ProcessId), Time>,
    /// Enforces in-order arrival per link (TCP semantics): jitter may
    /// never reorder two messages on the same connection.
    last_arrival: BTreeMap<(ProcessId, ProcessId), Time>,
    /// Messages dropped by loss injection.
    pub dropped: u64,
}

impl NetState {
    /// Computes the arrival time of a `bytes`-long message sent from
    /// `from` to `to` at time `now`, updating the link queue. Returns
    /// `None` if the message was dropped by loss injection.
    pub fn transit(
        &mut self,
        topo: &Topology,
        now: Time,
        from: ProcessId,
        to: ProcessId,
        bytes: usize,
        rng: &mut Rng,
    ) -> Option<Time> {
        if topo.loss > 0.0 && rng.chance(topo.loss) {
            self.dropped += 1;
            return None;
        }
        let bw = topo.bandwidth_bps(from, to).max(1);
        let ser_us = (bytes as u128 * 8 * 1_000_000 / bw as u128) as u64;
        let key = (from, to);
        let free = self.next_free.get(&key).copied().unwrap_or(Time::ZERO);
        let start = if free > now { free } else { now };
        let done = start.plus(ser_us);
        self.next_free.insert(key, done);
        let latency = topo.base_latency_us(from, to) + topo.jitter(from, to, rng);
        let mut arrival = done.plus(latency);
        // TCP links deliver in order: never before the previous message.
        if let Some(&prev) = self.last_arrival.get(&key) {
            arrival = arrival.max(prev);
        }
        self.last_arrival.insert(key, arrival);
        Some(arrival)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn lan_has_low_symmetric_latency() {
        let t = Topology::lan(4);
        assert_eq!(t.base_latency_us(p(0), p(1)), 50);
        assert_eq!(t.base_latency_us(p(1), p(0)), 50);
    }

    #[test]
    fn ec2_matrix_shape() {
        let mut t = Topology::ec2_four_regions();
        t.assign(p(0), Region::EuWest1.site());
        t.assign(p(1), Region::UsEast1.site());
        t.assign(p(2), Region::UsWest2.site());
        // eu-west ↔ us-east one-way ≈ 40 ms.
        assert_eq!(t.base_latency_us(p(0), p(1)), 40_000);
        // us-east ↔ us-west-2 one-way ≈ 42.5 ms.
        assert_eq!(t.base_latency_us(p(1), p(2)), 42_500);
        // intra-region is sub-millisecond.
        t.assign(p(3), Region::EuWest1.site());
        assert_eq!(t.base_latency_us(p(0), p(3)), 500);
        assert!(t.bandwidth_bps(p(0), p(1)) < t.bandwidth_bps(p(0), p(3)));
    }

    #[test]
    fn transit_orders_fifo_and_charges_bandwidth() {
        let topo = Topology::uniform(1, 100, 0, 8_000_000); // 1 MB/s
        let mut net = NetState::default();
        let mut rng = Rng::new(1);
        // 1000 bytes at 8 Mbps = 1 ms serialization.
        let t1 = net
            .transit(&topo, Time::ZERO, p(0), p(1), 1000, &mut rng)
            .unwrap();
        assert_eq!(t1.as_micros(), 1000 + 100);
        // Second message queues behind the first on the same link.
        let t2 = net
            .transit(&topo, Time::ZERO, p(0), p(1), 1000, &mut rng)
            .unwrap();
        assert_eq!(t2.as_micros(), 2000 + 100);
        // A different link does not queue.
        let t3 = net
            .transit(&topo, Time::ZERO, p(0), p(2), 1000, &mut rng)
            .unwrap();
        assert_eq!(t3.as_micros(), 1000 + 100);
    }

    #[test]
    fn loss_drops_messages() {
        let mut topo = Topology::uniform(1, 10, 0, GBPS_10);
        topo.loss = 1.0;
        let mut net = NetState::default();
        let mut rng = Rng::new(1);
        assert!(net
            .transit(&topo, Time::ZERO, p(0), p(1), 10, &mut rng)
            .is_none());
        assert_eq!(net.dropped, 1);
    }

    #[test]
    fn jitter_bounded() {
        let topo = Topology::uniform(1, 100, 50, GBPS_10);
        let mut net = NetState::default();
        let mut rng = Rng::new(3);
        for _ in 0..100 {
            let t = net
                .transit(&topo, Time::ZERO, p(0), p(1), 1, &mut rng)
                .unwrap();
            assert!(t.as_micros() >= 100 && t.as_micros() < 151);
        }
    }
}
