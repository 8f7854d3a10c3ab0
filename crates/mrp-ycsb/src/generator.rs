//! Key distributions: uniform, zipfian (Gray et al.'s incremental
//! algorithm, as in YCSB), scrambled zipfian and latest.
//!
//! A zipfian chooser sums ζ(n) = Σ 1/iᶿ over its n items at its first
//! draw, not at construction: a workload built and never drawn from
//! (a benchmark's set-up) pays nothing for it. Once summed, each
//! [`KeyChooser::grow`] adds the new item's term, as YCSB does, so a
//! chooser draws the same keys whenever the sum is made.

use std::cell::OnceCell;

/// A small deterministic PRNG (SplitMix64), self-contained so the crate
/// has no dependencies.
#[derive(Clone, Debug)]
pub struct SmallRng {
    state: u64,
}

impl SmallRng {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed.wrapping_add(0x9E3779B97F4A7C15),
        }
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
        }
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

const ZIPF_THETA: f64 = 0.99;
const ZIPF_ALPHA: f64 = 1.0 / (1.0 - ZIPF_THETA);

fn zeta(n: u64, theta: f64) -> f64 {
    (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
}

/// The zipfian selection threshold η for `items` items whose ζ is
/// `zetan`.
fn eta(items: u64, zetan: f64) -> f64 {
    (1.0 - (2.0 / items as f64).powf(1.0 - ZIPF_THETA)) / (1.0 - zeta(2, ZIPF_THETA) / zetan)
}

const FNV_OFFSET: u64 = 0xCBF29CE484222325;
const FNV_PRIME: u64 = 0x100000001B3;

fn fnv64(v: u64) -> u64 {
    let mut h = FNV_OFFSET;
    for i in 0..8 {
        h ^= (v >> (i * 8)) & 0xFF;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Chooses keys in `[0, items)` according to a distribution; supports a
/// growing item count for insert-heavy workloads.
#[derive(Clone, Debug)]
pub enum KeyChooser {
    /// Uniform over all items.
    Uniform {
        /// Item count.
        items: u64,
    },
    /// Zipfian favoring low indices (YCSB's `ZipfianGenerator`).
    Zipfian {
        /// Item count.
        items: u64,
        /// ζ(n, θ) for the current n and the selection threshold η,
        /// summed at the first draw.
        zeta: OnceCell<(f64, f64)>,
    },
    /// Zipfian with hashed (scattered) popular items (YCSB's
    /// `ScrambledZipfianGenerator`).
    Scrambled {
        /// The underlying zipfian over a fixed large space.
        inner: Box<KeyChooser>,
        /// Item count to fold into.
        items: u64,
    },
    /// Skewed towards the most recently inserted items (YCSB's
    /// `SkewedLatestGenerator`).
    Latest {
        /// The underlying zipfian over current items.
        inner: Box<KeyChooser>,
    },
}

impl KeyChooser {
    /// Uniform distribution over `items`.
    pub fn uniform(items: u64) -> Self {
        KeyChooser::Uniform { items }
    }

    /// Zipfian distribution over `items` with θ = 0.99; ζ is summed at
    /// the first draw.
    pub fn zipfian(items: u64) -> Self {
        KeyChooser::Zipfian {
            items,
            zeta: OnceCell::new(),
        }
    }

    /// Scrambled zipfian over `items`.
    pub fn scrambled_zipfian(items: u64) -> Self {
        KeyChooser::Scrambled {
            inner: Box::new(Self::zipfian(items)),
            items,
        }
    }

    /// Latest distribution over `items`.
    pub fn latest(items: u64) -> Self {
        KeyChooser::Latest {
            inner: Box::new(Self::zipfian(items)),
        }
    }

    /// Current item count.
    pub fn items(&self) -> u64 {
        match self {
            KeyChooser::Uniform { items }
            | KeyChooser::Zipfian { items, .. }
            | KeyChooser::Scrambled { items, .. } => *items,
            KeyChooser::Latest { inner } => inner.items(),
        }
    }

    /// Notes that an item was inserted (distributions adapt).
    pub fn grow(&mut self) {
        match self {
            KeyChooser::Uniform { items } => *items += 1,
            KeyChooser::Zipfian { items, zeta } => {
                *items += 1;
                // Incremental ζ update (YCSB does the same) once summed;
                // before that the first draw sums the grown range.
                if let Some((zetan, eta_n)) = zeta.get_mut() {
                    *zetan += 1.0 / (*items as f64).powf(ZIPF_THETA);
                    *eta_n = eta(*items, *zetan);
                }
            }
            KeyChooser::Scrambled { inner, items } => {
                *items += 1;
                let _ = inner; // the inner space is fixed in YCSB
            }
            KeyChooser::Latest { inner } => inner.grow(),
        }
    }

    /// Draws a key index in `[0, items)`.
    pub fn next(&self, rng: &mut SmallRng) -> u64 {
        match self {
            KeyChooser::Uniform { items } => rng.below(*items),
            KeyChooser::Zipfian { items, zeta: cell } => {
                let (zetan, eta) = *cell.get_or_init(|| {
                    let zetan = zeta(*items, ZIPF_THETA);
                    (zetan, eta(*items, zetan))
                });
                let u = rng.f64();
                let uz = u * zetan;
                if uz < 1.0 {
                    return 0;
                }
                if uz < 1.0 + 0.5f64.powf(ZIPF_THETA) {
                    return 1;
                }
                let n = *items as f64;
                ((n * (eta * u - eta + 1.0).powf(ZIPF_ALPHA)) as u64).min(items - 1)
            }
            KeyChooser::Scrambled { inner, items } => fnv64(inner.next(rng)) % items,
            KeyChooser::Latest { inner } => {
                let items = inner.items();
                let back = inner.next(rng);
                items - 1 - back.min(items - 1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_covers_space() {
        let c = KeyChooser::uniform(100);
        let mut rng = SmallRng::new(1);
        let mut seen = [false; 100];
        for _ in 0..5000 {
            seen[c.next(&mut rng) as usize] = true;
        }
        assert!(seen.iter().filter(|&&s| s).count() > 95);
    }

    #[test]
    fn zipfian_is_skewed_to_head() {
        let c = KeyChooser::zipfian(10_000);
        let mut rng = SmallRng::new(2);
        let mut head = 0;
        let n = 20_000;
        for _ in 0..n {
            if c.next(&mut rng) < 100 {
                head += 1;
            }
        }
        // With θ=0.99 the top 1% of keys draw roughly half the accesses.
        let frac = head as f64 / n as f64;
        assert!(frac > 0.3, "head fraction {frac}");
    }

    #[test]
    fn zipfian_within_bounds() {
        let c = KeyChooser::zipfian(1000);
        let mut rng = SmallRng::new(3);
        for _ in 0..10_000 {
            assert!(c.next(&mut rng) < 1000);
        }
    }

    #[test]
    fn scrambled_zipfian_spreads_head() {
        let c = KeyChooser::scrambled_zipfian(10_000);
        let mut rng = SmallRng::new(4);
        let mut first_bucket = 0;
        for _ in 0..10_000 {
            if c.next(&mut rng) < 100 {
                first_bucket += 1;
            }
        }
        // Hot keys are scattered: the first 1% of the key space no
        // longer dominates.
        assert!(first_bucket < 1000, "first bucket {first_bucket}");
    }

    #[test]
    fn latest_prefers_recent() {
        let mut c = KeyChooser::latest(1000);
        let mut rng = SmallRng::new(5);
        let mut recent = 0;
        for _ in 0..5000 {
            if c.next(&mut rng) >= 900 {
                recent += 1;
            }
        }
        assert!(recent as f64 / 5000.0 > 0.5, "recent fraction {recent}");
        // Growth shifts "latest".
        for _ in 0..1000 {
            c.grow();
        }
        assert_eq!(c.items(), 2000);
        let mut top = 0;
        for _ in 0..5000 {
            if c.next(&mut rng) >= 1900 {
                top += 1;
            }
        }
        assert!(top as f64 / 5000.0 > 0.5);
    }

    /// FNV-1a over 10 000 draws from `c`, after `grow_first` grows,
    /// with a grow after every `grow_every` draws (none if 0).
    fn digest(c: &mut KeyChooser, seed: u64, grow_first: u32, grow_every: usize) -> u64 {
        let mut rng = SmallRng::new(seed);
        for _ in 0..grow_first {
            c.grow();
        }
        let mut h = FNV_OFFSET;
        for i in 1..=10_000 {
            h = (h ^ c.next(&mut rng)).wrapping_mul(FNV_PRIME);
            if grow_every > 0 && i % grow_every == 0 {
                c.grow();
            }
        }
        h
    }

    #[test]
    fn zeta_summed_at_the_first_draw_draws_what_the_eager_sum_drew() {
        // Recorded when every chooser summed ζ at construction. Per
        // seed: zipfian drawn at once, grown 5 times before its first
        // draw, grown after every 100 draws; latest grown likewise.
        const GOLDEN: [(u64, [u64; 4]); 3] = [
            (
                1,
                [
                    0x99a3_1bde_a2f6_9e94,
                    0xaac9_5730_739e_7fcf,
                    0x863c_fcca_7e67_b5bb,
                    0xe905_403a_895b_850f,
                ],
            ),
            (
                7,
                [
                    0x5cb9_8c3f_5a8c_f33e,
                    0x42c0_e786_c497_ab99,
                    0x9ac6_48b0_aa51_f7b2,
                    0x35c0_b7b4_f393_a588,
                ],
            ),
            (
                42,
                [
                    0x1fb5_ba02_4eee_fefb,
                    0x2260_27c1_9337_1158,
                    0x83a0_7ac0_e6e3_9611,
                    0xb2a7_5b48_d21d_757d,
                ],
            ),
        ];
        for (seed, [at_once, grown_first, grown_between, latest]) in GOLDEN {
            assert_eq!(
                digest(&mut KeyChooser::zipfian(10_000), seed, 0, 0),
                at_once
            );
            assert_eq!(
                digest(&mut KeyChooser::zipfian(10_000), seed, 5, 0),
                grown_first
            );
            assert_eq!(
                digest(&mut KeyChooser::zipfian(10_000), seed, 0, 100),
                grown_between
            );
            assert_eq!(
                digest(&mut KeyChooser::latest(10_000), seed, 0, 100),
                latest
            );
        }
    }

    #[test]
    fn growth_keeps_zipfian_in_bounds() {
        let mut c = KeyChooser::zipfian(100);
        let mut rng = SmallRng::new(6);
        for _ in 0..500 {
            c.grow();
        }
        assert_eq!(c.items(), 600);
        for _ in 0..5000 {
            assert!(c.next(&mut rng) < 600);
        }
    }
}
