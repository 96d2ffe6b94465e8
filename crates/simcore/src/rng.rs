//! Deterministic, splittable random-number streams.
//!
//! Every stochastic component of a simulation (arrival process, task sizer,
//! platform generator, each learning agent's exploration, …) draws from its
//! own [`RngStream`], derived from the run's master seed and a stable stream
//! label. Adding a new consumer therefore never perturbs the draws seen by
//! existing ones — the classic variance-reduction discipline for
//! discrete-event simulation.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// SplitMix64 step — used to whiten (seed, label) pairs into child seeds.
///
/// This is the standard finalizer from Steele et al., "Fast Splittable
/// Pseudorandom Number Generators" (OOPSLA'14); good avalanche behaviour at
/// negligible cost.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hashes a stream label into a 64-bit lane (FNV-1a).
#[inline]
fn label_hash(label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A deterministic random stream.
#[derive(Debug, Clone)]
pub struct RngStream {
    rng: SmallRng,
    seed: u64,
}

impl RngStream {
    /// Root stream for a run.
    pub fn root(seed: u64) -> Self {
        let whitened = splitmix64(seed);
        RngStream {
            rng: SmallRng::seed_from_u64(whitened),
            seed: whitened,
        }
    }

    /// Derives an independent child stream identified by `label`.
    ///
    /// Children with distinct labels are statistically independent of each
    /// other and of the parent; the same `(seed, label)` pair always yields
    /// the same stream.
    pub fn derive(&self, label: &str) -> RngStream {
        let child = splitmix64(self.seed ^ label_hash(label));
        RngStream {
            rng: SmallRng::seed_from_u64(child),
            seed: child,
        }
    }

    /// Derives an independent child stream by numeric lane (e.g. per-site).
    pub fn derive_indexed(&self, label: &str, index: u64) -> RngStream {
        let child = splitmix64(self.seed ^ label_hash(label) ^ splitmix64(index.wrapping_add(1)));
        RngStream {
            rng: SmallRng::seed_from_u64(child),
            seed: child,
        }
    }

    /// Uniform draw in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi` or either bound is non-finite.
    #[inline]
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo < hi && lo.is_finite() && hi.is_finite(),
            "invalid uniform bounds [{lo}, {hi})"
        );
        self.rng.random_range(lo..hi)
    }

    /// Uniform integer draw in `[lo, hi]` (inclusive).
    #[inline]
    pub fn uniform_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi, "invalid uniform bounds [{lo}, {hi}]");
        self.rng.random_range(lo..=hi)
    }

    /// Standard uniform draw in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        self.rng.random::<f64>()
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.rng.random::<f64>() < p
    }

    /// Exponential draw with the given mean (inter-arrival of a Poisson
    /// process of rate `1 / mean`).
    ///
    /// # Panics
    /// Panics if `mean` is not strictly positive and finite.
    #[inline]
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(
            mean > 0.0 && mean.is_finite(),
            "exponential mean must be positive, got {mean}"
        );
        // Inverse CDF; 1 - u avoids ln(0).
        let u: f64 = self.rng.random::<f64>();
        -mean * (1.0 - u).ln()
    }

    /// Approximately normal draw (Irwin–Hall sum of 12 uniforms), mean `mu`,
    /// standard deviation `sigma`. Adequate for workload jitter; avoids
    /// pulling in a distributions crate.
    #[inline]
    pub fn normal(&mut self, mu: f64, sigma: f64) -> f64 {
        assert!(sigma >= 0.0, "sigma must be non-negative");
        let s: f64 = (0..12).map(|_| self.rng.random::<f64>()).sum();
        mu + (s - 6.0) * sigma
    }

    /// Uniformly picks an index in `[0, n)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[inline]
    pub fn pick(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot pick from an empty range");
        self.rng.random_range(0..n)
    }

    /// The whitened seed backing this stream (stable identifier).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The generator's current raw state, for checkpointing.
    pub fn state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Rebuilds a stream from its whitened seed and captured generator
    /// state, resuming the draw sequence exactly where [`state`](Self::state)
    /// observed it.
    pub fn from_parts(seed: u64, state: [u64; 4]) -> Self {
        RngStream {
            rng: SmallRng::from_state(state),
            seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = RngStream::root(42);
        let mut b = RngStream::root(42);
        for _ in 0..100 {
            assert_eq!(a.unit(), b.unit());
        }
    }

    #[test]
    fn different_labels_differ() {
        let root = RngStream::root(7);
        let mut a = root.derive("arrivals");
        let mut b = root.derive("platform");
        let same = (0..32).filter(|_| a.unit() == b.unit()).count();
        assert!(same < 2, "streams should be effectively independent");
    }

    #[test]
    fn derive_is_stable() {
        let root = RngStream::root(9);
        let mut a = root.derive("x");
        let mut b = root.derive("x");
        assert_eq!(a.seed(), b.seed());
        assert_eq!(a.uniform(0.0, 10.0), b.uniform(0.0, 10.0));
    }

    #[test]
    fn derive_indexed_lanes_differ() {
        let root = RngStream::root(3);
        let mut lanes: Vec<u64> = (0..16)
            .map(|i| root.derive_indexed("site", i).seed())
            .collect();
        lanes.sort_unstable();
        lanes.dedup();
        assert_eq!(lanes.len(), 16);
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut r = RngStream::root(1);
        for _ in 0..1000 {
            let x = r.uniform(500.0, 1000.0);
            assert!((500.0..1000.0).contains(&x));
        }
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = RngStream::root(5);
        let n = 20_000;
        let mean = 5.0;
        let sum: f64 = (0..n).map(|_| r.exponential(mean)).sum();
        let observed = sum / n as f64;
        assert!((observed - mean).abs() < 0.15, "observed mean {observed}");
    }

    #[test]
    fn normal_moments_are_close() {
        let mut r = RngStream::root(8);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = RngStream::root(11);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        // Out-of-range probabilities are clamped rather than panicking.
        assert!(r.chance(2.0));
        assert!(!r.chance(-1.0));
    }

    #[test]
    fn pick_in_range() {
        let mut r = RngStream::root(17);
        for _ in 0..100 {
            assert!(r.pick(3) < 3);
        }
    }
}
