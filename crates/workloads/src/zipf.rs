//! Skewed key selection: a Zipfian generator for hot-key workloads.
//!
//! The sharded backends hash items over shards, so a *uniform* key
//! stream balances almost perfectly — which hides exactly the failure
//! mode SimpleDB's real deployments hit: hot domains. This generator
//! produces key indices with a Zipf(θ) popularity distribution (YCSB's
//! quickly-computable form, after Gray et al., "Quickly generating
//! billion-record synthetic databases"), deterministic in its seed, so
//! the shard-imbalance experiments can stress `shard_op_count` skew
//! reproducibly.

/// A deterministic Zipfian index generator over `0..n`.
///
/// Index 0 is the most popular key; popularity decays as `1/(i+1)^θ`.
/// `θ = 0.99` is the YCSB default ("zipfian"); `θ → 0` approaches
/// uniform.
///
/// # Examples
///
/// ```
/// use workloads::ZipfKeys;
///
/// let mut zipf = ZipfKeys::new(1000, 0.99, 42);
/// let mut hits = vec![0u64; 1000];
/// for _ in 0..10_000 {
///     hits[zipf.next_index()] += 1;
/// }
/// // The hottest key dwarfs the median one.
/// assert!(hits[0] > 20 * hits[500].max(1));
/// ```
#[derive(Clone, Debug)]
pub struct ZipfKeys {
    n: usize,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    half_pow_theta: f64,
    rng_state: u64,
}

impl ZipfKeys {
    /// A generator over `0..n` with skew `theta` in `(0, 1)`, seeded
    /// deterministically.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `theta` is outside `(0, 1)`.
    pub fn new(n: usize, theta: f64, seed: u64) -> ZipfKeys {
        assert!(n > 0, "ZipfKeys needs a nonempty key space");
        assert!(
            theta > 0.0 && theta < 1.0,
            "theta must lie in (0, 1); got {theta}"
        );
        let zetan = zeta(n, theta);
        let zeta2 = zeta(2, theta);
        ZipfKeys {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
            half_pow_theta: 0.5f64.powf(theta),
            rng_state: seed,
        }
    }

    /// Skew parameter.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// The next key index, Zipf-distributed over `0..n`.
    pub fn next_index(&mut self) -> usize {
        let u = self.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + self.half_pow_theta {
            return 1;
        }
        let idx = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as usize;
        idx.min(self.n - 1)
    }

    /// A uniform index over the same key space, from the same RNG — the
    /// control row of a skew experiment.
    pub fn next_uniform_index(&mut self) -> usize {
        (self.next_u64() % self.n as u64) as usize
    }

    fn next_u64(&mut self) -> u64 {
        simworld::splitmix64(&mut self.rng_state)
    }

    fn next_f64(&mut self) -> f64 {
        // 53 uniform bits in [0, 1).
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The generalised harmonic number `Σ 1/i^θ` for `i` in `1..=n`.
fn zeta(n: usize, theta: f64) -> f64 {
    (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_a_seed() {
        let mut a = ZipfKeys::new(100, 0.99, 7);
        let mut b = ZipfKeys::new(100, 0.99, 7);
        let xs: Vec<usize> = (0..100).map(|_| a.next_index()).collect();
        let ys: Vec<usize> = (0..100).map(|_| b.next_index()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn indices_stay_in_range() {
        let mut z = ZipfKeys::new(10, 0.5, 3);
        for _ in 0..1_000 {
            assert!(z.next_index() < 10);
            assert!(z.next_uniform_index() < 10);
        }
    }

    #[test]
    fn popularity_decays_with_rank() {
        let mut z = ZipfKeys::new(1_000, 0.99, 2009);
        let mut hits = vec![0u64; 1_000];
        for _ in 0..50_000 {
            hits[z.next_index()] += 1;
        }
        // Ranks decay: head ≫ torso ≫ tail (bucketed to smooth noise).
        let head: u64 = hits[..10].iter().sum();
        let torso: u64 = hits[100..110].iter().sum();
        let tail: u64 = hits[900..910].iter().sum();
        assert!(head > 5 * torso.max(1), "head {head} torso {torso}");
        assert!(torso > tail, "torso {torso} tail {tail}");
        // The YCSB constant: the hottest key draws several percent of
        // all accesses at θ=0.99 over 1k keys.
        assert!(hits[0] as f64 / 50_000.0 > 0.05, "p(hottest) = {}", hits[0]);
    }

    #[test]
    fn uniform_control_is_flat() {
        let mut z = ZipfKeys::new(100, 0.99, 11);
        let mut hits = vec![0u64; 100];
        for _ in 0..50_000 {
            hits[z.next_uniform_index()] += 1;
        }
        let max = *hits.iter().max().unwrap() as f64;
        let mean = 50_000.0 / 100.0;
        assert!(max / mean < 1.3, "uniform max/mean = {}", max / mean);
    }

    #[test]
    fn single_key_space_always_returns_zero() {
        let mut z = ZipfKeys::new(1, 0.9, 0);
        for _ in 0..10 {
            assert_eq!(z.next_index(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "nonempty key space")]
    fn zero_keys_panics() {
        ZipfKeys::new(0, 0.5, 0);
    }

    #[test]
    #[should_panic(expected = "theta must lie in (0, 1)")]
    fn theta_one_panics() {
        ZipfKeys::new(10, 1.0, 0);
    }
}
