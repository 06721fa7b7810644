//! Deterministic random distributions.
//!
//! The paper's synthetic workload draws "scores, join keys, and coefficients
//! on the score functions ... from a Zipfian distribution" and network
//! delays "from a Poisson distribution with an average of 2 milliseconds"
//! (Section 7). We implement both on top of a seeded [`rand`] generator so
//! that every experiment is reproducible from a `u64` seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Create the deterministic generator used across the workspace.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// A Zipfian distribution over `{1, ..., n}` with exponent `s`.
///
/// Sampling uses the precomputed inverse CDF (O(log n) per draw), which is
/// both simple and exact. Set-up is O(n) `powf` calls: cheap once, but not
/// negligible when repeated — a 1,000-rank Zipf rebuilt for each generated
/// table costs ≈22% of table generation — so a caller drawing from one
/// distribution many times builds it once and shares it.
#[derive(Clone, Debug)]
pub struct Zipf {
    /// Cumulative probabilities; `cdf[k-1]` = P(X ≤ k).
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build a Zipf(n, s) distribution. `n` must be ≥ 1; `s` is typically
    /// around 1.0 (the paper does not report its exponent; 1.0 is the
    /// conventional default).
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n >= 1, "Zipf needs at least one outcome");
        assert!(s.is_finite(), "Zipf exponent must be finite, got {s}");
        let mut weights = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 1..=n {
            let w = 1.0 / (k as f64).powf(s);
            total += w;
            weights.push(total);
        }
        for w in &mut weights {
            *w /= total;
        }
        // Guard against floating-point shortfall at the top end.
        if let Some(last) = weights.last_mut() {
            *last = 1.0;
        }
        Zipf { cdf: weights }
    }

    /// Draw a rank in `1..=n` (rank 1 is most likely): the first rank whose
    /// cumulative probability reaches a uniform draw.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.random();
        self.cdf.partition_point(|p| *p < u) + 1
    }

    /// Number of outcomes.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }
}

/// A Poisson distribution with mean `lambda`, used for simulated network
/// delays.
///
/// Uses Knuth's multiplication method for small `lambda` and a normal
/// approximation above 30 (delays in this system use `lambda` ≈ 2000 µs /
/// tick granularity, so both paths matter depending on the unit chosen by
/// the caller).
#[derive(Clone, Copy, Debug)]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// Build a Poisson distribution with the given mean (must be > 0).
    pub fn new(lambda: f64) -> Poisson {
        assert!(lambda > 0.0, "Poisson mean must be positive");
        Poisson { lambda }
    }

    /// Draw a sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.lambda < 30.0 {
            // Knuth: multiply uniforms until the product drops below e^-λ.
            let limit = (-self.lambda).exp();
            let mut k = 0u64;
            let mut p = 1.0f64;
            loop {
                p *= rng.random::<f64>();
                if p <= limit {
                    return k;
                }
                k += 1;
            }
        } else {
            // Normal approximation with continuity correction; adequate for
            // delay simulation and O(1) regardless of λ.
            let (u1, u2): (f64, f64) = (rng.random(), rng.random());
            let z = (-2.0 * u1.max(1e-300).ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            let x = self.lambda + self.lambda.sqrt() * z + 0.5;
            if x < 0.0 {
                0
            } else {
                x as u64
            }
        }
    }

    /// The mean.
    pub fn mean(&self) -> f64 {
        self.lambda
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_rank_one_is_most_frequent() {
        let z = Zipf::new(100, 1.0);
        let mut rng = seeded_rng(7);
        let mut counts = vec![0u32; 101];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[1] > counts[2]);
        assert!(counts[2] > counts[10]);
        assert!(counts[1] > counts[50] * 5);
    }

    #[test]
    fn zipf_stays_in_range() {
        let z = Zipf::new(5, 1.2);
        let mut rng = seeded_rng(1);
        for _ in 0..1000 {
            let k = z.sample(&mut rng);
            assert!((1..=5).contains(&k));
        }
    }

    #[test]
    fn zipf_single_outcome() {
        let z = Zipf::new(1, 1.0);
        let mut rng = seeded_rng(3);
        assert_eq!(z.sample(&mut rng), 1);
    }

    /// The inverse-CDF lookup as a plain binary search, kept here as the
    /// reference `Zipf::sample` must agree with.
    fn reference_rank(z: &Zipf, u: f64) -> usize {
        match z.cdf.binary_search_by(|p| p.partial_cmp(&u).unwrap()) {
            Ok(i) | Err(i) => i + 1,
        }
    }

    #[test]
    fn zipf_sample_matches_reference_search() {
        let mut rng = seeded_rng(17);
        for n in [1, 2, 16, 300, 1000] {
            for s in [0.55, 0.7, 0.8, 1.0] {
                let z = Zipf::new(n, s);
                assert!(z.cdf.windows(2).all(|w| w[0] < w[1]), "n={n} s={s}");
                for _ in 0..10_000 {
                    let mut probe = rng.clone();
                    let u: f64 = probe.random();
                    assert_eq!(
                        z.sample(&mut rng),
                        reference_rank(&z, u),
                        "n={n} s={s} u={u}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn zipf_rejects_nan_exponent() {
        Zipf::new(5, f64::NAN);
    }

    #[test]
    fn poisson_small_lambda_mean() {
        let p = Poisson::new(2.0);
        let mut rng = seeded_rng(11);
        let n = 50_000;
        let sum: u64 = (0..n).map(|_| p.sample(&mut rng)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean was {mean}");
    }

    #[test]
    fn poisson_large_lambda_mean() {
        let p = Poisson::new(2000.0);
        let mut rng = seeded_rng(13);
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| p.sample(&mut rng)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 2000.0).abs() < 10.0, "mean was {mean}");
    }

    #[test]
    fn determinism_from_seed() {
        let z = Zipf::new(50, 1.0);
        let a: Vec<usize> = {
            let mut rng = seeded_rng(42);
            (0..32).map(|_| z.sample(&mut rng)).collect()
        };
        let b: Vec<usize> = {
            let mut rng = seeded_rng(42);
            (0..32).map(|_| z.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
