//! Seeded random number generation for tensor initialization and data
//! synthesis: uniform, Box–Muller normal, and log-normal variates over a
//! `ChaCha8` stream (fast, reproducible, portable).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A seeded RNG with the distributions the workspace needs.
pub struct TensorRng {
    rng: ChaCha8Rng,
    /// Spare normal from the last Box–Muller pair.
    spare: Option<f64>,
}

impl TensorRng {
    pub fn new(seed: u64) -> Self {
        TensorRng {
            rng: ChaCha8Rng::seed_from_u64(seed),
            spare: None,
        }
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        self.rng.gen::<f64>()
    }

    /// Uniform integer in `[0, n)`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        self.rng.gen_range(0..n)
    }

    /// Standard normal via Box–Muller (cached pair).
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        // u1 in (0,1] to keep ln finite.
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Log-normal with the given parameters of the underlying normal.
    #[inline]
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.normal()).exp()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = TensorRng::new(7);
        let mut b = TensorRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.normal(), b.normal());
            assert_eq!(a.uniform(), b.uniform());
        }
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = TensorRng::new(42);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn lognormal_median_is_exp_mu() {
        let mut rng = TensorRng::new(1);
        let n = 40_001;
        let mut xs: Vec<f64> = (0..n).map(|_| rng.lognormal(5.0, 0.6)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[n / 2];
        let want = 5.0f64.exp();
        assert!(
            (median / want - 1.0).abs() < 0.05,
            "median {median} vs {want}"
        );
    }

    #[test]
    fn shuffle_permutes() {
        let mut rng = TensorRng::new(3);
        let mut v: Vec<usize> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>());
    }
}
