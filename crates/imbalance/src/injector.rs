//! Deterministic delay injectors reproducing the paper's protocols.

use rand::seq::index::sample;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

/// Mix (seed, step) into a per-step RNG every rank agrees on.
fn step_rng(seed: u64, step: u64) -> ChaCha8Rng {
    let mut z = seed ^ step.wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    ChaCha8Rng::seed_from_u64(z ^ (z >> 31))
}

/// A delay-injection protocol. All variants are pure functions of
/// `(rank, P, step)` (plus their seed), so every rank can evaluate the
/// global injection pattern without communication.
#[derive(Debug, Clone)]
pub enum Injector {
    /// No injected delay.
    None,
    /// Rank `i` is delayed by `i × unit` — the fully skewed pattern of the
    /// Fig. 8/9 microbenchmark ("processes are linearly skewed by
    /// injecting load imbalance from 1 ms to 32 ms").
    LinearSkew { unit_ms: f64 },
    /// Each step, `k` distinct pseudo-random ranks receive `amount` —
    /// the Fig. 10 (k=1 of 8) and Fig. 11 (k=4 of 64) protocol.
    RandomRanks { k: usize, amount_ms: f64, seed: u64 },
    /// Every rank is delayed every step; the per-rank amounts are `P`
    /// evenly spaced values in `[min, max]`, rotated by one position each
    /// step — Fig. 12's severe imbalance ("skewed by injecting load
    /// imbalance from 50 ms to 400 ms ... the injection amount over the
    /// processes is shifted after each step").
    ShiftingSkew { min_ms: f64, max_ms: f64 },
    /// Per-(rank, step) log-normal noise rides on a base delay — the
    /// cloud-variability model of Fig. 4 (unimodal with a right tail).
    CloudNoise {
        base_ms: f64,
        mu_log: f64,
        sigma_log: f64,
        seed: u64,
    },
}

impl Injector {
    /// The Fig. 4-fitted cloud-noise model: extra delay with mean ≈ 55 ms
    /// and a tail to ≈ 1.5 s on top of a 399 ms floor is what the paper
    /// measured; here only the *extra* noise part is injected (the base
    /// compute happens for real).
    pub fn cloud_default(seed: u64) -> Self {
        Injector::CloudNoise {
            base_ms: 0.0,
            mu_log: 3.16,
            sigma_log: 1.30,
            seed,
        }
    }

    /// Re-derive this injector's embedded randomness from `base`, the one
    /// experiment-level seed. Each seeded variant gets a domain-separated
    /// derivation (so two different variants built from the same `base`
    /// do not correlate); seedless variants pass through unchanged.
    ///
    /// This is the single seeding path: configs construct an injector
    /// shape (any embedded seed is a placeholder), and the harness calls
    /// `with_seed(cfg.seed)` exactly once — every delay in a run then
    /// reproduces from the one `--seed` flag, instead of each call site
    /// xor-ing its own ad-hoc constant.
    #[must_use]
    pub fn with_seed(self, base: u64) -> Self {
        match self {
            Injector::RandomRanks { k, amount_ms, .. } => Injector::RandomRanks {
                k,
                amount_ms,
                seed: base ^ 0x52414E4B, // "RANK"
            },
            Injector::CloudNoise {
                base_ms,
                mu_log,
                sigma_log,
                ..
            } => Injector::CloudNoise {
                base_ms,
                mu_log,
                sigma_log,
                seed: base ^ 0x434C4F55, // "CLOU"
            },
            other => other,
        }
    }

    /// Injected delay for `rank` (of `p`) at `step`, unscaled.
    pub fn delay_ms(&self, rank: usize, p: usize, step: u64) -> f64 {
        match self {
            Injector::None => 0.0,
            Injector::LinearSkew { unit_ms } => rank as f64 * unit_ms,
            Injector::RandomRanks { k, amount_ms, seed } => {
                if *k == 0 {
                    return 0.0;
                }
                let mut rng = step_rng(*seed, step);
                let chosen = sample(&mut rng, p, (*k).min(p));
                if chosen.iter().any(|c| c == rank) {
                    *amount_ms
                } else {
                    0.0
                }
            }
            Injector::ShiftingSkew { min_ms, max_ms } => {
                if p <= 1 {
                    return *min_ms;
                }
                let slot = (rank + step as usize) % p;
                min_ms + (max_ms - min_ms) * slot as f64 / (p - 1) as f64
            }
            Injector::CloudNoise {
                base_ms,
                mu_log,
                sigma_log,
                seed,
            } => {
                // Per-(rank, step) deterministic normal via two uniforms.
                use rand::Rng;
                let mut rng = step_rng(seed ^ ((rank as u64 + 1) << 32), step);
                let u1: f64 = 1.0 - rng.gen::<f64>();
                let u2: f64 = rng.gen();
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                base_ms + (mu_log + sigma_log * z).exp()
            }
        }
    }

    /// All ranks' injected delays at `step`, unscaled — the global view
    /// every rank can compute from the shared seed. Equivalent to calling
    /// [`Injector::delay_ms`] once per rank, but draws the shared
    /// randomness once instead of `p` times (the per-step telemetry path
    /// of the adaptive tuner calls this every training step).
    pub fn delays_all(&self, p: usize, step: u64) -> Vec<f64> {
        match self {
            Injector::RandomRanks { k, amount_ms, seed } => {
                let mut out = vec![0.0; p];
                if *k > 0 {
                    let mut rng = step_rng(*seed, step);
                    for c in sample(&mut rng, p, (*k).min(p)).iter() {
                        out[c] = *amount_ms;
                    }
                }
                out
            }
            _ => (0..p).map(|r| self.delay_ms(r, p, step)).collect(),
        }
    }

    /// Sleep for this step's delay, multiplied by `scale` (wall-clock ms
    /// per injected ms).
    pub fn inject(&self, rank: usize, p: usize, step: u64, scale: f64) {
        let ms = self.delay_ms(rank, p, step) * scale;
        if ms > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(ms / 1e3));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_skew_is_linear() {
        let i = Injector::LinearSkew { unit_ms: 1.0 };
        for r in 0..32 {
            assert_eq!(i.delay_ms(r, 32, 0), r as f64);
            assert_eq!(i.delay_ms(r, 32, 99), r as f64, "step-independent");
        }
    }

    #[test]
    fn random_ranks_selects_exactly_k() {
        let inj = Injector::RandomRanks {
            k: 4,
            amount_ms: 300.0,
            seed: 5,
        };
        for step in 0..50 {
            let hit: Vec<usize> = (0..64)
                .filter(|&r| inj.delay_ms(r, 64, step) > 0.0)
                .collect();
            assert_eq!(hit.len(), 4, "step {step}: {hit:?}");
        }
    }

    #[test]
    fn random_ranks_is_deterministic_and_step_varying() {
        let inj = Injector::RandomRanks {
            k: 1,
            amount_ms: 200.0,
            seed: 9,
        };
        let pick = |step| (0..8).find(|&r| inj.delay_ms(r, 8, step) > 0.0).unwrap();
        assert_eq!(pick(3), pick(3));
        let picks: Vec<usize> = (0..64).map(pick).collect();
        let first = picks[0];
        assert!(
            picks.iter().any(|&x| x != first),
            "selection must vary across steps"
        );
    }

    #[test]
    fn random_ranks_selection_is_roughly_uniform() {
        let inj = Injector::RandomRanks {
            k: 1,
            amount_ms: 1.0,
            seed: 77,
        };
        let p = 8;
        let steps = 4000u64;
        let mut counts = vec![0usize; p];
        for s in 0..steps {
            for (r, c) in counts.iter_mut().enumerate() {
                if inj.delay_ms(r, p, s) > 0.0 {
                    *c += 1;
                }
            }
        }
        let expect = steps as f64 / p as f64;
        for (r, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64) > 0.8 * expect && (c as f64) < 1.2 * expect,
                "rank {r}: {c} vs {expect}"
            );
        }
    }

    #[test]
    fn shifting_skew_covers_range_and_rotates() {
        let inj = Injector::ShiftingSkew {
            min_ms: 50.0,
            max_ms: 400.0,
        };
        let p = 8;
        // At any step the multiset of delays is the same 8 levels.
        let delays_at = |step| {
            let mut v: Vec<f64> = (0..p).map(|r| inj.delay_ms(r, p, step)).collect();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v
        };
        assert_eq!(delays_at(0), delays_at(17));
        assert_eq!(delays_at(0)[0], 50.0);
        assert_eq!(delays_at(0)[p - 1], 400.0);
        // A fixed rank's delay shifts over steps.
        assert_ne!(inj.delay_ms(3, p, 0), inj.delay_ms(3, p, 1));
        // Rotation: rank r at step s+1 has the delay rank r+1 had at s.
        assert_eq!(inj.delay_ms(3, p, 1), inj.delay_ms(4, p, 0));
    }

    #[test]
    fn cloud_noise_is_right_skewed() {
        let inj = Injector::cloud_default(3);
        let mut xs: Vec<f64> = (0..20_000)
            .map(|s| inj.delay_ms(s % 64, 64, s as u64))
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let median = xs[xs.len() / 2];
        assert!(
            mean > median * 1.3,
            "right-skew: mean {mean} should exceed median {median}"
        );
        // Matches the Fig. 4 scale: mean extra delay ≈ 55 ms.
        assert!((40.0..75.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn none_injects_nothing() {
        assert_eq!(Injector::None.delay_ms(5, 8, 3), 0.0);
    }

    #[test]
    fn with_seed_rederives_embedded_seeds_domain_separated() {
        let rr = Injector::RandomRanks {
            k: 1,
            amount_ms: 1.0,
            seed: 0,
        };
        let a = rr.clone().with_seed(42);
        let b = rr.clone().with_seed(42);
        let c = rr.clone().with_seed(43);
        // Same base seed → identical protocol; different base → different.
        let picks = |inj: &Injector| -> Vec<usize> {
            (0..32)
                .map(|s| (0..8).find(|&r| inj.delay_ms(r, 8, s) > 0.0).unwrap())
                .collect()
        };
        assert_eq!(picks(&a), picks(&b));
        assert_ne!(picks(&a), picks(&c));
        // Domain separation: cloud noise from the same base uses a
        // different derived seed than random-ranks.
        let (Injector::RandomRanks { seed: sa, .. }, Injector::CloudNoise { seed: sc, .. }) =
            (a, Injector::cloud_default(0).with_seed(42))
        else {
            panic!("variant shape preserved");
        };
        assert_ne!(sa, sc);
        // Seedless variants pass through untouched.
        let lin = Injector::LinearSkew { unit_ms: 2.0 }.with_seed(9);
        assert_eq!(lin.delay_ms(3, 8, 0), 6.0);
    }

    #[test]
    fn delays_all_matches_per_rank_queries() {
        let p = 16;
        for inj in [
            Injector::None,
            Injector::LinearSkew { unit_ms: 2.0 },
            Injector::RandomRanks {
                k: 3,
                amount_ms: 50.0,
                seed: 7,
            },
            Injector::ShiftingSkew {
                min_ms: 5.0,
                max_ms: 80.0,
            },
            Injector::cloud_default(3),
        ] {
            for step in [0u64, 1, 17, 999] {
                let bulk = inj.delays_all(p, step);
                let single: Vec<f64> = (0..p).map(|r| inj.delay_ms(r, p, step)).collect();
                assert_eq!(bulk, single, "{inj:?} step {step}");
            }
        }
    }
}
