//! Theorem 5.2: the learning-rate bound and iteration count for
//! eager-SGD convergence on L-smooth non-convex objectives.
//!
//! The theorem (under Assumptions 1–2 and the Lemma 5.1 ADS guarantees):
//! for success parameter ε > 0 there exists a learning rate
//!
//! ```text
//! α ≤ min(  √( εP / (12·L·τ·M·(P−Q)) ),
//!           εP / (12·L·τ·M·(P−Q)),
//!           ε  / (12·M²·L) )
//! ```
//!
//! such that running T = Θ((f(w₀) − m) / (ε·α)) iterations reaches an
//! iterate with ‖∇f(w_t⋆)‖² ≤ ε. (The middle term appears in the arXiv
//! source as `εP / (4L·3τM(P−Q))`; we keep `12 = 4·3` folded. The
//! qualitative content — α shrinks with staleness τ and missing quorum
//! P−Q, and T ≥ Θ((f(w₀)−m)·τ(P−Q)/(P·ε²)) — is what the tests and the
//! `theory_sweep` harness verify empirically via the ADS simulator.)

use pcoll::QuorumPolicy;

/// Problem and system constants of Theorem 5.2.
#[derive(Debug, Clone)]
pub struct ConvergenceParams {
    /// Smoothness constant L (Assumption 1).
    pub l_smooth: f64,
    /// Second-moment bound M (Assumption 2: E‖G‖² ≤ M²).
    pub m_bound: f64,
    /// Initial sub-optimality f(w₀) − m.
    pub f0_gap: f64,
    /// Number of processes P.
    pub p: usize,
    /// Quorum lower bound Q (Lemma 5.1.3).
    pub q: usize,
    /// Staleness bound τ (Lemma 5.1.4).
    pub tau: u64,
    /// Success parameter ε.
    pub eps: f64,
}

impl ConvergenceParams {
    /// The Theorem 5.2 learning-rate bound. For Q = P (fully synchronous)
    /// the first two terms are vacuous and only the ε/(12M²L) term
    /// remains.
    pub fn max_learning_rate(&self) -> f64 {
        let p = self.p as f64;
        let missing = (self.p - self.q.min(self.p)) as f64;
        let t3 = self.eps / (12.0 * self.m_bound * self.m_bound * self.l_smooth);
        if missing == 0.0 || self.tau == 0 {
            return t3;
        }
        let denom = 12.0 * self.l_smooth * self.tau as f64 * self.m_bound * missing;
        let t1 = (self.eps * p / denom).sqrt();
        let t2 = self.eps * p / denom;
        t1.min(t2).min(t3)
    }

    /// T = (f(w₀) − m) / (ε·α): iterations guaranteeing ‖∇f‖² ≤ ε at the
    /// given learning rate.
    pub fn iterations(&self, alpha: f64) -> f64 {
        self.f0_gap / (self.eps * alpha)
    }

    /// The discussion's lower-bound shape:
    /// T ≥ Θ((f(w₀) − m)·τ·(P − Q) / (P·ε²)).
    pub fn iterations_lower_bound_shape(&self) -> f64 {
        let p = self.p as f64;
        let missing = (self.p - self.q.min(self.p)) as f64;
        if missing == 0.0 {
            return self.f0_gap / (self.eps * self.eps);
        }
        self.f0_gap * self.tau as f64 * missing / (p * self.eps * self.eps)
    }
}

/// The E\[NAP\] model generalized from §4's uniform-skew analysis to an
/// *empirical* arrival-offset distribution: given the (estimated or exact)
/// per-rank arrival offsets of one round, predict for any
/// [`QuorumPolicy`] the expected initiator arrival time, the expected
/// number of active processes, and the resulting round duration.
///
/// Under uniform offsets this reproduces the paper's closed forms
/// (E\[NAP\] = P/2 for majority, ≈ P/(m+1) for first-of-m, ≈ P·m/(m+1)
/// for chain-m); with offsets rebuilt from the measured skew (the tuner's
/// EWMA mean and spread) it becomes the plant model of the closed-loop
/// quorum tuner.
#[derive(Debug, Clone)]
pub struct NapModel {
    /// Number of processes P.
    pub p: usize,
    /// Per-rank arrival offsets in ms, sorted ascending (offset = how long
    /// after the earliest possible arrival this rank reaches the
    /// collective; the injector's delays, or offsets spread evenly over
    /// the tuner's measured mean ± spread/2).
    pub offsets_ms: Vec<f64>,
    /// Fixed communication cost per round (ms).
    pub comm_ms: f64,
    /// Balanced per-step compute (ms): the part of the round every rank
    /// pays regardless of skew.
    pub base_ms: f64,
}

/// One policy's predicted round behavior (a "NAP summary").
#[derive(Debug, Clone, Copy)]
pub struct NapPrediction {
    /// Expected number of active (fresh-contributing) processes.
    pub e_nap: f64,
    /// Expected initiator arrival offset (ms).
    pub initiator_ms: f64,
    /// Expected wall time of one round: base + initiator wait + comm.
    pub round_ms: f64,
}

/// `C(n, k)` as f64 (exact for the small n used here).
fn choose(n: usize, k: usize) -> f64 {
    if k > n {
        return 0.0;
    }
    let k = k.min(n - k);
    let mut c = 1.0;
    for i in 0..k {
        c = c * (n - i) as f64 / (i + 1) as f64;
    }
    c
}

impl NapModel {
    /// Build from (possibly unsorted) per-rank offsets.
    pub fn new(mut offsets_ms: Vec<f64>, comm_ms: f64, base_ms: f64) -> Self {
        assert!(!offsets_ms.is_empty(), "need at least one rank offset");
        offsets_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite offsets"));
        NapModel {
            p: offsets_ms.len(),
            offsets_ms,
            comm_ms,
            base_ms,
        }
    }

    /// E\[min\] of a uniformly random `m`-subset of the offsets:
    /// Σᵢ oᵢ·C(p−1−i, m−1)/C(p, m) over the ascending order statistics.
    fn e_min_of(&self, m: usize) -> f64 {
        let m = m.clamp(1, self.p);
        let total = choose(self.p, m);
        self.offsets_ms
            .iter()
            .enumerate()
            .map(|(i, o)| o * choose(self.p - 1 - i, m - 1) / total)
            .sum()
    }

    /// E\[max\] of a uniformly random `m`-subset.
    fn e_max_of(&self, m: usize) -> f64 {
        let m = m.clamp(1, self.p);
        let total = choose(self.p, m);
        self.offsets_ms
            .iter()
            .enumerate()
            .map(|(i, o)| o * choose(i, m - 1) / total)
            .sum()
    }

    /// Predict one policy's round under these offsets.
    pub fn predict(&self, policy: QuorumPolicy) -> NapPrediction {
        let initiator_ms = match policy {
            QuorumPolicy::Solo => self.offsets_ms[0],
            QuorumPolicy::FirstOf(m) => self.e_min_of(m),
            QuorumPolicy::Majority => self.offsets_ms.iter().sum::<f64>() / self.p as f64,
            QuorumPolicy::Chain(m) => self.e_max_of(m),
            QuorumPolicy::Full => self.offsets_ms[self.p - 1],
        };
        // Active processes: the ranks that arrive no later than the
        // initiator (plug-in estimate at the expected initiator time).
        let arrived = self
            .offsets_ms
            .iter()
            .filter(|&&o| o <= initiator_ms + 1e-12)
            .count() as f64;
        let e_nap = match policy {
            QuorumPolicy::Full => self.p as f64,
            // A chain guarantees its own candidates even if the plug-in
            // count under-estimates.
            QuorumPolicy::Chain(m) => arrived.max(m.min(self.p) as f64),
            _ => arrived.max(1.0),
        };
        NapPrediction {
            e_nap,
            initiator_ms,
            round_ms: self.base_ms + initiator_ms + self.comm_ms,
        }
    }

    /// Statistically-weighted update throughput: `(E[NAP]/P)^β` fresh
    /// gradient mass per round (β < 1 models the diminishing returns of
    /// effective batch size) divided by the round duration in seconds.
    /// This is the objective the closed-loop controllers maximize, and it
    /// is *measurable* online as `fresh_fraction^β × rounds_per_sec`.
    pub fn utility(&self, policy: QuorumPolicy, beta: f64) -> f64 {
        let pred = self.predict(policy);
        (pred.e_nap / self.p as f64).powf(beta) / (pred.round_ms / 1e3)
    }

    /// The theory-optimal policy among `arms` under these offsets.
    pub fn best_policy(&self, arms: &[QuorumPolicy], beta: f64) -> QuorumPolicy {
        *arms
            .iter()
            .max_by(|a, b| {
                self.utility(**a, beta)
                    .partial_cmp(&self.utility(**b, beta))
                    .expect("finite utilities")
            })
            .expect("non-empty arm set")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> ConvergenceParams {
        ConvergenceParams {
            l_smooth: 1.0,
            m_bound: 2.0,
            f0_gap: 10.0,
            p: 8,
            q: 4,
            tau: 4,
            eps: 0.01,
        }
    }

    #[test]
    fn rate_shrinks_with_staleness() {
        let a = base().max_learning_rate();
        let mut worse = base();
        worse.tau = 64;
        assert!(worse.max_learning_rate() < a);
    }

    #[test]
    fn rate_shrinks_as_quorum_drops() {
        let mut solo = base();
        solo.q = 1;
        let mut majority = base();
        majority.q = 4;
        assert!(solo.max_learning_rate() <= majority.max_learning_rate());
    }

    #[test]
    fn full_quorum_gives_the_sync_rate() {
        let mut sync = base();
        sync.q = sync.p;
        let expect = sync.eps / (12.0 * sync.m_bound * sync.m_bound * sync.l_smooth);
        assert_eq!(sync.max_learning_rate(), expect);
    }

    #[test]
    fn iterations_scale_inverse_eps_squared_when_rate_limited() {
        // When α is ε-limited, T = f0/(ε·α) ~ 1/ε²: quartering ε must
        // multiply iterations ≈ 16×.
        let p1 = base();
        let t1 = p1.iterations(p1.max_learning_rate());
        let mut p2 = base();
        p2.eps = p1.eps / 4.0;
        let t2 = p2.iterations(p2.max_learning_rate());
        let ratio = t2 / t1;
        assert!(
            (8.0..32.0).contains(&ratio),
            "T should scale ~1/ε² (got ratio {ratio})"
        );
    }

    #[test]
    fn lower_bound_grows_linearly_in_missing_quorum() {
        let mut q1 = base();
        q1.q = 7; // one missing
        let mut q4 = base();
        q4.q = 4; // four missing
        let r = q4.iterations_lower_bound_shape() / q1.iterations_lower_bound_shape();
        assert!((3.9..4.1).contains(&r), "linear in (P−Q), got {r}");
    }

    fn uniform_model(p: usize, range_ms: f64) -> NapModel {
        let offsets: Vec<f64> = (0..p)
            .map(|i| range_ms * i as f64 / (p - 1) as f64)
            .collect();
        NapModel::new(offsets, 1.0, 5.0)
    }

    #[test]
    fn nap_model_reproduces_paper_closed_forms_under_uniform_skew() {
        let p = 32;
        let m = uniform_model(p, 32.0);
        // Solo: E[NAP] ≈ 1; majority: ≈ P/2; full: P (§4.1–4.2).
        assert_eq!(m.predict(QuorumPolicy::Solo).e_nap, 1.0);
        let maj = m.predict(QuorumPolicy::Majority).e_nap;
        assert!(
            (maj - p as f64 / 2.0).abs() <= 1.0,
            "majority E[NAP] {maj} ≉ P/2"
        );
        assert_eq!(m.predict(QuorumPolicy::Full).e_nap, p as f64);
        // FirstOf(m): ≈ P/(m+1); Chain(m): ≈ P·m/(m+1) (§8 spectrum).
        for q in [1usize, 3, 7] {
            let fo = m.predict(QuorumPolicy::FirstOf(q)).e_nap;
            let expect = p as f64 / (q as f64 + 1.0);
            assert!(
                (fo - expect).abs() <= 2.0,
                "first-of-{q} E[NAP] {fo} vs {expect}"
            );
            let ch = m.predict(QuorumPolicy::Chain(q)).e_nap;
            let expect = p as f64 * q as f64 / (q as f64 + 1.0);
            assert!(
                (ch - expect).abs() <= 2.0,
                "chain-{q} E[NAP] {ch} vs {expect}"
            );
        }
    }

    #[test]
    fn nap_model_initiator_times_are_ordered_along_the_spectrum() {
        let m = uniform_model(16, 100.0);
        let solo = m.predict(QuorumPolicy::Solo).initiator_ms;
        let fo4 = m.predict(QuorumPolicy::FirstOf(4)).initiator_ms;
        let maj = m.predict(QuorumPolicy::Majority).initiator_ms;
        let ch4 = m.predict(QuorumPolicy::Chain(4)).initiator_ms;
        let full = m.predict(QuorumPolicy::Full).initiator_ms;
        assert!(solo <= fo4 && fo4 <= maj && maj <= ch4 && ch4 <= full);
    }

    #[test]
    fn utility_prefers_sync_when_balanced_and_async_under_heavy_skew() {
        let arms = [
            QuorumPolicy::Solo,
            QuorumPolicy::FirstOf(4),
            QuorumPolicy::Majority,
            QuorumPolicy::Chain(4),
            QuorumPolicy::Full,
        ];
        // No skew: waiting for everyone costs nothing, full gradients win.
        let balanced = NapModel::new(vec![0.0; 8], 1.0, 5.0);
        assert_eq!(balanced.best_policy(&arms, 0.5), QuorumPolicy::Full);
        // Skew ≫ compute: waiting dominates, the async end wins.
        let skewed = NapModel::new((0..8).map(|i| 100.0 * i as f64).collect(), 1.0, 5.0);
        let best = skewed.best_policy(&arms, 0.5);
        assert!(
            matches!(best, QuorumPolicy::Solo | QuorumPolicy::FirstOf(_)),
            "heavy skew should pick the async end, got {best}"
        );
        // The utility of the best arm beats the worst by a real margin.
        let best_u = skewed.utility(best, 0.5);
        let worst_u = arms
            .iter()
            .map(|a| skewed.utility(*a, 0.5))
            .fold(f64::INFINITY, f64::min);
        assert!(best_u > 1.5 * worst_u, "{best_u} vs {worst_u}");
    }

    /// The bound is *sufficient*: the ADS simulator converges to ‖∇f‖² ≤ ε
    /// within a constant factor of the predicted iteration count.
    #[test]
    fn ads_converges_within_theorem_budget() {
        use crate::ads::{run_ads, AdsConfig, Quadratic};
        let params = ConvergenceParams {
            l_smooth: 1.0,
            m_bound: 4.0,
            f0_gap: 30.0,
            p: 8,
            q: 4,
            tau: 4,
            eps: 0.5,
        };
        let alpha = params.max_learning_rate();
        let t = params.iterations(alpha).ceil() as usize;
        let obj = Quadratic {
            target: vec![0.0; 8],
        };
        let run = run_ads(
            &obj,
            &AdsConfig {
                p: params.p,
                quorum: params.q,
                tau: params.tau,
                alpha,
                rounds: (4 * t).min(2_000_000),
                noise_std: 0.05,
                seed: 11,
            },
        );
        assert!(
            run.best_grad_norm_sq <= params.eps,
            "‖∇f‖² = {} > ε = {} within 4T = {} rounds (α = {alpha})",
            run.best_grad_norm_sq,
            params.eps,
            4 * t
        );
    }
}
