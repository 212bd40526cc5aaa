//! Policy controllers over the quorum spectrum: static pinning, 1-D hill
//! climbing, and a UCB1-style bandit. All controllers are deterministic
//! functions of the reward sequence they are fed, which is what lets every
//! rank run its own copy and still agree (the rewards come from a
//! rank-summed stats vector — see `pcoll::QuorumTuner`).

use pcoll::QuorumPolicy;

/// The candidate arms spanning §8's solo–majority–full spectrum for `p`
/// ranks, ordered from most-asynchronous to most-synchronous. Power-of-two
/// quorum sizes keep the arm count logarithmic in `p`.
pub fn spectrum(p: usize) -> Vec<QuorumPolicy> {
    let mut arms = vec![QuorumPolicy::Solo];
    let mut m = p / 2;
    while m >= 2 {
        arms.push(QuorumPolicy::FirstOf(m));
        m /= 2;
    }
    arms.push(QuorumPolicy::Majority);
    let mut m = 2;
    while m < p {
        arms.push(QuorumPolicy::Chain(m));
        m *= 2;
    }
    arms.push(QuorumPolicy::Full);
    arms
}

/// Which decision rule drives the arm selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ControllerKind {
    /// Never move (the baseline every adaptive run is judged against).
    Static,
    /// Value-based 1-D hill climbing along the spectrum: greedily sit on
    /// the best-valued of {left, current, right}, visiting unexplored
    /// neighbors first and re-probing a neighbor every few windows so a
    /// skew-regime shift is noticed. Cheap and settles on the peak of the
    /// (empirically near-unimodal) utility curve along the async→sync
    /// axis.
    HillClimb,
    /// UCB1 bandit over all arms: optimism in the face of uncertainty,
    /// with `explore` scaling the confidence radius. Handles non-unimodal
    /// reward landscapes and recovers from skew-regime shifts.
    Ucb { explore: f64 },
}

/// Deterministic controller state machine. Call [`Controller::step`] once
/// per decision window with the measured reward of the arm that just ran;
/// it returns the arm to run next.
#[derive(Debug, Clone)]
pub struct Controller {
    kind: ControllerKind,
    arms: Vec<QuorumPolicy>,
    current: usize,
    /// Per-arm EWMA reward (bandit value estimates; α keeps them tracking
    /// a shifting skew regime instead of averaging over stale history).
    values: Vec<f64>,
    counts: Vec<u64>,
    total: u64,
    /// Hill climb: decision counter driving the periodic neighbor probe.
    probe_tick: u64,
    value_alpha: f64,
}

/// Hill climb re-probes a neighbor every this-many settled decisions.
const PROBE_EVERY: u64 = 8;

impl Controller {
    pub fn new(kind: ControllerKind, arms: Vec<QuorumPolicy>, initial_arm: usize) -> Self {
        assert!(!arms.is_empty() && initial_arm < arms.len());
        let n = arms.len();
        Controller {
            kind,
            arms,
            current: initial_arm,
            values: vec![0.0; n],
            counts: vec![0; n],
            total: 0,
            probe_tick: 0,
            value_alpha: 0.5,
        }
    }

    pub fn arms(&self) -> &[QuorumPolicy] {
        &self.arms
    }

    pub fn current_policy(&self) -> QuorumPolicy {
        self.arms[self.current]
    }

    /// Per-arm value estimates (EWMA of observed rewards).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Seed every *unplayed* arm with a prior value (one pseudo-observation
    /// each) — e.g. the E\[NAP\] model's predicted utilities calibrated to
    /// the measured reward scale — so the first exploitation steps are
    /// model-guided instead of blind round-robin. Priors must be
    /// deterministic across ranks (the SPMD contract); arms already played
    /// keep their measured values.
    pub fn seed_values(&mut self, priors: &[f64]) {
        assert_eq!(priors.len(), self.arms.len(), "one prior per arm");
        for (i, &v) in priors.iter().enumerate() {
            if self.counts[i] == 0 {
                self.values[i] = v;
                self.counts[i] = 1;
                self.total += 1;
            }
        }
    }

    /// Record `reward` for the currently selected arm, then select and
    /// return the next arm's policy.
    pub fn step(&mut self, reward: f64) -> QuorumPolicy {
        let i = self.current;
        self.counts[i] += 1;
        self.total += 1;
        self.values[i] = if self.counts[i] == 1 {
            reward
        } else {
            self.values[i] + self.value_alpha * (reward - self.values[i])
        };

        self.current = match self.kind {
            ControllerKind::Static => i,
            ControllerKind::HillClimb => {
                let n = self.arms.len();
                let right = (i + 1 < n).then(|| i + 1);
                let left = (i > 0).then(|| i - 1);
                if let Some(j) = [right, left]
                    .into_iter()
                    .flatten()
                    .find(|&j| self.counts[j] == 0)
                {
                    // Learn the local gradient before exploiting it.
                    j
                } else {
                    self.probe_tick += 1;
                    if self.probe_tick.is_multiple_of(PROBE_EVERY) {
                        // Refresh a neighbor's value (alternating sides)
                        // so a shifted skew regime is noticed.
                        let toward_right = (self.probe_tick / PROBE_EVERY).is_multiple_of(2);
                        match (toward_right, right, left) {
                            (true, Some(j), _) | (false, _, Some(j)) => j,
                            (true, None, Some(j)) | (false, Some(j), None) => j,
                            _ => i,
                        }
                    } else {
                        // Greedy: best-valued of {left, current, right};
                        // ties keep the current arm.
                        [left, right].into_iter().flatten().fold(i, |best, j| {
                            if self.values[j] > self.values[best] {
                                j
                            } else {
                                best
                            }
                        })
                    }
                }
            }
            ControllerKind::Ucb { explore } => {
                if let Some(unplayed) = self.counts.iter().position(|&c| c == 0) {
                    unplayed
                } else {
                    // Scale-free UCB1: normalize the exploitation term by
                    // the best value so the confidence radius is
                    // commensurate regardless of the reward's units.
                    let vmax = self
                        .values
                        .iter()
                        .fold(f64::EPSILON, |a, &b| a.max(b.abs()));
                    let ln_t = (self.total as f64).ln();
                    let mut best = 0usize;
                    let mut best_score = f64::NEG_INFINITY;
                    for (j, (&v, &c)) in self.values.iter().zip(&self.counts).enumerate() {
                        let score = v / vmax + explore * (2.0 * ln_t / c as f64).sqrt();
                        if score > best_score {
                            best_score = score;
                            best = j;
                        }
                    }
                    best
                }
            }
        };
        self.arms[self.current]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spectrum_spans_async_to_sync() {
        let arms = spectrum(8);
        assert_eq!(arms.first(), Some(&QuorumPolicy::Solo));
        assert_eq!(arms.last(), Some(&QuorumPolicy::Full));
        assert!(arms.contains(&QuorumPolicy::Majority));
        assert!(arms.contains(&QuorumPolicy::FirstOf(4)));
        assert!(arms.contains(&QuorumPolicy::Chain(4)));
        // Guaranteed quorum is monotone along the spectrum.
        let qs: Vec<usize> = arms.iter().map(|a| a.guaranteed_quorum(8)).collect();
        assert!(qs.windows(2).all(|w| w[0] <= w[1]), "{qs:?}");
    }

    #[test]
    fn static_never_moves() {
        let mut c = Controller::new(ControllerKind::Static, spectrum(8), 3);
        for r in 0..10 {
            assert_eq!(c.step(r as f64), spectrum(8)[3]);
        }
    }

    /// A synthetic unimodal reward curve over the arm index.
    fn peaked_reward(arm: usize, peak: usize) -> f64 {
        10.0 - (arm as f64 - peak as f64).abs()
    }

    #[test]
    fn hill_climb_finds_and_holds_an_interior_peak() {
        let arms = spectrum(16);
        let peak = 4;
        let mut c = Controller::new(ControllerKind::HillClimb, arms.clone(), 0);
        let mut cur = 0usize;
        let mut visits = vec![0usize; arms.len()];
        for _ in 0..60 {
            let next = c.step(peaked_reward(cur, peak));
            cur = arms.iter().position(|a| *a == next).unwrap();
            visits[cur] += 1;
        }
        // The climber must spend most of its time on/adjacent to the peak.
        let near: usize = (peak.saturating_sub(1)..=peak + 1).map(|i| visits[i]).sum();
        assert!(near > 40, "visits {visits:?}");
    }

    #[test]
    fn ucb_converges_to_the_best_arm() {
        let arms = spectrum(8);
        let best = 2;
        let mut c = Controller::new(ControllerKind::Ucb { explore: 0.5 }, arms.clone(), 0);
        let mut cur = 0usize;
        let mut last_quarter = Vec::new();
        let total = 200;
        for t in 0..total {
            // Deterministic ±5% "noise" so arms are distinguishable but
            // not trivially so.
            let wobble = 1.0 + 0.05 * (((t * 2654435761_usize) % 100) as f64 / 50.0 - 1.0);
            let next = c.step(peaked_reward(cur, best) * wobble);
            cur = arms.iter().position(|a| *a == next).unwrap();
            if t >= 3 * total / 4 {
                last_quarter.push(cur);
            }
        }
        // UCB keeps probing by design; the best arm must dominate the
        // late picks (modal, and a solid plurality).
        let mut freq = vec![0usize; arms.len()];
        for &i in &last_quarter {
            freq[i] += 1;
        }
        assert_eq!(
            freq.iter().enumerate().max_by_key(|(_, &c)| c).unwrap().0,
            best,
            "late picks {last_quarter:?}"
        );
        assert!(
            freq[best] as f64 > 0.4 * last_quarter.len() as f64,
            "late picks {last_quarter:?}"
        );
    }

    #[test]
    fn ucb_plays_every_arm_before_exploiting() {
        let arms = spectrum(8);
        let n = arms.len();
        let mut c = Controller::new(ControllerKind::Ucb { explore: 1.0 }, arms.clone(), 0);
        let mut seen = std::collections::HashSet::new();
        seen.insert(0usize);
        let mut cur = 0;
        for _ in 0..n - 1 {
            let next = c.step(if cur == 1 { 100.0 } else { 1.0 });
            cur = arms.iter().position(|a| *a == next).unwrap();
            seen.insert(cur);
        }
        assert_eq!(seen.len(), n, "all arms probed once: {seen:?}");
    }

    #[test]
    fn seeded_values_guide_ucb_instead_of_round_robin() {
        let arms = spectrum(8);
        let mut c = Controller::new(ControllerKind::Ucb { explore: 0.1 }, arms.clone(), 3);
        // Model priors peaking at arm 5: after seeding, the bandit must
        // jump straight to the predicted-best arm rather than sweeping
        // unplayed arms in index order.
        let priors: Vec<f64> = (0..arms.len())
            .map(|i| 10.0 - (i as f64 - 5.0).abs())
            .collect();
        c.seed_values(&priors);
        let next = c.step(priors[3]);
        assert_eq!(next, arms[5], "values {:?}", c.values());
    }

    #[test]
    fn identical_reward_sequences_give_identical_trajectories() {
        // The SPMD determinism contract: two controller replicas fed the
        // same rewards pick the same arms forever.
        for kind in [
            ControllerKind::HillClimb,
            ControllerKind::Ucb { explore: 0.7 },
        ] {
            let mut a = Controller::new(kind, spectrum(8), 3);
            let mut b = Controller::new(kind, spectrum(8), 3);
            for t in 0..100 {
                let r = ((t * 37) % 11) as f64;
                assert_eq!(a.step(r), b.step(r), "{kind:?} diverged at {t}");
            }
        }
    }
}
