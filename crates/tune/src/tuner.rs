//! [`AdaptiveTuner`]: the concrete closed-loop controller handed to the
//! trainer and the simulator. It owns one skew signal (EWMAs of each
//! step's mean and max−min arrival offset) and one deterministic
//! [`Controller`], windows its runner's cumulative counter
//! snapshots on the rank's clock, and implements [`pcoll::QuorumTuner`]'s
//! measure → stats → decide protocol.

use crate::controller::{spectrum, Controller, ControllerKind};
use eager_sgd::NapModel;
use pcoll::{QuorumDecision, QuorumPolicy, QuorumTuner, RoundCounters, TunerSetup};
use pcoll_comm::{Clock, CommStatsSnapshot, TimePoint};

/// Stats-vector layout (summed elementwise across ranks; `decide` reads
/// every entry): `[rank_count, rounds, fresh, step_spread_ms, elapsed_s,
/// mean_offset_ms, queue_stall_ms]`.
const STATS_LEN: usize = 7;

/// EWMA weight of the newest step in the skew signal: tracks a shifting
/// skew regime within a few dozen steps without thrashing on noise.
const EWMA_ALPHA: f64 = 0.1;

/// Construction knobs for [`AdaptiveTuner`].
#[derive(Debug, Clone)]
pub struct AdaptiveTunerCfg {
    /// Decide every this-many training steps.
    ///
    /// Reward windows are measured on the rank's clock between decisions
    /// (wall time in training, virtual time in the simulator), so a
    /// window spanning an epoch boundary also absorbs that boundary's
    /// evaluation / weight-sync cost and under-credits whichever arm was
    /// active. Pick a period that divides `steps_per_epoch`, or evaluate
    /// sparsely (`eval_every` large), to keep windows comparable.
    pub period: u64,
    /// Exponent of the freshness term in the reward
    /// `fresh_fraction^β × rounds_per_s` (β < 1 = diminishing returns of
    /// effective batch size; see `eager_sgd::theory::NapModel::utility`).
    pub beta: f64,
    /// The decision rule.
    pub kind: ControllerKind,
    /// Starting policy (must be one of the spectrum arms for the adaptive
    /// kinds). `None` starts at majority — the paper's robust default.
    pub initial: Option<QuorumPolicy>,
}

impl Default for AdaptiveTunerCfg {
    fn default() -> Self {
        AdaptiveTunerCfg {
            period: 16,
            beta: 0.5,
            kind: ControllerKind::Ucb { explore: 0.6 },
            initial: None,
        }
    }
}

/// Per-rank closed-loop quorum tuner (counter windows → skew signal →
/// model → controller).
pub struct AdaptiveTuner {
    period: u64,
    beta: f64,
    p: usize,
    /// EWMA of each step's mean arrival offset (ms); `None` before the
    /// first step.
    mean_ms: Option<f64>,
    /// EWMA of each step's max−min arrival offset (ms).
    spread_ms: Option<f64>,
    controller: Controller,
    /// The rank's clock: reward windows are measured on it.
    clock: Clock,
    window_started: TimePoint,
    /// The cumulative counters handed in at the last decision boundary:
    /// a window is what moved since.
    window_rounds: RoundCounters,
    window_comm: CommStatsSnapshot,
    /// Whether untried arms were already seeded from the E\[NAP\] model.
    /// Only the bandit is seeded: marking arms as observed would disable
    /// hill-climb's visit-unexplored-neighbors sweep, which is what lets
    /// it cross valleys in the utility curve.
    seeded: bool,
}

impl AdaptiveTuner {
    /// A tuner for a world of `p`, timing its windows on `clock`.
    pub fn new(p: usize, cfg: AdaptiveTunerCfg, clock: Clock) -> Self {
        let (arms, initial_arm) = match (cfg.kind, cfg.initial) {
            // A static controller may pin any policy, on or off the
            // spectrum.
            (ControllerKind::Static, Some(policy)) => (vec![policy], 0),
            (_, initial) => {
                let arms = spectrum(p);
                let idx = match initial {
                    Some(policy) => arms.iter().position(|a| *a == policy).unwrap_or_else(|| {
                        panic!("initial policy {policy} not on spectrum(p={p})")
                    }),
                    None => arms
                        .iter()
                        .position(|a| *a == QuorumPolicy::Majority)
                        .expect("spectrum always contains majority"),
                };
                (arms, idx)
            }
        };
        let window_started = clock.now();
        AdaptiveTuner {
            period: cfg.period,
            beta: cfg.beta,
            p,
            mean_ms: None,
            spread_ms: None,
            controller: Controller::new(cfg.kind, arms, initial_arm),
            clock,
            window_started,
            window_rounds: RoundCounters::default(),
            window_comm: CommStatsSnapshot::default(),
            seeded: !matches!(cfg.kind, ControllerKind::Ucb { .. }),
        }
    }
}

/// One EWMA step; the first sample seeds the average.
fn ewma(avg: Option<f64>, x: f64) -> Option<f64> {
    Some(avg.map_or(x, |m| m + EWMA_ALPHA * (x - m)))
}

impl QuorumTuner for AdaptiveTuner {
    fn period(&self) -> u64 {
        self.period
    }

    fn initial_policy(&self) -> Option<QuorumPolicy> {
        Some(self.controller.current_policy())
    }

    fn record_step(&mut self, _step: u64, offsets_ms: &[f64]) {
        if offsets_ms.is_empty() {
            return;
        }
        let (mut lo, mut hi, mut sum) = (f64::INFINITY, f64::NEG_INFINITY, 0.0);
        for &o in offsets_ms {
            lo = lo.min(o);
            hi = hi.max(o);
            sum += o;
        }
        self.mean_ms = ewma(self.mean_ms, sum / offsets_ms.len() as f64);
        self.spread_ms = ewma(self.spread_ms, hi - lo);
    }

    fn stats_len(&self) -> usize {
        STATS_LEN
    }

    fn local_stats(&mut self, rounds: RoundCounters, comm: CommStatsSnapshot) -> Vec<f32> {
        let window = rounds.since(&self.window_rounds);
        let stall_ms = comm.since(&self.window_comm).stall_ms;
        self.window_rounds = rounds;
        self.window_comm = comm;
        let now = self.clock.now();
        let elapsed = now.duration_since(self.window_started).as_secs_f64();
        self.window_started = now;
        vec![
            1.0,
            window.completions as f32,
            window.fresh as f32,
            self.spread_ms.unwrap_or(0.0) as f32,
            elapsed as f32,
            self.mean_ms.unwrap_or(0.0) as f32,
            stall_ms as f32,
        ]
    }

    fn decide(&mut self, step: u64, from_round: u64, summed: &[f32]) -> Option<QuorumDecision> {
        assert_eq!(summed.len(), STATS_LEN, "stats vector shape");
        let ranks = f64::from(summed[0]).max(1.0);
        let rounds = f64::from(summed[1]);
        let fresh = f64::from(summed[2]);
        let elapsed = f64::from(summed[4]);
        let fresh_fraction = if rounds > 0.0 { fresh / rounds } else { 0.0 };
        let rounds_per_s = if elapsed > 0.0 { rounds / elapsed } else { 0.0 };
        let reward = fresh_fraction.powf(self.beta) * rounds_per_s;
        // Close the skew signal → model → controller loop: at the first
        // informative window, turn the rank-averaged mean and spread into
        // a NapModel and seed every untried arm's value with its predicted
        // utility, calibrated so the current arm's prediction equals its
        // measured reward. Deterministic: inputs are the summed stats only.
        if !self.seeded && rounds > 0.0 && rounds_per_s > 0.0 && reward > 0.0 {
            self.seeded = true;
            let mean = f64::from(summed[5]) / ranks;
            let spread = f64::from(summed[3]) / ranks;
            let pf = self.p as f64;
            let offsets: Vec<f64> = (0..self.p)
                .map(|i| (mean - spread / 2.0 + spread * (i as f64 + 0.5) / pf).max(0.0))
                .collect();
            let current = self.controller.current_policy();
            // Whatever round time the initiator wait does not explain is
            // per-round overhead (compute + comm), inferred from the
            // measured rate so the model's scale matches reality.
            let probe = NapModel::new(offsets.clone(), 0.0, 0.0);
            let overhead = (1e3 / rounds_per_s - probe.predict(current).initiator_ms).max(0.1);
            let model = NapModel::new(offsets, 0.0, overhead);
            let u_cur = model.utility(current, self.beta).max(1e-9);
            let priors: Vec<f64> = self
                .controller
                .arms()
                .iter()
                .map(|a| model.utility(*a, self.beta) * reward / u_cur)
                .collect();
            self.controller.seed_values(&priors);
        }
        let policy = self.controller.step(reward);
        Some(QuorumDecision {
            step,
            from_round,
            policy,
            reward,
            fresh_fraction,
            rounds_per_s,
            spread_ms: f64::from(summed[3]) / ranks,
            queue_stall_ms: f64::from(summed[6]) / ranks,
        })
    }
}

/// [`TunerSetup`] running the full adaptive loop with `cfg` on every rank.
pub fn adaptive_setup(cfg: AdaptiveTunerCfg) -> TunerSetup {
    TunerSetup::new(move |_rank, p, clock| Box::new(AdaptiveTuner::new(p, cfg.clone(), clock)))
}

/// [`TunerSetup`] that pins `policy` forever but still runs the measurement
/// loop — the static baseline with identical measurement overhead, so
/// adaptive-vs-static comparisons isolate the *decisions*.
pub fn static_setup(policy: QuorumPolicy, period: u64) -> TunerSetup {
    adaptive_setup(AdaptiveTunerCfg {
        period,
        kind: ControllerKind::Static,
        initial: Some(policy),
        ..AdaptiveTunerCfg::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuner(p: usize, cfg: AdaptiveTunerCfg) -> AdaptiveTuner {
        AdaptiveTuner::new(p, cfg, Clock::virtual_clock())
    }

    fn rounds(completions: u64, fresh: u64) -> RoundCounters {
        RoundCounters {
            completions,
            fresh,
            ..RoundCounters::default()
        }
    }

    fn stalled(stall_ms: f64) -> CommStatsSnapshot {
        CommStatsSnapshot {
            stall_ms,
            ..CommStatsSnapshot::default()
        }
    }

    /// The skew signal as `local_stats` reports it: `(mean, spread)`.
    fn skew(t: &mut AdaptiveTuner) -> (f32, f32) {
        let v = t.local_stats(RoundCounters::default(), CommStatsSnapshot::default());
        (v[5], v[3])
    }

    #[test]
    fn skew_signal_tracks_rotating_uniform_offsets() {
        let p = 8;
        let mut t = tuner(p, AdaptiveTunerCfg::default());
        // Rotating linear skew 0..70 ms — the ShiftingSkew pattern.
        for step in 0..2000 {
            let offsets: Vec<f64> = (0..p).map(|r| 10.0 * (((r + step) % p) as f64)).collect();
            t.record_step(step as u64, &offsets);
        }
        let (mean, spread) = skew(&mut t);
        assert!((mean - 35.0).abs() < 3.0, "mean {mean}");
        assert!((spread - 70.0).abs() < 3.0, "step spread {spread}");
    }

    #[test]
    fn skew_signal_adapts_to_a_regime_shift() {
        let mut t = tuner(4, AdaptiveTunerCfg::default());
        for step in 0..200 {
            t.record_step(step, &[0.0, 1.0, 2.0, 3.0]);
        }
        let (_, before) = skew(&mut t);
        for step in 200..400 {
            t.record_step(step, &[0.0, 40.0, 80.0, 120.0]);
        }
        let (_, after) = skew(&mut t);
        assert!(before < 4.0 && after > 100.0, "{before} → {after}");
    }

    #[test]
    fn local_stats_windows_the_cumulative_counters() {
        let mut t = tuner(8, AdaptiveTunerCfg::default());
        t.record_step(0, &[0.0, 4.0, 8.0, 12.0]);
        let v = t.local_stats(rounds(2, 1), stalled(1.5));
        assert_eq!(v.len(), STATS_LEN);
        assert_eq!(v[0], 1.0);
        assert_eq!(v[1], 2.0, "rounds");
        assert_eq!(v[2], 1.0, "fresh");
        assert!(v[5] > 0.0, "mean offset fed from arrivals");
        assert_eq!(v[6], 1.5, "stall ms");
        // Unchanged totals: the next window is empty.
        let v2 = t.local_stats(rounds(2, 1), stalled(1.5));
        assert_eq!((v2[1], v2[2], v2[6]), (0.0, 0.0, 0.0));
        // Totals keep growing: each window is what moved since the last.
        let v3 = t.local_stats(rounds(7, 4), stalled(4.0));
        assert_eq!((v3[1], v3[2], v3[6]), (5.0, 3.0, 2.5));
    }

    /// On a virtual clock the reward window's `elapsed` is an exact
    /// function of explicit `advance` calls — no sleeps, no tolerance
    /// bands, no flake. (Wall-clock tuners can only assert `elapsed > 0`.)
    #[test]
    fn virtual_clock_makes_window_rates_exact() {
        let clock = Clock::virtual_clock();
        let mut t = AdaptiveTuner::new(4, AdaptiveTunerCfg::default(), clock.clone());
        clock.advance(std::time::Duration::from_millis(2500));
        let v = t.local_stats(rounds(10, 10), stalled(0.0));
        assert_eq!(v[1], 10.0, "rounds");
        assert_eq!(v[4], 2.5, "elapsed is exactly the advanced virtual time");
        // decide() on the summed vector sees an exact 4 rounds/s.
        let summed = [1.0, 10.0, 10.0, 0.0, v[4], 0.0, 0.0];
        let d = t.decide(0, 0, &summed).unwrap();
        assert!((d.rounds_per_s - 4.0).abs() < 1e-9);

        // The next window starts where the last one ended.
        clock.advance(std::time::Duration::from_millis(500));
        let v2 = t.local_stats(rounds(10, 10), stalled(0.0));
        assert_eq!(v2[4], 0.5, "window restarts at the previous boundary");
    }

    #[test]
    fn decide_is_deterministic_across_replicas() {
        let mk = || {
            tuner(
                8,
                AdaptiveTunerCfg {
                    kind: ControllerKind::Ucb { explore: 0.7 },
                    ..AdaptiveTunerCfg::default()
                },
            )
        };
        let mut a = mk();
        let mut b = mk();
        for t in 0..50u64 {
            // Synthetic rank-summed stats: 8 ranks, varying freshness.
            let fresh = (t % 9) as f32;
            let summed = [8.0, 8.0, fresh, 40.0, 0.5, 20.0, 1.5];
            let da = a.decide(t, t, &summed).unwrap();
            let db = b.decide(t, t, &summed).unwrap();
            assert_eq!(da, db, "diverged at {t}");
        }
    }

    #[test]
    fn reward_is_freshness_weighted_round_rate() {
        let mut t = tuner(
            4,
            AdaptiveTunerCfg {
                beta: 0.5,
                ..AdaptiveTunerCfg::default()
            },
        );
        // 4 ranks, 40 rounds total, 10 fresh, 2 s total elapsed.
        let summed = [4.0, 40.0, 10.0, 0.0, 2.0, 0.0, 8.0];
        let d = t.decide(0, 0, &summed).unwrap();
        assert!((d.fresh_fraction - 0.25).abs() < 1e-6);
        assert!((d.rounds_per_s - 20.0).abs() < 1e-4);
        assert!((d.reward - 0.25f64.sqrt() * 20.0).abs() < 1e-4);
    }

    #[test]
    fn static_setup_pins_any_policy() {
        let setup = static_setup(QuorumPolicy::Full, 8);
        let mut t = setup.build(0, 8, Clock::virtual_clock());
        assert_eq!(t.initial_policy(), Some(QuorumPolicy::Full));
        for i in 0..5 {
            let d = t
                .decide(i, i, &[8.0, 8.0, 8.0, 0.0, 1.0, 0.0, 0.0])
                .unwrap();
            assert_eq!(d.policy, QuorumPolicy::Full);
        }
    }
}
