//! Closed-loop convergence of the adaptive quorum controllers.
//!
//! The loop under test is the real production path — injector offsets →
//! the tuner's EWMA skew signal → E\[NAP\] model seed → controller →
//! policy — driven by a deterministic environment simulator so the test
//! measures *controller* convergence, not thread-scheduler noise. Each
//! decision window's rank-summed stats vector is what the runners sum: P
//! identical ranks, each reporting the tuner's own skew signal
//! (`local_stats` entries 3 and 5), with the round counts and window time
//! synthesized from the `NapModel` evaluated on the injector's exact
//! offsets, plus deterministic wobble.
//!
//! The assertion is the §8 open question made concrete: starting from the
//! paper's majority default, the controller must converge toward the
//! theory-optimal quorum size `m` within a bounded number of rounds.

use eager_sgd_repro::comm::{Clock, CommStatsSnapshot};
use eager_sgd_repro::core::QuorumDecision;
use eager_sgd_repro::obs::EventKind;
use eager_sgd_repro::prelude::*;
use eager_sgd_repro::tune::{adaptive_setup, spectrum, AdaptiveTunerCfg, ControllerKind};
use std::sync::{Arc, Mutex};

const P: usize = 8;
const PERIOD: u64 = 16;
const BETA: f64 = 0.5;
const COMM_MS: f64 = 0.5;
const BASE_MS: f64 = 2.0;

/// The per-rank offsets the injector produces at `step` (every rank can
/// compute this globally — the shared-seed trick).
fn injector_offsets(inj: &Injector, step: u64) -> Vec<f64> {
    (0..P).map(|r| inj.delay_ms(r, P, step)).collect()
}

/// Synthesize the rank-summed stats vector one decision window would
/// produce if every rank reported `skew` (its tuner's `local_stats`) and
/// rounds behaved exactly as the NAP model predicts for `policy` under
/// the injector's current offsets.
fn window_stats(skew: &[f32], offsets: &[f64], policy: QuorumPolicy, wobble: f64) -> Vec<f32> {
    let model = NapModel::new(offsets.to_vec(), COMM_MS, BASE_MS);
    let pred = model.predict(policy);
    let rounds = (P as u64 * PERIOD) as f64;
    let fresh = rounds * pred.e_nap / P as f64;
    let elapsed_s = rounds * (pred.round_ms / 1e3) * wobble;
    vec![
        P as f32,
        rounds as f32,
        fresh as f32,
        skew[3] * P as f32,
        elapsed_s as f32,
        skew[5] * P as f32,
        // No queue congestion in the synthetic window.
        0.0,
    ]
}

/// Deterministic ±4% multiplicative measurement noise.
fn wobble(t: u64) -> f64 {
    1.0 + 0.04 * ((((t.wrapping_mul(2654435761)) % 100) as f64) / 50.0 - 1.0)
}

fn drive(kind: ControllerKind, decisions: usize, inj: &Injector) -> Vec<QuorumPolicy> {
    let setup = adaptive_setup(AdaptiveTunerCfg {
        period: PERIOD,
        beta: BETA,
        kind,
        ..AdaptiveTunerCfg::default()
    });
    let mut tuner = setup.build(0, P, Clock::virtual_clock());
    let mut policy = tuner.initial_policy().expect("adaptive tuner sets a start");
    let mut chosen = Vec::new();
    let mut step = 0u64;
    for d in 0..decisions {
        // Feed one window of injector telemetry to the skew signal.
        for _ in 0..PERIOD {
            tuner.record_step(step, &injector_offsets(inj, step));
            step += 1;
        }
        let skew = tuner.local_stats(RoundCounters::default(), CommStatsSnapshot::default());
        let offsets = injector_offsets(inj, step);
        let summed = window_stats(&skew, &offsets, policy, wobble(d as u64));
        let decision = tuner
            .decide(step - 1, step, &summed)
            .expect("adaptive tuners always decide");
        policy = decision.policy;
        chosen.push(policy);
    }
    chosen
}

#[test]
fn controllers_converge_to_the_model_best_quorum_under_shifting_skew() {
    let inj = Injector::ShiftingSkew {
        min_ms: 5.0,
        max_ms: 60.0,
    };
    let offsets = injector_offsets(&inj, 0);
    let model = NapModel::new(offsets.clone(), COMM_MS, BASE_MS);
    let optimal = model.best_policy(&spectrum(P), BETA);
    let opt_utility = model.utility(optimal, BETA);
    // The scenario must actually discriminate arms, or the test is vacuous.
    let worst_utility = spectrum(P)
        .iter()
        .map(|a| model.utility(*a, BETA))
        .fold(f64::INFINITY, f64::min);
    assert!(
        opt_utility > 1.2 * worst_utility,
        "degenerate scenario: {opt_utility} vs {worst_utility}"
    );

    // Per-kind time-average floor: hill-climb settles (only periodic
    // probes leave the peak); UCB keeps exploring by design, so its
    // time-average is lower but its *modal* arm must be (near-)optimal.
    for (kind, floor) in [
        (ControllerKind::HillClimb, 0.9),
        (ControllerKind::Ucb { explore: 0.6 }, 0.8),
    ] {
        let decisions = 48; // bound: 48 windows × 16 rounds = 768 rounds
        let chosen = drive(kind, decisions, &inj);
        let tail = &chosen[decisions * 3 / 4..];
        let tail_utility =
            tail.iter().map(|p| model.utility(*p, BETA)).sum::<f64>() / tail.len() as f64;
        assert!(
            tail_utility >= floor * opt_utility,
            "{kind:?}: tail utility {tail_utility:.2} < {floor} of optimal {opt_utility:.2} \
             (optimal arm {optimal}, tail {tail:?})"
        );
        // Modal tail arm within 95% of the optimum's utility.
        let mut freq = std::collections::HashMap::new();
        for p in tail {
            freq.entry(p.to_string()).or_insert((0usize, *p)).0 += 1;
        }
        let (_, modal) = freq
            .values()
            .max_by_key(|(c, _)| *c)
            .copied()
            .expect("non-empty tail");
        assert!(
            model.utility(modal, BETA) >= 0.95 * opt_utility,
            "{kind:?}: modal tail arm {modal} is not near-optimal (optimal {optimal})"
        );
    }
}

#[test]
fn adaptive_training_runs_end_to_end_with_identical_decisions_on_all_ranks() {
    // Real threads, real collectives, real telemetry: a short adaptive run
    // must complete without deadlock across policy switches, and every
    // rank must record the identical decision sequence (the SPMD
    // consensus contract).
    let task = Arc::new(HyperplaneTask::new(16, 256, 0.05, 32, 7));
    let logs = World::launch(WorldConfig::instant(4).with_seed(3), move |c| {
        let ctx = RankCtx::new(c);
        let mut rng = TensorRng::new(9);
        let mut model = eager_sgd_repro::nn::zoo::hyperplane_mlp(16, &mut rng);
        let mut opt = Sgd::new(0.02);
        let wl = HyperplaneWorkload {
            task: Arc::clone(&task),
            local_batch: 8,
        };
        let mut cfg = TrainerConfig::new(SgdVariant::EagerMajority, 2, 12, 0.02);
        cfg.injector = Injector::RandomRanks {
            k: 1,
            amount_ms: 12.0,
            seed: 5,
        };
        cfg.eval_every = 1000;
        cfg.tuner = Some(adaptive_setup(AdaptiveTunerCfg {
            period: 6,
            kind: ControllerKind::Ucb { explore: 0.6 },
            ..AdaptiveTunerCfg::default()
        }));
        let log = run_rank(&ctx, &mut model, &mut opt, &wl, &cfg);
        ctx.finalize();
        log
    });
    assert_eq!(logs[0].decisions.len(), 4, "24 steps / period 6");
    for log in &logs[1..] {
        assert_eq!(log.decisions, logs[0].decisions, "rank {}", log.rank);
    }
    // The bandit's first moves must explore beyond the starting arm.
    let policies: std::collections::HashSet<String> = logs[0]
        .decisions
        .iter()
        .map(|d| d.policy.to_string())
        .collect();
    assert!(policies.len() > 1, "no exploration happened: {policies:?}");
}

/// A tuner that delegates to the real one and keeps every rank-summed
/// vector `decide` is handed.
struct Spy {
    inner: Box<dyn QuorumTuner>,
    seen: Arc<Mutex<Vec<Vec<f32>>>>,
}

impl QuorumTuner for Spy {
    fn period(&self) -> u64 {
        self.inner.period()
    }
    fn initial_policy(&self) -> Option<QuorumPolicy> {
        self.inner.initial_policy()
    }
    fn record_step(&mut self, step: u64, offsets_ms: &[f64]) {
        self.inner.record_step(step, offsets_ms);
    }
    fn stats_len(&self) -> usize {
        self.inner.stats_len()
    }
    fn local_stats(&mut self, rounds: RoundCounters, comm: CommStatsSnapshot) -> Vec<f32> {
        self.inner.local_stats(rounds, comm)
    }
    fn decide(&mut self, step: u64, from_round: u64, summed: &[f32]) -> Option<QuorumDecision> {
        self.seen.lock().unwrap().push(summed.to_vec());
        self.inner.decide(step, from_round, summed)
    }
}

/// 16 steps on 4 ranks with the policy pinned at Full and a decision
/// every 4 steps, traced at span level. Per rank: the train log, the
/// summed vectors its tuner decided from, and the `TunerDecision` steps
/// on its flight-recorder track.
fn pinned_full_run() -> Vec<(TrainLog, Vec<Vec<f32>>, Vec<u64>)> {
    let task = Arc::new(HyperplaneTask::new(16, 256, 0.05, 32, 7));
    let cfg = WorldConfig::instant(4).with_seed(3).with_trace(1, 1 << 16);
    World::launch(cfg, move |c| {
        let ctx = RankCtx::new(c);
        let mut rng = TensorRng::new(9);
        let mut model = eager_sgd_repro::nn::zoo::hyperplane_mlp(16, &mut rng);
        let mut opt = Sgd::new(0.02);
        let wl = HyperplaneWorkload {
            task: Arc::clone(&task),
            local_batch: 8,
        };
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut cfg = TrainerConfig::new(SgdVariant::EagerMajority, 2, 8, 0.02);
        cfg.eval_every = 1000;
        let spied = Arc::clone(&seen);
        cfg.tuner = Some(TunerSetup::new(move |rank, p, clock| {
            Box::new(Spy {
                inner: static_setup(QuorumPolicy::Full, 4).build(rank, p, clock),
                seen: Arc::clone(&spied),
            })
        }));
        let log = run_rank(&ctx, &mut model, &mut opt, &wl, &cfg);
        let steps = ctx
            .recorder()
            .drain()
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::TunerDecision { step, .. } => Some(step),
                _ => None,
            })
            .collect();
        ctx.finalize();
        let seen = seen.lock().unwrap().clone();
        (log, seen, steps)
    })
}

#[test]
fn counter_delta_windows_are_exact_under_full() {
    // Under Full every round is fresh and complete before the next step,
    // so each 4-step window holds exactly 4 rounds per rank — no event
    // lost, none counted twice, nothing carried across the boundary.
    let out = pinned_full_run();
    for (log, seen, _) in &out {
        assert_eq!(seen.len(), 4, "rank {}: 16 steps / period 4", log.rank);
        for (w, summed) in seen.iter().enumerate() {
            assert_eq!(summed.len(), 7);
            assert_eq!(summed[0], 4.0, "window {w}: ranks");
            assert_eq!(summed[1], 16.0, "window {w}: rounds = period × P");
            assert_eq!(summed[2], 16.0, "window {w}: every round fresh");
        }
        assert_eq!(seen, &out[0].1, "rank {} saw a different view", log.rank);
        assert!(log.decisions.iter().all(|d| d.fresh_fraction == 1.0));
        assert_eq!((log.fresh_rounds, log.missed_rounds), (16, 0));
    }
}

#[test]
fn traced_tuner_decisions_carry_the_trainer_step() {
    for (log, _, traced) in pinned_full_run() {
        let logged: Vec<u64> = log.decisions.iter().map(|d| d.step).collect();
        assert_eq!(logged, [3, 7, 11, 15], "rank {}", log.rank);
        assert_eq!(traced, logged, "rank {}", log.rank);
    }
}
