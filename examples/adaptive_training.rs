//! Closed-loop adaptive quorum control, end to end: the same training job
//! run through two skew regimes, with the UCB controller re-selecting the
//! quorum policy every 8 rounds from rank-summed telemetry.
//!
//! Phase 1 is balanced (no injected delays): waiting for everyone is
//! cheap, so the controller should settle toward the synchronous end of
//! the spectrum (majority/chain/full). Phase 2 injects one heavy random
//! straggler per step (the Fig. 10 protocol): now waiting for the full
//! quorum costs the straggler's whole delay every round while skipping it
//! costs almost nothing, and the controller migrates toward the
//! asynchronous end (solo/first-of). Every decision is printed as a
//! JSON record (the one `tune_adaptive` prints).
//!
//! ```sh
//! cargo run --release --example adaptive_training
//! ```

use eager_sgd_repro::prelude::*;
use std::sync::Arc;

const P: usize = 8;
const PERIOD: u64 = 8;

fn run_phase(name: &str, injector: Injector) {
    let task = Arc::new(HyperplaneTask::new(32, 1024, 0.05, 64, 7));
    let logs = World::launch(WorldConfig::instant(P).with_seed(11), move |c| {
        let ctx = RankCtx::new(c);
        let mut rng = TensorRng::new(5);
        let mut model = eager_sgd_repro::nn::zoo::hyperplane_mlp(32, &mut rng);
        let mut opt = Sgd::new(0.02);
        let wl = HyperplaneWorkload {
            task: Arc::clone(&task),
            local_batch: 16,
        };
        let mut cfg = TrainerConfig::new(SgdVariant::EagerMajority, 2, 40, 0.02);
        cfg.injector = injector.clone();
        cfg.time_scale = 0.1;
        cfg.base_compute_ms = 10.0;
        cfg.eval_every = 1000;
        cfg.tuner = Some(adaptive_setup(AdaptiveTunerCfg {
            period: PERIOD,
            kind: ControllerKind::Ucb { explore: 0.6 },
            ..AdaptiveTunerCfg::default()
        }));
        let log = run_rank(&ctx, &mut model, &mut opt, &wl, &cfg);
        ctx.finalize();
        log
    });

    let log = &logs[0];
    let steps: u64 = log.steps;
    let fresh: u64 = logs.iter().map(|l| l.fresh_rounds).sum();
    println!("\n=== {name} ===");
    println!(
        "  {} steps, {:.1} rounds/s, fresh fraction {:.2}",
        steps,
        steps as f64 / log.total_train_s.max(1e-9),
        fresh as f64 / (steps * P as u64) as f64,
    );
    for d in &log.decisions {
        println!(
            "  step {:>3}: -> {:<12} (reward {:>7.2}, fresh {:.2}, {:>6.1} rounds/s)",
            d.step,
            d.policy.to_string(),
            d.reward,
            d.fresh_fraction,
            d.rounds_per_s
        );
    }
    if let Some(last) = log.decisions.last() {
        println!(
            "  final policy: {} (as JSON: {})",
            last.policy,
            eager_sgd_repro::tune::to_json(last)
        );
    }
}

fn main() {
    println!(
        "adaptive quorum control on {P} ranks: UCB bandit over the solo–majority–full \
         spectrum, deciding every {PERIOD} rounds"
    );
    run_phase("phase 1: balanced (no injected skew)", Injector::None);
    run_phase(
        "phase 2: one random 160 ms straggler per step",
        Injector::RandomRanks {
            k: 1,
            amount_ms: 160.0,
            seed: 13,
        },
    );
    println!(
        "\nExpected drift: toward majority/chain/full when balanced (freshness is \
         free), toward solo/first-of under straggler skew (waiting dominates)."
    );
}
