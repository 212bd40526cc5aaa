//! Training under cloud performance variability (§2.3 / Fig. 11 scenario,
//! in miniature): a balanced classification workload where the *system*
//! injects right-skewed noise on random ranks each step. Eager-SGD with
//! solo allreduce rides through the noise.
//!
//! ```sh
//! cargo run --release --example cloud_training
//! ```

use eager_sgd_repro::prelude::*;
use std::sync::Arc;

fn train(variant: SgdVariant, task: Arc<GaussianMixtureTask>) -> (f64, f32) {
    const P: usize = 8;
    let logs = World::launch(WorldConfig::instant(P), move |c| {
        let ctx = RankCtx::new(c);
        let mut rng = TensorRng::new(2024);
        let mut model = dnn::zoo::resnet_proxy(64, 48, 4, 10, &mut rng);
        let mut opt = Sgd::new(0.08);
        let workload = ImageWorkload {
            task: Arc::clone(&task),
            local_batch: 32,
            train_eval_batches: 0,
        };
        let mut cfg = TrainerConfig::new(variant, 8, 15, 0.08);
        // Fig. 4's cloud-noise model, scaled down 10x: e^(μ − ln 10) = e^μ / 10.
        cfg.injector = Injector::CloudNoise {
            base_ms: 0.0,
            mu_log: 3.16 - 10f64.ln(),
            sigma_log: 1.30,
            seed: 7,
        };
        cfg.base_compute_ms = 10.0;
        cfg.model_sync_every = Some(4);
        cfg.eval_every = 4;
        let log = run_rank(&ctx, &mut model, &mut opt, &workload, &cfg);
        ctx.finalize();
        log
    });
    let time = logs.iter().map(|l| l.total_train_s).sum::<f64>() / logs.len() as f64;
    let top1 = logs[0].final_test().map(|t| t.top1).unwrap_or(f32::NAN);
    (time, top1)
}

fn main() {
    println!(
        "balanced 10-class task on 8 'cloud' ranks; per-(rank, step) delays are\n\
         drawn from the Fig. 4 log-normal (mean ≈ 55 ms extra, tail past 1 s),\n\
         scaled 10x down:\n"
    );
    let task = Arc::new(GaussianMixtureTask::new(64, 10, 50_000, 0.9, 512, 11));

    let (t_sync, acc_sync) = train(SgdVariant::SynchDeep500, Arc::clone(&task));
    println!("synch-SGD (Deep500): {t_sync:.2} s, top-1 {acc_sync:.3}");
    let (t_eager, acc_eager) = train(SgdVariant::EagerSolo, Arc::clone(&task));
    println!("eager-SGD (solo)   : {t_eager:.2} s, top-1 {acc_eager:.3}");
    println!(
        "\nspeedup {:.2}x — synch-SGD pays the max of 8 noise draws every step,\n\
         eager-SGD pays only its own (Fig. 11's effect)",
        t_sync / t_eager
    );
}
