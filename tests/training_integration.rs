//! End-to-end training integration: all five SGD variants on real
//! workloads across crates, with the paper's qualitative claims as
//! assertions (miniaturized).

use eager_sgd_repro::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const P: usize = 4;
const DIM: usize = 128;

fn hyperplane_cfg(
    variant: SgdVariant,
    injector: Injector,
    epochs: usize,
    lr: f32,
) -> TrainerConfig {
    let mut cfg = TrainerConfig::new(variant, epochs, 10, lr);
    cfg.injector = injector;
    cfg.base_compute_ms = 5.0;
    cfg.model_sync_every = Some(3);
    cfg.grad_clip = Some(100.0);
    cfg.eval_every = epochs;
    cfg
}

fn hyperplane_workload() -> HyperplaneWorkload {
    HyperplaneWorkload {
        task: Arc::new(HyperplaneTask::new(DIM, 4096, 0.1, 128, 9)),
        local_batch: 32,
    }
}

fn hyperplane_model() -> eager_sgd_repro::nn::FeedForward {
    eager_sgd_repro::nn::zoo::hyperplane_mlp(DIM, &mut TensorRng::new(555))
}

fn hyperplane_run(
    variant: SgdVariant,
    injector: Injector,
    epochs: usize,
    lr: f32,
) -> Vec<TrainLog> {
    let cfg = hyperplane_cfg(variant, injector, epochs, lr);
    let wl = hyperplane_workload();
    World::launch(WorldConfig::instant(P).with_seed(21), move |c| {
        let ctx = RankCtx::new(c);
        let mut model = hyperplane_model();
        let mut opt = Sgd::new(lr);
        let log = run_rank(&ctx, &mut model, &mut opt, &wl, &cfg);
        ctx.finalize();
        log
    })
}

#[test]
fn all_variants_converge_without_skew() {
    for variant in [
        SgdVariant::SynchDeep500,
        SgdVariant::EagerSolo,
        SgdVariant::EagerMajority,
        SgdVariant::EagerQuorum {
            chain: 2,
            race: false,
        },
        SgdVariant::EagerQuorum {
            chain: 3,
            race: true,
        },
    ] {
        let logs = hyperplane_run(variant, Injector::None, 5, 0.05);
        let first = logs[0].epochs[0].mean_loss;
        let final_test = logs[0].final_test().expect("evaluated").loss;
        assert!(
            final_test < first * 0.3,
            "{:?} failed to converge: {first} → {final_test}",
            variant
        );
    }
}

#[test]
fn eager_outpaces_sync_under_straggler() {
    let inj = Injector::RandomRanks {
        k: 1,
        amount_ms: 24.0,
        seed: 4,
    };
    let sync = hyperplane_run(SgdVariant::SynchDeep500, inj.clone(), 3, 0.05);
    let eager = hyperplane_run(SgdVariant::EagerSolo, inj, 3, 0.05);
    let t_sync: f64 = sync.iter().map(|l| l.total_train_s).sum();
    let t_eager: f64 = eager.iter().map(|l| l.total_train_s).sum();
    assert!(
        t_eager < t_sync * 0.85,
        "eager {t_eager:.2}s should beat sync {t_sync:.2}s"
    );
}

#[test]
fn eager_outpaces_sync_under_straggler_on_virtual_time() {
    // The exact twin: one random rank per step is 5 + 24 ms late and the
    // rest compute 5 ms, so every synchronous step takes exactly the
    // straggler's 29 ms on every rank.
    let inj = Injector::RandomRanks {
        k: 1,
        amount_ms: 24.0,
        seed: 4,
    };
    let sim = |variant| {
        let cfg = hyperplane_cfg(variant, inj.clone(), 3, 0.05);
        let world = WorldConfig::instant(P).with_seed(21);
        let build = |_| -> (Box<dyn Model>, Box<dyn Optimizer>) {
            (Box::new(hyperplane_model()), Box::new(Sgd::new(0.05)))
        };
        let wl = Arc::new(hyperplane_workload());
        let runs = run_sim(&cfg, build, wl, world, SimOpts::default());
        runs.into_iter().map(|(log, _)| log).collect::<Vec<_>>()
    };
    let step = Duration::from_secs_f64((5.0 + 24.0) / 1e3);
    let want = step * 30;
    for log in sim(SgdVariant::SynchDeep500) {
        let ns = (log.total_train_s * 1e9).round() as u128;
        assert_eq!(ns, want.as_nanos(), "rank {}", log.rank);
    }
    let t_eager: f64 = sim(SgdVariant::EagerSolo)
        .iter()
        .map(|l| l.total_train_s)
        .sum();
    assert!(
        t_eager < want.as_secs_f64() * P as f64 * 0.85,
        "eager {t_eager:.3}s should beat sync {:.3}s",
        want.as_secs_f64() * P as f64
    );
}

#[test]
fn sync_variants_produce_identical_models_across_ranks() {
    // With blocking allreduce and identical init, every rank's weights
    // stay bitwise identical — the broadcast-based reduction guarantees
    // identical results everywhere.
    const P: usize = 4;
    const DIM: usize = 64;
    let task = Arc::new(HyperplaneTask::new(DIM, 1024, 0.1, 64, 2));
    let params = World::launch(WorldConfig::instant(P), move |c| {
        let ctx = RankCtx::new(c);
        let mut rng = TensorRng::new(42);
        let mut model = eager_sgd_repro::nn::zoo::hyperplane_mlp(DIM, &mut rng);
        let mut opt = Sgd::new(0.05);
        let wl = HyperplaneWorkload {
            task: Arc::clone(&task),
            local_batch: 16,
        };
        let cfg = TrainerConfig::new(SgdVariant::SynchDeep500, 2, 8, 0.05);
        let _ = run_rank(&ctx, &mut model, &mut opt, &wl, &cfg);
        let mut flat = vec![0.0f32; Model::num_params(&model)];
        model.write_params(&mut flat);
        ctx.finalize();
        flat
    });
    for r in 1..P {
        assert_eq!(params[0], params[r], "rank {r} diverged under sync SGD");
    }
}

#[test]
fn eager_models_diverge_then_model_sync_reconciles() {
    // Without periodic synchronization, eager local views drift apart
    // (the §5 overwrite effect); with it, they re-align.
    const P: usize = 4;
    const DIM: usize = 64;
    let run = |sync_every: Option<usize>| {
        let task = Arc::new(HyperplaneTask::new(DIM, 1024, 0.1, 64, 2));
        World::launch(WorldConfig::instant(P).with_seed(31), move |c| {
            let ctx = RankCtx::new(c);
            let mut rng = TensorRng::new(42);
            let mut model = eager_sgd_repro::nn::zoo::hyperplane_mlp(DIM, &mut rng);
            let mut opt = Sgd::new(0.05);
            let wl = HyperplaneWorkload {
                task: Arc::clone(&task),
                local_batch: 16,
            };
            let mut cfg = TrainerConfig::new(SgdVariant::EagerSolo, 4, 8, 0.05);
            cfg.injector = Injector::RandomRanks {
                k: 1,
                amount_ms: 12.0,
                seed: 8,
            };
            cfg.base_compute_ms = 3.0;
            cfg.model_sync_every = sync_every;
            cfg.eval_every = 100;
            let _ = run_rank(&ctx, &mut model, &mut opt, &wl, &cfg);
            let mut flat = vec![0.0f32; Model::num_params(&model)];
            model.write_params(&mut flat);
            ctx.finalize();
            flat
        })
    };

    let without = run(None);
    let max_gap_without: f32 = (1..P)
        .map(|r| {
            without[0]
                .iter()
                .zip(&without[r])
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max)
        })
        .fold(0.0, f32::max);
    assert!(
        max_gap_without > 0.0,
        "eager without model sync should leave some divergence"
    );

    // Syncing at the final epoch makes all ranks identical.
    let with = run(Some(4));
    for r in 1..P {
        assert_eq!(with[0], with[r], "model sync must reconcile rank {r}");
    }
}

/// The §6.3 case study at tiny scale: inherent imbalance (variable-length
/// buckets), majority allreduce, evaluation every three epochs.
fn video_cfg() -> TrainerConfig {
    let mut cfg = TrainerConfig::new(SgdVariant::EagerMajority, 6, 10, 0.15);
    cfg.model_sync_every = Some(3);
    cfg.eval_every = 3;
    cfg
}

fn video_workload() -> VideoWorkload {
    let mut spec = VideoDatasetSpec::small(4, 8);
    spec.n_videos = 256;
    VideoWorkload {
        task: Arc::new(VideoTask::new(spec, 8, 3)),
        eval_videos: 32,
    }
}

fn video_model() -> eager_sgd_repro::nn::LstmClassifier {
    eager_sgd_repro::nn::zoo::video_lstm(8, 16, 4, &mut TensorRng::new(88))
}

/// Accuracy must beat chance, and the variable-length buckets leave some
/// rounds without a rank's fresh gradient even with no injection.
fn assert_video_trained(logs: &[TrainLog]) {
    let final_test = logs[0].final_test().expect("evaluated");
    assert!(
        final_test.top1 > 0.5,
        "4-class LSTM should beat chance significantly, got {}",
        final_test.top1
    );
    let fresh: f64 = logs
        .iter()
        .map(|l| l.fresh_rounds as f64 / l.steps as f64)
        .sum::<f64>()
        / P as f64;
    assert!(
        fresh < 0.999,
        "variable-length buckets should cause some missed rounds (got {fresh})"
    );
}

#[test]
fn lstm_video_task_trains_distributed() {
    let (cfg, wl) = (video_cfg(), video_workload());
    let logs = World::launch(WorldConfig::instant(P).with_seed(17), move |c| {
        let ctx = RankCtx::new(c);
        let mut model = video_model();
        let mut opt = Sgd::new(0.15);
        let log = run_rank(&ctx, &mut model, &mut opt, &wl, &cfg);
        ctx.finalize();
        log
    });
    assert_video_trained(&logs);
}

/// The twin on virtual time, where a batch's compute is the Fig. 2b cost
/// of its bucket (`Workload::cost_ms`): the same claims, and a repeat
/// replays every log field bit for bit (`{:?}` prints each float's
/// shortest round-trip form).
#[test]
fn lstm_video_task_trains_distributed_on_virtual_time() {
    let run = || {
        let build = |_| -> (Box<dyn Model>, Box<dyn Optimizer>) {
            (Box::new(video_model()), Box::new(Sgd::new(0.15)))
        };
        let world = WorldConfig::instant(P).with_seed(17);
        let wl = Arc::new(video_workload());
        let runs = run_sim(&video_cfg(), build, wl, world, SimOpts::default());
        runs.into_iter().map(|(log, _)| log).collect::<Vec<_>>()
    };
    let logs = run();
    assert_video_trained(&logs);
    assert_eq!(format!("{logs:?}"), format!("{:?}", run()));
}
