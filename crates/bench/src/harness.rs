//! The distributed experiment runner shared by all training figures: a
//! [`TrainSetup`] describes a figure's task, budget and imbalance as
//! data, and [`train_variant`] is the one place that turns it into a
//! `TrainerConfig`, an [`ExperimentSpec`] and a boxed model/optimizer.

use crate::HarnessArgs;
use datagen::{GaussianMixtureTask, HyperplaneTask, VideoTask};
use dnn::optim::LrSchedule;
use dnn::zoo::{hyperplane_mlp, resnet_proxy, video_lstm};
use dnn::{Model, Optimizer, Sgd};
use eager_sgd::metrics::EvalRecord;
use eager_sgd::{
    run_rank, HyperplaneWorkload, ImageWorkload, SgdVariant, TrainLog, TrainerConfig,
    VideoWorkload, Workload,
};
use imbalance::Injector;
use minitensor::TensorRng;
use pcoll::RankCtx;
use pcoll_comm::{World, WorldConfig};
use std::sync::Arc;

/// Everything needed to launch one training configuration.
#[derive(Clone)]
pub struct ExperimentSpec {
    pub p: usize,
    pub world_seed: u64,
    /// Seed for model initialization — identical on every rank so local
    /// views start equal (the data-parallel contract).
    pub model_seed: u64,
    pub trainer: TrainerConfig,
}

/// Run one training configuration across `p` rank threads and return the
/// per-rank logs.
pub fn run_distributed<MF>(
    spec: &ExperimentSpec,
    model_factory: MF,
    workload: Arc<dyn Workload>,
) -> Vec<TrainLog>
where
    MF: Fn(&mut TensorRng) -> (Box<dyn Model>, Box<dyn Optimizer>) + Send + Sync + 'static,
{
    let spec2 = spec.clone();
    World::launch(
        WorldConfig::instant(spec.p).with_seed(spec.world_seed),
        move |c| {
            let ctx = RankCtx::new(c);
            let mut init_rng = TensorRng::new(spec2.model_seed);
            let (mut model, mut opt) = model_factory(&mut init_rng);
            let log = run_rank(
                &ctx,
                model.as_mut(),
                opt.as_mut(),
                workload.as_ref(),
                &spec2.trainer,
            );
            ctx.finalize();
            log
        },
    )
}

/// The dataset a figure trains on (seeded by the figure from `--seed`)
/// and what sizes the proxy model built for it.
#[derive(Clone)]
pub enum Task {
    /// §6.2.1 hyperplane regression with the one-layer MLP.
    Hyperplane(Arc<HyperplaneTask>),
    /// Gaussian-mixture images with the ResNet proxy: residual blocks (of
    /// width 64), then the number of train-accuracy batches.
    Images(Arc<GaussianMixtureTask>, usize, usize),
    /// Bucketed variable-length videos with the LSTM classifier of this
    /// many hidden units.
    Video(Arc<VideoTask>, usize),
}

/// One figure's training setup — everything its variants share.
#[derive(Clone)]
pub struct TrainSetup {
    pub task: Task,
    pub p: usize,
    pub local_batch: usize,
    pub epochs: usize,
    pub steps: usize,
    pub lr: LrSchedule,
    pub injector: Injector,
    /// Simulated balanced compute per step (paper ms).
    pub base_compute_ms: f64,
    pub grad_clip: Option<f32>,
    pub model_sync_every: Option<usize>,
    pub eval_every: usize,
}

/// `k` random ranks delayed by `amount_ms` each step (Fig. 10/11). The
/// embedded seed is a placeholder: the trainer re-derives it from
/// `trainer.seed` (`Injector::with_seed`), so one `--seed` flag
/// reproduces the whole run.
pub fn random_ranks(k: usize, amount_ms: f64) -> Injector {
    Injector::RandomRanks {
        k,
        amount_ms,
        seed: 0,
    }
}

/// The trainer configuration for one variant of `setup`.
pub fn trainer_config(
    setup: &TrainSetup,
    args: &HarnessArgs,
    variant: SgdVariant,
) -> TrainerConfig {
    let mut trainer = TrainerConfig::new(variant, setup.epochs, setup.steps, setup.lr.base_lr);
    trainer.lr = setup.lr.clone();
    trainer.injector = setup.injector.clone();
    trainer.time_scale = args.time_scale;
    trainer.base_compute_ms = setup.base_compute_ms;
    trainer.grad_clip = setup.grad_clip;
    trainer.model_sync_every = setup.model_sync_every;
    trainer.eval_every = setup.eval_every;
    trainer.seed = args.seed;
    trainer
}

/// Train one variant of `setup` in-process; `tweak` is the per-run
/// override (an injection amount, a stale mode, a tuner).
pub fn train_variant(
    setup: &TrainSetup,
    args: &HarnessArgs,
    variant: SgdVariant,
    tweak: &dyn Fn(&mut TrainerConfig),
) -> Vec<TrainLog> {
    let mut trainer = trainer_config(setup, args, variant);
    tweak(&mut trainer);
    let lr = trainer.lr.base_lr;
    let spec = ExperimentSpec {
        p: setup.p,
        world_seed: args.seed,
        model_seed: args.seed ^ 0x30D,
        trainer,
    };
    let local_batch = setup.local_batch;
    let task = setup.task.clone();
    let workload: Arc<dyn Workload> = match task.clone() {
        Task::Hyperplane(task) => Arc::new(HyperplaneWorkload { task, local_batch }),
        Task::Images(task, _, train_eval_batches) => Arc::new(ImageWorkload {
            task,
            local_batch,
            train_eval_batches,
        }),
        Task::Video(task, _) => Arc::new(VideoWorkload {
            task,
            eval_videos: 96,
        }),
    };
    let factory = move |rng: &mut TensorRng| {
        let model: Box<dyn Model> = match &task {
            Task::Hyperplane(t) => Box::new(hyperplane_mlp(t.dim, rng)),
            Task::Images(t, blocks, _) => {
                Box::new(resnet_proxy(t.dim, 64, *blocks, t.classes, rng))
            }
            Task::Video(t, hidden) => {
                Box::new(video_lstm(t.spec.feat_dim, *hidden, t.spec.classes, rng))
            }
        };
        (model, Box::new(Sgd::new(lr)) as Box<dyn Optimizer>)
    };
    run_distributed(&spec, factory, workload)
}

/// Aggregated view of one variant's run, for summary tables.
#[derive(Debug, Clone)]
pub struct VariantSummary {
    pub label: String,
    /// Mean steps/s across ranks.
    pub throughput: f64,
    /// Mean total training time across ranks (s).
    pub train_time_s: f64,
    /// Rank 0's final training loss.
    pub final_loss: f32,
    /// Rank 0's final test evaluation, if any.
    pub final_test: Option<EvalRecord>,
    /// Fraction of rounds where ranks contributed fresh gradients
    /// (mean across ranks; 1.0 for synchronous variants).
    pub fresh_fraction: f64,
}

impl VariantSummary {
    pub fn from_logs(label: impl Into<String>, logs: &[TrainLog]) -> Self {
        let mean = |of: fn(&TrainLog) -> f64| logs.iter().map(of).sum::<f64>() / logs.len() as f64;
        let throughput = mean(TrainLog::mean_throughput);
        let train_time_s = mean(|l| l.total_train_s);
        let fresh_fraction = mean(|l| l.fresh_rounds as f64 / l.steps.max(1) as f64);
        let rank0 = &logs[0];
        VariantSummary {
            label: label.into(),
            throughput,
            train_time_s,
            final_loss: rank0.final_loss().unwrap_or(f32::NAN),
            final_test: rank0.final_test(),
            fresh_fraction,
        }
    }

    /// Speedup of `self` over `base` in training time.
    pub fn speedup_over(&self, base: &VariantSummary) -> f64 {
        base.train_time_s / self.train_time_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::HyperplaneTask;
    use dnn::zoo::hyperplane_mlp;
    use dnn::Sgd;
    use eager_sgd::{HyperplaneWorkload, SgdVariant};

    #[test]
    fn runner_round_trips_a_tiny_experiment() {
        let task = Arc::new(HyperplaneTask::new(16, 256, 0.05, 32, 3));
        let spec = ExperimentSpec {
            p: 2,
            world_seed: 1,
            model_seed: 2,
            trainer: TrainerConfig::new(SgdVariant::SynchDeep500, 2, 4, 0.02),
        };
        let wl = Arc::new(HyperplaneWorkload {
            task,
            local_batch: 8,
        });
        let logs = run_distributed(
            &spec,
            |rng| {
                (
                    Box::new(hyperplane_mlp(16, rng)) as Box<dyn Model>,
                    Box::new(Sgd::new(0.02)) as Box<dyn Optimizer>,
                )
            },
            wl,
        );
        assert_eq!(logs.len(), 2);
        let s = VariantSummary::from_logs("test", &logs);
        assert!(s.throughput > 0.0);
        assert!(s.final_loss.is_finite());
        assert!(
            (s.fresh_fraction - 1.0).abs() < 1e-9,
            "sync is always fresh"
        );
    }
}
