//! The four workloads: what runs, on which world, and why.
//!
//! A workload fixes everything except the seed and the measuring time:
//! world size and transport, model, local batch, the injected imbalance,
//! the window length in steps, and the held-out loss multiple an eager run
//! may reach relative to the synchronous run before its steps count as
//! failed.

use datagen::{GaussianMixtureTask, HyperplaneTask};
use dnn::zoo::{hyperplane_mlp, resnet_proxy};
use dnn::{Batch, FeedForward};
use imbalance::Injector;
use minitensor::TensorRng;

/// Which model (and with it which task) a workload trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// The paper's hyperplane regression: one dense layer, 8,193
    /// parameters, a 32 KiB fused gradient (recursive doubling).
    Hyperplane,
    /// `resnet_proxy(256, 256, 2, 10)`: 331,530 parameters, a 1.33 MB
    /// fused gradient (segmented ring). The issue's 512-wide variant
    /// (4.75 MB) was measured first and set aside: eight busy threads
    /// reducing 4.75 MB tensors on two cores spread 19–26% from run to
    /// run, every `run_rank` call spent its first 80–250 steps filling
    /// 128-buffer scratch pools in a slow mode, and the process held
    /// 2 GB; at 1.33 MB the same layers do the work and runs repeat
    /// within 3–10%.
    Resnet,
}

const HYPERPLANE_DIM: usize = 8192;
const RESNET_IN: usize = 256;
const RESNET_WIDTH: usize = 256;
const RESNET_BLOCKS: usize = 2;
const RESNET_CLASSES: usize = 10;

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json` and the README.
    pub why: &'static str,
    pub p: usize,
    /// One OS process per rank over loopback instead of rank threads.
    pub tcp: bool,
    pub model: ModelKind,
    pub local_batch: usize,
    pub base_compute_ms: f64,
    pub injector: Injector,
    pub lr: f32,
    /// Steps per window. A window is one trainer epoch: the unit over
    /// which throughput medians are taken.
    pub window_steps: usize,
    /// Windows at the start of every timed `run_rank` call that are run
    /// but left out of the statistics: each call registers fresh
    /// collectives, and their buffer pools take this long to fill.
    pub settle_windows: usize,
    /// The same for the synchronous phase.
    pub sync_settle_windows: usize,
    /// Steady steps per second of the eager and the synchronous phase on
    /// the reference host (2 vCPUs, Xeon 2.1 GHz): the calibration that
    /// turns `--seconds` into step counts. A short pilot scales both by
    /// the speed of the host at hand.
    pub eager_ref_rate: f64,
    pub sync_ref_rate: f64,
    /// Seed of the trainer and the world: fixes which rank the injector
    /// delays at each step and which rank initiates each majority round.
    /// Kept out of `--seed` (which drives the weights and the batches)
    /// because over a few hundred steps the luck of the draw moves the
    /// eager step rate by ±8%, far more than the code changes the
    /// benchmark exists to detect.
    pub schedule_seed: u64,
    /// The eager run fails if its held-out loss exceeds the synchronous
    /// run's (at the same step count) by more than this factor.
    pub loss_ratio_limit: f64,
    /// Distinct pre-generated batches served round-robin.
    pub pool_batches: usize,
    /// Held-out samples, evaluated on rank 0 every `eval_every` windows
    /// (and after the last), outside the training clock.
    pub val_size: usize,
    pub eval_every: usize,
}

/// Every workload, in reporting order.
pub fn all() -> Vec<Spec> {
    // The latency workload; the others are stated as differences from it
    // or from the bandwidth workload below.
    let lat = Spec {
        name: "lat_inproc",
        why: "P=4 threads, balanced, 8193-param MLP (32 KiB gradient, recursive doubling): per-op dispatch, matcher, channel hand-offs and activation messages dominate",
        p: 4,
        tcp: false,
        model: ModelKind::Hyperplane,
        local_batch: 2,
        base_compute_ms: 0.0,
        injector: Injector::None,
        lr: 2e-4,
        window_steps: 400,
        settle_windows: 2,
        sync_settle_windows: 2,
        eager_ref_rate: 2300.0,
        sync_ref_rate: 2300.0,
        schedule_seed: 7,
        loss_ratio_limit: 1.10,
        // 2,048 distinct samples for 8,192 weights: a quarter of the
        // target's variance is learnable, which the held-out loss shows
        // reliably. With 512 it was 6%, and one seed in twenty saw the
        // loss of 128 held-out samples rise instead.
        pool_batches: 1024,
        val_size: 256,
        eval_every: 1,
    };
    let bw = Spec {
        name: "bw_inproc",
        why: "P=4 threads, balanced, 331k-param model (1.33 MB gradient, segmented ring): reduce kernel, payload views, ring pipeline and trainer copies carry the step",
        model: ModelKind::Resnet,
        lr: 0.01,
        window_steps: 10,
        settle_windows: 4,
        sync_settle_windows: 4,
        eager_ref_rate: 215.0,
        sync_ref_rate: 195.0,
        // 331k parameters to fit: enough samples that the held-out loss
        // falls instead of overfitting.
        pool_batches: 2048,
        val_size: 128,
        // Evaluating the held-out batch costs about as much as a ten-step
        // window, so it is done every tenth.
        eval_every: 10,
        ..lat.clone()
    };
    vec![
        Spec {
            name: "skew_inproc",
            why: "P=8 threads, 8193-param MLP, 10 ms compute + one random rank delayed 30 ms per step: sleeps dominate, quorum activation and stale accumulation decide the result",
            p: 8,
            local_batch: 4,
            base_compute_ms: 10.0,
            injector: Injector::RandomRanks {
                k: 1,
                amount_ms: 30.0,
                seed: 0,
            },
            window_steps: 20,
            settle_windows: 1,
            sync_settle_windows: 1,
            eager_ref_rate: 45.0,
            sync_ref_rate: 23.9,
            loss_ratio_limit: 1.50,
            pool_batches: 512,
            ..lat.clone()
        },
        bw.clone(),
        Spec {
            name: "bw_tcp",
            why: "the bw_inproc model and steps with one process per rank over loopback TCP: framing, byte pool, socket writes and reduce-from-wire carry the step",
            tcp: true,
            settle_windows: 2,
            sync_settle_windows: 2,
            eager_ref_rate: 100.0,
            sync_ref_rate: 80.0,
            ..bw
        },
        lat,
    ]
}

/// Look a workload up by name.
pub fn find(name: &str) -> Option<Spec> {
    all().into_iter().find(|s| s.name == name)
}

impl Spec {
    /// A freshly initialised model. Every rank and every phase starts
    /// from the same weights, as data-parallel SGD requires.
    pub fn build_model(&self, seed: u64) -> FeedForward {
        let mut rng = TensorRng::new(seed ^ 0x004D_4F44_454C);
        match self.model {
            ModelKind::Hyperplane => hyperplane_mlp(HYPERPLANE_DIM, &mut rng),
            ModelKind::Resnet => resnet_proxy(
                RESNET_IN,
                RESNET_WIDTH,
                RESNET_BLOCKS,
                RESNET_CLASSES,
                &mut rng,
            ),
        }
    }

    /// Generate the workload's inputs from `seed`: `pool_batches`
    /// training batches and one held-out batch, from the product's own
    /// task generators.
    pub fn generate_inputs(&self, seed: u64) -> (Vec<Batch>, Batch) {
        let mut rng = TensorRng::new(seed ^ 0x504F_4F4C);
        match self.model {
            ModelKind::Hyperplane => {
                let task = HyperplaneTask::new(HYPERPLANE_DIM, 32_768, 0.1, self.val_size, seed);
                let pool = (0..self.pool_batches)
                    .map(|_| task.sample_batch(self.local_batch, &mut rng))
                    .collect();
                (pool, task.validation())
            }
            ModelKind::Resnet => {
                let task = GaussianMixtureTask::new(
                    RESNET_IN,
                    RESNET_CLASSES,
                    50_000,
                    0.9,
                    self.val_size,
                    seed,
                );
                let pool = (0..self.pool_batches)
                    .map(|_| task.sample_batch(self.local_batch, &mut rng))
                    .collect();
                (pool, task.validation())
            }
        }
    }
}
