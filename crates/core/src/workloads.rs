//! Workload adapters: bind `datagen` tasks to the trainer's sampling
//! contract (Algorithm 2 line 3: "each process samples b elements from
//! dataset", with per-rank random streams).

use datagen::{GaussianMixtureTask, HyperplaneTask, VideoTask};
use dnn::Batch;
use imbalance::cost::lstm_batch_ms;
use minitensor::TensorRng;
use std::sync::Arc;

/// What the trainer needs from a task.
pub trait Workload: Send + Sync {
    /// Sample this rank's minibatch for `step`.
    fn sample(&self, rank: usize, step: u64, rng: &mut TensorRng) -> Batch;

    /// Held-out evaluation batches.
    fn test_batches(&self) -> Vec<Batch>;

    /// Training-set evaluation batches (Fig. 11b plots train accuracy).
    fn train_batches(&self) -> Vec<Batch> {
        Vec::new()
    }

    /// Virtual milliseconds this rank's batch for `step` costs to compute:
    /// what `run_sim` charges for it, since a simulated step's
    /// `grad_step` takes no time (a rank thread pays its real compute).
    /// Balanced workloads cost nothing beyond `base_compute_ms`.
    fn cost_ms(&self, _rank: usize, _step: u64) -> f64 {
        0.0
    }
}

/// Hyperplane regression (§6.2.1): balanced compute per batch.
pub struct HyperplaneWorkload {
    pub task: Arc<HyperplaneTask>,
    pub local_batch: usize,
}

impl Workload for HyperplaneWorkload {
    fn sample(&self, _rank: usize, _step: u64, rng: &mut TensorRng) -> Batch {
        self.task.sample_batch(self.local_batch, rng)
    }

    fn test_batches(&self) -> Vec<Batch> {
        vec![self.task.validation()]
    }
}

/// Gaussian-mixture classification (CIFAR/ImageNet proxies): balanced
/// compute per batch; imbalance comes from injection.
pub struct ImageWorkload {
    pub task: Arc<GaussianMixtureTask>,
    pub local_batch: usize,
    /// A fixed subsample of training-like batches for train accuracy.
    pub train_eval_batches: usize,
}

impl Workload for ImageWorkload {
    fn sample(&self, _rank: usize, _step: u64, rng: &mut TensorRng) -> Batch {
        self.task.sample_batch(self.local_batch, rng)
    }

    fn test_batches(&self) -> Vec<Batch> {
        vec![self.task.validation()]
    }

    fn train_batches(&self) -> Vec<Batch> {
        let mut rng = TensorRng::new(0xE7A1);
        (0..self.train_eval_batches)
            .map(|_| self.task.sample_batch(self.local_batch, &mut rng))
            .collect()
    }
}

/// Video classification (§6.3): *inherently* imbalanced — each step's
/// compute is Θ(bucket length).
pub struct VideoWorkload {
    pub task: Arc<VideoTask>,
    pub eval_videos: usize,
}

impl Workload for VideoWorkload {
    fn sample(&self, rank: usize, step: u64, _rng: &mut TensorRng) -> Batch {
        self.task.bucket_batch(self.task.bucket_at(rank, step))
    }

    /// The Fig. 2b LSTM cost at the bucket's frame count before
    /// `length_scale` shortened it: the paper's batch runtime.
    fn cost_ms(&self, rank: usize, step: u64) -> f64 {
        let frames = self.task.bucket_len(self.task.bucket_at(rank, step));
        lstm_batch_ms(frames as f64 * self.task.spec.length_scale)
    }

    fn test_batches(&self) -> Vec<Batch> {
        vec![self.task.validation(self.eval_videos)]
    }

    fn train_batches(&self) -> Vec<Batch> {
        // A few fixed buckets as a train-accuracy probe.
        let n = self.task.n_buckets();
        [0usize, n / 2, n - 1]
            .iter()
            .map(|&b| self.task.bucket_batch(b))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::VideoDatasetSpec;
    use dnn::SeqBatch;

    fn video(length_scale: f64) -> VideoWorkload {
        let spec = VideoDatasetSpec {
            n_videos: 256,
            ..VideoDatasetSpec::ucf101(length_scale)
        };
        VideoWorkload {
            task: Arc::new(VideoTask::new(spec, 8, 11)),
            eval_videos: 8,
        }
    }

    fn seq(batch: Batch) -> SeqBatch {
        let Batch::Seq(seq) = batch else {
            panic!("video batches are sequences")
        };
        seq
    }

    #[test]
    fn a_batch_costs_the_lstm_fit_at_its_paper_frame_count() {
        let wl = video(8.0);
        for (rank, step) in [(0, 0), (3, 7), (7, 100)] {
            let bucket = wl.task.bucket_at(rank, step);
            let want = lstm_batch_ms(wl.task.bucket_len(bucket) as f64 * 8.0);
            assert_eq!(wl.cost_ms(rank, step).to_bits(), want.to_bits());
        }
    }

    #[test]
    fn the_sampled_batch_is_the_costed_bucket_whatever_the_rng() {
        let wl = video(8.0);
        for (rank, step, seed) in [(0, 0, 1), (2, 5, 2), (2, 5, 3)] {
            let sampled = seq(wl.sample(rank, step, &mut TensorRng::new(seed)));
            let bucket = seq(wl.task.bucket_batch(wl.task.bucket_at(rank, step)));
            assert_eq!(sampled.xs, bucket.xs, "rank {rank} step {step}");
            assert_eq!(sampled.labels, bucket.labels);
        }
    }

    #[test]
    fn the_bucket_varies_with_rank_and_with_step() {
        let task = video(8.0).task;
        let distinct = |mut buckets: Vec<usize>| {
            buckets.sort_unstable();
            buckets.dedup();
            buckets.len()
        };
        let over_ranks = distinct((0..8).map(|r| task.bucket_at(r, 3)).collect());
        let over_steps = distinct((0..8).map(|s| task.bucket_at(3, s)).collect());
        assert!(
            over_ranks > 1 && over_steps > 1,
            "{over_ranks} {over_steps}"
        );
        assert_eq!(task.bucket_at(5, 9), task.bucket_at(5, 9));
    }
}
