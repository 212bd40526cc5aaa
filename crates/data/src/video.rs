//! Synthetic video dataset with UCF101's length distribution (§2.1).
//!
//! Lengths are drawn from a clipped log-normal fitted to the paper's
//! reported statistics (9,537 training videos, 29–1776 frames, median 167,
//! right-skewed — Fig. 2a). Features stand in for the Inception-v3
//! per-frame vectors the paper trains its LSTM on: each frame is the class
//! mean plus a class-specific temporal trend plus noise, so the task is
//! learnable and the LSTM's Θ(T) compute produces *inherent* load
//! imbalance exactly as in §6.3.
//!
//! Training batches are **length-bucketed** ("as is standard in
//! variable-length training, videos with similar lengths are grouped into
//! buckets"): videos are sorted by length and partitioned into
//! batch-sized buckets; a step samples one bucket, whose frame count sets
//! that step's compute cost.

use dnn::{Batch, SeqBatch};
use minitensor::{Mat, TensorRng};

/// Shape of a synthetic video dataset.
#[derive(Debug, Clone)]
pub struct VideoDatasetSpec {
    pub n_videos: usize,
    pub classes: usize,
    pub feat_dim: usize,
    pub min_len: usize,
    pub max_len: usize,
    /// Log-normal parameters of the length distribution.
    pub mu_log: f64,
    pub sigma_log: f64,
    /// Divide all lengths by this factor (compute affordability knob for
    /// training runs; 1.0 reproduces the paper's frame counts for the
    /// distribution figures).
    pub length_scale: f64,
    /// Per-frame feature noise (σ); class signal has fixed unit scale, so
    /// this is the task-difficulty knob.
    pub noise_std: f32,
}

impl VideoDatasetSpec {
    /// UCF101-fitted defaults: median ≈ exp(5.118) ≈ 167 frames,
    /// right-skewed, clipped to [29, 1776].
    pub fn ucf101(length_scale: f64) -> Self {
        VideoDatasetSpec {
            n_videos: 9_537,
            classes: 101,
            feat_dim: 64,
            min_len: 29,
            max_len: 1776,
            mu_log: 5.118,
            sigma_log: 0.55,
            length_scale,
            noise_std: 0.8,
        }
    }

    /// A small variant for unit tests and quick runs.
    pub fn small(classes: usize, feat_dim: usize) -> Self {
        VideoDatasetSpec {
            n_videos: 512,
            classes,
            feat_dim,
            min_len: 4,
            max_len: 64,
            mu_log: 2.8,
            sigma_log: 0.5,
            length_scale: 1.0,
            noise_std: 0.8,
        }
    }
}

/// Metadata of one synthetic video.
#[derive(Debug, Clone, Copy)]
pub struct Video {
    pub id: usize,
    pub class: usize,
    /// Frame count after `length_scale`.
    pub len: usize,
}

/// The generated dataset: video metadata, class signal parameters, and
/// length-sorted training buckets.
pub struct VideoTask {
    pub spec: VideoDatasetSpec,
    videos: Vec<Video>,
    /// Consecutive length-sorted index groups of `bucket_size` videos.
    buckets: Vec<Vec<usize>>,
    class_mean: Vec<Vec<f32>>,
    class_trend: Vec<Vec<f32>>,
    noise_std: f32,
    val: Vec<Video>,
    feature_seed: u64,
    bucket_seed: u64,
}

impl VideoTask {
    pub fn new(spec: VideoDatasetSpec, bucket_size: usize, seed: u64) -> Self {
        assert!(bucket_size > 0);
        let mut rng = TensorRng::new(seed);
        let scale = spec.length_scale.max(1.0);
        let draw_len = |rng: &mut TensorRng| {
            let raw = rng.lognormal(spec.mu_log, spec.sigma_log);
            let clipped = raw.clamp(spec.min_len as f64, spec.max_len as f64);
            ((clipped / scale).round() as usize).max(2)
        };
        let videos: Vec<Video> = (0..spec.n_videos)
            .map(|id| Video {
                id,
                class: rng.index(spec.classes),
                len: draw_len(&mut rng),
            })
            .collect();
        // Held-out validation: fresh draws from the same distribution.
        let val: Vec<Video> = (0..(spec.n_videos / 10).clamp(32, 512))
            .map(|id| Video {
                id: spec.n_videos + id,
                class: rng.index(spec.classes),
                len: draw_len(&mut rng),
            })
            .collect();

        // Length bucketing.
        let mut order: Vec<usize> = (0..videos.len()).collect();
        order.sort_by_key(|&i| videos[i].len);
        let buckets: Vec<Vec<usize>> = order.chunks(bucket_size).map(|c| c.to_vec()).collect();

        // Class signal: unit-norm mean + temporal trend direction.
        let unit = |rng: &mut TensorRng, dim: usize, scale: f32| -> Vec<f32> {
            let v: Vec<f32> = (0..dim).map(|_| rng.normal() as f32).collect();
            let n = v.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-6);
            v.into_iter().map(|x| x / n * scale).collect()
        };
        let class_mean = (0..spec.classes)
            .map(|_| unit(&mut rng, spec.feat_dim, 1.5))
            .collect();
        let class_trend = (0..spec.classes)
            .map(|_| unit(&mut rng, spec.feat_dim, 1.0))
            .collect();

        let noise_std = spec.noise_std;
        VideoTask {
            spec,
            videos,
            buckets,
            class_mean,
            class_trend,
            noise_std,
            val,
            feature_seed: seed ^ 0xFEA7,
            bucket_seed: seed ^ 0xB0C7,
        }
    }

    /// All training videos.
    pub fn videos(&self) -> &[Video] {
        &self.videos
    }

    /// Training lengths (for the Fig. 2a histogram).
    pub fn lengths(&self) -> Vec<usize> {
        self.videos.iter().map(|v| v.len).collect()
    }

    /// Number of buckets (steps per epoch × ranks).
    pub fn n_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Frame count a bucket's batch runs at (its longest video).
    pub fn bucket_len(&self, bucket: usize) -> usize {
        self.buckets[bucket]
            .iter()
            .map(|&i| self.videos[i].len)
            .max()
            .unwrap_or(2)
    }

    /// Generate the feature sequence batch for one bucket.
    pub fn bucket_batch(&self, bucket: usize) -> Batch {
        let idxs = &self.buckets[bucket];
        let vids: Vec<Video> = idxs.iter().map(|&i| self.videos[i]).collect();
        self.materialize(&vids)
    }

    /// The bucket `rank` trains on at `step`: uniform over the buckets and
    /// a pure function of `(seed, rank, step)`, so a step's batch and its
    /// compute cost can be looked up independently and always agree.
    pub fn bucket_at(&self, rank: usize, step: u64) -> usize {
        let key = (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ step;
        TensorRng::new(self.bucket_seed ^ key).index(self.buckets.len())
    }

    /// A class-stratified validation batch of up to `n` videos, bucketed
    /// to its own max length.
    pub fn validation(&self, n: usize) -> Batch {
        let vids: Vec<Video> = self.val.iter().take(n).copied().collect();
        self.materialize(&vids)
    }

    /// Generate features for a set of videos at T = max length (shorter
    /// videos loop their frames, a common padding choice that keeps the
    /// class signal alive across the pooled window).
    fn materialize(&self, vids: &[Video]) -> Batch {
        assert!(!vids.is_empty());
        let t_max = vids.iter().map(|v| v.len).max().unwrap();
        let batch = vids.len();
        let dim = self.spec.feat_dim;
        let mut per_video_rng: Vec<TensorRng> = vids
            .iter()
            .map(|v| TensorRng::new(self.feature_seed ^ (v.id as u64).wrapping_mul(0x9E37)))
            .collect();
        let mut xs = Vec::with_capacity(t_max);
        for t in 0..t_max {
            let x = Mat::from_fn(batch, dim, |r, j| {
                let v = &vids[r];
                let tt = t % v.len; // loop short videos
                let phase = tt as f32 / v.len as f32 - 0.5;
                self.class_mean[v.class][j]
                    + self.class_trend[v.class][j] * phase
                    + per_video_rng[r].normal() as f32 * self.noise_std
            });
            xs.push(x);
        }
        Batch::Seq(SeqBatch {
            xs,
            labels: vids.iter().map(|v| v.class).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ucf101_length_distribution_matches_paper_stats() {
        let task = VideoTask::new(VideoDatasetSpec::ucf101(1.0), 16, 42);
        let mut lens = task.lengths();
        lens.sort_unstable();
        let n = lens.len();
        assert_eq!(n, 9_537);
        let median = lens[n / 2];
        assert!(
            (140..200).contains(&median),
            "median {median} should be ≈167 (Fig. 2a)"
        );
        assert!(*lens.first().unwrap() >= 29);
        assert!(*lens.last().unwrap() <= 1776);
        // Right skew: mean > median.
        let mean = lens.iter().sum::<usize>() as f64 / n as f64;
        assert!(mean > median as f64, "mean {mean} vs median {median}");
        // Spread in the reported ballpark (σ ≈ 97).
        let var = lens
            .iter()
            .map(|&l| (l as f64 - mean) * (l as f64 - mean))
            .sum::<f64>()
            / n as f64;
        let std = var.sqrt();
        assert!((60.0..160.0).contains(&std), "std {std}");
    }

    #[test]
    fn buckets_group_similar_lengths() {
        let task = VideoTask::new(VideoDatasetSpec::small(5, 8), 16, 1);
        // Bucket maxima must be sorted (buckets partition sorted order).
        let maxima: Vec<usize> = (0..task.n_buckets()).map(|b| task.bucket_len(b)).collect();
        let mut sorted = maxima.clone();
        sorted.sort_unstable();
        assert_eq!(maxima, sorted);
        // Every video appears exactly once across buckets.
        let total: usize = (0..task.n_buckets()).map(|b| task.buckets[b].len()).sum();
        assert_eq!(total, task.videos().len());
    }

    #[test]
    fn bucket_batch_has_bucket_shape() {
        let task = VideoTask::new(VideoDatasetSpec::small(5, 8), 4, 2);
        let b = task.n_buckets() / 2;
        let Batch::Seq(sb) = task.bucket_batch(b) else {
            panic!("seq expected");
        };
        assert_eq!(sb.batch_size(), 4);
        assert_eq!(sb.seq_len(), task.bucket_len(b));
        assert_eq!(sb.xs[0].cols(), 8);
        assert!(sb.labels.iter().all(|&c| c < 5));
    }

    #[test]
    fn length_scale_shrinks_sequences() {
        let full = VideoTask::new(VideoDatasetSpec::ucf101(1.0), 16, 7);
        let eighth = VideoTask::new(VideoDatasetSpec::ucf101(8.0), 16, 7);
        let mean =
            |t: &VideoTask| t.lengths().iter().sum::<usize>() as f64 / t.lengths().len() as f64;
        let ratio = mean(&full) / mean(&eighth);
        assert!(
            (6.0..10.0).contains(&ratio),
            "scale 8 should shrink lengths ≈8×, got {ratio}"
        );
    }

    #[test]
    fn features_are_deterministic_per_video() {
        let task = VideoTask::new(VideoDatasetSpec::small(3, 4), 4, 5);
        let Batch::Seq(a) = task.bucket_batch(0) else {
            unreachable!()
        };
        let Batch::Seq(b) = task.bucket_batch(0) else {
            unreachable!()
        };
        assert_eq!(a.xs[0], b.xs[0], "same bucket regenerates identically");
    }
}
