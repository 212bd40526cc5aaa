//! Gaussian-mixture classification batches: the CIFAR-10 / ImageNet
//! stand-in. Each class has a random mean vector; samples are the mean
//! plus isotropic noise. `noise_std` (relative to unit-norm class
//! separation) controls task difficulty, so accuracy curves have headroom
//! to show degradation from stale gradients (Figs. 11–12).

use dnn::{Batch, DenseBatch, Target};
use minitensor::{Mat, TensorRng};

/// A synthetic classification task with fixed class structure.
pub struct GaussianMixtureTask {
    pub dim: usize,
    pub classes: usize,
    pub train_size: usize,
    means: Vec<Vec<f32>>,
    noise_std: f32,
    val_x: Mat,
    val_labels: Vec<usize>,
}

impl GaussianMixtureTask {
    pub fn new(
        dim: usize,
        classes: usize,
        train_size: usize,
        noise_std: f32,
        val_size: usize,
        seed: u64,
    ) -> Self {
        let mut rng = TensorRng::new(seed);
        // Unit-norm class means: separation fixed, noise_std sets overlap.
        let means: Vec<Vec<f32>> = (0..classes)
            .map(|_| {
                let v: Vec<f32> = (0..dim).map(|_| rng.normal() as f32).collect();
                let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-6);
                v.into_iter().map(|x| x / norm * 2.0).collect()
            })
            .collect();
        let (val_x, val_labels) = Self::gen(&means, noise_std, val_size, &mut rng);
        GaussianMixtureTask {
            dim,
            classes,
            train_size,
            means,
            noise_std,
            val_x,
            val_labels,
        }
    }

    fn gen(means: &[Vec<f32>], noise_std: f32, n: usize, rng: &mut TensorRng) -> (Mat, Vec<usize>) {
        let classes = means.len();
        let labels: Vec<usize> = (0..n).map(|_| rng.index(classes)).collect();
        let dim = means[0].len();
        let x = Mat::from_fn(n, dim, |i, j| {
            means[labels[i]][j] + rng.normal() as f32 * noise_std
        });
        (x, labels)
    }

    /// Sample a training minibatch with the caller's RNG.
    pub fn sample_batch(&self, batch: usize, rng: &mut TensorRng) -> Batch {
        let (x, labels) = Self::gen(&self.means, self.noise_std, batch, rng);
        Batch::Dense(DenseBatch {
            x,
            target: Target::Classes(labels),
        })
    }

    /// The fixed validation set.
    pub fn validation(&self) -> Batch {
        Batch::Dense(DenseBatch {
            x: self.val_x.clone(),
            target: Target::Classes(self.val_labels.clone()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_in_range_and_varied() {
        let t = GaussianMixtureTask::new(16, 10, 1000, 0.5, 64, 1);
        let mut rng = TensorRng::new(2);
        let Batch::Dense(b) = t.sample_batch(256, &mut rng) else {
            unreachable!()
        };
        let Target::Classes(labels) = &b.target else {
            unreachable!()
        };
        assert!(labels.iter().all(|&l| l < 10));
        let distinct: std::collections::HashSet<_> = labels.iter().collect();
        assert!(distinct.len() >= 8, "256 draws should hit most classes");
    }

    #[test]
    fn class_means_are_separated() {
        let t = GaussianMixtureTask::new(32, 4, 100, 0.1, 16, 5);
        let mut rng = TensorRng::new(7);
        let Batch::Dense(b) = t.sample_batch(400, &mut rng) else {
            unreachable!()
        };
        let Target::Classes(labels) = &b.target else {
            unreachable!()
        };
        // With tiny noise, per-class sample means should be closer to
        // their own class mean than to any other.
        for c in 0..4 {
            let rows: Vec<usize> = (0..400).filter(|&i| labels[i] == c).collect();
            assert!(!rows.is_empty());
            let mut centroid = vec![0.0f32; 32];
            for &i in &rows {
                for (j, v) in b.x.row(i).iter().enumerate() {
                    centroid[j] += v;
                }
            }
            centroid.iter_mut().for_each(|v| *v /= rows.len() as f32);
            let d2 = |a: &[f32], b: &[f32]| -> f32 {
                a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
            };
            let own = d2(&centroid, &t.means[c]);
            for other in 0..4 {
                if other != c {
                    assert!(
                        own < d2(&centroid, &t.means[other]),
                        "class {c} centroid closer to class {other}"
                    );
                }
            }
        }
    }
}
