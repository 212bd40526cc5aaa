//! The model zoo of Table 1, sized for a CPU-thread reproduction.
//!
//! | paper model        | here                                   | substitution rationale |
//! |--------------------|----------------------------------------|------------------------|
//! | one-layer MLP      | [`hyperplane_mlp`] — **identical** (8193 params) | the paper's own synthetic task |
//! | ResNet-32          | [`resnet_proxy`] depth 15, residual-MLP blocks | same skip-connected depth; convs→dense ([`resnet_proxy`] docs) |
//! | ResNet-50          | [`resnet_proxy`] depth 16, wider       | ditto |
//! | Inception+LSTM     | [`video_lstm`] on synthetic features   | the paper also trains the LSTM on precomputed features (§6.3) |

use crate::conv::{Conv2d, ImgShape, MaxPool2d};
use crate::layers::{Dense, Relu, Residual, Sequential};
use crate::loss::LossKind;
use crate::lstm::LstmClassifier;
use crate::model::{FeedForward, Model};
use minitensor::TensorRng;

/// The paper's hyperplane-regression learner: one dense layer
/// `dim → 1`, MSE loss. With `dim = 8192` this has exactly the 8,193
/// parameters of Table 1.
pub fn hyperplane_mlp(dim: usize, rng: &mut TensorRng) -> FeedForward {
    let net = Sequential::new().push(Dense::new(dim, 1, rng));
    FeedForward::new(net, LossKind::Mse)
}

/// Residual-MLP proxy for the ResNet family: a stem, `blocks` residual
/// blocks of two dense layers with ReLU, and a classifier head.
///
/// The second dense layer of each residual branch is zero-initialized so
/// the whole network is the identity (plus stem/head) at initialization —
/// without this, stacking 8–15 He-initialized residual branches grows
/// activation variance exponentially and the softmax saturates before
/// learning starts. (The paper's ResNets get the same effect from
/// BatchNorm, which this proxy omits.)
pub fn resnet_proxy(
    in_dim: usize,
    width: usize,
    blocks: usize,
    classes: usize,
    rng: &mut TensorRng,
) -> FeedForward {
    let mut net = Sequential::new()
        .push(Dense::new(in_dim, width, rng))
        .push(Relu::new());
    for _ in 0..blocks {
        let mut branch_out = Dense::new(width, width, rng);
        branch_out.w.value.clear();
        let inner = Sequential::new()
            .push(Dense::new(width, width, rng))
            .push(Relu::new())
            .push(branch_out);
        net = net.push(Residual::new(inner)).push(Relu::new());
    }
    net = net.push(Dense::new(width, classes, rng));
    FeedForward::new(net, LossKind::SoftmaxXent)
}

/// "ResNet-32 on CIFAR-10" proxy (15 residual blocks, as ResNet-32 has
/// 15 two-layer blocks).
pub fn resnet32_proxy(in_dim: usize, classes: usize, rng: &mut TensorRng) -> FeedForward {
    resnet_proxy(in_dim, 64, 15, classes, rng)
}

/// "ResNet-50 on ImageNet" proxy (16 blocks, wider).
pub fn resnet50_proxy(in_dim: usize, classes: usize, rng: &mut TensorRng) -> FeedForward {
    resnet_proxy(in_dim, 96, 16, classes, rng)
}

/// A true-convolution residual classifier for spatial image tasks:
/// stem conv → `blocks` residual conv blocks (3×3, padding 1, channel-
/// preserving so the skip connection type-checks) → 2×2 max-pool →
/// dense head. Closer in kind to ResNet-32 than the dense proxy;
/// BatchNorm is omitted (documented substitution — bias+ReLU suffice at
/// these depths/widths).
pub fn resnet_cnn(
    in_shape: ImgShape,
    stem_channels: usize,
    blocks: usize,
    classes: usize,
    rng: &mut TensorRng,
) -> FeedForward {
    let stem = Conv2d::new(in_shape, stem_channels, 3, 1, rng);
    let body_shape = stem.out_shape();
    let mut net = Sequential::new().push(stem).push(Relu::new());
    for _ in 0..blocks {
        // Zero-init the branch's second conv: identity at init (see
        // `resnet_proxy`).
        let mut branch_out = Conv2d::new(body_shape, stem_channels, 3, 1, rng);
        branch_out.w.value.clear();
        let inner = Sequential::new()
            .push(Conv2d::new(body_shape, stem_channels, 3, 1, rng))
            .push(Relu::new())
            .push(branch_out);
        net = net.push(Residual::new(inner)).push(Relu::new());
    }
    let pool = MaxPool2d::new(body_shape, 2);
    let pooled = pool.out_shape();
    net = net
        .push(pool)
        .push(Dense::new(pooled.numel(), classes, rng));
    FeedForward::new(net, LossKind::SoftmaxXent)
}

/// The video classifier of §6.3: an LSTM over per-frame features
/// (standing in for Inception-v3 2048-wide features).
pub fn video_lstm(
    feat_dim: usize,
    hidden: usize,
    classes: usize,
    rng: &mut TensorRng,
) -> LstmClassifier {
    LstmClassifier::new(feat_dim, hidden, classes, rng)
}

/// One row of Table 1 as this reproduction instantiates it.
#[derive(Debug, Clone)]
pub struct Table1Row {
    pub task: &'static str,
    pub model: &'static str,
    pub paper_params: usize,
    pub our_params: usize,
    pub train_size: &'static str,
    pub batch_size: usize,
    pub epochs: usize,
    pub processes: usize,
}

/// Build the Table 1 inventory (instantiating each model to count its
/// parameters).
pub fn table1() -> Vec<Table1Row> {
    let mut rng = TensorRng::new(0);
    vec![
        Table1Row {
            task: "Hyperplane regression",
            model: "One-layer MLP",
            paper_params: 8_193,
            our_params: hyperplane_mlp(8192, &mut rng).num_params(),
            train_size: "32,768 points",
            batch_size: 2048,
            epochs: 48,
            processes: 8,
        },
        Table1Row {
            task: "Cifar-10 (synthetic proxy)",
            model: "ResNet-32 proxy",
            paper_params: 467_194,
            our_params: resnet32_proxy(256, 10, &mut rng).num_params(),
            train_size: "50,000 images",
            batch_size: 512,
            epochs: 190,
            processes: 8,
        },
        Table1Row {
            task: "ImageNet (synthetic proxy)",
            model: "ResNet-50 proxy",
            paper_params: 25_559_081,
            our_params: resnet50_proxy(512, 100, &mut rng).num_params(),
            train_size: "1,281,167 images",
            batch_size: 8192,
            epochs: 90,
            processes: 64,
        },
        Table1Row {
            task: "UCF101 (synthetic proxy)",
            model: "Inception+LSTM proxy",
            paper_params: 34_663_525,
            our_params: Model::num_params(&video_lstm(64, 128, 101, &mut rng)),
            train_size: "9,537 videos",
            batch_size: 128,
            epochs: 50,
            processes: 8,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Batch, DenseBatch, Target};
    use minitensor::Mat;

    #[test]
    fn hyperplane_mlp_has_exact_table1_params() {
        let mut rng = TensorRng::new(0);
        let m = hyperplane_mlp(8192, &mut rng);
        assert_eq!(m.num_params(), 8_193);
    }

    #[test]
    fn resnet_proxies_have_expected_depth_scale() {
        let mut rng = TensorRng::new(0);
        let r32 = resnet32_proxy(256, 10, &mut rng);
        let r50 = resnet50_proxy(512, 100, &mut rng);
        assert!(r32.num_params() > 100_000, "{}", r32.num_params());
        assert!(r50.num_params() > r32.num_params());
    }

    #[test]
    fn table1_has_four_workloads() {
        let t = table1();
        assert_eq!(t.len(), 4);
        assert_eq!(t[0].our_params, t[0].paper_params);
    }

    #[test]
    fn hyperplane_learns_coefficients() {
        // End-to-end sanity: the MLP recovers a small hyperplane.
        let dim = 16;
        let mut rng = TensorRng::new(12);
        let coeffs: Vec<f32> = (0..dim).map(|_| rng.normal() as f32).collect();
        let mut m = hyperplane_mlp(dim, &mut rng);
        let make_batch = |rng: &mut TensorRng| {
            let x = Mat::randn(32, dim, 1.0, rng);
            let y = Mat::from_fn(32, 1, |i, _| {
                x.row(i).iter().zip(&coeffs).map(|(a, b)| a * b).sum()
            });
            Batch::Dense(DenseBatch {
                x,
                target: Target::Values(y),
            })
        };
        let n = m.num_params();
        let mut g = vec![0.0; n];
        let mut first = None;
        for _ in 0..300 {
            let b = make_batch(&mut rng);
            let loss = m.grad_step(&b);
            first.get_or_insert(loss);
            m.write_grads(&mut g);
            let delta: Vec<f32> = g.iter().map(|x| -0.01 * x).collect();
            m.apply_delta(&delta);
        }
        let final_loss = m.evaluate(&make_batch(&mut rng)).loss;
        assert!(
            final_loss < first.unwrap() * 0.01,
            "hyperplane failed to converge: {} → {final_loss}",
            first.unwrap()
        );
    }

    #[test]
    fn resnet_proxy_learns_separable_classes() {
        let mut rng = TensorRng::new(13);
        let classes = 4;
        let dim = 16;
        let means: Vec<Vec<f32>> = (0..classes)
            .map(|_| (0..dim).map(|_| rng.normal() as f32 * 2.0).collect())
            .collect();
        let mut m = resnet_proxy(dim, 32, 3, classes, &mut rng);
        let make_batch = |rng: &mut TensorRng| {
            let labels: Vec<usize> = (0..32).map(|_| rng.index(classes)).collect();
            let x = Mat::from_fn(32, dim, |i, j| {
                means[labels[i]][j] + rng.normal() as f32 * 0.5
            });
            Batch::Dense(DenseBatch {
                x,
                target: Target::Classes(labels),
            })
        };
        let n = m.num_params();
        let mut g = vec![0.0; n];
        for _ in 0..150 {
            let b = make_batch(&mut rng);
            m.grad_step(&b);
            m.write_grads(&mut g);
            let delta: Vec<f32> = g.iter().map(|x| -0.05 * x).collect();
            m.apply_delta(&delta);
        }
        let e = m.evaluate(&make_batch(&mut rng));
        assert!(e.top1 > 0.85, "top-1 {} too low", e.top1);
    }
}
