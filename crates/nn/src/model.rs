//! The [`Model`] trait: the contract between models and the distributed
//! trainer, plus batch/metric types shared across tasks.

use crate::layers::{Layer, Sequential};
use crate::loss::{mse, softmax_xent, topk_accuracy, LossKind};
use crate::lstm::LstmClassifier;
use minitensor::Mat;

/// Regression targets or class labels.
#[derive(Debug, Clone)]
pub enum Target {
    Values(Mat),
    Classes(Vec<usize>),
}

/// A feed-forward batch: `x` is `batch × features`.
#[derive(Debug, Clone)]
pub struct DenseBatch {
    pub x: Mat,
    pub target: Target,
}

/// A bucketed sequence batch: `xs` has T entries of `batch × features`
/// (uniform T within the batch — §2.1's length bucketing).
#[derive(Debug, Clone)]
pub struct SeqBatch {
    pub xs: Vec<Mat>,
    pub labels: Vec<usize>,
}

impl SeqBatch {
    /// Sequence length of this bucket.
    pub fn seq_len(&self) -> usize {
        self.xs.len()
    }

    /// Number of samples.
    pub fn batch_size(&self) -> usize {
        self.labels.len()
    }
}

/// Either batch flavour.
#[derive(Debug, Clone)]
pub enum Batch {
    Dense(DenseBatch),
    Seq(SeqBatch),
}

impl Batch {
    /// Number of samples in the batch.
    pub fn size(&self) -> usize {
        match self {
            Batch::Dense(b) => b.x.rows(),
            Batch::Seq(b) => b.batch_size(),
        }
    }
}

/// Evaluation results on one batch.
#[derive(Debug, Clone, Copy, Default)]
pub struct EvalMetrics {
    pub loss: f32,
    pub top1: f32,
    pub top5: f32,
    pub n: usize,
}

impl EvalMetrics {
    /// Sample-weighted accumulation across batches.
    pub fn merge(&mut self, other: &EvalMetrics) {
        let total = (self.n + other.n) as f32;
        if total == 0.0 {
            return;
        }
        let wa = self.n as f32 / total;
        let wb = other.n as f32 / total;
        self.loss = self.loss * wa + other.loss * wb;
        self.top1 = self.top1 * wa + other.top1 * wb;
        self.top5 = self.top5 * wa + other.top5 * wb;
        self.n += other.n;
    }
}

/// What the distributed trainer needs from any model.
pub trait Model: Send {
    /// Total scalar parameter count (= flat buffer length).
    fn num_params(&self) -> usize;

    /// Length of each parameter tensor, in flat-buffer order. Used by the
    /// per-tensor (non-fused) gradient reduction mode, where each tensor
    /// gets its own in-flight allreduce (§3's tagged non-blocking
    /// collectives with a final waitall).
    fn param_sizes(&self) -> Vec<usize>;

    /// Zero grads, forward, backward. Returns the batch training loss.
    fn grad_step(&mut self, batch: &Batch) -> f32;

    /// Copy the current gradient into `out` (length `num_params`).
    fn write_grads(&self, out: &mut [f32]);

    /// Copy current parameters into `out`.
    fn write_params(&self, out: &mut [f32]);

    /// Overwrite parameters from `src` (model synchronization, §5).
    fn read_params(&mut self, src: &[f32]);

    /// Apply `w += delta` from a flat update.
    fn apply_delta(&mut self, delta: &[f32]);

    /// Forward-only evaluation with loss and top-1/top-5 accuracy.
    fn evaluate(&mut self, batch: &Batch) -> EvalMetrics;
}

/// A feed-forward network plus a loss head.
pub struct FeedForward {
    pub net: Sequential,
    pub loss: LossKind,
}

impl FeedForward {
    pub fn new(net: Sequential, loss: LossKind) -> Self {
        FeedForward { net, loss }
    }
}

impl Model for FeedForward {
    fn num_params(&self) -> usize {
        let mut n = 0;
        self.net.visit_params_ref(&mut |p| n += p.len());
        n
    }

    fn param_sizes(&self) -> Vec<usize> {
        let mut v = Vec::new();
        self.net.visit_params_ref(&mut |p| v.push(p.len()));
        v
    }

    fn grad_step(&mut self, batch: &Batch) -> f32 {
        let Batch::Dense(b) = batch else {
            panic!("FeedForward expects dense batches");
        };
        self.net.visit_params(&mut |p| p.zero_grad());
        let out = self.net.forward(&b.x, true);
        let (loss, dout) = match (&self.loss, &b.target) {
            (LossKind::Mse, Target::Values(t)) => mse(&out, t),
            (LossKind::SoftmaxXent, Target::Classes(y)) => softmax_xent(&out, y),
            _ => panic!("loss kind does not match target kind"),
        };
        self.net.backward_params(dout);
        loss
    }

    fn write_grads(&self, out: &mut [f32]) {
        let mut off = 0;
        self.net.visit_params_ref(&mut |p| {
            let g = p.grad.as_slice();
            out[off..off + g.len()].copy_from_slice(g);
            off += g.len();
        });
        assert_eq!(off, out.len());
    }

    fn write_params(&self, out: &mut [f32]) {
        let mut off = 0;
        self.net.visit_params_ref(&mut |p| {
            let v = p.value.as_slice();
            out[off..off + v.len()].copy_from_slice(v);
            off += v.len();
        });
        assert_eq!(off, out.len());
    }

    fn read_params(&mut self, src: &[f32]) {
        let mut off = 0;
        self.net.visit_params(&mut |p| {
            let n = p.value.len();
            p.value.as_mut_slice().copy_from_slice(&src[off..off + n]);
            off += n;
        });
        assert_eq!(off, src.len());
    }

    fn apply_delta(&mut self, delta: &[f32]) {
        let mut off = 0;
        self.net.visit_params(&mut |p| {
            let n = p.value.len();
            for (w, d) in p.value.as_mut_slice().iter_mut().zip(&delta[off..off + n]) {
                *w += d;
            }
            off += n;
        });
        assert_eq!(off, delta.len());
    }

    fn evaluate(&mut self, batch: &Batch) -> EvalMetrics {
        let Batch::Dense(b) = batch else {
            panic!("FeedForward expects dense batches");
        };
        let out = self.net.forward(&b.x, false);
        match (&self.loss, &b.target) {
            (LossKind::Mse, Target::Values(t)) => {
                let (loss, _) = mse(&out, t);
                EvalMetrics {
                    loss,
                    top1: 0.0,
                    top5: 0.0,
                    n: b.x.rows(),
                }
            }
            (LossKind::SoftmaxXent, Target::Classes(y)) => {
                let (loss, _) = softmax_xent(&out, y);
                EvalMetrics {
                    loss,
                    top1: topk_accuracy(&out, y, 1),
                    top5: topk_accuracy(&out, y, 5.min(out.cols())),
                    n: b.x.rows(),
                }
            }
            _ => panic!("loss kind does not match target kind"),
        }
    }
}

impl Model for LstmClassifier {
    fn num_params(&self) -> usize {
        LstmClassifier::num_params(self)
    }

    fn param_sizes(&self) -> Vec<usize> {
        let mut v = Vec::new();
        self.visit_params_ref(&mut |p| v.push(p.len()));
        v
    }

    fn grad_step(&mut self, batch: &Batch) -> f32 {
        let Batch::Seq(b) = batch else {
            panic!("LstmClassifier expects sequence batches");
        };
        self.visit_params(&mut |p| p.zero_grad());
        let logits = self.forward_seq(&b.xs, true);
        let (loss, dlogits) = softmax_xent(&logits, &b.labels);
        self.backward_seq(&dlogits);
        loss
    }

    fn write_grads(&self, out: &mut [f32]) {
        let mut off = 0;
        self.visit_params_ref(&mut |p| {
            let g = p.grad.as_slice();
            out[off..off + g.len()].copy_from_slice(g);
            off += g.len();
        });
        assert_eq!(off, out.len());
    }

    fn write_params(&self, out: &mut [f32]) {
        let mut off = 0;
        self.visit_params_ref(&mut |p| {
            let v = p.value.as_slice();
            out[off..off + v.len()].copy_from_slice(v);
            off += v.len();
        });
        assert_eq!(off, out.len());
    }

    fn read_params(&mut self, src: &[f32]) {
        let mut off = 0;
        self.visit_params(&mut |p| {
            let n = p.value.len();
            p.value.as_mut_slice().copy_from_slice(&src[off..off + n]);
            off += n;
        });
        assert_eq!(off, src.len());
    }

    fn apply_delta(&mut self, delta: &[f32]) {
        let mut off = 0;
        self.visit_params(&mut |p| {
            let n = p.value.len();
            for (w, d) in p.value.as_mut_slice().iter_mut().zip(&delta[off..off + n]) {
                *w += d;
            }
            off += n;
        });
        assert_eq!(off, delta.len());
    }

    fn evaluate(&mut self, batch: &Batch) -> EvalMetrics {
        let Batch::Seq(b) = batch else {
            panic!("LstmClassifier expects sequence batches");
        };
        let logits = self.forward_seq(&b.xs, false);
        let (loss, _) = softmax_xent(&logits, &b.labels);
        EvalMetrics {
            loss,
            top1: topk_accuracy(&logits, &b.labels, 1),
            top5: topk_accuracy(&logits, &b.labels, 5.min(logits.cols())),
            n: b.batch_size(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};
    use minitensor::TensorRng;

    fn tiny_ff() -> FeedForward {
        let mut rng = TensorRng::new(3);
        let net = Sequential::new()
            .push(Dense::new(4, 8, &mut rng))
            .push(Relu::new())
            .push(Dense::new(8, 3, &mut rng));
        FeedForward::new(net, LossKind::SoftmaxXent)
    }

    fn tiny_batch() -> Batch {
        let mut rng = TensorRng::new(4);
        Batch::Dense(DenseBatch {
            x: Mat::randn(6, 4, 1.0, &mut rng),
            target: Target::Classes(vec![0, 1, 2, 0, 1, 2]),
        })
    }

    #[test]
    fn flat_buffers_round_trip() {
        let m = tiny_ff();
        let n = m.num_params();
        assert_eq!(n, 4 * 8 + 8 + 8 * 3 + 3);
        let mut params = vec![0.0; n];
        m.write_params(&mut params);
        let mut m2 = tiny_ff();
        m2.read_params(&params);
        let mut p2 = vec![0.0; n];
        m2.write_params(&mut p2);
        assert_eq!(params, p2);
    }

    #[test]
    fn grad_step_then_delta_reduces_loss() {
        let mut m = tiny_ff();
        let batch = tiny_batch();
        let n = m.num_params();
        let mut grads = vec![0.0; n];
        let l0 = m.grad_step(&batch);
        m.write_grads(&mut grads);
        let delta: Vec<f32> = grads.iter().map(|g| -0.1 * g).collect();
        m.apply_delta(&delta);
        let l1 = m.evaluate(&batch).loss;
        assert!(l1 < l0, "one SGD step must reduce loss: {l0} → {l1}");
    }

    #[test]
    fn evaluate_reports_sane_accuracy_range() {
        let mut m = tiny_ff();
        let e = m.evaluate(&tiny_batch());
        assert!(e.loss > 0.0);
        assert!((0.0..=1.0).contains(&e.top1));
        assert!(e.top1 <= e.top5);
        assert_eq!(e.n, 6);
    }

    /// Held-out losses of [`zoo_cases`] at commit 22b2177, whose `forward`
    /// took its batch by value and whose products summed in index order.
    const PARENT_LOSS: [f32; 3] = [1.0108341, 1.7021765, 1.0477799];

    /// The zoo's two feed-forward shapes and the LSTM, each with a
    /// seeded batch, in `PARENT_LOSS` order.
    fn zoo_cases() -> (Vec<(FeedForward, Batch)>, (LstmClassifier, Batch)) {
        use crate::zoo::{hyperplane_mlp, resnet_proxy, video_lstm};
        let mut rng = TensorRng::new(21);
        let dense = |x: Mat, target: Target| Batch::Dense(DenseBatch { x, target });
        let classes = |n: usize, k: usize| Target::Classes((0..n).map(|i| i % k).collect());
        let mlp = hyperplane_mlp(64, &mut rng);
        let mlp_x = Mat::randn(6, 64, 1.0, &mut rng);
        let mlp_y = Target::Values(Mat::randn(6, 1, 1.0, &mut rng));
        let proxy = resnet_proxy(16, 16, 2, 4, &mut rng);
        let proxy_x = Mat::randn(6, 16, 1.0, &mut rng);
        let lstm = video_lstm(5, 8, 3, &mut rng);
        let seq = Batch::Seq(SeqBatch {
            xs: (0..4).map(|_| Mat::randn(3, 5, 1.0, &mut rng)).collect(),
            labels: vec![0, 1, 2],
        });
        let feed_forward = vec![
            (mlp, dense(mlp_x, mlp_y)),
            (proxy, dense(proxy_x, classes(6, 4))),
        ];
        (feed_forward, (lstm, seq))
    }

    fn grad_bits(m: &dyn Model) -> Vec<u32> {
        let mut g = vec![0.0; m.num_params()];
        m.write_grads(&mut g);
        assert!(g.iter().any(|&v| v != 0.0), "a zero gradient pins nothing");
        g.iter().map(|v| v.to_bits()).collect()
    }

    /// `grad_step` tells the first layer that nobody reads its input
    /// gradient; what it accumulates into the parameters must be, bit for
    /// bit, what the full backward pass accumulates.
    #[test]
    fn grad_step_matches_the_full_backward_bitwise() {
        let (feed_forward, (mut lstm, seq)) = zoo_cases();
        for (mut m, batch) in feed_forward {
            m.grad_step(&batch);
            let skipped = grad_bits(&m);
            let Batch::Dense(b) = &batch else {
                unreachable!()
            };
            m.net.visit_params(&mut |p| p.zero_grad());
            let out = m.net.forward(&b.x, true);
            let dout = match &b.target {
                Target::Values(t) => mse(&out, t).1,
                Target::Classes(y) => softmax_xent(&out, y).1,
            };
            let _dx = m.net.backward(dout);
            assert_eq!(skipped, grad_bits(&m));
        }
        lstm.grad_step(&seq);
        let stepped = grad_bits(&lstm);
        let Batch::Seq(b) = &seq else { unreachable!() };
        lstm.visit_params(&mut |p| p.zero_grad());
        let logits = lstm.forward_seq(&b.xs, true);
        lstm.backward_seq(&softmax_xent(&logits, &b.labels).1);
        assert_eq!(stepped, grad_bits(&lstm));
    }

    #[test]
    fn evaluate_on_a_borrowed_batch_returns_the_by_value_loss() {
        let (feed_forward, (mut lstm, seq)) = zoo_cases();
        let mut losses: Vec<f32> = feed_forward
            .into_iter()
            .map(|(mut m, batch)| m.evaluate(&batch).loss)
            .collect();
        losses.push(lstm.evaluate(&seq).loss);
        for (loss, parent) in losses.iter().zip(PARENT_LOSS) {
            assert!(
                (loss - parent).abs() <= 1e-6 * parent,
                "{loss} vs {parent} at the parent"
            );
        }
    }

    #[test]
    fn metrics_merge_weights_by_samples() {
        let mut a = EvalMetrics {
            loss: 1.0,
            top1: 1.0,
            top5: 1.0,
            n: 1,
        };
        let b = EvalMetrics {
            loss: 0.0,
            top1: 0.0,
            top5: 0.0,
            n: 3,
        };
        a.merge(&b);
        assert!((a.loss - 0.25).abs() < 1e-6);
        assert!((a.top1 - 0.25).abs() < 1e-6);
        assert_eq!(a.n, 4);
    }

    #[test]
    fn apply_delta_matches_manual_sgd() {
        // apply_delta(-lr * g) must equal the manual per-param update.
        let mut m1 = tiny_ff();
        let mut m2 = tiny_ff();
        let batch = tiny_batch();
        let n = m1.num_params();
        let mut g = vec![0.0; n];
        m1.grad_step(&batch);
        m1.write_grads(&mut g);
        m2.grad_step(&batch);

        let delta: Vec<f32> = g.iter().map(|x| -0.05 * x).collect();
        m1.apply_delta(&delta);
        m2.net.visit_params(&mut |p| {
            let grad = p.grad.clone();
            p.value.add_scaled(&grad, -0.05);
        });
        let mut p1 = vec![0.0; n];
        let mut p2 = vec![0.0; n];
        m1.write_params(&mut p1);
        m2.write_params(&mut p2);
        assert_eq!(p1, p2);
    }
}
