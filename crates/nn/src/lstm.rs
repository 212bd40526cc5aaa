//! LSTM sequence classifier with full backpropagation through time.
//!
//! Mirrors the paper's UCF101 setup (§2.1, §6.3): per-frame feature
//! vectors flow through a single-layer LSTM; the classifier head runs on
//! the *mean* of the hidden states over time. Compute cost is Θ(T) in the
//! sequence length — the very property that makes video workloads
//! inherently imbalanced.
//!
//! Gate layout in the fused `4H` dimension: `[i | f | g | o]` with
//! `i,f,o` sigmoid and `g` tanh:
//!
//! ```text
//! z_t = x_t·Wx + h_{t-1}·Wh + b
//! c_t = f ⊙ c_{t-1} + i ⊙ g
//! h_t = o ⊙ tanh(c_t)
//! ```

use crate::param::Param;
use minitensor::{Mat, TensorRng};

#[inline]
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Cached per-timestep state for BPTT.
struct StepCache {
    x: Mat,
    h_prev: Mat,
    c_prev: Mat,
    i: Mat,
    f: Mat,
    g: Mat,
    o: Mat,
    c: Mat,
    tanh_c: Mat,
}

/// Single-layer LSTM + mean-pool + dense softmax head.
pub struct LstmClassifier {
    pub in_dim: usize,
    pub hidden: usize,
    pub classes: usize,
    /// Input weights `in_dim × 4H`.
    pub wx: Param,
    /// Recurrent weights `H × 4H`.
    pub wh: Param,
    /// Gate bias `1 × 4H` (forget-gate slice initialized to 1.0, the
    /// standard trick for gradient flow on long sequences).
    pub b: Param,
    /// Head weights `H × classes` and bias.
    pub w_head: Param,
    pub b_head: Param,
    cache: Vec<StepCache>,
    cache_hmean: Option<Mat>,
    cache_t: usize,
}

impl LstmClassifier {
    pub fn new(in_dim: usize, hidden: usize, classes: usize, rng: &mut TensorRng) -> Self {
        let mut b = Mat::zeros(1, 4 * hidden);
        for j in hidden..2 * hidden {
            b.set(0, j, 1.0); // forget gate bias
        }
        LstmClassifier {
            in_dim,
            hidden,
            classes,
            wx: Param::new(Mat::xavier_init(in_dim, 4 * hidden, rng)),
            wh: Param::new(Mat::xavier_init(hidden, 4 * hidden, rng)),
            b: Param::new(b),
            w_head: Param::new(Mat::xavier_init(hidden, classes, rng)),
            b_head: Param::new(Mat::zeros(1, classes)),
            cache: Vec::new(),
            cache_hmean: None,
            cache_t: 0,
        }
    }

    /// Total scalar parameter count.
    pub fn num_params(&self) -> usize {
        self.wx.len() + self.wh.len() + self.b.len() + self.w_head.len() + self.b_head.len()
    }

    /// Forward over a bucketed sequence batch `xs` (T entries of
    /// `batch × in_dim`), producing class logits `batch × classes`.
    pub fn forward_seq(&mut self, xs: &[Mat], train: bool) -> Mat {
        assert!(!xs.is_empty(), "empty sequence");
        let batch = xs[0].rows();
        let h_dim = self.hidden;
        let mut h = Mat::zeros(batch, h_dim);
        let mut c = Mat::zeros(batch, h_dim);
        let mut h_sum = Mat::zeros(batch, h_dim);
        self.cache.clear();
        self.cache_t = xs.len();

        for x in xs {
            assert_eq!(x.rows(), batch, "bucketed batches share a row count");
            assert_eq!(x.cols(), self.in_dim);
            let mut z = x.matmul(&self.wx.value);
            z.add_assign(&h.matmul(&self.wh.value));
            z.add_row_broadcast(&self.b.value);

            let mut i_g = Mat::zeros(batch, h_dim);
            let mut f_g = Mat::zeros(batch, h_dim);
            let mut g_g = Mat::zeros(batch, h_dim);
            let mut o_g = Mat::zeros(batch, h_dim);
            for r in 0..batch {
                let zrow = z.row(r);
                for j in 0..h_dim {
                    i_g.set(r, j, sigmoid(zrow[j]));
                    f_g.set(r, j, sigmoid(zrow[h_dim + j]));
                    g_g.set(r, j, zrow[2 * h_dim + j].tanh());
                    o_g.set(r, j, sigmoid(zrow[3 * h_dim + j]));
                }
            }
            let c_prev = c.clone();
            let mut c_new = f_g.hadamard(&c_prev);
            c_new.add_assign(&i_g.hadamard(&g_g));
            let tanh_c = c_new.map(|v| v.tanh());
            let h_new = o_g.hadamard(&tanh_c);
            h_sum.add_assign(&h_new);

            if train {
                self.cache.push(StepCache {
                    x: x.clone(),
                    h_prev: h,
                    c_prev,
                    i: i_g,
                    f: f_g,
                    g: g_g,
                    o: o_g,
                    c: c_new.clone(),
                    tanh_c,
                });
            }
            h = h_new;
            c = c_new;
        }

        let mut h_mean = h_sum;
        h_mean.scale(1.0 / xs.len() as f32);
        let mut logits = h_mean.matmul(&self.w_head.value);
        logits.add_row_broadcast(&self.b_head.value);
        if train {
            self.cache_hmean = Some(h_mean);
        }
        logits
    }

    /// BPTT from the logit gradient; accumulates into all params.
    pub fn backward_seq(&mut self, dlogits: &Mat) {
        let h_mean = self.cache_hmean.take().expect("backward without forward");
        let t_len = self.cache_t;
        let batch = dlogits.rows();
        let h_dim = self.hidden;

        // Head gradients.
        self.w_head.grad.add_matmul_tn(&h_mean, dlogits);
        self.b_head.grad.add_assign(&dlogits.sum_rows());
        let mut dh_pool = dlogits.matmul_nt(&self.w_head.value);
        dh_pool.scale(1.0 / t_len as f32); // mean-pool fan-out

        let mut dh_next = Mat::zeros(batch, h_dim);
        let mut dc_next = Mat::zeros(batch, h_dim);

        for step in self.cache.drain(..).rev() {
            // dL/dh_t = pooled share + recurrent flow-back.
            let mut dh = dh_pool.clone();
            dh.add_assign(&dh_next);

            // h = o ⊙ tanh(c)
            let d_o = dh.hadamard(&step.tanh_c);
            let mut dc = dh.hadamard(&step.o);
            dc.zip_inplace(&step.tanh_c, |d, tc| d * (1.0 - tc * tc));
            dc.add_assign(&dc_next);

            // c = f ⊙ c_prev + i ⊙ g
            let d_i = dc.hadamard(&step.g);
            let d_f = dc.hadamard(&step.c_prev);
            let d_g = dc.hadamard(&step.i);
            dc_next = dc.hadamard(&step.f);

            // Pre-activation gradients, fused into dz (batch × 4H).
            let mut dz = Mat::zeros(batch, 4 * h_dim);
            for r in 0..batch {
                for j in 0..h_dim {
                    let i = step.i.get(r, j);
                    let f = step.f.get(r, j);
                    let g = step.g.get(r, j);
                    let o = step.o.get(r, j);
                    dz.set(r, j, d_i.get(r, j) * i * (1.0 - i));
                    dz.set(r, h_dim + j, d_f.get(r, j) * f * (1.0 - f));
                    dz.set(r, 2 * h_dim + j, d_g.get(r, j) * (1.0 - g * g));
                    dz.set(r, 3 * h_dim + j, d_o.get(r, j) * o * (1.0 - o));
                }
            }

            self.wx.grad.add_matmul_tn(&step.x, &dz);
            self.wh.grad.add_matmul_tn(&step.h_prev, &dz);
            self.b.grad.add_assign(&dz.sum_rows());
            dh_next = dz.matmul_nt(&self.wh.value);
            let _ = step.c; // cell state itself not needed further
        }
    }

    /// Visit parameters mutably in deterministic order.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.wx);
        f(&mut self.wh);
        f(&mut self.b);
        f(&mut self.w_head);
        f(&mut self.b_head);
    }

    /// Visit parameters immutably (same order).
    pub fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.wx);
        f(&self.wh);
        f(&self.b);
        f(&self.w_head);
        f(&self.b_head);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::softmax_xent;

    fn tiny_lstm() -> (LstmClassifier, Vec<Mat>, Vec<usize>) {
        let mut rng = TensorRng::new(9);
        let lstm = LstmClassifier::new(3, 4, 2, &mut rng);
        let xs: Vec<Mat> = (0..5).map(|_| Mat::randn(2, 3, 1.0, &mut rng)).collect();
        (lstm, xs, vec![0, 1])
    }

    #[test]
    fn forward_shapes() {
        let (mut lstm, xs, _) = tiny_lstm();
        let logits = lstm.forward_seq(&xs, false);
        assert_eq!(logits.shape(), (2, 2));
    }

    #[test]
    fn param_count_formula() {
        let mut rng = TensorRng::new(0);
        let l = LstmClassifier::new(8, 16, 5, &mut rng);
        let want = 8 * 64 + 16 * 64 + 64 + 16 * 5 + 5;
        assert_eq!(l.num_params(), want);
    }

    #[test]
    fn longer_sequences_cost_more_compute() {
        // The Θ(T) cost claim behind §2.1's inherent imbalance: wall time
        // for T=200 must clearly exceed T=20. (Coarse but robust ratio.)
        let mut rng = TensorRng::new(4);
        let mut lstm = LstmClassifier::new(16, 32, 4, &mut rng);
        let short: Vec<Mat> = (0..20).map(|_| Mat::randn(4, 16, 1.0, &mut rng)).collect();
        let long: Vec<Mat> = (0..200).map(|_| Mat::randn(4, 16, 1.0, &mut rng)).collect();
        // Warm up.
        let _ = lstm.forward_seq(&short, false);
        // Three passes, timed five times: the minimum is the one no
        // preemption landed in, so host load cannot shrink the ratio.
        let mut three_passes = |xs: &[Mat]| {
            let time = |_| {
                let t0 = std::time::Instant::now();
                for _ in 0..3 {
                    let _ = lstm.forward_seq(xs, false);
                }
                t0.elapsed()
            };
            (0..5).map(time).min().expect("five timings")
        };
        let t_short = three_passes(&short);
        let t_long = three_passes(&long);
        assert!(
            t_long > t_short * 3,
            "10x longer sequence should cost ≫ (got {t_short:?} vs {t_long:?})"
        );
    }

    /// Full numerical gradient check through the LSTM + xent loss.
    #[test]
    fn bptt_gradient_check() {
        let (mut lstm, xs, labels) = tiny_lstm();

        // Analytic.
        lstm.visit_params(&mut |p| p.zero_grad());
        let logits = lstm.forward_seq(&xs, true);
        let (_, dlogits) = softmax_xent(&logits, &labels);
        lstm.backward_seq(&dlogits);
        let mut analytic = Vec::new();
        lstm.visit_params_ref(&mut |p| analytic.extend_from_slice(p.grad.as_slice()));

        // Numerical, sampled every 7th parameter to keep runtime sane.
        let eps = 1e-2f32;
        let nparams = lstm.num_params();
        for idx in (0..nparams).step_by(7) {
            let perturb = |lstm: &mut LstmClassifier, delta: f32| {
                let mut k = 0;
                lstm.visit_params(&mut |p| {
                    let n = p.len();
                    if idx >= k && idx < k + n {
                        let local = idx - k;
                        let old = p.value.as_slice()[local];
                        p.value.as_mut_slice()[local] = old + delta;
                    }
                    k += n;
                });
            };
            perturb(&mut lstm, eps);
            let (lu, _) = softmax_xent(&lstm.forward_seq(&xs, false), &labels);
            perturb(&mut lstm, -2.0 * eps);
            let (ld, _) = softmax_xent(&lstm.forward_seq(&xs, false), &labels);
            perturb(&mut lstm, eps);
            let numeric = (lu - ld) / (2.0 * eps);
            let a = analytic[idx];
            assert!(
                (a - numeric).abs() < 5e-2 * (1.0 + a.abs().max(numeric.abs())),
                "param {idx}: analytic {a} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn lstm_can_learn_a_separable_task() {
        // Class 0: sequences with positive mean; class 1: negative.
        let mut rng = TensorRng::new(77);
        let mut lstm = LstmClassifier::new(4, 8, 2, &mut rng);
        let make_batch = |rng: &mut TensorRng| {
            let labels: Vec<usize> = (0..8).map(|_| rng.index(2)).collect();
            let xs: Vec<Mat> = (0..6)
                .map(|_| {
                    Mat::from_fn(8, 4, |r, _| {
                        let sign = if labels[r] == 0 { 1.0 } else { -1.0 };
                        sign + rng.normal() as f32 * 0.3
                    })
                })
                .collect();
            (xs, labels)
        };
        let lr = 0.15f32;
        let mut last_loss = f32::INFINITY;
        for step in 0..60 {
            let (xs, labels) = make_batch(&mut rng);
            lstm.visit_params(&mut |p| p.zero_grad());
            let logits = lstm.forward_seq(&xs, true);
            let (loss, dlogits) = softmax_xent(&logits, &labels);
            lstm.backward_seq(&dlogits);
            lstm.visit_params(&mut |p| {
                let g = p.grad.clone();
                p.value.add_scaled(&g, -lr);
            });
            if step == 0 {
                last_loss = loss;
            }
        }
        let (xs, labels) = make_batch(&mut rng);
        let logits = lstm.forward_seq(&xs, false);
        let (final_loss, _) = softmax_xent(&logits, &labels);
        assert!(
            final_loss < last_loss * 0.5,
            "LSTM failed to learn: {last_loss} → {final_loss}"
        );
        let acc = crate::loss::topk_accuracy(&logits, &labels, 1);
        assert!(acc >= 0.75, "accuracy {acc}");
    }
}
