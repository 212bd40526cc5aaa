//! Feed-forward layers with manual backprop.
//!
//! Each layer caches what its backward pass needs during `forward(…,
//! train=true)`; gradients *accumulate* into `Param::grad` (callers zero
//! them per step), written there directly by `Mat::add_matmul_tn`, never
//! through a temporary. `visit_params` / `visit_params_ref` walk
//! parameters in a deterministic order, which is what makes flat
//! gradient/parameter buffers consistent across ranks.

use crate::param::Param;
use minitensor::{Mat, TensorRng};

/// A differentiable layer.
pub trait Layer: Send {
    /// Forward pass. With `train == true`, cache activations for backward.
    fn forward(&mut self, x: &Mat, train: bool) -> Mat;

    /// Backward pass: receives dL/d(output), accumulates parameter
    /// gradients, returns dL/d(input).
    fn backward(&mut self, grad: Mat) -> Mat;

    /// [`Layer::backward`] for a layer whose input is the batch itself, so
    /// nobody reads dL/d(input): a layer with parameters overrides this to
    /// skip that product. [`Sequential`] calls it on its first layer.
    fn backward_params(&mut self, grad: Mat) {
        self.backward(grad);
    }

    /// Visit parameters mutably (deterministic order).
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Visit parameters immutably (same order).
    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param));
}

/// Fully connected layer: `y = x·W + b`.
pub struct Dense {
    pub w: Param,
    pub b: Param,
    /// The last training input, refilled in place every step; `cached`
    /// says whether a backward pass may still consume it.
    cache_x: Mat,
    cached: bool,
}

impl Dense {
    /// He-initialized dense layer.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut TensorRng) -> Self {
        Self::with_weights(Mat::he_init(in_dim, out_dim, in_dim, rng))
    }

    /// Xavier-initialized dense layer (for tanh/sigmoid stacks).
    pub fn new_xavier(in_dim: usize, out_dim: usize, rng: &mut TensorRng) -> Self {
        Self::with_weights(Mat::xavier_init(in_dim, out_dim, rng))
    }

    fn with_weights(w: Mat) -> Self {
        Dense {
            b: Param::new(Mat::zeros(1, w.cols())),
            w: Param::new(w),
            cache_x: Mat::zeros(0, 0),
            cached: false,
        }
    }
}

impl Layer for Dense {
    fn forward(&mut self, x: &Mat, train: bool) -> Mat {
        let mut y = x.matmul(&self.w.value);
        y.add_row_broadcast(&self.b.value);
        if train {
            self.cache_x.copy_from(x);
            self.cached = true;
        }
        y
    }

    fn backward(&mut self, grad: Mat) -> Mat {
        let dx = grad.matmul_nt(&self.w.value);
        self.backward_params(grad);
        dx
    }

    fn backward_params(&mut self, grad: Mat) {
        assert!(std::mem::take(&mut self.cached), "backward without forward");
        self.w.grad.add_matmul_tn(&self.cache_x, &grad);
        self.b.grad.add_assign(&grad.sum_rows());
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w);
        f(&mut self.b);
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.w);
        f(&self.b);
    }
}

/// Rectified linear unit.
#[derive(Default)]
pub struct Relu {
    mask: Option<Mat>,
}

impl Relu {
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, x: &Mat, train: bool) -> Mat {
        let y = x.map(|v| v.max(0.0));
        if train {
            self.mask = Some(x.map(|v| if v > 0.0 { 1.0 } else { 0.0 }));
        }
        y
    }

    fn backward(&mut self, grad: Mat) -> Mat {
        let mask = self.mask.take().expect("backward without forward");
        grad.hadamard(&mask)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
    fn visit_params_ref(&self, _f: &mut dyn FnMut(&Param)) {}
}

/// Hyperbolic tangent.
#[derive(Default)]
pub struct Tanh {
    cache_y: Option<Mat>,
}

impl Tanh {
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Tanh {
    fn forward(&mut self, x: &Mat, train: bool) -> Mat {
        let y = x.map(|v| v.tanh());
        if train {
            self.cache_y = Some(y.clone());
        }
        y
    }

    fn backward(&mut self, grad: Mat) -> Mat {
        let y = self.cache_y.take().expect("backward without forward");
        let mut g = grad;
        g.zip_inplace(&y, |g, y| g * (1.0 - y * y));
        g
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
    fn visit_params_ref(&self, _f: &mut dyn FnMut(&Param)) {}
}

/// Logistic sigmoid.
#[derive(Default)]
pub struct Sigmoid {
    cache_y: Option<Mat>,
}

impl Sigmoid {
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Sigmoid {
    fn forward(&mut self, x: &Mat, train: bool) -> Mat {
        let y = x.map(|v| 1.0 / (1.0 + (-v).exp()));
        if train {
            self.cache_y = Some(y.clone());
        }
        y
    }

    fn backward(&mut self, grad: Mat) -> Mat {
        let y = self.cache_y.take().expect("backward without forward");
        let mut g = grad;
        g.zip_inplace(&y, |g, y| g * y * (1.0 - y));
        g
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
    fn visit_params_ref(&self, _f: &mut dyn FnMut(&Param)) {}
}

/// Layer sequence.
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    pub fn push_boxed(mut self, layer: Box<dyn Layer>) -> Self {
        self.layers.push(layer);
        self
    }

    pub fn len(&self) -> usize {
        self.layers.len()
    }

    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, x: &Mat, train: bool) -> Mat {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return x.clone();
        };
        let y = first.forward(x, train);
        rest.iter_mut().fold(y, |y, l| l.forward(&y, train))
    }

    fn backward(&mut self, grad: Mat) -> Mat {
        self.layers
            .iter_mut()
            .rev()
            .fold(grad, |g, l| l.backward(g))
    }

    fn backward_params(&mut self, grad: Mat) {
        if let Some((first, rest)) = self.layers.split_first_mut() {
            let g = rest.iter_mut().rev().fold(grad, |g, l| l.backward(g));
            first.backward_params(g);
        }
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for l in &mut self.layers {
            l.visit_params(f);
        }
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
        for l in &self.layers {
            l.visit_params_ref(f);
        }
    }
}

/// Residual block: `y = x + f(x)` (the skip connection that gives the
/// ResNet proxies of the evaluation their depth; input/output dims of
/// `f` must match).
pub struct Residual {
    inner: Sequential,
}

impl Residual {
    pub fn new(inner: Sequential) -> Self {
        Residual { inner }
    }
}

impl Layer for Residual {
    fn forward(&mut self, x: &Mat, train: bool) -> Mat {
        let mut y = self.inner.forward(x, train);
        y.add_assign(x);
        y
    }

    fn backward(&mut self, grad: Mat) -> Mat {
        let mut dx = self.inner.backward(grad.clone());
        dx.add_assign(&grad);
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.inner.visit_params(f);
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
        self.inner.visit_params_ref(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_params(l: &dyn Layer) -> usize {
        let mut n = 0;
        l.visit_params_ref(&mut |p| n += p.len());
        n
    }

    #[test]
    fn dense_shapes_and_param_count() {
        let mut rng = TensorRng::new(0);
        let mut d = Dense::new(4, 3, &mut rng);
        let y = d.forward(&Mat::zeros(5, 4), false);
        assert_eq!(y.shape(), (5, 3));
        assert_eq!(count_params(&d), 4 * 3 + 3);
    }

    #[test]
    fn relu_masks_negative_gradient() {
        let mut r = Relu::new();
        let x = Mat::from_vec(1, 4, vec![-1.0, 2.0, -3.0, 4.0]);
        let y = r.forward(&x, true);
        assert_eq!(y.as_slice(), &[0.0, 2.0, 0.0, 4.0]);
        let g = r.backward(Mat::from_vec(1, 4, vec![1.0; 4]));
        assert_eq!(g.as_slice(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn residual_identity_at_zero_weights() {
        // With zero inner weights the block is the identity and the
        // gradient passes through unchanged (plus the inner path's zero).
        let mut rng = TensorRng::new(1);
        let mut inner = Dense::new(3, 3, &mut rng);
        inner.w.value.clear();
        let mut res = Residual::new(Sequential::new().push(inner));
        let x = Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let y = res.forward(&x, true);
        assert_eq!(y, x);
        let g = res.backward(Mat::full(2, 3, 1.0));
        assert_eq!(g, Mat::full(2, 3, 1.0));
    }

    /// Numerical gradient check for a small Dense→Tanh→Dense stack.
    #[test]
    fn gradient_check_dense_stack() {
        let mut rng = TensorRng::new(5);
        let mut net = Sequential::new()
            .push(Dense::new(3, 4, &mut rng))
            .push(Tanh::new())
            .push(Dense::new(4, 2, &mut rng));
        let x = Mat::randn(2, 3, 1.0, &mut rng);

        // Loss = sum of outputs (so dL/dy = 1).
        let loss = |net: &mut Sequential, x: &Mat| net.forward(x, false).sum();

        // Analytic gradients.
        net.visit_params(&mut |p| p.zero_grad());
        let y = net.forward(&x, true);
        let ones = Mat::full(y.rows(), y.cols(), 1.0);
        net.backward(ones);
        let mut analytic = Vec::new();
        net.visit_params_ref(&mut |p| analytic.extend_from_slice(p.grad.as_slice()));

        // Numerical gradients via central differences.
        let eps = 1e-3f32;
        let mut numeric = Vec::new();
        let mut idx = 0;
        // Walk each parameter scalar.
        loop {
            let mut touched = false;
            let mut k = 0;
            net.visit_params(&mut |p| {
                let n = p.len();
                if idx >= k && idx < k + n {
                    let local = idx - k;
                    let old = p.value.as_slice()[local];
                    p.value.as_mut_slice()[local] = old + eps;
                    touched = true;
                }
                k += n;
            });
            if !touched {
                break;
            }
            let up = loss(&mut net, &x);
            let mut k = 0;
            net.visit_params(&mut |p| {
                let n = p.len();
                if idx >= k && idx < k + n {
                    let local = idx - k;
                    let old = p.value.as_slice()[local];
                    p.value.as_mut_slice()[local] = old - 2.0 * eps;
                }
                k += n;
            });
            let down = loss(&mut net, &x);
            let mut k = 0;
            net.visit_params(&mut |p| {
                let n = p.len();
                if idx >= k && idx < k + n {
                    let local = idx - k;
                    let old = p.value.as_slice()[local];
                    p.value.as_mut_slice()[local] = old + eps;
                }
                k += n;
            });
            numeric.push((up - down) / (2.0 * eps));
            idx += 1;
        }

        assert_eq!(analytic.len(), numeric.len());
        for (i, (a, n)) in analytic.iter().zip(&numeric).enumerate() {
            assert!(
                (a - n).abs() < 2e-2 * (1.0 + a.abs()),
                "param {i}: analytic {a} vs numeric {n}"
            );
        }
    }
}
