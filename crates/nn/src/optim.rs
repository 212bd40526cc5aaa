//! Flat-vector optimizers: the update rule `U` of Algorithm 1/2.
//!
//! Optimizers operate on flat gradient buffers and produce flat deltas —
//! the natural representation between the fused allreduce and
//! [`crate::Model::apply_delta`]. Every rank runs an identical optimizer
//! over the identical averaged gradient, so local views of the weights
//! stay consistent as long as the gradient results agree (eager-SGD
//! deliberately relaxes that; see §5).

/// The update rule `U(G, t) → Δw`.
pub trait Optimizer: Send {
    /// Compute the parameter delta for this step's (averaged) gradient.
    fn delta(&mut self, grads: &[f32], out: &mut [f32]);

    /// Current learning rate.
    fn lr(&self) -> f32;

    /// Adjust the learning rate (schedules are applied by the trainer).
    fn set_lr(&mut self, lr: f32);
}

/// Plain SGD: `Δw = -lr · G`.
#[derive(Debug, Clone)]
pub struct Sgd {
    pub lr: f32,
}

impl Sgd {
    pub fn new(lr: f32) -> Self {
        Sgd { lr }
    }
}

impl Optimizer for Sgd {
    fn delta(&mut self, grads: &[f32], out: &mut [f32]) {
        assert_eq!(grads.len(), out.len());
        for (o, g) in out.iter_mut().zip(grads) {
            *o = -self.lr * g;
        }
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Heavy-ball momentum: `v = μ·v - lr·G; Δw = v`.
#[derive(Debug, Clone)]
pub struct Momentum {
    pub lr: f32,
    pub mu: f32,
    velocity: Vec<f32>,
}

impl Momentum {
    pub fn new(lr: f32, mu: f32, nparams: usize) -> Self {
        Momentum {
            lr,
            mu,
            velocity: vec![0.0; nparams],
        }
    }
}

impl Optimizer for Momentum {
    fn delta(&mut self, grads: &[f32], out: &mut [f32]) {
        assert_eq!(grads.len(), self.velocity.len());
        assert_eq!(grads.len(), out.len());
        for ((v, g), o) in self.velocity.iter_mut().zip(grads).zip(out.iter_mut()) {
            *v = self.mu * *v - self.lr * g;
            *o = *v;
        }
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Piecewise-constant learning-rate schedule (epoch → multiplier), the
/// standard ResNet decay staircase.
#[derive(Debug, Clone)]
pub struct LrSchedule {
    pub base_lr: f32,
    /// Sorted (epoch, multiplier) boundaries; the last one whose epoch is
    /// ≤ the current epoch applies.
    pub milestones: Vec<(usize, f32)>,
}

impl LrSchedule {
    pub fn constant(lr: f32) -> Self {
        LrSchedule {
            base_lr: lr,
            milestones: Vec::new(),
        }
    }

    /// Classic staircase: multiply by `gamma` at each epoch boundary.
    pub fn staircase(base_lr: f32, boundaries: &[usize], gamma: f32) -> Self {
        let milestones = boundaries
            .iter()
            .enumerate()
            .map(|(i, &e)| (e, gamma.powi(i as i32 + 1)))
            .collect();
        LrSchedule {
            base_lr,
            milestones,
        }
    }

    /// Learning rate at `epoch`.
    pub fn at(&self, epoch: usize) -> f32 {
        let mut mult = 1.0;
        for &(e, m) in &self.milestones {
            if epoch >= e {
                mult = m;
            }
        }
        self.base_lr * mult
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgd_delta_is_negative_lr_grad() {
        let mut opt = Sgd::new(0.5);
        let mut out = vec![0.0; 3];
        opt.delta(&[1.0, -2.0, 0.0], &mut out);
        assert_eq!(out, vec![-0.5, 1.0, 0.0]);
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let mut opt = Momentum::new(1.0, 0.5, 1);
        let mut out = vec![0.0];
        opt.delta(&[1.0], &mut out);
        assert_eq!(out, vec![-1.0]);
        opt.delta(&[1.0], &mut out);
        assert_eq!(out, vec![-1.5]); // 0.5*(-1) - 1
        opt.delta(&[0.0], &mut out);
        assert_eq!(out, vec![-0.75]); // decays without gradient
    }

    #[test]
    fn staircase_schedule() {
        let s = LrSchedule::staircase(0.1, &[30, 60], 0.1);
        assert_eq!(s.at(0), 0.1);
        assert_eq!(s.at(29), 0.1);
        assert!((s.at(30) - 0.01).abs() < 1e-9);
        assert!((s.at(75) - 0.001).abs() < 1e-9);
    }

    #[test]
    fn sgd_minimizes_quadratic() {
        // w ← w - lr·∇(w²/2) converges to 0.
        let mut opt = Sgd::new(0.1);
        let mut w = [10.0f32];
        let mut out = vec![0.0];
        for _ in 0..200 {
            let g = [w[0]];
            opt.delta(&g, &mut out);
            w[0] += out[0];
        }
        assert!(w[0].abs() < 1e-6);
    }
}
