//! Trainable parameter: a value matrix paired with its gradient.

use minitensor::Mat;

/// A weight (or bias) and its accumulated gradient.
#[derive(Debug, Clone)]
pub struct Param {
    pub value: Mat,
    pub grad: Mat,
}

impl Param {
    pub fn new(value: Mat) -> Self {
        let grad = Mat::zeros(value.rows(), value.cols());
        Param { value, grad }
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }

    /// Reset the gradient to zero (keeps allocation).
    pub fn zero_grad(&mut self) {
        self.grad.clear();
    }
}
