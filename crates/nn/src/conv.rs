//! 2-D convolution and max-pooling layers (im2col + matmul), so the
//! ResNet proxies can optionally run with real convolutions on image
//! tensors rather than dense layers on feature vectors.
//!
//! Tensor layout: a batch of images is a [`Mat`] with one image per row,
//! flattened as `C × H × W` (channel-major). The layer carries its
//! spatial metadata; shapes are validated at forward time.

use crate::layers::Layer;
use crate::param::Param;
use minitensor::{Mat, TensorRng};

/// Spatial shape of an activation map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImgShape {
    pub channels: usize,
    pub height: usize,
    pub width: usize,
}

impl ImgShape {
    pub fn numel(&self) -> usize {
        self.channels * self.height * self.width
    }
}

/// 3×3-style 2-D convolution with stride 1 and symmetric zero padding.
pub struct Conv2d {
    pub in_shape: ImgShape,
    pub out_channels: usize,
    pub ksize: usize,
    pub pad: usize,
    /// Kernel as a matrix: `(C_in·k·k) × C_out`.
    pub w: Param,
    pub b: Param,
    /// Cached im2col patches for backward: one Mat per batch row.
    cache_cols: Vec<Mat>,
}

impl Conv2d {
    pub fn new(
        in_shape: ImgShape,
        out_channels: usize,
        ksize: usize,
        pad: usize,
        rng: &mut TensorRng,
    ) -> Self {
        let fan_in = in_shape.channels * ksize * ksize;
        Conv2d {
            in_shape,
            out_channels,
            ksize,
            pad,
            w: Param::new(Mat::he_init(fan_in, out_channels, fan_in, rng)),
            b: Param::new(Mat::zeros(1, out_channels)),
            cache_cols: Vec::new(),
        }
    }

    /// Output spatial shape (stride 1).
    pub fn out_shape(&self) -> ImgShape {
        ImgShape {
            channels: self.out_channels,
            height: self.in_shape.height + 2 * self.pad - self.ksize + 1,
            width: self.in_shape.width + 2 * self.pad - self.ksize + 1,
        }
    }

    /// im2col for one image (row of the batch): returns `(H_out·W_out) ×
    /// (C_in·k·k)` patches.
    fn im2col(&self, img: &[f32]) -> Mat {
        let ImgShape {
            channels,
            height,
            width,
        } = self.in_shape;
        let out = self.out_shape();
        let k = self.ksize;
        let pad = self.pad as isize;
        let mut cols = Mat::zeros(out.height * out.width, channels * k * k);
        for oy in 0..out.height {
            for ox in 0..out.width {
                let row = oy * out.width + ox;
                let dst = cols.row_mut(row);
                for c in 0..channels {
                    for ky in 0..k {
                        let iy = oy as isize + ky as isize - pad;
                        for kx in 0..k {
                            let ix = ox as isize + kx as isize - pad;
                            let v = if iy >= 0
                                && iy < height as isize
                                && ix >= 0
                                && ix < width as isize
                            {
                                img[(c * height + iy as usize) * width + ix as usize]
                            } else {
                                0.0
                            };
                            dst[(c * k + ky) * k + kx] = v;
                        }
                    }
                }
            }
        }
        cols
    }

    /// Scatter-add col gradients back to image layout (col2im).
    fn col2im(&self, dcols: &Mat) -> Vec<f32> {
        let ImgShape {
            channels,
            height,
            width,
        } = self.in_shape;
        let out = self.out_shape();
        let k = self.ksize;
        let pad = self.pad as isize;
        let mut dimg = vec![0.0f32; self.in_shape.numel()];
        for oy in 0..out.height {
            for ox in 0..out.width {
                let row = oy * out.width + ox;
                let src = dcols.row(row);
                for c in 0..channels {
                    for ky in 0..k {
                        let iy = oy as isize + ky as isize - pad;
                        if iy < 0 || iy >= height as isize {
                            continue;
                        }
                        for kx in 0..k {
                            let ix = ox as isize + kx as isize - pad;
                            if ix < 0 || ix >= width as isize {
                                continue;
                            }
                            dimg[(c * height + iy as usize) * width + ix as usize] +=
                                src[(c * k + ky) * k + kx];
                        }
                    }
                }
            }
        }
        dimg
    }

    /// Accumulate dW and db from dL/d(output); with `dx`, also write
    /// dL/d(input) into it (skipped when nobody reads it).
    fn backprop(&mut self, grad: &Mat, mut dx: Option<&mut Mat>) {
        let out = self.out_shape();
        let batch = grad.rows();
        assert_eq!(grad.cols(), out.numel());
        assert_eq!(self.cache_cols.len(), batch, "backward without forward");
        for i in 0..batch {
            // Back to (H_out*W_out) × C_out spatial-major layout.
            let grow = grad.row(i);
            let mut dprod = Mat::zeros(out.height * out.width, out.channels);
            for c in 0..out.channels {
                for s in 0..out.height * out.width {
                    dprod.set(s, c, grow[c * out.height * out.width + s]);
                }
            }
            self.w.grad.add_matmul_tn(&self.cache_cols[i], &dprod);
            self.b.grad.add_assign(&dprod.sum_rows());
            if let Some(dx) = dx.as_deref_mut() {
                let dcols = dprod.matmul_nt(&self.w.value);
                dx.row_mut(i).copy_from_slice(&self.col2im(&dcols));
            }
        }
        self.cache_cols.clear();
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Mat, train: bool) -> Mat {
        assert_eq!(
            x.cols(),
            self.in_shape.numel(),
            "Conv2d input row length must be C*H*W"
        );
        let out = self.out_shape();
        let batch = x.rows();
        let mut y = Mat::zeros(batch, out.numel());
        if train {
            self.cache_cols.clear();
        }
        for i in 0..batch {
            let cols = self.im2col(x.row(i));
            // (H_out*W_out) × C_out
            let mut prod = cols.matmul(&self.w.value);
            prod.add_row_broadcast(&self.b.value);
            // Transpose to channel-major C_out × (H_out*W_out) layout.
            let yrow = y.row_mut(i);
            for c in 0..out.channels {
                for s in 0..out.height * out.width {
                    yrow[c * out.height * out.width + s] = prod.get(s, c);
                }
            }
            if train {
                self.cache_cols.push(cols);
            }
        }
        y
    }

    fn backward(&mut self, grad: Mat) -> Mat {
        let mut dx = Mat::zeros(grad.rows(), self.in_shape.numel());
        self.backprop(&grad, Some(&mut dx));
        dx
    }

    fn backward_params(&mut self, grad: Mat) {
        self.backprop(&grad, None);
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

/// Non-overlapping 2×2-style max pooling.
pub struct MaxPool2d {
    pub in_shape: ImgShape,
    pub pool: usize,
    /// Argmax index per output element per batch row.
    cache_argmax: Vec<Vec<usize>>,
}

impl MaxPool2d {
    pub fn new(in_shape: ImgShape, pool: usize) -> Self {
        assert_eq!(in_shape.height % pool, 0, "height must divide pool size");
        assert_eq!(in_shape.width % pool, 0, "width must divide pool size");
        MaxPool2d {
            in_shape,
            pool,
            cache_argmax: Vec::new(),
        }
    }

    pub fn out_shape(&self) -> ImgShape {
        ImgShape {
            channels: self.in_shape.channels,
            height: self.in_shape.height / self.pool,
            width: self.in_shape.width / self.pool,
        }
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, x: &Mat, train: bool) -> Mat {
        assert_eq!(x.cols(), self.in_shape.numel());
        let ImgShape {
            channels,
            height,
            width,
        } = self.in_shape;
        let out = self.out_shape();
        let batch = x.rows();
        let mut y = Mat::zeros(batch, out.numel());
        if train {
            self.cache_argmax.clear();
        }
        for i in 0..batch {
            let xrow = x.row(i);
            let mut argmax = vec![0usize; out.numel()];
            let yrow = y.row_mut(i);
            for c in 0..channels {
                for oy in 0..out.height {
                    for ox in 0..out.width {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0;
                        for py in 0..self.pool {
                            for px in 0..self.pool {
                                let iy = oy * self.pool + py;
                                let ix = ox * self.pool + px;
                                let idx = (c * height + iy) * width + ix;
                                if xrow[idx] > best {
                                    best = xrow[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        let oidx = (c * out.height + oy) * out.width + ox;
                        yrow[oidx] = best;
                        argmax[oidx] = best_idx;
                    }
                }
            }
            if train {
                self.cache_argmax.push(argmax);
            }
        }
        y
    }

    fn backward(&mut self, grad: Mat) -> Mat {
        let batch = grad.rows();
        assert_eq!(self.cache_argmax.len(), batch, "backward without forward");
        let mut dx = Mat::zeros(batch, self.in_shape.numel());
        for i in 0..batch {
            let grow = grad.row(i);
            let argmax = &self.cache_argmax[i];
            let drow = dx.row_mut(i);
            for (o, &src) in argmax.iter().enumerate() {
                drow[src] += grow[o];
            }
        }
        self.cache_argmax.clear();
        dx
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
    fn visit_params_ref(&self, _f: &mut dyn FnMut(&Param)) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Sequential;

    fn shape(c: usize, h: usize, w: usize) -> ImgShape {
        ImgShape {
            channels: c,
            height: h,
            width: w,
        }
    }

    #[test]
    fn conv_identity_kernel_reproduces_input() {
        // A 1×1 conv with identity weights is a passthrough.
        let mut rng = TensorRng::new(1);
        let mut conv = Conv2d::new(shape(1, 4, 4), 1, 1, 0, &mut rng);
        conv.w.value = Mat::from_vec(1, 1, vec![1.0]);
        let x = Mat::from_fn(2, 16, |i, j| (i * 16 + j) as f32);
        let y = conv.forward(&x, false);
        assert_eq!(y, x);
    }

    #[test]
    fn conv_output_shape_with_padding() {
        let mut rng = TensorRng::new(2);
        let conv = Conv2d::new(shape(3, 8, 8), 5, 3, 1, &mut rng);
        let out = conv.out_shape();
        assert_eq!((out.channels, out.height, out.width), (5, 8, 8));
        let conv = Conv2d::new(shape(3, 8, 8), 5, 3, 0, &mut rng);
        let out = conv.out_shape();
        assert_eq!((out.channels, out.height, out.width), (5, 6, 6));
    }

    #[test]
    fn conv_known_3x3_sum_kernel() {
        // All-ones 3×3 kernel with padding computes neighborhood sums.
        let mut rng = TensorRng::new(3);
        let mut conv = Conv2d::new(shape(1, 3, 3), 1, 3, 1, &mut rng);
        conv.w.value = Mat::full(9, 1, 1.0);
        let x = Mat::from_vec(1, 9, vec![1.0; 9]);
        let y = conv.forward(&x, false);
        // Corner sees 4 ones, edge 6, center 9.
        assert_eq!(y.as_slice(), &[4.0, 6.0, 4.0, 6.0, 9.0, 6.0, 4.0, 6.0, 4.0]);
    }

    #[test]
    fn maxpool_picks_maxima_and_routes_gradient() {
        let mut pool = MaxPool2d::new(shape(1, 4, 4), 2);
        #[rustfmt::skip]
        let x = Mat::from_vec(1, 16, vec![
            1.0, 2.0,   3.0, 4.0,
            5.0, 6.0,   7.0, 8.0,

            9.0, 10.0,  11.0, 12.0,
            13.0, 14.0, 15.0, 16.0,
        ]);
        let y = pool.forward(&x, true);
        assert_eq!(y.as_slice(), &[6.0, 8.0, 14.0, 16.0]);
        let g = pool.backward(Mat::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]));
        let mut want = [0.0; 16];
        want[5] = 1.0;
        want[7] = 2.0;
        want[13] = 3.0;
        want[15] = 4.0;
        assert_eq!(g.as_slice(), &want[..]);
    }

    #[test]
    fn conv_gradient_check() {
        let mut rng = TensorRng::new(5);
        let mut net = Sequential::new().push(Conv2d::new(shape(2, 4, 4), 3, 3, 1, &mut rng));
        let x = Mat::randn(2, 32, 1.0, &mut rng);
        let loss = |net: &mut Sequential, x: &Mat| net.forward(x, false).sum();

        net.visit_params(&mut |p| p.zero_grad());
        let y = net.forward(&x, true);
        let ones = Mat::full(y.rows(), y.cols(), 1.0);
        net.backward(ones);
        let mut analytic = Vec::new();
        net.visit_params_ref(&mut |p| analytic.extend_from_slice(p.grad.as_slice()));

        let eps = 1e-2f32;
        let nparams = analytic.len();
        for idx in (0..nparams).step_by(5) {
            let perturb = |net: &mut Sequential, delta: f32| {
                let mut k = 0;
                net.visit_params(&mut |p| {
                    let n = p.len();
                    if idx >= k && idx < k + n {
                        let local = idx - k;
                        let old = p.value.as_slice()[local];
                        p.value.as_mut_slice()[local] = old + delta;
                    }
                    k += n;
                });
            };
            perturb(&mut net, eps);
            let up = loss(&mut net, &x);
            perturb(&mut net, -2.0 * eps);
            let down = loss(&mut net, &x);
            perturb(&mut net, eps);
            let numeric = (up - down) / (2.0 * eps);
            let a = analytic[idx];
            assert!(
                (a - numeric).abs() < 3e-2 * (1.0 + a.abs()),
                "param {idx}: analytic {a} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn conv_input_gradient_check() {
        // dL/dx via col2im vs numerical.
        let mut rng = TensorRng::new(6);
        let mut conv = Conv2d::new(shape(1, 3, 3), 2, 3, 1, &mut rng);
        let x = Mat::randn(1, 9, 1.0, &mut rng);

        conv.visit_params(&mut |p| p.zero_grad());
        let y = conv.forward(&x, true);
        let ones = Mat::full(y.rows(), y.cols(), 1.0);
        let dx = conv.backward(ones);

        let eps = 1e-2f32;
        for j in 0..9 {
            let mut up = x.clone();
            up.set(0, j, x.get(0, j) + eps);
            let mut dn = x.clone();
            dn.set(0, j, x.get(0, j) - eps);
            let lu = conv.forward(&up, false).sum();
            let ld = conv.forward(&dn, false).sum();
            let numeric = (lu - ld) / (2.0 * eps);
            assert!(
                (dx.get(0, j) - numeric).abs() < 2e-2 * (1.0 + numeric.abs()),
                "input {j}: {} vs {numeric}",
                dx.get(0, j)
            );
        }
    }

    #[test]
    fn small_cnn_learns_a_spatial_task() {
        // Classify whether the bright blob is in the top or bottom half —
        // a task dense-on-pixels finds hard but a conv learns quickly.
        use crate::layers::{Dense, Relu};
        use crate::loss::softmax_xent;
        let mut rng = TensorRng::new(8);
        let in_shape = shape(1, 8, 8);
        let conv = Conv2d::new(in_shape, 4, 3, 1, &mut rng);
        let pool = MaxPool2d::new(shape(4, 8, 8), 2);
        let mut net = Sequential::new()
            .push(conv)
            .push(Relu::new())
            .push(pool)
            .push(Dense::new(4 * 4 * 4, 2, &mut rng));

        let make_batch = |rng: &mut TensorRng| {
            let labels: Vec<usize> = (0..16).map(|_| rng.index(2)).collect();
            let x = Mat::from_fn(16, 64, |i, j| {
                let (y, x_) = (j / 8, j % 8);
                let blob_y = if labels[i] == 0 { 2 } else { 6 };
                let blob_x = 4;
                let d2 = (y as f32 - blob_y as f32).powi(2) + (x_ as f32 - blob_x as f32).powi(2);
                (-d2 / 4.0).exp() * 3.0 + rng.normal() as f32 * 0.3
            });
            (x, labels)
        };
        for _ in 0..80 {
            let (x, labels) = make_batch(&mut rng);
            net.visit_params(&mut |p| p.zero_grad());
            let logits = net.forward(&x, true);
            let (_, dlogits) = softmax_xent(&logits, &labels);
            net.backward(dlogits);
            net.visit_params(&mut |p| {
                let g = p.grad.clone();
                p.value.add_scaled(&g, -0.05);
            });
        }
        let (x, labels) = make_batch(&mut rng);
        let logits = net.forward(&x, false);
        let acc = crate::loss::topk_accuracy(&logits, &labels, 1);
        assert!(acc >= 0.8, "CNN should learn blob position, got {acc}");
    }
}
