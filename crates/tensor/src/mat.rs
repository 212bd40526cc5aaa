//! Row-major 2-D matrix with the operations backprop needs.

use crate::rng::TensorRng;

/// Dense row-major `rows × cols` f32 matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// Inner product over eight independent partial sums (lane `l` takes
/// elements `l, l + 8, …`; the lanes are added in order, then the tail of
/// fewer than eight), so the additions vectorise instead of forming one
/// dependency chain. No term is skipped: a NaN or Inf in either operand
/// reaches the result.
fn dot(a: &[f32], b: &[f32]) -> f32 {
    const LANES: usize = 8;
    let (a8, b8) = (a.chunks_exact(LANES), b.chunks_exact(LANES));
    let tail = a8.remainder().iter().zip(b8.remainder());
    let mut lanes = [0.0f32; LANES];
    for (x, y) in a8.zip(b8) {
        for ((lane, x), y) in lanes.iter_mut().zip(x).zip(y) {
            *lane += x * y;
        }
    }
    lanes.iter().sum::<f32>() + tail.map(|(x, y)| x * y).sum::<f32>()
}

impl Mat {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix filled with `v`.
    pub fn full(rows: usize, cols: usize, v: f32) -> Self {
        Mat {
            rows,
            cols,
            data: vec![v; rows * cols],
        }
    }

    /// Build from a closure over (row, col).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Mat { rows, cols, data }
    }

    /// Wrap an existing row-major buffer.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        Mat { rows, cols, data }
    }

    /// i.i.d. normal entries with the given std (mean 0).
    pub fn randn(rows: usize, cols: usize, std: f32, rng: &mut TensorRng) -> Self {
        let data = (0..rows * cols)
            .map(|_| (rng.normal() as f32) * std)
            .collect();
        Mat { rows, cols, data }
    }

    /// He/Kaiming initialization for a layer with `fan_in` inputs.
    pub fn he_init(rows: usize, cols: usize, fan_in: usize, rng: &mut TensorRng) -> Self {
        Self::randn(rows, cols, (2.0 / fan_in as f32).sqrt(), rng)
    }

    /// Xavier/Glorot initialization.
    pub fn xavier_init(rows: usize, cols: usize, rng: &mut TensorRng) -> Self {
        let std = (2.0 / (rows + cols) as f32).sqrt();
        Self::randn(rows, cols, std, rng)
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Borrow row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// `C = A · B`. A column-vector `B` (an `n → 1` layer) runs as one
    /// lane-summed `dot` per row of `A`; any other shape streams rows of
    /// `B` against the accumulator row of `C` (i-k-j) and skips a row of `B`
    /// whose `a_ik` is exactly zero — post-ReLU activations are half zeros —
    /// so on that path `0 × Inf` contributes 0, not NaN.
    pub fn matmul(&self, b: &Mat) -> Mat {
        assert_eq!(self.cols, b.rows, "matmul inner dims");
        let mut c = Mat::zeros(self.rows, b.cols);
        if b.cols == 1 {
            for (i, cv) in c.data.iter_mut().enumerate() {
                *cv = dot(self.row(i), &b.data);
            }
            return c;
        }
        for i in 0..self.rows {
            let crow = &mut c.data[i * b.cols..(i + 1) * b.cols];
            for k in 0..self.cols {
                let a_ik = self.data[i * self.cols + k];
                if a_ik == 0.0 {
                    continue;
                }
                let brow = &b.data[k * b.cols..(k + 1) * b.cols];
                for (cv, bv) in crow.iter_mut().zip(brow) {
                    *cv += a_ik * bv;
                }
            }
        }
        c
    }

    /// `self += Aᵀ · B` without materializing the transpose or the product
    /// (dW in backprop, accumulated straight into the gradient). Each entry
    /// sums over the shared row index in ascending order, so onto a zeroed
    /// `self` this is the product itself. A column-vector `B` is one axpy
    /// per shared row; any other shape finishes one row of `self` at a time
    /// and, like [`Mat::matmul`], skips terms whose `a_ki` is exactly zero.
    pub fn add_matmul_tn(&mut self, a: &Mat, b: &Mat) {
        assert_eq!(a.rows, b.rows, "add_matmul_tn outer dims");
        assert_eq!(self.shape(), (a.cols, b.cols), "add_matmul_tn output");
        if b.cols == 1 {
            for (k, &b_k) in b.data.iter().enumerate() {
                for (cv, av) in self.data.iter_mut().zip(a.row(k)) {
                    *cv += av * b_k;
                }
            }
            return;
        }
        for i in 0..a.cols {
            let crow = &mut self.data[i * b.cols..(i + 1) * b.cols];
            for k in 0..a.rows {
                let a_ki = a.data[k * a.cols + i];
                if a_ki == 0.0 {
                    continue;
                }
                for (cv, bv) in crow.iter_mut().zip(b.row(k)) {
                    *cv += a_ki * bv;
                }
            }
        }
    }

    /// `C = A · Bᵀ` without materializing the transpose (dX in backprop):
    /// one lane-summed `dot` per entry.
    pub fn matmul_nt(&self, b: &Mat) -> Mat {
        assert_eq!(self.cols, b.cols, "matmul_nt inner dims");
        let mut c = Mat::zeros(self.rows, b.rows);
        for i in 0..self.rows {
            for j in 0..b.rows {
                c.data[i * b.rows + j] = dot(self.row(i), b.row(j));
            }
        }
        c
    }

    /// Materialized transpose.
    pub fn t(&self) -> Mat {
        let mut t = Mat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        t
    }

    /// `self += other`.
    pub fn add_assign(&mut self, other: &Mat) {
        assert_eq!(self.shape(), other.shape());
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self -= other`.
    pub fn sub_assign(&mut self, other: &Mat) {
        assert_eq!(self.shape(), other.shape());
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a -= b;
        }
    }

    /// `self += alpha * other` (axpy).
    pub fn add_scaled(&mut self, other: &Mat, alpha: f32) {
        assert_eq!(self.shape(), other.shape());
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// `self *= alpha`.
    pub fn scale(&mut self, alpha: f32) {
        for a in self.data.iter_mut() {
            *a *= alpha;
        }
    }

    /// Add a row vector (1 × cols) to every row (bias broadcast).
    pub fn add_row_broadcast(&mut self, bias: &Mat) {
        assert_eq!(bias.rows, 1);
        assert_eq!(bias.cols, self.cols);
        for i in 0..self.rows {
            let row = &mut self.data[i * self.cols..(i + 1) * self.cols];
            for (r, b) in row.iter_mut().zip(&bias.data) {
                *r += b;
            }
        }
    }

    /// Column-sum into a 1 × cols row vector (bias gradient).
    pub fn sum_rows(&self) -> Mat {
        let mut out = Mat::zeros(1, self.cols);
        for i in 0..self.rows {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            for (o, r) in out.data.iter_mut().zip(row) {
                *o += r;
            }
        }
        out
    }

    /// Elementwise map into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Mat {
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Elementwise `self[i] = f(self[i], other[i])`.
    pub fn zip_inplace(&mut self, other: &Mat, f: impl Fn(f32, f32) -> f32) {
        assert_eq!(self.shape(), other.shape());
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a = f(*a, *b);
        }
    }

    /// Elementwise product into a new matrix (Hadamard).
    pub fn hadamard(&self, other: &Mat) -> Mat {
        assert_eq!(self.shape(), other.shape());
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a * b)
                .collect(),
        }
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Per-row indices of the top-k entries, descending (NaN-tolerant).
    pub fn topk_rows(&self, k: usize) -> Vec<Vec<usize>> {
        (0..self.rows)
            .map(|i| {
                let row = self.row(i);
                let mut idx: Vec<usize> = (0..row.len()).collect();
                idx.sort_by(|&a, &b| row[b].total_cmp(&row[a]));
                idx.truncate(k);
                idx
            })
            .collect()
    }

    /// Become a copy of `src`, reusing this matrix's allocation when it is
    /// large enough (an activation cache refilled every step).
    pub fn copy_from(&mut self, src: &Mat) {
        (self.rows, self.cols) = src.shape();
        self.data.clone_from(&src.data);
    }

    /// Fill with zeros, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The oracle: `c0[i][j] + Σ_k term(i, j, k)` by a naive triple loop,
    /// `k` ascending, no term skipped — the order every kernel had before
    /// [`dot`] — next to `Σ_k |term|`, the scale a reordered sum's rounding
    /// error is relative to.
    fn naive(c0: &Mat, inner: usize, term: impl Fn(usize, usize, usize) -> f32) -> (Mat, Mat) {
        let mut scale = Mat::zeros(c0.rows(), c0.cols());
        let sum = Mat::from_fn(c0.rows(), c0.cols(), |i, j| {
            let (mut s, mut m) = (c0.get(i, j), 0.0);
            for k in 0..inner {
                s += term(i, j, k);
                m += term(i, j, k).abs();
            }
            scale.set(i, j, m);
            s
        });
        (sum, scale)
    }

    /// `exact`: bit-for-bit the oracle. Otherwise within 1e-5 of it,
    /// relative to the summed magnitudes.
    fn assert_matches(got: &Mat, (want, scale): &(Mat, Mat), exact: bool, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}");
        for ((g, w), m) in got
            .as_slice()
            .iter()
            .zip(want.as_slice())
            .zip(scale.as_slice())
        {
            let ok = if exact {
                g.to_bits() == w.to_bits()
            } else {
                (g - w).abs() <= 1e-5 * m
            };
            assert!(ok, "{what}: got {g}, oracle {w} (exact: {exact})");
        }
    }

    #[test]
    fn product_kernels_match_the_naive_oracle_on_every_shape() {
        const DIMS: [usize; 7] = [1, 2, 7, 8, 9, 17, 64];
        let mut rng = TensorRng::new(11);
        for (rows, inner, cols) in DIMS.iter().flat_map(|&r| {
            DIMS.iter()
                .flat_map(move |&n| DIMS.iter().map(move |&c| (r, n, c)))
        }) {
            let what = format!("{rows}x{inner}x{cols}");
            // Lanes reorder a sum only once a dot product has eight terms.
            let short = inner < 8;

            let a = Mat::randn(rows, inner, 1.0, &mut rng);
            let b = Mat::randn(inner, cols, 1.0, &mut rng);
            let zero = Mat::zeros(rows, cols);
            let want = naive(&zero, inner, |i, j, k| a.get(i, k) * b.get(k, j));
            assert_matches(
                &a.matmul(&b),
                &want,
                cols != 1 || short,
                &format!("matmul {what}"),
            );

            let bt = b.t();
            assert_matches(
                &a.matmul_nt(&bt),
                &want,
                short,
                &format!("matmul_nt {what}"),
            );

            // dW: `inner` is the shared (batch) index; always the oracle's
            // order, onto zeros and onto an existing gradient alike.
            let x = Mat::randn(inner, rows, 1.0, &mut rng);
            let g = Mat::randn(inner, cols, 1.0, &mut rng);
            for c0 in [zero, Mat::randn(rows, cols, 1.0, &mut rng)] {
                let want = naive(&c0, inner, |i, j, k| x.get(k, i) * g.get(k, j));
                let mut c = c0.clone();
                c.add_matmul_tn(&x, &g);
                assert_matches(&c, &want, true, &format!("add_matmul_tn {what}"));
                // … and `C + AᵀB` up to where the product is rounded.
                let mut sum = x.t().matmul(&g);
                sum.add_assign(&c0);
                assert_matches(&sum, &(c, want.1), false, &format!("C + AtB {what}"));
            }
        }
    }

    /// What a non-finite operand does, pinned per path: the benchmark's
    /// `finite` check relies on diverged weights surfacing.
    #[test]
    fn non_finite_operands_surface_except_behind_an_exact_zero_on_the_2d_paths() {
        let zero_one = Mat::from_vec(1, 2, vec![0.0, 1.0]);
        let inf_one = Mat::from_vec(2, 1, vec![f32::INFINITY, 1.0]);
        // Vector-shaped paths skip nothing: 0 × Inf = NaN, either way round.
        assert!(zero_one.matmul(&inf_one).get(0, 0).is_nan());
        assert!(inf_one.t().matmul(&zero_one.t()).get(0, 0).is_nan());
        assert!(zero_one.matmul_nt(&inf_one.t()).get(0, 0).is_nan());
        assert!(inf_one.t().matmul_nt(&zero_one).get(0, 0).is_nan());
        for (a, b) in [(&zero_one.t(), &inf_one), (&inf_one, &zero_one.t())] {
            let mut c = Mat::zeros(1, 1);
            c.add_matmul_tn(a, b);
            assert!(c.get(0, 0).is_nan());
        }

        // 2-D paths: an exactly-zero left entry skips its row of the right
        // operand, so 0 × Inf contributes nothing …
        let wide_inf = Mat::from_vec(2, 2, vec![f32::INFINITY, f32::NAN, 1.0, 1.0]);
        assert_eq!(zero_one.matmul(&wide_inf).as_slice(), &[1.0, 1.0]);
        let mut c = Mat::zeros(1, 2);
        c.add_matmul_tn(&zero_one.t(), &wide_inf);
        assert_eq!(c.as_slice(), &[1.0, 1.0]);
        // … while a non-finite left entry, or one behind a non-zero left
        // entry, reaches every output it touches.
        let nan_one = Mat::from_vec(1, 2, vec![f32::NAN, 1.0]);
        let ones = Mat::full(2, 2, 1.0);
        assert!(nan_one.matmul(&ones).as_slice().iter().all(|v| v.is_nan()));
        assert!(Mat::full(1, 2, 1.0)
            .matmul(&wide_inf)
            .as_slice()
            .iter()
            .all(|v| !v.is_finite()));
        let mut c = Mat::zeros(1, 2);
        c.add_matmul_tn(&nan_one.t(), &ones);
        assert!(c.as_slice().iter().all(|v| v.is_nan()));
    }

    #[test]
    fn bias_broadcast_and_sum_rows_are_adjoint() {
        // sum_rows is the gradient of add_row_broadcast: shapes line up and
        // a constant bias added n-row times sums n times.
        let mut x = Mat::zeros(4, 3);
        let bias = Mat::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        x.add_row_broadcast(&bias);
        let g = x.sum_rows();
        assert_eq!(g.as_slice(), &[4.0, 8.0, 12.0]);
    }

    #[test]
    fn topk_rows_are_descending() {
        let m = Mat::from_vec(2, 4, vec![0.1, 0.9, 0.5, 0.2, 9.0, -1.0, 3.0, 8.0]);
        assert_eq!(m.topk_rows(2), vec![vec![1, 2], vec![0, 3]]);
    }

    #[test]
    #[should_panic(expected = "matmul inner dims")]
    fn mismatched_matmul_panics() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        fn arb_mat(rows: usize, cols: usize) -> impl Strategy<Value = Mat> {
            proptest::collection::vec(-10.0f32..10.0, rows * cols)
                .prop_map(move |v| Mat::from_vec(rows, cols, v))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(50))]

            /// (A·B)ᵀ == Bᵀ·Aᵀ
            #[test]
            fn transpose_of_product(
                a in arb_mat(4, 3),
                b in arb_mat(3, 5),
            ) {
                let lhs = a.matmul(&b).t();
                let rhs = b.t().matmul(&a.t());
                for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
                    prop_assert!((x - y).abs() < 1e-3);
                }
            }

            /// Matmul distributes over addition: A·(B+C) == A·B + A·C
            #[test]
            fn distributivity(
                a in arb_mat(3, 4),
                b in arb_mat(4, 2),
                c in arb_mat(4, 2),
            ) {
                let mut bc = b.clone();
                bc.add_assign(&c);
                let lhs = a.matmul(&bc);
                let mut rhs = a.matmul(&b);
                rhs.add_assign(&a.matmul(&c));
                for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
                    prop_assert!((x - y).abs() < 1e-2);
                }
            }

            /// Double transpose is identity.
            #[test]
            fn double_transpose(a in arb_mat(5, 7)) {
                prop_assert_eq!(a.t().t(), a);
            }
        }
    }
}
