//! Typed message buffers and elementwise reduction kernels.
//!
//! The collective engine is dtype-generic in the way MPI is: a buffer is a
//! vector of one of the basic types, and reductions ([`ReduceOp`]) combine
//! two buffers of identical dtype and length elementwise. The `f32` path is
//! the hot one (gradients); the loops below are written so the compiler can
//! auto-vectorize them (no bounds checks in the hot loop thanks to
//! `zip`-style iteration).

use serde::{Deserialize, Serialize};

/// Element type of a [`TypedBuf`], mirroring the MPI basic types the paper's
/// schedule operations are defined over (a practical subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DType {
    /// 32-bit IEEE float (the gradient hot path).
    F32,
    /// 64-bit IEEE float.
    F64,
    /// 32-bit signed integer.
    I32,
    /// 64-bit signed integer.
    I64,
}

impl DType {
    /// Size of one element in bytes.
    #[inline]
    pub fn size_of(self) -> usize {
        match self {
            DType::F32 | DType::I32 => 4,
            DType::F64 | DType::I64 => 8,
        }
    }
}

/// Reduction operator for [`TypedBuf::combine`]; the same set MPI predefines
/// for arithmetic reductions (the subset used by the paper's collectives).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReduceOp {
    /// Elementwise addition.
    Sum,
    /// Elementwise product.
    Prod,
    /// Elementwise minimum.
    Min,
    /// Elementwise maximum.
    Max,
}

/// Errors arising from buffer operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BufError {
    /// Two buffers that must agree in dtype do not.
    DTypeMismatch {
        /// The dtype the operation required.
        expected: DType,
        /// The dtype it was given.
        got: DType,
    },
    /// Two buffers that must agree in length do not.
    LenMismatch {
        /// The length the operation required.
        expected: usize,
        /// The length it was given.
        got: usize,
    },
}

impl std::fmt::Display for BufError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BufError::DTypeMismatch { expected, got } => {
                write!(f, "dtype mismatch: expected {expected:?}, got {got:?}")
            }
            BufError::LenMismatch { expected, got } => {
                write!(f, "length mismatch: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for BufError {}

/// A dense, typed, owned message buffer.
///
/// `TypedBuf` is the unit of data every schedule operation manipulates: send
/// payloads, receive slots, and reduction operands. Moving a `TypedBuf` is
/// cheap (a `Vec` move), which is what makes "receive straight into the
/// instance arena" zero-copy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TypedBuf {
    /// `f32` elements.
    F32(Vec<f32>),
    /// `f64` elements.
    F64(Vec<f64>),
    /// `i32` elements.
    I32(Vec<i32>),
    /// `i64` elements.
    I64(Vec<i64>),
}

macro_rules! elementwise {
    ($dst:expr, $src:expr, $op:expr) => {{
        debug_assert_eq!($dst.len(), $src.len());
        match $op {
            ReduceOp::Sum => {
                for (d, s) in $dst.iter_mut().zip($src.iter()) {
                    *d += *s;
                }
            }
            ReduceOp::Prod => {
                for (d, s) in $dst.iter_mut().zip($src.iter()) {
                    *d *= *s;
                }
            }
            ReduceOp::Min => {
                for (d, s) in $dst.iter_mut().zip($src.iter()) {
                    if *s < *d {
                        *d = *s;
                    }
                }
            }
            ReduceOp::Max => {
                for (d, s) in $dst.iter_mut().zip($src.iter()) {
                    if *s > *d {
                        *d = *s;
                    }
                }
            }
        }
    }};
}

/// Fused `out[i] = a[i] ⊕ b[i]` with the exact operand order of
/// [`elementwise!`] (`a` plays the accumulator role), so a fused pass is
/// bit-identical to materialize-then-fold even for `Min`/`Max` over NaNs.
macro_rules! fused_elementwise {
    ($out:expr, $a:expr, $b:expr, $op:expr) => {{
        match $op {
            ReduceOp::Sum => {
                for (o, (x, y)) in $out.iter_mut().zip($a.iter().zip($b.iter())) {
                    *o = *x + *y;
                }
            }
            ReduceOp::Prod => {
                for (o, (x, y)) in $out.iter_mut().zip($a.iter().zip($b.iter())) {
                    *o = *x * *y;
                }
            }
            ReduceOp::Min => {
                for (o, (x, y)) in $out.iter_mut().zip($a.iter().zip($b.iter())) {
                    *o = if *y < *x { *y } else { *x };
                }
            }
            ReduceOp::Max => {
                for (o, (x, y)) in $out.iter_mut().zip($a.iter().zip($b.iter())) {
                    *o = if *y > *x { *y } else { *x };
                }
            }
        }
    }};
}

impl TypedBuf {
    /// An all-zeros buffer of the given dtype and length — the "null
    /// gradient" (G_null) absent ranks contribute in a partial collective.
    pub fn zeros(dtype: DType, len: usize) -> Self {
        match dtype {
            DType::F32 => TypedBuf::F32(vec![0.0; len]),
            DType::F64 => TypedBuf::F64(vec![0.0; len]),
            DType::I32 => TypedBuf::I32(vec![0; len]),
            DType::I64 => TypedBuf::I64(vec![0; len]),
        }
    }

    /// A zero buffer with the same shape as `self`.
    pub fn zeros_like(&self) -> Self {
        Self::zeros(self.dtype(), self.len())
    }

    /// The buffer's element type.
    #[inline]
    pub fn dtype(&self) -> DType {
        match self {
            TypedBuf::F32(_) => DType::F32,
            TypedBuf::F64(_) => DType::F64,
            TypedBuf::I32(_) => DType::I32,
            TypedBuf::I64(_) => DType::I64,
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            TypedBuf::F32(v) => v.len(),
            TypedBuf::F64(v) => v.len(),
            TypedBuf::I32(v) => v.len(),
            TypedBuf::I64(v) => v.len(),
        }
    }

    /// True if the buffer holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Payload size in bytes (what the network model charges for).
    #[inline]
    pub fn byte_len(&self) -> usize {
        self.len() * self.dtype().size_of()
    }

    /// Elementwise `self = self ⊕ other` under `op`.
    ///
    /// This is the `Compute` operation of the schedule DAG (§4.1.1: "simple
    /// computations defined between two arrays of data items").
    pub fn combine(&mut self, other: &TypedBuf, op: ReduceOp) -> Result<(), BufError> {
        if self.dtype() != other.dtype() {
            return Err(BufError::DTypeMismatch {
                expected: self.dtype(),
                got: other.dtype(),
            });
        }
        if self.len() != other.len() {
            return Err(BufError::LenMismatch {
                expected: self.len(),
                got: other.len(),
            });
        }
        match (self, other) {
            (TypedBuf::F32(d), TypedBuf::F32(s)) => elementwise!(d, s, op),
            (TypedBuf::F64(d), TypedBuf::F64(s)) => elementwise!(d, s, op),
            (TypedBuf::I32(d), TypedBuf::I32(s)) => elementwise!(d, s, op),
            (TypedBuf::I64(d), TypedBuf::I64(s)) => elementwise!(d, s, op),
            _ => unreachable!("dtype equality checked above"),
        }
        Ok(())
    }

    /// Multiply every element by `factor` (used for the `1/P` averaging in
    /// Algorithm 2 line 6). Integer buffers round toward zero.
    pub fn scale(&mut self, factor: f64) {
        match self {
            TypedBuf::F32(v) => {
                let f = factor as f32;
                for x in v.iter_mut() {
                    *x *= f;
                }
            }
            TypedBuf::F64(v) => {
                for x in v.iter_mut() {
                    *x *= factor;
                }
            }
            TypedBuf::I32(v) => {
                for x in v.iter_mut() {
                    *x = (*x as f64 * factor) as i32;
                }
            }
            TypedBuf::I64(v) => {
                for x in v.iter_mut() {
                    *x = (*x as f64 * factor) as i64;
                }
            }
        }
    }

    /// Set every element to zero, keeping the allocation (send-buffer reset
    /// to G_null after a contribution is consumed, Fig. 7).
    pub fn clear(&mut self) {
        match self {
            TypedBuf::F32(v) => v.iter_mut().for_each(|x| *x = 0.0),
            TypedBuf::F64(v) => v.iter_mut().for_each(|x| *x = 0.0),
            TypedBuf::I32(v) => v.iter_mut().for_each(|x| *x = 0),
            TypedBuf::I64(v) => v.iter_mut().for_each(|x| *x = 0),
        }
    }

    /// View as `&[f32]`, if that is the dtype.
    pub fn as_f32(&self) -> Option<&[f32]> {
        match self {
            TypedBuf::F32(v) => Some(v),
            _ => None,
        }
    }

    /// Mutable view as `&mut [f32]`, if that is the dtype.
    pub fn as_f32_mut(&mut self) -> Option<&mut [f32]> {
        match self {
            TypedBuf::F32(v) => Some(v),
            _ => None,
        }
    }

    /// View as `&[f64]`, if that is the dtype.
    pub fn as_f64(&self) -> Option<&[f64]> {
        match self {
            TypedBuf::F64(v) => Some(v),
            _ => None,
        }
    }

    /// View as `&[i32]`, if that is the dtype.
    pub fn as_i32(&self) -> Option<&[i32]> {
        match self {
            TypedBuf::I32(v) => Some(v),
            _ => None,
        }
    }

    /// View as `&[i64]`, if that is the dtype.
    pub fn as_i64(&self) -> Option<&[i64]> {
        match self {
            TypedBuf::I64(v) => Some(v),
            _ => None,
        }
    }

    /// True if every element is exactly zero (a null contribution).
    pub fn is_null(&self) -> bool {
        match self {
            TypedBuf::F32(v) => v.iter().all(|x| *x == 0.0),
            TypedBuf::F64(v) => v.iter().all(|x| *x == 0.0),
            TypedBuf::I32(v) => v.iter().all(|x| *x == 0),
            TypedBuf::I64(v) => v.iter().all(|x| *x == 0),
        }
    }

    /// Elementwise `self = self ⊕ decode(bytes)` directly over a borrowed
    /// little-endian byte slice — the reduce-from-wire path the receive
    /// side uses to fold an incoming frame into an accumulator without
    /// first materializing a second `TypedBuf`. `bytes` must be the wire
    /// representation ([`TypedBuf::extend_le_bytes`]) of a buffer with
    /// this dtype and length. This is the primitive behind
    /// `Payload::reduce_assign` on wire-borne payloads (the engine's
    /// `Combine` over a TCP-received chunk) and `Matcher::recv_combine`.
    pub fn combine_le_bytes(&mut self, bytes: &[u8], op: ReduceOp) -> Result<(), BufError> {
        let len = self.len();
        self.combine_le_bytes_at(0, len, bytes, op)
    }

    /// Range form of [`TypedBuf::combine_le_bytes`]: fold the wire bytes
    /// into `self[dst_start .. dst_start + len]`.
    pub fn combine_le_bytes_at(
        &mut self,
        dst_start: usize,
        len: usize,
        bytes: &[u8],
        op: ReduceOp,
    ) -> Result<(), BufError> {
        let esz = self.dtype().size_of();
        if bytes.len() != len * esz {
            return Err(BufError::LenMismatch {
                expected: len,
                got: bytes.len() / esz,
            });
        }
        if dst_start + len > self.len() {
            return Err(BufError::LenMismatch {
                expected: self.len(),
                got: dst_start + len,
            });
        }
        macro_rules! fold_chunks {
            ($dst:expr, $ty:ty, $n:literal) => {{
                let dst = &mut $dst[dst_start..dst_start + len];
                let src = bytes
                    .chunks_exact($n)
                    .map(|c| <$ty>::from_le_bytes(c.try_into().expect("exact chunk")));
                match op {
                    ReduceOp::Sum => dst.iter_mut().zip(src).for_each(|(d, s)| *d += s),
                    ReduceOp::Prod => dst.iter_mut().zip(src).for_each(|(d, s)| *d *= s),
                    ReduceOp::Min => dst.iter_mut().zip(src).for_each(|(d, s)| {
                        if s < *d {
                            *d = s;
                        }
                    }),
                    ReduceOp::Max => dst.iter_mut().zip(src).for_each(|(d, s)| {
                        if s > *d {
                            *d = s;
                        }
                    }),
                }
            }};
        }
        match self {
            TypedBuf::F32(d) => fold_chunks!(d, f32, 4),
            TypedBuf::F64(d) => fold_chunks!(d, f64, 8),
            TypedBuf::I32(d) => fold_chunks!(d, i32, 4),
            TypedBuf::I64(d) => fold_chunks!(d, i64, 8),
        }
        Ok(())
    }

    /// Elementwise `self ⊕= src[src_start .. src_start + self.len()]` —
    /// the range-aware combine a sub-range payload view reduces through.
    pub fn combine_offset(
        &mut self,
        src: &TypedBuf,
        src_start: usize,
        op: ReduceOp,
    ) -> Result<(), BufError> {
        if self.dtype() != src.dtype() {
            return Err(BufError::DTypeMismatch {
                expected: self.dtype(),
                got: src.dtype(),
            });
        }
        let len = self.len();
        if src_start + len > src.len() {
            return Err(BufError::LenMismatch {
                expected: src.len(),
                got: src_start + len,
            });
        }
        match (self, src) {
            (TypedBuf::F32(d), TypedBuf::F32(s)) => {
                elementwise!(d, s[src_start..src_start + len], op)
            }
            (TypedBuf::F64(d), TypedBuf::F64(s)) => {
                elementwise!(d, s[src_start..src_start + len], op)
            }
            (TypedBuf::I32(d), TypedBuf::I32(s)) => {
                elementwise!(d, s[src_start..src_start + len], op)
            }
            (TypedBuf::I64(d), TypedBuf::I64(s)) => {
                elementwise!(d, s[src_start..src_start + len], op)
            }
            _ => unreachable!("dtype equality checked above"),
        }
        Ok(())
    }

    /// Fused single-pass `self[i] = a[a_start + i] ⊕ b[b_start + i]` over
    /// all of `self`, fully overwriting any previous contents (so a dirty
    /// recycled buffer is a valid destination). This is the one-pass
    /// combine `Payload::reduce_assign` uses when the destination is
    /// shared: instead of materializing a private copy of `a` and then
    /// folding `b` into it (two passes, one allocation touched twice), the
    /// fold happens while writing the output. Operand order matches
    /// [`TypedBuf::combine`] (`a` is the accumulator side), so results are
    /// bit-identical to the two-pass fold.
    pub fn fill_combine(
        &mut self,
        a: &TypedBuf,
        a_start: usize,
        b: &TypedBuf,
        b_start: usize,
        op: ReduceOp,
    ) -> Result<(), BufError> {
        if self.dtype() != a.dtype() {
            return Err(BufError::DTypeMismatch {
                expected: self.dtype(),
                got: a.dtype(),
            });
        }
        if self.dtype() != b.dtype() {
            return Err(BufError::DTypeMismatch {
                expected: self.dtype(),
                got: b.dtype(),
            });
        }
        let len = self.len();
        if a_start + len > a.len() {
            return Err(BufError::LenMismatch {
                expected: a.len(),
                got: a_start + len,
            });
        }
        if b_start + len > b.len() {
            return Err(BufError::LenMismatch {
                expected: b.len(),
                got: b_start + len,
            });
        }
        match (self, a, b) {
            (TypedBuf::F32(o), TypedBuf::F32(x), TypedBuf::F32(y)) => {
                fused_elementwise!(o, x[a_start..a_start + len], y[b_start..b_start + len], op)
            }
            (TypedBuf::F64(o), TypedBuf::F64(x), TypedBuf::F64(y)) => {
                fused_elementwise!(o, x[a_start..a_start + len], y[b_start..b_start + len], op)
            }
            (TypedBuf::I32(o), TypedBuf::I32(x), TypedBuf::I32(y)) => {
                fused_elementwise!(o, x[a_start..a_start + len], y[b_start..b_start + len], op)
            }
            (TypedBuf::I64(o), TypedBuf::I64(x), TypedBuf::I64(y)) => {
                fused_elementwise!(o, x[a_start..a_start + len], y[b_start..b_start + len], op)
            }
            _ => unreachable!("dtype equality checked above"),
        }
        Ok(())
    }

    /// Wire-source form of [`TypedBuf::fill_combine`]: single-pass
    /// `self[i] = a[a_start + i] ⊕ decode(bytes)[i]`, decoding the
    /// little-endian frame while folding — no intermediate buffer, same
    /// semantics as [`TypedBuf::combine_le_bytes_at`] (the decoded side is
    /// the incoming operand).
    pub fn fill_combine_le_bytes(
        &mut self,
        a: &TypedBuf,
        a_start: usize,
        bytes: &[u8],
        op: ReduceOp,
    ) -> Result<(), BufError> {
        if self.dtype() != a.dtype() {
            return Err(BufError::DTypeMismatch {
                expected: self.dtype(),
                got: a.dtype(),
            });
        }
        let len = self.len();
        let esz = self.dtype().size_of();
        if bytes.len() != len * esz {
            return Err(BufError::LenMismatch {
                expected: len,
                got: bytes.len() / esz,
            });
        }
        if a_start + len > a.len() {
            return Err(BufError::LenMismatch {
                expected: a.len(),
                got: a_start + len,
            });
        }
        macro_rules! fused_chunks {
            ($out:expr, $a:expr, $ty:ty, $n:literal) => {{
                let acc = &$a[a_start..a_start + len];
                let src = bytes
                    .chunks_exact($n)
                    .map(|c| <$ty>::from_le_bytes(c.try_into().expect("exact chunk")));
                match op {
                    ReduceOp::Sum => $out
                        .iter_mut()
                        .zip(acc.iter().zip(src))
                        .for_each(|(o, (x, y))| *o = *x + y),
                    ReduceOp::Prod => $out
                        .iter_mut()
                        .zip(acc.iter().zip(src))
                        .for_each(|(o, (x, y))| *o = *x * y),
                    ReduceOp::Min => $out
                        .iter_mut()
                        .zip(acc.iter().zip(src))
                        .for_each(|(o, (x, y))| *o = if y < *x { y } else { *x }),
                    ReduceOp::Max => $out
                        .iter_mut()
                        .zip(acc.iter().zip(src))
                        .for_each(|(o, (x, y))| *o = if y > *x { y } else { *x }),
                }
            }};
        }
        match (self, a) {
            (TypedBuf::F32(o), TypedBuf::F32(x)) => fused_chunks!(o, x, f32, 4),
            (TypedBuf::F64(o), TypedBuf::F64(x)) => fused_chunks!(o, x, f64, 8),
            (TypedBuf::I32(o), TypedBuf::I32(x)) => fused_chunks!(o, x, i32, 4),
            (TypedBuf::I64(o), TypedBuf::I64(x)) => fused_chunks!(o, x, i64, 8),
            _ => unreachable!("dtype equality checked above"),
        }
        Ok(())
    }

    /// Copy `src[src_start .. src_start + len]` into
    /// `self[dst_start .. dst_start + len]`.
    pub fn copy_from_at(
        &mut self,
        dst_start: usize,
        src: &TypedBuf,
        src_start: usize,
        len: usize,
    ) -> Result<(), BufError> {
        if self.dtype() != src.dtype() {
            return Err(BufError::DTypeMismatch {
                expected: self.dtype(),
                got: src.dtype(),
            });
        }
        if dst_start + len > self.len() || src_start + len > src.len() {
            return Err(BufError::LenMismatch {
                expected: self.len(),
                got: dst_start + len,
            });
        }
        match (self, src) {
            (TypedBuf::F32(d), TypedBuf::F32(s)) => {
                d[dst_start..dst_start + len].copy_from_slice(&s[src_start..src_start + len])
            }
            (TypedBuf::F64(d), TypedBuf::F64(s)) => {
                d[dst_start..dst_start + len].copy_from_slice(&s[src_start..src_start + len])
            }
            (TypedBuf::I32(d), TypedBuf::I32(s)) => {
                d[dst_start..dst_start + len].copy_from_slice(&s[src_start..src_start + len])
            }
            (TypedBuf::I64(d), TypedBuf::I64(s)) => {
                d[dst_start..dst_start + len].copy_from_slice(&s[src_start..src_start + len])
            }
            _ => unreachable!("dtype equality checked above"),
        }
        Ok(())
    }

    /// Decode the wire bytes of `bytes.len() / size_of(dtype)` elements
    /// into `self[dst_start ..]` — the write-from-wire counterpart of
    /// [`TypedBuf::combine_le_bytes_at`] (allgather hops copy, they do
    /// not reduce).
    pub fn write_le_bytes_at(&mut self, dst_start: usize, bytes: &[u8]) -> Result<(), BufError> {
        let esz = self.dtype().size_of();
        if !bytes.len().is_multiple_of(esz) {
            return Err(BufError::LenMismatch {
                expected: bytes.len().div_ceil(esz),
                got: bytes.len() / esz,
            });
        }
        let len = bytes.len() / esz;
        if dst_start + len > self.len() {
            return Err(BufError::LenMismatch {
                expected: self.len(),
                got: dst_start + len,
            });
        }
        macro_rules! write_chunks {
            ($dst:expr, $ty:ty, $n:literal) => {{
                for (d, c) in $dst[dst_start..dst_start + len]
                    .iter_mut()
                    .zip(bytes.chunks_exact($n))
                {
                    *d = <$ty>::from_le_bytes(c.try_into().expect("exact chunk"));
                }
            }};
        }
        match self {
            TypedBuf::F32(d) => write_chunks!(d, f32, 4),
            TypedBuf::F64(d) => write_chunks!(d, f64, 8),
            TypedBuf::I32(d) => write_chunks!(d, i32, 4),
            TypedBuf::I64(d) => write_chunks!(d, i64, 8),
        }
        Ok(())
    }

    /// Materialize `self[start .. start + len]` as an owned buffer (the
    /// chunk extraction of the segmented schedule's `SliceCopy` op).
    pub fn slice_buf(&self, start: usize, len: usize) -> TypedBuf {
        assert!(start + len <= self.len(), "slice_buf out of range");
        match self {
            TypedBuf::F32(v) => TypedBuf::F32(v[start..start + len].to_vec()),
            TypedBuf::F64(v) => TypedBuf::F64(v[start..start + len].to_vec()),
            TypedBuf::I32(v) => TypedBuf::I32(v[start..start + len].to_vec()),
            TypedBuf::I64(v) => TypedBuf::I64(v[start..start + len].to_vec()),
        }
    }

    /// Append the elements to `out` as little-endian raw bytes — the wire
    /// representation used by the TCP transport's framing (exact bit
    /// patterns, so floats round-trip losslessly).
    pub fn extend_le_bytes(&self, out: &mut Vec<u8>) {
        self.extend_le_bytes_range(0, self.len(), out);
    }

    /// Range form of [`TypedBuf::extend_le_bytes`]: encode only
    /// `self[start .. start + len]` — what lets a sub-range payload view
    /// hit the wire without first materializing the slice.
    pub fn extend_le_bytes_range(&self, start: usize, len: usize, out: &mut Vec<u8>) {
        assert!(start + len <= self.len(), "encode range out of bounds");
        out.reserve(len * self.dtype().size_of());
        macro_rules! encode {
            ($v:expr) => {
                for x in &$v[start..start + len] {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            };
        }
        match self {
            TypedBuf::F32(v) => encode!(v),
            TypedBuf::F64(v) => encode!(v),
            TypedBuf::I32(v) => encode!(v),
            TypedBuf::I64(v) => encode!(v),
        }
    }

    /// Rebuild a buffer from the little-endian raw bytes produced by
    /// [`TypedBuf::extend_le_bytes`]. `None` if `bytes` is not a whole
    /// number of `dtype` elements.
    pub fn from_le_bytes(dtype: DType, bytes: &[u8]) -> Option<Self> {
        let esz = dtype.size_of();
        if !bytes.len().is_multiple_of(esz) {
            return None;
        }
        Some(match dtype {
            DType::F32 => TypedBuf::F32(
                bytes
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk")))
                    .collect(),
            ),
            DType::F64 => TypedBuf::F64(
                bytes
                    .chunks_exact(8)
                    .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                    .collect(),
            ),
            DType::I32 => TypedBuf::I32(
                bytes
                    .chunks_exact(4)
                    .map(|c| i32::from_le_bytes(c.try_into().expect("4-byte chunk")))
                    .collect(),
            ),
            DType::I64 => TypedBuf::I64(
                bytes
                    .chunks_exact(8)
                    .map(|c| i64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                    .collect(),
            ),
        })
    }
}

/// Elementwise `dst = dst ⊕ src` over bare `f32` slices — the shared
/// reduction kernel for code that operates on borrowed slices (the direct
/// ring/Rabenseifner algorithms) rather than owned buffers.
///
/// `Min`/`Max` use [`TypedBuf::combine`]'s comparison form, not
/// `f32::min`/`max`: a NaN accumulator stays and a NaN source is skipped,
/// so the slice-based oracle agrees with the engine bit for bit.
pub fn reduce_f32_slices(dst: &mut [f32], src: &[f32], op: ReduceOp) {
    elementwise!(dst, src, op);
}

/// Elementwise `dst = dst ⊕ decode_f32(bytes)` over a bare slice — the
/// reduce-from-wire kernel for slice-based consumers (the direct ring
/// algorithms fold a TCP frame's borrowed bytes straight into their chunk
/// accumulator; see `Matcher::recv_combine`).
pub fn reduce_f32_from_le_bytes(dst: &mut [f32], bytes: &[u8], op: ReduceOp) {
    debug_assert_eq!(dst.len() * 4, bytes.len());
    let src = bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk")));
    match op {
        ReduceOp::Sum => dst.iter_mut().zip(src).for_each(|(d, s)| *d += s),
        ReduceOp::Prod => dst.iter_mut().zip(src).for_each(|(d, s)| *d *= s),
        // Same comparison form (and NaN behaviour) as `reduce_f32_slices`.
        ReduceOp::Min => dst.iter_mut().zip(src).for_each(|(d, s)| {
            if s < *d {
                *d = s;
            }
        }),
        ReduceOp::Max => dst.iter_mut().zip(src).for_each(|(d, s)| {
            if s > *d {
                *d = s;
            }
        }),
    }
}

/// Decode the wire bytes of f32 elements into `dst` (the copy
/// counterpart of [`reduce_f32_from_le_bytes`], for allgather hops).
pub fn write_f32_from_le_bytes(dst: &mut [f32], bytes: &[u8]) {
    debug_assert_eq!(dst.len() * 4, bytes.len());
    for (d, c) in dst.iter_mut().zip(bytes.chunks_exact(4)) {
        *d = f32::from_le_bytes(c.try_into().expect("4-byte chunk"));
    }
}

impl From<Vec<f32>> for TypedBuf {
    fn from(v: Vec<f32>) -> Self {
        TypedBuf::F32(v)
    }
}

impl From<Vec<f64>> for TypedBuf {
    fn from(v: Vec<f64>) -> Self {
        TypedBuf::F64(v)
    }
}

impl From<Vec<i32>> for TypedBuf {
    fn from(v: Vec<i32>) -> Self {
        TypedBuf::I32(v)
    }
}

impl From<Vec<i64>> for TypedBuf {
    fn from(v: Vec<i64>) -> Self {
        TypedBuf::I64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_right_shape() {
        let b = TypedBuf::zeros(DType::F32, 7);
        assert_eq!(b.dtype(), DType::F32);
        assert_eq!(b.len(), 7);
        assert_eq!(b.byte_len(), 28);
        assert!(b.is_null());
    }

    #[test]
    fn combine_sum_f32() {
        let mut a = TypedBuf::from(vec![1.0f32, 2.0, 3.0]);
        let b = TypedBuf::from(vec![10.0f32, 20.0, 30.0]);
        a.combine(&b, ReduceOp::Sum).unwrap();
        assert_eq!(a.as_f32().unwrap(), &[11.0, 22.0, 33.0]);
    }

    #[test]
    fn combine_min_max_i64() {
        let mut a = TypedBuf::from(vec![1i64, 5, -3]);
        let b = TypedBuf::from(vec![2i64, 4, -7]);
        let mut a2 = a.clone();
        a.combine(&b, ReduceOp::Min).unwrap();
        assert_eq!(a.as_i64().unwrap(), &[1, 4, -7]);
        a2.combine(&b, ReduceOp::Max).unwrap();
        assert_eq!(a2.as_i64().unwrap(), &[2, 5, -3]);
    }

    #[test]
    fn combine_prod_f64() {
        let mut a = TypedBuf::from(vec![2.0f64, 3.0]);
        let b = TypedBuf::from(vec![4.0f64, 5.0]);
        a.combine(&b, ReduceOp::Prod).unwrap();
        assert_eq!(a.as_f64().unwrap(), &[8.0, 15.0]);
    }

    #[test]
    fn combine_rejects_mismatched_dtype() {
        let mut a = TypedBuf::from(vec![1.0f32]);
        let b = TypedBuf::from(vec![1.0f64]);
        assert!(matches!(
            a.combine(&b, ReduceOp::Sum),
            Err(BufError::DTypeMismatch { .. })
        ));
    }

    #[test]
    fn combine_rejects_mismatched_len() {
        let mut a = TypedBuf::from(vec![1.0f32, 2.0]);
        let b = TypedBuf::from(vec![1.0f32]);
        assert!(matches!(
            a.combine(&b, ReduceOp::Sum),
            Err(BufError::LenMismatch { .. })
        ));
    }

    #[test]
    fn scale_averages() {
        let mut a = TypedBuf::from(vec![8.0f32, 4.0]);
        a.scale(0.25);
        assert_eq!(a.as_f32().unwrap(), &[2.0, 1.0]);
    }

    #[test]
    fn clear_keeps_len() {
        let mut a = TypedBuf::from(vec![8.0f32, 4.0]);
        a.clear();
        assert_eq!(a.len(), 2);
        assert!(a.is_null());
    }

    #[test]
    fn scale_integer_truncates() {
        let mut a = TypedBuf::from(vec![7i32, -7]);
        a.scale(0.5);
        assert_eq!(a.as_i32().unwrap(), &[3, -3]);
    }

    #[test]
    fn le_bytes_round_trip_all_dtypes() {
        let bufs = [
            TypedBuf::from(vec![1.5f32, -0.0, f32::MIN_POSITIVE, 3.25e7]),
            TypedBuf::from(vec![std::f64::consts::PI, -1e-300]),
            TypedBuf::from(vec![i32::MIN, -1, 0, i32::MAX]),
            TypedBuf::from(vec![i64::MIN, 42, i64::MAX]),
        ];
        for b in bufs {
            let mut raw = Vec::new();
            b.extend_le_bytes(&mut raw);
            assert_eq!(raw.len(), b.byte_len());
            let back = TypedBuf::from_le_bytes(b.dtype(), &raw).unwrap();
            assert_eq!(back, b);
        }
    }

    #[test]
    fn le_bytes_round_trip_zero_length() {
        for dtype in [DType::F32, DType::F64, DType::I32, DType::I64] {
            let b = TypedBuf::zeros(dtype, 0);
            let mut raw = Vec::new();
            b.extend_le_bytes(&mut raw);
            assert!(raw.is_empty());
            let back = TypedBuf::from_le_bytes(dtype, &raw).unwrap();
            assert_eq!(back.len(), 0);
            assert_eq!(back.dtype(), dtype);
        }
    }

    #[test]
    fn le_bytes_reject_ragged_input() {
        assert!(TypedBuf::from_le_bytes(DType::F32, &[0u8; 6]).is_none());
        assert!(TypedBuf::from_le_bytes(DType::I64, &[0u8; 12]).is_none());
    }

    #[test]
    fn combine_le_bytes_matches_combine() {
        let cases = [
            (
                TypedBuf::from(vec![1.5f32, -2.0]),
                TypedBuf::from(vec![0.5f32, 4.0]),
            ),
            (
                TypedBuf::from(vec![1.0f64, 9.0]),
                TypedBuf::from(vec![2.0f64, -3.0]),
            ),
            (
                TypedBuf::from(vec![1i32, -5]),
                TypedBuf::from(vec![7i32, 5]),
            ),
            (
                TypedBuf::from(vec![10i64, 20]),
                TypedBuf::from(vec![-1i64, 2]),
            ),
        ];
        for (a, b) in cases {
            for op in [ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Min, ReduceOp::Max] {
                let mut via_combine = a.clone();
                via_combine.combine(&b, op).unwrap();
                let mut wire = Vec::new();
                b.extend_le_bytes(&mut wire);
                let mut via_bytes = a.clone();
                via_bytes.combine_le_bytes(&wire, op).unwrap();
                assert_eq!(via_bytes, via_combine, "{op:?}");
            }
        }
    }

    #[test]
    fn combine_le_bytes_rejects_wrong_length() {
        let mut a = TypedBuf::from(vec![1.0f32, 2.0]);
        assert!(matches!(
            a.combine_le_bytes(&[0u8; 4], ReduceOp::Sum),
            Err(BufError::LenMismatch { .. })
        ));
    }

    #[test]
    fn reduce_f32_slices_all_ops() {
        let src = [2.0f32, -1.0];
        let mut d = [1.0f32, 3.0];
        reduce_f32_slices(&mut d, &src, ReduceOp::Sum);
        assert_eq!(d, [3.0, 2.0]);
        let mut d = [1.0f32, 3.0];
        reduce_f32_slices(&mut d, &src, ReduceOp::Prod);
        assert_eq!(d, [2.0, -3.0]);
        let mut d = [1.0f32, 3.0];
        reduce_f32_slices(&mut d, &src, ReduceOp::Min);
        assert_eq!(d, [1.0, -1.0]);
        let mut d = [1.0f32, 3.0];
        reduce_f32_slices(&mut d, &src, ReduceOp::Max);
        assert_eq!(d, [2.0, 3.0]);
    }

    #[test]
    fn slice_kernels_fold_nan_like_combine() {
        // NaN accumulator, NaN source, both: the bare-slice kernels (typed
        // and from-wire) must land on `combine`'s bits for every op.
        let acc = [f32::NAN, 1.0, f32::NAN, 4.0];
        let src = [2.0, f32::NAN, f32::NAN, -3.0];
        let mut wire = Vec::new();
        TypedBuf::from(src.to_vec()).extend_le_bytes(&mut wire);
        let bits = |v: &[f32]| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
        for op in [ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Min, ReduceOp::Max] {
            let mut want = TypedBuf::from(acc.to_vec());
            want.combine(&TypedBuf::from(src.to_vec()), op).unwrap();
            let want = bits(want.as_f32().unwrap());
            let mut typed = acc;
            reduce_f32_slices(&mut typed, &src, op);
            assert_eq!(bits(&typed), want, "{op:?} typed");
            let mut from_wire = acc;
            reduce_f32_from_le_bytes(&mut from_wire, &wire, op);
            assert_eq!(bits(&from_wire), want, "{op:?} from wire");
        }
    }
}
