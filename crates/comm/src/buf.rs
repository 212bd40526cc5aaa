//! Typed message buffers.
//!
//! The collective engine is dtype-generic in the way MPI is: a buffer is a
//! vector of one of the basic types, and reductions ([`ReduceOp`]) combine
//! two buffers of identical dtype and length elementwise. The methods here
//! resolve the dtype and check shapes; the loops themselves live in the
//! crate's one kernel module (`kernel.rs`).

use crate::kernel::{self, with_elem, Elem, Src};

/// Element type of a [`TypedBuf`], mirroring the MPI basic types the paper's
/// schedule operations are defined over (a practical subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
#[derive(Debug, Clone, PartialEq)]
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
        with_elem!(self.dtype(), T => {
            let src = Src::<T>::typed(other)?;
            kernel::fold(T::of_mut(self).expect("own dtype"), None, src, op)
        })
    }

    /// Multiply every element by `factor` (used for the `1/P` averaging in
    /// Algorithm 2 line 6). Integer buffers round toward zero.
    pub fn scale(&mut self, factor: f64) {
        with_elem!(self.dtype(), T => kernel::scale(T::of_mut(self).expect("own dtype"), factor))
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
    /// this dtype and length.
    pub fn combine_le_bytes(&mut self, bytes: &[u8], op: ReduceOp) -> Result<(), BufError> {
        with_elem!(self.dtype(), T => {
            let src = Src::<T>::wire(T::DTYPE, bytes)?;
            kernel::fold(T::of_mut(self).expect("own dtype"), None, src, op)
        })
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
        with_elem!(self.dtype(), T => {
            let src = Src::<T>::typed(src)?.slice(src_start, len)?;
            let dst = T::of_mut(self).expect("own dtype");
            let r = kernel::range(dst.len(), dst_start, len)?;
            kernel::store(&mut dst[r], src)
        })
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
        let r = kernel::range(self.len(), start, len).expect("encode range out of bounds");
        with_elem!(self.dtype(), T => kernel::encode(&T::of(self).expect("own dtype")[r], out))
    }

    /// Rebuild a buffer from the little-endian raw bytes produced by
    /// [`TypedBuf::extend_le_bytes`]. `None` if `bytes` is not a whole
    /// number of `dtype` elements.
    pub fn from_le_bytes(dtype: DType, bytes: &[u8]) -> Option<Self> {
        with_elem!(dtype, T => {
            Src::<T>::wire(dtype, bytes).ok().map(|src| src.to_vec().into())
        })
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
    fn combine_le_bytes_rejects_wrong_length() {
        let mut a = TypedBuf::from(vec![1.0f32, 2.0]);
        assert!(matches!(
            a.combine_le_bytes(&[0u8; 4], ReduceOp::Sum),
            Err(BufError::LenMismatch { .. })
        ));
    }

    #[test]
    fn copy_from_at_blames_the_operand_that_overflowed() {
        let mut dst = TypedBuf::zeros(DType::F32, 4);
        let src = TypedBuf::from(vec![1.0f32, 2.0]);
        // Source range 1..3 of 2 elements; the destination's 0..2 of 4 fits.
        assert_eq!(
            dst.copy_from_at(0, &src, 1, 2),
            Err(BufError::LenMismatch {
                expected: 2,
                got: 3
            })
        );
        assert_eq!(
            dst.copy_from_at(3, &src, 0, 2),
            Err(BufError::LenMismatch {
                expected: 4,
                got: 5
            })
        );
        // A wrapped `start + len` is an error, not a slice-index panic.
        assert!(dst.copy_from_at(usize::MAX, &src, 0, 2).is_err());
        assert!(dst.is_null(), "failed copies write nothing");
    }
}
