//! The one element-wise kernel of the data path.
//!
//! The paper's schedule ops are "simple computations defined between two
//! arrays of data items" (§4.1.1): `dst = dst ⊕ src`. Every reduction and
//! every copy or decode in this crate — `TypedBuf::{combine,
//! combine_le_bytes, copy_from_at}` and `Payload::{reduce_assign,
//! copy_into_at, fold_into, store_into}` — resolves its operands to a
//! typed destination slice and a borrowed [`Src`], and calls [`fold`] or
//! [`store`]; [`TypedBuf::scale`], the average's `1/P`, is [`scale`].
//! There is no other reduction loop and no other per-element decode.
//!
//! The loops are plain `zip`s over slices and `chunks_exact`, monomorphised
//! per element type, source form and operator, which is what lets the
//! compiler vectorise them; there is no `unsafe` and no explicit SIMD.

use crate::buf::{BufError, DType, ReduceOp, TypedBuf};
use std::ops::{Add, Mul, Range};

mod sealed {
    pub trait Sealed {}
}

/// An element type a [`TypedBuf`] can hold. Sealed: implemented for
/// `f32`, `f64`, `i32` and `i64` only.
pub trait Elem:
    Copy + PartialOrd + Add<Output = Self> + Mul<Output = Self> + sealed::Sealed + 'static
{
    /// The tag [`TypedBuf::dtype`] reports for buffers of this type.
    const DTYPE: DType;
    /// Bytes per element, in memory and on the wire.
    const SIZE: usize = std::mem::size_of::<Self>();
    /// The additive identity (a null contribution's value).
    const ZERO: Self;
    /// The little-endian encoding of one element.
    type Bytes: AsRef<[u8]>;

    /// Decode one element from exactly [`Elem::SIZE`] little-endian bytes.
    fn from_le(bytes: &[u8]) -> Self;
    /// Encode this element as little-endian bytes.
    fn to_le(self) -> Self::Bytes;
    /// This element times `factor`: floats multiply in their own
    /// precision, integers go through `f64` and round toward zero.
    fn scaled(self, factor: f64) -> Self;
    /// The elements of `buf`, if this is its dtype.
    fn of(buf: &TypedBuf) -> Option<&[Self]>;
    /// The elements of `buf` mutably, if this is its dtype.
    fn of_mut(buf: &mut TypedBuf) -> Option<&mut [Self]>;
}

macro_rules! impl_elem {
    ($($t:ty, $variant:ident, $zero:expr, $scaled:expr;)*) => {$(
        impl sealed::Sealed for $t {}
        impl Elem for $t {
            const DTYPE: DType = DType::$variant;
            const ZERO: Self = $zero;
            type Bytes = [u8; std::mem::size_of::<$t>()];

            #[inline]
            fn from_le(c: &[u8]) -> Self {
                <$t>::from_le_bytes(c.try_into().expect("exact chunk"))
            }
            #[inline]
            fn to_le(self) -> Self::Bytes {
                self.to_le_bytes()
            }
            #[inline]
            fn scaled(self, factor: f64) -> Self {
                let scaled: fn($t, f64) -> $t = $scaled;
                scaled(self, factor)
            }
            fn of(buf: &TypedBuf) -> Option<&[Self]> {
                match buf {
                    TypedBuf::$variant(v) => Some(v),
                    _ => None,
                }
            }
            fn of_mut(buf: &mut TypedBuf) -> Option<&mut [Self]> {
                match buf {
                    TypedBuf::$variant(v) => Some(v),
                    _ => None,
                }
            }
        }
    )*};
}

impl_elem! {
    f32, F32, 0.0, |x, f| x * f as f32;
    f64, F64, 0.0, |x, f| x * f;
    i32, I32, 0, |x, f| (x as f64 * f) as i32;
    i64, I64, 0, |x, f| (x as f64 * f) as i64;
}

/// Evaluate `$body` with `$T` naming the element type of `$dtype` — the
/// one place a runtime [`DType`] turns into a compile-time type.
macro_rules! with_elem {
    ($dtype:expr, $T:ident => $body:expr) => {
        match $dtype {
            $crate::DType::F32 => {
                type $T = f32;
                $body
            }
            $crate::DType::F64 => {
                type $T = f64;
                $body
            }
            $crate::DType::I32 => {
                type $T = i32;
                $body
            }
            $crate::DType::I64 => {
                type $T = i64;
                $body
            }
        }
    };
}
pub(crate) use with_elem;

/// `start .. start + len` inside an operand that holds `have` elements.
/// The error names that operand: its length and the end that was asked
/// of it (saturated when `start + len` itself overflows).
pub fn range(have: usize, start: usize, len: usize) -> Result<Range<usize>, BufError> {
    match start.checked_add(len) {
        Some(end) if end <= have => Ok(start..end),
        end => Err(BufError::LenMismatch {
            expected: have,
            got: end.unwrap_or(usize::MAX),
        }),
    }
}

/// Two operands that must hold the same number of elements.
pub fn same_len(expected: usize, got: usize) -> Result<(), BufError> {
    if expected == got {
        Ok(())
    } else {
        Err(BufError::LenMismatch { expected, got })
    }
}

/// A borrowed source operand: elements in memory, or the undecoded
/// little-endian bytes a TCP frame carried them in (always a whole number
/// of elements — build one with [`Src::wire`]).
#[derive(Debug, Clone, Copy)]
pub enum Src<'a, T> {
    /// Elements in memory.
    Typed(&'a [T]),
    /// Wire bytes, decoded element by element as they are consumed.
    Wire(&'a [u8]),
}

impl<'a, T: Elem> Src<'a, T> {
    /// All of `buf`, which must hold `T`s.
    pub fn typed(buf: &'a TypedBuf) -> Result<Self, BufError> {
        T::of(buf).map(Src::Typed).ok_or(BufError::DTypeMismatch {
            expected: T::DTYPE,
            got: buf.dtype(),
        })
    }

    /// The wire form of `dtype` elements, which must be `T`s and whole.
    pub fn wire(dtype: DType, bytes: &'a [u8]) -> Result<Self, BufError> {
        if dtype != T::DTYPE {
            return Err(BufError::DTypeMismatch {
                expected: T::DTYPE,
                got: dtype,
            });
        }
        // Ragged input rounds up and down to different element counts.
        same_len(bytes.len().div_ceil(T::SIZE), bytes.len() / T::SIZE)?;
        Ok(Src::Wire(bytes))
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            Src::Typed(s) => s.len(),
            Src::Wire(b) => b.len() / T::SIZE,
        }
    }

    /// Elements `start .. start + len` of this source.
    pub fn slice(self, start: usize, len: usize) -> Result<Self, BufError> {
        let r = range(self.len(), start, len)?;
        Ok(match self {
            Src::Typed(s) => Src::Typed(&s[r]),
            Src::Wire(b) => Src::Wire(&b[r.start * T::SIZE..r.end * T::SIZE]),
        })
    }

    /// Element `i` (for walks that compare; the kernels stream instead).
    pub fn get(&self, i: usize) -> T {
        match self {
            Src::Typed(s) => s[i],
            Src::Wire(b) => T::from_le(&b[i * T::SIZE..(i + 1) * T::SIZE]),
        }
    }

    /// The elements as an owned vector (one copy, or one decode).
    pub fn to_vec(self) -> Vec<T> {
        match self {
            Src::Typed(s) => s.to_vec(),
            Src::Wire(b) => decoded(b).collect(),
        }
    }
}

/// Same length and equal elements, whichever way each side is held.
impl<T: Elem> PartialEq for Src<'_, T> {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Src::Typed(a), Src::Typed(b)) => a == b,
            _ => self.len() == other.len() && (0..self.len()).all(|i| self.get(i) == other.get(i)),
        }
    }
}

/// The per-element decode, written once.
fn decoded<T: Elem>(bytes: &[u8]) -> impl Iterator<Item = T> + '_ {
    bytes.chunks_exact(T::SIZE).map(T::from_le)
}

/// Append `elems` to `out` as little-endian bytes.
pub fn encode<T: Elem>(elems: &[T], out: &mut Vec<u8>) {
    out.reserve(elems.len() * T::SIZE);
    for x in elems {
        out.extend_from_slice(x.to_le().as_ref());
    }
}

/// `out[i] = out[i] ⊕ src[i]` when `acc` is `None`; the fused
/// `out[i] = acc[i] ⊕ src[i]` otherwise, which overwrites every element of
/// `out` (so a dirty recycled buffer is a valid destination) in the same
/// single pass, with the same bits, as copy-then-fold.
///
/// The accumulator is always the left operand, and `Min`/`Max` are the
/// selects `if s < a { s } else { a }` / `if s > a { s } else { a }`, not
/// `f32::min`/`max`: a NaN accumulator stays and a NaN source is skipped,
/// on every path.
pub fn fold<T: Elem>(
    out: &mut [T],
    acc: Option<&[T]>,
    src: Src<'_, T>,
    op: ReduceOp,
) -> Result<(), BufError> {
    same_len(out.len(), src.len())?;
    if let Some(acc) = acc {
        same_len(out.len(), acc.len())?;
    }
    match src {
        Src::Typed(s) => fold_op(out, acc, s.iter().copied(), op),
        Src::Wire(b) => fold_op(out, acc, decoded(b), op),
    }
    Ok(())
}

fn fold_op<T: Elem>(out: &mut [T], acc: Option<&[T]>, src: impl Iterator<Item = T>, op: ReduceOp) {
    match op {
        ReduceOp::Sum => fold_with(out, acc, src, |a, s| a + s),
        ReduceOp::Prod => fold_with(out, acc, src, |a, s| a * s),
        ReduceOp::Min => fold_with(out, acc, src, |a, s| if s < a { s } else { a }),
        ReduceOp::Max => fold_with(out, acc, src, |a, s| if s > a { s } else { a }),
    }
}

fn fold_with<T: Copy>(
    out: &mut [T],
    acc: Option<&[T]>,
    src: impl Iterator<Item = T>,
    f: impl Fn(T, T) -> T,
) {
    match acc {
        None => out.iter_mut().zip(src).for_each(|(o, s)| *o = f(*o, s)),
        Some(acc) => out
            .iter_mut()
            .zip(acc.iter().zip(src))
            .for_each(|(o, (a, s))| *o = f(*a, s)),
    }
}

/// `out[i] = src[i]`: a copy, or a decode straight into place.
pub fn store<T: Elem>(out: &mut [T], src: Src<'_, T>) -> Result<(), BufError> {
    same_len(out.len(), src.len())?;
    match src {
        Src::Typed(s) => out.copy_from_slice(s),
        Src::Wire(b) => out.iter_mut().zip(decoded(b)).for_each(|(o, s)| *o = s),
    }
    Ok(())
}

/// `out[i] = out[i] · factor` ([`Elem::scaled`]): the `1/P` of an average.
pub fn scale<T: Elem>(out: &mut [T], factor: f64) {
    out.iter_mut().for_each(|x| *x = x.scaled(factor));
}
