//! Shared message payloads: the zero-copy unit of the data hot path.
//!
//! A [`Payload`] is a reference-counted buffer plus an element range.
//! Cloning one is a reference-count bump, never a memcpy — this is what
//! lets the engine's `SendData` fan a round's contribution out to every
//! peer while all in-flight copies share one allocation — and
//! [`Payload::view`] narrows the range for the same price, so a ring or
//! segmented schedule can put a *slice* of a tensor on the wire without
//! materializing it.
//!
//! Two representations sit behind the same API:
//!
//! - **Typed**: an `Arc<TypedBuf>` — what senders build and what the
//!   in-process transport moves end to end.
//! - **Wire**: the raw little-endian element bytes exactly as a TCP frame
//!   carried them. The socket reader wraps the frame body without
//!   decoding it; the bytes are only interpreted where they are consumed —
//!   and the hot consumer, a reduction ([`Payload::reduce_assign`], the
//!   engine's `Combine`), decodes them element by element while folding,
//!   with **no** intermediate `TypedBuf` materialization.
//!
//! Either representation, narrowed to the payload's range, is one borrowed
//! source operand of the crate's element-wise kernel (`kernel.rs`): every
//! method here that reads elements — reduce, copy, compare, null test —
//! resolves `self` to that operand and hands it to the same `fold` /
//! `store` loops [`TypedBuf::combine`] runs.
//!
//! Mutation goes through the `*_assign` methods, which are copy-on-write:
//! a uniquely-owned full-range typed payload (the steady-state reduction
//! accumulator) mutates in place; a shared or viewed one is written, fused
//! with the operation, into a fresh or recycled buffer of exactly its own
//! range.

use crate::buf::{BufError, TypedBuf};
use crate::kernel::{self, with_elem, Elem, Src};
use crate::{DType, ReduceOp};
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Repr {
    Typed(Arc<TypedBuf>),
    /// Raw little-endian element bytes as read from a TCP frame.
    Wire {
        dtype: DType,
        bytes: Arc<Vec<u8>>,
    },
}

/// A cheaply-cloneable, shared, typed message payload (see module docs).
///
/// ```
/// use pcoll_comm::{Payload, ReduceOp, TypedBuf};
///
/// // Clone = share: both handles alias one allocation.
/// let a = Payload::new(TypedBuf::from(vec![1.0f32, 2.0, 3.0, 4.0]));
/// let b = a.clone();
/// assert!(a.shares_allocation_with(&b));
///
/// // View = share a slice: same allocation, narrower range.
/// let tail = a.view(2, 2);
/// assert_eq!(tail.as_f32(), Some(&[3.0, 4.0][..]));
/// assert!(tail.shares_allocation_with(&a));
///
/// // Mutate = copy-on-write: `b` detaches; `a` is untouched.
/// let mut b = b;
/// b.to_mut().as_f32_mut().unwrap()[0] = 9.0;
/// assert!(!b.shares_allocation_with(&a));
/// assert_eq!(a.as_f32().unwrap()[0], 1.0);
///
/// // Reduce from the wire: undecoded little-endian frame bytes fold
/// // straight into the accumulator, no intermediate buffer.
/// let wire = Payload::from_wire(a.dtype(), 2.0f32.to_le_bytes().repeat(4)).unwrap();
/// let mut acc = a.clone();
/// acc.reduce_assign(&wire, ReduceOp::Sum).unwrap();
/// assert_eq!(acc.as_f32(), Some(&[3.0, 4.0, 5.0, 6.0][..]));
/// ```
#[derive(Debug, Clone)]
pub struct Payload {
    repr: Repr,
    /// Element range this payload exposes (a view of the allocation).
    start: usize,
    len: usize,
}

impl Payload {
    /// Wrap an owned buffer (one allocation for the `Arc` control block;
    /// the element storage is taken over, not copied).
    pub fn new(buf: TypedBuf) -> Self {
        let len = buf.len();
        Payload {
            repr: Repr::Typed(Arc::new(buf)),
            start: 0,
            len,
        }
    }

    /// Wrap raw wire bytes (the TCP reader's undecoded frame body).
    /// `None` if `bytes` is not a whole number of `dtype` elements.
    pub fn from_wire(dtype: DType, bytes: Vec<u8>) -> Option<Self> {
        if !bytes.len().is_multiple_of(dtype.size_of()) {
            return None;
        }
        let len = bytes.len() / dtype.size_of();
        Some(Payload {
            repr: Repr::Wire {
                dtype,
                bytes: Arc::new(bytes),
            },
            start: 0,
            len,
        })
    }

    /// The element type.
    #[inline]
    pub fn dtype(&self) -> DType {
        match &self.repr {
            Repr::Typed(b) => b.dtype(),
            Repr::Wire { dtype, .. } => *dtype,
        }
    }

    /// Number of elements in this payload's range.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the range holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Payload size in bytes (what the network model charges for).
    #[inline]
    pub fn byte_len(&self) -> usize {
        self.len * self.dtype().size_of()
    }

    /// True when this payload carries undecoded wire bytes.
    pub fn is_wire(&self) -> bool {
        matches!(self.repr, Repr::Wire { .. })
    }

    /// A sub-range view sharing this payload's allocation: a reference
    /// count bump, never an element copy. Panics on an out-of-range view.
    pub fn view(&self, start: usize, len: usize) -> Payload {
        if let Err(e) = kernel::range(self.len, start, len) {
            panic!("view at {start} of {len} elements exceeds payload: {e}");
        }
        Payload {
            repr: self.repr.clone(),
            start: self.start + start,
            len,
        }
    }

    /// True when this payload exposes less than its whole allocation.
    pub fn is_view(&self) -> bool {
        let full = match &self.repr {
            Repr::Typed(b) => b.len(),
            Repr::Wire { dtype, bytes } => bytes.len() / dtype.size_of(),
        };
        self.start != 0 || self.len != full
    }

    /// View as `&[f32]` — typed payloads only (wire bytes are not
    /// reinterpreted in place; decode via [`Payload::to_buf`] or reduce
    /// via [`Payload::reduce_assign`]).
    pub fn as_f32(&self) -> Option<&[f32]> {
        match &self.repr {
            Repr::Typed(b) => b.as_f32().map(|v| &v[self.start..self.start + self.len]),
            Repr::Wire { .. } => None,
        }
    }

    /// View as `&[f64]` (typed payloads only).
    pub fn as_f64(&self) -> Option<&[f64]> {
        match &self.repr {
            Repr::Typed(b) => b.as_f64().map(|v| &v[self.start..self.start + self.len]),
            Repr::Wire { .. } => None,
        }
    }

    /// View as `&[i32]` (typed payloads only).
    pub fn as_i32(&self) -> Option<&[i32]> {
        match &self.repr {
            Repr::Typed(b) => b.as_i32().map(|v| &v[self.start..self.start + self.len]),
            Repr::Wire { .. } => None,
        }
    }

    /// View as `&[i64]` (typed payloads only).
    pub fn as_i64(&self) -> Option<&[i64]> {
        match &self.repr {
            Repr::Typed(b) => b.as_i64().map(|v| &v[self.start..self.start + self.len]),
            Repr::Wire { .. } => None,
        }
    }

    /// This payload's range as the kernel's source operand, which must
    /// hold `T`s.
    fn src<T: Elem>(&self) -> Result<Src<'_, T>, BufError> {
        match &self.repr {
            Repr::Typed(b) => Src::typed(b),
            Repr::Wire { dtype, bytes } => Src::wire(*dtype, bytes),
        }?
        .slice(self.start, self.len)
    }

    /// True if every element in this payload's range is exactly zero (a
    /// null contribution). Compares decoded values, so float edge cases
    /// (`-0.0`) agree with [`TypedBuf::is_null`] on either representation.
    pub fn is_null(&self) -> bool {
        with_elem!(self.dtype(), T => {
            let src = self.src::<T>().expect("own dtype");
            (0..self.len).all(|i| src.get(i) == T::ZERO)
        })
    }

    /// Materialize this payload's range as an owned buffer (decodes wire
    /// bytes; copies a typed range).
    pub fn to_buf(&self) -> TypedBuf {
        with_elem!(self.dtype(), T => self.src::<T>().expect("own dtype").to_vec().into())
    }

    /// Recover an owned buffer: free for the last owner of a full-range
    /// typed payload, one copy (or one decode) otherwise.
    pub fn into_buf(self) -> TypedBuf {
        if self.is_view() {
            return self.to_buf();
        }
        match self.repr {
            Repr::Typed(arc) => Arc::try_unwrap(arc).unwrap_or_else(|arc| (*arc).clone()),
            Repr::Wire { .. } => self.to_buf(),
        }
    }

    /// Recover the owned buffer without ever copying: `Ok` exactly when
    /// this handle is the last owner of a full-range typed payload,
    /// `Err(self)` (unchanged) otherwise. This is how the engine harvests
    /// a completed instance's buffers into its recycle pool — a buffer
    /// still shared with an in-flight send or a peer simply fails the
    /// unwrap and is retried or dropped.
    pub fn try_into_buf(self) -> Result<TypedBuf, Payload> {
        if self.is_view() {
            return Err(self);
        }
        let Payload { repr, start, len } = self;
        match repr {
            Repr::Typed(arc) => Arc::try_unwrap(arc).map_err(|arc| Payload {
                repr: Repr::Typed(arc),
                start,
                len,
            }),
            wire @ Repr::Wire { .. } => Err(Payload {
                repr: wire,
                start,
                len,
            }),
        }
    }

    /// Make `self` a uniquely-owned full-range typed payload and return
    /// the buffer mutably. In place when already unique/full/typed;
    /// otherwise materializes exactly this payload's range.
    pub fn to_mut(&mut self) -> &mut TypedBuf {
        let needs_copy = self.is_view()
            || match &self.repr {
                Repr::Typed(arc) => Arc::strong_count(arc) > 1,
                Repr::Wire { .. } => true,
            };
        if needs_copy {
            *self = Payload::new(self.to_buf());
        }
        match &mut self.repr {
            Repr::Typed(arc) => Arc::get_mut(arc).expect("uniquely owned after materialize"),
            Repr::Wire { .. } => unreachable!("materialized to typed above"),
        }
    }

    /// Elementwise `self = self ⊕ src` under `op`.
    ///
    /// A uniquely-owned full-range typed destination (the steady-state
    /// reduction accumulator) mutates in place. A shared, viewed, or
    /// wire-borne *source* folds in without materializing. When the
    /// destination itself needs copy-on-write (it was cloned onto the
    /// wire and a sharer is still in flight), materialize-then-fold is
    /// fused into one `out[i] = dst[i] ⊕ src[i]` pass — same bits, half
    /// the memory traffic.
    pub fn reduce_assign(&mut self, src: &Payload, op: ReduceOp) -> Result<(), BufError> {
        self.reduce_assign_pooled(src, op, &mut Vec::new())
    }

    /// [`Payload::reduce_assign`] drawing any copy-on-write destination
    /// buffer from a recycle pool: when the fused path needs a fresh
    /// output buffer, a shape-matching pool entry is popped and fully
    /// overwritten instead of allocating. With a balanced pool (the
    /// engine harvests completed instances back into it) the steady-state
    /// combine allocates nothing.
    pub fn reduce_assign_pooled(
        &mut self,
        src: &Payload,
        op: ReduceOp,
        pool: &mut Vec<TypedBuf>,
    ) -> Result<(), BufError> {
        with_elem!(self.dtype(), T => {
            let src = src.src::<T>()?;
            kernel::same_len(self.len, src.len())?;
            if self.is_wire() {
                // An accumulator that adopted a received frame: decode it
                // once, then fold in place like any other.
                self.to_mut();
            }
            let whole = !self.is_view();
            let Repr::Typed(arc) = &mut self.repr else {
                unreachable!("decoded above");
            };
            match Arc::get_mut(arc) {
                Some(dst) if whole => {
                    return kernel::fold(T::of_mut(dst).expect("own dtype"), None, src, op);
                }
                _ => {}
            }
            // Shared or viewed destination: one fused pass into a recycled
            // (or zero-page-fresh) buffer. The old allocation is released
            // to its remaining sharers untouched.
            let mut out = pooled_buffer(pool, T::DTYPE, self.len);
            let acc = &T::of(arc).expect("own dtype")[self.start..self.start + self.len];
            kernel::fold(T::of_mut(&mut out).expect("pooled dtype"), Some(acc), src, op)?;
            *self = Payload::new(out);
            Ok(())
        })
    }

    /// Write this payload's elements into `dst[dst_start ..]` (the
    /// segmented allgather's assembly step). Decodes wire bytes directly
    /// into the destination range.
    pub fn copy_into_at(&self, dst: &mut TypedBuf, dst_start: usize) -> Result<(), BufError> {
        with_elem!(dst.dtype(), T => {
            let dst = T::of_mut(dst).expect("own dtype");
            let r = kernel::range(dst.len(), dst_start, self.len)?;
            self.store_into(&mut dst[r])
        })
    }

    /// Fold this payload into a bare slice of its element type (`f32`,
    /// `f64`, `i32` or `i64`). Errors on dtype/length mismatch.
    pub fn fold_into<T: Elem>(&self, dst: &mut [T], op: ReduceOp) -> Result<(), BufError> {
        kernel::fold(dst, None, self.src()?, op)
    }

    /// Copy this payload into a bare slice of its element type (allgather
    /// hops write, they do not reduce).
    pub fn store_into<T: Elem>(&self, dst: &mut [T]) -> Result<(), BufError> {
        kernel::store(dst, self.src()?)
    }

    /// Append this payload's range as little-endian wire bytes — the TCP
    /// framing path. A wire-borne payload (zero-copy forwarding of a
    /// received chunk) is a straight memcpy; a typed view encodes only
    /// its range.
    pub fn extend_wire_bytes(&self, out: &mut Vec<u8>) {
        match &self.repr {
            Repr::Typed(b) => b.extend_le_bytes_range(self.start, self.len, out),
            Repr::Wire { dtype, bytes } => {
                let esz = dtype.size_of();
                out.extend_from_slice(&bytes[self.start * esz..(self.start + self.len) * esz]);
            }
        }
    }

    /// Number of live clones sharing this allocation (diagnostics).
    pub fn ref_count(&self) -> usize {
        match &self.repr {
            Repr::Typed(arc) => Arc::strong_count(arc),
            Repr::Wire { bytes, .. } => Arc::strong_count(bytes),
        }
    }

    /// True if `self` and `other` share the same allocation (the
    /// zero-copy invariant tests assert).
    pub fn shares_allocation_with(&self, other: &Payload) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Typed(a), Repr::Typed(b)) => Arc::ptr_eq(a, b),
            (Repr::Wire { bytes: a, .. }, Repr::Wire { bytes: b, .. }) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// Take a buffer of exactly this shape from a recycle pool, or allocate
/// one. A recycled buffer's contents are unspecified: callers must
/// overwrite every element.
pub fn pooled_buffer(pool: &mut Vec<TypedBuf>, dtype: DType, len: usize) -> TypedBuf {
    match pool
        .iter()
        .position(|b| b.dtype() == dtype && b.len() == len)
    {
        Some(i) => pool.swap_remove(i),
        None => TypedBuf::zeros(dtype, len),
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        // Pointer equality first: shared clones compare without a walk.
        if self.shares_allocation_with(other) && self.start == other.start && self.len == other.len
        {
            return true;
        }
        // Elements compare in place, decoded one at a time where a side is
        // wire-borne.
        with_elem!(self.dtype(), T => {
            other.src::<T>().is_ok_and(|b| self.src::<T>().expect("own dtype") == b)
        })
    }
}

impl PartialEq<TypedBuf> for Payload {
    fn eq(&self, other: &TypedBuf) -> bool {
        with_elem!(self.dtype(), T => {
            Src::<T>::typed(other).is_ok_and(|b| self.src::<T>().expect("own dtype") == b)
        })
    }
}

impl From<TypedBuf> for Payload {
    fn from(buf: TypedBuf) -> Self {
        Payload::new(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_the_allocation() {
        let a = Payload::new(TypedBuf::from(vec![1.0f32; 1024]));
        let b = a.clone();
        assert!(a.shares_allocation_with(&b));
        assert_eq!(a.ref_count(), 2);
        assert_eq!(a, b);
    }

    #[test]
    fn to_mut_is_in_place_when_unique() {
        let mut a = Payload::new(TypedBuf::from(vec![1.0f32, 2.0]));
        let before = a.as_f32().unwrap().as_ptr();
        a.to_mut().scale(2.0);
        assert_eq!(a.as_f32().unwrap(), &[2.0, 4.0]);
        assert_eq!(
            a.as_f32().unwrap().as_ptr(),
            before,
            "unique owner must mutate in place"
        );
    }

    #[test]
    fn to_mut_copies_only_when_shared() {
        let mut a = Payload::new(TypedBuf::from(vec![1.0f32, 2.0]));
        let b = a.clone();
        a.to_mut().scale(10.0);
        assert_eq!(a.as_f32().unwrap(), &[10.0, 20.0]);
        assert_eq!(b.as_f32().unwrap(), &[1.0, 2.0], "sharers unharmed");
        assert!(!a.shares_allocation_with(&b));
    }

    #[test]
    fn into_buf_is_free_for_the_last_owner() {
        let a = Payload::new(TypedBuf::from(vec![7i64; 8]));
        let ptr = a.as_i64().unwrap().as_ptr();
        let owned = a.into_buf();
        assert_eq!(owned.as_i64().unwrap().as_ptr(), ptr, "no copy");
    }

    #[test]
    fn view_is_a_refcount_bump_with_narrowed_range() {
        let a = Payload::new(TypedBuf::from((0..8).map(|i| i as f32).collect::<Vec<_>>()));
        let v = a.view(2, 3);
        assert!(v.shares_allocation_with(&a), "views share the allocation");
        assert_eq!(a.ref_count(), 2);
        assert_eq!(v.len(), 3);
        assert_eq!(v.byte_len(), 12);
        assert!(v.is_view() && !a.is_view());
        assert_eq!(v.as_f32().unwrap(), &[2.0, 3.0, 4.0]);
        // Views of views compose.
        let vv = v.view(1, 2);
        assert_eq!(vv.as_f32().unwrap(), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "exceeds payload")]
    fn out_of_range_view_panics() {
        let a = Payload::new(TypedBuf::from(vec![0.0f32; 4]));
        let _ = a.view(2, 3);
    }

    #[test]
    fn wire_payload_exposes_shape_and_decodes_lazily() {
        let src = TypedBuf::from(vec![1.5f32, -2.0, 3.25]);
        let mut raw = Vec::new();
        src.extend_le_bytes(&mut raw);
        let w = Payload::from_wire(DType::F32, raw).unwrap();
        assert!(w.is_wire());
        assert_eq!(w.dtype(), DType::F32);
        assert_eq!(w.len(), 3);
        assert_eq!(w.byte_len(), 12);
        assert!(w.as_f32().is_none(), "wire bytes are not reinterpreted");
        assert_eq!(w.to_buf(), src);
        // Ragged byte counts are rejected.
        assert!(Payload::from_wire(DType::F64, vec![0u8; 12]).is_none());
    }

    #[test]
    fn reduce_assign_materializes_only_the_viewed_range() {
        let base = Payload::new(TypedBuf::from(vec![0.0f32; 1024]));
        let mut chunk = base.view(512, 16);
        chunk
            .reduce_assign(
                &Payload::new(TypedBuf::from(vec![1.0f32; 16])),
                ReduceOp::Sum,
            )
            .unwrap();
        assert_eq!(chunk.len(), 16);
        assert!(!chunk.shares_allocation_with(&base), "copy-on-write");
        assert_eq!(chunk.as_f32().unwrap(), &[1.0; 16]);
        assert_eq!(base.as_f32().unwrap()[512], 0.0, "base unharmed");
    }

    #[test]
    fn extend_wire_bytes_round_trips_views_and_wire() {
        let src = TypedBuf::from((0..6).map(|i| i as f32).collect::<Vec<_>>());
        let p = Payload::new(src.clone());
        let v = p.view(2, 3);
        let mut enc = Vec::new();
        v.extend_wire_bytes(&mut enc);
        assert_eq!(enc.len(), 12, "only the view range is encoded");
        let back = Payload::from_wire(DType::F32, enc).unwrap();
        assert_eq!(back.to_buf(), TypedBuf::from(vec![2.0f32, 3.0, 4.0]));
        // Wire → wire forwarding is a byte copy of the same range.
        let mut enc2 = Vec::new();
        back.extend_wire_bytes(&mut enc2);
        let mut want = Vec::new();
        src.extend_le_bytes_range(2, 3, &mut want);
        assert_eq!(enc2, want);
    }
}
