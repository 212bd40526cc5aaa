//! Property tests for `Payload::reduce_assign` and the bare-slice
//! `Payload::{fold_into, store_into}`, against a scalar reference.
//!
//! Every reduction in `pcoll_comm` runs one kernel, so comparing one entry
//! point with another would compare the kernel with itself. These tests
//! compare with `common::reference` instead — decode both operands from
//! bytes, apply the operator per element, re-encode — across every dtype,
//! every reduce op, unique/aliased/viewed/wire destinations and
//! typed/viewed/wire sources. They also pin the copy-on-write contract:
//! surviving sharers are untouched and a recycled pool buffer's stale
//! contents never leak through.
//!
//! Operands are built from raw bit patterns, with NaN payloads of either
//! sign, negative zero, denormals and infinities mixed in (Min/Max must
//! keep a NaN accumulator and skip a NaN source on every path); equality
//! is asserted on re-encoded bytes because NaN != NaN would foil value
//! comparison.

mod common;

use common::{assert_folded, buf_from_bits, bytes_of, operands, special_grid, DTYPES, OPS};
use pcoll_comm::{BufError, DType, Payload, ReduceOp, TypedBuf};
use proptest::prelude::*;

/// How the destination payload is shaped before the reduce.
#[derive(Debug, Clone, Copy)]
enum DstForm {
    /// Uniquely owned, full range: the in-place fast path.
    Unique,
    /// A clone is retained (an in-flight send): copy-on-write, fused.
    Aliased,
    /// A view into a padded parent buffer (a segmented-ring chunk), the
    /// parent handle retained — shared *and* viewed.
    View,
    /// A view whose parent handle was dropped: refcount 1, so fusion
    /// triggers on `is_view` alone.
    UniqueView,
    /// Wire-borne destination: the decode-then-fold fallback.
    Wire,
}

/// How the source payload is shaped.
#[derive(Debug, Clone, Copy)]
enum SrcForm {
    Typed,
    /// A range view into a padded parent (only the range must fold in).
    View,
    /// Wire bytes, as delivered by the TCP receive path.
    Wire,
}

const DST_FORMS: [DstForm; 5] = [
    DstForm::Unique,
    DstForm::Aliased,
    DstForm::View,
    DstForm::UniqueView,
    DstForm::Wire,
];
const SRC_FORMS: [SrcForm; 3] = [SrcForm::Typed, SrcForm::View, SrcForm::Wire];

/// Pad `bits` with `pad` sentinel elements on both sides and return a
/// view payload covering just the middle — plus the parent payload and
/// its bytes, so the test can assert the whole backing allocation
/// (padding *and* viewed range) survives the reduce untouched.
fn view_payload(dtype: DType, bits: &[u64], pad: usize) -> (Payload, Payload, Vec<u8>) {
    let mut padded: Vec<u64> = vec![0xDEAD_BEEF_u64; pad];
    padded.extend_from_slice(bits);
    padded.extend(std::iter::repeat_n(0xDEAD_BEEF_u64, pad));
    let parent = Payload::new(buf_from_bits(dtype, &padded));
    let parent_bytes = bytes_of(&parent.to_buf());
    let view = parent.view(pad, bits.len());
    (view, parent, parent_bytes)
}

/// A destination payload of the given form, plus whatever sharer or
/// parent must come through the reduce untouched.
fn dst_payload(
    form: DstForm,
    dtype: DType,
    bits: &[u64],
    pad: usize,
) -> (Payload, Option<(Payload, Vec<u8>)>) {
    match form {
        DstForm::Unique => (Payload::new(buf_from_bits(dtype, bits)), None),
        DstForm::Aliased => {
            let p = Payload::new(buf_from_bits(dtype, bits));
            let sharer = p.clone();
            let bytes = bytes_of(&sharer.to_buf());
            (p, Some((sharer, bytes)))
        }
        DstForm::View => {
            // The full-range parent is the retained sharer.
            let (v, parent, parent_bytes) = view_payload(dtype, bits, pad);
            (v, Some((parent, parent_bytes)))
        }
        DstForm::UniqueView => {
            // Drop the parent handle: the view is the allocation's only
            // owner, yet must still take the fused path.
            let (v, parent, _) = view_payload(dtype, bits, pad);
            drop(parent);
            (v, None)
        }
        DstForm::Wire => (wire_payload(dtype, bits, pad), None),
    }
}

/// Wire bytes as the TCP receive path delivers them: the padded parent's
/// whole frame, narrowed to the range (a wire *view*).
fn wire_payload(dtype: DType, bits: &[u64], pad: usize) -> Payload {
    let mut raw = Vec::new();
    view_payload(dtype, bits, pad).1.extend_wire_bytes(&mut raw);
    let frame = Payload::from_wire(dtype, raw).expect("whole elements");
    frame.view(pad, bits.len())
}

fn src_payload(form: SrcForm, dtype: DType, bits: &[u64], pad: usize) -> Payload {
    match form {
        SrcForm::Typed => Payload::new(buf_from_bits(dtype, bits)),
        SrcForm::View => view_payload(dtype, bits, pad).0,
        SrcForm::Wire => wire_payload(dtype, bits, pad),
    }
}

/// `reduce_assign_pooled` of one destination form by one source form,
/// against the scalar reference.
fn check_reduce_assign(
    (dtype, op): (DType, ReduceOp),
    (dst_form, src_form): (DstForm, SrcForm),
    (dbits, sbits): (&[u64], &[u64]),
    pad: usize,
    seed_pool: bool,
) {
    let (mut dst, frozen) = dst_payload(dst_form, dtype, dbits, pad);
    let src = src_payload(src_form, dtype, sbits, pad);

    // A dirty pool buffer must be fully overwritten, never shine through;
    // a drained pool run proves the zero-fresh path too.
    let mut pool: Vec<TypedBuf> = if seed_pool {
        vec![buf_from_bits(
            dtype,
            &vec![0x5A5A_5A5A_5A5A_5A5Au64; dbits.len()],
        )]
    } else {
        Vec::new()
    };

    dst.reduce_assign_pooled(&src, op, &mut pool)
        .expect("shapes match");
    let what = format!("{dtype:?} {op:?} {dst_form:?} <- {src_form:?}");
    assert_folded(
        dtype,
        op,
        &bytes_of(&buf_from_bits(dtype, dbits)),
        &bytes_of(&buf_from_bits(dtype, sbits)),
        &bytes_of(&dst.to_buf()),
        &what,
    );
    if let Some((sharer, before)) = frozen {
        assert_eq!(bytes_of(&sharer.to_buf()), before, "{what}: sharer mutated");
    }
}

/// `Payload::fold_into` on the bare slice inside `dst`.
fn fold_into_buf(p: &Payload, dst: &mut TypedBuf, op: ReduceOp) -> Result<(), BufError> {
    match dst {
        TypedBuf::F32(v) => p.fold_into(&mut v[..], op),
        TypedBuf::F64(v) => p.fold_into(&mut v[..], op),
        TypedBuf::I32(v) => p.fold_into(&mut v[..], op),
        TypedBuf::I64(v) => p.fold_into(&mut v[..], op),
    }
}

/// `Payload::store_into` on the bare slice inside `dst`.
fn store_into_buf(p: &Payload, dst: &mut TypedBuf) -> Result<(), BufError> {
    match dst {
        TypedBuf::F32(v) => p.store_into(&mut v[..]),
        TypedBuf::F64(v) => p.store_into(&mut v[..]),
        TypedBuf::I32(v) => p.store_into(&mut v[..]),
        TypedBuf::I64(v) => p.store_into(&mut v[..]),
    }
}

/// The bare-slice entry points the direct ring algorithms use, for one
/// source form: the fold against the scalar reference, the store against
/// the source's own bytes.
fn check_slices(
    (dtype, op): (DType, ReduceOp),
    src_form: SrcForm,
    (dbits, sbits): (&[u64], &[u64]),
    pad: usize,
) {
    let src = src_payload(src_form, dtype, sbits, pad);
    let src_bytes = bytes_of(&buf_from_bits(dtype, sbits));
    let what = format!("{dtype:?} {op:?} slice <- {src_form:?}");

    let mut acc = buf_from_bits(dtype, dbits);
    let before = bytes_of(&acc);
    fold_into_buf(&src, &mut acc, op).expect("shapes match");
    assert_folded(dtype, op, &before, &src_bytes, &bytes_of(&acc), &what);

    let mut out = buf_from_bits(dtype, dbits);
    store_into_buf(&src, &mut out).expect("shapes match");
    assert_eq!(bytes_of(&out), src_bytes, "{what}: store_into");

    // The ranged store (the engine's `CopyAt`) writes its tile and only it.
    let (_, parent, mut frame) = view_payload(dtype, dbits, pad);
    let mut padded = parent.to_buf();
    src.copy_into_at(&mut padded, pad).expect("shapes match");
    let esz = dtype.size_of();
    frame[pad * esz..][..src_bytes.len()].copy_from_slice(&src_bytes);
    assert_eq!(bytes_of(&padded), frame, "{what}: copy_into_at");
    assert!(src.copy_into_at(&mut padded, 2 * pad + 1).is_err());

    // Shape errors are reported, not panicked, and write nothing.
    let other = DTYPES[(DTYPES.iter().position(|d| *d == dtype).unwrap() + 1) % 4];
    let mut wrong = TypedBuf::zeros(other, sbits.len());
    assert!(matches!(
        fold_into_buf(&src, &mut wrong, op),
        Err(BufError::DTypeMismatch { .. })
    ));
    let mut short = TypedBuf::zeros(dtype, sbits.len() - 1);
    assert!(matches!(
        store_into_buf(&src, &mut short),
        Err(BufError::LenMismatch { .. })
    ));
    assert!(wrong.is_null() && short.is_null());
}

/// Every special bit pattern against every other (NaN accumulator, NaN
/// source, both, neither; signed zeros; denormals), through every dtype,
/// op, destination form and source form. Not left to chance.
#[test]
fn every_form_folds_the_special_values_like_the_scalar_reference() {
    for dtype in DTYPES {
        for op in OPS {
            let (dbits, sbits) = special_grid(dtype, op);
            for src_form in SRC_FORMS {
                for dst_form in DST_FORMS {
                    for seed_pool in [false, true] {
                        check_reduce_assign(
                            (dtype, op),
                            (dst_form, src_form),
                            (&dbits, &sbits),
                            2,
                            seed_pool,
                        );
                    }
                }
                check_slices((dtype, op), src_form, (&dbits, &sbits), 2);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn reduce_assign_matches_the_scalar_reference(
        shape in (0usize..4, 0usize..4, 0usize..DST_FORMS.len(), 0usize..SRC_FORMS.len()),
        seed_pool in any::<bool>(),
        pad in 1usize..4,
        draws in collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 1..33),
    ) {
        let (dt, opi, dst_form, src_form) = shape;
        let (dtype, op) = (DTYPES[dt], OPS[opi]);
        let (dbits, sbits) = operands(dtype, op, &draws);
        check_reduce_assign(
            (dtype, op),
            (DST_FORMS[dst_form], SRC_FORMS[src_form]),
            (&dbits, &sbits),
            pad,
            seed_pool,
        );
    }

    #[test]
    fn fold_into_and_store_into_match_the_scalar_reference(
        shape in (0usize..4, 0usize..4, 0usize..SRC_FORMS.len()),
        pad in 1usize..4,
        draws in collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 1..33),
    ) {
        let (dt, opi, src_form) = shape;
        let (dtype, op) = (DTYPES[dt], OPS[opi]);
        let (dbits, sbits) = operands(dtype, op, &draws);
        check_slices((dtype, op), SRC_FORMS[src_form], (&dbits, &sbits), pad);
    }
}
