//! Property tests for the wire byte codec: `extend_le_bytes` /
//! `from_le_bytes` must round-trip **byte-exactly** across every dtype and
//! arbitrary (including odd and zero) lengths — the invariant the TCP
//! receive path's no-intermediate-copy decode relies on — and `combine` /
//! `combine_le_bytes` must land on the bytes of `common::reference`, a
//! scalar fold that shares no code with the crate's kernel. Buffers are
//! built from raw bit patterns, so denormals, negative zero, and NaN
//! payloads are all exercised; exactness is asserted on the re-encoded
//! bytes (NaN != NaN would foil a value-level comparison but must still
//! ship faithfully).

mod common;

use common::{assert_folded, buf_from_bits, bytes_of, operands, special_grid, DTYPES, OPS};
use pcoll_comm::{DType, ReduceOp, TypedBuf};
use proptest::prelude::*;

/// `combine` (typed source) and `combine_le_bytes` (source still on the
/// wire) against the scalar reference.
fn check_combines(dtype: DType, op: ReduceOp, abits: &[u64], bbits: &[u64]) {
    let acc0 = buf_from_bits(dtype, abits);
    let src = buf_from_bits(dtype, bbits);
    let (acc, wire) = (bytes_of(&acc0), bytes_of(&src));
    let check = |got: &TypedBuf, what: &str| {
        assert_folded(
            dtype,
            op,
            &acc,
            &wire,
            &bytes_of(got),
            &format!("{dtype:?} {op:?} {what}"),
        )
    };

    let mut via_buf = acc0.clone();
    via_buf.combine(&src, op).expect("shape matches");
    check(&via_buf, "combine");
    let mut via_bytes = acc0;
    via_bytes
        .combine_le_bytes(&wire, op)
        .expect("length matches");
    check(&via_bytes, "combine_le_bytes");
}

#[test]
fn combines_fold_the_special_values_like_the_scalar_reference() {
    for dtype in DTYPES {
        for op in OPS {
            let (abits, bbits) = special_grid(dtype, op);
            check_combines(dtype, op, &abits, &bbits);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn encode_decode_is_byte_exact(
        dt in 0usize..4,
        bits in collection::vec(any::<u64>(), 0..41),
    ) {
        let dtype = DTYPES[dt];
        let buf = buf_from_bits(dtype, &bits);
        let mut wire = Vec::new();
        buf.extend_le_bytes(&mut wire);
        prop_assert_eq!(wire.len(), buf.byte_len());
        let back = TypedBuf::from_le_bytes(dtype, &wire).expect("whole elements");
        prop_assert_eq!(back.dtype(), dtype);
        prop_assert_eq!(back.len(), buf.len());
        let mut wire2 = Vec::new();
        back.extend_le_bytes(&mut wire2);
        prop_assert_eq!(wire, wire2, "decode → re-encode must be identity");
    }

    #[test]
    fn ragged_byte_slices_are_rejected(dt in 0usize..4, nbytes in 0usize..64) {
        let dtype = DTYPES[dt];
        let raw = vec![0u8; nbytes];
        let decoded = TypedBuf::from_le_bytes(dtype, &raw);
        if nbytes % dtype.size_of() == 0 {
            prop_assert_eq!(decoded.expect("whole elements").len(), nbytes / dtype.size_of());
        } else {
            prop_assert!(decoded.is_none(), "ragged input must be rejected");
        }
    }

    #[test]
    fn combine_and_combine_le_bytes_match_the_scalar_reference(
        dt in 0usize..4,
        op in 0usize..4,
        draws in collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 1..33),
    ) {
        let (dtype, op) = (DTYPES[dt], OPS[op]);
        let (abits, bbits) = operands(dtype, op, &draws);
        check_combines(dtype, op, &abits, &bbits);
    }
}
