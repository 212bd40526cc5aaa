//! Shared by the kernel property tests: operands built from raw bit
//! patterns, and a scalar reference for `acc ⊕ src` that shares no code
//! with the crate's kernel — it decodes both operands from bytes, applies
//! the operator one element at a time, and re-encodes. Everything is
//! compared as bytes, because NaN != NaN would foil a value comparison.
//!
//! One case is not a single bit pattern: a float Sum or Prod of *two*
//! NaNs. IEEE 754 §6.2.3 only says the result carries the payload of one
//! of them, Rust leaves the choice open, and LLVM commutes `fadd`/`fmul`
//! operands freely, so a vectorised loop and a scalar one may each pick a
//! different input (release builds do). [`assert_folded`] accepts either
//! input's quieted bits there and nothing else; every other element,
//! Min/Max over NaNs included, must match the reference bit for bit.

#![allow(dead_code)]

use pcoll_comm::{DType, ReduceOp, TypedBuf};

pub const DTYPES: [DType; 4] = [DType::F32, DType::F64, DType::I32, DType::I64];
pub const OPS: [ReduceOp; 4] = [ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Min, ReduceOp::Max];

/// Build a buffer of `dtype` from raw 64-bit patterns (truncated to the
/// element width), so every representable bit pattern can appear.
pub fn buf_from_bits(dtype: DType, bits: &[u64]) -> TypedBuf {
    match dtype {
        DType::F32 => TypedBuf::from(
            bits.iter()
                .map(|&b| f32::from_bits(b as u32))
                .collect::<Vec<_>>(),
        ),
        DType::F64 => TypedBuf::from(bits.iter().map(|&b| f64::from_bits(b)).collect::<Vec<_>>()),
        DType::I32 => TypedBuf::from(bits.iter().map(|&b| b as i32).collect::<Vec<_>>()),
        DType::I64 => TypedBuf::from(bits.iter().map(|&b| b as i64).collect::<Vec<_>>()),
    }
}

pub fn bytes_of(buf: &TypedBuf) -> Vec<u8> {
    let mut w = Vec::new();
    buf.extend_le_bytes(&mut w);
    w
}

/// The bit patterns uniform draws almost never produce: quiet and
/// signalling NaNs with payloads and either sign, both zeros, the
/// smallest and largest denormals, the infinities, ±1; the integer
/// extremes.
pub fn specials(dtype: DType) -> &'static [u64] {
    match dtype {
        DType::F32 => &[
            0x7FC0_0000,
            0x7F80_0001,
            0xFFC1_2345,
            0xFFA0_0000,
            0x8000_0000,
            0x0000_0000,
            0x0000_0001,
            0x807F_FFFF,
            0x7F80_0000,
            0xFF80_0000,
            0x3F80_0000,
            0xBF80_0000,
        ],
        DType::F64 => &[
            0x7FF8_0000_0000_0000,
            0x7FF0_0000_0000_0001,
            0xFFF8_0000_0012_3456,
            0xFFF4_0000_0000_0000,
            0x8000_0000_0000_0000,
            0x0000_0000_0000_0000,
            0x0000_0000_0000_0001,
            0x800F_FFFF_FFFF_FFFF,
            0x7FF0_0000_0000_0000,
            0xFFF0_0000_0000_0000,
            0x3FF0_0000_0000_0000,
            0xBFF0_0000_0000_0000,
        ],
        DType::I32 => &[0x8000_0000, 0x7FFF_FFFF, 0xFFFF_FFFF, 0, 1],
        DType::I64 => &[
            0x8000_0000_0000_0000,
            0x7FFF_FFFF_FFFF_FFFF,
            0xFFFF_FFFF_FFFF_FFFF,
            0,
            1,
        ],
    }
}

/// Every special against every special: the accumulator and source bit
/// patterns of one buffer pair that meets each NaN-accumulator /
/// NaN-source / both / neither combination.
pub fn special_grid(dtype: DType, op: ReduceOp) -> (Vec<u64>, Vec<u64>) {
    let s = specials(dtype);
    let raw: Vec<(u64, u64)> = s
        .iter()
        .flat_map(|&a| s.iter().map(move |&b| (a, b)))
        .collect();
    clamp_integer_arithmetic(dtype, op, raw)
}

/// Turn `(acc, src, spice)` draws into operand bit patterns: the spice
/// word swaps about a quarter of each side for a [`specials`] entry.
pub fn operands(dtype: DType, op: ReduceOp, draws: &[(u64, u64, u64)]) -> (Vec<u64>, Vec<u64>) {
    let s = specials(dtype);
    let pick = |x: u64, spice: u64| {
        if spice & 3 == 0 {
            s[(spice >> 8) as usize % s.len()]
        } else {
            x
        }
    };
    let raw = draws
        .iter()
        .map(|&(a, b, spice)| (pick(a, spice), pick(b, spice >> 32)))
        .collect();
    clamp_integer_arithmetic(dtype, op, raw)
}

/// Integer Sum/Prod at full bit generality overflow-panics in debug
/// builds (in the kernel and in the reference alike); those operands are
/// mapped into a small range. Floats, and integer Min/Max, stay general.
fn clamp_integer_arithmetic(
    dtype: DType,
    op: ReduceOp,
    raw: Vec<(u64, u64)>,
) -> (Vec<u64>, Vec<u64>) {
    let clamp =
        matches!(dtype, DType::I32 | DType::I64) && matches!(op, ReduceOp::Sum | ReduceOp::Prod);
    raw.into_iter()
        .map(|(a, b)| if clamp { (a % 1000, b % 1000) } else { (a, b) })
        .unzip()
}

/// The scalar reference: `acc[i] ⊕ src[i]` over the little-endian bytes
/// of two `dtype` buffers, as little-endian bytes. The accumulator is the
/// left operand; Min/Max keep it unless the source compares strictly
/// below/above, so a NaN on either side leaves the accumulator's bits.
pub fn reference(dtype: DType, op: ReduceOp, acc: &[u8], src: &[u8]) -> Vec<u8> {
    assert_eq!(acc.len(), src.len());
    macro_rules! scalar {
        ($t:ty) => {{
            const N: usize = std::mem::size_of::<$t>();
            acc.chunks_exact(N)
                .zip(src.chunks_exact(N))
                .flat_map(|(a, b)| {
                    let a = <$t>::from_le_bytes(a.try_into().unwrap());
                    let b = <$t>::from_le_bytes(b.try_into().unwrap());
                    let r = match op {
                        ReduceOp::Sum => a + b,
                        ReduceOp::Prod => a * b,
                        ReduceOp::Min => {
                            if b < a {
                                b
                            } else {
                                a
                            }
                        }
                        ReduceOp::Max => {
                            if b > a {
                                b
                            } else {
                                a
                            }
                        }
                    };
                    r.to_le_bytes()
                })
                .collect()
        }};
    }
    match dtype {
        DType::F32 => scalar!(f32),
        DType::F64 => scalar!(f64),
        DType::I32 => scalar!(i32),
        DType::I64 => scalar!(i64),
    }
}

/// Assert `got` is `acc ⊕ src`: the [`reference`] bits, except that a
/// float Sum/Prod of two NaNs may carry either input's payload (module
/// docs).
pub fn assert_folded(dtype: DType, op: ReduceOp, acc: &[u8], src: &[u8], got: &[u8], what: &str) {
    let expect = reference(dtype, op, acc, src);
    assert_eq!(got.len(), expect.len(), "{what}: length");
    let n = dtype.size_of();
    let bits = |b: &[u8]| {
        b.iter()
            .rev()
            .fold(0u64, |x, &byte| x << 8 | u64::from(byte))
    };
    // (exponent mask, quiet bit) of the dtype's float format.
    let float = match dtype {
        DType::F32 => Some((0x7F80_0000u64, 1u64 << 22)),
        DType::F64 => Some((0x7FF0_0000_0000_0000, 1 << 51)),
        DType::I32 | DType::I64 => None,
    };
    for (i, (g, e)) in got.chunks_exact(n).zip(expect.chunks_exact(n)).enumerate() {
        if g == e {
            continue;
        }
        let (a, b) = (bits(&acc[i * n..][..n]), bits(&src[i * n..][..n]));
        let either_nan_payload = float.is_some_and(|(exp, quiet)| {
            let is_nan = |x: u64| x & exp == exp && x & (quiet | (quiet - 1)) != 0;
            matches!(op, ReduceOp::Sum | ReduceOp::Prod)
                && is_nan(a)
                && is_nan(b)
                && [a | quiet, b | quiet].contains(&bits(g))
        });
        assert!(
            either_nan_payload,
            "{what}: element {i}: {a:#x} {op:?} {b:#x} gave {:#x}, reference {:#x}",
            bits(g),
            bits(e)
        );
    }
}
