//! Algorithm-equivalence property tests: on random `(P, n, op,
//! quorum-mode, segment size)` the segmented-ring schedule, the
//! recursive-doubling schedule, and the matcher-based `DirectCollectives`
//! ring must produce identical allreduce results — byte-exact whenever
//! the inputs make the reduction order immaterial (min/max, and sums of
//! small integers, which f32 adds exactly in any order), tolerance-checked
//! for non-integral sums (the three algorithms legitimately reduce in
//! different orders). Includes the `n < P` degenerate-chunk case.
//!
//! Determinism discipline: the engine algorithms run under the
//! deterministic quorum modes (`Full`, `Chain(P)`), where a round cannot
//! complete before every rank's fresh deposit joined — so all three
//! paths compute the same mathematical sum and the comparison is sound.
//! (Race modes are covered by the mass-conservation tests in
//! `partial.rs` and `transport_conformance.rs`, where per-round
//! membership is timing-dependent by design.)

use pcoll::algos::DirectCollectives;
use pcoll::{AlgoSelector, AllreduceAlgo, PartialOpts, QuorumPolicy, RankCtx};
use pcoll_comm::{CollId, DType, Matcher, ReduceOp, TypedBuf, World, WorldConfig};
use proptest::prelude::*;

/// Deterministic per-(rank, index) contribution. Integer-valued in
/// [-8, 8], so f32 sums over ≤ 8 ranks are exact in any order.
fn int_val(rank: usize, i: usize) -> f32 {
    (((rank * 31 + i * 7) % 17) as i64 - 8) as f32
}

/// Per-rank round results of one algorithm.
type RoundResults = Vec<Vec<f32>>;

/// Run both engine algorithms in one world (same activation traffic
/// shape per collective) for `rounds` rounds and return per-rank
/// (rd, seg) result vectors.
fn run_engine_pair(
    p: usize,
    n: usize,
    op: ReduceOp,
    policy: QuorumPolicy,
    segment_elems: usize,
    rounds: u64,
) -> Vec<(RoundResults, RoundResults)> {
    World::launch(WorldConfig::instant(p).with_seed(5), move |c| {
        let ctx = RankCtx::new(c);
        let mut rd = ctx.partial_allreduce(
            DType::F32,
            n,
            op,
            policy,
            PartialOpts {
                algo: AlgoSelector::pinned(AllreduceAlgo::RecursiveDoubling),
                ..PartialOpts::default()
            },
        );
        let mut seg = ctx.partial_allreduce(
            DType::F32,
            n,
            op,
            policy,
            PartialOpts {
                algo: AlgoSelector {
                    pin: Some(AllreduceAlgo::SegmentedRing),
                    segment_bytes: segment_elems * 4,
                    pipeline_depth: 2,
                    ..AlgoSelector::default()
                },
                ..PartialOpts::default()
            },
        );
        let me = ctx.rank();
        let mut out = (Vec::new(), Vec::new());
        for r in 0..rounds {
            let contrib: Vec<f32> = (0..n).map(|i| int_val(me, i + r as usize)).collect();
            let buf = TypedBuf::from(contrib);
            let a = rd.allreduce(&buf);
            let b = seg.allreduce(&buf);
            out.0.push(a.data.as_f32().expect("f32 result").to_vec());
            out.1.push(b.data.as_f32().expect("f32 result").to_vec());
        }
        ctx.finalize();
        out
    })
}

/// The matcher-based direct ring on the same inputs.
fn run_direct_ring(p: usize, n: usize, op: ReduceOp, rounds: u64) -> Vec<Vec<Vec<f32>>> {
    World::launch(WorldConfig::instant(p).with_seed(5), move |c| {
        let me = c.rank();
        let (h, inbox) = c.split();
        let mut m = Matcher::new(inbox);
        let mut dc = DirectCollectives::new(&h, &mut m, CollId(8800));
        let mut out = Vec::new();
        for r in 0..rounds {
            let mut data: Vec<f32> = (0..n).map(|i| int_val(me, i + r as usize)).collect();
            dc.ring_allreduce_f32(&mut data, op);
            out.push(data);
        }
        out
    })
}

fn check_case(p: usize, n: usize, op: ReduceOp, policy: QuorumPolicy, segment_elems: usize) {
    const ROUNDS: u64 = 2;
    let engine = run_engine_pair(p, n, op, policy, segment_elems, ROUNDS);
    let ring = run_direct_ring(p, n, op, ROUNDS);

    // Bitwise identity across ranks, per algorithm (each chunk's total is
    // computed once, recursive doubling's exchanges are symmetric).
    for r in 1..p {
        assert_eq!(engine[0].0, engine[r].0, "rd rank {r} differs");
        assert_eq!(engine[0].1, engine[r].1, "seg rank {r} differs");
        assert_eq!(ring[0], ring[r], "ring rank {r} differs");
    }
    // Byte-exact agreement across all three algorithms: inputs are
    // integer-valued, so every reduction order yields the identical
    // bits for sum/min/max.
    assert_eq!(
        engine[0].0, engine[0].1,
        "recursive doubling vs segmented ring (p={p} n={n} {op:?} {policy:?} seg={segment_elems})"
    );
    assert_eq!(
        engine[0].1, ring[0],
        "segmented ring vs direct ring (p={p} n={n} {op:?} seg={segment_elems})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn random_shapes_agree_across_algorithms(
        p_exp in 1u32..=3,
        n in 1usize..80,
        op_idx in 0usize..3,
        full in any::<bool>(),
        segment_elems in 1usize..24,
    ) {
        let p = 1usize << p_exp;
        let op = [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max][op_idx];
        let policy = if full { QuorumPolicy::Full } else { QuorumPolicy::Chain(p) };
        check_case(p, n, op, policy, segment_elems);
    }
}

/// The degenerate-chunk case pinned explicitly: fewer elements than
/// ranks, segment size 1 (maximum raggedness — most ring chunks are
/// empty on most segments).
#[test]
fn n_smaller_than_p_degenerate_chunks() {
    for n in [1usize, 3, 7] {
        check_case(8, n, ReduceOp::Sum, QuorumPolicy::Chain(8), 1);
    }
}

/// Non-integral inputs: reduction orders differ between the algorithms,
/// so sums are compared under a relative tolerance (min/max stay exact
/// and are covered above).
#[test]
fn float_sums_agree_within_tolerance() {
    let (p, n, rounds) = (8usize, 67usize, 2u64);
    let engine = run_engine_pair(p, n, ReduceOp::Sum, QuorumPolicy::Full, 9, rounds);
    let ring = run_direct_ring(p, n, ReduceOp::Sum, rounds);
    // Re-run with irrational-ish values by scaling: reuse the integer
    // harness outputs as the baseline, then check the dedicated float
    // world below.
    let float_engine = World::launch(WorldConfig::instant(p).with_seed(6), move |c| {
        let ctx = RankCtx::new(c);
        let mut rd = ctx.partial_allreduce(
            DType::F32,
            n,
            ReduceOp::Sum,
            QuorumPolicy::Full,
            PartialOpts {
                algo: AlgoSelector::pinned(AllreduceAlgo::RecursiveDoubling),
                ..PartialOpts::default()
            },
        );
        let mut seg = ctx.partial_allreduce(
            DType::F32,
            n,
            ReduceOp::Sum,
            QuorumPolicy::Full,
            PartialOpts {
                algo: AlgoSelector::segmented(9 * 4),
                ..PartialOpts::default()
            },
        );
        let me = ctx.rank();
        let contrib: Vec<f32> = (0..n)
            .map(|i| ((me * 13 + i) as f32 * 0.37).sin())
            .collect();
        let buf = TypedBuf::from(contrib);
        let a = rd.allreduce(&buf).data.as_f32().unwrap().to_vec();
        let b = seg.allreduce(&buf).data.as_f32().unwrap().to_vec();
        ctx.finalize();
        (a, b)
    });
    for (rank, (a, b)) in float_engine.iter().enumerate() {
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            let tol = 1e-5 * x.abs().max(1.0);
            assert!(
                (x - y).abs() <= tol,
                "rank {rank} elem {i}: rd {x} vs seg {y}"
            );
        }
    }
    // And the integer harness stays byte-exact (sanity anchor).
    assert_eq!(engine[0].0, engine[0].1);
    assert_eq!(engine[0].1, ring[0]);
}

/// NaN under Min/Max. The engine's `Combine` folds with `if s < d { d =
/// s }`: a NaN accumulator stays NaN and a NaN source is skipped, so on
/// NaN-bearing input the result depends on which operand accumulates, and
/// algorithms agree only where they fold in the same operand roles. At
/// P = 2 those roles are fully determined, which ties all three paths to
/// recursive doubling (rank r's result is "r accumulates its partner"):
/// both rings finish chunk 0 (the lower half) on rank 1 and chunk 1 on
/// rank 0.
#[test]
fn nan_min_max_follow_the_engine_combine_bit_for_bit() {
    let (p, n, mid) = (2usize, 8usize, 4usize);
    // Per half: a NaN only on the rank that accumulates it under
    // recursive doubling (index 1 on rank 0, 6 on rank 1), a NaN only on
    // the other rank (2, 5), and a NaN on both (3).
    let val = |rank: usize, i: usize| -> f32 {
        if matches!((rank, i), (0, 1) | (1, 6) | (1, 2) | (0, 5) | (_, 3)) {
            f32::NAN
        } else {
            int_val(rank, i)
        }
    };
    let bits = |v: &[f32]| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
    for op in [ReduceOp::Min, ReduceOp::Max] {
        let engine = World::launch(WorldConfig::instant(p).with_seed(5), move |c| {
            let ctx = RankCtx::new(c);
            let contrib: Vec<f32> = (0..n).map(|i| val(ctx.rank(), i)).collect();
            let contrib = TypedBuf::from(contrib);
            let run = |algo: AlgoSelector| {
                let opts = PartialOpts {
                    algo,
                    ..PartialOpts::default()
                };
                let mut ar = ctx.partial_allreduce(DType::F32, n, op, QuorumPolicy::Full, opts);
                let out = ar.allreduce(&contrib);
                out.data.as_f32().expect("f32 result").to_vec()
            };
            let rd = run(AlgoSelector::pinned(AllreduceAlgo::RecursiveDoubling));
            // One segment, so the chunks are the direct ring's.
            let seg = run(AlgoSelector::segmented(n * 4));
            ctx.finalize();
            (rd, seg)
        });
        let direct = World::launch(WorldConfig::instant(p).with_seed(5), move |c| {
            let me = c.rank();
            let (h, inbox) = c.split();
            let mut m = Matcher::new(inbox);
            let mut dc = DirectCollectives::new(&h, &mut m, CollId(8801));
            let mut ring: Vec<f32> = (0..n).map(|i| val(me, i)).collect();
            dc.ring_allreduce_f32(&mut ring, op);
            ring
        });
        let (rd0, rd1) = (&engine[0].0, &engine[1].0);
        // The accumulator's NaN survives and the source's is skipped, or
        // the case exercises nothing.
        assert!(rd0[1].is_nan() && rd1[6].is_nan(), "{op:?}");
        assert!(!rd0[2].is_nan() && !rd1[5].is_nan(), "{op:?}");
        for r in 0..p {
            let (seg, ring) = (&engine[r].1, &direct[r]);
            assert_eq!(bits(seg), bits(ring), "{op:?} rank {r}: seg vs direct ring");
            assert_eq!(bits(&ring[..mid]), bits(&rd1[..mid]), "{op:?} rank {r}");
            assert_eq!(bits(&ring[mid..]), bits(&rd0[mid..]), "{op:?} rank {r}");
        }
    }
}

/// Rank `rank`'s contribution in `dtype`: small non-zero integers, so
/// sums and products over ≤ 8 ranks are exact in every dtype and order.
fn small_ints(dtype: DType, rank: usize, n: usize) -> TypedBuf {
    let val = |i: usize| [-2i32, -1, 1, 2, 3][(rank * 3 + i) % 5];
    match dtype {
        DType::F32 => (0..n).map(|i| val(i) as f32).collect::<Vec<_>>().into(),
        DType::F64 => (0..n).map(|i| f64::from(val(i))).collect::<Vec<_>>().into(),
        DType::I32 => (0..n).map(val).collect::<Vec<_>>().into(),
        DType::I64 => (0..n).map(|i| i64::from(val(i))).collect::<Vec<_>>().into(),
    }
}

fn le_bits(buf: &TypedBuf) -> Vec<u8> {
    let mut out = Vec::new();
    buf.extend_le_bytes(&mut out);
    out
}

/// The average is a step of the schedule (the ring scales each rank's own
/// reduced chunk before broadcasting it, recursive doubling its final
/// sum): for every dtype × op × world size × algorithm the result equals
/// the unscaled collective's followed by `TypedBuf::scale`, bit for bit
/// and on every rank — `1/P` (exactly 1 at P = 1, where no step is
/// emitted) and a factor that is not 1 anywhere.
#[test]
fn scale_in_schedule_equals_scale_of_the_result_bit_for_bit() {
    const N: usize = 13;
    const DTYPES: [DType; 4] = [DType::F32, DType::F64, DType::I32, DType::I64];
    const OPS: [ReduceOp; 4] = [ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Min, ReduceOp::Max];
    for p in [1usize, 2, 3, 4, 5, 8] {
        let factors = [1.0 / p as f64, 0.3];
        let out = World::launch(WorldConfig::instant(p).with_seed(5), move |c| {
            let ctx = RankCtx::new(c);
            let mut got = Vec::new();
            for dtype in DTYPES {
                let contrib = small_ints(dtype, ctx.rank(), N);
                for op in OPS {
                    for algo in [
                        AlgoSelector::pinned(AllreduceAlgo::RecursiveDoubling),
                        // Four-element segments: ragged chunks and tails.
                        AlgoSelector::segmented(4 * dtype.size_of()),
                    ] {
                        let run = |scale: Option<f64>| {
                            let opts = PartialOpts {
                                scale,
                                algo,
                                ..PartialOpts::default()
                            };
                            let mut ar =
                                ctx.partial_allreduce(dtype, N, op, QuorumPolicy::Full, opts);
                            ar.allreduce(&contrib).data.to_buf()
                        };
                        let plain = run(None);
                        for factor in factors {
                            let mut want = plain.clone();
                            want.scale(factor);
                            let case = format!("p={p} {dtype:?} {op:?} {:?} x{factor}", algo.pin);
                            assert_eq!(le_bits(&run(Some(factor))), le_bits(&want), "{case}");
                        }
                        got.push(le_bits(&run(Some(factors[1]))));
                    }
                }
            }
            ctx.finalize();
            got
        });
        for (rank, got) in out.iter().enumerate() {
            assert_eq!(got, &out[0], "p={p}: rank {rank} differs from rank 0");
        }
    }
}

/// A peer dies mid-round: every receive from it fires null, so partial
/// sums that would have passed through it never arrive, a rank's own chunk
/// can reach the scale step carrying nothing but its own contribution, and
/// tiles the corpse owned stay as the assembly buffer was born (zeros, in
/// a first round). The round still completes on every survivor, and every
/// element is a whole count of survivors' contributions, each scaled
/// exactly once — never a quarter (unscaled mass scaled twice) or a
/// multiple of four (never scaled).
#[test]
fn a_peer_down_mid_round_completes_with_each_survivor_scaled_once() {
    const DEAD: usize = 3;
    let (p, n) = (4usize, 8usize);
    for algo in [
        AlgoSelector::pinned(AllreduceAlgo::RecursiveDoubling),
        AlgoSelector::pinned(AllreduceAlgo::SegmentedRing),
    ] {
        let out = World::launch(WorldConfig::instant(p).with_seed(5), move |c| {
            let to_self = c.handle();
            let ctx = RankCtx::new(c);
            let opts = PartialOpts {
                scale: Some(0.25),
                algo,
                ..PartialOpts::default()
            };
            let mut ar =
                ctx.partial_allreduce(DType::F32, n, ReduceOp::Sum, QuorumPolicy::Full, opts);
            let result = (ctx.rank() != DEAD).then(|| {
                let round = ar.deposit(&TypedBuf::from(vec![4.0f32; n]));
                to_self.send_peer_down(ctx.rank(), DEAD);
                ar.wait_for(round)
                    .data
                    .as_f32()
                    .expect("f32 result")
                    .to_vec()
            });
            ctx.finalize();
            result
        });
        let survivors: Vec<&Vec<f32>> = out.iter().flatten().collect();
        assert_eq!(survivors.len(), p - 1);
        for v in &survivors {
            let whole_counts = v.iter().all(|x| [0.0, 1.0, 2.0, 3.0].contains(x));
            assert!(whole_counts, "{:?}: {v:?}", algo.pin);
        }
        // Somewhere the whole surviving mass arrived: three contributions
        // of 4.0, averaged over the original world of four.
        let full = survivors.iter().any(|v| v.contains(&3.0));
        assert!(full, "{:?}: no element saw all three survivors", algo.pin);
    }
}
