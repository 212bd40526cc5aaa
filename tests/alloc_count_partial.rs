//! The memory-diet headline gate: a steady-state partial-allreduce round
//! must perform **zero** tensor-sized allocations per rank when the
//! caller reuses its contribution buffer. The engine's completion-drop
//! GC harvests every instance's buffers into the scratch pool the moment
//! the instance completes, fused copy-on-write reductions recycle pooled
//! buffers instead of materializing fresh ones, and the owned-deposit
//! path writes through the resident send buffer — so after launch
//! constants, no allocation in the round is as large as the tensor.
//!
//! The trainer-shaped variant (a fresh gradient buffer moved in every
//! round) is also gated: exactly the caller's own allocation per round,
//! nothing from the engine, because `deposit_owned` *moves* the unique
//! buffer in and recycles the displaced one.
//!
//! Method: a counting global allocator tallies allocations at or above
//! half the tensor size; two runs differing only in round count isolate
//! the per-round slope from launch/teardown constants (same long-minus-
//! short cancellation as `alloc_count.rs`). This file holds exactly one
//! `#[test]` because the counter is process-global.
//!
//! The same allocator also tracks *live* bytes (allocated minus freed),
//! and the same long-minus-short method gates per-round state: whatever
//! a round leaves behind on any rank — a map entry, a log line — shows up
//! as a slope in bytes per round per rank, and must be ~0 with the
//! default options.

use eager_sgd_repro::comm::{DType, Payload, ReduceOp, TypedBuf, World, WorldConfig};
use eager_sgd_repro::pcoll::{PartialOpts, QuorumPolicy, RankCtx};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// 1 MiB of f32 per tensor — large enough that at P=8 the default
/// selector takes the segmented-ring path, so the gate covers both the
/// recursive-doubling schedule (P=2) and the segmented one (P=8).
const ELEMS: usize = 256 * 1024;
/// Allocations at or above this size count as "tensor-sized".
const LARGE: usize = ELEMS * 4 / 2;

struct CountingAlloc;

static LARGE_ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed, process-wide.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no memory
// the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= LARGE {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= LARGE {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Tensor-sized allocations across the whole world for `rounds` rounds
/// of a P-rank Full-quorum partial allreduce. `fresh_contrib` selects
/// the trainer shape (allocate + move a new buffer every round) over the
/// steady-state shape (retained payload, refcount-bump clone per round).
fn run_and_count(p: usize, rounds: u64, fresh_contrib: bool) -> u64 {
    let before = LARGE_ALLOCS.load(Ordering::Relaxed);
    World::launch(WorldConfig::instant(p).with_seed(5), move |c| {
        let ctx = RankCtx::new(c);
        let mut ar = ctx.partial_allreduce(
            DType::F32,
            ELEMS,
            ReduceOp::Sum,
            QuorumPolicy::Full,
            PartialOpts::default(),
        );
        let retained = Payload::new(TypedBuf::from(vec![1.0f32; ELEMS]));
        for _ in 0..rounds {
            let contrib = if fresh_contrib {
                Payload::new(TypedBuf::from(vec![1.0f32; ELEMS]))
            } else {
                retained.clone()
            };
            let out = ar.allreduce_owned(contrib);
            assert_eq!(out.data.as_f32().unwrap()[0], p as f32);
        }
        ctx.finalize();
    });
    LARGE_ALLOCS.load(Ordering::Relaxed) - before
}

/// Tensor-sized allocations across the whole world when each rank runs
/// one same-shape blocking collective after another on one engine:
/// collective `i` is registered once collective `i - 1` has gone idle on
/// every rank, and runs `rounds[i]` rounds on a retained contribution.
fn run_and_count_in_sequence(p: usize, rounds: &'static [u64]) -> u64 {
    let before = LARGE_ALLOCS.load(Ordering::Relaxed);
    World::launch(WorldConfig::instant(p).with_seed(5), move |c| {
        let ctx = RankCtx::new(c);
        let retained = Payload::new(TypedBuf::from(vec![1.0f32; ELEMS]));
        for &rounds in rounds {
            let mut ar = ctx.sync_allreduce(DType::F32, ELEMS, ReduceOp::Sum, None);
            for _ in 0..rounds {
                let out = ar.allreduce_owned(retained.clone());
                assert_eq!(out.data.as_f32().unwrap()[0], p as f32);
            }
            ctx.barrier();
        }
        ctx.finalize();
    });
    LARGE_ALLOCS.load(Ordering::Relaxed) - before
}

/// Process-wide live bytes after `rounds` small Full rounds on 4 ranks
/// with the default options, read by rank 0 while every rank idles
/// between two host barriers just before teardown. The tensor is tiny
/// (8 elements) so the engine's scratch pool fills within the short run
/// and does not masquerade as growth.
fn live_bytes_after(rounds: u64) -> i64 {
    let live = World::launch(WorldConfig::instant(4).with_seed(5), move |c| {
        let ctx = RankCtx::new(c);
        let mut ar = ctx.partial_allreduce(
            DType::F32,
            8,
            ReduceOp::Sum,
            QuorumPolicy::Full,
            PartialOpts::default(),
        );
        let contrib = TypedBuf::from(vec![1.0f32; 8]);
        for _ in 0..rounds {
            let _ = ar.allreduce(&contrib);
        }
        ctx.host_barrier();
        let live = LIVE_BYTES.load(Ordering::Relaxed);
        ctx.host_barrier();
        ctx.finalize();
        live
    });
    live[0]
}

#[test]
fn steady_state_partial_allreduce_rounds_are_allocation_free() {
    const R_SHORT: u64 = 6;
    const R_LONG: u64 = 22;
    let slope = |p: usize, fresh: bool| -> f64 {
        let short = run_and_count(p, R_SHORT, fresh);
        let long = run_and_count(p, R_LONG, fresh);
        long.saturating_sub(short) as f64 / ((R_LONG - R_SHORT) as f64 * p as f64)
    };

    // Retained contribution: the headline. Zero tensor-sized allocations
    // per rank per round once the scratch pool is primed — on both the
    // recursive-doubling (P=2) and segmented-ring (P=8) schedules.
    let rd = slope(2, false);
    let seg = slope(8, false);
    assert!(
        rd < 0.05,
        "P=2 steady state allocates {rd:.3} tensors/rank/round, expected 0"
    );
    assert!(
        seg < 0.05,
        "P=8 steady state allocates {seg:.3} tensors/rank/round, expected 0"
    );

    // The engine-wide pool: a second same-shape collective, registered
    // after the first went idle, draws its copy-on-write and assembly
    // buffers from what the first one's completed rounds left behind. Its
    // steady state is allocation-free like the first's, and its whole
    // life costs its own frontend buffers (send + receive at
    // registration, one snapshot swap) and nothing to prime the engine —
    // with a pool per collective it paid the first one's warm-up again
    // (5 per rank instead of 3).
    for p in [2usize, 8] {
        let first_only = run_and_count_in_sequence(p, &[R_SHORT]);
        let short = run_and_count_in_sequence(p, &[R_SHORT, R_SHORT]);
        let long = run_and_count_in_sequence(p, &[R_SHORT, R_LONG]);
        let slope = long.saturating_sub(short) as f64 / ((R_LONG - R_SHORT) as f64 * p as f64);
        assert!(
            slope < 0.05,
            "P={p}: a second collective allocates {slope:.3} tensors/rank/round, expected 0"
        );
        let life = short.saturating_sub(first_only) as f64 / p as f64;
        assert!(
            life <= 4.0,
            "P={p}: a second collective's whole life allocates {life:.2} tensors/rank, \
             expected 3 (its own send/receive/spare buffers)"
        );
    }

    // Trainer shape: the caller's fresh gradient is the round's only
    // tensor-sized allocation; `deposit_owned` moves it in and recycles
    // the displaced buffer, adding nothing of its own. Bound at 1 plus
    // slack for an occasional copy-on-write, well below the caller+copy
    // cost class (2) the move is meant to eliminate.
    let fresh = slope(8, true);
    assert!(
        (0.95..1.5).contains(&fresh),
        "fresh-contribution rounds allocate {fresh:.3} tensors/rank/round, \
         expected ~1 (the caller's own gradient buffer)"
    );

    // Per-round state is bounded: nothing a completed round touched stays
    // allocated. (A per-round map that is never pruned measured 48 B per
    // round per rank here.)
    const L_SHORT: u64 = 2_000;
    const L_LONG: u64 = 34_000;
    let grown = live_bytes_after(L_LONG) - live_bytes_after(L_SHORT);
    let per_round = grown as f64 / ((L_LONG - L_SHORT) as f64 * 4.0);
    assert!(
        per_round < 4.0,
        "live heap grows {per_round:.3} B per round per rank, expected ~0"
    );
}
