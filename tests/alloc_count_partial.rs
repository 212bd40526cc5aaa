//! The memory-diet headline gate: a steady-state partial-allreduce round
//! must perform **zero** tensor-sized allocations per rank when the
//! caller reuses its contribution buffer. The engine's completion-drop
//! GC harvests every instance's buffers into the scratch pool the moment
//! the instance completes, fused copy-on-write reductions recycle pooled
//! buffers instead of materializing fresh ones, and the owned-deposit
//! path writes through the resident send buffer — so after launch
//! constants, no allocation in the round is as large as the tensor.
//!
//! The fresh-contribution variant (a new buffer moved in every round, the
//! benchmark's `allreduce_owned` loops) is also gated: exactly the caller's
//! own allocation per round, nothing from the engine, because
//! `deposit_owned` *moves* the unique buffer in and recycles the displaced
//! one. The trainer's own shape — `deposit_fill` writing the gradient into
//! the resident send buffer, the result read in place — allocates nothing,
//! and so does a whole `run_rank` step, eager or synchronous.
//!
//! The cycle also has to survive a pool that other shapes filled first:
//! one engine serves every collective of its rank, and a retention bound
//! on the pool as a whole (128 buffers, whatever their shapes) stopped
//! harvesting once four dozen small collectives had left their buffers
//! behind — the large collective that came next then allocated its
//! assembly buffer anew every round. Retention is per shape, so what
//! arrived first cannot crowd out what is running now.
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
use eager_sgd_repro::core::{run_rank, ImageWorkload, SgdVariant, TrainerConfig};
use eager_sgd_repro::data::GaussianMixtureTask;
use eager_sgd_repro::nn::{zoo::resnet_proxy, Sgd};
use eager_sgd_repro::pcoll::{PartialOpts, QuorumPolicy, RankCtx};
use eager_sgd_repro::tensor::TensorRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

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

/// How a round's contribution reaches the collective.
#[derive(Clone, Copy)]
enum Deposit {
    /// A retained payload, refcount-bump clone per round.
    Retained,
    /// Allocate + move a new buffer every round.
    Fresh,
    /// Write into the send buffer in place and read the result in place.
    InPlace,
}

/// Tensor-sized allocations across the whole world for `rounds` rounds
/// of a P-rank Full-quorum partial allreduce — after `crowd` small
/// collectives, each of its own length, ran a few rounds on the same
/// engines and went idle.
fn run_and_count(p: usize, rounds: u64, deposit: Deposit, crowd: usize) -> u64 {
    let before = LARGE_ALLOCS.load(Ordering::Relaxed);
    World::launch(WorldConfig::instant(p).with_seed(5), move |c| {
        let ctx = RankCtx::new(c);
        for len in 1..=crowd {
            let mut small = ctx.sync_allreduce(DType::F32, len, ReduceOp::Sum, None);
            for _ in 0..4 {
                let _ = small.allreduce(&TypedBuf::from(vec![1.0f32; len]));
            }
        }
        let mut ar = ctx.partial_allreduce(
            DType::F32,
            ELEMS,
            ReduceOp::Sum,
            QuorumPolicy::Full,
            PartialOpts::default(),
        );
        let retained = Payload::new(TypedBuf::from(vec![1.0f32; ELEMS]));
        for _ in 0..rounds {
            let out = match deposit {
                Deposit::Retained => ar.allreduce_owned(retained.clone()),
                Deposit::Fresh => {
                    ar.allreduce_owned(Payload::new(TypedBuf::from(vec![1.0f32; ELEMS])))
                }
                Deposit::InPlace => {
                    let round = ar.deposit_fill(|send| send.as_f32_mut().unwrap().fill(1.0));
                    ar.wait_for(round)
                }
            };
            assert_eq!(out.data.as_f32().unwrap()[0], p as f32);
        }
        ctx.finalize();
    });
    LARGE_ALLOCS.load(Ordering::Relaxed) - before
}

/// Tensor-sized allocations across the whole world for one `run_rank`
/// call of `steps` fused steps on 4 ranks: a 331,530-parameter model
/// (1.33 MB gradient, segmented ring), no evaluation, one closing weight
/// synchronisation for the eager variant.
fn run_rank_and_count(variant: SgdVariant, steps: usize) -> u64 {
    let task = Arc::new(GaussianMixtureTask::new(256, 10, 4096, 0.9, 16, 7));
    let before = LARGE_ALLOCS.load(Ordering::Relaxed);
    World::launch(WorldConfig::instant(4).with_seed(5), move |c| {
        let ctx = RankCtx::new(c);
        let mut model = resnet_proxy(256, 256, 2, 10, &mut TensorRng::new(11));
        let mut opt = Sgd::new(0.01);
        let workload = ImageWorkload {
            task: Arc::clone(&task),
            local_batch: 4,
            train_eval_batches: 0,
        };
        let mut cfg = TrainerConfig::new(variant, 1, steps, 0.01);
        cfg.eval_every = usize::MAX;
        let log = run_rank(&ctx, &mut model, &mut opt, &workload, &cfg);
        assert_eq!(log.steps, steps as u64);
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
    let slope_after = |p: usize, deposit: Deposit, crowd: usize| -> f64 {
        let short = run_and_count(p, R_SHORT, deposit, crowd);
        let long = run_and_count(p, R_LONG, deposit, crowd);
        long.saturating_sub(short) as f64 / ((R_LONG - R_SHORT) as f64 * p as f64)
    };
    let slope = |p: usize, deposit: Deposit| slope_after(p, deposit, 0);

    // Retained contribution: the headline. Zero tensor-sized allocations
    // per rank per round once the scratch pool is primed — on both the
    // recursive-doubling (P=2) and segmented-ring (P=8) schedules.
    let rd = slope(2, Deposit::Retained);
    let seg = slope(8, Deposit::Retained);
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

    // A pool other shapes filled first: 48 small collectives leave far
    // more than 128 buffers behind per engine between them, and the ring
    // that runs next still gets its contribution back as its assembly
    // buffer every round.
    let crowded = slope_after(8, Deposit::Retained, 48);
    assert!(
        crowded < 0.05,
        "P=8 behind a crowded pool allocates {crowded:.3} tensors/rank/round, expected 0"
    );

    // Fresh-contribution shape: the caller's new buffer is the round's
    // only tensor-sized allocation; `deposit_owned` moves it in and
    // recycles the displaced buffer, adding nothing of its own. Bound at 1
    // plus slack for an occasional copy-on-write, well below the
    // caller+copy cost class (2) the move is meant to eliminate.
    let fresh = slope(8, Deposit::Fresh);
    assert!(
        (0.95..1.5).contains(&fresh),
        "fresh-contribution rounds allocate {fresh:.3} tensors/rank/round, \
         expected ~1 (the caller's own gradient buffer)"
    );

    // In-place shape: the contribution is written into the resident send
    // buffer and the result read where it landed, so the caller brings no
    // tensor of its own and the round allocates none.
    let in_place = slope(8, Deposit::InPlace);
    assert!(
        in_place < 0.05,
        "in-place rounds allocate {in_place:.3} tensors/rank/round, expected 0"
    );

    // The trainer is that shape end to end: a steady-state `run_rank`
    // step makes no tensor-sized allocation, eager or synchronous. (With
    // a per-step `to_vec` in and a per-step `Vec` out it made two.)
    for variant in [SgdVariant::EagerMajority, SgdVariant::SynchDeep500] {
        let (short, long) = (40, 120);
        let grown =
            run_rank_and_count(variant, long).saturating_sub(run_rank_and_count(variant, short));
        let per_step = grown as f64 / ((long - short) as f64 * 4.0);
        assert!(
            per_step < 0.05,
            "{variant:?}: a run_rank step allocates {per_step:.3} tensors/rank, expected 0"
        );
    }

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
