//! Zero-copy accounting: a steady-state in-process allreduce round must
//! perform O(1) payload-sized allocations per rank, *regardless of
//! fan-out*. Before the shared-`Payload` data path, every `SendData`
//! cloned its slot buffer per destination, so per-round allocations grew
//! with the schedule's fan-out; now a fan-out send is a reference-count
//! bump and only the app's deposit (plus an occasional copy-on-write
//! when a reduction target is still aliased by an in-flight message)
//! allocates payload-sized memory.
//!
//! Method: a counting global allocator tallies allocations at or above
//! half the payload size. For each world size we measure two runs that
//! differ only in round count; the difference isolates the steady-state
//! per-round cost from launch/teardown constants. This file holds
//! exactly one `#[test]` because the counter is process-global.

use eager_sgd_repro::comm::{DType, ReduceOp, TypedBuf, World, WorldConfig};
use eager_sgd_repro::prelude::RankCtx;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// 1 MiB of f32 per payload.
const ELEMS: usize = 256 * 1024;
/// Allocations at or above this size count as "payload-sized".
const LARGE: usize = ELEMS * 4 / 2;

struct CountingAlloc;

static LARGE_ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= LARGE {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= LARGE {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Payload-sized allocations across the whole world for `rounds` rounds
/// of a P-rank in-process sync allreduce.
fn run_and_count(p: usize, rounds: u64) -> u64 {
    let before = LARGE_ALLOCS.load(Ordering::Relaxed);
    World::launch(WorldConfig::instant(p).with_seed(3), move |c| {
        let ctx = RankCtx::new(c);
        let mut ar = ctx.sync_allreduce(DType::F32, ELEMS, ReduceOp::Sum, None);
        let contrib = TypedBuf::from(vec![1.0f32; ELEMS]);
        for _ in 0..rounds {
            let sum = ar.allreduce(&contrib);
            assert_eq!(sum.data.as_f32().unwrap()[0], p as f32);
        }
        ctx.finalize();
    });
    LARGE_ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn steady_state_round_allocations_are_o1_per_rank_regardless_of_fanout() {
    const R_SHORT: u64 = 4;
    const R_LONG: u64 = 16;
    // Per-rank-per-round slope: the long/short difference cancels the
    // launch-time constants (contribution buffers, warmup).
    let slope = |p: usize| -> f64 {
        let short = run_and_count(p, R_SHORT);
        let long = run_and_count(p, R_LONG);
        long.saturating_sub(short) as f64 / ((R_LONG - R_SHORT) as f64 * p as f64)
    };

    let slope2 = slope(2);
    let slope8 = slope(8);

    // O(1): a handful of payload-sized allocations per rank per round
    // (deposit clone + occasional copy-on-write), never proportional to
    // the tree fan-out or world size.
    assert!(
        slope2 <= 4.0,
        "P=2 steady state allocates {slope2:.2} payloads/rank/round"
    );
    assert!(
        slope8 <= 4.0,
        "P=8 steady state allocates {slope8:.2} payloads/rank/round"
    );
    // Fan-out independence: quadrupling the world (and deepening the
    // tree) must not change the per-rank cost class.
    assert!(
        (slope8 - slope2).abs() <= 2.0,
        "per-rank allocation rate moved with fan-out: P=2 → {slope2:.2}, P=8 → {slope8:.2}"
    );
}
