//! Allocation gate for the compute half of a step: `grad_step` followed by
//! `write_grads`, as the trainer calls them, must allocate nothing
//! tensor-sized once warm. The batch is read through a borrow, the first
//! `Dense` refills an activation cache that keeps its allocation, and every
//! dW accumulates straight into `Param::grad` — so what a step still
//! allocates is its `batch × width` activations (2 KiB on the models here)
//! and never a copy of the batch (64 KiB) or a `width × width` temporary
//! (256 KiB, five per step on the ResNet proxy before this gate).
//!
//! Method: a counting global allocator tallies every allocation and those
//! of 32 KiB and more, over a short and a long run after two warm-up steps.
//! This file holds exactly one `#[test]` because the counter is
//! process-global.

use eager_sgd_repro::nn::zoo::{hyperplane_mlp, resnet_proxy};
use eager_sgd_repro::nn::{Batch, DenseBatch, FeedForward, Model, Target};
use eager_sgd_repro::tensor::{Mat, TensorRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations at or above this size count as "tensor-sized": half the
/// smaller model's batch, an eighth of the larger model's dW.
const LARGE: usize = 32 * 1024;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LARGE_ALLOCS: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    if size >= LARGE {
        LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no memory
// the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// (all, tensor-sized) allocations of `steps` trainer-shaped steps.
fn allocs_of(model: &mut FeedForward, batch: &Batch, grads: &mut [f32], steps: u64) -> (u64, u64) {
    let before = (
        ALLOCS.load(Ordering::Relaxed),
        LARGE_ALLOCS.load(Ordering::Relaxed),
    );
    for _ in 0..steps {
        let loss = model.grad_step(batch);
        model.write_grads(grads);
        assert!(loss.is_finite() && grads.iter().any(|&g| g != 0.0));
    }
    (
        ALLOCS.load(Ordering::Relaxed) - before.0,
        LARGE_ALLOCS.load(Ordering::Relaxed) - before.1,
    )
}

#[test]
fn warm_grad_steps_allocate_nothing_tensor_sized_and_the_same_every_step() {
    let mut rng = TensorRng::new(3);
    let dense = |x: Mat, target: Target| Batch::Dense(DenseBatch { x, target });
    // The benchmark's two models at its batch size (`lat_*`/`skew_*`, `bw_*`).
    let mlp = hyperplane_mlp(8192, &mut rng);
    let mlp_batch = dense(
        Mat::randn(2, 8192, 1.0, &mut rng),
        Target::Values(Mat::randn(2, 1, 1.0, &mut rng)),
    );
    let proxy = resnet_proxy(256, 256, 2, 10, &mut rng);
    let proxy_batch = dense(
        Mat::randn(2, 256, 1.0, &mut rng),
        Target::Classes(vec![3, 7]),
    );

    for (name, mut model, batch) in [("mlp", mlp, mlp_batch), ("proxy", proxy, proxy_batch)] {
        let mut grads = vec![0.0f32; model.num_params()];
        allocs_of(&mut model, &batch, &mut grads, 2);
        let (short_all, short_large) = allocs_of(&mut model, &batch, &mut grads, 4);
        let (long_all, long_large) = allocs_of(&mut model, &batch, &mut grads, 16);
        assert_eq!(
            short_large + long_large,
            0,
            "{name}: a warm step allocated 32 KiB or more at once"
        );
        assert_eq!(
            short_all * 4,
            long_all,
            "{name}: allocations per step changed with the step count \
             ({short_all} over 4 steps, {long_all} over 16)"
        );
    }
}
