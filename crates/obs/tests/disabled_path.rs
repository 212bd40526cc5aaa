//! The recorder's "near-zero cost when disabled" promise, enforced with
//! a counting global allocator instead of trust:
//!
//! - `record` on a disabled handle allocates nothing and never builds
//!   the event (building it *would* allocate — the probe builds a heap
//!   `String` precisely so the allocator doubles as proof the closure
//!   never ran);
//! - `record` below an enabled recorder's level is just as cold;
//! - an enabled-but-quiet recorder never materializes its ring — the
//!   slot array is paid for by the first *recorded* event, not by every
//!   launch that merely turns tracing on.
//!
//! This file holds exactly one `#[test]` because the allocation counter
//! is process-global.

use pcoll_obs::{Clock, EventKind, Recorder, LEVEL_SPANS, LEVEL_VERBOSE};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

/// An event whose construction must allocate (a heap `String` label).
fn probe() -> EventKind {
    let label = std::hint::black_box(String::from("majority"));
    EventKind::PeerDown {
        peer: label.len() as u32,
    }
}

#[test]
fn cold_record_paths_never_allocate() {
    // Disabled handle: the whole call is one `None` check.
    let disabled = Recorder::disabled();
    let n = allocs_during(|| {
        for _ in 0..1_000 {
            disabled.record(LEVEL_SPANS, probe);
        }
    });
    assert_eq!(n, 0, "disabled record allocated {n} times");
    assert_eq!(disabled.recorded(), 0);

    // Enabled at span level, asked for a verbose event: one relaxed
    // atomic load and out.
    let spans = Recorder::new(0, Clock::wall(), LEVEL_SPANS, 1024);
    let n = allocs_during(|| {
        for _ in 0..1_000 {
            spans.record(LEVEL_VERBOSE, probe);
        }
    });
    assert_eq!(n, 0, "level-gated record allocated {n} times");
    assert_eq!(spans.recorded(), 0);

    // Quiet ring: enabled, nothing recorded — draining finds nothing
    // and nothing has been allocated for slots.
    let quiet = Recorder::new(0, Clock::wall(), LEVEL_SPANS, 1024);
    let n = allocs_during(|| assert!(quiet.drain().is_empty()));
    assert_eq!(n, 0, "draining a quiet ring allocated {n} times");

    // The first recorded event is what materializes the ring.
    let n = allocs_during(|| quiet.record(LEVEL_SPANS, probe));
    assert!(n >= 1, "first event must materialize the ring");
    let drained = quiet.drain();
    assert_eq!(drained.len(), 1, "the materialized ring holds the event");
    assert_eq!(drained[0].kind.name(), "peer_down");
}
