//! The run loop allocates nothing per event once it is warm.
//!
//! A counting global allocator counts the allocations made on the test's
//! own thread, so the harness and other tests do not disturb the count.
//! After `smoke.peas` (seed 1) has run for 300 s, every one-second window
//! of [300 s, 1000 s) that holds no metrics sample must allocate nothing.
//! A sample may allocate (it appends to the series and builds a coverage
//! vector); a PEAS input, a frame or a timer may not.
//!
//! `GlobalAlloc` is an unsafe trait, hence the one `allow` below; the
//! workspace lint denies `unsafe_code` everywhere else.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;
use std::rc::Rc;

use peas_repro::des::time::SimTime;
use peas_repro::scenario::load_compiled;
use peas_repro::simulation::{TraceEvent, World};

/// Forwards to the system allocator and counts, per thread, every call
/// that can hand out fresh memory: `alloc`, `alloc_zeroed` and `realloc`.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread being torn down can still allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method passes its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract. Counting touches only a
// const-initialised thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn run_loop_allocates_nothing_between_samples() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios/smoke.peas");
    let config = load_compiled(&path)
        .expect("smoke.peas compiles")
        .base
        .with_seed(1);
    let period = config.metrics.sample_period.as_nanos();
    let second = SimTime::from_secs(1).as_nanos();
    let mut world = World::new(config);
    // Frames sent, so the test can tell a busy network from an idle one.
    let frames = Rc::new(Cell::new(0u64));
    let sink = Rc::clone(&frames);
    world.set_trace(move |_: SimTime, e: &TraceEvent| {
        if matches!(e, TraceEvent::FrameSent { .. }) {
            sink.set(sink.get() + 1);
        }
    });
    assert!(
        world.run_until(SimTime::from_secs(300)),
        "warm-up ended the run"
    );
    let warm_frames = frames.get();

    let mut quiet_windows = 0;
    let mut dirty = Vec::new();
    for t in 300..1000u64 {
        // [t s, t + 1 s) holds a sample iff the first multiple of the
        // period at or after t s falls before t + 1 s.
        let start = t * second;
        let holds_sample = start.div_ceil(period) * period < start + second;
        let before = allocations();
        world.run_until(SimTime::from_secs(t + 1));
        let made = allocations() - before;
        if !holds_sample {
            quiet_windows += 1;
            if made > 0 {
                dirty.push((t, made));
            }
        }
    }
    assert_eq!(quiet_windows, 672, "700 windows less one per 25 s sample");
    assert!(
        dirty.is_empty(),
        "{} of {quiet_windows} sample-free windows allocated; (second, allocations): {dirty:?}",
        dirty.len()
    );
    let sent = frames.get() - warm_frames;
    assert!(sent > 100, "only {sent} frames went out in [300 s, 1000 s)");
}
