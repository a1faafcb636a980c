//! `IntervalMap` range operations rewrite the map in place: once its run and value arena have
//! grown to the map's high-water fragment count, splitting, filling and draining allocate
//! nothing.
//!
//! This binary installs its own counting global allocator. The count is per thread, so the test
//! harness's other threads never disturb a measurement taken around one call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use weakdep_regions::{IntervalMap, RangeUpdate};

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: the allocator may run while the thread's locals are being torn down.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

/// A pass-through allocator that counts allocations and reallocations of the calling thread.
struct ThreadCountingAllocator;

// SAFETY: defers every operation to `System` unchanged; the counter is a thread-local cell
// without a destructor, so counting never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for ThreadCountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: `layout` is forwarded unchanged; the caller upholds `GlobalAlloc::alloc`'s
        // contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `Self::alloc`/`Self::realloc`, which delegate to
        // `System` with the same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        // SAFETY: as for `dealloc`; the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: ThreadCountingAllocator = ThreadCountingAllocator;

/// Heap allocations the calling thread performs while running `f`.
fn allocations_in<R>(f: impl FnOnce() -> R) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

fn fragments(map: &IntervalMap<u32>) -> Vec<(usize, usize, u32)> {
    map.iter().map(|(s, e, v)| (s, e, *v)).collect()
}

#[test]
fn warm_range_operations_allocate_nothing() {
    // Fragments [16i, 16i + 8) → i. Growing to 256 and shrinking back to 200 leaves the run and
    // the arena with spare capacity and 56 free slots.
    let mut map = IntervalMap::new();
    for i in 0..256 {
        map.insert_range(16 * i, 16 * i + 8, i as u32);
    }
    map.drain_range(0, usize::MAX, |_, _, _| {});
    for i in 0..200 {
        map.insert_range(16 * i, 16 * i + 8, i as u32);
    }

    // Split [160, 168) into three by overwriting its middle.
    let split = allocations_in(|| map.update_range(162, 166, |_, _, _| RangeUpdate::Set(1000)));
    // Fill the gap [8, 16) between two fragments: the replacement outgrows the visited range.
    let fill = allocations_in(|| map.update_range(8, 16, |_, _, _| RangeUpdate::Set(2000)));
    // Drain a range whose ends split two straddling fragments.
    let drain = allocations_in(|| {
        map.drain_range(36, 68, |s, e, v| {
            black_box((s, e, v));
        })
    });
    assert_eq!(
        (split, fill, drain),
        (0, 0, 0),
        "allocations of (split, fill, drain)"
    );

    let fragments = fragments(&map);
    assert_eq!(
        fragments[..6],
        [
            (0, 8, 0),
            (8, 16, 2000),
            (16, 24, 1),
            (32, 36, 2),
            (68, 72, 4),
            (80, 88, 5)
        ]
    );
    assert_eq!(
        fragments[10..13],
        [(160, 162, 10), (162, 166, 1000), (166, 168, 10)]
    );
}
