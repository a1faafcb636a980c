//! The counting global allocator of the test binaries that measure heap allocations. A binary
//! that declares `mod common;` installs it.
//!
//! Every allocation and reallocation is counted twice: for the calling thread, so that a
//! measurement taken around one call inside one task body is not disturbed by other threads,
//! and for the whole process, so that a measurement over a whole run includes the pool's
//! workers. Frees are not counted.

// Each binary reads only the count it needs.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

thread_local! {
    static THREAD: Cell<usize> = const { Cell::new(0) };
}

static PROCESS: AtomicUsize = AtomicUsize::new(0);

fn count_allocation() {
    PROCESS.fetch_add(1, Relaxed);
    // `try_with`: the allocator may run while the thread's locals are being torn down.
    let _ = THREAD.try_with(|count| count.set(count.get() + 1));
}

/// A pass-through allocator that counts allocations and reallocations.
struct CountingAllocator;

// SAFETY: defers every operation to `System` unchanged; the counters are a relaxed atomic and a
// thread-local cell without a destructor, so counting never allocates or re-enters the
// allocator.
unsafe impl GlobalAlloc for CountingAllocator {
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
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Heap allocations the calling thread performs while running `f`.
pub fn thread_allocations_in<R>(f: impl FnOnce() -> R) -> usize {
    let before = THREAD.with(Cell::get);
    black_box(f());
    THREAD.with(Cell::get) - before
}

/// Heap allocations of every thread of the process while the calling thread runs `f`.
pub fn process_allocations_in<R>(f: impl FnOnce() -> R) -> usize {
    let before = PROCESS.load(Relaxed);
    black_box(f());
    PROCESS.load(Relaxed) - before
}
