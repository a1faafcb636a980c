//! Counting global allocator. Only `bench_traced` installs it, so the end-to-end numbers of
//! `bench` are measured on the system allocator with nothing added; there the counters below
//! never move.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// One thread's counters, on a cache line of their own: two workers counting into shared
/// words would add a contended atomic to every allocation of the run being measured.
#[repr(align(128))]
struct Stripe {
    allocations: AtomicU64,
    bytes: AtomicU64,
}

const STRIPES: usize = 16;
static COUNTERS: [Stripe; STRIPES] = [const {
    Stripe {
        allocations: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
    }
}; STRIPES];
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and without a destructor, so reading it allocates nothing and is
    // safe from inside the allocator at any point of a thread's life.
    static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn count(bytes: usize) {
    let stripe = STRIPE
        .try_with(|cell| {
            if cell.get() == usize::MAX {
                cell.set(NEXT_STRIPE.fetch_add(1, Relaxed) % STRIPES);
            }
            cell.get()
        })
        .unwrap_or(0);
    COUNTERS[stripe].allocations.fetch_add(1, Relaxed);
    COUNTERS[stripe].bytes.fetch_add(bytes as u64, Relaxed);
}

/// Forwards to the system allocator and counts calls and bytes requested.
pub struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are statistics and publish no memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc`/`realloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `(allocations, bytes requested)` since the process started.
pub fn counts() -> (u64, u64) {
    COUNTERS.iter().fold((0, 0), |(a, b), s| {
        (a + s.allocations.load(Relaxed), b + s.bytes.load(Relaxed))
    })
}
