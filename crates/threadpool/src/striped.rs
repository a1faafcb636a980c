//! Per-thread striped statistics counters.
//!
//! A statistic every task bumps must not live on a cache line that every thread writes: each
//! relaxed `fetch_add` would then move the line between cores. A [`Striped`] counter set keeps
//! one block of `N` counters per thread slot instead, each block on cache lines of its own. A
//! thread adds to its own slot's block, and a read sums the blocks.
//!
//! Sums are exact at quiescence: once every adding thread's work happens-before the read (a
//! join, a gate, a lock hand-off), the read sees every add. Read while threads still add, a sum
//! lies between the counter's values at the start and at the end of the read, like one relaxed
//! load of a single shared counter would.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// Number of thread slots: the blocks of a [`Striped`] set, and the free lists of retired task
/// ids in the dependency engine. Threads beyond this many share slots, which costs contention,
/// never exactness.
pub const THREAD_SLOTS: usize = 16;

/// Hands each thread its slot, round-robin in the order threads first ask.
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's slot, `usize::MAX` until it first asks. Constant-initialised and free of
    /// a destructor, so it stays readable during thread teardown.
    static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The calling thread's slot in `0..THREAD_SLOTS`. Not keyed to a pool or an engine: every
/// striped set and every free list the thread touches uses the same index.
#[inline]
pub fn thread_slot() -> usize {
    SLOT.with(|slot| match slot.get() {
        usize::MAX => {
            let assigned = NEXT_SLOT.fetch_add(1, Relaxed) % THREAD_SLOTS;
            slot.set(assigned);
            assigned
        }
        assigned => assigned,
    })
}

/// One thread slot's counters, padded to cache lines of their own.
#[repr(align(128))]
struct Block<const N: usize>([AtomicU64; N]);

/// `N` monotonically increasing counters, striped over the [`THREAD_SLOTS`] thread slots. See
/// the module documentation for when a sum is exact.
pub struct Striped<const N: usize> {
    blocks: [Block<N>; THREAD_SLOTS],
}

impl<const N: usize> Striped<N> {
    /// A set of `N` counters, all zero.
    pub fn new() -> Self {
        Striped {
            blocks: std::array::from_fn(|_| Block(std::array::from_fn(|_| AtomicU64::new(0)))),
        }
    }

    /// Adds `by` to counter `counter` in the calling thread's block (a relaxed `fetch_add`).
    #[inline]
    pub fn add(&self, counter: usize, by: u64) {
        self.blocks[thread_slot()].0[counter].fetch_add(by, Relaxed);
    }

    /// The sum of counter `counter` over every thread slot.
    pub fn get(&self, counter: usize) -> u64 {
        self.blocks.iter().map(|block| block.0[counter].load(Relaxed)).sum()
    }
}

impl<const N: usize> Default for Striped<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const N: usize> std::fmt::Debug for Striped<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries((0..N).map(|counter| self.get(counter))).finish()
    }
}

#[cfg(all(test, not(feature = "loom-model")))]
mod tests {
    use super::*;

    /// Adds `per_thread` ones to counter 1 and twos to counter 2 from each of `threads`
    /// threads, then checks both sums and that counter 0 stayed untouched.
    fn sums_exactly(threads: usize, per_thread: u64) {
        let striped = Striped::<3>::new();
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for _ in 0..per_thread {
                        striped.add(1, 1);
                        striped.add(2, 2);
                    }
                });
            }
        });
        assert_eq!(striped.get(0), 0);
        assert_eq!(striped.get(1), threads as u64 * per_thread);
        assert_eq!(striped.get(2), 2 * threads as u64 * per_thread);
    }

    #[test]
    fn sums_are_exact_with_a_slot_per_thread() {
        sums_exactly(4, 100_000);
    }

    /// More threads than slots: some threads share a block, and their adds still all land.
    #[test]
    fn sums_are_exact_when_threads_share_slots() {
        sums_exactly(THREAD_SLOTS + 4, 10_000);
    }

    #[test]
    fn a_thread_keeps_its_slot_and_consecutive_threads_get_different_ones() {
        let mine = thread_slot();
        assert!(mine < THREAD_SLOTS);
        assert_eq!(thread_slot(), mine, "the slot is taken once per thread");
        // Round-robin: of the next `THREAD_SLOTS` threads, at least one has another slot.
        let others: Vec<usize> =
            (0..THREAD_SLOTS).map(|_| std::thread::spawn(thread_slot).join().unwrap()).collect();
        assert!(others.iter().any(|&slot| slot != mine));
    }

    #[test]
    fn blocks_sit_on_cache_lines_of_their_own() {
        assert_eq!(std::mem::align_of::<Block<3>>(), 128);
        assert_eq!(std::mem::size_of::<Block<14>>(), 128);
        assert_eq!(std::mem::size_of::<Striped<3>>(), 128 * THREAD_SLOTS);
    }
}
