//! The pool's two blocking-wait protocols: the epoch-guarded sleep of its workers
//! ([`SleepState`]: one sleeper population on one condvar) and the waiter-gated predicate gate
//! every *other* thread blocks on ([`Gate`]: job completion, cancellation, admission).
//!
//! The sleep protocol follows the classic epoch-guarded condition-variable pattern (see *Rust
//! Atomics and Locks*, ch. 9): a worker records the wake epoch *before* scanning the queues; if
//! the scan finds nothing it re-checks the epoch under the park mutex and only then waits. The
//! epoch is an atomic: every submission bumps it with one `SeqCst` `fetch_add` and takes the
//! park mutex only when a `SeqCst` read of the sleeper count is non-zero, so a busy pool
//! dispatches without touching the mutex. A sleeper takes the mutex and registers in that count
//! *before* it re-reads the epoch. By the store-buffer argument either the submitter's count
//! read sees the registration — and then it takes the mutex, which the sleeper holds from its
//! registration until the wait releases it, and notifies — or the sleeper's epoch re-read sees
//! the bump and it does not wait. Wake-ups are never lost.
//!
//! A worker may also sleep against an **exit predicate of its caller's** (a `taskwait`: "my
//! children drained") — it is the same sleeper in the same population, woken by the same
//! dispatch notifies, plus one more event: whoever flips such a predicate calls
//! [`SleepState::wake_waiters`]. That call must cost nothing while no predicate sleeper
//! exists, so these sleepers register in a `SeqCst` counter *before* re-checking their
//! predicate, and the flipper reads the counter *after* the flip: by the store-buffer argument
//! either the sleeper's re-check sees the flip, or the flipper sees the registration and
//! bumps the epoch and notifies **all** under the park mutex — the sleeper (who read the epoch
//! before its first predicate check) compares the epoch under that mutex before waiting. The
//! woken sleeper need not be the one whose predicate flipped. The predicate itself runs outside
//! the park mutex (it may take the caller's locks; the park mutex stays a leaf).

// The protocol is written against this two-line sync shim so the `loom-model` feature can swap
// in loom-lite's model-checked primitives; `tests/loom_model.rs` then explores every bounded
// interleaving of the exact code below. The default build uses the real primitives and the shim
// compiles away entirely.
#[cfg(not(feature = "loom-model"))]
use parking_lot::{Condvar, Mutex};
#[cfg(not(feature = "loom-model"))]
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::SeqCst};

#[cfg(feature = "loom-model")]
use loom_lite::sync::atomic::{AtomicU64, AtomicUsize, Ordering::SeqCst};
#[cfg(feature = "loom-model")]
use loom_lite::sync::{Condvar, Mutex};

/// Shared sleep state for all workers of a pool.
///
/// Padded to cache lines of its own: every dispatch that queues work bumps `epoch` and every
/// idle scan reads it, so no other field of the pool may share its line. Unpadded, the pool's
/// field layout decides its neighbours and, with them, how fast a woken worker reaches the
/// queues — which the single-worker schedules of `fig3_policies` depend on (see
/// `docs/scheduling.md`, "How cachesim makes Figure 3 reproducible on 1 CPU").
#[repr(align(128))]
pub struct SleepState {
    /// The wake epoch: bumped by every notify, read by workers before they scan.
    epoch: AtomicU64,
    /// Guards nothing but the sleeps: `condvar` waits on it, and `sleepers` changes only under
    /// it.
    park: Mutex<()>,
    condvar: Condvar,
    /// Workers between their registration under `park` and their return from the wait. Notifies
    /// read it (`SeqCst`, after their epoch bump) to skip the mutex while nobody sleeps. A
    /// worker that finds the epoch moved deregisters before it releases `park`, so under `park`
    /// it counts exactly the workers in (or being released from) the condvar wait.
    sleepers: AtomicUsize,
    /// Sleepers parked (or about to park) against an exit predicate of their caller's; see the
    /// module docs for the registration protocol.
    waiters: AtomicUsize,
}

impl Default for SleepState {
    fn default() -> Self {
        Self::new()
    }
}

impl SleepState {
    /// Creates the sleep state of a pool with no worker asleep.
    pub fn new() -> Self {
        SleepState {
            epoch: AtomicU64::new(0),
            park: Mutex::new(()),
            condvar: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            waiters: AtomicUsize::new(0),
        }
    }

    /// The current wake epoch. Workers read this before scanning for work.
    pub fn current_epoch(&self) -> u64 {
        self.epoch.load(SeqCst)
    }

    /// Signals that `count` units of work became available, waking up to `count` workers.
    /// Returns how many sleepers it woke; 0 when nobody was asleep (the epoch bump alone
    /// prevents a racing sleeper from blocking) — and then the park mutex is not taken.
    pub fn notify_many(&self, count: usize) -> usize {
        if count == 0 {
            return 0;
        }
        self.epoch.fetch_add(1, SeqCst);
        if self.sleepers.load(SeqCst) == 0 {
            return 0;
        }
        let _park = self.park.lock();
        let sleepers = self.sleepers.load(SeqCst);
        let woken = count.min(sleepers);
        if woken == sleepers {
            self.condvar.notify_all();
        } else {
            for _ in 0..woken {
                self.condvar.notify_one();
            }
        }
        woken
    }

    /// Wakes every worker (used for shutdown).
    pub fn notify_all(&self) {
        self.epoch.fetch_add(1, SeqCst);
        let _park = self.park.lock();
        self.condvar.notify_all();
    }

    /// Signals that an exit predicate of some `waiter` sleeper may have flipped. Call strictly
    /// *after* the flip. One `SeqCst` load when no such sleeper is registered.
    pub fn wake_waiters(&self) {
        if self.waiters.load(SeqCst) > 0 {
            self.notify_all();
        }
    }

    /// Blocks the current worker until the epoch advances past `seen_epoch` (or immediately
    /// returns if it already has, or if `should_exit` is true). `on_park` runs once, under the
    /// park mutex, right before the worker blocks — never when the call returns at once — so a
    /// park is counted while it lasts.
    ///
    /// `waiter` marks `should_exit` as a predicate of the caller's, whose flips are announced
    /// by [`Self::wake_waiters`]; without it the only event that may flip `should_exit` is one
    /// followed by an unconditional [`Self::notify_all`] (shutdown).
    pub fn sleep(
        &self,
        seen_epoch: u64,
        waiter: bool,
        should_exit: impl Fn() -> bool,
        on_park: impl FnOnce(),
    ) {
        if waiter {
            self.waiters.fetch_add(1, SeqCst);
        }
        if !should_exit() {
            let mut park = self.park.lock();
            // Register before the epoch re-read: a notify that bumped the epoch after this
            // registration sees it and blocks on `park` until the wait below releases it.
            self.sleepers.fetch_add(1, SeqCst);
            if self.epoch.load(SeqCst) == seen_epoch {
                on_park();
                self.condvar.wait(&mut park);
            }
            self.sleepers.fetch_sub(1, SeqCst);
        }
        if waiter {
            self.waiters.fetch_sub(1, SeqCst);
        }
    }
}

/// A waiter-gated predicate gate: the blocking wait of every thread that is *not* a pool
/// worker (a job's root-completion wait, `cancel()`'s wait for in-flight bodies, a submission
/// blocked on the live-task budget).
///
/// The mutex guards nothing but the wait — the predicate lives with the caller, under its own
/// synchronisation. Waiters register in an atomic counter (`SeqCst`) *before* re-checking
/// their predicate under the mutex; [`Gate::notify`], called after a predicate flip, reads the
/// counter and, when it is non-zero, notifies **while holding the mutex** — so a notify can
/// neither miss a registered waiter nor slip between a waiter's predicate check and its wait,
/// and the common no-waiter path costs one load. Model-checked through
/// `crates/core/tests/loom_completion.rs` and `loom_cancel.rs`.
pub struct Gate {
    mutex: Mutex<()>,
    condvar: Condvar,
    waiters: AtomicUsize,
}

impl Default for Gate {
    fn default() -> Self {
        Self::new()
    }
}

impl Gate {
    /// Creates an idle gate.
    pub fn new() -> Self {
        Gate {
            mutex: Mutex::new(()),
            condvar: Condvar::new(),
            waiters: AtomicUsize::new(0),
        }
    }

    /// Blocks until `done()` holds. The waiter stays registered across the whole sleep, so
    /// every predicate flip is delivered.
    pub fn wait_until(&self, mut done: impl FnMut() -> bool) {
        self.waiters.fetch_add(1, SeqCst);
        {
            let mut guard = self.mutex.lock();
            while !done() {
                self.condvar.wait(&mut guard);
            }
        }
        self.waiters.fetch_sub(1, SeqCst);
    }

    /// [`Self::wait_until`] bounded by `deadline`: returns whether the predicate held (a
    /// timeout re-checks it one last time under the mutex before giving up).
    ///
    /// Not available under the `loom-model` feature (the shimmed condvar has no timed wait);
    /// the timed wait is a convenience layered on the already-model-checked untimed protocol.
    #[cfg(not(feature = "loom-model"))]
    pub fn wait_until_timeout(
        &self,
        mut done: impl FnMut() -> bool,
        deadline: std::time::Instant,
    ) -> bool {
        self.waiters.fetch_add(1, SeqCst);
        let satisfied = {
            let mut guard = self.mutex.lock();
            loop {
                if done() {
                    break true;
                }
                if self.condvar.wait_until(&mut guard, deadline).timed_out() {
                    break done();
                }
            }
        };
        self.waiters.fetch_sub(1, SeqCst);
        satisfied
    }

    /// Wakes every waiter to re-check its predicate. Call strictly *after* the flip.
    pub fn notify(&self) {
        if self.waiters.load(SeqCst) > 0 {
            let _guard = self.mutex.lock();
            self.condvar.notify_all();
        }
    }
}

// These tests exercise the protocol with real OS threads and real primitives; under
// `loom-model` the primitives are loom-lite shims that only work inside a model run, so the
// module is compiled out (the model harness in `tests/loom_model.rs` covers the feature).
#[cfg(all(test, not(feature = "loom-model")))]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    /// Whether `sleep` blocked: it ran its `on_park` hook.
    fn parks(sleep: impl FnOnce(&dyn Fn())) -> bool {
        let parked = std::cell::Cell::new(false);
        sleep(&|| parked.set(true));
        parked.get()
    }

    #[test]
    fn sleep_returns_when_epoch_already_advanced() {
        let s = SleepState::new();
        let epoch = s.current_epoch();
        s.notify_many(1);
        // Must not block, and is not a park.
        assert!(!parks(|on_park| s.sleep(epoch, false, || false, on_park)));
    }

    #[test]
    fn sleep_returns_when_exit_requested() {
        let s = SleepState::new();
        let epoch = s.current_epoch();
        assert!(!parks(|on_park| s.sleep(epoch, false, || true, on_park)));
    }

    #[test]
    fn notify_wakes_a_sleeper() {
        let s = Arc::new(SleepState::new());
        let s2 = Arc::clone(&s);
        let handle = std::thread::spawn(move || {
            let epoch = s2.current_epoch();
            parks(|on_park| s2.sleep(epoch, false, || false, on_park))
        });
        // Give the thread a moment to actually sleep, then wake it.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(s.notify_many(1), 1);
        assert!(handle.join().unwrap(), "the woken sleeper had parked");
    }

    #[test]
    fn notify_many_wakes_all_needed() {
        let s = Arc::new(SleepState::new());
        let mut handles = Vec::new();
        for _ in 0..3 {
            let s2 = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                let epoch = s2.current_epoch();
                s2.sleep(epoch, false, || false, || {});
            }));
        }
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(s.notify_many(10), 3, "all three sleepers must be woken");
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn no_sleeper_reports_no_sleeper() {
        let s = SleepState::new();
        assert_eq!(s.notify_many(1), 0);
        assert_eq!(s.notify_many(4), 0);
    }
}
