//! The pool's two blocking-wait protocols: the epoch-guarded sleep of its workers
//! ([`SleepState`], with per-domain wake targeting) and the waiter-gated predicate gate every
//! *other* thread blocks on ([`Gate`]: job completion, cancellation, admission).
//!
//! The sleep protocol follows the classic epoch-guarded condition-variable pattern (see *Rust
//! Atomics and Locks*, ch. 9): a worker records the wake epoch *before* scanning the queues; if
//! the scan finds nothing it re-checks the epoch under the mutex and only then waits. Every
//! submission bumps the epoch under the same mutex, so a submission that races with the scan
//! either is seen by the scan or changes the epoch and prevents the sleep — wake-ups are never
//! lost.
//!
//! For the hierarchical scheduling policy the sleepers are additionally grouped into **locality
//! domains**: every worker waits on its domain's condition variable (all condvars share the one
//! epoch mutex, so the lost-wake-up argument is unchanged), and a notify carrying a preferred
//! domain wakes a sleeper *from that domain* when one exists — the woken worker's first steal
//! scan starts at the queues of the notifying worker's own domain, so the warm data stays
//! inside the domain whenever it can. When the preferred domain has no sleeper the notify falls
//! back to any domain with one (work must never be stranded to preserve locality).
//!
//! A worker may also sleep against an **exit predicate of its caller's** (a `taskwait`: "my
//! children drained") — it is the same sleeper in the same population, woken by the same
//! dispatch notifies, plus one more event: whoever flips such a predicate calls
//! [`SleepState::wake_waiters`]. That call must cost nothing while no predicate sleeper
//! exists, so these sleepers register in a `SeqCst` counter *before* re-checking their
//! predicate, and the flipper reads the counter *after* the flip: by the store-buffer argument
//! either the sleeper's re-check sees the flip, or the flipper sees the registration and
//! bumps the epoch under the mutex — which the sleeper (who read the epoch before its first
//! predicate check) compares under the mutex before waiting — and notifies **all**: the woken
//! sleeper need not be the one whose predicate flipped. The predicate itself runs outside the
//! epoch mutex (it may take the caller's locks; the epoch mutex stays a leaf).

// The protocol is written against this two-line sync shim so the `loom-model` feature can swap
// in loom-lite's model-checked primitives; `tests/loom_model.rs` then explores every bounded
// interleaving of the exact code below. The default build uses the real primitives and the shim
// compiles away entirely.
#[cfg(not(feature = "loom-model"))]
use parking_lot::{Condvar, Mutex};
#[cfg(not(feature = "loom-model"))]
use std::sync::atomic::{AtomicUsize, Ordering, Ordering::SeqCst};

#[cfg(feature = "loom-model")]
use loom_lite::sync::atomic::{AtomicUsize, Ordering, Ordering::SeqCst};
#[cfg(feature = "loom-model")]
use loom_lite::sync::{Condvar, Mutex};

/// Sleep state of one locality domain: its condvar plus the number of workers currently
/// blocked on it. The counter is mutated only while the epoch mutex is held; it is an atomic
/// solely so `SleepState` stays `Sync` without wrapping the whole vector in the mutex.
struct DomainSleep {
    condvar: Condvar,
    sleepers: AtomicUsize,
}

/// Shared sleep state for all workers of a pool.
pub struct SleepState {
    epoch: Mutex<u64>,
    domains: Vec<DomainSleep>,
    /// Sleepers parked (or about to park) against an exit predicate of their caller's; see the
    /// module docs for the registration protocol.
    waiters: AtomicUsize,
}

impl SleepState {
    /// Creates the sleep state for `domains` locality domains (non-hierarchical policies use a
    /// single domain, which makes every notify trivially "targeted").
    pub fn new(domains: usize) -> Self {
        SleepState {
            epoch: Mutex::new(0),
            domains: (0..domains.max(1))
                .map(|_| DomainSleep { condvar: Condvar::new(), sleepers: AtomicUsize::new(0) })
                .collect(),
            waiters: AtomicUsize::new(0),
        }
    }

    /// The current wake epoch. Workers read this before scanning for work.
    pub fn current_epoch(&self) -> u64 {
        *self.epoch.lock()
    }

    /// Signals that `count` units of work became available, waking up to `count` workers —
    /// sleepers of `preferred` (the domain whose queues hold the work) first, then the
    /// remaining domains: work is never stranded to preserve locality. Returns how many wakes
    /// landed in the preferred domain (all of them, without a preference) and how many fell
    /// back to another one; `(0, 0)` when nobody was asleep (the epoch bump alone prevents a
    /// racing sleeper from blocking).
    pub fn notify_many(&self, count: usize, preferred: Option<usize>) -> (usize, usize) {
        if count == 0 {
            return (0, 0);
        }
        let mut epoch = self.epoch.lock();
        *epoch += 1;
        let n = self.domains.len();
        let start = preferred.unwrap_or(0).min(n - 1);
        let mut remaining = count;
        let (mut hit, mut miss) = (0usize, 0usize);
        for offset in 0..n {
            let d = (start + offset) % n;
            let sleepers = self.domains[d].sleepers.load(Ordering::Relaxed);
            if sleepers == 0 {
                continue;
            }
            let woken = remaining.min(sleepers);
            if woken == sleepers {
                self.domains[d].condvar.notify_all();
            } else {
                for _ in 0..woken {
                    self.domains[d].condvar.notify_one();
                }
            }
            if preferred.is_none() || preferred == Some(d) {
                hit += woken;
            } else {
                miss += woken;
            }
            remaining -= woken;
            if remaining == 0 {
                break;
            }
        }
        (hit, miss)
    }

    /// Wakes every worker in every domain (used for shutdown).
    pub fn notify_all(&self) {
        let mut epoch = self.epoch.lock();
        *epoch += 1;
        for domain in &self.domains {
            domain.condvar.notify_all();
        }
    }

    /// Signals that an exit predicate of some `waiter` sleeper may have flipped. Call strictly
    /// *after* the flip. One `SeqCst` load when no such sleeper is registered.
    pub fn wake_waiters(&self) {
        if self.waiters.load(SeqCst) > 0 {
            self.notify_all();
        }
    }

    /// Blocks the current worker (a member of `domain`) until the epoch advances past
    /// `seen_epoch` (or immediately returns if it already has, or if `should_exit` is true).
    ///
    /// `waiter` marks `should_exit` as a predicate of the caller's, whose flips are announced
    /// by [`Self::wake_waiters`]; without it the only event that may flip `should_exit` is one
    /// followed by an unconditional [`Self::notify_all`] (shutdown).
    pub fn sleep(
        &self,
        domain: usize,
        seen_epoch: u64,
        waiter: bool,
        should_exit: impl Fn() -> bool,
    ) {
        let domain = &self.domains[domain.min(self.domains.len() - 1)];
        if waiter {
            self.waiters.fetch_add(1, SeqCst);
        }
        if !should_exit() {
            let mut epoch = self.epoch.lock();
            if *epoch == seen_epoch {
                domain.sleepers.fetch_add(1, Ordering::Relaxed);
                domain.condvar.wait(&mut epoch);
                domain.sleepers.fetch_sub(1, Ordering::Relaxed);
            }
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
        Gate { mutex: Mutex::new(()), condvar: Condvar::new(), waiters: AtomicUsize::new(0) }
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

    #[test]
    fn sleep_returns_when_epoch_already_advanced() {
        let s = SleepState::new(1);
        let epoch = s.current_epoch();
        s.notify_many(1, None);
        // Must not block.
        s.sleep(0, epoch, false, || false);
    }

    #[test]
    fn sleep_returns_when_exit_requested() {
        let s = SleepState::new(2);
        let epoch = s.current_epoch();
        s.sleep(1, epoch, false, || true);
    }

    #[test]
    fn notify_wakes_a_sleeper() {
        let s = Arc::new(SleepState::new(1));
        let s2 = Arc::clone(&s);
        let handle = std::thread::spawn(move || {
            let epoch = s2.current_epoch();
            s2.sleep(0, epoch, false, || false);
        });
        // Give the thread a moment to actually sleep, then wake it.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(s.notify_many(1, None), (1, 0));
        handle.join().unwrap();
    }

    #[test]
    fn notify_many_wakes_all_needed() {
        let s = Arc::new(SleepState::new(2));
        let mut handles = Vec::new();
        for domain in 0..3 {
            let s2 = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                let epoch = s2.current_epoch();
                s2.sleep(domain % 2, epoch, false, || false);
            }));
        }
        std::thread::sleep(Duration::from_millis(50));
        let (hit, miss) = s.notify_many(10, Some(0));
        assert_eq!(hit + miss, 3, "all three sleepers must be woken");
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn notify_targets_the_preferred_domain_first() {
        let s = Arc::new(SleepState::new(2));
        let s2 = Arc::clone(&s);
        let handle = std::thread::spawn(move || {
            let epoch = s2.current_epoch();
            s2.sleep(1, epoch, false, || false);
        });
        std::thread::sleep(Duration::from_millis(50));
        // The only sleeper lives in domain 1: preferring 0 falls back to it (work must never
        // be stranded for locality's sake).
        assert_eq!(s.notify_many(1, Some(0)), (0, 1));
        handle.join().unwrap();
    }

    #[test]
    fn no_sleeper_reports_no_sleeper() {
        let s = SleepState::new(3);
        assert_eq!(s.notify_many(1, Some(2)), (0, 0));
        assert_eq!(s.notify_many(4, None), (0, 0));
    }
}
