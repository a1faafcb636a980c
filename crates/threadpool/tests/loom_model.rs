//! Model checks of the sleep/wake protocol (`src/sleep.rs`) under loom-lite.
//!
//! Run with `cargo test -p weakdep_threadpool --features loom-model --test loom_model`.
//! Under the `loom-model` feature the protocol's `Mutex`/`Condvar`/atomics are loom-lite
//! shims, so these tests explore **every** interleaving within the preemption bound (plus a
//! seeded-random tail) of the real shipped code — not a transcription of it.
//!
//! The property in every test is deadlock-freedom: a lost wake-up manifests as a worker
//! parked forever on the condvar while the producer blocks in `join`, which the checker
//! reports as a deadlock with a replayable schedule.

#![cfg(feature = "loom-model")]

use loom_lite::sync::atomic::{AtomicBool, Ordering};
use loom_lite::{thread, Checker};
use std::sync::Arc;
use weakdep_threadpool::sleep::SleepState;

/// The worker side of the protocol, as `ThreadPool` runs it: read the epoch, scan for work,
/// and only sleep when the scan found nothing and the epoch still matches.
fn worker_loop(sleep: &SleepState, work: &AtomicBool) {
    loop {
        let epoch = sleep.current_epoch();
        if work.load(Ordering::SeqCst) {
            return;
        }
        sleep.sleep(epoch, false, || false, || {});
    }
}

/// A predicate sleeper, as `WorkerContext::work_until` runs it: read the epoch, check the
/// caller's predicate, and sleep re-checking it — registered with the sleep state iff
/// `registered` (the shipped loop always is; `false` is the seeded mutation).
fn waiter_loop(sleep: &SleepState, done: &AtomicBool, registered: bool) {
    loop {
        let epoch = sleep.current_epoch();
        if done.load(Ordering::SeqCst) {
            return;
        }
        sleep.sleep(epoch, registered, || done.load(Ordering::SeqCst), || {});
    }
}

/// Two workers parked (or parking) in `work_until` on the same flag, one flipper: flip, then
/// `wake_waiters`. Neither sleeper may be stranded, however far each got through
/// register → re-check → epoch compare → wait when the flip lands. Two sleepers, because the
/// wake must be a broadcast: waking one would strand the other.
fn predicate_flip_model(registered: bool) -> loom_lite::Report {
    Checker::new()
        .preemption_bound(3)
        .random_runs(500)
        .check(move || {
            let sleep = Arc::new(SleepState::new());
            let done = Arc::new(AtomicBool::new(false));
            let waiters: Vec<_> = (0..2)
                .map(|_| {
                    let (s2, d2) = (Arc::clone(&sleep), Arc::clone(&done));
                    thread::spawn(move || waiter_loop(&s2, &d2, registered))
                })
                .collect();
            done.store(true, Ordering::SeqCst);
            sleep.wake_waiters();
            for w in waiters {
                w.join().unwrap();
            }
        })
}

#[test]
fn predicate_flip_wakes_every_registered_waiter() {
    let report = predicate_flip_model(true);
    report.assert_ok();
    assert!(
        report.exhausted,
        "predicate-sleeper model should be exhaustible"
    );
}

/// Mutation: the same sleepers parking *unregistered*. `wake_waiters` then reads a zero count
/// and skips the epoch bump, and a flip landing between a sleeper's re-check and its wait is
/// lost — the checker must report the sleeper parked forever.
#[test]
fn unregistered_predicate_sleeper_is_caught_as_deadlock() {
    let report = predicate_flip_model(false);
    assert!(
        report.found_deadlock(),
        "loom-lite failed to catch the seeded skipped-registration bug: {report:?}"
    );
}

/// One worker, one producer: the submission (work flag + notify) must never be lost,
/// whichever way it interleaves with the worker's scan-then-sleep.
#[test]
fn wake_is_never_lost() {
    let report = Checker::new()
        .preemption_bound(4)
        .random_runs(500)
        .check(|| {
            let sleep = Arc::new(SleepState::new());
            let work = Arc::new(AtomicBool::new(false));
            let (s2, w2) = (Arc::clone(&sleep), Arc::clone(&work));
            let worker = thread::spawn(move || worker_loop(&s2, &w2));
            work.store(true, Ordering::SeqCst);
            sleep.notify_many(1);
            worker.join().unwrap();
        });
    report.assert_ok();
    assert!(report.exhausted, "the wake model should be exhaustible");
}

/// Two workers, one shutdown broadcast: `notify_all` must release every sleeper regardless of
/// how far each has progressed toward its wait.
#[test]
fn notify_all_releases_every_sleeper() {
    let report = Checker::new()
        .preemption_bound(2)
        .random_runs(300)
        .check(|| {
            let sleep = Arc::new(SleepState::new());
            let work = Arc::new(AtomicBool::new(false));
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let (s2, w2) = (Arc::clone(&sleep), Arc::clone(&work));
                    thread::spawn(move || worker_loop(&s2, &w2))
                })
                .collect();
            work.store(true, Ordering::SeqCst);
            sleep.notify_all();
            for w in workers {
                w.join().unwrap();
            }
        });
    report.assert_ok();
}

/// Two sleepers on the one condvar, one producer waking as many as it queued work for:
/// `notify_many(2)` must release both, however far each got toward its wait — the count
/// `notify_many` reads under the park mutex covers every worker parked on the condvar.
#[test]
fn notify_many_wakes_as_many_as_asked() {
    let report = Checker::new()
        .preemption_bound(2)
        .random_runs(300)
        .check(|| {
            let sleep = Arc::new(SleepState::new());
            let work = Arc::new(AtomicBool::new(false));
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let (s2, w2) = (Arc::clone(&sleep), Arc::clone(&work));
                    thread::spawn(move || worker_loop(&s2, &w2))
                })
                .collect();
            work.store(true, Ordering::SeqCst);
            sleep.notify_many(2);
            for w in workers {
                w.join().unwrap();
            }
        });
    report.assert_ok();
    assert!(
        report.exhausted,
        "the two-sleeper wake model should be exhaustible"
    );
}

// ---------------------------------------------------------------------------------------------
// Mutation test: a test-only fork of the protocol with the PR 3-era epoch re-check removed.
// loom-lite must find the dropped wake-up as a deadlock — proof the harness isn't vacuous.
// ---------------------------------------------------------------------------------------------

mod buggy {
    //! `SleepState` with the one load-bearing line removed: `sleep` parks without re-checking
    //! the epoch under the mutex, so a notify that lands between the caller's scan and the
    //! wait is dropped on the floor.

    use loom_lite::sync::{Condvar, Mutex};

    pub struct BuggySleepState {
        epoch: Mutex<u64>,
        condvar: Condvar,
    }

    impl BuggySleepState {
        pub fn new() -> Self {
            BuggySleepState {
                epoch: Mutex::new(0),
                condvar: Condvar::new(),
            }
        }

        pub fn current_epoch(&self) -> u64 {
            *self.epoch.lock()
        }

        pub fn notify_one(&self) {
            let mut epoch = self.epoch.lock();
            *epoch += 1;
            self.condvar.notify_one();
        }

        /// BUG (deliberate): `seen_epoch` is ignored — the epoch is not re-checked under the
        /// mutex before waiting, which is exactly the dropped-wake the real protocol's
        /// re-check exists to prevent.
        pub fn sleep(&self, _seen_epoch: u64) {
            let mut epoch = self.epoch.lock();
            self.condvar.wait(&mut epoch);
        }
    }
}

/// The dropped-wake fork must be caught: some interleaving parks the worker after the only
/// notify has fired, and the checker reports the resulting sleep-forever as a deadlock.
#[test]
fn dropped_wake_fork_is_caught_as_deadlock() {
    let report = Checker::new().preemption_bound(4).random_runs(0).check(|| {
        let sleep = Arc::new(buggy::BuggySleepState::new());
        let work = Arc::new(AtomicBool::new(false));
        let (s2, w2) = (Arc::clone(&sleep), Arc::clone(&work));
        let worker = thread::spawn(move || loop {
            let epoch = s2.current_epoch();
            if w2.load(Ordering::SeqCst) {
                return;
            }
            s2.sleep(epoch);
        });
        work.store(true, Ordering::SeqCst);
        sleep.notify_one();
        worker.join().unwrap();
    });
    assert!(
        report.found_deadlock(),
        "loom-lite failed to catch the seeded dropped-wake bug: {report:?}"
    );
}

mod late_registration {
    //! The lock-free epoch of `SleepState` with its sleeper registration moved *after* the
    //! epoch re-check: a notify whose bump lands between the re-check and the registration
    //! reads a zero sleeper count, skips the park mutex and notifies nobody.

    use loom_lite::sync::atomic::{AtomicU64, AtomicUsize, Ordering::SeqCst};
    use loom_lite::sync::{Condvar, Mutex};

    pub struct LateRegistrationSleepState {
        epoch: AtomicU64,
        park: Mutex<()>,
        sleepers: AtomicUsize,
        condvar: Condvar,
    }

    impl LateRegistrationSleepState {
        pub fn new() -> Self {
            LateRegistrationSleepState {
                epoch: AtomicU64::new(0),
                park: Mutex::new(()),
                sleepers: AtomicUsize::new(0),
                condvar: Condvar::new(),
            }
        }

        pub fn current_epoch(&self) -> u64 {
            self.epoch.load(SeqCst)
        }

        pub fn notify_one(&self) {
            self.epoch.fetch_add(1, SeqCst);
            if self.sleepers.load(SeqCst) == 0 {
                return;
            }
            let _park = self.park.lock();
            self.condvar.notify_one();
        }

        /// BUG (deliberate): the sleeper registers only after it re-read the epoch.
        pub fn sleep(&self, seen_epoch: u64) {
            let mut park = self.park.lock();
            if self.epoch.load(SeqCst) == seen_epoch {
                self.sleepers.fetch_add(1, SeqCst);
                self.condvar.wait(&mut park);
                self.sleepers.fetch_sub(1, SeqCst);
            }
        }
    }
}

/// The late-registration fork must be caught: a notify can bump the epoch and read the
/// sleeper count between the worker's epoch re-check and its registration, so the worker
/// waits for a notify that already passed.
#[test]
fn late_sleeper_registration_is_caught_as_deadlock() {
    let report = Checker::new().preemption_bound(4).random_runs(0).check(|| {
        let sleep = Arc::new(late_registration::LateRegistrationSleepState::new());
        let work = Arc::new(AtomicBool::new(false));
        let (s2, w2) = (Arc::clone(&sleep), Arc::clone(&work));
        let worker = thread::spawn(move || loop {
            let epoch = s2.current_epoch();
            if w2.load(Ordering::SeqCst) {
                return;
            }
            s2.sleep(epoch);
        });
        work.store(true, Ordering::SeqCst);
        sleep.notify_one();
        worker.join().unwrap();
    });
    assert!(
        report.found_deadlock(),
        "loom-lite failed to catch the seeded late-registration bug: {report:?}"
    );
}
