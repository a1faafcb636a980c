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
fn worker_loop(sleep: &SleepState, domain: usize, work: &AtomicBool) {
    loop {
        let epoch = sleep.current_epoch();
        if work.load(Ordering::SeqCst) {
            return;
        }
        sleep.sleep(domain, epoch, || false);
    }
}

/// One worker, one producer: the submission (work flag + notify) must never be lost,
/// whichever way it interleaves with the worker's scan-then-sleep.
#[test]
fn wake_is_never_lost_single_domain() {
    let report = Checker::new().preemption_bound(4).random_runs(500).check(|| {
        let sleep = Arc::new(SleepState::new(1));
        let work = Arc::new(AtomicBool::new(false));
        let (s2, w2) = (Arc::clone(&sleep), Arc::clone(&work));
        let worker = thread::spawn(move || worker_loop(&s2, 0, &w2));
        work.store(true, Ordering::SeqCst);
        sleep.notify_many(1, None);
        worker.join().unwrap();
    });
    report.assert_ok();
    assert!(report.exhausted, "single-domain wake model should be exhaustible");
}

/// Two workers, one shutdown broadcast: `notify_all` must release every sleeper regardless of
/// how far each has progressed toward its wait.
#[test]
fn notify_all_releases_every_sleeper() {
    let report = Checker::new().preemption_bound(2).random_runs(300).check(|| {
        let sleep = Arc::new(SleepState::new(1));
        let work = Arc::new(AtomicBool::new(false));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let (s2, w2) = (Arc::clone(&sleep), Arc::clone(&work));
                thread::spawn(move || worker_loop(&s2, 0, &w2))
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

/// The hierarchical-policy invariant: a notify preferring domain 0 while the only sleeper
/// lives in domain 1 must fall back and wake it — work is never stranded for locality's sake.
#[test]
fn domain_fallback_never_strands_work() {
    let report = Checker::new().preemption_bound(4).random_runs(500).check(|| {
        let sleep = Arc::new(SleepState::new(2));
        let work = Arc::new(AtomicBool::new(false));
        let (s2, w2) = (Arc::clone(&sleep), Arc::clone(&work));
        let worker = thread::spawn(move || worker_loop(&s2, 1, &w2));
        work.store(true, Ordering::SeqCst);
        let (hit, _fallback) = sleep.notify_many(1, Some(0));
        // Whatever the interleaving, the wake must not claim a preferred-domain hit: the only
        // possible sleeper is in domain 1.
        assert_eq!(hit, 0);
        worker.join().unwrap();
    });
    report.assert_ok();
}

/// `notify_many` with enough budget must wake sleepers across domains, not just the
/// preferred one.
#[test]
fn notify_many_crosses_domains() {
    let report = Checker::new().preemption_bound(2).random_runs(300).check(|| {
        let sleep = Arc::new(SleepState::new(2));
        let work = Arc::new(AtomicBool::new(false));
        let workers: Vec<_> = (0..2)
            .map(|domain| {
                let (s2, w2) = (Arc::clone(&sleep), Arc::clone(&work));
                thread::spawn(move || worker_loop(&s2, domain, &w2))
            })
            .collect();
        work.store(true, Ordering::SeqCst);
        sleep.notify_many(2, Some(0));
        for w in workers {
            w.join().unwrap();
        }
    });
    report.assert_ok();
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
            BuggySleepState { epoch: Mutex::new(0), condvar: Condvar::new() }
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
