//! Model checks of the completion gate (`src/completion.rs`, the pool's `Gate`) under
//! loom-lite.
//!
//! Run with `cargo test -p weakdep_core --features loom-model --test loom_completion`.
//! Under the `loom-model` feature the gate's `Mutex`/`Condvar`/atomics are loom-lite shims,
//! so these tests explore every bounded interleaving of the shipped gate code. The engine-side
//! predicates (`is_deeply_completed`, `live_children`) are modelled as atomics — the protocol
//! under test is the gate, not the engine. The gate serves non-worker waiters only; a
//! *worker's* `taskwait` — and with it the dispatch-vs-sleep recruitment race the former
//! `recruitment_never_strands_ready_work` model covered — is the pool's sleep protocol,
//! model-checked in `crates/threadpool/tests/loom_model.rs`
//! (`wake_is_never_lost_single_domain`, `predicate_flip_wakes_every_registered_waiter`).

#![cfg(feature = "loom-model")]

use loom_lite::sync::atomic::{AtomicUsize, Ordering};
use loom_lite::{thread, Checker};
use std::sync::Arc;
use weakdep_core::completion::CompletionGate;

/// `Runtime::run` vs task retirement: the root-completion notify must never be lost, whichever
/// way it interleaves with the waiter's register-then-check-then-wait.
#[test]
fn root_completion_wake_is_never_lost() {
    let report = Checker::new().preemption_bound(4).random_runs(500).check(|| {
        let gate = Arc::new(CompletionGate::new());
        let done = Arc::new(AtomicUsize::new(0));
        let (g2, d2) = (Arc::clone(&gate), Arc::clone(&done));
        // The finishing task: flip the predicate, then fire the gated notify — the order
        // `schedule_effects` uses.
        let finisher = thread::spawn(move || {
            d2.store(1, Ordering::SeqCst);
            g2.notify();
        });
        // The `run` caller.
        gate.wait_until(|| done.load(Ordering::SeqCst) == 1);
        finisher.join().unwrap();
    });
    report.assert_ok();
    assert!(report.exhausted, "root-completion model should be exhaustible");
}

/// The `taskwait` of a non-worker (the inline root of `Runtime::run`): one child finishing
/// must unblock it.
#[test]
fn taskwait_child_drain_wakes_nonworker() {
    let report = Checker::new().preemption_bound(4).random_runs(500).check(|| {
        let gate = Arc::new(CompletionGate::new());
        let children = Arc::new(AtomicUsize::new(1));
        let (g2, c2) = (Arc::clone(&gate), Arc::clone(&children));
        let child = thread::spawn(move || {
            c2.store(0, Ordering::SeqCst);
            g2.notify();
        });
        gate.wait_until(|| children.load(Ordering::SeqCst) == 0);
        child.join().unwrap();
    });
    report.assert_ok();
}

// ---------------------------------------------------------------------------------------------
// Mutation: a gate fork whose notify fires *outside* the mutex. The notify can then land in
// the window between a waiter's predicate re-check (under the mutex) and its wait — the
// textbook lost wake-up the real gate's notify-under-mutex discipline prevents. loom-lite must
// find it.
// ---------------------------------------------------------------------------------------------

mod buggy {
    use loom_lite::sync::atomic::{AtomicUsize, Ordering::SeqCst};
    use loom_lite::sync::{Condvar, Mutex};

    /// `CompletionGate` with the one discipline removed: `notify` does not take the mutex.
    pub struct BuggyGate {
        mutex: Mutex<()>,
        condvar: Condvar,
        waiters: AtomicUsize,
    }

    impl BuggyGate {
        pub fn new() -> Self {
            BuggyGate {
                mutex: Mutex::new(()),
                condvar: Condvar::new(),
                waiters: AtomicUsize::new(0),
            }
        }

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

        /// BUG (deliberate): the notify is not serialized with the waiter's check-then-wait.
        pub fn notify(&self) {
            if self.waiters.load(SeqCst) > 0 {
                self.condvar.notify_all();
            }
        }
    }
}

/// The unlocked-notify fork must be caught as a deadlock (waiter asleep forever).
#[test]
fn unlocked_notify_fork_is_caught_as_deadlock() {
    let report = Checker::new().preemption_bound(4).random_runs(0).check(|| {
        let gate = Arc::new(buggy::BuggyGate::new());
        let done = Arc::new(AtomicUsize::new(0));
        let (g2, d2) = (Arc::clone(&gate), Arc::clone(&done));
        let finisher = thread::spawn(move || {
            d2.store(1, Ordering::SeqCst);
            g2.notify();
        });
        gate.wait_until(|| done.load(Ordering::SeqCst) == 1);
        finisher.join().unwrap();
    });
    assert!(
        report.found_deadlock(),
        "loom-lite failed to catch the seeded unlocked-notify bug: {report:?}"
    );
}
