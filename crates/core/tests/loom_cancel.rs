//! Model checks of the job-cancellation protocol (`src/job.rs` + the `execute_task` bracket in
//! `src/runtime.rs`) under loom-lite.
//!
//! Run with `cargo test -p weakdep_core --features loom-model --test loom_cancel`.
//! The gate under test is the real completion `Gate`; the worker's body bracket and the
//! canceller are modelled with loom atomics mirroring the shipped code, the same way
//! `loom_completion.rs` models the engine-side predicates.
//!
//! `drop_broadcast_never_leaks_a_parked_sleeper` is gone with the behaviour it modelled: a
//! worker in `taskwait` no longer parks in the job's gate, so `Drop for Runtime` has nobody to
//! broadcast to. What wakes that worker now — the dispatch of the job's remaining tasks and
//! the child-drain flip — is `wake_is_never_lost` and
//! `predicate_flip_wakes_every_registered_waiter` in `crates/threadpool/tests/loom_model.rs`.

#![cfg(feature = "loom-model")]

use loom_lite::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use loom_lite::{thread, Checker};
use std::sync::Arc;
use weakdep_threadpool::sleep::Gate;

/// The `cancel()` contract: once `cancel()` returns, no task body of the job may start — and
/// the canceller must never hang waiting for an in-flight body (the last body's `running`
/// decrement must reliably wake it, whichever way it interleaves with the canceller's
/// store-then-wait).
#[test]
fn no_body_starts_after_cancel_returns() {
    let report = Checker::new()
        .preemption_bound(4)
        .random_runs(500)
        .check(|| {
            let gate = Arc::new(Gate::new());
            let cancelled = Arc::new(AtomicBool::new(false));
            let running = Arc::new(AtomicUsize::new(0));
            let cancel_returned = Arc::new(AtomicBool::new(false));

            let (g2, c2, r2, cr2) = (
                Arc::clone(&gate),
                Arc::clone(&cancelled),
                Arc::clone(&running),
                Arc::clone(&cancel_returned),
            );
            // Worker: the `execute_task` cancellation bracket — increment *before* the
            // cancelled-load, decrement after, notify when possibly the last body of a cancelled
            // job.
            let worker = thread::spawn(move || {
                r2.fetch_add(1, SeqCst);
                if !c2.load(SeqCst) {
                    // Body starts here: by the SeqCst total order this can only happen if the
                    // increment above preceded the canceller's store, in which case the canceller
                    // still observes running > 0 and waits us out.
                    assert!(
                        !cr2.load(SeqCst),
                        "a task body started after cancel() returned"
                    );
                }
                let prev = r2.fetch_sub(1, SeqCst);
                if prev == 1 && c2.load(SeqCst) {
                    g2.notify();
                }
            });

            // Canceller: `JobState::cancel`.
            cancelled.store(true, SeqCst);
            gate.wait_until(|| running.load(SeqCst) == 0);
            cancel_returned.store(true, SeqCst);

            worker.join().unwrap();
        });
    report.assert_ok();
    assert!(
        report.exhausted,
        "cancel bracket model should be exhaustible"
    );
}

/// Mutation: the bracket with the order inverted — check `cancelled` *before* bumping
/// `running` (test-and-then-register instead of register-and-then-test). The canceller can
/// then read `running == 0` in the window between the worker's load and its increment, return,
/// and have the body start afterwards. loom-lite must find the violated assertion.
#[test]
fn inverted_bracket_fork_is_caught() {
    let report = Checker::new()
        .preemption_bound(4)
        .random_runs(500)
        .check(|| {
            let gate = Arc::new(Gate::new());
            let cancelled = Arc::new(AtomicBool::new(false));
            let running = Arc::new(AtomicUsize::new(0));
            let cancel_returned = Arc::new(AtomicBool::new(false));

            let (g2, c2, r2, cr2) = (
                Arc::clone(&gate),
                Arc::clone(&cancelled),
                Arc::clone(&running),
                Arc::clone(&cancel_returned),
            );
            let worker = thread::spawn(move || {
                // BUG (deliberate): load-then-increment.
                if !c2.load(SeqCst) {
                    r2.fetch_add(1, SeqCst);
                    assert!(
                        !cr2.load(SeqCst),
                        "a task body started after cancel() returned"
                    );
                    let prev = r2.fetch_sub(1, SeqCst);
                    if prev == 1 && c2.load(SeqCst) {
                        g2.notify();
                    }
                }
            });

            cancelled.store(true, SeqCst);
            gate.wait_until(|| running.load(SeqCst) == 0);
            cancel_returned.store(true, SeqCst);

            worker.join().unwrap();
        });
    assert!(
        report.found_panic(),
        "loom-lite failed to catch the seeded inverted-bracket bug: {report:?}"
    );
}
