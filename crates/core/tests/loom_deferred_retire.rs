//! Model checks of retire batching (`Retirer` in `src/runtime.rs`) under loom-lite: a
//! `ChildDone` a worker held back is never stranded.
//!
//! Run with `cargo test -p weakdep_core --features loom-model --test loom_deferred_retire`.
//! The waiters are the shipped wake protocols — the job's `Gate` (a non-worker `taskwait` or
//! `Runtime::run`) and the pool's `SleepState` predicate sleeper (a worker's `taskwait`) —
//! over loom-lite shims. The retiring workers are a transcription of the batching rule: a
//! leaf's `ChildDone` waits in its worker's batch while the worker's next local job is a
//! sibling, and the batch is applied by the next retire that does not wait, or by the idle
//! step once the worker finds no job. The engine is modelled by its one effect the waiters
//! read: the parent's live-child count, decremented by the number of `ChildDone`s applied.
//!
//! The dangerous schedule is a forecast that misses: worker A finishes `c1`, sees its sibling
//! `c2` on top of its deque and holds `c1`'s `ChildDone` back, then a thief takes `c2`. A
//! finds no job and only its idle step can apply the batch.

#![cfg(feature = "loom-model")]

use loom_lite::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use loom_lite::sync::Mutex;
use loom_lite::{thread, Checker, Report};
use std::sync::Arc;
use weakdep_threadpool::sleep::{Gate, SleepState};

/// The siblings `c1` and `c2` of one parent: their worker's deque (`c1` on top) and the
/// parent's live-child count.
struct Family {
    deque: Mutex<Vec<usize>>,
    live: AtomicUsize,
}

impl Family {
    fn new() -> Self {
        Family {
            deque: Mutex::new(vec![2, 1]),
            live: AtomicUsize::new(2),
        }
    }

    /// Applies `held` `ChildDone`s; the one that drains the parent announces it.
    fn apply(&self, held: usize, announce: &(impl Fn() + ?Sized)) {
        if held > 0 && self.live.fetch_sub(held, SeqCst) == held {
            announce();
        }
    }
}

/// The deque's owner: runs its jobs top first and retires each under the batching rule, with
/// the idle step applying the batch iff `idle_flush` (the shipped worker always does; `false`
/// is the seeded mutation). It then sleeps; nothing else arrives in the model, so it returns.
fn owner(family: &Family, announce: &(impl Fn() + ?Sized), idle_flush: bool) {
    let mut held = 0;
    loop {
        let job = family.deque.lock().pop();
        if job.is_none() {
            if idle_flush {
                family.apply(held, announce);
            }
            return;
        }
        // The leaf's body ran. Its retire: every job of the deque is a sibling.
        held += 1;
        let next_is_sibling = !family.deque.lock().is_empty();
        if !next_is_sibling {
            family.apply(held, announce);
            held = 0;
        }
    }
}

/// A thief with an empty deque: steals the bottom job, if any, and retires it at once (its
/// next local job is not a sibling).
fn thief(family: &Family, announce: &(impl Fn() + ?Sized)) {
    let stolen = {
        let mut deque = family.deque.lock();
        (!deque.is_empty()).then(|| deque.remove(0))
    };
    if stolen.is_some() {
        family.apply(1, announce);
    }
}

/// Owner and thief against the job gate's waiter (`gate.wait_until(live == 0)`).
fn gate_model(idle_flush: bool) -> Report {
    Checker::new()
        .preemption_bound(3)
        .random_runs(500)
        .check(move || {
            let family = Arc::new(Family::new());
            let gate = Arc::new(Gate::new());
            let workers: Vec<_> = [true, false]
                .into_iter()
                .map(|is_owner| {
                    let (f, g) = (Arc::clone(&family), Arc::clone(&gate));
                    thread::spawn(move || {
                        let announce = || g.notify();
                        if is_owner {
                            owner(&f, &announce, idle_flush)
                        } else {
                            thief(&f, &announce)
                        }
                    })
                })
                .collect();
            gate.wait_until(|| family.live.load(SeqCst) == 0);
            for worker in workers {
                worker.join().unwrap();
            }
        })
}

/// A job-gate waiter is released whichever way the thief's steal interleaves with the
/// owner's forecast.
#[test]
fn a_deferred_retire_reaches_the_job_gate() {
    let report = gate_model(true);
    report.assert_ok();
    assert!(
        report.exhausted,
        "deferred-retire gate model should be exhaustible"
    );
}

/// Mutation: the owner skips the idle flush. When the thief takes `c2` after the owner held
/// `c1` back, the parent's count stays at 1 and the waiter sleeps forever.
#[test]
fn skipping_the_idle_flush_is_caught_as_deadlock() {
    let report = gate_model(false);
    assert!(
        report.found_deadlock(),
        "loom-lite failed to catch the seeded skipped idle flush: {report:?}"
    );
}

/// The same workers against a worker's `taskwait`: a predicate sleeper of the pool's sleep
/// state, woken by `wake_waiters` after the count drains (what `schedule_effects` does for a
/// `taskwaits_unblocked` effect).
#[test]
fn a_deferred_retire_wakes_a_taskwaiting_worker() {
    let report = Checker::new()
        .preemption_bound(3)
        .random_runs(500)
        .check(|| {
            let family = Arc::new(Family::new());
            let sleep = Arc::new(SleepState::new());
            let workers: Vec<_> = [true, false]
                .into_iter()
                .map(|is_owner| {
                    let (f, s) = (Arc::clone(&family), Arc::clone(&sleep));
                    thread::spawn(move || {
                        let announce = || s.wake_waiters();
                        if is_owner {
                            owner(&f, &announce, true)
                        } else {
                            thief(&f, &announce)
                        }
                    })
                })
                .collect();
            // `WorkerContext::work_until`: read the epoch, check the predicate, sleep registered.
            let done = || family.live.load(SeqCst) == 0;
            loop {
                let epoch = sleep.current_epoch();
                if done() {
                    break;
                }
                sleep.sleep(epoch, true, done, || {});
            }
            for worker in workers {
                worker.join().unwrap();
            }
        });
    report.assert_ok();
}
