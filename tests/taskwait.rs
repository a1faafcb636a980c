//! A worker in `taskwait` is an idle worker with an exit predicate (ISSUE 19): it sits in the
//! pool's one idle loop and one sleeper population, so it assists published loops, is
//! recruited by any job's work — a submission from outside included — and its parks are
//! counted as pool sleeps.
//!
//! Every test pins the scenario with flags instead of sleeps: the job's root holds worker X
//! in its body until its only child has started on the other worker Y (and the test says
//! `go`), then `taskwait`s — from there on X is the only worker that can do anything else.
//! Waits on *wrong* behaviour are bounded, so a regression fails an assertion instead of
//! hanging.

use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;
use std::time::{Duration, Instant};

use weakdep::{Runtime, RuntimeConfig, TaskCtx};

const BOUND: Duration = Duration::from_secs(10);

/// Spins until `cond()` or `BOUND`; returns whether the condition held.
fn spin_until(cond: impl Fn() -> bool) -> bool {
    let start = Instant::now();
    while !cond() {
        if start.elapsed() > BOUND {
            return false;
        }
        std::thread::yield_now();
    }
    true
}

/// The root half of the scenario: spawn `child` (which must set `started` first thing), hold
/// this worker until the child runs on the other one and the test says `go`, then `taskwait`.
fn park_root_in_taskwait(
    root: &TaskCtx<'_>,
    started: &Arc<AtomicBool>,
    go: &Arc<AtomicBool>,
    child: impl FnOnce(&TaskCtx<'_>) + Send + 'static,
) {
    root.task().label("child").spawn(child);
    assert!(
        spin_until(|| started.load(SeqCst) && go.load(SeqCst)),
        "the other worker never picked up the child"
    );
    root.taskwait();
}

/// The child owns a `for_each` and stalls its own first chunk (bounded) until a chunk ran on
/// another thread. The only other worker is parked in the root's `taskwait`: it must assist.
#[test]
fn a_worker_parked_in_taskwait_assists_a_loop() {
    let rt = Runtime::new(RuntimeConfig::new().workers(2));
    let started = Arc::new(AtomicBool::new(false));
    let go = Arc::new(AtomicBool::new(true));
    let handle = rt.submit(move |root| {
        let s2 = Arc::clone(&started);
        park_root_in_taskwait(root, &started, &go, move |t| {
            s2.store(true, SeqCst);
            let owner = std::thread::current().id();
            // Set by the first foreign chunk — or by the owner giving up on one.
            let proceed = Arc::new(AtomicBool::new(false));
            // The loop touches no data: its chunks only record who ran them.
            t.for_each(0..64, 1, move |_, _| {
                if std::thread::current().id() == owner {
                    spin_until(|| proceed.load(SeqCst));
                }
                proceed.store(true, SeqCst);
            });
        });
    });
    handle.wait();
    assert!(
        rt.stats().assist_chunks >= 1,
        "the worker parked in taskwait ran no chunk of the child's loop"
    );
}

/// Job A's root parks in `taskwait` while its only child holds the other worker until a flag
/// is set; job B, submitted from outside, sets the flag. Only the parked worker can run B —
/// recruited by nothing but the pool's ordinary submission wake.
#[test]
fn a_worker_parked_in_taskwait_is_recruited_by_another_jobs_submission() {
    let rt = Runtime::new(RuntimeConfig::new().workers(2));
    let started = Arc::new(AtomicBool::new(false));
    let go = Arc::new(AtomicBool::new(true));
    let flag = Arc::new(AtomicBool::new(false));
    let released = Arc::new(AtomicBool::new(false));
    let (s, f, r) = (Arc::clone(&started), Arc::clone(&flag), Arc::clone(&released));
    let job_a = rt.submit(move |root| {
        let s2 = Arc::clone(&s);
        park_root_in_taskwait(root, &s, &go, move |_| {
            s2.store(true, SeqCst);
            r.store(spin_until(|| f.load(SeqCst)), SeqCst);
        });
    });
    assert!(spin_until(|| started.load(SeqCst)));
    // Let the root actually fall asleep, so the submission exercises the wake rather than the
    // pre-sleep scan (either must work; the protocol does not depend on this pause).
    std::thread::sleep(Duration::from_millis(20));
    let f = Arc::clone(&flag);
    let job_b = rt.submit(move |_| f.store(true, SeqCst));
    job_b.wait();
    job_a.wait();
    assert!(released.load(SeqCst), "job B never ran while job A's child held the other worker");
}

/// With one worker inside a body and the other inside `taskwait`, the pool's sleep counter can
/// only move because the taskwaiting worker parked.
#[test]
fn taskwait_parks_are_pool_sleeps() {
    let rt = Runtime::new(RuntimeConfig::new().workers(2));
    let started = Arc::new(AtomicBool::new(false));
    let go = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    let (s, g, rel) = (Arc::clone(&started), Arc::clone(&go), Arc::clone(&release));
    let job = rt.submit(move |root| {
        let s2 = Arc::clone(&s);
        park_root_in_taskwait(root, &s, &g, move |_| {
            s2.store(true, SeqCst);
            spin_until(|| rel.load(SeqCst));
        });
    });
    assert!(spin_until(|| started.load(SeqCst)));
    // Both workers are inside bodies here, the root held back by `go`.
    let before = rt.stats().sleeps;
    go.store(true, SeqCst);
    let parked = spin_until(|| rt.stats().sleeps > before);
    release.store(true, SeqCst);
    job.wait();
    assert!(parked, "RuntimeStats::sleeps did not move across a parked taskwait");
}
