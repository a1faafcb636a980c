//! Integration tests of the work-assisting loop primitives (ISSUE 10) through the public
//! facade: cooperative deadline/cancel observation at chunk boundaries (the PR 9 follow-up —
//! a single long-running body no longer overshoots its deadline unbounded), chunk-panic
//! containment through the job failure path, and tenant attribution of assist work in the
//! per-job and runtime-wide stats.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use weakdep::{JobError, JobOptions, Runtime, RuntimeConfig, SharedSlice};

fn runtime(workers: usize) -> Runtime {
    Runtime::new(RuntimeConfig::new().workers(workers))
}

/// One registered task whose body is a single big `for_each` over `chunks` unit chunks, each
/// sleeping `per_chunk` (a long-running data-parallel body). Returns the chunk counter.
fn submit_big_loop(
    rt: &Runtime,
    options: JobOptions,
    chunks: usize,
    per_chunk: Duration,
) -> (weakdep::JobHandle<()>, Arc<AtomicUsize>) {
    let ran = Arc::new(AtomicUsize::new(0));
    let observer = Arc::clone(&ran);
    let handle = rt.submit_with(options, move |root| {
        let data = SharedSlice::<u64>::new(chunks);
        let d = data.clone();
        root.task()
            .inout(data.region(0..chunks))
            .label("big-loop")
            .spawn(move |t| {
                let view = d.loop_view_mut(t, 0..chunks);
                let counter = Arc::clone(&observer);
                t.for_each(0..chunks, 1, move |s, e| {
                    view.chunk(s..e).fill(1);
                    counter.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(per_chunk);
                });
            });
    });
    (handle, ran)
}

/// Satellite 2: a deadline job whose body is one big `for_each` stops issuing chunks at the
/// next chunk boundary after the watchdog aborts it — the loop does not run to completion,
/// and the job reports `DeadlineExceeded` long before the full loop would have finished.
#[test]
fn deadline_is_observed_at_chunk_boundaries() {
    let rt = runtime(2);
    // 4000 chunks × 2ms ≈ 8s of loop if the deadline were ignored; the deadline is 100ms.
    let chunks = 4000;
    let started = Instant::now();
    let (handle, ran) = submit_big_loop(
        &rt,
        JobOptions::new()
            .deadline(Duration::from_millis(100))
            .label("deadline-loop"),
        chunks,
        Duration::from_millis(2),
    );
    let outcome = handle.wait_result();
    let elapsed = started.elapsed();
    assert!(
        matches!(outcome, Err(JobError::DeadlineExceeded)),
        "expected DeadlineExceeded, got {outcome:?}"
    );
    let executed = ran.load(Ordering::SeqCst);
    assert!(
        executed < chunks,
        "the loop must not run to completion ({executed}/{chunks})"
    );
    assert!(
        elapsed < Duration::from_secs(4),
        "the abort must cut the loop short promptly (took {elapsed:?})"
    );
}

/// Explicit `cancel()` is observed the same way: claims stop at the next chunk boundary and
/// the in-flight body returns, so `cancel` does not block behind the rest of the loop.
#[test]
fn cancel_is_observed_at_chunk_boundaries() {
    let rt = runtime(2);
    let chunks = 4000;
    let (handle, ran) = submit_big_loop(
        &rt,
        JobOptions::new().label("cancelled-loop"),
        chunks,
        Duration::from_millis(2),
    );
    // Wait for the loop to actually start, then cancel mid-flight.
    while ran.load(Ordering::SeqCst) == 0 {
        std::thread::yield_now();
    }
    handle.cancel();
    let executed = ran.load(Ordering::SeqCst);
    assert!(
        executed < chunks,
        "cancel must stop the loop mid-flight ({executed}/{chunks})"
    );
    let outcome = handle.wait_result();
    assert!(
        matches!(outcome, Err(JobError::Cancelled)),
        "expected Cancelled, got {outcome:?}"
    );
}

/// A panic inside one chunk is contained per-chunk, the loop drains (no chunk is lost), and
/// the payload flows through the job's normal failure path with the original message.
#[test]
fn chunk_panic_flows_through_the_job_failure_path() {
    let rt = runtime(2);
    let handle = rt.submit_with(JobOptions::new().label("poisoned-loop"), move |root| {
        let data = SharedSlice::<u64>::new(64);
        let d = data.clone();
        root.task()
            .inout(data.region(0..64))
            .label("poisoned")
            .spawn(move |t| {
                let view = d.loop_view_mut(t, 0..64);
                t.for_each(0..64, 4, move |s, e| {
                    if s == 32 {
                        panic!("chunk 32 exploded");
                    }
                    view.chunk(s..e).fill(1);
                });
            });
    });
    match handle.wait_result() {
        Err(JobError::Panicked { message, .. }) => {
            assert!(
                message.contains("chunk 32 exploded"),
                "unexpected message: {message}"
            );
        }
        other => panic!("expected the chunk panic, got {other:?}"),
    }
}

/// Tenant attribution: assist work lands in the *registering* job's stats slice, and the
/// pool-wide assist counters satisfy `assisted_loops <= assist_steals <= assist_chunks`.
/// With two workers and a single in-flight task, the idle worker is recruited by the loop's
/// publish and must claim chunks (512 × 1ms leaves it an enormous window).
#[test]
fn assist_work_is_attributed_to_the_registering_job() {
    let rt = runtime(2);
    let (handle, ran) = submit_big_loop(
        &rt,
        JobOptions::new().label("assisted-loop"),
        512,
        Duration::from_millis(1),
    );
    let outcome = handle
        .wait_timeout(Duration::from_secs(60))
        .expect("the assisted loop finishes well within the timeout");
    assert!(outcome.is_ok(), "unexpected outcome: {outcome:?}");
    assert_eq!(
        ran.load(Ordering::SeqCst),
        512,
        "every chunk ran exactly once"
    );
    let job_stats = handle.stats();
    assert!(
        job_stats.assist_chunks > 0,
        "the idle worker must have assisted the job's loop (got {job_stats:?})"
    );
    let stats = rt.stats();
    assert!(stats.assisted_loops >= 1, "the loop was assisted");
    assert!(
        stats.assisted_loops <= stats.assist_steals && stats.assist_steals <= stats.assist_chunks,
        "assist counter identity violated: loops={} steals={} chunks={}",
        stats.assisted_loops,
        stats.assist_steals,
        stats.assist_chunks
    );
    assert_eq!(
        stats.assist_chunks, job_stats.assist_chunks,
        "with a single job, the pool-wide and per-job assist counts agree"
    );
}

/// `TaskCtx::is_cancelled` exposes the same abort bracket the chunk boundaries poll, so a
/// body can bail out of non-loop work too.
#[test]
fn is_cancelled_reflects_the_abort_bracket() {
    let rt = runtime(2);
    let observed = Arc::new(AtomicUsize::new(usize::MAX));
    let seen = Arc::clone(&observed);
    let handle = rt.submit_with(JobOptions::new().label("poll-cancel"), move |root| {
        assert!(!root.is_cancelled(), "a fresh job is not cancelled");
        let data = SharedSlice::<u64>::new(8);
        let d = data.clone();
        let seen = Arc::clone(&seen);
        root.task()
            .inout(data.region(0..8))
            .label("poller")
            .spawn(move |t| {
                let view = d.loop_view_mut(t, 0..8);
                // Spin inside the body until the cancel lands, proving the poll observes it
                // mid-body (not only between tasks).
                while !t.is_cancelled() {
                    std::thread::yield_now();
                }
                seen.store(1, Ordering::SeqCst);
                // The loop below starts after the abort: no chunk may run.
                let ran = Arc::new(AtomicUsize::new(0));
                let r = Arc::clone(&ran);
                t.for_each(0..8, 1, move |s, e| {
                    view.chunk(s..e).fill(1);
                    r.fetch_add(1, Ordering::SeqCst);
                });
                assert_eq!(
                    ran.load(Ordering::SeqCst),
                    0,
                    "an aborted job issues no chunks"
                );
            });
    });
    // Let the body reach its poll loop, then cancel.
    std::thread::sleep(Duration::from_millis(20));
    handle.cancel();
    assert_eq!(
        observed.load(Ordering::SeqCst),
        1,
        "the body observed the cancel"
    );
}
