//! Deterministic chaos: a fleet of concurrent jobs under seeded fault injection — task-body
//! panics at a 12 % rate, pre-dispatch delays and admission stalls — must keep the service's
//! isolation invariants (`docs/robustness.md`).
//!
//! Every injection decision is a pure function of `(seed, job id, task ordinal)`, so the test
//! predicts the targeted jobs with [`FaultPlan::would_panic`] and checks, per job:
//!
//! * an un-targeted job completes with its oracle value: the plan perturbs a neighbour's
//!   timing, never its result;
//! * a targeted job fails with `JobError::Panicked`, a deadline job with `DeadlineExceeded`,
//!   an explicitly cancelled job with `Cancelled`;
//! * every job drains: `registered == deeply_completed` and `executed + skipped ==
//!   registered`, per job and in the engine aggregate;
//! * the minted ids stay below the task total, and the whole fleet finishes within the
//!   harness deadline: an injected fault must never wedge the service.
//!
//! Runs only with the `faults` feature: `cargo test -p weakdep --features faults --test chaos`.

#![cfg(feature = "faults")]

use std::time::{Duration, Instant};

use weakdep::{
    FaultPlan, JobError, JobHandle, JobOptions, PanicPolicy, Runtime, RuntimeConfig,
    SchedulingPolicy, SharedSlice, TaskCtx, TaskSpec,
};

/// The fixed seed: a rerun hits the same tasks, so a failure reproduces exactly.
const SEED: u64 = 0x00C0_FFEE;
/// Injected task-panic probability.
const PANIC_RATE: f64 = 0.12;
/// Wall-clock ceiling for the whole fleet: a hang is a failed invariant, not a slow run.
const HARNESS_DEADLINE: Duration = Duration::from_secs(120);

/// Job shapes whose tasks one thread registers, so that the ordinals — and with them the
/// injection decisions — are deterministic (the nested shape registers from concurrent workers
/// and is exercised by `tests/proptest_faults.rs` instead).
#[derive(Clone, Copy, Debug)]
enum Shape {
    Chain,
    Fanout,
    Batch,
}

const SHAPES: [Shape; 3] = [Shape::Chain, Shape::Fanout, Shape::Batch];

impl Shape {
    /// The sum the body returns when all `n` task bodies execute.
    fn expected(self, n: usize) -> u64 {
        match self {
            Shape::Chain => (n * 64) as u64,
            Shape::Fanout | Shape::Batch => n as u64,
        }
    }

    /// Registers `n` tasks (ordinals 1..=n; the job's root is ordinal 0) and returns the sum of
    /// the buffer they write.
    fn run(self, ctx: &TaskCtx<'_>, n: usize) -> u64 {
        let data = match self {
            Shape::Chain => {
                let data = SharedSlice::<u64>::filled(64, 0);
                for _ in 0..n {
                    let d = data.clone();
                    ctx.task()
                        .inout(data.region(0..64))
                        .label("chaos-link")
                        .spawn(move |t| d.write(t, 0..64).iter_mut().for_each(|v| *v += 1));
                }
                data
            }
            Shape::Fanout => fanout(ctx, n, Duration::ZERO),
            Shape::Batch => {
                let cells = 64usize;
                let data = SharedSlice::<u64>::filled(cells, 0);
                let specs: Vec<TaskSpec> = (0..n)
                    .map(|i| {
                        let (cell, d) = (i % cells, data.clone());
                        ctx.task()
                            .inout(data.region(cell..cell + 1))
                            .label("chaos-batch")
                            .stage(move |t| d.write(t, cell..cell + 1)[0] += 1)
                    })
                    .collect();
                ctx.spawn_batch(specs);
                data
            }
        };
        ctx.taskwait();
        data.snapshot().iter().sum()
    }
}

/// `n` tasks, each sleeping `nap` and then setting its own cell.
fn fanout(ctx: &TaskCtx<'_>, n: usize, nap: Duration) -> SharedSlice<u64> {
    let data = SharedSlice::<u64>::filled(n, 0);
    for i in 0..n {
        let d = data.clone();
        ctx.task()
            .inout(data.region(i..i + 1))
            .label("chaos-cell")
            .spawn(move |t| {
                std::thread::sleep(nap);
                d.write(t, i..i + 1)[0] = 1;
            });
    }
    data
}

/// What the test arranged for a job, checked against its outcome.
#[derive(Clone, Copy, Debug)]
enum Fate {
    /// Must succeed with its oracle value unless the plan targets one of its ordinals.
    Soak(Shape, usize),
    /// Submitted with a deadline far shorter than its workload.
    Deadline,
    /// Cancelled right after submission.
    Cancelled,
}

struct PendingJob {
    fate: Fate,
    /// Tasks the job registers, its root excluded.
    tasks: usize,
    /// Whether the plan injects a panic into any of the job's ordinals.
    targeted: bool,
    handle: JobHandle<u64>,
    outcome: Option<Result<Option<u64>, JobError>>,
}

/// Silences the printouts of the panics the plan injects on purpose.
fn install_panic_filter() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
        if !message.is_some_and(|m| m.starts_with("injected fault")) {
            default_hook(info);
        }
    }));
}

#[test]
fn seeded_faults_never_break_isolation() {
    install_panic_filter();
    // Large jobs are near-certainly targeted at a 12 % per-task rate (1 - 0.88^49 ≈ 1) and
    // exercise containment under load; small ones keep a real un-targeted share (0.88^9 ≈
    // 32 %), so the oracle half of the invariant is exercised. The seed fixes the split.
    let (large_jobs, large_tasks, small_jobs, small_tasks) = (8, 48, 32, 8);
    let budget = ((large_jobs * large_tasks + small_jobs * small_tasks) / 16).max(64);
    let plan = FaultPlan::seeded(SEED)
        .task_panic_rate(PANIC_RATE)
        .pre_dispatch_delay(0.05, Duration::from_micros(200))
        .admission_stall_rate(0.08, Duration::from_micros(200));
    let rt = Runtime::new(
        RuntimeConfig::new()
            .workers(2)
            .scheduling_policy(SchedulingPolicy::FairShare)
            .live_task_budget(budget)
            .stall_watchdog(Duration::from_millis(50), 4)
            .fault_plan(plan.clone()),
    );
    let start = Instant::now();
    let mut pending: Vec<PendingJob> = Vec::new();
    let mut track = |fate: Fate, tasks: usize, handle: JobHandle<u64>| {
        let targeted = (0..=tasks as u32).any(|o| plan.would_panic(handle.id(), o));
        pending.push(PendingJob {
            fate,
            tasks,
            targeted,
            handle,
            outcome: None,
        });
    };

    // The soak fleet, alternating shapes and panic policies. `submit_with` may block on the
    // admission budget and on injected admission stalls: that backpressure is part of the test.
    let sizes = std::iter::repeat_n(large_tasks, large_jobs)
        .chain(std::iter::repeat_n(small_tasks, small_jobs));
    for (i, n) in sizes.enumerate() {
        let shape = SHAPES[i % SHAPES.len()];
        let policy = if i % 2 == 0 {
            PanicPolicy::FailFast
        } else {
            PanicPolicy::RunToCompletion
        };
        let options = JobOptions::new().panic_policy(policy).label("chaos-soak");
        track(
            Fate::Soak(shape, n),
            n,
            rt.submit_with(options, move |ctx| shape.run(ctx, n)),
        );
    }
    // Deadline jobs: a serial chain of 200 sleeping links under a deadline it cannot meet.
    for _ in 0..2 {
        let options = JobOptions::new()
            .deadline(Duration::from_millis(5))
            .label("chaos-deadline");
        let handle = rt.submit_with(options, |ctx| {
            let data = SharedSlice::<u64>::filled(1, 0);
            for _ in 0..200 {
                let d = data.clone();
                ctx.task()
                    .inout(data.region(0..1))
                    .label("chaos-sleep")
                    .spawn(move |t| {
                        std::thread::sleep(Duration::from_millis(1));
                        d.write(t, 0..1)[0] += 1;
                    });
            }
            ctx.taskwait();
            data.snapshot()[0]
        });
        track(Fate::Deadline, 200, handle);
    }
    // Cancelled jobs: a wide fanout of sleeping tasks, cancelled while in flight.
    for _ in 0..2 {
        let options = JobOptions::new().label("chaos-cancel");
        let handle = rt.submit_with(options, |ctx| {
            let data = fanout(ctx, 256, Duration::from_micros(300));
            ctx.taskwait();
            data.snapshot().iter().sum()
        });
        std::thread::sleep(Duration::from_millis(1));
        handle.cancel();
        track(Fate::Cancelled, 256, handle);
    }

    // Drain under the harness deadline.
    while pending.iter().any(|p| p.outcome.is_none()) {
        assert!(
            start.elapsed() < HARNESS_DEADLINE,
            "{} jobs unfinished after {HARNESS_DEADLINE:?}: the service hung under injection",
            pending.iter().filter(|p| p.outcome.is_none()).count()
        );
        for p in pending.iter_mut().filter(|p| p.outcome.is_none()) {
            p.outcome = p.handle.try_wait_result();
        }
        std::thread::yield_now();
    }

    let mut clean = 0;
    for p in &pending {
        let outcome = p.outcome.as_ref().expect("drained above");
        let label = format!("{:?} job {}", p.fate, p.handle.id());
        match (p.fate, outcome) {
            (Fate::Soak(shape, n), Ok(value)) => {
                assert!(!p.targeted, "{label}: targeted but reported success");
                assert_eq!(
                    *value,
                    Some(shape.expected(n)),
                    "{label}: not the oracle value"
                );
                clean += 1;
            }
            (Fate::Soak(..), Err(error)) => {
                assert!(
                    p.targeted,
                    "{label}: failed without an injected fault: {error}"
                );
                assert!(
                    matches!(error, JobError::Panicked { .. }),
                    "{label}: a targeted job must report its panic, got {error}"
                );
            }
            // The first failure wins, so a targeted deadline or cancelled job may report the
            // injected panic instead.
            (_, Err(JobError::Panicked { .. })) if p.targeted => {}
            (Fate::Deadline, Err(JobError::DeadlineExceeded)) => {}
            (Fate::Cancelled, Err(JobError::Cancelled)) => {}
            (_, outcome) => panic!("{label}: reported {outcome:?}"),
        }
        // Every job drains fully, whatever its fate.
        let stats = p.handle.stats();
        assert!(stats.finished, "{label}: unfinished after its outcome");
        assert_eq!(
            stats.tasks_registered, stats.tasks_deeply_completed,
            "{label}: registered != deeply_completed"
        );
        assert_eq!(
            stats.tasks_executed + stats.tasks_skipped,
            stats.tasks_registered,
            "{label}: executed + skipped != registered"
        );
    }
    assert!(
        clean > 0,
        "the seed left no un-targeted job, so the oracle half of the invariant went unexercised"
    );

    let stats = rt.stats();
    assert_eq!(stats.jobs_submitted, pending.len());
    assert_eq!(stats.jobs_completed, pending.len(), "every job drains");
    // A targeted cancel job can abort on its injected panic and finish before `cancel()`, so
    // the count lies between the jobs that reported `Cancelled` and the 2 cancelled.
    let cancelled = pending
        .iter()
        .filter(|p| matches!(p.outcome, Some(Err(JobError::Cancelled))))
        .count();
    assert!(
        (cancelled..=2).contains(&stats.jobs_cancelled),
        "jobs_cancelled = {} outside [{cancelled}, 2]",
        stats.jobs_cancelled
    );
    assert_eq!(
        stats.engine.tasks_registered, stats.engine.tasks_deeply_completed,
        "aggregate accounting must balance under injection"
    );
    let capacity = rt.capacity();
    assert_eq!((capacity.live_tasks, capacity.live_jobs), (0, 0));
    let total_tasks: usize = pending.iter().map(|p| p.tasks + 1).sum();
    assert!(
        capacity.task_table_slots < total_tasks,
        "minted ids ({}) tracked the task total ({total_tasks}) instead of plateauing",
        capacity.task_table_slots
    );
}
