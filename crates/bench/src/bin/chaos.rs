//! Deterministic chaos harness: the mixed-tenant soak under seeded fault injection
//! (`--features faults`), asserting the service's isolation invariants.
//!
//! A seeded [`FaultPlan`] injects task-body panics (≥10% rate), pre-dispatch delays and
//! admission stalls into a fleet of concurrent jobs. Because every injection decision is a
//! pure function of `(seed, job id, task ordinal)`, the harness *predicts* the targeted set
//! up front with [`FaultPlan::would_panic`] and then checks, per job:
//!
//! * **un-targeted jobs** complete with oracle-equal output (the fault plan must not perturb
//!   any neighbour's result — only its timing);
//! * **targeted jobs** fail with `JobError::Panicked`, deadline jobs with `DeadlineExceeded`,
//!   explicitly cancelled jobs with `Cancelled` — exactly as injected;
//! * every job drains: `registered == deeply_completed` and `executed + skipped ==
//!   registered` per job and in the engine aggregate;
//! * capacity plateaus (task-table slots recycle instead of tracking the task total) and the
//!   whole soak finishes within the harness deadline — an injected fault must never wedge the
//!   service.
//!
//! Prints the fleet's outcome counts, clean-job latency and admission counters. Without
//! `--features faults` the binary compiles to a stub so `--all-targets` builds stay clean.

#[cfg(feature = "faults")]
mod harness {
    use std::time::{Duration, Instant};

    use weakdep_bench::CommonArgs;
    use weakdep_core::{
        FaultPlan, JobError, JobHandle, JobOptions, PanicPolicy, Runtime, RuntimeConfig,
        SchedulingPolicy, SharedSlice, TaskCtx, TaskSpec,
    };

    /// The soak's fixed seed: reruns hit the same tasks, so a failure reproduces exactly.
    const SEED: u64 = 0x00C0_FFEE;
    /// Injected task-panic probability (the acceptance floor is 10%).
    const PANIC_RATE: f64 = 0.12;
    /// Wall-clock ceiling for the whole soak: a hang is a failed invariant, not a slow run.
    const HARNESS_DEADLINE: Duration = Duration::from_secs(120);

    /// Job shapes with single-threaded task registration, so ordinals — and therefore the
    /// injection decisions — are deterministic (the nested shape registers from concurrent
    /// workers and is exercised by `tests/proptest_faults.rs` instead).
    #[derive(Clone, Copy, Debug)]
    enum Shape {
        Chain,
        Fanout,
        Batch,
    }

    const SHAPES: [Shape; 3] = [Shape::Chain, Shape::Fanout, Shape::Batch];

    impl Shape {
        /// Tasks this shape registers (excluding the job root, which is ordinal 0).
        fn tasks(self, n: usize) -> usize {
            n
        }

        /// The sum the body returns when every task body executes.
        fn expected(self, n: usize) -> u64 {
            match self {
                Shape::Chain => (n * 64) as u64,
                Shape::Fanout => n as u64,
                Shape::Batch => n as u64,
            }
        }

        fn run(self, ctx: &TaskCtx<'_>, n: usize) -> u64 {
            match self {
                Shape::Chain => {
                    let data = SharedSlice::<u64>::filled(64, 0);
                    for _ in 0..n {
                        let d = data.clone();
                        ctx.task().inout(data.region(0..64)).label("chaos-link").spawn(
                            move |t| {
                                for v in d.write(t, 0..64) {
                                    *v += 1;
                                }
                            },
                        );
                    }
                    ctx.taskwait();
                    data.snapshot().iter().sum()
                }
                Shape::Fanout => {
                    let data = SharedSlice::<u64>::filled(n, 0);
                    for i in 0..n {
                        let d = data.clone();
                        ctx.task().inout(data.region(i..i + 1)).label("chaos-cell").spawn(
                            move |t| {
                                d.write(t, i..i + 1)[0] = 1;
                            },
                        );
                    }
                    ctx.taskwait();
                    data.snapshot().iter().sum()
                }
                Shape::Batch => {
                    let cells = 64usize;
                    let data = SharedSlice::<u64>::filled(cells, 0);
                    let specs: Vec<TaskSpec> = (0..n)
                        .map(|i| {
                            let cell = i % cells;
                            let d = data.clone();
                            ctx.task()
                                .inout(data.region(cell..cell + 1))
                                .label("chaos-batch")
                                .stage(move |t| {
                                    d.write(t, cell..cell + 1)[0] += 1;
                                })
                        })
                        .collect();
                    ctx.spawn_batch(specs);
                    ctx.taskwait();
                    data.snapshot().iter().sum()
                }
            }
        }
    }

    /// What the harness arranged for a job, checked against its reported outcome.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Fate {
        /// An ordinary soak job: must succeed unless the plan targets one of its ordinals.
        Soak,
        /// Submitted with a deadline far shorter than its workload.
        Deadline,
        /// Explicitly cancelled right after submission.
        Cancelled,
    }

    struct PendingJob {
        shape: Shape,
        tasks: usize,
        fate: Fate,
        /// Whether the plan injects a panic into any of this job's ordinals (predicted from
        /// the job id after submission — the decision function is pure).
        targeted: bool,
        submitted: Instant,
        handle: JobHandle<u64>,
        outcome: Option<(Duration, Result<Option<u64>, JobError>)>,
    }

    /// Silences the default panic printout for the faults this harness injects on purpose;
    /// anything else still reports through the previous hook.
    fn install_panic_filter() {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let message = info.payload().downcast_ref::<&str>().map(|s| s.to_string()).or_else(
                || info.payload().downcast_ref::<String>().cloned(),
            );
            if message.is_some_and(|m| m.starts_with("injected fault")) {
                return;
            }
            default_hook(info);
        }));
    }

    pub fn run() {
        let args = CommonArgs::parse();
        let workers = args.cores.min(8);
        // Two tiers of soak jobs: *large* ones are near-certainly targeted at a 12% per-task
        // rate (1 - 0.88^129 ≈ 1) and exercise containment under load; *small* ones keep a
        // meaningful un-targeted fraction (0.88^9 ≈ 32%) so the oracle-equality half of the
        // isolation invariant is actually exercised. The seed is fixed, so the split is too.
        let (large_jobs, large_tasks, small_jobs, small_tasks) =
            if args.quick { (8, 48, 32, 8) } else { (32, 128, 96, 8) };
        let budget = ((large_jobs * large_tasks + small_jobs * small_tasks) / 16).max(64);
        install_panic_filter();

        let plan = FaultPlan::seeded(SEED)
            .task_panic_rate(PANIC_RATE)
            .pre_dispatch_delay(0.05, Duration::from_micros(200))
            .admission_stall_rate(0.08, Duration::from_micros(200));
        let rt = Runtime::new(
            RuntimeConfig::new()
                .workers(workers)
                .scheduling_policy(SchedulingPolicy::FairShare)
                .live_task_budget(budget)
                .stall_watchdog(Duration::from_millis(50), 4)
                .fault_plan(plan.clone()),
        );

        let start = Instant::now();
        let mut pending: Vec<PendingJob> = Vec::new();

        // The soak fleet, alternating shapes and panic policies. `submit_with` may block on
        // the admission budget (and on injected admission stalls) — that backpressure is part
        // of the soak.
        let sizes = std::iter::repeat_n(large_tasks, large_jobs)
            .chain(std::iter::repeat_n(small_tasks, small_jobs));
        for (i, n) in sizes.enumerate() {
            let shape = SHAPES[i % SHAPES.len()];
            let policy = if i % 2 == 0 { PanicPolicy::FailFast } else { PanicPolicy::RunToCompletion };
            let options = JobOptions::new().panic_policy(policy).label("chaos-soak");
            let submitted = Instant::now();
            let handle = rt.submit_with(options, move |ctx| shape.run(ctx, n));
            let targeted = (0..=n as u32).any(|o| plan.would_panic(handle.id(), o));
            pending.push(PendingJob {
                shape,
                tasks: shape.tasks(n),
                fate: Fate::Soak,
                targeted,
                submitted,
                handle,
                outcome: None,
            });
        }
        // Deadline jobs: a serial chain of sleeping tasks under a deadline it cannot meet.
        for _ in 0..2 {
            let links = 200usize;
            let options =
                JobOptions::new().deadline(Duration::from_millis(5)).label("chaos-deadline");
            let submitted = Instant::now();
            let handle = rt.submit_with(options, move |ctx| {
                let data = SharedSlice::<u64>::filled(1, 0);
                for _ in 0..links {
                    let d = data.clone();
                    ctx.task().inout(data.region(0..1)).label("chaos-sleep").spawn(move |t| {
                        std::thread::sleep(Duration::from_millis(1));
                        d.write(t, 0..1)[0] += 1;
                    });
                }
                ctx.taskwait();
                data.snapshot()[0]
            });
            let targeted = (0..=links as u32).any(|o| plan.would_panic(handle.id(), o));
            pending.push(PendingJob {
                shape: Shape::Chain,
                tasks: links,
                fate: Fate::Deadline,
                targeted,
                submitted,
                handle,
                outcome: None,
            });
        }
        // Cancelled jobs: a wide fanout of sleeping tasks, cancelled while in flight.
        for _ in 0..2 {
            let n = 256usize;
            let options = JobOptions::new().label("chaos-cancel");
            let submitted = Instant::now();
            let handle = rt.submit_with(options, move |ctx| {
                let data = SharedSlice::<u64>::filled(n, 0);
                for i in 0..n {
                    let d = data.clone();
                    ctx.task().inout(data.region(i..i + 1)).label("chaos-doomed").spawn(
                        move |t| {
                            std::thread::sleep(Duration::from_micros(300));
                            d.write(t, i..i + 1)[0] = 1;
                        },
                    );
                }
                ctx.taskwait();
                data.snapshot().iter().sum()
            });
            std::thread::sleep(Duration::from_millis(1));
            handle.cancel();
            let targeted = (0..=n as u32).any(|o| plan.would_panic(handle.id(), o));
            pending.push(PendingJob {
                shape: Shape::Fanout,
                tasks: n,
                fate: Fate::Cancelled,
                targeted,
                submitted,
                handle,
                outcome: None,
            });
        }

        // Drain under the harness deadline: a hang here is itself a failed invariant.
        let harness_deadline = start + HARNESS_DEADLINE;
        while pending.iter().any(|p| p.outcome.is_none()) {
            assert!(
                Instant::now() < harness_deadline,
                "chaos soak exceeded its {HARNESS_DEADLINE:?} harness deadline with {} jobs \
                 unfinished — the service hung under injection",
                pending.iter().filter(|p| p.outcome.is_none()).count()
            );
            for p in pending.iter_mut() {
                if p.outcome.is_none() {
                    if let Some(result) = p.handle.try_wait_result() {
                        p.outcome = Some((p.submitted.elapsed(), result));
                    }
                }
            }
            std::thread::yield_now();
        }
        let total_secs = start.elapsed().as_secs_f64();

        // ---- Per-job isolation invariants. ----
        let mut clean = 0usize;
        let mut panicked = 0usize;
        let mut clean_latencies: Vec<Duration> = Vec::new();
        for p in &pending {
            let (latency, outcome) = p.outcome.as_ref().expect("drained above");
            let label = format!("{:?}/{:?} job {}", p.fate, p.shape, p.handle.id());
            match p.fate {
                Fate::Soak => match outcome {
                    Ok(value) => {
                        assert!(!p.targeted, "{label}: targeted but reported success");
                        assert_eq!(
                            *value,
                            Some(p.shape.expected(p.tasks)),
                            "{label}: un-targeted job produced a non-oracle value"
                        );
                        clean += 1;
                        clean_latencies.push(*latency);
                    }
                    Err(error) => {
                        assert!(p.targeted, "{label}: failed without an injected fault: {error}");
                        assert!(
                            matches!(error, JobError::Panicked { .. }),
                            "{label}: a targeted job must report its panic, got {error}"
                        );
                        panicked += 1;
                    }
                },
                Fate::Deadline => match outcome {
                    Ok(_) => panic!("{label}: an over-deadline job reported success"),
                    // First failure wins, so a targeted deadline job may legitimately report
                    // the injected panic instead of the deadline.
                    Err(JobError::Panicked { .. }) if p.targeted => {}
                    Err(JobError::DeadlineExceeded) => {}
                    Err(error) => panic!("{label}: expected DeadlineExceeded, got {error}"),
                },
                Fate::Cancelled => match outcome {
                    Ok(_) => panic!("{label}: a cancelled job reported success"),
                    Err(JobError::Panicked { .. }) if p.targeted => {}
                    Err(JobError::Cancelled) => {}
                    Err(error) => panic!("{label}: expected Cancelled, got {error}"),
                },
            }
            // Every job drains fully, whatever its fate: all registered tasks retire, and
            // each dispatched body either executed or was skipped by the abort bracket.
            let stats = p.handle.stats();
            assert!(stats.finished, "{label}: unfinished after wait");
            assert_eq!(
                stats.tasks_registered, stats.tasks_deeply_completed,
                "{label}: registered != deeply_completed after the job finished"
            );
            assert_eq!(
                stats.tasks_executed + stats.tasks_skipped,
                stats.tasks_registered,
                "{label}: executed + skipped != registered"
            );
        }

        // ---- Service-wide invariants. ----
        let stats = rt.stats();
        let total_jobs = pending.len();
        let total_tasks: usize = pending.iter().map(|p| p.tasks + 1).sum();
        assert_eq!(stats.jobs_submitted, total_jobs);
        assert_eq!(stats.jobs_completed, total_jobs, "every job drains to completion");
        // `jobs_cancelled` counts jobs whose explicit cancel landed before root completion.
        // A *targeted* cancel job can abort on its injected panic and finish before the
        // harness's `cancel()` call, so the exact count floats between "every job that
        // reported Cancelled" and the 2 jobs we called `cancel()` on.
        let cancelled_outcomes = pending
            .iter()
            .filter(|p| matches!(p.outcome, Some((_, Err(JobError::Cancelled)))))
            .count();
        assert!(
            (cancelled_outcomes..=2).contains(&stats.jobs_cancelled),
            "jobs_cancelled = {} outside [{cancelled_outcomes}, 2]: only the explicitly \
             cancelled jobs may count",
            stats.jobs_cancelled
        );
        assert_eq!(
            stats.engine.tasks_registered, stats.engine.tasks_deeply_completed,
            "aggregate accounting must balance under injection"
        );
        let capacity = rt.capacity();
        assert_eq!(capacity.live_tasks, 0, "no live tasks after the soak");
        assert_eq!(capacity.live_jobs, 0, "no live jobs after the soak");
        assert!(
            capacity.task_table_slots < total_tasks,
            "task table ({} slots) tracked the task total ({total_tasks}) instead of \
             plateauing at the live high-water mark",
            capacity.task_table_slots
        );

        clean_latencies.sort();
        assert!(
            clean > 0,
            "the fixed seed left no un-targeted job — the oracle half of the isolation \
             invariant was never exercised; shrink the small-job size or change SEED"
        );
        let pct = |p: f64| -> f64 {
            let idx = ((p / 100.0) * (clean_latencies.len() - 1) as f64).round() as usize;
            clean_latencies[idx].as_secs_f64() * 1e3
        };
        println!(
            "chaos: seed {SEED:#x}, panic rate {PANIC_RATE}, {total_jobs} jobs ({clean} clean, {panicked} panicked, 2 deadline, 2 cancelled) / {total_tasks} tasks on {workers} workers in {total_secs:.3}s"
        );
        println!(
            "  clean-job latency p50={:.2}ms p99={:.2}ms  admission admitted={} blocked={} high_water={}  table slots={}",
            pct(50.0),
            pct(99.0),
            stats.admission.admitted,
            stats.admission.blocked,
            stats.admission.high_water,
            capacity.task_table_slots,
        );
        println!("  all isolation invariants held");
    }
}

#[cfg(feature = "faults")]
fn main() {
    harness::run();
}

#[cfg(not(feature = "faults"))]
fn main() {
    eprintln!(
        "chaos: fault injection is compiled out; rebuild with `--features faults` to run the harness"
    );
    std::process::exit(2);
}
