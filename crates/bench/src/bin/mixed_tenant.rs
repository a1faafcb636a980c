//! Multi-tenant soak: N concurrent heterogeneous jobs submitted to **one** shared
//! engine + pool service (`Runtime::submit`), measuring aggregate task throughput and the
//! p50/p99 end-to-end job latency (submission → observed completion) under each scheduling
//! policy — plus a fair-share row with a live-task admission budget engaged, so the
//! backpressure path is exercised and its counters recorded.
//!
//! Each job is one of four shapes, round-robined so every row mixes them:
//!
//! * **chain** — a serial dependency chain (one region, inout links);
//! * **fanout** — independent tasks over disjoint cells (embarrassing parallelism);
//! * **nested** — the paper's flagship weak-outer/strong-inner blocks with `weakwait`;
//! * **batch** — one `spawn_batch` wave of per-cell writers.
//!
//! Two extra rows exercise the failure model at the same scale: a fixed fraction of the jobs
//! panic deliberately, once under `PanicPolicy::FailFast` and once under `RunToCompletion`,
//! and the p50/p99 latency of the *clean* jobs is recorded — the isolation headline (a
//! neighbouring tenant's crash must not distort the latency tail of everyone else).
//!
//! Prints one table row per configuration (`--csv` for CSV); the run's set-up and, with
//! `--features count-allocs`, its allocations per task go to stderr.

use std::time::{Duration, Instant};

use weakdep_bench::alloc_counter::{check_budget, enforce_budgets, per_unit};
use weakdep_bench::{emit, CommonArgs};
use weakdep_core::{
    JobError, JobOptions, PanicPolicy, Runtime, RuntimeConfig, SchedulingPolicy, SharedSlice,
    TaskCtx, TaskSpec,
};

/// With `--features count-allocs`, heap allocations are counted and the run reports
/// allocations per task across the whole soak; `--enforce-alloc-budget` gates on
/// [`ALLOC_BUDGET`].
#[cfg(feature = "count-allocs")]
#[global_allocator]
static ALLOC: weakdep_bench::alloc_counter::CountingAllocator =
    weakdep_bench::alloc_counter::CountingAllocator;

/// CI ceiling for allocations per task across the mixed-tenant soak. Deliberately looser than
/// the single-job `spawn-batched` gate in `overheads`: these tasks are builder-spawned with
/// declared dependencies (chain/nested/fanout shapes), which is the expensive path by design —
/// the gate exists to catch gross per-task regressions on the multi-tenant submit path, not to
/// re-litigate the batched-spawn budget.
const ALLOC_BUDGET: f64 = 48.0;

/// One job shape: spawns its graph inside the job's root body and returns its task count.
#[derive(Clone, Copy, Debug)]
enum Shape {
    Chain,
    Fanout,
    Nested,
    Batch,
}

const SHAPES: [Shape; 4] = [Shape::Chain, Shape::Fanout, Shape::Nested, Shape::Batch];

impl Shape {
    fn name(self) -> &'static str {
        match self {
            Shape::Chain => "chain",
            Shape::Fanout => "fanout",
            Shape::Nested => "nested",
            Shape::Batch => "batch",
        }
    }

    /// Tasks this shape spawns at the given scale (excluding the job root).
    fn tasks(self, scale: usize) -> usize {
        match self {
            Shape::Chain => 16 * scale,
            Shape::Fanout => 32 * scale,
            Shape::Nested => 2 * scale * (1 + 8), // outers + their inner blocks
            Shape::Batch => 32 * scale,
        }
    }

    /// The job's root body: builds a private buffer, spawns the graph, waits it out and
    /// returns the number of cell increments applied (verified by the caller).
    fn run(self, ctx: &TaskCtx<'_>, scale: usize) -> u64 {
        match self {
            Shape::Chain => {
                let links = 16 * scale;
                let data = SharedSlice::<u64>::filled(64, 0);
                for _ in 0..links {
                    let d = data.clone();
                    ctx.task()
                        .inout(data.region(0..64))
                        .label("chain-link")
                        .spawn(move |t| {
                            for v in d.write(t, 0..64) {
                                *v += 1;
                            }
                        });
                }
                ctx.taskwait();
                data.snapshot().iter().sum()
            }
            Shape::Fanout => {
                let tasks = 32 * scale;
                let data = SharedSlice::<u64>::filled(tasks, 0);
                for i in 0..tasks {
                    let d = data.clone();
                    ctx.task()
                        .inout(data.region(i..i + 1))
                        .label("fanout-cell")
                        .spawn(move |t| {
                            d.write(t, i..i + 1)[0] = 1;
                        });
                }
                ctx.taskwait();
                data.snapshot().iter().sum()
            }
            Shape::Nested => {
                let outers = 2 * scale;
                let blocks = 8usize;
                let block_len = 32usize;
                let data = SharedSlice::<u64>::filled(blocks * block_len, 0);
                for _ in 0..outers {
                    let outer_data = data.clone();
                    let n = outer_data.len();
                    let inner_data = outer_data.clone();
                    ctx.task()
                        .weak_inout(outer_data.region(0..n))
                        .weakwait()
                        .label("nested-outer")
                        .spawn(move |outer| {
                            for b in 0..blocks {
                                let range = b * block_len..(b + 1) * block_len;
                                let d = inner_data.clone();
                                outer
                                    .task()
                                    .inout(inner_data.region(range.clone()))
                                    .label("nested-block")
                                    .spawn(move |t| {
                                        for v in d.write(t, range.clone()) {
                                            *v += 1;
                                        }
                                    });
                            }
                        });
                }
                ctx.taskwait();
                data.snapshot().iter().sum()
            }
            Shape::Batch => {
                let tasks = 32 * scale;
                let cells = 64usize;
                let data = SharedSlice::<u64>::filled(cells, 0);
                let specs: Vec<TaskSpec> = (0..tasks)
                    .map(|i| {
                        let cell = i % cells;
                        let d = data.clone();
                        ctx.task()
                            .inout(data.region(cell..cell + 1))
                            .label("batch-cell")
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

    /// The increment total `run` must return at this scale.
    fn expected(self, scale: usize) -> u64 {
        match self {
            Shape::Chain => (16 * scale * 64) as u64,
            Shape::Fanout => (32 * scale) as u64,
            Shape::Nested => (2 * scale * 8 * 32) as u64,
            Shape::Batch => (32 * scale) as u64,
        }
    }
}

/// One measured configuration of the service. In panic-policy rows (`panic_policy` set),
/// `faulty` jobs crash deliberately and the latency percentiles cover the *clean* jobs only.
struct Row {
    policy: SchedulingPolicy,
    budget: Option<usize>,
    panic_policy: Option<PanicPolicy>,
    jobs: usize,
    faulty: usize,
    tasks: usize,
    total_secs: f64,
    latency_p50_ms: f64,
    latency_p99_ms: f64,
    admitted: usize,
    blocked: usize,
    admission_high_water: usize,
}

fn policy_label(p: Option<PanicPolicy>) -> &'static str {
    match p {
        None => "none",
        Some(PanicPolicy::FailFast) => "fail-fast",
        Some(PanicPolicy::RunToCompletion) => "run-to-completion",
    }
}

fn percentile(sorted: &[Duration], pct: f64) -> f64 {
    let idx = ((pct / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx].as_secs_f64() * 1e3
}

/// In panic-policy rows, every `FAULTY_STRIDE`-th job crashes deliberately.
const FAULTY_STRIDE: usize = 8;

/// A deliberately crashing job body: a fanout whose first task panics. Under fail-fast the
/// rest of the fanout is skipped; under run-to-completion it executes anyway. Either way the
/// root's `taskwait` returns (skipped bodies still retire through the engine).
fn faulty_body(ctx: &TaskCtx<'_>, scale: usize) -> u64 {
    let tasks = Shape::Fanout.tasks(scale);
    let data = SharedSlice::<u64>::filled(tasks, 0);
    for i in 0..tasks {
        let d = data.clone();
        ctx.task()
            .inout(data.region(i..i + 1))
            .label("faulty-cell")
            .spawn(move |t| {
                if i == 0 {
                    panic!("deliberate tenant fault");
                }
                d.write(t, i..i + 1)[0] = 1;
            });
    }
    ctx.taskwait();
    data.snapshot().iter().sum()
}

fn run_row(
    policy: SchedulingPolicy,
    budget: Option<usize>,
    panic_policy: Option<PanicPolicy>,
    jobs: usize,
    scale: usize,
    workers: usize,
) -> Row {
    let mut config = RuntimeConfig::new()
        .workers(workers)
        .scheduling_policy(policy);
    if let Some(b) = budget {
        config = config.live_task_budget(b);
    }
    let rt = Runtime::new(config);
    let is_faulty = |i: usize| panic_policy.is_some() && i.is_multiple_of(FAULTY_STRIDE);
    let tasks: usize = (0..jobs)
        .map(|i| {
            if is_faulty(i) {
                Shape::Fanout.tasks(scale)
            } else {
                SHAPES[i % SHAPES.len()].tasks(scale)
            }
        })
        .sum();

    struct PendingJob {
        shape: Shape,
        faulty: bool,
        submitted: Instant,
        handle: weakdep_core::JobHandle<u64>,
        done: Option<(Duration, Option<u64>)>,
    }

    let start = Instant::now();
    let mut pending: Vec<PendingJob> = (0..jobs)
        .map(|i| {
            let shape = SHAPES[i % SHAPES.len()];
            let faulty = is_faulty(i);
            let options = JobOptions::new().panic_policy(panic_policy.unwrap_or_default());
            let submitted = Instant::now();
            let handle = if faulty {
                rt.submit_with(options.label("faulty"), move |ctx| faulty_body(ctx, scale))
            } else {
                rt.submit_with(options, move |ctx| shape.run(ctx, scale))
            };
            PendingJob {
                shape,
                faulty,
                submitted,
                handle,
                done: None,
            }
        })
        .collect();
    // Poll every handle so each job's completion time is observed promptly, not serialised
    // behind earlier jobs' blocking waits. `try_wait_result` resolves on first success: a
    // clean job yields its value, a faulty one must report the injected panic.
    while pending.iter().any(|p| p.done.is_none()) {
        for p in pending.iter_mut() {
            if p.done.is_none() {
                if let Some(outcome) = p.handle.try_wait_result() {
                    let value = match outcome {
                        Ok(value) => value,
                        Err(error) => {
                            assert!(p.faulty, "a clean job failed: {error}");
                            assert!(
                                matches!(error, JobError::Panicked { .. }),
                                "a faulty job must report its panic, got {error}"
                            );
                            None
                        }
                    };
                    p.done = Some((p.submitted.elapsed(), value));
                }
            }
        }
        std::thread::yield_now();
    }
    let total_secs = start.elapsed().as_secs_f64();

    let faulty = pending.iter().filter(|p| p.faulty).count();
    // Latency percentiles cover the clean jobs only: the headline is the latency tail of the
    // well-behaved tenants while their neighbours crash.
    let mut latencies = Vec::with_capacity(jobs);
    for p in pending {
        let (latency, value) = p.done.expect("polled to completion");
        if p.faulty {
            assert!(value.is_none(), "a faulty job must not deliver a value");
            continue;
        }
        assert_eq!(
            value.expect("a clean job returns its value"),
            p.shape.expected(scale),
            "{} job produced a wrong sum",
            p.shape.name()
        );
        latencies.push(latency);
    }
    latencies.sort();

    let stats = rt.stats();
    assert_eq!(stats.jobs_submitted, jobs);
    assert_eq!(
        stats.jobs_completed, jobs,
        "failed jobs still drain to completion"
    );
    assert_eq!(stats.jobs_cancelled, 0);
    assert_eq!(
        stats.engine.tasks_registered, stats.engine.tasks_deeply_completed,
        "aggregate accounting must balance once every job retired"
    );
    let capacity = rt.capacity();
    assert_eq!(
        capacity.live_tasks, 0,
        "no live tasks after all jobs finished"
    );
    assert_eq!(
        capacity.live_jobs, 0,
        "no live jobs after all jobs finished"
    );

    Row {
        policy,
        budget,
        panic_policy,
        jobs,
        faulty,
        tasks,
        total_secs,
        latency_p50_ms: percentile(&latencies, 50.0),
        latency_p99_ms: percentile(&latencies, 99.0),
        admitted: stats.admission.admitted,
        blocked: stats.admission.blocked,
        admission_high_water: stats.admission.high_water,
    }
}

/// Swallows the printouts (and backtraces) of the panics the faulty tenants raise on
/// purpose; anything else still reaches the default hook.
fn install_panic_filter() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let deliberate = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|m| m.starts_with("deliberate tenant fault"));
        if !deliberate {
            default_hook(info);
        }
    }));
}

fn main() {
    let args = CommonArgs::parse();
    install_panic_filter();
    let workers = args.cores.min(8);
    let (jobs, scale) = if args.quick { (16, 2) } else { (128, 8) };
    // Admission load is sampled at submission (live tasks ≈ live roots plus whatever the
    // running jobs have spawned), so a budget below the job count genuinely blocks submitters
    // until earlier jobs drain rather than waving everything through.
    let budget = (jobs / 4).max(2);

    let allocs_before = weakdep_bench::alloc_counter::allocations();
    let rows = [
        run_row(
            SchedulingPolicy::LocalitySlot,
            None,
            None,
            jobs,
            scale,
            workers,
        ),
        run_row(
            SchedulingPolicy::FairShare,
            None,
            None,
            jobs,
            scale,
            workers,
        ),
        run_row(
            SchedulingPolicy::FairShare,
            Some(budget),
            None,
            jobs,
            scale,
            workers,
        ),
        // Failure-model rows: every 8th job crashes; percentiles cover the clean jobs.
        run_row(
            SchedulingPolicy::FairShare,
            None,
            Some(PanicPolicy::FailFast),
            jobs,
            scale,
            workers,
        ),
        run_row(
            SchedulingPolicy::FairShare,
            None,
            Some(PanicPolicy::RunToCompletion),
            jobs,
            scale,
            workers,
        ),
    ];
    let alloc_delta = weakdep_bench::alloc_counter::allocations() - allocs_before;
    let total_tasks: usize = rows.iter().map(|r| r.tasks).sum();
    let allocs_per_task = per_unit(alloc_delta, total_tasks);

    eprintln!("mixed_tenant: {jobs} concurrent jobs/row, {workers} workers, scale {scale}");
    let headers = [
        "policy",
        "live_task_budget",
        "panic_policy",
        "jobs",
        "faulty_jobs",
        "tasks",
        "total_s",
        "jobs_per_s",
        "tasks_per_s",
        "clean_p50_ms",
        "clean_p99_ms",
        "admitted",
        "blocked",
        "high_water",
    ];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            vec![
                row.policy.name().to_string(),
                row.budget.map_or("-".to_string(), |b| b.to_string()),
                policy_label(row.panic_policy).to_string(),
                row.jobs.to_string(),
                row.faulty.to_string(),
                row.tasks.to_string(),
                format!("{:.3}", row.total_secs),
                format!("{:.1}", row.jobs as f64 / row.total_secs.max(1e-12)),
                format!("{:.0}", row.tasks as f64 / row.total_secs.max(1e-12)),
                format!("{:.2}", row.latency_p50_ms),
                format!("{:.2}", row.latency_p99_ms),
                row.admitted.to_string(),
                row.blocked.to_string(),
                row.admission_high_water.to_string(),
            ]
        })
        .collect();
    emit(args.csv, &headers, &table);
    if let Some(a) = allocs_per_task {
        eprintln!("allocs/task: {a:.1}");
    }

    // ---- CI gate: allocations per task across the multi-tenant soak. ----
    if args.enforce_alloc_budget {
        enforce_budgets([check_budget(
            "mixed_tenant allocs/task",
            allocs_per_task,
            ALLOC_BUDGET,
        )]);
    }
}
