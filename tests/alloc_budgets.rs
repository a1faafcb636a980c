//! Allocation budgets: heap allocations per task of the spawn and matching paths, of a
//! multi-tenant service run and of a task-spawned chunked loop, and per chunk of the same loop
//! under work-assisting, must stay at or under their ceilings.
//!
//! The count is process-wide (`common`'s allocator): the pool's workers run the tasks, so a
//! count of the calling thread alone would miss them. So this binary holds one test, which no
//! other test's allocations can join. A window in which the counter did not move fails: no
//! real run is allocation-free, so such a window was not measured.
//!
//! Each window is the run alone. The runtime and the data are made before it, so a figure
//! does not carry the pool's start-up and does not depend on the scale of the run.

// The race sentinel allocates its shadow-table entries per task.
#![cfg(not(feature = "sentinel"))]

mod common;

use common::process_allocations_in;
use weakdep::kernels::parallel_loops::{
    initialize_u64, reduce_assist, reduce_reference, reduce_tasks, LoopConfig,
};
use weakdep::kernels::KernelRun;
use weakdep::{
    JobError, JobOptions, PanicPolicy, Runtime, RuntimeConfig, SchedulingPolicy, SharedSlice,
    TaskCtx, TaskSpec,
};

/// Allocations per unit over a window in which the counter moved by `delta`; `None` when it did
/// not move.
fn per_unit(delta: usize, units: usize) -> Option<f64> {
    (delta > 0).then(|| delta as f64 / units as f64)
}

/// Allocations per task of `run`, given a fresh 1-worker runtime and `data_len` bytes of data.
fn spawn_path(
    tasks: usize,
    data_len: usize,
    run: impl FnOnce(&Runtime, SharedSlice<u8>),
) -> Option<f64> {
    let rt = Runtime::with_workers(1);
    let data = SharedSlice::<u8>::new(data_len);
    per_unit(process_allocations_in(|| run(&rt, data)), tasks)
}

// ---- The spawn and matching paths, at 1 worker. ----

/// `tasks` empty-bodied tasks with disjoint one-element `inout` dependencies, registered
/// through `spawn_batch` in waves of `wave`.
fn spawn_batched(rt: &Runtime, d: SharedSlice<u8>, tasks: usize, wave: usize) {
    rt.run(move |ctx| {
        for first in (0..tasks).step_by(wave) {
            let specs: Vec<TaskSpec> = (first..(first + wave).min(tasks))
                .map(|k| {
                    ctx.task()
                        .inout(d.region(k..k + 1))
                        .label("bench")
                        .stage(|_| {})
                })
                .collect();
            ctx.spawn_batch(specs);
        }
    });
}

/// The same tasks through `spawn_each`: one shared body and one reused clause buffer per wave.
fn spawn_each(rt: &Runtime, d: SharedSlice<u8>, tasks: usize, wave: usize) {
    rt.run(move |ctx| {
        for first in (0..tasks).step_by(wave) {
            ctx.spawn_each(
                wave.min(tasks - first),
                |i, c| {
                    let k = first + i;
                    c.inout(d.region(k..k + 1)).label("bench");
                },
                |_, _| {},
            );
        }
    });
}

/// Side of the `stencil-each` grid in interior blocks, and elements per block.
const STENCIL_BLOCKS: usize = 32;
const STENCIL_BLOCK: usize = 4;
/// Side of the grid with its boundary ring.
const STENCIL_SIDE: usize = STENCIL_BLOCKS + 2;

/// `tasks` empty-bodied Gauss–Seidel tiles through `spawn_each`, one sweep of the block-major
/// grid per wave: each tile reads its four neighbours and updates its own block.
fn stencil_each(rt: &Runtime, d: SharedSlice<u8>, tasks: usize) {
    rt.run(move |ctx| {
        let block = |bi: usize, bj: usize| {
            let first = (bi * STENCIL_SIDE + bj) * STENCIL_BLOCK;
            d.region(first..first + STENCIL_BLOCK)
        };
        let sweep = STENCIL_BLOCKS * STENCIL_BLOCKS;
        for first in (0..tasks).step_by(sweep) {
            ctx.spawn_each(
                sweep.min(tasks - first),
                |i, c| {
                    let (bi, bj) = (i / STENCIL_BLOCKS + 1, i % STENCIL_BLOCKS + 1);
                    c.input(block(bi - 1, bj))
                        .input(block(bi, bj - 1))
                        .inout(block(bi, bj))
                        .input(block(bi, bj + 1))
                        .input(block(bi + 1, bj))
                        .label("tile");
                },
                |_, _| {},
            );
        }
    });
}

/// `tasks` dependency-free empty tasks through `spawn_batch` in waves of `wave`.
fn nodeps_batched(rt: &Runtime, tasks: usize, wave: usize) {
    rt.run(move |ctx| {
        for first in (0..tasks).step_by(wave) {
            let specs: Vec<TaskSpec> = (first..(first + wave).min(tasks))
                .map(|_| ctx.task().label("bench").stage(|_| {}))
                .collect();
            ctx.spawn_batch(specs);
        }
    });
}

/// Batched waves whose task `t` writes the four elements from `2 * window(t)`. With
/// `window(t) = t`, every task's region covers half of its predecessor's, so every
/// registration splits a stored fragment. With `window(t) = t / 2`, the first task of a pair
/// splits the healed extent and coalesces its own, and the second must be an exact hit.
fn fragmented(
    rt: &Runtime,
    d: SharedSlice<u8>,
    tasks: usize,
    wave: usize,
    window: fn(usize) -> usize,
) {
    rt.run(move |ctx| {
        for first in (0..tasks).step_by(wave) {
            let specs: Vec<TaskSpec> = (first..(first + wave).min(tasks))
                .map(|t| {
                    let k = window(t);
                    ctx.task()
                        .inout(d.region(2 * k..2 * k + 4))
                        .label("bench")
                        .stage(|_| {})
                })
                .collect();
            ctx.spawn_batch(specs);
        }
    });
}

/// `spawners` `weakwait` tasks, each spawning `children` tasks into its own domain in one
/// `spawn_batch`.
fn nested_batched(rt: &Runtime, d: SharedSlice<u8>, spawners: usize, children: usize) {
    rt.run(move |root| {
        for s in 0..spawners {
            let d2 = d.clone();
            root.task()
                .weak_inout(d.region(s * children..(s + 1) * children))
                .weakwait()
                .label("spawner")
                .spawn(move |outer| {
                    let specs: Vec<TaskSpec> = (0..children)
                        .map(|c| {
                            let cell = s * children + c;
                            outer
                                .task()
                                .inout(d2.region(cell..cell + 1))
                                .label("child")
                                .stage(|_| {})
                        })
                        .collect();
                    outer.spawn_batch(specs);
                });
        }
    });
}

// ---- The multi-tenant service. ----

/// The job shapes of the multi-tenant run, round-robined over its jobs.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// A serial chain of `inout` links over one region.
    Chain,
    /// Independent tasks over disjoint cells.
    Fanout,
    /// Weak `weakwait` outer tasks, each with eight strong inner blocks.
    Nested,
    /// One `spawn_batch` wave of per-cell writers.
    Batch,
}

const SHAPES: [Shape; 4] = [Shape::Chain, Shape::Fanout, Shape::Nested, Shape::Batch];

impl Shape {
    /// Tasks this shape spawns at `scale`, its job's root excluded.
    fn tasks(self, scale: usize) -> usize {
        match self {
            Shape::Chain => 16 * scale,
            Shape::Fanout | Shape::Batch => 32 * scale,
            Shape::Nested => 2 * scale * (1 + 8),
        }
    }

    /// The sum of the increments `run` applies at `scale`.
    fn expected(self, scale: usize) -> u64 {
        match self {
            Shape::Chain => (16 * scale * 64) as u64,
            Shape::Fanout | Shape::Batch => (32 * scale) as u64,
            Shape::Nested => (2 * scale * 8 * 32) as u64,
        }
    }

    /// The job's root body: spawns the graph over a private buffer, waits it out and returns
    /// the sum of the buffer.
    fn run(self, ctx: &TaskCtx<'_>, scale: usize) -> u64 {
        let data = match self {
            Shape::Chain => {
                let data = SharedSlice::<u64>::filled(64, 0);
                for _ in 0..16 * scale {
                    let d = data.clone();
                    ctx.task()
                        .inout(data.region(0..64))
                        .label("chain-link")
                        .spawn(move |t| {
                            d.write(t, 0..64).iter_mut().for_each(|v| *v += 1);
                        });
                }
                data
            }
            Shape::Fanout => fanout(ctx, 32 * scale, None),
            Shape::Nested => {
                let (blocks, block_len) = (8usize, 32usize);
                let data = SharedSlice::<u64>::filled(blocks * block_len, 0);
                for _ in 0..2 * scale {
                    let inner = data.clone();
                    ctx.task()
                        .weak_inout(data.region(0..blocks * block_len))
                        .weakwait()
                        .label("nested-outer")
                        .spawn(move |outer| {
                            for b in 0..blocks {
                                let range = b * block_len..(b + 1) * block_len;
                                let d = inner.clone();
                                outer
                                    .task()
                                    .inout(inner.region(range.clone()))
                                    .label("nested-block")
                                    .spawn(move |t| {
                                        d.write(t, range.clone()).iter_mut().for_each(|v| *v += 1);
                                    });
                            }
                        });
                }
                data
            }
            Shape::Batch => {
                let cells = 64usize;
                let data = SharedSlice::<u64>::filled(cells, 0);
                let specs: Vec<TaskSpec> = (0..32 * scale)
                    .map(|i| {
                        let (cell, d) = (i % cells, data.clone());
                        ctx.task()
                            .inout(data.region(cell..cell + 1))
                            .label("batch-cell")
                            .stage(move |t| {
                                d.write(t, cell..cell + 1)[0] += 1;
                            })
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

/// `tasks` tasks, each setting its own cell; with `panic_at`, that task panics instead.
fn fanout(ctx: &TaskCtx<'_>, tasks: usize, panic_at: Option<usize>) -> SharedSlice<u64> {
    let data = SharedSlice::<u64>::filled(tasks, 0);
    for i in 0..tasks {
        let d = data.clone();
        ctx.task()
            .inout(data.region(i..i + 1))
            .label("fanout-cell")
            .spawn(move |t| {
                if panic_at == Some(i) {
                    panic!("deliberate tenant fault");
                }
                d.write(t, i..i + 1)[0] = 1;
            });
    }
    data
}

/// In the rows with a panic policy, every `FAULTY_STRIDE`-th job is a fanout whose first task
/// panics.
const FAULTY_STRIDE: usize = 8;

/// Submits `jobs` jobs at `scale` to a fresh service and checks every outcome; returns the
/// number of tasks the jobs spawned.
fn tenant_row(
    config: RuntimeConfig,
    panic_policy: Option<PanicPolicy>,
    jobs: usize,
    scale: usize,
) -> usize {
    let rt = Runtime::new(config);
    let mut tasks = 0;
    let handles: Vec<_> = (0..jobs)
        .map(|i| {
            let shape = SHAPES[i % SHAPES.len()];
            let options = JobOptions::new().panic_policy(panic_policy.unwrap_or_default());
            if panic_policy.is_some() && i.is_multiple_of(FAULTY_STRIDE) {
                tasks += Shape::Fanout.tasks(scale);
                let body = move |ctx: &TaskCtx<'_>| {
                    let data = fanout(ctx, Shape::Fanout.tasks(scale), Some(0));
                    ctx.taskwait();
                    data.snapshot().iter().sum()
                };
                (None, rt.submit_with(options.label("faulty"), body))
            } else {
                tasks += shape.tasks(scale);
                (
                    Some(shape),
                    rt.submit_with(options, move |ctx| shape.run(ctx, scale)),
                )
            }
        })
        .collect();
    for (shape, handle) in handles {
        match (shape, handle.wait_result()) {
            (Some(shape), Ok(value)) => {
                assert_eq!(value, Some(shape.expected(scale)), "{shape:?} job")
            }
            (None, Err(JobError::Panicked { .. })) => {}
            (shape, outcome) => panic!("{shape:?} job reported {outcome:?}"),
        }
    }
    let stats = rt.stats();
    assert_eq!(
        stats.jobs_completed, jobs,
        "failed jobs still drain to completion"
    );
    assert_eq!(
        stats.engine.tasks_registered,
        stats.engine.tasks_deeply_completed
    );
    assert_eq!((rt.capacity().live_tasks, rt.capacity().live_jobs), (0, 0));
    tasks
}

/// Swallows the printouts of the panics the faulty tenants raise on purpose.
fn install_panic_filter() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let deliberate = info.payload().downcast_ref::<&str>() == Some(&"deliberate tenant fault");
        if !deliberate {
            default_hook(info);
        }
    }));
}

#[test]
fn allocations_per_task_stay_within_their_budgets() {
    // The spawn and matching paths. Ceilings are the steady state rounded up to the next
    // whole allocation above the 2 000-task value, which carries some log-scale warm-up (slab
    // and queue doubling) on top of it. A five-access `stencil-each` tile costs its footprint,
    // record, entry and node list, and the two sweeps amortise the growth of the grid's reader
    // and edge lists. The fragmented rows vary from run to run with how far registration runs
    // ahead of retirement, so they carry one allocation more. `nodeps-batched` sits at its
    // per-task steady state of 2.0 plus a per-job slice (`JobState`, gate, registry entry) made
    // inside `run()`; 2 000 tasks leave it a quarter allocation of headroom.
    let (tasks, wave) = (2_000, 1_000);
    let (spawners, children) = (8, 250);
    let grid = STENCIL_SIDE * STENCIL_SIDE * STENCIL_BLOCK;
    // (what, allocations per task or chunk, ceiling)
    let mut budgets = vec![
        (
            "spawn-batched",
            spawn_path(tasks, tasks, |rt, d| spawn_batched(rt, d, tasks, wave)),
            5.0,
        ),
        (
            "spawn-each",
            spawn_path(tasks, tasks, |rt, d| spawn_each(rt, d, tasks, wave)),
            4.0,
        ),
        (
            "stencil-each",
            spawn_path(tasks, grid, |rt, d| stencil_each(rt, d, tasks)),
            6.0,
        ),
        (
            "fragmented-deps",
            spawn_path(tasks, 2 * tasks + 2, |rt, d| {
                fragmented(rt, d, tasks, wave, |t| t)
            }),
            11.0,
        ),
        (
            "fragmented-demote",
            spawn_path(tasks, tasks + 8, |rt, d| {
                fragmented(rt, d, tasks, wave, |t| t / 2)
            }),
            12.0,
        ),
        (
            "nested-batched",
            spawn_path(spawners * children, spawners * children, |rt, d| {
                nested_batched(rt, d, spawners, children)
            }),
            5.0,
        ),
        (
            "nodeps-batched",
            spawn_path(tasks, 0, |rt, _| nodeps_batched(rt, tasks, wave)),
            2.5,
        ),
    ];

    // The multi-tenant service: five rows of 16 jobs over 2 workers — locality-slot,
    // fair-share, fair-share under a live-task budget, and fail-fast and run-to-completion
    // rows in which every eighth job panics. It reads 6.2–6.3 allocations per task (2-vCPU VM,
    // debug and release): builder-spawned tasks with declared dependencies, plus each job's
    // state, buffer and result. The ceiling is the next whole allocation above that, plus one.
    install_panic_filter();
    let (jobs, scale) = (16, 2);
    let service = |policy| RuntimeConfig::new().workers(2).scheduling_policy(policy);
    let fair_share = || service(SchedulingPolicy::FairShare);
    let mut tenant_tasks = 0;
    let delta = process_allocations_in(|| {
        tenant_tasks = [
            tenant_row(service(SchedulingPolicy::LocalitySlot), None, jobs, scale),
            tenant_row(fair_share(), None, jobs, scale),
            tenant_row(fair_share().live_task_budget(jobs / 4), None, jobs, scale),
            tenant_row(fair_share(), Some(PanicPolicy::FailFast), jobs, scale),
            tenant_row(
                fair_share(),
                Some(PanicPolicy::RunToCompletion),
                jobs,
                scale,
            ),
        ]
        .iter()
        .sum();
    });
    budgets.push(("mixed-tenant", per_unit(delta, tenant_tasks), 8.0));

    // A chunked reduction of 2^16 elements in 1 024 chunks of 64 on 2 workers: the chunks are
    // enough for the per-chunk cost to amortise the run's fixed setup (job state, spec vector,
    // partials, result snapshot). The assist loop claims chunks with a CAS and no allocation,
    // so that setup spread over the chunks stays well under one allocation per chunk. A
    // task-spawned block is a `spawn_each` child with two regions (input slice and output
    // partial); it reads 3.1 allocations per task, and its ceiling is the next whole one.
    let cfg = LoopConfig {
        n: 1 << 16,
        chunk: 64,
    };
    let chunks = cfg.blocks();
    assert_eq!(chunks, 1024);
    let input = SharedSlice::<u64>::new(cfg.n);
    initialize_u64(&input);
    let expected = reduce_reference(&input.snapshot());
    // A fresh runtime per variant, made before the window and dropped after it.
    let reduce = |run: fn(&Runtime, &LoopConfig, &SharedSlice<u64>) -> (KernelRun, u64)| {
        let rt = Runtime::new(service(SchedulingPolicy::LocalitySlot));
        per_unit(
            process_allocations_in(|| assert_eq!(run(&rt, &cfg, &input).1, expected)),
            chunks,
        )
    };
    budgets.push(("assist, per chunk", reduce(reduce_assist), 0.5));
    budgets.push(("task-spawned chunks", reduce(reduce_tasks), 4.0));

    let report: Vec<String> = budgets
        .iter()
        .map(|(what, measured, ceiling)| match measured {
            Some(m) if m <= ceiling => format!("ok: {what} {m:.3} (budget {ceiling})"),
            Some(m) => format!("OVER: {what} {m:.3} (budget {ceiling})"),
            None => format!("NOT MEASURED: {what}: the allocation counter did not move"),
        })
        .collect();
    eprintln!("{}", report.join("\n"));
    assert!(
        budgets
            .iter()
            .all(|(_, measured, ceiling)| measured.is_some_and(|m| m <= *ceiling)),
        "allocation budgets exceeded or not measured:\n{}",
        report.join("\n")
    );
}
