//! Spawn-throughput benchmark for the sharded dependency engine, with machine-readable output.
//!
//! Measures tasks/second for the task-creation hot path across worker counts, comparing:
//!
//! * `spawn-unbatched`  — one `TaskBuilder::spawn` call per task (one parent-domain lock
//!   acquisition each), from the root context;
//! * `spawn-batched`    — the same tasks registered through `TaskCtx::spawn_batch` in waves
//!   (one parent-domain lock acquisition per wave);
//! * `spawn-each`       — the same waves through `TaskCtx::spawn_each`: one shared body and
//!   one reused clause buffer per wave, so a task costs its record and its footprint;
//! * `stencil-each`     — `spawn_each` waves of Gauss–Seidel-shaped tiles over a block-major
//!   grid: five accesses per task (top, left, centre, right, bottom), one sweep of the grid
//!   per wave, each sweep ordered after the last;
//! * `fragmented-deps`  — every task's region overlaps half of its predecessor's, so every
//!   registration splits a bottom-map fragment (the slow-path guard for the matching path);
//! * `fragmented-demote` — pairs of tasks per sliding window: the first splits the window and
//!   (via the coalescing write) immediately heals its own extent, the second must be an exact
//!   hit — the round-trip guard for the coalescing rule;
//! * `nested-unbatched` / `nested-batched` — several spawner tasks running on different workers,
//!   each spawning children into its *own* dependency domain (the access pattern per-domain
//!   locking parallelises).
//!
//! Every sample also records the engine's matching counters (`exact_hits` / `promotions` /
//! `fragmented_updates` / `demotions`, defined in `docs/matching.md`) so the table shows how each
//! scenario's accesses met the bottom map, and — when built with `--features count-allocs` —
//! heap allocations per task. With `--enforce-alloc-budget` the run fails if a budgeted
//! scenario exceeds its allocs/task ceiling or was not measured (the CI regression guard for the
//! allocation-free spawn and matching paths).
//!
//! Prints a table (`--csv` for CSV). `--quick` shrinks the task counts for smoke testing.

use std::sync::Arc;
use std::time::Instant;

use weakdep_bench::alloc_counter::{check_budget, enforce_budgets, per_unit};
use weakdep_bench::{emit, CommonArgs};
use weakdep_core::{Runtime, SharedSlice, TaskSpec};

/// With `--features count-allocs`, every heap allocation is counted and the table gains an
/// allocs-per-task column (the denominator of the allocation-slimming work on the spawn path).
#[cfg(feature = "count-allocs")]
#[global_allocator]
static ALLOC: weakdep_bench::alloc_counter::CountingAllocator =
    weakdep_bench::alloc_counter::CountingAllocator;

/// The engine's matching counters after one run: `(exact_hits, promotions, fragmented_updates,
/// demotions)` — accesses that fit one fragment or gap, fragments split, accesses that split or
/// spanned, and updates that merged (`docs/matching.md`).
type MatchCounts = (usize, usize, usize, usize);

fn match_counts(rt: &Runtime) -> MatchCounts {
    let engine = rt.stats().engine;
    (
        engine.exact_hits,
        engine.promotions,
        engine.fragmented_updates,
        engine.demotions,
    )
}

/// One measured configuration.
struct Sample {
    scenario: &'static str,
    workers: usize,
    tasks: usize,
    /// Time spent in the spawn loop itself (registration throughput).
    spawn_secs: f64,
    /// Wall time of the whole run (spawn + drain).
    total_secs: f64,
    /// Heap allocations per task over the run itself — runtime construction excluded, so the
    /// figure is scale-independent (minimum across repetitions). `None` when the counting
    /// allocator is not installed.
    allocs_per_task: Option<f64>,
    /// Matching counters of the best run.
    matching: MatchCounts,
}

impl Sample {
    fn spawn_rate(&self) -> f64 {
        self.tasks as f64 / self.spawn_secs.max(1e-12)
    }

    fn total_rate(&self) -> f64 {
        self.tasks as f64 / self.total_secs.max(1e-12)
    }
}

/// Current global allocation count. Zero (and unmoving) unless the counting allocator is
/// installed via `--features count-allocs`. Scenarios snapshot it *after* constructing the
/// runtime so the per-task figure measures the spawn/run path, not the fixed pool start-up
/// cost — this keeps `--quick` runs (2 000 tasks) comparable to full runs (50 000 tasks) and
/// lets the alloc-budget guard use scale-independent ceilings.
fn allocs_now() -> u64 {
    weakdep_bench::alloc_counter::allocations()
}

/// Root context spawns `tasks` empty-bodied tasks with disjoint `inout` dependencies, one
/// `spawn` call per task. Returns (spawn-loop seconds, total seconds, matching counters,
/// allocation delta).
fn flat_unbatched(workers: usize, tasks: usize) -> (f64, f64, MatchCounts, u64) {
    let rt = Runtime::with_workers(workers);
    let data = SharedSlice::<u8>::new(tasks);
    let allocs0 = allocs_now();
    let total_start = Instant::now();
    let d = data.clone();
    let spawn_secs = rt.run(move |ctx| {
        let spawn_start = Instant::now();
        for i in 0..tasks {
            ctx.task()
                .inout(d.region(i..i + 1))
                .label("bench")
                .spawn(|_| {});
        }
        spawn_start.elapsed().as_secs_f64()
    });
    (
        spawn_secs,
        total_start.elapsed().as_secs_f64(),
        match_counts(&rt),
        allocs_now() - allocs0,
    )
}

/// Pure spawn-path overhead: `tasks` dependency-free empty tasks, one `spawn` call each (the
/// per-task lock acquisition, record hand-off and worker wake-up, with no dependency
/// registration mixed in).
fn nodeps_unbatched(workers: usize, tasks: usize) -> (f64, f64, MatchCounts, u64) {
    let rt = Runtime::with_workers(workers);
    let allocs0 = allocs_now();
    let total_start = Instant::now();
    let spawn_secs = rt.run(move |ctx| {
        let spawn_start = Instant::now();
        for _ in 0..tasks {
            ctx.task().label("bench").spawn(|_| {});
        }
        spawn_start.elapsed().as_secs_f64()
    });
    (
        spawn_secs,
        total_start.elapsed().as_secs_f64(),
        match_counts(&rt),
        allocs_now() - allocs0,
    )
}

/// The same dependency-free workload through `spawn_batch`.
fn nodeps_batched(workers: usize, tasks: usize, wave: usize) -> (f64, f64, MatchCounts, u64) {
    let rt = Runtime::with_workers(workers);
    let allocs0 = allocs_now();
    let total_start = Instant::now();
    let spawn_secs = rt.run(move |ctx| {
        let spawn_start = Instant::now();
        let mut i = 0;
        while i < tasks {
            let end = (i + wave).min(tasks);
            let specs: Vec<TaskSpec> = (i..end)
                .map(|_| ctx.task().label("bench").stage(|_| {}))
                .collect();
            ctx.spawn_batch(specs);
            i = end;
        }
        spawn_start.elapsed().as_secs_f64()
    });
    (
        spawn_secs,
        total_start.elapsed().as_secs_f64(),
        match_counts(&rt),
        allocs_now() - allocs0,
    )
}

/// Partial-overlap dependency pattern: every task's region covers half of its predecessor's, so
/// every bottom-map registration splits a stored fragment — the scenario that keeps the
/// matching path honest about fragmentation. Batched waves, like `flat_batched`.
fn fragmented_deps(workers: usize, tasks: usize, wave: usize) -> (f64, f64, MatchCounts, u64) {
    let rt = Runtime::with_workers(workers);
    let data = SharedSlice::<u8>::new(2 * tasks + 2);
    let allocs0 = allocs_now();
    let total_start = Instant::now();
    let d = data.clone();
    let spawn_secs = rt.run(move |ctx| {
        let spawn_start = Instant::now();
        let mut i = 0;
        while i < tasks {
            let end = (i + wave).min(tasks);
            let specs: Vec<TaskSpec> = (i..end)
                .map(|k| {
                    ctx.task()
                        .inout(d.region(2 * k..2 * k + 4))
                        .label("bench")
                        .stage(|_| {})
                })
                .collect();
            ctx.spawn_batch(specs);
            i = end;
        }
        spawn_start.elapsed().as_secs_f64()
    });
    (
        spawn_secs,
        total_start.elapsed().as_secs_f64(),
        match_counts(&rt),
        allocs_now() - allocs0,
    )
}

/// Demotion churn: pairs of tasks over a sliding window. The first task of each pair writes a
/// window straddling the previously healed extent — the write splits the stored fragment and
/// immediately coalesces its own extent back to one fragment; the second task writes the
/// *same* window and must be an exact hit. Exercises the split → coalesce → exact-hit cycle
/// (and the fragmented-state arena recycling behind it) end to end.
fn fragmented_demote(workers: usize, tasks: usize, wave: usize) -> (f64, f64, MatchCounts, u64) {
    let rt = Runtime::with_workers(workers);
    let data = SharedSlice::<u8>::new(tasks + 8);
    let allocs0 = allocs_now();
    let total_start = Instant::now();
    let d = data.clone();
    let spawn_secs = rt.run(move |ctx| {
        let spawn_start = Instant::now();
        let mut i = 0;
        while i < tasks {
            let end = (i + wave).min(tasks);
            let specs: Vec<TaskSpec> = (i..end)
                .map(|t| {
                    let k = t / 2;
                    ctx.task()
                        .inout(d.region(2 * k..2 * k + 4))
                        .label("bench")
                        .stage(|_| {})
                })
                .collect();
            ctx.spawn_batch(specs);
            i = end;
        }
        spawn_start.elapsed().as_secs_f64()
    });
    (
        spawn_secs,
        total_start.elapsed().as_secs_f64(),
        match_counts(&rt),
        allocs_now() - allocs0,
    )
}

/// The same workload registered through `spawn_batch`, in waves of `wave` tasks.
fn flat_batched(workers: usize, tasks: usize, wave: usize) -> (f64, f64, MatchCounts, u64) {
    let rt = Runtime::with_workers(workers);
    let data = SharedSlice::<u8>::new(tasks);
    let allocs0 = allocs_now();
    let total_start = Instant::now();
    let d = data.clone();
    let spawn_secs = rt.run(move |ctx| {
        let spawn_start = Instant::now();
        let mut i = 0;
        while i < tasks {
            let end = (i + wave).min(tasks);
            let specs: Vec<TaskSpec> = (i..end)
                .map(|k| {
                    ctx.task()
                        .inout(d.region(k..k + 1))
                        .label("bench")
                        .stage(|_| {})
                })
                .collect();
            ctx.spawn_batch(specs);
            i = end;
        }
        spawn_start.elapsed().as_secs_f64()
    });
    (
        spawn_secs,
        total_start.elapsed().as_secs_f64(),
        match_counts(&rt),
        allocs_now() - allocs0,
    )
}

/// The same workload registered through `spawn_each`, in waves of `wave` tasks.
fn flat_each(workers: usize, tasks: usize, wave: usize) -> (f64, f64, MatchCounts, u64) {
    let rt = Runtime::with_workers(workers);
    let data = SharedSlice::<u8>::new(tasks);
    let allocs0 = allocs_now();
    let total_start = Instant::now();
    let d = data.clone();
    let spawn_secs = rt.run(move |ctx| {
        let spawn_start = Instant::now();
        for first in (0..tasks).step_by(wave) {
            let len = wave.min(tasks - first);
            ctx.spawn_each(
                len,
                |i, c| {
                    let k = first + i;
                    c.inout(d.region(k..k + 1)).label("bench");
                },
                |_, _| {},
            );
        }
        spawn_start.elapsed().as_secs_f64()
    });
    (
        spawn_secs,
        total_start.elapsed().as_secs_f64(),
        match_counts(&rt),
        allocs_now() - allocs0,
    )
}

/// Side of the `stencil-each` grid in interior blocks, and elements per block.
const STENCIL_BLOCKS: usize = 32;
const STENCIL_BLOCK: usize = 4;

/// `tasks` empty-bodied tiles through `spawn_each`, in waves of one sweep of a block-major
/// `STENCIL_BLOCKS`² grid (a boundary ring around it): each tile reads its four neighbours and
/// updates its own block, the clause of every Gauss–Seidel task.
fn stencil_each(workers: usize, tasks: usize) -> (f64, f64, MatchCounts, u64) {
    const SIDE: usize = STENCIL_BLOCKS + 2;
    let rt = Runtime::with_workers(workers);
    let data = SharedSlice::<u8>::new(SIDE * SIDE * STENCIL_BLOCK);
    let allocs0 = allocs_now();
    let total_start = Instant::now();
    let d = data.clone();
    let spawn_secs = rt.run(move |ctx| {
        let block = |bi: usize, bj: usize| {
            let first = (bi * SIDE + bj) * STENCIL_BLOCK;
            d.region(first..first + STENCIL_BLOCK)
        };
        let spawn_start = Instant::now();
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
        spawn_start.elapsed().as_secs_f64()
    });
    (
        spawn_secs,
        total_start.elapsed().as_secs_f64(),
        match_counts(&rt),
        allocs_now() - allocs0,
    )
}

/// `spawners` tasks run concurrently on the pool; each spawns `children` tasks into its own
/// dependency domain. `batched` selects the registration path. Returns the average
/// spawner-loop seconds (the concurrent registration throughput) and the total wall time.
fn nested(
    workers: usize,
    spawners: usize,
    children: usize,
    batched: bool,
) -> (f64, f64, MatchCounts, u64) {
    let rt = Runtime::with_workers(workers);
    let data = SharedSlice::<u8>::new(spawners * children);
    let spawn_ns = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let allocs0 = allocs_now();
    let total_start = Instant::now();
    let d = data.clone();
    let ns = Arc::clone(&spawn_ns);
    rt.run(move |root| {
        for s in 0..spawners {
            let d2 = d.clone();
            let ns2 = Arc::clone(&ns);
            root.task()
                .weak_inout(d.region(s * children..(s + 1) * children))
                .weakwait()
                .label("spawner")
                .spawn(move |outer| {
                    let spawn_start = Instant::now();
                    if batched {
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
                    } else {
                        for c in 0..children {
                            let cell = s * children + c;
                            outer
                                .task()
                                .inout(d2.region(cell..cell + 1))
                                .label("child")
                                .spawn(|_| {});
                        }
                    }
                    ns2.fetch_add(
                        spawn_start.elapsed().as_nanos() as u64,
                        std::sync::atomic::Ordering::Relaxed,
                    );
                });
        }
    });
    let total = total_start.elapsed().as_secs_f64();
    // Average concurrent spawner time: total spawner-loop nanoseconds divided by the number of
    // spawners (they run in parallel, so the average models the per-domain critical path).
    let avg_spawn =
        spawn_ns.load(std::sync::atomic::Ordering::Relaxed) as f64 / 1e9 / spawners.max(1) as f64;
    (avg_spawn, total, match_counts(&rt), allocs_now() - allocs0)
}

/// Best (by spawn time) of `repeat` runs, plus the minimum allocation delta across runs (the
/// minimum filters warm-up noise such as lazily grown thread-local buffers). The delta is
/// `None` when the counting allocator is not installed — the counter then never moves.
fn measure(
    repeat: usize,
    f: impl Fn() -> (f64, f64, MatchCounts, u64),
) -> (f64, f64, Option<u64>, MatchCounts) {
    let mut best = (f64::INFINITY, f64::INFINITY, (0, 0, 0, 0));
    let mut min_allocs: Option<u64> = None;
    for _ in 0..repeat {
        let (spawn, total, matching, delta) = f();
        if delta > 0 {
            min_allocs = Some(min_allocs.map_or(delta, |m| m.min(delta)));
        }
        if spawn < best.0 {
            best = (spawn, total, matching);
        }
    }
    (best.0, best.1, min_allocs, best.2)
}

fn main() {
    let args = CommonArgs::parse();
    let tasks = if args.quick { 2_000 } else { 50_000 };
    let spawners = 8usize;
    let children = if args.quick { 250 } else { 4_000 };
    let wave = 1_000usize;
    let worker_counts: Vec<usize> = vec![1, 2, 4, 8];

    let mut samples: Vec<Sample> = Vec::new();
    for &workers in &worker_counts {
        let mut push =
            |scenario: &'static str, tasks: usize, m: (f64, f64, Option<u64>, MatchCounts)| {
                samples.push(Sample {
                    scenario,
                    workers,
                    tasks,
                    spawn_secs: m.0,
                    total_secs: m.1,
                    allocs_per_task: m.2.and_then(|a| per_unit(a, tasks)),
                    matching: m.3,
                });
            };
        push(
            "spawn-unbatched",
            tasks,
            measure(args.repeat, || flat_unbatched(workers, tasks)),
        );
        push(
            "spawn-batched",
            tasks,
            measure(args.repeat, || flat_batched(workers, tasks, wave)),
        );
        push(
            "spawn-each",
            tasks,
            measure(args.repeat, || flat_each(workers, tasks, wave)),
        );
        push(
            "stencil-each",
            tasks,
            measure(args.repeat, || stencil_each(workers, tasks)),
        );
        push(
            "nodeps-unbatched",
            tasks,
            measure(args.repeat, || nodeps_unbatched(workers, tasks)),
        );
        push(
            "nodeps-batched",
            tasks,
            measure(args.repeat, || nodeps_batched(workers, tasks, wave)),
        );
        push(
            "fragmented-deps",
            tasks,
            measure(args.repeat, || fragmented_deps(workers, tasks, wave)),
        );
        push(
            "fragmented-demote",
            tasks,
            measure(args.repeat, || fragmented_demote(workers, tasks, wave)),
        );

        let nested_tasks = spawners * children;
        push(
            "nested-unbatched",
            nested_tasks,
            measure(args.repeat, || nested(workers, spawners, children, false)),
        );
        push(
            "nested-batched",
            nested_tasks,
            measure(args.repeat, || nested(workers, spawners, children, true)),
        );
    }

    let headers = [
        "scenario",
        "workers",
        "tasks",
        "spawn_ms",
        "total_ms",
        "spawn_tasks_per_sec",
        "total_tasks_per_sec",
        "allocs_per_task",
        "exact_hits",
        "promotions",
        "fragmented",
        "demotions",
    ];
    let rows: Vec<Vec<String>> = samples
        .iter()
        .map(|s| {
            vec![
                s.scenario.to_string(),
                s.workers.to_string(),
                s.tasks.to_string(),
                format!("{:.2}", s.spawn_secs * 1e3),
                format!("{:.2}", s.total_secs * 1e3),
                format!("{:.0}", s.spawn_rate()),
                format!("{:.0}", s.total_rate()),
                s.allocs_per_task
                    .map_or_else(|| "-".to_string(), |a| format!("{a:.1}")),
                s.matching.0.to_string(),
                s.matching.1.to_string(),
                s.matching.2.to_string(),
                s.matching.3.to_string(),
            ]
        })
        .collect();
    emit(args.csv, &headers, &rows);

    // Headline ratios at the highest measured worker count, on the registration-loop rate
    // (what batching targets).
    let top = *worker_counts.last().unwrap_or(&1);
    let sample = |scenario: &str| {
        samples
            .iter()
            .find(|s| s.scenario == scenario && s.workers == top)
    };
    if let (Some(unbatched), Some(batched)) = (sample("spawn-unbatched"), sample("spawn-batched")) {
        eprintln!(
            "batched / unbatched spawn throughput (with deps) at {top} workers: {:.2}x",
            batched.spawn_rate() / unbatched.spawn_rate()
        );
    }
    if let (Some(unbatched), Some(batched)) = (sample("nodeps-unbatched"), sample("nodeps-batched"))
    {
        eprintln!(
            "batched / unbatched spawn throughput (no deps) at {top} workers: {:.2}x",
            batched.spawn_rate() / unbatched.spawn_rate()
        );
    }

    // Keep the run honest: a sample that spawned nothing or measured nothing indicates a broken
    // harness rather than a fast one.
    assert!(samples
        .iter()
        .all(|s| s.spawn_secs > 0.0 && s.total_secs > 0.0));

    // CI allocation-budget guard (`--enforce-alloc-budget`): the single-worker allocs/task of
    // the budgeted scenarios must stay under their ceilings.
    if args.enforce_alloc_budget {
        // Ceilings are the steady-state targets rounded up to the next whole allocation above
        // the 2 000-task `--quick` value, which carries 0.2–3/task of log-scale warm-up (slab
        // and queue doubling growth amortises over task count) on top of the full-run steady
        // state: spawn-batched 4.0 full / 4.2 quick, spawn-each 3.0 / 3.2, nested-batched
        // 4.0 / 4.3. `stencil-each` reads 5.5–5.6 quick: a five-access tile costs its footprint,
        // record, entry and node list (4), and two sweeps amortise the growth of the grid's
        // readers and edge lists. The fragmented rows vary from run to run with how far registration runs
        // ahead of retirement (fragmented-deps 6.6–8.4 full / 9.0–9.3 quick, fragmented-demote
        // 7.6–9.6 / 9.4–10.3), so they carry one allocation more. `nodeps-batched` sits exactly
        // at its 2.0 per-task steady state on full runs, plus a constant per-*job* slice (the
        // multi-tenant service allocates the job's state — `JobState`, gate, registry entry —
        // inside `run()`, after `allocs0` is sampled), so the full ceiling carries 0.1/task of
        // fixed-cost headroom; a real per-task regression of even half an allocation still
        // trips it. Its quick run reads 2.3.
        let budgets: &[(&str, f64)] = &[
            ("spawn-batched", 5.0),
            ("spawn-each", 4.0),
            ("stencil-each", 6.0),
            ("fragmented-deps", 11.0),
            ("fragmented-demote", 12.0),
            ("nested-batched", 5.0),
            ("nodeps-batched", if args.quick { 2.5 } else { 2.1 }),
        ];
        enforce_budgets(budgets.iter().map(|&(scenario, ceiling)| {
            let sample = samples
                .iter()
                .find(|s| s.scenario == scenario && s.workers == 1)
                .unwrap_or_else(|| panic!("budgeted scenario '{scenario}' was not measured"));
            check_budget(
                &format!("{scenario} allocs/task"),
                sample.allocs_per_task,
                ceiling,
            )
        }));
    }
}
