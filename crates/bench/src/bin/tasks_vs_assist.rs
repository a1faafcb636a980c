//! The `tasks_vs_assist` crossover bench (ISSUE 10): the same chunked reduction executed two
//! ways at a sweep of chunk grains —
//!
//! * **tasks** — one spawned task per chunk, declared dependencies, batched spawn (the
//!   runtime's cheapest per-task path, still ~a handful of allocations and a dependency
//!   match per chunk);
//! * **assist** — one registered task whose body is a single
//!   [`TaskCtx::for_each`](weakdep_core::TaskCtx::for_each): chunks are claimed from the
//!   shared loop descriptor's atomic cursor by the owner and any idle workers (~0
//!   allocations per chunk).
//!
//! At large grain the per-chunk overhead is amortised and the two run neck-and-neck; at
//! small grain the spawn/match cost dominates the task variant and the assist variant pulls
//! ahead — the crossover the work-assisting design exists for. Prints one table row per grain
//! (`--csv` for CSV).
//!
//! With `--features count-allocs` the bench also records allocations per chunk (assist) and
//! per task (tasks); `--enforce-alloc-budget` gates on [`ASSIST_ALLOC_BUDGET`] and
//! [`TASK_ALLOC_BUDGET`].

use std::time::Duration;

use weakdep_bench::alloc_counter::{check_budget, enforce_budgets, per_unit};
use weakdep_bench::{emit, CommonArgs};
use weakdep_core::{Runtime, RuntimeConfig, SchedulingPolicy, SharedSlice};
use weakdep_kernels::parallel_loops::{
    initialize_u64, reduce_assist, reduce_reference, reduce_tasks, LoopConfig,
};

/// See the module docs: installed only under `--features count-allocs`.
#[cfg(feature = "count-allocs")]
#[global_allocator]
static ALLOC: weakdep_bench::alloc_counter::CountingAllocator =
    weakdep_bench::alloc_counter::CountingAllocator;

/// CI ceiling for the assist variant: the steady-state loop claims chunks with a CAS and no
/// allocation, so the whole run's fixed setup cost (descriptor + its boxes + the one
/// registered task + job bookkeeping) spread over the chunks must stay well under one
/// allocation per chunk.
const ASSIST_ALLOC_BUDGET: f64 = 0.5;

/// CI ceiling for the task variant: each block task declares **two** regions (input slice +
/// output partial) plus a label, so its steady state is ~16–17 allocs/task — the same
/// neighbourhood the `overheads` bench gates its two-region `fragmented-deps` scenario at
/// (16.0); single-region batched spawns gate at 8.0 there. The headroom above 17 absorbs
/// warm-up growth on short runs.
const TASK_ALLOC_BUDGET: f64 = 24.0;

/// Budgets are *steady-state* (per-chunk / per-task) ceilings: rows with few chunks are
/// dominated by the run's fixed setup (job state, spec vector, partials buffer, result
/// snapshot) and are exempt — the claim under test is the amortised cost, and the small-grain
/// rows are exactly where it matters.
const MIN_CHUNKS_FOR_BUDGET: usize = 1024;

struct Row {
    chunk: usize,
    chunks: usize,
    assist_secs: f64,
    tasks_secs: f64,
    assist_allocs_per_chunk: Option<f64>,
    tasks_allocs_per_task: Option<f64>,
    assist_chunks: usize,
    assisted_loops: usize,
    assist_steals: usize,
}

fn best_of<F: FnMut() -> Duration>(repeat: usize, mut run: F) -> f64 {
    (0..repeat.max(1)).map(|_| run()).min().unwrap_or_default().as_secs_f64()
}

fn run_row(cfg: LoopConfig, input_data: &[u64], workers: usize, repeat: usize) -> Row {
    let expected = reduce_reference(input_data);
    let chunks = cfg.blocks();

    // Fresh runtimes per variant so the assist counters in the stats identity are this
    // row's alone. Workers are created before the measurement window; the input slice is
    // shared by all repetitions (read-only).
    let input = SharedSlice::from_vec(input_data.to_vec());

    let rt = Runtime::new(
        RuntimeConfig::new().workers(workers).scheduling_policy(SchedulingPolicy::LocalitySlot),
    );
    let assist_allocs_before = weakdep_bench::alloc_counter::allocations();
    let mut assist_reps = 0usize;
    let assist_secs = best_of(repeat, || {
        assist_reps += 1;
        let (run, value) = reduce_assist(&rt, &cfg, &input);
        assert_eq!(value, expected, "assist reduction result");
        run.elapsed
    });
    let assist_alloc_delta = weakdep_bench::alloc_counter::allocations() - assist_allocs_before;
    let stats = rt.stats();
    assert!(
        stats.assisted_loops <= stats.assist_steals && stats.assist_steals <= stats.assist_chunks,
        "assist counter identity violated: loops={} steals={} chunks={}",
        stats.assisted_loops,
        stats.assist_steals,
        stats.assist_chunks,
    );
    drop(rt);

    let rt = Runtime::new(
        RuntimeConfig::new().workers(workers).scheduling_policy(SchedulingPolicy::LocalitySlot),
    );
    let tasks_allocs_before = weakdep_bench::alloc_counter::allocations();
    let mut tasks_reps = 0usize;
    let tasks_secs = best_of(repeat, || {
        tasks_reps += 1;
        let (run, value) = reduce_tasks(&rt, &cfg, &input);
        assert_eq!(value, expected, "task-spawned reduction result");
        run.elapsed
    });
    let tasks_alloc_delta = weakdep_bench::alloc_counter::allocations() - tasks_allocs_before;
    drop(rt);

    Row {
        chunk: cfg.chunk,
        chunks,
        assist_secs,
        tasks_secs,
        assist_allocs_per_chunk: per_unit(assist_alloc_delta, chunks * assist_reps),
        tasks_allocs_per_task: per_unit(tasks_alloc_delta, chunks * tasks_reps),
        assist_chunks: stats.assist_chunks,
        assisted_loops: stats.assisted_loops,
        assist_steals: stats.assist_steals,
    }
}

fn main() {
    let args = CommonArgs::parse();
    // Two workers even on a single hardware thread: the crossover is a per-chunk *cost*
    // difference (CAS vs spawn + dependency match), not a parallel-speedup claim, and a
    // second worker lets the idle path actually exercise assists.
    let workers = args.cores.clamp(2, 4);
    let n: usize = if args.quick {
        1 << 16
    } else if args.full {
        1 << 22
    } else {
        1 << 20
    };
    let grains: &[usize] = &[64, 256, 1024, 8192];
    let repeat = args.repeat.max(if args.quick { 1 } else { 3 });

    let seed = SharedSlice::<u64>::new(n);
    initialize_u64(&seed);
    let input_data = seed.snapshot();

    let rows: Vec<Row> = grains
        .iter()
        .map(|&chunk| run_row(LoopConfig { n, chunk }, &input_data, workers, repeat))
        .collect();

    eprintln!("tasks_vs_assist: reduce over {n} u64s, {workers} workers, best of {repeat}");
    let headers = [
        "chunk",
        "chunks",
        "assist_elems_per_s",
        "tasks_elems_per_s",
        "assist_speedup",
        "assist_allocs_per_chunk",
        "tasks_allocs_per_task",
        "assist_chunks",
        "assisted_loops",
        "assist_steals",
    ];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            let assist_eps = n as f64 / row.assist_secs.max(1e-12);
            let tasks_eps = n as f64 / row.tasks_secs.max(1e-12);
            vec![
                row.chunk.to_string(),
                row.chunks.to_string(),
                format!("{assist_eps:.0}"),
                format!("{tasks_eps:.0}"),
                format!("{:.2}", assist_eps / tasks_eps.max(1e-12)),
                row.assist_allocs_per_chunk.map_or("-".into(), |a| format!("{a:.3}")),
                row.tasks_allocs_per_task.map_or("-".into(), |a| format!("{a:.1}")),
                row.assist_chunks.to_string(),
                row.assisted_loops.to_string(),
                row.assist_steals.to_string(),
            ]
        })
        .collect();
    emit(args.csv, &headers, &table);

    // ---- CI gate: per-chunk / per-task allocation ceilings. The *throughput ratio* is
    // printed but not gated — CI machines are too noisy to pin a speedup. ----
    if args.enforce_alloc_budget {
        let gated: Vec<&Row> =
            rows.iter().filter(|row| row.chunks >= MIN_CHUNKS_FOR_BUDGET).collect();
        assert!(
            !gated.is_empty(),
            "no row had >= {MIN_CHUNKS_FOR_BUDGET} chunks — the guard checked nothing"
        );
        enforce_budgets(gated.iter().flat_map(|row| {
            [
                check_budget(
                    &format!("assist chunk {} allocs/chunk", row.chunk),
                    row.assist_allocs_per_chunk,
                    ASSIST_ALLOC_BUDGET,
                ),
                check_budget(
                    &format!("task-spawned chunk {} allocs/task", row.chunk),
                    row.tasks_allocs_per_task,
                    TASK_ALLOC_BUDGET,
                ),
            ]
        }));
    }
}
