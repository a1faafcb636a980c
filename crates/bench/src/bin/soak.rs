//! Long-lived steady-state soak: pushes ≥1M tasks through **one** `Runtime` and records that
//! the task ids minted (`CapacityStats::task_table_slots`) plateau at the live-task high-water
//! mark instead of growing linearly with the total number of tasks — the property the
//! generation-based id-retirement scheme provides. (A not-yet-ready task's record is parked in
//! its scheduling record in the parent's domain, which is freed when the task retires, so the
//! id plateau covers it too.) A
//! long-running server leaks without it (the state the pre-retirement design retained was
//! ~hundreds of bytes per task ever spawned).
//!
//! The workload is waves of dependent tasks over a fixed region set (so dependency chains form
//! and recycle edges/nodes, not just ids), separated by `taskwait` inside a single
//! `run` — the shape of a service draining request batches forever. It runs twice through the
//! same runtime: first the root body spawns each wave, then a *task* does, so that the
//! children the other worker runs hand their records back to the spawning worker
//! (`docs/runtime.md`, "Task memory"). After each wave the capacity counters (and RSS, when
//! `/proc` is available) are sampled; at the end the plateaus of the minted ids and of the
//! records parked in return bins (`CapacityStats::returned_records`) are asserted and the
//! samples' first, last and maximum are printed.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use weakdep_bench::CommonArgs;
use weakdep_core::{CapacityStats, Runtime, SharedSlice, TaskCtx, TaskSpec};

/// With `--features count-allocs`, heap allocations are counted and the soak reports
/// steady-state allocations per task.
#[cfg(feature = "count-allocs")]
#[global_allocator]
static ALLOC: weakdep_bench::alloc_counter::CountingAllocator =
    weakdep_bench::alloc_counter::CountingAllocator;

/// Resident set size in KiB, if the platform exposes `/proc/self/status`.
fn rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// One capacity sample, taken after a wave fully retired.
struct WaveSample {
    capacity: CapacityStats,
    rss_kb: Option<u64>,
}

/// Spawns wave `wave` of `wave_size` tasks over `cells` cells of `data` as children of `ctx`'s
/// task, and waits for them.
fn spawn_wave(
    ctx: &TaskCtx<'_>,
    data: &SharedSlice<u64>,
    executed: &Arc<AtomicUsize>,
    (wave, wave_size, cells): (usize, usize, usize),
) {
    let specs: Vec<TaskSpec> = (0..wave_size)
        .map(|i| {
            let cell = (wave * wave_size + i) % cells;
            let d2 = data.clone();
            let ex2 = Arc::clone(executed);
            ctx.task()
                .inout(data.region(cell..cell + 1))
                .label("soak")
                .stage(move |t| {
                    d2.write(t, cell..cell + 1)[0] += 1;
                    ex2.fetch_add(1, Ordering::Relaxed);
                })
        })
        .collect();
    ctx.spawn_batch(specs);
    ctx.taskwait();
}

/// Runs `waves` waves of `wave_size` tasks over `cells` cells of `data` in one `run` of `rt`,
/// spawned by the root body or, with `from_task`, each wave by a task of its own, and samples
/// the capacity after each wave.
fn soak_phase(
    rt: &Runtime,
    data: &SharedSlice<u64>,
    executed: &Arc<AtomicUsize>,
    (waves, wave_size, cells): (usize, usize, usize),
    from_task: bool,
) -> Vec<WaveSample> {
    let mut samples = Vec::with_capacity(waves);
    // ONE long-lived root: every wave spawns, drains (taskwait) and retires inside the same
    // runtime — nothing is torn down between waves.
    rt.run(|ctx| {
        for wave in 0..waves {
            let shape = (wave, wave_size, cells);
            if from_task {
                let (d, ex) = (data.clone(), Arc::clone(executed));
                ctx.task()
                    .weak_inout(data.region(0..cells))
                    .label("soak-spawner")
                    .spawn(move |t| spawn_wave(t, &d, &ex, shape));
                ctx.taskwait();
            } else {
                spawn_wave(ctx, data, executed, shape);
            }
            samples.push(WaveSample {
                capacity: rt.capacity(),
                rss_kb: rss_kb(),
            });
        }
    });
    samples
}

fn main() {
    let args = CommonArgs::parse();
    let (waves, wave_size) = if args.quick {
        (40, 2_500)
    } else {
        (100, 10_000)
    };
    let cells = 512usize;
    let workers = args.cores.min(8);
    let total_tasks = 2 * waves * wave_size;

    let rt = Runtime::with_workers(workers);
    let data = SharedSlice::<u64>::new(cells);
    let executed = Arc::new(AtomicUsize::new(0));
    let allocs_before = weakdep_bench::alloc_counter::allocations();
    let start = Instant::now();
    let shape = (waves, wave_size, cells);
    let mut samples = soak_phase(&rt, &data, &executed, shape, false);
    samples.extend(soak_phase(&rt, &data, &executed, shape, true));
    let elapsed = start.elapsed().as_secs_f64();
    let alloc_delta = weakdep_bench::alloc_counter::allocations() - allocs_before;
    let allocs_per_task = weakdep_bench::alloc_counter::per_unit(alloc_delta, total_tasks);

    // ---- Verification: throughput sanity and the capacity plateau. ----
    assert_eq!(executed.load(Ordering::Relaxed), total_tasks);
    let stats = rt.stats();
    assert_eq!(
        stats.engine.tasks_registered, stats.engine.tasks_deeply_completed,
        "every registered task (root included) must deeply complete"
    );
    assert_eq!(
        stats.engine.tasks_registered, stats.engine.tasks_retired,
        "every deeply completed task must be retired"
    );
    // The two roots and the second phase's spawners.
    assert_eq!(stats.engine.tasks_registered, total_tasks + 2 + waves);
    assert_eq!(data.snapshot().iter().sum::<u64>(), total_tasks as u64);

    let first = &samples[0];
    let last = samples.last().expect("at least one wave");
    let max_table = samples
        .iter()
        .map(|s| s.capacity.task_table_slots)
        .max()
        .unwrap();
    // Plateau: capacity anywhere in the soak stays within a small constant factor of the
    // first-wave high-water mark, and nowhere near linear in the task count.
    assert!(
        max_table <= first.capacity.task_table_slots * 3 + 1024,
        "minted ids must plateau: first wave {} ids, max {} ids",
        first.capacity.task_table_slots,
        max_table
    );
    assert!(
        max_table < total_tasks / 10,
        "minted ids grew with total tasks ({max_table} ids for {total_tasks} tasks)"
    );
    // The same plateau for the finished records parked in return bins, measured against the
    // first waves of the phase whose spawner is a task (before it, no record crosses workers).
    let returned = |s: &WaveSample| s.capacity.returned_records;
    let early_returned = samples[waves..waves + waves / 4]
        .iter()
        .map(returned)
        .max()
        .unwrap();
    let max_returned = samples.iter().map(returned).max().unwrap();
    assert!(
        max_returned <= early_returned * 3 + 1024,
        "records parked in return bins must plateau: first waves {early_returned}, max {max_returned}"
    );
    assert!(
        max_returned < total_tasks / 10,
        "records parked in return bins grew with total tasks ({max_returned} for {total_tasks} tasks)"
    );

    println!(
        "soak: {} tasks in 2 × {} waves of {} through one runtime ({} workers) in {:.2}s ({:.0} tasks/s)",
        total_tasks,
        waves,
        wave_size,
        workers,
        elapsed,
        total_tasks as f64 / elapsed.max(1e-12)
    );
    println!(
        "  ids minted: wave0={} final={} max={}",
        first.capacity.task_table_slots, last.capacity.task_table_slots, max_table
    );
    println!(
        "  records in return bins: phase-2 first waves={early_returned} final={} max={max_returned}",
        returned(last)
    );
    if let (Some(r0), Some(r1)) = (first.rss_kb, last.rss_kb) {
        println!("  rss: wave0={r0} KiB final={r1} KiB");
    }
    println!(
        "  retired: {} / registered: {}",
        stats.engine.tasks_retired, stats.engine.tasks_registered
    );
    if let Some(a) = allocs_per_task {
        println!("  allocs/task: {a:.1}");
    }
}
