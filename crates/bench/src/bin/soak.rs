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
//! `run` — the shape of a service draining request batches forever. After each wave the
//! capacity counters (and RSS, when `/proc` is available) are sampled; at the end the plateau
//! is asserted and the samples' first, last and maximum are printed.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use weakdep_bench::CommonArgs;
use weakdep_core::{CapacityStats, Runtime, SharedSlice, TaskSpec};

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

fn main() {
    let args = CommonArgs::parse();
    let (waves, wave_size) = if args.quick { (40, 2_500) } else { (100, 10_000) };
    let cells = 512usize;
    let workers = args.cores.min(8);
    let total_tasks = waves * wave_size;

    let rt = Runtime::with_workers(workers);
    let data = SharedSlice::<u64>::new(cells);
    let executed = Arc::new(AtomicUsize::new(0));
    let mut samples: Vec<WaveSample> = Vec::with_capacity(waves);
    let allocs_before = weakdep_bench::alloc_counter::allocations();
    let start = Instant::now();

    {
        let d = data.clone();
        let ex = Arc::clone(&executed);
        // ONE long-lived root: every wave spawns, drains (taskwait) and retires inside the same
        // runtime — nothing is torn down between waves.
        rt.run(|ctx| {
            for wave in 0..waves {
                let specs: Vec<TaskSpec> = (0..wave_size)
                    .map(|i| {
                        let cell = (wave * wave_size + i) % cells;
                        let d2 = d.clone();
                        let ex2 = Arc::clone(&ex);
                        ctx.task()
                            .inout(d.region(cell..cell + 1))
                            .label("soak")
                            .stage(move |t| {
                                d2.write(t, cell..cell + 1)[0] += 1;
                                ex2.fetch_add(1, Ordering::Relaxed);
                            })
                    })
                    .collect();
                ctx.spawn_batch(specs);
                ctx.taskwait();
                samples.push(WaveSample { capacity: rt.capacity(), rss_kb: rss_kb() });
            }
        });
    }
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
    assert_eq!(data.snapshot().iter().sum::<u64>(), total_tasks as u64);

    let first = &samples[0];
    let last = samples.last().expect("at least one wave");
    let max_table = samples.iter().map(|s| s.capacity.task_table_slots).max().unwrap();
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

    println!(
        "soak: {} tasks in {} waves of {} through one runtime ({} workers) in {:.2}s ({:.0} tasks/s)",
        total_tasks,
        waves,
        wave_size,
        workers,
        elapsed,
        total_tasks as f64 / elapsed.max(1e-12)
    );
    println!(
        "  ids minted: wave0={} final={} max={}",
        first.capacity.task_table_slots,
        last.capacity.task_table_slots,
        max_table
    );
    if let (Some(r0), Some(r1)) = (first.rss_kb, last.rss_kb) {
        println!("  rss: wave0={r0} KiB final={r1} KiB");
    }
    println!("  retired: {} / registered: {}", stats.engine.tasks_retired, stats.engine.tasks_registered);
    if let Some(a) = allocs_per_task {
        println!("  allocs/task: {a:.1}");
    }
}
