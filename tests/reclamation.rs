//! Steady-state reclamation tests for the generation-based id-retirement subsystem.
//!
//! A long-lived runtime must not grow per-task state with the *total* number of tasks ever
//! spawned: once a task deeply completes and its last bookkeeping is reclaimed, its task-table
//! slot is recycled, and the stale `TaskId` is detected (defined [`weakdep::StaleTaskId`] error)
//! rather than aliased onto the younger task reusing the slot. (A not-yet-ready task's record
//! waits in its scheduling record in the parent's domain, which is reclaimed with the task, so
//! the task-table plateau covers it.)

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use weakdep::{Runtime, SharedSlice, TaskSpec};

/// Multi-worker soak: waves of dependent tasks through ONE runtime. Task-table capacity must
/// plateau at the live-task high-water mark (not track total tasks), while the engine's books
/// stay balanced (`registered == deeply_completed == retired`).
#[test]
fn soak_capacity_plateaus_while_books_balance() {
    let workers = 4;
    let cells = 64usize;
    let (waves, wave_size) = if cfg!(debug_assertions) { (24, 1_000) } else { (80, 2_500) };
    let rt = Runtime::with_workers(workers);
    let data = SharedSlice::<u64>::new(cells);
    let executed = Arc::new(AtomicUsize::new(0));

    let mut max_table = 0usize;
    let mut first_table = 0usize;
    for wave in 0..waves {
        let d = data.clone();
        let ex = Arc::clone(&executed);
        rt.run(move |ctx| {
            let specs: Vec<TaskSpec> = (0..wave_size)
                .map(|i| {
                    let cell = i % cells;
                    let d2 = d.clone();
                    let ex2 = Arc::clone(&ex);
                    ctx.task().inout(d.region(cell..cell + 1)).label("soak").stage(move |t| {
                        d2.write(t, cell..cell + 1)[0] += 1;
                        ex2.fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect();
            ctx.spawn_batch(specs);
        });
        let cap = rt.capacity();
        if wave == 0 {
            first_table = cap.task_table_slots;
        }
        max_table = max_table.max(cap.task_table_slots);
    }

    let total_tasks = waves * wave_size;
    assert_eq!(executed.load(Ordering::Relaxed), total_tasks);
    let stats = rt.stats();
    assert_eq!(
        stats.engine.tasks_registered, stats.engine.tasks_deeply_completed,
        "every registered task (roots included) must deeply complete"
    );
    assert_eq!(
        stats.engine.tasks_registered, stats.engine.tasks_retired,
        "every deeply completed task must be retired"
    );
    assert_eq!(stats.engine.tasks_registered, total_tasks + waves); // + one root per run

    // The plateau: bounded by the first wave's high-water mark (plus slack for scheduling
    // jitter between waves), and nowhere near linear in the total task count.
    assert_eq!(rt.capacity().live_tasks, 0, "no task may stay live after its run returned");
    assert!(
        max_table <= first_table * 3 + 1024,
        "task table must plateau (first wave {first_table} slots, max {max_table})"
    );
    assert!(
        max_table < total_tasks / 4,
        "task table grew with total tasks ({max_table} slots for {total_tasks} tasks)"
    );
}

/// Stale ids from completed (and by then retired) tasks keep erroring forever — even after
/// their table slots have been reused by later waves, they must never report the state of the
/// younger occupant.
#[test]
fn stale_ids_error_after_retirement_and_reuse() {
    let rt = Runtime::with_workers(2);
    let cells = 8usize;
    let data = SharedSlice::<u64>::new(cells);

    let collect_wave = |label: &'static str| -> Vec<weakdep::TaskId> {
        let d = data.clone();
        rt.run(move |ctx| {
            (0..64usize)
                .map(|i| {
                    let cell = i % cells;
                    let d2 = d.clone();
                    ctx.task().inout(d.region(cell..cell + 1)).label(label).spawn(move |t| {
                        d2.write(t, cell..cell + 1)[0] += 1;
                    })
                })
                .collect()
        })
    };

    let first_wave = collect_wave("wave1");
    // After the run every task of the wave deeply completed and was retired.
    for &id in &first_wave {
        assert_eq!(
            rt.try_is_deeply_completed(id),
            Err(weakdep::StaleTaskId(id)),
            "{id:?} must be stale after its run completed"
        );
    }

    // Later waves reuse the retired slots (same indexes, bumped generations)...
    let second_wave = collect_wave("wave2");
    let reused = second_wave.iter().filter(|id| {
        first_wave.iter().any(|old| old.index() == id.index())
    });
    assert!(reused.count() > 0, "later waves must recycle earlier waves' slots");
    // ...and the stale ids still error: no aliasing through the recycled slots, ever.
    for &id in &first_wave {
        assert_eq!(rt.try_is_deeply_completed(id), Err(weakdep::StaleTaskId(id)));
    }
}
