//! Steady-state reclamation tests for the generation-based id-retirement subsystem.
//!
//! A long-lived runtime must not grow per-task state with the *total* number of tasks ever
//! spawned: once a task deeply completes and its last bookkeeping is reclaimed, its id is
//! recycled with a bumped generation, so the ids minted plateau at the live-task high-water
//! mark. (A not-yet-ready task's record waits in its scheduling record in the parent's domain,
//! which is reclaimed with the task, so the id plateau covers it.) That a stale id never
//! aliases the younger task reusing its index is the engine's id API's property, checked by
//! the engine's unit tests and `tests/proptest_reclamation.rs`. The finished task records
//! that workers hand back to the worker that spawned them plateau the same way.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use weakdep::{Runtime, SharedSlice, TaskSpec};

/// Multi-worker soak: waves of dependent tasks through ONE runtime. The ids minted must plateau
/// at the live-task high-water mark (not track total tasks), while the engine's books stay
/// balanced (`registered == deeply_completed == retired`).
#[test]
fn soak_capacity_plateaus_while_books_balance() {
    let workers = 4;
    let cells = 64usize;
    let (waves, wave_size) = if cfg!(debug_assertions) {
        (24, 1_000)
    } else {
        (80, 2_500)
    };
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
    assert_eq!(
        rt.capacity().live_tasks,
        0,
        "no task may stay live after its run returned"
    );
    assert!(
        max_table <= first_table * 3 + 1024,
        "minted ids must plateau (first wave {first_table}, max {max_table})"
    );
    assert!(
        max_table < total_tasks / 4,
        "minted ids grew with total tasks ({max_table} ids for {total_tasks} tasks)"
    );
}

/// Ids of completed (and by then retired) tasks are reused by later waves: the same indexes,
/// each with its generation bumped, so no id a later wave returns equals one an earlier wave
/// returned.
#[test]
fn later_waves_reuse_retired_indexes_with_a_bumped_generation() {
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
                    ctx.task()
                        .inout(d.region(cell..cell + 1))
                        .label(label)
                        .spawn(move |t| {
                            d2.write(t, cell..cell + 1)[0] += 1;
                        })
                })
                .collect()
        })
    };

    let first_wave = collect_wave("wave1");
    let second_wave = collect_wave("wave2");
    assert!(
        data.snapshot().iter().all(|&v| v == 16),
        "every task of both waves ran"
    );
    let mut reused = 0;
    for id in &second_wave {
        assert!(!first_wave.contains(id), "{id} was handed out twice");
        if let Some(old) = first_wave.iter().find(|old| old.index() == id.index()) {
            assert!(
                id.generation() > old.generation(),
                "{id} reuses {old} without a bump"
            );
            reused += 1;
        }
    }
    assert!(
        reused > 0,
        "later waves must recycle earlier waves' indexes"
    );
}

/// The inline root of `Runtime::run` spawns every wave on the calling thread while the workers
/// retire the leaves, so the ids a wave frees sit on the workers' free lists. The next wave,
/// spawned on the calling thread, must still find them: the live ids are one root plus one
/// wave, and a bound of two waves leaves room for scheduling slack while a spawner that missed
/// the workers' ids would mint a wave per wave (`WAVES × WAVE` ids).
#[test]
fn inline_root_waves_reuse_ids_retired_on_workers() {
    const WAVES: usize = 200;
    const WAVE: usize = 64;
    let rt = Runtime::with_workers(2);
    let data = SharedSlice::<u64>::new(WAVE);
    let d = data.clone();
    let max_table = rt.run(|ctx| {
        let mut max_table = 0;
        for _ in 0..WAVES {
            for i in 0..WAVE {
                let d2 = d.clone();
                ctx.task()
                    .inout(d.region(i..i + 1))
                    .label("leaf")
                    .spawn(move |t| {
                        d2.write(t, i..i + 1)[0] += 1;
                    });
            }
            ctx.taskwait();
            max_table = max_table.max(rt.capacity().task_table_slots);
        }
        max_table
    });
    assert!(data.snapshot().iter().all(|&v| v == WAVES as u64));
    assert!(
        max_table <= 2 * WAVE + 1,
        "minted ids grew to {max_table} for waves of {WAVE} (bound {})",
        2 * WAVE + 1
    );
}

/// Waves that a task spawns, inside one run: the children the other worker runs go back to the
/// spawner's worker through its return bin (`docs/runtime.md`, "Task memory"). The records
/// parked in the bins must plateau, measured against the first waves, instead of growing with
/// the tasks run, while the books balance.
#[test]
fn records_parked_in_return_bins_plateau_when_a_task_spawns_the_waves() {
    let cells = 512usize;
    let (waves, wave_size) = if cfg!(debug_assertions) {
        (24, 1_000)
    } else {
        (80, 2_500)
    };
    let rt = Runtime::with_workers(2);
    let data = SharedSlice::<u64>::new(cells);
    let returned = rt.run(|ctx| {
        (0..waves)
            .map(|wave| {
                let d = data.clone();
                ctx.task()
                    .weak_inout(data.region(0..cells))
                    .label("soak-spawner")
                    .spawn(move |t| {
                        let specs: Vec<TaskSpec> = (0..wave_size)
                            .map(|i| {
                                let cell = (wave * wave_size + i) % cells;
                                let d2 = d.clone();
                                t.task()
                                    .inout(d.region(cell..cell + 1))
                                    .label("soak")
                                    .stage(move |t| d2.write(t, cell..cell + 1)[0] += 1)
                            })
                            .collect();
                        t.spawn_batch(specs);
                        t.taskwait();
                    });
                ctx.taskwait();
                rt.capacity().returned_records
            })
            .collect::<Vec<usize>>()
    });

    let total_tasks = waves * wave_size;
    assert_eq!(data.snapshot().iter().sum::<u64>(), total_tasks as u64);
    let stats = rt.stats();
    assert_eq!(
        stats.engine.tasks_registered, stats.engine.tasks_deeply_completed,
        "every registered task (the root included) must deeply complete"
    );
    assert_eq!(stats.engine.tasks_registered, stats.engine.tasks_retired);
    assert_eq!(stats.engine.tasks_registered, total_tasks + 1 + waves);
    assert!(
        stats.records_returned > 0,
        "no record went home, so the plateau measured nothing"
    );
    let early = returned[..waves / 4].iter().copied().max().unwrap();
    let max = returned.iter().copied().max().unwrap();
    assert!(
        max <= early * 3 + 1024,
        "records parked in return bins must plateau: first waves {early}, max {max}"
    );
    assert!(
        max < total_tasks / 10,
        "records parked in return bins grew with the tasks run ({max} for {total_tasks} tasks)"
    );
}
