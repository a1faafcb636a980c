//! Concurrency stress tests for the sharded (per-domain-lock) dependency engine.
//!
//! Many workers concurrently spawn nested task trees with overlapping dependencies — the access
//! pattern that exercises the cross-domain message protocol (satisfaction flowing down, deep
//! completion flowing up) from several threads at once. After every run the engine's books must
//! balance: every registered task deeply completed, every expected body executed, and the data
//! must match a sequential model. A lost wake-up, a dropped message or a lock-ordering bug shows
//! up here as a hang (no deadlock may ever occur) or as a failed balance assertion.

use std::collections::HashSet;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use weakdep::core::{TaskExecution, TaskInfo};
use weakdep::{Runtime, RuntimeConfig, RuntimeObserver, SharedSlice, TaskCtx, TaskId, TaskSpec};

/// Asserts the engine's books balance after `run` returned: everything registered has deeply
/// completed and every non-root task executed exactly once.
fn assert_balanced(rt: &Runtime, expected_tasks: usize, runs: usize) {
    let stats = rt.stats();
    assert_eq!(
        stats.engine.tasks_registered, stats.engine.tasks_deeply_completed,
        "every registered task (roots included) must deeply complete"
    );
    assert_eq!(
        stats.engine.tasks_registered,
        expected_tasks + runs,
        "unexpected task count (expected {expected_tasks} tasks + {runs} roots)"
    );
    assert_eq!(
        stats.tasks_executed, expected_tasks,
        "every spawned task must execute"
    );
}

/// Flat fan-out from many workers: outer tasks spawn their own children concurrently, all over
/// disjoint regions, using the batched spawn path.
#[test]
fn concurrent_batched_fanout_balances() {
    let workers = 8;
    let outers = 24usize;
    let inners = 64usize;
    let rt = Runtime::with_workers(workers);
    let data = SharedSlice::<u64>::new(outers * inners);
    let executed = Arc::new(AtomicUsize::new(0));

    let d = data.clone();
    let ex = Arc::clone(&executed);
    rt.run(move |root| {
        let specs: Vec<TaskSpec> = (0..outers)
            .map(|o| {
                let d2 = d.clone();
                let ex2 = Arc::clone(&ex);
                root.task()
                    .weak_inout(d.region(o * inners..(o + 1) * inners))
                    .weakwait()
                    .label("outer")
                    .stage(move |outer| {
                        ex2.fetch_add(1, Ordering::Relaxed);
                        let inner_specs: Vec<TaskSpec> = (0..inners)
                            .map(|i| {
                                let cell = o * inners + i;
                                let d3 = d2.clone();
                                let ex3 = Arc::clone(&ex2);
                                outer
                                    .task()
                                    .inout(d2.region(cell..cell + 1))
                                    .label("inner")
                                    .stage(move |t| {
                                        d3.write(t, cell..cell + 1)[0] += 1 + cell as u64;
                                        ex3.fetch_add(1, Ordering::Relaxed);
                                    })
                            })
                            .collect();
                        outer.spawn_batch(inner_specs);
                    })
            })
            .collect();
        root.spawn_batch(specs);
    });

    assert_eq!(executed.load(Ordering::Relaxed), outers + outers * inners);
    for (cell, v) in data.snapshot().iter().enumerate() {
        assert_eq!(*v, 1 + cell as u64, "cell {cell}");
    }
    assert_balanced(&rt, outers + outers * inners, 1);
}

/// Overlapping dependency chains spawned concurrently from nested tasks: every chain serialises
/// on its cell while different chains proceed in parallel, across repeated runs of the same
/// runtime (slot recycling is exercised by the reuse).
#[test]
fn concurrent_overlapping_chains_balance_across_runs() {
    let workers = 8;
    let cells = 16usize;
    let links = 25usize;
    let spawners = 8usize;
    let runs = 6usize;
    let rt = Runtime::with_workers(workers);
    let data = SharedSlice::<u64>::new(cells);

    for _ in 0..runs {
        let d = data.clone();
        rt.run(move |root| {
            // Several "spawner" tasks run on different workers; each spawns chain links over
            // every cell, interleaved with the other spawners' registrations.
            let specs: Vec<TaskSpec> = (0..spawners)
                .map(|_| {
                    let d2 = d.clone();
                    root.task()
                        .label("spawner")
                        .weakwait()
                        .weak_inout(d2.region(0..cells))
                        .stage(move |spawner| {
                            for link in 0..links {
                                let cell = link % cells;
                                let d3 = d2.clone();
                                spawner
                                    .task()
                                    .inout(d2.region(cell..cell + 1))
                                    .label("link")
                                    .spawn(move |t| {
                                        d3.write(t, cell..cell + 1)[0] += 1;
                                    });
                            }
                        })
                })
                .collect();
            root.spawn_batch(specs);
        });
    }

    let expected_per_cell = {
        let mut counts = vec![0u64; cells];
        for _ in 0..runs {
            for _ in 0..spawners {
                for link in 0..links {
                    counts[link % cells] += 1;
                }
            }
        }
        counts
    };
    assert_eq!(data.snapshot(), expected_per_cell);
    assert_balanced(&rt, runs * (spawners + spawners * links), runs);
}

/// Three-level nesting with weak accesses and cross-level dependencies, spawned from many
/// workers: satisfaction must traverse domains downwards while deep completion climbs upwards,
/// concurrently, without losing either.
#[test]
fn concurrent_three_level_nesting_balances() {
    let workers = 8;
    let groups = 12usize;
    let rounds = 4usize;
    let rt = Runtime::with_workers(workers);
    let data = SharedSlice::<u64>::new(groups);

    for _ in 0..rounds {
        let d = data.clone();
        rt.run(move |root| {
            for g in 0..groups {
                let d2 = d.clone();
                // Producer overwrites the cell; a two-level weak nest then triples it — the
                // leaf's strong access inherits the dependency on the producer through two weak
                // levels.
                let dp = d2.clone();
                root.task()
                    .output(d2.region(g..g + 1))
                    .label("producer")
                    .spawn(move |t| {
                        dp.write(t, g..g + 1)[0] = g as u64 + 1;
                    });
                let d3 = d2.clone();
                root.task()
                    .weak_inout(d2.region(g..g + 1))
                    .weakwait()
                    .label("middle")
                    .spawn(move |mid| {
                        let d4 = d3.clone();
                        mid.task()
                            .weak_inout(d3.region(g..g + 1))
                            .weakwait()
                            .label("inner")
                            .spawn(move |inner| {
                                let d5 = d4.clone();
                                inner.task().inout(d4.region(g..g + 1)).label("leaf").spawn(
                                    move |t| {
                                        d5.write(t, g..g + 1)[0] *= 3;
                                    },
                                );
                            });
                    });
            }
        });
    }

    // Per round each cell is overwritten with (g+1) and then tripled.
    let snapshot = data.snapshot();
    for (g, v) in snapshot.iter().enumerate() {
        assert_eq!(*v, 3 * (g as u64 + 1), "cell {g}");
    }
    assert_balanced(&rt, rounds * groups * 4, rounds);
}

/// Checks the order the observers see: each task is announced by `task_created` before
/// `task_executed` reports it, and executes once. Violations are counted rather than asserted,
/// because `task_executed` runs on a worker outside any body's panic capture.
#[derive(Default)]
struct AnnouncedOnce {
    /// Announced tasks that have not executed yet. Ids are generational, so a recycled table
    /// slot never collides with an earlier task here.
    announced: Mutex<HashSet<TaskId>>,
    /// Executions of tasks that were not announced (or had executed already).
    violations: AtomicUsize,
}

impl RuntimeObserver for AnnouncedOnce {
    fn task_created(&self, info: &TaskInfo<'_>) {
        assert!(
            self.announced.lock().unwrap().insert(info.id),
            "{} announced twice",
            info.id
        );
    }

    fn task_executed(&self, execution: &TaskExecution<'_>) {
        if !self.announced.lock().unwrap().remove(&execution.id) {
            self.violations.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Spawns `rounds` rounds over `cells` from `ctx`: an `inout` chain of `links` single spawns,
/// then a `spawn_batch` wave of `links` siblings on the same cells. Every body is empty, so a
/// predecessor often finishes while the spawner is still inside `spawn` registering its
/// successor. Returns the number of tasks spawned.
fn spawn_rounds(ctx: &TaskCtx<'_>, data: &SharedSlice<u8>, cells: Range<usize>) -> usize {
    let (rounds, links) = (40, 96);
    let width = cells.len();
    let cell = |i: usize| cells.start + i % width;
    for _ in 0..rounds {
        for i in 0..links {
            let c = cell(i);
            ctx.task()
                .inout(data.region(c..c + 1))
                .label("link")
                .spawn(|_| {});
        }
        let wave: Vec<TaskSpec> = (0..links)
            .map(|i| {
                let c = cell(i);
                ctx.task()
                    .inout(data.region(c..c + 1))
                    .label("wave")
                    .stage(|_| {})
            })
            .collect();
        ctx.spawn_batch(wave);
    }
    2 * rounds * links
}

/// A task becomes runnable the moment registration finds it ready — or, when it is not, the
/// moment its last predecessor releases it, which can happen on another worker before the
/// spawner returns from `spawn`. Either way observers must have seen `task_created` first, and
/// the task must run exactly once. The root spawns from the caller's thread, and two nested
/// spawners from workers, so both dispatch paths race their own registrations.
#[test]
fn tasks_are_announced_before_they_run_and_run_once() {
    for workers in [2, 4] {
        let observer = Arc::new(AnnouncedOnce::default());
        let config = RuntimeConfig::new()
            .workers(workers)
            .observer(observer.clone());
        let rt = Runtime::new(config);
        let data = SharedSlice::<u8>::new(12);
        let spawned = Arc::new(AtomicUsize::new(0));

        let (d, count) = (data.clone(), Arc::clone(&spawned));
        rt.run(move |root| {
            let nested: Vec<TaskSpec> = [4..8, 8..12]
                .into_iter()
                .map(|cells| {
                    let (d2, count2) = (d.clone(), Arc::clone(&count));
                    root.task()
                        .weak_inout(d.region(cells.clone()))
                        .weakwait()
                        .label("spawner")
                        .stage(move |spawner| {
                            count2.fetch_add(spawn_rounds(spawner, &d2, cells), Ordering::Relaxed);
                        })
                })
                .collect();
            count.fetch_add(nested.len(), Ordering::Relaxed);
            root.spawn_batch(nested);
            count.fetch_add(spawn_rounds(root, &d, 0..4), Ordering::Relaxed);
        });

        let spawned = spawned.load(Ordering::Relaxed);
        assert_eq!(
            observer.violations.load(Ordering::Relaxed),
            0,
            "{workers} workers"
        );
        assert!(
            observer.announced.lock().unwrap().is_empty(),
            "an announced task never ran"
        );
        assert_balanced(&rt, spawned, 1);
    }
}
