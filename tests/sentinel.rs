//! Integration tests of the region-conflict race sentinel (`crates/sentinel`, wired into the
//! runtime behind the `sentinel` feature — run with `cargo test --features sentinel`).
//!
//! Two kinds of test live here:
//!
//! * **Positive**: real nested/weak-dependency workloads run clean under the sentinel — the
//!   shadow-table checks must produce no false positives (ancestor exemption, weak-entry
//!   exclusion, retire-before-successor-dispatch ordering).
//! * **Mutation regressions**: deliberately seeded scheduler bugs must be *caught*. The
//!   flagship is the §VIII-A wave-ordering mutation (`RuntimeConfig::seed_wave_ordering_bug`),
//!   which re-introduces the bug class fixed in PR 5 — `spawn_batch` waves registered with
//!   their declared dependencies dropped, so conflicting siblings dispatch concurrently.

#![cfg(feature = "sentinel")]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use weakdep::{Runtime, RuntimeConfig, SharedSlice, TaskSpec};

/// Bounded rendezvous for the mutation tests: announce arrival, then spin until `expected`
/// parties arrived or the deadline passes. Unlike `std::sync::Barrier`, this cannot hang when a
/// party never shows up — which is exactly what happens when the sentinel (correctly) kills a
/// sibling at task start, before its body runs.
fn rendezvous(arrived: &AtomicUsize, expected: usize, deadline: Duration) {
    arrived.fetch_add(1, Ordering::SeqCst);
    let start = Instant::now();
    while arrived.load(Ordering::SeqCst) < expected && start.elapsed() < deadline {
        std::thread::yield_now();
    }
}

// ---------------------------------------------------------------------------------------------
// Positive: correct programs stay clean under the sentinel.
// ---------------------------------------------------------------------------------------------

/// The crate's flagship pattern — weak outer deps, strong inner blocks, weakwait — must not
/// trip the sentinel: children overlap their ancestors by design, and the weak entries never
/// hold regions against anyone.
#[test]
fn nested_weak_workload_is_clean() {
    let rt = Runtime::with_workers(2);
    let data = SharedSlice::<u64>::filled(1024, 1);
    for _ in 0..8 {
        let outer_data = data.clone();
        rt.run(move |ctx| {
            let n = outer_data.len();
            let inner_data = outer_data.clone();
            ctx.task()
                .weak_inout(outer_data.region(0..n))
                .weakwait()
                .label("outer")
                .spawn(move |outer| {
                    for start in (0..n).step_by(256) {
                        let end = start + 256;
                        let block = inner_data.clone();
                        outer
                            .task()
                            .inout(inner_data.region(start..end))
                            .label("block")
                            .spawn(move |t| {
                                for v in block.write(t, start..end) {
                                    *v += 1;
                                }
                            });
                    }
                });
        });
    }
    assert!(data.snapshot().iter().all(|&v| v == 9));
}

/// Retire batching at 2 workers: the fine blocks of axpy-like weak outer tasks (four calls
/// per run, each block `inout` on its slice) hold their `ChildDone`s back in batches. The
/// successor blocks a flush releases must still start only after their predecessors left the
/// shadow table, so the run stays clean.
#[test]
fn batched_retires_are_clean() {
    let rt = Runtime::with_workers(2);
    let data = SharedSlice::<u64>::filled(4096, 0);
    for _ in 0..20 {
        let outer_data = data.clone();
        rt.run(move |ctx| {
            let n = outer_data.len();
            for _ in 0..4 {
                let inner_data = outer_data.clone();
                ctx.task()
                    .weak_inout(outer_data.region(0..n))
                    .weakwait()
                    .label("outer")
                    .spawn(move |outer| {
                        let block = inner_data.clone();
                        outer.spawn_each(
                            n / 64,
                            |i, clauses| {
                                clauses.inout(inner_data.region(i * 64..(i + 1) * 64)).label("block");
                            },
                            move |t, i| {
                                for v in block.write(t, i * 64..(i + 1) * 64) {
                                    *v += 1;
                                }
                            },
                        );
                    });
            }
        });
    }
    assert!(data.snapshot().iter().all(|&v| v == 80));
    assert!(rt.stats().retires_deferred > 0, "the blocks' retires were batched");
}

/// A chain of dependent writers over one region: the engine serialises them, so the sentinel
/// must never see two of them running at once — across many repetitions.
#[test]
fn dependent_chain_is_clean() {
    let rt = Runtime::with_workers(2);
    let data = SharedSlice::<u64>::filled(64, 0);
    for _ in 0..50 {
        let d = data.clone();
        rt.run(move |ctx| {
            for _ in 0..16 {
                let dc = d.clone();
                ctx.task().inout(d.region(0..64)).label("link").spawn(move |t| {
                    for v in dc.write(t, 0..64) {
                        *v += 1;
                    }
                });
            }
        });
    }
    assert!(data.snapshot().iter().all(|&v| v == 16 * 50));
}

/// Multi-tenant service: concurrent jobs whose tasks declare the **same** footprints (each
/// over its own buffer) must stay clean — the shadow table is job-qualified, so cross-job
/// overlap is never compared. The rendezvous forces the jobs' writers to genuinely overlap in
/// time, which without the job qualifier would look exactly like the flagged races below.
#[test]
fn concurrent_jobs_with_identical_footprints_are_clean() {
    let rt = Runtime::with_workers(2);
    let arrived = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..3)
        .map(|_| {
            let a = Arc::clone(&arrived);
            rt.submit(move |ctx| {
                let data = SharedSlice::<u64>::filled(64, 0);
                let d = data.clone();
                let a2 = Arc::clone(&a);
                ctx.task().inout(data.region(0..64)).label("tenant-writer").spawn(move |t| {
                    // Hold the footprint while the other jobs' identically-declared writers
                    // start: only the job qualifier keeps this clean.
                    rendezvous(&a2, 3, Duration::from_secs(2));
                    for v in d.write(t, 0..64) {
                        *v += 1;
                    }
                });
                ctx.taskwait();
                data.snapshot()[0]
            })
        })
        .collect();
    for handle in handles {
        assert_eq!(handle.wait_result().expect("no sentinel report"), Some(1));
    }
    assert_eq!(arrived.load(Ordering::SeqCst), 3, "the tenants' writers must have overlapped");
}

// ---------------------------------------------------------------------------------------------
// Mutation regression: the seeded §VIII-A wave-ordering bug must be caught.
// ---------------------------------------------------------------------------------------------

/// With `seed_wave_ordering_bug`, a `spawn_batch` wave of conflicting writers is registered
/// dependency-free: the engine dispatches all of them concurrently, and the sentinel must
/// report the write/write region conflict the moment the second writer starts while the first
/// is still running. The first writer's body spins in a bounded rendezvous so the overlap
/// window is seconds wide, not microseconds (`run` re-raises the captured conflict panic).
#[test]
#[should_panic(expected = "sentinel: region conflict")]
fn wave_ordering_mutation_is_caught() {
    let rt = Runtime::new(RuntimeConfig::new().workers(2).seed_wave_ordering_bug(true));
    let data = SharedSlice::<u64>::filled(64, 0);
    let arrived = Arc::new(AtomicUsize::new(0));
    rt.run(move |ctx| {
        let specs: Vec<TaskSpec> = (0..2)
            .map(|_| {
                let a = Arc::clone(&arrived);
                ctx.task()
                    .inout(data.region(0..64))
                    .label("conflicting-writer")
                    .stage(move |_t| {
                        // Under the seeded bug the sibling is flagged at *start* and its body
                        // never runs, so `arrived` never reaches 2 — the deadline keeps the
                        // survivor (and the test) finite.
                        rendezvous(&a, 2, Duration::from_secs(2));
                    })
            })
            .collect();
        ctx.spawn_batch(specs);
    });
}

/// The seeded bug sits in the registration step every spawn path shares, so a
/// `spawn_each` wave of conflicting writers is caught the same way.
#[test]
#[should_panic(expected = "sentinel: region conflict")]
fn wave_ordering_mutation_is_caught_on_a_spawn_each_wave() {
    let rt = Runtime::new(RuntimeConfig::new().workers(2).seed_wave_ordering_bug(true));
    let data = SharedSlice::<u64>::filled(64, 0);
    let arrived = Arc::new(AtomicUsize::new(0));
    rt.run(move |ctx| {
        ctx.spawn_each(
            2,
            |_, c| {
                c.inout(data.region(0..64)).label("conflicting-writer");
            },
            move |_t, _| rendezvous(&arrived, 2, Duration::from_secs(2)),
        );
    });
}

/// Same seeded bug, single-worker edition: even when the conflicting siblings can never
/// actually overlap in time (one worker), the sentinel catches the mis-schedule the moment the
/// second writer starts while the first is still *registered* as running — only if they truly
/// interleave. With one worker they run back-to-back and retire in between, so this documents
/// the sentinel's concurrency-witness semantics: it flags overlap, not ordering. The program
/// must therefore complete (with a possibly-racy sum, which we do not assert).
#[test]
fn wave_ordering_mutation_single_worker_completes() {
    let rt = Runtime::new(RuntimeConfig::new().workers(1).seed_wave_ordering_bug(true));
    let data = SharedSlice::<u64>::filled(8, 0);
    let hits = Arc::new(AtomicUsize::new(0));
    let h = Arc::clone(&hits);
    rt.run(move |ctx| {
        let specs: Vec<TaskSpec> = (0..4)
            .map(|_| {
                let h2 = Arc::clone(&h);
                ctx.task()
                    .inout(data.region(0..8))
                    .label("serial-writer")
                    .stage(move |_t| {
                        h2.fetch_add(1, Ordering::SeqCst);
                    })
            })
            .collect();
        ctx.spawn_batch(specs);
    });
    assert_eq!(hits.load(Ordering::SeqCst), 4);
}

// ---------------------------------------------------------------------------------------------
// Out-of-footprint accesses: the data-layer instrumentation.
// ---------------------------------------------------------------------------------------------

/// A `spawn_each` child's footprint is exactly what the wave's rule wrote for it: a body that
/// writes its neighbour's block is stopped at the access.
#[test]
#[should_panic(expected = "without a covering strong write dependency")]
fn spawn_each_access_outside_the_rule_is_caught() {
    let rt = Runtime::with_workers(2);
    let data = SharedSlice::<u64>::filled(64, 0);
    let d = data.clone();
    rt.run(move |ctx| {
        ctx.spawn_each(
            4,
            |i, c| {
                c.inout(data.region(i * 16..i * 16 + 16)).label("block");
            },
            move |t, i| {
                let next = (i + 1) % 4 * 16;
                d.write(t, next..next + 16)[0] = 1;
            },
        );
    });
}

/// Accessing a region after `release`-ing it must panic: the static footprint assert cannot
/// catch this (the dependency *was* declared); the sentinel's live-footprint check does.
#[test]
#[should_panic(expected = "outside its live declared strong footprint")]
fn use_after_release_is_caught() {
    let rt = Runtime::with_workers(2);
    let data = SharedSlice::<u64>::filled(64, 0);
    rt.run(move |ctx| {
        let d = data.clone();
        ctx.task().inout(data.region(0..64)).label("releaser").spawn(move |t| {
            d.write(t, 0..32)[0] = 1;
            t.release(d.region(0..32));
            // The released half is no longer ours.
            d.write(t, 0..32)[0] = 2;
        });
    });
}

/// A `footprint_hint` is visible to the sentinel as a strong claim, so two concurrent tasks
/// coordinating *only* through hints (no dependencies — the flat-taskwait pattern) are flagged
/// when their hinted write regions overlap. The bounded rendezvous keeps the first writer's
/// body alive across the second's start.
#[test]
#[should_panic(expected = "sentinel: region conflict")]
fn overlapping_footprint_hints_without_deps_are_caught() {
    let rt = Runtime::with_workers(2);
    let data = SharedSlice::<u64>::filled(64, 0);
    let arrived = Arc::new(AtomicUsize::new(0));
    rt.run(move |ctx| {
        for _ in 0..2 {
            let a = Arc::clone(&arrived);
            ctx.task()
                .footprint_hint(data.region(0..64), true)
                .label("hinted-writer")
                .spawn(move |_t| {
                    rendezvous(&a, 2, Duration::from_secs(2));
                });
        }
    });
}
