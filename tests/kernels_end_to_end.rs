//! Cross-crate integration tests: every kernel variant, several worker counts, stress loads and
//! failure injection.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use weakdep::{Runtime, RuntimeConfig, SchedulingPolicy, SharedSlice};
use weakdep_kernels::axpy::{self, AxpyConfig, AxpyVariant};
use weakdep_kernels::gauss_seidel::{self, GsConfig, GsVariant};
use weakdep_kernels::sort_scan::{self, SortScanConfig, SortScanVariant};

#[test]
fn axpy_all_variants_all_worker_counts() {
    let cfg = AxpyConfig {
        n: 1 << 13,
        calls: 4,
        task_size: 1 << 10,
        alpha: 1.25,
    };
    for workers in [1, 2, 4] {
        let rt = Runtime::with_workers(workers);
        for variant in AxpyVariant::all() {
            let (_run, result) = axpy::run(&rt, variant, &cfg);
            assert!(
                axpy::verify(&cfg, &result),
                "axpy {} with {workers} workers",
                variant.name()
            );
        }
    }
}

/// The axpy block waves go through `spawn_each`: every Table I variant under every scheduling
/// policy must reproduce the sequential reference bit for bit — with an uneven last block, and
/// with an empty vector, whose waves spawn nothing.
#[test]
fn axpy_spawn_each_waves_match_the_reference_under_every_policy() {
    let configs = [
        AxpyConfig {
            n: 1 << 13,
            calls: 3,
            task_size: 1 << 10,
            alpha: 1.25,
        },
        AxpyConfig {
            n: 10_007,
            calls: 3,
            task_size: 1024,
            alpha: 0.75,
        },
        AxpyConfig {
            n: 0,
            calls: 2,
            task_size: 1024,
            alpha: 2.0,
        },
    ];
    for policy in SchedulingPolicy::all() {
        let rt = Runtime::new(RuntimeConfig::new().workers(2).scheduling_policy(policy));
        for cfg in &configs {
            let expected: Vec<u64> = axpy::reference(cfg).iter().map(|v| v.to_bits()).collect();
            for variant in AxpyVariant::all() {
                let registered = rt.stats().engine.tasks_registered;
                let (_run, result) = axpy::run(&rt, variant, cfg);
                let bits: Vec<u64> = result.iter().map(|v| v.to_bits()).collect();
                assert!(
                    bits == expected,
                    "axpy {} under {} with n = {}",
                    variant.name(),
                    policy.name(),
                    cfg.n
                );
                // The root, the outer tasks of the nested variants, and one task per block.
                let spawned = cfg.calls * (cfg.blocks() + usize::from(variant.nested()));
                assert_eq!(rt.stats().engine.tasks_registered - registered, 1 + spawned);
            }
        }
    }
}

#[test]
fn gauss_seidel_all_variants_all_worker_counts() {
    let cfg = GsConfig {
        blocks: 3,
        ts: 8,
        iterations: 4,
    };
    for workers in [1, 2, 4] {
        let rt = Runtime::with_workers(workers);
        for variant in GsVariant::all() {
            let (_run, result) = gauss_seidel::run(&rt, variant, &cfg);
            assert!(
                gauss_seidel::verify(&cfg, &result),
                "gauss-seidel {} with {workers} workers",
                variant.name()
            );
        }
    }
}

#[test]
fn sort_scan_both_variants_all_worker_counts() {
    let cfg = SortScanConfig {
        n: 6_000,
        ts: 512,
        seed: 5,
    };
    for workers in [1, 2, 4] {
        let rt = Runtime::with_workers(workers);
        for variant in SortScanVariant::all() {
            let (_run, result) = sort_scan::run(&rt, variant, &cfg);
            assert!(
                sort_scan::verify(&cfg, &result),
                "sort-scan {} with {workers} workers",
                variant.name()
            );
        }
    }
}

/// Several runs on the same runtime must not interfere (the dependency engine keeps state across
/// `run` calls).
#[test]
fn repeated_kernel_runs_on_one_runtime() {
    let rt = Runtime::with_workers(4);
    let cfg = AxpyConfig {
        n: 1 << 12,
        calls: 3,
        task_size: 512,
        alpha: 0.5,
    };
    for _ in 0..5 {
        let (_run, result) = axpy::run(&rt, AxpyVariant::NestWeak, &cfg);
        assert!(axpy::verify(&cfg, &result));
    }
    let gs = GsConfig {
        blocks: 2,
        ts: 8,
        iterations: 2,
    };
    let (_run, result) = gauss_seidel::run(&rt, GsVariant::FlatDepend, &gs);
    assert!(gauss_seidel::verify(&gs, &result));
}

/// A stress test with tens of thousands of small dependent tasks across nesting levels.
#[test]
fn stress_many_nested_tasks() {
    let rt = Runtime::with_workers(4);
    let outer_count = 64usize;
    let inner_count = 64usize;
    let data = SharedSlice::<u64>::new(outer_count * inner_count);
    let counter = Arc::new(AtomicUsize::new(0));
    let d = data.clone();
    let c = Arc::clone(&counter);
    rt.run(move |ctx| {
        for o in 0..outer_count {
            let d2 = d.clone();
            let c2 = Arc::clone(&c);
            let start = o * inner_count;
            let end = start + inner_count;
            ctx.task()
                .weak_inout(d.region(start..end))
                .weakwait()
                .label("outer")
                .spawn(move |t| {
                    for i in start..end {
                        let d3 = d2.clone();
                        let c3 = Arc::clone(&c2);
                        t.task()
                            .inout(d2.region(i..i + 1))
                            .label("inner")
                            .spawn(move |ct| {
                                d3.write(ct, i..i + 1)[0] = i as u64;
                                c3.fetch_add(1, Ordering::Relaxed);
                            });
                    }
                });
        }
    });
    assert_eq!(counter.load(Ordering::Relaxed), outer_count * inner_count);
    let snapshot = data.snapshot();
    for (i, v) in snapshot.iter().enumerate() {
        assert_eq!(*v, i as u64);
    }
    let stats = rt.stats();
    assert_eq!(
        stats.engine.tasks_registered,
        1 + outer_count + outer_count * inner_count
    );
}

/// A long chain of dependent tasks across two nesting levels (release must cascade promptly and
/// never deadlock).
#[test]
fn long_cross_level_dependency_chain() {
    let rt = Runtime::with_workers(2);
    let links = 400usize;
    let data = SharedSlice::<u64>::new(1);
    let d = data.clone();
    rt.run(move |ctx| {
        for i in 0..links {
            let d2 = d.clone();
            ctx.task()
                .weak_inout(d.region(0..1))
                .weakwait()
                .label("link-outer")
                .spawn(move |t| {
                    let d3 = d2.clone();
                    t.task()
                        .inout(d2.region(0..1))
                        .label("link-inner")
                        .spawn(move |c| {
                            d3.write(c, 0..1)[0] += i as u64;
                        });
                });
        }
    });
    assert_eq!(data.snapshot()[0], (0..links as u64).sum::<u64>());
}

/// Failure injection: a panicking task must neither hang the runtime nor corrupt later runs.
#[test]
fn panicking_tasks_do_not_poison_the_runtime() {
    let rt = Runtime::with_workers(4);
    for round in 0..3 {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.run(|ctx| {
                for i in 0..16 {
                    ctx.task().label("maybe-panic").spawn(move |_| {
                        if i == 7 {
                            panic!("injected failure in round {round}");
                        }
                    });
                }
            });
        }));
        assert!(
            result.is_err(),
            "the injected panic must surface from run()"
        );
        // The runtime must still work correctly afterwards.
        let cfg = AxpyConfig {
            n: 2048,
            calls: 2,
            task_size: 256,
            alpha: 2.0,
        };
        let (_r, out) = axpy::run(&rt, AxpyVariant::FlatDepend, &cfg);
        assert!(axpy::verify(&cfg, &out));
    }
}

/// The runtime statistics are consistent with what the kernels instantiate.
#[test]
fn runtime_statistics_are_consistent() {
    let rt = Runtime::with_workers(2);
    let cfg = AxpyConfig {
        n: 1 << 12,
        calls: 2,
        task_size: 1 << 10,
        alpha: 1.0,
    };
    let before = rt.stats().tasks_executed;
    let (run, _result) = axpy::run(&rt, AxpyVariant::NestWeak, &cfg);
    let after = rt.stats().tasks_executed;
    assert_eq!(
        after - before,
        run.tasks,
        "executed tasks must match the kernel's accounting"
    );

    // Release edges are only created when a successor registers while the predecessor's access
    // is still unreleased; with 2 workers the axpy waves can drain before the next call
    // registers, so force the overlap deterministically: the writer spins until the reader's
    // spawn (and therefore its registration) has returned.
    let release_before = rt.stats().engine.release_edges;
    let chain = SharedSlice::<u64>::new(1);
    let reader_spawned = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let c = chain.clone();
    let spawned = std::sync::Arc::clone(&reader_spawned);
    rt.run(move |ctx| {
        let cw = c.clone();
        let gate_writer = std::sync::Arc::clone(&spawned);
        ctx.task()
            .inout(c.region(0..1))
            .label("gated-writer")
            .spawn(move |t| {
                while !gate_writer.load(std::sync::atomic::Ordering::Acquire) {
                    std::thread::yield_now();
                }
                cw.write(t, 0..1)[0] = 5;
            });
        let cr = c.clone();
        ctx.task()
            .input(c.region(0..1))
            .label("chained-reader")
            .spawn(move |t| {
                assert_eq!(cr.read(t, 0..1)[0], 5);
            });
        spawned.store(true, std::sync::atomic::Ordering::Release);
    });
    assert!(
        rt.stats().engine.release_edges > release_before,
        "a successor registering against an unreleased access must create a release edge"
    );

    // Cross-domain (satisfaction) links are only created when a child registers while its
    // parent's weak access is still unsatisfied, so force that situation deterministically: the
    // producer holds `data` until the weak outer task has instantiated its reader child (a
    // handshake rather than a sleep, so scheduling delays cannot break the ordering).
    let data = SharedSlice::<u64>::new(1);
    let reader_registered = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let d = data.clone();
    let gate = std::sync::Arc::clone(&reader_registered);
    rt.run(move |ctx| {
        let dp = d.clone();
        let gate_producer = std::sync::Arc::clone(&gate);
        ctx.task()
            .inout(d.region(0..1))
            .label("slow-producer")
            .spawn(move |t| {
                while !gate_producer.load(std::sync::atomic::Ordering::Acquire) {
                    std::thread::yield_now();
                }
                dp.write(t, 0..1)[0] = 9;
            });
        let dc = d.clone();
        let gate_outer = std::sync::Arc::clone(&gate);
        ctx.task()
            .weak_input(d.region(0..1))
            .weakwait()
            .label("weak-outer")
            .spawn(move |t| {
                let dr = dc.clone();
                t.task()
                    .input(dc.region(0..1))
                    .label("reader")
                    .spawn(move |c| {
                        assert_eq!(dr.read(c, 0..1)[0], 9);
                    });
                gate_outer.store(true, std::sync::atomic::Ordering::Release);
            });
    });
    assert!(
        rt.stats().engine.satisfaction_edges > 0,
        "weak nesting must create cross-domain links"
    );
}

/// Mixing kernels concurrently in a single run must keep them independent (different data
/// spaces never create dependencies between unrelated kernels).
#[test]
fn unrelated_kernels_share_the_runtime_without_interference() {
    let rt = Runtime::with_workers(4);
    let axpy_cfg = AxpyConfig {
        n: 1 << 12,
        calls: 2,
        task_size: 512,
        alpha: 3.0,
    };
    let x = SharedSlice::<f64>::new(axpy_cfg.n);
    let y = SharedSlice::<f64>::new(axpy_cfg.n);
    axpy::initialize(&x, &y);
    let sort_cfg = SortScanConfig {
        n: 4_096,
        ts: 256,
        seed: 123,
    };
    let sorted_input = SharedSlice::from_vec(sort_scan::generate_input(&sort_cfg));

    // Run both kernels back to back on the same runtime instance.
    axpy::run_on(&rt, AxpyVariant::NestWeak, &axpy_cfg, &x, &y);
    sort_scan::run_on(&rt, SortScanVariant::Weak, &sort_cfg, &sorted_input);

    assert!(axpy::verify(&axpy_cfg, &y.snapshot()));
    assert!(sort_scan::verify(&sort_cfg, &sorted_input.snapshot()));
}
