//! Micro-benchmarks of the runtime primitives: task spawn without dependencies, spawn with
//! dependency registration, a serial dependency chain (release → satisfy → dispatch latency) and
//! the `taskwait` round-trip. These quantify the per-task overheads the paper discusses when
//! comparing `flat-taskwait` (no dependency calculation) with the dependency-tracking variants.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use weakdep_core::{Runtime, SharedSlice, TaskSpec};

fn bench_spawn(c: &mut Criterion) {
    let mut group = c.benchmark_group("spawn");
    group.sample_size(10);
    for &tasks in &[1_000usize, 10_000] {
        group.throughput(Throughput::Elements(tasks as u64));
        group.bench_with_input(BenchmarkId::new("no-deps", tasks), &tasks, |b, &tasks| {
            let rt = Runtime::with_workers(4);
            b.iter(|| {
                rt.run(|ctx| {
                    for _ in 0..tasks {
                        ctx.task().label("empty").spawn(|_| {});
                    }
                });
            });
        });
        group.bench_with_input(BenchmarkId::new("independent-deps", tasks), &tasks, |b, &tasks| {
            let rt = Runtime::with_workers(4);
            let data = SharedSlice::<u8>::new(tasks);
            b.iter(|| {
                let d = data.clone();
                rt.run(move |ctx| {
                    for i in 0..tasks {
                        ctx.task()
                            .inout(d.region(i..i + 1))
                            .label("dep")
                            .spawn(|_| {});
                    }
                });
            });
        });
    }
    group.finish();
}

fn bench_dependency_chain(c: &mut Criterion) {
    let mut group = c.benchmark_group("dependency-chain");
    group.sample_size(10);
    for &length in &[1_000usize, 5_000] {
        group.throughput(Throughput::Elements(length as u64));
        group.bench_with_input(BenchmarkId::from_parameter(length), &length, |b, &length| {
            let rt = Runtime::with_workers(2);
            let data = SharedSlice::<u64>::new(1);
            b.iter(|| {
                let d = data.clone();
                rt.run(move |ctx| {
                    for _ in 0..length {
                        let d2 = d.clone();
                        ctx.task().inout(d.region(0..1)).label("link").spawn(move |t| {
                            d2.write(t, 0..1)[0] += 1;
                        });
                    }
                });
            });
        });
    }
    group.finish();
}

/// Spawn throughput across worker counts, batched vs. unbatched: the contention benchmark of
/// the lock-sharding refactor. Unbatched takes the parent-domain lock once per task while the
/// workers' retire path fights for it; batched takes it once per wave.
fn bench_spawn_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("spawn-throughput");
    group.sample_size(10);
    let tasks = 10_000usize;
    for &workers in &[1usize, 2, 4, 8] {
        group.throughput(Throughput::Elements(tasks as u64));
        // One runtime reused across iterations: id retirement reclaims task-table slots once
        // tasks deeply complete, so steady-state capacity plateaus at the live-task high-water
        // mark and later iterations are no longer skewed by accumulated per-task state (the
        // workaround this bench used to need).
        group.bench_with_input(
            BenchmarkId::new("unbatched", workers),
            &workers,
            |b, &workers| {
                let rt = Runtime::with_workers(workers);
                let data = SharedSlice::<u8>::new(tasks);
                b.iter(|| {
                    let d = data.clone();
                    rt.run(move |ctx| {
                        for i in 0..tasks {
                            ctx.task().inout(d.region(i..i + 1)).label("spawn").spawn(|_| {});
                        }
                    });
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("batched", workers),
            &workers,
            |b, &workers| {
                let rt = Runtime::with_workers(workers);
                let data = SharedSlice::<u8>::new(tasks);
                b.iter(|| {
                    let d = data.clone();
                    rt.run(move |ctx| {
                        let mut i = 0;
                        while i < tasks {
                            let end = (i + 1_000).min(tasks);
                            let specs: Vec<TaskSpec> = (i..end)
                                .map(|k| {
                                    ctx.task()
                                        .inout(d.region(k..k + 1))
                                        .label("spawn")
                                        .stage(|_| {})
                                })
                                .collect();
                            ctx.spawn_batch(specs);
                            i = end;
                        }
                    });
                });
            },
        );
    }
    group.finish();
}

fn bench_taskwait(c: &mut Criterion) {
    let mut group = c.benchmark_group("taskwait");
    group.sample_size(10);
    group.bench_function("spawn-and-wait-100", |b| {
        let rt = Runtime::with_workers(4);
        b.iter(|| {
            rt.run(|ctx| {
                for _ in 0..100 {
                    ctx.task().spawn(|_| {});
                }
                ctx.taskwait();
            });
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_spawn,
    bench_spawn_throughput,
    bench_dependency_chain,
    bench_taskwait
);
criterion_main!(benches);
