//! Micro-benchmarks of the region-matching data path: declared-footprint normalisation and the
//! bottom-map [`RegionStore`] (one interval map per space), with a bare [`IntervalMap`] as the
//! reference where the comparison is meaningful: the difference is the store's per-space
//! lookup.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use weakdep_core::{normalize_deps, AccessType, Depend};
use weakdep_regions::{IntervalMap, Region, RegionStore, SpaceId};

fn region(start: usize, end: usize) -> Region {
    Region::new(SpaceId(1), start, end)
}

/// `normalize_deps` over pairwise-disjoint clauses (the fast path: no interval-map machinery)
/// and over an overlapping clause (the general combining path).
fn normalization(c: &mut Criterion) {
    let mut group = c.benchmark_group("normalize");
    for &n in &[1usize, 4, 16] {
        let deps: Vec<Depend> = (0..n)
            .map(|i| Depend::new(AccessType::InOut, region(i * 64, i * 64 + 32)))
            .collect();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("disjoint", n), &deps, |b, deps| {
            b.iter(|| normalize_deps(criterion::black_box(deps)))
        });
    }
    let overlapping: Vec<Depend> = (0..8)
        .map(|i| Depend::new(AccessType::In, region(i * 32, i * 32 + 48)))
        .collect();
    group.throughput(Throughput::Elements(8));
    group.bench_with_input(
        BenchmarkId::new("overlapping", 8),
        &overlapping,
        |b, deps| b.iter(|| normalize_deps(criterion::black_box(deps))),
    );
    group.finish();
}

/// Repeated updates with the *same* region: the exact fit, one binary search and an in-place
/// overwrite.
fn exact_hits(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact-hit");
    const UPDATES: usize = 1024;
    group.throughput(Throughput::Elements(UPDATES as u64));
    group.bench_function("region-store", |b| {
        b.iter(|| {
            let mut store: RegionStore<u32> = RegionStore::new();
            for i in 0..UPDATES {
                store.insert(&region(0, 4096), i as u32);
            }
            criterion::black_box(store.len())
        })
    });
    group.bench_function("interval-map-reference", |b| {
        b.iter(|| {
            let mut map: IntervalMap<u32> = IntervalMap::new();
            for i in 0..UPDATES {
                map.insert_range(0, 4096, i as u32);
            }
            criterion::black_box(map.len())
        })
    });
    group.finish();
}

/// A population of disjoint blocks, then one update straddling every block boundary — it splits
/// the two end blocks and visits all of them.
fn spanning(c: &mut Criterion) {
    let mut group = c.benchmark_group("spanning");
    for &blocks in &[16usize, 128] {
        group.throughput(Throughput::Elements(blocks as u64));
        group.bench_with_input(BenchmarkId::from_parameter(blocks), &blocks, |b, &blocks| {
            b.iter(|| {
                let mut store: RegionStore<u32> = RegionStore::new();
                for i in 0..blocks {
                    store.insert(&region(i * 64, i * 64 + 64), i as u32);
                }
                store.insert(&region(32, blocks * 64 - 32), 999);
                criterion::black_box(store.len())
            })
        });
    }
    group.finish();
}

/// Sliding half-overlapping updates (the `fragmented-deps` pattern): every update splits its
/// predecessor — the store must stay within noise of the bare map.
fn fragmented_updates(c: &mut Criterion) {
    let mut group = c.benchmark_group("fragmented-updates");
    const UPDATES: usize = 512;
    group.throughput(Throughput::Elements(UPDATES as u64));
    group.bench_function("region-store", |b| {
        b.iter(|| {
            let mut store: RegionStore<u32> = RegionStore::new();
            for i in 0..UPDATES {
                store.insert(&region(i * 2, i * 2 + 4), i as u32);
            }
            criterion::black_box(store.len())
        })
    });
    group.bench_function("interval-map-reference", |b| {
        b.iter(|| {
            let mut map: IntervalMap<u32> = IntervalMap::new();
            for i in 0..UPDATES {
                map.insert_range(i * 2, i * 2 + 4, i as u32);
            }
            criterion::black_box(map.len())
        })
    });
    group.finish();
}

/// Steady-state fragmentation churn through the coalescing write path: sliding
/// half-overlapping `insert_coalescing` calls so every update splits its predecessor and heals
/// its own extent. The arena-backed interval map recycles its slots through the free list
/// instead of allocating per update.
fn fragmented_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("fragmented-churn");
    const UPDATES: usize = 512;
    group.throughput(Throughput::Elements(UPDATES as u64));
    group.bench_function("insert-coalescing", |b| {
        b.iter(|| {
            let mut store: RegionStore<u32> = RegionStore::new();
            for i in 0..UPDATES {
                store.insert_coalescing(&region(i * 2, i * 2 + 4), i as u32);
            }
            criterion::black_box(store.len())
        })
    });
    // The non-coalescing write path over the same pattern: what the churn costs without the
    // healing pass (fragments accumulate instead).
    group.bench_function("insert-plain", |b| {
        b.iter(|| {
            let mut store: RegionStore<u32> = RegionStore::new();
            for i in 0..UPDATES {
                store.insert(&region(i * 2, i * 2 + 4), i as u32);
            }
            criterion::black_box(store.len())
        })
    });
    group.finish();
}

/// The split → coalesce → exact-fit round trip on a single window (the `fragmented-demote`
/// engine scenario reduced to the store): a straddling write splits the window, the healing
/// rewrite merges it back, and the follow-up write fits it exactly again.
fn healing(c: &mut Criterion) {
    let mut group = c.benchmark_group("healing");
    const CYCLES: usize = 256;
    group.throughput(Throughput::Elements(CYCLES as u64));
    group.bench_function("round-trip", |b| {
        b.iter(|| {
            let mut store: RegionStore<u32> = RegionStore::new();
            let window = region(0, 64);
            let straddler = region(32, 96);
            store.insert_coalescing(&window, 0);
            for i in 0..CYCLES {
                store.insert_coalescing(&straddler, i as u32); // split
                store.insert_coalescing(&window, i as u32); // heal
            }
            criterion::black_box(store.len())
        })
    });
    // Exact-fit baseline: the same number of writes with no straddler in between — the cost
    // floor the healed window should return to.
    group.bench_function("exact-baseline", |b| {
        b.iter(|| {
            let mut store: RegionStore<u32> = RegionStore::new();
            let window = region(0, 64);
            store.insert_coalescing(&window, 0);
            for i in 0..CYCLES {
                store.insert_coalescing(&window, i as u32);
                store.insert_coalescing(&window, i as u32);
            }
            criterion::black_box(store.len())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    normalization,
    exact_hits,
    spanning,
    fragmented_updates,
    fragmented_churn,
    healing
);
criterion_main!(benches);
