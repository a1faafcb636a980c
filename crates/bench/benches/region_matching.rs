//! Micro-benchmarks of the region-matching data path: declared-footprint normalisation and the
//! two-tier [`RegionStore`] (exact-match hash tier, lazy promotion, fragmented interval tier),
//! with a bare [`IntervalMap`] as the pre-two-tier reference where the comparison is
//! meaningful.

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

/// Repeated updates with the *same* region key: the exact-tier O(1) hit against the interval
/// tier's fragment-and-visit machinery.
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

/// A population of disjoint exact-tier regions, then one spanning update that promotes them
/// all — the cost of falling off the fast path once.
fn promotion(c: &mut Criterion) {
    let mut group = c.benchmark_group("promotion");
    for &blocks in &[16usize, 128] {
        group.throughput(Throughput::Elements(blocks as u64));
        group.bench_with_input(BenchmarkId::from_parameter(blocks), &blocks, |b, &blocks| {
            b.iter(|| {
                let mut store: RegionStore<u32> = RegionStore::new();
                for i in 0..blocks {
                    store.insert(&region(i * 64, i * 64 + 64), i as u32);
                }
                // Straddles every block boundary: promotes the whole population.
                store.insert(&region(32, blocks * 64 - 32), 999);
                criterion::black_box(store.fragmented_len())
            })
        });
    }
    group.finish();
}

/// Sliding half-overlapping updates (the `fragmented-deps` pattern): after the first promotion
/// everything runs on the interval tier — the store must stay within noise of the bare map.
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

/// Steady-state churn on the fragmented tier through the coalescing write path: sliding
/// half-overlapping `insert_coalescing` calls so every update fragments, heals its own extent
/// and demotes it back to the exact tier. With the arena-backed interval tier this loop
/// recycles interval nodes through the free list instead of allocating per update.
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
            criterion::black_box((store.exact_len(), store.fragmented_len()))
        })
    });
    // The non-coalescing write path over the same pattern: what the churn costs without the
    // heal-and-demote pass (fragments accumulate on the interval tier instead).
    group.bench_function("insert-plain", |b| {
        b.iter(|| {
            let mut store: RegionStore<u32> = RegionStore::new();
            for i in 0..UPDATES {
                store.insert(&region(i * 2, i * 2 + 4), i as u32);
            }
            criterion::black_box((store.exact_len(), store.fragmented_len()))
        })
    });
    group.finish();
}

/// The full promote → coalesce → demote → exact-hit round trip on a single window (the
/// `fragmented-demote` engine scenario reduced to the store): a straddling write knocks the
/// window off the exact tier, the healing rewrite demotes it back, and the follow-up write
/// must be an O(1) exact hit again.
fn demotion(c: &mut Criterion) {
    let mut group = c.benchmark_group("demotion");
    const CYCLES: usize = 256;
    group.throughput(Throughput::Elements(CYCLES as u64));
    group.bench_function("round-trip", |b| {
        b.iter(|| {
            let mut store: RegionStore<u32> = RegionStore::new();
            let window = region(0, 64);
            let straddler = region(32, 96);
            store.insert_coalescing(&window, 0);
            for i in 0..CYCLES {
                store.insert_coalescing(&straddler, i as u32); // promote + fragment
                store.insert_coalescing(&window, i as u32); // heal + demote
            }
            criterion::black_box((store.exact_len(), store.fragmented_len()))
        })
    });
    // Exact-tier baseline: the same number of writes with no straddler in between — the cost
    // floor the demoted window should return to.
    group.bench_function("exact-baseline", |b| {
        b.iter(|| {
            let mut store: RegionStore<u32> = RegionStore::new();
            let window = region(0, 64);
            store.insert_coalescing(&window, 0);
            for i in 0..CYCLES {
                store.insert_coalescing(&window, i as u32);
                store.insert_coalescing(&window, i as u32);
            }
            criterion::black_box((store.exact_len(), store.fragmented_len()))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    normalization,
    exact_hits,
    promotion,
    fragmented_updates,
    fragmented_churn,
    demotion
);
criterion_main!(benches);
