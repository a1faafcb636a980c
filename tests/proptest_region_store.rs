//! Property-based equivalence suite for the region store (the engine's bottom maps).
//!
//! Two independent layers:
//!
//! 1. **Container equivalence** — under random region/update sequences, [`RegionStore`] must be
//!    observationally equivalent to an independent reference model — one plain [`IntervalMap`]
//!    per space, indexed by space id: identical visit sequences during every update, identical
//!    stored fragments, identical query results, and the same [`Fit`] reported as the
//!    reference's own `update_range` returns.
//! 2. **Engine equivalence** — under random mixes of exact-matching and partially-overlapping
//!    dependencies, the engine built on the store must still execute every task and respect
//!    program order between conflicting accesses, and its matching counters must account for
//!    every registered access.

use proptest::prelude::*;

use weakdep::core::DependencyEngine;
use weakdep::regions::{Fit, IntervalMap, RangeUpdate, Region, RegionStore, SpaceId};
use weakdep::{AccessType, Depend, WaitMode};

/// One randomly generated store operation.
#[derive(Clone, Debug)]
struct Op {
    space: u8,
    start: u16,
    len: u8,
    value: u32,
    /// 0 = set, 1 = remove, 2 = visit-only (Keep).
    kind: u8,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..3, 0u16..200, 1u8..40, any::<u32>(), 0u8..3).prop_map(
        |(space, start, len, value, kind)| Op {
            space,
            start,
            len,
            value,
            kind,
        },
    )
}

fn op_region(op: &Op) -> Region {
    let start = op.start as usize;
    Region::new(SpaceId(op.space as u64), start, start + op.len as usize)
}

fn sorted_fragments<V: Clone + std::fmt::Debug>(
    it: impl Iterator<Item = (Region, V)>,
) -> Vec<(Region, V)> {
    let mut out: Vec<(Region, V)> = it.collect();
    out.sort_by_key(|(region, _)| (region.space, region.start, region.end));
    out
}

/// The reference model: one `IntervalMap` per space, indexed by `SpaceId` (the operations use
/// spaces 0–2, the probes 0–3).
type Reference = [IntervalMap<u32>; 4];

/// `update` on the reference, visiting fragments as whole regions like the store does.
fn reference_update(
    reference: &mut Reference,
    region: &Region,
    mut f: impl FnMut(Region, Option<&u32>) -> RangeUpdate<u32>,
) -> Fit {
    let space = region.space;
    reference[space.0 as usize].update_range(region.start, region.end, |s, e, v| {
        f(Region::new(space, s, e), v)
    })
}

/// Every fragment of the reference, as `(Region, value)`.
fn reference_fragments(reference: &Reference) -> impl Iterator<Item = (Region, u32)> + '_ {
    reference.iter().enumerate().flat_map(|(space, map)| {
        map.iter()
            .map(move |(s, e, v)| (Region::new(SpaceId(space as u64), s, e), *v))
    })
}

/// Deterministic pseudo-random picker (the interleaving source), seeded by proptest.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, bound: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) as usize) % bound.max(1)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The store and the pure interval-map reference must agree on every visit, every fit,
    /// every stored fragment and every query, whatever mix of exact matches, partial overlaps,
    /// removals and read-only visits the sequence throws at them.
    #[test]
    fn store_matches_region_map_reference(
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        let mut store: RegionStore<u32> = RegionStore::new();
        let mut reference = Reference::default();

        for op in &ops {
            let region = op_region(op);
            let mut store_visits: Vec<(Region, Option<u32>)> = Vec::new();
            let mut reference_visits: Vec<(Region, Option<u32>)> = Vec::new();
            let store_fit = store.update(&region, |fragment, existing| {
                store_visits.push((fragment, existing.copied()));
                match op.kind {
                    0 => RangeUpdate::Set(op.value),
                    1 => RangeUpdate::Remove,
                    _ => RangeUpdate::Keep,
                }
            });
            let reference_fit = reference_update(&mut reference, &region, |fragment, existing| {
                reference_visits.push((fragment, existing.copied()));
                match op.kind {
                    0 => RangeUpdate::Set(op.value),
                    1 => RangeUpdate::Remove,
                    _ => RangeUpdate::Keep,
                }
            });
            prop_assert_eq!(&store_visits, &reference_visits,
                "visit sequences diverged on {:?}", op);
            prop_assert_eq!(store_fit, reference_fit, "fits diverged on {:?}", op);
            // An exact fit is one whole-region visit (so is a region carved out of one larger
            // fragment, which splits it).
            if store_fit == Fit::Exact {
                prop_assert_eq!(&store_visits[..], &[(region, store_visits[0].1)][..]);
            }

            // Stored fragments agree after every operation (sorted: spaces are hashed).
            let store_now = sorted_fragments(store.iter().map(|(r, v)| (r, *v)));
            let reference_now = sorted_fragments(reference_fragments(&reference));
            prop_assert_eq!(&store_now, &reference_now, "fragments diverged after {:?}", op);
        }

        // Random queries agree too (including spaces the sequence never touched).
        for probe in 0..10usize {
            let region = Region::new(SpaceId((probe % 4) as u64), probe * 23, probe * 23 + 17);
            let mut store_hits: Vec<(Region, u32)> = Vec::new();
            store.query(&region, |r, v| store_hits.push((r, *v)));
            let mut reference_hits: Vec<(Region, u32)> = Vec::new();
            reference[region.space.0 as usize].query_range(region.start, region.end, |s, e, v| {
                reference_hits.push((Region::new(region.space, s, e), *v))
            });
            prop_assert_eq!(store.intersects(&region), !reference_hits.is_empty());
            prop_assert_eq!(
                sorted_fragments(store_hits.into_iter()),
                sorted_fragments(reference_hits.into_iter())
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Coalescing oracle at the store level: under random coalescing updates, the store must
    /// stay observationally equivalent to a pure reference (a per-space `IntervalMap` update
    /// followed, unless the update was exact, by the same local coalesce), report merges exactly
    /// when the reference merged, and leave a written region healed: after a non-exact `Set`,
    /// the region lies inside one stored fragment, so a query over it sees one hit.
    #[test]
    fn coalescing_updates_match_reference_and_demote_to_exact(
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        let mut store: RegionStore<u32> = RegionStore::new();
        let mut reference = Reference::default();

        for op in &ops {
            let region = op_region(op);
            let mut store_visits: Vec<(Region, Option<u32>)> = Vec::new();
            let mut reference_visits: Vec<(Region, Option<u32>)> = Vec::new();
            let (fit, merged) = store.update_coalescing(&region, |fragment, existing| {
                store_visits.push((fragment, existing.copied()));
                match op.kind {
                    0 => RangeUpdate::Set(op.value),
                    1 => RangeUpdate::Remove,
                    _ => RangeUpdate::Keep,
                }
            });
            let reference_fit = reference_update(&mut reference, &region, |fragment, existing| {
                reference_visits.push((fragment, existing.copied()));
                match op.kind {
                    0 => RangeUpdate::Set(op.value),
                    1 => RangeUpdate::Remove,
                    _ => RangeUpdate::Keep,
                }
            });
            // Mirror the store's local coalesce, which an exact update skips: it leaves one
            // fragment where there was one.
            let reference_merged = reference_fit != Fit::Exact
                && reference[region.space.0 as usize].coalesce_range(region.start, region.end);
            prop_assert_eq!(&store_visits, &reference_visits,
                "visit sequences diverged on {:?}", op);
            prop_assert_eq!((fit, merged), (reference_fit, reference_merged),
                "fit or merge diverged on {:?}", op);

            let store_now = sorted_fragments(store.iter().map(|(r, v)| (r, *v)));
            let reference_now = sorted_fragments(reference_fragments(&reference));
            prop_assert_eq!(&store_now, &reference_now, "fragments diverged after {:?}", op);

            if op.kind == 0 {
                // A wholesale write heals: the region is one fragment, or inside one.
                let mut hits = 0;
                store.query(&region, |_, _| hits += 1);
                prop_assert_eq!(hits, 1, "written region not healed after {:?}", op);
            }
        }
    }
}

/// One randomly declared flat task: 1–3 accesses drawn from a pool that mixes aligned blocks
/// (exact hits) with misaligned half-overlapping ranges (splits and spanning updates).
#[derive(Clone, Debug)]
struct Decl {
    accesses: Vec<(u8, u8)>, // (region selector 0..12, access-type selector 0..3)
}

fn decl_strategy() -> impl Strategy<Value = Decl> {
    proptest::collection::vec((0u8..12, 0u8..3), 1..4).prop_map(|accesses| Decl { accesses })
}

fn pool_region(selector: u8) -> Region {
    let i = (selector % 6) as usize;
    if selector < 6 {
        // Aligned block: always matches itself exactly.
        Region::new(SpaceId(1), i * 10, i * 10 + 10)
    } else {
        // Misaligned: straddles two aligned blocks, forcing splits and fragmentation.
        Region::new(SpaceId(1), i * 10 + 5, i * 10 + 15)
    }
}

fn deps_of(decl: &Decl) -> Vec<Depend> {
    decl.accesses
        .iter()
        .map(|&(r, a)| {
            let access = match a {
                0 => AccessType::In,
                1 => AccessType::Out,
                _ => AccessType::InOut,
            };
            Depend::new(access, pool_region(r))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// End-to-end through the engine: random exact/overlapping dependency mixes executed in a
    /// random legal order must run every task, respect program order between conflicting
    /// accesses, and account for every access in the matching counters.
    #[test]
    fn engine_ordering_is_unchanged_by_the_two_tier_store(
        decls in proptest::collection::vec(decl_strategy(), 1..25),
        seed in any::<u64>(),
    ) {
        let engine = DependencyEngine::new();
        let root = engine.register_root();
        let mut rng = Lcg(seed);

        let mut ready: Vec<usize> = Vec::new();
        let mut ids = Vec::with_capacity(decls.len());
        for (i, decl) in decls.iter().enumerate() {
            let (id, is_ready) = engine
                .register_task(root, &deps_of(decl), WaitMode::None)
                .expect("live parent");
            if is_ready {
                ready.push(i);
            }
            ids.push(id);
        }

        let mut finish_position = vec![usize::MAX; decls.len()];
        let mut finished = 0usize;
        while finished < decls.len() {
            prop_assert!(!ready.is_empty(), "engine stuck: pending tasks but none ready");
            let pick = ready.swap_remove(rng.next(ready.len()));
            let effects = engine.body_finished(ids[pick]).expect("live task");
            finish_position[pick] = finished;
            finished += 1;
            for newly in effects.ready {
                let pos = ids.iter().position(|id| *id == newly);
                prop_assert!(pos.is_some(), "ready effect for an unknown task");
                ready.push(pos.unwrap());
            }
        }

        // Program order between conflicting accesses survives whatever fit they had.
        for i in 0..decls.len() {
            for j in (i + 1)..decls.len() {
                let conflict = deps_of(&decls[i]).iter().any(|a| {
                    deps_of(&decls[j]).iter().any(|b| {
                        a.region.intersects(&b.region)
                            && (a.access.is_write() || b.access.is_write())
                    })
                });
                if conflict {
                    prop_assert!(
                        finish_position[i] < finish_position[j],
                        "task {} (finished {}) must precede task {} (finished {})",
                        i, finish_position[i], j, finish_position[j]
                    );
                }
            }
        }

        // Every registered access was counted once, exact or fragmented.
        let stats = engine.stats();
        prop_assert_eq!(
            stats.exact_hits + stats.fragmented_updates,
            stats.accesses_registered,
            "matching counters must account for every access (promotions: {})",
            stats.promotions
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Healing oracle at the engine level: random split → coalesce → exact-hit cycles over
    /// disjoint windows. Each cycle writes a window, straddles it (a split: `promotions`),
    /// rewrites the full window (the coalescing write merges the carved parts: `demotions`)
    /// and then rewrites it once more — which **must** be an exact hit: `EngineStats::exact_hits`
    /// resumes counting once the window is one fragment again.
    /// The whole graph must still drain in a random legal order.
    #[test]
    fn demoted_windows_resume_exact_hits(
        cycles in proptest::collection::vec(0u8..6, 1..12),
        seed in any::<u64>(),
    ) {
        let engine = DependencyEngine::new();
        let root = engine.register_root();
        let mut rng = Lcg(seed);
        let mut ready: Vec<usize> = Vec::new();
        let mut ids = Vec::new();

        let register = |region: Region, ready: &mut Vec<usize>, ids: &mut Vec<_>| {
            let deps = [Depend::new(AccessType::InOut, region)];
            let (id, is_ready) =
                engine.register_task(root, &deps, WaitMode::None).expect("live parent");
            if is_ready {
                ready.push(ids.len());
            }
            ids.push(id);
        };

        for &win in &cycles {
            // Stride-2 windows: a straddler of window w stays inside [w*20, w*20+20), so
            // cycles on different windows never interfere with each other's exactness.
            let base = win as usize * 20;
            let window = Region::new(SpaceId(1), base, base + 10);
            let straddler = Region::new(SpaceId(1), base + 5, base + 15);

            // Window write (into a gap on the first cycle of a window, an exact match later).
            register(window, &mut ready, &mut ids);

            // Straddling write: splits the window's fragment.
            let promotions_before = engine.stats().promotions;
            register(straddler, &mut ready, &mut ids);
            prop_assert!(engine.stats().promotions > promotions_before,
                "straddling write of window {} did not promote", win);

            // Full-window rewrite: the coalescing write merges the carved parts again.
            let demotions_before = engine.stats().demotions;
            register(window, &mut ready, &mut ids);
            prop_assert!(engine.stats().demotions > demotions_before,
                "healing write of window {} did not demote", win);

            // The healed window must match exactly again.
            let exact_before = engine.stats().exact_hits;
            register(window, &mut ready, &mut ids);
            prop_assert_eq!(engine.stats().exact_hits, exact_before + 1,
                "post-demotion write of window {} was not an exact hit", win);
        }

        // Accounting holds after arbitrary cycle interleavings: a merge is produced by (at
        // most) the coalescing pass of one non-exact update.
        let stats = engine.stats();
        prop_assert!(stats.demotions <= stats.fragmented_updates,
            "demotions ({}) exceed fragmented updates ({})",
            stats.demotions, stats.fragmented_updates);
        prop_assert_eq!(stats.exact_hits + stats.fragmented_updates, stats.accesses_registered,
            "matching counters must account for every access");

        // The graph drains: every task runs, in some random legal order.
        let mut finished = 0usize;
        while finished < ids.len() {
            prop_assert!(!ready.is_empty(), "engine stuck: pending tasks but none ready");
            let pick = ready.swap_remove(rng.next(ready.len()));
            let effects = engine.body_finished(ids[pick]).expect("live task");
            finished += 1;
            for newly in effects.ready {
                let pos = ids.iter().position(|id| *id == newly);
                prop_assert!(pos.is_some(), "ready effect for an unknown task");
                ready.push(pos.unwrap());
            }
        }
    }
}
