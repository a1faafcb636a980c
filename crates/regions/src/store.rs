//! [`RegionStore`]: a two-tier map from disjoint region fragments to values, optimised for the
//! exact-match access pattern of the dependency engine's bottom maps.
//!
//! Blocked kernels (axpy, gauss_seidel, sort_scan — §VII of the paper) declare whole-block
//! dependencies that recur with **identical** regions: wave after wave, the bottom map is
//! queried and updated with exactly the same `[start, end)` keys. A plain [`IntervalMap`]
//! pays the full fragmentation machinery (ordered range search, entry splitting) on every one
//! of those updates even though no fragmentation ever happens.
//!
//! `RegionStore` splits the storage into two tiers:
//!
//! * the **exact tier** — a hash map keyed by the full [`Region`], plus a lightweight per-space
//!   ordered index of its keys (`start → end`) used only on misses to detect overlap. A lookup
//!   that hits a key exactly is O(1) and allocation-free.
//! * the **fragmented tier** — one [`IntervalMap`] per space, carrying every region that has
//!   ever been involved in a *partial* overlap.
//!
//! A space's key index and its fragmented map sit in one per-space entry, so a miss on the
//! exact tier costs one space lookup.
//!
//! Exactness is tracked **per base region**: a region enters the exact tier when it is first
//! stored and nothing it overlaps is present, and it is *promoted* (moved to the fragmented
//! tier) the first time an update partially overlaps it. Promotion is per-region, so one
//! partially-overlapped allocation does not tax the exact-matching traffic of the others.
//! Semantics are identical to one `IntervalMap` per space receiving the same updates — the
//! `proptest_region_store` suite asserts observational equivalence — because a region sits in
//! the exact tier only while no update has ever split it, which is exactly when the general
//! machinery would have kept it as a single fragment too.
//!
//! Under [`RegionStore::update`] promotion is one-way. [`RegionStore::update_coalescing`] —
//! the variant the dependency engine's bottom maps use since the allocation-free interval-tier
//! rework — adds the reverse transition: after the update it coalesces the touched
//! neighbourhood of the fragmented tier, and if the updated base region has healed into a
//! single fragment exactly matching it, the region is **demoted** back to the exact tier. A
//! region whose accesses go partial-overlap transiently (one sliding stencil pass, say) stops
//! paying the fragmentation tax as soon as its live coverage is pairwise-exact again.

use std::collections::BTreeMap;
use std::ops::Bound::{Excluded, Included};

use smallvec::SmallVec;

use crate::hash::FxHashMap;
use crate::{IntervalMap, RangeUpdate, Region, SpaceId};

/// Which tier served a [`RegionStore`] operation. Returned so callers (the dependency engine)
/// can keep visibility counters without the store owning any statistics.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum StoreTier {
    /// The region matched an exact-tier key (or was empty): O(1), no fragmentation.
    ExactHit,
    /// The region overlapped nothing and was admitted to (or bypassed) the exact tier.
    ExactNew,
    /// The update partially overlapped exact-tier entries, which were promoted to the
    /// fragmented tier first; the update then ran there.
    Promoted,
    /// The update ran on the fragmented tier (its overlaps were already promoted earlier).
    Fragmented,
}

/// A two-tier map from disjoint [`Region`] fragments to values. See the module docs.
///
/// Invariants:
/// * exact-tier keys are pairwise disjoint, and disjoint from the fragmented tier's coverage;
/// * each space's `index` mirrors the exact tier's keys in that space, exactly (one
///   `start → end` entry per key);
/// * a region is promoted out of the exact tier the first time an update partially overlaps it;
///   [`RegionStore::update`] never demotes, [`RegionStore::update_coalescing`] demotes a base
///   region back as soon as it holds exactly one fragment matching it.
#[derive(Debug, Clone)]
pub struct RegionStore<V> {
    exact: FxHashMap<Region, V>,
    spaces: FxHashMap<SpaceId, SpaceTiers<V>>,
}

/// One space's share of a [`RegionStore`] beside the exact tier's values.
#[derive(Debug, Clone)]
struct SpaceTiers<V> {
    /// The exact tier's keys in this space, `start → end`.
    index: BTreeMap<usize, usize>,
    fragmented: IntervalMap<V>,
}

impl<V> Default for SpaceTiers<V> {
    fn default() -> Self {
        SpaceTiers { index: BTreeMap::new(), fragmented: IntervalMap::new() }
    }
}

impl<V> Default for RegionStore<V> {
    fn default() -> Self {
        RegionStore { exact: FxHashMap::default(), spaces: FxHashMap::default() }
    }
}

impl<V> RegionStore<V> {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored fragments across both tiers.
    pub fn len(&self) -> usize {
        self.exact.len() + self.fragmented_len()
    }

    /// `true` if no fragment is stored.
    pub fn is_empty(&self) -> bool {
        self.exact.is_empty() && self.spaces.values().all(|tiers| tiers.fragmented.is_empty())
    }

    /// Number of entries currently held by the exact tier.
    pub fn exact_len(&self) -> usize {
        self.exact.len()
    }

    /// Number of fragments currently held by the fragmented tier.
    pub fn fragmented_len(&self) -> usize {
        self.spaces.values().map(|tiers| tiers.fragmented.len()).sum()
    }

    /// Removes every fragment from both tiers.
    pub fn clear(&mut self) {
        self.exact.clear();
        self.spaces.clear();
    }

    /// Iterates over all stored fragments as `(Region, &value)`. Order is unspecified (the
    /// exact tier is hashed); sort if determinism is needed.
    pub fn iter(&self) -> impl Iterator<Item = (Region, &V)> {
        let fragmented = self.spaces.iter().flat_map(|(&space, tiers)| {
            tiers.fragmented.iter().map(move |(s, e, v)| (Region::new(space, s, e), v))
        });
        self.exact.iter().map(|(&r, v)| (r, v)).chain(fragmented)
    }

    /// Visits all stored fragments overlapping `region`, clipped to it. Exact-tier fragments
    /// are visited before fragmented-tier ones; within a tier, order follows the underlying
    /// container.
    pub fn query(&self, region: &Region, mut f: impl FnMut(Region, &V)) {
        if region.is_empty() {
            return;
        }
        if let Some(value) = self.exact.get(region) {
            // Exact hit: by the disjointness invariant this is the only overlap anywhere.
            f(*region, value);
            return;
        }
        let Some(tiers) = self.spaces.get(&region.space) else { return };
        for (&start, &end) in overlapping(&tiers.index, region) {
            let key = Region::new(region.space, start, end);
            let clipped = key.intersection(region).expect("indexed key overlaps");
            f(clipped, &self.exact[&key]);
        }
        tiers.fragmented.query_range(region.start, region.end, |s, e, v| {
            f(Region::new(region.space, s, e), v)
        });
    }

    /// `true` if at least one stored coordinate of `region` is covered.
    pub fn intersects(&self, region: &Region) -> bool {
        let mut found = false;
        self.query(region, |_, _| found = true);
        found
    }
}

/// The exact-tier keys of `idx` overlapping `region`, as `(&start, &end)` pairs: the (at most
/// one) predecessor straddling `region.start`, then every key starting inside the region.
fn overlapping<'a>(
    idx: &'a BTreeMap<usize, usize>,
    region: &Region,
) -> impl Iterator<Item = (&'a usize, &'a usize)> {
    let straddler = idx
        .range(..=region.start)
        .next_back()
        .filter(|&(_, &end)| end > region.start);
    let inside = idx.range((Excluded(region.start), Included(region.end.saturating_sub(1))));
    straddler.into_iter().chain(inside)
}

impl<V: Clone> RegionStore<V> {
    /// Fragment-and-visit update over `region`, with [`IntervalMap::update_range`] semantics:
    /// the visitor sees every maximal fragment of `region` (stored or gap, clipped) and decides
    /// per fragment. Returns the tier that served the update.
    ///
    /// The fast path — `region` equals an exact-tier key, or overlaps nothing at all — runs
    /// without touching the interval machinery. A partial overlap with exact-tier entries
    /// promotes exactly those entries, then delegates to the fragmented tier.
    pub fn update(
        &mut self,
        region: &Region,
        mut f: impl FnMut(Region, Option<&V>) -> RangeUpdate<V>,
    ) -> StoreTier {
        if region.is_empty() {
            return StoreTier::ExactHit;
        }
        let space = region.space;
        if let Some(value) = self.exact.get_mut(region) {
            match f(*region, Some(value)) {
                RangeUpdate::Keep => {}
                RangeUpdate::Set(new_value) => *value = new_value,
                RangeUpdate::Remove => {
                    self.exact.remove(region);
                    let tiers = self.spaces.get_mut(&space).expect("exact key outside its space");
                    tiers.index.remove(&region.start);
                }
            }
            return StoreTier::ExactHit;
        }
        let tiers = self.spaces.entry(space).or_default();
        let overlaps_exact = overlapping(&tiers.index, region).next().is_some();
        if !overlaps_exact {
            let mut overlaps_fragmented = false;
            tiers.fragmented.query_range(region.start, region.end, |_, _, _| {
                overlaps_fragmented = true
            });
            if !overlaps_fragmented {
                // The whole query is one gap: admit the region to the exact tier if the
                // visitor stores a value.
                if let RangeUpdate::Set(value) = f(*region, None) {
                    self.exact.insert(*region, value);
                    tiers.index.insert(region.start, region.end);
                }
                return StoreTier::ExactNew;
            }
        }
        if overlaps_exact {
            // Move every exact-tier entry overlapping `region` into the fragmented tier. Inline
            // scratch: an update rarely straddles more than a handful of exact keys.
            let keys: SmallVec<[(usize, usize); 8]> =
                overlapping(&tiers.index, region).map(|(&s, &e)| (s, e)).collect();
            for (start, end) in keys {
                tiers.index.remove(&start);
                let value = self
                    .exact
                    .remove(&Region::new(space, start, end))
                    .expect("index names a missing exact entry");
                tiers.fragmented.insert_range(start, end, value);
            }
        }
        tiers.fragmented.update_range(region.start, region.end, |s, e, v| {
            f(Region::new(space, s, e), v)
        });
        if overlaps_exact {
            StoreTier::Promoted
        } else {
            StoreTier::Fragmented
        }
    }

    /// Sets `region` to `value`, overwriting any overlapping fragments.
    pub fn insert(&mut self, region: &Region, value: V) -> StoreTier {
        self.update(region, |_, _| RangeUpdate::Set(value.clone()))
    }
}

impl<V: Clone + PartialEq> RegionStore<V> {
    /// [`RegionStore::update`], plus fragment healing: after a fragmented-tier update the
    /// touched neighbourhood is coalesced, and if the updated base region now holds exactly one
    /// fragment matching it, that fragment is **demoted** back to the exact tier.
    ///
    /// Returns the tier that served the update (same meaning as [`RegionStore::update`] —
    /// `Promoted` / `Fragmented` still report where the update *ran*) and whether a demotion
    /// followed it. Callers keeping promotion/demotion counters get `promotions >= demotions`
    /// for free: every demoted fragment was put in the fragmented tier by an earlier (or this
    /// very) promotion.
    pub fn update_coalescing(
        &mut self,
        region: &Region,
        f: impl FnMut(Region, Option<&V>) -> RangeUpdate<V>,
    ) -> (StoreTier, bool) {
        let tier = self.update(region, f);
        if matches!(tier, StoreTier::ExactHit | StoreTier::ExactNew) {
            return (tier, false);
        }
        let tiers = self.spaces.get_mut(&region.space).expect("fragmented tier of the space");
        tiers.fragmented.coalesce_range(region.start, region.end);
        let Some(value) = tiers.fragmented.take_exact(region.start, region.end) else {
            return (tier, false);
        };
        // The region healed into a single exactly-matching fragment: by tier disjointness
        // nothing else overlaps it, so it is admissible to the exact tier as-is.
        debug_assert!(overlapping(&tiers.index, region).next().is_none());
        self.exact.insert(*region, value);
        tiers.index.insert(region.start, region.end);
        (tier, true)
    }

    /// [`RegionStore::insert`] through the coalescing/demoting path.
    pub fn insert_coalescing(&mut self, region: &Region, value: V) -> (StoreTier, bool) {
        self.update_coalescing(region, |_, _| RangeUpdate::Set(value.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(space: u64, start: usize, end: usize) -> Region {
        Region::new(SpaceId(space), start, end)
    }

    fn sorted_fragments<V: Clone>(store: &RegionStore<V>) -> Vec<(Region, V)> {
        let mut out: Vec<(Region, V)> =
            store.iter().map(|(region, v)| (region, v.clone())).collect();
        out.sort_by_key(|(region, _)| (region.space, region.start));
        out
    }

    #[test]
    fn disjoint_inserts_stay_exact() {
        let mut s = RegionStore::new();
        assert_eq!(s.insert(&r(1, 0, 8), 'a'), StoreTier::ExactNew);
        assert_eq!(s.insert(&r(1, 8, 16), 'b'), StoreTier::ExactNew);
        assert_eq!(s.insert(&r(2, 0, 8), 'c'), StoreTier::ExactNew);
        assert_eq!(s.exact_len(), 3);
        assert_eq!(s.fragmented_len(), 0);
        assert_eq!(
            sorted_fragments(&s),
            vec![(r(1, 0, 8), 'a'), (r(1, 8, 16), 'b'), (r(2, 0, 8), 'c')]
        );
    }

    #[test]
    fn repeated_exact_updates_hit_the_fast_tier() {
        let mut s = RegionStore::new();
        s.insert(&r(1, 0, 8), 0);
        for i in 1..100 {
            assert_eq!(s.insert(&r(1, 0, 8), i), StoreTier::ExactHit);
        }
        assert_eq!(s.exact_len(), 1);
        assert_eq!(sorted_fragments(&s), vec![(r(1, 0, 8), 99)]);
    }

    #[test]
    fn partial_overlap_promotes_only_the_touched_region() {
        let mut s = RegionStore::new();
        s.insert(&r(1, 0, 8), 'a');
        s.insert(&r(1, 8, 16), 'b');
        // Overlaps [0,8) only: that entry is promoted, [8,16) stays exact.
        assert_eq!(s.insert(&r(1, 4, 6), 'c'), StoreTier::Promoted);
        assert_eq!(s.exact_len(), 1);
        assert_eq!(
            sorted_fragments(&s),
            vec![
                (r(1, 0, 4), 'a'),
                (r(1, 4, 6), 'c'),
                (r(1, 6, 8), 'a'),
                (r(1, 8, 16), 'b')
            ]
        );
        // [8,16) continues to hit the exact tier after its neighbour was promoted.
        assert_eq!(s.insert(&r(1, 8, 16), 'd'), StoreTier::ExactHit);
        // Follow-up updates over the promoted range run fragmented (no second promotion).
        assert_eq!(s.insert(&r(1, 0, 4), 'e'), StoreTier::Fragmented);
    }

    #[test]
    fn spanning_update_promotes_every_overlapped_entry() {
        let mut s = RegionStore::new();
        s.insert(&r(1, 0, 8), 'a');
        s.insert(&r(1, 8, 16), 'b');
        s.insert(&r(1, 20, 24), 'c');
        // [4, 22) straddles all three.
        let mut visited = Vec::new();
        let tier = s.update(&r(1, 4, 22), |region, v| {
            visited.push((region, v.copied()));
            RangeUpdate::Keep
        });
        assert_eq!(tier, StoreTier::Promoted);
        assert_eq!(
            visited,
            vec![
                (r(1, 4, 8), Some('a')),
                (r(1, 8, 16), Some('b')),
                (r(1, 16, 20), None),
                (r(1, 20, 22), Some('c')),
            ]
        );
        assert_eq!(s.exact_len(), 0);
    }

    #[test]
    fn update_visits_gap_and_admits_to_exact_tier() {
        let mut s: RegionStore<u32> = RegionStore::new();
        let mut visited = Vec::new();
        let tier = s.update(&r(1, 10, 20), |region, v| {
            visited.push((region, v.copied()));
            RangeUpdate::Set(7)
        });
        assert_eq!(tier, StoreTier::ExactNew);
        assert_eq!(visited, vec![(r(1, 10, 20), None)]);
        assert_eq!(s.exact_len(), 1);
        // Keep on a gap stores nothing.
        let mut s2: RegionStore<u32> = RegionStore::new();
        assert_eq!(s2.update(&r(1, 0, 4), |_, _| RangeUpdate::Keep), StoreTier::ExactNew);
        assert!(s2.is_empty());
    }

    #[test]
    fn remove_on_exact_hit_clears_entry_and_index() {
        let mut s = RegionStore::new();
        s.insert(&r(1, 0, 8), 'a');
        assert_eq!(s.update(&r(1, 0, 8), |_, _| RangeUpdate::Remove), StoreTier::ExactHit);
        assert!(s.is_empty());
        // The index no longer names the removed key: a later overlapping insert is ExactNew.
        assert_eq!(s.insert(&r(1, 4, 12), 'b'), StoreTier::ExactNew);
    }

    #[test]
    fn containment_counts_as_overlap() {
        let mut s = RegionStore::new();
        s.insert(&r(1, 2, 4), 'a');
        // The query strictly contains the stored key. Like `IntervalMap`, the store keeps the
        // update-boundary splits (no automatic coalescing).
        assert_eq!(s.insert(&r(1, 0, 8), 'b'), StoreTier::Promoted);
        assert_eq!(
            sorted_fragments(&s),
            vec![(r(1, 0, 2), 'b'), (r(1, 2, 4), 'b'), (r(1, 4, 8), 'b')]
        );
    }

    #[test]
    fn adjacent_regions_do_not_promote() {
        let mut s = RegionStore::new();
        s.insert(&r(1, 0, 8), 'a');
        assert_eq!(s.insert(&r(1, 8, 16), 'b'), StoreTier::ExactNew);
        assert_eq!(s.exact_len(), 2);
    }

    #[test]
    fn query_visits_both_tiers_clipped() {
        let mut s = RegionStore::new();
        s.insert(&r(1, 0, 8), 'a');
        s.insert(&r(1, 16, 24), 'b');
        s.insert(&r(1, 4, 6), 'c'); // promotes [0,8)
        let mut seen = Vec::new();
        s.query(&r(1, 2, 20), |region, v| seen.push((region, *v)));
        seen.sort_by_key(|(region, _)| region.start);
        assert_eq!(
            seen,
            vec![
                (r(1, 2, 4), 'a'),
                (r(1, 4, 6), 'c'),
                (r(1, 6, 8), 'a'),
                (r(1, 16, 20), 'b')
            ]
        );
        assert!(s.intersects(&r(1, 7, 9)));
        assert!(!s.intersects(&r(1, 8, 16)));
        assert!(!s.intersects(&r(2, 0, 100)));
    }

    #[test]
    fn empty_region_is_a_noop() {
        let mut s: RegionStore<u8> = RegionStore::new();
        assert_eq!(s.update(&r(1, 5, 5), |_, _| panic!("must not visit")), StoreTier::ExactHit);
        s.query(&r(1, 5, 5), |_, _| panic!("must not visit"));
        assert!(s.is_empty());
    }

    #[test]
    fn coalescing_insert_demotes_a_healed_region() {
        let mut s = RegionStore::new();
        s.insert(&r(1, 0, 8), 'a');
        // Partial overlap promotes [0,8) — and the wholesale write over [4,12) immediately
        // coalesces to exactly its own extent, so the *written* region demotes while the
        // [0,4) leftover stays fragmented.
        assert_eq!(s.insert_coalescing(&r(1, 4, 12), 'b'), (StoreTier::Promoted, true));
        assert_eq!(s.exact_len(), 1);
        assert_eq!(s.fragmented_len(), 1);
        // The demoted extent now hits the exact tier again.
        assert_eq!(s.insert_coalescing(&r(1, 4, 12), 'c'), (StoreTier::ExactHit, false));
        // A spanning write re-promotes it, heals the whole span and demotes that.
        let (tier, demoted) = s.insert_coalescing(&r(1, 0, 12), 'd');
        assert_eq!(tier, StoreTier::Promoted);
        assert!(demoted);
        assert_eq!(s.exact_len(), 1);
        assert_eq!(s.fragmented_len(), 0);
        assert_eq!(sorted_fragments(&s), vec![(r(1, 0, 12), 'd')]);
    }

    #[test]
    fn containment_can_promote_and_demote_in_one_update() {
        let mut s = RegionStore::new();
        s.insert(&r(1, 2, 4), 'a');
        // The spanning write promotes [2,4), runs fragmented, coalesces the three equal-valued
        // splits back into [0,8) and demotes it — all in one call.
        let (tier, demoted) = s.insert_coalescing(&r(1, 0, 8), 'b');
        assert_eq!(tier, StoreTier::Promoted);
        assert!(demoted);
        assert_eq!(s.exact_len(), 1);
        assert_eq!(s.fragmented_len(), 0);
        assert_eq!(sorted_fragments(&s), vec![(r(1, 0, 8), 'b')]);
    }

    #[test]
    fn unequal_values_keep_the_remainder_fragmented() {
        let mut s = RegionStore::new();
        s.insert(&r(1, 0, 8), 1u32);
        // The inner write demotes its own extent; the unequal-valued [0,4) / [6,8) remainders
        // cannot heal and stay fragmented.
        assert_eq!(s.insert_coalescing(&r(1, 4, 6), 2), (StoreTier::Promoted, true));
        assert_eq!(s.fragmented_len(), 2);
        assert_eq!(s.exact_len(), 1);
        // A visitor that keeps the distinct values in place heals nothing: no demotion.
        let (tier, demoted) =
            s.update_coalescing(&r(1, 0, 8), |_, _| RangeUpdate::<u32>::Keep);
        assert_eq!(tier, StoreTier::Promoted); // the demoted [4,6) key was promoted back first
        assert!(!demoted);
        // Removing the region through the coalescing path leaves nothing to demote either.
        let (tier, demoted) =
            s.update_coalescing(&r(1, 0, 8), |_, _| RangeUpdate::<u32>::Remove);
        assert_eq!(tier, StoreTier::Fragmented);
        assert!(!demoted);
        assert!(s.is_empty());
    }

    #[test]
    fn demoted_region_promotes_again_on_the_next_partial_overlap() {
        let mut s = RegionStore::new();
        s.insert(&r(1, 0, 8), 'a');
        s.insert_coalescing(&r(1, 4, 12), 'b');
        assert!(s.insert_coalescing(&r(1, 0, 12), 'c').1);
        // Cycle: the healed region fragments again — and the overlapping write itself coalesces
        // to exactly its own extent, so *it* demotes while the remainder stays fragmented.
        assert_eq!(s.insert_coalescing(&r(1, 6, 20), 'd'), (StoreTier::Promoted, true));
        assert_eq!(s.exact_len(), 1);
        assert_eq!(s.fragmented_len(), 1); // the [0,6) leftover of 'c'
        assert!(s.insert_coalescing(&r(1, 0, 20), 'e').1);
        assert_eq!(sorted_fragments(&s), vec![(r(1, 0, 20), 'e')]);
        assert_eq!(s.exact_len(), 1);
    }

    /// Mirrors one `IntervalMap` per space over a mixed update sequence (the unit-level version
    /// of the proptest equivalence suite).
    #[test]
    fn matches_region_map_reference() {
        let updates = [
            (r(1, 0, 10), 1u32),
            (r(1, 10, 20), 2),
            (r(1, 5, 15), 3),
            (r(2, 0, 4), 4),
            (r(1, 0, 30), 5),
            (r(2, 0, 4), 6),
            (r(1, 12, 14), 7),
        ];
        let mut store = RegionStore::new();
        let mut reference = [IntervalMap::new(), IntervalMap::new(), IntervalMap::new()];
        for (region, value) in updates {
            store.insert(&region, value);
            reference[region.space.0 as usize].insert_range(region.start, region.end, value);
        }
        let expected: Vec<(Region, u32)> = (0..reference.len())
            .flat_map(|space| {
                reference[space].iter().map(move |(s, e, v)| (r(space as u64, s, e), *v))
            })
            .collect();
        assert_eq!(sorted_fragments(&store), expected);
    }
}
