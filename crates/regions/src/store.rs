//! [`RegionStore`]: the dependency engine's bottom map — one [`IntervalMap`] per space.
//!
//! A bottom map sends every region fragment of a dependency domain to its latest accessors.
//! Blocked kernels re-declare the same blocks wave after wave, and their first wave carves its
//! blocks out of the parent's whole-array accesses. Both shapes cost one binary search over
//! the space's sorted run: an update matching a stored fragment exactly is overwritten in
//! place, and a block carved from a larger fragment splits it once (`docs/matching.md` has the
//! design and its measurements).
//!
//! Every update reports its [`Fit`], so the engine keeps its matching counters without the
//! store owning any statistics, and [`RegionStore::update_coalescing`] merges the equal-valued
//! fragments an update leaves behind.

use crate::hash::FxHashMap;
use crate::{Fit, IntervalMap, RangeUpdate, Region, SpaceId};

/// A map from disjoint [`Region`] fragments to values: one [`IntervalMap`] per space.
/// Fragments of one space never overlap; fragments of different spaces are unrelated.
#[derive(Debug, Clone)]
pub struct RegionStore<V> {
    spaces: FxHashMap<SpaceId, IntervalMap<V>>,
}

impl<V> Default for RegionStore<V> {
    fn default() -> Self {
        RegionStore {
            spaces: FxHashMap::default(),
        }
    }
}

impl<V> RegionStore<V> {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored fragments.
    pub fn len(&self) -> usize {
        self.spaces.values().map(IntervalMap::len).sum()
    }

    /// `true` if no fragment is stored.
    pub fn is_empty(&self) -> bool {
        self.spaces.values().all(IntervalMap::is_empty)
    }

    /// Iterates over all stored fragments as `(Region, &value)`: ascending within a space,
    /// spaces in unspecified order (sort if determinism is needed).
    pub fn iter(&self) -> impl Iterator<Item = (Region, &V)> {
        self.spaces.iter().flat_map(|(&space, map)| {
            map.iter()
                .map(move |(s, e, v)| (Region::new(space, s, e), v))
        })
    }

    /// Visits all stored fragments overlapping `region`, clipped to it, in ascending order.
    pub fn query(&self, region: &Region, mut f: impl FnMut(Region, &V)) {
        let Some(map) = self.spaces.get(&region.space) else {
            return;
        };
        map.query_range(region.start, region.end, |s, e, v| {
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

impl<V: Clone> RegionStore<V> {
    /// Fragment-and-visit update over `region`, with [`IntervalMap::update_range`] semantics:
    /// the visitor sees every maximal fragment of `region` (stored or gap, clipped) and decides
    /// per fragment. Returns how `region` met the stored fragments.
    pub fn update(
        &mut self,
        region: &Region,
        mut f: impl FnMut(Region, Option<&V>) -> RangeUpdate<V>,
    ) -> Fit {
        if region.is_empty() {
            return Fit::Exact;
        }
        let space = region.space;
        self.spaces
            .entry(space)
            .or_default()
            .update_range(region.start, region.end, |s, e, v| {
                f(Region::new(space, s, e), v)
            })
    }

    /// Sets `region` to `value`, overwriting any overlapping fragments.
    pub fn insert(&mut self, region: &Region, value: V) -> Fit {
        self.update(region, |_, _| RangeUpdate::Set(value.clone()))
    }
}

impl<V: Clone + PartialEq> RegionStore<V> {
    /// [`RegionStore::update`], then — unless the update was [`Fit::Exact`], which leaves one
    /// fragment where there was one — merges the equal-valued neighbours in the touched
    /// neighbourhood, so a region a write carved up heals back into one fragment. Returns the
    /// update's fit and whether any fragments merged.
    pub fn update_coalescing(
        &mut self,
        region: &Region,
        f: impl FnMut(Region, Option<&V>) -> RangeUpdate<V>,
    ) -> (Fit, bool) {
        let fit = self.update(region, f);
        if fit == Fit::Exact {
            return (fit, false);
        }
        let map = self
            .spaces
            .get_mut(&region.space)
            .expect("an update creates its space");
        (fit, map.coalesce_range(region.start, region.end))
    }

    /// [`RegionStore::insert`] through [`RegionStore::update_coalescing`].
    pub fn insert_coalescing(&mut self, region: &Region, value: V) -> (Fit, bool) {
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
        let mut out: Vec<(Region, V)> = store
            .iter()
            .map(|(region, v)| (region, v.clone()))
            .collect();
        out.sort_by_key(|(region, _)| (region.space, region.start));
        out
    }

    #[test]
    fn disjoint_inserts_stay_exact() {
        let mut s = RegionStore::new();
        assert_eq!(s.insert(&r(1, 0, 8), 'a'), Fit::Exact);
        assert_eq!(s.insert(&r(1, 8, 16), 'b'), Fit::Exact);
        assert_eq!(s.insert(&r(2, 0, 8), 'c'), Fit::Exact);
        assert_eq!(s.len(), 3);
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
            assert_eq!(s.insert(&r(1, 0, 8), i), Fit::Exact);
        }
        assert_eq!(s.len(), 1);
        assert_eq!(sorted_fragments(&s), vec![(r(1, 0, 8), 99)]);
    }

    #[test]
    fn partial_overlap_promotes_only_the_touched_region() {
        let mut s = RegionStore::new();
        s.insert(&r(1, 0, 8), 'a');
        s.insert(&r(1, 8, 16), 'b');
        // Strictly inside [0,8): that fragment splits in three, [8,16) is untouched.
        assert_eq!(s.insert(&r(1, 4, 6), 'c'), Fit::Split);
        assert_eq!(
            sorted_fragments(&s),
            vec![
                (r(1, 0, 4), 'a'),
                (r(1, 4, 6), 'c'),
                (r(1, 6, 8), 'a'),
                (r(1, 8, 16), 'b')
            ]
        );
        // [8,16) still matches exactly after its neighbour split, and so do the split parts.
        assert_eq!(s.insert(&r(1, 8, 16), 'd'), Fit::Exact);
        assert_eq!(s.insert(&r(1, 0, 4), 'e'), Fit::Exact);
    }

    #[test]
    fn spanning_update_promotes_every_overlapped_entry() {
        let mut s = RegionStore::new();
        s.insert(&r(1, 0, 8), 'a');
        s.insert(&r(1, 8, 16), 'b');
        s.insert(&r(1, 20, 24), 'c');
        // [4, 22) straddles all three and splits the two at its ends.
        let mut visited = Vec::new();
        let fit = s.update(&r(1, 4, 22), |region, v| {
            visited.push((region, v.copied()));
            RangeUpdate::Keep
        });
        assert_eq!(fit, Fit::Split);
        assert_eq!(
            visited,
            vec![
                (r(1, 4, 8), Some('a')),
                (r(1, 8, 16), Some('b')),
                (r(1, 16, 20), None),
                (r(1, 20, 22), Some('c')),
            ]
        );
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn update_visits_gap_and_admits_to_exact_tier() {
        let mut s: RegionStore<u32> = RegionStore::new();
        let mut visited = Vec::new();
        let fit = s.update(&r(1, 10, 20), |region, v| {
            visited.push((region, v.copied()));
            RangeUpdate::Set(7)
        });
        assert_eq!(fit, Fit::Exact);
        assert_eq!(visited, vec![(r(1, 10, 20), None)]);
        assert_eq!(s.len(), 1);
        // Keep on a gap stores nothing.
        let mut s2: RegionStore<u32> = RegionStore::new();
        assert_eq!(s2.update(&r(1, 0, 4), |_, _| RangeUpdate::Keep), Fit::Exact);
        assert!(s2.is_empty());
    }

    #[test]
    fn remove_on_exact_hit_clears_entry_and_index() {
        let mut s = RegionStore::new();
        s.insert(&r(1, 0, 8), 'a');
        assert_eq!(
            s.update(&r(1, 0, 8), |_, _| RangeUpdate::Remove),
            Fit::Exact
        );
        assert!(s.is_empty());
        // Nothing of the removed fragment is left: a later overlapping insert lands in one gap.
        assert_eq!(s.insert(&r(1, 4, 12), 'b'), Fit::Exact);
    }

    #[test]
    fn containment_counts_as_overlap() {
        let mut s = RegionStore::new();
        s.insert(&r(1, 2, 4), 'a');
        // The update strictly contains the stored fragment: nothing splits, but it spans three
        // fragments. Like `IntervalMap`, `update` keeps the visit boundaries (no coalescing).
        assert_eq!(s.insert(&r(1, 0, 8), 'b'), Fit::Spanning);
        assert_eq!(
            sorted_fragments(&s),
            vec![(r(1, 0, 2), 'b'), (r(1, 2, 4), 'b'), (r(1, 4, 8), 'b')]
        );
    }

    #[test]
    fn adjacent_regions_do_not_promote() {
        let mut s = RegionStore::new();
        s.insert(&r(1, 0, 8), 'a');
        assert_eq!(s.insert(&r(1, 8, 16), 'b'), Fit::Exact);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn query_visits_both_tiers_clipped() {
        let mut s = RegionStore::new();
        s.insert(&r(1, 0, 8), 'a');
        s.insert(&r(1, 16, 24), 'b');
        s.insert(&r(1, 4, 6), 'c'); // splits [0,8)
        let mut seen = Vec::new();
        s.query(&r(1, 2, 20), |region, v| seen.push((region, *v)));
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
        assert_eq!(
            s.update(&r(1, 5, 5), |_, _| panic!("must not visit")),
            Fit::Exact
        );
        s.query(&r(1, 5, 5), |_, _| panic!("must not visit"));
        assert!(s.is_empty());
    }

    #[test]
    fn coalescing_insert_demotes_a_healed_region() {
        let mut s = RegionStore::new();
        s.insert(&r(1, 0, 8), 'a');
        // The write over [4,12) splits [0,8) and fills the gap [8,12): both parts hold 'b'
        // and merge, leaving the written region one fragment beside the [0,4) leftover.
        assert_eq!(s.insert_coalescing(&r(1, 4, 12), 'b'), (Fit::Split, true));
        assert_eq!(
            sorted_fragments(&s),
            vec![(r(1, 0, 4), 'a'), (r(1, 4, 12), 'b')]
        );
        // The healed extent matches exactly again, and an exact update merges nothing.
        assert_eq!(s.insert_coalescing(&r(1, 4, 12), 'c'), (Fit::Exact, false));
        // A write over both fragments spans them without splitting and heals the whole span.
        assert_eq!(
            s.insert_coalescing(&r(1, 0, 12), 'd'),
            (Fit::Spanning, true)
        );
        assert_eq!(sorted_fragments(&s), vec![(r(1, 0, 12), 'd')]);
    }

    #[test]
    fn containment_can_promote_and_demote_in_one_update() {
        let mut s = RegionStore::new();
        s.insert(&r(1, 2, 4), 'a');
        // The containing write visits three fragments and coalesces them back into [0,8).
        assert_eq!(s.insert_coalescing(&r(1, 0, 8), 'b'), (Fit::Spanning, true));
        assert_eq!(sorted_fragments(&s), vec![(r(1, 0, 8), 'b')]);
    }

    #[test]
    fn unequal_values_keep_the_remainder_fragmented() {
        let mut s = RegionStore::new();
        s.insert(&r(1, 0, 8), 1u32);
        // The inner write splits [0,8); the unequal-valued [0,4) / [6,8) remainders cannot
        // merge with it.
        assert_eq!(s.insert_coalescing(&r(1, 4, 6), 2), (Fit::Split, false));
        assert_eq!(s.len(), 3);
        // A visitor that keeps the distinct values in place heals nothing.
        let fit = s.update_coalescing(&r(1, 0, 8), |_, _| RangeUpdate::<u32>::Keep);
        assert_eq!(fit, (Fit::Spanning, false));
        // Removing the region through the coalescing path leaves nothing to merge either.
        let fit = s.update_coalescing(&r(1, 0, 8), |_, _| RangeUpdate::<u32>::Remove);
        assert_eq!(fit, (Fit::Spanning, false));
        assert!(s.is_empty());
    }

    #[test]
    fn demoted_region_promotes_again_on_the_next_partial_overlap() {
        let mut s = RegionStore::new();
        s.insert(&r(1, 0, 8), 'a');
        s.insert_coalescing(&r(1, 4, 12), 'b');
        assert!(s.insert_coalescing(&r(1, 0, 12), 'c').1);
        // Cycle: the healed region splits again, and the overlapping write heals its own
        // extent while the [0,6) remainder of 'c' stays apart.
        assert_eq!(s.insert_coalescing(&r(1, 6, 20), 'd'), (Fit::Split, true));
        assert_eq!(
            sorted_fragments(&s),
            vec![(r(1, 0, 6), 'c'), (r(1, 6, 20), 'd')]
        );
        assert!(s.insert_coalescing(&r(1, 0, 20), 'e').1);
        assert_eq!(sorted_fragments(&s), vec![(r(1, 0, 20), 'e')]);
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
                reference[space]
                    .iter()
                    .map(move |(s, e, v)| (r(space as u64, s, e), *v))
            })
            .collect();
        assert_eq!(sorted_fragments(&store), expected);
    }
}
