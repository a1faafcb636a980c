//! [`RegionMap`]: the multi-space composition of [`IntervalMap`]s, keyed by [`SpaceId`].
//!
//! This is the container used directly by the dependency engine: bottom maps, per-task declared
//! access maps and coverage counters are all `RegionMap`s over different value types.

use crate::hash::FxHashMap;
use crate::{IntervalMap, RangeUpdate, Region, SpaceId};

/// A map from disjoint [`Region`] fragments (possibly spanning many spaces) to values.
#[derive(Debug, Clone)]
pub struct RegionMap<V> {
    spaces: FxHashMap<SpaceId, IntervalMap<V>>,
}

impl<V> Default for RegionMap<V> {
    fn default() -> Self {
        RegionMap { spaces: FxHashMap::default() }
    }
}

impl<V> RegionMap<V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        RegionMap { spaces: FxHashMap::default() }
    }

    /// Number of stored fragments across all spaces.
    pub fn len(&self) -> usize {
        self.spaces.values().map(IntervalMap::len).sum()
    }

    /// `true` if no fragment is stored.
    pub fn is_empty(&self) -> bool {
        self.spaces.values().all(IntervalMap::is_empty)
    }

    /// Total covered length across all spaces.
    pub fn covered_len(&self) -> usize {
        self.spaces.values().map(IntervalMap::covered_len).sum()
    }

    /// Removes every fragment.
    pub fn clear(&mut self) {
        self.spaces.clear();
    }

    /// Iterates over all fragments as `(Region, &value)` (space order unspecified, fragments
    /// within a space are ordered).
    pub fn iter(&self) -> impl Iterator<Item = (Region, &V)> {
        self.spaces.iter().flat_map(|(&space, m)| {
            m.iter().map(move |(s, e, v)| (Region::new(space, s, e), v))
        })
    }

    /// Visits all stored fragments overlapping `region`, clipped to it.
    pub fn query(&self, region: &Region, mut f: impl FnMut(Region, &V)) {
        if region.is_empty() {
            return;
        }
        if let Some(m) = self.spaces.get(&region.space) {
            m.query_range(region.start, region.end, |s, e, v| {
                f(Region::new(region.space, s, e), v)
            });
        }
    }

    /// Collects all stored fragments overlapping `region`, clipped to it.
    pub fn query_vec(&self, region: &Region) -> Vec<(Region, V)>
    where
        V: Clone,
    {
        let mut out = Vec::new();
        self.query(region, |r, v| out.push((r, v.clone())));
        out
    }

    /// `true` if every coordinate of `region` is covered.
    pub fn covers(&self, region: &Region) -> bool {
        if region.is_empty() {
            return true;
        }
        self.spaces
            .get(&region.space)
            .map(|m| m.covers(region.start, region.end))
            .unwrap_or(false)
    }

    /// `true` if at least one coordinate of `region` is covered.
    pub fn intersects(&self, region: &Region) -> bool {
        let mut found = false;
        self.query(region, |_, _| found = true);
        found
    }

    /// Visits the sub-regions of `region` not covered by any fragment, in ascending order. The
    /// allocation-free form of [`RegionMap::gaps`].
    pub fn for_each_gap(&self, region: &Region, mut f: impl FnMut(Region)) {
        if region.is_empty() {
            return;
        }
        match self.spaces.get(&region.space) {
            Some(m) => m.for_each_gap(region.start, region.end, |s, e| {
                f(Region::new(region.space, s, e))
            }),
            None => f(*region),
        }
    }

    /// Sub-regions of `region` not covered by any fragment.
    pub fn gaps(&self, region: &Region) -> Vec<Region> {
        let mut out = Vec::new();
        self.for_each_gap(region, |r| out.push(r));
        out
    }

    /// The value stored for exactly the fragment `region`, if the map holds that precise
    /// fragment.
    pub fn get_exact(&self, region: &Region) -> Option<&V> {
        self.spaces.get(&region.space)?.get_exact(region.start, region.end)
    }

    /// Removes and returns the value stored for exactly the fragment `region`, if present. A
    /// partial overlap returns `None` and leaves the map untouched. An emptied space keeps its
    /// (empty) interval map so the arena capacity survives for the next insert.
    pub fn take_exact(&mut self, region: &Region) -> Option<V> {
        self.spaces.get_mut(&region.space)?.take_exact(region.start, region.end)
    }
}

impl<V: Clone> RegionMap<V> {
    /// Fragment-and-visit update over `region`; see [`IntervalMap::update_range`].
    pub fn update(
        &mut self,
        region: &Region,
        mut f: impl FnMut(Region, Option<&V>) -> RangeUpdate<V>,
    ) {
        if region.is_empty() {
            return;
        }
        let space = region.space;
        let m = self.spaces.entry(space).or_default();
        m.update_range(region.start, region.end, |s, e, v| {
            f(Region::new(space, s, e), v)
        });
    }

    /// Sets `region` to `value`, overwriting any overlapping fragments.
    pub fn insert(&mut self, region: &Region, value: V) {
        self.update(region, |_, _| RangeUpdate::Set(value.clone()));
    }

    /// Removes every stored fragment of `region` (clipped to it), passing each to the visitor
    /// with its **owned** value. The allocation-free form of [`RegionMap::remove`]: values move
    /// out of the interval arena, cloned only where a straddling entry splits at a boundary.
    /// Emptied spaces keep their interval maps (and arena capacity) for later inserts.
    pub fn drain(&mut self, region: &Region, mut f: impl FnMut(Region, V)) {
        if region.is_empty() {
            return;
        }
        let space = region.space;
        if let Some(m) = self.spaces.get_mut(&space) {
            m.drain_range(region.start, region.end, |s, e, v| {
                f(Region::new(space, s, e), v)
            });
        }
    }

    /// Removes `region`, returning the removed fragments clipped to it.
    pub fn remove(&mut self, region: &Region) -> Vec<(Region, V)> {
        let mut removed = Vec::new();
        self.drain(region, |r, v| removed.push((r, v)));
        removed
    }

    /// Merges adjacent equal-valued fragments in every space.
    pub fn coalesce(&mut self)
    where
        V: PartialEq,
    {
        for m in self.spaces.values_mut() {
            m.coalesce();
        }
    }

    /// Merges adjacent equal-valued fragments only around `region` (see
    /// [`IntervalMap::coalesce_range`]) — the constant-work variant for post-insert cleanup.
    pub fn coalesce_region(&mut self, region: &Region)
    where
        V: PartialEq,
    {
        if let Some(m) = self.spaces.get_mut(&region.space) {
            m.coalesce_range(region.start, region.end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(space: u64, start: usize, end: usize) -> Region {
        Region::new(SpaceId(space), start, end)
    }

    #[test]
    fn insert_query_across_spaces() {
        let mut m = RegionMap::new();
        m.insert(&r(1, 0, 10), 'a');
        m.insert(&r(2, 0, 10), 'b');
        assert_eq!(m.len(), 2);
        assert_eq!(m.query_vec(&r(1, 0, 100)), vec![(r(1, 0, 10), 'a')]);
        assert_eq!(m.query_vec(&r(2, 5, 7)), vec![(r(2, 5, 7), 'b')]);
        assert!(m.query_vec(&r(3, 0, 10)).is_empty());
    }

    #[test]
    fn partial_overlap_fragments() {
        let mut m = RegionMap::new();
        m.insert(&r(1, 0, 100), 1);
        m.insert(&r(1, 40, 60), 2);
        let all: Vec<_> = m.query_vec(&r(1, 0, 100));
        assert_eq!(
            all,
            vec![(r(1, 0, 40), 1), (r(1, 40, 60), 2), (r(1, 60, 100), 1)]
        );
    }

    #[test]
    fn covers_intersects_gaps() {
        let mut m = RegionMap::new();
        m.insert(&r(1, 10, 20), ());
        assert!(m.covers(&r(1, 12, 18)));
        assert!(!m.covers(&r(1, 5, 15)));
        assert!(m.intersects(&r(1, 5, 15)));
        assert!(!m.intersects(&r(1, 0, 10)));
        assert!(!m.intersects(&r(2, 12, 18)));
        assert_eq!(m.gaps(&r(1, 0, 30)), vec![r(1, 0, 10), r(1, 20, 30)]);
        assert_eq!(m.gaps(&r(2, 0, 5)), vec![r(2, 0, 5)]);
    }

    #[test]
    fn remove_cleans_up_empty_spaces() {
        let mut m = RegionMap::new();
        m.insert(&r(1, 0, 10), 'a');
        let removed = m.remove(&r(1, 0, 10));
        assert_eq!(removed, vec![(r(1, 0, 10), 'a')]);
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn update_visits_gaps() {
        let mut m = RegionMap::new();
        m.insert(&r(1, 10, 20), 5);
        let mut seen = Vec::new();
        m.update(&r(1, 0, 30), |reg, v| {
            seen.push((reg, v.copied()));
            RangeUpdate::Keep
        });
        assert_eq!(
            seen,
            vec![
                (r(1, 0, 10), None),
                (r(1, 10, 20), Some(5)),
                (r(1, 20, 30), None)
            ]
        );
    }

    #[test]
    fn covered_len_spans_spaces() {
        let mut m = RegionMap::new();
        m.insert(&r(1, 0, 10), ());
        m.insert(&r(2, 100, 250), ());
        assert_eq!(m.covered_len(), 160);
    }
}
