//! Region arithmetic and interval containers for the `weakdep` dependency engine.
//!
//! The OpenMP extension reproduced by this workspace (Pérez et al., IPDPS 2017) relies on
//! dependencies declared over *data regions* — contiguous byte ranges of an allocation — that may
//! **partially overlap** between a parent task and its subtasks (§VII of the paper). The
//! dependency engine therefore needs containers that can:
//!
//! * fragment a region against a set of previously registered regions,
//! * keep a per-domain *bottom map* from region fragments to their latest accessors, and
//! * track per-fragment state of one declared access: which sub-ranges are still unsatisfied,
//!   unreleased, or armed for early release.
//!
//! This crate provides those containers free of any runtime concerns so they can be tested and
//! property-checked in isolation:
//!
//! * [`Region`] / [`SpaceId`] — a half-open `[start, end)` range inside an address space.
//! * [`IntervalMap`] — an ordered map from disjoint ranges of a *single* space to values, with
//!   fragmentation on update. A declared access is one region in one space, so every
//!   per-access container of the engine is an `IntervalMap` over its access's space: a set is
//!   an `IntervalMap<()>`, a per-fragment record an `IntervalMap` of that record.
//! * [`RegionStore`] — the engine's bottom maps: one `IntervalMap` per space, reporting how
//!   each update met the stored fragments ([`Fit`]). It is the only container spanning several
//!   spaces.
//!
//! The dependency engine serialises mutations under one domain lock, so these types are
//! deliberately not `Sync`-optimised. The store's per-space map uses a crate-private
//! multiply-rotate hasher instead of SipHash: the keys are internal coordinates, never
//! attacker-controlled.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod hash;
mod interval_map;
mod region;
mod store;

pub use interval_map::{Fit, IntervalMap, RangeUpdate};
pub use region::{Region, SpaceId};
pub use store::RegionStore;

/// `IntervalMap<()>` as a region set, driven the way the engine drives `pending_down` and
/// `early_release`: union is `insert_range` + `coalesce_range`, removal is `drain_range`.
#[cfg(test)]
mod set {
    mod tests {
        use crate::IntervalMap;

        fn add(set: &mut IntervalMap<()>, start: usize, end: usize) {
            set.insert_range(start, end, ());
            set.coalesce_range(start, end);
        }

        fn remove(set: &mut IntervalMap<()>, start: usize, end: usize) -> Vec<(usize, usize)> {
            let mut removed = Vec::new();
            set.drain_range(start, end, |s, e, ()| removed.push((s, e)));
            removed
        }

        fn fragments(set: &IntervalMap<()>) -> Vec<(usize, usize)> {
            set.iter().map(|(s, e, ())| (s, e)).collect()
        }

        #[test]
        fn add_remove_roundtrip() {
            let mut s = IntervalMap::new();
            add(&mut s, 0, 100);
            assert!(s.covers(0, 100));
            assert_eq!(s.covered_len(), 100);
            assert_eq!(remove(&mut s, 20, 30), vec![(20, 30)]);
            assert!(!s.covers(0, 100));
            assert!(s.covers(0, 20));
            assert!(s.covers(30, 100));
            assert_eq!(s.covered_len(), 90);
        }

        #[test]
        fn union_coalesces_adjacent_fragments() {
            let mut s = IntervalMap::new();
            add(&mut s, 0, 10);
            add(&mut s, 10, 20);
            assert_eq!(fragments(&s), vec![(0, 20)]);
        }

        #[test]
        fn overlapping_add_is_idempotent() {
            let mut s = IntervalMap::new();
            add(&mut s, 0, 50);
            add(&mut s, 25, 75);
            assert_eq!(s.covered_len(), 75);
            assert_eq!(fragments(&s), vec![(0, 75)]);
        }

        #[test]
        fn intersection_and_missing_parts() {
            let mut s = IntervalMap::new();
            add(&mut s, 10, 20);
            add(&mut s, 40, 50);
            let mut inside = Vec::new();
            s.query_range(0, 100, |st, e, ()| inside.push((st, e)));
            assert_eq!(inside, vec![(10, 20), (40, 50)]);
            let mut missing = Vec::new();
            s.for_each_gap(0, 60, |st, e| missing.push((st, e)));
            assert_eq!(missing, vec![(0, 10), (20, 40), (50, 60)]);
        }

        #[test]
        fn remove_everything_empties_the_set() {
            let mut s = IntervalMap::new();
            add(&mut s, 5, 15);
            remove(&mut s, 0, 20);
            assert!(s.is_empty());
            assert_eq!(s.covered_len(), 0);
        }

        /// Seeding from a list of parts, as `ensure_seeded` seeds `pending_down`.
        #[test]
        fn from_iterator() {
            let mut s = IntervalMap::new();
            for (start, end) in [(0, 5), (5, 10), (20, 30)] {
                add(&mut s, start, end);
            }
            assert_eq!(s.covered_len(), 20);
            assert_eq!(fragments(&s), vec![(0, 10), (20, 30)]);
        }
    }
}

/// `IntervalMap<u32>` as a coverage counter, the update pattern of any per-fragment count:
/// increment sets `count + 1` over the range, decrement sets `count - 1` and removes (and
/// reports) the fragments that reach zero.
#[cfg(test)]
mod coverage {
    mod tests {
        use crate::{IntervalMap, RangeUpdate};

        fn increment(c: &mut IntervalMap<u32>, start: usize, end: usize) {
            c.update_range(start, end, |_, _, count| {
                RangeUpdate::Set(count.map_or(1, |&n| n + 1))
            });
        }

        fn decrement(c: &mut IntervalMap<u32>, start: usize, end: usize) -> Vec<(usize, usize)> {
            let mut zeroed = Vec::new();
            c.update_range(start, end, |s, e, count| match count {
                Some(&n) if n > 1 => RangeUpdate::Set(n - 1),
                Some(_) => {
                    zeroed.push((s, e));
                    RangeUpdate::Remove
                }
                None => RangeUpdate::Keep,
            });
            zeroed
        }

        #[test]
        fn increment_then_decrement_reports_zeroed() {
            let mut c = IntervalMap::new();
            increment(&mut c, 0, 10);
            assert!(c.covers(5, 6));
            assert_eq!(decrement(&mut c, 0, 10), vec![(0, 10)]);
            assert!(c.is_empty());
        }

        #[test]
        fn nested_counts_require_matching_decrements() {
            let mut c = IntervalMap::new();
            increment(&mut c, 0, 10);
            increment(&mut c, 0, 10);
            assert!(decrement(&mut c, 0, 10).is_empty());
            assert_eq!(decrement(&mut c, 0, 10), vec![(0, 10)]);
        }

        #[test]
        fn partial_overlap_counts_fragment_wise() {
            let mut c = IntervalMap::new();
            increment(&mut c, 0, 10);
            increment(&mut c, 5, 15);
            // [0,5): 1, [5,10): 2, [10,15): 1
            assert_eq!(c.covered_len(), 15);
            // Only the count-1 parts drop to zero.
            assert_eq!(decrement(&mut c, 0, 15), vec![(0, 5), (10, 15)]);
            let mut left = Vec::new();
            c.query_range(0, 15, |s, e, &n| left.push((s, e, n)));
            assert_eq!(left, vec![(5, 10, 1)]);
            assert_eq!(decrement(&mut c, 5, 10), vec![(5, 10)]);
            assert!(c.is_empty());
        }

        #[test]
        fn decrement_of_absent_region_is_ignored() {
            let mut c = IntervalMap::new();
            increment(&mut c, 0, 10);
            assert!(decrement(&mut c, 20, 30).is_empty());
            assert_eq!(c.covered_len(), 10);
        }

        #[test]
        fn uncovered_parts() {
            let mut c = IntervalMap::new();
            increment(&mut c, 10, 20);
            let mut uncovered = Vec::new();
            c.for_each_gap(0, 30, |s, e| uncovered.push((s, e)));
            assert_eq!(uncovered, vec![(0, 10), (20, 30)]);
            c.for_each_gap(12, 18, |s, e| panic!("[{s}, {e}) is covered"));
        }
    }
}

/// `IntervalMap` as a value map over one space, and [`RegionStore`] — the one container left
/// that spans spaces.
#[cfg(test)]
mod region_map {
    mod tests {
        use crate::{IntervalMap, RangeUpdate, Region, RegionStore, SpaceId};

        fn r(space: u64, start: usize, end: usize) -> Region {
            Region::new(SpaceId(space), start, end)
        }

        #[test]
        fn insert_query_across_spaces() {
            let mut m = RegionStore::new();
            m.insert(&r(1, 0, 10), 'a');
            m.insert(&r(2, 0, 10), 'b');
            assert_eq!(m.len(), 2);
            let query = |region: Region| {
                let mut hits = Vec::new();
                m.query(&region, |hit, &v| hits.push((hit, v)));
                hits
            };
            assert_eq!(query(r(1, 0, 100)), vec![(r(1, 0, 10), 'a')]);
            assert_eq!(query(r(2, 5, 7)), vec![(r(2, 5, 7), 'b')]);
            assert!(query(r(3, 0, 10)).is_empty());
        }

        #[test]
        fn partial_overlap_fragments() {
            let mut m = IntervalMap::new();
            m.insert_range(0, 100, 1);
            m.insert_range(40, 60, 2);
            let mut all = Vec::new();
            m.query_range(0, 100, |s, e, &v| all.push((s, e, v)));
            assert_eq!(all, vec![(0, 40, 1), (40, 60, 2), (60, 100, 1)]);
        }

        #[test]
        fn covers_intersects_gaps() {
            let mut m = IntervalMap::new();
            m.insert_range(10, 20, ());
            assert!(m.covers(12, 18));
            assert!(!m.covers(5, 15));
            let intersects = |start, end| {
                let mut found = false;
                m.query_range(start, end, |_, _, _| found = true);
                found
            };
            assert!(intersects(5, 15));
            assert!(!intersects(0, 10));
            let mut gaps = Vec::new();
            m.for_each_gap(0, 30, |s, e| gaps.push((s, e)));
            assert_eq!(gaps, vec![(0, 10), (20, 30)]);
        }

        #[test]
        fn remove_cleans_up_empty_spaces() {
            let mut m = IntervalMap::new();
            m.insert_range(0, 10, 'a');
            let mut removed = Vec::new();
            m.drain_range(0, 10, |s, e, v| removed.push((s, e, v)));
            assert_eq!(removed, vec![(0, 10, 'a')]);
            assert!(m.is_empty());
            assert_eq!(m.len(), 0);
        }

        #[test]
        fn update_visits_gaps() {
            let mut m = IntervalMap::new();
            m.insert_range(10, 20, 5);
            let mut seen = Vec::new();
            m.update_range(0, 30, |s, e, v| {
                seen.push((s, e, v.copied()));
                RangeUpdate::Keep
            });
            assert_eq!(seen, vec![(0, 10, None), (10, 20, Some(5)), (20, 30, None)]);
        }
    }
}
