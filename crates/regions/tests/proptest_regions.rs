//! Property-based tests for the region containers.
//!
//! The reference model for every container is a plain per-coordinate representation
//! (`Vec<Option<V>>` / `Vec<bool>` / `Vec<usize>`): slow, but obviously correct. All operations
//! on the real container must agree with the model coordinate by coordinate. `IntervalMap` is
//! also driven as a region set (union, removal), through the closures the dependency engine
//! uses for its per-access sets, and as a coverage counter (increment, decrement to zero).

use proptest::prelude::*;
use weakdep_regions::{IntervalMap, RangeUpdate, Region, SpaceId};

const UNIVERSE: usize = 200;

fn region_strategy() -> impl Strategy<Value = (usize, usize)> {
    (0..UNIVERSE, 0..UNIVERSE).prop_map(|(a, b)| if a <= b { (a, b) } else { (b, a) })
}

#[derive(Debug, Clone)]
enum MapOp {
    Insert(usize, usize, u8),
    Remove(usize, usize),
}

fn map_op_strategy() -> impl Strategy<Value = MapOp> {
    prop_oneof![
        (region_strategy(), any::<u8>()).prop_map(|((s, e), v)| MapOp::Insert(s, e, v)),
        region_strategy().prop_map(|(s, e)| MapOp::Remove(s, e)),
    ]
}

const LARGE_UNIVERSE: usize = 4096;

fn large_range_strategy() -> impl Strategy<Value = (usize, usize)> {
    // Mostly short ranges, like a task's block against a fragmented bottom map; some long ones.
    prop_oneof![
        (0..LARGE_UNIVERSE, 0..64usize),
        (0..LARGE_UNIVERSE, 0..LARGE_UNIVERSE),
    ]
    .prop_map(|(start, len)| (start, (start + len).min(LARGE_UNIVERSE)))
}

#[derive(Debug, Clone)]
enum LargeOp {
    /// `update_range` with per-fragment decisions drawn from the script (see [`decide`]).
    Update(usize, usize, u64),
    Drain(usize, usize),
    Coalesce(usize, usize),
    /// `take_exact` on the `pick`-th stored fragment, or on a near miss of it.
    TakeExact(usize, bool),
    Query(usize, usize),
}

fn large_update_strategy() -> impl Strategy<Value = LargeOp> {
    (large_range_strategy(), any::<u64>())
        .prop_map(|((s, e), script)| LargeOp::Update(s, e, script))
}

fn large_op_strategy() -> impl Strategy<Value = LargeOp> {
    // Updates are listed twice: they are drawn twice as often as each other operation.
    prop_oneof![
        large_update_strategy(),
        large_update_strategy(),
        large_range_strategy().prop_map(|(s, e)| LargeOp::Drain(s, e)),
        large_range_strategy().prop_map(|(s, e)| LargeOp::Coalesce(s, e)),
        (any::<usize>(), any::<bool>()).prop_map(|(pick, shrink)| LargeOp::TakeExact(pick, shrink)),
        large_range_strategy().prop_map(|(s, e)| LargeOp::Query(s, e)),
    ]
}

/// The decision for the fragment starting at `start` under `script`: Keep, Remove, or Set to one
/// of four values (few values, so coalescing finds equal neighbours).
fn decide(script: u64, start: usize) -> RangeUpdate<u8> {
    let h = (script ^ start as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 59;
    match h % 4 {
        0 => RangeUpdate::Keep,
        1 => RangeUpdate::Remove,
        _ => RangeUpdate::Set((h / 4 % 4) as u8),
    }
}

fn fragments(map: &IntervalMap<u8>) -> Vec<(usize, usize, u8)> {
    map.iter().map(|(s, e, v)| (s, e, *v)).collect()
}

/// Fragments are sorted, disjoint and non-empty, and cover exactly the model.
fn check_large_map(map: &IntervalMap<u8>, model: &[Option<u8>]) -> Result<(), TestCaseError> {
    let mut reconstructed = vec![None; model.len()];
    let mut previous_end = 0;
    for (s, e, v) in map.iter() {
        prop_assert!(s < e, "empty fragment [{}, {})", s, e);
        prop_assert!(s >= previous_end, "fragment [{}, {}) overlaps or is out of order", s, e);
        previous_end = e;
        reconstructed[s..e].fill(Some(*v));
    }
    prop_assert!(reconstructed == model, "map and model disagree");
    prop_assert_eq!(map.covered_len(), model.iter().filter(|v| v.is_some()).count());
    Ok(())
}

proptest! {
    /// IntervalMap agrees with a per-coordinate model under arbitrary insert/remove sequences.
    #[test]
    fn interval_map_matches_model(ops in proptest::collection::vec(map_op_strategy(), 0..40)) {
        let mut map: IntervalMap<u8> = IntervalMap::new();
        let mut model: Vec<Option<u8>> = vec![None; UNIVERSE];
        for op in ops {
            match op {
                MapOp::Insert(s, e, v) => {
                    map.insert_range(s, e, v);
                    for slot in &mut model[s..e] { *slot = Some(v); }
                }
                MapOp::Remove(s, e) => {
                    map.drain_range(s, e, |_, _, _| {});
                    for slot in &mut model[s..e] { *slot = None; }
                }
            }
            // Compare coordinate by coordinate.
            let mut reconstructed: Vec<Option<u8>> = vec![None; UNIVERSE];
            for (s, e, v) in map.iter() {
                prop_assert!(s < e, "empty fragment stored");
                prop_assert!(e <= UNIVERSE);
                for slot in &mut reconstructed[s..e] {
                    prop_assert!(slot.is_none(), "overlapping fragments stored");
                    *slot = Some(*v);
                }
            }
            prop_assert_eq!(&reconstructed, &model);
            // covered_len must equal the number of Some coordinates.
            prop_assert_eq!(map.covered_len(), model.iter().filter(|v| v.is_some()).count());
        }
    }

    /// Fragmentation via update_range visits every coordinate of the query exactly once.
    #[test]
    fn update_range_visits_query_exactly_once(
        ops in proptest::collection::vec(map_op_strategy(), 0..20),
        (qs, qe) in region_strategy(),
    ) {
        let mut map: IntervalMap<u8> = IntervalMap::new();
        for op in ops {
            match op {
                MapOp::Insert(s, e, v) => map.insert_range(s, e, v),
                MapOp::Remove(s, e) => map.drain_range(s, e, |_, _, _| {}),
            }
        }
        let mut visited = vec![0u32; UNIVERSE];
        map.update_range(qs, qe, |s, e, _| {
            for slot in &mut visited[s..e] { *slot += 1; }
            RangeUpdate::Keep
        });
        for (i, count) in visited.iter().enumerate() {
            let expected = if i >= qs && i < qe { 1 } else { 0 };
            prop_assert_eq!(*count, expected, "coordinate {} visited {} times", i, count);
        }
    }

    /// `IntervalMap<()>` as a region set — union by `insert_range` + `coalesce_range`, removal
    /// by `drain_range`, as the engine's `pending_down` / `early_release` — agrees with a
    /// boolean per-coordinate model, removal visits exactly the removed coordinates, and
    /// fragments stay disjoint and coalesced.
    #[test]
    fn region_set_matches_model(ops in proptest::collection::vec(
        (any::<bool>(), region_strategy()), 0..40)
    ) {
        let mut set: IntervalMap<()> = IntervalMap::new();
        let mut model = vec![false; UNIVERSE];
        for (add, (s, e)) in ops {
            if add {
                set.insert_range(s, e, ());
                set.coalesce_range(s, e);
                for slot in &mut model[s..e] { *slot = true; }
            } else {
                let mut removed = [false; UNIVERSE];
                set.drain_range(s, e, |fs, fe, ()| removed[fs..fe].fill(true));
                for (i, slot) in model.iter_mut().enumerate() {
                    let expected = (s..e).contains(&i) && std::mem::take(slot);
                    prop_assert_eq!(removed[i], expected, "removed coordinate {}", i);
                }
            }
            let mut reconstructed = vec![false; UNIVERSE];
            let mut prev_end: Option<usize> = None;
            for (fs, fe, ()) in set.iter() {
                prop_assert!(fs < fe);
                if let Some(pe) = prev_end {
                    prop_assert!(fs > pe, "adjacent fragments must be coalesced");
                }
                prev_end = Some(fe);
                for slot in &mut reconstructed[fs..fe] { *slot = true; }
            }
            prop_assert_eq!(&reconstructed, &model);
            prop_assert_eq!(set.covered_len(), model.iter().filter(|&&b| b).count());
        }
    }

    /// `IntervalMap<u32>` as a coverage counter — increment sets `count + 1`, decrement sets
    /// `count - 1` and removes the fragments reaching zero — agrees with a per-coordinate count
    /// model and reports exactly the transitions to zero.
    #[test]
    fn coverage_counter_matches_model(ops in proptest::collection::vec(
        (any::<bool>(), region_strategy()), 0..40)
    ) {
        let mut counter: IntervalMap<u32> = IntervalMap::new();
        let mut model = vec![0usize; UNIVERSE];
        for (inc, (s, e)) in ops {
            if inc {
                counter.update_range(s, e, |_, _, count| {
                    RangeUpdate::Set(count.map_or(1, |&n| n + 1))
                });
                for slot in &mut model[s..e] { *slot += 1; }
            } else {
                let mut zeroed = Vec::new();
                counter.update_range(s, e, |fs, fe, count| match count {
                    Some(&n) if n > 1 => RangeUpdate::Set(n - 1),
                    Some(_) => {
                        zeroed.push((fs, fe));
                        RangeUpdate::Remove
                    }
                    None => RangeUpdate::Keep,
                });
                let mut expected_zeroed = vec![false; UNIVERSE];
                for (i, slot) in model.iter_mut().enumerate().take(e).skip(s) {
                    if *slot > 0 {
                        *slot -= 1;
                        if *slot == 0 {
                            expected_zeroed[i] = true;
                        }
                    }
                }
                let mut got_zeroed = vec![false; UNIVERSE];
                for (fs, fe) in zeroed {
                    for slot in &mut got_zeroed[fs..fe] { *slot = true; }
                }
                prop_assert_eq!(&got_zeroed, &expected_zeroed);
            }
            // Covered length must equal the number of coordinates with non-zero count.
            prop_assert_eq!(counter.covered_len(), model.iter().filter(|&&c| c > 0).count());
        }
    }

    /// Region::subtract never loses or duplicates coordinates.
    #[test]
    fn region_subtract_is_exact((s1, e1) in region_strategy(), (s2, e2) in region_strategy()) {
        let space = SpaceId(1);
        let a = Region::new(space, s1, e1);
        let b = Region::new(space, s2, e2);
        let pieces = a.subtract(&b);
        for i in 0..UNIVERSE {
            let in_a = i >= s1 && i < e1;
            let in_b = i >= s2 && i < e2;
            let in_pieces = pieces.iter().any(|p| p.contains_point(i));
            prop_assert_eq!(in_pieces, in_a && !in_b, "coordinate {}", i);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// IntervalMap at realistic sizes: a 4 096-coordinate universe seeded with a few hundred
    /// fragments, then every range operation against the per-coordinate model.
    #[test]
    fn interval_map_at_realistic_sizes_matches_model(
        seeds in proptest::collection::vec((0..LARGE_UNIVERSE, 1..24usize, 0u8..4), 200..400),
        ops in proptest::collection::vec(large_op_strategy(), 1..60),
    ) {
        let mut map: IntervalMap<u8> = IntervalMap::new();
        let mut model: Vec<Option<u8>> = vec![None; LARGE_UNIVERSE];
        for (start, len, value) in seeds {
            let end = (start + len).min(LARGE_UNIVERSE);
            map.insert_range(start, end, value);
            model[start..end].fill(Some(value));
        }
        check_large_map(&map, &model)?;
        for op in ops {
            match op {
                LargeOp::Update(s, e, script) => {
                    let mut visits: Vec<(usize, usize, Option<u8>)> = Vec::new();
                    map.update_range(s, e, |fs, fe, v| {
                        visits.push((fs, fe, v.copied()));
                        decide(script, fs)
                    });
                    // The visits partition [s, e) into maximal gaps and stored fragments that
                    // agree with the model; then the same decisions are applied to it.
                    let mut cursor = s;
                    let mut previous_gap = false;
                    for &(fs, fe, v) in &visits {
                        prop_assert_eq!(fs, cursor, "visits must tile the query");
                        prop_assert!(fs < fe, "empty visit");
                        prop_assert!(
                            model[fs..fe].iter().all(|m| *m == v),
                            "visit {:?} disagrees with the model", (fs, fe, v)
                        );
                        prop_assert!(!(previous_gap && v.is_none()), "two adjacent gap visits");
                        previous_gap = v.is_none();
                        cursor = fe;
                    }
                    prop_assert_eq!(cursor, e.max(s));
                    for &(fs, fe, _) in &visits {
                        match decide(script, fs) {
                            RangeUpdate::Keep => {}
                            RangeUpdate::Set(x) => model[fs..fe].fill(Some(x)),
                            RangeUpdate::Remove => model[fs..fe].fill(None),
                        }
                    }
                }
                LargeOp::Drain(s, e) => {
                    let mut drained = vec![None; LARGE_UNIVERSE];
                    map.drain_range(s, e, |fs, fe, v| drained[fs..fe].fill(Some(v)));
                    for (i, slot) in model.iter_mut().enumerate() {
                        let expected = if (s..e).contains(&i) { slot.take() } else { None };
                        prop_assert_eq!(drained[i], expected, "drained coordinate {}", i);
                    }
                }
                LargeOp::Coalesce(s, e) => {
                    map.coalesce_range(s, e);
                    let fragments = fragments(&map);
                    // No chain head in the coalesced neighbourhood — from the first fragment
                    // reaching `s` through the last starting at or before `e` — still touches an
                    // equal-valued right neighbour.
                    for pair in fragments.windows(2) {
                        let ((ls, le, lv), (rs, _, rv)) = (pair[0], pair[1]);
                        prop_assert!(
                            !(le == rs && lv == rv && le >= s && ls <= e),
                            "equal neighbours {:?} left around coalesced [{}, {})", pair, s, e
                        );
                    }
                }
                LargeOp::TakeExact(pick, shrink) => {
                    let fragments = fragments(&map);
                    if fragments.is_empty() {
                        continue;
                    }
                    let (fs, fe, v) = fragments[pick % fragments.len()];
                    // Half the time a near miss: one coordinate short at the end.
                    let (s, e) = if shrink && fe - fs > 1 { (fs, fe - 1) } else { (fs, fe) };
                    let expected = (e == fe).then_some(v);
                    prop_assert_eq!(map.get_exact(s, e).copied(), expected);
                    prop_assert_eq!(map.take_exact(s, e), expected);
                    if expected.is_some() {
                        model[s..e].fill(None);
                    }
                }
                LargeOp::Query(s, e) => {
                    let mut seen = vec![None; LARGE_UNIVERSE];
                    map.query_range(s, e, |fs, fe, v| seen[fs..fe].fill(Some(*v)));
                    for (i, m) in model.iter().enumerate() {
                        let expected = if (s..e).contains(&i) { *m } else { None };
                        prop_assert_eq!(seen[i], expected, "queried coordinate {}", i);
                    }
                    let covered = (s..e).all(|i| model[i].is_some());
                    prop_assert_eq!(map.covers(s, e), covered);
                }
            }
            check_large_map(&map, &model)?;
        }
    }
}
