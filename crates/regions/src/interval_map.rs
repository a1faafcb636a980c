//! [`IntervalMap`]: an ordered map from disjoint half-open ranges of a single address space to
//! values, with fragmentation (entry splitting) on update.
//!
//! This is the crate's one interval container: each space of the dependency engine's *bottom
//! maps*, and every per-access map of the engine (fragment state, satisfaction mirror and
//! edges, `release` arming). Updating a range that partially overlaps existing
//! entries splits those entries at the update boundaries, so the caller always observes maximal
//! fragments that are either fully inside one existing entry or fully inside a gap.
//!
//! # Storage
//!
//! The map is a sorted *run* of inline keys plus a slot arena of values:
//!
//! * `run` holds one `Entry { start, end, slot }` per fragment, sorted by start, so a binary
//!   search compares keys in place instead of loading them through an index;
//! * `values` is a slab of `Option<V>` recycled through a free list, so inserting a fragment
//!   shifts 24-byte keys and never moves a value.
//!
//! Every operation does **one** binary search over the run. Range operations go through
//! `carve`, which finds the first overlapping entry, splits a straddler at either end in
//! place and finds the end of the range by a forward scan; [`IntervalMap::update_range`] then
//! rewrites the run in place (overwrite, then drain the slack or insert the surplus), and does
//! not touch the run at all when every visited fragment is kept or overwritten. The practical
//! consequences:
//!
//! * an update allocates **nothing** once the run and arena vectors have grown to the map's
//!   high-water fragment count;
//! * [`IntervalMap::clear`] retains all capacity, so a cleared map (e.g. a recycled fragmented
//!   access-node state in the engine's per-domain pool) performs its next fragmentation cycle
//!   without touching the allocator;
//! * accessors are visitors ([`IntervalMap::for_each_gap`], [`IntervalMap::drain_range`]), so
//!   no read or removal builds a `Vec`.

/// Decision returned by the visitor passed to [`IntervalMap::update_range`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RangeUpdate<V> {
    /// Leave the fragment as it is (existing value stays, gap stays empty).
    Keep,
    /// Set (or replace) the value of the fragment.
    Set(V),
    /// Remove the fragment (no-op for gaps).
    Remove,
}

/// How the range of an [`IntervalMap::update_range`] met the stored fragments. The dependency
/// engine's matching counters classify its bottom-map updates by it.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Fit {
    /// The range split nothing and touched at most one fragment: it matched one stored fragment
    /// exactly or lay inside one gap, so the visitor saw the whole range once.
    Exact,
    /// The range split nothing but spanned several fragments, stored ones or gaps.
    Spanning,
    /// A stored fragment straddled a range boundary and was split there.
    Split,
}

/// One fragment's key: `[start, end)` and the arena slot holding its value.
#[derive(Debug, Clone, Copy)]
struct Entry {
    start: usize,
    end: usize,
    slot: u32,
}

/// An ordered map from disjoint half-open ranges `[start, end)` to values.
///
/// Invariants maintained by every operation:
/// * entries never overlap;
/// * entries are never empty (`start < end`);
/// * `run` is sorted by start (hence by end too) and names exactly the live arena slots;
/// * a slot is live if and only if its value is `Some`.
///
/// Adjacent entries with equal values are *not* automatically coalesced (values are often
/// non-`Eq` containers); use [`IntervalMap::coalesce`] / [`IntervalMap::coalesce_range`] when
/// desired.
#[derive(Debug, Clone)]
pub struct IntervalMap<V> {
    /// Fragment keys ordered by start — the map's sort order, navigated by binary search.
    run: Vec<Entry>,
    /// Value arena. Slots are recycled through `free`; capacity is retained across
    /// [`IntervalMap::clear`].
    values: Vec<Option<V>>,
    /// Free arena slots (their value is `None`).
    free: Vec<u32>,
}

impl<V> Default for IntervalMap<V> {
    fn default() -> Self {
        IntervalMap {
            run: Vec::new(),
            values: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<V> IntervalMap<V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored fragments.
    pub fn len(&self) -> usize {
        self.run.len()
    }

    /// `true` if the map holds no fragments.
    pub fn is_empty(&self) -> bool {
        self.run.is_empty()
    }

    /// Number of arena slots ever allocated (live + free). Under steady-state fragmentation
    /// churn this plateaus at the high-water fragment count — the recycling property the
    /// interval-tier tests assert.
    pub fn arena_capacity(&self) -> usize {
        self.values.len()
    }

    /// Total covered length (sum of fragment lengths).
    pub fn covered_len(&self) -> usize {
        self.run.iter().map(|e| e.end - e.start).sum()
    }

    /// Iterates over all fragments as `(start, end, &value)` in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, &V)> {
        self.run
            .iter()
            .map(|e| (e.start, e.end, self.value(e.slot)))
    }

    /// Removes all fragments. Arena and run capacity is **retained**, so a cleared map performs
    /// its next fragmentation cycle allocation-free.
    pub fn clear(&mut self) {
        self.run.clear();
        self.values.clear();
        self.free.clear();
    }

    /// Run position of the first fragment ending after `pos` — the first one that overlaps
    /// `[pos, ..)`.
    fn first_ending_after(&self, pos: usize) -> usize {
        self.run.partition_point(|e| e.end <= pos)
    }

    /// Run position of the fragment starting exactly at `start`, if any.
    fn position_of_start(&self, start: usize) -> Option<usize> {
        let pos = self.run.partition_point(|e| e.start < start);
        self.run.get(pos).filter(|e| e.start == start).map(|_| pos)
    }

    fn value(&self, slot: u32) -> &V {
        self.values[slot as usize]
            .as_ref()
            .expect("run names a free slot")
    }

    fn alloc(&mut self, value: V) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                debug_assert!(
                    self.values[slot as usize].is_none(),
                    "free list names a live slot"
                );
                self.values[slot as usize] = Some(value);
                slot
            }
            None => {
                let slot = u32::try_from(self.values.len()).expect("interval arena overflow");
                self.values.push(Some(value));
                slot
            }
        }
    }

    /// Returns the slot to the free list, taking its value. The caller removes it from `run`.
    fn free_slot(&mut self, slot: u32) -> V {
        self.free.push(slot);
        self.values[slot as usize]
            .take()
            .expect("double free of an interval slot")
    }

    /// Visits every part of `[start, end)` that overlaps a stored fragment, clipped to the query
    /// range, as `(start, end, &value)`.
    pub fn query_range(&self, start: usize, end: usize, mut f: impl FnMut(usize, usize, &V)) {
        if start >= end {
            return;
        }
        for e in &self.run[self.first_ending_after(start)..] {
            if e.start >= end {
                break;
            }
            f(e.start.max(start), e.end.min(end), self.value(e.slot));
        }
    }

    /// `true` if every coordinate of `[start, end)` is covered by some fragment.
    pub fn covers(&self, start: usize, end: usize) -> bool {
        if start >= end {
            return true;
        }
        let mut cursor = start;
        self.query_range(start, end, |s, e, _| {
            if s == cursor {
                cursor = e;
            }
        });
        cursor >= end
    }

    /// Visits the sub-ranges of `[start, end)` **not** covered by any fragment, in ascending
    /// order.
    pub fn for_each_gap(&self, start: usize, end: usize, mut f: impl FnMut(usize, usize)) {
        if start >= end {
            return;
        }
        let mut cursor = start;
        self.query_range(start, end, |s, e, _| {
            if s > cursor {
                f(cursor, s);
            }
            cursor = cursor.max(e);
        });
        if cursor < end {
            f(cursor, end);
        }
    }

    /// The value stored for exactly the fragment `[start, end)`, if the map holds that precise
    /// fragment (not a larger one containing it).
    pub fn get_exact(&self, start: usize, end: usize) -> Option<&V> {
        if start >= end {
            return None;
        }
        let e = self.run[self.position_of_start(start)?];
        (e.end == end).then(|| self.value(e.slot))
    }

    /// Removes and returns the value stored for exactly the fragment `[start, end)`, if present.
    /// No fragmentation machinery runs: a near-miss (partial overlap) returns `None` and leaves
    /// the map untouched.
    pub fn take_exact(&mut self, start: usize, end: usize) -> Option<V> {
        if start >= end {
            return None;
        }
        let pos = self.position_of_start(start)?;
        let e = self.run[pos];
        if e.end != end {
            return None;
        }
        self.run.remove(pos);
        Some(self.free_slot(e.slot))
    }
}

impl<V: Clone> IntervalMap<V> {
    /// Splits the fragment at run position `pos` at `at`, strictly inside it: the left part
    /// keeps its slot, the right part gets a clone of the value.
    fn split(&mut self, pos: usize, at: usize) {
        let e = self.run[pos];
        debug_assert!(e.start < at && at < e.end);
        let slot = self.alloc(self.value(e.slot).clone());
        self.run[pos].end = at;
        self.run.insert(
            pos + 1,
            Entry {
                start: at,
                end: e.end,
                slot,
            },
        );
    }

    /// Splits the fragments straddling `start` and `end` and returns the run positions
    /// `lo..hi` of the fragments inside `[start, end)` and whether anything was split: one
    /// binary search for `lo`, a forward scan for `hi`.
    fn carve(&mut self, start: usize, end: usize) -> (usize, usize, bool) {
        let mut lo = self.first_ending_after(start);
        let mut split = false;
        if lo < self.run.len() && self.run[lo].start < start {
            self.split(lo, start);
            lo += 1;
            split = true;
        }
        let mut hi = lo;
        while hi < self.run.len() && self.run[hi].start < end {
            hi += 1;
        }
        if hi > lo && self.run[hi - 1].end > end {
            self.split(hi - 1, end);
            split = true;
        }
        (lo, hi, split)
    }

    /// Visits every maximal fragment of `[start, end)` — either fully inside one existing entry
    /// (visited with `Some(&value)`) or fully inside a gap (visited with `None`) — and applies the
    /// decision returned by the visitor.
    ///
    /// Existing entries partially overlapping the query range are split at the range boundaries
    /// first, so decisions never affect coordinates outside `[start, end)`. Returns how the range
    /// met the stored fragments; an empty range is [`Fit::Exact`].
    pub fn update_range(
        &mut self,
        start: usize,
        end: usize,
        mut f: impl FnMut(usize, usize, Option<&V>) -> RangeUpdate<V>,
    ) -> Fit {
        if start >= end {
            return Fit::Exact;
        }
        let (lo, mut hi, split) = self.carve(start, end);
        let mut visits = 0usize;
        // In-place rewrite of `run[lo..hi]`: `run[lo..w]` is the finished replacement,
        // `run[w..pos]` is slack left by removals, `run[pos..hi]` is still to visit. A set gap
        // fills slack when there is some and is inserted (shifting the tail) when there is not;
        // leftover slack is drained at the end. Kept and overwritten entries never move unless
        // slack precedes them.
        let (mut w, mut pos, mut cursor) = (lo, lo, start);
        loop {
            let next = (pos < hi).then(|| self.run[pos]);
            let gap_end = next.map_or(end, |e| e.start);
            if cursor < gap_end {
                visits += 1;
                if let RangeUpdate::Set(value) = f(cursor, gap_end, None) {
                    let entry = Entry {
                        start: cursor,
                        end: gap_end,
                        slot: self.alloc(value),
                    };
                    if w < pos {
                        self.run[w] = entry;
                    } else {
                        self.run.insert(w, entry);
                        pos += 1;
                        hi += 1;
                    }
                    w += 1;
                }
            }
            let Some(e) = next else { break };
            pos += 1;
            cursor = e.end;
            visits += 1;
            match f(e.start, e.end, Some(self.value(e.slot))) {
                RangeUpdate::Keep => {}
                RangeUpdate::Set(value) => self.values[e.slot as usize] = Some(value),
                RangeUpdate::Remove => {
                    self.free_slot(e.slot);
                    continue;
                }
            }
            self.run[w] = e;
            w += 1;
        }
        if w < hi {
            self.run.drain(w..hi);
        }
        match (split, visits) {
            (true, _) => Fit::Split,
            (false, 1) => Fit::Exact,
            (false, _) => Fit::Spanning,
        }
    }

    /// Sets `[start, end)` to `value`, overwriting any overlapping fragments.
    pub fn insert_range(&mut self, start: usize, end: usize, value: V) {
        self.update_range(start, end, |_, _, _| RangeUpdate::Set(value.clone()));
    }

    /// Removes every stored fragment of `[start, end)` (clipped to the range), passing each to
    /// the visitor with its **owned** value: values are moved out of the arena, cloned only when
    /// a straddling entry must be split at a range boundary.
    pub fn drain_range(&mut self, start: usize, end: usize, mut f: impl FnMut(usize, usize, V)) {
        if start >= end {
            return;
        }
        let (lo, hi, _) = self.carve(start, end);
        for pos in lo..hi {
            let e = self.run[pos];
            f(e.start, e.end, self.free_slot(e.slot));
        }
        self.run.drain(lo..hi);
    }

    /// Merges adjacent equal-valued fragments, but only in the neighbourhood of `[start, end)`:
    /// the chain beginning at the entry touching `start` from the left (or the first entry at or
    /// after `start`) through any entry beginning at or before `end`. This is the targeted
    /// variant the engine's region sets and bottom maps use after an insert — a full
    /// [`IntervalMap::coalesce`] walks the whole map on every add. Returns whether any fragments
    /// merged.
    pub fn coalesce_range(&mut self, start: usize, end: usize) -> bool
    where
        V: PartialEq,
    {
        // The chain anchor is the first entry whose extent reaches `start`: a left neighbour
        // ending exactly at `start` can absorb rightwards.
        let anchor = self.run.partition_point(|e| e.end < start);
        self.coalesce_from(anchor, end)
    }

    /// Merges adjacent fragments holding equal values (requires `V: PartialEq`).
    pub fn coalesce(&mut self)
    where
        V: PartialEq,
    {
        self.coalesce_from(0, usize::MAX);
    }

    /// Absorbs equal-valued right neighbours starting at run position `head`, for every chain
    /// head beginning at or before `limit`. Compacts in place and drains the absorbed entries
    /// once, so a long chain costs one pass. Returns whether anything was absorbed.
    fn coalesce_from(&mut self, mut head: usize, limit: usize) -> bool
    where
        V: PartialEq,
    {
        let mut next = head + 1;
        while next < self.run.len() && self.run[head].start <= limit {
            let (cur, right) = (self.run[head], self.run[next]);
            if cur.end == right.start && self.value(cur.slot) == self.value(right.slot) {
                self.free_slot(right.slot);
                self.run[head].end = right.end;
            } else {
                head += 1;
                self.run[head] = right;
            }
            next += 1;
        }
        let merged = head + 1 < next;
        if merged {
            self.run.drain(head + 1..next);
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect<V: Clone>(m: &IntervalMap<V>) -> Vec<(usize, usize, V)> {
        m.iter().map(|(s, e, v)| (s, e, v.clone())).collect()
    }

    fn gaps<V>(m: &IntervalMap<V>, start: usize, end: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        m.for_each_gap(start, end, |s, e| out.push((s, e)));
        out
    }

    fn drain<V: Clone>(m: &mut IntervalMap<V>, start: usize, end: usize) -> Vec<(usize, usize, V)> {
        let mut out = Vec::new();
        m.drain_range(start, end, |s, e, v| out.push((s, e, v)));
        out
    }

    #[test]
    fn insert_into_empty() {
        let mut m = IntervalMap::new();
        m.insert_range(10, 20, 'a');
        assert_eq!(collect(&m), vec![(10, 20, 'a')]);
        assert_eq!(m.covered_len(), 10);
    }

    #[test]
    fn insert_overlapping_splits() {
        let mut m = IntervalMap::new();
        m.insert_range(0, 10, 'a');
        m.insert_range(5, 15, 'b');
        assert_eq!(collect(&m), vec![(0, 5, 'a'), (5, 10, 'b'), (10, 15, 'b')]);
    }

    #[test]
    fn insert_inside_splits_both_sides() {
        let mut m = IntervalMap::new();
        m.insert_range(0, 30, 'a');
        m.insert_range(10, 20, 'b');
        assert_eq!(
            collect(&m),
            vec![(0, 10, 'a'), (10, 20, 'b'), (20, 30, 'a')]
        );
    }

    #[test]
    fn update_visits_gaps_and_entries() {
        let mut m = IntervalMap::new();
        m.insert_range(10, 20, 1);
        m.insert_range(30, 40, 2);
        let mut visited = Vec::new();
        m.update_range(0, 50, |s, e, v| {
            visited.push((s, e, v.copied()));
            RangeUpdate::Keep
        });
        assert_eq!(
            visited,
            vec![
                (0, 10, None),
                (10, 20, Some(1)),
                (20, 30, None),
                (30, 40, Some(2)),
                (40, 50, None)
            ]
        );
    }

    #[test]
    fn update_partial_overlap_only_touches_query_range() {
        let mut m = IntervalMap::new();
        m.insert_range(0, 100, 'a');
        m.update_range(40, 60, |_, _, _| RangeUpdate::Set('b'));
        assert_eq!(
            collect(&m),
            vec![(0, 40, 'a'), (40, 60, 'b'), (60, 100, 'a')]
        );
    }

    /// The in-place rewrite: removals leave slack that later gap-sets fill, gap-sets with no
    /// slack before them shift the tail, and leftover slack is drained.
    #[test]
    fn update_range_mixes_removes_sets_and_gaps() {
        let mut m = IntervalMap::new();
        for (s, v) in [(0, 'a'), (20, 'b'), (40, 'c'), (60, 'd'), (80, 'e')] {
            m.insert_range(s, s + 10, v);
        }
        // Remove 'b' and 'c', set the gaps after them, keep 'd' — covering [15, 75).
        m.update_range(15, 75, |s, _, v| match v {
            Some('b') | Some('c') => RangeUpdate::Remove,
            Some(_) => RangeUpdate::Keep,
            None if s >= 30 => RangeUpdate::Set('x'),
            None => RangeUpdate::Keep,
        });
        assert_eq!(
            collect(&m),
            vec![
                (0, 10, 'a'),
                (30, 40, 'x'),
                (50, 60, 'x'),
                (60, 70, 'd'),
                (70, 75, 'x'),
                (80, 90, 'e')
            ]
        );
        // Every gap set with nothing removed before it: one insert per gap.
        m.update_range(0, 100, |_, _, v| match v {
            None => RangeUpdate::Set('g'),
            Some(_) => RangeUpdate::Keep,
        });
        assert_eq!(m.covered_len(), 100);
        assert_eq!(m.len(), 10);
        // Long equal-valued chain: one pass merges it back.
        m.insert_range(0, 100, 'z');
        m.coalesce();
        assert_eq!(collect(&m), vec![(0, 100, 'z')]);
    }

    #[test]
    fn remove_range_returns_clipped_fragments() {
        let mut m = IntervalMap::new();
        m.insert_range(0, 10, 'a');
        m.insert_range(20, 30, 'b');
        assert_eq!(drain(&mut m, 5, 25), vec![(5, 10, 'a'), (20, 25, 'b')]);
        assert_eq!(collect(&m), vec![(0, 5, 'a'), (25, 30, 'b')]);
        // Draining everything empties the map.
        assert_eq!(drain(&mut m, 0, 30), vec![(0, 5, 'a'), (25, 30, 'b')]);
        assert!(m.is_empty());
        assert_eq!(m.covered_len(), 0);
    }

    #[test]
    fn covers_and_gaps() {
        let mut m = IntervalMap::new();
        m.insert_range(0, 10, ());
        m.insert_range(20, 30, ());
        assert!(m.covers(0, 10));
        assert!(m.covers(2, 8));
        assert!(!m.covers(5, 25));
        assert_eq!(gaps(&m, 0, 40), vec![(10, 20), (30, 40)]);
        assert_eq!(gaps(&m, 5, 25), vec![(10, 20)]);
        assert_eq!(gaps(&m, 12, 18), vec![(12, 18)]);
        assert!(gaps(&m, 2, 8).is_empty());
    }

    #[test]
    fn query_range_clips() {
        let mut m = IntervalMap::new();
        m.insert_range(0, 100, 7);
        let mut seen = Vec::new();
        m.query_range(30, 60, |s, e, v| seen.push((s, e, *v)));
        assert_eq!(seen, vec![(30, 60, 7)]);
    }

    #[test]
    fn coalesce_merges_equal_neighbours() {
        let mut m = IntervalMap::new();
        m.insert_range(0, 10, 'a');
        m.insert_range(10, 20, 'a');
        m.insert_range(20, 30, 'b');
        m.coalesce();
        assert_eq!(collect(&m), vec![(0, 20, 'a'), (20, 30, 'b')]);
    }

    #[test]
    fn coalesce_range_merges_only_the_neighbourhood() {
        let mut m = IntervalMap::new();
        m.insert_range(0, 10, 'a');
        m.insert_range(10, 20, 'a');
        m.insert_range(30, 40, 'a');
        m.insert_range(40, 50, 'a');
        // Coalescing around [10, 20) merges the left pair but not the distant one.
        m.coalesce_range(10, 20);
        assert_eq!(
            collect(&m),
            vec![(0, 20, 'a'), (30, 40, 'a'), (40, 50, 'a')]
        );
        // A left neighbour ending exactly at the range start absorbs rightwards.
        m.insert_range(20, 30, 'a');
        m.coalesce_range(20, 30);
        assert_eq!(collect(&m), vec![(0, 50, 'a')]);
        // Unequal values never merge.
        let mut m = IntervalMap::new();
        m.insert_range(0, 10, 'a');
        m.insert_range(10, 20, 'b');
        m.coalesce_range(10, 20);
        assert_eq!(collect(&m), vec![(0, 10, 'a'), (10, 20, 'b')]);
    }

    #[test]
    fn empty_range_operations_are_noops() {
        let mut m: IntervalMap<u32> = IntervalMap::new();
        m.insert_range(5, 5, 1);
        assert!(m.is_empty());
        m.update_range(10, 10, |_, _, _| panic!("must not be visited"));
        m.drain_range(3, 3, |_, _, _| panic!("must not be visited"));
        assert!(m.covers(4, 4));
    }

    #[test]
    fn covered_len_accounts_for_all_fragments() {
        let mut m = IntervalMap::new();
        m.insert_range(0, 10, 'x');
        m.insert_range(20, 25, 'y');
        assert_eq!(m.covered_len(), 15);
    }

    #[test]
    fn get_and_take_exact_require_the_precise_fragment() {
        let mut m = IntervalMap::new();
        m.insert_range(10, 20, 'a');
        m.insert_range(30, 40, 'b');
        assert_eq!(m.get_exact(10, 20), Some(&'a'));
        assert_eq!(m.get_exact(10, 15), None);
        assert_eq!(m.get_exact(5, 20), None);
        assert_eq!(m.get_exact(30, 40), Some(&'b'));
        assert_eq!(m.take_exact(12, 18), None);
        assert_eq!(m.len(), 2);
        assert_eq!(m.take_exact(10, 20), Some('a'));
        assert_eq!(collect(&m), vec![(30, 40, 'b')]);
    }

    #[test]
    fn drain_range_passes_owned_values() {
        let mut m = IntervalMap::new();
        m.insert_range(0, 10, "left".to_string());
        m.insert_range(20, 30, "right".to_string());
        let mut drained = Vec::new();
        m.drain_range(5, 25, |s, e, v| drained.push((s, e, v)));
        assert_eq!(
            drained,
            vec![(5, 10, "left".to_string()), (20, 25, "right".to_string())]
        );
        assert_eq!(
            collect(&m),
            vec![(0, 5, "left".to_string()), (25, 30, "right".to_string())]
        );
    }

    /// The recycling property the arena exists for: churn (insert + remove cycles) reuses freed
    /// slots instead of growing the arena, so capacity plateaus at the high-water fragment
    /// count.
    #[test]
    fn arena_capacity_plateaus_under_churn() {
        let mut m = IntervalMap::new();
        for round in 0..100 {
            let base = (round % 7) * 10;
            m.insert_range(base, base + 10, round);
            m.insert_range(base + 2, base + 6, round + 1000); // split: 3 fragments
            m.drain_range(base, base + 10, |_, _, _| {});
        }
        assert!(m.is_empty());
        assert!(
            m.arena_capacity() <= 8,
            "arena grew under churn: {} slots",
            m.arena_capacity()
        );
        // `clear` empties the slot vector (the Vec keeps its heap capacity) and the map stays
        // usable.
        m.insert_range(0, 100, 1);
        m.clear();
        m.insert_range(0, 100, 2);
        assert_eq!(m.arena_capacity(), 1);
        assert_eq!(collect(&m), vec![(0, 100, 2)]);
    }
}
