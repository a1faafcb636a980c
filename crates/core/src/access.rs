//! Public dependency-declaration types: access types (including the paper's weak variants),
//! dependency declarations, wait modes and declared-footprint normalisation.

use weakdep_regions::{IntervalMap, RangeUpdate, Region, SpaceId};

/// The access type of a dependency declaration, mirroring the contents of the OpenMP `depend`
/// clause plus the three weak variants proposed in §VI of the paper.
///
/// * `In` / `Out` / `InOut` — the task itself reads / writes / reads-and-writes the region.
/// * `WeakIn` / `WeakOut` / `WeakInOut` — the task does **not** touch the region itself; only its
///   (deeply nested) subtasks may. Weak accesses never defer the task's execution; they only link
///   the task's inner dependency domain to its parent's domain.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum AccessType {
    /// Strong read (`depend(in: ...)`).
    In,
    /// Strong write (`depend(out: ...)`).
    Out,
    /// Strong read-write (`depend(inout: ...)`).
    InOut,
    /// Weak read (`depend(weakin: ...)`).
    WeakIn,
    /// Weak write (`depend(weakout: ...)`).
    WeakOut,
    /// Weak read-write (`depend(weakinout: ...)`).
    WeakInOut,
}

impl AccessType {
    /// `true` for the weak variants (the task does not access the data directly).
    pub fn is_weak(self) -> bool {
        matches!(
            self,
            AccessType::WeakIn | AccessType::WeakOut | AccessType::WeakInOut
        )
    }

    /// `true` if the access type implies a write for dependency-ordering purposes.
    pub fn is_write(self) -> bool {
        matches!(
            self,
            AccessType::Out | AccessType::InOut | AccessType::WeakOut | AccessType::WeakInOut
        )
    }

    /// The strong counterpart of a weak type (identity for strong types).
    pub fn strengthened(self) -> AccessType {
        match self {
            AccessType::WeakIn => AccessType::In,
            AccessType::WeakOut => AccessType::Out,
            AccessType::WeakInOut => AccessType::InOut,
            other => other,
        }
    }

    /// A short human-readable name matching the paper's clause spelling.
    pub fn name(self) -> &'static str {
        match self {
            AccessType::In => "in",
            AccessType::Out => "out",
            AccessType::InOut => "inout",
            AccessType::WeakIn => "weakin",
            AccessType::WeakOut => "weakout",
            AccessType::WeakInOut => "weakinout",
        }
    }
}

/// One entry of a task's `depend` clause: an access type applied to a region.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Depend {
    /// The declared access type.
    pub access: AccessType,
    /// The region the access applies to.
    pub region: Region,
}

impl Depend {
    /// Convenience constructor.
    pub fn new(access: AccessType, region: Region) -> Self {
        Depend { access, region }
    }
}

/// How the end of the task body relates to the completion of its children, per §IV–§V of the
/// paper.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum WaitMode {
    /// Plain OpenMP semantics: the task's dependencies are released when its body finishes,
    /// regardless of still-running children (each child lives in its own isolated domain).
    /// Codes that need ordering across nesting levels must call `taskwait` explicitly.
    #[default]
    None,
    /// The `wait` clause (§IV): a detached taskwait. The body returns (and its stack is
    /// released), but the task only completes — and releases all of its dependencies, at once —
    /// when all of its descendants have completed.
    Wait,
    /// The `weakwait` clause (§V): like `wait`, but dependencies are released *incrementally*:
    /// as soon as the body finishes, every fragment of the task's declared regions that is not
    /// covered by a live child access is released; the remaining fragments are handed over to the
    /// children and released as they finish. Equivalent to merging the task's inner dependency
    /// domain into its parent's.
    WeakWait,
}

/// A normalised dependency declaration: disjoint regions, each with a combined access mode.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct NormalizedDep {
    /// The region (disjoint from all other normalised entries of the same task).
    pub region: Region,
    /// Whether the combined access implies a write.
    pub is_write: bool,
    /// Whether the combined access is weak (only true if *every* overlapping declaration was
    /// weak).
    pub weak: bool,
}

/// Normalises a task's declared dependencies: overlapping declarations are fragmented and
/// combined (write wins over read, strong wins over weak), adjacent regions of equal mode are
/// merged, empty regions are dropped. The result is sorted by `(space, start)`.
///
/// The OpenMP specification leaves overlapping entries of a single `depend` clause undefined;
/// combining them with an upgrade rule is the conservative choice and what the Nanos6 runtime
/// does in practice.
pub fn normalize_deps(deps: &[Depend]) -> Vec<NormalizedDep> {
    normalize_as(deps, 0)
}

/// [`normalize_deps`] into any representation of a normalised entry, with room for `extra`
/// more entries after them: the runtime normalises a task's dependencies straight into its
/// footprint, hints included, in one allocation.
pub(crate) fn normalize_as<T>(deps: &[Depend], extra: usize) -> Vec<T>
where
    T: Copy + From<NormalizedDep> + Into<NormalizedDep>,
{
    let mut out = Vec::with_capacity(deps.len() + extra);
    if !normalize_disjoint(deps, &mut out) {
        normalize_general(deps, &mut out);
    }
    out
}

/// The fast path for the overwhelmingly common declarations: pairwise disjoint, non-empty
/// regions — adjacent ones included, like the left / center / right blocks of a stencil. No
/// fragmentation or combining can occur then, so the interval-map machinery (several
/// allocations per call, on the task-creation hot path) is skipped: the candidate output is
/// written to the empty `out`, sorted, checked pair by pair, and adjacent neighbours of equal
/// mode are merged in place — exactly what the general path's coalescing produces. `false`
/// leaves `out` empty and sends the clause to [`normalize_general`].
fn normalize_disjoint<T>(deps: &[Depend], out: &mut Vec<T>) -> bool
where
    T: Copy + From<NormalizedDep> + Into<NormalizedDep>,
{
    debug_assert!(out.is_empty());
    if deps.is_empty() || deps.iter().any(|d| d.region.is_empty()) {
        return false;
    }
    out.extend(deps.iter().map(|d| {
        T::from(NormalizedDep {
            region: d.region,
            is_write: d.access.is_write(),
            weak: d.access.is_weak(),
        })
    }));
    let dep = |entry: &T| -> NormalizedDep { (*entry).into() };
    out.sort_unstable_by_key(|entry| {
        let region = dep(entry).region;
        (region.space, region.start)
    });
    let disjoint = out.windows(2).all(|pair| {
        let (a, b) = (dep(&pair[0]).region, dep(&pair[1]).region);
        a.space != b.space || a.end <= b.start
    });
    if !disjoint {
        out.clear();
        return false;
    }
    out.dedup_by(|next, prev| {
        let (next, mut merged) = (dep(next), dep(prev));
        let merge = merged.region.space == next.region.space
            && merged.region.end == next.region.start
            && (merged.is_write, merged.weak) == (next.is_write, next.weak);
        if merge {
            merged.region.end = next.region.end;
            *prev = T::from(merged);
        }
        merge
    });
    true
}

/// The general path: fragments and combines the declarations of one space at a time in an
/// interval map, then coalesces equal-mode neighbours, appending to `out`. Spaces are visited
/// in order and each map iterates by start, so the output comes out sorted.
fn normalize_general<T: From<NormalizedDep>>(deps: &[Depend], out: &mut Vec<T>) {
    #[derive(Clone, PartialEq)]
    struct Combined {
        is_write: bool,
        weak: bool,
    }

    let mut spaces: Vec<SpaceId> = deps.iter().map(|d| d.region.space).collect();
    spaces.sort_unstable();
    spaces.dedup();
    let mut map: IntervalMap<Combined> = IntervalMap::new();
    for space in spaces {
        for dep in deps.iter().filter(|d| d.region.space == space) {
            let is_write = dep.access.is_write();
            let weak = dep.access.is_weak();
            map.update_range(
                dep.region.start,
                dep.region.end,
                |_, _, existing| match existing {
                    Some(prev) => RangeUpdate::Set(Combined {
                        is_write: prev.is_write || is_write,
                        weak: prev.weak && weak,
                    }),
                    None => RangeUpdate::Set(Combined { is_write, weak }),
                },
            );
        }
        map.coalesce();
        out.extend(map.iter().map(|(start, end, c)| {
            T::from(NormalizedDep {
                region: Region::new(space, start, end),
                is_write: c.is_write,
                weak: c.weak,
            })
        }));
        map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(start: usize, end: usize) -> Region {
        Region::new(SpaceId(1), start, end)
    }

    /// The general path's output on its own.
    fn general_path(deps: &[Depend]) -> Vec<NormalizedDep> {
        let mut out = Vec::new();
        normalize_general(deps, &mut out);
        out
    }

    #[test]
    fn access_type_predicates() {
        assert!(!AccessType::In.is_weak());
        assert!(!AccessType::In.is_write());
        assert!(AccessType::Out.is_write());
        assert!(AccessType::InOut.is_write());
        assert!(AccessType::WeakIn.is_weak());
        assert!(!AccessType::WeakIn.is_write());
        assert!(AccessType::WeakOut.is_weak());
        assert!(AccessType::WeakOut.is_write());
        assert!(AccessType::WeakInOut.is_weak());
        assert!(AccessType::WeakInOut.is_write());
        assert_eq!(AccessType::WeakInOut.strengthened(), AccessType::InOut);
        assert_eq!(AccessType::In.strengthened(), AccessType::In);
        assert_eq!(AccessType::WeakOut.name(), "weakout");
    }

    #[test]
    fn normalize_disjoint_declarations() {
        let deps = vec![
            Depend::new(AccessType::In, r(0, 10)),
            Depend::new(AccessType::Out, r(20, 30)),
        ];
        let norm = normalize_deps(&deps);
        assert_eq!(
            norm,
            vec![
                NormalizedDep {
                    region: r(0, 10),
                    is_write: false,
                    weak: false
                },
                NormalizedDep {
                    region: r(20, 30),
                    is_write: true,
                    weak: false
                },
            ]
        );
    }

    #[test]
    fn normalize_upgrades_overlaps() {
        // in + weakinout over the same range: the overlap becomes a strong write.
        let deps = vec![
            Depend::new(AccessType::In, r(0, 10)),
            Depend::new(AccessType::WeakInOut, r(5, 15)),
        ];
        let norm = normalize_deps(&deps);
        assert_eq!(
            norm,
            vec![
                NormalizedDep {
                    region: r(0, 5),
                    is_write: false,
                    weak: false
                },
                NormalizedDep {
                    region: r(5, 10),
                    is_write: true,
                    weak: false
                },
                NormalizedDep {
                    region: r(10, 15),
                    is_write: true,
                    weak: true
                },
            ]
        );
    }

    #[test]
    fn normalize_merges_adjacent_equal_entries() {
        let deps = vec![
            Depend::new(AccessType::In, r(0, 10)),
            Depend::new(AccessType::In, r(10, 20)),
        ];
        let norm = normalize_deps(&deps);
        assert_eq!(
            norm,
            vec![NormalizedDep {
                region: r(0, 20),
                is_write: false,
                weak: false
            }]
        );
    }

    #[test]
    fn normalize_long_disjoint_clause_takes_fast_path() {
        // More entries than the historical fast-path bound, deliberately unsorted: the result
        // must be sorted and identical to what the general path would produce.
        let deps: Vec<Depend> = [4usize, 0, 2, 5, 1, 3]
            .iter()
            .map(|&i| Depend::new(AccessType::InOut, r(i * 20, i * 20 + 10)))
            .collect();
        let norm = normalize_deps(&deps);
        assert_eq!(norm.len(), 6);
        for (i, d) in norm.iter().enumerate() {
            assert_eq!(d.region, r(i * 20, i * 20 + 10));
            assert!(d.is_write && !d.weak);
        }
    }

    #[test]
    fn normalize_long_overlapping_clause_still_combines() {
        // Six entries where two overlap: the fast path must reject and the slow path combine.
        let mut deps: Vec<Depend> = (0..5)
            .map(|i| Depend::new(AccessType::In, r(i * 20, i * 20 + 10)))
            .collect();
        deps.push(Depend::new(AccessType::Out, r(5, 25)));
        let norm = normalize_deps(&deps);
        // [0,5) stays read-only; [5,25) combines into one write fragment (upgraded overlaps
        // coalesced with the write-only middle).
        assert!(norm.iter().any(|d| d.region == r(0, 5) && !d.is_write));
        assert!(norm.iter().any(|d| d.region == r(5, 25) && d.is_write));
        // Sorted output, no overlaps.
        for pair in norm.windows(2) {
            assert!(pair[0].region.end <= pair[1].region.start);
        }
    }

    #[test]
    fn normalize_drops_empty_regions() {
        let deps = vec![Depend::new(AccessType::InOut, r(5, 5))];
        assert!(normalize_deps(&deps).is_empty());
    }

    #[test]
    fn weak_only_if_all_weak() {
        let deps = vec![
            Depend::new(AccessType::WeakIn, r(0, 10)),
            Depend::new(AccessType::WeakOut, r(0, 10)),
        ];
        let norm = normalize_deps(&deps);
        assert_eq!(
            norm,
            vec![NormalizedDep {
                region: r(0, 10),
                is_write: true,
                weak: true
            }]
        );
    }

    #[test]
    fn wait_mode_default_is_none() {
        assert_eq!(WaitMode::default(), WaitMode::None);
    }

    const ACCESS_TYPES: [AccessType; 6] = [
        AccessType::In,
        AccessType::Out,
        AccessType::InOut,
        AccessType::WeakIn,
        AccessType::WeakOut,
        AccessType::WeakInOut,
    ];

    /// Random 1–6-entry clauses — adjacent pieces, overlaps, mixed weak/strong modes, a second
    /// space — normalise identically on the fast path (when it accepts) and the general path.
    #[test]
    fn fast_path_agrees_with_the_general_path() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let mut rng = SmallRng::seed_from_u64(0xD15_0147);
        let (mut fast, mut merged, mut second_space) = (0, 0, 0);
        for _ in 0..20_000 {
            let mut deps: Vec<Depend> = Vec::new();
            for _ in 0..rng.gen_range(1..=6usize) {
                let space = SpaceId(if rng.gen_bool(0.2) { 2 } else { 1 });
                let start = match deps.last() {
                    Some(prev) if rng.gen_bool(0.5) => prev.region.end,
                    _ => rng.gen_range(0..60usize),
                };
                let end = start + rng.gen_range(1..10usize);
                let access = ACCESS_TYPES[rng.gen_range(0..ACCESS_TYPES.len())];
                deps.push(Depend::new(access, Region::new(space, start, end)));
            }
            let general = general_path(&deps);
            let mut out: Vec<NormalizedDep> = Vec::new();
            if normalize_disjoint(&deps, &mut out) {
                assert_eq!(out, general, "clause {deps:?}");
                fast += 1;
                merged += usize::from(out.len() < deps.len());
                second_space += usize::from(out.iter().any(|d| d.region.space == SpaceId(2)));
            }
            assert_eq!(normalize_deps(&deps), general, "clause {deps:?}");
        }
        assert!(fast > 2_000, "fast path taken only {fast} times");
        assert!(
            merged > 200,
            "adjacent equal-mode merges drawn only {merged} times"
        );
        assert!(
            second_space > 200,
            "second-space clauses drawn only {second_space} times"
        );
    }

    /// A `gs_wavefront` tile's clause — top / left / center / right / bottom blocks of a
    /// block-major grid, where left, center and right are adjacent — stays on the fast path:
    /// one allocation, the output `Vec`.
    #[test]
    fn a_stencil_clause_allocates_only_its_output() {
        const BLOCK: usize = 4096;
        const BLOCKS_PER_ROW: usize = 8;
        let block = |bi: usize, bj: usize| {
            let first = (bi * BLOCKS_PER_ROW + bj) * BLOCK;
            r(first, first + BLOCK)
        };
        let deps = [
            Depend::new(AccessType::In, block(2, 3)),
            Depend::new(AccessType::In, block(3, 2)),
            Depend::new(AccessType::InOut, block(3, 3)),
            Depend::new(AccessType::In, block(3, 4)),
            Depend::new(AccessType::In, block(4, 3)),
        ];
        let before = counting_alloc::allocations();
        let norm = normalize_deps(&deps);
        let allocations = counting_alloc::allocations() - before;
        assert_eq!(norm, general_path(&deps));
        assert_eq!(norm.len(), 5);
        assert_eq!(
            allocations, 1,
            "heap allocations normalising the stencil clause"
        );
    }
}

/// A pass-through global allocator that counts the calling thread's allocations and
/// reallocations, for this crate's unit tests. Per thread, so concurrently running tests never
/// disturb a measurement taken around one call.
#[cfg(test)]
mod counting_alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    }

    /// Allocations the calling thread has performed so far.
    pub(crate) fn allocations() -> usize {
        ALLOCATIONS.with(Cell::get)
    }

    fn count() {
        // `try_with`: the allocator may run while the thread's locals are being torn down.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }

    struct ThreadCountingAllocator;

    // SAFETY: defers every operation to `System` unchanged; the counter is a thread-local cell
    // without a destructor, so counting never allocates or re-enters the allocator.
    unsafe impl GlobalAlloc for ThreadCountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            count();
            // SAFETY: `layout` is forwarded unchanged; the caller upholds `alloc`'s contract.
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System` through `alloc`/`realloc` with this layout.
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            count();
            // SAFETY: as for `dealloc`; the caller upholds `realloc`'s contract.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static ALLOCATOR: ThreadCountingAllocator = ThreadCountingAllocator;
}
