//! The retire cascade — the messages and events `DependencyEngine::body_finished` drains after a
//! task ends — allocates only the `Effects` it returns, one allocation per list it fills: its
//! message and event queues are the engine's spare cascade, which the id API's calls lend each
//! other through the id index and which keeps its capacity between calls, and the retired ids
//! it files go to a free list that keeps its capacity too. And registering a weak parent's
//! first child allocates a pinned count, so a container added to that path is measured, and a
//! long chain of readers copies its reader group once per registration. An engine whose
//! payload is not the task id (the runtime parks its task records) keeps its spare cascade
//! the same way, so its cascade allocates what the id engine's does.
//!
//! This binary installs its own counting global allocator. The count is per thread, so the test
//! harness's other threads never disturb a measurement taken around one call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use weakdep_core::{
    normalize_deps, AccessType, Depend, DependencyEngine, NormalizedDep, Region, SpaceId, TaskId,
    WaitMode,
};

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: the allocator may run while the thread's locals are being torn down.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

/// A pass-through allocator that counts allocations and reallocations of the calling thread.
struct ThreadCountingAllocator;

// SAFETY: defers every operation to `System` unchanged; the counter is a thread-local cell
// without a destructor, so counting never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for ThreadCountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: `layout` is forwarded unchanged; the caller upholds `GlobalAlloc::alloc`'s
        // contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `Self::alloc`/`Self::realloc`, which delegate to
        // `System` with the same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        // SAFETY: as for `dealloc`; the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: ThreadCountingAllocator = ThreadCountingAllocator;

/// Heap allocations the calling thread performs in `body_finished(task)` beyond the one each
/// effect list it returns takes for its first entry.
fn finish_allocations<P: 'static>(engine: &DependencyEngine<P>, task: TaskId) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    let effects = engine.body_finished(task).expect("live task");
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    let lists = [effects.ready.capacity(), effects.retired.capacity()]
        .into_iter()
        .filter(|&capacity| capacity > 0)
        .count();
    allocations - lists
}

const BLOCK: usize = 1024;
const CHILDREN: usize = 64;

/// The axpy shape under a weak outer task: `in x[b]` + `inout y[b]` per child, the parent holding
/// `weakinout y[..]` with `weakwait`. Two rounds of children run under the same parent: the first
/// grows the parent domain's slabs and free lists and the engine's, so the second measures
/// the cascade alone. Returns the parent, still running, and the second round's allocations per
/// child `body_finished` beyond its effect lists.
fn child_cascades<P: From<TaskId> + 'static>(engine: &DependencyEngine<P>) -> (TaskId, Vec<usize>) {
    let (x, y) = (SpaceId(1), SpaceId(2));
    let root = engine.register_root();
    let whole = Region::new(y, 0, CHILDREN * BLOCK);
    let (parent, ready) = engine
        .register_task(
            root,
            &[Depend::new(AccessType::WeakInOut, whole)],
            WaitMode::WeakWait,
        )
        .expect("live root");
    assert!(ready);

    let spawn_round = || -> Vec<TaskId> {
        (0..CHILDREN)
            .map(|b| {
                let block = b * BLOCK..(b + 1) * BLOCK;
                let deps = [
                    Depend::new(AccessType::In, Region::new(x, block.start, block.end)),
                    Depend::new(AccessType::InOut, Region::new(y, block.start, block.end)),
                ];
                let (child, ready) = engine
                    .register_task(parent, &deps, WaitMode::None)
                    .expect("live parent");
                assert!(
                    ready,
                    "disjoint children under a weak parent are ready at once"
                );
                child
            })
            .collect()
    };

    // Warm-up round, on this thread: after it the thread holds its cascade queues.
    for child in spawn_round() {
        engine.body_finished(child).expect("live child");
    }
    let measured: Vec<usize> = spawn_round()
        .into_iter()
        .map(|child| finish_allocations(engine, child))
        .collect();
    (parent, measured)
}

#[test]
fn the_retire_cascade_allocates_only_its_effects() {
    let engine = DependencyEngine::new();
    let (parent, measured) = child_cascades(&engine);
    assert!(
        measured.iter().all(|&allocations| allocations == 0),
        "allocations per child body_finished beyond its effects: {measured:?}"
    );

    // The parent's body ends last, on another thread. Its hand-over (`CompleteUp` + `ChildDone`
    // up to the root) allocates for the fragments it carries, but no queue: the spare cascade
    // is the engine's, not the thread's (30 allocations; 33 while each thread lent its own
    // queues and a thread's first cascade grew fresh ones).
    let parent_allocations = std::thread::scope(|s| {
        s.spawn(|| finish_allocations(&engine, parent))
            .join()
            .unwrap()
    });
    assert!(
        parent_allocations > 0,
        "parent body_finished allocated {parent_allocations} beyond its effects"
    );
    assert!(engine.is_deeply_completed(parent));
}

/// Each engine keeps a spare cascade of its own payload type. A payload engine's first
/// cascade grows its queues; from then on it reuses them and allocates exactly what the id
/// engine does.
#[test]
fn a_payload_engine_cascade_allocates_as_the_id_engine_does() {
    let (_, by_id) = child_cascades(&DependencyEngine::new());
    let (_, boxed) = child_cascades(&DependencyEngine::<Box<TaskId>>::default());
    assert_eq!(boxed, by_id, "allocations per child body_finished");
    assert!(
        boxed.iter().all(|&allocations| allocations == 0),
        "{boxed:?}"
    );
}

/// Registering the first child under a `weakwait` parent with one `weakinout` access expands the
/// parent's own-access seed (`ensure_seeded`: the lower half and the bottom-map seed) and, in
/// that lower half, inserts the child's satisfaction edge — besides the child's own node,
/// scheduling record, domain and entry. The id index has room for the child already: it grew
/// while the root, the writer and the parent were registered. (27 allocations while each
/// per-access container was a hash map of per-space interval maps; 20 while the bottom map
/// kept an exact-match hash tier and its ordered key index in front of the interval maps; 16
/// while the lower half also kept a live-child coverage count, now read from the bottom map;
/// 14 while every task also took a slot in one of the 64 stripes of an engine-wide task table,
/// whose stripe grew on the child's first slot.)
#[test]
fn registering_the_first_child_of_a_weak_parent_allocates_a_pinned_count() {
    let y = SpaceId(2);
    let engine = DependencyEngine::new();
    let root = engine.register_root();
    let whole = Region::new(y, 0, CHILDREN * BLOCK);
    // A writer ahead of the parent keeps the parent's access unsatisfied, so the child inherits
    // the pending dependency through a satisfaction edge.
    let writer = [Depend::new(AccessType::InOut, whole)];
    engine
        .register_task(root, &writer, WaitMode::None)
        .expect("live root");
    let weak = [Depend::new(AccessType::WeakInOut, whole)];
    let (parent, _) = engine
        .register_task(root, &weak, WaitMode::WeakWait)
        .expect("live root");
    let deps = normalize_deps(&[Depend::new(AccessType::InOut, Region::new(y, 0, BLOCK))]);

    let before = ALLOCATIONS.with(Cell::get);
    let (_child, ready) = engine
        .register_task_normalized(parent, &deps, WaitMode::None)
        .expect("live parent");
    let allocations = ALLOCATIONS.with(Cell::get) - before;

    assert!(!ready, "the child waits for the writer through its parent");
    assert_eq!(engine.stats().satisfaction_edges, 1);
    assert_eq!(allocations, 13, "allocations registering the first child");
}

/// Registering a Gauss–Seidel tile — five strong accesses: the top, left, centre, right and
/// bottom blocks of a block-major grid — allocates the task's entry and its list of access
/// nodes, once each: the list is built at its final size, and a task with strong accesses only
/// stages no own-access seed. (5 allocations while the node list and a seed list of every
/// access each grew from their inline two to three and then six entries.) Earlier tasks,
/// finished before the measured one, grow the root domain's slabs and bottom map and the
/// thread's list of retired ids.
#[test]
fn registering_a_five_access_child_allocates_its_entry_and_node_list() {
    let grid = SpaceId(3);
    let engine = DependencyEngine::new();
    let root = engine.register_root();
    // A 3 × 3 block-major grid: the tile is block 4, its neighbours blocks 1, 3, 5 and 7.
    let block = |b: usize| Region::new(grid, b * BLOCK, (b + 1) * BLOCK);
    let deps = normalize_deps(&[
        Depend::new(AccessType::In, block(1)),
        Depend::new(AccessType::In, block(3)),
        Depend::new(AccessType::InOut, block(4)),
        Depend::new(AccessType::In, block(5)),
        Depend::new(AccessType::In, block(7)),
    ]);
    assert_eq!(
        deps.len(),
        5,
        "adjacent blocks of different modes stay apart"
    );
    // A writer of the five blocks after each earlier tile starts their reader lists afresh.
    let writer: Vec<NormalizedDep> = deps
        .iter()
        .map(|dep| NormalizedDep {
            is_write: true,
            ..*dep
        })
        .collect();
    for _ in 0..2 {
        for clause in [&deps, &writer] {
            let (task, ready) = engine
                .register_task_normalized(root, clause, WaitMode::None)
                .expect("live root");
            assert!(ready);
            engine.body_finished(task).expect("live child");
        }
    }

    let before = ALLOCATIONS.with(Cell::get);
    let (_tile, ready) = engine
        .register_task_normalized(root, &deps, WaitMode::None)
        .expect("live root");
    let allocations = ALLOCATIONS.with(Cell::get) - before;

    assert!(ready, "the earlier tiles finished");
    assert_eq!(
        allocations, 2,
        "allocations registering a five-access child"
    );
}

/// A long read-only chain under one parent: each reader of one region joins the bottom map's
/// reader group, and every registration copies the group. The copy leaves out the readers that
/// were fully released, so 4 096 readers, each finished before the next registers, keep a
/// group of one (inline, no allocation) and allocate only their entry: 4 102 in all. While
/// finished readers stayed in the group until the next writer, the copy grew with the chain:
/// 8 196 allocations and O(n²) element copies, 45 064 allocations before the vendored
/// `SmallVec::clone` reserved its length once.
#[test]
fn a_long_reader_chain_copies_each_reader_group_once() {
    const READERS: usize = 4096;
    let engine = DependencyEngine::new();
    let root = engine.register_root();
    let deps = normalize_deps(&[Depend::new(
        AccessType::In,
        Region::new(SpaceId(4), 0, BLOCK),
    )]);

    let mut allocations = 0;
    for _ in 0..READERS {
        let before = ALLOCATIONS.with(Cell::get);
        let (reader, ready) = engine
            .register_task_normalized(root, &deps, WaitMode::None)
            .expect("live root");
        allocations += ALLOCATIONS.with(Cell::get) - before;
        assert!(ready, "readers never wait for each other");
        engine.body_finished(reader).expect("live reader");
    }

    assert!(
        allocations <= READERS + 16,
        "{allocations} allocations registering {READERS} readers"
    );
}
