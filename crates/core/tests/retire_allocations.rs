//! The retire cascade — the messages and events `DependencyEngine::body_finished` drains after a
//! task ends — allocates only the `Effects` it returns: its outbox and event queue are lent by
//! the calling thread and keep their capacity between calls. And registering a weak parent's
//! first child allocates a pinned count, so a container added to that path is measured. An
//! engine whose payload is not the task id (the runtime parks its task records) lends its
//! cascade queues the same way, so its cascade allocates what the id engine's does.
//!
//! This binary installs its own counting global allocator. The count is per thread, so the test
//! harness's other threads never disturb a measurement taken around one call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use weakdep_core::{
    normalize_deps, AccessType, Depend, DependencyEngine, Region, SpaceId, TaskId, WaitMode,
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

/// Heap allocations the calling thread performs in `body_finished(task)`.
fn finish_allocations<P: 'static>(engine: &DependencyEngine<P>, task: TaskId) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    let effects = engine.body_finished(task).expect("live task");
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    drop(effects);
    allocations
}

const BLOCK: usize = 1024;
const CHILDREN: usize = 64;

/// The axpy shape under a weak outer task: `in x[b]` + `inout y[b]` per child, the parent holding
/// `weakinout y[..]` with `weakwait`. Two rounds of children run under the same parent: the first
/// grows the parent domain's slabs and free lists and the task table's, so the second measures
/// the cascade alone. Returns the parent, still running, and the second round's allocations per
/// child `body_finished`.
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
        measured.iter().all(|&allocations| allocations <= 2),
        "allocations per child body_finished: {measured:?}"
    );

    // The parent's body ends last, on a thread that has never run the cascade: its hand-over
    // (`CompleteUp` + `ChildDone` up to the root) grows a fresh outbox and event queue there.
    let parent_allocations = std::thread::scope(|s| {
        s.spawn(|| finish_allocations(&engine, parent))
            .join()
            .unwrap()
    });
    assert!(
        parent_allocations > 2,
        "parent body_finished allocated {parent_allocations}"
    );
    assert!(engine.is_deeply_completed(parent));
}

/// The thread-local cascade queues cannot be generic, so they are lent as a boxed `dyn Any` and
/// downcast to the engine's payload type. On a thread that last ran the id engine, a payload
/// engine's first cascade starts fresh queues; from then on it reuses them and allocates exactly
/// what the id engine does.
#[test]
fn a_payload_engine_cascade_allocates_as_the_id_engine_does() {
    let (_, by_id) = child_cascades(&DependencyEngine::new());
    let (_, boxed) = child_cascades(&DependencyEngine::<Box<TaskId>>::default());
    assert_eq!(boxed, by_id, "allocations per child body_finished");
    assert!(boxed.iter().all(|&allocations| allocations <= 2), "{boxed:?}");
}

/// Registering the first child under a `weakwait` parent with one `weakinout` access expands the
/// parent's own-access seed (`ensure_seeded`: the lower half and the bottom-map seed) and, in
/// that lower half, inserts the child's satisfaction edge — besides the child's own node,
/// scheduling record, domain and table entry. (27 allocations while each per-access container
/// was a hash map of per-space interval maps; 20 while the bottom map kept an exact-match hash
/// tier and its ordered key index in front of the interval maps; 16 while the lower half also
/// kept a live-child coverage count, now read from the bottom map.)
#[test]
fn registering_the_first_child_of_a_weak_parent_allocates_a_pinned_count() {
    let y = SpaceId(2);
    let engine = DependencyEngine::new();
    let root = engine.register_root();
    let whole = Region::new(y, 0, CHILDREN * BLOCK);
    // A writer ahead of the parent keeps the parent's access unsatisfied, so the child inherits
    // the pending dependency through a satisfaction edge.
    let writer = [Depend::new(AccessType::InOut, whole)];
    engine.register_task(root, &writer, WaitMode::None).expect("live root");
    let weak = [Depend::new(AccessType::WeakInOut, whole)];
    let (parent, _) = engine.register_task(root, &weak, WaitMode::WeakWait).expect("live root");
    let deps = normalize_deps(&[Depend::new(AccessType::InOut, Region::new(y, 0, BLOCK))]);

    let before = ALLOCATIONS.with(Cell::get);
    let (_child, ready) = engine
        .register_task_normalized(parent, &deps, WaitMode::None)
        .expect("live parent");
    let allocations = ALLOCATIONS.with(Cell::get) - before;

    assert!(!ready, "the child waits for the writer through its parent");
    assert_eq!(engine.stats().satisfaction_edges, 1);
    assert_eq!(allocations, 14, "allocations registering the first child");
}
