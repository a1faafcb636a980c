//! The dependency engine: nested dependency domains, weak accesses, and the fine-grained
//! (per-fragment) release of dependencies across nesting levels.
//!
//! This module is the heart of the reproduction. Since the lock-sharding refactor it is no
//! longer a single-threaded state machine behind one runtime mutex: the engine is internally
//! concurrent, with **one lock per dependency domain** (one domain per task, governing that
//! task's children). The hot-path operations each take exactly one domain lock:
//!
//! * [`DependencyEngine::register_task`] / [`DependencyEngine::register_batch`] — lock only the
//!   *parent's* domain (batch registration amortises that acquisition over N siblings);
//! * [`DependencyEngine::body_finished`] — lock the finishing task's own domain;
//! * [`DependencyEngine::release_region`] — lock the releasing task's own domain.
//!
//! Cross-domain propagation (satisfaction flowing *down* into nested domains, completion and
//! deep-completion flowing *up*) is expressed as a small message protocol ([`Message`]) between
//! domains instead of mutations under a shared lock. Messages are drained by whichever thread
//! produced them, after releasing the lock that produced them, holding at most one domain lock
//! at a time and no other lock while it holds one — see `docs/locking.md` for the no-deadlock
//! argument.
//!
//! # Model
//!
//! Every task owns a *dependency domain* for its children, represented by a **bottom map**:
//! `region fragment → latest accessor group` (a writer, or the group of readers since the last
//! writer). A task's own declared accesses are seeded into its bottom map, so a child access that
//! finds no earlier sibling naturally links to the parent's access — this is how the outer domain
//! reaches into the inner one (§VI).
//!
//! Every declared access tracks three per-fragment state sets:
//!
//! * `unsatisfied` — fragments whose predecessor has not yet produced the data;
//! * `uncompleted` — fragments the task (or its live children) may still access;
//! * `unreleased`  — fragments not yet handed to successors.
//!
//! A fragment is **released** exactly when it is both satisfied and completed. Releasing a
//! fragment satisfies successor accesses in the same domain (release edges). Becoming satisfied
//! is additionally forwarded *downwards* to child accesses that inherited the dependency through
//! the parent's access (satisfaction edges) — that is the §VI propagation of dependencies into
//! the inner domain. Completion policy depends on the wait mode:
//!
//! * [`WaitMode::None`]: all fragments complete when the body finishes (OpenMP default);
//! * [`WaitMode::Wait`]: all fragments complete when the task *deeply* completes (§IV);
//! * [`WaitMode::WeakWait`]: fragments complete as soon as the body has finished **and** no live
//!   child access covers them; the rest complete as children release them (§V). The parts the
//!   children of one visit to the domain release leave together, as one completion per access
//!   and maximal range (see [`Cascade`]).
//!
//! The `release` directive arms selected fragments for early completion regardless of the wait
//! mode.
//!
//! Readiness: a task becomes ready when every **strong** access is fully satisfied; weak accesses
//! never defer the task (§VI), they only link domains.
//!
//! # Data placement
//!
//! The state of one declared access is split across two domains, matching who mutates it:
//!
//! * the **node half** ([`AccessNode`]) lives in the domain the access is registered in (its
//!   task's parent's domain): `unsatisfied`/`uncompleted`/`unreleased`, same-domain release
//!   edges. The task's readiness bookkeeping sits beside its nodes there, in one
//!   [`ChildSched`] record per task, which also holds the task's payload (the runtime's task
//!   record) until the task turns ready — readiness is decided under that same lock, so it
//!   moves the payload out on the spot and nothing else keeps a second copy of the task;
//! * the **lower half** ([`OwnAccess`]) lives in the task's own domain, where *its* children
//!   link against it: the `pending_down` satisfaction mirror (weak accesses only: a strong one
//!   is satisfied before the body that registers children starts), downward satisfaction edges
//!   and `release`-directive state. Which parts live children still cover is not stored: the
//!   bottom map answers it ([`Domain::uncovered_parts`]).
//!
//! Access nodes and per-child scheduling records — the bulky, per-dependency state — are
//! slab-allocated inside each domain and recycled (guarded by slot generations) once the owning
//! task has deeply completed and the access is fully released. Task ids are recycled one level
//! up: a task is **retired** — its id reported in [`Effects::retired`], which the drain files
//! for reuse with a bumped generation — the moment its scheduling record in the parent's
//! domain is reclaimed (deep completion *and* full release of every declared access); roots
//! retire at deep completion. A [`TaskId`] held past retirement is detected ([`StaleTaskId`])
//! instead of aliasing a younger task that reuses the index.
//!
//! # Two ways in
//!
//! A task is reached through its entry, which the scheduling record in its parent's domain
//! holds until the task retires (a root's registrant holds a root). The runtime keeps no
//! id → entry map: each task record holds its task's entry and reaches the engine through it.
//! Every [`TaskId`] function resolves its id through the id index, which only the id API's own
//! registrations fill, and then runs the entry-based code.
//!
//! A finish or a release drains a [`Cascade`] (message and event queues, and the hand-overs held
//! while a domain is locked) that the caller owns and keeps, empty, for its next call: the
//! runtime in each thread's worker state, the [`TaskId`] functions in the id index. The engine
//! keeps no thread-local state.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;
use smallvec::{smallvec, SmallVec};
use weakdep_regions::{Fit, IntervalMap, RangeUpdate, Region, RegionStore};
use weakdep_threadpool::{thread_slot, Striped, THREAD_SLOTS};

use crate::access::{normalize_deps, Depend, NormalizedDep, WaitMode};
use crate::home_bin::HomeBin;

/// Identifier of a task inside the engine (and the runtime).
///
/// Ids are *generational*: the `index` is dense and **recycled** once the task is retired
/// (deeply completed, every access fully released, all bookkeeping in the parent's domain
/// reclaimed), and each reuse bumps the `generation`. A `TaskId` held past its task's
/// retirement is therefore detectable: the query API returns a defined [`StaleTaskId`] error
/// for it instead of reporting the state of whichever younger task now uses the index.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TaskId {
    index: u32,
    generation: u32,
}

impl TaskId {
    /// The dense index of the id. Unique among *live* tasks only — retired tasks' indexes are
    /// reused (with a different [`TaskId::generation`]).
    pub fn index(self) -> usize {
        self.index as usize
    }

    /// The generation this id was minted with.
    pub fn generation(self) -> u32 {
        self.generation
    }

    /// Fabricates an id for observer tests and imported traces. Synthetic ids carry the
    /// reserved generation [`TaskId::SYNTHETIC_GENERATION`], which no engine ever mints (indexes
    /// are permanently retired before reaching it), so they are guaranteed to be stale handles
    /// into any live engine — they can never alias a real task.
    pub fn synthetic(index: usize) -> TaskId {
        TaskId {
            index: u32::try_from(index).expect("synthetic task index overflow"),
            generation: Self::SYNTHETIC_GENERATION,
        }
    }

    /// The generation reserved for [`TaskId::synthetic`] ids. [`DependencyEngine`] stops
    /// recycling an index whose generation would reach this value (leaking one index per
    /// `u32::MAX` reuses of the same index — unreachable in practice, and the price of making
    /// generation wrap-around aliasing impossible).
    pub const SYNTHETIC_GENERATION: u32 = u32::MAX;
}

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{}g{}", self.index, self.generation)
    }
}

/// Error returned by the `try_*` query API for a [`TaskId`] this engine does not currently
/// track through its id index: either the task was retired (which implies it deeply completed)
/// or the id was never issued by this engine's id API.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct StaleTaskId(pub TaskId);

impl std::fmt::Display for StaleTaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stale task id {} (task retired, or id from another engine)",
            self.0
        )
    }
}

impl std::error::Error for StaleTaskId {}

/// Effects of an engine transition that the runtime must act upon.
///
/// Effects are accumulated while domain locks are held but **returned** to the caller, which
/// dispatches them (pushing ready tasks to the pool, waking waiters) after every lock has been
/// released — the out-of-lock dispatch half of the sharding design.
#[derive(Debug)]
pub struct Effects<P = TaskId> {
    /// The payloads of the tasks that became ready to execute (all strong accesses satisfied),
    /// in the order their last dependency was released — each task's id, for the public
    /// registration API. The runtime schedules the first one onto the releasing worker's
    /// immediate-successor slot (the locality policy of §VIII-A).
    pub ready: Vec<P>,
    /// How many tasks became *deeply complete* (body finished and all descendants deeply
    /// complete); [`DependencyEngine::is_deeply_completed`] answers for one task.
    pub deeply_completed: usize,
    /// Some task's **last live child** deeply completed while the task's own body was still
    /// running — exactly the condition a `taskwait` in that body blocks on. Reported apart from
    /// `deeply_completed` so the runtime only takes its completion-wake path when a waiter's
    /// predicate can actually have flipped, not once per task retirement.
    pub taskwaits_unblocked: bool,
    /// A root task deeply completed — the condition `Runtime::run` blocks on.
    pub root_completed: bool,
    /// Tasks retired: their last bookkeeping in the parent's domain was reclaimed (a root's at
    /// deep completion). Their ids are filed for reuse after every lock is released (the id
    /// API has filed them before it returns).
    pub retired: Vec<TaskId>,
}

impl<P> Default for Effects<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P> Effects<P> {
    /// No effects (no allocation until the first ready or retired task).
    pub(crate) const fn new() -> Self {
        Effects {
            ready: Vec::new(),
            deeply_completed: 0,
            taskwaits_unblocked: false,
            root_completed: false,
            retired: Vec::new(),
        }
    }

    /// `true` if the transition had no externally visible effect.
    pub fn is_empty(&self) -> bool {
        self.ready.is_empty()
            && self.deeply_completed == 0
            && !self.taskwaits_unblocked
            && !self.root_completed
            && self.retired.is_empty()
    }
}

/// Aggregate counters describing the work the engine has performed.
#[derive(Debug, Default, Clone)]
pub struct EngineStats {
    /// Tasks registered (including roots).
    pub tasks_registered: usize,
    /// Data accesses registered (after normalisation).
    pub accesses_registered: usize,
    /// Dependency edges created between accesses of the same domain.
    pub release_edges: usize,
    /// Satisfaction-forwarding edges created from a parent access to a child access.
    pub satisfaction_edges: usize,
    /// Tasks that were ready at registration time.
    pub ready_at_registration: usize,
    /// Ranges delivered through the incremental (weakwait / release-directive) path: one per
    /// `CompleteUp` a hand-over sends, each the maximal range of one access that one domain
    /// visit handed over.
    pub incremental_releases: usize,
    /// Tasks that deeply completed (body finished and all descendants deeply complete).
    pub tasks_deeply_completed: usize,
    /// Tasks retired (their ids reported for reuse). Under steady-state load this tracks
    /// `tasks_deeply_completed`; the difference is the not-yet-reclaimed tail.
    pub tasks_retired: usize,
    /// Bottom-map registrations that split no stored fragment and touched at most one
    /// fragment: the declared region matched one stored fragment exactly or lay in one gap
    /// ([`Fit::Exact`]).
    pub exact_hits: usize,
    /// Bottom-map registrations that split a stored fragment at a boundary of the declared
    /// region ([`Fit::Split`]) — a block carved out of a larger access, say.
    pub promotions: usize,
    /// Bottom-map registrations that were not exact hits: the splitting ones
    /// (`promotions`) and those spanning several fragments ([`Fit::Spanning`]). So
    /// `exact_hits + fragmented_updates == accesses_registered`.
    pub fragmented_updates: usize,
    /// Bottom-map registrations after which the coalescing pass merged equal-valued
    /// fragments, healing a carved-up region. Always `<= fragmented_updates`: an exact hit
    /// leaves one fragment where there was one and is not coalesced.
    pub demotions: usize,
    /// Root tasks registered (one per job/run; subset of `tasks_registered`).
    pub roots_registered: usize,
    /// Root tasks deeply completed (jobs finished; subset of `tasks_deeply_completed`).
    pub roots_completed: usize,
    /// `SatisfyDown` messages applied: satisfaction forwarded into a task's own domain.
    pub satisfy_down_messages: usize,
    /// `CompleteUp` messages applied: completions sent to the parent's domain by a hand-over
    /// or by a `None`-mode body end with live children.
    pub complete_up_messages: usize,
    /// `ChildDone` messages applied: one per deep completion of a task that is not a root, so
    /// `child_done_messages + roots_completed == tasks_deeply_completed` at quiescence.
    pub child_done_messages: usize,
}

/// Indexes of the engine's counters in its [`Striped`] block, one per [`EngineStats`] field.
mod stat {
    pub(super) const TASKS_REGISTERED: usize = 0;
    pub(super) const ACCESSES_REGISTERED: usize = 1;
    pub(super) const RELEASE_EDGES: usize = 2;
    pub(super) const SATISFACTION_EDGES: usize = 3;
    pub(super) const READY_AT_REGISTRATION: usize = 4;
    pub(super) const INCREMENTAL_RELEASES: usize = 5;
    pub(super) const TASKS_DEEPLY_COMPLETED: usize = 6;
    pub(super) const TASKS_RETIRED: usize = 7;
    pub(super) const EXACT_HITS: usize = 8;
    pub(super) const PROMOTIONS: usize = 9;
    pub(super) const FRAGMENTED_UPDATES: usize = 10;
    pub(super) const DEMOTIONS: usize = 11;
    pub(super) const ROOTS_REGISTERED: usize = 12;
    pub(super) const ROOTS_COMPLETED: usize = 13;
    pub(super) const SATISFY_DOWN_MESSAGES: usize = 14;
    pub(super) const COMPLETE_UP_MESSAGES: usize = 15;
    pub(super) const CHILD_DONE_MESSAGES: usize = 16;
    pub(super) const COUNT: usize = 17;
}

/// Generation-checked reference to an access node slot inside one domain's slab.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
struct NodeRef {
    idx: u32,
    gen: u32,
}

/// A bottom-map accessor: either one of the domain owner's own accesses (the §VI linking point
/// into the outer domain) or a child's access node in this domain.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Accessor {
    Own(u32),
    Child(NodeRef),
}

/// The "latest accessor" of a bottom-map fragment: the last writer plus the readers registered
/// since. The owner's own access is seeded as the initial writer so children link to it.
/// `PartialEq` feeds the store's coalesce-on-update: adjacent fragments with the same accessor
/// history merge back into one, so a region a write carved up matches exactly again.
#[derive(Debug, Clone, Default, PartialEq)]
struct BottomEntry {
    last_writer: Option<Accessor>,
    readers: SmallVec<[Accessor; 2]>,
}

/// Inline-capacity fragment list used by the domain-local cascade and the cross-domain
/// messages. The exact-match common case carries a single whole region, so these never touch
/// the heap on the hot path. Inline capacity 1 keeps queued events/messages small (the vendored
/// `SmallVec` stores inline slots as `Option<T>`); multi-fragment lists only occur on the
/// already-promoted slow path, where the spill allocation is noise.
type Parts = SmallVec<[Region; 1]>;

/// Inline-capacity fragment list for one staged own-access pending mirror: empty (the access
/// was satisfied at registration) or the whole region, in the common case.
type SeedParts = SmallVec<[Region; 1]>;

/// The staged own-access seeds of a not-yet-expanded domain (see [`Domain::own_seed`]): the
/// pending-down mirror of each weak access registered with unsatisfied fragments, keyed by its
/// own index, in own-index order. Every other access starts with nothing pending, so a task
/// with strong accesses only stages nothing; the regions come from its entry.
type Seeds = SmallVec<[(u32, SeedParts); 1]>;

/// The node half of an access: lives in the domain the access was registered in (the domain of
/// its task's parent), where it participates in the dependency DAG.
#[derive(Debug)]
struct AccessNode {
    /// The task that declared this access.
    task: TaskId,
    /// Slot of the task's scheduling record in this domain's `sched` slab.
    sched: u32,
    /// Index of this access in the owning task's own-access list (`Domain::own`), used to
    /// address `SatisfyDown` messages.
    own_idx: u32,
    region: Region,
    weak: bool,
    /// `true` if the owning task's domain mirrors part of this access as unsatisfied
    /// (`OwnAccess::pending_down` started non-empty), so satisfaction must be forwarded down.
    /// Only weak accesses are mirrored (see [`DependencyEngine::register_task`]).
    has_mirror: bool,
    /// Per-fragment dependency state: compact while the region transitions as one unit,
    /// promoted to the general containers on the first partial-fragment operation.
    state: NodeState,
}

/// Per-fragment state of an access node.
///
/// The overwhelming majority of accesses (whole-block deps of blocked kernels) live and die as
/// a **single fragment**: every predecessor, successor edge, completion and release covers the
/// whole declared region. [`NodeState::Compact`] represents that case with a counter, two flags
/// and an inline successor list — no heap allocation at any point in the node's life. The first
/// operation that touches a *proper sub-region* (a partially overlapping sibling, a weakwait
/// hand-over of a sub-block, a partial `release` directive) promotes the node to
/// [`NodeState::Fragmented`], which holds an **index into the domain's [`FragArena`]**: the
/// per-fragment containers live in a per-domain pool with free-list recycling, so steady-state
/// fragmentation churn reuses cleared containers (whose interval arenas retain their capacity)
/// instead of boxing fresh ones per promoted node.
#[derive(Debug)]
enum NodeState {
    Compact(CompactState),
    Fragmented(u32),
}

#[derive(Debug)]
struct CompactState {
    /// Number of predecessors over the whole region that have not delivered the data yet.
    unsatisfied: u32,
    /// The task (or a live child) may still access the region.
    uncompleted: bool,
    /// The region has not been handed to successors yet.
    unreleased: bool,
    /// Same-domain successors waiting for the whole region.
    release_edges: SmallVec<[u32; 2]>,
}

/// The per-fragment lifecycle record of one promoted access node.
///
/// An access declares exactly one region in exactly one space, and its predecessor count,
/// completion/release flags and same-domain successor edges almost always fragment along the
/// *same* boundaries (one partially overlapping sibling splits all of them at once). Packing
/// the four facets into a single [`IntervalMap`] therefore costs nothing in fragment count, but
/// makes a fresh promotion pay for **one** interval arena instead of four — the dominant
/// allocation in fragmentation-heavy single-worker spawning, where no node retires (so no pool
/// slot recycles) while the root body is still submitting tasks. Cross-space defensive checks
/// happen once at the method boundary in [`AccessNode`].
#[derive(Debug, Clone, PartialEq, Default)]
struct FragCell {
    /// Predecessors over this fragment that have not delivered the data yet (several — e.g. a
    /// group of readers — can cover the same fragment). Satisfied when it drops to zero.
    unsatisfied: u32,
    /// The task (or a live child) may still access this fragment.
    uncompleted: bool,
    /// The fragment has not been handed to successors yet.
    unreleased: bool,
    /// Same-domain successors satisfied by this fragment's release.
    release_edges: SmallVec<[u32; 2]>,
}

impl FragCell {
    /// `true` when no live state is left in the cell; spent fragments are removed from the map
    /// so emptiness scans stay short.
    fn is_spent(&self) -> bool {
        self.unsatisfied == 0
            && !self.uncompleted
            && !self.unreleased
            && self.release_edges.is_empty()
    }

    /// Turns a mutated cell back into a range update: `Remove` once spent, `Set` otherwise.
    fn commit(self) -> RangeUpdate<FragCell> {
        if self.is_spent() {
            RangeUpdate::Remove
        } else {
            RangeUpdate::Set(self)
        }
    }
}

/// Per-domain pool of promoted-node interval maps with free-list recycling (the same slab
/// discipline as the node and sched slots, minus the generations — a frag index is only ever
/// reachable through its owning node's [`NodeState::Fragmented`]).
#[derive(Debug, Default)]
struct FragArena {
    pool: Vec<IntervalMap<FragCell>>,
    free: Vec<u32>,
}

impl FragArena {
    /// Takes a cleared map from the free list, or grows the pool. The pool plateaus at the
    /// high-water count of *simultaneously promoted* nodes in the domain.
    fn alloc(&mut self) -> u32 {
        match self.free.pop() {
            Some(idx) => idx,
            None => {
                let idx = u32::try_from(self.pool.len()).expect("frag arena overflow");
                self.pool.push(IntervalMap::new());
                idx
            }
        }
    }

    /// Returns a map to the free list, clearing it (interval-arena capacity retained, so the
    /// next promotion through this slot fills allocation-free).
    fn release(&mut self, idx: u32) {
        self.pool[idx as usize].clear();
        self.free.push(idx);
    }

    fn get(&self, idx: u32) -> &IntervalMap<FragCell> {
        &self.pool[idx as usize]
    }

    fn get_mut(&mut self, idx: u32) -> &mut IntervalMap<FragCell> {
        &mut self.pool[idx as usize]
    }
}

impl AccessNode {
    /// Expands the compact state into arena-pooled general containers. Idempotent; called on
    /// the first operation that does not cover the whole region. The containers come cleared
    /// from the pool, so a recycled slot fills without allocating.
    fn promote(&mut self, frag: &mut FragArena) {
        let NodeState::Compact(c) = &mut self.state else {
            return;
        };
        let fi = frag.alloc();
        let cell = FragCell {
            unsatisfied: c.unsatisfied,
            uncompleted: c.uncompleted,
            unreleased: c.unreleased,
            release_edges: std::mem::take(&mut c.release_edges),
        };
        let (start, end) = (self.region.start, self.region.end);
        let f = frag.get_mut(fi);
        debug_assert!(f.is_empty());
        if !cell.is_spent() {
            f.insert_range(start, end, cell);
        }
        self.state = NodeState::Fragmented(fi);
    }

    /// `true` if no fragment still waits for a predecessor.
    fn fully_satisfied(&self, frag: &FragArena) -> bool {
        match &self.state {
            NodeState::Compact(c) => c.unsatisfied == 0,
            NodeState::Fragmented(fi) => frag.get(*fi).iter().all(|(_, _, c)| c.unsatisfied == 0),
        }
    }

    /// `true` once every fragment has been released to successors.
    fn fully_released(&self, frag: &FragArena) -> bool {
        match &self.state {
            NodeState::Compact(c) => !c.unreleased,
            NodeState::Fragmented(fi) => frag.get(*fi).iter().all(|(_, _, c)| !c.unreleased),
        }
    }

    /// The still-unsatisfied parts of the declared region — the staged `pending_down` mirror
    /// for the task's own domain.
    fn unsatisfied_parts(&self, frag: &FragArena) -> SeedParts {
        match &self.state {
            NodeState::Compact(c) => {
                if c.unsatisfied > 0 {
                    smallvec![self.region]
                } else {
                    SmallVec::new()
                }
            }
            NodeState::Fragmented(fi) => {
                let mut parts: SeedParts = SmallVec::new();
                let space = self.region.space;
                frag.get(*fi)
                    .query_range(self.region.start, self.region.end, |s, e, c| {
                        if c.unsatisfied > 0 {
                            parts.push(Region::new(space, s, e));
                        }
                    });
                parts
            }
        }
    }

    /// Registers one pending predecessor over `part`.
    fn add_unsatisfied(&mut self, frag: &mut FragArena, part: &Region) {
        if let NodeState::Compact(c) = &mut self.state {
            if part.contains_region(&self.region) {
                c.unsatisfied += 1;
                return;
            }
            self.promote(frag);
        }
        let NodeState::Fragmented(fi) = self.state else {
            unreachable!()
        };
        if part.space != self.region.space {
            return;
        }
        frag.get_mut(fi)
            .update_range(part.start, part.end, |_, _, cell| {
                let mut c = cell.cloned().unwrap_or_default();
                c.unsatisfied += 1;
                RangeUpdate::Set(c)
            });
    }

    /// Registers a same-domain successor edge over `part`.
    fn add_release_edge(&mut self, frag: &mut FragArena, part: &Region, to: u32) {
        if let NodeState::Compact(c) = &mut self.state {
            if part.contains_region(&self.region) {
                c.release_edges.push(to);
                return;
            }
            self.promote(frag);
        }
        let NodeState::Fragmented(fi) = self.state else {
            unreachable!()
        };
        if part.space != self.region.space {
            return;
        }
        frag.get_mut(fi)
            .update_range(part.start, part.end, |_, _, cell| {
                let mut c = cell.cloned().unwrap_or_default();
                c.release_edges.push(to);
                RangeUpdate::Set(c)
            });
    }

    /// Appends the not-yet-released parts of `over` to `out` (the pending extent of a new edge
    /// from this node).
    fn unreleased_parts(&self, frag: &FragArena, over: &Region, out: &mut Parts) {
        match &self.state {
            NodeState::Compact(c) => {
                if c.unreleased {
                    if let Some(part) = self.region.intersection(over) {
                        out.push(part);
                    }
                }
            }
            NodeState::Fragmented(fi) => {
                if over.space != self.region.space {
                    return;
                }
                let space = self.region.space;
                frag.get(*fi).query_range(over.start, over.end, |s, e, c| {
                    if c.unreleased {
                        out.push(Region::new(space, s, e));
                    }
                });
            }
        }
    }

    /// Marks `part` as satisfied by one predecessor; appends the fragments that became *fully*
    /// satisfied to `newly`.
    fn satisfy_part(&mut self, frag: &mut FragArena, part: &Region, newly: &mut Parts) {
        if let NodeState::Compact(c) = &mut self.state {
            if part.contains_region(&self.region) {
                if c.unsatisfied > 0 {
                    c.unsatisfied -= 1;
                    if c.unsatisfied == 0 {
                        newly.push(self.region);
                    }
                }
                return;
            }
            if !part.intersects(&self.region) {
                return;
            }
            self.promote(frag);
        }
        let NodeState::Fragmented(fi) = self.state else {
            unreachable!()
        };
        if part.space != self.region.space {
            return;
        }
        let space = self.region.space;
        let f = frag.get_mut(fi);
        f.update_range(part.start, part.end, |s, e, cell| match cell {
            Some(c) if c.unsatisfied > 0 => {
                let mut c2 = c.clone();
                c2.unsatisfied -= 1;
                if c2.unsatisfied == 0 {
                    newly.push(Region::new(space, s, e));
                }
                c2.commit()
            }
            // Already satisfied: only *transitions* to zero are reported.
            _ => RangeUpdate::Keep,
        });
        f.coalesce_range(part.start, part.end);
    }

    /// Marks `part` as completed; appends the fragments that transitioned to `newly`.
    fn complete_part(&mut self, frag: &mut FragArena, part: &Region, newly: &mut Parts) {
        if let NodeState::Compact(c) = &mut self.state {
            if part.contains_region(&self.region) {
                if c.uncompleted {
                    c.uncompleted = false;
                    newly.push(self.region);
                }
                return;
            }
            if !part.intersects(&self.region) {
                return;
            }
            self.promote(frag);
        }
        let NodeState::Fragmented(fi) = self.state else {
            unreachable!()
        };
        if part.space != self.region.space {
            return;
        }
        let space = self.region.space;
        let f = frag.get_mut(fi);
        f.update_range(part.start, part.end, |s, e, cell| match cell {
            Some(c) if c.uncompleted => {
                let mut c2 = c.clone();
                c2.uncompleted = false;
                newly.push(Region::new(space, s, e));
                c2.commit()
            }
            _ => RangeUpdate::Keep,
        });
        f.coalesce_range(part.start, part.end);
    }

    /// Appends the sub-parts of `candidate` that are releasable *now* (unreleased, fully
    /// satisfied and completed) to `out`.
    fn releasable_parts(
        &self,
        frag: &FragArena,
        candidate: &Region,
        out: &mut SmallVec<[Region; 4]>,
    ) {
        match &self.state {
            NodeState::Compact(c) => {
                // Compact state is all-or-nothing: the region is releasable exactly when the
                // whole of it is satisfied and completed.
                if c.unreleased && c.unsatisfied == 0 && !c.uncompleted {
                    if let Some(part) = self.region.intersection(candidate) {
                        out.push(part);
                    }
                }
            }
            NodeState::Fragmented(fi) => {
                if candidate.space != self.region.space {
                    return;
                }
                // releasable = candidate ∩ unreleased ∩ !unsatisfied ∩ !uncompleted. All three
                // facets live in one fragment map, so this is a single clipped scan with a
                // per-cell predicate — no subtract chains, no scratch.
                let space = self.region.space;
                frag.get(*fi)
                    .query_range(candidate.start, candidate.end, |s, e, c| {
                        if c.unreleased && c.unsatisfied == 0 && !c.uncompleted {
                            out.push(Region::new(space, s, e));
                        }
                    });
            }
        }
    }

    /// Removes `part` from the unreleased set, appending what was actually removed to `out`.
    fn release_part(&mut self, frag: &mut FragArena, part: &Region, out: &mut Parts) {
        if let NodeState::Compact(c) = &mut self.state {
            if part.contains_region(&self.region) {
                if c.unreleased {
                    c.unreleased = false;
                    out.push(self.region);
                }
                return;
            }
            if !part.intersects(&self.region) {
                return;
            }
            self.promote(frag);
        }
        let NodeState::Fragmented(fi) = self.state else {
            unreachable!()
        };
        if part.space != self.region.space {
            return;
        }
        let space = self.region.space;
        let f = frag.get_mut(fi);
        f.update_range(part.start, part.end, |s, e, cell| match cell {
            Some(c) if c.unreleased => {
                let mut c2 = c.clone();
                c2.unreleased = false;
                out.push(Region::new(space, s, e));
                c2.commit()
            }
            _ => RangeUpdate::Keep,
        });
        f.coalesce_range(part.start, part.end);
    }

    /// Consumes the release edges overlapping the just-released `part`, delivering each
    /// `(fragment, targets)` group.
    fn take_release_edges(
        &mut self,
        frag: &mut FragArena,
        part: &Region,
        mut deliver: impl FnMut(Region, SmallVec<[u32; 2]>),
    ) {
        match &mut self.state {
            NodeState::Compact(c) => {
                // Compact edges always span the whole region; a partial release would have
                // promoted the node in `release_part` before reaching here.
                if part.contains_region(&self.region) && !c.release_edges.is_empty() {
                    deliver(self.region, std::mem::take(&mut c.release_edges));
                }
            }
            NodeState::Fragmented(fi) => {
                if part.space != self.region.space {
                    return;
                }
                let space = self.region.space;
                let f = frag.get_mut(*fi);
                f.update_range(part.start, part.end, |s, e, cell| match cell {
                    Some(c) if !c.release_edges.is_empty() => {
                        let mut c2 = c.clone();
                        deliver(
                            Region::new(space, s, e),
                            std::mem::take(&mut c2.release_edges),
                        );
                        c2.commit()
                    }
                    _ => RangeUpdate::Keep,
                });
                f.coalesce_range(part.start, part.end);
            }
        }
    }
}

/// A slab slot holding an access node. The generation is bumped on free so stale [`NodeRef`]s
/// (from in-flight messages or old bottom-map entries) are detected instead of corrupting a
/// recycled slot.
#[derive(Debug)]
struct NodeSlot {
    gen: u32,
    node: Option<AccessNode>,
}

/// Per-child scheduling record, slab-allocated in the parent's domain.
struct ChildSched<P> {
    task: TaskId,
    /// Entry of the child (set right after the entry is created during registration): the
    /// target of the `SatisfyDown` messages its access nodes forward. Held until it retires.
    entry: Option<Arc<TaskEntry<P>>>,
    /// What the runtime runs once the child is ready, parked here until then. Readiness moves
    /// it out into [`Effects::ready`], so `None` means the child was reported ready (or was
    /// ready at registration and never parked).
    payload: Option<P>,
    /// Number of strong accesses not yet fully satisfied.
    pending_strong: usize,
    /// Access nodes of this child still allocated in the domain's slab.
    live_nodes: usize,
    /// Set when the child's deep completion has been processed in this domain.
    deeply_completed: bool,
    /// Set once a later sibling linked a release edge to one of the child's accesses, when the
    /// child's [`TaskEntry::successor_linked`] was raised (raised once, so linking a second
    /// edge touches no entry).
    successor_linked: bool,
}

/// The lower half of one of the domain owner's own accesses: the state the owner's *children*
/// link against.
///
/// All three containers are interval maps over `region.space`; the methods check a part's space
/// once at their boundary, as [`AccessNode`] does for its [`FragCell`] map.
#[derive(Debug)]
struct OwnAccess {
    region: Region,
    /// Mirror of the node half's `unsatisfied` fragments, maintained by `SatisfyDown` messages.
    /// Children that link against this access inherit a dependency on exactly these fragments.
    /// Empty for a strong access: its task runs, and registers children, only once it is
    /// fully satisfied.
    pending_down: IntervalMap<()>,
    /// Downward satisfaction edges: child access nodes (in this domain) waiting for fragments of
    /// this access to be satisfied, keyed by pending fragment so satisfying one fragment only
    /// touches the successors that overlap it. The common case is 1–2 successors per fragment,
    /// which `SmallVec` keeps allocation-free.
    satisfaction_edges: IntervalMap<SmallVec<[u32; 2]>>,
    /// Fragments armed for early completion by the `release` directive.
    early_release: IntervalMap<()>,
}

/// Adds `[start, end)` to an interval set, merging it with the neighbours it touches.
fn set_add(set: &mut IntervalMap<()>, start: usize, end: usize) {
    set.insert_range(start, end, ());
    set.coalesce_range(start, end);
}

impl OwnAccess {
    /// A fresh lower half whose pending-down mirror holds `pending`.
    fn new(region: Region, pending: &SeedParts) -> Self {
        let mut pending_down = IntervalMap::new();
        for part in pending {
            set_add(&mut pending_down, part.start, part.end);
        }
        OwnAccess {
            region,
            pending_down,
            satisfaction_edges: IntervalMap::new(),
            early_release: IntervalMap::new(),
        }
    }

    /// Appends the fragments of `over` that `set` (`pending_down` or `early_release`) holds.
    fn stored_parts(&self, set: &IntervalMap<()>, over: &Region, out: &mut Parts) {
        if over.space == self.region.space {
            let space = over.space;
            set.query_range(over.start, over.end, |s, e, _| {
                out.push(Region::new(space, s, e))
            });
        }
    }

    /// Registers the child access node `to` as waiting for `part` to be satisfied.
    fn add_satisfaction_edge(&mut self, part: &Region, to: u32) {
        if part.space != self.region.space {
            return;
        }
        self.satisfaction_edges
            .update_range(part.start, part.end, |_, _, existing| {
                let mut targets = existing.cloned().unwrap_or_default();
                targets.push(to);
                RangeUpdate::Set(targets)
            });
    }

    /// `part` was satisfied upstream: removes it from the pending-down mirror and hands the
    /// satisfaction edges over every removed fragment to `fire`.
    fn satisfy(&mut self, part: &Region, mut fire: impl FnMut(Region, SmallVec<[u32; 2]>)) {
        if part.space != self.region.space {
            return;
        }
        let space = part.space;
        let OwnAccess {
            pending_down,
            satisfaction_edges,
            ..
        } = self;
        pending_down.drain_range(part.start, part.end, |s, e, ()| {
            satisfaction_edges.drain_range(s, e, |fs, fe, targets| {
                fire(Region::new(space, fs, fe), targets)
            });
        });
    }

    /// Arms `part` for early completion (the `release` directive).
    fn arm_release(&mut self, part: &Region) {
        if part.space == self.region.space {
            set_add(&mut self.early_release, part.start, part.end);
        }
    }
}

/// One task's dependency domain (plus the task's own lower-half state), protected by one lock.
struct Domain<P> {
    owner: TaskId,
    /// The entry owning this domain (always upgradable while the engine lives; weak only to
    /// avoid a strong self-cycle through `TaskEntry::domain`).
    self_entry: Weak<TaskEntry<P>>,
    /// Entry of the owner's parent (`None` for roots); the target of upward messages.
    parent_entry: Option<Weak<TaskEntry<P>>>,
    wait_mode: WaitMode,
    body_finished: bool,
    deeply_completed: bool,
    /// Direct children that have not yet deeply completed.
    live_children: usize,
    /// Deferred construction of the own-access lower halves: the initially unsatisfied parts
    /// of the weak accesses that have any, expanded with the entry's regions into
    /// `own`/`bottom_map` by [`Domain::ensure_seeded`] the first time anything needs them. Most
    /// tasks are leaves that never spawn children nor receive `SatisfyDown`, so the laziness
    /// keeps several container allocations and map inserts off the per-spawn hot path.
    own_seed: Option<Seeds>,
    /// Lower halves of the owner's own accesses (parallel to `TaskEntry::nodes_in_parent`).
    /// Registration takes `normalize_deps` output, so the regions are pairwise disjoint and
    /// sorted by `(space, start)`: a binary search finds the first one a region overlaps.
    own: Vec<OwnAccess>,
    /// The dependency domain for the owner's children: one interval map per space.
    bottom_map: RegionStore<BottomEntry>,
    /// Slab of child access nodes.
    nodes: Vec<NodeSlot>,
    free_nodes: Vec<u32>,
    /// Pool of fragmented-state containers referenced by `NodeState::Fragmented` indices. Slots
    /// are cleared (not dropped) on node free, so promotion of a recycled slot reuses the
    /// interval arenas already grown by earlier tenants.
    frag: FragArena,
    /// Slab of per-child scheduling records.
    sched: Vec<Option<ChildSched<P>>>,
    free_sched: Vec<u32>,
    /// Reusable scratch for the edges planned during one `link_into_domain` (lives here so the
    /// per-registration buffer is allocated once per domain, not once per access).
    scratch_edges: Vec<PlannedEdge>,
}

/// One edge recorded while fragmenting a new access against the bottom map, created after the
/// map update completes (the map is borrowed during the visit).
struct PlannedEdge {
    from: Accessor,
    over: Region,
}

impl std::fmt::Debug for PlannedEdge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?} over {:?}", self.from, self.over)
    }
}

impl<P> Domain<P> {
    fn new(owner: TaskId, parent_entry: Option<Weak<TaskEntry<P>>>, wait_mode: WaitMode) -> Self {
        Domain {
            owner,
            self_entry: Weak::new(),
            parent_entry,
            wait_mode,
            body_finished: false,
            deeply_completed: false,
            live_children: 0,
            own_seed: Some(SmallVec::new()),
            own: Vec::new(),
            bottom_map: RegionStore::new(),
            nodes: Vec::new(),
            free_nodes: Vec::new(),
            frag: FragArena::default(),
            sched: Vec::new(),
            free_sched: Vec::new(),
            scratch_edges: Vec::new(),
        }
    }

    /// The owner's entry (infallible while the engine is alive).
    fn owner_entry(&self) -> Arc<TaskEntry<P>> {
        self.self_entry
            .upgrade()
            .expect("task entry outlives its domain")
    }

    /// The parent's entry: `None` for roots, and also `None` once the parent has been retired
    /// and its entry freed. The latter is only reachable after this domain's owner deeply
    /// completed and its residual fragments were absorbed in the parent's domain, so any upward
    /// message that would have been addressed at the parent is moot and may be dropped. A
    /// retired parent whose task record still holds its entry answers `Some`; the hand-over
    /// it then receives is moot the same way, and the node generations drop or absorb it
    /// (`docs/locking.md`, "Retired parents").
    fn parent_arc(&self) -> Option<Arc<TaskEntry<P>>> {
        self.parent_entry.as_ref().and_then(Weak::upgrade)
    }

    /// Expands the deferred own-access seeds into the live lower-half structures, one per
    /// access of the owner's entry (`accesses`). Idempotent; must run before anything touches
    /// `own` or `bottom_map`.
    fn ensure_seeded(&mut self, accesses: &SmallVec<[InParent; 2]>) {
        let Some(seeds) = self.own_seed.take() else {
            return;
        };
        let mut seeds = seeds.into_iter().peekable();
        for (own_idx, access) in accesses.iter().enumerate() {
            let region = access.region;
            let pending = seeds
                .next_if(|(idx, _)| *idx as usize == own_idx)
                .map(|(_, pending)| pending)
                .unwrap_or_default();
            self.own.push(OwnAccess::new(region, &pending));
            // Own regions are normalised (pairwise disjoint), so each seed fills a gap.
            let _ = self.bottom_map.insert(
                &region,
                BottomEntry {
                    last_writer: Some(Accessor::Own(own_idx as u32)),
                    readers: SmallVec::new(),
                },
            );
        }
    }

    fn node(&self, idx: u32) -> Option<&AccessNode> {
        self.nodes
            .get(idx as usize)
            .and_then(|slot| slot.node.as_ref())
    }

    fn node_mut(&mut self, idx: u32) -> Option<&mut AccessNode> {
        self.nodes
            .get_mut(idx as usize)
            .and_then(|slot| slot.node.as_mut())
    }

    /// Simultaneous mutable access to a node and the fragmented-state pool. The two live in
    /// disjoint fields, but going through `node_mut` would borrow the whole domain; this helper
    /// performs the split borrow once for every call site that mutates fragment state.
    fn node_and_frag_mut(&mut self, idx: u32) -> Option<(&mut AccessNode, &mut FragArena)> {
        let node = self.nodes.get_mut(idx as usize)?.node.as_mut()?;
        Some((node, &mut self.frag))
    }

    /// Resolves a generation-checked reference; `None` for stale references to recycled slots.
    fn resolve(&self, node: NodeRef) -> Option<&AccessNode> {
        let slot = self.nodes.get(node.idx as usize)?;
        if slot.gen != node.gen {
            return None;
        }
        slot.node.as_ref()
    }

    /// Appends the parts of `over` that no live child access covers any more — the §V
    /// hand-over, read from the bottom map. A fragment is uncovered where every `Child`
    /// accessor its entry records (the last writer and all readers) has released it; a stale
    /// reference was fully released before its slot was recycled. The entry is enough: a child
    /// access it no longer records was superseded by a later accessor of the fragment, which is
    /// satisfied only by that access's release and so cannot release before it. `over` lies
    /// inside the owner's own accesses, which the bottom map covers from seeding on.
    fn uncovered_parts(&self, over: &Region, out: &mut Parts) {
        self.bottom_map.query(over, |fragment, entry| {
            let mut open: Parts = smallvec![fragment];
            for accessor in entry.last_writer.iter().chain(&entry.readers) {
                let &Accessor::Child(node_ref) = accessor else {
                    continue;
                };
                let Some(node) = self.resolve(node_ref) else {
                    continue;
                };
                let mut held: Parts = SmallVec::new();
                node.unreleased_parts(&self.frag, &fragment, &mut held);
                for part in &held {
                    let mut rest: Parts = SmallVec::new();
                    for piece in &open {
                        piece.subtract_each(part, |remains| rest.push(remains));
                    }
                    open = rest;
                }
                if open.is_empty() {
                    return; // the whole fragment is covered
                }
            }
            for part in &open {
                out.push(*part);
            }
        });
    }

    fn alloc_node(&mut self, node: AccessNode) -> NodeRef {
        match self.free_nodes.pop() {
            Some(idx) => {
                let slot = &mut self.nodes[idx as usize];
                debug_assert!(slot.node.is_none());
                slot.node = Some(node);
                NodeRef { idx, gen: slot.gen }
            }
            None => {
                let idx = self.nodes.len() as u32;
                self.nodes.push(NodeSlot {
                    gen: 0,
                    node: Some(node),
                });
                NodeRef { idx, gen: 0 }
            }
        }
    }

    fn alloc_sched(&mut self, sched: ChildSched<P>) -> u32 {
        match self.free_sched.pop() {
            Some(idx) => {
                debug_assert!(self.sched[idx as usize].is_none());
                self.sched[idx as usize] = Some(sched);
                idx
            }
            None => {
                let idx = self.sched.len() as u32;
                self.sched.push(Some(sched));
                idx
            }
        }
    }

    /// Leaves `payload` in the scheduling record `sched_idx` of a child just registered, or
    /// hands it back if the child is ready already: a ready child never parks.
    fn park(&mut self, sched_idx: u32, payload: P) -> Option<P> {
        let sched = self.sched[sched_idx as usize]
            .as_mut()
            .expect("sched slot just allocated");
        if sched.pending_strong == 0 {
            return Some(payload);
        }
        sched.payload = Some(payload);
        None
    }

    /// Frees `idx` if its node is fully released and its task has deeply completed; also frees
    /// the scheduling record once its last node is gone. Returns the task whose scheduling
    /// record was just freed, if any — that task has no state left in this domain and the
    /// caller must retire it.
    fn try_free_node(&mut self, idx: u32) -> Option<TaskId> {
        let node = self.node(idx)?;
        if !node.fully_released(&self.frag) {
            return None;
        }
        let sched_idx = node.sched;
        let frag_idx = match node.state {
            NodeState::Fragmented(fi) => Some(fi),
            NodeState::Compact(_) => None,
        };
        let done = self.sched[sched_idx as usize]
            .as_ref()
            .is_some_and(|s| s.deeply_completed);
        if !done {
            return None;
        }
        // Return the node's fragmented containers (if any) to the pool for the next promotion.
        if let Some(fi) = frag_idx {
            self.frag.release(fi);
        }
        let slot = &mut self.nodes[idx as usize];
        slot.node = None;
        slot.gen = slot.gen.wrapping_add(1);
        self.free_nodes.push(idx);
        let sched = self.sched[sched_idx as usize]
            .as_mut()
            .expect("sched freed before node");
        debug_assert!(sched.live_nodes > 0);
        sched.live_nodes -= 1;
        if sched.live_nodes == 0 {
            let task = sched.task;
            self.sched[sched_idx as usize] = None;
            self.free_sched.push(sched_idx);
            return Some(task);
        }
        None
    }
}

/// One task: its identity, its links into its parent's domain and its own domain. Held by its
/// scheduling record in the parent's domain until it retires, and by the runtime's task record.
pub(crate) struct TaskEntry<P> {
    pub(crate) id: TaskId,
    parent: Option<TaskId>,
    /// This task's accesses in the parent's domain, parallel to the `own` vector of this
    /// task's domain. Immutable after registration; inline for the common 1–2 accesses.
    nodes_in_parent: SmallVec<[InParent; 2]>,
    /// Slot of this task's [`ChildSched`] record in the parent's domain (unused for roots).
    sched_in_parent: u32,
    /// Raised (under the parent's domain lock) when a later sibling links a release edge to one
    /// of this task's accesses: its retire then makes a sibling ready. Read without a lock by
    /// the runtime's retire batching; a sibling that links after the read only waits for the
    /// batch's flush.
    successor_linked: AtomicBool,
    domain: Mutex<Domain<P>>,
}

/// One access of a task as its entry keeps it: the access node in the parent's domain and the
/// declared region, which also seeds the own access in the task's domain.
#[derive(Copy, Clone, Debug)]
struct InParent {
    node: NodeRef,
    region: Region,
}

impl<P> TaskEntry<P> {
    /// The task's parent, `None` for a root.
    pub(crate) fn parent_id(&self) -> Option<TaskId> {
        self.parent
    }

    /// Whether a later sibling has linked a release edge to one of this task's accesses (see
    /// the field). Monotonic: once `true`, it stays `true`.
    pub(crate) fn successor_linked(&self) -> bool {
        self.successor_linked.load(Ordering::Relaxed)
    }

    /// Number of direct children of the task that have not yet deeply completed.
    pub(crate) fn live_children(&self) -> usize {
        self.domain.lock().live_children
    }

    /// [`DependencyEngine::is_scheduled`] for this task. A retired parent answers `true` too:
    /// it deeply completed, so its children all ran.
    fn is_scheduled(&self) -> bool {
        let Some(parent) = self.domain.lock().parent_arc() else {
            return true;
        };
        let domain = parent.domain.lock();
        match domain
            .sched
            .get(self.sched_in_parent as usize)
            .and_then(Option::as_ref)
        {
            // A recycled slot (or one reused by a later task) means this task deeply completed,
            // which implies it was scheduled.
            Some(sched) if sched.task == self.id => sched.payload.is_none(),
            _ => true,
        }
    }
}

/// Cross-domain propagation messages. Each message is addressed to exactly one domain and is
/// processed under that domain's lock only, by the thread draining the cascade — never while the
/// producing domain's lock is still held.
enum Message<P> {
    /// Fragments of `target`'s own weak access `own_idx` became satisfied in the parent's
    /// domain: update the `pending_down` mirror and fire downward satisfaction edges.
    SatisfyDown {
        target: Arc<TaskEntry<P>>,
        own_idx: u32,
        parts: Parts,
    },
    /// A range of `task`'s own access `own_idx` completed from below (weakwait hand-over or
    /// `release` directive) or at a `None`-mode body end: complete it on the node half in the
    /// parent's domain `target`.
    CompleteUp {
        target: Arc<TaskEntry<P>>,
        task: Arc<TaskEntry<P>>,
        own_idx: u32,
        part: Region,
    },
    /// `child` deeply completed: complete its remaining fragments in the parent's domain
    /// `target`, decrement the parent's live-child count and recycle the child's slots.
    ChildDone {
        target: Arc<TaskEntry<P>>,
        child: Arc<TaskEntry<P>>,
    },
}

impl<P> Message<P> {
    /// The domain this message must be applied under. Messages carry resolved entries, so an
    /// entry stays alive while a message can still name it.
    fn target(&self) -> &Arc<TaskEntry<P>> {
        match self {
            Message::SatisfyDown { target, .. } => target,
            Message::CompleteUp { target, .. } => target,
            Message::ChildDone { target, .. } => target,
        }
    }
}

/// Domain-local cascade events, processed iteratively to keep the call stack flat.
#[derive(Debug)]
enum Event {
    Satisfy { node: u32, parts: Parts },
    Complete { node: u32, parts: Parts },
}

/// The queues one finish or release drains: the cross-domain messages, in the order they were
/// produced, the domain-local events of the message being applied, and the hand-overs of the
/// domain being worked in. The caller owns the cascade and keeps it for its next call: the
/// queues grow to a handful of ~100-byte entries on nearly every task, so a fresh set per call
/// would cost several `realloc`s. The runtime keeps its cascades in each thread's worker state,
/// and the [`TaskId`] functions share a spare one kept in the id index.
pub(crate) struct Cascade<P> {
    messages: VecDeque<Message<P>>,
    events: VecDeque<Event>,
    /// The ranges the locked domain's owner handed over, `(own_idx, range)`, held until the
    /// domain is left and then sent up as one `CompleteUp` per access and maximal range
    /// ([`DependencyEngine::flush_handover`]). Empty whenever no domain is locked.
    handover: Vec<(u32, Region)>,
}

impl<P> Cascade<P> {
    /// An empty cascade (no allocation until the first message).
    pub(crate) const fn new() -> Self {
        Cascade {
            messages: VecDeque::new(),
            events: VecDeque::new(),
            handover: Vec::new(),
        }
    }

    /// `true` when no message waits: the state between engine calls, or of a retire batch
    /// holding nothing.
    pub(crate) fn is_empty(&self) -> bool {
        self.messages.is_empty() && self.events.is_empty() && self.handover.is_empty()
    }

    /// Holds `part` of the locked domain owner's access `own_idx` for the next flush. A run of
    /// siblings hands over adjacent blocks in turn, so a part that overlaps or touches the last
    /// held range of the same access extends it; the flush merges the rest.
    fn hold(&mut self, own_idx: u32, part: Region) {
        if let Some((idx, last)) = self.handover.last_mut() {
            if *idx == own_idx && part.start <= last.end && last.start <= part.end {
                last.start = last.start.min(part.start);
                last.end = last.end.max(part.end);
                return;
            }
        }
        self.handover.push((own_idx, part));
    }
}

/// The id index behind the [`TaskId`] functions, which only their own registrations fill.
struct IdIndex<P> {
    /// Slot `i` holds the live task with id index `i`.
    entries: Vec<Option<Arc<TaskEntry<P>>>>,
    /// The cascade the id API's finishes and releases lend each other: taken with the entry it
    /// resolves, put back when the call drops its retired tasks from the index.
    spare: Cascade<P>,
}

impl<P> IdIndex<P> {
    fn resolve(&self, task: TaskId) -> Result<Arc<TaskEntry<P>>, StaleTaskId> {
        let entry = self
            .entries
            .get(task.index())
            .and_then(Option::as_ref)
            .filter(|e| e.id == task);
        entry.cloned().ok_or(StaleTaskId(task))
    }
}

/// The dependency engine. See the module documentation for the model and `docs/locking.md` for
/// the locking design.
///
/// Each task not yet ready carries a payload of type `P`, parked in its scheduling record in
/// the parent's domain; the readiness that releases the task moves the payload out into
/// [`Effects::ready`]. Through the public registration API the payload is the task's own id
/// (`P = TaskId`, the default), so `Effects::ready` lists ids; the runtime parks its task
/// records instead, so a ready task's record comes straight out of the engine.
pub struct DependencyEngine<P = TaskId> {
    /// The id index. Only the [`TaskId`] functions use it; the runtime never fills it.
    index: Mutex<IdIndex<P>>,
    /// Retired ids, ready for reuse, each already carrying its next generation: one bin per
    /// [`thread_slot`], and a drain files its ids in the bin of the thread that ran it.
    free: [HomeBin<TaskId>; THREAD_SLOTS],
    /// High-water allocator for fresh indexes (used only when every free list is empty).
    next_index: AtomicUsize,
    /// The [`EngineStats`] counters, indexed by the `stat` constants. Each is bumped on the
    /// registering or retiring thread's own stripe, so no two workers write one cache line for
    /// them; sums are exact at quiescence (see [`Striped`]).
    stats: Striped<{ stat::COUNT }>,
}

impl<P> std::fmt::Debug for DependencyEngine<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DependencyEngine")
            .field("tasks_registered", &self.stats.get(stat::TASKS_REGISTERED))
            .field("tasks_retired", &self.stats.get(stat::TASKS_RETIRED))
            .finish()
    }
}

/// An empty engine of any payload type.
impl<P> Default for DependencyEngine<P> {
    fn default() -> Self {
        DependencyEngine {
            index: Mutex::new(IdIndex {
                entries: Vec::new(),
                spare: Cascade::new(),
            }),
            free: Default::default(),
            next_index: AtomicUsize::new(0),
            stats: Striped::new(),
        }
    }
}

impl DependencyEngine {
    /// Creates an empty engine whose payloads are the task ids.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The public registration API: each task's payload is made from its own id (for the default
/// `P = TaskId`, the id itself), so these calls answer with ids and readiness flags.
impl<P: From<TaskId> + 'static> DependencyEngine<P> {
    /// Registers a new task as a child of `parent`, with the given declared dependencies and
    /// wait mode. Takes only the parent's domain lock. Returns the new task id and whether the
    /// task is immediately ready to run, or [`StaleTaskId`] if `parent` has been retired
    /// (spawning from a live body makes that a caller bug, but the engine reports it as a
    /// defined error like the rest of the query API instead of panicking).
    ///
    /// `parent` must already have been reported ready (a root always is): children are created
    /// by a running body. So every strong access of the parent is fully satisfied, and only its
    /// weak accesses pass pending predecessors on to the child. Debug builds assert it.
    pub fn register_task(
        &self,
        parent: TaskId,
        deps: &[Depend],
        wait_mode: WaitMode,
    ) -> Result<(TaskId, bool), StaleTaskId> {
        self.register_task_normalized(parent, &normalize_deps(deps), wait_mode)
    }

    /// [`DependencyEngine::register_task`] over pre-normalised dependencies, for callers that
    /// need the normalised footprint anyway and should not pay for normalising twice.
    ///
    /// `deps` must be [`normalize_deps`] output: pairwise disjoint regions sorted by
    /// `(space, start)`. The task's children find the accesses they cover by binary search over
    /// that order; debug builds assert it. As for `register_task`, `parent` must already have
    /// been reported ready.
    pub fn register_task_normalized(
        &self,
        parent: TaskId,
        deps: &[NormalizedDep],
        wait_mode: WaitMode,
    ) -> Result<(TaskId, bool), StaleTaskId> {
        let parent = self.entry(parent)?;
        debug_assert!(
            parent.is_scheduled(),
            "{:?} has children before it is ready",
            parent.id
        );
        let id = self.reserve_id();
        let (entry, ready) = {
            let mut domain = parent.domain.lock();
            let (sched, entry) = self.register_locked(&parent, &mut domain, id, deps, wait_mode);
            (entry, domain.park(sched, P::from(id)).is_some())
        };
        self.index([entry]);
        Ok((id, ready))
    }

    /// Registers a batch of sibling tasks under a **single** acquisition of the parent's domain
    /// lock, amortising lock traffic for loop-spawn patterns. Each task's dependencies must be
    /// [`normalize_deps`] output (pairwise disjoint, sorted by `(space, start)`), as for
    /// [`DependencyEngine::register_task_normalized`], and `parent` must already have been
    /// reported ready. Returns `(id, ready)` per task, in order, or [`StaleTaskId`] if `parent`
    /// has been retired.
    pub fn register_batch<'a>(
        &self,
        parent: TaskId,
        specs: impl IntoIterator<Item = (&'a [NormalizedDep], WaitMode)>,
    ) -> Result<Vec<(TaskId, bool)>, StaleTaskId> {
        let parent = self.entry(parent)?;
        debug_assert!(
            parent.is_scheduled(),
            "{:?} has children before it is ready",
            parent.id
        );
        // The ids are reserved before the parent's lock: a free-list bin is never taken under
        // a domain lock.
        let specs: Vec<_> = specs
            .into_iter()
            .map(|spec| (self.reserve_id(), spec))
            .collect();
        let mut domain = parent.domain.lock();
        let registered: Vec<_> = specs
            .into_iter()
            .map(|(id, (deps, wait_mode))| {
                let (sched, entry) =
                    self.register_locked(&parent, &mut domain, id, deps, wait_mode);
                ((id, domain.park(sched, P::from(id)).is_some()), entry)
            })
            .collect();
        drop(domain);
        let ids = registered.iter().map(|(id, _)| *id).collect();
        self.index(registered.into_iter().map(|(_, entry)| entry));
        Ok(ids)
    }
}

impl<P: 'static> DependencyEngine<P> {
    /// Reserves the id of a task about to be registered, trying in order the calling thread's
    /// home free list, the other free lists (an empty one is skipped on a relaxed read of its
    /// length, without locking it) and a fresh index. A recycled id already carries its next
    /// generation, so reserving one touches no engine-wide counter. A list emptied
    /// between the length read and the lock is simply passed over; the worst a race costs is a
    /// fresh index while a retired one waits, never a wrong id.
    ///
    /// The id is known before the task is registered, so the caller can build the payload
    /// around it and announce the task before registration lets it run. Every reserved id must
    /// be registered: an id that never is keeps its index out of use for good.
    pub(crate) fn reserve_id(&self) -> TaskId {
        let home = thread_slot();
        for offset in 0..THREAD_SLOTS {
            let bin = &self.free[(home + offset) % THREAD_SLOTS];
            if bin.len() == 0 {
                continue;
            }
            if let Some(id) = bin.pop_one() {
                return id;
            }
        }
        let index = self.next_index.fetch_add(1, Ordering::Relaxed);
        TaskId {
            index: u32::try_from(index).expect("task index overflow"),
            generation: 0,
        }
    }

    /// Files a drain's [`Effects::retired`] for reuse under the calling thread's home free list
    /// (one lock), generations bumped; call it with no lock held. An id whose bump would reach
    /// [`TaskId::SYNTHETIC_GENERATION`] is retired for good, so generations never wrap.
    pub(crate) fn recycle(&self, retired: &[TaskId]) {
        if retired.is_empty() {
            return;
        }
        self.free[thread_slot()].extend_with(retired.iter().filter_map(|task| {
            let generation = task.generation.wrapping_add(1);
            (generation != TaskId::SYNTHETIC_GENERATION).then_some(TaskId {
                index: task.index,
                generation,
            })
        }));
    }

    /// Resolves an id through the id index: the front of every [`TaskId`] function.
    fn entry(&self, task: TaskId) -> Result<Arc<TaskEntry<P>>, StaleTaskId> {
        self.index.lock().resolve(task)
    }

    /// [`DependencyEngine::entry`] for a finish or a release: takes the index's spare cascade
    /// in the same acquisition.
    fn entry_and_cascade(
        &self,
        task: TaskId,
    ) -> Result<(Arc<TaskEntry<P>>, Cascade<P>), StaleTaskId> {
        let mut index = self.index.lock();
        let entry = index.resolve(task)?;
        Ok((entry, std::mem::replace(&mut index.spare, Cascade::new())))
    }

    /// Adds entries the id API registered to the id index.
    fn index(&self, entries: impl IntoIterator<Item = Arc<TaskEntry<P>>>) {
        let mut index = self.index.lock();
        for entry in entries {
            let at = entry.id.index();
            let len = index.entries.len().max(at + 1);
            index.entries.resize_with(len, || None);
            index.entries[at] = Some(entry);
        }
    }

    /// The id API's end of a finish or a release: drops its retired tasks from the id index and
    /// puts the drained `cascade` back as the spare, then files the retired ids.
    fn unindex(&self, effects: &Effects<P>, cascade: Cascade<P>) {
        debug_assert!(cascade.is_empty());
        let mut index = self.index.lock();
        for task in &effects.retired {
            index
                .entries
                .get_mut(task.index())
                .and_then(|slot| slot.take_if(|e| e.id == *task));
        }
        index.spare = cascade;
        drop(index);
        self.recycle(&effects.retired);
    }

    /// Retires a task: counts it and reports its id in `effects`. Called exactly once per task,
    /// when its scheduling record in the parent's domain is reclaimed (a root's at deep
    /// completion), under that domain's lock, so it takes no lock.
    fn retire(&self, task: TaskId, effects: &mut Effects<P>) {
        self.stats.add(stat::TASKS_RETIRED, 1);
        effects.retired.push(task);
    }

    /// Registers a root task: no parent, no dependencies, its body is about to run.
    pub fn register_root(&self) -> TaskId {
        let entry = self.register_root_entry();
        let id = entry.id;
        self.index([entry]);
        id
    }

    /// [`DependencyEngine::register_root`], answering with the root's entry, through which the
    /// runtime finishes the root and registers its children.
    pub(crate) fn register_root_entry(&self) -> Arc<TaskEntry<P>> {
        let id = self.reserve_id();
        let mut domain = Domain::new(id, None, WaitMode::Wait);
        let entry = Arc::new_cyclic(|weak| {
            domain.self_entry = weak.clone();
            TaskEntry {
                id,
                parent: None,
                nodes_in_parent: SmallVec::new(),
                sched_in_parent: 0,
                successor_linked: AtomicBool::new(false),
                domain: Mutex::new(domain),
            }
        });
        self.stats.add(stat::TASKS_REGISTERED, 1);
        self.stats.add(stat::ROOTS_REGISTERED, 1);
        entry
    }

    /// Registers sibling tasks under a **single** acquisition of the `parent` entry's domain
    /// lock, each carrying its payload: `(id, payload, wait mode)` per task, the id from
    /// [`DependencyEngine::reserve_id`]. `deps` reads a task's [`normalize_deps`]-ordered
    /// dependencies out of its payload, and `attach` hands the payload its task's new entry
    /// before the payload can leave registration (both run under the parent's lock, so they
    /// must only read and move). A task ready at registration never parks: its payload goes
    /// straight to `ready` (likewise under the lock). Every other payload parks in the task's
    /// scheduling record until the readiness that releases it moves it into
    /// [`Effects::ready`]. `parent` must already have been reported ready, as for
    /// [`DependencyEngine::register_task`].
    pub(crate) fn register_payloads<D: Copy + Into<NormalizedDep>>(
        &self,
        parent: &Arc<TaskEntry<P>>,
        tasks: impl IntoIterator<Item = (TaskId, P, WaitMode)>,
        deps: impl Fn(&P) -> &[D],
        mut attach: impl FnMut(&mut P, Arc<TaskEntry<P>>),
        mut ready: impl FnMut(P),
    ) {
        debug_assert!(
            parent.is_scheduled(),
            "{:?} has children before it is ready",
            parent.id
        );
        let mut domain = parent.domain.lock();
        for (id, mut payload, wait_mode) in tasks {
            let (sched, entry) =
                self.register_locked(parent, &mut domain, id, deps(&payload), wait_mode);
            attach(&mut payload, entry);
            if let Some(payload) = domain.park(sched, payload) {
                ready(payload);
            }
        }
    }

    /// The registration core, with the parent's domain already locked: links task `id` and
    /// returns the slot of its scheduling record, where [`Domain::park`] leaves its payload,
    /// and the task's new entry.
    fn register_locked<D: Copy + Into<NormalizedDep>>(
        &self,
        parent_entry: &Arc<TaskEntry<P>>,
        domain: &mut Domain<P>,
        id: TaskId,
        deps: &[D],
        wait_mode: WaitMode,
    ) -> (u32, Arc<TaskEntry<P>>) {
        assert!(
            !domain.deeply_completed,
            "cannot create a child of a deeply completed task"
        );
        debug_assert!(
            deps.windows(2).all(|pair| {
                let (a, b): (NormalizedDep, NormalizedDep) = (pair[0].into(), pair[1].into());
                (a.region.space, a.region.end) <= (b.region.space, b.region.start)
            }),
            "dependencies must be normalize_deps output: disjoint, sorted by (space, start)"
        );
        self.stats.add(stat::TASKS_REGISTERED, 1);
        domain.ensure_seeded(&parent_entry.nodes_in_parent);

        let sched_idx = domain.alloc_sched(ChildSched {
            task: id,
            entry: None,
            payload: None,
            pending_strong: 0,
            live_nodes: 0,
            deeply_completed: false,
            successor_linked: false,
        });
        domain.live_children += 1;

        let mut child_domain = Domain::new(id, Some(Arc::downgrade(parent_entry)), wait_mode);
        let mut child_seeds: Seeds = SmallVec::new();
        // Built at its final size: one allocation beyond the inline capacity, none within it.
        let mut nodes_in_parent: SmallVec<[InParent; 2]> = SmallVec::with_capacity(deps.len());

        self.stats.add(stat::ACCESSES_REGISTERED, deps.len() as u64);
        for (own_idx, &dep) in deps.iter().enumerate() {
            let dep: NormalizedDep = dep.into();
            let node_ref = domain.alloc_node(AccessNode {
                task: id,
                sched: sched_idx,
                own_idx: own_idx as u32,
                region: dep.region,
                weak: dep.weak,
                has_mirror: false,
                // The compact single-fragment state: uncompleted, unreleased, no predecessors
                // yet. No container is allocated unless the region ever fragments.
                state: NodeState::Compact(CompactState {
                    unsatisfied: 0,
                    uncompleted: true,
                    unreleased: true,
                    release_edges: SmallVec::new(),
                }),
            });
            domain.sched[sched_idx as usize]
                .as_mut()
                .expect("sched slot just allocated")
                .live_nodes += 1;

            self.link_into_domain(domain, node_ref, dep.region, dep.is_write);

            // Stage the seed of the child's own domain: its future children link to this access
            // (the cross-domain linking point of §VI). A weak access's pending-down mirror starts
            // as the set of fragments currently unsatisfied and is kept current by `SatisfyDown`
            // messages. A strong access has none: the child registers children only from its
            // body, which starts once the access is fully satisfied. The seed is only expanded
            // into live structures if the child ever needs a domain (`Domain::ensure_seeded`).
            let node = domain.node(node_ref.idx).expect("node just allocated");
            let pending_down = if dep.weak {
                node.unsatisfied_parts(&domain.frag)
            } else {
                SmallVec::new()
            };
            let has_mirror = !pending_down.is_empty();
            domain
                .node_mut(node_ref.idx)
                .expect("node just allocated")
                .has_mirror = has_mirror;
            if has_mirror {
                child_seeds.push((own_idx as u32, pending_down));
            }

            // Count the access towards readiness if it is strong and has pending predecessors.
            let node = domain.node(node_ref.idx).expect("node just allocated");
            if !node.weak && !node.fully_satisfied(&domain.frag) {
                domain.sched[sched_idx as usize]
                    .as_mut()
                    .expect("sched slot just allocated")
                    .pending_strong += 1;
            }
            nodes_in_parent.push(InParent {
                node: node_ref,
                region: dep.region,
            });
        }

        child_domain.own_seed = Some(child_seeds);

        // The scheduling record holds the entry before the parent's lock is released: the moment
        // another thread can observe the new nodes, messages may be addressed at the new task.
        let entry = Arc::new_cyclic(|weak| {
            child_domain.self_entry = weak.clone();
            TaskEntry {
                id,
                parent: Some(parent_entry.id),
                nodes_in_parent,
                sched_in_parent: sched_idx,
                successor_linked: AtomicBool::new(false),
                domain: Mutex::new(child_domain),
            }
        });
        let sched = domain.sched[sched_idx as usize]
            .as_mut()
            .expect("sched slot just allocated");
        sched.entry = Some(Arc::clone(&entry));
        if sched.pending_strong == 0 {
            self.stats.add(stat::READY_AT_REGISTRATION, 1);
        }
        (sched_idx, entry)
    }

    /// Links a freshly created access node into the (locked) domain's bottom map, fragmenting
    /// against existing entries and creating the required edges.
    ///
    /// The common cases — the declared region matches a bottom-map fragment exactly, lies in a
    /// gap, or is carved out of one larger fragment — cost one binary search and no allocation
    /// once the map has grown (the planned-edge scratch lives in the domain and is reused).
    fn link_into_domain(
        &self,
        domain: &mut Domain<P>,
        node_ref: NodeRef,
        region: Region,
        is_write: bool,
    ) {
        let mut planned = std::mem::take(&mut domain.scratch_edges);
        debug_assert!(planned.is_empty());
        let nodes = &domain.nodes;
        // A reader whose node no longer resolves was fully released: it contributes no edge,
        // so the copy below leaves it out and a long read-only chain keeps a short group.
        let live = |accessor: &&Accessor| match accessor {
            Accessor::Child(node) => nodes
                .get(node.idx as usize)
                .is_some_and(|slot| slot.gen == node.gen),
            Accessor::Own(_) => true,
        };

        // First pass: fragment the region against the bottom map, record which edges to create
        // and compute the new entry for every fragment. (The scratch is taken out of the domain
        // so the closure only captures locals.) The coalescing update merges the equal-valued
        // fragments this access just wrote, so the next access over the same region is an
        // exact hit again.
        let (fit, merged) = domain
            .bottom_map
            .update_coalescing(&region, |fragment, existing| {
                let new_entry = match existing {
                    Some(entry) => {
                        if is_write {
                            // A writer waits for the readers since the last writer, or for the last
                            // writer when there are none.
                            if entry.readers.is_empty() {
                                if let Some(w) = entry.last_writer {
                                    planned.push(PlannedEdge {
                                        from: w,
                                        over: fragment,
                                    });
                                }
                            } else {
                                for &r in &entry.readers {
                                    planned.push(PlannedEdge {
                                        from: r,
                                        over: fragment,
                                    });
                                }
                            }
                            BottomEntry {
                                last_writer: Some(Accessor::Child(node_ref)),
                                readers: SmallVec::new(),
                            }
                        } else {
                            // A reader waits for the last writer only; concurrent readers group.
                            if let Some(w) = entry.last_writer {
                                planned.push(PlannedEdge {
                                    from: w,
                                    over: fragment,
                                });
                            }
                            // One allocation for a spilled group: the copy is built at its final
                            // size, the live readers and this one.
                            let kept = entry.readers.iter().filter(live).count();
                            let mut readers = SmallVec::with_capacity(kept + 1);
                            readers.extend(entry.readers.iter().filter(live).copied());
                            readers.push(Accessor::Child(node_ref));
                            BottomEntry {
                                last_writer: entry.last_writer,
                                readers,
                            }
                        }
                    }
                    None => {
                        // Nothing accessed this fragment in this domain before: there is no
                        // predecessor (the owner's own accesses are pre-seeded, so a gap really
                        // means "untracked by the owner").
                        if is_write {
                            BottomEntry {
                                last_writer: Some(Accessor::Child(node_ref)),
                                readers: SmallVec::new(),
                            }
                        } else {
                            let mut readers = SmallVec::new();
                            readers.push(Accessor::Child(node_ref));
                            BottomEntry {
                                last_writer: None,
                                readers,
                            }
                        }
                    }
                };
                RangeUpdate::Set(new_entry)
            });
        match fit {
            Fit::Exact => self.stats.add(stat::EXACT_HITS, 1),
            Fit::Split => {
                self.stats.add(stat::PROMOTIONS, 1);
                self.stats.add(stat::FRAGMENTED_UPDATES, 1);
            }
            Fit::Spanning => self.stats.add(stat::FRAGMENTED_UPDATES, 1),
        }
        if merged {
            self.stats.add(stat::DEMOTIONS, 1);
        }

        for edge in planned.drain(..) {
            self.add_edge(domain, edge.from, node_ref.idx, &edge.over);
        }
        domain.scratch_edges = planned;
    }

    /// Creates a dependency edge from `from` to the new node `to` over `over`. An edge whose
    /// source is one of the domain owner's own accesses is a cross-domain (satisfaction
    /// forwarding) edge; a sibling source makes a same-domain release edge.
    fn add_edge(&self, domain: &mut Domain<P>, from: Accessor, to: u32, over: &Region) {
        let mut pending: Parts = SmallVec::new();
        match from {
            Accessor::Own(own_idx) => {
                let own = &domain.own[own_idx as usize];
                own.stored_parts(&own.pending_down, over, &mut pending);
            }
            Accessor::Child(source) => match domain.resolve(source) {
                // A recycled slot means the source was fully released: no pending fragments.
                None => {}
                Some(node) => node.unreleased_parts(&domain.frag, over, &mut pending),
            },
        }
        if pending.is_empty() {
            return;
        }
        {
            let (node, frag) = domain
                .node_and_frag_mut(to)
                .expect("edge target just allocated");
            for part in &pending {
                node.add_unsatisfied(frag, part);
            }
        }
        match from {
            Accessor::Own(own_idx) => {
                self.stats.add(stat::SATISFACTION_EDGES, 1);
                let own = &mut domain.own[own_idx as usize];
                for part in &pending {
                    own.add_satisfaction_edge(part, to);
                }
            }
            Accessor::Child(source) => {
                self.stats.add(stat::RELEASE_EDGES, 1);
                let (node, frag) = domain
                    .node_and_frag_mut(source.idx)
                    .expect("resolved above");
                for part in &pending {
                    node.add_release_edge(frag, part, to);
                }
                let sched_idx = node.sched as usize;
                let sched = domain.sched[sched_idx]
                    .as_mut()
                    .expect("a live node has its sched");
                if !sched.successor_linked {
                    sched.successor_linked = true;
                    if let Some(entry) = &sched.entry {
                        entry.successor_linked.store(true, Ordering::Relaxed);
                    }
                }
            }
        }
    }

    /// The task's body has finished executing. Takes the task's own domain lock, then drains the
    /// resulting cross-domain messages one lock at a time. Returns the ready / deeply-completed
    /// effects, or [`StaleTaskId`] if `task` has already been retired (a double
    /// `body_finished` through a stale id is a caller bug, reported as a defined error).
    pub fn body_finished(&self, task: TaskId) -> Result<Effects<P>, StaleTaskId> {
        let (entry, mut cascade) = self.entry_and_cascade(task)?;
        let mut effects = Effects::default();
        self.finish_body(&entry, &mut cascade, &mut effects);
        self.pump(&mut cascade, &mut effects);
        self.unindex(&effects, cascade);
        Ok(effects)
    }

    /// The own-domain step of [`DependencyEngine::body_finished`]: marks the body finished
    /// under the task's own domain lock and appends the messages that follow to `cascade`,
    /// which the caller drains with [`DependencyEngine::pump`] — at once, or later together
    /// with other retires' messages. Returns `true` when the step's only message is the task's
    /// `ChildDone` (a leaf that deep-completed; its deep completion is already in `effects`):
    /// the one kind of message the runtime's retire batching holds back. The caller files
    /// [`Effects::retired`] ([`DependencyEngine::recycle`]).
    pub(crate) fn finish_body(
        &self,
        entry: &Arc<TaskEntry<P>>,
        cascade: &mut Cascade<P>,
        effects: &mut Effects<P>,
    ) -> bool {
        let task = entry.id;
        debug_assert!(
            cascade.handover.is_empty(),
            "a finish started amid held hand-overs"
        );
        let before = cascade.messages.len();
        let mut domain = entry.domain.lock();
        assert!(
            !domain.body_finished,
            "body_finished called twice for {task:?}"
        );
        domain.body_finished = true;

        match (domain.wait_mode, domain.parent_arc()) {
            // OpenMP default: the task's dependencies are released when the body finishes.
            // A leaf deep-completes right below, and its `ChildDone` completes every access.
            // Each access completes whole, which is not a hand-over: these are the only
            // `CompleteUp`s the flush does not build, and no incremental release counts them.
            (WaitMode::None, Some(target)) if domain.live_children > 0 => {
                for (own_idx, access) in entry.nodes_in_parent.iter().enumerate() {
                    cascade.messages.push_back(Message::CompleteUp {
                        target: Arc::clone(&target),
                        task: Arc::clone(entry),
                        own_idx: own_idx as u32,
                        part: access.region,
                    });
                }
            }
            (WaitMode::WeakWait, Some(_)) => {
                // Fine-grained release: fragments not covered by live child accesses
                // complete now; covered fragments are handed over to the children.
                domain.ensure_seeded(&entry.nodes_in_parent);
                for (own_idx, own) in domain.own.iter().enumerate() {
                    let mut uncovered: Parts = SmallVec::new();
                    domain.uncovered_parts(&own.region, &mut uncovered);
                    for &part in &uncovered {
                        cascade.hold(own_idx as u32, part);
                    }
                }
                self.flush_handover(&domain, cascade);
            }
            // `Wait` holds every dependency until deep completion, which also completes a
            // `None` leaf's; a root has no parent domain to complete into.
            _ => {}
        }

        if domain.live_children == 0 {
            deep_complete_locked(self, &mut domain, cascade, effects);
        }
        cascade.messages.len() == before + 1
            && matches!(cascade.messages.back(), Some(Message::ChildDone { child, .. }) if Arc::ptr_eq(child, entry))
    }

    /// The `release` directive (§V): the running task asserts it (and its *future* subtasks) will
    /// no longer access `region`. The overlapping fragments of its declared accesses are armed
    /// for early completion; fragments not covered by live child accesses complete immediately.
    /// Returns [`StaleTaskId`] if `task` has already been retired.
    pub fn release_region(&self, task: TaskId, region: Region) -> Result<Effects<P>, StaleTaskId> {
        let (entry, mut cascade) = self.entry_and_cascade(task)?;
        let mut effects = Effects::default();
        self.release_region_of(&entry, region, &mut cascade, &mut effects);
        self.unindex(&effects, cascade);
        Ok(effects)
    }

    /// [`DependencyEngine::release_region`] for the task `entry` belongs to, through the
    /// caller's `cascade`, which must be empty and is drained again on return.
    pub(crate) fn release_region_of(
        &self,
        entry: &Arc<TaskEntry<P>>,
        region: Region,
        cascade: &mut Cascade<P>,
        effects: &mut Effects<P>,
    ) {
        debug_assert!(cascade.is_empty(), "a release started on a busy cascade");
        {
            let mut domain = entry.domain.lock();
            if domain.parent_arc().is_none() {
                return;
            }
            domain.ensure_seeded(&entry.nodes_in_parent);
            for own_idx in 0..domain.own.len() {
                let own = &mut domain.own[own_idx];
                let overlap = match own.region.intersection(&region) {
                    Some(o) => o,
                    None => continue,
                };
                own.arm_release(&overlap);
                let mut uncovered: Parts = SmallVec::new();
                domain.uncovered_parts(&overlap, &mut uncovered);
                for &part in &uncovered {
                    cascade.hold(own_idx as u32, part);
                }
            }
            self.flush_handover(&domain, cascade);
        }
        self.pump(cascade, effects);
    }

    // ------------------------------------------------------------------------------------------
    // Message pump
    // ------------------------------------------------------------------------------------------

    /// Drains cross-domain messages. Each message locks exactly one domain; handlers may append
    /// further messages to the cascade, which are processed until it runs dry.
    ///
    /// Messages already queued for the domain just locked are applied under the same lock
    /// acquisition (a weakwait task's last `CompleteUp` hand-over followed by its `ChildDone`
    /// to the same parent costs one lock instead of two). This preserves relative order *per
    /// target domain*, which is the order that matters: a `CompleteUp` emitted before a
    /// `ChildDone` for the same task is applied first, so the node slots it references have not
    /// been recycled yet (stale references are dropped via the slot generation as a second line
    /// of defence). A leaf sends its parent one message, the `ChildDone`; the parent's
    /// hand-overs for a run of such messages go up together.
    ///
    /// The hand-overs of a run are held in the cascade and sent when the run ends, before the
    /// lock is dropped: one `CompleteUp` per access and maximal range, however many children
    /// of the run released their parts ([`DependencyEngine::flush_handover`]).
    ///
    /// The cascade's event queue is shared by every message of the drain (it is always empty
    /// between `apply` calls), and the drain leaves the whole cascade empty.
    pub(crate) fn pump(&self, cascade: &mut Cascade<P>, effects: &mut Effects<P>) {
        while let Some(message) = cascade.messages.pop_front() {
            debug_assert!(
                cascade.handover.is_empty(),
                "a hand-over outlived its domain visit"
            );
            let target = Arc::clone(message.target());
            let mut domain = target.domain.lock();
            self.apply(&mut domain, message, cascade, effects);
            // Apply consecutive messages for the same domain while we hold its lock. A
            // retire batch queues a run of siblings' `ChildDone`s for their parent, so checking
            // only the queue front captures it at O(1) per message (scanning the whole queue
            // would make wide fan-out drains quadratic).
            while cascade
                .messages
                .front()
                .is_some_and(|next| Arc::ptr_eq(next.target(), &target))
            {
                let message = cascade.messages.pop_front().expect("front checked");
                self.apply(&mut domain, message, cascade, effects);
            }
            self.flush_handover(&domain, cascade);
        }
    }

    /// Sends the hand-overs `cascade` holds for the owner of the locked `domain` to the owner's
    /// parent: one `CompleteUp` per access and maximal range, in ascending order, each counted
    /// as one incremental release. Runs before the pump leaves the domain and before the
    /// owner's `ChildDone` is queued, so a task's `CompleteUp`s precede its `ChildDone` on the
    /// parent. Takes no lock.
    fn flush_handover(&self, domain: &Domain<P>, cascade: &mut Cascade<P>) {
        let Cascade {
            messages, handover, ..
        } = cascade;
        if handover.is_empty() {
            return;
        }
        // A retired parent (possible only for moot hand-overs, see `parent_arc`) gets no
        // message — and no stat: the counter tracks *delivered* ranges.
        let Some(target) = domain.parent_arc() else {
            handover.clear();
            return;
        };
        let task = domain.owner_entry();
        handover.sort_unstable_by_key(|&(own_idx, part)| (own_idx, part.start));
        // A range that overlaps or touches the one before it, of the same access, extends it.
        handover.dedup_by(|next, open| {
            let merges = next.0 == open.0 && next.1.start <= open.1.end;
            if merges {
                open.1.end = open.1.end.max(next.1.end);
            }
            merges
        });
        self.stats
            .add(stat::INCREMENTAL_RELEASES, handover.len() as u64);
        let (&(own_idx, part), rest) = handover.split_last().expect("checked non-empty");
        for &(own_idx, part) in rest {
            messages.push_back(Message::CompleteUp {
                target: Arc::clone(&target),
                task: Arc::clone(&task),
                own_idx,
                part,
            });
        }
        messages.push_back(Message::CompleteUp {
            target,
            task,
            own_idx,
            part,
        });
        handover.clear();
    }

    /// Applies one message under its (locked) target domain. The cascade's event queue holds the
    /// local cascade; it is drained before returning.
    fn apply(
        &self,
        domain: &mut Domain<P>,
        message: Message<P>,
        cascade: &mut Cascade<P>,
        effects: &mut Effects<P>,
    ) {
        debug_assert!(cascade.events.is_empty());
        match message {
            Message::SatisfyDown {
                target,
                own_idx,
                parts,
            } => {
                self.stats.add(stat::SATISFY_DOWN_MESSAGES, 1);
                debug_assert_eq!(domain.owner, target.id);
                if let Some(seeds) = &mut domain.own_seed {
                    // The domain never had children, so no satisfaction edges exist to fire:
                    // shrink the staged mirror in place and keep the seed unexpanded (the
                    // common dependent-leaf case stays allocation-free). Only an access staged
                    // with a mirror is sent `SatisfyDown`.
                    let seed = (0..seeds.len())
                        .find(|&seed| seeds[seed].0 == own_idx)
                        .expect("SatisfyDown targets a mirrored access");
                    let (_, pending) = &mut seeds[seed];
                    for part in &parts {
                        let mut rest: SeedParts = SmallVec::new();
                        for fragment in pending.iter() {
                            fragment.subtract_each(part, |piece| rest.push(piece));
                        }
                        *pending = rest;
                    }
                    return;
                }
                let own = &mut domain.own[own_idx as usize];
                for part in &parts {
                    own.satisfy(part, |fragment, targets| {
                        for &to in targets.iter() {
                            let parts = smallvec![fragment];
                            cascade.events.push_back(Event::Satisfy { node: to, parts });
                        }
                    });
                }
                self.process_local(domain, cascade, effects);
            }
            Message::CompleteUp {
                target: _,
                task,
                own_idx,
                part,
            } => {
                self.stats.add(stat::COMPLETE_UP_MESSAGES, 1);
                let node_ref = task.nodes_in_parent[own_idx as usize].node;
                // A recycled slot means the access was fully released already; the completion
                // is moot.
                if domain.resolve(node_ref).is_none() {
                    return;
                }
                cascade.events.push_back(Event::Complete {
                    node: node_ref.idx,
                    parts: smallvec![part],
                });
                self.process_local(domain, cascade, effects);
            }
            Message::ChildDone { target: _, child } => {
                self.stats.add(stat::CHILD_DONE_MESSAGES, 1);
                let entry = child;
                let sched = domain.sched[entry.sched_in_parent as usize]
                    .as_mut()
                    .expect("sched slot freed before ChildDone");
                debug_assert_eq!(sched.task, entry.id);
                debug_assert!(
                    !sched.deeply_completed,
                    "duplicate ChildDone for {:?}",
                    entry.id
                );
                sched.deeply_completed = true;
                let mut reclaimed: Option<TaskId> = None;
                if entry.nodes_in_parent.is_empty() {
                    // No accesses: recycle the scheduling record immediately.
                    domain.sched[entry.sched_in_parent as usize] = None;
                    domain.free_sched.push(entry.sched_in_parent);
                    reclaimed = Some(entry.id);
                }

                // Whatever has not completed yet completes now (a leaf and Wait mode release
                // everything here; WeakWait may have residual fragments if a child declared less
                // than it covered), one access and its cascade after the other.
                for InParent { node: node_ref, .. } in entry.nodes_in_parent.iter() {
                    if let Some(node) = domain.resolve(*node_ref) {
                        cascade.events.push_back(Event::Complete {
                            node: node_ref.idx,
                            parts: smallvec![node.region],
                        });
                        self.process_local(domain, cascade, effects);
                    }
                }

                // Recycle fully released nodes (the rest are reaped by `try_release` when their
                // last fragment goes out).
                for InParent { node: node_ref, .. } in entry.nodes_in_parent.iter() {
                    if domain.resolve(*node_ref).is_some() {
                        if let Some(task) = domain.try_free_node(node_ref.idx) {
                            debug_assert_eq!(task, entry.id);
                            reclaimed = Some(task);
                        }
                    }
                }
                // The child's last bookkeeping in this domain is gone: retire it.
                // (`process_local` above may already have retired it through `try_release`.)
                if let Some(task) = reclaimed {
                    self.retire(task, effects);
                }

                debug_assert!(domain.live_children > 0);
                domain.live_children -= 1;
                if domain.live_children == 0 {
                    if domain.body_finished {
                        debug_assert!(!domain.deeply_completed);
                        deep_complete_locked(self, domain, cascade, effects);
                    } else {
                        // The body is still running and may be blocked in `taskwait`: its wake
                        // condition just flipped.
                        effects.taskwaits_unblocked = true;
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------------------------------
    // Domain-local cascade processing
    // ------------------------------------------------------------------------------------------

    fn process_local(
        &self,
        domain: &mut Domain<P>,
        cascade: &mut Cascade<P>,
        effects: &mut Effects<P>,
    ) {
        while let Some(event) = cascade.events.pop_front() {
            match event {
                Event::Satisfy { node, parts } => {
                    self.do_satisfy(domain, node, &parts, cascade, effects)
                }
                Event::Complete { node, parts } => {
                    self.do_complete(domain, node, &parts, cascade, effects)
                }
            }
        }
    }

    /// Marks `parts` of node `idx` as satisfied (predecessor data delivered): updates task
    /// readiness, forwards the satisfaction into the task's own domain and tries to release.
    fn do_satisfy(
        &self,
        domain: &mut Domain<P>,
        idx: u32,
        parts: &Parts,
        cascade: &mut Cascade<P>,
        effects: &mut Effects<P>,
    ) {
        let Some((node, frag)) = domain.node_and_frag_mut(idx) else {
            return;
        };
        let mut newly: Parts = SmallVec::new();
        for part in parts {
            node.satisfy_part(frag, part, &mut newly);
        }
        if newly.is_empty() {
            return;
        }

        // Task readiness: a strong access that just became fully satisfied reduces the task's
        // pending count.
        let (task, sched_idx, weak, has_mirror, own_idx, fully_satisfied) = {
            let node = domain.node(idx).expect("checked above");
            (
                node.task,
                node.sched,
                node.weak,
                node.has_mirror,
                node.own_idx,
                node.fully_satisfied(&domain.frag),
            )
        };
        let sched = domain.sched[sched_idx as usize]
            .as_mut()
            .expect("sched freed while node satisfiable");
        if !weak && fully_satisfied {
            debug_assert!(
                sched.pending_strong > 0,
                "pending_strong underflow for {task:?}"
            );
            sched.pending_strong -= 1;
            if sched.pending_strong == 0 {
                // The task turns ready here, and only here: its parked payload leaves.
                effects.ready.extend(sched.payload.take());
            }
        }

        // Forward the satisfaction into the task's own domain (its children inherited this
        // dependency through the pending-down mirror).
        if has_mirror {
            let target = Arc::clone(sched.entry.as_ref().expect("set at registration"));
            cascade.messages.push_back(Message::SatisfyDown {
                target,
                own_idx,
                parts: newly.clone(),
            });
        }

        // Fragments that were already completed can now be released.
        self.try_release(domain, idx, &newly, cascade, effects);
    }

    /// Marks `parts` of node `idx` as completed (the task and its live children will no longer
    /// touch them) and tries to release them.
    fn do_complete(
        &self,
        domain: &mut Domain<P>,
        idx: u32,
        parts: &Parts,
        cascade: &mut Cascade<P>,
        effects: &mut Effects<P>,
    ) {
        let Some((node, frag)) = domain.node_and_frag_mut(idx) else {
            return;
        };
        let mut newly: Parts = SmallVec::new();
        for part in parts {
            node.complete_part(frag, part, &mut newly);
        }
        if newly.is_empty() {
            return;
        }
        self.try_release(domain, idx, &newly, cascade, effects);
    }

    /// Releases the fragments of `candidates` that are both satisfied and completed, notifying
    /// same-domain successors and the owner's hand-over bookkeeping.
    ///
    /// For a compact node (the common case) this is all-or-nothing arithmetic: the region
    /// releases as one unit and its inline edge list fires — no container is touched.
    fn try_release(
        &self,
        domain: &mut Domain<P>,
        idx: u32,
        candidates: &Parts,
        cascade: &mut Cascade<P>,
        effects: &mut Effects<P>,
    ) {
        // releasable = candidate ∩ unreleased ∩ !unsatisfied ∩ !uncompleted
        let mut releasable: SmallVec<[Region; 4]> = SmallVec::new();
        {
            let Some(node) = domain.node(idx) else { return };
            for candidate in candidates {
                node.releasable_parts(&domain.frag, candidate, &mut releasable);
            }
        }
        if releasable.is_empty() {
            return;
        }

        let mut actually_released: Parts = SmallVec::new();
        {
            let (node, frag) = domain.node_and_frag_mut(idx).expect("checked above");
            for part in &releasable {
                node.release_part(frag, part, &mut actually_released);
            }
        }
        if actually_released.is_empty() {
            return;
        }

        // Notify same-domain successors: consume exactly the edge fragments that overlap the
        // released parts.
        {
            let (node, frag) = domain.node_and_frag_mut(idx).expect("checked above");
            for part in &actually_released {
                node.take_release_edges(frag, part, |fragment, targets| {
                    for &to in targets.iter() {
                        cascade.events.push_back(Event::Satisfy {
                            node: to,
                            parts: smallvec![fragment],
                        });
                    }
                });
            }
        }

        // Hand-over: the released parts of the domain owner's accesses that no other child
        // covers may complete on the owner's access if its policy allows it (weakwait after body
        // end, or the release directive even while the body runs); that completion lives in the
        // owner's parent's domain, so it travels as a `CompleteUp` message, which the cascade
        // holds until the domain is left. The owner's accesses are disjoint and sorted by
        // `(space, start)`, so one binary search finds the first one the node overlaps (a root
        // domain has none).
        let weakwait_active = domain.body_finished && domain.wait_mode == WaitMode::WeakWait;
        let region = domain.node(idx).expect("checked above").region;
        let first = domain
            .own
            .partition_point(|o| (o.region.space, o.region.end) <= (region.space, region.start));
        for (own_idx, own) in domain.own.iter().enumerate().skip(first) {
            if !own.region.intersects(&region) {
                break;
            }
            if !weakwait_active && own.early_release.is_empty() {
                continue;
            }
            let mut completable: Parts = SmallVec::new();
            for part in &actually_released {
                let Some(sub) = own.region.intersection(part) else {
                    continue;
                };
                if weakwait_active {
                    domain.uncovered_parts(&sub, &mut completable);
                } else {
                    let mut armed: Parts = SmallVec::new();
                    own.stored_parts(&own.early_release, &sub, &mut armed);
                    for part in &armed {
                        domain.uncovered_parts(part, &mut completable);
                    }
                }
            }
            for &part in &completable {
                cascade.hold(own_idx as u32, part);
            }
        }

        // A fully released access whose task has already deeply completed can be recycled; if
        // that reclaimed the task's scheduling record too, nothing in this domain references
        // the task any more and it is retired.
        if let Some(task) = domain.try_free_node(idx) {
            self.retire(task, effects);
        }
    }

    // ------------------------------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------------------------------

    /// Number of direct children of `task` that have not yet deeply completed.
    /// Errors for a stale id (a retired task has no live children by construction).
    pub fn try_live_children(&self, task: TaskId) -> Result<usize, StaleTaskId> {
        Ok(self.entry(task)?.live_children())
    }

    /// Number of direct children of `task` that have not yet deeply completed; `0` for stale
    /// ids (retirement implies deep completion, which implies no live children).
    pub fn live_children(&self, task: TaskId) -> usize {
        self.try_live_children(task).unwrap_or(0)
    }

    /// `true` once `task`'s body has finished and all of its descendants have deeply completed.
    /// Errors for a stale id: the answer is then *not* read from whichever younger task reuses
    /// the slot — the caller knows the task was retired (which implies it deeply completed) or
    /// that the id never belonged to this engine.
    pub fn try_is_deeply_completed(&self, task: TaskId) -> Result<bool, StaleTaskId> {
        Ok(self.entry(task)?.domain.lock().deeply_completed)
    }

    /// `true` once `task`'s body has finished and all of its descendants have deeply completed.
    /// Stale ids answer `true`: a task is only retired after deep completion.
    pub fn is_deeply_completed(&self, task: TaskId) -> bool {
        self.try_is_deeply_completed(task).unwrap_or(true)
    }

    /// `true` if the task has been reported ready (or executed). Stale ids answer `true`
    /// (retirement implies the task ran to deep completion).
    pub fn is_scheduled(&self, task: TaskId) -> bool {
        self.entry(task).map_or(true, |entry| entry.is_scheduled())
    }

    /// The parent of `task`: `None` for roots and for stale ids.
    pub fn parent(&self, task: TaskId) -> Option<TaskId> {
        self.entry(task).ok().and_then(|entry| entry.parent)
    }

    /// Engine statistics: the sums of the engine's striped counters.
    pub fn stats(&self) -> EngineStats {
        let get = |counter| self.stats.get(counter) as usize;
        EngineStats {
            tasks_registered: get(stat::TASKS_REGISTERED),
            accesses_registered: get(stat::ACCESSES_REGISTERED),
            release_edges: get(stat::RELEASE_EDGES),
            satisfaction_edges: get(stat::SATISFACTION_EDGES),
            ready_at_registration: get(stat::READY_AT_REGISTRATION),
            incremental_releases: get(stat::INCREMENTAL_RELEASES),
            tasks_deeply_completed: get(stat::TASKS_DEEPLY_COMPLETED),
            tasks_retired: get(stat::TASKS_RETIRED),
            exact_hits: get(stat::EXACT_HITS),
            promotions: get(stat::PROMOTIONS),
            fragmented_updates: get(stat::FRAGMENTED_UPDATES),
            demotions: get(stat::DEMOTIONS),
            roots_registered: get(stat::ROOTS_REGISTERED),
            roots_completed: get(stat::ROOTS_COMPLETED),
            satisfy_down_messages: get(stat::SATISFY_DOWN_MESSAGES),
            complete_up_messages: get(stat::COMPLETE_UP_MESSAGES),
            child_done_messages: get(stat::CHILD_DONE_MESSAGES),
        }
    }

    /// Asserts the engine's counter identities. Sound only at **quiescence** (e.g. after a
    /// root deeply completed): the paired counters are bumped at different moments under
    /// relaxed ordering, so a mid-run snapshot can legitimately be torn. Debug builds only —
    /// release builds compile this to nothing.
    pub(crate) fn debug_check_invariants(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let stats = self.stats();
        // Every registered access went through the bottom map exactly once, and was either an
        // exact hit or not (docs/matching.md).
        debug_assert_eq!(
            stats.exact_hits + stats.fragmented_updates,
            stats.accesses_registered,
            "engine accounting: every access is counted once, exact or fragmented"
        );
        debug_assert!(
            stats.tasks_retired <= stats.tasks_deeply_completed,
            "engine accounting: retirement implies deep completion"
        );
        // Only a non-exact update runs the coalescing pass, and it counts at most once.
        debug_assert!(
            stats.demotions <= stats.fragmented_updates,
            "engine accounting: every merge is produced by one non-exact update"
        );
        debug_assert!(
            stats.roots_completed <= stats.roots_registered,
            "engine accounting: a root completes at most once"
        );
        // A deep completion either completes a root or sends its parent one `ChildDone`, and
        // at quiescence every message has been applied.
        debug_assert_eq!(
            stats.child_done_messages + stats.roots_completed,
            stats.tasks_deeply_completed,
            "engine accounting: every deep completion below a root sends one ChildDone"
        );
    }

    /// Ids minted so far: the live ones and the retired ones awaiting reuse. Under steady load
    /// this plateaus at roughly the live-task high-water mark (the soak tests assert it).
    pub fn ids_minted(&self) -> usize {
        self.next_index.load(Ordering::Relaxed)
    }

    /// Tasks the id index holds.
    #[cfg(test)]
    pub(crate) fn indexed(&self) -> usize {
        self.index.lock().entries.iter().flatten().count()
    }

    /// Number of live (not yet retired) tasks. Computed in O(1) from the registration and
    /// retirement counters (a racy-but-consistent snapshot, like every other statistic).
    pub fn live_tasks(&self) -> usize {
        let registered = self.stats.get(stat::TASKS_REGISTERED);
        let retired = self.stats.get(stat::TASKS_RETIRED);
        registered.saturating_sub(retired) as usize
    }
}

/// Marks the (locked) domain's owner deeply complete and notifies the parent domain. The
/// caller's message pump delivers the `ChildDone`, which completes the owner's remaining
/// fragments in the parent's domain and may cascade further up. Roots have no parent domain
/// tracking them, so they are retired here instead of through a scheduling-record reclaim.
fn deep_complete_locked<P: 'static>(
    engine: &DependencyEngine<P>,
    domain: &mut Domain<P>,
    cascade: &mut Cascade<P>,
    effects: &mut Effects<P>,
) {
    debug_assert!(!domain.deeply_completed);
    debug_assert!(domain.body_finished);
    debug_assert_eq!(domain.live_children, 0);
    domain.deeply_completed = true;
    engine.stats.add(stat::TASKS_DEEPLY_COMPLETED, 1);
    effects.deeply_completed += 1;
    match &domain.parent_entry {
        None => {
            effects.root_completed = true;
            engine.stats.add(stat::ROOTS_COMPLETED, 1);
            engine.retire(domain.owner, effects);
        }
        Some(weak) => {
            // The owner's held hand-overs go first: a task's `CompleteUp`s precede its
            // `ChildDone` on the parent.
            engine.flush_handover(domain, cascade);
            // The parent cannot have been retired yet: its own deep completion requires this
            // task's `ChildDone` (not yet sent) to have been processed.
            let target = weak
                .upgrade()
                .expect("parent entry outlives incomplete children");
            cascade.messages.push_back(Message::ChildDone {
                target,
                child: domain.owner_entry(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessType;
    use weakdep_regions::SpaceId;

    fn r(space: u64, start: usize, end: usize) -> Region {
        Region::new(SpaceId(space), start, end)
    }

    fn dep(access: AccessType, region: Region) -> Depend {
        Depend::new(access, region)
    }

    /// Helper wrapping the engine to make the test scenarios readable.
    struct Harness {
        engine: DependencyEngine,
        root: TaskId,
        ready: Vec<TaskId>,
    }

    impl Harness {
        fn new() -> Self {
            let engine = DependencyEngine::new();
            let root = engine.register_root();
            Harness {
                engine,
                root,
                ready: Vec::new(),
            }
        }

        fn spawn(&mut self, parent: TaskId, deps: &[Depend], mode: WaitMode) -> TaskId {
            let (id, ready) = self
                .engine
                .register_task(parent, deps, mode)
                .expect("live parent");
            if ready {
                self.ready.push(id);
            }
            id
        }

        fn spawn_root(&mut self, deps: &[Depend], mode: WaitMode) -> TaskId {
            self.spawn(self.root, deps, mode)
        }

        fn finish(&mut self, task: TaskId) {
            let effects = self.engine.body_finished(task).expect("live task");
            self.ready.extend(effects.ready);
        }

        fn release(&mut self, task: TaskId, region: Region) {
            let effects = self.engine.release_region(task, region).expect("live task");
            self.ready.extend(effects.ready);
        }

        fn is_ready(&self, task: TaskId) -> bool {
            self.ready.contains(&task)
        }
    }

    const A: Region = Region {
        space: SpaceId(1),
        start: 0,
        end: 8,
    };
    const B: Region = Region {
        space: SpaceId(1),
        start: 8,
        end: 16,
    };
    const C: Region = Region {
        space: SpaceId(1),
        start: 16,
        end: 24,
    };
    const D: Region = Region {
        space: SpaceId(1),
        start: 24,
        end: 32,
    };

    #[test]
    fn independent_tasks_are_ready_at_registration() {
        let mut h = Harness::new();
        let t1 = h.spawn_root(&[dep(AccessType::InOut, A)], WaitMode::None);
        let t2 = h.spawn_root(&[dep(AccessType::InOut, B)], WaitMode::None);
        assert!(h.is_ready(t1));
        assert!(h.is_ready(t2));
    }

    #[test]
    fn raw_dependency_defers_successor() {
        let mut h = Harness::new();
        let writer = h.spawn_root(&[dep(AccessType::Out, A)], WaitMode::None);
        let reader = h.spawn_root(&[dep(AccessType::In, A)], WaitMode::None);
        assert!(h.is_ready(writer));
        assert!(!h.is_ready(reader));
        h.finish(writer);
        assert!(h.is_ready(reader));
    }

    /// Counter identity: every registered access is either an exact hit or a fragmented
    /// update, so `exact_hits + fragmented_updates == accesses_registered` — checked here with
    /// every fit exercised: a whole-region re-declaration (exact), a partial overlap (split), and
    /// a writer over the split parts (spanning, whose coalescing heals the region).
    #[test]
    fn matching_tier_accounting_identity() {
        let mut h = Harness::new();
        let half = Region {
            space: SpaceId(1),
            start: 4,
            end: 12,
        };
        let w = h.spawn_root(&[dep(AccessType::Out, A)], WaitMode::None);
        let exact = h.spawn_root(&[dep(AccessType::InOut, A)], WaitMode::None);
        let partial = h.spawn_root(&[dep(AccessType::In, half)], WaitMode::None);
        let healing = h.spawn_root(&[dep(AccessType::Out, A)], WaitMode::None);
        for t in [w, exact, partial, healing] {
            h.finish(t);
        }
        let stats = h.engine.stats();
        assert_eq!(
            stats.exact_hits, 2,
            "the first write fills a gap, the second matches it"
        );
        assert_eq!(
            stats.promotions, 1,
            "the partial read splits the stored fragment"
        );
        assert_eq!(
            stats.fragmented_updates, 2,
            "the split read and the spanning write"
        );
        assert_eq!(
            stats.demotions, 1,
            "the spanning write heals the split region"
        );
        assert_eq!(
            stats.exact_hits + stats.fragmented_updates,
            stats.accesses_registered,
            "every access must be counted once, exact or fragmented"
        );
        h.engine.debug_check_invariants();
    }

    #[test]
    fn readers_run_concurrently_then_writer_waits_for_all() {
        let mut h = Harness::new();
        let w = h.spawn_root(&[dep(AccessType::Out, A)], WaitMode::None);
        h.finish(w);
        let r1 = h.spawn_root(&[dep(AccessType::In, A)], WaitMode::None);
        let r2 = h.spawn_root(&[dep(AccessType::In, A)], WaitMode::None);
        let w2 = h.spawn_root(&[dep(AccessType::InOut, A)], WaitMode::None);
        assert!(h.is_ready(r1));
        assert!(h.is_ready(r2));
        assert!(!h.is_ready(w2));
        h.finish(r1);
        assert!(!h.is_ready(w2), "the second reader is still live");
        h.finish(r2);
        assert!(h.is_ready(w2));
    }

    #[test]
    fn war_dependency_orders_writer_after_reader() {
        let mut h = Harness::new();
        let reader = h.spawn_root(&[dep(AccessType::In, A)], WaitMode::None);
        let writer = h.spawn_root(&[dep(AccessType::Out, A)], WaitMode::None);
        assert!(h.is_ready(reader));
        assert!(!h.is_ready(writer));
        h.finish(reader);
        assert!(h.is_ready(writer));
    }

    #[test]
    fn partially_overlapping_regions_create_partial_dependencies() {
        let mut h = Harness::new();
        let whole = r(1, 0, 16);
        let left = r(1, 0, 8);
        let right = r(1, 8, 16);
        let w = h.spawn_root(&[dep(AccessType::Out, whole)], WaitMode::None);
        let rl = h.spawn_root(&[dep(AccessType::In, left)], WaitMode::None);
        let rr = h.spawn_root(&[dep(AccessType::In, right)], WaitMode::None);
        assert!(!h.is_ready(rl));
        assert!(!h.is_ready(rr));
        h.finish(w);
        assert!(h.is_ready(rl));
        assert!(h.is_ready(rr));
    }

    /// Listing 2 of the paper: a weakwait task hands each fragment over to the child that still
    /// uses it; successors become ready as soon as *that child* finishes.
    #[test]
    fn listing2_weakwait_hands_over_to_live_children() {
        let mut h = Harness::new();
        // T1: inout a, b — weakwait
        let t1 = h.spawn_root(
            &[dep(AccessType::InOut, A), dep(AccessType::InOut, B)],
            WaitMode::WeakWait,
        );
        // T2: in a ; T3: in b
        let t2 = h.spawn_root(&[dep(AccessType::In, A)], WaitMode::None);
        let t3 = h.spawn_root(&[dep(AccessType::In, B)], WaitMode::None);
        assert!(h.is_ready(t1));
        assert!(!h.is_ready(t2));
        assert!(!h.is_ready(t3));

        // T1 runs and spawns T1.1 (inout a) and T1.2 (inout b).
        let t11 = h.spawn(t1, &[dep(AccessType::InOut, A)], WaitMode::None);
        let t12 = h.spawn(t1, &[dep(AccessType::InOut, B)], WaitMode::None);
        assert!(h.is_ready(t11));
        assert!(h.is_ready(t12));

        // T1's body exits (weakwait): nothing is released yet, both fragments are covered.
        h.finish(t1);
        assert!(!h.is_ready(t2));
        assert!(!h.is_ready(t3));

        // T1.1 finishes: the dependency T1 -> T2 over `a` has become T1.1 -> T2 and is released.
        h.finish(t11);
        assert!(
            h.is_ready(t2),
            "T2 must be ready once T1.1 finished (fine-grained release)"
        );
        assert!(!h.is_ready(t3), "T3 still waits for T1.2");

        h.finish(t12);
        assert!(h.is_ready(t3));
        // With all children done, T1 deeply completes.
        assert!(h.engine.is_deeply_completed(t1));
    }

    /// The same structure as listing 2 but with a regular `wait` clause: everything is released
    /// only when *all* children have finished (coarse release).
    #[test]
    fn wait_clause_releases_everything_at_once() {
        let mut h = Harness::new();
        let t1 = h.spawn_root(
            &[dep(AccessType::InOut, A), dep(AccessType::InOut, B)],
            WaitMode::Wait,
        );
        let t2 = h.spawn_root(&[dep(AccessType::In, A)], WaitMode::None);
        let t3 = h.spawn_root(&[dep(AccessType::In, B)], WaitMode::None);
        let t11 = h.spawn(t1, &[dep(AccessType::InOut, A)], WaitMode::None);
        let t12 = h.spawn(t1, &[dep(AccessType::InOut, B)], WaitMode::None);
        h.finish(t1);
        h.finish(t11);
        assert!(
            !h.is_ready(t2),
            "wait clause must not release a before every child finished"
        );
        assert!(!h.is_ready(t3));
        h.finish(t12);
        assert!(h.is_ready(t2));
        assert!(h.is_ready(t3));
    }

    /// Weak accesses never defer the task itself (§VI), but strong accesses of its children
    /// inherit the outer dependency through them.
    #[test]
    fn weak_accesses_do_not_defer_but_children_inherit() {
        let mut h = Harness::new();
        // T1: inout a (strong).
        let t1 = h.spawn_root(&[dep(AccessType::InOut, A)], WaitMode::WeakWait);
        // T2: weakin a — ready immediately even though `a` is not available yet.
        let t2 = h.spawn_root(&[dep(AccessType::WeakIn, A)], WaitMode::WeakWait);
        assert!(h.is_ready(t1));
        assert!(h.is_ready(t2), "weak dependencies must not defer the task");

        // T2 starts and creates T2.1 (in a): it must NOT be ready (inherits the dependency on T1).
        let t21 = h.spawn(t2, &[dep(AccessType::In, A)], WaitMode::None);
        assert!(
            !h.is_ready(t21),
            "the child's strong access inherits the outer dependency"
        );

        // T1 spawns its own child that writes `a` and uses weakwait.
        let t11 = h.spawn(t1, &[dep(AccessType::InOut, A)], WaitMode::None);
        h.finish(t1);
        assert!(!h.is_ready(t21));
        h.finish(t11);
        assert!(
            h.is_ready(t21),
            "satisfaction must propagate through the weak access to T2.1"
        );
    }

    /// Listing 3 / Figure 2 of the paper (reduced to the a/c chain): the behaviour must be
    /// equivalent to a single dependency domain: T2.1 becomes ready as soon as T1.1 finishes,
    /// and T4.1 waits for T2.1 through the weak `c` access of T2 and T4.
    #[test]
    fn listing3_single_domain_equivalence() {
        let mut h = Harness::new();
        // Outer tasks.
        let t1 = h.spawn_root(
            &[dep(AccessType::InOut, A), dep(AccessType::InOut, B)],
            WaitMode::WeakWait,
        );
        let t2 = h.spawn_root(
            &[
                dep(AccessType::WeakIn, A),
                dep(AccessType::WeakIn, B),
                dep(AccessType::WeakOut, C),
                dep(AccessType::WeakOut, D),
            ],
            WaitMode::WeakWait,
        );
        let t4 = h.spawn_root(
            &[dep(AccessType::WeakIn, C), dep(AccessType::WeakIn, D)],
            WaitMode::WeakWait,
        );
        // All outer tasks are ready: no strong conflicts among them (Fig. 2a).
        assert!(h.is_ready(t1) && h.is_ready(t2) && h.is_ready(t4));

        // Inner tasks are instantiated in parallel (Fig. 2b).
        let t11 = h.spawn(t1, &[dep(AccessType::InOut, A)], WaitMode::None);
        let t12 = h.spawn(t1, &[dep(AccessType::InOut, B)], WaitMode::None);
        let t21 = h.spawn(
            t2,
            &[dep(AccessType::In, A), dep(AccessType::Out, C)],
            WaitMode::None,
        );
        let t22 = h.spawn(
            t2,
            &[dep(AccessType::In, B), dep(AccessType::Out, D)],
            WaitMode::None,
        );
        let t41 = h.spawn(t4, &[dep(AccessType::In, C)], WaitMode::None);
        let t42 = h.spawn(t4, &[dep(AccessType::In, D)], WaitMode::None);

        assert!(h.is_ready(t11) && h.is_ready(t12));
        assert!(!h.is_ready(t21) && !h.is_ready(t22));
        assert!(!h.is_ready(t41) && !h.is_ready(t42));

        // Outer bodies finish (they only instantiate subtasks).
        h.finish(t1);
        h.finish(t2);
        h.finish(t4);

        // T1.1 finishes -> only T2.1 (which needs `a`) becomes ready (Fig. 2c).
        h.finish(t11);
        assert!(h.is_ready(t21), "T2.1 must be ready right after T1.1");
        assert!(
            !h.is_ready(t22),
            "T2.2 needs b which is still being written by T1.2"
        );
        assert!(!h.is_ready(t41));

        // T2.1 finishes -> c is released through T2's weakout -> T4.1 becomes ready.
        h.finish(t21);
        assert!(
            h.is_ready(t41),
            "T4.1 must see c through the weak accesses of T2 and T4"
        );
        assert!(!h.is_ready(t42));

        // The remaining chain: T1.2 -> T2.2 -> T4.2.
        h.finish(t12);
        assert!(h.is_ready(t22));
        h.finish(t22);
        assert!(h.is_ready(t42));
        h.finish(t41);
        h.finish(t42);

        assert!(h.engine.is_deeply_completed(t1));
        assert!(h.engine.is_deeply_completed(t2));
        assert!(h.engine.is_deeply_completed(t4));
    }

    /// The nest-depend situation (no weak accesses, strong outer deps): the outer task itself is
    /// deferred and children cannot even be instantiated until the whole predecessor finished —
    /// the behaviour the paper wants to avoid.
    #[test]
    fn strong_nesting_defers_outer_task_instantiation() {
        let mut h = Harness::new();
        let t1 = h.spawn_root(
            &[dep(AccessType::InOut, A), dep(AccessType::InOut, B)],
            WaitMode::None,
        );
        // T2 declares strong in over a and b (it only needs them for its subtasks).
        let t2 = h.spawn_root(
            &[
                dep(AccessType::In, A),
                dep(AccessType::In, B),
                dep(AccessType::Out, C),
            ],
            WaitMode::None,
        );
        assert!(h.is_ready(t1));
        assert!(
            !h.is_ready(t2),
            "strong outer dependencies defer the whole task"
        );
        let t11 = h.spawn(t1, &[dep(AccessType::InOut, A)], WaitMode::None);
        h.finish(t11);
        assert!(!h.is_ready(t2), "t2 needs both a and b");
        // T1 still has a live child? No: t11 finished. Finish t1's body -> releases a and b
        // (WaitMode::None releases at body end).
        h.finish(t1);
        assert!(h.is_ready(t2));
    }

    /// The `release` directive frees fragments before the body ends (§V).
    #[test]
    fn release_directive_releases_early() {
        let mut h = Harness::new();
        let t1 = h.spawn_root(
            &[dep(AccessType::InOut, A), dep(AccessType::InOut, B)],
            WaitMode::None,
        );
        let t2 = h.spawn_root(&[dep(AccessType::In, A)], WaitMode::None);
        let t3 = h.spawn_root(&[dep(AccessType::In, B)], WaitMode::None);
        assert!(!h.is_ready(t2) && !h.is_ready(t3));
        // T1 is running; it asserts it will no longer touch `a`.
        h.release(t1, A);
        assert!(h.is_ready(t2), "release directive must free a immediately");
        assert!(!h.is_ready(t3));
        h.finish(t1);
        assert!(h.is_ready(t3));
    }

    /// The `release` directive combined with live children: the released region is handed over
    /// to the live child covering it, not released outright.
    #[test]
    fn release_directive_respects_live_children() {
        let mut h = Harness::new();
        let t1 = h.spawn_root(&[dep(AccessType::InOut, A)], WaitMode::WeakWait);
        let t2 = h.spawn_root(&[dep(AccessType::In, A)], WaitMode::None);
        let t11 = h.spawn(t1, &[dep(AccessType::InOut, A)], WaitMode::None);
        assert!(h.is_ready(t11));
        // T1 releases `a` while T1.1 is still running: T2 must stay deferred.
        h.release(t1, A);
        assert!(!h.is_ready(t2));
        h.finish(t11);
        assert!(
            h.is_ready(t2),
            "after the covering child finishes the hand-over completes"
        );
        h.finish(t1);
    }

    /// Weakwait with partially overlapping child regions: each sub-block is handed over and
    /// released individually (the axpy pattern of §VII).
    #[test]
    fn weakwait_partial_overlap_releases_per_block() {
        let mut h = Harness::new();
        let whole = r(1, 0, 32);
        let blocks: Vec<Region> = (0..4).map(|i| r(1, i * 8, (i + 1) * 8)).collect();

        // Call 1: outer weakinout over the whole array, children per block.
        let outer1 = h.spawn_root(&[dep(AccessType::WeakInOut, whole)], WaitMode::WeakWait);
        let children1: Vec<TaskId> = blocks
            .iter()
            .map(|b| h.spawn(outer1, &[dep(AccessType::InOut, *b)], WaitMode::None))
            .collect();
        // Call 2: same structure, depends on call 1 per block.
        let outer2 = h.spawn_root(&[dep(AccessType::WeakInOut, whole)], WaitMode::WeakWait);
        let children2: Vec<TaskId> = blocks
            .iter()
            .map(|b| h.spawn(outer2, &[dep(AccessType::InOut, *b)], WaitMode::None))
            .collect();

        assert!(
            h.is_ready(outer1) && h.is_ready(outer2),
            "outer tasks carry only weak deps"
        );
        for c in &children1 {
            assert!(h.is_ready(*c));
        }
        for c in &children2 {
            assert!(!h.is_ready(*c), "call-2 blocks depend on call-1 blocks");
        }

        h.finish(outer1);
        h.finish(outer2);

        // Finishing block 2 of call 1 readies exactly block 2 of call 2.
        h.finish(children1[2]);
        assert!(h.is_ready(children2[2]));
        assert!(!h.is_ready(children2[0]));
        assert!(!h.is_ready(children2[1]));
        assert!(!h.is_ready(children2[3]));

        h.finish(children1[0]);
        h.finish(children1[1]);
        h.finish(children1[3]);
        for c in &children2 {
            assert!(h.is_ready(*c));
        }
        for c in children2.clone() {
            h.finish(c);
        }
        assert!(h.engine.is_deeply_completed(outer1));
        assert!(h.engine.is_deeply_completed(outer2));
    }

    /// Nested weak dependencies across three levels: satisfaction must flow through every level.
    #[test]
    fn three_level_nesting_propagates_satisfaction() {
        let mut h = Harness::new();
        let producer = h.spawn_root(&[dep(AccessType::Out, A)], WaitMode::None);
        let outer = h.spawn_root(&[dep(AccessType::WeakIn, A)], WaitMode::WeakWait);
        let middle = h.spawn(outer, &[dep(AccessType::WeakIn, A)], WaitMode::WeakWait);
        let leaf = h.spawn(middle, &[dep(AccessType::In, A)], WaitMode::None);
        assert!(h.is_ready(producer));
        assert!(h.is_ready(outer));
        assert!(h.is_ready(middle));
        assert!(!h.is_ready(leaf));
        h.finish(producer);
        assert!(
            h.is_ready(leaf),
            "satisfaction must traverse two weak levels"
        );
        h.finish(leaf);
        h.finish(middle);
        h.finish(outer);
        assert!(h.engine.is_deeply_completed(outer));
    }

    /// Release flows upwards across three levels: an outer successor waits for the deepest leaf.
    #[test]
    fn three_level_nesting_propagates_release_upwards() {
        let mut h = Harness::new();
        let outer = h.spawn_root(&[dep(AccessType::InOut, A)], WaitMode::WeakWait);
        let successor = h.spawn_root(&[dep(AccessType::In, A)], WaitMode::None);
        let middle = h.spawn(outer, &[dep(AccessType::WeakInOut, A)], WaitMode::WeakWait);
        let leaf = h.spawn(middle, &[dep(AccessType::InOut, A)], WaitMode::None);
        h.finish(outer);
        h.finish(middle);
        assert!(!h.is_ready(successor), "the leaf still holds a");
        h.finish(leaf);
        assert!(
            h.is_ready(successor),
            "release must climb from the leaf through both levels"
        );
    }

    /// Deep completion: parents complete only after all descendants, and the effects report it.
    #[test]
    fn deep_completion_propagates_to_ancestors() {
        let mut h = Harness::new();
        let outer = h.spawn_root(&[], WaitMode::Wait);
        let middle = h.spawn(outer, &[], WaitMode::Wait);
        let leaf = h.spawn(middle, &[], WaitMode::None);
        h.finish(outer);
        h.finish(middle);
        assert!(!h.engine.is_deeply_completed(outer));
        assert!(!h.engine.is_deeply_completed(middle));
        h.finish(leaf);
        assert!(h.engine.is_deeply_completed(leaf));
        assert!(h.engine.is_deeply_completed(middle));
        assert!(h.engine.is_deeply_completed(outer));
        assert_eq!(h.engine.live_children(outer), 0);
    }

    #[test]
    fn live_children_counts_direct_children_only() {
        let mut h = Harness::new();
        let outer = h.spawn_root(&[], WaitMode::Wait);
        let _c1 = h.spawn(outer, &[], WaitMode::None);
        let c2 = h.spawn(outer, &[], WaitMode::Wait);
        let _g1 = h.spawn(c2, &[], WaitMode::None);
        assert_eq!(h.engine.live_children(outer), 2);
        assert_eq!(h.engine.live_children(c2), 1);
    }

    #[test]
    fn out_and_inout_behave_as_writes() {
        let mut h = Harness::new();
        let w1 = h.spawn_root(&[dep(AccessType::Out, A)], WaitMode::None);
        let w2 = h.spawn_root(&[dep(AccessType::InOut, A)], WaitMode::None);
        let w3 = h.spawn_root(&[dep(AccessType::Out, A)], WaitMode::None);
        assert!(h.is_ready(w1));
        assert!(!h.is_ready(w2));
        assert!(!h.is_ready(w3));
        h.finish(w1);
        assert!(h.is_ready(w2));
        assert!(!h.is_ready(w3));
        h.finish(w2);
        assert!(h.is_ready(w3));
    }

    #[test]
    fn tasks_without_dependencies_complete_standalone() {
        let mut h = Harness::new();
        let t = h.spawn_root(&[], WaitMode::None);
        assert!(h.is_ready(t));
        h.finish(t);
        assert!(h.engine.is_deeply_completed(t));
    }

    #[test]
    fn stats_are_tracked() {
        let mut h = Harness::new();
        let t1 = h.spawn_root(&[dep(AccessType::Out, A)], WaitMode::WeakWait);
        let _t2 = h.spawn_root(&[dep(AccessType::In, A)], WaitMode::None);
        let _t11 = h.spawn(t1, &[dep(AccessType::Out, A)], WaitMode::None);
        let stats = h.engine.stats();
        assert_eq!(stats.tasks_registered, 4); // root + 3
        assert_eq!(stats.accesses_registered, 3);
        assert!(stats.release_edges >= 1);
        assert!(stats.ready_at_registration >= 1);
    }

    /// Batch registration must be equivalent to a loop of single registrations.
    #[test]
    fn batch_registration_matches_sequential() {
        let mut h = Harness::new();
        let writer = h.spawn_root(&[dep(AccessType::Out, A)], WaitMode::None);
        let specs: Vec<(Vec<Depend>, WaitMode)> = vec![
            (vec![dep(AccessType::In, A)], WaitMode::None),
            (vec![dep(AccessType::InOut, B)], WaitMode::None),
            (vec![dep(AccessType::In, A)], WaitMode::None),
        ];
        let normalized: Vec<(Vec<crate::access::NormalizedDep>, WaitMode)> = specs
            .iter()
            .map(|(deps, mode)| (normalize_deps(deps), *mode))
            .collect();
        let results = h
            .engine
            .register_batch(
                h.root,
                normalized
                    .iter()
                    .map(|(deps, mode)| (deps.as_slice(), *mode)),
            )
            .expect("live parent");
        assert_eq!(results.len(), 3);
        let (reader1, ready1) = results[0];
        let (independent, ready2) = results[1];
        let (reader2, ready3) = results[2];
        assert!(!ready1, "readers of A wait for the writer");
        assert!(ready2, "B is untouched: ready at registration");
        assert!(!ready3);
        h.finish(writer);
        assert!(h.is_ready(reader1));
        assert!(h.is_ready(reader2));
        h.finish(reader1);
        h.finish(reader2);
        let effects = h.engine.body_finished(independent).expect("live task");
        assert_eq!(effects.deeply_completed, 1);
        assert!(h.engine.is_deeply_completed(independent));
    }

    /// Engine slabs must recycle node and scheduling slots of deeply completed tasks.
    #[test]
    fn slots_are_recycled_after_deep_completion() {
        let h = std::cell::RefCell::new(Harness::new());
        for _ in 0..100 {
            let t = {
                let mut hh = h.borrow_mut();
                hh.spawn_root(&[dep(AccessType::InOut, A)], WaitMode::None)
            };
            h.borrow_mut().finish(t);
        }
        let hh = h.borrow();
        let root_entry = hh.engine.entry(hh.root).expect("root is live");
        let domain = root_entry.domain.lock();
        assert!(
            domain.nodes.len() < 20,
            "node slab must recycle slots (got {} slots for 100 sequential tasks)",
            domain.nodes.len()
        );
        assert!(
            domain.sched.len() < 20,
            "sched slab must recycle slots (got {} slots for 100 sequential tasks)",
            domain.sched.len()
        );
    }

    /// Retirement: a deeply completed, fully released task leaves the id index; its id turns
    /// stale with defined semantics instead of panicking or aliasing.
    #[test]
    fn retired_ids_report_stale_with_defined_semantics() {
        let mut h = Harness::new();
        let t1 = h.spawn_root(&[dep(AccessType::InOut, A)], WaitMode::None);
        assert_eq!(h.engine.try_is_deeply_completed(t1), Ok(false));
        h.finish(t1);
        // t1 is retired: the typed query errors, the conveniences answer for a completed task.
        assert_eq!(h.engine.try_is_deeply_completed(t1), Err(StaleTaskId(t1)));
        assert_eq!(h.engine.try_live_children(t1), Err(StaleTaskId(t1)));
        assert!(h.engine.is_deeply_completed(t1));
        assert!(h.engine.is_scheduled(t1));
        assert_eq!(h.engine.live_children(t1), 0);
        assert_eq!(h.engine.parent(t1), None);
        assert_eq!(h.engine.stats().tasks_retired, 1);
    }

    /// The mutation entry points report [`StaleTaskId`] like the query API — a retired-task
    /// operation is a defined error on every path, never an internal panic.
    #[test]
    fn mutations_on_retired_ids_error_instead_of_panicking() {
        let mut h = Harness::new();
        let t1 = h.spawn_root(&[dep(AccessType::InOut, A)], WaitMode::None);
        h.finish(t1);
        // t1 is retired: spawning from it, finishing it again and releasing through it all
        // surface the same typed error.
        assert!(matches!(
            h.engine.register_task(t1, &[dep(AccessType::In, B)], WaitMode::None),
            Err(StaleTaskId(stale)) if stale == t1
        ));
        let normalized = normalize_deps(&[dep(AccessType::In, B)]);
        assert!(matches!(
            h.engine.register_batch(t1, [(normalized.as_slice(), WaitMode::None)]),
            Err(StaleTaskId(stale)) if stale == t1
        ));
        assert_eq!(h.engine.body_finished(t1).err(), Some(StaleTaskId(t1)));
        assert_eq!(h.engine.release_region(t1, A).err(), Some(StaleTaskId(t1)));
    }

    /// Slot reuse bumps the generation: the stale id of the previous occupant never reads the
    /// state of the new one.
    #[test]
    fn recycled_slots_never_alias_previous_ids() {
        let mut h = Harness::new();
        let t1 = h.spawn_root(&[dep(AccessType::InOut, A)], WaitMode::None);
        h.finish(t1);
        let t2 = h.spawn_root(&[dep(AccessType::InOut, A)], WaitMode::None);
        // Single-threaded: the only free id is t1's, so t2 must reuse its index.
        assert_eq!(t2.index(), t1.index(), "t2 must recycle t1's index");
        assert_ne!(t2.generation(), t1.generation());
        assert_ne!(t1, t2);
        // t2 is live and not completed; t1 stays stale — never Ok(false) through t2's slot.
        assert_eq!(h.engine.try_is_deeply_completed(t2), Ok(false));
        assert_eq!(h.engine.try_is_deeply_completed(t1), Err(StaleTaskId(t1)));
        h.finish(t2);
        assert_eq!(h.engine.try_is_deeply_completed(t1), Err(StaleTaskId(t1)));
    }

    /// A retire files the id under the retiring thread's home free list, and a thread whose
    /// home is another list still reuses it: the slot comes back with its generation bumped,
    /// and the retired id turns stale.
    #[test]
    fn an_id_retired_on_one_thread_is_reused_on_another() {
        let engine = DependencyEngine::new();
        let root = engine.register_root();
        let (task, ready) = engine
            .register_task(root, &[], WaitMode::None)
            .expect("live root");
        assert!(ready);
        let retired_home = std::thread::scope(|s| {
            s.spawn(|| {
                engine.body_finished(task).expect("live task");
                thread_slot()
            })
            .join()
            .unwrap()
        });
        assert_eq!(engine.try_is_deeply_completed(task), Err(StaleTaskId(task)));
        // Homes are handed out round-robin, so one of the next `THREAD_SLOTS` threads has another.
        let reused = std::thread::scope(|s| loop {
            let other = s
                .spawn(|| {
                    (thread_slot() != retired_home).then(|| {
                        engine
                            .register_task(root, &[], WaitMode::None)
                            .expect("live root")
                            .0
                    })
                })
                .join()
                .unwrap();
            if let Some(id) = other {
                break id;
            }
        });
        assert_eq!(reused.index(), task.index(), "the retired slot is reused");
        assert_eq!(reused.generation(), task.generation() + 1);
        assert_eq!(engine.try_is_deeply_completed(task), Err(StaleTaskId(task)));
        assert_eq!(engine.try_is_deeply_completed(reused), Ok(false));
        assert_eq!(engine.ids_minted(), 2, "no fresh index was minted");
    }

    /// Steady-state spawn/finish through one engine keeps the minted ids at the live high-water
    /// mark instead of growing with every task ever registered, and the id index holds exactly
    /// the live tasks.
    #[test]
    fn minted_ids_plateau_under_steady_state() {
        let mut h = Harness::new();
        for _ in 0..1_000 {
            let t = h.spawn_root(&[dep(AccessType::InOut, A)], WaitMode::None);
            h.finish(t);
        }
        let stats = h.engine.stats();
        assert_eq!(stats.tasks_registered, 1_001); // root + 1000
        assert_eq!(stats.tasks_retired, 1_000); // everything but the live root
        assert_eq!(h.engine.live_tasks(), 1);
        // Cross-check the counter-derived live count against the id index's occupancy.
        assert_eq!(
            h.engine.indexed(),
            h.engine.live_tasks(),
            "the index holds the live tasks"
        );
        assert!(
            h.engine.ids_minted() <= 16,
            "ids must plateau at the live high-water mark (got {} for 1000 tasks)",
            h.engine.ids_minted()
        );
    }

    /// Out-of-range ids (e.g. from another engine) are a defined error, not an index panic.
    #[test]
    fn unknown_ids_error_instead_of_panicking() {
        let engine = DependencyEngine::new();
        let foreign = TaskId::synthetic(12_345);
        assert_eq!(
            engine.try_is_deeply_completed(foreign),
            Err(StaleTaskId(foreign))
        );
        assert_eq!(engine.try_live_children(foreign), Err(StaleTaskId(foreign)));
        assert_eq!(engine.parent(foreign), None);
    }

    /// Synthetic ids carry a reserved generation no engine ever mints: even one whose index
    /// collides with a live task must error, never read that task's state.
    #[test]
    fn synthetic_ids_never_alias_live_tasks() {
        let engine = DependencyEngine::new();
        let root = engine.register_root();
        let fake = TaskId::synthetic(root.index());
        assert_ne!(fake, root);
        assert_eq!(fake.generation(), TaskId::SYNTHETIC_GENERATION);
        assert_eq!(engine.try_is_deeply_completed(fake), Err(StaleTaskId(fake)));
        assert_eq!(engine.try_is_deeply_completed(root), Ok(false));
    }

    /// Pre-normalised registration relies on `normalize_deps`' order (the own-access search
    /// depends on it); debug builds reject an unsorted, overlapping clause.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "normalize_deps output")]
    fn unnormalized_dependencies_are_rejected() {
        let engine = DependencyEngine::new();
        let root = engine.register_root();
        let dep = |start, end| NormalizedDep {
            region: r(1, start, end),
            is_write: true,
            weak: false,
        };
        let _ = engine.register_task_normalized(root, &[dep(8, 16), dep(0, 10)], WaitMode::None);
    }

    /// A task's children are registered by its running body, so its strong accesses are
    /// satisfied and need no pending-down mirror; debug builds reject a child registered under
    /// a parent whose strong access still waits for a writer.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "before it is ready")]
    fn registering_under_a_parent_that_is_not_ready_is_rejected() {
        let mut h = Harness::new();
        let _writer = h.spawn_root(&[dep(AccessType::Out, A)], WaitMode::None);
        let parent = h.spawn_root(&[dep(AccessType::InOut, A)], WaitMode::None);
        assert!(!h.is_ready(parent));
        let _ = h
            .engine
            .register_task(parent, &[dep(AccessType::In, A)], WaitMode::None);
    }

    /// Randomised single-domain dependency check: execute tasks in any legal engine order and
    /// verify that conflicting accesses respect program order.
    #[test]
    fn randomized_flat_graphs_respect_program_order() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        for seed in 0..20u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut h = Harness::new();
            let n_tasks = 30;
            let n_regions = 6usize;
            // Random declarations.
            let mut decls: Vec<Vec<Depend>> = Vec::new();
            let mut ids = Vec::new();
            for _ in 0..n_tasks {
                let mut deps = Vec::new();
                let count = rng.gen_range(1..=3);
                for _ in 0..count {
                    let region_idx = rng.gen_range(0..n_regions);
                    let region = r(1, region_idx * 10, region_idx * 10 + 10);
                    let access = match rng.gen_range(0..3) {
                        0 => AccessType::In,
                        1 => AccessType::Out,
                        _ => AccessType::InOut,
                    };
                    deps.push(Depend::new(access, region));
                }
                decls.push(deps);
            }
            for deps in &decls {
                let id = h.spawn_root(deps, WaitMode::None);
                ids.push(id);
            }
            // Execute: repeatedly finish a random ready-but-unfinished task.
            let mut finished = vec![false; n_tasks];
            let mut finish_order = Vec::new();
            loop {
                let candidates: Vec<usize> = (0..n_tasks)
                    .filter(|&i| !finished[i] && h.is_ready(ids[i]))
                    .collect();
                if candidates.is_empty() {
                    break;
                }
                let pick = candidates[rng.gen_range(0..candidates.len())];
                finished[pick] = true;
                finish_order.push(pick);
                h.finish(ids[pick]);
            }
            assert!(
                finished.iter().all(|&f| f),
                "seed {seed}: all tasks must eventually run"
            );
            // Check pairwise ordering of conflicting accesses: if task i precedes task j in
            // program order and they conflict (same region, at least one write), then i must
            // finish before j starts; since we only track finish order and tasks are atomic in
            // this model, i must appear before j in finish_order.
            let position: Vec<usize> = {
                let mut pos = vec![0; n_tasks];
                for (p, &t) in finish_order.iter().enumerate() {
                    pos[t] = p;
                }
                pos
            };
            for i in 0..n_tasks {
                for j in (i + 1)..n_tasks {
                    let conflict = decls[i].iter().any(|a| {
                        decls[j].iter().any(|b| {
                            a.region.intersects(&b.region)
                                && (a.access.is_write() || b.access.is_write())
                        })
                    });
                    if conflict {
                        assert!(
                            position[i] < position[j],
                            "seed {seed}: task {i} must complete before task {j}"
                        );
                    }
                }
            }
        }
    }

    /// A payload that is neither `Copy` nor `Clone` and counts its drops, so a duplicated or
    /// leaked payload shows in the count. It carries its own dependencies, as the runtime's
    /// task record does.
    struct Counted {
        id: TaskId,
        deps: Vec<NormalizedDep>,
        /// Attached by registration, as the runtime's task record holds its entry.
        entry: Option<Arc<TaskEntry<Counted>>>,
        drops: Arc<AtomicUsize>,
    }

    impl Drop for Counted {
        fn drop(&mut self) {
            self.drops.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Every task of a small graph: `(parent index or root, dependencies, wait mode)`, in
    /// registration order. Chains, a reader group, partial overlaps and a `weakwait` parent
    /// whose children link through it.
    fn payload_graph() -> Vec<(Option<usize>, Vec<Depend>, WaitMode)> {
        let (x, y) = (r(1, 0, 64), r(2, 0, 64));
        vec![
            (None, vec![dep(AccessType::Out, x)], WaitMode::None),
            (None, vec![dep(AccessType::In, r(1, 0, 32))], WaitMode::None),
            (
                None,
                vec![dep(AccessType::In, r(1, 16, 48))],
                WaitMode::None,
            ),
            (
                None,
                vec![dep(AccessType::InOut, r(1, 8, 40))],
                WaitMode::None,
            ),
            (
                None,
                vec![dep(AccessType::WeakIn, x), dep(AccessType::WeakInOut, y)],
                WaitMode::WeakWait,
            ),
            (
                Some(4),
                vec![
                    dep(AccessType::In, r(1, 0, 16)),
                    dep(AccessType::InOut, r(2, 0, 32)),
                ],
                WaitMode::None,
            ),
            (
                Some(4),
                vec![dep(AccessType::InOut, r(2, 32, 64))],
                WaitMode::None,
            ),
            (
                Some(4),
                vec![dep(AccessType::InOut, r(2, 0, 64))],
                WaitMode::None,
            ),
            (None, vec![dep(AccessType::InOut, y)], WaitMode::Wait),
            (None, vec![], WaitMode::None),
        ]
    }

    /// A payload ready at registration comes straight back; every other one leaves exactly once
    /// through `Effects::ready`, in the order the `TaskId` engine reports the same ids; after
    /// a full drain each payload has been dropped exactly once.
    #[test]
    fn payloads_leave_once_in_the_id_engines_ready_order() {
        let graph = payload_graph();

        // The reference run: the public API, whose payload is the id.
        let by_id = DependencyEngine::new();
        let root = by_id.register_root();
        let mut ids: Vec<TaskId> = Vec::new();
        let mut queue: VecDeque<TaskId> = VecDeque::from([root]);
        for (parent, deps, mode) in &graph {
            let parent = parent.map_or(root, |p| ids[p]);
            let (id, ready) = by_id
                .register_task(parent, deps, *mode)
                .expect("live parent");
            ids.push(id);
            queue.extend(ready.then_some(id));
        }
        let mut expected = Vec::new();
        while let Some(task) = queue.pop_front() {
            expected.push(task);
            queue.extend(by_id.body_finished(task).expect("live task").ready);
        }

        // The runtime's way: every call goes through an entry, never through the table.
        let engine: DependencyEngine<Counted> = DependencyEngine::default();
        let drops = Arc::new(AtomicUsize::new(0));
        let root = engine.register_root_entry();
        let mut entries: Vec<Arc<TaskEntry<Counted>>> = Vec::new();
        let mut queue: VecDeque<Counted> = VecDeque::new();
        for (parent, deps, mode) in &graph {
            let parent = Arc::clone(parent.map_or(&root, |p| &entries[p]));
            let id = engine.reserve_id();
            let payload = Counted {
                id,
                deps: normalize_deps(deps),
                entry: None,
                drops: Arc::clone(&drops),
            };
            let mut ready = None;
            engine.register_payloads(
                &parent,
                [(id, payload, *mode)],
                |p| &p.deps,
                |p, entry| {
                    entries.push(Arc::clone(&entry));
                    p.entry = Some(entry);
                },
                |p| ready = Some(p),
            );
            if let Some(payload) = ready {
                assert_eq!(payload.id, id, "a ready task's own payload comes back");
                queue.push_back(payload);
            }
        }
        assert_eq!(
            drops.load(Ordering::Relaxed),
            0,
            "registration drops no payload"
        );
        assert_eq!(queue.len(), engine.stats().ready_at_registration);
        assert!(queue.len() < graph.len(), "some payloads park");
        let mut order = vec![root.id];
        let mut cascade = Cascade::new();
        let mut finish = |entry: &Arc<TaskEntry<Counted>>| {
            let mut effects = Effects::default();
            engine.finish_body(entry, &mut cascade, &mut effects);
            engine.pump(&mut cascade, &mut effects);
            engine.recycle(&effects.retired);
            effects.ready
        };
        queue.extend(finish(&root));
        while let Some(payload) = queue.pop_front() {
            order.push(payload.id);
            let entry = payload
                .entry
                .as_ref()
                .expect("registration attached the entry");
            assert_eq!(entry.id, payload.id);
            queue.extend(finish(entry));
        }
        assert_eq!(engine.indexed(), 0, "the runtime's way fills no id index");
        assert_eq!(order, expected, "same finish order as the TaskId engine");
        assert_eq!(order.len(), graph.len() + 1, "the graph drains");
        assert_eq!(
            drops.load(Ordering::Relaxed),
            graph.len(),
            "each payload dropped once"
        );
        drop(engine);
        assert_eq!(
            drops.load(Ordering::Relaxed),
            graph.len(),
            "the engine kept no payload"
        );
    }

    /// Over a drained replay each task is retired exactly once: its id appears once in the
    /// `retired` lists of the effects, those lists add up to `tasks_retired`, and the id index
    /// is empty at the end.
    #[test]
    fn each_task_is_reported_retired_exactly_once() {
        let engine = DependencyEngine::new();
        let root = engine.register_root();
        let mut ids = vec![root];
        let mut queue: VecDeque<TaskId> = VecDeque::from([root]);
        for (parent, deps, mode) in payload_graph() {
            let parent = parent.map_or(root, |p| ids[p + 1]);
            let (id, ready) = engine
                .register_task(parent, &deps, mode)
                .expect("live parent");
            ids.push(id);
            queue.extend(ready.then_some(id));
        }
        let mut retired = Vec::new();
        while let Some(task) = queue.pop_front() {
            let effects = engine.body_finished(task).expect("live task");
            queue.extend(effects.ready);
            retired.extend(effects.retired);
        }
        assert_eq!(retired.len(), engine.stats().tasks_retired);
        retired.sort();
        ids.sort();
        assert_eq!(retired, ids, "every task retired, each once");
        assert_eq!(engine.indexed(), 0, "retired tasks leave the id index");
    }

    /// Finishes `group` as a retire batch does: each body's own-domain step appends its
    /// messages to one cascade, and one pump applies them all.
    fn finish_group(engine: &DependencyEngine, group: &[TaskId]) -> Effects {
        let mut cascade = Cascade::new();
        let mut effects = Effects::default();
        for &task in group {
            let entry = engine.entry(task).expect("live task");
            engine.finish_body(&entry, &mut cascade, &mut effects);
        }
        engine.pump(&mut cascade, &mut effects);
        engine.unindex(&effects, cascade);
        effects
    }

    /// A `weakwait` outer over `x` and `y` with one leaf per block, followed by a second outer
    /// over the same vectors with one leaf per block, each waiting on the first outer's leaf
    /// of its block. Returns the engine, the two outers, the first outer's leaves and the
    /// second outer's.
    fn two_waves(blocks: usize) -> (DependencyEngine, [TaskId; 2], Vec<TaskId>, Vec<TaskId>) {
        const BLOCK: usize = 64;
        let engine = DependencyEngine::new();
        let root = engine.register_root();
        let (x, y) = (r(1, 0, blocks * BLOCK), r(2, 0, blocks * BLOCK));
        let weak = [dep(AccessType::WeakIn, x), dep(AccessType::WeakInOut, y)];
        let mut waves = Vec::new();
        let mut outers = [root; 2];
        for outer in &mut outers {
            let (id, ready) = engine
                .register_task(root, &weak, WaitMode::WeakWait)
                .expect("live root");
            assert!(ready, "weak accesses never defer a task");
            *outer = id;
            let leaves: Vec<(TaskId, bool)> = (0..blocks)
                .map(|i| {
                    let block = |space| r(space, i * BLOCK, (i + 1) * BLOCK);
                    let deps = [
                        dep(AccessType::In, block(1)),
                        dep(AccessType::InOut, block(2)),
                    ];
                    engine
                        .register_task(id, &deps, WaitMode::None)
                        .expect("live outer")
                })
                .collect();
            waves.push(leaves);
        }
        assert!(waves[0].iter().all(|&(_, ready)| ready));
        assert!(waves[1].iter().all(|&(_, ready)| !ready));
        for outer in outers {
            let effects = engine.body_finished(outer).expect("live outer");
            assert!(effects.ready.is_empty(), "every block is covered by a leaf");
        }
        let ids = |wave: &[(TaskId, bool)]| wave.iter().map(|&(id, _)| id).collect();
        let (first, second) = (ids(&waves[0]), ids(&waves[1]));
        (engine, outers, first, second)
    }

    /// A retire batch of 32 sibling leaves hands its `weakwait` parent's two accesses over as
    /// one range each: two `CompleteUp`s reach the grandparent, not 64, and every leaf of the
    /// next outer becomes ready.
    #[test]
    fn a_batch_of_siblings_hands_over_one_range_per_access() {
        let (engine, [first, _], leaves, followers) = two_waves(32);
        let before = engine.stats();
        let effects = finish_group(&engine, &leaves);
        let after = engine.stats();
        assert_eq!(after.complete_up_messages - before.complete_up_messages, 2);
        assert_eq!(after.incremental_releases - before.incremental_releases, 2);
        assert_eq!(after.child_done_messages - before.child_done_messages, 33);
        assert!(engine.is_deeply_completed(first));
        let mut ready = effects.ready;
        ready.sort();
        let mut expected = followers;
        expected.sort();
        assert_eq!(ready, expected, "every leaf of the second outer is ready");
    }

    /// A pump run that leaves the parent's other children live still sends the run's
    /// hand-overs when it leaves the parent's domain: the batch's blocks reach the next outer,
    /// the other blocks stay held by their leaves.
    #[test]
    fn a_run_that_leaves_siblings_live_sends_its_hand_overs() {
        let (engine, [first, _], leaves, followers) = two_waves(32);
        for half in [0..16, 16..32] {
            let before = engine.stats();
            let mut ready = finish_group(&engine, &leaves[half.clone()]).ready;
            let after = engine.stats();
            assert_eq!(after.complete_up_messages - before.complete_up_messages, 2);
            ready.sort();
            let mut expected = followers[half].to_vec();
            expected.sort();
            assert_eq!(
                ready, expected,
                "the next outer's leaves of the finished blocks"
            );
        }
        assert!(engine.is_deeply_completed(first));
    }

    /// One task of a generated graph: its parent (an index into the graph; `None` for the
    /// root), dependencies, wait mode, and the region its body releases before it ends.
    struct GenTask {
        parent: Option<usize>,
        deps: Vec<Depend>,
        mode: WaitMode,
        release: Option<Region>,
    }

    /// A random sub-range of `[lo, hi)` on a grid of 4, so siblings' ranges touch and overlap.
    fn sub_span(rng: &mut rand::rngs::SmallRng, (lo, hi): (usize, usize)) -> (usize, usize) {
        use rand::Rng;
        let cells = (hi - lo) / 4;
        let start = rng.gen_range(0..cells);
        let end = rng.gen_range(start + 1..=cells);
        (lo + start * 4, lo + end * 4)
    }

    /// Appends 2–6 children of `parent` (3 of the root) over sub-ranges of `span` in spaces 1
    /// and 2: strong leaves, now and then with a weak access too, and (at `depth` 1 and 2)
    /// nested tasks with weak accesses and children of their own, most of them `weakwait`. A
    /// quarter of the tasks release a sub-range before their body ends.
    fn gen_children(
        rng: &mut rand::rngs::SmallRng,
        graph: &mut Vec<GenTask>,
        parent: Option<usize>,
        span: (usize, usize),
        depth: usize,
    ) {
        use rand::Rng;
        let count = if parent.is_none() {
            3
        } else {
            rng.gen_range(2..=6)
        };
        for _ in 0..count {
            let (start, end) = sub_span(rng, span);
            let nested = depth < 3 && (parent.is_none() || rng.gen_bool(0.3));
            let weak = [
                AccessType::WeakIn,
                AccessType::WeakOut,
                AccessType::WeakInOut,
            ];
            let strong = [AccessType::In, AccessType::Out, AccessType::InOut];
            let mut deps = Vec::new();
            for space in 1..=2 {
                if !nested && rng.gen_bool(0.3) {
                    continue;
                }
                let kinds = if nested || rng.gen_bool(0.15) {
                    &weak
                } else {
                    &strong
                };
                deps.push(dep(kinds[rng.gen_range(0..3)], r(space, start, end)));
            }
            let mode = match (nested, rng.gen_range(0..8)) {
                (true, 0) => WaitMode::Wait,
                (true, 1) => WaitMode::None,
                (true, _) => WaitMode::WeakWait,
                (false, _) => WaitMode::None,
            };
            let release = (!deps.is_empty() && rng.gen_bool(0.25)).then(|| {
                let (from, to) = sub_span(rng, (start, end));
                r(rng.gen_range(1..=2), from, to)
            });
            let at = graph.len();
            graph.push(GenTask {
                parent,
                deps,
                mode,
                release,
            });
            if nested {
                gen_children(rng, graph, Some(at), (start, end), depth + 1);
            }
        }
    }

    /// One engine driven through a generated graph: the ids by graph index, and which tasks
    /// were reported ready and have finished.
    struct GenRun {
        engine: DependencyEngine,
        ids: Vec<TaskId>,
        ready: Vec<bool>,
        finished: Vec<bool>,
    }

    impl GenRun {
        fn new(graph: &[GenTask]) -> Self {
            let engine = DependencyEngine::new();
            let root = engine.register_root();
            let mut run = GenRun {
                engine,
                ids: Vec::new(),
                ready: Vec::new(),
                finished: vec![false; graph.len()],
            };
            for task in graph {
                let parent = task.parent.map_or(root, |p| run.ids[p]);
                let (id, ready) = run
                    .engine
                    .register_task(parent, &task.deps, task.mode)
                    .expect("live parent");
                run.ids.push(id);
                run.ready.push(ready);
            }
            // The root's body ends once it has spawned the graph.
            let effects = run.engine.body_finished(root).expect("live root");
            run.mark(effects);
            run
        }

        fn mark(&mut self, effects: Effects) {
            for task in effects.ready {
                let at = self
                    .ids
                    .iter()
                    .position(|&id| id == task)
                    .expect("a graph task");
                assert!(!self.ready[at], "{task:?} reported ready twice");
                self.ready[at] = true;
            }
        }

        /// Runs the bodies of `group`: the `release` of those that have one, each drained at
        /// once as a body's release is.
        fn run_bodies(&mut self, graph: &[GenTask], group: &[usize]) {
            for &at in group {
                if let Some(region) = graph[at].release {
                    let effects = self.engine.release_region(self.ids[at], region);
                    self.mark(effects.expect("running task"));
                }
            }
        }

        fn finish(&mut self, group: &[usize], batched: bool) {
            let ids: Vec<TaskId> = group.iter().map(|&at| self.ids[at]).collect();
            if batched {
                let effects = finish_group(&self.engine, &ids);
                self.mark(effects);
            } else {
                for task in ids {
                    let effects = self.engine.body_finished(task).expect("live task");
                    self.mark(effects);
                }
            }
            for &at in group {
                self.finished[at] = true;
            }
        }

        fn deeply_completed(&self) -> Vec<bool> {
            let done = |&id| self.engine.is_deeply_completed(id);
            self.ids.iter().map(done).collect()
        }
    }

    /// Differential check of the held hand-over: random nested `weakwait` graphs, whose
    /// children declare touching and overlapping strong and weak ranges and some of which
    /// `release`, run on two engines. Ready leaves finish in random groups — on one engine
    /// through one cascade per group, as a retire batch applies them, on the other one at a
    /// time — and tasks with children one at a time on both. After every group both report
    /// the same tasks ready and deeply complete, and at the end the same counters, except
    /// that merged hand-overs may send fewer `CompleteUp`s (so fewer incremental releases)
    /// and, through them, fewer `SatisfyDown`s. (A group holding a parent and its child could
    /// send more: the parent's body end would hand over around a child whose `ChildDone` is
    /// still queued, where one at a time the child might have finished first.)
    #[test]
    fn batched_hand_overs_match_one_at_a_time() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let mut merged = 0;
        for seed in 0..60u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut graph = Vec::new();
            gen_children(&mut rng, &mut graph, None, (0, 64), 1);
            let mut is_leaf = vec![true; graph.len()];
            for task in &graph {
                if let Some(parent) = task.parent {
                    is_leaf[parent] = false;
                }
            }
            let mut batched = GenRun::new(&graph);
            let mut single = GenRun::new(&graph);
            loop {
                assert_eq!(batched.ready, single.ready, "seed {seed}: ready sets");
                let mut candidates: Vec<usize> = (0..graph.len())
                    .filter(|&at| batched.ready[at] && !batched.finished[at])
                    .collect();
                if candidates.is_empty() {
                    break;
                }
                // A task with children finishes alone; a leaf, with up to 7 other leaves.
                let first = candidates.swap_remove(rng.gen_range(0..candidates.len()));
                let mut group = vec![first];
                if is_leaf[first] {
                    candidates.retain(|&at| is_leaf[at]);
                    for _ in 0..rng.gen_range(0..=candidates.len().min(7)) {
                        let pick = rng.gen_range(0..candidates.len());
                        group.push(candidates.swap_remove(pick));
                    }
                }
                for run in [&mut batched, &mut single] {
                    run.run_bodies(&graph, &group);
                }
                batched.finish(&group, true);
                single.finish(&group, false);
                assert_eq!(
                    batched.deeply_completed(),
                    single.deeply_completed(),
                    "seed {seed}: deeply completed sets"
                );
            }
            assert!(
                batched.finished.iter().all(|&f| f),
                "seed {seed}: graph drains"
            );
            assert!(batched.deeply_completed().iter().all(|&d| d));
            batched.engine.debug_check_invariants();
            single.engine.debug_check_invariants();

            let (mut grouped, one) = (batched.engine.stats(), single.engine.stats());
            assert!(grouped.incremental_releases <= one.incremental_releases);
            assert!(grouped.complete_up_messages <= one.complete_up_messages);
            assert!(grouped.satisfy_down_messages <= one.satisfy_down_messages);
            merged += one.complete_up_messages - grouped.complete_up_messages;
            grouped.incremental_releases = one.incremental_releases;
            grouped.complete_up_messages = one.complete_up_messages;
            grouped.satisfy_down_messages = one.satisfy_down_messages;
            assert_eq!(format!("{grouped:?}"), format!("{one:?}"), "seed {seed}");
            assert_eq!(one.roots_completed, 1, "seed {seed}: the root completes");
        }
        assert!(merged > 0, "some group merged hand-overs");
    }
}
