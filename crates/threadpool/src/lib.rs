//! A work-stealing worker pool tailored to the `weakdep` task runtime.
//!
//! The pool is deliberately lower level than `rayon`: the task runtime built on top needs to
//! control *where* ready tasks are enqueued, because the paper's scheduling policy ("dispatch a
//! successor to the same core that released its dependency", §VIII-A) is what produces the
//! temporal-locality / cache-miss-ratio effect of Figure 3.
//!
//! Design (following the idioms of *Rust Atomics and Locks* and the crossbeam ecosystem):
//!
//! * one OS thread per worker, each owning a [`crossbeam_deque::Worker`] LIFO deque;
//! * a global [`crossbeam_deque::Injector`] for submissions from outside the pool;
//! * an *immediate-successor slot* per worker: the highest-priority, single-entry slot a job can
//!   be placed in from within the executor, bypassing all queues (the locality hint);
//! * a pluggable [`SchedulingPolicy`], resolved once at construction into a [`Placement`] row
//!   (successor slot? / wave queue / injector take / steal order — the table in
//!   `docs/scheduling.md`) that the single dispatch routine and the acquisition path read;
//! * a mutex/condvar sleep protocol with an epoch counter so wake-ups are never lost, extended
//!   with per-domain wake targeting for the hierarchical policy.
//!
//! The pool is generic over the job type `T` and executes jobs through a caller-provided
//! executor callback, which receives a [`WorkerContext`] usable to schedule follow-up jobs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod admission;
pub mod assist;
pub mod sleep;
pub mod striped;
pub mod watchdog;

pub use admission::{AdmissionGate, AdmissionStats};
pub use assist::{AssistRegistry, LoopDescriptor};
pub use striped::{thread_slot, Striped, THREAD_SLOTS};
pub use watchdog::{Tick, Watchdog};

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;

use crossbeam_deque::{Injector, Steal, Stealer, Worker as Deque};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use sleep::SleepState;

/// The executor callback: invoked once per job on a worker thread.
pub type Executor<T> = dyn Fn(T, &WorkerContext<'_, T>) + Send + Sync;

/// How the pool places ready jobs and searches for work. Every policy is *observationally
/// equivalent* on data results — policies reorder execution, they never change what executes —
/// but they produce very different (task → worker) schedules, which is exactly the Figure 3
/// axis the cache model measures.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum SchedulingPolicy {
    /// The paper's §VIII-A policy (the default): the first successor a finishing job releases
    /// goes to the releasing worker's immediate-successor slot, the rest to its LIFO deque;
    /// idle workers batch-steal from a random victim.
    #[default]
    LocalitySlot,
    /// Breadth-first baseline with **no** locality: every ready job goes to the global FIFO
    /// injector, the successor slot and the per-worker deques are bypassed, and idle workers
    /// take single jobs from the injector in strict submission order. This is the "scheduler
    /// ignores the dependency information" baseline Figure 3 compares against.
    Fifo,
    /// Depth-first without the successor slot: every ready job goes to the releasing worker's
    /// LIFO deque (so chains are still followed, newest-first), but no job ever bypasses the
    /// deque; idle workers batch-steal from a random victim. Isolates the slot's contribution
    /// from plain LIFO ordering.
    DepthFirst,
    /// [`SchedulingPolicy::LocalitySlot`] plus locality domains: workers are grouped into
    /// domains of `domain_size` (modelling cores that share an L2/L3 slice), idle workers
    /// steal *single* jobs from their own domain first and only batch-steal across domains,
    /// and wake-ups prefer sleepers of the domain whose queues hold the work (see
    /// `sleep.rs`).
    HierarchicalSteal {
        /// Workers per locality domain (clamped to `1..=workers`). Domain of worker `i` is
        /// `i / domain_size`.
        domain_size: usize,
    },
    /// Multi-tenant fairness: every ready job goes to the FIFO queue of its tenant (the key
    /// the pool's `tenant_of` function reads from the job, see [`ThreadPool::with_tenants`]),
    /// and idle workers drain the queues round-robin — one job per tenant per turn — so one
    /// heavy tenant cannot starve the others. The immediate-successor slot **is** used: the
    /// first successor a finishing job releases goes to the releasing worker's slot, and a
    /// displaced slot occupant rejoins the *front* of its own tenant's queue. Everything else
    /// is breadth-first *across tenants*: no per-worker wave placement, and the global
    /// injector is unused.
    FairShare,
}

impl SchedulingPolicy {
    /// The default domain size of [`SchedulingPolicy::hierarchical`] (4 workers per domain,
    /// loosely an L2 cluster).
    pub const DEFAULT_DOMAIN_SIZE: usize = 4;

    /// The hierarchical policy with the default domain size.
    pub fn hierarchical() -> Self {
        SchedulingPolicy::HierarchicalSteal { domain_size: Self::DEFAULT_DOMAIN_SIZE }
    }

    /// All concrete policies (hierarchical with its default domain size), in ablation order.
    pub fn all() -> [SchedulingPolicy; 5] {
        [
            SchedulingPolicy::LocalitySlot,
            SchedulingPolicy::HierarchicalSteal { domain_size: Self::DEFAULT_DOMAIN_SIZE },
            SchedulingPolicy::DepthFirst,
            SchedulingPolicy::Fifo,
            SchedulingPolicy::FairShare,
        ]
    }

    /// The name used in benchmark and bench-binary output.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulingPolicy::LocalitySlot => "locality-slot",
            SchedulingPolicy::Fifo => "fifo",
            SchedulingPolicy::DepthFirst => "depth-first",
            SchedulingPolicy::HierarchicalSteal { .. } => "hierarchical-steal",
            SchedulingPolicy::FairShare => "fair-share",
        }
    }

    /// Parses a policy name as printed by [`SchedulingPolicy::name`] (hierarchical gets the
    /// default domain size).
    pub fn from_name(name: &str) -> Option<Self> {
        Self::all().into_iter().find(|p| p.name() == name)
    }

    /// Resolves the policy into its [`Placement`] row. This is **the** definition of the five
    /// policies (mirrored by the inventory table in `docs/scheduling.md`): the pool stores the
    /// row at construction and never looks at the variant again.
    pub fn placement(&self) -> Placement {
        use {InjectorTake::*, StealOrder::*, WaveQueue::*};
        let (slot, wave, injector_take, steal) = match *self {
            SchedulingPolicy::LocalitySlot => (true, Local, Batch, Flat),
            SchedulingPolicy::HierarchicalSteal { domain_size } => {
                (true, Local, Batch, Nearest { domain_size })
            }
            SchedulingPolicy::DepthFirst => (false, Local, Batch, Flat),
            SchedulingPolicy::Fifo => (false, Injector, Single, None),
            SchedulingPolicy::FairShare => (true, TenantQueues, Single, Flat),
        };
        Placement { slot, wave, injector_take, steal }
    }

    /// Whether the policy dispatches through the immediate-successor slot.
    pub fn uses_successor_slot(&self) -> bool {
        self.placement().slot
    }

    /// Effective workers-per-domain for a pool of `workers` (1 domain for every
    /// non-hierarchical policy).
    pub fn domain_size(&self, workers: usize) -> usize {
        let workers = workers.max(1);
        match self.placement().steal {
            StealOrder::Nearest { domain_size } => domain_size.clamp(1, workers),
            StealOrder::None | StealOrder::Flat => workers,
        }
    }

    /// Locality domain of worker `index` in a pool of `workers`.
    pub fn domain_of(&self, index: usize, workers: usize) -> usize {
        index / self.domain_size(workers)
    }

    /// Number of locality domains in a pool of `workers`.
    pub fn domain_count(&self, workers: usize) -> usize {
        workers.max(1).div_ceil(self.domain_size(workers))
    }
}

/// One row of the policy table: the answers to the three §VIII-A scheduling questions (who
/// gets the immediate-successor slot, where the rest of a ready wave goes, whom an idle worker
/// robs) plus how the global injector is drained. Plain data, resolved once from the
/// [`SchedulingPolicy`] by [`SchedulingPolicy::placement`]; dispatch, acquisition, stealing
/// and assisting branch only on these fields.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Placement {
    /// The first job of a wave released by a *finished* job takes the releasing worker's
    /// immediate-successor slot.
    pub slot: bool,
    /// Where every other ready job is enqueued.
    pub wave: WaveQueue,
    /// How an idle worker takes from the global injector.
    pub injector_take: InjectorTake,
    /// The steal-victim order (also the order an idle worker picks a loop to assist in).
    pub steal: StealOrder,
}

/// The queue a ready wave is enqueued on (see [`Placement::wave`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum WaveQueue {
    /// The producing worker's LIFO deque; submissions from outside the pool, which have no
    /// deque, enter through the global injector.
    Local,
    /// The global FIFO injector.
    Injector,
    /// The per-tenant FIFO queues, served round-robin; the injector is unused.
    TenantQueues,
}

/// How an idle worker takes from the global injector (see [`Placement::injector_take`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum InjectorTake {
    /// Batch-refill the worker's own deque and run the first job of the batch.
    Batch,
    /// One job per visit, in strict submission order.
    Single,
}

/// The steal-victim order (see [`Placement::steal`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum StealOrder {
    /// Never steal (the deques are empty by construction).
    None,
    /// Batch-steal from a random victim, then scan the rest.
    Flat,
    /// Single-job steals inside the thief's own locality domain first, then batch-steals
    /// across domains.
    Nearest {
        /// Workers per locality domain, as configured (clamped to `1..=workers` at use).
        domain_size: usize,
    },
}

/// Indexes of the dispatch-path counters in [`PoolStats`]' striped block.
mod counter {
    pub(crate) const EXECUTED: usize = 0;
    pub(crate) const FROM_SUCCESSOR_SLOT: usize = 1;
    pub(crate) const FROM_LOCAL: usize = 2;
    pub(crate) const FROM_INJECTOR: usize = 3;
    pub(crate) const STOLEN: usize = 4;
    pub(crate) const STOLEN_SAME_DOMAIN: usize = 5;
    pub(crate) const STOLEN_CROSS_DOMAIN: usize = 6;
    pub(crate) const SUCCESSOR_DISPLACEMENTS: usize = 7;
    pub(crate) const TARGETED_WAKES: usize = 8;
    pub(crate) const FALLBACK_WAKES: usize = 9;
    pub(crate) const COUNT: usize = 10;
}

/// Statistics counters exposed by the pool (all monotonically increasing).
///
/// The counters the dispatch path bumps for every job live in one [`Striped`] block per thread
/// slot, so a worker's bump stays on cache lines of its own; read them through the accessor
/// methods, which sum the slots. Every counter here is relaxed, so the identities below hold
/// at quiescence: after [`ThreadPool::shutdown`], or once the reader has synchronised with the
/// completion of the last job it counts.
///
/// Accounting invariant (asserted by tests): `executed_jobs() == from_successor_slot() +
/// from_local() + from_injector() + stolen()` — every executed job was acquired from exactly
/// one source.
#[derive(Debug, Default)]
pub struct PoolStats {
    /// The dispatch-path counters, indexed by the `counter` constants.
    dispatch: Striped<{ counter::COUNT }>,
    /// Times a worker went to sleep — at the top of its loop or inside
    /// [`WorkerContext::work_until`] (a parked `taskwait`).
    pub sleeps: AtomicUsize,
    /// Loop chunks executed by *assisting* workers (idle-path acquisitions from the
    /// [`AssistRegistry`]; owner-driven chunks are not counted). Chunks are not pool jobs, so
    /// this stands **beside** the `executed == slot + local + injector + stolen` identity;
    /// its own invariant is `assisted_loops <= assist_steals <= assist_chunks`.
    ///
    /// The three assist counters are bumped *before* the chunk they account for runs, so the
    /// chunk's completion (`Release`) and the loop owner's quiescence wait (`Acquire`) order
    /// them before the owner returns: whoever learns that the owning task finished — its
    /// job's waiter included — reads final values without joining the pool.
    pub assist_chunks: AtomicUsize,
    /// Published loops that received at least one assist chunk (distinct loops).
    pub assisted_loops: AtomicUsize,
    /// Times an idle worker acquired a loop from the registry and executed ≥ 1 chunk (one
    /// acquisition may run many chunks).
    pub assist_steals: AtomicUsize,
}

impl PoolStats {
    fn bump(counter: &AtomicUsize) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds one to the dispatch-path counter `counter` in the calling thread's slot.
    fn count(&self, counter: usize) {
        self.dispatch.add(counter, 1);
    }

    fn sum(&self, counter: usize) -> usize {
        self.dispatch.get(counter) as usize
    }

    /// Jobs executed, across all workers.
    pub fn executed_jobs(&self) -> usize {
        self.sum(counter::EXECUTED)
    }

    /// Jobs taken from the immediate-successor slot.
    pub fn from_successor_slot(&self) -> usize {
        self.sum(counter::FROM_SUCCESSOR_SLOT)
    }

    /// Jobs popped from the worker's own deque.
    pub fn from_local(&self) -> usize {
        self.sum(counter::FROM_LOCAL)
    }

    /// Jobs taken from the global injector (or, under [`SchedulingPolicy::FairShare`], from
    /// the tenant rotation).
    pub fn from_injector(&self) -> usize {
        self.sum(counter::FROM_INJECTOR)
    }

    /// Jobs stolen from another worker.
    pub fn stolen(&self) -> usize {
        self.sum(counter::STOLEN)
    }

    /// Subset of [`PoolStats::stolen`] taken from a victim in the thief's own locality domain
    /// (all steals, for single-domain policies).
    pub fn stolen_same_domain(&self) -> usize {
        self.sum(counter::STOLEN_SAME_DOMAIN)
    }

    /// Subset of [`PoolStats::stolen`] taken from a victim in another locality domain
    /// (hierarchical policy only; always the batch-steal path).
    pub fn stolen_cross_domain(&self) -> usize {
        self.sum(counter::STOLEN_CROSS_DOMAIN)
    }

    /// Jobs displaced out of the successor slot by a newer successor (each was re-dispatched
    /// through the policy's wave placement).
    pub fn successor_displacements(&self) -> usize {
        self.sum(counter::SUCCESSOR_DISPLACEMENTS)
    }

    /// Domain-preferring wake-ups that woke a sleeper of the preferred domain.
    pub fn targeted_wakes(&self) -> usize {
        self.sum(counter::TARGETED_WAKES)
    }

    /// Domain-preferring wake-ups that fell back to a sleeper of another domain.
    pub fn fallback_wakes(&self) -> usize {
        self.sum(counter::FALLBACK_WAKES)
    }
}

/// Per-tenant FIFO queues plus the round-robin rotation, for [`SchedulingPolicy::FairShare`].
///
/// Invariant: a tenant appears in `order` **iff** its queue is non-empty (each tenant at most
/// once). Empty queues are removed from the map immediately, so the map's footprint tracks the
/// number of tenants with queued work, not the number of tenants ever seen.
struct FairInner<T> {
    queues: HashMap<u64, VecDeque<T>>,
    order: VecDeque<u64>,
}

struct Shared<T: Send + 'static> {
    injector: Injector<T>,
    stealers: Vec<Stealer<T>>,
    sleep: SleepState,
    shutdown: AtomicBool,
    stats: PoolStats,
    workers: usize,
    policy: SchedulingPolicy,
    /// `policy` resolved into its table row; the only thing dispatch and acquisition read.
    placement: Placement,
    /// Reads a job's tenant. Evaluated only when `placement.wave` is the tenant rotation.
    tenant_of: fn(&T) -> u64,
    /// Tenant queues for [`WaveQueue::TenantQueues`]; untouched (and empty) otherwise. Guarded
    /// by one mutex: pushes and the round-robin pop both rotate `order`, and fairness is
    /// inherently a global ordering decision. The lock is a **leaf**: only the queue rotation
    /// and the `tenant_of` key read run under it — sleep-protocol notifies happen strictly
    /// after release (see docs/locking.md).
    fair: Mutex<FairInner<T>>,
    /// In-progress data-parallel loops idle workers may assist (lock-free fast path + its own
    /// leaf lock, see `assist.rs` and docs/parallel_loops.md).
    assist: AssistRegistry,
}

impl<T: Send + 'static> Shared<T> {
    /// Enqueues `jobs` on the placement's wave queue — `deque` is the calling worker's own
    /// (`None` outside the pool, where [`WaveQueue::Local`] has no deque and the injector is
    /// the entry point) — and returns how many were pushed. `hot` selects the end that is
    /// served next (a job displaced from the successor slot); the LIFO deque's push end is
    /// always its hot end, and the FIFO injector has none. The caller signals the sleep
    /// protocol *after* this returns.
    fn enqueue(
        &self,
        deque: Option<&Deque<T>>,
        jobs: impl IntoIterator<Item = T>,
        hot: bool,
    ) -> usize {
        let mut pushed = 0usize;
        match (self.placement.wave, deque) {
            (WaveQueue::TenantQueues, _) => {
                let push = if hot { VecDeque::push_front } else { VecDeque::push_back };
                let mut inner = self.fair.lock();
                let FairInner { queues, order } = &mut *inner;
                for job in jobs {
                    let tenant = (self.tenant_of)(&job);
                    let queue = queues.entry(tenant).or_default();
                    if queue.is_empty() {
                        order.push_back(tenant);
                    }
                    push(queue, job);
                    pushed += 1;
                }
            }
            (WaveQueue::Local, Some(deque)) => {
                for job in jobs {
                    deque.push(job);
                    pushed += 1;
                }
            }
            (WaveQueue::Local, None) | (WaveQueue::Injector, _) => {
                self.injector.push_batch(jobs.into_iter().inspect(|_| pushed += 1));
            }
        }
        pushed
    }

    /// The one wake call of a dispatch: `count` units of work became available, preferably
    /// for a sleeper of `prefer` (the domain whose deque holds them). Only domain-preferring
    /// wakes feed the `targeted_wakes` / `fallback_wakes` counters.
    fn wake(&self, count: usize, prefer: Option<usize>) {
        let (hit, fallback) = self.sleep.notify_many(count, prefer);
        if prefer.is_some() && hit + fallback > 0 {
            self.stats.dispatch.add(counter::TARGETED_WAKES, hit as u64);
            self.stats.dispatch.add(counter::FALLBACK_WAKES, fallback as u64);
        }
    }

    /// Round-robin pop: takes the front job of the next tenant in rotation and moves that
    /// tenant to the back of the rotation (if it still has queued work).
    fn fair_pop(&self) -> Option<T> {
        let mut inner = self.fair.lock();
        let FairInner { queues, order } = &mut *inner;
        let tenant = order.pop_front()?;
        let queue = queues.get_mut(&tenant).expect("tenant in rotation has a queue");
        let job = queue.pop_front().expect("queued tenant has a job");
        if queue.is_empty() {
            queues.remove(&tenant);
        } else {
            order.push_back(tenant);
        }
        Some(job)
    }
}

/// A handle to the worker pool. Dropping the pool shuts it down and joins all worker threads;
/// jobs still queued at that point are dropped without being executed.
pub struct ThreadPool<T: Send + 'static> {
    shared: Arc<Shared<T>>,
    handles: Vec<JoinHandle<()>>,
}

/// Per-worker context handed to the executor callback. Used to schedule follow-up jobs with
/// explicit placement and to help execute queued jobs while waiting (work-conserving waits).
pub struct WorkerContext<'a, T: Send + 'static> {
    shared: &'a Shared<T>,
    executor: &'a Executor<T>,
    deque: &'a Deque<T>,
    successor_slot: &'a Cell<Option<T>>,
    rng: &'a RefCell<SmallRng>,
    index: usize,
    domain: usize,
}

impl<T: Send + 'static> ThreadPool<T> {
    /// Creates a pool with `workers` worker threads executing jobs through `executor`, under
    /// the default [`SchedulingPolicy::LocalitySlot`] policy.
    ///
    /// `workers` is clamped to at least 1.
    pub fn new<F>(workers: usize, executor: F) -> Self
    where
        F: Fn(T, &WorkerContext<'_, T>) + Send + Sync + 'static,
    {
        Self::with_policy(workers, SchedulingPolicy::default(), executor)
    }

    /// Creates a pool with `workers` worker threads and an explicit scheduling policy. Every
    /// job belongs to tenant 0 (see [`ThreadPool::with_tenants`]).
    pub fn with_policy<F>(workers: usize, policy: SchedulingPolicy, executor: F) -> Self
    where
        F: Fn(T, &WorkerContext<'_, T>) + Send + Sync + 'static,
    {
        Self::with_tenants(workers, policy, |_| 0, executor)
    }

    /// [`ThreadPool::with_policy`] for a multi-tenant job type: the tenant is a property of
    /// the job, read by `tenant_of` wherever the policy queues by tenant
    /// ([`SchedulingPolicy::FairShare`]; never called under any other policy). It must be a
    /// plain key read — it runs under the tenant queues' leaf lock.
    pub fn with_tenants<F>(
        workers: usize,
        policy: SchedulingPolicy,
        tenant_of: fn(&T) -> u64,
        executor: F,
    ) -> Self
    where
        F: Fn(T, &WorkerContext<'_, T>) + Send + Sync + 'static,
    {
        let workers = workers.max(1);
        let deques: Vec<Deque<T>> = (0..workers).map(|_| Deque::new_lifo()).collect();
        let stealers = deques.iter().map(Deque::stealer).collect();
        let shared = Arc::new(Shared {
            injector: Injector::new(),
            stealers,
            sleep: SleepState::new(policy.domain_count(workers)),
            shutdown: AtomicBool::new(false),
            stats: PoolStats::default(),
            workers,
            policy,
            placement: policy.placement(),
            tenant_of,
            fair: Mutex::new(FairInner { queues: HashMap::new(), order: VecDeque::new() }),
            assist: AssistRegistry::new(),
        });
        let executor: Arc<Executor<T>> = Arc::new(executor);

        let mut handles = Vec::with_capacity(workers);
        for (index, deque) in deques.into_iter().enumerate() {
            let shared = Arc::clone(&shared);
            let executor = Arc::clone(&executor);
            let handle = std::thread::Builder::new()
                .name(format!("weakdep-worker-{index}"))
                .spawn(move || worker_main(index, deque, shared, executor))
                .expect("failed to spawn worker thread");
            handles.push(handle);
        }
        ThreadPool { shared, handles }
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.shared.workers
    }

    /// The scheduling policy the pool was created with.
    pub fn policy(&self) -> SchedulingPolicy {
        self.shared.policy
    }

    /// Access to the pool statistics counters.
    pub fn stats(&self) -> &PoolStats {
        &self.shared.stats
    }

    /// Approximate queue depths for diagnostics (stall reports): the global injector's length
    /// plus each worker deque's length. Racy by nature — lengths are sampled independently
    /// while workers run — so only suitable for reporting, never for scheduling decisions.
    pub fn queue_depths(&self) -> (usize, Vec<usize>) {
        let injector = self.shared.injector.len();
        let deques = self.shared.stealers.iter().map(|s| s.len()).collect();
        (injector, deques)
    }

    /// Jobs queued in the tenant queues (0 unless the policy queues by tenant), for
    /// diagnostics alongside [`ThreadPool::queue_depths`].
    pub fn fair_queue_depth(&self) -> usize {
        let inner = self.shared.fair.lock();
        inner.queues.values().map(VecDeque::len).sum()
    }

    /// Submits a job from outside the pool: a wave of one through [`ThreadPool::submit_batch`].
    pub fn submit(&self, job: T) {
        self.submit_batch(std::iter::once(job));
    }

    /// Submits many jobs at once, waking as many workers as needed. The whole wave enters the
    /// policy's shared queue (the global injector, or the tenant queues under
    /// [`SchedulingPolicy::FairShare`]) in one operation, and the sleep protocol is signalled
    /// once.
    pub fn submit_batch(&self, jobs: impl IntoIterator<Item = T>) {
        let count = self.shared.enqueue(None, jobs, false);
        self.shared.wake(count, None);
    }

    /// Publishes an in-progress data-parallel loop from *outside* the pool (the owner is not
    /// a worker — e.g. a root task running on the submitting thread) and recruits parked
    /// workers through the epoch protocol. The owner must drive the loop to quiescence and
    /// then call [`ThreadPool::retire_loop`].
    pub fn publish_loop(&self, desc: Arc<LoopDescriptor>) {
        self.shared.assist.publish(desc);
        self.shared.wake(self.shared.workers, None);
    }

    /// Removes a quiescent loop from the assist registry (see [`ThreadPool::publish_loop`]).
    pub fn retire_loop(&self, desc: &Arc<LoopDescriptor>) {
        self.shared.assist.retire(desc);
    }

    /// Number of currently published loops (diagnostics).
    pub fn active_loops(&self) -> usize {
        self.shared.assist.active_loops()
    }

    /// Signals that the exit predicate of some [`WorkerContext::work_until`] call may have
    /// flipped (call strictly *after* the flip): every parked worker re-checks. One atomic
    /// load while no worker is parked inside `work_until`.
    pub fn wake_waiters(&self) {
        self.shared.sleep.wake_waiters();
    }

    /// Requests shutdown and joins all workers. Queued jobs that have not started are dropped
    /// **without being executed**: each worker stops taking work the moment it observes the
    /// shutdown flag and drains its own deque and successor slot (running the jobs'
    /// destructors) before exiting, so by the time `shutdown` returns every undelivered job of
    /// a joined worker has been dropped. Jobs still in the global injector are drained by
    /// [`ThreadPool::drop`].
    ///
    /// The shutdown may itself run *on* a worker thread: the executor callback can hold the last
    /// reference to the structure owning the pool (e.g. a runtime dropped on the main thread
    /// while a worker was still retiring its final task). A thread cannot join itself, so that
    /// worker's handle is detached instead — the thread observes the shutdown flag and exits
    /// (draining its deque and slot) on its own, keeping the shared state alive through its own
    /// `Arc`. **This is the one documented exception** to the destructors-before-return
    /// guarantee: jobs stranded in the *detached self-shutdown worker's* deque or slot are
    /// dropped when that thread exits, which happens after `shutdown`/`drop` returns (covered
    /// by `self_shutdown_worker_drains_after_drop` in the tests).
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared.sleep.notify_all();
        let current = std::thread::current().id();
        let mut _detached = false;
        for handle in self.handles.drain(..) {
            if handle.thread().id() == current {
                drop(handle);
                _detached = true;
            } else {
                let _ = handle.join();
            }
        }
        // Scheduler accounting identities, checkable only at quiescence because `executed` is
        // bumped before the per-source counter (both relaxed). All workers are joined here —
        // unless one was the detached self-shutdown worker, which may still be draining.
        #[cfg(debug_assertions)]
        if !_detached {
            use std::sync::atomic::Ordering::Relaxed;
            let stats = &self.shared.stats;
            let executed = stats.executed_jobs();
            let sourced = stats.from_successor_slot()
                + stats.from_local()
                + stats.from_injector()
                + stats.stolen();
            debug_assert_eq!(
                executed, sourced,
                "pool accounting: every executed job must come from exactly one source \
                 (slot + local + injector + stolen)"
            );
            let stolen = stats.stolen();
            let split = stats.stolen_same_domain() + stats.stolen_cross_domain();
            debug_assert_eq!(
                stolen, split,
                "pool accounting: every steal is either same-domain or cross-domain"
            );
            let assist_chunks = stats.assist_chunks.load(Relaxed);
            let assist_steals = stats.assist_steals.load(Relaxed);
            let assisted_loops = stats.assisted_loops.load(Relaxed);
            debug_assert!(
                assisted_loops <= assist_steals && assist_steals <= assist_chunks,
                "assist accounting: every assisted loop was acquired at least once and every \
                 acquisition ran at least one chunk \
                 (loops {assisted_loops} <= steals {assist_steals} <= chunks {assist_chunks})"
            );
        }
    }
}

impl<T: Send + 'static> Drop for ThreadPool<T> {
    fn drop(&mut self) {
        self.shutdown();
        // Drain jobs left in the injector so their destructors run deterministically. Loop until
        // the injector reports `Empty`: `Steal::Retry` only means the probe lost a race, and
        // breaking on it would silently leave queued jobs (and their destructors) behind.
        loop {
            match self.shared.injector.steal() {
                Steal::Success(_job) => {}
                Steal::Retry => std::hint::spin_loop(),
                Steal::Empty => break,
            }
        }
        // Same for the tenant queues (empty unless the policy queues by tenant).
        while self.shared.fair_pop().is_some() {}
    }
}

impl<'a, T: Send + 'static> WorkerContext<'a, T> {
    /// Index of the current worker (0-based).
    pub fn index(&self) -> usize {
        self.index
    }

    /// Locality domain of the current worker (always 0 for non-hierarchical policies).
    pub fn domain(&self) -> usize {
        self.domain
    }

    /// Places one ready job produced mid-body (a spawn-time-ready task):
    /// [`WorkerContext::dispatch_ready`] with a wave of one and no successor hint.
    pub fn dispatch_spawned(&self, job: T) {
        self.dispatch_ready(std::iter::once(job), false);
    }

    /// The one dispatch routine, driven by the pool's [`Placement`] row: the successor (taken
    /// iff the wave is hinted and the row has a slot) goes to this worker's slot, everything
    /// else to the row's wave queue, then one wake call whose domain preference follows the
    /// queue.
    ///
    /// `successor_hint` marks the wave as produced by a *finished* job (its first entry is the
    /// immediate successor of §VIII-A); waves produced mid-body (the `release` directive) pass
    /// `false`, so other workers can steal everything while the producer keeps running.
    ///
    /// Priority order established on this worker (highest first): the slot job, then a job it
    /// displaced from the slot, then the rest of this wave, then older queue content. The
    /// displaced job is therefore enqueued **after** the wave, at the queue's hot end (deque
    /// top / front of its own tenant's queue) — enqueueing it first would bury the previous
    /// hot successor *below* the colder incoming wave, inverting the §VIII-A priority (see
    /// `displaced_successor_outranks_the_displacing_wave`).
    pub fn dispatch_ready(&self, jobs: impl IntoIterator<Item = T>, successor_hint: bool) {
        let Placement { slot, wave, .. } = self.shared.placement;
        let mut jobs = jobs.into_iter();
        let successor = if successor_hint && slot { jobs.next() } else { None };
        let mut queued = self.shared.enqueue(Some(self.deque), jobs, false);
        if let Some(successor) = successor {
            if let Some(displaced) = self.successor_slot.replace(Some(successor)) {
                self.shared.stats.count(counter::SUCCESSOR_DISPLACEMENTS);
                queued += self.shared.enqueue(Some(self.deque), std::iter::once(displaced), true);
            }
        }
        self.shared.wake(queued, (wave == WaveQueue::Local).then_some(self.domain));
    }

    /// The worker's one idle loop, callable from inside a job: keeps this worker acquiring
    /// and running work — successor slot → local deque → shared queue → steal → **assist** a
    /// published loop (see `docs/scheduling.md`) — and parks it in the pool's sleep state when
    /// there is none, until `done()` holds (or the pool shuts down). This is how a job waits
    /// for a condition without blocking the OS thread (the runtime's `taskwait`).
    ///
    /// Whoever flips `done` must call [`ThreadPool::wake_waiters`] afterwards; every ordinary
    /// dispatch wake reaches the parked worker as well.
    pub fn work_until(&self, done: impl Fn() -> bool) {
        self.work_loop(true, done);
    }

    /// [`WorkerContext::work_until`]; `waiter == false` is the top of `worker_main`, whose
    /// only exit is shutdown (announced by an unconditional broadcast, so it does not register
    /// with the sleep state as a predicate sleeper).
    fn work_loop(&self, waiter: bool, done: impl Fn() -> bool) {
        let shared = self.shared;
        // Stop taking work the moment shutdown is observed (checked *before* scanning, so
        // undelivered jobs are dropped, not executed — see `ThreadPool::shutdown`).
        let exit = || done() || shared.shutdown.load(Ordering::SeqCst);
        loop {
            // Record the sleep epoch *before* scanning, so a submission racing with the scan
            // is guaranteed to be observed either by the scan or by the epoch check before
            // sleeping. Publishing a loop bumps the same epoch, so the scan → assist → sleep
            // sequence can never sleep through a loop published while it ran.
            let epoch = shared.sleep.current_epoch();
            if exit() {
                return;
            }
            if let Some(job) = self.find_work() {
                self.run(job);
                continue;
            }
            if self.assist_once() {
                continue;
            }
            PoolStats::bump(&shared.stats.sleeps);
            shared.sleep.sleep(self.domain, epoch, waiter, exit);
        }
    }

    /// Publishes an in-progress data-parallel loop registered by the task running on this
    /// worker, and recruits every parked worker through the epoch protocol (a published loop
    /// is claimable by *all* of them — the wake count is the pool size, domain-preferring so
    /// hierarchical sleepers near the owner wake first). The owner must drive the loop to
    /// quiescence and then call [`WorkerContext::retire_loop`].
    pub fn publish_loop(&self, desc: Arc<LoopDescriptor>) {
        self.shared.assist.publish(desc);
        self.shared.wake(self.shared.workers, Some(self.domain));
    }

    /// Removes a quiescent loop from the assist registry (see
    /// [`WorkerContext::publish_loop`]).
    pub fn retire_loop(&self, desc: &Arc<LoopDescriptor>) {
        self.shared.assist.retire(desc);
    }

    /// The idle path's **assist** step, ranked below every task source (successor slot →
    /// local deque → injector → steal) and above sleep: picks a published loop — same-domain
    /// first under [`StealOrder::Nearest`], round-robin over loops (and
    /// therefore tenants) otherwise — and runs chunks until the loop is drained or shutdown
    /// is requested. Returns whether at least one chunk was executed (the worker then rescans
    /// the task sources before assisting again, preserving the priority order).
    fn assist_once(&self) -> bool {
        let prefer = matches!(self.shared.placement.steal, StealOrder::Nearest { .. })
            .then_some(self.domain);
        let Some(desc) = self.shared.assist.select(prefer) else {
            return false;
        };
        let stats = &self.shared.stats;
        let mut ran = false;
        while !self.shared.shutdown.load(Ordering::SeqCst) {
            let Some((chunk_start, chunk_end)) = desc.claim() else {
                break;
            };
            // All counting happens *before* the chunk completes, so the owner's quiescence
            // wait (`completed == claimed`) orders it before the owner returns (see
            // `PoolStats::assist_chunks`).
            desc.note_assist_chunks(1);
            PoolStats::bump(&stats.assist_chunks);
            if !ran {
                PoolStats::bump(&stats.assist_steals);
                if desc.mark_assisted() {
                    PoolStats::bump(&stats.assisted_loops);
                }
            }
            ran = true;
            desc.run_chunk(chunk_start, chunk_end);
        }
        ran
    }

    fn run(&self, job: T) {
        self.shared.stats.count(counter::EXECUTED);
        (self.executor)(job, self);
    }

    /// Looks for work: successor slot, local deque, the shared queue (injector or tenant
    /// rotation), then steal in the placement's victim order.
    fn find_work(&self) -> Option<T> {
        if let Some(job) = self.successor_slot.take() {
            self.shared.stats.count(counter::FROM_SUCCESSOR_SLOT);
            return Some(job);
        }
        if let Some(job) = self.deque.pop() {
            self.shared.stats.count(counter::FROM_LOCAL);
            return Some(job);
        }
        let Placement { wave, injector_take, .. } = self.shared.placement;
        // Retry loop around the lock-free structures that can return `Steal::Retry`.
        loop {
            let mut retry = false;
            // The policy's shared queue. The tenant rotation hands out exactly one job per
            // visit — that *is* the round-robin — and is counted as an injector acquisition.
            let taken = match (wave, injector_take) {
                (WaveQueue::TenantQueues, _) => {
                    self.shared.fair_pop().map_or(Steal::Empty, Steal::Success)
                }
                (_, InjectorTake::Single) => self.shared.injector.steal(),
                (_, InjectorTake::Batch) => self.shared.injector.steal_batch_and_pop(self.deque),
            };
            match taken {
                Steal::Success(job) => {
                    self.shared.stats.count(counter::FROM_INJECTOR);
                    return Some(job);
                }
                Steal::Retry => retry = true,
                Steal::Empty => {}
            }
            if let Some(job) = self.try_steal(&mut retry) {
                return Some(job);
            }
            if !retry {
                return None;
            }
            std::hint::spin_loop();
        }
    }

    /// One pass over the steal victims in the placement's order.
    fn try_steal(&self, retry: &mut bool) -> Option<T> {
        let victims = self.shared.stealers.len();
        if victims <= 1 {
            return None;
        }
        let is_self = |victim| victim == self.index;
        match self.shared.placement.steal {
            StealOrder::None => None,
            StealOrder::Flat => {
                self.steal_pass(retry, 0..victims, true, is_self, counter::STOLEN_SAME_DOMAIN)
            }
            StealOrder::Nearest { domain_size } => {
                let size = domain_size.clamp(1, victims);
                let own = self.domain * size..victims.min((self.domain + 1) * size);
                // Nearest first: single-job steals inside the domain (fine-grained, keeps the
                // victim's backlog — and its locality — mostly intact), then batch migration
                // across domains (amortise the cross-domain traffic by moving a chunk of the
                // victim's backlog over in one steal).
                self.steal_pass(retry, own.clone(), false, is_self, counter::STOLEN_SAME_DOMAIN)
                    .or_else(|| {
                        let in_own = |victim| own.contains(&victim);
                        let cross = counter::STOLEN_CROSS_DOMAIN;
                        self.steal_pass(retry, 0..victims, true, in_own, cross)
                    })
            }
        }
    }

    /// One randomized sweep over `victims`, skipping those `skip` rejects: single-job steals,
    /// or (`batch`) steals that also refill this worker's deque. `split` is the
    /// same/cross-domain sub-counter a successful steal is attributed to.
    fn steal_pass(
        &self,
        retry: &mut bool,
        victims: Range<usize>,
        batch: bool,
        skip: impl Fn(usize) -> bool,
        split: usize,
    ) -> Option<T> {
        let start = self.rng.borrow_mut().gen_range(0..victims.len());
        for offset in 0..victims.len() {
            let victim = victims.start + (start + offset) % victims.len();
            if skip(victim) {
                continue;
            }
            let stealer = &self.shared.stealers[victim];
            let stolen =
                if batch { stealer.steal_batch_and_pop(self.deque) } else { stealer.steal() };
            match stolen {
                Steal::Success(job) => {
                    self.shared.stats.count(counter::STOLEN);
                    self.shared.stats.count(split);
                    return Some(job);
                }
                Steal::Retry => *retry = true,
                Steal::Empty => {}
            }
        }
        None
    }
}

fn worker_main<T: Send + 'static>(
    index: usize,
    deque: Deque<T>,
    shared: Arc<Shared<T>>,
    executor: Arc<Executor<T>>,
) {
    let successor_slot = Cell::new(None);
    let rng = RefCell::new(SmallRng::seed_from_u64(0x9E3779B97F4A7C15 ^ index as u64));
    let ctx = WorkerContext {
        shared: &shared,
        executor: executor.as_ref(),
        deque: &deque,
        successor_slot: &successor_slot,
        rng: &rng,
        index,
        domain: shared.policy.domain_of(index, shared.workers),
    };

    ctx.work_loop(false, || false);
    // Shutdown drain: run the destructors of every job stranded in this worker's private
    // structures (successor slot + deque) before the thread exits, so `shutdown`'s join
    // returns only after they ran. Nobody can re-fill them: only the owner pushes to either.
    drop(successor_slot.take());
    while deque.pop().is_some() {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    fn wait_for(pred: impl Fn() -> bool, timeout: Duration) -> bool {
        let start = std::time::Instant::now();
        while start.elapsed() < timeout {
            if pred() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        pred()
    }

    /// Tenant key of the fair-share tests: the job's tens digit.
    fn tens(job: &usize) -> u64 {
        (*job / 10) as u64
    }

    #[test]
    fn executes_submitted_jobs() {
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        let pool: ThreadPool<usize> = ThreadPool::new(4, move |job, _ctx| {
            c.fetch_add(job, Ordering::SeqCst);
        });
        for i in 0..100 {
            pool.submit(i);
        }
        assert!(wait_for(|| counter.load(Ordering::SeqCst) == (0..100).sum(), Duration::from_secs(5)));
    }

    /// Counter identity: every executed job was acquired from exactly one source
    /// (`executed == slot + local + injector + stolen`) and every steal is classified by
    /// domain. Sound only at quiescence (`executed` is bumped before the source counter), so
    /// the assertion runs after `shutdown` joins the workers — the same checkpoint where the
    /// pool's own `debug_assert`s fire.
    #[test]
    fn execution_source_accounting_identity() {
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        let mut pool: ThreadPool<usize> = ThreadPool::new(4, move |_job, _ctx| {
            c.fetch_add(1, Ordering::SeqCst);
        });
        for i in 0..500 {
            pool.submit(i);
        }
        assert!(wait_for(|| counter.load(Ordering::SeqCst) == 500, Duration::from_secs(5)));
        pool.shutdown();
        let stats = pool.stats();
        let executed = stats.executed_jobs();
        assert_eq!(executed, 500);
        let sourced = stats.from_successor_slot()
            + stats.from_local()
            + stats.from_injector()
            + stats.stolen();
        assert_eq!(executed, sourced, "each job comes from exactly one source");
        assert_eq!(
            stats.stolen(),
            stats.stolen_same_domain() + stats.stolen_cross_domain(),
            "each steal is same-domain or cross-domain"
        );
    }

    #[test]
    fn follow_up_jobs_from_executor_run() {
        // Each job spawns two children until depth 0; count total executions = 2^(d+1)-1.
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        let pool: ThreadPool<u32> = ThreadPool::new(4, move |depth, ctx| {
            c.fetch_add(1, Ordering::SeqCst);
            if depth > 0 {
                ctx.dispatch_spawned(depth - 1);
                ctx.dispatch_ready(vec![depth - 1], false);
            }
        });
        pool.submit(10);
        let expected = (1usize << 11) - 1;
        assert!(wait_for(
            || counter.load(Ordering::SeqCst) == expected,
            Duration::from_secs(10)
        ));
    }

    #[test]
    fn hinted_successor_runs_on_same_worker() {
        // A hinted wave of one takes the slot, so it must execute on the same worker index.
        let ok = Arc::new(AtomicUsize::new(0));
        let done = Arc::new(AtomicUsize::new(0));
        let ok_c = Arc::clone(&ok);
        let done_c = Arc::clone(&done);
        let pool: ThreadPool<(u32, usize)> = ThreadPool::new(4, move |(step, origin), ctx| {
            if step == 0 {
                ctx.dispatch_ready(vec![(1, ctx.index())], true);
            } else {
                if ctx.index() == origin {
                    ok_c.fetch_add(1, Ordering::SeqCst);
                }
                done_c.fetch_add(1, Ordering::SeqCst);
            }
        });
        for _ in 0..64 {
            pool.submit((0, usize::MAX));
        }
        assert!(wait_for(|| done.load(Ordering::SeqCst) == 64, Duration::from_secs(5)));
        assert_eq!(ok.load(Ordering::SeqCst), 64, "successor jobs must stay on the releasing worker");
    }

    #[test]
    fn work_until_executes_queued_work() {
        // A job that waits until a side job (queued behind it) has run, by working.
        let side_done = Arc::new(AtomicUsize::new(0));
        let all_done = Arc::new(AtomicUsize::new(0));
        let side_c = Arc::clone(&side_done);
        let all_c = Arc::clone(&all_done);
        // Single worker: a blocking wait would deadlock; `work_until` runs the side job.
        let pool: ThreadPool<u8> = ThreadPool::new(1, move |job, ctx| {
            match job {
                0 => {
                    ctx.dispatch_spawned(1);
                    ctx.work_until(|| side_c.load(Ordering::SeqCst) != 0);
                    assert_eq!(side_c.load(Ordering::SeqCst), 1, "returned before `done` held");
                }
                _ => {
                    side_c.fetch_add(1, Ordering::SeqCst);
                }
            }
            all_c.fetch_add(1, Ordering::SeqCst);
        });
        pool.submit(0);
        assert!(wait_for(|| all_done.load(Ordering::SeqCst) == 2, Duration::from_secs(5)));
    }

    /// A worker parked inside `work_until` is an ordinary sleeper plus one wake source: a
    /// flipped predicate announced by `wake_waiters`. The flag flips once the predicate was
    /// evaluated twice — at the loop top and again after registering as a waiter — i.e. with
    /// the worker parked or about to be (the races are `tests/loom_model.rs`'s).
    #[test]
    fn wake_waiters_releases_a_worker_parked_in_work_until() {
        let flag = Arc::new(AtomicBool::new(false));
        let checks = Arc::new(AtomicUsize::new(0));
        let returned = Arc::new(AtomicBool::new(false));
        let (f, c, r) = (Arc::clone(&flag), Arc::clone(&checks), Arc::clone(&returned));
        let pool: ThreadPool<u8> = ThreadPool::new(2, move |_job, ctx| {
            ctx.work_until(|| {
                c.fetch_add(1, Ordering::SeqCst);
                f.load(Ordering::SeqCst)
            });
            r.store(true, Ordering::SeqCst);
        });
        pool.submit(0);
        assert!(wait_for(|| checks.load(Ordering::SeqCst) >= 2, Duration::from_secs(5)));
        assert!(!returned.load(Ordering::SeqCst));
        flag.store(true, Ordering::SeqCst);
        pool.wake_waiters();
        assert!(wait_for(|| returned.load(Ordering::SeqCst), Duration::from_secs(5)));
    }

    #[test]
    fn stats_are_populated() {
        let mut pool: ThreadPool<usize> = ThreadPool::new(2, |_job, _ctx| {});
        for i in 0..50 {
            pool.submit(i);
        }
        assert!(wait_for(
            || pool.stats().executed_jobs() == 50,
            Duration::from_secs(5)
        ));
        // The per-source counters are relaxed: read them only after the workers are joined.
        pool.shutdown();
        let stats = pool.stats();
        assert_eq!(stats.executed_jobs(), 50);
        assert!(stats.from_injector() + stats.from_local() + stats.stolen() >= 50);
    }

    /// The accounting identity behind `RuntimeStats`: every executed job was acquired from
    /// exactly one of the four sources, under every policy.
    #[test]
    fn stats_accounting_identity_holds_for_every_policy() {
        for policy in SchedulingPolicy::all() {
            let mut pool: ThreadPool<u32> = ThreadPool::with_policy(3, policy, |depth, ctx| {
                if depth > 0 {
                    ctx.dispatch_ready(vec![depth - 1], true);
                    ctx.dispatch_spawned(depth - 1);
                }
            });
            pool.submit_batch((0..32).map(|_| 4u32));
            let expected = 32 * ((1usize << 5) - 1);
            assert!(
                wait_for(|| pool.stats().executed_jobs() == expected, Duration::from_secs(10)),
                "policy {}: executed {} of {expected}",
                policy.name(),
                pool.stats().executed_jobs()
            );
            // Quiescence: `executed` and the per-source counters are separate relaxed atomics.
            pool.shutdown();
            let s = pool.stats();
            let acquired =
                s.from_successor_slot() + s.from_local() + s.from_injector() + s.stolen();
            assert_eq!(acquired, expected, "policy {}", policy.name());
            assert_eq!(
                s.stolen(),
                s.stolen_same_domain() + s.stolen_cross_domain(),
                "policy {}: steals must split into same- and cross-domain",
                policy.name()
            );
            if !policy.uses_successor_slot() {
                assert_eq!(
                    s.from_successor_slot(),
                    0,
                    "policy {} must never use the successor slot",
                    policy.name()
                );
            }
        }
    }

    /// Regression test for the §VIII-A demotion order (ISSUE 5 satellite): a job displaced
    /// from the successor slot must execute directly after its displacer — *before* the rest
    /// of the displacing wave — not buried below it.
    #[test]
    fn displaced_successor_outranks_the_displacing_wave() {
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let o = Arc::clone(&order);
        let pool: ThreadPool<usize> = ThreadPool::new(1, move |job, ctx| {
            o.lock().push(job);
            if job == 0 {
                // First wave: 1 takes the slot, 2 and 3 go to the deque.
                ctx.dispatch_ready(vec![1, 2, 3], true);
                // Second wave displaces 1: priority must become 4 (slot), 1 (displaced),
                // then the wave 6, 5 (LIFO), then the older wave 3, 2.
                ctx.dispatch_ready(vec![4, 5, 6], true);
            }
        });
        pool.submit(0);
        assert!(wait_for(|| order.lock().len() == 7, Duration::from_secs(5)));
        assert_eq!(*order.lock(), vec![0, 4, 1, 6, 5, 3, 2]);
        assert_eq!(pool.stats().successor_displacements(), 1);
    }

    /// Satellite: every undelivered job's destructor runs before `drop` returns — deque,
    /// successor slot and injector occupancy all covered (main-thread shutdown).
    #[test]
    fn shutdown_drops_jobs_in_deque_slot_and_injector() {
        struct Job {
            id: usize,
            dropped: Arc<AtomicUsize>,
        }
        impl Drop for Job {
            fn drop(&mut self) {
                self.dropped.fetch_add(1, Ordering::SeqCst);
            }
        }
        let dropped = Arc::new(AtomicUsize::new(0));
        let executed = Arc::new(AtomicUsize::new(0));
        let ready = Arc::new(AtomicBool::new(false));
        let proceed = Arc::new(AtomicBool::new(false));
        let job = |id: usize| Job { id, dropped: Arc::clone(&dropped) };

        let (e, r, p, d) = (
            Arc::clone(&executed),
            Arc::clone(&ready),
            Arc::clone(&proceed),
            Arc::clone(&dropped),
        );
        let mut pool: ThreadPool<Job> = ThreadPool::new(1, move |incoming: Job, ctx| {
            e.fetch_add(1, Ordering::SeqCst);
            if incoming.id == 0 {
                // Occupy the slot and the deque while the worker is pinned inside this job.
                ctx.dispatch_ready((1..=3).map(|id| Job { id, dropped: Arc::clone(&d) }), true);
                r.store(true, Ordering::SeqCst);
                while !p.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        });
        pool.submit(job(0));
        assert!(wait_for(|| ready.load(Ordering::SeqCst), Duration::from_secs(5)));
        // Two more stranded in the injector (the single worker is busy inside job 0).
        pool.submit(job(4));
        pool.submit(job(5));
        let unblocker = {
            let p = Arc::clone(&proceed);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(200));
                p.store(true, Ordering::SeqCst);
            })
        };
        // shutdown() sets the flag, then the worker finishes job 0, observes the flag before
        // scanning again, and drains its slot + deque (destructors run) before being joined.
        pool.shutdown();
        unblocker.join().unwrap();
        assert_eq!(executed.load(Ordering::SeqCst), 1, "only job 0 may execute");
        assert_eq!(
            dropped.load(Ordering::SeqCst),
            4,
            "job 0 + slot + two deque jobs must be dropped once the workers are joined"
        );
        drop(pool);
        assert_eq!(dropped.load(Ordering::SeqCst), 6, "drop must drain the injector too");
    }

    /// The documented exception: a pool shut down *from a worker thread* cannot join that
    /// worker, so jobs stranded in its private deque/slot outlive `drop` (they are still
    /// dropped when the detached thread exits).
    #[test]
    fn self_shutdown_worker_drains_after_drop() {
        struct Job {
            shutdown_here: bool,
            dropped: Arc<AtomicUsize>,
        }
        impl Drop for Job {
            fn drop(&mut self) {
                self.dropped.fetch_add(1, Ordering::SeqCst);
            }
        }
        let dropped = Arc::new(AtomicUsize::new(0));
        let pool: Arc<parking_lot::Mutex<Option<ThreadPool<Job>>>> =
            Arc::new(parking_lot::Mutex::new(None));
        let pool_ref = Arc::clone(&pool);
        let d = Arc::clone(&dropped);
        let created: ThreadPool<Job> = ThreadPool::new(1, move |incoming: Job, ctx| {
            if incoming.shutdown_here {
                // Strand one job in the deque, then drop the pool from this worker thread.
                ctx.dispatch_spawned(Job { shutdown_here: false, dropped: Arc::clone(&d) });
                let taken = pool_ref.lock().take();
                drop(taken);
            }
        });
        *pool.lock() = Some(created);
        pool.lock()
            .as_ref()
            .unwrap()
            .submit(Job { shutdown_here: true, dropped: Arc::clone(&dropped) });
        // The detached worker exits on its own and drains its deque; the stranded job's
        // destructor runs then (after `drop(taken)` returned inside the executor).
        assert!(
            wait_for(|| dropped.load(Ordering::SeqCst) == 2, Duration::from_secs(5)),
            "the self-shutdown worker must still drain its deque on exit"
        );
    }

    /// Fifo is strictly breadth-first: a single worker executes jobs in submission order, and
    /// never touches the slot or its deque.
    #[test]
    fn fifo_policy_preserves_submission_order() {
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let o = Arc::clone(&order);
        let pool: ThreadPool<usize> =
            ThreadPool::with_policy(1, SchedulingPolicy::Fifo, move |job, ctx| {
                o.lock().push(job);
                if job == 0 {
                    // Even "locality" requests degrade to the injector under Fifo.
                    ctx.dispatch_ready(vec![100], true);
                    ctx.dispatch_spawned(101);
                }
            });
        // One batch: all ten enter the injector atomically, so the follow-ups the first job
        // pushes are guaranteed to queue behind them (plain per-job submits could race the
        // worker and interleave 100/101 into the middle).
        pool.submit_batch(0..10);
        assert!(wait_for(|| order.lock().len() == 12, Duration::from_secs(5)));
        assert_eq!(*order.lock(), vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 100, 101]);
        let stats = pool.stats();
        assert_eq!(stats.from_successor_slot(), 0);
        assert_eq!(stats.from_local(), 0);
        assert_eq!(stats.stolen(), 0);
        assert_eq!(stats.from_injector(), 12);
    }

    /// Fair-share round-robins across tenant queues: one job per tenant per turn, regardless
    /// of how many jobs the heavy tenant has queued ahead of the light one.
    #[test]
    fn fair_share_round_robins_across_tenants() {
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let ready = Arc::new(AtomicBool::new(false));
        let proceed = Arc::new(AtomicBool::new(false));
        let (o, r, p) = (Arc::clone(&order), Arc::clone(&ready), Arc::clone(&proceed));
        let pool: ThreadPool<usize> =
            ThreadPool::with_tenants(1, SchedulingPolicy::FairShare, tens, move |job, _ctx| {
                if job == 0 {
                    // Pin the single worker so the tenant queues fill while it is busy.
                    r.store(true, Ordering::SeqCst);
                    while !p.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    return;
                }
                o.lock().push(job);
            });
        pool.submit(0);
        assert!(wait_for(|| ready.load(Ordering::SeqCst), Duration::from_secs(5)));
        // Heavy tenant 1 queues three jobs before light tenant 2 queues two.
        pool.submit_batch([10, 11, 12]);
        pool.submit(20);
        pool.submit(21);
        proceed.store(true, Ordering::SeqCst);
        assert!(wait_for(|| order.lock().len() == 5, Duration::from_secs(5)));
        assert_eq!(*order.lock(), vec![10, 20, 11, 21, 12]);
        let stats = pool.stats();
        assert_eq!(stats.from_successor_slot(), 0);
        assert_eq!(stats.from_local(), 0);
        assert_eq!(
            stats.from_injector(),
            6,
            "six round-robin pops (job 0 included), counted as injector acquisitions"
        );
    }

    /// Regression test for the ISSUE 10 fair-share follow-up: the per-tenant queues used to
    /// bypass the successor slot, so a hot successor was buried behind the round-robin
    /// rotation. The successor now goes through the slot like under every slot policy, and a
    /// displaced slot occupant rejoins the *front* of its own tenant's queue — below its
    /// displacer, above that tenant's colder queued work, without jumping another tenant's
    /// turn.
    #[test]
    fn fair_share_successor_takes_the_slot() {
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let ready = Arc::new(AtomicBool::new(false));
        let proceed = Arc::new(AtomicBool::new(false));
        let (o, r, p) = (Arc::clone(&order), Arc::clone(&ready), Arc::clone(&proceed));
        let pool: ThreadPool<usize> =
            ThreadPool::with_tenants(1, SchedulingPolicy::FairShare, tens, move |job, ctx| {
                o.lock().push(job);
                if job == 0 {
                    // Pin the single worker so tenant 9's jobs queue up behind this body.
                    r.store(true, Ordering::SeqCst);
                    while !p.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    // First wave of tenant 0: 1 takes the slot, 2 and 3 join the queue.
                    ctx.dispatch_ready(vec![1, 2, 3], true);
                    // Second wave displaces 1 from the slot: it must come back at the front
                    // of tenant 0's queue — after the displacer 4 and tenant 9's turn, but
                    // before tenant 0's colder jobs 2, 3 and the new wave 5, 6.
                    ctx.dispatch_ready(vec![4, 5, 6], true);
                }
            });
        pool.submit(0);
        assert!(wait_for(|| ready.load(Ordering::SeqCst), Duration::from_secs(5)));
        pool.submit(90);
        pool.submit(91);
        proceed.store(true, Ordering::SeqCst);
        assert!(wait_for(|| order.lock().len() == 9, Duration::from_secs(5)));
        assert_eq!(*order.lock(), vec![0, 4, 90, 1, 91, 2, 3, 5, 6]);
        let stats = pool.stats();
        assert_eq!(stats.from_successor_slot(), 1, "4 came from the slot");
        assert_eq!(stats.successor_displacements(), 1);
    }

    /// The tenant is read from each job, so one wave may span tenants: it lands on one queue
    /// per tenant and is drained round-robin, from outside the pool and from a worker alike.
    #[test]
    fn fair_share_splits_a_mixed_tenant_wave() {
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let ready = Arc::new(AtomicBool::new(false));
        let proceed = Arc::new(AtomicBool::new(false));
        let (o, r, p) = (Arc::clone(&order), Arc::clone(&ready), Arc::clone(&proceed));
        let pool: ThreadPool<usize> =
            ThreadPool::with_tenants(1, SchedulingPolicy::FairShare, tens, move |job, ctx| {
                if job == 0 {
                    r.store(true, Ordering::SeqCst);
                    while !p.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    // Tenants 3 and 4 join the rotation behind 1 and 2.
                    ctx.dispatch_ready(vec![30, 40, 31], false);
                    return;
                }
                o.lock().push(job);
            });
        pool.submit(0);
        assert!(wait_for(|| ready.load(Ordering::SeqCst), Duration::from_secs(5)));
        pool.submit_batch([10, 11, 12, 20, 21]);
        assert_eq!(pool.fair_queue_depth(), 5);
        proceed.store(true, Ordering::SeqCst);
        assert!(wait_for(|| order.lock().len() == 8, Duration::from_secs(5)));
        assert_eq!(*order.lock(), vec![10, 20, 30, 40, 11, 21, 31, 12]);
    }

    /// An idle worker assists a published loop: the pool-level round trip of
    /// publish → recruit → claim-by-atomic-cursor → retire, with the assist counters
    /// satisfying their identity (`assisted_loops <= assist_steals <= assist_chunks`).
    #[test]
    fn idle_workers_assist_published_loops() {
        let covered = Arc::new(AtomicUsize::new(0));
        let retired = Arc::new(AtomicBool::new(false));
        let (c, r) = (Arc::clone(&covered), Arc::clone(&retired));
        let mut pool: ThreadPool<u8> = ThreadPool::new(2, move |_job, ctx| {
            let sum = Arc::clone(&c);
            let desc = Arc::new(LoopDescriptor::new(
                0..256,
                4,
                1,
                ctx.domain(),
                move |_d, s, e| {
                    sum.fetch_add(e - s, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_micros(200));
                },
                || false,
            ));
            ctx.publish_loop(Arc::clone(&desc));
            // Drive one chunk, then hold until the idle worker has joined in, so the test
            // deterministically exercises the assist path (it is woken by publish_loop and
            // finds no stealable task — the loop is all there is).
            if let Some((s, e)) = desc.claim() {
                desc.run_chunk(s, e);
            }
            while desc.assist_chunk_count() == 0 && !desc.exhausted() {
                std::thread::yield_now();
            }
            desc.drive();
            desc.wait_quiescent();
            ctx.retire_loop(&desc);
            assert!(desc.assist_chunk_count() > 0, "the idle worker must have assisted");
            r.store(true, Ordering::SeqCst);
        });
        pool.submit(0);
        // Wait for the owner's flag, set *after* `retire_loop` — the last chunk bumps `covered`
        // before the owner retires the loop — then join the workers: the assistant folds its
        // counters into the pool stats after its last chunk, and only the join orders that
        // fold before the reads below.
        assert!(wait_for(|| retired.load(Ordering::SeqCst), Duration::from_secs(10)));
        pool.shutdown();
        assert_eq!(covered.load(Ordering::SeqCst), 256);
        assert_eq!(pool.active_loops(), 0, "retire removes the loop");
        let stats = pool.stats();
        let chunks = stats.assist_chunks.load(Ordering::Relaxed);
        let steals = stats.assist_steals.load(Ordering::Relaxed);
        let loops = stats.assisted_loops.load(Ordering::Relaxed);
        assert!(chunks > 0, "assist chunks were executed");
        assert!(loops <= steals && steals <= chunks, "assist counter identity");
        assert_eq!(loops, 1);
    }

    /// DepthFirst follows chains through the deque (LIFO) without ever using the slot.
    #[test]
    fn depth_first_policy_bypasses_the_slot() {
        let done = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&done);
        let pool: ThreadPool<u32> =
            ThreadPool::with_policy(1, SchedulingPolicy::DepthFirst, move |depth, ctx| {
                c.fetch_add(1, Ordering::SeqCst);
                if depth > 0 {
                    ctx.dispatch_ready(vec![depth - 1], true);
                }
            });
        pool.submit(16);
        assert!(wait_for(|| done.load(Ordering::SeqCst) == 17, Duration::from_secs(5)));
        let stats = pool.stats();
        assert_eq!(stats.from_successor_slot(), 0);
        assert_eq!(stats.from_local(), 16);
    }

    /// Hierarchical stealing keeps the counters consistent and executes everything; domain
    /// arithmetic is pinned separately (which domain wins a steal is timing-dependent).
    #[test]
    fn hierarchical_policy_executes_and_splits_steal_counters() {
        let policy = SchedulingPolicy::HierarchicalSteal { domain_size: 2 };
        assert_eq!(policy.domain_count(4), 2);
        assert_eq!(policy.domain_of(0, 4), 0);
        assert_eq!(policy.domain_of(1, 4), 0);
        assert_eq!(policy.domain_of(2, 4), 1);
        assert_eq!(policy.domain_of(3, 4), 1);

        let done = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&done);
        let pool: ThreadPool<u32> = ThreadPool::with_policy(4, policy, move |fanout, ctx| {
            c.fetch_add(1, Ordering::SeqCst);
            if fanout > 0 {
                // Pile work on the producing worker's deque so the others must steal.
                for _ in 0..8 {
                    ctx.dispatch_spawned(fanout - 1);
                }
            }
            std::thread::sleep(Duration::from_micros(50));
        });
        pool.submit(2);
        let expected = 1 + 8 + 64;
        assert!(wait_for(|| done.load(Ordering::SeqCst) == expected, Duration::from_secs(10)));
        let s = pool.stats();
        assert_eq!(
            s.stolen(),
            s.stolen_same_domain()
                + s.stolen_cross_domain()
        );
    }

    /// The inventory table in `docs/scheduling.md` is the definition of the five policies:
    /// every resolved [`Placement`] row must read exactly as its documented row.
    #[test]
    fn placement_rows_match_the_documented_table() {
        let doc = include_str!("../../../docs/scheduling.md");
        for policy in SchedulingPolicy::all() {
            let name = policy.name();
            let row = doc
                .lines()
                .find(|line| line.starts_with(&format!("| `{name}`")))
                .unwrap_or_else(|| panic!("docs/scheduling.md has no row for {name}"));
            let cells: Vec<&str> = row.split('|').map(|c| c.trim().trim_matches('`')).collect();
            let Placement { slot, wave, injector_take, steal } = policy.placement();
            let resolved = [
                if slot { "yes" } else { "no" }.to_string(),
                format!("{wave:?}"),
                format!("{injector_take:?}"),
                format!("{steal:?}"),
            ];
            assert_eq!(cells[2..6], resolved, "{name}");
            assert_eq!(policy.uses_successor_slot(), slot, "{name}");
        }
    }

    #[test]
    fn policy_names_round_trip() {
        for policy in SchedulingPolicy::all() {
            assert_eq!(SchedulingPolicy::from_name(policy.name()), Some(policy));
        }
        assert_eq!(SchedulingPolicy::from_name("nope"), None);
        assert_eq!(SchedulingPolicy::default(), SchedulingPolicy::LocalitySlot);
        // Degenerate domain sizes clamp instead of dividing by zero.
        let degenerate = SchedulingPolicy::HierarchicalSteal { domain_size: 0 };
        assert_eq!(degenerate.domain_size(4), 1);
        assert_eq!(SchedulingPolicy::hierarchical().domain_size(2), 2);
    }

    #[test]
    fn shutdown_with_idle_workers_terminates() {
        let mut pool: ThreadPool<usize> = ThreadPool::new(8, |_job, _ctx| {});
        std::thread::sleep(Duration::from_millis(20));
        pool.shutdown();
    }

    #[test]
    fn drop_without_explicit_shutdown_terminates() {
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        {
            let pool: ThreadPool<usize> = ThreadPool::new(3, move |_job, _ctx| {
                c.fetch_add(1, Ordering::SeqCst);
            });
            for i in 0..10 {
                pool.submit(i);
            }
            assert!(wait_for(|| counter.load(Ordering::SeqCst) == 10, Duration::from_secs(5)));
        }
        // Pool dropped: all threads joined, no hang.
    }

    #[test]
    fn submit_batch_wakes_enough_workers() {
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        let pool: ThreadPool<usize> = ThreadPool::new(4, move |_job, _ctx| {
            std::thread::sleep(Duration::from_millis(1));
            c.fetch_add(1, Ordering::SeqCst);
        });
        // Let the workers fall asleep first.
        std::thread::sleep(Duration::from_millis(50));
        pool.submit_batch(0..200);
        assert!(wait_for(|| counter.load(Ordering::SeqCst) == 200, Duration::from_secs(10)));
    }

    #[test]
    fn single_worker_pool_executes_every_job_exactly_once() {
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let o = Arc::clone(&order);
        let pool: ThreadPool<usize> = ThreadPool::new(1, move |job, _ctx| {
            o.lock().push(job);
        });
        for i in 0..20 {
            pool.submit(i);
        }
        assert!(wait_for(|| order.lock().len() == 20, Duration::from_secs(5)));
        let got = order.lock().clone();
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn heavy_concurrent_submissions() {
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        let pool = Arc::new(ThreadPool::new(4, move |_job: usize, _ctx| {
            c.fetch_add(1, Ordering::SeqCst);
        }));
        let mut handles = Vec::new();
        for t in 0..4 {
            let pool = Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                for i in 0..5_000 {
                    pool.submit(t * 10_000 + i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(wait_for(|| counter.load(Ordering::SeqCst) == 20_000, Duration::from_secs(20)));
    }
}
