//! The task runtime: spawning, scheduling, `taskwait`, the `wait`/`weakwait` clauses and the
//! `release` directive, glued to the dependency engine and the work-stealing worker pool.
//!
//! # Mapping from the paper's pragmas to this API
//!
//! | OpenMP (paper)                                   | `weakdep` API                                     |
//! |--------------------------------------------------|---------------------------------------------------|
//! | `#pragma omp task depend(in: x[a:n])`            | `ctx.task().input(x.region(a..a+n)).spawn(...)`    |
//! | `#pragma omp taskloop` with per-iteration `depend` | `ctx.spawn_each(n, \|i, c\| { c.inout(...); }, body)` |
//! | `depend(out: ...)` / `depend(inout: ...)`        | `.output(...)` / `.inout(...)`                     |
//! | `depend(weakin/weakout/weakinout: ...)` (§VI)    | `.weak_input(...)` / `.weak_output(...)` / `.weak_inout(...)` |
//! | `wait` clause (§IV)                              | `.wait()`                                          |
//! | `weakwait` clause (§V)                           | `.weakwait()`                                      |
//! | `#pragma omp taskwait`                           | `ctx.taskwait()`                                   |
//! | `#pragma omp release depend(...)` (§V)           | `ctx.release(region)`                              |
//!
//! # Scheduling policy
//!
//! When a finishing task releases a dependency and that makes successors ready, the first
//! successor is placed in the releasing worker's *immediate-successor slot* and the rest on its
//! LIFO deque. This is the locality policy described in §VIII-A of the paper ("the scheduler …
//! can use this information to dispatch a successor to the same core"), and is what produces the
//! lower L2 miss ratios of the `nest-weak*` and `flat-depend` variants in Figure 3.
//!
//! # Concurrency structure
//!
//! The dependency engine is internally sharded (one lock per dependency domain, see
//! `docs/locking.md`); the runtime holds **no** global lock. Spawning a task locks only the
//! parent's domain; the record of a not-yet-ready task is parked in the engine, in the task's
//! scheduling record in its parent's domain, and the readiness that releases the task hands the
//! record back. All scheduling (successor slot, deques, injector) happens after every engine
//! lock has been dropped. [`TaskCtx::spawn_batch`] and [`TaskCtx::spawn_each`] register a
//! whole wave of sibling tasks under a single domain-lock acquisition.
//!
//! # Multi-tenant service
//!
//! One [`Runtime`] is a shared engine + pool **service**: [`Runtime::submit`] starts an
//! independent *job* (its own root domain in the engine, its own completion gate and stats
//! slice) and returns a [`JobHandle`] for waiting, polling or cancelling it, while other jobs
//! keep running on the same workers. [`Runtime::run`] is the single-tenant convenience wrapper:
//! submit + execute the root body inline + wait. Submissions pass an admission gate
//! ([`RuntimeConfig::live_task_budget`]) so a tenant cannot push the service's live-task
//! plateau — and with it the permanently allocated slot capacity — past a configured budget;
//! see `docs/runtime.md` for the full tenancy model and `crate::job` for the cancellation
//! protocol.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use weakdep_regions::{IntervalMap, Region};
use weakdep_threadpool::{
    thread_slot, AdmissionGate, AdmissionStats, LoopDescriptor, SchedulingPolicy, Striped,
    ThreadPool, Tick, Watchdog, WorkerContext,
};

use crate::data::SharedSlice;

#[cfg(feature = "faults")]
use crate::faults::FaultPlan;
use crate::job::{JobError, JobHandle, JobOptions, JobState, JobStats};

use crate::access::{normalize_as, AccessType, Depend, WaitMode};
use crate::engine::{Cascade, DependencyEngine, Effects, TaskEntry, TaskId};
use crate::home_bin::HomeBin;
use crate::observer::{FootprintEntry, RuntimeObserver, TaskExecution, TaskInfo};

/// Configuration for [`Runtime::new`].
pub struct RuntimeConfig {
    workers: usize,
    observers: Vec<Arc<dyn RuntimeObserver>>,
    scheduling: SchedulingPolicy,
    live_task_budget: Option<usize>,
    stall_tick: Option<Duration>,
    stall_strikes: usize,
    /// Deterministic fault injection; see [`RuntimeConfig::fault_plan`].
    #[cfg(feature = "faults")]
    fault_plan: Option<FaultPlan>,
    /// Test-only fault injection; see [`RuntimeConfig::seed_wave_ordering_bug`].
    #[cfg(feature = "sentinel")]
    seed_wave_ordering_bug: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        RuntimeConfig {
            workers,
            observers: Vec::new(),
            scheduling: SchedulingPolicy::default(),
            live_task_budget: None,
            stall_tick: None,
            stall_strikes: 3,
            #[cfg(feature = "faults")]
            fault_plan: None,
            #[cfg(feature = "sentinel")]
            seed_wave_ordering_bug: false,
        }
    }
}

impl RuntimeConfig {
    /// Default configuration: one worker per available hardware thread, no observers, the
    /// [`SchedulingPolicy::LocalitySlot`] policy (§VIII-A locality scheduling).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of worker threads.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Registers an observer (tracing, cache simulation, ...).
    pub fn observer(mut self, observer: Arc<dyn RuntimeObserver>) -> Self {
        self.observers.push(observer);
        self
    }

    /// Selects the scheduling policy: how ready tasks are placed (successor slot, deque,
    /// injector) and how idle workers search for work. See [`SchedulingPolicy`] and
    /// `docs/scheduling.md` for the inventory; the default is the paper's §VIII-A
    /// [`SchedulingPolicy::LocalitySlot`], and [`SchedulingPolicy::Fifo`] is the no-locality
    /// baseline Figure 3 compares against.
    pub fn scheduling_policy(mut self, policy: SchedulingPolicy) -> Self {
        self.scheduling = policy;
        self
    }

    /// Caps the number of live tasks the service admits new jobs against: a
    /// [`Runtime::submit`] (or [`Runtime::run`]) blocks while the engine's live-task count is
    /// at or above the budget, resuming as in-flight work drains. This keys the admission
    /// decision off the same live-task high-water plateau the [`CapacityStats`] reclamation
    /// machinery maintains — admitting past the budget would permanently grow the slot
    /// capacity plateau. Default: unlimited (no backpressure).
    ///
    /// Admission is decided **per job at submission**, never per task: spawning inside an
    /// already-admitted job is never blocked (blocking a worker would deadlock the drain that
    /// admission waits for). For the same reason, only submit from non-worker threads when a
    /// budget is set.
    pub fn live_task_budget(mut self, budget: usize) -> Self {
        self.live_task_budget = Some(budget.max(1));
        self
    }

    /// Enables the stall watchdog: every `tick`, each live job's progress counters are
    /// fingerprinted, and a job whose fingerprint has not changed for `strikes` consecutive
    /// ticks is flagged once with a stall report on stderr (per-job counters, queue depths,
    /// engine load, admission counters). Detection only — nothing is aborted: a stalled job is
    /// a diagnosis, not a verdict (it may be blocked on external input). Deadlines
    /// ([`JobOptions::deadline`]) are enforced by the same watchdog thread, which is spawned
    /// lazily on the first submission that needs it.
    pub fn stall_watchdog(mut self, tick: Duration, strikes: usize) -> Self {
        self.stall_tick = Some(tick);
        self.stall_strikes = strikes.max(1);
        self
    }

    /// Attaches a deterministic, seeded fault-injection plan (`--features faults` only): task
    /// bodies panic, dispatch is delayed and submissions stall at the plan's configured rates,
    /// each decision a pure function of `(seed, job, task ordinal)`. See [`FaultPlan`] and
    /// `docs/robustness.md`; the chaos test (`cargo test -p weakdep --features faults --test
    /// chaos`) drives a mixed-tenant fleet through this.
    #[cfg(feature = "faults")]
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// **Test-only fault injection** (mutation regression for the race sentinel): registers
    /// every child — single `spawn`s and `spawn_batch` / `spawn_each` waves, which share one
    /// registration step — with its declared dependencies *dropped*, so the engine dispatches
    /// all siblings of a wave concurrently — reintroducing the §VIII-A wave-ordering bug class
    /// fixed in PR 5 — while task records (and the sentinel's shadow table) keep the full
    /// declared footprints. The sentinel must then report a region conflict; see
    /// `tests/sentinel.rs`. The engine's own bookkeeping stays consistent: the tasks really are
    /// registered dependency-free, they just should not have been.
    #[cfg(feature = "sentinel")]
    #[doc(hidden)]
    pub fn seed_wave_ordering_bug(mut self, enabled: bool) -> Self {
        self.seed_wave_ordering_bug = enabled;
        self
    }
}

/// Snapshot of the runtime's steady-state capacity: how many task ids the engine has minted.
/// With id retirement this plateaus at the live-task high-water mark — it does **not** grow
/// with the total number of tasks ever spawned, which is what lets one runtime serve an
/// unbounded task stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CapacityStats {
    /// Task ids minted (live + waiting on a free list for reuse). The name is kept for its
    /// readers, such as the repo benchmark's `runtime.task_table_slots`; there is no table.
    pub task_table_slots: usize,
    /// Tasks currently live (registered and not yet retired).
    pub live_tasks: usize,
    /// Always 0. The record of a task not yet ready is parked in the task's scheduling record
    /// in its parent's domain, which is freed exactly when the task retires, so the
    /// `task_table_slots` plateau already covers it. Kept so that existing readers, such as the
    /// repo benchmark's `runtime.pending_slots` metric, keep building.
    pub pending_slots: usize,
    /// Jobs currently live in the service registry (submitted and not yet finished).
    pub live_jobs: usize,
    /// Finished task records parked in the workers' return bins, waiting for the worker that
    /// spawned them to reuse them. Bounded per worker (see `docs/runtime.md`, "Task memory").
    pub returned_records: usize,
}

/// Snapshot of runtime-wide statistics.
///
/// Scheduler accounting invariant: `tasks_executed == successor_slot_hits + local_pops +
/// injector_pops + steals` — every executed task was acquired from exactly one source.
#[derive(Debug, Clone, Default)]
pub struct RuntimeStats {
    /// Statistics of the dependency engine.
    pub engine: crate::engine::EngineStats,
    /// Name of the active scheduling policy (see [`SchedulingPolicy::name`]).
    pub policy: &'static str,
    /// Tasks executed by the worker pool.
    pub tasks_executed: usize,
    /// Ready tasks that were dispatched through the immediate-successor slot (locality hits).
    pub successor_slot_hits: usize,
    /// Tasks taken from a worker's own deque.
    pub local_pops: usize,
    /// Tasks taken from the global injector.
    pub injector_pops: usize,
    /// Tasks stolen from another worker.
    pub steals: usize,
    /// Successor-slot jobs displaced by a newer successor (re-dispatched below it).
    pub successor_displacements: usize,
    /// Sleepers woken by a worker for work it queued itself: a ready wave on its own deque,
    /// or a published loop (`PoolStats::targeted_wakes`).
    pub targeted_wakes: usize,
    /// Always 0: the pool has one sleeper population, so no wake falls back. Kept beside
    /// `targeted_wakes` until no reader sums the two.
    pub fallback_wakes: usize,
    /// Times a worker parked in the pool's sleep state — idle at the top of its loop or
    /// inside a `taskwait` (one population, one counter). Only sleeps that block count: a
    /// sleep that returns at once because the epoch moved or the exit predicate held does not.
    pub sleeps: usize,
    /// Loop chunks executed by *assisting* workers (work-assisting data parallelism). Assist
    /// chunks are not pool jobs, so they stand beside — not inside — the `tasks_executed`
    /// identity; their own invariant is `assisted_loops <= assist_steals <= assist_chunks`.
    pub assist_chunks: usize,
    /// Distinct published loops that received at least one assist chunk.
    pub assisted_loops: usize,
    /// Idle-path assist engagements (one per worker-visit that claimed ≥ 1 chunk of a loop).
    pub assist_steals: usize,
    /// Cumulative wall time spent creating tasks (dependency registration included), in ns.
    /// Every `spawn_batch` / `spawn_each` wave is timed; a single `spawn` call is timed on a
    /// per-thread random 1-in-8 sample and counted 8 times, so this part is an unbiased estimate
    /// that needs many spawns to settle (see `docs/runtime.md`, "Phase timers").
    pub spawn_ns: u64,
    /// Cumulative wall time from the start to the end of each task body, in ns: the difference
    /// of the two clock reads observers see as [`TaskExecution`]'s `start` and `end`. Not
    /// disjoint from the other timers: it includes the `release` calls a body makes, its
    /// `spawn` / `spawn_batch` / `spawn_each` calls (also counted in `spawn_ns`), and the tasks a
    /// worker runs inside the body's `taskwait`, whose own body time is thereby counted twice.
    pub body_ns: u64,
    /// Cumulative wall time spent retiring tasks (dependency release + scheduling), in ns. It
    /// runs from the end of the body — or, with observers installed, from the return of their
    /// `task_executed` calls — to the end of the retire. Without observers a retire is timed on
    /// a per-thread random 1-in-8 sample and counted 8 times (an unbiased estimate); with
    /// observers every retire is timed once. The flushes of deferred retires a worker makes
    /// outside any retire (idle, or before it runs a task of another parent) are timed every
    /// time.
    pub retire_ns: u64,
    /// Finished leaves whose `ChildDone` waited in their worker's retire batch instead of being
    /// applied at once (see `docs/runtime.md`, "Retire batching").
    pub retires_deferred: usize,
    /// Retire batches applied, each under one acquisition of the leaves' parent domain:
    /// `retires_deferred / retire_flushes` is the mean batch size.
    pub retire_flushes: usize,
    /// Finished task records a worker handed back to the worker that spawned them, through
    /// that worker's return bin (see `docs/runtime.md`, "Task memory").
    pub records_returned: usize,
    /// Task records built in a spare record of the spawning worker instead of a new
    /// allocation.
    pub records_reused: usize,
    /// Jobs submitted to the service (via [`Runtime::run`] or [`Runtime::submit`]).
    pub jobs_submitted: usize,
    /// Jobs whose root deeply completed (includes cancelled jobs, which still drain).
    pub jobs_completed: usize,
    /// Jobs that were cancelled before finishing.
    pub jobs_cancelled: usize,
    /// Admission-gate traffic (see [`RuntimeConfig::live_task_budget`]).
    pub admission: AdmissionStats,
}

type BodyFn = Box<dyn FnOnce(&TaskCtx<'_>) + Send + 'static>;

/// The body a [`TaskCtx::spawn_each`] wave shares, called with the child's index.
type EachFn = dyn Fn(&TaskCtx<'_>, usize) + Send + Sync + 'static;

/// A task's body: a closure of its own, or its index into the body of its wave.
enum Body {
    Once(BodyFn),
    Each(Arc<EachFn>, usize),
}

impl Body {
    fn call(self, ctx: &TaskCtx<'_>) {
        match self {
            Body::Once(body) => body(ctx),
            Body::Each(body, index) => body(ctx, index),
        }
    }
}

/// Internal record of a spawned task. It has one owner at a time: the spawner, then the
/// engine (parked until the task is ready), then the scheduler queues, then the worker that
/// runs it.
pub(crate) struct TaskRecord {
    id: TaskId,
    /// The task's engine entry, attached by registration (a root's by `create_job`) before the
    /// record can run: spawn, retire, `taskwait` and `release` reach the engine through it.
    entry: Option<Entry>,
    label: &'static str,
    body: Option<Body>,
    /// The normalised dependencies (the first `deps` entries, which the engine links) followed
    /// by the footprint hints.
    footprint: Vec<FootprintEntry>,
    deps: u32,
    /// The index of the worker that spawned the task, or [`OFF_POOL`]: a worker other than
    /// its home hands the finished record back to it (see [`RecordCache`]).
    home: u32,
    /// The job this task belongs to (an `Arc` clone per task — refcount only, no allocation,
    /// so the spawn path's allocs-per-task budget is unchanged).
    job: Arc<JobState>,
    /// Job-local registration ordinal (root = 0), the task's key in the fault plan's decision
    /// streams. Compiled out without the `faults` feature so the record layout is unchanged.
    #[cfg(feature = "faults")]
    ordinal: u32,
}

/// A task's engine entry, as its [`TaskRecord`] holds it.
type Entry = Arc<TaskEntry<Box<TaskRecord>>>;

impl TaskRecord {
    /// The task's engine entry.
    fn entry(&self) -> &Entry {
        self.entry
            .as_ref()
            .expect("registration attaches the entry before the task runs")
    }
}

/// The phase timers (cumulative nanoseconds), the retire-batch counts and the record-return
/// counts: a [`Striped`] block per thread slot, so a worker's additions stay on cache lines of
/// its own. Indexed by the `*_NS` constants, [`RETIRES_DEFERRED`] / [`RETIRE_FLUSHES`] and
/// [`RECORDS_RETURNED`] / [`RECORDS_REUSED`].
type PhaseTimers = Striped<7>;

/// [`RuntimeStats::spawn_ns`]'s timer.
const SPAWN_NS: usize = 0;
/// [`RuntimeStats::body_ns`]'s timer.
const BODY_NS: usize = 1;
/// [`RuntimeStats::retire_ns`]'s timer.
const RETIRE_NS: usize = 2;
/// [`RuntimeStats::retires_deferred`]'s counter.
const RETIRES_DEFERRED: usize = 3;
/// [`RuntimeStats::retire_flushes`]'s counter.
const RETIRE_FLUSHES: usize = 4;
/// [`RuntimeStats::records_returned`]'s counter.
const RECORDS_RETURNED: usize = 5;
/// [`RuntimeStats::records_reused`]'s counter.
const RECORDS_REUSED: usize = 6;

/// One single `spawn` and one retire in `SAMPLE_PERIOD` (on average, per thread) is timed,
/// and its span counts `SAMPLE_PERIOD` times: the per-task clock reads a sampled phase saves
/// are worth more than its exactness (see `docs/runtime.md`, "Phase timers").
const SAMPLE_PERIOD: u64 = 8;

/// Adds `weight × (end − start)` to the phase timer `phase`.
fn add_span(timers: &PhaseTimers, phase: usize, start: Instant, end: Instant, weight: u64) {
    timers.add(phase, weight * end.duration_since(start).as_nanos() as u64);
}

/// A xorshift32 stream of sampling decisions, true with probability `1 / SAMPLE_PERIOD`. Each
/// decision is a fresh draw, so calls that alternate on one thread — a worker's spawns and
/// retires — are sampled alike; a stride (`tick % SAMPLE_PERIOD == 0`) would time only one
/// of them.
#[derive(Copy, Clone)]
struct Sampler(u32);

impl Sampler {
    /// A stream for thread slot `slot` (any value gives a valid, non-zero state).
    fn for_slot(slot: usize) -> Self {
        Sampler((slot as u32).wrapping_add(1).wrapping_mul(0x9E37_79B9) | 1)
    }

    fn draw(&mut self) -> bool {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        self.0 = x;
        u64::from(x) < (1u64 << 32) / SAMPLE_PERIOD
    }
}

thread_local! {
    /// This thread's sampler; 0 until its first draw seeds it from the thread's slot.
    static SAMPLER: Cell<Sampler> = const { Cell::new(Sampler(0)) };
}

/// Whether the calling thread times the span it is about to start (see [`SAMPLE_PERIOD`]).
fn sampled() -> bool {
    SAMPLER.with(|cell| {
        let mut sampler = cell.get();
        if sampler.0 == 0 {
            sampler = Sampler::for_slot(thread_slot());
        }
        let hit = sampler.draw();
        cell.set(sampler);
        hit
    })
}

struct Inner {
    pool: ThreadPool<Box<TaskRecord>>,
    engine: DependencyEngine<Box<TaskRecord>>,
    /// One [`RecordBin`] per worker, indexed by [`TaskRecord::home`]. Shared with the pool's
    /// idle hook, which checks a bin without reaching for `Inner`.
    return_bins: Arc<[RecordBin]>,
    /// Live-job registry: each live job with its root's engine entry, which a root, having no
    /// parent domain to hold it, needs held until it retires. **Leaf-like lock**: only
    /// insert/remove/Arc-clone under it — never a gate notify, an engine call or a queue
    /// operation (see `docs/locking.md`).
    jobs: Mutex<HashMap<u64, (Arc<JobState>, Entry)>>,
    next_job_id: AtomicU64,
    /// Blocks new submissions while the engine's live-task count sits above the configured
    /// budget (see [`RuntimeConfig::live_task_budget`]). Shared (`Arc`) with every job's
    /// state so abort paths can re-signal blocked submitters.
    admission: Arc<AdmissionGate>,
    /// Deadline-enforcement and stall-detection thread (lazily spawned by the first
    /// submission that needs it; see [`RuntimeConfig::stall_watchdog`] and
    /// [`JobOptions::deadline`]). Its `state` lock is a leaf (see `docs/locking.md`).
    watchdog: Watchdog,
    /// Stall-detection config (`None` disables the stall pass; deadlines still work).
    stall_tick: Option<Duration>,
    stall_strikes: usize,
    /// Deterministic fault-injection plan (see [`RuntimeConfig::fault_plan`]).
    #[cfg(feature = "faults")]
    fault_plan: Option<FaultPlan>,
    jobs_submitted: AtomicUsize,
    jobs_completed: AtomicUsize,
    jobs_cancelled: AtomicUsize,
    observers: Vec<Arc<dyn RuntimeObserver>>,
    timers: PhaseTimers,
    /// Shadow table of declared task footprints: every dispatch/retire is cross-checked against
    /// all concurrently running tasks, and every `SharedSlice` access against the live declared
    /// footprint. Compiled out (zero cost) without the `sentinel` feature.
    #[cfg(feature = "sentinel")]
    sentinel: weakdep_sentinel::Sentinel,
    /// See [`RuntimeConfig::seed_wave_ordering_bug`].
    #[cfg(feature = "sentinel")]
    seed_wave_ordering_bug: bool,
}

impl Inner {
    /// The live jobs, their `Arc`s cloned out under the registry lock.
    fn live_jobs(&self) -> Vec<Arc<JobState>> {
        let jobs = self.jobs.lock();
        jobs.values().map(|(job, _)| Arc::clone(job)).collect()
    }
}

/// Shadow-table key for a task: generation-qualified so a recycled [`TaskId::index`] can never
/// be confused with its previous occupant.
#[cfg(feature = "sentinel")]
fn sentinel_key(id: TaskId) -> u64 {
    ((id.generation() as u64) << 32) | id.index() as u64
}

/// The task runtime. Create one with [`Runtime::new`], then call [`Runtime::run`] with the root
/// task body; `run` returns when every task created (transitively) inside has completed.
pub struct Runtime {
    inner: Arc<Inner>,
}

impl Runtime {
    /// Creates a runtime with the given configuration.
    pub fn new(config: RuntimeConfig) -> Self {
        let observers = config.observers.clone();
        let inner = Arc::new_cyclic(|weak: &std::sync::Weak<Inner>| {
            let weak_for_pool = weak.clone();
            let weak_for_idle = weak.clone();
            let return_bins: Arc<[RecordBin]> = (0..config.workers.max(1))
                .map(|_| RecordBin::default())
                .collect();
            let bins_for_idle = Arc::clone(&return_bins);
            let pool = ThreadPool::<Box<TaskRecord>>::with_idle_hook(
                config.workers,
                config.scheduling,
                // The tenant of a task is its job: FairShare round-robins across live jobs.
                |record| record.job.id,
                move |record: Box<TaskRecord>, wctx| {
                    if let Some(inner) = weak_for_pool.upgrade() {
                        execute_task(&inner, record, wctx);
                    }
                },
                // An idle worker applies the retires it deferred, hands its partial record
                // batches home and takes in its own bin before it assists or sleeps.
                move |wctx| {
                    let bin = &bins_for_idle[wctx.index()];
                    WORKER.with_borrow_mut(|state| {
                        let work = state.batch.held > 0 || state.records.pending > 0;
                        (work || bin.len() > 0)
                            && weak_for_idle
                                .upgrade()
                                .is_some_and(|inner| state.idle(&inner, wctx))
                    })
                },
            );
            Inner {
                pool,
                engine: DependencyEngine::default(),
                return_bins,
                jobs: Mutex::new(HashMap::new()),
                next_job_id: AtomicU64::new(0),
                admission: Arc::new(AdmissionGate::new(
                    config.live_task_budget.unwrap_or(usize::MAX),
                )),
                watchdog: Watchdog::new(),
                stall_tick: config.stall_tick,
                stall_strikes: config.stall_strikes,
                #[cfg(feature = "faults")]
                fault_plan: config.fault_plan.clone(),
                jobs_submitted: AtomicUsize::new(0),
                jobs_completed: AtomicUsize::new(0),
                jobs_cancelled: AtomicUsize::new(0),
                observers,
                timers: PhaseTimers::new(),
                #[cfg(feature = "sentinel")]
                sentinel: weakdep_sentinel::Sentinel::new(),
                #[cfg(feature = "sentinel")]
                seed_wave_ordering_bug: config.seed_wave_ordering_bug,
            }
        });
        for obs in &inner.observers {
            obs.runtime_started(inner.pool.worker_count());
        }
        Runtime { inner }
    }

    /// Creates a runtime with `workers` worker threads and no observers.
    pub fn with_workers(workers: usize) -> Self {
        Self::new(RuntimeConfig::new().workers(workers))
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.inner.pool.worker_count()
    }

    /// The scheduling policy the runtime's worker pool was created with.
    pub fn scheduling_policy(&self) -> SchedulingPolicy {
        self.inner.pool.policy()
    }

    /// Executes `body` as the root task of a fresh job and waits for it *and every descendant
    /// task* to finish (the implicit barrier of the paper's evaluation codes). Other jobs may
    /// run concurrently on the same service; `run` is exactly [`Runtime::submit`] with the root
    /// body executed inline on the calling thread.
    ///
    /// If any task body panics, the panic is captured, the remaining tasks are still executed
    /// (so the runtime stays consistent) and the panic is re-raised here.
    pub fn run<R>(&self, body: impl FnOnce(&TaskCtx<'_>) -> R) -> R {
        let (job, root_record) = create_job(&self.inner, JobOptions::new(), None);
        let ctx = TaskCtx {
            inner: &self.inner,
            record: &root_record,
            worker: None,
        };
        #[cfg(feature = "sentinel")]
        self.inner
            .sentinel
            .task_started(sentinel_key(root_record.id));
        let result = catch_unwind(AssertUnwindSafe(|| body(&ctx)));

        WORKER.with_borrow_mut(|state| {
            let (cascade, effects) = state.buffers();
            let engine = &self.inner.engine;
            engine.finish_body(root_record.entry(), cascade, effects);
            engine.pump(cascade, effects);
            schedule_effects(&self.inner, effects, None, &job);
        });

        // Wait until the root (and therefore every descendant) deeply completes; the job's
        // `finished` flag is flipped by `schedule_effects` when the engine reports the root's
        // deep completion. The wait is untimed: deep completion reliably signals the per-job
        // gate (see the gate's register/check protocol, which closes the lost-wake-up race —
        // model-checked in `tests/loom_completion.rs`).
        job.gate.wait_until(|| job.is_finished());
        // Every descendant has retired (and left the shadow table); drop the root entry too so
        // the table holds only other jobs' live tasks.
        #[cfg(feature = "sentinel")]
        self.inner
            .sentinel
            .task_finished(sentinel_key(root_record.id));
        // Deep completion of the root is a quiescent point for the engine's accounting only
        // when no other job is in flight. The registry stays locked through the check: a job
        // entered after the emptiness test would register tasks while the counters are read.
        if cfg!(debug_assertions) {
            let jobs = self.inner.jobs.lock();
            if jobs.is_empty() {
                self.inner.engine.debug_check_invariants();
            }
        }

        // A child's recorded failure wins over the root body's own panic (matching the
        // pre-failure-model precedence); panics resume their original payload.
        if let Some(error) = job.take_error() {
            match error {
                JobError::Panicked { payload, .. } => resume_unwind(payload),
                other => panic!("{other}"),
            }
        }
        match result {
            Ok(value) => value,
            Err(payload) => resume_unwind(payload),
        }
    }

    /// Submits `body` as the root task of a new job and returns immediately with a
    /// [`JobHandle`] for waiting ([`JobHandle::wait_result`]), polling
    /// ([`JobHandle::try_wait_result`]) or cancelling ([`JobHandle::cancel`]) it. The job is an
    /// independent root domain in the shared engine: its tasks never depend on (or conflict
    /// with) another job's, but they share the worker pool, and under
    /// [`SchedulingPolicy::FairShare`] ready waves are round-robined across live jobs.
    ///
    /// Blocks while the service's live-task count is at or above the configured
    /// [`RuntimeConfig::live_task_budget`] (admission control); never blocks without one.
    /// Dropping the handle detaches the job (it keeps running); dropping the *runtime* cancels
    /// and drains every live job.
    pub fn submit<R, F>(&self, body: F) -> JobHandle<R>
    where
        F: FnOnce(&TaskCtx<'_>) -> R + Send + 'static,
        R: Send + 'static,
    {
        self.submit_with(JobOptions::new(), body)
    }

    /// [`Runtime::submit`] with per-job [`JobOptions`]: a wall-clock deadline (enforced by the
    /// service's watchdog thread), the [`PanicPolicy`](crate::PanicPolicy) applied when one of
    /// the job's bodies panics, and a diagnostic label for stall reports. Use
    /// [`JobHandle::wait_result`] to observe the typed outcome.
    pub fn submit_with<R, F>(&self, options: JobOptions, body: F) -> JobHandle<R>
    where
        F: FnOnce(&TaskCtx<'_>) -> R + Send + 'static,
        R: Send + 'static,
    {
        let result: Arc<Mutex<Option<R>>> = Arc::new(Mutex::new(None));
        let slot = Arc::clone(&result);
        let body = Body::Once(Box::new(move |ctx: &TaskCtx<'_>| {
            *slot.lock() = Some(body(ctx))
        }));
        let (job, root_record) = create_job(&self.inner, options, Some(body));
        // The root is ready by construction (no dependencies).
        self.inner.pool.submit(Box::new(root_record));
        JobHandle { job, result }
    }

    /// Per-job stats slices of the currently live jobs, ordered by job id (a finished job
    /// leaves the registry; the aggregate view is [`Runtime::stats`]). A [`JobHandle`] offers
    /// the same slice for a specific job, live or finished.
    pub fn job_stats(&self) -> Vec<JobStats> {
        let mut out: Vec<JobStats> = self.inner.live_jobs().iter().map(|j| j.stats()).collect();
        out.sort_by_key(|s| s.job_id);
        out
    }

    /// Runtime-wide statistics (dependency engine + scheduler counters).
    pub fn stats(&self) -> RuntimeStats {
        use std::sync::atomic::Ordering;
        let pool_stats = self.inner.pool.stats();
        RuntimeStats {
            engine: self.inner.engine.stats(),
            policy: self.inner.pool.policy().name(),
            tasks_executed: pool_stats.executed_jobs(),
            successor_slot_hits: pool_stats.from_successor_slot(),
            local_pops: pool_stats.from_local(),
            injector_pops: pool_stats.from_injector(),
            steals: pool_stats.stolen(),
            successor_displacements: pool_stats.successor_displacements(),
            targeted_wakes: pool_stats.targeted_wakes(),
            fallback_wakes: 0,
            sleeps: pool_stats.sleeps.load(Ordering::Relaxed),
            assist_chunks: pool_stats.assist_chunks.load(Ordering::Relaxed),
            assisted_loops: pool_stats.assisted_loops.load(Ordering::Relaxed),
            assist_steals: pool_stats.assist_steals.load(Ordering::Relaxed),
            spawn_ns: self.inner.timers.get(SPAWN_NS),
            body_ns: self.inner.timers.get(BODY_NS),
            retire_ns: self.inner.timers.get(RETIRE_NS),
            retires_deferred: self.inner.timers.get(RETIRES_DEFERRED) as usize,
            retire_flushes: self.inner.timers.get(RETIRE_FLUSHES) as usize,
            records_returned: self.inner.timers.get(RECORDS_RETURNED) as usize,
            records_reused: self.inner.timers.get(RECORDS_REUSED) as usize,
            jobs_submitted: self.inner.jobs_submitted.load(Ordering::Relaxed),
            jobs_completed: self.inner.jobs_completed.load(Ordering::Relaxed),
            jobs_cancelled: self.inner.jobs_cancelled.load(Ordering::Relaxed),
            admission: self.inner.admission.stats(),
        }
    }

    /// Current per-task capacity diagnostics (see [`CapacityStats`]).
    pub fn capacity(&self) -> CapacityStats {
        CapacityStats {
            task_table_slots: self.inner.engine.ids_minted(),
            live_tasks: self.inner.engine.live_tasks(),
            pending_slots: 0,
            live_jobs: self.inner.jobs.lock().len(),
            returned_records: self.inner.return_bins.iter().map(RecordBin::len).sum(),
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        // Stop the watchdog first: a deadline abort or stall report firing into a service
        // that is tearing down is noise, and the watchdog's tick closure holds a `Weak` to
        // this `Inner` that must not be upgraded mid-drain.
        self.inner.watchdog.stop();
        // Cancel and drain every live (detached) job *before* the pool's own `Drop` joins the
        // workers: a pool shut down under a live job would drop its queued tasks unretired and
        // return its `taskwait`ing workers with children outstanding. Setting the flags needs
        // no wake-up, on the job's gate or in the pool: no waiter's predicate flips here, and
        // every queued task was announced to the pool's sleepers when it was enqueued — the
        // workers that run them now skip the bodies.
        let live = self.inner.live_jobs();
        for job in &live {
            job.explicit_cancel.store(true, SeqCst);
            job.abort.store(true, SeqCst);
        }
        for job in &live {
            job.gate.wait_until(|| job.is_finished());
        }
        for obs in &self.inner.observers {
            obs.runtime_shutdown();
        }
    }
}

/// Admits a new job against the live-task budget (blocking — must only be called from
/// non-worker threads, see [`RuntimeConfig::live_task_budget`]), registers its root domain in
/// the engine and publishes it in the service registry. Starts the watchdog lazily when the
/// job carries a deadline or the service has stall detection configured. Returns the job and
/// the record of its root task, which runs `body` (`None`: the caller runs the root body
/// inline) and is announced to the sentinel.
fn create_job(
    inner: &Arc<Inner>,
    options: JobOptions,
    body: Option<Body>,
) -> (Arc<JobState>, TaskRecord) {
    let id = inner.next_job_id.fetch_add(1, SeqCst);
    #[cfg(feature = "faults")]
    if let Some(stall) = inner
        .fault_plan
        .as_ref()
        .and_then(|plan| plan.submission_stall(id))
    {
        // Injected slow submitter: the stall sits *before* the admission probe, so the job
        // still contends for admission like a well-behaved late arrival.
        std::thread::sleep(stall);
    }
    inner.admission.admit(|| inner.engine.live_tasks());
    let root_entry = inner.engine.register_root_entry();
    let deadline = options.deadline.map(|d| Instant::now() + d);
    let job = Arc::new(JobState::new(
        id,
        Arc::clone(&inner.admission),
        options.panic_policy,
        deadline,
        options.label,
    ));
    job.registered.fetch_add(1, SeqCst); // the root itself (fault-injection ordinal 0)
    let held = (Arc::clone(&job), Arc::clone(&root_entry));
    inner.jobs.lock().insert(id, held);
    inner.jobs_submitted.fetch_add(1, SeqCst);
    if deadline.is_some() || inner.stall_tick.is_some() {
        if !inner.watchdog.is_running() {
            let weak = Arc::downgrade(inner);
            let mut stalls = StallState {
                tracks: HashMap::new(),
                last_sweep: None,
            };
            inner.watchdog.ensure_started(move || match weak.upgrade() {
                Some(inner) => watchdog_tick(&inner, &mut stalls),
                None => Tick::Idle,
            });
        }
        // Wake the (possibly idle, possibly mid-sleep) watchdog so a deadline earlier than
        // its current sleep target cannot be slept past.
        inner.watchdog.poke();
    }
    // The root declares nothing and conflicts with nothing, but it must be in the shadow table
    // so its children can record it as their ancestor.
    #[cfg(feature = "sentinel")]
    inner
        .sentinel
        .task_created(id, sentinel_key(root_entry.id), None, "root", []);
    let record = TaskRecord {
        id: root_entry.id,
        entry: Some(root_entry),
        label: "root",
        body,
        footprint: Vec::new(),
        deps: 0,
        home: OFF_POOL,
        job: Arc::clone(&job),
        #[cfg(feature = "faults")]
        ordinal: 0,
    };
    (job, record)
}

/// Per-job progress tracking of the watchdog's stall pass (thread-local to the watchdog).
struct StallTrack {
    fingerprint: u64,
    strikes: usize,
    reported: bool,
}

/// The watchdog's stall-pass state. `last_sweep` rate-limits the sweep to one per
/// `stall_tick` of *wall clock*: the tick callback also runs on every poke (each submission
/// bumps the epoch), and counting strikes per callback instead of per interval would let a
/// submission burst flag perfectly healthy jobs within milliseconds.
struct StallState {
    tracks: HashMap<u64, StallTrack>,
    last_sweep: Option<Instant>,
}

/// One watchdog pass: abort overdue jobs, fingerprint per-job progress, report stalls, and
/// pick the next wake-up. Runs on the watchdog thread with no watchdog lock held; the only
/// locks taken are the jobs registry (Arc clones only) and, transitively, the pool's queue
/// mutexes while sampling depths for a report.
fn watchdog_tick(inner: &Arc<Inner>, stalls: &mut StallState) -> Tick {
    let live = inner.live_jobs();
    let now = Instant::now();
    let mut next: Option<Instant> = None;
    for job in &live {
        if let Some(deadline) = job.deadline {
            if job.is_finished() || job.is_aborted() {
                continue;
            }
            if now >= deadline {
                // No wake-up: the abort only matters to bodies not yet started, and no
                // waiter's predicate (`finished`, `running == 0`) flips here.
                job.fail_deadline();
            } else {
                next = Some(next.map_or(deadline, |n| n.min(deadline)));
            }
        }
    }
    if let Some(tick) = inner.stall_tick {
        if !live.is_empty() {
            // Sweep at most once per `tick` of wall clock — the callback itself runs far more
            // often (every submission pokes the watchdog), and a strike must mean "a full tick
            // with no progress", not "two pokes in a row".
            if stalls.last_sweep.is_none_or(|t| now >= t + tick) {
                stalls.last_sweep = Some(now);
                for job in &live {
                    let fingerprint = job_fingerprint(inner, job);
                    let track = stalls.tracks.entry(job.id).or_insert(StallTrack {
                        fingerprint,
                        strikes: 0,
                        reported: false,
                    });
                    if track.fingerprint == fingerprint {
                        track.strikes += 1;
                        if track.strikes >= inner.stall_strikes && !track.reported {
                            track.reported = true;
                            emit_stall_report(inner, job, track.strikes);
                        }
                    } else {
                        track.fingerprint = fingerprint;
                        track.strikes = 0;
                        track.reported = false;
                    }
                }
            }
            let wake = stalls.last_sweep.expect("set on the first sweep above") + tick;
            next = Some(next.map_or(wake, |n| n.min(wake)));
        }
        stalls
            .tracks
            .retain(|id, _| live.iter().any(|job| job.id == *id));
    }
    match next {
        Some(instant) => Tick::SleepUntil(instant),
        None => Tick::Idle,
    }
}

/// Hash of everything that moves when a job makes progress: its counter slice plus the
/// pool's executed-tasks count (so a job merely *waiting* behind other tenants' active work
/// is not flagged while the service as a whole is moving).
fn job_fingerprint(inner: &Inner, job: &JobState) -> u64 {
    let mut fp = 0xcbf2_9ce4_8422_2325u64;
    for v in [
        job.registered.load(SeqCst),
        job.deeply_completed.load(SeqCst),
        job.executed.load(SeqCst),
        job.skipped.load(SeqCst),
        job.running.load(SeqCst),
        inner.pool.stats().executed_jobs(),
    ] {
        fp = (fp ^ v as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    fp
}

/// One-shot stall report (per flagged job) on stderr: the job's counter slice, the scheduler
/// queue depths, the engine's live-task load and the admission counters — enough to tell a
/// deadlocked job from one starved behind other tenants or parked on admission.
fn emit_stall_report(inner: &Arc<Inner>, job: &JobState, strikes: usize) {
    let stats = job.stats();
    let (injector, deques) = inner.pool.queue_depths();
    let fair = inner.pool.fair_queue_depth();
    let admission = inner.admission.stats();
    eprintln!(
        "[weakdep-watchdog] job {} ({}) made no progress for {} ticks: \
         registered={} deeply_completed={} executed={} skipped={} running={} \
         | queues: injector={} fair={} deques={:?} | engine live_tasks={} \
         | admission: admitted={} rejected={} blocked={} high_water={}",
        job.id,
        job.label.as_deref().unwrap_or("unlabelled"),
        strikes,
        stats.tasks_registered,
        stats.tasks_deeply_completed,
        stats.tasks_executed,
        stats.tasks_skipped,
        job.running.load(SeqCst),
        injector,
        fair,
        deques,
        inner.engine.live_tasks(),
        admission.admitted,
        admission.rejected,
        admission.blocked,
        admission.high_water,
    );
}

/// Execution context of a task body (also the root body inside [`Runtime::run`]).
pub struct TaskCtx<'a> {
    inner: &'a Arc<Inner>,
    record: &'a TaskRecord,
    worker: Option<&'a WorkerContext<'a, Box<TaskRecord>>>,
}

impl<'a> TaskCtx<'a> {
    /// Starts building a child task of the current task.
    pub fn task(&self) -> TaskBuilder<'_> {
        TaskBuilder {
            ctx: self,
            clauses: Clauses::new(),
        }
    }

    /// The current task's identifier.
    pub fn task_id(&self) -> TaskId {
        self.record.id
    }

    /// The current task's label.
    pub fn label(&self) -> &'static str {
        self.record.label
    }

    /// The index of the worker executing this task, or `None` for the root body (which runs on
    /// the caller's thread).
    pub fn worker_index(&self) -> Option<usize> {
        self.worker.map(|w| w.index())
    }

    /// Number of workers of the runtime executing this task.
    pub fn worker_count(&self) -> usize {
        self.inner.pool.worker_count()
    }

    /// Registers a whole wave of sibling tasks under a **single** acquisition of the parent's
    /// domain lock, amortising lock traffic for loop-spawn patterns (build the specs with
    /// [`TaskBuilder::stage`]). Ready tasks are dispatched in batch after the lock is dropped.
    /// Returns the new task ids in order.
    pub fn spawn_batch(&self, specs: Vec<TaskSpec>) -> Vec<TaskId> {
        self.spawn_wave(specs.into_iter().map(|TaskSpec { clauses, body }| {
            (
                new_record(self, &clauses, Body::Once(body)),
                clauses.wait_mode,
            )
        }))
    }

    /// Spawns `n` congruent children, the `taskloop` of this API: child `i` runs `body(ctx, i)`
    /// under the clauses `rule(i, clauses)` writes. The wave shares one `body` and one
    /// [`Clauses`] buffer, reset before each child, so a child costs its task record and its
    /// footprint and nothing else. Registration and dispatch are [`TaskCtx::spawn_batch`]'s:
    /// one acquisition of this task's domain lock for the whole wave. Returns the new task ids
    /// in order.
    pub fn spawn_each(
        &self,
        n: usize,
        mut rule: impl FnMut(usize, &mut Clauses),
        body: impl Fn(&TaskCtx<'_>, usize) + Send + Sync + 'static,
    ) -> Vec<TaskId> {
        if n == 0 {
            return Vec::new();
        }
        let body: Arc<EachFn> = Arc::new(body);
        let mut clauses = Clauses::new();
        self.spawn_wave((0..n).map(|i| {
            clauses.reset();
            rule(i, &mut clauses);
            (
                new_record(self, &clauses, Body::Each(Arc::clone(&body), i)),
                clauses.wait_mode,
            )
        }))
    }

    /// The wave registration behind [`TaskCtx::spawn_batch`] and [`TaskCtx::spawn_each`]:
    /// builds and announces every record, registers them all under one acquisition of this
    /// task's domain lock, then dispatches the ones ready at registration in one batch.
    fn spawn_wave(
        &self,
        records: impl ExactSizeIterator<Item = (Box<TaskRecord>, WaitMode)>,
    ) -> Vec<TaskId> {
        if records.len() == 0 {
            return Vec::new();
        }
        let spawn_start = Instant::now();
        let mut ready = Vec::with_capacity(records.len());
        // Every record is built and announced before the domain lock is taken.
        let tasks: Vec<(Box<TaskRecord>, WaitMode)> = records.collect();
        let ids = tasks.iter().map(|(record, _)| record.id).collect();
        // `ready` has room for the whole wave: no allocation under the domain lock.
        self.register(tasks, |record| ready.push(record));
        match self.worker {
            // Spawned-ready waves are not successor waves: the spawner is still running, so
            // the policy's wave queue applies to all.
            Some(worker) => worker.dispatch_ready(ready, false),
            None => self.inner.pool.submit_batch(ready),
        }
        add_span(&self.inner.timers, SPAWN_NS, spawn_start, Instant::now(), 1);
        ids
    }

    /// Registers `tasks` as children of this task under one acquisition of its domain lock
    /// (the registration of a single [`TaskBuilder::spawn`] and of every wave), handing each
    /// record ready at registration to `ready`, under the lock.
    fn register(
        &self,
        tasks: impl IntoIterator<Item = (Box<TaskRecord>, WaitMode)>,
        ready: impl FnMut(Box<TaskRecord>),
    ) {
        // Seeded §VIII-A wave-ordering mutation (test-only, see
        // `RuntimeConfig::seed_wave_ordering_bug`): register the children dependency-free so
        // siblings dispatch concurrently, while the records and the sentinel keep the declared
        // footprints.
        #[cfg(feature = "sentinel")]
        let drop_deps = self.inner.seed_wave_ordering_bug;
        #[cfg(not(feature = "sentinel"))]
        let drop_deps = false;
        self.inner.engine.register_payloads(
            self.record.entry(),
            tasks
                .into_iter()
                .map(|(record, wait_mode)| (record.id, record, wait_mode)),
            |record| &record.footprint[..if drop_deps { 0 } else { record.deps as usize }],
            |record, entry| record.entry = Some(entry),
            ready,
        );
    }

    /// The OpenMP `taskwait`: blocks until every *direct child* created so far by the current
    /// task has deeply completed. While waiting, the calling worker stays in the pool's idle
    /// loop — executing ready tasks of any job, assisting published loops, sleeping as an
    /// ordinary pool sleeper (work-conserving wait) — so `taskwait` never deadlocks the pool.
    /// The inline root body of [`Runtime::run`] is not a worker and blocks on the job's gate.
    pub fn taskwait(&self) {
        // Flips are announced by `schedule_effects` (`taskwaits_unblocked`) to both
        // populations. The pool ends the wait early only when it shuts down, which
        // `Drop for Runtime` does not let happen under a live job.
        let entry = self.record.entry();
        let drained = || entry.live_children() == 0;
        match self.worker {
            Some(worker) => worker.work_until(drained),
            None => self.record.job.gate.wait_until(drained),
        }
    }

    /// The `release` directive (§V of the paper): asserts that the current task and its *future*
    /// subtasks will no longer access `region`, allowing the overlapping fragments of its
    /// declared dependencies to be released early.
    ///
    /// Tasks made ready here are pushed onto the local deque (not the immediate-successor slot):
    /// the current task is still running, so other workers must be able to steal them.
    pub fn release(&self, region: Region) {
        WORKER.with_borrow_mut(|state| {
            let (cascade, effects) = state.buffers();
            let entry = self.record.entry();
            self.inner
                .engine
                .release_region_of(entry, region, cascade, effects);
            // Shrink the task's live declared footprint *before* dispatching successors: a
            // released region is no longer ours, so a successor starting on it must not
            // conflict with us, and our own later accesses to it must trip `check_access`.
            #[cfg(feature = "sentinel")]
            self.inner
                .sentinel
                .released(sentinel_key(self.record.id), &region);
            let worker = self.worker.map(|w| (w, false));
            schedule_effects(self.inner, effects, worker, &self.record.job);
        });
    }

    /// Releases several regions at once (convenience wrapper over [`TaskCtx::release`]).
    pub fn release_all(&self, regions: impl IntoIterator<Item = Region>) {
        for region in regions {
            self.release(region);
        }
    }

    /// `true` once the current job's abort bracket is set (cancel, fail-fast panic or
    /// deadline). Long-running bodies can poll this to stop early; the parallel-loop
    /// primitives below poll it automatically at every chunk boundary.
    pub fn is_cancelled(&self) -> bool {
        self.record.job.is_aborted()
    }

    /// Work-assisting parallel loop: runs `body(chunk_start, chunk_end)` once per chunk of
    /// `range`, with idle workers *assisting* through the pool's loop registry instead of
    /// parking (see `docs/parallel_loops.md`). No task is spawned per chunk — the per-chunk
    /// cost is one CAS on the shared cursor, so this beats [`TaskCtx::spawn_batch`] at small
    /// chunk grain.
    ///
    /// Chunks must be independent: `body` may run concurrently for disjoint chunks, on the
    /// owner and on any assisting worker. Data access rides the registering task's declared
    /// footprint — obtain views up front with [`SharedSlice::loop_view`] /
    /// [`SharedSlice::loop_view_mut`] so sentinel checks happen once, not per chunk.
    ///
    /// The job's abort bracket (cancel / fail-fast / deadline) is polled at every chunk
    /// boundary: an aborted job stops issuing chunks mid-loop. A panic inside `body` is
    /// contained per-chunk, the loop drains, and the first payload is re-raised here, flowing
    /// through the job's normal containment path.
    pub fn for_each<F>(&self, range: Range<usize>, chunk: usize, body: F)
    where
        F: Fn(usize, usize) + Send + Sync + 'static,
    {
        self.run_loop(range, chunk, body);
    }

    /// Work-assisting inclusive prefix scan of `input` into `output` under `combine`
    /// (`output[i] = input[0] ⊕ … ⊕ input[i]`), block-decomposed so idle workers assist both
    /// phases: phase 1 scans each block locally and records the block total, the owner
    /// exclusive-scans the totals into per-block offsets, and phase 2 folds each block's
    /// offset in, reading the offsets its chunk runner captured.
    ///
    /// `combine` must be associative and `identity` its left identity
    /// (`combine(identity, x) == x`); floating-point reassociation means non-associative
    /// operators give run-dependent results — use wrapping integer arithmetic where bitwise
    /// reproducibility matters (the proptests do).
    ///
    /// The current task must hold a read dependency covering all of `input` and a write
    /// dependency covering all of `output` (checked once, against the registering task, under
    /// `--features sentinel`). In-place scans (`input` aliasing `output`) are not supported.
    pub fn scan<T, F>(
        &self,
        input: &SharedSlice<T>,
        output: &SharedSlice<T>,
        chunk: usize,
        identity: T,
        combine: F,
    ) where
        T: Copy + Send + Sync + 'static,
        F: Fn(T, T) -> T + Send + Sync + Clone + 'static,
    {
        let n = input.len();
        assert_eq!(
            n,
            output.len(),
            "scan input and output must have equal length"
        );
        let chunk = chunk.max(1);
        // Footprint + sentinel checks once, against the registering task (this one).
        let input_view = input.loop_view(self, 0..n);
        let output_view = output.loop_view_mut(self, 0..n);
        if n == 0 {
            return;
        }
        let blocks = n.div_ceil(chunk);
        // Per-block totals live in a private slice the loop phases write block-wise; it never
        // escapes, so it needs no declared dependency.
        let totals = SharedSlice::from_vec(vec![identity; blocks]);
        let totals_view = totals.loop_view_mut_unchecked();

        // Phase 1: local inclusive scan of each block + its total. One loop chunk == one
        // scan block, so the block index is `chunk_start / chunk`.
        {
            let (iv, ov, tv) = (input_view, output_view.clone(), totals_view.clone());
            let comb = combine.clone();
            self.run_loop(0..n, chunk, move |chunk_start, chunk_end| {
                let inp = iv.get(chunk_start..chunk_end);
                let out = ov.chunk(chunk_start..chunk_end);
                let mut acc = inp[0];
                out[0] = acc;
                for i in 1..inp.len() {
                    acc = comb(acc, inp[i]);
                    out[i] = acc;
                }
                tv.chunk(chunk_start / chunk..chunk_start / chunk + 1)[0] = acc;
            });
        }

        // Owner-sequential exclusive scan of the block totals into per-block offsets (cheap:
        // one element per block). Phase 1 is quiescent here, so the reads are ordered.
        let mut offsets = Vec::with_capacity(blocks);
        let mut acc = identity;
        for b in 0..blocks {
            offsets.push(acc);
            acc = combine(acc, totals_view.chunk(b..b + 1)[0]);
        }

        // Phase 2: fold each block's offset in. Block 0's offset is `identity`, so it is
        // skipped outright (the range starts at the second block). The runner owns the
        // offsets; assisting workers read them through it.
        self.run_loop(chunk.min(n)..n, chunk, move |chunk_start, chunk_end| {
            let offset = offsets[chunk_start / chunk];
            for v in output_view.chunk(chunk_start..chunk_end) {
                *v = combine(offset, *v);
            }
        });
    }

    /// The shared engine of [`TaskCtx::for_each`] and [`TaskCtx::scan`]: builds the
    /// [`LoopDescriptor`] (tenant = this task's job, abort probe = the job's abort bracket),
    /// publishes it so idle workers are recruited, drives chunks on the owner, waits for
    /// quiescence, retires the loop, folds the assist count into the job's stats slice, and
    /// re-raises the first chunk panic.
    fn run_loop<R>(&self, range: Range<usize>, chunk: usize, runner: R)
    where
        R: Fn(usize, usize) + Send + Sync + 'static,
    {
        let job = Arc::clone(&self.record.job);
        let probe_job = Arc::clone(&job);
        let desc = Arc::new(LoopDescriptor::new(
            range,
            chunk,
            job.id,
            runner,
            move || probe_job.is_aborted(),
        ));
        match self.worker {
            Some(worker) => worker.publish_loop(Arc::clone(&desc)),
            None => self.inner.pool.publish_loop(Arc::clone(&desc)),
        }
        desc.drive();
        desc.wait_quiescent();
        match self.worker {
            Some(worker) => worker.retire_loop(&desc),
            None => self.inner.pool.retire_loop(&desc),
        }
        job.assist_chunks
            .fetch_add(desc.assist_chunk_count(), SeqCst);
        if let Some(payload) = desc.take_poison() {
            resume_unwind(payload);
        }
    }

    /// `true` if the current task declared a strong dependency covering `region` (read access).
    pub(crate) fn covers_read(&self, region: &Region) -> bool {
        covered_by(&self.record.footprint, region, false)
    }

    /// `true` if the current task declared a strong write dependency covering `region`.
    pub(crate) fn covers_write(&self, region: &Region) -> bool {
        covered_by(&self.record.footprint, region, true)
    }

    /// Sentinel access check for the `SharedSlice` accessors: validates `region` against the
    /// task's *live* declared strong footprint (declared minus `release`d). Unlike the static
    /// `covers_*` asserts above — which check the declaration as spawned — this catches
    /// use-after-`release`.
    #[cfg(feature = "sentinel")]
    pub(crate) fn sentinel_check_access(&self, region: &Region, write: bool) {
        if let Some(message) =
            self.inner
                .sentinel
                .check_access(sentinel_key(self.record.id), region, write)
        {
            panic!("{message}");
        }
    }
}

/// `true` if the strong (and, for `needs_write`, write-capable) entries of `footprint` cover
/// `region`. Bodies access what they declared, so one entry usually contains the region on its
/// own and the check allocates nothing; only a region that straddles several entries pays for
/// the union of the qualifying entries in its space. (Hints leave the footprint unsorted, so
/// the union is built in an interval map rather than swept.)
fn covered_by(footprint: &[FootprintEntry], region: &Region, needs_write: bool) -> bool {
    let qualifying = footprint
        .iter()
        .filter(|e| !e.weak && (e.write || !needs_write));
    if qualifying.clone().any(|e| e.region.contains_region(region)) {
        return true;
    }
    let mut union = IntervalMap::new();
    for entry in qualifying.filter(|e| e.region.space == region.space) {
        union.insert_range(entry.region.start, entry.region.end, ());
    }
    union.covers(region.start, region.end)
}

/// The clause vocabulary of the extended `task` construct: a child's `depend` entries (the §VI
/// weak variants included), its footprint hints, its wait mode and its label. The one
/// implementation of every clause: [`TaskBuilder`] forwards to it, and a
/// [`TaskCtx::spawn_each`] rule writes each child's clauses into one buffer the wave reuses,
/// reset to no dependencies or hints, [`WaitMode::None`] and label `"task"` before each child.
#[derive(Debug)]
pub struct Clauses {
    deps: Vec<Depend>,
    hints: Vec<FootprintEntry>,
    wait_mode: WaitMode,
    label: &'static str,
}

impl Clauses {
    fn new() -> Self {
        Clauses {
            deps: Vec::new(),
            hints: Vec::new(),
            wait_mode: WaitMode::None,
            label: "task",
        }
    }

    /// Back to [`Clauses::new`], keeping the buffers' capacity.
    fn reset(&mut self) {
        self.deps.clear();
        self.hints.clear();
        self.wait_mode = WaitMode::None;
        self.label = "task";
    }

    /// Adds a dependency with an explicit access type (the weak ones included).
    pub fn depend(&mut self, access: AccessType, region: Region) -> &mut Self {
        self.deps.push(Depend::new(access, region));
        self
    }

    /// `depend(in: region)` — the task reads the region.
    pub fn input(&mut self, region: Region) -> &mut Self {
        self.depend(AccessType::In, region)
    }

    /// `depend(out: region)` — the task writes the region.
    pub fn output(&mut self, region: Region) -> &mut Self {
        self.depend(AccessType::Out, region)
    }

    /// `depend(inout: region)` — the task reads and writes the region.
    pub fn inout(&mut self, region: Region) -> &mut Self {
        self.depend(AccessType::InOut, region)
    }

    /// `depend(weakin: region)` — only subtasks read the region (§VI).
    pub fn weak_input(&mut self, region: Region) -> &mut Self {
        self.depend(AccessType::WeakIn, region)
    }

    /// `depend(weakout: region)` — only subtasks write the region (§VI).
    pub fn weak_output(&mut self, region: Region) -> &mut Self {
        self.depend(AccessType::WeakOut, region)
    }

    /// `depend(weakinout: region)` — only subtasks read/write the region (§VI).
    pub fn weak_inout(&mut self, region: Region) -> &mut Self {
        self.depend(AccessType::WeakInOut, region)
    }

    /// The `wait` clause (§IV): perform a detached taskwait when the body exits.
    pub fn wait(&mut self) -> &mut Self {
        self.wait_mode(WaitMode::Wait)
    }

    /// The `weakwait` clause (§V): release dependencies incrementally once the body exits.
    pub fn weakwait(&mut self) -> &mut Self {
        self.wait_mode(WaitMode::WeakWait)
    }

    /// Sets the wait mode: the `wait` (§IV) or `weakwait` (§V) clause, or neither.
    pub fn wait_mode(&mut self, mode: WaitMode) -> &mut Self {
        self.wait_mode = mode;
        self
    }

    /// Labels the task (used by traces, timelines and error messages).
    pub fn label(&mut self, label: &'static str) -> &mut Self {
        self.label = label;
        self
    }

    /// Declares a region the task will touch *without* creating a dependency on it.
    ///
    /// This exists for codes that coordinate through explicit synchronisation instead of
    /// dependencies (e.g. the paper's `flat-taskwait` baseline): the data accessors and the
    /// observers (cache model, traces) still see the footprint, but the dependency engine does
    /// not order anything on it.
    pub fn footprint_hint(&mut self, region: Region, write: bool) -> &mut Self {
        self.hints.push(FootprintEntry {
            region,
            write,
            weak: false,
        });
        self
    }
}

/// A staged child task, detached from any context: its clauses and its body. Only
/// [`TaskBuilder::stage`] builds one; submit a wave of them with [`TaskCtx::spawn_batch`].
pub struct TaskSpec {
    clauses: Clauses,
    body: BodyFn,
}

/// Builder for a child task; mirrors the clauses of the extended `task` construct, each
/// forwarded to [`Clauses`].
pub struct TaskBuilder<'a> {
    ctx: &'a TaskCtx<'a>,
    clauses: Clauses,
}

impl<'a> TaskBuilder<'a> {
    /// [`Clauses::depend`].
    pub fn depend(mut self, access: AccessType, region: Region) -> Self {
        self.clauses.depend(access, region);
        self
    }

    /// [`Clauses::input`]: `depend(in: region)`.
    pub fn input(mut self, region: Region) -> Self {
        self.clauses.input(region);
        self
    }

    /// [`Clauses::output`]: `depend(out: region)`.
    pub fn output(mut self, region: Region) -> Self {
        self.clauses.output(region);
        self
    }

    /// [`Clauses::inout`]: `depend(inout: region)`.
    pub fn inout(mut self, region: Region) -> Self {
        self.clauses.inout(region);
        self
    }

    /// [`Clauses::weak_input`]: `depend(weakin: region)` (§VI).
    pub fn weak_input(mut self, region: Region) -> Self {
        self.clauses.weak_input(region);
        self
    }

    /// [`Clauses::weak_output`]: `depend(weakout: region)` (§VI).
    pub fn weak_output(mut self, region: Region) -> Self {
        self.clauses.weak_output(region);
        self
    }

    /// [`Clauses::weak_inout`]: `depend(weakinout: region)` (§VI).
    pub fn weak_inout(mut self, region: Region) -> Self {
        self.clauses.weak_inout(region);
        self
    }

    /// [`Clauses::wait`]: the `wait` clause (§IV).
    pub fn wait(mut self) -> Self {
        self.clauses.wait();
        self
    }

    /// [`Clauses::weakwait`]: the `weakwait` clause (§V).
    pub fn weakwait(mut self) -> Self {
        self.clauses.weakwait();
        self
    }

    /// [`Clauses::wait_mode`].
    pub fn wait_mode(mut self, mode: WaitMode) -> Self {
        self.clauses.wait_mode(mode);
        self
    }

    /// [`Clauses::label`].
    pub fn label(mut self, label: &'static str) -> Self {
        self.clauses.label(label);
        self
    }

    /// [`Clauses::footprint_hint`]: a region the task touches without a dependency on it.
    pub fn footprint_hint(mut self, region: Region, write: bool) -> Self {
        self.clauses.footprint_hint(region, write);
        self
    }

    /// Detaches the builder into a [`TaskSpec`] carrying `body`, for batched submission with
    /// [`TaskCtx::spawn_batch`].
    pub fn stage(self, body: impl FnOnce(&TaskCtx<'_>) + Send + 'static) -> TaskSpec {
        TaskSpec {
            clauses: self.clauses,
            body: Box::new(body),
        }
    }

    /// Creates the task. The body runs asynchronously once all strong dependencies are
    /// satisfied. Returns the new task's id.
    pub fn spawn(self, body: impl FnOnce(&TaskCtx<'_>) + Send + 'static) -> TaskId {
        let TaskBuilder { ctx, clauses } = self;
        let spawn_start = sampled().then(Instant::now);
        let record = new_record(ctx, &clauses, Body::Once(Box::new(body)));
        let id = record.id;
        let mut ready = None;
        ctx.register([(record, clauses.wait_mode)], |record| ready = Some(record));
        if let Some(record) = ready {
            match ctx.worker {
                Some(worker) => worker.dispatch_spawned(record),
                None => ctx.inner.pool.submit(record),
            }
        }
        if let Some(start) = spawn_start {
            add_span(
                &ctx.inner.timers,
                SPAWN_NS,
                start,
                Instant::now(),
                SAMPLE_PERIOD,
            );
        }
        id
    }
}

/// Builds the record of a new child of `ctx`'s task under `clauses`: its footprint is the
/// normalised dependencies (which the engine links) followed by the hints. Reserves the task's
/// id, and announces the task to the sentinel and the observers — all before registration can
/// make it runnable. Every spawn path creates its records here.
fn new_record(ctx: &TaskCtx<'_>, clauses: &Clauses, body: Body) -> Box<TaskRecord> {
    let mut footprint: Vec<FootprintEntry> = normalize_as(&clauses.deps, clauses.hints.len());
    let deps = footprint.len();
    footprint.extend_from_slice(&clauses.hints);
    let (id, label) = (ctx.inner.engine.reserve_id(), clauses.label);

    // The pre-increment count is the task's job-local registration ordinal — the key of the
    // fault plan's per-task decision streams — so the counter is bumped before the record is
    // built (same single atomic op either way).
    let _ordinal = ctx.record.job.registered.fetch_add(1, SeqCst);
    let fresh = TaskRecord {
        id,
        entry: None,
        label,
        body: Some(body),
        footprint,
        deps: deps as u32,
        home: ctx.worker.map_or(OFF_POOL, |worker| worker.index() as u32),
        job: Arc::clone(&ctx.record.job),
        #[cfg(feature = "faults")]
        ordinal: _ordinal as u32,
    };
    // On a worker, the record is built in one of its spares when it has one.
    let spare = ctx.worker.and_then(|worker| {
        let bin = &ctx.inner.return_bins[worker.index()];
        WORKER.with_borrow_mut(|state| state.records.spare(bin))
    });
    let record = match spare {
        Some(mut spare) => {
            *spare = fresh;
            ctx.inner.timers.add(RECORDS_REUSED, 1);
            spare
        }
        None => Box::new(fresh),
    };

    // Register the declared footprint in the sentinel's shadow table before the task can
    // possibly dispatch. The footprint includes the hints: a `footprint_hint` is a claim the
    // task will touch the region, so the sentinel must hold it against concurrent tasks. The
    // entry is job-qualified: same-footprint tasks of *different* jobs are concurrent by
    // design and must not be flagged.
    #[cfg(feature = "sentinel")]
    ctx.inner.sentinel.task_created(
        record.job.id,
        sentinel_key(id),
        Some(sentinel_key(ctx.record.id)),
        label,
        record
            .footprint
            .iter()
            .map(|entry| weakdep_sentinel::DeclaredAccess {
                region: entry.region,
                write: entry.write,
                weak: entry.weak,
            }),
    );

    let info = TaskInfo {
        id,
        label,
        parent: Some(ctx.record.id),
        footprint: &record.footprint,
    };
    for obs in &ctx.inner.observers {
        obs.task_created(&info);
    }
    record
}

/// A retire batch holds at most this many deferred `ChildDone`s (rule (d) of [`defers_retire`]).
const RETIRE_BATCH_CAP: usize = 32;

/// The retire batching rule: whether a finished leaf's `ChildDone` may wait in its worker's
/// batch, to be applied later together with its siblings' under one acquisition of their
/// parent's domain (see `docs/runtime.md`, "Retire batching"). It reads only what the runtime
/// observes. It holds when
/// (a) the body ran shorter than `retire_estimate_ns`, the worker's running estimate of an
///     unbatched retire — so a long body, whose successor chain (§VIII-A) is worth more than
///     the lock it would save, never waits;
/// (b) no later sibling has linked a release edge to the task — its retire would make that
///     sibling ready;
/// (c) the worker's next local job is a sibling (the batch is also flushed before a task of
///     another parent runs, since the forecast can miss), asked last as it is the one probe
///     that touches a queue;
/// (d) the batch holds fewer than [`RETIRE_BATCH_CAP`] messages.
fn defers_retire(
    body_ns: u64,
    retire_estimate_ns: u64,
    successor_linked: bool,
    next_is_sibling: impl FnOnce() -> bool,
    batch_len: usize,
) -> bool {
    body_ns < retire_estimate_ns
        && !successor_linked
        && batch_len < RETIRE_BATCH_CAP
        && next_is_sibling()
}

/// A thread's retire-path state (see `docs/runtime.md`, "Worker state"): the buffers of its
/// engine calls, its retire batch and its task-record cache. Each thread has one, in
/// [`WORKER`]; only workers fill the batch and the cache.
struct WorkerState {
    /// The cascade of every engine call on this thread but a worker's retire: a `release`, the
    /// inline root's finish — also of another runtime's `run` called from a task body. Empty
    /// between calls, so no call pumps the batch's messages.
    cascade: Cascade<Box<TaskRecord>>,
    /// The effects of every engine call on this thread; empty between calls.
    effects: Effects<Box<TaskRecord>>,
    batch: RetireBatch,
    records: RecordCache,
}

/// A worker's retire batch: the deferred `ChildDone`s — all for one parent, so all of one job —
/// and the estimate rule (a) of [`defers_retire`] compares bodies against.
struct RetireBatch {
    /// The batch's own cascade: the held `ChildDone`s, behind which every retire of this worker
    /// appends its messages, so that one pump applies a run of siblings' together.
    cascade: Cascade<Box<TaskRecord>>,
    /// `ChildDone`s held back in `cascade`; the batch is empty when this is 0.
    held: usize,
    /// The parent of the held leaves: the target of every held message.
    target: Option<TaskId>,
    /// The held leaves' job, whose `schedule_effects` the flush runs.
    job: Option<Arc<JobState>>,
    /// Running mean (weight 1/8) of this worker's timed retires that applied nothing held
    /// back, in ns; 0 until the first one, which defers nothing.
    estimate_ns: u64,
}

/// A worker's task-record traffic (see `docs/runtime.md`, "Task memory"): a record is
/// allocated by the worker that spawns the task and, once the task ran elsewhere, comes back
/// to it to be reused, so that its allocations are freed or reused by the thread that made them.
#[allow(clippy::vec_box)]
struct RecordCache {
    /// Finished records of this worker, hollow — no body, no entry — for [`new_record`].
    spares: Vec<Box<TaskRecord>>,
    /// Finished records bound for other workers, one batch per home.
    outgoing: Vec<Vec<Box<TaskRecord>>>,
    /// Records waiting in `outgoing`.
    pending: usize,
}

thread_local! {
    /// This thread's [`WorkerState`]. Borrowed only outside task bodies — between them, and
    /// around a `release`, a spawn's spare record or the inline root's finish — so the nested
    /// `execute_task` of a `taskwait` finds it free.
    static WORKER: RefCell<WorkerState> = const {
        RefCell::new(WorkerState {
            cascade: Cascade::new(),
            effects: Effects::new(),
            batch: RetireBatch {
                cascade: Cascade::new(), held: 0, target: None, job: None, estimate_ns: 0,
            },
            records: RecordCache { spares: Vec::new(), outgoing: Vec::new(), pending: 0 },
        })
    };
}

impl WorkerState {
    /// The cascade and effects buffer for an engine call other than a worker's retire; both
    /// are empty when the call starts.
    fn buffers(&mut self) -> (&mut Cascade<Box<TaskRecord>>, &mut Effects<Box<TaskRecord>>) {
        debug_assert!(
            self.cascade.is_empty() && self.effects.is_empty(),
            "an engine call started on a busy cascade"
        );
        (&mut self.cascade, &mut self.effects)
    }

    /// An idle worker applies the retires it deferred, hands every partial record batch home
    /// and takes in its own bin, so that a pool gone idle parks at most one batch per worker
    /// in a bin. Returns whether it flushed a batch: only the retires can make tasks ready.
    fn idle(&mut self, inner: &Arc<Inner>, wctx: &WorkerContext<'_, Box<TaskRecord>>) -> bool {
        let flushed = self.batch.held > 0;
        if flushed {
            self.timed_flush(inner, wctx);
        }
        let records = &mut self.records;
        if records.pending > 0 {
            for (home, batch) in records.outgoing.iter_mut().enumerate() {
                if !batch.is_empty() {
                    hand_home(&inner.return_bins[home], batch, &inner.timers);
                }
            }
            records.pending = 0;
        }
        let bin = &inner.return_bins[wctx.index()];
        if bin.len() > 0 {
            records.take_bin(bin);
        }
        flushed
    }

    /// Retires the task `record` ran, its body having taken `body_ns`: either defers its
    /// `ChildDone` into the batch or applies it, together with a batch of its siblings.
    /// Returns whether the retire applied nothing held back (a sample for the estimate).
    fn retire(
        &mut self,
        inner: &Arc<Inner>,
        record: &TaskRecord,
        wctx: &WorkerContext<'_, Box<TaskRecord>>,
        body_ns: u64,
    ) -> bool {
        let entry = record.entry();
        let parent = entry.parent_id();
        if self.batch.target != parent {
            // Held back for another parent (a `taskwait` inside the body ran other tasks).
            if let Some(job) = self.batch.job.clone() {
                self.apply(inner, wctx, &job);
            }
        }
        let batch = &mut self.batch;
        // Held leaves are this task's siblings, so they belong to its job.
        debug_assert!(
            batch
                .job
                .as_ref()
                .is_none_or(|job| Arc::ptr_eq(job, &record.job)),
            "a retire batch mixes jobs"
        );
        let leaf = inner
            .engine
            .finish_body(entry, &mut batch.cascade, &mut self.effects);
        // A leaf deep-completed in its own domain: count it now, before its `ChildDone` can
        // reach the root, so a finished job never reads a completion short (a batch applies
        // the `ChildDone` later, and another worker may complete the root meanwhile).
        let completed = std::mem::take(&mut self.effects.deeply_completed);
        if completed > 0 {
            record.job.deeply_completed.fetch_add(completed, SeqCst);
        }
        if leaf
            && defers_retire(
                body_ns,
                batch.estimate_ns,
                entry.successor_linked(),
                || wctx.next_local_is(|next| next.entry().parent_id() == parent),
                batch.held,
            )
        {
            // A leaf's own-domain step leaves nothing to schedule but its `ChildDone`.
            debug_assert!(self.effects.is_empty());
            if batch.held == 0 {
                batch.target = parent;
                batch.job = Some(Arc::clone(&record.job));
            }
            batch.held += 1;
            inner.timers.add(RETIRES_DEFERRED, 1);
            return false;
        }
        let solo = batch.held == 0;
        // A held batch is this task's siblings': one pump applies both, and the job is theirs.
        self.apply(inner, wctx, &record.job);
        solo
    }

    /// Pumps the batch's cascade and schedules the effects with `job`, emptying the batch.
    fn apply(
        &mut self,
        inner: &Arc<Inner>,
        wctx: &WorkerContext<'_, Box<TaskRecord>>,
        job: &Arc<JobState>,
    ) {
        let batch = &mut self.batch;
        inner.engine.pump(&mut batch.cascade, &mut self.effects);
        schedule_effects(inner, &mut self.effects, Some((wctx, true)), job);
        if batch.held > 0 {
            inner.timers.add(RETIRE_FLUSHES, 1);
            batch.held = 0;
            batch.target = None;
            batch.job = None;
        }
    }

    /// Applies the held batch, if any, outside any retire — the worker went idle, or is about
    /// to run a task of another parent — timed under [`RETIRE_NS`].
    fn timed_flush(&mut self, inner: &Arc<Inner>, wctx: &WorkerContext<'_, Box<TaskRecord>>) {
        if let Some(job) = self.batch.job.clone() {
            let start = Instant::now();
            self.apply(inner, wctx, &job);
            add_span(&inner.timers, RETIRE_NS, start, Instant::now(), 1);
        }
    }
}

impl RetireBatch {
    /// Folds a timed retire that applied nothing held back into the estimate. A sample is
    /// clipped at twice the estimate, so one preempted retire cannot open the gate to long
    /// bodies.
    fn observe(&mut self, retire_ns: u64) {
        self.estimate_ns = match self.estimate_ns {
            0 => retire_ns,
            estimate => estimate - estimate / 8 + retire_ns.min(2 * estimate) / 8,
        };
    }
}

/// A worker hands the finished records of another worker home in batches of this many: one
/// acquisition of the home's [`RecordBin`] per batch.
const RETURN_BATCH: usize = 32;

/// A worker keeps at most this many spare records, and its [`RecordBin`] takes a batch only
/// while it holds fewer; past either bound a finished record is freed where it is.
const SPARE_CAP: usize = 1024;

/// The [`TaskRecord::home`] of a record spawned off the pool — a root, or a child of an inline
/// root body. Such a record is freed by the worker that runs it.
const OFF_POOL: u32 = u32::MAX;

/// Where the other workers hand a worker the finished records it spawned (see
/// `docs/runtime.md`, "Task memory"); no record is dropped under its lock.
type RecordBin = HomeBin<Box<TaskRecord>>;

impl RecordCache {
    /// A spare record of the calling worker, whose bin is `bin`; when it has none left, it
    /// takes in its whole bin first.
    fn spare(&mut self, bin: &RecordBin) -> Option<Box<TaskRecord>> {
        if self.spares.is_empty() && bin.len() > 0 {
            self.take_bin(bin);
        }
        self.spares.pop()
    }

    /// Takes in `bin`, this worker's own. The entries of the records taken are dropped now, so
    /// a `TaskEntry` is freed on the thread that allocated it too; spares past [`SPARE_CAP`]
    /// are freed.
    fn take_bin(&mut self, bin: &RecordBin) {
        let kept = self.spares.len();
        bin.take_all(&mut self.spares);
        for record in &mut self.spares[kept..] {
            record.entry = None;
        }
        self.spares.truncate(SPARE_CAP);
    }

    /// Queues the finished `record` for its home worker, handing the batch over once it is
    /// full.
    fn send_home(&mut self, inner: &Inner, record: Box<TaskRecord>) {
        let home = record.home as usize;
        if self.outgoing.len() <= home {
            self.outgoing.resize_with(inner.return_bins.len(), Vec::new);
        }
        let batch = &mut self.outgoing[home];
        batch.push(record);
        self.pending += 1;
        if batch.len() == RETURN_BATCH {
            self.pending -= RETURN_BATCH;
            hand_home(&inner.return_bins[home], batch, &inner.timers);
        }
    }
}

/// Moves `batch` into its home's `bin`, keeping `batch`'s capacity, and counts the records
/// under [`RECORDS_RETURNED`]. A bin holding [`SPARE_CAP`] records or more takes none: they
/// are dropped here.
#[allow(clippy::vec_box)]
fn hand_home(bin: &RecordBin, batch: &mut Vec<Box<TaskRecord>>, timers: &PhaseTimers) {
    if bin.len() >= SPARE_CAP {
        batch.clear();
        return;
    }
    timers.add(RECORDS_RETURNED, batch.len() as u64);
    bin.append_batch(batch);
}

/// Executes one task body on a worker and feeds the outcome back into the dependency engine.
fn execute_task(
    inner: &Arc<Inner>,
    mut record: Box<TaskRecord>,
    wctx: &WorkerContext<'_, Box<TaskRecord>>,
) {
    WORKER.with_borrow_mut(|state| {
        // The batch waits only behind siblings of its leaves.
        if state.batch.held > 0 && state.batch.target != record.entry().parent_id() {
            state.timed_flush(inner, wctx);
        }
    });
    let body = record.body.take();
    let job = &record.job;
    // Cancellation bracket (`SeqCst`, see `crate::job`'s ordering argument): the increment
    // happens *before* the cancelled-load, so a canceller that stores the flag and then reads
    // `running == 0` knows no body it did not wait out will ever start.
    job.running.fetch_add(1, SeqCst);
    let body = match body {
        Some(_) if job.is_aborted() => {
            // The body is dropped unexecuted (cancel / fail-fast / deadline); the task still
            // retires through the engine below, so the job's graph drains and its regions are
            // released.
            job.skipped.fetch_add(1, SeqCst);
            None
        }
        body => body,
    };
    #[cfg(feature = "faults")]
    if let Some(delay) = body.as_ref().and_then(|_| {
        inner
            .fault_plan
            .as_ref()?
            .dispatch_delay(job.id, record.ordinal)
    }) {
        // Injected dispatch delay: perturbs timing (and widens abort/cancel races) without
        // changing any output. It precedes the body's first clock read, so neither `body_ns`
        // nor `TaskExecution::start` contains it.
        std::thread::sleep(delay);
    }
    let start = Instant::now();
    if let Some(body) = body {
        let ctx = TaskCtx {
            inner,
            record: &record,
            worker: Some(wctx),
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            // Inside the catch so a sentinel conflict panic is captured into the job's
            // failure slot and re-raised by `run`/`wait` instead of tearing down the
            // worker thread.
            #[cfg(feature = "sentinel")]
            inner.sentinel.task_started(sentinel_key(record.id));
            #[cfg(feature = "faults")]
            if inner
                .fault_plan
                .as_ref()
                .is_some_and(|p| p.would_panic(job.id, record.ordinal))
            {
                // Injected task-body panic: raised inside the catch_unwind so it flows
                // through the exact production failure path (record_panic, fail-fast
                // containment, wait_result delivery).
                panic!(
                    "injected fault: job {} task ordinal {}",
                    job.id, record.ordinal
                );
            }
            body.call(&ctx)
        }));
        if let Err(payload) = outcome {
            // Note the explicit reborrow: `&payload` would coerce the `Box` itself into
            // `&dyn Any` and make every downcast fail.
            let message = panic_message(&*payload);
            job.record_panic(payload, message);
        }
        job.executed.fetch_add(1, SeqCst);
    }
    let prev_running = job.running.fetch_sub(1, SeqCst);
    if prev_running == 1 && job.is_aborted() {
        // Possibly the last in-flight body of a cancelled job: wake a canceller blocked in
        // `JobState::cancel` waiting for `running == 0`.
        job.gate.notify();
    }
    let end = Instant::now();
    add_span(&inner.timers, BODY_NS, start, end, 1);

    // The retire span and its weight, if this retire is timed. Without observers a sampled
    // retire starts where the body ended (no clock read of its own); with observers every
    // retire is timed, from the return of their `task_executed` calls.
    let retire_start = if inner.observers.is_empty() {
        sampled().then_some((end, SAMPLE_PERIOD))
    } else {
        let execution = TaskExecution {
            id: record.id,
            label: record.label,
            worker: wctx.index(),
            start,
            end,
            footprint: &record.footprint,
        };
        for obs in &inner.observers {
            obs.task_executed(&execution);
        }
        Some((Instant::now(), 1))
    };
    // Retire from the shadow table strictly *before* `body_finished` can make successors
    // ready: a successor starting concurrently with this (finished) task is legal and must not
    // be flagged against its still-registered footprint.
    #[cfg(feature = "sentinel")]
    inner.sentinel.task_finished(sentinel_key(record.id));
    let body_ns = end.duration_since(start).as_nanos() as u64;
    WORKER.with_borrow_mut(|state| {
        let solo = state.retire(inner, &record, wctx, body_ns);
        if let Some((start, weight)) = retire_start {
            let span = Instant::now().duration_since(start).as_nanos() as u64;
            inner.timers.add(RETIRE_NS, weight * span);
            if solo {
                state.batch.observe(span);
            }
        }
        if record.home != OFF_POOL && record.home as usize != wctx.index() {
            state.records.send_home(inner, record);
        }
    });
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<Box<str>>() {
        s.to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Applies engine effects: schedules newly ready tasks and wakes `taskwait`/`run` waiters.
/// Runs strictly after every engine lock has been dropped (the effects were accumulated and
/// returned by the engine call). Drains `effects`, which keeps its capacity.
///
/// When the effects come from a finished body (`use_successor_slot == true`), the wave is
/// dispatched through the pool's [`SchedulingPolicy`]: under the locality policies the first
/// ready task goes to the releasing worker's immediate-successor slot (temporal locality,
/// §VIII-A) and the rest to its LIFO deque — with a displaced previous successor re-ordered
/// *above* the incoming wave, see [`WorkerContext::dispatch_ready`] — while under the Fifo
/// baseline everything goes to the global injector. Effects produced mid-body (the `release`
/// directive) never use the slot, so other workers can steal them while the current task keeps
/// running. Effects produced outside a worker (root body) go to the policy's shared queue.
fn schedule_effects(
    inner: &Arc<Inner>,
    effects: &mut Effects<Box<TaskRecord>>,
    worker: Option<(&WorkerContext<'_, Box<TaskRecord>>, bool)>,
    job: &Arc<JobState>,
) {
    if !effects.ready.is_empty() {
        // The engine hands out the ready tasks' records themselves. One queue operation and
        // one wake signal for the whole wave. That wake is all the recruitment there is:
        // workers parked in a `taskwait` — of any job — are pool sleepers like the idle ones.
        match worker {
            Some((wctx, use_successor_slot)) => {
                wctx.dispatch_ready(effects.ready.drain(..), use_successor_slot)
            }
            None => inner.pool.submit_batch(effects.ready.drain(..)),
        }
    }

    let completed = std::mem::take(&mut effects.deeply_completed);
    if completed > 0 {
        job.deeply_completed.fetch_add(completed, SeqCst);
    }
    // File the retired ids for reuse, under this thread's home free list.
    inner.engine.recycle(&effects.retired);
    effects.retired.clear();
    // Live-task load may just have dropped (a worker's retire counts its own deep completion
    // before the pump retires the task): let a blocked submission re-probe the budget. Cheap
    // (one atomic load) when nothing is blocked.
    inner.admission.notify_release();

    let root_completed = std::mem::take(&mut effects.root_completed);
    if root_completed {
        // Retire the job from the service registry *before* flipping `finished` and
        // notifying, so a `wait_result()`-returner observes the registry without this job. Every
        // effects wave comes from exactly one job's tree, so the completed root is `job`'s.
        // The root retired: its entry (returned here) is dropped after the registry unlocks.
        let _root = inner.jobs.lock().remove(&job.id);
        inner.jobs_completed.fetch_add(1, SeqCst);
        if job.is_explicitly_cancelled() {
            inner.jobs_cancelled.fetch_add(1, SeqCst);
        }
        job.finished.store(true, SeqCst);
    }

    // Wake-ups happen only when a waiter *predicate* flipped, so the common per-task retire
    // path touches neither population: some task's last live child drained while its body
    // still runs (`taskwait` — a worker parked in the pool's sleep state, or the inline root
    // on the job's gate), or this job's root deeply completed (`run`/`wait`, on the gate).
    // Each call is one load unless such a waiter is registered.
    let taskwait_unblocked = std::mem::take(&mut effects.taskwaits_unblocked);
    if taskwait_unblocked {
        inner.pool.wake_waiters();
    }
    if taskwait_unblocked || root_completed {
        job.gate.notify();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SharedSlice;
    use crate::job::PanicPolicy;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn run_executes_root_body_and_returns_value() {
        let rt = Runtime::with_workers(2);
        let value = rt.run(|_ctx| 40 + 2);
        assert_eq!(value, 42);
    }

    #[test]
    fn independent_tasks_all_execute() {
        let rt = Runtime::with_workers(4);
        let counter = Arc::new(AtomicUsize::new(0));
        rt.run(|ctx| {
            for _ in 0..200 {
                let c = Arc::clone(&counter);
                ctx.task().label("inc").spawn(move |_| {
                    c.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 200);
    }

    #[test]
    fn dependencies_order_execution() {
        let rt = Runtime::with_workers(4);
        let data = SharedSlice::<u64>::new(1);
        for _ in 0..20 {
            let d = data.clone();
            rt.run(move |ctx| {
                // A chain of 50 read-modify-write tasks over the same cell must serialise.
                for i in 0..50u64 {
                    let d2 = d.clone();
                    ctx.task()
                        .inout(d.region(0..1))
                        .label("chain")
                        .spawn(move |tctx| {
                            let cell = d2.write(tctx, 0..1);
                            cell[0] = cell[0].wrapping_mul(3).wrapping_add(i);
                        });
                }
            });
        }
        // The chain is deterministic because every task reads the previous value.
        let mut expected = 0u64;
        for _ in 0..20 {
            for i in 0..50u64 {
                expected = expected.wrapping_mul(3).wrapping_add(i);
            }
        }
        assert_eq!(data.snapshot()[0], expected);
    }

    #[test]
    fn taskwait_waits_for_direct_children() {
        let rt = Runtime::with_workers(4);
        let counter = Arc::new(AtomicUsize::new(0));
        rt.run(|ctx| {
            for _ in 0..32 {
                let c = Arc::clone(&counter);
                ctx.task().spawn(move |_| {
                    std::thread::sleep(Duration::from_millis(1));
                    c.fetch_add(1, Ordering::SeqCst);
                });
            }
            ctx.taskwait();
            assert_eq!(counter.load(Ordering::SeqCst), 32);
        });
    }

    #[test]
    fn nested_tasks_and_weakwait_produce_correct_data() {
        // The Listing-2 pattern: weakwait parent, two children, two consumers.
        let rt = Runtime::with_workers(4);
        let a = SharedSlice::<i64>::filled(1, 1);
        let b = SharedSlice::<i64>::filled(1, 10);
        let out_a = SharedSlice::<i64>::new(1);
        let out_b = SharedSlice::<i64>::new(1);
        {
            let (a, b, out_a, out_b) = (a.clone(), b.clone(), out_a.clone(), out_b.clone());
            rt.run(move |ctx| {
                let (a2, b2) = (a.clone(), b.clone());
                ctx.task()
                    .inout(a.region(0..1))
                    .inout(b.region(0..1))
                    .weakwait()
                    .label("T1")
                    .spawn(move |tctx| {
                        let (a3, b3) = (a2.clone(), b2.clone());
                        tctx.task()
                            .inout(a2.region(0..1))
                            .label("T1.1")
                            .spawn(move |c| {
                                a3.write(c, 0..1)[0] += 100;
                            });
                        tctx.task()
                            .inout(b2.region(0..1))
                            .label("T1.2")
                            .spawn(move |c| {
                                b3.write(c, 0..1)[0] += 200;
                            });
                    });
                let (a4, oa) = (a.clone(), out_a.clone());
                ctx.task()
                    .input(a.region(0..1))
                    .output(out_a.region(0..1))
                    .label("T2")
                    .spawn(move |c| {
                        out_a.write(c, 0..1)[0] = a4.read(c, 0..1)[0] * 2;
                        let _ = &oa;
                    });
                let (b4, ob) = (b.clone(), out_b.clone());
                ctx.task()
                    .input(b.region(0..1))
                    .output(out_b.region(0..1))
                    .label("T3")
                    .spawn(move |c| {
                        out_b.write(c, 0..1)[0] = b4.read(c, 0..1)[0] * 2;
                        let _ = &ob;
                    });
            });
        }
        assert_eq!(a.snapshot()[0], 101);
        assert_eq!(b.snapshot()[0], 210);
        assert_eq!(out_a.snapshot()[0], 202);
        assert_eq!(out_b.snapshot()[0], 420);
    }

    #[test]
    fn release_directive_unblocks_consumers_early() {
        let rt = Runtime::with_workers(2);
        let x = SharedSlice::<u64>::new(2);
        let order = Arc::new(Mutex::new(Vec::<&'static str>::new()));
        {
            let (x, order) = (x.clone(), order.clone());
            rt.run(move |ctx| {
                let x_producer = x.clone();
                let order_p = order.clone();
                ctx.task()
                    .inout(x.region(0..2))
                    .label("producer")
                    .spawn(move |c| {
                        x_producer.write(c, 0..1)[0] = 7;
                        order_p.lock().push("produced-first-half");
                        // The first element will not be touched again: release it.
                        c.release(x_producer.region(0..1));
                        // Keep the task alive a little so the consumer can only overtake via the
                        // released region.
                        std::thread::sleep(Duration::from_millis(20));
                        x_producer.write(c, 1..2)[0] = 9;
                        order_p.lock().push("producer-done");
                    });
                let x_consumer = x.clone();
                let order_c = order.clone();
                ctx.task()
                    .input(x.region(0..1))
                    .label("consumer")
                    .spawn(move |c| {
                        assert_eq!(x_consumer.read(c, 0..1)[0], 7);
                        order_c.lock().push("consumed");
                    });
            });
        }
        let order = order.lock().clone();
        let consumed_pos = order.iter().position(|s| *s == "consumed").unwrap();
        let done_pos = order.iter().position(|s| *s == "producer-done").unwrap();
        assert!(
            consumed_pos < done_pos,
            "the consumer must run before the producer finishes (got {order:?})"
        );
    }

    #[test]
    fn stats_reflect_execution() {
        let rt = Runtime::with_workers(2);
        rt.run(|ctx| {
            for _ in 0..10 {
                ctx.task().spawn(|_| {});
            }
        });
        let stats = rt.stats();
        assert_eq!(stats.tasks_executed, 10);
        assert_eq!(stats.engine.tasks_registered, 11); // root + 10
    }

    #[test]
    fn task_panic_is_reported_from_run() {
        let rt = Runtime::with_workers(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            rt.run(|ctx| {
                ctx.task()
                    .label("boom")
                    .spawn(|_| panic!("deliberate failure"));
            });
        }));
        assert!(result.is_err(), "the panic must propagate out of run()");
        // The runtime stays usable afterwards.
        let value = rt.run(|_ctx| 5);
        assert_eq!(value, 5);
    }

    #[test]
    #[should_panic(expected = "without a covering strong dependency")]
    fn undeclared_access_is_detected() {
        let rt = Runtime::with_workers(1);
        let x = SharedSlice::<u8>::new(4);
        let x2 = x.clone();
        rt.run(move |ctx| {
            ctx.task().label("bad").spawn(move |c| {
                let _ = x2.read(c, 0..1); // no dependency declared
            });
        });
    }

    /// The plain answer `covered_by` must agree with, coordinate by coordinate: every point of
    /// the region lies in some qualifying entry.
    fn union_covers(footprint: &[FootprintEntry], region: &Region, needs_write: bool) -> bool {
        let qualifying = footprint
            .iter()
            .filter(|e| !e.weak && (e.write || !needs_write));
        (region.start..region.end).all(|point| {
            qualifying
                .clone()
                .any(|e| e.region.space == region.space && e.region.contains_point(point))
        })
    }

    #[test]
    fn covered_by_agrees_with_the_union_of_qualifying_entries() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use weakdep_regions::SpaceId;

        let mut rng = SmallRng::seed_from_u64(0xC0FE);
        let (mut empty_queries, mut union_only, mut second_space) = (0, 0, 0);
        for _ in 0..20_000 {
            // 1–5 entries; each either starts where the previous one ended (adjacent pieces) or
            // anywhere in a small window (overlaps), in space 1 or, sometimes, space 2.
            let mut footprint: Vec<FootprintEntry> = Vec::new();
            for _ in 0..rng.gen_range(1..6usize) {
                let space = SpaceId(if rng.gen_bool(0.2) { 2 } else { 1 });
                let start = match footprint.last() {
                    Some(prev) if rng.gen_bool(0.4) => prev.region.end,
                    _ => rng.gen_range(0..24usize),
                };
                let end = start + rng.gen_range(0..10usize);
                footprint.push(FootprintEntry {
                    region: Region::new(space, start, end),
                    write: rng.gen_bool(0.5),
                    weak: rng.gen_bool(0.3),
                });
            }
            // Queries: empty, the span of two entries, or anywhere.
            let query = match rng.gen_range(0..4u32) {
                0 => {
                    let at = rng.gen_range(0..40usize);
                    Region::new(SpaceId(rng.gen_range(1..3u64)), at, at)
                }
                1 => {
                    let a = footprint[rng.gen_range(0..footprint.len())].region;
                    let b = footprint[rng.gen_range(0..footprint.len())].region;
                    Region::new(a.space, a.start.min(b.start), a.end.max(b.end))
                }
                _ => {
                    let start = rng.gen_range(0..34usize);
                    Region::new(SpaceId(1), start, start + rng.gen_range(0..8usize))
                }
            };
            for needs_write in [false, true] {
                let expected = union_covers(&footprint, &query, needs_write);
                assert_eq!(
                    covered_by(&footprint, &query, needs_write),
                    expected,
                    "footprint {footprint:?}, query {query:?}, write {needs_write}"
                );
                let single = footprint.iter().any(|e| {
                    !e.weak && (e.write || !needs_write) && e.region.contains_region(&query)
                });
                empty_queries += usize::from(query.is_empty());
                union_only += usize::from(expected && !single && !query.is_empty());
                second_space += usize::from(expected && query.space == SpaceId(2));
            }
        }
        assert!(
            empty_queries > 0 && union_only > 0 && second_space > 0,
            "every case must be drawn: {empty_queries} empty, {union_only} union-only, \
             {second_space} in the second space"
        );
    }

    #[test]
    fn single_worker_runtime_makes_progress_with_nested_taskwaits() {
        let rt = Runtime::with_workers(1);
        let counter = Arc::new(AtomicUsize::new(0));
        rt.run(|ctx| {
            for _ in 0..4 {
                let c = Arc::clone(&counter);
                ctx.task().label("outer").spawn(move |tctx| {
                    for _ in 0..4 {
                        let c2 = Arc::clone(&c);
                        tctx.task().label("inner").spawn(move |_| {
                            c2.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                    tctx.taskwait();
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn every_policy_runs_the_chain_correctly() {
        // Policies reorder execution but never change results; the slot policies must use the
        // immediate-successor slot on a dependency chain, the others must never touch it.
        for policy in SchedulingPolicy::all() {
            let rt = Runtime::new(RuntimeConfig::new().workers(2).scheduling_policy(policy));
            let data = SharedSlice::<u64>::new(1);
            let d = data.clone();
            rt.run(move |ctx| {
                for _ in 0..64 {
                    let d2 = d.clone();
                    ctx.task()
                        .inout(d.region(0..1))
                        .label("chain")
                        .spawn(move |t| {
                            d2.write(t, 0..1)[0] += 1;
                        });
                }
            });
            assert_eq!(data.snapshot()[0], 64, "policy {}", policy.name());
            let stats = rt.stats();
            assert_eq!(stats.policy, policy.name());
            assert_eq!(rt.scheduling_policy(), policy);
            if policy.uses_successor_slot() {
                assert!(
                    stats.successor_slot_hits > 0,
                    "policy {}: the chain must use the immediate-successor slot",
                    policy.name()
                );
            } else {
                assert_eq!(
                    stats.successor_slot_hits,
                    0,
                    "policy {}: the slot must stay unused",
                    policy.name()
                );
            }
        }
    }

    #[test]
    fn fifo_policy_keeps_the_successor_slot_unused() {
        // The no-locality baseline routes every ready task through the injector.
        let rt = Runtime::new(
            RuntimeConfig::new()
                .workers(2)
                .scheduling_policy(SchedulingPolicy::Fifo),
        );
        assert_eq!(rt.scheduling_policy(), SchedulingPolicy::Fifo);
        let data = SharedSlice::<u64>::new(1);
        let d = data.clone();
        rt.run(move |ctx| {
            for _ in 0..16 {
                let d2 = d.clone();
                ctx.task()
                    .inout(d.region(0..1))
                    .label("chain")
                    .spawn(move |t| {
                        d2.write(t, 0..1)[0] += 1;
                    });
            }
        });
        assert_eq!(data.snapshot()[0], 16);
        assert_eq!(rt.stats().successor_slot_hits, 0);
    }

    #[test]
    fn submit_returns_the_root_body_value() {
        let rt = Runtime::with_workers(2);
        let handle = rt.submit(|_ctx| 40 + 2);
        assert_eq!(handle.wait_result().expect("the job succeeds"), Some(42));
    }

    #[test]
    fn try_wait_polls_to_completion() {
        let rt = Runtime::with_workers(2);
        let handle = rt.submit(|ctx| {
            let counter = Arc::new(AtomicUsize::new(0));
            for _ in 0..8 {
                let c = Arc::clone(&counter);
                ctx.task().spawn(move |_| {
                    c.fetch_add(1, Ordering::SeqCst);
                });
            }
            ctx.taskwait();
            counter.load(Ordering::SeqCst)
        });
        let value = loop {
            if let Some(outcome) = handle.try_wait_result() {
                break outcome.expect("the job succeeds");
            }
            std::thread::yield_now();
        };
        assert_eq!(value, Some(8));
    }

    #[test]
    fn concurrent_jobs_run_independently_on_one_service() {
        let rt = Runtime::with_workers(4);
        let handles: Vec<_> = (0..6u64)
            .map(|k| {
                rt.submit(move |ctx| {
                    let data = SharedSlice::<u64>::new(1);
                    let d = data.clone();
                    for _ in 0..20 {
                        let d2 = d.clone();
                        ctx.task()
                            .inout(d.region(0..1))
                            .label("chain")
                            .spawn(move |t| {
                                d2.write(t, 0..1)[0] += k;
                            });
                    }
                    ctx.taskwait();
                    data.snapshot()[0]
                })
            })
            .collect();
        for (k, handle) in handles.into_iter().enumerate() {
            assert_eq!(
                handle.wait_result().expect("the job succeeds"),
                Some(20 * k as u64)
            );
        }
        let stats = rt.stats();
        assert_eq!(stats.jobs_submitted, 6);
        assert_eq!(stats.jobs_completed, 6);
        assert_eq!(stats.jobs_cancelled, 0);
        assert_eq!(rt.capacity().live_jobs, 0);
        assert!(
            rt.job_stats().is_empty(),
            "no job may outlive its completion in the registry"
        );
    }

    #[test]
    fn finished_jobs_report_registered_equals_deeply_completed() {
        let rt = Runtime::with_workers(2);
        let handle = rt.submit(|ctx| {
            for _ in 0..15 {
                ctx.task().spawn(|_| {});
            }
        });
        while handle.try_wait_result().is_none() {
            std::thread::yield_now();
        }
        let stats = handle.stats();
        assert!(stats.finished);
        assert_eq!(stats.tasks_registered, 16); // root + 15
        assert_eq!(stats.tasks_deeply_completed, 16);
        assert_eq!(stats.tasks_executed, 16);
        assert_eq!(rt.stats().jobs_completed, 1);
    }

    #[test]
    fn cancelled_queued_job_never_runs_and_drains() {
        // One worker, pinned by job A's root body; job B is queued behind it. Cancelling B
        // while it is still queued must (a) return immediately (no body in flight), (b)
        // guarantee no body of B ever starts, (c) still drain B so wait_result() returns.
        let rt = Runtime::with_workers(1);
        let hold = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hold);
        let a = rt.submit(move |_ctx| {
            while h.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
        });
        let b_ran = Arc::new(AtomicUsize::new(0));
        let br = Arc::clone(&b_ran);
        let b = rt.submit(move |_ctx| {
            br.fetch_add(1, Ordering::SeqCst);
        });
        b.cancel();
        // After cancel() returns, no task body of B may ever start — even though B's root is
        // still queued and will only be popped once A releases the worker.
        hold.store(1, Ordering::SeqCst);
        assert_eq!(a.wait_result().expect("job A succeeds"), Some(()));
        assert!(
            matches!(b.wait_result(), Err(JobError::Cancelled)),
            "the cancelled root body must not produce a value"
        );
        assert_eq!(
            b_ran.load(Ordering::SeqCst),
            0,
            "no body of a cancelled job may run"
        );
        let stats = rt.stats();
        assert_eq!(stats.jobs_cancelled, 1);
        assert_eq!(
            stats.jobs_completed, 2,
            "a cancelled job still drains to completion"
        );
    }

    #[test]
    fn wait_result_reports_the_original_panic_payload() {
        let rt = Runtime::with_workers(2);
        let handle = rt.submit(|ctx| {
            ctx.task().label("boom").spawn(|_| panic!("typed failure"));
            ctx.taskwait();
        });
        match handle.wait_result() {
            Err(JobError::Panicked { message, payload }) => {
                assert_eq!(message, "typed failure");
                let original = payload.downcast::<&str>().expect("payload preserved as-is");
                assert_eq!(*original, "typed failure");
            }
            other => panic!("expected Err(Panicked), got {other:?}"),
        }
    }

    #[test]
    fn wait_result_reports_cancellation() {
        let rt = Runtime::with_workers(1);
        let hold = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hold);
        let a = rt.submit(move |_ctx| {
            while h.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
        });
        let b = rt.submit(|_ctx| 9u32);
        b.cancel();
        hold.store(1, Ordering::SeqCst);
        assert_eq!(a.wait_result().expect("job A succeeds"), Some(()));
        match b.wait_result() {
            Err(JobError::Cancelled) => {}
            other => panic!("expected Err(Cancelled), got {other:?}"),
        }
    }

    #[test]
    #[cfg(not(feature = "loom-model"))] // uses the timed wait the loom shim lacks
    fn fail_fast_skips_unstarted_siblings() {
        // The first panic aborts the job (default FailFast policy): bodies spawned after the
        // abort landed must be skipped, and the graph must still drain to completion.
        let rt = Runtime::with_workers(1);
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        let handle = rt.submit(move |ctx| {
            ctx.task().label("boom").spawn(|_| panic!("first failure"));
            ctx.taskwait(); // ensures the panic (and the abort) landed before the siblings
            for _ in 0..16 {
                let r2 = Arc::clone(&r);
                ctx.task().label("sibling").spawn(move |_| {
                    r2.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        let outcome = handle
            .wait_timeout(Duration::from_secs(60))
            .expect("job must finish");
        assert_eq!(outcome.unwrap_err().kind(), "panicked");
        assert_eq!(
            ran.load(Ordering::SeqCst),
            0,
            "no sibling body may run after the abort"
        );
        let stats = handle.stats();
        assert!(stats.failed);
        assert_eq!(stats.tasks_skipped, 16);
        assert_eq!(stats.tasks_registered, stats.tasks_deeply_completed);
        assert_eq!(
            stats.tasks_executed + stats.tasks_skipped,
            stats.tasks_registered
        );
    }

    #[test]
    fn run_to_completion_policy_keeps_executing_bodies() {
        let rt = Runtime::with_workers(1);
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        let handle = rt.submit_with(
            JobOptions::new()
                .panic_policy(PanicPolicy::RunToCompletion)
                .label("tolerant"),
            move |ctx| {
                ctx.task().label("boom").spawn(|_| panic!("still reported"));
                ctx.taskwait();
                for _ in 0..8 {
                    let r2 = Arc::clone(&r);
                    ctx.task().spawn(move |_| {
                        r2.fetch_add(1, Ordering::SeqCst);
                    });
                }
            },
        );
        let err = handle.wait_result().unwrap_err();
        assert_eq!(
            err.kind(),
            "panicked",
            "the first panic is still the job's outcome"
        );
        assert_eq!(
            ran.load(Ordering::SeqCst),
            8,
            "RunToCompletion must keep executing the remaining bodies"
        );
    }

    #[test]
    #[cfg(not(feature = "loom-model"))] // uses the timed wait the loom shim lacks
    fn deadline_aborts_an_overdue_job() {
        let rt = Runtime::with_workers(2);
        let handle = rt.submit_with(
            JobOptions::new()
                .deadline(Duration::from_millis(30))
                .label("overdue"),
            |ctx| {
                // 64 x 5ms over 2 workers is ≥160ms of wall time: far past the deadline.
                for _ in 0..64 {
                    ctx.task()
                        .spawn(|_| std::thread::sleep(Duration::from_millis(5)));
                }
                ctx.taskwait();
            },
        );
        let outcome = handle
            .wait_timeout(Duration::from_secs(60))
            .expect("abort must drain");
        assert_eq!(outcome.unwrap_err().kind(), "deadline-exceeded");
        let stats = handle.stats();
        assert!(stats.failed);
        assert!(
            stats.tasks_skipped > 0,
            "the abort must have skipped queued bodies"
        );
        assert_eq!(
            stats.tasks_registered, stats.tasks_deeply_completed,
            "the job drained"
        );
    }

    #[test]
    fn jobs_without_deadlines_are_untouched_by_anothers_deadline() {
        let rt = Runtime::with_workers(2);
        let overdue = rt.submit_with(
            JobOptions::new().deadline(Duration::from_millis(10)),
            |ctx| {
                for _ in 0..64 {
                    ctx.task()
                        .spawn(|_| std::thread::sleep(Duration::from_millis(5)));
                }
                ctx.taskwait();
            },
        );
        let clean = rt.submit(|ctx| {
            let counter = Arc::new(AtomicUsize::new(0));
            for _ in 0..32 {
                let c = Arc::clone(&counter);
                ctx.task().spawn(move |_| {
                    c.fetch_add(1, Ordering::SeqCst);
                });
            }
            ctx.taskwait();
            counter.load(Ordering::SeqCst)
        });
        assert_eq!(
            overdue.wait_result().unwrap_err().kind(),
            "deadline-exceeded"
        );
        assert_eq!(
            clean.wait_result().unwrap(),
            Some(32),
            "isolation: the clean job is whole"
        );
    }

    #[test]
    #[cfg(not(feature = "loom-model"))] // uses the timed wait the loom shim lacks
    fn wait_timeout_observes_running_then_finished() {
        let rt = Runtime::with_workers(2);
        let release = Arc::new(AtomicUsize::new(0));
        let rel = Arc::clone(&release);
        let handle = rt.submit(move |_ctx| {
            while rel.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
            7u32
        });
        assert!(
            handle.wait_timeout(Duration::from_millis(20)).is_none(),
            "a held job must time out, not resolve"
        );
        release.store(1, Ordering::SeqCst);
        let outcome = handle
            .wait_timeout(Duration::from_secs(60))
            .expect("job finishes");
        assert_eq!(outcome.unwrap(), Some(7));
    }

    #[test]
    fn stall_watchdog_flags_a_blocked_job_and_recovers() {
        let rt = Runtime::new(
            RuntimeConfig::new()
                .workers(2)
                .stall_watchdog(Duration::from_millis(5), 2),
        );
        let release = Arc::new(AtomicUsize::new(0));
        let rel = Arc::clone(&release);
        let handle = rt.submit_with(JobOptions::new().label("held"), move |_ctx| {
            while rel.load(Ordering::SeqCst) == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            3u8
        });
        // Several ticks with frozen counters: the watchdog emits its (stderr) stall report.
        // Detection must not abort anything — the job completes once unblocked.
        std::thread::sleep(Duration::from_millis(40));
        release.store(1, Ordering::SeqCst);
        assert_eq!(handle.wait_result().unwrap(), Some(3));
    }

    #[test]
    fn live_task_budget_blocks_submission_until_drain() {
        let rt = Runtime::new(RuntimeConfig::new().workers(2).live_task_budget(4));
        for _ in 0..5 {
            // Sequential runs each stay within the budget; admission must not wedge.
            rt.run(|ctx| {
                for _ in 0..3 {
                    ctx.task().spawn(|_| {});
                }
                ctx.taskwait();
            });
        }
        let stats = rt.stats();
        assert_eq!(stats.admission.admitted, 5);
        assert!(stats.admission.high_water <= 4);
    }

    #[test]
    fn runtime_is_reusable_across_runs() {
        let rt = Runtime::with_workers(2);
        for round in 0..5usize {
            let counter = Arc::new(AtomicUsize::new(0));
            let c = Arc::clone(&counter);
            rt.run(move |ctx| {
                for _ in 0..round + 1 {
                    let c2 = Arc::clone(&c);
                    ctx.task().spawn(move |_| {
                        c2.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
            assert_eq!(counter.load(Ordering::SeqCst), round + 1);
        }
    }

    #[test]
    fn spawn_batch_runs_all_tasks_and_respects_dependencies() {
        let rt = Runtime::with_workers(4);
        let data = SharedSlice::<u64>::new(64);
        let d = data.clone();
        rt.run(move |ctx| {
            // Wave 1: initialise every cell (batched).
            let d2 = d.clone();
            let init: Vec<TaskSpec> = (0..64usize)
                .map(|i| {
                    let d3 = d2.clone();
                    ctx.task()
                        .output(d2.region(i..i + 1))
                        .label("init")
                        .stage(move |t| {
                            d3.write(t, i..i + 1)[0] = i as u64;
                        })
                })
                .collect();
            let ids = ctx.spawn_batch(init);
            assert_eq!(ids.len(), 64);
            // Wave 2: double every cell (batched, depends per cell on wave 1).
            let d2 = d.clone();
            let double: Vec<TaskSpec> = (0..64usize)
                .map(|i| {
                    let d3 = d2.clone();
                    ctx.task()
                        .inout(d2.region(i..i + 1))
                        .label("double")
                        .stage(move |t| {
                            d3.write(t, i..i + 1)[0] *= 2;
                        })
                })
                .collect();
            ctx.spawn_batch(double);
        });
        let result = data.snapshot();
        for (i, v) in result.iter().enumerate() {
            assert_eq!(*v, 2 * i as u64, "cell {i}");
        }
    }

    /// Spawn, retire, `taskwait` and `release` reach the engine through the entry each task
    /// record holds, never by id: a job of about 1 000 tasks runs with the engine's id index
    /// empty (an id API call would find no task), and every task retires.
    #[test]
    fn per_task_paths_leave_the_id_index_empty() {
        let rt = Runtime::with_workers(2);
        let cells = 256;
        let data = SharedSlice::<u64>::new(cells);
        let d = data.clone();
        rt.run(move |ctx| {
            // One `spawn` per cell; each task releases its cell before its body ends.
            for i in 0..cells {
                let d2 = d.clone();
                ctx.task().inout(d.region(i..i + 1)).spawn(move |t| {
                    d2.write(t, i..i + 1)[0] += 1;
                    t.release(d2.region(i..i + 1));
                });
            }
            let specs = (0..cells)
                .map(|i| {
                    let d2 = d.clone();
                    ctx.task()
                        .inout(d.region(i..i + 1))
                        .stage(move |t| d2.write(t, i..i + 1)[0] += 1)
                })
                .collect();
            ctx.spawn_batch(specs);
            // A weakwait parent: its children come from `spawn_each`, and it waits for them
            // on a worker.
            let d2 = d.clone();
            ctx.task()
                .weak_inout(d.region(0..cells))
                .weakwait()
                .spawn(move |t| {
                    let d3 = d2.clone();
                    t.spawn_each(
                        cells,
                        |i, c| {
                            c.inout(d2.region(i..i + 1));
                        },
                        move |t, i| d3.write(t, i..i + 1)[0] += 1,
                    );
                    t.taskwait();
                });
            // The inline root waits on the job's gate, then spawns one more wave.
            ctx.taskwait();
            let d2 = d.clone();
            ctx.spawn_each(
                cells,
                |i, c| {
                    c.inout(d.region(i..i + 1));
                },
                move |t, i| d2.write(t, i..i + 1)[0] += 1,
            );
        });
        assert!(
            data.snapshot().iter().all(|&v| v == 4),
            "every cell written by four tasks"
        );
        let stats = rt.stats().engine;
        assert_eq!(stats.tasks_registered, 1 + 4 * cells + 1);
        assert_eq!(
            stats.tasks_retired, stats.tasks_registered,
            "every task retired"
        );
        assert_eq!(
            rt.inner.engine.indexed(),
            0,
            "the runtime fills no id index"
        );
    }

    #[test]
    fn spawn_each_orders_waves_and_resets_the_clauses_per_child() {
        let rt = Runtime::with_workers(4);
        let data = SharedSlice::<u64>::new(64);
        let d = data.clone();
        rt.run(move |ctx| {
            // Wave 1 writes every cell; only child 0's rule sets a label, so the others must
            // see the buffer reset to the default one.
            let d2 = d.clone();
            let ids = ctx.spawn_each(
                64,
                |i, c| {
                    c.output(d.region(i..i + 1));
                    if i == 0 {
                        c.label("first");
                    }
                },
                move |t, i| {
                    assert_eq!(t.label(), if i == 0 { "first" } else { "task" });
                    d2.write(t, i..i + 1)[0] = i as u64;
                },
            );
            assert_eq!(ids.len(), 64);
            // Wave 2 doubles every cell: each child depends on its cell's writer in wave 1.
            let d2 = d.clone();
            ctx.spawn_each(
                64,
                |i, c| {
                    c.inout(d.region(i..i + 1)).label("double");
                },
                move |t, i| d2.write(t, i..i + 1)[0] *= 2,
            );
            assert!(ctx
                .spawn_each(0, |_, _| unreachable!(), |_, _| unreachable!())
                .is_empty());
        });
        let result = data.snapshot();
        for (i, v) in result.iter().enumerate() {
            assert_eq!(*v, 2 * i as u64, "cell {i}");
        }
    }

    #[test]
    fn a_panicking_spawn_each_child_surfaces_through_wait_result_and_the_wave_drains() {
        let rt = Runtime::with_workers(2);
        let handle = rt.submit_with(
            JobOptions::new().panic_policy(PanicPolicy::RunToCompletion),
            |ctx| {
                let ran = Arc::new(AtomicUsize::new(0));
                let r = Arc::clone(&ran);
                ctx.spawn_each(
                    16,
                    |_, c| {
                        c.label("wave");
                    },
                    move |_, i| {
                        r.fetch_add(1, Ordering::SeqCst);
                        assert_ne!(i, 5, "child 5 failed");
                    },
                );
                ctx.taskwait();
                ran.load(Ordering::SeqCst)
            },
        );
        let outcome = loop {
            if let Some(outcome) = handle.try_wait_result() {
                break outcome;
            }
            std::thread::yield_now();
        };
        match outcome {
            Err(JobError::Panicked { message, .. }) => assert!(message.contains("child 5 failed")),
            other => panic!("expected Err(Panicked), got {other:?}"),
        }
        let stats = handle.stats();
        assert_eq!(stats.tasks_registered, 17); // root + 16
        assert_eq!(stats.tasks_deeply_completed, 17, "the wave drains");
        assert_eq!(
            stats.tasks_executed, 17,
            "run-to-completion runs every sibling"
        );
    }

    /// The three spawn entry points build their records through one constructor: one clause
    /// set — dependencies, a weak access, `weakwait` and two hints — announces the same
    /// footprint (the normalised dependencies, then the hints in order) and registers the same
    /// graph through a single `spawn`, a `spawn_batch` of one staged builder and a `spawn_each`
    /// rule.
    #[test]
    fn the_spawn_entry_points_announce_and_register_alike() {
        #[derive(Default)]
        struct Footprints(Mutex<Vec<Vec<FootprintEntry>>>);
        impl RuntimeObserver for Footprints {
            fn task_created(&self, info: &TaskInfo<'_>) {
                self.0.lock().push(info.footprint.to_vec());
            }
        }
        fn builder<'a>(b: TaskBuilder<'a>, d: &SharedSlice<u64>) -> TaskBuilder<'a> {
            b.inout(d.region(4..8))
                .input(d.region(0..4))
                .weak_inout(d.region(8..12))
                .weakwait()
                .footprint_hint(d.region(14..16), false)
                .footprint_hint(d.region(12..14), true)
        }
        fn rule(c: &mut Clauses, d: &SharedSlice<u64>) {
            c.inout(d.region(4..8))
                .input(d.region(0..4))
                .weak_inout(d.region(8..12))
                .weakwait()
                .footprint_hint(d.region(14..16), false)
                .footprint_hint(d.region(12..14), true);
        }
        let d = SharedSlice::<u64>::new(16);
        let entry = |region: Range<usize>, write, weak| FootprintEntry {
            region: d.region(region),
            write,
            weak,
        };
        let expected = vec![
            entry(0..4, false, false),
            entry(4..8, true, false),
            entry(8..12, true, true),
            entry(14..16, false, false),
            entry(12..14, true, false),
        ];
        let spawns: [&dyn Fn(&TaskCtx<'_>); 3] = [
            &|ctx| {
                builder(ctx.task(), &d).spawn(|_| {});
            },
            &|ctx| {
                ctx.spawn_batch(vec![builder(ctx.task(), &d).stage(|_| {})]);
            },
            &|ctx| {
                ctx.spawn_each(1, |_, c| rule(c, &d), |_, _| {});
            },
        ];
        let mut graphs = Vec::new();
        for spawn in spawns {
            let seen = Arc::new(Footprints::default());
            let observer: Arc<dyn RuntimeObserver> = seen.clone();
            let rt = Runtime::new(RuntimeConfig::new().workers(1).observer(observer));
            rt.run(spawn);
            assert_eq!(*seen.0.lock(), std::slice::from_ref(&expected));
            graphs.push(format!("{:?}", rt.stats().engine));
        }
        assert_eq!(graphs[0], graphs[1], "spawn vs spawn_batch");
        assert_eq!(graphs[0], graphs[2], "spawn vs spawn_each");
    }

    #[test]
    fn spawn_batch_from_root_context_uses_injector() {
        let rt = Runtime::with_workers(2);
        let counter = Arc::new(AtomicUsize::new(0));
        rt.run(|ctx| {
            let specs: Vec<TaskSpec> = (0..100)
                .map(|_| {
                    let c = Arc::clone(&counter);
                    ctx.task().label("batched").stage(move |_| {
                        c.fetch_add(1, Ordering::SeqCst);
                    })
                })
                .collect();
            ctx.spawn_batch(specs);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    /// The sampler times one span in `SAMPLE_PERIOD`, and draws are independent of their
    /// position: two kinds of span alternating on one thread (a worker's spawns and retires)
    /// get half the samples each. A stride sampler passes the rate check and fails the split.
    #[test]
    fn the_phase_sampler_keeps_its_rate_and_splits_alternating_spans_evenly() {
        const DRAWS: u64 = 80_000;
        for slot in [0, 1, 7, weakdep_threadpool::THREAD_SLOTS - 1] {
            let mut sampler = Sampler::for_slot(slot);
            let mut hits = [0u64; 2];
            for draw in 0..DRAWS {
                if sampler.draw() {
                    hits[(draw % 2) as usize] += 1;
                }
            }
            let total = hits[0] + hits[1];
            let expected = DRAWS / SAMPLE_PERIOD;
            assert!(
                total.abs_diff(expected) * 10 <= expected,
                "slot {slot}: {total} samples in {DRAWS} draws, expected {expected} ± 10 %"
            );
            let share = hits[0] as f64 / total as f64;
            assert!(
                (0.45..=0.55).contains(&share),
                "slot {slot}: even draws took {:.1} % of the samples",
                100.0 * share
            );
        }
    }

    /// `body_ns` is exact: it advances by exactly the `end − start` of every execution the
    /// observers see, to the nanosecond. (`run`'s root body runs inline on the caller and is
    /// neither timed nor observed.)
    #[test]
    fn body_ns_is_the_sum_of_the_observed_execution_spans() {
        #[derive(Default)]
        struct SpanSum(std::sync::atomic::AtomicU64);
        impl RuntimeObserver for SpanSum {
            fn task_executed(&self, execution: &TaskExecution<'_>) {
                let span = execution.end.duration_since(execution.start).as_nanos() as u64;
                self.0.fetch_add(span, Ordering::SeqCst);
            }
        }
        let spans = Arc::new(SpanSum::default());
        let observer: Arc<dyn RuntimeObserver> = spans.clone();
        let rt = Runtime::new(RuntimeConfig::new().workers(2).observer(observer));
        let before = rt.stats().body_ns;
        rt.run(|ctx| {
            for i in 0..200u64 {
                ctx.task().spawn(move |ctx| {
                    if i % 10 == 0 {
                        ctx.task().spawn(|_| {});
                    }
                });
            }
        });
        let stats = rt.stats();
        assert_eq!(stats.tasks_executed, 220);
        assert_eq!(stats.body_ns - before, spans.0.load(Ordering::SeqCst));
        assert!(stats.retire_ns > 0, "with observers every retire is timed");
    }

    /// An injected dispatch delay is not body time: the clock that starts `body_ns` and
    /// `TaskExecution::start` is read after the delay.
    #[cfg(feature = "faults")]
    #[test]
    fn an_injected_dispatch_delay_is_not_counted_as_body_time() {
        let delay = Duration::from_millis(20);
        let plan = FaultPlan::seeded(1).pre_dispatch_delay(1.0, delay);
        let rt = Runtime::new(RuntimeConfig::new().workers(1).fault_plan(plan));
        let started = Instant::now();
        rt.run(|ctx| {
            ctx.task().spawn(|_| {});
            ctx.task().spawn(|_| {});
        });
        assert!(started.elapsed() >= 2 * delay, "both tasks were delayed");
        let body_ns = rt.stats().body_ns;
        assert!(
            body_ns < delay.as_nanos() as u64,
            "body_ns {body_ns} includes the delay"
        );
    }

    #[test]
    fn the_deferral_rule_is_a_pure_function_of_what_the_runtime_observes() {
        let estimate = 4_000;
        assert!(defers_retire(1_000, estimate, false, || true, 0));
        // (a) A body at or above the estimate never waits, whatever else holds; nor does any
        // body before the worker has an estimate.
        for body_ns in [estimate, estimate + 1, 100 * estimate] {
            for linked in [false, true] {
                for sibling in [false, true] {
                    for len in [0, 1, RETIRE_BATCH_CAP - 1, RETIRE_BATCH_CAP] {
                        assert!(!defers_retire(body_ns, estimate, linked, || sibling, len));
                    }
                }
            }
        }
        assert!(!defers_retire(0, 0, false, || true, 0));
        // (b) A linked sibling successor, (c) a next local job of another parent (or none).
        assert!(!defers_retire(1_000, estimate, true, || true, 0));
        assert!(!defers_retire(1_000, estimate, false, || false, 0));
        // (d) The cap.
        assert!(defers_retire(
            1_000,
            estimate,
            false,
            || true,
            RETIRE_BATCH_CAP - 1
        ));
        assert!(!defers_retire(
            1_000,
            estimate,
            false,
            || true,
            RETIRE_BATCH_CAP
        ));
        // The queue probe is asked last, only when everything else holds.
        assert!(!defers_retire(
            estimate,
            estimate,
            false,
            || panic!("probed"),
            0
        ));
        assert!(!defers_retire(
            1_000,
            estimate,
            true,
            || panic!("probed"),
            0
        ));
    }

    #[test]
    fn one_slow_retire_moves_the_estimate_by_at_most_an_eighth() {
        let mut retirer = RetireBatch {
            cascade: Cascade::new(),
            held: 0,
            target: None,
            job: None,
            estimate_ns: 0,
        };
        retirer.observe(2_000);
        assert_eq!(
            retirer.estimate_ns, 2_000,
            "the first sample sets the estimate"
        );
        retirer.observe(1_000_000);
        assert_eq!(
            retirer.estimate_ns,
            2_000 - 250 + 500,
            "a sample is clipped at 2×"
        );
        retirer.observe(0);
        assert_eq!(retirer.estimate_ns, 2_250 - 281);
    }

    #[test]
    fn a_taskwait_over_ten_thousand_fine_leaves_completes() {
        let rt = Runtime::with_workers(2);
        let ran = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&ran);
        let handle = rt.submit(move |ctx| {
            ctx.task().spawn(move |parent| {
                let bumped = Arc::clone(&counted);
                parent.spawn_each(
                    10_000,
                    |_, _| {},
                    move |_, _| {
                        bumped.fetch_add(1, Ordering::Relaxed);
                    },
                );
                parent.taskwait();
                assert_eq!(counted.load(Ordering::Relaxed), 10_000);
            });
        });
        let outcome = loop {
            match handle.try_wait_result() {
                Some(outcome) => break outcome,
                None => std::thread::yield_now(),
            }
        };
        assert!(outcome.is_ok());
        let stats = handle.stats();
        assert_eq!(stats.tasks_registered, 10_002);
        assert_eq!(stats.tasks_deeply_completed, stats.tasks_registered);
        assert_eq!(ran.load(Ordering::Relaxed), 10_000);
        let runtime = rt.stats();
        assert!(
            runtime.retires_deferred > 0,
            "fine leaves without successors are batched"
        );
        assert!(runtime.retire_flushes > 0);
        assert!(runtime.retire_flushes <= runtime.retires_deferred);
    }

    /// A `weakwait` parent's leaves retire in batches, and a batch hands its blocks over to
    /// the next task as one range: at one worker, 512 leaves send far fewer `CompleteUp`s than
    /// one per leaf.
    #[test]
    fn a_retire_batch_hands_its_blocks_over_as_one_range() {
        const LEAVES: usize = 512;
        const BLOCK: usize = 4;
        let rt = Runtime::with_workers(1);
        let data = SharedSlice::<u64>::new(LEAVES * BLOCK);
        let sum = Arc::new(AtomicUsize::new(0));
        rt.run(|ctx| {
            let whole = data.region(0..LEAVES * BLOCK);
            let d = data.clone();
            ctx.task().weak_inout(whole).weakwait().spawn(move |t| {
                let d2 = d.clone();
                t.spawn_each(
                    LEAVES,
                    |i, c| {
                        c.inout(d.region(i * BLOCK..(i + 1) * BLOCK));
                    },
                    move |t, i| d2.write(t, i * BLOCK..(i + 1) * BLOCK).fill(i as u64 + 1),
                );
            });
            let (d, total) = (data.clone(), Arc::clone(&sum));
            ctx.task().input(whole).spawn(move |t| {
                let read: u64 = d.read(t, 0..LEAVES * BLOCK).iter().sum();
                total.store(read as usize, Ordering::Relaxed);
            });
        });
        let expected: Vec<u64> = (0..LEAVES * BLOCK)
            .map(|k| (k / BLOCK) as u64 + 1)
            .collect();
        assert_eq!(data.snapshot(), expected);
        assert_eq!(
            sum.load(Ordering::Relaxed),
            BLOCK * LEAVES * (LEAVES + 1) / 2,
            "the reader ran after every leaf"
        );
        let stats = rt.stats();
        let engine = stats.engine;
        assert_eq!(engine.tasks_registered, LEAVES + 3);
        assert_eq!(engine.tasks_deeply_completed, engine.tasks_registered);
        assert!(stats.retires_deferred > 0, "the leaves retire in batches");
        assert!(
            engine.complete_up_messages < LEAVES / 4,
            "{} CompleteUps for {LEAVES} leaves",
            engine.complete_up_messages
        );
    }

    #[test]
    fn leaves_with_sibling_successors_defer_nothing() {
        let rt = Runtime::with_workers(2);
        // A chain of `inout` on one cell, registered as one wave: every link but the last has
        // its successor linked, and the last has no sibling left to run after it.
        let cell = SharedSlice::<u64>::new(1);
        let c = cell.clone();
        rt.run(|ctx| {
            ctx.spawn_each(
                1_000,
                |_, clauses| {
                    clauses.inout(cell.region(0..1));
                },
                move |t, _| c.write(t, 0..1)[0] += 1,
            );
        });
        assert_eq!(cell.snapshot()[0], 1_000);
        // An 8 × 8 wavefront in one wave: tile (i, j) reads its upper and left neighbours and
        // writes itself, so every tile but the last has a sibling successor.
        let grid = SharedSlice::<u64>::new(64);
        let g = grid.clone();
        rt.run(|ctx| {
            ctx.spawn_each(
                64,
                |k, clauses| {
                    clauses.inout(grid.region(k..k + 1));
                    if k >= 8 {
                        clauses.input(grid.region(k - 8..k - 7));
                    }
                    if k % 8 > 0 {
                        clauses.input(grid.region(k - 1..k));
                    }
                },
                move |t, k| {
                    let up = if k >= 8 {
                        g.read(t, k - 8..k - 7)[0]
                    } else {
                        0
                    };
                    let left = if k % 8 > 0 { g.read(t, k - 1..k)[0] } else { 0 };
                    g.write(t, k..k + 1)[0] = up.max(left) + 1;
                },
            );
        });
        assert_eq!(
            grid.snapshot()[63],
            15,
            "the wavefront ran in dependency order"
        );
        assert_eq!(rt.stats().retires_deferred, 0);
    }

    #[test]
    fn concurrent_jobs_retire_in_batches_of_their_own() {
        // Four jobs of fine leaves at once: a batch holds one parent's leaves, so one job's;
        // `WorkerState::retire` asserts it in debug builds, and each job's own count of
        // deep completions (kept by the `schedule_effects` of its batches) must match.
        let rt = Runtime::with_workers(2);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                rt.submit(|ctx| {
                    for _ in 0..4 {
                        ctx.task().spawn(|parent| {
                            parent.spawn_each(500, |_, _| {}, |_, _| {});
                            parent.taskwait();
                        });
                    }
                })
            })
            .collect();
        for handle in &handles {
            let outcome = loop {
                match handle.try_wait_result() {
                    Some(outcome) => break outcome,
                    None => std::thread::yield_now(),
                }
            };
            assert!(outcome.is_ok());
            let stats = handle.stats();
            assert_eq!(stats.tasks_registered, 1 + 4 + 4 * 500);
            assert_eq!(stats.tasks_deeply_completed, stats.tasks_registered);
        }
        assert!(
            rt.stats().retires_deferred > 0,
            "the jobs' leaves were batched"
        );
    }

    /// The record stays at 104 bytes: the same fields laid out in 120 bytes, with no other
    /// change, cost `service_mix` ~10 % of its `jobs_per_s` (2 workers, 2-vCPU VM, seed 1, 5 of
    /// 5 alternating pairs lost).
    #[cfg(not(feature = "faults"))]
    #[test]
    fn the_task_record_stays_within_104_bytes() {
        assert!(
            std::mem::size_of::<TaskRecord>() <= 104,
            "{}",
            std::mem::size_of::<TaskRecord>()
        );
    }

    /// The engine entry each record holds stays within 448 bytes (440 today): the transparency
    /// flag and the wait mode sit in the padding beside `successor_linked`, and the parent link
    /// moved from the domain into the entry, where it replaced the domain's self link.
    #[test]
    fn the_task_entry_stays_within_448_bytes() {
        let size = std::mem::size_of::<crate::engine::TaskEntry<Box<TaskRecord>>>();
        assert!(size <= 448, "{size}");
    }

    /// Polls `done` for up to ten seconds. What the return tests check is done by the pool's
    /// idle hook, which every worker runs before it sleeps, and a pool left without work
    /// sleeps; so `done` holds once the pool is idle, and the bound only ends a failing run.
    fn eventually(done: impl Fn() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    /// Runs one job on `rt` in which a task spawns `leaves` empty leaves one `spawn` at a time
    /// and waits until one of them ran on another worker, so that records cross workers.
    fn spawn_leaves_from_a_task(rt: &Runtime, leaves: usize) -> usize {
        let ran = Arc::new(AtomicUsize::new(0));
        let elsewhere = Arc::new(AtomicUsize::new(0));
        let (counted, crossed) = (Arc::clone(&ran), Arc::clone(&elsewhere));
        rt.run(move |root| {
            root.task().spawn(move |spawner| {
                let home = spawner.worker_index();
                for _ in 0..leaves {
                    let (counted, crossed) = (Arc::clone(&counted), Arc::clone(&crossed));
                    spawner.task().spawn(move |leaf| {
                        counted.fetch_add(1, Ordering::Relaxed);
                        if leaf.worker_index() != home {
                            crossed.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
                while spawner.worker_count() > 1 && crossed.load(Ordering::Relaxed) == 0 {
                    std::thread::yield_now();
                }
                spawner.taskwait();
            });
        });
        assert!(rt.worker_count() == 1 || elsewhere.load(Ordering::Relaxed) > 0);
        ran.load(Ordering::Relaxed)
    }

    #[test]
    fn records_that_finish_on_another_worker_go_home() {
        let rt = Runtime::with_workers(2);
        assert_eq!(spawn_leaves_from_a_task(&rt, 10_000), 10_000);
        assert!(
            eventually(|| rt.stats().records_returned > 0),
            "no record reached its home: {:?}",
            rt.stats()
        );
        let stats = rt.stats();
        // A spare comes only out of a return bin.
        assert!(stats.records_reused <= stats.records_returned, "{stats:?}");

        let single = Runtime::with_workers(1);
        assert_eq!(spawn_leaves_from_a_task(&single, 1_000), 1_000);
        let stats = single.stats();
        assert_eq!(
            (stats.records_returned, stats.records_reused),
            (0, 0),
            "nothing is routed"
        );
    }

    #[test]
    fn an_idle_pool_parks_at_most_one_batch_per_worker_in_a_bin() {
        let rt = Runtime::with_workers(2);
        for _ in 0..3 {
            assert_eq!(spawn_leaves_from_a_task(&rt, 10_000), 10_000);
        }
        let bound = RETURN_BATCH * rt.worker_count();
        let bins = || {
            rt.inner
                .return_bins
                .iter()
                .map(RecordBin::len)
                .collect::<Vec<_>>()
        };
        assert!(
            eventually(|| bins().iter().all(|&len| len <= bound)),
            "return bins of an idle pool: {:?} records, bound {bound}",
            bins()
        );
        assert_eq!(rt.capacity().returned_records, bins().iter().sum::<usize>());
    }

    /// Whether the calling worker holds deferred retires.
    fn holds_batch() -> bool {
        WORKER.with_borrow(|state| state.batch.held > 0)
    }

    /// A wave of fine leaves, every eighth of which releases the block it declared: such a
    /// release runs while its worker holds earlier siblings' deferred retires, and drains the
    /// thread's own cascade, not the batch's.
    #[test]
    fn a_release_amid_held_siblings_leaves_the_batch_to_its_flush() {
        const LEAVES: usize = 4_096;
        let rt = Runtime::with_workers(2);
        let data = SharedSlice::<u64>::new(LEAVES);
        let amid = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&amid);
        let handle = rt.submit(move |ctx| {
            ctx.task().spawn(move |parent| {
                let blocks = data.clone();
                parent.spawn_each(
                    LEAVES,
                    move |i, clauses| {
                        clauses.inout(blocks.region(i..i + 1));
                    },
                    move |leaf, i| {
                        if i % 8 == 7 {
                            if holds_batch() {
                                counted.fetch_add(1, Ordering::Relaxed);
                            }
                            leaf.release(data.region(i..i + 1));
                        }
                    },
                );
                parent.taskwait();
            });
        });
        let outcome = loop {
            match handle.try_wait_result() {
                Some(outcome) => break outcome,
                None => std::thread::yield_now(),
            }
        };
        assert!(outcome.is_ok());
        let stats = handle.stats();
        assert_eq!(stats.tasks_registered, LEAVES + 2);
        assert_eq!(stats.tasks_deeply_completed, stats.tasks_registered);
        assert!(
            amid.load(Ordering::Relaxed) > 0,
            "no release ran while its worker held a batch: {:?}",
            rt.stats()
        );
    }

    /// A task body runs a job on a second runtime in the middle of a wave of fine siblings,
    /// while its worker may hold their deferred retires: the inline root's finish drains the
    /// thread's own cascade, so neither engine applies the other's messages or files the
    /// other's ids, and each engine's minted ids stay at their own plateau.
    #[test]
    fn a_second_runtime_run_amid_held_siblings_keeps_each_engine_apart() {
        const LEAVES: usize = 256;
        const ROUNDS: usize = 40;
        let outer = Runtime::with_workers(2);
        let nested = Arc::new(Runtime::with_workers(1));
        let amid = Arc::new(AtomicUsize::new(0));
        let minted = || {
            (
                outer.inner.engine.ids_minted(),
                nested.inner.engine.ids_minted(),
            )
        };
        let mut first = (0, 0);
        let mut most = (0, 0);
        for round in 0..ROUNDS {
            let (nested, counted) = (Arc::clone(&nested), Arc::clone(&amid));
            outer.run(move |ctx| {
                ctx.task().spawn(move |parent| {
                    parent.spawn_each(
                        LEAVES,
                        |_, _| {},
                        move |_, i| {
                            if i % 32 == 31 {
                                if holds_batch() {
                                    counted.fetch_add(1, Ordering::Relaxed);
                                }
                                nested.run(|root| {
                                    for _ in 0..16 {
                                        root.task().spawn(|_| {});
                                    }
                                });
                            }
                        },
                    );
                    parent.taskwait();
                });
            });
            let now = minted();
            if round == 0 {
                first = now;
            }
            most = (most.0.max(now.0), most.1.max(now.1));
        }
        assert!(
            amid.load(Ordering::Relaxed) > 0,
            "no nested run started while its worker held a batch"
        );
        for (name, rt) in [("outer", &outer), ("nested", &*nested)] {
            let engine = rt.stats().engine;
            assert_eq!(
                engine.tasks_retired, engine.tasks_registered,
                "the {name} engine retired exactly its own tasks"
            );
        }
        assert!(
            most.0 <= 2 * first.0 + 64 && most.1 <= 2 * first.1 + 64,
            "minted ids (outer, nested): first round {first:?}, most {most:?}"
        );
    }
}
