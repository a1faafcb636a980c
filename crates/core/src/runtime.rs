//! The task runtime: spawning, scheduling, `taskwait`, the `wait`/`weakwait` clauses and the
//! `release` directive, glued to the dependency engine and the work-stealing worker pool.
//!
//! # Mapping from the paper's pragmas to this API
//!
//! | OpenMP (paper)                                   | `weakdep` API                                     |
//! |--------------------------------------------------|---------------------------------------------------|
//! | `#pragma omp task depend(in: x[a:n])`            | `ctx.task().input(x.region(a..a+n)).spawn(...)`    |
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
//! parent's domain; records of not-yet-ready tasks live in a striped [`PendingSlab`] indexed by
//! the dense `TaskId`, and all scheduling (successor slot, deques, injector) happens after every
//! engine lock has been dropped. [`TaskCtx::spawn_batch`] registers a whole wave of sibling
//! tasks under a single domain-lock acquisition.
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

use std::any::Any;
use std::collections::HashMap;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use weakdep_regions::{Region, RegionSet};
use weakdep_threadpool::{
    AdmissionGate, AdmissionStats, LoopDescriptor, SchedulingPolicy, ThreadPool, Tick, Watchdog,
    WorkerContext,
};

use crate::data::SharedSlice;

#[cfg(feature = "faults")]
use crate::faults::FaultPlan;
use crate::job::{JobError, JobHandle, JobOptions, JobState, JobStats};

use crate::access::{normalize_deps, AccessType, Depend, NormalizedDep, WaitMode};
use crate::engine::{DependencyEngine, Effects, StaleTaskId, TaskId};
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
        let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
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
    /// `docs/robustness.md`; the chaos harness (`cargo run -p weakdep_bench --features faults
    /// --bin chaos`) drives a mixed-tenant soak through this.
    #[cfg(feature = "faults")]
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// **Test-only fault injection** (mutation regression for the race sentinel): registers
    /// `spawn_batch` waves with their declared dependencies *dropped*, so the engine dispatches
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

/// Snapshot of the runtime's steady-state capacity: how many per-task slots are currently
/// allocated across the engine's task table and the runtime's pending slab. With id retirement
/// these plateau at the live-task high-water mark — they do **not** grow with the total number
/// of tasks ever spawned, which is what lets one runtime serve an unbounded task stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CapacityStats {
    /// Slots allocated in the engine's task table (live + recycled-free).
    pub task_table_slots: usize,
    /// Tasks currently live (registered and not yet retired).
    pub live_tasks: usize,
    /// Slots allocated in the pending-record slab.
    pub pending_slots: usize,
    /// Jobs currently live in the service registry (submitted and not yet finished).
    pub live_jobs: usize,
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
    /// Subset of `steals` taken from a victim in the thief's own locality domain.
    pub steals_same_domain: usize,
    /// Subset of `steals` taken across locality domains (hierarchical policy only).
    pub steals_cross_domain: usize,
    /// Successor-slot jobs displaced by a newer successor (re-dispatched below it).
    pub successor_displacements: usize,
    /// Domain-preferring wake-ups that hit a sleeper of the preferred domain.
    pub targeted_wakes: usize,
    /// Domain-preferring wake-ups that fell back to another domain's sleeper.
    pub fallback_wakes: usize,
    /// Times a worker parked in the pool's sleep state — idle at the top of its loop or
    /// inside a `taskwait` (one population, one counter).
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
    pub spawn_ns: u64,
    /// Cumulative wall time spent executing task bodies, in ns.
    pub body_ns: u64,
    /// Cumulative wall time spent retiring tasks (dependency release + scheduling), in ns.
    pub retire_ns: u64,
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

/// Internal record of a spawned task (shared between the scheduler queues and the engine).
pub(crate) struct TaskRecord {
    id: TaskId,
    label: &'static str,
    body: Mutex<Option<BodyFn>>,
    footprint: Vec<FootprintEntry>,
    /// The job this task belongs to (an `Arc` clone per task — refcount only, no allocation,
    /// so the spawn path's allocs-per-task budget is unchanged).
    job: Arc<JobState>,
    /// Job-local registration ordinal (root = 0), the task's key in the fault plan's decision
    /// streams. Compiled out without the `faults` feature so the record layout is unchanged.
    #[cfg(feature = "faults")]
    ordinal: u32,
}

/// Striped slab of records for registered-but-not-yet-ready tasks, keyed by the dense
/// [`TaskId::index`] — no hashing on the spawn/finish path, and no shared lock across stripes.
/// Slots revert to `Vacant` once their handshake completes, and because the engine recycles the
/// index of a retired task (whose handshake necessarily completed — a task cannot deeply
/// complete without having been dispatched), the stripe vectors plateau at the live-task
/// high-water mark together with the engine's task table. Slot states carry the id's
/// generation, so a reused index can never be confused with its previous occupant.
///
/// Because registration (which files the record) and readiness (which claims it) race once the
/// parent's domain lock has been dropped, each slot is a tiny two-phase handshake: whichever
/// side arrives second is responsible for dispatching the task.
struct PendingSlab {
    stripes: Vec<Mutex<Vec<PendingSlot>>>,
}

#[derive(Default, Clone)]
enum PendingSlot {
    /// Nothing filed for this task (also the state after a hand-off completed).
    #[default]
    Vacant,
    /// The spawner filed the record; the task is not ready yet.
    Waiting(Arc<TaskRecord>),
    /// The task (of the recorded generation) became ready before the spawner filed the record;
    /// the spawner dispatches.
    ReadyEarly(u32),
}

const PENDING_STRIPES: usize = 64;

impl PendingSlab {
    fn new() -> Self {
        PendingSlab {
            stripes: (0..PENDING_STRIPES).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    fn slot(stripe: &mut Vec<PendingSlot>, id: TaskId) -> &mut PendingSlot {
        let idx = id.index() / PENDING_STRIPES;
        if stripe.len() <= idx {
            stripe.resize(idx + 1, PendingSlot::Vacant);
        }
        &mut stripe[idx]
    }

    /// Files the record of a not-yet-ready task. Returns the record back if the task already
    /// became ready in the meantime — the caller must dispatch it.
    fn file(&self, id: TaskId, record: Arc<TaskRecord>) -> Option<Arc<TaskRecord>> {
        let mut stripe = self.stripes[id.index() % PENDING_STRIPES].lock();
        let slot = Self::slot(&mut stripe, id);
        match std::mem::take(slot) {
            PendingSlot::Vacant => {
                *slot = PendingSlot::Waiting(record);
                None
            }
            PendingSlot::ReadyEarly(generation) => {
                debug_assert_eq!(
                    generation,
                    id.generation(),
                    "pending slot {id:?} aliased across generations"
                );
                Some(record)
            }
            PendingSlot::Waiting(_) => unreachable!("task {id:?} filed twice"),
        }
    }

    /// Claims the record of a task that became ready. `None` means the spawner has not filed it
    /// yet; the slot is marked so the spawner dispatches on arrival.
    fn claim(&self, id: TaskId) -> Option<Arc<TaskRecord>> {
        let mut stripe = self.stripes[id.index() % PENDING_STRIPES].lock();
        let slot = Self::slot(&mut stripe, id);
        match std::mem::take(slot) {
            PendingSlot::Waiting(record) => {
                debug_assert_eq!(record.id, id, "pending slot {id:?} aliased across generations");
                Some(record)
            }
            PendingSlot::Vacant => {
                *slot = PendingSlot::ReadyEarly(id.generation());
                None
            }
            PendingSlot::ReadyEarly(generation) => {
                *slot = PendingSlot::ReadyEarly(generation);
                None
            }
        }
    }

    /// Total slots currently allocated across all stripes (a capacity diagnostic; plateaus with
    /// the live-task high-water mark).
    fn capacity(&self) -> usize {
        self.stripes.iter().map(|stripe| stripe.lock().len()).sum()
    }
}

/// Cumulative phase timers (nanoseconds), kept with relaxed atomics: they are statistics, not
/// synchronisation.
#[derive(Default)]
struct PhaseTimers {
    spawn_ns: std::sync::atomic::AtomicU64,
    body_ns: std::sync::atomic::AtomicU64,
    retire_ns: std::sync::atomic::AtomicU64,
}

impl PhaseTimers {
    fn add(counter: &std::sync::atomic::AtomicU64, start: Instant) {
        counter.fetch_add(
            start.elapsed().as_nanos() as u64,
            std::sync::atomic::Ordering::Relaxed,
        );
    }
}

struct Inner {
    pool: ThreadPool<Arc<TaskRecord>>,
    engine: DependencyEngine,
    pending: PendingSlab,
    /// Live-job registry. **Leaf-like lock**: only insert/remove/Arc-clone under it — never a
    /// gate notify, an engine call or a queue operation (see `docs/locking.md`).
    jobs: Mutex<HashMap<u64, Arc<JobState>>>,
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
            let pool = ThreadPool::with_tenants(
                config.workers,
                config.scheduling,
                // The tenant of a task is its job: FairShare round-robins across live jobs.
                |record: &Arc<TaskRecord>| record.job.id,
                move |record: Arc<TaskRecord>, wctx| {
                    if let Some(inner) = weak_for_pool.upgrade() {
                        execute_task(&inner, record, wctx);
                    }
                },
            );
            Inner {
                pool,
                engine: DependencyEngine::new(),
                pending: PendingSlab::new(),
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
                timers: PhaseTimers::default(),
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
        let job = create_job(&self.inner, JobOptions::new());
        let root_record = Arc::new(TaskRecord {
            id: job.root,
            label: "root",
            body: Mutex::new(None),
            footprint: Vec::new(),
            job: Arc::clone(&job),
            #[cfg(feature = "faults")]
            ordinal: 0,
        });
        let ctx = TaskCtx { inner: &self.inner, record: root_record, worker: None };
        #[cfg(feature = "sentinel")]
        {
            // The root declares nothing and conflicts with nothing, but it must be in the
            // shadow table so its children can record it as their ancestor.
            self.inner.sentinel.task_created(job.id, sentinel_key(job.root), None, "root", []);
            self.inner.sentinel.task_started(sentinel_key(job.root));
        }
        let result = catch_unwind(AssertUnwindSafe(|| body(&ctx)));

        let effects =
            self.inner.engine.body_finished(job.root).expect("the root is live until here");
        schedule_effects(&self.inner, effects, None, &job);

        // Wait until the root (and therefore every descendant) deeply completes; the job's
        // `finished` flag is flipped by `schedule_effects` when the engine reports the root's
        // deep completion. The wait is untimed: deep completion reliably signals the per-job
        // gate (see the gate's register/check protocol, which closes the lost-wake-up race —
        // model-checked in `tests/loom_completion.rs`).
        job.gate.wait_until(|| job.is_finished());
        // Every descendant has retired (and left the shadow table); drop the root entry too so
        // the table holds only other jobs' live tasks.
        #[cfg(feature = "sentinel")]
        self.inner.sentinel.task_finished(sentinel_key(job.root));
        // Deep completion of the root is a quiescent point for the engine's accounting only
        // when no other job is in flight.
        #[cfg(debug_assertions)]
        if self.inner.jobs.lock().is_empty() {
            self.inner.engine.debug_check_invariants();
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
    /// [`JobHandle`] for waiting ([`JobHandle::wait`]), polling ([`JobHandle::try_wait`]) or
    /// cancelling ([`JobHandle::cancel`]) it. The job is an independent root domain in the
    /// shared engine: its tasks never depend on (or conflict with) another job's, but they
    /// share the worker pool, and under [`SchedulingPolicy::FairShare`] ready waves are
    /// round-robined across live jobs.
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
        let job = create_job(&self.inner, options);
        let result: Arc<Mutex<Option<R>>> = Arc::new(Mutex::new(None));
        let slot = Arc::clone(&result);
        let root_record = Arc::new(TaskRecord {
            id: job.root,
            label: "root",
            body: Mutex::new(Some(Box::new(move |ctx: &TaskCtx<'_>| {
                *slot.lock() = Some(body(ctx));
            }) as BodyFn)),
            footprint: Vec::new(),
            job: Arc::clone(&job),
            #[cfg(feature = "faults")]
            ordinal: 0,
        });
        #[cfg(feature = "sentinel")]
        self.inner.sentinel.task_created(job.id, sentinel_key(job.root), None, "root", []);
        // The root is ready by construction (no dependencies).
        self.inner.pool.submit(root_record);
        JobHandle { job, result }
    }

    /// Per-job stats slices of the currently live jobs, ordered by job id (a finished job
    /// leaves the registry; the aggregate view is [`Runtime::stats`]). A [`JobHandle`] offers
    /// the same slice for a specific job, live or finished.
    pub fn job_stats(&self) -> Vec<JobStats> {
        let mut out: Vec<JobStats> =
            self.inner.jobs.lock().values().map(|job| job.stats()).collect();
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
            tasks_executed: pool_stats.executed.load(Ordering::Relaxed),
            successor_slot_hits: pool_stats.from_successor_slot.load(Ordering::Relaxed),
            local_pops: pool_stats.from_local.load(Ordering::Relaxed),
            injector_pops: pool_stats.from_injector.load(Ordering::Relaxed),
            steals: pool_stats.stolen.load(Ordering::Relaxed),
            steals_same_domain: pool_stats.stolen_same_domain.load(Ordering::Relaxed),
            steals_cross_domain: pool_stats.stolen_cross_domain.load(Ordering::Relaxed),
            successor_displacements: pool_stats.successor_displacements.load(Ordering::Relaxed),
            targeted_wakes: pool_stats.targeted_wakes.load(Ordering::Relaxed),
            fallback_wakes: pool_stats.fallback_wakes.load(Ordering::Relaxed),
            sleeps: pool_stats.sleeps.load(Ordering::Relaxed),
            assist_chunks: pool_stats.assist_chunks.load(Ordering::Relaxed),
            assisted_loops: pool_stats.assisted_loops.load(Ordering::Relaxed),
            assist_steals: pool_stats.assist_steals.load(Ordering::Relaxed),
            spawn_ns: self.inner.timers.spawn_ns.load(Ordering::Relaxed),
            body_ns: self.inner.timers.body_ns.load(Ordering::Relaxed),
            retire_ns: self.inner.timers.retire_ns.load(Ordering::Relaxed),
            jobs_submitted: self.inner.jobs_submitted.load(Ordering::Relaxed),
            jobs_completed: self.inner.jobs_completed.load(Ordering::Relaxed),
            jobs_cancelled: self.inner.jobs_cancelled.load(Ordering::Relaxed),
            admission: self.inner.admission.stats(),
        }
    }

    /// Current per-task capacity diagnostics (see [`CapacityStats`]).
    pub fn capacity(&self) -> CapacityStats {
        CapacityStats {
            task_table_slots: self.inner.engine.table_capacity(),
            live_tasks: self.inner.engine.live_tasks(),
            pending_slots: self.inner.pending.capacity(),
            live_jobs: self.inner.jobs.lock().len(),
        }
    }

    /// Whether `task` has deeply completed (body finished and every descendant deeply
    /// complete). A *stale* id — the task was retired and its slot possibly reused — returns
    /// `Err(StaleTaskId)`, never the state of the younger task occupying the slot. Retirement
    /// implies deep completion, so `Err` can be read as "completed long ago".
    pub fn try_is_deeply_completed(&self, task: TaskId) -> Result<bool, StaleTaskId> {
        self.inner.engine.try_is_deeply_completed(task)
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
        let live: Vec<Arc<JobState>> = self.inner.jobs.lock().values().cloned().collect();
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
/// job carries a deadline or the service has stall detection configured.
fn create_job(inner: &Arc<Inner>, options: JobOptions) -> Arc<JobState> {
    let id = inner.next_job_id.fetch_add(1, SeqCst);
    #[cfg(feature = "faults")]
    if let Some(stall) = inner.fault_plan.as_ref().and_then(|plan| plan.submission_stall(id)) {
        // Injected slow submitter: the stall sits *before* the admission probe, so the job
        // still contends for admission like a well-behaved late arrival.
        std::thread::sleep(stall);
    }
    inner.admission.admit(|| inner.engine.live_tasks());
    let root = inner.engine.register_root();
    let deadline = options.deadline.map(|d| Instant::now() + d);
    let job = Arc::new(JobState::new(
        id,
        root,
        Arc::clone(&inner.admission),
        options.panic_policy,
        deadline,
        options.label,
    ));
    job.registered.fetch_add(1, SeqCst); // the root itself (fault-injection ordinal 0)
    inner.jobs.lock().insert(id, Arc::clone(&job));
    inner.jobs_submitted.fetch_add(1, SeqCst);
    if deadline.is_some() || inner.stall_tick.is_some() {
        if !inner.watchdog.is_running() {
            let weak = Arc::downgrade(inner);
            let mut stalls = StallState { tracks: HashMap::new(), last_sweep: None };
            inner.watchdog.ensure_started(move || match weak.upgrade() {
                Some(inner) => watchdog_tick(&inner, &mut stalls),
                None => Tick::Idle,
            });
        }
        // Wake the (possibly idle, possibly mid-sleep) watchdog so a deadline earlier than
        // its current sleep target cannot be slept past.
        inner.watchdog.poke();
    }
    job
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
    let live: Vec<Arc<JobState>> = inner.jobs.lock().values().cloned().collect();
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
        stalls.tracks.retain(|id, _| live.iter().any(|job| job.id == *id));
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
    record: Arc<TaskRecord>,
    worker: Option<&'a WorkerContext<'a, Arc<TaskRecord>>>,
}

impl<'a> TaskCtx<'a> {
    /// Starts building a child task of the current task.
    pub fn task(&self) -> TaskBuilder<'_> {
        TaskBuilder { ctx: self, spec: TaskSpec::new() }
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
        if specs.is_empty() {
            return Vec::new();
        }
        let spawn_start = Instant::now();
        let normalized: Vec<Vec<NormalizedDep>> =
            specs.iter().map(|spec| normalize_deps(&spec.deps)).collect();
        let registered = self
            .inner
            .engine
            .register_batch(
                self.record.id,
                normalized.iter().zip(&specs).map(|(norm, spec)| {
                    // Seeded §VIII-A wave-ordering mutation (test-only, see
                    // `RuntimeConfig::seed_wave_ordering_bug`): register the wave's siblings
                    // dependency-free so they dispatch concurrently, while the records and
                    // the sentinel keep the declared footprints.
                    #[cfg(feature = "sentinel")]
                    if self.inner.seed_wave_ordering_bug {
                        return (&[] as &[NormalizedDep], spec.wait_mode);
                    }
                    (norm.as_slice(), spec.wait_mode)
                }),
            )
            .expect("the spawning task is live, so its id cannot be stale");

        let mut ids = Vec::with_capacity(specs.len());
        let mut ready_records = Vec::new();
        for ((spec, norm), (id, ready)) in specs.into_iter().zip(normalized).zip(registered) {
            let record = finish_spawn(self, spec, norm, id, ready);
            if let Some(record) = record {
                ready_records.push(record);
            }
            ids.push(id);
        }
        match self.worker {
            // Spawned-ready waves are not successor waves: the spawner is still running, so
            // the policy's wave queue applies to all.
            Some(worker) => worker.dispatch_ready(ready_records, false),
            None => self.inner.pool.submit_batch(ready_records),
        }
        PhaseTimers::add(&self.inner.timers.spawn_ns, spawn_start);
        ids
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
        let drained = || self.inner.engine.live_children(self.record.id) == 0;
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
        let effects = self
            .inner
            .engine
            .release_region(self.record.id, region)
            .expect("the releasing task is live, so its id cannot be stale");
        // Shrink the task's live declared footprint *before* dispatching successors: a released
        // region is no longer ours, so a successor starting on it must not conflict with us,
        // and our own later accesses to it must trip `check_access`.
        #[cfg(feature = "sentinel")]
        self.inner.sentinel.released(sentinel_key(self.record.id), &region);
        schedule_effects(self.inner, effects, self.worker.map(|w| (w, false)), &self.record.job);
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
    /// chunk grain (the `tasks_vs_assist` bench measures the crossover).
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
        self.run_loop(range, chunk, None, move |_desc, chunk_start, chunk_end| {
            body(chunk_start, chunk_end);
        });
    }

    /// Work-assisting inclusive prefix scan of `input` into `output` under `combine`
    /// (`output[i] = input[0] ⊕ … ⊕ input[i]`), block-decomposed so idle workers assist both
    /// phases: phase 1 scans each block locally and records the block total, the owner
    /// exclusive-scans the totals into per-block offsets, and phase 2 folds each block's
    /// offset in — the offsets ride the descriptor's *carry* state.
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
        assert_eq!(n, output.len(), "scan input and output must have equal length");
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
            self.run_loop(0..n, chunk, None, move |_desc, chunk_start, chunk_end| {
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
        let offsets: Arc<Vec<T>> = Arc::new(offsets);

        // Phase 2: fold each block's offset in. Block 0's offset is `identity`, so it is
        // skipped outright (the range starts at the second block). The offsets ride the
        // descriptor's carry state — assisting workers read them through the descriptor.
        let comb = combine;
        self.run_loop(
            chunk.min(n)..n,
            chunk,
            Some(Box::new(Arc::clone(&offsets))),
            move |desc, chunk_start, chunk_end| {
                let carry = desc
                    .carry()
                    .and_then(|c| c.downcast_ref::<Arc<Vec<T>>>())
                    .expect("a phase-2 scan descriptor always carries the block offsets");
                let offset = carry[chunk_start / chunk];
                for v in output_view.chunk(chunk_start..chunk_end) {
                    *v = comb(offset, *v);
                }
            },
        );
    }

    /// The shared engine of [`TaskCtx::for_each`] and [`TaskCtx::scan`]: builds the
    /// [`LoopDescriptor`] (tenant = this task's job, abort probe = the job's abort bracket,
    /// domain = the registering worker's locality domain), publishes it so idle workers are
    /// recruited, drives chunks on the owner, waits for quiescence, retires the loop, folds
    /// the assist count into the job's stats slice, and re-raises the first chunk panic.
    fn run_loop<R>(
        &self,
        range: Range<usize>,
        chunk: usize,
        carry: Option<Box<dyn Any + Send + Sync>>,
        runner: R,
    ) where
        R: Fn(&LoopDescriptor, usize, usize) + Send + Sync + 'static,
    {
        let job = Arc::clone(&self.record.job);
        let probe_job = Arc::clone(&job);
        let domain = self.worker.map(|w| w.domain()).unwrap_or(0);
        let mut desc =
            LoopDescriptor::new(range, chunk, job.id, domain, runner, move || {
                probe_job.is_aborted()
            });
        if let Some(carry) = carry {
            desc = desc.with_carry(carry);
        }
        let desc = Arc::new(desc);
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
        job.assist_chunks.fetch_add(desc.assist_chunk_count(), SeqCst);
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
            self.inner.sentinel.check_access(sentinel_key(self.record.id), region, write)
        {
            panic!("{message}");
        }
    }
}

fn covered_by(footprint: &[FootprintEntry], region: &Region, needs_write: bool) -> bool {
    let mut qualifying = RegionSet::new();
    for entry in footprint {
        if entry.weak {
            continue;
        }
        if needs_write && !entry.write {
            continue;
        }
        qualifying.add(&entry.region);
    }
    qualifying.contains_all(region)
}

/// A fully described child task, detached from any context: dependencies, clauses, label and
/// body. Build one with [`TaskSpec::new`] + the builder methods, or via [`TaskBuilder::stage`];
/// submit a wave of them with [`TaskCtx::spawn_batch`].
pub struct TaskSpec {
    deps: Vec<Depend>,
    hints: Vec<FootprintEntry>,
    wait_mode: WaitMode,
    label: &'static str,
    body: Option<BodyFn>,
}

impl Default for TaskSpec {
    fn default() -> Self {
        Self::new()
    }
}

impl TaskSpec {
    /// An empty spec: no dependencies, default wait mode, label `"task"`, no body yet.
    pub fn new() -> Self {
        TaskSpec {
            deps: Vec::new(),
            hints: Vec::new(),
            wait_mode: WaitMode::None,
            label: "task",
            body: None,
        }
    }

    /// Adds a dependency with an explicit access type.
    pub fn depend(mut self, access: AccessType, region: Region) -> Self {
        self.deps.push(Depend::new(access, region));
        self
    }

    /// `depend(in: region)` — the task reads the region.
    pub fn input(self, region: Region) -> Self {
        self.depend(AccessType::In, region)
    }

    /// `depend(out: region)` — the task writes the region.
    pub fn output(self, region: Region) -> Self {
        self.depend(AccessType::Out, region)
    }

    /// `depend(inout: region)` — the task reads and writes the region.
    pub fn inout(self, region: Region) -> Self {
        self.depend(AccessType::InOut, region)
    }

    /// `depend(weakin: region)` — only subtasks read the region (§VI).
    pub fn weak_input(self, region: Region) -> Self {
        self.depend(AccessType::WeakIn, region)
    }

    /// `depend(weakout: region)` — only subtasks write the region (§VI).
    pub fn weak_output(self, region: Region) -> Self {
        self.depend(AccessType::WeakOut, region)
    }

    /// `depend(weakinout: region)` — only subtasks read/write the region (§VI).
    pub fn weak_inout(self, region: Region) -> Self {
        self.depend(AccessType::WeakInOut, region)
    }

    /// The `wait` clause (§IV).
    pub fn wait(mut self) -> Self {
        self.wait_mode = WaitMode::Wait;
        self
    }

    /// The `weakwait` clause (§V).
    pub fn weakwait(mut self) -> Self {
        self.wait_mode = WaitMode::WeakWait;
        self
    }

    /// Sets an explicit wait mode.
    pub fn wait_mode(mut self, mode: WaitMode) -> Self {
        self.wait_mode = mode;
        self
    }

    /// Labels the task (used by traces, timelines and error messages).
    pub fn label(mut self, label: &'static str) -> Self {
        self.label = label;
        self
    }

    /// Declares a region the task will touch *without* creating a dependency on it.
    pub fn footprint_hint(mut self, region: Region, write: bool) -> Self {
        self.hints.push(FootprintEntry { region, write, weak: false });
        self
    }

    /// Attaches the task body.
    pub fn body(mut self, body: impl FnOnce(&TaskCtx<'_>) + Send + 'static) -> Self {
        self.body = Some(Box::new(body));
        self
    }
}

/// Builder for a child task; mirrors the clauses of the extended `task` construct.
pub struct TaskBuilder<'a> {
    ctx: &'a TaskCtx<'a>,
    spec: TaskSpec,
}

impl<'a> TaskBuilder<'a> {
    /// Applies one [`TaskSpec`] builder step (the spec holds the single implementation of
    /// every clause; the builder only forwards).
    fn map(mut self, f: impl FnOnce(TaskSpec) -> TaskSpec) -> Self {
        self.spec = f(self.spec);
        self
    }

    /// Adds a dependency with an explicit access type.
    pub fn depend(self, access: AccessType, region: Region) -> Self {
        self.map(|spec| spec.depend(access, region))
    }

    /// `depend(in: region)` — the task reads the region.
    pub fn input(self, region: Region) -> Self {
        self.map(|spec| spec.input(region))
    }

    /// `depend(out: region)` — the task writes the region.
    pub fn output(self, region: Region) -> Self {
        self.map(|spec| spec.output(region))
    }

    /// `depend(inout: region)` — the task reads and writes the region.
    pub fn inout(self, region: Region) -> Self {
        self.map(|spec| spec.inout(region))
    }

    /// `depend(weakin: region)` — only subtasks read the region (§VI).
    pub fn weak_input(self, region: Region) -> Self {
        self.map(|spec| spec.weak_input(region))
    }

    /// `depend(weakout: region)` — only subtasks write the region (§VI).
    pub fn weak_output(self, region: Region) -> Self {
        self.map(|spec| spec.weak_output(region))
    }

    /// `depend(weakinout: region)` — only subtasks read/write the region (§VI).
    pub fn weak_inout(self, region: Region) -> Self {
        self.map(|spec| spec.weak_inout(region))
    }

    /// The `wait` clause (§IV): perform a detached taskwait when the body exits.
    pub fn wait(self) -> Self {
        self.map(TaskSpec::wait)
    }

    /// The `weakwait` clause (§V): release dependencies incrementally once the body exits.
    pub fn weakwait(self) -> Self {
        self.map(TaskSpec::weakwait)
    }

    /// Sets an explicit wait mode.
    pub fn wait_mode(self, mode: WaitMode) -> Self {
        self.map(|spec| spec.wait_mode(mode))
    }

    /// Labels the task (used by traces, timelines and error messages).
    pub fn label(self, label: &'static str) -> Self {
        self.map(|spec| spec.label(label))
    }

    /// Declares a region the task will touch *without* creating a dependency on it.
    ///
    /// This exists for codes that coordinate through explicit synchronisation instead of
    /// dependencies (e.g. the paper's `flat-taskwait` baseline): the data accessors and the
    /// observers (cache model, traces) still see the footprint, but the dependency engine does
    /// not order anything on it.
    pub fn footprint_hint(self, region: Region, write: bool) -> Self {
        self.map(|spec| spec.footprint_hint(region, write))
    }

    /// Detaches the builder into a [`TaskSpec`] carrying `body`, for batched submission with
    /// [`TaskCtx::spawn_batch`].
    pub fn stage(self, body: impl FnOnce(&TaskCtx<'_>) + Send + 'static) -> TaskSpec {
        self.spec.body(body)
    }

    /// Creates the task. The body runs asynchronously once all strong dependencies are
    /// satisfied. Returns the new task's id.
    pub fn spawn(self, body: impl FnOnce(&TaskCtx<'_>) + Send + 'static) -> TaskId {
        let TaskBuilder { ctx, spec } = self;
        let spec = spec.body(body);
        let spawn_start = Instant::now();
        let normalized = normalize_deps(&spec.deps);
        let (id, ready) = ctx
            .inner
            .engine
            .register_task_normalized(ctx.record.id, &normalized, spec.wait_mode)
            .expect("the spawning task is live, so its id cannot be stale");
        let record = finish_spawn(ctx, spec, normalized, id, ready);
        if let Some(record) = record {
            match ctx.worker {
                Some(worker) => worker.dispatch_spawned(record),
                None => ctx.inner.pool.submit(record),
            }
        }
        PhaseTimers::add(&ctx.inner.timers.spawn_ns, spawn_start);
        id
    }
}

/// Builds the record for a freshly registered task, notifies observers, and files the record if
/// the task is not ready yet. Returns the record when the caller must dispatch it — either the
/// task was ready at registration, or it became ready while the record was being built (the
/// [`PendingSlab`] handshake).
fn finish_spawn(
    ctx: &TaskCtx<'_>,
    spec: TaskSpec,
    normalized: Vec<NormalizedDep>,
    id: TaskId,
    ready: bool,
) -> Option<Arc<TaskRecord>> {
    let TaskSpec { deps: _, hints, wait_mode: _, label, body } = spec;
    let mut footprint: Vec<FootprintEntry> = normalized
        .into_iter()
        .map(|d| FootprintEntry { region: d.region, write: d.is_write, weak: d.weak })
        .collect();
    footprint.extend(hints);

    // The pre-increment count is the task's job-local registration ordinal — the key of the
    // fault plan's per-task decision streams — so the counter is bumped before the record is
    // built (same single atomic op either way).
    let _ordinal = ctx.record.job.registered.fetch_add(1, SeqCst);
    let record = Arc::new(TaskRecord {
        id,
        label,
        body: Mutex::new(body),
        footprint,
        job: Arc::clone(&ctx.record.job),
        #[cfg(feature = "faults")]
        ordinal: _ordinal as u32,
    });

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
        record.footprint.iter().map(|entry| weakdep_sentinel::DeclaredAccess {
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
        ready_at_creation: ready,
    };
    for obs in &ctx.inner.observers {
        obs.task_created(&info);
    }

    if ready {
        Some(record)
    } else {
        // The task may have become ready between registration and now; `file` hands the record
        // back in that case and the spawner dispatches it itself.
        ctx.inner.pending.file(id, record)
    }
}

/// Executes one task body on a worker and feeds the outcome back into the dependency engine.
fn execute_task(inner: &Arc<Inner>, record: Arc<TaskRecord>, wctx: &WorkerContext<'_, Arc<TaskRecord>>) {
    let start = Instant::now();
    let job = Arc::clone(&record.job);
    // Cancellation bracket (`SeqCst`, see `crate::job`'s ordering argument): the increment
    // happens *before* the cancelled-load, so a canceller that stores the flag and then reads
    // `running == 0` knows no body it did not wait out will ever start.
    job.running.fetch_add(1, SeqCst);
    let body = record.body.lock().take();
    if !job.is_aborted() {
        if let Some(body) = body {
            #[cfg(feature = "faults")]
            if let Some(delay) =
                inner.fault_plan.as_ref().and_then(|p| p.dispatch_delay(job.id, record.ordinal))
            {
                // Injected dispatch delay: perturbs timing (and widens abort/cancel races)
                // without changing any output.
                std::thread::sleep(delay);
            }
            let ctx = TaskCtx { inner, record: Arc::clone(&record), worker: Some(wctx) };
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
                    panic!("injected fault: job {} task ordinal {}", job.id, record.ordinal);
                }
                body(&ctx)
            }));
            if let Err(payload) = outcome {
                // Note the explicit reborrow: `&payload` would coerce the `Box` itself into
                // `&dyn Any` and make every downcast fail.
                let message = panic_message(&*payload);
                job.record_panic(payload, message);
            }
            job.executed.fetch_add(1, SeqCst);
        }
    } else if body.is_some() {
        // The body was taken and dropped unexecuted (cancel / fail-fast / deadline); the task
        // still retires through the engine below, so the job's graph drains and its regions
        // are released.
        job.skipped.fetch_add(1, SeqCst);
    }
    let prev_running = job.running.fetch_sub(1, SeqCst);
    if prev_running == 1 && job.is_aborted() {
        // Possibly the last in-flight body of a cancelled job: wake a canceller blocked in
        // `JobState::cancel` waiting for `running == 0`.
        job.gate.notify();
    }
    let end = Instant::now();
    PhaseTimers::add(&inner.timers.body_ns, start);

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

    let retire_start = Instant::now();
    // Retire from the shadow table strictly *before* `body_finished` can make successors
    // ready: a successor starting concurrently with this (finished) task is legal and must not
    // be flagged against its still-registered footprint.
    #[cfg(feature = "sentinel")]
    inner.sentinel.task_finished(sentinel_key(record.id));
    let effects = inner
        .engine
        .body_finished(record.id)
        .expect("a task retires exactly once, so its id cannot be stale here");
    schedule_effects(inner, effects, Some((wctx, true)), &job);
    PhaseTimers::add(&inner.timers.retire_ns, retire_start);
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
/// returned by the engine call).
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
    effects: Effects,
    worker: Option<(&WorkerContext<'_, Arc<TaskRecord>>, bool)>,
    job: &Arc<JobState>,
) {
    if !effects.ready.is_empty() {
        // Claim eagerly: the claims take pending-stripe locks, and the batch submission below
        // holds a queue lock (injector or tenant queues) — feeding it a lazy iterator would
        // nest the former inside the latter.
        let records: Vec<Arc<TaskRecord>> =
            effects.ready.iter().filter_map(|id| inner.pending.claim(*id)).collect();
        // One queue operation and one wake signal for the whole wave. That wake is all the
        // recruitment there is: workers parked in a `taskwait` — of any job — are pool
        // sleepers like the idle ones.
        match worker {
            Some((wctx, use_successor_slot)) => wctx.dispatch_ready(records, use_successor_slot),
            None => inner.pool.submit_batch(records),
        }
    }

    if !effects.deeply_completed.is_empty() {
        job.deeply_completed.fetch_add(effects.deeply_completed.len(), SeqCst);
        // Live-task load just dropped: let a blocked submission re-probe the budget. Cheap
        // (one atomic load) when nothing is blocked.
        inner.admission.notify_release();
    }

    if effects.root_completed {
        // Retire the job from the service registry *before* flipping `finished` and
        // notifying, so a `wait()`-returner observes the registry without this job. Every
        // effects wave comes from exactly one job's tree, so the completed root is `job`'s.
        inner.jobs.lock().remove(&job.id);
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
    let taskwait_unblocked = !effects.taskwaits_unblocked.is_empty();
    if taskwait_unblocked {
        inner.pool.wake_waiters();
    }
    if taskwait_unblocked || effects.root_completed {
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
                        tctx.task().inout(a2.region(0..1)).label("T1.1").spawn(move |c| {
                            a3.write(c, 0..1)[0] += 100;
                        });
                        tctx.task().inout(b2.region(0..1)).label("T1.2").spawn(move |c| {
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
                ctx.task().label("boom").spawn(|_| panic!("deliberate failure"));
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
                    ctx.task().inout(d.region(0..1)).label("chain").spawn(move |t| {
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
                    stats.successor_slot_hits, 0,
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
            RuntimeConfig::new().workers(2).scheduling_policy(SchedulingPolicy::Fifo),
        );
        assert_eq!(rt.scheduling_policy(), SchedulingPolicy::Fifo);
        let data = SharedSlice::<u64>::new(1);
        let d = data.clone();
        rt.run(move |ctx| {
            for _ in 0..16 {
                let d2 = d.clone();
                ctx.task().inout(d.region(0..1)).label("chain").spawn(move |t| {
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
        assert_eq!(handle.wait(), Some(42));
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
            if let Some(value) = handle.try_wait() {
                break value;
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
                        ctx.task().inout(d.region(0..1)).label("chain").spawn(move |t| {
                            d2.write(t, 0..1)[0] += k;
                        });
                    }
                    ctx.taskwait();
                    data.snapshot()[0]
                })
            })
            .collect();
        for (k, handle) in handles.into_iter().enumerate() {
            assert_eq!(handle.wait(), Some(20 * k as u64));
        }
        let stats = rt.stats();
        assert_eq!(stats.jobs_submitted, 6);
        assert_eq!(stats.jobs_completed, 6);
        assert_eq!(stats.jobs_cancelled, 0);
        assert_eq!(rt.capacity().live_jobs, 0);
        assert!(rt.job_stats().is_empty(), "no job may outlive its completion in the registry");
    }

    #[test]
    fn finished_jobs_report_registered_equals_deeply_completed() {
        let rt = Runtime::with_workers(2);
        let handle = rt.submit(|ctx| {
            for _ in 0..15 {
                ctx.task().spawn(|_| {});
            }
        });
        while handle.try_wait().is_none() {
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
        // guarantee no body of B ever starts, (c) still drain B so wait() returns None.
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
        assert_eq!(a.wait(), Some(()));
        assert_eq!(b.wait(), None, "the cancelled root body must not produce a value");
        assert_eq!(b_ran.load(Ordering::SeqCst), 0, "no body of a cancelled job may run");
        let stats = rt.stats();
        assert_eq!(stats.jobs_cancelled, 1);
        assert_eq!(stats.jobs_completed, 2, "a cancelled job still drains to completion");
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
        assert_eq!(a.wait(), Some(()));
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
        let outcome = handle.wait_timeout(Duration::from_secs(60)).expect("job must finish");
        assert_eq!(outcome.unwrap_err().kind(), "panicked");
        assert_eq!(ran.load(Ordering::SeqCst), 0, "no sibling body may run after the abort");
        let stats = handle.stats();
        assert!(stats.failed);
        assert_eq!(stats.tasks_skipped, 16);
        assert_eq!(stats.tasks_registered, stats.tasks_deeply_completed);
        assert_eq!(stats.tasks_executed + stats.tasks_skipped, stats.tasks_registered);
    }

    #[test]
    fn run_to_completion_policy_keeps_executing_bodies() {
        let rt = Runtime::with_workers(1);
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        let handle = rt.submit_with(
            JobOptions::new().panic_policy(PanicPolicy::RunToCompletion).label("tolerant"),
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
        assert_eq!(err.kind(), "panicked", "the first panic is still the job's outcome");
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
            JobOptions::new().deadline(Duration::from_millis(30)).label("overdue"),
            |ctx| {
                // 64 x 5ms over 2 workers is ≥160ms of wall time: far past the deadline.
                for _ in 0..64 {
                    ctx.task().spawn(|_| std::thread::sleep(Duration::from_millis(5)));
                }
                ctx.taskwait();
            },
        );
        let outcome = handle.wait_timeout(Duration::from_secs(60)).expect("abort must drain");
        assert_eq!(outcome.unwrap_err().kind(), "deadline-exceeded");
        let stats = handle.stats();
        assert!(stats.failed);
        assert!(stats.tasks_skipped > 0, "the abort must have skipped queued bodies");
        assert_eq!(stats.tasks_registered, stats.tasks_deeply_completed, "the job drained");
    }

    #[test]
    fn jobs_without_deadlines_are_untouched_by_anothers_deadline() {
        let rt = Runtime::with_workers(2);
        let overdue = rt.submit_with(
            JobOptions::new().deadline(Duration::from_millis(10)),
            |ctx| {
                for _ in 0..64 {
                    ctx.task().spawn(|_| std::thread::sleep(Duration::from_millis(5)));
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
        assert_eq!(overdue.wait_result().unwrap_err().kind(), "deadline-exceeded");
        assert_eq!(clean.wait_result().unwrap(), Some(32), "isolation: the clean job is whole");
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
        let outcome = handle.wait_timeout(Duration::from_secs(60)).expect("job finishes");
        assert_eq!(outcome.unwrap(), Some(7));
    }

    #[test]
    fn stall_watchdog_flags_a_blocked_job_and_recovers() {
        let rt = Runtime::new(
            RuntimeConfig::new().workers(2).stall_watchdog(Duration::from_millis(5), 2),
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
}
