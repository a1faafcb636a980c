//! The job layer of the multi-tenant runtime: per-job state, completion gate, stats slice,
//! the typed failure model and the [`JobHandle`] returned by [`Runtime::submit`].
//!
//! A *job* is one root task graph submitted to the shared engine + pool. Each job owns:
//!
//! * its root domain in the dependency engine (an independent tree — no edge ever crosses
//!   jobs, which is what makes per-job completion and cancellation sound),
//! * a [`CompletionGate`] for the waits of non-worker threads (root completion, cancel, a
//!   `taskwait` in the inline root) — workers in `taskwait` stay in the pool's idle loop,
//! * a stats slice (registered / deeply-completed / executed / skipped counters),
//! * the abort flag + running-body count that implement `cancel()`, fail-fast panic
//!   containment and deadline enforcement, and the job's first [`JobFailure`].
//!
//! ## The failure model
//!
//! A job ends in exactly one of four states, surfaced by [`JobHandle::wait_result`]:
//!
//! * **Ok(Some(value))** — the root body ran to completion.
//! * **Err([`JobError::Panicked`])** — a task body panicked. The *first* panic wins; its
//!   original payload is preserved so the panicking shims (`wait`/`try_wait`/`Runtime::run`)
//!   can `resume_unwind` it unchanged. Under [`PanicPolicy::FailFast`] (the default) the first
//!   panic also aborts the job: remaining un-started bodies are skipped through the
//!   cancellation bracket and the graph drains instead of burning pool time.
//! * **Err([`JobError::Cancelled`])** — [`JobHandle::cancel`] was called.
//! * **Err([`JobError::DeadlineExceeded`])** — the watchdog aborted the job past its
//!   [`JobOptions::deadline`](crate::JobOptions::deadline).
//!
//! Aborting (for any of the three reasons) is a *no-new-bodies* guarantee, never an
//! interrupt: in-flight bodies run to completion, skipped tasks still retire through the
//! engine, every region is released, and the root still completes — so a failed job's
//! `wait_result()` always returns (see `docs/robustness.md`).
//!
//! ## Cancellation protocol
//!
//! Workers bracket every task body with `running += 1; if !aborted { body() }; running -= 1`
//! (all `SeqCst`). [`JobState::cancel`] stores `abort = true` (`SeqCst`) and then waits for
//! `running == 0`. By the `SeqCst` total order, a worker whose `abort` load saw `false`
//! performed its `running` increment before the canceller's store — so the canceller's
//! subsequent `running` read observes it and waits the body out. Hence **no task body of a
//! cancelled job can start after `cancel()` returns**. The fail-fast and deadline paths set
//! the same flag but do *not* wait (a panicking worker still counts itself in `running`, and
//! the watchdog must never block on a tenant's body), so they guarantee skip-from-now-on
//! rather than returned-bodies.
//!
//! [`Runtime::submit`]: crate::Runtime::submit

use crate::completion::CompletionGate;
use crate::engine::TaskId;
use parking_lot::Mutex;
use std::any::Any;
use std::fmt;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;
use std::time::Instant;
use weakdep_threadpool::AdmissionGate;

/// What to do with a job's remaining tasks after one of its bodies panics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PanicPolicy {
    /// The default: the first panic marks the job failed and aborts it — un-started sibling
    /// bodies are skipped through the cancellation bracket, so the graph drains instead of
    /// executing work whose result will be discarded.
    #[default]
    FailFast,
    /// Pre-failure-model behaviour: remaining bodies keep executing; the first panic is still
    /// recorded and reported by `wait_result()`/`wait()` once the job finishes.
    RunToCompletion,
}

/// Per-job submission options for [`Runtime::submit_with`]: deadline, panic policy and a
/// diagnostic label. [`Runtime::submit`] uses the defaults (no deadline, fail-fast).
///
/// [`Runtime::submit_with`]: crate::Runtime::submit_with
/// [`Runtime::submit`]: crate::Runtime::submit
#[derive(Clone, Debug, Default)]
pub struct JobOptions {
    pub(crate) deadline: Option<std::time::Duration>,
    pub(crate) panic_policy: PanicPolicy,
    pub(crate) label: Option<String>,
}

impl JobOptions {
    /// Default options: no deadline, [`PanicPolicy::FailFast`], no label.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bounds the job's wall-clock runtime, measured from submission. The watchdog aborts an
    /// overdue job (skipping its un-started bodies, like `cancel()`) and its
    /// `wait_result()` reports [`JobError::DeadlineExceeded`]. The abort applies even under
    /// [`PanicPolicy::RunToCompletion`] — a deadline bounds the job unconditionally.
    pub fn deadline(mut self, deadline: std::time::Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// What to do with the job's remaining tasks after one of its bodies panics.
    pub fn panic_policy(mut self, policy: PanicPolicy) -> Self {
        self.panic_policy = policy;
        self
    }

    /// Attaches a diagnostic label, surfaced in the watchdog's stall reports.
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }
}

/// Why a job did not produce a value. Returned by [`JobHandle::wait_result`].
pub enum JobError {
    /// A task body panicked. `payload` is the original panic payload (so callers — and the
    /// panicking shims — can `resume_unwind` it); `message` is its best-effort rendering.
    Panicked {
        /// Best-effort string rendering of the payload (`&str`/`String` payloads; a
        /// placeholder otherwise).
        message: String,
        /// The original payload of the *first* panic observed in the job.
        payload: Box<dyn Any + Send>,
    },
    /// [`JobHandle::cancel`] was called before the job finished.
    Cancelled,
    /// The job ran past its [`JobOptions::deadline`](crate::JobOptions::deadline) and was
    /// aborted by the watchdog.
    DeadlineExceeded,
}

impl JobError {
    /// Short machine-readable tag (`panicked` / `cancelled` / `deadline-exceeded`), used by
    /// the chaos harness and tests to match injected faults against reported errors.
    pub fn kind(&self) -> &'static str {
        match self {
            JobError::Panicked { .. } => "panicked",
            JobError::Cancelled => "cancelled",
            JobError::DeadlineExceeded => "deadline-exceeded",
        }
    }
}

impl fmt::Debug for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Panicked { message, .. } => {
                f.debug_struct("Panicked").field("message", message).finish_non_exhaustive()
            }
            JobError::Cancelled => f.write_str("Cancelled"),
            JobError::DeadlineExceeded => f.write_str("DeadlineExceeded"),
        }
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Panicked { message, .. } => write!(f, "a task panicked: {message}"),
            JobError::Cancelled => f.write_str("the job was cancelled"),
            JobError::DeadlineExceeded => f.write_str("the job exceeded its deadline"),
        }
    }
}

impl std::error::Error for JobError {}

/// The job's first recorded failure (panics keep their original payload). Explicit
/// cancellation is *not* a failure — it is tracked by its own flag so a cancelled job's
/// legacy `wait()` can still hand back an already-produced root value.
pub(crate) enum JobFailure {
    Panicked { message: String, payload: Box<dyn Any + Send> },
    DeadlineExceeded,
}

/// Shared per-job state. One per submitted job, reference-counted from the job's every
/// [`TaskRecord`](crate::runtime) (an `Arc` clone per task — no allocation on the spawn path).
pub(crate) struct JobState {
    /// Service-unique job id (also the sentinel shadow-table qualifier and the fair-share
    /// tenant key).
    pub(crate) id: u64,
    /// The job's root task in the engine.
    pub(crate) root: TaskId,
    /// Per-job completion gate: root-completion, cancel and non-worker `taskwait` waits.
    pub(crate) gate: CompletionGate,
    /// The no-new-bodies flag: workers check it (`SeqCst`) right after bumping `running` and
    /// skip the task body when set. Set by `cancel()`, by the first panic under
    /// [`PanicPolicy::FailFast`], and by the watchdog on deadline expiry.
    pub(crate) abort: AtomicBool,
    /// Set only by `cancel()` — drives [`JobError::Cancelled`] and the `jobs_cancelled`
    /// service counter (failed jobs abort through the same bracket but are not "cancelled").
    pub(crate) explicit_cancel: AtomicBool,
    /// Set once the first failure is recorded; never cleared (unlike `failure`, which
    /// `take_error` consumes), so stats stay truthful after the error is delivered.
    pub(crate) failed: AtomicBool,
    /// Number of task bodies of this job currently executing. See the module docs for the
    /// ordering argument that makes `cancel()`'s wait on this sound.
    pub(crate) running: AtomicUsize,
    /// Tasks registered under this job's root (including the root itself). The pre-increment
    /// value doubles as the task's fault-injection ordinal under `--features faults`.
    pub(crate) registered: AtomicUsize,
    /// Tasks of this job deeply completed (self + all descendants done).
    pub(crate) deeply_completed: AtomicUsize,
    /// Task bodies of this job actually run (skipped bodies are not counted).
    pub(crate) executed: AtomicUsize,
    /// Task bodies skipped by the abort bracket (cancel / fail-fast / deadline). At the end
    /// of every job, `executed + skipped` equals the number of dispatched bodies.
    pub(crate) skipped: AtomicUsize,
    /// Loop chunks of this job's `for_each`/`scan` descriptors executed by *assisting*
    /// workers (the owning task's own chunks are not counted — they ride `executed`'s body).
    /// Folded in by the owner after quiescence, so a finished job's value is final.
    pub(crate) assist_chunks: AtomicUsize,
    /// Flipped exactly once, when the root deeply completes; the predicate behind
    /// `JobHandle::wait`.
    pub(crate) finished: AtomicBool,
    /// First failure of the job (first panic wins; a deadline never displaces a panic).
    pub(crate) failure: Mutex<Option<JobFailure>>,
    /// What to do with remaining bodies after a panic.
    pub(crate) panic_policy: PanicPolicy,
    /// Absolute deadline (from `JobOptions::deadline`), enforced by the watchdog.
    pub(crate) deadline: Option<Instant>,
    /// Diagnostic label (stall reports, chaos output).
    pub(crate) label: Option<String>,
    /// The service's admission gate, re-signalled whenever this job aborts so a submitter
    /// blocked on the live-task budget re-probes against the draining load.
    pub(crate) admission: Arc<AdmissionGate>,
}

impl JobState {
    pub(crate) fn new(
        id: u64,
        root: TaskId,
        admission: Arc<AdmissionGate>,
        panic_policy: PanicPolicy,
        deadline: Option<Instant>,
        label: Option<String>,
    ) -> Self {
        JobState {
            id,
            root,
            gate: CompletionGate::new(),
            abort: AtomicBool::new(false),
            explicit_cancel: AtomicBool::new(false),
            failed: AtomicBool::new(false),
            running: AtomicUsize::new(0),
            registered: AtomicUsize::new(0),
            deeply_completed: AtomicUsize::new(0),
            executed: AtomicUsize::new(0),
            skipped: AtomicUsize::new(0),
            assist_chunks: AtomicUsize::new(0),
            finished: AtomicBool::new(false),
            failure: Mutex::new(None),
            panic_policy,
            deadline,
            label,
            admission,
        }
    }

    /// Whether the abort bracket is set (cancel, fail-fast or deadline): no new body of this
    /// job may start.
    pub(crate) fn is_aborted(&self) -> bool {
        self.abort.load(SeqCst)
    }

    pub(crate) fn is_explicitly_cancelled(&self) -> bool {
        self.explicit_cancel.load(SeqCst)
    }

    pub(crate) fn is_failed(&self) -> bool {
        self.failed.load(SeqCst)
    }

    pub(crate) fn is_finished(&self) -> bool {
        self.finished.load(SeqCst)
    }

    /// Requests cancellation and blocks until every in-flight task body of this job has
    /// returned. After this returns, no task body of the job will ever start (see the module
    /// docs); queued tasks drain through the engine with their bodies skipped. The admission
    /// gate is re-signalled so a submitter blocked on the live-task budget re-probes against
    /// the now-draining load.
    pub(crate) fn cancel(&self) {
        self.explicit_cancel.store(true, SeqCst);
        self.abort.store(true, SeqCst);
        self.gate.wait_until(|| self.running.load(SeqCst) == 0);
        self.admission.notify_release();
    }

    /// Records a task-body panic (first failure wins, matching single-job behaviour) and,
    /// under [`PanicPolicy::FailFast`], aborts the job. Never waits: the recording worker's
    /// own body is still counted in `running`, so a cancel-style wait here would deadlock.
    pub(crate) fn record_panic(&self, payload: Box<dyn Any + Send>, message: String) {
        {
            let mut slot = self.failure.lock();
            if slot.is_none() {
                *slot = Some(JobFailure::Panicked { message, payload });
            }
        }
        self.failed.store(true, SeqCst);
        if self.panic_policy == PanicPolicy::FailFast {
            self.abort.store(true, SeqCst);
            self.admission.notify_release();
        }
    }

    /// Marks the job as past its deadline and aborts it (watchdog path). A panic recorded
    /// first keeps priority as the reported error; the abort applies regardless, because a
    /// deadline bounds even a `RunToCompletion` job. Never waits (the watchdog must not block
    /// on a tenant's in-flight body).
    pub(crate) fn fail_deadline(&self) {
        {
            let mut slot = self.failure.lock();
            if slot.is_none() {
                *slot = Some(JobFailure::DeadlineExceeded);
            }
        }
        self.failed.store(true, SeqCst);
        self.abort.store(true, SeqCst);
        self.admission.notify_release();
    }

    /// Consumes the job's error, if any: the recorded failure first (panic payload included,
    /// which is why this takes rather than clones), else explicit cancellation. Called once
    /// the job is finished; subsequent calls see the cancel flag only.
    pub(crate) fn take_error(&self) -> Option<JobError> {
        if let Some(failure) = self.failure.lock().take() {
            return Some(match failure {
                JobFailure::Panicked { message, payload } => {
                    JobError::Panicked { message, payload }
                }
                JobFailure::DeadlineExceeded => JobError::DeadlineExceeded,
            });
        }
        if self.is_explicitly_cancelled() {
            return Some(JobError::Cancelled);
        }
        None
    }

    pub(crate) fn stats(&self) -> JobStats {
        JobStats {
            job_id: self.id,
            tasks_registered: self.registered.load(SeqCst),
            tasks_deeply_completed: self.deeply_completed.load(SeqCst),
            tasks_executed: self.executed.load(SeqCst),
            tasks_skipped: self.skipped.load(SeqCst),
            assist_chunks: self.assist_chunks.load(SeqCst),
            cancelled: self.is_explicitly_cancelled(),
            failed: self.is_failed(),
            finished: self.is_finished(),
        }
    }
}

/// Snapshot of one job's stats slice (the per-job view; [`RuntimeStats`] is the aggregate).
///
/// [`RuntimeStats`]: crate::RuntimeStats
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JobStats {
    /// Service-unique id of the job.
    pub job_id: u64,
    /// Tasks registered under this job's root, including the root itself.
    pub tasks_registered: usize,
    /// Tasks of this job deeply completed. Equals `tasks_registered` once the job finishes.
    pub tasks_deeply_completed: usize,
    /// Task bodies actually run (skipped bodies are not counted).
    pub tasks_executed: usize,
    /// Task bodies skipped by the abort bracket (cancel / fail-fast panic / deadline).
    pub tasks_skipped: usize,
    /// Loop chunks of this job's parallel loops executed by assisting workers (tenant
    /// attribution of the work-assisting mechanism; the owner's own chunks are not counted).
    pub assist_chunks: usize,
    /// Whether `cancel()` has been requested.
    pub cancelled: bool,
    /// Whether a failure (panic or deadline) has been recorded.
    pub failed: bool,
    /// Whether the root has deeply completed (i.e. `wait()` would return immediately).
    pub finished: bool,
}

/// Handle to a submitted job. Obtained from [`Runtime::submit`]; the job keeps running if the
/// handle is dropped (detached), but dropping the *runtime* cancels and drains every live job.
///
/// [`Runtime::submit`]: crate::Runtime::submit
pub struct JobHandle<R> {
    pub(crate) job: Arc<JobState>,
    pub(crate) result: Arc<Mutex<Option<R>>>,
}

impl<R> JobHandle<R> {
    /// The service-unique id of this job.
    pub fn id(&self) -> u64 {
        self.job.id
    }

    /// Blocks until the job finishes and reports its outcome: `Ok(Some(value))` from the root
    /// body, `Ok(None)` if the root body returned no value, or the job's [`JobError`]. This
    /// is the primary wait API; [`JobHandle::wait`] is the panicking shim over it.
    ///
    /// The error (panic payload included) is delivered exactly once — it is *taken*, not
    /// cloned.
    pub fn wait_result(self) -> Result<Option<R>, JobError> {
        self.job.gate.wait_until(|| self.job.is_finished());
        self.resolve_finished()
    }

    /// Non-blocking [`JobHandle::wait_result`]: `None` while the job is still running,
    /// `Some(outcome)` once it has finished. Like `wait_result`, the value and the error are
    /// each delivered at most once (a repeated poll sees `Ok(None)` / `Err(Cancelled)`).
    pub fn try_wait_result(&self) -> Option<Result<Option<R>, JobError>> {
        if !self.job.is_finished() {
            return None;
        }
        Some(self.resolve_finished())
    }

    /// [`JobHandle::wait_result`] bounded by a wall-clock timeout: `None` if the job is still
    /// running when `timeout` elapses (the job keeps running — this does not cancel).
    ///
    /// Not available under the `loom-model` feature (the model-checked condvar shim has no
    /// timed wait).
    #[cfg(not(feature = "loom-model"))]
    pub fn wait_timeout(&self, timeout: std::time::Duration) -> Option<Result<Option<R>, JobError>> {
        let deadline = Instant::now() + timeout;
        if !self.job.gate.wait_until_timeout(|| self.job.is_finished(), deadline) {
            return None;
        }
        Some(self.resolve_finished())
    }

    /// Blocks until the job's root deeply completes and returns the root body's value, or
    /// `None` if the job was cancelled before the root body ran to completion.
    ///
    /// This is a thin panicking shim over [`JobHandle::wait_result`].
    ///
    /// # Panics
    ///
    /// Re-raises the first panic from any of the job's task bodies by resuming the *original*
    /// payload (like `Runtime::run`), and panics if the job was aborted past its deadline.
    pub fn wait(self) -> Option<R> {
        self.job.gate.wait_until(|| self.job.is_finished());
        let outcome = self.resolve_finished();
        self.raise_or_value(outcome)
    }

    /// Non-blocking poll: `None` while the job is still running; `Some(result)` once it has
    /// finished, where `result` follows [`JobHandle::wait`]'s contract (and is `None` on a
    /// repeated poll, since the value is taken out the first time).
    ///
    /// # Panics
    ///
    /// Re-raises the first panic from any of the job's task bodies (original payload), and
    /// panics if the job was aborted past its deadline.
    pub fn try_wait(&self) -> Option<Option<R>> {
        let outcome = self.try_wait_result()?;
        Some(self.raise_or_value(outcome))
    }

    /// The shared tail of the wait APIs: error first (taken out exactly once), else the
    /// root-body value.
    fn resolve_finished(&self) -> Result<Option<R>, JobError> {
        match self.job.take_error() {
            Some(error) => Err(error),
            None => Ok(self.result.lock().take()),
        }
    }

    /// The single re-raise point of the panicking shims: panics resume their original
    /// payload, deadlines panic with a message, and cancellation keeps the legacy contract —
    /// return whatever the root body produced before the cancel landed (usually `None`).
    fn raise_or_value(&self, outcome: Result<Option<R>, JobError>) -> Option<R> {
        match outcome {
            Ok(value) => value,
            Err(JobError::Cancelled) => self.result.lock().take(),
            Err(JobError::Panicked { payload, .. }) => resume_unwind(payload),
            Err(error @ JobError::DeadlineExceeded) => panic!("{error}"),
        }
    }

    /// Requests cancellation and blocks until every in-flight task body of this job has
    /// returned. Once this returns, **no task body of this job will ever start**: tasks not
    /// yet begun drain through the engine with their bodies skipped (so held regions are
    /// released and the root still completes — `wait()` after `cancel()` does not hang, it
    /// returns `None` unless the root body had already finished, and `wait_result()` reports
    /// [`JobError::Cancelled`]).
    pub fn cancel(&self) {
        self.job.cancel();
    }

    /// Snapshot of this job's stats slice.
    pub fn stats(&self) -> JobStats {
        self.job.stats()
    }
}
