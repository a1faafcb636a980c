//! The completion gate: what a thread that is **not** a pool worker blocks on — the root wait
//! of [`Runtime::run`] and `JobHandle::wait*`, `cancel()`'s wait for in-flight bodies, and a
//! [`TaskCtx::taskwait`] called from the inline root body. One gate per job.
//!
//! The gate is the pool's generic waiter-gated predicate gate
//! ([`weakdep_threadpool::sleep::Gate`], the same type the admission gate blocks on): waiters
//! register before re-checking their predicate under its mutex, notifiers notify under that
//! mutex only when a waiter is registered. Under the `loom-model` feature its primitives are
//! loom-lite shims, and `tests/loom_completion.rs` / `tests/loom_cancel.rs` explore every
//! bounded interleaving of exactly that code against this crate's predicates.
//!
//! A *worker* in `taskwait` does not use the gate: it stays in the pool's idle loop
//! (`WorkerContext::work_until`) with "my children drained" as exit predicate, so it keeps
//! executing tasks, assists published loops, and sleeps — recruitable by any job's dispatch —
//! in the pool's one sleeper population (`docs/locking.md`, "Wake-up discipline").
//!
//! [`Runtime::run`]: crate::Runtime::run
//! [`TaskCtx::taskwait`]: crate::TaskCtx::taskwait

pub use weakdep_threadpool::sleep::Gate as CompletionGate;
