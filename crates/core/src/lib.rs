//! `weakdep-core` — a task-parallel runtime that integrates task nesting with fine-grained task
//! dependencies, reproducing the OpenMP extensions of:
//!
//! > J. M. Pérez, V. Beltran, J. Labarta, E. Ayguadé.
//! > *Improving the integration of task nesting and dependencies in OpenMP.* IPDPS 2017.
//!
//! # What the runtime provides
//!
//! * **Tasks with data dependencies** over byte regions of [`SharedSlice`] buffers
//!   (`in`/`out`/`inout`), with support for **partially overlapping** regions (§VII).
//! * **Task nesting**: every task can spawn subtasks; each task owns a dependency domain for its
//!   children.
//! * **The `wait` clause** (§IV): a detached `taskwait` performed after the body returns.
//! * **The `weakwait` clause** (§V): fine-grained, per-fragment release of the task's
//!   dependencies as its children finish — the task's inner domain is merged into its parent's.
//! * **The `release` directive** (§V): early release of dependency subsets from inside a body.
//! * **Weak dependency types** `weakin`/`weakout`/`weakinout` (§VI): declarations that never
//!   defer the task itself but let subtask dependencies cross nesting levels, so the combination
//!   behaves as if all tasks shared a single dependency domain.
//! * A **locality-aware scheduler**: a released successor is dispatched to the worker that
//!   released it (§VIII-A), which is what the paper's cache-miss-ratio results measure.
//!
//! # Quick example
//!
//! ```
//! use weakdep_core::{Runtime, RuntimeConfig, SharedSlice};
//!
//! let rt = Runtime::new(RuntimeConfig::new().workers(4));
//! let x = SharedSlice::<f64>::filled(1024, 1.0);
//! let y = SharedSlice::<f64>::filled(1024, 2.0);
//! let (xr, yr) = (x.clone(), y.clone());
//! rt.run(move |ctx| {
//!     let n = xr.len();
//!     let block = 256;
//!     // Outer task: weak accesses + weakwait (it never touches the data itself).
//!     let (xo, yo) = (xr.clone(), yr.clone());
//!     ctx.task()
//!         .weak_input(xr.region(0..n))
//!         .weak_inout(yr.region(0..n))
//!         .weakwait()
//!         .label("axpy")
//!         .spawn(move |outer| {
//!             for start in (0..n).step_by(block) {
//!                 let end = (start + block).min(n);
//!                 let (xi, yi) = (xo.clone(), yo.clone());
//!                 outer
//!                     .task()
//!                     .input(xo.region(start..end))
//!                     .inout(yo.region(start..end))
//!                     .label("axpy-block")
//!                     .spawn(move |t| {
//!                         let xs = xi.read(t, start..end);
//!                         let ys = yi.write(t, start..end);
//!                         for (y, x) in ys.iter_mut().zip(xs) {
//!                             *y += 3.0 * *x;
//!                         }
//!                     });
//!             }
//!         });
//! });
//! assert!(y.snapshot().iter().all(|&v| (v - 5.0).abs() < 1e-12));
//! ```

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod access;
mod data;
mod engine;
#[cfg(feature = "faults")]
mod faults;
mod home_bin;
mod job;
mod observer;
mod runtime;

pub use access::{normalize_deps, AccessType, Depend, NormalizedDep, WaitMode};
pub use data::{LoopView, LoopViewMut, SharedSlice};
pub use engine::{DependencyEngine, Effects, EngineStats, StaleTaskId, TaskId};
#[cfg(feature = "faults")]
pub use faults::FaultPlan;
pub use job::{JobError, JobHandle, JobOptions, JobStats, PanicPolicy};
pub use observer::{FootprintEntry, RuntimeObserver, TaskExecution, TaskInfo};
pub use runtime::{
    CapacityStats, Clauses, Runtime, RuntimeConfig, RuntimeStats, TaskBuilder, TaskCtx, TaskSpec,
};

/// Re-export of the region types used in dependency declarations.
pub use weakdep_regions::{Region, SpaceId};

/// Re-export of the scheduling-policy selector consumed by
/// [`RuntimeConfig::scheduling_policy`].
pub use weakdep_threadpool::SchedulingPolicy;

/// Re-export of the admission-gate counters surfaced in [`RuntimeStats`].
pub use weakdep_threadpool::AdmissionStats;
