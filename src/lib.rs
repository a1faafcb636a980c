//! `weakdep` — a Rust reproduction of *"Improving the Integration of Task Nesting and
//! Dependencies in OpenMP"* (Pérez, Beltran, Labarta, Ayguadé — IPDPS 2017).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`](weakdep_core) — the task runtime with weak dependencies, `wait`/`weakwait`,
//!   the `release` directive and fine-grained cross-domain dependency release (the paper's
//!   contribution);
//! * [`regions`](weakdep_regions) — region arithmetic with partial-overlap support (§VII);
//! * [`threadpool`](weakdep_threadpool) — the work-stealing worker pool with the
//!   immediate-successor locality slot (§VIII-A scheduling policy);
//! * [`trace`](weakdep_trace) — execution traces, effective parallelism and ASCII timelines
//!   (Figures 6 and 7);
//! * [`cachesim`](weakdep_cachesim) — the per-worker cache model standing in for the paper's
//!   L2 miss-ratio counters (Figure 3);
//! * [`kernels`](weakdep_kernels) — the paper's evaluation workloads in every variant
//!   (Table I, Figures 3–7).
//!
//! The most common entry points are re-exported at the top level, so a downstream user can
//! depend on `weakdep` alone:
//!
//! ```
//! use weakdep::{Runtime, RuntimeConfig, SharedSlice};
//!
//! let rt = Runtime::new(RuntimeConfig::new().workers(2));
//! let data = SharedSlice::<u64>::new(8);
//! let d = data.clone();
//! rt.run(move |ctx| {
//!     let d2 = d.clone();
//!     ctx.task()
//!         .inout(d.region(0..8))
//!         .label("fill")
//!         .spawn(move |t| {
//!             for (i, v) in d2.write(t, 0..8).iter_mut().enumerate() {
//!                 *v = i as u64;
//!             }
//!         });
//! });
//! assert_eq!(data.snapshot()[7], 7);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use weakdep_cachesim as cachesim;
pub use weakdep_core as core;
pub use weakdep_kernels as kernels;
pub use weakdep_regions as regions;
pub use weakdep_threadpool as threadpool;
pub use weakdep_trace as trace;

pub use weakdep_core::{
    AccessType, AdmissionStats, CapacityStats, Clauses, Depend, JobError, JobHandle, JobOptions,
    JobStats, LoopView, LoopViewMut, PanicPolicy, Region, Runtime, RuntimeConfig, RuntimeObserver,
    RuntimeStats, SchedulingPolicy, SharedSlice, SpaceId, StaleTaskId, TaskBuilder, TaskCtx,
    TaskId, TaskSpec, WaitMode,
};

#[cfg(feature = "faults")]
pub use weakdep_core::FaultPlan;
