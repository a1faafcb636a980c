//! The evaluation workloads of the paper, in every variant the paper evaluates.
//!
//! | Benchmark | Paper section | Variants | Module |
//! |---|---|---|---|
//! | Multiple AXPY (20 calls over the same vectors) | §VIII-A, Table I, Fig. 3–4 | `nest-weak-release`, `nest-weak`, `nest-depend`, `flat-depend`, `flat-taskwait` | [`axpy`] |
//! | Gauss-Seidel heat propagation (2-D stencil) | §VIII-B, Fig. 5–6 | `nest-weak`, `nest-weak-release`, `flat-depend`, `nest-depend` | [`gauss_seidel`] |
//! | Quicksort followed by prefix sum | §VIII-C, Fig. 7 | `weak` (weakwait + weak deps), `strong` (taskwait + regular deps) | [`sort_scan`] |
//! | Work-assisting loops (prefix scan, reduction, axpy-assist) | ISSUE 10 extension | `assist` (atomic-chunk loops), `tasks` (spawned blocks), sequential oracle | [`parallel_loops`] |
//!
//! Every module provides:
//! * a runner that executes the kernel on a [`weakdep_core::Runtime`] and returns a
//!   [`KernelRun`] with timing and operation counts,
//! * a sequential reference implementation, and
//! * verification helpers used by the test suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod axpy;
pub mod gauss_seidel;
pub mod parallel_loops;
pub mod sort_scan;

use std::time::Duration;

/// Timing and volume of one kernel execution.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelRun {
    /// Wall-clock time of the parallel section.
    pub elapsed: Duration,
    /// Floating-point (or element) operations performed.
    pub operations: f64,
    /// Number of runtime tasks the kernel instantiated (outer + inner).
    pub tasks: usize,
}

impl KernelRun {
    /// Throughput in giga-operations per second (GFlop/s for the floating-point kernels).
    pub fn gops(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.operations / self.elapsed.as_secs_f64() / 1e9
        }
    }
}

/// Test harness shared by the kernels' wave-equivalence tests.
#[cfg(test)]
mod test_support {
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use weakdep_core::{EngineStats, Region, Runtime, RuntimeConfig, SchedulingPolicy, TaskCtx};

    /// Runs `spawn` as the root body of a job on a fresh two-worker runtime under `policy`,
    /// with the job's whole graph registered before any task that accesses `whole` can run:
    /// the root's first child writes `whole` and holds it until the engine has registered
    /// `tasks` tasks, the root and the holder included (`0`: no hold). Only tasks with weak
    /// accesses alone, which spawn the waves, run meanwhile, on the other worker. So the
    /// registration cannot depend on timing. Returns the engine's counters after the job.
    pub(crate) fn held_run(
        policy: SchedulingPolicy,
        whole: Region,
        tasks: usize,
        spawn: impl FnOnce(&TaskCtx<'_>),
    ) -> EngineStats {
        let rt = Arc::new(Runtime::new(
            RuntimeConfig::new().workers(2).scheduling_policy(policy),
        ));
        let holder_rt = Arc::clone(&rt);
        rt.run(move |root| {
            root.task().inout(whole).label("holder").spawn(move |_| {
                // A wrong count must fail the caller's comparison, not hang the test.
                let deadline = Instant::now() + Duration::from_secs(30);
                while holder_rt.stats().engine.tasks_registered < tasks && Instant::now() < deadline
                {
                    std::thread::yield_now();
                }
            });
            spawn(root);
        });
        rt.stats().engine
    }

    /// The counters that registration alone sets: what graph the engine was given.
    pub(crate) fn registered_graph(stats: &EngineStats) -> [usize; 9] {
        [
            stats.tasks_registered,
            stats.accesses_registered,
            stats.release_edges,
            stats.satisfaction_edges,
            stats.ready_at_registration,
            stats.exact_hits,
            stats.promotions,
            stats.fragmented_updates,
            stats.demotions,
        ]
    }
}
