//! Runtime observation hooks.
//!
//! Observers receive task lifecycle events and the declared data footprint of every executed
//! task. The `weakdep-trace` crate (timelines, effective parallelism) and the `weakdep-cachesim`
//! crate (L2 miss-ratio model) are both implemented as observers, keeping the core runtime free
//! of measurement concerns.

use std::time::Instant;

use weakdep_regions::Region;

use crate::access::NormalizedDep;
use crate::engine::TaskId;

/// One entry of a task's declared data footprint (a normalised dependency declaration).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FootprintEntry {
    /// The declared region.
    pub region: Region,
    /// Whether the declaration allows writing.
    pub write: bool,
    /// Whether the declaration is weak (the task does not touch the data itself).
    pub weak: bool,
}

/// The engine links a task record's dependencies straight from its footprint.
impl From<FootprintEntry> for NormalizedDep {
    fn from(entry: FootprintEntry) -> Self {
        NormalizedDep {
            region: entry.region,
            is_write: entry.write,
            weak: entry.weak,
        }
    }
}

/// The runtime normalises a task's dependencies straight into its footprint.
impl From<NormalizedDep> for FootprintEntry {
    fn from(dep: NormalizedDep) -> Self {
        FootprintEntry {
            region: dep.region,
            write: dep.is_write,
            weak: dep.weak,
        }
    }
}

/// Information about a task at creation time.
#[derive(Clone, Debug)]
pub struct TaskInfo<'a> {
    /// The task's identifier.
    pub id: TaskId,
    /// The task's label (for traces and timelines).
    pub label: &'static str,
    /// The parent task, if any (`None` only for root tasks).
    pub parent: Option<TaskId>,
    /// The declared footprint.
    pub footprint: &'a [FootprintEntry],
}

/// Information about one task execution.
#[derive(Clone, Debug)]
pub struct TaskExecution<'a> {
    /// The task's identifier.
    pub id: TaskId,
    /// The task's label.
    pub label: &'static str,
    /// Index of the worker that executed the task.
    pub worker: usize,
    /// When the body started.
    pub start: Instant,
    /// When the body finished.
    pub end: Instant,
    /// The declared footprint (weak entries correspond to data touched only by subtasks).
    pub footprint: &'a [FootprintEntry],
}

/// Observer of runtime events. All methods have empty default implementations.
pub trait RuntimeObserver: Send + Sync {
    /// The runtime has started with the given number of workers.
    fn runtime_started(&self, _workers: usize) {}
    /// A task has been created (from its parent's body).
    fn task_created(&self, _info: &TaskInfo<'_>) {}
    /// A task body has finished executing on a worker.
    fn task_executed(&self, _execution: &TaskExecution<'_>) {}
    /// The runtime is shutting down.
    fn runtime_shutdown(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    struct NopObserver;
    impl RuntimeObserver for NopObserver {}

    #[test]
    fn default_methods_are_callable() {
        let obs = NopObserver;
        obs.runtime_started(4);
        obs.runtime_shutdown();
        let info = TaskInfo {
            id: TaskId::synthetic(1),
            label: "t",
            parent: Some(TaskId::synthetic(0)),
            footprint: &[],
        };
        obs.task_created(&info);
        let exec = TaskExecution {
            id: TaskId::synthetic(1),
            label: "t",
            worker: 0,
            start: Instant::now(),
            end: Instant::now(),
            footprint: &[],
        };
        obs.task_executed(&exec);
    }
}
