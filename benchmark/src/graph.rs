//! The mirror of a workload's task graph that the layer probes replay: parent, dependencies and
//! wait mode of every task, in creation order.
//!
//! The mirror is recorded from one real repetition through [`RuntimeObserver::task_created`],
//! which reports everything but the wait mode and the `spawn_batch` wave a task was registered
//! in; [`label_info`] supplies both from the task's label. The recording is checked against the
//! engine's own counters of the same repetition ([`TaskGraph::matches`]).

use std::collections::HashMap;
use std::sync::Mutex;

use weakdep_core::{AccessType, Depend, EngineStats, RuntimeObserver, TaskId, TaskInfo, WaitMode};

/// How the tasks of one label are spawned by the workloads of this benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LabelInfo {
    pub wait: WaitMode,
    /// Largest `spawn_batch` wave the label is registered in; 1 for an unbatched `spawn`.
    pub wave: usize,
}

/// The spawn pattern behind every label the six workloads use. Panics on a label it does not
/// know, so a workload change cannot silently skew the probes.
pub fn label_info(label: &str) -> LabelInfo {
    use WaitMode::{None as NoWait, WeakWait};
    let (wait, wave) = match label {
        // axpy, gauss_seidel: one weakwait outer task per call / iteration, one wave inside.
        "axpy-outer" | "gs-iteration" => (WeakWait, 1),
        "axpy-block" | "gs-tile" => (NoWait, usize::MAX),
        // sort_scan: recursive weakwait tasks, leaves spawned one by one, scans in waves.
        "quick_sort" | "prefix_sum_root" | "prefix_sum_rec" => (WeakWait, 1),
        "insertion_sort" => (NoWait, 1),
        "prefix_sum" | "accumulation" => (NoWait, usize::MAX),
        // spawn_storm.
        "storm-spawner" | "storm-nodeps" => (NoWait, 1),
        "storm-exact" | "storm-fragmented" => (NoWait, crate::workloads::STORM_WAVE),
        "storm-nest" => (WeakWait, 1),
        "storm-child" => (NoWait, usize::MAX),
        // service_mix.
        "mix-chain" | "mix-fanout" | "mix-inner" | "mix-loop" => (NoWait, 1),
        "mix-outer" => (WeakWait, 1),
        "mix-batch" => (NoWait, usize::MAX),
        other => panic!("label `{other}` is not in the benchmark's spawn-pattern table"),
    };
    LabelInfo { wait, wave }
}

/// One task of the mirror.
#[derive(Clone, Debug)]
pub struct GraphTask {
    /// Index of the parent in [`TaskGraph::tasks`], or `Err(root)` with an index into the
    /// graph's roots when the parent is a job's root.
    pub parent: Result<usize, usize>,
    pub label: &'static str,
    pub deps: Vec<Depend>,
    pub info: LabelInfo,
}

/// The recorded graph of one repetition.
#[derive(Clone, Debug, Default)]
pub struct TaskGraph {
    /// Job roots (they are registered in the engine but no task creates them).
    pub roots: usize,
    /// Non-root tasks in creation order: a parent always precedes its children.
    pub tasks: Vec<GraphTask>,
}

impl TaskGraph {
    pub fn accesses(&self) -> usize {
        self.tasks.iter().map(|t| t.deps.len()).sum()
    }

    /// The waves the graph was registered in: maximal runs of consecutive tasks with the same
    /// parent and label, cut at the label's wave size. An unbatched `spawn` is a wave of one.
    pub fn waves(&self) -> Vec<std::ops::Range<usize>> {
        let mut waves = Vec::new();
        let mut start = 0;
        for i in 1..=self.tasks.len() {
            let first = &self.tasks[start];
            let cut = i == self.tasks.len()
                || self.tasks[i].parent != first.parent
                || self.tasks[i].label != first.label
                || i - start >= first.info.wave;
            if cut {
                waves.push(start..i);
                start = i;
            }
        }
        waves
    }

    /// Whether the mirror holds exactly what the engine registered between the two snapshots
    /// taken around the recorded repetition.
    pub fn matches(&self, before: &EngineStats, after: &EngineStats) -> bool {
        self.roots == after.roots_registered - before.roots_registered
            && self.roots + self.tasks.len() == after.tasks_registered - before.tasks_registered
            && self.accesses() == after.accesses_registered - before.accesses_registered
    }
}

/// What [`GraphRecorder`] keeps per created task.
struct Created {
    id: TaskId,
    parent: TaskId,
    label: &'static str,
    deps: Vec<Depend>,
}

/// Observer that records every `task_created`, in order.
#[derive(Default)]
pub struct GraphRecorder {
    created: Mutex<Vec<Created>>,
}

impl RuntimeObserver for GraphRecorder {
    fn task_created(&self, info: &TaskInfo<'_>) {
        let deps = info
            .footprint
            .iter()
            .map(|entry| {
                let access = match (entry.write, entry.weak) {
                    (false, false) => AccessType::In,
                    (true, false) => AccessType::InOut,
                    (false, true) => AccessType::WeakIn,
                    (true, true) => AccessType::WeakInOut,
                };
                Depend::new(access, entry.region)
            })
            .collect();
        let parent = info
            .parent
            .expect("only roots have no parent, and no task creates a root");
        let created = Created {
            id: info.id,
            parent,
            label: info.label,
            deps,
        };
        self.created
            .lock()
            .expect("no observer call panics")
            .push(created);
    }
}

impl GraphRecorder {
    /// Removes the recording and returns it as a graph.
    pub fn take_graph(&self) -> TaskGraph {
        let created = std::mem::take(&mut *self.created.lock().expect("no observer call panics"));
        let mut graph = TaskGraph::default();
        let mut index_of: HashMap<TaskId, Result<usize, usize>> = HashMap::new();
        for task in created {
            // A parent no task created is a job's root.
            let parent = *index_of.entry(task.parent).or_insert_with(|| {
                graph.roots += 1;
                Err(graph.roots - 1)
            });
            index_of.insert(task.id, Ok(graph.tasks.len()));
            graph.tasks.push(GraphTask {
                parent,
                label: task.label,
                deps: task.deps,
                info: label_info(task.label),
            });
        }
        graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(parent: Result<usize, usize>, label: &'static str) -> GraphTask {
        GraphTask {
            parent,
            label,
            deps: Vec::new(),
            info: label_info(label),
        }
    }

    #[test]
    fn waves_cut_at_parent_label_and_wave_size() {
        let mut tasks = vec![task(Err(0), "storm-spawner")];
        tasks.extend((0..1200).map(|_| task(Ok(0), "storm-exact")));
        tasks.extend((0..3).map(|_| task(Ok(0), "storm-nodeps")));
        tasks.extend((0..4).map(|_| task(Err(1), "mix-batch")));
        let graph = TaskGraph { roots: 2, tasks };
        let sizes: Vec<usize> = graph.waves().into_iter().map(|w| w.len()).collect();
        assert_eq!(sizes, vec![1, 500, 500, 200, 1, 1, 1, 4]);
    }
}
