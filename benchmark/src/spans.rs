//! The benchmark's own tracing: a [`RuntimeObserver`] that records one span record per task, kept
//! in memory in per-worker buffers and written out when the run ends.
//!
//! Per task: `{job, task, parent, label, worker, created, start, end}`. The span tree is
//! `job` ⊃ `task.wait` (created → start) + `task.body` (start → end); spans of one job share
//! its identifier, and `parent` is the task whose body spawned this one.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

use weakdep_core::{RuntimeObserver, TaskExecution, TaskId, TaskInfo};

use crate::json::Json;

/// Task-table slots the creation table covers. The engine recycles task indices, so this bounds
/// the *live* tasks of a workload (≤ 50 k here), not the tasks of a run.
const CREATION_SLOTS: usize = 1 << 17;

/// Identity of a task: the engine's recycled index plus its generation.
pub type TaskKey = (u32, u32);

fn key(id: TaskId) -> TaskKey {
    (id.index() as u32, id.generation())
}

fn pack((index, generation): TaskKey) -> u64 {
    (index as u64) << 32 | generation as u64
}

fn unpack(packed: u64) -> TaskKey {
    ((packed >> 32) as u32, packed as u32)
}

/// What `task_created` leaves for `task_executed` to pick up.
#[derive(Default)]
struct CreationSlot {
    task: AtomicU64,
    parent: AtomicU64,
    created_ns: AtomicU64,
}

/// One executed task. Times are ns since the observer's origin.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    pub task: TaskKey,
    /// `None` for a job's root (only submitted roots are executed by the pool and seen here).
    pub parent: Option<TaskKey>,
    pub label: &'static str,
    pub worker: u32,
    /// `None` for submitted roots, which no task creates.
    pub created_ns: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct SpanObserver {
    origin: Instant,
    creation: Vec<CreationSlot>,
    /// One buffer per worker; each is only ever locked by its worker and, between
    /// repetitions, by the driver.
    buffers: Vec<Mutex<Vec<Span>>>,
}

impl SpanObserver {
    pub fn new(workers: usize) -> Self {
        SpanObserver {
            origin: Instant::now(),
            creation: (0..CREATION_SLOTS)
                .map(|_| CreationSlot::default())
                .collect(),
            buffers: (0..workers).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// ns since the origin of this observer's clock.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Removes and returns every span recorded so far. Call while the runtime is idle.
    pub fn drain(&self) -> Vec<Span> {
        let mut spans = Vec::new();
        for buffer in &self.buffers {
            spans.append(&mut buffer.lock().expect("no observer call panics"));
        }
        spans
    }
}

impl RuntimeObserver for SpanObserver {
    fn task_created(&self, info: &TaskInfo<'_>) {
        let Some(slot) = self.creation.get(info.id.index()) else {
            return;
        };
        // Relaxed: the runtime hands the task's record to a worker through its queues after
        // this call returns, and that hand-off orders these stores before `task_executed`'s
        // loads; the key in `task` guards against reading a recycled slot's older occupant.
        slot.created_ns.store(self.ns(Instant::now()), Relaxed);
        slot.parent
            .store(info.parent.map_or(u64::MAX, |p| pack(key(p))), Relaxed);
        slot.task.store(pack(key(info.id)), Relaxed);
    }

    fn task_executed(&self, execution: &TaskExecution<'_>) {
        let task = key(execution.id);
        let created = self
            .creation
            .get(execution.id.index())
            .filter(|slot| slot.task.load(Relaxed) == pack(task))
            .map(|slot| (slot.created_ns.load(Relaxed), slot.parent.load(Relaxed)));
        let span = Span {
            task,
            parent: created.and_then(|(_, parent)| (parent != u64::MAX).then(|| unpack(parent))),
            label: execution.label,
            worker: execution.worker as u32,
            created_ns: created.map(|(ns, _)| ns),
            start_ns: self.ns(execution.start),
            end_ns: self.ns(execution.end),
        };
        if let Some(buffer) = self.buffers.get(execution.worker) {
            buffer.lock().expect("no observer call panics").push(span);
        }
    }
}

/// Time the workers spent inside task bodies: per worker, the length of the union of its
/// spans. A body blocked in `taskwait` runs other tasks on the same worker meanwhile, so its
/// span contains theirs; the union counts that stretch once (each span's self time).
pub fn busy_ns(spans: &[Span]) -> u64 {
    let mut intervals: Vec<(u32, u64, u64)> = spans
        .iter()
        .map(|s| (s.worker, s.start_ns, s.end_ns))
        .collect();
    intervals.sort_unstable();
    let mut busy = 0;
    let mut covered_to = (u32::MAX, 0);
    for (worker, start, end) in intervals {
        if covered_to.0 != worker {
            covered_to = (worker, 0);
        }
        if end > covered_to.1 {
            busy += end - start.max(covered_to.1);
            covered_to.1 = end;
        }
    }
    busy
}

/// The job of every span: the root its `parent` chain leads to. A submitted root is executed
/// by the pool and has no parent; the root of a `Runtime::run` runs inline on the caller and
/// appears only as the parent of its children.
pub fn jobs_of(spans: &[Span]) -> Vec<TaskKey> {
    let parent_of: HashMap<TaskKey, Option<TaskKey>> =
        spans.iter().map(|s| (s.task, s.parent)).collect();
    spans
        .iter()
        .map(|span| {
            let mut at = span.task;
            while let Some(Some(parent)) = parent_of.get(&at) {
                at = *parent;
            }
            at
        })
        .collect()
}

fn key_json((index, generation): TaskKey) -> Json {
    Json::str(format!("{index}.{generation}"))
}

/// The span document of one repetition: a `job` record per job and one record per task.
pub fn document(workload: &str, spans: &[Span]) -> Json {
    let jobs = jobs_of(spans);
    let mut extent: HashMap<TaskKey, (u64, u64)> = HashMap::new();
    for (span, job) in spans.iter().zip(&jobs) {
        let begin = span.created_ns.unwrap_or(span.start_ns);
        let e = extent.entry(*job).or_insert((begin, span.end_ns));
        *e = (e.0.min(begin), e.1.max(span.end_ns));
    }
    let mut job_rows: Vec<(TaskKey, (u64, u64))> = extent.into_iter().collect();
    job_rows.sort_unstable();
    let us = |ns: u64| Json::Num(ns as f64 / 1e3);
    let job_records = job_rows.into_iter().map(|(job, (start, end))| {
        Json::obj([
            ("span", Json::str("job")),
            ("job", key_json(job)),
            ("start_us", us(start)),
            ("end_us", us(end)),
        ])
    });
    let task_records = spans.iter().zip(&jobs).map(|(s, job)| {
        Json::obj([
            ("span", Json::str("task")),
            ("job", key_json(*job)),
            ("task", key_json(s.task)),
            ("parent", s.parent.map_or(Json::str(""), key_json)),
            ("label", Json::str(s.label)),
            ("worker", Json::Int(s.worker as u64)),
            ("created_us", us(s.created_ns.unwrap_or(s.start_ns))),
            ("start_us", us(s.start_ns)),
            ("end_us", us(s.end_ns)),
        ])
    });
    Json::obj([
        ("workload", Json::str(workload)),
        ("scope", Json::str("last traced repetition")),
        (
            "spans",
            Json::str("job > task.wait (created_us..start_us) + task.body (start_us..end_us)"),
        ),
        (
            "records",
            Json::Arr(job_records.chain(task_records).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(worker: u32, task: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            task: (task, 0),
            parent: parent.map(|p| (p, 0)),
            label: "t",
            worker,
            created_ns: Some(start_ns),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn busy_time_counts_nested_spans_once() {
        // Worker 0: a root blocked in taskwait over [0, 100] that helped run [10, 30] and
        // [40, 50]; worker 1: two disjoint bodies.
        let spans = [
            span(0, 1, None, 0, 100),
            span(0, 2, Some(1), 10, 30),
            span(0, 3, Some(1), 40, 50),
            span(1, 4, Some(1), 5, 25),
            span(1, 5, Some(1), 60, 70),
        ];
        assert_eq!(busy_ns(&spans), 100 + 20 + 10);
        assert_eq!(busy_ns(&[]), 0);
    }

    #[test]
    fn jobs_are_the_roots_of_the_parent_chains() {
        // Task 1 is a submitted root; tasks 7 and 8 descend from the inline root 6 of a `run`.
        let spans = [
            span(0, 1, None, 0, 9),
            span(0, 2, Some(1), 1, 2),
            span(1, 3, Some(2), 2, 3),
            span(1, 7, Some(6), 4, 5),
            span(0, 8, Some(7), 5, 6),
        ];
        assert_eq!(
            jobs_of(&spans),
            vec![(1, 0), (1, 0), (1, 0), (6, 0), (6, 0)]
        );
        let document = document("w", &spans).to_string();
        crate::json::check::well_formed(&document).unwrap();
        assert_eq!(document.matches("\"span\":\"job\"").count(), 2);
        assert_eq!(document.matches("\"span\":\"task\"").count(), 5);
    }
}
