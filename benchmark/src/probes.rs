//! Layer probes: the mirror of a workload's task graph ([`crate::graph`]) drives one layer's
//! public API at a time, single-threaded, and the calls are timed. A probe isolates what a
//! layer costs on *this workload's* access pattern; it does not see contention, and the engine
//! probe registers every task before any finishes, so it links against the most predecessors
//! the graph allows.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use weakdep_core::{normalize_deps, DependencyEngine, NormalizedDep, TaskId};
use weakdep_regions::{RangeUpdate, RegionStore};
use weakdep_threadpool::ThreadPool;

use crate::graph::TaskGraph;
use crate::stats::{median, ratio};

/// Times each probe is repeated; the median is reported.
pub const PROBE_REPS: usize = 5;

#[derive(Clone, Copy, Debug, Default)]
pub struct ProbeResults {
    pub regions_update_ns_per_access: f64,
    pub normalize_ns_per_task: f64,
    pub register_ns_per_task: f64,
    pub finish_ns_per_task: f64,
    pub dispatch_ns_per_job: f64,
    pub sleeps_per_kjob: f64,
}

fn median_of(mut one: impl FnMut() -> f64) -> f64 {
    let runs: Vec<f64> = (0..PROBE_REPS).map(|_| one()).collect();
    median(&runs)
}

pub fn run(graph: &TaskGraph, workers: usize) -> ProbeResults {
    let mut register = Vec::new();
    let mut finish = Vec::new();
    for _ in 0..PROBE_REPS {
        let (r, f) = engine(graph);
        register.push(r);
        finish.push(f);
    }
    let (dispatch_ns_per_job, sleeps_per_kjob) = threadpool(graph, workers);
    ProbeResults {
        regions_update_ns_per_access: median_of(|| regions(graph)),
        normalize_ns_per_task: median_of(|| normalize(graph)),
        register_ns_per_task: median(&register),
        finish_ns_per_task: median(&finish),
        dispatch_ns_per_job,
        sleeps_per_kjob,
    }
}

/// `regions`: replays, per dependency domain, the bottom-map updates the engine makes when the
/// domain's tasks register — the owner's own regions first, then every child access through
/// `update_coalescing`. Returns ns per store operation.
fn regions(graph: &TaskGraph) -> f64 {
    // Domain `d` belongs to root `d` or to task `d - roots`.
    let domain =
        |parent: Result<usize, usize>| parent.map_or_else(|root| root, |task| graph.roots + task);
    let mut stores: Vec<RegionStore<u32>> = (0..graph.roots + graph.tasks.len())
        .map(|_| RegionStore::new())
        .collect();
    let mut seeded = vec![false; stores.len()];
    let mut operations = 0usize;
    let start = Instant::now();
    for (i, task) in graph.tasks.iter().enumerate() {
        let d = domain(task.parent);
        if !seeded[d] {
            seeded[d] = true;
            if let Ok(owner) = task.parent {
                for dep in &graph.tasks[owner].deps {
                    stores[d].insert(&dep.region, owner as u32);
                    operations += 1;
                }
            }
        }
        for dep in &task.deps {
            black_box(stores[d].update_coalescing(&dep.region, |_, _| RangeUpdate::Set(i as u32)));
            operations += 1;
        }
    }
    ratio(start.elapsed().as_nanos() as f64, operations as f64)
}

/// `access`: `normalize_deps` over every task's clause. Returns ns per task.
fn normalize(graph: &TaskGraph) -> f64 {
    let start = Instant::now();
    for task in &graph.tasks {
        black_box(normalize_deps(black_box(&task.deps)));
    }
    ratio(start.elapsed().as_nanos() as f64, graph.tasks.len() as f64)
}

/// `engine`: registers the whole graph wave by wave (`register_batch` for `spawn_batch` waves,
/// `register_task_normalized` for single spawns), then calls `body_finished` in the order tasks
/// become ready. Returns ns per task of (registration, retirement).
fn engine(graph: &TaskGraph) -> (f64, f64) {
    let engine = DependencyEngine::new();
    let roots: Vec<TaskId> = (0..graph.roots).map(|_| engine.register_root()).collect();
    let normalized: Vec<Vec<NormalizedDep>> = graph
        .tasks
        .iter()
        .map(|t| normalize_deps(&t.deps))
        .collect();
    let waves = graph.waves();
    let mut ids: Vec<TaskId> = Vec::with_capacity(graph.tasks.len());
    let mut ready: VecDeque<TaskId> = VecDeque::new();

    let start = Instant::now();
    for wave in waves {
        let first = &graph.tasks[wave.start];
        let parent = first
            .parent
            .map_or_else(|root| roots[root], |task| ids[task]);
        if first.info.wave == 1 {
            let (id, is_ready) = engine
                .register_task_normalized(parent, &normalized[wave.start], first.info.wait)
                .expect("the parent is live: nothing has finished yet");
            ids.push(id);
            ready.extend(is_ready.then_some(id));
        } else {
            let specs = wave.map(|i| (normalized[i].as_slice(), graph.tasks[i].info.wait));
            let registered = engine
                .register_batch(parent, specs)
                .expect("the parent is live: nothing has finished yet");
            for (id, is_ready) in registered {
                ids.push(id);
                ready.extend(is_ready.then_some(id));
            }
        }
    }
    let register_ns = start.elapsed().as_nanos() as f64;

    let start = Instant::now();
    let mut finished = 0usize;
    ready.extend(roots);
    while let Some(task) = ready.pop_front() {
        let effects = engine
            .body_finished(task)
            .expect("every task finishes once");
        ready.extend(effects.ready);
        finished += 1;
    }
    let finish_ns = start.elapsed().as_nanos() as f64;
    assert_eq!(
        finished,
        graph.roots + graph.tasks.len(),
        "the mirrored graph must drain completely"
    );
    (
        ratio(register_ns, graph.tasks.len() as f64),
        ratio(finish_ns, finished as f64),
    )
}

/// `threadpool`: a bare pool with a no-op executor receives the graph's waves from outside
/// (`submit` / `submit_batch`) and the probe waits until all have run. Returns ns per job and
/// worker sleeps per thousand jobs.
fn threadpool(graph: &TaskGraph, workers: usize) -> (f64, f64) {
    let pool: ThreadPool<usize> = ThreadPool::new(workers, |_job, _worker| {});
    let waves = graph.waves();
    let mut submitted = 0usize;
    let mut ns_per_job = Vec::new();
    for _ in 0..PROBE_REPS {
        let start = Instant::now();
        for wave in &waves {
            if wave.len() == 1 {
                pool.submit(wave.start);
            } else {
                pool.submit_batch(wave.clone());
            }
        }
        submitted += graph.tasks.len();
        while pool.stats().executed_jobs() < submitted {
            std::thread::yield_now();
        }
        ns_per_job.push(ratio(
            start.elapsed().as_nanos() as f64,
            graph.tasks.len() as f64,
        ));
    }
    let sleeps = pool
        .stats()
        .sleeps
        .load(std::sync::atomic::Ordering::Relaxed);
    (
        median(&ns_per_job),
        ratio(sleeps as f64 * 1e3, submitted as f64),
    )
}
