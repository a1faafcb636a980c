//! The run protocol. After set-up (which includes two warm-up repetitions per workload) the
//! run goes through `rounds` rounds; in each round every selected workload in turn repeats
//! for one slice. Interleaving the workloads spreads the host's drift over all of them, and
//! every reported timing is a median over all repetitions of all rounds. Run length is fixed
//! by the options, never by the results.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use weakdep_cachesim::{CacheConfig, CacheSimObserver};
use weakdep_core::{Runtime, RuntimeConfig, RuntimeStats};
use weakdep_trace::{effective_parallelism, TraceCollector, TraceEvent};

use crate::graph::GraphRecorder;
use crate::metrics::Metrics;
use crate::spans::{Span, SpanObserver};
use crate::stats::{median, ratio};
use crate::workloads::{self, Samples, Workload, PHASES};
use crate::{probes, spans};

/// Repetitions of every workload before anything is measured.
pub const WARMUP_REPS: usize = 2;
/// Set-up is repeated at least this often in one run, and on until [`SETUP_BUDGET_S`] have been
/// spent on it; `setup_s` is the median. A 50 ms set-up measured five times doubled from one run
/// to the next on this host; measured twenty times it does not.
pub const SETUP_REPEATS: usize = 5;
pub const SETUP_BUDGET_S: f64 = 1.0;
/// Seconds one workload repeats for before the next one takes its turn.
pub const SLICE_S: f64 = 1.0;
/// Traced runs alternate a slice without observers and a slice with the span observer.
pub const TRACED_SLICE_S: f64 = 0.5;
/// Repetitions of the strong variant behind `kernels.weak_gain`.
pub const STRONG_REPS: usize = 5;
/// Repetitions with a `TraceCollector` attached behind `trace.collector_overhead_ratio`.
pub const COLLECTOR_REPS: usize = 3;

#[derive(Clone, Debug)]
pub struct Options {
    /// Names from [`workloads::NAMES`], in run order.
    pub workloads: Vec<&'static str>,
    pub seed: u64,
    /// Measured seconds per workload.
    pub seconds: f64,
    pub traced: bool,
    pub workers: usize,
    /// One short round over inputs divided by [`workloads::SMOKE_DIVISOR`].
    pub smoke: bool,
}

impl Options {
    pub fn slice_s(&self) -> f64 {
        match (self.smoke, self.traced) {
            (true, _) => 0.2,
            (false, false) => SLICE_S,
            (false, true) => TRACED_SLICE_S,
        }
    }

    /// Rounds of the run: `seconds` worth of slices. A traced round holds two slices per
    /// workload, and the traced run keeps three tenths of its time for the single repetitions
    /// and probes that follow the rounds.
    pub fn rounds(&self) -> usize {
        if self.smoke {
            return 1;
        }
        let slice_s = if self.traced {
            2.0 * self.slice_s() / 0.7
        } else {
            self.slice_s()
        };
        (self.seconds / slice_s).ceil().max(1.0) as usize
    }
}

/// The outcome of one workload.
#[derive(Debug)]
pub struct Outcome {
    pub name: &'static str,
    pub seeded_shape: String,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// Everything a traced run keeps beside the plain one.
struct Traced {
    observer: Arc<SpanObserver>,
    rt: Runtime,
    samples: Samples,
    /// created → start of every traced task, µs.
    queue_wait_us: Vec<f64>,
    body_ns: u64,
    tasks: u64,
    /// Spans of the most recent traced repetition, for the span file.
    last_rep: Vec<Span>,
}

/// One workload's state over a run. The runtime is built in set-up and stays parked while
/// other workloads take their turn.
struct Bench {
    name: &'static str,
    workload: Box<dyn Workload>,
    rt: Runtime,
    setup_s: f64,
    samples: Samples,
    /// The plain runtime's counters when measuring began.
    first: Option<RuntimeStats>,
    traced: Option<Traced>,
}

fn runtime(workers: usize) -> Runtime {
    Runtime::new(RuntimeConfig::new().workers(workers))
}

/// One repetition that cannot take the run down: a panic is one failed repetition.
fn guarded_rep(
    name: &str,
    workload: &mut dyn Workload,
    rt: &Runtime,
    strong: bool,
    out: &mut Samples,
) {
    if catch_unwind(AssertUnwindSafe(|| workload.rep(rt, strong, out))).is_err() {
        out.attempted += 1;
        out.fail(name, "the repetition panicked");
    }
}

/// Repeats until `budget` has passed (at least once), calling `after_rep` between repetitions.
fn slice(
    name: &str,
    workload: &mut dyn Workload,
    rt: &Runtime,
    budget: f64,
    out: &mut Samples,
    mut after_rep: impl FnMut(),
) {
    let end = Instant::now() + Duration::from_secs_f64(budget);
    loop {
        guarded_rep(name, workload, rt, false, out);
        after_rep();
        if Instant::now() >= end {
            return;
        }
    }
}

impl Bench {
    /// Builds the inputs (with the sequential reference), the runtime, and warms both up —
    /// [`SETUP_REPEATS`] times or more, keeping the last instance and the median time.
    fn set_up(name: &'static str, opts: &Options) -> Bench {
        let (repeats, budget_s) = if opts.smoke {
            (1, 0.0)
        } else {
            (SETUP_REPEATS, SETUP_BUDGET_S)
        };
        let mut times: Vec<f64> = Vec::new();
        let mut last = None;
        while times.len() < repeats || times.iter().sum::<f64>() < budget_s {
            drop(last.take());
            let start = Instant::now();
            let mut workload = workloads::build(name, opts.seed, opts.smoke)
                .expect("names are checked at the command line");
            let rt = runtime(opts.workers);
            let mut warmup = Samples::default();
            for _ in 0..WARMUP_REPS {
                guarded_rep(name, workload.as_mut(), &rt, false, &mut warmup);
            }
            times.push(start.elapsed().as_secs_f64());
            last = Some((workload, rt, warmup));
        }
        let (workload, rt, warmup) = last.expect("set-up runs at least once");
        // A failed warm-up repetition counts, though its time does not.
        let samples = Samples {
            attempted: warmup.attempted,
            failed: warmup.failed,
            ..Samples::default()
        };
        let traced = opts.traced.then(|| {
            let observer = Arc::new(SpanObserver::new(opts.workers));
            let rt = Runtime::new(
                RuntimeConfig::new()
                    .workers(opts.workers)
                    .observer(observer.clone()),
            );
            Traced {
                observer,
                rt,
                samples: Samples::default(),
                queue_wait_us: Vec::new(),
                body_ns: 0,
                tasks: 0,
                last_rep: Vec::new(),
            }
        });
        Bench {
            name,
            workload,
            rt,
            setup_s: median(&times),
            samples,
            first: None,
            traced,
        }
    }

    /// This workload's turn in one round.
    fn turn(&mut self, slice_s: f64) {
        self.first.get_or_insert_with(|| self.rt.stats());
        slice(
            self.name,
            self.workload.as_mut(),
            &self.rt,
            slice_s,
            &mut self.samples,
            || {},
        );
        if let Some(Traced {
            observer,
            rt,
            samples,
            queue_wait_us,
            body_ns,
            tasks,
            last_rep,
        }) = &mut self.traced
        {
            slice(
                self.name,
                self.workload.as_mut(),
                rt,
                slice_s,
                samples,
                || {
                    *last_rep = observer.drain();
                    *tasks += last_rep.len() as u64;
                    *body_ns += spans::busy_ns(last_rep);
                    for span in last_rep.iter() {
                        queue_wait_us.extend(
                            span.created_ns
                                .map(|c| span.start_ns.saturating_sub(c) as f64 / 1e3),
                        );
                    }
                },
            );
        }
    }
}

/// Fraction of the trace's extent during which sort and scan tasks were both in flight.
fn sort_scan_overlap(events: &[TraceEvent]) -> f64 {
    let is_sort = |e: &&TraceEvent| matches!(e.label.as_str(), "quick_sort" | "insertion_sort");
    let extent_start = events.iter().map(|e| e.start_ns).min().unwrap_or(0);
    let extent_end = events.iter().map(|e| e.end_ns).max().unwrap_or(0);
    let last_sort_end = events
        .iter()
        .filter(is_sort)
        .map(|e| e.end_ns)
        .max()
        .unwrap_or(extent_start);
    let first_scan_start = events
        .iter()
        .filter(|e| !is_sort(e))
        .map(|e| e.start_ns)
        .min()
        .unwrap_or(extent_end);
    ratio(
        last_sort_end.saturating_sub(first_scan_start) as f64,
        extent_end.saturating_sub(extent_start) as f64,
    )
}

impl Bench {
    /// End-to-end metrics: what a user of the runtime sees.
    fn end_to_end_metrics(&self, first: &RuntimeStats, last: &RuntimeStats, m: &mut Metrics) {
        let s = &self.samples;
        let tasks = (last.tasks_executed - first.tasks_executed) as f64;
        m.set("setup_s", self.setup_s);
        m.set_median("solve_ms", &s.rep_ms);
        m.set("tasks_per_s", ratio(tasks, s.timed_s()));
        m.set("jobs_per_s", ratio(s.job_ms.len() as f64, s.timed_s()));
        m.set_median("job_ms_p50", &s.job_ms);
    }

    /// Per-layer metrics from the counters of the plain runtime and the harness's stamps.
    fn counter_metrics(&self, first: &RuntimeStats, last: &RuntimeStats, m: &mut Metrics) {
        let s = &self.samples;
        let d = |f: fn(&RuntimeStats) -> usize| (f(last) - f(first)) as f64;
        let tasks = d(|r| r.tasks_executed);
        let registered = d(|r| r.engine.tasks_registered);
        let accesses = d(|r| r.engine.accesses_registered);
        m.set("bench.tasks_per_rep", ratio(tasks, s.rep_ms.len() as f64));

        m.set(
            "regions.exact_ratio",
            ratio(d(|r| r.engine.exact_hits), accesses),
        );
        m.set(
            "regions.promotions_per_ktask",
            ratio(1e3 * d(|r| r.engine.promotions), registered),
        );
        m.set(
            "regions.demotions_per_ktask",
            ratio(1e3 * d(|r| r.engine.demotions), registered),
        );

        let edges = d(|r| r.engine.release_edges) + d(|r| r.engine.satisfaction_edges);
        m.set("engine.edges_per_task", ratio(edges, registered));
        m.set(
            "engine.ready_at_registration_ratio",
            ratio(d(|r| r.engine.ready_at_registration), registered),
        );
        m.set(
            "engine.incremental_releases_per_task",
            ratio(d(|r| r.engine.incremental_releases), registered),
        );

        m.set(
            "runtime.spawn_ns_per_task",
            ratio((last.spawn_ns - first.spawn_ns) as f64, tasks),
        );
        m.set(
            "runtime.body_ns_per_task",
            ratio((last.body_ns - first.body_ns) as f64, tasks),
        );
        m.set(
            "runtime.retire_ns_per_task",
            ratio((last.retire_ns - first.retire_ns) as f64, tasks),
        );
        m.set("runtime.allocs_per_task", ratio(s.allocs as f64, tasks));
        m.set(
            "runtime.alloc_bytes_per_task",
            ratio(s.alloc_bytes as f64, tasks),
        );
        let capacity = self.rt.capacity();
        m.set("runtime.task_table_slots", capacity.task_table_slots as f64);
        m.set("runtime.pending_slots", capacity.pending_slots as f64);

        m.set(
            "threadpool.slot_ratio",
            ratio(d(|r| r.successor_slot_hits), tasks),
        );
        m.set("threadpool.local_ratio", ratio(d(|r| r.local_pops), tasks));
        m.set(
            "threadpool.injector_ratio",
            ratio(d(|r| r.injector_pops), tasks),
        );
        m.set("threadpool.steal_ratio", ratio(d(|r| r.steals), tasks));
        m.set(
            "threadpool.wakes_per_ktask",
            ratio(
                1e3 * (d(|r| r.targeted_wakes) + d(|r| r.fallback_wakes)),
                tasks,
            ),
        );
        m.set(
            "threadpool.assist_chunks_per_loop",
            ratio(d(|r| r.assist_chunks), d(|r| r.assisted_loops)),
        );

        m.set_median("job.submit_us_p50", &s.submit_us);
        m.set_median("job.start_delay_ms_p50", &s.start_delay_ms);
        m.set_median("job.wait_return_us_p50", &s.wait_return_us);
        m.set_summary("job_ms_p95", &s.job_ms, |q| q.p95);
        m.set_summary("job.ms_p99", &s.job_ms, |q| q.p99);
        let admitted = (last.admission.admitted - first.admission.admitted) as f64;
        m.set(
            "job.admission_blocked_ratio",
            ratio(
                (last.admission.blocked - first.admission.blocked) as f64,
                admitted,
            ),
        );

        for (phase, name) in [
            "storm.nodeps_tasks_per_s",
            "storm.exact_tasks_per_s",
            "storm.fragmented_tasks_per_s",
            "storm.nested_tasks_per_s",
        ]
        .into_iter()
        .enumerate()
        {
            // The phases hold equal shares of the repetition's tasks.
            let per_phase = ratio(tasks, (PHASES.len() * s.rep_ms.len()) as f64);
            let rates: Vec<f64> = s.phase_s[phase]
                .iter()
                .map(|secs| ratio(per_phase, *secs))
                .collect();
            m.set_median(name, &rates);
        }

        if let Some(kernel) = self.workload.kernel() {
            let solve_ms = median(&s.rep_ms);
            m.set("kernels.seq_ms", kernel.seq_ms);
            m.set("kernels.speedup_vs_seq", ratio(kernel.seq_ms, solve_ms));
            m.set("kernels.gops", ratio(kernel.operations, solve_ms * 1e6));
            m.set("kernels.bytes_computed_mb", kernel.bytes_computed / 1e6);
            m.set(
                "kernels.ops_per_byte",
                ratio(kernel.operations, kernel.bytes_computed),
            );
        }
    }

    /// Per-layer metrics from the span observer's runtime.
    fn span_metrics(&self, traced: &Traced, workers: usize, m: &mut Metrics) {
        let wall_ns = traced.samples.timed_s() * 1e9 * workers as f64;
        m.set(
            "runtime.worker_busy_ratio",
            ratio(traced.body_ns as f64, wall_ns),
        );
        m.set(
            "runtime.nonbody_ns_per_task",
            ratio(wall_ns - traced.body_ns as f64, traced.tasks as f64),
        );
        m.set_median("runtime.queue_wait_us_p50", &traced.queue_wait_us);
        m.set_summary("runtime.queue_wait_us_p95", &traced.queue_wait_us, |q| {
            q.p95
        });
        m.set(
            "bench.tracing_overhead_ratio",
            ratio(median(&traced.samples.rep_ms), median(&self.samples.rep_ms)),
        );
    }

    /// The single repetitions and probes of a traced run: the strong variant, a repetition
    /// under the graph recorder and the cache model, repetitions under the trace collector,
    /// and the layer probes over the recorded graph.
    fn extra_metrics(&mut self, workers: usize, m: &mut Metrics) {
        let name = self.name;
        let solve_ms = median(&self.samples.rep_ms);
        let mut scratch = Samples::default();

        if self.workload.kernel().is_some() {
            for _ in 0..STRONG_REPS {
                guarded_rep(name, self.workload.as_mut(), &self.rt, true, &mut scratch);
            }
            m.set(
                "kernels.weak_gain",
                ratio(median(&scratch.rep_ms), solve_ms),
            );
        }

        let recorder = Arc::new(GraphRecorder::default());
        let cache = CacheSimObserver::shared(CacheConfig::default());
        let rt = Runtime::new(
            RuntimeConfig::new()
                .workers(workers)
                .observer(recorder.clone())
                .observer(cache.clone()),
        );
        let before = rt.stats().engine;
        guarded_rep(name, self.workload.as_mut(), &rt, false, &mut scratch);
        let graph = recorder.take_graph();
        let mirrored = graph.matches(&before, &rt.stats().engine);
        if !mirrored {
            scratch.attempted += 1;
            scratch.fail(
                name,
                "the recorded task graph does not match the engine's counters",
            );
        }
        m.set("cachesim.l2_miss_ratio", cache.miss_ratio());
        drop(rt);

        let collector = TraceCollector::shared();
        let rt = Runtime::new(
            RuntimeConfig::new()
                .workers(workers)
                .observer(collector.clone()),
        );
        let mut collected = Samples::default();
        for _ in 0..COLLECTOR_REPS {
            collector.reset();
            guarded_rep(name, self.workload.as_mut(), &rt, false, &mut collected);
        }
        let events = collector.events();
        m.set(
            "trace.effective_parallelism",
            effective_parallelism(&events),
        );
        if name == "sort_scan" {
            m.set("trace.sort_scan_overlap_ratio", sort_scan_overlap(&events));
        }
        m.set(
            "trace.collector_overhead_ratio",
            ratio(median(&collected.rep_ms), solve_ms),
        );
        drop(rt);

        // A graph that is not the engine's would make the probes measure something else.
        if mirrored {
            let probe = probes::run(&graph, workers);
            m.set(
                "regions.update_ns_per_access",
                probe.regions_update_ns_per_access,
            );
            m.set("access.normalize_ns_per_task", probe.normalize_ns_per_task);
            m.set("engine.register_ns_per_task", probe.register_ns_per_task);
            m.set("engine.finish_ns_per_task", probe.finish_ns_per_task);
            m.set("threadpool.dispatch_ns_per_job", probe.dispatch_ns_per_job);
            m.set("threadpool.sleeps_per_ktask", probe.sleeps_per_kjob);
        }

        for extra in [&scratch, &collected] {
            self.samples.attempted += extra.attempted;
            self.samples.failed += extra.failed;
        }
    }

    fn finish(mut self, opts: &Options, out_dir: Option<&std::path::Path>) -> Outcome {
        let mut metrics = Metrics::default();
        // Nothing but the measured repetitions ran on the plain runtime between these two.
        let first = self
            .first
            .take()
            .expect("every workload takes at least one turn");
        let last = self.rt.stats();
        if let Some(traced) = self.traced.take() {
            self.counter_metrics(&first, &last, &mut metrics);
            self.span_metrics(&traced, opts.workers, &mut metrics);
            self.extra_metrics(opts.workers, &mut metrics);
            self.samples.attempted += traced.samples.attempted;
            self.samples.failed += traced.samples.failed;
            if let Some(dir) = out_dir {
                let path = dir.join(format!("trace-{}.json", self.name));
                let document = spans::document(self.name, &traced.last_rep).to_string();
                if let Err(error) = std::fs::write(&path, document) {
                    eprintln!("warning: could not write {}: {error}", path.display());
                }
            }
        } else {
            self.end_to_end_metrics(&first, &last, &mut metrics);
        }
        Outcome {
            name: self.name,
            seeded_shape: self.workload.seeded_shape(),
            attempted: self.samples.attempted,
            failed: self.samples.failed,
            metrics,
        }
    }
}

/// Runs the selected workloads by the protocol and returns one outcome per workload, in
/// order. A traced run writes one span file per workload into `out_dir`.
pub fn run(opts: &Options, out_dir: Option<&std::path::Path>) -> Vec<Outcome> {
    let mut benches: Vec<Bench> = opts
        .workloads
        .iter()
        .map(|name| Bench::set_up(name, opts))
        .collect();
    for _ in 0..opts.rounds() {
        for bench in &mut benches {
            bench.turn(opts.slice_s());
        }
    }
    benches
        .into_iter()
        .map(|bench| bench.finish(opts, out_dir))
        .collect()
}

/// A summary line per metric for the human-readable table.
pub fn table(outcomes: &[Outcome], traced: bool) -> String {
    let mut text = String::new();
    for outcome in outcomes {
        text.push_str(&format!(
            "== {} ({} attempted, {} failed) — {}\n",
            outcome.name, outcome.attempted, outcome.failed, outcome.seeded_shape
        ));
        for (name, unit, metric) in outcome.metrics.rows(traced) {
            let spread = metric.spread.map_or(String::new(), |(n, q1, q3)| {
                format!("  n={n} q1={q1:.4} q3={q3:.4}")
            });
            text.push_str(&format!(
                "  {name:<38} {:>16.4} {unit:<6}{spread}\n",
                metric.value
            ));
        }
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::check::well_formed;
    use crate::workloads::NAMES;

    fn smoke(traced: bool) -> Options {
        Options {
            workloads: NAMES.to_vec(),
            seed: 7,
            seconds: 1.0,
            traced,
            workers: 2,
            smoke: true,
        }
    }

    #[test]
    fn an_untraced_smoke_set_reports_every_end_to_end_metric_and_no_failure() {
        let outcomes = run(&smoke(false), None);
        assert_eq!(outcomes.iter().map(|o| o.name).collect::<Vec<_>>(), NAMES);
        for outcome in &outcomes {
            assert_eq!(outcome.failed, 0, "{}", outcome.name);
            assert!(outcome.attempted as usize > WARMUP_REPS, "{}", outcome.name);
            for (name, _, metric) in outcome.metrics.rows(false) {
                assert!(
                    metric.value > 0.0 && metric.value.is_finite(),
                    "{} {name} = {}",
                    outcome.name,
                    metric.value
                );
            }
        }
        well_formed(&crate::cli::document(&smoke(false), &outcomes, 1.0).to_string()).unwrap();
        well_formed(&crate::cli::result_object(&outcomes[0], false).to_string()).unwrap();
    }

    #[test]
    fn a_traced_smoke_set_fills_the_layers_and_writes_one_span_file_per_workload() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let outcomes = run(&smoke(true), Some(&dir));
        for outcome in &outcomes {
            let m = &outcome.metrics;
            assert_eq!(outcome.failed, 0, "{}", outcome.name);
            let sources: f64 = ["slot", "local", "injector", "steal"]
                .iter()
                .map(|s| m.get(&format!("threadpool.{s}_ratio")))
                .sum();
            assert!(
                (sources - 1.0).abs() < 1e-9,
                "{}: dispatch sources sum to {sources}",
                outcome.name
            );
            for name in [
                "regions.update_ns_per_access",
                "access.normalize_ns_per_task",
                "engine.register_ns_per_task",
                "engine.finish_ns_per_task",
                "threadpool.dispatch_ns_per_job",
                "runtime.spawn_ns_per_task",
                "runtime.worker_busy_ratio",
                "runtime.queue_wait_us_p95",
                "bench.tracing_overhead_ratio",
                "bench.tasks_per_rep",
            ] {
                // The dependency-free storm phase aside, every workload registers accesses.
                assert!(
                    m.get(name) > 0.0,
                    "{} {name} = {}",
                    outcome.name,
                    m.get(name)
                );
            }
            assert_eq!(
                m.get("kernels.seq_ms") > 0.0,
                outcome.name.starts_with("axpy")
                    || ["gs_wavefront", "sort_scan"].contains(&outcome.name)
            );
            assert_eq!(
                m.get("storm.nested_tasks_per_s") > 0.0,
                outcome.name == "spawn_storm"
            );
            assert_eq!(
                m.get("job.submit_us_p50") > 0.0,
                outcome.name == "service_mix"
            );
            let spans =
                std::fs::read_to_string(dir.join(format!("trace-{}.json", outcome.name))).unwrap();
            well_formed(&spans).unwrap();
            assert!(
                spans.contains("\"span\":\"job\"") && spans.contains("\"span\":\"task\""),
                "{}",
                outcome.name
            );
        }
        well_formed(&crate::cli::document(&smoke(true), &outcomes, 1.0).to_string()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_recorded_graph_mirrors_the_engine_for_all_six_workloads() {
        for name in NAMES {
            let mut workload = workloads::build(name, 11, true).unwrap();
            let recorder = Arc::new(GraphRecorder::default());
            let rt = Runtime::new(RuntimeConfig::new().workers(2).observer(recorder.clone()));
            let before = rt.stats().engine;
            let mut samples = Samples::default();
            workload.rep(&rt, false, &mut samples);
            assert_eq!(samples.failed, 0, "{name}");
            let graph = recorder.take_graph();
            let after = rt.stats().engine;
            assert!(
                graph.matches(&before, &after),
                "{name}: {} roots, {} tasks, {} accesses",
                graph.roots,
                graph.tasks.len(),
                graph.accesses()
            );
            // The probes replay the mirror; the engine probe asserts that it drains completely.
            let probe = probes::run(&graph, 2);
            assert!(
                probe.register_ns_per_task > 0.0 && probe.dispatch_ns_per_job > 0.0,
                "{name}"
            );
        }
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let shape = |name, seed| workloads::build(name, seed, true).unwrap().seeded_shape();
        for name in NAMES {
            assert_eq!(shape(name, 5), shape(name, 5), "{name}");
        }
        assert_ne!(shape("sort_scan", 5), shape("sort_scan", 6));
        assert_ne!(shape("service_mix", 5), shape("service_mix", 6));
        assert_ne!(shape("spawn_storm", 5), shape("spawn_storm", 6));
        // The fixed-size kernels take nothing from the seed.
        assert_eq!(shape("gs_wavefront", 5), shape("gs_wavefront", 6));
    }
}
