//! The metric catalogue: every name the benchmark prints, with its unit. `BENCHMARK.json` lists
//! the same names (a test holds the two together). Every workload reports every metric of the
//! run's kind; a per-layer metric that does not apply to a workload reads 0.

use std::collections::HashMap;

use crate::json::Json;
use crate::stats::Summary;

/// End-to-end metrics, measured with tracing off and no observer attached.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("solve_ms", "ms"),
    ("tasks_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("job_ms_p50", "ms"),
];

/// Per-layer metrics of the traced run, `layer.metric`.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("regions.update_ns_per_access", "ns"),
    ("regions.exact_ratio", "ratio"),
    ("regions.promotions_per_ktask", "count"),
    ("regions.demotions_per_ktask", "count"),
    ("access.normalize_ns_per_task", "ns"),
    ("engine.register_ns_per_task", "ns"),
    ("engine.finish_ns_per_task", "ns"),
    ("engine.edges_per_task", "count"),
    ("engine.ready_at_registration_ratio", "ratio"),
    ("engine.incremental_releases_per_task", "count"),
    ("runtime.spawn_ns_per_task", "ns"),
    ("runtime.body_ns_per_task", "ns"),
    ("runtime.retire_ns_per_task", "ns"),
    ("runtime.worker_busy_ratio", "ratio"),
    ("runtime.nonbody_ns_per_task", "ns"),
    ("runtime.queue_wait_us_p50", "us"),
    ("runtime.queue_wait_us_p95", "us"),
    ("runtime.allocs_per_task", "count"),
    ("runtime.alloc_bytes_per_task", "B"),
    ("runtime.task_table_slots", "count"),
    ("runtime.pending_slots", "count"),
    // End-to-end by nature, but its run-to-run spread on a 2-CPU VM (15-23 % on the short
    // repetitions of `axpy_coarse`) is beyond any bound the driver accepts, so it is diagnostic.
    ("job_ms_p95", "ms"),
    ("job.submit_us_p50", "us"),
    ("job.start_delay_ms_p50", "ms"),
    ("job.wait_return_us_p50", "us"),
    ("job.ms_p99", "ms"),
    ("job.admission_blocked_ratio", "ratio"),
    ("threadpool.dispatch_ns_per_job", "ns"),
    ("threadpool.slot_ratio", "ratio"),
    ("threadpool.local_ratio", "ratio"),
    ("threadpool.injector_ratio", "ratio"),
    ("threadpool.steal_ratio", "ratio"),
    ("threadpool.sleeps_per_ktask", "count"),
    ("threadpool.wakes_per_ktask", "count"),
    ("threadpool.assist_chunks_per_loop", "count"),
    ("kernels.seq_ms", "ms"),
    ("kernels.speedup_vs_seq", "ratio"),
    ("kernels.gops", "Gop/s"),
    ("kernels.bytes_computed_mb", "MB"),
    ("kernels.ops_per_byte", "op/B"),
    ("kernels.weak_gain", "ratio"),
    ("cachesim.l2_miss_ratio", "ratio"),
    ("trace.effective_parallelism", "ratio"),
    ("trace.sort_scan_overlap_ratio", "ratio"),
    ("trace.collector_overhead_ratio", "ratio"),
    ("storm.nodeps_tasks_per_s", "1/s"),
    ("storm.exact_tasks_per_s", "1/s"),
    ("storm.fragmented_tasks_per_s", "1/s"),
    ("storm.nested_tasks_per_s", "1/s"),
    ("bench.tracing_overhead_ratio", "ratio"),
    ("bench.tasks_per_rep", "count"),
];

/// One reported number: the value and, where it summarises samples, their count and quartiles.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub spread: Option<(usize, f64, f64)>,
}

/// The metrics of one workload, by name.
#[derive(Debug, Default)]
pub struct Metrics(HashMap<&'static str, Metric>);

impl Metrics {
    /// Sets a metric that is a single measurement or a ratio of totals.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.insert(
            name,
            Metric {
                value,
                spread: None,
            },
        );
    }

    /// Sets a metric to `pick` of the summary of its samples; absent samples leave it unset.
    pub fn set_summary(
        &mut self,
        name: &'static str,
        samples: &[f64],
        pick: impl Fn(&Summary) -> f64,
    ) {
        if let Some(s) = Summary::of(samples) {
            self.insert(
                name,
                Metric {
                    value: pick(&s),
                    spread: Some((s.n, s.q1, s.q3)),
                },
            );
        }
    }

    /// Sets a metric to the median of its samples.
    pub fn set_median(&mut self, name: &'static str, samples: &[f64]) {
        self.set_summary(name, samples, |s| s.median);
    }

    fn insert(&mut self, name: &'static str, metric: Metric) {
        let known = END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name);
        assert!(known, "metric `{name}` is not in the catalogue");
        self.0.insert(name, metric);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |m| m.value)
    }

    /// The catalogue's metrics of this run's kind, in catalogue order; unset ones read 0.
    pub fn rows(
        &self,
        traced: bool,
    ) -> impl Iterator<Item = (&'static str, &'static str, Metric)> + '_ {
        let catalogue: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        catalogue.iter().map(|&(name, unit)| {
            let metric = self.0.get(name).copied().unwrap_or(Metric {
                value: 0.0,
                spread: None,
            });
            (name, unit, metric)
        })
    }

    /// `{name: {"value", "unit"}}`, the shape the driver's contract fixes; `detailed` adds the
    /// sample count and quartiles where there are any.
    pub fn to_json(&self, traced: bool, detailed: bool) -> Json {
        Json::Obj(
            self.rows(traced)
                .map(|(name, unit, m)| {
                    let mut fields = vec![
                        ("value".to_string(), Json::Num(m.value)),
                        ("unit".to_string(), Json::str(unit)),
                    ];
                    if let (true, Some((n, q1, q3))) = (detailed, m.spread) {
                        fields.push(("n".to_string(), Json::Int(n as u64)));
                        fields.push(("q1".to_string(), Json::Num(q1)));
                        fields.push(("q3".to_string(), Json::Num(q3)));
                    }
                    (name.to_string(), Json::Obj(fields))
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        crate::json::check::well_formed(&text).unwrap();
        let section = |key: &str| {
            let start = text
                .find(&format!("\"{key}\""))
                .unwrap_or_else(|| panic!("no `{key}` in BENCHMARK.json"));
            let end = text[start..].find(']').unwrap() + start;
            &text[start..end]
        };
        for (key, catalogue) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = section(key);
            assert_eq!(listed.matches("\"name\"").count(), catalogue.len(), "{key}");
            for (name, unit) in catalogue {
                assert!(
                    listed.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                    "{key}: {name} [{unit}]"
                );
            }
        }
        let listed = section("workloads");
        for name in crate::workloads::NAMES {
            assert!(
                listed.contains(&format!("\"name\": \"{name}\"")),
                "workload {name}"
            );
        }
    }

    #[test]
    fn unset_metrics_read_zero_and_unknown_names_are_refused() {
        let mut m = Metrics::default();
        m.set_median("solve_ms", &[3.0, 1.0, 2.0]);
        m.set_median("job_ms_p50", &[]);
        let rows: Vec<_> = m.rows(false).collect();
        assert_eq!(rows.len(), END_TO_END.len());
        assert_eq!(m.get("solve_ms"), 2.0);
        assert_eq!(m.get("job_ms_p50"), 0.0);
        assert!(std::panic::catch_unwind(move || m.set("no.such_metric", 1.0)).is_err());
    }
}
