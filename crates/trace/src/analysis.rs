//! Trace analysis: effective parallelism (Figure 6) and per-label statistics.

use std::collections::BTreeMap;

use crate::TraceEvent;

/// Aggregate statistics for one task label.
#[derive(Clone, Debug, PartialEq)]
pub struct LabelStats {
    /// The task label.
    pub label: String,
    /// Number of executed tasks with this label.
    pub count: usize,
    /// Total busy time in nanoseconds.
    pub total_ns: u64,
    /// Mean task duration in nanoseconds.
    pub mean_ns: f64,
}

/// Concurrency over time: how many tasks were running during each time bucket.
#[derive(Clone, Debug, PartialEq)]
pub struct ParallelismProfile {
    /// Bucket width in nanoseconds.
    pub bucket_ns: u64,
    /// Average number of running tasks per bucket.
    pub concurrency: Vec<f64>,
}

/// Summary of a trace (the numbers the paper's figures are built from).
#[derive(Clone, Debug, PartialEq)]
pub struct TraceSummary {
    /// Number of executed tasks.
    pub tasks: usize,
    /// Wall-clock span covered by the trace, in nanoseconds (first start to last end).
    pub span_ns: u64,
    /// Time the workers spent inside task bodies, in nanoseconds: per worker, the length of the
    /// union of its events. A body blocked in `taskwait` runs other tasks on the same worker
    /// meanwhile, so its event contains theirs; the union counts that stretch once. A body
    /// parked in `taskwait` with nothing to run still counts as busy for as long as it waits.
    pub busy_ns: u64,
    /// Effective parallelism: `busy_ns / span_ns` (the metric of Figure 6).
    pub effective_parallelism: f64,
    /// Per-label statistics, ordered by label.
    pub labels: Vec<LabelStats>,
}

/// Computes the [`TraceSummary`] of a set of events.
pub fn summarize(events: &[TraceEvent]) -> TraceSummary {
    if events.is_empty() {
        return TraceSummary {
            tasks: 0,
            span_ns: 0,
            busy_ns: 0,
            effective_parallelism: 0.0,
            labels: Vec::new(),
        };
    }
    let start = events.iter().map(|e| e.start_ns).min().unwrap_or(0);
    let end = events.iter().map(|e| e.end_ns).max().unwrap_or(0);
    let span_ns = end.saturating_sub(start);
    let busy_ns: u64 = busy_intervals(events)
        .iter()
        .map(|(start, end)| end - start)
        .sum();
    let effective_parallelism = if span_ns == 0 {
        0.0
    } else {
        busy_ns as f64 / span_ns as f64
    };

    let mut by_label: BTreeMap<&str, (usize, u64)> = BTreeMap::new();
    for e in events {
        let entry = by_label.entry(e.label.as_str()).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += e.duration_ns();
    }
    let labels = by_label
        .into_iter()
        .map(|(label, (count, total_ns))| LabelStats {
            label: label.to_string(),
            count,
            total_ns,
            mean_ns: if count == 0 {
                0.0
            } else {
                total_ns as f64 / count as f64
            },
        })
        .collect();

    TraceSummary {
        tasks: events.len(),
        span_ns,
        busy_ns,
        effective_parallelism,
        labels,
    }
}

/// The stretches of time each worker spent inside task bodies (see [`TraceSummary::busy_ns`]):
/// per worker, the union of its events as disjoint `(start_ns, end_ns)` intervals, the
/// workers' lists concatenated.
fn busy_intervals(events: &[TraceEvent]) -> Vec<(u64, u64)> {
    let mut spans: Vec<(usize, u64, u64)> = events
        .iter()
        .map(|e| (e.worker, e.start_ns, e.end_ns))
        .collect();
    spans.sort_unstable();
    let mut merged: Vec<(usize, u64, u64)> = Vec::with_capacity(spans.len());
    for (worker, start, end) in spans {
        match merged.last_mut() {
            Some(last) if last.0 == worker && start <= last.2 => last.2 = last.2.max(end),
            _ => merged.push((worker, start, end)),
        }
    }
    merged
        .into_iter()
        .map(|(_, start, end)| (start, end))
        .collect()
}

/// Effective parallelism of a set of events (`busy / span`), the Figure 6 metric.
pub fn effective_parallelism(events: &[TraceEvent]) -> f64 {
    summarize(events).effective_parallelism
}

/// Computes a concurrency-over-time profile with `buckets` buckets: how many workers were busy
/// (as [`TraceSummary::busy_ns`] counts it) on average during each bucket.
pub fn parallelism_profile(events: &[TraceEvent], buckets: usize) -> ParallelismProfile {
    if events.is_empty() || buckets == 0 {
        return ParallelismProfile {
            bucket_ns: 0,
            concurrency: Vec::new(),
        };
    }
    let start = events.iter().map(|e| e.start_ns).min().unwrap_or(0);
    let end = events.iter().map(|e| e.end_ns).max().unwrap_or(0);
    let span = (end - start).max(1);
    let bucket_ns = span.div_ceil(buckets as u64).max(1);
    let mut busy = vec![0u64; buckets];
    for (interval_start, interval_end) in busy_intervals(events) {
        let mut cursor = interval_start;
        while cursor < interval_end {
            let bucket = ((cursor - start) / bucket_ns).min(buckets as u64 - 1) as usize;
            let bucket_end = start + (bucket as u64 + 1) * bucket_ns;
            let slice_end = interval_end.min(bucket_end);
            busy[bucket] += slice_end - cursor;
            cursor = slice_end;
        }
    }
    ParallelismProfile {
        bucket_ns,
        concurrency: busy
            .into_iter()
            .map(|b| b as f64 / bucket_ns as f64)
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(worker: usize, label: &str, start: u64, end: u64) -> TraceEvent {
        TraceEvent {
            worker,
            label: label.to_string(),
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn empty_trace_summary() {
        let s = summarize(&[]);
        assert_eq!(s.tasks, 0);
        assert_eq!(s.effective_parallelism, 0.0);
        assert!(s.labels.is_empty());
    }

    #[test]
    fn effective_parallelism_of_two_fully_overlapping_tasks_is_two() {
        let events = vec![ev(0, "a", 0, 100), ev(1, "a", 0, 100)];
        let p = effective_parallelism(&events);
        assert!((p - 2.0).abs() < 1e-9, "got {p}");
    }

    #[test]
    fn effective_parallelism_of_sequential_tasks_is_one() {
        let events = vec![ev(0, "a", 0, 100), ev(0, "a", 100, 200)];
        let p = effective_parallelism(&events);
        assert!((p - 1.0).abs() < 1e-9, "got {p}");
    }

    /// An outer task in `taskwait` runs its two children on its own worker, inside its own
    /// event: one worker is busy once, not three times over.
    #[test]
    fn nested_events_on_one_worker_count_once() {
        let events = vec![
            ev(0, "outer", 0, 100),
            ev(0, "child", 10, 40),
            ev(0, "child", 50, 90),
        ];
        let s = summarize(&events);
        assert_eq!(s.busy_ns, 100);
        assert!(
            s.effective_parallelism <= 1.0,
            "got {}",
            s.effective_parallelism
        );
        let profile = parallelism_profile(&events, 4);
        assert!(
            profile.concurrency.iter().all(|&c| c <= 1.0 + 1e-9),
            "{profile:?}"
        );
    }

    #[test]
    fn label_stats_are_grouped_and_averaged() {
        let events = vec![
            ev(0, "sort", 0, 10),
            ev(1, "sort", 0, 30),
            ev(0, "scan", 10, 20),
        ];
        let s = summarize(&events);
        assert_eq!(s.tasks, 3);
        assert_eq!(s.labels.len(), 2);
        let sort = s.labels.iter().find(|l| l.label == "sort").unwrap();
        assert_eq!(sort.count, 2);
        assert_eq!(sort.total_ns, 40);
        assert!((sort.mean_ns - 20.0).abs() < 1e-9);
    }

    #[test]
    fn parallelism_profile_tracks_concurrency() {
        // Two tasks overlap in the first half, only one runs in the second half.
        let events = vec![ev(0, "a", 0, 100), ev(1, "a", 0, 50)];
        let profile = parallelism_profile(&events, 2);
        assert_eq!(profile.concurrency.len(), 2);
        assert!((profile.concurrency[0] - 2.0).abs() < 1e-9);
        assert!((profile.concurrency[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn profile_handles_empty_input() {
        let p = parallelism_profile(&[], 10);
        assert!(p.concurrency.is_empty());
    }
}
