//! The trace collector: an observer that records one event per executed task.
//!
//! The collector is **bounded**: it keeps at most a configurable number of events (a ring of
//! the most recent ones) and counts what it sheds, so tracing a long-lived runtime does not
//! reintroduce the per-task unbounded memory growth the engine's id-retirement scheme removes.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use weakdep_core::{RuntimeObserver, TaskExecution};

/// Default event capacity of a collector: ample for every figure/bench workload in this repo
/// (the largest traces a few hundred thousand tasks) while bounding a runaway soak at ~64 MiB.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 20;

/// One executed task, with nanosecond timestamps relative to the collector's origin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Index of the worker that executed the task.
    pub worker: usize,
    /// The task label (as passed to `TaskBuilder::label`).
    pub label: String,
    /// Start of the task body, in nanoseconds since the trace origin.
    pub start_ns: u64,
    /// End of the task body, in nanoseconds since the trace origin.
    pub end_ns: u64,
}

impl TraceEvent {
    /// Duration of the task body in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Inner {
    origin: Instant,
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
    workers: usize,
}

impl Inner {
    fn push(&mut self, event: TraceEvent) {
        if self.events.len() == self.capacity {
            if self.dropped == 0 {
                // Shedding is deliberate (bounded memory for long-lived runtimes) but must not
                // be silent: a truncated trace skews every downstream analysis. Warned once
                // per collector (reset clears it); consumers can poll `dropped()` for details.
                eprintln!(
                    "weakdep_trace: collector at capacity ({} events); shedding oldest events \
                     — analyses will only see the tail (check TraceCollector::dropped())",
                    self.capacity
                );
            }
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }
}

/// Collects [`TraceEvent`]s from a running [`weakdep_core::Runtime`].
///
/// Register it with `RuntimeConfig::observer(collector.clone())`; the same collector can be
/// shared with the analysis code because it is internally synchronised. Capacity is bounded
/// ([`DEFAULT_TRACE_CAPACITY`] by default, or [`TraceCollector::with_capacity`]): once full,
/// the oldest events are shed and counted in [`TraceCollector::dropped`].
pub struct TraceCollector {
    inner: Mutex<Inner>,
}

impl Default for TraceCollector {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceCollector {
    /// Creates an empty collector with the default capacity. The trace origin is the creation
    /// time.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// Creates an empty collector keeping at most `capacity` events (the most recent ones win;
    /// older events are shed and counted). A zero capacity is promoted to 1.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceCollector {
            inner: Mutex::new(Inner {
                origin: Instant::now(),
                events: VecDeque::new(),
                capacity: capacity.max(1),
                dropped: 0,
                workers: 0,
            }),
        }
    }

    /// Creates a collector wrapped in an [`Arc`], ready to be passed as an observer.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Clears all recorded events (and the dropped counter) and resets the trace origin (use
    /// between benchmark repetitions).
    pub fn reset(&self) {
        let mut inner = self.inner.lock();
        inner.events.clear();
        inner.dropped = 0;
        inner.origin = Instant::now();
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.inner.lock().events.len()
    }

    /// `true` if no event has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of events shed because the collector was at capacity.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// The maximum number of events this collector retains.
    pub fn capacity(&self) -> usize {
        self.inner.lock().capacity
    }

    /// Number of workers of the traced runtime (0 if the runtime never started).
    pub fn worker_count(&self) -> usize {
        self.inner.lock().workers
    }

    /// A snapshot of the recorded events (oldest retained first).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.lock().events.iter().cloned().collect()
    }

    /// Serialises the trace to a JSON array.
    pub fn to_json(&self) -> String {
        let events = self.events();
        let mut out = String::from("[");
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n  {{\n    \"worker\": {},\n    \"label\": \"{}\",\n    \"start_ns\": {},\n    \"end_ns\": {}\n  }}",
                e.worker,
                json_escape(&e.label),
                e.start_ns,
                e.end_ns
            ));
        }
        if !events.is_empty() {
            out.push('\n');
        }
        out.push(']');
        out
    }

    /// Serialises the trace to CSV (`worker,label,start_ns,end_ns`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("worker,label,start_ns,end_ns\n");
        for e in self.events() {
            out.push_str(&format!(
                "{},{},{},{}\n",
                e.worker, e.label, e.start_ns, e.end_ns
            ));
        }
        out
    }

    /// Records an event directly (useful for tests and for importing external traces).
    pub fn record(&self, event: TraceEvent) {
        self.inner.lock().push(event);
    }
}

/// Escapes a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl RuntimeObserver for TraceCollector {
    fn runtime_started(&self, workers: usize) {
        self.inner.lock().workers = workers;
    }

    fn task_executed(&self, execution: &TaskExecution<'_>) {
        let mut inner = self.inner.lock();
        let start_ns = execution
            .start
            .saturating_duration_since(inner.origin)
            .as_nanos() as u64;
        let end_ns = execution
            .end
            .saturating_duration_since(inner.origin)
            .as_nanos() as u64;
        let event = TraceEvent {
            worker: execution.worker,
            label: execution.label.to_string(),
            start_ns,
            end_ns,
        };
        inner.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let c = TraceCollector::new();
        assert!(c.is_empty());
        c.record(TraceEvent {
            worker: 0,
            label: "a".into(),
            start_ns: 0,
            end_ns: 10,
        });
        c.record(TraceEvent {
            worker: 1,
            label: "b".into(),
            start_ns: 5,
            end_ns: 25,
        });
        assert_eq!(c.len(), 2);
        let events = c.events();
        assert_eq!(events[1].duration_ns(), 20);
        let csv = c.to_csv();
        assert!(csv.contains("1,b,5,25"));
        let json = c.to_json();
        assert!(json.contains("\"label\": \"b\""));
    }

    #[test]
    fn capacity_bounds_the_collector_and_counts_drops() {
        let c = TraceCollector::with_capacity(3);
        for i in 0..10u64 {
            c.record(TraceEvent {
                worker: 0,
                label: format!("e{i}"),
                start_ns: i,
                end_ns: i,
            });
        }
        assert_eq!(c.len(), 3, "the ring must retain exactly `capacity` events");
        assert_eq!(c.dropped(), 7);
        let labels: Vec<String> = c.events().into_iter().map(|e| e.label).collect();
        assert_eq!(labels, ["e7", "e8", "e9"], "the most recent events win");
        c.reset();
        assert_eq!(c.dropped(), 0);
        assert_eq!(c.capacity(), 3);
    }

    #[test]
    fn reset_clears_events() {
        let c = TraceCollector::new();
        c.record(TraceEvent {
            worker: 0,
            label: "a".into(),
            start_ns: 0,
            end_ns: 10,
        });
        c.reset();
        assert!(c.is_empty());
    }

    #[test]
    fn collects_from_a_real_runtime() {
        use weakdep_core::{Runtime, RuntimeConfig};
        let collector = TraceCollector::shared();
        let rt = Runtime::new(RuntimeConfig::new().workers(2).observer(collector.clone()));
        rt.run(|ctx| {
            for _ in 0..10 {
                ctx.task().label("traced").spawn(|_| {
                    std::hint::black_box(0u64);
                });
            }
        });
        assert_eq!(collector.len(), 10);
        assert_eq!(collector.worker_count(), 2);
        assert!(collector.events().iter().all(|e| e.label == "traced"));
        assert!(collector.events().iter().all(|e| e.end_ns >= e.start_ns));
    }
}
