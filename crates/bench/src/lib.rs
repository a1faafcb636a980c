//! Shared infrastructure for the figure/table binaries that regenerate the paper's evaluation.
//!
//! Every binary accepts the same command-line options:
//!
//! * `--cores N` — number of worker threads (default: all hardware threads);
//! * `--full` — paper-scale problem sizes (the defaults are laptop-scale);
//! * `--quick` — extra-small sizes for smoke testing;
//! * `--csv` — machine-readable CSV on stdout instead of the formatted table;
//! * `--repeat N` — repetitions per configuration. `fig4`–`fig7` report the median of the
//!   runs with its spread ([`Spread`]), since the best of a few runs on a shared host reads
//!   a lucky outlier as the figure; `fig3` and `fig3_policies` still report the best run.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::sync::Arc;

use weakdep_cachesim::{CacheConfig, CacheSimObserver};
use weakdep_core::{Runtime, RuntimeConfig, SchedulingPolicy};
use weakdep_trace::TraceCollector;

/// Options common to all figure binaries.
#[derive(Clone, Debug)]
pub struct CommonArgs {
    /// Worker threads to use (`--cores`).
    pub cores: usize,
    /// Paper-scale sizes (`--full`).
    pub full: bool,
    /// Smoke-test sizes (`--quick`).
    pub quick: bool,
    /// CSV output (`--csv`).
    pub csv: bool,
    /// Repetitions per configuration (`--repeat`).
    pub repeat: usize,
    /// Fail the run if a measured allocation count exceeds its ceiling or was not measured
    /// (`--enforce-alloc-budget`; honoured by `overheads`, `mixed_tenant` and
    /// `tasks_vs_assist`, which need `--features count-allocs` for the counter to move — see
    /// [`alloc_counter::check_budget`]).
    pub enforce_alloc_budget: bool,
}

impl Default for CommonArgs {
    fn default() -> Self {
        CommonArgs {
            cores: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            full: false,
            quick: false,
            csv: false,
            repeat: 1,
            enforce_alloc_budget: false,
        }
    }
}

impl CommonArgs {
    /// Parses the process arguments. Unknown options abort with a usage message.
    pub fn parse() -> Self {
        let mut args = CommonArgs::default();
        let mut iter = std::env::args().skip(1);
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--cores" => {
                    args.cores = iter
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--cores requires a positive integer"));
                }
                "--repeat" => {
                    args.repeat = iter
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--repeat requires a positive integer"));
                }
                "--full" => args.full = true,
                "--quick" => args.quick = true,
                "--csv" => args.csv = true,
                "--enforce-alloc-budget" => args.enforce_alloc_budget = true,
                "--help" | "-h" => {
                    eprintln!(
                        "options: [--cores N] [--full] [--quick] [--csv] [--repeat N] [--enforce-alloc-budget]"
                    );
                    std::process::exit(0);
                }
                other => usage(&format!("unknown option '{other}'")),
            }
        }
        args.cores = args.cores.max(1);
        args.repeat = args.repeat.max(1);
        args
    }
}

fn usage(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("options: [--cores N] [--full] [--quick] [--csv] [--repeat N] [--enforce-alloc-budget]");
    std::process::exit(2);
}

/// A runtime plus the observers the figures need (cache simulator and trace collector).
pub struct InstrumentedRuntime {
    /// The runtime itself.
    pub runtime: Runtime,
    /// The per-worker cache model (Figure 3's bottom graph).
    pub cachesim: Arc<CacheSimObserver>,
    /// The execution trace (Figures 6 and 7).
    pub trace: Arc<TraceCollector>,
}

impl InstrumentedRuntime {
    /// Builds a runtime with `cores` workers, a cache simulator and a trace collector attached.
    pub fn new(cores: usize) -> Self {
        Self::with_policy(cores, SchedulingPolicy::default())
    }

    /// Like [`InstrumentedRuntime::new`], with an explicit scheduling policy (the
    /// `fig3_policies` sweep).
    pub fn with_policy(cores: usize, policy: SchedulingPolicy) -> Self {
        let cachesim = CacheSimObserver::shared(CacheConfig::default());
        let trace = TraceCollector::shared();
        let runtime = Runtime::new(
            RuntimeConfig::new()
                .workers(cores)
                .scheduling_policy(policy)
                .observer(cachesim.clone())
                .observer(trace.clone()),
        );
        InstrumentedRuntime { runtime, cachesim, trace }
    }

    /// Clears the observers (between repetitions / configurations).
    pub fn reset_observers(&self) {
        self.cachesim.reset();
        self.trace.reset();
    }
}

/// Prints a formatted table: a header row followed by data rows, columns padded to equal width.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let print_row = |cells: &[String]| {
        let line: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(0)))
            .collect();
        println!("{}", line.join("  "));
    };
    print_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
    println!("{}", "-".repeat(total));
    for row in rows {
        print_row(row);
    }
}

/// Prints rows as CSV with the given header.
pub fn print_csv(headers: &[&str], rows: &[Vec<String>]) {
    println!("{}", headers.join(","));
    for row in rows {
        println!("{}", row.join(","));
    }
}

/// Prints either a table or CSV depending on `csv`.
pub fn emit(csv: bool, headers: &[&str], rows: &[Vec<String>]) {
    if csv {
        print_csv(headers, rows);
    } else {
        print_table(headers, rows);
    }
}

/// The median, quartiles and extremes of a sample of repeated runs (quartiles by linear
/// interpolation between the sorted values).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    /// The median.
    pub median: f64,
    /// The first quartile.
    pub q1: f64,
    /// The third quartile.
    pub q3: f64,
    /// The smallest value.
    pub min: f64,
    /// The largest value.
    pub max: f64,
}

impl Spread {
    /// The spread of `samples`, which must not be empty.
    pub fn of(samples: &[f64]) -> Spread {
        assert!(!samples.is_empty(), "a spread needs at least one sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let quantile = |p: f64| {
            let at = p * (sorted.len() - 1) as f64;
            let (low, high) = (at.floor() as usize, at.ceil() as usize);
            sorted[low] + (sorted[high] - sorted[low]) * (at - low as f64)
        };
        Spread {
            median: quantile(0.5),
            q1: quantile(0.25),
            q3: quantile(0.75),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
        }
    }

    /// The interquartile range, `q3 - q1`.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_spread_reads_the_median_quartiles_and_extremes() {
        let spread = Spread::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(spread, Spread { median: 3.0, q1: 2.0, q3: 4.0, min: 1.0, max: 5.0 });
        assert_eq!(spread.iqr(), 2.0);
        let even = Spread::of(&[4.0, 1.0, 2.0, 3.0]);
        assert_eq!((even.median, even.q1, even.q3), (2.5, 1.75, 3.25));
        let one = Spread::of(&[7.0]);
        assert_eq!((one.median, one.iqr(), one.min, one.max), (7.0, 0.0, 7.0, 7.0));
    }

    #[test]
    fn default_args_are_sane() {
        let args = CommonArgs::default();
        assert!(args.cores >= 1);
        assert_eq!(args.repeat, 1);
        assert!(!args.full && !args.quick && !args.csv);
    }

    #[test]
    fn instrumented_runtime_collects_observations() {
        let inst = InstrumentedRuntime::new(2);
        inst.runtime.run(|ctx| {
            let data = weakdep_core::SharedSlice::<f64>::new(1024);
            let d = data.clone();
            ctx.task().inout(data.region(0..1024)).label("bench-smoke").spawn(move |t| {
                d.write(t, 0..1024)[0] = 1.0;
            });
        });
        assert_eq!(inst.trace.len(), 1);
        assert!(inst.cachesim.total_stats().accesses() > 0);
        inst.reset_observers();
        assert_eq!(inst.trace.len(), 0);
        assert_eq!(inst.cachesim.total_stats().accesses(), 0);
    }

    #[test]
    fn table_formatting_does_not_panic() {
        print_table(&["a", "bbbb"], &[vec!["1".into(), "2".into()]]);
        print_csv(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        emit(true, &["a"], &[vec!["x".into()]]);
        emit(false, &["a"], &[vec!["x".into()]]);
    }

    #[test]
    fn an_unmeasured_alloc_count_violates_its_budget() {
        use alloc_counter::{check_budget, per_unit};
        assert_eq!(per_unit(0, 100), None);
        assert!(check_budget("x", per_unit(0, 100), 5.0).is_err());
        assert!(check_budget("x", per_unit(500, 100), 5.0).is_ok());
        assert!(check_budget("x", per_unit(501, 100), 5.0).is_err());
    }
}

/// Heap-allocation counting for the `count-allocs` feature: the `overheads`, `soak`,
/// `mixed_tenant` and `tasks_vs_assist` binaries install [`alloc_counter::CountingAllocator`] as
/// the global allocator when built with `--features count-allocs`, and report allocations per
/// task next to the throughput numbers.
/// The type itself is always compiled (it is inert unless registered via `#[global_allocator]`),
/// so only the registration in the binaries is feature-gated.
pub mod alloc_counter {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

    /// A pass-through global allocator that counts every allocation (and reallocation — each
    /// grow/shrink is a fresh trip to the allocator, which is exactly the hot-path cost the
    /// counter exists to expose). Frees are not counted: allocs/task is the metric.
    pub struct CountingAllocator;

    // SAFETY: defers every operation to `System` unchanged; the counter is a relaxed atomic.
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            // SAFETY: `layout` is forwarded unchanged; the caller upholds `GlobalAlloc::alloc`'s
            // contract and `System` is the real allocator.
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` was returned by `Self::alloc`/`Self::realloc`, which delegate to
            // `System` with the same layout — so it is a valid `System` allocation.
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            // SAFETY: as for `dealloc` — `ptr`/`layout` describe a live `System` allocation and
            // the caller upholds `GlobalAlloc::realloc`'s contract for `new_size`.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    /// Total heap allocations observed so far. Stays `0` unless [`CountingAllocator`] has been
    /// installed as the global allocator (the `count-allocs` feature of the bench binaries).
    pub fn allocations() -> u64 {
        ALLOCATIONS.load(Ordering::Relaxed)
    }

    /// Allocations per unit of work over a window in which [`allocations`] moved by `delta`.
    /// `None` when the counter did not move: the counting allocator is not installed, so the
    /// window was not measured (no real run is allocation-free).
    pub fn per_unit(delta: u64, units: usize) -> Option<f64> {
        (delta > 0 && units > 0).then(|| delta as f64 / units as f64)
    }

    /// The rule of every `--enforce-alloc-budget` gate: `what` passes only if it was measured
    /// and stays at or under `ceiling`. An unmeasured count (`None`, see [`per_unit`]) is a
    /// violation, so a gate built without `--features count-allocs` fails instead of passing
    /// on a counter that never moved. Returns the line to report either way.
    pub fn check_budget(what: &str, measured: Option<f64>, ceiling: f64) -> Result<String, String> {
        match measured {
            None => Err(format!("{what}: not measured (build with --features count-allocs)")),
            Some(a) if a > ceiling => Err(format!("{what}: {a:.3} > budget {ceiling}")),
            Some(a) => Ok(format!("{what}: {a:.3} <= {ceiling}")),
        }
    }

    /// Reports every [`check_budget`] outcome on stderr and exits with status 1 if any of them
    /// is a violation.
    pub fn enforce_budgets(outcomes: impl IntoIterator<Item = Result<String, String>>) {
        let mut violated = false;
        for outcome in outcomes {
            match outcome {
                Ok(line) => eprintln!("alloc budget ok: {line}"),
                Err(line) => {
                    eprintln!("alloc budget violated: {line}");
                    violated = true;
                }
            }
        }
        if violated {
            std::process::exit(1);
        }
    }
}
