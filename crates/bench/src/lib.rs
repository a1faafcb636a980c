//! Shared infrastructure for the figure/table binaries that regenerate the paper's evaluation.
//!
//! Every binary accepts the same command-line options:
//!
//! * `--cores N` — number of worker threads (default: all hardware threads);
//! * `--full` — paper-scale problem sizes (the defaults are laptop-scale);
//! * `--quick` — extra-small sizes for smoke testing;
//! * `--csv` — machine-readable CSV on stdout instead of the formatted table;
//! * `--repeat N` — repetitions per configuration. `fig3`–`fig7` report the median of the
//!   runs with its spread ([`Spread`]), since the best of a few runs on a shared host reads
//!   a lucky outlier as the figure.
//!
//! The checks of the runtime — allocation budgets, reclamation plateaus, fault isolation —
//! are integration tests of the root package (`tests/alloc_budgets.rs`,
//! `tests/reclamation.rs`, `tests/chaos.rs`), not binaries here.

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
}

impl Default for CommonArgs {
    fn default() -> Self {
        CommonArgs {
            cores: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            full: false,
            quick: false,
            csv: false,
            repeat: 1,
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
                "--help" | "-h" => {
                    eprintln!("{USAGE}");
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

const USAGE: &str = "options: [--cores N] [--full] [--quick] [--csv] [--repeat N]";

fn usage(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("{USAGE}");
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
        InstrumentedRuntime {
            runtime,
            cachesim,
            trace,
        }
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

/// The spread of the first measure of `runs`, each a `(measure, other)` pair of one run, and
/// the other measure of the median run — the lower middle one for an even count — so that a
/// figure reports both measures of one run.
pub fn median_run(runs: &mut [(f64, f64)]) -> (Spread, f64) {
    let measures: Vec<f64> = runs.iter().map(|run| run.0).collect();
    runs.sort_by(|a, b| a.0.total_cmp(&b.0));
    (Spread::of(&measures), runs[(runs.len() - 1) / 2].1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_spread_reads_the_median_quartiles_and_extremes() {
        let spread = Spread::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(
            spread,
            Spread {
                median: 3.0,
                q1: 2.0,
                q3: 4.0,
                min: 1.0,
                max: 5.0
            }
        );
        assert_eq!(spread.iqr(), 2.0);
        let even = Spread::of(&[4.0, 1.0, 2.0, 3.0]);
        assert_eq!((even.median, even.q1, even.q3), (2.5, 1.75, 3.25));
        let one = Spread::of(&[7.0]);
        assert_eq!(
            (one.median, one.iqr(), one.min, one.max),
            (7.0, 0.0, 7.0, 7.0)
        );
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
            ctx.task()
                .inout(data.region(0..1024))
                .label("bench-smoke")
                .spawn(move |t| {
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
}
