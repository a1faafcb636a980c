//! Regenerates **Figure 3** of the paper: Multiple AXPY performance (GFlop/s, top graph) and
//! simulated L2 data-cache miss ratio (bottom graph) as a function of the leaf-task size, for
//! the five variants of Table I.
//!
//! The paper runs 20 calls over vectors of 384·2²⁰ doubles on 48 cores and sweeps task sizes
//! 4·2¹⁰ … 64·2¹⁰ elements. The default here is laptop-scale (`--full` restores the paper's
//! sizes); the *shape* to look for is:
//!
//! * `nest-weak-release` ≥ `nest-weak` > `flat-depend` > `flat-taskwait` ≈ `nest-depend` in
//!   GFlop/s at small/medium task sizes, and
//! * a visibly lower miss ratio for the variants that expose the inner dependencies to the
//!   scheduler (`nest-weak*`, `flat-depend`).
//!
//! Each point is the median GFlop/s of `--repeat` runs, printed with its interquartile range,
//! and the miss ratio of that median run.

use weakdep_bench::{emit, median_run, CommonArgs, InstrumentedRuntime};
use weakdep_core::SharedSlice;
use weakdep_kernels::axpy::{self, AxpyConfig, AxpyVariant};

fn main() {
    let args = CommonArgs::parse();
    let (n, calls, task_sizes): (usize, usize, Vec<usize>) = if args.full {
        (
            384 << 20,
            20,
            vec![4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10],
        )
    } else if args.quick {
        (1 << 18, 5, vec![4 << 10, 16 << 10])
    } else {
        (
            8 << 20,
            10,
            vec![4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10],
        )
    };

    eprintln!(
        "fig3: multiple axpy, n = {n} elements, {calls} calls, {} workers, {} repetition(s)",
        args.cores, args.repeat
    );

    let inst = InstrumentedRuntime::new(args.cores);
    let x = SharedSlice::<f64>::new(n);
    let y = SharedSlice::<f64>::new(n);

    let headers = [
        "task_size_elems",
        "variant",
        "gflops",
        "iqr",
        "l2_miss_ratio",
    ];
    let mut rows = Vec::new();
    for &task_size in &task_sizes {
        for variant in AxpyVariant::all() {
            let cfg = AxpyConfig {
                n,
                calls,
                task_size,
                alpha: 1.000001,
            };
            let mut runs: Vec<(f64, f64)> = (0..args.repeat)
                .map(|_| {
                    axpy::initialize(&x, &y);
                    inst.reset_observers();
                    let run = axpy::run_on(&inst.runtime, variant, &cfg, &x, &y);
                    (run.gops(), inst.cachesim.miss_ratio())
                })
                .collect();
            let (spread, miss) = median_run(&mut runs);
            let (median, iqr) = (spread.median, spread.iqr());
            rows.push(vec![
                task_size.to_string(),
                variant.name().to_string(),
                format!("{median:.3}"),
                format!("{iqr:.3}"),
                format!("{miss:.3}"),
            ]);
            eprintln!(
                "  task_size {task_size:>6}  {:<18} {median:>7.3} GFlop/s (IQR {iqr:.3})  miss {miss:.3}",
                variant.name()
            );
        }
    }
    emit(args.csv, &headers, &rows);
}
