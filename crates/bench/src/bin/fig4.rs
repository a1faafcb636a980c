//! Regenerates **Figure 4** of the paper: strong scalability of the Multiple AXPY benchmark
//! (GFlop/s vs. core count) with leaf tasks of 14·2¹⁰ elements, for the five variants.
//!
//! The shape to look for: the two weak variants (and `flat-depend`) keep scaling with the core
//! count, while `nest-depend` and `flat-taskwait` flatten early.
//!
//! Each point is the median of `--repeat` runs, printed with their interquartile range.

use weakdep_bench::{emit, CommonArgs, Spread};
use weakdep_core::{Runtime, SharedSlice};
use weakdep_kernels::axpy::{self, AxpyConfig, AxpyVariant};

fn main() {
    let args = CommonArgs::parse();
    let (n, calls, task_size): (usize, usize, usize) = if args.full {
        (384 << 20, 20, 14 << 10)
    } else if args.quick {
        (1 << 18, 4, 4 << 10)
    } else {
        (8 << 20, 10, 14 << 10)
    };

    // Core counts: 1, 2, 4, ... up to the requested maximum (the paper plots 4..48).
    let mut core_counts = Vec::new();
    let mut c = 1;
    while c < args.cores {
        core_counts.push(c);
        c *= 2;
    }
    core_counts.push(args.cores);
    core_counts.dedup();

    eprintln!(
        "fig4: axpy strong scaling, n = {n}, {calls} calls, task size {task_size}, cores {core_counts:?}"
    );

    let headers = ["cores", "variant", "gflops", "iqr"];
    let mut rows = Vec::new();
    let x = SharedSlice::<f64>::new(n);
    let y = SharedSlice::<f64>::new(n);
    for &cores in &core_counts {
        let rt = Runtime::with_workers(cores);
        for variant in AxpyVariant::all() {
            let cfg = AxpyConfig {
                n,
                calls,
                task_size,
                alpha: 1.000001,
            };
            let gops: Vec<f64> = (0..args.repeat)
                .map(|_| {
                    axpy::initialize(&x, &y);
                    axpy::run_on(&rt, variant, &cfg, &x, &y).gops()
                })
                .collect();
            let spread = Spread::of(&gops);
            let (median, iqr) = (spread.median, spread.iqr());
            rows.push(vec![
                cores.to_string(),
                variant.name().to_string(),
                format!("{median:.3}"),
                format!("{iqr:.3}"),
            ]);
            eprintln!(
                "  {cores:>3} cores  {:<18} {median:>7.3} GFlop/s (IQR {iqr:.3})",
                variant.name()
            );
        }
    }
    emit(args.csv, &headers, &rows);
}
