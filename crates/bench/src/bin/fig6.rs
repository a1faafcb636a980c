//! Regenerates **Figure 6** of the paper: strong scalability of Gauss-Seidel expressed as
//! *effective parallelism* (busy time / wall time, computed from the execution trace) for blocks
//! of 64×64 (top graph) and 128×128 (bottom graph) elements.
//!
//! The shape to look for: the variants without weak dependencies stop scaling at a small core
//! count, while `nest-weak` keeps scaling to the full machine.
//!
//! Each point is the median of `--repeat` runs, printed with their interquartile range.

use weakdep_bench::{emit, CommonArgs, InstrumentedRuntime, Spread};
use weakdep_kernels::gauss_seidel::{self, GsConfig, GsVariant};

fn main() {
    let args = CommonArgs::parse();
    let (side, iterations, task_sides): (usize, usize, Vec<usize>) = if args.full {
        (27_648, 48, vec![64, 128])
    } else if args.quick {
        (256, 8, vec![64])
    } else {
        (1_024, 24, vec![64, 128])
    };

    let mut core_counts = Vec::new();
    let mut c = 1;
    while c < args.cores {
        core_counts.push(c);
        c *= 2;
    }
    core_counts.push(args.cores);
    core_counts.dedup();

    eprintln!(
        "fig6: gauss-seidel effective parallelism, grid {side}x{side}, {iterations} iterations, cores {core_counts:?}"
    );

    let headers = [
        "task_size",
        "cores",
        "variant",
        "effective_parallelism",
        "iqr",
    ];
    let mut rows = Vec::new();
    for &ts in &task_sides {
        if side % ts != 0 {
            eprintln!("  skipping task size {ts} (does not divide {side})");
            continue;
        }
        let cfg = GsConfig {
            blocks: side / ts,
            ts,
            iterations,
        };
        for &cores in &core_counts {
            let inst = InstrumentedRuntime::new(cores);
            let grid = gauss_seidel::Grid::new(cfg);
            for variant in GsVariant::all() {
                let parallelism: Vec<f64> = (0..args.repeat)
                    .map(|_| {
                        grid.reset();
                        inst.reset_observers();
                        gauss_seidel::run_on(&inst.runtime, variant, &grid);
                        weakdep_trace::summarize(&inst.trace.events()).effective_parallelism
                    })
                    .collect();
                let spread = Spread::of(&parallelism);
                let (median, iqr) = (spread.median, spread.iqr());
                rows.push(vec![
                    format!("{ts}x{ts}"),
                    cores.to_string(),
                    variant.name().to_string(),
                    format!("{median:.2}"),
                    format!("{iqr:.2}"),
                ]);
                eprintln!(
                    "  {ts:>3}x{ts:<3} {cores:>3} cores  {:<18} parallelism {median:>6.2} (IQR {iqr:.2})",
                    variant.name()
                );
            }
        }
    }
    emit(args.csv, &headers, &rows);
}
