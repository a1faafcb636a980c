//! Regenerates **Figure 5** of the paper: Gauss-Seidel performance (GFlop/s) as a function of
//! the block/task size (32² … 256² elements) for the four variants, with 48 iterations.
//!
//! The shape to look for: `nest-weak` matches `flat-depend` at every task size and beats it at
//! the smallest ones (parallel task instantiation); `nest-depend` is far below both because the
//! strict outer dependencies serialise the iterations; the `release` directive adds overhead
//! rather than helping (as the paper reports for this benchmark).
//!
//! Every repetition's final grid is asserted bit-identical to the sequential reference, computed
//! once per task size. Each point is the median of `--repeat` runs, printed with their
//! interquartile range.

use weakdep_bench::{emit, CommonArgs, Spread};
use weakdep_core::Runtime;
use weakdep_kernels::gauss_seidel::{self, GsConfig, GsVariant};

fn main() {
    let args = CommonArgs::parse();
    // Grid side in elements; the paper uses 27648 (≈ 6 GiB) — the default here is laptop-scale.
    let (side, iterations, task_sides): (usize, usize, Vec<usize>) = if args.full {
        (27_648, 48, vec![32, 64, 128, 256])
    } else if args.quick {
        (256, 8, vec![32, 64])
    } else {
        (1_024, 48, vec![32, 64, 128, 256])
    };

    eprintln!(
        "fig5: gauss-seidel, grid {side}x{side}, {iterations} iterations, {} workers",
        args.cores
    );

    let rt = Runtime::with_workers(args.cores);
    let headers = ["task_size", "variant", "gflops", "iqr"];
    let mut rows = Vec::new();
    for &ts in &task_sides {
        if side % ts != 0 {
            eprintln!("  skipping task size {ts} (does not divide the grid side {side})");
            continue;
        }
        let cfg = GsConfig {
            blocks: side / ts,
            ts,
            iterations,
        };
        let grid = gauss_seidel::Grid::new(cfg);
        let expected: Vec<u64> = gauss_seidel::reference(&cfg)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        for variant in GsVariant::all() {
            let gops: Vec<f64> = (0..args.repeat)
                .map(|_| {
                    grid.reset();
                    let run = gauss_seidel::run_on(&rt, variant, &grid);
                    assert!(
                        grid.snapshot()
                            .iter()
                            .map(|v| v.to_bits())
                            .eq(expected.iter().copied()),
                        "{ts}x{ts} {}: the final grid differs from the reference",
                        variant.name()
                    );
                    run.gops()
                })
                .collect();
            let spread = Spread::of(&gops);
            let (median, iqr) = (spread.median, spread.iqr());
            rows.push(vec![
                format!("{ts}x{ts}"),
                variant.name().to_string(),
                format!("{median:.3}"),
                format!("{iqr:.3}"),
            ]);
            eprintln!(
                "  {ts:>3}x{ts:<3}  {:<18} {median:>8.3} GFlop/s (IQR {iqr:.3})",
                variant.name()
            );
        }
    }
    emit(args.csv, &headers, &rows);
}
