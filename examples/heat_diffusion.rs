//! Gauss-Seidel heat diffusion (the paper's §VIII-B workload) run through the public API, with
//! an effective-parallelism report for each variant — a miniature version of Figure 6.
//!
//! Run with:
//! ```text
//! cargo run --release --example heat_diffusion [-- <grid-side> <block-side> <iterations>]
//! ```

use weakdep::{Runtime, RuntimeConfig};
use weakdep_cachesim::{CacheConfig, CacheSimObserver};
use weakdep_kernels::gauss_seidel::{self, GsConfig, GsVariant};
use weakdep_trace::TraceCollector;

fn main() {
    let args: Vec<usize> = std::env::args()
        .skip(1)
        .filter_map(|a| a.parse().ok())
        .collect();
    let side = args.first().copied().unwrap_or(512);
    let ts = args.get(1).copied().unwrap_or(64);
    let iterations = args.get(2).copied().unwrap_or(24);
    assert!(side % ts == 0, "the block side must divide the grid side");

    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2);
    let trace = TraceCollector::shared();
    let cachesim = CacheSimObserver::shared(CacheConfig::default());
    let rt = Runtime::new(
        RuntimeConfig::new()
            .workers(workers)
            .observer(trace.clone())
            .observer(cachesim.clone()),
    );

    let cfg = GsConfig {
        blocks: side / ts,
        ts,
        iterations,
    };
    println!(
        "heat diffusion: {side}x{side} grid, {ts}x{ts} blocks, {iterations} iterations, {workers} workers\n"
    );
    println!(
        "{:<20} {:>10} {:>14} {:>14} {:>12}",
        "variant", "GFlop/s", "parallelism", "L2 miss ratio", "verified"
    );

    for variant in GsVariant::all() {
        trace.reset();
        cachesim.reset();
        let (run, result) = gauss_seidel::run(&rt, variant, &cfg);
        let summary = weakdep_trace::summarize(&trace.events());
        let ok = gauss_seidel::verify(&cfg, &result);
        println!(
            "{:<20} {:>10.3} {:>14.2} {:>14.3} {:>12}",
            variant.name(),
            run.gops(),
            summary.effective_parallelism,
            cachesim.miss_ratio(),
            if ok { "yes" } else { "NO" }
        );
    }
}
