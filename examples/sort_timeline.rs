//! Quicksort followed by a prefix sum, with an ASCII execution timeline for the weak and strong
//! variants — a miniature, interactive version of Figure 7.
//!
//! Run with:
//! ```text
//! cargo run --release --example sort_timeline [-- <elements> <base-case>]
//! ```

use weakdep::{Runtime, RuntimeConfig};
use weakdep_kernels::sort_scan::{self, SortScanConfig, SortScanVariant};
use weakdep_trace::{render_timeline, TimelineOptions, TraceCollector};

fn main() {
    let args: Vec<usize> = std::env::args()
        .skip(1)
        .filter_map(|a| a.parse().ok())
        .collect();
    let n = args.first().copied().unwrap_or(1 << 19);
    let ts = args.get(1).copied().unwrap_or(1 << 13);

    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2);
    let trace = TraceCollector::shared();
    let rt = Runtime::new(
        RuntimeConfig::new()
            .workers(workers)
            .observer(trace.clone()),
    );
    let cfg = SortScanConfig {
        n,
        ts,
        seed: 20170529,
    };

    println!("quicksort + prefix sum over {n} elements, base case {ts}, {workers} workers\n");
    for variant in SortScanVariant::all() {
        trace.reset();
        let (run, result) = sort_scan::run(&rt, variant, &cfg);
        assert!(
            sort_scan::verify(&cfg, &result),
            "wrong result for {}",
            variant.name()
        );
        println!(
            "=== {} ({:.2} ms) ===",
            variant.name(),
            run.elapsed.as_secs_f64() * 1e3
        );
        print!(
            "{}",
            render_timeline(
                &trace.events(),
                &TimelineOptions {
                    width: 100,
                    legend: true
                }
            )
        );
        println!();
    }
    println!(
        "Compare the two timelines: with weakwait + weak dependencies the prefix-sum tasks start\n\
         while quicksort tasks are still running; with taskwait + regular dependencies the scan\n\
         only starts after the whole sort has finished (Figure 7 of the paper)."
    );
}
