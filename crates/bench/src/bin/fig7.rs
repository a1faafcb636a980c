//! Regenerates **Figure 7** of the paper: the execution timeline of a quicksort followed by a
//! prefix sum, (a) with `weakwait` and weak dependencies and (b) with `taskwait` and regular
//! dependencies.
//!
//! The paper shows a Paraver trace; here the trace is rendered as an ASCII timeline (one row per
//! worker, one symbol per task kind). The property to look for: in the weak variant, prefix-sum
//! and accumulation tasks appear *interleaved* with quicksort tasks (the two algorithms overlap),
//! while in the strong variant the prefix sum only starts after the last sort task finished
//! (asserted, as is each variant's result).

use weakdep_bench::{CommonArgs, InstrumentedRuntime};
use weakdep_kernels::sort_scan::{self, SortScanConfig, SortScanVariant};
use weakdep_trace::{render_timeline, TimelineOptions};

/// Fraction of the total span during which tasks of both algorithms were in flight.
fn overlap_fraction(events: &[weakdep_trace::TraceEvent]) -> f64 {
    let sort_labels = ["quick_sort", "insertion_sort"];
    let scan_labels = ["prefix_sum", "prefix_sum_rec", "prefix_sum_root", "accumulation"];
    let span_start = events.iter().map(|e| e.start_ns).min().unwrap_or(0);
    let span_end = events.iter().map(|e| e.end_ns).max().unwrap_or(0);
    if span_end <= span_start {
        return 0.0;
    }
    let last_sort_end = events
        .iter()
        .filter(|e| sort_labels.contains(&e.label.as_str()))
        .map(|e| e.end_ns)
        .max()
        .unwrap_or(span_start);
    let first_scan_start = events
        .iter()
        .filter(|e| scan_labels.contains(&e.label.as_str()))
        .map(|e| e.start_ns)
        .min()
        .unwrap_or(span_end);
    if last_sort_end <= first_scan_start {
        0.0
    } else {
        (last_sort_end - first_scan_start) as f64 / (span_end - span_start) as f64
    }
}

fn main() {
    let args = CommonArgs::parse();
    let cfg = if args.full {
        SortScanConfig { n: 1 << 24, ts: 1 << 15, seed: 7 }
    } else if args.quick {
        SortScanConfig { n: 1 << 16, ts: 1 << 11, seed: 7 }
    } else {
        SortScanConfig::default_bench()
    };

    eprintln!(
        "fig7: quicksort + prefix sum, n = {}, base case {} elements, {} workers",
        cfg.n, cfg.ts, args.cores
    );

    let inst = InstrumentedRuntime::new(args.cores);
    for variant in [SortScanVariant::Weak, SortScanVariant::Strong] {
        inst.reset_observers();
        let (run, result) = sort_scan::run(&inst.runtime, variant, &cfg);
        assert!(sort_scan::verify(&cfg, &result), "result verification failed");
        let events = inst.trace.events();
        let overlap = overlap_fraction(&events);
        println!("=== {} ===", variant.name());
        println!(
            "elapsed: {:.3} ms, tasks: {}, sort/scan overlap: {:.1}% of the span",
            run.elapsed.as_secs_f64() * 1e3,
            run.tasks,
            overlap * 100.0
        );
        // The prefix-sum root's strong inout waits for the sort wrapper, whose body ends after
        // its taskwait; the weak variant's overlap depends on timing and is not asserted.
        assert!(
            variant == SortScanVariant::Weak || overlap == 0.0,
            "the strong variant overlapped sort and scan ({:.1}%)",
            overlap * 100.0
        );
        print!(
            "{}",
            render_timeline(&events, &TimelineOptions { width: 110, legend: true })
        );
        println!();
    }
}
