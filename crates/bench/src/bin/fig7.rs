//! Regenerates **Figure 7** of the paper: the execution timeline of a quicksort followed by a
//! prefix sum, (a) with `weakwait` and weak dependencies and (b) with `taskwait` and regular
//! dependencies.
//!
//! The paper shows a Paraver trace; here the trace is rendered as an ASCII timeline (one row per
//! worker, one symbol per task kind). The property to look for: in the weak variant, prefix-sum
//! and accumulation tasks appear *interleaved* with quicksort tasks (the two algorithms overlap),
//! while in the strong variant the prefix sum only starts after the last sort task finished
//! (asserted in every run, as is each run's result).
//!
//! The weak variant's overlap depends on timing: over a few `--quick` runs of one binary on a
//! 2-worker host it ranges from 0 % to over 80 %. So each variant runs `--repeat` times (at
//! least 5 with `--quick`); the bin prints the median, minimum and maximum overlap and the
//! timeline of the median run.

use weakdep_bench::{CommonArgs, InstrumentedRuntime, Spread};
use weakdep_kernels::sort_scan::{self, SortScanConfig, SortScanVariant};
use weakdep_trace::{render_timeline, TimelineOptions};

/// Fraction of the total span during which tasks of both algorithms were in flight.
fn overlap_fraction(events: &[weakdep_trace::TraceEvent]) -> f64 {
    let sort_labels = ["quick_sort", "insertion_sort"];
    let scan_labels = [
        "prefix_sum",
        "prefix_sum_rec",
        "prefix_sum_root",
        "accumulation",
    ];
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
        SortScanConfig {
            n: 1 << 24,
            ts: 1 << 15,
            seed: 7,
        }
    } else if args.quick {
        SortScanConfig {
            n: 1 << 16,
            ts: 1 << 11,
            seed: 7,
        }
    } else {
        SortScanConfig::default_bench()
    };

    eprintln!(
        "fig7: quicksort + prefix sum, n = {}, base case {} elements, {} workers",
        cfg.n, cfg.ts, args.cores
    );

    let runs = if args.quick {
        args.repeat.max(5)
    } else {
        args.repeat
    };
    let inst = InstrumentedRuntime::new(args.cores);
    for variant in [SortScanVariant::Weak, SortScanVariant::Strong] {
        // (overlap, elapsed ms, tasks, trace) of each run.
        let mut samples = Vec::with_capacity(runs);
        for _ in 0..runs {
            inst.reset_observers();
            let (run, result) = sort_scan::run(&inst.runtime, variant, &cfg);
            assert!(
                sort_scan::verify(&cfg, &result),
                "result verification failed"
            );
            let events = inst.trace.events();
            let overlap = overlap_fraction(&events);
            // The prefix-sum root's strong inout waits for the sort wrapper, whose body ends
            // after its taskwait; the weak variant's overlap depends on timing and is not
            // asserted.
            assert!(
                variant == SortScanVariant::Weak || overlap == 0.0,
                "the strong variant overlapped sort and scan ({:.1}%)",
                overlap * 100.0
            );
            samples.push((overlap, run.elapsed.as_secs_f64() * 1e3, run.tasks, events));
        }
        let overlaps: Vec<f64> = samples.iter().map(|sample| sample.0).collect();
        let spread = Spread::of(&overlaps);
        samples.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (_, elapsed_ms, tasks, events) = &samples[(samples.len() - 1) / 2];
        println!("=== {} ===", variant.name());
        println!(
            "sort/scan overlap over {runs} runs: median {:.1}%, min {:.1}%, max {:.1}% of the span",
            spread.median * 100.0,
            spread.min * 100.0,
            spread.max * 100.0
        );
        println!("median run: elapsed {elapsed_ms:.3} ms, tasks: {tasks}");
        print!(
            "{}",
            render_timeline(
                events,
                &TimelineOptions {
                    width: 110,
                    legend: true
                }
            )
        );
        println!();
    }
}
