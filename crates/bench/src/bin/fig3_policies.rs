//! **Policy ablation of Figure 3**: sweeps every [`SchedulingPolicy`] over the Multiple AXPY
//! and Gauss-Seidel variants, printing GFlop/s and the simulated L2 miss ratio per
//! (policy, kernel, variant) cell (`--csv` for CSV).
//!
//! The paper's Figure 3 effect is a *scheduling* effect: §VIII-A's "dispatch a successor to
//! the same core that released its dependency" is what lowers the miss ratio of the variants
//! that expose fine-grained dependencies. This binary makes the claim an ablation: the same
//! kernels under `locality-slot` / `depth-first` must show a strictly lower simulated miss
//! ratio than the no-locality `fifo` baseline on the `nest-weak-release` AXPY variant —
//! checked here, and asserted by `tests/policy_ablation.rs`. The cache model sees only the
//! (task → worker, footprint, order) schedule, so the ordering is reproducible with one worker
//! even though wall-clock contention effects are not.
//!
//! Each cell is the median GFlop/s of `--repeat` runs with its interquartile range, and the
//! miss ratio of that median run; the ordering line reads these medians' miss ratios.

use weakdep_bench::{emit, median_run, CommonArgs, InstrumentedRuntime};
use weakdep_core::{SchedulingPolicy, SharedSlice};
use weakdep_kernels::axpy::{self, AxpyConfig, AxpyVariant};
use weakdep_kernels::gauss_seidel::{self, GsConfig, GsVariant};

struct Row {
    policy: &'static str,
    kernel: &'static str,
    variant: &'static str,
    task_size: usize,
    gflops: f64,
    iqr: f64,
    miss_ratio: f64,
}

impl Row {
    /// The cell of `runs`' (GFlop/s, miss ratio) pairs, printed as it is made.
    fn of(
        policy: SchedulingPolicy,
        kernel: &'static str,
        variant: &'static str,
        task_size: usize,
        runs: &mut [(f64, f64)],
    ) -> Row {
        let (spread, miss_ratio) = median_run(runs);
        let (gflops, iqr) = (spread.median, spread.iqr());
        eprintln!(
            "  {:<18} {kernel:<12} {variant:<18} {gflops:>7.3} GFlop/s (IQR {iqr:.3})  miss {miss_ratio:.3}",
            policy.name()
        );
        Row {
            policy: policy.name(),
            kernel,
            variant,
            task_size,
            gflops,
            iqr,
            miss_ratio,
        }
    }
}

fn main() {
    let args = CommonArgs::parse();
    // AXPY geometry: vectors far larger than the simulated 256 KiB L2, leaf tasks well inside
    // it — the regime where chain-following (depth-first / successor slot) hits and
    // breadth-first (fifo) streams the whole vector per call.
    // `calls` stays ≥ 12 in every mode: the single-worker chain formation relies on the
    // injector batch-steal moving *runs* of outer tasks onto the deque (whose LIFO order then
    // registers future calls before earlier calls drain); with only a handful of calls the
    // batch moves singletons and the locality policies degrade to fifo's schedule.
    let (n, calls, task_size): (usize, usize, usize) = if args.full {
        (8 << 20, 20, 16 << 10)
    } else if args.quick {
        (1 << 17, 12, 4 << 10)
    } else {
        (1 << 20, 16, 4 << 10)
    };
    let gs_cfg = if args.full {
        GsConfig {
            blocks: 16,
            ts: 64,
            iterations: 48,
        }
    } else if args.quick {
        GsConfig {
            blocks: 4,
            ts: 16,
            iterations: 6,
        }
    } else {
        GsConfig {
            blocks: 8,
            ts: 32,
            iterations: 12,
        }
    };

    eprintln!(
        "fig3_policies: axpy n = {n}, {calls} calls, task_size {task_size}; gauss-seidel \
         {0}x{0} blocks of {1}x{1}, {2} iterations; {3} workers, {4} repetition(s)",
        gs_cfg.blocks, gs_cfg.ts, gs_cfg.iterations, args.cores, args.repeat
    );

    let mut rows: Vec<Row> = Vec::new();
    for policy in SchedulingPolicy::all() {
        let inst = InstrumentedRuntime::with_policy(args.cores, policy);
        let x = SharedSlice::<f64>::new(n);
        let y = SharedSlice::<f64>::new(n);
        for variant in AxpyVariant::all() {
            let cfg = AxpyConfig {
                n,
                calls,
                task_size,
                alpha: 1.000001,
            };
            let mut runs: Vec<(f64, f64)> = (0..args.repeat)
                .map(|repeat| {
                    axpy::initialize(&x, &y);
                    inst.reset_observers();
                    let run = axpy::run_on(&inst.runtime, variant, &cfg, &x, &y);
                    if repeat == 0 {
                        // Policies must be observationally equivalent on data results.
                        assert!(
                            axpy::verify(&cfg, &y.snapshot()),
                            "policy {} produced a wrong {} result",
                            policy.name(),
                            variant.name()
                        );
                    }
                    (run.gops(), inst.cachesim.miss_ratio())
                })
                .collect();
            rows.push(Row::of(
                policy,
                "axpy",
                variant.name(),
                task_size,
                &mut runs,
            ));
        }
        for variant in GsVariant::all() {
            let mut runs: Vec<(f64, f64)> = (0..args.repeat)
                .map(|repeat| {
                    inst.reset_observers();
                    let (run, result) = gauss_seidel::run(&inst.runtime, variant, &gs_cfg);
                    if repeat == 0 {
                        assert!(
                            gauss_seidel::verify(&gs_cfg, &result),
                            "policy {} produced a wrong gauss-seidel {} result",
                            policy.name(),
                            variant.name()
                        );
                    }
                    (run.gops(), inst.cachesim.miss_ratio())
                })
                .collect();
            let tile = gs_cfg.ts * gs_cfg.ts;
            rows.push(Row::of(
                policy,
                "gauss-seidel",
                variant.name(),
                tile,
                &mut runs,
            ));
        }
    }

    let headers = [
        "policy",
        "kernel",
        "variant",
        "task_size",
        "gflops",
        "iqr",
        "l2_miss_ratio",
    ];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.policy.to_string(),
                r.kernel.to_string(),
                r.variant.to_string(),
                r.task_size.to_string(),
                format!("{:.3}", r.gflops),
                format!("{:.3}", r.iqr),
                format!("{:.4}", r.miss_ratio),
            ]
        })
        .collect();
    emit(args.csv, &headers, &table);

    // The Figure 3 ordering on the headline cell: every locality policy must simulate strictly
    // fewer L2 misses than the breadth-first baseline on nest-weak-release AXPY.
    let miss_of = |policy: &str| {
        rows.iter()
            .find(|r| r.policy == policy && r.kernel == "axpy" && r.variant == "nest-weak-release")
            .map(|r| r.miss_ratio)
            .expect("missing nest-weak-release row")
    };
    let fifo = miss_of("fifo");
    let ordering_ok = ["locality-slot", "depth-first"]
        .iter()
        .all(|p| miss_of(p) < fifo);
    eprintln!(
        "fig3 ordering (nest-weak-release axpy): locality-slot {:.4} / depth-first {:.4} vs \
         fifo {:.4} -> {}",
        miss_of("locality-slot"),
        miss_of("depth-first"),
        fifo,
        if ordering_ok { "OK" } else { "VIOLATED" }
    );

    // The hard assertion on this ordering lives in `tests/policy_ablation.rs`, which pins the
    // deterministic single-worker configuration; here the outcome is printed so sweeps at other
    // worker counts stay observable without flaking.
}
