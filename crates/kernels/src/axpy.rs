//! The *Multiple AXPY* benchmark (§VIII-A of the paper).
//!
//! The benchmark performs `calls` invocations of `y ← α·x + y` over the *same* pair of vectors,
//! so the block tasks of call `k+1` depend on the block tasks of call `k` through `y`. Table I of
//! the paper defines five implementation variants differing in how nesting, dependencies and the
//! synchronisation between nesting levels are expressed; all five are reproduced here with the
//! `weakdep` API (see [`AxpyVariant`]).

use std::time::Instant;

use weakdep_core::{Runtime, SharedSlice, TaskCtx};

use crate::KernelRun;

/// The five implementation variants of Table I.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum AxpyVariant {
    /// Nesting, weak outer dependencies, `weakwait`, plus the `release` directive after creating
    /// each subtask (the paper's `nest-weak-release`).
    NestWeakRelease,
    /// Nesting, weak outer dependencies and `weakwait` (the paper's `nest-weak`, Listing 5).
    NestWeak,
    /// Nesting with regular (strong) dependencies and a `taskwait` at the end of the outer task
    /// (the paper's `nest-depend`, the OpenMP 4.5 baseline).
    NestDepend,
    /// No outer level of tasks; block tasks with dependencies created directly by the caller
    /// (the paper's `flat-depend`).
    FlatDepend,
    /// No outer level, no dependencies; each call is isolated with a `taskwait`
    /// (the paper's `flat-taskwait`, the fork-join baseline).
    FlatTaskwait,
}

impl AxpyVariant {
    /// All variants, in the order of Table I.
    pub fn all() -> [AxpyVariant; 5] {
        [
            AxpyVariant::NestWeakRelease,
            AxpyVariant::NestWeak,
            AxpyVariant::NestDepend,
            AxpyVariant::FlatDepend,
            AxpyVariant::FlatTaskwait,
        ]
    }

    /// The name used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            AxpyVariant::NestWeakRelease => "nest-weak-release",
            AxpyVariant::NestWeak => "nest-weak",
            AxpyVariant::NestDepend => "nest-depend",
            AxpyVariant::FlatDepend => "flat-depend",
            AxpyVariant::FlatTaskwait => "flat-taskwait",
        }
    }

    /// Whether the variant uses an outer level of tasks (the "Nested" column of Table I).
    pub fn nested(&self) -> bool {
        matches!(
            self,
            AxpyVariant::NestWeakRelease | AxpyVariant::NestWeak | AxpyVariant::NestDepend
        )
    }

    /// The "Dependencies / Outer" column of Table I.
    pub fn outer_dependencies(&self) -> &'static str {
        match self {
            AxpyVariant::NestWeakRelease | AxpyVariant::NestWeak => "weak",
            AxpyVariant::NestDepend => "regular",
            AxpyVariant::FlatDepend | AxpyVariant::FlatTaskwait => "—",
        }
    }

    /// The "Dependencies / Inner" column of Table I.
    pub fn inner_dependencies(&self) -> &'static str {
        match self {
            AxpyVariant::FlatTaskwait => "no",
            _ => "regular",
        }
    }

    /// The "Synchronization between levels" column of Table I.
    pub fn synchronization(&self) -> &'static str {
        match self {
            AxpyVariant::NestWeakRelease => "weakwait and release directive",
            AxpyVariant::NestWeak => "weakwait",
            AxpyVariant::NestDepend => "taskwait",
            AxpyVariant::FlatDepend => "no",
            AxpyVariant::FlatTaskwait => "taskwait",
        }
    }
}

/// Problem configuration for the Multiple AXPY benchmark.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct AxpyConfig {
    /// Vector length in elements (the paper uses `384 × 2^20`).
    pub n: usize,
    /// Number of axpy calls over the same vectors (the paper uses 20).
    pub calls: usize,
    /// Elements processed by each leaf task (the paper sweeps `4×2^10 … 64×2^10`).
    pub task_size: usize,
    /// The scalar α.
    pub alpha: f64,
}

impl AxpyConfig {
    /// A configuration sized for unit tests and quick runs.
    pub fn small() -> Self {
        AxpyConfig {
            n: 1 << 14,
            calls: 5,
            task_size: 1 << 10,
            alpha: 1.5,
        }
    }

    /// The paper's configuration (384·2²⁰ elements, 20 calls).
    pub fn paper(task_size: usize) -> Self {
        AxpyConfig {
            n: 384 << 20,
            calls: 20,
            task_size,
            alpha: 1.000001,
        }
    }

    /// Number of leaf tasks per call.
    pub fn blocks(&self) -> usize {
        self.n.div_ceil(self.task_size)
    }

    /// Floating-point operations performed by the whole benchmark (2 per element per call).
    pub fn flops(&self) -> f64 {
        2.0 * self.n as f64 * self.calls as f64
    }
}

/// Spawns the block tasks of one axpy call as children of `ctx`, as one `spawn_each` wave (one
/// dependency-domain lock acquisition for the whole call); every block runs the one shared
/// body. With `depend`, block `i` declares `in x[block]` and `inout y[block]`. Without it (the
/// `flat-taskwait` variant: no `depend` clauses at all, so no dependency-calculation overhead)
/// it declares the same two regions as footprint hints, so the cache model and the accessors
/// still see what the task touches.
fn spawn_blocks(
    ctx: &TaskCtx<'_>,
    x: &SharedSlice<f64>,
    y: &SharedSlice<f64>,
    cfg: &AxpyConfig,
    depend: bool,
) {
    let (n, ts, alpha) = (cfg.n, cfg.task_size, cfg.alpha);
    let block = move |i: usize| i * ts..((i + 1) * ts).min(n);
    let (xi, yi) = (x.clone(), y.clone());
    ctx.spawn_each(
        cfg.blocks(),
        |i, c| {
            let (xr, yr) = (x.region(block(i)), y.region(block(i)));
            if depend {
                c.input(xr).inout(yr);
            } else {
                c.footprint_hint(xr, false).footprint_hint(yr, true);
            }
            c.label("axpy-block");
        },
        move |t, i| {
            let xs = xi.read(t, block(i));
            let ys = yi.write(t, block(i));
            for (yv, xv) in ys.iter_mut().zip(xs) {
                *yv += alpha * *xv;
            }
        },
    );
}

/// Runs the Multiple AXPY benchmark in the given variant on `rt`, using the provided vectors
/// (they are modified in place). Returns timing information.
pub fn run_on(
    rt: &Runtime,
    variant: AxpyVariant,
    cfg: &AxpyConfig,
    x: &SharedSlice<f64>,
    y: &SharedSlice<f64>,
) -> KernelRun {
    assert_eq!(x.len(), cfg.n);
    assert_eq!(y.len(), cfg.n);
    let start_time = Instant::now();
    let cfg = *cfg;
    let (x, y) = (x.clone(), y.clone());
    rt.run(move |root| {
        for _ in 0..cfg.calls {
            match variant {
                AxpyVariant::NestWeak | AxpyVariant::NestWeakRelease => {
                    // Listing 5: outer task with weak accesses over the whole vectors + weakwait.
                    let (xo, yo) = (x.clone(), y.clone());
                    let release = variant == AxpyVariant::NestWeakRelease;
                    root.task()
                        .weak_input(x.region(0..cfg.n))
                        .weak_inout(y.region(0..cfg.n))
                        .weakwait()
                        .label("axpy-outer")
                        .spawn(move |outer| {
                            // One wave per call: all block tasks register under a single
                            // acquisition of the outer task's domain lock.
                            spawn_blocks(outer, &xo, &yo, &cfg, true);
                            if release {
                                // nest-weak-release: the outer task asserts it will no longer
                                // reference the blocks it has created tasks for (§V release
                                // directive).
                                let n = cfg.n;
                                for start in (0..n).step_by(cfg.task_size) {
                                    let end = (start + cfg.task_size).min(n);
                                    outer.release(xo.region(start..end));
                                    outer.release(yo.region(start..end));
                                }
                            }
                        });
                }
                AxpyVariant::NestDepend => {
                    // Outer task with *strong* dependencies and a taskwait at the end (OpenMP 4.5).
                    let (xo, yo) = (x.clone(), y.clone());
                    root.task()
                        .input(x.region(0..cfg.n))
                        .inout(y.region(0..cfg.n))
                        .label("axpy-outer")
                        .spawn(move |outer| {
                            spawn_blocks(outer, &xo, &yo, &cfg, true);
                            outer.taskwait();
                        });
                }
                AxpyVariant::FlatDepend => {
                    spawn_blocks(root, &x, &y, &cfg, true);
                }
                AxpyVariant::FlatTaskwait => {
                    spawn_blocks(root, &x, &y, &cfg, false);
                    root.taskwait();
                }
            }
        }
    });
    let elapsed = start_time.elapsed();
    KernelRun {
        elapsed,
        operations: cfg.flops(),
        tasks: cfg.calls * (cfg.blocks() + usize::from(variant.nested())),
    }
}

/// Allocates the vectors, runs the benchmark and returns the result together with the output
/// vector (for verification).
pub fn run(rt: &Runtime, variant: AxpyVariant, cfg: &AxpyConfig) -> (KernelRun, Vec<f64>) {
    let x = SharedSlice::<f64>::new(cfg.n);
    let y = SharedSlice::<f64>::new(cfg.n);
    initialize(&x, &y);
    let run = run_on(rt, variant, cfg, &x, &y);
    (run, y.snapshot())
}

/// Deterministic initialisation used by benchmarks and the sequential reference.
pub fn initialize(x: &SharedSlice<f64>, y: &SharedSlice<f64>) {
    x.init_with(|i| (i % 97) as f64 * 0.25 + 1.0);
    y.init_with(|i| (i % 31) as f64 * 0.5);
}

/// Sequential reference: `calls` axpy invocations over freshly initialised vectors.
pub fn reference(cfg: &AxpyConfig) -> Vec<f64> {
    let mut x = vec![0.0f64; cfg.n];
    let mut y = vec![0.0f64; cfg.n];
    for (i, v) in x.iter_mut().enumerate() {
        *v = (i % 97) as f64 * 0.25 + 1.0;
    }
    for (i, v) in y.iter_mut().enumerate() {
        *v = (i % 31) as f64 * 0.5;
    }
    for _ in 0..cfg.calls {
        for i in 0..cfg.n {
            y[i] += cfg.alpha * x[i];
        }
    }
    y
}

/// `true` if `result` matches the sequential reference exactly (the parallel execution performs
/// the same floating-point operations in the same per-element order).
pub fn verify(cfg: &AxpyConfig, result: &[f64]) -> bool {
    let expected = reference(cfg);
    expected == result
}

#[cfg(test)]
mod tests {
    use super::*;
    use weakdep_core::{Runtime, RuntimeConfig, SchedulingPolicy};

    #[test]
    fn table1_metadata_matches_the_paper() {
        assert_eq!(AxpyVariant::all().len(), 5);
        assert_eq!(AxpyVariant::NestWeak.name(), "nest-weak");
        assert!(AxpyVariant::NestWeak.nested());
        assert!(!AxpyVariant::FlatDepend.nested());
        assert_eq!(
            AxpyVariant::NestWeakRelease.synchronization(),
            "weakwait and release directive"
        );
        assert_eq!(AxpyVariant::FlatTaskwait.inner_dependencies(), "no");
        assert_eq!(AxpyVariant::NestDepend.outer_dependencies(), "regular");
    }

    #[test]
    fn config_helpers() {
        let cfg = AxpyConfig {
            n: 1000,
            calls: 3,
            task_size: 300,
            alpha: 2.0,
        };
        assert_eq!(cfg.blocks(), 4);
        assert_eq!(cfg.flops(), 6000.0);
    }

    #[test]
    fn every_variant_computes_the_reference_result() {
        let rt = Runtime::with_workers(4);
        let cfg = AxpyConfig::small();
        for variant in AxpyVariant::all() {
            let (_run, result) = run(&rt, variant, &cfg);
            assert!(
                verify(&cfg, &result),
                "variant {} produced a wrong result",
                variant.name()
            );
        }
    }

    /// Every variant's blocks are one `spawn_each` wave per call — `flat-taskwait`'s rule
    /// writes footprint hints where the others write `in`/`inout` — and each computes the
    /// reference bit for bit under every scheduling policy.
    #[test]
    fn every_variant_computes_the_reference_under_every_policy() {
        let cfg = AxpyConfig {
            n: 10_007,
            calls: 3,
            task_size: 512,
            alpha: 0.75,
        };
        for policy in SchedulingPolicy::all() {
            let rt = Runtime::new(RuntimeConfig::new().workers(2).scheduling_policy(policy));
            for variant in AxpyVariant::all() {
                let before = rt.stats().tasks_executed;
                let (run, result) = run(&rt, variant, &cfg);
                let what = format!("variant {} under {policy:?}", variant.name());
                assert!(verify(&cfg, &result), "{what}");
                assert_eq!(rt.stats().tasks_executed - before, run.tasks, "{what}");
            }
        }
    }

    #[test]
    fn uneven_block_sizes_are_handled() {
        let rt = Runtime::with_workers(2);
        // n is deliberately not a multiple of the task size.
        let cfg = AxpyConfig {
            n: 10_007,
            calls: 3,
            task_size: 1024,
            alpha: 0.75,
        };
        for variant in [AxpyVariant::NestWeak, AxpyVariant::FlatDepend] {
            let (run, result) = run(&rt, variant, &cfg);
            assert!(verify(&cfg, &result), "variant {}", variant.name());
            assert_eq!(
                run.tasks,
                cfg.calls * (cfg.blocks() + 1).min(cfg.blocks() + usize::from(variant.nested()))
            );
        }
    }

    #[test]
    fn single_worker_still_produces_correct_results() {
        let rt = Runtime::with_workers(1);
        let cfg = AxpyConfig {
            n: 4096,
            calls: 4,
            task_size: 512,
            alpha: 1.25,
        };
        for variant in AxpyVariant::all() {
            let (_run, result) = run(&rt, variant, &cfg);
            assert!(verify(&cfg, &result), "variant {}", variant.name());
        }
    }
}
