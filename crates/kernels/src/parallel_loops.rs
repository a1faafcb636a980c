//! The work-assisting loop kernels (ISSUE 10): prefix scan, chunked reduction and an
//! axpy-assist variant.
//!
//! Each kernel comes in (up to) three variants sharing one arithmetic definition, so results
//! are bitwise-comparable across them:
//!
//! * **assist** — the body is a single task whose loop runs through
//!   [`TaskCtx::for_each`](weakdep_core::TaskCtx::for_each) /
//!   [`TaskCtx::scan`](weakdep_core::TaskCtx::scan): chunks are claimed from an atomic
//!   cursor and idle workers assist (~0 allocations per chunk),
//! * **tasks** — the classic decomposition: one spawned task per block, ordered by declared
//!   dependencies (the per-task spawn/match cost the assist path avoids),
//! * **sequential** — the oracle.
//!
//! The scan and reduction use `u64` **wrapping** addition: associative and exact, so every
//! variant must agree bit-for-bit (the proptests in `tests/proptest_loops.rs` check exactly
//! that). The axpy variant mirrors [`crate::axpy`]'s per-element arithmetic, so it verifies
//! against the same reference.

use std::time::Instant;

use weakdep_core::{Runtime, SharedSlice};

use crate::axpy::AxpyConfig;
use crate::KernelRun;

/// Problem configuration shared by the scan and reduction kernels.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct LoopConfig {
    /// Number of elements.
    pub n: usize,
    /// Chunk grain: elements per claimed chunk (assist) or per spawned block task (tasks).
    pub chunk: usize,
}

impl LoopConfig {
    /// A configuration sized for unit tests and quick runs.
    pub fn small() -> Self {
        LoopConfig {
            n: 1 << 14,
            chunk: 1 << 9,
        }
    }

    /// Number of blocks/chunks the range decomposes into.
    pub fn blocks(&self) -> usize {
        self.n.div_ceil(self.chunk.max(1))
    }
}

/// Deterministic input used by all integer kernels and their references.
pub fn initialize_u64(input: &SharedSlice<u64>) {
    input.init_with(|i| {
        (i as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(17)
    });
}

// ---------------------------------------------------------------------------
// Prefix scan
// ---------------------------------------------------------------------------

/// Sequential oracle: inclusive prefix scan under wrapping addition.
pub fn scan_reference(input: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(input.len());
    let mut acc = 0u64;
    for &v in input {
        acc = acc.wrapping_add(v);
        out.push(acc);
    }
    out
}

/// Work-assisted inclusive scan: one registered task whose body is a single
/// [`TaskCtx::scan`](weakdep_core::TaskCtx::scan) (idle workers assist both phases).
pub fn scan_assist(
    rt: &Runtime,
    cfg: &LoopConfig,
    input: &SharedSlice<u64>,
    output: &SharedSlice<u64>,
) -> KernelRun {
    let (n, chunk) = (cfg.n, cfg.chunk);
    assert_eq!(input.len(), n);
    assert_eq!(output.len(), n);
    let start = Instant::now();
    let (xi, yi) = (input.clone(), output.clone());
    rt.run(move |root| {
        let (x, y) = (xi.clone(), yi.clone());
        root.task()
            .input(xi.region(0..n))
            .output(yi.region(0..n))
            .label("scan-assist")
            .spawn(move |t| {
                t.scan(&x, &y, chunk, 0u64, |a: u64, b: u64| a.wrapping_add(b));
            });
    });
    KernelRun {
        elapsed: start.elapsed(),
        operations: 2.0 * n as f64,
        tasks: 1,
    }
}

/// Task-spawned inclusive scan: the same block decomposition expressed with one task per
/// block and declared dependencies — phase-1 block scans write per-block totals, a combine
/// task exclusive-scans the totals into offsets in place, and phase-2 block tasks fold each
/// block's offset in. This is the spawn/match cost baseline the assist variant avoids.
pub fn scan_tasks(
    rt: &Runtime,
    cfg: &LoopConfig,
    input: &SharedSlice<u64>,
    output: &SharedSlice<u64>,
) -> KernelRun {
    let (n, chunk) = (cfg.n, cfg.chunk.max(1));
    assert_eq!(input.len(), n);
    assert_eq!(output.len(), n);
    let blocks = cfg.blocks();
    let start = Instant::now();
    let (xi, yi) = (input.clone(), output.clone());
    rt.run(move |root| {
        let totals = SharedSlice::<u64>::new(blocks);
        let block = move |b: usize| b * chunk..((b + 1) * chunk).min(n);
        // Phase 1: local inclusive scan of each block + its total, one task per block.
        let (x, y, tt) = (xi.clone(), yi.clone(), totals.clone());
        root.spawn_each(
            blocks,
            |b, c| {
                c.input(xi.region(block(b)))
                    .output(yi.region(block(b)))
                    .output(totals.region(b..b + 1))
                    .label("scan-block");
            },
            move |t, b| {
                let inp = x.read(t, block(b));
                let out = y.write(t, block(b));
                let mut acc = 0u64;
                for (o, &v) in out.iter_mut().zip(inp) {
                    acc = acc.wrapping_add(v);
                    *o = acc;
                }
                tt.write(t, b..b + 1)[0] = acc;
            },
        );
        // Combine: exclusive-scan the block totals into per-block offsets, in place.
        {
            let tt = totals.clone();
            root.task()
                .inout(totals.region(0..blocks))
                .label("scan-combine")
                .spawn(move |t| {
                    let slots = tt.write(t, 0..blocks);
                    let mut acc = 0u64;
                    for slot in slots.iter_mut() {
                        let total = *slot;
                        *slot = acc;
                        acc = acc.wrapping_add(total);
                    }
                });
        }
        // Phase 2: fold each block's offset in (block 0's offset is zero — skipped): child
        // `k` of the wave folds block `k + 1`.
        let (y, tt) = (yi.clone(), totals.clone());
        root.spawn_each(
            blocks.saturating_sub(1),
            |k, c| {
                c.input(totals.region(k + 1..k + 2))
                    .inout(yi.region(block(k + 1)))
                    .label("scan-offset");
            },
            move |t, k| {
                let offset = tt.read(t, k + 1..k + 2)[0];
                for v in y.write(t, block(k + 1)) {
                    *v = offset.wrapping_add(*v);
                }
            },
        );
    });
    KernelRun {
        elapsed: start.elapsed(),
        operations: 2.0 * n as f64,
        tasks: 2 * blocks, // blocks phase-1 + 1 combine + (blocks - 1) phase-2
    }
}

// ---------------------------------------------------------------------------
// Chunked reduction
// ---------------------------------------------------------------------------

/// Sequential oracle: wrapping sum.
pub fn reduce_reference(input: &[u64]) -> u64 {
    input.iter().fold(0u64, |acc, &v| acc.wrapping_add(v))
}

/// Work-assisted reduction: one registered task runs a
/// [`TaskCtx::for_each`](weakdep_core::TaskCtx::for_each) that writes one partial per chunk
/// (disjoint — no atomics in the hot loop), then the root folds the partials sequentially
/// after a `taskwait`.
pub fn reduce_assist(rt: &Runtime, cfg: &LoopConfig, input: &SharedSlice<u64>) -> (KernelRun, u64) {
    let (n, chunk) = (cfg.n, cfg.chunk.max(1));
    assert_eq!(input.len(), n);
    let blocks = cfg.blocks().max(1);
    let start = Instant::now();
    let xi = input.clone();
    let value = rt.run(move |root| {
        let partials = SharedSlice::<u64>::new(blocks);
        let (x, pp) = (xi.clone(), partials.clone());
        root.task()
            .input(xi.region(0..n))
            .output(partials.region(0..blocks))
            .label("reduce-assist")
            .spawn(move |t| {
                let xv = x.loop_view(t, 0..n);
                let pv = pp.loop_view_mut(t, 0..blocks);
                t.for_each(0..n, chunk, move |s, e| {
                    pv.chunk(s / chunk..s / chunk + 1)[0] = reduce_reference(xv.get(s..e));
                });
            });
        // Deep completion of the reduce task orders the partial writes before this fold.
        root.taskwait();
        reduce_reference(&partials.snapshot())
    });
    (
        KernelRun {
            elapsed: start.elapsed(),
            operations: n as f64,
            tasks: 1,
        },
        value,
    )
}

/// Task-spawned reduction baseline: one task per block writes its partial under declared
/// dependencies; the root folds after a `taskwait`.
pub fn reduce_tasks(rt: &Runtime, cfg: &LoopConfig, input: &SharedSlice<u64>) -> (KernelRun, u64) {
    let (n, chunk) = (cfg.n, cfg.chunk.max(1));
    assert_eq!(input.len(), n);
    let blocks = cfg.blocks().max(1);
    let start = Instant::now();
    let xi = input.clone();
    let value = rt.run(move |root| {
        let partials = SharedSlice::<u64>::new(blocks);
        let (x, pp) = (xi.clone(), partials.clone());
        let block = move |b: usize| b * chunk..((b + 1) * chunk).min(n);
        root.spawn_each(
            cfg.blocks(),
            |b, c| {
                c.input(xi.region(block(b)))
                    .output(partials.region(b..b + 1))
                    .label("reduce-block");
            },
            move |t, b| pp.write(t, b..b + 1)[0] = reduce_reference(x.read(t, block(b))),
        );
        root.taskwait();
        reduce_reference(&partials.snapshot())
    });
    (
        KernelRun {
            elapsed: start.elapsed(),
            operations: n as f64,
            tasks: cfg.blocks(),
        },
        value,
    )
}

// ---------------------------------------------------------------------------
// axpy-assist
// ---------------------------------------------------------------------------

/// The assist variant of the Multiple AXPY benchmark: each of the `cfg.calls` invocations is
/// one registered task whose body is a single big `for_each` over the vectors — successive
/// calls are ordered by the task's `inout` dependency on `y`, exactly like the task-spawned
/// variants in [`crate::axpy`], so the result verifies against [`crate::axpy::reference`].
pub fn axpy_assist_on(
    rt: &Runtime,
    cfg: &AxpyConfig,
    x: &SharedSlice<f64>,
    y: &SharedSlice<f64>,
) -> KernelRun {
    assert_eq!(x.len(), cfg.n);
    assert_eq!(y.len(), cfg.n);
    let start = Instant::now();
    let cfg = *cfg;
    let (xi, yi) = (x.clone(), y.clone());
    rt.run(move |root| {
        for _ in 0..cfg.calls {
            let (xo, yo) = (xi.clone(), yi.clone());
            root.task()
                .input(xi.region(0..cfg.n))
                .inout(yi.region(0..cfg.n))
                .label("axpy-assist")
                .spawn(move |t| {
                    let xv = xo.loop_view(t, 0..cfg.n);
                    let yv = yo.loop_view_mut(t, 0..cfg.n);
                    let alpha = cfg.alpha;
                    t.for_each(0..cfg.n, cfg.task_size, move |s, e| {
                        let xs = xv.get(s..e);
                        let ys = yv.chunk(s..e);
                        for (yv, xv) in ys.iter_mut().zip(xs) {
                            *yv += alpha * *xv;
                        }
                    });
                });
        }
    });
    KernelRun {
        elapsed: start.elapsed(),
        operations: cfg.flops(),
        tasks: cfg.calls,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axpy;
    use weakdep_core::{Runtime, RuntimeConfig, SchedulingPolicy};

    #[test]
    fn scan_variants_match_the_oracle_bitwise() {
        let rt = Runtime::with_workers(2);
        let cfg = LoopConfig {
            n: 10_007,
            chunk: 256,
        };
        let input = SharedSlice::<u64>::new(cfg.n);
        initialize_u64(&input);
        let expected = scan_reference(&input.snapshot());

        let out_assist = SharedSlice::<u64>::new(cfg.n);
        scan_assist(&rt, &cfg, &input, &out_assist);
        assert_eq!(out_assist.snapshot(), expected, "assist scan");

        let out_tasks = SharedSlice::<u64>::new(cfg.n);
        scan_tasks(&rt, &cfg, &input, &out_tasks);
        assert_eq!(out_tasks.snapshot(), expected, "task-spawned scan");
    }

    /// The task-spawned baselines are `spawn_each` waves; they match the oracle bit for bit
    /// under every scheduling policy, with one task per block (and the scan's combine task).
    #[test]
    fn task_variants_match_the_oracle_under_every_policy() {
        let cfg = LoopConfig {
            n: 10_007,
            chunk: 256,
        };
        let input = SharedSlice::<u64>::new(cfg.n);
        initialize_u64(&input);
        let scanned = scan_reference(&input.snapshot());
        let sum = reduce_reference(&input.snapshot());
        for policy in SchedulingPolicy::all() {
            let rt = Runtime::new(RuntimeConfig::new().workers(2).scheduling_policy(policy));
            let out = SharedSlice::<u64>::new(cfg.n);
            let run = scan_tasks(&rt, &cfg, &input, &out);
            assert_eq!(
                out.snapshot(),
                scanned,
                "task-spawned scan under {policy:?}"
            );
            assert_eq!(rt.stats().tasks_executed, run.tasks, "{policy:?}");
            let (run, via_tasks) = reduce_tasks(&rt, &cfg, &input);
            assert_eq!(via_tasks, sum, "task-spawned reduction under {policy:?}");
            assert_eq!(
                rt.stats().tasks_executed,
                2 * cfg.blocks() + run.tasks,
                "{policy:?}"
            );
        }
    }

    #[test]
    fn reduction_variants_match_the_oracle() {
        let rt = Runtime::with_workers(2);
        let cfg = LoopConfig {
            n: 9_973,
            chunk: 128,
        };
        let input = SharedSlice::<u64>::new(cfg.n);
        initialize_u64(&input);
        let expected = reduce_reference(&input.snapshot());
        let (_, via_assist) = reduce_assist(&rt, &cfg, &input);
        assert_eq!(via_assist, expected, "assist reduction");
        let (_, via_tasks) = reduce_tasks(&rt, &cfg, &input);
        assert_eq!(via_tasks, expected, "task-spawned reduction");
    }

    #[test]
    fn axpy_assist_matches_the_sequential_reference() {
        let rt = Runtime::with_workers(2);
        let cfg = AxpyConfig {
            n: 4_099,
            calls: 3,
            task_size: 512,
            alpha: 1.25,
        };
        let x = SharedSlice::<f64>::new(cfg.n);
        let y = SharedSlice::<f64>::new(cfg.n);
        axpy::initialize(&x, &y);
        axpy_assist_on(&rt, &cfg, &x, &y);
        assert!(axpy::verify(&cfg, &y.snapshot()), "axpy-assist result");
    }

    #[test]
    fn degenerate_sizes_are_handled() {
        let rt = Runtime::with_workers(1);
        for cfg in [
            LoopConfig { n: 0, chunk: 8 },
            LoopConfig { n: 5, chunk: 100 },
        ] {
            let input = SharedSlice::<u64>::new(cfg.n);
            initialize_u64(&input);
            let expected = scan_reference(&input.snapshot());
            let out = SharedSlice::<u64>::new(cfg.n);
            scan_assist(&rt, &cfg, &input, &out);
            assert_eq!(out.snapshot(), expected);
            let (_, sum) = reduce_assist(&rt, &cfg, &input);
            assert_eq!(sum, reduce_reference(&input.snapshot()));
        }
    }
}
