//! The Gauss-Seidel heat-propagation benchmark (§VIII-B of the paper, Listing 6).
//!
//! A square grid of doubles is divided into `BLOCKS × BLOCKS` interior blocks of `TS × TS`
//! elements, surrounded by a ring of boundary blocks that hold the fixed boundary conditions
//! (the paper's `A[2+BLOCKS][2+BLOCKS][TS][TS]` array). Every iteration updates each interior
//! block with a 5-point Gauss-Seidel stencil; within an iteration the dependencies produce
//! diagonal wavefront parallelism, and consecutive iterations overlap wherever the runtime can
//! see the fine-grained inter-iteration dependencies — which is exactly what the `weakwait` +
//! weak-dependency variant enables.
//!
//! The storage is block-major: every block is a contiguous range of the underlying
//! [`SharedSlice`], so a block is a single dependency region.
//!
//! One function, [`tile_kernel`], updates a block: it is the leaf body of every variant and of
//! the sequential [`reference()`], so the oracle times the same arithmetic the tasks run. It walks
//! the block row by row with no branch in the interior and keeps Listing 6's summation order, so
//! its output is bit-identical to the element-wise stencil.

use std::time::Instant;

use weakdep_core::{Clauses, Runtime, SharedSlice, TaskCtx};

use crate::KernelRun;

/// The implementation variants evaluated in Figures 5 and 6.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum GsVariant {
    /// Two task levels; the outer (per-iteration) task uses `weakinout` over the whole grid and
    /// `weakwait` (Listing 6).
    NestWeak,
    /// Like [`GsVariant::NestWeak`], plus the `release` directive applied per horizontal panel of
    /// blocks as iteration spawning advances (the paper found this adds overhead here).
    NestWeakRelease,
    /// A single level of block tasks created directly by the caller, with dependencies.
    FlatDepend,
    /// Two task levels with strong outer dependencies and a `taskwait` (OpenMP 4.5 baseline).
    NestDepend,
}

impl GsVariant {
    /// All variants, in the order plotted in Figure 5.
    pub fn all() -> [GsVariant; 4] {
        [
            GsVariant::NestWeak,
            GsVariant::NestWeakRelease,
            GsVariant::FlatDepend,
            GsVariant::NestDepend,
        ]
    }

    /// The name used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            GsVariant::NestWeak => "nest-weak",
            GsVariant::NestWeakRelease => "nest-weak-release",
            GsVariant::FlatDepend => "flat-depend",
            GsVariant::NestDepend => "nest-depend",
        }
    }
}

/// Problem configuration.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct GsConfig {
    /// Interior blocks per side.
    pub blocks: usize,
    /// Elements per block side (the "task size" axis of Figure 5 is `ts × ts`).
    pub ts: usize,
    /// Number of Gauss-Seidel iterations (the paper uses 48).
    pub iterations: usize,
}

impl GsConfig {
    /// A configuration sized for unit tests.
    pub fn small() -> Self {
        GsConfig {
            blocks: 4,
            ts: 8,
            iterations: 4,
        }
    }

    /// A configuration with the paper's iteration count and a grid that fits in a laptop's
    /// memory (the paper's grid is 27648², i.e. ~6 GiB).
    pub fn default_bench(ts: usize) -> Self {
        let side = 2048usize;
        GsConfig {
            blocks: (side / ts).max(1),
            ts,
            iterations: 48,
        }
    }

    /// Blocks per side including the boundary ring.
    pub fn blocks_with_halo(&self) -> usize {
        self.blocks + 2
    }

    /// Elements per block.
    pub fn block_elems(&self) -> usize {
        self.ts * self.ts
    }

    /// Total elements of the stored grid (including the boundary ring).
    pub fn total_elems(&self) -> usize {
        self.blocks_with_halo() * self.blocks_with_halo() * self.block_elems()
    }

    /// Interior elements per side.
    pub fn interior_side(&self) -> usize {
        self.blocks * self.ts
    }

    /// Floating-point operations of the whole run (4 per interior element per iteration).
    pub fn flops(&self) -> f64 {
        4.0 * (self.interior_side() * self.interior_side()) as f64 * self.iterations as f64
    }

    /// Number of runtime tasks instantiated by the given variant.
    pub fn task_count(&self, variant: GsVariant) -> usize {
        let inner = self.blocks * self.blocks * self.iterations;
        match variant {
            GsVariant::FlatDepend => inner,
            _ => inner + self.iterations,
        }
    }
}

/// The blocked grid: a [`SharedSlice`] plus the index arithmetic for block-major storage.
#[derive(Clone)]
pub struct Grid {
    data: SharedSlice<f64>,
    cfg: GsConfig,
}

impl Grid {
    /// Allocates and initialises the grid: the top boundary row holds 100.0 ("hot" edge), the
    /// rest starts at 0.0.
    pub fn new(cfg: GsConfig) -> Self {
        let data = SharedSlice::<f64>::new(cfg.total_elems());
        let grid = Grid { data, cfg };
        grid.reset();
        grid
    }

    /// Re-initialises the grid to the starting temperature field.
    pub fn reset(&self) {
        let cfg = self.cfg;
        let bh = cfg.blocks_with_halo();
        let be = cfg.block_elems();
        self.data.init_with(|idx| {
            let block = idx / be;
            let bi = block / bh;
            if bi == 0 {
                100.0
            } else {
                0.0
            }
        });
    }

    /// The underlying shared slice.
    pub fn data(&self) -> &SharedSlice<f64> {
        &self.data
    }

    /// Element range of block `(bi, bj)` (halo coordinates: `0..blocks_with_halo()`).
    pub fn block_range(&self, bi: usize, bj: usize) -> std::ops::Range<usize> {
        let bh = self.cfg.blocks_with_halo();
        assert!(bi < bh && bj < bh, "block ({bi},{bj}) out of range");
        let be = self.cfg.block_elems();
        let block = bi * bh + bj;
        block * be..(block + 1) * be
    }

    /// Element range of a whole row of blocks (contiguous thanks to the block-major layout).
    pub fn row_range(&self, bi: usize) -> std::ops::Range<usize> {
        let bh = self.cfg.blocks_with_halo();
        self.block_range(bi, 0).start..self.block_range(bi, bh - 1).end
    }

    /// A snapshot of the whole grid (boundary ring included).
    pub fn snapshot(&self) -> Vec<f64> {
        self.data.snapshot()
    }
}

/// The 5-point Gauss-Seidel update of one block, reading the neighbouring blocks' border rows
/// and columns. All five slices are whole `ts × ts` blocks.
///
/// This is both the leaf body of every [`GsVariant`] and the sequential oracle ([`reference()`]).
/// It walks the tile one row at a time: the row above is `top`'s last row or the updated row
/// before, the row below is `bottom`'s first row or the not-yet-updated row after, and the left
/// neighbour rides in a register; only the last column, which reads `right`, is peeled. The
/// interior has no branch and, after the length checks up front, no bounds check.
///
/// The sum keeps Listing 6's order, `((up + left) + right) + down`, so every output bit matches
/// the element-wise form. Reassociating it as `left + (up + right + down)` takes the left
/// neighbour off the critical path of the row's recurrence and measured faster still (2.08–2.23
/// µs against 2.95–3.09 µs per 32 × 32 tile, isolated with a hot L1, on a 2-vCPU Xeon VM), but
/// it changes output bits, so it is not done here.
pub fn tile_kernel(
    center: &mut [f64],
    top: &[f64],
    left: &[f64],
    right: &[f64],
    bottom: &[f64],
    ts: usize,
) {
    let be = ts * ts;
    assert!(ts >= 1, "tile side must be at least 1");
    assert!(
        center.len() == be
            && top.len() == be
            && left.len() == be
            && right.len() == be
            && bottom.len() == be,
        "every tile slice must hold ts × ts = {be} elements"
    );
    let top_last = &top[be - ts..];
    let bottom_first = &bottom[..ts];
    for r in 0..ts {
        let (above, rest) = center.split_at_mut(r * ts);
        let (row, below) = rest.split_at_mut(ts);
        let up_row = if r == 0 {
            top_last
        } else {
            &above[(r - 1) * ts..]
        };
        let dn_row = if r == ts - 1 {
            bottom_first
        } else {
            &below[..ts]
        };
        let (up_row, dn_row) = (&up_row[..ts], &dn_row[..ts]);
        let mut lf = left[r * ts + ts - 1];
        for c in 0..ts - 1 {
            let v = 0.25 * (up_row[c] + lf + row[c + 1] + dn_row[c]);
            row[c] = v;
            lf = v;
        }
        let c = ts - 1;
        row[c] = 0.25 * (up_row[c] + lf + right[r * ts] + dn_row[c]);
    }
}

/// The clauses of tile `(bi, bj)`, Listing 6's inner task: it reads its four neighbours and
/// updates its own block.
fn tile_clauses(grid: &Grid, bi: usize, bj: usize, clauses: &mut Clauses) {
    let data = grid.data();
    clauses
        .input(data.region(grid.block_range(bi - 1, bj))) // top
        .input(data.region(grid.block_range(bi, bj - 1))) // left
        .inout(data.region(grid.block_range(bi, bj))) // center
        .input(data.region(grid.block_range(bi, bj + 1))) // right
        .input(data.region(grid.block_range(bi + 1, bj))) // bottom
        .label("gs-tile");
}

/// The body of tile `(bi, bj)`.
fn tile_body(t: &TaskCtx<'_>, grid: &Grid, bi: usize, bj: usize) {
    let d = grid.data();
    let center = d.write(t, grid.block_range(bi, bj));
    let top = d.read(t, grid.block_range(bi - 1, bj));
    let left = d.read(t, grid.block_range(bi, bj - 1));
    let right = d.read(t, grid.block_range(bi, bj + 1));
    let bottom = d.read(t, grid.block_range(bi + 1, bj));
    tile_kernel(center, top, left, right, bottom, grid.cfg.ts);
}

/// Spawns the block tasks of one iteration as children of `ctx` (Listing 6's inner loop): one
/// congruent wave of `blocks²` tiles in row-major order, tile `i` at
/// `(i / blocks + 1, i % blocks + 1)`, registered under one domain-lock acquisition.
fn spawn_iteration(ctx: &TaskCtx<'_>, grid: &Grid) {
    let blocks = grid.cfg.blocks;
    let tile = move |i: usize| (i / blocks + 1, i % blocks + 1);
    let g = grid.clone();
    ctx.spawn_each(
        blocks * blocks,
        |i, clauses| {
            let (bi, bj) = tile(i);
            tile_clauses(grid, bi, bj, clauses);
        },
        move |t, i| {
            let (bi, bj) = tile(i);
            tile_body(t, &g, bi, bj);
        },
    );
}

/// Like [`spawn_iteration`] but additionally issues the `release` directive over each horizontal
/// panel of blocks once no future subtask of this iteration can reference it. One wave per row
/// of blocks, tile `j` at `(bi, j + 1)`, so the releases keep their place in the spawn order.
fn spawn_iteration_with_release(ctx: &TaskCtx<'_>, grid: &Grid) {
    let blocks = grid.cfg.blocks;
    for bi in 1..=blocks {
        let g = grid.clone();
        ctx.spawn_each(
            blocks,
            |j, clauses| tile_clauses(grid, bi, j + 1, clauses),
            move |t, j| tile_body(t, &g, bi, j + 1),
        );
        // Rows strictly above bi-1 are no longer referenced by the remaining (future) subtasks of
        // this iteration: row bi+1 tasks read rows bi..bi+2 only.
        if bi >= 2 {
            ctx.release(grid.data().region(grid.row_range(bi - 2)));
        }
    }
}

/// Runs the benchmark in the given variant on `rt` over `grid`, returning timing information.
pub fn run_on(rt: &Runtime, variant: GsVariant, grid: &Grid) -> KernelRun {
    let cfg = grid.cfg;
    let start_time = Instant::now();
    let grid_outer = grid.clone();
    rt.run(move |root| {
        for _ in 0..cfg.iterations {
            match variant {
                GsVariant::NestWeak | GsVariant::NestWeakRelease => {
                    let g = grid_outer.clone();
                    let whole = g.data().full_region();
                    root.task()
                        .weak_inout(whole)
                        .weakwait()
                        .label("gs-iteration")
                        .spawn(move |outer| {
                            if variant == GsVariant::NestWeakRelease {
                                spawn_iteration_with_release(outer, &g);
                            } else {
                                spawn_iteration(outer, &g);
                            }
                        });
                }
                GsVariant::NestDepend => {
                    let g = grid_outer.clone();
                    let whole = g.data().full_region();
                    root.task()
                        .inout(whole)
                        .label("gs-iteration")
                        .spawn(move |outer| {
                            spawn_iteration(outer, &g);
                            outer.taskwait();
                        });
                }
                GsVariant::FlatDepend => {
                    spawn_iteration(root, &grid_outer);
                }
            }
        }
    });
    let elapsed = start_time.elapsed();
    KernelRun {
        elapsed,
        operations: cfg.flops(),
        tasks: cfg.task_count(variant),
    }
}

/// Allocates a grid, runs the benchmark and returns the result and the final grid contents.
pub fn run(rt: &Runtime, variant: GsVariant, cfg: &GsConfig) -> (KernelRun, Vec<f64>) {
    let grid = Grid::new(*cfg);
    let result = run_on(rt, variant, &grid);
    (result, grid.snapshot())
}

/// Sequential reference: the same blocked Gauss-Seidel sweep executed block by block in row-major
/// block order (which the dependency structure makes equivalent to the element-wise sweep).
///
/// Block-major storage puts `top` and `left` before the centre block and `right` and `bottom`
/// after it, so two splits of the grid borrow all four halos without copying them.
pub fn reference(cfg: &GsConfig) -> Vec<f64> {
    let grid = Grid::new(*cfg);
    let mut data = grid.snapshot();
    let ts = cfg.ts;
    for _ in 0..cfg.iterations {
        for bi in 1..=cfg.blocks {
            for bj in 1..=cfg.blocks {
                let center_range = grid.block_range(bi, bj);
                let (before, rest) = data.split_at_mut(center_range.start);
                let (center, after) = rest.split_at_mut(center_range.len());
                let in_after = |r: std::ops::Range<usize>| {
                    r.start - center_range.end..r.end - center_range.end
                };
                let top = &before[grid.block_range(bi - 1, bj)];
                let left = &before[grid.block_range(bi, bj - 1)];
                let right = &after[in_after(grid.block_range(bi, bj + 1))];
                let bottom = &after[in_after(grid.block_range(bi + 1, bj))];
                tile_kernel(center, top, left, right, bottom, ts);
            }
        }
    }
    data
}

/// `true` if `result` matches the sequential reference bit for bit.
pub fn verify(cfg: &GsConfig, result: &[f64]) -> bool {
    reference(cfg) == result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{held_run, registered_graph};
    use weakdep_core::{Runtime, SchedulingPolicy, TaskSpec};

    #[test]
    fn config_arithmetic() {
        let cfg = GsConfig {
            blocks: 4,
            ts: 8,
            iterations: 3,
        };
        assert_eq!(cfg.blocks_with_halo(), 6);
        assert_eq!(cfg.block_elems(), 64);
        assert_eq!(cfg.total_elems(), 6 * 6 * 64);
        assert_eq!(cfg.interior_side(), 32);
        assert_eq!(cfg.flops(), 4.0 * 32.0 * 32.0 * 3.0);
        assert_eq!(cfg.task_count(GsVariant::FlatDepend), 48);
        assert_eq!(cfg.task_count(GsVariant::NestWeak), 51);
    }

    #[test]
    fn grid_layout_is_block_major() {
        let cfg = GsConfig {
            blocks: 2,
            ts: 4,
            iterations: 1,
        };
        let grid = Grid::new(cfg);
        let r00 = grid.block_range(0, 0);
        let r01 = grid.block_range(0, 1);
        assert_eq!(r00.end, r01.start, "blocks of a row must be contiguous");
        assert_eq!(grid.row_range(0), 0..4 * 16);
        // The top boundary row is hot.
        let snap = grid.snapshot();
        assert!(snap[r00].iter().all(|&v| v == 100.0));
        assert!(snap[grid.block_range(1, 1)].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn tile_kernel_averages_neighbours() {
        let ts = 2;
        let mut center = vec![0.0; 4];
        let top = vec![100.0; 4];
        let zero = vec![0.0; 4];
        tile_kernel(&mut center, &top, &zero, &zero, &zero, ts);
        // First element: up=100 (top block bottom row), others 0 -> 25.
        assert_eq!(center[0], 25.0);
        // Second element (r=0, c=1): up=100, left=center[0]=25 -> 31.25.
        assert_eq!(center[1], 31.25);
    }

    /// The element-wise form of [`tile_kernel`]: four data-dependent branches per element.
    fn tile_kernel_naive(
        center: &mut [f64],
        top: &[f64],
        left: &[f64],
        right: &[f64],
        bottom: &[f64],
        ts: usize,
    ) {
        for r in 0..ts {
            for c in 0..ts {
                let up = if r == 0 {
                    top[(ts - 1) * ts + c]
                } else {
                    center[(r - 1) * ts + c]
                };
                let lf = if c == 0 {
                    left[r * ts + ts - 1]
                } else {
                    center[r * ts + c - 1]
                };
                let rt = if c == ts - 1 {
                    right[r * ts]
                } else {
                    center[r * ts + c + 1]
                };
                let dn = if r == ts - 1 {
                    bottom[c]
                } else {
                    center[(r + 1) * ts + c]
                };
                center[r * ts + c] = 0.25 * (up + lf + rt + dn);
            }
        }
    }

    /// The reference with four owned halo copies per tile, driven by the element-wise kernel.
    fn reference_with_copies(cfg: &GsConfig) -> Vec<f64> {
        let grid = Grid::new(*cfg);
        let mut data = grid.snapshot();
        for _ in 0..cfg.iterations {
            for bi in 1..=cfg.blocks {
                for bj in 1..=cfg.blocks {
                    let center_range = grid.block_range(bi, bj);
                    let top = data[grid.block_range(bi - 1, bj)].to_vec();
                    let left = data[grid.block_range(bi, bj - 1)].to_vec();
                    let right = data[grid.block_range(bi, bj + 1)].to_vec();
                    let bottom = data[grid.block_range(bi + 1, bj)].to_vec();
                    tile_kernel_naive(
                        &mut data[center_range],
                        &top,
                        &left,
                        &right,
                        &bottom,
                        cfg.ts,
                    );
                }
            }
        }
        data
    }

    fn assert_bits_equal(what: &str, expected: &[f64], actual: &[f64]) {
        assert_eq!(expected.len(), actual.len(), "{what}: lengths differ");
        for (i, (e, a)) in expected.iter().zip(actual).enumerate() {
            assert_eq!(
                e.to_bits(),
                a.to_bits(),
                "{what}: element {i} is {a}, expected {e}"
            );
        }
    }

    #[test]
    fn row_kernel_is_bit_identical_to_the_element_wise_form() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(26);
        for ts in [1usize, 2, 3, 8, 32, 64] {
            let mut block = || {
                (0..ts * ts)
                    .map(|_| 200.0 * rng.gen::<f64>() - 100.0)
                    .collect::<Vec<f64>>()
            };
            let (top, left, right, bottom) = (block(), block(), block(), block());
            let mut expected = block();
            let mut actual = expected.clone();
            for sweep in 0..5 {
                tile_kernel_naive(&mut expected, &top, &left, &right, &bottom, ts);
                tile_kernel(&mut actual, &top, &left, &right, &bottom, ts);
                assert_bits_equal(&format!("ts = {ts}, sweep {sweep}"), &expected, &actual);
            }
        }
    }

    #[test]
    fn copy_free_reference_is_bit_identical_to_the_copying_one() {
        for cfg in [
            GsConfig::small(),
            GsConfig {
                blocks: 3,
                ts: 5,
                iterations: 4,
            },
        ] {
            assert_bits_equal(
                &format!("{cfg:?}"),
                &reference_with_copies(&cfg),
                &reference(&cfg),
            );
        }
    }

    /// The staged spec of tile `(bi, bj)`, as the kernel built one per tile before its waves
    /// became `spawn_each` waves.
    fn tile_spec(ctx: &TaskCtx<'_>, grid: &Grid, bi: usize, bj: usize) -> TaskSpec {
        let g = grid.clone();
        let data = grid.data();
        ctx.task()
            .input(data.region(grid.block_range(bi - 1, bj)))
            .input(data.region(grid.block_range(bi, bj - 1)))
            .inout(data.region(grid.block_range(bi, bj)))
            .input(data.region(grid.block_range(bi, bj + 1)))
            .input(data.region(grid.block_range(bi + 1, bj)))
            .label("gs-tile")
            .stage(move |t| tile_body(t, &g, bi, bj))
    }

    /// [`spawn_iteration`] as one `spawn_batch` of staged specs.
    fn spawn_iteration_specs(ctx: &TaskCtx<'_>, grid: &Grid) {
        let blocks = grid.cfg.blocks;
        let specs: Vec<TaskSpec> = (1..=blocks)
            .flat_map(|bi| (1..=blocks).map(move |bj| (bi, bj)))
            .map(|(bi, bj)| tile_spec(ctx, grid, bi, bj))
            .collect();
        ctx.spawn_batch(specs);
    }

    /// [`spawn_iteration_with_release`] as one `spawn_batch` of staged specs per row.
    fn spawn_iteration_with_release_specs(ctx: &TaskCtx<'_>, grid: &Grid) {
        let blocks = grid.cfg.blocks;
        for bi in 1..=blocks {
            ctx.spawn_batch(
                (1..=blocks)
                    .map(|bj| tile_spec(ctx, grid, bi, bj))
                    .collect(),
            );
            if bi >= 2 {
                ctx.release(grid.data().region(grid.row_range(bi - 2)));
            }
        }
    }

    /// Both iteration forms of the weak variants, as `spawn_each` waves and as staged specs,
    /// give the engine the same graph — equal registration counters, edges, accesses and
    /// ready-at-registration included — and the reference grid bit for bit, under every
    /// scheduling policy. Each job is held until its whole graph is registered.
    #[test]
    fn spawn_each_iterations_register_the_graph_of_the_spec_iterations() {
        type Spawn = fn(&TaskCtx<'_>, &Grid);
        let cfg = GsConfig {
            blocks: 3,
            ts: 4,
            iterations: 3,
        };
        let expected = reference(&cfg);
        // The root, the holder, the iteration tasks and their tiles.
        let tasks = 2 + cfg.task_count(GsVariant::NestWeak);
        let forms: [(&str, Spawn, Spawn); 2] = [
            ("nest-weak", spawn_iteration, spawn_iteration_specs),
            (
                "nest-weak-release",
                spawn_iteration_with_release,
                spawn_iteration_with_release_specs,
            ),
        ];
        for (name, each, specs) in forms {
            for policy in SchedulingPolicy::all() {
                let [by_each, by_specs] = [each, specs].map(|spawn_iteration| {
                    let grid = Grid::new(cfg);
                    let whole = grid.data().full_region();
                    let g = grid.clone();
                    let stats = held_run(policy, whole, tasks, move |root| {
                        for _ in 0..cfg.iterations {
                            let g = g.clone();
                            root.task()
                                .weak_inout(whole)
                                .weakwait()
                                .spawn(move |outer| spawn_iteration(outer, &g));
                        }
                    });
                    let what = format!("{name} under {policy:?}");
                    assert_bits_equal(&what, &expected, &grid.snapshot());
                    registered_graph(&stats)
                });
                assert_eq!(
                    by_each[0], tasks,
                    "{name} under {policy:?}: tasks registered"
                );
                assert_eq!(by_each, by_specs, "{name} under {policy:?}");
            }
        }
    }

    #[test]
    fn every_variant_matches_the_sequential_reference() {
        let rt = Runtime::with_workers(4);
        let cfg = GsConfig::small();
        for variant in GsVariant::all() {
            let (_run, result) = run(&rt, variant, &cfg);
            assert!(
                verify(&cfg, &result),
                "variant {} diverged from the reference",
                variant.name()
            );
        }
    }

    #[test]
    fn heat_propagates_downwards_over_iterations() {
        let rt = Runtime::with_workers(2);
        let cfg = GsConfig {
            blocks: 2,
            ts: 8,
            iterations: 20,
        };
        let (_run, result) = run(&rt, GsVariant::NestWeak, &cfg);
        let grid = Grid::new(cfg);
        // The first interior block must have warmed up (top boundary is 100).
        let first_block = &result[grid.block_range(1, 1)];
        assert!(
            first_block.iter().any(|&v| v > 1.0),
            "heat must have diffused into the interior"
        );
        // Deeper rows stay cooler than the first interior row.
        let deep_block = &result[grid.block_range(2, 1)];
        let sum_first: f64 = first_block.iter().sum();
        let sum_deep: f64 = deep_block.iter().sum();
        assert!(sum_first > sum_deep);
    }

    #[test]
    fn single_worker_matches_reference() {
        let rt = Runtime::with_workers(1);
        let cfg = GsConfig {
            blocks: 3,
            ts: 4,
            iterations: 5,
        };
        for variant in [GsVariant::NestWeak, GsVariant::NestDepend] {
            let (_run, result) = run(&rt, variant, &cfg);
            assert!(verify(&cfg, &result), "variant {}", variant.name());
        }
    }
}
