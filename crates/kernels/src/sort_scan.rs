//! Quicksort followed by a prefix sum (§VIII-C of the paper, Listing 7).
//!
//! Both algorithms are recursive and taskified:
//!
//! * the quicksort partitions in the current task (its accesses are therefore strong): an
//!   in-place three-way partition splits the range into `< pivot`, `== pivot` and `> pivot`
//!   bands, and one subtask is spawned per non-empty outer band. The pivot band is already in
//!   its final place, so no child covers it; it stays under the partitioning task's `inout` and
//!   is released when that body ends. Every level thus shrinks both sides by at least one band,
//!   and a range holding a single key spawns nothing. Dependencies are released at the
//!   granularity of the base-case sort tasks (labelled `insertion_sort`, after Listing 7)
//!   thanks to `weakwait`;
//! * the prefix sum divides the array into blocks, computes block-local prefix sums, recursively
//!   scans the block totals with a larger stride and finally accumulates the carry of each block
//!   into the next one. All non-leaf tasks use weak dependencies; each leaf borrows its carry
//!   element and its declared strided range once and walks the range with `step_by`.
//!
//! When both run back to back over the same array (the `weak` variant), the leaf tasks of the
//! prefix sum connect directly to the quicksort leaves that produced their data, so the two
//! algorithms overlap — the effect shown in Figure 7. The `strong` variant replaces `weakwait`
//! with a `taskwait` and the weak dependencies with regular ones, which forces the prefix sum to
//! wait for the whole sort.

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use weakdep_core::{Runtime, SharedSlice, TaskCtx};

use crate::KernelRun;

/// The element type of the sorted array (the paper's generic `type`).
pub type Elem = i64;

/// The two variants compared in Figure 7.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SortScanVariant {
    /// `weakwait` + weak dependencies (bottom timeline of Figure 7).
    Weak,
    /// Regular dependencies + `taskwait` (top timeline of Figure 7).
    Strong,
}

impl SortScanVariant {
    /// Both variants.
    pub fn all() -> [SortScanVariant; 2] {
        [SortScanVariant::Weak, SortScanVariant::Strong]
    }

    /// The name used in figures.
    pub fn name(&self) -> &'static str {
        match self {
            SortScanVariant::Weak => "weakwait+weak-deps",
            SortScanVariant::Strong => "taskwait+regular-deps",
        }
    }
}

/// Problem configuration.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SortScanConfig {
    /// Number of elements.
    pub n: usize,
    /// Base-case size (elements) for both the sort and the scan.
    pub ts: usize,
    /// Seed of the random input permutation.
    pub seed: u64,
}

impl SortScanConfig {
    /// A configuration sized for unit tests.
    pub fn small() -> Self {
        SortScanConfig {
            n: 4_000,
            ts: 256,
            seed: 42,
        }
    }

    /// A benchmark-sized configuration.
    pub fn default_bench() -> Self {
        SortScanConfig {
            n: 1 << 21,
            ts: 1 << 14,
            seed: 7,
        }
    }

    /// Element operations performed (n·log2(n) comparisons + n additions, used for rates only).
    pub fn operations(&self) -> f64 {
        let n = self.n as f64;
        n * n.log2() + n
    }
}

/// Generates the input array for a configuration (values are kept small so the prefix sums do not
/// overflow an `i64`).
pub fn generate_input(cfg: &SortScanConfig) -> Vec<Elem> {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    (0..cfg.n)
        .map(|_| rng.gen_range(0..1_000) as Elem)
        .collect()
}

fn median_of_three(a: Elem, b: Elem, c: Elem) -> Elem {
    let mut v = [a, b, c];
    v.sort_unstable();
    v[1]
}

/// Partitions non-empty `data` in place around a median-of-three pivot, returning `(lt, gt)` such
/// that `data[..lt] < pivot`, `data[lt..gt] == pivot` and `data[gt..] > pivot`; `lt < gt`, as the
/// pivot occurs in `data`. Two branchless passes: a three-way branch per key mispredicts.
fn partition(data: &mut [Elem]) -> (usize, usize) {
    let n = data.len();
    let pivot = median_of_three(data[0], data[n / 2], data[n - 1]);
    let lt = move_to_front(data, |x| x < pivot);
    let gt = lt + move_to_front(&mut data[lt..], |x| x == pivot);
    (lt, gt)
}

/// Moves the elements satisfying `pred` to the front of `data` and returns their count, with no
/// branch on `pred` (BlockQuicksort's Lomuto form). `pred` reads `x`, loaded before the swap:
/// re-reading `data[front]` would make each iteration wait for the previous one's store.
fn move_to_front(data: &mut [Elem], pred: impl Fn(Elem) -> bool) -> usize {
    (0..data.len()).fold(0, |front, i| {
        let x = data[i];
        data.swap(front, i);
        front + usize::from(pred(x))
    })
}

/// Recursive taskified quicksort (Listing 7, `quick_sort`).
///
/// `ctx` must hold a strong `inout` dependency over `data[offset..offset+n]` (the recursion
/// spawns the nested tasks so that this always holds).
fn quick_sort(
    ctx: &TaskCtx<'_>,
    data: &SharedSlice<Elem>,
    offset: usize,
    n: usize,
    ts: usize,
    weak: bool,
) {
    if n == 0 {
        return;
    }
    if n <= ts {
        // Base case: one task sorts the whole range with the library sort (`Elem` is an integer,
        // so any correct sort gives the same output).
        let d = data.clone();
        ctx.task()
            .inout(data.region(offset..offset + n))
            // Listing 7's name for the base-case task, not the algorithm; traces, the benchmark's
            // graph model and Figure 7 select the sort's tasks by this label.
            .label("insertion_sort")
            .spawn(move |t| d.write(t, offset..offset + n).sort_unstable());
        return;
    }

    // The partition is performed by the *current* task, which owns a strong inout over the range.
    // The pivot band `lt..gt` is already in its final place: no child covers it, so it stays
    // under this task's inout until the body ends.
    let (lt, gt) = partition(data.write(ctx, offset..offset + n));
    for (start, len) in [(offset, lt), (offset + gt, n - gt)] {
        if len == 0 {
            continue;
        }
        let d = data.clone();
        let builder = ctx
            .task()
            .inout(data.region(start..start + len))
            .label("quick_sort");
        let builder = if weak { builder.weakwait() } else { builder };
        builder.spawn(move |t| {
            quick_sort(t, &d, start, len, ts, weak);
            if !weak {
                t.taskwait();
            }
        });
    }
}

/// Recursive taskified prefix sum (Listing 7, `prefix_sum`), operating on the elements
/// `offset + k·stride` for `k·stride < n`.
fn prefix_sum(
    ctx: &TaskCtx<'_>,
    data: &SharedSlice<Elem>,
    offset: usize,
    n: usize,
    ts: usize,
    stride: usize,
    weak: bool,
) {
    if n == 0 {
        return;
    }
    // Compute the blocks independently, as one congruent wave of base-case tasks (a single
    // domain-lock acquisition for the whole level; a single task in the base case).
    let block = ts * stride;
    spawn_scan_blocks(ctx, data, offset, n, stride, block);
    if n <= block {
        return;
    }

    // Index of the last element of the first block.
    let substart = (ts - 1) * stride;

    // Prefix sum over the last element of each block, with a larger stride.
    {
        let d = data.clone();
        let region = data.region(offset + substart..offset + n);
        let builder = ctx.task().label("prefix_sum_rec");
        let builder = if weak {
            builder.weak_inout(region).weakwait()
        } else {
            builder.inout(region)
        };
        builder.spawn(move |t| {
            prefix_sum(t, &d, offset + substart, n - substart, ts, block, weak);
            if !weak {
                t.taskwait();
            }
        });
    }

    // Accumulate the last element of each block over the elements of the following block, as
    // one congruent wave: task `k` adds element `i = substart + k·block` to the strided
    // elements of `i + stride .. i + block.min(n - i)`.
    let carry_at = move |k: usize| substart + k * block;
    let span = move |i: usize| offset + i + stride..offset + i + block.min(n - i);
    let d = data.clone();
    ctx.spawn_each(
        (substart..n - stride).step_by(block).len(),
        |k, clauses| {
            let i = carry_at(k);
            clauses
                .input(data.region(offset + i..offset + i + 1))
                .inout(data.region(span(i)))
                .label("accumulation");
        },
        move |t, k| {
            let i = carry_at(k);
            let carry = d.read(t, offset + i..offset + i + 1)[0];
            for value in d.write(t, span(i)).iter_mut().step_by(stride) {
                *value += carry;
            }
        },
    );
}

/// Spawns the base-case scan tasks over `offset..offset + n` in blocks of `block` elements, as
/// one congruent wave: task `k` scans the strided elements of the block at `k·block`, seeded by
/// the block's first element. A block of at most `stride` elements has nothing to scan and
/// spawns no task; only the last block can be that short (or every block, when `block` is
/// `stride`), so the tasks are the wave's first blocks.
fn spawn_scan_blocks(
    ctx: &TaskCtx<'_>,
    data: &SharedSlice<Elem>,
    offset: usize,
    n: usize,
    stride: usize,
    block: usize,
) {
    let span = move |k: usize| {
        let i = k * block;
        offset + i..offset + i + block.min(n - i)
    };
    let d = data.clone();
    ctx.spawn_each(
        (0..n)
            .step_by(block)
            .take_while(|&i| block.min(n - i) > stride)
            .count(),
        |k, clauses| {
            let span = span(k);
            clauses
                .input(data.region(span.start..span.start + 1))
                .inout(data.region(span.start + stride..span.end))
                .label("prefix_sum");
        },
        move |t, k| {
            let span = span(k);
            let mut carry = d.read(t, span.start..span.start + 1)[0];
            for value in d
                .write(t, span.start + stride..span.end)
                .iter_mut()
                .step_by(stride)
            {
                *value += carry;
                carry = *value;
            }
        },
    );
}

/// Runs the full benchmark (quicksort, then prefix sum, over the same array) in the given
/// variant. Returns timing information and the final array.
pub fn run(rt: &Runtime, variant: SortScanVariant, cfg: &SortScanConfig) -> (KernelRun, Vec<Elem>) {
    let input = generate_input(cfg);
    let data = SharedSlice::from_vec(input);
    let result = run_on(rt, variant, cfg, &data);
    (result, data.snapshot())
}

/// Runs the benchmark over an existing array (modified in place). `tasks` is the runtime's
/// `tasks_executed` delta, exact on a runtime that runs nothing else meanwhile.
pub fn run_on(
    rt: &Runtime,
    variant: SortScanVariant,
    cfg: &SortScanConfig,
    data: &SharedSlice<Elem>,
) -> KernelRun {
    assert_eq!(data.len(), cfg.n);
    let weak = variant == SortScanVariant::Weak;
    let cfg = *cfg;
    let data_outer = data.clone();
    let tasks_before = rt.stats().tasks_executed;
    let start_time = Instant::now();
    rt.run(move |root| {
        let n = cfg.n;
        // Listing 7 line 1: the quicksort wrapper (strong inout: it partitions the data itself).
        {
            let d = data_outer.clone();
            let builder = root
                .task()
                .inout(data_outer.region(0..n))
                .label("quick_sort");
            let builder = if weak { builder.weakwait() } else { builder };
            builder.spawn(move |t| {
                quick_sort(t, &d, 0, n, cfg.ts, weak);
                if !weak {
                    t.taskwait();
                }
            });
        }
        // Listing 7 line 4: the prefix-sum wrapper (weak: it never touches the data directly).
        {
            let d = data_outer.clone();
            let region = data_outer.region(0..n);
            let builder = root.task().label("prefix_sum_root");
            let builder = if weak {
                builder.weak_inout(region).weakwait()
            } else {
                builder.inout(region)
            };
            builder.spawn(move |t| {
                prefix_sum(t, &d, 0, n, cfg.ts, 1, weak);
                if !weak {
                    t.taskwait();
                }
            });
        }
    });
    let tasks = rt.stats().tasks_executed - tasks_before;
    KernelRun {
        elapsed: start_time.elapsed(),
        operations: cfg.operations(),
        tasks,
    }
}

/// Sequential reference: sort the generated input and take inclusive prefix sums.
pub fn reference(cfg: &SortScanConfig) -> Vec<Elem> {
    let mut data = generate_input(cfg);
    data.sort_unstable();
    for i in 1..data.len() {
        data[i] += data[i - 1];
    }
    data
}

/// `true` if `result` equals the sequential reference.
pub fn verify(cfg: &SortScanConfig, result: &[Elem]) -> bool {
    reference(cfg) == result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{held_run, registered_graph};
    use weakdep_core::Runtime;
    use weakdep_core::{SchedulingPolicy, TaskSpec};

    /// Partitions `original` and checks the three bands, the median-of-three pivot and that the
    /// result is a permutation of the input.
    fn check_partition(shape: &str, original: Vec<Elem>) {
        let n = original.len();
        let mut v = original.clone();
        let (lt, gt) = partition(&mut v);
        assert!(
            lt < gt && gt <= n,
            "{shape}, n={n}: empty pivot band {lt}..{gt}"
        );
        let pivot = v[lt];
        let median = median_of_three(original[0], original[n / 2], original[n - 1]);
        assert_eq!(
            pivot, median,
            "{shape}, n={n}: the pivot must be the median of three"
        );
        let bands_hold = v[..lt].iter().all(|&x| x < pivot)
            && v[lt..gt].iter().all(|&x| x == pivot)
            && v[gt..].iter().all(|&x| x > pivot);
        assert!(
            bands_hold,
            "{shape}, n={n}: bands violated: {original:?} -> {v:?} at {lt}..{gt}"
        );
        let mut expected = original;
        v.sort_unstable();
        expected.sort_unstable();
        assert_eq!(
            v, expected,
            "{shape}, n={n}: the partition must permute its input"
        );
    }

    #[test]
    fn partition_splits_and_orders() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..400 {
            let n = rng.gen_range(1..60);
            let keys = rng.gen_range(1..50);
            check_partition(
                "random",
                (0..n).map(|_| rng.gen_range(0..keys) as Elem).collect(),
            );
        }
        for n in [1usize, 2, 3, 7, 64, 1_000, 1_023, 4_096] {
            let len = n as Elem;
            let shapes: [(&str, Vec<Elem>); 6] = [
                ("all-equal", vec![7; n]),
                ("sorted", (0..len).collect()),
                ("reverse-sorted", (0..len).rev().collect()),
                ("two alternating keys", (0..len).map(|i| i % 2).collect()),
                ("organ-pipe", (0..len).map(|i| i.min(len - 1 - i)).collect()),
                (
                    "benchmark keys",
                    generate_input(&SortScanConfig {
                        n,
                        ts: 1,
                        seed: n as u64,
                    }),
                ),
            ];
            for (shape, v) in shapes {
                check_partition(shape, v);
            }
        }
    }

    #[test]
    fn move_to_front_groups_the_matches() {
        let mut rng = SmallRng::seed_from_u64(2);
        for n in [0usize, 1, 2, 5, 100, 4_096] {
            let original: Vec<Elem> = (0..n).map(|_| rng.gen_range(1..=10)).collect();
            // Keys 1..=10: modulus 1 matches every key, 3 some and 11 none.
            for m in [1, 3, 11] {
                let pred = |x: Elem| x % m == 0;
                let mut v = original.clone();
                let front = move_to_front(&mut v, pred);
                assert_eq!(
                    front,
                    original.iter().filter(|&&x| pred(x)).count(),
                    "m={m}, n={n}"
                );
                assert!(
                    v[..front].iter().all(|&x| pred(x)),
                    "m={m}, n={n}: {v:?} at {front}"
                );
                assert!(
                    !v[front..].iter().any(|&x| pred(x)),
                    "m={m}, n={n}: {v:?} at {front}"
                );
                let mut expected = original.clone();
                v.sort_unstable();
                expected.sort_unstable();
                assert_eq!(
                    v, expected,
                    "m={m}, n={n}: move_to_front must permute its input"
                );
            }
        }
    }

    #[test]
    fn few_distinct_keys_do_not_peel_one_element_per_task() {
        // Four keys: every quicksort level removes a whole pivot band, so the task count stays
        // linear in n / ts (sort and scan together), not in n. The scan alone spawns a leaf per
        // block, which bounds the reported count from below.
        let rt = Runtime::with_workers(2);
        let cfg = SortScanConfig {
            n: 4_096,
            ts: 64,
            seed: 0,
        };
        let input: Vec<Elem> = (0..cfg.n).map(|i| ((i * 7919) % 4) as Elem).collect();
        let data = SharedSlice::from_vec(input.clone());
        let tasks = run_on(&rt, SortScanVariant::Weak, &cfg, &data).tasks;
        assert!(
            (cfg.n / cfg.ts..=4 * cfg.n / cfg.ts).contains(&tasks),
            "{tasks} tasks for n = {}",
            cfg.n
        );
        let mut expected = input;
        expected.sort_unstable();
        for i in 1..expected.len() {
            expected[i] += expected[i - 1];
        }
        assert_eq!(data.snapshot(), expected);
    }

    /// [`prefix_sum`] with its scan and accumulation waves as `spawn_batch`es of staged specs,
    /// as the kernel spawned them before they became `spawn_each` waves.
    fn prefix_sum_specs(
        ctx: &TaskCtx<'_>,
        data: &SharedSlice<Elem>,
        offset: usize,
        n: usize,
        ts: usize,
        stride: usize,
    ) {
        let scan_spec = |offset: usize, n: usize| {
            let d = data.clone();
            (n > stride).then(|| {
                ctx.task()
                    .input(data.region(offset..offset + 1))
                    .inout(data.region(offset + stride..offset + n))
                    .label("prefix_sum")
                    .stage(move |t| {
                        let mut carry = d.read(t, offset..offset + 1)[0];
                        let span = d.write(t, offset + stride..offset + n);
                        for value in span.iter_mut().step_by(stride) {
                            *value += carry;
                            carry = *value;
                        }
                    })
            })
        };
        if n == 0 {
            return;
        }
        if n <= ts * stride {
            if let Some(spec) = scan_spec(offset, n) {
                ctx.spawn_batch(vec![spec]);
            }
            return;
        }
        let block = ts * stride;
        let mut specs: Vec<TaskSpec> = Vec::new();
        let mut i = 0;
        while i < n {
            specs.extend(scan_spec(offset + i, block.min(n - i)));
            i += block;
        }
        ctx.spawn_batch(specs);

        let substart = (ts - 1) * stride;
        let d = data.clone();
        ctx.task()
            .weak_inout(data.region(offset + substart..offset + n))
            .weakwait()
            .label("prefix_sum_rec")
            .spawn(move |t| prefix_sum_specs(t, &d, offset + substart, n - substart, ts, block));

        let mut specs: Vec<TaskSpec> = Vec::new();
        let mut i = substart;
        while i + stride < n {
            let size = block.min(n - i);
            let d = data.clone();
            specs.push(
                ctx.task()
                    .input(data.region(offset + i..offset + i + 1))
                    .inout(data.region(offset + i + stride..offset + i + size))
                    .label("accumulation")
                    .stage(move |t| {
                        let carry = d.read(t, offset + i..offset + i + 1)[0];
                        let span = d.write(t, offset + i + stride..offset + i + size);
                        for value in span.iter_mut().step_by(stride) {
                            *value += carry;
                        }
                    }),
            );
            i += block;
        }
        ctx.spawn_batch(specs);
    }

    /// The weak prefix sum's scan and accumulation waves, as `spawn_each` waves and as staged
    /// specs, give the engine the same graph — equal registration counters, edges, accesses
    /// and ready-at-registration included — and the same sums, under every scheduling policy.
    /// The sizes leave a partial last block and, at `n = 513`, a last block of one element,
    /// which has nothing to scan. Each job is held until its whole graph is registered.
    #[test]
    fn spawn_each_scan_waves_register_the_graph_of_the_spec_waves() {
        type Scan = fn(&TaskCtx<'_>, &SharedSlice<Elem>, usize, usize, usize, usize);
        let each: Scan =
            |ctx, data, offset, n, ts, stride| prefix_sum(ctx, data, offset, n, ts, stride, true);
        let mut rng = SmallRng::seed_from_u64(38);
        for (n, ts) in [(512usize, 8usize), (513, 8), (1_000, 8), (77, 2)] {
            let input: Vec<Elem> = (0..n).map(|_| rng.gen_range(-1_000..1_000)).collect();
            let mut expected = input.clone();
            for i in 1..n {
                expected[i] += expected[i - 1];
            }
            let run = |policy, tasks, scan: Scan| {
                let data = SharedSlice::from_vec(input.clone());
                let whole = data.full_region();
                let d = data.clone();
                let stats = held_run(policy, whole, tasks, move |root| {
                    root.task()
                        .weak_inout(whole)
                        .weakwait()
                        .label("prefix_sum_root")
                        .spawn(move |t| scan(t, &d, 0, n, ts, 1));
                });
                assert_eq!(
                    data.snapshot(),
                    expected,
                    "n = {n}, ts = {ts} under {policy:?}"
                );
                stats
            };
            let tasks = run(SchedulingPolicy::default(), 0, prefix_sum_specs).tasks_registered;
            for policy in SchedulingPolicy::all() {
                let by_each = registered_graph(&run(policy, tasks, each));
                let by_specs = registered_graph(&run(policy, tasks, prefix_sum_specs));
                let what = format!("n = {n}, ts = {ts} under {policy:?}");
                assert_eq!(by_each[0], tasks, "{what}: tasks registered");
                assert_eq!(by_each, by_specs, "{what}");
            }
        }
    }

    #[test]
    fn both_variants_match_the_reference() {
        let rt = Runtime::with_workers(4);
        let cfg = SortScanConfig::small();
        for variant in SortScanVariant::all() {
            let (_run, result) = run(&rt, variant, &cfg);
            assert!(
                verify(&cfg, &result),
                "variant {} produced a wrong result",
                variant.name()
            );
        }
    }

    #[test]
    fn tiny_and_odd_sizes_work() {
        let rt = Runtime::with_workers(2);
        for n in [1usize, 2, 3, 17, 255, 1023] {
            let cfg = SortScanConfig { n, ts: 8, seed: 3 };
            let (_run, result) = run(&rt, SortScanVariant::Weak, &cfg);
            assert!(verify(&cfg, &result), "n = {n}");
        }
    }

    #[test]
    fn already_sorted_and_constant_inputs() {
        let rt = Runtime::with_workers(2);
        // Constant input exercises the pivot/partition edge cases.
        let cfg = SortScanConfig {
            n: 2_048,
            ts: 64,
            seed: 0,
        };
        let data = SharedSlice::from_vec(vec![7 as Elem; cfg.n]);
        run_on(&rt, SortScanVariant::Weak, &cfg, &data);
        let expected: Vec<Elem> = (1..=cfg.n as Elem).map(|i| 7 * i).collect();
        assert_eq!(data.snapshot(), expected);
    }

    #[test]
    fn single_worker_matches_reference() {
        let rt = Runtime::with_workers(1);
        let cfg = SortScanConfig {
            n: 3_000,
            ts: 128,
            seed: 9,
        };
        for variant in SortScanVariant::all() {
            let (_run, result) = run(&rt, variant, &cfg);
            assert!(verify(&cfg, &result), "variant {}", variant.name());
        }
    }

    /// A leaf's release climbs the finished `weakwait` quicksort levels in one `CompleteUp`:
    /// the weak variant sends at most one per task (0.41 at 1 worker). A release that visits
    /// every level on its way up sends one per level: 4.36 per task here.
    #[test]
    fn weak_hand_overs_climb_the_quicksort_in_one_message() {
        let cfg = SortScanConfig {
            n: 1 << 15,
            ts: 64,
            seed: 5,
        };
        for workers in [1, 2] {
            let rt = Runtime::with_workers(workers);
            let before = rt.stats();
            let (run, result) = run(&rt, SortScanVariant::Weak, &cfg);
            assert!(verify(&cfg, &result));
            let sent = rt.stats().engine.complete_up_messages - before.engine.complete_up_messages;
            let per_task = sent as f64 / run.tasks as f64;
            assert!(
                per_task <= 1.0,
                "{workers} workers: {sent} CompleteUps over {} tasks",
                run.tasks
            );
        }
    }

    #[test]
    fn operations_metric_is_positive() {
        assert!(SortScanConfig::small().operations() > 0.0);
    }
}
