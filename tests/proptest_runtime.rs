//! Property-based tests of the runtime: random task graphs, executed on the real multi-threaded
//! runtime, must respect every declared dependency and produce the same data as a sequential
//! execution of the same program order.

use proptest::prelude::*;
use std::sync::Arc;

use weakdep::{AccessType, Runtime, RuntimeConfig, SharedSlice};
use weakdep_trace::TraceCollector;

/// One randomly generated task declaration: which 8-byte cells it reads and which it writes.
#[derive(Clone, Debug)]
struct TaskDecl {
    reads: Vec<usize>,
    writes: Vec<usize>,
}

const CELLS: usize = 8;

fn task_decl_strategy() -> impl Strategy<Value = TaskDecl> {
    (
        proptest::collection::vec(0..CELLS, 0..3),
        proptest::collection::vec(0..CELLS, 1..3),
    )
        .prop_map(|(reads, writes)| TaskDecl { reads, writes })
}

fn conflicts(a: &TaskDecl, b: &TaskDecl) -> bool {
    let hits = |xs: &[usize], ys: &[usize]| xs.iter().any(|x| ys.contains(x));
    hits(&a.writes, &b.writes) || hits(&a.writes, &b.reads) || hits(&a.reads, &b.writes)
}

/// Sequential model: every task adds its (1-based) index to each cell it writes.
fn sequential_model(decls: &[TaskDecl]) -> Vec<u64> {
    let mut cells = vec![0u64; CELLS];
    for (idx, decl) in decls.iter().enumerate() {
        for &w in &decl.writes {
            cells[w] += idx as u64 + 1;
        }
    }
    cells
}

fn run_flat(
    decls: &[TaskDecl],
    workers: usize,
) -> (Vec<u64>, Vec<weakdep_trace::TraceEvent>, Vec<&'static str>) {
    // Labels must be 'static: index into a fixed table (graphs are capped at 24 tasks).
    const LABELS: [&str; 24] = [
        "t00", "t01", "t02", "t03", "t04", "t05", "t06", "t07", "t08", "t09", "t10", "t11", "t12",
        "t13", "t14", "t15", "t16", "t17", "t18", "t19", "t20", "t21", "t22", "t23",
    ];
    let trace = TraceCollector::shared();
    let rt = Runtime::new(
        RuntimeConfig::new()
            .workers(workers)
            .observer(trace.clone()),
    );
    let data = SharedSlice::<u64>::new(CELLS);
    let decls_owned: Vec<TaskDecl> = decls.to_vec();
    let d = data.clone();
    rt.run(move |ctx| {
        for (idx, decl) in decls_owned.iter().enumerate() {
            let mut builder = ctx.task().label(LABELS[idx]);
            for &r in &decl.reads {
                builder = builder.depend(AccessType::In, d.region(r..r + 1));
            }
            for &w in &decl.writes {
                builder = builder.depend(AccessType::InOut, d.region(w..w + 1));
            }
            let d2 = d.clone();
            let writes = decl.writes.clone();
            let reads = decl.reads.clone();
            builder.spawn(move |t| {
                for &r in &reads {
                    std::hint::black_box(d2.read(t, r..r + 1)[0]);
                }
                for &w in &writes {
                    d2.write(t, w..w + 1)[0] += idx as u64 + 1;
                }
            });
        }
    });
    (data.snapshot(), trace.events(), LABELS.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random flat graphs: the final data matches the sequential model and conflicting tasks
    /// never overlap in time and finish in program order.
    #[test]
    fn flat_graphs_respect_program_order(
        decls in proptest::collection::vec(task_decl_strategy(), 1..24),
        workers in 1usize..5,
    ) {
        let (cells, events, labels) = run_flat(&decls, workers);
        prop_assert_eq!(cells, sequential_model(&decls));
        prop_assert_eq!(events.len(), decls.len());
        // Trace-level ordering check.
        let find = |label: &str| events.iter().find(|e| e.label == label).unwrap();
        for i in 0..decls.len() {
            for j in (i + 1)..decls.len() {
                if conflicts(&decls[i], &decls[j]) {
                    let ei = find(labels[i]);
                    let ej = find(labels[j]);
                    prop_assert!(
                        ei.end_ns <= ej.start_ns,
                        "conflicting tasks {} and {} overlapped ({}..{} vs {}..{})",
                        i, j, ei.start_ns, ei.end_ns, ej.start_ns, ej.end_ns
                    );
                }
            }
        }
    }

    /// The same random graphs, but every task is wrapped in an outer task with weak accesses and
    /// weakwait (two-level nesting): the result must still match the sequential model — the
    /// "single dependency domain" equivalence of §VI.
    #[test]
    fn nested_weak_graphs_match_sequential_model(
        decls in proptest::collection::vec(task_decl_strategy(), 1..16),
        workers in 1usize..5,
    ) {
        let rt = Runtime::with_workers(workers);
        let data = SharedSlice::<u64>::new(CELLS);
        let decls_owned = decls.clone();
        let d = data.clone();
        rt.run(move |ctx| {
            for (idx, decl) in decls_owned.iter().enumerate() {
                // Outer task: weak accesses over everything the inner task touches.
                let mut outer = ctx.task().label("outer").weakwait();
                for &r in &decl.reads {
                    outer = outer.depend(AccessType::WeakIn, d.region(r..r + 1));
                }
                for &w in &decl.writes {
                    outer = outer.depend(AccessType::WeakInOut, d.region(w..w + 1));
                }
                let d2 = d.clone();
                let decl = decl.clone();
                outer.spawn(move |t| {
                    let mut inner = t.task().label("inner");
                    for &r in &decl.reads {
                        inner = inner.depend(AccessType::In, d2.region(r..r + 1));
                    }
                    for &w in &decl.writes {
                        inner = inner.depend(AccessType::InOut, d2.region(w..w + 1));
                    }
                    let d3 = d2.clone();
                    inner.spawn(move |c| {
                        for &r in &decl.reads {
                            std::hint::black_box(d3.read(c, r..r + 1)[0]);
                        }
                        for &w in &decl.writes {
                            d3.write(c, w..w + 1)[0] += idx as u64 + 1;
                        }
                    });
                });
            }
        });
        prop_assert_eq!(data.snapshot(), sequential_model(&decls));
    }

    /// Randomly sized axpy problems match the sequential reference in every variant.
    #[test]
    fn axpy_random_sizes_match_reference(
        n in 256usize..6_000,
        task_size in 64usize..1_024,
        calls in 1usize..5,
        workers in 1usize..5,
    ) {
        use weakdep_kernels::axpy::{self, AxpyConfig, AxpyVariant};
        let cfg = AxpyConfig { n, calls, task_size, alpha: 1.5 };
        let rt = Runtime::with_workers(workers);
        for variant in [AxpyVariant::NestWeak, AxpyVariant::NestWeakRelease, AxpyVariant::FlatDepend] {
            let (_run, result) = axpy::run(&rt, variant, &cfg);
            prop_assert!(axpy::verify(&cfg, &result), "variant {}", variant.name());
        }
    }

    /// Random quicksort + prefix-sum instances match the reference in both variants.
    #[test]
    fn sort_scan_random_instances_match_reference(
        n in 1usize..5_000,
        ts in 16usize..512,
        seed in any::<u64>(),
        workers in 1usize..5,
    ) {
        use weakdep_kernels::sort_scan::{self, SortScanConfig, SortScanVariant};
        let cfg = SortScanConfig { n, ts, seed };
        let rt = Runtime::with_workers(workers);
        for variant in SortScanVariant::all() {
            let (_run, result) = sort_scan::run(&rt, variant, &cfg);
            prop_assert!(sort_scan::verify(&cfg, &result), "variant {}", variant.name());
        }
    }
}

/// Non-proptest sanity check used to keep the helper functions honest.
#[test]
fn sequential_model_accumulates_indices() {
    let decls = vec![
        TaskDecl {
            reads: vec![],
            writes: vec![0, 1],
        },
        TaskDecl {
            reads: vec![0],
            writes: vec![1],
        },
    ];
    assert_eq!(sequential_model(&decls)[0], 1);
    assert_eq!(sequential_model(&decls)[1], 3);
    assert!(conflicts(&decls[0], &decls[1]));
    let _ = Arc::new(0);
}
