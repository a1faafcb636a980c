//! Property-based tests of the multi-tenant service (ISSUE 8): K concurrent jobs on one
//! shared engine + pool must behave exactly like K isolated runtimes.
//!
//! * **Isolation** — each job's final data equals the data the same graph produces on a fresh
//!   single-job runtime: jobs are independent root domains, so no dependency, conflict or
//!   effect ever crosses jobs.
//! * **Per-job accounting** — every finished job reports `tasks_registered ==
//!   tasks_deeply_completed` on its own stats slice, and the aggregate engine accounting
//!   balances across the whole service.
//! * **Capacity plateau** — after every job retires, the service holds no live tasks or jobs:
//!   per-task slots are recycled across tenants, not leaked per job.
//! * **Cancellation** — after `cancel()` returns, no task body of the cancelled job ever
//!   starts (the `SeqCst` bracket argument in `weakdep::core`'s job module, model-checked in
//!   `crates/core/tests/loom_cancel.rs`); the cancelled job still drains and `wait()` returns
//!   `None`.

use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use weakdep::{Runtime, RuntimeConfig, SchedulingPolicy, SharedSlice, TaskCtx};

const CELLS: usize = 32;
const BLOCK: usize = 8;

/// One randomly generated flat task of a job's graph: an access-typed block region plus a
/// salt folded into the data, with an optional `taskwait` after spawning.
#[derive(Clone, Debug)]
struct Decl {
    accesses: Vec<(u8, u8)>, // (block index, access-type selector)
    wait_after: bool,
    salt: u64,
}

fn decl_strategy() -> impl Strategy<Value = Decl> {
    (
        proptest::collection::vec((0u8..4, 0u8..3), 1..3),
        0u8..5,
        any::<u64>(),
    )
        .prop_map(|(accesses, wait_sel, salt)| Decl {
            accesses,
            wait_after: wait_sel == 0,
            salt,
        })
}

fn range_of((block, _ty): (u8, u8)) -> std::ops::Range<usize> {
    let start = block as usize * BLOCK;
    start..start + BLOCK
}

fn apply_body(ctx: &TaskCtx<'_>, data: &SharedSlice<u64>, accesses: &[(u8, u8)], salt: u64) {
    let mut acc = salt;
    for &a in accesses {
        if a.1 != 1 {
            for v in data.read(ctx, range_of(a)) {
                acc = acc.wrapping_mul(31).wrapping_add(*v);
            }
        }
    }
    for &a in accesses {
        match a.1 {
            1 => {
                for (i, v) in data.write(ctx, range_of(a)).iter_mut().enumerate() {
                    *v = acc.wrapping_add(i as u64);
                }
            }
            2 => {
                for v in data.write(ctx, range_of(a)).iter_mut() {
                    *v = v.wrapping_mul(3).wrapping_add(acc);
                }
            }
            _ => {}
        }
    }
}

fn spawn_decl(ctx: &TaskCtx<'_>, data: &SharedSlice<u64>, decl: &Decl) {
    use weakdep::AccessType;
    let strong = |ty: u8| match ty {
        0 => AccessType::In,
        1 => AccessType::Out,
        _ => AccessType::InOut,
    };
    let mut builder = ctx.task().label("job-task");
    for &a in &decl.accesses {
        builder = builder.depend(strong(a.1), data.region(range_of(a)));
    }
    let inner = decl.clone();
    let d = data.clone();
    builder.spawn(move |t| apply_body(t, &d, &inner.accesses, inner.salt));
    if decl.wait_after {
        ctx.taskwait();
    }
}

/// The reference: the same graph on a fresh, isolated single-job runtime.
fn run_isolated(decls: &[Decl]) -> Vec<u64> {
    let rt = Runtime::new(RuntimeConfig::new().workers(2));
    let data = SharedSlice::<u64>::filled(CELLS, 1);
    let d = data.clone();
    let decls = decls.to_vec();
    rt.run(move |ctx| {
        for decl in &decls {
            spawn_decl(ctx, &d, decl);
        }
    });
    data.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// K concurrent jobs on one service: isolation, per-job accounting, capacity plateau —
    /// under both the locality default and the fair-share policy.
    #[test]
    fn concurrent_jobs_match_isolated_runtimes(
        jobs in proptest::collection::vec(
            proptest::collection::vec(decl_strategy(), 1..10),
            2..5,
        ),
    ) {
        for policy in [SchedulingPolicy::LocalitySlot, SchedulingPolicy::FairShare] {
            let rt = Runtime::new(RuntimeConfig::new().workers(4).scheduling_policy(policy));
            let handles: Vec<_> = jobs
                .iter()
                .map(|decls| {
                    let decls = decls.clone();
                    rt.submit(move |ctx| {
                        let data = SharedSlice::<u64>::filled(CELLS, 1);
                        for decl in &decls {
                            spawn_decl(ctx, &data, decl);
                        }
                        ctx.taskwait();
                        data.snapshot()
                    })
                })
                .collect();
            for (decls, handle) in jobs.iter().zip(handles) {
                let job_stats = handle.stats();
                let snapshot = handle
                    .wait_result()
                    .expect("an uncancelled job succeeds")
                    .expect("an uncancelled job returns its value");
                prop_assert_eq!(
                    snapshot,
                    run_isolated(decls),
                    "policy {}: a shared-service job diverged from its isolated run",
                    policy.name()
                );
                prop_assert!(
                    job_stats.tasks_deeply_completed <= job_stats.tasks_registered,
                    "a live stats slice can never over-report completion"
                );
            }
            let stats = rt.stats();
            prop_assert_eq!(
                stats.engine.tasks_registered, stats.engine.tasks_deeply_completed,
                "aggregate accounting must balance once every job retired"
            );
            // Every job retired: the per-job slices balance and the service is at plateau.
            let capacity = rt.capacity();
            prop_assert_eq!(capacity.live_tasks, 0, "no live tasks after all jobs finished");
            prop_assert_eq!(capacity.live_jobs, 0, "no live jobs after all jobs finished");
            prop_assert!(rt.job_stats().is_empty());
            prop_assert_eq!(stats.jobs_submitted, jobs.len());
            prop_assert_eq!(stats.jobs_completed, jobs.len());
        }
    }

    /// Cancelling a random subset of concurrent jobs: no body of a cancelled job starts after
    /// its `cancel()` returned, cancelled jobs still drain (the service finishes all jobs),
    /// and survivors are unaffected.
    #[test]
    fn cancelled_jobs_never_run_bodies_after_cancel_returns(
        job_sizes in proptest::collection::vec(1usize..20, 2..5),
        cancel_mask in proptest::collection::vec(any::<bool>(), 4..5),
    ) {
        let rt = Runtime::new(RuntimeConfig::new().workers(2));
        let violations = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = job_sizes
            .iter()
            .map(|&n| {
                let cancel_returned = Arc::new(AtomicBool::new(false));
                let (cr, v) = (Arc::clone(&cancel_returned), Arc::clone(&violations));
                let handle = rt.submit(move |ctx| {
                    for _ in 0..n {
                        let (cr2, v2) = (Arc::clone(&cr), Arc::clone(&v));
                        ctx.task().label("cancellable").spawn(move |_| {
                            // Body start: must never observe its own job's cancel() returned.
                            if cr2.load(Ordering::SeqCst) {
                                v2.fetch_add(1, Ordering::SeqCst);
                            }
                        });
                    }
                    ctx.taskwait();
                });
                (handle, cancel_returned)
            })
            .collect();
        let mut cancelled = 0;
        for (i, (handle, cancel_returned)) in handles.iter().enumerate() {
            if *cancel_mask.get(i).unwrap_or(&false) {
                handle.cancel();
                cancel_returned.store(true, Ordering::SeqCst);
                cancelled += 1;
            }
        }
        for (handle, _) in handles {
            // A cancelled job reports `Cancelled`, an uncancelled one its value; either way the
            // job drains and wait_result() returns.
            let _ = handle.wait_result();
        }
        prop_assert_eq!(
            violations.load(Ordering::SeqCst), 0,
            "a task body started after its job's cancel() returned"
        );
        let stats = rt.stats();
        prop_assert_eq!(stats.jobs_completed, job_sizes.len(), "cancelled jobs must drain");
        // `<=`: a job that finished before its cancel() landed is completed but not counted
        // as cancelled (the flag was set after its root retired from the registry).
        prop_assert!(stats.jobs_cancelled <= cancelled);
        prop_assert_eq!(rt.capacity().live_jobs, 0);
    }
}
