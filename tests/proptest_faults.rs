//! Property-based tests of the fault-tolerant job lifecycle (ISSUE 9): random K-job mixes
//! where a random subset of jobs is fault-injected — a panicking task, an unmeetable
//! deadline, or an explicit cancel — on one shared service.
//!
//! * **Isolation under faults** — every *clean* job's output equals the output of the same
//!   graph on a fresh isolated runtime: a neighbour's panic, deadline abort or cancellation
//!   must not perturb anyone else's result.
//! * **Typed outcomes** — every faulted job's `wait_result()` reports exactly the injected
//!   fault: `Panicked` (payload preserved), `DeadlineExceeded`, or `Cancelled`.
//! * **Drain under faults** — every job, faulted or not, fully drains: per-job
//!   `registered == deeply_completed` and `executed + skipped == registered`, the aggregate
//!   engine accounting balances, and the service ends at its capacity plateau.
//!
//! The injection here is *manual* (a body that calls `panic!`, a deadline the body cannot
//! meet, a `cancel()` from the test thread), so the suite is feature-free and runs both in
//! plain release CI and under `--features sentinel`; the seeded `FaultPlan` machinery has its
//! own unit tests and `tests/chaos.rs`.

use proptest::prelude::*;
use std::time::Duration;

use weakdep::{JobError, JobOptions, PanicPolicy, Runtime, RuntimeConfig, SharedSlice, TaskCtx};

const CELLS: usize = 32;
const BLOCK: usize = 8;

/// Ceiling on any single wait: a job that cannot finish under injection is itself a bug.
const NO_HANG: Duration = Duration::from_secs(60);

/// One randomly generated flat task of a job's graph (same scheme as `proptest_multijob`).
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

/// Which fault, if any, the harness injects into a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fault {
    None,
    /// One extra task panics; the rest of the graph is subject to the panic policy.
    Panic(PanicPolicy),
    /// A deadline far below the body's serial sleep time.
    Deadline,
    /// `cancel()` from the submitter right after submission.
    Cancel,
}

fn fault_strategy() -> impl Strategy<Value = Fault> {
    (0u8..8).prop_map(|sel| match sel {
        0 => Fault::Panic(PanicPolicy::FailFast),
        1 => Fault::Panic(PanicPolicy::RunToCompletion),
        2 => Fault::Deadline,
        3 => Fault::Cancel,
        _ => Fault::None,
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

/// The reference: the same graph on a fresh, isolated, fault-free runtime.
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

/// Swallows the panic printouts of the faults this suite injects on purpose.
fn install_panic_filter() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|m| m.starts_with("proptest injected"));
            if !injected {
                default_hook(info);
            }
        }));
    });
}

/// Blocks (bounded by [`NO_HANG`]) for the job's typed outcome, then checks that the job —
/// whatever its fate — fully drained.
fn wait_and_check_drain(
    handle: &weakdep::JobHandle<Vec<u64>>,
) -> Result<Option<Vec<u64>>, JobError> {
    let outcome = handle
        .wait_timeout(NO_HANG)
        .unwrap_or_else(|| panic!("job {} hung past {NO_HANG:?} under injection", handle.id()));
    let stats = handle.stats();
    assert!(stats.finished);
    assert_eq!(
        stats.tasks_registered,
        stats.tasks_deeply_completed,
        "job {}: registered != deeply_completed after finishing",
        handle.id()
    );
    assert_eq!(
        stats.tasks_executed + stats.tasks_skipped,
        stats.tasks_registered,
        "job {}: every dispatched body must either execute or be skipped",
        handle.id()
    );
    outcome
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// K concurrent jobs, a random subset fault-injected: clean jobs match their isolated
    /// oracle, faulted jobs report exactly the injected `JobError`, everything drains.
    #[test]
    fn faulted_neighbours_never_perturb_clean_jobs(
        jobs in proptest::collection::vec(
            (proptest::collection::vec(decl_strategy(), 1..8), fault_strategy()),
            3..6,
        ),
    ) {
        install_panic_filter();
        let rt = Runtime::new(RuntimeConfig::new().workers(4));
        let handles: Vec<_> = jobs
            .iter()
            .map(|(decls, fault)| {
                let decls = decls.clone();
                match *fault {
                    Fault::None => rt.submit(move |ctx| {
                        let data = SharedSlice::<u64>::filled(CELLS, 1);
                        for decl in &decls {
                            spawn_decl(ctx, &data, decl);
                        }
                        ctx.taskwait();
                        data.snapshot()
                    }),
                    Fault::Panic(policy) => rt.submit_with(
                        JobOptions::new().panic_policy(policy).label("faulted"),
                        move |ctx| {
                            let data = SharedSlice::<u64>::filled(CELLS, 1);
                            // The injected failure, then the rest of the graph: under
                            // fail-fast the tail may be skipped, under run-to-completion it
                            // executes — either way the job must drain and report the panic.
                            ctx.task().label("injected-panic").spawn(|_| {
                                panic!("proptest injected panic");
                            });
                            for decl in &decls {
                                spawn_decl(ctx, &data, decl);
                            }
                            ctx.taskwait();
                            data.snapshot()
                        },
                    ),
                    Fault::Deadline => rt.submit_with(
                        JobOptions::new()
                            .deadline(Duration::from_millis(2))
                            .label("over-deadline"),
                        move |ctx| {
                            // A serial chain of sleeps (inout over one cell) that cannot
                            // finish within the 2 ms deadline.
                            let data = SharedSlice::<u64>::filled(1, 0);
                            for _ in 0..20 {
                                let d = data.clone();
                                ctx.task().inout(data.region(0..1)).label("slow-link").spawn(
                                    move |t| {
                                        std::thread::sleep(Duration::from_millis(5));
                                        d.write(t, 0..1)[0] += 1;
                                    },
                                );
                            }
                            ctx.taskwait();
                            data.snapshot()
                        },
                    ),
                    Fault::Cancel => rt.submit(move |ctx| {
                        let data = SharedSlice::<u64>::filled(CELLS, 1);
                        for decl in &decls {
                            spawn_decl(ctx, &data, decl);
                        }
                        ctx.taskwait();
                        data.snapshot()
                    }),
                }
            })
            .collect();
        // Inject the cancels only after every job is submitted, so cancelled jobs' drain
        // overlaps the clean jobs' execution (the interesting interleaving).
        for ((_, fault), handle) in jobs.iter().zip(&handles) {
            if *fault == Fault::Cancel {
                handle.cancel();
            }
        }

        for ((decls, fault), handle) in jobs.iter().zip(&handles) {
            let outcome = wait_and_check_drain(handle);
            match fault {
                Fault::None => {
                    let snapshot = match outcome {
                        Ok(Some(snapshot)) => snapshot,
                        other => {
                            return Err(TestCaseError::fail(format!(
                                "clean job reported {other:?} instead of its value"
                            )))
                        }
                    };
                    prop_assert_eq!(
                        snapshot,
                        run_isolated(decls),
                        "a clean job diverged from its isolated run while neighbours faulted"
                    );
                }
                Fault::Panic(_) => match outcome {
                    Err(JobError::Panicked { message, payload }) => {
                        prop_assert!(
                            message.contains("proptest injected panic"),
                            "wrong panic message: {}", message
                        );
                        // The original payload survives for `resume_unwind` callers.
                        prop_assert_eq!(
                            payload.downcast_ref::<&str>().copied(),
                            Some("proptest injected panic")
                        );
                    }
                    other => {
                        return Err(TestCaseError::fail(format!(
                            "panicking job reported {other:?}"
                        )))
                    }
                },
                Fault::Deadline => match outcome {
                    Err(JobError::DeadlineExceeded) => {}
                    other => {
                        return Err(TestCaseError::fail(format!(
                            "over-deadline job reported {other:?}"
                        )))
                    }
                },
                Fault::Cancel => match outcome {
                    Err(JobError::Cancelled) => {}
                    other => {
                        return Err(TestCaseError::fail(format!(
                            "cancelled job reported {other:?}"
                        )))
                    }
                },
            }
        }

        // Service-wide: everything drained, accounting balances, capacity is at plateau.
        let stats = rt.stats();
        prop_assert_eq!(stats.jobs_submitted, jobs.len());
        prop_assert_eq!(stats.jobs_completed, jobs.len(), "faulted jobs must still drain");
        prop_assert_eq!(
            stats.engine.tasks_registered, stats.engine.tasks_deeply_completed,
            "aggregate accounting must balance under injection"
        );
        let capacity = rt.capacity();
        prop_assert_eq!(capacity.live_tasks, 0);
        prop_assert_eq!(capacity.live_jobs, 0);
    }
}
