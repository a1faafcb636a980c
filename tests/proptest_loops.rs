//! Property-based equivalence of the work-assisting loop primitives (ISSUE 10): under random
//! problem sizes and chunk grains, [`TaskCtx::for_each`]-based and [`TaskCtx::scan`]-based
//! kernels must be **bitwise-equal** to both the task-spawned decomposition and the
//! sequential oracle, under every [`SchedulingPolicy`] — and the scheduler/assist accounting
//! identities must hold afterwards. The arithmetic is `u64` wrapping addition, which is
//! associative and exact, so "bitwise" is a meaningful bar. Green under `--features
//! sentinel`: the loop views validate the registering task's footprint once at creation.
//!
//! [`TaskCtx::for_each`]: weakdep::TaskCtx::for_each
//! [`TaskCtx::scan`]: weakdep::TaskCtx::scan

use proptest::prelude::*;

use weakdep::{Runtime, RuntimeConfig, SchedulingPolicy, SharedSlice};
use weakdep_kernels::parallel_loops::{
    reduce_assist, reduce_reference, reduce_tasks, scan_assist, scan_reference, scan_tasks,
    LoopConfig,
};

fn input_slice(seed: u64, n: usize) -> SharedSlice<u64> {
    let input = SharedSlice::<u64>::new(n);
    input.init_with(|i| {
        (i as u64)
            .wrapping_add(seed)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
    });
    input
}

fn runtime(policy: SchedulingPolicy) -> Runtime {
    Runtime::new(RuntimeConfig::new().workers(2).scheduling_policy(policy))
}

fn check_identities(rt: &Runtime, policy: SchedulingPolicy) -> Result<(), TestCaseError> {
    let stats = rt.stats();
    prop_assert_eq!(
        stats.engine.tasks_registered,
        stats.engine.tasks_deeply_completed,
        "policy {}: every registered task must deeply complete",
        policy.name()
    );
    prop_assert_eq!(
        stats.tasks_executed,
        stats.successor_slot_hits + stats.local_pops + stats.injector_pops + stats.steals,
        "policy {}: scheduler accounting identity violated",
        policy.name()
    );
    prop_assert!(
        stats.assisted_loops <= stats.assist_steals && stats.assist_steals <= stats.assist_chunks,
        "policy {}: assist counter identity violated (loops={} steals={} chunks={})",
        policy.name(),
        stats.assisted_loops,
        stats.assist_steals,
        stats.assist_chunks
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// `scan` (assist) == task-spawned scan == sequential oracle, bit for bit, under every
    /// policy.
    #[test]
    fn scan_matches_both_oracles_under_every_policy(
        n in 0usize..700,
        chunk in 1usize..96,
        seed in any::<u64>(),
    ) {
        let cfg = LoopConfig { n, chunk };
        let input = input_slice(seed, n);
        let expected = scan_reference(&input.snapshot());
        for policy in SchedulingPolicy::all() {
            let rt = runtime(policy);
            let out_assist = SharedSlice::<u64>::new(n);
            scan_assist(&rt, &cfg, &input, &out_assist);
            prop_assert_eq!(
                out_assist.snapshot(),
                expected.clone(),
                "assist scan diverged from the sequential oracle under {}",
                policy.name()
            );
            let out_tasks = SharedSlice::<u64>::new(n);
            scan_tasks(&rt, &cfg, &input, &out_tasks);
            prop_assert_eq!(
                out_tasks.snapshot(),
                expected.clone(),
                "task-spawned scan diverged from the sequential oracle under {}",
                policy.name()
            );
            check_identities(&rt, policy)?;
        }
    }

    /// `for_each` (assist reduction) == task-spawned reduction == sequential oracle, under
    /// every policy.
    #[test]
    fn for_each_reduction_matches_both_oracles_under_every_policy(
        n in 0usize..900,
        chunk in 1usize..128,
        seed in any::<u64>(),
    ) {
        let cfg = LoopConfig { n, chunk };
        let input = input_slice(seed, n);
        let expected = reduce_reference(&input.snapshot());
        for policy in SchedulingPolicy::all() {
            let rt = runtime(policy);
            let (_, via_assist) = reduce_assist(&rt, &cfg, &input);
            prop_assert_eq!(
                via_assist, expected,
                "assist reduction diverged from the sequential oracle under {}",
                policy.name()
            );
            let (_, via_tasks) = reduce_tasks(&rt, &cfg, &input);
            prop_assert_eq!(
                via_tasks, expected,
                "task-spawned reduction diverged from the sequential oracle under {}",
                policy.name()
            );
            check_identities(&rt, policy)?;
        }
    }
}
