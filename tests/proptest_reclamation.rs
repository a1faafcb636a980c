//! Property-based tests of the id-retirement protocol: under randomly shaped dependency graphs,
//! random wait modes and random (legal) completion interleavings, recycled ids must
//! never alias — a stale `TaskId` of a completed task always yields the defined `StaleTaskId`
//! error, and capacity plateaus instead of tracking the total task count.

use proptest::prelude::*;

use weakdep::core::{DependencyEngine, StaleTaskId, TaskId};
use weakdep::{AccessType, Depend, Region, SpaceId, WaitMode};

/// One randomly generated flat task: 1–3 accesses over a small region pool, any wait mode.
#[derive(Clone, Debug)]
struct Decl {
    accesses: Vec<(u8, u8)>, // (region index, access-type selector)
    mode: u8,
}

fn decl_strategy() -> impl Strategy<Value = Decl> {
    (proptest::collection::vec((0u8..6, 0u8..4), 1..4), 0u8..3)
        .prop_map(|(accesses, mode)| Decl { accesses, mode })
}

fn region(idx: u8) -> Region {
    let start = idx as usize * 10;
    Region::new(SpaceId(1), start, start + 10)
}

fn deps_of(decl: &Decl) -> Vec<Depend> {
    decl.accesses
        .iter()
        .map(|&(r, a)| {
            let access = match a {
                0 => AccessType::In,
                1 => AccessType::Out,
                2 => AccessType::InOut,
                _ => AccessType::WeakInOut,
            };
            Depend::new(access, region(r))
        })
        .collect()
}

fn mode_of(decl: &Decl) -> WaitMode {
    match decl.mode {
        0 => WaitMode::None,
        1 => WaitMode::Wait,
        _ => WaitMode::WeakWait,
    }
}

/// Deterministic pseudo-random picker (the interleaving source), seeded by proptest.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, bound: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) as usize) % bound.max(1)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Several rounds of spawn-everything / finish-in-random-legal-order through one engine:
    /// after a round drains, every id from it (and every earlier round) is stale and stays
    /// stale — slot reuse in later rounds must never make a dead id answer again.
    #[test]
    fn recycled_slots_never_alias_under_random_interleavings(
        rounds in proptest::collection::vec(
            proptest::collection::vec(decl_strategy(), 1..12),
            1..4,
        ),
        seed in any::<u64>(),
    ) {
        let engine = DependencyEngine::new();
        let root = engine.register_root();
        let mut rng = Lcg(seed);
        let mut dead: Vec<TaskId> = Vec::new();

        for round in &rounds {
            // Spawn the whole round, tracking readiness.
            let mut ready: Vec<TaskId> = Vec::new();
            let mut pending: Vec<TaskId> = Vec::new();
            for decl in round {
                let (id, is_ready) = engine
                    .register_task(root, &deps_of(decl), mode_of(decl))
                    .expect("live parent");
                // A live id must always answer the typed query.
                prop_assert_eq!(engine.try_is_deeply_completed(id), Ok(false));
                if is_ready { ready.push(id) } else { pending.push(id) }
            }
            // Finish in a random legal order until the round drains.
            let mut finished = 0usize;
            while finished < round.len() {
                prop_assert!(!ready.is_empty(), "engine stuck: pending tasks but none ready");
                let pick = rng.next(ready.len());
                let id = ready.swap_remove(pick);
                let effects = engine.body_finished(id).expect("live task");
                finished += 1;
                for newly in effects.ready {
                    let pos = pending.iter().position(|p| *p == newly);
                    prop_assert!(pos.is_some(), "ready effect for an unknown task");
                    pending.swap_remove(pos.unwrap());
                    ready.push(newly);
                }
                dead.push(id);
            }
            // Everything that ever completed — this round and all earlier ones, whose slots may
            // since have been recycled — must now be stale, never aliased.
            for &id in &dead {
                prop_assert_eq!(engine.try_is_deeply_completed(id), Err(StaleTaskId(id)));
                prop_assert_eq!(engine.try_live_children(id), Err(StaleTaskId(id)));
                // The untyped conveniences keep their documented post-retirement answers.
                prop_assert!(engine.is_deeply_completed(id));
                prop_assert_eq!(engine.live_children(id), 0);
            }
        }

        let total: usize = rounds.iter().map(Vec::len).sum();
        let stats = engine.stats();
        prop_assert_eq!(stats.tasks_registered, total + 1); // + root
        prop_assert_eq!(stats.tasks_retired, total, "every finished task must retire");
        // Capacity plateaus at the per-round high-water mark, not the running total.
        prop_assert!(
            engine.ids_minted() <= 12 + 4,
            "{} ids minted, above the live high-water bound", engine.ids_minted()
        );
    }
}
