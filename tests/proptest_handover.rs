//! Property test of the §V hand-over against a per-coordinate oracle. A `weakwait` parent P
//! holds `weakinout [0, N)` behind a root writer W; its leaf children declare random strong and
//! weak accesses over partly overlapping sub-ranges (shared readers included), P may `release`
//! a sub-range while its body runs, and a strong successor S on the root waits for P. Ready
//! tasks finish in a random order, and after every step S must be ready exactly when, for every
//! coordinate x of its range, W has finished, every child of P covering x has finished, and
//! either P has finished or P released x.

use proptest::prelude::*;

use weakdep::core::{DependencyEngine, TaskId};
use weakdep::{AccessType, Depend, Region, SpaceId, WaitMode};

/// Coordinates are multiples of this, so random ranges share boundaries and overlap often.
const UNIT: usize = 4;
/// Units in the parent's region `[0, N)`.
const UNITS: u8 = 8;
const N: usize = UNITS as usize * UNIT;

/// `[start, end)` in coordinates from a start unit and a length in units, clipped to `[0, N)`.
fn range((start, len): (u8, u8)) -> (usize, usize) {
    let start = start as usize * UNIT;
    (start, (start + len as usize * UNIT).min(N))
}

fn region((start, end): (usize, usize)) -> Region {
    Region::new(SpaceId(1), start, end)
}

fn access(selector: u8) -> AccessType {
    match selector {
        0 => AccessType::In,
        1 => AccessType::InOut,
        2 => AccessType::WeakIn,
        _ => AccessType::WeakInOut,
    }
}

/// Deterministic pseudo-random picker (the interleaving source), seeded by proptest.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, bound: usize) -> usize {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((self.0 >> 33) as usize) % bound.max(1)
    }
}

/// One step of the interleaving.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Step {
    Finish(TaskId),
    Release,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn successor_waits_exactly_for_the_handed_over_coordinates(
        children in proptest::collection::vec((0u8..UNITS, 1u8..=UNITS, 0u8..4), 1..13),
        successor in (0u8..UNITS, 1u8..=UNITS, any::<bool>()),
        release in (any::<bool>(), 0u8..UNITS, 1u8..=UNITS),
        seed in any::<u64>(),
    ) {
        let engine = DependencyEngine::new();
        let root = engine.register_root();
        let whole = region((0, N));
        let mut ready: Vec<TaskId> = Vec::new();
        let mut spawn = |parent, deps: &[Depend], mode| {
            let (id, is_ready) = engine.register_task(parent, deps, mode).expect("live parent");
            if is_ready {
                ready.push(id);
            }
            id
        };

        let w = spawn(root, &[Depend::new(AccessType::InOut, whole)], WaitMode::None);
        let p = spawn(root, &[Depend::new(AccessType::WeakInOut, whole)], WaitMode::WeakWait);
        let s_range = range((successor.0, successor.1));
        let s_access = if successor.2 { AccessType::InOut } else { AccessType::In };
        let s = spawn(root, &[Depend::new(s_access, region(s_range))], WaitMode::None);
        // P's body registers its children: P holds only a weak access, so it is ready already.
        let children: Vec<(TaskId, (usize, usize))> = children
            .iter()
            .map(|&(start, len, selector)| {
                let covers = range((start, len));
                let deps = [Depend::new(access(selector), region(covers))];
                (spawn(p, &deps, WaitMode::None), covers)
            })
            .collect();
        let released_range = range((release.1, release.2));

        let mut rng = Lcg(seed);
        let mut finished: Vec<TaskId> = Vec::new();
        let mut released = [false; N];
        let mut release_pending = release.0;
        loop {
            let done = |task: TaskId| finished.contains(&task);
            let s_ready = ready.contains(&s);
            let expected = (s_range.0..s_range.1).all(|x| {
                done(w)
                    && children
                        .iter()
                        .all(|&(child, (start, end))| !(start..end).contains(&x) || done(child))
                    && (done(p) || released[x])
            });
            prop_assert_eq!(
                s_ready,
                expected,
                "S over {:?}; finished {:?}; P released {:?}: {}",
                s_range,
                finished,
                released_range,
                release.0 && !release_pending
            );

            let mut steps: Vec<Step> =
                ready.iter().filter(|&&t| !done(t)).map(|&t| Step::Finish(t)).collect();
            if release_pending && !done(p) {
                steps.push(Step::Release);
            }
            if steps.is_empty() {
                break;
            }
            let effects = match steps[rng.next(steps.len())] {
                Step::Finish(task) => {
                    finished.push(task);
                    engine.body_finished(task).expect("a ready task finishes once")
                }
                Step::Release => {
                    release_pending = false;
                    released[released_range.0..released_range.1].fill(true);
                    engine.release_region(p, region(released_range)).expect("P is running")
                }
            };
            ready.extend(effects.ready);
        }
        prop_assert_eq!(finished.len(), 3 + children.len(), "every task ran");
        prop_assert!(engine.is_deeply_completed(p));
    }
}
