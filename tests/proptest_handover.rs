//! Property tests of the §V hand-over against per-coordinate oracles. A `weakwait` parent P
//! holds `weakinout [0, N)` behind a root writer W, and a strong successor S on the root waits
//! for P. In the first test P's leaf children declare random strong and weak accesses over
//! partly overlapping sub-ranges (shared readers included), and P may `release` a sub-range
//! while its body runs. Ready tasks finish in a random order, and after every step S must be
//! ready exactly when, for every coordinate x of its range, W has finished, every child of P
//! covering x has finished, and either P has finished or P released x. The second test nests
//! one level deeper: P's children are `none`, `wait` or `weakwait` tasks that register leaf
//! grandchildren when they start, so a grandchild's hand-over may skip a finished `weakwait`
//! level on its way to S.

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
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
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

/// One child of P in the two-level test: its range, access selector and wait-mode selector,
/// and its grandchildren's ranges (in units of the child's range) and whether they write.
type Child = ((u8, u8), u8, u8, Vec<(u8, u8, bool)>);

fn mode(selector: u8) -> WaitMode {
    match selector {
        0 => WaitMode::None,
        1 => WaitMode::Wait,
        _ => WaitMode::WeakWait,
    }
}

/// The sub-range `(start, len)` in units of `[lo, hi)`, wrapped and clipped into it.
fn within((lo, hi): (usize, usize), (start, len): (u8, u8)) -> (usize, usize) {
    let units = (hi - lo) / UNIT;
    let start = lo + (start as usize % units) * UNIT;
    (start, (start + len as usize * UNIT).min(hi))
}

/// The tasks of the two-level test, by index in registration order.
struct Tree {
    engine: DependencyEngine,
    root: TaskId,
    ids: Vec<TaskId>,
    ranges: Vec<(usize, usize)>,
    modes: Vec<WaitMode>,
    /// A child of P registers its grandchildren when it starts; every other task starts
    /// as it is registered.
    started: Vec<bool>,
    finished: Vec<bool>,
    ready: Vec<TaskId>,
}

impl Tree {
    fn add(
        &mut self,
        parent: Option<usize>,
        range: (usize, usize),
        access: AccessType,
        wait: WaitMode,
    ) -> usize {
        let on = parent.map_or(self.root, |at| self.ids[at]);
        let deps = [Depend::new(access, region(range))];
        let (id, ready) = self
            .engine
            .register_task(on, &deps, wait)
            .expect("live parent");
        if ready {
            self.ready.push(id);
        }
        self.ids.push(id);
        self.ranges.push(range);
        self.modes.push(wait);
        self.started.push(true);
        self.finished.push(false);
        self.ids.len() - 1
    }

    fn is_ready(&self, at: usize) -> bool {
        self.ready.contains(&self.ids[at])
    }

    fn covers(&self, at: usize, x: usize) -> bool {
        (self.ranges[at].0..self.ranges[at].1).contains(&x)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn successor_waits_exactly_for_the_nested_hand_overs(
        children in proptest::collection::vec(
            (
                (0u8..UNITS, 1u8..=UNITS),
                0u8..4,
                0u8..3,
                proptest::collection::vec((0u8..UNITS, 1u8..=UNITS, any::<bool>()), 0..4),
            ),
            1..7,
        ),
        successor in (0u8..UNITS, 1u8..=UNITS, any::<bool>()),
        seed in any::<u64>(),
    ) {
        let children: Vec<Child> = children;
        let engine = DependencyEngine::new();
        let root = engine.register_root();
        let mut tree = Tree {
            engine,
            root,
            ids: Vec::new(),
            ranges: Vec::new(),
            modes: Vec::new(),
            started: Vec::new(),
            finished: Vec::new(),
            ready: Vec::new(),
        };
        let w = tree.add(None, (0, N), AccessType::InOut, WaitMode::None);
        let p = tree.add(None, (0, N), AccessType::WeakInOut, WaitMode::WeakWait);
        let s_range = range((successor.0, successor.1));
        let s_access = if successor.2 { AccessType::InOut } else { AccessType::In };
        let s = tree.add(None, s_range, s_access, WaitMode::None);
        // P's body registers its children: P holds only a weak access, so it is ready already.
        let kids: Vec<usize> = children
            .iter()
            .map(|&(covers, selector, wait, _)| {
                let at = tree.add(Some(p), range(covers), access(selector), mode(wait));
                tree.started[at] = false;
                at
            })
            .collect();
        let mut grandchildren: Vec<Vec<usize>> = vec![Vec::new(); kids.len()];

        let mut rng = Lcg(seed);
        loop {
            // Child k of P has completed x: a `none` child at its body end, a `wait` child once
            // its grandchildren have finished too, a `weakwait` child once its body and the
            // grandchildren covering x have.
            let completed = |k: usize, x: usize| {
                let at = kids[k];
                let mut waits_for = grandchildren[k].iter().copied().filter(|&g| match tree.modes[at] {
                    WaitMode::None => false,
                    WaitMode::Wait => true,
                    WaitMode::WeakWait => tree.covers(g, x),
                });
                tree.finished[at] && waits_for.all(|g| tree.finished[g])
            };
            let expected = (s_range.0..s_range.1).all(|x| {
                tree.finished[w]
                    && tree.finished[p]
                    && (0..kids.len()).all(|k| !tree.covers(kids[k], x) || completed(k, x))
            });
            let finished: Vec<usize> = (0..tree.ids.len()).filter(|&at| tree.finished[at]).collect();
            prop_assert_eq!(
                tree.is_ready(s),
                expected,
                "S over {:?}; finished {:?}; children {:?}",
                s_range,
                finished,
                children
            );

            let steps: Vec<usize> = (0..tree.ids.len())
                .filter(|&at| tree.is_ready(at) && !tree.finished[at])
                .collect();
            if steps.is_empty() {
                break;
            }
            let at = steps[rng.next(steps.len())];
            if !tree.started[at] {
                // A child of P starts: its body registers its grandchildren, which read what a
                // reading child reads and may write what a writing child writes.
                tree.started[at] = true;
                let k = kids.iter().position(|&kid| kid == at).expect("a child of P");
                let (_, selector, _, gs) = &children[k];
                let reads = matches!(access(*selector), AccessType::In | AccessType::WeakIn);
                for &(start, len, write) in gs {
                    let covers = within(tree.ranges[at], (start, len));
                    let kind = if write && !reads { AccessType::InOut } else { AccessType::In };
                    let g = tree.add(Some(at), covers, kind, WaitMode::None);
                    grandchildren[k].push(g);
                }
            } else {
                tree.finished[at] = true;
                let effects = tree.engine.body_finished(tree.ids[at]).expect("a ready task finishes once");
                tree.ready.extend(effects.ready);
            }
        }
        prop_assert!(tree.finished.iter().all(|&f| f), "every task ran");
        prop_assert!(tree.engine.is_deeply_completed(tree.ids[p]));
    }
}
