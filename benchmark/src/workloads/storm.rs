//! `spawn_storm`: empty-body tasks, so every layer below `kernels` runs at its ceiling.
//!
//! One repetition is four phases, each its own `Runtime::run` so that it is timed and drained
//! alone. The spawning is done by a task, not by the root body: the root body runs on the
//! driver thread, and spawning from there would put a third running thread on a 2-CPU host.
//! The shapes follow the `overheads` scenarios of `crates/bench`.

use weakdep_core::{Runtime, SharedSlice, TaskCtx, TaskSpec};

use super::{Samples, Timed, Workload};
use crate::stats::SplitMix64;

/// Phase names, in the index order of [`Samples::phase_s`].
pub const PHASES: [&str; 4] = ["nodeps", "exact", "fragmented", "nested"];

/// `spawn_batch` wave size of the `exact` and `fragmented` phases.
pub const WAVE: usize = 500;
/// Spawner tasks of the `nested` phase, each filling its own dependency domain.
pub const SPAWNERS: usize = 8;

pub struct Storm {
    /// Child tasks per phase (the `nested` phase rounds down to a multiple of [`SPAWNERS`]).
    per_phase: usize,
    /// The seeded order in which the phases run.
    order: [usize; 4],
    cells: SharedSlice<u8>,
}

impl Storm {
    pub fn new(tasks_per_rep: usize, seed: u64) -> Self {
        let per_phase = (tasks_per_rep / 4).max(SPAWNERS);
        let mut order = [0, 1, 2, 3];
        SplitMix64::new(seed).shuffle(&mut order);
        Storm {
            per_phase,
            order,
            cells: SharedSlice::new(2 * per_phase + 2),
        }
    }

    fn children_per_spawner(&self) -> usize {
        self.per_phase / SPAWNERS
    }

    /// Tasks the pool executes in one repetition: three phases of `per_phase` children under
    /// one spawner, and the nested phase's spawners with their children.
    fn tasks_per_rep(&self) -> u64 {
        (3 * (self.per_phase + 1) + SPAWNERS * (self.children_per_spawner() + 1)) as u64
    }

    fn run_phase(&self, rt: &Runtime, phase: usize) {
        let n = self.per_phase;
        let cells = self.cells.clone();
        match phase {
            // Unbatched `spawn`, no dependencies: the bare spawn/dispatch/retire path.
            0 => spawn_from_task(rt, move |t| {
                for _ in 0..n {
                    t.task().label("storm-nodeps").spawn(|_| {});
                }
            }),
            // Disjoint `inout` cells in waves: `regions` stays on its exact tier.
            1 => spawn_from_task(rt, move |t| {
                spawn_waves(t, n, |t, k| {
                    t.task()
                        .inout(cells.region(k..k + 1))
                        .label("storm-exact")
                        .stage(|_| {})
                })
            }),
            // Every region overlaps half of its predecessor's: `regions` stays on its
            // fragmented tier, and each task depends on the one before it.
            2 => spawn_from_task(rt, move |t| {
                spawn_waves(t, n, |t, k| {
                    t.task()
                        .inout(cells.region(2 * k..2 * k + 4))
                        .label("storm-fragmented")
                        .stage(|_| {})
                })
            }),
            // Spawner tasks on different workers, each registering into its own domain: the
            // access pattern per-domain engine locking parallelises.
            _ => {
                let children = self.children_per_spawner();
                rt.run(move |root| {
                    for s in 0..SPAWNERS {
                        let inner = cells.clone();
                        root.task()
                            .weak_inout(cells.region(s * children..(s + 1) * children))
                            .weakwait()
                            .label("storm-nest")
                            .spawn(move |outer| {
                                let specs: Vec<TaskSpec> = (s * children..(s + 1) * children)
                                    .map(|cell| {
                                        outer
                                            .task()
                                            .inout(inner.region(cell..cell + 1))
                                            .label("storm-child")
                                            .stage(|_| {})
                                    })
                                    .collect();
                                outer.spawn_batch(specs);
                            });
                    }
                });
            }
        }
    }
}

/// Runs `spawner` as the only child of a fresh job's root.
fn spawn_from_task(rt: &Runtime, spawner: impl FnOnce(&TaskCtx<'_>) + Send + 'static) {
    rt.run(move |root| {
        root.task().label("storm-spawner").spawn(spawner);
    });
}

/// Registers `n` tasks built by `spec` through `spawn_batch`, [`WAVE`] at a time.
fn spawn_waves(t: &TaskCtx<'_>, n: usize, spec: impl Fn(&TaskCtx<'_>, usize) -> TaskSpec) {
    for wave_start in (0..n).step_by(WAVE) {
        let wave_end = (wave_start + WAVE).min(n);
        t.spawn_batch((wave_start..wave_end).map(|k| spec(t, k)).collect());
    }
}

impl Workload for Storm {
    fn rep(&mut self, rt: &Runtime, _strong: bool, out: &mut Samples) {
        let executed_before = rt.stats().tasks_executed as u64;
        let mut total_ms = 0.0;
        for &phase in &self.order {
            let timed = Timed::start();
            self.run_phase(rt, phase);
            let elapsed = timed.stop(out);
            out.phase_s[phase].push(elapsed / 1e3);
            total_ms += elapsed;
        }
        out.attempted += 1;
        out.rep_ms.push(total_ms);
        out.job_ms.push(total_ms);
        // Empty bodies leave no output to compare: the check is that the pool executed
        // exactly the tasks that were spawned.
        let executed = rt.stats().tasks_executed as u64 - executed_before;
        let spawned = self.tasks_per_rep();
        if executed != spawned {
            out.fail(
                "spawn_storm",
                &format!("{executed} tasks executed, {spawned} spawned"),
            );
        }
    }

    fn seeded_shape(&self) -> String {
        let order: Vec<&str> = self.order.iter().map(|&p| PHASES[p]).collect();
        format!(
            "spawn_storm per_phase={} order={}",
            self.per_phase,
            order.join(">")
        )
    }
}
