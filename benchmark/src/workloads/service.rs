//! `service_mix`: the job service as its users see it. One driver keeps [`IN_FLIGHT`] jobs
//! submitted through `Runtime::submit_with`, waits for the oldest, and submits the next: a
//! closed loop with a window of four. It is the only workload through `job`, admission, the
//! completion gate and `threadpool::assist`.
//!
//! One repetition is a burst of jobs that ends with the window drained, so that every burst
//! can be checked and timed on its own. The seed orders the shapes within each cycle of five;
//! a single seeded order repeated round-robin would fix which shapes share the window, and
//! the latencies of two seeds would differ by 10–20 %.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use weakdep_core::{JobHandle, JobOptions, Runtime, SharedSlice, TaskCtx, TaskSpec};

use super::{ms, Samples, Timed, Workload};
use crate::stats::SplitMix64;

/// Jobs the driver keeps in flight.
pub const IN_FLIGHT: usize = 4;

const CHAIN: usize = 64;
const FANOUT: usize = 128;
const NEST: usize = 8;
const LOOP_ELEMS: usize = 16 * 1024;
const LOOP_CHUNK: usize = 256;

/// The five job shapes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// 64 tasks `inout` on one cell: a serial chain through the successor slot.
    Chain,
    /// 128 independent tasks, one unbatched `spawn` each.
    Fanout,
    /// 8 weak-outer `weakwait` tasks, each spawning 8 children into its own domain.
    Nested,
    /// 128 independent tasks registered by one `spawn_batch`.
    Batch,
    /// One task running a work-assisted `for_each` over 16 Ki elements in chunks of 256.
    Loop,
}

impl Shape {
    const ALL: [Shape; 5] = [
        Shape::Chain,
        Shape::Fanout,
        Shape::Nested,
        Shape::Batch,
        Shape::Loop,
    ];

    /// The value a correct job of this shape leaves in its accumulator.
    fn expected_sum(self) -> u64 {
        match self {
            Shape::Chain => (0..CHAIN as u64).fold(0, chain_step),
            Shape::Fanout | Shape::Batch => (1..=FANOUT as u64).sum(),
            Shape::Nested => (1..=(NEST * NEST) as u64).sum(),
            Shape::Loop => (0..LOOP_ELEMS as u64).sum(),
        }
    }
}

/// Order-sensitive fold of the chain: any two links run out of order change the result.
fn chain_step(acc: u64, link: u64) -> u64 {
    acc.wrapping_mul(31).wrapping_add(link + 1)
}

/// What a job's root body returns.
struct JobReport {
    started: Instant,
    ended: Instant,
    sum: u64,
}

/// The body of an independent task that owns cell `k` and adds `k + 1`.
fn cell_body(
    cells: &SharedSlice<u64>,
    acc: &Arc<AtomicU64>,
    k: usize,
) -> impl FnOnce(&TaskCtx<'_>) + Send + 'static {
    let (cells, acc) = (cells.clone(), Arc::clone(acc));
    move |t| {
        cells.write(t, k..k + 1)[0] = k as u64;
        acc.fetch_add(k as u64 + 1, Relaxed);
    }
}

/// Builds the job of `shape` over `cells` as children of `root`; every task adds into `acc`.
fn spawn_shape(root: &TaskCtx<'_>, shape: Shape, cells: &SharedSlice<u64>, acc: &Arc<AtomicU64>) {
    match shape {
        Shape::Chain => {
            for link in 0..CHAIN as u64 {
                let (c, acc) = (cells.clone(), Arc::clone(acc));
                root.task()
                    .inout(cells.region(0..1))
                    .label("mix-chain")
                    .spawn(move |t| {
                        let cell = c.write(t, 0..1);
                        cell[0] = chain_step(if link == 0 { 0 } else { cell[0] }, link);
                        acc.store(cell[0], Relaxed);
                    });
            }
        }
        Shape::Fanout => {
            for k in 0..FANOUT {
                root.task()
                    .inout(cells.region(k..k + 1))
                    .label("mix-fanout")
                    .spawn(cell_body(cells, acc, k));
            }
        }
        Shape::Batch => {
            let specs: Vec<TaskSpec> = (0..FANOUT)
                .map(|k| {
                    root.task()
                        .inout(cells.region(k..k + 1))
                        .label("mix-batch")
                        .stage(cell_body(cells, acc, k))
                })
                .collect();
            root.spawn_batch(specs);
        }
        Shape::Nested => {
            for o in 0..NEST {
                let (c, acc) = (cells.clone(), Arc::clone(acc));
                root.task()
                    .weak_inout(cells.region(o * NEST..(o + 1) * NEST))
                    .weakwait()
                    .label("mix-outer")
                    .spawn(move |outer| {
                        for k in o * NEST..(o + 1) * NEST {
                            outer
                                .task()
                                .inout(c.region(k..k + 1))
                                .label("mix-inner")
                                .spawn(cell_body(&c, &acc, k));
                        }
                    });
            }
        }
        Shape::Loop => {
            let (c, acc) = (cells.clone(), Arc::clone(acc));
            root.task()
                .inout(cells.region(0..LOOP_ELEMS))
                .label("mix-loop")
                .spawn(move |t| {
                    let view = c.loop_view_mut(t, 0..LOOP_ELEMS);
                    t.for_each(0..LOOP_ELEMS, LOOP_CHUNK, move |start, end| {
                        let mut sum = 0;
                        for (i, v) in view.chunk(start..end).iter_mut().enumerate() {
                            *v = (start + i) as u64;
                            sum += *v;
                        }
                        acc.fetch_add(sum, Relaxed);
                    });
                });
        }
    }
}

/// A job the driver has submitted and not yet waited for.
struct InFlight {
    handle: JobHandle<JobReport>,
    shape: Shape,
    submitted: Instant,
}

pub struct ServiceMix {
    /// The shapes of one burst's jobs, in submission order: whole cycles of the five shapes,
    /// each cycle in its own seeded order. Every burst therefore holds the same work, and
    /// over a burst every shape meets every other in the window, whatever the seed.
    sequence: Vec<Shape>,
    /// One buffer per window slot: job `j` uses slot `j % IN_FLIGHT`, whose previous job the
    /// driver has already waited for.
    slots: Vec<SharedSlice<u64>>,
}

impl ServiceMix {
    pub fn new(jobs_per_rep: usize, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut sequence = Vec::new();
        for _ in 0..jobs_per_rep.div_ceil(Shape::ALL.len()).max(1) {
            let mut cycle = Shape::ALL;
            rng.shuffle(&mut cycle);
            sequence.extend(cycle);
        }
        let slots = (0..IN_FLIGHT)
            .map(|_| SharedSlice::new(LOOP_ELEMS))
            .collect();
        ServiceMix { sequence, slots }
    }

    fn submit(&self, rt: &Runtime, j: usize, out: &mut Samples) -> InFlight {
        let shape = self.sequence[j];
        let cells = self.slots[j % IN_FLIGHT].clone();
        let submitted = Instant::now();
        let handle = rt.submit_with(JobOptions::new(), move |root| {
            let started = Instant::now();
            let acc = Arc::new(AtomicU64::new(0));
            spawn_shape(root, shape, &cells, &acc);
            root.taskwait();
            JobReport {
                started,
                ended: Instant::now(),
                sum: acc.load(Relaxed),
            }
        });
        out.submit_us.push(submitted.elapsed().as_secs_f64() * 1e6);
        InFlight {
            handle,
            shape,
            submitted,
        }
    }

    fn finish(&self, job: InFlight, out: &mut Samples) {
        let waiting_since = Instant::now();
        let outcome = job.handle.wait_result();
        let returned = Instant::now();
        out.attempted += 1;
        match outcome {
            Ok(Some(report)) => {
                out.job_ms.push(ms(report.ended - job.submitted));
                out.start_delay_ms.push(ms(report.started - job.submitted));
                if report.ended >= waiting_since {
                    out.wait_return_us
                        .push((returned - report.ended).as_secs_f64() * 1e6);
                }
                if report.sum != job.shape.expected_sum() {
                    let expected = job.shape.expected_sum();
                    out.fail(
                        "service_mix",
                        &format!(
                            "{:?} job summed to {}, expected {expected}",
                            job.shape, report.sum
                        ),
                    );
                }
            }
            Ok(None) => out.fail(
                "service_mix",
                &format!("{:?} job returned no report", job.shape),
            ),
            Err(error) => out.fail("service_mix", &format!("{:?} job: {error}", job.shape)),
        }
    }
}

impl Workload for ServiceMix {
    fn rep(&mut self, rt: &Runtime, _strong: bool, out: &mut Samples) {
        let timed = Timed::start();
        let mut window: VecDeque<InFlight> = VecDeque::with_capacity(IN_FLIGHT);
        for j in 0..self.sequence.len() {
            if window.len() == IN_FLIGHT {
                let oldest = window.pop_front().expect("the window is full");
                self.finish(oldest, out);
            }
            window.push_back(self.submit(rt, j, out));
        }
        for job in window {
            self.finish(job, out);
        }
        let elapsed = timed.stop(out);
        out.rep_ms.push(elapsed);
    }

    fn seeded_shape(&self) -> String {
        let initials: String = self
            .sequence
            .iter()
            .map(|s| format!("{s:?}").remove(0))
            .collect();
        let digest = initials
            .bytes()
            .fold(0u64, |h, b| h.wrapping_mul(31).wrapping_add(b as u64));
        let head = &initials[..initials.len().min(15)];
        format!(
            "service_mix jobs_per_rep={} window={IN_FLIGHT} sequence={head}.. digest={digest:016x}",
            self.sequence.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chain_fold_detects_reordering() {
        let in_order = (0..4).fold(0, chain_step);
        let swapped = [0, 2, 1, 3].into_iter().fold(0, chain_step);
        assert_ne!(in_order, swapped);
    }
}
