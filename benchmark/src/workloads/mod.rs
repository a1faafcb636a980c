//! The six workloads. Each owns its inputs and knows how to run and check one repetition; the
//! protocol around the repetitions (warm-up, rounds, slices) lives in [`crate::run`].
//!
//! All six are closed loops driven by one thread: the next repetition (or, in `service_mix`,
//! the next job beyond the in-flight window) starts only when an earlier one has completed.

mod kernels;
mod service;
mod storm;

use std::time::{Duration, Instant};

use weakdep_core::Runtime;

pub use service::IN_FLIGHT;
pub use storm::{PHASES, WAVE as STORM_WAVE};

/// Workload names, in the order a full set runs them. The names are the contract with
/// `BENCHMARK.json` and with every later before/after comparison.
pub const NAMES: [&str; 6] = [
    "axpy_fine",
    "axpy_coarse",
    "gs_wavefront",
    "sort_scan",
    "spawn_storm",
    "service_mix",
];

/// What the repetitions of one workload produced, accumulated over a run.
#[derive(Default, Debug)]
pub struct Samples {
    /// Wall time of the timed section of each repetition, in ms.
    pub rep_ms: Vec<f64>,
    /// Submit → end-of-body latency of each job, in ms. A kernel or storm repetition is one
    /// job (one `Runtime::run`); `service_mix` records every submitted job.
    pub job_ms: Vec<f64>,
    /// `service_mix`: duration of the `submit_with` call, in µs.
    pub submit_us: Vec<f64>,
    /// `service_mix`: submit → root body start, in ms.
    pub start_delay_ms: Vec<f64>,
    /// `service_mix`: end stamp → `wait_result` returned, in µs (only jobs the driver was
    /// already waiting on when they ended).
    pub wait_return_us: Vec<f64>,
    /// `spawn_storm`: seconds per phase, indexed like [`PHASES`].
    pub phase_s: [Vec<f64>; 4],
    /// Jobs attempted and jobs that failed (wrong output, `JobError`, panic).
    pub attempted: u64,
    pub failed: u64,
    /// Heap allocations and bytes requested inside the timed sections (`bench_traced` only).
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Samples {
    /// Records one failed repetition or job and names it on stderr; the run goes on.
    pub fn fail(&mut self, workload: &str, reason: &str) {
        self.failed += 1;
        eprintln!("FAIL {workload}: {reason}");
    }

    /// Sum of the timed sections, in seconds.
    pub fn timed_s(&self) -> f64 {
        self.rep_ms.iter().sum::<f64>() / 1e3
    }
}

/// Sequential baseline and computed volume of a kernel workload.
#[derive(Clone, Copy, Debug)]
pub struct KernelFacts {
    /// Wall time of the plain single-threaded `reference` of the same problem, in ms.
    pub seq_ms: f64,
    /// Floating-point (or element) operations of one repetition.
    pub operations: f64,
    /// Bytes one repetition moves, computed from the array sizes (cache misses ignored).
    pub bytes_computed: f64,
}

pub trait Workload {
    /// Runs one repetition on `rt`: resets the inputs (untimed), runs (timed), checks the
    /// output (untimed), and records the outcome in `out`. `strong` selects the variant with
    /// regular dependencies and `taskwait` (kernel workloads only; the others ignore it).
    fn rep(&mut self, rt: &Runtime, strong: bool, out: &mut Samples);

    /// The sequential baseline, for the kernel workloads.
    fn kernel(&self) -> Option<KernelFacts> {
        None
    }

    /// A description of everything the seed decided, for the determinism tests and the
    /// result document.
    fn seeded_shape(&self) -> String;
}

/// Problem-size divisor of `--smoke` runs.
pub const SMOKE_DIVISOR: usize = 8;

/// Builds workload `name` from `seed`. `smoke` divides the problem sizes by
/// [`SMOKE_DIVISOR`]. Building includes the sequential reference of the kernel workloads,
/// so its cost is part of `setup_s`.
pub fn build(name: &str, seed: u64, smoke: bool) -> Option<Box<dyn Workload>> {
    let div = if smoke { SMOKE_DIVISOR } else { 1 };
    Some(match name {
        "axpy_fine" => Box::new(kernels::Axpy::new("axpy_fine", (1 << 19) / div, 1 << 10)),
        "axpy_coarse" => Box::new(kernels::Axpy::new("axpy_coarse", (1 << 21) / div, 1 << 16)),
        "gs_wavefront" => Box::new(kernels::Gs::new(32, 32, 16 / div)),
        "sort_scan" => Box::new(kernels::SortScan::new((1 << 19) / div, 1 << 10, seed)),
        "spawn_storm" => Box::new(storm::Storm::new(50_000 / div, seed)),
        "service_mix" => Box::new(service::ServiceMix::new(200 / div, seed)),
        _ => return None,
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The timed section of a repetition: wall time plus the allocations made inside it.
struct Timed {
    start: Instant,
    allocs: (u64, u64),
}

impl Timed {
    fn start() -> Self {
        Timed {
            allocs: crate::alloc::counts(),
            start: Instant::now(),
        }
    }

    /// Ends the section, books its allocations in `out` and returns its wall time in ms.
    fn stop(self, out: &mut Samples) -> f64 {
        let elapsed = ms(self.start.elapsed());
        let (allocs, bytes) = crate::alloc::counts();
        out.allocs += allocs - self.allocs.0;
        out.alloc_bytes += bytes - self.allocs.1;
        elapsed
    }
}
