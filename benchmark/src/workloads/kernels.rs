//! The paper's three kernels (§VIII, Fig. 3, 5, 7) at fixed sizes, through the repository's own
//! runners. The output of every repetition is compared with the sequential reference, which is
//! computed once in set-up (what `axpy::verify` and friends recompute on every call).

use std::time::Instant;

use weakdep_core::{Runtime, SharedSlice};
use weakdep_kernels::axpy::{self, AxpyConfig, AxpyVariant};
use weakdep_kernels::gauss_seidel::{self, Grid, GsConfig, GsVariant};
use weakdep_kernels::sort_scan::{self, Elem, SortScanConfig, SortScanVariant};

use super::{ms, KernelFacts, Samples, Timed, Workload};

/// Records one kernel repetition: a kernel repetition is one job of the runtime.
fn record(out: &mut Samples, name: &str, elapsed_ms: f64, correct: bool) {
    out.attempted += 1;
    out.rep_ms.push(elapsed_ms);
    out.job_ms.push(elapsed_ms);
    if !correct {
        out.fail(name, "output differs from the sequential reference");
    }
}

/// Times `reference` and returns its output with the elapsed ms.
fn timed_reference<T>(reference: impl FnOnce() -> Vec<T>) -> (Vec<T>, f64) {
    let start = Instant::now();
    let expected = reference();
    (expected, ms(start.elapsed()))
}

/// Multiple AXPY, `nest-weak` (`nest-depend` as the strong variant). Two instances: `axpy_fine`
/// (≈5 µs bodies, the runtime does most of the work) and `axpy_coarse` (body ≫ overhead, the
/// bypass workload for every runtime-side optimisation).
pub struct Axpy {
    name: &'static str,
    cfg: AxpyConfig,
    x: SharedSlice<f64>,
    y: SharedSlice<f64>,
    expected: Vec<f64>,
    seq_ms: f64,
}

impl Axpy {
    pub fn new(name: &'static str, n: usize, task_size: usize) -> Self {
        let cfg = AxpyConfig {
            n,
            calls: 10,
            task_size,
            alpha: 1.000001,
        };
        let (expected, seq_ms) = timed_reference(|| axpy::reference(&cfg));
        Axpy {
            name,
            cfg,
            x: SharedSlice::new(n),
            y: SharedSlice::new(n),
            expected,
            seq_ms,
        }
    }
}

impl Workload for Axpy {
    fn rep(&mut self, rt: &Runtime, strong: bool, out: &mut Samples) {
        axpy::initialize(&self.x, &self.y);
        let variant = if strong {
            AxpyVariant::NestDepend
        } else {
            AxpyVariant::NestWeak
        };
        let timed = Timed::start();
        axpy::run_on(rt, variant, &self.cfg, &self.x, &self.y);
        let elapsed = timed.stop(out);
        record(out, self.name, elapsed, self.y.snapshot() == self.expected);
    }

    fn kernel(&self) -> Option<KernelFacts> {
        // Per call: x read, y read and written.
        let bytes = 24.0 * self.cfg.n as f64 * self.cfg.calls as f64;
        Some(KernelFacts {
            seq_ms: self.seq_ms,
            operations: self.cfg.flops(),
            bytes_computed: bytes,
        })
    }

    fn seeded_shape(&self) -> String {
        format!(
            "{} n={} task_size={} calls={}",
            self.name, self.cfg.n, self.cfg.task_size, self.cfg.calls
        )
    }
}

/// Gauss–Seidel wavefront, `nest-weak` (`nest-depend` as the strong variant): five accesses
/// per task, exact-tier matches, a wavefront whose width ramps up and down.
pub struct Gs {
    cfg: GsConfig,
    grid: Grid,
    expected: Vec<f64>,
    seq_ms: f64,
}

impl Gs {
    pub fn new(blocks: usize, ts: usize, iterations: usize) -> Self {
        let cfg = GsConfig {
            blocks,
            ts,
            iterations: iterations.max(1),
        };
        let (expected, seq_ms) = timed_reference(|| gauss_seidel::reference(&cfg));
        Gs {
            cfg,
            grid: Grid::new(cfg),
            expected,
            seq_ms,
        }
    }
}

impl Workload for Gs {
    fn rep(&mut self, rt: &Runtime, strong: bool, out: &mut Samples) {
        self.grid.reset();
        let variant = if strong {
            GsVariant::NestDepend
        } else {
            GsVariant::NestWeak
        };
        let timed = Timed::start();
        gauss_seidel::run_on(rt, variant, &self.grid);
        let elapsed = timed.stop(out);
        record(
            out,
            "gs_wavefront",
            elapsed,
            self.grid.snapshot() == self.expected,
        );
    }

    fn kernel(&self) -> Option<KernelFacts> {
        // Per iteration every interior element is read and written once.
        let interior = (self.cfg.interior_side() * self.cfg.interior_side()) as f64;
        let bytes = 16.0 * interior * self.cfg.iterations as f64;
        Some(KernelFacts {
            seq_ms: self.seq_ms,
            operations: self.cfg.flops(),
            bytes_computed: bytes,
        })
    }

    fn seeded_shape(&self) -> String {
        format!(
            "gs_wavefront blocks={} ts={} iterations={}",
            self.cfg.blocks, self.cfg.ts, self.cfg.iterations
        )
    }
}

/// Quicksort then prefix sum over one array, `weak` (`strong` as the strong variant): deep
/// recursive nesting and `weakwait` hand-over. The seed generates the input, and with it the
/// partition tree, so the task count varies with the seed.
pub struct SortScan {
    cfg: SortScanConfig,
    input: Vec<Elem>,
    data: SharedSlice<Elem>,
    expected: Vec<Elem>,
    seq_ms: f64,
}

impl SortScan {
    pub fn new(n: usize, ts: usize, seed: u64) -> Self {
        let cfg = SortScanConfig { n, ts, seed };
        let input = sort_scan::generate_input(&cfg);
        let (expected, seq_ms) = timed_reference(|| sort_scan::reference(&cfg));
        SortScan {
            cfg,
            input,
            data: SharedSlice::new(n),
            expected,
            seq_ms,
        }
    }
}

impl Workload for SortScan {
    fn rep(&mut self, rt: &Runtime, strong: bool, out: &mut Samples) {
        let input = &self.input;
        self.data.init_with(|i| input[i]);
        let variant = if strong {
            SortScanVariant::Strong
        } else {
            SortScanVariant::Weak
        };
        let timed = Timed::start();
        sort_scan::run_on(rt, variant, &self.cfg, &self.data);
        let elapsed = timed.stop(out);
        record(
            out,
            "sort_scan",
            elapsed,
            self.data.snapshot() == self.expected,
        );
    }

    fn kernel(&self) -> Option<KernelFacts> {
        // Each partition level reads and writes the array once, as do the base-case sort, the
        // block scans and the accumulation.
        let n = self.cfg.n as f64;
        let levels = (n / self.cfg.ts as f64).log2().ceil().max(0.0);
        let bytes = 16.0 * n * (levels + 3.0);
        Some(KernelFacts {
            seq_ms: self.seq_ms,
            operations: self.cfg.operations(),
            bytes_computed: bytes,
        })
    }

    fn seeded_shape(&self) -> String {
        let digest = self
            .input
            .iter()
            .fold(0u64, |h, &v| h.wrapping_mul(31).wrapping_add(v as u64));
        format!(
            "sort_scan n={} ts={} input_digest={digest:016x}",
            self.cfg.n, self.cfg.ts
        )
    }
}
