//! The example code of the paper (Listings 1–3) expressed with the `weakdep` API.
//!
//! The program builds the four-task example of the paper's Section III in three styles and, for
//! each, reports when every task *became ready* relative to the finish time of the tasks it
//! conceptually depends on:
//!
//! 1. `nested-strong` — Listing 1: nesting + strong dependencies + `taskwait` (OpenMP 4.5);
//! 2. `flat`          — Listing 1 with the outer level removed (Figure 1b);
//! 3. `nested-weak`   — Listing 3: weak dependencies + `weakwait` (the paper's proposal).
//!
//! The point demonstrated: in style 3 the inner task `T2.1` starts as soon as `T1.1` has
//! finished (as in the flat style), while style 1 cannot start `T2.1` before *all* of `T1`
//! finished — yet style 3 keeps the top-down nested structure of style 1.
//!
//! Run with:
//! ```text
//! cargo run --release --example paper_listings
//! ```

use std::sync::Arc;
use std::time::Duration;

use weakdep::{Runtime, RuntimeConfig, SharedSlice};
use weakdep_trace::TraceCollector;

/// Milliseconds of simulated work inside every leaf task.
const WORK_MS: u64 = 20;

fn busy(label: &str) {
    // Simulated computation; long enough that scheduling effects are visible in the trace.
    std::thread::sleep(Duration::from_millis(WORK_MS));
    let _ = label;
}

fn report(style: &str, trace: &TraceCollector) {
    let events = trace.events();
    let find_end = |label: &str| {
        events
            .iter()
            .find(|e| e.label == label)
            .map(|e| e.end_ns)
            .unwrap_or(0)
    };
    let find_start = |label: &str| {
        events
            .iter()
            .find(|e| e.label == label)
            .map(|e| e.start_ns)
            .unwrap_or(0)
    };
    let t11_end = find_end("T1.1");
    let t12_end = find_end("T1.2");
    let t21_start = find_start("T2.1");
    println!("--- {style} ---");
    println!(
        "T2.1 started {:.1} ms after T1.1 finished, {:.1} ms {} T1.2 finished",
        (t21_start as f64 - t11_end as f64) / 1e6,
        ((t21_start as f64 - t12_end as f64) / 1e6).abs(),
        if t21_start >= t12_end {
            "after"
        } else {
            "BEFORE"
        },
    );
}

fn main() {
    let trace = TraceCollector::shared();
    let rt = Runtime::new(RuntimeConfig::new().workers(4).observer(trace.clone()));

    // One byte per variable of the paper's example: a, b, z, c, d, e, f.
    let vars = SharedSlice::<u8>::new(7);
    let (a, b, z, c, d, e, f) = (0usize, 1, 2, 3, 4, 5, 6);

    // ---------------------------------------------------------------- Listing 1: nested-strong
    trace.reset();
    {
        let v = vars.clone();
        rt.run(move |ctx| {
            // T1
            let vv = v.clone();
            ctx.task()
                .inout(r_of(&v, a))
                .inout(r_of(&v, b))
                .label("T1")
                .spawn(move |t| {
                    busy("T1");
                    vv.task_helper(t, a, "T1.1");
                    vv.task_helper(t, b, "T1.2");
                    t.taskwait();
                });
            // T2 (strong deps on a, b even though only its children need them)
            let vv = v.clone();
            ctx.task()
                .input(r_of(&v, a))
                .input(r_of(&v, b))
                .output(r_of(&v, z))
                .output(r_of(&v, c))
                .output(r_of(&v, d))
                .label("T2")
                .spawn(move |t| {
                    busy("T2");
                    vv.task_reader_writer(t, a, c, "T2.1");
                    vv.task_reader_writer(t, b, d, "T2.2");
                    t.taskwait();
                });
            // T4
            let vv = v.clone();
            ctx.task()
                .input(r_of(&v, c))
                .input(r_of(&v, d))
                .label("T4")
                .spawn(move |t| {
                    vv.task_reader(t, c, "T4.1");
                    vv.task_reader(t, d, "T4.2");
                    t.taskwait();
                });
            let _ = (e, f, z);
        });
    }
    report("nested-strong (Listing 1)", &trace);

    // ---------------------------------------------------------------- Figure 1b: flat
    trace.reset();
    {
        let v = vars.clone();
        rt.run(move |ctx| {
            v.task_helper(ctx, a, "T1.1");
            v.task_helper(ctx, b, "T1.2");
            v.task_reader_writer(ctx, a, c, "T2.1");
            v.task_reader_writer(ctx, b, d, "T2.2");
            v.task_reader(ctx, c, "T4.1");
            v.task_reader(ctx, d, "T4.2");
        });
    }
    report("flat (Figure 1b)", &trace);

    // ---------------------------------------------------------------- Listing 3: nested-weak
    trace.reset();
    {
        let v = vars.clone();
        rt.run(move |ctx| {
            let vv = v.clone();
            ctx.task()
                .inout(r_of(&v, a))
                .inout(r_of(&v, b))
                .weakwait()
                .label("T1")
                .spawn(move |t| {
                    busy("T1");
                    vv.task_helper(t, a, "T1.1");
                    vv.task_helper(t, b, "T1.2");
                });
            let vv = v.clone();
            ctx.task()
                .weak_input(r_of(&v, a))
                .weak_input(r_of(&v, b))
                .output(r_of(&v, z))
                .weak_output(r_of(&v, c))
                .weak_output(r_of(&v, d))
                .weakwait()
                .label("T2")
                .spawn(move |t| {
                    busy("T2");
                    vv.task_reader_writer(t, a, c, "T2.1");
                    vv.task_reader_writer(t, b, d, "T2.2");
                });
            let vv = v.clone();
            ctx.task()
                .weak_input(r_of(&v, c))
                .weak_input(r_of(&v, d))
                .weakwait()
                .label("T4")
                .spawn(move |t| {
                    vv.task_reader(t, c, "T4.1");
                    vv.task_reader(t, d, "T4.2");
                });
        });
    }
    report("nested-weak (Listing 3)", &trace);

    let _ = Arc::strong_count(&trace);
}

fn r_of(v: &SharedSlice<u8>, i: usize) -> weakdep::Region {
    v.region(i..i + 1)
}

/// Small helpers so the three styles stay readable.
trait ListingTasks {
    fn task_helper(&self, ctx: &weakdep::TaskCtx<'_>, var: usize, label: &'static str);
    fn task_reader_writer(
        &self,
        ctx: &weakdep::TaskCtx<'_>,
        input: usize,
        output: usize,
        label: &'static str,
    );
    fn task_reader(&self, ctx: &weakdep::TaskCtx<'_>, var: usize, label: &'static str);
}

impl ListingTasks for SharedSlice<u8> {
    /// `var += ...` (the paper's T1.x tasks).
    fn task_helper(&self, ctx: &weakdep::TaskCtx<'_>, var: usize, label: &'static str) {
        let v = self.clone();
        ctx.task()
            .inout(self.region(var..var + 1))
            .label(label)
            .spawn(move |t| {
                busy(label);
                v.write(t, var..var + 1)[0] = v.read(t, var..var + 1)[0].wrapping_add(1);
            });
    }

    /// `output = ... input ...` (the paper's T2.x / T3.x tasks).
    fn task_reader_writer(
        &self,
        ctx: &weakdep::TaskCtx<'_>,
        input: usize,
        output: usize,
        label: &'static str,
    ) {
        let v = self.clone();
        ctx.task()
            .input(self.region(input..input + 1))
            .output(self.region(output..output + 1))
            .label(label)
            .spawn(move |t| {
                busy(label);
                let value = v.read(t, input..input + 1)[0];
                v.write(t, output..output + 1)[0] = value.wrapping_mul(3);
            });
    }

    /// `... = ... var ...` (the paper's T4.x tasks).
    fn task_reader(&self, ctx: &weakdep::TaskCtx<'_>, var: usize, label: &'static str) {
        let v = self.clone();
        ctx.task()
            .input(self.region(var..var + 1))
            .label(label)
            .spawn(move |t| {
                busy(label);
                std::hint::black_box(v.read(t, var..var + 1)[0]);
            });
    }
}
