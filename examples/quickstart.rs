//! Quickstart: a blocked AXPY (`y ← α·x + y`) written top-down with task nesting, weak
//! dependencies and `weakwait`, exactly like Listing 5 of the paper.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use weakdep::{Runtime, RuntimeConfig, SharedSlice};

fn main() {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2);
    let rt = Runtime::new(RuntimeConfig::new().workers(workers));
    println!("running on {workers} workers");

    let n = 1 << 20;
    let block = 1 << 14;
    let alpha = 2.0;

    let x = SharedSlice::<f64>::filled(n, 1.0);
    let y = SharedSlice::<f64>::filled(n, 3.0);

    // Two chained axpy calls over the same vectors: the blocks of the second call depend on the
    // blocks of the first call, and thanks to the weak dependencies the runtime sees those
    // dependencies at block granularity even though each call is wrapped in an outer task.
    let (xr, yr) = (x.clone(), y.clone());
    rt.run(move |ctx| {
        for call in 0..2 {
            let (xo, yo) = (xr.clone(), yr.clone());
            ctx.task()
                .weak_input(xr.region(0..n))
                .weak_inout(yr.region(0..n))
                .weakwait()
                .label(if call == 0 {
                    "axpy-call-0"
                } else {
                    "axpy-call-1"
                })
                .spawn(move |outer| {
                    for start in (0..n).step_by(block) {
                        let end = (start + block).min(n);
                        let (xi, yi) = (xo.clone(), yo.clone());
                        outer
                            .task()
                            .input(xo.region(start..end))
                            .inout(yo.region(start..end))
                            .label("axpy-block")
                            .spawn(move |t| {
                                let xs = xi.read(t, start..end);
                                let ys = yi.write(t, start..end);
                                for (yv, xv) in ys.iter_mut().zip(xs) {
                                    *yv += alpha * *xv;
                                }
                            });
                    }
                });
        }
    });

    // y started at 3 and received 2·1 twice.
    let result = y.snapshot();
    assert!(result.iter().all(|&v| (v - 7.0).abs() < 1e-12));
    println!("done: y[0] = {} (expected 7)", result[0]);

    let stats = rt.stats();
    println!(
        "tasks executed: {}, dependency edges: {}, cross-domain (weak) links: {}, successor-slot dispatches: {}",
        stats.tasks_executed,
        stats.engine.release_edges,
        stats.engine.satisfaction_edges,
        stats.successor_slot_hits
    );
}
