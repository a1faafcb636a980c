//! Command line, machine stamps and output. Shared by the `bench` and `bench_traced` binaries.
//!
//! stdout: with one `--workload`, the last line is the driver's result object
//! `{"correct", "attempted", "failed", "metrics"}`; with `--workload all`, the full stamped
//! document on one line. The human-readable table goes to stderr, and the full document is
//! also written to `benchmark/out/`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use crate::json::Json;
use crate::run::{self, Options, Outcome};
use crate::workloads::{IN_FLIGHT, NAMES};

const USAGE: &str = "usage: bench [--workload <name>|all] [--seed <u64>] [--seconds <n>] [--trace <0|1>] \
[--traced] [--workers <n>] [--smoke]\nworkloads: axpy_fine axpy_coarse gs_wavefront sort_scan spawn_storm service_mix";

/// `min(nproc, 4)`: the driver thread is blocked while the workers run, so the benchmark never
/// has more running threads than processors.
fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

pub fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workloads: NAMES.to_vec(),
        seed: 1,
        seconds: 10.0,
        traced: false,
        workers: default_workers(),
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                opts.workloads = match NAMES.iter().find(|n| *n == name) {
                    Some(known) => vec![*known],
                    None if name == "all" => NAMES.to_vec(),
                    None => return Err(format!("unknown workload `{name}`")),
                };
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                opts.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--traced" => opts.traced = true,
            "--workers" => {
                opts.workers = value()?.parse().map_err(|e| format!("--workers: {e}"))?;
                if !(1..=256).contains(&opts.workers) {
                    return Err("--workers must be in 1..=256".to_string());
                }
            }
            "--smoke" => opts.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

/// First line of a command's stdout, if it ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    output.status.success().then(|| {
        String::from_utf8_lossy(&output.stdout)
            .lines()
            .next()
            .unwrap_or("")
            .to_string()
    })
}

/// The stamps a number needs before it counts: machine, build, inputs and protocol.
fn meta(opts: &Options, wall_s: f64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Outside a git checkout (the driver's copy is one) there is no commit to name.
    let git_sha =
        command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_string());
    let dirty =
        command_line("git", &["status", "--porcelain"]).is_some_and(|line| !line.is_empty());
    Json::obj([
        ("nproc", Json::Int(nproc as u64)),
        ("workers", Json::Int(opts.workers as u64)),
        ("git_sha", Json::str(git_sha)),
        ("git_dirty", Json::Bool(dirty)),
        (
            "rustc",
            Json::str(command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string())),
        ),
        ("seed", Json::Int(opts.seed)),
        ("traced", Json::Bool(opts.traced)),
        ("smoke", Json::Bool(opts.smoke)),
        (
            "counting_allocator",
            Json::Bool(counting_allocator_installed()),
        ),
        ("rounds", Json::Int(opts.rounds() as u64)),
        ("slice_s", Json::Num(opts.slice_s())),
        ("warmup_reps", Json::Int(run::WARMUP_REPS as u64)),
        ("setup_min_repeats", Json::Int(run::SETUP_REPEATS as u64)),
        ("setup_budget_s", Json::Num(run::SETUP_BUDGET_S)),
        ("in_flight", Json::Int(IN_FLIGHT as u64)),
        ("wall_s", Json::Num(wall_s)),
    ])
}

fn counting_allocator_installed() -> bool {
    let before = crate::alloc::counts().0;
    drop(std::hint::black_box(Box::new(0u8)));
    crate::alloc::counts().0 != before
}

/// The fields of the driver's result object for one workload.
fn result_fields(outcome: &Outcome, traced: bool, detailed: bool) -> Vec<(&'static str, Json)> {
    vec![
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Int(outcome.attempted)),
        ("failed", Json::Int(outcome.failed)),
        ("metrics", outcome.metrics.to_json(traced, detailed)),
    ]
}

/// The driver's result object for one workload: exactly these four keys.
pub fn result_object(outcome: &Outcome, traced: bool) -> Json {
    Json::obj(result_fields(outcome, traced, false))
}

/// The full stamped document of a run: per workload its seeded inputs and its result object
/// with the sample counts and quartiles added.
pub fn document(opts: &Options, outcomes: &[Outcome], wall_s: f64) -> Json {
    let workloads = outcomes.iter().map(|o| {
        let mut fields = vec![("inputs", Json::str(o.seeded_shape.clone()))];
        fields.extend(result_fields(o, opts.traced, true));
        (o.name, Json::obj(fields))
    });
    Json::obj([
        ("meta", meta(opts, wall_s)),
        ("workloads", Json::obj(workloads)),
    ])
}

/// `benchmark/out` next to this crate's sources when run from a checkout's root (how the
/// driver, `run.sh` and `repeat.sh` run it), else `out` under the current directory.
fn out_dir() -> PathBuf {
    let in_checkout = Path::new("benchmark");
    if in_checkout.join("Cargo.toml").is_file() {
        in_checkout.join("out")
    } else {
        PathBuf::from("out")
    }
}

/// Cross-workload checks of a full traced set: the workloads must demonstrably load different
/// layers. Returns the failed checks.
pub fn layer_checks(outcomes: &[Outcome]) -> Vec<String> {
    let get = |workload: &str, metric: &str| {
        outcomes
            .iter()
            .find(|o| o.name == workload)
            .map(|o| o.metrics.get(metric))
    };
    let mut failed = Vec::new();
    let mut check = |what: String, ok: bool| {
        eprintln!("check {}: {what}", if ok { "ok  " } else { "FAIL" });
        if !ok {
            failed.push(what);
        }
    };
    for o in outcomes {
        let sources: f64 = ["slot", "local", "injector", "steal"]
            .iter()
            .map(|s| o.metrics.get(&format!("threadpool.{s}_ratio")))
            .sum();
        check(
            format!(
                "{}: slot+local+injector+steal ratios sum to 1 ({sources:.6})",
                o.name
            ),
            (sources - 1.0).abs() < 1e-9,
        );
    }
    if let (Some(gs), Some(fine)) = (
        get("gs_wavefront", "regions.exact_ratio"),
        get("axpy_fine", "regions.exact_ratio"),
    ) {
        check(
            format!(
                "regions.exact_ratio gs_wavefront {gs:.3} > 0.7 and axpy_fine {fine:.3} < 0.05"
            ),
            gs > 0.7 && fine < 0.05,
        );
    }
    let overhead_share = |w: &str| {
        Some(
            (get(w, "runtime.spawn_ns_per_task")? + get(w, "runtime.retire_ns_per_task")?)
                / get(w, "runtime.body_ns_per_task")?,
        )
    };
    if let (Some(fine), Some(coarse)) = (overhead_share("axpy_fine"), overhead_share("axpy_coarse"))
    {
        check(
            format!("(spawn+retire)/body axpy_fine {fine:.3} >= 3 x axpy_coarse {coarse:.3}"),
            fine >= 3.0 * coarse,
        );
    }
    if let (Some(fine), Some(coarse)) = (
        get("axpy_fine", "runtime.worker_busy_ratio"),
        get("axpy_coarse", "runtime.worker_busy_ratio"),
    ) {
        check(
            format!("runtime.worker_busy_ratio axpy_coarse {coarse:.3} > axpy_fine {fine:.3}"),
            coarse > fine,
        );
    }
    failed
}

pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(error) => {
            eprintln!("{error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if opts.traced && !counting_allocator_installed() {
        eprintln!("note: this build has no counting allocator; run `bench_traced` for the allocation metrics");
    }
    let start = Instant::now();
    let out = out_dir();
    if let Err(error) = std::fs::create_dir_all(&out) {
        eprintln!("warning: could not create {}: {error}", out.display());
    }
    let outcomes = run::run(&opts, Some(&out));
    let wall_s = start.elapsed().as_secs_f64();

    eprint!("{}", run::table(&outcomes, opts.traced));
    let mut ok = outcomes.iter().all(|o| o.failed == 0);
    if opts.traced && outcomes.len() == NAMES.len() {
        ok &= layer_checks(&outcomes).is_empty();
    }
    let document = document(&opts, &outcomes, wall_s).to_string();
    let file = out.join(if opts.traced {
        "result-traced.json"
    } else {
        "result.json"
    });
    if let Err(error) = std::fs::write(&file, &document) {
        eprintln!("warning: could not write {}: {error}", file.display());
    }
    match outcomes.as_slice() {
        [single] => println!("{}", result_object(single, opts.traced)),
        _ => println!("{document}"),
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_arguments_parse() {
        let opts = parse(&args(
            "--workload gs_wavefront --seed 42 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(opts.workloads, vec!["gs_wavefront"]);
        assert_eq!(
            (opts.seed, opts.seconds, opts.traced, opts.smoke),
            (42, 10.0, true, false)
        );
        assert_eq!(parse(&[]).unwrap().workloads, NAMES.to_vec());
        assert!(!parse(&args("--trace 0")).unwrap().traced);
    }

    #[test]
    fn malformed_arguments_are_refused() {
        for bad in [
            "--workload nope",
            "--seed",
            "--seed x",
            "--seconds 0",
            "--seconds -1",
            "--trace 2",
            "--workers 0",
            "--bogus",
        ] {
            assert!(parse(&args(bad)).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn the_protocol_constants_follow_the_options() {
        let full = parse(&args("--seconds 10")).unwrap();
        assert_eq!((full.rounds(), full.slice_s()), (10, 1.0));
        let traced = parse(&args("--seconds 10 --traced")).unwrap();
        assert_eq!((traced.rounds(), traced.slice_s()), (7, 0.5));
        let smoke = parse(&args("--smoke")).unwrap();
        assert_eq!((smoke.rounds(), smoke.slice_s()), (1, 0.2));
    }
}
