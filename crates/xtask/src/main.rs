//! Workspace automation tasks (the cargo-xtask pattern — a plain binary, no external deps).
//!
//! ```text
//! cargo run -p xtask -- lint-locks [--allowlist <path>] [files…]
//! ```
//!
//! `lint-locks` enforces the locking rules of `docs/locking.md` on the deadlock-critical
//! files (`crates/core/src/engine.rs`, `crates/core/src/runtime.rs`,
//! `crates/threadpool/src/sleep.rs`, `crates/threadpool/src/lib.rs`,
//! `crates/threadpool/src/watchdog.rs`, `crates/threadpool/src/assist.rs`); see `src/lint.rs` for the rules and the scanner.
//! Exit code 1 when violations remain after allowlisting.

mod lint;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The real files the lint covers by default, relative to the workspace root.
const DEFAULT_TARGETS: &[&str] = &[
    "crates/core/src/engine.rs",
    "crates/threadpool/src/sleep.rs",
    "crates/core/src/runtime.rs",
    "crates/threadpool/src/lib.rs",
    "crates/threadpool/src/watchdog.rs",
    "crates/threadpool/src/assist.rs",
];

const DEFAULT_ALLOWLIST: &str = "crates/xtask/lint-locks.allow";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint-locks") => lint_locks(args.collect()),
        Some(other) => {
            eprintln!("unknown task `{other}`; available: lint-locks");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("usage: cargo run -p xtask -- lint-locks [--allowlist <path>] [files…]");
            ExitCode::FAILURE
        }
    }
}

/// Locates the workspace root so the lint works from any cwd inside the repo: walk up from
/// the current directory to the first ancestor holding a `Cargo.toml` with `[workspace]`.
fn workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().expect("cwd");
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return dir;
                }
            }
        }
        if !dir.pop() {
            // Fall back to the cwd; the explicit file arguments still work.
            return std::env::current_dir().expect("cwd");
        }
    }
}

fn load_allowlist(path: &Path) -> BTreeSet<String> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return BTreeSet::new();
    };
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

fn lint_locks(args: Vec<String>) -> ExitCode {
    let root = workspace_root();
    let mut allowlist_path = root.join(DEFAULT_ALLOWLIST);
    let mut files: Vec<PathBuf> = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        if arg == "--allowlist" {
            match iter.next() {
                Some(p) => allowlist_path = PathBuf::from(p),
                None => {
                    eprintln!("--allowlist requires a path");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            files.push(PathBuf::from(arg));
        }
    }
    if files.is_empty() {
        files = DEFAULT_TARGETS.iter().map(|t| root.join(t)).collect();
    }

    let allowlist = load_allowlist(&allowlist_path);
    let mut total = 0usize;
    let mut allowed = 0usize;
    for file in &files {
        let source = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(err) => {
                eprintln!("lint-locks: cannot read {}: {err}", file.display());
                return ExitCode::FAILURE;
            }
        };
        let classes = lint::classes_for(file);
        if classes.is_empty() {
            eprintln!(
                "lint-locks: no lock classes configured for {} (skipped)",
                file.display()
            );
            continue;
        }
        let label =
            file.file_name().and_then(|n| n.to_str()).unwrap_or("<file>").to_string();
        for violation in lint::scan_source(&label, &source, classes) {
            if allowlist.contains(&violation.key()) {
                allowed += 1;
                continue;
            }
            eprintln!("{violation}");
            total += 1;
        }
    }
    if total == 0 {
        println!(
            "lint-locks: clean ({} file(s), {} allowlisted finding(s))",
            files.len(),
            allowed
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("lint-locks: {total} violation(s) — see docs/locking.md for the rules");
        ExitCode::FAILURE
    }
}
