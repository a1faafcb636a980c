//! Shared infrastructure for the figure/table binaries that regenerate the paper's evaluation.
//!
//! Every binary accepts the same command-line options:
//!
//! * `--cores N` — number of worker threads (default: all hardware threads);
//! * `--full` — paper-scale problem sizes (the defaults are laptop-scale);
//! * `--quick` — extra-small sizes for smoke testing;
//! * `--csv` — machine-readable CSV on stdout instead of the formatted table;
//! * `--repeat N` — repetitions per configuration (the best run is reported, as is customary
//!   for throughput benchmarks).

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::sync::Arc;

use weakdep_cachesim::{CacheConfig, CacheSimObserver};
use weakdep_core::{Runtime, RuntimeConfig, SchedulingPolicy};
use weakdep_trace::TraceCollector;

/// Options common to all figure binaries.
#[derive(Clone, Debug)]
pub struct CommonArgs {
    /// Worker threads to use (`--cores`).
    pub cores: usize,
    /// Paper-scale sizes (`--full`).
    pub full: bool,
    /// Smoke-test sizes (`--quick`).
    pub quick: bool,
    /// CSV output (`--csv`).
    pub csv: bool,
    /// Repetitions per configuration (`--repeat`).
    pub repeat: usize,
    /// Fail the run if a scenario exceeds its allocation budget (`--enforce-alloc-budget`;
    /// only honoured by the `overheads` binary, which requires `--features count-allocs`
    /// for the counters to move).
    pub enforce_alloc_budget: bool,
}

impl Default for CommonArgs {
    fn default() -> Self {
        CommonArgs {
            cores: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            full: false,
            quick: false,
            csv: false,
            repeat: 1,
            enforce_alloc_budget: false,
        }
    }
}

impl CommonArgs {
    /// Parses the process arguments. Unknown options abort with a usage message.
    pub fn parse() -> Self {
        let mut args = CommonArgs::default();
        let mut iter = std::env::args().skip(1);
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--cores" => {
                    args.cores = iter
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--cores requires a positive integer"));
                }
                "--repeat" => {
                    args.repeat = iter
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--repeat requires a positive integer"));
                }
                "--full" => args.full = true,
                "--quick" => args.quick = true,
                "--csv" => args.csv = true,
                "--enforce-alloc-budget" => args.enforce_alloc_budget = true,
                "--help" | "-h" => {
                    eprintln!(
                        "options: [--cores N] [--full] [--quick] [--csv] [--repeat N] [--enforce-alloc-budget]"
                    );
                    std::process::exit(0);
                }
                other => usage(&format!("unknown option '{other}'")),
            }
        }
        args.cores = args.cores.max(1);
        args.repeat = args.repeat.max(1);
        args
    }
}

fn usage(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("options: [--cores N] [--full] [--quick] [--csv] [--repeat N] [--enforce-alloc-budget]");
    std::process::exit(2);
}

/// A runtime plus the observers the figures need (cache simulator and trace collector).
pub struct InstrumentedRuntime {
    /// The runtime itself.
    pub runtime: Runtime,
    /// The per-worker cache model (Figure 3's bottom graph).
    pub cachesim: Arc<CacheSimObserver>,
    /// The execution trace (Figures 6 and 7).
    pub trace: Arc<TraceCollector>,
}

impl InstrumentedRuntime {
    /// Builds a runtime with `cores` workers, a cache simulator and a trace collector attached.
    pub fn new(cores: usize) -> Self {
        Self::with_policy(cores, SchedulingPolicy::default())
    }

    /// Like [`InstrumentedRuntime::new`], with an explicit scheduling policy (the
    /// `fig3_policies` sweep).
    pub fn with_policy(cores: usize, policy: SchedulingPolicy) -> Self {
        let cachesim = CacheSimObserver::shared(CacheConfig::default());
        let trace = TraceCollector::shared();
        let runtime = Runtime::new(
            RuntimeConfig::new()
                .workers(cores)
                .scheduling_policy(policy)
                .observer(cachesim.clone())
                .observer(trace.clone()),
        );
        InstrumentedRuntime { runtime, cachesim, trace }
    }

    /// Clears the observers (between repetitions / configurations).
    pub fn reset_observers(&self) {
        self.cachesim.reset();
        self.trace.reset();
    }
}

/// Prints a formatted table: a header row followed by data rows, columns padded to equal width.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let print_row = |cells: &[String]| {
        let line: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(0)))
            .collect();
        println!("{}", line.join("  "));
    };
    print_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
    println!("{}", "-".repeat(total));
    for row in rows {
        print_row(row);
    }
}

/// Prints rows as CSV with the given header.
pub fn print_csv(headers: &[&str], rows: &[Vec<String>]) {
    println!("{}", headers.join(","));
    for row in rows {
        println!("{}", row.join(","));
    }
}

/// Prints either a table or CSV depending on `csv`.
pub fn emit(csv: bool, headers: &[&str], rows: &[Vec<String>]) {
    if csv {
        print_csv(headers, rows);
    } else {
        print_table(headers, rows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_args_are_sane() {
        let args = CommonArgs::default();
        assert!(args.cores >= 1);
        assert_eq!(args.repeat, 1);
        assert!(!args.full && !args.quick && !args.csv);
    }

    #[test]
    fn instrumented_runtime_collects_observations() {
        let inst = InstrumentedRuntime::new(2);
        inst.runtime.run(|ctx| {
            let data = weakdep_core::SharedSlice::<f64>::new(1024);
            let d = data.clone();
            ctx.task().inout(data.region(0..1024)).label("bench-smoke").spawn(move |t| {
                d.write(t, 0..1024)[0] = 1.0;
            });
        });
        assert_eq!(inst.trace.len(), 1);
        assert!(inst.cachesim.total_stats().accesses() > 0);
        inst.reset_observers();
        assert_eq!(inst.trace.len(), 0);
        assert_eq!(inst.cachesim.total_stats().accesses(), 0);
    }

    #[test]
    fn table_formatting_does_not_panic() {
        print_table(&["a", "bbbb"], &[vec!["1".into(), "2".into()]]);
        print_csv(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        emit(true, &["a"], &[vec!["x".into()]]);
        emit(false, &["a"], &[vec!["x".into()]]);
    }
}

/// Heap-allocation counting for the `count-allocs` feature: the `overheads` and `soak` binaries
/// install [`alloc_counter::CountingAllocator`] as the global allocator when built with
/// `--features count-allocs`, and report allocations per task next to the throughput numbers.
/// The type itself is always compiled (it is inert unless registered via `#[global_allocator]`),
/// so only the registration in the binaries is feature-gated.
pub mod alloc_counter {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

    /// A pass-through global allocator that counts every allocation (and reallocation — each
    /// grow/shrink is a fresh trip to the allocator, which is exactly the hot-path cost the
    /// counter exists to expose). Frees are not counted: allocs/task is the metric.
    pub struct CountingAllocator;

    // SAFETY: defers every operation to `System` unchanged; the counter is a relaxed atomic.
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            // SAFETY: `layout` is forwarded unchanged; the caller upholds `GlobalAlloc::alloc`'s
            // contract and `System` is the real allocator.
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` was returned by `Self::alloc`/`Self::realloc`, which delegate to
            // `System` with the same layout — so it is a valid `System` allocation.
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            // SAFETY: as for `dealloc` — `ptr`/`layout` describe a live `System` allocation and
            // the caller upholds `GlobalAlloc::realloc`'s contract for `new_size`.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    /// Total heap allocations observed so far. Stays `0` unless [`CountingAllocator`] has been
    /// installed as the global allocator (the `count-allocs` feature of the bench binaries).
    pub fn allocations() -> u64 {
        ALLOCATIONS.load(Ordering::Relaxed)
    }
}

/// Shared handling of `BENCH_overheads.json`, which several binaries co-own: `overheads`
/// writes the `samples` sections, `tasks_vs_assist` splices a `"tasks_vs_assist"` section,
/// `mixed_tenant` splices a `"mixed_tenant"` section, `chaos` splices a `"chaos"` section,
/// `fig3_policies` splices a `"policies"` section and `soak` splices a trailing `"soak"`
/// section. All go through these helpers so no writer can silently drop another's data.
/// Invariant maintained by every writer: the movable sections are ordered `tasks_vs_assist`,
/// `mixed_tenant`, `chaos`, `policies`, `soak`, and the soak section, when present, is the
/// **last** top-level key of the object.
pub mod overheads_json {
    const MARKER: &str = "  \"soak\":";
    const BASELINE_MARKER: &str = "  \"alloc_baseline_pre_two_tier\":";
    const FRAG_BASELINE_MARKER: &str = "  \"fragmented_baseline_pre_arena\":";
    const POLICIES_MARKER: &str = "  \"policies\":";
    const MIXED_TENANT_MARKER: &str = "  \"mixed_tenant\":";
    const CHAOS_MARKER: &str = "  \"chaos\":";
    const TASKS_VS_ASSIST_MARKER: &str = "  \"tasks_vs_assist\":";

    /// Extracts the single-line `"tasks_vs_assist"` section (written by the `tasks_vs_assist`
    /// binary), if present, so the other writers can carry it across regenerations.
    pub fn extract_tasks_vs_assist(text: &str) -> Option<String> {
        let start = text.find(TASKS_VS_ASSIST_MARKER)?;
        let end = text[start..].find('\n').map(|e| start + e).unwrap_or(text.len());
        Some(text[start..end].trim_end().trim_end_matches(',').to_string())
    }

    /// Replaces (or inserts) the `"tasks_vs_assist"` section, preserving every other section
    /// and the ordering invariant (first movable section, before `mixed_tenant`).
    /// `tasks_vs_assist` must be a complete single-line `  "tasks_vs_assist": {...}` entry
    /// without a trailing comma or newline.
    pub fn splice_tasks_vs_assist(existing: Option<&str>, tasks_vs_assist: &str) -> String {
        let (head, mixed_tenant, chaos, policies, soak) = match existing {
            Some(text) => {
                let mixed_tenant = extract_mixed_tenants(text);
                let chaos = extract_chaos(text);
                let policies = extract_policies(text);
                let soak = extract_soak(text);
                let text = text.trim_end();
                let cut = [
                    text.find(TASKS_VS_ASSIST_MARKER),
                    text.find(MIXED_TENANT_MARKER),
                    text.find(CHAOS_MARKER),
                    text.find(POLICIES_MARKER),
                    text.find(MARKER),
                ]
                .into_iter()
                .flatten()
                .min();
                let head = match cut {
                    // Everything before the first movable section; it already ends with the
                    // previous section's `,\n`.
                    Some(pos) => text[..pos].to_string(),
                    None => match text.strip_suffix('}') {
                        Some(body) => {
                            let mut body = body.trim_end().to_string();
                            if !body.ends_with(['{', ',']) {
                                body.push(',');
                            }
                            body.push('\n');
                            body
                        }
                        None => String::from("{\n"),
                    },
                };
                (head, mixed_tenant, chaos, policies, soak)
            }
            None => (String::from("{\n"), None, None, None, None),
        };
        let mut sections = vec![tasks_vs_assist.to_string()];
        sections.extend(mixed_tenant);
        sections.extend(chaos);
        sections.extend(policies);
        sections.extend(soak);
        format!("{head}{}\n}}\n", sections.join(",\n"))
    }

    /// Extracts the single-line allocation-baseline section (the pre-two-tier allocs/task
    /// snapshot recorded once when the two-tier store landed), if present. The `overheads`
    /// binary *preserves* this across regenerations — it is a historical reference point, not
    /// something a rerun can re-measure.
    pub fn extract_alloc_baseline(text: &str) -> Option<String> {
        let start = text.find(BASELINE_MARKER)?;
        let end = text[start..].find('\n').map(|e| start + e).unwrap_or(text.len());
        Some(text[start..end].trim_end().trim_end_matches(',').to_string())
    }

    /// Extracts the single-line fragmented-tier baseline (the BTreeMap-backed interval-tier
    /// numbers recorded once, just before the arena rewrite landed), if present. Preserved
    /// across regenerations for the same reason as the allocation baseline: the pre-arena
    /// engine no longer exists to re-measure.
    pub fn extract_fragmented_baseline(text: &str) -> Option<String> {
        let start = text.find(FRAG_BASELINE_MARKER)?;
        let end = text[start..].find('\n').map(|e| start + e).unwrap_or(text.len());
        Some(text[start..end].trim_end().trim_end_matches(',').to_string())
    }

    /// Extracts the single-line `"policies"` section (written by the `fig3_policies` binary),
    /// if present, so the `overheads` binary can carry it across regenerations.
    pub fn extract_policies(text: &str) -> Option<String> {
        let start = text.find(POLICIES_MARKER)?;
        let end = text[start..].find('\n').map(|e| start + e).unwrap_or(text.len());
        Some(text[start..end].trim_end().trim_end_matches(',').to_string())
    }

    /// Replaces (or inserts) the `"policies"` section, preserving every other section and the
    /// soak-last invariant. `policies` must be a complete single-line `  "policies": {...}`
    /// entry without a trailing comma or newline.
    pub fn splice_policies(existing: Option<&str>, policies: &str) -> String {
        let (head, soak) = match existing {
            Some(text) => {
                let soak = extract_soak(text);
                let text = text.trim_end();
                let cut = match (text.find(POLICIES_MARKER), text.find(MARKER)) {
                    (Some(p), Some(s)) => Some(p.min(s)),
                    (p, s) => p.or(s),
                };
                let head = match cut {
                    // Everything before the first of the two movable sections; it already ends
                    // with the previous section's `,\n`.
                    Some(pos) => text[..pos].to_string(),
                    None => match text.strip_suffix('}') {
                        Some(body) => {
                            let mut body = body.trim_end().to_string();
                            if !body.ends_with(['{', ',']) {
                                body.push(',');
                            }
                            body.push('\n');
                            body
                        }
                        None => String::from("{\n"),
                    },
                };
                (head, soak)
            }
            None => (String::from("{\n"), None),
        };
        match soak {
            Some(soak) => format!("{head}{policies},\n{soak}\n}}\n"),
            None => format!("{head}{policies}\n}}\n"),
        }
    }

    /// Extracts the single-line `"mixed_tenant"` section (written by the `mixed_tenant`
    /// binary), if present, so the `overheads` binary can carry it across regenerations.
    pub fn extract_mixed_tenants(text: &str) -> Option<String> {
        let start = text.find(MIXED_TENANT_MARKER)?;
        let end = text[start..].find('\n').map(|e| start + e).unwrap_or(text.len());
        Some(text[start..end].trim_end().trim_end_matches(',').to_string())
    }

    /// Replaces (or inserts) the `"mixed_tenant"` section, preserving every other section and
    /// the ordering invariant (`mixed_tenant` before `chaos` before `policies` before `soak`,
    /// soak last). `mixed_tenant` must be a complete single-line `  "mixed_tenant": {...}`
    /// entry without a trailing comma or newline.
    pub fn splice_mixed_tenants(existing: Option<&str>, mixed_tenant: &str) -> String {
        let (head, chaos, policies, soak) = match existing {
            Some(text) => {
                let chaos = extract_chaos(text);
                let policies = extract_policies(text);
                let soak = extract_soak(text);
                let text = text.trim_end();
                let cut = [
                    text.find(MIXED_TENANT_MARKER),
                    text.find(CHAOS_MARKER),
                    text.find(POLICIES_MARKER),
                    text.find(MARKER),
                ]
                .into_iter()
                .flatten()
                .min();
                let head = match cut {
                    // Everything before the first movable section; it already ends with the
                    // previous section's `,\n`.
                    Some(pos) => text[..pos].to_string(),
                    None => match text.strip_suffix('}') {
                        Some(body) => {
                            let mut body = body.trim_end().to_string();
                            if !body.ends_with(['{', ',']) {
                                body.push(',');
                            }
                            body.push('\n');
                            body
                        }
                        None => String::from("{\n"),
                    },
                };
                (head, chaos, policies, soak)
            }
            None => (String::from("{\n"), None, None, None),
        };
        let mut sections = vec![mixed_tenant.to_string()];
        sections.extend(chaos);
        sections.extend(policies);
        sections.extend(soak);
        format!("{head}{}\n}}\n", sections.join(",\n"))
    }

    /// Extracts the single-line `"chaos"` section (written by the `chaos` binary), if present,
    /// so the other writers can carry it across regenerations.
    pub fn extract_chaos(text: &str) -> Option<String> {
        let start = text.find(CHAOS_MARKER)?;
        let end = text[start..].find('\n').map(|e| start + e).unwrap_or(text.len());
        Some(text[start..end].trim_end().trim_end_matches(',').to_string())
    }

    /// Replaces (or inserts) the `"chaos"` section, preserving every other section and the
    /// ordering invariant (after `mixed_tenant`, before `policies` and `soak`). `chaos` must
    /// be a complete single-line `  "chaos": {...}` entry without a trailing comma or newline.
    pub fn splice_chaos(existing: Option<&str>, chaos: &str) -> String {
        let (head, policies, soak) = match existing {
            Some(text) => {
                let policies = extract_policies(text);
                let soak = extract_soak(text);
                let text = text.trim_end();
                // `mixed_tenant` sits before the chaos section, so it stays in the head.
                let cut =
                    [text.find(CHAOS_MARKER), text.find(POLICIES_MARKER), text.find(MARKER)]
                        .into_iter()
                        .flatten()
                        .min();
                let head = match cut {
                    Some(pos) => text[..pos].to_string(),
                    None => match text.strip_suffix('}') {
                        Some(body) => {
                            let mut body = body.trim_end().to_string();
                            if !body.ends_with(['{', ',']) {
                                body.push(',');
                            }
                            body.push('\n');
                            body
                        }
                        None => String::from("{\n"),
                    },
                };
                (head, policies, soak)
            }
            None => (String::from("{\n"), None, None),
        };
        let mut sections = vec![chaos.to_string()];
        sections.extend(policies);
        sections.extend(soak);
        format!("{head}{}\n}}\n", sections.join(",\n"))
    }

    /// Extracts the soak section (marker through the end of the object, without the file's
    /// closing brace or a trailing comma) from a previously written file, if present.
    pub fn extract_soak(text: &str) -> Option<String> {
        let start = text.find(MARKER)?;
        let body = text.trim_end().strip_suffix('}')?;
        if body.len() < start {
            return None;
        }
        Some(body[start..].trim_end().trim_end_matches(',').to_string())
    }

    /// Replaces (or appends) the soak section of `existing`, preserving every earlier section.
    /// `soak` must be a complete `  "soak": {...}` line ending in a newline.
    pub fn splice_soak(existing: Option<&str>, soak: &str) -> String {
        let head = match existing {
            Some(text) => {
                let text = text.trim_end();
                match text.find(MARKER) {
                    // Replace a previous soak section (always the last section).
                    Some(pos) => text[..pos].to_string(),
                    None => match text.strip_suffix('}') {
                        Some(body) => {
                            let mut body = body.trim_end().to_string();
                            if !body.ends_with(['{', ',']) {
                                body.push(',');
                            }
                            body.push('\n');
                            body
                        }
                        None => String::from("{\n"),
                    },
                }
            }
            None => String::from("{\n"),
        };
        format!("{head}{soak}}}\n")
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        const SOAK: &str = "  \"soak\": {\"tasks\": 7}\n";

        #[test]
        fn fragmented_baseline_is_extracted_verbatim() {
            let text = "{\n  \"samples\": [\n  ],\n  \"fragmented_baseline_pre_arena\": {\"fragmented-deps\": 40.2},\n  \"soak\": {}\n}\n";
            assert_eq!(
                extract_fragmented_baseline(text).as_deref(),
                Some("  \"fragmented_baseline_pre_arena\": {\"fragmented-deps\": 40.2}")
            );
            assert_eq!(extract_fragmented_baseline("{\n}\n"), None);
        }

        #[test]
        fn alloc_baseline_is_extracted_verbatim() {
            let text = "{\n  \"samples\": [\n  ],\n  \"alloc_baseline_pre_two_tier\": {\"spawn-batched\": 37.2},\n  \"soak\": {}\n}\n";
            assert_eq!(
                extract_alloc_baseline(text).as_deref(),
                Some("  \"alloc_baseline_pre_two_tier\": {\"spawn-batched\": 37.2}")
            );
            assert_eq!(extract_alloc_baseline("{\n}\n"), None);
        }

        #[test]
        fn splice_policies_preserves_every_other_section() {
            const POLICIES: &str = "  \"policies\": {\"rows\": 1}";
            // Insert into a samples-only file.
            let base = "{\n  \"samples\": [\n    {}\n  ]\n}\n";
            let spliced = splice_policies(Some(base), POLICIES);
            assert!(spliced.contains("\"samples\""));
            assert!(spliced.ends_with("  \"policies\": {\"rows\": 1}\n}\n"));
            // Insert before an existing soak section (which must stay last).
            let with_soak = splice_soak(Some(base), SOAK);
            let spliced = splice_policies(Some(&with_soak), POLICIES);
            assert!(spliced.ends_with("  \"policies\": {\"rows\": 1},\n  \"soak\": {\"tasks\": 7}\n}\n"));
            // Replace an existing policies section, soak still last.
            let replaced = splice_policies(Some(&spliced), "  \"policies\": {\"rows\": 2}");
            assert!(replaced.contains("\"rows\": 2") && !replaced.contains("\"rows\": 1"));
            assert!(replaced.trim_end().ends_with("  \"soak\": {\"tasks\": 7}\n}"));
            // Round-trips through extract, and soak re-splicing keeps policies.
            assert_eq!(extract_policies(&replaced).as_deref(), Some("  \"policies\": {\"rows\": 2}"));
            let resoaked = splice_soak(Some(&replaced), "  \"soak\": {\"tasks\": 9}\n");
            assert!(resoaked.contains("\"rows\": 2") && resoaked.contains("\"tasks\": 9"));
            // Missing file behaves.
            assert_eq!(splice_policies(None, POLICIES), format!("{{\n{POLICIES}\n}}\n"));
        }

        #[test]
        fn splice_tasks_vs_assist_keeps_ordering_invariant() {
            const TVA: &str = "  \"tasks_vs_assist\": {\"rows\": 3}";
            const MIXED: &str = "  \"mixed_tenant\": {\"jobs\": 8}";
            const CHAOS: &str = "  \"chaos\": {\"seed\": 1}";
            const POLICIES: &str = "  \"policies\": {\"rows\": 1}";
            let base = "{\n  \"samples\": [\n    {}\n  ]\n}\n";
            // Insert into a samples-only file.
            let spliced = splice_tasks_vs_assist(Some(base), TVA);
            assert!(spliced.contains("\"samples\""));
            assert!(spliced.ends_with("  \"tasks_vs_assist\": {\"rows\": 3}\n}\n"));
            // With every other movable section present, tasks_vs_assist lands first.
            let full = splice_soak(
                Some(&splice_policies(
                    Some(&splice_chaos(Some(&splice_mixed_tenants(Some(base), MIXED)), CHAOS)),
                    POLICIES,
                )),
                SOAK,
            );
            let spliced = splice_tasks_vs_assist(Some(&full), TVA);
            assert!(spliced.ends_with(
                "  \"tasks_vs_assist\": {\"rows\": 3},\n  \"mixed_tenant\": {\"jobs\": 8},\n  \"chaos\": {\"seed\": 1},\n  \"policies\": {\"rows\": 1},\n  \"soak\": {\"tasks\": 7}\n}\n"
            ));
            // Replace an existing section; everything else survives in order.
            let replaced = splice_tasks_vs_assist(Some(&spliced), "  \"tasks_vs_assist\": {\"rows\": 4}");
            assert!(replaced.contains("\"rows\": 4") && !replaced.contains("\"rows\": 3"));
            assert!(replaced.contains("\"jobs\": 8") && replaced.contains("\"seed\": 1"));
            // Round-trips through extract; the other writers carry it (they cut at the
            // *minimum* marker position, and tasks_vs_assist is never the minimum for them —
            // it precedes their cut set, so it stays in the head).
            assert_eq!(
                extract_tasks_vs_assist(&replaced).as_deref(),
                Some("  \"tasks_vs_assist\": {\"rows\": 4}")
            );
            let remixed = splice_mixed_tenants(Some(&replaced), "  \"mixed_tenant\": {\"jobs\": 9}");
            assert!(remixed.contains("\"rows\": 4") && remixed.contains("\"jobs\": 9"));
            let resoaked = splice_soak(Some(&remixed), "  \"soak\": {\"tasks\": 9}\n");
            assert!(resoaked.contains("\"rows\": 4") && resoaked.contains("\"tasks\": 9"));
            let tva_pos = resoaked.find("\"tasks_vs_assist\"").unwrap();
            let mixed_pos = resoaked.find("\"mixed_tenant\"").unwrap();
            let soak_pos = resoaked.find("\"soak\"").unwrap();
            assert!(tva_pos < mixed_pos && mixed_pos < soak_pos);
            // Missing file behaves.
            assert_eq!(splice_tasks_vs_assist(None, TVA), format!("{{\n{TVA}\n}}\n"));
        }

        #[test]
        fn splice_mixed_tenant_keeps_ordering_invariant() {
            const MIXED: &str = "  \"mixed_tenant\": {\"jobs\": 8}";
            const POLICIES: &str = "  \"policies\": {\"rows\": 1}";
            let base = "{\n  \"samples\": [\n    {}\n  ]\n}\n";
            // Insert into a samples-only file.
            let spliced = splice_mixed_tenants(Some(base), MIXED);
            assert!(spliced.contains("\"samples\""));
            assert!(spliced.ends_with("  \"mixed_tenant\": {\"jobs\": 8}\n}\n"));
            // Insert with policies and soak present: mixed_tenant lands before both.
            let with_policies = splice_policies(Some(base), POLICIES);
            let with_soak = splice_soak(Some(&with_policies), SOAK);
            let spliced = splice_mixed_tenants(Some(&with_soak), MIXED);
            assert!(spliced.ends_with(
                "  \"mixed_tenant\": {\"jobs\": 8},\n  \"policies\": {\"rows\": 1},\n  \"soak\": {\"tasks\": 7}\n}\n"
            ));
            // Replace an existing mixed_tenant section; everything else survives.
            let replaced = splice_mixed_tenants(Some(&spliced), "  \"mixed_tenant\": {\"jobs\": 9}");
            assert!(replaced.contains("\"jobs\": 9") && !replaced.contains("\"jobs\": 8"));
            assert!(replaced.contains("\"rows\": 1") && replaced.trim_end().ends_with("  \"soak\": {\"tasks\": 7}\n}"));
            // Round-trips through extract; later policies/soak splices keep it.
            assert_eq!(extract_mixed_tenants(&replaced).as_deref(), Some("  \"mixed_tenant\": {\"jobs\": 9}"));
            let repoliced = splice_policies(Some(&replaced), "  \"policies\": {\"rows\": 2}");
            assert!(repoliced.contains("\"jobs\": 9") && repoliced.contains("\"rows\": 2"));
            let resoaked = splice_soak(Some(&repoliced), "  \"soak\": {\"tasks\": 9}\n");
            assert!(resoaked.contains("\"jobs\": 9") && resoaked.contains("\"tasks\": 9"));
            // Missing file behaves.
            assert_eq!(splice_mixed_tenants(None, MIXED), format!("{{\n{MIXED}\n}}\n"));
        }

        #[test]
        fn splice_chaos_keeps_ordering_invariant() {
            const MIXED: &str = "  \"mixed_tenant\": {\"jobs\": 8}";
            const CHAOS: &str = "  \"chaos\": {\"seed\": 1}";
            const POLICIES: &str = "  \"policies\": {\"rows\": 1}";
            let base = "{\n  \"samples\": [\n    {}\n  ]\n}\n";
            // Insert into a samples-only file.
            let spliced = splice_chaos(Some(base), CHAOS);
            assert!(spliced.contains("\"samples\""));
            assert!(spliced.ends_with("  \"chaos\": {\"seed\": 1}\n}\n"));
            // With every other movable section present, chaos lands after mixed_tenant and
            // before policies and soak.
            let full = splice_soak(
                Some(&splice_policies(Some(&splice_mixed_tenants(Some(base), MIXED)), POLICIES)),
                SOAK,
            );
            let spliced = splice_chaos(Some(&full), CHAOS);
            assert!(spliced.ends_with(
                "  \"mixed_tenant\": {\"jobs\": 8},\n  \"chaos\": {\"seed\": 1},\n  \"policies\": {\"rows\": 1},\n  \"soak\": {\"tasks\": 7}\n}\n"
            ));
            // Replace an existing chaos section; everything else survives in order.
            let replaced = splice_chaos(Some(&spliced), "  \"chaos\": {\"seed\": 2}");
            assert!(replaced.contains("\"seed\": 2") && !replaced.contains("\"seed\": 1"));
            assert!(replaced.contains("\"jobs\": 8") && replaced.contains("\"rows\": 1"));
            assert!(replaced.trim_end().ends_with("  \"soak\": {\"tasks\": 7}\n}"));
            // Round-trips through extract; the other writers carry it.
            assert_eq!(extract_chaos(&replaced).as_deref(), Some("  \"chaos\": {\"seed\": 2}"));
            let remixed = splice_mixed_tenants(Some(&replaced), "  \"mixed_tenant\": {\"jobs\": 9}");
            assert!(remixed.contains("\"seed\": 2") && remixed.contains("\"jobs\": 9"));
            let repoliced = splice_policies(Some(&remixed), "  \"policies\": {\"rows\": 2}");
            assert!(repoliced.contains("\"seed\": 2") && repoliced.contains("\"rows\": 2"));
            let resoaked = splice_soak(Some(&repoliced), "  \"soak\": {\"tasks\": 9}\n");
            assert!(resoaked.contains("\"seed\": 2") && resoaked.contains("\"tasks\": 9"));
            // The ordering invariant holds after the full rewrite cycle.
            let mixed_pos = resoaked.find("\"mixed_tenant\"").unwrap();
            let chaos_pos = resoaked.find("\"chaos\"").unwrap();
            let policies_pos = resoaked.find("\"policies\"").unwrap();
            let soak_pos = resoaked.find("\"soak\"").unwrap();
            assert!(mixed_pos < chaos_pos && chaos_pos < policies_pos && policies_pos < soak_pos);
            // Missing file behaves.
            assert_eq!(splice_chaos(None, CHAOS), format!("{{\n{CHAOS}\n}}\n"));
        }

        #[test]
        fn splice_appends_replaces_and_round_trips_with_extract() {
            // Append to a samples-only file.
            let base = "{\n  \"samples\": [\n    {}\n  ]\n}\n";
            let spliced = splice_soak(Some(base), SOAK);
            assert!(spliced.contains("\"samples\""));
            assert!(spliced.ends_with("  \"soak\": {\"tasks\": 7}\n}\n"));
            // Replace an existing soak section.
            let replaced = splice_soak(Some(&spliced), "  \"soak\": {\"tasks\": 9}\n");
            assert!(replaced.contains("\"tasks\": 9") && !replaced.contains("\"tasks\": 7"));
            // Extract gets back exactly what splice put in.
            assert_eq!(extract_soak(&replaced).as_deref(), Some("  \"soak\": {\"tasks\": 9}"));
            // Missing file and missing section behave.
            assert!(splice_soak(None, SOAK).starts_with("{\n  \"soak\""));
            assert_eq!(extract_soak(base), None);
        }
    }
}
