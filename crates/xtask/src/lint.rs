//! The lock-discipline lint: a hand-rolled source scanner (no `syn`, the container is offline)
//! that enforces the locking rules documented in `docs/locking.md` on the two files where a
//! slip would be a deadlock or a lost wake-up:
//!
//! * `crates/core/src/engine.rs` — **domain locks** (`….domain.lock()`):
//!   - `nested-lock`: no thread ever holds two domain locks at once (cross-domain work goes
//!     through the outbox/`pump` protocol instead);
//!   - `leaf-lock`: no lock of any kind is taken while a domain lock is held;
//!   - `call-while-locked`: no domain-lock guard may be live across the message pump, the
//!     filing of retired ids (`recycle`, which takes a free list) or any scheduler
//!     dispatch/wake call — effects are dispatched strictly after every engine lock is
//!     dropped.
//!
//!   and the **free lists of retired ids** (`….ids.lock()`):
//!   - `leaf-lock`: only the pushes or the pop of one drain run under it — no other lock;
//!   - `call-while-locked`: the same patterns as the domain lock.
//! * `crates/threadpool/src/sleep.rs` — the **park mutex** (`….park.lock()`, which the workers'
//!   condvars wait on; the wake epoch itself is an atomic) and the **gate mutex**
//!   (`….mutex.lock()`, the one `Gate` type behind job completion and admission):
//!   - `leaf-lock`: both are leaves of the lock hierarchy — no other lock may be acquired
//!     while one is held;
//!   - `call-while-locked`: no pump/dispatch call under either. (Condvar notifies under them
//!     are *required* by the protocols and are deliberately not flagged here.)
//! * `crates/core/src/runtime.rs` — the **jobs registry** (`….jobs.lock()`) of the
//!   multi-tenant service:
//!   - `leaf-lock`: only insert/remove/`Arc`-clone run under it — no other lock;
//!   - `call-while-locked`: no gate notify/wait, scheduler dispatch or admission call while
//!     the registry guard is live (clone the job `Arc`s out, drop the guard, then notify).
//!
//!   and the workers' **return bins** of finished task records (`….parked.lock()`):
//!   - `leaf-lock`: only a batch's append or the move of a whole bin runs under it — no other
//!     lock; the domain class applies here too, so a bin taken under a domain guard is flagged;
//!   - `call-while-locked`: no dispatch, wake, pump or id filing under it.
//! * `crates/threadpool/src/lib.rs` — the **fair-share queue mutex** (`….fair.lock()`):
//!   - `leaf-lock` + `call-while-locked`: queue rotation only; sleep-protocol notifies happen
//!     strictly after the push returns.
//! * `crates/threadpool/src/watchdog.rs` — the **watchdog state mutex** (`….state.lock()`):
//!   - `leaf-lock` + `call-while-locked` (pump/dispatch patterns; the condvar wait *and*
//!     notify under the mutex are the watchdog's own sleep protocol and are deliberately
//!     allowed — the tick callback, which takes other leaf locks, runs outside it).
//! * `crates/threadpool/src/assist.rs` — the **assist registry** (`….loops.lock()`) and the
//!   per-loop **poison slot** (`….poison.lock()`):
//!   - `leaf-lock`: both are leaves — publish/retire/select only mutate the small `Vec`
//!     under the registry lock, and the poison slot only stores the first panic payload;
//!   - `call-while-locked`: no chunk execution (`run_chunk`/`drive`/`claim`), sleep-protocol
//!     notify, or scheduler dispatch while either guard is live — chunks are claimed and run
//!     strictly after release, and loop-publication wakes happen outside the lock.
//!
//! ## How the scanner works
//!
//! The scanner is line-based with a character-level sanitizer: comments, string-literal
//! contents and char literals are blanked first (so braces in format strings cannot corrupt
//! the scope tracking), then brace depth is tracked across the file. A **guard** is born at a
//! `let` binding whose right-hand side ends in a matching `.lock()` call, and dies when its
//! enclosing brace scope closes or a `drop(name)` statement names it. Lock calls used as
//! statement temporaries (`foo.domain.lock().field`) are instantaneous — they never produce a
//! live guard, but they still count as acquisitions for the nesting rules.
//!
//! False positives are handled by an allowlist file (`crates/xtask/lint-locks.allow`) keyed
//! `file:function:rule`.

use std::fmt;
use std::path::Path;

/// One class of lock the lint knows about, with the rules that apply while it is held.
pub struct LockClass {
    /// Short name used in messages and allowlist keys.
    pub name: &'static str,
    /// Substring identifying an acquisition of this class (e.g. `.domain.lock()`).
    pub acquire: &'static str,
    /// Call patterns forbidden on any line while a guard of this class is live.
    pub forbidden_calls: &'static [&'static str],
    /// Forbid acquiring a *second* lock of this same class while one is held.
    pub forbid_nested_same_class: bool,
    /// Leaf lock: forbid acquiring *any* lock (`.lock(`) while a guard of this class is held.
    pub leaf: bool,
}

/// The configured classes for a real workspace file, selected by file name.
pub fn classes_for(path: &Path) -> &'static [LockClass] {
    // Scheduler entry points that queue work (and signal the sleep protocol themselves).
    const DISPATCH: &[&str] =
        &[".pump(", ".submit(", ".submit_batch(", ".dispatch_ready(", ".dispatch_spawned("];
    // `DISPATCH` plus every sleep-protocol wake — and `work_until`, which sleeps *and* runs
    // arbitrary tasks, and `recycle`, which files retired ids under a free list.
    const WAKE_OR_DISPATCH: &[&str] = &[
        ".pump(",
        ".recycle(",
        ".notify_one(",
        ".notify_all(",
        ".notify_many(",
        ".wake_waiters(",
        ".work_until(",
        ".submit(",
        ".submit_batch(",
        ".dispatch_ready(",
        ".dispatch_spawned(",
    ];
    const DOMAIN: LockClass = LockClass {
        name: "domain",
        acquire: ".domain.lock()",
        // A leaf: no lock is ever taken while a domain lock is held, neither here nor through
        // the calls that take one (docs/locking.md).
        forbidden_calls: WAKE_OR_DISPATCH,
        forbid_nested_same_class: true,
        leaf: true,
    };
    const FREE_LIST: LockClass = LockClass {
        name: "free-list",
        acquire: ".ids.lock()",
        // One drain's pushes or one pop under it, nothing else (docs/locking.md).
        forbidden_calls: WAKE_OR_DISPATCH,
        forbid_nested_same_class: true,
        leaf: true,
    };
    const PARK: LockClass = LockClass {
        name: "park",
        acquire: ".park.lock()",
        // Condvar notifies are deliberately absent: notifying *under* the park mutex is the
        // lost-wake-up defence (docs/locking.md), not a violation.
        forbidden_calls: DISPATCH,
        forbid_nested_same_class: true,
        leaf: true,
    };
    const GATE: LockClass = LockClass {
        name: "gate",
        acquire: ".mutex.lock()",
        // Like the park mutex, the condvar notify under the gate mutex is the lost-wake-up
        // defence and is deliberately allowed.
        forbidden_calls: DISPATCH,
        forbid_nested_same_class: true,
        leaf: true,
    };
    const REGISTRY: LockClass = LockClass {
        name: "jobs-registry",
        acquire: ".jobs.lock()",
        // The registry holds job `Arc`s only for insert/remove/clone; every notify, wait,
        // dispatch and admission probe must happen after the guard is dropped
        // (docs/locking.md).
        forbidden_calls: &[
            ".pump(",
            ".notify(",
            ".notify_one(",
            ".notify_all(",
            ".notify_many(",
            ".wake_waiters(",
            ".wait_until(",
            ".work_until(",
            ".submit(",
            ".submit_batch(",
            ".dispatch_ready(",
            ".dispatch_spawned(",
            ".admit(",
        ],
        forbid_nested_same_class: true,
        leaf: true,
    };
    const FAIR: LockClass = LockClass {
        name: "fair-queue",
        acquire: ".fair.lock()",
        // Sleep-protocol notifies happen strictly after a fair push returns.
        forbidden_calls: WAKE_OR_DISPATCH,
        forbid_nested_same_class: true,
        leaf: true,
    };
    const WATCHDOG: LockClass = LockClass {
        name: "watchdog",
        acquire: ".state.lock()",
        // Both the condvar wait and the notify under the state mutex are the watchdog's
        // sleep protocol (docs/robustness.md) — only pump/dispatch calls are out of place.
        // The tick callback (which takes the caller's own leaf locks) runs outside the mutex;
        // the `thread` handle mutex is a spawn-once latch, not part of this class.
        forbidden_calls: DISPATCH,
        forbid_nested_same_class: true,
        leaf: true,
    };
    // `WAKE_OR_DISPATCH` plus chunk execution.
    const NO_CHUNK_WAKE_OR_DISPATCH: &[&str] = &[
        ".pump(",
        ".notify_one(",
        ".notify_all(",
        ".notify_many(",
        ".wake_waiters(",
        ".work_until(",
        ".submit(",
        ".submit_batch(",
        ".dispatch_ready(",
        ".dispatch_spawned(",
        ".run_chunk(",
        ".drive(",
        ".claim(",
    ];
    const ASSIST: LockClass = LockClass {
        name: "assist-registry",
        acquire: ".loops.lock()",
        // Chunks are claimed and run strictly after the registry guard is released, and the
        // publish wake goes through the sleep protocol outside the lock (docs/locking.md).
        forbidden_calls: NO_CHUNK_WAKE_OR_DISPATCH,
        forbid_nested_same_class: true,
        leaf: true,
    };
    const POISON: LockClass = LockClass {
        name: "loop-poison",
        acquire: ".poison.lock()",
        // The poison slot only stores/takes the first panic payload; nothing else may run
        // under it.
        forbidden_calls: NO_CHUNK_WAKE_OR_DISPATCH,
        forbid_nested_same_class: true,
        leaf: true,
    };
    const RETURN_BIN: LockClass = LockClass {
        name: "return-bin",
        acquire: ".parked.lock()",
        // A batch's append or the move of a whole bin, nothing else (docs/locking.md).
        forbidden_calls: WAKE_OR_DISPATCH,
        forbid_nested_same_class: true,
        leaf: true,
    };
    const DOMAIN_CLASSES: &[LockClass] = &[DOMAIN, FREE_LIST];
    // The domain class has no acquisition in the runtime; it is listed so that a return bin
    // (or any other lock) taken under a domain guard there would be flagged as well.
    const RUNTIME_CLASSES: &[LockClass] = &[REGISTRY, RETURN_BIN, DOMAIN];
    const SLEEP_CLASSES: &[LockClass] = &[PARK, GATE];
    const FAIR_CLASSES: &[LockClass] = &[FAIR];
    const WATCHDOG_CLASSES: &[LockClass] = &[WATCHDOG];
    const ASSIST_CLASSES: &[LockClass] = &[ASSIST, POISON];
    let full = path.to_string_lossy().replace('\\', "/");
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    // "domain"/"outbox" match the synthetic fixtures, so the CLI can be pointed at them too.
    if name.contains("engine") || name.contains("domain") || name.contains("outbox") {
        DOMAIN_CLASSES
    } else if name.contains("sleep") {
        SLEEP_CLASSES
    } else if name.contains("runtime") || name.contains("registry") || name.contains("return_bin")
    {
        RUNTIME_CLASSES
    } else if name.contains("watchdog") {
        WATCHDOG_CLASSES
    } else if name.contains("assist") {
        ASSIST_CLASSES
    } else if full.contains("threadpool") && name == "lib.rs" || name.contains("fair") {
        FAIR_CLASSES
    } else {
        &[]
    }
}

/// One rule breach at a specific line.
#[derive(Debug, PartialEq, Eq)]
pub struct Violation {
    pub file: String,
    pub line: usize,
    pub function: String,
    /// `nested-lock`, `leaf-lock` or `call-while-locked`.
    pub rule: &'static str,
    pub detail: String,
}

impl Violation {
    /// The allowlist key this violation matches: `file:function:rule`.
    pub fn key(&self) -> String {
        format!("{}:{}:{}", self.file, self.function, self.rule)
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} [{}] in fn {}: {}",
            self.file, self.line, self.rule, self.function, self.detail
        )
    }
}

/// A live lock guard: the `let` binding name, its class, and the brace depth it was born at
/// (it dies when the depth drops below that).
struct Guard {
    name: String,
    class_idx: usize,
    depth: usize,
    line: usize,
}

/// Blanks comments, string contents and char literals so brace/paren counting and pattern
/// matching see only code. `in_block_comment` persists across lines.
fn sanitize(line: &str, in_block_comment: &mut bool) -> String {
    let bytes = line.as_bytes();
    let mut out = String::with_capacity(line.len());
    let mut i = 0;
    while i < bytes.len() {
        if *in_block_comment {
            if bytes[i..].starts_with(b"*/") {
                *in_block_comment = false;
                i += 2;
            } else {
                i += 1;
            }
            continue;
        }
        match bytes[i] {
            b'/' if bytes[i..].starts_with(b"//") => break, // line comment: rest is gone
            b'/' if bytes[i..].starts_with(b"/*") => {
                *in_block_comment = true;
                i += 2;
            }
            b'"' => {
                // String literal: skip to the closing quote, honouring escapes. Multi-line
                // strings would need carry-over state; the linted files do not use them, and
                // an unterminated string simply blanks the rest of the line.
                out.push('"');
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => i += 2,
                        b'"' => {
                            out.push('"');
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
            }
            b'\'' => {
                // Char literal (`'x'`, `'\n'`) vs lifetime (`'a`): a literal closes with a
                // quote within a few bytes; a lifetime does not.
                let lit_len = if bytes.get(i + 1) == Some(&b'\\') {
                    // escaped char, e.g. '\n' or '\u{..}' — find the closing quote
                    bytes[i + 2..].iter().position(|&b| b == b'\'').map(|p| p + 3)
                } else if bytes.get(i + 2) == Some(&b'\'') {
                    Some(3)
                } else {
                    None
                };
                match lit_len {
                    Some(len) => i += len, // blank the whole literal
                    None => {
                        // lifetime — keep the tick (harmless) and move on
                        out.push('\'');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b as char);
                i += 1;
            }
        }
    }
    out
}

/// Extracts the binding name of `let [mut] name = …` from a sanitized line, if the line is a
/// simple let statement (destructuring patterns are not lock-guard idioms in these files).
fn let_binding_name(code: &str) -> Option<String> {
    let trimmed = code.trim_start();
    let rest = trimmed.strip_prefix("let ")?;
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

/// `true` if the statement on this line binds a *guard* (the RHS ends with the `.lock()`
/// call), as opposed to dereferencing through a temporary (`….lock().field`).
fn is_guard_binding(code: &str) -> bool {
    let trimmed = code.trim_end();
    let trimmed = trimmed.strip_suffix(';').unwrap_or(trimmed).trim_end();
    trimmed.ends_with(".lock()")
}

/// Extracts the name of a function declared on this line (`fn name(`), if any.
fn fn_declaration(code: &str) -> Option<String> {
    let idx = code.find("fn ")?;
    // Require a word boundary before `fn` (so `often ` cannot match).
    if idx > 0 {
        let prev = code.as_bytes()[idx - 1];
        if prev.is_ascii_alphanumeric() || prev == b'_' {
            return None;
        }
    }
    let rest = &code[idx + 3..];
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() || !rest[name.len()..].trim_start().starts_with(['(', '<']) {
        return None;
    }
    Some(name)
}

/// Scans one file's source against the given lock classes.
pub fn scan_source(file_label: &str, source: &str, classes: &[LockClass]) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth: usize = 0;
    let mut in_block_comment = false;
    // (name, body depth) of the innermost function whose body we are inside.
    let mut fn_stack: Vec<(String, usize)> = Vec::new();

    for (line_idx, raw_line) in source.lines().enumerate() {
        let line_no = line_idx + 1;
        let code = sanitize(raw_line, &mut in_block_comment);

        // Function tracking: a declaration opening its body on this (or a later) line. The
        // body depth is the depth *after* this line's opening brace; recording `depth + 1`
        // matches the single-line `fn name(…) {` idiom used throughout the linted files.
        if let Some(name) = fn_declaration(&code) {
            fn_stack.push((name, depth + 1));
        }

        let current_fn =
            || fn_stack.last().map(|(n, _)| n.clone()).unwrap_or_else(|| "<top>".into());

        // Rule checks run against guards live *before* this line's own acquisition.
        for guard in &guards {
            let class = &classes[guard.class_idx];
            for pattern in class.forbidden_calls {
                if code.contains(pattern) {
                    violations.push(Violation {
                        file: file_label.to_string(),
                        line: line_no,
                        function: current_fn(),
                        rule: "call-while-locked",
                        detail: format!(
                            "`{pattern}` called while {} guard `{}` (line {}) is live",
                            class.name, guard.name, guard.line
                        ),
                    });
                }
            }
            if class.leaf && code.contains(".lock(") {
                violations.push(Violation {
                    file: file_label.to_string(),
                    line: line_no,
                    function: current_fn(),
                    rule: "leaf-lock",
                    detail: format!(
                        "lock acquired while leaf {} guard `{}` (line {}) is live",
                        class.name, guard.name, guard.line
                    ),
                });
            }
        }

        // Acquisitions of a known class (guard bindings *and* temporaries both count for the
        // nesting rule; only `let` bindings whose RHS ends in `.lock()` become live guards).
        for (class_idx, class) in classes.iter().enumerate() {
            if !code.contains(class.acquire) {
                continue;
            }
            if class.forbid_nested_same_class {
                if let Some(held) = guards.iter().find(|g| g.class_idx == class_idx) {
                    violations.push(Violation {
                        file: file_label.to_string(),
                        line: line_no,
                        function: current_fn(),
                        rule: "nested-lock",
                        detail: format!(
                            "{} lock acquired while {} guard `{}` (line {}) is live",
                            class.name, class.name, held.name, held.line
                        ),
                    });
                }
            }
            if is_guard_binding(&code) {
                if let Some(name) = let_binding_name(&code) {
                    guards.push(Guard { name, class_idx, depth, line: line_no });
                }
            }
        }

        // Explicit `drop(name)` ends a guard's liveness early.
        if let Some(idx) = code.find("drop(") {
            let arg: String = code[idx + 5..]
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            guards.retain(|g| g.name != arg);
        }

        // Brace depth update, then close out guards and functions whose scope ended.
        for ch in code.chars() {
            match ch {
                '{' => depth += 1,
                '}' => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
        // A guard born while the enclosing depth was `d` dies once depth drops below `d`
        // (its surrounding block closed).
        guards.retain(|g| depth >= g.depth);
        fn_stack.retain(|(_, body_depth)| depth >= *body_depth);
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn domain_classes() -> &'static [LockClass] {
        classes_for(&PathBuf::from("engine.rs"))
    }

    fn sleep_classes() -> &'static [LockClass] {
        classes_for(&PathBuf::from("sleep.rs"))
    }

    #[test]
    fn clean_outbox_protocol_passes() {
        let src = include_str!("../fixtures/clean_outbox.rs");
        let violations = scan_source("clean_outbox.rs", src, domain_classes());
        assert!(violations.is_empty(), "clean fixture flagged: {violations:?}");
    }

    #[test]
    fn nested_domain_lock_fixture_is_flagged() {
        let src = include_str!("../fixtures/nested_domain_lock.rs");
        let violations = scan_source("nested_domain_lock.rs", src, domain_classes());
        assert!(
            violations.iter().any(|v| v.rule == "nested-lock" && v.function == "hold_and_wait"),
            "nested-lock not flagged: {violations:?}"
        );
    }

    #[test]
    fn dispatch_under_domain_lock_fixture_is_flagged() {
        let src = include_str!("../fixtures/nested_domain_lock.rs");
        let violations = scan_source("nested_domain_lock.rs", src, domain_classes());
        assert!(
            violations
                .iter()
                .any(|v| v.rule == "call-while-locked" && v.function == "dispatch_under_lock"),
            "call-while-locked not flagged: {violations:?}"
        );
    }

    #[test]
    fn scoped_and_dropped_guards_are_not_flagged() {
        let src = r#"
            fn scoped(&self) {
                {
                    let mut domain = entry.domain.lock();
                    domain.touch();
                }
                self.pump(&mut outbox, &mut effects);
            }
            fn dropped(&self) {
                let domain = entry.domain.lock();
                drop(domain);
                let other = peer.domain.lock();
                other.touch();
            }
        "#;
        let violations = scan_source("inline.rs", src, domain_classes());
        assert!(violations.is_empty(), "false positives: {violations:?}");
    }

    #[test]
    fn statement_temporaries_are_instantaneous() {
        let src = r#"
            fn temp(&self) {
                let live = self.entry(task).domain.lock().live_children;
                self.pump(&mut outbox, &mut effects);
            }
        "#;
        let violations = scan_source("inline.rs", src, domain_classes());
        assert!(violations.is_empty(), "temporary treated as guard: {violations:?}");
    }

    #[test]
    fn braces_inside_strings_do_not_corrupt_scopes() {
        let src = r#"
            fn strings(&self) {
                let mut domain = entry.domain.lock();
                assert!(ok, "unbalanced {braces} in format {strings:?}");
                let again = entry.domain.lock();
            }
        "#;
        let violations = scan_source("inline.rs", src, domain_classes());
        assert!(
            violations.iter().any(|v| v.rule == "nested-lock"),
            "string braces broke scope tracking: {violations:?}"
        );
    }

    #[test]
    fn park_is_a_leaf_lock_but_notifies_are_allowed() {
        let clean = r#"
            fn notify_one(&self) {
                let _park = self.park.lock();
                self.domains[d].condvar.notify_one();
            }
        "#;
        assert!(scan_source("sleep.rs", clean, sleep_classes()).is_empty());

        let dirty = r#"
            fn nested(&self) {
                let _park = self.park.lock();
                let stripe = self.table[0].lock();
            }
        "#;
        let violations = scan_source("sleep.rs", dirty, sleep_classes());
        assert!(
            violations.iter().any(|v| v.rule == "leaf-lock"),
            "leaf-lock not flagged: {violations:?}"
        );
    }

    #[test]
    fn free_list_and_domain_are_leaves_that_never_nest() {
        let clean = r#"
            fn drain(&self) {
                {
                    let domain = entry.domain.lock();
                    domain.retired.push(id);
                }
                self.recycle(&effects.retired);
                let mut ids = list.ids.lock();
                ids.push(id);
            }
        "#;
        assert!(scan_source("engine.rs", clean, domain_classes()).is_empty());

        let nested = r#"
            fn retire(&self) {
                let domain = entry.domain.lock();
                let mut ids = list.ids.lock();
                ids.push(id);
            }
            fn file_under_lock(&self) {
                let domain = entry.domain.lock();
                self.recycle(&retired);
            }
        "#;
        let violations = scan_source("engine.rs", nested, domain_classes());
        assert!(
            violations.iter().any(|v| v.rule == "leaf-lock" && v.function == "retire"),
            "a free list taken under a domain guard not flagged: {violations:?}"
        );
        assert!(
            violations
                .iter()
                .any(|v| v.rule == "call-while-locked" && v.function == "file_under_lock"),
            "filing ids under a domain guard not flagged: {violations:?}"
        );

        let dirty = r#"
            fn reserve(&self) {
                let mut ids = list.ids.lock();
                let domain = entry.domain.lock();
            }
        "#;
        let violations = scan_source("engine.rs", dirty, domain_classes());
        assert!(
            violations.iter().any(|v| v.rule == "leaf-lock" && v.function == "reserve"),
            "domain lock under a free-list guard not flagged: {violations:?}"
        );
    }

    #[test]
    fn registry_is_leaf_and_notify_free() {
        let registry_classes = classes_for(&PathBuf::from("runtime.rs"));
        let clean = r#"
            fn retire(&self) {
                let registry = inner.jobs.lock();
                let others: Vec<_> = registry.values().cloned().collect();
                drop(registry);
                for other in others {
                    other.gate.notify();
                }
            }
        "#;
        assert!(scan_source("runtime.rs", clean, registry_classes).is_empty());

        let dirty = r#"
            fn notify_under_registry(&self) {
                let registry = inner.jobs.lock();
                for other in registry.values() {
                    other.gate.notify();
                }
            }
        "#;
        let violations = scan_source("runtime.rs", dirty, registry_classes);
        assert!(
            violations.iter().any(|v| v.rule == "call-while-locked"),
            "notify under the registry guard not flagged: {violations:?}"
        );
    }

    #[test]
    fn return_bin_fixture_is_flagged() {
        let src = include_str!("../fixtures/return_bin_under_lock.rs");
        let path = PathBuf::from("return_bin_under_lock.rs");
        let violations = scan_source("return_bin_under_lock.rs", src, classes_for(&path));
        for function in ["registry_under_bin", "bin_under_domain"] {
            assert!(
                violations.iter().any(|v| v.rule == "leaf-lock" && v.function == function),
                "{function} not flagged: {violations:?}"
            );
        }
        assert!(
            violations
                .iter()
                .any(|v| v.rule == "call-while-locked" && v.function == "dispatch_under_bin"),
            "a dispatch under a return-bin guard not flagged: {violations:?}"
        );
        let clean = r#"
            fn put(&self, batch: &mut Vec<Box<TaskRecord>>, timers: &PhaseTimers) {
                timers.add(RECORDS_RETURNED, batch.len() as u64);
                let mut parked = self.parked.lock();
                parked.append(batch);
                self.len.store(parked.len(), Relaxed);
            }
        "#;
        assert!(scan_source("runtime.rs", clean, classes_for(&PathBuf::from("runtime.rs")))
            .is_empty());
    }

    #[test]
    fn fair_queue_and_gate_classes_resolve_and_flag() {
        let fair_classes = classes_for(&PathBuf::from("crates/threadpool/src/lib.rs"));
        assert_eq!(fair_classes.len(), 1, "threadpool lib.rs must get the fair-queue class");
        let dirty = r#"
            fn push_and_wake(&self) {
                let mut inner = self.fair.lock();
                inner.queues.push_back(job);
                self.sleep.notify_one(None);
            }
        "#;
        let violations = scan_source("lib.rs", dirty, fair_classes);
        assert!(
            violations.iter().any(|v| v.rule == "call-while-locked"),
            "wake under the fair-queue guard not flagged: {violations:?}"
        );

        assert_eq!(sleep_classes().len(), 2, "sleep.rs must get the park + gate classes");
        let clean = r#"
            fn notify(&self) {
                let _guard = self.mutex.lock();
                self.condvar.notify_all();
            }
        "#;
        assert!(
            scan_source("sleep.rs", clean, sleep_classes()).is_empty(),
            "the gate's condvar notify under its own mutex must stay allowed"
        );
        let dirty = r#"
            fn work_under_registry(&self) {
                let registry = inner.jobs.lock();
                worker.work_until(done);
            }
        "#;
        let violations =
            scan_source("runtime.rs", dirty, classes_for(&PathBuf::from("runtime.rs")));
        assert!(
            violations.iter().any(|v| v.rule == "call-while-locked"),
            "the idle loop under the registry guard not flagged: {violations:?}"
        );
    }

    #[test]
    fn watchdog_state_is_leaf_but_its_condvar_protocol_is_allowed() {
        let watchdog_classes = classes_for(&PathBuf::from("crates/threadpool/src/watchdog.rs"));
        assert_eq!(watchdog_classes.len(), 1, "watchdog.rs must get the watchdog class");
        // The real sleep loop shape: condvar wait/notify under the state mutex is the
        // protocol, not a violation.
        let clean = r#"
            fn sleep_loop(&self) {
                let mut state = shared.state.lock();
                if state.epoch != epoch {
                    return;
                }
                let _ = shared.condvar.wait_until(&mut state, deadline);
                shared.condvar.notify_all();
            }
        "#;
        assert!(
            scan_source("watchdog.rs", clean, watchdog_classes).is_empty(),
            "the watchdog condvar protocol under its own mutex must stay allowed"
        );

        let dirty = r#"
            fn tick_under_lock(&self) {
                let mut state = shared.state.lock();
                let jobs = inner.jobs.lock();
            }
        "#;
        let violations = scan_source("watchdog.rs", dirty, watchdog_classes);
        assert!(
            violations.iter().any(|v| v.rule == "leaf-lock"),
            "a lock taken under the watchdog state mutex must be flagged: {violations:?}"
        );
    }

    #[test]
    fn assist_registry_is_leaf_and_runs_no_chunk_under_the_lock() {
        let assist_classes = classes_for(&PathBuf::from("crates/threadpool/src/assist.rs"));
        assert_eq!(assist_classes.len(), 2, "assist.rs must get the registry + poison classes");
        // The real shapes: publish/retire/select only mutate the Vec; the poison slot only
        // stores the payload. The publish wake happens in the caller, after release.
        let clean = r#"
            fn publish(&self) {
                let mut inner = self.loops.lock();
                inner.loops.push(desc);
                self.active.fetch_add(1, Ordering::Release);
            }
            fn run_chunk(&self) {
                if let Err(payload) = result {
                    let mut poison = self.poison.lock();
                    if poison.is_none() {
                        *poison = Some(payload);
                    }
                }
                self.completed.fetch_add(1, Ordering::Release);
            }
        "#;
        assert!(
            scan_source("assist.rs", clean, assist_classes).is_empty(),
            "the real publish/poison shapes must stay clean"
        );

        let dirty = r#"
            fn wake_under_registry(&self) {
                let mut inner = self.loops.lock();
                inner.loops.push(desc);
                self.sleep.notify_many(workers, None);
            }
            fn chunk_under_registry(&self) {
                let mut inner = self.loops.lock();
                inner.loops[0].run_chunk(s, e);
            }
            fn poison_takes_a_lock(&self) {
                let mut poison = self.poison.lock();
                let inner = self.loops.lock();
            }
        "#;
        let violations = scan_source("assist.rs", dirty, assist_classes);
        assert!(
            violations
                .iter()
                .any(|v| v.rule == "call-while-locked" && v.function == "wake_under_registry"),
            "wake under the registry guard not flagged: {violations:?}"
        );
        assert!(
            violations
                .iter()
                .any(|v| v.rule == "call-while-locked" && v.function == "chunk_under_registry"),
            "chunk execution under the registry guard not flagged: {violations:?}"
        );
        assert!(
            violations.iter().any(|v| v.rule == "leaf-lock" && v.function == "poison_takes_a_lock"),
            "a lock taken under the poison guard must be flagged: {violations:?}"
        );
    }

    #[test]
    fn allowlist_key_format() {
        let v = Violation {
            file: "engine.rs".into(),
            line: 10,
            function: "pump".into(),
            rule: "nested-lock",
            detail: String::new(),
        };
        assert_eq!(v.key(), "engine.rs:pump:nested-lock");
    }
}
