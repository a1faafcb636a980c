//! The region-conflict **sentinel**: a shadow table of currently-executing tasks' declared
//! accesses, checked from `Runtime` dispatch.
//!
//! The paper's contract is that the runtime infers *all* synchronization from declared region
//! accesses — so two tasks may run concurrently **iff** their declared strong footprints do not
//! conflict (no writer overlap). The sentinel re-checks that contract at runtime, end-to-end:
//!
//! * **Start check** — when a task starts executing, its declared strong regions are compared
//!   against every other currently-running, non-ancestor task; a writer-overlapping pair means
//!   the dependency engine scheduled a race, and the sentinel panics naming both tasks and the
//!   overlapping region.
//! * **Access check** — `SharedSlice::read`/`write` consult the sentinel (via the core hooks)
//!   so a kernel touching bytes outside its *live* declared footprint — including bytes it
//!   released early via the `release` directive — panics with the offending task and range.
//!
//! Two exemptions keep the detector sound (no false positives):
//!
//! * **Ancestry** — a parent's body legitimately runs concurrently with its children, and the
//!   children's strong regions are (per the nesting model) sub-regions of what the parent
//!   declared or forwarded weakly. Tasks on one ancestor chain are never compared.
//! * **Weak entries** — `weakin`/`weakout`/`weakinout` declare what *descendants* may access,
//!   not what the task itself touches (§VI of the paper); they are excluded from both checks.
//!   (A weak-declaring task that touches the data directly is already rejected by
//!   `SharedSlice`'s strong-coverage assertion, sentinel or no sentinel.)
//!
//! The crate is wired in behind `weakdep_core`'s `sentinel` cargo feature and compiled out
//! otherwise; see `docs/correctness.md`.

#![forbid(unsafe_code)]

use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use weakdep_regions::Region;

/// One declared access of a task's footprint, as forwarded by the core hooks.
#[derive(Clone, Debug)]
pub struct DeclaredAccess {
    /// The declared region.
    pub region: Region,
    /// `true` for `out`/`inout` (and their weak variants): the task may write.
    pub write: bool,
    /// `true` for weak declarations — exempt from conflict/access checks (see crate docs).
    pub weak: bool,
}

/// Shadow-table entry for one live (created, not yet finished) task.
struct ShadowTask {
    /// The job (root domain) the task belongs to. Tasks of *different* jobs are independent
    /// trees with no dependency edges between them: concurrent overlap across jobs is legal by
    /// construction and never flagged.
    job: u64,
    label: &'static str,
    /// Strong declared regions the task may *read* (every strong region: writes imply reads
    /// for conflict purposes, and `inout` reads literally), sorted by `(space, start)`.
    reads: Vec<Region>,
    /// Strong declared regions the task may *write* (`out`/`inout` only), sorted likewise.
    writes: Vec<Region>,
    /// Every ancestor task key, root first. Ancestors are alive while this task is (children
    /// are spawned only from running bodies, and bodies outlive their children's creation).
    ancestors: Vec<u64>,
}

/// The shadow table's state, under the sentinel's one lock.
#[derive(Default)]
struct Shadow {
    /// Every live (created, not yet finished) task.
    tasks: HashMap<u64, ShadowTask>,
    /// Per job, the keys of its tasks between `task_started` and `task_finished`: a start is
    /// compared against these only, so it costs O(running tasks of its job), not O(live tasks).
    running: HashMap<u64, HashSet<u64>>,
}

/// The shadow table. One per `Runtime`; all methods take `&self` (internal mutex).
///
/// Keys are `TaskId`s packed as `generation << 32 | index` by the core hooks — unique for the
/// lifetime of the table even across id reuse.
pub struct Sentinel {
    shadow: Mutex<Shadow>,
}

impl Default for Sentinel {
    fn default() -> Self {
        Self::new()
    }
}

impl Sentinel {
    /// Creates an empty shadow table.
    pub fn new() -> Self {
        Sentinel {
            shadow: Mutex::new(Shadow::default()),
        }
    }

    /// Records a task at registration time (before it can run). `job` is the owning job's
    /// service-unique id (tasks are only ever compared within one job); `parent` is the
    /// spawning task's key, `None` for the root.
    pub fn task_created(
        &self,
        job: u64,
        key: u64,
        parent: Option<u64>,
        label: &'static str,
        footprint: impl IntoIterator<Item = DeclaredAccess>,
    ) {
        let (mut reads, mut writes) = (Vec::new(), Vec::new());
        for access in footprint {
            if access.weak {
                continue;
            }
            reads.push(access.region);
            if access.write {
                writes.push(access.region);
            }
        }
        reads.sort_unstable_by_key(|r| (r.space, r.start));
        writes.sort_unstable_by_key(|r| (r.space, r.start));
        let tasks = &mut self.shadow.lock().tasks;
        let ancestors = match parent {
            Some(p) => {
                let parent_entry = tasks
                    .get(&p)
                    .expect("sentinel: child registered under an unknown parent");
                let mut chain = parent_entry.ancestors.clone();
                chain.push(p);
                chain
            }
            None => Vec::new(),
        };
        let previous = tasks.insert(
            key,
            ShadowTask {
                job,
                label,
                reads,
                writes,
                ancestors,
            },
        );
        assert!(
            previous.is_none(),
            "sentinel: task key {key:#x} registered twice"
        );
    }

    /// Marks a task as executing and checks its strong footprint against every other running,
    /// non-ancestor-related task of its job (another job's tree is independent by
    /// construction, never compared). Panics on a writer-overlapping pair — the dependency
    /// engine scheduled a race.
    pub fn task_started(&self, key: u64) {
        let mut shadow = self.shadow.lock();
        let Shadow { tasks, running } = &mut *shadow;
        let ShadowTask {
            job,
            label,
            reads,
            writes,
            ancestors,
        } = tasks.get(&key).expect("sentinel: unknown task started");
        let running = running.entry(*job).or_default();
        for &other_key in running.iter() {
            let other = &tasks[&other_key];
            // One ancestor chain ⇒ legitimate concurrency (parent body vs child).
            if ancestors.contains(&other_key) || other.ancestors.contains(&key) {
                continue;
            }
            // Writer overlap in either direction. reads ⊇ writes, so this covers
            // write-write as well.
            for w in writes {
                if other.reads.iter().any(|r| r.intersects(w)) {
                    panic!(
                        "sentinel: region conflict — starting task '{label}' ({key:#x}) \
                         declares write {w:?} overlapping running task '{}' ({other_key:#x})",
                        other.label
                    );
                }
            }
            for w in &other.writes {
                if reads.iter().any(|r| r.intersects(w)) {
                    panic!(
                        "sentinel: region conflict — starting task '{label}' ({key:#x}) \
                         overlaps write {w:?} of running task '{}' ({other_key:#x})",
                        other.label
                    );
                }
            }
        }
        running.insert(key);
    }

    /// Removes a finished task from the running set and drops its entry.
    pub fn task_finished(&self, key: u64) {
        let mut shadow = self.shadow.lock();
        let removed = shadow
            .tasks
            .remove(&key)
            .expect("sentinel: unknown task finished");
        if let Some(running) = shadow.running.get_mut(&removed.job) {
            running.remove(&key);
            if running.is_empty() {
                shadow.running.remove(&removed.job);
            }
        }
    }

    /// Shrinks a task's live footprint after the `release` directive: the task asserted it
    /// will no longer access `region`, so later accesses inside it must panic.
    pub fn released(&self, key: u64, region: &Region) {
        if let Some(entry) = self.shadow.lock().tasks.get_mut(&key) {
            subtract(&mut entry.reads, region);
            subtract(&mut entry.writes, region);
        }
    }

    /// Validates a data access against the task's *live* strong footprint. Returns the
    /// violation message (for the caller to panic with, so the panic site is the access site)
    /// or `None` when covered.
    ///
    /// Unknown keys are ignored (`None`): the root task has no footprint entry restrictions
    /// in `SharedSlice` either — coverage is enforced there only for tasks with declared
    /// dependencies, and the core hooks only route declared tasks here.
    pub fn check_access(&self, key: u64, region: &Region, write: bool) -> Option<String> {
        let shadow = self.shadow.lock();
        let entry = shadow.tasks.get(&key)?;
        let covering = if write { &entry.writes } else { &entry.reads };
        if covers(covering, region) {
            return None;
        }
        let kind = if write { "write" } else { "read" };
        Some(format!(
            "sentinel: task '{}' ({key:#x}) {kind}s {region:?} outside its live declared \
             strong footprint (out-of-bounds access, or use after `release`)",
            entry.label
        ))
    }

    /// Number of live (created, unfinished) tasks — test hook.
    pub fn live_tasks(&self) -> usize {
        self.shadow.lock().tasks.len()
    }
}

/// Removes `cut` from every region of `set`, keeping the `(space, start)` order: each region is
/// replaced in place by its (zero to two) remaining pieces.
fn subtract(set: &mut Vec<Region>, cut: &Region) {
    let mut rest = Vec::with_capacity(set.len() + 1);
    for region in set.iter() {
        region.subtract_each(cut, |piece| rest.push(piece));
    }
    *set = rest;
}

/// `true` if the union of `set` (sorted by `(space, start)`) covers every coordinate of
/// `region`: one sweep that advances a cursor through the regions reaching it.
fn covers(set: &[Region], region: &Region) -> bool {
    let mut cursor = region.start;
    for r in set.iter().filter(|r| r.space == region.space) {
        if r.start <= cursor && cursor < r.end {
            cursor = r.end;
        }
    }
    cursor >= region.end
}

#[cfg(test)]
mod tests {
    use super::*;
    use weakdep_regions::SpaceId;

    fn region(start: usize, end: usize) -> Region {
        Region::new(SpaceId(1), start, end)
    }

    fn strong(start: usize, end: usize, write: bool) -> DeclaredAccess {
        DeclaredAccess {
            region: region(start, end),
            write,
            weak: false,
        }
    }

    fn weak(start: usize, end: usize, write: bool) -> DeclaredAccess {
        DeclaredAccess {
            region: region(start, end),
            write,
            weak: true,
        }
    }

    #[test]
    fn disjoint_writers_run_concurrently() {
        let s = Sentinel::new();
        s.task_created(0, 1, None, "a", [strong(0, 10, true)]);
        s.task_created(0, 2, None, "b", [strong(10, 20, true)]);
        s.task_started(1);
        s.task_started(2);
    }

    #[test]
    fn cross_job_overlapping_writers_never_conflict() {
        // Same footprint, different jobs: independent root domains, legal concurrency.
        let s = Sentinel::new();
        s.task_created(0, 1, None, "job0-w", [strong(0, 10, true)]);
        s.task_created(7, 2, None, "job7-w", [strong(0, 10, true)]);
        s.task_started(1);
        s.task_started(2);
    }

    #[test]
    fn concurrent_readers_are_fine() {
        let s = Sentinel::new();
        s.task_created(0, 1, None, "a", [strong(0, 10, false)]);
        s.task_created(0, 2, None, "b", [strong(0, 10, false)]);
        s.task_started(1);
        s.task_started(2);
    }

    #[test]
    #[should_panic(expected = "region conflict")]
    fn overlapping_writer_and_reader_panic() {
        let s = Sentinel::new();
        s.task_created(0, 1, None, "w", [strong(0, 10, true)]);
        s.task_created(0, 2, None, "r", [strong(5, 15, false)]);
        s.task_started(1);
        s.task_started(2);
    }

    #[test]
    #[should_panic(expected = "region conflict")]
    fn overlapping_writers_panic() {
        let s = Sentinel::new();
        s.task_created(0, 1, None, "a", [strong(0, 10, true)]);
        s.task_created(0, 2, None, "b", [strong(9, 12, true)]);
        s.task_started(1);
        s.task_started(2);
    }

    #[test]
    fn finished_tasks_do_not_conflict() {
        let s = Sentinel::new();
        s.task_created(0, 1, None, "a", [strong(0, 10, true)]);
        s.task_started(1);
        s.task_finished(1);
        s.task_created(0, 2, None, "b", [strong(0, 10, true)]);
        s.task_started(2);
        assert_eq!(s.live_tasks(), 1);
    }

    #[test]
    fn parent_and_child_may_overlap() {
        let s = Sentinel::new();
        s.task_created(0, 1, None, "parent", [strong(0, 100, true)]);
        s.task_started(1);
        s.task_created(0, 2, Some(1), "child", [strong(0, 50, true)]);
        s.task_started(2);
        // Grandchild vs grandparent, too.
        s.task_created(0, 3, Some(2), "grandchild", [strong(0, 25, true)]);
        s.task_started(3);
    }

    #[test]
    #[should_panic(expected = "region conflict")]
    fn siblings_conflict_even_under_common_parent() {
        let s = Sentinel::new();
        s.task_created(0, 1, None, "parent", [weak(0, 100, true)]);
        s.task_started(1);
        s.task_created(0, 2, Some(1), "sib-a", [strong(0, 50, true)]);
        s.task_created(0, 3, Some(1), "sib-b", [strong(40, 80, true)]);
        s.task_started(2);
        s.task_started(3);
    }

    #[test]
    fn weak_entries_never_conflict() {
        let s = Sentinel::new();
        s.task_created(0, 1, None, "outer-a", [weak(0, 100, true)]);
        s.task_created(0, 2, None, "outer-b", [weak(0, 100, true)]);
        s.task_started(1);
        s.task_started(2);
    }

    #[test]
    fn access_inside_footprint_is_covered() {
        let s = Sentinel::new();
        s.task_created(
            0,
            1,
            None,
            "t",
            [strong(0, 10, false), strong(20, 30, true)],
        );
        s.task_started(1);
        assert!(s.check_access(1, &region(2, 8), false).is_none());
        assert!(s.check_access(1, &region(20, 30), true).is_none());
        // Reading a write region is covered (inout semantics).
        assert!(s.check_access(1, &region(25, 28), false).is_none());
    }

    #[test]
    fn access_outside_footprint_is_flagged() {
        let s = Sentinel::new();
        s.task_created(0, 1, None, "t", [strong(0, 10, false)]);
        s.task_started(1);
        // Out of range.
        assert!(s.check_access(1, &region(5, 15), false).is_some());
        // Write through a read-only declaration.
        let msg = s.check_access(1, &region(0, 10), true).unwrap();
        assert!(msg.contains("'t'"), "message must name the task: {msg}");
    }

    #[test]
    fn release_shrinks_the_live_footprint() {
        let s = Sentinel::new();
        s.task_created(0, 1, None, "t", [strong(0, 30, true)]);
        s.task_started(1);
        assert!(s.check_access(1, &region(0, 30), true).is_none());
        s.released(1, &region(10, 20));
        assert!(s.check_access(1, &region(0, 10), true).is_none());
        assert!(s.check_access(1, &region(25, 30), true).is_none());
        let msg = s.check_access(1, &region(10, 20), false).unwrap();
        assert!(
            msg.contains("release"),
            "message should mention release: {msg}"
        );
    }

    #[test]
    fn unknown_task_access_is_ignored() {
        let s = Sentinel::new();
        assert!(s.check_access(99, &region(0, 10), true).is_none());
    }
}
