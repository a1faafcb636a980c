//! Admission control for multi-tenant submission: a blocking gate that holds new job
//! submissions back while the pool's live-task load sits above a budget.
//!
//! The budget is meant to be keyed off the capacity plateau the reclamation machinery already
//! maintains (the count of task ids minted plateaus at the live-task high-water mark): admitting
//! a new root graph while the live-task count exceeds the budget would push the plateau — and
//! therefore the ids and per-id capacity kept for reuse — higher for the rest of the process
//! lifetime. Refusing admission until in-flight work drains keeps the high-water
//! mark (and tail latency for already-admitted jobs) bounded.
//!
//! Blocked submitters wait on a [`Gate`] with the predicate "load below budget", re-signalled
//! by [`AdmissionGate::notify_release`] whenever load drops — one atomic load on the per-task
//! retire path while nobody is blocked. The load itself is read through a caller-provided
//! closure: the admission gate owns no counter of its own, only the budget and its statistics.

use crate::sleep::Gate;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Counters describing the admission traffic (all monotonically increasing except
/// `high_water`, which is a maximum).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Submissions admitted (immediately or after blocking).
    pub admitted: usize,
    /// Non-blocking probes ([`AdmissionGate::try_admit`]) refused because the load was at or
    /// above the budget.
    pub rejected: usize,
    /// Submissions that had to block at least once before being admitted.
    pub blocked: usize,
    /// Highest load observed at any admission decision.
    pub high_water: usize,
}

/// A blocking admission gate over an externally measured load (see the module docs).
pub struct AdmissionGate {
    budget: usize,
    gate: Gate,
    admitted: AtomicUsize,
    rejected: AtomicUsize,
    blocked: AtomicUsize,
    high_water: AtomicUsize,
}

impl AdmissionGate {
    /// Creates a gate admitting submissions while the measured load is **strictly below**
    /// `budget`. A budget of `usize::MAX` never blocks (the single-tenant configuration).
    pub fn new(budget: usize) -> Self {
        AdmissionGate {
            budget: budget.max(1),
            gate: Gate::new(),
            admitted: AtomicUsize::new(0),
            rejected: AtomicUsize::new(0),
            blocked: AtomicUsize::new(0),
            high_water: AtomicUsize::new(0),
        }
    }

    /// The configured live-task budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    fn record_load(&self, load: usize) {
        self.high_water.fetch_max(load, Relaxed);
    }

    /// Non-blocking probe: admits (and returns `true`) if `load` is below the budget, else
    /// counts a rejection and returns `false`.
    pub fn try_admit(&self, load: usize) -> bool {
        self.record_load(load);
        if load < self.budget {
            self.admitted.fetch_add(1, Relaxed);
            true
        } else {
            self.rejected.fetch_add(1, Relaxed);
            false
        }
    }

    /// Blocks until the measured load drops below the budget, then admits. `load` is re-read
    /// under the gate's mutex on every wake-up, so a release notification can neither be lost
    /// nor observed against a stale measurement.
    pub fn admit(&self, load: impl Fn() -> usize) {
        let below_budget = || {
            let now = load();
            self.record_load(now);
            now < self.budget
        };
        if !below_budget() {
            self.blocked.fetch_add(1, Relaxed);
            self.gate.wait_until(below_budget);
        }
        self.admitted.fetch_add(1, Relaxed);
    }

    /// Signals that the load may have dropped (e.g. tasks deeply completed). Cheap when nobody
    /// is waiting: one `SeqCst` load, no mutex.
    pub fn notify_release(&self) {
        self.gate.notify();
    }

    /// Snapshot of the admission counters.
    pub fn stats(&self) -> AdmissionStats {
        AdmissionStats {
            admitted: self.admitted.load(Relaxed),
            rejected: self.rejected.load(Relaxed),
            blocked: self.blocked.load(Relaxed),
            high_water: self.high_water.load(Relaxed),
        }
    }
}

// Real threads on real primitives; compiled out under `loom-model` like `sleep.rs`'s tests.
#[cfg(all(test, not(feature = "loom-model")))]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering::SeqCst;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn admits_below_budget_without_blocking() {
        let gate = AdmissionGate::new(4);
        assert!(gate.try_admit(0));
        assert!(gate.try_admit(3));
        assert!(!gate.try_admit(4));
        assert!(!gate.try_admit(100));
        let stats = gate.stats();
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.rejected, 2);
        assert_eq!(stats.blocked, 0);
        assert_eq!(stats.high_water, 100);
    }

    #[test]
    fn unlimited_budget_never_blocks() {
        let gate = AdmissionGate::new(usize::MAX);
        gate.admit(|| usize::MAX - 1);
        assert_eq!(gate.stats().blocked, 0);
    }

    #[test]
    fn blocked_admission_wakes_on_release() {
        let gate = Arc::new(AdmissionGate::new(2));
        let load = Arc::new(AtomicUsize::new(5));
        let (g, l) = (Arc::clone(&gate), Arc::clone(&load));
        let waiter = std::thread::spawn(move || {
            g.admit(|| l.load(SeqCst));
        });
        // Give the waiter time to park, then drain the load and notify.
        std::thread::sleep(Duration::from_millis(50));
        assert!(
            !waiter.is_finished(),
            "the waiter must block while load >= budget"
        );
        load.store(1, SeqCst);
        gate.notify_release();
        waiter.join().unwrap();
        let stats = gate.stats();
        assert_eq!(stats.admitted, 1);
        assert_eq!(stats.blocked, 1);
        assert_eq!(stats.high_water, 5);
    }

    #[test]
    fn notify_without_waiters_is_cheap_and_safe() {
        let gate = AdmissionGate::new(1);
        gate.notify_release();
        assert!(gate.try_admit(0));
    }
}
