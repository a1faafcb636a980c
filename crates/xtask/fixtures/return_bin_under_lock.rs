//! Synthetic **violating** fixture for the lock-discipline lint (never compiled — scanned as
//! text by `crates/xtask/src/lint.rs`'s unit tests). Each function below breaks one rule of
//! the return bins' lock class from `docs/locking.md`.

/// Rule: a return bin is a leaf — only a batch's append or the move of the whole bin runs
/// under it, so no other lock may be taken while its guard is live.
fn registry_under_bin(&self, inner: &Inner, batch: &mut Vec<Box<TaskRecord>>) {
    let mut parked = inner.return_bins[0].parked.lock();
    parked.append(batch);
    let registry = inner.jobs.lock(); // <-- leaf-lock
    registry.len();
}

/// Rule: a return bin is never taken under a domain lock (the domain lock is a leaf).
fn bin_under_domain(&self, entry: &TaskEntry, inner: &Inner) {
    let domain = entry.domain.lock();
    let parked = inner.return_bins[0].parked.lock(); // <-- leaf-lock
    parked.len();
}

/// Rule: no scheduler dispatch while a return-bin guard is live.
fn dispatch_under_bin(&self, inner: &Inner, wctx: &WorkerContext) {
    let mut parked = inner.return_bins[0].parked.lock();
    wctx.dispatch_ready(parked.drain(..), false); // <-- call-while-locked
}
