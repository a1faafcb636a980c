//! Synthetic **violating** fixture for the lock-discipline lint (never compiled — scanned as
//! text by `crates/xtask/src/lint.rs`'s unit tests). The domain lock is a leaf and the jobs
//! registry takes no other lock (`docs/locking.md`); a home bin's lock is taken inside
//! `home_bin.rs` only, so the lint sees it here through the calls that take it. Each function
//! below makes one of them under a guard.

/// Rule: no bin is popped under a domain lock.
fn pop_under_domain(&self, entry: &TaskEntry, bin: &HomeBin<TaskId>) {
    let domain = entry.domain.lock();
    let id = bin.pop_one(); // <-- call-while-locked
}

/// Rule: no bin is filled under a domain lock.
fn extend_under_domain(&self, entry: &TaskEntry, bin: &HomeBin<TaskId>, ids: &[TaskId]) {
    let domain = entry.domain.lock();
    bin.extend_with(ids.iter().copied()); // <-- call-while-locked
}

/// Rule: no batch is handed to a bin under a domain lock.
fn append_under_domain(&self, entry: &TaskEntry, inner: &Inner, batch: &mut Vec<Box<TaskRecord>>) {
    let domain = entry.domain.lock();
    inner.return_bins[0].append_batch(batch); // <-- call-while-locked
}

/// Rule: no bin is taken in under a domain lock.
fn take_under_domain(&self, entry: &TaskEntry, inner: &Inner, spares: &mut Vec<Box<TaskRecord>>) {
    let domain = entry.domain.lock();
    inner.return_bins[0].take_all(spares); // <-- call-while-locked
}

/// Rule: no id is reserved under a domain lock (reserving pops a bin).
fn reserve_under_domain(&self, entry: &TaskEntry) {
    let mut domain = entry.domain.lock();
    let id = self.reserve_id(); // <-- call-while-locked
    domain.touch(id);
}

/// Rule: no id is filed under a domain lock (filing extends a bin).
fn recycle_under_domain(&self, entry: &TaskEntry, retired: &[TaskId]) {
    let domain = entry.domain.lock();
    self.recycle(retired); // <-- call-while-locked
}

/// Rule: no bin is taken in under the jobs registry.
fn take_under_registry(&self, inner: &Inner, spares: &mut Vec<Box<TaskRecord>>) {
    let jobs = inner.jobs.lock();
    inner.return_bins[0].take_all(spares); // <-- call-while-locked
}
