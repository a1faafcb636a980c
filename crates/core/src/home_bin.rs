//! [`HomeBin`]: where items come back to the thread that reuses them — retired task ids to a
//! thread slot's free list ([`crate::DependencyEngine`]), finished task records to the worker
//! that spawned them (`docs/runtime.md`, "Task memory"). Each caller keeps its own rules on
//! how many items it moves at once and when a bin is too full to take more.

use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use parking_lot::Mutex;

/// A `Vec` under a mutex, padded to its own cache lines so that neighbouring bins do not share
/// one. **Leaf lock**: each operation holds it for one `Vec` operation (`docs/locking.md`).
#[repr(align(128))]
pub(crate) struct HomeBin<T> {
    /// `items.len()`, stored under the lock after every change, so that a check takes no lock.
    /// Relaxed: a stale read only skips a bin that just filled or locks one that just emptied.
    len: AtomicUsize,
    items: Mutex<Vec<T>>,
}

impl<T> Default for HomeBin<T> {
    fn default() -> Self {
        HomeBin {
            len: AtomicUsize::new(0),
            items: Mutex::new(Vec::new()),
        }
    }
}

impl<T> HomeBin<T> {
    pub(crate) fn len(&self) -> usize {
        self.len.load(Relaxed)
    }

    pub(crate) fn pop_one(&self) -> Option<T> {
        let mut items = self.items.lock();
        let item = items.pop();
        self.len.store(items.len(), Relaxed);
        item
    }

    /// Adds every item of `new`; the iterator runs under the lock, so it must only compute.
    pub(crate) fn extend_with(&self, new: impl IntoIterator<Item = T>) {
        let mut items = self.items.lock();
        items.extend(new);
        self.len.store(items.len(), Relaxed);
    }

    /// Moves every item of `batch` into the bin; `batch` keeps its capacity.
    pub(crate) fn append_batch(&self, batch: &mut Vec<T>) {
        let mut items = self.items.lock();
        items.append(batch);
        self.len.store(items.len(), Relaxed);
    }

    /// Moves every item to the end of `into` — by exchanging the vectors when `into` is empty,
    /// so that the bin keeps a buffer.
    pub(crate) fn take_all(&self, into: &mut Vec<T>) {
        let mut items = self.items.lock();
        if into.is_empty() {
            std::mem::swap(&mut *items, into);
        } else {
            into.append(&mut items);
        }
        self.len.store(0, Relaxed);
    }
}
