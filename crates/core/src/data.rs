//! Shared data objects that tasks declare dependencies over.
//!
//! The runtime reproduces a *runtime system*, not a compiler: there is no `#pragma` front-end
//! that could prove to `rustc` that two tasks touch disjoint data. Instead, data lives in a
//! [`SharedSlice`], tasks declare the regions they access, and the dependency engine guarantees
//! that conflicting declared accesses never execute concurrently. The accessors offered here
//! check (at run time) that every access is covered by a strong declared dependency of the
//! calling task, which is exactly the contract the paper places on the programmer: *"Any subtask
//! that may directly perform those actions needs to include the element in its depend clause in
//! the non-weak variant"* (§VI).

use std::cell::UnsafeCell;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use weakdep_regions::{Region, SpaceId};

use crate::runtime::TaskCtx;

/// Allocator of unique [`SpaceId`]s for shared data objects.
static NEXT_SPACE: AtomicU64 = AtomicU64::new(1);

fn fresh_space() -> SpaceId {
    SpaceId(NEXT_SPACE.fetch_add(1, Ordering::Relaxed))
}

struct SliceInner<T> {
    data: UnsafeCell<Box<[T]>>,
    space: SpaceId,
}

// SAFETY: concurrent access to the underlying buffer is coordinated by the dependency engine;
// the accessors below check that the calling task declared the ranges it touches, and the engine
// never runs two tasks with conflicting strong declarations at the same time.
unsafe impl<T: Send> Send for SliceInner<T> {}
unsafe impl<T: Send> Sync for SliceInner<T> {}

/// A shared, dependency-tracked array of `T`.
///
/// Cloning a `SharedSlice` is cheap (it clones an `Arc`); all clones refer to the same buffer and
/// the same [`SpaceId`].
///
/// # Access rules
///
/// * [`SharedSlice::read`] / [`SharedSlice::write`] are the in-task accessors: they verify that
///   the calling task declared a strong dependency covering the range (a write requires a
///   write-capable declaration) and panic otherwise. Given correct declarations, the dependency
///   engine serialises conflicting accesses, so the returned borrows never alias a concurrent
///   mutable access.
/// * [`SharedSlice::fill`], [`SharedSlice::init_with`], [`SharedSlice::snapshot`] and
///   [`SharedSlice::to_vec`] are whole-buffer helpers intended for use *outside* task execution
///   (before `Runtime::run` or after it returns).
pub struct SharedSlice<T> {
    inner: Arc<SliceInner<T>>,
}

impl<T> Clone for SharedSlice<T> {
    fn clone(&self) -> Self {
        SharedSlice {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> std::fmt::Debug for SharedSlice<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SharedSlice({}, len = {})", self.space(), self.len())
    }
}

impl<T> SharedSlice<T> {
    /// Creates a slice of `len` default-initialised elements.
    pub fn new(len: usize) -> Self
    where
        T: Default + Clone,
    {
        Self::filled(len, T::default())
    }

    /// Creates a slice of `len` copies of `value`.
    pub fn filled(len: usize, value: T) -> Self
    where
        T: Clone,
    {
        Self::from_vec(vec![value; len])
    }

    /// Wraps an existing vector.
    pub fn from_vec(data: Vec<T>) -> Self {
        SharedSlice {
            inner: Arc::new(SliceInner {
                data: UnsafeCell::new(data.into_boxed_slice()),
                space: fresh_space(),
            }),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        // SAFETY: reading the length through a shared reference never races: the box itself is
        // never replaced after construction.
        unsafe { (&*self.inner.data.get()).len() }
    }

    /// `true` if the slice holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The address space identifier used by this slice's regions.
    pub fn space(&self) -> SpaceId {
        self.inner.space
    }

    /// The dependency region covering the elements `range` (in element indices).
    ///
    /// Regions are expressed in bytes so that differently sized element types and the cache
    /// simulator agree on footprints.
    pub fn region(&self, range: Range<usize>) -> Region {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "region {range:?} out of bounds for slice of length {}",
            self.len()
        );
        let elem = std::mem::size_of::<T>().max(1);
        Region::new(self.inner.space, range.start * elem, range.end * elem)
    }

    /// The dependency region covering the whole slice.
    pub fn full_region(&self) -> Region {
        self.region(0..self.len())
    }

    /// Reads the elements `range` from within a task.
    ///
    /// # Cost
    /// The coverage check is O(declared entries) and allocates nothing when one strong entry
    /// contains `range` — the usual case, since a body accesses what it declared. Only a range
    /// that no single entry contains (e.g. one straddling two adjacent declared entries of
    /// different modes) builds the union of the qualifying entries. The check runs in release
    /// builds too, so a body that walks a declared range should borrow it once rather than
    /// once per element.
    ///
    /// # Panics
    /// Panics if the calling task did not declare a strong dependency covering `range`.
    pub fn read<'a>(&'a self, ctx: &TaskCtx<'_>, range: Range<usize>) -> &'a [T] {
        let region = self.region(range.clone());
        assert!(
            ctx.covers_read(&region),
            "task '{}' reads {:?} of {:?} without a covering strong dependency",
            ctx.label(),
            range,
            self
        );
        // Sentinel: additionally validate against the *live* footprint (declared minus
        // `release`d) — catches use-after-`release`, which the static assert above cannot.
        #[cfg(feature = "sentinel")]
        ctx.sentinel_check_access(&region, false);
        // SAFETY: the dependency engine orders this access after the writes it depends on and
        // before any conflicting write that depends on it.
        unsafe { &(&*self.inner.data.get())[range] }
    }

    /// Mutably accesses the elements `range` from within a task.
    ///
    /// # Cost
    /// As for [`SharedSlice::read`], counting only the write-capable strong entries: no
    /// allocation when one of them contains `range`, the union of them otherwise.
    ///
    /// # Panics
    /// Panics if the calling task did not declare a strong, write-capable dependency covering
    /// `range`.
    #[allow(clippy::mut_from_ref)]
    pub fn write<'a>(&'a self, ctx: &TaskCtx<'_>, range: Range<usize>) -> &'a mut [T] {
        let region = self.region(range.clone());
        assert!(
            ctx.covers_write(&region),
            "task '{}' writes {:?} of {:?} without a covering strong write dependency",
            ctx.label(),
            range,
            self
        );
        #[cfg(feature = "sentinel")]
        ctx.sentinel_check_access(&region, true);
        // SAFETY: as for `read`, plus exclusivity: two overlapping strong write declarations are
        // always ordered by the engine, so no other task holds a borrow of this range right now.
        unsafe { &mut (&mut *self.inner.data.get())[range] }
    }

    /// Reads the elements `range` without checking the calling task's declared footprint.
    ///
    /// # Safety
    /// The caller must guarantee that no conflicting write can happen concurrently — either
    /// through declared dependencies of the involved tasks or through explicit synchronisation
    /// such as a `taskwait` (this is how the paper's dependency-free `flat-taskwait` variant is
    /// expressed).
    pub unsafe fn slice_unchecked(&self, range: Range<usize>) -> &[T] {
        unsafe { &(&*self.inner.data.get())[range] }
    }

    /// Mutably accesses the elements `range` without checking the calling task's declared
    /// footprint.
    ///
    /// # Safety
    /// The caller must guarantee that no conflicting access can happen concurrently (see
    /// [`SharedSlice::slice_unchecked`]).
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut_unchecked(&self, range: Range<usize>) -> &mut [T] {
        unsafe { &mut (&mut *self.inner.data.get())[range] }
    }

    /// Creates a pre-validated **read** view over `range` for a work-assisted loop
    /// ([`TaskCtx::for_each`](crate::runtime::TaskCtx::for_each) /
    /// [`TaskCtx::scan`](crate::runtime::TaskCtx::scan)).
    ///
    /// The footprint and sentinel checks run **once, here**, against the *registering* task's
    /// declared strong dependencies — chunk bodies then index the view with plain bounds
    /// checks and no per-access region arithmetic (the ~0 allocs/chunk property). The view is
    /// `'static` (it holds the buffer's `Arc`), so it can be captured by the loop body and
    /// used from assisting workers that have no task context of their own.
    ///
    /// # Panics
    /// Panics if the calling task did not declare a strong dependency covering `range`.
    pub fn loop_view(&self, ctx: &TaskCtx<'_>, range: Range<usize>) -> LoopView<T>
    where
        T: Send + Sync,
    {
        let region = self.region(range.clone());
        assert!(
            ctx.covers_read(&region),
            "task '{}' registers a loop over {:?} of {:?} without a covering strong dependency",
            ctx.label(),
            range,
            self
        );
        #[cfg(feature = "sentinel")]
        ctx.sentinel_check_access(&region, false);
        LoopView {
            inner: Arc::clone(&self.inner),
            start: range.start,
            end: range.end,
        }
    }

    /// Creates a pre-validated **write** view over `range` for a work-assisted loop (see
    /// [`SharedSlice::loop_view`]).
    ///
    /// # Panics
    /// Panics if the calling task did not declare a strong, write-capable dependency covering
    /// `range`.
    pub fn loop_view_mut(&self, ctx: &TaskCtx<'_>, range: Range<usize>) -> LoopViewMut<T>
    where
        T: Send + Sync,
    {
        let region = self.region(range.clone());
        assert!(
            ctx.covers_write(&region),
            "task '{}' registers a loop writing {:?} of {:?} without a covering strong write \
             dependency",
            ctx.label(),
            range,
            self
        );
        #[cfg(feature = "sentinel")]
        ctx.sentinel_check_access(&region, true);
        LoopViewMut {
            inner: Arc::clone(&self.inner),
            start: range.start,
            end: range.end,
        }
    }

    /// Unchecked write view over the whole slice, for runtime-internal loop state (the scan
    /// carry buffer is a fresh, never-shared allocation that no task declared).
    pub(crate) fn loop_view_mut_unchecked(&self) -> LoopViewMut<T>
    where
        T: Send + Sync,
    {
        LoopViewMut {
            inner: Arc::clone(&self.inner),
            start: 0,
            end: self.len(),
        }
    }

    /// Fills the whole slice with `value`. Must only be called while no task is accessing the
    /// slice (e.g. before `Runtime::run`).
    pub fn fill(&self, value: T)
    where
        T: Clone,
    {
        // SAFETY: see doc contract — exclusive use outside task execution.
        let data = unsafe { &mut *self.inner.data.get() };
        for slot in data.iter_mut() {
            *slot = value.clone();
        }
    }

    /// Initialises every element from its index. Must only be called while no task is accessing
    /// the slice.
    pub fn init_with(&self, mut f: impl FnMut(usize) -> T) {
        // SAFETY: see doc contract.
        let data = unsafe { &mut *self.inner.data.get() };
        for (i, slot) in data.iter_mut().enumerate() {
            *slot = f(i);
        }
    }

    /// Copies the contents out. Must only be called while no task is accessing the slice.
    pub fn snapshot(&self) -> Vec<T>
    where
        T: Clone,
    {
        // SAFETY: see doc contract.
        unsafe { (&*self.inner.data.get()).to_vec() }
    }

    /// Alias of [`SharedSlice::snapshot`].
    pub fn to_vec(&self) -> Vec<T>
    where
        T: Clone,
    {
        self.snapshot()
    }
}

/// A read view for work-assisted loops: coverage was validated against the registering task
/// when the view was created (see [`SharedSlice::loop_view`]), so chunk bodies running on
/// assisting workers — which have no [`TaskCtx`] — access the data with plain bounds checks.
pub struct LoopView<T> {
    inner: Arc<SliceInner<T>>,
    start: usize,
    end: usize,
}

impl<T> Clone for LoopView<T> {
    fn clone(&self) -> Self {
        LoopView {
            inner: Arc::clone(&self.inner),
            start: self.start,
            end: self.end,
        }
    }
}

impl<T: Send + Sync> LoopView<T> {
    /// Elements covered by the view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` if the view covers no elements.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Reads the elements `range` (indices of the underlying slice, as handed to the chunk
    /// body — **not** view-relative).
    ///
    /// # Panics
    /// Panics if `range` is not contained in the view's registered range.
    pub fn get(&self, range: Range<usize>) -> &[T] {
        assert!(
            self.start <= range.start && range.start <= range.end && range.end <= self.end,
            "chunk read {range:?} outside the loop view's registered range {:?}",
            self.start..self.end
        );
        // SAFETY: the registering task declared a strong dependency covering the view (checked
        // at creation), the engine serialises conflicting tasks against it, and the owner does
        // not retire the loop (or the task) until every chunk completed — so for the view's
        // lifetime, loop chunks are the only accessors and shared reads never race a write.
        unsafe { &(&*self.inner.data.get())[range] }
    }
}

/// A write view for work-assisted loops (see [`SharedSlice::loop_view_mut`]).
///
/// # Contract
/// Chunks of a loop are disjoint by construction (the atomic cursor hands out each index
/// exactly once); a chunk body must only request ranges derived from **its own** chunk bounds
/// — that is the loop-structure analogue of the paper's depend-clause contract, and it is what
/// makes the concurrently returned `&mut` borrows non-aliasing.
pub struct LoopViewMut<T> {
    inner: Arc<SliceInner<T>>,
    start: usize,
    end: usize,
}

impl<T> Clone for LoopViewMut<T> {
    fn clone(&self) -> Self {
        LoopViewMut {
            inner: Arc::clone(&self.inner),
            start: self.start,
            end: self.end,
        }
    }
}

impl<T: Send + Sync> LoopViewMut<T> {
    /// Elements covered by the view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` if the view covers no elements.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Mutably accesses the elements `range` (indices of the underlying slice). Each chunk
    /// body must only pass ranges derived from its own chunk bounds (see the type-level
    /// contract).
    ///
    /// # Panics
    /// Panics if `range` is not contained in the view's registered range.
    #[allow(clippy::mut_from_ref)]
    pub fn chunk(&self, range: Range<usize>) -> &mut [T] {
        assert!(
            self.start <= range.start && range.start <= range.end && range.end <= self.end,
            "chunk write {range:?} outside the loop view's registered range {:?}",
            self.start..self.end
        );
        // SAFETY: as for `LoopView::get`, plus exclusivity: the atomic cursor hands out each
        // chunk exactly once and bodies only touch their own chunk's ranges (the documented
        // contract), so two live `&mut` borrows never overlap.
        unsafe { &mut (&mut *self.inner.data.get())[range] }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_byte_scaled_and_space_unique() {
        let a = SharedSlice::<f64>::new(100);
        let b = SharedSlice::<f64>::new(100);
        assert_ne!(a.space(), b.space());
        let r = a.region(10..20);
        assert_eq!(r.start, 80);
        assert_eq!(r.end, 160);
        assert_eq!(a.full_region().len(), 800);
        assert_eq!(a.len(), 100);
        assert!(!a.is_empty());
    }

    #[test]
    fn clone_shares_the_same_space() {
        let a = SharedSlice::<u32>::filled(8, 7);
        let b = a.clone();
        assert_eq!(a.space(), b.space());
        assert_eq!(b.snapshot(), vec![7; 8]);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_region_panics() {
        let a = SharedSlice::<u8>::new(10);
        let _ = a.region(5..20);
    }

    #[test]
    fn init_fill_snapshot_roundtrip() {
        let a = SharedSlice::<usize>::new(16);
        a.init_with(|i| i * 2);
        assert_eq!(a.snapshot()[5], 10);
        a.fill(3);
        assert_eq!(a.to_vec(), vec![3; 16]);
    }
}
