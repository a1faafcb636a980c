//! Work-assisting data parallelism: atomic-chunk loops under the stealing scheduler.
//!
//! Work stealing moves *tasks*; this module adds a second, cheaper mechanism underneath it
//! (following `Koenvisser/workassisting` and `miloravi/zero-overhead-parallel-scans`): a task
//! that reaches a data-parallel loop publishes a [`LoopDescriptor`] in the pool's
//! [`AssistRegistry`] and starts claiming chunks through an **atomic cursor**. Idle workers
//! that find no stealable task — after the successor slot, their own deque, the injector and
//! the steal pass have all come up empty — *assist* the loop by claiming chunks from the same
//! cursor, instead of parking. No task is spawned per chunk, no dependency is matched, no
//! allocation is made: the per-chunk cost is one CAS.
//!
//! Protocol (see `docs/parallel_loops.md`):
//!
//! * **claim**: `cursor.fetch_update(|c| (c < end).then(|| c + chunk))` — each success hands
//!   out one disjoint chunk; the cursor only ever moves forward, so chunks are handed out at
//!   most once.
//! * **complete**: after running a chunk, `completed.fetch_add(1, Release)` — the owner's
//!   quiescence wait reads it with `Acquire`, so every chunk's writes *happen-before* the
//!   owner continues past the loop.
//! * **close**: the owner slams the cursor to `end` (`fetch_max`), freezing the number of
//!   successful claims; it then waits for `completed` to reach that number. Claims and closes
//!   serialize on the cursor, so no chunk can be handed out after the owner computed its
//!   target — the descriptor is quiescent when the wait returns.
//! * **abort**: the claim path polls the registering job's abort probe at every chunk
//!   boundary, so a cancelled or deadline-overrun job stops issuing chunks mid-loop (the
//!   cooperative-cancel point the PR 9 follow-up asked for).
//!
//! The registering task's job identity rides the descriptor (`tenant`), so assist work is
//! attributed to the job that published the loop: per-job assist counters, fair-share
//! rotation over published loops, and sentinel footprint checks all key off the *registering*
//! task, not the assisting worker.

use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// The per-chunk runner: called once per claimed chunk with the chunk's `[start, end)` bounds.
/// State the chunks share (a scan's block offsets) is captured by the runner.
pub type ChunkRunner = dyn Fn(usize, usize) + Send + Sync;

/// The abort probe: polled at every chunk boundary; `true` stops the loop issuing chunks.
pub type AbortProbe = dyn Fn() -> bool + Send + Sync;

/// A published data-parallel loop: an atomic chunk cursor plus completion accounting.
///
/// The owner (the task that called `for_each`/`scan`) drives chunks itself; idle workers
/// assist through the pool's [`AssistRegistry`]. All coordination is lock-free — the only
/// lock on the descriptor guards the rarely-touched panic payload.
pub struct LoopDescriptor {
    start: usize,
    end: usize,
    chunk: usize,
    /// Next unclaimed index; advances by exactly `chunk` per successful claim.
    cursor: AtomicUsize,
    /// Chunks whose runner has returned (or unwound). `Release` on store, `Acquire` on the
    /// owner's quiescence read.
    completed: AtomicUsize,
    /// Job id of the registering task — assist work is attributed to this tenant.
    tenant: u64,
    /// Set by the first assisting worker (feeds the `assisted_loops` counter).
    assisted: AtomicBool,
    /// Chunks executed by assisting workers (not the owner); folded into the registering
    /// job's stats by the owner at retirement.
    assist_chunks: AtomicUsize,
    /// First panic payload unwound out of a chunk runner; re-raised by the owner after
    /// quiescence so a chunk panic flows through the job's normal containment path.
    poison: Mutex<Option<Box<dyn Any + Send>>>,
    runner: Box<ChunkRunner>,
    abort: Box<AbortProbe>,
}

impl LoopDescriptor {
    /// Creates a descriptor over `range` in chunks of `chunk` (clamped to ≥ 1), registered by
    /// job `tenant`.
    pub fn new<R, A>(range: Range<usize>, chunk: usize, tenant: u64, runner: R, abort: A) -> Self
    where
        R: Fn(usize, usize) + Send + Sync + 'static,
        A: Fn() -> bool + Send + Sync + 'static,
    {
        let chunk = chunk.max(1);
        LoopDescriptor {
            start: range.start,
            end: range.end.max(range.start),
            chunk,
            cursor: AtomicUsize::new(range.start),
            completed: AtomicUsize::new(0),
            tenant,
            assisted: AtomicBool::new(false),
            assist_chunks: AtomicUsize::new(0),
            poison: Mutex::new(None),
            runner: Box::new(runner),
            abort: Box::new(abort),
        }
    }

    /// Job id of the registering task.
    pub fn tenant(&self) -> u64 {
        self.tenant
    }

    /// Total chunks this loop hands out when it runs to completion.
    pub fn total_chunks(&self) -> usize {
        (self.end - self.start).div_ceil(self.chunk)
    }

    /// Claims the next chunk, or `None` when the range is exhausted, the loop was closed, or
    /// the registering job aborted (polled here — the chunk-boundary cancel point).
    pub fn claim(&self) -> Option<(usize, usize)> {
        if (self.abort)() {
            return None;
        }
        let prev = self
            .cursor
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |c| {
                (c < self.end).then(|| c + self.chunk)
            })
            .ok()?;
        Some((prev, (prev + self.chunk).min(self.end)))
    }

    /// Runs one claimed chunk, containing panics (stored as poison, re-raised by the owner)
    /// and counting completion. Every claimed chunk **must** be passed here exactly once.
    pub fn run_chunk(&self, chunk_start: usize, chunk_end: usize) {
        let result = catch_unwind(AssertUnwindSafe(|| {
            (self.runner)(chunk_start, chunk_end);
        }));
        if let Err(payload) = result {
            let mut poison = self.poison.lock();
            if poison.is_none() {
                *poison = Some(payload);
            }
        }
        self.completed.fetch_add(1, Ordering::Release);
    }

    /// Owner helper: claim and run chunks until the cursor is exhausted or the job aborts.
    pub fn drive(&self) {
        while let Some((s, e)) = self.claim() {
            self.run_chunk(s, e);
        }
    }

    /// Closes the loop (no further claims can succeed) and spins until every chunk claimed
    /// before the close has completed. On return the descriptor is quiescent: no chunk runner
    /// is executing or will ever execute again.
    pub fn wait_quiescent(&self) {
        // `fetch_max` serializes against the claim CAS: any claim that succeeded before the
        // close is reflected in `prev`, and none can succeed after.
        let prev = self.cursor.fetch_max(self.end, Ordering::AcqRel);
        let claimed = self.chunks_claimed_at(prev);
        let mut spins = 0u32;
        while self.completed.load(Ordering::Acquire) < claimed {
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Number of successful claims implied by a cursor value (each claim advances the cursor
    /// by exactly `chunk`; the final claim may overshoot `end` by less than one chunk).
    fn chunks_claimed_at(&self, cursor: usize) -> usize {
        let bounded = cursor.min(self.end).max(self.start);
        (bounded - self.start).div_ceil(self.chunk)
    }

    /// Whether every chunk has already been claimed (cheap pre-filter for assist selection).
    pub fn exhausted(&self) -> bool {
        self.cursor.load(Ordering::Relaxed) >= self.end
    }

    /// Records `n` chunks executed by an assisting worker.
    pub fn note_assist_chunks(&self, n: usize) {
        self.assist_chunks.fetch_add(n, Ordering::Relaxed);
    }

    /// Chunks executed by assisting workers so far (exact once quiescent).
    pub fn assist_chunk_count(&self) -> usize {
        self.assist_chunks.load(Ordering::Relaxed)
    }

    /// Marks the loop as assisted; `true` exactly once, for the first assisting worker.
    pub fn mark_assisted(&self) -> bool {
        !self.assisted.swap(true, Ordering::Relaxed)
    }

    /// Takes the first chunk-panic payload, if any chunk unwound. Owner-only, after
    /// [`LoopDescriptor::wait_quiescent`].
    pub fn take_poison(&self) -> Option<Box<dyn Any + Send>> {
        self.poison.lock().take()
    }
}

impl std::fmt::Debug for LoopDescriptor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoopDescriptor")
            .field("range", &(self.start..self.end))
            .field("chunk", &self.chunk)
            .field("cursor", &self.cursor.load(Ordering::Relaxed))
            .field("completed", &self.completed.load(Ordering::Relaxed))
            .field("tenant", &self.tenant)
            .finish()
    }
}

struct RegistryInner {
    loops: Vec<Arc<LoopDescriptor>>,
    /// Round-robin start offset so assists spread across loops (and therefore tenants)
    /// instead of piling onto the oldest published loop.
    rotation: usize,
}

/// The per-pool registry of in-progress loops idle workers may assist.
///
/// Lock-free fast path: `active` counts published loops, and the idle path's common case —
/// no loop in flight — is a single relaxed load. The `loops` mutex is a **leaf** lock
/// (class `assist-registry` in docs/locking.md): publish/retire/select only mutate the small
/// `Vec` under it; chunks are claimed and run strictly after release, and sleep-protocol
/// notifies happen outside it in the callers.
pub struct AssistRegistry {
    active: AtomicUsize,
    loops: Mutex<RegistryInner>,
}

impl Default for AssistRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl AssistRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        AssistRegistry {
            active: AtomicUsize::new(0),
            loops: Mutex::new(RegistryInner {
                loops: Vec::new(),
                rotation: 0,
            }),
        }
    }

    /// Number of currently published loops (the lock-free fast-path counter).
    pub fn active_loops(&self) -> usize {
        self.active.load(Ordering::Acquire)
    }

    /// Publishes an in-progress loop. The caller signals the sleep protocol *after* this
    /// returns — never while the registry lock is held — so parked workers are recruited
    /// through the existing epoch protocol.
    pub fn publish(&self, desc: Arc<LoopDescriptor>) {
        let mut inner = self.loops.lock();
        inner.loops.push(desc);
        // Under the lock so a selector that saw `active > 0` and then locks observes the push.
        self.active.fetch_add(1, Ordering::Release);
    }

    /// Removes a loop (owner-only, after quiescence). Returns whether it was still published.
    pub fn retire(&self, desc: &Arc<LoopDescriptor>) -> bool {
        let mut inner = self.loops.lock();
        let Some(pos) = inner.loops.iter().position(|d| Arc::ptr_eq(d, desc)) else {
            return false;
        };
        inner.loops.swap_remove(pos);
        self.active.fetch_sub(1, Ordering::Release);
        true
    }

    /// Picks a loop with unclaimed chunks for an idle worker, rotating the start point so
    /// concurrent loops — and therefore tenants — share assistance round-robin. Returns `None`
    /// without touching the lock when no loop is published.
    pub fn select(&self) -> Option<Arc<LoopDescriptor>> {
        if self.active.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut inner = self.loops.lock();
        let len = inner.loops.len();
        if len == 0 {
            return None;
        }
        let start = inner.rotation % len;
        inner.rotation = inner.rotation.wrapping_add(1);
        (0..len)
            .map(|offset| &inner.loops[(start + offset) % len])
            .find(|candidate| !candidate.exhausted())
            .cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counting_descriptor(
        range: Range<usize>,
        chunk: usize,
    ) -> (Arc<LoopDescriptor>, Arc<AtomicUsize>) {
        let sum = Arc::new(AtomicUsize::new(0));
        let s = Arc::clone(&sum);
        let desc = Arc::new(LoopDescriptor::new(
            range,
            chunk,
            7,
            move |start, end| {
                s.fetch_add(end - start, Ordering::Relaxed);
            },
            || false,
        ));
        (desc, sum)
    }

    #[test]
    fn chunks_cover_the_range_exactly_once() {
        let (desc, sum) = counting_descriptor(3..103, 8);
        assert_eq!(desc.total_chunks(), 13);
        desc.drive();
        desc.wait_quiescent();
        assert_eq!(sum.load(Ordering::Relaxed), 100);
        assert!(desc.exhausted());
        assert!(desc.claim().is_none(), "a quiescent loop hands out nothing");
    }

    #[test]
    fn empty_and_degenerate_ranges() {
        let (desc, sum) = counting_descriptor(5..5, 4);
        assert_eq!(desc.total_chunks(), 0);
        desc.drive();
        desc.wait_quiescent();
        assert_eq!(sum.load(Ordering::Relaxed), 0);
        // chunk = 0 clamps to 1 instead of looping forever.
        let (desc, sum) = counting_descriptor(0..3, 0);
        desc.drive();
        desc.wait_quiescent();
        assert_eq!(sum.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn concurrent_claims_are_disjoint_and_complete() {
        let hits = Arc::new(Mutex::new(vec![0u8; 10_000]));
        let h = Arc::clone(&hits);
        let desc = Arc::new(LoopDescriptor::new(
            0..10_000,
            16,
            1,
            move |s, e| {
                let mut guard = h.lock();
                for i in s..e {
                    guard[i] += 1;
                }
            },
            || false,
        ));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let d = Arc::clone(&desc);
                std::thread::spawn(move || d.drive())
            })
            .collect();
        desc.drive();
        for t in threads {
            t.join().unwrap();
        }
        desc.wait_quiescent();
        assert!(
            hits.lock().iter().all(|&c| c == 1),
            "every index exactly once"
        );
    }

    #[test]
    fn abort_probe_stops_claims_at_chunk_boundaries() {
        let stop = Arc::new(AtomicBool::new(false));
        let ran = Arc::new(AtomicUsize::new(0));
        let (s, r) = (Arc::clone(&stop), Arc::clone(&ran));
        let desc = LoopDescriptor::new(
            0..1000,
            10,
            1,
            move |_s, _e| {
                r.fetch_add(1, Ordering::Relaxed);
            },
            move || s.load(Ordering::Relaxed),
        );
        let (a, b) = desc.claim().unwrap();
        desc.run_chunk(a, b);
        stop.store(true, Ordering::Relaxed);
        assert!(
            desc.claim().is_none(),
            "abort is observed at the next chunk boundary"
        );
        desc.wait_quiescent();
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn chunk_panic_is_contained_and_handed_to_the_owner() {
        let desc = LoopDescriptor::new(
            0..4,
            1,
            1,
            |s, _e| {
                if s == 2 {
                    panic!("chunk 2 exploded");
                }
            },
            || false,
        );
        desc.drive();
        desc.wait_quiescent();
        let payload = desc.take_poison().expect("the panic must be captured");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"chunk 2 exploded"));
        assert!(desc.take_poison().is_none(), "poison is taken once");
    }

    #[test]
    fn registry_publish_select_retire_round_trip() {
        let registry = AssistRegistry::new();
        assert_eq!(registry.active_loops(), 0);
        assert!(registry.select().is_none(), "fast path: no lock, no loop");

        let (a, _) = counting_descriptor(0..100, 10);
        let (b, _) = counting_descriptor(0..100, 10);
        registry.publish(Arc::clone(&a));
        registry.publish(Arc::clone(&b));
        assert_eq!(registry.active_loops(), 2);

        // Rotation spreads selections across published loops.
        let first = registry.select().unwrap();
        let second = registry.select().unwrap();
        assert!(
            !Arc::ptr_eq(&first, &second),
            "rotation must not pin one loop"
        );

        assert!(registry.retire(&a));
        assert!(!registry.retire(&a), "double retire is a no-op");
        assert_eq!(registry.active_loops(), 1);
        assert!(registry.retire(&b));
        assert!(registry.select().is_none());
    }

    #[test]
    fn exhausted_loops_are_skipped_by_select() {
        let registry = AssistRegistry::new();
        let (done, _) = counting_descriptor(0..4, 4);
        registry.publish(Arc::clone(&done));
        done.drive();
        assert!(
            registry.select().is_none(),
            "a fully claimed loop attracts no assists"
        );
    }
}
