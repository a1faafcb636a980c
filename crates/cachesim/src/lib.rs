//! A per-worker cache model for the `weakdep` runtime.
//!
//! The bottom half of Figure 3 in the paper reports the *L2 data-cache miss ratio* measured with
//! hardware counters on a Cavium ThunderX. The effect the figure demonstrates is a **scheduling**
//! effect: when the runtime knows the fine-grained dependencies between inner tasks (the
//! `flat-depend` and `nest-weak*` variants), it dispatches a task's successor to the worker that
//! just produced its input, so the input blocks are still resident in that worker's cache.
//!
//! We cannot read PMU counters portably, so this crate substitutes a deterministic model: each
//! worker owns a set-associative LRU cache; every executed task streams its *declared strong
//! footprint* (the regions of its `depend` clause, which for the paper's kernels are exactly the
//! data it touches) through the cache of the worker that ran it. The resulting miss ratio is not
//! the ThunderX's, but it orders the runtime variants the same way, because it observes the same
//! (task → worker, footprint, order) schedule that the hardware did.
//!
//! [`CacheSimObserver`] implements [`weakdep_core::RuntimeObserver`]; register it with
//! `RuntimeConfig::observer`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::collections::HashMap;

use parking_lot::Mutex;
use weakdep_core::{RuntimeObserver, TaskExecution};
use weakdep_regions::Region;

/// Geometry of the simulated per-worker cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Cache line size in bytes.
    pub line_size: usize,
    /// Total capacity in bytes (per worker).
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub associativity: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        // Loosely modelled after the per-core share of the ThunderX's 16 MiB L2 across 48 cores,
        // rounded to a power of two: 256 KiB, 16-way, 128-byte lines (the ThunderX line size).
        CacheConfig {
            line_size: 128,
            size_bytes: 256 * 1024,
            associativity: 16,
        }
    }
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        (self.size_bytes / self.line_size / self.associativity).max(1)
    }
}

/// Hit/miss counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of line accesses that hit.
    pub hits: u64,
    /// Number of line accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]`; zero when no access was recorded.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Accumulates another counter into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

/// A single set-associative LRU cache.
#[derive(Debug)]
pub struct Cache {
    config: CacheConfig,
    /// `sets[set]` holds up to `associativity` line tags, most recently used last.
    sets: Vec<Vec<(u64, usize)>>,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        Cache {
            config,
            sets: vec![Vec::new(); config.sets()],
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accesses one line identified by `(space, line_index)`; returns `true` on a hit.
    pub fn access_line(&mut self, space: u64, line: usize) -> bool {
        let sets = self.sets.len();
        // Mix the space id into the index so different arrays do not all collide on set 0.
        let set_index = (line ^ (space as usize).wrapping_mul(0x9E37_79B9)) % sets;
        let set = &mut self.sets[set_index];
        if let Some(pos) = set.iter().position(|&tag| tag == (space, line)) {
            let tag = set.remove(pos);
            set.push(tag);
            self.stats.hits += 1;
            true
        } else {
            if set.len() == self.config.associativity {
                set.remove(0);
            }
            set.push((space, line));
            self.stats.misses += 1;
            false
        }
    }

    /// Streams every line of `region` through the cache.
    pub fn access_region(&mut self, region: &Region) {
        if region.is_empty() {
            return;
        }
        let first = region.start / self.config.line_size;
        let last = (region.end - 1) / self.config.line_size;
        for line in first..=last {
            self.access_line(region.space.0, line);
        }
    }

    /// The hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Clears contents and counters.
    pub fn reset(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
        self.stats = CacheStats::default();
    }
}

/// A runtime observer maintaining one [`Cache`] per worker and feeding it each executed task's
/// declared strong footprint.
pub struct CacheSimObserver {
    config: CacheConfig,
    caches: Mutex<HashMap<usize, Cache>>,
}

impl CacheSimObserver {
    /// Creates the observer with the given cache geometry.
    pub fn new(config: CacheConfig) -> Self {
        CacheSimObserver {
            config,
            caches: Mutex::new(HashMap::new()),
        }
    }

    /// Creates the observer with the default geometry, wrapped in an [`std::sync::Arc`].
    pub fn shared(config: CacheConfig) -> std::sync::Arc<Self> {
        std::sync::Arc::new(Self::new(config))
    }

    /// Global counters (sum over workers).
    pub fn total_stats(&self) -> CacheStats {
        let caches = self.caches.lock();
        let mut total = CacheStats::default();
        for cache in caches.values() {
            total.merge(&cache.stats());
        }
        total
    }

    /// Global miss ratio (the Figure 3 bottom-graph metric).
    pub fn miss_ratio(&self) -> f64 {
        self.total_stats().miss_ratio()
    }

    /// Per-worker counters, keyed by worker index.
    pub fn per_worker_stats(&self) -> HashMap<usize, CacheStats> {
        self.caches
            .lock()
            .iter()
            .map(|(&w, c)| (w, c.stats()))
            .collect()
    }

    /// Clears every worker's cache and counters (use between benchmark repetitions).
    pub fn reset(&self) {
        self.caches.lock().clear();
    }
}

impl RuntimeObserver for CacheSimObserver {
    fn task_executed(&self, execution: &TaskExecution<'_>) {
        let mut caches = self.caches.lock();
        let cache = caches
            .entry(execution.worker)
            .or_insert_with(|| Cache::new(self.config));
        for entry in execution.footprint {
            if entry.weak {
                // Weak declarations are not touched by the task itself (§VI).
                continue;
            }
            cache.access_region(&entry.region);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weakdep_regions::SpaceId;

    fn region(space: u64, start: usize, end: usize) -> Region {
        Region::new(SpaceId(space), start, end)
    }

    #[test]
    fn config_geometry() {
        let c = CacheConfig {
            line_size: 64,
            size_bytes: 64 * 1024,
            associativity: 8,
        };
        assert_eq!(c.sets(), 128);
        assert_eq!(CacheConfig::default().sets(), 128);
    }

    #[test]
    fn repeated_access_hits() {
        let mut cache = Cache::new(CacheConfig {
            line_size: 64,
            size_bytes: 4096,
            associativity: 4,
        });
        assert!(!cache.access_line(1, 0));
        assert!(cache.access_line(1, 0));
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
        assert!((cache.stats().miss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_is_in_recency_order() {
        // Single set with 2 ways: lines 0, N, 2N map to the same set when sets == 1.
        let mut cache = Cache::new(CacheConfig {
            line_size: 64,
            size_bytes: 128,
            associativity: 2,
        });
        assert_eq!(cache.config().sets(), 1);
        cache.access_line(1, 0); // miss
        cache.access_line(1, 1); // miss
        cache.access_line(1, 0); // hit, 0 becomes MRU
        cache.access_line(1, 2); // miss, evicts 1
        assert!(cache.access_line(1, 0), "line 0 must still be resident");
        assert!(!cache.access_line(1, 1), "line 1 must have been evicted");
    }

    #[test]
    fn region_streaming_counts_every_line_once() {
        let mut cache = Cache::new(CacheConfig {
            line_size: 64,
            size_bytes: 1 << 20,
            associativity: 16,
        });
        cache.access_region(&region(1, 0, 64 * 10));
        assert_eq!(cache.stats().accesses(), 10);
        assert_eq!(cache.stats().misses, 10);
        // Second pass over the same region: everything hits.
        cache.access_region(&region(1, 0, 64 * 10));
        assert_eq!(cache.stats().hits, 10);
        // A region that straddles line boundaries touches both lines.
        cache.reset();
        cache.access_region(&region(1, 32, 96));
        assert_eq!(cache.stats().accesses(), 2);
    }

    #[test]
    fn empty_region_is_ignored() {
        let mut cache = Cache::new(CacheConfig::default());
        cache.access_region(&region(1, 10, 10));
        assert_eq!(cache.stats().accesses(), 0);
        assert_eq!(cache.stats().miss_ratio(), 0.0);
    }

    #[test]
    fn different_spaces_do_not_alias() {
        let mut cache = Cache::new(CacheConfig {
            line_size: 64,
            size_bytes: 1 << 20,
            associativity: 16,
        });
        cache.access_line(1, 5);
        assert!(
            !cache.access_line(2, 5),
            "same line index in another space must miss"
        );
    }

    #[test]
    fn observer_tracks_per_worker_locality() {
        use std::time::Instant;
        use weakdep_core::FootprintEntry;
        use weakdep_core::TaskExecution;

        let sim = CacheSimObserver::new(CacheConfig {
            line_size: 64,
            size_bytes: 1 << 20,
            associativity: 16,
        });
        let footprint = [FootprintEntry {
            region: region(1, 0, 640),
            write: true,
            weak: false,
        }];
        let now = Instant::now();
        let exec = |worker| TaskExecution {
            id: weakdep_core::TaskId::synthetic(1),
            label: "k",
            worker,
            start: now,
            end: now,
            footprint: &footprint,
        };
        // Same worker twice: second execution hits.
        sim.task_executed(&exec(0));
        sim.task_executed(&exec(0));
        // Different worker: misses again (cold cache).
        sim.task_executed(&exec(1));
        let per_worker = sim.per_worker_stats();
        assert_eq!(per_worker[&0].hits, 10);
        assert_eq!(per_worker[&0].misses, 10);
        assert_eq!(per_worker[&1].misses, 10);
        assert!((sim.miss_ratio() - 20.0 / 30.0).abs() < 1e-12);
        sim.reset();
        assert_eq!(sim.total_stats().accesses(), 0);
    }

    #[test]
    fn weak_footprint_entries_are_skipped() {
        use std::time::Instant;
        use weakdep_core::FootprintEntry;
        let sim = CacheSimObserver::new(CacheConfig::default());
        let footprint = [FootprintEntry {
            region: region(1, 0, 1024),
            write: true,
            weak: true,
        }];
        let now = Instant::now();
        sim.task_executed(&weakdep_core::TaskExecution {
            id: weakdep_core::TaskId::synthetic(7),
            label: "outer",
            worker: 0,
            start: now,
            end: now,
            footprint: &footprint,
        });
        assert_eq!(sim.total_stats().accesses(), 0);
    }

    #[test]
    fn locality_scheduling_lowers_miss_ratio_end_to_end() {
        // Two runtimes execute the same chain of tasks over the same block; with one worker the
        // chain stays on one cache (hits), and the model must show a lower miss ratio than the
        // total number of accesses would suggest for cold caches.
        use weakdep_core::{Runtime, RuntimeConfig, SharedSlice};
        let sim = CacheSimObserver::shared(CacheConfig::default());
        let rt = Runtime::new(RuntimeConfig::new().workers(1).observer(sim.clone()));
        let data = SharedSlice::<f64>::new(4096);
        let d = data.clone();
        rt.run(move |ctx| {
            for _ in 0..10 {
                let d2 = d.clone();
                ctx.task()
                    .inout(d.region(0..4096))
                    .label("chain")
                    .spawn(move |c| {
                        let s = d2.write(c, 0..4096);
                        s[0] += 1.0;
                    });
            }
        });
        let stats = sim.total_stats();
        assert!(stats.accesses() > 0);
        assert!(
            stats.miss_ratio() < 0.2,
            "a dependency chain pinned to one worker must mostly hit, got {}",
            stats.miss_ratio()
        );
    }
}
