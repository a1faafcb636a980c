//! A lazily-spawned watchdog thread: periodically runs a caller-provided tick callback and
//! sleeps until the instant the callback asks for (or until poked).
//!
//! The runtime layers deadline enforcement and stall detection on top (see
//! `docs/robustness.md`): its tick callback scans the live jobs, aborts the overdue ones and
//! fingerprints per-job progress. This module only owns the thread lifecycle and the timed
//! sleep protocol, so the lock discipline stays checkable in isolation:
//!
//! * The `state` mutex is a **leaf** lock pairing with the watchdog's condvar (registered in
//!   `docs/locking.md` and enforced by `cargo run -p xtask -- lint-locks`). Held for: one
//!   directive/epoch read, one flag flip, or a condvar wait.
//! * The tick callback runs with **no** watchdog lock held — it is free to take the caller's
//!   own (leaf) locks, e.g. the runtime's jobs registry.
//! * Wake-ups cannot be lost: [`Watchdog::poke`] bumps an epoch under the mutex and the
//!   sleep loop re-checks the epoch it read *before* the tick callback ran, so a deadline
//!   registered while the callback was scanning forces an immediate re-tick instead of being
//!   slept past.

use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// What the tick callback wants the watchdog thread to do next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tick {
    /// Sleep until `0`'s instant (deadline of the nearest timed obligation), then tick again.
    SleepUntil(Instant),
    /// Nothing timed is pending: sleep until the next [`Watchdog::poke`].
    Idle,
}

#[derive(Default)]
struct WatchdogState {
    /// Bumped by every poke; the sleep loop re-ticks instead of sleeping when it changed
    /// while the tick callback ran.
    epoch: u64,
    shutdown: bool,
}

#[derive(Default)]
struct WatchdogShared {
    /// Leaf lock (see the module docs): pairs with `condvar`, held only for an epoch/flag
    /// access or a condvar wait. The tick callback never runs under it.
    state: Mutex<WatchdogState>,
    condvar: Condvar,
}

/// Handle owning the (lazily spawned) watchdog thread. See the module docs.
#[derive(Default)]
pub struct Watchdog {
    shared: Arc<WatchdogShared>,
    /// The thread handle, taken out by [`Watchdog::stop`]. Separate from `state` so joining
    /// never happens under the leaf lock.
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl Watchdog {
    /// Creates an idle watchdog; no thread is spawned until [`Watchdog::ensure_started`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Spawns the watchdog thread running `tick` if it is not already running (idempotent).
    /// The callback runs outside every watchdog lock; its returned [`Tick`] directs the next
    /// sleep. After [`Watchdog::stop`] the watchdog stays stopped — a dying service must not
    /// resurrect its own monitor.
    pub fn ensure_started<F>(&self, mut tick: F)
    where
        F: FnMut() -> Tick + Send + 'static,
    {
        let mut slot = self.thread.lock();
        if slot.is_some() || self.shared.state.lock().shutdown {
            return;
        }
        let shared = Arc::clone(&self.shared);
        let handle = std::thread::Builder::new()
            .name("weakdep-watchdog".to_string())
            .spawn(move || loop {
                let epoch = {
                    let state = shared.state.lock();
                    if state.shutdown {
                        return;
                    }
                    state.epoch
                };
                let directive = tick();
                let mut state = shared.state.lock();
                if state.shutdown {
                    return;
                }
                if state.epoch != epoch {
                    // Something was registered while the callback ran; re-tick so a new,
                    // earlier deadline cannot be slept past.
                    continue;
                }
                match directive {
                    Tick::SleepUntil(deadline) => {
                        let _ = shared.condvar.wait_until(&mut state, deadline);
                    }
                    Tick::Idle => shared.condvar.wait(&mut state),
                }
            })
            .expect("failed to spawn watchdog thread");
        *slot = Some(handle);
    }

    /// Whether the watchdog thread is currently running.
    pub fn is_running(&self) -> bool {
        self.thread.lock().is_some()
    }

    /// Wakes the watchdog for an immediate re-tick (e.g. a new deadline was registered).
    /// Cheap and safe when the thread is not running.
    pub fn poke(&self) {
        let mut state = self.shared.state.lock();
        state.epoch += 1;
        self.condvar_notify(&state);
    }

    fn condvar_notify(&self, _guard: &WatchdogState) {
        // Notifying under the mutex is the lost-wake-up defence: a sleeper between its
        // epoch check and its wait holds the mutex, so the notify cannot slip past it.
        self.shared.condvar.notify_all();
    }

    /// Stops and joins the watchdog thread (idempotent; a later [`Watchdog::ensure_started`]
    /// stays a no-op). Never called from the watchdog thread itself.
    pub fn stop(&self) {
        {
            let mut state = self.shared.state.lock();
            state.shutdown = true;
            self.condvar_notify(&state);
        }
        if let Some(handle) = self.thread.lock().take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
    use std::time::Duration;

    fn wait_for(pred: impl Fn() -> bool, timeout: Duration) -> bool {
        let start = Instant::now();
        while start.elapsed() < timeout {
            if pred() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        pred()
    }

    #[test]
    fn ticks_on_schedule_and_stops() {
        let ticks = Arc::new(AtomicUsize::new(0));
        let t = Arc::clone(&ticks);
        let dog = Watchdog::new();
        dog.ensure_started(move || {
            t.fetch_add(1, SeqCst);
            Tick::SleepUntil(Instant::now() + Duration::from_millis(5))
        });
        assert!(dog.is_running());
        assert!(wait_for(|| ticks.load(SeqCst) >= 3, Duration::from_secs(5)));
        dog.stop();
        let after = ticks.load(SeqCst);
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(
            ticks.load(SeqCst),
            after,
            "a stopped watchdog must not tick"
        );
        assert!(!dog.is_running());
    }

    #[test]
    fn idle_watchdog_ticks_only_when_poked() {
        let ticks = Arc::new(AtomicUsize::new(0));
        let t = Arc::clone(&ticks);
        let dog = Watchdog::new();
        dog.ensure_started(move || {
            t.fetch_add(1, SeqCst);
            Tick::Idle
        });
        assert!(wait_for(|| ticks.load(SeqCst) == 1, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(ticks.load(SeqCst), 1, "an idle watchdog must not spin");
        dog.poke();
        assert!(wait_for(|| ticks.load(SeqCst) >= 2, Duration::from_secs(5)));
    }

    #[test]
    fn ensure_started_is_idempotent_and_stop_is_final() {
        let ticks = Arc::new(AtomicUsize::new(0));
        let dog = Watchdog::new();
        for _ in 0..3 {
            let t = Arc::clone(&ticks);
            dog.ensure_started(move || {
                t.fetch_add(1, SeqCst);
                Tick::Idle
            });
        }
        assert!(wait_for(|| ticks.load(SeqCst) == 1, Duration::from_secs(5)));
        dog.poke();
        assert!(wait_for(|| ticks.load(SeqCst) == 2, Duration::from_secs(5)));
        dog.stop();
        dog.stop();
        let t = Arc::clone(&ticks);
        dog.ensure_started(move || {
            t.fetch_add(1, SeqCst);
            Tick::Idle
        });
        assert!(!dog.is_running(), "a stopped watchdog must not restart");
    }

    #[test]
    fn poke_during_tick_forces_a_retick() {
        // The callback blocks until poked once; the epoch recheck must then re-run the
        // callback instead of committing to the idle sleep.
        let ticks = Arc::new(AtomicUsize::new(0));
        let release = Arc::new(AtomicUsize::new(0));
        let (t, r) = (Arc::clone(&ticks), Arc::clone(&release));
        let dog = Watchdog::new();
        dog.ensure_started(move || {
            let tick = t.fetch_add(1, SeqCst);
            if tick == 0 {
                while r.load(SeqCst) == 0 {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            Tick::Idle
        });
        assert!(wait_for(|| ticks.load(SeqCst) == 1, Duration::from_secs(5)));
        dog.poke(); // lands while tick 0 is still inside the callback
        release.store(1, SeqCst);
        assert!(
            wait_for(|| ticks.load(SeqCst) >= 2, Duration::from_secs(5)),
            "a poke during the callback must trigger a re-tick"
        );
    }
}
