//! Deterministic fault injection (`--features faults`): a seeded [`FaultPlan`] attached to
//! [`RuntimeConfig`](crate::RuntimeConfig) that injects task-body panics, pre-body dispatch
//! delays and admission stalls at configurable rates.
//!
//! Every decision is a pure function of `(seed, job id, task ordinal)` — the ordinal is the
//! job-local registration index (root = 0, then 1, 2, … in registration order), hashed with
//! a splitmix64-style mixer. No RNG state, no clocks: given the same submission order of
//! jobs and the same spawn structure per job, the same tasks fault on every run, and the
//! chaos harness can *predict* the targeted set with [`FaultPlan::would_panic`] before
//! submitting anything. (Ordinals are deterministic as long as each job registers its tasks
//! from one thread at a time — all shipped kernels and the chaos shapes do.)
//!
//! Zero-cost when the feature is off: this module, the `TaskRecord` ordinal field and every
//! injection site are `#[cfg(feature = "faults")]`-gated; CI's default-feature `overheads
//! --enforce-alloc-budget` run holds that build to its allocs/task ceilings. See
//! `docs/robustness.md` for harness usage.

use std::time::Duration;

/// Salt separating the panic decision stream from the delay streams.
const SALT_PANIC: u64 = 0x9E37_79B9_7F4A_7C15;
const SALT_DELAY: u64 = 0xBF58_476D_1CE4_E5B9;
const SALT_ADMIT: u64 = 0x94D0_49BB_1331_11EB;

/// A seeded, reproducible fault-injection plan. All rates are probabilities in `[0, 1]`.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    panic_rate: f64,
    delay_rate: f64,
    delay: Duration,
    admission_stall_rate: f64,
    admission_stall: Duration,
}

impl FaultPlan {
    /// A plan with the given seed and no faults enabled; chain the rate builders.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Injects a panic into each task body with probability `rate` (decided per
    /// `(job, ordinal)`; the panic fires inside the worker's `catch_unwind`, so it flows
    /// through the exact production failure path).
    pub fn task_panic_rate(mut self, rate: f64) -> Self {
        self.panic_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sleeps `delay` immediately before each task body with probability `rate`
    /// (perturbs dispatch timing without changing outputs).
    pub fn pre_dispatch_delay(mut self, rate: f64, delay: Duration) -> Self {
        self.delay_rate = rate.clamp(0.0, 1.0);
        self.delay = delay;
        self
    }

    /// Stalls each job submission for `stall` with probability `rate` (decided per job id),
    /// before the admission probe — models a slow submitter under backpressure.
    pub fn admission_stall_rate(mut self, rate: f64, stall: Duration) -> Self {
        self.admission_stall_rate = rate.clamp(0.0, 1.0);
        self.admission_stall = stall;
        self
    }

    /// Whether the task with registration ordinal `ordinal` of job `job` gets an injected
    /// panic. Public so harnesses can compute the expected targeted set up front.
    pub fn would_panic(&self, job: u64, ordinal: u32) -> bool {
        decide(
            self.seed,
            SALT_PANIC,
            job,
            u64::from(ordinal),
            self.panic_rate,
        )
    }

    /// The pre-body delay for `(job, ordinal)`, if one is injected.
    pub(crate) fn dispatch_delay(&self, job: u64, ordinal: u32) -> Option<Duration> {
        decide(
            self.seed,
            SALT_DELAY,
            job,
            u64::from(ordinal),
            self.delay_rate,
        )
        .then_some(self.delay)
    }

    /// The submission stall for `job`, if one is injected.
    pub(crate) fn submission_stall(&self, job: u64) -> Option<Duration> {
        decide(self.seed, SALT_ADMIT, job, 0, self.admission_stall_rate)
            .then_some(self.admission_stall)
    }
}

/// One Bernoulli decision: hash `(seed, salt, job, ordinal)` to a unit float and compare.
fn decide(seed: u64, salt: u64, job: u64, ordinal: u64, rate: f64) -> bool {
    if rate <= 0.0 {
        return false;
    }
    let h = mix(seed ^ salt ^ job.wrapping_mul(0xA24B_AED4_963E_E407) ^ (ordinal << 32) ^ ordinal);
    // Top 53 bits → uniform in [0, 1).
    let unit = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    unit < rate
}

/// splitmix64 finalizer: a well-mixed 64-bit permutation.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::seeded(7).task_panic_rate(0.3);
        let b = FaultPlan::seeded(7).task_panic_rate(0.3);
        let c = FaultPlan::seeded(8).task_panic_rate(0.3);
        let hits_a: Vec<bool> = (0..256).map(|o| a.would_panic(3, o)).collect();
        let hits_b: Vec<bool> = (0..256).map(|o| b.would_panic(3, o)).collect();
        let hits_c: Vec<bool> = (0..256).map(|o| c.would_panic(3, o)).collect();
        assert_eq!(hits_a, hits_b, "same seed, same decisions");
        assert_ne!(
            hits_a, hits_c,
            "a different seed must reshuffle the targets"
        );
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let plan = FaultPlan::seeded(42).task_panic_rate(0.25);
        let hits = (0..64u64)
            .flat_map(|job| (0..64u32).map(move |o| (job, o)))
            .filter(|&(job, o)| plan.would_panic(job, o))
            .count();
        let total = 64 * 64;
        let observed = hits as f64 / total as f64;
        assert!(
            (observed - 0.25).abs() < 0.05,
            "panic rate {observed} too far from the configured 0.25"
        );
    }

    #[test]
    fn zero_and_one_rates_are_exact() {
        let never = FaultPlan::seeded(1);
        let always = FaultPlan::seeded(1).task_panic_rate(1.0);
        for o in 0..128 {
            assert!(!never.would_panic(9, o));
            assert!(always.would_panic(9, o));
        }
        assert_eq!(never.dispatch_delay(9, 0), None);
        assert_eq!(never.submission_stall(9), None);
    }

    #[test]
    fn streams_are_independent() {
        // The panic and delay decisions for the same (job, ordinal) must not be the same
        // bit — different salts give independent streams.
        let plan = FaultPlan::seeded(5)
            .task_panic_rate(0.5)
            .pre_dispatch_delay(0.5, Duration::from_micros(1));
        let mut differ = false;
        for o in 0..64 {
            if plan.would_panic(2, o) != plan.dispatch_delay(2, o).is_some() {
                differ = true;
                break;
            }
        }
        assert!(differ, "panic and delay streams must be decorrelated");
    }
}
