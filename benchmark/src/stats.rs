//! Order statistics over the samples of one run, and the seeded generator the inputs come from.

/// Linear-interpolation quantile (`q` in `[0, 1]`) of an ascending-sorted, non-empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The order statistics every printed row carries.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub p95: f64,
    pub p99: f64,
}

impl Summary {
    /// Summary of `samples` (any order). `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let q = |p| quantile_sorted(&sorted, p);
        Some(Summary {
            n: sorted.len(),
            q1: q(0.25),
            median: q(0.5),
            q3: q(0.75),
            p95: q(0.95),
            p99: q(0.99),
        })
    }
}

/// Median of `samples`; 0 when there are none (a metric that does not apply).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.median)
}

/// `num / den`, or 0 when the denominator is 0 (a metric that does not apply).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// SplitMix64: the benchmark's only source of randomness, so one `--seed` fixes every input.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile_sorted(&s, 0.0), 1.0);
        assert_eq!(quantile_sorted(&s, 0.5), 3.0);
        assert_eq!(quantile_sorted(&s, 1.0), 5.0);
        assert_eq!(quantile_sorted(&s, 0.25), 2.0);
        assert_eq!(quantile_sorted(&[10.0, 20.0], 0.75), 17.5);
        assert_eq!(quantile_sorted(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn summary_sorts_and_orders_its_quartiles() {
        let s = Summary::of(&[9.0, 1.0, 5.0, 3.0, 7.0]).unwrap();
        assert_eq!((s.n, s.q1, s.median, s.q3), (5, 3.0, 5.0, 7.0));
        assert!(s.q3 <= s.p95 && s.p95 <= s.p99 && s.p99 <= 9.0);
        assert_eq!(Summary::of(&[]), None);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }

    #[test]
    fn the_generator_is_a_function_of_its_seed() {
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed);
            let mut v: Vec<u32> = (0..16).collect();
            rng.shuffle(&mut v);
            v
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
        let mut sorted = draw(3);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<u32>>());
    }
}
