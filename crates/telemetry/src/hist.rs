//! Log-linear (HDR-style) histogram over `u64` values.
//!
//! The bucketing is [`qvisor_sim::LogBuckets`] at [`SUB_BITS`] — unit
//! buckets below 2^SUB_BITS, then 2^SUB_BITS linear sub-buckets per
//! power-of-two range, so the relative quantile error is bounded by
//! `2^-SUB_BITS` (~3.1%) and the absolute error by one bucket width: good
//! enough to report latency percentiles. Around it this type keeps what
//! buckets cannot: the exact sum, minimum and maximum.

use qvisor_sim::json::Value;
use qvisor_sim::LogBuckets;

/// Sub-bucket resolution: each power-of-two range has `2^SUB_BITS` buckets.
pub const SUB_BITS: u32 = 5;

/// A log-bucketed histogram with bounded relative error.
#[derive(Clone, Debug)]
pub struct LogHistogram {
    buckets: LogBuckets<SUB_BITS>,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// One occupied bucket: the closed value range `[lo, hi]` and its count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Bucket {
    /// Smallest value mapping to this bucket.
    pub lo: u64,
    /// Largest value mapping to this bucket.
    pub hi: u64,
    /// Recorded values in the range.
    pub count: u64,
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram {
            buckets: LogBuckets::reserved(),
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets.record(v);
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.count()
    }

    /// Exact smallest recorded value (`None` if empty).
    pub fn min(&self) -> Option<u64> {
        (!self.buckets.is_empty()).then_some(self.min)
    }

    /// Exact largest recorded value (`None` if empty).
    pub fn max(&self) -> Option<u64> {
        (!self.buckets.is_empty()).then_some(self.max)
    }

    /// Exact arithmetic mean (`None` if empty).
    pub fn mean(&self) -> Option<f64> {
        (!self.buckets.is_empty()).then(|| self.sum as f64 / self.count() as f64)
    }

    /// Nearest-rank `p`-quantile estimate (`p` in `[0, 1]`; `None` if
    /// empty). Returns the upper bound of the bucket holding the target
    /// rank, clamped to the exact observed maximum — so the estimate is
    /// never below the true quantile and overshoots by at most one bucket
    /// width.
    pub fn quantile(&self, p: f64) -> Option<u64> {
        self.buckets.quantile(p).map(|hi| hi.min(self.max))
    }

    /// Occupied buckets in ascending value order.
    pub fn buckets(&self) -> Vec<Bucket> {
        (self.buckets.occupied())
            .map(|(lo, hi, count)| Bucket { lo, hi, count })
            .collect()
    }

    /// The telemetry export's `histogram` line for this histogram under
    /// `name` and `labels`.
    pub fn export_line(&self, name: &str, labels: Value) -> Value {
        let buckets: Vec<Value> = (self.buckets().iter())
            .map(|b| Value::from(vec![b.lo.into(), b.hi.into(), b.count.into()]))
            .collect();
        Value::object()
            .set("type", "histogram")
            .set("name", name)
            .set("labels", labels)
            .set("count", self.count())
            .set("min", self.min())
            .set("max", self.max())
            .set("mean", self.mean())
            .set("p50", self.quantile(0.50))
            .set("p90", self.quantile(0.90))
            .set("p99", self.quantile(0.99))
            .set("buckets", Value::from(buckets))
    }

    /// Reset to empty.
    pub fn clear(&mut self) {
        self.buckets.clear();
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        for b in h.buckets() {
            assert_eq!(b.lo, b.hi, "unit bucket expected below 2^SUB_BITS");
            assert_eq!(b.count, 1);
        }
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(1.0), Some(31));
    }

    #[test]
    fn mean_min_max_are_exact() {
        let mut h = LogHistogram::new();
        for v in [10u64, 20, 30, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), Some(10));
        assert_eq!(h.max(), Some(1000));
        assert!((h.mean().unwrap() - 265.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_error_is_bounded_by_bucket_width() {
        // Deterministic pseudo-random sample with a heavy tail; compare
        // against the exact sorted quantiles.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let values: Vec<u64> = (0..50_000).map(|_| next() % 10_000_000).collect();
        let mut h = LogHistogram::new();
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for &v in &values {
            h.record(v);
        }
        for p in [0.01, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((p * sorted.len() as f64).ceil() as usize).max(1) - 1;
            let exact = sorted[rank];
            let est = h.quantile(p).unwrap();
            let width = LogBuckets::<SUB_BITS>::bucket_width(exact);
            assert!(
                est >= exact && est - exact <= width,
                "p={p}: est {est} vs exact {exact}, width {width}"
            );
        }
    }

    #[test]
    fn prop_quantile_lands_in_true_quantiles_bucket() {
        // Property: for any input stream, the quantile estimate falls
        // within the bounds of the bucket that contains the true
        // (nearest-rank) quantile. Exercised over many randomized streams
        // spanning dense small values, wide uniforms, exponential tails,
        // and power-of-two spikes.
        use qvisor_sim::rng::SimRng;
        let root = SimRng::seed_from(0x5eed_0123);
        for case in 0..48u64 {
            let mut rng = root.derive(case);
            let n = 1 + rng.below(3_000) as usize;
            let values: Vec<u64> = (0..n)
                .map(|_| match case % 4 {
                    0 => rng.below(100),
                    1 => rng.below(1_000_000_000_000),
                    2 => rng.exponential(50_000.0) as u64,
                    _ => 1u64 << rng.below(50),
                })
                .collect();
            let mut h = LogHistogram::new();
            let mut sorted = values.clone();
            sorted.sort_unstable();
            for &v in &values {
                h.record(v);
            }
            for p in [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
                let rank = ((p * n as f64).ceil() as usize).max(1) - 1;
                let exact = sorted[rank];
                let (lo, hi) = LogBuckets::<SUB_BITS>::range(LogBuckets::<SUB_BITS>::index(exact));
                let est = h.quantile(p).unwrap();
                assert!(
                    est >= lo && est <= hi,
                    "case {case} n {n} p={p}: estimate {est} outside \
                     [{lo}, {hi}], the bucket of true quantile {exact}"
                );
                assert!(est >= exact, "estimate must never undershoot");
            }
        }
    }

    #[test]
    fn quantile_never_exceeds_observed_max() {
        let mut h = LogHistogram::new();
        h.record(1_000_003);
        assert_eq!(h.quantile(1.0), Some(1_000_003));
        assert_eq!(h.quantile(0.5), Some(1_000_003));
    }

    #[test]
    fn clear_resets() {
        let mut h = LogHistogram::new();
        h.record(7);
        h.clear();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), None);
    }
}
