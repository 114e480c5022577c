//! Online statistics used by metric collectors and the runtime monitor.

/// Streaming mean/variance/min/max (Welford's algorithm).
#[derive(Clone, Debug, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> OnlineStats {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 for fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`None` if empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation (`None` if empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Merge another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Exact percentile collector: stores all samples, sorts on query.
///
/// Fine for per-run metric collection (hundreds of thousands of samples);
/// the *runtime* monitor uses [`Log2Histogram`]-style sketches instead.
#[derive(Clone, Debug, Default)]
pub struct PercentileCollector {
    samples: Vec<f64>,
    sorted: bool,
}

impl PercentileCollector {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one sample.
    pub fn record(&mut self, x: f64) {
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// The `p`-quantile (`p` in `[0, 1]`) by nearest-rank; `None` if empty.
    pub fn quantile(&mut self, p: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
            self.sorted = true;
        }
        let p = p.clamp(0.0, 1.0);
        let idx = ((self.samples.len() as f64 - 1.0) * p).round() as usize;
        Some(self.samples[idx])
    }

    /// Arithmetic mean; `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }
}

/// Power-of-two bucketed histogram over `u64` values (e.g. ranks).
///
/// Bucket `i` holds values whose bit length is `i` (bucket 0: value 0).
/// Cheap enough to sit on the data path of the runtime monitor.
#[derive(Clone, Debug)]
pub struct Log2Histogram {
    buckets: [u64; 65],
    count: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Log2Histogram {
            buckets: [0; 65],
            count: 0,
        }
    }

    fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Record a value.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Upper bound of the bucket containing the `p`-quantile
    /// (`p` in `[0,1]`); `None` if empty.
    pub fn quantile_bound(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = (p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let target = target.max(1);
        let mut acc = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            acc += c;
            if acc >= target {
                return Some(if i == 0 { 0 } else { (1u64 << i) - 1 });
            }
        }
        Some(u64::MAX)
    }

    /// Reset all buckets.
    pub fn clear(&mut self) {
        self.buckets = [0; 65];
        self.count = 0;
    }
}

/// Jain's fairness index over a set of allocations: `(Σx)² / (n·Σx²)`.
///
/// 1.0 = perfectly fair; `1/n` = one party takes everything. Returns `None`
/// for an empty slice or all-zero allocations.
pub fn jain_fairness(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let sum: f64 = xs.iter().sum();
    let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        return None;
    }
    Some(sum * sum / (xs.len() as f64 * sum_sq))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basics() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn online_stats_empty() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i * 37 % 19) as f64).collect();
        let mut whole = OnlineStats::new();
        xs.iter().for_each(|&x| whole.record(x));
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        xs[..40].iter().for_each(|&x| left.record(x));
        xs[40..].iter().for_each(|&x| right.record(x));
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn percentiles() {
        let mut p = PercentileCollector::new();
        for i in 1..=100 {
            p.record(i as f64);
        }
        assert_eq!(p.quantile(0.0), Some(1.0));
        assert_eq!(p.quantile(1.0), Some(100.0));
        assert_eq!(p.quantile(0.5), Some(51.0)); // nearest-rank on 100 samples
        assert_eq!(p.mean(), Some(50.5));
        assert_eq!(PercentileCollector::new().quantile(0.5), None);
    }

    #[test]
    fn log2_histogram_quantiles() {
        let mut h = Log2Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 700, 800, 900, 1000, 1023] {
            h.record(v);
        }
        assert_eq!(h.count(), 10);
        // Half the mass is <= 4, so the median bucket bound is 7 (bucket of 4..8).
        assert_eq!(h.quantile_bound(0.5), Some(7));
        // Everything is <= 1023.
        assert_eq!(h.quantile_bound(1.0), Some(1023));
        h.clear();
        assert_eq!(h.quantile_bound(0.5), None);
    }

    #[test]
    fn jain_index() {
        assert!((jain_fairness(&[1.0, 1.0, 1.0, 1.0]).unwrap() - 1.0).abs() < 1e-12);
        assert!((jain_fairness(&[1.0, 0.0, 0.0, 0.0]).unwrap() - 0.25).abs() < 1e-12);
        assert_eq!(jain_fairness(&[]), None);
        assert_eq!(jain_fairness(&[0.0, 0.0]), None);
    }
}
