//! Online statistics used by metric collectors and the runtime monitor.

/// Streaming mean/min/max (Welford's mean update).
#[derive(Clone, Debug, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> OnlineStats {
        OnlineStats {
            n: 0,
            mean: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
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

    /// Smallest observation (`None` if empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation (`None` if empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }
}

/// Nearest-rank target of the `p`-quantile among `total` samples: the
/// 1-based position, in sorted order, of the sample that answers it.
pub fn nearest_rank(p: f64, total: u64) -> u64 {
    ((p.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1)
}

/// Log-linear (HDR-style) bucket counts over `u64` values: the one
/// histogram behind every streaming quantile in the workspace.
///
/// Values below `2^SUB_BITS` get exact unit buckets; above that, each
/// power-of-two range is split into `2^SUB_BITS` linear sub-buckets, so the
/// relative quantile error is bounded by `2^-SUB_BITS` and the absolute
/// error by one [`bucket_width`](Self::bucket_width). The counts are a
/// dense array grown on demand to the highest bucket seen, so recording is
/// one add and an idle histogram owns nothing. Counts are also
/// *subtractable*, which is what sliding-window aggregation needs.
///
/// The quantile estimate is the upper bound of the bucket holding the
/// nearest-rank target: it never undershoots the exact quantile and
/// overshoots by less than one bucket width.
#[derive(Clone, Debug, Default)]
pub struct LogBuckets<const SUB_BITS: u32> {
    /// `counts[i]` samples fell in bucket `i`; buckets past the end hold 0.
    counts: Vec<u64>,
    total: u64,
}

/// Power-of-two buckets: bucket `i` holds values whose bit length is `i`
/// (bucket 0: value 0), so a quantile reads `2^i - 1`. Coarse and cheap
/// enough for the data path of the runtime monitor.
pub type Log2Histogram = LogBuckets<0>;

/// Equal when they hold the same samples per bucket, however far each
/// one's array happens to have grown.
impl<const SUB_BITS: u32> PartialEq for LogBuckets<SUB_BITS> {
    fn eq(&self, other: &Self) -> bool {
        let n = self.counts.len().min(other.counts.len());
        self.total == other.total
            && self.counts[..n] == other.counts[..n]
            && self.counts[n..].iter().all(|&c| c == 0)
            && other.counts[n..].iter().all(|&c| c == 0)
    }
}

impl<const SUB_BITS: u32> Eq for LogBuckets<SUB_BITS> {}

impl<const SUB_BITS: u32> LogBuckets<SUB_BITS> {
    const SUBS: u64 = 1 << SUB_BITS;

    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty histogram with the whole bucket array reserved — address
    /// space, not memory — so that growing never moves it. For histograms
    /// built by the hundred beside large short-lived blocks, where the
    /// holes a moving array leaves decide where the allocator puts those
    /// (`fig4_observed` peak RSS, EXPERIMENTS.md "One histogram").
    pub fn reserved() -> Self {
        LogBuckets {
            counts: Vec::with_capacity(Self::index(u64::MAX) + 1),
            total: 0,
        }
    }

    /// The bucket `v` falls in.
    #[inline]
    pub fn index(v: u64) -> usize {
        if v < Self::SUBS {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros(); // >= SUB_BITS
        let sub = (v >> (exp - SUB_BITS)) & (Self::SUBS - 1);
        ((((exp - SUB_BITS + 1) as u64) << SUB_BITS) + sub) as usize
    }

    /// The closed `[lo, hi]` range of values mapping to bucket `index`.
    pub fn range(index: usize) -> (u64, u64) {
        let index = index as u64;
        if index < Self::SUBS {
            return (index, index);
        }
        let exp = (index >> SUB_BITS) as u32 + SUB_BITS - 1;
        let width = 1u64 << (exp - SUB_BITS);
        let lo = (1u64 << exp) + (index & (Self::SUBS - 1)) * width;
        (lo, lo + (width - 1))
    }

    /// Width of the bucket that `v` falls in — the quantile error bound at
    /// that magnitude (exact below `2^SUB_BITS`).
    pub fn bucket_width(v: u64) -> u64 {
        let (lo, hi) = Self::range(Self::index(v));
        hi - lo + 1
    }

    /// The count cell of bucket `index`, growing the array to reach it.
    #[inline]
    fn cell(&mut self, index: usize) -> &mut u64 {
        if index >= self.counts.len() {
            self.counts.resize(index + 1, 0);
        }
        &mut self.counts[index]
    }

    /// Record one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_bucket(Self::index(v));
    }

    /// Record one value known to fall in bucket `index` (its
    /// [`index`](Self::index)): for a sample that several histograms of
    /// one resolution record.
    #[inline]
    pub fn record_bucket(&mut self, index: usize) {
        *self.cell(index) += 1;
        self.total += 1;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Nearest-rank `p`-quantile estimate (`p` in `[0, 1]`; `None` if
    /// empty): the upper bound of the bucket holding the target rank.
    pub fn quantile(&self, p: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let target = nearest_rank(p, self.total);
        let mut acc = 0u64;
        for (index, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                return Some(Self::range(index).1);
            }
        }
        unreachable!("bucket counts sum to the total")
    }

    /// Occupied buckets as `(lo, hi, count)`, in ascending value order.
    pub fn occupied(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        (self.counts.iter().enumerate())
            .filter(|(_, &c)| c > 0)
            .map(|(index, &c)| {
                let (lo, hi) = Self::range(index);
                (lo, hi, c)
            })
    }

    /// Remove `other`'s counts from this histogram. `other` must be a
    /// subset of what was merged or recorded here (the sliding-window
    /// invariant).
    pub fn subtract(&mut self, other: &Self) {
        for (index, &c) in other.counts.iter().enumerate() {
            if c > 0 {
                let e = self
                    .counts
                    .get_mut(index)
                    .expect("subtracting counts never recorded");
                *e = e.checked_sub(c).expect("bucket subtraction underflow");
            }
        }
        self.total -= other.total;
    }

    /// Reset to empty (the bucket array keeps its allocation).
    pub fn clear(&mut self) {
        self.counts.clear();
        self.total = 0;
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
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn online_stats_empty() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn log2_histogram_quantiles() {
        let mut h = Log2Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 700, 800, 900, 1000, 1023] {
            h.record(v);
        }
        assert_eq!(h.count(), 10);
        // Half the mass is <= 4, so the median bucket bound is 7 (bucket of 4..8).
        assert_eq!(h.quantile(0.5), Some(7));
        // Everything is <= 1023.
        assert_eq!(h.quantile(1.0), Some(1023));
        h.clear();
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn log2_quantile_is_all_ones_at_the_values_bit_length() {
        // What the runtime adapter reads: 0 for value 0, `2^i - 1` for any
        // value of bit length `i`, up to the top bucket.
        for v in [0u64, 1, 2, 3, 255, 256, u64::MAX] {
            let mut h = Log2Histogram::new();
            h.record(v);
            let all_ones = if v == 0 {
                0
            } else {
                u64::MAX >> v.leading_zeros()
            };
            assert_eq!(h.quantile(0.5), Some(all_ones), "value {v}");
        }
    }

    fn ranges_partition_the_u64_line<const SUB_BITS: u32>() {
        // Consecutive buckets tile `0..=u64::MAX` without gap or overlap,
        // and every value maps into the bucket whose range contains it.
        let mut prev_hi: Option<u64> = None;
        for i in 0..=LogBuckets::<SUB_BITS>::index(u64::MAX) {
            let (lo, hi) = LogBuckets::<SUB_BITS>::range(i);
            assert!(lo <= hi);
            if let Some(p) = prev_hi {
                assert_eq!(lo, p + 1, "gap/overlap at bucket {i} of 2^-{SUB_BITS}");
            }
            prev_hi = Some(hi);
        }
        assert_eq!(prev_hi, Some(u64::MAX));
        let subs = 1u64 << SUB_BITS;
        let probes = [0, 1, subs - 1, subs, subs + 1, 1000, 1 << 20, 1 << 63];
        for v in probes.into_iter().chain([u64::MAX / 3, u64::MAX]) {
            let (lo, hi) = LogBuckets::<SUB_BITS>::range(LogBuckets::<SUB_BITS>::index(v));
            assert!(lo <= v && v <= hi, "{v} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn bucket_ranges_partition_the_u64_line_at_every_resolution_in_use() {
        ranges_partition_the_u64_line::<0>();
        ranges_partition_the_u64_line::<4>();
        ranges_partition_the_u64_line::<5>();
    }

    #[test]
    fn jain_index() {
        assert!((jain_fairness(&[1.0, 1.0, 1.0, 1.0]).unwrap() - 1.0).abs() < 1e-12);
        assert!((jain_fairness(&[1.0, 0.0, 0.0, 0.0]).unwrap() - 0.25).abs() < 1e-12);
        assert_eq!(jain_fairness(&[]), None);
        assert_eq!(jain_fairness(&[0.0, 0.0]), None);
    }
}
