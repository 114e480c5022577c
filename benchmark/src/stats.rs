//! Order statistics over timing samples.
//!
//! Every metric is reported as a median with its quartiles and sample
//! count; a tail is reported only as the highest percentile that still has
//! at least ten samples beyond it (choosing-metrics §1), so a short run
//! never prints a "p99" that is really the maximum.

/// Percentiles a tail may be reported at, lowest first.
const TAIL_CANDIDATES: [u32; 5] = [50, 75, 90, 95, 99];

/// Samples that must lie beyond a percentile before it is reported.
const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (0–100) of `sorted`, by nearest rank.
///
/// # Panics
/// Panics on an empty slice: a metric without samples is a harness bug.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `sorted`: the mean of the two middle samples when even.
pub fn median_sorted(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of no samples");
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The highest candidate percentile with at least ten samples beyond it,
/// or 50 when even the median has fewer.
pub fn supported_tail(n: usize) -> u32 {
    TAIL_CANDIDATES
        .iter()
        .rev()
        .copied()
        .find(|&p| n * (100 - p as usize) / 100 >= MIN_BEYOND)
        .unwrap_or(50)
}

/// Median, quartiles and count of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// The reported value (the median unless a workload overrides it with
    /// a whole-run figure, e.g. commits over the full time box).
    pub value: f64,
    /// First quartile of the samples.
    pub q1: f64,
    /// Third quartile of the samples.
    pub q3: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarise `samples` (any order).
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            value: median_sorted(&sorted),
            q1: percentile_sorted(&sorted, 25.0),
            q3: percentile_sorted(&sorted, 75.0),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            n: sorted.len(),
        }
    }

    /// A figure measured once (peak memory, an exact count).
    pub fn single(value: f64) -> Summary {
        Summary {
            value,
            q1: value,
            q3: value,
            min: value,
            max: value,
            n: 1,
        }
    }

    /// Keep the quartiles but report `value` (a whole-run figure).
    pub fn reporting(mut self, value: f64) -> Summary {
        self.value = value;
        self
    }
}

/// The run-to-run spread of one metric over a set of runs: the distance
/// between the first and third quartile of the runs' values as a share of
/// their median, with the quartiles Python's
/// `statistics.quantiles(values, n=4)` gives (the driver's rule). `None`
/// for fewer than two runs: one run has no run-to-run spread.
pub fn run_spread(values: &[f64]) -> Option<f64> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((quartile(3) - quartile(1)) / median_sorted(&sorted).abs())
}

/// The tail of `samples`: `(percentile, value)` at the highest supported
/// percentile.
pub fn tail(samples: &[f64]) -> (u32, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p = supported_tail(sorted.len());
    (p, percentile_sorted(&sorted, f64::from(p)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picker_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(5), 50);
        assert_eq!(supported_tail(19), 50);
        assert_eq!(supported_tail(20), 50);
        assert_eq!(supported_tail(40), 75);
        assert_eq!(supported_tail(99), 75);
        assert_eq!(supported_tail(100), 90);
        assert_eq!(supported_tail(199), 90);
        assert_eq!(supported_tail(200), 95);
        assert_eq!(supported_tail(330), 95);
        assert_eq!(supported_tail(999), 95);
        assert_eq!(supported_tail(1_000), 99);
    }

    #[test]
    fn median_and_quartiles() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.value, s.q1, s.q3, s.n), (3.0, 2.0, 4.0, 5));
        let even = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(even.value, 2.5);
        assert_eq!((even.q1, even.q3), (1.0, 3.0));
        assert_eq!(Summary::of(&[7.0]), Summary::single(7.0));
    }

    #[test]
    fn run_spread_uses_pythons_exclusive_quartiles() {
        // statistics.quantiles([80, 90, 100, 110, 120], n=4) == [85, 100, 115]
        let spread = run_spread(&[90.0, 100.0, 110.0, 120.0, 80.0]).unwrap();
        assert!((spread - 0.3).abs() < 1e-12, "{spread}");
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((run_spread(&ten).unwrap() - 1.0).abs() < 1e-12);
        // statistics.quantiles([4, 8], n=4) == [3, 6, 9]
        assert!((run_spread(&[4.0, 8.0]).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(run_spread(&[7.0]), None);
    }

    #[test]
    fn tail_reports_the_supported_percentile() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&samples), (95, 190.0));
        assert_eq!(tail(&samples[..30]), (50, 15.0));
    }
}
