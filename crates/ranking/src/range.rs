//! Declared rank bounds.

use qvisor_sim::Rank;

/// Inclusive bounds `[min, max]` on the ranks a tenant's rank function
/// emits.
///
/// The paper's synthesizer assumes "rank distributions are bounded and
/// known in advance" (§3.2); this type is that declaration. The static
/// verifier checks synthesized policies against it, and the runtime monitor
/// flags packets violating it as adversarial.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RankRange {
    /// Smallest (most urgent) rank.
    pub min: Rank,
    /// Largest (least urgent) rank.
    pub max: Rank,
}

impl RankRange {
    /// A range; `min` and `max` are inclusive.
    ///
    /// # Panics
    /// Panics if `min > max`.
    pub fn new(min: Rank, max: Rank) -> RankRange {
        assert!(min <= max, "rank range is empty: [{min}, {max}]");
        RankRange { min, max }
    }

    /// Number of distinct ranks in the range (saturating at `u64::MAX`).
    pub fn width(&self) -> u64 {
        (self.max - self.min).saturating_add(1)
    }

    /// Does `rank` fall inside the declared bounds?
    pub fn contains(&self, rank: Rank) -> bool {
        (self.min..=self.max).contains(&rank)
    }

    /// Clamp `rank` into the range.
    pub fn clamp(&self, rank: Rank) -> Rank {
        rank.clamp(self.min, self.max)
    }

    /// Do two ranges overlap?
    pub fn overlaps(&self, other: &RankRange) -> bool {
        self.min <= other.max && other.min <= self.max
    }

    /// Is every rank of `other` inside this range?
    pub fn contains_range(&self, other: &RankRange) -> bool {
        self.min <= other.min && other.max <= self.max
    }

    /// Is every rank of this range strictly smaller than every rank of
    /// `other`? (The `>>` isolation invariant between adjacent bands.)
    pub fn strictly_below(&self, other: &RankRange) -> bool {
        self.max < other.min
    }
}

impl std::fmt::Display for RankRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {}]", self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_and_contains() {
        let r = RankRange::new(3, 7);
        assert_eq!(r.width(), 5);
        assert!(r.contains(3));
        assert!(r.contains(7));
        assert!(!r.contains(2));
        assert!(!r.contains(8));
    }

    #[test]
    fn singleton_range() {
        let r = RankRange::new(5, 5);
        assert_eq!(r.width(), 1);
        assert!(r.contains(5));
    }

    #[test]
    fn clamping() {
        let r = RankRange::new(10, 20);
        assert_eq!(r.clamp(5), 10);
        assert_eq!(r.clamp(15), 15);
        assert_eq!(r.clamp(99), 20);
    }

    #[test]
    fn overlap_detection() {
        let a = RankRange::new(0, 10);
        let b = RankRange::new(10, 20);
        let c = RankRange::new(11, 20);
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn full_range_width_saturates() {
        let r = RankRange::new(0, u64::MAX);
        assert_eq!(r.width(), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "rank range is empty")]
    fn inverted_range_panics() {
        let _ = RankRange::new(2, 1);
    }

    #[test]
    fn ordering_helpers() {
        let a = RankRange::new(0, 4);
        let b = RankRange::new(5, 9);
        let c = RankRange::new(8, 20);
        assert!(a.strictly_below(&b));
        assert!(!b.strictly_below(&a));
        assert!(!b.strictly_below(&c));
        assert!(c.contains_range(&RankRange::new(9, 12)));
        assert!(!c.contains_range(&b));
    }

    #[test]
    fn display() {
        assert_eq!(RankRange::new(1, 9).to_string(), "[1, 9]");
    }
}
