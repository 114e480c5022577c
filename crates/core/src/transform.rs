//! Rank transformation functions (§3.2).
//!
//! The synthesizer expresses the joint scheduling function as per-tenant
//! chains of rank transformations applied by the pre-processor at line
//! rate. The paper names two: *rank-normalization* (bound + quantize into
//! discrete levels) and *rank-shift* (move a tenant's band). We add the
//! *stride* generalization of shift that interleaves share-group members,
//! and a defensive *clamp*.
//!
//! Every operation is a handful of integer ops — the whole chain evaluates
//! in O(length) with no branches on packet contents, which is what makes
//! "apply at line rate" plausible on real pre-processors.

use qvisor_ranking::RankRange;
use qvisor_sim::Rank;
use std::fmt;

/// One rank transformation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RankTransform {
    /// Rank-normalization: clamp into `input`, then quantize onto
    /// `0..levels` (round-half-up linear scaling).
    Normalize {
        /// Declared input range.
        input: RankRange,
        /// Number of output levels; output is in `[0, levels)`.
        levels: u64,
    },
    /// Rank-shift: add a constant offset.
    Shift {
        /// Amount to add.
        offset: u64,
    },
    /// Interleaving stride for weighted share groups: a tenant owning
    /// `width` consecutive slots of every `every`-slot cycle, starting at
    /// `offset`, maps level `q` to `(q / width) * every + offset + q % width`.
    ///
    /// With `width == 1` this is plain `q * every + offset` — the paper's
    /// Fig. 3 interleaving.
    Stride {
        /// Cycle length (total weight of the share group).
        every: u64,
        /// Slots owned per cycle (this tenant's weight).
        width: u64,
        /// First owned slot within the cycle.
        offset: u64,
    },
    /// Defensive clamp into an output range (used for adversarial-rank
    /// containment).
    Clamp {
        /// Allowed output range.
        range: RankRange,
    },
}

impl RankTransform {
    /// Apply to one rank.
    pub fn apply(&self, rank: Rank) -> Rank {
        match *self {
            RankTransform::Normalize { input, levels } => {
                debug_assert!(levels > 0);
                let r = input.clamp(rank);
                let span = input.max - input.min;
                if span == 0 || levels <= 1 {
                    return 0;
                }
                // round((r - min) * (levels-1) / span), half away from zero,
                // in u128 to avoid overflow on wide ranges.
                let num = (r - input.min) as u128 * (levels - 1) as u128;
                ((num + span as u128 / 2) / span as u128) as u64
            }
            RankTransform::Shift { offset } => rank.saturating_add(offset),
            RankTransform::Stride {
                every,
                width,
                offset,
            } => {
                // Total even on malformed ops (the verifier evaluates those
                // to build witnesses): a zero width would divide by zero,
                // and near `Rank::MAX` the adds would wrap silently —
                // saturate instead, like `Shift`.
                let width = width.max(1);
                (rank / width)
                    .saturating_mul(every)
                    .saturating_add(offset)
                    .saturating_add(rank % width)
            }
            RankTransform::Clamp { range } => range.clamp(rank),
        }
    }

    /// The output range for inputs drawn from `input` (used for the
    /// synthesizer's span and the daemon's registry). Exact for monotone
    /// ops — everything the synthesizer emits. For a malformed (non-monotone) op the applied endpoints can
    /// land out of order; they are re-sorted so this never panics, and the
    /// verifier's interval analysis computes the sound bounds instead.
    pub fn output_range(&self, input: RankRange) -> RankRange {
        let lo = self.apply(input.min);
        let hi = self.apply(input.max);
        RankRange::new(lo.min(hi), lo.max(hi))
    }
}

impl fmt::Display for RankTransform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            RankTransform::Normalize { input, levels } => {
                write!(f, "normalize{input}→{levels} levels")
            }
            RankTransform::Shift { offset } => write!(f, "shift+{offset}"),
            RankTransform::Stride {
                every,
                width,
                offset,
            } => write!(f, "stride×{every}(w{width})+{offset}"),
            RankTransform::Clamp { range } => write!(f, "clamp{range}"),
        }
    }
}

/// A tenant's full transformation chain, applied left to right.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TransformChain {
    ops: Vec<RankTransform>,
}

impl TransformChain {
    /// An empty (identity) chain.
    pub fn identity() -> TransformChain {
        TransformChain { ops: Vec::new() }
    }

    /// A chain from explicit ops.
    pub fn from_ops(ops: Vec<RankTransform>) -> TransformChain {
        TransformChain { ops }
    }

    /// Append an op.
    pub fn push(&mut self, op: RankTransform) {
        self.ops.push(op);
    }

    /// The ops in order.
    pub fn ops(&self) -> &[RankTransform] {
        &self.ops
    }

    /// Transform one rank.
    pub fn apply(&self, rank: Rank) -> Rank {
        self.ops.iter().fold(rank, |r, op| op.apply(r))
    }

    /// Output range for inputs in `input` (monotone composition).
    pub fn output_range(&self, input: RankRange) -> RankRange {
        self.ops
            .iter()
            .fold(input, |range, op| op.output_range(range))
    }
}

impl fmt::Display for TransformChain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.ops.is_empty() {
            return write!(f, "identity");
        }
        let parts: Vec<String> = self.ops.iter().map(|o| o.to_string()).collect();
        write!(f, "{}", parts.join(" ∘ "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_paper_fig3_values() {
        // T1: [7,9] onto 3 levels -> 7→0, 8→1, 9→2.
        let n = RankTransform::Normalize {
            input: RankRange::new(7, 9),
            levels: 3,
        };
        assert_eq!(n.apply(7), 0);
        assert_eq!(n.apply(8), 1);
        assert_eq!(n.apply(9), 2);
        // T2: [1,3] onto 2 levels -> 1→0, 3→1.
        let n2 = RankTransform::Normalize {
            input: RankRange::new(1, 3),
            levels: 2,
        };
        assert_eq!(n2.apply(1), 0);
        assert_eq!(n2.apply(3), 1);
        // midpoint rounds half-up
        assert_eq!(n2.apply(2), 1);
    }

    #[test]
    fn normalize_clamps_out_of_range_inputs() {
        let n = RankTransform::Normalize {
            input: RankRange::new(10, 20),
            levels: 11,
        };
        assert_eq!(n.apply(0), 0);
        assert_eq!(n.apply(15), 5);
        assert_eq!(n.apply(99), 10);
    }

    #[test]
    fn normalize_degenerate_cases() {
        let single_level = RankTransform::Normalize {
            input: RankRange::new(0, 100),
            levels: 1,
        };
        assert_eq!(single_level.apply(50), 0);
        let single_input = RankTransform::Normalize {
            input: RankRange::new(5, 5),
            levels: 4,
        };
        assert_eq!(single_input.apply(5), 0);
    }

    #[test]
    fn normalize_is_monotone_non_decreasing() {
        let n = RankTransform::Normalize {
            input: RankRange::new(0, 997),
            levels: 13,
        };
        let mut prev = 0;
        for r in 0..=997 {
            let q = n.apply(r);
            assert!(q >= prev, "normalize must be monotone");
            assert!(q < 13);
            prev = q;
        }
        assert_eq!(prev, 12, "top level reached");
    }

    #[test]
    fn shift_saturates() {
        let s = RankTransform::Shift { offset: 10 };
        assert_eq!(s.apply(5), 15);
        assert_eq!(s.apply(u64::MAX - 3), u64::MAX);
    }

    #[test]
    fn stride_interleaves_unit_width() {
        // Fig. 3 share group: every=2; T2 offset 0, T3 offset 1.
        let t2 = RankTransform::Stride {
            every: 2,
            width: 1,
            offset: 0,
        };
        let t3 = RankTransform::Stride {
            every: 2,
            width: 1,
            offset: 1,
        };
        assert_eq!((t2.apply(0), t2.apply(1)), (0, 2));
        assert_eq!((t3.apply(0), t3.apply(1)), (1, 3));
    }

    #[test]
    fn stride_weighted_slots() {
        // Weight 2 of total 3: owns slots {0,1} of every 3.
        let heavy = RankTransform::Stride {
            every: 3,
            width: 2,
            offset: 0,
        };
        assert_eq!(
            (0..4).map(|q| heavy.apply(q)).collect::<Vec<_>>(),
            vec![0, 1, 3, 4]
        );
        // Weight 1 of total 3 at offset 2: slots {2} of every 3.
        let light = RankTransform::Stride {
            every: 3,
            width: 1,
            offset: 2,
        };
        assert_eq!(
            (0..2).map(|q| light.apply(q)).collect::<Vec<_>>(),
            vec![2, 5]
        );
    }

    #[test]
    fn clamp_contains_adversaries() {
        let c = RankTransform::Clamp {
            range: RankRange::new(4, 7),
        };
        assert_eq!(c.apply(0), 4);
        assert_eq!(c.apply(6), 6);
        assert_eq!(c.apply(1 << 60), 7);
    }

    #[test]
    fn chain_composition_fig3_t1() {
        // T1: normalize [7,9]→3 levels, then shift +1 => {1,2,3}.
        let chain = TransformChain::from_ops(vec![
            RankTransform::Normalize {
                input: RankRange::new(7, 9),
                levels: 3,
            },
            RankTransform::Shift { offset: 1 },
        ]);
        assert_eq!([7, 8, 9].map(|r| chain.apply(r)), [1, 2, 3]);
        assert_eq!(
            chain.output_range(RankRange::new(7, 9)),
            RankRange::new(1, 3)
        );
    }

    #[test]
    fn identity_chain() {
        let id = TransformChain::identity();
        assert_eq!(id.apply(42), 42);
        assert_eq!(id.to_string(), "identity");
    }

    #[test]
    fn output_range_tracks_chain() {
        let chain = TransformChain::from_ops(vec![
            RankTransform::Normalize {
                input: RankRange::new(0, 10_000),
                levels: 8,
            },
            RankTransform::Stride {
                every: 2,
                width: 1,
                offset: 1,
            },
            RankTransform::Shift { offset: 100 },
        ]);
        // levels 0..=7 -> stride -> 1..=15 odd -> shift -> 101..=115.
        assert_eq!(
            chain.output_range(RankRange::new(0, 10_000)),
            RankRange::new(101, 115)
        );
    }

    #[test]
    fn stride_saturates_at_rank_max() {
        // (MAX/1)*3 would wrap in release; it must pin at MAX instead.
        let s = RankTransform::Stride {
            every: 3,
            width: 1,
            offset: 0,
        };
        assert_eq!(s.apply(u64::MAX), u64::MAX);
        // Multiply fits but the offset add would wrap.
        let s = RankTransform::Stride {
            every: 1,
            width: 1,
            offset: 10,
        };
        assert_eq!(s.apply(u64::MAX - 3), u64::MAX);
        // The final `+ rank % width` add would wrap.
        let s = RankTransform::Stride {
            every: 4,
            width: 4,
            offset: 0,
        };
        assert_eq!(s.apply(u64::MAX), u64::MAX);
    }

    #[test]
    fn stride_zero_width_is_total() {
        // Malformed op: must not divide by zero (the verifier evaluates
        // malformed strides when computing witnesses).
        let s = RankTransform::Stride {
            every: 0,
            width: 0,
            offset: 7,
        };
        assert_eq!(s.apply(123), 7);
    }

    #[test]
    fn shift_chain_output_range_at_rank_max() {
        let chain = TransformChain::from_ops(vec![
            RankTransform::Shift {
                offset: u64::MAX - 10,
            },
            RankTransform::Shift { offset: 100 },
        ]);
        // Both endpoints saturate to MAX; range must stay well-formed.
        assert_eq!(
            chain.output_range(RankRange::new(50, 60)),
            RankRange::new(u64::MAX, u64::MAX)
        );
    }

    #[test]
    fn output_range_never_panics_on_non_monotone_op() {
        // every < width is non-monotone: cycle boundaries step backwards.
        let s = RankTransform::Stride {
            every: 1,
            width: 4,
            offset: 0,
        };
        let r = s.output_range(RankRange::new(3, 4));
        assert_eq!(r, RankRange::new(1, 3)); // endpoints re-sorted
    }

    #[test]
    fn normalize_wide_range_at_rank_max() {
        let n = RankTransform::Normalize {
            input: RankRange::new(0, u64::MAX),
            levels: u64::MAX,
        };
        assert_eq!(n.apply(0), 0);
        assert_eq!(n.apply(u64::MAX), u64::MAX - 1);
    }

    #[test]
    fn display_is_readable() {
        let chain = TransformChain::from_ops(vec![
            RankTransform::Normalize {
                input: RankRange::new(1, 3),
                levels: 2,
            },
            RankTransform::Shift { offset: 4 },
        ]);
        let s = chain.to_string();
        assert!(s.contains("normalize"));
        assert!(s.contains("shift+4"));
    }
}
