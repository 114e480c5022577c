//! Tenant specifications — QVISOR's first input (§3.1).

use qvisor_ranking::RankRange;
use qvisor_sim::TenantId;

/// A tenant's declaration: who they are, what ranks their policy emits, and
/// how finely QVISOR may quantize them.
///
/// Per the paper, a tenant is "a traffic subset and a scheduling algorithm".
/// The traffic subset is identified by [`TenantSpec::id`] (packets carry
/// their tenant id as a label); the scheduling algorithm lives at the end
/// host as a rank function, and what QVISOR needs from it is its *declared
/// rank range* — the bounded, known-in-advance distribution §3.2 assumes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantSpec {
    /// Tenant identifier carried in packet labels.
    pub id: TenantId,
    /// Name used in the operator's policy string.
    pub name: String,
    /// Human-readable name of the tenant's scheduling algorithm.
    pub algorithm: String,
    /// Declared bounds of the tenant's rank function.
    pub range: RankRange,
    /// Quantization levels for normalization; `None` lets the synthesizer
    /// pick `min(default_levels, range.width())`.
    pub levels: Option<u64>,
}

impl TenantSpec {
    /// A spec with defaulted quantization.
    pub fn new(
        id: TenantId,
        name: impl Into<String>,
        algorithm: impl Into<String>,
        range: RankRange,
    ) -> TenantSpec {
        TenantSpec {
            id,
            name: name.into(),
            algorithm: algorithm.into(),
            range,
            levels: None,
        }
    }

    /// Override the quantization level count.
    ///
    /// # Panics
    /// Panics if `levels` is zero.
    pub fn with_levels(mut self, levels: u64) -> TenantSpec {
        assert!(levels > 0, "levels must be positive");
        self.levels = Some(levels);
        self
    }

    /// Effective quantization levels given the synthesizer default.
    pub fn effective_levels(&self, default_levels: u64) -> u64 {
        self.levels
            .unwrap_or(default_levels)
            .min(self.range.width())
            .max(1)
    }
}

/// Global synthesizer tuning knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SynthConfig {
    /// Default quantization levels per tenant when the spec doesn't say.
    pub default_levels: u64,
    /// The smallest rank the joint policy may emit (the paper's Fig. 3 uses
    /// 1; 0 is the natural default).
    pub first_rank: u64,
    /// Best-effort preference bias between `>`-chained groups, as a divisor
    /// of the widest group's band: bias = ceil(width / divisor). Divisor 2
    /// means the favoured group's upper half overlaps the next group.
    pub pref_bias_divisor: u64,
}

impl Default for SynthConfig {
    fn default() -> SynthConfig {
        SynthConfig {
            default_levels: 8,
            first_rank: 0,
            pref_bias_divisor: 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_levels_clamp_to_width() {
        let spec = TenantSpec::new(TenantId(1), "T1", "pFabric", RankRange::new(7, 9));
        // width 3 < default 8
        assert_eq!(spec.effective_levels(8), 3);
        assert_eq!(spec.clone().with_levels(2).effective_levels(8), 2);
        // requesting more levels than distinct ranks is clamped
        assert_eq!(spec.with_levels(10).effective_levels(8), 3);
    }

    #[test]
    fn wide_range_uses_default() {
        let spec = TenantSpec::new(TenantId(1), "T1", "EDF", RankRange::new(0, 10_000));
        assert_eq!(spec.effective_levels(8), 8);
        assert_eq!(spec.with_levels(64).effective_levels(8), 64);
    }

    #[test]
    #[should_panic(expected = "levels must be positive")]
    fn zero_levels_rejected() {
        let _ = TenantSpec::new(TenantId(1), "T1", "x", RankRange::new(0, 1)).with_levels(0);
    }

    #[test]
    fn default_config() {
        let c = SynthConfig::default();
        assert_eq!(c.default_levels, 8);
        assert_eq!(c.first_rank, 0);
        assert_eq!(c.pref_bias_divisor, 2);
    }
}
