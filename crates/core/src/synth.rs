//! The QVISOR synthesizer (§3.2): turns per-tenant specs plus the
//! operator's policy into a *joint scheduling function* — one rank
//! transformation chain per tenant.
//!
//! Synthesis is purely structural:
//!
//! 1. Every tenant is **normalized**: its declared rank range is quantized
//!    onto `Q` discrete levels, making tenants comparable (§2, Idea 1).
//! 2. `+` share groups **interleave** their members: with total weight `W`,
//!    a member of weight `w` owning slot offsets `[o, o+w)` maps level `q`
//!    to `(q/w)·W + o + q%w`. Unit weights reduce to `q·W + o` — exactly
//!    the paper's Fig. 3 numbers.
//! 3. `>` preference chains place groups in **overlapping bands** offset by
//!    a partial-band bias: favoured groups win where they overlap, but no
//!    isolation is created (best-effort priority).
//! 4. `>>` strict levels are stacked in **disjoint bands**; by construction
//!    every rank of a higher band is smaller than every rank of a lower
//!    one, which the verifier ([`crate::verify()`]) re-proves from the chains.

use crate::error::{QvisorError, Result};
use crate::policy::Policy;
use crate::spec::{SynthConfig, TenantSpec};
use crate::transform::{RankTransform, TransformChain};
use qvisor_ranking::RankRange;
use qvisor_sim::{Rank, TenantId};
use std::collections::{BTreeMap, HashMap};

/// Where one tenant landed inside the joint rank space.
#[derive(Clone, Debug)]
pub struct MemberLayout {
    /// The tenant.
    pub tenant: TenantId,
    /// Share weight within its group.
    pub weight: u32,
    /// Quantization levels after weighting (`Q_base * weight`).
    pub levels: u64,
    /// First owned slot offset within the group's stride cycle.
    pub slot_offset: u64,
    /// Final output range of the tenant's chain (absolute ranks).
    pub output: RankRange,
}

/// A `+` share group's placement.
#[derive(Clone, Debug)]
pub struct GroupLayout {
    /// Offset of this group's band relative to the level base (the
    /// best-effort preference bias).
    pub bias: u64,
    /// Band width in ranks.
    pub width: u64,
    /// Stride cycle length (total member weight).
    pub stride: u64,
    /// Member placements.
    pub members: Vec<MemberLayout>,
}

/// A `>>` strict level's placement.
#[derive(Clone, Debug)]
pub struct LevelLayout {
    /// Absolute base rank of the level's band.
    pub base: Rank,
    /// Band width in ranks (including preference biases).
    pub width: u64,
    /// Preference-ordered groups.
    pub groups: Vec<GroupLayout>,
}

/// The synthesized joint scheduling function.
#[derive(Clone, Debug)]
pub struct JointPolicy {
    /// Per-tenant rank transformation chains (the deployable artifact).
    /// Ordered by tenant id so iteration is deterministic (the repo's
    /// determinism lint forbids hash-order iteration in sim crates).
    chains: BTreeMap<TenantId, TransformChain>,
    /// Structural description of the rank space (for analysis, backends,
    /// and reports).
    pub layout: Vec<LevelLayout>,
    /// The operator policy this was synthesized from.
    pub policy: Policy,
    /// The tenant specs used.
    pub specs: Vec<TenantSpec>,
    /// Configuration used.
    pub config: SynthConfig,
}

impl JointPolicy {
    /// The transformation chain for `tenant`, if it appears in the policy.
    pub fn chain(&self, tenant: TenantId) -> Option<&TransformChain> {
        self.chains.get(&tenant)
    }

    /// All (tenant, chain) pairs.
    pub fn chains(&self) -> impl Iterator<Item = (TenantId, &TransformChain)> {
        self.chains.iter().map(|(&t, c)| (t, c))
    }

    /// The full span of ranks the joint policy can emit.
    pub fn output_span(&self) -> RankRange {
        let first = self.config.first_rank;
        let last = self
            .layout
            .last()
            .map(|l| l.base.saturating_add(l.width.saturating_sub(1)))
            .unwrap_or(first);
        RankRange::new(first, last.max(first))
    }
}

/// Synthesize a [`JointPolicy`] from tenant specs and an operator policy.
///
/// Fails when the policy names a tenant with no spec, repeats a tenant, or
/// the config is degenerate. Specs not referenced by the policy are ignored
/// (the verifier reports them as QV-UNSCHEDULED).
pub fn synthesize(
    specs: &[TenantSpec],
    policy: &Policy,
    config: SynthConfig,
) -> Result<JointPolicy> {
    if config.pref_bias_divisor == 0 {
        return Err(QvisorError::Synthesis(
            "pref_bias_divisor must be positive".into(),
        ));
    }
    if config.default_levels == 0 {
        return Err(QvisorError::Synthesis(
            "default_levels must be positive".into(),
        ));
    }
    let by_name: HashMap<&str, &TenantSpec> = specs.iter().map(|s| (s.name.as_str(), s)).collect();
    if by_name.len() != specs.len() {
        return Err(QvisorError::Synthesis(
            "duplicate tenant names in specs".into(),
        ));
    }

    // Resolve and validate references.
    let mut seen: Vec<&str> = Vec::new();
    for name in policy.tenant_names() {
        if seen.contains(&name) {
            return Err(QvisorError::DuplicateTenant(name.to_string()));
        }
        if !by_name.contains_key(name) {
            return Err(QvisorError::UnknownTenant(name.to_string()));
        }
        seen.push(name);
    }

    let mut chains = BTreeMap::new();
    let mut layout = Vec::with_capacity(policy.levels.len());
    let mut level_base = config.first_rank;

    for level in &policy.levels {
        // First pass: per-group geometry.
        struct GroupGeom<'a> {
            stride: u64,
            q_base: u64,
            width: u64,
            members: Vec<(&'a TenantSpec, u32, u64)>, // (spec, weight, slot offset)
        }
        let mut geoms = Vec::with_capacity(level.groups.len());
        for group in &level.groups {
            let stride: u64 = group.members.iter().map(|m| m.weight as u64).sum();
            let q_base = group
                .members
                .iter()
                .map(|m| by_name[m.name.as_str()].effective_levels(config.default_levels))
                .max()
                .expect("parser guarantees non-empty groups");
            let mut slot = 0u64;
            let mut members = Vec::with_capacity(group.members.len());
            for m in &group.members {
                members.push((by_name[m.name.as_str()], m.weight, slot));
                slot += m.weight as u64;
            }
            // All band geometry saturates rather than wraps: an absurd
            // levels × stride product pins at `Rank::MAX` and the verifier
            // reports the overflow instead of the layout silently aliasing.
            geoms.push(GroupGeom {
                stride,
                q_base,
                width: q_base.saturating_mul(stride),
                members,
            });
        }

        // Preference biases accumulate: each group starts a fraction
        // (1/divisor) of the way into the *previous* group's band, so every
        // adjacent pair overlaps regardless of width asymmetry.
        let mut biases = Vec::with_capacity(geoms.len());
        let mut acc = 0u64;
        for geom in &geoms {
            biases.push(acc);
            acc = acc.saturating_add((geom.width.div_ceil(config.pref_bias_divisor)).max(1));
        }

        // Second pass: emit chains and layout.
        let mut groups_layout = Vec::with_capacity(geoms.len());
        let mut level_width = 0u64;
        for (k, geom) in geoms.iter().enumerate() {
            let bias = biases[k];
            let mut members_layout = Vec::with_capacity(geom.members.len());
            for &(spec, weight, slot_offset) in &geom.members {
                let levels = geom.q_base.saturating_mul(weight as u64);
                // Weighted members normalize over a range stretched by
                // their weight: their rank-per-input slope drops to 1/w of
                // an unweighted member's, which is what gives them w× the
                // service under virtual-clock (byte-counting) rank
                // functions while per-input granularity stays constant.
                let input = if weight > 1 {
                    RankRange::new(
                        spec.range.min,
                        spec.range
                            .min
                            .saturating_add((spec.range.width() - 1).saturating_mul(weight as u64)),
                    )
                } else {
                    spec.range
                };
                let mut chain = TransformChain::identity();
                chain.push(RankTransform::Normalize { input, levels });
                if geom.stride > 1 {
                    chain.push(RankTransform::Stride {
                        every: geom.stride,
                        width: weight as u64,
                        offset: slot_offset,
                    });
                }
                let shift = level_base.saturating_add(bias);
                if shift > 0 {
                    chain.push(RankTransform::Shift { offset: shift });
                }
                let output = chain.output_range(spec.range);
                members_layout.push(MemberLayout {
                    tenant: spec.id,
                    weight,
                    levels,
                    slot_offset,
                    output,
                });
                chains.insert(spec.id, chain);
            }
            level_width = level_width.max(bias.saturating_add(geom.width));
            groups_layout.push(GroupLayout {
                bias,
                width: geom.width,
                stride: geom.stride,
                members: members_layout,
            });
        }

        layout.push(LevelLayout {
            base: level_base,
            width: level_width,
            groups: groups_layout,
        });
        level_base = level_base.saturating_add(level_width);
    }

    Ok(JointPolicy {
        chains,
        layout,
        policy: policy.clone(),
        specs: specs.to_vec(),
        config,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The layout member entry of `tenant` in `joint`.
    fn member(joint: &JointPolicy, tenant: TenantId) -> Option<&MemberLayout> {
        (joint.layout.iter())
            .flat_map(|l| &l.groups)
            .flat_map(|g| &g.members)
            .find(|m| m.tenant == tenant)
    }

    fn fig3_specs() -> Vec<TenantSpec> {
        vec![
            TenantSpec::new(TenantId(1), "T1", "pFabric", RankRange::new(7, 9)).with_levels(3),
            TenantSpec::new(TenantId(2), "T2", "EDF", RankRange::new(1, 3)).with_levels(2),
            TenantSpec::new(TenantId(3), "T3", "FQ", RankRange::new(3, 5)).with_levels(2),
        ]
    }

    fn fig3_config() -> SynthConfig {
        SynthConfig {
            first_rank: 1, // the paper's example starts output ranks at 1
            ..SynthConfig::default()
        }
    }

    #[test]
    fn fig3_exact_transformations() {
        // The paper's worked example, §3.3 / Fig. 3:
        //   policy  T1 >> T2 + T3
        //   T1 {7,8,9} -> {1,2,3}
        //   T2 {1,3}   -> {4,6}
        //   T3 {3,5}   -> {5,7}
        let policy = Policy::parse("T1 >> T2 + T3").unwrap();
        let joint = synthesize(&fig3_specs(), &policy, fig3_config()).unwrap();

        let t1 = joint.chain(TenantId(1)).unwrap();
        assert_eq!([7, 8, 9].map(|r| t1.apply(r)), [1, 2, 3]);
        let t2 = joint.chain(TenantId(2)).unwrap();
        assert_eq!([1, 3].map(|r| t2.apply(r)), [4, 6]);
        let t3 = joint.chain(TenantId(3)).unwrap();
        assert_eq!([3, 5].map(|r| t3.apply(r)), [5, 7]);
    }

    #[test]
    fn fig3_layout_structure() {
        let policy = Policy::parse("T1 >> T2 + T3").unwrap();
        let joint = synthesize(&fig3_specs(), &policy, fig3_config()).unwrap();
        assert_eq!(joint.layout.len(), 2);
        let top = &joint.layout[0];
        assert_eq!(top.base, 1);
        assert_eq!(top.width, 3);
        let bottom = &joint.layout[1];
        assert_eq!(bottom.base, 4);
        assert_eq!(bottom.width, 4);
        assert_eq!(bottom.groups[0].stride, 2);
        assert_eq!(joint.output_span(), RankRange::new(1, 7));
    }

    #[test]
    fn strict_levels_are_disjoint() {
        let specs = vec![
            TenantSpec::new(TenantId(1), "A", "pFabric", RankRange::new(0, 1_000_000)),
            TenantSpec::new(TenantId(2), "B", "EDF", RankRange::new(0, 10_000)),
            TenantSpec::new(TenantId(3), "C", "FQ", RankRange::new(0, 50)),
        ];
        let policy = Policy::parse("A >> B >> C").unwrap();
        let joint = synthesize(&specs, &policy, SynthConfig::default()).unwrap();
        let a = member(&joint, TenantId(1)).unwrap().output;
        let b = member(&joint, TenantId(2)).unwrap().output;
        let c = member(&joint, TenantId(3)).unwrap().output;
        assert!(a.max < b.min, "A {a} must sit strictly above B {b}");
        assert!(b.max < c.min, "B {b} must sit strictly above C {c}");
    }

    #[test]
    fn share_group_members_interleave() {
        let specs = vec![
            TenantSpec::new(TenantId(1), "A", "x", RankRange::new(0, 100)).with_levels(4),
            TenantSpec::new(TenantId(2), "B", "y", RankRange::new(0, 100)).with_levels(4),
        ];
        let policy = Policy::parse("A + B").unwrap();
        let joint = synthesize(&specs, &policy, SynthConfig::default()).unwrap();
        let a = joint.chain(TenantId(1)).unwrap();
        let b = joint.chain(TenantId(2)).unwrap();
        // A gets even slots, B odd; neither dominates.
        let a_ranks: Vec<Rank> = [0, 33, 67, 100].iter().map(|&r| a.apply(r)).collect();
        let b_ranks: Vec<Rank> = [0, 33, 67, 100].iter().map(|&r| b.apply(r)).collect();
        assert_eq!(a_ranks, vec![0, 2, 4, 6]);
        assert_eq!(b_ranks, vec![1, 3, 5, 7]);
    }

    #[test]
    fn weighted_share_owns_more_slots() {
        let specs = vec![
            TenantSpec::new(TenantId(1), "A", "x", RankRange::new(0, 100)).with_levels(2),
            TenantSpec::new(TenantId(2), "B", "y", RankRange::new(0, 100)).with_levels(2),
        ];
        let policy = Policy::parse("A:2 + B").unwrap();
        let joint = synthesize(&specs, &policy, SynthConfig::default()).unwrap();
        let a = member(&joint, TenantId(1)).unwrap();
        let b = member(&joint, TenantId(2)).unwrap();
        assert_eq!(a.levels, 4, "weight 2 doubles quantization");
        assert_eq!(b.levels, 2);
        let ca = joint.chain(TenantId(1)).unwrap();
        let cb = joint.chain(TenantId(2)).unwrap();
        // A normalizes over a 2x-stretched range, so its rank-per-input
        // slope is half of B's: at full input A is only halfway up its
        // band while B has topped out.
        assert_eq!([0, 100, 201].map(|r| ca.apply(r)), [0, 3, 4]);
        assert_eq!([0, 100].map(|r| cb.apply(r)), [2, 5]);
        // Equal progress fraction -> A ranks no worse than B.
        for frac in [0u64, 25, 50, 75, 100] {
            assert!(ca.apply(frac) <= cb.apply(frac));
        }
    }

    #[test]
    fn preference_overlaps_but_biases() {
        let specs = vec![
            TenantSpec::new(TenantId(1), "A", "x", RankRange::new(0, 100)).with_levels(8),
            TenantSpec::new(TenantId(2), "B", "y", RankRange::new(0, 100)).with_levels(8),
        ];
        let policy = Policy::parse("A > B").unwrap();
        let joint = synthesize(&specs, &policy, SynthConfig::default()).unwrap();
        let a = member(&joint, TenantId(1)).unwrap().output;
        let b = member(&joint, TenantId(2)).unwrap().output;
        // Best-effort: bands overlap (no isolation)...
        assert!(a.overlaps(&b), "preference must not isolate: {a} vs {b}");
        // ...but A is biased ahead.
        assert!(a.min < b.min);
        assert!(a.max < b.max);
    }

    #[test]
    fn paper_grammar_example_synthesizes() {
        let specs: Vec<TenantSpec> = (1..=5)
            .map(|i| TenantSpec::new(TenantId(i), format!("T{i}"), "alg", RankRange::new(0, 1000)))
            .collect();
        let policy = Policy::parse("T1 >> T2 > T3 + T4 >> T5").unwrap();
        let joint = synthesize(&specs, &policy, SynthConfig::default()).unwrap();
        let out = |i: u16| member(&joint, TenantId(i)).unwrap().output;
        // T1 strictly above everyone.
        for i in 2..=5 {
            assert!(out(1).max < out(i).min);
        }
        // T5 strictly below everyone.
        for i in 1..=4 {
            assert!(out(i).max < out(5).min);
        }
        // T2 preferred over the T3+T4 share group, overlapping.
        assert!(out(2).min < out(3).min);
        assert!(out(2).overlaps(&out(3)));
        // T3 and T4 interleave in the same band.
        assert!(out(3).overlaps(&out(4)));
    }

    #[test]
    fn unknown_tenant_rejected() {
        let policy = Policy::parse("T1 >> TX").unwrap();
        let err = synthesize(&fig3_specs(), &policy, SynthConfig::default()).unwrap_err();
        assert_eq!(err, QvisorError::UnknownTenant("TX".into()));
    }

    #[test]
    fn duplicate_tenant_rejected() {
        let policy = Policy::parse("T1 >> T1").unwrap();
        let err = synthesize(&fig3_specs(), &policy, SynthConfig::default()).unwrap_err();
        assert_eq!(err, QvisorError::DuplicateTenant("T1".into()));
    }

    #[test]
    fn duplicate_spec_names_rejected() {
        let mut specs = fig3_specs();
        specs.push(TenantSpec::new(
            TenantId(9),
            "T1",
            "dup",
            RankRange::new(0, 1),
        ));
        let policy = Policy::parse("T1").unwrap();
        assert!(matches!(
            synthesize(&specs, &policy, SynthConfig::default()),
            Err(QvisorError::Synthesis(_))
        ));
    }

    #[test]
    fn unused_specs_are_allowed() {
        let policy = Policy::parse("T1").unwrap();
        let joint = synthesize(&fig3_specs(), &policy, SynthConfig::default()).unwrap();
        assert!(joint.chain(TenantId(1)).is_some());
        assert!(joint.chain(TenantId(2)).is_none());
    }

    #[test]
    fn single_tenant_identity_band() {
        let specs = vec![TenantSpec::new(
            TenantId(1),
            "T1",
            "pFabric",
            RankRange::new(0, 7),
        )];
        let policy = Policy::parse("T1").unwrap();
        let joint = synthesize(&specs, &policy, SynthConfig::default()).unwrap();
        let chain = joint.chain(TenantId(1)).unwrap();
        // 8 levels over [0,7]: normalization is the identity, no stride, no
        // shift.
        for r in 0..=7 {
            assert_eq!(chain.apply(r), r);
        }
    }
}
