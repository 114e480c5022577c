//! Compiling scheduling policies into constrained hardware (§5).
//!
//! §3.4 deploys a joint policy when the switch can express it; this module
//! handles the case where it *can't*. Given a [`HardwareModel`] (how many
//! strict-priority queues, how many rank values the pre-processor may
//! emit), [`compile`] first tries a faithful synthesis; when it does not
//! fit, it degrades the specification along explicit, ranked
//! [`Concession`]s — the paper's "propose partial specifications
//! implementable on the available resources" — and returns the final
//! configuration *together with* the concessions made and the verifier's
//! report on it, so the operator can see exactly what they got.
//!
//! Degradation ladder (applied in order, cheapest semantic loss first):
//!
//! 1. **Halve quantization levels** of the widest tenants until the joint
//!    rank span fits the hardware's rank width (costs intra-tenant
//!    granularity only).
//! 2. **Merge the two least-important strict levels** into one preference
//!    level — this both frees hardware queues (fewer bands to allocate)
//!    and shrinks the rank span (overlapping bands are narrower than
//!    stacked ones); isolation between the merged levels becomes
//!    best-effort priority.
//!
//! (Downgrading `>` to `+` is deliberately *not* on the ladder: a share
//! group's interleaved band is wider than the preference chain it would
//! replace, so it never helps fit.)

use crate::backend::Backend;
use crate::error::{QvisorError, Result};
use crate::policy::Policy;
use crate::spec::{SynthConfig, TenantSpec};
use crate::synth::{synthesize, JointPolicy};
use crate::verify::{verify, SpecPaths, VerifyReport};
use std::fmt;

/// What the target switch offers.
#[derive(Clone, Copy, Debug)]
pub struct HardwareModel {
    /// Strict-priority FIFO queues available at the port.
    pub queues: usize,
    /// Largest rank value the pre-processor stage can carry (e.g. a
    /// 12-bit rank field gives 4095).
    pub max_rank: u64,
}

/// One semantic concession made to fit the hardware.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Concession {
    /// A tenant's quantization was reduced (intra-tenant granularity).
    ReducedLevels {
        /// Tenant name.
        tenant: String,
        /// Levels before.
        from: u64,
        /// Levels after.
        to: u64,
    },
    /// Two adjacent strict levels were merged into one preference level:
    /// isolation between them is now best-effort.
    StrictMerged {
        /// The higher of the two merged levels (they become one).
        upper_level: usize,
    },
}

impl fmt::Display for Concession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Concession::ReducedLevels { tenant, from, to } => {
                write!(f, "tenant '{tenant}': quantization {from} -> {to} levels")
            }
            Concession::StrictMerged { upper_level } => write!(
                f,
                "strict levels {upper_level}/{} merged: isolation now best-effort",
                upper_level + 1
            ),
        }
    }
}

/// The compiler's output: what will run, what was given up, and what still
/// holds.
#[derive(Debug)]
pub struct CompiledDeployment {
    /// The (possibly degraded) joint policy actually deployed.
    pub joint: JointPolicy,
    /// The (possibly degraded) operator policy it implements.
    pub policy: Policy,
    /// The queue it is deployed onto: a static strict bank of the
    /// hardware's queues over the joint rank span.
    pub backend: Backend,
    /// Concessions made, in the order they were applied (empty = faithful).
    pub concessions: Vec<Concession>,
    /// The verifier's report on the deployed policy.
    pub guarantees: VerifyReport,
}

/// Compile `specs` + `policy` onto `hw`, degrading per the ladder above.
///
/// Fails only when no degradation suffices (e.g. more tenants than
/// hardware rank values, or zero queues).
pub fn compile(
    specs: &[TenantSpec],
    policy: &Policy,
    config: SynthConfig,
    hw: &HardwareModel,
) -> Result<CompiledDeployment> {
    if hw.queues == 0 {
        return Err(QvisorError::Deployment("hardware exposes no queues".into()));
    }
    let mut specs = specs.to_vec();
    let mut policy = policy.clone();
    let mut concessions = Vec::new();

    loop {
        let joint = synthesize(&specs, &policy, config)?;
        let span = joint.output_span();

        // Step 1: shrink the rank span into the hardware's rank width by
        // halving the widest tenants' levels.
        if span.max > hw.max_rank {
            let mut candidates: Vec<(usize, u64)> = policy
                .tenant_names()
                .iter()
                .map(|name| {
                    let idx = specs
                        .iter()
                        .position(|s| &s.name == name)
                        .expect("synthesize validated names");
                    let levels = specs[idx].effective_levels(config.default_levels);
                    (idx, levels)
                })
                .collect();
            candidates.sort_by_key(|&(_, levels)| std::cmp::Reverse(levels));
            let (idx, levels) = candidates[0];
            if levels <= 1 {
                // Even fully flattened tenants don't fit: try structural
                // degradation below before giving up.
                if !degrade_structure(&mut policy, &mut concessions) {
                    return Err(QvisorError::Deployment(format!(
                        "policy needs rank span {span} but hardware caps ranks at {}",
                        hw.max_rank
                    )));
                }
                continue;
            }
            let to = (levels / 2).max(1);
            concessions.push(Concession::ReducedLevels {
                tenant: specs[idx].name.clone(),
                from: levels,
                to,
            });
            specs[idx].levels = Some(to);
            continue;
        }

        // Step 3: fewer queues than strict levels -> merge bottom levels.
        let backend = Backend::StrictStatic {
            queues: hw.queues,
            span,
        };
        if !backend.fits(&joint) {
            let upper = joint.layout.len() - 2;
            merge_bottom_levels(&mut policy);
            concessions.push(Concession::StrictMerged { upper_level: upper });
            continue;
        }

        // Fits: report.
        let guarantees = verify(&joint, &SpecPaths::config());
        return Ok(CompiledDeployment {
            joint,
            policy,
            backend,
            concessions,
            guarantees,
        });
    }
}

/// Step 2 helper: merge the two lowest strict levels; returns false when a
/// single level remains (nothing structural left to give).
fn degrade_structure(policy: &mut Policy, concessions: &mut Vec<Concession>) -> bool {
    if policy.levels.len() > 1 {
        let upper = policy.levels.len() - 2;
        merge_bottom_levels(policy);
        concessions.push(Concession::StrictMerged { upper_level: upper });
        return true;
    }
    false
}

/// Merge the two lowest strict levels into one preference chain (the upper
/// keeps best-effort priority over the lower).
fn merge_bottom_levels(policy: &mut Policy) {
    debug_assert!(policy.levels.len() > 1);
    let last = policy.levels.pop().expect("len > 1");
    let target = policy.levels.last_mut().expect("len > 1");
    target.groups.extend(last.groups);
}

#[cfg(test)]
mod tests {
    use super::*;
    use qvisor_ranking::RankRange;
    use qvisor_sim::TenantId;

    fn specs() -> Vec<TenantSpec> {
        vec![
            TenantSpec::new(TenantId(1), "T1", "pFabric", RankRange::new(0, 1 << 20))
                .with_levels(4_096),
            TenantSpec::new(TenantId(2), "T2", "EDF", RankRange::new(0, 10_000)).with_levels(1_024),
            TenantSpec::new(TenantId(3), "T3", "FQ", RankRange::new(0, 1_000)).with_levels(64),
        ]
    }

    #[test]
    fn faithful_when_hardware_suffices() {
        let policy = Policy::parse("T1 >> T2 + T3").unwrap();
        let hw = HardwareModel {
            queues: 8,
            max_rank: 1 << 20,
        };
        let out = compile(&specs(), &policy, SynthConfig::default(), &hw).unwrap();
        assert!(out.concessions.is_empty());
        assert!(out.guarantees.guarantees_hold());
        assert_eq!(out.policy.to_string(), "T1 >> T2 + T3");
    }

    #[test]
    fn narrow_rank_field_reduces_levels() {
        let policy = Policy::parse("T1 >> T2 + T3").unwrap();
        let hw = HardwareModel {
            queues: 8,
            max_rank: 255, // 8-bit rank field
        };
        let out = compile(&specs(), &policy, SynthConfig::default(), &hw).unwrap();
        assert!(!out.concessions.is_empty());
        assert!(out
            .concessions
            .iter()
            .all(|c| matches!(c, Concession::ReducedLevels { .. })));
        assert!(out.joint.output_span().max <= 255);
        // Strict isolation survives level reduction.
        assert!(out.guarantees.guarantees_hold());
        // T1, the widest tenant, paid the most.
        let t1_cuts = out
            .concessions
            .iter()
            .filter(|c| matches!(c, Concession::ReducedLevels { tenant, .. } if tenant == "T1"))
            .count();
        assert!(t1_cuts >= 1);
    }

    #[test]
    fn too_few_queues_merges_strict_levels() {
        // Five strict levels onto two queues: three merges required.
        let specs: Vec<TenantSpec> = (1..=5)
            .map(|i| {
                TenantSpec::new(TenantId(i), format!("T{i}"), "alg", RankRange::new(0, 100))
                    .with_levels(8)
            })
            .collect();
        let policy = Policy::parse("T1 >> T2 >> T3 >> T4 >> T5").unwrap();
        let hw = HardwareModel {
            queues: 2,
            max_rank: u32::MAX as u64,
        };
        let out = compile(&specs, &policy, SynthConfig::default(), &hw).unwrap();
        let merges = out
            .concessions
            .iter()
            .filter(|c| matches!(c, Concession::StrictMerged { .. }))
            .count();
        assert_eq!(merges, 3);
        assert_eq!(out.joint.layout.len(), 2);
        let span = out.joint.output_span();
        assert_eq!(out.backend, Backend::StrictStatic { queues: 2, span });
        assert!(out.backend.fits(&out.joint));
        // The surviving strict boundary is still verified isolated; the
        // merged levels became best-effort (overlapping) preferences, so
        // some guarantees are intentionally weaker — but the verifier still
        // reports overlap where overlap is now expected.
        assert!(out.guarantees.guarantees_hold());
        assert_eq!(out.policy.to_string(), "T1 >> T2 > T3 > T4 > T5");
    }

    #[test]
    fn tiny_rank_field_flattens_tenants_but_fits() {
        // 3-bit rank field: tenants are flattened down to very few levels,
        // yet the strict structure survives in [0, 7].
        let policy = Policy::parse("T1 > T2 >> T3").unwrap();
        let hw = HardwareModel {
            queues: 2,
            max_rank: 7,
        };
        let out = compile(&specs(), &policy, SynthConfig::default(), &hw).unwrap();
        assert!(out.joint.output_span().max <= 7);
        assert!(out
            .concessions
            .iter()
            .any(|c| matches!(c, Concession::ReducedLevels { .. })));
        assert!(out.guarantees.guarantees_hold());
    }

    #[test]
    fn tenant_count_is_a_hard_lower_bound_on_rank_values() {
        // N tenants can never fit in fewer than N rank values: even fully
        // flattened, strict stacking, preference chains, and share strides
        // all need one distinct rank per tenant. The compiler must report
        // failure below the bound and fit exactly at it with no structural
        // concessions.
        let specs: Vec<TenantSpec> = (1..=12)
            .map(|i| {
                TenantSpec::new(TenantId(i), format!("T{i}"), "alg", RankRange::new(0, 1))
                    .with_levels(1)
            })
            .collect();
        let names: Vec<String> = specs.iter().map(|s| s.name.clone()).collect();
        let policy = Policy::parse(&names.join(" >> ")).unwrap();
        let hw = HardwareModel {
            queues: 16,
            max_rank: 10, // one below the 12-tenant bound
        };
        let err = compile(&specs, &policy, SynthConfig::default(), &hw).unwrap_err();
        assert!(matches!(err, QvisorError::Deployment(_)));
        let hw = HardwareModel {
            queues: 16,
            max_rank: 11, // exactly 12 rank values
        };
        let out = compile(&specs, &policy, SynthConfig::default(), &hw).unwrap();
        assert!(out.concessions.is_empty());
        assert_eq!(out.joint.output_span().max, 11);
        assert!(out.guarantees.guarantees_hold());
    }

    #[test]
    fn impossible_hardware_is_an_error() {
        let policy = Policy::parse("T1 >> T2 + T3").unwrap();
        let hw = HardwareModel {
            queues: 0,
            max_rank: 100,
        };
        assert!(matches!(
            compile(&specs(), &policy, SynthConfig::default(), &hw),
            Err(QvisorError::Deployment(_))
        ));
        // One rank value for three tenants cannot work.
        let hw = HardwareModel {
            queues: 4,
            max_rank: 0,
        };
        assert!(compile(&specs(), &policy, SynthConfig::default(), &hw).is_err());
    }

    #[test]
    fn concessions_display_readably() {
        let c = Concession::ReducedLevels {
            tenant: "T1".into(),
            from: 64,
            to: 32,
        };
        assert!(c.to_string().contains("64 -> 32"));
        assert!(Concession::StrictMerged { upper_level: 0 }
            .to_string()
            .contains("best-effort"));
    }
}
