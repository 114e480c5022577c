//! Deterministic generation of random operator deployments.
//!
//! Every case is a pure function of `(campaign seed, case index)`: the
//! generator draws from `SimRng::seed_from(seed).derive(index).derive(STREAM)`
//! streams only, never from ambient randomness, so any case — including a
//! fuzz-found failure — is reproducible from the two integers printed in
//! the campaign summary.
//!
//! The generator is *adversarial by construction*: a fraction of cases get
//! `first_rank` near `u64::MAX` (forcing saturation / QV-OVERFLOW), a
//! single quantization level over a wide range (QV-COLLAPSE), degenerate
//! point ranges, huge spans, tenants declared but left out of the policy
//! (QV-UNSCHEDULED), and weighted share groups nested under preferences —
//! but it never emits a structurally invalid config: names are unique, the
//! policy only references declared tenants, ranges are ordered, and level
//! overrides are non-zero. Anything the synthesizer rejects outright would
//! be a generator bug and is reported as a disagreement by the oracle.

use qvisor_core::{
    DeploymentConfig, Policy, PrefChain, ShareGroup, SynthOptions, TenantConfig, TenantRef,
};
use qvisor_ranking::RankFnSpec;
use qvisor_sim::SimRng;

/// Default campaign seed used by `qvisor fuzz` when `--seed` is omitted.
pub const DEFAULT_SEED: u64 = 0xF0CC5;

/// RNG stream label for the generator itself.
const STREAM_GEN: u64 = 1;
/// RNG stream label for the queue oracle's input sampling.
pub(crate) const STREAM_ORACLE: u64 = 2;
/// RNG stream label for scenario workload parameters.
pub(crate) const STREAM_SCENARIO: u64 = 3;
/// RNG stream label for the pre-processor oracle's input sampling.
pub(crate) const STREAM_PREPROC: u64 = 4;

/// One generated deployment: the config under test plus the tenant
/// rank-function mix used when the case is materialized into a scenario.
#[derive(Clone, Debug)]
pub struct FuzzCase {
    /// Campaign seed this case was derived from.
    pub seed: u64,
    /// Case index within the campaign.
    pub index: u64,
    /// The deployment under test (tenants + policy + synth options).
    pub config: DeploymentConfig,
    /// Per-tenant rank functions, `(tenant id, spec)`, id order.
    pub rank_fns: Vec<(u16, RankFnSpec)>,
}

impl FuzzCase {
    /// The case's RNG for `stream`, derived the same way regardless of
    /// which thread runs the case.
    pub(crate) fn rng(&self, stream: u64) -> SimRng {
        SimRng::seed_from(self.seed)
            .derive(self.index)
            .derive(stream)
    }
}

/// Draw a declared rank range. Mixes wide, narrow, degenerate-point, and
/// huge spans so interval analysis, quantization, and saturation all get
/// exercised.
fn draw_range(rng: &mut SimRng) -> (u64, u64) {
    match rng.below(6) {
        0 => (0, 10u64.pow(1 + rng.below(5) as u32)),
        1 => {
            let lo = rng.below(10_000);
            (lo, lo + rng.below(64))
        }
        2 => {
            let point = rng.below(1 << 20);
            (point, point) // degenerate: a single declared rank
        }
        3 => (0, (1 << 20) + rng.below(1 << 20)),
        4 => (0, (1 << 40) + rng.below(1 << 40)),
        _ => {
            let lo = rng.below(1000);
            (lo, lo + 1 + rng.below(100_000))
        }
    }
}

/// Draw an optional per-tenant quantization-level override.
fn draw_levels(rng: &mut SimRng) -> Option<u64> {
    match rng.below(4) {
        0 => None,
        1 => Some(1 + rng.below(16)),
        2 => Some(1), // collapses any non-degenerate range: QV-COLLAPSE bait
        _ => Some(2 + rng.below(1022)),
    }
}

/// Draw a rank function consistent with the tenant's declared range.
fn draw_rank_fn(rng: &mut SimRng, rank_min: u64, rank_max: u64) -> RankFnSpec {
    let span = rank_max - rank_min;
    match rng.below(6) {
        0 => RankFnSpec::PFabric {
            unit_bytes: 1 + rng.below(2000),
            max_rank: rank_max,
        },
        1 => RankFnSpec::Edf {
            unit_ns: 1 + rng.below(10_000),
            max_rank: rank_max,
        },
        2 => RankFnSpec::Stfq { max_rank: rank_max },
        3 => RankFnSpec::ByteCountFq {
            unit_bytes: 1 + rng.below(2000),
            max_rank: rank_max,
        },
        4 => RankFnSpec::ArrivalTime {
            unit_ns: 1 + rng.below(10_000),
            max_rank: rank_max,
        },
        _ => RankFnSpec::Constant {
            rank: rank_min + rng.below(span.saturating_add(1).max(1)).min(span),
        },
    }
}

/// Partition the scheduled tenant names into a random policy AST: strict
/// levels of preference chains of weighted share groups.
fn draw_policy(rng: &mut SimRng, scheduled: &[String]) -> Policy {
    let mut levels: Vec<Vec<Vec<TenantRef>>> = vec![vec![vec![]]];
    for name in scheduled {
        let cur_level_used = levels
            .last()
            .is_some_and(|l| l.iter().any(|g| !g.is_empty()));
        let cur_group_used = levels
            .last()
            .and_then(|l| l.last())
            .is_some_and(|g| !g.is_empty());
        match rng.below(8) {
            0 if cur_level_used => levels.push(vec![vec![]]),
            1 | 2 if cur_group_used => levels.last_mut().expect("non-empty").push(vec![]),
            _ => {}
        }
        let weight = if rng.below(3) == 0 {
            2 + rng.below(4) as u32
        } else {
            1
        };
        levels
            .last_mut()
            .expect("non-empty")
            .last_mut()
            .expect("non-empty")
            .push(TenantRef {
                name: name.clone(),
                weight,
            });
    }
    Policy {
        levels: levels
            .into_iter()
            .map(|groups| PrefChain {
                groups: groups
                    .into_iter()
                    .filter(|g| !g.is_empty())
                    .map(|members| ShareGroup { members })
                    .collect(),
            })
            .collect(),
    }
}

/// Render a policy AST back to the surface syntax, with a random (but
/// seed-determined) sprinkling of the optional parentheses around share
/// groups so the parser's grouping extension stays exercised.
fn render_policy(policy: &Policy, rng: &mut SimRng) -> String {
    let levels: Vec<String> = policy
        .levels
        .iter()
        .map(|level| {
            let groups: Vec<String> = level
                .groups
                .iter()
                .map(|group| {
                    let members: Vec<String> = group
                        .members
                        .iter()
                        .map(|m| {
                            if m.weight == 1 {
                                m.name.clone()
                            } else {
                                format!("{}:{}", m.name, m.weight)
                            }
                        })
                        .collect();
                    let joined = members.join(" + ");
                    if group.members.len() > 1 && rng.below(2) == 0 {
                        format!("({joined})")
                    } else {
                        joined
                    }
                })
                .collect();
            groups.join(" > ")
        })
        .collect();
    levels.join(" >> ")
}

/// Generate case `index` of the campaign seeded with `seed`.
pub fn generate_case(seed: u64, index: u64) -> FuzzCase {
    let mut rng = SimRng::seed_from(seed).derive(index).derive(STREAM_GEN);
    let tenant_count = 1 + rng.below(5) as usize;

    let mut tenants = Vec::with_capacity(tenant_count);
    let mut rank_fns = Vec::with_capacity(tenant_count);
    for i in 0..tenant_count {
        let (rank_min, rank_max) = draw_range(&mut rng);
        let id = (i + 1) as u16;
        let algorithm = ["pFabric", "EDF", "STFQ", "FQ", "FIFO+"][rng.below(5) as usize];
        tenants.push(TenantConfig {
            id,
            name: format!("T{}", i + 1),
            algorithm: algorithm.to_string(),
            rank_min,
            rank_max,
            levels: draw_levels(&mut rng),
        });
        rank_fns.push((id, draw_rank_fn(&mut rng, rank_min, rank_max)));
    }

    // Schedule most tenants; leave some out to exercise QV-UNSCHEDULED.
    let mut scheduled: Vec<String> = tenants
        .iter()
        .filter(|_| rng.below(8) != 0)
        .map(|t| t.name.clone())
        .collect();
    if scheduled.is_empty() {
        let pick = rng.below(tenant_count as u64) as usize;
        scheduled.push(tenants[pick].name.clone());
    }

    let ast = draw_policy(&mut rng, &scheduled);
    let policy = render_policy(&ast, &mut rng);

    let synth = SynthOptions {
        default_levels: match rng.below(8) {
            0 => 1,
            1 => 2 + rng.below(6),
            _ => 8 + rng.below(56),
        },
        first_rank: match rng.below(8) {
            0 => u64::MAX - rng.below(4096), // saturation adversary
            1 => (1 << 60) + rng.below(1 << 20),
            2 => 1 + rng.below(1_000_000),
            _ => 0,
        },
        pref_bias_divisor: 1 + rng.below(8),
    };

    FuzzCase {
        seed,
        index,
        config: DeploymentConfig {
            tenants,
            policy,
            synth,
        },
        rank_fns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_policies_round_trip_through_the_parser() {
        for index in 0..256 {
            let case = generate_case(DEFAULT_SEED, index);
            let parsed = Policy::parse(&case.config.policy).unwrap_or_else(|e| {
                panic!(
                    "case {index}: unparseable policy {:?}: {e}",
                    case.config.policy
                )
            });
            // Canonical Display must be stable under re-parse (parens are
            // the only surface variation the renderer introduces).
            assert_eq!(
                Policy::parse(&parsed.to_string()).unwrap(),
                parsed,
                "case {index}"
            );
        }
    }

    #[test]
    fn generation_is_a_pure_function_of_seed_and_index() {
        for index in [0, 1, 17, 999] {
            let a = generate_case(7, index);
            let b = generate_case(7, index);
            assert_eq!(a.config.to_json(), b.config.to_json());
            assert_eq!(a.rank_fns, b.rank_fns);
        }
        let a = generate_case(7, 3);
        let b = generate_case(8, 3);
        assert_ne!(
            (a.config.to_json(), a.rank_fns),
            (b.config.to_json(), b.rank_fns),
            "different seeds should diverge"
        );
    }

    #[test]
    fn every_generated_config_is_structurally_sound() {
        for index in 0..256 {
            let case = generate_case(DEFAULT_SEED, index);
            let names: Vec<&str> = case
                .config
                .tenants
                .iter()
                .map(|t| t.name.as_str())
                .collect();
            let policy = Policy::parse(&case.config.policy).unwrap();
            for name in policy.tenant_names() {
                assert!(names.contains(&name), "case {index}: {name} undeclared");
            }
            assert!(policy.tenant_count() >= 1, "case {index}: empty policy");
            for t in &case.config.tenants {
                assert!(t.rank_min <= t.rank_max, "case {index}");
                assert_ne!(t.levels, Some(0), "case {index}");
            }
            assert!(case.config.synth.default_levels >= 1, "case {index}");
            assert!(case.config.synth.pref_bias_divisor >= 1, "case {index}");
        }
    }
}
