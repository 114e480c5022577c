//! The deployment gate: the one place that decides whether a joint policy
//! may be deployed. [`admit`] is its only door, and [`Admitted`] — which
//! nothing else can make — is what every deploy site takes.

use super::{verify, SpecPaths, VerifyReport};
use crate::synth::JointPolicy;
use std::fmt;

/// A joint policy the deployment gate admitted: the policy, the verifier's
/// report on it, and the strictness it was admitted under. Only [`admit`]
/// (and [`Admitted::regate`], which can only tighten) makes one.
#[derive(Clone, Debug)]
pub struct Admitted {
    joint: JointPolicy,
    report: VerifyReport,
    deny_warnings: bool,
}

impl Admitted {
    /// The admitted joint policy.
    pub fn joint(&self) -> &JointPolicy {
        &self.joint
    }

    /// The verifier's report the gate judged.
    pub fn report(&self) -> &VerifyReport {
        &self.report
    }

    /// Was it admitted with warnings refused? A runtime re-synthesis that
    /// replaces this deployment is judged at the same strictness.
    pub fn deny_warnings(&self) -> bool {
        self.deny_warnings
    }

    /// The verifier's report, by value (the token is spent).
    pub fn into_report(self) -> VerifyReport {
        self.report
    }

    /// Judge the same report again at `deny_warnings`: a deployment made
    /// under a laxer gate is refused where the stricter one fails it. A
    /// laxer `deny_warnings` keeps the stricter level the token carries.
    pub fn regate(self, deny_warnings: bool) -> Result<Admitted, Refused> {
        judge(self.joint, self.report, self.deny_warnings || deny_warnings)
    }
}

/// A joint policy the gate refused, with the report that refuses it.
#[derive(Clone, Debug)]
pub struct Refused {
    /// The refused joint policy (boxed: a refusal is the rare, cold case).
    pub joint: Box<JointPolicy>,
    /// The verifier's report on it.
    pub report: VerifyReport,
}

impl Refused {
    /// The distinct codes of the findings a gate prints (warning or
    /// worse), most severe first.
    pub fn codes(&self) -> Vec<&'static str> {
        let mut codes: Vec<&'static str> = Vec::new();
        for code in self.report.gate_findings().map(|d| d.code.as_str()) {
            if !codes.contains(&code) {
                codes.push(code);
            }
        }
        codes
    }
}

impl fmt::Display for Refused {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "the verification gate refused the policy: {}",
            self.codes().join(", ")
        )
    }
}

/// The deployment gate: verify `joint` (spans rooted at `paths`) and admit
/// it unless the report fails at `deny_warnings`
/// ([`VerifyReport::gate_fails`]).
pub fn admit(
    joint: JointPolicy,
    paths: &SpecPaths,
    deny_warnings: bool,
) -> Result<Admitted, Refused> {
    let report = verify(&joint, paths);
    judge(joint, report, deny_warnings)
}

fn judge(
    joint: JointPolicy,
    report: VerifyReport,
    deny_warnings: bool,
) -> Result<Admitted, Refused> {
    if report.gate_fails(deny_warnings) {
        return Err(Refused {
            joint: Box::new(joint),
            report,
        });
    }
    Ok(Admitted {
        joint,
        report,
        deny_warnings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;
    use crate::spec::{SynthConfig, TenantSpec};
    use crate::synth::synthesize;
    use qvisor_ranking::RankRange;
    use qvisor_sim::{Rank, TenantId};

    fn joint(policy: &str, config: SynthConfig) -> JointPolicy {
        let specs = [
            TenantSpec::new(TenantId(1), "T1", "pFabric", RankRange::new(0, 1_000)),
            TenantSpec::new(TenantId(2), "T2", "EDF", RankRange::new(0, 100)),
        ];
        synthesize(&specs, &Policy::parse(policy).unwrap(), config).unwrap()
    }

    #[test]
    fn the_gate_admits_what_the_report_passes_and_carries_its_strictness() {
        let admitted = admit(
            joint("T1 >> T2", SynthConfig::default()),
            &SpecPaths::config(),
            true,
        )
        .unwrap();
        assert!(admitted.deny_warnings());
        assert!(!admitted.report().gate_fails(true));
        assert_eq!(admitted.joint().policy.to_string(), "T1 >> T2");
    }

    #[test]
    fn errors_refuse_at_any_strictness_and_warnings_only_when_denied() {
        let saturating = SynthConfig {
            first_rank: Rank::MAX - 5,
            ..SynthConfig::default()
        };
        for deny in [false, true] {
            let refused = admit(joint("T1 >> T2", saturating), &SpecPaths::config(), deny)
                .expect_err("an overflowing policy is refused");
            assert!(refused.report.has_errors());
            assert!(refused.codes().contains(&"QV-OVERFLOW"), "{refused}");
        }
        // T2 is unscheduled: a warning.
        let warned = || joint("T1", SynthConfig::default());
        let lax = admit(warned(), &SpecPaths::config(), false).unwrap();
        assert!(!lax.deny_warnings());
        let refused = admit(warned(), &SpecPaths::config(), true).err().unwrap();
        assert_eq!(refused.codes(), ["QV-UNSCHEDULED"]);
        assert_eq!(
            refused.to_string(),
            "the verification gate refused the policy: QV-UNSCHEDULED"
        );
        // Re-gating tightens, and never loosens.
        let tightened = lax.clone().regate(true).err().unwrap();
        assert_eq!(tightened.codes(), ["QV-UNSCHEDULED"]);
        assert!(!lax.clone().regate(false).unwrap().deny_warnings());
        let strict = admit(
            joint("T1 >> T2", SynthConfig::default()),
            &SpecPaths::config(),
            true,
        )
        .unwrap();
        assert!(strict.regate(false).unwrap().deny_warnings());
    }
}
