//! The deployment gate: the one place that decides whether a joint policy
//! may be deployed, judged on the [`Target`] it is deployed onto. [`admit`]
//! is its only door, and [`Admitted`] — which nothing else can make — is
//! what every deploy site takes.

use super::{verify_on, SpecPaths, VerifyReport};
use crate::backend::Target;
use crate::synth::JointPolicy;
use std::fmt;

/// A joint policy the deployment gate admitted: the policy, the verifier's
/// report on it, the target it was judged on and the strictness it was
/// admitted under. Only [`admit`] (and [`Admitted::regate`], which can only
/// tighten) makes one.
#[derive(Clone, Debug)]
pub struct Admitted {
    joint: JointPolicy,
    report: VerifyReport,
    target: Target,
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

    /// The target it was judged on. A runtime re-synthesis that replaces
    /// this deployment is judged on the same one.
    pub fn target(&self) -> &Target {
        &self.target
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

    /// Judge the same report (on the same target) again at
    /// `deny_warnings`: a deployment made under a laxer gate is refused
    /// where the stricter one fails it. A laxer `deny_warnings` keeps the
    /// stricter level the token carries.
    pub fn regate(self, deny_warnings: bool) -> Result<Admitted, Refused> {
        let deny_warnings = self.deny_warnings || deny_warnings;
        judge(self.joint, self.report, self.target, deny_warnings)
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

/// The deployment gate: verify `joint` deployed onto `target` (spans
/// rooted at `paths`) and admit it unless the report fails at
/// `deny_warnings` ([`VerifyReport::gate_fails`]).
pub fn admit(
    joint: JointPolicy,
    target: &Target,
    paths: &SpecPaths,
    deny_warnings: bool,
) -> Result<Admitted, Refused> {
    let report = verify_on(&joint, target, paths);
    judge(joint, report, *target, deny_warnings)
}

fn judge(
    joint: JointPolicy,
    report: VerifyReport,
    target: Target,
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
        target,
        deny_warnings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Backend, PreprocScope};
    use crate::policy::Policy;
    use crate::spec::{SynthConfig, TenantSpec};
    use crate::synth::synthesize;
    use crate::verify::{DiagCode, Severity};
    use qvisor_ranking::RankRange;
    use qvisor_sim::{Rank, TenantId};

    fn joint(policy: &str, config: SynthConfig) -> JointPolicy {
        let specs = [
            TenantSpec::new(TenantId(1), "T1", "pFabric", RankRange::new(0, 1_000)),
            TenantSpec::new(TenantId(2), "T2", "EDF", RankRange::new(0, 100)),
        ];
        synthesize(&specs, &Policy::parse(policy).unwrap(), config).unwrap()
    }

    fn admit_on_pifo(joint: JointPolicy, deny_warnings: bool) -> Result<Admitted, Refused> {
        admit(
            joint,
            &Target::default(),
            &SpecPaths::config(),
            deny_warnings,
        )
    }

    #[test]
    fn the_gate_admits_what_the_report_passes_and_carries_its_strictness() {
        let admitted = admit_on_pifo(joint("T1 >> T2", SynthConfig::default()), true).unwrap();
        assert!(admitted.deny_warnings());
        assert_eq!(*admitted.target(), Target::default());
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
            let refused = admit_on_pifo(joint("T1 >> T2", saturating), deny)
                .expect_err("an overflowing policy is refused");
            assert!(refused.report.has_errors());
            assert!(refused.codes().contains(&"QV-OVERFLOW"), "{refused}");
        }
        // T2 is unscheduled: a warning.
        let warned = || joint("T1", SynthConfig::default());
        let lax = admit_on_pifo(warned(), false).unwrap();
        assert!(!lax.deny_warnings());
        let refused = admit_on_pifo(warned(), true).err().unwrap();
        assert_eq!(refused.codes(), ["QV-UNSCHEDULED"]);
        assert_eq!(
            refused.to_string(),
            "the verification gate refused the policy: QV-UNSCHEDULED"
        );
        // Re-gating tightens, and never loosens.
        let tightened = lax.clone().regate(true).err().unwrap();
        assert_eq!(tightened.codes(), ["QV-UNSCHEDULED"]);
        assert!(!lax.clone().regate(false).unwrap().deny_warnings());
        let strict = admit_on_pifo(joint("T1 >> T2", SynthConfig::default()), true).unwrap();
        assert!(strict.regate(false).unwrap().deny_warnings());
    }

    #[test]
    fn a_strict_bank_short_of_queues_is_refused_at_its_scheduler() {
        let span = RankRange::new(0, 99);
        let short = Target {
            host_scheduler: Some(Backend::StrictStatic { queues: 1, span }),
            ..Target::default()
        };
        let refused = admit(
            joint("T1 >> T2", SynthConfig::default()),
            &short,
            &SpecPaths::scenario(),
            false,
        )
        .err()
        .unwrap();
        assert_eq!(refused.codes(), ["QV-STRICT-QUEUES"]);
        let d = &refused.report.diagnostics[0];
        assert_eq!(d.span, "host_scheduler.strict_static.queues");
        assert!(d.message.contains("1 queue(s)") && d.message.contains("2 strict levels"));
        // Enough queues, or a bank SP-PIFO maps: nothing to say.
        for scheduler in [
            Backend::StrictStatic { queues: 2, span },
            Backend::SpPifo { queues: 1 },
        ] {
            let target = Target {
                scheduler,
                ..Target::default()
            };
            let paths = SpecPaths::with_prefix("base.qvisor.");
            let admitted = admit(
                joint("T1 >> T2", SynthConfig::default()),
                &target,
                &paths,
                true,
            );
            assert_eq!(*admitted.unwrap().target(), target);
        }
    }

    #[test]
    fn raw_ranks_at_the_hosts_warn_per_crossing_strict_pair() {
        let scoped = |scope, host_scheduler| Target {
            scope,
            host_scheduler,
            ..Target::default()
        };
        let switches_only = scoped(PreprocScope::SwitchesOnly, None);
        let admitted = admit(
            joint("T2 >> T1", SynthConfig::default()),
            &switches_only,
            &SpecPaths::scenario(),
            false,
        )
        .unwrap();
        let report = admitted.report();
        assert!(!report.guarantees_hold());
        let d = (report.diagnostics.iter())
            .find(|d| d.code == DiagCode::HostRaw)
            .expect("a raw-rank warning");
        assert_eq!(
            (d.severity, d.span.as_str()),
            (Severity::Warning, "qvisor.scope")
        );
        let w = d.witness.expect("a raw witness");
        // T2's largest raw rank sits above T1's smallest: outputs are inputs.
        assert_eq!(
            (w.input_a, w.output_a, w.input_b, w.output_b),
            (100, 100, 0, 0)
        );
        assert_eq!(
            admitted.regate(true).err().unwrap().codes(),
            ["QV-HOST-RAW"]
        );
        // FIFO NICs do not order by rank; transformed ranks travel with the
        // packet from the first hop.
        for target in [
            scoped(PreprocScope::SwitchesOnly, Some(Backend::Fifo)),
            scoped(PreprocScope::FirstHopOnly, None),
            Target::default(),
        ] {
            let joint = joint("T2 >> T1", SynthConfig::default());
            let admitted = admit(joint, &target, &SpecPaths::scenario(), true).unwrap();
            assert!(admitted.report().guarantees_hold(), "{target:?}");
        }
    }
}
