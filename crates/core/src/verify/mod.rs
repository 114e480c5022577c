//! `qvisor check` — static verification of synthesized policies (§2,
//! Idea 2: "worst-case static analysis").
//!
//! The one checker every entry point asks — `check`, `analyze`, `synth`,
//! `run`, `sweep`, `serve` and [`crate::compile()`]. It *proves or
//! refutes* a synthesized [`JointPolicy`]'s guarantees before a single
//! packet is simulated:
//!
//! 1. **Interval abstract interpretation** (`interval`): each tenant's
//!    chain is executed over its declared input [`RankRange`], proving it
//!    overflow-free (no `Rank::MAX` saturation) and flagging engaged
//!    clamps.
//! 2. **Monotonicity** (`monotone`): each chain is proven
//!    order-preserving — strictly monotone where the quantization step
//!    permits — with a computed collision bound for quantize steps.
//! 3. **Isolation** (`isolation`): `>>` levels have pairwise-disjoint,
//!    correctly ordered output spans; `+` share groups interleave within
//!    their band; `>` preferences overlap.
//! 4. **The deployment target** (`target`, judged by [`admit`]): a static
//!    strict bank has a queue per strict level, and host queues that order
//!    raw ranks (`switches_only`) do not invert a `>>` pair.
//!
//! Every refuted property is reported as a [`Diagnostic`] whose span is a
//! dotted spec path (the same paths the scenario codec uses in its
//! errors), and carries a concrete [`Witness`] input pair that demonstrably
//! violates the property through the real `TransformChain::apply`.
//! Structural suspicions with no reachable witness are downgraded to
//! warnings, so errors are re-checkable by construction (a strict bank
//! short of queues is re-checked by counting).
//!
//! [`admit`] is the deployment gate over that report: the only maker of
//! the [`Admitted`] token every deploy site takes.

pub mod diag;
mod gate;
mod interval;
mod isolation;
mod monotone;
mod target;

pub use diag::{DiagCode, Diagnostic, Severity, Witness};
pub use gate::{admit, Admitted, Refused};
pub use interval::{analyze_chain, ChainAnalysis, OpReport};
pub use monotone::{check_chain, ChainCheck};

use crate::backend::Target;
use crate::synth::JointPolicy;
use qvisor_ranking::RankRange;
use qvisor_sim::json::Value;
use qvisor_sim::{Rank, TenantId};
use std::fmt;

/// Maps verifier subjects onto dotted spec paths, so diagnostics point at
/// the same locations the codec's field errors do.
#[derive(Clone, Debug)]
pub struct SpecPaths {
    prefix: String,
}

impl SpecPaths {
    /// Paths for a raw deployment config (`tenants.N`, `policy`, `synth`).
    pub fn config() -> SpecPaths {
        SpecPaths::with_prefix("")
    }

    /// Paths for a scenario file (`qvisor.tenants.N`, `qvisor.policy`, ...).
    pub fn scenario() -> SpecPaths {
        SpecPaths::with_prefix("qvisor.")
    }

    /// Paths under an arbitrary prefix (e.g. `base.qvisor.` inside a sweep
    /// document). The prefix must end with `.` unless empty.
    pub fn with_prefix(prefix: impl Into<String>) -> SpecPaths {
        SpecPaths {
            prefix: prefix.into(),
        }
    }

    /// Path of the `index`-th tenant declaration.
    pub fn tenant(&self, index: usize) -> String {
        format!("{}tenants.{index}", self.prefix)
    }

    /// Path of the policy string.
    pub fn policy(&self) -> String {
        format!("{}policy", self.prefix)
    }

    /// Path of the synthesizer options.
    pub fn synth(&self) -> String {
        format!("{}synth", self.prefix)
    }

    /// Path of the pre-processor scope.
    pub fn scope(&self) -> String {
        format!("{}scope", self.prefix)
    }

    /// Prefix of the document the `qvisor` block sits in (the prefix
    /// without its `qvisor.`): where the schedulers' paths start.
    pub fn root(&self) -> &str {
        self.prefix.strip_suffix("qvisor.").unwrap_or(&self.prefix)
    }
}

/// One tenant's verified placement.
#[derive(Clone, Debug)]
pub struct TenantVerify {
    /// The tenant.
    pub tenant: TenantId,
    /// Name from the spec.
    pub name: String,
    /// Dotted spec path of the tenant's declaration.
    pub path: String,
    /// Strict level index (0 = highest priority).
    pub level: usize,
    /// Preference group index within the level.
    pub group: usize,
    /// Declared input rank range.
    pub declared: RankRange,
    /// Sound output interval through the chain.
    pub output: RankRange,
    /// Concrete `(input, output)` attaining the smallest observed output.
    pub observed_min: (Rank, Rank),
    /// Concrete `(input, output)` attaining the largest observed output.
    pub observed_max: (Rank, Rank),
    /// Proven order-preserving on the declared range.
    pub order_preserving: bool,
    /// Proven strictly monotone (no collisions at all).
    pub strictly_monotone: bool,
    /// No `Rank::MAX` saturation on the declared range.
    pub overflow_free: bool,
    /// Upper bound on inputs collapsing onto one output rank.
    pub collision_bound: u64,
}

/// The verifier's full report.
#[derive(Clone, Debug, Default)]
pub struct VerifyReport {
    /// Per-tenant verdicts, layout order.
    pub tenants: Vec<TenantVerify>,
    /// All findings, most severe first (stable within a severity).
    pub diagnostics: Vec<Diagnostic>,
}

impl VerifyReport {
    /// A report with nothing to say (e.g. a scenario without QVISOR).
    pub fn empty() -> VerifyReport {
        VerifyReport::default()
    }

    /// Number of findings at exactly `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Any error-severity findings?
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// The most severe finding, if any.
    pub fn worst(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// Should a gate reject this report? Errors always fail; warnings fail
    /// under `deny_warnings`; infos never do.
    pub fn gate_fails(&self, deny_warnings: bool) -> bool {
        match self.worst() {
            Some(Severity::Error) => true,
            Some(Severity::Warning) => deny_warnings,
            _ => false,
        }
    }

    /// Do the operator's guarantees hold? No finding is an error, and no
    /// relation the policy states — `>>` disjoint and ordered, `+`
    /// interleaved in its band, `>` overlapping — is flagged at any
    /// severity (a witness-less suspicion still voids the proof). Stricter
    /// than `!gate_fails(false)` on relations, laxer than
    /// `!gate_fails(true)` on unscheduled tenants.
    pub fn guarantees_hold(&self) -> bool {
        self.diagnostics.iter().all(|d| {
            d.severity < Severity::Error
                && !matches!(
                    d.code,
                    DiagCode::StrictOverlap
                        | DiagCode::StrictOrder
                        | DiagCode::ShareBand
                        | DiagCode::PreferDegenerate
                        | DiagCode::HostRaw
                )
        })
    }

    /// Findings at `Warning` or above (what a warn-by-default gate prints).
    pub fn gate_findings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity >= Severity::Warning)
    }

    /// Render the full report as text (one line per tenant and finding).
    pub fn render_text(&self) -> String {
        self.to_string()
    }

    /// Render as JSONL: one `tenant` line per tenant, one `diag` line per
    /// finding, and a trailing `verify_summary` line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for t in &self.tenants {
            let v = Value::object()
                .set("type", "tenant")
                .set("tenant", t.tenant.0)
                .set("name", t.name.as_str())
                .set("path", t.path.as_str())
                .set("level", t.level)
                .set("group", t.group)
                .set(
                    "declared",
                    Value::object()
                        .set("min", t.declared.min)
                        .set("max", t.declared.max),
                )
                .set(
                    "output",
                    Value::object()
                        .set("min", t.output.min)
                        .set("max", t.output.max),
                )
                .set("order_preserving", t.order_preserving)
                .set("strictly_monotone", t.strictly_monotone)
                .set("overflow_free", t.overflow_free)
                .set("collision_bound", t.collision_bound);
            out.push_str(&v.to_compact());
            out.push('\n');
        }
        for d in &self.diagnostics {
            out.push_str(&d.to_value().to_compact());
            out.push('\n');
        }
        let summary = Value::object()
            .set("type", "verify_summary")
            .set("errors", self.count(Severity::Error))
            .set("warnings", self.count(Severity::Warning))
            .set("infos", self.count(Severity::Info));
        out.push_str(&summary.to_compact());
        out.push('\n');
        out
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "QVISOR policy verification")?;
        writeln!(f, "==========================")?;
        for t in &self.tenants {
            writeln!(
                f,
                "  level {} group {}: {:<12} ({}) declared {} -> output {}, {}{}, \
                 collision bound <= {}",
                t.level,
                t.group,
                t.name,
                t.path,
                t.declared,
                t.output,
                if t.strictly_monotone {
                    "strictly monotone"
                } else if t.order_preserving {
                    "order-preserving"
                } else {
                    "NOT ORDER-PRESERVING"
                },
                if t.overflow_free { "" } else { ", SATURATES" },
                t.collision_bound
            )?;
        }
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        writeln!(
            f,
            "  result: {} error(s), {} warning(s), {} info(s)",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info)
        )
    }
}

/// Statically verify a synthesized policy on the default [`Target`] (a
/// PIFO everywhere). Diagnostics blame the dotted spec paths produced by
/// `paths`.
pub fn verify(joint: &JointPolicy, paths: &SpecPaths) -> VerifyReport {
    verify_on(joint, &Target::default(), paths)
}

/// [`verify`] a policy deployed onto `target`.
fn verify_on(joint: &JointPolicy, target: &Target, paths: &SpecPaths) -> VerifyReport {
    let mut tenants = Vec::new();
    let mut diagnostics = Vec::new();

    let spec_index = |tenant: TenantId| -> usize {
        joint
            .specs
            .iter()
            .position(|s| s.id == tenant)
            .expect("layout members come from specs")
    };

    for (li, level) in joint.layout.iter().enumerate() {
        for (gi, group) in level.groups.iter().enumerate() {
            for member in &group.members {
                let idx = spec_index(member.tenant);
                let spec = &joint.specs[idx];
                let chain = joint.chain(member.tenant).expect("member has a chain");
                let path = paths.tenant(idx);
                let check =
                    check_chain(chain, spec.range, &path, &format!("tenant '{}'", spec.name));
                diagnostics.extend(check.diagnostics);
                tenants.push(TenantVerify {
                    tenant: member.tenant,
                    name: spec.name.clone(),
                    path,
                    level: li,
                    group: gi,
                    declared: spec.range,
                    output: check.analysis.output,
                    observed_min: check.observed_min,
                    observed_max: check.observed_max,
                    order_preserving: check.proved_order_preserving,
                    strictly_monotone: check.analysis.strictly_monotone,
                    overflow_free: !check.analysis.saturates,
                    collision_bound: check.analysis.collision_bound,
                });
            }
        }
    }

    for (idx, spec) in joint.specs.iter().enumerate() {
        if joint.chain(spec.id).is_none() {
            diagnostics.push(Diagnostic {
                code: DiagCode::Unscheduled,
                severity: Severity::Warning,
                span: paths.tenant(idx),
                message: format!(
                    "tenant '{}' has a spec but does not appear in the policy \
                     (its traffic will be treated as unknown)",
                    spec.name
                ),
                witness: None,
            });
        }
    }

    diagnostics.extend(isolation::check_layout(joint, paths, &tenants));
    diagnostics.extend(target::check_target(joint, target, paths, &tenants));

    // Most severe first; insertion order (= layout order) within a
    // severity, so output is deterministic.
    diagnostics.sort_by_key(|d| std::cmp::Reverse(d.severity));

    VerifyReport {
        tenants,
        diagnostics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;
    use crate::spec::{SynthConfig, TenantSpec};
    use crate::synth::synthesize;

    fn specs() -> Vec<TenantSpec> {
        vec![
            TenantSpec::new(TenantId(1), "T1", "pFabric", RankRange::new(0, 100_000)),
            TenantSpec::new(TenantId(2), "T2", "EDF", RankRange::new(0, 10_000)),
            TenantSpec::new(TenantId(3), "T3", "FQ", RankRange::new(0, 50)),
        ]
    }

    fn joint(policy: &str, config: SynthConfig) -> JointPolicy {
        synthesize(&specs(), &Policy::parse(policy).unwrap(), config).unwrap()
    }

    #[test]
    fn healthy_strict_policy_verifies_clean() {
        let report = verify(
            &joint("T1 >> T2 >> T3", SynthConfig::default()),
            &SpecPaths::config(),
        );
        assert!(!report.has_errors());
        assert_eq!(report.count(Severity::Warning), 0);
        // Quantization infos for the wide-range tenants.
        assert!(report.count(Severity::Info) >= 2);
        assert!(!report.gate_fails(true));
        assert!(report.tenants.iter().all(|t| t.order_preserving));
        assert!(report.tenants.iter().all(|t| t.overflow_free));
    }

    #[test]
    fn healthy_mixed_policy_verifies_clean() {
        let report = verify(
            &joint("T1 >> T2 + T3", SynthConfig::default()),
            &SpecPaths::config(),
        );
        assert!(!report.gate_fails(true));
    }

    #[test]
    fn guarantees_hold_on_every_operator_and_fail_on_a_broken_relation() {
        // Strict, share, mixed, preference, an unscheduled tenant (a
        // warning, not a broken relation) and a quantized single tenant.
        for policy in [
            "T1 >> T2 >> T3",
            "T1 + T2 + T3",
            "T1 >> T2 + T3",
            "T1 > T2",
            "T1 >> T2",
            "T1",
        ] {
            let report = verify(&joint(policy, SynthConfig::default()), &SpecPaths::config());
            assert!(report.guarantees_hold(), "{policy}:\n{report}");
        }
        let saturating = SynthConfig {
            first_rank: Rank::MAX - 5,
            ..SynthConfig::default()
        };
        let report = verify(&joint("T1 >> T2", saturating), &SpecPaths::config());
        assert!(!report.guarantees_hold());
        // Two point-range tenants cannot interleave: a share-band warning
        // and no error, which the gate passes but the guarantees do not.
        let point = |id, name| TenantSpec::new(TenantId(id), name, "EDF", RankRange::new(0, 0));
        let specs = [point(1, "A"), point(2, "B")];
        let policy = Policy::parse("A + B").unwrap();
        let joint = synthesize(&specs, &policy, SynthConfig::default()).unwrap();
        let report = verify(&joint, &SpecPaths::config());
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == DiagCode::ShareBand));
        assert!(!report.gate_fails(false) && !report.guarantees_hold());
    }

    #[test]
    fn paths_point_at_tenant_declarations() {
        let report = verify(&joint("T1", SynthConfig::default()), &SpecPaths::scenario());
        assert_eq!(report.tenants[0].path, "qvisor.tenants.0");
        let info = report
            .diagnostics
            .iter()
            .find(|d| d.code == DiagCode::QuantCollision)
            .expect("quantization info");
        assert_eq!(info.span, "qvisor.tenants.0");
    }

    #[test]
    fn unscheduled_tenant_warned_at_its_path() {
        let report = verify(
            &joint("T1 >> T2", SynthConfig::default()),
            &SpecPaths::config(),
        );
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == DiagCode::Unscheduled)
            .expect("unscheduled warning");
        assert_eq!(d.span, "tenants.2");
        assert!(report.gate_fails(true));
        assert!(!report.gate_fails(false));
    }

    #[test]
    fn saturating_first_rank_refutes_isolation_with_witnesses() {
        // Shifting every band to the top of the rank space pins both
        // tenants' outputs at Rank::MAX: overflow per tenant, and the
        // strict boundary collapses with a concrete cross-tenant witness.
        let config = SynthConfig {
            first_rank: Rank::MAX - 5,
            ..SynthConfig::default()
        };
        let report = verify(&joint("T1 >> T2", config), &SpecPaths::scenario());
        assert!(report.has_errors());
        let overflow = report
            .diagnostics
            .iter()
            .find(|d| d.code == DiagCode::Overflow && d.severity == Severity::Error)
            .expect("overflow error");
        assert!(overflow.span.starts_with("qvisor.tenants."));
        let w = overflow.witness.expect("overflow witness");
        assert_eq!(w.output_a, w.output_b, "collapse at the ceiling");
        let strict = report
            .diagnostics
            .iter()
            .find(|d| d.code == DiagCode::StrictOverlap && d.severity == Severity::Error)
            .expect("strict overlap error");
        assert_eq!(strict.span, "qvisor.policy");
        let w = strict.witness.expect("cross-tenant witness");
        assert!(
            w.output_a >= w.output_b,
            "higher-priority output must demonstrably not beat lower: {w}"
        );
        assert!(report.gate_fails(false));
    }

    #[test]
    fn jsonl_roundtrips_and_names_codes() {
        let report = verify(
            &joint("T1 >> T2", SynthConfig::default()),
            &SpecPaths::config(),
        );
        let jsonl = report.to_jsonl();
        for line in jsonl.lines() {
            let v = Value::parse(line).expect("every line parses");
            assert!(v.get("type").is_some());
        }
        assert!(jsonl.contains("\"type\":\"verify_summary\""));
        assert!(jsonl.contains("QV-UNSCHEDULED"));
        let text = report.render_text();
        assert!(text.contains("result: 0 error(s), 1 warning(s)"));
    }

    #[test]
    fn diagnostics_sorted_most_severe_first() {
        let config = SynthConfig {
            first_rank: Rank::MAX - 5,
            ..SynthConfig::default()
        };
        let report = verify(&joint("T1 >> T2", config), &SpecPaths::config());
        let severities: Vec<Severity> = report.diagnostics.iter().map(|d| d.severity).collect();
        let mut sorted = severities.clone();
        sorted.sort_by_key(|s| std::cmp::Reverse(*s));
        assert_eq!(severities, sorted);
    }
}
