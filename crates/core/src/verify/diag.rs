//! Structured diagnostics for the static verifier.
//!
//! Every finding is a [`Diagnostic`]: a stable code, a severity, a *span*
//! (the dotted spec path of the construct at fault, matching the scenario
//! codec's error paths), a message, and — for every refuted ordering or
//! overflow property — a concrete [`Witness`] pair of input ranks that
//! demonstrates the violation when fed through the actual chain.

use qvisor_sim::json::Value;
use qvisor_sim::Rank;
use std::fmt;

/// How serious a finding is.
///
/// Ordered: `Info < Warning < Error`. The engine gate fails on `Error`
/// always and on `Warning` under `--deny-warnings`; `Info` never gates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Expected, quantified precision loss (e.g. quantization collisions).
    Info,
    /// Suspicious but not a proven guarantee violation.
    Warning,
    /// A refuted property, carrying a concrete witness where one exists.
    Error,
}

impl Severity {
    /// Lower-case label used in text and JSONL renderings.
    pub fn as_str(&self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// Stable diagnostic codes (the contract the mutation suite tests against).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiagCode {
    /// Chain arithmetic saturates at `Rank::MAX` on declared inputs.
    Overflow,
    /// A clamp (or normalize input bound) cuts into the declared range.
    ClampEngaged,
    /// The chain is not order-preserving on the declared range.
    NonMonotone,
    /// Distinct inputs collapse beyond what quantization permits
    /// (saturation or boundary collisions, not the quantize step itself).
    OrderCollapse,
    /// Quantize-step collision bound (how many distinct input ranks can
    /// land on one output rank). Expected whenever levels < range width.
    QuantCollision,
    /// Two tenants separated by `>>` have overlapping output spans.
    StrictOverlap,
    /// Two tenants separated by `>>` are disjoint but in the wrong order.
    StrictOrder,
    /// A `+` share group fails to interleave within its band.
    ShareBand,
    /// A `>` preference degenerated to strict isolation (bias too large).
    PreferDegenerate,
    /// A declared tenant does not appear in the policy.
    Unscheduled,
    /// A static strict bank has fewer queues than the policy has strict
    /// levels: the banded allocator cannot give each level its own queue.
    StrictQueues,
    /// Host NIC queues order packets by raw tenant ranks (the
    /// pre-processor runs only at switches), and two tenants `>>` places
    /// apart declare ranks that cross there.
    HostRaw,
}

impl DiagCode {
    /// Every diagnostic code, in declaration order. Lets tooling (the
    /// fuzz corpus naming contract, doc generators) enumerate the stable
    /// code strings without hand-maintaining a parallel list.
    pub const ALL: [DiagCode; 12] = [
        DiagCode::Overflow,
        DiagCode::ClampEngaged,
        DiagCode::NonMonotone,
        DiagCode::OrderCollapse,
        DiagCode::QuantCollision,
        DiagCode::StrictOverlap,
        DiagCode::StrictOrder,
        DiagCode::ShareBand,
        DiagCode::PreferDegenerate,
        DiagCode::Unscheduled,
        DiagCode::StrictQueues,
        DiagCode::HostRaw,
    ];

    /// The stable code string.
    pub fn as_str(&self) -> &'static str {
        match self {
            DiagCode::Overflow => "QV-OVERFLOW",
            DiagCode::ClampEngaged => "QV-CLAMP",
            DiagCode::NonMonotone => "QV-NONMONO",
            DiagCode::OrderCollapse => "QV-COLLAPSE",
            DiagCode::QuantCollision => "QV-QUANT",
            DiagCode::StrictOverlap => "QV-STRICT-OVERLAP",
            DiagCode::StrictOrder => "QV-STRICT-ORDER",
            DiagCode::ShareBand => "QV-SHARE-BAND",
            DiagCode::PreferDegenerate => "QV-PREF-DEGENERATE",
            DiagCode::Unscheduled => "QV-UNSCHEDULED",
            DiagCode::StrictQueues => "QV-STRICT-QUEUES",
            DiagCode::HostRaw => "QV-HOST-RAW",
        }
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A concrete pair of input ranks demonstrating a violation.
///
/// For intra-tenant findings both inputs go through the same chain; for
/// cross-tenant findings `a` is the higher-priority tenant's input and `b`
/// the lower-priority tenant's. In every case the outputs are actual
/// `TransformChain::apply` results, re-checkable by the reader.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Witness {
    /// First input rank.
    pub input_a: Rank,
    /// `chain(input_a)`.
    pub output_a: Rank,
    /// Second input rank.
    pub input_b: Rank,
    /// `chain(input_b)`.
    pub output_b: Rank,
}

impl fmt::Display for Witness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "f({}) = {} vs f({}) = {}",
            self.input_a, self.output_a, self.input_b, self.output_b
        )
    }
}

/// One verifier finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: DiagCode,
    /// Severity (usually the code's default; witness-less refutations are
    /// downgraded to warnings).
    pub severity: Severity,
    /// Dotted spec path of the construct at fault (e.g.
    /// `qvisor.tenants.0.levels`), matching the scenario codec's paths.
    pub span: String,
    /// Human-readable explanation.
    pub message: String,
    /// Concrete demonstrating input pair, when one was found and verified.
    pub witness: Option<Witness>,
}

impl Diagnostic {
    /// Render as one JSONL object.
    pub fn to_value(&self) -> Value {
        let mut v = Value::object()
            .set("type", "diag")
            .set("code", self.code.as_str())
            .set("severity", self.severity.as_str())
            .set("span", self.span.as_str())
            .set("message", self.message.as_str());
        if let Some(w) = &self.witness {
            v = v.set(
                "witness",
                Value::object()
                    .set("input_a", w.input_a)
                    .set("output_a", w.output_a)
                    .set("input_b", w.input_b)
                    .set("output_b", w.output_b),
            );
        }
        v
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} at {}: {}",
            self.severity.as_str(),
            self.code,
            self.span,
            self.message
        )?;
        if let Some(w) = &self.witness {
            write!(f, " [witness: {w}]")?;
        }
        Ok(())
    }
}
