//! Declarative scenarios: a fully serializable description of a
//! simulation run and the engine that materializes it.
//!
//! The layer has four parts:
//!
//! - [`ScenarioSpec`] (`spec`): topology parameters, simulation knobs,
//!   per-port schedulers, the QVISOR setup (tenants, policy, monitor,
//!   synthesizer), rank functions, and workloads — everything needed to
//!   reproduce a run from a single JSON file plus a seed.
//! - the codec (`codec`): a strict JSON round-trip
//!   (`to_json`/`from_json`) that rejects unknown fields and
//!   out-of-range values with named-field errors.
//! - [`Engine`] (`engine`): materializes a spec into a configured
//!   [`crate::Simulation`] and runs it to a [`crate::SimReport`],
//!   optionally wiring telemetry, tracing, and an alternate event-queue
//!   backend.
//! - [`SweepSpec`]/[`run_sweep`] (`sweep`): fans a grid of patched
//!   scenarios across OS threads with deterministic, order-independent
//!   merging; a document's `"view"` ([`SweepView`], `view`) reduces each
//!   point's report to a figure's row and prints the figure's table.

mod codec;
mod engine;
mod spec;
mod sweep;
mod view;

pub use engine::{report_json, Engine, Verified};
pub use spec::{
    AlertSpec, ArrivalSpec, CbrDecl, FlowDecl, MonitorSpec, QvisorSpec, ScenarioSpec, SimSpec,
    SizeDistSpec, TenantDecl, TimeRef, TopologySpec, WorkloadSpec,
};
pub use sweep::{
    merged_value, run_sweep, sanitize_export, SweepAxis, SweepPoint, SweepPointResult, SweepSpec,
};
pub use view::SweepView;

/// Error raised while parsing, validating, or materializing a scenario.
#[derive(Debug)]
pub enum ScenarioError {
    /// A named field is missing, unknown, or out of range.
    Field {
        /// Dotted path to the offending field (e.g. `sim.mss`).
        path: String,
        /// What is wrong with it.
        msg: String,
    },
    /// The input is not syntactically valid JSON.
    Json(qvisor_sim::json::ParseError),
    /// Materializing the scenario into a simulation failed.
    Build(qvisor_core::QvisorError),
    /// The static policy verifier refuted a guarantee (or found warnings
    /// under `--deny-warnings`). Carries the full report.
    Verify(Box<qvisor_core::VerifyReport>),
    /// A build was handed the verification of a different scenario.
    NotVerified,
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Field { path, msg } => write!(f, "scenario field `{path}`: {msg}"),
            ScenarioError::Json(e) => write!(f, "scenario JSON: {e}"),
            ScenarioError::Build(e) => write!(f, "scenario build: {e}"),
            ScenarioError::Verify(report) => {
                write!(f, "scenario verification failed\n{}", report.render_text())
            }
            ScenarioError::NotVerified => {
                write!(
                    f,
                    "scenario build: the verification judged another scenario"
                )
            }
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Field { .. } => None,
            ScenarioError::Json(e) => Some(e),
            ScenarioError::Build(e) => Some(e),
            ScenarioError::Verify(_) | ScenarioError::NotVerified => None,
        }
    }
}

/// Shorthand for a named-field error.
pub(crate) fn field_err(path: impl Into<String>, msg: impl Into<String>) -> ScenarioError {
    ScenarioError::Field {
        path: path.into(),
        msg: msg.into(),
    }
}
