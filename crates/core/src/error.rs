//! Error types for policy parsing and synthesis.

use qvisor_sim::json::FieldError;
use std::fmt;

/// Any error QVISOR's control plane can produce.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QvisorError {
    /// A configuration document is not JSON, or the operator policy
    /// string failed to parse.
    Parse {
        /// Byte offset of the offending token.
        at: usize,
        /// What went wrong.
        msg: String,
    },
    /// A configuration field is missing, unknown, of the wrong type or out
    /// of range.
    Config(FieldError),
    /// The policy references a tenant with no registered specification.
    UnknownTenant(String),
    /// A tenant appears more than once in the policy.
    DuplicateTenant(String),
    /// Specs/policy combination that cannot be synthesized.
    Synthesis(String),
    /// A deployment target cannot realize the synthesized policy.
    Deployment(String),
}

impl fmt::Display for QvisorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QvisorError::Parse { at, msg } => write!(f, "policy parse error at byte {at}: {msg}"),
            QvisorError::Config(e) => write!(f, "configuration {e}"),
            QvisorError::UnknownTenant(name) => {
                write!(
                    f,
                    "policy references tenant '{name}' with no registered spec"
                )
            }
            QvisorError::DuplicateTenant(name) => {
                write!(f, "tenant '{name}' appears more than once in the policy")
            }
            QvisorError::Synthesis(msg) => write!(f, "synthesis failed: {msg}"),
            QvisorError::Deployment(msg) => write!(f, "deployment failed: {msg}"),
        }
    }
}

impl std::error::Error for QvisorError {}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, QvisorError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_usefully() {
        let e = QvisorError::Parse {
            at: 4,
            msg: "unexpected '('".into(),
        };
        assert!(e.to_string().contains("byte 4"));
        assert!(QvisorError::UnknownTenant("T9".into())
            .to_string()
            .contains("T9"));
        assert!(QvisorError::DuplicateTenant("T1".into())
            .to_string()
            .contains("more than once"));
    }
}
