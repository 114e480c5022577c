//! Checks of the deployment target: does the queue a policy is deployed
//! onto keep what the policy states?
//!
//! - A static strict bank allocates a queue per strict level; with fewer
//!   queues than levels the deployment fails (an error).
//! - Under `switches_only` the host NIC queue sees raw tenant ranks. A
//!   queue that orders by rank then serves a lower `>>` level first
//!   wherever the two levels' declared ranges cross (a warning, with the
//!   raw pair as its witness: outputs equal inputs).

use super::diag::{DiagCode, Diagnostic, Severity, Witness};
use super::{SpecPaths, TenantVerify};
use crate::backend::{Backend, PreprocScope, Target};
use crate::synth::JointPolicy;

/// Every finding `target` adds; `tenants` are the per-chain results in
/// layout order.
pub(super) fn check_target(
    joint: &JointPolicy,
    target: &Target,
    paths: &SpecPaths,
    tenants: &[TenantVerify],
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let ports = [
        ("scheduler", Some(target.scheduler)),
        ("host_scheduler", target.host_scheduler),
    ];
    for (name, backend) in ports {
        if let Some(backend @ Backend::StrictStatic { queues, .. }) = backend {
            if !backend.fits(joint) {
                diags.push(Diagnostic {
                    code: DiagCode::StrictQueues,
                    severity: Severity::Error,
                    span: format!("{}{name}.strict_static.queues", paths.root()),
                    message: format!(
                        "a strict bank of {queues} queue(s) cannot give each of the \
                         policy's {} strict levels its own queue",
                        joint.layout.len()
                    ),
                    witness: None,
                });
            }
        }
    }
    // Every host queue but the FIFO orders by rank.
    let host = target.host_scheduler.unwrap_or(target.scheduler);
    if target.scope == PreprocScope::SwitchesOnly && host != Backend::Fifo {
        for (i, a) in tenants.iter().enumerate() {
            for b in &tenants[i + 1..] {
                let (hi, lo) = if a.level < b.level { (a, b) } else { (b, a) };
                if hi.level == lo.level || hi.declared.strictly_below(&lo.declared) {
                    continue;
                }
                let (input_a, input_b) = (hi.declared.max, lo.declared.min);
                diags.push(Diagnostic {
                    code: DiagCode::HostRaw,
                    severity: Severity::Warning,
                    span: paths.scope(),
                    message: format!(
                        "host queues order raw ranks under switches_only: strict levels \
                         {} and {} cross there, tenant '{}' ({}) declaring {} and tenant \
                         '{}' ({}) declaring {}",
                        hi.level,
                        lo.level,
                        hi.name,
                        hi.path,
                        hi.declared,
                        lo.name,
                        lo.path,
                        lo.declared
                    ),
                    witness: Some(Witness {
                        input_a,
                        output_a: input_a,
                        input_b,
                        output_b: input_b,
                    }),
                });
            }
        }
    }
    diags
}
