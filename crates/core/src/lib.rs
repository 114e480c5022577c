#![deny(missing_docs)]

//! # qvisor-core — the scheduling hypervisor
//!
//! The paper's contribution: QVISOR virtualizes the scheduling resources of
//! a switch so multiple tenants can run their own scheduling policies
//! simultaneously (Gran Alcoz & Vanbever, *QVISOR: Virtualizing Packet
//! Scheduling Policies*, HotNets '23).
//!
//! ## Pipeline
//!
//! 1. Tenants declare [`TenantSpec`]s: a traffic subset (tenant id) plus
//!    the declared rank range of their scheduling algorithm.
//! 2. The operator writes a [`Policy`] string: `T1 >> T2 + T3` (strict
//!    priority, best-effort preference `>`, fair sharing `+`).
//! 3. [`synthesize`] produces a [`JointPolicy`]: one rank
//!    [`TransformChain`] per tenant (normalization + stride + shift).
//! 4. [`verify()`] statically proves or refutes its worst-case guarantees —
//!    overflow-freedom, order preservation, strict-band disjointness, share
//!    and preference overlap — with concrete witness pairs for every
//!    refutation, before deployment; [`VerifyReport::guarantees_hold`] is
//!    the one verdict, and [`admit`] is the one gate: it makes the
//!    [`Admitted`] token every deploy site takes.
//! 5. A [`PreProcessor`] applies the chains to packets at line rate; a
//!    [`Backend`] — the one descriptor of a port's queue — realizes the
//!    policy on a PIFO, strict-priority bank (static or SP-PIFO mapping),
//!    AIFO, FIFO or PIFO tree. The gate judges the policy on the
//!    [`Target`] it is deployed onto.
//! 6. At runtime, a [`RuntimeMonitor`] polices declared ranges (adversarial
//!    tenants) and a [`RuntimeAdapter`] re-synthesizes as tenants enter,
//!    leave, or drift — each re-synthesis through the same gate.
//!
//! ```
//! use qvisor_core::{synthesize, Policy, SynthConfig, TenantSpec};
//! use qvisor_ranking::RankRange;
//! use qvisor_sim::TenantId;
//!
//! let specs = vec![
//!     TenantSpec::new(TenantId(1), "T1", "pFabric", RankRange::new(7, 9)).with_levels(3),
//!     TenantSpec::new(TenantId(2), "T2", "EDF", RankRange::new(1, 3)).with_levels(2),
//!     TenantSpec::new(TenantId(3), "T3", "FQ", RankRange::new(3, 5)).with_levels(2),
//! ];
//! let policy = Policy::parse("T1 >> T2 + T3").unwrap();
//! let config = SynthConfig { first_rank: 1, ..SynthConfig::default() };
//! let joint = synthesize(&specs, &policy, config).unwrap();
//! // The paper's Fig. 3 transformations fall out exactly:
//! assert_eq!(joint.chain(TenantId(1)).unwrap().apply(8), 2);
//! assert_eq!(joint.chain(TenantId(2)).unwrap().apply(3), 6);
//! assert_eq!(joint.chain(TenantId(3)).unwrap().apply(5), 7);
//! ```

pub mod backend;
pub mod compile;
pub mod config_api;
pub mod error;
pub mod policy;
pub mod preproc;
pub mod runtime;
pub mod spec;
pub mod synth;
pub mod transform;
pub mod verify;

pub use backend::{Backend, BandedMapper, PreprocScope, Target};
pub use compile::{compile, CompiledDeployment, Concession, HardwareModel};
pub use config_api::{DeploymentConfig, SynthOptions, TenantConfig};
pub use error::{QvisorError, Result};
pub use policy::{Policy, PrefChain, ShareGroup, TenantRef};
pub use preproc::{PreProcessor, PreprocTenantStats, UnknownTenantAction, Verdict};
pub use runtime::{
    retain_tenants, AdaptError, Adaptation, MonitorConfig, Observation, RuntimeAdapter,
    RuntimeMonitor, ViolationAction,
};
pub use spec::{SynthConfig, TenantSpec};
pub use synth::{synthesize, GroupLayout, JointPolicy, LevelLayout, MemberLayout};
pub use transform::{RankTransform, TransformChain};
pub use verify::{
    admit, verify, Admitted, ChainCheck, DiagCode, Diagnostic, Refused, Severity, SpecPaths,
    VerifyReport, Witness,
};
