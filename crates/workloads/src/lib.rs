#![deny(missing_docs)]

//! # qvisor-workloads — traffic generation
//!
//! Flow-size distributions (the pFabric *data-mining* and DCTCP
//! *web-search* CDFs plus synthetic ones), Poisson flow arrival processes
//! parameterized by target link load, and the paper's CBR/EDF tenant
//! generator.

pub mod dist;
pub mod gen;

pub use dist::{EmpiricalCdf, FixedSize, FlowSizeDist, UniformSize};
pub use gen::{arrival_rate_for_load, cbr_tenant, GeneratedCbr, GeneratedFlow, PoissonFlowGen};
