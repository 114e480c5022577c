#![deny(missing_docs)]

//! # qvisor-netsim — packet-level network simulator
//!
//! The repository's Netbench substitute: a deterministic discrete-event
//! simulator with output-queued hosts and switches, pluggable scheduler
//! models at every port, ECMP routing, pFabric-style reliable transport,
//! CBR/deadline traffic, optional fault injection, and an in-network
//! QVISOR deployment (pre-processor at every egress, runtime monitor at
//! the first hop).

pub mod config;
pub mod report;
pub mod scenario;
pub mod sim;

pub use config::{QvisorSetup, SimConfig};
pub use qvisor_sim::EventCore;
pub use report::{SimReport, TenantTraffic};
pub use scenario::{Engine, ScenarioError, ScenarioSpec, SweepSpec};
pub use sim::{NewCbr, NewFlow, Simulation};
