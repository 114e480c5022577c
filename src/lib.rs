#![deny(missing_docs)]

//! # qvisor — multi-tenant programmable packet scheduling
//!
//! A from-scratch Rust reproduction of *QVISOR: Virtualizing Packet
//! Scheduling Policies* (Gran Alcoz & Vanbever, HotNets '23): a scheduling
//! hypervisor that lets multiple tenants run their own scheduling policies
//! on one switch, plus everything needed to evaluate it — scheduler models
//! (PIFO, SP-PIFO, AIFO, strict-priority banks), tenant rank functions
//! (pFabric, EDF, LSTF, STFQ, FQ), a deterministic packet-level network
//! simulator, and workload generators.
//!
//! This crate is a facade: each subsystem lives in its own crate and is
//! re-exported here under a module matching its role.
//!
//! ```
//! use qvisor::core::{synthesize, Policy, SynthConfig, TenantSpec};
//! use qvisor::ranking::RankRange;
//! use qvisor::sim::TenantId;
//!
//! // Tenants declare their rank ranges; the operator composes them.
//! let specs = vec![
//!     TenantSpec::new(TenantId(1), "T1", "pFabric", RankRange::new(0, 100_000)),
//!     TenantSpec::new(TenantId(2), "T2", "EDF", RankRange::new(0, 10_000)),
//! ];
//! let policy = Policy::parse("T1 >> T2").unwrap();
//! let joint = synthesize(&specs, &policy, SynthConfig::default()).unwrap();
//! let report = qvisor::core::verify(&joint, &qvisor::core::SpecPaths::config());
//! assert!(report.guarantees_hold());
//! ```

/// The `qvisor` command-line tool's implementation.
pub mod cli;

/// Simulation kernel: time, events, packets, RNG, statistics.
pub mod sim {
    pub use qvisor_sim::*;
}

/// Network topologies and ECMP routing.
pub mod topology {
    pub use qvisor_topology::*;
}

/// Scheduler models: PIFO, FIFO, strict-priority banks, SP-PIFO, AIFO,
/// calendar queues, PIFO trees.
pub mod scheduler {
    pub use qvisor_scheduler::*;
}

/// Tenant rank functions: pFabric, EDF, LSTF, STFQ, FQ, FIFO+.
pub mod ranking {
    pub use qvisor_ranking::*;
}

/// The scheduling hypervisor: policy language, synthesizer, pre-processor,
/// verifier, runtime adaptation, deployment backends.
pub mod core {
    pub use qvisor_core::*;
}

/// End-host transports and FCT collection.
pub mod transport {
    pub use qvisor_transport::*;
}

/// The packet-level network simulator.
pub mod netsim {
    pub use qvisor_netsim::*;
}

/// Workload generation: flow-size CDFs, Poisson arrivals, CBR tenants.
pub mod workloads {
    pub use qvisor_workloads::*;
}

/// Observability: counters, gauges, histograms, and the event journal.
pub mod telemetry {
    pub use qvisor_telemetry::*;
}
