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

/// Every `qvisor_*` item the standalone benchmark (`benchmark/`) names —
/// in a `use` or by its full path — re-exported under one flat path, and
/// nothing else. The benchmark is built from its own manifest, so these
/// names are the program's API it depends on; `tests/bench_facade.rs`
/// names each one here.
pub mod bench {
    pub use qvisor_core::config_api::{SynthOptions, TenantConfig};
    pub use qvisor_core::{
        synthesize, verify, DeploymentConfig, Policy, PreProcessor, SpecPaths, UnknownTenantAction,
        Verdict,
    };
    pub use qvisor_fuzz::{generate_case, run_campaign, run_case, CampaignOpts};
    pub use qvisor_netsim::scenario::{report_json, run_sweep, ScenarioError, SweepSpec};
    pub use qvisor_netsim::{Engine, ScenarioSpec};
    pub use qvisor_ranking::{RankCtx, RankFnSpec};
    pub use qvisor_scheduler::{
        AifoQueue, Capacity, Enqueue, FifoQueue, InstrumentedQueue, PacketQueue, PathStep,
        PifoQueue, PifoTree, SpPifoMapper, StaticRangeMapper, StrictPriorityBank, TreePath,
        TreeShape,
    };
    pub use qvisor_serve::registry::fnv1a;
    pub use qvisor_serve::{
        ChainSnapshot, ControlPlane, Daemon, LogEntry, Request, ServeOptions, SnapshotCell,
    };
    pub use qvisor_sim::json::Value;
    pub use qvisor_sim::{
        gbps, EventCore, EventQueue, FlowId, Nanos, NodeId, Packet, SimRng, TenantId,
    };
    pub use qvisor_telemetry::{SloMonitor, Telemetry, TraceConfig, Tracer};
    pub use qvisor_topology::{FatTree, LeafSpine, LeafSpineConfig, Routes};
    pub use qvisor_transport::{FlowDef, ReliableReceiver, ReliableSender, SendReq, SizeBucket};
    pub use qvisor_workloads::{EmpiricalCdf, PoissonFlowGen};
}
