#![deny(missing_docs)]

//! # qvisor-bench — experiment harness
//!
//! Shared scenario code regenerating the paper's evaluation (§4):
//! [`fig4`] builds and runs one point of Fig. 4 (any scheme × load), and
//! the binaries in `src/bin/` sweep the full figures and ablations.
//! The event-core microbench lives in `benches/`, on the dependency-free
//! [`harness`]; every other per-layer number is a `qbench` probe row
//! (`benchmark/`).

pub mod fig4;
pub mod harness;
pub mod snapshot;

pub use fig4::{
    run_point, run_point_instrumented, run_point_telemetry, Fig4Config, Fig4Point, Scheme,
    Workload, EDF, PFABRIC,
};
