#![deny(missing_docs)]

//! # qvisor-bench — experiment harness
//!
//! The paper's evaluation (§4) is data: the sweep documents in
//! `examples/sweeps/` describe Fig. 4 and the FCT ablations, and [`fig4`]
//! runs a document's points and reduces each report to the figure's row.
//! The binaries in `src/bin/` print the figures and ablations. The
//! event-core microbench lives in `benches/`, on the dependency-free
//! [`harness`]; every other per-layer number is a `qbench` probe row
//! (`benchmark/`).

pub mod fig4;
pub mod harness;
