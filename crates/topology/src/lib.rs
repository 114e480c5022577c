#![deny(missing_docs)]

//! # qvisor-topology — network graphs and routing
//!
//! Substrate crate: topology construction (arbitrary graphs plus canned
//! leaf–spine, dumbbell, and fat-tree builders) and precomputed ECMP
//! shortest-path routing. The paper's evaluation fabric
//! ([`LeafSpineConfig::paper`]) is 9 leaves × 16 hosts with 4 spines,
//! 1 Gbps access links and 4 Gbps fabric links.

pub mod builders;
pub mod graph;
pub mod routing;

pub use builders::{Dumbbell, FatTree, LeafSpine, LeafSpineConfig};
pub use graph::{Link, Node, NodeKind, Topology, TopologyBuilder};
pub use routing::Routes;
