#![deny(missing_docs)]

//! # qvisor-sim — simulation kernel
//!
//! The substrate every other crate builds on: integer simulation time, a
//! deterministic event queue, strongly-typed identifiers, the shared
//! [`Packet`] model, a reproducible PRNG, and streaming statistics.
//!
//! This crate is deliberately free of any networking or scheduling logic so
//! it can be reused by the scheduler models, the hypervisor, and the
//! packet-level network simulator without cycles.

mod calendar;
pub mod events;
pub mod id;
pub mod json;
pub mod packet;
mod par;
pub mod rng;
pub mod stats;
pub mod time;

pub use events::{EventCore, EventQueue};
pub use id::{FlowId, NodeId, Rank, TenantId};
pub use packet::{Packet, PacketArena, PacketKind, PacketSlot};
pub use par::ordered_par_map;
pub use rng::{stable_hash, SimRng};
pub use stats::{jain_fairness, Log2Histogram, LogBuckets, OnlineStats};
pub use time::{gbps, transmission_time, LineRate, Nanos};
