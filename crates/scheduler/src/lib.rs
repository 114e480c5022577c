#![deny(missing_docs)]

//! # qvisor-scheduler — scheduler models
//!
//! Software models of the schedulers QVISOR targets: the ideal
//! [`PifoQueue`], the commodity [`FifoQueue`] and [`StrictPriorityBank`],
//! and the published PIFO approximations [`SpPifoMapper`] (SP-PIFO,
//! NSDI '20) and [`AifoQueue`] (AIFO, SIGCOMM '21), plus an
//! [`InstrumentedQueue`] wrapper reporting drops, occupancy, queueing
//! delay, and rank inversions through the `qvisor-telemetry` subsystem
//! (hand it a `Telemetry::disabled()` handle and it costs one branch).
//!
//! Hierarchical scheduling is covered by [`PifoTree`] (PIFO trees,
//! SIGCOMM '16 — the §5 expressivity extension).
//!
//! All models implement [`PacketQueue`] and sort on `Packet::txf_rank`, the
//! rank *after* QVISOR's pre-processor.

pub mod aifo;
pub mod fifo;
pub mod instrument;
pub mod pifo;
pub mod pifo_tree;
pub mod queue;
mod rank_index;
pub mod sp_pifo;
pub mod strict;

pub use aifo::AifoQueue;
pub use fifo::FifoQueue;
pub use instrument::InstrumentedQueue;
pub use pifo::PifoQueue;
pub use pifo_tree::{PathStep, PifoTree, TreeClassifier, TreePath, TreeShape};
pub use queue::{Capacity, Enqueue, PacketQueue};
pub use sp_pifo::SpPifoMapper;
pub use strict::{QueueMapper, StaticRangeMapper, StrictPriorityBank};
