#![deny(missing_docs)]

//! # qvisor-transport — end-host transports
//!
//! The sending/receiving state machines that drive traffic through the
//! simulated network: a pFabric-style [`ReliableSender`] (fixed window,
//! per-packet ACKs, one retransmission timer per flow, no congestion window
//! adaptation — the rank-aware switches do the congestion control), a
//! [`CbrSource`] for the paper's deadline-constrained tenant, and the
//! [`FctCollector`] producing the Fig. 4 statistics.

pub mod cbr;
pub mod fct;
pub mod flow;
pub mod reliable;

pub use cbr::{CbrSource, DatagramSink};
pub use fct::{FctCollector, FlowRecord, SizeBucket};
pub use flow::{CbrDef, FlowDef};
pub use reliable::{AckOutcome, Expiry, ReliableReceiver, ReliableSender, SendReq};
