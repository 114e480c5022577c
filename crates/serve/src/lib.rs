#![deny(missing_docs)]

//! # qvisor-serve — the QVISOR control-plane daemon
//!
//! The paper's deployment story is a *live* hypervisor: tenants submit
//! scheduling policies at runtime, QVISOR admits or rejects them against
//! the operator's composition policy, and the data plane keeps forwarding
//! while transform chains are resynthesized underneath it. This crate is
//! that process, assembled entirely from the workspace's library pieces:
//!
//! - **Protocol** ([`protocol`]): line-delimited JSON over TCP
//!   (`std::net` only). Requests: `submit-policy`, `withdraw-tenant`,
//!   `get-chain`, `status`, `metrics`, `snapshot`, `get-log`,
//!   `subscribe-telemetry`, `shutdown`.
//! - **Admission gate** ([`control`]): every submission is synthesized
//!   into a candidate joint policy and run through the static verifier;
//!   failures are rejected with the full structured QV-* diagnostic
//!   report *and* the exact candidate document, so `qvisor check` on that
//!   document reproduces the rejection bit-for-bit.
//! - **Chain registry** ([`registry`]): accepted states are published as
//!   immutable fingerprinted snapshots behind an atomic pointer swap;
//!   readers never block on a resynthesis, and a fingerprint mismatch
//!   would prove a torn read.
//! - **Policy store** ([`store`]): the fixed tenant universe, the live
//!   set, and the append-only accepted-mutation log whose sequential
//!   replay must rebuild byte-identical state (checked under concurrent
//!   churn by `tests/serve_daemon.rs`).
//! - **Daemon shell** ([`daemon`]): accept thread + per-connection session
//!   threads, each a thin loop around a [`session`] value (framing, parsing,
//!   the snapshot reads; no I/O) + one control thread that owns the
//!   [`ControlPlane`] and answers every request the sessions forward.
//! - **Statistics** ([`stats`]): per-op request counters, admission
//!   accepts/rejects bucketed by QV-* diagnostic code, and a commit
//!   latency histogram — surfaced both in the `status` response and as a
//!   Prometheus text exposition via the `metrics` request.
//!
//! Run it as `qvisor serve <config.json> [--listen ADDR]`; see DESIGN.md
//! ("Control plane") for the wire schema and threading model.

pub mod control;
pub mod daemon;
pub mod protocol;
pub mod registry;
pub mod session;
pub mod stats;
pub mod store;

pub use control::ControlPlane;
pub use daemon::{Daemon, ServeOptions};
pub use protocol::Request;
pub use registry::{ChainEntry, ChainSnapshot, SnapshotCell};
pub use stats::ServeStats;
pub use store::{LogEntry, PolicyStore};
