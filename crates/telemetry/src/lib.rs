#![deny(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

//! # qvisor-telemetry — unified observability for the QVISOR reproduction
//!
//! One metrics path for the whole workspace: scheduler backends, the
//! packet-level network simulator, and the hypervisor runtime all report
//! through a [`Telemetry`] handle instead of growing ad-hoc counter structs.
//!
//! Two ideas keep it cheap and safe to leave plumbed in everywhere:
//!
//! 1. **Switched off at run time, for one branch.** A default-constructed
//!    [`Telemetry`] (and [`Tracer::disabled`], [`SloMonitor::disabled`]) is
//!    disabled: handles hold `None` and each record is one branch. There is
//!    one build; the disabled handle is the only "off".
//! 2. **Never perturbs the simulation.** Telemetry only *observes* — it
//!    takes no randomness, orders no events, and is keyed by simulated time,
//!    so enabling it cannot change a simulation's outcome. The determinism
//!    suite enforces this.
//!
//! Collected state lives in a registry shared by `Rc` (simulations are
//! single-threaded by design): monotonic counters, last-value gauges,
//! log-bucketed [`LogHistogram`]s, and a bounded [`Journal`] of structured
//! events. [`Telemetry::export_jsonl`] serialises everything as JSON lines;
//! [`report`] renders exported files back into human-readable tables.
//!
//! Two sibling subsystems are switched off the same way: the
//! [`trace`] flight recorder captures per-packet lifecycle spans (exported
//! to Perfetto via [`perfetto`] or rendered as a latency breakdown), and
//! the [`profile`] self-profiler aggregates wall-clock scoped timers around
//! the simulator's own hot paths. The [`monitor`] module layers a streaming
//! per-tenant SLO view on the same feed points — sliding sim-time-windowed
//! rates and latency quantiles with declarative alert rules — and
//! [`prometheus`] renders any JSONL export in Prometheus text exposition
//! format for standard scrapers.

pub mod hist;
pub mod journal;
pub mod monitor;
pub mod perfetto;
pub mod profile;
pub mod prometheus;
pub mod report;
pub mod stream;
pub mod trace;

pub use hist::{Bucket, LogHistogram, SUB_BITS};
pub use journal::{Journal, JournalEvent};
pub use monitor::{AlertMetric, AlertRule, SloMonitor, ALERT_METRICS};
pub use profile::{ProfileSpan, ProfileStat, Profiler};
pub use stream::{BusReceiver, SnapshotBus};
pub use trace::{Records, TraceConfig, TraceData, TraceKind, TraceRecord, TraceView, Tracer};

mod live;
pub use live::{Counter, Gauge, Histogram, QueueMetrics, Telemetry};

/// Version tag written into the `meta` line of every JSONL export.
pub const SCHEMA_VERSION: u64 = 1;

/// Default bound on retained journal events.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 4096;
