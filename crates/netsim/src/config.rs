//! Simulation configuration.

use qvisor_core::{
    Backend, MonitorConfig, PreprocScope, SynthConfig, Target, TenantSpec, UnknownTenantAction,
};
use qvisor_scheduler::Capacity;
use qvisor_sim::{EventCore, Nanos};
use qvisor_telemetry::{Telemetry, Tracer};

/// QVISOR deployment inside the simulation: the hypervisor's two inputs
/// plus runtime options.
#[derive(Clone, Debug)]
pub struct QvisorSetup {
    /// Tenant specifications.
    pub specs: Vec<TenantSpec>,
    /// Operator policy string (e.g. `"T1 >> T2 + T3"`).
    pub policy: String,
    /// Synthesizer knobs.
    pub synth: SynthConfig,
    /// Unknown-tenant handling at the pre-processor.
    pub unknown: UnknownTenantAction,
    /// Where in the network the pre-processor runs.
    pub scope: PreprocScope,
    /// Enable the runtime monitor with this configuration.
    pub monitor: Option<MonitorConfig>,
}

impl QvisorSetup {
    /// A setup with default synthesis, best-effort unknown handling, and no
    /// monitor.
    pub fn new(specs: Vec<TenantSpec>, policy: impl Into<String>) -> QvisorSetup {
        QvisorSetup {
            specs,
            policy: policy.into(),
            synth: SynthConfig::default(),
            unknown: UnknownTenantAction::BestEffort,
            scope: PreprocScope::default(),
            monitor: None,
        }
    }
}

/// Full simulation configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Root seed; every random decision derives from it.
    pub seed: u64,
    /// Maximum application payload per packet.
    pub mss: u32,
    /// Header overhead added to every data packet, bytes.
    pub header_bytes: u32,
    /// ACK size on the wire, bytes.
    pub ack_bytes: u32,
    /// Fixed sender window, packets.
    pub cwnd: u32,
    /// Retransmission timeout.
    pub rto: Nanos,
    /// Per-port buffer capacity.
    pub buffer: Capacity,
    /// Scheduler at switch output ports.
    pub scheduler: Backend,
    /// Scheduler at host NIC ports; `None` uses `scheduler` everywhere.
    /// Real deployments often pair scheduled switches with plain FIFO
    /// NICs — this knob measures how much the host queue matters.
    pub host_scheduler: Option<Backend>,
    /// Hard stop time.
    pub horizon: Nanos,
    /// Uniform random packet loss applied at link arrival (fault
    /// injection; 0.0 = none).
    pub random_loss: f64,
    /// Sample per-tenant delivered bytes every interval into the report's
    /// time series (for timeline plots like the paper's Fig. 2).
    pub sample_interval: Option<Nanos>,
    /// Run QVISOR's event-driven controller every interval: the runtime
    /// monitor's view is fed to the adapter, which re-synthesizes the
    /// joint policy on tenant churn or rank drift and hot-reloads the
    /// pre-processor (§5 "optimizing configurations at runtime").
    /// Requires `qvisor` with a monitor configured.
    pub adaptation_interval: Option<Nanos>,
    /// QVISOR deployment, if any.
    pub qvisor: Option<QvisorSetup>,
    /// Data structure backing the simulator's event queue. The default
    /// (calendar queue) and the binary-heap oracle are observationally
    /// identical — the differential suite proves byte-identical reports —
    /// so this knob exists for oracle runs and perf comparisons only.
    pub event_core: EventCore,
    /// Telemetry sink. Cloning a [`Telemetry`] handle shares its registry,
    /// so keep one and export after [`crate::Simulation::run`]. The default
    /// (disabled) handle records nothing and adds no per-packet work; an
    /// enabled handle never influences simulation behaviour — reports are
    /// byte-identical either way.
    pub telemetry: Telemetry,
    /// Where each packet event is recorded, once, for every reader of the
    /// records: the flight recorder's ring, a streaming sink, the SLO
    /// monitor. Like `telemetry`, the default (disabled) handle records
    /// nothing, and no reader ever influences simulation behaviour. Keep a
    /// clone of each reader and read it after [`crate::Simulation::run`].
    pub tracer: Tracer,
}

impl SimConfig {
    /// What a QVISOR policy is deployed onto in this simulation: the
    /// deployment gate judges it there.
    pub fn target(&self) -> Target {
        Target {
            scheduler: self.scheduler,
            host_scheduler: self.host_scheduler,
            scope: self
                .qvisor
                .as_ref()
                .map_or_else(PreprocScope::default, |q| q.scope),
        }
    }
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            seed: 1,
            mss: 1_460,
            header_bytes: 40,
            ack_bytes: 40,
            cwnd: 12,
            rto: Nanos::from_micros(500),
            // pFabric-style shallow buffers: ~36 KB per port.
            buffer: Capacity::packets(24, 1_500),
            scheduler: Backend::Pifo,
            host_scheduler: None,
            horizon: Nanos::from_secs(10),
            random_loss: 0.0,
            sample_interval: None,
            adaptation_interval: None,
            qvisor: None,
            event_core: EventCore::default(),
            telemetry: Telemetry::disabled(),
            tracer: Tracer::disabled(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = SimConfig::default();
        assert_eq!(c.mss, 1_460);
        assert!(c.buffer.bytes >= 24 * 1_460);
        assert_eq!(c.scheduler, Backend::Pifo);
        assert!(c.qvisor.is_none());
        assert_eq!(c.random_loss, 0.0);
    }
}
