//! The declarative scenario model: every experiment — topology, schedulers,
//! QVISOR deployment, rank functions, workload mix, faults, seeds, and
//! measurement windows — as plain data with strict validation.

use super::{field_err, ScenarioError};
use qvisor_core::config_api::TenantConfig;
use qvisor_core::{Backend, PreprocScope, SynthConfig, ViolationAction};
use qvisor_ranking::RankFnSpec;
use qvisor_scheduler::Capacity;
use qvisor_telemetry::{AlertMetric, AlertRule, ALERT_METRICS};

/// A simulation time reference used where experiments traditionally write
/// "two seconds past the last flow arrival".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimeRef {
    /// An absolute simulation time in nanoseconds.
    At(u64),
    /// `last_arrival + offset` nanoseconds, where `last_arrival` is the
    /// latest start time over every reliable flow in the scenario (zero
    /// when there are none).
    AfterLastArrival(u64),
}

/// Topology builder parameters (mirrors `qvisor_topology::builders`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologySpec {
    /// A leaf–spine fabric.
    LeafSpine {
        /// Top-of-rack switch count.
        leaves: usize,
        /// Spine switch count.
        spines: usize,
        /// Hosts per leaf.
        hosts_per_leaf: usize,
        /// Host-to-leaf link rate (bits/s).
        access_bps: u64,
        /// Leaf-to-spine link rate (bits/s).
        fabric_bps: u64,
        /// Host-to-leaf propagation delay (ns).
        access_delay_ns: u64,
        /// Leaf-to-spine propagation delay (ns).
        fabric_delay_ns: u64,
    },
    /// A dumbbell: `pairs` senders and receivers around one bottleneck.
    Dumbbell {
        /// Hosts per side.
        pairs: usize,
        /// Access link rate (bits/s).
        edge_bps: u64,
        /// Bottleneck link rate (bits/s).
        bottleneck_bps: u64,
        /// Uniform propagation delay (ns).
        delay_ns: u64,
    },
    /// A `k`-ary fat tree.
    FatTree {
        /// Arity `k` (even, >= 2); hosts = `k^3/4`.
        arity: usize,
        /// Uniform link rate (bits/s).
        rate_bps: u64,
        /// Uniform propagation delay (ns).
        delay_ns: u64,
    },
}

impl TopologySpec {
    /// Number of hosts the built topology will expose, in canonical order
    /// (leaf–spine: rack-major; dumbbell: senders then receivers; fat
    /// tree: pod order).
    fn host_count(&self) -> usize {
        match *self {
            TopologySpec::LeafSpine {
                leaves,
                hosts_per_leaf,
                ..
            } => leaves * hosts_per_leaf,
            TopologySpec::Dumbbell { pairs, .. } => pairs * 2,
            TopologySpec::FatTree { arity, .. } => arity * arity * arity / 4,
        }
    }

    /// The host access-link rate, used to convert a target load into a
    /// flow arrival rate.
    pub fn access_bps(&self) -> u64 {
        match *self {
            TopologySpec::LeafSpine { access_bps, .. } => access_bps,
            TopologySpec::Dumbbell { edge_bps, .. } => edge_bps,
            TopologySpec::FatTree { rate_bps, .. } => rate_bps,
        }
    }
}

/// Scalar simulation parameters (mirrors the plain fields of
/// [`crate::SimConfig`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimSpec {
    /// Maximum application payload per packet.
    pub mss: u32,
    /// Header overhead added to every data packet, bytes.
    pub header_bytes: u32,
    /// ACK size on the wire, bytes.
    pub ack_bytes: u32,
    /// Fixed sender window, packets.
    pub cwnd: u32,
    /// Retransmission timeout, nanoseconds.
    pub rto_ns: u64,
    /// Per-port buffer capacity, bytes.
    pub buffer_bytes: u64,
    /// Hard stop time.
    pub horizon: TimeRef,
    /// Uniform random packet loss applied at link arrival (fault
    /// injection; 0.0 = none).
    pub random_loss: f64,
    /// Sample per-tenant delivered bytes every interval (ns).
    pub sample_interval_ns: Option<u64>,
    /// Run the QVISOR runtime controller every interval (ns).
    pub adaptation_interval_ns: Option<u64>,
}

impl Default for SimSpec {
    fn default() -> SimSpec {
        let d = crate::SimConfig::default();
        SimSpec {
            mss: d.mss,
            header_bytes: d.header_bytes,
            ack_bytes: d.ack_bytes,
            cwnd: d.cwnd,
            rto_ns: d.rto.as_nanos(),
            buffer_bytes: d.buffer.bytes,
            horizon: TimeRef::At(d.horizon.as_nanos()),
            random_loss: 0.0,
            sample_interval_ns: None,
            adaptation_interval_ns: None,
        }
    }
}

/// Runtime monitor configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MonitorSpec {
    /// Response to declared-range violations: `"clamp"`, `"alarm_only"`,
    /// or `"drop"`.
    pub violation_action: ViolationAction,
    /// A tenant is idle when unseen for this long (ns).
    pub idle_after_ns: u64,
    /// Range-tightening drift threshold.
    pub drift_ratio: f64,
}

/// A QVISOR deployment as data (mirrors [`crate::QvisorSetup`]).
#[derive(Clone, Debug, PartialEq)]
pub struct QvisorSpec {
    /// Tenant declarations.
    pub tenants: Vec<TenantConfig>,
    /// Operator policy string, e.g. `"T1 >> T2 + T3"`.
    pub policy: String,
    /// Unknown-tenant handling: `"best_effort"` or `"drop"`.
    pub unknown_drop: bool,
    /// Pre-processor scope: `"everywhere"`, `"switches_only"`, or
    /// `"first_hop_only"`.
    pub scope: PreprocScope,
    /// Runtime monitor, if any.
    pub monitor: Option<MonitorSpec>,
    /// Synthesizer overrides; `None` = defaults.
    pub synth: Option<SynthConfig>,
}

/// One declarative SLO alert rule for the streaming monitor (mirrors
/// `qvisor_telemetry::AlertRule`). Rules watch one tenant's sliding
/// sim-time window and fire edge-triggered `alert_fired` /
/// `alert_resolved` journal events.
#[derive(Clone, Debug, PartialEq)]
pub struct AlertSpec {
    /// Watched metric: one of `drop_rate`, `inversion_rate`,
    /// `queue_delay_p50`/`p90`/`p99`, or `fct_p50`/`p90`/`p99`.
    pub metric: String,
    /// Tenant id the rule watches.
    pub tenant: u16,
    /// Sliding window length, sim-time nanoseconds.
    pub window_ns: u64,
    /// Firing threshold: a fraction in `[0, 1]` for rate metrics,
    /// nanoseconds for latency quantiles.
    pub threshold: f64,
}

/// Flow size distribution for generated workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SizeDistSpec {
    /// The paper's data-mining CDF, sizes divided by `scale_den`.
    DataMining {
        /// Size scale denominator (1 = unscaled).
        scale_den: u64,
    },
    /// The web-search CDF, sizes divided by `scale_den`.
    WebSearch {
        /// Size scale denominator (1 = unscaled).
        scale_den: u64,
    },
    /// Every flow the same size.
    Fixed {
        /// Flow size, bytes.
        bytes: u64,
    },
    /// Uniform over `[min, max]`.
    Uniform {
        /// Smallest size, bytes.
        min: u64,
        /// Largest size, bytes.
        max: u64,
    },
}

/// Arrival process intensity for Poisson workloads.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ArrivalSpec {
    /// Target fraction of aggregate access bandwidth in `(0, ..)`.
    Load(f64),
    /// Explicit mean arrival rate.
    RateFlowsPerSec(f64),
}

/// One explicitly placed reliable flow. Hosts are indices into the
/// topology's canonical host order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowDecl {
    /// Owning tenant.
    pub tenant: u16,
    /// Source host index.
    pub src_host: usize,
    /// Destination host index.
    pub dst_host: usize,
    /// Bytes to transfer.
    pub size: u64,
    /// Start time (ns).
    pub start_ns: u64,
    /// Optional absolute deadline (ns).
    pub deadline_ns: Option<u64>,
    /// Fair-queueing weight.
    pub weight: u32,
}

/// One explicitly placed CBR stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CbrDecl {
    /// Owning tenant.
    pub tenant: u16,
    /// Source host index.
    pub src_host: usize,
    /// Destination host index.
    pub dst_host: usize,
    /// Rate, bits per second.
    pub rate_bps: u64,
    /// Datagram wire size, bytes.
    pub pkt_size: u32,
    /// Start time (ns).
    pub start_ns: u64,
    /// Stop time.
    pub stop: TimeRef,
    /// Deadline = emission + offset (ns).
    pub deadline_offset_ns: u64,
}

/// One workload in the scenario's traffic mix. Workloads are materialized
/// in declaration order, so flow ids (and thus ECMP decisions) are stable.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadSpec {
    /// Poisson arrivals of reliable flows over all hosts.
    Poisson {
        /// Owning tenant.
        tenant: u16,
        /// Flows to generate.
        flows: usize,
        /// Size distribution.
        sizes: SizeDistSpec,
        /// Arrival intensity.
        arrival: ArrivalSpec,
        /// RNG stream label (`seed_from(seed).derive(rng_stream)`).
        rng_stream: u64,
    },
    /// A fleet of CBR streams between random host pairs.
    CbrFleet {
        /// Owning tenant.
        tenant: u16,
        /// Stream count.
        streams: usize,
        /// Per-stream rate, bits per second.
        rate_bps: u64,
        /// Datagram wire size, bytes.
        pkt_size: u32,
        /// Start time (ns).
        start_ns: u64,
        /// Stop time.
        stop: TimeRef,
        /// Deadline = emission + offset (ns).
        deadline_offset_ns: u64,
        /// RNG stream label.
        rng_stream: u64,
    },
    /// Explicitly placed reliable flows.
    Flows {
        /// The flows.
        list: Vec<FlowDecl>,
    },
    /// Explicitly placed CBR streams.
    Cbr {
        /// The streams.
        list: Vec<CbrDecl>,
    },
}

/// A complete, serializable experiment description. Parse with
/// [`ScenarioSpec::from_json`], execute with
/// [`super::Engine::run`].
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (used in sweep output labels).
    pub name: String,
    /// Root seed; every random decision derives from it.
    pub seed: u64,
    /// The fabric.
    pub topology: TopologySpec,
    /// Scalar simulation parameters.
    pub sim: SimSpec,
    /// Scheduler at switch output ports.
    pub scheduler: Backend,
    /// Scheduler at host NIC ports; `None` uses `scheduler` everywhere.
    pub host_scheduler: Option<Backend>,
    /// QVISOR deployment, if any.
    pub qvisor: Option<QvisorSpec>,
    /// Per-tenant rank functions, registered in order.
    pub rank_fns: Vec<(u16, RankFnSpec)>,
    /// The traffic mix, materialized in order.
    pub workloads: Vec<WorkloadSpec>,
    /// Streaming SLO alert rules, evaluated when a monitor is attached.
    pub alerts: Vec<AlertSpec>,
}

impl ScenarioSpec {
    /// Check every cross-field constraint, naming the offending field on
    /// failure. [`ScenarioSpec::from_json`] validates automatically.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        match self.topology {
            TopologySpec::LeafSpine {
                leaves,
                spines,
                hosts_per_leaf,
                access_bps,
                fabric_bps,
                ..
            } => {
                if leaves == 0 {
                    return Err(field_err("topology.leaf_spine.leaves", "must be >= 1"));
                }
                if spines == 0 {
                    return Err(field_err("topology.leaf_spine.spines", "must be >= 1"));
                }
                if hosts_per_leaf == 0 {
                    return Err(field_err(
                        "topology.leaf_spine.hosts_per_leaf",
                        "must be >= 1",
                    ));
                }
                if access_bps == 0 || fabric_bps == 0 {
                    return Err(field_err(
                        "topology.leaf_spine.access_bps",
                        "link rates must be positive",
                    ));
                }
            }
            TopologySpec::Dumbbell {
                pairs,
                edge_bps,
                bottleneck_bps,
                ..
            } => {
                if pairs == 0 {
                    return Err(field_err("topology.dumbbell.pairs", "must be >= 1"));
                }
                if edge_bps == 0 || bottleneck_bps == 0 {
                    return Err(field_err(
                        "topology.dumbbell.edge_bps",
                        "link rates must be positive",
                    ));
                }
            }
            TopologySpec::FatTree {
                arity, rate_bps, ..
            } => {
                if arity < 2 || arity % 2 != 0 {
                    return Err(field_err(
                        "topology.fat_tree.arity",
                        "must be even and >= 2",
                    ));
                }
                if rate_bps == 0 {
                    return Err(field_err("topology.fat_tree.rate_bps", "must be positive"));
                }
            }
        }
        if self.sim.mss == 0 {
            return Err(field_err("sim.mss", "must be >= 1"));
        }
        if self.sim.cwnd == 0 {
            return Err(field_err("sim.cwnd", "must be >= 1"));
        }
        if self.sim.rto_ns == 0 {
            return Err(field_err("sim.rto_ns", "must be positive"));
        }
        if self.sim.buffer_bytes == 0 {
            return Err(field_err("sim.buffer_bytes", "must be positive"));
        }
        if !(0.0..1.0).contains(&self.sim.random_loss) {
            return Err(field_err("sim.random_loss", "must be in [0.0, 1.0)"));
        }
        let horizon_val = match self.sim.horizon {
            TimeRef::At(ns) | TimeRef::AfterLastArrival(ns) => ns,
        };
        if horizon_val == 0 {
            return Err(field_err("sim.horizon", "must be positive"));
        }
        if self.sim.sample_interval_ns == Some(0) {
            return Err(field_err("sim.sample_interval_ns", "must be positive"));
        }
        if self.sim.adaptation_interval_ns == Some(0) {
            return Err(field_err("sim.adaptation_interval_ns", "must be positive"));
        }
        let buffer = Capacity::bytes(self.sim.buffer_bytes);
        let schedulers = [
            ("scheduler", Some(self.scheduler)),
            ("host_scheduler", self.host_scheduler),
        ];
        for (path, backend) in schedulers {
            if let Some(Err((field, msg))) = backend.map(|b| b.check(buffer)) {
                return Err(field_err(format!("{path}.{field}"), msg));
            }
        }
        if let Some(q) = &self.qvisor {
            if q.tenants.is_empty() {
                return Err(field_err("qvisor.tenants", "must not be empty"));
            }
            if q.policy.is_empty() {
                return Err(field_err("qvisor.policy", "must not be empty"));
            }
            let mut seen = std::collections::BTreeSet::new();
            for (i, t) in q.tenants.iter().enumerate() {
                if let Err(e) = t.check() {
                    return Err(field_err(format!("qvisor.tenants.{i}"), e));
                }
                if !seen.insert(t.id) {
                    return Err(field_err(
                        format!("qvisor.tenants.{i}.id"),
                        "duplicate tenant id",
                    ));
                }
            }
            if let Some(m) = &q.monitor {
                if m.drift_ratio <= 0.0 {
                    return Err(field_err("qvisor.monitor.drift_ratio", "must be positive"));
                }
            }
            if let Some(s) = &q.synth {
                if s.default_levels == 0 {
                    return Err(field_err("qvisor.synth.default_levels", "must be >= 1"));
                }
                if s.pref_bias_divisor == 0 {
                    return Err(field_err("qvisor.synth.pref_bias_divisor", "must be >= 1"));
                }
            }
        }
        if self.sim.adaptation_interval_ns.is_some() {
            match &self.qvisor {
                None => {
                    return Err(field_err(
                        "sim.adaptation_interval_ns",
                        "requires a qvisor deployment",
                    ))
                }
                Some(q) if q.monitor.is_none() => {
                    return Err(field_err(
                        "sim.adaptation_interval_ns",
                        "requires qvisor.monitor",
                    ))
                }
                Some(_) => {}
            }
        }
        let mut rank_tenants = std::collections::BTreeSet::new();
        for (i, (tenant, _)) in self.rank_fns.iter().enumerate() {
            if !rank_tenants.insert(*tenant) {
                return Err(field_err(
                    format!("rank_fns.{i}.tenant"),
                    "duplicate rank function for tenant",
                ));
            }
        }
        let hosts = self.topology.host_count();
        for (w, workload) in self.workloads.iter().enumerate() {
            self.check_workload(w, workload, hosts)?;
        }
        for (i, a) in self.alerts.iter().enumerate() {
            if AlertMetric::parse(&a.metric).is_none() {
                let allowed: Vec<&str> = ALERT_METRICS.iter().map(|m| m.name()).collect();
                return Err(field_err(
                    format!("alerts.{i}.metric"),
                    format!(
                        "unknown metric '{}' (allowed: {})",
                        a.metric,
                        allowed.join(", ")
                    ),
                ));
            }
            if a.window_ns == 0 {
                return Err(field_err(
                    format!("alerts.{i}.window_ns"),
                    "must be positive",
                ));
            }
            if !a.threshold.is_finite() || a.threshold < 0.0 {
                return Err(field_err(
                    format!("alerts.{i}.threshold"),
                    "must be finite and >= 0",
                ));
            }
        }
        Ok(())
    }

    /// The scenario's alert rules in monitor form. [`ScenarioSpec::validate`]
    /// guarantees every metric name parses, so unknown names are skipped
    /// rather than panicking when called on an unvalidated spec.
    pub fn alert_rules(&self) -> Vec<AlertRule> {
        self.alerts
            .iter()
            .filter_map(|a| {
                Some(AlertRule {
                    metric: AlertMetric::parse(&a.metric)?,
                    tenant: a.tenant,
                    window_ns: a.window_ns,
                    threshold: a.threshold,
                })
            })
            .collect()
    }

    fn check_workload(
        &self,
        w: usize,
        workload: &WorkloadSpec,
        hosts: usize,
    ) -> Result<(), ScenarioError> {
        let p = |rest: &str| format!("workloads.{w}.{rest}");
        match workload {
            WorkloadSpec::Poisson {
                flows,
                sizes,
                arrival,
                ..
            } => {
                if *flows == 0 {
                    return Err(field_err(p("poisson.flows"), "must be >= 1"));
                }
                if hosts < 2 {
                    return Err(field_err(p("poisson"), "needs at least two hosts"));
                }
                match sizes {
                    SizeDistSpec::DataMining { scale_den }
                    | SizeDistSpec::WebSearch { scale_den } => {
                        if *scale_den == 0 {
                            return Err(field_err(p("poisson.sizes.scale_den"), "must be >= 1"));
                        }
                    }
                    SizeDistSpec::Fixed { bytes } => {
                        if *bytes == 0 {
                            return Err(field_err(p("poisson.sizes.fixed.bytes"), "must be >= 1"));
                        }
                    }
                    SizeDistSpec::Uniform { min, max } => {
                        if *min == 0 || min > max {
                            return Err(field_err(
                                p("poisson.sizes.uniform.min"),
                                "must be >= 1 and <= max",
                            ));
                        }
                    }
                }
                match arrival {
                    ArrivalSpec::Load(l) if *l <= 0.0 => {
                        return Err(field_err(p("poisson.arrival.load"), "must be positive"));
                    }
                    ArrivalSpec::RateFlowsPerSec(r) if *r <= 0.0 => {
                        return Err(field_err(
                            p("poisson.arrival.rate_flows_per_sec"),
                            "must be positive",
                        ));
                    }
                    _ => {}
                }
            }
            WorkloadSpec::CbrFleet {
                streams,
                rate_bps,
                pkt_size,
                start_ns,
                stop,
                ..
            } => {
                if *streams == 0 {
                    return Err(field_err(p("cbr_fleet.streams"), "must be >= 1"));
                }
                if hosts < 2 {
                    return Err(field_err(p("cbr_fleet"), "needs at least two hosts"));
                }
                if *rate_bps == 0 {
                    return Err(field_err(p("cbr_fleet.rate_bps"), "must be positive"));
                }
                if *pkt_size == 0 {
                    return Err(field_err(p("cbr_fleet.pkt_size"), "must be positive"));
                }
                if let TimeRef::At(stop_ns) = stop {
                    if stop_ns <= start_ns {
                        return Err(field_err(p("cbr_fleet.stop"), "must be after start_ns"));
                    }
                }
            }
            WorkloadSpec::Flows { list } => {
                for (i, f) in list.iter().enumerate() {
                    let fp = |rest: &str| format!("workloads.{w}.flows.list.{i}.{rest}");
                    for (field, host) in [("src_host", f.src_host), ("dst_host", f.dst_host)] {
                        if host >= hosts {
                            return Err(field_err(
                                fp(field),
                                format!("host index out of range (topology has {hosts} hosts)"),
                            ));
                        }
                    }
                    if f.src_host == f.dst_host {
                        return Err(field_err(fp("dst_host"), "must differ from src_host"));
                    }
                    if f.size == 0 {
                        return Err(field_err(fp("size"), "must be >= 1"));
                    }
                    if f.weight == 0 {
                        return Err(field_err(fp("weight"), "must be >= 1"));
                    }
                }
            }
            WorkloadSpec::Cbr { list } => {
                for (i, c) in list.iter().enumerate() {
                    let cp = |rest: &str| format!("workloads.{w}.cbr.list.{i}.{rest}");
                    for (field, host) in [("src_host", c.src_host), ("dst_host", c.dst_host)] {
                        if host >= hosts {
                            return Err(field_err(
                                cp(field),
                                format!("host index out of range (topology has {hosts} hosts)"),
                            ));
                        }
                    }
                    if c.src_host == c.dst_host {
                        return Err(field_err(cp("dst_host"), "must differ from src_host"));
                    }
                    if c.rate_bps == 0 {
                        return Err(field_err(cp("rate_bps"), "must be positive"));
                    }
                    if c.pkt_size == 0 {
                        return Err(field_err(cp("pkt_size"), "must be positive"));
                    }
                    if let TimeRef::At(stop_ns) = c.stop {
                        if stop_ns <= c.start_ns {
                            return Err(field_err(cp("stop"), "must be after start_ns"));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}
