//! The scenario engine: materialize a [`ScenarioSpec`] into a configured
//! [`Simulation`] and run it to a [`SimReport`].
//!
//! Materialization is fully deterministic: every workload draws from its
//! own derived RNG stream (`seed_from(seed).derive(rng_stream)`), flows
//! are added in declaration order (so flow ids and ECMP hashing are
//! stable), and rank functions are registered before any traffic.

use super::spec::{ArrivalSpec, QvisorSpec, ScenarioSpec, SizeDistSpec, TimeRef, WorkloadSpec};
use super::ScenarioError;
use crate::config::{QvisorSetup, SimConfig};
use crate::report::SimReport;
use crate::sim::{judge, Simulation};
use qvisor_core::config_api::TenantConfig;
use qvisor_core::{
    Admitted, JointPolicy, MonitorConfig, Refused, SpecPaths, Target, UnknownTenantAction,
    VerifyReport,
};
use qvisor_scheduler::Capacity;
use qvisor_sim::{json::Value, EventCore, Nanos, NodeId, SimRng, TenantId};
use qvisor_telemetry::{SloMonitor, Telemetry, Tracer};
use qvisor_topology::{Dumbbell, FatTree, LeafSpine, LeafSpineConfig, Topology};
use qvisor_transport::SizeBucket;
use qvisor_workloads::{
    arrival_rate_for_load, cbr_tenant, EmpiricalCdf, FixedSize, FlowSizeDist, GeneratedCbr,
    GeneratedFlow, PoissonFlowGen, UniformSize,
};

/// Executes [`ScenarioSpec`]s. Holds the observability handles and event
/// core wired into every simulation it builds; the default engine runs
/// with both disabled.
#[derive(Clone, Default)]
pub struct Engine {
    telemetry: Telemetry,
    tracer: Tracer,
    monitor: SloMonitor,
    event_core: EventCore,
    deny_warnings: bool,
}

impl Engine {
    /// An engine with telemetry and tracing disabled.
    pub fn new() -> Engine {
        Engine::default()
    }

    /// Wire a telemetry registry into built simulations.
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Engine {
        self.telemetry = telemetry.clone();
        self
    }

    /// Wire a packet flight recorder into built simulations.
    pub fn with_tracer(mut self, tracer: &Tracer) -> Engine {
        self.tracer = tracer.clone();
        self
    }

    /// Wire a streaming SLO monitor into built simulations. Build it from
    /// the scenario's declared rules ([`ScenarioSpec::alert_rules`]), keep
    /// a clone, and export after the run.
    pub fn with_monitor(mut self, monitor: &SloMonitor) -> Engine {
        self.monitor = monitor.clone();
        self
    }

    /// Override the event-queue core (oracle runs).
    pub fn with_event_core(mut self, core: EventCore) -> Engine {
        self.event_core = core;
        self
    }

    /// Treat verifier warnings as build failures (errors always fail).
    pub fn with_deny_warnings(mut self, deny: bool) -> Engine {
        self.deny_warnings = deny;
        self
    }

    /// Statically verify `spec`'s QVISOR policy without building or
    /// running anything: synthesize the joint policy and prove (or refute,
    /// with witnesses) overflow-freedom, order preservation, and
    /// cross-tenant isolation. Scenarios without a `qvisor` block verify
    /// trivially.
    pub fn check(&self, spec: &ScenarioSpec) -> Result<VerifyReport, ScenarioError> {
        self.check_with_paths(spec, &SpecPaths::scenario())
    }

    /// Like [`Engine::check`], but roots diagnostic spans at `paths` —
    /// e.g. `SpecPaths::with_prefix("base.qvisor.")` when the scenario is
    /// the `base` of a sweep document.
    pub fn check_with_paths(
        &self,
        spec: &ScenarioSpec,
        paths: &SpecPaths,
    ) -> Result<VerifyReport, ScenarioError> {
        Ok(self.verify(spec, paths)?.into_report())
    }

    /// The engine's verification: validate `spec`, synthesize its QVISOR
    /// policy and put it through the deployment gate ([`admit`] on the
    /// scenario's schedulers and scope, spans rooted at `paths`, at this
    /// engine's strictness). The result is what
    /// [`Engine::build_verified`] deploys — the joint policy the report
    /// judged, not a second synthesis of it. A policy the gate refuses
    /// still verifies: its report is what [`Engine::check`] prints.
    ///
    /// [`admit`]: qvisor_core::admit
    pub fn verify<'s>(
        &self,
        spec: &'s ScenarioSpec,
        paths: &SpecPaths,
    ) -> Result<Verified<'s>, ScenarioError> {
        spec.validate()?;
        let Some(q) = spec.qvisor.as_ref() else {
            return Ok(Verified {
                spec,
                deployment: None,
            });
        };
        let setup = build_qvisor(q);
        let target = Target {
            scheduler: spec.scheduler,
            host_scheduler: spec.host_scheduler,
            scope: q.scope,
        };
        let (verdict, synth_ns) =
            judge(&setup, &target, paths, self.deny_warnings).map_err(ScenarioError::Build)?;
        Ok(Verified {
            spec,
            deployment: Some(Deployment {
                setup,
                verdict,
                synth_ns,
            }),
        })
    }

    /// Materialize `spec` into a ready-to-run simulation: topology built,
    /// QVISOR synthesized and deployed, rank functions registered, and all
    /// traffic loaded. The engine's verification (spans rooted at the
    /// scenario document) followed by [`Engine::build_verified`].
    pub fn build(&self, spec: &ScenarioSpec) -> Result<Simulation, ScenarioError> {
        self.build_verified(spec, self.verify(spec, &SpecPaths::scenario())?)
    }

    /// Materialize `spec` from its verification: deploy the joint policy
    /// `verified` judged. Refused when `verified` judged another scenario,
    /// and — the mandatory pre-deployment gate — when the gate refused it
    /// at this engine's strictness (warn-by-default; `with_deny_warnings`
    /// promotes warnings to failures).
    pub fn build_verified(
        &self,
        spec: &ScenarioSpec,
        verified: Verified<'_>,
    ) -> Result<Simulation, ScenarioError> {
        if !std::ptr::eq(spec, verified.spec) && *spec != *verified.spec {
            return Err(ScenarioError::NotVerified);
        }
        let (setup, deployment) = match verified.deployment {
            Some(Deployment {
                setup,
                verdict,
                synth_ns,
            }) => {
                let admitted = verdict
                    .and_then(|admitted| admitted.regate(self.deny_warnings))
                    .map_err(|refused| ScenarioError::Verify(Box::new(refused.report)))?;
                (Some(setup), Some((admitted, synth_ns)))
            }
            None => (None, None),
        };
        let (topology, prep) = prepare(spec)?;
        let cfg = self.sim_config(spec, setup, prep.last_arrival);
        let mut sim =
            Simulation::deploy(topology, cfg, deployment).map_err(ScenarioError::Build)?;
        populate(spec, &prep, &mut sim);
        Ok(sim)
    }

    /// Build and run `spec` to completion.
    pub fn run(&self, spec: &ScenarioSpec) -> Result<SimReport, ScenarioError> {
        Ok(self.build(spec)?.run())
    }

    /// Assemble the [`SimConfig`] for `spec`: a pure function of the spec,
    /// its lowered QVISOR block and the last reliable arrival, plus this
    /// engine's observability handles and event core.
    fn sim_config(
        &self,
        spec: &ScenarioSpec,
        qvisor: Option<QvisorSetup>,
        last_arrival: Nanos,
    ) -> SimConfig {
        SimConfig {
            seed: spec.seed,
            mss: spec.sim.mss,
            header_bytes: spec.sim.header_bytes,
            ack_bytes: spec.sim.ack_bytes,
            cwnd: spec.sim.cwnd,
            rto: Nanos(spec.sim.rto_ns),
            buffer: Capacity::bytes(spec.sim.buffer_bytes),
            scheduler: spec.scheduler,
            host_scheduler: spec.host_scheduler,
            horizon: resolve(spec.sim.horizon, last_arrival),
            random_loss: spec.sim.random_loss,
            sample_interval: spec.sim.sample_interval_ns.map(Nanos),
            adaptation_interval: spec.sim.adaptation_interval_ns.map(Nanos),
            qvisor,
            event_core: self.event_core,
            telemetry: self.telemetry.clone(),
            // One handle for every reader of the records; the caller's
            // tracer is left as it is.
            tracer: self.monitor.reading(&self.tracer),
        }
    }
}

/// A scenario's QVISOR policy as the engine's verification judged it: the
/// deployment gate's verdict around what is scenario-specific — the spec
/// it judged, the lowered setup and the wall-clock its synthesis took.
/// Only [`Engine::verify`] makes one, and [`Engine::build_verified`]
/// deploys it for the scenario it was made from and no other.
pub struct Verified<'s> {
    spec: &'s ScenarioSpec,
    /// `None` without a `qvisor` block.
    deployment: Option<Deployment>,
}

struct Deployment {
    setup: QvisorSetup,
    verdict: Result<Admitted, Refused>,
    synth_ns: u64,
}

/// The report of a scenario without QVISOR: nothing to say.
static NOTHING_TO_VERIFY: VerifyReport = VerifyReport {
    tenants: Vec::new(),
    diagnostics: Vec::new(),
};

impl Verified<'_> {
    /// The verifier's report.
    pub fn report(&self) -> &VerifyReport {
        match self.deployment.as_ref().map(|d| &d.verdict) {
            Some(Ok(admitted)) => admitted.report(),
            Some(Err(refused)) => &refused.report,
            None => &NOTHING_TO_VERIFY,
        }
    }

    /// The joint policy the report judged (`None` without a `qvisor`
    /// block).
    pub fn joint(&self) -> Option<&JointPolicy> {
        self.deployment.as_ref().map(|d| match &d.verdict {
            Ok(admitted) => admitted.joint(),
            Err(refused) => &refused.joint,
        })
    }

    /// The verifier's report, by value.
    fn into_report(self) -> VerifyReport {
        match self.deployment.map(|d| d.verdict) {
            Some(Ok(admitted)) => admitted.into_report(),
            Some(Err(refused)) => refused.report,
            None => VerifyReport::empty(),
        }
    }
}

/// What materialization needs besides the topology before a
/// [`Simulation`] exists: the canonical host list and the pre-generated
/// random workloads (each drawn on its own derived RNG stream, so the
/// result is a pure function of the spec).
struct Prepared {
    hosts: Vec<NodeId>,
    generated: Vec<Option<Vec<GeneratedFlow>>>,
    fleets: Vec<Option<Vec<GeneratedCbr>>>,
    last_arrival: Nanos,
}

fn resolve(t: TimeRef, last_arrival: Nanos) -> Nanos {
    match t {
        TimeRef::At(ns) => Nanos(ns),
        TimeRef::AfterLastArrival(ns) => last_arrival + Nanos(ns),
    }
}

fn prepare(spec: &ScenarioSpec) -> Result<(Topology, Prepared), ScenarioError> {
    let (topology, hosts) = build_topology(spec);

    // Phase 1: generate Poisson flows (each workload on its own RNG
    // stream) so the last reliable arrival is known before resolving
    // relative time references.
    let mut generated: Vec<Option<Vec<GeneratedFlow>>> = Vec::new();
    for w in &spec.workloads {
        generated.push(match w {
            WorkloadSpec::Poisson {
                tenant,
                flows,
                sizes,
                arrival,
                rng_stream,
            } => {
                let dist = build_sizes(*sizes);
                let rate = match arrival {
                    ArrivalSpec::Load(load) => arrival_rate_for_load(
                        *load,
                        hosts.len(),
                        spec.topology.access_bps(),
                        dist.mean_bytes(),
                    ),
                    ArrivalSpec::RateFlowsPerSec(r) => *r,
                };
                let gen = PoissonFlowGen {
                    tenant: TenantId(*tenant),
                    hosts: &hosts,
                    sizes: &*dist,
                    rate_flows_per_sec: rate,
                };
                let mut rng = SimRng::seed_from(spec.seed).derive(*rng_stream);
                Some(gen.generate(*flows, &mut rng))
            }
            _ => None,
        });
    }
    let mut last_arrival = Nanos::ZERO;
    for (w, flows) in spec.workloads.iter().zip(&generated) {
        if let Some(flows) = flows {
            for f in flows {
                last_arrival = last_arrival.max(f.start);
            }
        }
        if let WorkloadSpec::Flows { list } = w {
            for f in list {
                last_arrival = last_arrival.max(Nanos(f.start_ns));
            }
        }
    }

    // Phase 2: generate CBR fleets (stop times may be relative).
    let mut fleets: Vec<Option<Vec<GeneratedCbr>>> = Vec::new();
    for w in &spec.workloads {
        fleets.push(match w {
            WorkloadSpec::CbrFleet {
                tenant,
                streams,
                rate_bps,
                pkt_size,
                start_ns,
                stop,
                deadline_offset_ns,
                rng_stream,
            } => {
                let stop = resolve(*stop, last_arrival);
                if stop <= Nanos(*start_ns) {
                    return Err(super::field_err(
                        "workloads.cbr_fleet.stop",
                        "resolves to a time before start_ns",
                    ));
                }
                let mut rng = SimRng::seed_from(spec.seed).derive(*rng_stream);
                Some(cbr_tenant(
                    TenantId(*tenant),
                    &hosts,
                    *streams,
                    *rate_bps,
                    *pkt_size,
                    Nanos(*start_ns),
                    stop,
                    Nanos(*deadline_offset_ns),
                    &mut rng,
                ))
            }
            _ => None,
        });
    }

    let prep = Prepared {
        hosts,
        generated,
        fleets,
        last_arrival,
    };
    Ok((topology, prep))
}

/// Register rank functions and load every workload into `sim`, in
/// declaration order (flow ids and ECMP hashing are stable).
fn populate(spec: &ScenarioSpec, prep: &Prepared, sim: &mut Simulation) {
    for (tenant, rank_fn) in &spec.rank_fns {
        sim.register_rank_fn(TenantId(*tenant), rank_fn.build());
    }
    let flows = spec.workloads.iter().enumerate().map(|(i, w)| match w {
        WorkloadSpec::Poisson { .. } => prep.generated[i].as_ref().map_or(0, Vec::len),
        WorkloadSpec::CbrFleet { .. } => prep.fleets[i].as_ref().map_or(0, Vec::len),
        WorkloadSpec::Flows { list } => list.len(),
        WorkloadSpec::Cbr { list } => list.len(),
    });
    sim.reserve_flows(flows.sum());
    for (i, w) in spec.workloads.iter().enumerate() {
        match w {
            WorkloadSpec::Poisson { .. } => {
                for f in prep.generated[i].as_ref().expect("generated in phase 1") {
                    sim.add_generated(f);
                }
            }
            WorkloadSpec::CbrFleet { .. } => {
                for c in prep.fleets[i].as_ref().expect("generated in phase 2") {
                    sim.add_generated_cbr(c);
                }
            }
            WorkloadSpec::Flows { list } => {
                for f in list {
                    sim.add_flow(crate::NewFlow {
                        tenant: TenantId(f.tenant),
                        src: prep.hosts[f.src_host],
                        dst: prep.hosts[f.dst_host],
                        size: f.size,
                        start: Nanos(f.start_ns),
                        deadline: f.deadline_ns.map(Nanos),
                        weight: f.weight,
                    });
                }
            }
            WorkloadSpec::Cbr { list } => {
                for c in list {
                    sim.add_cbr(crate::NewCbr {
                        tenant: TenantId(c.tenant),
                        src: prep.hosts[c.src_host],
                        dst: prep.hosts[c.dst_host],
                        rate_bps: c.rate_bps,
                        pkt_size: c.pkt_size,
                        start: Nanos(c.start_ns),
                        stop: resolve(c.stop, prep.last_arrival),
                        deadline_offset: Nanos(c.deadline_offset_ns),
                    });
                }
            }
        }
    }
}

fn build_topology(spec: &ScenarioSpec) -> (Topology, Vec<NodeId>) {
    match spec.topology {
        super::TopologySpec::LeafSpine {
            leaves,
            spines,
            hosts_per_leaf,
            access_bps,
            fabric_bps,
            access_delay_ns,
            fabric_delay_ns,
        } => {
            let ls = LeafSpine::build(&LeafSpineConfig {
                leaves,
                spines,
                hosts_per_leaf,
                access_bps,
                fabric_bps,
                access_delay: Nanos(access_delay_ns),
                fabric_delay: Nanos(fabric_delay_ns),
            });
            let hosts = ls.all_hosts();
            (ls.topology, hosts)
        }
        super::TopologySpec::Dumbbell {
            pairs,
            edge_bps,
            bottleneck_bps,
            delay_ns,
        } => {
            let d = Dumbbell::build(pairs, edge_bps, bottleneck_bps, Nanos(delay_ns));
            let hosts: Vec<NodeId> = d
                .senders
                .iter()
                .chain(d.receivers.iter())
                .copied()
                .collect();
            (d.topology, hosts)
        }
        super::TopologySpec::FatTree {
            arity,
            rate_bps,
            delay_ns,
        } => {
            let ft = FatTree::build(arity, rate_bps, Nanos(delay_ns));
            let hosts = ft.hosts.clone();
            (ft.topology, hosts)
        }
    }
}

fn build_sizes(spec: SizeDistSpec) -> Box<dyn FlowSizeDist> {
    match spec {
        SizeDistSpec::DataMining { scale_den } => {
            Box::new(EmpiricalCdf::data_mining().scaled(1, scale_den))
        }
        SizeDistSpec::WebSearch { scale_den } => {
            Box::new(EmpiricalCdf::web_search().scaled(1, scale_den))
        }
        SizeDistSpec::Fixed { bytes } => Box::new(FixedSize(bytes)),
        SizeDistSpec::Uniform { min, max } => Box::new(UniformSize::new(min, max)),
    }
}

fn build_qvisor(spec: &QvisorSpec) -> QvisorSetup {
    QvisorSetup {
        specs: spec.tenants.iter().map(TenantConfig::spec).collect(),
        policy: spec.policy.clone(),
        synth: spec.synth.unwrap_or_default(),
        unknown: if spec.unknown_drop {
            UnknownTenantAction::Drop
        } else {
            UnknownTenantAction::BestEffort
        },
        scope: spec.scope,
        monitor: spec.monitor.map(|m| MonitorConfig {
            violation_action: m.violation_action,
            idle_after: Nanos(m.idle_after_ns),
            drift_ratio: m.drift_ratio,
        }),
    }
}

/// Render a [`SimReport`] as a deterministic JSON value: identical runs
/// produce byte-identical output (maps are emitted in sorted key order,
/// no wall-clock data).
pub fn report_json(report: &SimReport) -> Value {
    let tenants: Vec<Value> = report
        .tenants
        .iter()
        .map(|(id, t)| {
            Value::object()
                .set("tenant", id.0)
                .set("sent_pkts", t.sent_pkts)
                .set("delivered_pkts", t.delivered_pkts)
                .set("delivered_bytes", t.delivered_bytes)
                .set("dropped_pkts", t.dropped_pkts)
                .set("deadline_met", t.deadline_met)
                .set("deadline_missed", t.deadline_missed)
        })
        .collect();
    let node_drops: Vec<Value> = report
        .node_drops
        .iter()
        .map(|(node, drops)| Value::from(vec![Value::from(node.0), Value::from(*drops)]))
        .collect();
    let samples: Vec<Value> = report
        .samples
        .iter()
        .map(|(t, tenant, bytes)| {
            Value::from(vec![
                Value::from(*t),
                Value::from(tenant.0),
                Value::from(*bytes),
            ])
        })
        .collect();
    let fct = Value::object()
        .set("count", report.fct.count(None) as u64)
        .set(
            "mean_ms_all",
            report
                .fct
                .mean_fct_ms(None, SizeBucket::ALL)
                .map(Value::from)
                .unwrap_or(Value::Null),
        )
        .set(
            "mean_ms_small",
            report
                .fct
                .mean_fct_ms(None, SizeBucket::SMALL)
                .map(Value::from)
                .unwrap_or(Value::Null),
        )
        .set(
            "mean_ms_large",
            report
                .fct
                .mean_fct_ms(None, SizeBucket::LARGE)
                .map(Value::from)
                .unwrap_or(Value::Null),
        );
    let mut value = Value::object()
        .set("events", report.events)
        .set("end_time_ns", report.end_time.as_nanos())
        .set("incomplete_flows", report.incomplete_flows)
        .set("preproc_dropped", report.preproc_dropped)
        .set("monitor_violations", report.monitor_violations)
        .set("random_losses", report.random_losses)
        .set("reconfigurations", report.reconfigurations);
    // Written only when a reconfiguration was refused, so the report of
    // every run without one keeps its bytes.
    if report.reconfigurations_refused > 0 {
        value = value.set("reconfigurations_refused", report.reconfigurations_refused);
    }
    value
        .set("fct", fct)
        .set("tenants", Value::from(tenants))
        .set("node_drops", Value::from(node_drops))
        .set("samples", Value::from(samples))
}
