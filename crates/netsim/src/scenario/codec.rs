//! JSON round-trip for [`ScenarioSpec`] over `qvisor_sim::json`.
//!
//! Parsing is strict: every object is read through the one field reader
//! ([`Obj`]), so an unknown key anywhere in the document is refused with
//! its dotted path, and [`ScenarioSpec::validate`] runs automatically so a
//! parsed spec is always runnable. Each top-level section is a path root
//! of its own (`sim.mss`, not `scenario.sim.mss`); a key of the scenario
//! itself reads `scenario.<key>`. Serialization always writes the full
//! form (every default made explicit), so parse → serialize → parse is the
//! identity.

use super::spec::{
    AlertSpec, ArrivalSpec, CbrDecl, FlowDecl, MonitorSpec, QvisorSpec, ScenarioSpec, SimSpec,
    SizeDistSpec, TimeRef, TopologySpec, WorkloadSpec,
};
use super::ScenarioError;
use qvisor_core::config_api::TenantConfig;
use qvisor_core::{Backend, PreprocScope, SynthConfig, ViolationAction};
use qvisor_ranking::{RankFnSpec, RankRange};
use qvisor_sim::json::{list, one_of, variant, Field, FieldError, Obj, Path, Value};

const UNKNOWN: [(&str, bool); 2] = [("best_effort", false), ("drop", true)];

const SCOPES: [(&str, PreprocScope); 3] = [
    ("everywhere", PreprocScope::Everywhere),
    ("switches_only", PreprocScope::SwitchesOnly),
    ("first_hop_only", PreprocScope::FirstHopOnly),
];

const VIOLATION_ACTIONS: [(&str, ViolationAction); 3] = [
    ("clamp", ViolationAction::Clamp),
    ("alarm_only", ViolationAction::AlarmOnly),
    ("drop", ViolationAction::Drop),
];

/// The name `table` gives `value`.
fn name_of<T: PartialEq>(table: &[(&'static str, T)], value: T) -> &'static str {
    let (name, _) = (table.iter().find(|(_, v)| *v == value)).expect("every value is named");
    name
}

fn time_ref_value(t: TimeRef) -> Value {
    match t {
        TimeRef::At(ns) => Value::object().set("at_ns", ns),
        TimeRef::AfterLastArrival(ns) => Value::object().set("after_last_arrival_ns", ns),
    }
}

impl Field<'_> for TimeRef {
    fn read(v: &Value, at: Path<'_>) -> Result<TimeRef, FieldError> {
        let o = Obj::new(v, at, &["at_ns", "after_last_arrival_ns"])?;
        match (o.opt("at_ns")?, o.opt("after_last_arrival_ns")?) {
            (Some(ns), None) => Ok(TimeRef::At(ns)),
            (None, Some(ns)) => Ok(TimeRef::AfterLastArrival(ns)),
            _ => Err(at.error("must have exactly one key of: at_ns, after_last_arrival_ns")),
        }
    }
}

fn scheduler_value(s: &Backend) -> Value {
    match *s {
        Backend::Fifo => Value::object().set("fifo", Value::object()),
        Backend::Pifo => Value::object().set("pifo", Value::object()),
        Backend::SpPifo { queues } => {
            Value::object().set("sp_pifo", Value::object().set("queues", queues))
        }
        Backend::StrictStatic { queues, span } => Value::object().set(
            "strict_static",
            Value::object()
                .set("queues", queues)
                .set("span_min", span.min)
                .set("span_max", span.max),
        ),
        Backend::Aifo { window, burst } => Value::object().set(
            "aifo",
            Value::object().set("window", window).set("burst", burst),
        ),
        Backend::FairTree { tenants } => {
            Value::object().set("fair_tree", Value::object().set("tenants", tenants))
        }
    }
}

type ReadBackend = fn(&Obj<'_, '_>) -> Result<Backend, FieldError>;

const SCHEDULERS: [(&str, (&[&str], ReadBackend)); 6] = [
    ("fifo", (&[], |_| Ok(Backend::Fifo))),
    ("pifo", (&[], |_| Ok(Backend::Pifo))),
    (
        "sp_pifo",
        (&["queues"], |o| {
            Ok(Backend::SpPifo {
                queues: o.req("queues")?,
            })
        }),
    ),
    (
        "strict_static",
        (&["queues", "span_min", "span_max"], |o| {
            Ok(Backend::StrictStatic {
                queues: o.req("queues")?,
                // Unchecked: `ScenarioSpec::validate` names an empty span.
                span: RankRange {
                    min: o.req("span_min")?,
                    max: o.req("span_max")?,
                },
            })
        }),
    ),
    (
        "aifo",
        (&["window", "burst"], |o| {
            Ok(Backend::Aifo {
                window: o.req("window")?,
                burst: o.req("burst")?,
            })
        }),
    ),
    (
        "fair_tree",
        (&["tenants"], |o| {
            Ok(Backend::FairTree {
                tenants: o.req("tenants")?,
            })
        }),
    ),
];

fn scheduler(v: &Value, at: Path<'_>) -> Result<Backend, FieldError> {
    let (o, read) = variant(v, &at, &SCHEDULERS)?;
    read(&o)
}

fn topology_value(t: &TopologySpec) -> Value {
    match *t {
        TopologySpec::LeafSpine {
            leaves,
            spines,
            hosts_per_leaf,
            access_bps,
            fabric_bps,
            access_delay_ns,
            fabric_delay_ns,
        } => Value::object().set(
            "leaf_spine",
            Value::object()
                .set("leaves", leaves)
                .set("spines", spines)
                .set("hosts_per_leaf", hosts_per_leaf)
                .set("access_bps", access_bps)
                .set("fabric_bps", fabric_bps)
                .set("access_delay_ns", access_delay_ns)
                .set("fabric_delay_ns", fabric_delay_ns),
        ),
        TopologySpec::Dumbbell {
            pairs,
            edge_bps,
            bottleneck_bps,
            delay_ns,
        } => Value::object().set(
            "dumbbell",
            Value::object()
                .set("pairs", pairs)
                .set("edge_bps", edge_bps)
                .set("bottleneck_bps", bottleneck_bps)
                .set("delay_ns", delay_ns),
        ),
        TopologySpec::FatTree {
            arity,
            rate_bps,
            delay_ns,
        } => Value::object().set(
            "fat_tree",
            Value::object()
                .set("arity", arity)
                .set("rate_bps", rate_bps)
                .set("delay_ns", delay_ns),
        ),
    }
}

type ReadTopology = fn(&Obj<'_, '_>) -> Result<TopologySpec, FieldError>;

const TOPOLOGIES: [(&str, (&[&str], ReadTopology)); 3] = [
    (
        "leaf_spine",
        (
            &[
                "leaves",
                "spines",
                "hosts_per_leaf",
                "access_bps",
                "fabric_bps",
                "access_delay_ns",
                "fabric_delay_ns",
            ],
            |o| {
                Ok(TopologySpec::LeafSpine {
                    leaves: o.req("leaves")?,
                    spines: o.req("spines")?,
                    hosts_per_leaf: o.req("hosts_per_leaf")?,
                    access_bps: o.req("access_bps")?,
                    fabric_bps: o.req("fabric_bps")?,
                    access_delay_ns: o.req("access_delay_ns")?,
                    fabric_delay_ns: o.req("fabric_delay_ns")?,
                })
            },
        ),
    ),
    (
        "dumbbell",
        (&["pairs", "edge_bps", "bottleneck_bps", "delay_ns"], |o| {
            Ok(TopologySpec::Dumbbell {
                pairs: o.req("pairs")?,
                edge_bps: o.req("edge_bps")?,
                bottleneck_bps: o.req("bottleneck_bps")?,
                delay_ns: o.req("delay_ns")?,
            })
        }),
    ),
    (
        "fat_tree",
        (&["arity", "rate_bps", "delay_ns"], |o| {
            Ok(TopologySpec::FatTree {
                arity: o.req("arity")?,
                rate_bps: o.req("rate_bps")?,
                delay_ns: o.req("delay_ns")?,
            })
        }),
    ),
];

impl Field<'_> for TopologySpec {
    fn read(v: &Value, at: Path<'_>) -> Result<TopologySpec, FieldError> {
        let (o, read) = variant(v, &at, &TOPOLOGIES)?;
        read(&o)
    }
}

fn sim_value(s: &SimSpec) -> Value {
    let mut v = Value::object()
        .set("mss", s.mss)
        .set("header_bytes", s.header_bytes)
        .set("ack_bytes", s.ack_bytes)
        .set("cwnd", s.cwnd)
        .set("rto_ns", s.rto_ns)
        .set("buffer_bytes", s.buffer_bytes)
        .set("horizon", time_ref_value(s.horizon))
        .set("random_loss", s.random_loss);
    if let Some(ns) = s.sample_interval_ns {
        v = v.set("sample_interval_ns", ns);
    }
    if let Some(ns) = s.adaptation_interval_ns {
        v = v.set("adaptation_interval_ns", ns);
    }
    v
}

impl Field<'_> for SimSpec {
    fn read(v: &Value, at: Path<'_>) -> Result<SimSpec, FieldError> {
        let keys = &[
            "mss",
            "header_bytes",
            "ack_bytes",
            "cwnd",
            "rto_ns",
            "buffer_bytes",
            "horizon",
            "random_loss",
            "sample_interval_ns",
            "adaptation_interval_ns",
        ];
        let o = Obj::new(v, at, keys)?;
        let d = SimSpec::default();
        Ok(SimSpec {
            mss: o.or("mss", d.mss)?,
            header_bytes: o.or("header_bytes", d.header_bytes)?,
            ack_bytes: o.or("ack_bytes", d.ack_bytes)?,
            cwnd: o.or("cwnd", d.cwnd)?,
            rto_ns: o.or("rto_ns", d.rto_ns)?,
            buffer_bytes: o.or("buffer_bytes", d.buffer_bytes)?,
            horizon: o.or("horizon", d.horizon)?,
            random_loss: o.or("random_loss", d.random_loss)?,
            sample_interval_ns: o.opt("sample_interval_ns")?,
            adaptation_interval_ns: o.opt("adaptation_interval_ns")?,
        })
    }
}

fn qvisor_value(q: &QvisorSpec) -> Value {
    let tenants: Vec<Value> = q.tenants.iter().map(TenantConfig::to_value).collect();
    let mut v = Value::object()
        .set("tenants", Value::from(tenants))
        .set("policy", q.policy.as_str())
        .set("unknown", name_of(&UNKNOWN, q.unknown_drop))
        .set("scope", name_of(&SCOPES, q.scope));
    if let Some(m) = &q.monitor {
        v = v.set(
            "monitor",
            Value::object()
                .set(
                    "violation_action",
                    name_of(&VIOLATION_ACTIONS, m.violation_action),
                )
                .set("idle_after_ns", m.idle_after_ns)
                .set("drift_ratio", m.drift_ratio),
        );
    }
    if let Some(s) = &q.synth {
        v = v.set(
            "synth",
            Value::object()
                .set("default_levels", s.default_levels)
                .set("first_rank", s.first_rank)
                .set("pref_bias_divisor", s.pref_bias_divisor),
        );
    }
    v
}

impl Field<'_> for QvisorSpec {
    fn read(v: &Value, at: Path<'_>) -> Result<QvisorSpec, FieldError> {
        let keys = &["tenants", "policy", "unknown", "scope", "monitor", "synth"];
        let o = Obj::new(v, at, keys)?;
        Ok(QvisorSpec {
            tenants: o.req("tenants")?,
            policy: o.req("policy")?,
            unknown_drop: (o.opt_with("unknown", |v, at| one_of(v, at, &UNKNOWN))?)
                .unwrap_or(false),
            scope: (o.opt_with("scope", |v, at| one_of(v, at, &SCOPES))?).unwrap_or_default(),
            monitor: o.opt("monitor")?,
            synth: o.opt_with("synth", synth_config)?,
        })
    }
}

impl Field<'_> for MonitorSpec {
    fn read(v: &Value, at: Path<'_>) -> Result<MonitorSpec, FieldError> {
        let keys = &["violation_action", "idle_after_ns", "drift_ratio"];
        let o = Obj::new(v, at, keys)?;
        Ok(MonitorSpec {
            violation_action: o.req_with("violation_action", |v, at| {
                one_of(v, at, &VIOLATION_ACTIONS)
            })?,
            idle_after_ns: o.req("idle_after_ns")?,
            drift_ratio: o.req("drift_ratio")?,
        })
    }
}

fn synth_config(v: &Value, at: Path<'_>) -> Result<SynthConfig, FieldError> {
    let keys = &["default_levels", "first_rank", "pref_bias_divisor"];
    let o = Obj::new(v, at, keys)?;
    Ok(SynthConfig {
        default_levels: o.req("default_levels")?,
        first_rank: o.req("first_rank")?,
        pref_bias_divisor: o.req("pref_bias_divisor")?,
    })
}

fn sizes_value(s: SizeDistSpec) -> Value {
    match s {
        SizeDistSpec::DataMining { scale_den } => {
            Value::object().set("data_mining", Value::object().set("scale_den", scale_den))
        }
        SizeDistSpec::WebSearch { scale_den } => {
            Value::object().set("web_search", Value::object().set("scale_den", scale_den))
        }
        SizeDistSpec::Fixed { bytes } => {
            Value::object().set("fixed", Value::object().set("bytes", bytes))
        }
        SizeDistSpec::Uniform { min, max } => {
            Value::object().set("uniform", Value::object().set("min", min).set("max", max))
        }
    }
}

type ReadSizes = fn(&Obj<'_, '_>) -> Result<SizeDistSpec, FieldError>;

const SIZES: [(&str, (&[&str], ReadSizes)); 4] = [
    (
        "data_mining",
        (&["scale_den"], |o| {
            Ok(SizeDistSpec::DataMining {
                scale_den: o.req("scale_den")?,
            })
        }),
    ),
    (
        "web_search",
        (&["scale_den"], |o| {
            Ok(SizeDistSpec::WebSearch {
                scale_den: o.req("scale_den")?,
            })
        }),
    ),
    (
        "fixed",
        (&["bytes"], |o| {
            Ok(SizeDistSpec::Fixed {
                bytes: o.req("bytes")?,
            })
        }),
    ),
    (
        "uniform",
        (&["min", "max"], |o| {
            Ok(SizeDistSpec::Uniform {
                min: o.req("min")?,
                max: o.req("max")?,
            })
        }),
    ),
];

impl Field<'_> for SizeDistSpec {
    fn read(v: &Value, at: Path<'_>) -> Result<SizeDistSpec, FieldError> {
        let (o, read) = variant(v, &at, &SIZES)?;
        read(&o)
    }
}

impl Field<'_> for ArrivalSpec {
    fn read(v: &Value, at: Path<'_>) -> Result<ArrivalSpec, FieldError> {
        let o = Obj::new(v, at, &["load", "rate_flows_per_sec"])?;
        match (o.opt("load")?, o.opt("rate_flows_per_sec")?) {
            (Some(load), None) => Ok(ArrivalSpec::Load(load)),
            (None, Some(rate)) => Ok(ArrivalSpec::RateFlowsPerSec(rate)),
            _ => Err(at.error("must have exactly one key of: load, rate_flows_per_sec")),
        }
    }
}

fn workload_value(w: &WorkloadSpec) -> Value {
    match w {
        WorkloadSpec::Poisson {
            tenant,
            flows,
            sizes,
            arrival,
            rng_stream,
        } => Value::object().set(
            "poisson",
            Value::object()
                .set("tenant", *tenant)
                .set("flows", *flows)
                .set("sizes", sizes_value(*sizes))
                .set(
                    "arrival",
                    match arrival {
                        ArrivalSpec::Load(l) => Value::object().set("load", *l),
                        ArrivalSpec::RateFlowsPerSec(r) => {
                            Value::object().set("rate_flows_per_sec", *r)
                        }
                    },
                )
                .set("rng_stream", *rng_stream),
        ),
        WorkloadSpec::CbrFleet {
            tenant,
            streams,
            rate_bps,
            pkt_size,
            start_ns,
            stop,
            deadline_offset_ns,
            rng_stream,
        } => Value::object().set(
            "cbr_fleet",
            Value::object()
                .set("tenant", *tenant)
                .set("streams", *streams)
                .set("rate_bps", *rate_bps)
                .set("pkt_size", *pkt_size)
                .set("start_ns", *start_ns)
                .set("stop", time_ref_value(*stop))
                .set("deadline_offset_ns", *deadline_offset_ns)
                .set("rng_stream", *rng_stream),
        ),
        WorkloadSpec::Flows { list } => {
            let items: Vec<Value> = list
                .iter()
                .map(|f| {
                    let mut v = Value::object()
                        .set("tenant", f.tenant)
                        .set("src_host", f.src_host)
                        .set("dst_host", f.dst_host)
                        .set("size", f.size)
                        .set("start_ns", f.start_ns);
                    if let Some(d) = f.deadline_ns {
                        v = v.set("deadline_ns", d);
                    }
                    v.set("weight", f.weight)
                })
                .collect();
            Value::object().set("flows", Value::object().set("list", Value::from(items)))
        }
        WorkloadSpec::Cbr { list } => {
            let items: Vec<Value> = list
                .iter()
                .map(|c| {
                    Value::object()
                        .set("tenant", c.tenant)
                        .set("src_host", c.src_host)
                        .set("dst_host", c.dst_host)
                        .set("rate_bps", c.rate_bps)
                        .set("pkt_size", c.pkt_size)
                        .set("start_ns", c.start_ns)
                        .set("stop", time_ref_value(c.stop))
                        .set("deadline_offset_ns", c.deadline_offset_ns)
                })
                .collect();
            Value::object().set("cbr", Value::object().set("list", Value::from(items)))
        }
    }
}

type ReadWorkload = fn(&Obj<'_, '_>) -> Result<WorkloadSpec, FieldError>;

const WORKLOADS: [(&str, (&[&str], ReadWorkload)); 4] = [
    (
        "poisson",
        (
            &["tenant", "flows", "sizes", "arrival", "rng_stream"],
            |o| {
                Ok(WorkloadSpec::Poisson {
                    tenant: o.req("tenant")?,
                    flows: o.req("flows")?,
                    sizes: o.req("sizes")?,
                    arrival: o.req("arrival")?,
                    rng_stream: o.req("rng_stream")?,
                })
            },
        ),
    ),
    (
        "cbr_fleet",
        (
            &[
                "tenant",
                "streams",
                "rate_bps",
                "pkt_size",
                "start_ns",
                "stop",
                "deadline_offset_ns",
                "rng_stream",
            ],
            |o| {
                Ok(WorkloadSpec::CbrFleet {
                    tenant: o.req("tenant")?,
                    streams: o.req("streams")?,
                    rate_bps: o.req("rate_bps")?,
                    pkt_size: o.req("pkt_size")?,
                    start_ns: o.req("start_ns")?,
                    stop: o.req("stop")?,
                    deadline_offset_ns: o.req("deadline_offset_ns")?,
                    rng_stream: o.req("rng_stream")?,
                })
            },
        ),
    ),
    (
        "flows",
        (&["list"], |o| {
            Ok(WorkloadSpec::Flows {
                list: o.req("list")?,
            })
        }),
    ),
    (
        "cbr",
        (&["list"], |o| {
            Ok(WorkloadSpec::Cbr {
                list: o.req("list")?,
            })
        }),
    ),
];

impl Field<'_> for WorkloadSpec {
    fn read(v: &Value, at: Path<'_>) -> Result<WorkloadSpec, FieldError> {
        let (o, read) = variant(v, &at, &WORKLOADS)?;
        read(&o)
    }
}

impl Field<'_> for FlowDecl {
    fn read(v: &Value, at: Path<'_>) -> Result<FlowDecl, FieldError> {
        let keys = &[
            "tenant",
            "src_host",
            "dst_host",
            "size",
            "start_ns",
            "deadline_ns",
            "weight",
        ];
        let o = Obj::new(v, at, keys)?;
        Ok(FlowDecl {
            tenant: o.req("tenant")?,
            src_host: o.req("src_host")?,
            dst_host: o.req("dst_host")?,
            size: o.req("size")?,
            start_ns: o.req("start_ns")?,
            deadline_ns: o.opt("deadline_ns")?,
            weight: o.or("weight", 1)?,
        })
    }
}

impl Field<'_> for CbrDecl {
    fn read(v: &Value, at: Path<'_>) -> Result<CbrDecl, FieldError> {
        let keys = &[
            "tenant",
            "src_host",
            "dst_host",
            "rate_bps",
            "pkt_size",
            "start_ns",
            "stop",
            "deadline_offset_ns",
        ];
        let o = Obj::new(v, at, keys)?;
        Ok(CbrDecl {
            tenant: o.req("tenant")?,
            src_host: o.req("src_host")?,
            dst_host: o.req("dst_host")?,
            rate_bps: o.req("rate_bps")?,
            pkt_size: o.req("pkt_size")?,
            start_ns: o.req("start_ns")?,
            stop: o.req("stop")?,
            deadline_offset_ns: o.req("deadline_offset_ns")?,
        })
    }
}

fn alert_value(a: &AlertSpec) -> Value {
    Value::object()
        .set("metric", a.metric.as_str())
        .set("tenant", a.tenant)
        .set("window_ns", a.window_ns)
        .set("threshold", a.threshold)
}

impl Field<'_> for AlertSpec {
    fn read(v: &Value, at: Path<'_>) -> Result<AlertSpec, FieldError> {
        let o = Obj::new(v, at, &["metric", "tenant", "window_ns", "threshold"])?;
        Ok(AlertSpec {
            metric: o.req("metric")?,
            tenant: o.req("tenant")?,
            window_ns: o.req("window_ns")?,
            threshold: o.req("threshold")?,
        })
    }
}

/// One `rank_fns` entry: a tenant and its rank function.
fn rank_fn(v: &Value, at: Path<'_>) -> Result<(u16, RankFnSpec), FieldError> {
    let o = Obj::new(v, at, &["tenant", "fn"])?;
    Ok((o.req("tenant")?, o.req("fn")?))
}

/// A top-level section of a scenario, read as a path root of its own.
fn section<'v, T>(
    o: &Obj<'v, '_>,
    key: &'static str,
    read: impl FnOnce(&'v Value, Path<'_>) -> Result<T, FieldError>,
) -> Result<Option<T>, FieldError> {
    o.opt_with(key, |v, _| read(v, Path::Root(key)))
}

impl ScenarioSpec {
    /// Render as a JSON value (full form: every default explicit).
    pub fn to_value(&self) -> Value {
        let rank_fns: Vec<Value> = self
            .rank_fns
            .iter()
            .map(|(tenant, spec)| {
                Value::object()
                    .set("tenant", *tenant)
                    .set("fn", spec.to_value())
            })
            .collect();
        let workloads: Vec<Value> = self.workloads.iter().map(workload_value).collect();
        let mut v = Value::object()
            .set("name", self.name.as_str())
            .set("seed", self.seed)
            .set("topology", topology_value(&self.topology))
            .set("sim", sim_value(&self.sim))
            .set("scheduler", scheduler_value(&self.scheduler));
        if let Some(hs) = &self.host_scheduler {
            v = v.set("host_scheduler", scheduler_value(hs));
        }
        if let Some(q) = &self.qvisor {
            v = v.set("qvisor", qvisor_value(q));
        }
        v = v
            .set("rank_fns", Value::from(rank_fns))
            .set("workloads", Value::from(workloads));
        if !self.alerts.is_empty() {
            let alerts: Vec<Value> = self.alerts.iter().map(alert_value).collect();
            v = v.set("alerts", Value::from(alerts));
        }
        v
    }

    /// Parse from a JSON value; strict about unknown keys and validates
    /// every cross-field constraint.
    pub fn from_value(v: &Value) -> Result<ScenarioSpec, ScenarioError> {
        let keys = &[
            "name",
            "seed",
            "topology",
            "sim",
            "scheduler",
            "host_scheduler",
            "qvisor",
            "rank_fns",
            "workloads",
            "alerts",
        ];
        let o = Obj::new(v, Path::Root("scenario"), keys)?;
        let spec = ScenarioSpec {
            name: o.or("name", String::new())?,
            seed: o.or("seed", 1)?,
            topology: section(&o, "topology", TopologySpec::read)?
                .ok_or_else(|| Path::Root("topology").error("missing required field"))?,
            sim: section(&o, "sim", SimSpec::read)?.unwrap_or_default(),
            scheduler: section(&o, "scheduler", scheduler)?.unwrap_or(Backend::Pifo),
            host_scheduler: section(&o, "host_scheduler", scheduler)?,
            qvisor: section(&o, "qvisor", QvisorSpec::read)?,
            rank_fns: section(&o, "rank_fns", |v, at| list(v, at, rank_fn))?.unwrap_or_default(),
            workloads: section(&o, "workloads", Vec::read)?.unwrap_or_default(),
            alerts: section(&o, "alerts", Vec::read)?.unwrap_or_default(),
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        self.to_value().to_pretty()
    }

    /// Parse and validate a JSON document.
    pub fn from_json(text: &str) -> Result<ScenarioSpec, ScenarioError> {
        ScenarioSpec::from_value(&Value::parse(text).map_err(ScenarioError::Json)?)
    }
}
