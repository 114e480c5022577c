//! JSON round-trip for [`ScenarioSpec`] over `qvisor_sim::json`.
//!
//! Parsing is strict: unknown keys anywhere in the document are rejected
//! with the offending field's dotted path, and
//! [`ScenarioSpec::validate`] runs automatically so a parsed spec is
//! always runnable. Serialization always writes the full form (every
//! default made explicit), so parse → serialize → parse is the identity.

use super::spec::{
    AlertSpec, ArrivalSpec, CbrDecl, FlowDecl, MonitorSpec, QvisorSpec, ScenarioSpec, SimSpec,
    SizeDistSpec, TenantDecl, TimeRef, TopologySpec, WorkloadSpec,
};
use super::{field_err, ScenarioError};
use qvisor_core::{Backend, PreprocScope, SynthConfig, ViolationAction};
use qvisor_ranking::{RankFnSpec, RankRange};
use qvisor_sim::json::Value;

fn check_keys(v: &Value, path: &str, allowed: &[&str]) -> Result<(), ScenarioError> {
    let obj = v
        .as_object()
        .ok_or_else(|| field_err(path, "must be an object"))?;
    for (key, _) in obj {
        if !allowed.contains(&key.as_str()) {
            return Err(field_err(
                format!("{path}.{key}"),
                format!("unknown field (allowed: {})", allowed.join(", ")),
            ));
        }
    }
    Ok(())
}

/// The single key of an externally tagged enum object.
fn sole_key<'v>(
    v: &'v Value,
    path: &str,
    allowed: &[&str],
) -> Result<(&'v str, &'v Value), ScenarioError> {
    let obj = v
        .as_object()
        .ok_or_else(|| field_err(path, "must be a single-key object"))?;
    if obj.len() != 1 {
        return Err(field_err(
            path,
            format!("must have exactly one key of: {}", allowed.join(", ")),
        ));
    }
    let (key, inner) = &obj[0];
    if !allowed.contains(&key.as_str()) {
        return Err(field_err(
            format!("{path}.{key}"),
            format!("unknown variant (allowed: {})", allowed.join(", ")),
        ));
    }
    Ok((key.as_str(), inner))
}

fn get_u64(v: &Value, path: &str, key: &str) -> Result<u64, ScenarioError> {
    v.get(key)
        .ok_or_else(|| field_err(format!("{path}.{key}"), "missing required field"))?
        .as_u64()
        .ok_or_else(|| field_err(format!("{path}.{key}"), "must be an unsigned integer"))
}

fn get_usize(v: &Value, path: &str, key: &str) -> Result<usize, ScenarioError> {
    Ok(get_u64(v, path, key)? as usize)
}

fn get_u32(v: &Value, path: &str, key: &str) -> Result<u32, ScenarioError> {
    u32::try_from(get_u64(v, path, key)?)
        .map_err(|_| field_err(format!("{path}.{key}"), "must fit a u32"))
}

fn get_u16(v: &Value, path: &str, key: &str) -> Result<u16, ScenarioError> {
    u16::try_from(get_u64(v, path, key)?)
        .map_err(|_| field_err(format!("{path}.{key}"), "must fit a u16"))
}

fn get_f64(v: &Value, path: &str, key: &str) -> Result<f64, ScenarioError> {
    v.get(key)
        .ok_or_else(|| field_err(format!("{path}.{key}"), "missing required field"))?
        .as_f64()
        .ok_or_else(|| field_err(format!("{path}.{key}"), "must be a number"))
}

fn get_str<'v>(v: &'v Value, path: &str, key: &str) -> Result<&'v str, ScenarioError> {
    v.get(key)
        .ok_or_else(|| field_err(format!("{path}.{key}"), "missing required field"))?
        .as_str()
        .ok_or_else(|| field_err(format!("{path}.{key}"), "must be a string"))
}

fn opt_u64(v: &Value, path: &str, key: &str) -> Result<Option<u64>, ScenarioError> {
    match v.get(key) {
        None => Ok(None),
        Some(val) if val.is_null() => Ok(None),
        Some(val) => val
            .as_u64()
            .map(Some)
            .ok_or_else(|| field_err(format!("{path}.{key}"), "must be an unsigned integer")),
    }
}

fn time_ref_value(t: TimeRef) -> Value {
    match t {
        TimeRef::At(ns) => Value::object().set("at_ns", ns),
        TimeRef::AfterLastArrival(ns) => Value::object().set("after_last_arrival_ns", ns),
    }
}

fn time_ref_from(v: &Value, path: &str) -> Result<TimeRef, ScenarioError> {
    let (key, _) = sole_key(v, path, &["at_ns", "after_last_arrival_ns"])?;
    let ns = get_u64(v, path, key)?;
    Ok(match key {
        "at_ns" => TimeRef::At(ns),
        _ => TimeRef::AfterLastArrival(ns),
    })
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

fn scheduler_from(v: &Value, path: &str) -> Result<Backend, ScenarioError> {
    let variants = [
        "fifo",
        "pifo",
        "sp_pifo",
        "strict_static",
        "aifo",
        "fair_tree",
    ];
    let (key, inner) = sole_key(v, path, &variants)?;
    let ipath = format!("{path}.{key}");
    Ok(match key {
        "fifo" => {
            check_keys(inner, &ipath, &[])?;
            Backend::Fifo
        }
        "pifo" => {
            check_keys(inner, &ipath, &[])?;
            Backend::Pifo
        }
        "sp_pifo" => {
            check_keys(inner, &ipath, &["queues"])?;
            Backend::SpPifo {
                queues: get_usize(inner, &ipath, "queues")?,
            }
        }
        "strict_static" => {
            check_keys(inner, &ipath, &["queues", "span_min", "span_max"])?;
            Backend::StrictStatic {
                queues: get_usize(inner, &ipath, "queues")?,
                // Unchecked: `ScenarioSpec::validate` names an empty span.
                span: RankRange {
                    min: get_u64(inner, &ipath, "span_min")?,
                    max: get_u64(inner, &ipath, "span_max")?,
                },
            }
        }
        "aifo" => {
            check_keys(inner, &ipath, &["window", "burst"])?;
            Backend::Aifo {
                window: get_usize(inner, &ipath, "window")?,
                burst: get_f64(inner, &ipath, "burst")?,
            }
        }
        _ => {
            check_keys(inner, &ipath, &["tenants"])?;
            Backend::FairTree {
                tenants: get_u16(inner, &ipath, "tenants")?,
            }
        }
    })
}

/// Allowed keys per rank-function algorithm, so unknown fields inside
/// `rank_fns[i].fn` are rejected before `RankFnSpec::from_value` (which
/// ignores extras).
fn check_rank_fn_keys(v: &Value, path: &str) -> Result<(), ScenarioError> {
    let algorithm = get_str(v, path, "algorithm")?;
    let allowed: &[&str] = match algorithm {
        "p_fabric" | "byte_count_fq" => &["algorithm", "unit_bytes", "max_rank"],
        "edf" | "arrival_time" => &["algorithm", "unit_ns", "max_rank"],
        "lstf" => &["algorithm", "unit_ns", "max_rank", "line_rate_bps"],
        "stfq" => &["algorithm", "max_rank"],
        "constant" => &["algorithm", "rank"],
        "multi_objective" => &["algorithm", "components", "resolution"],
        other => {
            return Err(field_err(
                format!("{path}.algorithm"),
                format!("unknown algorithm '{other}'"),
            ))
        }
    };
    check_keys(v, path, allowed)
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

fn topology_from(v: &Value, path: &str) -> Result<TopologySpec, ScenarioError> {
    let (key, inner) = sole_key(v, path, &["leaf_spine", "dumbbell", "fat_tree"])?;
    let ipath = format!("{path}.{key}");
    Ok(match key {
        "leaf_spine" => {
            check_keys(
                inner,
                &ipath,
                &[
                    "leaves",
                    "spines",
                    "hosts_per_leaf",
                    "access_bps",
                    "fabric_bps",
                    "access_delay_ns",
                    "fabric_delay_ns",
                ],
            )?;
            TopologySpec::LeafSpine {
                leaves: get_usize(inner, &ipath, "leaves")?,
                spines: get_usize(inner, &ipath, "spines")?,
                hosts_per_leaf: get_usize(inner, &ipath, "hosts_per_leaf")?,
                access_bps: get_u64(inner, &ipath, "access_bps")?,
                fabric_bps: get_u64(inner, &ipath, "fabric_bps")?,
                access_delay_ns: get_u64(inner, &ipath, "access_delay_ns")?,
                fabric_delay_ns: get_u64(inner, &ipath, "fabric_delay_ns")?,
            }
        }
        "dumbbell" => {
            check_keys(
                inner,
                &ipath,
                &["pairs", "edge_bps", "bottleneck_bps", "delay_ns"],
            )?;
            TopologySpec::Dumbbell {
                pairs: get_usize(inner, &ipath, "pairs")?,
                edge_bps: get_u64(inner, &ipath, "edge_bps")?,
                bottleneck_bps: get_u64(inner, &ipath, "bottleneck_bps")?,
                delay_ns: get_u64(inner, &ipath, "delay_ns")?,
            }
        }
        _ => {
            check_keys(inner, &ipath, &["arity", "rate_bps", "delay_ns"])?;
            TopologySpec::FatTree {
                arity: get_usize(inner, &ipath, "arity")?,
                rate_bps: get_u64(inner, &ipath, "rate_bps")?,
                delay_ns: get_u64(inner, &ipath, "delay_ns")?,
            }
        }
    })
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

fn sim_from(v: &Value, path: &str) -> Result<SimSpec, ScenarioError> {
    check_keys(
        v,
        path,
        &[
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
        ],
    )?;
    let d = SimSpec::default();
    let opt_or = |key: &str, fallback: u64| -> Result<u64, ScenarioError> {
        Ok(opt_u64(v, path, key)?.unwrap_or(fallback))
    };
    Ok(SimSpec {
        mss: opt_or("mss", d.mss as u64)? as u32,
        header_bytes: opt_or("header_bytes", d.header_bytes as u64)? as u32,
        ack_bytes: opt_or("ack_bytes", d.ack_bytes as u64)? as u32,
        cwnd: opt_or("cwnd", d.cwnd as u64)? as u32,
        rto_ns: opt_or("rto_ns", d.rto_ns)?,
        buffer_bytes: opt_or("buffer_bytes", d.buffer_bytes)?,
        horizon: match v.get("horizon") {
            Some(h) => time_ref_from(h, &format!("{path}.horizon"))?,
            None => d.horizon,
        },
        random_loss: match v.get("random_loss") {
            Some(_) => get_f64(v, path, "random_loss")?,
            None => 0.0,
        },
        sample_interval_ns: opt_u64(v, path, "sample_interval_ns")?,
        adaptation_interval_ns: opt_u64(v, path, "adaptation_interval_ns")?,
    })
}

fn qvisor_value(q: &QvisorSpec) -> Value {
    let tenants: Vec<Value> = q
        .tenants
        .iter()
        .map(|t| {
            let mut v = Value::object()
                .set("id", t.id)
                .set("name", t.name.as_str())
                .set("algorithm", t.algorithm.as_str())
                .set("rank_min", t.rank_min)
                .set("rank_max", t.rank_max);
            if let Some(levels) = t.levels {
                v = v.set("levels", levels);
            }
            v
        })
        .collect();
    let mut v = Value::object()
        .set("tenants", Value::from(tenants))
        .set("policy", q.policy.as_str())
        .set(
            "unknown",
            if q.unknown_drop {
                "drop"
            } else {
                "best_effort"
            },
        )
        .set(
            "scope",
            match q.scope {
                PreprocScope::Everywhere => "everywhere",
                PreprocScope::SwitchesOnly => "switches_only",
                PreprocScope::FirstHopOnly => "first_hop_only",
            },
        );
    if let Some(m) = &q.monitor {
        v = v.set(
            "monitor",
            Value::object()
                .set(
                    "violation_action",
                    match m.violation_action {
                        ViolationAction::Clamp => "clamp",
                        ViolationAction::AlarmOnly => "alarm_only",
                        ViolationAction::Drop => "drop",
                    },
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

fn qvisor_from(v: &Value, path: &str) -> Result<QvisorSpec, ScenarioError> {
    check_keys(
        v,
        path,
        &["tenants", "policy", "unknown", "scope", "monitor", "synth"],
    )?;
    let tenants_v = v
        .get("tenants")
        .and_then(|t| t.as_array())
        .ok_or_else(|| field_err(format!("{path}.tenants"), "must be an array"))?;
    let mut tenants = Vec::with_capacity(tenants_v.len());
    for (i, t) in tenants_v.iter().enumerate() {
        let tp = format!("{path}.tenants.{i}");
        check_keys(
            t,
            &tp,
            &["id", "name", "algorithm", "rank_min", "rank_max", "levels"],
        )?;
        tenants.push(TenantDecl {
            id: get_u16(t, &tp, "id")?,
            name: get_str(t, &tp, "name")?.to_string(),
            algorithm: get_str(t, &tp, "algorithm")?.to_string(),
            rank_min: get_u64(t, &tp, "rank_min")?,
            rank_max: get_u64(t, &tp, "rank_max")?,
            levels: opt_u64(t, &tp, "levels")?,
        });
    }
    let unknown_drop = match v.get("unknown").and_then(|u| u.as_str()) {
        None => false,
        Some("best_effort") => false,
        Some("drop") => true,
        Some(other) => {
            return Err(field_err(
                format!("{path}.unknown"),
                format!("unknown value '{other}' (allowed: best_effort, drop)"),
            ))
        }
    };
    let scope = match v.get("scope").and_then(|s| s.as_str()) {
        None => PreprocScope::Everywhere,
        Some("everywhere") => PreprocScope::Everywhere,
        Some("switches_only") => PreprocScope::SwitchesOnly,
        Some("first_hop_only") => PreprocScope::FirstHopOnly,
        Some(other) => {
            return Err(field_err(
                format!("{path}.scope"),
                format!(
                    "unknown value '{other}' (allowed: everywhere, switches_only, first_hop_only)"
                ),
            ))
        }
    };
    let monitor = match v.get("monitor") {
        None => None,
        Some(m) if m.is_null() => None,
        Some(m) => {
            let mp = format!("{path}.monitor");
            check_keys(
                m,
                &mp,
                &["violation_action", "idle_after_ns", "drift_ratio"],
            )?;
            let violation_action = match get_str(m, &mp, "violation_action")? {
                "clamp" => ViolationAction::Clamp,
                "alarm_only" => ViolationAction::AlarmOnly,
                "drop" => ViolationAction::Drop,
                other => {
                    return Err(field_err(
                        format!("{mp}.violation_action"),
                        format!("unknown value '{other}' (allowed: clamp, alarm_only, drop)"),
                    ))
                }
            };
            Some(MonitorSpec {
                violation_action,
                idle_after_ns: get_u64(m, &mp, "idle_after_ns")?,
                drift_ratio: get_f64(m, &mp, "drift_ratio")?,
            })
        }
    };
    let synth = match v.get("synth") {
        None => None,
        Some(s) if s.is_null() => None,
        Some(s) => {
            let sp = format!("{path}.synth");
            check_keys(
                s,
                &sp,
                &["default_levels", "first_rank", "pref_bias_divisor"],
            )?;
            Some(SynthConfig {
                default_levels: get_u64(s, &sp, "default_levels")?,
                first_rank: get_u64(s, &sp, "first_rank")?,
                pref_bias_divisor: get_u64(s, &sp, "pref_bias_divisor")?,
            })
        }
    };
    Ok(QvisorSpec {
        tenants,
        policy: get_str(v, path, "policy")?.to_string(),
        unknown_drop,
        scope,
        monitor,
        synth,
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

fn sizes_from(v: &Value, path: &str) -> Result<SizeDistSpec, ScenarioError> {
    let (key, inner) = sole_key(v, path, &["data_mining", "web_search", "fixed", "uniform"])?;
    let ipath = format!("{path}.{key}");
    Ok(match key {
        "data_mining" => {
            check_keys(inner, &ipath, &["scale_den"])?;
            SizeDistSpec::DataMining {
                scale_den: get_u64(inner, &ipath, "scale_den")?,
            }
        }
        "web_search" => {
            check_keys(inner, &ipath, &["scale_den"])?;
            SizeDistSpec::WebSearch {
                scale_den: get_u64(inner, &ipath, "scale_den")?,
            }
        }
        "fixed" => {
            check_keys(inner, &ipath, &["bytes"])?;
            SizeDistSpec::Fixed {
                bytes: get_u64(inner, &ipath, "bytes")?,
            }
        }
        _ => {
            check_keys(inner, &ipath, &["min", "max"])?;
            SizeDistSpec::Uniform {
                min: get_u64(inner, &ipath, "min")?,
                max: get_u64(inner, &ipath, "max")?,
            }
        }
    })
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

fn workload_from(v: &Value, path: &str) -> Result<WorkloadSpec, ScenarioError> {
    let (key, inner) = sole_key(v, path, &["poisson", "cbr_fleet", "flows", "cbr"])?;
    let ipath = format!("{path}.{key}");
    Ok(match key {
        "poisson" => {
            check_keys(
                inner,
                &ipath,
                &["tenant", "flows", "sizes", "arrival", "rng_stream"],
            )?;
            let arrival_v = inner
                .get("arrival")
                .ok_or_else(|| field_err(format!("{ipath}.arrival"), "missing required field"))?;
            let apath = format!("{ipath}.arrival");
            let (akey, _) = sole_key(arrival_v, &apath, &["load", "rate_flows_per_sec"])?;
            let arrival = match akey {
                "load" => ArrivalSpec::Load(get_f64(arrival_v, &apath, "load")?),
                _ => {
                    ArrivalSpec::RateFlowsPerSec(get_f64(arrival_v, &apath, "rate_flows_per_sec")?)
                }
            };
            WorkloadSpec::Poisson {
                tenant: get_u16(inner, &ipath, "tenant")?,
                flows: get_usize(inner, &ipath, "flows")?,
                sizes: sizes_from(
                    inner.get("sizes").ok_or_else(|| {
                        field_err(format!("{ipath}.sizes"), "missing required field")
                    })?,
                    &format!("{ipath}.sizes"),
                )?,
                arrival,
                rng_stream: get_u64(inner, &ipath, "rng_stream")?,
            }
        }
        "cbr_fleet" => {
            check_keys(
                inner,
                &ipath,
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
            )?;
            WorkloadSpec::CbrFleet {
                tenant: get_u16(inner, &ipath, "tenant")?,
                streams: get_usize(inner, &ipath, "streams")?,
                rate_bps: get_u64(inner, &ipath, "rate_bps")?,
                pkt_size: get_u32(inner, &ipath, "pkt_size")?,
                start_ns: get_u64(inner, &ipath, "start_ns")?,
                stop: time_ref_from(
                    inner.get("stop").ok_or_else(|| {
                        field_err(format!("{ipath}.stop"), "missing required field")
                    })?,
                    &format!("{ipath}.stop"),
                )?,
                deadline_offset_ns: get_u64(inner, &ipath, "deadline_offset_ns")?,
                rng_stream: get_u64(inner, &ipath, "rng_stream")?,
            }
        }
        "flows" => {
            check_keys(inner, &ipath, &["list"])?;
            let items = inner
                .get("list")
                .and_then(|l| l.as_array())
                .ok_or_else(|| field_err(format!("{ipath}.list"), "must be an array"))?;
            let mut list = Vec::with_capacity(items.len());
            for (i, f) in items.iter().enumerate() {
                let fp = format!("{ipath}.list.{i}");
                check_keys(
                    f,
                    &fp,
                    &[
                        "tenant",
                        "src_host",
                        "dst_host",
                        "size",
                        "start_ns",
                        "deadline_ns",
                        "weight",
                    ],
                )?;
                list.push(FlowDecl {
                    tenant: get_u16(f, &fp, "tenant")?,
                    src_host: get_usize(f, &fp, "src_host")?,
                    dst_host: get_usize(f, &fp, "dst_host")?,
                    size: get_u64(f, &fp, "size")?,
                    start_ns: get_u64(f, &fp, "start_ns")?,
                    deadline_ns: opt_u64(f, &fp, "deadline_ns")?,
                    weight: match f.get("weight") {
                        Some(_) => get_u32(f, &fp, "weight")?,
                        None => 1,
                    },
                });
            }
            WorkloadSpec::Flows { list }
        }
        _ => {
            check_keys(inner, &ipath, &["list"])?;
            let items = inner
                .get("list")
                .and_then(|l| l.as_array())
                .ok_or_else(|| field_err(format!("{ipath}.list"), "must be an array"))?;
            let mut list = Vec::with_capacity(items.len());
            for (i, c) in items.iter().enumerate() {
                let cp = format!("{ipath}.list.{i}");
                check_keys(
                    c,
                    &cp,
                    &[
                        "tenant",
                        "src_host",
                        "dst_host",
                        "rate_bps",
                        "pkt_size",
                        "start_ns",
                        "stop",
                        "deadline_offset_ns",
                    ],
                )?;
                list.push(CbrDecl {
                    tenant: get_u16(c, &cp, "tenant")?,
                    src_host: get_usize(c, &cp, "src_host")?,
                    dst_host: get_usize(c, &cp, "dst_host")?,
                    rate_bps: get_u64(c, &cp, "rate_bps")?,
                    pkt_size: get_u32(c, &cp, "pkt_size")?,
                    start_ns: get_u64(c, &cp, "start_ns")?,
                    stop: time_ref_from(
                        c.get("stop").ok_or_else(|| {
                            field_err(format!("{cp}.stop"), "missing required field")
                        })?,
                        &format!("{cp}.stop"),
                    )?,
                    deadline_offset_ns: get_u64(c, &cp, "deadline_offset_ns")?,
                });
            }
            WorkloadSpec::Cbr { list }
        }
    })
}

fn alert_value(a: &AlertSpec) -> Value {
    Value::object()
        .set("metric", a.metric.as_str())
        .set("tenant", a.tenant)
        .set("window_ns", a.window_ns)
        .set("threshold", a.threshold)
}

fn alert_from(v: &Value, path: &str) -> Result<AlertSpec, ScenarioError> {
    check_keys(v, path, &["metric", "tenant", "window_ns", "threshold"])?;
    Ok(AlertSpec {
        metric: get_str(v, path, "metric")?.to_string(),
        tenant: get_u16(v, path, "tenant")?,
        window_ns: get_u64(v, path, "window_ns")?,
        threshold: get_f64(v, path, "threshold")?,
    })
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
        check_keys(
            v,
            "scenario",
            &[
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
            ],
        )?;
        let topology = topology_from(
            v.get("topology")
                .ok_or_else(|| field_err("topology", "missing required field"))?,
            "topology",
        )?;
        let sim = match v.get("sim") {
            Some(s) => sim_from(s, "sim")?,
            None => SimSpec::default(),
        };
        let scheduler = match v.get("scheduler") {
            Some(s) => scheduler_from(s, "scheduler")?,
            None => Backend::Pifo,
        };
        let host_scheduler = match v.get("host_scheduler") {
            None => None,
            Some(s) if s.is_null() => None,
            Some(s) => Some(scheduler_from(s, "host_scheduler")?),
        };
        let qvisor = match v.get("qvisor") {
            None => None,
            Some(q) if q.is_null() => None,
            Some(q) => Some(qvisor_from(q, "qvisor")?),
        };
        let mut rank_fns = Vec::new();
        if let Some(list) = v.get("rank_fns") {
            let items = list
                .as_array()
                .ok_or_else(|| field_err("rank_fns", "must be an array"))?;
            for (i, item) in items.iter().enumerate() {
                let rp = format!("rank_fns.{i}");
                check_keys(item, &rp, &["tenant", "fn"])?;
                let f = item
                    .get("fn")
                    .ok_or_else(|| field_err(format!("{rp}.fn"), "missing required field"))?;
                check_rank_fn_keys(f, &format!("{rp}.fn"))?;
                let spec = RankFnSpec::from_value(f).map_err(ScenarioError::Json)?;
                rank_fns.push((get_u16(item, &rp, "tenant")?, spec));
            }
        }
        let mut workloads = Vec::new();
        if let Some(list) = v.get("workloads") {
            let items = list
                .as_array()
                .ok_or_else(|| field_err("workloads", "must be an array"))?;
            for (i, item) in items.iter().enumerate() {
                workloads.push(workload_from(item, &format!("workloads.{i}"))?);
            }
        }
        let mut alerts = Vec::new();
        if let Some(list) = v.get("alerts") {
            let items = list
                .as_array()
                .ok_or_else(|| field_err("alerts", "must be an array"))?;
            for (i, item) in items.iter().enumerate() {
                alerts.push(alert_from(item, &format!("alerts.{i}"))?);
            }
        }
        let spec = ScenarioSpec {
            name: match v.get("name") {
                Some(n) => n
                    .as_str()
                    .ok_or_else(|| field_err("name", "must be a string"))?
                    .to_string(),
                None => String::new(),
            },
            seed: match v.get("seed") {
                Some(_) => get_u64(v, "scenario", "seed")?,
                None => 1,
            },
            topology,
            sim,
            scheduler,
            host_scheduler,
            qvisor,
            rank_fns,
            workloads,
            alerts,
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
