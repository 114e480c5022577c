//! The benchmark's catalogue: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` is this
//! catalogue rendered by `qbench manifest`; a unit test keeps the two
//! equal.

use qvisor_sim::json::Value;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 12;

/// One set of inputs the benchmark runs.
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Why the workload exists, one line.
    pub why: &'static str,
    /// What `work_per_s` counts on this workload.
    pub work_unit: &'static str,
    /// What `op_p50_ms` times on this workload.
    pub op: &'static str,
}

/// Direction in which a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric of the catalogue.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    e2e(name, unit, Better::Lower, 0.0)
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    e2e(name, unit, Better::Higher, 0.0)
}

/// The workloads, in run order.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "fig4_fabric",
        why: "The paper's Fig. 4 point with every observer off: event core, transport, forwarding, pre-processor and exact PIFO all do real work and nothing else does; every sweep and ablation multiplies it.",
        work_unit: "delivered payload packets",
        op: "one scenario: parse, check, build, run, report",
    },
    Workload {
        name: "fig4_observed",
        why: "Byte-identical inputs with telemetry, flight recorder and SLO monitor attached: the same layers used differently, so a fast-path gain that taxes observation shows here and fig4_fabric must not move.",
        work_unit: "delivered payload packets",
        op: "one scenario: parse, check, build, run, report, three exports",
    },
    Workload {
        name: "dataplane_min_pkt",
        why: "Bare forwarding at the smallest packet, no simulator: pre-processor then PIFO over 64-byte packets with 1% unknown-tenant and 6.25% priority-drop traffic, so per-packet cost is the whole cost.",
        work_unit: "offered packets (generator loop subtracted)",
        op: "one batch: deployment set-up plus 4 Mi offered packets",
    },
    Workload {
        name: "control_churn",
        why: "Closed loop over real TCP on the control plane: one connection churns submit/reject/withdraw/resubmit while another reads and verifies snapshots; the simulator does nothing.",
        work_unit: "accepted mutations",
        op: "one submit/withdraw round trip on the writing connection",
    },
    Workload {
        name: "fuzz_campaign",
        why: "Thousands of tiny deployments: generate, synthesize, verify, PIFO drain and a dumbbell Engine run each, fanned over nproc threads; set-up-heavy where fig4_* is run-heavy.",
        work_unit: "fuzz cases",
        op: "one 6,000-case campaign",
    },
];

/// End-to-end metrics. The driver's contract wants every one of them on
/// every workload and never zero, so each is defined generically and
/// [`Workload::work_unit`] / [`Workload::op`] say what it counts where.
///
/// The issue asked for bounds of 0.10 and gave the rule for a row that
/// does not repeat: widen its bound to 1.5x the observed spread. Over the
/// two ten-seed sets in `baseline/` the widest quartile spreads were
/// 16.2 % (`work_per_s` and `op_p50_ms`, both on `fig4_observed`, whose
/// four reps a run are one to five seconds long - too long for the
/// calibration bracket to see every clock flip, and memory-bound besides)
/// and 6.7 % (`peak_rss_mb` on `control_churn`; 7.7 % was seen on
/// `fuzz_campaign`, where thread timing decides how many allocator arenas
/// exist). 1.5x the first is the contract's maximum, 0.25. The driver also
/// wants a spread within a third of its bound, which for `peak_rss_mb`
/// asks 0.23 where the issue's rule asks 0.12; it has 0.20.
pub const END_TO_END: [Metric; 4] = [
    e2e("work_per_s", "1/s", Better::Higher, 0.25),
    e2e("op_p50_ms", "ms", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.20),
];

/// Per-layer metrics, measured by the layer probes of a traced run.
pub const PER_LAYER: [Metric; 89] = [
    lower("sim.event_core.churn_ns_per_op", "ns"),
    lower("sim.event_core.drain_ns_per_op", "ns"),
    higher("sim.json.parse_mb_per_s", "MB/s"),
    higher("sim.json.serialize_mb_per_s", "MB/s"),
    lower("topology.leaf_spine_144.build_us", "us"),
    lower("topology.fat_tree_k8.build_us", "us"),
    higher("workloads.poisson_gen.flows_per_s", "1/s"),
    lower("ranking.pfabric.ns_per_rank", "ns"),
    lower("ranking.edf.ns_per_rank", "ns"),
    lower("ranking.stfq.ns_per_rank", "ns"),
    lower("core.policy_parse.us_t16", "us"),
    lower("core.synthesize.us_t2", "us"),
    lower("core.synthesize.us_t16", "us"),
    lower("core.synthesize.us_t128", "us"),
    lower("core.verify.us_t2", "us"),
    lower("core.verify.us_t16", "us"),
    lower("core.verify.us_t128", "us"),
    lower("core.preproc.ns_per_pkt_t2", "ns"),
    lower("core.preproc.ns_per_pkt_t16", "ns"),
    lower("core.preproc.unknown_share", "share"),
    lower("core.chain.mean_ops", "count"),
    lower("scheduler.fifo.ns_per_pkt", "ns"),
    lower("scheduler.pifo.ns_per_pkt", "ns"),
    lower("scheduler.sp_pifo8.ns_per_pkt", "ns"),
    lower("scheduler.strict8.ns_per_pkt", "ns"),
    lower("scheduler.aifo.ns_per_pkt", "ns"),
    lower("scheduler.pifo_tree4.ns_per_pkt", "ns"),
    lower("scheduler.pifo_instrumented.ns_per_pkt", "ns"),
    lower("scheduler.pifo.drop_share", "share"),
    lower("scheduler.sp_pifo8.drop_share", "share"),
    lower("scheduler.strict8.drop_share", "share"),
    lower("scheduler.aifo.drop_share", "share"),
    lower("scheduler.pifo.inversion_share", "share"),
    lower("scheduler.sp_pifo8.inversion_share", "share"),
    lower("scheduler.strict8.inversion_share", "share"),
    lower("scheduler.aifo.inversion_share", "share"),
    lower("transport.reliable.ns_per_pkt", "ns"),
    lower("transport.reliable.retransmit_share", "share"),
    lower("netsim.codec.parse_us", "us"),
    lower("netsim.codec.serialize_us", "us"),
    lower("netsim.check.us", "us"),
    lower("netsim.build.ms", "ms"),
    lower("netsim.report_json.us", "us"),
    lower("netsim.run.ns_per_event", "ns"),
    lower("netsim.run.events", "count"),
    higher("netsim.run.delivered_pkts", "count"),
    lower("netsim.run.events_per_pkt", "count"),
    lower("netsim.run.small_fct_us", "us"),
    lower("netsim.run.large_fct_us", "us"),
    lower("netsim.sweep.jobs1_wall_s", "s"),
    higher("netsim.sweep.jobs2_speedup", "ratio"),
    lower("netsim.sharded.s2_wall_ratio", "ratio"),
    lower("netsim.sharded.s2_spread", "share"),
    lower("telemetry.metrics_only.wall_ratio", "ratio"),
    lower("telemetry.trace_only.wall_ratio", "ratio"),
    lower("telemetry.monitor_only.wall_ratio", "ratio"),
    lower("telemetry.all.wall_ratio", "ratio"),
    lower("telemetry.export_jsonl.ms", "ms"),
    lower("telemetry.trace_snapshot.ms", "ms"),
    lower("telemetry.monitor_export.ms", "ms"),
    lower("telemetry.trace.evicted_share", "share"),
    lower("profile.event_dispatch.share", "share"),
    lower("profile.sched_enqueue.share", "share"),
    lower("profile.sched_dequeue.share", "share"),
    lower("profile.synthesize.share", "share"),
    lower("profile.unattributed.share", "share"),
    lower("serve.protocol.parse_us", "us"),
    lower("serve.control.submit_us", "us"),
    lower("serve.control.withdraw_us", "us"),
    lower("serve.control.reject_us", "us"),
    lower("serve.snapshot.encode_us", "us"),
    lower("serve.replay.us_per_entry", "us"),
    lower("serve.tcp.session_overhead_ms", "ms"),
    lower("serve.commit_hist_p50_us", "us"),
    lower("serve.admit_p95_ms", "ms"),
    lower("serve.admit_p99_ms", "ms"),
    lower("serve.read_p50_ms", "ms"),
    lower("serve.read_p99_ms", "ms"),
    higher("serve.tail_samples", "count"),
    higher("serve.ops_attempted", "count"),
    lower("serve.rejected_share", "share"),
    lower("fuzz.gen.us_per_case", "us"),
    lower("fuzz.oracle.us_per_case", "us"),
    higher("fuzz.campaign.jobs2_speedup", "ratio"),
    higher("fuzz.witness_share", "share"),
    higher("fuzz.scenario_runs", "count"),
    lower("bench.trace_overhead_share", "share"),
    lower("bench.gen.dataplane_loop_ns_per_pkt", "ns"),
    lower("bench.gen.client_busy_share", "share"),
];

/// Look up a workload by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Render `BENCHMARK.json`.
pub fn manifest() -> Value {
    let strings =
        |items: &[&str]| Value::from(items.iter().map(|s| Value::from(*s)).collect::<Vec<_>>());
    let workloads: Vec<Value> = WORKLOADS
        .iter()
        .map(|w| Value::object().set("name", w.name).set("why", w.why))
        .collect();
    let end_to_end: Vec<Value> = END_TO_END
        .iter()
        .map(|m| {
            Value::object()
                .set("name", m.name)
                .set("unit", m.unit)
                .set("better", m.better.as_str())
                .set("bound", m.bound)
        })
        .collect();
    let per_layer: Vec<Value> = PER_LAYER
        .iter()
        .map(|m| {
            Value::object()
                .set("name", m.name)
                .set("unit", m.unit)
                .set("better", m.better.as_str())
        })
        .collect();
    Value::object()
        .set("command", strings(&["bash", "benchmark/run.sh"]))
        .set("paths", strings(&["benchmark"]))
        .set("run_seconds", RUN_SECONDS)
        .set("workloads", Value::from(workloads))
        .set("end_to_end", Value::from(end_to_end))
        .set("per_layer", Value::from(per_layer))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(well_formed(name), "bad name {name:?}");
            assert!(seen.insert(name), "name {name:?} used twice");
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "bad unit {:?} on {}",
                m.unit,
                m.name
            );
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(PER_LAYER.len() <= 128);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_is_the_rendered_catalogue() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            format!("{}\n", manifest().to_pretty()),
            "regenerate with `qbench manifest > BENCHMARK.json`"
        );
        assert!(committed.len() <= 64 * 1024);
    }
}
