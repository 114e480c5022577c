//! Cross-device placement of the pre-processor (§5 "cross-device
//! virtualization"): does it matter *where* rank rewriting happens?
//!
//! Three deployments of the same joint policy on the same workload:
//! everywhere (default), switches-only (in-network QVISOR, hosts forward
//! raw ranks), and first-hop-only (end-host QVISOR, à la Loom/Eiffel NIC
//! scheduling). Because transformed ranks travel *in the packet*
//! (`txf_rank`), rewriting once at the first hop is sufficient for
//! downstream PIFOs — byte for byte: the simulator relies on it, and under
//! `everywhere` with a static policy only the source runs the transform
//! (later hops record it). Switches-only leaves the host NIC queue ordering
//! by raw (clashing) ranks, which the deployment gate reports as a
//! QV-HOST-RAW warning.

use qvisor::core::{
    admit, synthesize, Backend, DiagCode, Policy, PreProcessor, PreprocScope, Severity, SpecPaths,
    SynthConfig, TenantSpec, UnknownTenantAction,
};
use qvisor::netsim::scenario::{report_json, Engine, ScenarioSpec};
use qvisor::netsim::{NewCbr, NewFlow, QvisorSetup, SimConfig, SimReport, Simulation};
use qvisor::ranking::{Edf, PFabric, RankRange};
use qvisor::sim::{gbps, Nanos, TenantId};
use qvisor::telemetry::{report, Telemetry, TraceConfig, TraceKind, Tracer};
use qvisor::topology::Dumbbell;
use qvisor::transport::SizeBucket;

const T1: TenantId = TenantId(1);
const T2: TenantId = TenantId(2);

/// The placement experiment's configuration at `scope`: `T1 >> T2` on
/// PIFOs, T1 declaring `[0, 200]` and T2 `[0, 100]`.
fn config(scope: PreprocScope) -> SimConfig {
    let specs = vec![
        TenantSpec::new(T1, "T1", "pFabric", RankRange::new(0, 200)).with_levels(64),
        TenantSpec::new(T2, "T2", "EDF", RankRange::new(0, 100)).with_levels(16),
    ];
    SimConfig {
        seed: 23,
        horizon: Nanos::from_millis(300),
        scheduler: Backend::Pifo,
        qvisor: Some(QvisorSetup {
            specs,
            policy: "T1 >> T2".into(),
            synth: SynthConfig::default(),
            unknown: UnknownTenantAction::BestEffort,
            scope,
            monitor: None,
        }),
        ..SimConfig::default()
    }
}

/// T1's pFabric flows and T2's numerically-dominant EDF flood share both
/// the *sending hosts* and the bottleneck, so the host queue's ordering
/// matters too.
fn run(scope: PreprocScope) -> SimReport {
    let d = Dumbbell::build(2, gbps(1), gbps(1), Nanos::from_micros(1));
    let mut sim = Simulation::new(d.topology.clone(), config(scope)).unwrap();
    sim.register_rank_fn(T1, Box::new(PFabric::new(1_000, 200)));
    sim.register_rank_fn(T2, Box::new(Edf::new(Nanos::from_micros(1), 100)));
    // Both tenants send from BOTH hosts: contention starts at the NIC.
    for i in 0..30u64 {
        sim.add_flow(NewFlow::new(
            T1,
            d.senders[(i % 2) as usize],
            d.receivers[(i % 2) as usize],
            200_000,
            Nanos::from_millis(3 * i),
        ));
    }
    for s in 0..2 {
        sim.add_cbr(NewCbr {
            tenant: T2,
            src: d.senders[s],
            dst: d.receivers[1 - s],
            rate_bps: 350_000_000,
            pkt_size: 1_500,
            start: Nanos::ZERO,
            stop: Nanos::from_millis(90),
            deadline_offset: Nanos::from_micros(100),
        });
    }
    sim.run()
}

fn t1_fct(r: &SimReport) -> f64 {
    r.fct.mean_fct_ms(Some(T1), SizeBucket::ALL).unwrap()
}

#[test]
fn first_hop_rewriting_is_sufficient() {
    // Transformed ranks ride in the packet, so rewriting once at the
    // source gives downstream switches the same ordering information as
    // rewriting everywhere: the same run, to the byte.
    let everywhere = run(PreprocScope::Everywhere);
    let first_hop = run(PreprocScope::FirstHopOnly);
    assert_eq!(everywhere.incomplete_flows, 0);
    assert_eq!(
        report_json(&everywhere).to_compact(),
        report_json(&first_hop).to_compact()
    );
}

fn load(path: &str) -> ScenarioSpec {
    let path = format!("{}/{path}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    ScenarioSpec::from_json(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Every example scenario that deploys QVISOR, by file name.
fn qvisor_examples() -> Vec<(String, ScenarioSpec)> {
    let dir = format!("{}/examples/scenarios", env!("CARGO_MANIFEST_DIR"));
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.ends_with(".json"))
        .collect();
    names.sort();
    let examples: Vec<(String, ScenarioSpec)> = names
        .into_iter()
        .map(|name| {
            let spec = load(&format!("examples/scenarios/{name}"));
            (name, spec)
        })
        .filter(|(_, spec)| spec.qvisor.is_some())
        .collect();
    assert!(
        examples.len() >= 4,
        "{} examples deploy QVISOR",
        examples.len()
    );
    examples
}

/// The report `qvisor run` prints for `spec`, as written and with the
/// pre-processor moved to the first hop.
fn reports_at_both_scopes(spec: &ScenarioSpec) -> (String, String) {
    let mut first_hop = spec.clone();
    first_hop.qvisor.as_mut().unwrap().scope = PreprocScope::FirstHopOnly;
    let report = |spec: &ScenarioSpec| report_json(&Engine::new().run(spec).unwrap()).to_compact();
    (report(spec), report(&first_hop))
}

#[test]
fn every_example_reports_the_same_with_the_transform_at_the_first_hop() {
    for (name, spec) in qvisor_examples() {
        let (written, first_hop) = reports_at_both_scopes(&spec);
        assert!(written == first_hop, "{name}: the scope moved the report");
    }
}

#[test]
fn the_fig4_point_reports_the_same_with_the_transform_at_the_first_hop() {
    // The benchmark's full-size point: 157 nodes, 2,000 flows.
    let spec = load("benchmark/workloads/fig4.json");
    assert_eq!(
        spec.qvisor.as_ref().unwrap().scope,
        PreprocScope::Everywhere
    );
    let (written, first_hop) = reports_at_both_scopes(&spec);
    assert!(
        written == first_hop,
        "fig4.json: the scope moved the report"
    );
}

#[test]
fn every_transform_record_is_the_joint_policy_transform() {
    // An oracle for the hops that record the source's transform instead
    // of recomputing it: each record's `post` is what a pre-processor
    // built from the run's joint policy makes of its `pre` — up to the
    // first runtime reconfiguration, after which another policy holds.
    let mut reloaded = 0;
    for (name, spec) in qvisor_examples() {
        // Twice the default ring: `fig2_in_network` records ≈ 320 k spans.
        let tracer = Tracer::enabled(TraceConfig {
            capacity: 1 << 19,
            ..TraceConfig::default()
        });
        let telemetry = Telemetry::enabled();
        let engine = Engine::new()
            .with_tracer(&tracer)
            .with_telemetry(&telemetry);
        let sim = engine.build(&spec).unwrap();
        let joint = sim.joint_policy().expect("QVISOR is deployed").clone();
        sim.run();
        let unknown = if spec.qvisor.as_ref().unwrap().unknown_drop {
            UnknownTenantAction::Drop
        } else {
            UnknownTenantAction::BestEffort
        };
        let oracle = PreProcessor::new(&joint, unknown);
        let export = report::parse(&telemetry.export_jsonl()).unwrap();
        // A reload at `t` precedes every packet event of `t`.
        let reload = (export.events.iter())
            .filter(|e| e.get("kind").and_then(|k| k.as_str()) == Some("reconfiguration"))
            .map(|e| Nanos(e.get("t_ns").and_then(|t| t.as_u64()).unwrap()))
            .min()
            .unwrap_or(Nanos::MAX);
        reloaded += (reload < Nanos::MAX) as u32;
        let trace = tracer.snapshot();
        assert_eq!(trace.dropped, 0, "{name}: the ring wrapped");
        let mut checked = 0;
        for r in trace.records.iter().filter(|r| r.t < reload) {
            let TraceKind::Transform { pre, post } = r.kind else {
                continue;
            };
            let want = if r.ack {
                pre // control traffic keeps its rank
            } else {
                (oracle.transform(TenantId(r.tenant), pre)).unwrap_or(joint.output_span().max + 1)
            };
            assert_eq!(post, want, "{name}: {r:?}");
            checked += 1;
        }
        assert!(checked > 100, "{name}: {checked} transforms checked");
    }
    assert!(
        reloaded > 0,
        "no example reconfigures: the cut-off is untested"
    );
}

#[test]
fn switches_only_leaks_the_clash_at_the_nic() {
    // With hosts forwarding raw ranks, T2's numerically-lower EDF ranks
    // win the NIC queue; T1 pays at the first hop even though the fabric
    // enforces the policy.
    let everywhere = run(PreprocScope::Everywhere);
    let switches_only = run(PreprocScope::SwitchesOnly);
    assert_eq!(switches_only.incomplete_flows, 0);
    let (e, s) = (t1_fct(&everywhere), t1_fct(&switches_only));
    assert!(
        s > e * 1.15,
        "raw-ranked NIC queues must cost T1 visibly: everywhere {e:.3} ms \
         vs switches-only {s:.3} ms"
    );
}

#[test]
fn the_gate_warns_where_host_queues_see_raw_ranks() {
    // The deployment `switches_only_leaks_the_clash_at_the_nic` measures:
    // the default gate admits it with one warning, witnessed by T1's
    // largest raw rank against T2's smallest.
    let judge = |scope| {
        let cfg = config(scope);
        let setup = cfg.qvisor.as_ref().unwrap();
        let policy = Policy::parse(&setup.policy).unwrap();
        let joint = synthesize(&setup.specs, &policy, setup.synth).unwrap();
        admit(joint, &cfg.target(), &SpecPaths::scenario(), false).unwrap()
    };
    let switches_only = judge(PreprocScope::SwitchesOnly);
    let raw: Vec<_> = (switches_only.report().diagnostics.iter())
        .filter(|d| d.code == DiagCode::HostRaw)
        .collect();
    assert_eq!(raw.len(), 1, "{}", switches_only.report());
    assert_eq!(raw[0].severity, Severity::Warning);
    assert_eq!(raw[0].span, "qvisor.scope");
    let w = raw[0].witness.expect("a raw-rank witness");
    assert_eq!(
        (w.input_a, w.output_a, w.input_b, w.output_b),
        (200, 200, 0, 0)
    );
    assert!(!switches_only.report().guarantees_hold());
    for scope in [PreprocScope::FirstHopOnly, PreprocScope::Everywhere] {
        let report = judge(scope).into_report();
        assert!(report
            .diagnostics
            .iter()
            .all(|d| d.code != DiagCode::HostRaw));
        assert!(report.guarantees_hold(), "{scope:?}: {report}");
    }
}
