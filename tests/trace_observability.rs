//! End-to-end guarantees for the packet-lifecycle flight recorder: tracing
//! never perturbs the simulation, exports are byte-deterministic, and the
//! Chrome JSON is well-formed Perfetto input.

use qvisor::core::{Backend, SynthConfig, TenantSpec, UnknownTenantAction};
use qvisor::netsim::{QvisorSetup, SimConfig, Simulation};
use qvisor::ranking::{PFabric, RankRange};
use qvisor::sim::{json::Value, Nanos, SimRng, TenantId};
use qvisor::telemetry::{perfetto, TraceConfig, TraceData, Tracer};
use qvisor::topology::{LeafSpine, LeafSpineConfig};

/// The determinism-suite world, with a tracer attached: one pFabric tenant
/// over a small leaf–spine fabric with 1% random loss (so drop spans
/// appear), QVISOR deployed (so transform spans appear).
fn world(seed: u64, tracer: Tracer) -> String {
    let fabric = LeafSpine::build(&LeafSpineConfig::small());
    let hosts = fabric.all_hosts();
    let specs = vec![
        TenantSpec::new(TenantId(1), "T1", "pFabric", RankRange::new(0, 10_000)).with_levels(128),
    ];
    let cfg = SimConfig {
        seed,
        random_loss: 0.01,
        horizon: Nanos::from_millis(50),
        scheduler: Backend::Pifo,
        qvisor: Some(QvisorSetup {
            specs,
            policy: "T1".into(),
            synth: SynthConfig::default(),
            unknown: UnknownTenantAction::BestEffort,
            scope: Default::default(),
            monitor: None,
        }),
        tracer,
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(fabric.topology.clone(), cfg).unwrap();
    sim.register_rank_fn(TenantId(1), Box::new(PFabric::default_datacenter()));
    let sizes = qvisor::workloads::EmpiricalCdf::web_search().scaled(1, 20);
    let flows = qvisor::workloads::PoissonFlowGen {
        tenant: TenantId(1),
        hosts: &hosts,
        sizes: &sizes,
        rate_flows_per_sec: 20_000.0,
    }
    .generate(150, &mut SimRng::seed_from(seed ^ 0xABCD));
    for f in &flows {
        sim.add_generated(f);
    }
    format!("{:?}", sim.run())
}

/// A trace of the world above, bounded for debug-build test speed: thinned
/// sampling and a small ring (which also exercises eviction accounting) —
/// the full world at `sample_one_in: 1` retains ~250k spans, and parsing
/// the resulting multi-megabyte Chrome JSON dominates the suite otherwise.
fn traced_world(seed: u64, sample_one_in: u64) -> (String, TraceData) {
    let tracer = Tracer::enabled(TraceConfig {
        capacity: 1 << 14,
        sample_one_in,
        seed,
    });
    let report = world(seed, tracer.clone());
    (report, tracer.snapshot())
}

/// Tracing must never change the simulation: the full report (compared
/// byte-for-byte via `Debug`) is identical with the flight recorder on and
/// off, while the recorder actually captured the run.
#[test]
fn tracing_does_not_perturb_the_world() {
    let (on_report, data) = traced_world(7, 1);
    let off_report = world(7, Tracer::disabled());
    assert_eq!(on_report, off_report, "tracing changed the simulation");
    assert!(!data.records.is_empty(), "enabled tracer recorded nothing");
    assert!(data.dropped > 0, "the small test ring should have evicted");
}

/// Same seed, same bytes: both the JSONL snapshot and the Chrome JSON
/// export are byte-identical across reruns.
#[test]
fn trace_export_is_byte_identical_across_reruns() {
    let (_, a) = traced_world(7, 4);
    let (_, b) = traced_world(7, 4);
    assert!(!a.records.is_empty(), "sampling 1-in-4 left no spans");
    assert_eq!(
        a.to_jsonl(),
        b.to_jsonl(),
        "trace snapshot not reproducible"
    );
    assert_eq!(
        perfetto::export_chrome(&a),
        perfetto::export_chrome(&b),
        "Chrome export not reproducible"
    );
}

/// The Chrome export is valid JSON and contains the expected event shapes:
/// metadata, async span begin/end, instants, and queue/link slices.
#[test]
fn chrome_export_parses_with_expected_phases() {
    let (_, data) = traced_world(7, 4);
    let chrome = perfetto::export_chrome(&data);
    let doc = Value::parse(&chrome).expect("chrome export must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    assert!(events.len() > 100, "suspiciously small trace");
    let mut phases = std::collections::BTreeSet::new();
    let mut names = std::collections::BTreeSet::new();
    for e in events {
        if let Some(ph) = e.get("ph").and_then(Value::as_str) {
            phases.insert(ph.to_string());
        }
        if let Some(n) = e.get("name").and_then(Value::as_str) {
            names.insert(n.to_string());
        }
    }
    for ph in ["M", "b", "e", "n", "X"] {
        assert!(phases.contains(ph), "missing phase {ph} in {phases:?}");
    }
    for name in ["rank", "transform", "enqueue", "dequeue", "deliver"] {
        assert!(names.contains(name), "missing span kind {name}");
    }
}

/// The JSONL snapshot round-trips through parse and re-export, and both
/// CLI entry points consume it — including via stdin as `-`.
#[test]
fn snapshot_round_trips_through_the_cli() {
    let (_, data) = traced_world(7, 4);
    let jsonl = data.to_jsonl();
    let reparsed = TraceData::parse(&jsonl).expect("own export must parse");
    assert_eq!(reparsed.to_jsonl(), jsonl, "parse/export not a fixpoint");

    let report = qvisor::cli::cmd_trace_report(&jsonl).expect("trace report");
    assert!(report.contains("queueing delay"));
    let chrome = qvisor::cli::cmd_trace_export(&jsonl).expect("trace export");
    assert!(chrome.contains("\"traceEvents\""));

    // `qvisor trace report -` reads the snapshot from stdin.
    use std::io::Write as _;
    use std::process::{Command, Stdio};
    let mut child = Command::new(env!("CARGO_BIN_EXE_qvisor"))
        .args(["trace", "report", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn qvisor");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(jsonl.as_bytes())
        .expect("pipe trace");
    let out = child.wait_with_output().expect("qvisor exits");
    assert!(out.status.success(), "qvisor trace report - failed");
    assert_eq!(String::from_utf8_lossy(&out.stdout), report);
}
