//! Byte pins on what the three observers export about *simulated*
//! behaviour: the flight recorder's JSONL, the SLO monitor's JSONL and the
//! telemetry JSONL minus its host-wall-clock lines (`sanitize_export`) —
//! and on the report every example scenario prints.
//!
//! The hashes were recorded from the commit before the observers were made
//! cheaper (sampled profiler clock, O(1) alert test, in-place trace ring),
//! so any change to how the observers keep or render their state has to
//! reproduce these bytes. A hash that moves on purpose — a new metric, a
//! changed scenario — is re-recorded from the test's failure message.
//!
//! The report hashes were recorded from the last commit that had a second,
//! thread-partitioned engine to compare this one against (PR 16); they are
//! what that differential test and CI's `cmp` protected. A perf change that
//! claims "every example report byte-identical" is checked here, with the
//! observers off (an idle `fifo`/`pifo` port cuts through) and on (every
//! packet goes through its queue).

use qvisor::netsim::scenario::{report_json, sanitize_export, Engine, ScenarioSpec};
use qvisor::telemetry::{SloMonitor, Telemetry, TraceConfig, Tracer};
use qvisor_serve::registry::fnv1a;

fn scenarios_dir() -> String {
    format!("{}/examples/scenarios", env!("CARGO_MANIFEST_DIR"))
}

fn load(scenario: &str) -> ScenarioSpec {
    let path = format!("{}/{scenario}.json", scenarios_dir());
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    ScenarioSpec::from_json(&text).unwrap()
}

fn hash(bytes: &str) -> String {
    format!("{:016x}", fnv1a(bytes.as_bytes()))
}

/// FNV-1a of the report `qvisor run` prints for `spec` on `engine`.
fn report_hash(engine: &Engine, spec: &ScenarioSpec) -> String {
    hash(&report_json(&engine.run(spec).unwrap()).to_compact())
}

/// The report hash and the `[trace, monitor, sanitized telemetry]` FNV-1a
/// hashes of one scenario run through the calls `qvisor run --telemetry
/// --trace --monitor` makes.
fn observed_hashes(scenario: &str) -> (String, [String; 3]) {
    let spec = load(scenario);
    let telemetry = Telemetry::enabled();
    let tracer = Tracer::enabled(TraceConfig::default());
    let monitor = SloMonitor::enabled(spec.alert_rules());
    let engine = Engine::new()
        .with_telemetry(&telemetry)
        .with_tracer(&tracer)
        .with_monitor(&monitor);
    let report = report_hash(&engine, &spec);
    let exports = [
        tracer.snapshot().to_jsonl(),
        monitor.export_jsonl(),
        sanitize_export(&telemetry.export_jsonl()),
    ]
    .map(|export| {
        assert!(!export.is_empty(), "{scenario}: an export came back empty");
        hash(&export)
    });
    (report, exports)
}

fn assert_pinned(scenario: &str, expected: [&str; 3]) {
    assert_eq!(
        observed_hashes(scenario).1,
        expected,
        "{scenario}: [trace, monitor, sanitized telemetry]"
    );
}

/// Every file in `examples/scenarios/`, with the hash of its report.
const REPORTS: [(&str, &str); 7] = [
    ("fairtree_bound", "6c176c4628d476d9"),
    ("fault_injection", "5932fdb076d8a892"),
    ("fig4_point", "8f9d8cc3f165e887"),
    ("incast", "4da37fe181162dc6"),
    ("leaf_spine_4x4", "c2c12ee377dff5ee"),
    ("slo_alert", "808946696e90faff"),
    ("weighted_share", "28b8c4f48a169caf"),
];

#[test]
fn every_example_report_is_pinned() {
    let mut on_disk: Vec<String> = std::fs::read_dir(scenarios_dir())
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter_map(|name| name.strip_suffix(".json").map(str::to_string))
        .collect();
    on_disk.sort();
    let pinned: Vec<&str> = REPORTS.iter().map(|(scenario, _)| *scenario).collect();
    assert_eq!(on_disk, pinned, "an example scenario has no report pin");
    for (scenario, expected) in REPORTS {
        assert_eq!(
            report_hash(&Engine::new(), &load(scenario)),
            expected,
            "{scenario}: report, observers off"
        );
        assert_eq!(
            observed_hashes(scenario).0,
            expected,
            "{scenario}: report, observers on"
        );
    }
}

#[test]
fn slo_alert_exports_are_pinned() {
    assert_pinned(
        "slo_alert",
        ["64eefe5ed61d265b", "dae6bf03389e06d2", "06c88361333e12c2"],
    );
}

#[test]
fn incast_exports_are_pinned() {
    assert_pinned(
        "incast",
        ["578d254b2ddef08b", "1be270014408316f", "42fe6089f4c2f3c5"],
    );
}

#[test]
fn fig4_point_exports_are_pinned() {
    assert_pinned(
        "fig4_point",
        ["75c0237f17cd762d", "c30f8d97f66746a0", "2045ebfc0bb4df2d"],
    );
}
