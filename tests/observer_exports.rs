//! Byte pins on what the three observers export about *simulated*
//! behaviour: the flight recorder's JSONL, the SLO monitor's JSONL and the
//! telemetry JSONL minus its host-wall-clock lines (`sanitize_export`).
//!
//! The hashes were recorded from the commit before the observers were made
//! cheaper (sampled profiler clock, O(1) alert test, in-place trace ring),
//! so any change to how the observers keep or render their state has to
//! reproduce these bytes. A hash that moves on purpose — a new metric, a
//! changed scenario — is re-recorded from the test's failure message.

use qvisor::netsim::scenario::{sanitize_export, Engine, ScenarioSpec};
use qvisor::telemetry::{SloMonitor, Telemetry, TraceConfig, Tracer};
use qvisor_serve::registry::fnv1a;

/// `[trace, monitor, sanitized telemetry]` FNV-1a hashes of one scenario
/// run through the calls `qvisor run --telemetry --trace --monitor` makes.
fn export_hashes(scenario: &str) -> [String; 3] {
    let path = format!(
        "{}/examples/scenarios/{scenario}.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let spec = ScenarioSpec::from_json(&text).unwrap();
    let telemetry = Telemetry::enabled();
    let tracer = Tracer::enabled(TraceConfig::default());
    let monitor = SloMonitor::enabled(spec.alert_rules());
    Engine::new()
        .with_telemetry(&telemetry)
        .with_tracer(&tracer)
        .with_monitor(&monitor)
        .run(&spec)
        .unwrap();
    [
        tracer.snapshot().to_jsonl(),
        monitor.export_jsonl(),
        sanitize_export(&telemetry.export_jsonl()),
    ]
    .map(|export| {
        assert!(!export.is_empty(), "{scenario}: an export came back empty");
        format!("{:016x}", fnv1a(export.as_bytes()))
    })
}

fn assert_pinned(scenario: &str, expected: [&str; 3]) {
    assert_eq!(
        export_hashes(scenario),
        expected,
        "{scenario}: [trace, monitor, sanitized telemetry]"
    );
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
