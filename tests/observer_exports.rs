//! Byte pins on what the three observers export about *simulated*
//! behaviour: the flight recorder's JSONL, the SLO monitor's JSONL and the
//! telemetry JSONL minus its host-wall-clock lines (`sanitize_export`) —
//! and on the report every example scenario prints.
//!
//! The export hashes were recorded from the commit before the observers
//! were made cheaper — `slo_alert`, `incast` and `fig4_point` before PR 13
//! (sampled profiler clock, O(1) alert test, in-place trace ring), the other
//! four before PR 22 (an observed idle port passes packets around its queue,
//! the inversion mirror is a `RankIndex`); `fig2_in_network` was pinned when
//! Fig. 2's scenario became a document — so any change to how the
//! observers keep or render their state has to reproduce these bytes. A hash
//! that moves on purpose — a new metric, a changed scenario — is re-recorded
//! from the test's failure message.
//!
//! The report hashes were recorded from the last commit that had a second,
//! thread-partitioned engine to compare this one against (PR 16); they are
//! what that differential test and CI's `cmp` protected. A perf change that
//! claims "every example report byte-identical" is checked here, with the
//! observers off (an idle `fifo`/`pifo` port cuts through) and on (it still
//! does, and the wrapper emits what enqueue-then-dequeue would have).

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

/// Every file in `examples/scenarios/`: the hash of its report, then of its
/// `[trace, monitor, sanitized telemetry]` exports. `fairtree_bound` (a
/// `PifoTree` behind every port) is the one example with inversions — spans
/// naming the overtaken packet, cross-tenant counts in the monitor export —
/// so its pins are what holds the inversion mirror's read side in place.
const PINS: [(&str, &str, [&str; 3]); 8] = [
    (
        "fairtree_bound",
        "6c176c4628d476d9",
        ["460e64535529b67e", "b03fe4363a2d787a", "5c9e5be475d5f379"],
    ),
    (
        "fault_injection",
        "5932fdb076d8a892",
        ["72ad2432310f110b", "4f37af9be5ed9579", "66a805d11fb1b008"],
    ),
    (
        "fig2_in_network",
        "f206510a5367b2e6",
        ["2b518d491ca9c5c7", "7c6eda8b79d8dcd3", "1cf6f20f90559a16"],
    ),
    (
        "fig4_point",
        "8f9d8cc3f165e887",
        ["75c0237f17cd762d", "c30f8d97f66746a0", "2045ebfc0bb4df2d"],
    ),
    (
        "incast",
        "4da37fe181162dc6",
        ["578d254b2ddef08b", "1be270014408316f", "42fe6089f4c2f3c5"],
    ),
    (
        "leaf_spine_4x4",
        "c2c12ee377dff5ee",
        ["369cb2d03aa171f5", "170a366aa9cf9096", "a563e275c200f3ea"],
    ),
    (
        "slo_alert",
        "808946696e90faff",
        ["64eefe5ed61d265b", "dae6bf03389e06d2", "06c88361333e12c2"],
    ),
    (
        "weighted_share",
        "28b8c4f48a169caf",
        ["27d891c4440563f7", "0a99b9b7ad855237", "52a0af1908dad31a"],
    ),
];

fn assert_exports_pinned(scenario: &str) {
    let (_, _, expected) = PINS
        .iter()
        .find(|(pinned, _, _)| *pinned == scenario)
        .unwrap_or_else(|| panic!("{scenario}: no pin"));
    assert_eq!(
        observed_hashes(scenario).1,
        *expected,
        "{scenario}: [trace, monitor, sanitized telemetry]"
    );
}

/// A file in `examples/scenarios/` without a row in `PINS` — report and
/// exports — fails here.
#[test]
fn every_example_report_is_pinned() {
    let mut on_disk: Vec<String> = std::fs::read_dir(scenarios_dir())
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter_map(|name| name.strip_suffix(".json").map(str::to_string))
        .collect();
    on_disk.sort();
    let pinned: Vec<&str> = PINS.iter().map(|(scenario, _, _)| *scenario).collect();
    assert_eq!(on_disk, pinned, "an example scenario has no pins");
    for (scenario, expected, _) in PINS {
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
    assert_exports_pinned("slo_alert");
}

#[test]
fn incast_exports_are_pinned() {
    assert_exports_pinned("incast");
}

#[test]
fn fig2_in_network_exports_are_pinned() {
    assert_exports_pinned("fig2_in_network");
}

#[test]
fn fig4_point_exports_are_pinned() {
    assert_exports_pinned("fig4_point");
}

#[test]
fn fairtree_bound_exports_are_pinned() {
    assert_exports_pinned("fairtree_bound");
}

#[test]
fn fault_injection_exports_are_pinned() {
    assert_exports_pinned("fault_injection");
}

#[test]
fn leaf_spine_4x4_exports_are_pinned() {
    assert_exports_pinned("leaf_spine_4x4");
}

#[test]
fn weighted_share_exports_are_pinned() {
    assert_exports_pinned("weighted_share");
}

/// No example fills the default ring, so the pins above never overwrite a
/// slot. A 4 Ki ring wraps ≈ 58× on `fairtree_bound` (the one example with
/// `inversion` spans) and ≈ 13× on `fault_injection` (`transform`, drops,
/// retransmissions): together they send every span kind but `flow_start`
/// (all within each run's first hundred records) through the overwrite.
/// Recorded at the commit before the ring became 64-byte slots written
/// with non-temporal stores; held since through 32-byte slots with a wide
/// half for `fairtree_bound`'s inversions.
#[test]
fn wrapped_ring_exports_are_pinned() {
    for (scenario, expected) in [
        ("fairtree_bound", "1c028c0fbd08f2f1"),
        ("fault_injection", "2ecedd41a6854a14"),
    ] {
        let tracer = Tracer::enabled(TraceConfig {
            capacity: 4096,
            ..TraceConfig::default()
        });
        Engine::new()
            .with_tracer(&tracer)
            .run(&load(scenario))
            .unwrap();
        assert!(tracer.dropped() > 4096, "{scenario}: the ring did not wrap");
        assert_eq!(
            hash(&tracer.snapshot().to_jsonl()),
            expected,
            "{scenario}: wrapped trace export"
        );
    }
}

/// The flight recorder packs a record into 16 bytes when it fits (`t` below
/// 2^32, `flow` and `seq` below 2^16, tenant below 64, the label below
/// 2,047 or none, the payload in 41 bits: `transform` 29/12, `dequeue`
/// 12/29, `tx` 11/16/14), else into 32 unless a field does not fit (`flow`,
/// `seq` or a `transform`/`dequeue` field at 2^32 or more, a `tx` field past
/// 20/24/20 bits) or it is an `inversion`, whose four payload words take a
/// further 32-byte half. `fairtree_bound` is the one example with wide
/// records: its 7,277 inversions, and nothing else; every other record of
/// it is narrow.
#[test]
fn fairtree_bound_writes_7277_wide_records() {
    use qvisor::telemetry::{trace::NO_LABEL, TraceKind};
    let tracer = Tracer::enabled(TraceConfig::default());
    Engine::new()
        .with_tracer(&tracer)
        .run(&load("fairtree_bound"))
        .unwrap();
    let below = |v: u64, bits: u32| v >> bits == 0;
    let fits = |kind: TraceKind, [pair, tx, one]: [[u32; 3]; 3]| match kind {
        TraceKind::Inversion { .. } => false,
        TraceKind::Transform { pre: a, post: b } => below(a, pair[0]) && below(b, pair[1]),
        TraceKind::Dequeue {
            rank: a,
            wait_ns: b,
        } => below(a, pair[1]) && below(b, pair[0]),
        TraceKind::TxStart {
            bytes,
            tx_ns,
            prop_ns,
        } => below(bytes, tx[0]) && below(tx_ns, tx[1]) && below(prop_ns, tx[2]),
        TraceKind::FlowStart { size: v }
        | TraceKind::RankComputed { rank: v }
        | TraceKind::Enqueue { rank: v }
        | TraceKind::Drop { rank: v }
        | TraceKind::Deliver { latency_ns: v }
        | TraceKind::Ack { latency_ns: v } => one[0] == 64 || below(v, one[0]),
    };
    // `transform` is (pre, post) and `dequeue` (rank, wait_ns): the narrow
    // split gives the wide field 29 bits and the other 12.
    let narrow_split = [[29, 12, 0], [11, 16, 14], [41, 0, 0]];
    let compact_split = [[32, 32, 0], [20, 24, 20], [64, 0, 0]];
    let (forms, inversions) = tracer.visit(|view| {
        assert_eq!(view.dropped, 0, "the default ring keeps every record");
        view.records()
            .fold(([0; 3], 0), |(mut forms, inversions), r| {
                let narrow = below(r.t.as_nanos(), 32)
                    && below(r.flow, 16)
                    && below(r.seq, 16)
                    && r.tenant < 64
                    && (r.label < 2_047 || r.label == NO_LABEL)
                    && fits(r.kind, narrow_split);
                let compact = below(r.flow, 32) && below(r.seq, 32) && fits(r.kind, compact_split);
                forms[if narrow {
                    0
                } else if compact {
                    1
                } else {
                    2
                }] += 1;
                let inverted = matches!(r.kind, TraceKind::Inversion { .. });
                (forms, inversions + u64::from(inverted))
            })
    });
    assert_eq!(inversions, 7_277);
    assert_eq!(forms, [230_966, 0, 7_277], "narrow, compact, wide");
}

/// `Engine::build` deploys the joint policy its verifier gate synthesized:
/// one synthesis a build, so the host-wall-clock lines `sanitize_export`
/// strips carry exactly one sample of it.
#[test]
fn a_build_synthesizes_the_policy_once() {
    let telemetry = Telemetry::enabled();
    let engine = Engine::new().with_telemetry(&telemetry);
    engine.build(&load("weighted_share")).unwrap();
    let export = telemetry.export_jsonl();
    let line = |name: &str| {
        let tag = format!("\"name\":\"{name}\"");
        let mut lines = export.lines().filter(|line| line.contains(&tag));
        let line = lines.next().unwrap_or_else(|| panic!("no {name} line"));
        assert!(lines.next().is_none(), "{name} exported twice");
        line
    };
    assert!(line("runtime_synth_ns").contains("\"count\":1,"));
    assert!(line("synthesize").contains("\"type\":\"profile\""));
    assert!(line("synthesize").contains("\"count\":1,"));
    assert!(line("runtime_transform_version").contains("\"value\":1}"));
}
