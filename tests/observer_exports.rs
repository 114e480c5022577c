//! Byte pins on what the three observers export about *simulated*
//! behaviour: the flight recorder's JSONL, the SLO monitor's JSONL and the
//! telemetry JSONL minus its host-wall-clock lines (`sanitize_export`) —
//! and on the report every example scenario prints.
//!
//! The trace is pinned twice: whole, and without the three verdict fields
//! a record writes only when true (`"cross_tenant":true` on a dequeue,
//! `"dup":true` on a delivery, `"done":true` on an ACK). The records
//! carry them since the SLO monitor became a reader of the trace instead
//! of a second feed; stripped, the export is what it was before, byte for
//! byte, and those pins were not re-recorded.
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

/// A trace export without its verdict fields, as CI's `sed -E
/// 's/,"(cross_tenant|dup|done)":true//'` strips them.
fn strip_verdicts(jsonl: &str) -> String {
    [",\"cross_tenant\":true", ",\"dup\":true", ",\"done\":true"]
        .iter()
        .fold(jsonl.to_string(), |text, field| text.replace(field, ""))
}

/// FNV-1a of the report `qvisor run` prints for `spec` on `engine`.
fn report_hash(engine: &Engine, spec: &ScenarioSpec) -> String {
    hash(&report_json(&engine.run(spec).unwrap()).to_compact())
}

/// The report hash and the `[trace without its verdicts, trace, monitor,
/// sanitized telemetry]` FNV-1a hashes of one scenario run through the
/// calls `qvisor run --telemetry --trace --monitor` makes.
fn observed_hashes(scenario: &str) -> (String, [String; 4]) {
    let spec = load(scenario);
    let telemetry = Telemetry::enabled();
    let tracer = Tracer::enabled(TraceConfig::default());
    let monitor = SloMonitor::enabled(spec.alert_rules());
    let engine = Engine::new()
        .with_telemetry(&telemetry)
        .with_tracer(&tracer)
        .with_monitor(&monitor);
    let report = report_hash(&engine, &spec);
    let trace = tracer.snapshot().to_jsonl();
    let exports = [
        strip_verdicts(&trace),
        trace,
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
/// `[trace without its verdicts, trace, monitor, sanitized telemetry]`
/// exports. `fairtree_bound` (a `PifoTree` behind every port) is the one
/// example with inversions — spans naming the overtaken packet, dequeues
/// marked `cross_tenant`, cross-tenant counts in the monitor export — so
/// its pins are what holds the inversion mirror's read side in place.
const PINS: [(&str, &str, [&str; 4]); 8] = [
    (
        "fairtree_bound",
        "6c176c4628d476d9",
        [
            "460e64535529b67e",
            "bf6b1955abdc2d7d",
            "b03fe4363a2d787a",
            "5c9e5be475d5f379",
        ],
    ),
    (
        "fault_injection",
        "5932fdb076d8a892",
        [
            "72ad2432310f110b",
            "7871acc90c78f9e6",
            "4f37af9be5ed9579",
            "66a805d11fb1b008",
        ],
    ),
    (
        "fig2_in_network",
        "f206510a5367b2e6",
        [
            "2b518d491ca9c5c7",
            "b89c3bb08d865370",
            "7c6eda8b79d8dcd3",
            "1cf6f20f90559a16",
        ],
    ),
    (
        "fig4_point",
        "8f9d8cc3f165e887",
        [
            "75c0237f17cd762d",
            "f133a9cbc0858502",
            "c30f8d97f66746a0",
            "2045ebfc0bb4df2d",
        ],
    ),
    (
        "incast",
        "4da37fe181162dc6",
        [
            "578d254b2ddef08b",
            "a902d9afbc475fbc",
            "1be270014408316f",
            "42fe6089f4c2f3c5",
        ],
    ),
    (
        "leaf_spine_4x4",
        "c2c12ee377dff5ee",
        [
            "369cb2d03aa171f5",
            "f66e93d7926c340e",
            "170a366aa9cf9096",
            "a563e275c200f3ea",
        ],
    ),
    (
        "slo_alert",
        "808946696e90faff",
        [
            "64eefe5ed61d265b",
            "64eefe5ed61d265b",
            "dae6bf03389e06d2",
            "06c88361333e12c2",
        ],
    ),
    (
        "weighted_share",
        "28b8c4f48a169caf",
        [
            "27d891c4440563f7",
            "accbd23c03a8d4bf",
            "0a99b9b7ad855237",
            "52a0af1908dad31a",
        ],
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
        "{scenario}: [trace without its verdicts, trace, monitor, sanitized telemetry]"
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
/// half for `fairtree_bound`'s inversions, and through the return to plain
/// stores; stripped of the verdict fields, since they were added.
#[test]
fn wrapped_ring_exports_are_pinned() {
    for (scenario, expected) in [
        ("fairtree_bound", ["1c028c0fbd08f2f1", "bcd636b625dfd0af"]),
        ("fault_injection", ["2ecedd41a6854a14", "2ecedd41a6854a14"]),
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
        let trace = tracer.snapshot().to_jsonl();
        assert_eq!(
            [hash(&strip_verdicts(&trace)), hash(&trace)],
            expected,
            "{scenario}: wrapped trace export, without its verdicts and whole"
        );
    }
}

/// Sampling belongs to the ring alone. On `incast`, beside a ring that
/// samples 1 flow in 64, the monitor still reads every flow: its export is
/// the one `PINS` holds for a ring that samples nothing. The ring keeps
/// the sampled flow's records and no record built only for the monitor:
/// without its verdicts, its export is the one the same ring wrote before
/// the monitor read the trace (recorded then). Seed 4 is the first
/// sampling seed that picks one of `incast`'s seven flows.
#[test]
fn a_sampled_ring_does_not_thin_the_monitor() {
    let spec = load("incast");
    let tracer = Tracer::enabled(TraceConfig {
        sample_one_in: 64,
        seed: 4,
        ..TraceConfig::default()
    });
    let monitor = SloMonitor::enabled(spec.alert_rules());
    Engine::new()
        .with_tracer(&tracer)
        .with_monitor(&monitor)
        .run(&spec)
        .unwrap();
    let (_, _, [_, _, monitor_pin, _]) = PINS.iter().find(|(s, ..)| *s == "incast").unwrap();
    assert_eq!(
        hash(&monitor.export_jsonl()),
        *monitor_pin,
        "monitor export"
    );
    let trace = tracer.snapshot();
    let flows: std::collections::BTreeSet<u64> = trace.records.iter().map(|r| r.flow).collect();
    assert_eq!(
        flows.into_iter().collect::<Vec<_>>(),
        [1],
        "the sampled flow"
    );
    assert_eq!(trace.dropped, 0);
    let jsonl = trace.to_jsonl();
    assert_eq!(jsonl.lines().count(), 5_582);
    assert_eq!(
        hash(&strip_verdicts(&jsonl)),
        "7a33df77a65f754c",
        "sampled trace export, without its verdicts"
    );
}

/// The flight recorder packs a record into 16 bytes when it fits (`t` below
/// 2^32, `flow` and `seq` below 2^16, tenant below 64, the label below
/// 2,047 or none, the payload in 41 bits: `transform` 29/12, `dequeue`
/// 12/28 and its verdict bit, `deliver`/`ack` 40 and theirs, `tx`
/// 11/16/14), else into 32 unless a field does not fit (`flow`, `seq`, a
/// `transform` field or a `dequeue`'s rank at 2^32 or more, a `dequeue`'s
/// wait at 2^31, a latency at 2^63, a `tx` field past 20/24/20 bits) or it
/// is an `inversion`, whose four payload words take a further 32-byte
/// half. `fairtree_bound` is the one example with wide
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
    let below = |v: u64, bits: u32| v.checked_shr(bits).unwrap_or(0) == 0;
    // Each field's width in a form: `transform` (pre, post), `dequeue`
    // (rank, wait_ns), `tx`, a latency, any other one-field kind's field.
    struct Widths {
        transform: [u32; 2],
        dequeue: [u32; 2],
        tx: [u32; 3],
        latency: u32,
        one: u32,
    }
    let fits = |kind: TraceKind, w: &Widths| match kind {
        TraceKind::Inversion { .. } => false,
        TraceKind::Transform { pre, post } => {
            below(pre, w.transform[0]) && below(post, w.transform[1])
        }
        TraceKind::Dequeue { rank, wait_ns, .. } => {
            below(rank, w.dequeue[0]) && below(wait_ns, w.dequeue[1])
        }
        TraceKind::TxStart {
            bytes,
            tx_ns,
            prop_ns,
        } => below(bytes, w.tx[0]) && below(tx_ns, w.tx[1]) && below(prop_ns, w.tx[2]),
        TraceKind::Deliver { latency_ns, .. } | TraceKind::Ack { latency_ns, .. } => {
            below(latency_ns, w.latency)
        }
        TraceKind::FlowStart { size: v }
        | TraceKind::RankComputed { rank: v }
        | TraceKind::Enqueue { rank: v }
        | TraceKind::Drop { rank: v } => below(v, w.one),
    };
    let narrow_split = Widths {
        transform: [29, 12],
        dequeue: [12, 28],
        tx: [11, 16, 14],
        latency: 40,
        one: 41,
    };
    let compact_split = Widths {
        transform: [32, 32],
        dequeue: [32, 31],
        tx: [20, 24, 20],
        latency: 63,
        one: 64,
    };
    let trace = tracer.snapshot();
    assert_eq!(trace.dropped, 0, "the default ring keeps every record");
    let (forms, inversions) =
        trace
            .records
            .iter()
            .fold(([0; 3], 0), |(mut forms, inversions), r| {
                let narrow = below(r.t.as_nanos(), 32)
                    && below(r.flow, 16)
                    && below(r.seq, 16)
                    && r.tenant < 64
                    && (r.label < 2_047 || r.label == NO_LABEL)
                    && fits(r.kind, &narrow_split);
                let compact = below(r.flow, 32) && below(r.seq, 32) && fits(r.kind, &compact_split);
                forms[if narrow {
                    0
                } else if compact {
                    1
                } else {
                    2
                }] += 1;
                let inverted = matches!(r.kind, TraceKind::Inversion { .. });
                (forms, inversions + u64::from(inverted))
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
