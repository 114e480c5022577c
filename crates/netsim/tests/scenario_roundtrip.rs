//! ScenarioSpec JSON codec: round-trip identity and strict rejection of
//! unknown fields and out-of-range values, with named-field errors.

use qvisor_netsim::{ScenarioError, ScenarioSpec};

/// A scenario exercising most of the vocabulary: leaf-spine topology, a
/// QVISOR deployment with a monitor, mixed workload kinds, and explicit
/// sim overrides.
const FULL: &str = r#"{
    "name": "roundtrip",
    "seed": 3,
    "topology": {
        "leaf_spine": {
            "leaves": 2, "spines": 2, "hosts_per_leaf": 4,
            "access_bps": 1000000000, "fabric_bps": 4000000000,
            "access_delay_ns": 1000, "fabric_delay_ns": 1000
        }
    },
    "sim": {
        "horizon": { "after_last_arrival_ns": 500000000 },
        "sample_interval_ns": 5000000,
        "random_loss": 0.001
    },
    "scheduler": { "pifo": {} },
    "host_scheduler": { "fifo": {} },
    "qvisor": {
        "tenants": [
            { "id": 1, "name": "T1", "algorithm": "pFabric",
              "rank_min": 0, "rank_max": 2000, "levels": 128 },
            { "id": 2, "name": "T2", "algorithm": "EDF",
              "rank_min": 0, "rank_max": 500, "levels": 32 }
        ],
        "policy": "T1 >> T2",
        "unknown": "drop",
        "scope": "switches_only",
        "monitor": { "violation_action": "clamp",
                     "idle_after_ns": 8000000, "drift_ratio": 4.0 }
    },
    "rank_fns": [
        { "tenant": 1, "fn": { "algorithm": "p_fabric",
                               "unit_bytes": 1000, "max_rank": 2000 } },
        { "tenant": 2, "fn": { "algorithm": "edf",
                               "unit_ns": 1000, "max_rank": 10000 } }
    ],
    "workloads": [
        { "poisson": { "tenant": 1, "flows": 50,
                       "sizes": { "data_mining": { "scale_den": 50 } },
                       "arrival": { "load": 0.5 }, "rng_stream": 1 } },
        { "cbr_fleet": { "tenant": 2, "streams": 3, "rate_bps": 100000000,
                         "pkt_size": 1500, "start_ns": 0,
                         "stop": { "after_last_arrival_ns": 10000000 },
                         "deadline_offset_ns": 300000, "rng_stream": 2 } },
        { "flows": { "list": [
            { "tenant": 1, "src_host": 0, "dst_host": 4,
              "size": 200000, "start_ns": 1000, "deadline_ns": 9000000,
              "weight": 2 }
        ] } },
        { "cbr": { "list": [
            { "tenant": 2, "src_host": 1, "dst_host": 5,
              "rate_bps": 50000000, "pkt_size": 1500, "start_ns": 0,
              "stop": { "at_ns": 20000000 }, "deadline_offset_ns": 400000 }
        ] } }
    ],
    "alerts": [
        { "metric": "drop_rate", "tenant": 2,
          "window_ns": 2000000, "threshold": 0.05 },
        { "metric": "fct_p99", "tenant": 1,
          "window_ns": 10000000, "threshold": 5000000.0 }
    ]
}"#;

/// Replace the first occurrence of `from` in the full document.
fn patched(from: &str, to: &str) -> String {
    assert!(FULL.contains(from), "fixture must contain {from}");
    FULL.replacen(from, to, 1)
}

fn err_text(doc: &str) -> String {
    match ScenarioSpec::from_json(doc) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("document must be rejected"),
    }
}

#[test]
fn parse_serialize_parse_is_identity() {
    let spec = ScenarioSpec::from_json(FULL).unwrap();
    let serialized = spec.to_json();
    let again = ScenarioSpec::from_json(&serialized).unwrap();
    assert_eq!(spec, again);
    // Serialization is canonical: a second round emits the same bytes.
    assert_eq!(serialized, again.to_json());
}

#[test]
fn defaults_are_made_explicit_on_serialize() {
    let spec = ScenarioSpec::from_json(
        r#"{"topology": {"dumbbell": {
        "pairs": 1, "edge_bps": 1000000000,
        "bottleneck_bps": 1000000000, "delay_ns": 1000}}}"#,
    )
    .unwrap();
    let text = spec.to_json();
    // The full form names every sim default.
    assert!(text.contains("\"mss\""));
    assert!(text.contains("\"horizon\""));
    assert_eq!(spec, ScenarioSpec::from_json(&text).unwrap());
}

#[test]
fn unknown_fields_are_rejected_with_their_path() {
    let text = err_text(&patched(
        "\"name\": \"roundtrip\"",
        "\"nam\": \"roundtrip\"",
    ));
    assert!(text.contains("scenario.nam"), "got: {text}");

    let text = err_text(&patched("\"leaves\": 2", "\"leafs\": 2"));
    assert!(text.contains("topology.leaf_spine.leafs"), "got: {text}");

    let text = err_text(&patched("\"rng_stream\": 1", "\"rng_strm\": 1"));
    assert!(text.contains("workloads.0.poisson.rng_strm"), "got: {text}");

    let text = err_text(&patched("\"drift_ratio\": 4.0", "\"drift\": 4.0"));
    assert!(text.contains("qvisor.monitor.drift"), "got: {text}");

    // Unknown keys inside a rank function are caught even though the
    // underlying parser would ignore them.
    let text = err_text(&patched(
        "\"unit_bytes\": 1000, \"max_rank\": 2000",
        "\"unit_bytes\": 1000, \"max_rank\": 2000, \"bogus\": 1",
    ));
    assert!(text.contains("rank_fns.0.fn.bogus"), "got: {text}");

    // A tenant declaration is read as strictly as the rest of the document.
    let text = err_text(&patched("\"levels\": 128", "\"levles\": 128"));
    assert!(text.contains("qvisor.tenants.0.levles"), "got: {text}");
}

#[test]
fn out_of_range_values_are_rejected_with_the_field_name() {
    // AIFO admission headroom must stay in (0, 1).
    let doc = patched(
        r#""scheduler": { "pifo": {} }"#,
        r#""scheduler": { "aifo": { "window": 64, "burst": 1.0 } }"#,
    );
    let text = err_text(&doc);
    assert!(text.contains("burst"), "got: {text}");
    assert!(matches!(
        ScenarioSpec::from_json(&doc),
        Err(ScenarioError::Field { .. })
    ));

    // SP-PIFO with zero queues is meaningless.
    let text = err_text(&patched(
        r#""scheduler": { "pifo": {} }"#,
        r#""scheduler": { "sp_pifo": { "queues": 0 } }"#,
    ));
    assert!(text.contains("queues"), "got: {text}");

    // Host indices must exist in the topology (8 hosts here).
    let text = err_text(&patched("\"dst_host\": 4", "\"dst_host\": 8"));
    assert!(text.contains("dst_host"), "got: {text}");

    // Alert rules name a known metric and a positive window; the
    // rejection lists the vocabulary.
    let text = err_text(&patched(
        "\"metric\": \"drop_rate\"",
        "\"metric\": \"drop_rat\"",
    ));
    assert!(text.contains("alerts.0.metric"), "got: {text}");
    assert!(text.contains("drop_rate"), "got: {text}");
    let text = err_text(&patched("\"window_ns\": 2000000", "\"window_ns\": 0"));
    assert!(text.contains("window_ns"), "got: {text}");

    // Integers are range-checked into their field's type, never truncated.
    for field in ["mss", "header_bytes", "ack_bytes", "cwnd"] {
        let text = err_text(&patched(
            "\"sample_interval_ns\": 5000000,",
            &format!("\"sample_interval_ns\": 5000000, \"{field}\": 4294968756,"),
        ));
        assert_eq!(
            text,
            format!("scenario field `sim.{field}`: must fit a u32"),
            "got: {text}"
        );
    }

    // A string enum of the wrong type is refused, not read as its default.
    let text = err_text(&patched("\"unknown\": \"drop\"", "\"unknown\": 5"));
    assert_eq!(text, "scenario field `qvisor.unknown`: must be a string");
    let text = err_text(&patched("\"scope\": \"switches_only\"", "\"scope\": 7"));
    assert_eq!(text, "scenario field `qvisor.scope`: must be a string");
    let text = err_text(&patched(
        "\"scope\": \"switches_only\"",
        "\"scope\": \"nowhere\"",
    ));
    assert!(
        text.contains("`qvisor.scope`: unknown value 'nowhere' (allowed: everywhere,"),
        "got: {text}"
    );

    // A tenant's own rules are checked once, by the tenant.
    let text = err_text(&patched(
        "\"rank_min\": 0, \"rank_max\": 500",
        "\"rank_min\": 9, \"rank_max\": 5",
    ));
    assert_eq!(
        text,
        "scenario field `qvisor.tenants.1`: declares an empty rank range [9, 5]"
    );
}

#[test]
fn example_scenarios_parse_and_round_trip() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/scenarios");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).expect("examples/scenarios exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let spec =
            ScenarioSpec::from_json(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(spec, ScenarioSpec::from_json(&spec.to_json()).unwrap());
        seen += 1;
    }
    assert!(seen >= 4, "expected the example library, found {seen}");
}
