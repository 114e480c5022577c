//! The parallel sweep runner must be a pure function of the sweep document:
//! results and telemetry snapshots are byte-identical at any `--jobs` level.

use qvisor_netsim::scenario::{merged_value, run_sweep};
use qvisor_netsim::SweepSpec;

/// A fig4-style grid: Poisson pFabric traffic plus a CBR EDF fleet under a
/// QVISOR deployment, swept over load and seed (4 points).
const SWEEP: &str = r#"{
    "base": {
        "name": "fig4-grid",
        "seed": 1,
        "topology": {
            "leaf_spine": {
                "leaves": 2, "spines": 2, "hosts_per_leaf": 4,
                "access_bps": 1000000000, "fabric_bps": 4000000000,
                "access_delay_ns": 1000, "fabric_delay_ns": 1000
            }
        },
        "sim": { "horizon": { "after_last_arrival_ns": 500000000 } },
        "scheduler": { "pifo": {} },
        "qvisor": {
            "tenants": [
                { "id": 1, "name": "pFabric", "algorithm": "pFabric",
                  "rank_min": 0, "rank_max": 2000, "levels": 512 },
                { "id": 2, "name": "EDF", "algorithm": "EDF",
                  "rank_min": 0, "rank_max": 2, "levels": 64 }
            ],
            "policy": "EDF >> pFabric",
            "unknown": "best_effort",
            "scope": "everywhere"
        },
        "rank_fns": [
            { "tenant": 1, "fn": { "algorithm": "p_fabric",
                                   "unit_bytes": 1000, "max_rank": 2000 } },
            { "tenant": 2, "fn": { "algorithm": "edf",
                                   "unit_ns": 300000, "max_rank": 2 } }
        ],
        "workloads": [
            { "poisson": { "tenant": 1, "flows": 60,
                           "sizes": { "data_mining": { "scale_den": 50 } },
                           "arrival": { "load": 0.4 }, "rng_stream": 1 } },
            { "cbr_fleet": { "tenant": 2, "streams": 2, "rate_bps": 100000000,
                             "pkt_size": 1500, "start_ns": 0,
                             "stop": { "after_last_arrival_ns": 5000000 },
                             "deadline_offset_ns": 300000, "rng_stream": 2 } }
        ]
    },
    "axes": [
        { "path": "workloads.0.poisson.arrival.load", "values": [0.3, 0.6] },
        { "path": "seed", "values": [1, 2] }
    ]
}"#;

#[test]
fn sweep_output_is_byte_identical_at_any_jobs_level() {
    let spec = SweepSpec::from_json(SWEEP).unwrap();
    let serial = run_sweep(&spec, 1, true, false).unwrap();
    let parallel = run_sweep(&spec, 8, true, false).unwrap();
    assert_eq!(serial.len(), 4);

    // Merged results document: byte-identical.
    let merged_serial = merged_value(&spec, &serial).to_pretty();
    let merged_parallel = merged_value(&spec, &parallel).to_pretty();
    assert_eq!(merged_serial, merged_parallel);

    // Per-point telemetry snapshots: byte-identical too (wall-clock lines
    // are stripped by the runner's sanitizer).
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.index, p.index);
        assert_eq!(s.label, p.label);
        let st = s.telemetry_jsonl.as_ref().expect("telemetry requested");
        let pt = p.telemetry_jsonl.as_ref().expect("telemetry requested");
        assert_eq!(st, pt, "telemetry diverged at point {}", s.label);
        assert!(!st.contains("runtime_synth_ns"), "wall-clock line leaked");
    }

    // Grid order is rightmost-axis-fastest and independent of scheduling.
    let labels: Vec<&str> = serial.iter().map(|r| r.label.as_str()).collect();
    assert_eq!(
        labels,
        [
            "workloads.0.poisson.arrival.load=0.3,seed=1",
            "workloads.0.poisson.arrival.load=0.3,seed=2",
            "workloads.0.poisson.arrival.load=0.6,seed=1",
            "workloads.0.poisson.arrival.load=0.6,seed=2",
        ]
    );
}

#[test]
fn oversubscribed_jobs_clamp_to_the_grid() {
    let spec = SweepSpec::from_json(SWEEP).unwrap();
    // More workers than points: still every point exactly once, in order.
    let results = run_sweep(&spec, 64, false, false).unwrap();
    assert_eq!(results.len(), 4);
    for (i, r) in results.iter().enumerate() {
        assert_eq!(r.index, i);
        assert!(r.telemetry_jsonl.is_none());
    }
}

/// Two points fail for different reasons; whichever worker finishes first,
/// the sweep reports the one that comes first in grid order.
#[test]
fn the_first_failing_point_in_grid_order_is_the_error() {
    use qvisor_netsim::ScenarioError;
    use qvisor_sim::json::Value;
    let base = Value::parse(SWEEP).unwrap().get("base").unwrap().clone();
    // Refused by the verifier gate (every band saturates) ...
    let synth = |first_rank: u64| {
        Value::object()
            .set("default_levels", 8u64)
            .set("first_rank", first_rank)
            .set("pref_bias_divisor", 2u64)
    };
    let refuted = Value::object()
        .set("path", "qvisor.synth")
        .set("values", Value::from(vec![synth(0), synth(u64::MAX - 460)]));
    // ... and refused at materialization (the fleet would stop before it starts).
    let late = Value::object()
        .set("path", "workloads.1.cbr_fleet.start_ns")
        .set(
            "values",
            Value::from(vec![Value::from(0u64), Value::from(u64::MAX / 2)]),
        );
    for (axes, verify_first) in [
        (vec![late.clone(), refuted.clone()], true),
        (vec![refuted, late], false),
    ] {
        let sweep = Value::object()
            .set("base", base.clone())
            .set("axes", Value::from(axes));
        let spec = SweepSpec::from_value(&sweep).unwrap();
        for jobs in [1, 4] {
            let err = run_sweep(&spec, jobs, false, false).unwrap_err();
            assert_eq!(
                matches!(err, ScenarioError::Verify(_)),
                verify_first,
                "jobs={jobs}: {err}"
            );
        }
    }
}
