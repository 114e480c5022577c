//! The experiment documents in `examples/sweeps/` are the experiments:
//! Fig. 4 and the FCT ablations exist only as these files, so the files
//! are checked for the shape of the figure, for the benchmarked point, and
//! against the verifier.

use qvisor_netsim::scenario::{Engine, ScenarioSpec, SweepPoint, SweepSpec};
use std::path::Path;

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn points(rel: &str) -> Vec<SweepPoint> {
    SweepSpec::from_json(&read(rel))
        .and_then(|sweep| sweep.points())
        .unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// The benchmarked Fig. 4 point (`benchmark/workloads/fig4.json`) is the
/// figure's `QVISOR: pFabric >> EDF` point at load 0.6, apart from its name
/// and the SLO alerts the observed workload adds.
#[test]
fn the_benchmarked_workload_is_a_point_of_the_recorded_figure() {
    let mut bench = ScenarioSpec::from_json(&read("benchmark/workloads/fig4.json")).unwrap();
    let figure = points("examples/sweeps/fig4_paper.json");
    let point = figure
        .iter()
        .find(|p| p.spec.name == "QVISOR: pFabric >> EDF" && p.label.ends_with("load=0.6"))
        .expect("fig4_paper.json has the pFabric >> EDF point at load 0.6");
    bench.name = point.spec.name.clone();
    bench.alerts.clear();
    assert_eq!(point.spec, bench);
}

/// Six schemes by seven loads, each scheme's legend label its `name`.
#[test]
fn each_figure_document_is_six_schemes_by_seven_loads() {
    for rel in [
        "examples/sweeps/fig4_paper.json",
        "examples/sweeps/fig4_websearch.json",
        "examples/sweeps/fig4_smoke.json",
    ] {
        let points = points(rel);
        assert_eq!(points.len(), 42, "{rel}");
        let mut labels: Vec<&str> = points.iter().map(|p| p.spec.name.as_str()).collect();
        labels.dedup();
        assert_eq!(
            labels,
            [
                "FIFO: pFabric and EDF",
                "PIFO: pFabric and EDF",
                "PIFO: pFabric",
                "QVISOR: EDF >> pFabric",
                "QVISOR: pFabric + EDF",
                "QVISOR: pFabric >> EDF",
            ],
            "{rel}"
        );
        for p in &points {
            let baseline = !p.spec.name.starts_with("QVISOR");
            assert_eq!(p.spec.qvisor.is_none(), baseline, "{rel}: {}", p.label);
            let ideal = p.spec.name == "PIFO: pFabric";
            assert_eq!(p.spec.workloads.len(), if ideal { 1 } else { 2 }, "{rel}");
        }
    }
}

/// Every point of every sweep document verifies clean under
/// deny-warnings, as CI's `qvisor check --deny-warnings` requires.
#[test]
fn every_sweep_document_verifies_clean() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/sweeps");
    let mut docs: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    docs.sort();
    assert!(docs.len() >= 6, "{docs:?}");
    for doc in docs {
        let rel = doc.strip_prefix(env!("CARGO_MANIFEST_DIR")).unwrap();
        for p in points(rel.to_str().unwrap()) {
            let report = Engine::new()
                .check(&p.spec)
                .unwrap_or_else(|e| panic!("{}: {}: {e}", rel.display(), p.label));
            assert!(
                !report.gate_fails(true),
                "{}: {}:\n{}",
                rel.display(),
                p.label,
                report.render_text()
            );
        }
    }
}
