//! One build path: `Engine::build` is the engine's verification followed
//! by `Engine::build_verified`, and a build deploys only the joint policy
//! a verification of that very scenario judged.

use qvisor::core::{SpecPaths, SynthConfig};
use qvisor::netsim::scenario::{report_json, Engine, ScenarioSpec};
use qvisor::netsim::ScenarioError;

/// Every file in `examples/scenarios/`, by name.
fn examples() -> Vec<(String, ScenarioSpec)> {
    let dir = format!("{}/examples/scenarios", env!("CARGO_MANIFEST_DIR"));
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no scenarios in {dir}");
    paths
        .iter()
        .map(|path| {
            let json = std::fs::read_to_string(path).unwrap();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, ScenarioSpec::from_json(&json).unwrap())
        })
        .collect()
}

fn fig4_point() -> ScenarioSpec {
    let (_, spec) = examples()
        .into_iter()
        .find(|(name, _)| name == "fig4_point.json")
        .expect("examples/scenarios/fig4_point.json");
    spec
}

/// The verdict's bytes: its rendering and its full structure.
fn verdict(report: &qvisor::core::VerifyReport) -> String {
    format!("{}\n{report:?}", report.render_text())
}

#[test]
fn build_and_verify_then_build_report_the_same_bytes() {
    let engine = Engine::new();
    for (name, spec) in examples() {
        let built = report_json(&engine.build(&spec).unwrap().run()).to_compact();
        let verified = engine.verify(&spec, &SpecPaths::scenario()).unwrap();
        assert_eq!(
            verdict(verified.report()),
            verdict(&engine.check(&spec).unwrap()),
            "{name}: check is the same verification"
        );
        let split = engine.build_verified(&spec, verified).unwrap().run();
        assert_eq!(report_json(&split).to_compact(), built, "{name}");
        // Spans rooted elsewhere judge, and deploy, the same policy.
        let config = engine.verify(&spec, &SpecPaths::config()).unwrap();
        let rerooted = engine.build_verified(&spec, config).unwrap().run();
        assert_eq!(report_json(&rerooted).to_compact(), built, "{name}");
    }
}

#[test]
fn a_verification_handed_to_another_scenario_is_refused() {
    let engine = Engine::new();
    let spec = fig4_point();
    let mut reseeded = spec.clone();
    reseeded.seed += 1;
    let mut repolicied = spec.clone();
    let qvisor = repolicied.qvisor.as_mut().unwrap();
    qvisor.policy = qvisor.policy.replace(">>", ">");
    assert_ne!(repolicied, spec);
    for other in [&reseeded, &repolicied] {
        let verified = engine.verify(&spec, &SpecPaths::scenario()).unwrap();
        let err = engine.build_verified(other, verified).err().unwrap();
        assert!(matches!(err, ScenarioError::NotVerified), "{err}");
        assert_eq!(
            err.to_string(),
            "scenario build: the verification judged another scenario"
        );
    }
    // An equal copy is the scenario that was verified.
    let verified = engine.verify(&spec, &SpecPaths::scenario()).unwrap();
    assert!(engine.build_verified(&spec.clone(), verified).is_ok());
}

#[test]
fn a_refuted_deployment_is_refused_with_the_verifiers_report() {
    // A saturating first rank refutes overflow-freedom and isolation.
    let mut refuted = fig4_point();
    refuted.qvisor.as_mut().unwrap().synth = Some(SynthConfig {
        default_levels: 8,
        first_rank: u64::MAX - 5,
        pref_bias_divisor: 2,
    });
    // A warning only: refused under deny-warnings alone.
    let mut warned = fig4_point();
    warned.qvisor.as_mut().unwrap().policy = "EDF".into();
    for (spec, engine) in [
        (&refuted, Engine::new()),
        (&warned, Engine::new().with_deny_warnings(true)),
    ] {
        let check = engine.check(spec).unwrap();
        assert!(check.gate_fails(true));
        let verified = engine.verify(spec, &SpecPaths::scenario()).unwrap();
        for result in [engine.build(spec), engine.build_verified(spec, verified)] {
            let err = result.err().expect("a refuted deployment was built");
            let ScenarioError::Verify(report) = &err else {
                panic!("refused for another reason: {err}");
            };
            assert_eq!(verdict(report), verdict(&check));
            assert_eq!(
                err.to_string(),
                format!("scenario verification failed\n{}", check.render_text())
            );
        }
    }
    assert!(
        Engine::new().build(&warned).is_ok(),
        "warnings pass by default"
    );
    // A verification admitted by a lax engine is judged again by the
    // stricter engine that builds it.
    let lax = Engine::new()
        .verify(&warned, &SpecPaths::scenario())
        .unwrap();
    let strict = Engine::new().with_deny_warnings(true);
    let err = strict.build_verified(&warned, lax).err().unwrap();
    assert!(matches!(err, ScenarioError::Verify(_)), "{err}");
}
