//! One gate for every deployment: the simulator, the scenario engine and
//! the control-plane daemon deploy only a joint policy `qvisor-core`'s
//! deployment gate admitted, at the strictness of the deployment it
//! replaces — a runtime re-synthesis included.

use std::sync::Arc;

use qvisor::core::{
    admit, retain_tenants, verify, AdaptError, Adaptation, Backend, DeploymentConfig,
    MonitorConfig, Policy, PreprocScope, QvisorError, RuntimeAdapter, SpecPaths, SynthConfig,
    Target, TenantSpec,
};
use qvisor::netsim::scenario::{report_json, Engine, ScenarioSpec};
use qvisor::netsim::{QvisorSetup, SimConfig, Simulation};
use qvisor::ranking::RankRange;
use qvisor::sim::json::Value;
use qvisor::sim::{gbps, Nanos, Rank, TenantId};
use qvisor::telemetry::Telemetry;
use qvisor::topology::Dumbbell;
use qvisor_fuzz::generate_case;
use qvisor_serve::{ControlPlane, LogEntry, SnapshotCell};

fn dumbbell_setup(synth: SynthConfig) -> SimConfig {
    let specs = vec![
        TenantSpec::new(TenantId(1), "T1", "pFabric", RankRange::new(0, 1_000)),
        TenantSpec::new(TenantId(2), "T2", "EDF", RankRange::new(0, 1_000)),
    ];
    SimConfig {
        qvisor: Some(QvisorSetup {
            synth,
            ..QvisorSetup::new(specs, "T1 >> T2")
        }),
        ..SimConfig::default()
    }
}

#[test]
fn simulation_new_refuses_an_error_severity_policy() {
    let d = Dumbbell::build(2, gbps(1), gbps(1), Nanos::from_micros(1));
    // Every band shifted to the top of the rank space saturates at
    // `Rank::MAX`: QV-OVERFLOW, an error.
    let saturating = SynthConfig {
        first_rank: Rank::MAX - 5,
        ..SynthConfig::default()
    };
    let err = Simulation::new(d.topology.clone(), dumbbell_setup(saturating))
        .err()
        .expect("an overflowing policy was deployed");
    let QvisorError::Deployment(msg) = &err else {
        panic!("refused for another reason: {err}");
    };
    assert!(msg.contains("QV-OVERFLOW"), "{msg}");
    // The default gate refuses errors only.
    let sim = Simulation::new(d.topology.clone(), dumbbell_setup(SynthConfig::default()));
    assert!(sim.is_ok());
}

/// T1 only ever sends rank 0 and T2 rank 1,000, each declaring
/// `[0, 1000]`. The adapter's drift tightening cuts T1 to the point range
/// `[0, 0]`, which cannot interleave with T2 in `T1:5 + T2`: a
/// QV-SHARE-BAND warning on the re-synthesis.
const TIGHTENED_INTO_A_WARNING: &str = r#"{
  "name": "tightened-into-a-warning",
  "seed": 3,
  "topology": { "dumbbell": { "pairs": 2, "edge_bps": 1000000000,
                              "bottleneck_bps": 1000000000, "delay_ns": 1000 } },
  "sim": { "horizon": { "at_ns": 20000000 }, "adaptation_interval_ns": 2000000 },
  "scheduler": { "pifo": {} },
  "qvisor": {
    "tenants": [
      { "id": 1, "name": "T1", "algorithm": "pFabric", "rank_min": 0, "rank_max": 1000 },
      { "id": 2, "name": "T2", "algorithm": "EDF", "rank_min": 0, "rank_max": 1000 }
    ],
    "policy": "T1:5 + T2",
    "monitor": { "violation_action": "clamp", "idle_after_ns": 50000000, "drift_ratio": 4.0 }
  },
  "rank_fns": [
    { "tenant": 1, "fn": { "algorithm": "constant", "rank": 0 } },
    { "tenant": 2, "fn": { "algorithm": "constant", "rank": 1000 } }
  ],
  "workloads": [ { "flows": { "list": [
    { "tenant": 1, "src_host": 0, "dst_host": 2, "size": 1000000, "start_ns": 0 },
    { "tenant": 2, "src_host": 1, "dst_host": 3, "size": 1000000, "start_ns": 0 }
  ] } } ]
}"#;

#[test]
fn a_tightening_into_a_warning_is_refused_under_deny_warnings() {
    let spec = ScenarioSpec::from_json(TIGHTENED_INTO_A_WARNING).unwrap();
    let run = |deny: bool| {
        let telemetry = Telemetry::enabled();
        let engine = Engine::new()
            .with_telemetry(&telemetry)
            .with_deny_warnings(deny);
        let report = engine.run(&spec).unwrap();
        let version = telemetry.gauge("runtime_transform_version", &[]).get();
        (report, version, telemetry.export_jsonl())
    };

    let (strict, version, export) = run(true);
    assert!(strict.reconfigurations_refused >= 1, "{strict:?}");
    assert_eq!(strict.reconfigurations, 0);
    assert_eq!(version, 1, "the refused policy was deployed");
    let json = report_json(&strict);
    assert_eq!(
        json.get("reconfigurations_refused").and_then(Value::as_u64),
        Some(strict.reconfigurations_refused)
    );
    let refused_event = (export.lines())
        .find(|l| l.contains("\"kind\":\"reconfiguration_refused\""))
        .expect("the refusal is journalled");
    assert!(refused_event.contains("QV-SHARE-BAND"), "{refused_event}");

    // The default gate passes warnings: the tightening deploys as it did
    // before the gate, and the report has no refusal key.
    let (lax, version, _) = run(false);
    assert!(lax.reconfigurations >= 1);
    assert_eq!(lax.reconfigurations_refused, 0);
    assert_eq!(version, 1 + lax.reconfigurations as i64);
    assert!(report_json(&lax).get("reconfigurations_refused").is_none());
}

/// The control plane's observable state: version, snapshot fingerprint
/// and accepted log.
fn state(plane: &ControlPlane) -> (u64, String, String) {
    let snap = plane.snapshot();
    let log = plane.log_value().to_compact();
    (snap.version, snap.fingerprint.clone(), log)
}

/// Would the gate refuse `config`'s live set without `name`?
fn withdrawal_fails_the_strict_gate(config: &DeploymentConfig, name: &str) -> bool {
    let tenants: Vec<_> = (config.tenants.iter())
        .filter(|t| t.name != name)
        .cloned()
        .collect();
    let names: Vec<&str> = tenants.iter().map(|t| t.name.as_str()).collect();
    let policy = Policy::parse(&config.policy).unwrap();
    let Some(policy) = retain_tenants(&policy, &names) else {
        return false; // an empty deployment: nothing to judge
    };
    let candidate = DeploymentConfig {
        tenants,
        policy: policy.to_string(),
        synth: config.synth,
    };
    let joint = candidate.synthesize().expect("a subset synthesizes");
    verify(&joint, &SpecPaths::config()).gate_fails(true)
}

/// The three targets the census judges every generated policy on: the
/// default (a PIFO, the pre-processor at every egress), an 8-queue static
/// strict bank, and PIFOs whose hosts see raw ranks.
fn census_targets() -> [Target; 3] {
    let strict8 = Backend::StrictStatic {
        queues: 8,
        span: RankRange::new(0, 10_000),
    };
    [
        Target::default(),
        Target {
            scheduler: strict8,
            ..Target::default()
        },
        Target {
            scope: PreprocScope::SwitchesOnly,
            ..Target::default()
        },
    ]
}

/// Per target: policies refused at the default gate, refused under
/// `--deny-warnings`, and the findings of each target code.
#[derive(Debug, Default, PartialEq)]
struct Census {
    refused: u32,
    refused_strict: u32,
    strict_queues: u32,
    host_raw: u32,
}

/// A census of withdrawals, as a test: from generated deployments that
/// pass the strict gate, every single-tenant withdrawal is accepted under
/// `--deny-warnings` exactly when its re-synthesis passes the strict gate;
/// a refusal changes nothing. Without `--deny-warnings` every one of them
/// is accepted. Every generated policy is also judged on the three
/// [`census_targets`]: on the default one the gate's report is the
/// verifier's, and the verdict counts on each are pinned.
#[test]
fn every_withdrawal_from_a_strict_deployment_is_gated() {
    let (mut deployments, mut withdrawals, mut refusals) = (0, 0, 0);
    let mut census: [Census; 3] = Default::default();
    for index in 0..800 {
        let config = generate_case(0xF0CC5, index).config;
        let Ok(joint) = config.synthesize() else {
            continue;
        };
        for (target, counts) in census_targets().iter().zip(&mut census) {
            let strict = admit(joint.clone(), target, &SpecPaths::config(), true);
            let report = match &strict {
                Ok(admitted) => admitted.report(),
                Err(refused) => &refused.report,
            };
            if *target == Target::default() {
                let today = verify(&joint, &SpecPaths::config());
                assert_eq!(report.diagnostics, today.diagnostics, "case {index}");
            }
            counts.refused += report.gate_fails(false) as u32;
            counts.refused_strict += strict.is_err() as u32;
            for d in &report.diagnostics {
                counts.strict_queues += (d.code.as_str() == "QV-STRICT-QUEUES") as u32;
                counts.host_raw += (d.code.as_str() == "QV-HOST-RAW") as u32;
            }
        }
        if admit(joint, &Target::default(), &SpecPaths::config(), true).is_err() {
            continue;
        }
        // Bring the whole deployment live, one submission at a time; a
        // deployment whose partial sets the strict gate refuses on the
        // way is not in the sample.
        let cell = Arc::new(SnapshotCell::default());
        let mut plane = ControlPlane::new(&config, true, cell).unwrap();
        let entries: Vec<LogEntry> = (config.tenants.iter())
            .map(|t| LogEntry::Submit(t.clone()))
            .collect();
        let all_live = (config.tenants.iter())
            .all(|t| plane.submit(t.clone()).get("ok").and_then(Value::as_bool) == Some(true));
        if !all_live {
            continue;
        }
        deployments += 1;
        for tenant in &config.tenants {
            withdrawals += 1;
            let mut strict = ControlPlane::replay(&config, true, &entries).unwrap();
            let before = state(&strict);
            let r = strict.withdraw(&tenant.name);
            if withdrawal_fails_the_strict_gate(&config, &tenant.name) {
                refusals += 1;
                assert_eq!(
                    r.get("result").and_then(Value::as_str),
                    Some("rejected"),
                    "case {index}, withdraw {}: {}",
                    tenant.name,
                    r.to_compact()
                );
                assert!(r.get("diagnostics").and_then(Value::as_array).is_some());
                assert!(r.get("effective_config").is_some());
                assert_eq!(state(&strict), before, "a refusal changed the state");
            } else {
                assert_eq!(
                    r.get("result").and_then(Value::as_str),
                    Some("withdrawn"),
                    "case {index}, withdraw {}: {}",
                    tenant.name,
                    r.to_compact()
                );
            }
            let mut lax = ControlPlane::replay(&config, false, &entries).unwrap();
            let r = lax.withdraw(&tenant.name);
            assert_eq!(r.get("ok").and_then(Value::as_bool), Some(true));
        }
    }
    eprintln!("{deployments} deployments, {withdrawals} withdrawals, {refusals} refused");
    eprintln!("{census:?}");
    let pinned = |refused, refused_strict, strict_queues, host_raw| Census {
        refused,
        refused_strict,
        strict_queues,
        host_raw,
    };
    // A generated case has at most five tenants, so an 8-queue bank always
    // gives each strict level its own queue: its verdicts are the
    // default's. Raw-ranked hosts warn on 422 crossing `>>` pairs and move
    // 53 policies from admitted to refused under `--deny-warnings`.
    assert_eq!(
        census,
        [
            pinned(11, 420, 0, 0),
            pinned(11, 420, 0, 0),
            pinned(11, 473, 0, 422),
        ]
    );
    assert!(
        deployments >= 300,
        "only {deployments} deployments in the sample"
    );
    assert!(
        refusals >= 1,
        "no withdrawal was refused: the test is vacuous"
    );
}

/// A runtime re-synthesis is judged on the target of the deployment it
/// replaces: T1 re-declares a range that crosses T2's, which only hosts
/// seeing raw ranks (`switches_only`) invert.
#[test]
fn a_re_synthesis_is_judged_on_its_tokens_target() {
    let specs = vec![
        TenantSpec::new(TenantId(1), "T1", "pFabric", RankRange::new(0, 10)),
        TenantSpec::new(TenantId(2), "T2", "EDF", RankRange::new(100, 200)),
    ];
    let policy = Policy::parse("T1 >> T2").unwrap();
    let synth = SynthConfig::default();
    let joint = qvisor::core::synthesize(&specs, &policy, synth).unwrap();
    let switches_only = Target {
        scope: PreprocScope::SwitchesOnly,
        ..Target::default()
    };
    let token = admit(joint, &switches_only, &SpecPaths::config(), true)
        .expect("T1's raw ranks sit below T2's");
    let adaptation = Adaptation {
        active: vec![TenantId(1), TenantId(2)],
        tightened: Vec::new(),
    };
    let redeclare = |target: Target| {
        let mut adapter = RuntimeAdapter::new(
            specs.clone(),
            policy.clone(),
            synth,
            MonitorConfig::default(),
        )
        .with_gate(target, token.deny_warnings());
        let wider = TenantSpec::new(TenantId(1), "T1", "pFabric", RankRange::new(0, 500));
        assert!(adapter.update_spec(wider));
        let verdict = adapter.apply(&adaptation);
        (verdict, adapter.transform_version())
    };
    let (verdict, version) = redeclare(*token.target());
    let Err(AdaptError::Refused(refused)) = verdict else {
        panic!("a crossing re-declaration deployed on raw-ranked hosts");
    };
    assert_eq!(refused.codes(), ["QV-HOST-RAW"]);
    assert_eq!(version, 1);
    // The same re-declaration deploys where the transform runs everywhere.
    let (verdict, version) = redeclare(Target::default());
    let admitted = verdict.unwrap().expect("a policy remains");
    assert_eq!(*admitted.target(), Target::default());
    assert_eq!(version, 2);
}
