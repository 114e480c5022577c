//! Bit-reproducibility: identical seeds must give identical simulations,
//! different seeds different ones — across the full stack (workload
//! generation, ECMP, fault injection, QVISOR).

use qvisor::core::{Backend, SynthConfig, TenantSpec, UnknownTenantAction};
use qvisor::netsim::{QvisorSetup, SimConfig, Simulation};
use qvisor::ranking::{PFabric, RankRange};
use qvisor::sim::{Nanos, SimRng, TenantId};
use qvisor::telemetry::Telemetry;
use qvisor::topology::{LeafSpine, LeafSpineConfig};
use qvisor::transport::SizeBucket;
use qvisor::workloads::{EmpiricalCdf, PoissonFlowGen};

fn fingerprint(seed: u64) -> (u64, u64, Option<f64>, u64) {
    let (f, _) = world(seed, Telemetry::disabled());
    f
}

fn world(seed: u64, telemetry: Telemetry) -> ((u64, u64, Option<f64>, u64), String) {
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
        telemetry,
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(fabric.topology.clone(), cfg).unwrap();
    sim.register_rank_fn(TenantId(1), Box::new(PFabric::default_datacenter()));
    let sizes = EmpiricalCdf::web_search().scaled(1, 20);
    let flows = PoissonFlowGen {
        tenant: TenantId(1),
        hosts: &hosts,
        sizes: &sizes,
        rate_flows_per_sec: 20_000.0,
    }
    .generate(150, &mut SimRng::seed_from(seed ^ 0xABCD));
    for f in &flows {
        sim.add_generated(f);
    }
    let r = sim.run();
    (
        (
            r.events,
            r.end_time.as_nanos(),
            r.fct.mean_fct_ms(None, SizeBucket::ALL),
            r.tenant(TenantId(1)).dropped_pkts + r.random_losses,
        ),
        format!("{r:?}"),
    )
}

#[test]
fn same_seed_same_world() {
    assert_eq!(fingerprint(7), fingerprint(7));
}

#[test]
fn different_seed_different_world() {
    let a = fingerprint(7);
    let b = fingerprint(8);
    assert_ne!(a, b, "distinct seeds should diverge: {a:?}");
}

/// Observing the run must not change it: with telemetry enabled the full
/// [`qvisor::netsim::SimReport`] (compared byte-for-byte via `Debug`) is
/// identical to the telemetry-off run, and the registry actually saw
/// traffic — proving instrumentation is on yet side-effect-free.
///
/// It proves a second equivalence on the way. Telemetry wraps every port
/// queue in an `InstrumentedQueue` (`PortQueue::Observed`); a packet
/// offered to an idle port goes around the queue either way, and the
/// wrapper reports the enqueue and dequeue that would have happened. So
/// on == off also says the observed port and the bare port are the same
/// state machine — here on a lightly loaded fabric, below on an incast.
#[test]
fn telemetry_does_not_perturb_the_world() {
    let telemetry = Telemetry::enabled();
    let (on, on_report) = world(7, telemetry.clone());
    let (off, off_report) = world(7, Telemetry::disabled());
    assert_eq!(on, off, "telemetry changed the simulation fingerprint");
    assert_eq!(
        on_report, off_report,
        "telemetry changed the simulation report"
    );
    if telemetry.is_enabled() {
        // Feature "enabled" compiled in: the registry must have observed
        // the same world the report describes, not an empty one.
        let sent = telemetry
            .counter("net_sent_pkts", &[("tenant", "T1")])
            .get();
        assert!(sent > 0, "enabled telemetry recorded nothing");
    }
}

/// The same on a contended world — `examples/scenarios/incast.json`, seven
/// senders into one receiver — where most packets queue, some are
/// priority-dropped, and a port is often freed in the very instant the
/// next packet arrives.
#[test]
fn telemetry_does_not_perturb_a_contended_world() {
    use qvisor::netsim::scenario::{Engine, ScenarioSpec};
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/scenarios/incast.json"
    );
    let spec = ScenarioSpec::from_json(&std::fs::read_to_string(path).unwrap()).unwrap();
    let telemetry = Telemetry::enabled();
    let on = Engine::new().with_telemetry(&telemetry).run(&spec).unwrap();
    let off = Engine::new().run(&spec).unwrap();
    assert_eq!(on, off, "telemetry changed the incast report");
    let dropped: u64 = off.tenants.values().map(|t| t.dropped_pkts).sum();
    assert!(dropped > 0, "the incast should overflow its buffer");
}
