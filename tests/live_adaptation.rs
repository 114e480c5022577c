//! Live runtime adaptation inside the network simulator (§5 "optimizing
//! configurations at runtime"): the event-driven controller runs on a
//! timer, notices that a tenant's observed ranks use only a sliver of its
//! declared range, tightens the range, re-synthesizes, and hot-reloads
//! the pre-processor mid-simulation — restoring quantization granularity
//! (and with it, intra-tenant SRPT) without operator involvement.

use qvisor::core::{
    Backend, MonitorConfig, SynthConfig, TenantSpec, UnknownTenantAction, ViolationAction,
};
use qvisor::netsim::{
    Engine, NewFlow, QvisorSetup, ScenarioSpec, SimConfig, SimReport, Simulation,
};
use qvisor::ranking::{PFabric, RankRange};
use qvisor::sim::{gbps, Nanos, TenantId};
use qvisor::topology::Dumbbell;
use qvisor::transport::SizeBucket;

const T1: TenantId = TenantId(1);

/// One tenant whose spec declares ranks up to 1,000,000 but whose traffic
/// only reaches ~5,000: with 32 quantization levels the whole workload
/// collapses into level 0 (mice can't preempt the elephant) until the
/// adapter tightens the range.
fn run(adaptation: Option<Nanos>) -> SimReport {
    let d = Dumbbell::build(2, gbps(1), gbps(1), Nanos::from_micros(1));
    let specs =
        vec![TenantSpec::new(T1, "T1", "pFabric", RankRange::new(0, 1_000_000)).with_levels(32)];
    let cfg = SimConfig {
        seed: 13,
        horizon: Nanos::from_millis(400),
        scheduler: Backend::Pifo,
        adaptation_interval: adaptation,
        qvisor: Some(QvisorSetup {
            specs,
            policy: "T1".into(),
            synth: SynthConfig::default(),
            unknown: UnknownTenantAction::BestEffort,
            scope: Default::default(),
            monitor: Some(MonitorConfig {
                violation_action: ViolationAction::Clamp,
                idle_after: Nanos::from_millis(50),
                drift_ratio: 4.0,
            }),
        }),
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(d.topology.clone(), cfg).unwrap();
    sim.register_rank_fn(T1, Box::new(PFabric::new(1_000, 1_000_000)));
    // One 5 MB elephant (raw ranks up to 5000)...
    sim.add_flow(NewFlow::new(
        T1,
        d.senders[0],
        d.receivers[0],
        5_000_000,
        Nanos::ZERO,
    ));
    // ...and mice arriving after the first control ticks have had a chance
    // to observe the real distribution.
    for i in 0..15u64 {
        sim.add_flow(NewFlow::new(
            T1,
            d.senders[1],
            d.receivers[0],
            20_000,
            Nanos::from_millis(12 + 2 * i),
        ));
    }
    sim.run()
}

#[test]
fn drift_tightening_restores_srpt_mid_run() {
    let frozen = run(None);
    let adapted = run(Some(Nanos::from_millis(3)));

    assert_eq!(frozen.reconfigurations, 0);
    assert!(
        adapted.reconfigurations >= 1,
        "the controller must have re-synthesized at least once"
    );

    let mice = |r: &SimReport| r.fct.mean_fct_ms(Some(T1), SizeBucket::SMALL).unwrap();
    let (f, a) = (mice(&frozen), mice(&adapted));
    assert!(
        a * 2.0 < f,
        "tightened quantization must revive mouse preemption: \
         frozen {f:.3} ms vs adapted {a:.3} ms"
    );
    // Both runs complete everything.
    assert_eq!(frozen.incomplete_flows, 0);
    assert_eq!(adapted.incomplete_flows, 0);
}

#[test]
fn adaptation_does_not_repropose_every_tick() {
    // The tightened range persists in the adapter: reconfigurations stay
    // bounded (one for the tightening; possibly one more if the observed
    // bound shifts as the elephant drains), not one per 3 ms tick over a
    // 400 ms run.
    let adapted = run(Some(Nanos::from_millis(3)));
    assert!(
        adapted.reconfigurations <= 4,
        "got {} reconfigurations — tightening must not re-propose forever",
        adapted.reconfigurations
    );
}

#[test]
fn adaptation_requires_monitor_and_qvisor() {
    let d = Dumbbell::build(2, gbps(1), gbps(1), Nanos::from_micros(1));
    // No qvisor at all.
    let cfg = SimConfig {
        adaptation_interval: Some(Nanos::from_millis(1)),
        ..SimConfig::default()
    };
    assert!(Simulation::new(d.topology.clone(), cfg).is_err());
    // QVISOR without a monitor.
    let cfg = SimConfig {
        adaptation_interval: Some(Nanos::from_millis(1)),
        qvisor: Some(QvisorSetup::new(
            vec![TenantSpec::new(T1, "T1", "pFabric", RankRange::new(0, 10))],
            "T1",
        )),
        ..SimConfig::default()
    };
    assert!(Simulation::new(d.topology.clone(), cfg).is_err());
}

/// Fig. 2 in the network (`examples/scenarios/fig2_in_network.json`): T1
/// and T2 are active until t1 = 30 ms, then T3. The adapter reclaims the
/// idle tenants' bands twice and the gate refuses nothing; the 5 ms goodput
/// windows show the hand-over.
#[test]
fn fig2_in_network_hands_the_fabric_to_t3_after_t1() {
    let path = format!(
        "{}/examples/scenarios/fig2_in_network.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let spec = ScenarioSpec::from_json(&std::fs::read_to_string(path).unwrap()).unwrap();
    let report = Engine::new().run(&spec).unwrap();
    assert_eq!(report.reconfigurations, 2);
    assert_eq!(report.reconfigurations_refused, 0);
    // `(window end, tenant, bytes)`: the window ending at `at` began 5 ms
    // earlier.
    let window = Nanos::from_millis(5);
    let bytes = |tenants: &[u16], from: Nanos, to: Nanos| -> u64 {
        (report.samples.iter())
            .filter(|&&(at, t, _)| {
                tenants.contains(&t.0) && at.saturating_sub(window) >= from && at <= to
            })
            .map(|&(_, _, b)| b)
            .sum()
    };
    let (t1, t_35, end) = (
        Nanos::from_millis(30),
        Nanos::from_millis(35),
        report.end_time,
    );
    assert_eq!(bytes(&[3], Nanos::ZERO, t1), 0, "T3 is silent before t1");
    assert_eq!(bytes(&[1, 2], t_35, end), 0, "T1 and T2 are done by 35 ms");
    assert!(bytes(&[1], Nanos::ZERO, t1) > 0 && bytes(&[2], Nanos::ZERO, t1) > 0);
    assert!(bytes(&[3], t_35, end) > 0);
}
