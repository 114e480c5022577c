//! Soak test: every feature enabled at once on one long mixed run —
//! QVISOR with monitor and live adaptation, heterogeneous host/switch
//! schedulers, three tenants (reliable + CBR), fault injection — checking
//! the global invariants that must survive any feature interaction.

use qvisor::core::{
    Backend, MonitorConfig, SynthConfig, TenantSpec, UnknownTenantAction, ViolationAction,
};
use qvisor::netsim::{NewCbr, NewFlow, QvisorSetup, SimConfig, Simulation};
use qvisor::ranking::{ByteCountFq, Edf, PFabric, RankRange};
use qvisor::sim::{Nanos, SimRng, TenantId};
use qvisor::topology::{LeafSpine, LeafSpineConfig};
use qvisor::workloads::{EmpiricalCdf, PoissonFlowGen};

const T1: TenantId = TenantId(1);
const T2: TenantId = TenantId(2);
const T3: TenantId = TenantId(3);
const T_UNKNOWN: TenantId = TenantId(9); // no spec: exercises BestEffort

#[test]
fn everything_on_at_once() {
    let fabric = LeafSpine::build(&LeafSpineConfig::small());
    let hosts = fabric.all_hosts();
    let specs = vec![
        TenantSpec::new(T1, "T1", "pFabric", RankRange::new(0, 100_000)).with_levels(256),
        TenantSpec::new(T2, "T2", "EDF", RankRange::new(0, 500)).with_levels(64),
        TenantSpec::new(T3, "T3", "FQ", RankRange::new(0, 10_000)).with_levels(64),
    ];
    let cfg = SimConfig {
        seed: 99,
        random_loss: 0.01,
        horizon: Nanos::from_millis(250),
        scheduler: Backend::Pifo,
        host_scheduler: Some(Backend::Fifo),
        adaptation_interval: Some(Nanos::from_millis(10)),
        qvisor: Some(QvisorSetup {
            specs,
            policy: "T1 >> T2 + T3".into(),
            synth: SynthConfig::default(),
            unknown: UnknownTenantAction::BestEffort,
            scope: Default::default(),
            monitor: Some(MonitorConfig {
                violation_action: ViolationAction::Clamp,
                idle_after: Nanos::from_millis(30),
                drift_ratio: 4.0,
            }),
        }),
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(fabric.topology.clone(), cfg).unwrap();
    sim.register_rank_fn(T1, Box::new(PFabric::default_datacenter()));
    sim.register_rank_fn(T2, Box::new(Edf::default_datacenter()));
    sim.register_rank_fn(T3, Box::new(ByteCountFq::new(1_460, 10_000)));
    // T_UNKNOWN has no rank fn and no spec: rank 0, best-effort band.

    let rng = SimRng::seed_from(99);
    let sizes = EmpiricalCdf::web_search().scaled(1, 20);
    let flows = PoissonFlowGen {
        tenant: T1,
        hosts: &hosts,
        sizes: &sizes,
        rate_flows_per_sec: 10_000.0,
    }
    .generate(200, &mut rng.derive(1));
    let mut offered_t1 = 0u64;
    for f in &flows {
        offered_t1 += f.size;
        sim.add_generated(f);
    }
    for i in 0..3u64 {
        sim.add_cbr(NewCbr {
            tenant: T2,
            src: hosts[i as usize],
            dst: hosts[hosts.len() - 1 - i as usize],
            rate_bps: 150_000_000,
            pkt_size: 1_500,
            start: Nanos::ZERO,
            stop: Nanos::from_millis(60),
            deadline_offset: Nanos::from_micros(500),
        });
    }
    for i in 0..2u64 {
        sim.add_flow(NewFlow::new(
            T3,
            hosts[(3 + i) as usize],
            hosts[((6 + i) % 8) as usize],
            1_000_000,
            Nanos::from_millis(5 * i),
        ));
        sim.add_flow(NewFlow::new(
            T_UNKNOWN,
            hosts[(5 + i) as usize],
            hosts[((2 + i) % 8) as usize],
            100_000,
            Nanos::from_millis(3 * i),
        ));
    }

    let r = sim.run();

    // Invariant 1: everything reliable completes despite loss + adaptation.
    assert_eq!(r.incomplete_flows, 0, "all reliable flows must finish");
    assert_eq!(r.fct.count(Some(T1)), 200);
    assert_eq!(r.fct.count(Some(T3)), 2);
    assert_eq!(
        r.fct.count(Some(T_UNKNOWN)),
        2,
        "best-effort still delivers"
    );

    // Invariant 2: byte conservation per reliable tenant.
    assert_eq!(r.tenant(T1).delivered_bytes, offered_t1);
    assert_eq!(r.tenant(T3).delivered_bytes, 2 * 1_000_000);
    assert_eq!(r.tenant(T_UNKNOWN).delivered_bytes, 2 * 100_000);

    // Invariant 3: accounting is consistent — per-tenant payload drops are
    // covered by per-node drops (which also include ACKs/fault injection).
    let node_total: u64 = r.node_drops.values().sum();
    let tenant_total: u64 = [T1, T2, T3, T_UNKNOWN]
        .iter()
        .map(|&t| r.tenant(t).dropped_pkts)
        .sum();
    assert!(node_total >= tenant_total);
    assert!(node_total >= r.random_losses);

    // Invariant 4: the features actually fired.
    assert!(r.random_losses > 0, "fault injection ran");
    assert!(
        r.reconfigurations >= 1,
        "drift tightening should trigger (T1 uses a sliver of [0,100000])"
    );
    assert!(
        r.tenant(T2).deadline_met + r.tenant(T2).deadline_missed > 0,
        "deadline accounting ran"
    );

    // Invariant 5: determinism, all features on.
    // (A second identical run must agree exactly.)
    // -- rebuilt inline to avoid factoring the whole setup into a closure.
    let events_first = r.events;
    let fct_first = r
        .fct
        .mean_fct_ms(Some(T1), qvisor::transport::SizeBucket::ALL);
    let again = {
        let mut sim = Simulation::new(
            fabric.topology.clone(),
            SimConfig {
                seed: 99,
                random_loss: 0.01,
                horizon: Nanos::from_millis(250),
                scheduler: Backend::Pifo,
                host_scheduler: Some(Backend::Fifo),
                adaptation_interval: Some(Nanos::from_millis(10)),
                qvisor: Some(QvisorSetup {
                    specs: vec![
                        TenantSpec::new(T1, "T1", "pFabric", RankRange::new(0, 100_000))
                            .with_levels(256),
                        TenantSpec::new(T2, "T2", "EDF", RankRange::new(0, 500)).with_levels(64),
                        TenantSpec::new(T3, "T3", "FQ", RankRange::new(0, 10_000)).with_levels(64),
                    ],
                    policy: "T1 >> T2 + T3".into(),
                    synth: SynthConfig::default(),
                    unknown: UnknownTenantAction::BestEffort,
                    scope: Default::default(),
                    monitor: Some(MonitorConfig {
                        violation_action: ViolationAction::Clamp,
                        idle_after: Nanos::from_millis(30),
                        drift_ratio: 4.0,
                    }),
                }),
                ..SimConfig::default()
            },
        )
        .unwrap();
        sim.register_rank_fn(T1, Box::new(PFabric::default_datacenter()));
        sim.register_rank_fn(T2, Box::new(Edf::default_datacenter()));
        sim.register_rank_fn(T3, Box::new(ByteCountFq::new(1_460, 10_000)));
        let rng = SimRng::seed_from(99);
        let flows = PoissonFlowGen {
            tenant: T1,
            hosts: &hosts,
            sizes: &sizes,
            rate_flows_per_sec: 10_000.0,
        }
        .generate(200, &mut rng.derive(1));
        for f in &flows {
            sim.add_generated(f);
        }
        for i in 0..3u64 {
            sim.add_cbr(NewCbr {
                tenant: T2,
                src: hosts[i as usize],
                dst: hosts[hosts.len() - 1 - i as usize],
                rate_bps: 150_000_000,
                pkt_size: 1_500,
                start: Nanos::ZERO,
                stop: Nanos::from_millis(60),
                deadline_offset: Nanos::from_micros(500),
            });
        }
        for i in 0..2u64 {
            sim.add_flow(NewFlow::new(
                T3,
                hosts[(3 + i) as usize],
                hosts[((6 + i) % 8) as usize],
                1_000_000,
                Nanos::from_millis(5 * i),
            ));
            sim.add_flow(NewFlow::new(
                T_UNKNOWN,
                hosts[(5 + i) as usize],
                hosts[((2 + i) % 8) as usize],
                100_000,
                Nanos::from_millis(3 * i),
            ));
        }
        sim.run()
    };
    assert_eq!(again.events, events_first);
    assert_eq!(
        again
            .fct
            .mean_fct_ms(Some(T1), qvisor::transport::SizeBucket::ALL),
        fct_first
    );
}
