//! Network-level guarantees: does the synthesized policy actually protect
//! tenants once packets flow through a congested fabric?

use qvisor::core::{Backend, SynthConfig, TenantSpec, UnknownTenantAction};
use qvisor::netsim::{NewCbr, NewFlow, QvisorSetup, SimConfig, SimReport, Simulation};
use qvisor::ranking::{Edf, PFabric, RankRange};
use qvisor::sim::{gbps, Nanos, TenantId};
use qvisor::topology::Dumbbell;
use qvisor::transport::SizeBucket;

const T1: TenantId = TenantId(1);
const T2: TenantId = TenantId(2);

/// Shared scenario: T1 sends short pFabric flows over a bottleneck that T2
/// floods with high-priority-looking EDF datagrams (tight deadlines =
/// near-zero raw ranks, which naively beat everything).
fn run(policy: Option<&str>, with_t2: bool) -> SimReport {
    let d = Dumbbell::build(4, gbps(1), gbps(1), Nanos::from_micros(1));
    let mut cfg = SimConfig {
        seed: 11,
        horizon: Nanos::from_millis(200),
        scheduler: Backend::Pifo,
        ..SimConfig::default()
    };
    if let Some(p) = policy {
        let specs = vec![
            TenantSpec::new(T1, "T1", "pFabric", RankRange::new(0, 200)).with_levels(64),
            TenantSpec::new(T2, "T2", "EDF", RankRange::new(0, 100)).with_levels(16),
        ];
        // Note the clash the paper describes (§2): raw EDF ranks (~100)
        // are numerically lower than most raw pFabric ranks (up to 200),
        // so naive sharing starves T1 — QVISOR must fix it.
        cfg.qvisor = Some(QvisorSetup {
            specs,
            policy: p.to_string(),
            synth: SynthConfig::default(),
            unknown: UnknownTenantAction::BestEffort,
            scope: Default::default(),
            monitor: None,
        });
    }
    let mut sim = Simulation::new(d.topology.clone(), cfg).unwrap();
    sim.register_rank_fn(T1, Box::new(PFabric::new(1_000, 200)));
    sim.register_rank_fn(T2, Box::new(Edf::new(Nanos::from_micros(1), 100)));

    // T1: a train of 200 KB flows crossing the bottleneck (raw pFabric
    // ranks run up to 200).
    for i in 0..40u64 {
        sim.add_flow(NewFlow::new(
            T1,
            d.senders[(i % 2) as usize],
            d.receivers[(i % 2) as usize],
            200_000,
            Nanos::from_millis(2 * i),
        ));
    }
    // T2: two datagram floods with 100 us deadlines (raw ranks ~100,
    // numerically *better* than most of T1's packets).
    if with_t2 {
        for s in 2..4 {
            sim.add_cbr(NewCbr {
                tenant: T2,
                src: d.senders[s],
                dst: d.receivers[s],
                rate_bps: 350_000_000,
                pkt_size: 1_500,
                start: Nanos::ZERO,
                stop: Nanos::from_millis(45),
                deadline_offset: Nanos::from_micros(100),
            });
        }
    }
    sim.run()
}

fn t1_fct(r: &SimReport) -> f64 {
    r.fct.mean_fct_ms(Some(T1), SizeBucket::ALL).unwrap()
}

#[test]
fn strict_priority_isolates_t1_from_the_flood() {
    let ideal = run(None, false); // T1 alone
    let naive = run(None, true); // naive shared PIFO
    let qvisor = run(Some("T1 >> T2"), true); // strict isolation

    let (ideal, naive, qvisor) = (t1_fct(&ideal), t1_fct(&naive), t1_fct(&qvisor));
    // The naive PIFO lets T2's numerically-lower EDF ranks starve T1.
    assert!(
        naive > ideal * 1.5,
        "naive sharing should hurt T1: ideal {ideal:.3} ms, naive {naive:.3} ms"
    );
    // QVISOR's strict policy restores near-ideal FCTs.
    assert!(
        qvisor < ideal * 1.5,
        "QVISOR T1>>T2 should be near-ideal: ideal {ideal:.3} ms, qvisor {qvisor:.3} ms"
    );
    assert!(qvisor < naive, "isolation must beat naive sharing");
}

#[test]
fn inverted_policy_prioritizes_t2_instead() {
    // With T2 >> T1 the flood is *supposed* to win: T1's FCT degrades
    // and T2's deadline hit rate goes to ~100%.
    let qv_t2_first = run(Some("T2 >> T1"), true);
    let qv_t1_first = run(Some("T1 >> T2"), true);
    assert!(t1_fct(&qv_t2_first) > t1_fct(&qv_t1_first));
    let hit = qv_t2_first.tenant(T2).deadline_hit_rate().unwrap();
    assert!(
        hit > 0.95,
        "prioritized T2 should meet deadlines, got {hit}"
    );
}

#[test]
fn all_flows_complete_under_every_policy() {
    for policy in [None, Some("T1 >> T2"), Some("T2 >> T1"), Some("T1 + T2")] {
        let r = run(policy, true);
        assert_eq!(
            r.incomplete_flows, 0,
            "reliable flows must finish under {policy:?}"
        );
        assert_eq!(r.fct.count(Some(T1)), 40);
    }
}
