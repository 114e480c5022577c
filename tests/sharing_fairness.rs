//! The `+` operator: do share groups actually share the bottleneck fairly,
//! and do weights bias the split?
//!
//! Sharing is exercised with *closed-loop* traffic (reliable elephants
//! ranked by byte-count fair queueing): a tenant receiving less service
//! acknowledges less, its virtual clock advances slower, its next packets
//! rank better — the self-balancing loop real FQ relies on. (Open-loop
//! lockstep CBR has no such feedback and any consistent tie-break skews
//! it; that behaviour is pinned in `open_loop_share_has_no_feedback`.)

use qvisor::core::{Backend, SynthConfig, TenantSpec, UnknownTenantAction};
use qvisor::netsim::{NewCbr, NewFlow, QvisorSetup, SimConfig, SimReport, Simulation};
use qvisor::ranking::{ByteCountFq, RankRange};
use qvisor::sim::{gbps, jain_fairness, Nanos, TenantId};
use qvisor::topology::Dumbbell;

const T1: TenantId = TenantId(1);
const T2: TenantId = TenantId(2);

const ELEPHANT: u64 = 20_000_000; // 20 MB: never finishes within the horizon

fn specs() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new(T1, "T1", "FQ", RankRange::new(0, 14_000)).with_levels(64),
        TenantSpec::new(T2, "T2", "FQ", RankRange::new(0, 14_000)).with_levels(64),
    ]
}

/// One 20 MB elephant per tenant through a shared 1 Gbps bottleneck,
/// measured over a fixed 120 ms window.
fn run(policy: &str) -> SimReport {
    let d = Dumbbell::build(2, gbps(1), gbps(1), Nanos::from_micros(1));
    let cfg = SimConfig {
        seed: 3,
        horizon: Nanos::from_millis(120),
        scheduler: Backend::Pifo,
        qvisor: Some(QvisorSetup {
            specs: specs(),
            policy: policy.to_string(),
            synth: SynthConfig::default(),
            unknown: UnknownTenantAction::BestEffort,
            scope: Default::default(),
            monitor: None,
        }),
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(d.topology.clone(), cfg).unwrap();
    sim.register_rank_fn(T1, Box::new(ByteCountFq::new(1_460, 14_000)));
    sim.register_rank_fn(T2, Box::new(ByteCountFq::new(1_460, 14_000)));
    for (tenant, i) in [(T1, 0), (T2, 1)] {
        sim.add_flow(NewFlow::new(
            tenant,
            d.senders[i],
            d.receivers[i],
            ELEPHANT,
            Nanos::ZERO,
        ));
    }
    sim.run()
}

fn bytes(r: &SimReport) -> (f64, f64) {
    (
        r.tenant(T1).delivered_bytes as f64,
        r.tenant(T2).delivered_bytes as f64,
    )
}

#[test]
fn share_operator_splits_evenly() {
    let r = run("T1 + T2");
    let (b1, b2) = bytes(&r);
    let jain = jain_fairness(&[b1, b2]).unwrap();
    assert!(
        jain > 0.99,
        "equal share must be near-perfectly fair: {b1} vs {b2} (Jain {jain:.4})"
    );
    // The bottleneck was saturated: combined goodput near 1 Gbps.
    let total_bps = (b1 + b2) * 8.0 / r.end_time.as_secs_f64();
    assert!(
        total_bps > 0.85e9,
        "bottleneck should be ~saturated, got {total_bps:.2e}"
    );
}

#[test]
fn strict_operator_starves_the_loser() {
    let r = run("T1 >> T2");
    let (b1, b2) = bytes(&r);
    assert!(
        b1 > b2 * 3.0,
        "strict priority should skew the split hard: {b1} vs {b2}"
    );
}

#[test]
fn weighted_share_biases_the_split() {
    let r = run("T1:3 + T2");
    let (b1, b2) = bytes(&r);
    let ratio = b1 / b2;
    assert!(
        (1.8..5.0).contains(&ratio),
        "weight 3:1 should bias the split toward ~3, got {ratio:.2} ({b1} vs {b2})"
    );
}

#[test]
fn preference_sits_between_share_and_strict() {
    let skew = |r: &SimReport| {
        let (b1, b2) = bytes(r);
        b1 / b2.max(1.0)
    };
    let s_share = skew(&run("T1 + T2"));
    let s_pref = skew(&run("T1 > T2"));
    let s_strict = skew(&run("T1 >> T2"));
    assert!(
        s_share <= s_pref && s_pref <= s_strict,
        "preference must sit between sharing ({s_share:.2}) and strict \
         ({s_strict:.2}); got {s_pref:.2}"
    );
    assert!(
        s_pref > s_share * 1.1,
        "preference must bias visibly: share {s_share:.2}, pref {s_pref:.2}"
    );
}

#[test]
fn open_loop_share_has_no_feedback() {
    // Pin the open-loop behaviour: two lockstep CBR floods under `+` do
    // NOT equalize (no feedback loop), unlike the closed-loop case above.
    // This documents why sharing semantics assume responsive traffic.
    let d = Dumbbell::build(2, gbps(1), gbps(1), Nanos::from_micros(1));
    let cfg = SimConfig {
        seed: 3,
        horizon: Nanos::from_millis(60),
        scheduler: Backend::Pifo,
        qvisor: Some(QvisorSetup {
            specs: specs(),
            policy: "T1 + T2".into(),
            synth: SynthConfig::default(),
            unknown: UnknownTenantAction::BestEffort,
            scope: Default::default(),
            monitor: None,
        }),
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(d.topology.clone(), cfg).unwrap();
    sim.register_rank_fn(T1, Box::new(ByteCountFq::new(1_500, 14_000)));
    sim.register_rank_fn(T2, Box::new(ByteCountFq::new(1_500, 14_000)));
    for (tenant, i) in [(T1, 0), (T2, 1)] {
        sim.add_cbr(NewCbr {
            tenant,
            src: d.senders[i],
            dst: d.receivers[i],
            rate_bps: 800_000_000,
            pkt_size: 1_500,
            start: Nanos::ZERO,
            stop: Nanos::from_millis(50),
            deadline_offset: Nanos::from_millis(50),
        });
    }
    let r = sim.run();
    let (b1, b2) = bytes(&r);
    // Both deliver something, but drops concentrate on one side.
    assert!(b1 > 0.0 && b2 > 0.0);
    assert!(
        r.tenant(T1).dropped_pkts + r.tenant(T2).dropped_pkts > 0,
        "overload must drop"
    );
}
