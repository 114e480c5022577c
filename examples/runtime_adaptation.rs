//! Runtime adaptation: the paper's Fig. 2 timeline.
//!
//! Until `t1`, tenants T1 (pFabric) and T2 (EDF) are active; then both go
//! idle and the background tenant T3 (FQ) starts transmitting. The runtime
//! monitor notices the activity shift, the adapter re-synthesizes the
//! joint policy over the active set, the deployment gate admits it, and
//! the pre-processor is reloaded with what it admitted — the SDN-style
//! reaction loop sketched in §2 (Idea 2). Idle bands are reclaimed: the
//! joint rank span shrinks, so a commodity switch needs fewer
//! strict-priority queues (§3.4). A tenant emitting ranks outside its
//! declared range is clamped on the way.
//!
//! The same timeline then runs in the network
//! (`examples/scenarios/fig2_in_network.json`, live adaptation on a 2×4-host
//! leaf-spine), and the per-tenant goodput table reproduces Fig. 2's
//! traffic-volume curves. Every number printed is simulated, so the output
//! is the recorded artifact:
//!
//! `cargo run --release --example runtime_adaptation > fig2_timeline.txt`

use qvisor::core::{
    admit, synthesize, MonitorConfig, Policy, PreProcessor, RuntimeAdapter, RuntimeMonitor,
    SpecPaths, SynthConfig, Target, TenantSpec, UnknownTenantAction, ViolationAction,
};
use qvisor::netsim::{Engine, ScenarioSpec};
use qvisor::ranking::RankRange;
use qvisor::sim::{FlowId, Nanos, NodeId, Packet, SimRng, TenantId};

fn packet(tenant: u16, rank: u64, at: Nanos) -> Packet {
    let mut p = Packet::data(
        FlowId(tenant as u64),
        TenantId(tenant),
        0,
        1500,
        NodeId(0),
        NodeId(1),
        rank,
        at,
    );
    p.txf_rank = rank;
    p
}

fn main() {
    control_plane_timeline();
    println!("\n=== in-network timeline (2x4-host leaf-spine, live adaptation) ===");
    in_network_timeline();
}

/// The monitor/adapter state machine driven directly with synthetic packet
/// observations (no simulator in the loop).
fn control_plane_timeline() {
    let specs = vec![
        TenantSpec::new(TenantId(1), "T1", "pFabric", RankRange::new(0, 100_000)).with_levels(256),
        TenantSpec::new(TenantId(2), "T2", "EDF", RankRange::new(0, 10_000)).with_levels(64),
        TenantSpec::new(TenantId(3), "T3", "FQ", RankRange::new(0, 1_000)).with_levels(32),
    ];
    let policy = Policy::parse("T1 + T2 >> T3").unwrap();
    let synth_cfg = SynthConfig::default();
    let monitor_cfg = MonitorConfig {
        violation_action: ViolationAction::Clamp,
        idle_after: Nanos::from_millis(5),
        drift_ratio: 4.0,
    };

    // Initial deployment over the full tenant population, through the
    // deployment gate.
    let joint = synthesize(&specs, &policy, synth_cfg).unwrap();
    let deployed =
        admit(joint, &Target::default(), &SpecPaths::config(), false).expect("the policy deploys");
    assert!(deployed.report().guarantees_hold());
    let joint = deployed.joint();
    let mut pre = PreProcessor::new(joint, UnknownTenantAction::BestEffort);
    let mut monitor = RuntimeMonitor::new(&specs, monitor_cfg);
    let mut adapter = RuntimeAdapter::new(specs.clone(), policy, synth_cfg, monitor_cfg);
    println!("t=0        deploy over {{T1, T2, T3}} (policy T1 + T2 >> T3)");
    println!("           joint span {}", joint.output_span());

    // Phase A (t < t1): T1 and T2 transmit.
    let mut rng = SimRng::seed_from(1);
    let t1_moment = Nanos::from_millis(10);
    for i in 0..20_000u64 {
        let at = Nanos::from_micros(i / 2);
        let (tenant, rank) = if i % 2 == 0 {
            (1u16, rng.below(90_000))
        } else {
            (2u16, rng.below(9_000))
        };
        let mut p = packet(tenant, rank, at);
        monitor.observe(&mut p, at);
        pre.process(&mut p);
    }
    // One adversarial packet: T2 claims a rank far above its declared
    // range, and the monitor clamps it into the range.
    let t_adv = Nanos::from_micros(9_999);
    let mut evil = packet(2, 5_000_000, t_adv);
    monitor.observe(&mut evil, t_adv);
    assert_eq!(evil.rank, 10_000, "clamped to T2's declared maximum");
    assert_eq!(monitor.violations(TenantId(2)), 1);

    // Control-plane tick mid-phase-A. T3 has not transmitted yet, so a
    // proposal shrinking the active set to {T1, T2} is the expected
    // steady-state (its bands would be reclaimed); we keep the full
    // deployment because T3 is *contracted*, just idle — a policy choice.
    let tick_a = Nanos::from_millis(9);
    match adapter.propose(&monitor, tick_a) {
        Some(a) => println!(
            "t={tick_a}   proposal: active {:?} (T3 contracted but idle; deferred)",
            a.active
        ),
        None => println!("t={tick_a}   no change"),
    }

    // Phase B (t >= t1): T1/T2 stop, T3 starts.
    for i in 0..20_000u64 {
        let at = t1_moment + Nanos::from_micros(i / 2);
        let mut p = packet(3, rng.below(1_000), at);
        monitor.observe(&mut p, at);
        pre.process(&mut p);
    }

    // Control-plane tick after t1, once T1/T2 have been idle past the
    // window while T3 is still transmitting. The adapter re-synthesizes
    // through the same gate, and the pre-processor deploys what it admitted.
    let tick_b = t1_moment + Nanos::from_millis(12);
    let proposal = adapter
        .propose(&monitor, tick_b)
        .expect("activity shift must be detected");
    println!(
        "t={tick_b}  proposal: active {:?}, tightened {:?}",
        proposal.active, proposal.tightened
    );
    let redeployed = adapter
        .apply(&proposal)
        .expect("re-synthesis passes the gate")
        .expect("T3 remains");
    assert!(redeployed.report().guarantees_hold());
    pre.reload(&redeployed);
    let new_joint = redeployed.joint();

    let before = joint.output_span();
    let after = new_joint.output_span();
    println!(
        "           joint span {before} -> {after} ({}x compaction)",
        before.width() / after.width().max(1)
    );
    println!(
        "           T3 best rank: {} -> {}",
        joint.chain(TenantId(3)).unwrap().apply(0),
        new_joint.chain(TenantId(3)).unwrap().apply(0)
    );
    println!("\nFig. 2's t1 transition handled: idle bands reclaimed, guarantees re-verified.");
}

/// The same timeline in the network: per-tenant goodput per 5 ms window
/// with live adaptation on.
fn in_network_timeline() {
    let spec = ScenarioSpec::from_json(include_str!("scenarios/fig2_in_network.json"))
        .expect("the Fig. 2 scenario parses");
    let r = Engine::new().run(&spec).expect("the Fig. 2 scenario runs");
    println!(
        "{:>10} {:>12} {:>12} {:>12}",
        "t (ms)", "T1 (Mbps)", "T2 (Mbps)", "T3 (Mbps)"
    );
    let interval = Nanos::from_millis(5);
    let mut windows: std::collections::BTreeMap<u64, [f64; 3]> = Default::default();
    for t in [TenantId(1), TenantId(2), TenantId(3)] {
        for (at, bps) in r.goodput_series_bps(t, interval) {
            windows.entry(at.as_nanos()).or_insert([0.0; 3])[(t.0 - 1) as usize] = bps / 1e6;
        }
    }
    for (at, row) in &windows {
        println!(
            "{:>10.1} {:>12.0} {:>12.0} {:>12.0}",
            *at as f64 / 1e6,
            row[0],
            row[1],
            row[2]
        );
    }
    println!(
        "\nreconfigurations during the run: {} (T1/T2 bands reclaimed after t1=30ms)",
        r.reconfigurations
    );
}
