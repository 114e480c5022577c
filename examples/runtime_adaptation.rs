//! Runtime adaptation: the paper's Fig. 2 timeline.
//!
//! Until `t1`, tenants T1 (pFabric) and T2 (EDF) are active; then both go
//! idle and the background tenant T3 (FQ) starts transmitting. The runtime
//! monitor notices the activity shift, the adapter re-synthesizes the
//! joint policy over the active set, the deployment gate admits it, and
//! the pre-processor is reloaded with what it admitted —
//! the SDN-style reaction loop sketched in §2 (Idea 2). We also show the
//! adversarial-rank defence: a tenant emitting ranks outside its declared
//! range gets clamped.
//!
//! Run with: `cargo run --example runtime_adaptation`

use qvisor::core::{
    admit, synthesize, MonitorConfig, Policy, PreProcessor, RuntimeAdapter, RuntimeMonitor,
    SpecPaths, SynthConfig, Target, TenantSpec, UnknownTenantAction, ViolationAction,
};
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
    let specs = vec![
        TenantSpec::new(TenantId(1), "T1", "pFabric", RankRange::new(0, 100_000)).with_levels(32),
        TenantSpec::new(TenantId(2), "T2", "EDF", RankRange::new(0, 10_000)).with_levels(32),
        TenantSpec::new(TenantId(3), "T3", "FQ", RankRange::new(0, 1_000)).with_levels(16),
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
    let joint = deployed.joint();
    let mut pre = PreProcessor::new(joint, UnknownTenantAction::BestEffort);
    let mut monitor = RuntimeMonitor::new(&specs, monitor_cfg);
    let mut adapter = RuntimeAdapter::new(specs.clone(), policy, synth_cfg, monitor_cfg);

    println!("=== initial deployment (T1 + T2 >> T3) ===");
    println!("{}", deployed.report());

    // Phase 1 (t < t1): T1 and T2 transmit.
    let mut rng = SimRng::seed_from(5);
    for i in 0..2_000u64 {
        let at = Nanos::from_micros(i);
        let mut p = packet(1 + (i % 2) as u16, rng.below(9_000), at);
        monitor.observe(&mut p, at);
        pre.process(&mut p);
    }
    // One adversarial burst: T2 claims ranks far above its declared range.
    let t_adv = Nanos::from_micros(2_000);
    let mut evil = packet(2, 5_000_000, t_adv);
    monitor.observe(&mut evil, t_adv);
    println!(
        "adversarial T2 rank 5000000 clamped to {} (violations: {})",
        evil.rank,
        monitor.violations(TenantId(2))
    );

    // Phase 2 (t >= t1): T1/T2 stop; T3 starts.
    let t1_moment = Nanos::from_millis(3);
    for i in 0..2_000u64 {
        let at = t1_moment + Nanos::from_micros(i * 5);
        let mut p = packet(3, rng.below(1_001), at);
        monitor.observe(&mut p, at);
        pre.process(&mut p);
    }

    // Control-plane tick well after t1: T1/T2 are idle now.
    let now = t1_moment + Nanos::from_millis(11);
    match adapter.propose(&monitor, now) {
        Some(adaptation) => {
            println!("\n=== adaptation proposed at {now} ===");
            println!("active tenants : {:?}", adaptation.active);
            for (t, range) in &adaptation.tightened {
                println!("tightened      : {t} -> {range}");
            }
            // The adapter re-synthesizes through the same gate.
            let redeployed = adapter
                .apply(&adaptation)
                .expect("re-synthesis passes the gate")
                .expect("active set is non-empty");
            pre.reload(&redeployed);
            println!("\n=== re-synthesized deployment ===");
            println!("{}", redeployed.report());
            let new_joint = redeployed.joint();
            // T3 now owns the top of the rank space.
            let before = joint.chain(TenantId(3)).unwrap().apply(0);
            let after = new_joint.chain(TenantId(3)).unwrap().apply(0);
            println!(
                "T3's best rank moved from {before} to {after}: the idle \
                 tenants' bands were reclaimed."
            );
        }
        None => println!("no adaptation needed (unexpected in this scenario)"),
    }
}
