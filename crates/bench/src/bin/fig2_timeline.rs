//! Regenerates the paper's Fig. 2 scenario quantitatively: a data-center
//! workload timeline where tenants T1 (interactive/pFabric) and T2
//! (deadline/EDF) are active until `t1`, then go idle while T3
//! (background/FQ) starts. The runtime monitor detects the shift, the
//! adapter re-synthesizes, and we report:
//!
//! * the active set and per-tenant bands at each control-plane tick;
//! * rank-space compaction (joint span before vs after reclamation) —
//!   fewer ranks means fewer strict-priority queues needed on a commodity
//!   switch (§3.4);
//! * re-synthesis latency (the "event-driven controller" cost, §2).
//!
//! Usage: cargo run -p qvisor-bench --release --bin fig2_timeline

use qvisor_core::{
    admit, synthesize, MonitorConfig, Policy, RuntimeAdapter, RuntimeMonitor, SpecPaths,
    SynthConfig, Target, TenantSpec, ViolationAction,
};
use qvisor_ranking::{RankFnSpec, RankRange};
use qvisor_sim::{FlowId, Nanos, NodeId, Packet, SimRng, TenantId};
use std::time::Instant;

fn mk_packet(tenant: u16, rank: u64, at: Nanos) -> Packet {
    Packet::data(
        FlowId(tenant as u64),
        TenantId(tenant),
        0,
        1_500,
        NodeId(0),
        NodeId(1),
        rank,
        at,
    )
}

fn main() {
    control_plane_timeline();
    println!("\n=== in-network timeline (2x4-host leaf-spine, live adaptation) ===");
    in_network_timeline();
}

/// Part 1: the monitor/adapter state machine driven directly with
/// synthetic packet observations (no simulator in the loop).
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

    let t0 = Instant::now();
    let joint = synthesize(&specs, &policy, synth_cfg).unwrap();
    let initial_synth = t0.elapsed();
    let deployed = admit(joint, &Target::default(), &SpecPaths::config(), false)
        .expect("the initial policy deploys");
    let joint = deployed.joint();
    let mut monitor = RuntimeMonitor::new(&specs, monitor_cfg);
    let mut adapter = RuntimeAdapter::new(specs.clone(), policy, synth_cfg, monitor_cfg);

    println!("t=0        deploy over {{T1, T2, T3}} (policy T1 + T2 >> T3)");
    println!(
        "           joint span {}, synth {:?}",
        joint.output_span(),
        initial_synth
    );
    assert!(deployed.report().guarantees_hold());

    // Timeline: packets observed by the monitor, with control-plane ticks
    // interleaved causally. Phase A (t < t1): T1 + T2 active.
    let mut rng = SimRng::seed_from(1);
    let t1_moment = Nanos::from_millis(10);
    for i in 0..20_000u64 {
        let at = Nanos::from_micros(i / 2);
        let (tenant, rank) = if i % 2 == 0 {
            (1u16, rng.below(90_000))
        } else {
            (2u16, rng.below(9_000))
        };
        monitor.observe(&mut mk_packet(tenant, rank, at), at);
    }

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
        monitor.observe(&mut mk_packet(3, rng.below(1_000), at), at);
    }

    // Control-plane tick after t1 once T1/T2 have been idle past the
    // window while T3 is still transmitting.
    let tick_b = t1_moment + Nanos::from_millis(12);
    let proposal = adapter
        .propose(&monitor, tick_b)
        .expect("activity shift must be detected");
    println!(
        "t={tick_b}  proposal: active {:?}, tightened {:?}",
        proposal.active, proposal.tightened
    );
    let t1 = Instant::now();
    let redeployed = adapter
        .apply(&proposal)
        .expect("re-synthesis passes the gate")
        .expect("T3 remains");
    let resynth = t1.elapsed();
    assert!(redeployed.report().guarantees_hold());
    let new_joint = redeployed.joint();

    let before = joint.output_span();
    let after = new_joint.output_span();
    println!(
        "           re-synthesized in {resynth:?}; joint span {before} -> {after} \
         ({}x compaction)",
        before.width() / after.width().max(1)
    );
    println!(
        "           T3 best rank: {} -> {}",
        joint.chain(TenantId(3)).unwrap().apply(0),
        new_joint.chain(TenantId(3)).unwrap().apply(0)
    );
    println!("\nFig. 2's t1 transition handled: idle bands reclaimed, guarantees re-verified.");
}

/// Part 2: the same timeline *in the network* — per-tenant goodput over
/// time with live adaptation on, reproducing Fig. 2's traffic-volume
/// curves from a declarative scenario.
fn in_network_timeline() {
    use qvisor_bench::harness::run_one;
    use qvisor_core::{Backend, PreprocScope};
    use qvisor_netsim::scenario::{
        CbrDecl, FlowDecl, MonitorSpec, QvisorSpec, ScenarioSpec, SimSpec, TenantDecl, TimeRef,
        TopologySpec, WorkloadSpec,
    };
    use qvisor_topology::LeafSpineConfig;

    let fabric = LeafSpineConfig::small();
    let t1_moment = Nanos::from_millis(30);

    // Phase A (t < t1): T1 sends short flows, T2 a CBR stream; phase B
    // (t >= t1): T3 background elephants. Host indices follow the
    // leaf-spine's rack-major canonical host order.
    let t1_flows = (0..40u64)
        .map(|i| FlowDecl {
            tenant: 1,
            src_host: (i % 4) as usize,
            dst_host: 4 + (i % 4) as usize,
            size: 200_000,
            start_ns: Nanos::from_micros(600 * i).as_nanos(),
            deadline_ns: None,
            weight: 1,
        })
        .collect();
    let t2_stream = CbrDecl {
        tenant: 2,
        src_host: 1,
        dst_host: 6,
        rate_bps: 300_000_000,
        pkt_size: 1_500,
        start_ns: 0,
        stop: TimeRef::At(t1_moment.as_nanos()),
        deadline_offset_ns: Nanos::from_micros(500).as_nanos(),
    };
    let t3_flows = (0..2u64)
        .map(|i| FlowDecl {
            tenant: 3,
            src_host: (2 * i) as usize,
            dst_host: (5 + 2 * i) as usize,
            size: 2_000_000,
            start_ns: (t1_moment + Nanos::from_millis(i)).as_nanos(),
            deadline_ns: None,
            weight: 1,
        })
        .collect();

    let tenant = |id: u16, name: &str, algorithm: &str, rank_max: u64, levels: u64| TenantDecl {
        id,
        name: name.to_string(),
        algorithm: algorithm.to_string(),
        rank_min: 0,
        rank_max,
        levels: Some(levels),
    };
    let spec = ScenarioSpec {
        name: "fig2-in-network".to_string(),
        seed: 4,
        topology: TopologySpec::LeafSpine {
            leaves: fabric.leaves,
            spines: fabric.spines,
            hosts_per_leaf: fabric.hosts_per_leaf,
            access_bps: fabric.access_bps,
            fabric_bps: fabric.fabric_bps,
            access_delay_ns: fabric.access_delay.as_nanos(),
            fabric_delay_ns: fabric.fabric_delay.as_nanos(),
        },
        sim: SimSpec {
            horizon: TimeRef::At(Nanos::from_millis(60).as_nanos()),
            sample_interval_ns: Some(Nanos::from_millis(5).as_nanos()),
            adaptation_interval_ns: Some(Nanos::from_millis(10).as_nanos()),
            ..SimSpec::default()
        },
        scheduler: Backend::Pifo,
        host_scheduler: None,
        qvisor: Some(QvisorSpec {
            tenants: vec![
                tenant(1, "T1", "pFabric", 2_000, 128),
                tenant(2, "T2", "EDF", 500, 32),
                tenant(3, "T3", "FQ", 10_000, 32),
            ],
            policy: "T1 + T2 >> T3".to_string(),
            unknown_drop: false,
            scope: PreprocScope::Everywhere,
            monitor: Some(MonitorSpec {
                violation_action: ViolationAction::Clamp,
                idle_after_ns: Nanos::from_millis(8).as_nanos(),
                drift_ratio: 4.0,
            }),
            synth: None,
        }),
        rank_fns: vec![
            (
                1,
                RankFnSpec::PFabric {
                    unit_bytes: 1_000,
                    max_rank: 2_000,
                },
            ),
            // Edf::default_datacenter(): 1 µs per rank unit, max rank 10k.
            (
                2,
                RankFnSpec::Edf {
                    unit_ns: 1_000,
                    max_rank: 10_000,
                },
            ),
            (
                3,
                RankFnSpec::ByteCountFq {
                    unit_bytes: 1_460,
                    max_rank: 10_000,
                },
            ),
        ],
        workloads: vec![
            WorkloadSpec::Flows { list: t1_flows },
            WorkloadSpec::Cbr {
                list: vec![t2_stream],
            },
            WorkloadSpec::Flows { list: t3_flows },
        ],
        alerts: Vec::new(),
    };

    let r = run_one(&spec, None, "fig2");
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
