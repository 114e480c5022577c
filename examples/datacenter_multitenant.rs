//! A multi-tenant data-center fabric (the paper's §2 scenario).
//!
//! Three tenants share a leaf–spine fabric: an interactive pFabric tenant,
//! a deadline-constrained EDF tenant sending CBR streams, and a background
//! fair-queueing tenant. The operator policy is `T1 >> T2 + T3`. We run
//! the same workload twice — naive shared PIFO vs QVISOR — and compare.
//!
//! Run with: `cargo run --release --example datacenter_multitenant`

use qvisor::core::{Backend, SynthConfig, TenantSpec};
use qvisor::netsim::{NewCbr, NewFlow, QvisorSetup, SimConfig, Simulation};
use qvisor::ranking::{ByteCountFq, Edf, PFabric, RankRange};
use qvisor::sim::{gbps, Nanos, SimRng, TenantId};
use qvisor::topology::{LeafSpine, LeafSpineConfig};
use qvisor::transport::SizeBucket;
use qvisor::workloads::{EmpiricalCdf, FlowSizeDist, PoissonFlowGen};

const T1: TenantId = TenantId(1); // interactive, pFabric
const T2: TenantId = TenantId(2); // deadline-constrained, EDF
const T3: TenantId = TenantId(3); // background, FQ

fn build_and_run(qvisor: bool) -> qvisor::netsim::SimReport {
    let fabric = LeafSpine::build(&LeafSpineConfig::small());
    let hosts = fabric.all_hosts();

    let mut cfg = SimConfig {
        seed: 42,
        scheduler: Backend::Pifo,
        horizon: Nanos::from_millis(80),
        ..SimConfig::default()
    };
    if qvisor {
        // Declared ranges match what the rank functions actually emit for
        // this workload (web-search/10 flows top out near 2 MB remaining;
        // EDF slack is at most the 500 us deadline offset). Declaring far
        // wider ranges would waste quantization levels — the verifier's
        // QV-QUANT collision bound.
        let specs = vec![
            TenantSpec::new(T1, "T1", "pFabric", RankRange::new(0, 2_000)).with_levels(256),
            TenantSpec::new(T2, "T2", "EDF", RankRange::new(0, 500)).with_levels(64),
            TenantSpec::new(T3, "T3", "FQ", RankRange::new(0, 1_000)).with_levels(16),
        ];
        cfg.qvisor = Some(QvisorSetup {
            specs,
            policy: "T1 >> T2 + T3".into(),
            synth: SynthConfig::default(),
            unknown: qvisor::core::UnknownTenantAction::BestEffort,
            scope: Default::default(),
            monitor: None,
        });
    }

    let mut sim = Simulation::new(fabric.topology.clone(), cfg).expect("valid config");
    sim.register_rank_fn(T1, Box::new(PFabric::default_datacenter()));
    sim.register_rank_fn(T2, Box::new(Edf::default_datacenter()));
    sim.register_rank_fn(T3, Box::new(ByteCountFq::new(1_000, 1_000)));

    let rng = SimRng::seed_from(7);

    // Tenant 1: web-search flows at moderate load.
    let sizes = EmpiricalCdf::web_search().scaled(1, 10);
    let rate =
        qvisor::workloads::arrival_rate_for_load(0.4, hosts.len(), gbps(1), sizes.mean_bytes());
    let flows = PoissonFlowGen {
        tenant: T1,
        hosts: &hosts,
        sizes: &sizes,
        rate_flows_per_sec: rate,
    }
    .generate(300, &mut rng.derive(1));
    for f in &flows {
        sim.add_generated(f);
    }

    // Tenant 2: four CBR streams with 500 us deadlines.
    for i in 0..4u64 {
        sim.add_cbr(NewCbr {
            tenant: T2,
            src: hosts[i as usize],
            dst: hosts[hosts.len() - 1 - i as usize],
            rate_bps: 200_000_000,
            pkt_size: 1_500,
            start: Nanos::ZERO,
            stop: Nanos::from_millis(40),
            deadline_offset: Nanos::from_micros(500),
        });
    }

    // Tenant 3: a few background elephants.
    for i in 0..3u64 {
        sim.add_flow(NewFlow::new(
            T3,
            hosts[(2 * i + 1) as usize % hosts.len()],
            hosts[(2 * i + 6) as usize % hosts.len()],
            2_000_000,
            Nanos::from_millis(i),
        ));
    }

    sim.run()
}

fn main() {
    println!("running naive shared PIFO (no QVISOR)...");
    let naive = build_and_run(false);
    println!("running QVISOR with policy  T1 >> T2 + T3 ...\n");
    let qv = build_and_run(true);

    let fct = |r: &qvisor::netsim::SimReport| {
        r.fct
            .mean_fct_ms(Some(T1), SizeBucket::SMALL)
            .unwrap_or(f64::NAN)
    };
    let deadline = |r: &qvisor::netsim::SimReport| {
        r.tenant(T2)
            .deadline_hit_rate()
            .map(|x| 100.0 * x)
            .unwrap_or(f64::NAN)
    };

    println!("{:<34}{:>14}{:>14}", "", "naive PIFO", "QVISOR");
    println!(
        "{:<34}{:>14.3}{:>14.3}",
        "T1 small-flow mean FCT (ms)",
        fct(&naive),
        fct(&qv)
    );
    println!(
        "{:<34}{:>13.1}%{:>13.1}%",
        "T2 deadline hit rate",
        deadline(&naive),
        deadline(&qv)
    );
    println!(
        "{:<34}{:>14}{:>14}",
        "T3 delivered packets",
        naive.tenant(T3).delivered_pkts,
        qv.tenant(T3).delivered_pkts
    );
    println!(
        "{:<34}{:>14}{:>14}",
        "events processed", naive.events, qv.events
    );
    println!(
        "\nWith QVISOR, T1 is isolated on top (better small-flow FCTs) while \
         T2 keeps meeting deadlines in its shared band."
    );
}
