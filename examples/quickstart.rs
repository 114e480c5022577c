//! Quickstart: the paper's Fig. 3 worked example, end to end.
//!
//! Three tenants rank their traffic with pFabric, EDF, and Fair Queueing;
//! the operator wants `T1 >> T2 + T3`. QVISOR synthesizes per-tenant rank
//! transformations, the pre-processor rewrites packet ranks at line rate,
//! and a PIFO emits the packets in the joint order.
//!
//! Along the way a [`Tracer`] flight-records every packet's lifecycle
//! (rank computed, transform, enqueue/dequeue, delivery) and exports it as
//! Chrome trace-event JSON — load `quickstart_trace.json` at
//! <https://ui.perfetto.dev> to see Fig. 3 as a timeline.
//!
//! Run with: `cargo run --example quickstart`

use qvisor::core::{
    synthesize, verify, Policy, PreProcessor, SpecPaths, SynthConfig, TenantSpec,
    UnknownTenantAction,
};
use qvisor::ranking::RankRange;
use qvisor::scheduler::{Capacity, InstrumentedQueue, PacketQueue, PifoQueue};
use qvisor::sim::{FlowId, Nanos, NodeId, Packet, TenantId};
use qvisor::telemetry::{perfetto, Telemetry, TraceConfig, TraceKind, TraceRecord, Tracer};

fn main() {
    // 1. Tenant specifications (§3.1): traffic subset + declared ranks.
    let specs = vec![
        TenantSpec::new(TenantId(1), "T1", "pFabric", RankRange::new(7, 9)).with_levels(3),
        TenantSpec::new(TenantId(2), "T2", "EDF", RankRange::new(1, 3)).with_levels(2),
        TenantSpec::new(TenantId(3), "T3", "FQ", RankRange::new(3, 5)).with_levels(2),
    ];

    // 2. Operator policy: T1 isolated on top; T2 and T3 share.
    let policy = Policy::parse("T1 >> T2 + T3").expect("valid policy");
    println!("operator policy : {policy}");

    // 3. Synthesize the joint scheduling function (§3.2).
    let config = SynthConfig {
        first_rank: 1, // the paper's example numbers ranks from 1
        ..SynthConfig::default()
    };
    let joint = synthesize(&specs, &policy, config).expect("synthesis");
    for spec in &specs {
        let chain = joint.chain(spec.id).expect("scheduled tenant");
        println!("  {:<3} {:<8} chain: {chain}", spec.name, spec.algorithm);
    }

    // 4. Worst-case static analysis (§2, Idea 2): verify the guarantees.
    let report = verify(&joint, &SpecPaths::config());
    assert!(report.guarantees_hold());
    println!("\n{report}");

    // 5. Pre-process the exact packet sequence of Fig. 3 and schedule it
    //    on a PIFO, flight-recording every packet's lifecycle. Packet i
    //    arrives at i µs; the PIFO drains one packet per µs afterwards.
    let tracer = Tracer::enabled(TraceConfig::default());
    let mut pre = PreProcessor::new(&joint, UnknownTenantAction::BestEffort);
    let arrivals: [(u16, u64); 7] = [(3, 5), (2, 3), (1, 9), (3, 3), (2, 1), (1, 8), (1, 7)];
    let mut pifo = InstrumentedQueue::with_tracer(
        PifoQueue::new(Capacity::UNBOUNDED),
        &Telemetry::disabled(),
        &tracer,
        "fig3.pifo",
    );
    println!("pre-processor:");
    for (i, (tenant, rank)) in arrivals.into_iter().enumerate() {
        let now = Nanos::from_micros(i as u64);
        let mut p = Packet::data(
            FlowId(i as u64),
            TenantId(tenant),
            i as u64,
            1500,
            NodeId(0),
            NodeId(1),
            rank,
            now,
        );
        tracer.record(TraceRecord::new(
            now,
            p.flow.0,
            p.seq,
            tenant,
            TraceKind::RankComputed { rank },
        ));
        pre.process(&mut p);
        tracer.record(TraceRecord::new(
            now,
            p.flow.0,
            p.seq,
            tenant,
            TraceKind::Transform {
                pre: rank,
                post: p.txf_rank,
            },
        ));
        println!("  T{tenant} rank {rank} -> {}", p.txf_rank);
        pifo.enqueue(p, now);
    }

    print!("PIFO output     : ");
    let mut slot = arrivals.len() as u64;
    while let Some(p) = pifo.dequeue(Nanos::from_micros(slot)) {
        let now = Nanos::from_micros(slot + 1);
        tracer.record(TraceRecord::new(
            now,
            p.flow.0,
            p.seq,
            p.tenant.0,
            TraceKind::Deliver {
                latency_ns: now.as_nanos() - p.flow.0 * 1_000,
                dup: false,
            },
        ));
        print!("T{}({}) ", p.tenant.0, p.txf_rank);
        slot += 1;
    }
    println!();
    println!("\nT1's packets lead; T2 and T3 interleave — the Fig. 3 outcome.");

    // 6. Export the flight recording for Perfetto.
    let chrome = perfetto::export_chrome(&tracer.snapshot());
    std::fs::write("quickstart_trace.json", &chrome).expect("write quickstart_trace.json");
    println!("wrote quickstart_trace.json — open it at https://ui.perfetto.dev");
}
