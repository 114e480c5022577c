//! Deploying QVISOR on a commodity switch (§3.4).
//!
//! Existing switches don't have PIFOs — only a handful of strict-priority
//! FIFO queues. QVISOR allocates queues to strict bands (isolation
//! survives) and maps ranks to queues within each band. This example
//! deploys one joint policy on four targets — ideal PIFO, banded static
//! 8-queue bank, SP-PIFO 8-queue bank, AIFO — drives an identical packet
//! stream through each, and measures scheduling fidelity (rank inversions)
//! and isolation.
//!
//! Run with: `cargo run --example commodity_switch`

use qvisor::core::{
    synthesize, Backend, BandedMapper, Policy, PreProcessor, SynthConfig, TenantSpec,
    UnknownTenantAction,
};
use qvisor::ranking::RankRange;
use qvisor::scheduler::{Capacity, InstrumentedQueue, PacketQueue};
use qvisor::sim::{FlowId, Nanos, NodeId, Packet, SimRng, TenantId};
use qvisor::telemetry::Telemetry;

fn main() {
    // Two tenants strictly prioritized over a third.
    let specs = vec![
        TenantSpec::new(TenantId(1), "T1", "pFabric", RankRange::new(0, 100_000)).with_levels(32),
        TenantSpec::new(TenantId(2), "T2", "EDF", RankRange::new(0, 10_000)).with_levels(32),
        TenantSpec::new(TenantId(3), "T3", "FQ", RankRange::new(0, 1_000)).with_levels(16),
    ];
    let policy = Policy::parse("T1 + T2 >> T3").unwrap();
    let joint = synthesize(&specs, &policy, SynthConfig::default()).unwrap();
    println!("policy: {policy}");
    println!("joint rank span: {}\n", joint.output_span());

    // Show the §3.4 queue allocation for the banded backend.
    let mapper = BandedMapper::from_joint(&joint, 8).unwrap();
    println!("queue allocation on an 8-queue switch (first queue, count):");
    for (level, (first, count)) in mapper.allocations().iter().enumerate() {
        println!(
            "  strict level {level}: queues {first}..{}",
            first + count - 1
        );
    }
    println!();

    // One identical synthetic packet stream through every backend.
    let mut pre = PreProcessor::new(&joint, UnknownTenantAction::BestEffort);
    let mut rng = SimRng::seed_from(99);
    let mut stream = Vec::new();
    for i in 0..4_000u64 {
        let tenant = TenantId(1 + (rng.below(3) as u16));
        let rank = match tenant.0 {
            1 => rng.below(100_001),
            2 => rng.below(10_001),
            _ => rng.below(1_001),
        };
        let mut p = Packet::data(
            FlowId(i),
            tenant,
            i,
            1_500,
            NodeId(0),
            NodeId(1),
            rank,
            Nanos::ZERO,
        );
        pre.process(&mut p);
        stream.push(p);
    }

    let capacity = Capacity::packets(64, 1_500);
    let backends = [
        ("ideal PIFO", Backend::Pifo),
        (
            "8-queue banded static",
            Backend::StrictStatic {
                queues: 8,
                span: joint.output_span(),
            },
        ),
        ("8-queue SP-PIFO", Backend::SpPifo { queues: 8 }),
        (
            "AIFO (single FIFO)",
            Backend::Aifo {
                window: 64,
                burst: 0.1,
            },
        ),
    ];

    println!(
        "{:<24}{:>12}{:>12}{:>12}{:>14}",
        "backend", "dequeued", "dropped", "inversions", "T3-before-T1T2"
    );
    for (name, backend) in backends {
        let queue = backend.build(capacity, Some(&joint)).unwrap();
        let mut queue = InstrumentedQueue::new(queue, &Telemetry::enabled(), name);
        // Interleave enqueue/dequeue (2:1) to mimic an overloaded port.
        let mut out = Vec::new();
        for chunk in stream.chunks(2) {
            for p in chunk {
                queue.enqueue(p.clone(), Nanos::ZERO);
            }
            if let Some(p) = queue.dequeue(Nanos::ZERO) {
                out.push(p);
            }
        }
        while let Some(p) = queue.dequeue(Nanos::ZERO) {
            out.push(p);
        }
        // Isolation violations: a T3 packet served while T1/T2 wait. Count
        // T3 packets that appear before the last T1/T2 packet.
        let last_top = out
            .iter()
            .rposition(|p| p.tenant != TenantId(3))
            .unwrap_or(0);
        let t3_early = out[..last_top]
            .iter()
            .filter(|p| p.tenant == TenantId(3))
            .count();
        println!(
            "{:<24}{:>12}{:>12}{:>12}{:>14}",
            name,
            queue.dequeued_count(),
            queue.dropped_count(),
            queue.inversion_count(),
            t3_early
        );
    }
    println!(
        "\nThe banded-static bank keeps strict isolation with zero T3 \
         leakage; SP-PIFO trades isolation for adaptivity; AIFO never \
         reorders, only filters."
    );
}
