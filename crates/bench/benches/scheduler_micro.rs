//! Microbenchmarks: enqueue/dequeue throughput of every scheduler model.
//!
//! These bound the per-packet cost of the software scheduler substrate —
//! the denominator of every simulated experiment.

use qvisor_bench::harness::{bench_batched, print_header};
use qvisor_scheduler::{
    AifoQueue, Capacity, FifoQueue, PacketQueue, PathStep, PifoQueue, PifoTree, SpPifoMapper,
    StaticRangeMapper, StrictPriorityBank, TreePath, TreeShape,
};
use qvisor_sim::{FlowId, Nanos, NodeId, Packet, SimRng, TenantId};

const N: usize = 1_024;

/// `N` packets with ranks uniform in `[base, base + span)`.
fn packets(base: u64, span: u64) -> Vec<Packet> {
    let mut rng = SimRng::seed_from(7);
    (0..N)
        .map(|i| {
            let mut p = Packet::data(
                FlowId(i as u64),
                TenantId(0),
                i as u64,
                1_500,
                NodeId(0),
                NodeId(1),
                base + rng.below(span),
                Nanos::ZERO,
            );
            p.txf_rank = p.rank;
            p
        })
        .collect()
}

fn bench_queue<Q: PacketQueue, F: Fn() -> Q>(name: &str, make: F) {
    bench_ranks(name, 0, 100_000, make);
}

fn bench_ranks<Q: PacketQueue, F: Fn() -> Q>(name: &str, base: u64, span: u64, make: F) {
    let pkts = packets(base, span);
    bench_batched(
        name,
        || (make(), pkts.clone()),
        |(mut q, pkts)| {
            for p in pkts {
                q.enqueue(p, Nanos::ZERO);
            }
            while q.dequeue(Nanos::ZERO).is_some() {}
            q.len()
        },
    );
}

fn main() {
    print_header("scheduler_micro: enqueue+drain 1k packets per backend");
    let cap = Capacity::packets(256, 1_500);
    bench_queue("fifo_1k_pkts", move || FifoQueue::new(cap));
    bench_queue("pifo_1k_pkts", move || PifoQueue::new(cap));
    // The exact PIFO's two tiers: every rank below 4096 (bucketed), and
    // every rank at or above 2^32 (ordered map).
    bench_ranks("pifo_bounded_ranks_1k_pkts", 0, 4_096, move || {
        PifoQueue::new(cap)
    });
    bench_ranks("pifo_wide_ranks_1k_pkts", 1 << 32, 100_000, move || {
        PifoQueue::new(cap)
    });
    bench_queue("sp_pifo8_1k_pkts", move || {
        StrictPriorityBank::new(SpPifoMapper::new(8), cap)
    });
    bench_queue("strict_static8_1k_pkts", move || {
        StrictPriorityBank::new(StaticRangeMapper::new(0, 100_000, 8), cap)
    });
    bench_queue("aifo_1k_pkts", move || AifoQueue::new(cap, 64, 0.1));
    bench_queue("pifo_tree4_1k_pkts", move || {
        let shape = TreeShape::Internal(vec![
            TreeShape::Leaf,
            TreeShape::Leaf,
            TreeShape::Leaf,
            TreeShape::Leaf,
        ]);
        let mut vt = [0u64; 4];
        PifoTree::new(
            &shape,
            move |p: &qvisor_sim::Packet| {
                let class = (p.flow.0 % 4) as usize;
                vt[class] += 1;
                TreePath {
                    steps: vec![PathStep {
                        child: class,
                        rank: vt[class],
                    }],
                    leaf_rank: p.txf_rank,
                }
            },
            cap,
        )
    });
}
