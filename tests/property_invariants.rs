//! Randomized property tests on the core data structures and the
//! invariants the whole system rests on.
//!
//! Each property is exercised over many cases drawn from a seeded
//! [`SimRng`], so failures reproduce exactly; on failure the case index
//! and inputs are in the panic message.

use qvisor::core::{synthesize, Policy, RankTransform, SynthConfig, TenantSpec, TransformChain};
use qvisor::ranking::RankRange;
use qvisor::scheduler::{
    AifoQueue, Capacity, Enqueue, FifoQueue, InstrumentedQueue, PacketQueue, PathStep, PifoQueue,
    PifoTree, QueueMapper, SpPifoMapper, StrictPriorityBank, TreePath, TreeShape,
};
use qvisor::sim::{EventQueue, FlowId, Nanos, NodeId, Packet, SimRng, TenantId};
use qvisor::telemetry::Telemetry;
use std::collections::BTreeMap;

const CASES: u64 = 64;

fn packet(seq: u64, rank: u64, size: u32) -> Packet {
    let mut p = Packet::data(
        FlowId(1),
        TenantId(0),
        seq,
        size,
        NodeId(0),
        NodeId(1),
        rank,
        Nanos::ZERO,
    );
    p.txf_rank = rank;
    p
}

/// `len` uniform draws below `bound`.
fn rand_vec(rng: &mut SimRng, len: u64, bound: u64) -> Vec<u64> {
    (0..len).map(|_| rng.below(bound)).collect()
}

/// Uniform in `[lo, hi)`.
fn between(rng: &mut SimRng, lo: u64, hi: u64) -> u64 {
    lo + rng.below(hi - lo)
}

/// A PIFO must always emit packets in non-decreasing rank order, whatever
/// the arrival order and capacity pressure.
#[test]
fn pifo_dequeue_order_is_sorted() {
    let mut rng = SimRng::seed_from(0xA1);
    for case in 0..CASES {
        let len = between(&mut rng, 1, 200);
        let ranks = rand_vec(&mut rng, len, 1_000);
        let cap_pkts = between(&mut rng, 1, 64);
        let mut q = PifoQueue::new(Capacity::packets(cap_pkts, 100));
        for (i, &r) in ranks.iter().enumerate() {
            q.enqueue(packet(i as u64, r, 100), Nanos::ZERO);
        }
        let out: Vec<u64> = std::iter::from_fn(|| q.dequeue(Nanos::ZERO))
            .map(|p| p.txf_rank)
            .collect();
        assert!(
            out.windows(2).all(|w| w[0] <= w[1]),
            "case {case}: unsorted {out:?}"
        );
        assert!(out.len() <= cap_pkts as usize, "case {case}");
    }
}

/// PIFO conservation: every offered packet is either still queued,
/// dequeued, or reported dropped — none vanish, none duplicate.
#[test]
fn pifo_conserves_packets() {
    let mut rng = SimRng::seed_from(0xA2);
    for case in 0..CASES {
        let n = between(&mut rng, 1, 300);
        let mut q = PifoQueue::new(Capacity::packets(16, 100));
        let mut offered = 0u64;
        let mut dropped = 0u64;
        let mut dequeued = 0u64;
        for i in 0..n {
            let rank = rng.below(500);
            offered += 1;
            dropped += q
                .enqueue(packet(i, rank, 100), Nanos::ZERO)
                .dropped()
                .count() as u64;
            if rng.below(2) == 1 && q.dequeue(Nanos::ZERO).is_some() {
                dequeued += 1;
            }
        }
        assert_eq!(
            offered,
            dropped + dequeued + q.len() as u64,
            "case {case}: packets not conserved"
        );
    }
}

/// FIFO byte accounting never drifts.
#[test]
fn fifo_byte_accounting() {
    let mut rng = SimRng::seed_from(0xA3);
    for case in 0..CASES {
        let len = between(&mut rng, 1, 100);
        let sizes: Vec<u32> = (0..len)
            .map(|_| between(&mut rng, 1, 2_000) as u32)
            .collect();
        let mut q = FifoQueue::new(Capacity::bytes(10_000));
        let mut expect = 0u64;
        for (i, &s) in sizes.iter().enumerate() {
            if let Enqueue::Accepted = q.enqueue(packet(i as u64, 0, s), Nanos::ZERO) {
                expect += s as u64;
            }
            if i % 3 == 0 {
                if let Some(p) = q.dequeue(Nanos::ZERO) {
                    expect -= p.size as u64;
                }
            }
            assert_eq!(q.bytes(), expect, "case {case} after packet {i}");
        }
    }
}

/// SP-PIFO bounds stay sorted under arbitrary rank streams.
#[test]
fn sp_pifo_bounds_sorted() {
    let mut rng = SimRng::seed_from(0xA4);
    for case in 0..CASES {
        let len = between(&mut rng, 1, 500);
        let ranks = rand_vec(&mut rng, len, 100_000);
        let queues = between(&mut rng, 2, 12) as usize;
        let mut m = SpPifoMapper::new(queues);
        for r in ranks {
            let q = m.map(r);
            assert!(q < queues, "case {case}");
            let b = m.bounds();
            assert!(
                b.windows(2).all(|w| w[0] <= w[1]),
                "case {case}: bounds {b:?}"
            );
        }
    }
}

/// Every transform is monotone: it can never invert the relative order of
/// two ranks of the same tenant (intra-tenant scheduling must survive the
/// pre-processor, §3.2).
#[test]
fn transforms_are_monotone() {
    let mut rng = SimRng::seed_from(0xA5);
    for case in 0..CASES * 4 {
        let a = rng.below(1_000_000);
        let b = rng.below(1_000_000);
        let min = rng.below(1_000);
        let width = between(&mut rng, 1, 100_000);
        let levels = between(&mut rng, 1, 512);
        let every = between(&mut rng, 1, 16);
        let offset = rng.below(1_000);
        let ops = vec![
            RankTransform::Normalize {
                input: RankRange::new(min, min + width),
                levels,
            },
            RankTransform::Stride {
                every,
                width: 1,
                offset: offset % every,
            },
            RankTransform::Shift { offset },
        ];
        let chain = TransformChain::from_ops(ops);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(
            chain.apply(lo) <= chain.apply(hi),
            "case {case}: chain inverts {lo} vs {hi}"
        );
    }
}

/// Chain output ranges are exact for monotone chains: applying the chain
/// to anything in the declared input range lands within the computed
/// output range.
#[test]
fn chain_output_range_is_sound() {
    let mut rng = SimRng::seed_from(0xA6);
    for case in 0..CASES * 4 {
        let min = rng.below(1_000);
        let width = between(&mut rng, 1, 10_000);
        let levels = between(&mut rng, 1, 64);
        let shift = rng.below(10_000);
        let sample = rng.below(20_000);
        let input = RankRange::new(min, min + width);
        let chain = TransformChain::from_ops(vec![
            RankTransform::Normalize { input, levels },
            RankTransform::Shift { offset: shift },
        ]);
        let out = chain.output_range(input);
        let x = input.clamp(sample);
        let y = chain.apply(x);
        assert!(out.contains(y), "case {case}: {y} outside {out}");
    }
}

/// The event queue pops in time order with FIFO tie-breaks, for any
/// schedule of pushes.
#[test]
fn event_queue_total_order() {
    let mut rng = SimRng::seed_from(0xA7);
    for case in 0..CASES {
        let len = between(&mut rng, 1, 200);
        let times = rand_vec(&mut rng, len, 1_000);
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(Nanos(t), i);
        }
        let mut last: Option<(Nanos, usize)> = None;
        while let Some((at, idx)) = q.pop() {
            if let Some((lt, lidx)) = last {
                assert!(at >= lt, "case {case}");
                if at == lt {
                    assert!(idx > lidx, "case {case}: FIFO tie-break violated");
                }
            }
            assert_eq!(Nanos(times[idx]), at, "case {case}");
            last = Some((at, idx));
        }
    }
}

/// PIFO trees conserve packets and never emit more than admitted.
#[test]
fn pifo_tree_conserves_packets() {
    let mut rng = SimRng::seed_from(0xA9);
    for case in 0..CASES {
        let n = between(&mut rng, 1, 200);
        let shape = TreeShape::Internal(vec![
            TreeShape::Leaf,
            TreeShape::Leaf,
            TreeShape::Leaf,
            TreeShape::Leaf,
        ]);
        let mut vt = [0u64; 4];
        let classifier = move |p: &qvisor::sim::Packet| {
            let class = (p.flow.0 % 4) as usize;
            vt[class] += 1;
            TreePath {
                steps: vec![PathStep {
                    child: class,
                    rank: vt[class],
                }],
                leaf_rank: p.txf_rank,
            }
        };
        let mut tree = PifoTree::new(&shape, classifier, Capacity::packets(32, 100));
        let mut admitted = 0u64;
        let mut evicted = 0u64;
        let mut dequeued = 0u64;
        for i in 0..n {
            let rank = rng.below(100);
            let class = rng.below(4);
            let drain = rng.below(2) == 1;
            let mut p = packet(i, rank, 100);
            p.flow = qvisor::sim::FlowId(class);
            let outcome = tree.enqueue(p, Nanos::ZERO);
            if outcome.accepted() {
                admitted += 1;
            }
            // Priority drop may evict residents to admit the arrival; they
            // were admitted once but will never dequeue.
            evicted += outcome.dropped().filter(|d| d.seq != i).count() as u64;
            if drain && tree.dequeue(Nanos::ZERO).is_some() {
                dequeued += 1;
            }
        }
        while tree.dequeue(Nanos::ZERO).is_some() {
            dequeued += 1;
        }
        assert_eq!(admitted, dequeued + evicted, "case {case}");
        assert_eq!(tree.len(), 0, "case {case}");
        assert_eq!(tree.bytes(), 0, "case {case}");
    }
}

/// The documented exact PIFO as a naive stable-sorted `Vec`: entries are
/// `(rank, arrival, size)` in dequeue order. A full buffer evicts from the
/// back — worst rank first, latest arrival first within a rank — only
/// residents *strictly* worse than the arrival, and only if those free
/// enough bytes; otherwise the arrival is rejected and nothing moves.
struct SortedVecPifo {
    entries: Vec<(u64, u64, u32)>,
    capacity: u64,
    bytes: u64,
}

impl SortedVecPifo {
    /// `Ok(evicted arrivals, in eviction order)` or `Err(())` = rejected.
    fn enqueue(&mut self, rank: u64, arrival: u64, size: u32) -> Result<Vec<u64>, ()> {
        let mut keep = self.entries.len();
        let mut bytes = self.bytes;
        while bytes.saturating_add(size as u64) > self.capacity {
            if keep == 0 || self.entries[keep - 1].0 <= rank {
                return Err(());
            }
            keep -= 1;
            bytes -= self.entries[keep].2 as u64;
        }
        let evicted = self.entries.drain(keep..).rev().map(|e| e.1).collect();
        let at = self.entries.partition_point(|e| e.0 <= rank);
        self.entries.insert(at, (rank, arrival, size));
        self.bytes = bytes + size as u64;
        Ok(evicted)
    }

    fn dequeue(&mut self) -> Option<(u64, u64)> {
        if self.entries.is_empty() {
            return None;
        }
        let (rank, arrival, size) = self.entries.remove(0);
        self.bytes -= size as u64;
        Some((rank, arrival))
    }
}

/// A PIFO is *exactly* a stable sorted vector with priority drop: for any
/// interleaving of enqueues and dequeues, bounded or not, every dequeue
/// returns the identical packet, every enqueue evicts the identical
/// victims in the identical order (or is rejected alike), and `len`,
/// `bytes`, `head_rank` and `worst_rank` agree after every step. Ranks
/// come from five families — a small domain (ties), the tier boundary at
/// 4096, wide ranks, the top of `u64` and the block around the round's
/// first rank — and sizes are mixed, so multi-victim evictions and "not
/// enough strictly-worse bytes" occur within and across both of the
/// queue's tiers. Each case runs two rounds, each drained to empty; a
/// round's first rank, at 0, near 2^60 or near `u64::MAX`, places the
/// dense window, so the rest land inside, below and above it.
#[test]
fn pifo_matches_stable_sorted_vec_model() {
    let mut rng = SimRng::seed_from(0xB1);
    let (mut multi_evictions, mut starved_rejects) = (0u64, 0u64);
    let mut origins = [0u64; 3];
    for case in 0..CASES {
        let capacity = if case % 5 == 0 {
            Capacity::UNBOUNDED
        } else {
            Capacity::bytes(between(&mut rng, 300, 3_000))
        };
        let families = 1 + case % 5;
        let mut q = PifoQueue::new(capacity);
        let mut model = SortedVecPifo {
            entries: Vec::new(),
            capacity: capacity.bytes,
            bytes: 0,
        };
        for round in 0..2 {
            let n = between(&mut rng, 1, 300);
            let kind = (case + round) % 3;
            let origin = match kind {
                0 => rng.below(50),
                1 => (1 << 60) + rng.below(3 * 4_096),
                _ => u64::MAX - rng.below(3 * 4_096),
            };
            origins[kind as usize] += 1;
            for i in round * 1_000..round * 1_000 + n {
                let rank = match (i == round * 1_000, rng.below(families)) {
                    (true, _) => origin,
                    (_, 0) => rng.below(50),
                    (_, 1) => between(&mut rng, 4_090, 4_102),
                    (_, 2) => (1 << 40) + rng.below(8),
                    (_, 3) => u64::MAX - rng.below(4),
                    // Either edge of the window, wrapping round `u64`.
                    _ => (origin & !4_095)
                        .wrapping_add([0, 4_096][rng.below(2) as usize])
                        .wrapping_add(between(&mut rng, 4_090, 4_102))
                        .wrapping_sub(4_096),
                };
                let size = [40, 100, 250, 600][rng.below(4) as usize];
                let worse_bytes: u64 = model
                    .entries
                    .iter()
                    .filter(|e| e.0 > rank)
                    .map(|e| e.2 as u64)
                    .sum();
                let want = model.enqueue(rank, i, size);
                let got = match q.enqueue(packet(i, rank, size), Nanos::ZERO) {
                    Enqueue::Rejected(p) => {
                        assert_eq!(p.seq, i, "case {case}: rejected another packet");
                        Err(())
                    }
                    admitted => Ok(admitted.dropped().map(|p| p.seq).collect()),
                };
                assert_eq!(got, want, "case {case} step {i}: rank {rank} size {size}");
                match &want {
                    Ok(evicted) => multi_evictions += (evicted.len() > 1) as u64,
                    Err(()) => starved_rejects += (worse_bytes > 0) as u64,
                }
                if rng.below(3) == 0 {
                    let got = q.dequeue(Nanos::ZERO).map(|p| (p.txf_rank, p.seq));
                    assert_eq!(got, model.dequeue(), "case {case} step {i}");
                }
                assert_eq!(q.len(), model.entries.len(), "case {case} step {i}");
                assert_eq!(q.bytes(), model.bytes, "case {case} step {i}");
                assert_eq!(q.head_rank(), model.entries.first().map(|e| e.0));
                assert_eq!(q.worst_rank(), model.entries.last().map(|e| e.0));
            }
            // Final drain: with no further arrivals the stream is the
            // model's sorted order, and the next round starts empty.
            while let Some(p) = q.dequeue(Nanos::ZERO) {
                assert_eq!(Some((p.txf_rank, p.seq)), model.dequeue(), "case {case}");
            }
            assert!(
                model.entries.is_empty(),
                "case {case}: model retained packets"
            );
            assert_eq!((q.len(), q.bytes()), (0, 0), "case {case}");
        }
    }
    assert!(
        multi_evictions > 0,
        "no enqueue evicted more than one victim"
    );
    assert!(
        starved_rejects > 0,
        "no arrival was rejected for want of strictly-worse bytes"
    );
    assert!(origins.iter().all(|&n| n > 0), "first ranks {origins:?}");
}

/// Independent rank-inversion oracle: mirrors queue residency in a
/// multiset and recounts inversions exactly the way the exact-PIFO
/// definition states — a dequeue is an inversion iff some still-queued
/// packet has a strictly lower rank.
#[derive(Default)]
struct InversionOracle {
    resident: BTreeMap<u64, u64>,
    inversions: u64,
    dequeues: u64,
}

impl InversionOracle {
    fn add(&mut self, rank: u64) {
        *self.resident.entry(rank).or_insert(0) += 1;
    }

    fn remove(&mut self, rank: u64) {
        match self.resident.get_mut(&rank) {
            Some(1) => {
                self.resident.remove(&rank);
            }
            Some(n) => *n -= 1,
            None => panic!("oracle desync: rank {rank} not resident"),
        }
    }

    fn on_enqueue(&mut self, rank: u64, outcome: Enqueue) {
        match outcome {
            Enqueue::Accepted => self.add(rank),
            Enqueue::AcceptedDropped(victims) => {
                self.add(rank);
                for v in victims {
                    self.remove(v.txf_rank);
                }
            }
            Enqueue::Rejected(_) => {}
        }
    }

    fn on_dequeue(&mut self, rank: u64) {
        self.remove(rank);
        self.dequeues += 1;
        if self
            .resident
            .first_key_value()
            .is_some_and(|(&r, _)| r < rank)
        {
            self.inversions += 1;
        }
    }
}

/// Drive `queue` (wrapped in an [`InstrumentedQueue`]) and the oracle with
/// the same trace; return (instrumented inversions, oracle inversions,
/// dequeues).
fn inversion_trace<Q: PacketQueue>(queue: Q, rng: &mut SimRng, n: u64) -> (u64, u64, u64) {
    let telemetry = Telemetry::enabled();
    let mut q = InstrumentedQueue::new(queue, &telemetry, "prop");
    let mut oracle = InversionOracle::default();
    for i in 0..n {
        let rank = rng.below(10_000);
        let outcome = q.enqueue(packet(i, rank, 100), Nanos::ZERO);
        oracle.on_enqueue(rank, outcome);
        if rng.below(2) == 0 {
            if let Some(p) = q.dequeue(Nanos(i)) {
                oracle.on_dequeue(p.txf_rank);
            }
        }
    }
    while let Some(p) = q.dequeue(Nanos(n)) {
        oracle.on_dequeue(p.txf_rank);
    }
    (q.inversion_count(), oracle.inversions, oracle.dequeues)
}

/// SP-PIFO's reported inversion count must equal the independent
/// exact-PIFO-mirror oracle on the same trace (and can never exceed the
/// trivial bound of one per dequeue); the exact PIFO itself reports zero.
#[test]
fn sp_pifo_inversions_match_exact_mirror_bound() {
    let mut rng = SimRng::seed_from(0xB2);
    for case in 0..CASES {
        let n = between(&mut rng, 1, 400);
        let queues = between(&mut rng, 2, 12) as usize;
        let cap = Capacity::packets(between(&mut rng, 8, 64), 100);
        let (reported, oracle, dequeues) = inversion_trace(
            StrictPriorityBank::new(SpPifoMapper::new(queues), cap),
            &mut rng,
            n,
        );
        assert_eq!(reported, oracle, "case {case}: mirror disagrees");
        assert!(reported <= dequeues, "case {case}: bound exceeded");

        let (pifo_reported, pifo_oracle, _) = inversion_trace(PifoQueue::new(cap), &mut rng, n);
        assert_eq!(pifo_reported, 0, "case {case}: exact PIFO inverted");
        assert_eq!(pifo_oracle, 0, "case {case}: oracle saw PIFO invert");
        assert!(
            pifo_reported <= reported || reported == 0,
            "case {case}: approximation beat the exact mirror's floor"
        );
    }
}

/// AIFO admits-or-drops but never reorders; its inversion count must also
/// match the exact mirror oracle on every trace.
#[test]
fn aifo_inversions_match_exact_mirror_bound() {
    let mut rng = SimRng::seed_from(0xB3);
    for case in 0..CASES {
        let n = between(&mut rng, 1, 400);
        let cap = Capacity::packets(between(&mut rng, 8, 64), 100);
        let window = between(&mut rng, 4, 128) as usize;
        let burst = rng.below(90) as f64 / 100.0;
        let (reported, oracle, dequeues) =
            inversion_trace(AifoQueue::new(cap, window, burst), &mut rng, n);
        assert_eq!(reported, oracle, "case {case}: mirror disagrees");
        assert!(reported <= dequeues, "case {case}: bound exceeded");
    }
}

/// Policy parsing round-trips through Display for arbitrary shapes.
#[test]
fn policy_display_roundtrip() {
    let mut rng = SimRng::seed_from(0xAA);
    for case in 0..CASES {
        // Build a policy string from a random shape: levels of groups of
        // weighted tenants with unique names.
        let mut name = 0usize;
        let n_levels = between(&mut rng, 1, 4);
        let levels: Vec<String> = (0..n_levels)
            .map(|_| {
                let n_groups = between(&mut rng, 1, 4);
                let gs: Vec<String> = (0..n_groups)
                    .map(|_| {
                        name += 1;
                        let w = between(&mut rng, 1, 5);
                        if w == 1 {
                            format!("t{name}")
                        } else {
                            format!("t{name}:{w}")
                        }
                    })
                    .collect();
                gs.join(" + ")
            })
            .collect();
        let text = levels.join(" >> ");
        let p = Policy::parse(&text).unwrap();
        assert_eq!(p.to_string(), text, "case {case}");
        let p2 = Policy::parse(&p.to_string()).unwrap();
        assert_eq!(p, p2, "case {case}");
    }
}

/// Synthesis invariant: for any number of strictly-stacked tenants with
/// random ranges, adjacent bands never overlap and every tenant's output
/// stays inside the joint span.
#[test]
fn strict_synthesis_always_isolates() {
    let mut rng = SimRng::seed_from(0xAB);
    for case in 0..CASES {
        let n_tenants = between(&mut rng, 1, 6);
        let ranges: Vec<(u64, u64)> = (0..n_tenants)
            .map(|_| (rng.below(10_000), between(&mut rng, 1, 100_000)))
            .collect();
        let default_levels = between(&mut rng, 1, 64);
        let specs: Vec<TenantSpec> = ranges
            .iter()
            .enumerate()
            .map(|(i, &(min, width))| {
                TenantSpec::new(
                    TenantId(i as u16 + 1),
                    format!("T{}", i + 1),
                    "alg",
                    RankRange::new(min, min + width),
                )
            })
            .collect();
        let text = specs
            .iter()
            .map(|s| s.name.clone())
            .collect::<Vec<_>>()
            .join(" >> ");
        let policy = Policy::parse(&text).unwrap();
        let config = SynthConfig {
            default_levels,
            ..SynthConfig::default()
        };
        let joint = synthesize(&specs, &policy, config).unwrap();
        let span = joint.output_span();
        let mut prev_max: Option<u64> = None;
        for spec in &specs {
            let out = joint.chain(spec.id).unwrap().output_range(spec.range);
            assert!(
                span.contains(out.min) && span.contains(out.max),
                "case {case}"
            );
            if let Some(pm) = prev_max {
                assert!(pm < out.min, "case {case}: bands overlap: {pm} vs {out}");
            }
            prev_max = Some(out.max);
        }
        assert!(
            qvisor::core::verify(&joint, &qvisor::core::SpecPaths::config()).guarantees_hold(),
            "case {case}"
        );
    }
}
