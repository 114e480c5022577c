//! End-to-end reproduction of the paper's Fig. 3: specs + policy →
//! synthesizer → pre-processor → PIFO, checking every intermediate value
//! against the numbers printed in the paper.

use qvisor::core::{
    synthesize, verify, Policy, PreProcessor, SpecPaths, SynthConfig, TenantSpec,
    UnknownTenantAction,
};
use qvisor::ranking::RankRange;
use qvisor::scheduler::{Capacity, PacketQueue, PifoQueue};
use qvisor::sim::{FlowId, Nanos, NodeId, Packet, TenantId};

fn fig3_joint() -> qvisor::core::JointPolicy {
    let specs = vec![
        TenantSpec::new(TenantId(1), "T1", "pFabric", RankRange::new(7, 9)).with_levels(3),
        TenantSpec::new(TenantId(2), "T2", "EDF", RankRange::new(1, 3)).with_levels(2),
        TenantSpec::new(TenantId(3), "T3", "FQ", RankRange::new(3, 5)).with_levels(2),
    ];
    let policy = Policy::parse("T1 >> T2 + T3").unwrap();
    let config = SynthConfig {
        first_rank: 1,
        ..SynthConfig::default()
    };
    synthesize(&specs, &policy, config).unwrap()
}

#[test]
fn fig3_transformations_match_paper() {
    let joint = fig3_joint();
    // "packets from T1 carrying ranks {7, 8, 9} have to be re-labeled with
    //  ranks {1, 2, 3}"
    let t1 = joint.chain(TenantId(1)).unwrap();
    assert_eq!([7, 8, 9].map(|r| t1.apply(r)), [1, 2, 3]);
    // "packets from T2 with ranks {1, 3} have to be transformed into {4, 6}"
    let t2 = joint.chain(TenantId(2)).unwrap();
    assert_eq!([1, 3].map(|r| t2.apply(r)), [4, 6]);
    // "and packets from T3 with ranks {3, 5}, into {5, 7}"
    let t3 = joint.chain(TenantId(3)).unwrap();
    assert_eq!([3, 5].map(|r| t3.apply(r)), [5, 7]);
}

#[test]
fn fig3_analyzer_verifies_guarantees() {
    let report = verify(&fig3_joint(), &SpecPaths::config());
    assert!(report.guarantees_hold());
    // One strict boundary, isolated: max(T1 output)=3 < min(share band)=4.
    let level = |l| report.tenants.iter().filter(move |t| t.level == l);
    assert_eq!(level(0).map(|t| t.output.max).max(), Some(3));
    assert_eq!(level(1).map(|t| t.output.min).min(), Some(4));
    assert_eq!(level(2).count(), 0);
}

#[test]
fn fig3_pifo_emits_joint_order() {
    // Feed the Fig. 3 arrival sequence through the pre-processor and a
    // PIFO; the output must be sorted by transformed rank 1..=7, which
    // puts all of T1 first and interleaves T2/T3.
    let joint = fig3_joint();
    let mut pre = PreProcessor::new(&joint, UnknownTenantAction::BestEffort);
    let mut pifo = PifoQueue::new(Capacity::UNBOUNDED);
    let arrivals: [(u16, u64); 7] = [(3, 5), (2, 3), (1, 9), (3, 3), (2, 1), (1, 8), (1, 7)];
    for (i, (tenant, rank)) in arrivals.into_iter().enumerate() {
        let mut p = Packet::data(
            FlowId(i as u64),
            TenantId(tenant),
            i as u64,
            1500,
            NodeId(0),
            NodeId(1),
            rank,
            Nanos::ZERO,
        );
        pre.process(&mut p);
        pifo.enqueue(p, Nanos::ZERO);
    }
    let order: Vec<(u16, u64)> = std::iter::from_fn(|| pifo.dequeue(Nanos::ZERO))
        .map(|p| (p.tenant.0, p.txf_rank))
        .collect();
    assert_eq!(
        order,
        vec![(1, 1), (1, 2), (1, 3), (2, 4), (3, 5), (2, 6), (3, 7)],
        "the paper's output sequence: T1 first, then T2/T3 interleaved"
    );
}

#[test]
fn fig3_zero_based_variant_shifts_uniformly() {
    // Same example with the default first_rank = 0: identical structure,
    // every output one lower.
    let specs = vec![
        TenantSpec::new(TenantId(1), "T1", "pFabric", RankRange::new(7, 9)).with_levels(3),
        TenantSpec::new(TenantId(2), "T2", "EDF", RankRange::new(1, 3)).with_levels(2),
        TenantSpec::new(TenantId(3), "T3", "FQ", RankRange::new(3, 5)).with_levels(2),
    ];
    let policy = Policy::parse("T1 >> T2 + T3").unwrap();
    let joint = synthesize(&specs, &policy, SynthConfig::default()).unwrap();
    assert_eq!(joint.chain(TenantId(1)).unwrap().apply(7), 0);
    assert_eq!(joint.chain(TenantId(3)).unwrap().apply(5), 6);
}
