//! The PIFO-tree baseline: an idealized hierarchical scheduler (root
//! fair-shares tenants, leaves sort by rank) is what dedicated
//! multi-tenant hardware would provide. QVISOR's claim is that a *flat*
//! commodity PIFO plus rank rewriting approximates it — these tests put
//! the two side by side on the same clashing workload.

use qvisor::core::{Backend, SynthConfig, TenantSpec, UnknownTenantAction};
use qvisor::netsim::{NewFlow, QvisorSetup, SimConfig, SimReport, Simulation};
use qvisor::ranking::{ByteCountFq, Constant, RankRange};
use qvisor::sim::{gbps, jain_fairness, Nanos, TenantId};
use qvisor::topology::Dumbbell;

const T1: TenantId = TenantId(1);
const T2: TenantId = TenantId(2);

/// Two closed-loop elephants with *clashing* rank scales: both count
/// bytes, but T2's ranks grow 100x slower (a coarser unit), so on a naive
/// flat PIFO T2's numerically tiny ranks dominate. QVISOR's normalization
/// maps both onto a common scale; the tree never compares them at all.
fn run(scheduler: Backend, qvisor: bool) -> SimReport {
    let d = Dumbbell::build(2, gbps(1), gbps(1), Nanos::from_micros(1));
    let mut cfg = SimConfig {
        seed: 17,
        horizon: Nanos::from_millis(100),
        scheduler,
        ..SimConfig::default()
    };
    if qvisor {
        cfg.qvisor = Some(QvisorSetup {
            specs: vec![
                TenantSpec::new(T1, "T1", "FQ", RankRange::new(0, 14_000)).with_levels(64),
                TenantSpec::new(T2, "T2", "FQ-coarse", RankRange::new(0, 140)).with_levels(64),
            ],
            policy: "T1 + T2".into(),
            synth: SynthConfig::default(),
            unknown: UnknownTenantAction::BestEffort,
            scope: Default::default(),
            monitor: None,
        });
    }
    let mut sim = Simulation::new(d.topology.clone(), cfg).unwrap();
    sim.register_rank_fn(T1, Box::new(ByteCountFq::new(1_460, 14_000)));
    sim.register_rank_fn(T2, Box::new(ByteCountFq::new(146_000, 140)));
    for (t, i) in [(T1, 0), (T2, 1)] {
        sim.add_flow(NewFlow::new(
            t,
            d.senders[i],
            d.receivers[i],
            20_000_000,
            Nanos::ZERO,
        ));
    }
    sim.run()
}

fn jain(r: &SimReport) -> f64 {
    jain_fairness(&[
        r.tenant(T1).delivered_bytes as f64,
        r.tenant(T2).delivered_bytes as f64,
    ])
    .unwrap()
}

#[test]
fn naive_flat_pifo_is_captured_by_the_coarse_rank_tenant() {
    let r = run(Backend::Pifo, false);
    let (b1, b2) = (r.tenant(T1).delivered_bytes, r.tenant(T2).delivered_bytes);
    assert!(
        b2 > b1 * 3,
        "the coarse-unit tenant's tiny ranks should dominate a naive PIFO: {b1} vs {b2}"
    );
    assert!(jain(&r) < 0.85);
}

/// A limitation worth pinning: a tenant whose rank function does not
/// *progress* (constant rank, e.g. slack that is always ~0) cannot be
/// fairly shared on ANY flat rank-ordered scheduler — there is no signal
/// for interleaving to act on, and it camps at the head of its band. The
/// hierarchical tree handles it because its root keeps per-tenant state.
/// Flat-PIFO virtualization of `+` therefore assumes progressing rank
/// functions (virtual clocks); QVISOR operators should give such tenants
/// `>>`/`>` placement or a shaper instead.
#[test]
fn constant_rank_tenants_defeat_flat_sharing_but_not_the_tree() {
    let run_const = |scheduler: Backend, qvisor: bool| -> SimReport {
        let d = Dumbbell::build(2, gbps(1), gbps(1), Nanos::from_micros(1));
        let mut cfg = SimConfig {
            seed: 18,
            horizon: Nanos::from_millis(100),
            scheduler,
            ..SimConfig::default()
        };
        if qvisor {
            cfg.qvisor = Some(QvisorSetup {
                specs: vec![
                    TenantSpec::new(T1, "T1", "FQ", RankRange::new(0, 14_000)).with_levels(64),
                    TenantSpec::new(T2, "T2", "const", RankRange::new(0, 0)),
                ],
                policy: "T1 + T2".into(),
                synth: SynthConfig::default(),
                unknown: UnknownTenantAction::BestEffort,
                scope: Default::default(),
                monitor: None,
            });
        }
        let mut sim = Simulation::new(d.topology.clone(), cfg).unwrap();
        sim.register_rank_fn(T1, Box::new(ByteCountFq::new(1_460, 14_000)));
        sim.register_rank_fn(T2, Box::new(Constant(0)));
        for (t, i) in [(T1, 0), (T2, 1)] {
            sim.add_flow(NewFlow::new(
                t,
                d.senders[i],
                d.receivers[i],
                20_000_000,
                Nanos::ZERO,
            ));
        }
        sim.run()
    };
    // Flat PIFO + QVISOR: the constant-rank tenant still wins most slots.
    let flat = run_const(Backend::Pifo, true);
    assert!(jain(&flat) < 0.9, "expected unfair: {:.4}", jain(&flat));
    // The tree is immune.
    let tree = run_const(Backend::FairTree { tenants: 3 }, false);
    assert!(
        jain(&tree) > 0.99,
        "tree should be fair: {:.4}",
        jain(&tree)
    );
}

#[test]
fn hierarchical_tree_is_fair_without_any_rewriting() {
    let r = run(Backend::FairTree { tenants: 3 }, false);
    assert!(
        jain(&r) > 0.99,
        "the tree's root fairness must neutralize the rank clash: {:.4}",
        jain(&r)
    );
}

#[test]
fn qvisor_on_flat_pifo_matches_the_tree() {
    let tree = run(Backend::FairTree { tenants: 3 }, false);
    let qv = run(Backend::Pifo, true);
    assert!(
        jain(&qv) > 0.99,
        "QVISOR sharing on a flat PIFO must restore fairness: {:.4}",
        jain(&qv)
    );
    // Aggregate goodput within a few percent of the hierarchical ideal.
    let total =
        |r: &SimReport| (r.tenant(T1).delivered_bytes + r.tenant(T2).delivered_bytes) as f64;
    let ratio = total(&qv) / total(&tree);
    assert!(
        (0.9..=1.1).contains(&ratio),
        "flat-PIFO virtualization should cost little goodput vs the tree: {ratio:.3}"
    );
}
