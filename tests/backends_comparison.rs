//! §3.4 in the network: one joint policy deployed on PIFO, strict-priority
//! banks (banded static and SP-PIFO), and FIFO, compared on the same
//! workload. FIFO ignores ranks entirely, so small pFabric flows must be
//! slowest there; the PIFO approximations should land in between.

use qvisor::core::{Backend, SynthConfig, TenantSpec, UnknownTenantAction};
use qvisor::netsim::{NewFlow, QvisorSetup, SimConfig, SimReport, Simulation};
use qvisor::ranking::{PFabric, RankRange};
use qvisor::sim::{gbps, Nanos, TenantId};
use qvisor::topology::Dumbbell;
use qvisor::transport::SizeBucket;

const T1: TenantId = TenantId(1);

fn run(scheduler: Backend) -> SimReport {
    let d = Dumbbell::build(2, gbps(1), gbps(1), Nanos::from_micros(1));
    let specs =
        vec![TenantSpec::new(T1, "T1", "pFabric", RankRange::new(0, 5_000)).with_levels(256)];
    let cfg = SimConfig {
        seed: 5,
        horizon: Nanos::from_millis(400),
        scheduler,
        qvisor: Some(QvisorSetup {
            specs,
            policy: "T1".into(),
            synth: SynthConfig::default(),
            unknown: UnknownTenantAction::BestEffort,
            scope: Default::default(),
            monitor: None,
        }),
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(d.topology.clone(), cfg).unwrap();
    sim.register_rank_fn(T1, Box::new(PFabric::new(1_000, 5_000)));
    // One 5 MB elephant, then a stream of 20 KB mice arriving mid-transfer,
    // all over the same bottleneck (same destination).
    sim.add_flow(NewFlow::new(
        T1,
        d.senders[0],
        d.receivers[0],
        5_000_000,
        Nanos::ZERO,
    ));
    for i in 0..20u64 {
        sim.add_flow(NewFlow::new(
            T1,
            d.senders[1],
            d.receivers[0],
            20_000,
            Nanos::from_millis(2 + i),
        ));
    }
    sim.run()
}

fn small_fct(r: &SimReport) -> f64 {
    r.fct.mean_fct_ms(Some(T1), SizeBucket::SMALL).unwrap()
}

#[test]
fn fifo_is_worst_for_mice_pifo_best() {
    let pifo = run(Backend::Pifo);
    let fifo = run(Backend::Fifo);
    let sp = run(Backend::SpPifo { queues: 8 });
    let banded = run(Backend::StrictStatic {
        queues: 8,
        span: RankRange::new(0, 5_000),
    });

    let (p, f, s, b) = (
        small_fct(&pifo),
        small_fct(&fifo),
        small_fct(&sp),
        small_fct(&banded),
    );
    assert!(
        f > p * 2.0,
        "FIFO ({f:.3} ms) must be far worse than PIFO ({p:.3} ms) for mice"
    );
    assert!(
        s < f && b < f,
        "PIFO approximations (sp {s:.3}, banded {b:.3}) must beat FIFO ({f:.3})"
    );
    // Approximations shouldn't beat the exact PIFO by much (sanity).
    assert!(s > p * 0.5 && b > p * 0.5);
}

#[test]
fn every_backend_completes_the_workload() {
    for scheduler in [
        Backend::Pifo,
        Backend::Fifo,
        Backend::SpPifo { queues: 8 },
        Backend::StrictStatic {
            queues: 8,
            span: RankRange::new(0, 5_000),
        },
        Backend::Aifo {
            window: 64,
            burst: 0.1,
        },
    ] {
        let r = run(scheduler);
        assert_eq!(r.incomplete_flows, 0, "incomplete under {scheduler:?}");
        assert_eq!(r.fct.count(Some(T1)), 21);
        assert_eq!(
            r.tenant(T1).delivered_bytes,
            5_000_000 + 20 * 20_000,
            "byte conservation under {scheduler:?}"
        );
    }
}

#[test]
fn elephant_throughput_unhurt_by_priority() {
    // SRPT hurts the elephant's FCT only mildly when mice are 8% of bytes.
    let pifo = run(Backend::Pifo);
    let fifo = run(Backend::Fifo);
    let big_p = pifo.fct.mean_fct_ms(Some(T1), SizeBucket::LARGE).unwrap();
    let big_f = fifo.fct.mean_fct_ms(Some(T1), SizeBucket::LARGE).unwrap();
    assert!(
        big_p < big_f * 1.5,
        "elephant under PIFO ({big_p:.1} ms) should not collapse vs FIFO ({big_f:.1} ms)"
    );
}
