//! Ablation: deployment backends (§3.4).
//!
//! The same joint policy (`pFabric >> EDF`) deployed on the ideal PIFO, an
//! 8-queue banded-static bank, an 8-queue SP-PIFO bank, a 32-queue banded
//! bank, AIFO, and plain FIFO — same workload, same seed. Reports the
//! pFabric tenant's FCTs and the EDF tenant's deadline hit rate per
//! backend.
//!
//! Usage: cargo run -p qvisor-bench --release --bin ablation_backend
//!        [-- --telemetry PREFIX]   write `PREFIX-<backend>.jsonl` per backend

use qvisor_bench::harness::{
    ablation_scenario, run_labelled, scaled_fcts, telemetry_prefix, ABLATION_SCALE,
};
use qvisor_netsim::scenario::SchedulerSpec;
use qvisor_sim::TenantId;

fn main() {
    println!("Ablation: deployment backends (policy pFabric >> EDF, load 0.6)");
    println!(
        "{:<28}{:>16}{:>16}{:>16}",
        "backend", "small FCT (ms)", "large FCT (ms)", "EDF on-time (%)"
    );
    let max_rank = 100_000_000 / ABLATION_SCALE / 1_000;
    let backends: Vec<(&str, SchedulerSpec)> = vec![
        ("ideal PIFO", SchedulerSpec::Pifo),
        (
            "8q strict (banded static)",
            SchedulerSpec::StrictStatic {
                queues: 8,
                span_min: 0,
                span_max: max_rank,
            },
        ),
        (
            "32q strict (banded static)",
            SchedulerSpec::StrictStatic {
                queues: 32,
                span_min: 0,
                span_max: max_rank,
            },
        ),
        ("8q SP-PIFO", SchedulerSpec::SpPifo { queues: 8 }),
        (
            "AIFO (w=64, k=0.1)",
            SchedulerSpec::Aifo {
                window: 64,
                burst: 0.1,
            },
        ),
        ("FIFO", SchedulerSpec::Fifo),
    ];
    let points: Vec<_> = backends
        .into_iter()
        .map(|(name, sched)| {
            let spec = ablation_scenario(format!("ablation-backend {name}"), 2, sched, 512);
            (name.to_string(), spec)
        })
        .collect();
    run_labelled(&points, telemetry_prefix().as_deref(), |name, r| {
        let (small, large) = scaled_fcts(r, TenantId(1), ABLATION_SCALE);
        let hit = r
            .tenant(TenantId(2))
            .deadline_hit_rate()
            .unwrap_or(f64::NAN)
            * 100.0;
        println!("{name:<28}{small:>16.3}{large:>16.2}{hit:>16.1}");
    });
    println!(
        "\nMore queues bring the banded bank closer to the PIFO; SP-PIFO \
         adapts without per-policy allocation; FIFO ignores the policy."
    );
}
