//! Ablation: how many quantization levels does normalization need?
//!
//! The synthesizer quantizes each tenant's rank range onto Q levels (§3.2,
//! "rank normalization"). Too few levels erase intra-tenant scheduling
//! (pFabric degenerates toward FIFO); more levels cost rank-space width —
//! and on commodity switches, queues. This sweep runs the Fig. 4 scenario
//! under `pFabric >> EDF` varying Q for the pFabric tenant.
//!
//! Usage: cargo run -p qvisor-bench --release --bin ablation_quantization
//!        [-- --telemetry PREFIX]   write `PREFIX-levels<N>.jsonl` per point

use qvisor_bench::harness::{
    ablation_scenario, run_labelled, scaled_fcts, telemetry_prefix, ABLATION_SCALE,
};
use qvisor_netsim::scenario::SchedulerSpec;
use qvisor_sim::TenantId;

fn main() {
    println!("Ablation: pFabric quantization levels (policy pFabric >> EDF, load 0.6)");
    println!(
        "{:>8}{:>16}{:>16}",
        "levels", "small FCT (ms)", "large FCT (ms)"
    );
    let points: Vec<_> = [2u64, 4, 8, 32, 128, 512, 2048]
        .into_iter()
        .map(|levels| {
            let spec = ablation_scenario(
                format!("ablation-quantization levels{levels}"),
                1,
                SchedulerSpec::Pifo,
                levels,
            );
            (format!("levels{levels}"), spec)
        })
        .collect();
    run_labelled(&points, telemetry_prefix().as_deref(), |tag, r| {
        let levels: u64 = tag.trim_start_matches("levels").parse().unwrap();
        let (small, large) = scaled_fcts(r, TenantId(1), ABLATION_SCALE);
        println!("{levels:>8}{small:>16.3}{large:>16.2}");
    });
    println!(
        "\nFew levels collapse pFabric's SRPT behaviour (small flows slow \
         down); returns diminish once levels resolve the small-flow sizes."
    );
}
