//! Ablation: how many quantization levels does normalization need?
//!
//! The synthesizer quantizes each tenant's rank range onto Q levels (§3.2,
//! "rank normalization"). Too few levels erase intra-tenant scheduling
//! (pFabric degenerates toward FIFO); more levels cost rank-space width —
//! and on commodity switches, queues. This sweep runs the Fig. 4 scenario
//! under `pFabric >> EDF` varying Q for the pFabric tenant. The experiment
//! is `examples/sweeps/ablation_quantization.json`: one axis over
//! `qvisor.tenants.0.levels`.
//!
//! Usage: cargo run -p qvisor-bench --release --bin ablation_quantization
//! (per-point telemetry: `qvisor sweep <document> --telemetry PREFIX`)

use qvisor_bench::harness::ablation_rows;

fn main() {
    let rows = ablation_rows(include_str!(
        "../../../../examples/sweeps/ablation_quantization.json"
    ));
    println!("Ablation: pFabric quantization levels (policy pFabric >> EDF, load 0.6)");
    println!(
        "{:>8}{:>16}{:>16}",
        "levels", "small FCT (ms)", "large FCT (ms)"
    );
    for (point, p) in rows {
        let levels = point
            .spec
            .qvisor
            .as_ref()
            .and_then(|q| q.tenants[0].levels)
            .expect("every quantization point declares tenant 1's levels");
        let small = p.small_fct_ms.unwrap_or(f64::NAN);
        let large = p.large_fct_ms.unwrap_or(f64::NAN);
        println!("{levels:>8}{small:>16.3}{large:>16.2}");
    }
    println!(
        "\nFew levels collapse pFabric's SRPT behaviour (small flows slow \
         down); returns diminish once levels resolve the small-flow sizes."
    );
}
