//! Ablation: deployment backends (§3.4).
//!
//! The same joint policy (`pFabric >> EDF`) deployed on the ideal PIFO, an
//! 8-queue banded-static bank, an 8-queue SP-PIFO bank, a 32-queue banded
//! bank, AIFO, and plain FIFO — same workload, same seed. Reports the
//! pFabric tenant's FCTs and the EDF tenant's deadline hit rate per
//! backend. The experiment is `examples/sweeps/ablation_backend.json`: one
//! axis that sets each backend's `name` and `scheduler`.
//!
//! Usage: cargo run -p qvisor-bench --release --bin ablation_backend
//! (per-point telemetry: `qvisor sweep <document> --telemetry PREFIX`)

use qvisor_bench::harness::ablation_rows;

fn main() {
    let rows = ablation_rows(include_str!(
        "../../../../examples/sweeps/ablation_backend.json"
    ));
    println!("Ablation: deployment backends (policy pFabric >> EDF, load 0.6)");
    println!(
        "{:<28}{:>16}{:>16}{:>16}",
        "backend", "small FCT (ms)", "large FCT (ms)", "EDF on-time (%)"
    );
    for (_, p) in rows {
        let small = p.small_fct_ms.unwrap_or(f64::NAN);
        let large = p.large_fct_ms.unwrap_or(f64::NAN);
        let hit = p.deadline_hit.unwrap_or(f64::NAN) * 100.0;
        println!("{:<28}{small:>16.3}{large:>16.2}{hit:>16.1}", p.label);
    }
    println!(
        "\nMore queues bring the banded bank closer to the PIFO; SP-PIFO \
         adapts without per-policy allocation; FIFO ignores the policy."
    );
}
