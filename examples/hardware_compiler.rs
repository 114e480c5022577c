//! Compiling a policy onto constrained hardware (§5 "compiling scheduling
//! policies into hardware").
//!
//! When the switch cannot express the requested policy faithfully, QVISOR
//! does not just fail: it proposes a *partial specification* that fits,
//! and reports exactly which concessions were made and which guarantees
//! still hold. This example compiles the same three-tenant policy onto
//! progressively weaker switches.
//!
//! Run with: `cargo run --example hardware_compiler`

use qvisor::core::{compile, HardwareModel, Policy, SynthConfig, TenantSpec};
use qvisor::ranking::RankRange;
use qvisor::sim::TenantId;

fn main() {
    let specs = vec![
        TenantSpec::new(TenantId(1), "T1", "pFabric", RankRange::new(0, 1 << 20))
            .with_levels(4_096),
        TenantSpec::new(TenantId(2), "T2", "EDF", RankRange::new(0, 10_000)).with_levels(1_024),
        TenantSpec::new(TenantId(3), "T3", "FQ", RankRange::new(0, 1_000)).with_levels(64),
    ];
    let policy = Policy::parse("T1 >> T2 >> T3").unwrap();
    println!("requested policy : {policy}");
    println!("requested levels : T1={}, T2={}, T3={}\n", 4_096, 1_024, 64);

    let targets = [
        (
            "big PIFO-ish switch (24-bit ranks, 32 queues)",
            32usize,
            (1u64 << 24) - 1,
        ),
        (
            "commodity switch (16-bit ranks, 8 queues)",
            8,
            u16::MAX as u64,
        ),
        ("legacy switch (8-bit ranks, 4 queues)", 4, 255),
        ("toy switch (4-bit ranks, 2 queues)", 2, 15),
    ];

    for (name, queues, max_rank) in targets {
        let hw = HardwareModel { queues, max_rank };
        println!("=== {name} ===");
        match compile(&specs, &policy, SynthConfig::default(), &hw) {
            Ok(out) => {
                if out.concessions.is_empty() {
                    println!("  compiled faithfully");
                } else {
                    println!("  compiled with {} concessions:", out.concessions.len());
                    for c in &out.concessions {
                        println!("    - {c}");
                    }
                }
                println!("  deployed policy : {}", out.policy);
                println!("  rank span       : {}", out.joint.output_span());
                println!(
                    "  guarantees      : {}",
                    if out.guarantees.guarantees_hold() {
                        "all hold"
                    } else {
                        "violations present"
                    }
                );
            }
            Err(e) => println!("  cannot compile: {e}"),
        }
        println!();
    }
}
