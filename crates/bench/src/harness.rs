//! Shared experiment scaffolding: the micro-benchmark timer used by
//! `benches/event_core.rs`, plus the run/measure/snapshot loop the
//! `ablation_*` binaries previously copy-pasted.
//!
//! The bench uses `harness = false`, so it is a plain `main()` that calls
//! [`bench_batched`]. The harness calibrates an iteration count, then
//! reports the best-of-batches ns/iter (the minimum is the most repeatable
//! point estimate for micro-benchmarks, since noise is strictly additive).
//!
//! The ablation side ([`run_one`], [`run_labelled`], [`ablation_scenario`])
//! runs declarative scenarios through the netsim [`Engine`], wiring a
//! fresh telemetry registry per point and writing `PREFIX-<tag>.jsonl`
//! snapshots when requested.

use crate::snapshot;
use qvisor_netsim::scenario::{
    ArrivalSpec, Engine, QvisorSpec, ScenarioSpec, SchedulerSpec, ScopeSpec, SimSpec, SizeDistSpec,
    TenantDecl, TimeRef, TopologySpec, WorkloadSpec,
};
use qvisor_netsim::SimReport;
use qvisor_ranking::RankFnSpec;
use qvisor_sim::{Nanos, TenantId};
use qvisor_telemetry::Telemetry;
use qvisor_topology::LeafSpineConfig;
use qvisor_transport::SizeBucket;
use std::hint::black_box;
use std::time::Instant;

/// Parse `--telemetry PREFIX` from argv; exits with a usage error on a
/// missing value or an unknown flag (shared by the ablation binaries).
pub fn telemetry_prefix() -> Option<String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut prefix = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--telemetry" => {
                prefix = Some(args.get(i + 1).cloned().unwrap_or_else(|| {
                    eprintln!("missing value after --telemetry");
                    std::process::exit(2);
                }));
                i += 1;
            }
            other => {
                eprintln!("unknown option {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    prefix
}

/// Run one scenario through a fresh engine. When `prefix` is set, the run
/// is instrumented and a `PREFIX-<tag>.jsonl` telemetry snapshot is
/// written; failures report the offending path and exit instead of
/// panicking.
pub fn run_one(spec: &ScenarioSpec, prefix: Option<&str>, tag: &str) -> SimReport {
    let telemetry = match prefix {
        Some(_) => Telemetry::enabled(),
        None => Telemetry::disabled(),
    };
    let report = Engine::new()
        .with_telemetry(&telemetry)
        .run(spec)
        .unwrap_or_else(|e| {
            eprintln!("scenario '{}': {e}", spec.name);
            std::process::exit(1);
        });
    if let Some(prefix) = prefix {
        match snapshot::write_snapshot(&telemetry, prefix, tag) {
            Ok(path) => eprintln!("  wrote {path}"),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
    }
    report
}

/// Run each labelled scenario via [`run_one`], handing every report to
/// `row` — the warm-up/run/measure loop shared by the ablation sweeps.
pub fn run_labelled(
    points: &[(String, ScenarioSpec)],
    prefix: Option<&str>,
    mut row: impl FnMut(&str, &SimReport),
) {
    for (tag, spec) in points {
        let report = run_one(spec, prefix, tag);
        row(tag, &report);
    }
}

/// Flow-size scale denominator shared by the backend and quantization
/// ablations (sizes divided by 10, as in the recorded EXPERIMENTS.md runs).
pub const ABLATION_SCALE: u64 = 10;

/// The paper-fabric workload shared by the backend and quantization
/// ablations: 800 pFabric flows at load 0.6 plus 50 EDF CBR streams under
/// `pFabric >> EDF`, with the backend, seed, and pFabric quantization
/// levels as the swept knobs.
pub fn ablation_scenario(
    name: String,
    seed: u64,
    scheduler: SchedulerSpec,
    pf_levels: u64,
) -> ScenarioSpec {
    let fabric = LeafSpineConfig::paper();
    let max_rank = 100_000_000 / ABLATION_SCALE / 1_000;
    ScenarioSpec {
        name,
        seed,
        topology: TopologySpec::LeafSpine {
            leaves: fabric.leaves,
            spines: fabric.spines,
            hosts_per_leaf: fabric.hosts_per_leaf,
            access_bps: fabric.access_bps,
            fabric_bps: fabric.fabric_bps,
            access_delay_ns: fabric.access_delay.as_nanos(),
            fabric_delay_ns: fabric.fabric_delay.as_nanos(),
        },
        sim: SimSpec {
            horizon: TimeRef::At(Nanos::from_secs(3).as_nanos()),
            ..SimSpec::default()
        },
        scheduler,
        host_scheduler: None,
        qvisor: Some(QvisorSpec {
            tenants: vec![
                TenantDecl {
                    id: 1,
                    name: "pFabric".to_string(),
                    algorithm: "pFabric".to_string(),
                    rank_min: 0,
                    rank_max: max_rank,
                    levels: Some(pf_levels),
                },
                TenantDecl {
                    id: 2,
                    name: "EDF".to_string(),
                    algorithm: "EDF".to_string(),
                    rank_min: 0,
                    rank_max: 10,
                    levels: Some(8),
                },
            ],
            policy: "pFabric >> EDF".to_string(),
            unknown_drop: false,
            scope: ScopeSpec::Everywhere,
            monitor: None,
            synth: None,
        }),
        rank_fns: vec![
            (
                1,
                RankFnSpec::PFabric {
                    unit_bytes: 1_000,
                    max_rank,
                },
            ),
            (
                2,
                RankFnSpec::Edf {
                    unit_ns: Nanos::from_micros(60).as_nanos(),
                    max_rank: 10,
                },
            ),
        ],
        workloads: vec![
            WorkloadSpec::Poisson {
                tenant: 1,
                flows: 800,
                sizes: SizeDistSpec::DataMining {
                    scale_den: ABLATION_SCALE,
                },
                arrival: ArrivalSpec::Load(0.6),
                rng_stream: 1,
            },
            WorkloadSpec::CbrFleet {
                tenant: 2,
                streams: 50,
                rate_bps: 500_000_000,
                pkt_size: 1_500,
                start_ns: 0,
                stop: TimeRef::AfterLastArrival(Nanos::from_millis(10).as_nanos()),
                deadline_offset_ns: Nanos::from_micros(300).as_nanos(),
                rng_stream: 2,
            },
        ],
        alerts: Vec::new(),
    }
}

/// Mean FCTs (ms) of `tenant`'s small and large flows under the ablation
/// scale (`NaN` when a bucket is empty, as the table printers expect).
pub fn scaled_fcts(report: &SimReport, tenant: TenantId, scale: u64) -> (f64, f64) {
    let small = SizeBucket {
        lo: 1,
        hi: 100_000 / scale,
    };
    let large = SizeBucket {
        lo: 1_000_000 / scale,
        hi: u64::MAX,
    };
    (
        report
            .fct
            .mean_fct_ms(Some(tenant), small)
            .unwrap_or(f64::NAN),
        report
            .fct
            .mean_fct_ms(Some(tenant), large)
            .unwrap_or(f64::NAN),
    )
}

/// Print the header once at the top of a bench binary.
pub fn print_header(title: &str) {
    println!("{title}");
    println!("{:<44} {:>14}  iters/batch", "benchmark", "ns/iter");
}

fn report(name: &str, iters: u64, ns_per_iter: f64) {
    println!("{name:<44} {ns_per_iter:>14.1}  {iters}");
}

/// Benchmark `routine` on fresh input from `setup`; setup time is excluded.
pub fn bench_batched<S, T>(
    name: &str,
    mut setup: impl FnMut() -> S,
    mut routine: impl FnMut(S) -> T,
) {
    let timed = |n: u64, setup: &mut dyn FnMut() -> S, routine: &mut dyn FnMut(S) -> T| {
        let mut total_ns = 0u128;
        for _ in 0..n {
            let input = setup();
            let t0 = Instant::now();
            black_box(routine(input));
            total_ns += t0.elapsed().as_nanos();
        }
        total_ns
    };
    let mut iters = 1u64;
    loop {
        let ns = timed(iters, &mut setup, &mut routine);
        if ns >= 20_000_000 || iters >= 1 << 24 {
            break;
        }
        iters *= 2;
    }
    let batches = if iters == 1 { 3 } else { 5 };
    let mut best = f64::INFINITY;
    for _ in 0..batches {
        let ns = timed(iters, &mut setup, &mut routine);
        best = best.min(ns as f64 / iters as f64);
    }
    report(name, iters, best);
}
