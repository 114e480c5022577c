//! Regenerates the paper's Fig. 4: mean FCT of the pFabric tenant's small
//! (4a) and large (4b) flows across loads 0.2–0.8 under six schemes.
//!
//! ```text
//! Usage:
//!   cargo run -p qvisor-bench --release --bin fig4 [-- OPTIONS]
//!
//! Options:
//!   --smoke            small fabric, tiny workload (seconds)
//!   --flows N          pFabric flows per point   (default 2000)
//!   --scale N          divide flow sizes by N    (default 10)
//!   --loads a,b,c      loads to sweep            (default 0.2..=0.8)
//!   --workload W       datamining | websearch    (default datamining)
//!   --seed N           root seed                 (default 1)
//!   --json PATH        also dump machine-readable results
//!   --telemetry PREFIX write a telemetry snapshot PREFIX-<scheme>-<load>.jsonl
//!                      per point (render with `qvisor telemetry report`)
//!   --trace PREFIX     write a packet-lifecycle trace
//!                      PREFIX-<scheme>-<load>.trace.jsonl per point
//!                      (render with `qvisor trace report`, convert for
//!                      Perfetto with `qvisor trace export`)
//!   --trace-sample N   trace one flow in N (default 1 = every flow)
//! ```

use qvisor_bench::{run_point_instrumented, snapshot, Fig4Config, Fig4Point, Scheme};
use qvisor_telemetry::{Telemetry, TraceConfig, Tracer};
use std::io::Write;

struct Outputs {
    json: Option<String>,
    telemetry: Option<String>,
    trace: Option<String>,
    trace_sample: u64,
}

fn parse_args() -> (Fig4Config, Vec<f64>, Outputs) {
    let mut cfg = Fig4Config::paper_scaled();
    let mut loads: Vec<f64> = (2..=8).map(|l| l as f64 / 10.0).collect();
    let mut json = None;
    let mut telemetry = None;
    let mut trace = None;
    let mut trace_sample = 1u64;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i)
                .unwrap_or_else(|| {
                    eprintln!("missing value after {}", args[*i - 1]);
                    std::process::exit(2);
                })
                .clone()
        };
        match args[i].as_str() {
            "--smoke" => {
                let keep_seed = cfg.seed;
                cfg = Fig4Config::smoke();
                cfg.seed = keep_seed;
            }
            "--flows" => cfg.flows = number("--flows", &value(&mut i)),
            "--scale" => cfg.size_scale_den = positive("--scale", &value(&mut i)),
            "--seed" => cfg.seed = number("--seed", &value(&mut i)),
            "--loads" => {
                loads = value(&mut i)
                    .split(',')
                    .map(|s| positive("--loads", s))
                    .collect();
            }
            "--json" => json = Some(value(&mut i)),
            "--telemetry" => telemetry = Some(value(&mut i)),
            "--trace" => trace = Some(value(&mut i)),
            "--trace-sample" => {
                trace_sample = positive("--trace-sample", &value(&mut i));
            }
            "--workload" => {
                cfg.workload = match value(&mut i).as_str() {
                    "datamining" => qvisor_bench::Workload::DataMining,
                    "websearch" => qvisor_bench::Workload::WebSearch,
                    other => {
                        eprintln!("unknown workload {other}");
                        std::process::exit(2);
                    }
                };
            }
            other => {
                eprintln!("unknown option {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    (
        cfg,
        loads,
        Outputs {
            json,
            telemetry,
            trace,
            trace_sample,
        },
    )
}

/// `text` as the number `flag` takes, or exit 2 saying what was wrong.
fn number<T: std::str::FromStr>(flag: &str, text: &str) -> T {
    text.parse().unwrap_or_else(|_| {
        eprintln!("{flag} takes a number, not {text:?}");
        std::process::exit(2);
    })
}

/// [`number`], which must also be above zero (a size divisor, a load, a
/// sampling modulus).
fn positive<T: std::str::FromStr + PartialOrd + Default>(flag: &str, text: &str) -> T {
    let n: T = number(flag, text);
    if n.partial_cmp(&T::default()) != Some(std::cmp::Ordering::Greater) {
        eprintln!("{flag} takes a number above zero, not {text:?}");
        std::process::exit(2);
    }
    n
}

/// Exit with the snapshot error's message (which names the path) instead
/// of panicking on a bad `--telemetry`/`--trace` prefix.
fn written(result: Result<String, snapshot::SnapshotError>) -> String {
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    })
}

/// Run one (scheme, load) point with whatever instrumentation the flags
/// ask for, writing per-point snapshots as we go.
fn run_point(scheme: Scheme, load: f64, cfg: &Fig4Config, outputs: &Outputs) -> Fig4Point {
    let t0 = std::time::Instant::now();
    let telemetry = match outputs.telemetry {
        Some(_) => Telemetry::enabled(),
        None => Telemetry::disabled(),
    };
    let tracer = match outputs.trace {
        Some(_) => Tracer::enabled(TraceConfig {
            sample_one_in: outputs.trace_sample,
            seed: cfg.seed,
            ..TraceConfig::default()
        }),
        None => Tracer::disabled(),
    };
    let p = run_point_instrumented(scheme, load, cfg, &telemetry, &tracer);
    let tag = format!("{}-load{load}", scheme.label());
    if let Some(prefix) = &outputs.telemetry {
        eprintln!(
            "    wrote {}",
            written(snapshot::write_snapshot(&telemetry, prefix, &tag))
        );
    }
    if let Some(prefix) = &outputs.trace {
        eprintln!(
            "    wrote {}",
            written(snapshot::write_trace_snapshot(&tracer, prefix, &tag))
        );
    }
    eprintln!(
        "  {:<26} load {:.1}: small {:>8} ms, large {:>9} ms, \
         {}/{} flows, {:>4.1}s wall",
        scheme.label(),
        load,
        p.small_fct_ms.map_or("-".into(), |v| format!("{v:.3}")),
        p.large_fct_ms.map_or("-".into(), |v| format!("{v:.2}")),
        p.completed,
        p.completed as u64 + p.incomplete,
        t0.elapsed().as_secs_f64(),
    );
    p
}

fn print_tables(results: &[Vec<Fig4Point>], loads: &[f64]) {
    for (title, pick) in [
        (
            "Figure 4a: (0,100KB) mean FCTs of pFabric traffic (ms)",
            0usize,
        ),
        (
            "Figure 4b: [1MB,inf) mean FCTs of pFabric traffic (ms)",
            1usize,
        ),
    ] {
        println!("\n{title}");
        print!("{:<26}", "scheme \\ load");
        for l in loads {
            print!("{l:>9.1}");
        }
        println!();
        for (si, scheme) in Scheme::ALL.iter().enumerate() {
            print!("{:<26}", scheme.label());
            for p in &results[si] {
                let v = if pick == 0 {
                    p.small_fct_ms
                } else {
                    p.large_fct_ms
                };
                match v {
                    Some(v) if pick == 0 => print!("{v:>9.3}"),
                    Some(v) => print!("{v:>9.2}"),
                    None => print!("{:>9}", "-"),
                }
            }
            println!();
        }
    }
}

fn write_json(results: &[Vec<Fig4Point>], path: &str) {
    use qvisor_sim::json::Value;
    let rows: Vec<Value> = Scheme::ALL
        .iter()
        .enumerate()
        .flat_map(|(si, s)| {
            results[si].iter().map(move |p| {
                Value::object()
                    .set("scheme", s.label())
                    .set("load", p.load)
                    .set("small_fct_ms", p.small_fct_ms)
                    .set("large_fct_ms", p.large_fct_ms)
                    .set("completed", p.completed)
                    .set("incomplete", p.incomplete)
                    .set("deadline_hit", p.deadline_hit)
            })
        })
        .collect();
    let fail = |e: std::io::Error| -> ! {
        eprintln!("cannot write results {path}: {e}");
        std::process::exit(1);
    };
    let mut f = std::fs::File::create(path).unwrap_or_else(|e| fail(e));
    writeln!(f, "{}", Value::from(rows).to_pretty()).unwrap_or_else(|e| fail(e));
    eprintln!("wrote {path}");
}

fn main() {
    let (cfg, loads, outputs) = parse_args();
    eprintln!(
        "fig4: {} hosts, {} flows/point, sizes /{}, {} CBR x {} Mbps, loads {loads:?}",
        cfg.fabric.leaves * cfg.fabric.hosts_per_leaf,
        cfg.flows,
        cfg.size_scale_den,
        cfg.cbr_streams,
        cfg.cbr_rate_bps / 1_000_000,
    );
    // results[scheme][load index]
    let results: Vec<Vec<Fig4Point>> = Scheme::ALL
        .iter()
        .map(|&scheme| {
            loads
                .iter()
                .map(|&load| run_point(scheme, load, &cfg, &outputs))
                .collect()
        })
        .collect();
    print_tables(&results, &loads);
    if let Some(path) = &outputs.json {
        write_json(&results, path);
    }
}
