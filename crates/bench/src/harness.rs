//! Shared experiment scaffolding: the micro-benchmark timer used by
//! `benches/event_core.rs`, plus the run/measure loops of the `fig2` and
//! `ablation_*` binaries.
//!
//! The bench uses `harness = false`, so it is a plain `main()` that calls
//! [`bench_batched`]. The harness calibrates an iteration count, then
//! reports the best-of-batches ns/iter (the minimum is the most repeatable
//! point estimate for micro-benchmarks, since noise is strictly additive).
//!
//! The experiment side runs declarative scenarios through the netsim
//! [`Engine`]: [`run_one`] one hand-built scenario with an optional
//! `PREFIX-<tag>.jsonl` telemetry snapshot, [`ablation_rows`] a whole FCT
//! ablation document reduced to Fig. 4 rows.

use crate::fig4::{self, Fig4Point};
use qvisor_netsim::scenario::{Engine, ScenarioSpec, SweepPoint, SweepSpec};
use qvisor_netsim::SimReport;
use qvisor_telemetry::Telemetry;
use std::hint::black_box;
use std::time::Instant;

/// `PREFIX` from an argv of `--telemetry PREFIX`, `None` from an empty
/// one; anything else exits 2 with a usage error (`ablation_sharegroups`).
pub fn telemetry_prefix() -> Option<String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => None,
        [flag, prefix] if flag == "--telemetry" => Some(prefix.clone()),
        _ => {
            eprintln!("usage: [--telemetry PREFIX], not {args:?}");
            std::process::exit(2);
        }
    }
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
        let path = format!("{prefix}-{}.jsonl", slug(tag));
        if let Err(e) = std::fs::write(&path, telemetry.export_jsonl()) {
            eprintln!("cannot write snapshot {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("  wrote {path}");
    }
    report
}

/// Reduce a human label (`"QVISOR: pFabric >> EDF"`) to a file-name-safe
/// tag (`"qvisor_pfabric_over_edf"`). Policy operators are spelled out so
/// `A >> B` and `A + B` stay distinct files.
fn slug(label: &str) -> String {
    let label = label.replace(">>", " over ").replace('+', " plus ");
    let mut out = String::with_capacity(label.len());
    let mut last_sep = true;
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
            last_sep = false;
        } else if !last_sep {
            out.push('_');
            last_sep = true;
        }
    }
    while out.ends_with('_') {
        out.pop();
    }
    out
}

/// The rows of a compiled-in FCT ablation document (`ablation_backend`,
/// `ablation_quantization`), each beside the point it reduces: every point
/// run, in grid order. The ablation binaries take no options; any argument,
/// or a document that does not resolve or run, exits with a message.
pub fn ablation_rows(doc: &str) -> Vec<(SweepPoint, Fig4Point)> {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("unknown option {arg} (this ablation takes none)");
        std::process::exit(2);
    }
    let rows = SweepSpec::from_json(doc)
        .map_err(|e| e.to_string())
        .and_then(|sweep| fig4::resolve(&sweep))
        .and_then(|points| {
            let rows = fig4::run_points(&points, |_, _| {})?;
            Ok(points.into_iter().zip(rows).collect())
        });
    rows.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    })
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slugs_are_file_safe() {
        assert_eq!(slug("QVISOR: pFabric >> EDF"), "qvisor_pfabric_over_edf");
        assert_eq!(slug("QVISOR: pFabric + EDF"), "qvisor_pfabric_plus_edf");
        assert_eq!(slug("8q SP-PIFO"), "8q_sp_pifo");
        assert_eq!(slug("load 0.6"), "load_0_6");
    }
}
