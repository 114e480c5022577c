//! Regenerates the paper's Fig. 4: mean FCT of the pFabric tenant's small
//! (4a) and large (4b) flows across loads under each scheme, from a sweep
//! document.
//!
//! ```text
//! Usage:
//!   cargo run -p qvisor-bench --release --bin fig4 -- <sweep.json> [--json PATH]
//!
//!   examples/sweeps/fig4_paper.json      the recorded run (fig4_output.txt)
//!   examples/sweeps/fig4_websearch.json  web-search sizes (fig4_websearch.txt)
//!   examples/sweeps/fig4_smoke.json      small fabric, seconds
//!
//! Options:
//!   --json PATH        also dump machine-readable results
//! ```
//!
//! A row's label is its point's scenario `name`; its load and size divisor
//! come from tenant 1's Poisson workload. The points run in parallel on
//! every core, and the output does not depend on how many there are.
//! Per-point telemetry is `qvisor sweep <sweep.json> --telemetry PREFIX`;
//! a packet trace is `qvisor run <scenario.json> --trace PATH`.

use qvisor_bench::fig4::{resolve, run_points, Fig4Point};
use qvisor_netsim::SweepSpec;
use qvisor_sim::json::Value;
use std::io::Write;

const USAGE: &str = "usage: fig4 <sweep.json> [--json PATH]";

/// Exit 2 with `msg` and the usage line: a bad invocation or document.
fn usage_error(msg: &str) -> ! {
    eprintln!("fig4: {msg}\n{USAGE}");
    std::process::exit(2);
}

/// The document path and the `--json` path.
fn parse_args() -> (String, Option<String>) {
    let mut doc = None;
    let mut json = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => match args.next() {
                Some(path) => json = Some(path),
                None => usage_error("missing value after --json"),
            },
            flag if flag.starts_with("--") => usage_error(&format!("unknown option {flag}")),
            _ if doc.is_some() => usage_error(&format!("unexpected argument {arg}")),
            _ => doc = Some(arg),
        }
    }
    let Some(doc) = doc else {
        usage_error("no sweep document given")
    };
    (doc, json)
}

/// `items` with repeats dropped, in order of first appearance.
fn distinct<T: PartialEq + Clone>(items: impl Iterator<Item = T>) -> Vec<T> {
    let mut out = Vec::new();
    for item in items {
        if !out.contains(&item) {
            out.push(item);
        }
    }
    out
}

/// A table's column: one FCT series of a row.
type Series = fn(&Fig4Point) -> Option<f64>;

fn print_tables(rows: &[Fig4Point]) {
    let labels = distinct(rows.iter().map(|p| p.label.as_str()));
    let loads = distinct(rows.iter().map(|p| p.load));
    let tables: [(&str, Series, usize); 2] = [
        (
            "Figure 4a: (0,100KB) mean FCTs of pFabric traffic (ms)",
            |p| p.small_fct_ms,
            3,
        ),
        (
            "Figure 4b: [1MB,inf) mean FCTs of pFabric traffic (ms)",
            |p| p.large_fct_ms,
            2,
        ),
    ];
    for (title, series, decimals) in tables {
        println!("\n{title}");
        print!("{:<26}", "scheme \\ load");
        for l in &loads {
            print!("{l:>9.1}");
        }
        println!();
        for label in &labels {
            print!("{label:<26}");
            for load in &loads {
                let p = rows.iter().find(|p| p.label == *label && p.load == *load);
                match p.and_then(series) {
                    Some(v) => print!("{v:>9.decimals$}"),
                    None => print!("{:>9}", "-"),
                }
            }
            println!();
        }
    }
}

fn write_json(rows: &[Fig4Point], path: &str) {
    let rows: Vec<Value> = rows
        .iter()
        .map(|p| {
            Value::object()
                .set("scheme", p.label.as_str())
                .set("load", p.load)
                .set("small_fct_ms", p.small_fct_ms)
                .set("large_fct_ms", p.large_fct_ms)
                .set("completed", p.completed)
                .set("incomplete", p.incomplete)
                .set("deadline_hit", p.deadline_hit)
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
    let (doc, json) = parse_args();
    let text = std::fs::read_to_string(&doc)
        .unwrap_or_else(|e| usage_error(&format!("cannot read {doc}: {e}")));
    let points = SweepSpec::from_json(&text)
        .map_err(|e| e.to_string())
        .and_then(|sweep| resolve(&sweep))
        .unwrap_or_else(|e| usage_error(&format!("{doc}: {e}")));
    eprintln!("fig4: {} points from {doc}", points.len());
    let rows = run_points(&points, |p, wall| {
        eprintln!(
            "  {:<26} load {:.1}: small {:>8} ms, large {:>9} ms, {}/{} flows, {:>4.1}s wall",
            p.label,
            p.load,
            p.small_fct_ms.map_or("-".into(), |v| format!("{v:.3}")),
            p.large_fct_ms.map_or("-".into(), |v| format!("{v:.2}")),
            p.completed,
            p.completed as u64 + p.incomplete,
            wall.as_secs_f64(),
        );
    })
    .unwrap_or_else(|e| {
        eprintln!("fig4: {e}");
        std::process::exit(1);
    });
    print_tables(&rows);
    if let Some(path) = &json {
        write_json(&rows, path);
    }
}
