//! `qbench` — the repository's benchmark.
//!
//! ```text
//! qbench --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//! qbench [--seed N] [--seconds S] [--runs K]             every workload, untraced → out/result.json
//! qbench trace [--seed N] [--seconds S] [--runs K]       every workload, traced   → out/trace.json
//! qbench compare a.json b.json                           judge two result files
//! qbench manifest                                        print BENCHMARK.json
//! ```
//!
//! See `benchmark/README.md` for the metric catalogue and how the layers
//! are expected to move the end-to-end numbers.

mod calib;
mod catalog;
mod compare;
mod host;
mod oracle;
mod probes;
mod result;
mod spans;
mod stats;
mod workloads;

use qvisor_sim::json::Value;
use result::{Row, SuiteResult, WorkloadResult};
use stats::Summary;
use std::path::Path;
use std::process::{Command, ExitCode};
use workloads::{Budget, Outcome, RunCfg};

/// Where suites and traces go, relative to the repository root (`run.sh`
/// changes there first).
const OUT_DIR: &str = "benchmark/out";

/// Options shared by every form of the command line.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    reps: Option<usize>,
    runs: u64,
    trace: bool,
    detail: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: catalog::RUN_SECONDS,
        reps: None,
        runs: 1,
        trace: false,
        detail: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value.to_string()),
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.max(1),
            "--reps" => parsed.reps = Some(number()?.max(1) as usize),
            "--runs" => parsed.runs = number()?.max(1),
            "--trace" => parsed.trace = number()? != 0,
            "--detail" => parsed.detail = number()? != 0,
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(parsed)
}

fn run_workload(name: &str, cfg: &RunCfg) -> Result<Outcome, String> {
    match name {
        "fig4_fabric" => Ok(workloads::fig4::run(cfg, false)),
        "fig4_observed" => Ok(workloads::fig4::run(cfg, true)),
        "dataplane_min_pkt" => Ok(workloads::dataplane::run(cfg)),
        "control_churn" => workloads::churn::run(cfg),
        "fuzz_campaign" => Ok(workloads::fuzz::run(cfg)),
        other => Err(format!(
            "unknown workload {other}; the workloads are {}",
            catalog::WORKLOADS.map(|w| w.name).join(", ")
        )),
    }
}

/// Run one workload (and, traced, the layer probes) into a result.
/// Returns the spans of its traced reps beside it.
fn measure(name: &str, cfg: &RunCfg) -> Result<(WorkloadResult, Vec<spans::Span>), String> {
    let outcome = run_workload(name, cfg)?;
    let peak_rss = host::peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?;
    // In catalogue order.
    let values = [
        outcome.work_per_s,
        outcome.op_ms,
        outcome.setup_s,
        Summary::single(peak_rss),
    ];
    let end_to_end = catalog::END_TO_END
        .iter()
        .zip(values)
        .map(|(m, summary)| Row::new(m.name, m.unit, summary))
        .collect();

    let mut notes = outcome.notes;
    let mut per_layer = Vec::new();
    if cfg.trace {
        let overhead = outcome.trace_overhead_share.unwrap_or(0.0);
        let (rows, probe_notes) = probes::run_all(cfg.seed, cfg.smoke, overhead)?;
        per_layer = rows;
        for (span, share, count) in spans::self_shares(&outcome.spans) {
            notes.push(format!(
                "span self time: {span:<28} {:>6.2} % of the traced root spans ({count} spans)",
                share * 100.0
            ));
        }
        notes.extend(probe_notes);
    }
    let result = WorkloadResult {
        workload: name.to_string(),
        seed: cfg.seed,
        traced: cfg.trace,
        correct: outcome.correct && outcome.attempted > 0,
        attempted: outcome.attempted,
        failed: outcome.failed,
        reps: outcome.reps,
        end_to_end,
        extras: outcome
            .extras
            .into_iter()
            .map(|e| Row::new(e.name, e.unit, e.summary))
            .collect(),
        per_layer,
        notes,
    };
    Ok((result, outcome.spans))
}

fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("{}: {e}", path.display()))
}

/// One run: human-readable rows first, the result as one JSON line last —
/// in the driver's form, or whole (`--detail 1`, what a suite reads back).
fn run_one(args: &Args) -> Result<bool, String> {
    let name = args.workload.as_deref().expect("caller checked");
    let cfg = RunCfg {
        seed: args.seed,
        // A traced run spends half its seconds on the workload (its reps
        // only feed the spans and the recorder's overhead) and the rest,
        // roughly, on the layer probes.
        budget: match args.reps {
            Some(n) => Budget::Reps(n),
            None if args.trace => Budget::Seconds(args.seconds as f64 / 2.0),
            None => Budget::Seconds(args.seconds as f64),
        },
        trace: args.trace,
        smoke: false,
    };
    let (result, spans) = measure(name, &cfg)?;
    print!("{}", result.render());
    if cfg.trace {
        let path = Path::new(OUT_DIR).join(format!("trace-{name}.jsonl"));
        write_file(&path, &spans::to_jsonl(name, &spans))?;
        println!("wrote {} ({} spans)", path.display(), spans.len());
    }
    if args.detail {
        println!("{}", result.to_value().to_compact());
    } else {
        println!("{}", result.contract_line());
    }
    Ok(result.correct)
}

/// Run one child to its end and take its result from the last line of its
/// standard output. Nothing passes through a file, so a child that dies
/// cannot leave an earlier run's result to be read in its place; a child
/// that exits non-zero, or answers for another workload, seed or mode than
/// it was asked, fails the suite.
fn child_result(
    child: &mut Command,
    workload: &str,
    seed: u64,
    traced: bool,
) -> Result<WorkloadResult, String> {
    let output = child
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let failure = |what: String| {
        format!(
            "{workload} (seed {seed}) {what}; it printed:\n{stdout}{}",
            String::from_utf8_lossy(&output.stderr)
        )
    };
    if !output.status.success() {
        return Err(failure(format!("ended with {}", output.status)));
    }
    let result = Value::parse(stdout.lines().last().unwrap_or(""))
        .map_err(|e| e.to_string())
        .and_then(|v| WorkloadResult::from_value(&v))
        .map_err(|e| failure(format!("printed no result ({e})")))?;
    if (result.workload.as_str(), result.seed, result.traced) != (workload, seed, traced) {
        return Err(failure(format!(
            "answered for {} seed {} traced {}",
            result.workload, result.seed, result.traced
        )));
    }
    Ok(result)
}

/// Every workload `--runs` times over, run `i` with seed `--seed + i`,
/// each in a child process of its own (a clean `peak_rss_mb`, and one
/// run's heap cannot warm the next).
fn run_suite(args: &Args, traced: bool) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let host = host::facts();
    println!("host: {}", host.to_compact());
    let mut runs = Vec::new();
    for w in &catalog::WORKLOADS {
        for seed in args.seed..args.seed + args.runs {
            eprintln!(
                "qbench: {} ({}, seed {seed})...",
                w.name,
                if traced { "traced" } else { "untraced" }
            );
            let mut child = Command::new(&exe);
            child
                .args(["--workload", w.name])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .args(["--detail", "1"]);
            if let Some(reps) = args.reps {
                child.args(["--reps", &reps.to_string()]);
            }
            let result = child_result(&mut child, w.name, seed, traced)?;
            print!("{}", result.render());
            runs.push(result);
        }
    }
    let suite = SuiteResult {
        host,
        seed: args.seed,
        seconds: args.seconds,
        runs,
    };
    if traced {
        print!("{}", suite.render_layers());
    }
    let path = Path::new(OUT_DIR).join(if traced { "trace.json" } else { "result.json" });
    write_file(&path, &suite.to_json())?;
    println!("wrote {}", path.display());
    // A child whose checks failed has already failed the suite above.
    let ok = suite.runs.iter().all(|w| w.correct && w.failed == 0);
    println!(
        "qbench: {}",
        if ok {
            "every output check passed, no operation failed"
        } else {
            "FAILED operations (see the notes above)"
        }
    );
    Ok(ok)
}

fn run_compare(paths: &[String]) -> Result<bool, String> {
    let [before, after] = paths else {
        return Err("usage: qbench compare <before.json> <after.json>".to_string());
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        SuiteResult::from_json(&text).map_err(|e| format!("{path}: {e}"))
    };
    let cmp = compare::compare(&load(before)?, &load(after)?);
    print!("{}", cmp.render());
    Ok(cmp.agrees())
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("manifest") => {
            println!("{}", catalog::manifest().to_pretty());
            Ok(true)
        }
        Some("compare") => run_compare(&args[1..]),
        Some("trace") => run_suite(&parse_args(&args[1..])?, true),
        _ => {
            let parsed = parse_args(args)?;
            if parsed.workload.is_some() {
                run_one(&parsed)
            } else {
                run_suite(&parsed, false)
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("qbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One timed rep of shrunken inputs: what `--reps 1` does at full size.
    fn dry_run(name: &str, trace: bool) -> Result<(WorkloadResult, Vec<spans::Span>), String> {
        let cfg = RunCfg {
            seed: 7,
            budget: Budget::Reps(if trace { 2 } else { 1 }),
            trace,
            smoke: true,
        };
        measure(name, &cfg)
    }

    fn emitted(result: &WorkloadResult) -> Vec<String> {
        let line = Value::parse(&result.contract_line()).expect("contract line is JSON");
        let metrics = line.get("metrics").and_then(Value::as_object).unwrap();
        for (name, m) in metrics {
            let value = m.get("value").and_then(Value::as_f64).unwrap();
            assert!(value.is_finite(), "{name} = {value}");
            assert!(m.get("unit").and_then(Value::as_str).is_some(), "{name}");
        }
        metrics.iter().map(|(k, _)| k.clone()).collect()
    }

    #[test]
    fn every_end_to_end_metric_is_emitted_by_a_dry_run_of_every_workload() {
        let wanted: Vec<&str> = catalog::END_TO_END.iter().map(|m| m.name).collect();
        for w in &catalog::WORKLOADS {
            if w.name == "control_churn" && host::nproc() < workloads::churn::CONNECTIONS {
                assert!(dry_run(w.name, false).unwrap_err().contains("refuses"));
                continue;
            }
            let (result, spans) = dry_run(w.name, false).unwrap();
            assert_eq!(emitted(&result), wanted, "{}", w.name);
            assert!(result.correct, "{}: {:?}", w.name, result.notes);
            assert!(result.attempted >= 1 && result.failed == 0, "{}", w.name);
            assert!(spans.is_empty(), "{}: untraced runs record nothing", w.name);
            for row in &result.end_to_end {
                assert!(row.summary.value > 0.0, "{} {} is zero", w.name, row.name);
            }
        }
    }

    #[test]
    fn every_per_layer_metric_is_emitted_by_a_traced_dry_run() {
        if host::nproc() < workloads::churn::CONNECTIONS {
            return; // the serve probes refuse, as the workload does
        }
        let wanted: Vec<&str> = catalog::PER_LAYER.iter().map(|m| m.name).collect();
        let (result, spans) = dry_run("dataplane_min_pkt", true).unwrap();
        assert_eq!(emitted(&result), wanted);
        assert!(result.correct, "{:?}", result.notes);
        let names: std::collections::BTreeSet<&str> = spans.iter().map(|s| s.name).collect();
        assert!(
            names.contains("core.preproc") && names.contains("scheduler.dequeue"),
            "{names:?}"
        );
        assert!(spans.iter().all(|s| s.rep % 2 == 1), "odd reps are traced");
        let shares: f64 = spans::self_shares(&spans).iter().map(|r| r.1).sum();
        assert!((shares - 1.0).abs() < 1e-9, "self shares sum to {shares}");
    }

    /// A stand-in child: prints `line` last, then exits with `code`.
    fn child(line: &str, code: u8) -> Command {
        let mut sh = Command::new("sh");
        sh.args(["-c", "printf 'rows\\n%s\\n' \"$1\"; exit \"$2\"", "sh"])
            .arg(line)
            .arg(code.to_string());
        sh
    }

    #[test]
    fn a_suite_takes_a_result_only_from_a_child_that_succeeded_and_answered_the_question() {
        let result = result::tests::sample("fig4_fabric", 100.0, 99.0, 101.0, 0);
        let line = result.to_value().to_compact();
        assert_eq!(
            child_result(&mut child(&line, 0), "fig4_fabric", 1, false).unwrap(),
            result
        );
        // A failing child fails the suite, whatever it printed or left behind.
        for code in [1, 2, 101] {
            let e = child_result(&mut child(&line, code), "fig4_fabric", 1, false).unwrap_err();
            assert!(e.contains("ended with") && e.contains("rows"), "{e}");
        }
        // So does an answer to another question...
        let e = child_result(&mut child(&line, 0), "fig4_fabric", 5, false).unwrap_err();
        assert!(e.contains("answered for fig4_fabric seed 1"), "{e}");
        assert!(child_result(&mut child(&line, 0), "fuzz_campaign", 1, false).is_err());
        assert!(child_result(&mut child(&line, 0), "fig4_fabric", 1, true).is_err());
        // ...no answer at all, or no child.
        let e = child_result(&mut child("not json", 0), "fig4_fabric", 1, false).unwrap_err();
        assert!(e.contains("printed no result"), "{e}");
        let mut missing = Command::new("/no/such/qbench");
        assert!(child_result(&mut missing, "fig4_fabric", 1, false).is_err());
    }

    #[test]
    fn arguments_parse_in_the_drivers_form() {
        let argv: Vec<String> = "--workload fig4_fabric --seed 9 --seconds 3 --trace 1 --reps 2"
            .split(' ')
            .map(str::to_string)
            .collect();
        let args = parse_args(&argv).unwrap();
        assert_eq!(args.workload.as_deref(), Some("fig4_fabric"));
        assert_eq!((args.seed, args.seconds, args.reps), (9, 3, Some(2)));
        assert!(args.trace && !args.detail);
        assert_eq!(args.runs, 1);
        assert!(parse_args(&["--seed".to_string()]).is_err());
        assert!(parse_args(&["--bogus".to_string(), "1".to_string()]).is_err());
        let cfg = RunCfg {
            seed: 1,
            budget: Budget::Reps(1),
            trace: false,
            smoke: true,
        };
        assert!(run_workload("no_such_workload", &cfg)
            .unwrap_err()
            .contains("fig4_fabric"));
    }
}
