//! `bench-pairs`: a performance claim measured as alternating parent/change
//! pairs, written to `BENCH_<pr>.json` at the repository root.
//!
//! ```text
//! cargo run -p qvisor-xtask -- bench-pairs <parent-rev> --workload W [--workload W2 …]
//!     --pairs N --seeds A..B --pr P [--seconds S] [--trace 0|1] [--metrics m1,m2]
//! ```
//!
//! The parent is checked out as a detached `git worktree` under
//! `target/bench-pairs/`, removed again when the runs end. Each side builds
//! its own `qbench` from its own checkout into its own `CARGO_TARGET_DIR`
//! (the command `benchmark/run.sh` starts with), then every run goes
//! through `benchmark/run.sh --workload W --seed N --seconds S --trace T`,
//! from that side's checkout, the command `BENCHMARK.json` names. The change
//! is the working tree, committed or not; the file names it by `HEAD` and by
//! `change_tree`, the tree hash of the working tree as measured (new files
//! included, ignored ones not). Pair `i` runs seed `A + i`, the
//! parent first on even pairs and the change first on odd ones, and reads
//! each run's result from the last line it prints. Nothing under
//! `benchmark/` is written but what `qbench` itself leaves there: a traced
//! run (`--trace 1`) writes its span file to the git-ignored
//! `benchmark/out/`. Traced runs, whose result line holds the per-layer
//! probe rows instead of the end-to-end metrics, write
//! `BENCH_<pr>.trace.json` beside the claim.
//!
//! Both checkouts lie under the repository root, so cargo's upward search
//! finds the change's `.cargo/config.toml` above the parent's own; the
//! parent's wins wherever both set a key. A change to the build profile is
//! measured from a clone outside the repository instead.
//!
//! Per metric, the file holds both sides' runs, medians and quartiles, the
//! pairs the change was ahead and behind in, and the median per-pair ratio
//! `change / parent` with a seeded 95 % bootstrap interval. The pairs read
//! `gain` (`loss`) when the interval lies wholly on the better (worse) side
//! of 1 and the change was ahead in 9 pairs in 10 (behind in 8). The verdict
//! is the first that holds of: `unresolved` when either side's quartiles lie
//! further apart than the metric's bound as a share of its median, unless
//! the pairs read `loss` or every change run is better than every parent
//! run; `regressed` when the change's median is worse by more than the
//! bound; `gain`; `loss`; `unchanged`. A workload whose run is
//! incorrect, or whose change fails a larger share of operations, reads
//! `failed`. The command exits 2 unless every workload reads `unchanged`
//! or `gain`.

use qvisor_sim::json::Value;
use qvisor_sim::SimRng;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

pub const USAGE: &str = "cargo run -p qvisor-xtask -- bench-pairs <parent-rev> --workload W \
                         --pairs N --seeds A..B --pr P [--seconds S] [--trace 0|1] \
                         [--metrics m1,m2]";

/// What to measure.
#[derive(Debug, PartialEq)]
struct Args {
    parent: String,
    workloads: Vec<String>,
    pairs: u64,
    first_seed: u64,
    pr: u64,
    seconds: Option<u64>,
    trace: bool,
    /// Keep only these metrics of each run; all of them when empty.
    metrics: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut it = args.iter();
    let parent = it.next().filter(|a| !a.starts_with("--"));
    let parent = parent.ok_or("bench-pairs needs the parent revision first")?;
    let (mut workloads, mut pairs, mut seeds, mut pr) = (Vec::new(), None, None, None);
    let (mut seconds, mut trace, mut metrics) = (None, false, Vec::new());
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number =
            || (value.parse::<u64>()).map_err(|_| format!("{flag}: '{value}' is not a number"));
        match flag.as_str() {
            "--workload" => workloads.push(value.clone()),
            "--pairs" => pairs = Some(number()?),
            "--seeds" => {
                let (a, b) = (value.split_once(".."))
                    .and_then(|(a, b)| Some((a.parse::<u64>().ok()?, b.parse::<u64>().ok()?)))
                    .ok_or(format!("--seeds: '{value}' is not a range A..B"))?;
                seeds = Some((a, b));
            }
            "--pr" => pr = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = number()? != 0,
            "--metrics" => metrics = value.split(',').map(str::to_string).collect(),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let (a, b) = seeds.ok_or("--seeds A..B is required")?;
    let pairs = pairs.ok_or("--pairs N is required")?;
    if pairs == 0 || b.saturating_sub(a) < pairs {
        return Err(format!(
            "--seeds {a}..{b} holds fewer than --pairs {pairs} seeds"
        ));
    }
    if workloads.is_empty() {
        return Err("at least one --workload is required".into());
    }
    Ok(Args {
        parent: parent.clone(),
        workloads,
        pairs,
        first_seed: a,
        pr: pr.ok_or("--pr P (the file is BENCH_<P>.json) is required")?,
        seconds,
        trace,
        metrics,
    })
}

/// A metric as `BENCHMARK.json` declares it.
struct Declared {
    name: String,
    higher_is_better: bool,
    /// `None` for a per-layer metric.
    bound: Option<f64>,
}

/// `BENCHMARK.json`'s metrics and its run length.
fn declared(root: &Path) -> Result<(Vec<Declared>, u64), String> {
    let path = root.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Value::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut metrics = Vec::new();
    for list in ["end_to_end", "per_layer"] {
        for m in doc.get(list).and_then(Value::as_array).unwrap_or_default() {
            let name = m.get("name").and_then(Value::as_str);
            let better = m.get("better").and_then(Value::as_str);
            let (Some(name), Some(better)) = (name, better) else {
                return Err(format!(
                    "BENCHMARK.json: a {list} metric lacks name or better"
                ));
            };
            metrics.push(Declared {
                name: name.to_string(),
                higher_is_better: better == "higher",
                bound: m.get("bound").and_then(Value::as_f64),
            });
        }
    }
    let seconds = doc.get("run_seconds").and_then(Value::as_u64).unwrap_or(12);
    Ok((metrics, seconds))
}

/// One side's checkout and the target directory its `qbench` builds into.
struct Side {
    name: &'static str,
    dir: PathBuf,
    target: PathBuf,
}

/// One run's last line.
struct Run {
    correct: bool,
    attempted: f64,
    failed: f64,
    /// `(metric, value)` in the order the run printed them.
    metrics: Vec<(String, f64)>,
    line: Value,
}

fn git(root: &Path, args: &[&str]) -> Result<String, String> {
    git_with_index(root, None, args)
}

/// `git args` in `root`, with `GIT_INDEX_FILE` set to `index` when given.
fn git_with_index(root: &Path, index: Option<&Path>, args: &[&str]) -> Result<String, String> {
    let mut command = Command::new("git");
    if let Some(index) = index {
        command.env("GIT_INDEX_FILE", index);
    }
    let out = (command.current_dir(root).args(args).output())
        .map_err(|e| format!("git {}: {e}", args.join(" ")))?;
    if !out.status.success() {
        return Err(format!(
            "git {}: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The tree hash of `root`'s working tree as it stands: `git add -A` into
/// a throwaway index, then `git write-tree`. Untracked files count and
/// `.gitignore` holds; the real index and the stash do not move. A clean
/// tree gives `HEAD^{tree}`.
fn working_tree(root: &Path) -> Result<String, String> {
    let index = std::env::temp_dir().join(format!("bench-pairs-{}.index", std::process::id()));
    let tree = git_with_index(root, Some(&index), &["add", "-A"])
        .and_then(|_| git_with_index(root, Some(&index), &["write-tree"]));
    let _ = std::fs::remove_file(&index);
    tree
}

fn build(side: &Side) -> Result<(), String> {
    eprintln!("bench-pairs: building {}'s qbench", side.name);
    let status = Command::new("cargo")
        .current_dir(&side.dir)
        .env("CARGO_TARGET_DIR", &side.target)
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["--manifest-path", "benchmark/Cargo.toml"])
        .status()
        .map_err(|e| format!("cargo: {e}"))?;
    status
        .success()
        .then_some(())
        .ok_or(format!("{}: qbench did not build", side.name))
}

fn run_once(
    side: &Side,
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    keep: &[String],
) -> Result<Run, String> {
    let out = Command::new("bash")
        .current_dir(&side.dir)
        .env("CARGO_TARGET_DIR", &side.target)
        .arg("benchmark/run.sh")
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output()
        .map_err(|e| format!("benchmark/run.sh: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let what = format!("{} {workload} seed {seed}", side.name);
    let mut line = Value::parse(stdout.lines().last().unwrap_or(""))
        .map_err(|e| format!("{what} printed no result ({e}); exit {}", out.status))?;
    // Only the metrics asked for, in the file too: a traced line has ~90.
    if let Value::Object(fields) = &mut line {
        let metrics = fields.iter_mut().find(|(key, _)| key == "metrics");
        if let Some((_, Value::Object(metrics))) = metrics {
            metrics.retain(|(name, _)| keep.is_empty() || keep.contains(name));
        }
    }
    let number = |key: &str| line.get(key).and_then(Value::as_f64);
    let metrics = (line.get("metrics").and_then(Value::as_object))
        .ok_or(format!("{what}: no metrics"))?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(Run {
        // A run that exits non-zero failed a check of its own.
        correct: out.status.success() && line.get("correct").and_then(Value::as_bool) == Some(true),
        attempted: number("attempted").unwrap_or(0.0),
        failed: number("failed").unwrap_or(0.0),
        metrics,
        line,
    })
}

/// Median (the mean of the middle two when even) and nearest-rank
/// quartiles, as `qbench` summarises samples.
fn summary(samples: &[f64]) -> (f64, f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = |p: f64| sorted[((p * n as f64).ceil() as usize).clamp(1, n) - 1];
    let median = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    };
    (median, rank(0.25), rank(0.75))
}

/// Resamples behind a ratio's interval.
const RESAMPLES: usize = 4_000;

/// The per-pair ratios `change / parent` (1 where both read 0), and the
/// nearest-rank 2.5 % and 97.5 % of the medians of [`RESAMPLES`] seeded
/// resamples of them: a percentile-bootstrap 95 % interval of their median.
fn paired_ratios(parent: &[f64], change: &[f64]) -> (Vec<f64>, (f64, f64)) {
    let ratios: Vec<f64> = (parent.iter().zip(change))
        .map(|(p, c)| if *p == 0.0 && *c == 0.0 { 1.0 } else { c / p })
        .collect();
    let mut rng = SimRng::seed_from(0xB007_5712);
    let n = ratios.len() as u64;
    let mut medians: Vec<f64> = (0..RESAMPLES)
        .map(|_| {
            let resample: Vec<f64> = (0..n).map(|_| ratios[rng.below(n) as usize]).collect();
            summary(&resample).0
        })
        .collect();
    medians.sort_by(f64::total_cmp);
    let tail = RESAMPLES / 40;
    (ratios, (medians[tail - 1], medians[RESAMPLES - tail - 1]))
}

fn summary_value((median, q1, q3): (f64, f64, f64)) -> Value {
    Value::object()
        .set("median", median)
        .set("q1", q1)
        .set("q3", q3)
}

/// One metric over the pairs, judged.
fn judge(
    declared: Option<&Declared>,
    name: &str,
    parent: &[f64],
    change: &[f64],
) -> (Value, &'static str) {
    let higher = declared.is_some_and(|d| d.higher_is_better);
    let better = |a: f64, b: f64| if higher { a > b } else { a < b };
    let (p, c) = (summary(parent), summary(change));
    let change_vs_parent = (c.0 - p.0) / p.0;
    let worse_by = change_vs_parent * if higher { -1.0 } else { 1.0 };
    let (ratios, (lo, hi)) = paired_ratios(parent, change);
    let r = summary(&ratios);
    let pairs = ratios.len();
    let ahead = ratios.iter().filter(|&&x| better(x, 1.0)).count();
    let behind = ratios.iter().filter(|&&x| better(1.0, x)).count();
    let gain = better(lo, 1.0) && better(hi, 1.0) && ahead * 10 >= pairs * 9;
    let loss = better(1.0, lo) && better(1.0, hi) && behind * 10 >= pairs * 8;
    let spread = |(median, q1, q3): (f64, f64, f64)| (q3 - q1) / median.abs();
    let bound = declared.and_then(|d| d.bound);
    let apart = (parent.iter()).all(|p| change.iter().all(|c| better(*c, *p)));
    let verdict = match bound {
        Some(bound) if !apart && !loss && spread(p).max(spread(c)) > bound => "unresolved",
        Some(bound) if worse_by > bound => "regressed",
        _ if gain => "gain",
        _ if loss => "loss",
        _ => "unchanged",
    };
    let mut v = Value::object()
        .set("name", name)
        .set("better", if higher { "higher" } else { "lower" });
    if let Some(bound) = bound {
        v = v.set("bound", bound);
    }
    let value = v
        .set(
            "parent_runs",
            parent.iter().map(|&x| Value::from(x)).collect::<Vec<_>>(),
        )
        .set(
            "change_runs",
            change.iter().map(|&x| Value::from(x)).collect::<Vec<_>>(),
        )
        .set("parent", summary_value(p))
        .set("change", summary_value(c))
        .set("change_vs_parent", change_vs_parent)
        .set("ratio", summary_value(r).set("lo95", lo).set("hi95", hi))
        .set("wins", ahead)
        .set("behind", behind)
        .set("pairs", pairs)
        .set("verdict", verdict);
    (value, verdict)
}

/// Every pair of one workload, then its metrics judged.
fn measure(
    args: &Args,
    sides: &[Side; 2],
    declared: &[Declared],
    workload: &str,
    seconds: u64,
) -> Result<(Value, String), String> {
    let mut rows = Vec::new();
    let mut runs: [Vec<Run>; 2] = [Vec::new(), Vec::new()];
    for i in 0..args.pairs {
        let seed = args.first_seed + i;
        let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
        let mut pair = [None, None];
        for s in order {
            eprintln!(
                "bench-pairs: {workload} pair {i} seed {seed}: {}",
                sides[s].name
            );
            let run = run_once(
                &sides[s],
                workload,
                seed,
                seconds,
                args.trace,
                &args.metrics,
            );
            pair[s] = Some(run?);
        }
        let [Some(parent), Some(change)] = pair else {
            unreachable!("both sides ran")
        };
        rows.push(
            Value::object()
                .set("pair", i)
                .set("seed", seed)
                .set("first", sides[order[0]].name)
                .set("parent", parent.line.clone())
                .set("change", change.line.clone()),
        );
        runs[0].push(parent);
        runs[1].push(change);
    }
    let mut metrics = Vec::new();
    let mut verdicts = Vec::new();
    for (name, _) in &runs[0][0].metrics {
        let values = |side: &[Run]| -> Result<Vec<f64>, String> {
            (side.iter())
                .map(|r| {
                    let found = r.metrics.iter().find(|(n, _)| n == name);
                    found
                        .map(|(_, v)| *v)
                        .ok_or(format!("{workload}: a run lacks {name}"))
                })
                .collect()
        };
        let found = declared.iter().find(|d| d.name == *name);
        let (value, verdict) = judge(found, name, &values(&runs[0])?, &values(&runs[1])?);
        println!("{workload:<18} {name:<36} {verdict}");
        metrics.push(value);
        verdicts.push((name.clone(), verdict));
    }
    let failed_share = |side: &[Run]| {
        let (failed, attempted) = side
            .iter()
            .fold((0.0, 0.0), |(f, a), r| (f + r.failed, a + r.attempted));
        failed / attempted.max(1.0)
    };
    let correct = runs.iter().flatten().all(|r| r.correct);
    let named = |verdict: &str| -> Vec<String> {
        (verdicts.iter().filter(|(_, v)| *v == verdict))
            .map(|(n, _)| n.clone())
            .collect()
    };
    let verdict = if !correct || failed_share(&runs[1]) > failed_share(&runs[0]) {
        "failed".to_string()
    } else if let Some(first) = ["regressed", "unresolved", "loss", "gain"]
        .into_iter()
        .find(|v| !named(v).is_empty())
    {
        format!("{first}: {}", named(first).join(", "))
    } else {
        "unchanged".to_string()
    };
    let value = Value::object()
        .set("workload", workload)
        .set("correct", correct)
        .set("verdict", verdict.as_str())
        .set("metrics", metrics)
        .set("pairs", rows);
    Ok((value, verdict))
}

pub fn bench_pairs(root: &Path, raw: &[String]) -> ExitCode {
    let args = match parse_args(raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n\nUSAGE:\n    {USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match measure_all(root, &args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("bench-pairs: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Check the parent out, measure, write the file, and remove the
/// checkout again. `Ok(false)` when a workload regressed, failed, is
/// unresolved or lost.
fn measure_all(root: &Path, args: &Args) -> Result<bool, String> {
    let (declared, run_seconds) = declared(root)?;
    let seconds = args.seconds.unwrap_or(run_seconds);
    let parent = git(
        root,
        &[
            "rev-parse",
            "--verify",
            &format!("{}^{{commit}}", args.parent),
        ],
    )?;
    let head = git(root, &["rev-parse", "HEAD"])?;
    let tree = working_tree(root)?;
    let pairs_dir = root.join("target/bench-pairs");
    let checkout = pairs_dir.join(format!("parent-{}", &parent[..12]));
    let checkout_arg = checkout.display().to_string();
    // A run that was cut short leaves its checkout behind.
    if checkout.exists() {
        let _ = git(root, &["worktree", "remove", "--force", &checkout_arg]);
    }
    git(root, &["worktree", "prune"])?;
    git(
        root,
        &["worktree", "add", "--detach", &checkout_arg, &parent],
    )?;
    let sides = [
        Side {
            name: "parent",
            dir: checkout.clone(),
            target: pairs_dir.join("parent-target"),
        },
        Side {
            name: "change",
            dir: root.to_path_buf(),
            target: pairs_dir.join("change-target"),
        },
    ];
    let measured = (|| {
        sides.iter().try_for_each(build)?;
        (args.workloads.iter())
            .map(|w| measure(args, &sides, &declared, w, seconds))
            .collect::<Result<Vec<_>, String>>()
    })();
    let removed = git(root, &["worktree", "remove", "--force", &checkout_arg]);
    let measured = measured?;
    removed?;
    let ok = (measured.iter()).all(|(_, v)| v == "unchanged" || v.starts_with("gain"));
    let doc = Value::object()
        .set("parent", parent.as_str())
        .set("change", head.as_str())
        .set("change_tree", tree.as_str())
        .set("seconds", seconds)
        .set("trace", args.trace)
        .set(
            "order",
            "pair i runs seed A + i; the parent first on even pairs",
        )
        .set(
            "workloads",
            measured.into_iter().map(|(v, _)| v).collect::<Vec<_>>(),
        );
    let traced = if args.trace { ".trace" } else { "" };
    let path = root.join(format!("BENCH_{}{traced}.json", args.pr));
    std::fs::write(&path, doc.to_pretty() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(
            &line
                .split_whitespace()
                .map(str::to_string)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn flags_parse_and_are_checked() {
        let a = args("HEAD~1 --workload fig4_observed --workload fuzz_campaign --pairs 10 --seeds 500..510 --pr 7 --metrics peak_rss_mb,work_per_s").unwrap();
        assert_eq!(a.parent, "HEAD~1");
        assert_eq!(a.workloads, ["fig4_observed", "fuzz_campaign"]);
        assert_eq!(
            (a.pairs, a.first_seed, a.pr, a.seconds, a.trace),
            (10, 500, 7, None, false)
        );
        assert_eq!(a.metrics, ["peak_rss_mb", "work_per_s"]);
        let err = |line: &str| args(line).unwrap_err();
        assert!(err("--workload w").contains("parent revision"));
        assert!(err("p --workload w --pairs 10 --seeds 1..5 --pr 1").contains("fewer than"));
        assert!(err("p --workload w --pairs 2 --seeds 1-5 --pr 1").contains("range"));
        assert!(err("p --pairs 2 --seeds 1..5 --pr 1").contains("--workload"));
        assert!(err("p --workload w --pairs 2 --seeds 1..5").contains("--pr"));
        assert!(err("p --workload w --bogus 1").contains("unknown flag"));
        assert!(err("p --workload").contains("needs a value"));
    }

    #[test]
    fn the_change_tree_is_the_working_tree_as_measured() {
        let repo = std::env::temp_dir().join(format!("bench-pairs-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&repo);
        std::fs::create_dir_all(&repo).unwrap();
        let write = |name: &str, text: &str| std::fs::write(repo.join(name), text).unwrap();
        let git = |args: &[&str]| git(&repo, args).unwrap();
        git(&["init", "-q"]);
        write("tracked.txt", "one\n");
        write(".gitignore", "ignored.txt\n");
        git(&["add", "-A"]);
        let who = ["-c", "user.name=t", "-c", "user.email=t@t"];
        git(&[&who[..], &["commit", "-q", "-m", "seed"]].concat());
        let head_tree = git(&["rev-parse", "HEAD^{tree}"]);
        assert_eq!(working_tree(&repo).unwrap(), head_tree);
        write("ignored.txt", "not measured\n");
        assert_eq!(working_tree(&repo).unwrap(), head_tree, ".gitignore holds");
        write("new.txt", "untracked\n");
        let measured = working_tree(&repo).unwrap();
        assert_ne!(measured, head_tree, "a new untracked file is measured");
        assert_eq!(
            git(&["status", "--porcelain"]),
            "?? new.txt",
            "the real index is untouched"
        );
        assert_eq!(git(&["stash", "list"]), "");
        std::fs::remove_dir_all(&repo).unwrap();
    }

    #[test]
    fn quartiles_are_nearest_rank_and_the_median_is_midpoint() {
        assert_eq!(summary(&[4.0, 1.0, 3.0, 2.0]), (2.5, 1.0, 3.0));
        assert_eq!(summary(&[5.0]), (5.0, 5.0, 5.0));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(summary(&ten), (5.5, 3.0, 8.0));
    }

    #[test]
    fn verdicts_follow_bound_wins_and_quartiles() {
        let lower = |bound| Declared {
            name: "peak_rss_mb".into(),
            higher_is_better: false,
            bound,
        };
        let parent = [61.5, 61.4, 61.6, 61.5, 61.3, 61.5, 61.4, 61.6, 61.5, 61.4];
        let smaller = parent.map(|x| x - 8.0);
        let verdict = |d: Option<&Declared>, c: &[f64]| judge(d, "m", &parent, c).1;
        assert_eq!(verdict(Some(&lower(Some(0.2))), &smaller), "gain");
        assert_eq!(verdict(Some(&lower(Some(0.2))), &parent), "unchanged");
        assert_eq!(
            verdict(Some(&lower(Some(0.1))), &parent.map(|x| x * 1.15)),
            "regressed"
        );
        assert_eq!(verdict(None, &parent.map(|x| x + 8.0)), "loss");
        // Worse in every pair, by less than the bound: a loss, bound or not.
        let worse = parent.map(|x| x + 3.0);
        assert_eq!(verdict(Some(&lower(Some(0.2))), &worse), "loss");
        assert_eq!(verdict(None, &worse), "loss");
        // Eight pairs lost in ten is a loss too; seven is not.
        let mut eight = worse;
        eight[0] = 61.0;
        eight[1] = 61.0;
        assert_eq!(verdict(Some(&lower(Some(0.2))), &eight), "loss");
        eight[2] = 61.0;
        assert_eq!(verdict(Some(&lower(Some(0.2))), &eight), "unchanged");
        // Eight wins in ten is not a gain, however far apart the medians;
        // nine is.
        let mut won = smaller;
        won[..2].fill(70.0);
        assert_eq!(verdict(Some(&lower(Some(0.2))), &won), "unchanged");
        won[1] = smaller[1];
        assert_eq!(verdict(Some(&lower(Some(0.2))), &won), "gain");
        // A side whose quartiles are further apart than the bound.
        let wide = [50.0, 75.0, 50.0, 75.0, 50.0, 75.0, 50.0, 75.0, 50.0, 75.0];
        assert_eq!(verdict(Some(&lower(Some(0.2))), &wide), "unresolved");
        // … unless every change run reads better than every parent run.
        let apart = [1.0, 40.0, 1.0, 40.0, 1.0, 40.0, 1.0, 40.0, 1.0, 40.0];
        assert_eq!(verdict(Some(&lower(Some(0.2))), &apart), "gain");
        let (value, _) = judge(Some(&lower(Some(0.2))), "peak_rss_mb", &parent, &smaller);
        assert_eq!(value.get("wins").and_then(Value::as_u64), Some(10));

        // Paired: sides that each spread wider than the bound.
        let higher = Declared {
            name: "work_per_s".into(),
            higher_is_better: true,
            bound: Some(0.25),
        };
        let noisy = [
            400.0, 600.0, 450.0, 650.0, 420.0, 610.0, 480.0, 590.0, 400.0, 640.0,
        ];
        let judged = |c: &[f64]| judge(Some(&higher), "work_per_s", &noisy, c).1;
        // The change a few percent behind in every pair resolves; ahead in
        // every pair, it is a gain only where the sides do not spread.
        assert_eq!(judged(&noisy.map(|x| x * 0.94)), "loss");
        assert_eq!(judged(&noisy.map(|x| x * 1.04)), "unresolved");
        let per_layer = Declared {
            name: "m".into(),
            higher_is_better: true,
            bound: None,
        };
        let ahead = noisy.map(|x| x * 1.04);
        assert_eq!(judge(Some(&per_layer), "m", &noisy, &ahead).1, "gain");
        // Ratios about 1, ahead in half the pairs: still unresolved.
        let mut even = noisy;
        even.iter_mut().enumerate().for_each(|(i, x)| {
            *x *= if i % 2 == 0 { 1.01 } else { 0.99 };
        });
        assert_eq!(judged(&even), "unresolved");
        // Behind in four pairs of five, whose interval of the median ratio
        // reaches 1: no loss, so the wide sides leave it unresolved.
        let five = [400.0, 600.0, 450.0, 650.0, 420.0];
        let four_behind = [396.0, 594.0, 445.5, 643.5, 504.0];
        assert_eq!(
            judge(Some(&higher), "m", &five, &four_behind).1,
            "unresolved"
        );
        assert_eq!(
            judge(Some(&higher), "m", &five, &five.map(|x| x * 0.99)).1,
            "loss"
        );
        let (value, _) = judge(Some(&higher), "m", &noisy, &noisy.map(|x| x * 0.94));
        let ratio = value.get("ratio").expect("the paired ratio");
        let median = ratio.get("median").and_then(Value::as_f64).unwrap();
        assert!((median - 0.94).abs() < 1e-9, "{median}");
        assert_eq!(value.get("behind").and_then(Value::as_u64), Some(10));
    }

    /// The committed ledgers, judged again by the paired rule.
    #[test]
    fn the_committed_ledgers_rejudged_on_pairs() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let (declared, _) = declared(&root).unwrap();
        // The entry of `doc[list]` whose `key` reads `name`.
        let find = |doc: &Value, list: &str, key: &str, name: &str| -> Value {
            let list = doc.get(list).and_then(Value::as_array).unwrap();
            let named = |v: &&Value| v.get(key).and_then(Value::as_str) == Some(name);
            list.iter().find(named).unwrap().clone()
        };
        // The paired ratio to three places, the verdict now and as written.
        let rejudge_metric = |ledger: &str, workload: &str, metric: &str| {
            let path = root.join(format!("{ledger}.json"));
            let doc = Value::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
            let w = find(&doc, "workloads", "workload", workload);
            let m = find(&w, "metrics", "name", metric);
            let runs = |side: &str| -> Vec<f64> {
                let runs = m.get(side).and_then(Value::as_array).unwrap();
                runs.iter().map(|v| v.as_f64().unwrap()).collect()
            };
            let declared = declared.iter().find(|d| d.name == metric);
            let (parent, change) = (runs("parent_runs"), runs("change_runs"));
            let (value, verdict) = judge(declared, metric, &parent, &change);
            let ratio = value.get("ratio").and_then(|r| r.get("median")?.as_f64());
            let written = m.get("verdict").and_then(Value::as_str).unwrap();
            (
                (ratio.unwrap() * 1000.0).round() / 1000.0,
                verdict,
                written.to_string(),
            )
        };
        let rejudge = |ledger: &str, workload: &str| {
            let (ratio, verdict, _) = rejudge_metric(ledger, workload, "work_per_s");
            (ratio, verdict)
        };
        // The first ledger written by this rule reads as it was written.
        for workload in ["fig4_observed", "fuzz_campaign"] {
            for metric in ["work_per_s", "op_p50_ms", "setup_s", "peak_rss_mb"] {
                let (_, now, written) = rejudge_metric("BENCH_51", workload, metric);
                assert_eq!(now, written, "{workload} {metric}");
            }
        }
        assert_eq!(rejudge("BENCH_48", "fig4_observed"), (0.94, "loss"));
        assert_eq!(rejudge("BENCH_49", "fuzz_campaign"), (0.961, "loss"));
        assert_eq!(rejudge("BENCH_46", "fig4_fabric"), (1.032, "gain"));
        assert_eq!(rejudge("BENCH_43", "fuzz_campaign"), (1.199, "gain"));
        assert_eq!(rejudge("BENCH_46", "fuzz_campaign"), (1.138, "gain"));
    }
}
