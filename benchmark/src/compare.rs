//! `qbench compare a.json b.json`: judge every (end-to-end metric,
//! workload) row of two result files against the metric's bound.
//!
//! Each file is a set of runs (`benchmark/run.sh --runs N`: N runs of every
//! workload, each with another seed). A row's value is the median of its
//! runs, and its spread is the distance between the quartiles of those
//! runs as a share of their median ([`run_spread`]) - the run-to-run
//! spread, which is also what the driver measures. A row whose spread on
//! either side is wider than the bound is `unresolved`, whatever the two
//! medians say; so is a row with a single run on a side, which has no
//! spread to show. Otherwise it is `regressed` or `improved` when the
//! second median is worse or better than the first by more than the bound,
//! and `unchanged` within it.

use crate::catalog::{Better, Metric, END_TO_END};
use crate::result::{SuiteResult, WorkloadResult};
use crate::stats::{run_spread, Summary};

/// What a row's two values say.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound.
    Improved,
    /// Within the bound.
    Unchanged,
    /// Worse by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound, or unknown.
    Unresolved,
}

impl Verdict {
    /// As printed.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One judged row.
#[derive(Clone, Debug, PartialEq)]
pub struct RowVerdict {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// Median of the first file's runs.
    pub before: f64,
    /// Median of the second file's runs.
    pub after: f64,
    /// Relative change towards *worse* (negative = better).
    pub worse_by: f64,
    /// The wider of the two sides' run-to-run spreads; `None` when a
    /// side has a single run.
    pub spread: Option<f64>,
    /// Runs on each side.
    pub runs: (usize, usize),
    /// The judgement.
    pub verdict: Verdict,
}

/// Judge one metric from its values over each side's runs.
pub fn judge(metric: &Metric, before: &[f64], after: &[f64]) -> (f64, Option<f64>, Verdict) {
    let (b, a) = (Summary::of(before).value, Summary::of(after).value);
    let change = (a - b) / b;
    let worse_by = match metric.better {
        Better::Higher => -change,
        Better::Lower => change,
    };
    let spread = run_spread(before)
        .zip(run_spread(after))
        .map(|(b, a)| b.max(a));
    let verdict = match spread {
        Some(s) if s <= metric.bound => {
            if worse_by > metric.bound {
                Verdict::Regressed
            } else if worse_by < -metric.bound {
                Verdict::Improved
            } else {
                Verdict::Unchanged
            }
        }
        _ => Verdict::Unresolved,
    };
    (worse_by, spread, verdict)
}

/// The comparison of two result files.
pub struct Comparison {
    /// One judged row per (workload, metric) present in both files.
    pub rows: Vec<RowVerdict>,
    /// `(workload, failed share before, failed share after)`.
    pub failed_shares: Vec<(String, f64, f64)>,
    /// Workloads or metrics present in only one file.
    pub missing: Vec<String>,
}

/// Failed operations over attempted ones, summed over a workload's runs.
fn failed_share<'a>(runs: impl Iterator<Item = &'a WorkloadResult>) -> f64 {
    let (failed, attempted) = runs.fold((0, 0), |(f, a), r| (f + r.failed, a + r.attempted));
    failed as f64 / attempted.max(1) as f64
}

/// One metric's value in every run of `workload` that reports it.
fn values(suite: &SuiteResult, workload: &str, metric: &str) -> Vec<f64> {
    suite
        .runs_of(workload)
        .filter_map(|r| r.metric(metric))
        .map(|row| row.summary.value)
        .collect()
}

/// Compare `after` against `before`.
pub fn compare(before: &SuiteResult, after: &SuiteResult) -> Comparison {
    let mut cmp = Comparison {
        rows: Vec::new(),
        failed_shares: Vec::new(),
        missing: Vec::new(),
    };
    for workload in before.workloads() {
        if after.runs_of(workload).next().is_none() {
            cmp.missing
                .push(format!("{workload}: only in the first file"));
            continue;
        }
        cmp.failed_shares.push((
            workload.to_string(),
            failed_share(before.runs_of(workload)),
            failed_share(after.runs_of(workload)),
        ));
        for metric in &END_TO_END {
            let b = values(before, workload, metric.name);
            let a = values(after, workload, metric.name);
            if b.is_empty() || a.is_empty() {
                cmp.missing
                    .push(format!("{workload} {}: not in both files", metric.name));
                continue;
            }
            let (worse_by, spread, verdict) = judge(metric, &b, &a);
            cmp.rows.push(RowVerdict {
                workload: workload.to_string(),
                metric: metric.name,
                before: Summary::of(&b).value,
                after: Summary::of(&a).value,
                worse_by,
                spread,
                runs: (b.len(), a.len()),
                verdict,
            });
        }
    }
    for workload in after.workloads() {
        if before.runs_of(workload).next().is_none() {
            cmp.missing
                .push(format!("{workload}: only in the second file"));
        }
    }
    cmp
}

impl Comparison {
    /// Do the files agree: no row regressed or unresolved, nothing
    /// missing, and no failed operation on either side?
    pub fn agrees(&self) -> bool {
        self.missing.is_empty()
            && self
                .rows
                .iter()
                .all(|r| matches!(r.verdict, Verdict::Unchanged | Verdict::Improved))
            && self.failed_shares.iter().all(|f| f.1 == 0.0 && f.2 == 0.0)
    }

    /// The report `qbench compare` prints.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<18} {:<12} {:>14} {:>14} {:>9} {:>8} {:>6} {:>7}  verdict\n",
            "workload", "metric", "before", "after", "worse by", "spread", "bound", "runs"
        );
        for r in &self.rows {
            let bound = END_TO_END
                .iter()
                .find(|m| m.name == r.metric)
                .map_or(0.0, |m| m.bound);
            let spread = r
                .spread
                .map_or("-".to_string(), |s| format!("{:.2}%", s * 100.0));
            out.push_str(&format!(
                "{:<18} {:<12} {:>14.6} {:>14.6} {:>8.2}% {:>8} {:>5.0}% {:>7}  {}\n",
                r.workload,
                r.metric,
                r.before,
                r.after,
                r.worse_by * 100.0,
                spread,
                bound * 100.0,
                format!("{}+{}", r.runs.0, r.runs.1),
                r.verdict.as_str()
            ));
        }
        if self.rows.iter().any(|r| r.spread.is_none()) {
            out.push_str(
                "a side with one run has no run-to-run spread: record sets with `--runs N`\n",
            );
        }
        for (workload, before, after) in &self.failed_shares {
            out.push_str(&format!(
                "{workload:<18} failed share {:.6} -> {:.6} ({:+.6})\n",
                before,
                after,
                after - before
            ));
        }
        for m in &self.missing {
            out.push_str(&format!("missing: {m}\n"));
        }
        out.push_str(if self.agrees() {
            "compare: the two files agree within the benchmark's bounds\n"
        } else {
            "compare: the two files do NOT agree within the benchmark's bounds\n"
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::tests::sample;
    use qvisor_sim::json::Value;

    /// A set with one run of workload `w` per `work_per_s` value.
    fn set(values: &[f64], failed: u64) -> SuiteResult {
        SuiteResult {
            host: Value::Null,
            seed: 1,
            seconds: 12,
            runs: values
                .iter()
                .map(|v| sample("w", *v, *v, *v, failed))
                .collect(),
        }
    }

    /// Five runs around `centre` whose quartiles lie `spread` apart.
    fn around(centre: f64, spread: f64) -> Vec<f64> {
        [-1.0, -0.5, 0.0, 0.5, 1.0]
            .iter()
            .map(|k| centre * (1.0 + k * spread / 1.5))
            .collect()
    }

    fn verdict_of(before: &[f64], after: &[f64]) -> Verdict {
        compare(&set(before, 0), &set(after, 0)).rows[0].verdict
    }

    #[test]
    fn verdicts_on_synthetic_inputs() {
        // work_per_s: higher is better, bound 25 %.
        let tight = |v: f64| around(v, 0.02);
        assert_eq!(verdict_of(&tight(100.0), &tight(104.0)), Verdict::Unchanged);
        assert_eq!(verdict_of(&tight(100.0), &tight(80.0)), Verdict::Unchanged);
        assert_eq!(verdict_of(&tight(100.0), &tight(70.0)), Verdict::Regressed);
        assert_eq!(verdict_of(&tight(100.0), &tight(130.0)), Verdict::Improved);
        // Runs 30 % apart quartile to quartile cannot confirm "within
        // 25 %", nor a drop, however large: the row is unresolved.
        let loose = around(100.0, 0.30);
        assert_eq!(verdict_of(&loose, &tight(101.0)), Verdict::Unresolved);
        assert_eq!(verdict_of(&tight(100.0), &loose), Verdict::Unresolved);
        assert_eq!(verdict_of(&loose, &tight(60.0)), Verdict::Unresolved);
        // One run on a side has no spread to show.
        assert_eq!(verdict_of(&[100.0], &tight(100.0)), Verdict::Unresolved);
        let cmp = compare(&set(&[100.0], 0), &set(&[100.0], 0));
        assert!(!cmp.agrees());
        assert!(cmp.render().contains("--runs N"), "{}", cmp.render());
    }

    #[test]
    fn the_spread_is_the_quartile_distance_of_the_runs() {
        let cmp = compare(&set(&around(100.0, 0.12), 0), &set(&around(100.0, 0.03), 0));
        let row = &cmp.rows[0];
        assert!((row.spread.unwrap() - 0.12).abs() < 1e-9, "{row:?}");
        assert_eq!((row.runs, row.verdict), ((5, 5), Verdict::Unchanged));
        // `sample` reports the same peak_rss_mb in every run: spread 0.
        let rss = cmp.rows.iter().find(|r| r.metric == "peak_rss_mb").unwrap();
        assert_eq!((rss.spread, rss.verdict), (Some(0.0), Verdict::Unchanged));
    }

    #[test]
    fn lower_is_better_flips_the_direction() {
        let metric = END_TO_END.iter().find(|m| m.name == "op_p50_ms").unwrap();
        let (worse_by, _, verdict) = judge(metric, &[40.0, 40.0], &[52.0, 52.0]);
        assert!((worse_by - 0.3).abs() < 1e-12);
        assert_eq!(verdict, Verdict::Regressed);
        let (_, _, verdict) = judge(metric, &[40.0, 40.0], &[20.0, 20.0]);
        assert_eq!(verdict, Verdict::Improved);
    }

    #[test]
    fn failures_and_missing_rows_break_agreement() {
        let clean = set(&around(100.0, 0.02), 0);
        assert!(compare(&clean, &clean).agrees());
        let failing = set(&around(100.0, 0.02), 5);
        let cmp = compare(&clean, &failing);
        assert!(!cmp.agrees());
        assert_eq!(cmp.failed_shares[0], ("w".to_string(), 0.0, 0.005));
        let mut other = clean.clone();
        for r in &mut other.runs {
            r.workload = "v".to_string();
        }
        let cmp = compare(&clean, &other);
        assert_eq!(cmp.missing.len(), 2);
        assert!(cmp.render().contains("do NOT agree"));
    }
}
