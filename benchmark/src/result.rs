//! Result documents: what one workload run measured, the driver's
//! one-line form of it, and the file a whole suite writes
//! (`benchmark/out/result.json`), all through `qvisor_sim::json`.

use crate::stats::Summary;
use qvisor_sim::json::Value;

/// One metric of a result.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Value, quartiles, sample count.
    pub summary: Summary,
}

impl Row {
    /// A row.
    pub fn new(name: impl Into<String>, unit: impl Into<String>, summary: Summary) -> Row {
        Row {
            name: name.into(),
            unit: unit.into(),
            summary,
        }
    }

    fn to_value(&self) -> Value {
        Value::object()
            .set("name", self.name.as_str())
            .set("unit", self.unit.as_str())
            .set("value", self.summary.value)
            .set("q1", self.summary.q1)
            .set("q3", self.summary.q3)
            .set("min", self.summary.min)
            .set("max", self.summary.max)
            .set("n", self.summary.n)
    }

    fn from_value(v: &Value) -> Result<Row, String> {
        let text = |key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or(format!("row has no string `{key}`"))
        };
        let number = |key: &str| {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or(format!("row has no number `{key}`"))
        };
        Ok(Row {
            name: text("name")?,
            unit: text("unit")?,
            summary: Summary {
                value: number("value")?,
                q1: number("q1")?,
                q3: number("q3")?,
                min: number("min")?,
                max: number("max")?,
                n: number("n")? as usize,
            },
        })
    }
}

/// Everything one run of one workload measured.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadResult {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Was this a traced run?
    pub traced: bool,
    /// Did every output check pass?
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Timed reps behind the medians.
    pub reps: usize,
    /// End-to-end metrics (span recorder off, or its off-reps).
    pub end_to_end: Vec<Row>,
    /// Ungated figures the workload measured beside them.
    pub extras: Vec<Row>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Row>,
    /// Output checks, one line each.
    pub notes: Vec<String>,
}

/// Six significant digits, right-aligned: the metrics span twelve orders
/// of magnitude.
fn cell(v: f64) -> String {
    let decimals = if v == 0.0 || !v.is_finite() {
        0
    } else {
        (5 - v.abs().log10().floor() as i32).clamp(0, 12) as usize
    };
    format!("{v:>16.decimals$}")
}

/// A table header whose first column is titled `title`.
fn header(title: &str, value: &str) -> String {
    format!(
        "  {title:<40} {value:>16} {:>16} {:>16} {:>6}  unit\n",
        "q1", "q3", "n"
    )
}

/// One table row.
fn line(name: &str, s: &Summary, unit: &str) -> String {
    format!(
        "  {name:<40} {} {} {} {:>6}  {unit}\n",
        cell(s.value),
        cell(s.q1),
        cell(s.q3),
        s.n
    )
}

fn rows_value(rows: &[Row]) -> Value {
    Value::from(rows.iter().map(Row::to_value).collect::<Vec<_>>())
}

fn rows_from(v: &Value, key: &str) -> Result<Vec<Row>, String> {
    v.get(key)
        .and_then(Value::as_array)
        .ok_or(format!("result has no array `{key}`"))?
        .iter()
        .map(Row::from_value)
        .collect()
}

impl WorkloadResult {
    /// The driver's form: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics` — the end-to-end metrics of an
    /// untraced run, the per-layer metrics of a traced one.
    pub fn contract_line(&self) -> String {
        let rows = if self.traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let mut metrics = Value::object();
        for row in rows {
            metrics = metrics.set(
                &row.name,
                Value::object()
                    .set("value", row.summary.value)
                    .set("unit", row.unit.as_str()),
            );
        }
        Value::object()
            .set("correct", self.correct)
            .set("attempted", self.attempted.max(1))
            .set("failed", self.failed)
            .set("metrics", metrics)
            .to_compact()
    }

    /// As a JSON value.
    pub fn to_value(&self) -> Value {
        let notes: Vec<Value> = self.notes.iter().map(|n| Value::from(n.as_str())).collect();
        Value::object()
            .set("workload", self.workload.as_str())
            .set("seed", self.seed)
            .set("traced", self.traced)
            .set("correct", self.correct)
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("reps", self.reps)
            .set("end_to_end", rows_value(&self.end_to_end))
            .set("extras", rows_value(&self.extras))
            .set("per_layer", rows_value(&self.per_layer))
            .set("notes", Value::from(notes))
    }

    /// Parse what [`WorkloadResult::to_value`] wrote.
    pub fn from_value(v: &Value) -> Result<WorkloadResult, String> {
        let count = |key: &str| {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or(format!("result has no count `{key}`"))
        };
        let flag = |key: &str| {
            v.get(key)
                .and_then(Value::as_bool)
                .ok_or(format!("result has no flag `{key}`"))
        };
        Ok(WorkloadResult {
            workload: v
                .get("workload")
                .and_then(Value::as_str)
                .ok_or("result has no workload name")?
                .to_string(),
            seed: count("seed")?,
            traced: flag("traced")?,
            correct: flag("correct")?,
            attempted: count("attempted")?,
            failed: count("failed")?,
            reps: count("reps")? as usize,
            end_to_end: rows_from(v, "end_to_end")?,
            extras: rows_from(v, "extras")?,
            per_layer: rows_from(v, "per_layer")?,
            notes: v
                .get("notes")
                .and_then(Value::as_array)
                .unwrap_or_default()
                .iter()
                .filter_map(|n| n.as_str().map(str::to_string))
                .collect(),
        })
    }

    /// The end-to-end row named `name`.
    pub fn metric(&self, name: &str) -> Option<&Row> {
        self.end_to_end.iter().find(|r| r.name == name)
    }

    /// Every metric by name with unit, value, quartiles and sample count,
    /// then the output checks.
    pub fn render(&self) -> String {
        let meaning = crate::catalog::workload(&self.workload);
        let mut out = format!(
            "== {} (seed {}, {} reps, {}) ==\n",
            self.workload,
            self.seed,
            self.reps,
            if self.traced {
                "span recorder on in every other rep"
            } else {
                "span recorder off"
            }
        );
        if let Some(w) = meaning {
            out.push_str(&format!("   work = {}; op = {}\n", w.work_unit, w.op));
        }
        let sections = [
            ("end to end", &self.end_to_end),
            ("also measured", &self.extras),
            ("per layer", &self.per_layer),
        ];
        for (title, rows) in sections {
            if rows.is_empty() {
                continue;
            }
            out.push_str(&header(title, "value"));
            for r in rows.iter() {
                out.push_str(&line(&r.name, &r.summary, &r.unit));
            }
        }
        out.push_str(&format!(
            "  operations: {} attempted, {} failed; outputs {}\n",
            self.attempted,
            self.failed,
            if self.correct { "correct" } else { "WRONG" }
        ));
        for note in &self.notes {
            out.push_str(&format!("  - {note}\n"));
        }
        out
    }
}

/// A set of runs: host facts, then one result per run. A plain suite holds
/// one run of every workload; `--runs N` holds N of each, every one with
/// another seed, which is what gives `qbench compare` a run-to-run spread.
#[derive(Clone, Debug, PartialEq)]
pub struct SuiteResult {
    /// `nproc`, rustc, commit, kernel, load average at start.
    pub host: Value,
    /// Seed of each workload's first run; run `i` used `seed + i`.
    pub seed: u64,
    /// Seconds each run measured.
    pub seconds: u64,
    /// Every run, workloads in catalogue order, seeds ascending within one.
    pub runs: Vec<WorkloadResult>,
}

impl SuiteResult {
    /// The result file: the head, then one run per line, so a ten-seed set
    /// stays readable in a diff.
    pub fn to_json(&self) -> String {
        let runs: Vec<String> = self
            .runs
            .iter()
            .map(|r| format!("    {}", r.to_value().to_compact()))
            .collect();
        format!(
            "{{\n  \"schema\": 2,\n  \"host\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"runs\": [\n{}\n  ]\n}}\n",
            self.host.to_compact(),
            self.seed,
            self.seconds,
            runs.join(",\n")
        )
    }

    /// The workloads that have runs, in file order.
    pub fn workloads(&self) -> Vec<&str> {
        let mut names: Vec<&str> = Vec::new();
        for r in &self.runs {
            if !names.contains(&r.workload.as_str()) {
                names.push(&r.workload);
            }
        }
        names
    }

    /// The runs of one workload.
    pub fn runs_of<'a>(&'a self, workload: &'a str) -> impl Iterator<Item = &'a WorkloadResult> {
        self.runs.iter().filter(move |r| r.workload == workload)
    }

    /// The per-layer metrics across the set's traced runs: the probe suite
    /// is the same whatever workload was traced, so a metric's row is the
    /// median and quartiles over every run. `bench.trace_overhead_share`
    /// belongs to the traced workload and is listed per run.
    pub fn render_layers(&self) -> String {
        let mut out = format!(
            "== per-layer metrics over {} traced runs ==\n{}",
            self.runs.len(),
            header("metric", "median")
        );
        for metric in &crate::catalog::PER_LAYER {
            let rows: Vec<(&WorkloadResult, &Row)> = self
                .runs
                .iter()
                .filter_map(|w| {
                    let row = w.per_layer.iter().find(|r| r.name == metric.name)?;
                    Some((w, row))
                })
                .collect();
            if metric.name == "bench.trace_overhead_share" {
                for (run, row) in rows {
                    out.push_str(&format!(
                        "  {:<40} {} {:>40}  {}\n",
                        metric.name,
                        cell(row.summary.value),
                        format!("({}, seed {})", run.workload, run.seed),
                        metric.unit
                    ));
                }
                continue;
            }
            let values: Vec<f64> = rows.iter().map(|(_, r)| r.summary.value).collect();
            if values.is_empty() {
                continue;
            }
            out.push_str(&line(metric.name, &Summary::of(&values), metric.unit));
        }
        out
    }

    /// Parse a result file.
    pub fn from_json(text: &str) -> Result<SuiteResult, String> {
        let v = Value::parse(text).map_err(|e| format!("result file is not JSON: {e}"))?;
        if v.get("schema").and_then(Value::as_u64) != Some(2) {
            return Err("result file is not schema 2".to_string());
        }
        let count = |key: &str| {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or(format!("result file has no `{key}`"))
        };
        Ok(SuiteResult {
            host: v.get("host").cloned().unwrap_or(Value::Null),
            seed: count("seed")?,
            seconds: count("seconds")?,
            runs: v
                .get("runs")
                .and_then(Value::as_array)
                .ok_or("result file has no runs")?
                .iter()
                .map(WorkloadResult::from_value)
                .collect::<Result<_, _>>()?,
        })
    }
}

#[cfg(test)]
pub mod tests {
    use super::*;

    /// A synthetic one-metric result.
    pub fn sample(workload: &str, value: f64, q1: f64, q3: f64, failed: u64) -> WorkloadResult {
        WorkloadResult {
            workload: workload.to_string(),
            seed: 1,
            traced: false,
            correct: failed == 0,
            attempted: 1_000,
            failed,
            reps: 6,
            end_to_end: vec![
                Row::new(
                    "work_per_s",
                    "1/s",
                    Summary {
                        value,
                        q1,
                        q3,
                        min: q1,
                        max: q3,
                        n: 6,
                    },
                ),
                Row::new("op_p50_ms", "ms", Summary::single(1.25)),
                Row::new("setup_s", "s", Summary::single(0.002)),
                Row::new("peak_rss_mb", "MiB", Summary::single(64.5)),
            ],
            extras: vec![Row::new("admit_p95_ms", "ms", Summary::single(47.5))],
            per_layer: vec![Row::new(
                "core.verify.us_t16",
                "us",
                Summary::single(0.1 + 0.2),
            )],
            notes: vec!["pinned \"x\" = 00ff: ok".to_string()],
        }
    }

    #[test]
    fn result_json_round_trips() {
        let suite = SuiteResult {
            host: Value::object()
                .set("nproc", 2u64)
                .set("rustc", "rustc 1.95.0"),
            seed: 7,
            seconds: 12,
            runs: vec![
                sample("fig4_fabric", 275_123.456_789, 270_000.0, 280_000.5, 0),
                sample("fig4_fabric", 275_000.0, 270_000.0, 280_000.5, 0),
                sample("control_churn", 22.0, 21.5, 22.5, 3),
            ],
        };
        let text = suite.to_json();
        assert_eq!(SuiteResult::from_json(&text).unwrap(), suite);
        assert_eq!(text.lines().count(), 11, "one run per line:\n{text}");
        assert_eq!(suite.workloads(), ["fig4_fabric", "control_churn"]);
        assert_eq!(suite.runs_of("fig4_fabric").count(), 2);
        assert!(SuiteResult::from_json("{}").is_err());
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let mut r = sample("fig4_fabric", 275_123.456_789, 1.0, 2.0, 0);
        let line = Value::parse(&r.contract_line()).unwrap();
        let keys: Vec<&str> = line
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = line.get("metrics").unwrap();
        assert_eq!(metrics.as_object().unwrap().len(), 4);
        let work = metrics.get("work_per_s").unwrap();
        assert_eq!(work.get("value").unwrap().as_f64(), Some(275_123.456_789));
        assert_eq!(work.get("unit").unwrap().as_str(), Some("1/s"));
        r.traced = true;
        let traced = Value::parse(&r.contract_line()).unwrap();
        let names: Vec<&str> = traced
            .get("metrics")
            .unwrap()
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(names, ["core.verify.us_t16"]);
    }
}
