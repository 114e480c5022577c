//! Deterministic parallel scenario sweeps.
//!
//! A sweep file is `{"base": <scenario>, "axes": [{"path": ..., "values":
//! [...]}, ...]}`: the cross product of all axis values (rightmost axis
//! fastest) is applied to the base scenario as JSON patches, each point is
//! run on its own engine (one per OS thread, per-scenario seeded RNG), and
//! results are merged in grid order — so the output is byte-identical at
//! any `--jobs` level.

use super::{field_err, Engine, ScenarioError, ScenarioSpec};
use qvisor_sim::json::Value;
use qvisor_sim::ordered_par_map;

/// One sweep dimension: a dotted path into the scenario JSON and the
/// values it takes. Path segments index objects by key and arrays by
/// number, e.g. `workloads.0.poisson.arrival.load`.
#[derive(Clone, Debug)]
pub struct SweepAxis {
    /// Dotted path to patch.
    pub path: String,
    /// Values the axis takes, in sweep order.
    pub values: Vec<Value>,
}

/// A parsed sweep description.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// The raw base scenario JSON (kept raw so patches can target any
    /// field before strict parsing).
    pub base: Value,
    /// Sweep dimensions; the cross product defines the grid.
    pub axes: Vec<SweepAxis>,
}

/// One fully resolved grid point.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Grid index (deterministic merge order).
    pub index: usize,
    /// `path=value` pairs, comma-joined.
    pub label: String,
    /// The axis assignments as an object.
    pub overrides: Value,
    /// The patched, validated scenario.
    pub spec: ScenarioSpec,
}

/// The result of one executed grid point.
#[derive(Clone, Debug)]
pub struct SweepPointResult {
    /// Grid index.
    pub index: usize,
    /// `path=value` pairs, comma-joined.
    pub label: String,
    /// The axis assignments as an object.
    pub overrides: Value,
    /// Deterministic report JSON (see [`super::report_json`]).
    pub report: Value,
    /// Sanitized telemetry export, when requested (wall-clock lines
    /// stripped so snapshots are byte-identical across runs).
    pub telemetry_jsonl: Option<String>,
}

impl SweepSpec {
    /// Parse a sweep document.
    pub fn from_value(v: &Value) -> Result<SweepSpec, ScenarioError> {
        let obj = v
            .as_object()
            .ok_or_else(|| field_err("sweep", "must be an object"))?;
        for (key, _) in obj {
            if key != "base" && key != "axes" {
                return Err(field_err(
                    format!("sweep.{key}"),
                    "unknown field (allowed: base, axes)",
                ));
            }
        }
        let base = v
            .get("base")
            .ok_or_else(|| field_err("sweep.base", "missing required field"))?
            .clone();
        // The base must itself be a valid scenario.
        ScenarioSpec::from_value(&base)?;
        let axes_v = v
            .get("axes")
            .and_then(|a| a.as_array())
            .ok_or_else(|| field_err("sweep.axes", "must be an array"))?;
        let mut axes = Vec::with_capacity(axes_v.len());
        for (i, axis) in axes_v.iter().enumerate() {
            let ap = format!("sweep.axes.{i}");
            if let Some(entries) = axis.as_object() {
                for (key, _) in entries {
                    if key != "path" && key != "values" {
                        return Err(field_err(
                            format!("{ap}.{key}"),
                            "unknown field (allowed: path, values)",
                        ));
                    }
                }
            }
            let path = axis
                .get("path")
                .and_then(|p| p.as_str())
                .ok_or_else(|| field_err(format!("{ap}.path"), "must be a string"))?
                .to_string();
            let values = axis
                .get("values")
                .and_then(|vs| vs.as_array())
                .ok_or_else(|| field_err(format!("{ap}.values"), "must be an array"))?
                .to_vec();
            if values.is_empty() {
                return Err(field_err(format!("{ap}.values"), "must not be empty"));
            }
            axes.push(SweepAxis { path, values });
        }
        Ok(SweepSpec { base, axes })
    }

    /// Parse a sweep document from JSON text.
    pub fn from_json(text: &str) -> Result<SweepSpec, ScenarioError> {
        SweepSpec::from_value(&Value::parse(text).map_err(ScenarioError::Json)?)
    }

    /// Resolve the full grid: every combination patched into the base and
    /// strictly parsed. The rightmost axis varies fastest.
    pub fn points(&self) -> Result<Vec<SweepPoint>, ScenarioError> {
        let total: usize = self.axes.iter().map(|a| a.values.len()).product();
        let mut points = Vec::with_capacity(total);
        for index in 0..total {
            // Decompose `index` into per-axis positions, rightmost fastest.
            let mut rem = index;
            let mut picks = vec![0usize; self.axes.len()];
            for (a, axis) in self.axes.iter().enumerate().rev() {
                picks[a] = rem % axis.values.len();
                rem /= axis.values.len();
            }
            let mut patched = self.base.clone();
            let mut overrides = Value::object();
            let mut label_parts = Vec::with_capacity(self.axes.len());
            for (axis, &pick) in self.axes.iter().zip(&picks) {
                let value = &axis.values[pick];
                patch(&mut patched, &axis.path, value)?;
                overrides = overrides.set(axis.path.as_str(), value.clone());
                label_parts.push(format!("{}={}", axis.path, value.to_compact()));
            }
            let spec = ScenarioSpec::from_value(&patched)?;
            points.push(SweepPoint {
                index,
                label: label_parts.join(","),
                overrides,
                spec,
            });
        }
        Ok(points)
    }
}

/// Apply `value` at dotted `path` inside `v`. Intermediate segments must
/// exist; the final segment may insert a new object key.
fn patch(v: &mut Value, path: &str, value: &Value) -> Result<(), ScenarioError> {
    let segs: Vec<&str> = path.split('.').collect();
    patch_in(v, &segs, path, value)
}

fn patch_in(v: &mut Value, segs: &[&str], full: &str, value: &Value) -> Result<(), ScenarioError> {
    if segs.is_empty() {
        *v = value.clone();
        return Ok(());
    }
    let seg = segs[0];
    match v {
        Value::Object(entries) => {
            if let Some(slot) = entries
                .iter_mut()
                .find(|(k, _)| k == seg)
                .map(|(_, slot)| slot)
            {
                patch_in(slot, &segs[1..], full, value)
            } else if segs.len() == 1 {
                entries.push((seg.to_string(), value.clone()));
                Ok(())
            } else {
                Err(field_err(full, format!("no key '{seg}' along the path")))
            }
        }
        Value::Array(items) => {
            let idx: usize = seg
                .parse()
                .map_err(|_| field_err(full, format!("'{seg}' is not an array index")))?;
            match items.get_mut(idx) {
                Some(slot) => patch_in(slot, &segs[1..], full, value),
                None => Err(field_err(
                    full,
                    format!("index {idx} out of bounds ({} elements)", items.len()),
                )),
            }
        }
        _ => Err(field_err(
            full,
            format!("segment '{seg}' indexes into a non-container"),
        )),
    }
}

/// Strip wall-clock-dependent lines from a telemetry JSONL export:
/// `profile` lines and the `runtime_synth_ns` histogram measure host time
/// and differ run-to-run; everything else is simulation-time only.
pub fn sanitize_export(jsonl: &str) -> String {
    let mut out = String::with_capacity(jsonl.len());
    for line in jsonl.lines() {
        if line.starts_with("{\"type\":\"profile\"")
            || line.contains("\"name\":\"runtime_synth_ns\"")
        {
            continue;
        }
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Run every grid point across `jobs` OS threads (one engine per thread,
/// per-scenario seeded RNG) and merge results in grid order. Output is
/// byte-identical at any `jobs` level. With `with_telemetry`, each point
/// runs under its own enabled registry and returns a sanitized JSONL
/// snapshot. Every point passes through the static policy verifier
/// before running; `deny_warnings` promotes its warnings to failures.
pub fn run_sweep(
    spec: &SweepSpec,
    jobs: usize,
    with_telemetry: bool,
    deny_warnings: bool,
) -> Result<Vec<SweepPointResult>, ScenarioError> {
    let points = spec.points()?;
    // Collecting stops at the first error in grid order.
    ordered_par_map(points.len(), jobs, |idx| {
        run_point(&points[idx], with_telemetry, deny_warnings)
    })
    .into_iter()
    .collect()
}

fn run_point(
    point: &SweepPoint,
    with_telemetry: bool,
    deny_warnings: bool,
) -> Result<SweepPointResult, ScenarioError> {
    // Telemetry registries are thread-local by construction (`Rc`-based
    // handles), so each point builds its own inside the worker.
    let (engine, telemetry) = if with_telemetry {
        let telemetry = qvisor_telemetry::Telemetry::enabled();
        (Engine::new().with_telemetry(&telemetry), Some(telemetry))
    } else {
        (Engine::new(), None)
    };
    let engine = engine.with_deny_warnings(deny_warnings);
    let report = engine.run(&point.spec)?;
    Ok(SweepPointResult {
        index: point.index,
        label: point.label.clone(),
        overrides: point.overrides.clone(),
        report: super::report_json(&report),
        telemetry_jsonl: telemetry.map(|t| sanitize_export(&t.export_jsonl())),
    })
}

/// Merge point results into the sweep's deterministic output document.
pub fn merged_value(spec: &SweepSpec, results: &[SweepPointResult]) -> Value {
    let name = spec
        .base
        .get("name")
        .and_then(|n| n.as_str())
        .unwrap_or("")
        .to_string();
    let points: Vec<Value> = results
        .iter()
        .map(|r| {
            Value::object()
                .set("index", r.index)
                .set("label", r.label.as_str())
                .set("overrides", r.overrides.clone())
                .set("result", r.report.clone())
        })
        .collect();
    Value::object()
        .set("scenario", name)
        .set("points", Value::from(points))
}
