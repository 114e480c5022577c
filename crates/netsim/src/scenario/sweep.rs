//! Deterministic parallel scenario sweeps.
//!
//! A sweep file is `{"base": <scenario>, "axes": [...]}`: the cross
//! product of all axis values (rightmost axis fastest) is applied to the
//! base scenario as JSON patches, each point is run on its own engine (one
//! per OS thread, per-scenario seeded RNG), and results are merged in grid
//! order — so the output is byte-identical at any `--jobs` level.
//!
//! An axis either names one dotted `path` and lists the values it takes
//! (`{"path": "workloads.0.poisson.arrival.load", "values": [0.2, 0.4]}`),
//! or names no path and lists *patch objects*, each setting several dotted
//! paths at once (`{"values": [{"name": "FIFO", "scheduler": {"fifo":
//! {}}, "qvisor": null}, ...]}`). Patches apply in axis order, and within
//! a patch object in key order, so a later axis may patch inside what an
//! earlier one replaced.
//!
//! An optional `"view"` names what each point's report reduces to and how
//! the rows print ([`SweepView`]); without one, every point keeps its
//! whole report.

use super::{field_err, Engine, ScenarioError, ScenarioSpec, SweepView};
use qvisor_sim::json::Value;
use qvisor_sim::ordered_par_map;

/// One sweep dimension. Each value is a patch: the dotted paths it sets,
/// in order, and what it sets them to. Path segments index objects by key
/// and arrays by number, e.g. `workloads.0.poisson.arrival.load`.
#[derive(Clone, Debug)]
pub struct SweepAxis {
    /// The patches the axis takes, in sweep order.
    pub values: Vec<Vec<(String, Value)>>,
}

/// A parsed sweep description.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// The raw base scenario JSON (kept raw so patches can target any
    /// field before strict parsing).
    pub base: Value,
    /// Sweep dimensions; the cross product defines the grid.
    pub axes: Vec<SweepAxis>,
    /// The row each point's report reduces to, if the document names one.
    pub view: Option<SweepView>,
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
    /// Deterministic report JSON (see [`super::report_json`]), or the
    /// view's row when the sweep names a view.
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
            if key != "base" && key != "axes" && key != "view" {
                return Err(field_err(
                    format!("sweep.{key}"),
                    "unknown field (allowed: base, axes, view)",
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
            let values = axis
                .get("values")
                .and_then(|vs| vs.as_array())
                .ok_or_else(|| field_err(format!("{ap}.values"), "must be an array"))?;
            if values.is_empty() {
                return Err(field_err(format!("{ap}.values"), "must not be empty"));
            }
            let values = match axis.get("path") {
                Some(path) => {
                    let path = path
                        .as_str()
                        .ok_or_else(|| field_err(format!("{ap}.path"), "must be a string"))?;
                    values
                        .iter()
                        .map(|v| vec![(path.to_string(), v.clone())])
                        .collect()
                }
                None => values
                    .iter()
                    .enumerate()
                    .map(|(j, v)| patch_object(v, &format!("{ap}.values.{j}")))
                    .collect::<Result<_, _>>()?,
            };
            axes.push(SweepAxis { values });
        }
        let view = v.get("view").map(SweepView::from_value).transpose()?;
        Ok(SweepSpec { base, axes, view })
    }

    /// Parse a sweep document from JSON text.
    pub fn from_json(text: &str) -> Result<SweepSpec, ScenarioError> {
        SweepSpec::from_value(&Value::parse(text).map_err(ScenarioError::Json)?)
    }

    /// Resolve the full grid: every combination patched into the base,
    /// strictly parsed and checked to have a row under the sweep's view.
    /// The rightmost axis varies fastest.
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
                for (path, value) in &axis.values[pick] {
                    patch(&mut patched, path, value)?;
                    overrides = overrides.set(path.as_str(), value.clone());
                    label_parts.push(format!("{path}={}", value.to_compact()));
                }
            }
            let spec = ScenarioSpec::from_value(&patched)?;
            if let Some(view) = self.view {
                view.check(&spec)?;
            }
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

/// The `(path, value)` pairs of one patch object, the value of an axis
/// that names no path of its own.
fn patch_object(v: &Value, at: &str) -> Result<Vec<(String, Value)>, ScenarioError> {
    let entries = v.as_object().ok_or_else(|| {
        field_err(
            at,
            "an axis without a path takes patch objects ({\"dotted.path\": value, ...})",
        )
    })?;
    if entries.is_empty() {
        return Err(field_err(at, "a patch object must set at least one path"));
    }
    if entries.iter().any(|(key, _)| key == "path") {
        return Err(field_err(
            at,
            "a patch object names its paths as keys; `path` belongs to a one-path axis",
        ));
    }
    Ok(entries.to_vec())
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
/// Under a view, each point keeps its row rather than its report.
pub fn run_sweep(
    spec: &SweepSpec,
    jobs: usize,
    with_telemetry: bool,
    deny_warnings: bool,
) -> Result<Vec<SweepPointResult>, ScenarioError> {
    let points = spec.points()?;
    // Collecting stops at the first error in grid order.
    ordered_par_map(points.len(), jobs, |idx| {
        run_point(&points[idx], spec.view, with_telemetry, deny_warnings)
    })
    .into_iter()
    .collect()
}

fn run_point(
    point: &SweepPoint,
    view: Option<SweepView>,
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
        report: match view {
            Some(view) => view.row(&point.spec, &report)?,
            None => super::report_json(&report),
        },
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::WorkloadSpec;
    use qvisor_core::Backend;

    const BASE: &str = include_str!("../../../../examples/scenarios/fig4_point.json");

    fn sweep(axes: &str) -> Result<SweepSpec, ScenarioError> {
        SweepSpec::from_json(&format!(r#"{{"base": {BASE}, "axes": {axes}}}"#))
    }

    fn load_of(spec: &ScenarioSpec) -> f64 {
        match &spec.workloads[0] {
            WorkloadSpec::Poisson {
                arrival: crate::scenario::ArrivalSpec::Load(load),
                ..
            } => *load,
            other => panic!("workload 0 is {other:?}"),
        }
    }

    #[test]
    fn a_patch_object_sets_several_paths_and_later_axes_patch_inside_it() {
        let spec = sweep(
            r#"[
              {"values": [
                {"name": "fifo", "scheduler": {"fifo": {}}, "qvisor": null},
                {"name": "alone", "workloads": [{"poisson": {"tenant": 1, "flows": 10,
                  "sizes": {"data_mining": {"scale_den": 50}},
                  "arrival": {"load": 0.9}, "rng_stream": 1}}]}
              ]},
              {"path": "workloads.0.poisson.arrival.load", "values": [0.3, 0.5]}
            ]"#,
        )
        .unwrap();
        let points = spec.points().unwrap();
        assert_eq!(points.len(), 4);
        let fifo = &points[1].spec;
        assert_eq!(fifo.name, "fifo");
        assert_eq!(fifo.scheduler, Backend::Fifo);
        assert!(fifo.qvisor.is_none());
        assert_eq!(fifo.workloads.len(), 2, "the base's CBR fleet stays");
        assert_eq!(load_of(fifo), 0.5);
        // The load axis comes after the scheme axis, so it patches the
        // array the scheme replaced, not the base's.
        let alone = &points[2].spec;
        assert_eq!(alone.name, "alone");
        assert_eq!(alone.workloads.len(), 1);
        assert_eq!(load_of(alone), 0.3);
        assert!(
            alone.qvisor.is_some(),
            "paths a patch leaves alone keep the base"
        );
        assert_eq!(
            points[1].label,
            r#"name="fifo",scheduler={"fifo":{}},qvisor=null,workloads.0.poisson.arrival.load=0.5"#
        );
        assert_eq!(
            points[1].overrides.get("scheduler"),
            Some(&Value::object().set("fifo", Value::object()))
        );
    }

    #[test]
    fn within_a_patch_object_keys_apply_in_order() {
        let spec = sweep(
            r#"[{"values": [{"workloads": [{"poisson": {"tenant": 1, "flows": 10,
                  "sizes": {"data_mining": {"scale_den": 50}},
                  "arrival": {"load": 0.9}, "rng_stream": 1}}],
                "workloads.0.poisson.arrival.load": 0.4}]}]"#,
        )
        .unwrap();
        let point = &spec.points().unwrap()[0];
        assert_eq!(point.spec.workloads.len(), 1);
        assert_eq!(load_of(&point.spec), 0.4);
        // Reversed, the whole array lands last and the load patch is lost.
        let spec = sweep(
            r#"[{"values": [{"workloads.0.poisson.arrival.load": 0.4,
                "workloads": [{"poisson": {"tenant": 1, "flows": 10,
                  "sizes": {"data_mining": {"scale_den": 50}},
                  "arrival": {"load": 0.9}, "rng_stream": 1}}]}]}]"#,
        )
        .unwrap();
        assert_eq!(load_of(&spec.points().unwrap()[0].spec), 0.9);
    }

    #[test]
    fn an_unknown_key_in_a_patch_is_refused_by_name() {
        let spec = sweep(r#"[{"values": [{"nmae": "x"}]}]"#).unwrap();
        let err = spec.points().unwrap_err().to_string();
        assert!(err.contains("nmae"), "{err}");
        let spec = sweep(r#"[{"values": [{"qvisor.tenantz.0.levels": 4}]}]"#).unwrap();
        let err = spec.points().unwrap_err().to_string();
        assert!(err.contains("qvisor.tenantz.0.levels"), "{err}");
        assert!(err.contains("no key 'tenantz'"), "{err}");
    }

    #[test]
    fn an_empty_patch_object_is_refused() {
        let err = sweep(r#"[{"values": [{"seed": 2}, {}]}]"#)
            .unwrap_err()
            .to_string();
        assert!(err.contains("sweep.axes.0.values.1"), "{err}");
        assert!(err.contains("at least one path"), "{err}");
    }

    #[test]
    fn a_value_mixing_path_with_a_patch_object_is_refused() {
        let err = sweep(r#"[{"values": [{"path": "seed", "seed": 2}]}]"#)
            .unwrap_err()
            .to_string();
        assert!(err.contains("sweep.axes.0.values.0"), "{err}");
        assert!(err.contains("`path`"), "{err}");
        // Without a path, every value must be a patch object.
        let err = sweep(r#"[{"values": [{"seed": 2}, 3]}]"#)
            .unwrap_err()
            .to_string();
        assert!(err.contains("sweep.axes.0.values.1"), "{err}");
        assert!(err.contains("patch objects"), "{err}");
    }

    #[test]
    fn a_one_path_axis_labels_as_before() {
        let spec = sweep(r#"[{"path": "seed", "values": [3, 4]}]"#).unwrap();
        let points = spec.points().unwrap();
        assert_eq!(points[1].label, "seed=4");
        assert_eq!(points[1].spec.seed, 4);
        assert_eq!(points[1].overrides, Value::object().set("seed", 4u64));
    }
}
