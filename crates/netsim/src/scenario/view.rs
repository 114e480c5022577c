//! What a sweep prints: a document's `"view"` names the row each point's
//! report reduces to, and the table those rows make.
//!
//! - `fct_buckets` is the paper's Fig. 4 (§4), and the FCT ablations read
//!   the same way. Tenant 1 is the pFabric tenant whose flows the figure
//!   plots; tenant 2 the EDF tenant. A row is tenant 1's mean FCT of small
//!   `(0, 100 KB)` flows (Fig. 4a) and large `[1 MB, ∞)` flows (Fig. 4b),
//!   with both bucket edges divided by the workload's size divisor. Its
//!   scheme is the point's scenario `name` and its load is tenant 1's
//!   offered load. The rows pivot into two tables, scheme by load.
//! - `jain` is the share-group ablation: Jain's index over every tenant's
//!   delivered bytes, and the aggregate goodput, one line per point.
//!
//! A sweep without a view merges whole reports instead
//! ([`super::merged_value`]).

use super::{field_err, ArrivalSpec, ScenarioError, ScenarioSpec, SizeDistSpec, WorkloadSpec};
use crate::SimReport;
use qvisor_sim::json::{FieldError, Path, Value};
use qvisor_sim::{jain_fairness, TenantId};
use qvisor_transport::SizeBucket;
use std::fmt::Write as _;

/// Tenant 1: the pFabric tenant whose FCTs Fig. 4 plots.
const PFABRIC: TenantId = TenantId(1);
/// Tenant 2: the EDF CBR tenant.
const EDF: TenantId = TenantId(2);

/// The reduction a sweep document names in its `"view"` field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepView {
    /// `"fct_buckets"`: Fig. 4's rows and its two scheme-by-load tables.
    FctBuckets,
    /// `"jain"`: Jain's index and aggregate goodput, a line per point.
    Jain,
}

impl SweepView {
    pub(super) fn read(v: &Value, at: Path<'_>) -> Result<SweepView, FieldError> {
        match v.as_str() {
            Some("fct_buckets") => Ok(SweepView::FctBuckets),
            Some("jain") => Ok(SweepView::Jain),
            _ => Err(at.error(format!(
                "unknown view {} (allowed: fct_buckets, jain)",
                v.to_compact()
            ))),
        }
    }

    /// Refuse a point the view has no row for; run before any point runs.
    pub(super) fn check(self, spec: &ScenarioSpec) -> Result<(), ScenarioError> {
        match self {
            SweepView::FctBuckets => load_and_scale(spec).map(drop),
            SweepView::Jain => Ok(()),
        }
    }

    /// A point's row: what the sweep keeps of its report.
    pub(super) fn row(
        self,
        spec: &ScenarioSpec,
        report: &SimReport,
    ) -> Result<Value, ScenarioError> {
        match self {
            SweepView::FctBuckets => extract_point(spec, report),
            SweepView::Jain => {
                let bytes: Vec<f64> = (report.tenants.values())
                    .map(|t| t.delivered_bytes as f64)
                    .collect();
                let gbps = bytes.iter().sum::<f64>() * 8.0 / report.end_time.as_secs_f64() / 1e9;
                Ok(Value::object()
                    .set("name", spec.name.as_str())
                    .set("jain", jain_fairness(&bytes))
                    .set("goodput_gbps", gbps))
            }
        }
    }

    /// The table a sweep's rows make, in grid order.
    pub fn table(self, rows: &[Value]) -> String {
        fn text<'v>(row: &'v Value, key: &str) -> &'v str {
            row.get(key).and_then(Value::as_str).unwrap_or("")
        }
        let num = |row: &Value, key| row.get(key).and_then(Value::as_f64);
        let cell = |out: &mut String, v: Option<f64>, decimals: usize| match v {
            Some(v) => write!(out, "{v:>9.decimals$}").unwrap(),
            None => write!(out, "{:>9}", "-").unwrap(),
        };
        let mut out = String::new();
        if self == SweepView::Jain {
            writeln!(out, "{:<26}{:>9}{:>9}", "scenario", "Jain", "Gbps").unwrap();
            for row in rows {
                write!(out, "{:<26}", text(row, "name")).unwrap();
                cell(&mut out, num(row, "jain"), 4);
                cell(&mut out, num(row, "goodput_gbps"), 2);
                out.push('\n');
            }
            return out;
        }
        let schemes = distinct(rows.iter().map(|r| text(r, "scheme")));
        let loads = distinct(rows.iter().filter_map(|r| num(r, "load")));
        for (title, key, decimals) in [
            (
                "Figure 4a: (0,100KB) mean FCTs of pFabric traffic (ms)",
                "small_fct_ms",
                3,
            ),
            (
                "Figure 4b: [1MB,inf) mean FCTs of pFabric traffic (ms)",
                "large_fct_ms",
                2,
            ),
        ] {
            write!(out, "\n{title}\n{:<26}", "scheme \\ load").unwrap();
            for load in &loads {
                write!(out, "{load:>9.1}").unwrap();
            }
            out.push('\n');
            for scheme in &schemes {
                write!(out, "{scheme:<26}").unwrap();
                for load in &loads {
                    let row = (rows.iter())
                        .find(|r| text(r, "scheme") == *scheme && num(r, "load") == Some(*load));
                    cell(&mut out, row.and_then(|r| num(r, key)), decimals);
                }
                out.push('\n');
            }
        }
        out
    }
}

/// `items` with repeats dropped, in order of first appearance.
fn distinct<T: PartialEq>(items: impl Iterator<Item = T>) -> Vec<T> {
    let mut out = Vec::new();
    for item in items {
        if !out.contains(&item) {
            out.push(item);
        }
    }
    out
}

/// Size bucket matching Fig. 4 under a scaled workload: the paper's
/// boundaries divided by the same scale factor.
fn scaled_bucket(bucket: SizeBucket, den: u64) -> SizeBucket {
    SizeBucket {
        lo: (bucket.lo / den).max(1),
        hi: if bucket.hi == u64::MAX {
            u64::MAX
        } else {
            (bucket.hi / den).max(2)
        },
    }
}

/// Tenant 1's offered load and flow-size divisor, read from its Poisson
/// workload: the two numbers a point's row needs from its scenario.
fn load_and_scale(spec: &ScenarioSpec) -> Result<(f64, u64), ScenarioError> {
    spec.workloads
        .iter()
        .find_map(|w| match w {
            WorkloadSpec::Poisson {
                tenant,
                sizes:
                    SizeDistSpec::DataMining { scale_den } | SizeDistSpec::WebSearch { scale_den },
                arrival: ArrivalSpec::Load(load),
                ..
            } if *tenant == PFABRIC.0 => Some((*load, *scale_den)),
            _ => None,
        })
        .ok_or_else(|| {
            field_err(
                "sweep.view",
                format!(
                    "fct_buckets: scenario '{}' has no tenant-1 Poisson workload with a load \
                     and a data-mining or web-search size divisor",
                    spec.name
                ),
            )
        })
}

/// Reduce a report to its Fig. 4 row.
fn extract_point(spec: &ScenarioSpec, report: &SimReport) -> Result<Value, ScenarioError> {
    let (load, den) = load_and_scale(spec)?;
    let mean_ms = |bucket| {
        report
            .fct
            .mean_fct_ms(Some(PFABRIC), scaled_bucket(bucket, den))
    };
    Ok(Value::object()
        .set("scheme", spec.name.as_str())
        .set("load", load)
        .set("small_fct_ms", mean_ms(SizeBucket::SMALL))
        .set("large_fct_ms", mean_ms(SizeBucket::LARGE))
        .set("completed", report.fct.count(Some(PFABRIC)))
        .set("incomplete", report.incomplete_flows)
        .set("deadline_hit", report.tenant(EDF).deadline_hit_rate()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Engine, SweepSpec};

    const SMOKE: &str = include_str!("../../../../examples/sweeps/fig4_smoke.json");

    /// The smoke document's point for `scheme` at `load`, run: its row and
    /// its report.
    fn smoke_point(scheme: &str, load: f64) -> (Value, SimReport) {
        let point = SweepSpec::from_json(SMOKE)
            .unwrap()
            .points()
            .unwrap()
            .into_iter()
            .find(|p| p.spec.name == scheme && load_and_scale(&p.spec).unwrap().0 == load)
            .unwrap_or_else(|| panic!("fig4_smoke.json has no point ({scheme}, {load})"));
        let report = Engine::new().run(&point.spec).unwrap();
        let row = SweepView::FctBuckets.row(&point.spec, &report).unwrap();
        (row, report)
    }

    fn small_fct_ms(scheme: &str, load: f64) -> Option<f64> {
        smoke_point(scheme, load).0.get("small_fct_ms")?.as_f64()
    }

    #[test]
    fn smoke_point_runs_and_completes() {
        let (row, report) = smoke_point("QVISOR: pFabric >> EDF", 0.4);
        assert_eq!(
            row.get("scheme").and_then(Value::as_str),
            Some("QVISOR: pFabric >> EDF")
        );
        assert!(row.get("completed").and_then(Value::as_u64) > Some(0));
        assert!(row.get("small_fct_ms").and_then(Value::as_f64).is_some());
        assert!(report.events > 1_000);
    }

    #[test]
    fn ideal_runs_without_edf_traffic() {
        let (row, _) = smoke_point("PIFO: pFabric", 0.4);
        assert_eq!(
            row.get("deadline_hit"),
            Some(&Value::Null),
            "no EDF tenant in the ideal case"
        );
    }

    #[test]
    fn scheme_ordering_holds_at_moderate_load() {
        // The paper's headline: QVISOR pF>>EDF ≈ ideal, while naive PIFO
        // sharing and EDF-first are clearly worse for small flows.
        let small = |scheme: &str| small_fct_ms(scheme, 0.5).unwrap();
        let ideal = small("PIFO: pFabric");
        let qv_first = small("QVISOR: pFabric >> EDF");
        let naive = small("PIFO: pFabric and EDF");
        let edf_first = small("QVISOR: EDF >> pFabric");
        assert!(
            qv_first < naive,
            "QVISOR pF>>EDF ({qv_first:.3}) must beat naive PIFO ({naive:.3})"
        );
        assert!(
            qv_first < edf_first,
            "QVISOR pF>>EDF ({qv_first:.3}) must beat EDF-first ({edf_first:.3})"
        );
        assert!(
            qv_first < ideal * 2.0,
            "QVISOR pF>>EDF ({qv_first:.3}) should be near ideal ({ideal:.3})"
        );
    }

    #[test]
    fn scaled_buckets() {
        let s = scaled_bucket(SizeBucket::SMALL, 50);
        assert_eq!(s.lo, 1);
        assert_eq!(s.hi, 2_000);
        let l = scaled_bucket(SizeBucket::LARGE, 50);
        assert_eq!(l.lo, 20_000);
        assert_eq!(l.hi, u64::MAX);
    }

    #[test]
    fn a_point_without_a_tenant_1_poisson_load_has_no_row() {
        let mut spec = SweepSpec::from_json(SMOKE).unwrap().points().unwrap()[0]
            .spec
            .clone();
        spec.workloads.remove(0);
        let err = load_and_scale(&spec).unwrap_err().to_string();
        assert!(err.contains("tenant-1 Poisson"), "{err}");
        assert!(err.contains("sweep.view"), "{err}");
    }
}
