//! The paper's Fig. 4 experiment (§4), read back from a sweep document.
//!
//! Setup (paper): a 144-server leaf–spine fabric (9 leaves, 4 spines,
//! 1 Gbps access, 4 Gbps fabric). Tenant 1 runs a data-mining workload
//! scheduled with pFabric; tenant 2 runs 100 CBR flows at 0.5 Gbps between
//! uniformly random server pairs, scheduled with EDF. The measured metric
//! is tenant 1's mean FCT for small flows `(0, 100 KB)` (Fig. 4a) and
//! large flows `[1 MB, ∞)` (Fig. 4b), across loads 0.2–0.8, under six
//! schemes (FIFO, naive PIFO, ideal PIFO, and QVISOR under three policies).
//!
//! The experiment is data: `examples/sweeps/fig4_paper.json` is the
//! recorded run (a scheme axis of patch objects, then a load axis), and
//! every number a scheme needs — the pFabric rank bound, the EDF rank unit
//! — is written in it. This module only runs a document's points and
//! reduces each report to the figure's row; the `ablation_backend` and
//! `ablation_quantization` documents are read the same way.

use qvisor_netsim::scenario::{
    ArrivalSpec, Engine, ScenarioSpec, SizeDistSpec, SweepPoint, SweepSpec, WorkloadSpec,
};
use qvisor_netsim::SimReport;
use qvisor_sim::{ordered_par_map, TenantId};
use qvisor_transport::SizeBucket;

/// Tenant 1: the pFabric tenant whose FCTs the figure plots.
const PFABRIC: TenantId = TenantId(1);
/// Tenant 2: the EDF CBR tenant.
const EDF: TenantId = TenantId(2);

/// One measured point of Fig. 4.
#[derive(Clone, Debug)]
pub struct Fig4Point {
    /// The scheme's legend label: the point's scenario `name`.
    pub label: String,
    /// Tenant 1's offered load.
    pub load: f64,
    /// Fig. 4a: mean FCT of pFabric flows in (0, 100 KB), milliseconds.
    pub small_fct_ms: Option<f64>,
    /// Fig. 4b: mean FCT of pFabric flows in [1 MB, ∞), milliseconds.
    pub large_fct_ms: Option<f64>,
    /// pFabric flows completed.
    pub completed: usize,
    /// pFabric flows not finished at the horizon.
    pub incomplete: u64,
    /// Tenant 2 deadline hit rate, if tenant 2 ran.
    pub deadline_hit: Option<f64>,
    /// Events processed (for performance bookkeeping).
    pub events: u64,
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
fn load_and_scale(spec: &ScenarioSpec) -> Result<(f64, u64), String> {
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
            format!(
                "scenario '{}': no tenant-1 Poisson workload with a load and a \
                 data-mining or web-search size divisor",
                spec.name
            )
        })
}

/// Reduce a raw report to the figure's measured point.
fn extract_point(spec: &ScenarioSpec, report: &SimReport) -> Result<Fig4Point, String> {
    let (load, den) = load_and_scale(spec)?;
    let small = scaled_bucket(SizeBucket::SMALL, den);
    let large = scaled_bucket(SizeBucket::LARGE, den);
    Ok(Fig4Point {
        label: spec.name.clone(),
        load,
        small_fct_ms: report.fct.mean_fct_ms(Some(PFABRIC), small),
        large_fct_ms: report.fct.mean_fct_ms(Some(PFABRIC), large),
        completed: report.fct.count(Some(PFABRIC)),
        incomplete: report.incomplete_flows,
        deadline_hit: report.tenant(EDF).deadline_hit_rate(),
        events: report.events,
    })
}

/// Resolve a sweep document's grid and check that every point has a row
/// to reduce to, before anything runs.
pub fn resolve(sweep: &SweepSpec) -> Result<Vec<SweepPoint>, String> {
    let points = sweep.points().map_err(|e| e.to_string())?;
    for point in &points {
        load_and_scale(&point.spec)?;
    }
    Ok(points)
}

/// Run every point on its own engine across the host's cores and reduce
/// each to its row, in grid order. The rows do not depend on the thread
/// count. `progress` sees each row as its point finishes.
pub fn run_points(
    points: &[SweepPoint],
    progress: impl Fn(&Fig4Point, std::time::Duration) + Sync,
) -> Result<Vec<Fig4Point>, String> {
    let jobs = std::thread::available_parallelism().map_or(1, usize::from);
    ordered_par_map(points.len(), jobs, |i| {
        let t0 = std::time::Instant::now();
        let spec = &points[i].spec;
        let report = Engine::new()
            .run(spec)
            .map_err(|e| format!("scenario '{}': {e}", spec.name))?;
        let row = extract_point(spec, &report)?;
        progress(&row, t0.elapsed());
        Ok(row)
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: &str = include_str!("../../../examples/sweeps/fig4_smoke.json");

    /// The smoke document's point for `label` at `load`, run.
    fn smoke_point(label: &str, load: f64) -> Fig4Point {
        let point = SweepSpec::from_json(SMOKE)
            .unwrap()
            .points()
            .unwrap()
            .into_iter()
            .find(|p| p.spec.name == label && load_and_scale(&p.spec).unwrap().0 == load)
            .unwrap_or_else(|| panic!("fig4_smoke.json has no point ({label}, {load})"));
        let report = Engine::new().run(&point.spec).unwrap();
        extract_point(&point.spec, &report).unwrap()
    }

    #[test]
    fn smoke_point_runs_and_completes() {
        let p = smoke_point("QVISOR: pFabric >> EDF", 0.4);
        assert_eq!(p.label, "QVISOR: pFabric >> EDF");
        assert!(p.completed > 0);
        assert!(p.small_fct_ms.is_some());
        assert!(p.events > 1_000);
    }

    #[test]
    fn ideal_runs_without_edf_traffic() {
        let p = smoke_point("PIFO: pFabric", 0.4);
        assert_eq!(p.deadline_hit, None, "no EDF tenant in the ideal case");
    }

    #[test]
    fn scheme_ordering_holds_at_moderate_load() {
        // The paper's headline: QVISOR pF>>EDF ≈ ideal, while naive PIFO
        // sharing and EDF-first are clearly worse for small flows.
        let small = |label: &str| smoke_point(label, 0.5).small_fct_ms.unwrap();
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
        let err = load_and_scale(&spec).unwrap_err();
        assert!(err.contains("tenant-1 Poisson"), "{err}");
    }
}
