//! `fig4_fabric` and `fig4_observed`: the paper's §4 point — 144-host
//! leaf–spine, 2,000 data-mining pFabric flows (sizes ÷ 10) at load 0.6
//! beside 100 EDF CBR streams, policy `pFabric >> EDF`, exact PIFO,
//! sequential engine. Both workloads run the same document; the observed
//! one attaches the metrics registry, the flight recorder and the SLO
//! monitor, and also renders their three exports.

use super::{arm_recorder, overhead_share, secs, set_path, Extra, Outcome, RepClock, RunCfg};
use crate::calib::Bracket;
use crate::oracle;
use crate::spans::Recorder;
use crate::stats::Summary;
use qvisor_netsim::scenario::report_json;
use qvisor_netsim::{Engine, ScenarioSpec};
use qvisor_serve::registry::fnv1a;
use qvisor_sim::json::Value;
use qvisor_telemetry::{SloMonitor, Telemetry, TraceConfig, Tracer};
use std::time::Instant;

/// The scenario document; [`document`] patches the seed in.
const DOCUMENT: &str = include_str!("../../workloads/fig4.json");

/// How much of the scenario to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// The workload: 2,000 flows.
    Full,
    /// The layer probes: same fabric, policy and distributions, 200 flows.
    Probe,
    /// Unit tests: 8-host fabric, 40 flows.
    Smoke,
}

/// Which observers a run attaches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Observers {
    /// `Telemetry::enabled()` (metrics registry, journal, self-profiler).
    pub metrics: bool,
    /// `Tracer::enabled(TraceConfig::default())`.
    pub trace: bool,
    /// `SloMonitor::enabled(<the document's two alert rules>)`.
    pub monitor: bool,
}

impl Observers {
    /// Everything on (`fig4_observed`).
    pub const ALL: Observers = Observers {
        metrics: true,
        trace: true,
        monitor: true,
    };

    fn any(self) -> bool {
        self.metrics || self.trace || self.monitor
    }
}

/// The scenario document for `seed`.
///
/// The seed picks which host pairs the EDF tenant's CBR streams connect
/// (their RNG stream label; seed 1 is the paper's document as written).
/// The pFabric tenant's flows are the same for every seed on purpose:
/// data-mining sizes are so heavy-tailed that re-drawing 2,000 of them
/// moves the delivered packets by a quarter (247 k–312 k over two seeds),
/// and a workload whose amount of work follows the seed cannot be held
/// to any useful bound.
pub fn document(seed: u64, shape: Shape) -> String {
    let mut doc = Value::parse(DOCUMENT).expect("workloads/fig4.json is JSON");
    set_path(
        &mut doc,
        &["workloads", "1", "cbr_fleet", "rng_stream"],
        Value::from(seed.wrapping_add(1)),
    );
    let flows = ["workloads", "0", "poisson", "flows"];
    match shape {
        Shape::Full => {}
        Shape::Probe => set_path(&mut doc, &flows, Value::from(200u64)),
        Shape::Smoke => {
            set_path(&mut doc, &flows, Value::from(40u64));
            let fabric = ["topology", "leaf_spine"];
            set_path(
                &mut doc,
                &[fabric[0], fabric[1], "leaves"],
                Value::from(2u64),
            );
            set_path(
                &mut doc,
                &[fabric[0], fabric[1], "spines"],
                Value::from(2u64),
            );
            set_path(
                &mut doc,
                &[fabric[0], fabric[1], "hosts_per_leaf"],
                Value::from(4u64),
            );
            set_path(
                &mut doc,
                &["workloads", "1", "cbr_fleet", "streams"],
                Value::from(4u64),
            );
        }
    }
    doc.to_pretty()
}

/// Everything one pass over the document produced.
pub struct Pass {
    /// Parse + check + build, seconds.
    pub setup_s: f64,
    /// `Simulation::run` alone, seconds.
    pub run_s: f64,
    /// The measured phase: run, plus the export renders when observed.
    pub measured_s: f64,
    /// Parse through report, seconds.
    pub total_s: f64,
    /// `ScenarioSpec::from_json`, seconds.
    pub parse_s: f64,
    /// `Engine::check`, seconds.
    pub check_s: f64,
    /// `Engine::build`, seconds.
    pub build_s: f64,
    /// `report_json(..).to_compact()`, seconds.
    pub report_s: f64,
    /// `[export_jsonl, trace snapshot + to_jsonl, monitor export]`,
    /// seconds each (zeros when nothing is observed).
    pub export_s: [f64; 3],
    /// Events the simulation processed.
    pub events: u64,
    /// Payload packets delivered, all tenants.
    pub delivered_pkts: u64,
    /// Reliable flows that completed.
    pub completed: u64,
    /// Reliable flows unfinished at the horizon.
    pub incomplete: u64,
    /// Mean FCT of small / large flows, microseconds (0 when the bucket is
    /// empty).
    pub fct_us: [f64; 2],
    /// FNV-1a of the compact report JSON.
    pub fingerprint: u64,
    /// The telemetry export (empty unless metrics were on).
    pub telemetry_jsonl: String,
    /// Flight-recorder records retained and evicted.
    pub trace_records: (u64, u64),
    /// Bytes of the monitor export.
    pub monitor_bytes: usize,
}

/// One pass: document text in, report out, through the same public calls
/// `qvisor run` makes.
pub fn pass(doc: &str, observers: Observers, rec: &mut Recorder) -> Pass {
    let root = rec.start("rep");
    let t0 = Instant::now();

    let span = rec.start("netsim.codec.parse");
    let spec = ScenarioSpec::from_json(doc).expect("benchmark scenario parses");
    rec.end(span);
    let t_parse = Instant::now();

    let telemetry = if observers.metrics {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let tracer = if observers.trace {
        Tracer::enabled(TraceConfig::default())
    } else {
        Tracer::disabled()
    };
    let monitor = if observers.monitor {
        SloMonitor::enabled(spec.alert_rules())
    } else {
        SloMonitor::disabled()
    };
    let engine = Engine::new()
        .with_telemetry(&telemetry)
        .with_tracer(&tracer)
        .with_monitor(&monitor);
    let t_engine = Instant::now();

    let span = rec.start("netsim.check");
    let verdict = engine.check(&spec).expect("benchmark scenario validates");
    rec.end(span);
    assert!(!verdict.has_errors(), "benchmark scenario verifies clean");
    let t_check = Instant::now();

    let span = rec.start("netsim.build");
    let sim = engine.build(&spec).expect("benchmark scenario builds");
    rec.end(span);
    let t_build = Instant::now();

    let span = rec.start("netsim.run");
    let report = sim.run();
    rec.end(span);
    let t_run = Instant::now();

    let mut export_s = [0.0; 3];
    let mut telemetry_jsonl = String::new();
    let mut trace_records = (0, 0);
    let mut monitor_bytes = 0;
    if observers.any() {
        let span = rec.start("telemetry.export_jsonl");
        telemetry_jsonl = telemetry.export_jsonl();
        rec.end(span);
        let t_a = Instant::now();
        let span = rec.start("telemetry.trace_snapshot");
        let snapshot = tracer.snapshot();
        let trace_jsonl = snapshot.to_jsonl();
        rec.end(span);
        let t_b = Instant::now();
        let span = rec.start("telemetry.monitor_export");
        let monitor_jsonl = monitor.export_jsonl();
        rec.end(span);
        let t_c = Instant::now();
        export_s = [secs(t_run, t_a), secs(t_a, t_b), secs(t_b, t_c)];
        trace_records = (snapshot.records.len() as u64, snapshot.dropped);
        monitor_bytes = monitor_jsonl.len();
        std::hint::black_box(&trace_jsonl);
    }
    let t_measured = Instant::now();

    let span = rec.start("netsim.report_json");
    let compact = report_json(&report).to_compact();
    rec.end(span);
    let t_end = Instant::now();
    rec.end(root);

    let fct_us = |bucket| {
        report
            .fct
            .mean_fct_ms(None, bucket)
            .map_or(0.0, |ms| ms * 1_000.0)
    };
    Pass {
        setup_s: secs(t0, t_parse) + secs(t_engine, t_build),
        run_s: secs(t_build, t_run),
        measured_s: secs(t_build, t_measured),
        total_s: secs(t0, t_end),
        parse_s: secs(t0, t_parse),
        check_s: secs(t_engine, t_check),
        build_s: secs(t_check, t_build),
        report_s: secs(t_measured, t_end),
        export_s,
        events: report.events,
        delivered_pkts: report.tenants.values().map(|t| t.delivered_pkts).sum(),
        completed: report.fct.count(None) as u64,
        incomplete: report.incomplete_flows,
        fct_us: [
            fct_us(qvisor_transport::SizeBucket::SMALL),
            fct_us(qvisor_transport::SizeBucket::LARGE),
        ],
        fingerprint: fnv1a(compact.as_bytes()),
        telemetry_jsonl,
        trace_records,
        monitor_bytes,
    }
}

/// Run `fig4_fabric` (`observed = false`) or `fig4_observed`.
pub fn run(cfg: &RunCfg, observed: bool) -> Outcome {
    let shape = if cfg.smoke { Shape::Smoke } else { Shape::Full };
    let doc = document(cfg.seed, shape);
    let observers = if observed {
        Observers::ALL
    } else {
        Observers::default()
    };
    let mut rec = Recorder::new(false, Instant::now());

    // Untimed warm-up, always unobserved: it pages in code and heap, and
    // its report is the oracle every timed rep must reproduce — which on
    // `fig4_observed` is the observers-on/off byte-identity, for any seed.
    let warm = pass(&doc, Observers::default(), &mut rec);

    let mut notes = Vec::new();
    let mut correct = true;
    if cfg.pinned() {
        let ok = oracle::check_hex("fig4_report_fnv1a", warm.fingerprint, &mut notes);
        correct &= ok;
    }

    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut rate, mut op_ms, mut setup) = (Vec::new(), Vec::new(), Vec::new());
    let (mut event_rate, mut raw_rate, mut host_speed) = (Vec::new(), Vec::new(), Vec::new());
    let (mut traced_wall, mut untraced_wall) = (Vec::new(), Vec::new());
    let mut trace_records = None;
    let mut clock = RepClock::start(cfg);
    while let Some(rep) = clock.next_rep() {
        let traced = arm_recorder(cfg, &mut rec, rep);
        let bracket = Bracket::open(1);
        let p = pass(&doc, observers, &mut rec);
        let speed = bracket.close();
        let flows = p.completed + p.incomplete;
        attempted += flows;
        let mut rep_ok = p.fingerprint == warm.fingerprint;
        if observed {
            // Observers on: the exports must carry data.
            rep_ok &= !p.telemetry_jsonl.is_empty() && p.trace_records.0 > 0 && p.monitor_bytes > 0;
        }
        if rep_ok {
            failed += p.incomplete;
        } else {
            failed += flows;
            correct = false;
            notes.push(format!(
                "rep {rep}: report fingerprint {:016x} != warm-up {:016x} or an export was empty",
                p.fingerprint, warm.fingerprint
            ));
        }
        if observed {
            trace_records = Some(p.trace_records);
        }
        rate.push(p.delivered_pkts as f64 / (p.measured_s * speed));
        event_rate.push(p.events as f64 / (p.measured_s * speed));
        raw_rate.push(p.delivered_pkts as f64 / p.measured_s);
        host_speed.push(speed);
        op_ms.push(p.total_s * speed * 1_000.0);
        setup.push(p.setup_s * speed);
        if traced {
            traced_wall.push(p.total_s);
        } else {
            untraced_wall.push(p.total_s);
        }
    }
    notes.push(format!(
        "report fnv1a {:016x}: {} events, {} delivered pkts, {} flows, equal across {} reps",
        warm.fingerprint,
        warm.events,
        warm.delivered_pkts,
        warm.completed + warm.incomplete,
        rate.len()
    ));
    let mut extras = vec![
        Extra::new("sim_events_per_s", "1/s", Summary::of(&event_rate)),
        Extra::new("work_per_s_raw", "1/s", Summary::of(&raw_rate)),
        Extra::new("bench.host_speed", "ratio", Summary::of(&host_speed)),
    ];
    if let Some((kept, evicted)) = trace_records {
        extras.push(Extra::new(
            "trace_evicted_share",
            "share",
            Summary::single(evicted as f64 / (kept + evicted).max(1) as f64),
        ));
    }
    Outcome {
        correct,
        attempted,
        failed,
        reps: rate.len(),
        work_per_s: Summary::of(&rate),
        op_ms: Summary::of(&op_ms),
        setup_s: Summary::of(&setup),
        extras,
        notes,
        spans: rec.spans().to_vec(),
        trace_overhead_share: overhead_share(&traced_wall, &untraced_wall),
    }
}
