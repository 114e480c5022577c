//! Differential lockdown of the event core.
//!
//! The calendar queue ([`EventCore::Wheel`]) is a perf rewrite of a
//! determinism-critical structure, so it is only shippable if it is
//! *observationally identical* to the binary-heap oracle
//! ([`EventCore::Heap`]). Two layers prove that:
//!
//! 1. Randomized traces (seeded [`SimRng`], so failures reproduce) drive
//!    both cores through identical schedule/pop sequences — including
//!    same-timestamp bursts, every tier of the calendar (the open 256 ns
//!    bucket, the 2^20 ns fine ring, the 2^32 ns coarse ring, the heap
//!    beyond it), and `schedule_in` saturation near `Nanos::MAX` — and
//!    compare every observable (`pop`, `peek_time`, `len`, `now`) at
//!    every step.
//! 2. End-to-end netsim worlds run under both cores and must produce
//!    byte-identical reports and telemetry exports, and so must every
//!    example scenario in `examples/scenarios/`. The heap is chosen per
//!    run (`Engine::with_event_core`), so this file is the whole oracle
//!    run: there is no build that swaps the default core.

use qvisor::core::{Backend, SynthConfig, TenantSpec, UnknownTenantAction};
use qvisor::netsim::scenario::{report_json, Engine, ScenarioSpec};
use qvisor::netsim::{QvisorSetup, SimConfig, Simulation};
use qvisor::ranking::{PFabric, RankRange};
use qvisor::sim::{EventCore, EventQueue, Nanos, SimRng, TenantId};
use qvisor::telemetry::Telemetry;
use qvisor::topology::{LeafSpine, LeafSpineConfig};
use qvisor::workloads::{EmpiricalCdf, PoissonFlowGen};

const CASES: u64 = 56;

/// Time spreads that stay inside the open bucket, inside the fine ring,
/// straddle the fine/coarse edge (2^20 ns), sit inside the coarse ring,
/// straddle the coarse/heap edge (2^32 ns), and live in the heap.
const SPREADS: [u64; 7] = [64, 50_000, 1 << 21, 1 << 27, 1 << 33, 1 << 49, u64::MAX / 2];

/// One random trace applied to both cores in lockstep; every observable is
/// compared after every operation.
fn run_trace(case: u64, rng: &mut SimRng) {
    let spread = SPREADS[(case % SPREADS.len() as u64) as usize];
    let mut wheel: EventQueue<u64> = EventQueue::with_core(EventCore::Wheel);
    let mut heap: EventQueue<u64> = EventQueue::with_core(EventCore::Heap);
    let ops = 1 + rng.below(500);
    let mut id = 0u64;
    for op in 0..ops {
        match rng.below(10) {
            // Schedule one event at a random offset.
            0..=4 => {
                let delay = Nanos(rng.below(spread));
                wheel.schedule_in(delay, id);
                heap.schedule_in(delay, id);
                id += 1;
            }
            // Same-timestamp burst: FIFO tie-breaking must agree.
            5 => {
                let delay = Nanos(rng.below(spread));
                for _ in 0..=rng.below(8) {
                    wheel.schedule_in(delay, id);
                    heap.schedule_in(delay, id);
                    id += 1;
                }
            }
            // Near-MAX schedule_in: both cores must saturate identically.
            6 => {
                let delay = Nanos(u64::MAX - rng.below(1_000));
                wheel.schedule_in(delay, id);
                heap.schedule_in(delay, id);
                id += 1;
            }
            // Pop.
            _ => {
                assert_eq!(wheel.pop(), heap.pop(), "case {case} op {op}: pop diverged");
            }
        }
        assert_eq!(wheel.len(), heap.len(), "case {case} op {op}: len diverged");
        assert_eq!(
            wheel.peek_time(),
            heap.peek_time(),
            "case {case} op {op}: peek diverged"
        );
        assert_eq!(
            wheel.now(),
            heap.now(),
            "case {case} op {op}: clock diverged"
        );
    }
    // Drain to empty: the full total order must match.
    loop {
        let (w, h) = (wheel.pop(), heap.pop());
        assert_eq!(w, h, "case {case} drain: pop diverged");
        if w.is_none() {
            break;
        }
    }
}

#[test]
fn random_traces_pop_identically_on_both_cores() {
    let mut rng = SimRng::seed_from(0xD1FF);
    for case in 0..CASES {
        run_trace(case, &mut rng);
    }
}

/// Adversarial hand-built trace: monotone bursts that ride the clock right
/// at the calendar's tier boundaries, where relinking is touchiest.
#[test]
fn window_boundary_bursts_pop_identically() {
    let mut wheel: EventQueue<u64> = EventQueue::with_core(EventCore::Wheel);
    let mut heap: EventQueue<u64> = EventQueue::with_core(EventCore::Heap);
    let mut id = 0;
    // Land events exactly on and around the bucket width (2^8), the fine
    // horizon (2^20), the coarse horizon (2^32) and the ring-index wraps
    // beyond them (2^44, 2^56), then interleave pops so the cursor crosses
    // the boundaries mid-trace.
    for k in [8u32, 20, 32, 44, 56] {
        for fuzz in [-1i64, 0, 1, 255, 256] {
            let at = Nanos(((1u64 << k) as i64 + fuzz) as u64);
            for _ in 0..3 {
                wheel.schedule(at, id);
                heap.schedule(at, id);
                id += 1;
            }
        }
        assert_eq!(wheel.pop(), heap.pop(), "boundary 2^{k}");
        assert_eq!(wheel.peek_time(), heap.peek_time(), "boundary 2^{k}");
    }
    loop {
        let (w, h) = (wheel.pop(), heap.pop());
        assert_eq!(w, h);
        if w.is_none() {
            break;
        }
    }
}

/// A determinism.rs-style world, parameterized by event core.
fn world(core: EventCore, qvisor: bool, telemetry: Telemetry) -> (String, String) {
    let fabric = LeafSpine::build(&LeafSpineConfig::small());
    let hosts = fabric.all_hosts();
    let cfg = SimConfig {
        seed: 11,
        random_loss: 0.01,
        horizon: Nanos::from_millis(40),
        scheduler: Backend::Pifo,
        sample_interval: Some(Nanos::from_millis(5)),
        qvisor: qvisor.then(|| QvisorSetup {
            specs: vec![
                TenantSpec::new(TenantId(1), "T1", "pFabric", RankRange::new(0, 10_000))
                    .with_levels(128),
            ],
            policy: "T1".into(),
            synth: SynthConfig::default(),
            unknown: UnknownTenantAction::BestEffort,
            scope: Default::default(),
            monitor: None,
        }),
        event_core: core,
        telemetry: telemetry.clone(),
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(fabric.topology.clone(), cfg).unwrap();
    sim.register_rank_fn(TenantId(1), Box::new(PFabric::default_datacenter()));
    let sizes = EmpiricalCdf::web_search().scaled(1, 20);
    let flows = PoissonFlowGen {
        tenant: TenantId(1),
        hosts: &hosts,
        sizes: &sizes,
        rate_flows_per_sec: 20_000.0,
    }
    .generate(120, &mut SimRng::seed_from(0xBEEF));
    for f in &flows {
        sim.add_generated(f);
    }
    let r = sim.run();
    (format!("{r:?}"), telemetry.export_jsonl())
}

/// The flagship end-to-end guarantee: swapping the event core changes
/// nothing observable about a full QVISOR simulation — the report debug
/// representation is byte-identical.
#[test]
fn netsim_reports_are_byte_identical_under_both_cores() {
    let (wheel_report, _) = world(EventCore::Wheel, true, Telemetry::disabled());
    let (heap_report, _) = world(EventCore::Heap, true, Telemetry::disabled());
    assert_eq!(
        wheel_report, heap_report,
        "event core changed the simulation"
    );
}

/// Telemetry exports (counters, histograms, and the sim-time event
/// journal) are also byte-identical across cores. Run without a QVISOR
/// deployment so no wall-clock synthesis timing enters the export.
///
/// `profile` lines are the one deliberate exception: the self-profiler
/// measures *wall-clock* time around hot paths, so its values differ
/// between any two runs. The comparison strips those lines but still
/// requires both cores to register the same profile sites.
#[test]
fn telemetry_exports_are_byte_identical_under_both_cores() {
    let (wheel_report, wheel_jsonl) = world(EventCore::Wheel, false, Telemetry::enabled());
    let (heap_report, heap_jsonl) = world(EventCore::Heap, false, Telemetry::enabled());
    assert_eq!(wheel_report, heap_report);
    assert!(
        wheel_jsonl.contains("net_sent_pkts"),
        "telemetry saw no traffic"
    );
    let split = |jsonl: &str| {
        let (profile, rest): (Vec<&str>, Vec<&str>) = jsonl
            .lines()
            .partition(|l| l.starts_with("{\"type\":\"profile\""));
        let sites: Vec<String> = profile
            .iter()
            .filter_map(|l| l.split("\"name\":\"").nth(1))
            .filter_map(|l| l.split('"').next())
            .map(str::to_string)
            .collect();
        (rest.join("\n"), sites)
    };
    let (wheel_rest, wheel_sites) = split(&wheel_jsonl);
    let (heap_rest, heap_sites) = split(&heap_jsonl);
    assert_eq!(
        wheel_rest, heap_rest,
        "event core changed the telemetry export"
    );
    assert_eq!(
        wheel_sites, heap_sites,
        "event core changed the profile sites"
    );
    assert!(
        wheel_sites.contains(&"event_dispatch".to_string()),
        "self-profiler missed event dispatch"
    );
}

/// Every example scenario prints the same report on the heap as on the
/// calendar.
#[test]
fn every_example_scenario_reports_identically_on_both_cores() {
    let dir = format!("{}/examples/scenarios", env!("CARGO_MANIFEST_DIR"));
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no scenarios in {dir}");
    for path in &paths {
        let spec = ScenarioSpec::from_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        let report = |core| {
            let engine = Engine::new().with_event_core(core);
            report_json(&engine.run(&spec).unwrap()).to_compact()
        };
        assert_eq!(
            report(EventCore::Wheel),
            report(EventCore::Heap),
            "{}: event core changed the report",
            path.display()
        );
    }
}
