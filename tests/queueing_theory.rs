//! The simulator's queues against queueing theory: an exact law that holds
//! whatever the scheduler, and two mean-value formulas that hold over
//! pooled seeds.
//!
//! At the first port where flows merge, every packet the same size and none
//! dropped, a work-conserving port starts a packet at each instant it is
//! free and something waits: the instants it starts packets depend only on
//! when packets arrive, never on which packet it picks. So the total wait
//! there is the same under every work-conserving discipline, to the
//! nanosecond, and it is what Lindley's recursion gives from the arrival
//! instants alone. The check comes from outside the code: a port that
//! idles while a packet waits, or a scheduler that holds one back, moves
//! the total off the recursion's.
//!
//! The bottleneck is also an M/D/1 queue: Poisson arrivals (one-packet
//! flows with Poisson start times, each a fraction of a microsecond on a
//! 100 Gbps edge first) and one service time. Its mean wait is
//! Pollaczek–Khinchine's under FIFO and Cobham's per class under a strict
//! `hi >> lo` bank, which serves `hi` first without preempting a packet on
//! the wire. Those are statistical: they hold for the mean over many
//! packets, checked over pooled seeds with a tolerance derived from the
//! spread of one seed's means.

use std::cell::RefCell;
use std::rc::Rc;

use qvisor::netsim::scenario::{Engine, ScenarioSpec};
use qvisor::sim::SimRng;
use qvisor::telemetry::{TraceKind, TraceReads, Tracer};

/// Hosts a side of the dumbbell.
const PAIRS: u64 = 8;
/// One-packet flows: a 1,460-byte payload is 1,500 bytes on the wire.
const PAYLOAD: u64 = 1_460;
/// A packet's service time at the 1 Gbps bottleneck: 1,500 B × 8 / 1 Gbps.
const SERVICE_NS: u64 = 12_000;
/// The bottleneck: the left switch's port toward the right switch.
const BOTTLENECK: &str = "n0.p0";
/// The load tenant `hi` (tenant 1) offers the bottleneck.
const LOAD_HI: f64 = 0.3;
/// The load tenant `lo` (tenant 2) offers the bottleneck.
const LOAD_LO: f64 = 0.5;

/// The one-port dumbbell with an explicit `flows.list`: `flows` one-packet
/// flows, each from a random left host to a random right host, with
/// Poisson start times; tenant `hi` offers a load of [`LOAD_HI`] of the
/// bottleneck and `lo` [`LOAD_LO`]. Buffers and the retransmission timeout
/// are far above anything the run reaches, so no packet is dropped or sent
/// twice.
fn document(seed: u64, flows: usize, scheduler: &str, policy: &str) -> String {
    let mut rng = SimRng::seed_from(seed);
    let (load_hi, load_lo) = (LOAD_HI, LOAD_LO);
    let mean_gap_ns = SERVICE_NS as f64 / (load_hi + load_lo);
    let mut start = 0.0;
    let list: Vec<String> = (0..flows)
        .map(|_| {
            start += rng.exponential(mean_gap_ns);
            let tenant = if rng.uniform() < load_hi / (load_hi + load_lo) {
                1
            } else {
                2
            };
            let (src, dst) = (rng.below(PAIRS), PAIRS + rng.below(PAIRS));
            format!(
                r#"{{"tenant": {tenant}, "src_host": {src}, "dst_host": {dst}, "size": {PAYLOAD}, "start_ns": {}}}"#,
                start as u64
            )
        })
        .collect();
    format!(
        r#"{{
    "name": "one-port-dumbbell",
    "seed": {seed},
    "topology": {{"dumbbell": {{"pairs": {PAIRS}, "edge_bps": 100000000000,
                              "bottleneck_bps": 1000000000, "delay_ns": 1000}}}},
    "sim": {{"buffer_bytes": 50000000, "rto_ns": 1000000000,
             "horizon": {{"after_last_arrival_ns": 10000000}}}},
    "scheduler": {scheduler},
    "qvisor": {{
        "tenants": [
            {{"id": 1, "name": "hi", "algorithm": "pFabric", "rank_min": 0, "rank_max": 2000, "levels": 128}},
            {{"id": 2, "name": "lo", "algorithm": "pFabric", "rank_min": 0, "rank_max": 2000, "levels": 128}}
        ],
        "policy": "{policy}",
        "unknown": "best_effort",
        "scope": "everywhere"
    }},
    "rank_fns": [
        {{"tenant": 1, "fn": {{"algorithm": "p_fabric", "unit_bytes": 1000, "max_rank": 2000}}}},
        {{"tenant": 2, "fn": {{"algorithm": "p_fabric", "unit_bytes": 1000, "max_rank": 2000}}}}
    ],
    "workloads": [{{"flows": {{"list": [
        {}
    ]}}}}]
}}"#,
        list.join(",\n        ")
    )
}

/// Run `doc` and return each dequeue at the bottleneck as `(t, wait_ns,
/// tenant)`, read from a streaming tracer: no ring, no file.
fn bottleneck_dequeues(doc: &str) -> Vec<(u64, u64, u16)> {
    let spec = ScenarioSpec::from_json(doc).unwrap();
    let dequeues = Rc::new(RefCell::new(Vec::new()));
    let sink = Rc::clone(&dequeues);
    let tracer = Tracer::disabled().with_reader(TraceReads::DEQUEUE, move |r| {
        if let TraceKind::Dequeue { wait_ns, .. } = r.kind {
            sink.borrow_mut().push((r.label, r.t.0, wait_ns, r.tenant));
        }
    });
    Engine::new().with_tracer(&tracer).run(&spec).unwrap();
    let labels = tracer.snapshot().labels;
    let bottleneck = labels.iter().position(|l| l == BOTTLENECK);
    let bottleneck = bottleneck.expect("the bottleneck port recorded no dequeue") as u32;
    let all = dequeues.take();
    all.into_iter()
        .filter(|&(label, ..)| label == bottleneck)
        .map(|(_, t, wait, tenant)| (t, wait, tenant))
        .collect()
}

/// The total wait of a work-conserving single server with service time
/// `SERVICE_NS` and these arrival instants (Lindley's recursion).
fn work_conserving_total(mut arrivals: Vec<u64>) -> u64 {
    arrivals.sort_unstable();
    let mut free_at = 0;
    arrivals
        .into_iter()
        .map(|a| {
            let start = a.max(free_at);
            free_at = start + SERVICE_NS;
            start - a
        })
        .sum()
}

/// Every work-conserving backend, and the PIFO under three policies, waits
/// the same total at the bottleneck, and it is the recursion's total,
/// though the disciplines share it out differently between the tenants.
/// AIFO is left out: it drops at admission, so the packets it serves
/// depend on the discipline and the law does not apply. 2,000 flows at a
/// load of 0.8 make seven runs of ≈ 40 ms each in a debug build.
#[test]
fn the_total_wait_is_the_same_under_every_work_conserving_discipline() {
    const FLOWS: usize = 2_000;
    let runs = [
        (r#"{"fifo": {}}"#, "hi >> lo"),
        (r#"{"pifo": {}}"#, "hi >> lo"),
        (r#"{"pifo": {}}"#, "hi + lo"),
        (r#"{"pifo": {}}"#, "lo >> hi"),
        (
            r#"{"strict_static": {"queues": 8, "span_min": 0, "span_max": 65535}}"#,
            "hi >> lo",
        ),
        (r#"{"sp_pifo": {"queues": 8}}"#, "hi >> lo"),
        (r#"{"fair_tree": {"tenants": 2}}"#, "hi + lo"),
    ];
    let mut totals = Vec::new();
    for (scheduler, policy) in runs {
        let dequeues = bottleneck_dequeues(&document(21, FLOWS, scheduler, policy));
        let run = format!("{scheduler} under {policy}");
        assert_eq!(
            dequeues.len(),
            FLOWS,
            "{run}: a packet was dropped or sent twice"
        );
        let total: u64 = dequeues.iter().map(|&(_, wait, _)| wait).sum();
        let arrivals = dequeues.iter().map(|&(t, wait, _)| t - wait).collect();
        assert_eq!(total, work_conserving_total(arrivals), "{run}");
        assert!(total > 0, "{run}: no packet waited");
        let hi: u64 = dequeues.iter().filter(|d| d.2 == 1).map(|d| d.1).sum();
        totals.push((run, total, hi));
    }
    let (fifo, fifo_total, _) = &totals[0];
    for (run, total, _) in &totals {
        assert_eq!(total, fifo_total, "{run} against {fifo}");
    }
    let (hi_first, lo_first) = (totals[1].2, totals[3].2);
    assert!(
        hi_first < lo_first,
        "hi waits {hi_first} ns under hi >> lo and {lo_first} ns under lo >> hi"
    );
}

/// One seed's flows for the mean-value checks: 0.11 s of arrivals at a
/// load of 0.8.
const STAT_FLOWS: usize = 7_200;

/// The spread of one seed's mean wait over its prediction, as a share of
/// it: the standard deviation of `[hi under Cobham, lo under Cobham, FIFO
/// under Pollaczek–Khinchine]` over seeds 11–40 of [`STAT_FLOWS`] flows
/// each, measured with a release build when the check was written (the
/// ratios ran 0.938–1.047, 0.841–1.229 and 0.852–1.217; pooled over all
/// thirty seeds, 1.003, 0.999 and 0.998).
const ONE_SEED_SPREAD: [f64; 3] = [0.027, 0.089, 0.082];

/// The strict bank the Cobham check runs on: `hi >> lo` puts every `hi`
/// rank in a queue ahead of every `lo` rank, and the bank serves its first
/// non-empty queue.
const STRICT: &str = r#"{"strict_static": {"queues": 8, "span_min": 0, "span_max": 255}}"#;

/// The mean wait at the bottleneck over `seeds`, pooled by packet, and its
/// prediction: `hi` and `lo` under the strict bank and Cobham's W_k = W0 /
/// ((1 − σ_{k−1})(1 − σ_k)), then every packet under FIFO and
/// Pollaczek–Khinchine's W0 / (1 − ρ). One service time S makes E[S²] =
/// S², so W0 = Σ λ_i E[S²] / 2 = ρ S / 2.
fn mean_waits(seeds: std::ops::Range<u64>) -> [(f64, f64); 3] {
    let load = LOAD_HI + LOAD_LO;
    let w0 = load * SERVICE_NS as f64 / 2.0;
    let predicted = [
        w0 / (1.0 - LOAD_HI),
        w0 / ((1.0 - LOAD_HI) * (1.0 - load)),
        w0 / (1.0 - load),
    ];
    // Total wait and dequeues of each: hi and lo under the bank, all under FIFO.
    let mut pooled = [(0u64, 0u64); 3];
    for seed in seeds {
        let strict = bottleneck_dequeues(&document(seed, STAT_FLOWS, STRICT, "hi >> lo"));
        let fifo = bottleneck_dequeues(&document(seed, STAT_FLOWS, r#"{"fifo": {}}"#, "hi >> lo"));
        assert_eq!(
            strict.len() + fifo.len(),
            2 * STAT_FLOWS,
            "seed {seed}: a drop"
        );
        let classed = strict
            .iter()
            .map(|&(_, wait, tenant)| (usize::from(tenant) - 1, wait));
        for (class, wait) in classed.chain(fifo.iter().map(|&(_, wait, _)| (2, wait))) {
            pooled[class].0 += wait;
            pooled[class].1 += 1;
        }
    }
    std::array::from_fn(|i| (pooled[i].0 as f64 / pooled[i].1 as f64, predicted[i]))
}

/// Each pooled mean lies within three standard deviations of a mean over
/// `seeds` — [`ONE_SEED_SPREAD`] / √seeds — of its prediction, and `hi`,
/// served first, waits less than `lo`.
fn assert_means_follow_theory(seeds: std::ops::Range<u64>) {
    let n = seeds.clone().count() as f64;
    let means = mean_waits(seeds);
    let names = [
        "hi under Cobham",
        "lo under Cobham",
        "FIFO under Pollaczek-Khinchine",
    ];
    for (((mean, predicted), spread), name) in means.iter().zip(ONE_SEED_SPREAD).zip(names) {
        let (ratio, tolerance) = (mean / predicted, 3.0 * spread / n.sqrt());
        assert!(
            (ratio - 1.0).abs() <= tolerance,
            "{name}: mean wait {mean:.0} ns, {ratio:.3}× the predicted {predicted:.0} ns, \
             outside ±{tolerance:.3}"
        );
    }
    assert!(
        means[0].0 < means[1].0,
        "hi waits no less than lo: {means:?}"
    );
}

/// Three seeds of 7,200 flows, a strict bank and a FIFO each: six runs of
/// ≈ 0.15 s in a debug build. The tolerances are ±4.7 % for `hi`, ±15 %
/// for `lo` and ±14 % for FIFO.
#[test]
fn mean_waits_follow_cobham_and_pollaczek_khinchine() {
    assert_means_follow_theory(11..14);
}

/// Thirty seeds, within ±1.5 % for `hi`, ±4.9 % for `lo` and ±4.5 % for
/// FIFO: sixty runs, ≈ 3 s in a release build. CI runs it there.
#[test]
#[ignore = "sixty runs: CI runs it in release"]
fn pooled_mean_waits_follow_cobham_and_pollaczek_khinchine() {
    assert_means_follow_theory(11..41);
}
