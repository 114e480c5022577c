//! The differential oracle: does the static verifier's verdict agree with
//! what actually happens on an exact PIFO?
//!
//! Four independent cross-checks per case:
//!
//! * **Pre-processor oracle** — the data plane's compiled chain table
//!   (`PreProcessor::transform`) must equal the interpreter
//!   (`TransformChain::apply`) for every scheduled tenant at the declared
//!   range's ends, the ranks just outside them, `0`, `u64::MAX` and
//!   sampled in-range inputs, whatever the verifier's verdict.
//! * **Witness replay** — every diagnostic carrying a [`Witness`] is
//!   re-executed through the real `TransformChain::apply`. The recorded
//!   outputs must match, the inputs must lie in the declared range, and
//!   error-severity refutations must reproduce the claimed misbehavior:
//!   a QV-NONMONO pair must actually invert on an exact PIFO, a
//!   QV-COLLAPSE / QV-OVERFLOW pair must actually collide, and a
//!   cross-tenant QV-STRICT-OVERLAP / QV-STRICT-ORDER pair must actually
//!   misorder two tenants that `>>` promised to isolate.
//! * **Queue oracle** — sampled inputs from every scheduled tenant are
//!   pushed through an `InstrumentedQueue<PifoQueue>` (the exact-PIFO
//!   inversion mirror, which must stay at zero) and the drain order is
//!   replayed at strict-level granularity through an
//!   `InstrumentedQueue<FifoQueue>`, whose inversion mirror then counts
//!   exactly the cross-tenant strict-level inversions of the schedule.
//! * **Scenario oracle** — non-error deployments are materialized into a
//!   dumbbell [`ScenarioSpec`] and run through the scenario `Engine` with
//!   the flight recorder on; the trace is scanned for dequeues that
//!   overtook a resident packet of a strictly higher-priority tenant.
//!
//! A policy the verifier proved isolated (no QV-STRICT-* finding at any
//! severity) must show **zero** cross-tenant inversions in both oracles;
//! anything else is recorded as a disagreement and handed to the
//! minimizer.
//!
//! [`Witness`]: qvisor_core::Witness
//! [`ScenarioSpec`]: qvisor_netsim::ScenarioSpec

use std::collections::BTreeMap;

use qvisor_core::{
    verify, DiagCode, Diagnostic, JointPolicy, PreProcessor, Severity, SpecPaths,
    UnknownTenantAction, VerifyReport,
};
use qvisor_netsim::scenario::{
    FlowDecl, QvisorSpec, SchedulerSpec, ScopeSpec, SimSpec, SynthSpec, TenantDecl, TimeRef,
    TopologySpec, WorkloadSpec,
};
use qvisor_netsim::{Engine, ScenarioSpec};
use qvisor_scheduler::{Capacity, FifoQueue, InstrumentedQueue, PacketQueue, PifoQueue};
use qvisor_sim::{FlowId, Nanos, NodeId, Packet, TenantId};
use qvisor_telemetry::{Telemetry, TraceConfig, TraceData, TraceKind, Tracer};

use crate::gen::{FuzzCase, STREAM_ORACLE, STREAM_PREPROC, STREAM_SCENARIO};

/// The verifier's verdict class for a case.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// No warnings or errors (infos allowed).
    Clean,
    /// Warnings but no errors.
    Warnings,
    /// At least one error-severity finding.
    Errors,
}

impl Verdict {
    /// Classify a report.
    pub fn of(report: &VerifyReport) -> Verdict {
        match report.worst() {
            Some(Severity::Error) => Verdict::Errors,
            Some(Severity::Warning) => Verdict::Warnings,
            _ => Verdict::Clean,
        }
    }

    /// Stable label used in summaries and corpus documents.
    pub fn as_str(&self) -> &'static str {
        match self {
            Verdict::Clean => "clean",
            Verdict::Warnings => "warnings",
            Verdict::Errors => "errors",
        }
    }

    /// Parse a corpus label.
    pub fn parse(s: &str) -> Option<Verdict> {
        match s {
            "clean" => Some(Verdict::Clean),
            "warnings" => Some(Verdict::Warnings),
            "errors" => Some(Verdict::Errors),
            _ => None,
        }
    }
}

/// Everything the oracle concluded about one case.
#[derive(Clone, Debug)]
pub struct CaseOutcome {
    /// Case index within its campaign.
    pub index: u64,
    /// Verifier verdict class.
    pub verdict: Verdict,
    /// Distinct QV-* codes in the report, sorted.
    pub codes: Vec<String>,
    /// Diagnostics whose witnesses were replayed through the chains.
    pub witnesses_checked: usize,
    /// Cross-tenant strict-level inversions observed by the queue oracle
    /// (only counted when the verifier proved isolation).
    pub cross_inversions: u64,
    /// Whether the end-to-end scenario oracle ran for this case.
    pub scenario_ran: bool,
    /// Verifier-vs-simulation disagreements (empty = conformant).
    pub disagreements: Vec<String>,
}

/// Run the full differential oracle on a case (scenario oracle included).
pub fn run_case(case: &FuzzCase) -> CaseOutcome {
    run_case_with(case, true)
}

/// Run the oracle, optionally skipping the end-to-end scenario stage
/// (corpus replays skip it: the recorded expectation covers the verifier
/// verdict and the queue oracle, which are cheap and self-contained).
pub fn run_case_with(case: &FuzzCase, run_scenario: bool) -> CaseOutcome {
    let mut disagreements = Vec::new();

    let joint = match case.config.synthesize() {
        Ok(j) => j,
        Err(e) => {
            // The generator only emits structurally sound configs; a
            // synthesis failure is itself a conformance finding.
            disagreements.push(format!("generated config failed to synthesize: {e}"));
            return CaseOutcome {
                index: case.index,
                verdict: Verdict::Errors,
                codes: Vec::new(),
                witnesses_checked: 0,
                cross_inversions: 0,
                scenario_ran: false,
                disagreements,
            };
        }
    };
    preproc_oracle(case, &joint, &mut disagreements);
    let report = verify(&joint, &SpecPaths::config());
    let verdict = Verdict::of(&report);
    let codes: Vec<String> = {
        let mut set: Vec<String> = report
            .diagnostics
            .iter()
            .map(|d| d.code.as_str().to_string())
            .collect();
        set.sort();
        set.dedup();
        set
    };

    let mut witnesses_checked = 0;
    for diag in &report.diagnostics {
        if diag.witness.is_some() {
            witnesses_checked += 1;
            replay_witness(&joint, diag, &mut disagreements);
        }
    }

    // Only a strict-level overlap/misorder can produce cross-tenant
    // inversions; witness-less suspicions are downgraded to warnings but
    // still void the isolation proof, so the zero-inversion assertion
    // only applies when no QV-STRICT-* finding exists at any severity.
    let isolation_proven = !report
        .diagnostics
        .iter()
        .any(|d| matches!(d.code, DiagCode::StrictOverlap | DiagCode::StrictOrder));

    let mut cross_inversions = 0;
    if !report.has_errors() {
        let (pifo_inversions, cross) = queue_oracle(case, &joint, &report);
        cross_inversions = cross;
        if pifo_inversions > 0 {
            disagreements.push(format!(
                "exact PIFO reported {pifo_inversions} intra-queue rank inversions (must be 0)"
            ));
        }
        if cross > 0 && isolation_proven {
            disagreements.push(format!(
                "verifier proved strict isolation but the PIFO schedule shows \
                 {cross} cross-tenant strict-level inversions"
            ));
        }
    }

    let mut scenario_ran = false;
    if run_scenario && !report.gate_fails(false) {
        scenario_ran = true;
        match scenario_oracle(case, &report) {
            Ok(inversions) => {
                if inversions > 0 && isolation_proven {
                    disagreements.push(format!(
                        "verifier proved strict isolation but the scenario engine's trace \
                         shows {inversions} cross-tenant strict-level inversions"
                    ));
                }
            }
            Err(e) => disagreements.push(format!(
                "scenario engine refused a deployment the verifier admitted: {e}"
            )),
        }
    }

    CaseOutcome {
        index: case.index,
        verdict,
        codes,
        witnesses_checked,
        cross_inversions,
        scenario_ran,
        disagreements,
    }
}

/// Compare the pre-processor's table against the chains it was built
/// from, reporting the first differing input per tenant.
fn preproc_oracle(case: &FuzzCase, joint: &JointPolicy, disagreements: &mut Vec<String>) {
    const SAMPLES: usize = 32;
    let pre = PreProcessor::new(joint, UnknownTenantAction::Drop);
    let mut rng = case.rng(STREAM_PREPROC);
    for spec in &joint.specs {
        let Some(chain) = joint.chain(spec.id) else {
            continue;
        };
        let (min, max) = (spec.range.min, spec.range.max);
        let edges = [
            min,
            max,
            min.saturating_sub(1),
            max.saturating_add(1),
            0,
            u64::MAX,
        ];
        let samples = (0..SAMPLES).map(|_| sample_input(&mut rng, min, max));
        let differs = edges
            .into_iter()
            .chain(samples)
            .find(|&input| pre.transform(spec.id, input) != Some(chain.apply(input)));
        if let Some(input) = differs {
            disagreements.push(format!(
                "pre-processor table disagrees with {}'s chain: table f({input}) = {:?}, chain.apply = {}",
                spec.name,
                pre.transform(spec.id, input),
                chain.apply(input),
            ));
        }
    }
}

/// Index of the tenant declaration a `tenants.N…` span points at.
fn tenant_index_of_span(span: &str) -> Option<usize> {
    let rest = span.strip_prefix("tenants.")?;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Re-execute a diagnostic's witness through the real chains and check
/// that it demonstrates what the diagnostic claims.
fn replay_witness(joint: &JointPolicy, diag: &Diagnostic, disagreements: &mut Vec<String>) {
    let Some(w) = diag.witness else { return };
    let fail = |msg: String, out: &mut Vec<String>| {
        out.push(format!("{} witness at {}: {msg}", diag.code, diag.span));
    };

    if let Some(idx) = tenant_index_of_span(&diag.span) {
        // Intra-tenant witness: both inputs go through the same chain.
        let Some(spec) = joint.specs.get(idx) else {
            return fail(
                format!(
                    "span names tenant {idx} but only {} specs exist",
                    joint.specs.len()
                ),
                disagreements,
            );
        };
        let Some(chain) = joint.chain(spec.id) else {
            return fail("span names an unscheduled tenant".into(), disagreements);
        };
        if !spec.range.contains(w.input_a) || !spec.range.contains(w.input_b) {
            return fail(
                format!(
                    "inputs {}/{} outside declared {}",
                    w.input_a, w.input_b, spec.range
                ),
                disagreements,
            );
        }
        if chain.apply(w.input_a) != w.output_a || chain.apply(w.input_b) != w.output_b {
            return fail(format!(
                "chain.apply disagrees with recorded outputs: f({}) = {} (recorded {}), f({}) = {} (recorded {})",
                w.input_a, chain.apply(w.input_a), w.output_a,
                w.input_b, chain.apply(w.input_b), w.output_b,
            ), disagreements);
        }
        if diag.severity != Severity::Error {
            return;
        }
        match diag.code {
            DiagCode::NonMonotone => {
                if !(w.input_a < w.input_b && w.output_a > w.output_b) {
                    return fail(
                        "claimed inversion pair is not inverted".into(),
                        disagreements,
                    );
                }
                // The misbehavior must be observable: an exact PIFO pops
                // the later (larger-input) packet first.
                if !pifo_pops_b_first(w.input_a, w.output_a, w.input_b, w.output_b) {
                    fail(
                        "pair does not invert on an exact PIFO".into(),
                        disagreements,
                    );
                }
            }
            DiagCode::OrderCollapse | DiagCode::Overflow
                if w.input_a == w.input_b || w.output_a != w.output_b =>
            {
                fail(
                    "claimed collision pair does not collide".into(),
                    disagreements,
                );
            }
            _ => {}
        }
    } else {
        // Cross-tenant witness at the policy span: input_a belongs to the
        // higher-priority tenant, input_b to the lower. Some tenant pair
        // separated by `>>` must reproduce both applications with the
        // misordered (or colliding) outputs.
        if w.output_a < w.output_b {
            return fail(
                "cross-tenant witness outputs are correctly ordered".into(),
                disagreements,
            );
        }
        let reproduced = joint.specs.iter().enumerate().any(|(i, hi)| {
            joint.specs.iter().enumerate().any(|(j, lo)| {
                i != j
                    && joint.chain(hi.id).is_some_and(|c| {
                        hi.range.contains(w.input_a) && c.apply(w.input_a) == w.output_a
                    })
                    && joint.chain(lo.id).is_some_and(|c| {
                        lo.range.contains(w.input_b) && c.apply(w.input_b) == w.output_b
                    })
            })
        });
        if !reproduced {
            fail(
                "no tenant pair reproduces the recorded applications".into(),
                disagreements,
            );
        }
    }
}

/// Does an exact PIFO holding both packets pop `b` (enqueued second)
/// first? Demonstrates that `a`'s transformed rank overtakes it.
fn pifo_pops_b_first(input_a: u64, out_a: u64, input_b: u64, out_b: u64) -> bool {
    let telemetry = Telemetry::disabled();
    let mut q = InstrumentedQueue::new(
        PifoQueue::new(Capacity::UNBOUNDED),
        &telemetry,
        "fuzz.witness",
    );
    q.enqueue(packet(1, 0, input_a, out_a), Nanos::ZERO);
    q.enqueue(packet(1, 1, input_b, out_b), Nanos::ZERO);
    let first = q.dequeue(Nanos::ZERO).expect("two packets queued");
    first.rank == input_b && first.seq == 1
}

/// A data packet carrying `input` as its tenant rank and `output` as the
/// transformed rank the PIFO sorts on.
fn packet(tenant: u16, seq: u64, input: u64, output: u64) -> Packet {
    let mut p = Packet::data(
        FlowId(u64::from(tenant)),
        TenantId(tenant),
        seq,
        100,
        NodeId(0),
        NodeId(1),
        input,
        Nanos::ZERO,
    );
    p.txf_rank = output;
    p
}

/// Sample `count` inputs from a declared range.
fn sample_input(rng: &mut qvisor_sim::SimRng, min: u64, max: u64) -> u64 {
    let span = max - min;
    if span == u64::MAX {
        rng.next()
    } else {
        min + rng.below(span + 1)
    }
}

/// Drive sampled per-tenant traffic through an exact PIFO and count
/// cross-tenant strict-level inversions in its drain order.
///
/// Returns `(intra-queue txf-rank inversions, cross-tenant strict-level
/// inversions)`. The first must always be zero (the PIFO is exact); the
/// second is measured by replaying the pop order into a FIFO whose
/// mirror ranks are the strict-level indices — FIFO preserves the pop
/// order, so its `InstrumentedQueue` inversion mirror counts exactly the
/// dequeues that overtook a resident packet of a strictly
/// higher-priority (lower-level) tenant.
fn queue_oracle(case: &FuzzCase, joint: &JointPolicy, report: &VerifyReport) -> (u64, u64) {
    const ROUNDS: u64 = 32;
    let mut rng = case.rng(STREAM_ORACLE);
    let telemetry = Telemetry::enabled();
    let mut pifo =
        InstrumentedQueue::new(PifoQueue::new(Capacity::UNBOUNDED), &telemetry, "fuzz.pifo");

    let mut level_of: BTreeMap<u16, u64> = BTreeMap::new();
    let mut seq = 0;
    for _ in 0..ROUNDS {
        for t in &report.tenants {
            level_of.insert(t.tenant.0, t.level as u64);
            let Some(chain) = joint.chain(t.tenant) else {
                continue;
            };
            let input = sample_input(&mut rng, t.declared.min, t.declared.max);
            pifo.enqueue(
                packet(t.tenant.0, seq, input, chain.apply(input)),
                Nanos::ZERO,
            );
            seq += 1;
        }
    }

    let mut popped = Vec::new();
    while let Some(p) = pifo.dequeue(Nanos::ZERO) {
        popped.push(p);
    }
    let pifo_inversions = pifo.inversion_count();

    let mut fifo = InstrumentedQueue::new(
        FifoQueue::new(Capacity::UNBOUNDED),
        &telemetry,
        "fuzz.levels",
    );
    for mut p in popped {
        p.txf_rank = level_of.get(&p.tenant.0).copied().unwrap_or(u64::MAX);
        fifo.enqueue(p, Nanos::ZERO);
    }
    while fifo.dequeue(Nanos::ZERO).is_some() {}

    (pifo_inversions, fifo.inversion_count())
}

/// Materialize the case as a dumbbell scenario: one sender/receiver pair
/// and one short flow per tenant, all contending for one bottleneck.
fn scenario_spec(case: &FuzzCase) -> ScenarioSpec {
    let mut rng = case.rng(STREAM_SCENARIO);
    let n = case.config.tenants.len();
    let tenants: Vec<TenantDecl> = case
        .config
        .tenants
        .iter()
        .map(|t| TenantDecl {
            id: t.id,
            name: t.name.clone(),
            algorithm: t.algorithm.clone(),
            rank_min: t.rank_min,
            rank_max: t.rank_max,
            levels: t.levels,
        })
        .collect();
    let flows: Vec<FlowDecl> = case
        .config
        .tenants
        .iter()
        .enumerate()
        .map(|(i, t)| FlowDecl {
            tenant: t.id,
            src_host: i,
            dst_host: n + i,
            size: 5_000 + rng.below(20_000),
            start_ns: rng.below(100_000),
            deadline_ns: None,
            weight: 1,
        })
        .collect();
    ScenarioSpec {
        name: format!("fuzz-{}-{}", case.seed, case.index),
        seed: rng.next(),
        topology: TopologySpec::Dumbbell {
            pairs: n,
            edge_bps: 10_000_000_000,
            bottleneck_bps: 1_000_000_000,
            delay_ns: 1_000,
        },
        sim: SimSpec {
            horizon: TimeRef::At(4_000_000),
            ..SimSpec::default()
        },
        scheduler: SchedulerSpec::Pifo,
        host_scheduler: None,
        qvisor: Some(QvisorSpec {
            tenants,
            policy: case.config.policy.clone(),
            unknown_drop: false,
            scope: ScopeSpec::Everywhere,
            monitor: None,
            synth: Some(SynthSpec {
                default_levels: case.config.synth.default_levels,
                first_rank: case.config.synth.first_rank,
                pref_bias_divisor: case.config.synth.pref_bias_divisor,
            }),
        }),
        rank_fns: case.rank_fns.clone(),
        workloads: vec![WorkloadSpec::Flows { list: flows }],
        alerts: Vec::new(),
    }
}

/// Run the case end to end through the scenario `Engine` on an exact
/// PIFO with the flight recorder on, and count cross-tenant strict-level
/// inversions in the trace.
fn scenario_oracle(case: &FuzzCase, report: &VerifyReport) -> Result<u64, String> {
    let spec = scenario_spec(case);
    let tracer = Tracer::enabled(TraceConfig::default());
    let engine = Engine::new().with_tracer(&tracer);
    engine.run(&spec).map_err(|e| e.to_string())?;
    let level_of: BTreeMap<u16, u64> = report
        .tenants
        .iter()
        .map(|t| (t.tenant.0, t.level as u64))
        .collect();
    Ok(trace_cross_level_inversions(&tracer.snapshot(), &level_of))
}

/// Count dequeues in `data` that overtook a resident packet of a
/// strictly higher-priority tenant: for every labelled queue, a dequeue
/// is a cross-level inversion when some resident data packet belongs to
/// a strictly lower level (higher priority) *and* carries a strictly
/// lower transformed rank. ACK records and tenants without a strict
/// level (unscheduled or unknown traffic) are outside the `>>` contract
/// and are skipped.
pub(crate) fn trace_cross_level_inversions(data: &TraceData, level_of: &BTreeMap<u16, u64>) -> u64 {
    /// Resident packets of one labelled queue: (flow, seq) -> (level, rank).
    type Residency = BTreeMap<(u64, u64), (u64, u64)>;
    let mut resident: BTreeMap<u32, Residency> = BTreeMap::new();
    let mut inversions = 0;
    for r in &data.records {
        if r.ack {
            continue;
        }
        let Some(&level) = level_of.get(&r.tenant) else {
            continue;
        };
        match r.kind {
            TraceKind::Enqueue { rank } => {
                resident
                    .entry(r.label)
                    .or_default()
                    .insert((r.flow, r.seq), (level, rank));
            }
            TraceKind::Dequeue { rank, .. } => {
                let queue = resident.entry(r.label).or_default();
                queue.remove(&(r.flow, r.seq));
                if queue.values().any(|&(l, rk)| l < level && rk < rank) {
                    inversions += 1;
                }
            }
            TraceKind::Drop { .. } => {
                resident
                    .entry(r.label)
                    .or_default()
                    .remove(&(r.flow, r.seq));
            }
            _ => {}
        }
    }
    inversions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate_case;
    use qvisor_core::DeploymentConfig;

    fn case_from_json(json: &str) -> FuzzCase {
        FuzzCase {
            seed: 1,
            index: 0,
            config: DeploymentConfig::from_json(json).unwrap(),
            rank_fns: Vec::new(),
        }
    }

    #[test]
    fn a_clean_two_tenant_strict_policy_shows_zero_inversions() {
        let case = case_from_json(
            r#"{
              "tenants": [
                {"id": 1, "name": "A", "algorithm": "pFabric", "rank_min": 0, "rank_max": 1000},
                {"id": 2, "name": "B", "algorithm": "EDF", "rank_min": 0, "rank_max": 1000}
              ],
              "policy": "A >> B"
            }"#,
        );
        let out = run_case_with(&case, false);
        assert_eq!(out.verdict, Verdict::Clean, "{:?}", out.codes);
        assert_eq!(out.cross_inversions, 0);
        assert!(out.disagreements.is_empty(), "{:?}", out.disagreements);
    }

    #[test]
    fn a_saturating_first_rank_yields_replayable_error_witnesses() {
        let case = case_from_json(
            r#"{
              "tenants": [
                {"id": 1, "name": "A", "algorithm": "pFabric", "rank_min": 0, "rank_max": 1000},
                {"id": 2, "name": "B", "algorithm": "EDF", "rank_min": 0, "rank_max": 1000}
              ],
              "policy": "A >> B",
              "synth": {"first_rank": 18446744073709551610}
            }"#,
        );
        let out = run_case_with(&case, false);
        assert_eq!(out.verdict, Verdict::Errors);
        assert!(out.witnesses_checked > 0, "expected witnessed refutations");
        assert!(out.disagreements.is_empty(), "{:?}", out.disagreements);
    }

    #[test]
    fn the_level_replay_counts_a_planted_cross_level_inversion() {
        // Pop order B(level 1) then A(level 0): by the time B leaves, A
        // is resident at a strictly higher priority with a lower rank.
        let telemetry = Telemetry::enabled();
        let mut fifo =
            InstrumentedQueue::new(FifoQueue::new(Capacity::UNBOUNDED), &telemetry, "t.levels");
        fifo.enqueue(packet(2, 0, 5, 1), Nanos::ZERO); // level 1 popped first
        fifo.enqueue(packet(1, 1, 3, 0), Nanos::ZERO); // level 0 still waiting
        while fifo.dequeue(Nanos::ZERO).is_some() {}
        assert_eq!(fifo.inversion_count(), 1);
    }

    #[test]
    fn the_scenario_oracle_sees_a_nonempty_schedule() {
        // Guard against a vacuous oracle: the materialized dumbbell run
        // must actually enqueue and dequeue data packets of every
        // scheduled tenant through the traced queues.
        let mut case = generate_case(crate::DEFAULT_SEED, 0);
        case.config = DeploymentConfig::from_json(
            r#"{
              "tenants": [
                {"id": 1, "name": "A", "algorithm": "pFabric", "rank_min": 0, "rank_max": 1000},
                {"id": 2, "name": "B", "algorithm": "EDF", "rank_min": 0, "rank_max": 1000}
              ],
              "policy": "A >> B"
            }"#,
        )
        .unwrap();
        case.rank_fns = vec![
            (
                1,
                qvisor_ranking::RankFnSpec::PFabric {
                    unit_bytes: 1000,
                    max_rank: 1000,
                },
            ),
            (
                2,
                qvisor_ranking::RankFnSpec::Edf {
                    unit_ns: 1000,
                    max_rank: 1000,
                },
            ),
        ];
        let spec = scenario_spec(&case);
        let tracer = Tracer::enabled(TraceConfig::default());
        Engine::new().with_tracer(&tracer).run(&spec).unwrap();
        let data = tracer.snapshot();
        for tenant in [1u16, 2] {
            let dequeues = data
                .records
                .iter()
                .filter(|r| {
                    !r.ack && r.tenant == tenant && matches!(r.kind, TraceKind::Dequeue { .. })
                })
                .count();
            assert!(dequeues > 0, "tenant {tenant} never dequeued in the trace");
        }
    }

    #[test]
    fn generated_cases_run_the_oracle_without_disagreement() {
        for index in 0..48 {
            let case = generate_case(crate::DEFAULT_SEED, index);
            let out = run_case_with(&case, false);
            assert!(
                out.disagreements.is_empty(),
                "case {index}: {:?}",
                out.disagreements
            );
        }
    }
}
