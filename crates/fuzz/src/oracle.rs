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
//!   pushed through a bare `PifoQueue` and drained once. Every packet is
//!   resident before the first dequeue, so the pop order alone decides
//!   both counts: dequeue *i* is a rank inversion iff a later pop carries
//!   a strictly lower transformed rank (must stay zero: the PIFO is
//!   exact), and a cross-level inversion iff a later pop belongs to a
//!   strictly higher-priority strict level. Both are suffix minima over
//!   the pop order. No mirror is involved, so the check shares no code
//!   with the `RankIndex` the `PifoQueue` itself is built on.
//! * **Scenario oracle** — non-error deployments run through the scenario
//!   `Engine` with a streaming tracer: each record goes, as the run makes
//!   it, to a `CrossLevelScan`, which finds the dequeues that overtook a
//!   resident packet of a strictly higher-priority tenant. No trace is
//!   kept, so none is read back and none can lose its oldest records.
//!
//! A case is synthesized and verified once: it is materialized as a
//! dumbbell [`ScenarioSpec`] first, the engine's verification judges it
//! (spans rooted at the deployment config), the first three checks read
//! that verdict and joint policy, and the scenario stage builds from it.
//! A dumbbell the engine refuses is judged from the config alone, and the
//! refusal is the scenario stage's disagreement, as it always was.
//!
//! A policy the verifier proved isolated (no QV-STRICT-* finding at any
//! severity) must show **zero** cross-tenant inversions in both oracles;
//! anything else is recorded as a disagreement and handed to the
//! minimizer.
//!
//! [`Witness`]: qvisor_core::Witness
//! [`ScenarioSpec`]: qvisor_netsim::ScenarioSpec

use qvisor_core::{
    verify, Backend, DiagCode, Diagnostic, JointPolicy, PreProcessor, PreprocScope, Severity,
    SpecPaths, SynthConfig, UnknownTenantAction, VerifyReport,
};
use qvisor_netsim::scenario::{
    FlowDecl, QvisorSpec, SimSpec, TimeRef, TopologySpec, Verified, WorkloadSpec,
};
use qvisor_netsim::{Engine, ScenarioError, ScenarioSpec};
use qvisor_scheduler::{Capacity, PacketQueue, PifoQueue};
use qvisor_sim::{FlowId, Nanos, NodeId, Packet, TenantId};
use qvisor_telemetry::{TraceKind, TraceReads, TraceRecord, Tracer};
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

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

    /// Every verdict by its label, as a corpus document names it.
    pub(crate) const LABELLED: [(&'static str, Verdict); 3] = [
        ("clean", Verdict::Clean),
        ("warnings", Verdict::Warnings),
        ("errors", Verdict::Errors),
    ];
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

    // One synthesis and one verification a case: the scenario engine's,
    // with spans rooted at the deployment config. The scenario stage
    // deploys the joint policy judged here.
    let spec = scenario_spec(case);
    let verified = Engine::new().verify(&spec, &SpecPaths::config());
    // A dumbbell the engine refuses is judged from the config alone, in
    // the config's words; its scenario stage reports the refusal.
    let config_verdict;
    let (report, joint) = match &verified {
        Ok(verified) => (
            verified.report(),
            verified.joint().expect("a fuzz scenario deploys QVISOR"),
        ),
        Err(_) => match case.config.synthesize() {
            Ok(joint) => {
                config_verdict = (verify(&joint, &SpecPaths::config()), joint);
                (&config_verdict.0, &config_verdict.1)
            }
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
        },
    };
    preproc_oracle(case, joint, &mut disagreements);
    let verdict = Verdict::of(report);
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
            replay_witness(joint, diag, &mut disagreements);
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

    let levels = StrictLevels::of(report);
    let mut cross_inversions = 0;
    if !report.has_errors() {
        let (pifo_inversions, cross) = queue_oracle(case, joint, report, &levels);
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
        match scenario_oracle(&spec, verified, levels) {
            Ok(inversions) => {
                if inversions > 0 && isolation_proven {
                    disagreements.push(format!(
                        "verifier proved strict isolation but the scenario engine's trace \
                         shows {inversions} cross-tenant strict-level inversions"
                    ));
                }
            }
            Err(e) => disagreements.push(e),
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
    let mut q = PifoQueue::new(Capacity::UNBOUNDED);
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

/// Sample one input, uniformly, from the declared range `min..=max`.
fn sample_input(rng: &mut qvisor_sim::SimRng, min: u64, max: u64) -> u64 {
    let span = max - min;
    if span == u64::MAX {
        rng.next()
    } else {
        min + rng.below(span + 1)
    }
}

/// Strict level of every tenant the verifier placed (0 = highest
/// priority), in a table indexed by tenant id; a tenant listed twice keeps
/// its last placement. Built once a case: the queue oracle reads it, and
/// the scenario oracle's scan then keeps it.
pub(crate) struct StrictLevels(Vec<Option<u64>>);

impl StrictLevels {
    fn of(report: &VerifyReport) -> StrictLevels {
        StrictLevels::from_pairs(report.tenants.iter().map(|t| (t.tenant.0, t.level as u64)))
    }

    /// The table of `(tenant, level)` placements, in placement order.
    pub(crate) fn from_pairs(pairs: impl IntoIterator<Item = (u16, u64)>) -> StrictLevels {
        let mut table = Vec::new();
        for (tenant, level) in pairs {
            let tenant = usize::from(tenant);
            if tenant >= table.len() {
                table.resize(tenant + 1, None);
            }
            table[tenant] = Some(level);
        }
        StrictLevels(table)
    }

    /// `tenant`'s strict level, or `None` when the verifier placed none.
    fn get(&self, tenant: u16) -> Option<u64> {
        self.0.get(usize::from(tenant)).copied().flatten()
    }

    /// How many levels there are: one past the deepest placement (levels
    /// count from 0, one per strict level of the policy).
    fn count(&self) -> usize {
        (self.0.iter().flatten().max()).map_or(0, |&deepest| deepest as usize + 1)
    }
}

/// Drive sampled per-tenant traffic through an exact PIFO and count the
/// inversions of its drain order.
///
/// Returns `(intra-queue txf-rank inversions, cross-tenant strict-level
/// inversions)`. The first must always be zero (the PIFO is exact). Every
/// packet is enqueued before the first dequeue, so the packets resident
/// at dequeue *i* are exactly the later pops, and both counts follow from
/// the pop order alone ([`drain_order_inversions`]); a tenant without a
/// strict level ranks below every level.
fn queue_oracle(
    case: &FuzzCase,
    joint: &JointPolicy,
    report: &VerifyReport,
    levels: &StrictLevels,
) -> (u64, u64) {
    const ROUNDS: u64 = 32;
    let mut rng = case.rng(STREAM_ORACLE);
    let mut pifo = PifoQueue::new(Capacity::UNBOUNDED);
    let mut seq = 0;
    for _ in 0..ROUNDS {
        for t in &report.tenants {
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

    let mut pops = Vec::with_capacity(pifo.len());
    while let Some(p) = pifo.dequeue(Nanos::ZERO) {
        let level = levels.get(p.tenant.0).unwrap_or(u64::MAX);
        pops.push((p.txf_rank, level));
    }
    drain_order_inversions(&pops)
}

/// `(rank inversions, level inversions)` of a drain whose `(rank, level)`
/// pops were all resident before the first one: pop *i* is an inversion
/// of either kind iff some later pop is strictly lower on that axis. One
/// backward pass keeps the two suffix minima (`u64::MAX` when nothing
/// follows, which nothing is strictly below).
fn drain_order_inversions(pops: &[(u64, u64)]) -> (u64, u64) {
    let (mut rank_floor, mut level_floor) = (u64::MAX, u64::MAX);
    let (mut ranks, mut levels) = (0, 0);
    for &(rank, level) in pops.iter().rev() {
        ranks += u64::from(rank_floor < rank);
        levels += u64::from(level_floor < level);
        rank_floor = rank_floor.min(rank);
        level_floor = level_floor.min(level);
    }
    (ranks, levels)
}

/// Materialize the case as a dumbbell scenario: one sender/receiver pair
/// and one short flow per tenant, all contending for one bottleneck.
fn scenario_spec(case: &FuzzCase) -> ScenarioSpec {
    let mut rng = case.rng(STREAM_SCENARIO);
    let n = case.config.tenants.len();
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
        scheduler: Backend::Pifo,
        host_scheduler: None,
        qvisor: Some(QvisorSpec {
            tenants: case.config.tenants.clone(),
            policy: case.config.policy.clone(),
            unknown_drop: false,
            scope: PreprocScope::Everywhere,
            monitor: None,
            synth: Some(SynthConfig {
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

/// Run the case's dumbbell end to end through the scenario `Engine` on an
/// exact PIFO, deploying the joint policy `verified` judged, and count
/// cross-tenant strict-level inversions as the run records them: a
/// streaming tracer hands every record to a [`CrossLevelScan`], so no trace
/// is kept. `Err` is the disagreement to report, the engine's refusal
/// included.
fn scenario_oracle(
    spec: &ScenarioSpec,
    verified: Result<Verified<'_>, ScenarioError>,
    levels: StrictLevels,
) -> Result<u64, String> {
    let refused = |e: ScenarioError| {
        format!("scenario engine refused a deployment the verifier admitted: {e}")
    };
    let verified = verified.map_err(refused)?;
    let (tracer, scan) = streaming_scan(levels);
    Engine::new()
        .with_tracer(&tracer)
        .build_verified(spec, verified)
        .map_err(refused)?
        .run();
    let inversions = scan.borrow().inversions();
    Ok(inversions)
}

/// A streaming tracer that hands a [`CrossLevelScan`] over `levels` the
/// records it reads, and that scan.
fn streaming_scan(levels: StrictLevels) -> (Tracer, Rc<RefCell<CrossLevelScan>>) {
    let scan = Rc::new(RefCell::new(CrossLevelScan::new(levels)));
    let sink = Rc::clone(&scan);
    let tracer = Tracer::disabled()
        .with_reader(CrossLevelScan::READS, move |r| sink.borrow_mut().observe(r));
    (tracer, scan)
}

/// Counts the dequeues of a trace, observed one record at a time in
/// recording order, that overtook a resident packet of a strictly
/// higher-priority tenant: for every labelled queue, a dequeue is a
/// cross-level inversion when some resident data packet belongs to a
/// strictly lower level (higher priority), whatever its rank — the order
/// `>>` promises, which an exact PIFO keeps only if the transformed ranks
/// do. ACK records and tenants without a strict level (unscheduled or
/// unknown traffic) are outside the `>>` contract and are skipped.
///
/// A packet is identified per queue by `(flow, seq)`: enqueueing one that
/// is still resident replaces its level, and a dequeue or drop of one
/// that is not resident removes nothing. Residents are looked up by
/// `(label, flow, seq)`, and each queue's are counted per level, so a
/// dequeue reads its queue's counts at the levels above its own: neither
/// walks the queue.
struct CrossLevelScan {
    /// The strict level of every placed tenant.
    levels: StrictLevels,
    /// The level of every resident data packet, by `(label, flow, seq)`.
    resident: HashMap<(u32, u64, u64), u64, BuildHasherDefault<IdHasher>>,
    /// Residents by queue and level: row `q` of `width` entries is the
    /// queue whose label is `q - 1` (row 0: records with no label), grown
    /// to the highest label seen.
    counts: Vec<u32>,
    /// How many levels there are.
    width: usize,
    inversions: u64,
}

impl CrossLevelScan {
    /// The records the scan reads: data packets entering and leaving
    /// queues.
    const READS: TraceReads = TraceReads::ENQUEUE
        .union(TraceReads::DEQUEUE)
        .union(TraceReads::DROP);

    /// A scan that has seen no record, over the strict levels `levels`.
    fn new(levels: StrictLevels) -> CrossLevelScan {
        CrossLevelScan {
            width: levels.count(),
            levels,
            // A fuzz dumbbell holds tens of packets at once.
            resident: HashMap::with_capacity_and_hasher(64, Default::default()),
            counts: Vec::new(),
            inversions: 0,
        }
    }

    /// The cross-level inversions among the records observed so far.
    fn inversions(&self) -> u64 {
        self.inversions
    }

    /// Take the next record of the trace into account.
    fn observe(&mut self, r: &TraceRecord) {
        if !Self::READS.admits(&r.kind, r.ack) {
            return;
        }
        let Some(level) = self.levels.get(r.tenant) else {
            return;
        };
        let width = self.width;
        // No label (`u32::MAX`) wraps to row 0.
        let row = width * r.label.wrapping_add(1) as usize;
        if self.counts.len() < row + width {
            self.counts.resize(row + width, 0);
        }
        let counts = &mut self.counts[row..row + width];
        let key = (r.label, r.flow, r.seq);
        if let TraceKind::Enqueue { .. } = r.kind {
            if let Some(was) = self.resident.insert(key, level) {
                counts[was as usize] -= 1;
            }
            counts[level as usize] += 1;
            return;
        }
        if let Some(was) = self.resident.remove(&key) {
            counts[was as usize] -= 1;
        }
        // A drop leaves without overtaking anyone.
        if let TraceKind::Dequeue { .. } = r.kind {
            self.inversions += u64::from(counts[..level as usize].iter().any(|&n| n > 0));
        }
    }
}

/// A multiply-rotate hash for the scan's keys, which are the simulator's
/// own ids: nothing chooses them to collide, so SipHash's defence would
/// be cost without use.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(26);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate_case;
    use qvisor_core::DeploymentConfig;
    use qvisor_scheduler::{FifoQueue, InstrumentedQueue};
    use qvisor_telemetry::trace::NO_LABEL;
    use qvisor_telemetry::{Telemetry, TraceConfig};
    use std::collections::BTreeMap;

    /// The scan's table of the placements in `level_of`.
    fn levels(level_of: &BTreeMap<u16, u64>) -> StrictLevels {
        StrictLevels::from_pairs(level_of.iter().map(|(&t, &l)| (t, l)))
    }

    /// The placements of `report`, as the reference scans read them.
    fn level_map(report: &VerifyReport) -> BTreeMap<u16, u64> {
        (report.tenants.iter())
            .map(|t| (t.tenant.0, t.level as u64))
            .collect()
    }

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
    fn a_dumbbell_the_engine_refuses_is_judged_in_the_configs_words() {
        // A config that cannot synthesize fails as the config words it,
        // not as the scenario's field check does.
        for broken in 0..2 {
            let mut case = generate_case(1, 0);
            let tenant = &mut case.config.tenants[0];
            match broken {
                0 => tenant.rank_min = tenant.rank_max + 1,
                _ => tenant.levels = Some(0),
            }
            let config_error = case.config.synthesize().unwrap_err().to_string();
            let engine_error = Engine::new().check(&scenario_spec(&case)).unwrap_err();
            assert!(!engine_error.to_string().contains(&config_error));
            let out = run_case(&case);
            assert_eq!(out.verdict, Verdict::Errors);
            assert!(!out.scenario_ran);
            assert_eq!(
                out.disagreements,
                [format!(
                    "generated config failed to synthesize: {config_error}"
                )]
            );
        }
        // A sound config whose dumbbell the engine refuses is judged from
        // the config; its scenario stage reports the refusal.
        let mut case = generate_case(1, 0);
        case.rank_fns.push(case.rank_fns[0].clone());
        let report = verify(&case.config.synthesize().unwrap(), &SpecPaths::config());
        assert!(!report.gate_fails(false));
        let engine_error = Engine::new().check(&scenario_spec(&case)).unwrap_err();
        let out = run_case(&case);
        assert_eq!(out.verdict, Verdict::of(&report));
        assert!(out.scenario_ran);
        assert_eq!(
            out.disagreements,
            [format!(
                "scenario engine refused a deployment the verifier admitted: {engine_error}"
            )]
        );
    }

    #[test]
    fn the_drain_order_counts_a_planted_cross_level_inversion() {
        // Pop order B(level 1) then A(level 0): by the time B leaves, A
        // is resident at a strictly higher priority.
        assert_eq!(drain_order_inversions(&[(1, 1), (0, 0)]), (1, 1));
        assert_eq!(drain_order_inversions(&[(0, 0), (1, 1)]), (0, 0));
        // Equal ranks and levels overtake nothing.
        assert_eq!(drain_order_inversions(&[(7, 2), (7, 2)]), (0, 0));
        assert_eq!(drain_order_inversions(&[]), (0, 0));
    }

    /// The queue oracle before it read its counts off the pop order: the
    /// drain went through an `InstrumentedQueue<PifoQueue>` and was then
    /// replayed, at strict-level granularity, through an
    /// `InstrumentedQueue<FifoQueue>`; each wrapper's inversion mirror
    /// gave one count.
    fn reference_queue_oracle(
        case: &FuzzCase,
        joint: &JointPolicy,
        report: &VerifyReport,
    ) -> (u64, u64) {
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

    /// The reference's mirrors fed an arbitrary pop order: a FIFO replays
    /// the order, so at every dequeue its mirror holds exactly the later
    /// pops, as the PIFO wrapper's did for the PIFO's own order.
    fn reference_drain_counts(pops: &[(u64, u64)]) -> (u64, u64) {
        let telemetry = Telemetry::enabled();
        let mirror = |axis: fn(&(u64, u64)) -> u64, label: &str| {
            let mut fifo =
                InstrumentedQueue::new(FifoQueue::new(Capacity::UNBOUNDED), &telemetry, label);
            for (seq, pop) in pops.iter().enumerate() {
                fifo.enqueue(packet(1, seq as u64, 0, axis(pop)), Nanos::ZERO);
            }
            while fifo.dequeue(Nanos::ZERO).is_some() {}
            fifo.inversion_count()
        };
        (mirror(|p| p.0, "t.ranks"), mirror(|p| p.1, "t.levels"))
    }

    #[test]
    fn drain_order_counts_equal_the_instrumented_mirrors_on_random_pop_orders() {
        let mut rng = qvisor_sim::SimRng::seed_from(26);
        let (mut planted, mut ties, mut unplaced) = ((0, 0), 0, 0);
        for order in 0..1_200 {
            let pops: Vec<(u64, u64)> = (0..rng.below(64))
                .map(|_| {
                    // Few distinct values on both sides of the mirror's
                    // dense rank range, and levels no tenant holds.
                    let rank = [rng.below(4), 4_090 + rng.below(12), u64::MAX - rng.below(2)]
                        [rng.below(3) as usize];
                    let level = [rng.below(3), u64::MAX][usize::from(rng.below(5) == 0)];
                    (rank, level)
                })
                .collect();
            let counts = drain_order_inversions(&pops);
            assert_eq!(
                counts,
                reference_drain_counts(&pops),
                "order {order}: {pops:?}"
            );
            planted = (planted.0 + counts.0, planted.1 + counts.1);
            ties += pops.windows(2).filter(|w| w[0].0 == w[1].0).count();
            unplaced += pops.iter().filter(|p| p.1 == u64::MAX).count();
        }
        assert!(
            planted.0 > 0 && planted.1 > 0,
            "no inversion planted: {planted:?}"
        );
        assert!(
            ties > 0 && unplaced > 0,
            "ties {ties}, u64::MAX levels {unplaced}"
        );
    }

    #[test]
    fn the_queue_oracle_equals_the_instrumented_reference_on_generated_cases() {
        // Every verdict, errors included, and each report a second time
        // with its strict levels reversed, so that the drain does cross
        // levels: the synthesized bands keep every tenant where the
        // verifier placed it.
        let mut cross = 0;
        for index in 0..96 {
            let case = generate_case(crate::DEFAULT_SEED, index);
            let Ok(joint) = case.config.synthesize() else {
                continue;
            };
            let mut report = verify(&joint, &SpecPaths::config());
            for reversed in [false, true] {
                if reversed {
                    let deepest = report.tenants.iter().map(|t| t.level).max();
                    for t in &mut report.tenants {
                        t.level = deepest.unwrap_or(0) - t.level;
                    }
                }
                let counts = queue_oracle(&case, &joint, &report, &StrictLevels::of(&report));
                assert_eq!(
                    counts,
                    reference_queue_oracle(&case, &joint, &report),
                    "case {index}, reversed {reversed}"
                );
                assert_eq!(counts.0, 0, "case {index}: the PIFO is exact");
                cross += counts.1;
            }
        }
        assert!(cross > 0, "no case crossed a strict level");
    }

    /// The trace scan before it was one pass: nested maps, label ->
    /// (flow, seq) -> level, searched in full at every dequeue.
    fn reference_trace_scan(
        records: impl IntoIterator<Item = TraceRecord>,
        level_of: &BTreeMap<u16, u64>,
    ) -> u64 {
        type Residency = BTreeMap<(u64, u64), u64>;
        let mut resident: BTreeMap<u32, Residency> = BTreeMap::new();
        let mut inversions = 0;
        for r in records {
            if r.ack {
                continue;
            }
            let Some(&level) = level_of.get(&r.tenant) else {
                continue;
            };
            match r.kind {
                TraceKind::Enqueue { .. } => {
                    resident
                        .entry(r.label)
                        .or_default()
                        .insert((r.flow, r.seq), level);
                }
                TraceKind::Dequeue { .. } => {
                    let queue = resident.entry(r.label).or_default();
                    queue.remove(&(r.flow, r.seq));
                    if queue.values().any(|&l| l < level) {
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

    /// A random trace over few flows, sequence numbers and labels, so that
    /// re-enqueues of resident packets, dequeues and drops of absent ones,
    /// ACKs, unplaced tenants and `NO_LABEL` records all occur — recorded
    /// on each of `tracers`, as the scenario oracle's trace is.
    fn random_trace(rng: &mut qvisor_sim::SimRng, tracers: [&Tracer; 2]) {
        let labels = ["q0", "q1", "q2"].map(|l| {
            let id = tracers[0].intern(l);
            assert_eq!(tracers[1].intern(l), id);
            id
        });
        for i in 0..rng.below(400) {
            let rank = [rng.below(5), u64::MAX][usize::from(rng.below(8) == 0)];
            let kind = match rng.below(8) {
                0..=2 => TraceKind::Enqueue { rank },
                3..=5 => TraceKind::Dequeue {
                    rank,
                    wait_ns: i,
                    cross_tenant: i % 2 == 0,
                },
                6 => TraceKind::Drop { rank },
                _ => TraceKind::TxStart {
                    bytes: rank,
                    tx_ns: 1,
                    prop_ns: 1,
                },
            };
            let label = [labels[0], labels[1], labels[2], NO_LABEL][rng.below(4) as usize];
            let tenant = 1 + rng.below(4) as u16;
            let record = TraceRecord::new(Nanos(i), rng.below(3), rng.below(4), tenant, kind)
                .at_label(label)
                .as_ack(rng.below(6) == 0);
            for tracer in tracers {
                tracer.record(record);
            }
        }
    }

    #[test]
    fn the_one_pass_scan_equals_the_nested_map_scan_on_random_traces() {
        // Tenant 4 has no strict level; 2 and 3 share one.
        let level_of = BTreeMap::from([(1, 0), (2, 1), (3, 1)]);
        let mut rng = qvisor_sim::SimRng::seed_from(26);
        let mut total = 0;
        for trace in 0..300 {
            let ring = Tracer::enabled(TraceConfig::default());
            let (stream, scan) = streaming_scan(levels(&level_of));
            random_trace(&mut rng, [&ring, &stream]);
            let count = scan.borrow().inversions();
            assert_eq!(
                count,
                reference_trace_scan(ring.snapshot().records.iter(), &level_of),
                "trace {trace}"
            );
            total += count;
        }
        assert!(total > 0, "no generated trace holds an inversion");
    }

    #[test]
    fn a_dequeue_over_a_higher_level_resident_counts_whatever_the_ranks() {
        // Tenant 1 is level 0 (higher priority), tenant 2 level 1. A
        // level-0 packet at rank 7 waits while a level-1 packet at rank 5
        // leaves: an exact PIFO's order, and a break of `>>`.
        let level_of = BTreeMap::from([(1, 0), (2, 1)]);
        // Flow `f` is tenant `f`'s, at rank `rank`, in queue 0.
        let at = |t: u64, f: u16, kind: TraceKind| {
            TraceRecord::new(Nanos(t), u64::from(f), 0, f, kind).at_label(0)
        };
        let enqueue = |t, f, rank| at(t, f, TraceKind::Enqueue { rank });
        let dequeue = |t, f, rank| {
            let cross_tenant = false;
            at(
                t,
                f,
                TraceKind::Dequeue {
                    rank,
                    wait_ns: 1,
                    cross_tenant,
                },
            )
        };
        let trace = [
            enqueue(0, 1, 7),
            enqueue(1, 2, 5),
            dequeue(2, 2, 5),
            dequeue(3, 1, 7),
        ];
        let mut scan = CrossLevelScan::new(levels(&level_of));
        trace.iter().for_each(|r| scan.observe(r));
        assert_eq!(scan.inversions(), 1);
        assert_eq!(reference_trace_scan(trace, &level_of), 1);
        // The rule before: a higher level *and* a lower rank. It counts 0.
        let rank_and_level = |trace: &[TraceRecord]| {
            let mut resident: Vec<(u64, u64, u64)> = Vec::new();
            let mut inversions = 0;
            for r in trace {
                let level = level_of[&r.tenant];
                match r.kind {
                    TraceKind::Enqueue { rank } => resident.push((r.flow, level, rank)),
                    TraceKind::Dequeue { rank, .. } => {
                        resident.retain(|x| x.0 != r.flow);
                        inversions += u64::from(resident.iter().any(|x| x.1 < level && x.2 < rank));
                    }
                    _ => {}
                }
            }
            inversions
        };
        assert_eq!(rank_and_level(&trace), 0);
        // Another queue's resident, or an equal level, overtakes nothing.
        let mut elsewhere = trace;
        elsewhere[0].label = 1;
        elsewhere[3].label = 1;
        let mut same_level = trace;
        same_level[1].tenant = 1;
        same_level[2].tenant = 1;
        for trace in [elsewhere, same_level] {
            let mut scan = CrossLevelScan::new(levels(&level_of));
            trace.iter().for_each(|r| scan.observe(r));
            assert_eq!(scan.inversions(), 0);
        }
    }

    /// Generated case 0 with its config replaced by a two-tenant `A >> B`
    /// deployment whose flows share the dumbbell's bottleneck.
    fn a_over_b_case() -> FuzzCase {
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
        case
    }

    #[test]
    fn both_scans_count_the_inversions_of_a_contended_fifo_dumbbell() {
        // A FIFO bottleneck ignores `>>`: B's packets leave ahead of A's
        // that queued behind them. The scan must see it, not just agree.
        let case = a_over_b_case();
        let joint = case.config.synthesize().unwrap();
        let level_of = level_map(&verify(&joint, &SpecPaths::config()));
        let mut spec = scenario_spec(&case);
        spec.scheduler = Backend::Fifo;
        // B's flow starts first and fills the bottleneck; A's joins it.
        let WorkloadSpec::Flows { list } = &mut spec.workloads[0] else {
            unreachable!("scenario_spec declares one flow list")
        };
        for flow in list.iter_mut() {
            flow.size = 50_000;
            flow.start_ns = if flow.tenant == 2 { 0 } else { 10_000 };
        }
        let ring = Tracer::enabled(TraceConfig::default());
        Engine::new().with_tracer(&ring).run(&spec).unwrap();
        let (stream, scan) = streaming_scan(levels(&level_of));
        Engine::new().with_tracer(&stream).run(&spec).unwrap();
        let count = scan.borrow().inversions();
        let recorded = ring.snapshot().records;
        assert_eq!(count, reference_trace_scan(recorded.iter(), &level_of));
        assert!(
            count > 0,
            "the FIFO dumbbell showed no cross-level inversion"
        );
    }

    #[test]
    fn a_streamed_scenario_trace_equals_the_flight_recorders_on_default_seed_cases() {
        // Every case of the default seed's first 300 whose scenario stage
        // runs the engine, run twice: into a flight recorder, and streamed
        // to a scan. A dequeue's transformed rank at or above 2^32 takes
        // the ring's wide form, one from 2^12 its compact form.
        let (mut ran, mut compact, mut wide) = (0, 0, 0);
        for index in 0..300 {
            let case = generate_case(crate::DEFAULT_SEED, index);
            let spec = scenario_spec(&case);
            let verify = || Engine::new().verify(&spec, &SpecPaths::config());
            let Ok(verified) = verify() else { continue };
            if verified.report().gate_fails(false) {
                continue;
            }
            ran += 1;
            let level_of = level_map(verified.report());
            let ring = Tracer::enabled(TraceConfig::default());
            let built = Engine::new()
                .with_tracer(&ring)
                .build_verified(&spec, verified);
            built.unwrap().run();

            // Everything, and what the scan reads, each streamed.
            let stream = |reads: TraceReads| {
                let streamed = Rc::new(RefCell::new(Vec::new()));
                let scan = Rc::new(RefCell::new(CrossLevelScan::new(levels(&level_of))));
                let (records, sink) = (Rc::clone(&streamed), Rc::clone(&scan));
                let stream = Tracer::disabled().with_reader(reads, move |r| {
                    records.borrow_mut().push(*r);
                    sink.borrow_mut().observe(r);
                });
                let built = Engine::new()
                    .with_tracer(&stream)
                    .build_verified(&spec, verify().unwrap());
                built.unwrap().run();
                assert_eq!(
                    stream.dropped(),
                    0,
                    "case {index}: a site built an unread record"
                );
                let count = scan.borrow().inversions();
                (streamed.take(), count)
            };
            let (streamed, count) = stream(TraceReads::ALL);
            let (read, read_count) = stream(CrossLevelScan::READS);

            let view = ring.snapshot();
            assert_eq!(view.dropped, 0, "case {index}");
            assert!(
                view.records.iter().eq(streamed.iter().copied()),
                "case {index}: the stream is not the recorder's trace"
            );
            let scan_reads = |r: &TraceRecord| CrossLevelScan::READS.admits(&r.kind, r.ack);
            assert!(
                view.records
                    .iter()
                    .filter(scan_reads)
                    .eq(read.iter().copied()),
                "case {index}: the scan's stream is not the recorder's trace of its reads"
            );
            let mut ring_scan = CrossLevelScan::new(levels(&level_of));
            view.records.iter().for_each(|r| ring_scan.observe(&r));
            assert_eq!(ring_scan.inversions(), count, "case {index}");
            assert_eq!(read_count, count, "case {index}");
            assert_eq!(
                reference_trace_scan(view.records.iter(), &level_of),
                count,
                "case {index}"
            );
            for r in &streamed {
                if let TraceKind::Dequeue { rank, .. } = r.kind {
                    compact += u64::from((1 << 12..1 << 32).contains(&rank));
                    wide += u64::from(rank >= 1 << 32);
                }
            }
        }
        assert!(ran > 100, "only {ran} cases ran the scenario stage");
        assert!(compact > 0 && wide > 0, "compact {compact}, wide {wide}");
    }

    #[test]
    fn the_scan_is_handed_only_the_records_it_reads_on_seed_1_cases() {
        // Seed 1, cases 0-299: what every recording site builds for a
        // reader of everything, and what the scenario oracle's scan reads.
        // Before the scan named its reads, the sites built and streamed
        // all 255,686 records to it; it now takes 60,080, and no site
        // builds a record it does not read.
        let (mut ran, mut all, mut read) = (0, 0, 0);
        for index in 0..300 {
            let case = generate_case(1, index);
            let spec = scenario_spec(&case);
            let Ok(verified) = Engine::new().verify(&spec, &SpecPaths::config()) else {
                continue;
            };
            if verified.report().gate_fails(false) {
                continue;
            }
            ran += 1;
            for (reads, count) in [
                (TraceReads::ALL, &mut all),
                (CrossLevelScan::READS, &mut read),
            ] {
                let received = Rc::new(RefCell::new(0u64));
                let sink = Rc::clone(&received);
                let tracer =
                    Tracer::disabled().with_reader(reads, move |_| *sink.borrow_mut() += 1);
                let verified = Engine::new().verify(&spec, &SpecPaths::config());
                let built = Engine::new()
                    .with_tracer(&tracer)
                    .build_verified(&spec, verified.unwrap());
                built.unwrap().run();
                assert_eq!(
                    tracer.dropped(),
                    0,
                    "case {index}: a record built and not read"
                );
                *count += received.take();
            }
        }
        assert_eq!((ran, all, read), (294, 255_686, 60_080));
    }

    #[test]
    fn the_scenario_oracle_sees_a_nonempty_schedule() {
        // Guard against a vacuous oracle: the materialized dumbbell run
        // must actually enqueue and dequeue data packets of every
        // scheduled tenant through the traced queues.
        let spec = scenario_spec(&a_over_b_case());
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
