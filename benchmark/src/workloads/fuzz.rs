//! `fuzz_campaign`: `run_campaign(seed, 6,000 cases, jobs = nproc)` —
//! thousands of tiny deployments, each generated, synthesized, verified,
//! drained through an exact PIFO and run end to end on a dumbbell. The
//! summary must read `AGREE` and be byte-identical across reps.

use super::{arm_recorder, overhead_share, secs, Extra, Outcome, RepClock, RunCfg};
use crate::calib::{timed, Bracket};
use crate::oracle;
use crate::spans::Recorder;
use crate::stats::Summary;
use qvisor_fuzz::{run_campaign, CampaignOpts};
use qvisor_serve::registry::fnv1a;
use std::time::Instant;

/// Small campaigns timed as the workload's set-up (see [`run`]).
const SETUPS: usize = 15;
/// Cases each worker gets in a set-up campaign: enough that neither
/// thread wake-up latency on an idle vCPU nor which cases the seed drew
/// dominates the sample (at 128 a campaign took 25 ms or 32 ms, whichever
/// the second vCPU's wake-up made it, for a whole run).
const SETUP_CASES_PER_JOB: u64 = 512;

/// Cases per campaign.
pub fn cases(smoke: bool) -> u64 {
    if smoke {
        24
    } else {
        6_000
    }
}

/// Worker threads: every core, never more (an oversubscribed campaign
/// measures the scheduler, not the program).
pub fn jobs() -> usize {
    crate::host::nproc()
}

/// Run the workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    let opts = CampaignOpts {
        seed: cfg.seed,
        cases: cases(cfg.smoke),
        jobs: jobs(),
    };
    let mut rec = Recorder::new(false, Instant::now());

    // A campaign has no set-up call of its own, and the contract wants a
    // set-up time that is never zero: time a campaign of 512 cases per
    // worker — thread spawn, first cases, merge — so work a later change
    // moves in front of the first case still shows.
    let mut setup = Vec::new();
    for _ in 0..SETUPS {
        let (_, secs) = timed(opts.jobs, || {
            std::hint::black_box(run_campaign(&CampaignOpts {
                cases: opts.jobs as u64 * SETUP_CASES_PER_JOB,
                ..opts
            }))
        });
        setup.push(secs);
    }

    let one_rep = |rec: &mut Recorder| {
        let bracket = Bracket::open(opts.jobs);
        let root = rec.start("rep");
        let t0 = Instant::now();
        let span = rec.start("fuzz.run_campaign");
        let report = run_campaign(&opts);
        rec.end(span);
        let t1 = Instant::now();
        let span = rec.start("fuzz.summary");
        let summary = report.summary();
        rec.end(span);
        rec.end(root);
        let speed = bracket.close();
        let witnesses: usize = report.outcomes.iter().map(|o| o.witnesses_checked).sum();
        let scenario_runs = report.outcomes.iter().filter(|o| o.scenario_ran).count();
        (
            summary,
            report.failures.len() as u64,
            (secs(t0, t1), speed),
            witnesses,
            scenario_runs,
        )
    };

    let (warm, warm_failures, _, witnesses, scenario_runs) = one_rep(&mut rec);
    let mut notes = Vec::new();
    let mut correct = warm_failures == 0 && warm.contains("result: AGREE");
    if !correct {
        notes.push(format!("campaign disagrees:\n{warm}"));
    }
    if cfg.pinned() {
        correct &= oracle::check_hex("fuzz_summary_fnv1a", fnv1a(warm.as_bytes()), &mut notes);
    }

    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut rate, mut op_ms) = (Vec::new(), Vec::new());
    let (mut raw_rate, mut host_speed) = (Vec::new(), Vec::new());
    let (mut traced_wall, mut untraced_wall) = (Vec::new(), Vec::new());
    let mut clock = RepClock::start(cfg);
    while let Some(rep) = clock.next_rep() {
        let traced = arm_recorder(cfg, &mut rec, rep);
        let (summary, failures, (wall_s, speed), ..) = one_rep(&mut rec);
        attempted += opts.cases;
        if summary == warm {
            failed += failures;
        } else {
            failed += opts.cases;
            correct = false;
            notes.push(format!("rep {rep}: summary differs from the warm-up's"));
        }
        rate.push(opts.cases as f64 / (wall_s * speed));
        raw_rate.push(opts.cases as f64 / wall_s);
        host_speed.push(speed);
        op_ms.push(wall_s * speed * 1_000.0);
        if traced {
            traced_wall.push(wall_s * speed);
        } else {
            untraced_wall.push(wall_s * speed);
        }
    }
    notes.push(format!(
        "summary fnv1a {:016x}: {} cases at jobs {}, AGREE, equal across {} reps",
        fnv1a(warm.as_bytes()),
        opts.cases,
        opts.jobs,
        rate.len()
    ));
    Outcome {
        correct,
        attempted,
        failed,
        reps: rate.len(),
        work_per_s: Summary::of(&rate),
        op_ms: Summary::of(&op_ms),
        setup_s: Summary::of(&setup),
        extras: vec![
            Extra::new(
                "fuzz.witness_share",
                "share",
                Summary::single(witnesses as f64 / opts.cases as f64),
            ),
            Extra::new(
                "fuzz.scenario_runs",
                "count",
                Summary::single(scenario_runs as f64),
            ),
            Extra::new("work_per_s_raw", "1/s", Summary::of(&raw_rate)),
            Extra::new("bench.host_speed", "ratio", Summary::of(&host_speed)),
        ],
        notes,
        spans: rec.spans().to_vec(),
        trace_overhead_share: overhead_share(&traced_wall, &untraced_wall),
    }
}
