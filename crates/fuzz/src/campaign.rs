//! Parallel fuzz campaigns with byte-deterministic summaries.
//!
//! A campaign runs `cases` generated deployments through the full
//! differential oracle, fanned over OS threads by
//! [`qvisor_sim::ordered_par_map`] (as the sweep runner's grid points
//! are) and merged back in case order. Every case is a pure
//! function of `(seed, index)` and every worker builds its own (Rc-based)
//! telemetry world, so the merged report — and therefore the rendered
//! summary — is byte-identical at any `--jobs` level.
//!
//! Disagreeing cases are minimized inside the worker (minimization is
//! itself deterministic) and surface as [`CaseFailure`]s carrying a
//! replayable corpus document.

use qvisor_sim::json::Value;
use qvisor_sim::ordered_par_map;
use std::collections::BTreeMap;

use crate::corpus::corpus_value;
use crate::gen::generate_case;
use crate::minimize::minimize;
use crate::oracle::{run_case, run_case_with, CaseOutcome, Verdict};

/// Campaign parameters.
#[derive(Clone, Copy, Debug)]
pub struct CampaignOpts {
    /// Campaign seed; every case derives from `(seed, index)`.
    pub seed: u64,
    /// Number of cases to generate and check.
    pub cases: u64,
    /// Worker threads (the summary is identical at any value).
    pub jobs: usize,
}

/// One disagreeing case, minimized.
#[derive(Clone, Debug)]
pub struct CaseFailure {
    /// Index of the original failing case.
    pub index: u64,
    /// The original case's disagreements.
    pub disagreements: Vec<String>,
    /// Replayable corpus document for the *minimized* case.
    pub minimized: Value,
}

/// Merged results of a campaign, in case order.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// The parameters the campaign ran with.
    pub opts: CampaignOpts,
    /// Per-case outcomes, index order.
    pub outcomes: Vec<CaseOutcome>,
    /// Minimized disagreements, index order (empty = conformant).
    pub failures: Vec<CaseFailure>,
}

/// Run one case and, if it disagrees, minimize it into a failure record.
fn run_indexed(seed: u64, index: u64) -> (CaseOutcome, Option<CaseFailure>) {
    let case = generate_case(seed, index);
    let outcome = run_case(&case);
    if outcome.disagreements.is_empty() {
        return (outcome, None);
    }
    // Shrink while *any* disagreement persists; the scenario stage is
    // part of the predicate so scenario-found disagreements survive.
    let minimized = minimize(&case, |c| !run_case(c).disagreements.is_empty());
    let min_outcome = run_case_with(&minimized, false);
    let failure = CaseFailure {
        index,
        disagreements: outcome.disagreements.clone(),
        minimized: corpus_value(&minimized, &min_outcome),
    };
    (outcome, Some(failure))
}

/// Run a campaign. The returned report (and its summary rendering) is a
/// pure function of `(seed, cases)` — `jobs` only changes wall-clock.
pub fn run_campaign(opts: &CampaignOpts) -> CampaignReport {
    let results = ordered_par_map(opts.cases as usize, opts.jobs, |idx| {
        run_indexed(opts.seed, idx as u64)
    });
    let mut outcomes = Vec::with_capacity(results.len());
    let mut failures = Vec::new();
    for (outcome, failure) in results {
        outcomes.push(outcome);
        failures.extend(failure);
    }
    CampaignReport {
        opts: *opts,
        outcomes,
        failures,
    }
}

impl CampaignReport {
    /// Did every case agree with the verifier?
    pub fn conformant(&self) -> bool {
        self.failures.is_empty()
    }

    /// Render the deterministic campaign summary.
    pub fn summary(&self) -> String {
        let mut verdicts: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut codes: BTreeMap<&str, u64> = BTreeMap::new();
        let mut witnesses = 0usize;
        let mut scenario_runs = 0u64;
        let mut inversions = 0u64;
        for o in &self.outcomes {
            *verdicts.entry(o.verdict.as_str()).or_default() += 1;
            for c in &o.codes {
                *codes.entry(c.as_str()).or_default() += 1;
            }
            witnesses += o.witnesses_checked;
            scenario_runs += u64::from(o.scenario_ran);
            inversions += o.cross_inversions;
        }
        let mut out = String::new();
        out.push_str("qvisor fuzz campaign\n");
        out.push_str("====================\n");
        out.push_str(&format!(
            "seed  : {} (0x{:x})\ncases : {}\n",
            self.opts.seed, self.opts.seed, self.opts.cases
        ));
        for verdict in [Verdict::Clean, Verdict::Warnings, Verdict::Errors] {
            out.push_str(&format!(
                "  {:<9}: {}\n",
                verdict.as_str(),
                verdicts.get(verdict.as_str()).copied().unwrap_or(0)
            ));
        }
        out.push_str("diagnostic codes (cases containing each):\n");
        if codes.is_empty() {
            out.push_str("  (none)\n");
        }
        for (code, count) in &codes {
            out.push_str(&format!("  {code:<18}: {count}\n"));
        }
        out.push_str(&format!("witnesses replayed      : {witnesses}\n"));
        out.push_str(&format!("scenario-oracle runs    : {scenario_runs}\n"));
        out.push_str(&format!("cross-level inversions  : {inversions}\n"));
        out.push_str(&format!(
            "disagreements           : {}\n",
            self.failures.len()
        ));
        for f in &self.failures {
            out.push_str(&format!("  case {}:\n", f.index));
            for d in &f.disagreements {
                out.push_str(&format!("    - {d}\n"));
            }
            out.push_str(&format!("    minimized: {}\n", f.minimized.to_compact()));
        }
        out.push_str(if self.conformant() {
            "result: AGREE (verifier and simulation agree on every case)\n"
        } else {
            "result: DISAGREE (see minimized cases above)\n"
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summaries_are_byte_identical_at_any_jobs_level() {
        let base = CampaignOpts {
            seed: 11,
            cases: 24,
            jobs: 1,
        };
        let one = run_campaign(&base).summary();
        let four = run_campaign(&CampaignOpts { jobs: 4, ..base }).summary();
        assert_eq!(one, four);
    }

    /// FNV-1a over the `{:?}` of every outcome, one line each. Unlike the
    /// summary, it sees every inversion count and the order of every
    /// case's diagnostic codes.
    fn outcomes_fnv1a(report: &CampaignReport) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for outcome in &report.outcomes {
            for byte in format!("{outcome:?}\n").bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash
    }

    #[test]
    fn every_seed_1_outcome_is_pinned_at_any_jobs_level() {
        // Recorded before one verification a case replaced the oracle's
        // own synthesis and the engine's second one.
        for jobs in [1, 2] {
            let report = run_campaign(&CampaignOpts {
                seed: 1,
                cases: 1_000,
                jobs,
            });
            assert!(report.conformant(), "{}", report.summary());
            assert_eq!(
                format!("{:016x}", outcomes_fnv1a(&report)),
                "fb1a714afce751aa",
                "jobs {jobs}"
            );
        }
    }

    #[test]
    fn a_short_default_seed_campaign_is_conformant() {
        let report = run_campaign(&CampaignOpts {
            seed: crate::DEFAULT_SEED,
            cases: 16,
            jobs: 2,
        });
        assert!(report.conformant(), "{}", report.summary());
        assert_eq!(report.outcomes.len(), 16);
        let summary = report.summary();
        assert!(summary.contains("result: AGREE"), "{summary}");
    }
}
