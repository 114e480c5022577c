//! The benchmark's workloads: input generators and the loops that drive
//! the program with them.
//!
//! Inputs are JSON documents (`benchmark/workloads/*.json`, compiled in)
//! and seeded pools; the program only ever sees the generated inputs, and
//! the end-to-end workloads stay on its document-level surface
//! (`ScenarioSpec::from_json` + `Engine`, `DeploymentConfig::from_json`,
//! `Daemon::start`, `run_campaign`) so internal refactors do not break
//! them.

pub mod churn;
pub mod dataplane;
pub mod fig4;
pub mod fuzz;

use crate::spans::{Recorder, Span};
use crate::stats::Summary;
use qvisor_sim::json::Value;
use std::time::Instant;

/// How long a run measures.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// Time box: whole reps until this many seconds have passed.
    Seconds(f64),
    /// Exactly this many timed reps (`--reps`, dry runs).
    Reps(usize),
}

/// Parameters of one workload run.
#[derive(Clone, Copy, Debug)]
pub struct RunCfg {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measurement budget.
    pub budget: Budget,
    /// Record spans (and alternate traced with untraced reps).
    pub trace: bool,
    /// Shrunken inputs for unit tests; never set from the command line.
    pub smoke: bool,
}

impl RunCfg {
    /// Are the seed-1 pinned oracles of `expected.json` in force?
    pub fn pinned(&self) -> bool {
        self.seed == 1 && !self.smoke
    }
}

/// An informational figure a workload measured beside the gated metrics.
#[derive(Clone, Debug)]
pub struct Extra {
    /// Name, catalogue style.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// The samples' summary.
    pub summary: Summary,
}

impl Extra {
    /// An extra figure.
    pub fn new(name: impl Into<String>, unit: &'static str, summary: Summary) -> Extra {
        Extra {
            name: name.into(),
            unit,
            summary,
        }
    }
}

/// What one workload run produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Did every output check pass?
    pub correct: bool,
    /// Operations attempted (flows, packets, requests, cases).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Timed reps (or, for the time-boxed churn, requests on W).
    pub reps: usize,
    /// `work_per_s` samples.
    pub work_per_s: Summary,
    /// `op_p50_ms` samples.
    pub op_ms: Summary,
    /// `setup_s` samples.
    pub setup_s: Summary,
    /// Ungated figures for the report.
    pub extras: Vec<Extra>,
    /// Output checks, one line each.
    pub notes: Vec<String>,
    /// Spans of the traced reps.
    pub spans: Vec<Span>,
    /// Traced ÷ untraced median rep wall − 1 (traced runs only).
    pub trace_overhead_share: Option<f64>,
}

/// Decides whether another rep fits the budget. Untraced runs take at
/// least four reps (`fig4_observed`'s take over four seconds each, and a
/// median of fewer moves with every host hiccup); traced runs alternate
/// untraced and traced reps and need one of each.
pub struct RepClock {
    started: Instant,
    budget: Budget,
    min_reps: usize,
    done: usize,
}

impl RepClock {
    /// Start the clock.
    pub fn start(cfg: &RunCfg) -> RepClock {
        RepClock {
            started: Instant::now(),
            budget: cfg.budget,
            min_reps: if cfg.trace { 2 } else { 4 },
            done: 0,
        }
    }

    /// Claim the next rep, if one is due. Returns its index.
    pub fn next_rep(&mut self) -> Option<usize> {
        let due = match self.budget {
            Budget::Reps(n) => self.done < n,
            Budget::Seconds(s) => {
                self.done < self.min_reps || self.started.elapsed().as_secs_f64() < s
            }
        };
        due.then(|| {
            self.done += 1;
            self.done - 1
        })
    }
}

/// In a traced run odd reps are traced and even reps are not, so both
/// sides of `bench.trace_overhead_share` see the same process state.
pub fn arm_recorder(cfg: &RunCfg, rec: &mut Recorder, rep: usize) -> bool {
    let traced = cfg.trace && rep % 2 == 1;
    rec.set_enabled(traced);
    rec.set_rep(rep as u32);
    traced
}

/// Traced ÷ untraced median wall − 1.
pub fn overhead_share(traced: &[f64], untraced: &[f64]) -> Option<f64> {
    if traced.is_empty() || untraced.is_empty() {
        return None;
    }
    Some(Summary::of(traced).value / Summary::of(untraced).value - 1.0)
}

/// Seconds between two instants.
pub fn secs(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64()
}

/// Replace the value at `path` (object keys and array indices) inside a
/// JSON document.
///
/// # Panics
/// Panics when the path does not exist: the documents are the
/// benchmark's own.
pub fn set_path(doc: &mut Value, path: &[&str], new: Value) {
    let Some((head, rest)) = path.split_first() else {
        *doc = new;
        return;
    };
    let child = match doc {
        Value::Object(entries) => entries.iter_mut().find(|(k, _)| k == head).map(|(_, v)| v),
        Value::Array(items) => head.parse::<usize>().ok().and_then(|i| items.get_mut(i)),
        _ => None,
    };
    set_path(
        child.unwrap_or_else(|| panic!("no `{head}` in benchmark document")),
        rest,
        new,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_path_patches_nested_documents() {
        let mut doc = Value::parse(r#"{"a":[{"b":1},{"b":2}],"c":3}"#).unwrap();
        set_path(&mut doc, &["a", "1", "b"], Value::from(9u64));
        set_path(&mut doc, &["c"], Value::from("x"));
        assert_eq!(doc.to_compact(), r#"{"a":[{"b":1},{"b":9}],"c":"x"}"#);
    }

    #[test]
    fn rep_clock_honours_fixed_reps_and_minimums() {
        let cfg = RunCfg {
            seed: 1,
            budget: Budget::Reps(2),
            trace: false,
            smoke: true,
        };
        let mut clock = RepClock::start(&cfg);
        assert_eq!(clock.next_rep(), Some(0));
        assert_eq!(clock.next_rep(), Some(1));
        assert_eq!(clock.next_rep(), None);
        let boxed = RunCfg {
            budget: Budget::Seconds(0.0),
            ..cfg
        };
        let mut clock = RepClock::start(&boxed);
        assert_eq!(std::iter::from_fn(|| clock.next_rep()).count(), 4);
    }
}
