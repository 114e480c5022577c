//! Self-contained fuzz corpus documents.
//!
//! A corpus document freezes one (usually minimized) deployment together
//! with the verdict the harness expects of it:
//!
//! ```json
//! {
//!   "fuzz": {"seed": 61637, "case": 42},
//!   "config": { "tenants": [...], "policy": "...", "synth": {...} },
//!   "expect": {"verdict": "errors", "codes": ["QV-OVERFLOW"], "cross_inversions": 0}
//! }
//! ```
//!
//! `config` is a complete `DeploymentConfig`; `expect.verdict` is the
//! verifier verdict class (`clean` / `warnings` / `errors`),
//! `expect.codes` the sorted distinct QV-* codes, and
//! `expect.cross_inversions` the queue oracle's cross-tenant
//! strict-level inversion count. `qvisor check` recognizes these
//! documents and replays them (exact verdict, codes, inversion count,
//! witness replays, zero disagreements), as does
//! `tests/fuzz_regressions.rs` — so every fuzz-found bug stays a
//! regression test forever.

use qvisor_core::{verify, SpecPaths, VerifyReport};
use qvisor_sim::json::{one_of, FieldError, Obj, Path, Value};

use crate::gen::FuzzCase;
use crate::oracle::{run_case_with, CaseOutcome, Verdict};

/// Does this parsed JSON document look like a fuzz corpus entry?
pub fn is_corpus_doc(v: &Value) -> bool {
    v.get("config").is_some() && v.get("expect").is_some()
}

/// Render a case + its observed outcome as a corpus document.
pub fn corpus_value(case: &FuzzCase, outcome: &CaseOutcome) -> Value {
    let codes: Vec<Value> = outcome
        .codes
        .iter()
        .map(|c| Value::from(c.as_str()))
        .collect();
    Value::object()
        .set(
            "fuzz",
            Value::object()
                .set("seed", case.seed)
                .set("case", case.index),
        )
        .set("config", case.config.to_value())
        .set(
            "expect",
            Value::object()
                .set("verdict", outcome.verdict.as_str())
                .set("codes", Value::from(codes))
                .set("cross_inversions", outcome.cross_inversions),
        )
}

/// A successful corpus replay: the recomputed verifier report and the
/// oracle outcome that matched the recorded expectation.
#[derive(Clone, Debug)]
pub struct ReplayOutcome {
    /// The verifier report recomputed from the stored config.
    pub report: VerifyReport,
    /// The oracle outcome (verdict, codes, inversions, disagreements).
    pub outcome: CaseOutcome,
}

/// A corpus document's case, and the verdict, codes and cross-tenant
/// inversion count it expects of it.
type Recorded = (FuzzCase, (Verdict, Vec<String>, u64));

fn read_corpus(doc: &Value) -> Result<Recorded, FieldError> {
    let o = Obj::new(doc, Path::Root(""), &["fuzz", "config", "expect"])?;
    let (seed, index) = o
        .opt_with("fuzz", |v, at| {
            let f = Obj::new(v, at, &["seed", "case"])?;
            Ok((f.or("seed", 0)?, f.or("case", 0)?))
        })?
        .unwrap_or((0, 0));
    let case = FuzzCase {
        seed,
        index,
        config: o.req("config")?,
        rank_fns: Vec::new(),
    };
    let expect = o.req_with("expect", |v, at| {
        let e = Obj::new(v, at, &["verdict", "codes", "cross_inversions"])?;
        let verdict = e.req_with("verdict", |v, at| one_of(v, at, &Verdict::LABELLED))?;
        Ok((verdict, e.req("codes")?, e.req("cross_inversions")?))
    })?;
    Ok((case, expect))
}

/// Replay a parsed corpus document: re-verify the stored config, re-run
/// the witness and queue oracles, and compare against the recorded
/// expectation. Returns an error describing the first mismatch.
pub fn replay_corpus(doc: &Value) -> Result<ReplayOutcome, String> {
    let (case, (want_verdict, want_codes, want_inversions)) =
        read_corpus(doc).map_err(|e| format!("corpus {e}"))?;
    let outcome = run_case_with(&case, false);
    if !outcome.disagreements.is_empty() {
        return Err(format!(
            "replay found verifier-vs-simulation disagreements: {}",
            outcome.disagreements.join("; ")
        ));
    }
    if outcome.verdict != want_verdict {
        return Err(format!(
            "verdict drifted: recorded {}, verifier now says {}",
            want_verdict.as_str(),
            outcome.verdict.as_str()
        ));
    }
    if outcome.codes != want_codes {
        return Err(format!(
            "diagnostic codes drifted: recorded [{}], verifier now emits [{}]",
            want_codes.join(", "),
            outcome.codes.join(", ")
        ));
    }
    if outcome.cross_inversions != want_inversions {
        return Err(format!(
            "queue oracle drifted: recorded {want_inversions} cross-tenant inversions, now {}",
            outcome.cross_inversions
        ));
    }
    let joint = case
        .config
        .synthesize()
        .map_err(|e| format!("corpus config no longer synthesizes: {e}"))?;
    let report = verify(&joint, &SpecPaths::config());
    Ok(ReplayOutcome { report, outcome })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate_case;

    #[test]
    fn a_fresh_outcome_round_trips_through_its_corpus_document() {
        let case = generate_case(crate::DEFAULT_SEED, 5);
        let outcome = run_case_with(&case, false);
        assert!(
            outcome.disagreements.is_empty(),
            "{:?}",
            outcome.disagreements
        );
        let doc = Value::parse(&corpus_value(&case, &outcome).to_pretty()).unwrap();
        let replay = replay_corpus(&doc).expect("replay must match its own recording");
        assert_eq!(replay.outcome.verdict, outcome.verdict);
        assert_eq!(replay.outcome.codes, outcome.codes);
        assert_eq!(replay.outcome.cross_inversions, outcome.cross_inversions);
    }

    #[test]
    fn a_drifted_expectation_is_rejected_with_a_mismatch_message() {
        let case = generate_case(crate::DEFAULT_SEED, 5);
        let outcome = run_case_with(&case, false);
        let doc = corpus_value(&case, &outcome).to_pretty();
        let wrong = doc.replace(
            &format!("\"verdict\": \"{}\"", outcome.verdict.as_str()),
            if outcome.verdict == Verdict::Errors {
                "\"verdict\": \"clean\""
            } else {
                "\"verdict\": \"errors\""
            },
        );
        assert_ne!(wrong, doc, "fixture must actually change the verdict");
        let err = replay_corpus(&Value::parse(&wrong).unwrap()).unwrap_err();
        assert!(err.contains("verdict drifted"), "{err}");
    }

    #[test]
    fn non_corpus_documents_are_detected() {
        let v = Value::parse("{\"tenants\": []}").unwrap();
        assert!(!is_corpus_doc(&v));
        assert_eq!(
            replay_corpus(&v).unwrap_err(),
            "corpus field `tenants`: unknown field (allowed: fuzz, config, expect)"
        );
        let case = generate_case(crate::DEFAULT_SEED, 5);
        let outcome = run_case_with(&case, false);
        let doc = corpus_value(&case, &outcome).to_pretty();
        let refused = |from: &str, to: &str| {
            let broken = doc.replacen(from, to, 1);
            assert_ne!(broken, doc, "the edit applies");
            replay_corpus(&Value::parse(&broken).unwrap()).unwrap_err()
        };
        let seed = format!("\"seed\": {}", case.seed);
        assert_eq!(
            refused(&seed, "\"seed\": \"x\""),
            "corpus field `fuzz.seed`: must be an unsigned integer"
        );
        assert!(refused("\"rank_min\"", "\"rank_mn\"")
            .starts_with("corpus field `config.tenants.0.rank_mn`: unknown field"));
        assert_eq!(
            refused("\"verdict\"", "\"verdikt\""),
            "corpus field `expect.verdikt`: unknown field (allowed: verdict, codes, cross_inversions)"
        );
        assert!(refused("\"verdict\": \"", "\"verdict\": \"x")
            .starts_with("corpus field `expect.verdict`: unknown value 'x"));
    }
}
