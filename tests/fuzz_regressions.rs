//! Replays every fuzz corpus document under `tests/corpus/` and asserts
//! the recorded verdict still holds.
//!
//! Each document is self-contained: it freezes a deployment config plus
//! the verifier verdict, the exact QV-* diagnostic codes, and the queue
//! oracle's cross-tenant inversion count observed when it was minuted.
//! `qvisor_fuzz::replay_corpus` re-verifies, re-runs the witness and
//! queue oracles, and fails on the first drift — so every fuzz-found
//! (or seeded-known-bad) deployment stays a regression test forever.

use qvisor_sim::json::Value;
use std::path::PathBuf;

fn corpus_paths() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("tests/corpus must exist")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    paths.sort();
    paths
}

#[test]
fn the_corpus_is_not_empty() {
    assert!(
        corpus_paths().len() >= 5,
        "expected at least 5 corpus documents, found {}",
        corpus_paths().len()
    );
}

#[test]
fn every_corpus_document_replays_its_recorded_verdict() {
    for path in corpus_paths() {
        let text = std::fs::read_to_string(&path).expect("corpus file is readable");
        let replay = qvisor_fuzz::replay_corpus(&Value::parse(&text).unwrap())
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(
            replay.outcome.disagreements.is_empty(),
            "{}: {:?}",
            path.display(),
            replay.outcome.disagreements
        );
    }
}

#[test]
fn corpus_files_named_after_a_code_still_contain_that_code() {
    for path in corpus_paths() {
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .expect("utf-8 file name");
        // `overflow.json` pins QV-OVERFLOW, `strict-overlap.json` pins
        // QV-STRICT-OVERLAP, and so on; suffixed names like
        // `quant-clean.json` are exempt from the naming contract.
        let code = format!("QV-{}", stem.to_uppercase());
        let text = std::fs::read_to_string(&path).expect("corpus file is readable");
        let replay = qvisor_fuzz::replay_corpus(&Value::parse(&text).unwrap())
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        if replay.outcome.codes.contains(&code) {
            continue;
        }
        assert!(
            !qvisor_core::DiagCode::ALL
                .iter()
                .any(|c| c.as_str() == code),
            "{}: named after {code} but replay emitted [{}]",
            path.display(),
            replay.outcome.codes.join(", ")
        );
    }
}

#[test]
fn the_corpus_spans_every_verdict_class() {
    let mut clean = false;
    let mut warnings = false;
    let mut errors = false;
    for path in corpus_paths() {
        let text = std::fs::read_to_string(&path).expect("corpus file is readable");
        let replay = qvisor_fuzz::replay_corpus(&Value::parse(&text).unwrap())
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        match replay.outcome.verdict {
            qvisor_fuzz::Verdict::Clean => clean = true,
            qvisor_fuzz::Verdict::Warnings => warnings = true,
            qvisor_fuzz::Verdict::Errors => errors = true,
        }
    }
    assert!(clean, "corpus has no clean-verdict document");
    assert!(warnings, "corpus has no warnings-verdict document");
    assert!(errors, "corpus has no errors-verdict document");
}
