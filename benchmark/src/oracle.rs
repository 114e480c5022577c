//! Pinned oracles for seed 1 (`benchmark/expected.json`). The file is
//! compiled in and never rewritten: a mismatch fails the run, and a
//! change that legitimately moves a pinned output edits the file by hand
//! in a benchmark-only change.

use qvisor_sim::json::Value;

const EXPECTED: &str = include_str!("../expected.json");

fn pinned(key: &str) -> Option<Value> {
    Value::parse(EXPECTED)
        .expect("expected.json is JSON")
        .get(key)
        .cloned()
}

fn report(key: &str, want: Option<String>, got: String, notes: &mut Vec<String>) -> bool {
    match want {
        Some(w) if w == got => {
            notes.push(format!("pinned {key} = {got}: ok"));
            true
        }
        want => {
            notes.push(format!(
                "pinned {key}: expected {} but got {got}",
                want.as_deref().unwrap_or("<missing from expected.json>")
            ));
            false
        }
    }
}

/// Check a 64-bit fingerprint against its pinned 16-hex-digit value.
pub fn check_hex(key: &str, got: u64, notes: &mut Vec<String>) -> bool {
    let want = pinned(key).and_then(|v| v.as_str().map(str::to_string));
    report(key, want, format!("{got:016x}"), notes)
}

/// Check a count against its pinned value.
pub fn check_u64(key: &str, got: u64, notes: &mut Vec<String>) -> bool {
    let want = pinned(key).and_then(|v| v.as_u64()).map(|v| v.to_string());
    report(key, want, got.to_string(), notes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mismatches_and_missing_keys_fail() {
        let mut notes = Vec::new();
        assert!(!check_hex("no_such_key", 1, &mut notes));
        assert!(!check_u64("seed", 2, &mut notes));
        assert!(check_u64("seed", 1, &mut notes));
        assert_eq!(notes.len(), 3);
        assert!(notes[0].contains("missing"), "{notes:?}");
    }
}
