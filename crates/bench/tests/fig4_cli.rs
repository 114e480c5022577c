//! The `fig4` binary's command line: a document it cannot read or resolve,
//! or an option it does not know, is a usage error — exit 2 and a message
//! naming the cause — never a panic, and it is refused before any point
//! runs.

use std::process::Command;

/// Run `fig4 args…`; its exit code and stderr.
fn fig4(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_fig4"))
        .args(args)
        .output()
        .expect("fig4 runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

/// The smoke document, resolvable from any working directory.
const SMOKE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../examples/sweeps/fig4_smoke.json"
);

/// Exit 2, `says` on stderr, no panic and no point run.
fn refused(args: &[&str], says: &str) {
    let (code, stderr) = fig4(args);
    assert_eq!(code, Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(says), "{args:?} names {says:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(!stderr.contains(" load "), "{args:?} ran a point: {stderr}");
}

#[test]
fn a_missing_document_is_a_usage_error() {
    refused(&[], "no sweep document given");
    let missing = std::env::temp_dir().join("qvisor_fig4_cli_no_such_document.json");
    let missing = missing.to_str().unwrap();
    refused(&[missing], &format!("cannot read {missing}"));
}

#[test]
fn an_unknown_flag_is_a_usage_error() {
    refused(&[SMOKE, "--smoke"], "unknown option --smoke");
    refused(&[SMOKE, "--loads", "0.5"], "unknown option --loads");
    refused(&[SMOKE, "--json"], "missing value after --json");
    refused(&[SMOKE, SMOKE], "unexpected argument");
}

#[test]
fn a_malformed_axis_is_a_usage_error() {
    let dir = std::env::temp_dir();
    let smoke = std::fs::read_to_string(SMOKE).unwrap();
    let load_axis = r#""path": "workloads.0.poisson.arrival.load""#;
    assert!(smoke.contains(load_axis));
    for (name, broken, says) in [
        (
            "unknown_key",
            smoke.replace(load_axis, r#""path": "workloads.0.poisson.arival.load""#),
            "no key 'arival'",
        ),
        (
            "empty_patch",
            smoke.replace(
                r#"{"name": "FIFO: pFabric and EDF", "scheduler": {"fifo": {}}, "qvisor": null}"#,
                "{}",
            ),
            "at least one path",
        ),
        (
            "no_path",
            smoke.replace(&format!("{load_axis}, "), ""),
            "patch objects",
        ),
        (
            "unknown_axis_field",
            smoke.replace(load_axis, r#""pathh": "x""#),
            "unknown field",
        ),
    ] {
        assert_ne!(broken, smoke, "{name}: the edit applies");
        let path = dir.join(format!("qvisor_fig4_cli_{name}.json"));
        std::fs::write(&path, broken).unwrap();
        refused(&[path.to_str().unwrap()], says);
        std::fs::remove_file(&path).ok();
    }
}
