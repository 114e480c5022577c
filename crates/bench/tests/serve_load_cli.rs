//! The `serve_load` binary's option parser: a value it cannot use is a
//! usage error — exit 2 and a message naming the option — never a panic,
//! and it is refused before the daemon starts.

use std::process::Command;

/// Run `serve_load args…`; its exit code, stdout and stderr.
fn serve_load(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_serve_load"))
        .args(args)
        .output()
        .expect("serve_load runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn a_bad_argument_exits_2_naming_it() {
    for (args, says) in [
        (&["--tenants"][..], "missing value after --tenants"),
        (&["--smoke", "--workers"], "missing value after --workers"),
        (&["--readers"], "missing value after --readers"),
        (&["--tenants", "many"], "--tenants takes a number"),
        (&["--workers", "-1"], "--workers takes a number"),
        (&["--readers", "1.5"], "--readers takes a number"),
        (&["--workers", "0"], "--workers takes a number above zero"),
        (
            &["--tenants", "2", "--workers", "4"],
            "--tenants 2 is below --workers 4",
        ),
        (&["--tenants", "70000"], "--tenants 70000 exceeds"),
        (&["--frobnicate"], "unknown argument '--frobnicate'"),
    ] {
        let (code, stdout, stderr) = serve_load(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(says), "{args:?} says {says:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(stdout, "", "{args:?} started the daemon");
    }
}
