//! The `fig4` binary's option parser: a value it cannot use is a usage
//! error — exit 2 and a message naming the option — never a panic, and
//! it is refused before any point runs.

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

#[test]
fn a_bad_number_is_a_usage_error() {
    for args in [
        &["--flows", "abc"][..],
        &["--flows", "-3"],
        &["--scale", "ten"],
        &["--scale", "0"],
        &["--seed", "1.5"],
        &["--seed", ""],
        &["--loads", "0.5,abc"],
        &["--loads", "0.2,0"],
        &["--loads", "NaN"],
        &["--trace-sample", "x"],
        &["--trace-sample", "0"],
        &["--smoke", "--loads", "0.5", "--flows", "many"],
    ] {
        let (code, stderr) = fig4(args);
        let flag = args.iter().rev().find(|a| a.starts_with("--")).unwrap();
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?} names {flag}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(
            !stderr.contains("load 0.5"),
            "{args:?} ran a point: {stderr}"
        );
    }
}

#[test]
fn an_unknown_option_or_a_missing_value_is_a_usage_error_too() {
    for (args, says) in [
        (&["--frobnicate"][..], "unknown option --frobnicate"),
        (&["--flows"], "missing value after --flows"),
        (&["--workload", "video"], "unknown workload video"),
    ] {
        let (code, stderr) = fig4(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(says), "{args:?}: {stderr}");
    }
}
