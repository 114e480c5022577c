//! Pins the scripting-stable process exit codes of the `qvisor` binary.
//!
//! The contract (documented in `qvisor --help` and the binary's crate
//! docs): `0` = success, `2` = `check` failed with error-severity
//! findings, `3` = `check` failed only because `--deny-warnings`
//! promoted warnings, `1` = any other error (usage mistakes included).
//! CI scripts branch on these values, so a change here is a breaking
//! interface change — update the docs if you update this test.

use std::path::PathBuf;
use std::process::Command;

/// Write `text` to a unique temp file and return its path.
fn temp_config(name: &str, text: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("qvisor_exit_{}_{name}.json", std::process::id()));
    std::fs::write(&path, text).expect("temp config is writable");
    path
}

fn qvisor(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_qvisor"))
        .args(args)
        .output()
        .expect("qvisor binary runs")
}

/// Single scheduled tenant, one level over a wide range: verdict clean
/// (the quantization finding is info-level and never gates).
const CLEAN: &str = r#"{
  "tenants": [
    {"id": 1, "name": "bulk", "algorithm": "STFQ", "rank_min": 0, "rank_max": 1000, "levels": 1}
  ],
  "policy": "bulk",
  "synth": {"default_levels": 8, "first_rank": 0, "pref_bias_divisor": 2}
}"#;

/// Two point-range tenants sharing a band: QV-SHARE-BAND warnings, no
/// errors — gates only under `--deny-warnings`.
const WARNINGS: &str = r#"{
  "tenants": [
    {"id": 1, "name": "A", "algorithm": "EDF", "rank_min": 0, "rank_max": 0},
    {"id": 2, "name": "B", "algorithm": "FQ", "rank_min": 0, "rank_max": 0}
  ],
  "policy": "A + B",
  "synth": {"default_levels": 8, "first_rank": 0, "pref_bias_divisor": 2}
}"#;

/// `first_rank` near `u64::MAX` saturates the chain: witnessed
/// QV-OVERFLOW at error severity.
const ERRORS: &str = r#"{
  "tenants": [
    {"id": 1, "name": "A", "algorithm": "EDF", "rank_min": 0, "rank_max": 519, "levels": 933}
  ],
  "policy": "A",
  "synth": {"default_levels": 8, "first_rank": 18446744073709551155, "pref_bias_divisor": 2}
}"#;

#[test]
fn a_clean_config_exits_zero() {
    let path = temp_config("clean", CLEAN);
    let out = qvisor(&["check", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{:?}", out);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn warnings_pass_by_default_but_deny_warnings_exits_three() {
    let path = temp_config("warnings", WARNINGS);
    let lenient = qvisor(&["check", path.to_str().unwrap()]);
    assert_eq!(lenient.status.code(), Some(0), "{:?}", lenient);
    let strict = qvisor(&["check", path.to_str().unwrap(), "--deny-warnings"]);
    assert_eq!(strict.status.code(), Some(3), "{:?}", strict);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn error_severity_findings_exit_two_regardless_of_strictness() {
    let path = temp_config("errors", ERRORS);
    let lenient = qvisor(&["check", path.to_str().unwrap()]);
    assert_eq!(lenient.status.code(), Some(2), "{:?}", lenient);
    let strict = qvisor(&["check", path.to_str().unwrap(), "--deny-warnings"]);
    assert_eq!(strict.status.code(), Some(2), "{:?}", strict);
    let _ = std::fs::remove_file(&path);
}

/// `analyze` is another name for `check`: same exit code, same stdout and
/// stderr on every verdict, so an error-severity finding exits 2 under
/// either name.
#[test]
fn analyze_exits_exactly_as_check_does() {
    for (name, config, flags, code) in [
        ("clean", CLEAN, &[][..], 0),
        ("warnings", WARNINGS, &[][..], 0),
        ("warnings", WARNINGS, &["--deny-warnings"][..], 3),
        ("errors", ERRORS, &[][..], 2),
    ] {
        let path = temp_config(&format!("analyze_{name}"), config);
        let run = |cmd: &str| qvisor(&[&[cmd, path.to_str().unwrap()][..], flags].concat());
        let (analyze, check) = (run("analyze"), run("check"));
        assert_eq!(analyze.status.code(), Some(code), "{name}: {analyze:?}");
        assert_eq!(analyze.status.code(), check.status.code(), "{name}");
        assert_eq!(analyze.stdout, check.stdout, "{name}");
        assert_eq!(analyze.stderr, check.stderr, "{name}");
        let _ = std::fs::remove_file(&path);
    }
}

/// The deployment target is judged too: a one-queue strict bank cannot
/// give `EDF >> pFabric`'s two strict levels a queue each, so `check`
/// refuses it at any strictness, naming the field and both counts, and
/// `run` deploys nothing.
#[test]
fn a_strict_bank_short_of_queues_exits_two() {
    let fixture =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/strict_bank_short.json");
    let fixture = fixture.to_str().unwrap();
    for flags in [&[][..], &["--deny-warnings"][..]] {
        let out = qvisor(&[&["check", fixture][..], flags].concat());
        assert_eq!(out.status.code(), Some(2), "{:?}", out);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(
                "error QV-STRICT-QUEUES at scheduler.strict_static.queues: a strict bank of \
                 1 queue(s) cannot give each of the policy's 2 strict levels its own queue"
            ),
            "{stderr}"
        );
    }
    let out = qvisor(&["run", fixture]);
    assert_eq!(out.status.code(), Some(1), "{:?}", out);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("QV-STRICT-QUEUES"), "{stderr}");
}

#[test]
fn usage_errors_exit_one() {
    let unknown = qvisor(&["definitely-not-a-subcommand"]);
    assert_eq!(unknown.status.code(), Some(1), "{:?}", unknown);
    let missing_file = qvisor(&["check"]);
    assert_eq!(missing_file.status.code(), Some(1), "{:?}", missing_file);
}

/// `sim.shards` and `--shards` selected a second, thread-partitioned
/// engine that no longer exists. A document or script written for it must
/// fail with the path of what it asked for, not run as if it had not.
#[test]
fn the_removed_shards_knob_is_refused_by_name() {
    let examples = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples");
    let incast = std::fs::read_to_string(examples.join("scenarios/incast.json")).unwrap();
    let old = incast.replacen("\"sim\": {", "\"sim\": {\"shards\": 2,", 1);
    assert_ne!(old, incast);
    let path = temp_config("shards", &old);
    let out = qvisor(&["run", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{:?}", out);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("scenario field `sim.shards`: unknown field (allowed: mss,"),
        "{stderr}"
    );
    let _ = std::fs::remove_file(&path);

    for (cmd, file) in [
        ("run", "scenarios/incast.json"),
        ("sweep", "sweeps/fig4_grid.json"),
    ] {
        let file = examples.join(file);
        let out = qvisor(&[cmd, file.to_str().unwrap(), "--shards", "2"]);
        assert_eq!(out.status.code(), Some(1), "{cmd}: {:?}", out);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unknown flag '--shards'"),
            "{cmd}: {stderr}"
        );
    }
}

#[test]
fn a_matching_fuzz_corpus_document_exits_zero() {
    let corpus = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/overflow.json");
    let out = qvisor(&["check", corpus.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{:?}", out);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("fuzz replay"), "{stdout}");
}

/// A trace span whose tenant does not fit the 16-bit tenant id is a
/// malformed line: `trace report` and `trace export` name it and exit 1
/// instead of rendering the id truncated (70001 would read as T4465).
#[test]
fn an_out_of_range_trace_tenant_exits_one() {
    let path = temp_config(
        "trace_tenant",
        "{\"type\":\"trace_meta\",\"schema\":1,\"dropped\":0,\"capacity\":8,\"sample_one_in\":1,\"seed\":1}\n\
         {\"type\":\"span\",\"t_ns\":5,\"flow\":1,\"seq\":0,\"tenant\":70001,\"queue\":\"n0.p0\",\
         \"kind\":\"dequeue\",\"rank\":4,\"wait_ns\":9}\n",
    );
    for cmd in ["report", "export"] {
        let out = qvisor(&["trace", cmd, path.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(1), "trace {cmd}: {:?}", out);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("line 2: tenant 70001 out of range"),
            "trace {cmd}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "trace {cmd}: rendered anyway");
    }
    let _ = std::fs::remove_file(&path);
}

/// An export path that cannot be written fails *before* the run it would
/// have exported, with the pinned `cannot write <path>: <os error>` line —
/// not after the simulation (or a sweep's whole grid), throwing the report
/// away. The full-size Fig. 4 point and the Fig. 4 grid take far longer
/// than the bound even in a release build of the simulator alone.
#[test]
fn an_unwritable_export_path_fails_before_the_run() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let fig4 = root.join("benchmark/workloads/fig4.json");
    let grid = root.join("examples/sweeps/fig4_grid.json");
    let missing = std::env::temp_dir().join(format!("qvisor_no_such_dir_{}", std::process::id()));
    let target = missing.join("out.jsonl");
    let target = target.to_str().unwrap();
    for (cmd, file, flag, path) in [
        ("run", &fig4, "--telemetry", target.to_string()),
        ("run", &fig4, "--trace", target.to_string()),
        ("run", &fig4, "--monitor", target.to_string()),
        ("sweep", &grid, "--out", target.to_string()),
        (
            "sweep",
            &grid,
            "--telemetry",
            format!("{target}.point0.telemetry.jsonl"),
        ),
    ] {
        let started = std::time::Instant::now();
        let out = qvisor(&[cmd, file.to_str().unwrap(), flag, target]);
        let took = started.elapsed();
        assert_eq!(out.status.code(), Some(1), "{cmd} {flag}: {:?}", out);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("cannot write {path}: ")),
            "{cmd} {flag}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{cmd} {flag}: printed a report");
        assert!(
            took < std::time::Duration::from_secs(2),
            "{cmd} {flag}: {took:?} — it ran the scenario first"
        );
    }
    assert!(!missing.exists());
}

/// What `qvisor sweep` refuses it refuses before any point runs: exit 1
/// with the cause on stderr, no panic, nothing on stdout, and far inside
/// the time one point of the recorded Fig. 4 document takes.
fn sweep_refused(args: &[&str], says: &str) {
    let started = std::time::Instant::now();
    let out = qvisor(args);
    let took = started.elapsed();
    assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(says), "{args:?} names {says:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?}: printed a result");
    assert!(
        took < std::time::Duration::from_secs(2),
        "{args:?}: {took:?} — it ran a point first"
    );
}

#[test]
fn a_sweep_it_cannot_read_or_resolve_is_refused_before_any_point_runs() {
    let paper = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/sweeps/fig4_paper.json");
    let paper = paper.to_str().unwrap();
    let missing = std::env::temp_dir().join("qvisor_exit_no_such_sweep.json");
    sweep_refused(&["sweep"], "sweep needs a sweep file");
    sweep_refused(&["sweep", missing.to_str().unwrap()], "cannot read");
    sweep_refused(&["sweep", paper, "--json", "x"], "unknown flag '--json'");
    sweep_refused(&["sweep", paper, "--out"], "--out needs a path");
    sweep_refused(&["sweep", paper, paper], "unknown flag");

    let text = std::fs::read_to_string(paper).unwrap();
    let load_axis = r#""path": "workloads.0.poisson.arrival.load""#;
    for (name, broken, says) in [
        (
            "arival",
            text.replace(load_axis, r#""path": "workloads.0.poisson.arival.load""#),
            "no key 'arival'",
        ),
        (
            "empty_patch",
            text.replace(
                r#"{"name": "FIFO: pFabric and EDF", "scheduler": {"fifo": {}}, "qvisor": null}"#,
                "{}",
            ),
            "at least one path",
        ),
        (
            "no_path",
            text.replace(&format!("{load_axis}, "), ""),
            "patch objects",
        ),
        (
            "axis_field",
            text.replace(load_axis, r#""pathh": "x""#),
            "unknown field",
        ),
        (
            "view",
            text.replace(r#""view": "fct_buckets""#, r#""view": "fct_bucketz""#),
            "scenario field `sweep.view`: unknown view \"fct_bucketz\"",
        ),
        (
            "no_load",
            text.replacen(
                r#""sizes": {"data_mining": {"scale_den": 10}}"#,
                r#""sizes": {"fixed": {"bytes": 10000}}"#,
                1,
            ),
            "has no tenant-1 Poisson workload",
        ),
    ] {
        assert_ne!(broken, text, "{name}: the edit applies");
        let path = temp_config(&format!("sweep_{name}"), &broken);
        sweep_refused(&["sweep", path.to_str().unwrap()], says);
        let _ = std::fs::remove_file(&path);
    }
}
