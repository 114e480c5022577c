//! End-to-end exercise of the `qvisor serve` control-plane daemon over
//! real TCP, using the shipped `examples/serve/` documents: admission,
//! QV-* rejection parity with `qvisor check`, versioned snapshot reads,
//! withdrawal, telemetry streaming, log replay, and clean shutdown.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use qvisor_core::{verify, DeploymentConfig, SpecPaths};
use qvisor_serve::{ChainSnapshot, ControlPlane, Daemon, LogEntry, ServeOptions};
use qvisor_sim::json::Value;

fn example(file: &str) -> String {
    let path = format!("{}/examples/serve/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(path).expect("example document exists")
}

/// A daemon that has not answered, or stopped, after this long has parked
/// a thread: the test fails naming what it waited for instead of hanging
/// the run.
const WATCHDOG: std::time::Duration = std::time::Duration::from_secs(30);

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(daemon: &Daemon) -> Client {
        let stream = TcpStream::connect(daemon.local_addr()).expect("connect");
        stream.set_read_timeout(Some(WATCHDOG)).expect("deadline");
        stream.set_write_timeout(Some(WATCHDOG)).expect("deadline");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    fn rpc(&mut self, line: &str) -> Value {
        let line = line.trim();
        writeln!(self.writer, "{line}").unwrap_or_else(|e| panic!("sending {line}: {e}"));
        self.read(line)
    }

    /// The next line the daemon sends; `awaiting` names it on failure.
    fn read(&mut self, awaiting: &str) -> Value {
        let mut response = String::new();
        self.reader
            .read_line(&mut response)
            .unwrap_or_else(|e| panic!("no answer to {awaiting}: {e}"));
        Value::parse(response.trim()).expect("response is JSON")
    }
}

/// Stop the daemon (`Daemon::wait` or `Daemon::shutdown`) on a thread of its
/// own, under the watchdog.
fn stopped(daemon: Daemon, stop: fn(Daemon) -> String) -> String {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(stop(daemon)));
    rx.recv_timeout(WATCHDOG)
        .expect("the daemon parked a thread: not stopped after 30 s")
}

fn start_daemon() -> (Daemon, DeploymentConfig) {
    let config = DeploymentConfig::from_json(&example("config.json")).expect("config parses");
    let daemon = Daemon::start(
        config.clone(),
        ServeOptions {
            listen: "127.0.0.1:0".to_string(),
            deny_warnings: false,
        },
    )
    .expect("daemon starts");
    (daemon, config)
}

#[test]
fn daemon_lifecycle_with_example_documents() {
    let (daemon, config) = start_daemon();
    let mut client = Client::connect(&daemon);

    // A telemetry subscriber sees every committed reconfiguration.
    let mut subscriber = Client::connect(&daemon);
    let ack = subscriber.rpc(r#"{"op":"subscribe-telemetry"}"#);
    assert_eq!(
        ack.get("result").and_then(Value::as_str),
        Some("subscribed")
    );

    // Known-good submission: admitted, version bumps 1 -> 2.
    let good = client.rpc(&example("submit_good.json"));
    assert_eq!(
        good.get("ok").and_then(Value::as_bool),
        Some(true),
        "{good:?}"
    );
    assert_eq!(good.get("result").and_then(Value::as_str), Some("accepted"));
    assert_eq!(good.get("version").and_then(Value::as_u64), Some(2));

    let stream_line = subscriber.read("the telemetry snapshot");
    assert_eq!(
        stream_line.get("type").and_then(Value::as_str),
        Some("telemetry_snapshot")
    );
    assert_eq!(stream_line.get("version").and_then(Value::as_u64), Some(2));

    // Known-bad submission: rejected with QV-OVERFLOW, version unchanged,
    // and the diagnostics must equal `qvisor check` (library `verify`) on
    // the returned candidate document.
    let bad = client.rpc(&example("submit_bad.json"));
    assert_eq!(bad.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(bad.get("result").and_then(Value::as_str), Some("rejected"));
    assert_eq!(bad.get("version").and_then(Value::as_u64), Some(2));
    let diags = bad
        .get("diagnostics")
        .and_then(Value::as_array)
        .expect("rejection carries diagnostics");
    assert!(diags
        .iter()
        .any(|d| d.get("code").and_then(Value::as_str) == Some("QV-OVERFLOW")));
    let candidate = DeploymentConfig::from_json(
        &bad.get("effective_config")
            .expect("rejection carries the candidate document")
            .to_pretty(),
    )
    .expect("candidate document parses");
    let report = verify(&candidate.synthesize().unwrap(), &SpecPaths::config());
    let expect: Vec<String> = report
        .diagnostics
        .iter()
        .map(|d| d.to_value().to_compact())
        .collect();
    let got: Vec<String> = diags.iter().map(Value::to_compact).collect();
    assert_eq!(
        got, expect,
        "daemon and `qvisor check` diagnostics must match"
    );

    // Reads are served from the published snapshot.
    let chain = client.rpc(r#"{"op":"get-chain","tenant":"gold"}"#);
    assert_eq!(chain.get("version").and_then(Value::as_u64), Some(2));
    assert!(chain
        .get("chain")
        .and_then(|c| c.get("chain"))
        .and_then(Value::as_str)
        .expect("chain entry")
        .contains("normalize"));
    let missing = client.rpc(r#"{"op":"get-chain","tenant":"silver"}"#);
    assert_eq!(missing.get("ok").and_then(Value::as_bool), Some(false));

    // Submit the rest of the universe, withdraw one, and replay the log.
    let submit_silver = r#"{"op":"submit-policy","tenant":{"id":2,"name":"silver","algorithm":"EDF","rank_min":0,"rank_max":10000,"levels":64}}"#;
    let submit_bronze = r#"{"op":"submit-policy","tenant":{"id":3,"name":"bronze","algorithm":"WFQ","rank_min":0,"rank_max":1000}}"#;
    assert_eq!(
        client
            .rpc(submit_silver)
            .get("version")
            .and_then(Value::as_u64),
        Some(3)
    );
    assert_eq!(
        client
            .rpc(submit_bronze)
            .get("version")
            .and_then(Value::as_u64),
        Some(4)
    );
    let withdrawn = client.rpc(r#"{"op":"withdraw-tenant","tenant":"gold"}"#);
    assert_eq!(withdrawn.get("version").and_then(Value::as_u64), Some(5));

    let status = client.rpc(r#"{"op":"status"}"#);
    assert_eq!(status.get("live").and_then(Value::as_u64), Some(2));
    assert_eq!(status.get("accepted").and_then(Value::as_u64), Some(4));
    assert_eq!(status.get("rejected").and_then(Value::as_u64), Some(1));

    let snapshot = client.rpc(r#"{"op":"snapshot"}"#);
    let canonical = snapshot
        .get("snapshot")
        .expect("snapshot body")
        .to_compact();
    let (version, _) = ChainSnapshot::verify_canonical(&canonical).expect("consistent snapshot");
    assert_eq!(version, 5);

    let log = client.rpc(r#"{"op":"get-log"}"#);
    let entries: Vec<LogEntry> = log
        .get("entries")
        .and_then(Value::as_array)
        .expect("log entries")
        .iter()
        .map(|e| LogEntry::from_value(e).expect("entry parses"))
        .collect();
    assert_eq!(entries.len(), 4);
    let replayed = ControlPlane::replay(&config, false, &entries).expect("replay succeeds");
    assert_eq!(
        replayed.snapshot().canonical,
        canonical,
        "sequential replay rebuilds byte-identical state"
    );

    // Clean shutdown: the requester gets an ack, the subscriber a
    // terminal line, and `wait` returns the summary.
    let down = client.rpc(r#"{"op":"shutdown"}"#);
    assert_eq!(down.get("result").and_then(Value::as_str), Some("shutdown"));
    // One telemetry line per commit since the first read (versions 3..=5),
    // then the terminal stream line.
    for expected_version in [3u64, 4, 5] {
        let line = subscriber.read("a telemetry snapshot");
        assert_eq!(
            line.get("type").and_then(Value::as_str),
            Some("telemetry_snapshot")
        );
        assert_eq!(
            line.get("version").and_then(Value::as_u64),
            Some(expected_version)
        );
    }
    let end = subscriber.read("the end of the stream");
    assert_eq!(end.get("type").and_then(Value::as_str), Some("stream_end"));
    let summary = stopped(daemon, Daemon::wait);
    assert!(summary.contains("4 accepted"), "{summary}");
}

#[test]
fn deny_warnings_daemon_is_stricter() {
    let config = DeploymentConfig::from_json(&example("config.json")).expect("config parses");
    let daemon = Daemon::start(
        config,
        ServeOptions {
            listen: "127.0.0.1:0".to_string(),
            deny_warnings: true,
        },
    )
    .expect("daemon starts");
    let mut client = Client::connect(&daemon);
    // A tenant whose chain clamps part of its declared range only warns;
    // under --deny-warnings the gate refuses it.
    let r = client.rpc(&example("submit_good.json"));
    // The good document is warning-free: still accepted.
    assert_eq!(r.get("ok").and_then(Value::as_bool), Some(true), "{r:?}");
    stopped(daemon, Daemon::shutdown);
}
