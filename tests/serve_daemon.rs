//! End-to-end exercise of the `qvisor serve` control-plane daemon over
//! real TCP, using the shipped `examples/serve/` documents: admission,
//! QV-* rejection parity with `qvisor check`, versioned snapshot reads,
//! withdrawal, telemetry streaming, log replay, and clean shutdown — and
//! the same stories under concurrent churn.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use qvisor_core::config_api::{SynthOptions, TenantConfig};
use qvisor_core::{verify, DeploymentConfig, SpecPaths};
use qvisor_serve::{ChainSnapshot, ControlPlane, Daemon, LogEntry, Request, ServeOptions};
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
        Client::at(daemon.local_addr())
    }

    fn at(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
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

fn ok(v: &Value) -> bool {
    v.get("ok").and_then(Value::as_bool) == Some(true)
}

/// A universe of `n` tenants, composed as share groups of 8 joined by
/// strict priority (`a + b + … >> …`): wide enough that every submission
/// reshapes real band geometry.
fn universe(n: usize) -> DeploymentConfig {
    let tenants: Vec<TenantConfig> = (0..n)
        .map(|i| TenantConfig {
            id: u16::try_from(i + 1).expect("tenant id fits u16"),
            name: format!("t{:04}", i + 1),
            algorithm: if i % 2 == 0 { "pFabric" } else { "EDF" }.to_string(),
            rank_min: 0,
            rank_max: 255,
            levels: Some(16),
        })
        .collect();
    let policy = tenants
        .chunks(8)
        .map(|group| {
            let names: Vec<&str> = group.iter().map(|t| t.name.as_str()).collect();
            names.join(" + ")
        })
        .collect::<Vec<_>>()
        .join(" >> ");
    DeploymentConfig {
        tenants,
        policy,
        synth: SynthOptions {
            first_rank: 2,
            ..SynthOptions::default()
        },
    }
}

/// Writers churn disjoint tenant slices (submit everything, withdraw a
/// third, resubmit a sixth revised, and send a bad id now and then that
/// must be rejected) while readers hammer `snapshot` and `get-chain`. No
/// read is torn: every snapshot's fingerprint matches its bytes and a
/// connection never sees its version go backwards. Afterwards the daemon's
/// counts add up, and its accepted log replayed sequentially through a
/// fresh `ControlPlane` rebuilds the final snapshot byte for byte.
#[test]
fn concurrent_churn_tears_no_read_and_replays_byte_identical() {
    const TENANTS: usize = 64;
    const WRITERS: usize = 4;
    const READERS: usize = 2;
    let config = universe(TENANTS);
    let daemon = Daemon::start(
        config.clone(),
        ServeOptions {
            listen: "127.0.0.1:0".to_string(),
            deny_warnings: false,
        },
    )
    .expect("daemon starts");
    let addr = daemon.local_addr();
    let done = AtomicBool::new(false);
    let torn = AtomicU64::new(0);
    let tear = |why: String| {
        eprintln!("{why}");
        torn.fetch_add(1, Ordering::Relaxed);
    };

    let (accepted, rejected) = std::thread::scope(|s| {
        for r in 0..READERS {
            let (done, tear) = (&done, &tear);
            s.spawn(move || {
                let mut client = Client::at(addr);
                let mut last_version = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let response = client.rpc(r#"{"op":"snapshot"}"#);
                    let snap = response.get("snapshot").expect("snapshot body");
                    match ChainSnapshot::verify_canonical(&snap.to_compact()) {
                        Ok((version, _)) if version < last_version => tear(format!(
                            "reader {r}: version went backwards ({last_version} -> {version})"
                        )),
                        Ok((version, _)) => last_version = version,
                        Err(e) => tear(format!("reader {r}: {e}")),
                    }
                    let chain = client.rpc(r#"{"op":"get-chain"}"#);
                    if !ok(&chain) {
                        tear(format!(
                            "reader {r}: get-chain failed: {}",
                            chain.to_compact()
                        ));
                    }
                }
            });
        }
        let writers: Vec<_> = (config.tenants.chunks(TENANTS.div_ceil(WRITERS)))
            .enumerate()
            .map(|(w, slice)| {
                s.spawn(move || {
                    let mut client = Client::at(addr);
                    let (mut accepted, mut rejected) = (0u64, 0u64);
                    let submit = |t: &TenantConfig| Request::SubmitPolicy(t.clone()).to_line();
                    for (i, tenant) in slice.iter().enumerate() {
                        let r = client.rpc(&submit(tenant));
                        assert!(ok(&r), "writer {w}: submit: {}", r.to_compact());
                        accepted += 1;
                        if i % 7 == 0 {
                            // Wrong id: structurally rejected, state untouched.
                            let bad = TenantConfig {
                                id: 0,
                                ..tenant.clone()
                            };
                            let r = client.rpc(&submit(&bad));
                            assert!(!ok(&r), "writer {w}: bad id accepted");
                            rejected += 1;
                        }
                        if i % 3 == 0 {
                            let r =
                                client.rpc(&Request::WithdrawTenant(tenant.name.clone()).to_line());
                            assert!(ok(&r), "writer {w}: withdraw: {}", r.to_compact());
                            accepted += 1;
                        }
                        if i % 6 == 0 {
                            // Resubmit with a revised spec: update in place.
                            let revised = TenantConfig {
                                levels: Some(8),
                                ..tenant.clone()
                            };
                            let r = client.rpc(&submit(&revised));
                            assert!(ok(&r), "writer {w}: resubmit: {}", r.to_compact());
                            accepted += 1;
                        }
                    }
                    (accepted, rejected)
                })
            })
            .collect();
        let totals = writers
            .into_iter()
            .map(|h| h.join().expect("writer thread"))
            .fold((0, 0), |(a, r), (wa, wr)| (a + wa, r + wr));
        done.store(true, Ordering::Relaxed);
        totals
    });
    assert_eq!(torn.load(Ordering::Relaxed), 0, "torn chain reads observed");

    // Final state, accepted log, and clean shutdown over one connection.
    let mut client = Client::connect(&daemon);
    let status = client.rpc(r#"{"op":"status"}"#);
    let final_snapshot = client.rpc(r#"{"op":"snapshot"}"#);
    let log = client.rpc(r#"{"op":"get-log"}"#);
    let down = client.rpc(r#"{"op":"shutdown"}"#);
    assert!(ok(&down), "shutdown: {}", down.to_compact());
    stopped(daemon, Daemon::wait);

    let daemon_canonical = final_snapshot
        .get("snapshot")
        .expect("snapshot body")
        .to_compact();
    let (final_version, _) =
        ChainSnapshot::verify_canonical(&daemon_canonical).expect("final snapshot consistent");
    // Every accepted mutation bumps the version exactly once.
    assert_eq!(
        final_version,
        1 + accepted,
        "version counts accepted mutations"
    );
    assert_eq!(
        status.get("accepted").and_then(Value::as_u64),
        Some(accepted),
        "status accepted count"
    );
    assert!(
        status.get("rejected").and_then(Value::as_u64) >= Some(rejected),
        "status rejected count"
    );
    let entries: Vec<LogEntry> = log
        .get("entries")
        .and_then(Value::as_array)
        .expect("log entries")
        .iter()
        .map(|e| LogEntry::from_value(e).expect("log entry parses"))
        .collect();
    assert_eq!(entries.len() as u64, accepted, "log length");
    let replayed = ControlPlane::replay(&config, false, &entries).expect("replay succeeds");
    assert_eq!(
        daemon_canonical,
        replayed.snapshot().canonical,
        "replayed state must be byte-identical to the daemon's final snapshot"
    );
}
