//! `serve_load` — churn harness for the `qvisor serve` control plane.
//!
//! Drives a large tenant universe through concurrent submit/withdraw churn
//! over real TCP connections and checks the daemon's two consistency
//! stories:
//!
//! 1. **No torn chain reads.** Reader threads hammer `snapshot` and
//!    `get-chain` throughout the churn; every snapshot's FNV-1a
//!    fingerprint must match its bytes, and versions observed on one
//!    connection must never go backwards.
//! 2. **Replay determinism.** After the churn, the daemon's
//!    accepted-mutation log is fetched and replayed *sequentially*
//!    through a fresh in-process [`ControlPlane`]; the resulting
//!    canonical snapshot must be byte-identical to the daemon's final
//!    `snapshot` response — the same merge trick the sweep runner uses
//!    for byte-identical output at any `--jobs` level.
//!
//! Usage: `serve_load [--smoke] [--tenants N] [--workers N] [--readers N]`
//! (defaults: 1024 tenants, 8 writers, 4 readers; `--smoke` shrinks to a
//! CI-sized run). Exits 2 on a bad argument, before the daemon starts, and
//! non-zero on any violation.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use qvisor_core::config_api::{DeploymentConfig, SynthOptions, TenantConfig};
use qvisor_serve::{ChainSnapshot, ControlPlane, Daemon, LogEntry, ServeOptions};
use qvisor_sim::json::Value;

struct Args {
    tenants: usize,
    workers: usize,
    readers: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        tenants: 1024,
        workers: 8,
        readers: 4,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--smoke" => {
                args.tenants = 64;
                args.workers = 4;
                args.readers = 2;
            }
            flag @ ("--tenants" | "--workers" | "--readers") => {
                i += 1;
                let n = count(flag, argv.get(i));
                match flag {
                    "--tenants" => args.tenants = n,
                    "--workers" => args.workers = n,
                    _ => args.readers = n,
                }
            }
            other => usage(&format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    if args.workers == 0 {
        usage("--workers takes a number above zero");
    }
    if args.tenants < args.workers {
        usage(&format!(
            "--tenants {} is below --workers {}: each worker needs a tenant",
            args.tenants, args.workers
        ));
    }
    if args.tenants > usize::from(u16::MAX) {
        usage(&format!(
            "--tenants {} exceeds the {} tenant ids",
            args.tenants,
            u16::MAX
        ));
    }
    args
}

/// Say what was wrong with the arguments and exit 2.
fn usage(msg: &str) -> ! {
    eprintln!("serve_load: {msg}");
    std::process::exit(2);
}

/// The count after `flag`, or a usage error saying why there is none.
fn count(flag: &str, text: Option<&String>) -> usize {
    let Some(text) = text else {
        usage(&format!("missing value after {flag}"));
    };
    text.parse()
        .unwrap_or_else(|_| usage(&format!("{flag} takes a number, not {text:?}")))
}

/// A universe of `n` tenants, composed as share groups of 8 joined by
/// strict priority (`a + b + … >> …`) — wide enough that every submission
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
            group
                .iter()
                .map(|t| t.name.as_str())
                .collect::<Vec<_>>()
                .join(" + ")
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

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to daemon");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
        }
    }

    fn rpc(&mut self, line: &str) -> Value {
        writeln!(self.writer, "{line}").expect("write request");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("read response");
        Value::parse(response.trim()).expect("response is JSON")
    }

    fn ok(v: &Value) -> bool {
        v.get("ok").and_then(Value::as_bool) == Some(true)
    }
}

fn submit_line(t: &TenantConfig) -> String {
    qvisor_serve::Request::SubmitPolicy(t.clone()).to_line()
}

fn main() {
    let args = parse_args();
    let config = universe(args.tenants);
    let daemon = Daemon::start(
        config.clone(),
        ServeOptions {
            listen: "127.0.0.1:0".to_string(),
            deny_warnings: false,
        },
    )
    .expect("daemon starts");
    let addr = daemon.local_addr();
    println!(
        "serve_load: {} tenants, {} writers, {} readers on {addr}",
        args.tenants, args.workers, args.readers
    );

    let done = Arc::new(AtomicBool::new(false));
    let reads = Arc::new(AtomicU64::new(0));
    let torn = Arc::new(AtomicU64::new(0));

    // Readers: verify every snapshot fingerprint and per-connection
    // version monotonicity while the writers churn.
    let reader_handles: Vec<_> = (0..args.readers)
        .map(|r| {
            let done = Arc::clone(&done);
            let reads = Arc::clone(&reads);
            let torn = Arc::clone(&torn);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                let mut last_version = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let response = client.rpc(r#"{"op":"snapshot"}"#);
                    let snap = response.get("snapshot").expect("snapshot body");
                    let canonical = snap.to_compact();
                    match ChainSnapshot::verify_canonical(&canonical) {
                        Ok((version, _)) => {
                            if version < last_version {
                                eprintln!(
                                    "reader {r}: version went backwards \
                                     ({last_version} -> {version})"
                                );
                                torn.fetch_add(1, Ordering::Relaxed);
                            }
                            last_version = version;
                        }
                        Err(e) => {
                            eprintln!("reader {r}: {e}");
                            torn.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    let chain = client.rpc(r#"{"op":"get-chain"}"#);
                    if !Client::ok(&chain) {
                        eprintln!("reader {r}: get-chain failed: {}", chain.to_compact());
                        torn.fetch_add(1, Ordering::Relaxed);
                    }
                    reads.fetch_add(2, Ordering::Relaxed);
                }
            })
        })
        .collect();

    // Writers: disjoint tenant slices; submit everything, withdraw a
    // third, resubmit a sixth, and sprinkle deterministic bad
    // submissions that must be rejected without touching state.
    let chunk = args.tenants.div_ceil(args.workers);
    let accepted_total = Arc::new(AtomicU64::new(0));
    let rejected_total = Arc::new(AtomicU64::new(0));
    let writer_handles: Vec<_> = (0..args.workers)
        .map(|w| {
            let slice: Vec<TenantConfig> = config
                .tenants
                .iter()
                .skip(w * chunk)
                .take(chunk)
                .cloned()
                .collect();
            let accepted_total = Arc::clone(&accepted_total);
            let rejected_total = Arc::clone(&rejected_total);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                let mut accepted = 0u64;
                let mut rejected = 0u64;
                for (i, tenant) in slice.iter().enumerate() {
                    let r = client.rpc(&submit_line(tenant));
                    assert!(Client::ok(&r), "worker {w}: submit: {}", r.to_compact());
                    accepted += 1;
                    if i % 7 == 0 {
                        // Wrong id: structurally rejected, state untouched.
                        let mut bad = tenant.clone();
                        bad.id = 0;
                        let r = client.rpc(&submit_line(&bad));
                        assert!(!Client::ok(&r), "worker {w}: bad id accepted");
                        rejected += 1;
                    }
                    if i % 3 == 0 {
                        let r = client.rpc(
                            &qvisor_serve::Request::WithdrawTenant(tenant.name.clone()).to_line(),
                        );
                        assert!(Client::ok(&r), "worker {w}: withdraw: {}", r.to_compact());
                        accepted += 1;
                    }
                    if i % 6 == 0 {
                        // Resubmit with a revised spec: update-in-place.
                        let mut revised = tenant.clone();
                        revised.levels = Some(8);
                        let r = client.rpc(&submit_line(&revised));
                        assert!(Client::ok(&r), "worker {w}: resubmit: {}", r.to_compact());
                        accepted += 1;
                    }
                }
                accepted_total.fetch_add(accepted, Ordering::Relaxed);
                rejected_total.fetch_add(rejected, Ordering::Relaxed);
            })
        })
        .collect();

    for handle in writer_handles {
        handle.join().expect("writer thread");
    }
    done.store(true, Ordering::Relaxed);
    for handle in reader_handles {
        handle.join().expect("reader thread");
    }

    // Final state, accepted log, and clean shutdown over one connection.
    let mut client = Client::connect(addr);
    let status = client.rpc(r#"{"op":"status"}"#);
    let final_snapshot = client.rpc(r#"{"op":"snapshot"}"#);
    let log = client.rpc(r#"{"op":"get-log"}"#);
    let down = client.rpc(r#"{"op":"shutdown"}"#);
    assert!(Client::ok(&down), "shutdown: {}", down.to_compact());
    let summary = daemon.wait();
    print!("{summary}");

    let accepted = accepted_total.load(Ordering::Relaxed);
    let rejected = rejected_total.load(Ordering::Relaxed);
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
        "version must count accepted mutations"
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

    // Sequential replay of the accepted log must rebuild the byte-exact
    // final state.
    let entries: Vec<LogEntry> = log
        .get("entries")
        .and_then(Value::as_array)
        .expect("log entries")
        .iter()
        .map(|e| LogEntry::from_value(e).expect("log entry parses"))
        .collect();
    assert_eq!(entries.len() as u64, accepted, "log length");
    let replayed = ControlPlane::replay(&config, false, &entries).expect("replay succeeds");
    let replay_canonical = replayed.snapshot().canonical.clone();
    assert_eq!(
        daemon_canonical, replay_canonical,
        "replayed state must be byte-identical to the daemon's final snapshot"
    );

    let torn_reads = torn.load(Ordering::Relaxed);
    println!(
        "serve_load: OK — {accepted} accepted, {rejected} rejected, {} verified reads, \
         {torn_reads} torn, final version {final_version}, replay byte-identical",
        reads.load(Ordering::Relaxed)
    );
    assert_eq!(torn_reads, 0, "torn chain reads observed");
}
