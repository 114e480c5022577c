//! The daemon shell: TCP listener, per-connection sessions, and the
//! control thread.
//!
//! Threading model (documented in DESIGN.md):
//!
//! - one **accept thread** turns connections into session threads;
//! - each **session thread** reads request lines. *Reads* (`get-chain`,
//!   `status`, `snapshot`) are answered directly from the shared
//!   [`SnapshotCell`] — a pointer clone, never blocked by resynthesis.
//!   *Mutations* (`submit-policy`, `withdraw-tenant`, `get-log`,
//!   `shutdown`) are forwarded over a channel to the control thread and
//!   the session blocks only for its own reply;
//! - one **control thread** owns the [`ControlPlane`] (telemetry registries
//!   are `Rc`-based, so the control plane never crosses threads) and
//!   serializes all mutations — which is what makes the accepted-mutation
//!   log a faithful sequential history of the daemon's state.
//!
//! Shutdown: the control thread flips the stop flag, wakes the accept
//! loop with a loopback connect, closes every registered connection, and
//! publishes a terminal line to telemetry subscribers so streaming
//! sessions unblock. `Daemon::wait` then joins every thread.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use qvisor_core::config_api::{DeploymentConfig, TenantConfig};
use qvisor_sim::json::Value;
use qvisor_telemetry::SnapshotBus;

use crate::control::ControlPlane;
use crate::protocol::{error_response, Request};
use crate::registry::SnapshotCell;
use crate::stats::ServeStats;

/// Stream line announcing the end of a telemetry subscription.
const STREAM_END: &str = r#"{"type":"stream_end"}"#;

/// Daemon options.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Listen address, e.g. `127.0.0.1:4733` (port 0 picks an ephemeral
    /// port; read it back from [`Daemon::local_addr`]).
    pub listen: String,
    /// Treat verifier warnings as admission failures.
    pub deny_warnings: bool,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            listen: "127.0.0.1:4733".to_string(),
            deny_warnings: false,
        }
    }
}

/// A mutation forwarded to the control thread.
enum Command {
    Submit(TenantConfig, Sender<Value>),
    Withdraw(String, Sender<Value>),
    GetLog(Sender<Value>),
    Status(Sender<Value>),
    Metrics(Sender<Value>),
    Shutdown(Sender<Value>),
}

struct Shared {
    cell: Arc<SnapshotCell>,
    bus: Arc<SnapshotBus>,
    stats: ServeStats,
    stop: AtomicBool,
    conns: Mutex<BTreeMap<u64, TcpStream>>,
    next_conn: AtomicU64,
}

impl Shared {
    fn register(&self, stream: &TcpStream) -> Option<u64> {
        let id = self.next_conn.fetch_add(1, Ordering::Relaxed);
        let clone = stream.try_clone().ok()?;
        self.conns
            .lock()
            .expect("conn table poisoned")
            .insert(id, clone);
        Some(id)
    }

    fn deregister(&self, id: u64) {
        self.conns.lock().expect("conn table poisoned").remove(&id);
    }

    fn close_all(&self) {
        let conns = self.conns.lock().expect("conn table poisoned");
        for stream in conns.values() {
            // Read half only: unblocks sessions parked in `read_line`
            // (they see EOF and exit) without cutting off a response
            // still being written — e.g. the shutdown requester's ack,
            // which its session thread may flush concurrently with this
            // teardown.
            let _ = stream.shutdown(Shutdown::Read);
        }
    }
}

/// A running daemon; dropping it does *not* stop it — call
/// [`Daemon::wait`] (blocks until a `shutdown` request) or
/// [`Daemon::shutdown`].
pub struct Daemon {
    local_addr: std::net::SocketAddr,
    shared: Arc<Shared>,
    control_tx: Sender<Command>,
    control: Option<JoinHandle<String>>,
    accept: Option<JoinHandle<()>>,
    sessions: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Daemon {
    /// Bind, spawn the control and accept threads, and return. Fails fast
    /// when the address cannot be bound or the config is invalid.
    pub fn start(config: DeploymentConfig, opts: ServeOptions) -> Result<Daemon, String> {
        let listener = TcpListener::bind(&opts.listen)
            .map_err(|e| format!("cannot listen on {}: {e}", opts.listen))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| format!("listener has no local address: {e}"))?;
        let shared = Arc::new(Shared {
            cell: Arc::new(SnapshotCell::default()),
            bus: Arc::new(SnapshotBus::new()),
            stats: ServeStats::default(),
            stop: AtomicBool::new(false),
            conns: Mutex::new(BTreeMap::new()),
            next_conn: AtomicU64::new(0),
        });

        let (control_tx, control_rx) = channel::<Command>();
        let (init_tx, init_rx) = channel::<Result<(), String>>();
        let control = {
            let shared = Arc::clone(&shared);
            let deny_warnings = opts.deny_warnings;
            // determinism: allowed (control-plane I/O thread, never feeds simulation state)
            std::thread::spawn(move || {
                // The control plane (Rc-based telemetry) lives and dies on
                // this thread.
                let mut plane =
                    match ControlPlane::new(&config, deny_warnings, Arc::clone(&shared.cell)) {
                        Ok(plane) => {
                            let _ = init_tx.send(Ok(()));
                            plane
                        }
                        Err(e) => {
                            let _ = init_tx.send(Err(e));
                            return String::new();
                        }
                    };
                while let Ok(cmd) = control_rx.recv() {
                    match cmd {
                        Command::Submit(tenant, reply) => {
                            // Commit latency is a daemon health metric,
                            // never simulation state.
                            let started = std::time::Instant::now(); // determinism: allowed (daemon health metric)
                            let response = plane.submit(tenant);
                            let committed =
                                response.get("ok").and_then(Value::as_bool) == Some(true);
                            shared.stats.record_admission(&response);
                            if committed {
                                shared
                                    .stats
                                    .record_commit_latency_ns(duration_ns(started.elapsed()));
                            }
                            let _ = reply.send(response);
                            if committed && !shared.bus.is_empty() {
                                shared.bus.publish(&plane.telemetry_line());
                            }
                        }
                        Command::Withdraw(name, reply) => {
                            // Commit latency is a daemon health metric,
                            // never simulation state.
                            let started = std::time::Instant::now(); // determinism: allowed (daemon health metric)
                            let response = plane.withdraw(&name);
                            let committed =
                                response.get("ok").and_then(Value::as_bool) == Some(true);
                            if committed {
                                shared
                                    .stats
                                    .record_commit_latency_ns(duration_ns(started.elapsed()));
                            }
                            let _ = reply.send(response);
                            if committed && !shared.bus.is_empty() {
                                shared.bus.publish(&plane.telemetry_line());
                            }
                        }
                        Command::GetLog(reply) => {
                            let _ = reply.send(plane.log_value());
                        }
                        Command::Status(reply) => {
                            let status = shared
                                .stats
                                .status_fields(plane.status_value())
                                .set("bus_lines_dropped", shared.bus.dropped_lines())
                                .set("telemetry_subscribers", shared.bus.len() as u64);
                            let _ = reply.send(status);
                        }
                        Command::Metrics(reply) => {
                            let combined = format!(
                                "{}{}",
                                plane.telemetry_export(),
                                shared.stats.export_jsonl()
                            );
                            let response = match qvisor_telemetry::prometheus::render(&combined) {
                                Ok(body) => Value::object()
                                    .set("ok", true)
                                    .set("result", "metrics")
                                    .set("content_type", "text/plain; version=0.0.4")
                                    .set("body", body),
                                Err(e) => error_response(&format!("metrics render failed: {e}")),
                            };
                            let _ = reply.send(response);
                        }
                        Command::Shutdown(reply) => {
                            shared.stop.store(true, Ordering::SeqCst);
                            // Wake the accept loop so it observes the flag;
                            // idle connections are closed by `wait` (closing
                            // them here would race the requester's ack).
                            let _ = TcpStream::connect(local_addr);
                            shared.bus.publish(STREAM_END);
                            let ack = plane.shutdown_value();
                            let summary = format!(
                                "serve: shut down at version {} ({} accepted, {} rejected)\n",
                                plane.snapshot().version,
                                plane.snapshot().accepted,
                                plane.rejected_count()
                            );
                            let _ = reply.send(ack);
                            return summary;
                        }
                    }
                }
                String::new()
            })
        };
        init_rx
            .recv()
            .map_err(|_| "control thread died during startup".to_string())??;

        let sessions = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let control_tx = control_tx.clone();
            let sessions = Arc::clone(&sessions);
            // determinism: allowed (TCP accept loop, never feeds simulation state)
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shared.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // Registered here, not by the session thread: `wait`
                    // joins this loop before `close_all`, so every accepted
                    // connection is in the table by then. A session that
                    // registered itself could be spawned, miss `close_all`
                    // and park in `read_line` on an idle client forever.
                    let conn_id = shared.register(&stream);
                    let shared = Arc::clone(&shared);
                    let control_tx = control_tx.clone();
                    // determinism: allowed (per-client session I/O, never feeds simulation state)
                    let handle = std::thread::spawn(move || {
                        session(stream, conn_id, &shared, &control_tx);
                    });
                    sessions
                        .lock()
                        .expect("session table poisoned")
                        .push(handle);
                }
            })
        };

        Ok(Daemon {
            local_addr,
            shared,
            control_tx,
            control: Some(control),
            accept: Some(accept),
            sessions,
        })
    }

    /// The bound address (useful with `--listen 127.0.0.1:0`).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Block until a `shutdown` request stops the daemon; returns the
    /// run summary.
    pub fn wait(mut self) -> String {
        let summary = match self.control.take() {
            Some(handle) => handle.join().unwrap_or_default(),
            None => String::new(),
        };
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        // Unblock sessions still parked in `read_line` on idle
        // connections, then reap every session thread.
        self.shared.close_all();
        let handles: Vec<JoinHandle<()>> = {
            let mut sessions = self.sessions.lock().expect("session table poisoned");
            sessions.drain(..).collect()
        };
        for handle in handles {
            let _ = handle.join();
        }
        summary
    }

    /// Programmatic clean stop (equivalent to a client `shutdown`
    /// request); returns the run summary.
    pub fn shutdown(self) -> String {
        let (tx, rx) = channel();
        if self.control_tx.send(Command::Shutdown(tx)).is_ok() {
            let _ = rx.recv();
        }
        self.wait()
    }
}

/// Serve one connection until EOF, protocol error on write, or shutdown.
fn session(stream: TcpStream, conn_id: Option<u64>, shared: &Shared, control_tx: &Sender<Command>) {
    let mut reader = match stream.try_clone() {
        Ok(clone) => BufReader::new(clone),
        Err(_) => return,
    };
    let mut writer = stream;
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        if line.trim().is_empty() {
            continue;
        }
        let request = match Request::parse(line.trim()) {
            Ok(request) => request,
            Err(e) => {
                shared.stats.record_op("invalid");
                if write_line(&mut writer, &error_response(&e)).is_err() {
                    break;
                }
                continue;
            }
        };
        shared.stats.record_op(request.op_name());
        let shutting_down = matches!(request, Request::Shutdown);
        let response = match request {
            // Reads: answered from the published snapshot, never queued
            // behind a resynthesis.
            Request::GetChain(tenant) => get_chain(shared, tenant.as_deref()),
            Request::Snapshot => {
                let snap = shared.cell.load();
                let body = snap.to_value();
                Value::object()
                    .set("ok", true)
                    .set("result", "snapshot")
                    .set("snapshot", body)
            }
            // Mutations and log reads: serialized through the control
            // thread.
            Request::SubmitPolicy(t) => roundtrip(control_tx, |tx| Command::Submit(t, tx)),
            Request::WithdrawTenant(name) => {
                roundtrip(control_tx, |tx| Command::Withdraw(name, tx))
            }
            Request::GetLog => roundtrip(control_tx, Command::GetLog),
            Request::Status => roundtrip(control_tx, Command::Status),
            Request::Metrics => roundtrip(control_tx, Command::Metrics),
            Request::Shutdown => roundtrip(control_tx, Command::Shutdown),
            Request::SubscribeTelemetry => {
                let rx = shared.bus.subscribe();
                let ack = Value::object().set("ok", true).set("result", "subscribed");
                if write_line(&mut writer, &ack).is_err() {
                    break;
                }
                // The connection is now a stream; forward until the bus
                // announces shutdown or the client hangs up.
                while let Ok(published) = rx.recv() {
                    let done = published == STREAM_END;
                    if writeln!(writer, "{published}").is_err() || done {
                        break;
                    }
                }
                break;
            }
        };
        if write_line(&mut writer, &response).is_err() || shutting_down {
            break;
        }
    }
    if let Some(id) = conn_id {
        shared.deregister(id);
    }
}

fn write_line(writer: &mut TcpStream, value: &Value) -> std::io::Result<()> {
    writeln!(writer, "{}", value.to_compact())
}

fn duration_ns(elapsed: std::time::Duration) -> u64 {
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

/// Send a command to the control thread and wait for this request's reply.
fn roundtrip(control_tx: &Sender<Command>, make: impl FnOnce(Sender<Value>) -> Command) -> Value {
    let (tx, rx) = channel();
    if control_tx.send(make(tx)).is_err() {
        return error_response("daemon is shutting down");
    }
    rx.recv()
        .unwrap_or_else(|_| error_response("daemon is shutting down"))
}

fn get_chain(shared: &Shared, tenant: Option<&str>) -> Value {
    let snap = shared.cell.load();
    let base = Value::object()
        .set("ok", true)
        .set("result", "chain")
        .set("version", snap.version)
        .set("fingerprint", snap.fingerprint.as_str());
    match tenant {
        None => {
            let chains: Vec<Value> = snap
                .to_value()
                .get("chains")
                .and_then(|c| c.as_array().map(<[Value]>::to_vec))
                .unwrap_or_default();
            base.set("chains", Value::from(chains))
        }
        Some(name) => match snap.chains.iter().position(|c| c.name == name) {
            None => error_response(&format!("tenant '{name}' has no published chain")),
            Some(i) => {
                let chain = snap
                    .to_value()
                    .get("chains")
                    .and_then(Value::as_array)
                    .map(|c| c[i].clone())
                    .unwrap_or_else(Value::object);
                base.set("chain", chain)
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn universe() -> DeploymentConfig {
        DeploymentConfig::from_json(
            r#"{
                "tenants": [
                    {"id": 1, "name": "gold", "algorithm": "pFabric", "rank_min": 0, "rank_max": 999, "levels": 16},
                    {"id": 2, "name": "silver", "algorithm": "EDF", "rank_min": 0, "rank_max": 499}
                ],
                "policy": "gold >> silver",
                "synth": {"first_rank": 1}
            }"#,
        )
        .unwrap()
    }

    fn start() -> Daemon {
        Daemon::start(
            universe(),
            ServeOptions {
                listen: "127.0.0.1:0".to_string(),
                deny_warnings: false,
            },
        )
        .unwrap()
    }

    /// A daemon that has not answered, or stopped, after this long has
    /// parked a thread: the test fails naming what it waited for instead of
    /// hanging the run.
    const WATCHDOG: std::time::Duration = std::time::Duration::from_secs(30);

    struct Client {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    }

    impl Client {
        fn connect(daemon: &Daemon) -> Client {
            let stream = TcpStream::connect(daemon.local_addr()).unwrap();
            stream.set_read_timeout(Some(WATCHDOG)).unwrap();
            stream.set_write_timeout(Some(WATCHDOG)).unwrap();
            Client {
                reader: BufReader::new(stream.try_clone().unwrap()),
                writer: stream,
            }
        }

        fn send(&mut self, line: &str) -> Value {
            writeln!(self.writer, "{line}").unwrap_or_else(|e| panic!("sending {line}: {e}"));
            self.read(line)
        }

        /// The next line the daemon sends; `awaiting` names it on failure.
        fn read(&mut self, awaiting: &str) -> Value {
            let mut response = String::new();
            self.reader
                .read_line(&mut response)
                .unwrap_or_else(|e| panic!("no answer to {awaiting}: {e}"));
            Value::parse(response.trim()).unwrap()
        }
    }

    /// Stop the daemon (`Daemon::wait` or `Daemon::shutdown`) on a thread of
    /// its own, under the watchdog.
    fn stopped(daemon: Daemon, stop: fn(Daemon) -> String) -> String {
        let (tx, rx) = channel();
        // determinism: allowed (test watchdog: detached so that a parked daemon fails the test)
        std::thread::spawn(move || tx.send(stop(daemon)));
        rx.recv_timeout(WATCHDOG)
            .expect("the daemon parked a thread: not stopped after 30 s")
    }

    #[test]
    fn daemon_round_trips_the_protocol() {
        let daemon = start();
        let mut client = Client::connect(&daemon);

        let r = client.send(r#"{"op":"status"}"#);
        assert_eq!(r.get("version").and_then(Value::as_u64), Some(1));

        let r = client.send(
            r#"{"op":"submit-policy","tenant":{"id":1,"name":"gold","algorithm":"pFabric","rank_min":0,"rank_max":999,"levels":16}}"#,
        );
        assert_eq!(r.get("ok").and_then(Value::as_bool), Some(true), "{r:?}");
        assert_eq!(r.get("version").and_then(Value::as_u64), Some(2));

        let r = client.send(r#"{"op":"get-chain","tenant":"gold"}"#);
        assert_eq!(r.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(r.get("version").and_then(Value::as_u64), Some(2));

        let r = client.send(r#"{"op":"nonsense"}"#);
        assert_eq!(r.get("ok").and_then(Value::as_bool), Some(false));
        // The connection survives protocol errors.
        let r = client.send(r#"{"op":"snapshot"}"#);
        let canonical = r.get("snapshot").unwrap().to_compact();
        crate::registry::ChainSnapshot::verify_canonical(&canonical).unwrap();

        let r = client.send(r#"{"op":"shutdown"}"#);
        assert_eq!(r.get("result").and_then(Value::as_str), Some("shutdown"));
        let summary = stopped(daemon, Daemon::wait);
        assert!(summary.contains("shut down"), "{summary}");
    }

    #[test]
    fn telemetry_subscription_streams_until_shutdown() {
        let daemon = start();
        let mut subscriber = Client::connect(&daemon);
        let ack = subscriber.send(r#"{"op":"subscribe-telemetry"}"#);
        assert_eq!(
            ack.get("result").and_then(Value::as_str),
            Some("subscribed")
        );

        let mut client = Client::connect(&daemon);
        let r = client.send(
            r#"{"op":"submit-policy","tenant":{"id":2,"name":"silver","algorithm":"EDF","rank_min":0,"rank_max":499}}"#,
        );
        assert_eq!(r.get("ok").and_then(Value::as_bool), Some(true));

        let snap = subscriber.read("the telemetry snapshot");
        assert_eq!(
            snap.get("type").and_then(Value::as_str),
            Some("telemetry_snapshot")
        );
        assert_eq!(snap.get("version").and_then(Value::as_u64), Some(2));

        client.send(r#"{"op":"shutdown"}"#);
        let end = subscriber.read("the end of the stream");
        assert_eq!(end.get("type").and_then(Value::as_str), Some("stream_end"));
        stopped(daemon, Daemon::wait);
    }

    #[test]
    fn metrics_and_status_reflect_a_scripted_session() {
        let daemon = start();
        let mut client = Client::connect(&daemon);

        // One accept, one structural reject, one gate reject.
        let r = client.send(
            r#"{"op":"submit-policy","tenant":{"id":1,"name":"gold","algorithm":"pFabric","rank_min":0,"rank_max":999,"levels":16}}"#,
        );
        assert_eq!(r.get("ok").and_then(Value::as_bool), Some(true));
        let r = client.send(
            r#"{"op":"submit-policy","tenant":{"id":9,"name":"ghost","algorithm":"x","rank_min":0,"rank_max":9}}"#,
        );
        assert_eq!(r.get("ok").and_then(Value::as_bool), Some(false));
        let r = client.send(
            r#"{"op":"submit-policy","tenant":{"id":2,"name":"silver","algorithm":"EDF","rank_min":0,"rank_max":18446744073709551615,"levels":18446744073709551615}}"#,
        );
        assert_eq!(r.get("ok").and_then(Value::as_bool), Some(false));
        client.send("not json at all");

        let status = client.send(r#"{"op":"status"}"#);
        let requests = status.get("requests").unwrap();
        assert_eq!(
            requests.get("submit-policy").and_then(Value::as_u64),
            Some(3)
        );
        assert_eq!(requests.get("invalid").and_then(Value::as_u64), Some(1));
        let admission = status.get("admission").unwrap();
        assert_eq!(admission.get("accepted").and_then(Value::as_u64), Some(1));
        assert_eq!(admission.get("rejected").and_then(Value::as_u64), Some(2));
        let by_code = admission.get("rejected_by_code").unwrap();
        assert_eq!(
            by_code
                .get(crate::stats::STRUCTURAL_CODE)
                .and_then(Value::as_u64),
            Some(1)
        );
        assert_eq!(
            status.get("bus_lines_dropped").and_then(Value::as_u64),
            Some(0)
        );
        assert_eq!(
            status.get("telemetry_subscribers").and_then(Value::as_u64),
            Some(0)
        );

        let r = client.send(r#"{"op":"metrics"}"#);
        assert_eq!(r.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(
            r.get("content_type").and_then(Value::as_str),
            Some("text/plain; version=0.0.4")
        );
        let body = r.get("body").and_then(Value::as_str).unwrap();
        assert!(
            body.contains(r#"qvisor_serve_requests{op="submit-policy"} 3"#),
            "{body}"
        );
        assert!(body.contains("qvisor_serve_admission_accepted 1"), "{body}");
        assert!(
            body.contains("qvisor_serve_commit_latency_ns_count 1"),
            "{body}"
        );

        client.send(r#"{"op":"shutdown"}"#);
        stopped(daemon, Daemon::wait);
    }

    #[test]
    fn programmatic_shutdown_unblocks_everything() {
        let daemon = start();
        let _idle = Client::connect(&daemon);
        let summary = stopped(daemon, Daemon::shutdown);
        assert!(summary.contains("shut down"), "{summary}");
    }
}
