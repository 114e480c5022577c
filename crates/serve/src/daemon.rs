//! The daemon shell: TCP listener, per-connection session threads, and the
//! control thread (the threading model is in DESIGN.md, "Control plane").
//!
//! Each session thread is a thin loop: it feeds what it reads to a
//! [`Session`] and carries out each [`Output`]. What the session does not
//! answer from the [`SnapshotCell`] goes to the one control thread, which
//! owns the [`ControlPlane`] (its telemetry is `Rc`-based) and answers
//! each request in turn with `answer`: so the accepted-mutation log is a
//! faithful sequential history. Shutdown flips the stop flag, wakes the
//! accept loop with a loopback connect and ends every telemetry stream;
//! `Daemon::wait` then closes idle connections and joins every thread. The
//! accept loop drops the handle of each session that has finished before it
//! keeps the next, so a long-running daemon holds the threads of its open
//! connections only.

use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use qvisor_core::config_api::DeploymentConfig;
use qvisor_sim::json::Value;
use qvisor_telemetry::SnapshotBus;

use crate::control::ControlPlane;
use crate::protocol::{error_response, Request};
use crate::registry::SnapshotCell;
use crate::session::{Output, Session};
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

/// A request forwarded to the control thread, and where its reply goes.
type Forwarded = (Request, Sender<Value>);

/// What the session threads and the control thread share.
#[derive(Default)]
pub(crate) struct Shared {
    pub(crate) cell: Arc<SnapshotCell>,
    pub(crate) stats: ServeStats,
    pub(crate) stop: AtomicBool,
    bus: SnapshotBus,
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
            // Read half only: unblocks sessions parked in a read (they
            // see EOF and exit) without cutting off a response still
            // being written — e.g. the shutdown requester's ack, which
            // its session thread may flush concurrently with this
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
    control_tx: Sender<Forwarded>,
    control: JoinHandle<String>,
    accept: JoinHandle<()>,
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
        let shared = Arc::new(Shared::default());

        let (control_tx, control_rx) = channel::<Forwarded>();
        let (init_tx, init_rx) = channel::<Result<(), String>>();
        let control = {
            let shared = Arc::clone(&shared);
            let deny_warnings = opts.deny_warnings;
            // determinism: allowed (control-plane I/O thread, never feeds simulation state)
            std::thread::spawn(move || {
                // The control plane (Rc-based telemetry) lives and dies on
                // this thread.
                let plane = ControlPlane::new(&config, deny_warnings, Arc::clone(&shared.cell));
                let _ = init_tx.send(plane.as_ref().map(|_| ()).map_err(String::clone));
                let Ok(mut plane) = plane else {
                    return String::new();
                };
                while let Ok((request, reply)) = control_rx.recv() {
                    let _ = reply.send(answer(&mut plane, &shared, request));
                    if shared.stop.load(Ordering::SeqCst) {
                        // Wake the accept loop so it observes the flag; idle
                        // connections are closed by `wait` (closing them here
                        // would race the requester's ack).
                        let _ = TcpStream::connect(local_addr);
                        return format!(
                            "serve: shut down at version {} ({} accepted, {} rejected)\n",
                            plane.snapshot().version,
                            plane.snapshot().accepted,
                            plane.rejected_count()
                        );
                    }
                }
                String::new()
            })
        };
        init_rx
            .recv()
            .map_err(|_| "control thread died during startup".to_string())??;

        let sessions: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::default();
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
                    // and park in a read on an idle client forever.
                    let conn_id = shared.register(&stream);
                    let shared = Arc::clone(&shared);
                    let control_tx = control_tx.clone();
                    // determinism: allowed (per-client session I/O, never feeds simulation state)
                    let handle = std::thread::spawn(move || {
                        serve(stream, &shared, &control_tx);
                        if let Some(id) = conn_id {
                            shared.deregister(id);
                        }
                    });
                    let mut sessions = sessions.lock().expect("session table poisoned");
                    // A finished session leaves nothing to join: dropping
                    // its handle releases its thread's stack now, not at
                    // `wait`.
                    sessions.retain(|session| !session.is_finished());
                    sessions.push(handle);
                }
            })
        };

        Ok(Daemon {
            local_addr,
            shared,
            control_tx,
            control,
            accept,
            sessions,
        })
    }

    /// The bound address (useful with `--listen 127.0.0.1:0`).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Block until a `shutdown` request stops the daemon; returns the
    /// run summary.
    pub fn wait(self) -> String {
        let summary = self.control.join().unwrap_or_default();
        let _ = self.accept.join();
        // Unblock sessions still parked in a read on idle connections, then
        // reap every session thread.
        self.shared.close_all();
        let handles = std::mem::take(&mut *self.sessions.lock().expect("session table poisoned"));
        for handle in handles {
            let _ = handle.join();
        }
        summary
    }

    /// Programmatic clean stop (equivalent to a client `shutdown`
    /// request); returns the run summary.
    pub fn shutdown(self) -> String {
        let (tx, rx) = channel();
        if self.control_tx.send((Request::Shutdown, tx)).is_ok() {
            let _ = rx.recv();
        }
        self.wait()
    }
}

/// Serve one connection: feed what it sends to a [`Session`] and carry out
/// each output, until the session closes or the socket fails.
fn serve(stream: TcpStream, shared: &Shared, control_tx: &Sender<Forwarded>) {
    let Ok(mut reader) = stream.try_clone() else {
        return;
    };
    let mut writer = stream;
    let mut session = Session::new(shared);
    let mut buf = [0u8; 4096];
    let mut answered = None;
    loop {
        let outputs = match answered.take() {
            Some(reply) => session.resume(reply),
            None => match reader.read(&mut buf) {
                Ok(n) => session.feed(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return,
            },
        };
        for output in outputs {
            match output {
                Output::Reply(line) => {
                    if writeln!(writer, "{line}").is_err() {
                        return;
                    }
                }
                Output::Control(request) => {
                    let (tx, rx) = channel();
                    let _ = control_tx.send((request, tx));
                    answered = Some(
                        rx.recv()
                            .unwrap_or_else(|_| error_response("daemon is shutting down")),
                    );
                }
                Output::Subscribe(ack) => {
                    // The connection is now a stream; forward until the bus
                    // announces shutdown or the client hangs up.
                    let rx = shared.bus.subscribe();
                    let stream = std::iter::from_fn(|| rx.recv().ok());
                    for line in std::iter::once(ack).chain(stream) {
                        if writeln!(writer, "{line}").is_err() || line == STREAM_END {
                            break;
                        }
                    }
                    return;
                }
                Output::Close => return,
            }
        }
    }
}

/// The control thread's one dispatch: the reply to a forwarded request.
pub(crate) fn answer(plane: &mut ControlPlane, shared: &Shared, request: Request) -> Value {
    match request {
        Request::SubmitPolicy(tenant) => {
            let response = commit(plane, shared, |plane| plane.submit(tenant));
            shared.stats.record_admission(&response);
            response
        }
        Request::WithdrawTenant(name) => commit(plane, shared, |plane| plane.withdraw(&name)),
        Request::GetLog => plane.log_value(),
        Request::Status => shared
            .stats
            .status_fields(plane.status_value())
            .set("bus_lines_dropped", shared.bus.dropped_lines())
            .set("telemetry_subscribers", shared.bus.len() as u64),
        Request::Metrics => {
            let combined = format!(
                "{}{}",
                plane.telemetry_export(),
                shared.stats.export_jsonl()
            );
            match qvisor_telemetry::prometheus::render(&combined) {
                Ok(body) => Value::object()
                    .set("ok", true)
                    .set("result", "metrics")
                    .set("content_type", "text/plain; version=0.0.4")
                    .set("body", body),
                Err(e) => error_response(&format!("metrics render failed: {e}")),
            }
        }
        Request::Shutdown => {
            shared.stop.store(true, Ordering::SeqCst);
            shared.bus.publish(STREAM_END);
            plane.shutdown_value()
        }
        Request::GetChain(_) | Request::Snapshot | Request::SubscribeTelemetry => {
            unreachable!("a session answers '{}' itself", request.op_name())
        }
    }
}

/// Apply one mutation; if it committed, record its latency and publish the
/// telemetry line to any subscriber.
fn commit(
    plane: &mut ControlPlane,
    shared: &Shared,
    mutate: impl FnOnce(&mut ControlPlane) -> Value,
) -> Value {
    // Commit latency is a daemon health metric, never simulation state.
    let started = std::time::Instant::now(); // determinism: allowed (daemon health metric)
    let response = mutate(plane);
    if response.get("ok").and_then(Value::as_bool) == Some(true) {
        let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        shared.stats.record_commit_latency_ns(ns);
        if !shared.bus.is_empty() {
            shared.bus.publish(&plane.telemetry_line());
        }
    }
    response
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::tests::transcript;

    /// A daemon that has not answered, or stopped, after this long has
    /// parked a thread: the test fails naming what it waited for instead of
    /// hanging the run.
    const WATCHDOG: std::time::Duration = std::time::Duration::from_secs(30);

    fn config() -> DeploymentConfig {
        DeploymentConfig::from_json(include_str!("../../../examples/serve/config.json")).unwrap()
    }

    fn start() -> Daemon {
        let opts = ServeOptions {
            listen: "127.0.0.1:0".to_string(),
            deny_warnings: false,
        };
        Daemon::start(config(), opts).unwrap()
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
    fn programmatic_shutdown_unblocks_everything() {
        let daemon = start();
        let _idle = TcpStream::connect(daemon.local_addr()).unwrap();
        let summary = stopped(daemon, Daemon::shutdown);
        assert!(summary.contains("shut down"), "{summary}");
    }

    #[test]
    fn the_session_table_forgets_finished_connections() {
        let daemon = start();
        let shared = Arc::clone(&daemon.shared);
        let one_request = || {
            let mut stream = TcpStream::connect(daemon.local_addr()).unwrap();
            stream.set_read_timeout(Some(WATCHDOG)).unwrap();
            stream.write_all(b"{\"op\":\"status\"}\n").unwrap();
            stream.shutdown(Shutdown::Write).unwrap();
            let mut reply = String::new();
            stream.read_to_string(&mut reply).unwrap();
            assert_eq!(reply.lines().count(), 1, "{reply}");
        };
        (0..50).for_each(|_| one_request());
        // Each accept drops the handles of the sessions finished by then;
        // one that was still closing goes at a later accept. A few more
        // connections, spaced out, must bring the table down: a bounded
        // number, so that a daemon that keeps every handle fails here
        // holding 70 threads, not thousands.
        let held = || daemon.sessions.lock().unwrap().len();
        let deadline = std::time::Instant::now() + WATCHDOG;
        for extra in 0.. {
            if held() <= 2 {
                break;
            }
            assert!(
                extra < 20 && std::time::Instant::now() < deadline,
                "{} session handles held after {} finished connections",
                held(),
                50 + extra
            );
            std::thread::sleep(std::time::Duration::from_millis(20));
            one_request();
        }
        let summary = stopped(daemon, Daemon::shutdown);
        assert!(summary.contains("shut down"), "{summary}");
        // Every thread that shared the daemon's state has ended.
        assert!(shared.conns.lock().unwrap().is_empty());
        assert_eq!(Arc::strong_count(&shared), 1);
    }

    #[test]
    fn a_daemon_over_tcp_replies_as_the_session_does_in_process() {
        // Every op but `metrics`, whose body carries wall-clock latency.
        let script = [
            include_str!("../../../examples/serve/submit_good.json").trim(),
            include_str!("../../../examples/serve/submit_bad.json").trim(),
            r#"{"op":"status"}"#,
            r#"{"op":"get-chain"}"#,
            r#"{"op":"get-chain","tenant":"gold"}"#,
            r#"{"op":"get-chain","tenant":"silver"}"#,
            r#"{"op":"snapshot"}"#,
            r#"{"op":"fly"}"#,
            "not json at all",
            r#"{"op":"withdraw-tenant","tenant":"gold"}"#,
            r#"{"op":"withdraw-tenant","tenant":"gold"}"#,
            r#"{"op":"get-log"}"#,
            r#"{"op":"shutdown"}"#,
        ]
        .join("\n")
            + "\n";
        let shared = Shared::default();
        let mut plane = ControlPlane::new(&config(), false, Arc::clone(&shared.cell)).unwrap();
        let expect: Vec<String> = transcript(&shared, &mut plane, &[script.as_bytes()])
            .into_iter()
            .filter_map(|output| match output {
                Output::Reply(line) => Some(line),
                _ => None,
            })
            .collect();
        assert_eq!(expect.len(), 13);

        let daemon = start();
        let mut stream = TcpStream::connect(daemon.local_addr()).unwrap();
        stream.set_read_timeout(Some(WATCHDOG)).unwrap();
        stream.write_all(script.as_bytes()).unwrap();
        let mut received = String::new();
        stream
            .read_to_string(&mut received)
            .expect("the daemon answers every line, then closes");
        assert_eq!(received.lines().collect::<Vec<_>>(), expect);
        stopped(daemon, Daemon::wait);
    }
}
