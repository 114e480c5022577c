//! `control_churn`: a closed loop over real TCP against an in-process
//! `Daemon` on `127.0.0.1:0`, 256-tenant universe (share groups of 8
//! joined by `>>`).
//!
//! Two connections, one request in flight each — closed loop, because an
//! orchestrator waits for the admission verdict before its next change.
//! Each sets `TCP_NODELAY` and sends a request with a single `write_all`.
//! Connection **W** walks a seeded permutation of the universe: submit,
//! every fourth step a submission the verifier must refuse, withdraw the
//! tenant submitted `WINDOW` steps earlier, every third step resubmit with
//! revised levels — so once the warm-up has filled the window the live
//! set stays at `WINDOW` tenants and the op mix is stationary. Connection
//! **R** alternates `get-chain` and `snapshot`, verifying every snapshot
//! fingerprint and that versions never go backwards. Afterwards the
//! accepted log is replayed through a fresh `ControlPlane`, which must
//! reach the daemon's final snapshot byte for byte.

use super::{Budget, Extra, Outcome, RunCfg};
use crate::calib::timed;
use crate::spans::Recorder;
use crate::stats::{self, Summary};
use qvisor_core::config_api::{DeploymentConfig, SynthOptions, TenantConfig};
use qvisor_serve::{ChainSnapshot, ControlPlane, Daemon, LogEntry, Request, ServeOptions};
use qvisor_sim::json::Value;
use qvisor_sim::SimRng;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// Closed-loop connections (and client threads). The workload refuses to
/// run on fewer cores: a starved generator would report its own queueing
/// as the daemon's latency.
pub const CONNECTIONS: usize = 2;
/// Set-ups timed per run (the last one serves the measurement).
const SETUPS: usize = 15;
/// Slices the time box is cut into for the spread of `work_per_s`.
const SLICES: usize = 6;

const WARM_UP: u8 = 0;
const MEASURE: u8 = 1;
const MEASURE_TRACED: u8 = 2;
const STOP: u8 = 3;

/// Tenants in the universe and in the live window.
pub fn dimensions(smoke: bool) -> (usize, usize) {
    if smoke {
        (32, 8)
    } else {
        (256, 32)
    }
}

/// The universe document: `n` tenants, share groups of 8 joined by `>>`.
pub fn universe_document(n: usize) -> String {
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
    .to_json()
}

/// What a request on W is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// First submission of a tenant (accepted).
    Submit,
    /// A submission the verifier must refuse.
    Reject,
    /// Withdrawal of a live tenant (accepted).
    Withdraw,
    /// Resubmission with revised levels (accepted, updates in place).
    Resubmit,
}

impl OpKind {
    /// Must the daemon accept it?
    pub fn accepted(self) -> bool {
        self != OpKind::Reject
    }
}

/// One request of W's sequence.
#[derive(Clone, Debug)]
pub struct Op {
    /// What it is.
    pub kind: OpKind,
    /// The parsed request (what the in-process probes apply).
    pub request: Request,
    /// The request line, newline included: one `write_all`.
    pub line: String,
}

/// W's endless op sequence for `seed`.
pub struct OpSequence {
    tenants: Vec<TenantConfig>,
    order: Vec<usize>,
    levels: Vec<u64>,
    window: usize,
    step: usize,
    pending: std::collections::VecDeque<Op>,
}

impl OpSequence {
    /// The sequence over `config`'s universe with `window` live tenants.
    pub fn new(seed: u64, config: &DeploymentConfig, window: usize) -> OpSequence {
        let mut rng = SimRng::seed_from(seed).derive(0xC4);
        let n = config.tenants.len();
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let levels = (0..n).map(|_| [4, 8, 32][rng.below(3) as usize]).collect();
        OpSequence {
            tenants: config.tenants.clone(),
            order,
            levels,
            window,
            step: 0,
            pending: std::collections::VecDeque::new(),
        }
    }

    /// The requests of the first `window` steps: they fill the live window
    /// and are sent before the time box opens.
    pub fn warm_up(&mut self) -> Vec<Op> {
        while self.step < self.window {
            self.refill();
        }
        self.pending.drain(..).collect()
    }

    fn push(&mut self, kind: OpKind, request: Request) {
        let line = format!("{}\n", request.to_line());
        self.pending.push_back(Op {
            kind,
            request,
            line,
        });
    }

    fn refill(&mut self) {
        let n = self.order.len();
        let i = self.step;
        self.step += 1;
        let tenant = self.tenants[self.order[i % n]].clone();
        self.push(OpKind::Submit, Request::SubmitPolicy(tenant.clone()));
        if i % 4 == 1 {
            // Saturating range and levels: the verifier refutes it
            // (QV-OVERFLOW) after a full synthesis of the candidate.
            let bad = TenantConfig {
                rank_max: u64::MAX,
                levels: Some(u64::MAX),
                ..tenant.clone()
            };
            self.push(OpKind::Reject, Request::SubmitPolicy(bad));
        }
        if i >= self.window {
            let old = &self.tenants[self.order[(i - self.window) % n]];
            self.push(OpKind::Withdraw, Request::WithdrawTenant(old.name.clone()));
        }
        if i.is_multiple_of(3) {
            let revised = TenantConfig {
                levels: Some(self.levels[i % n]),
                ..tenant
            };
            self.push(OpKind::Resubmit, Request::SubmitPolicy(revised));
        }
    }
}

impl Iterator for OpSequence {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if self.pending.is_empty() {
            self.refill();
        }
        self.pending.pop_front()
    }
}

/// One closed-loop connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    response: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A daemon that stops answering must fail the run, not hang it.
        stream.set_read_timeout(Some(Duration::from_secs(20)))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            response: String::new(),
        })
    }

    /// One round trip. Returns `(latency, wait)` seconds: request start to
    /// response read, and the part of it spent blocked on the socket.
    fn rpc(&mut self, line: &str, rec: &mut Recorder) -> std::io::Result<(f64, f64)> {
        let t0 = Instant::now();
        let span = rec.start("serve.client.write");
        let wrote = self.writer.write_all(line.as_bytes());
        rec.end(span);
        wrote?;
        let t1 = Instant::now();
        let span = rec.start("serve.client.wait");
        self.response.clear();
        let read = self.reader.read_line(&mut self.response);
        rec.end(span);
        if read? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let t2 = Instant::now();
        Ok((
            t2.duration_since(t0).as_secs_f64(),
            t2.duration_since(t1).as_secs_f64(),
        ))
    }

    fn response(&self) -> Result<Value, String> {
        Value::parse(self.response.trim()).map_err(|e| format!("response is not JSON: {e}"))
    }

    /// One request as a `rep` root span: write, wait, then `check` the
    /// parsed response.
    fn exchange(
        &mut self,
        line: &str,
        rec: &mut Recorder,
        check: impl FnOnce(&Value) -> Result<(), String>,
    ) -> Exchange {
        let root = rec.start("rep");
        let outcome = self.rpc(line, rec);
        let span = rec.start("serve.client.verify");
        let verdict = match &outcome {
            Err(e) => Err(format!("transport: {e}")),
            Ok(_) => self.response().and_then(|v| check(&v)),
        };
        rec.end(span);
        rec.end(root);
        let (latency_s, wait_s) = outcome.as_ref().map_or((0.0, 0.0), |t| *t);
        Exchange {
            latency_s,
            wait_s,
            alive: outcome.is_ok(),
            verdict,
        }
    }
}

/// What one request came to.
struct Exchange {
    /// Round-trip seconds (0 after a transport error).
    latency_s: f64,
    /// The part of it spent blocked on the socket.
    wait_s: f64,
    /// Did the connection survive?
    alive: bool,
    /// What was wrong with the transport or the response, if anything.
    verdict: Result<(), String>,
}

/// The head of a response, for a failure note (a refusal carries its whole
/// candidate document).
fn brief(v: &Value) -> String {
    v.to_compact().chars().take(200).collect()
}

fn is_ok(v: &Value) -> bool {
    v.get("ok").and_then(Value::as_bool) == Some(true)
}

/// One measured request.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// W: the op kind; R: `None`.
    pub kind: Option<OpKind>,
    /// Seconds since the time box opened.
    pub at_s: f64,
    /// Round-trip seconds.
    pub latency_s: f64,
    /// Was the span recorder on?
    pub traced: bool,
    /// Right verdict / consistent snapshot?
    pub ok: bool,
}

/// Everything one daemon session produced.
pub struct Session {
    /// Seconds of `Daemon::start` + connects, one per timed set-up, at
    /// reference host speed.
    pub setup_s: Vec<f64>,
    /// Wall seconds W took to fill the live window before the box opened
    /// (today 52 requests at 44 ms: bound by the socket, so left raw).
    pub fill_s: f64,
    /// W's measured requests.
    pub w: Vec<Sample>,
    /// R's measured requests.
    pub r: Vec<Sample>,
    /// Seconds the time box really lasted.
    pub box_s: f64,
    /// Share of the box W's thread spent not blocked on the socket.
    pub client_busy_share: f64,
    /// Median commit latency from the daemon's own `metrics` exposition,
    /// microseconds (bucket upper bound).
    pub commit_hist_p50_us: f64,
    /// Accepted mutations the daemon reports (warm-up included).
    pub accepted_total: u64,
    /// Failures and output checks, one line each.
    pub notes: Vec<String>,
    /// Did replay, version and status checks pass?
    pub consistent: bool,
    /// Spans of both client threads.
    pub recorder: Recorder,
}

/// The repeatable part of the program's set-up: parse the universe, start
/// the daemon, connect. (Filling the live window follows, once.)
fn set_up(doc: &str) -> Result<(DeploymentConfig, Daemon, Vec<Client>), String> {
    let config = DeploymentConfig::from_json(doc).map_err(|e| e.to_string())?;
    let daemon = Daemon::start(
        config.clone(),
        ServeOptions {
            listen: "127.0.0.1:0".to_string(),
            deny_warnings: false,
        },
    )?;
    let addr = daemon.local_addr();
    let clients = (0..CONNECTIONS)
        .map(|_| Client::connect(addr))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("connect: {e}"))?;
    Ok((config, daemon, clients))
}

/// p50 of the `qvisor_serve_commit_latency_ns` histogram in a Prometheus
/// exposition: the upper bound of the first bucket holding half the
/// observations.
fn commit_hist_p50_us(exposition: &str) -> f64 {
    let prefix = "qvisor_serve_commit_latency_ns_bucket{le=\"";
    let mut buckets: Vec<(f64, f64)> = exposition
        .lines()
        .filter_map(|l| l.strip_prefix(prefix))
        .filter_map(|rest| {
            let (le, count) = rest.split_once("\"} ")?;
            Some((le.parse::<f64>().ok()?, count.trim().parse::<f64>().ok()?))
        })
        .collect();
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total = buckets.last().map_or(0.0, |b| b.1);
    buckets
        .iter()
        .find(|b| b.1 * 2.0 >= total && b.0.is_finite())
        .map_or(0.0, |b| b.0 / 1_000.0)
}

/// Run one daemon session: `SETUPS` timed set-ups, the warm-up, a
/// `box_s`-second closed loop, teardown and replay.
pub fn session(seed: u64, smoke: bool, box_s: f64, trace: bool) -> Result<Session, String> {
    let nproc = crate::host::nproc();
    if nproc < CONNECTIONS {
        return Err(format!(
            "control_churn drives {CONNECTIONS} closed-loop connections from {CONNECTIONS} \
             client threads and refuses to run on {nproc} core(s)"
        ));
    }
    let (universe, window) = dimensions(smoke);
    let doc = universe_document(universe);

    let mut setup_s = Vec::new();
    let mut live: Option<(DeploymentConfig, Daemon, Vec<Client>)> = None;
    for _ in 0..SETUPS {
        if let Some((_, daemon, clients)) = live.take() {
            drop(clients);
            daemon.shutdown();
        }
        let (made, secs) = timed(1, || set_up(&doc));
        live = Some(made?);
        setup_s.push(secs);
    }
    let (config, daemon, mut clients) = live.expect("SETUPS >= 1");
    let mut reader = clients.pop().expect("two connections");
    let mut writer = clients.pop().expect("two connections");

    let phase = AtomicU8::new(WARM_UP);
    let epoch = Instant::now();
    let mut sequence = OpSequence::new(seed, &config, window);
    let warm_up = sequence.warm_up();

    type Side = (Vec<Sample>, Recorder, Vec<String>);
    let (w_side, r_side, box_actual, client_busy_share, fill_s): (Side, Side, f64, f64, f64) =
        std::thread::scope(|scope| {
            let phase = &phase;
            let w_thread = scope.spawn(move || {
                let mut rec = Recorder::new(false, epoch);
                let mut notes = Vec::new();
                // One request on W: the verdict must be the op's.
                let mut send = |op: &Op, rec: &mut Recorder| {
                    let sent = writer.exchange(&op.line, rec, |v| {
                        if is_ok(v) == op.kind.accepted() {
                            Ok(())
                        } else {
                            Err(format!("wrong verdict: {}", brief(v)))
                        }
                    });
                    if let Err(e) = &sent.verdict {
                        notes.push(format!("W {:?}: {e}", op.kind));
                    }
                    sent
                };
                let mut alive = true;
                let fill_start = Instant::now();
                for op in &warm_up {
                    alive &= send(op, &mut rec).alive;
                }
                let fill_s = fill_start.elapsed().as_secs_f64();
                let mut samples = Vec::new();
                let mut waited = 0.0;
                let box_start = Instant::now();
                let mut at_s = 0.0;
                while alive && at_s < box_s {
                    // Traced runs alternate one-second slices with the
                    // recorder on and off.
                    let traced = trace && (at_s as u64) % 2 == 1;
                    phase.store(
                        if traced { MEASURE_TRACED } else { MEASURE },
                        Ordering::SeqCst,
                    );
                    rec.set_enabled(traced);
                    let op = sequence.next().expect("endless sequence");
                    let sent = send(&op, &mut rec);
                    waited += sent.wait_s;
                    samples.push(Sample {
                        kind: Some(op.kind),
                        at_s,
                        latency_s: sent.latency_s,
                        traced,
                        ok: sent.verdict.is_ok(),
                    });
                    alive = sent.alive;
                    at_s = box_start.elapsed().as_secs_f64();
                }
                phase.store(STOP, Ordering::SeqCst);
                let busy = if at_s > 0.0 { 1.0 - waited / at_s } else { 0.0 };
                ((samples, rec, notes), at_s, busy, fill_s)
            });
            let r_thread = scope.spawn(move || {
                let mut rec = Recorder::new(false, epoch);
                let mut samples = Vec::new();
                let mut notes = Vec::new();
                let mut last_version = 0u64;
                let mut box_start: Option<Instant> = None;
                let lines = ["{\"op\":\"get-chain\"}\n", "{\"op\":\"snapshot\"}\n"];
                for turn in 0usize.. {
                    let now_phase = phase.load(Ordering::SeqCst);
                    if now_phase == STOP {
                        break;
                    }
                    let measuring = now_phase != WARM_UP;
                    let at_s = if measuring {
                        box_start
                            .get_or_insert_with(Instant::now)
                            .elapsed()
                            .as_secs_f64()
                    } else {
                        0.0
                    };
                    let traced = now_phase == MEASURE_TRACED;
                    rec.set_enabled(traced);
                    let read = reader.exchange(lines[turn % 2], &mut rec, |v| {
                        let version = if turn % 2 == 1 {
                            let body = v.get("snapshot").ok_or("snapshot response has no body")?;
                            ChainSnapshot::verify_canonical(&body.to_compact())?.0
                        } else {
                            let sane = is_ok(v)
                                && v.get("fingerprint")
                                    .and_then(Value::as_str)
                                    .is_some_and(|f| f.len() == 16);
                            if !sane {
                                return Err(format!("bad get-chain: {}", brief(v)));
                            }
                            v.get("version").and_then(Value::as_u64).unwrap_or(0)
                        };
                        if version < last_version {
                            return Err(format!("version went back {last_version} -> {version}"));
                        }
                        last_version = version;
                        Ok(())
                    });
                    if let Err(e) = &read.verdict {
                        notes.push(format!("R: {e}"));
                    }
                    if measuring {
                        samples.push(Sample {
                            kind: None,
                            at_s,
                            latency_s: read.latency_s,
                            traced,
                            ok: read.verdict.is_ok(),
                        });
                    }
                    if !read.alive {
                        break;
                    }
                }
                (samples, rec, notes)
            });
            let (w_side, box_actual, busy, fill_s) = w_thread.join().expect("W client thread");
            let r_side = r_thread.join().expect("R client thread");
            (w_side, r_side, box_actual, busy, fill_s)
        });
    let (w, mut recorder, mut notes) = w_side;
    let (r, r_recorder, r_notes) = r_side;
    recorder.absorb(r_recorder);
    notes.extend(r_notes);

    // Teardown on a fresh connection: daemon's own metrics, final state,
    // accepted log, clean shutdown; then sequential replay.
    let mut admin = Client::connect(daemon.local_addr()).map_err(|e| format!("connect: {e}"))?;
    let mut off = Recorder::new(false, epoch);
    let mut ask = |line: &str| -> Result<Value, String> {
        admin
            .rpc(line, &mut off)
            .map_err(|e| format!("teardown transport: {e}"))?;
        admin.response()
    };
    let metrics = ask("{\"op\":\"metrics\"}\n")?;
    let status = ask("{\"op\":\"status\"}\n")?;
    let final_snapshot = ask("{\"op\":\"snapshot\"}\n")?;
    let log = ask("{\"op\":\"get-log\"}\n")?;
    let down = ask("{\"op\":\"shutdown\"}\n")?;
    daemon.wait();

    let mut consistent = is_ok(&down);
    let daemon_canonical = final_snapshot
        .get("snapshot")
        .map(Value::to_compact)
        .unwrap_or_default();
    let entries: Vec<LogEntry> = log
        .get("entries")
        .and_then(Value::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|e| LogEntry::from_value(e).ok())
        .collect();
    let accepted_total = status.get("accepted").and_then(Value::as_u64).unwrap_or(0);
    match ChainSnapshot::verify_canonical(&daemon_canonical) {
        Ok((version, _)) if version == 1 + accepted_total => {}
        other => {
            consistent = false;
            notes.push(format!(
                "final snapshot {other:?} does not count {accepted_total} accepted mutations"
            ));
        }
    }
    if entries.len() as u64 != accepted_total {
        consistent = false;
        notes.push(format!(
            "log has {} entries, status says {accepted_total}",
            entries.len()
        ));
    }
    match ControlPlane::replay(&config, false, &entries) {
        Ok(replayed) if replayed.snapshot().canonical == daemon_canonical => {}
        Ok(_) => {
            consistent = false;
            notes.push("replayed log does not rebuild the final snapshot".to_string());
        }
        Err(e) => {
            consistent = false;
            notes.push(format!("replay: {e}"));
        }
    }
    notes.push(format!(
        "replay of {} log entries rebuilt the final snapshot byte for byte: {consistent}",
        entries.len()
    ));

    Ok(Session {
        setup_s,
        fill_s,
        w,
        r,
        box_s: box_actual,
        client_busy_share,
        commit_hist_p50_us: commit_hist_p50_us(
            metrics.get("body").and_then(Value::as_str).unwrap_or(""),
        ),
        accepted_total,
        notes,
        consistent,
        recorder,
    })
}

fn latencies_ms(samples: &[Sample], traced: bool) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.traced == traced)
        .map(|s| s.latency_s * 1_000.0)
        .collect()
}

/// Run the workload. A `--reps N` budget is read as an N-second box.
pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let box_s = match cfg.budget {
        Budget::Seconds(s) => s,
        Budget::Reps(n) => n as f64,
    };
    let s = session(cfg.seed, cfg.smoke, box_s, cfg.trace)?;
    if s.w.is_empty() || s.r.is_empty() {
        return Err(format!("no request completed: {:?}", s.notes));
    }

    let accepted = |samples: &[Sample]| {
        samples
            .iter()
            .filter(|x| x.ok && x.kind.is_some_and(OpKind::accepted))
            .count() as f64
    };
    let slice_s = s.box_s / SLICES as f64;
    let slice_rates: Vec<f64> = (0..SLICES)
        .map(|i| {
            let (lo, hi) = (i as f64 * slice_s, (i + 1) as f64 * slice_s);
            let inside: Vec<Sample> =
                s.w.iter()
                    .filter(|x| x.at_s >= lo && x.at_s < hi)
                    .copied()
                    .collect();
            accepted(&inside) / slice_s
        })
        .collect();
    let work = Summary::of(&slice_rates).reporting(accepted(&s.w) / s.box_s);

    let admit_all: Vec<f64> = s.w.iter().map(|x| x.latency_s * 1_000.0).collect();
    let read_all: Vec<f64> = s.r.iter().map(|x| x.latency_s * 1_000.0).collect();
    let (admit_pct, admit_tail) = stats::tail(&admit_all);
    let (read_pct, read_tail) = stats::tail(&read_all);
    let failed = s.w.iter().chain(&s.r).filter(|x| !x.ok).count() as u64;
    let rejected =
        s.w.iter()
            .filter(|x| x.kind == Some(OpKind::Reject))
            .count();

    let mut notes = s.notes;
    notes.push(format!(
        "{} requests on W ({} refused as they must be), {} verified reads on R, {} accepted mutations in all",
        s.w.len(),
        rejected,
        s.r.len(),
        s.accepted_total
    ));
    Ok(Outcome {
        correct: s.consistent && failed == 0,
        attempted: (s.w.len() + s.r.len()) as u64,
        failed,
        reps: s.w.len(),
        work_per_s: work,
        op_ms: Summary::of(&admit_all),
        // Everything the program does before the first measured request:
        // start, connect, and fill the live window.
        setup_s: Summary::of(&s.setup_s.iter().map(|t| t + s.fill_s).collect::<Vec<_>>()),
        extras: vec![
            Extra::new("daemon_start_and_connect_s", "s", Summary::of(&s.setup_s)),
            Extra::new(
                format!("admit_p{admit_pct}_ms"),
                "ms",
                Summary::of(&admit_all).reporting(admit_tail),
            ),
            Extra::new("read_p50_ms", "ms", Summary::of(&read_all)),
            Extra::new(
                format!("read_p{read_pct}_ms"),
                "ms",
                Summary::of(&read_all).reporting(read_tail),
            ),
            Extra::new(
                "bench.gen.client_busy_share",
                "share",
                Summary::single(s.client_busy_share),
            ),
            Extra::new(
                "serve.commit_hist_p50_us",
                "us",
                Summary::single(s.commit_hist_p50_us),
            ),
        ],
        notes,
        spans: s.recorder.spans().to_vec(),
        trace_overhead_share: super::overhead_share(
            &latencies_ms(&s.w, true),
            &latencies_ms(&s.w, false),
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_sequence_keeps_the_live_window_stationary() {
        let config = DeploymentConfig::from_json(&universe_document(32)).unwrap();
        let mut live = std::collections::BTreeSet::new();
        let mut seq = OpSequence::new(7, &config, 8);
        let mut kinds = std::collections::BTreeMap::new();
        for op in seq.by_ref().take(2_000) {
            *kinds.entry(format!("{:?}", op.kind)).or_insert(0u32) += 1;
            match (&op.request, op.kind) {
                (Request::SubmitPolicy(t), OpKind::Submit) => {
                    assert!(live.insert(t.name.clone()), "submit of a live tenant")
                }
                (Request::SubmitPolicy(t), OpKind::Resubmit) => assert!(live.contains(&t.name)),
                (Request::SubmitPolicy(t), OpKind::Reject) => assert_eq!(t.rank_max, u64::MAX),
                (Request::WithdrawTenant(name), OpKind::Withdraw) => {
                    assert!(live.remove(name), "withdraw of a dead tenant")
                }
                other => panic!("unexpected op {other:?}"),
            }
            assert!(live.len() <= 9);
            assert!(op.line.ends_with('\n') && op.line.matches('\n').count() == 1);
        }
        assert!(kinds["Submit"] > 32 * 2, "the walk laps the universe");
        assert_eq!(kinds.len(), 4, "{kinds:?}");
        let same: Vec<String> = OpSequence::new(7, &config, 8)
            .take(50)
            .map(|o| o.line)
            .collect();
        let again: Vec<String> = OpSequence::new(7, &config, 8)
            .take(50)
            .map(|o| o.line)
            .collect();
        let other: Vec<String> = OpSequence::new(8, &config, 8)
            .take(50)
            .map(|o| o.line)
            .collect();
        assert_eq!(same, again);
        assert_ne!(same, other);
    }

    #[test]
    fn commit_histogram_median_reads_the_exposition() {
        let text = "# TYPE x histogram\n\
            qvisor_serve_commit_latency_ns_bucket{le=\"1000\"} 1\n\
            qvisor_serve_commit_latency_ns_bucket{le=\"2000\"} 6\n\
            qvisor_serve_commit_latency_ns_bucket{le=\"4000\"} 9\n\
            qvisor_serve_commit_latency_ns_bucket{le=\"+Inf\"} 10\n";
        assert_eq!(commit_hist_p50_us(text), 2.0);
        assert_eq!(commit_hist_p50_us(""), 0.0);
    }
}
