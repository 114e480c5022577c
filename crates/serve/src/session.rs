//! One connection's protocol as a value: framing, parsing, per-op counts
//! and the snapshot reads, with no socket, no thread and no clock.
//!
//! Framing is a `read_line` loop's: a line ends at `\n` or at the end of
//! input, a blank line gets no reply and is not counted, and a line that
//! is not UTF-8 closes the connection. Outputs are produced as they are
//! taken, so line N+1 is neither parsed nor counted before reply N is out.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;

use qvisor_sim::json::Value;

use crate::daemon::Shared;
use crate::protocol::{error_response, Request};
use crate::registry::{ChainEntry, ChainSnapshot};

/// What a session asks of the connection, in order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Output {
    /// Write this line, then a newline.
    Reply(String),
    /// Ask the control thread and pass its answer to [`Session::resume`];
    /// the session produces nothing until then.
    Control(Request),
    /// Subscribe to the telemetry bus, write this acknowledgement line,
    /// and forward the stream: the session is over.
    Subscribe(String),
    /// Close the connection.
    Close,
}

/// One connection's protocol state: the daemon's session thread hands
/// [`Session::feed`] each read and carries out every [`Output`] in order.
pub struct Session<'a> {
    /// The snapshot, the counts, and the stop flag read once per line.
    shared: &'a Shared,
    /// Bytes received and not yet taken as a line.
    buf: Vec<u8>,
    /// The input has ended; the rest of `buf` is the last line.
    eof: bool,
    /// Outputs decided but not yet taken.
    ready: VecDeque<Output>,
    /// A control request is in flight (`Some(true)` for `shutdown`).
    awaiting: Option<bool>,
    closed: bool,
}

/// The outputs of one [`Session::feed`] or [`Session::resume`].
pub struct Outputs<'s, 'a>(&'s mut Session<'a>);

impl Iterator for Outputs<'_, '_> {
    type Item = Output;

    fn next(&mut self) -> Option<Output> {
        self.0.step()
    }
}

impl<'a> Session<'a> {
    pub(crate) fn new(shared: &'a Shared) -> Session<'a> {
        Session {
            shared,
            buf: Vec::new(),
            eof: false,
            ready: VecDeque::new(),
            awaiting: None,
            closed: false,
        }
    }

    /// Take the bytes of one read; an empty slice is the end of input.
    pub fn feed(&mut self, bytes: &[u8]) -> Outputs<'_, 'a> {
        self.eof |= bytes.is_empty();
        self.buf.extend_from_slice(bytes);
        Outputs(self)
    }

    /// Take the control thread's answer to the last [`Output::Control`].
    pub fn resume(&mut self, reply: Value) -> Outputs<'_, 'a> {
        let shutdown = self
            .awaiting
            .take()
            .expect("no control request is in flight");
        self.ready.push_back(Output::Reply(reply.to_compact()));
        if shutdown {
            self.closed = true;
            self.ready.push_back(Output::Close);
        }
        Outputs(self)
    }

    fn step(&mut self) -> Option<Output> {
        if let Some(output) = self.ready.pop_front() {
            return Some(output);
        }
        if self.closed || self.awaiting.is_some() {
            return None;
        }
        loop {
            let line: Vec<u8> = match self.buf.iter().position(|&b| b == b'\n') {
                Some(end) => self.buf.drain(..=end).collect(),
                None if !self.eof => return None,
                None if !self.buf.is_empty() => std::mem::take(&mut self.buf),
                None => return self.close(),
            };
            let Ok(line) = std::str::from_utf8(&line) else {
                return self.close();
            };
            if self.shared.stop.load(Ordering::SeqCst) {
                return self.close();
            }
            if !line.trim().is_empty() {
                return Some(self.answer(line.trim()));
            }
        }
    }

    fn close(&mut self) -> Option<Output> {
        self.closed = true;
        Some(Output::Close)
    }

    fn answer(&mut self, line: &str) -> Output {
        let request = match Request::parse(line) {
            Ok(request) => request,
            Err(e) => {
                self.shared.stats.record_op("invalid");
                return Output::Reply(error_response(&e).to_compact());
            }
        };
        self.shared.stats.record_op(request.op_name());
        // Reads are answered from the published snapshot, never queued
        // behind a resynthesis.
        let reply = match request {
            Request::GetChain(tenant) => get_chain(&self.shared.cell.load(), tenant.as_deref()),
            Request::Snapshot => Value::object()
                .set("ok", true)
                .set("result", "snapshot")
                .set("snapshot", self.shared.cell.load().to_value()),
            Request::SubscribeTelemetry => {
                self.closed = true;
                let ack = Value::object().set("ok", true).set("result", "subscribed");
                return Output::Subscribe(ack.to_compact());
            }
            request => {
                self.awaiting = Some(request == Request::Shutdown);
                return Output::Control(request);
            }
        };
        Output::Reply(reply.to_compact())
    }
}

fn get_chain(snap: &ChainSnapshot, tenant: Option<&str>) -> Value {
    let base = Value::object()
        .set("ok", true)
        .set("result", "chain")
        .set("version", snap.version)
        .set("fingerprint", snap.fingerprint.as_str());
    match tenant {
        None => {
            let chains: Vec<Value> = snap.chains.iter().map(ChainEntry::to_value).collect();
            base.set("chains", Value::from(chains))
        }
        Some(name) => match snap.chains.iter().find(|c| c.name == name) {
            None => error_response(&format!("tenant '{name}' has no published chain")),
            Some(chain) => base.set("chain", chain.to_value()),
        },
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::sync::Arc;

    use qvisor_core::config_api::DeploymentConfig;

    use super::*;
    use crate::control::ControlPlane;
    use crate::daemon::{answer, Shared};

    const SUBMIT_GOLD: &str = r#"{"op":"submit-policy","tenant":{"id":1,"name":"gold","algorithm":"pFabric","rank_min":0,"rank_max":999,"levels":16}}"#;
    const SUBMIT_SILVER: &str = r#"{"op":"submit-policy","tenant":{"id":2,"name":"silver","algorithm":"EDF","rank_min":0,"rank_max":499}}"#;

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

    fn state() -> (Shared, ControlPlane) {
        let shared = Shared::default();
        let plane = ControlPlane::new(&universe(), false, Arc::clone(&shared.cell)).unwrap();
        (shared, plane)
    }

    /// Feed `chunks`, then the end of input, to one session as the daemon's
    /// loop does, answering each control request with [`answer`] on
    /// `plane`: every output, in order.
    pub(crate) fn transcript(
        shared: &Shared,
        plane: &mut ControlPlane,
        chunks: &[&[u8]],
    ) -> Vec<Output> {
        let mut session = Session::new(shared);
        let mut outputs = Vec::new();
        for chunk in chunks.iter().copied().chain([&b""[..]]) {
            let mut batch: Vec<Output> = session.feed(chunk).collect();
            while let Some(Output::Control(request)) = batch.last().cloned() {
                outputs.append(&mut batch);
                batch = session.resume(answer(plane, shared, request)).collect();
            }
            outputs.append(&mut batch);
        }
        outputs
    }

    /// [`transcript`] on a fresh daemon state.
    fn fresh(chunks: &[&[u8]]) -> Vec<Output> {
        let (shared, mut plane) = state();
        transcript(&shared, &mut plane, chunks)
    }

    fn replies(outputs: &[Output]) -> Vec<Value> {
        (outputs.iter())
            .filter_map(|output| match output {
                Output::Reply(line) => Some(Value::parse(line).unwrap()),
                _ => None,
            })
            .collect()
    }

    fn field<'v>(v: &'v Value, path: &[&str]) -> &'v Value {
        path.iter().fold(v, |v, key| {
            v.get(key).unwrap_or_else(|| panic!("no '{key}' in {v:?}"))
        })
    }

    /// The per-op request counts `status` reports, without counting itself.
    fn counted(shared: &Shared, plane: &mut ControlPlane) -> String {
        field(&answer(plane, shared, Request::Status), &["requests"]).to_compact()
    }

    #[test]
    fn a_session_round_trips_the_protocol() {
        let script = [
            r#"{"op":"status"}"#,
            SUBMIT_GOLD,
            r#"{"op":"get-chain","tenant":"gold"}"#,
            r#"{"op":"nonsense"}"#,
            r#"{"op":"snapshot"}"#,
            r#"{"op":"shutdown"}"#,
        ]
        .join("\n");
        let outputs = fresh(&[script.as_bytes()]);
        let forwarded: Vec<&str> = (outputs.iter())
            .filter_map(|output| match output {
                Output::Control(request) => Some(request.op_name()),
                _ => None,
            })
            .collect();
        assert_eq!(forwarded, ["status", "submit-policy", "shutdown"]);
        assert_eq!(outputs.last(), Some(&Output::Close));

        let r = replies(&outputs);
        let version = |v: &Value| field(v, &["version"]).as_u64();
        let ok = |v: &Value| field(v, &["ok"]).as_bool();
        assert_eq!(version(&r[0]), Some(1));
        assert_eq!((ok(&r[1]), version(&r[1])), (Some(true), Some(2)));
        assert_eq!((ok(&r[2]), version(&r[2])), (Some(true), Some(2)));
        // The session survives protocol errors.
        assert_eq!(ok(&r[3]), Some(false));
        let canonical = field(&r[4], &["snapshot"]).to_compact();
        assert_eq!(ChainSnapshot::verify_canonical(&canonical).unwrap().0, 2);
        assert_eq!(field(&r[5], &["result"]).as_str(), Some("shutdown"));
    }

    #[test]
    fn metrics_and_status_reflect_a_scripted_session() {
        // One accept, one structural reject, one gate reject.
        let script = [
            SUBMIT_GOLD,
            r#"{"op":"submit-policy","tenant":{"id":9,"name":"ghost","algorithm":"x","rank_min":0,"rank_max":9}}"#,
            r#"{"op":"submit-policy","tenant":{"id":2,"name":"silver","algorithm":"EDF","rank_min":0,"rank_max":18446744073709551615,"levels":18446744073709551615}}"#,
            "not json at all",
            r#"{"op":"status"}"#,
            r#"{"op":"metrics"}"#,
        ]
        .join("\n");
        let r = replies(&fresh(&[script.as_bytes()]));
        let oks: Vec<_> = r.iter().map(|v| field(v, &["ok"]).as_bool()).collect();
        assert_eq!(
            oks[..4],
            [Some(true), Some(false), Some(false), Some(false)]
        );

        let status = &r[4];
        let count = |path: &[&str]| field(status, path).as_u64();
        assert_eq!(count(&["requests", "submit-policy"]), Some(3));
        assert_eq!(count(&["requests", "invalid"]), Some(1));
        assert_eq!(count(&["admission", "accepted"]), Some(1));
        assert_eq!(count(&["admission", "rejected"]), Some(2));
        let structural = crate::stats::STRUCTURAL_CODE;
        assert_eq!(
            count(&["admission", "rejected_by_code", structural]),
            Some(1)
        );
        assert_eq!(count(&["bus_lines_dropped"]), Some(0));
        assert_eq!(count(&["telemetry_subscribers"]), Some(0));

        let metrics = &r[5];
        assert_eq!(
            field(metrics, &["content_type"]).as_str(),
            Some("text/plain; version=0.0.4")
        );
        let body = field(metrics, &["body"]).as_str().unwrap();
        for line in [
            r#"qvisor_serve_requests{op="submit-policy"} 3"#,
            "qvisor_serve_admission_accepted 1",
            "qvisor_serve_commit_latency_ns_count 1",
        ] {
            assert!(body.contains(line), "{line} missing from {body}");
        }
    }

    #[test]
    fn get_chain_replies_are_the_snapshot_chains_byte_for_byte() {
        let script = [
            SUBMIT_GOLD,
            SUBMIT_SILVER,
            r#"{"op":"snapshot"}"#,
            r#"{"op":"get-chain"}"#,
            r#"{"op":"get-chain","tenant":"gold"}"#,
            r#"{"op":"get-chain","tenant":"silver"}"#,
        ]
        .join("\n");
        let lines: Vec<String> = (fresh(&[script.as_bytes()]).into_iter())
            .filter_map(|output| match output {
                Output::Reply(line) => Some(line),
                _ => None,
            })
            .collect();
        let snapshot = Value::parse(&lines[2]).unwrap();
        let chains = field(&snapshot, &["snapshot", "chains"]);
        let entries = chains.as_array().unwrap();
        assert_eq!(entries.len(), 2);
        assert!(
            lines[3].ends_with(&format!(r#","chains":{}}}"#, chains.to_compact())),
            "{}",
            lines[3]
        );
        for (line, entry) in lines[4..].iter().zip(entries) {
            let tail = format!(r#","chain":{}}}"#, entry.to_compact());
            assert!(line.ends_with(&tail), "{line} does not end with {tail}");
        }
    }

    #[test]
    fn a_last_line_without_a_newline_is_answered_at_end_of_input() {
        let (shared, _plane) = state();
        let mut session = Session::new(&shared);
        assert_eq!(session.feed(br#"{"op":"get-chain"}"#).count(), 0);
        let outputs: Vec<Output> = session.feed(b"").collect();
        assert!(
            matches!(&outputs[..], [Output::Reply(line), Output::Close] if line.contains(r#""result":"chain""#)),
            "{outputs:?}"
        );
    }

    #[test]
    fn blank_lines_get_no_reply_and_are_not_counted() {
        let (shared, mut plane) = state();
        let outputs = transcript(&shared, &mut plane, &[b"\n  \n\t\r\n \n"]);
        assert_eq!(outputs, [Output::Close]);
        assert_eq!(counted(&shared, &mut plane), "{}");
    }

    #[test]
    fn a_deeply_nested_line_is_refused_and_the_session_goes_on() {
        let deep = "[".repeat(10_000) + &"]".repeat(10_000) + "\n";
        let misspelt = r#"{"op":"submit-policy","tenant":{"id":1,"name":"gold","algorithm":"pFabric","rank_min":0,"rank_max":999,"levles":16}}"#;
        let script = format!("{deep}{misspelt}\n{{\"op\":\"status\"}}\n");
        let r = replies(&fresh(&[script.as_bytes()]));
        assert_eq!(r.len(), 3, "{r:?}");
        for refused in &r[..2] {
            assert_eq!(
                field(refused, &["ok"]).as_bool(),
                Some(false),
                "{refused:?}"
            );
        }
        let error = |v: &Value| field(v, &["error"]).as_str().unwrap().to_string();
        assert!(
            error(&r[0]).contains("nesting deeper than 128"),
            "{:?}",
            r[0]
        );
        assert!(
            error(&r[1]).contains("`tenant.levles`: unknown field"),
            "{:?}",
            r[1]
        );
        assert_eq!(field(&r[2], &["result"]).as_str(), Some("status"));
        assert_eq!(field(&r[2], &["version"]).as_u64(), Some(1));
    }

    #[test]
    fn a_line_that_is_not_utf8_closes_with_no_reply() {
        let (shared, mut plane) = state();
        let outputs = transcript(
            &shared,
            &mut plane,
            &[b"{\"op\":\xff}\n{\"op\":\"get-chain\"}\n"],
        );
        assert_eq!(outputs, [Output::Close]);
        assert_eq!(counted(&shared, &mut plane), "{}");
    }

    #[test]
    fn pipelined_lines_are_answered_and_counted_in_order() {
        let (shared, mut plane) = state();
        let outputs = transcript(
            &shared,
            &mut plane,
            &[b"{\"op\":\"status\"}\n{\"op\":\"status\"}\n"],
        );
        let statuses: Vec<_> = (replies(&outputs).iter())
            .map(|v| field(v, &["requests", "status"]).as_u64())
            .collect();
        assert_eq!(statuses, [Some(1), Some(2)]);

        // A line is parsed and counted only when its output is taken.
        let (shared, mut plane) = state();
        let mut session = Session::new(&shared);
        let mut outputs = session.feed(b"{\"op\":\"get-chain\"}\n{\"op\":\"get-chain\"}\n");
        assert!(matches!(outputs.next(), Some(Output::Reply(_))));
        assert_eq!(counted(&shared, &mut plane), r#"{"get-chain":1}"#);
        assert!(matches!(outputs.next(), Some(Output::Reply(_))));
        assert_eq!(outputs.next(), None);
        assert_eq!(counted(&shared, &mut plane), r#"{"get-chain":2}"#);
    }

    #[test]
    fn bytes_after_subscribe_are_ignored() {
        let (shared, mut plane) = state();
        let subscribe = b"{\"op\":\"subscribe-telemetry\"}\n{\"op\":\"status\"}\n";
        let outputs = transcript(
            &shared,
            &mut plane,
            &[subscribe, b"{\"op\":\"get-chain\"}\n"],
        );
        assert_eq!(
            outputs,
            [Output::Subscribe(
                r#"{"ok":true,"result":"subscribed"}"#.to_string()
            )]
        );
        assert_eq!(counted(&shared, &mut plane), r#"{"subscribe-telemetry":1}"#);
    }

    #[test]
    fn shutdown_replies_then_closes_and_stops_every_session() {
        let (shared, mut plane) = state();
        let mut idle = Session::new(&shared);
        let outputs = transcript(
            &shared,
            &mut plane,
            &[b"{\"op\":\"shutdown\"}\n{\"op\":\"status\"}\n"],
        );
        assert!(
            matches!(&outputs[..], [Output::Control(Request::Shutdown), Output::Reply(ack), Output::Close] if ack.contains(r#""result":"shutdown""#)),
            "{outputs:?}"
        );
        // The stop flag is read once per line: another session answers
        // nothing more.
        let late: Vec<Output> = idle.feed(b"{\"op\":\"get-chain\"}\n").collect();
        assert_eq!(late, [Output::Close]);
        assert_eq!(counted(&shared, &mut plane), r#"{"shutdown":1}"#);
    }

    #[test]
    fn any_chunking_of_a_session_gives_the_same_outputs() {
        let script = [
            SUBMIT_GOLD,
            "",
            r#"{"op":"get-chain","tenant":"gold"}"#,
            "{oops",
            r#"{"op":"withdraw-tenant","tenant":"gold"}"#,
            r#"{"op":"status"}"#,
            r#"{"op":"get-log"}"#,
        ]
        .join("\n");
        let script = script.as_bytes();
        let whole = fresh(&[script]);
        assert_eq!(replies(&whole).len(), 6);
        let bytes: Vec<&[u8]> = script.chunks(1).collect();
        assert_eq!(fresh(&bytes), whole, "byte by byte");
        for at in 1..script.len() {
            let (head, tail) = script.split_at(at);
            assert_eq!(fresh(&[head, tail]), whole, "split at byte {at}");
        }
    }
}
