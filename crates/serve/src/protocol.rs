//! The daemon's wire protocol: line-delimited JSON over TCP.
//!
//! Every request is a single line holding one JSON object with an `"op"`
//! field; every response is a single line holding one JSON object with an
//! `"ok"` boolean. Malformed requests produce an error response and leave
//! the connection open. The full schema is documented in DESIGN.md
//! ("Control plane").

use qvisor_core::config_api::TenantConfig;
use qvisor_sim::json::{tagged, FieldError, Obj, Path, Value};

/// A parsed client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Submit (or re-submit) one tenant's policy declaration; runs the
    /// admission gate and, on acceptance, resynthesizes the joint policy.
    SubmitPolicy(TenantConfig),
    /// Withdraw a live tenant by name; its rank space is reclaimed.
    WithdrawTenant(String),
    /// Read the published chain for one tenant, or all chains.
    GetChain(Option<String>),
    /// Control-plane counters and the current version.
    Status,
    /// Daemon metrics in Prometheus text exposition format.
    Metrics,
    /// The full canonical snapshot (used for replay byte-comparison).
    Snapshot,
    /// The accepted-mutation log (used for sequential replay).
    GetLog,
    /// Turn this connection into a telemetry snapshot stream.
    SubscribeTelemetry,
    /// Stop the daemon cleanly.
    Shutdown,
}

/// How each `"op"` reads the rest of its request.
type ReadOp = fn(&Obj<'_, '_>) -> Result<Request, FieldError>;

/// Each `"op"`, the keys its request holds, and how it reads them.
const OPS: [(&str, (&[&str], ReadOp)); 9] = [
    (
        "submit-policy",
        (&["op", "tenant"], |o| {
            Ok(Request::SubmitPolicy(o.req("tenant")?))
        }),
    ),
    (
        "withdraw-tenant",
        (&["op", "tenant"], |o| {
            Ok(Request::WithdrawTenant(o.req("tenant")?))
        }),
    ),
    (
        "get-chain",
        (&["op", "tenant"], |o| {
            Ok(Request::GetChain(o.opt("tenant")?))
        }),
    ),
    ("status", (&["op"], |_| Ok(Request::Status))),
    ("metrics", (&["op"], |_| Ok(Request::Metrics))),
    ("snapshot", (&["op"], |_| Ok(Request::Snapshot))),
    ("get-log", (&["op"], |_| Ok(Request::GetLog))),
    (
        "subscribe-telemetry",
        (&["op"], |_| Ok(Request::SubscribeTelemetry)),
    ),
    ("shutdown", (&["op"], |_| Ok(Request::Shutdown))),
];

impl Request {
    /// Parse one request line. Errors are client-facing strings.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = Value::parse(line).map_err(|e| format!("request is not JSON: {}", e.msg))?;
        let (o, read) =
            tagged(&v, Path::Root(""), "op", &OPS).map_err(|e| format!("request {e}"))?;
        read(&o).map_err(|e| format!("request {e}"))
    }

    /// Serialize back to a request line (used by tests and the harness).
    pub fn to_line(&self) -> String {
        let v = match self {
            Request::SubmitPolicy(t) => Value::object()
                .set("op", "submit-policy")
                .set("tenant", t.to_value()),
            Request::WithdrawTenant(name) => Value::object()
                .set("op", "withdraw-tenant")
                .set("tenant", name.as_str()),
            Request::GetChain(None) => Value::object().set("op", "get-chain"),
            Request::GetChain(Some(name)) => Value::object()
                .set("op", "get-chain")
                .set("tenant", name.as_str()),
            Request::Status => Value::object().set("op", "status"),
            Request::Metrics => Value::object().set("op", "metrics"),
            Request::Snapshot => Value::object().set("op", "snapshot"),
            Request::GetLog => Value::object().set("op", "get-log"),
            Request::SubscribeTelemetry => Value::object().set("op", "subscribe-telemetry"),
            Request::Shutdown => Value::object().set("op", "shutdown"),
        };
        v.to_compact()
    }

    /// The wire `op` string (the per-op request counter label).
    pub fn op_name(&self) -> &'static str {
        match self {
            Request::SubmitPolicy(_) => "submit-policy",
            Request::WithdrawTenant(_) => "withdraw-tenant",
            Request::GetChain(_) => "get-chain",
            Request::Status => "status",
            Request::Metrics => "metrics",
            Request::Snapshot => "snapshot",
            Request::GetLog => "get-log",
            Request::SubscribeTelemetry => "subscribe-telemetry",
            Request::Shutdown => "shutdown",
        }
    }
}

/// Build an `{"ok":false,"error":…}` response line value.
pub fn error_response(msg: &str) -> Value {
    Value::object().set("ok", false).set("error", msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_roundtrip() {
        let reqs = [
            Request::SubmitPolicy(TenantConfig {
                id: 3,
                name: "gold".into(),
                algorithm: "pFabric".into(),
                rank_min: 0,
                rank_max: 999,
                levels: Some(16),
            }),
            Request::WithdrawTenant("gold".into()),
            Request::GetChain(None),
            Request::GetChain(Some("gold".into())),
            Request::Status,
            Request::Metrics,
            Request::Snapshot,
            Request::GetLog,
            Request::SubscribeTelemetry,
            Request::Shutdown,
        ];
        for req in reqs {
            assert_eq!(Request::parse(&req.to_line()).unwrap(), req);
        }
    }

    #[test]
    fn levels_is_optional() {
        let req = Request::parse(
            r#"{"op":"submit-policy","tenant":{"id":1,"name":"a","algorithm":"x","rank_min":0,"rank_max":9}}"#,
        )
        .unwrap();
        match req {
            Request::SubmitPolicy(t) => assert_eq!(t.levels, None),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn malformed_requests_are_client_errors() {
        assert!(Request::parse("{oops").unwrap_err().contains("not JSON"));
        assert_eq!(
            Request::parse("{}").unwrap_err(),
            "request field `op`: missing required field"
        );
        assert!(Request::parse(r#"{"op":"fly"}"#)
            .unwrap_err()
            .contains("unknown value 'fly' (allowed: submit-policy, withdraw-tenant,"));
        assert!(Request::parse(r#"{"op":"submit-policy"}"#)
            .unwrap_err()
            .contains("tenant"));
        assert!(Request::parse(
            r#"{"op":"submit-policy","tenant":{"id":99999,"name":"a","algorithm":"x","rank_min":0,"rank_max":9}}"#
        )
        .unwrap_err()
        .contains("u16"));
        assert_eq!(
            Request::parse(
                r#"{"op":"submit-policy","tenant":{"id":1,"name":"a","algorithm":"x","rank_min":0,"rank_max":9,"levles":4}}"#
            )
            .unwrap_err(),
            "request field `tenant.levles`: unknown field \
             (allowed: id, name, algorithm, rank_min, rank_max, levels)"
        );
        assert_eq!(
            Request::parse(r#"{"op":"status","tenant":"gold"}"#).unwrap_err(),
            "request field `tenant`: unknown field (allowed: op)"
        );
        assert!(Request::parse(r#"{"op":"get-chain","tenant":7}"#)
            .unwrap_err()
            .contains("`tenant`: must be a string"));
        assert_eq!(
            Request::parse("[]").unwrap_err(),
            "request document: must be an object"
        );
    }
}
