//! Shared request/admission statistics: one registry behind both the
//! extended `status` response and the `metrics` Prometheus exposition.
//!
//! Session threads record per-op request counts; the control thread
//! records admission outcomes (accepts, plus rejects bucketed by QV-*
//! diagnostic code) and commit latency. The commit-latency histogram is
//! the one wall-clock measurement in the daemon's metrics — it times
//! real synthesis/verification work on the control thread and is only
//! ever exported through `status`/`metrics`, never fed back into any
//! deterministic state.

use std::collections::BTreeMap;
use std::sync::Mutex;

use qvisor_sim::json::Value;
use qvisor_telemetry::LogHistogram;

/// Rejections carrying no QV-* diagnostic (structural admission
/// failures: unknown tenant, bad id, empty rank range, ...) are
/// bucketed under this pseudo-code.
pub(crate) const STRUCTURAL_CODE: &str = "QV-STRUCTURAL";

/// Thread-shared daemon statistics. Cheap uncontended mutex: every
/// recording is a handful of map bumps, far from the request hot path's
/// synthesis work.
#[derive(Debug, Default)]
pub struct ServeStats {
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    requests: BTreeMap<String, u64>,
    accepted: u64,
    rejected: u64,
    rejected_by_code: BTreeMap<String, u64>,
    commit_latency_ns: LogHistogram,
}

impl ServeStats {
    /// Count one request of operation `op` (`"invalid"` for lines that
    /// fail to parse).
    pub fn record_op(&self, op: &str) {
        let mut inner = self.inner.lock().expect("stats poisoned");
        *inner.requests.entry(op.to_string()).or_insert(0) += 1;
    }

    /// Classify one `submit-policy` response: accepts bump the accept
    /// counter; rejects bump one counter per distinct QV-* code in the
    /// attached diagnostics (or `QV-STRUCTURAL` when there are none).
    pub fn record_admission(&self, response: &Value) {
        let result = response.get("result").and_then(Value::as_str);
        let mut inner = self.inner.lock().expect("stats poisoned");
        match result {
            Some("accepted") => inner.accepted += 1,
            Some("rejected") => {
                inner.rejected += 1;
                let mut codes: Vec<String> = response
                    .get("diagnostics")
                    .and_then(Value::as_array)
                    .map(|diags| {
                        diags
                            .iter()
                            .filter_map(|d| d.get("code").and_then(Value::as_str))
                            .map(str::to_string)
                            .collect()
                    })
                    .unwrap_or_default();
                codes.sort();
                codes.dedup();
                if codes.is_empty() {
                    codes.push(STRUCTURAL_CODE.to_string());
                }
                for code in codes {
                    *inner.rejected_by_code.entry(code).or_insert(0) += 1;
                }
            }
            _ => {}
        }
    }

    /// Record one committed mutation's wall-clock latency.
    pub fn record_commit_latency_ns(&self, ns: u64) {
        let mut inner = self.inner.lock().expect("stats poisoned");
        inner.commit_latency_ns.record(ns);
    }

    /// Graft the request/admission sections onto a `status` response.
    pub fn status_fields(&self, status: Value) -> Value {
        let inner = self.inner.lock().expect("stats poisoned");
        let mut requests = Value::object();
        for (op, count) in &inner.requests {
            requests = requests.set(op.as_str(), *count);
        }
        let mut by_code = Value::object();
        for (code, count) in &inner.rejected_by_code {
            by_code = by_code.set(code.as_str(), *count);
        }
        status.set("requests", requests).set(
            "admission",
            Value::object()
                .set("accepted", inner.accepted)
                .set("rejected", inner.rejected)
                .set("rejected_by_code", by_code),
        )
    }

    /// Serialize as telemetry-schema JSONL (counters plus the latency
    /// histogram), ready for [`qvisor_telemetry::prometheus::render`].
    pub fn export_jsonl(&self) -> String {
        let inner = self.inner.lock().expect("stats poisoned");
        let mut out = String::new();
        let mut counter = |name: &str, labels: Value, value: u64| {
            let line = Value::object()
                .set("type", "counter")
                .set("name", name)
                .set("labels", labels)
                .set("value", value);
            out.push_str(&line.to_compact());
            out.push('\n');
        };
        for (op, count) in &inner.requests {
            counter(
                "serve_requests",
                Value::object().set("op", op.as_str()),
                *count,
            );
        }
        counter("serve_admission_accepted", Value::object(), inner.accepted);
        for (code, count) in &inner.rejected_by_code {
            counter(
                "serve_admission_rejected",
                Value::object().set("code", code.as_str()),
                *count,
            );
        }
        let h = &inner.commit_latency_ns;
        if h.count() > 0 {
            let buckets: Vec<Value> = h
                .buckets()
                .iter()
                .map(|b| {
                    Value::from(vec![
                        Value::from(b.lo),
                        Value::from(b.hi),
                        Value::from(b.count),
                    ])
                })
                .collect();
            let line = Value::object()
                .set("type", "histogram")
                .set("name", "serve_commit_latency_ns")
                .set("labels", Value::object())
                .set("count", h.count())
                .set("min", h.min())
                .set("max", h.max())
                .set("mean", h.mean())
                .set("p50", h.quantile(0.50))
                .set("p90", h.quantile(0.90))
                .set("p99", h.quantile(0.99))
                .set("buckets", Value::from(buckets));
            out.push_str(&line.to_compact());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_and_admissions_accumulate() {
        let stats = ServeStats::default();
        stats.record_op("status");
        stats.record_op("status");
        stats.record_op("submit-policy");
        stats.record_admission(&Value::parse(r#"{"ok":true,"result":"accepted"}"#).unwrap());
        stats.record_admission(
            &Value::parse(
                r#"{"ok":false,"result":"rejected","diagnostics":[{"code":"QV-OVERFLOW"},{"code":"QV-OVERFLOW"},{"code":"QV-ISOLATION"}]}"#,
            )
            .unwrap(),
        );
        stats.record_admission(&Value::parse(r#"{"ok":false,"result":"rejected"}"#).unwrap());
        let status = stats.status_fields(Value::object().set("ok", true));
        let s = status.to_compact();
        assert!(s.contains(r#""status":2"#), "{s}");
        assert!(s.contains(r#""accepted":1"#), "{s}");
        assert!(s.contains(r#""QV-OVERFLOW":1"#), "{s}");
        assert!(s.contains(r#""QV-ISOLATION":1"#), "{s}");
        assert!(s.contains(&format!(r#""{STRUCTURAL_CODE}":1"#)), "{s}");
        assert!(s.contains(r#""rejected":2"#), "{s}");
    }

    #[test]
    fn export_renders_as_prometheus_text() {
        let stats = ServeStats::default();
        stats.record_op("metrics");
        stats.record_admission(&Value::parse(r#"{"ok":true,"result":"accepted"}"#).unwrap());
        stats.record_commit_latency_ns(1_500);
        stats.record_commit_latency_ns(90_000);
        let body = qvisor_telemetry::prometheus::render(&stats.export_jsonl()).unwrap();
        assert!(
            body.contains(r#"qvisor_serve_requests{op="metrics"} 1"#),
            "{body}"
        );
        assert!(body.contains("qvisor_serve_admission_accepted 1"), "{body}");
        assert!(
            body.contains("qvisor_serve_commit_latency_ns_count 2"),
            "{body}"
        );
    }

    #[test]
    fn latency_histogram_is_omitted_until_a_commit() {
        let stats = ServeStats::default();
        assert!(!stats.export_jsonl().contains("serve_commit_latency_ns"));
    }
}
