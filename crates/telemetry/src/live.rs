//! The collectors: the registry and the handles it hands out. A handle from
//! a disabled [`Telemetry`] holds `None` and records nothing.

use crate::hist::LogHistogram;
use crate::journal::{Journal, JournalEvent};
use crate::profile::{ProfileStat, Profiler};
use crate::{DEFAULT_JOURNAL_CAPACITY, SCHEMA_VERSION};
use qvisor_sim::json::Value;
use qvisor_sim::Nanos;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

/// Metric identity: name plus sorted `(label, value)` pairs.
type MetricKey = (String, Vec<(String, String)>);

fn metric_key(name: &str, labels: &[(&str, &str)]) -> MetricKey {
    let mut labels: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    labels.sort();
    (name.to_string(), labels)
}

fn labels_json(labels: &[(String, String)]) -> Value {
    let mut obj = Value::object();
    for (k, v) in labels {
        obj = obj.set(k, v.as_str());
    }
    obj
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<MetricKey, Rc<Cell<u64>>>,
    gauges: BTreeMap<MetricKey, Rc<Cell<i64>>>,
    histograms: BTreeMap<MetricKey, Rc<RefCell<LogHistogram>>>,
    profiles: BTreeMap<String, Rc<RefCell<ProfileStat>>>,
    journal: Journal,
}

/// A monotonically increasing counter. Cloning shares the underlying cell.
#[derive(Clone, Default)]
pub struct Counter(Option<Rc<Cell<u64>>>);

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.set(c.get().wrapping_add(n));
        }
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.get())
    }
}

/// A last-value gauge. Cloning shares the underlying cell.
#[derive(Clone, Default)]
pub struct Gauge(Option<Rc<Cell<i64>>>);

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Gauge({})", self.get())
    }
}

impl Gauge {
    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(g) = &self.0 {
            g.set(v);
        }
    }

    /// Adjust the value by `delta`.
    #[inline]
    pub fn add(&self, delta: i64) {
        if let Some(g) = &self.0 {
            g.set(g.get().wrapping_add(delta));
        }
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> i64 {
        self.0.as_ref().map_or(0, |g| g.get())
    }
}

/// A log-bucketed histogram handle. Cloning shares the underlying histogram.
#[derive(Clone, Default)]
pub struct Histogram(Option<Rc<RefCell<LogHistogram>>>);

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Histogram(count={})", self.count())
    }
}

impl Histogram {
    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.borrow_mut().record(v);
        }
    }

    /// Number of recorded samples (0 when disabled).
    pub fn count(&self) -> u64 {
        self.0.as_ref().map_or(0, |h| h.borrow().count())
    }

    /// Nearest-rank quantile estimate (`None` when disabled or empty).
    pub fn quantile(&self, p: f64) -> Option<u64> {
        self.0.as_ref().and_then(|h| h.borrow().quantile(p))
    }
}

/// Entry point to the telemetry subsystem.
///
/// Cheaply cloneable; clones share one registry. The default value is
/// *disabled*: every handle it hands out is a no-op and exports are empty.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Rc<RefCell<Registry>>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(_) => write!(f, "Telemetry(enabled)"),
            None => write!(f, "Telemetry(disabled)"),
        }
    }
}

impl Telemetry {
    /// A collecting instance with the default journal capacity.
    pub fn enabled() -> Telemetry {
        Telemetry::with_journal_capacity(DEFAULT_JOURNAL_CAPACITY)
    }

    /// A collecting instance retaining at most `capacity` journal events.
    pub fn with_journal_capacity(capacity: usize) -> Telemetry {
        Telemetry {
            inner: Some(Rc::new(RefCell::new(Registry {
                journal: Journal::new(capacity),
                ..Registry::default()
            }))),
        }
    }

    /// A non-collecting instance (same as `Telemetry::default()`).
    pub fn disabled() -> Telemetry {
        Telemetry::default()
    }

    /// Whether this handle collects anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Register (or re-fetch) the counter `name` with the given labels.
    ///
    /// Re-registering with the same name and labels returns a handle to the
    /// same underlying cell, so independent components can share a metric.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        Counter(self.inner.as_ref().map(|reg| {
            Rc::clone(
                reg.borrow_mut()
                    .counters
                    .entry(metric_key(name, labels))
                    .or_default(),
            )
        }))
    }

    /// Register (or re-fetch) the gauge `name` with the given labels.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        Gauge(self.inner.as_ref().map(|reg| {
            Rc::clone(
                reg.borrow_mut()
                    .gauges
                    .entry(metric_key(name, labels))
                    .or_default(),
            )
        }))
    }

    /// Register (or re-fetch) the histogram `name` with the given labels.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        Histogram(self.inner.as_ref().map(|reg| {
            Rc::clone(
                reg.borrow_mut()
                    .histograms
                    .entry(metric_key(name, labels))
                    .or_default(),
            )
        }))
    }

    /// Register (or re-fetch) the wall-clock profiler for the site `name`.
    ///
    /// See [`crate::profile`]: the returned handle aggregates scoped timer
    /// measurements that surface in the `profile` section of exports.
    pub fn profiler(&self, name: &str) -> Profiler {
        Profiler(self.inner.as_ref().map(|reg| {
            Rc::clone(
                reg.borrow_mut()
                    .profiles
                    .entry(name.to_string())
                    .or_default(),
            )
        }))
    }

    /// Append a structured event to the journal at simulated time `t`.
    ///
    /// When the bounded journal evicts an older event to make room, the
    /// `telemetry_journal_dropped` counter is bumped so a truncated journal
    /// is visible in reports instead of silently looking complete.
    pub fn event(&self, t: Nanos, kind: &str, fields: &[(&str, Value)]) {
        if let Some(reg) = &self.inner {
            let mut reg = reg.borrow_mut();
            let dropped = reg.journal.push(JournalEvent {
                t,
                kind: kind.to_string(),
                fields: fields
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            });
            if dropped {
                let cell = reg
                    .counters
                    .entry(metric_key("telemetry_journal_dropped", &[]))
                    .or_default();
                cell.set(cell.get() + 1);
            }
        }
    }

    /// Serialise everything collected so far as JSON lines.
    ///
    /// The first line is a `meta` record carrying the schema version and the
    /// journal eviction count; then one line per counter, gauge, and
    /// histogram (in deterministic name/label order), one `profile` line per
    /// profiled site, then retained journal events in canonical
    /// `(time, serialised bytes)` order — a total order over event
    /// *content*, independent of the order same-instant events were
    /// recorded in. Returns an empty string when disabled.
    pub fn export_jsonl(&self) -> String {
        let Some(reg) = &self.inner else {
            return String::new();
        };
        let reg = reg.borrow();
        let mut out = String::new();
        let meta = Value::object()
            .set("type", "meta")
            .set("schema", SCHEMA_VERSION)
            .set("journal_evicted", reg.journal.evicted())
            .set("journal_capacity", reg.journal.capacity() as u64);
        out.push_str(&meta.to_compact());
        out.push('\n');
        for ((name, labels), cell) in &reg.counters {
            let line = Value::object()
                .set("type", "counter")
                .set("name", name.as_str())
                .set("labels", labels_json(labels))
                .set("value", cell.get());
            out.push_str(&line.to_compact());
            out.push('\n');
        }
        for ((name, labels), cell) in &reg.gauges {
            let line = Value::object()
                .set("type", "gauge")
                .set("name", name.as_str())
                .set("labels", labels_json(labels))
                .set("value", cell.get());
            out.push_str(&line.to_compact());
            out.push('\n');
        }
        for ((name, labels), hist) in &reg.histograms {
            let h = hist.borrow();
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
                .set("name", name.as_str())
                .set("labels", labels_json(labels))
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
        for (name, stat) in &reg.profiles {
            let s = stat.borrow();
            let line = Value::object()
                .set("type", "profile")
                .set("name", name.as_str())
                .set("count", s.count)
                .set("total_ns", s.total_ns())
                .set("min_ns", s.min_ns)
                .set("max_ns", s.max_ns)
                .set("mean_ns", s.mean_ns());
            out.push_str(&line.to_compact());
            out.push('\n');
        }
        let mut events: Vec<(Nanos, String)> = reg
            .journal
            .events()
            .map(|e| (e.t, e.to_json().to_compact()))
            .collect();
        events.sort();
        for (_, line) in events {
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// Human-readable multi-line summary of everything collected so far.
    pub fn summary(&self) -> String {
        match &self.inner {
            Some(_) => crate::report::render(&self.export_jsonl())
                .unwrap_or_else(|e| format!("telemetry summary unavailable: {e}")),
            None => "telemetry disabled".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handles_are_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        let c = t.counter("pkts", &[]);
        c.inc();
        assert_eq!(c.get(), 0);
        let g = t.gauge("depth", &[]);
        g.set(5);
        assert_eq!(g.get(), 0);
        let h = t.histogram("lat", &[]);
        h.record(9);
        assert_eq!(h.count(), 0);
        t.event(Nanos(1), "tick", &[]);
        assert_eq!(t.export_jsonl(), "");
    }

    #[test]
    fn reregistering_shares_the_cell() {
        let t = Telemetry::enabled();
        let a = t.counter("pkts", &[("tenant", "0")]);
        let b = t.counter("pkts", &[("tenant", "0")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        // Label order must not matter.
        let c = t.counter("x", &[("a", "1"), ("b", "2")]);
        let d = t.counter("x", &[("b", "2"), ("a", "1")]);
        c.inc();
        assert_eq!(d.get(), 1);
    }

    #[test]
    fn clones_share_one_registry() {
        let t = Telemetry::enabled();
        let t2 = t.clone();
        t.counter("pkts", &[]).inc();
        assert_eq!(t2.counter("pkts", &[]).get(), 1);
    }

    #[test]
    fn export_is_deterministic_jsonl() {
        let t = Telemetry::enabled();
        t.counter("drops", &[("queue", "q1")]).add(2);
        t.gauge("depth", &[]).set(-3);
        t.histogram("lat", &[]).record(100);
        t.event(Nanos(7), "recompile", &[("version", Value::from(2u64))]);
        let out = t.export_jsonl();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].starts_with(r#"{"type":"meta","schema":1"#));
        assert_eq!(
            lines[1],
            r#"{"type":"counter","name":"drops","labels":{"queue":"q1"},"value":2}"#
        );
        assert_eq!(
            lines[2],
            r#"{"type":"gauge","name":"depth","labels":{},"value":-3}"#
        );
        assert!(lines[3].starts_with(r#"{"type":"histogram","name":"lat""#));
        assert!(lines[4].starts_with(r#"{"type":"event","t_ns":7,"kind":"recompile""#));
        // Every line must be valid JSON.
        for line in lines {
            qvisor_sim::json::Value::parse(line).expect("valid JSON line");
        }
        // Exporting twice yields byte-identical output.
        assert_eq!(out, t.export_jsonl());
    }

    #[test]
    fn journal_eviction_bumps_dropped_counter() {
        let t = Telemetry::with_journal_capacity(2);
        for i in 0..5u64 {
            t.event(Nanos(i), "tick", &[]);
        }
        assert_eq!(t.counter("telemetry_journal_dropped", &[]).get(), 3);
        let out = t.export_jsonl();
        assert!(
            out.contains(
                r#"{"type":"counter","name":"telemetry_journal_dropped","labels":{},"value":3}"#
            ),
            "{out}"
        );
        // Within capacity, the counter never materialises.
        let roomy = Telemetry::enabled();
        roomy.event(Nanos(1), "tick", &[]);
        assert!(!roomy.export_jsonl().contains("telemetry_journal_dropped"));
    }

    #[test]
    fn histogram_quantiles_via_handle() {
        let t = Telemetry::enabled();
        let h = t.histogram("lat", &[]);
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5).unwrap();
        assert!((480..=520).contains(&p50), "p50 was {p50}");
    }
}
