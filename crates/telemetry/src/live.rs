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
use std::ops::Deref;
use std::rc::Rc;

/// Sorted `(label, value)` pairs.
type Labels = Vec<(String, String)>;

/// Metric identity: name plus sorted labels.
type MetricKey = (String, Labels);

fn sorted_labels(labels: &[(&str, &str)]) -> Labels {
    let mut labels: Labels = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    labels.sort();
    labels
}

fn metric_key(name: &str, labels: &[(&str, &str)]) -> MetricKey {
    (name.to_string(), sorted_labels(labels))
}

fn labels_json(labels: &[(String, String)]) -> Value {
    let mut obj = Value::object();
    for (k, v) in labels {
        obj = obj.set(k, v.as_str());
    }
    obj
}

/// One field of a queue's block, as a projection.
type Field<T> = fn(&QueueBlock) -> &T;

/// Where a handle's metric lives: an allocation of its own, or one field
/// of a queue's [`QueueMetrics`] block.
enum Slot<T> {
    Own(Rc<T>),
    Queue(Rc<QueueBlock>, Field<T>),
}

impl<T> Clone for Slot<T> {
    fn clone(&self) -> Slot<T> {
        match self {
            Slot::Own(cell) => Slot::Own(Rc::clone(cell)),
            Slot::Queue(block, field) => Slot::Queue(Rc::clone(block), *field),
        }
    }
}

impl<T> Deref for Slot<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        match self {
            Slot::Own(cell) => cell,
            Slot::Queue(block, field) => field(block),
        }
    }
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<MetricKey, Rc<Cell<u64>>>,
    gauges: BTreeMap<MetricKey, Rc<Cell<i64>>>,
    histograms: BTreeMap<MetricKey, Rc<RefCell<LogHistogram>>>,
    /// Scheduler queues' metric blocks by label set. A block stands for one
    /// key per field, `(field name, labels)`, beside the maps above.
    queues: BTreeMap<Labels, Rc<QueueBlock>>,
    profiles: BTreeMap<String, Rc<Cell<ProfileStat>>>,
    journal: Journal,
}

/// The handle for `name` under `labels`: a field of the queue block with
/// those labels when `name` is one of its `fields`, else the standalone
/// metric, registered on first use.
fn slot<T: Default>(
    own: &mut BTreeMap<MetricKey, Rc<T>>,
    fields: &[(&str, Field<T>)],
    queues: &BTreeMap<Labels, Rc<QueueBlock>>,
    name: &str,
    labels: &[(&str, &str)],
) -> Slot<T> {
    let key = metric_key(name, labels);
    if let Some(&(_, field)) = fields.iter().find(|(field_name, _)| *field_name == name) {
        if let Some(block) = queues.get(&key.1) {
            return Slot::Queue(Rc::clone(block), field);
        }
    }
    Slot::Own(Rc::clone(own.entry(key).or_default()))
}

/// Whether no standalone metric holds a key that a queue block with
/// `labels` stands for.
fn unclaimed<T, F>(own: &BTreeMap<MetricKey, T>, fields: &[(&str, F)], labels: &Labels) -> bool {
    (fields.iter()).all(|(name, _)| !own.contains_key(&(name.to_string(), labels.clone())))
}

/// Every metric of one type in key order — name, then labels — as
/// `(name, labels, state)`: the standalone ones merged with one per queue
/// block and field, so an export reads as if each field were registered
/// on its own.
fn in_key_order<'a, T>(
    own: &'a BTreeMap<MetricKey, Rc<T>>,
    fields: &'a [(&'a str, Field<T>)],
    queues: &'a BTreeMap<Labels, Rc<QueueBlock>>,
) -> impl Iterator<Item = (&'a str, &'a Labels, &'a T)> {
    let mut own = (own.iter())
        .map(|((name, labels), state)| (name.as_str(), labels, &**state))
        .peekable();
    let mut queued = (fields.iter())
        .flat_map(move |&(name, field)| {
            (queues.iter()).map(move |(labels, block)| (name, labels, field(block)))
        })
        .peekable();
    std::iter::from_fn(move || {
        let own_first = match (own.peek(), queued.peek()) {
            (Some(a), Some(b)) => (a.0, a.1) <= (b.0, b.1),
            (a, _) => a.is_some(),
        };
        if own_first {
            own.next()
        } else {
            queued.next()
        }
    })
}

/// A monotonically increasing counter. Cloning shares the underlying cell.
#[derive(Clone, Default)]
pub struct Counter(Option<Slot<Cell<u64>>>);

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
pub struct Gauge(Option<Slot<Cell<i64>>>);

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

    /// Current value (0 when disabled).
    pub fn get(&self) -> i64 {
        self.0.as_ref().map_or(0, |g| g.get())
    }
}

/// A log-bucketed histogram handle. Cloning shares the underlying histogram.
#[derive(Clone, Default)]
pub struct Histogram(Option<Slot<RefCell<LogHistogram>>>);

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

/// The instruments every hop through one scheduler queue updates, side by
/// side in one allocation.
#[derive(Default)]
struct QueueBlock {
    offered: Cell<u64>,
    admitted: Cell<u64>,
    dropped: Cell<u64>,
    dequeued: Cell<u64>,
    inversions: Cell<u64>,
    depth_pkts: Cell<i64>,
    depth_bytes: Cell<i64>,
    sojourn_ns: RefCell<LogHistogram>,
}

/// The block's fields by metric name: the keys it stands for in exports and
/// lookups. In name order, which [`in_key_order`]'s merge relies on.
const QUEUE_COUNTERS: [(&str, Field<Cell<u64>>); 5] = [
    ("sched_admitted_pkts", |b| &b.admitted),
    ("sched_dequeued_pkts", |b| &b.dequeued),
    ("sched_dropped_pkts", |b| &b.dropped),
    ("sched_offered_pkts", |b| &b.offered),
    ("sched_rank_inversions", |b| &b.inversions),
];
const QUEUE_GAUGES: [(&str, Field<Cell<i64>>); 2] = [
    ("sched_depth_bytes", |b| &b.depth_bytes),
    ("sched_depth_pkts", |b| &b.depth_pkts),
];
const QUEUE_HISTOGRAMS: [(&str, Field<RefCell<LogHistogram>>); 1] =
    [("sched_sojourn_ns", |b| &b.sojourn_ns)];

/// One scheduler queue's metrics, registered by [`Telemetry::queue_metrics`]
/// as one block: a hop follows one pointer to all of them. The registry
/// indexes the block by its labels, and each field stands for the key a
/// standalone metric of that name and labels would have: exports list it
/// there, and [`Telemetry::counter`] (`gauge`, `histogram`) reads it live.
/// Cloning shares the block; the default value is disabled.
///
/// | metric | type | updated by |
/// |---|---|---|
/// | `sched_offered_pkts` | counter | [`offer`](Self::offer) |
/// | `sched_admitted_pkts` | counter | [`admit`](Self::admit) |
/// | `sched_dropped_pkts` | counter | [`drop_pkts`](Self::drop_pkts) |
/// | `sched_dequeued_pkts` | counter | [`dequeue`](Self::dequeue) |
/// | `sched_rank_inversions` | counter | [`dequeue`](Self::dequeue) |
/// | `sched_depth_pkts` | gauge | [`set_depth`](Self::set_depth) |
/// | `sched_depth_bytes` | gauge | [`set_depth`](Self::set_depth) |
/// | `sched_sojourn_ns` | histogram | [`dequeue`](Self::dequeue) |
#[derive(Clone, Default)]
pub struct QueueMetrics(Option<Rc<QueueBlock>>);

impl std::fmt::Debug for QueueMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "QueueMetrics(dequeued={})", self.dequeued())
    }
}

fn bump(cell: &Cell<u64>, n: u64) {
    cell.set(cell.get().wrapping_add(n));
}

impl QueueMetrics {
    /// A packet was offered to the queue.
    #[inline]
    pub fn offer(&self) {
        if let Some(b) = &self.0 {
            bump(&b.offered, 1);
        }
    }

    /// The offered packet was admitted.
    #[inline]
    pub fn admit(&self) {
        if let Some(b) = &self.0 {
            bump(&b.admitted, 1);
        }
    }

    /// `n` packets were lost: a rejected arrival or evicted residents.
    #[inline]
    pub fn drop_pkts(&self, n: u64) {
        if let Some(b) = &self.0 {
            bump(&b.dropped, n);
        }
    }

    /// A packet left after waiting `wait_ns`; `inverted` when a resident
    /// of strictly lower rank stayed behind.
    #[inline]
    pub fn dequeue(&self, wait_ns: u64, inverted: bool) {
        if let Some(b) = &self.0 {
            bump(&b.dequeued, 1);
            bump(&b.inversions, u64::from(inverted));
            b.sojourn_ns.borrow_mut().record(wait_ns);
        }
    }

    /// The queue now holds `pkts` packets of `bytes` bytes in total.
    #[inline]
    pub fn set_depth(&self, pkts: i64, bytes: i64) {
        if let Some(b) = &self.0 {
            b.depth_pkts.set(pkts);
            b.depth_bytes.set(bytes);
        }
    }

    /// `sched_dequeued_pkts` so far (0 when disabled).
    pub fn dequeued(&self) -> u64 {
        self.0.as_ref().map_or(0, |b| b.dequeued.get())
    }

    /// `sched_dropped_pkts` so far (0 when disabled).
    pub fn dropped(&self) -> u64 {
        self.0.as_ref().map_or(0, |b| b.dropped.get())
    }

    /// `sched_rank_inversions` so far (0 when disabled).
    pub fn inversions(&self) -> u64 {
        self.0.as_ref().map_or(0, |b| b.inversions.get())
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
    fn with_journal_capacity(capacity: usize) -> Telemetry {
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
            let reg = &mut *reg.borrow_mut();
            slot(
                &mut reg.counters,
                &QUEUE_COUNTERS,
                &reg.queues,
                name,
                labels,
            )
        }))
    }

    /// Register (or re-fetch) the gauge `name` with the given labels.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        Gauge(self.inner.as_ref().map(|reg| {
            let reg = &mut *reg.borrow_mut();
            slot(&mut reg.gauges, &QUEUE_GAUGES, &reg.queues, name, labels)
        }))
    }

    /// Register (or re-fetch) the histogram `name` with the given labels.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        Histogram(self.inner.as_ref().map(|reg| {
            let reg = &mut *reg.borrow_mut();
            slot(
                &mut reg.histograms,
                &QUEUE_HISTOGRAMS,
                &reg.queues,
                name,
                labels,
            )
        }))
    }

    /// Register (or re-fetch) the metrics block of the scheduler queue
    /// with the given labels: [`QueueMetrics`]' eight metrics under those
    /// labels. Re-registering returns the same block. None of the eight
    /// may already be registered as a standalone metric.
    pub fn queue_metrics(&self, labels: &[(&str, &str)]) -> QueueMetrics {
        QueueMetrics(self.inner.as_ref().map(|reg| {
            let reg = &mut *reg.borrow_mut();
            let labels = sorted_labels(labels);
            debug_assert!(
                unclaimed(&reg.counters, &QUEUE_COUNTERS, &labels)
                    && unclaimed(&reg.gauges, &QUEUE_GAUGES, &labels)
                    && unclaimed(&reg.histograms, &QUEUE_HISTOGRAMS, &labels),
                "a queue metric was registered alone"
            );
            Rc::clone(reg.queues.entry(labels).or_default())
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

    /// Append a structured event to the journal at simulated time `t`. An
    /// eviction it causes bumps the `telemetry_journal_dropped` counter, so a
    /// truncated journal does not look complete.
    pub fn event(&self, t: Nanos, kind: &str, fields: &[(&str, Value)]) {
        let event = std::iter::once_with(|| JournalEvent::new(t, kind, fields));
        self.events_late(0, event);
    }

    /// Journal `events` late, among the last `among` events journalled, as
    /// [`Journal::push_late`] does; evictions count as [`Telemetry::event`]'s.
    pub fn events_late(&self, among: usize, events: impl IntoIterator<Item = JournalEvent>) {
        if let Some(reg) = &self.inner {
            let mut reg = reg.borrow_mut();
            let dropped = reg.journal.push_late(among, events);
            if dropped > 0 {
                let key = metric_key("telemetry_journal_dropped", &[]);
                let cell = reg.counters.entry(key).or_default();
                cell.set(cell.get() + dropped);
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
        for (name, labels, cell) in in_key_order(&reg.counters, &QUEUE_COUNTERS, &reg.queues) {
            let line = Value::object()
                .set("type", "counter")
                .set("name", name)
                .set("labels", labels_json(labels))
                .set("value", cell.get());
            out.push_str(&line.to_compact());
            out.push('\n');
        }
        for (name, labels, cell) in in_key_order(&reg.gauges, &QUEUE_GAUGES, &reg.queues) {
            let line = Value::object()
                .set("type", "gauge")
                .set("name", name)
                .set("labels", labels_json(labels))
                .set("value", cell.get());
            out.push_str(&line.to_compact());
            out.push('\n');
        }
        for (name, labels, hist) in in_key_order(&reg.histograms, &QUEUE_HISTOGRAMS, &reg.queues) {
            let line = hist.borrow().export_line(name, labels_json(labels));
            out.push_str(&line.to_compact());
            out.push('\n');
        }
        for (name, stat) in &reg.profiles {
            let s = stat.get();
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
    fn events_journalled_late_are_kept_as_if_journalled_live_in_time_order() {
        // A run's live events, and the events it journals when it ends;
        // same-instant pairs either side of each other, and late ones
        // before, between and after the live ones.
        let live = [
            (2, "reconfiguration"),
            (5, "reconfiguration"),
            (9, "refused"),
        ];
        let late = [1, 2, 5, 7, 12].map(|t| (t, "flow_complete"));
        let fields = |i: usize| [("i", Value::from(i as u64))];
        let event = |i, &(t, kind): &(u64, &str)| JournalEvent::new(Nanos(t), kind, &fields(i));
        let journal =
            |t: &Telemetry, i, &(at, kind): &(u64, &str)| t.event(Nanos(at), kind, &fields(i));
        // Time order; a live event first at a tie.
        let mut in_time: Vec<(usize, &(u64, &str))> =
            live.iter().chain(&late).enumerate().collect();
        in_time.sort_by_key(|(_, e)| e.0);
        for capacity in 0..=10 {
            // A registry that an earlier run already journalled into.
            for earlier in 0..3 {
                let (fed_live, fed_late) = (
                    Telemetry::with_journal_capacity(capacity),
                    Telemetry::with_journal_capacity(capacity),
                );
                for t in [&fed_live, &fed_late] {
                    for i in 0..earlier {
                        journal(t, 100 + i, &(50 + i as u64, "earlier"));
                    }
                }
                for &(i, e) in &in_time {
                    journal(&fed_live, i, e);
                }
                for (i, e) in live.iter().enumerate() {
                    journal(&fed_late, i, e);
                }
                let late_events = late.iter().enumerate();
                let late_events = late_events.map(|(i, e)| event(live.len() + i, e));
                fed_late.events_late(live.len(), late_events);
                assert_eq!(
                    fed_late.export_jsonl(),
                    fed_live.export_jsonl(),
                    "capacity {capacity}, {earlier} earlier events"
                );
                let dropped = fed_late.counter("telemetry_journal_dropped", &[]).get();
                assert_eq!(dropped, (earlier + 8).saturating_sub(capacity) as u64);
            }
        }
    }

    #[test]
    fn a_queue_block_exports_what_standalone_metrics_would() {
        let labels = [("queue", "q0"), ("kind", "fifo")];
        let (block, alone) = (Telemetry::enabled(), Telemetry::enabled());
        let m = block.queue_metrics(&labels);
        m.offer();
        m.offer();
        m.admit();
        m.drop_pkts(1);
        m.dequeue(500, true);
        m.set_depth(0, 0);
        // Re-registering, labels in any order, shares the block.
        block
            .queue_metrics(&[("kind", "fifo"), ("queue", "q0")])
            .dequeue(40, false);
        m.set_depth(3, 300);
        assert_eq!((m.dequeued(), m.dropped(), m.inversions()), (2, 1, 1));
        // Keys that sort between the block's interleave as they always did:
        // other names, and the same names under labels either side of it.
        for t in [&block, &alone] {
            t.counter("sched_other", &labels).add(7);
            t.counter("sched_offered_pkts", &[("queue", "a"), ("kind", "fifo")])
                .add(4);
            t.counter("sched_offered_pkts", &[("queue", "q1"), ("kind", "fifo")])
                .add(5);
            t.gauge("sched_depth_peak", &[]).set(9);
        }
        // A second, idle block exports its eight zeros.
        let idle = [("queue", "q00"), ("kind", "pifo")];
        block.queue_metrics(&idle);
        for (name, n) in [
            ("sched_offered_pkts", 2),
            ("sched_admitted_pkts", 1),
            ("sched_dropped_pkts", 1),
            ("sched_dequeued_pkts", 2),
            ("sched_rank_inversions", 1),
        ] {
            alone.counter(name, &labels).add(n);
            alone.counter(name, &idle);
            assert_eq!(block.counter(name, &labels).get(), n, "{name} read live");
        }
        alone.gauge("sched_depth_pkts", &labels).set(3);
        alone.gauge("sched_depth_bytes", &labels).set(300);
        alone.gauge("sched_depth_pkts", &idle);
        alone.gauge("sched_depth_bytes", &idle);
        alone.histogram("sched_sojourn_ns", &idle);
        let sojourn = alone.histogram("sched_sojourn_ns", &labels);
        sojourn.record(500);
        sojourn.record(40);
        assert_eq!(block.gauge("sched_depth_bytes", &labels).get(), 300);
        assert_eq!(block.histogram("sched_sojourn_ns", &labels).count(), 2);
        assert_eq!(block.export_jsonl(), alone.export_jsonl());
    }

    #[test]
    fn a_disabled_queue_block_is_inert() {
        let m = Telemetry::disabled().queue_metrics(&[("queue", "q0")]);
        m.offer();
        m.dequeue(5, true);
        assert_eq!((m.dequeued(), m.inversions()), (0, 0));
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
