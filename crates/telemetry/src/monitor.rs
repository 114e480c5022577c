//! Streaming per-tenant isolation SLO monitor.
//!
//! The static verifier proves a policy clean before deployment and the
//! trace reports explain a run after it ends; this module watches isolation
//! *while* the simulation runs. It has no feed points of its own: it is one
//! more reader of the flight recorder's records ([`SloMonitor::reading`]
//! joins it to a [`Tracer`]), and reads every flow's dequeues, a data
//! packet's drops and fresh deliveries, and each flow's start and the ACK
//! that completes it, whatever the ring samples. From them it maintains
//! sliding sim-time-windowed per-tenant health:
//!
//! * **drop rate** — dropped / (delivered + dropped) over the window,
//! * **rank-inversion rate** — cross-tenant inversions / dequeues (a
//!   dequeue counts when a *different* tenant's packet with a strictly
//!   lower rank kept waiting — the `dequeue` record's `cross_tenant`; a
//!   tenant reordering its own packets is not an isolation failure),
//! * **queueing-delay and FCT quantiles** — via a deterministic streaming
//!   `QuantileSketch` (dense log-linear buckets, property-tested against
//!   exact sorted-vec quantiles). A flow's completion time is its `done`
//!   ACK's time less its `flow_start`'s.
//!
//! Declarative [`AlertRule`]s (`{metric, tenant, window_ns, threshold}`)
//! are evaluated incrementally on every record that feeds them. Alerts are
//! edge-triggered: one `alert_fired` journal event when the windowed value
//! first exceeds the threshold, one `alert_resolved` when it falls back.
//! Fired alerts land in the monitor's own bounded [`Journal`].
//!
//! Like the rest of the telemetry subsystem the monitor only *observes*:
//! it takes no randomness, orders no events, and is keyed by simulated
//! time, so attaching it cannot change a simulation's outcome. Unlike the
//! [`Telemetry`](crate::Telemetry) registry it keeps fully separate state
//! (including its own journal), so a telemetry JSONL export is
//! byte-identical whether or not a monitor was attached. The determinism
//! suite enforces both properties.

use crate::journal::{Journal, JournalEvent};
use crate::report::{Export, HistLine, MetricLine};
use crate::trace::{TraceKind, TraceReads, TraceRecord, Tracer};
use qvisor_sim::json::Value;
use qvisor_sim::{LogBuckets, Nanos};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Sub-bucket resolution of the streaming sketch: each power-of-two range
/// is split into `2^SKETCH_SUB_BITS` linear sub-buckets, so the relative
/// quantile error is bounded by `2^-SKETCH_SUB_BITS` (6.25%) and the
/// absolute error by one bucket width.
const SKETCH_SUB_BITS: u32 = 4;

/// Number of ring slices a sliding window is quantized into.
const SLICES: u64 = 8;

/// The deterministic streaming quantile sketch of the SLO windows: the
/// workspace's one log-linear histogram at [`SKETCH_SUB_BITS`] (at most 976
/// buckets for the whole `u64` range). Subtractable, which is what
/// sliding-window aggregation needs: the window keeps one sketch per ring
/// slice plus a rolling aggregate, and expiring a slice subtracts its
/// sketch from the aggregate.
type QuantileSketch = LogBuckets<SKETCH_SUB_BITS>;

/// The ring slice a sliding window is in, moved on by simulated time.
///
/// A feed compares its timestamp against the start of the next slice; only
/// a feed that crosses it divides, so a window divides once per slice, not
/// once per feed.
#[derive(Clone, Debug)]
struct SliceClock {
    slice_ns: u64,
    /// Number of the current slice: `t / slice_ns` of the latest feed.
    cur: u64,
    /// Where slice `cur + 1` starts, saturated at `u64::MAX` (no later
    /// slice fits below it then, and the division finds none).
    next: u64,
}

impl SliceClock {
    fn new(window_ns: u64) -> SliceClock {
        let slice_ns = window_ns.div_ceil(SLICES).max(1);
        SliceClock {
            slice_ns,
            cur: 0,
            next: slice_ns,
        }
    }

    /// Move to the slice holding `t`. Returns the ring slots that left the
    /// window, oldest first: none while `t` stays in the current slice,
    /// all of them after a gap longer than the window.
    #[inline]
    fn advance(&mut self, t: u64) -> impl Iterator<Item = usize> {
        let (first, steps) = if t < self.next { (0, 0) } else { self.turn(t) };
        (0..steps).map(move |i| ((first + i) % SLICES) as usize)
    }

    /// The division: the first slice that left the window and how many did.
    fn turn(&mut self, t: u64) -> (u64, u64) {
        let s = t / self.slice_ns;
        self.next = s.saturating_add(1).saturating_mul(self.slice_ns);
        // Only once `next` has saturated at `u64::MAX`: still this slice.
        if s <= self.cur {
            return (0, 0);
        }
        let expired = (self.cur + 1, (s - self.cur).min(SLICES));
        self.cur = s;
        expired
    }

    /// The ring slot of the current slice.
    fn slot(&self) -> usize {
        (self.cur % SLICES) as usize
    }
}

/// A count over a sliding sim-time window, quantized into [`SLICES`] ring
/// slices: O(1) add, O(1) amortized expiry, purely a function of the
/// event stream's simulated timestamps.
#[derive(Clone, Debug)]
struct SlidingCounter {
    clock: SliceClock,
    ring: [u64; SLICES as usize],
    total: u64,
}

impl SlidingCounter {
    fn new(window_ns: u64) -> SlidingCounter {
        SlidingCounter {
            clock: SliceClock::new(window_ns),
            ring: [0; SLICES as usize],
            total: 0,
        }
    }

    fn advance(&mut self, t: u64) {
        for slot in self.clock.advance(t) {
            self.total -= self.ring[slot];
            self.ring[slot] = 0;
        }
    }

    fn add(&mut self, t: u64, n: u64) {
        self.advance(t);
        self.ring[self.clock.slot()] += n;
        self.total += n;
    }

    fn value(&mut self, t: u64) -> u64 {
        self.advance(t);
        self.total
    }
}

/// A [`QuantileSketch`] over a sliding sim-time window, watched against
/// one threshold: one sketch per ring slice plus a rolling aggregate kept
/// current by subtraction.
///
/// Beside the sketches it counts, per slice and in aggregate, the samples
/// in buckets whose estimate (the bucket's upper bound) does *not* exceed
/// the threshold. Those buckets are a prefix of the bucket order, and the
/// `p`-quantile estimate is the bound of the first bucket at which the
/// running count reaches the nearest-rank target — so the estimate exceeds
/// the threshold exactly when the prefix holds fewer samples than the
/// target. [`exceeds`](Self::exceeds) is that comparison, O(1); the bucket
/// walk of [`quantile`](Self::quantile) is only needed for the value
/// itself.
#[derive(Clone, Debug)]
struct SlidingSketch {
    clock: SliceClock,
    ring: [QuantileSketch; SLICES as usize],
    agg: QuantileSketch,
    /// Buckets `0..below_limit` are those whose upper bound, as the `f64`
    /// an alert compares, is not above the threshold.
    below_limit: usize,
    ring_below: [u64; SLICES as usize],
    agg_below: u64,
}

impl SlidingSketch {
    fn new(window_ns: u64, threshold: f64) -> SlidingSketch {
        // Bucket bounds ascend, so the first one above the threshold ends
        // the prefix. `value > NaN` is false for every value: a NaN
        // threshold keeps every bucket in it.
        let below_limit = (0..=QuantileSketch::index(u64::MAX))
            .take_while(|&i| threshold.is_nan() || QuantileSketch::range(i).1 as f64 <= threshold)
            .count();
        SlidingSketch {
            clock: SliceClock::new(window_ns),
            ring: std::array::from_fn(|_| QuantileSketch::new()),
            agg: QuantileSketch::new(),
            below_limit,
            ring_below: [0; SLICES as usize],
            agg_below: 0,
        }
    }

    fn advance(&mut self, t: u64) {
        for slot in self.clock.advance(t) {
            if !self.ring[slot].is_empty() {
                self.agg.subtract(&self.ring[slot]);
                self.ring[slot].clear();
                self.agg_below -= self.ring_below[slot];
                self.ring_below[slot] = 0;
            }
        }
    }

    /// Record a sample that falls in sketch bucket `bucket`.
    fn record(&mut self, t: u64, bucket: usize) {
        self.advance(t);
        let slot = self.clock.slot();
        self.ring[slot].record_bucket(bucket);
        self.agg.record_bucket(bucket);
        if bucket < self.below_limit {
            self.ring_below[slot] += 1;
            self.agg_below += 1;
        }
    }

    fn quantile(&mut self, t: u64, p: f64) -> Option<u64> {
        self.advance(t);
        self.agg.quantile(p)
    }

    /// Whether the windowed `p`-quantile at sim-time `t` exceeds the
    /// threshold; an empty window reads as 0, like [`RuleRt::value`].
    fn exceeds(&mut self, t: u64, p: f64) -> bool {
        self.advance(t);
        match self.agg.count() {
            // 0 is bucket 0's bound: above the threshold iff the prefix is empty.
            0 => self.below_limit == 0,
            // `agg_below < nearest_rank(p, total)`, whose target is
            // `max(⌈p·total⌉, 1)`: an integer count is below `⌈x⌉` exactly
            // when it is below `x`, so no `ceil` (exact below 2^53 samples).
            total => self.agg_below == 0 || (self.agg_below as f64) < p * total as f64,
        }
    }
}

/// A per-tenant SLO metric an [`AlertRule`] can watch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlertMetric {
    /// Dropped / (delivered + dropped) payload packets over the window.
    DropRate,
    /// Cross-tenant rank inversions / dequeues over the window.
    InversionRate,
    /// Median queueing delay (ns) over the window.
    QueueDelayP50,
    /// 90th-percentile queueing delay (ns) over the window.
    QueueDelayP90,
    /// 99th-percentile queueing delay (ns) over the window.
    QueueDelayP99,
    /// Median flow completion time (ns) over the window.
    FctP50,
    /// 90th-percentile flow completion time (ns) over the window.
    FctP90,
    /// 99th-percentile flow completion time (ns) over the window.
    FctP99,
}

/// Every metric, for validation error messages and exhaustive tests.
pub const ALERT_METRICS: &[AlertMetric] = &[
    AlertMetric::DropRate,
    AlertMetric::InversionRate,
    AlertMetric::QueueDelayP50,
    AlertMetric::QueueDelayP90,
    AlertMetric::QueueDelayP99,
    AlertMetric::FctP50,
    AlertMetric::FctP90,
    AlertMetric::FctP99,
];

impl AlertMetric {
    /// The schema name (`drop_rate`, `queue_delay_p99`, ...).
    pub fn name(self) -> &'static str {
        match self {
            AlertMetric::DropRate => "drop_rate",
            AlertMetric::InversionRate => "inversion_rate",
            AlertMetric::QueueDelayP50 => "queue_delay_p50",
            AlertMetric::QueueDelayP90 => "queue_delay_p90",
            AlertMetric::QueueDelayP99 => "queue_delay_p99",
            AlertMetric::FctP50 => "fct_p50",
            AlertMetric::FctP90 => "fct_p90",
            AlertMetric::FctP99 => "fct_p99",
        }
    }

    /// Parse a schema name; `None` for unknown metrics.
    pub fn parse(s: &str) -> Option<AlertMetric> {
        ALERT_METRICS.iter().copied().find(|m| m.name() == s)
    }

    /// The quantile a sketch-backed metric reads (`None` for rates).
    fn quantile(self) -> Option<f64> {
        match self {
            AlertMetric::DropRate | AlertMetric::InversionRate => None,
            AlertMetric::QueueDelayP50 | AlertMetric::FctP50 => Some(0.5),
            AlertMetric::QueueDelayP90 | AlertMetric::FctP90 => Some(0.9),
            AlertMetric::QueueDelayP99 | AlertMetric::FctP99 => Some(0.99),
        }
    }

    fn uses_fct(self) -> bool {
        matches!(
            self,
            AlertMetric::FctP50 | AlertMetric::FctP90 | AlertMetric::FctP99
        )
    }
}

/// One declarative SLO alert rule: fire while `metric` for `tenant`,
/// computed over a sliding `window_ns` of simulated time, exceeds
/// `threshold` (a fraction in `[0, 1]` for rates, nanoseconds for
/// latency quantiles).
#[derive(Clone, Debug, PartialEq)]
pub struct AlertRule {
    /// The watched metric.
    pub metric: AlertMetric,
    /// The watched tenant id.
    pub tenant: u16,
    /// Sliding window length in simulated nanoseconds (quantized up to
    /// eight ring slices).
    pub window_ns: u64,
    /// Fire when the windowed value strictly exceeds this.
    pub threshold: f64,
}

/// Windowed state backing one rule.
#[derive(Clone, Debug)]
enum RuleState {
    Rate {
        num: SlidingCounter,
        den: SlidingCounter,
    },
    Quantile {
        sketch: Box<SlidingSketch>,
        p: f64,
    },
}

#[derive(Clone, Debug)]
struct RuleRt {
    rule: AlertRule,
    state: RuleState,
    firing: bool,
}

impl RuleRt {
    fn new(rule: AlertRule) -> RuleRt {
        let state = match rule.metric.quantile() {
            None => RuleState::Rate {
                num: SlidingCounter::new(rule.window_ns),
                den: SlidingCounter::new(rule.window_ns),
            },
            Some(p) => RuleState::Quantile {
                sketch: Box::new(SlidingSketch::new(rule.window_ns, rule.threshold)),
                p,
            },
        };
        RuleRt {
            rule,
            state,
            firing: false,
        }
    }

    /// Current windowed value at sim-time `t`.
    fn value(&mut self, t: u64) -> f64 {
        match &mut self.state {
            RuleState::Rate { num, den } => {
                let d = den.value(t);
                if d == 0 {
                    0.0
                } else {
                    num.value(t) as f64 / d as f64
                }
            }
            RuleState::Quantile { sketch, p } => sketch.quantile(t, *p).unwrap_or(0) as f64,
        }
    }

    /// Whether [`value`](Self::value) is above the rule's threshold at
    /// sim-time `t`, without walking a sketch.
    fn exceeds(&mut self, t: u64) -> bool {
        let RuleState::Quantile { sketch, p } = &mut self.state else {
            return self.value(t) > self.rule.threshold;
        };
        let exceeds = sketch.exceeds(t, *p);
        debug_assert_eq!(exceeds, self.value(t) > self.rule.threshold);
        exceeds
    }
}

/// Cumulative (whole-run) per-tenant health, exported as the monitor's
/// health table.
#[derive(Clone, Debug, Default)]
struct TenantStats {
    delivered: u64,
    dropped: u64,
    dequeues: u64,
    inversions: u64,
    queue_delay: QuantileSketch,
    fct: QuantileSketch,
}

/// One tenant's row of the monitor's table.
#[derive(Clone, Debug)]
struct Tenant {
    /// Positions in `MonitorState::rules` of the rules on this tenant,
    /// ascending: a feed visits only these.
    rules: Vec<usize>,
    stats: TenantStats,
}

#[derive(Debug)]
struct MonitorState {
    rules: Vec<RuleRt>,
    /// Indexed by tenant id; a row exists once the tenant has been fed.
    tenants: Vec<Option<Tenant>>,
    /// When each started flow that has not completed started, by flow id.
    open: BTreeMap<u64, Nanos>,
    journal: Journal,
    alerts_fired: u64,
    alerts_resolved: u64,
}

/// Which feed event just happened, with what a rule or the health table
/// takes from it. A latency sample arrives as its [`QuantileSketch`]
/// bucket, computed once for every sketch that records it.
#[derive(Clone, Copy)]
enum Feed {
    Drop,
    Delivered,
    Dequeue { bucket: usize, inverted: bool },
    Fct { bucket: usize },
}

impl MonitorState {
    fn new(rules: Vec<AlertRule>) -> MonitorState {
        MonitorState {
            rules: rules.into_iter().map(RuleRt::new).collect(),
            tenants: Vec::new(),
            open: BTreeMap::new(),
            journal: Journal::default(),
            alerts_fired: 0,
            alerts_resolved: 0,
        }
    }

    /// Fold one record into `state`'s windows: a dequeue (of any packet), a
    /// data packet's drop or fresh delivery, and a flow's completion — its
    /// `done` ACK, timed from its `flow_start`. A record it does not count
    /// (most are ACKs) leaves the state untouched.
    fn read(state: &RefCell<MonitorState>, r: &TraceRecord) {
        let feed = match r.kind {
            TraceKind::FlowStart { .. } => {
                state.borrow_mut().open.insert(r.flow, r.t);
                return;
            }
            TraceKind::Dequeue {
                wait_ns,
                cross_tenant,
                ..
            } => Feed::Dequeue {
                bucket: QuantileSketch::index(wait_ns),
                inverted: cross_tenant,
            },
            TraceKind::Drop { .. } if !r.ack => Feed::Drop,
            TraceKind::Deliver { dup: false, .. } if !r.ack => Feed::Delivered,
            TraceKind::Ack { done: true, .. } => {
                let st = &mut *state.borrow_mut();
                let Some(start) = st.open.remove(&r.flow) else {
                    return;
                };
                let fct = r.t.saturating_sub(start).as_nanos();
                let bucket = QuantileSketch::index(fct);
                return st.feed(r.t, r.tenant, Feed::Fct { bucket });
            }
            _ => return,
        };
        state.borrow_mut().feed(r.t, r.tenant, feed);
    }

    /// Fold one feed event into `tenant`'s health, route it into the
    /// windows of the tenant's rules that watch it, then re-evaluate those
    /// rules at sim-time `t` (edge-triggered).
    fn feed(&mut self, t: Nanos, tenant: u16, feed: Feed) {
        let id = usize::from(tenant);
        if id >= self.tenants.len() {
            self.tenants.resize_with(id + 1, || None);
        }
        let rules = &mut self.rules;
        let row = self.tenants[id].get_or_insert_with(|| Tenant {
            rules: (rules.iter().enumerate())
                .filter(|(_, rt)| rt.rule.tenant == tenant)
                .map(|(i, _)| i)
                .collect(),
            stats: TenantStats::default(),
        });
        let stats = &mut row.stats;
        match feed {
            Feed::Drop => stats.dropped += 1,
            Feed::Delivered => stats.delivered += 1,
            Feed::Dequeue { bucket, inverted } => {
                stats.dequeues += 1;
                stats.inversions += u64::from(inverted);
                stats.queue_delay.record_bucket(bucket);
            }
            Feed::Fct { bucket } => stats.fct.record_bucket(bucket),
        }
        let mut transitions: Vec<(usize, f64)> = Vec::new();
        for &i in &row.rules {
            let rt = &mut rules[i];
            let relevant = match (&mut rt.state, rt.rule.metric, feed) {
                (RuleState::Rate { num, den }, AlertMetric::DropRate, Feed::Drop) => {
                    num.add(t.0, 1);
                    den.add(t.0, 1);
                    true
                }
                (RuleState::Rate { den, .. }, AlertMetric::DropRate, Feed::Delivered) => {
                    den.add(t.0, 1);
                    true
                }
                (
                    RuleState::Rate { num, den },
                    AlertMetric::InversionRate,
                    Feed::Dequeue { inverted, .. },
                ) => {
                    if inverted {
                        num.add(t.0, 1);
                    }
                    den.add(t.0, 1);
                    true
                }
                (RuleState::Quantile { sketch, .. }, m, Feed::Dequeue { bucket, .. })
                    if !m.uses_fct() =>
                {
                    sketch.record(t.0, bucket);
                    true
                }
                (RuleState::Quantile { sketch, .. }, m, Feed::Fct { bucket }) if m.uses_fct() => {
                    sketch.record(t.0, bucket);
                    true
                }
                _ => false,
            };
            if !relevant {
                continue;
            }
            let exceeds = rt.exceeds(t.0);
            if exceeds != rt.firing {
                rt.firing = exceeds;
                transitions.push((i, rt.value(t.0)));
            }
        }
        for (i, value) in transitions {
            let rt = &self.rules[i];
            let kind = if rt.firing {
                self.alerts_fired += 1;
                "alert_fired"
            } else {
                self.alerts_resolved += 1;
                "alert_resolved"
            };
            let fields = [
                ("metric", Value::from(rt.rule.metric.name())),
                ("tenant", Value::from(rt.rule.tenant)),
                ("window_ns", Value::from(rt.rule.window_ns)),
                ("threshold", Value::from(rt.rule.threshold)),
                ("value", Value::from(value)),
            ];
            let event = JournalEvent::new(t, kind, &fields);
            self.journal.push(event);
        }
    }
}

/// The records the monitor reads: every packet's dequeues, a data packet's
/// drops and deliveries, and each flow's start and ACKs (only the `done`
/// one counts).
const READS: TraceReads = TraceReads::DEQUEUE
    .union(TraceReads::acks(TraceKind::Dequeue {
        rank: 0,
        wait_ns: 0,
        cross_tenant: false,
    }))
    .union(TraceReads::DROP)
    .union(TraceReads::data(TraceKind::FlowStart { size: 0 }))
    .union(TraceReads::data(TraceKind::Deliver {
        latency_ns: 0,
        dup: false,
    }))
    .union(TraceReads::acks(TraceKind::Ack {
        latency_ns: 0,
        done: false,
    }));

/// Handle to a streaming SLO monitor. Cheap to clone (shared by `Rc`,
/// mirroring [`Telemetry`](crate::Telemetry)); the default handle is
/// disabled and joins no tracer ([`SloMonitor::reading`]).
#[derive(Clone, Debug, Default)]
pub struct SloMonitor {
    inner: Option<Rc<RefCell<MonitorState>>>,
}

impl SloMonitor {
    /// A disabled monitor: records nothing, exports nothing.
    pub fn disabled() -> SloMonitor {
        SloMonitor::default()
    }

    /// An enabled monitor evaluating `rules` (an empty rule set still
    /// collects per-tenant health for the export).
    pub fn enabled(rules: Vec<AlertRule>) -> SloMonitor {
        SloMonitor {
            inner: Some(Rc::new(RefCell::new(MonitorState::new(rules)))),
        }
    }

    /// True when this handle collects.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// `tracer` with this monitor joined as one more reader of its
    /// records ([`Tracer::with_reader`]): the handle a simulation records
    /// on. `tracer` goes on as it was; a disabled monitor joins nothing.
    pub fn reading(&self, tracer: &Tracer) -> Tracer {
        match &self.inner {
            Some(state) => {
                let state = Rc::clone(state);
                tracer.with_reader(READS, move |r| MonitorState::read(&state, r))
            }
            None => tracer.clone(),
        }
    }

    /// Total `alert_fired` transitions so far.
    pub fn alerts_fired(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.borrow().alerts_fired)
    }

    /// Total `alert_resolved` transitions so far.
    #[cfg(test)]
    pub fn alerts_resolved(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.borrow().alerts_resolved)
    }

    /// All journal events recorded so far (alert transitions), oldest
    /// first.
    pub fn alert_events(&self) -> Vec<JournalEvent> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.borrow().journal.events().cloned().collect())
    }

    /// Serialise the monitor's state as JSON lines using the telemetry
    /// export schema (`meta`, `counter`, `gauge`, `event`), so
    /// [`crate::report::parse`] and [`render_health`] digest it directly.
    /// Returns the empty string when disabled.
    pub fn export_jsonl(&self) -> String {
        let Some(inner) = &self.inner else {
            return String::new();
        };
        let st = inner.borrow();
        let mut out = String::new();
        let mut push = |v: Value| {
            out.push_str(&v.to_compact());
            out.push('\n');
        };
        push(
            Value::object()
                .set("type", "meta")
                .set("schema", crate::SCHEMA_VERSION)
                .set("monitor", true)
                .set("rules", st.rules.len())
                .set("alerts_fired", st.alerts_fired)
                .set("alerts_resolved", st.alerts_resolved)
                .set("journal_evicted", st.journal.evicted())
                .set("journal_capacity", st.journal.capacity()),
        );
        let labels = |tenant: u16| Value::object().set("tenant", format!("T{tenant}"));
        let metric = |kind: &str, name: &str, tenant: u16, value: Value| {
            Value::object()
                .set("type", kind)
                .set("name", name)
                .set("labels", labels(tenant))
                .set("value", value)
        };
        let rows = (st.tenants.iter().enumerate())
            .filter_map(|(id, row)| Some((id as u16, &row.as_ref()?.stats)));
        for (tenant, s) in rows {
            let counters = [
                ("slo_delivered_pkts", s.delivered),
                ("slo_dropped_pkts", s.dropped),
                ("slo_dequeues", s.dequeues),
                ("slo_rank_inversions", s.inversions),
            ];
            for (name, value) in counters {
                push(metric("counter", name, tenant, Value::from(value)));
            }
            let ppm = |num: u64, den: u64| (num as u128 * 1_000_000 / den.max(1) as u128) as u64;
            let rates = [
                ("slo_drop_rate_ppm", ppm(s.dropped, s.delivered + s.dropped)),
                ("slo_inversion_rate_ppm", ppm(s.inversions, s.dequeues)),
            ];
            for (name, value) in rates {
                push(metric("gauge", name, tenant, Value::from(value)));
            }
            for (name, sketch) in [("slo_queue_delay", &s.queue_delay), ("slo_fct", &s.fct)] {
                for (suffix, p) in [("p50_ns", 0.5), ("p90_ns", 0.9), ("p99_ns", 0.99)] {
                    if let Some(q) = sketch.quantile(p) {
                        push(metric(
                            "gauge",
                            &format!("{name}_{suffix}"),
                            tenant,
                            Value::from(q),
                        ));
                    }
                }
            }
        }
        for rt in &st.rules {
            push(
                Value::object()
                    .set("type", "gauge")
                    .set("name", "slo_rule_firing")
                    .set(
                        "labels",
                        Value::object()
                            .set("metric", rt.rule.metric.name())
                            .set("tenant", format!("T{}", rt.rule.tenant))
                            .set("threshold", format!("{}", rt.rule.threshold))
                            .set("window_ns", format!("{}", rt.rule.window_ns)),
                    )
                    .set("value", u64::from(rt.firing)),
            );
        }
        for e in st.journal.events() {
            push(e.to_json());
        }
        out
    }
}

fn tenant_sort_key(s: &str) -> (u64, String) {
    let digits: String = s.chars().filter(|c| c.is_ascii_digit()).collect();
    (digits.parse().unwrap_or(u64::MAX), s.to_string())
}

/// Render a parsed export as a deterministic per-tenant health table: one
/// row per `tenant` label value (numerically ordered), one column per
/// tenant-labelled counter/gauge (summed across remaining labels) plus a
/// `<name>_p99` column per tenant-labelled histogram. Returns a note when
/// no metric carries a tenant label.
pub fn render_health(export: &Export) -> String {
    let mut columns: Vec<String> = Vec::new();
    let mut cells: BTreeMap<(u64, String), BTreeMap<String, i128>> = BTreeMap::new();
    let mut add = |name: &str, labels: &[(String, String)], value: i128| {
        let Some((_, tenant)) = labels.iter().find(|(k, _)| k == "tenant") else {
            return;
        };
        if !columns.contains(&name.to_string()) {
            columns.push(name.to_string());
        }
        *cells
            .entry(tenant_sort_key(tenant))
            .or_default()
            .entry(name.to_string())
            .or_default() += value;
    };
    let metrics: Vec<&MetricLine> = export.counters.iter().chain(export.gauges.iter()).collect();
    for m in metrics {
        add(&m.name, &m.labels, m.value);
    }
    let hists: Vec<&HistLine> = export.histograms.iter().collect();
    for h in hists {
        if let Some(p99) = h.p99 {
            add(&format!("{}_p99", h.name), &h.labels, p99 as i128);
        }
    }
    if cells.is_empty() {
        return "no tenant-labelled metrics in export\n".to_string();
    }
    columns.sort();
    let mut headers = vec!["tenant".to_string()];
    headers.extend(columns.iter().cloned());
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|((_, tenant), by_name)| {
            let mut row = vec![tenant.clone()];
            row.extend(columns.iter().map(|n| {
                by_name
                    .get(n)
                    .map_or_else(|| "-".to_string(), |v| v.to_string())
            }));
            row
        })
        .collect();
    let mut out = String::new();
    crate::report::render_table(&mut out, &headers, &rows);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qvisor_sim::rng::SimRng;
    use std::collections::BTreeSet;

    /// A tracer `m` reads, and the records a simulation would make on it.
    struct Recorder(Tracer);

    impl Recorder {
        fn of(m: &SloMonitor) -> Recorder {
            Recorder(m.reading(&Tracer::disabled()))
        }

        fn record(&self, t: u64, flow: u64, tenant: u16, kind: TraceKind, ack: bool) {
            let record = TraceRecord::new(Nanos(t), flow, 0, tenant, kind);
            self.0.record(record.as_ack(ack));
        }

        fn dropped(&self, t: u64, tenant: u16) {
            self.record(t, 0, tenant, TraceKind::Drop { rank: 0 }, false);
        }

        fn delivered(&self, t: u64, tenant: u16) {
            let kind = TraceKind::Deliver {
                latency_ns: 1,
                dup: false,
            };
            self.record(t, 0, tenant, kind, false);
        }

        fn dequeued(&self, t: u64, tenant: u16, wait_ns: u64, cross_tenant: bool) {
            let kind = TraceKind::Dequeue {
                rank: 0,
                wait_ns,
                cross_tenant,
            };
            self.record(t, 0, tenant, kind, false);
        }

        /// A flow of `tenant` that started `fct_ns` before `t` and whose
        /// last ACK arrives at `t`.
        fn completed(&self, t: u64, tenant: u16, fct_ns: u64) {
            let flow = t;
            let start = TraceKind::FlowStart { size: 1 };
            self.record(t - fct_ns, flow, tenant, start, false);
            let done = TraceKind::Ack {
                latency_ns: 1,
                done: true,
            };
            self.record(t, flow, tenant, done, true);
        }
    }

    fn rule(metric: AlertMetric, tenant: u16, window_ns: u64, threshold: f64) -> AlertRule {
        AlertRule {
            metric,
            tenant,
            window_ns,
            threshold,
        }
    }

    #[test]
    fn prop_sketch_quantiles_match_exact_within_pinned_bounds() {
        // Property: on seeded random streams and on adversarial shapes
        // (sorted ascending, reversed, constant), the sketch estimate
        // never undershoots the exact nearest-rank quantile and
        // overshoots by less than one bucket width at that magnitude.
        let root = SimRng::seed_from(0x510_a1e7);
        for case in 0..48u64 {
            let mut rng = root.derive(case);
            let n = 1 + rng.below(2_000) as usize;
            let mut values: Vec<u64> = (0..n)
                .map(|_| match case % 5 {
                    0 => rng.below(64),
                    1 => rng.below(1_000_000_000_000),
                    2 => rng.exponential(50_000.0) as u64,
                    3 => 1u64 << rng.below(50),
                    _ => 42_000, // constant stream
                })
                .collect();
            match case % 3 {
                0 => values.sort_unstable(),                   // sorted
                1 => values.sort_unstable_by(|a, b| b.cmp(a)), // reversed
                _ => {}                                        // as generated
            }
            let mut sketch = QuantileSketch::new();
            for &v in &values {
                sketch.record(v);
            }
            let mut sorted = values.clone();
            sorted.sort_unstable();
            for p in [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
                let rank = ((p * n as f64).ceil() as usize).max(1) - 1;
                let exact = sorted[rank];
                let est = sketch.quantile(p).unwrap();
                let width = QuantileSketch::bucket_width(exact);
                assert!(
                    est >= exact && est - exact < width,
                    "case {case} n {n} p={p}: est {est} vs exact {exact}, width {width}"
                );
            }
        }
    }

    #[test]
    fn sketch_subtract_removes_what_was_recorded() {
        let root = SimRng::seed_from(0xdead_5eed);
        let mut rng = root.derive(1);
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        let mut merged = QuantileSketch::new();
        for _ in 0..500 {
            let (x, y) = (rng.below(1_000_000), rng.below(1_000_000));
            a.record(x);
            b.record(y);
            merged.record(x);
            merged.record(y);
        }
        assert_eq!(merged.count(), 1000);
        merged.subtract(&b);
        assert_eq!(merged, a);
        merged.subtract(&a);
        assert!(merged.is_empty());
        assert_eq!(merged.quantile(0.5), None);
    }

    #[test]
    fn sliding_counter_expires_by_sim_time() {
        let mut c = SlidingCounter::new(800); // slice = 100ns, ring covers 800ns
        c.add(0, 1);
        c.add(50, 2);
        assert_eq!(c.value(750), 3, "still inside the window");
        assert_eq!(c.value(850), 0, "slice 0 expired once t crosses 800ns");
        c.add(900, 5);
        assert_eq!(c.value(900), 5);
        assert_eq!(c.value(1_000_000), 0, "large gap clears the whole ring");
    }

    #[test]
    fn sliding_sketch_expires_by_sim_time() {
        let mut s = SlidingSketch::new(800, 0.0);
        s.record(0, QuantileSketch::index(1_000));
        s.record(50, QuantileSketch::index(2_000));
        assert!(s.quantile(750, 1.0).unwrap() >= 2_000);
        assert_eq!(s.quantile(850, 1.0), None, "window drained");
        s.record(900, QuantileSketch::index(7));
        assert_eq!(s.quantile(900, 0.5), Some(7));
    }

    #[test]
    fn prop_constant_time_exceed_test_matches_the_quantile_walk() {
        // Property: at every step of a seeded random stream — bursts,
        // gaps that expire single slices and gaps that drain the whole
        // window — `exceeds` answers exactly what comparing the walked
        // quantile to the threshold answers, for thresholds on bucket
        // bounds, between them, at 0, below 0, above every sample, and NaN.
        let root = SimRng::seed_from(0x0a1e_a7ed);
        let bound = |v: u64| QuantileSketch::range(QuantileSketch::index(v)).1 as f64;
        let thresholds = [
            -1.0,
            0.0,
            0.5,
            15.0,
            bound(1_000),
            bound(1_000) + 1.0,
            bound(50_000) - 1.0,
            bound(50_000),
            3_000_000.0,
            1e30,
            f64::NAN,
        ];
        let mut evaluated = 0u64;
        for case in 0..thresholds.len() as u64 * 4 {
            let mut rng = root.derive(case);
            let threshold = thresholds[case as usize % thresholds.len()];
            let p = [0.5, 0.9, 0.99, 1.0][case as usize / thresholds.len()];
            let window_ns = 1 + rng.below(10_000);
            let mut s = SlidingSketch::new(window_ns, threshold);
            let mut t = 0u64;
            for _ in 0..600 {
                t += match rng.below(10) {
                    0 => window_ns + rng.below(window_ns), // drains the window
                    1..=3 => rng.below(window_ns / 4 + 1), // expires a slice or two
                    _ => rng.below(3),                     // a burst
                };
                let v = match rng.below(4) {
                    0 => rng.below(20),
                    1 => rng.exponential(50_000.0) as u64,
                    2 => rng.below(2_000),
                    _ => 1u64 << rng.below(40),
                };
                s.record(t, QuantileSketch::index(v));
                let walked = s.quantile(t, p).unwrap_or(0) as f64;
                assert_eq!(
                    s.exceeds(t, p),
                    walked > threshold,
                    "case {case} t {t} p {p}: quantile {walked} vs threshold {threshold}"
                );
                evaluated += 1;
                // Between feeds the window can be empty; it then reads 0.
                if rng.below(8) == 0 {
                    let later = t + rng.below(2 * window_ns);
                    let walked = s.quantile(later, p).unwrap_or(0) as f64;
                    assert_eq!(s.exceeds(later, p), walked > threshold, "case {case}");
                    t = later;
                }
            }
        }
        assert_eq!(evaluated, thresholds.len() as u64 * 4 * 600);
    }

    #[test]
    fn prop_advancing_by_comparison_matches_advancing_by_division() {
        // Oracle, the division form with no ring: every sample remembers
        // the slice `t / slice_ns` it was fed in, and at a query the window
        // holds the samples fewer than `SLICES` slices behind the latest
        // slice. Slices of 1 ns to 2^40 ns, jumps past the whole window,
        // and streams that end at `u64::MAX`, where the next slice boundary
        // saturates.
        let root = SimRng::seed_from(0x511c_e0c1);
        let bound = |v: u64| QuantileSketch::range(QuantileSketch::index(v)).1 as f64;
        let mut checked = 0u64;
        for case in 0..120u64 {
            let mut rng = root.derive(case);
            let slice_ns = match case % 4 {
                0 => 1,
                1 => 1 << rng.below(41),
                2 => 1 + rng.below(1 << 40),
                _ => 1 << 40,
            };
            // Any window that quantizes to `slice_ns`.
            let window_ns = slice_ns * SLICES - rng.below(SLICES);
            let threshold = [0.0, 15.0, bound(1_000), 3e6, f64::NAN][case as usize % 5];
            let p = [0.5, 0.9, 0.99, 1.0][case as usize / 5 % 4];
            let mut counter = SlidingCounter::new(window_ns);
            let mut sketch = SlidingSketch::new(window_ns, threshold);
            assert_eq!(counter.clock.slice_ns, slice_ns);
            let mut t = match case % 3 {
                0 => u64::MAX - rng.below(3 * SLICES * slice_ns),
                _ => rng.below(4 * slice_ns),
            };
            let mut latest = 0;
            let mut fed: Vec<(u64, u64, u64)> = Vec::new();
            for _ in 0..300 {
                t = t.saturating_add(match rng.below(10) {
                    0 => window_ns + rng.below(3 * window_ns), // past the whole window
                    1..=3 => rng.below(2 * slice_ns),          // a boundary or two
                    _ => rng.below(slice_ns.div_ceil(4)),      // mostly in the slice
                });
                latest = latest.max(t / slice_ns);
                let (n, v) = (
                    1 + rng.below(3),
                    [rng.below(40), 1 << rng.below(40)][case as usize % 2],
                );
                counter.add(t, n);
                sketch.record(t, QuantileSketch::index(v));
                fed.push((latest, n, v));
                // Ask at the feed's instant, or later with no feed between.
                if rng.below(4) == 0 {
                    t = t.saturating_add(rng.below(2 * window_ns));
                    latest = latest.max(t / slice_ns);
                }
                let live = fed.iter().filter(|&&(slice, ..)| latest - slice < SLICES);
                let mut oracle = QuantileSketch::new();
                live.clone().for_each(|&(.., v)| oracle.record(v));
                let total: u64 = live.map(|&(_, n, _)| n).sum();
                let quantile = oracle.quantile(p);
                let at = format!("case {case} slice {slice_ns} t {t}");
                assert_eq!(counter.value(t), total, "{at}");
                assert_eq!(sketch.quantile(t, p), quantile, "{at}");
                let exceeds = quantile.unwrap_or(0) as f64 > threshold;
                assert_eq!(sketch.exceeds(t, p), exceeds, "{at}");
                checked += 1;
            }
            if case % 3 == 0 {
                assert_eq!(
                    t,
                    u64::MAX,
                    "case {case}: the stream reached the end of time"
                );
            }
        }
        assert_eq!(checked, 120 * 300);
    }

    #[test]
    fn sketch_equality_ignores_how_far_the_bucket_array_grew() {
        let mut grown = QuantileSketch::new();
        grown.record(1 << 40);
        let mut other = QuantileSketch::new();
        other.record(1 << 40);
        grown.subtract(&other);
        assert_eq!(grown, QuantileSketch::new());
        grown.record(3);
        other.clear();
        other.record(3);
        assert_eq!(grown, other);
        other.record(4);
        assert_ne!(grown, other);
    }

    #[test]
    fn drop_rate_alert_fires_and_resolves_edge_triggered() {
        let m = SloMonitor::enabled(vec![rule(AlertMetric::DropRate, 1, 1_000, 0.5)]);
        let r = Recorder::of(&m);
        // Two deliveries, then three drops: rate crosses 0.5 at the 3rd drop.
        r.delivered(10, 1);
        r.delivered(20, 1);
        r.dropped(30, 1);
        r.dropped(40, 1);
        assert_eq!(m.alerts_fired(), 0, "rate 2/4 is not above 0.5");
        r.dropped(50, 1);
        assert_eq!(m.alerts_fired(), 1, "rate 3/5 crossed the threshold");
        r.dropped(60, 1);
        assert_eq!(
            m.alerts_fired(),
            1,
            "edge-triggered: no refire while firing"
        );
        for t in 0..10u64 {
            r.delivered(70 + t, 1);
        }
        assert_eq!(m.alerts_resolved(), 1, "rate fell back under the threshold");
        let events = m.alert_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, "alert_fired");
        assert_eq!(events[0].t, Nanos(50));
        assert_eq!(events[1].kind, "alert_resolved");
    }

    #[test]
    fn other_tenants_do_not_trip_a_rule() {
        let m = SloMonitor::enabled(vec![rule(AlertMetric::DropRate, 1, 1_000, 0.0)]);
        let r = Recorder::of(&m);
        r.dropped(5, 2);
        assert_eq!(m.alerts_fired(), 0);
        r.dropped(6, 1);
        assert_eq!(m.alerts_fired(), 1);
    }

    #[test]
    fn latency_quantile_alert_uses_the_sliding_window() {
        let m = SloMonitor::enabled(vec![rule(AlertMetric::QueueDelayP99, 3, 800, 5_000.0)]);
        let r = Recorder::of(&m);
        r.dequeued(10, 3, 100, false);
        assert_eq!(m.alerts_fired(), 0);
        r.dequeued(20, 3, 50_000, false);
        assert_eq!(m.alerts_fired(), 1);
        // The slow sample expires out of the window; the next dequeue
        // re-evaluates and resolves.
        r.dequeued(2_000, 3, 10, false);
        assert_eq!(m.alerts_resolved(), 1);
    }

    #[test]
    fn inversion_rate_alert() {
        let m = SloMonitor::enabled(vec![rule(AlertMetric::InversionRate, 2, 1_000, 0.4)]);
        let r = Recorder::of(&m);
        r.dequeued(1, 2, 10, false);
        r.dequeued(2, 2, 10, true);
        assert_eq!(m.alerts_fired(), 1, "1/2 inversions over threshold 0.4");
    }

    #[test]
    fn disabled_monitor_is_inert() {
        let m = SloMonitor::disabled();
        let r = Recorder::of(&m);
        assert!(!m.is_enabled());
        r.dropped(1, 1);
        r.delivered(2, 1);
        r.dequeued(3, 1, 10, true);
        r.completed(4, 1, 3);
        assert_eq!(m.alerts_fired(), 0);
        assert_eq!(m.export_jsonl(), "");
        assert!(m.alert_events().is_empty());
    }

    #[test]
    fn export_parses_and_renders_a_health_table() {
        let m = SloMonitor::enabled(vec![rule(AlertMetric::DropRate, 1, 1_000, 0.0)]);
        let r = Recorder::of(&m);
        r.delivered(10, 1);
        r.dropped(20, 1);
        r.dequeued(30, 1, 500, true);
        r.completed(40, 1, 30);
        r.delivered(50, 2);
        let jsonl = m.export_jsonl();
        let export = crate::report::parse(&jsonl).unwrap();
        assert!(export
            .counters
            .iter()
            .any(|c| c.name == "slo_dropped_pkts" && c.value == 1));
        assert!(export
            .gauges
            .iter()
            .any(|g| g.name == "slo_rule_firing" && g.value == 1));
        assert_eq!(export.events.len(), 1, "one fired alert journaled");
        let table = render_health(&export);
        assert!(table.starts_with("tenant"), "{table}");
        assert!(table.contains("T1"), "{table}");
        assert!(table.contains("T2"), "{table}");
        assert!(table.contains("slo_drop_rate_ppm"), "{table}");
        // Two runs over the same feed produce identical bytes.
        let m2 = SloMonitor::enabled(vec![rule(AlertMetric::DropRate, 1, 1_000, 0.0)]);
        let r2 = Recorder::of(&m2);
        r2.delivered(10, 1);
        r2.dropped(20, 1);
        r2.dequeued(30, 1, 500, true);
        r2.completed(40, 1, 30);
        r2.delivered(50, 2);
        assert_eq!(jsonl, m2.export_jsonl());
    }

    /// `name`'s value for tenant `T1` in `m`'s export.
    fn t1(m: &SloMonitor, name: &str) -> u64 {
        let key = format!(r#""name":"{name}","labels":{{"tenant":"T1"}},"value":"#);
        let export = m.export_jsonl();
        let at = export
            .find(&key)
            .unwrap_or_else(|| panic!("no {name}:\n{export}"))
            + key.len();
        let digits = export[at..].split(|c: char| !c.is_ascii_digit()).next();
        digits.unwrap().parse().unwrap()
    }

    #[test]
    fn the_monitor_reads_every_flow_beside_a_sampled_ring() {
        let m = SloMonitor::enabled(vec![rule(AlertMetric::FctP50, 1, 1_000, 1e9)]);
        let ring = Tracer::enabled(crate::trace::TraceConfig {
            sample_one_in: 4,
            ..Default::default()
        });
        let joined = m.reading(&ring);
        let drop = TraceKind::Drop { rank: 0 };
        let tx = TraceKind::TxStart {
            bytes: 1,
            tx_ns: 1,
            prop_ns: 1,
        };
        let sampled: Vec<u64> = (0..64).filter(|&f| ring.wants(&drop, false, f)).collect();
        assert!(!sampled.is_empty() && sampled.len() < 32, "{sampled:?}");
        let record = |t: u64, flow: u64, kind: TraceKind, ack: bool| {
            if joined.wants(&kind, ack, flow) {
                joined.record(TraceRecord::new(Nanos(t), flow, 0, 1, kind).as_ack(ack));
            }
        };
        for flow in 0..64 {
            assert!(joined.wants(&drop, false, flow), "flow {flow}");
            assert_eq!(joined.wants(&tx, false, flow), sampled.contains(&flow));
            let t = 100 * flow;
            record(t, flow, TraceKind::FlowStart { size: 1 }, false);
            record(t + 1, flow, drop, false);
            record(t + 2, flow, drop, true);
            for (dup, done) in [(false, false), (true, false), (false, true), (false, true)] {
                record(
                    t + 20,
                    flow,
                    TraceKind::Deliver { latency_ns: 1, dup },
                    false,
                );
                record(
                    t + 20,
                    flow,
                    TraceKind::Ack {
                        latency_ns: 1,
                        done,
                    },
                    true,
                );
            }
            record(t + 60, flow, tx, false);
        }
        // Every flow's data drop, fresh delivery and completion, and no
        // ACK's drop, duplicate delivery or second completion.
        assert_eq!(t1(&m, "slo_dropped_pkts"), 64);
        assert_eq!(t1(&m, "slo_delivered_pkts"), 3 * 64);
        assert_eq!(t1(&m, "slo_fct_p99_ns"), 20);
        // The ring kept the sampled flows' records alone, and evicted none.
        let kept = ring.snapshot();
        assert!(kept.records.iter().all(|r| sampled.contains(&r.flow)));
        let flows: BTreeSet<u64> = kept.records.iter().map(|r| r.flow).collect();
        assert!(flows.into_iter().eq(sampled.iter().copied()));
        assert_eq!(kept.records.len(), sampled.len() * 12);
        assert_eq!((ring.dropped(), joined.dropped()), (0, 0));
        // The caller's handle still records into the ring alone.
        ring.record(TraceRecord::new(Nanos(9_999), sampled[0], 0, 1, drop));
        assert_eq!(ring.snapshot().records.len(), sampled.len() * 12 + 1);
        assert_eq!(t1(&m, "slo_dropped_pkts"), 64);
    }

    #[test]
    fn health_table_orders_tenants_numerically() {
        let jsonl = concat!(
            r#"{"type":"counter","name":"x","labels":{"tenant":"T2"},"value":2}"#,
            "\n",
            r#"{"type":"counter","name":"x","labels":{"tenant":"T10"},"value":10}"#,
            "\n",
            r#"{"type":"counter","name":"x","labels":{"tenant":"T1"},"value":1}"#,
            "\n",
        );
        let table = render_health(&crate::report::parse(jsonl).unwrap());
        let t1 = table.find("T1\n").or_else(|| table.find("T1 ")).unwrap();
        let t2 = table.find("T2").unwrap();
        let t10 = table.find("T10").unwrap();
        assert!(
            t1 < t2 && t2 < t10,
            "numeric tenant order expected:\n{table}"
        );
    }

    #[test]
    fn metric_names_roundtrip() {
        for &m in ALERT_METRICS {
            assert_eq!(AlertMetric::parse(m.name()), Some(m));
        }
        assert_eq!(AlertMetric::parse("nope"), None);
    }
}
