//! Telemetry wrapper: reports every queue's behaviour through the unified
//! [`qvisor_telemetry`] subsystem.
//!
//! This is the single metrics path for scheduler models. It counts offered,
//! admitted, dropped, and dequeued packets, tracks occupancy gauges,
//! detects *rank inversions* per dequeue (the standard fidelity metric for
//! PIFO approximations — a dequeue is an inversion when some queued packet
//! has a strictly lower rank), and records per-packet queueing delay.
//!
//! It is also the scheduler's hook into the [`qvisor_telemetry::trace`]
//! flight recorder: when handed an enabled [`Tracer`], every enqueue,
//! dequeue, drop, and inversion of a sampled flow becomes a lifecycle span
//! on this queue's track — and inversions name the exact packet that was
//! overtaken, not just a count.
//!
//! When both the [`Telemetry`] handle and the [`Tracer`] are disabled the
//! wrapper keeps no mirror state and each operation adds only a branch.
//! Over an exact PIFO it keeps none at all: a PIFO dequeues its minimum by
//! construction, so every inversion it could report is zero.
//!
//! The wrapper is owed observations, not queue operations: a caller that
//! knows the queue is empty and would dequeue at once may hand the packet
//! to [`InstrumentedQueue::pass`], which reports what that enqueue and
//! dequeue would have reported and touches neither the queue nor the mirror.

use crate::queue::{Enqueue, PacketQueue};
use crate::rank_index::RankIndex;
use qvisor_sim::{Nanos, Packet, PacketKind, Rank};
use qvisor_telemetry::{
    Profiler, QueueMetrics, SloMonitor, Telemetry, TraceKind, TraceRecord, Tracer,
};

/// A resident packet as the mirror knows it. ACKs share `(flow, seq)` with
/// the data packet they acknowledge, so `ack` keeps the two distinct; the
/// tenant tells a cross-tenant inversion from a tenant reordering its own
/// packets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Resident {
    flow: u64,
    seq: u64,
    ack: bool,
    tenant: u16,
}

fn identity(p: &Packet) -> Resident {
    Resident {
        flow: p.flow.0,
        seq: p.seq,
        ack: matches!(p.kind, PacketKind::Ack),
        tenant: p.tenant.0,
    }
}

/// Wraps any [`PacketQueue`] and reports its behaviour as telemetry.
///
/// Metrics are labelled with the queue's name (`queue`) and discipline
/// (`kind`, from [`PacketQueue::kind`]), and live in one [`QueueMetrics`]
/// block:
///
/// | metric | type | meaning |
/// |---|---|---|
/// | `sched_offered_pkts` | counter | packets offered to the queue |
/// | `sched_admitted_pkts` | counter | packets admitted |
/// | `sched_dropped_pkts` | counter | rejected arrivals + evicted residents |
/// | `sched_dequeued_pkts` | counter | packets dequeued |
/// | `sched_rank_inversions` | counter | dequeues that were rank inversions |
/// | `sched_depth_pkts` | gauge | current occupancy in packets |
/// | `sched_depth_bytes` | gauge | current occupancy in bytes |
/// | `sched_sojourn_ns` | histogram | per-packet queueing delay |
///
/// Wall-clock cost of the wrapped operations aggregates under the
/// `sched_enqueue` / `sched_dequeue` profile sites.
pub struct InstrumentedQueue<Q: PacketQueue> {
    inner: Q,
    enabled: bool,
    /// The inner discipline is an exact `fifo` or `pifo`: enqueue then
    /// dequeue on it, empty, is the identity on the packet.
    exact: bool,
    /// Mirror of resident packets: identities by rank, arrival order within
    /// a rank. Keeps inversion detection O(1) per operation and independent
    /// of the inner model, and lets an inversion name the overtaken packet.
    /// `None` over a `pifo`, whose dequeue is the mirror's first entry by
    /// construction; empty when disabled.
    mirror: Option<RankIndex<Resident>>,
    tracer: Tracer,
    /// Streaming SLO monitor fed per-tenant dequeue waits and inversions
    /// (disabled by default; attach with [`Self::with_monitor`]).
    monitor: SloMonitor,
    trace_label: u32,
    metrics: QueueMetrics,
    enq_prof: Profiler,
    deq_prof: Profiler,
}

impl<Q: PacketQueue> InstrumentedQueue<Q> {
    /// Wrap `inner`, registering metrics labelled `queue=queue_label` on
    /// `telemetry`, with packet tracing disabled.
    pub fn new(inner: Q, telemetry: &Telemetry, queue_label: &str) -> InstrumentedQueue<Q> {
        InstrumentedQueue::with_tracer(inner, telemetry, &Tracer::disabled(), queue_label)
    }

    /// Wrap `inner`, reporting metrics on `telemetry` and lifecycle spans
    /// of sampled flows on `tracer` (the queue's track is named
    /// `queue_label`). Either handle may be disabled independently.
    pub fn with_tracer(
        inner: Q,
        telemetry: &Telemetry,
        tracer: &Tracer,
        queue_label: &str,
    ) -> InstrumentedQueue<Q> {
        let kind = inner.kind();
        InstrumentedQueue {
            enabled: telemetry.is_enabled() || tracer.is_enabled(),
            exact: matches!(kind, "fifo" | "pifo"),
            mirror: (kind != "pifo").then(RankIndex::new),
            tracer: tracer.clone(),
            monitor: SloMonitor::disabled(),
            trace_label: tracer.intern(queue_label),
            metrics: telemetry.queue_metrics(&[("queue", queue_label), ("kind", kind)]),
            enq_prof: telemetry.profiler("sched_enqueue"),
            deq_prof: telemetry.profiler("sched_dequeue"),
            inner,
        }
    }

    /// Attach a streaming SLO monitor: every dequeue feeds the packet's
    /// tenant, its queueing delay, and whether the dequeue was a
    /// cross-tenant rank inversion — some resident of a *different* tenant
    /// had a strictly lower rank. (`sched_rank_inversions` and the
    /// tracer's inversion spans count any lower-ranked resident.) An
    /// enabled monitor activates the wrapper even when telemetry and
    /// tracing are both disabled.
    pub fn with_monitor(mut self, monitor: &SloMonitor) -> InstrumentedQueue<Q> {
        self.enabled = self.enabled || monitor.is_enabled();
        self.monitor = monitor.clone();
        self
    }

    /// The wrapped queue.
    pub fn inner(&self) -> &Q {
        &self.inner
    }

    /// The queue's interned track on its tracer ([`NO_LABEL`] when
    /// tracing is disabled).
    ///
    /// [`NO_LABEL`]: qvisor_telemetry::trace::NO_LABEL
    pub fn trace_label(&self) -> u32 {
        self.trace_label
    }

    /// Dequeues counted so far (0 when the telemetry handle is disabled).
    pub fn dequeued_count(&self) -> u64 {
        self.metrics.dequeued()
    }

    /// Packets lost so far: rejected arrivals plus evicted residents.
    pub fn dropped_count(&self) -> u64 {
        self.metrics.dropped()
    }

    /// Rank inversions counted so far.
    pub fn inversion_count(&self) -> u64 {
        self.metrics.inversions()
    }

    /// Whether [`Self::pass`] may stand in for enqueue-then-dequeue on this
    /// queue while it is empty: only over an exact `fifo` or `pifo`. Every
    /// other discipline keeps per-packet state (SP-PIFO's bounds, AIFO's
    /// window, a tree's virtual times) that an enqueue must update.
    pub fn passes(&self) -> bool {
        self.exact
    }

    /// Report `p` as enqueued and dequeued at `now` without queueing it:
    /// exactly what [`PacketQueue::enqueue`] then [`PacketQueue::dequeue`]
    /// emit on an empty queue, in the same order, with the inner queue and
    /// the mirror left alone (both would end as they began). `p` stays
    /// where it is, unstamped: `enqueued_at` is read only by a dequeue, after
    /// an enqueue has stamped it. The caller guarantees [`Self::passes`], an
    /// empty queue, and that `p` fits the empty buffer.
    pub fn pass(&self, p: &Packet, now: Nanos) {
        debug_assert!(self.exact && self.inner.is_empty());
        if !self.enabled {
            return;
        }
        let rank = p.txf_rank;
        {
            let _scope = self.enq_prof.time();
            self.metrics.offer();
            self.trace(p, now, TraceKind::Enqueue { rank });
            self.metrics.admit();
        }
        let _scope = self.deq_prof.time();
        self.trace(p, now, TraceKind::Dequeue { rank, wait_ns: 0 });
        self.monitor.on_dequeue(now, p.tenant.0, 0, false);
        self.metrics.dequeue(0, false);
        self.metrics.set_depth(0, 0);
    }

    fn note_resident(&mut self, rank: Rank, id: Resident) {
        if let Some(mirror) = &mut self.mirror {
            mirror.push(rank, id);
        }
    }

    fn forget_resident(&mut self, rank: Rank, id: Resident) {
        if let Some(mirror) = &mut self.mirror {
            let found = mirror.remove_first_where(rank, |&r| r == id);
            debug_assert!(found.is_some(), "packet {id:?} not resident at rank {rank}");
        }
    }

    fn update_depth(&self) {
        self.metrics
            .set_depth(self.inner.len() as i64, self.inner.bytes() as i64);
    }

    fn trace(&self, p: &Packet, now: Nanos, kind: TraceKind) {
        if self.tracer.sampled(p.flow.0) {
            self.tracer.record(
                TraceRecord::new(now, p.flow.0, p.seq, p.tenant.0, kind)
                    .at_label(self.trace_label)
                    .as_ack(matches!(p.kind, PacketKind::Ack)),
            );
        }
    }

    /// `Some(cross_tenant)` when `p` leaving overtook a lower-ranked
    /// resident, after tracing the span that names it; `None` otherwise,
    /// and always over a `pifo`. `cross_tenant` (another tenant's packet
    /// was among those overtaken) is computed only for a monitor.
    fn inversion(&self, p: &Packet, now: Nanos) -> Option<bool> {
        let mirror = self.mirror.as_ref()?;
        // The overtaken packet: oldest resident at the best rank.
        let (best, loser) = mirror.first().filter(|&(best, _)| best < p.txf_rank)?;
        self.trace(
            p,
            now,
            TraceKind::Inversion {
                rank: p.txf_rank,
                loser_flow: loser.flow,
                loser_seq: loser.seq,
                loser_rank: best,
            },
        );
        // Only the monitor asks whose packet was overtaken, and only here.
        Some(self.monitor.is_enabled() && mirror.any_below(p.txf_rank, |r| r.tenant != p.tenant.0))
    }
}

impl<Q: PacketQueue> PacketQueue for InstrumentedQueue<Q> {
    fn enqueue(&mut self, mut p: Packet, now: Nanos) -> Enqueue {
        if !self.enabled {
            return self.inner.enqueue(p, now);
        }
        let _scope = self.enq_prof.time();
        self.metrics.offer();
        p.enqueued_at = now;
        let rank = p.txf_rank;
        let id = identity(&p);
        self.trace(&p, now, TraceKind::Enqueue { rank });
        let outcome = self.inner.enqueue(p, now);
        match &outcome {
            Enqueue::Accepted => {
                self.metrics.admit();
                self.note_resident(rank, id);
            }
            Enqueue::AcceptedDropped(dropped) => {
                self.metrics.admit();
                self.note_resident(rank, id);
                self.metrics.drop_pkts(dropped.len() as u64);
                // Evicted packets were residents; drop them from the mirror.
                for d in dropped {
                    self.forget_resident(d.txf_rank, identity(d));
                    self.trace(d, now, TraceKind::Drop { rank: d.txf_rank });
                }
            }
            Enqueue::Rejected(rejected) => {
                self.metrics.drop_pkts(1);
                self.trace(rejected, now, TraceKind::Drop { rank });
            }
        }
        self.update_depth();
        outcome
    }

    fn dequeue(&mut self, now: Nanos) -> Option<Packet> {
        if !self.enabled {
            return self.inner.dequeue(now);
        }
        let _scope = self.deq_prof.time();
        let p = self.inner.dequeue(now)?;
        self.forget_resident(p.txf_rank, identity(&p));
        let wait = now.saturating_sub(p.enqueued_at).as_nanos();
        self.trace(
            &p,
            now,
            TraceKind::Dequeue {
                rank: p.txf_rank,
                wait_ns: wait,
            },
        );
        let inversion = self.inversion(&p, now);
        let cross_tenant = inversion == Some(true);
        self.monitor.on_dequeue(now, p.tenant.0, wait, cross_tenant);
        self.metrics.dequeue(wait, inversion.is_some());
        self.update_depth();
        Some(p)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn bytes(&self) -> u64 {
        self.inner.bytes()
    }

    fn head_rank(&self) -> Option<Rank> {
        self.inner.head_rank()
    }

    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fifo::FifoQueue;
    use crate::pifo::PifoQueue;
    use crate::queue::Capacity;
    use qvisor_sim::{FlowId, NodeId, TenantId};

    fn pkt(seq: u64, rank: Rank) -> Packet {
        flow_pkt(1, seq, rank)
    }

    fn flow_pkt(flow: u64, seq: u64, rank: Rank) -> Packet {
        tenant_pkt(0, flow, seq, rank)
    }

    fn tenant_pkt(tenant: u16, flow: u64, seq: u64, rank: Rank) -> Packet {
        let mut p = Packet::data(
            FlowId(flow),
            TenantId(tenant),
            seq,
            100,
            NodeId(0),
            NodeId(1),
            rank,
            Nanos::ZERO,
        );
        p.txf_rank = rank;
        p
    }

    fn counter(t: &Telemetry, name: &str, q: &str, kind: &str) -> u64 {
        t.counter(name, &[("queue", q), ("kind", kind)]).get()
    }

    /// Entries in the wrapper's inversion mirror; `None` when it keeps none.
    fn mirrored<Q: PacketQueue>(q: &InstrumentedQueue<Q>) -> Option<usize> {
        q.mirror.as_ref().map(RankIndex::len)
    }

    #[test]
    fn counts_flow_through_telemetry() {
        let t = Telemetry::enabled();
        let mut q = InstrumentedQueue::new(FifoQueue::new(Capacity::UNBOUNDED), &t, "q0");
        q.enqueue(pkt(0, 9), Nanos::ZERO);
        q.enqueue(pkt(1, 1), Nanos::ZERO);
        q.dequeue(Nanos(500)); // rank 9 leaves while rank 1 waits: inversion
        assert_eq!(counter(&t, "sched_offered_pkts", "q0", "fifo"), 2);
        assert_eq!(counter(&t, "sched_admitted_pkts", "q0", "fifo"), 2);
        assert_eq!(counter(&t, "sched_dequeued_pkts", "q0", "fifo"), 1);
        assert_eq!(counter(&t, "sched_rank_inversions", "q0", "fifo"), 1);
        assert_eq!(
            t.gauge("sched_depth_pkts", &[("queue", "q0"), ("kind", "fifo")])
                .get(),
            1
        );
        // Sojourn: one sample of 500 ns.
        let h = t.histogram("sched_sojourn_ns", &[("queue", "q0"), ("kind", "fifo")]);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(1.0), Some(500));
    }

    #[test]
    fn pifo_has_zero_inversions() {
        let t = Telemetry::enabled();
        let mut q = InstrumentedQueue::new(PifoQueue::new(Capacity::UNBOUNDED), &t, "q0");
        for (i, r) in [5u64, 1, 9, 3, 7].into_iter().enumerate() {
            q.enqueue(pkt(i as u64, r), Nanos::ZERO);
        }
        while q.dequeue(Nanos::ZERO).is_some() {}
        assert_eq!(q.inversion_count(), 0);
        assert_eq!(q.dequeued_count(), 5);
    }

    #[test]
    fn drop_accounting_covers_rejects_and_evictions() {
        let t = Telemetry::enabled();
        let mut q = InstrumentedQueue::new(PifoQueue::new(Capacity::bytes(200)), &t, "q0");
        q.enqueue(pkt(0, 5), Nanos::ZERO);
        q.enqueue(pkt(1, 6), Nanos::ZERO);
        q.enqueue(pkt(2, 1), Nanos::ZERO); // evicts rank 6
        q.enqueue(pkt(3, 9), Nanos::ZERO); // rejected
        assert_eq!(counter(&t, "sched_offered_pkts", "q0", "pifo"), 4);
        assert_eq!(counter(&t, "sched_admitted_pkts", "q0", "pifo"), 3);
        assert_eq!(counter(&t, "sched_dropped_pkts", "q0", "pifo"), 2);
        // Mirror stays consistent: drain without panic.
        while q.dequeue(Nanos::ZERO).is_some() {}
        assert_eq!(counter(&t, "sched_dequeued_pkts", "q0", "pifo"), 2);
    }

    fn inversion_monitor() -> SloMonitor {
        use qvisor_telemetry::{AlertMetric, AlertRule};
        SloMonitor::enabled(vec![AlertRule {
            metric: AlertMetric::InversionRate,
            tenant: 0,
            window_ns: 1_000,
            threshold: 0.4,
        }])
    }

    #[test]
    fn monitor_feed_sees_waits_and_inversions() {
        let t = Telemetry::disabled();
        let monitor = inversion_monitor();
        let mut q = InstrumentedQueue::new(FifoQueue::new(Capacity::UNBOUNDED), &t, "q0")
            .with_monitor(&monitor);
        q.enqueue(tenant_pkt(0, 1, 0, 9), Nanos::ZERO);
        q.enqueue(tenant_pkt(1, 2, 0, 1), Nanos::ZERO);
        // Tenant 0's rank 9 leaves while tenant 1's rank 1 waits.
        q.dequeue(Nanos(500));
        assert_eq!(monitor.alerts_fired(), 1, "1/1 inversions over 0.4");
        let export = monitor.export_jsonl();
        assert!(export.contains("slo_rank_inversions"), "{export}");
        assert!(export.contains("slo_queue_delay_p50_ns"), "{export}");
    }

    #[test]
    fn monitor_ignores_a_tenants_own_reordering() {
        let t = Telemetry::enabled();
        let monitor = inversion_monitor();
        let mut q = InstrumentedQueue::new(FifoQueue::new(Capacity::UNBOUNDED), &t, "q0")
            .with_monitor(&monitor);
        q.enqueue(tenant_pkt(0, 1, 0, 9), Nanos::ZERO);
        q.enqueue(tenant_pkt(0, 1, 1, 1), Nanos::ZERO);
        q.enqueue(tenant_pkt(1, 2, 0, 9), Nanos::ZERO);
        // Rank 9 overtakes the same tenant's rank 1; the other tenant's
        // packet ranks no lower, so no isolation promise was broken.
        q.dequeue(Nanos(500));
        assert_eq!(q.inversion_count(), 1, "still a scheduling inversion");
        assert_eq!(monitor.alerts_fired(), 0);
        assert!(
            monitor
                .export_jsonl()
                .contains(r#""name":"slo_rank_inversions","labels":{"tenant":"T0"},"value":0"#),
            "{}",
            monitor.export_jsonl()
        );
    }

    #[test]
    fn disabled_handle_is_transparent() {
        let t = Telemetry::disabled();
        let mut q = InstrumentedQueue::new(FifoQueue::new(Capacity::UNBOUNDED), &t, "q0");
        q.enqueue(pkt(0, 9), Nanos::ZERO);
        assert_eq!(q.len(), 1);
        assert_eq!(mirrored(&q), Some(0), "no mirror state when disabled");
        let p = q.dequeue(Nanos(5)).unwrap();
        // Disabled instrumentation must not stamp packets.
        assert_eq!(p.enqueued_at, Nanos::ZERO);
        assert_eq!(q.dequeued_count(), 0);
    }

    /// The three observers of one wrapper, everything they export about
    /// simulated behaviour, and the self-profiler's scope counts.
    struct Observers {
        telemetry: Telemetry,
        tracer: Tracer,
        monitor: SloMonitor,
    }

    impl Observers {
        fn enabled() -> Observers {
            Observers {
                telemetry: Telemetry::enabled(),
                tracer: Tracer::enabled(qvisor_telemetry::TraceConfig::default()),
                monitor: inversion_monitor(),
            }
        }

        fn wrap<Q: PacketQueue>(&self, inner: Q) -> InstrumentedQueue<Q> {
            InstrumentedQueue::with_tracer(inner, &self.telemetry, &self.tracer, "q0")
                .with_monitor(&self.monitor)
        }

        /// `[trace, monitor, telemetry minus its host-wall-clock lines]`,
        /// then the `sched_enqueue` / `sched_dequeue` scope counts.
        fn exports(&self) -> ([String; 3], [u64; 2]) {
            let simulated: String = (self.telemetry.export_jsonl().lines())
                .filter(|line| !line.starts_with("{\"type\":\"profile\""))
                .flat_map(|line| [line, "\n"])
                .collect();
            (
                [
                    self.tracer.snapshot().to_jsonl(),
                    self.monitor.export_jsonl(),
                    simulated,
                ],
                ["sched_enqueue", "sched_dequeue"]
                    .map(|site| self.telemetry.profiler(site).stat().count),
            )
        }
    }

    /// `pass` ≡ `enqueue` then `dequeue` on an empty queue: every export,
    /// every count, and the packet, but for the `enqueued_at` an enqueue
    /// stamps.
    fn pass_matches_enqueue_then_dequeue<Q: PacketQueue>(make: impl Fn() -> Q) {
        let (passed, queued) = (Observers::enabled(), Observers::enabled());
        let (a, mut b) = (passed.wrap(make()), queued.wrap(make()));
        assert!(a.passes());
        let mut rng = qvisor_sim::SimRng::seed_from(22);
        let mut now = Nanos::ZERO;
        for seq in 0..500 {
            now += Nanos(rng.below(2_000));
            let rank = [rng.below(8), 4_090 + rng.below(12), u64::MAX - rng.below(3)]
                [rng.below(3) as usize];
            let mut p = tenant_pkt(rng.below(3) as u16, rng.below(5), seq, rank);
            if rng.below(4) == 0 {
                p = p.ack_for(40, now);
                p.txf_rank = rank;
            }
            a.pass(&p, now);
            assert!(b.enqueue(p.clone(), now).accepted());
            let mut out = b.dequeue(now).unwrap();
            assert_eq!(out.enqueued_at, now);
            out.enqueued_at = p.enqueued_at;
            assert_eq!(format!("{out:?}"), format!("{p:?}"));
            assert_eq!((a.len(), a.bytes()), (0, 0));
            assert_eq!(mirrored(&a).unwrap_or(0), 0);
        }
        assert_eq!(a.dequeued_count(), 500);
        assert_eq!(a.dequeued_count(), b.dequeued_count());
        assert_eq!(passed.exports(), queued.exports());
    }

    #[test]
    fn pass_is_enqueue_then_dequeue_on_an_empty_exact_queue() {
        pass_matches_enqueue_then_dequeue(|| PifoQueue::new(Capacity::bytes(3_000)));
        pass_matches_enqueue_then_dequeue(|| FifoQueue::new(Capacity::bytes(3_000)));
    }

    #[test]
    fn pass_on_a_disabled_wrapper_is_the_identity() {
        let t = Telemetry::disabled();
        let q = InstrumentedQueue::new(PifoQueue::new(Capacity::UNBOUNDED), &t, "q0");
        q.pass(&pkt(0, 9), Nanos(5));
        assert_eq!((q.dequeued_count(), q.len()), (0, 0));
    }

    #[test]
    fn only_an_exact_inner_offers_the_pass() {
        use crate::{AifoQueue, PathStep, PifoTree, TreePath, TreeShape};
        use crate::{SpPifoMapper, StaticRangeMapper, StrictPriorityBank};
        let t = Telemetry::enabled();
        let cap = Capacity::bytes(3_000);
        let passes = |inner: Box<dyn PacketQueue>| InstrumentedQueue::new(inner, &t, "q").passes();
        assert!(passes(Box::new(FifoQueue::new(cap))));
        assert!(passes(Box::new(PifoQueue::new(cap))));
        assert!(!passes(Box::new(AifoQueue::new(cap, 8, 0.1))));
        assert!(!passes(Box::new(StrictPriorityBank::new(
            SpPifoMapper::new(4),
            cap
        ))));
        assert!(!passes(Box::new(StrictPriorityBank::new(
            StaticRangeMapper::new(0, 9, 4),
            cap
        ))));
        let classify = |p: &Packet| TreePath {
            steps: vec![PathStep { child: 0, rank: 0 }],
            leaf_rank: p.txf_rank,
        };
        let shape = TreeShape::Internal(vec![TreeShape::Leaf]);
        assert!(!passes(Box::new(PifoTree::new(&shape, classify, cap))));
    }

    /// The mirror this wrapper kept before it was a `RankIndex`: rank →
    /// identities in arrival order. The reference the new one must match.
    #[derive(Default)]
    struct ModelMirror(std::collections::BTreeMap<Rank, Vec<Resident>>);

    impl ModelMirror {
        fn note(&mut self, p: &Packet) {
            self.0.entry(p.txf_rank).or_default().push(identity(p));
        }

        fn forget(&mut self, p: &Packet) {
            let ids = self.0.get_mut(&p.txf_rank).expect("rank resident");
            let pos = ids.iter().position(|&r| r == identity(p));
            ids.remove(pos.expect("packet resident"));
            if ids.is_empty() {
                self.0.remove(&p.txf_rank);
            }
        }

        /// `(loser, loser_rank, cross_tenant)` if `p` leaving is an inversion.
        fn overtaken_by(&self, p: &Packet) -> Option<(Resident, Rank, bool)> {
            let (&best, ids) = self.0.first_key_value()?;
            (best < p.txf_rank).then(|| {
                let cross = (self.0.range(..p.txf_rank))
                    .any(|(_, ids)| ids.iter().any(|r| r.tenant != p.tenant.0));
                (ids[0], best, cross)
            })
        }
    }

    /// Cross-tenant inversions the monitor has counted against `tenant`.
    fn monitored_inversions(monitor: &SloMonitor, tenant: u16) -> u64 {
        let key =
            format!(r#""name":"slo_rank_inversions","labels":{{"tenant":"T{tenant}"}},"value":"#);
        let export = monitor.export_jsonl();
        let Some(at) = export.find(&key) else {
            return 0;
        };
        let digits = export[at + key.len()..].split(|c: char| !c.is_ascii_digit());
        digits.into_iter().next().unwrap().parse().unwrap()
    }

    /// A random enqueue / evicting enqueue / reject / dequeue stream: at
    /// each step, `Some(packet)` to offer or `None` to dequeue. Ranks on
    /// both sides of `DENSE_RANKS`, four tenants, ACKs, and few flows and
    /// sequence numbers, so identities repeat.
    fn random_ops(seed: u64) -> impl Iterator<Item = (Nanos, Option<Packet>)> {
        let mut rng = qvisor_sim::SimRng::seed_from(seed);
        (0..4_000u64).map(move |step| {
            let now = Nanos(step);
            if rng.below(5) >= 3 {
                return (now, None);
            }
            let rank = [
                rng.below(6),
                crate::rank_index::DENSE_RANKS - 2 + rng.below(4),
                u64::MAX - rng.below(2),
            ][rng.below(3) as usize];
            let mut p = tenant_pkt(rng.below(4) as u16, rng.below(3), rng.below(4), rank);
            if rng.below(3) == 0 {
                p = p.ack_for(100, now);
                p.txf_rank = rank;
            }
            (now, Some(p))
        })
    }

    /// Over [`random_ops`]: after every dequeue the wrapper's inversion
    /// count, the span naming the overtaken packet and the monitor's
    /// cross-tenant count are what the model mirror says.
    fn mirror_matches_model<Q: PacketQueue>(inner: Q, seed: u64) {
        let obs = Observers {
            // A four-record ring: the newest spans, cheap to snapshot.
            tracer: Tracer::enabled(qvisor_telemetry::TraceConfig {
                capacity: 4,
                ..Default::default()
            }),
            ..Observers::enabled()
        };
        let mut q = obs.wrap(inner);
        let exact = q.kind() == "pifo";
        assert_eq!(
            mirrored(&q).is_none(),
            exact,
            "only a PIFO drops the mirror"
        );
        let mut model = ModelMirror::default();
        let (mut inversions, mut cross) = (0u64, [0u64; 4]);
        let (mut evicted, mut rejected) = (0, 0);
        for (now, op) in random_ops(seed) {
            let step = now.0;
            if let Some(p) = op {
                match q.enqueue(p.clone(), now) {
                    Enqueue::Accepted => model.note(&p),
                    Enqueue::AcceptedDropped(victims) => {
                        model.note(&p);
                        evicted += victims.len();
                        victims.iter().for_each(|v| model.forget(v));
                    }
                    Enqueue::Rejected(_) => rejected += 1,
                }
            } else if let Some(p) = q.dequeue(now) {
                model.forget(&p);
                let expected = model.overtaken_by(&p);
                let newest = obs.tracer.snapshot().records.last().unwrap();
                match expected {
                    None => assert_eq!(newest.kind.tag(), "dequeue", "step {step}"),
                    Some((loser, loser_rank, cross_tenant)) => {
                        inversions += 1;
                        cross[p.tenant.index()] += u64::from(cross_tenant);
                        assert_eq!(
                            (newest.flow, newest.seq, newest.ack, newest.kind),
                            (
                                p.flow.0,
                                p.seq,
                                p.kind == PacketKind::Ack,
                                TraceKind::Inversion {
                                    rank: p.txf_rank,
                                    loser_flow: loser.flow,
                                    loser_seq: loser.seq,
                                    loser_rank,
                                }
                            ),
                            "step {step}"
                        );
                    }
                }
                assert_eq!(q.inversion_count(), inversions, "step {step}");
                assert_eq!(
                    monitored_inversions(&obs.monitor, p.tenant.0),
                    cross[p.tenant.index()],
                    "step {step}"
                );
            }
            let resident: usize = model.0.values().map(Vec::len).sum();
            assert_eq!(q.len(), resident);
            assert_eq!(mirrored(&q), (!exact).then_some(resident));
        }
        assert!(evicted + rejected > 0, "the buffer never filled");
        assert_eq!(inversions == 0, exact, "{}: {inversions}", q.kind());
        assert_eq!(
            cross.iter().sum::<u64>() == 0,
            exact,
            "{}: {cross:?}",
            q.kind()
        );
    }

    #[test]
    fn mirror_matches_the_btreemap_model() {
        use crate::{SpPifoMapper, StrictPriorityBank};
        let cap = Capacity::bytes(1_200);
        for seed in 0..4 {
            mirror_matches_model(FifoQueue::new(cap), seed);
            mirror_matches_model(PifoQueue::new(cap), seed);
            mirror_matches_model(StrictPriorityBank::new(SpPifoMapper::new(4), cap), seed);
        }
    }

    /// An exact PIFO under another name: its `kind` is not `pifo`, so its
    /// wrapper keeps the mirror a real one goes without.
    struct MirroredPifo(PifoQueue);

    impl PacketQueue for MirroredPifo {
        fn enqueue(&mut self, p: Packet, now: Nanos) -> Enqueue {
            self.0.enqueue(p, now)
        }
        fn dequeue(&mut self, now: Nanos) -> Option<Packet> {
            self.0.dequeue(now)
        }
        fn len(&self) -> usize {
            self.0.len()
        }
        fn bytes(&self) -> u64 {
            self.0.bytes()
        }
        fn head_rank(&self) -> Option<Rank> {
            self.0.head_rank()
        }
        fn kind(&self) -> &'static str {
            "pifo_mirrored"
        }
    }

    #[test]
    fn an_exact_pifo_exports_the_same_without_its_mirror() {
        let cap = Capacity::bytes(1_200);
        for seed in 0..4 {
            let (bare, mirrored_obs) = (Observers::enabled(), Observers::enabled());
            let mut a = bare.wrap(PifoQueue::new(cap));
            let mut b = mirrored_obs.wrap(MirroredPifo(PifoQueue::new(cap)));
            assert_eq!((mirrored(&a), mirrored(&b)), (None, Some(0)));
            for (now, op) in random_ops(seed) {
                let (x, y) = match op {
                    Some(p) => (
                        format!("{:?}", a.enqueue(p.clone(), now)),
                        format!("{:?}", b.enqueue(p, now)),
                    ),
                    None => (
                        format!("{:?}", a.dequeue(now)),
                        format!("{:?}", b.dequeue(now)),
                    ),
                };
                assert_eq!(x, y, "seed {seed} at {now:?}");
            }
            assert!(a.dropped_count() > 0 && a.dequeued_count() > 0);
            let ([trace, monitor, telemetry], scopes) = bare.exports();
            let ([trace_b, monitor_b, telemetry_b], scopes_b) = mirrored_obs.exports();
            assert_eq!(trace, trace_b, "seed {seed}");
            assert_eq!(monitor, monitor_b, "seed {seed}");
            let renamed = telemetry_b.replace(r#""kind":"pifo_mirrored""#, r#""kind":"pifo""#);
            assert_eq!(telemetry, renamed, "seed {seed}");
            assert_eq!(scopes, scopes_b);
            assert_eq!(a.inversion_count(), 0);
        }
    }

    mod traced {
        use super::*;
        use qvisor_telemetry::{TraceConfig, TraceData};

        fn spans_of(data: &TraceData, kind_tag: &str) -> usize {
            data.records
                .iter()
                .filter(|r| r.kind.tag() == kind_tag)
                .count()
        }

        #[test]
        fn lifecycle_spans_reach_the_tracer() {
            let t = Telemetry::disabled();
            let tr = Tracer::enabled(TraceConfig::default());
            let mut q =
                InstrumentedQueue::with_tracer(FifoQueue::new(Capacity::UNBOUNDED), &t, &tr, "q0");
            q.enqueue(pkt(0, 9), Nanos::ZERO);
            q.enqueue(pkt(1, 1), Nanos(10));
            q.dequeue(Nanos(500));
            let data = tr.snapshot();
            assert_eq!(spans_of(&data, "enqueue"), 2);
            assert_eq!(spans_of(&data, "dequeue"), 1);
            assert_eq!(spans_of(&data, "inversion"), 1);
            // Dequeue carries the measured residency.
            let dq = data
                .records
                .iter()
                .find(|r| r.kind.tag() == "dequeue")
                .unwrap();
            assert_eq!(
                dq.kind,
                TraceKind::Dequeue {
                    rank: 9,
                    wait_ns: 500
                }
            );
            assert_eq!(data.labels[dq.label as usize], "q0");
        }

        #[test]
        fn inversion_names_the_overtaken_packet() {
            let t = Telemetry::enabled();
            let tr = Tracer::enabled(TraceConfig::default());
            let mut q =
                InstrumentedQueue::with_tracer(FifoQueue::new(Capacity::UNBOUNDED), &t, &tr, "q0");
            q.enqueue(flow_pkt(3, 0, 9), Nanos::ZERO);
            q.enqueue(flow_pkt(5, 7, 1), Nanos::ZERO);
            q.dequeue(Nanos(100)); // flow 3 overtakes flow 5
            let data = tr.snapshot();
            let inv = data
                .records
                .iter()
                .find(|r| r.kind.tag() == "inversion")
                .expect("inversion span");
            assert_eq!(inv.flow, 3);
            assert_eq!(
                inv.kind,
                TraceKind::Inversion {
                    rank: 9,
                    loser_flow: 5,
                    loser_seq: 7,
                    loser_rank: 1,
                }
            );
        }

        #[test]
        fn queue_drops_become_drop_spans() {
            let t = Telemetry::enabled();
            let tr = Tracer::enabled(TraceConfig::default());
            let mut q =
                InstrumentedQueue::with_tracer(PifoQueue::new(Capacity::bytes(200)), &t, &tr, "q0");
            q.enqueue(flow_pkt(1, 0, 5), Nanos::ZERO);
            q.enqueue(flow_pkt(2, 0, 6), Nanos::ZERO);
            q.enqueue(flow_pkt(3, 0, 1), Nanos::ZERO); // evicts flow 2
            q.enqueue(flow_pkt(4, 0, 9), Nanos::ZERO); // rejected
            let data = tr.snapshot();
            let drops: Vec<u64> = data
                .records
                .iter()
                .filter(|r| r.kind.tag() == "drop")
                .map(|r| r.flow)
                .collect();
            assert_eq!(drops, vec![2, 4]);
        }

        #[test]
        fn unsampled_flows_leave_no_spans() {
            let t = Telemetry::disabled();
            // A sparse sampler: find a flow it skips.
            let tr = Tracer::enabled(TraceConfig {
                sample_one_in: 1_000_000,
                ..TraceConfig::default()
            });
            let skipped = (0..u64::MAX).find(|&f| !tr.sampled(f)).unwrap();
            let mut q =
                InstrumentedQueue::with_tracer(FifoQueue::new(Capacity::UNBOUNDED), &t, &tr, "q0");
            q.enqueue(flow_pkt(skipped, 0, 5), Nanos::ZERO);
            q.dequeue(Nanos(10));
            assert!(tr.is_empty());
        }
    }
}
