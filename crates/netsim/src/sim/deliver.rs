//! Destination-side delivery, ACK generation, and per-tenant stats
//! collection (report counters plus cached telemetry handles).

use super::queues::TenantMetrics;
use super::{FlowState, Simulation};
use crate::report::TenantTraffic;
use qvisor_sim::{json::Value, Nanos, Packet, PacketKind, TenantId};
use qvisor_telemetry::{TraceKind, TraceRecord};
use qvisor_transport::FlowRecord;

impl Simulation {
    pub(in crate::sim) fn tenant_mut(&mut self, t: TenantId) -> &mut TenantTraffic {
        self.report.tenants.entry(t).or_default()
    }

    pub(in crate::sim) fn metrics(&mut self, t: TenantId) -> &TenantMetrics {
        let telemetry = &self.cfg.telemetry;
        self.tenant_metrics.entry(t).or_insert_with(|| {
            let tenant = format!("T{}", t.0);
            let labels = [("tenant", tenant.as_str())];
            TenantMetrics {
                sent_pkts: telemetry.counter("net_sent_pkts", &labels),
                delivered_pkts: telemetry.counter("net_delivered_pkts", &labels),
                delivered_bytes: telemetry.counter("net_delivered_bytes", &labels),
                dropped_pkts: telemetry.counter("net_dropped_pkts", &labels),
                fct_ns: telemetry.histogram("net_fct_ns", &labels),
            }
        })
    }

    /// Record a lifecycle span for `p` on the flight recorder, if its flow
    /// is sampled. Pure observation: never touches simulation state.
    pub(in crate::sim) fn trace_pkt(&self, p: &Packet, now: Nanos, kind: TraceKind) {
        let tracer = &self.cfg.tracer;
        if tracer.sampled(p.flow.0) {
            tracer.record(
                TraceRecord::new(now, p.flow.0, p.seq, p.tenant.0, kind)
                    .as_ack(matches!(p.kind, PacketKind::Ack { .. })),
            );
        }
    }

    pub(in crate::sim) fn deliver(&mut self, p: Packet, now: Nanos) {
        // See `drop_packet`: per-shard in-flight counts may be negative.
        debug_assert!(self.shard.is_some() || self.in_flight > 0);
        self.in_flight -= 1;
        let latency_ns = now.saturating_sub(p.sent_at).as_nanos();
        self.trace_pkt(
            &p,
            now,
            if matches!(p.kind, PacketKind::Ack { .. }) {
                TraceKind::Ack { latency_ns }
            } else {
                TraceKind::Deliver { latency_ns }
            },
        );
        match p.kind {
            PacketKind::Data => {
                let payload = p.size - self.cfg.header_bytes;
                let fresh = match &mut self.flows[p.flow.index()] {
                    FlowState::Reliable { receiver, .. } => receiver.on_data(p.seq, payload),
                    FlowState::Cbr { .. } => unreachable!("data packet on CBR flow"),
                };
                if fresh {
                    let t = self.tenant_mut(p.tenant);
                    t.delivered_pkts += 1;
                    t.delivered_bytes += payload as u64;
                    *self.window_bytes.entry(p.tenant).or_insert(0) += payload as u64;
                    let m = self.metrics(p.tenant);
                    m.delivered_pkts.inc();
                    m.delivered_bytes.add(payload as u64);
                    self.cfg.monitor.on_delivered(now, p.tenant.0);
                }
                // Always ACK (sender dedupes).
                let ack = p.ack_for(self.cfg.ack_bytes, now);
                self.in_flight += 1;
                self.forward(ack.src, ack, now);
            }
            PacketKind::Ack { acked_seq } => {
                let outcome = match &mut self.flows[p.flow.index()] {
                    FlowState::Reliable { sender, .. } => sender.on_ack(acked_seq, now),
                    FlowState::Cbr { .. } => unreachable!("ACK on CBR flow"),
                };
                if let Some(req) = outcome.sends {
                    self.send_data(p.flow, req, 0, now);
                }
                if outcome.completed {
                    let (def, _) = match &self.flows[p.flow.index()] {
                        FlowState::Reliable { sender, .. } => (*sender.def(), ()),
                        FlowState::Cbr { .. } => unreachable!(),
                    };
                    self.report.fct.record(FlowRecord {
                        flow: p.flow,
                        tenant: def.tenant,
                        size: def.size,
                        start: def.start,
                        end: now,
                    });
                    let fct = now.saturating_sub(def.start);
                    self.metrics(def.tenant).fct_ns.record(fct.as_nanos());
                    self.cfg.monitor.on_fct(now, def.tenant.0, fct.as_nanos());
                    self.cfg.telemetry.event(
                        now,
                        "flow_complete",
                        &[
                            ("flow", Value::from(p.flow.0)),
                            ("tenant", Value::from(def.tenant.0 as u64)),
                            ("size_bytes", Value::from(def.size)),
                            ("fct_ns", Value::from(fct)),
                        ],
                    );
                    self.reliable_done += 1;
                }
            }
            PacketKind::Datagram => {
                let payload = p.size.saturating_sub(self.cfg.header_bytes);
                let (met, missed) = match &mut self.flows[p.flow.index()] {
                    FlowState::Cbr { sink, .. } => {
                        sink.on_datagram(p.sent_at, p.deadline, now);
                        match p.deadline {
                            Some(d) if now <= d => (1, 0),
                            Some(_) => (0, 1),
                            None => (0, 0),
                        }
                    }
                    FlowState::Reliable { .. } => unreachable!("datagram on reliable flow"),
                };
                let t = self.tenant_mut(p.tenant);
                t.delivered_pkts += 1;
                t.delivered_bytes += payload as u64;
                t.deadline_met += met;
                t.deadline_missed += missed;
                *self.window_bytes.entry(p.tenant).or_insert(0) += payload as u64;
                let m = self.metrics(p.tenant);
                m.delivered_pkts.inc();
                m.delivered_bytes.add(payload as u64);
                self.cfg.monitor.on_delivered(now, p.tenant.0);
            }
        }
    }
}
