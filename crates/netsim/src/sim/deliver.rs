//! Destination-side delivery, ACK generation, and per-tenant stats
//! collection into the report (telemetry's per-tenant metrics and
//! `flow_complete` events are written from it when the run ends).

use super::queues::TenantState;
use super::{arrival_tie, FlowState, Simulation};
use qvisor_sim::{Nanos, Packet, PacketKind, TenantId};
use qvisor_telemetry::{TraceKind, TraceRecord};
use qvisor_transport::FlowRecord;

impl Simulation {
    /// `t`'s slot of the per-tenant table, created on first touch.
    pub(in crate::sim) fn tenant(&mut self, t: TenantId) -> &mut TenantState {
        if self.tenants.len() <= t.index() {
            self.tenants.resize_with(t.index() + 1, || None);
        }
        self.tenants[t.index()].get_or_insert_with(TenantState::default)
    }

    /// Record a lifecycle span for `p` on the flight recorder, if the
    /// recorder wants it. Pure observation: never touches simulation state.
    pub(in crate::sim) fn trace_pkt(&self, p: &Packet, now: Nanos, kind: TraceKind) {
        let tracer = &self.cfg.tracer;
        let ack = p.kind == PacketKind::Ack;
        if tracer.wants(&kind, ack, p.flow.0) {
            tracer.record(TraceRecord::new(now, p.flow.0, p.seq, p.tenant.0, kind).as_ack(ack));
        }
    }

    pub(in crate::sim) fn deliver(&mut self, p: Packet, now: Nanos) {
        debug_assert!(self.in_flight > 0);
        self.in_flight -= 1;
        let latency_ns = now.saturating_sub(p.sent_at).as_nanos();
        // Each record is made once its verdict is known: after the receiver
        // or sender has seen the packet, before anything it sends.
        match p.kind {
            PacketKind::Data => {
                let payload = p.size - self.cfg.header_bytes;
                // A completed flow has had every sequence delivered.
                let fresh =
                    (self.transport(p.flow)).is_some_and(|t| t.receiver.on_data(p.seq, payload));
                let dup = !fresh;
                self.trace_pkt(&p, now, TraceKind::Deliver { latency_ns, dup });
                if fresh {
                    self.count_delivery(p.tenant, payload);
                }
                // Always ACK (sender dedupes).
                let mut ack = p.ack_for(self.cfg.ack_bytes, now);
                ack.tie = arrival_tie(&ack);
                self.in_flight += 1;
                self.forward(ack.src, ack, now);
            }
            PacketKind::Ack => {
                let outcome = (self.transport(p.flow))
                    .map(|t| t.sender.on_ack(p.seq, now))
                    .unwrap_or_default();
                let done = outcome.completed;
                self.trace_pkt(&p, now, TraceKind::Ack { latency_ns, done });
                if let Some(req) = outcome.sends {
                    self.send_data(p.flow, req, now);
                    self.arm_timer(p.flow);
                }
                if outcome.completed {
                    let FlowState::Reliable { def, transport } = &mut self.flows[p.flow.index()]
                    else {
                        unreachable!("ACK on a CBR stream")
                    };
                    *transport = None;
                    self.report.fct.record(FlowRecord {
                        flow: p.flow,
                        tenant: def.tenant,
                        size: def.size,
                        start: def.start,
                        end: now,
                    });
                }
            }
            PacketKind::Datagram => {
                let dup = false;
                self.trace_pkt(&p, now, TraceKind::Deliver { latency_ns, dup });
                let payload = p.size.saturating_sub(self.cfg.header_bytes);
                let (met, missed) = match &mut self.flows[p.flow.index()] {
                    FlowState::Cbr(stream) => {
                        stream.sink.on_datagram(p.deadline, now);
                        match p.deadline {
                            Some(d) if now <= d => (1, 0),
                            Some(_) => (0, 1),
                            None => (0, 0),
                        }
                    }
                    FlowState::Reliable { .. } => unreachable!("datagram on reliable flow"),
                };
                let t = self.tenant(p.tenant);
                t.traffic.deadline_met += met;
                t.traffic.deadline_missed += missed;
                self.count_delivery(p.tenant, payload);
            }
        }
    }

    /// Account `payload` fresh bytes delivered to `tenant`: report row and
    /// sampling window.
    fn count_delivery(&mut self, tenant: TenantId, payload: u32) {
        let t = self.tenant(tenant);
        t.traffic.delivered_pkts += 1;
        t.traffic.delivered_bytes += payload as u64;
        t.window_bytes += payload as u64;
    }
}
