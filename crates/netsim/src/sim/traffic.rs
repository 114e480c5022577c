//! Traffic sources: reliable flows and CBR streams, packet emission, and
//! retransmission timers.

use super::{arrival_tie, Event, EventKey, Simulation};
use qvisor_ranking::RankCtx;
use qvisor_sim::{FlowId, Nanos, NodeId, Packet, PacketKind, TenantId};
use qvisor_telemetry::TraceKind;
use qvisor_topology::NodeKind;
use qvisor_transport::{
    CbrDef, CbrSource, DatagramSink, FlowDef, ReliableReceiver, ReliableSender, SendReq,
};
use qvisor_workloads::{GeneratedCbr, GeneratedFlow};

/// A reliable flow to add to the simulation.
#[derive(Clone, Copy, Debug)]
pub struct NewFlow {
    /// Owning tenant.
    pub tenant: TenantId,
    /// Source host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Bytes to transfer.
    pub size: u64,
    /// Start time.
    pub start: Nanos,
    /// Optional absolute deadline (rank-function input only).
    pub deadline: Option<Nanos>,
    /// Fair-queueing weight.
    pub weight: u32,
}

impl NewFlow {
    /// A flow with weight 1 and no deadline.
    pub fn new(tenant: TenantId, src: NodeId, dst: NodeId, size: u64, start: Nanos) -> NewFlow {
        NewFlow {
            tenant,
            src,
            dst,
            size,
            start,
            deadline: None,
            weight: 1,
        }
    }
}

/// A CBR stream to add to the simulation.
#[derive(Clone, Copy, Debug)]
pub struct NewCbr {
    /// Owning tenant.
    pub tenant: TenantId,
    /// Source host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Rate in bits per second.
    pub rate_bps: u64,
    /// Datagram wire size, bytes.
    pub pkt_size: u32,
    /// Start time.
    pub start: Nanos,
    /// Stop time.
    pub stop: Nanos,
    /// Deadline = emission + offset.
    pub deadline_offset: Nanos,
}

pub(in crate::sim) enum FlowState {
    Reliable {
        sender: ReliableSender,
        receiver: ReliableReceiver,
    },
    Cbr {
        source: CbrSource,
        sink: DatagramSink,
    },
}

impl Simulation {
    fn assert_host(&self, n: NodeId) {
        assert_eq!(self.topo.node(n).kind, NodeKind::Host, "{n} is not a host");
    }

    /// Add a reliable flow; returns its id.
    pub fn add_flow(&mut self, f: NewFlow) -> FlowId {
        self.assert_host(f.src);
        self.assert_host(f.dst);
        assert_ne!(f.src, f.dst, "flow cannot target its own source");
        assert!(f.size > 0, "empty flow");
        let id = FlowId(self.flows.len() as u64);
        let def = FlowDef {
            id,
            tenant: f.tenant,
            src: f.src,
            dst: f.dst,
            size: f.size,
            start: f.start,
            deadline: f.deadline,
            weight: f.weight,
        };
        self.flows.push(FlowState::Reliable {
            sender: ReliableSender::new(def, self.cfg.mss, self.cfg.cwnd),
            receiver: ReliableReceiver::new(),
        });
        self.reliable_total += 1;
        self.events.schedule_keyed(
            f.start,
            EventKey::flow_event(f.src, id),
            (Event::FlowStart(id), None),
        );
        id
    }

    /// Add a CBR stream; returns its id.
    pub fn add_cbr(&mut self, c: NewCbr) -> FlowId {
        self.assert_host(c.src);
        self.assert_host(c.dst);
        assert_ne!(c.src, c.dst, "stream cannot target its own source");
        let id = FlowId(self.flows.len() as u64);
        let def = CbrDef {
            id,
            tenant: c.tenant,
            src: c.src,
            dst: c.dst,
            rate_bps: c.rate_bps,
            pkt_size: c.pkt_size,
            start: c.start,
            stop: c.stop,
            deadline_offset: c.deadline_offset,
        };
        let source = CbrSource::new(def);
        let first = source.next_at().expect("fresh CBR source has emissions");
        self.flows.push(FlowState::Cbr {
            source,
            sink: DatagramSink::new(),
        });
        self.cbr_live += 1;
        self.events.schedule_keyed(
            first,
            EventKey::flow_event(c.src, id),
            (Event::CbrEmit(id), None),
        );
        id
    }

    /// Add a generated reliable flow (from `qvisor-workloads`).
    pub fn add_generated(&mut self, g: &GeneratedFlow) -> FlowId {
        self.add_flow(NewFlow {
            tenant: g.tenant,
            src: g.src,
            dst: g.dst,
            size: g.size,
            start: g.start,
            deadline: g.deadline,
            weight: 1,
        })
    }

    /// Add a generated CBR stream (from `qvisor-workloads`).
    pub fn add_generated_cbr(&mut self, g: &GeneratedCbr) -> FlowId {
        self.add_cbr(NewCbr {
            tenant: g.tenant,
            src: g.src,
            dst: g.dst,
            rate_bps: g.rate_bps,
            pkt_size: g.pkt_size,
            start: g.start,
            stop: g.stop,
            deadline_offset: g.deadline_offset,
        })
    }

    /// Retransmission timeout for `attempt` (exponential backoff, capped
    /// at 16x the base RTO) — bounds spurious retransmissions of packets
    /// starved behind their own flow's lower-ranked successors.
    fn rto_for(&self, attempt: u32) -> Nanos {
        self.cfg.rto * (1u64 << attempt.min(4))
    }

    /// Account one payload packet entering the network.
    fn count_sent(&mut self, tenant: TenantId) {
        let t = self.tenant(tenant);
        t.traffic.sent_pkts += 1;
        t.metrics.sent_pkts.inc();
        self.in_flight += 1;
    }

    /// Emit one data packet of a reliable flow. `attempt` is 0 for fresh
    /// sends and increments per retransmission of the same sequence.
    pub(in crate::sim) fn send_data(
        &mut self,
        flow: FlowId,
        req: SendReq,
        attempt: u32,
        now: Nanos,
    ) {
        let (def, acked) = match &self.flows[flow.index()] {
            FlowState::Reliable { sender, .. } => {
                (*sender.def(), sender.def().size - sender.remaining_bytes())
            }
            FlowState::Cbr { .. } => unreachable!("send_data on a CBR flow"),
        };
        let ctx = RankCtx {
            now,
            flow,
            flow_size: def.size,
            bytes_sent: acked,
            pkt_size: req.payload,
            deadline: def.deadline,
            weight: def.weight,
        };
        let rank = self.compute_rank(def.tenant, &ctx);
        let mut p = Packet::data(
            flow,
            def.tenant,
            req.seq,
            req.payload + self.cfg.header_bytes,
            def.src,
            def.dst,
            rank,
            now,
        );
        p.deadline = def.deadline;
        p.tie = arrival_tie(&p);
        self.trace_pkt(&p, now, TraceKind::RankComputed { rank });
        self.count_sent(def.tenant);
        let rto = self.rto_for(attempt);
        self.events.schedule_keyed(
            now + rto,
            EventKey::timeout(def.src, flow, req.seq, attempt),
            (
                Event::Timeout {
                    flow,
                    seq: req.seq,
                    attempt,
                },
                None,
            ),
        );
        self.forward(def.src, p, now);
    }

    /// Emit one CBR datagram.
    pub(in crate::sim) fn emit_cbr(&mut self, flow: FlowId, now: Nanos) {
        let (def, emission) = match &mut self.flows[flow.index()] {
            FlowState::Cbr { source, .. } => (*source.def(), source.emit(now)),
            FlowState::Reliable { .. } => unreachable!("emit_cbr on a reliable flow"),
        };
        let Some((seq, deadline)) = emission else {
            self.cbr_live -= 1;
            return;
        };
        let ctx = RankCtx {
            now,
            flow,
            flow_size: u64::MAX / 2, // open-ended stream
            bytes_sent: seq * def.pkt_size as u64,
            pkt_size: def.pkt_size,
            deadline: Some(deadline),
            weight: 1,
        };
        let rank = self.compute_rank(def.tenant, &ctx);
        let mut p = Packet::data(
            flow,
            def.tenant,
            seq,
            def.pkt_size,
            def.src,
            def.dst,
            rank,
            now,
        );
        p.kind = PacketKind::Datagram;
        p.deadline = Some(deadline);
        p.tie = arrival_tie(&p);
        if seq == 0 {
            self.trace_pkt(
                &p,
                now,
                TraceKind::FlowStart {
                    size: def.pkt_size as u64,
                },
            );
        }
        self.trace_pkt(&p, now, TraceKind::RankComputed { rank });
        self.count_sent(def.tenant);
        self.forward(def.src, p, now);

        // Schedule the next emission or retire the stream.
        match match &self.flows[flow.index()] {
            FlowState::Cbr { source, .. } => source.next_at(),
            FlowState::Reliable { .. } => unreachable!(),
        } {
            Some(at) => self.events.schedule_keyed(
                at,
                EventKey::flow_event(def.src, flow),
                (Event::CbrEmit(flow), None),
            ),
            None => self.cbr_live -= 1,
        }
    }
}
