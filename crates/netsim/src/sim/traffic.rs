//! Traffic sources: reliable flows and CBR streams, packet emission, and
//! each reliable flow's one retransmission timer.

use super::{arrival_tie, Event, EventKey, Simulation};
use qvisor_ranking::RankCtx;
use qvisor_sim::{FlowId, Nanos, NodeId, Packet, PacketKind, TenantId};
use qvisor_telemetry::{TraceKind, TraceRecord};
use qvisor_topology::NodeKind;
use qvisor_transport::{
    CbrDef, CbrSource, DatagramSink, Expiry, FlowDef, ReliableReceiver, ReliableSender, SendReq,
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

/// One slot of the flow table. A slot is small — the table is written
/// whole when the traffic is loaded — and what a flow needs only while it
/// runs hangs off it.
pub(in crate::sim) enum FlowState {
    /// A reliable flow. Its transport state exists while it is in flight:
    /// made by `FlowStart`, before which no packet of the flow exists, and
    /// dropped when the last byte is acknowledged, after which every data
    /// packet still in the network is a duplicate and every ACK and timer
    /// is dead.
    Reliable {
        def: FlowDef,
        transport: Option<Box<Transport>>,
    },
    Cbr(Box<CbrStream>),
}

pub(in crate::sim) struct Transport {
    pub(in crate::sim) sender: ReliableSender,
    pub(in crate::sim) receiver: ReliableReceiver,
}

pub(in crate::sim) struct CbrStream {
    pub(in crate::sim) source: CbrSource,
    pub(in crate::sim) sink: DatagramSink,
}

impl Simulation {
    fn assert_host(&self, n: NodeId) {
        assert_eq!(self.topo.node(n).kind, NodeKind::Host, "{n} is not a host");
    }

    /// Make room for `additional` flows and streams at once: a flow table
    /// grown by doubling while the event queue grows beside it is written
    /// twice over, on pages the build is the first to touch.
    pub(crate) fn reserve_flows(&mut self, additional: usize) {
        self.flows.reserve_exact(additional);
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
            def,
            transport: None,
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
        self.flows.push(FlowState::Cbr(Box::new(CbrStream {
            source,
            sink: DatagramSink::new(),
        })));
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

    /// Account one payload packet entering the network.
    fn count_sent(&mut self, tenant: TenantId) {
        self.tenant(tenant).traffic.sent_pkts += 1;
        self.in_flight += 1;
    }

    /// `flow`'s transport state, while it is in flight.
    pub(in crate::sim) fn transport(&mut self, flow: FlowId) -> Option<&mut Transport> {
        match &mut self.flows[flow.index()] {
            FlowState::Reliable { transport, .. } => transport.as_deref_mut(),
            FlowState::Cbr(_) => unreachable!("{flow} is a CBR stream"),
        }
    }

    /// `FlowStart`: make `flow`'s transport state and send its initial
    /// window.
    pub(in crate::sim) fn start_flow(&mut self, flow: FlowId, now: Nanos) {
        let FlowState::Reliable { def, transport } = &mut self.flows[flow.index()] else {
            unreachable!("FlowStart on a CBR stream")
        };
        debug_assert!(transport.is_none(), "{flow} started twice");
        let kind = TraceKind::FlowStart { size: def.size };
        if self.cfg.tracer.wants(&kind, false, flow.0) {
            let record = TraceRecord::new(now, flow.0, 0, def.tenant.0, kind);
            self.cfg.tracer.record(record);
        }
        let mut sender =
            ReliableSender::new(*def, self.cfg.mss, self.cfg.cwnd).with_rto(self.cfg.rto);
        let sends = sender.on_start(now);
        *transport = Some(Box::new(Transport {
            sender,
            receiver: ReliableReceiver::new(),
        }));
        for req in sends {
            self.send_data(flow, req, now);
        }
        self.arm_timer(flow);
    }

    /// Keep `flow`'s one retransmission-timer event pending for its
    /// earliest unacked deadline: called after anything that sent, and
    /// schedules only when that deadline undercuts what is already armed
    /// (`qvisor_transport::reliable`, "The timer"). The event carries the
    /// `(time, key)` a timer of that packet's own would have had, so a
    /// timeout that finds its sequence unacked pops exactly where it
    /// always did.
    pub(in crate::sim) fn arm_timer(&mut self, flow: FlowId) {
        let Some(Transport { sender, .. }) = self.transport(flow) else {
            return; // completed
        };
        if let Some(Expiry { at, seq, attempt }) = sender.arm() {
            let src = sender.def().src;
            self.events.schedule_keyed(
                at,
                EventKey::timeout(src, flow, seq, attempt),
                (Event::Timeout { flow, seq, attempt }, None),
            );
        }
    }

    /// Emit one data packet of a reliable flow; the caller arms the flow's
    /// timer once it has sent what it had to send.
    pub(in crate::sim) fn send_data(&mut self, flow: FlowId, req: SendReq, now: Nanos) {
        let sender = &self.transport(flow).expect("a sending flow is live").sender;
        let (def, acked) = (*sender.def(), sender.def().size - sender.remaining_bytes());
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
        self.forward(def.src, p, now);
    }

    /// Emit one CBR datagram.
    pub(in crate::sim) fn emit_cbr(&mut self, flow: FlowId, now: Nanos) {
        let (def, emission) = match &mut self.flows[flow.index()] {
            FlowState::Cbr(stream) => (*stream.source.def(), stream.source.emit(now)),
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
            FlowState::Cbr(stream) => stream.source.next_at(),
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
