//! Per-port scheduler-model queue construction, the port state machine's
//! state, and the per-tenant table: the report's rows, no telemetry handle.

use std::fmt::Write;

use crate::config::SimConfig;
use crate::report::TenantTraffic;
use qvisor_core::{Backend, JointPolicy, QvisorError};
use qvisor_scheduler::{Enqueue, FifoQueue, InstrumentedQueue, PacketQueue, PifoQueue};
use qvisor_sim::{LineRate, Nanos, NodeId, Packet, Rank};
use qvisor_telemetry::{trace::NO_LABEL, Counter};
use qvisor_topology::{NodeKind, Topology};

/// A port's scheduler-model queue as it runs unobserved: the two stateless
/// exact disciplines inline (static dispatch), every stateful one behind
/// `Other`.
// The PIFO's 512-byte bitmap makes the variants uneven; holding it in the
// port, not behind a pointer, is the point.
#[allow(clippy::large_enum_variant)]
pub(in crate::sim) enum BareQueue {
    Fifo(FifoQueue),
    Pifo(PifoQueue),
    Other(Box<dyn PacketQueue>),
}

/// A port's queue: bare, or a bare one under its observers. The observed
/// wrapper holds a [`BareQueue`], never another `PortQueue`, so its calls
/// into the queue it watches dispatch statically too. It lies in the port
/// like the bare queue does: observing a port allocates nothing per port.
pub(in crate::sim) enum PortQueue {
    Bare(BareQueue),
    Observed(InstrumentedQueue<BareQueue>),
}

/// `match` with the same arm for every variant: static dispatch to the
/// queue inside.
macro_rules! dispatch {
    ($queue:expr, $q:ident => $call:expr) => {
        match $queue {
            BareQueue::Fifo($q) => $call,
            BareQueue::Pifo($q) => $call,
            BareQueue::Other($q) => $call,
        }
    };
    (port $port:expr, $q:ident => $call:expr) => {
        match $port {
            PortQueue::Bare($q) => $call,
            PortQueue::Observed($q) => $call,
        }
    };
}

impl PacketQueue for BareQueue {
    #[inline]
    fn enqueue(&mut self, p: Packet, now: Nanos) -> Enqueue {
        dispatch!(self, q => q.enqueue(p, now))
    }

    #[inline]
    fn dequeue(&mut self, now: Nanos) -> Option<Packet> {
        dispatch!(self, q => q.dequeue(now))
    }

    fn len(&self) -> usize {
        dispatch!(self, q => q.len())
    }

    fn bytes(&self) -> u64 {
        dispatch!(self, q => q.bytes())
    }

    fn head_rank(&self) -> Option<Rank> {
        dispatch!(self, q => q.head_rank())
    }

    fn kind(&self) -> &'static str {
        dispatch!(self, q => q.kind())
    }
}

impl PacketQueue for PortQueue {
    #[inline]
    fn enqueue(&mut self, p: Packet, now: Nanos) -> Enqueue {
        dispatch!(port self, q => q.enqueue(p, now))
    }

    #[inline]
    fn dequeue(&mut self, now: Nanos) -> Option<Packet> {
        dispatch!(port self, q => q.dequeue(now))
    }

    fn len(&self) -> usize {
        dispatch!(port self, q => q.len())
    }

    fn bytes(&self) -> u64 {
        dispatch!(port self, q => q.bytes())
    }

    fn head_rank(&self) -> Option<Rank> {
        dispatch!(port self, q => q.head_rank())
    }

    fn kind(&self) -> &'static str {
        dispatch!(port self, q => q.kind())
    }
}

impl PortQueue {
    /// May a free port send a packet that fits the empty buffer around
    /// this (empty) queue? Enqueue-then-dequeue is the identity on an
    /// empty FIFO or exact PIFO; `Other` may keep per-packet state. An
    /// observer is paid in observations, not in queue operations: over an
    /// exact discipline it reports the pair itself ([`Self::pass`]).
    #[inline]
    pub(in crate::sim) fn cuts_through(&self) -> bool {
        match self {
            PortQueue::Bare(BareQueue::Fifo(_) | BareQueue::Pifo(_)) => true,
            PortQueue::Bare(BareQueue::Other(_)) => false,
            PortQueue::Observed(q) => q.passes(),
        }
    }

    /// Report `p` taken around the queue ([`Self::cuts_through`] holds):
    /// nothing, unless someone is watching, who is told of an enqueue and a
    /// dequeue. `p` stays where it is parked.
    #[inline]
    pub(in crate::sim) fn pass(&self, p: &Packet, now: Nanos) {
        if let PortQueue::Observed(q) = self {
            q.pass(p, now);
        }
    }
}

pub(in crate::sim) struct Port {
    pub(in crate::sim) to: NodeId,
    /// The link's rate, its per-byte time worked out once.
    pub(in crate::sim) rate: LineRate,
    pub(in crate::sim) delay: Nanos,
    pub(in crate::sim) queue: PortQueue,
    /// When the transmission in progress — or the last one — completes;
    /// `None` until the port first transmits.
    pub(in crate::sim) free_at: Option<Nanos>,
    /// A `PortFree` is pending at `free_at`: packets wait for the wire.
    pub(in crate::sim) armed: bool,
    /// Packets serialized onto the link (telemetry; no-op when disabled).
    pub(in crate::sim) tx_pkts: Counter,
    /// Bytes serialized onto the link.
    pub(in crate::sim) tx_bytes: Counter,
    /// Interned trace label of this port's queue/link track.
    pub(in crate::sim) trace_label: u32,
}

impl Port {
    /// Is the wire free for an event at `now`? Transmit-complete sorts as
    /// a class-3 event at `free_at`: an event of that instant that sorts
    /// before it (`before_port_free`) still finds the port busy.
    #[inline]
    pub(in crate::sim) fn is_free(&self, now: Nanos, before_port_free: bool) -> bool {
        match self.free_at {
            None => true,
            Some(free_at) => now > free_at || (now == free_at && !before_port_free),
        }
    }
}

/// One slot of the per-tenant table (indexed by `TenantId`; a slot exists
/// once the tenant has sent, lost or received a packet here).
#[derive(Default)]
pub(in crate::sim) struct TenantState {
    /// The tenant's row of `SimReport::tenants`.
    pub(in crate::sim) traffic: TenantTraffic,
    /// Bytes delivered since the last sampling tick.
    pub(in crate::sim) window_bytes: u64,
}

/// Build every output port into one table: one scheduler-model queue per
/// link (instrumented when telemetry or any reader of the records is live).
/// Node `n`'s ports are `ports[base[n]..base[n + 1]]`, in the out-link
/// order `Routes::ecmp_port` counts in.
pub(in crate::sim) fn build_ports(
    topo: &Topology,
    cfg: &SimConfig,
    joint: Option<&JointPolicy>,
) -> Result<(Vec<Port>, Vec<u32>), QvisorError> {
    let instrument = cfg.telemetry.is_enabled() || cfg.tracer.is_enabled();
    let mut ports = Vec::with_capacity(topo.links().len());
    // Neighbouring links mostly share a rate: divide once per run of them.
    let mut rate = LineRate::new(0);
    let mut base = Vec::with_capacity(topo.node_count() + 1);
    // The label names the port to its observers; with none, no registry
    // or recorder reads it. One buffer formats every port's: the
    // registry and the recorder each keep their own copy.
    let mut label = String::new();
    for node in topo.nodes() {
        let kind = match (node.kind, cfg.host_scheduler) {
            (NodeKind::Host, Some(host_kind)) => host_kind,
            _ => cfg.scheduler,
        };
        let first = ports.len();
        base.push(first as u32);
        for link in topo.out_links(node.id) {
            if instrument {
                label.clear();
                write!(label, "n{}.p{}", node.id.0, ports.len() - first)
                    .expect("a String takes any write");
            }
            let bare = make_queue_of(kind, cfg, joint)?;
            // The wrapper interns the label; an unobserved port has no track.
            let (queue, trace_label) = if instrument {
                let observed =
                    InstrumentedQueue::with_tracer(bare, &cfg.telemetry, &cfg.tracer, &label);
                let trace_label = observed.trace_label();
                (PortQueue::Observed(observed), trace_label)
            } else {
                (PortQueue::Bare(bare), NO_LABEL)
            };
            let link_labels = [("link", label.as_str())];
            if rate.bits_per_sec() != link.rate_bps {
                rate = LineRate::new(link.rate_bps);
            }
            ports.push(Port {
                to: link.to,
                rate,
                delay: link.delay,
                queue,
                free_at: None,
                armed: false,
                tx_pkts: cfg.telemetry.counter("net_link_tx_pkts", &link_labels),
                tx_bytes: cfg.telemetry.counter("net_link_tx_bytes", &link_labels),
                trace_label,
            });
        }
    }
    base.push(u32::try_from(ports.len()).expect("port table exceeds u32 entries"));
    Ok((ports, base))
}

/// The port queue `kind` names: the two exact disciplines inline, every
/// other one as [`Backend::build`] makes it.
pub(in crate::sim) fn make_queue_of(
    kind: Backend,
    cfg: &SimConfig,
    joint: Option<&JointPolicy>,
) -> Result<BareQueue, QvisorError> {
    Ok(match kind {
        Backend::Fifo => BareQueue::Fifo(FifoQueue::new(cfg.buffer)),
        Backend::Pifo => BareQueue::Pifo(PifoQueue::new(cfg.buffer)),
        _ => BareQueue::Other(kind.build(cfg.buffer, joint)?),
    })
}
