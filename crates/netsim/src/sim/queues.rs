//! Per-port scheduler-model queue construction and the port/metric state
//! cached per device.

use crate::config::{SchedulerKind, SimConfig};
use qvisor_core::{Backend, JointPolicy, QvisorError, SpAdaptation};
use qvisor_scheduler::{
    AifoQueue, FifoQueue, InstrumentedQueue, PacketQueue, PathStep, PifoQueue, PifoTree,
    SpPifoMapper, StaticRangeMapper, StrictPriorityBank, TreePath, TreeShape,
};
use qvisor_sim::{Nanos, NodeId, Packet};
use qvisor_telemetry::{Counter, Histogram};
use qvisor_topology::{NodeKind, Topology};

pub(in crate::sim) struct Port {
    pub(in crate::sim) to: NodeId,
    pub(in crate::sim) rate_bps: u64,
    pub(in crate::sim) delay: Nanos,
    pub(in crate::sim) queue: Box<dyn PacketQueue>,
    pub(in crate::sim) busy: bool,
    /// Packets serialized onto the link (telemetry; no-op when disabled).
    pub(in crate::sim) tx_pkts: Counter,
    /// Bytes serialized onto the link.
    pub(in crate::sim) tx_bytes: Counter,
    /// Interned trace label of this port's queue/link track.
    pub(in crate::sim) trace_label: u32,
}

/// Cached per-tenant telemetry handles (one registry lookup per tenant,
/// not per packet).
pub(in crate::sim) struct TenantMetrics {
    pub(in crate::sim) sent_pkts: Counter,
    pub(in crate::sim) delivered_pkts: Counter,
    pub(in crate::sim) delivered_bytes: Counter,
    pub(in crate::sim) dropped_pkts: Counter,
    pub(in crate::sim) fct_ns: Histogram,
}

/// Per-node port tables paired with the dense `port_of[node][neighbor raw
/// id] -> port index` tables (sized to the node's highest neighbor id;
/// `u32::MAX` where there is no link).
pub(in crate::sim) type PortTables = (Vec<Vec<Port>>, Vec<Vec<u32>>);

/// Build every output port of every node: one scheduler-model queue per
/// link (wrapped with instrumentation when telemetry or tracing is live),
/// plus the neighbor-to-port maps.
pub(in crate::sim) fn build_ports(
    topo: &Topology,
    cfg: &SimConfig,
    joint: Option<&JointPolicy>,
) -> Result<PortTables, QvisorError> {
    let mut ports = Vec::with_capacity(topo.node_count());
    let mut port_of = Vec::with_capacity(topo.node_count());
    for node in topo.nodes() {
        let kind = match (node.kind, cfg.host_scheduler) {
            (NodeKind::Host, Some(host_kind)) => host_kind,
            _ => cfg.scheduler,
        };
        let mut node_ports = Vec::new();
        let mut port_to = Vec::new();
        for link in topo.out_links(node.id) {
            let label = format!("n{}.p{}", node.id.0, node_ports.len());
            let base = make_queue_of(kind, cfg, joint)?;
            let instrument =
                cfg.telemetry.is_enabled() || cfg.tracer.is_enabled() || cfg.monitor.is_enabled();
            let queue: Box<dyn PacketQueue> = if instrument {
                Box::new(
                    InstrumentedQueue::with_tracer(base, &cfg.telemetry, &cfg.tracer, &label)
                        .with_monitor(&cfg.monitor),
                )
            } else {
                base
            };
            let link_labels = [("link", label.as_str())];
            if port_to.len() <= link.to.index() {
                port_to.resize(link.to.index() + 1, u32::MAX);
            }
            port_to[link.to.index()] = node_ports.len() as u32;
            node_ports.push(Port {
                to: link.to,
                rate_bps: link.rate_bps,
                delay: link.delay,
                queue,
                busy: false,
                tx_pkts: cfg.telemetry.counter("net_link_tx_pkts", &link_labels),
                tx_bytes: cfg.telemetry.counter("net_link_tx_bytes", &link_labels),
                trace_label: cfg.tracer.intern(&label),
            });
        }
        ports.push(node_ports);
        port_of.push(port_to);
    }
    Ok((ports, port_of))
}

pub(in crate::sim) fn make_queue_of(
    kind: SchedulerKind,
    cfg: &SimConfig,
    joint: Option<&JointPolicy>,
) -> Result<Box<dyn PacketQueue>, QvisorError> {
    Ok(match kind {
        SchedulerKind::Fifo => Box::new(FifoQueue::new(cfg.buffer)),
        SchedulerKind::Pifo => Box::new(PifoQueue::new(cfg.buffer)),
        SchedulerKind::SpPifo { queues } => Box::new(StrictPriorityBank::new(
            SpPifoMapper::new(queues),
            cfg.buffer,
        )),
        SchedulerKind::StrictStatic { queues, span } => match joint {
            Some(j) => Backend::StrictPriority {
                queues,
                capacity: cfg.buffer,
                adaptation: SpAdaptation::BandedStatic,
            }
            .build(j)?,
            None => Box::new(StrictPriorityBank::new(
                StaticRangeMapper::new(span.min, span.max, queues),
                cfg.buffer,
            )),
        },
        SchedulerKind::Aifo { window, burst } => {
            if cfg.buffer.bytes == u64::MAX {
                return Err(QvisorError::Deployment(
                    "AIFO requires a finite buffer".into(),
                ));
            }
            Box::new(AifoQueue::new(cfg.buffer, window, burst))
        }
        SchedulerKind::FairTree { tenants } => {
            if tenants == 0 {
                return Err(QvisorError::Deployment(
                    "fair tree needs at least one tenant class".into(),
                ));
            }
            let shape = TreeShape::Internal((0..tenants).map(|_| TreeShape::Leaf).collect());
            let mut vtimes = vec![0u64; tenants as usize];
            let classifier = move |p: &Packet| {
                let class = (p.tenant.0 % tenants) as usize;
                vtimes[class] += 1;
                TreePath {
                    steps: vec![PathStep {
                        child: class,
                        rank: vtimes[class],
                    }],
                    leaf_rank: p.txf_rank,
                }
            };
            Box::new(PifoTree::new(&shape, classifier, cfg.buffer))
        }
    })
}
