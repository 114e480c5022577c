//! Device/port forwarding: the runtime monitor and pre-processor hookup,
//! the output-port state machine (cut-through, queueing, transmit-complete
//! on demand), link serialization, and arrival-side loss.
//!
//! A packet on a link is parked in the arena. A hop that sends it straight
//! on through an idle FIFO or PIFO port, observed or not, leaves it there:
//! the arrival reads it in its slot and the next transmission carries the
//! same slot. Every other hop takes it out.

use super::{EventKey, Simulation};
use qvisor_core::Verdict;
use qvisor_scheduler::PacketQueue;
use qvisor_sim::{stable_hash, Nanos, NodeId, Packet, PacketKind, PacketSlot};
use qvisor_telemetry::{TraceKind, TraceRecord};

/// A scope resolves to no hop without a pre-processor.
const PREPROC: &str = "a pre-processor scope implies a pre-processor";

impl Simulation {
    /// Send `p` from its source `at` toward its destination: the monitor
    /// and the pre-processor's first hop, then the output port.
    pub(in crate::sim) fn forward(&mut self, at: NodeId, mut p: Packet, now: Nanos) {
        debug_assert_eq!(at, p.src, "later hops are arrivals");
        // Runtime monitor polices raw ranks once, at the first hop.
        if let Some(m) = self.monitor.as_mut() {
            use qvisor_core::{Observation, ViolationAction};
            if let Observation::Violation(action) = m.observe(&mut p, now) {
                self.report.monitor_violations += 1;
                if action == ViolationAction::Drop {
                    self.trace_pkt(&p, now, TraceKind::Drop { rank: p.txf_rank });
                    self.drop_packet(&p, at);
                    return;
                }
            }
        }
        if self.preproc_at[at.index()] || self.preproc_first_hop {
            let pre = self.preproc.as_mut().expect(PREPROC);
            if pre.process(&mut p) == Verdict::Drop {
                return self.refuse(&p, at, now);
            }
            self.trace_transform(&p, now);
        }
        let port = self.route(at, &p);
        self.offer(at, port, p, now);
    }

    /// The packet parked in `slot` arrives at `node`: lost on the link,
    /// delivered, or sent one hop further — from its slot, when the port
    /// it leaves by is idle and exact.
    pub(in crate::sim) fn on_arrive(&mut self, node: NodeId, slot: PacketSlot, now: Nanos) {
        let p = self.arena.get(slot);
        if self.cfg.random_loss > 0.0 && self.loss_draw(node, p) < self.cfg.random_loss {
            let p = self.arena.take(slot);
            self.report.random_losses += 1;
            self.trace_pkt(&p, now, TraceKind::Drop { rank: p.txf_rank });
            self.drop_packet(&p, node);
            return;
        }
        if node == p.dst {
            let p = self.arena.take(slot);
            return self.deliver(p, now);
        }
        // Past the source: the monitor has policed, and the pre-processor
        // runs again only where its scope or an adapter can change what
        // the source computed.
        if self.preproc_at[node.index()] {
            if !self.transform_final {
                let pre = self.preproc.as_mut().expect(PREPROC);
                if pre.process(self.arena.get_mut(slot)) == Verdict::Drop {
                    let p = self.arena.take(slot);
                    return self.refuse(&p, node, now);
                }
            }
            self.trace_transform(self.arena.get(slot), now);
        }
        let p = self.arena.get(slot);
        let port = self.route(node, p);
        let port_ref = &self.ports[port as usize];
        if port_ref.queue.cuts_through()
            && port_ref.is_free(now, self.before_port_free)
            && self.cfg.buffer.fits(0, p.size as u64)
        {
            // What `offer` would do, without moving the packet.
            port_ref.queue.pass(p, now);
            return self.transmit(port, slot, now);
        }
        let p = self.arena.take(slot);
        self.offer(node, port, p, now);
    }

    /// The flight recorder's `Transform` record of `p`, whose `txf_rank`
    /// the pre-processor has set.
    fn trace_transform(&self, p: &Packet, now: Nanos) {
        self.trace_pkt(
            p,
            now,
            TraceKind::Transform {
                pre: p.rank,
                post: p.txf_rank,
            },
        );
    }

    /// Drop `p` at `at`: the pre-processor refused it.
    fn refuse(&mut self, p: &Packet, at: NodeId, now: Nanos) {
        self.report.preproc_dropped += 1;
        self.trace_pkt(p, now, TraceKind::Drop { rank: p.txf_rank });
        self.drop_packet(p, at);
    }

    /// The flat port index `p` leaves `at` by.
    #[inline]
    fn route(&self, at: NodeId, p: &Packet) -> u32 {
        self.port_base[at.index()] + self.routes.ecmp_port(at, p.dst, p.flow) as u32
    }

    /// Hand `p` to output port `port` of `node`: onto the wire if the port
    /// is idle, into the queue behind the transmission in progress if not.
    fn offer(&mut self, node: NodeId, port: u32, p: Packet, now: Nanos) {
        let port_ref = &mut self.ports[port as usize];
        let free = port_ref.is_free(now, self.before_port_free);
        // A free port's queue is empty: all it could still do to `p` is
        // refuse it for being larger than the whole buffer.
        debug_assert!(!free || (port_ref.queue.is_empty() && !port_ref.armed));
        if free && port_ref.queue.cuts_through() && self.cfg.buffer.fits(0, p.size as u64) {
            port_ref.queue.pass(&p, now);
            return self.send(port, p, now);
        }
        let outcome = port_ref.queue.enqueue(p, now);
        for victim in outcome.dropped() {
            self.drop_packet(&victim, node);
        }
        let port_ref = &mut self.ports[port as usize];
        if free {
            if let Some(p) = port_ref.queue.dequeue(now) {
                self.send(port, p, now);
            }
        } else if !port_ref.armed && !port_ref.queue.is_empty() {
            // First to wait behind this transmission (which may end
            // this very instant): ask to be woken when it does.
            self.arm(node, port);
        }
    }

    /// Schedule the port's one pending `PortFree`, at its `free_at`.
    fn arm(&mut self, node: NodeId, port: u32) {
        let port_ref = &mut self.ports[port as usize];
        debug_assert!(!port_ref.armed, "PortFree armed twice");
        port_ref.armed = true;
        self.events.schedule_keyed(
            port_ref.free_at.expect("a busy port has transmitted"),
            EventKey::port_free(node, port - self.port_base[node.index()]),
            (super::Event::PortFree { node, port }, None),
        );
    }

    /// The transmission is over and something waits (unless dropped).
    pub(in crate::sim) fn on_port_free(&mut self, node: NodeId, port: u32, now: Nanos) {
        let port_ref = &mut self.ports[port as usize];
        debug_assert!(port_ref.armed && port_ref.free_at == Some(now));
        port_ref.armed = false;
        if let Some(p) = port_ref.queue.dequeue(now) {
            self.send(port, p, now);
            // Only here can a transmission start with packets behind it:
            // `offer` transmits from an empty queue.
            if !self.ports[port as usize].queue.is_empty() {
                self.arm(node, port);
            }
        }
    }

    /// Account `p`, lost at `at`. Its `Drop` record is the caller's (or
    /// the port queue's) to make.
    pub(in crate::sim) fn drop_packet(&mut self, p: &Packet, at: NodeId) {
        debug_assert!(self.in_flight > 0);
        self.in_flight -= 1;
        *self.report.node_drops.entry(at).or_insert(0) += 1;
        if p.is_payload() {
            self.tenant(p.tenant).traffic.dropped_pkts += 1;
        }
    }

    /// Park `p` and put it on the wire of an idle port.
    fn send(&mut self, port: u32, p: Packet, now: Nanos) {
        let slot = self.arena.insert(p);
        self.transmit(port, slot, now);
    }

    /// Put the packet parked in `slot` on the wire of an idle port; its
    /// arrival at the far end carries the slot.
    fn transmit(&mut self, port: u32, slot: PacketSlot, now: Nanos) {
        let p = self.arena.get(slot);
        let port_ref = &mut self.ports[port as usize];
        let tx = port_ref.rate.transmission_time(p.size as u64);
        let free_at = now + tx;
        port_ref.free_at = Some(free_at);
        port_ref.tx_pkts.inc();
        port_ref.tx_bytes.add(p.size as u64);
        let (delay, to) = (port_ref.delay, port_ref.to);
        let kind = TraceKind::TxStart {
            bytes: p.size as u64,
            tx_ns: tx.as_nanos(),
            prop_ns: delay.as_nanos(),
        };
        let ack = p.kind == PacketKind::Ack;
        if self.cfg.tracer.wants(&kind, ack, p.flow.0) {
            self.cfg.tracer.record(
                TraceRecord::new(now, p.flow.0, p.seq, p.tenant.0, kind)
                    .at_label(port_ref.trace_label)
                    .as_ack(ack),
            );
        }
        let arrive_key = EventKey::arrive(to, p);
        // The transmit-complete is an event of the run whether or not
        // anything waits for it: count it here (and give the profiler's
        // `event_dispatch` site its scope), schedule it only if needed.
        if free_at <= self.cfg.horizon {
            self.count_event(free_at);
            drop(self.dispatch_prof.time());
        }
        self.events.schedule_keyed(
            free_at + delay,
            arrive_key,
            (super::Event::Arrive { node: to }, Some(slot)),
        );
    }

    /// Pure per-packet loss draw in `[0, 1)`: a deterministic hash of the
    /// packet instance's identity. Unlike a stateful RNG stream, the draw
    /// is independent of arrival-processing order.
    fn loss_draw(&self, node: NodeId, p: &Packet) -> f64 {
        const LOSS_SALT: u64 = 0x5157_4953_4C4F_5353; // "QWISLOSS"
        let h = stable_hash(&[
            LOSS_SALT,
            self.cfg.seed,
            p.flow.0,
            super::kind_tag(&p.kind),
            p.seq,
            p.sent_at.as_nanos(),
            node.index() as u64,
        ]);
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}
