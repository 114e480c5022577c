//! The common interface all scheduler models implement.

use qvisor_sim::{Nanos, Packet, Rank};

/// Outcome of offering a packet to a queue.
#[derive(Debug)]
pub enum Enqueue {
    /// Packet admitted; nothing dropped.
    Accepted,
    /// Packet admitted, but the listed resident packets were evicted to make
    /// room (e.g. a PIFO dropping its worst-ranked entries).
    AcceptedDropped(Vec<Packet>),
    /// Packet rejected (tail drop / admission control); returned to caller
    /// for loss accounting.
    Rejected(Box<Packet>),
}

impl Enqueue {
    /// All packets lost by this enqueue, in drop order. A rejected
    /// arrival comes straight out of its box: nothing is collected.
    pub fn dropped(self) -> impl Iterator<Item = Packet> {
        let (evicted, rejected) = match self {
            Enqueue::Accepted => (Vec::new(), None),
            Enqueue::AcceptedDropped(d) => (d, None),
            Enqueue::Rejected(p) => (Vec::new(), Some(*p)),
        };
        evicted.into_iter().chain(rejected)
    }

    /// True if the offered packet itself was admitted.
    pub fn accepted(&self) -> bool {
        !matches!(self, Enqueue::Rejected(_))
    }
}

/// A work-conserving packet queue with a drop policy.
///
/// Schedulers sort on [`Packet::txf_rank`] — the rank *after* QVISOR's
/// pre-processor — never on the tenant's raw rank. `now` is threaded through
/// so stateful disciplines (virtual clocks, calendars) can use time.
pub trait PacketQueue {
    /// Offer a packet. May drop the offered packet or resident ones.
    fn enqueue(&mut self, p: Packet, now: Nanos) -> Enqueue;

    /// Remove and return the next packet to transmit.
    fn dequeue(&mut self, now: Nanos) -> Option<Packet>;

    /// Number of queued packets.
    fn len(&self) -> usize;

    /// Total queued bytes.
    fn bytes(&self) -> u64;

    /// True when nothing is queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rank of the packet [`Self::dequeue`] would return, if any.
    fn head_rank(&self) -> Option<Rank>;

    /// Short stable identifier of the scheduling discipline, used as the
    /// `kind` label on telemetry metrics (e.g. `"pifo"`, `"sp_pifo"`).
    /// Wrappers report the wrapped queue's kind.
    fn kind(&self) -> &'static str;
}

impl PacketQueue for Box<dyn PacketQueue> {
    fn enqueue(&mut self, p: Packet, now: Nanos) -> Enqueue {
        (**self).enqueue(p, now)
    }
    fn dequeue(&mut self, now: Nanos) -> Option<Packet> {
        (**self).dequeue(now)
    }
    fn len(&self) -> usize {
        (**self).len()
    }
    fn bytes(&self) -> u64 {
        (**self).bytes()
    }
    fn head_rank(&self) -> Option<Rank> {
        (**self).head_rank()
    }
    fn kind(&self) -> &'static str {
        (**self).kind()
    }
}

/// Buffer capacity in bytes shared by every queue model.
///
/// The paper's schedulers (pFabric-style PIFOs in particular) rely on
/// *small* buffers: the drop policy at a full buffer is where rank-aware
/// scheduling gets its advantage over FIFO.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Capacity {
    /// Maximum total bytes the queue may hold.
    pub bytes: u64,
}

impl Capacity {
    /// Capacity expressed in bytes.
    pub const fn bytes(bytes: u64) -> Capacity {
        Capacity { bytes }
    }

    /// Capacity expressed in full-size packets of `mtu` bytes.
    pub const fn packets(count: u64, mtu: u64) -> Capacity {
        Capacity { bytes: count * mtu }
    }

    /// Effectively unbounded (for tests and ideal baselines).
    pub const UNBOUNDED: Capacity = Capacity { bytes: u64::MAX };

    /// Does a queue currently holding `used` bytes fit `extra` more?
    pub fn fits(&self, used: u64, extra: u64) -> bool {
        used.saturating_add(extra) <= self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qvisor_sim::{FlowId, NodeId, TenantId};

    fn pkt(size: u32) -> Packet {
        Packet::data(
            FlowId(1),
            TenantId(0),
            0,
            size,
            NodeId(0),
            NodeId(1),
            5,
            Nanos::ZERO,
        )
    }

    #[test]
    fn enqueue_outcome_accounting() {
        assert!(Enqueue::Accepted.accepted());
        assert_eq!(Enqueue::Accepted.dropped().count(), 0);
        let r = Enqueue::Rejected(Box::new(pkt(100)));
        assert!(!r.accepted());
        assert_eq!(r.dropped().map(|p| p.size).collect::<Vec<_>>(), [100]);
        let a = Enqueue::AcceptedDropped(vec![pkt(1), pkt(2)]);
        assert!(a.accepted());
        assert_eq!(a.dropped().map(|p| p.size).collect::<Vec<_>>(), [1, 2]);
    }

    #[test]
    fn capacity_fits() {
        let c = Capacity::packets(2, 1500);
        assert_eq!(c.bytes, 3000);
        assert!(c.fits(1500, 1500));
        assert!(!c.fits(1501, 1500));
        assert!(Capacity::UNBOUNDED.fits(u64::MAX - 1, 1));
    }
}
