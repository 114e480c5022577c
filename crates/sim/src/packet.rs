//! The packet model shared by every layer of the simulator.

use crate::id::{FlowId, NodeId, Rank, TenantId};
use crate::time::Nanos;

/// What a packet carries, as far as the simulator cares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PacketKind {
    /// A data segment of a reliable flow; `seq` identifies it for ACKing.
    Data,
    /// An acknowledgement of the data packet with the same `seq`, travelling
    /// the reverse direction. ACKs are scheduled at the highest priority
    /// (rank 0) like in pFabric.
    Ack,
    /// An unreliable datagram (CBR / deadline traffic): never retransmitted.
    Datagram,
}

/// A simulated packet.
///
/// Two rank fields implement the paper's split between *tenants* and the
/// *hypervisor*: `rank` is assigned by the tenant's rank function at the end
/// host; `txf_rank` ("transformed rank") is what QVISOR's pre-processor
/// rewrites it to, and is what the hardware scheduler actually sorts on.
/// For a network without QVISOR the two are identical.
#[derive(Clone, Debug)]
pub struct Packet {
    /// Owning flow.
    pub flow: FlowId,
    /// Owning tenant (traffic segment).
    pub tenant: TenantId,
    /// Sequence number within the flow (data packets), or 0.
    pub seq: u64,
    /// Size on the wire, in bytes (headers included).
    pub size: u32,
    /// Source host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Tenant-assigned rank (lower = more urgent).
    pub rank: Rank,
    /// Rank after QVISOR's pre-processor; schedulers sort on this.
    pub txf_rank: Rank,
    /// Payload classification.
    pub kind: PacketKind,
    /// Simulation time at which the packet was first sent.
    pub sent_at: Nanos,
    /// Absolute deadline for deadline-constrained traffic.
    pub deadline: Option<Nanos>,
    /// Simulation time this packet last entered a queue. Stamped by
    /// instrumentation wrappers to measure queueing delay; `Nanos::ZERO`
    /// until then. Never consulted by scheduling logic.
    pub enqueued_at: Nanos,
    /// Same-instant arrival tie-break: a hash of the packet instance's
    /// identity, set once by whoever emits the packet into a network and
    /// read at every hop. Zero from the constructors here — a queue never
    /// looks at it.
    pub tie: u64,
}

impl Packet {
    /// A data packet with `txf_rank` initialised to `rank`.
    #[allow(clippy::too_many_arguments)]
    pub fn data(
        flow: FlowId,
        tenant: TenantId,
        seq: u64,
        size: u32,
        src: NodeId,
        dst: NodeId,
        rank: Rank,
        sent_at: Nanos,
    ) -> Packet {
        Packet {
            flow,
            tenant,
            seq,
            size,
            src,
            dst,
            rank,
            txf_rank: rank,
            kind: PacketKind::Data,
            sent_at,
            deadline: None,
            enqueued_at: Nanos::ZERO,
            tie: 0,
        }
    }

    /// The ACK for this data packet, travelling the reverse path at the
    /// highest priority with a minimal wire size.
    pub fn ack_for(&self, size: u32, now: Nanos) -> Packet {
        debug_assert_eq!(self.kind, PacketKind::Data, "only data packets are ACKed");
        Packet {
            flow: self.flow,
            tenant: self.tenant,
            seq: self.seq,
            size,
            src: self.dst,
            dst: self.src,
            rank: 0,
            txf_rank: 0,
            kind: PacketKind::Ack,
            sent_at: now,
            deadline: None,
            enqueued_at: Nanos::ZERO,
            tie: 0,
        }
    }

    /// True for data or datagram packets (things that occupy the forward
    /// path and are subject to tenant scheduling).
    pub fn is_payload(&self) -> bool {
        matches!(self.kind, PacketKind::Data | PacketKind::Datagram)
    }
}

/// Handle to a packet parked in a [`PacketArena`].
///
/// Deliberately small and `Copy`: event payloads carry a slot instead of a
/// boxed packet, so the event core moves 4 bytes instead of a heap pointer
/// it had to allocate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PacketSlot(u32);

/// A slab/freelist arena for in-flight packets.
///
/// The netsim's hot path used to heap-allocate a `Box<Packet>` for every
/// link traversal and free it on arrival; over a fig4-scale run that is
/// millions of allocator round trips. The arena recycles slots instead:
/// [`PacketArena::insert`] pops the most-recently-freed slot (LIFO, so the
/// storage stays cache-hot) and [`PacketArena::take`] returns the slot to
/// the freelist. Slot assignment is a pure function of the insert/take
/// sequence, so arena reuse cannot perturb determinism.
#[derive(Debug, Default)]
pub struct PacketArena {
    slots: Vec<Option<Packet>>,
    free: Vec<u32>,
}

impl PacketArena {
    /// An empty arena.
    pub fn new() -> PacketArena {
        PacketArena::default()
    }

    /// An empty arena with room for `n` packets before regrowing.
    pub fn with_capacity(n: usize) -> PacketArena {
        PacketArena {
            slots: Vec::with_capacity(n),
            free: Vec::with_capacity(n),
        }
    }

    /// Park a packet, returning its slot.
    pub fn insert(&mut self, p: Packet) -> PacketSlot {
        match self.free.pop() {
            Some(i) => {
                debug_assert!(self.slots[i as usize].is_none(), "freelist slot occupied");
                self.slots[i as usize] = Some(p);
                PacketSlot(i)
            }
            None => {
                let i = u32::try_from(self.slots.len()).expect("arena exceeds u32 slots");
                self.slots.push(Some(p));
                PacketSlot(i)
            }
        }
    }

    /// Remove and return the packet in `slot`, recycling the slot.
    ///
    /// # Panics
    /// Panics if the slot is vacant — a use-after-take is a logic error.
    pub fn take(&mut self, slot: PacketSlot) -> Packet {
        let p = self.slots[slot.0 as usize]
            .take()
            .expect("packet slot taken twice");
        self.free.push(slot.0);
        p
    }

    /// The packet parked in `slot`, left there.
    ///
    /// # Panics
    /// Panics if the slot is vacant.
    #[inline]
    pub fn get(&self, slot: PacketSlot) -> &Packet {
        self.slots[slot.0 as usize]
            .as_ref()
            .expect("packet slot is vacant")
    }

    /// The packet parked in `slot`, to rewrite in place.
    ///
    /// # Panics
    /// Panics if the slot is vacant.
    #[inline]
    pub fn get_mut(&mut self, slot: PacketSlot) -> &mut Packet {
        self.slots[slot.0 as usize]
            .as_mut()
            .expect("packet slot is vacant")
    }

    /// Packets currently parked.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// True when no packets are parked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total slots ever allocated (high-water mark of in-flight packets).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Packet {
        Packet::data(
            FlowId(1),
            TenantId(2),
            7,
            1500,
            NodeId(0),
            NodeId(5),
            42,
            Nanos::from_micros(3),
        )
    }

    #[test]
    fn data_packet_initialises_txf_rank() {
        let p = sample();
        assert_eq!(p.rank, 42);
        assert_eq!(p.txf_rank, 42);
        assert!(p.is_payload());
    }

    #[test]
    fn ack_reverses_direction_and_has_top_priority() {
        let p = sample();
        let ack = p.ack_for(64, Nanos::from_micros(9));
        assert_eq!(ack.src, p.dst);
        assert_eq!(ack.dst, p.src);
        assert_eq!(ack.rank, 0);
        assert_eq!(ack.txf_rank, 0);
        assert_eq!(ack.kind, PacketKind::Ack);
        assert_eq!(ack.seq, 7, "the ACK names the sequence it acknowledges");
        assert_eq!(ack.size, 64);
        assert!(!ack.is_payload());
    }

    #[test]
    fn packet_stays_within_88_bytes() {
        // The arena, every queue and every event hand packets around by
        // value: the one-byte kind pays for the cached arrival tie.
        assert_eq!(std::mem::size_of::<PacketKind>(), 1);
        assert_eq!(std::mem::size_of::<Packet>(), 88);
    }

    #[test]
    fn arena_round_trips_packets() {
        let mut arena = PacketArena::new();
        let a = arena.insert(sample());
        let mut second = sample();
        second.seq = 99;
        let b = arena.insert(second);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.take(b).seq, 99);
        assert_eq!(arena.take(a).seq, 7);
        assert!(arena.is_empty());
    }

    #[test]
    fn arena_recycles_slots_lifo() {
        let mut arena = PacketArena::with_capacity(4);
        let a = arena.insert(sample());
        let b = arena.insert(sample());
        arena.take(a);
        arena.take(b);
        // Most recently freed slot comes back first; no growth.
        assert_eq!(arena.insert(sample()), b);
        assert_eq!(arena.insert(sample()), a);
        assert_eq!(arena.capacity(), 2);
    }

    #[test]
    fn arena_rewrites_a_parked_packet_in_place() {
        let mut arena = PacketArena::new();
        let a = arena.insert(sample());
        arena.get_mut(a).txf_rank = 3;
        assert_eq!(arena.get(a).txf_rank, 3);
        assert_eq!((arena.len(), arena.capacity()), (1, 1));
        assert_eq!(arena.take(a).txf_rank, 3);
    }

    #[test]
    #[should_panic(expected = "packet slot is vacant")]
    fn arena_get_after_take_panics() {
        let mut arena = PacketArena::new();
        let a = arena.insert(sample());
        arena.take(a);
        let _ = arena.get(a);
    }

    #[test]
    #[should_panic(expected = "packet slot taken twice")]
    fn arena_double_take_panics() {
        let mut arena = PacketArena::new();
        let a = arena.insert(sample());
        arena.take(a);
        arena.take(a);
    }
}
