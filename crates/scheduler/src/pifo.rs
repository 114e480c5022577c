//! Exact PIFO (push-in first-out) queue.
//!
//! The ideal programmable scheduler (Sivaraman et al., SIGCOMM '16): packets
//! are kept sorted by rank; dequeue always returns the minimum-rank packet;
//! when the buffer is full the *worst*-ranked packets are dropped first
//! (priority drop), which is what gives pFabric-style policies their gains
//! under congestion.

use crate::queue::{Capacity, Enqueue, PacketQueue};
use crate::rank_index::RankIndex;
use qvisor_sim::{Nanos, Packet, Rank};

/// An exact PIFO with byte capacity and worst-rank drop.
///
/// Ties on rank break FIFO (by arrival order), so equal-rank traffic is not
/// reordered — the behaviour the paper's Fig. 3 example assumes.
#[derive(Debug)]
pub struct PifoQueue {
    /// Ordered by (rank, arrival): first entry = next to dequeue, last
    /// entry = first to drop.
    entries: RankIndex<Packet>,
    capacity: Capacity,
    bytes: u64,
}

impl PifoQueue {
    /// An empty PIFO with the given byte capacity.
    pub fn new(capacity: Capacity) -> PifoQueue {
        PifoQueue {
            entries: RankIndex::new(),
            capacity,
            bytes: 0,
        }
    }

    /// Rank of the worst (last-to-dequeue) packet, if any.
    pub fn worst_rank(&self) -> Option<Rank> {
        self.entries.last_rank()
    }

    /// Priority drop for an arrival that does not fit. Plan first, commit
    /// after: victims are the worst residents *strictly* worse than the
    /// arrival (ties keep residents — they arrived first). Only if those
    /// free enough bytes is the arrival admitted; otherwise the arrival is
    /// the victim and the queue is left untouched.
    fn enqueue_full(&mut self, p: Packet) -> Enqueue {
        let size = p.size as u64;
        let mut freed = 0u64;
        let mut victims = 0usize;
        for (rank, resident) in self.entries.iter_rev() {
            if self.capacity.fits(self.bytes - freed, size) {
                break;
            }
            if rank <= p.txf_rank {
                return Enqueue::Rejected(Box::new(p));
            }
            freed += resident.size as u64;
            victims += 1;
        }
        if !self.capacity.fits(self.bytes - freed, size) {
            // Not enough strictly-worse bytes (or empty queue with an
            // oversized arrival): reject the arrival.
            return Enqueue::Rejected(Box::new(p));
        }
        // The planned victims are a prefix of the worst-first order, which
        // is the order `pop_last` removes in; there is at least one, since
        // the arrival did not fit before any was freed.
        let dropped: Vec<Packet> = (0..victims)
            .map(|_| self.entries.pop_last().expect("planned victim exists").1)
            .collect();
        self.bytes -= freed;
        self.bytes += size;
        self.entries.push(p.txf_rank, p);
        Enqueue::AcceptedDropped(dropped)
    }
}

impl PacketQueue for PifoQueue {
    #[inline]
    fn enqueue(&mut self, p: Packet, _now: Nanos) -> Enqueue {
        let size = p.size as u64;
        if self.capacity.fits(self.bytes, size) {
            self.bytes += size;
            self.entries.push(p.txf_rank, p);
            return Enqueue::Accepted;
        }
        self.enqueue_full(p)
    }

    #[inline]
    fn dequeue(&mut self, _now: Nanos) -> Option<Packet> {
        let (_, p) = self.entries.pop_first()?;
        self.bytes -= p.size as u64;
        Some(p)
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn bytes(&self) -> u64 {
        self.bytes
    }

    fn head_rank(&self) -> Option<Rank> {
        self.entries.first_rank()
    }

    fn kind(&self) -> &'static str {
        "pifo"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qvisor_sim::{FlowId, NodeId, TenantId};

    fn pkt(seq: u64, rank: Rank) -> Packet {
        sized(seq, rank, 100)
    }

    fn sized(seq: u64, rank: Rank, size: u32) -> Packet {
        let mut p = Packet::data(
            FlowId(1),
            TenantId(0),
            seq,
            size,
            NodeId(0),
            NodeId(1),
            rank,
            Nanos::ZERO,
        );
        p.txf_rank = rank;
        p
    }

    fn drain(q: &mut PifoQueue) -> Vec<u64> {
        std::iter::from_fn(|| q.dequeue(Nanos::ZERO))
            .map(|p| p.seq)
            .collect()
    }

    #[test]
    fn dequeues_in_rank_order() {
        let mut q = PifoQueue::new(Capacity::UNBOUNDED);
        for (seq, rank) in [(0, 9u64), (1, 2), (2, 7), (3, 1)] {
            q.enqueue(pkt(seq, rank), Nanos::ZERO);
        }
        assert_eq!(drain(&mut q), vec![3, 1, 2, 0]);
    }

    #[test]
    fn equal_ranks_stay_fifo() {
        let mut q = PifoQueue::new(Capacity::UNBOUNDED);
        for seq in 0..5 {
            q.enqueue(pkt(seq, 4), Nanos::ZERO);
        }
        assert_eq!(drain(&mut q), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn paper_fig3_output_order() {
        // Transformed ranks from Fig. 3: the PIFO must emit 1,2,3,4,5,6,7.
        let mut q = PifoQueue::new(Capacity::UNBOUNDED);
        for (seq, rank) in [(0, 5u64), (1, 4), (2, 7), (3, 6), (4, 3), (5, 2), (6, 1)] {
            q.enqueue(pkt(seq, rank), Nanos::ZERO);
        }
        let ranks: Vec<Rank> = std::iter::from_fn(|| q.dequeue(Nanos::ZERO))
            .map(|p| p.txf_rank)
            .collect();
        assert_eq!(ranks, vec![1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn full_queue_drops_worst_resident() {
        let mut q = PifoQueue::new(Capacity::bytes(300));
        q.enqueue(pkt(0, 5), Nanos::ZERO);
        q.enqueue(pkt(1, 9), Nanos::ZERO);
        q.enqueue(pkt(2, 7), Nanos::ZERO);
        // Queue full (300 bytes). A rank-1 arrival must evict seq 1 (rank 9).
        let r = q.enqueue(pkt(3, 1), Nanos::ZERO);
        let dropped: Vec<Packet> = r.dropped().collect();
        assert_eq!(dropped.len(), 1);
        assert_eq!(dropped[0].seq, 1);
        assert_eq!(drain(&mut q), vec![3, 0, 2]);
    }

    #[test]
    fn full_queue_rejects_worst_arrival() {
        let mut q = PifoQueue::new(Capacity::bytes(200));
        q.enqueue(pkt(0, 5), Nanos::ZERO);
        q.enqueue(pkt(1, 6), Nanos::ZERO);
        let r = q.enqueue(pkt(2, 6), Nanos::ZERO); // ties prefer residents
        assert!(!r.accepted());
        assert_eq!(q.len(), 2);
        assert_eq!(q.bytes(), 200);
    }

    #[test]
    fn eviction_frees_enough_for_large_arrival() {
        let mut q = PifoQueue::new(Capacity::bytes(300));
        q.enqueue(sized(0, 9, 100), Nanos::ZERO);
        q.enqueue(sized(1, 8, 100), Nanos::ZERO);
        q.enqueue(sized(2, 7, 100), Nanos::ZERO);
        // 250-byte arrival at rank 1 needs all three evictions: after two,
        // 100 resident + 250 arriving = 350 > 300 still overflows.
        let r = q.enqueue(sized(3, 1, 250), Nanos::ZERO);
        let dropped: Vec<Packet> = r.dropped().collect();
        assert_eq!(
            dropped.iter().map(|p| p.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(q.bytes(), 250);
        assert_eq!(drain(&mut q), vec![3]);
    }

    #[test]
    fn rejecting_arrival_leaves_queue_untouched() {
        // Strictly-worse residents don't free enough bytes for the arrival:
        // the arrival must be rejected with NO evictions.
        let mut q = PifoQueue::new(Capacity::bytes(200));
        q.enqueue(sized(0, 9, 100), Nanos::ZERO);
        q.enqueue(sized(1, 5, 100), Nanos::ZERO);
        let r = q.enqueue(sized(2, 5, 150), Nanos::ZERO);
        assert!(!r.accepted());
        assert_eq!(q.len(), 2);
        assert_eq!(q.bytes(), 200);
        assert_eq!(drain(&mut q), vec![1, 0]);
    }

    #[test]
    fn oversized_packet_rejected_even_when_empty() {
        let mut q = PifoQueue::new(Capacity::bytes(100));
        let r = q.enqueue(sized(0, 1, 200), Nanos::ZERO);
        assert!(!r.accepted());
        assert!(q.is_empty());
    }

    #[test]
    fn worst_and_head_rank() {
        let mut q = PifoQueue::new(Capacity::UNBOUNDED);
        assert_eq!(q.head_rank(), None);
        assert_eq!(q.worst_rank(), None);
        q.enqueue(pkt(0, 4), Nanos::ZERO);
        q.enqueue(pkt(1, 8), Nanos::ZERO);
        assert_eq!(q.head_rank(), Some(4));
        assert_eq!(q.worst_rank(), Some(8));
    }
}
