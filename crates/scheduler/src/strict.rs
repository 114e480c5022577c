//! Strict-priority FIFO queue banks and rank→queue mappers.
//!
//! This is the "existing scheduler" substrate of §3.4: commodity switches
//! offer a handful of FIFO queues served in strict priority, and
//! approximating a PIFO means choosing which queue each rank goes to. The
//! mapping strategy is pluggable: a static range split, or the adaptive
//! SP-PIFO scheme (see [`crate::sp_pifo`]).

use crate::queue::{Capacity, Enqueue, PacketQueue};
use qvisor_sim::{Nanos, Packet, Rank};
use std::collections::VecDeque;

/// Decides which FIFO queue of a strict-priority bank a rank maps to.
///
/// Implementations may adapt on every enqueue/dequeue (SP-PIFO does), hence
/// the `&mut self` receivers.
pub trait QueueMapper {
    /// Number of queues this mapper targets (queue 0 = highest priority).
    fn queue_count(&self) -> usize;

    /// Queue index for a packet with rank `rank`. Must be `< queue_count()`.
    fn map(&mut self, rank: Rank) -> usize;

    /// Feedback hook invoked when a packet leaves queue `queue`.
    fn on_dequeue(&mut self, _queue: usize, _rank: Rank) {}

    /// Telemetry `kind` label for a bank driven by this mapper.
    fn kind(&self) -> &'static str {
        "strict"
    }
}

/// Static mapper: splits `[min, max]` into `queues` equal-width rank ranges.
///
/// The baseline §3.4 strategy when rank distributions are known in advance.
#[derive(Clone, Debug)]
pub struct StaticRangeMapper {
    min: Rank,
    max: Rank,
    queues: usize,
}

impl StaticRangeMapper {
    /// Map ranks in `[min, max]` uniformly onto `queues` queues. Ranks
    /// outside the range clamp to the first/last queue.
    ///
    /// # Panics
    /// Panics if `queues` is zero or `min > max`.
    pub fn new(min: Rank, max: Rank, queues: usize) -> StaticRangeMapper {
        assert!(queues > 0, "need at least one queue");
        assert!(min <= max, "empty rank range");
        StaticRangeMapper { min, max, queues }
    }
}

impl QueueMapper for StaticRangeMapper {
    fn queue_count(&self) -> usize {
        self.queues
    }

    fn map(&mut self, rank: Rank) -> usize {
        if rank <= self.min {
            return 0;
        }
        if rank >= self.max {
            return self.queues - 1;
        }
        let span = (self.max - self.min + 1) as u128;
        let offset = (rank - self.min) as u128;
        ((offset * self.queues as u128) / span) as usize
    }
}

/// A bank of FIFO queues served in strict priority (queue 0 first), sharing
/// one byte buffer, with a pluggable rank→queue [`QueueMapper`].
///
/// Drop policy on a full buffer: the arrival is compared against the tail of
/// the *lowest-priority non-empty* queue; if the arrival maps to a strictly
/// higher-priority queue, that tail is evicted (priority drop across
/// queues), otherwise the arrival is rejected (tail drop).
#[derive(Debug)]
pub struct StrictPriorityBank<M: QueueMapper> {
    queues: Vec<VecDeque<Packet>>,
    mapper: M,
    capacity: Capacity,
    bytes: u64,
}

impl<M: QueueMapper> StrictPriorityBank<M> {
    /// A bank sized by `mapper.queue_count()` sharing `capacity` bytes.
    pub fn new(mapper: M, capacity: Capacity) -> StrictPriorityBank<M> {
        let queues = (0..mapper.queue_count()).map(|_| VecDeque::new()).collect();
        StrictPriorityBank {
            queues,
            mapper,
            capacity,
            bytes: 0,
        }
    }
}

impl<M: QueueMapper> PacketQueue for StrictPriorityBank<M> {
    fn enqueue(&mut self, p: Packet, _now: Nanos) -> Enqueue {
        let size = p.size as u64;
        let target = self.mapper.map(p.txf_rank);
        debug_assert!(target < self.queues.len(), "mapper returned bad queue");

        if self.capacity.fits(self.bytes, size) {
            self.bytes += size;
            self.queues[target].push_back(p);
            return Enqueue::Accepted;
        }

        // Buffer full: evict from strictly lower-priority queues while that
        // frees enough space; otherwise reject the arrival.
        let mut freed = 0u64;
        let mut victims: Vec<usize> = Vec::new(); // queue indices, tail pops
        let mut victim_counts = vec![0usize; self.queues.len()];
        'outer: for q in (0..self.queues.len()).rev() {
            if q <= target {
                break;
            }
            let qlen = self.queues[q].len();
            for i in 0..qlen {
                if self.capacity.fits(self.bytes - freed, size) {
                    break 'outer;
                }
                let idx = qlen - 1 - i; // from the tail
                freed += self.queues[q][idx].size as u64;
                victims.push(q);
                victim_counts[q] += 1;
            }
        }
        if !self.capacity.fits(self.bytes - freed, size) {
            return Enqueue::Rejected(Box::new(p));
        }
        let mut dropped = Vec::with_capacity(victims.len());
        for (q, count) in victim_counts.into_iter().enumerate() {
            for _ in 0..count {
                let victim = self.queues[q].pop_back().expect("victim just counted");
                dropped.push(victim);
            }
        }
        self.bytes -= freed;
        self.bytes += size;
        self.queues[target].push_back(p);
        if dropped.is_empty() {
            Enqueue::Accepted
        } else {
            Enqueue::AcceptedDropped(dropped)
        }
    }

    fn dequeue(&mut self, _now: Nanos) -> Option<Packet> {
        for (i, q) in self.queues.iter_mut().enumerate() {
            if let Some(p) = q.pop_front() {
                self.bytes -= p.size as u64;
                self.mapper.on_dequeue(i, p.txf_rank);
                return Some(p);
            }
        }
        None
    }

    fn len(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    fn bytes(&self) -> u64 {
        self.bytes
    }

    fn head_rank(&self) -> Option<Rank> {
        self.queues
            .iter()
            .find(|q| !q.is_empty())
            .and_then(|q| q.front())
            .map(|p| p.txf_rank)
    }

    fn kind(&self) -> &'static str {
        self.mapper.kind()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qvisor_sim::{FlowId, NodeId, TenantId};

    fn pkt(seq: u64, rank: Rank) -> Packet {
        let mut p = Packet::data(
            FlowId(1),
            TenantId(0),
            seq,
            100,
            NodeId(0),
            NodeId(1),
            rank,
            Nanos::ZERO,
        );
        p.txf_rank = rank;
        p
    }

    #[test]
    fn static_mapper_splits_evenly() {
        let mut m = StaticRangeMapper::new(0, 99, 4);
        assert_eq!(m.map(0), 0);
        assert_eq!(m.map(24), 0);
        assert_eq!(m.map(25), 1);
        assert_eq!(m.map(50), 2);
        assert_eq!(m.map(75), 3);
        assert_eq!(m.map(99), 3);
        // out-of-range clamps
        assert_eq!(m.map(1000), 3);
    }

    #[test]
    fn static_mapper_degenerate_range() {
        let mut m = StaticRangeMapper::new(5, 5, 3);
        assert_eq!(m.map(5), 0);
        assert_eq!(m.map(4), 0);
        assert_eq!(m.map(6), 2);
    }

    #[test]
    fn strict_priority_service_order() {
        let mut bank =
            StrictPriorityBank::new(StaticRangeMapper::new(0, 9, 2), Capacity::UNBOUNDED);
        bank.enqueue(pkt(0, 9), Nanos::ZERO); // queue 1
        bank.enqueue(pkt(1, 0), Nanos::ZERO); // queue 0
        bank.enqueue(pkt(2, 8), Nanos::ZERO); // queue 1
        bank.enqueue(pkt(3, 1), Nanos::ZERO); // queue 0
        let out: Vec<u64> = std::iter::from_fn(|| bank.dequeue(Nanos::ZERO))
            .map(|p| p.seq)
            .collect();
        // queue 0 drains FIFO first, then queue 1 FIFO.
        assert_eq!(out, vec![1, 3, 0, 2]);
    }

    #[test]
    fn full_buffer_evicts_lower_priority_tail() {
        let mut bank =
            StrictPriorityBank::new(StaticRangeMapper::new(0, 9, 2), Capacity::bytes(200));
        bank.enqueue(pkt(0, 9), Nanos::ZERO); // low-priority queue
        bank.enqueue(pkt(1, 8), Nanos::ZERO);
        // High-priority arrival evicts the low-priority tail (seq 1).
        let r = bank.enqueue(pkt(2, 0), Nanos::ZERO);
        let dropped: Vec<Packet> = r.dropped().collect();
        assert_eq!(dropped.len(), 1);
        assert_eq!(dropped[0].seq, 1);
    }

    #[test]
    fn full_buffer_rejects_equal_or_lower_priority_arrival() {
        let mut bank =
            StrictPriorityBank::new(StaticRangeMapper::new(0, 9, 2), Capacity::bytes(200));
        bank.enqueue(pkt(0, 1), Nanos::ZERO); // high-priority queue
        bank.enqueue(pkt(1, 9), Nanos::ZERO); // low-priority queue
                                              // Arrival maps to the low-priority queue: nothing strictly lower to
                                              // evict, so it is rejected.
        let r = bank.enqueue(pkt(2, 9), Nanos::ZERO);
        assert!(!r.accepted());
        assert_eq!(bank.len(), 2);
    }

    #[test]
    fn head_rank_scans_priorities() {
        let mut bank =
            StrictPriorityBank::new(StaticRangeMapper::new(0, 9, 3), Capacity::UNBOUNDED);
        assert_eq!(bank.head_rank(), None);
        bank.enqueue(pkt(0, 9), Nanos::ZERO);
        assert_eq!(bank.head_rank(), Some(9));
        bank.enqueue(pkt(1, 0), Nanos::ZERO);
        assert_eq!(bank.head_rank(), Some(0));
    }

    #[test]
    fn byte_accounting() {
        let mut bank =
            StrictPriorityBank::new(StaticRangeMapper::new(0, 9, 2), Capacity::bytes(1000));
        bank.enqueue(pkt(0, 3), Nanos::ZERO);
        bank.enqueue(pkt(1, 7), Nanos::ZERO);
        assert_eq!(bank.bytes(), 200);
        bank.dequeue(Nanos::ZERO);
        assert_eq!(bank.bytes(), 100);
    }
}
