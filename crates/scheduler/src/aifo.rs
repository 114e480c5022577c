//! AIFO: PIFO approximation with a single FIFO queue and rank-aware
//! admission control (Yu et al., SIGCOMM '21).
//!
//! AIFO never reorders packets; it *selectively admits* them. A sliding
//! window of recently-seen ranks estimates the rank distribution; a packet
//! is admitted only if its rank's quantile position is below the fraction of
//! the buffer still free (scaled by a burst-tolerance parameter). Under
//! congestion, low-rank packets keep getting in while high-rank packets are
//! dropped at the door — approximating PIFO's priority-drop with one queue.

use crate::queue::{Capacity, Enqueue, PacketQueue};
use qvisor_sim::{Nanos, Packet, Rank};
use std::collections::VecDeque;

/// Single-FIFO PIFO approximation with quantile-based admission.
#[derive(Debug)]
pub struct AifoQueue {
    queue: VecDeque<Packet>,
    capacity: Capacity,
    bytes: u64,
    /// Sliding window of the ranks of recent arrivals (admitted or not).
    window: VecDeque<Rank>,
    window_size: usize,
    /// Burst tolerance `k` in `[0, 1)`: higher admits more aggressively.
    burst: f64,
}

impl AifoQueue {
    /// An AIFO queue.
    ///
    /// * `window_size` — number of recent ranks used to estimate the
    ///   distribution (the paper uses small windows, e.g. 16–128).
    /// * `burst` — burst-tolerance parameter `k` in `[0, 1)`; the admission
    ///   threshold is `(1 - c) / (1 - k)` for queue occupancy fraction `c`.
    ///
    /// # Panics
    /// Panics if `window_size` is zero, `burst` is outside `[0, 1)`, or the
    /// capacity is unbounded (occupancy fraction would be meaningless).
    pub fn new(capacity: Capacity, window_size: usize, burst: f64) -> AifoQueue {
        assert!(window_size > 0, "window must hold at least one rank");
        assert!((0.0..1.0).contains(&burst), "burst must be in [0, 1)");
        assert!(
            capacity.bytes < u64::MAX,
            "AIFO needs a finite capacity to compute occupancy"
        );
        AifoQueue {
            queue: VecDeque::new(),
            capacity,
            bytes: 0,
            window: VecDeque::with_capacity(window_size),
            window_size,
            burst,
        }
    }

    fn observe(&mut self, rank: Rank) {
        if self.window.len() == self.window_size {
            self.window.pop_front();
        }
        self.window.push_back(rank);
    }

    /// Fraction of the window strictly below `rank` (the rank's estimated
    /// quantile position).
    fn quantile_position(&self, rank: Rank) -> f64 {
        if self.window.is_empty() {
            return 0.0;
        }
        let below = self.window.iter().filter(|&&r| r < rank).count();
        below as f64 / self.window.len() as f64
    }

    /// Would a packet with `rank` be admitted right now?
    fn admits(&self, rank: Rank) -> bool {
        let c = self.bytes as f64 / self.capacity.bytes as f64;
        let threshold = (1.0 - c) / (1.0 - self.burst);
        self.quantile_position(rank) <= threshold
    }
}

impl PacketQueue for AifoQueue {
    fn enqueue(&mut self, p: Packet, _now: Nanos) -> Enqueue {
        let admit = self.admits(p.txf_rank) && self.capacity.fits(self.bytes, p.size as u64);
        self.observe(p.txf_rank);
        if !admit {
            return Enqueue::Rejected(Box::new(p));
        }
        self.bytes += p.size as u64;
        self.queue.push_back(p);
        Enqueue::Accepted
    }

    fn dequeue(&mut self, _now: Nanos) -> Option<Packet> {
        let p = self.queue.pop_front()?;
        self.bytes -= p.size as u64;
        Some(p)
    }

    fn len(&self) -> usize {
        self.queue.len()
    }

    fn bytes(&self) -> u64 {
        self.bytes
    }

    fn head_rank(&self) -> Option<Rank> {
        self.queue.front().map(|p| p.txf_rank)
    }

    fn kind(&self) -> &'static str {
        "aifo"
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
    fn empty_queue_admits_anything() {
        let mut q = AifoQueue::new(Capacity::bytes(1000), 8, 0.1);
        assert!(q.enqueue(pkt(0, 999), Nanos::ZERO).accepted());
    }

    #[test]
    fn congested_queue_rejects_high_ranks_admits_low() {
        let mut q = AifoQueue::new(Capacity::bytes(1000), 16, 0.0);
        // Fill to 80% with mid-rank packets.
        for i in 0..8 {
            assert!(q.enqueue(pkt(i, 50), Nanos::ZERO).accepted());
        }
        // Occupancy c=0.8 -> threshold 0.2. A rank above the whole window
        // (quantile 1.0) must be rejected; a rank below it (quantile 0.0)
        // admitted.
        assert!(!q.enqueue(pkt(100, 99), Nanos::ZERO).accepted());
        assert!(q.enqueue(pkt(101, 1), Nanos::ZERO).accepted());
    }

    #[test]
    fn never_reorders() {
        let mut q = AifoQueue::new(Capacity::bytes(10_000), 8, 0.1);
        for (i, r) in [9u64, 1, 5, 3].into_iter().enumerate() {
            q.enqueue(pkt(i as u64, r), Nanos::ZERO);
        }
        let out: Vec<u64> = std::iter::from_fn(|| q.dequeue(Nanos::ZERO))
            .map(|p| p.seq)
            .collect();
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn window_slides() {
        let mut q = AifoQueue::new(Capacity::bytes(100_000), 4, 0.0);
        // Old high ranks scroll out of the window.
        for i in 0..4 {
            q.enqueue(pkt(i, 1000), Nanos::ZERO);
        }
        for i in 4..8 {
            q.enqueue(pkt(i, 10), Nanos::ZERO);
        }
        // Window is now all 10s; rank 500 sits above the entire window.
        assert_eq!(q.quantile_position(500), 1.0);
        assert_eq!(q.quantile_position(10), 0.0);
    }

    #[test]
    fn full_buffer_rejects_regardless_of_rank() {
        let mut q = AifoQueue::new(Capacity::bytes(200), 4, 0.0);
        q.enqueue(pkt(0, 5), Nanos::ZERO);
        q.enqueue(pkt(1, 5), Nanos::ZERO);
        assert!(!q.enqueue(pkt(2, 0), Nanos::ZERO).accepted());
    }

    #[test]
    #[should_panic(expected = "finite capacity")]
    fn unbounded_capacity_rejected() {
        let _ = AifoQueue::new(Capacity::UNBOUNDED, 4, 0.0);
    }
}
