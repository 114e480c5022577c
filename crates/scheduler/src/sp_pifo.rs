//! SP-PIFO: adaptive PIFO approximation on strict-priority queues
//! (Gran Alcoz et al., NSDI '20).
//!
//! Each queue keeps a *bound* — the rank of the last packet it admitted.
//! Arrivals scan queues from highest priority to lowest and take the first
//! queue whose bound is `<=` their rank ("push-up" then sets that queue's
//! bound to the rank). When a packet ranks *below* even the top queue's
//! bound, an inversion just happened; the "push-down" reaction subtracts the
//! magnitude of the inversion from every bound, re-opening the top queues
//! for high-priority traffic.

use crate::strict::QueueMapper;
use qvisor_sim::Rank;

/// The SP-PIFO rank→queue adaptation strategy.
///
/// Use with [`crate::strict::StrictPriorityBank`]:
///
/// ```
/// use qvisor_scheduler::{Capacity, SpPifoMapper, StrictPriorityBank};
/// let bank = StrictPriorityBank::new(SpPifoMapper::new(8), Capacity::packets(64, 1500));
/// ```
#[derive(Clone, Debug)]
pub struct SpPifoMapper {
    /// `bounds[i]` = rank of the last packet mapped to queue `i`.
    bounds: Vec<Rank>,
    /// Number of push-down events (inversion reactions), for metrics.
    pushdowns: u64,
}

impl SpPifoMapper {
    /// An SP-PIFO strategy over `queues` strict-priority queues, bounds
    /// initialised to zero.
    ///
    /// # Panics
    /// Panics if `queues` is zero.
    pub fn new(queues: usize) -> SpPifoMapper {
        assert!(queues > 0, "need at least one queue");
        SpPifoMapper {
            bounds: vec![0; queues],
            pushdowns: 0,
        }
    }

    /// Current queue bounds (highest priority first).
    pub fn bounds(&self) -> &[Rank] {
        &self.bounds
    }

    /// How many push-down reactions have occurred.
    #[cfg(test)]
    pub fn pushdowns(&self) -> u64 {
        self.pushdowns
    }
}

impl QueueMapper for SpPifoMapper {
    fn queue_count(&self) -> usize {
        self.bounds.len()
    }

    fn kind(&self) -> &'static str {
        "sp_pifo"
    }

    fn map(&mut self, rank: Rank) -> usize {
        // Canonical SP-PIFO (NSDI '20, Algorithm 1): scan from the
        // lowest-priority queue; the first queue whose bound is <= rank
        // admits the packet and push-up raises its bound to that rank.
        // Bounds stay non-decreasing by construction.
        let n = self.bounds.len();
        for i in (1..n).rev() {
            if rank >= self.bounds[i] {
                self.bounds[i] = rank;
                return i;
            }
        }
        // Top queue. If the rank undercuts even this bound, an inversion
        // occurred: push-down every bound by the inversion magnitude.
        if rank < self.bounds[0] {
            let delta = self.bounds[0] - rank;
            for b in &mut self.bounds {
                *b = b.saturating_sub(delta);
            }
            self.pushdowns += 1;
        }
        self.bounds[0] = rank;
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::{Capacity, PacketQueue};
    use crate::strict::StrictPriorityBank;
    use qvisor_sim::{FlowId, Nanos, NodeId, Packet, SimRng, TenantId};

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
    fn monotone_ranks_spread_across_queues() {
        let mut m = SpPifoMapper::new(4);
        // Increasing ranks walk down to ever-lower-priority queues once
        // bounds adapt; the first packet lands in the deepest queue with
        // bound 0 (all bounds start at 0 → deepest wins).
        let q0 = m.map(10);
        assert_eq!(q0, 3);
        assert_eq!(m.bounds()[3], 10);
        // A smaller rank now avoids queue 3 (bound 10) and lands higher.
        let q1 = m.map(5);
        assert!(q1 < 3);
    }

    #[test]
    fn pushdown_on_inversion() {
        let mut m = SpPifoMapper::new(2);
        m.map(10); // bounds -> [0, 10], packet in queue 1
        m.map(4); // queue 0, bounds [4, 10]
        assert_eq!(m.bounds(), &[4, 10]);
        // rank 1 < bounds[0]=4: push-down by 3 -> [1, 7], mapped to queue 0.
        let q = m.map(1);
        assert_eq!(q, 0);
        assert_eq!(m.bounds(), &[1, 7]);
        assert_eq!(m.pushdowns(), 1);
    }

    #[test]
    fn bounds_stay_sorted() {
        let mut m = SpPifoMapper::new(4);
        let mut rng = SimRng::seed_from(99);
        for _ in 0..10_000 {
            let _ = m.map(rng.below(1000));
            let mut sorted = m.bounds().to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, m.bounds(), "bounds must remain non-decreasing");
        }
    }

    #[test]
    fn approximates_pifo_order_better_than_single_fifo() {
        // Count rank inversions at dequeue: SP-PIFO should produce far fewer
        // than FIFO order on random ranks.
        let mut rng = SimRng::seed_from(7);
        let ranks: Vec<Rank> = (0..512).map(|_| rng.below(100)).collect();

        let inversions = |order: &[Rank]| -> u64 {
            let mut inv = 0;
            for i in 0..order.len() {
                for j in i + 1..order.len() {
                    if order[j] < order[i] {
                        inv += 1;
                    }
                }
            }
            inv
        };

        // FIFO order = arrival order.
        let fifo_inv = inversions(&ranks);

        // SP-PIFO with 8 queues. Bulk enqueue-then-drain is SP-PIFO's worst
        // case (no steady-state adaptation), yet it should still clearly
        // beat a single FIFO.
        let mut bank = StrictPriorityBank::new(SpPifoMapper::new(8), Capacity::UNBOUNDED);
        for (i, &r) in ranks.iter().enumerate() {
            bank.enqueue(pkt(i as u64, r), Nanos::ZERO);
        }
        let sp_order: Vec<Rank> = std::iter::from_fn(|| bank.dequeue(Nanos::ZERO))
            .map(|p| p.txf_rank)
            .collect();
        assert_eq!(sp_order.len(), ranks.len());
        let sp_inv = inversions(&sp_order);
        assert!(
            sp_inv * 2 < fifo_inv,
            "SP-PIFO inversions ({sp_inv}) should be well below FIFO ({fifo_inv})"
        );
    }

    #[test]
    fn single_queue_degenerates_to_fifo() {
        let mut m = SpPifoMapper::new(1);
        for r in [5, 1, 9, 3] {
            assert_eq!(m.map(r), 0);
        }
    }
}
