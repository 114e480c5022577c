//! A minimal reliable window transport, in the spirit of pFabric's
//! "minimal transport" (Alizadeh et al., SIGCOMM '13).
//!
//! Design: a fixed window of `cwnd` unacknowledged packets, per-packet
//! ACKs, and per-packet retransmission timers. There is no congestion
//! window adaptation — pFabric's thesis is that rank-aware switches (small
//! buffers + priority drop) do the congestion control, and the transport
//! only needs to keep the pipe full and recover losses. This preserves the
//! behaviour the paper's evaluation depends on while staying simple enough
//! to reason about.
//!
//! The sender is a pure state machine: the simulator drives it with
//! `on_start` / `on_ack` / `on_timeout` and receives send requests back.

use crate::flow::FlowDef;
use qvisor_sim::Nanos;
use std::collections::{BTreeSet, VecDeque};

/// A request from the sender to emit one data packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SendReq {
    /// Sequence number (0-based packet index within the flow).
    pub seq: u64,
    /// Application payload bytes in this packet.
    pub payload: u32,
    /// True when this is a retransmission.
    pub retransmit: bool,
}

/// Outcome of delivering an ACK to the sender.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AckOutcome {
    /// The new packet the window now admits: the window is kept full, so
    /// one ACK frees one slot and admits at most one packet.
    pub sends: Option<SendReq>,
    /// The flow just completed (all bytes acknowledged).
    pub completed: bool,
}

/// Sender-side state machine of one reliable flow.
#[derive(Clone, Debug)]
pub struct ReliableSender {
    def: FlowDef,
    mss: u32,
    cwnd: u32,
    /// Total packets in the flow.
    total_pkts: u64,
    /// Next never-sent sequence.
    next_seq: u64,
    /// Sequences sent and not yet acknowledged, ascending: never more
    /// than `cwnd` of them. Sends append (sequences only grow) and ACKs
    /// mostly retire the front — O(1) in a ring — so it does a tree's job.
    unacked: VecDeque<u64>,
    /// Acknowledged payload bytes.
    acked_bytes: u64,
    completed: bool,
}

impl ReliableSender {
    /// A sender for `def`, segmenting into `mss`-byte packets with a fixed
    /// window of `cwnd` packets.
    ///
    /// # Panics
    /// Panics if `mss`, `cwnd`, or the flow size is zero.
    pub fn new(def: FlowDef, mss: u32, cwnd: u32) -> ReliableSender {
        assert!(mss > 0, "mss must be positive");
        assert!(cwnd > 0, "window must be positive");
        assert!(def.size > 0, "empty flow");
        let total_pkts = def.size.div_ceil(mss as u64);
        ReliableSender {
            def,
            mss,
            cwnd,
            total_pkts,
            next_seq: 0,
            unacked: VecDeque::with_capacity(cwnd as usize),
            acked_bytes: 0,
            completed: false,
        }
    }

    /// The flow definition.
    pub fn def(&self) -> &FlowDef {
        &self.def
    }

    /// Packets in the flow.
    pub fn total_pkts(&self) -> u64 {
        self.total_pkts
    }

    /// Payload bytes of packet `seq` (the last packet may be short).
    pub fn payload_of(&self, seq: u64) -> u32 {
        debug_assert!(seq < self.total_pkts);
        if seq + 1 == self.total_pkts {
            let rem = self.def.size - (self.total_pkts - 1) * self.mss as u64;
            rem as u32
        } else {
            self.mss
        }
    }

    /// Bytes not yet acknowledged — pFabric's rank signal ("remaining flow
    /// size").
    pub fn remaining_bytes(&self) -> u64 {
        self.def.size - self.acked_bytes
    }

    /// Bytes already handed to the network at least once.
    pub fn bytes_sent(&self) -> u64 {
        (self.next_seq * self.mss as u64).min(self.def.size)
    }

    /// Has every byte been acknowledged?
    pub fn is_complete(&self) -> bool {
        self.completed
    }

    /// Send the next never-sent packet, if the window has room for it.
    fn send_next(&mut self) -> Option<SendReq> {
        if self.unacked.len() as u32 >= self.cwnd || self.next_seq >= self.total_pkts {
            return None;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.unacked.push_back(seq);
        Some(SendReq {
            seq,
            payload: self.payload_of(seq),
            retransmit: false,
        })
    }

    /// Start the flow: emit the initial window.
    pub fn on_start(&mut self, _now: Nanos) -> Vec<SendReq> {
        debug_assert_eq!(self.next_seq, 0, "on_start called twice");
        std::iter::from_fn(|| self.send_next()).collect()
    }

    /// Deliver an ACK for `seq`. Duplicate ACKs are ignored.
    pub fn on_ack(&mut self, seq: u64, _now: Nanos) -> AckOutcome {
        if self.completed {
            return AckOutcome::default();
        }
        let Ok(slot) = self.unacked.binary_search(&seq) else {
            return AckOutcome::default();
        };
        self.unacked.remove(slot);
        self.acked_bytes += self.payload_of(seq) as u64;
        if self.acked_bytes >= self.def.size {
            self.completed = true;
            debug_assert!(self.unacked.is_empty());
            return AckOutcome {
                sends: None,
                completed: true,
            };
        }
        let sends = self.send_next();
        debug_assert!(
            self.unacked.len() as u32 == self.cwnd || self.next_seq == self.total_pkts,
            "one ACK reopened more than one slot"
        );
        AckOutcome {
            sends,
            completed: false,
        }
    }

    /// The retransmission timer for `seq` fired. Returns the packet to
    /// resend, or `None` if it was acknowledged in the meantime.
    pub fn on_timeout(&mut self, seq: u64, _now: Nanos) -> Option<SendReq> {
        if self.completed || self.unacked.binary_search(&seq).is_err() {
            return None;
        }
        Some(SendReq {
            seq,
            payload: self.payload_of(seq),
            retransmit: true,
        })
    }
}

/// Receiver-side state of one reliable flow: tracks distinct payload bytes
/// seen so duplicates (from retransmissions) aren't double counted.
#[derive(Clone, Debug, Default)]
pub struct ReliableReceiver {
    /// Every sequence below this has been received.
    delivered_prefix: u64,
    /// Received sequences above `delivered_prefix` (never that sequence
    /// itself): what loss and reordering left ahead of the first gap.
    out_of_order: BTreeSet<u64>,
    received_bytes: u64,
    duplicate_pkts: u64,
}

impl ReliableReceiver {
    /// Fresh receiver.
    pub fn new() -> ReliableReceiver {
        ReliableReceiver::default()
    }

    /// A data packet arrived; returns true if it carried new bytes.
    /// (An ACK is generated either way — the sender needs it.)
    pub fn on_data(&mut self, seq: u64, payload: u32) -> bool {
        let fresh = if seq == self.delivered_prefix {
            self.delivered_prefix += 1;
            while self.out_of_order.remove(&self.delivered_prefix) {
                self.delivered_prefix += 1;
            }
            true
        } else {
            seq > self.delivered_prefix && self.out_of_order.insert(seq)
        };
        if fresh {
            self.received_bytes += payload as u64;
        } else {
            self.duplicate_pkts += 1;
        }
        fresh
    }

    /// Distinct payload bytes received.
    pub fn received_bytes(&self) -> u64 {
        self.received_bytes
    }

    /// Duplicate data packets seen.
    pub fn duplicates(&self) -> u64 {
        self.duplicate_pkts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qvisor_sim::{FlowId, NodeId, TenantId};

    fn def(size: u64) -> FlowDef {
        FlowDef::new(
            FlowId(1),
            TenantId(1),
            NodeId(0),
            NodeId(1),
            size,
            Nanos::ZERO,
        )
    }

    #[test]
    fn initial_window_respects_cwnd() {
        let mut s = ReliableSender::new(def(100_000), 1_000, 8);
        let sends = s.on_start(Nanos::ZERO);
        assert_eq!(sends.len(), 8);
        assert_eq!(sends[0].seq, 0);
        assert_eq!(sends[7].seq, 7);
        assert!(sends.iter().all(|r| !r.retransmit && r.payload == 1_000));
    }

    #[test]
    fn short_flow_sends_everything_at_once() {
        let mut s = ReliableSender::new(def(2_500), 1_000, 8);
        assert_eq!(s.total_pkts(), 3);
        let sends = s.on_start(Nanos::ZERO);
        assert_eq!(sends.len(), 3);
        assert_eq!(sends[2].payload, 500, "tail packet is short");
    }

    #[test]
    fn ack_opens_window_and_completes() {
        let mut s = ReliableSender::new(def(5_000), 1_000, 2);
        let first = s.on_start(Nanos::ZERO);
        assert_eq!(first.len(), 2);
        // ACK seq 0 -> slides to seq 2.
        let out = s.on_ack(0, Nanos::ZERO);
        assert_eq!(
            out.sends,
            Some(SendReq {
                seq: 2,
                payload: 1_000,
                retransmit: false
            })
        );
        assert!(!out.completed);
        s.on_ack(1, Nanos::ZERO);
        s.on_ack(2, Nanos::ZERO);
        s.on_ack(3, Nanos::ZERO);
        let last = s.on_ack(4, Nanos::ZERO);
        assert!(last.completed);
        assert!(s.is_complete());
        assert_eq!(s.remaining_bytes(), 0);
    }

    #[test]
    fn remaining_bytes_tracks_acks_not_sends() {
        let mut s = ReliableSender::new(def(10_000), 1_000, 4);
        s.on_start(Nanos::ZERO);
        assert_eq!(s.remaining_bytes(), 10_000, "sends don't shrink remaining");
        s.on_ack(0, Nanos::ZERO);
        assert_eq!(s.remaining_bytes(), 9_000);
        assert_eq!(s.bytes_sent(), 5_000, "4 initial + 1 slid");
    }

    #[test]
    fn duplicate_acks_ignored() {
        let mut s = ReliableSender::new(def(3_000), 1_000, 3);
        s.on_start(Nanos::ZERO);
        s.on_ack(1, Nanos::ZERO);
        let dup = s.on_ack(1, Nanos::ZERO);
        assert_eq!(dup, AckOutcome::default());
        assert_eq!(s.remaining_bytes(), 2_000);
    }

    #[test]
    fn timeout_retransmits_only_unacked() {
        let mut s = ReliableSender::new(def(3_000), 1_000, 3);
        s.on_start(Nanos::ZERO);
        s.on_ack(1, Nanos::ZERO);
        assert_eq!(
            s.on_timeout(0, Nanos::ZERO),
            Some(SendReq {
                seq: 0,
                payload: 1_000,
                retransmit: true
            })
        );
        assert_eq!(s.on_timeout(1, Nanos::ZERO), None, "already acked");
    }

    #[test]
    fn retransmission_then_ack_completes_once() {
        let mut s = ReliableSender::new(def(1_000), 1_000, 4);
        s.on_start(Nanos::ZERO);
        let _ = s.on_timeout(0, Nanos::ZERO);
        let out = s.on_ack(0, Nanos::ZERO);
        assert!(out.completed);
        // A late duplicate (from the retransmitted copy) changes nothing.
        let dup = s.on_ack(0, Nanos::ZERO);
        assert!(!dup.completed);
        assert!(s.is_complete());
    }

    /// The sender against the model it replaced: a set of every unacked
    /// sequence. Random ACK orders with losses, duplicates, ACKs for
    /// sequences never sent, and timeouts for live and dead sequences.
    #[test]
    fn sender_matches_the_set_model() {
        let mut rng = qvisor_sim::SimRng::seed_from(0x5E9D);
        for case in 0..300u64 {
            let cwnd = 1 + rng.below(16) as u32;
            let pkts = 1 + rng.below(120);
            let size = pkts * 1_000 - rng.below(1_000);
            let mut sender = ReliableSender::new(def(size), 1_000, cwnd);
            let (mut model, mut next, mut acked) = (BTreeSet::new(), 0u64, 0u64);
            // The model's window: admit while |unacked| < cwnd.
            let admit = |model: &mut BTreeSet<u64>, next: &mut u64| {
                (model.len() < cwnd as usize && *next < pkts).then(|| {
                    model.insert(*next);
                    *next += 1;
                    *next - 1
                })
            };
            let started: Vec<u64> = sender.on_start(Nanos::ZERO).iter().map(|r| r.seq).collect();
            let expect: Vec<u64> = std::iter::from_fn(|| admit(&mut model, &mut next)).collect();
            assert_eq!(started, expect, "case {case}: initial window");
            let mut in_flight = started; // ACKs that may still arrive
            for _step in 0..10_000 {
                if model.is_empty() {
                    break;
                }
                let seq = match rng.below(10) {
                    // Mostly: an ACK for something sent, in random order
                    // (kept in `in_flight`, so duplicates arrive too).
                    0..=6 => in_flight[rng.below(in_flight.len() as u64) as usize],
                    // The oldest outstanding (the in-order common case).
                    7 => *model.first().unwrap(),
                    // Anything, sent or not.
                    _ => rng.below(pkts + 2),
                };
                if rng.below(5) == 0 {
                    let live = model.contains(&seq);
                    let got = sender.on_timeout(seq, Nanos::ZERO);
                    assert_eq!(got.map(|r| r.seq), live.then_some(seq), "case {case}");
                    assert!(got.is_none_or(|r| r.retransmit));
                    continue;
                }
                let out = sender.on_ack(seq, Nanos::ZERO);
                if !model.remove(&seq) {
                    assert_eq!(out, AckOutcome::default(), "case {case}: dead ACK {seq}");
                    continue;
                }
                acked += sender.payload_of(seq) as u64;
                assert_eq!(sender.remaining_bytes(), size - acked, "case {case}");
                let admitted = admit(&mut model, &mut next);
                assert_eq!(out.sends.map(|r| r.seq), admitted, "case {case}: slide");
                assert_eq!(out.completed, model.is_empty(), "case {case}");
                in_flight.extend(admitted);
                assert!(
                    sender.unacked.iter().copied().eq(model.iter().copied()),
                    "case {case}: {:?} vs {model:?}",
                    sender.unacked
                );
                assert!(sender.unacked.len() <= cwnd as usize);
            }
            assert!(sender.is_complete(), "case {case} did not finish");
            assert_eq!(sender.on_ack(0, Nanos::ZERO), AckOutcome::default());
            assert_eq!(sender.on_timeout(0, Nanos::ZERO), None);
        }
    }

    #[test]
    fn receiver_dedupes() {
        let mut r = ReliableReceiver::new();
        assert!(r.on_data(0, 1_000));
        assert!(r.on_data(1, 500));
        assert!(!r.on_data(0, 1_000));
        assert_eq!(r.received_bytes(), 1_500);
        assert_eq!(r.duplicates(), 1);
    }

    /// The receiver against the model it replaced: a set of every sequence
    /// ever seen. Random permutations with duplicates and gaps.
    #[test]
    fn receiver_matches_the_keep_everything_model() {
        let mut rng = qvisor_sim::SimRng::seed_from(0xACE);
        for case in 0..200u64 {
            let n = 1 + rng.below(300);
            // Arrival order: in order, a local shuffle (reordering), or a
            // full shuffle; then drop some (gaps) and repeat some
            // (retransmissions), possibly much later.
            let mut arrivals: Vec<u64> = (0..n).collect();
            let reach = [0, 4, n][(case % 3) as usize];
            for i in 0..arrivals.len() {
                let j = (i as u64 + rng.below(reach + 1)).min(n - 1) as usize;
                arrivals.swap(i, j);
            }
            arrivals.retain(|_| rng.below(10) != 0);
            let repeats = if arrivals.is_empty() { 0 } else { rng.below(n) };
            for _ in 0..repeats {
                let dup = arrivals[rng.below(arrivals.len() as u64) as usize];
                let at = rng.below(arrivals.len() as u64 + 1) as usize;
                arrivals.insert(at, dup);
            }
            let mut receiver = ReliableReceiver::new();
            let mut seen = BTreeSet::new();
            let (mut bytes, mut duplicates) = (0u64, 0u64);
            for seq in arrivals {
                let payload = 1 + (seq % 1_460) as u32;
                let fresh = seen.insert(seq);
                if fresh {
                    bytes += payload as u64;
                } else {
                    duplicates += 1;
                }
                assert_eq!(
                    receiver.on_data(seq, payload),
                    fresh,
                    "case {case} seq {seq}"
                );
                assert_eq!(receiver.received_bytes(), bytes, "case {case}");
                assert_eq!(receiver.duplicates(), duplicates, "case {case}");
                assert!(
                    receiver.out_of_order.len() + receiver.delivered_prefix as usize == seen.len()
                        && !receiver.out_of_order.contains(&receiver.delivered_prefix),
                    "case {case}: prefix not maximal"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty flow")]
    fn zero_size_flow_rejected() {
        let _ = ReliableSender::new(def(0), 1_000, 4);
    }
}
