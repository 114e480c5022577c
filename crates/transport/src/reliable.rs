//! A minimal reliable window transport, in the spirit of pFabric's
//! "minimal transport" (Alizadeh et al., SIGCOMM '13).
//!
//! Design: a fixed window of `cwnd` unacknowledged packets, per-packet
//! ACKs, and one retransmission timer per *flow*. There is no congestion
//! window adaptation — pFabric's thesis is that rank-aware switches (small
//! buffers + priority drop) do the congestion control, and the transport
//! only needs to keep the pipe full and recover losses. This preserves the
//! behaviour the paper's evaluation depends on while staying simple enough
//! to reason about.
//!
//! The sender is a pure state machine: the simulator drives it with
//! `on_start` / `on_ack` / `on_expiry` and receives send requests back.
//!
//! # The timer
//!
//! Every transmission of a sequence has a deadline — `now + rto`, doubling
//! per retransmission of that sequence up to 16× — kept with its attempt
//! count in the sequence's entry of the `unacked` ring. The driver does not
//! get one timer event per packet (nearly all of which would fire long
//! after the ACK): it keeps at most one *live* event per flow. The rule:
//!
//! * after anything that sends (`on_start`, an `on_ack` that admitted a
//!   packet, `on_expiry`), call [`ReliableSender::arm`]; it returns the
//!   [`Expiry`] to schedule when the earliest unacked `(deadline, seq)` is
//!   earlier than what is armed — *min over unacked*, not "the packet just
//!   sent": a fresh send's deadline undercuts an armed backed-off one;
//! * an ACK for the armed sequence re-arms nothing: the event stays
//!   pending and fires dead;
//! * when the event fires, hand it to [`ReliableSender::on_expiry`]. It is
//!   *live* — answered with the retransmission — exactly when it is the
//!   armed one and its sequence still waits on that very `(deadline,
//!   attempt)`; an event an earlier arming superseded, or one whose
//!   sequence was acknowledged, is dead. Either way `arm` again.
//!
//! The armed expiry is never later than any unacked deadline, so every
//! expiry a timer-per-packet driver would have seen live is seen live here,
//! at the same instant, in the same `(deadline, seq)` order — and none of
//! the dead ones in between (the tests drive both against each other).
//!
//! [`ReliableSender::on_timeout`] is the entry point for a driver that
//! keeps its own clock (the benchmark's lock-step probe): it answers from
//! `unacked` alone — is `seq` outstanding? — whatever the deadlines say,
//! and is what a live `on_expiry` ends in.

use crate::flow::FlowDef;
use qvisor_sim::Nanos;
use std::collections::VecDeque;

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

/// A retransmission-timer expiry: `seq`, retransmitted `attempt` times so
/// far, times out at `at`. Ordered as the events fire: by time, then
/// sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Expiry {
    /// When the timer fires.
    pub at: Nanos,
    /// The sequence it guards.
    pub seq: u64,
    /// Retransmissions of `seq` so far: 0 while its first transmission
    /// is the one waiting.
    pub attempt: u32,
}

/// Sender-side state machine of one reliable flow.
#[derive(Clone, Debug)]
pub struct ReliableSender {
    def: FlowDef,
    mss: u32,
    cwnd: u32,
    /// Base retransmission timeout (attempt 0).
    rto: Nanos,
    /// Total packets in the flow.
    total_pkts: u64,
    /// Next never-sent sequence.
    next_seq: u64,
    /// Sequences sent and not yet acknowledged, ascending by `seq`, each
    /// with the expiry of its latest transmission: never more than `cwnd`
    /// of them. Sends append (sequences only grow) and ACKs mostly retire
    /// the front — O(1) in a ring — so it does a tree's job. Allocated by
    /// `on_start`, released on completion: only a flow in flight holds a
    /// ring.
    unacked: VecDeque<Expiry>,
    /// The expiry the driver's one pending timer event was last armed for
    /// (module docs, "The timer"): never later than any unacked deadline.
    armed: Option<Expiry>,
    /// Acknowledged payload bytes.
    acked_bytes: u64,
    completed: bool,
}

impl ReliableSender {
    /// A sender for `def`, segmenting into `mss`-byte packets with a fixed
    /// window of `cwnd` packets. Its retransmission timeout is zero until
    /// [`ReliableSender::with_rto`] sets one.
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
            rto: Nanos::ZERO,
            total_pkts,
            next_seq: 0,
            unacked: VecDeque::new(),
            armed: None,
            acked_bytes: 0,
            completed: false,
        }
    }

    /// Time a first transmission out after `rto`; the `n`-th
    /// retransmission of a sequence after `rto · 2^min(n, 4)`.
    pub fn with_rto(mut self, rto: Nanos) -> ReliableSender {
        self.rto = rto;
        self
    }

    /// The flow definition.
    pub fn def(&self) -> &FlowDef {
        &self.def
    }

    /// Payload bytes of packet `seq` (the last packet may be short).
    fn payload_of(&self, seq: u64) -> u32 {
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

    /// Timeout of a sequence's `attempt`-th retransmission (exponential
    /// backoff, capped at 16x the base RTO) — bounds spurious
    /// retransmissions of packets starved behind their own flow's
    /// lower-ranked successors.
    fn rto_for(&self, attempt: u32) -> Nanos {
        self.rto * (1u64 << attempt.min(4))
    }

    /// Position of `seq` in `unacked`: the front (where ACKs mostly land)
    /// before the search.
    fn slot_of(&self, seq: u64) -> Option<usize> {
        match self.unacked.front() {
            Some(front) if front.seq == seq => Some(0),
            Some(front) if front.seq < seq => {
                self.unacked.binary_search_by_key(&seq, |u| u.seq).ok()
            }
            _ => None,
        }
    }

    /// Send the next never-sent packet, if the window has room for it.
    fn send_next(&mut self, now: Nanos) -> Option<SendReq> {
        if self.unacked.len() as u32 >= self.cwnd || self.next_seq >= self.total_pkts {
            return None;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.unacked.push_back(Expiry {
            at: now + self.rto,
            seq,
            attempt: 0,
        });
        Some(SendReq {
            seq,
            payload: self.payload_of(seq),
            retransmit: false,
        })
    }

    /// Start the flow: emit the initial window.
    pub fn on_start(&mut self, now: Nanos) -> Vec<SendReq> {
        debug_assert_eq!(self.next_seq, 0, "on_start called twice");
        let window = self.total_pkts.min(self.cwnd as u64) as usize;
        self.unacked.reserve_exact(window);
        std::iter::from_fn(|| self.send_next(now)).collect()
    }

    /// Deliver an ACK for `seq`. Duplicate ACKs are ignored.
    pub fn on_ack(&mut self, seq: u64, now: Nanos) -> AckOutcome {
        let Some(slot) = self.slot_of(seq) else {
            return AckOutcome::default();
        };
        self.unacked.remove(slot);
        self.acked_bytes += self.payload_of(seq) as u64;
        if self.acked_bytes >= self.def.size {
            self.completed = true;
            debug_assert!(self.unacked.is_empty());
            self.unacked = VecDeque::new();
            return AckOutcome {
                sends: None,
                completed: true,
            };
        }
        let sends = self.send_next(now);
        debug_assert!(
            self.unacked.len() as u32 == self.cwnd || self.next_seq == self.total_pkts,
            "one ACK reopened more than one slot"
        );
        AckOutcome {
            sends,
            completed: false,
        }
    }

    /// `seq` timed out at `now`, by the caller's clock: returns the packet
    /// to resend and backs its timer off, or `None` if it was acknowledged
    /// in the meantime. Answers from `unacked` alone, whatever the
    /// deadlines say (module docs, "The timer").
    pub fn on_timeout(&mut self, seq: u64, now: Nanos) -> Option<SendReq> {
        let slot = self.slot_of(seq)?;
        let attempt = self.unacked[slot].attempt + 1;
        self.unacked[slot].attempt = attempt;
        self.unacked[slot].at = now + self.rto_for(attempt);
        Some(SendReq {
            seq,
            payload: self.payload_of(seq),
            retransmit: true,
        })
    }

    /// The timer event the driver must schedule now, if any: the earliest
    /// unacked `(deadline, seq)`, when nothing that early is armed yet.
    /// Call after anything that sent.
    pub fn arm(&mut self) -> Option<Expiry> {
        let earliest = match self.armed {
            // An armed expiry is no later than anything that was unacked
            // when it was armed; the one packet an ACK admitted since is
            // at the back.
            Some(_) => *self.unacked.back()?,
            None => *self.unacked.iter().min()?,
        };
        if self.armed.is_some_and(|armed| armed <= earliest) {
            return None;
        }
        self.armed = Some(earliest);
        Some(earliest)
    }

    /// The timer event scheduled for `fired` popped. Returns the
    /// retransmission when it is live: the armed event, for a sequence
    /// still waiting on exactly that transmission. Call [`Self::arm`]
    /// afterwards either way.
    pub fn on_expiry(&mut self, fired: Expiry) -> Option<SendReq> {
        if self.armed != Some(fired) {
            return None; // superseded by an earlier arming
        }
        self.armed = None;
        let waiting = self.unacked[self.slot_of(fired.seq)?];
        (waiting == fired).then(|| {
            self.on_timeout(fired.seq, fired.at)
                .expect("found in unacked")
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
    /// itself) — what loss and reordering left ahead of the first gap — as
    /// a bit window: bit `s % 64` of word `s / 64 - delivered_prefix / 64`
    /// is set iff `s` was received. Grown on demand, front words dropped
    /// as the prefix passes them, empty whenever nothing is ahead of the
    /// prefix (so in-order delivery never touches it). Bits below the
    /// prefix in the front word are stale and never read.
    window: VecDeque<u64>,
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
        let fresh = if seq < self.delivered_prefix {
            false
        } else if seq > self.delivered_prefix {
            let word = (seq / 64 - self.delivered_prefix / 64) as usize;
            if self.window.len() <= word {
                self.window.resize(word + 1, 0);
            }
            let bit = 1u64 << (seq % 64);
            let seen = self.window[word] & bit != 0;
            self.window[word] |= bit;
            !seen
        } else {
            self.delivered_prefix += 1;
            self.absorb_window();
            true
        };
        if fresh {
            self.received_bytes += payload as u64;
        } else {
            self.duplicate_pkts += 1;
        }
        fresh
    }

    /// The prefix just advanced by one: carry it over the run of received
    /// sequences that now touches it, dropping the words it passes.
    fn absorb_window(&mut self) {
        if self.delivered_prefix.is_multiple_of(64) {
            self.window.pop_front(); // the advance itself left the front word
        }
        while let Some(&front) = self.window.front() {
            let ahead = front >> (self.delivered_prefix % 64);
            let run = (!ahead).trailing_zeros() as u64;
            self.delivered_prefix += run;
            if self.delivered_prefix.is_multiple_of(64) && run > 0 {
                self.window.pop_front();
            } else {
                if ahead >> run == 0 && self.window.len() == 1 {
                    self.window.clear(); // nothing ahead of the prefix
                }
                break;
            }
        }
    }

    /// Distinct payload bytes received.
    pub fn received_bytes(&self) -> u64 {
        self.received_bytes
    }

    /// Duplicate data packets seen.
    #[cfg(test)]
    pub fn duplicates(&self) -> u64 {
        self.duplicate_pkts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qvisor_sim::{FlowId, NodeId, SimRng, TenantId};
    use std::collections::BTreeSet;

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
        assert_eq!(s.total_pkts, 3);
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
                    sender
                        .unacked
                        .iter()
                        .map(|u| u.seq)
                        .eq(model.iter().copied()),
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

    /// What the one-timer-per-flow sender replaced, as the oracle: every
    /// transmission schedules its own timer at `now + rto·2^min(attempt,4)`
    /// and a timer is live when it pops iff its sequence is still unacked.
    struct TimerPerPacket {
        rto: u64,
        cwnd: usize,
        pkts: u64,
        next: u64,
        unacked: BTreeSet<u64>,
        /// Pending timers, live and dead, in pop order.
        timers: BTreeSet<Expiry>,
    }

    impl TimerPerPacket {
        fn send(&mut self, seq: u64, attempt: u32, now: Nanos) {
            let at = now + Nanos(self.rto << attempt.min(4));
            self.timers.insert(Expiry { at, seq, attempt });
        }

        fn admit(&mut self, now: Nanos) -> Option<u64> {
            (self.unacked.len() < self.cwnd && self.next < self.pkts).then(|| {
                let seq = self.next;
                self.next += 1;
                self.unacked.insert(seq);
                self.send(seq, 0, now);
                seq
            })
        }
    }

    /// One flow over a lossy, reordering, duplicating network, driven to
    /// completion with the oracle and the sender side by side. Returns the
    /// live expiries and how many timer events each side scheduled
    /// `(oracle, sender)`.
    fn race_the_timer_models(rng: &mut SimRng, cwnd: u32, pkts: u64) -> (Vec<Expiry>, u64, u64) {
        const RTO: u64 = 1_000;
        let mut oracle = TimerPerPacket {
            rto: RTO,
            cwnd: cwnd as usize,
            pkts,
            next: 0,
            unacked: BTreeSet::new(),
            timers: BTreeSet::new(),
        };
        let mut sender = ReliableSender::new(def(pkts * 1_000), 1_000, cwnd).with_rto(Nanos(RTO));
        // The sender's timer events (a multiset: a superseded event may
        // equal a later arming) and the ACKs in flight, `(at, seq)`.
        let mut events: Vec<Expiry> = Vec::new();
        let mut acks: BTreeSet<(Nanos, u64, u64)> = BTreeSet::new();
        let (mut live, mut uid, mut scheduled) = (Vec::new(), 0u64, 0u64);
        // A transmission's fate: lost, or ACKed after a delay that is
        // often longer than the RTO and often lands on a timer's instant.
        let mut transmit = |seq: u64, now: Nanos, rng: &mut SimRng, acks: &mut BTreeSet<_>| {
            for _copy in 0..1 + rng.below(8) / 7 {
                if rng.below(4) != 0 {
                    let delay = match rng.below(3) {
                        0 => 1 + rng.below(300),
                        1 => RTO * (1 + rng.below(3)),
                        _ => 1 + rng.below(3 * RTO),
                    };
                    uid += 1;
                    acks.insert((now + Nanos(delay), seq, uid));
                }
            }
        };
        let started: Vec<u64> = (sender.on_start(Nanos::ZERO).iter())
            .map(|r| r.seq)
            .collect();
        let expect: Vec<u64> = std::iter::from_fn(|| oracle.admit(Nanos::ZERO)).collect();
        assert_eq!(started, expect);
        for &seq in &started {
            transmit(seq, Nanos::ZERO, rng, &mut acks);
        }
        events.extend(sender.arm());
        scheduled += events.len() as u64;
        for _step in 0..200_000 {
            if oracle.unacked.is_empty() {
                break;
            }
            // The network also carries ACKs for sequences never sent.
            if rng.below(50) == 0 {
                let at = acks.first().map_or(Nanos::ZERO, |a| a.0);
                acks.insert((at, rng.below(pkts + 3), u64::MAX));
            }
            let next_timer = oracle.timers.first().map(|t| t.at);
            let next_ack = acks.first().map(|a| a.0);
            // Same instant: timers (event class 2) before arrivals (4).
            if next_timer.is_some_and(|t| next_ack.is_none_or(|a| t <= a)) {
                // Every oracle timer of this instant, then every sender
                // event of it: the live ones must be the same, in order.
                let now = next_timer.unwrap();
                let mut due = Vec::new();
                while let Some(t) = oracle.timers.first().copied().filter(|t| t.at == now) {
                    oracle.timers.remove(&t);
                    if oracle.unacked.contains(&t.seq) {
                        due.push(t);
                        oracle.send(t.seq, t.attempt + 1, now);
                        transmit(t.seq, now, rng, &mut acks);
                    }
                }
                let mut fired = Vec::new();
                loop {
                    events.sort();
                    let Some(at) = events.iter().position(|e| e.at <= now) else {
                        break;
                    };
                    let e = events.remove(at);
                    assert_eq!(e.at, now, "a sender event was due before the oracle's");
                    if let Some(req) = sender.on_expiry(e) {
                        assert!(req.retransmit && req.seq == e.seq);
                        fired.push(e);
                    }
                    let armed = sender.arm();
                    assert!(armed.is_none_or(|a| a > e), "armed behind the clock");
                    scheduled += armed.is_some() as u64;
                    events.extend(armed);
                }
                assert_eq!(fired, due, "live expiries at {now:?}");
                live.extend(fired);
            } else {
                let (now, seq, tag) = acks.pop_first().unwrap();
                let out = sender.on_ack(seq, now);
                if !oracle.unacked.remove(&seq) {
                    assert_eq!(out, AckOutcome::default(), "dead ACK {seq} (tag {tag})");
                    continue;
                }
                let admitted = oracle.admit(now);
                assert_eq!(out.sends.map(|r| r.seq), admitted);
                assert_eq!(out.completed, oracle.unacked.is_empty());
                if let Some(seq) = admitted {
                    transmit(seq, now, rng, &mut acks);
                    let armed = sender.arm();
                    scheduled += armed.is_some() as u64;
                    events.extend(armed);
                }
            }
        }
        assert!(sender.is_complete(), "did not finish");
        assert_eq!(sender.unacked.capacity(), 0, "ring not released");
        // Whatever is still pending is dead on both sides.
        for e in events {
            assert_eq!(sender.on_expiry(e), None);
            assert_eq!(sender.arm(), None);
        }
        let oracle_scheduled = oracle.next + live.len() as u64;
        (live, oracle_scheduled, scheduled)
    }

    /// The one-timer sender against the timer-per-packet model over random
    /// ACK orders, losses, duplicate ACKs, ACKs for never-sent sequences
    /// and back-offs: the live `(time, seq, attempt)` expiries are
    /// identical (asserted instant by instant inside the race), and the
    /// sender gets there with far fewer timer events.
    #[test]
    fn one_timer_fires_what_a_timer_per_packet_would() {
        let mut rng = SimRng::seed_from(0x71E5);
        let (mut live, mut backed_off, mut oracle_events, mut sender_events) = (0, 0, 0, 0);
        for case in 0..400u64 {
            let cwnd = 1 + rng.below(if case % 2 == 0 { 3 } else { 16 }) as u32;
            let pkts = 1 + rng.below(150);
            let (fired, oracle, sender) = race_the_timer_models(&mut rng, cwnd, pkts);
            live += fired.len();
            backed_off += fired.iter().filter(|e| e.attempt >= 2).count();
            oracle_events += oracle;
            sender_events += sender;
        }
        assert!(
            live > 5_000 && backed_off > 200,
            "{live} live, {backed_off}"
        );
        assert!(
            sender_events < oracle_events,
            "{sender_events} timer events against {oracle_events}"
        );
    }

    /// The initial window shares one deadline: its timers fire at that
    /// instant in `seq` order, one armed after the other.
    #[test]
    fn initial_window_expires_in_seq_order_at_one_instant() {
        let mut s = ReliableSender::new(def(10_000), 1_000, 4).with_rto(Nanos(500));
        assert_eq!(s.on_start(Nanos(7)).len(), 4);
        let mut armed = s.arm();
        s.on_ack(1, Nanos(100)); // admits seq 4, deadline 600
        assert_eq!(s.arm(), None, "507 is armed and earlier");
        let mut fired = Vec::new();
        while let Some(e) = armed.filter(|e| e.at == Nanos(507)) {
            fired.push((e.seq, s.on_expiry(e).map(|r| r.retransmit)));
            armed = s.arm();
        }
        assert_eq!(
            fired,
            [(0, Some(true)), (2, Some(true)), (3, Some(true))],
            "seq 1 was acknowledged: never armed"
        );
        let fresh = Expiry {
            at: Nanos(600),
            seq: 4,
            attempt: 0,
        };
        assert_eq!(armed, Some(fresh), "the backed-off three wait until 1507");
    }

    /// A fresh send after a backed-off retransmission has an earlier
    /// deadline than the armed one: arming is "min over unacked", and the
    /// event it supersedes fires dead.
    #[test]
    fn fresh_send_undercuts_an_armed_back_off() {
        let mut s = ReliableSender::new(def(3_000), 1_000, 1).with_rto(Nanos(1_000));
        s.on_start(Nanos::ZERO);
        let first = s.arm().unwrap();
        assert_eq!((first.at, first.seq, first.attempt), (Nanos(1_000), 0, 0));
        assert!(s.on_expiry(first).is_some(), "seq 0 lost: live");
        let backed_off = s.arm().unwrap();
        assert_eq!((backed_off.at, backed_off.attempt), (Nanos(3_000), 1));
        // The retransmission is ACKed at 1500; seq 1 goes out, due 2500.
        assert_eq!(s.on_ack(0, Nanos(1_500)).sends.map(|r| r.seq), Some(1));
        let fresh = s.arm().unwrap();
        assert_eq!((fresh.at, fresh.seq, fresh.attempt), (Nanos(2_500), 1, 0));
        assert_eq!(s.arm(), None, "armed once");
        assert!(s.on_expiry(fresh).is_some(), "seq 1 lost too: live at 2500");
        let next = s.arm().unwrap();
        assert_eq!((next.at, next.seq, next.attempt), (Nanos(4_500), 1, 1));
        assert_eq!(
            s.on_expiry(backed_off),
            None,
            "superseded, and seq 0 is acked"
        );
        assert_eq!(
            s.arm(),
            None,
            "a dead event re-arms nothing while one is armed"
        );
    }

    /// `on_timeout` answers from `unacked` alone — a driver with its own
    /// clock never arms anything — and still backs the deadline off.
    #[test]
    fn on_timeout_needs_no_armed_deadline() {
        let mut s = ReliableSender::new(def(2_000), 1_000, 2);
        s.on_start(Nanos::ZERO);
        assert!(s.on_timeout(1, Nanos::ZERO).is_some());
        assert!(s.on_timeout(1, Nanos::ZERO).is_some(), "as often as asked");
        s.on_ack(1, Nanos::ZERO);
        assert_eq!(s.on_timeout(1, Nanos::ZERO), None);
        assert_eq!(s.on_timeout(7, Nanos::ZERO), None, "never sent");
        let mut s = ReliableSender::new(def(2_000), 1_000, 2).with_rto(Nanos(10));
        s.on_start(Nanos::ZERO);
        for attempt in 1..=6u32 {
            s.on_timeout(0, Nanos(1_000));
            let backoff = 10 << attempt.min(4);
            assert_eq!(s.unacked[0].at, Nanos(1_000 + backoff));
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

    /// The bit window where its arithmetic has edges: a jump of more than a
    /// word past the prefix, duplicates below and above the prefix, and the
    /// prefix catching up across word boundaries (a run ending exactly on
    /// one, a run spanning a whole word, a gap in the middle word).
    #[test]
    fn receiver_window_word_boundaries() {
        let mut r = ReliableReceiver::new();
        let mut seen = BTreeSet::new();
        let mut feed = |r: &mut ReliableReceiver, seq: u64| {
            assert_eq!(r.on_data(seq, 1), seen.insert(seq), "seq {seq}");
            let prefix = (0..).find(|s| !seen.contains(s)).unwrap();
            assert_eq!(r.delivered_prefix, prefix, "after seq {seq}");
            assert_eq!(r.received_bytes(), seen.len() as u64);
            assert_eq!(
                r.window.is_empty(),
                seen.last().is_none_or(|&s| s < prefix),
                "after seq {seq}: {:?}",
                r.window
            );
        };
        for seq in 0..60 {
            feed(&mut r, seq);
        }
        feed(&mut r, 200); // a jump of > 64: three words past the prefix's
        feed(&mut r, 200);
        feed(&mut r, 59); // below the prefix
        for seq in (61..=191).rev() {
            feed(&mut r, seq); // fills [61, 64), all of word 1, word 2
        }
        feed(&mut r, 60); // absorbs through two boundaries, stops at 192
        assert_eq!(r.delivered_prefix, 192);
        for seq in 193..200 {
            feed(&mut r, seq);
        }
        feed(&mut r, 192); // the run ends inside word 3, at the jump
        assert_eq!(r.delivered_prefix, 201);
        for seq in 202..256 {
            feed(&mut r, seq);
        }
        feed(&mut r, 201); // a run ending exactly on a word boundary
        assert_eq!(r.delivered_prefix, 256);
        feed(&mut r, 256); // in order from an aligned prefix
        feed(&mut r, 320); // the word after next, from an aligned + 1 prefix
        for seq in 257..320 {
            feed(&mut r, seq);
        }
        assert_eq!(r.delivered_prefix, 321);
        assert_eq!(r.duplicates(), 2);
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
            let (mut bytes, mut duplicates, mut prefix) = (0u64, 0u64, 0u64);
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
                while seen.contains(&prefix) {
                    prefix += 1;
                }
                assert_eq!(
                    receiver.delivered_prefix, prefix,
                    "case {case}: prefix not maximal"
                );
                assert_eq!(
                    receiver.window.is_empty(),
                    seen.last().is_none_or(|&s| s < receiver.delivered_prefix),
                    "case {case}: the window outlived what is ahead of the prefix"
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
