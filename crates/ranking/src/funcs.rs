//! The rank function implementations.

use crate::ctx::RankCtx;
use crate::range::RankRange;
use crate::RankFn;
use qvisor_sim::{FlowId, Nanos, Rank};
use std::collections::HashMap;

/// pFabric / SRPT: rank = remaining flow size (Alizadeh et al.,
/// SIGCOMM '13). Short (remainders of) flows preempt long ones, minimizing
/// mean FCT.
#[derive(Clone, Debug)]
pub struct PFabric {
    /// Bytes per rank unit (quantization of remaining size).
    unit_bytes: u64,
    /// Largest emitted rank; larger remainders clamp here.
    max_rank: Rank,
}

impl PFabric {
    /// Ranks are `remaining_bytes / unit_bytes`, clamped to `max_rank`.
    ///
    /// # Panics
    /// Panics if `unit_bytes` is zero.
    pub fn new(unit_bytes: u64, max_rank: Rank) -> PFabric {
        assert!(unit_bytes > 0, "unit must be positive");
        PFabric {
            unit_bytes,
            max_rank,
        }
    }

    /// The paper-style default: 1 KB units, remainders up to 100 MB.
    pub fn default_datacenter() -> PFabric {
        PFabric::new(1_000, 100_000)
    }
}

impl RankFn for PFabric {
    fn rank(&mut self, ctx: &RankCtx) -> Rank {
        (ctx.bytes_remaining() / self.unit_bytes).min(self.max_rank)
    }

    fn range(&self) -> RankRange {
        RankRange::new(0, self.max_rank)
    }

    fn name(&self) -> &'static str {
        "pFabric"
    }
}

/// Earliest-deadline-first: rank = time to deadline (slack), so the most
/// urgent deadline dequeues first.
#[derive(Clone, Debug)]
pub struct Edf {
    /// Nanoseconds per rank unit.
    unit: Nanos,
    /// Largest emitted rank (slacks beyond `unit * max_rank` clamp).
    max_rank: Rank,
}

impl Edf {
    /// Ranks are `slack / unit`, clamped to `max_rank`. Packets without a
    /// deadline rank last (`max_rank`).
    ///
    /// # Panics
    /// Panics if `unit` is zero.
    pub fn new(unit: Nanos, max_rank: Rank) -> Edf {
        assert!(unit > Nanos::ZERO, "unit must be positive");
        Edf { unit, max_rank }
    }

    /// Microsecond-granularity EDF with a 10 ms horizon.
    pub fn default_datacenter() -> Edf {
        Edf::new(Nanos::from_micros(1), 10_000)
    }
}

impl RankFn for Edf {
    fn rank(&mut self, ctx: &RankCtx) -> Rank {
        match ctx.deadline {
            Some(_) => (ctx.slack().as_nanos() / self.unit.as_nanos()).min(self.max_rank),
            None => self.max_rank,
        }
    }

    fn range(&self) -> RankRange {
        RankRange::new(0, self.max_rank)
    }

    fn name(&self) -> &'static str {
        "EDF"
    }
}

/// Least-slack-time-first (the universal-scheduler candidate of Mittal et
/// al., NSDI '16): rank = slack minus the time still needed to transmit the
/// rest of the flow.
#[derive(Clone, Debug)]
pub struct Lstf {
    unit: Nanos,
    max_rank: Rank,
    /// Access link rate used to estimate remaining transmission time.
    line_rate_bps: u64,
}

impl Lstf {
    /// `line_rate_bps` estimates remaining transmission time from remaining
    /// bytes.
    ///
    /// # Panics
    /// Panics if `unit` or `line_rate_bps` is zero.
    pub fn new(unit: Nanos, max_rank: Rank, line_rate_bps: u64) -> Lstf {
        assert!(unit > Nanos::ZERO, "unit must be positive");
        assert!(line_rate_bps > 0, "line rate must be positive");
        Lstf {
            unit,
            max_rank,
            line_rate_bps,
        }
    }
}

impl RankFn for Lstf {
    fn rank(&mut self, ctx: &RankCtx) -> Rank {
        let tx_time = qvisor_sim::transmission_time(ctx.bytes_remaining(), self.line_rate_bps);
        let slack = ctx.slack().saturating_sub(tx_time);
        (slack.as_nanos() / self.unit.as_nanos()).min(self.max_rank)
    }

    fn range(&self) -> RankRange {
        RankRange::new(0, self.max_rank)
    }

    fn name(&self) -> &'static str {
        "LSTF"
    }
}

/// Start-time fair queueing (Goyal et al., SIGCOMM '96), in the rank-based
/// formulation of the PIFO paper: rank = virtual start time
/// `max(V, finish[flow])`, `finish[flow] = rank + size/weight`.
///
/// The virtual clock `V` advances with the starts it hands out, which
/// approximates dequeue-driven virtual time without feedback from the
/// switch — suitable for end-host ranking as the paper requires.
#[derive(Clone, Debug, Default)]
pub struct Stfq {
    virtual_time: u64,
    finish: HashMap<FlowId, u64>,
    max_rank: Rank,
}

impl Stfq {
    /// STFQ emitting ranks clamped to `max_rank`.
    pub fn new(max_rank: Rank) -> Stfq {
        Stfq {
            virtual_time: 0,
            finish: HashMap::new(),
            max_rank,
        }
    }
}

impl RankFn for Stfq {
    fn rank(&mut self, ctx: &RankCtx) -> Rank {
        let weight = ctx.weight.max(1) as u64;
        let last_finish = self.finish.get(&ctx.flow).copied().unwrap_or(0);
        let start = self.virtual_time.max(last_finish);
        self.finish
            .insert(ctx.flow, start + ctx.pkt_size as u64 / weight);
        // Advance V to the largest start handed out so far.
        self.virtual_time = self.virtual_time.max(start);
        start.min(self.max_rank)
    }

    fn range(&self) -> RankRange {
        RankRange::new(0, self.max_rank)
    }

    fn name(&self) -> &'static str {
        "STFQ"
    }
}

/// Byte-count fair queueing: rank = bytes the flow has already sent.
///
/// A stateless-per-packet approximation of fair queueing (flows that have
/// sent less get priority), convenient when per-flow virtual time is too
/// heavy. Used as tenant 3's "Fair Queuing" in the paper's running example.
#[derive(Clone, Debug)]
pub struct ByteCountFq {
    unit_bytes: u64,
    max_rank: Rank,
}

impl ByteCountFq {
    /// Ranks are `bytes_sent / unit_bytes` clamped to `max_rank`.
    ///
    /// # Panics
    /// Panics if `unit_bytes` is zero.
    pub fn new(unit_bytes: u64, max_rank: Rank) -> ByteCountFq {
        assert!(unit_bytes > 0, "unit must be positive");
        ByteCountFq {
            unit_bytes,
            max_rank,
        }
    }
}

impl RankFn for ByteCountFq {
    fn rank(&mut self, ctx: &RankCtx) -> Rank {
        (ctx.bytes_sent / self.unit_bytes).min(self.max_rank)
    }

    fn range(&self) -> RankRange {
        RankRange::new(0, self.max_rank)
    }

    fn name(&self) -> &'static str {
        "FQ"
    }
}

/// FIFO+ style ranking: rank = arrival time, so the scheduler approximates
/// global FIFO ordering across hops (tail-latency oriented, Clark et al.).
#[derive(Clone, Debug)]
pub struct ArrivalTime {
    unit: Nanos,
    max_rank: Rank,
}

impl ArrivalTime {
    /// Ranks are `now / unit` clamped to `max_rank`.
    ///
    /// # Panics
    /// Panics if `unit` is zero.
    pub fn new(unit: Nanos, max_rank: Rank) -> ArrivalTime {
        assert!(unit > Nanos::ZERO, "unit must be positive");
        ArrivalTime { unit, max_rank }
    }
}

impl RankFn for ArrivalTime {
    fn rank(&mut self, ctx: &RankCtx) -> Rank {
        (ctx.now.as_nanos() / self.unit.as_nanos()).min(self.max_rank)
    }

    fn range(&self) -> RankRange {
        RankRange::new(0, self.max_rank)
    }

    fn name(&self) -> &'static str {
        "FIFO+"
    }
}

/// A constant rank: every packet of the tenant is equal priority (plain
/// FIFO within the tenant).
#[derive(Clone, Copy, Debug)]
pub struct Constant(pub Rank);

impl RankFn for Constant {
    fn rank(&mut self, _ctx: &RankCtx) -> Rank {
        self.0
    }

    fn range(&self) -> RankRange {
        RankRange::new(self.0, self.0)
    }

    fn name(&self) -> &'static str {
        "Constant"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(flow: u64, flow_size: u64, sent: u64) -> RankCtx {
        RankCtx::simple(Nanos::ZERO, FlowId(flow), flow_size, sent)
    }

    #[test]
    fn pfabric_ranks_remaining_size() {
        let mut f = PFabric::new(1_000, 100);
        assert_eq!(f.rank(&ctx(1, 50_000, 0)), 50);
        assert_eq!(f.rank(&ctx(1, 50_000, 49_000)), 1);
        assert_eq!(f.rank(&ctx(1, 50_000, 50_000)), 0);
        // Clamps at max.
        assert_eq!(f.rank(&ctx(1, 10_000_000, 0)), 100);
        assert!(f.range().contains(100));
    }

    #[test]
    fn pfabric_prioritizes_shorter_remainder() {
        let mut f = PFabric::default_datacenter();
        let short = f.rank(&ctx(1, 10_000, 0));
        let long = f.rank(&ctx(2, 10_000_000, 0));
        assert!(short < long);
    }

    #[test]
    fn edf_ranks_slack() {
        let mut e = Edf::new(Nanos::from_micros(1), 1_000);
        let mut c = ctx(1, 1_500, 0);
        c.now = Nanos::from_micros(100);
        c.deadline = Some(Nanos::from_micros(350));
        assert_eq!(e.rank(&c), 250);
        // Passed deadline -> most urgent.
        c.deadline = Some(Nanos::from_micros(50));
        assert_eq!(e.rank(&c), 0);
        // No deadline -> least urgent.
        c.deadline = None;
        assert_eq!(e.rank(&c), 1_000);
    }

    #[test]
    fn lstf_subtracts_transmission_time() {
        // 1 Gbps, 125_000 bytes remaining = 1 ms of transmission.
        let mut l = Lstf::new(Nanos::from_micros(1), 100_000, qvisor_sim::gbps(1));
        let mut c = ctx(1, 125_000, 0);
        c.deadline = Some(Nanos::from_millis(3));
        // slack 3 ms - 1 ms tx = 2 ms = 2000 us.
        assert_eq!(l.rank(&c), 2_000);
        let mut e = Edf::new(Nanos::from_micros(1), 100_000);
        assert_eq!(e.rank(&c), 3_000, "EDF ignores transmission time");
    }

    #[test]
    fn stfq_interleaves_flows_fairly() {
        let mut s = Stfq::new(u64::MAX);
        // Two flows sending 1000-byte packets back to back: their start
        // tags must interleave rather than let one flow run ahead.
        let mut c1 = ctx(1, 1 << 40, 0);
        c1.pkt_size = 1_000;
        let mut c2 = ctx(2, 1 << 40, 0);
        c2.pkt_size = 1_000;
        let r1a = s.rank(&c1); // start 0
        let r1b = s.rank(&c1); // start 1000
        let r2a = s.rank(&c2); // start max(V=1000? ...)
        assert_eq!(r1a, 0);
        assert_eq!(r1b, 1_000);
        // Flow 2's first packet starts at V (1000), not after flow 1's
        // whole backlog.
        assert_eq!(r2a, 1_000);
        let r1c = s.rank(&c1); // 2000
        let r2b = s.rank(&c2); // 2000
        assert_eq!(r1c, 2_000);
        assert_eq!(r2b, 2_000);
    }

    #[test]
    fn stfq_weights_scale_finish() {
        let mut s = Stfq::new(u64::MAX);
        let mut heavy = ctx(1, 1 << 40, 0);
        heavy.pkt_size = 1_000;
        heavy.weight = 2;
        let _ = s.rank(&heavy); // start 0, finish 500
        let second = s.rank(&heavy); // start 500
        assert_eq!(second, 500, "weight 2 halves the finish increment");
    }

    #[test]
    fn byte_count_fq_ranks_sent_bytes() {
        let mut f = ByteCountFq::new(1_000, 50);
        assert_eq!(f.rank(&ctx(1, 1 << 30, 0)), 0);
        assert_eq!(f.rank(&ctx(1, 1 << 30, 10_000)), 10);
        assert_eq!(f.rank(&ctx(1, 1 << 30, 10_000_000)), 50);
    }

    #[test]
    fn arrival_time_ranks_by_clock() {
        let mut a = ArrivalTime::new(Nanos::from_micros(1), 1 << 40);
        let mut c = ctx(1, 1, 0);
        c.now = Nanos::from_micros(42);
        assert_eq!(a.rank(&c), 42);
    }

    #[test]
    fn constant_is_constant() {
        let mut k = Constant(7);
        assert_eq!(k.rank(&ctx(1, 1, 0)), 7);
        assert_eq!(k.range(), RankRange::new(7, 7));
    }

    #[test]
    fn all_ranks_respect_declared_range() {
        // Property-style spot check across functions and contexts.
        let mut fns: Vec<Box<dyn RankFn>> = vec![
            Box::new(PFabric::new(100, 500)),
            Box::new(Edf::new(Nanos(100), 500)),
            Box::new(Lstf::new(Nanos(100), 500, 1_000_000)),
            Box::new(Stfq::new(500)),
            Box::new(ByteCountFq::new(100, 500)),
            Box::new(ArrivalTime::new(Nanos(100), 500)),
            Box::new(Constant(3)),
        ];
        let mut rng = qvisor_sim::SimRng::seed_from(5);
        for f in fns.iter_mut() {
            for _ in 0..500 {
                let mut c = ctx(rng.below(10), rng.below(1 << 30), rng.below(1 << 30));
                c.now = Nanos(rng.below(1 << 40));
                if rng.below(2) == 0 {
                    c.deadline = Some(c.now + Nanos(rng.below(1 << 30)));
                }
                let r = f.rank(&c);
                assert!(
                    f.range().contains(r),
                    "{} emitted {r} outside {}",
                    f.name(),
                    f.range()
                );
            }
        }
    }
}
