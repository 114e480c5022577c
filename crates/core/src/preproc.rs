//! QVISOR's data-plane pre-processor (§3.3).
//!
//! For each incoming packet: parse the tenant id and rank labels, look up
//! the tenant's transformation chain, rewrite the rank, and forward to the
//! hardware scheduler. The lookup is a dense array indexed by tenant id and
//! each chain is a few integer ops — the "line rate" budget.
//!
//! Chains of the shape the synthesizer emits (`Normalize → [Stride] →
//! [Shift]`) are *compiled* when the table is built: folded into one flat
//! record of constants that evaluates in `u64` with no saturation checks,
//! after checked arithmetic at the chain's top input has proved none can
//! trigger. Any other chain is interpreted through
//! [`TransformChain::apply`], which stays the reference the verifier and
//! the fuzzer evaluate.

use crate::synth::JointPolicy;
use crate::transform::{RankTransform, TransformChain};
use crate::verify::Admitted;
use qvisor_sim::{Packet, Rank, TenantId};

/// What to do with packets from tenants the joint policy doesn't know.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnknownTenantAction {
    /// Forward at the worst (largest) rank of the joint span: unknown
    /// traffic rides along at the lowest priority.
    BestEffort,
    /// Drop the packet.
    Drop,
}

/// Verdict for one processed packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Forward to the scheduler.
    Forward,
    /// Drop at the pre-processor.
    Drop,
}

/// Per-tenant pre-processor counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PreprocTenantStats {
    /// Packets transformed.
    pub processed: u64,
}

/// A `Normalize → [Stride] → [Shift]` chain folded into constants:
/// `q = ((clamp(rank, lo, hi) - lo) * mul + half) / span`, then
/// `(q / width) * every + q % width + add`.
#[derive(Clone, Copy, Debug)]
struct CompiledChain {
    lo: Rank,
    hi: Rank,
    /// `levels - 1`, or 0 for a degenerate normalize (then `span` is 1 and
    /// `half` 0, so `q` is 0 without a branch).
    mul: u64,
    span: u64,
    half: u64,
    every: u64,
    width: u64,
    /// Stride offset plus shift offset.
    add: u64,
}

impl CompiledChain {
    /// Fold `chain`, or `None` when it is not of the synthesizer's shape or
    /// some step could saturate (the interpreter saturates; this record
    /// would wrap).
    fn compile(chain: &TransformChain) -> Option<CompiledChain> {
        let [RankTransform::Normalize { input, levels }, rest @ ..] = chain.ops() else {
            return None;
        };
        let ((every, width, offset), rest) = match rest {
            [RankTransform::Stride {
                every,
                width,
                offset,
            }, rest @ ..] => ((*every, *width, *offset), rest),
            _ => ((1, 1, 0), rest),
        };
        let shift = match rest {
            [] => 0,
            [RankTransform::Shift { offset }] => *offset,
            _ => return None,
        };
        if width == 0 {
            return None;
        }
        let range = input.max.checked_sub(input.min)?;
        let (mul, span, half) = if range == 0 || *levels <= 1 {
            (0, 1, 0)
        } else {
            (levels - 1, range, range / 2)
        };
        // Upper bounds on every intermediate over all inputs: where none
        // overflows, no step of the interpreter saturates and none here
        // wraps, so the two agree.
        let top_q = range.checked_mul(mul)?.checked_add(half)? / span;
        (top_q / width)
            .checked_mul(every)?
            .checked_add(offset)?
            .checked_add(top_q.min(width - 1))?
            .checked_add(shift)?;
        Some(CompiledChain {
            lo: input.min,
            hi: input.max,
            mul,
            span,
            half,
            every,
            width,
            add: offset + shift,
        })
    }

    #[inline]
    fn apply(&self, rank: Rank) -> Rank {
        let r = rank.clamp(self.lo, self.hi);
        let q = ((r - self.lo) * self.mul + self.half) / self.span;
        (q / self.width) * self.every + q % self.width + self.add
    }
}

/// One slot of the dense tenant table.
#[derive(Clone, Debug)]
enum Entry {
    /// No such tenant in the joint policy.
    Unknown,
    Compiled(CompiledChain),
    Interpreted(TransformChain),
}

impl Entry {
    fn of(chain: &TransformChain) -> Entry {
        match CompiledChain::compile(chain) {
            Some(compiled) => Entry::Compiled(compiled),
            None => Entry::Interpreted(chain.clone()),
        }
    }

    fn apply(&self, rank: Rank) -> Option<Rank> {
        match self {
            Entry::Unknown => None,
            Entry::Compiled(c) => Some(c.apply(rank)),
            Entry::Interpreted(chain) => Some(chain.apply(rank)),
        }
    }
}

/// The packet pre-processor: applies the synthesized transformation chains.
#[derive(Clone, Debug)]
pub struct PreProcessor {
    /// Dense chain table indexed by `TenantId::index()`.
    table: Vec<Entry>,
    stats: Vec<PreprocTenantStats>,
    /// Rank assigned to unknown-tenant traffic under `BestEffort`.
    worst_rank: Rank,
    unknown_action: UnknownTenantAction,
    /// Packets from unknown tenants seen.
    pub unknown_seen: u64,
}

impl PreProcessor {
    /// Build the pre-processor table from a synthesized joint policy.
    ///
    /// Building a table is not a deployment, so this takes the policy
    /// itself: benches, examples and the fuzz oracle build tables from any
    /// policy, refuted ones included. A running data plane changes tables
    /// only through [`PreProcessor::reload`], which takes the gate's token.
    pub fn new(joint: &JointPolicy, unknown_action: UnknownTenantAction) -> PreProcessor {
        let max_id = joint
            .chains()
            .map(|(t, _)| t.index())
            .max()
            .map(|m| m + 1)
            .unwrap_or(0);
        let mut table = vec![Entry::Unknown; max_id];
        for (tenant, chain) in joint.chains() {
            table[tenant.index()] = Entry::of(chain);
        }
        let stats = vec![PreprocTenantStats::default(); max_id];
        PreProcessor {
            table,
            stats,
            // One past the joint span: strictly below every scheduled tenant.
            worst_rank: joint.output_span().max.saturating_add(1),
            unknown_action,
            unknown_seen: 0,
        }
    }

    /// Transform the rank of a raw rank value for `tenant` (pure lookup,
    /// used by tests and benches).
    pub fn transform(&self, tenant: TenantId, rank: Rank) -> Option<Rank> {
        self.table.get(tenant.index())?.apply(rank)
    }

    /// Process one packet in place: set `txf_rank` and return the verdict.
    ///
    /// Only payload packets are transformed; control traffic (ACKs) passes
    /// through at its existing (highest) priority.
    #[inline]
    pub fn process(&mut self, p: &mut Packet) -> Verdict {
        if !p.is_payload() {
            return Verdict::Forward;
        }
        let slot = p.tenant.index();
        match self.table.get(slot).and_then(|e| e.apply(p.rank)) {
            Some(rank) => {
                p.txf_rank = rank;
                self.stats[slot].processed += 1;
                Verdict::Forward
            }
            None => {
                self.unknown_seen += 1;
                match self.unknown_action {
                    UnknownTenantAction::BestEffort => {
                        p.txf_rank = self.worst_rank;
                        Verdict::Forward
                    }
                    UnknownTenantAction::Drop => Verdict::Drop,
                }
            }
        }
    }

    /// Counters for `tenant` (zeros if never seen / not in policy).
    pub fn tenant_stats(&self, tenant: TenantId) -> PreprocTenantStats {
        self.stats.get(tenant.index()).copied().unwrap_or_default()
    }

    /// Replace the transformation table with a re-synthesized policy the
    /// deployment gate admitted (runtime reconfiguration, §5 "optimizing
    /// configurations at runtime"). Statistics are preserved where tenant
    /// ids persist.
    pub fn reload(&mut self, deployment: &Admitted) {
        let fresh = PreProcessor::new(deployment.joint(), self.unknown_action);
        let mut stats = fresh.stats.clone();
        for (i, s) in self.stats.iter().enumerate() {
            if i < stats.len() {
                stats[i] = *s;
            }
        }
        self.table = fresh.table;
        self.worst_rank = fresh.worst_rank;
        self.stats = stats;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;
    use crate::spec::{SynthConfig, TenantSpec};
    use crate::synth::synthesize;
    use qvisor_ranking::RankRange;
    use qvisor_sim::{FlowId, Nanos, NodeId, PacketKind};

    fn fig3_joint() -> JointPolicy {
        let specs = vec![
            TenantSpec::new(TenantId(1), "T1", "pFabric", RankRange::new(7, 9)).with_levels(3),
            TenantSpec::new(TenantId(2), "T2", "EDF", RankRange::new(1, 3)).with_levels(2),
            TenantSpec::new(TenantId(3), "T3", "FQ", RankRange::new(3, 5)).with_levels(2),
        ];
        let policy = Policy::parse("T1 >> T2 + T3").unwrap();
        let config = SynthConfig {
            first_rank: 1,
            ..SynthConfig::default()
        };
        synthesize(&specs, &policy, config).unwrap()
    }

    fn pkt(tenant: u16, rank: Rank) -> Packet {
        Packet::data(
            FlowId(1),
            TenantId(tenant),
            0,
            1500,
            NodeId(0),
            NodeId(1),
            rank,
            Nanos::ZERO,
        )
    }

    #[test]
    fn fig3_packet_stream() {
        // The exact packet sequence of Fig. 3.
        let mut pre = PreProcessor::new(&fig3_joint(), UnknownTenantAction::BestEffort);
        let inputs = [(1u16, 7u64), (1, 8), (1, 9), (2, 1), (2, 3), (3, 3), (3, 5)];
        let expect = [1u64, 2, 3, 4, 6, 5, 7];
        for ((tenant, rank), want) in inputs.into_iter().zip(expect) {
            let mut p = pkt(tenant, rank);
            assert_eq!(pre.process(&mut p), Verdict::Forward);
            assert_eq!(p.txf_rank, want, "{tenant} rank {rank}");
        }
        assert_eq!(pre.tenant_stats(TenantId(1)).processed, 3);
        assert_eq!(pre.tenant_stats(TenantId(2)).processed, 2);
        assert_eq!(pre.tenant_stats(TenantId(3)).processed, 2);
    }

    #[test]
    fn unknown_tenant_best_effort_goes_last() {
        let mut pre = PreProcessor::new(&fig3_joint(), UnknownTenantAction::BestEffort);
        let mut p = pkt(42, 0);
        assert_eq!(pre.process(&mut p), Verdict::Forward);
        assert_eq!(p.txf_rank, 8, "one past the joint span [1,7]");
        assert_eq!(pre.unknown_seen, 1);
    }

    #[test]
    fn unknown_tenant_drop_policy() {
        let mut pre = PreProcessor::new(&fig3_joint(), UnknownTenantAction::Drop);
        let mut p = pkt(42, 0);
        assert_eq!(pre.process(&mut p), Verdict::Drop);
    }

    #[test]
    fn acks_bypass_transformation() {
        let mut pre = PreProcessor::new(&fig3_joint(), UnknownTenantAction::Drop);
        let data = pkt(1, 9);
        let mut ack = data.ack_for(64, Nanos::ZERO);
        assert_eq!(pre.process(&mut ack), Verdict::Forward);
        assert_eq!(ack.txf_rank, 0, "ACKs keep top priority");
        assert_eq!(ack.kind, PacketKind::Ack);
    }

    #[test]
    fn transform_lookup() {
        let pre = PreProcessor::new(&fig3_joint(), UnknownTenantAction::Drop);
        assert_eq!(pre.transform(TenantId(1), 8), Some(2));
        assert_eq!(pre.transform(TenantId(42), 8), None);
    }

    fn normalize(min: Rank, max: Rank, levels: u64) -> RankTransform {
        RankTransform::Normalize {
            input: RankRange::new(min, max),
            levels,
        }
    }

    /// The table entry for `ops` and the chain it must equal, compared on
    /// `0..=upto` and the top of `u64`.
    fn entry_equal_to_chain(ops: Vec<RankTransform>, upto: Rank) -> Entry {
        let chain = TransformChain::from_ops(ops);
        let entry = Entry::of(&chain);
        for input in (0..=upto).chain(u64::MAX - 2..=u64::MAX) {
            assert_eq!(
                entry.apply(input),
                Some(chain.apply(input)),
                "{chain} at {input}"
            );
        }
        entry
    }

    #[track_caller]
    fn assert_compiles(ops: Vec<RankTransform>, upto: Rank) {
        let entry = entry_equal_to_chain(ops, upto);
        assert!(
            matches!(entry, Entry::Compiled(_)),
            "interpreted: {entry:?}"
        );
    }

    #[track_caller]
    fn assert_falls_back(ops: Vec<RankTransform>) {
        let entry = entry_equal_to_chain(ops, 64);
        assert!(
            matches!(entry, Entry::Interpreted(_)),
            "compiled: {entry:?}"
        );
    }

    #[test]
    fn synthesized_chains_compile() {
        let joint = fig3_joint();
        let pre = PreProcessor::new(&joint, UnknownTenantAction::Drop);
        for (tenant, chain) in joint.chains() {
            assert!(matches!(pre.table[tenant.index()], Entry::Compiled(_)));
            for rank in 0..=12 {
                assert_eq!(pre.transform(tenant, rank), Some(chain.apply(rank)));
            }
        }
    }

    #[test]
    fn compiled_degenerate_normalize() {
        let stride = RankTransform::Stride {
            every: 3,
            width: 1,
            offset: 2,
        };
        let shift = RankTransform::Shift { offset: 40 };
        // One level, and a single-rank input: both quantize to level 0.
        assert_compiles(vec![normalize(0, 100, 1), stride, shift], 128);
        assert_compiles(vec![normalize(5, 5, 4), stride, shift], 16);
        assert_compiles(vec![normalize(5, 5, 4)], 16);
    }

    #[test]
    fn compiled_weighted_stride() {
        // Weight 2 of 5: levels map to slots {3,4} of every 5-slot cycle.
        let stride = RankTransform::Stride {
            every: 5,
            width: 2,
            offset: 3,
        };
        let shift = RankTransform::Shift { offset: 100 };
        assert_compiles(vec![normalize(10, 9_999, 256), stride, shift], 10_100);
        assert_compiles(vec![normalize(10, 9_999, 256), stride], 10_100);
        // Non-monotone (every < width) is still the synthesizer's shape.
        let backwards = RankTransform::Stride {
            every: 1,
            width: 4,
            offset: 0,
        };
        assert_compiles(vec![normalize(0, 63, 64), backwards], 70);
    }

    #[test]
    fn other_shapes_fall_back_to_the_interpreter() {
        let stride = RankTransform::Stride {
            every: 2,
            width: 1,
            offset: 1,
        };
        let shift = RankTransform::Shift { offset: 7 };
        let clamp = RankTransform::Clamp {
            range: RankRange::new(8, 12),
        };
        assert_falls_back(vec![]);
        assert_falls_back(vec![normalize(0, 63, 8), shift, clamp]);
        assert_falls_back(vec![shift, normalize(0, 63, 8)]);
        assert_falls_back(vec![normalize(0, 63, 8), shift, stride]);
        assert_falls_back(vec![normalize(0, 63, 8), shift, shift]);
        let zero_width = RankTransform::Stride {
            every: 2,
            width: 0,
            offset: 1,
        };
        assert_falls_back(vec![normalize(0, 63, 8), zero_width]);
    }

    #[test]
    fn chains_that_could_saturate_fall_back_never_wrap() {
        // Shift: 3 + (MAX - 1) saturates in the interpreter.
        let far = RankTransform::Shift {
            offset: u64::MAX - 1,
        };
        assert_falls_back(vec![normalize(0, 10, 4), far]);
        let chain = TransformChain::from_ops(vec![normalize(0, 10, 4), far]);
        assert_eq!(Entry::of(&chain).apply(10), Some(u64::MAX));
        // Stride multiply, and the normalize product (u128 in the
        // interpreter) — each alone overflows u64.
        let wide = RankTransform::Stride {
            every: u64::MAX / 2,
            width: 1,
            offset: 0,
        };
        assert_falls_back(vec![normalize(0, 10, 4), wide]);
        assert_falls_back(vec![normalize(0, u64::MAX, u64::MAX)]);
        // Exactly at the edge everything still fits, so it compiles.
        let edge = RankTransform::Shift {
            offset: u64::MAX - 3,
        };
        assert_compiles(vec![normalize(0, 10, 4), edge], 16);

        // The synthesizer's own near-MAX `first_rank` lands in the table
        // as the interpreter.
        let specs = vec![
            TenantSpec::new(TenantId(1), "T1", "pFabric", RankRange::new(7, 9)).with_levels(3),
            TenantSpec::new(TenantId(2), "T2", "EDF", RankRange::new(1, 3)).with_levels(2),
        ];
        let config = SynthConfig {
            first_rank: u64::MAX - 2,
            ..SynthConfig::default()
        };
        let joint = synthesize(&specs, &Policy::parse("T1 >> T2").unwrap(), config).unwrap();
        let pre = PreProcessor::new(&joint, UnknownTenantAction::Drop);
        assert!(matches!(pre.table[2], Entry::Interpreted(_)));
        assert_eq!(pre.transform(TenantId(2), 3), Some(u64::MAX));
    }

    #[test]
    fn reload_swaps_chains_and_keeps_stats() {
        let mut pre = PreProcessor::new(&fig3_joint(), UnknownTenantAction::BestEffort);
        let mut p = pkt(1, 7);
        pre.process(&mut p);
        assert_eq!(p.txf_rank, 1);

        // Re-synthesize with the priorities flipped: T2+T3 >> T1.
        let specs = vec![
            TenantSpec::new(TenantId(1), "T1", "pFabric", RankRange::new(7, 9)).with_levels(3),
            TenantSpec::new(TenantId(2), "T2", "EDF", RankRange::new(1, 3)).with_levels(2),
            TenantSpec::new(TenantId(3), "T3", "FQ", RankRange::new(3, 5)).with_levels(2),
        ];
        let policy = Policy::parse("T2 + T3 >> T1").unwrap();
        let joint = synthesize(&specs, &policy, SynthConfig::default()).unwrap();
        let target = crate::Target::default();
        pre.reload(&crate::admit(joint, &target, &crate::SpecPaths::config(), false).unwrap());

        let mut p2 = pkt(1, 7);
        pre.process(&mut p2);
        assert!(p2.txf_rank > 3, "T1 now ranks below the share group");
        assert_eq!(pre.tenant_stats(TenantId(1)).processed, 2, "stats kept");
    }
}
