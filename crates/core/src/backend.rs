//! Deployment targets (§3.4): the queue a port runs, and where the joint
//! policy meets it.
//!
//! On a PIFO the transformed ranks deploy directly. On a commodity switch
//! with `K` strict-priority FIFO queues, QVISOR must *allocate queues to
//! strict levels* (so isolation survives the approximation) and map ranks
//! to queues within each level. SP-PIFO's adaptive bank, a plain FIFO,
//! AIFO and an idealized per-tenant PIFO tree round out the targets.
//!
//! [`Backend`] is the one descriptor of a port's queue: the scenario codec
//! parses it, the simulator builds it, [`crate::compile()`] degrades onto
//! it and the deployment gate ([`crate::admit`]) judges a policy on the
//! [`Target`] it names.

use crate::error::{QvisorError, Result};
use crate::synth::JointPolicy;
use qvisor_ranking::RankRange;
use qvisor_scheduler::{
    AifoQueue, Capacity, FifoQueue, PacketQueue, PathStep, PifoQueue, PifoTree, QueueMapper,
    SpPifoMapper, StaticRangeMapper, StrictPriorityBank, TreePath, TreeShape,
};
use qvisor_sim::{Packet, Rank};

/// The queue a port runs.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum Backend {
    /// Rank-oblivious FIFO (tail drop).
    Fifo,
    /// Ideal PIFO (priority drop), the paper's primary target.
    #[default]
    Pifo,
    /// A strict-priority FIFO bank with one SP-PIFO adaptive mapping over
    /// the whole rank space (no structural isolation guarantee).
    SpPifo {
        /// Hardware queues.
        queues: usize,
    },
    /// A strict-priority FIFO bank with a static rank→queue split. Under a
    /// joint policy the banded allocator ([`BandedMapper`]) hands queues to
    /// strict levels; without one, ranks split uniformly over `span`.
    StrictStatic {
        /// Hardware queues.
        queues: usize,
        /// Rank span of the uniform split.
        span: RankRange,
    },
    /// AIFO: a single FIFO with rank-aware admission.
    Aifo {
        /// Rank window size.
        window: usize,
        /// Burst tolerance in `[0, 1)`.
        burst: f64,
    },
    /// An idealized hierarchical scheduler (PIFO tree): the root
    /// fair-shares across tenants by per-tenant virtual time, each leaf
    /// orders its tenant's packets by rank. This is what dedicated
    /// multi-tenant scheduling *hardware* would do — the upper bound the
    /// paper's flat-PIFO virtualization approximates (§5 expressivity).
    FairTree {
        /// Number of tenant classes (tenant id modulo this picks the leaf).
        tenants: u16,
    },
}

impl Backend {
    /// The descriptor's own constraints, written once. `Err((field,
    /// message))` names the field at fault relative to the descriptor
    /// (`sp_pifo.queues`): the scenario codec prefixes its dotted path,
    /// [`Backend::build`] reports it as a deployment error.
    pub fn check(&self, buffer: Capacity) -> std::result::Result<(), (&'static str, &'static str)> {
        match *self {
            Backend::SpPifo { queues: 0 } => Err(("sp_pifo.queues", "must be >= 1")),
            Backend::StrictStatic { queues: 0, .. } => {
                Err(("strict_static.queues", "must be >= 1"))
            }
            Backend::StrictStatic { span, .. } if span.min > span.max => {
                Err(("strict_static.span_min", "must be <= span_max"))
            }
            Backend::Aifo { window: 0, .. } => Err(("aifo.window", "must be >= 1")),
            Backend::Aifo { burst, .. } if !(0.0..1.0).contains(&burst) => {
                Err(("aifo.burst", "must be in [0.0, 1.0)"))
            }
            Backend::Aifo { .. } if buffer.bytes == u64::MAX => {
                Err(("aifo", "requires a finite sim.buffer_bytes"))
            }
            Backend::FairTree { tenants: 0 } => Err(("fair_tree.tenants", "must be >= 1")),
            _ => Ok(()),
        }
    }

    /// Does the queue have room for `joint`'s strict levels? Only a static
    /// strict bank needs some: a queue per level (the gate's
    /// `QV-STRICT-QUEUES`, and `compile()`'s level-merging step).
    pub fn fits(&self, joint: &JointPolicy) -> bool {
        match *self {
            Backend::StrictStatic { queues, .. } => queues >= joint.layout.len(),
            _ => true,
        }
    }

    /// Build the queue over `buffer`, for `joint` when a policy is deployed.
    ///
    /// Fails when the descriptor breaks [`Backend::check`], or when a
    /// static strict bank has fewer queues than `joint` has strict levels.
    pub fn build(
        &self,
        buffer: Capacity,
        joint: Option<&JointPolicy>,
    ) -> Result<Box<dyn PacketQueue>> {
        if let Err((field, message)) = self.check(buffer) {
            return Err(QvisorError::Deployment(format!("{field}: {message}")));
        }
        Ok(match *self {
            Backend::Fifo => Box::new(FifoQueue::new(buffer)),
            Backend::Pifo => Box::new(PifoQueue::new(buffer)),
            Backend::SpPifo { queues } => {
                Box::new(StrictPriorityBank::new(SpPifoMapper::new(queues), buffer))
            }
            Backend::StrictStatic { queues, span } => match joint {
                Some(j) => Box::new(StrictPriorityBank::new(
                    BandedMapper::from_joint(j, queues)?,
                    buffer,
                )),
                None => Box::new(StrictPriorityBank::new(
                    StaticRangeMapper::new(span.min, span.max, queues),
                    buffer,
                )),
            },
            Backend::Aifo { window, burst } => Box::new(AifoQueue::new(buffer, window, burst)),
            Backend::FairTree { tenants } => {
                let shape = TreeShape::Internal((0..tenants).map(|_| TreeShape::Leaf).collect());
                let mut vtimes = vec![0u64; tenants as usize];
                let classifier = move |p: &Packet| {
                    let class = (p.tenant.0 % tenants) as usize;
                    vtimes[class] += 1;
                    TreePath {
                        steps: vec![PathStep {
                            child: class,
                            rank: vtimes[class],
                        }],
                        leaf_rank: p.txf_rank,
                    }
                };
                Box::new(PifoTree::new(&shape, classifier, buffer))
            }
        })
    }
}

/// Where QVISOR's pre-processor runs (§5 "cross-device virtualization"):
/// rank rewriting can happen at every egress, only inside the fabric, or
/// only at the first hop — trading deployment surface against how early
/// the joint policy takes effect.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PreprocScope {
    /// Every egress port, hosts included (the default; transformations are
    /// idempotent, so re-applying per hop is safe).
    #[default]
    Everywhere,
    /// Only switch egress ports: host NICs forward raw tenant ranks, as
    /// when QVISOR is deployed purely in-network.
    SwitchesOnly,
    /// Only the first hop (the sending host): a pure end-host deployment,
    /// as in NIC-based multi-tenant scheduling (Loom/Eiffel).
    FirstHopOnly,
}

/// What a joint policy is deployed onto: the queue at switch ports, the
/// one at host NIC ports, and where the pre-processor runs. The default is
/// a PIFO everywhere with the pre-processor at every egress.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Target {
    /// The queue at switch output ports.
    pub scheduler: Backend,
    /// The queue at host NIC ports; `None` runs `scheduler` there too.
    pub host_scheduler: Option<Backend>,
    /// Where the pre-processor runs.
    pub scope: PreprocScope,
}

/// One strict level's queue allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct BandAlloc {
    /// Absolute first rank of the level's band.
    base: Rank,
    /// Band width in ranks.
    width: u64,
    /// First hardware queue serving this band.
    first_queue: usize,
    /// Queues allocated to this band.
    queue_count: usize,
}

/// Static rank→queue mapper honouring the joint policy's strict bands.
///
/// Queues are handed to levels top-down: one each, then the remainder
/// proportionally to band width (largest-remainder). Within a level, the
/// band is split into equal rank ranges. Ranks beyond the last band (e.g.
/// unknown-tenant best-effort traffic) map to the last queue.
#[derive(Clone, Debug)]
pub struct BandedMapper {
    bands: Vec<BandAlloc>,
    queues: usize,
}

impl BandedMapper {
    /// Allocate `queues` hardware queues across `joint`'s strict levels.
    pub fn from_joint(joint: &JointPolicy, queues: usize) -> Result<BandedMapper> {
        let levels = &joint.layout;
        if levels.is_empty() {
            return Err(QvisorError::Deployment("empty policy layout".into()));
        }
        if queues < levels.len() {
            return Err(QvisorError::Deployment(format!(
                "policy has {} strict levels but only {} queues are available",
                levels.len(),
                queues
            )));
        }
        // One queue per level guaranteed; distribute the rest by width
        // (largest remainder method).
        let spare = queues - levels.len();
        let total_width: u64 = levels.iter().map(|l| l.width).sum::<u64>().max(1);
        let mut alloc: Vec<usize> = Vec::with_capacity(levels.len());
        let mut remainders: Vec<(usize, u64)> = Vec::with_capacity(levels.len());
        let mut used = 0usize;
        for (i, l) in levels.iter().enumerate() {
            let exact = l.width as u128 * spare as u128;
            let share = (exact / total_width as u128) as usize;
            let rem = (exact % total_width as u128) as u64;
            alloc.push(1 + share);
            remainders.push((i, rem));
            used += 1 + share;
        }
        remainders.sort_by_key(|&(i, rem)| (std::cmp::Reverse(rem), i));
        let mut left = queues - used;
        for &(i, _) in &remainders {
            if left == 0 {
                break;
            }
            alloc[i] += 1;
            left -= 1;
        }

        let mut bands = Vec::with_capacity(levels.len());
        let mut first_queue = 0usize;
        for (l, &count) in levels.iter().zip(&alloc) {
            bands.push(BandAlloc {
                base: l.base,
                width: l.width.max(1),
                first_queue,
                queue_count: count,
            });
            first_queue += count;
        }
        Ok(BandedMapper { bands, queues })
    }

    /// The queue allocation per level, for reports: `(first_queue, count)`.
    pub fn allocations(&self) -> Vec<(usize, usize)> {
        self.bands
            .iter()
            .map(|b| (b.first_queue, b.queue_count))
            .collect()
    }
}

impl QueueMapper for BandedMapper {
    fn queue_count(&self) -> usize {
        self.queues
    }

    fn map(&mut self, rank: Rank) -> usize {
        // Find the band containing the rank (bands are sorted by base).
        let band = match self.bands.iter().rev().find(|b| rank >= b.base) {
            Some(b) => b,
            // Below the first band (control traffic): top queue.
            None => return 0,
        };
        let offset = rank - band.base;
        if offset >= band.width {
            // Beyond the last band: lowest-priority queue.
            return self.queues - 1;
        }
        let idx = (offset as u128 * band.queue_count as u128 / band.width as u128) as usize;
        band.first_queue + idx.min(band.queue_count - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;
    use crate::spec::{SynthConfig, TenantSpec};
    use crate::synth::synthesize;
    use qvisor_ranking::RankRange;
    use qvisor_sim::TenantId;

    fn joint(policy: &str) -> JointPolicy {
        let specs = vec![
            TenantSpec::new(TenantId(1), "T1", "pFabric", RankRange::new(0, 1000)).with_levels(8),
            TenantSpec::new(TenantId(2), "T2", "EDF", RankRange::new(0, 500)).with_levels(8),
            TenantSpec::new(TenantId(3), "T3", "FQ", RankRange::new(0, 50)).with_levels(4),
        ];
        let policy = Policy::parse(policy).unwrap();
        synthesize(&specs, &policy, SynthConfig::default()).unwrap()
    }

    #[test]
    fn banded_mapper_respects_levels() {
        let j = joint("T1 >> T2 + T3");
        let mut m = BandedMapper::from_joint(&j, 8).unwrap();
        // Level 0: ranks [0,8) (8 levels); level 1: [8, 8+16).
        let top = &j.layout[0];
        let bottom = &j.layout[1];
        let q_top = m.map(top.base);
        let q_bottom = m.map(bottom.base);
        assert!(q_top < q_bottom, "higher band maps to higher priority");
        // Every rank of level 0 maps strictly above every rank of level 1.
        let max_top_q = (top.base..top.base + top.width).map(|r| m.map(r)).max();
        let min_bot_q = (bottom.base..bottom.base + bottom.width)
            .map(|r| m.map(r))
            .min();
        assert!(max_top_q.unwrap() < min_bot_q.unwrap());
    }

    #[test]
    fn banded_mapper_is_monotone() {
        let j = joint("T1 >> T2 >> T3");
        let span = j.output_span();
        let mut m = BandedMapper::from_joint(&j, 6).unwrap();
        let mut prev = 0;
        for r in span.min..=span.max {
            let q = m.map(r);
            assert!(q >= prev, "queue index must not decrease with rank");
            assert!(q < 6);
            prev = q;
        }
    }

    #[test]
    fn out_of_band_ranks_clamp() {
        let j = joint("T1 >> T2");
        let mut m = BandedMapper::from_joint(&j, 4).unwrap();
        assert_eq!(m.map(0), 0);
        let span = j.output_span();
        assert_eq!(m.map(span.max + 100), 3, "unknown traffic to last queue");
    }

    #[test]
    fn queue_allocation_proportional() {
        let j = joint("T1 >> T2 + T3");
        // Level widths: 8 and 16 -> with 9 queues expect roughly 1:2 split.
        let m = BandedMapper::from_joint(&j, 9).unwrap();
        let alloc = m.allocations();
        assert_eq!(alloc.len(), 2);
        let (first, second) = (alloc[0].1, alloc[1].1);
        assert_eq!(first + second, 9);
        assert!(second > first, "wider band gets more queues: {alloc:?}");
    }

    #[test]
    fn too_few_queues_is_a_deployment_error() {
        let j = joint("T1 >> T2 >> T3");
        let err = BandedMapper::from_joint(&j, 2).unwrap_err();
        assert!(matches!(err, QvisorError::Deployment(_)));
        assert!(err.to_string().contains("3 strict levels"));
    }

    #[test]
    fn backends_build() {
        let j = joint("T1 >> T2 + T3");
        let cap = Capacity::packets(64, 1500);
        let span = RankRange::new(0, 99);
        for backend in [
            Backend::Fifo,
            Backend::Pifo,
            Backend::SpPifo { queues: 8 },
            Backend::StrictStatic { queues: 8, span },
            Backend::Aifo {
                window: 32,
                burst: 0.1,
            },
            Backend::FairTree { tenants: 3 },
        ] {
            assert!(backend.check(cap).is_ok(), "{backend:?}");
            assert!(backend.build(cap, Some(&j)).is_ok(), "{backend:?}");
            assert!(backend.build(cap, None).is_ok(), "{backend:?}");
            assert!(backend.fits(&j), "{backend:?}");
        }
        let aifo = Backend::Aifo {
            window: 32,
            burst: 0.1,
        };
        assert_eq!(
            aifo.check(Capacity::UNBOUNDED),
            Err(("aifo", "requires a finite sim.buffer_bytes"))
        );
        let err = aifo.build(Capacity::UNBOUNDED, Some(&j)).err().unwrap();
        assert_eq!(
            err.to_string(),
            "deployment failed: aifo: requires a finite sim.buffer_bytes"
        );
    }

    #[test]
    fn the_descriptor_checks_each_field_once() {
        let cap = Capacity::packets(64, 1500);
        let cases = [
            (Backend::SpPifo { queues: 0 }, "sp_pifo.queues"),
            (
                Backend::StrictStatic {
                    queues: 0,
                    span: RankRange::new(0, 9),
                },
                "strict_static.queues",
            ),
            (
                Backend::StrictStatic {
                    queues: 4,
                    span: RankRange { min: 9, max: 0 },
                },
                "strict_static.span_min",
            ),
            (
                Backend::Aifo {
                    window: 0,
                    burst: 0.1,
                },
                "aifo.window",
            ),
            (
                Backend::Aifo {
                    window: 8,
                    burst: 1.0,
                },
                "aifo.burst",
            ),
            (Backend::FairTree { tenants: 0 }, "fair_tree.tenants"),
        ];
        for (backend, field) in cases {
            assert_eq!(backend.check(cap).unwrap_err().0, field);
            assert!(backend.build(cap, None).is_err(), "{backend:?}");
        }
    }

    #[test]
    fn a_strict_bank_needs_a_queue_per_strict_level() {
        let j = joint("T1 >> T2 >> T3");
        let span = RankRange::new(0, 99);
        let short = Backend::StrictStatic { queues: 2, span };
        assert!(!short.fits(&j));
        let err = short.build(Capacity::UNBOUNDED, Some(&j)).err().unwrap();
        assert!(err.to_string().contains("3 strict levels"), "{err}");
        // Without a policy the bank splits `span` uniformly.
        assert!(short.build(Capacity::UNBOUNDED, None).is_ok());
        assert!(Backend::StrictStatic { queues: 3, span }.fits(&j));
        assert!(Backend::SpPifo { queues: 1 }.fits(&j));
    }

    #[test]
    fn built_pifo_schedules_by_transformed_rank() {
        use qvisor_sim::{FlowId, Nanos, NodeId, Packet};
        let j = joint("T1 >> T2");
        let mut q = Backend::Pifo.build(Capacity::UNBOUNDED, Some(&j)).unwrap();
        let mk = |tenant: u16, txf: u64| {
            let mut p = Packet::data(
                FlowId(1),
                TenantId(tenant),
                0,
                100,
                NodeId(0),
                NodeId(1),
                txf,
                Nanos::ZERO,
            );
            p.txf_rank = txf;
            p
        };
        q.enqueue(mk(2, 9), Nanos::ZERO);
        q.enqueue(mk(1, 2), Nanos::ZERO);
        assert_eq!(q.dequeue(Nanos::ZERO).unwrap().tenant, TenantId(1));
    }
}
