//! `dataplane_min_pkt`: bare forwarding at the smallest packet, no
//! simulator. A seeded pool of 64-byte packets from 16 tenants under a
//! mixed `>>`/`>`/`+` policy (1 % from an undeclared tenant, which leaves
//! the fast path as `BestEffort`) goes through `PreProcessor::process` →
//! `PifoQueue::enqueue` → `dequeue`. Each round offers a burst of 32 into
//! a 256-packet buffer and drains 30, so once the buffer has filled the
//! queue holds 226–256 packets and exactly 2 of every 32 offered (6.25 %)
//! leave through the priority-drop path.

use super::{arm_recorder, overhead_share, secs, Extra, Outcome, RepClock, RunCfg};
use crate::calib::Bracket;
use crate::oracle;
use crate::spans::Recorder;
use crate::stats::Summary;
use qvisor_core::{DeploymentConfig, PreProcessor, UnknownTenantAction, Verdict};
use qvisor_scheduler::{Capacity, Enqueue, PacketQueue, PifoQueue};
use qvisor_sim::{FlowId, Nanos, NodeId, Packet, SimRng, TenantId};
use std::hint::black_box;
use std::time::Instant;

/// The 16-tenant deployment document.
pub const DOCUMENT: &str = include_str!("../../workloads/dataplane.json");

/// Wire size of every packet: the smallest Ethernet frame.
pub const PKT_BYTES: u32 = 64;
/// Buffer size in packets.
pub const BUFFER_PKTS: u64 = 256;
/// Packets offered per round.
pub const BURST: usize = 32;
/// Packets drained per round.
pub const DRAIN: usize = 30;
/// Tenant id no deployment declares.
const UNKNOWN_TENANT: u16 = 999;
/// Distinct packets in the pool (a power of two; larger than the buffer,
/// so no two resident packets share an identity).
const POOL: usize = 8_192;
/// In a traced rep every this-many-th burst is recorded as spans.
const TRACE_EVERY: u64 = 256;

/// Offered packets per rep.
pub fn pkts_per_rep(smoke: bool) -> u64 {
    if smoke {
        1 << 14
    } else {
        1 << 22
    }
}

/// The buffer every backend of this stream gets.
pub fn buffer() -> Capacity {
    Capacity::packets(BUFFER_PKTS, u64::from(PKT_BYTES))
}

/// The seeded packet pool: tenants uniform over the declared sixteen
/// (1 % undeclared), ranks uniform over each tenant's declared range.
pub fn pool(seed: u64, config: &DeploymentConfig) -> Vec<Packet> {
    let mut rng = SimRng::seed_from(seed).derive(0xD9);
    (0..POOL as u64)
        .map(|i| {
            let (tenant, rank) = if rng.below(100) == 0 {
                (UNKNOWN_TENANT, rng.below(1_000))
            } else {
                let t = &config.tenants[rng.below(config.tenants.len() as u64) as usize];
                (t.id, t.rank_min + rng.below(t.rank_max - t.rank_min + 1))
            };
            Packet::data(
                FlowId(i),
                TenantId(tenant),
                i,
                PKT_BYTES,
                NodeId(0),
                NodeId(1),
                rank,
                Nanos::ZERO,
            )
        })
        .collect()
}

/// Counts and the dequeue-order fingerprint of one drive.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Packets offered.
    pub offered: u64,
    /// Packets dequeued.
    pub dequeued: u64,
    /// Packets dropped by the pre-processor or the queue.
    pub dropped: u64,
    /// Packets still queued at the end.
    pub resident: u64,
    /// Fold over `(flow, transformed rank)` in dequeue order.
    pub fingerprint: u64,
}

impl Tally {
    /// Offered packets unaccounted for (0 = conservation holds).
    pub fn leaked(&self) -> u64 {
        self.offered
            .abs_diff(self.dequeued + self.dropped + self.resident)
    }

    fn saw(&mut self, p: &Packet) {
        self.dequeued += 1;
        self.fingerprint =
            (self.fingerprint ^ p.flow.0 ^ (p.txf_rank << 20)).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn lost(&mut self, outcome: Enqueue) {
        match outcome {
            Enqueue::Accepted => {}
            Enqueue::AcceptedDropped(victims) => self.dropped += victims.len() as u64,
            Enqueue::Rejected(_) => self.dropped += 1,
        }
    }
}

/// Drive `offered` packets from `pool` through `stage` and `queue`.
/// `stage` is the pre-processor (or a no-op on a pre-transformed pool,
/// for the scheduler probes). With an enabled recorder every
/// [`TRACE_EVERY`]-th burst runs stage, enqueue and dequeue as three
/// spans; the queue sees the same operations in the same order either
/// way.
pub fn drive<Q: PacketQueue>(
    pool: &[Packet],
    mut stage: impl FnMut(&mut Packet) -> Verdict,
    queue: &mut Q,
    offered: u64,
    rec: &mut Recorder,
) -> Tally {
    let mask = pool.len() - 1;
    debug_assert!(pool.len().is_power_of_two());
    let mut tally = Tally::default();
    let mut cursor = 0usize;
    let traced = rec.is_enabled();
    for round in 0..offered / BURST as u64 {
        let now = Nanos(round);
        if traced && round % TRACE_EVERY == 0 {
            let burst = rec.start("dataplane.burst");
            let span = rec.start("core.preproc");
            let mut staged: Vec<Packet> = Vec::with_capacity(BURST);
            for _ in 0..BURST {
                let mut p = pool[cursor & mask].clone();
                cursor += 1;
                match stage(&mut p) {
                    Verdict::Forward => staged.push(p),
                    Verdict::Drop => tally.dropped += 1,
                }
            }
            rec.end(span);
            let span = rec.start("scheduler.enqueue");
            for p in staged {
                let outcome = queue.enqueue(p, now);
                tally.lost(outcome);
            }
            rec.end(span);
            let span = rec.start("scheduler.dequeue");
            for _ in 0..DRAIN {
                if let Some(p) = queue.dequeue(now) {
                    tally.saw(&p);
                }
            }
            rec.end(span);
            rec.end(burst);
        } else {
            for _ in 0..BURST {
                let mut p = pool[cursor & mask].clone();
                cursor += 1;
                match stage(&mut p) {
                    Verdict::Forward => {
                        let outcome = queue.enqueue(p, now);
                        tally.lost(outcome);
                    }
                    Verdict::Drop => tally.dropped += 1,
                }
            }
            for _ in 0..DRAIN {
                if let Some(p) = queue.dequeue(now) {
                    tally.saw(&p);
                }
            }
        }
        tally.offered += BURST as u64;
    }
    tally.resident = queue.len() as u64;
    tally
}

/// The generator alone: the same pool walk, clone and fingerprint fold
/// with a sink that forwards nothing. Its time is subtracted from the
/// measured loop and reported as `bench.gen.dataplane_loop_ns_per_pkt`.
pub fn empty_loop(pool: &[Packet], offered: u64) -> u64 {
    let mask = pool.len() - 1;
    let mut tally = Tally::default();
    for i in 0..offered as usize {
        let p = black_box(pool[i & mask].clone());
        tally.saw(&p);
    }
    black_box(tally.fingerprint)
}

/// The program's set-up for this workload: document → joint policy →
/// pre-processor table → queue.
pub fn set_up(doc: &str) -> (DeploymentConfig, PreProcessor, PifoQueue) {
    let config = DeploymentConfig::from_json(doc).expect("dataplane document parses");
    let joint = config.synthesize().expect("dataplane policy synthesizes");
    let pre = PreProcessor::new(&joint, UnknownTenantAction::BestEffort);
    (config, pre, PifoQueue::new(buffer()))
}

/// Wall seconds of one rep's phases, and the host's speed across it.
struct Timing {
    setup_s: f64,
    full_s: f64,
    empty_s: f64,
    speed: f64,
}

/// Run the workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    let offered = pkts_per_rep(cfg.smoke);
    let (config, _, _) = set_up(DOCUMENT);
    let pool = pool(cfg.seed, &config);
    let mut rec = Recorder::new(false, Instant::now());

    let one_rep = |rec: &mut Recorder| {
        let bracket = Bracket::open(1);
        let t0 = Instant::now();
        let (_, mut pre, mut queue) = set_up(DOCUMENT);
        let t1 = Instant::now();
        let tally = drive(&pool, |p| pre.process(p), &mut queue, offered, rec);
        let t2 = Instant::now();
        empty_loop(&pool, offered);
        let t3 = Instant::now();
        let speed = bracket.close();
        let timing = Timing {
            setup_s: secs(t0, t1),
            full_s: secs(t1, t2),
            empty_s: secs(t2, t3),
            speed,
        };
        (tally, pre.unknown_seen, timing)
    };

    let (warm, unknown_seen, _) = one_rep(&mut rec);
    let mut notes = Vec::new();
    let mut correct = warm.leaked() == 0;
    if cfg.pinned() {
        correct &= oracle::check_hex("dataplane_dequeue_fnv", warm.fingerprint, &mut notes);
        correct &= oracle::check_u64("dataplane_drops", warm.dropped, &mut notes);
    }

    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut rate, mut op_ms, mut setup, mut gen_ns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut raw_rate, mut host_speed) = (Vec::new(), Vec::new());
    let (mut traced_wall, mut untraced_wall) = (Vec::new(), Vec::new());
    let mut clock = RepClock::start(cfg);
    while let Some(rep) = clock.next_rep() {
        let traced = arm_recorder(cfg, &mut rec, rep);
        let (tally, _, t) = one_rep(&mut rec);
        attempted += tally.offered;
        if tally == warm {
            failed += tally.leaked();
        } else {
            // Dropping more, or in another order, to go faster is a
            // wrong output, not a speed-up.
            failed += tally.offered;
            correct = false;
            notes.push(format!("rep {rep}: {tally:?} != warm-up {warm:?}"));
        }
        let net_s = t.full_s - t.empty_s;
        rate.push(offered as f64 / (net_s * t.speed));
        raw_rate.push(offered as f64 / net_s);
        host_speed.push(t.speed);
        op_ms.push((t.setup_s + t.full_s) * t.speed * 1_000.0);
        setup.push(t.setup_s * t.speed);
        gen_ns.push(t.empty_s * t.speed * 1e9 / offered as f64);
        if traced {
            traced_wall.push(t.full_s * t.speed);
        } else {
            untraced_wall.push(t.full_s * t.speed);
        }
    }
    notes.push(format!(
        "dequeue fingerprint {:016x}: {} offered, {} dequeued, {} dropped ({:.2} %), {} resident, {} unknown-tenant; equal across {} reps",
        warm.fingerprint,
        warm.offered,
        warm.dequeued,
        warm.dropped,
        100.0 * warm.dropped as f64 / warm.offered as f64,
        warm.resident,
        unknown_seen,
        rate.len()
    ));
    Outcome {
        correct,
        attempted,
        failed,
        reps: rate.len(),
        work_per_s: Summary::of(&rate),
        op_ms: Summary::of(&op_ms),
        setup_s: Summary::of(&setup),
        extras: vec![
            Extra::new(
                "bench.gen.dataplane_loop_ns_per_pkt",
                "ns",
                Summary::of(&gen_ns),
            ),
            Extra::new(
                "drop_share",
                "share",
                Summary::single(warm.dropped as f64 / warm.offered as f64),
            ),
            Extra::new("work_per_s_raw", "1/s", Summary::of(&raw_rate)),
            Extra::new("bench.host_speed", "ratio", Summary::of(&host_speed)),
        ],
        notes,
        spans: rec.spans().to_vec(),
        trace_overhead_share: overhead_share(&traced_wall, &untraced_wall),
    }
}
