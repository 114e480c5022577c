//! The sharded parallel engine: conservative-lookahead windows over
//! shard-local [`Simulation`] instances, with a coordinator that merges
//! per-shard results into the byte-identical sequential report.
//!
//! ## Execution model
//!
//! The topology is cut into rack-granularity units by
//! [`Partition`](qvisor_topology::Partition) and dealt round-robin onto
//! shards. Each worker thread builds its *own* complete `Simulation` via
//! the caller's closures — topology, routes, queues, and flow state exist
//! on every shard; only *event scheduling* is gated on node ownership, so
//! a shard pops exactly the events of the nodes it owns. A packet crossing
//! a cut link leaves through the sender shard's `outbox` and is injected
//! into the receiver shard's event queue at the next window barrier.
//!
//! Windows follow classic Chandy/Misra conservative synchronization (see
//! `qvisor_sim`'s `ShardClock`): with `L` the minimum cut-edge propagation
//! delay, every event strictly before `min_pending + L` is safe to
//! process, because a handoff emitted inside the window cannot be due
//! before that bound.
//!
//! ## Byte-exactness
//!
//! The merged [`SimReport`] must be byte-identical to the sequential
//! engine's at every shard count. Three mechanisms make that hold:
//!
//! * **Content-keyed event ordering** ([`EventKey`]): same-instant events
//!   pop in an order derived from event *content*, never from scheduling
//!   history, so barrier injection cannot reorder anything observable.
//! * **Coordinator-driven sampling ticks**: shards never schedule `Sample`
//!   events. The coordinator caps windows at tick instants and instructs
//!   every shard to flush its goodput window at the barrier — exactly
//!   where the sequential engine's class-0 tick sorts (before same-instant
//!   packet events). Flush outputs are matched across shards *by flush
//!   instance* (every shard performs the same flush sequence), so merged
//!   samples reproduce the sequential series even when two flushes share a
//!   timestamp.
//! * **The quiescence rewind**: shards overrun the sequential stop point —
//!   they cannot observe global quiescence mid-window. Each shard logs the
//!   `(time, key)` of its last *progress* event (one that changed a
//!   doneness counter: `reliable_done`, `cbr_live`, `in_flight`) plus the
//!   counted events after it. Progress events are totally ordered across
//!   shards (keys embed the owned node), the done state is absorbing, and
//!   overrun events are report-invisible no-ops (stale timers), so the
//!   maximum last-progress point across shards *is* where the sequential
//!   loop broke: counted events past it are subtracted and `end_time`
//!   rewinds to it. Transmit-completes, counted when the transmission
//!   starts, never lie past it (see [`ShardBook`]).

use super::{EventKey, Simulation};
use crate::report::SimReport;
use qvisor_core::QvisorError;
use qvisor_sim::{Nanos, NodeId, Packet, TenantId};
use qvisor_telemetry::{Telemetry, TelemetrySnapshot};
use qvisor_topology::{Partition, Topology};
use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Receiver, Sender};

/// The ownership view a worker's `Simulation` runs under.
pub(in crate::sim) struct ShardView {
    /// This shard's index.
    pub index: usize,
    /// Node index → owning shard (from `Partition::owners`).
    pub owner: Vec<usize>,
}

/// A packet crossing a shard boundary: due at `at` on node `to`.
#[derive(Clone, Debug)]
pub(in crate::sim) struct Handoff {
    pub at: Nanos,
    pub to: NodeId,
    pub packet: Packet,
}

/// Per-shard bookkeeping feeding the coordinator's quiescence rewind: the
/// popped events the shard counted (`Simulation::count_event` holds the
/// count itself, in the shard's report). Transmit-completes are counted
/// without being popped and are not logged: every transmission's packet
/// is delivered or dropped — a progress event — at or after its
/// transmit-complete, so none can lie beyond the progress cut.
#[derive(Clone, Debug, Default)]
pub(in crate::sim) struct ShardBook {
    /// `(time, key)` of the last progress event — one that changed a
    /// doneness counter.
    pub last_progress: Option<(Nanos, EventKey)>,
    /// Counted events popped after `last_progress`, oldest first.
    /// Cleared on every progress event, so it only ever holds the
    /// trailing no-op run.
    pub tail: Vec<(Nanos, EventKey)>,
}

impl ShardBook {
    /// Log one counted, popped event.
    pub fn record(&mut self, t: Nanos, key: EventKey, progress: bool) {
        if progress {
            self.last_progress = Some((t, key));
            self.tail.clear();
        } else {
            self.tail.push((t, key));
        }
    }

    /// Counted events beyond the global progress cut. (`None < Some` for
    /// the cut, so with no progress anywhere every tail entry — i.e.
    /// every counted event — is beyond the cut.)
    fn beyond(&self, cut: Option<(Nanos, EventKey)>) -> u64 {
        self.tail.iter().filter(|&&e| Some(e) > cut).count() as u64
    }
}

/// Doneness counters, summed across shards at every barrier.
#[derive(Clone, Copy, Debug, Default)]
struct Counters {
    total: u64,
    done: u64,
    cbr_live: u64,
    in_flight: i64,
}

/// One shard's state at a barrier.
struct Stepped {
    next_pending: Option<Nanos>,
    outbox: Vec<Handoff>,
    counters: Counters,
    /// Events the shard has counted, and the time of the latest.
    counted: u64,
    end_time: Nanos,
    book: ShardBook,
}

/// A worker's first message: config the coordinator needs, plus the
/// initial barrier state.
struct Hello {
    horizon: Nanos,
    sample_interval: Option<Nanos>,
    has_adapter: bool,
    has_monitor: bool,
    state: Stepped,
}

enum ToWorker {
    /// Flush the goodput window (if instructed), inject the handoffs,
    /// then advance through every event strictly before `bound`.
    Step {
        bound: Nanos,
        flush_before: Option<Nanos>,
        inject: Vec<Handoff>,
    },
    /// Perform the trailing flushes and return the report.
    Finish {
        flush_before: Option<Nanos>,
        flush_at: Option<Nanos>,
    },
}

enum FromWorker {
    Ready(Box<Hello>),
    Stepped(Box<Stepped>),
    Finished(Box<Finished>),
    Failed(QvisorError),
}

struct Finished {
    report: SimReport,
    /// `report.samples.len()` at the instant each flush began, in flush
    /// order — the alignment key for merging samples across shards.
    flush_marks: Vec<usize>,
    /// Everything the shard's thread-local telemetry registry collected,
    /// absorbed into the caller's sink in shard order.
    telemetry: TelemetrySnapshot,
}

/// Why the coordinator stopped advancing.
enum Outcome {
    /// All traffic completed: rewind to the last progress event.
    Quiesced,
    /// Nothing left at or before the horizon.
    Exhausted,
}

/// Run a sharded simulation over `topo`, split `shards` ways.
///
/// `build` constructs one shard's [`Simulation`]; it runs once per worker
/// thread, so per-run state (telemetry hubs, tracers) must be created
/// inside it. `populate` registers rank functions and adds traffic — it
/// must add the same traffic in the same order on every shard, because
/// flow ids are global; the ownership gating inside `add_flow`/`add_cbr`
/// selects each shard's slice.
///
/// Every worker's thread-local telemetry registry is snapshotted at
/// finish and absorbed into `telemetry` in shard order, so the sink's
/// `export_jsonl` matches a sequential run's byte-for-byte (modulo
/// wall-clock `profile` lines, and provided no journal ring evicted —
/// see [`Telemetry::absorb`]).
///
/// The merged [`SimReport`] is byte-identical to
/// `build()` + `populate()` + [`Simulation::run`] at any shard count,
/// including 1. Runtime adaptation is rejected (control ticks act on
/// global state), and the runtime monitor is rejected above one shard
/// (its observation state is global).
pub fn run_sharded<B, P>(
    topo: &Topology,
    shards: usize,
    telemetry: &Telemetry,
    build: B,
    populate: P,
) -> Result<SimReport, QvisorError>
where
    B: Fn() -> Result<Simulation, QvisorError> + Sync,
    P: Fn(&mut Simulation) -> Result<(), QvisorError> + Sync,
{
    let partition = Partition::new(topo, shards)
        .map_err(|e| QvisorError::Deployment(format!("cannot shard the topology: {e}")))?;
    if partition.lookahead() == Some(Nanos::ZERO) {
        return Err(QvisorError::Deployment(
            "sharded runs require positive propagation delay on every cut link \
             (zero lookahead admits no conservative window)"
                .into(),
        ));
    }
    std::thread::scope(|scope| {
        let build = &build;
        let populate = &populate;
        let mut to: Vec<Sender<ToWorker>> = Vec::with_capacity(shards);
        let mut from: Vec<Receiver<FromWorker>> = Vec::with_capacity(shards);
        for index in 0..shards {
            let (to_tx, to_rx) = channel();
            let (from_tx, from_rx) = channel();
            let owner = partition.owners().to_vec();
            // The one sanctioned thread-spawn site in the workspace:
            // workers are barrier-synchronized and merged canonically, so
            // scheduling timing never reaches any observable output.
            scope.spawn(move || worker(index, owner, build, populate, to_rx, from_tx));
            to.push(to_tx);
            from.push(from_rx);
        }
        coordinate(&partition, telemetry, &to, &from)
    })
}

/// One worker thread: build the shard's simulation, then serve barrier
/// commands until told to finish.
fn worker<B, P>(
    index: usize,
    owner: Vec<usize>,
    build: &B,
    populate: &P,
    rx: Receiver<ToWorker>,
    tx: Sender<FromWorker>,
) where
    B: Fn() -> Result<Simulation, QvisorError> + Sync,
    P: Fn(&mut Simulation) -> Result<(), QvisorError> + Sync,
{
    let mut sim = match build() {
        Ok(sim) => sim,
        Err(e) => {
            let _ = tx.send(FromWorker::Failed(e));
            return;
        }
    };
    // The view must be in place before traffic lands: add_flow/add_cbr
    // gate their scheduling on ownership.
    sim.shard = Some(ShardView { index, owner });
    if let Err(e) = populate(&mut sim) {
        let _ = tx.send(FromWorker::Failed(e));
        return;
    }
    let mut book = ShardBook::default();
    let mut flush_marks = Vec::new();
    let hello = Hello {
        horizon: sim.cfg.horizon,
        sample_interval: sim.cfg.sample_interval,
        has_adapter: sim.adapter.is_some() || sim.cfg.adaptation_interval.is_some(),
        has_monitor: sim.monitor.is_some(),
        state: barrier_state(&mut sim, &book),
    };
    if tx.send(FromWorker::Ready(Box::new(hello))).is_err() {
        return;
    }
    while let Ok(msg) = rx.recv() {
        match msg {
            ToWorker::Step {
                bound,
                flush_before,
                inject,
            } => {
                if let Some(at) = flush_before {
                    flush(&mut sim, &mut flush_marks, at);
                }
                for h in inject {
                    sim.inject_arrival(h.at, h.to, h.packet);
                }
                sim.advance_below(bound, &mut book);
                let state = barrier_state(&mut sim, &book);
                if tx.send(FromWorker::Stepped(Box::new(state))).is_err() {
                    return;
                }
            }
            ToWorker::Finish {
                flush_before,
                flush_at,
            } => {
                if let Some(at) = flush_before {
                    flush(&mut sim, &mut flush_marks, at);
                }
                if let Some(at) = flush_at {
                    flush(&mut sim, &mut flush_marks, at);
                }
                let report = sim.take_report();
                let telemetry = sim.cfg.telemetry.snapshot();
                let _ = tx.send(FromWorker::Finished(Box::new(Finished {
                    report,
                    flush_marks,
                    telemetry,
                })));
                return;
            }
        }
    }
}

fn flush(sim: &mut Simulation, marks: &mut Vec<usize>, at: Nanos) {
    marks.push(sim.report.samples.len());
    sim.flush_window(at);
}

fn barrier_state(sim: &mut Simulation, book: &ShardBook) -> Stepped {
    Stepped {
        next_pending: sim.events.peek_time(),
        outbox: std::mem::take(&mut sim.outbox),
        counters: Counters {
            total: sim.reliable_total,
            done: sim.reliable_done,
            cbr_live: sim.cbr_live,
            in_flight: sim.in_flight,
        },
        counted: sim.report.events,
        end_time: sim.report.end_time,
        book: book.clone(),
    }
}

fn worker_died<E>(_: E) -> QvisorError {
    QvisorError::Deployment("a shard worker exited unexpectedly".into())
}

fn min_opt(a: Option<Nanos>, b: Option<Nanos>) -> Option<Nanos> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

fn quiesced(states: &[Stepped]) -> bool {
    let mut c = Counters::default();
    for s in states {
        c.total += s.counters.total;
        c.done += s.counters.done;
        c.cbr_live += s.counters.cbr_live;
        c.in_flight += s.counters.in_flight;
    }
    c.done == c.total && c.cbr_live == 0 && c.in_flight == 0
}

/// The barrier loop: compute conservative bounds, relay handoffs, drive
/// sampling ticks, detect quiescence, and merge the final reports.
fn coordinate(
    partition: &Partition,
    telemetry: &Telemetry,
    to: &[Sender<ToWorker>],
    from: &[Receiver<FromWorker>],
) -> Result<SimReport, QvisorError> {
    let shards = to.len();
    let mut states: Vec<Stepped> = Vec::with_capacity(shards);
    let mut horizon = Nanos::ZERO;
    let mut sample_interval = None;
    for (i, rx) in from.iter().enumerate() {
        match rx.recv().map_err(worker_died)? {
            FromWorker::Ready(h) => {
                if h.has_adapter {
                    return Err(QvisorError::Deployment(
                        "sharded runs do not support runtime adaptation \
                         (control ticks act on global state)"
                            .into(),
                    ));
                }
                if h.has_monitor && shards > 1 {
                    return Err(QvisorError::Deployment(
                        "the runtime monitor requires a single shard \
                         (its observation state is global)"
                            .into(),
                    ));
                }
                if i == 0 {
                    horizon = h.horizon;
                    sample_interval = h.sample_interval;
                }
                states.push(h.state);
            }
            FromWorker::Failed(e) => return Err(e),
            _ => unreachable!("worker spoke before Ready"),
        }
    }
    if let Some(interval) = sample_interval {
        assert!(interval > Nanos::ZERO, "sample interval must be positive");
    }

    let cap = horizon.saturating_add(Nanos(1));
    let lookahead = partition.lookahead();
    let mut staged: Vec<Vec<Handoff>> = (0..shards).map(|_| Vec::new()).collect();
    // Sampling ticks, mirroring the sequential engine's self-rescheduling
    // `Sample` event: first at `interval`, then every `interval` while at
    // or under the horizon.
    let mut next_tick = sample_interval;
    let mut ticks: u64 = 0;
    let mut tick_end = Nanos::ZERO;
    // A tick's flush is performed by the workers at the *next* barrier
    // command (Step or Finish), matching the class-0 sort: the window
    // closes before any same-instant packet event runs.
    let mut pending_flush: Option<Nanos> = None;

    let outcome = loop {
        // Done-state at this barrier. The sequential engine checks before
        // every pop; barriers are where the sharded engine can.
        if quiesced(&states) {
            break Outcome::Quiesced;
        }
        let pend = states
            .iter()
            .map(|s| s.next_pending)
            .chain(staged.iter().flat_map(|v| v.iter().map(|h| Some(h.at))))
            .flatten()
            .min();
        let tick = next_tick.filter(|&t| t <= horizon);
        let Some(first) = min_opt(pend, tick) else {
            break Outcome::Exhausted;
        };
        if first > horizon {
            break Outcome::Exhausted;
        }
        let mut bound = match (pend, lookahead) {
            (Some(p), Some(l)) => p.saturating_add(l).min(cap),
            // No cut edges (one shard) or no pending events: only the
            // horizon — or the tick below — bounds the window.
            _ => cap,
        };
        let mut will_tick = false;
        if let Some(t) = tick {
            if t <= bound {
                bound = t;
                will_tick = true;
            }
        }
        for (i, tx) in to.iter().enumerate() {
            let inject = std::mem::take(&mut staged[i]);
            tx.send(ToWorker::Step {
                bound,
                flush_before: pending_flush,
                inject,
            })
            .map_err(worker_died)?;
        }
        pending_flush = None;
        for (i, rx) in from.iter().enumerate() {
            match rx.recv().map_err(worker_died)? {
                FromWorker::Stepped(s) => {
                    let mut s = *s;
                    for h in s.outbox.drain(..) {
                        staged[partition.owner(h.to)].push(h);
                    }
                    states[i] = s;
                }
                FromWorker::Failed(e) => return Err(e),
                _ => unreachable!("worker out of step"),
            }
        }
        if will_tick {
            // The sequential engine checks doneness before popping the
            // tick, with every pre-tick event already processed — which
            // is exactly this barrier's counter state.
            if !quiesced(&states) {
                ticks += 1;
                tick_end = bound;
                pending_flush = Some(bound);
                let interval = sample_interval.expect("tick implies interval");
                next_tick = Some(bound + interval).filter(|&t| t <= horizon);
            }
        }
    };

    // Where the sequential engine stopped, and what it counted.
    let (events, end_time) = match outcome {
        Outcome::Quiesced => {
            let cut = states.iter().map(|s| s.book.last_progress).max().flatten();
            let kept: u64 = states.iter().map(|s| s.counted - s.book.beyond(cut)).sum();
            let progress_end = cut.map(|(t, _)| t).unwrap_or(Nanos::ZERO);
            (ticks + kept, tick_end.max(progress_end))
        }
        Outcome::Exhausted => {
            let counted: u64 = states.iter().map(|s| s.counted).sum();
            let local_end = states
                .iter()
                .map(|s| s.end_time)
                .max()
                .unwrap_or(Nanos::ZERO);
            (ticks + counted, tick_end.max(local_end))
        }
    };

    let final_flush = sample_interval.map(|_| end_time);
    for tx in to {
        tx.send(ToWorker::Finish {
            flush_before: pending_flush,
            flush_at: final_flush,
        })
        .map_err(worker_died)?;
    }
    let mut finished: Vec<Finished> = Vec::with_capacity(shards);
    for rx in from {
        match rx.recv().map_err(worker_died)? {
            FromWorker::Finished(f) => finished.push(*f),
            FromWorker::Failed(e) => return Err(e),
            _ => unreachable!("worker out of step"),
        }
    }

    let mut merged = SimReport {
        events,
        end_time,
        ..SimReport::default()
    };
    let total: u64 = states.iter().map(|s| s.counters.total).sum();
    let done: u64 = states.iter().map(|s| s.counters.done).sum();
    merged.incomplete_flows = total - done;
    merged.samples = merge_samples(&finished);
    for f in finished {
        telemetry.absorb(f.telemetry);
        let r = f.report;
        merged.preproc_dropped += r.preproc_dropped;
        merged.monitor_violations += r.monitor_violations;
        merged.random_losses += r.random_losses;
        merged.reconfigurations += r.reconfigurations;
        for (node, drops) in r.node_drops {
            *merged.node_drops.entry(node).or_insert(0) += drops;
        }
        for (tenant, t) in r.tenants {
            let e = merged.tenants.entry(tenant).or_default();
            e.sent_pkts += t.sent_pkts;
            e.delivered_pkts += t.delivered_pkts;
            e.delivered_bytes += t.delivered_bytes;
            e.dropped_pkts += t.dropped_pkts;
            e.deadline_met += t.deadline_met;
            e.deadline_missed += t.deadline_missed;
        }
        merged.fct.merge(r.fct);
    }
    merged.fct.sort_canonical();
    Ok(merged)
}

/// Merge per-shard goodput samples flush-by-flush. Every shard performed
/// the identical flush sequence, so the k-th flush's entries (delimited
/// by `flush_marks`) across shards are partial sums of the sequential
/// engine's k-th flush: sum per tenant, emit in ascending tenant order.
/// Alignment is by flush *instance*, not timestamp — the sequential
/// series can legitimately contain two flushes at one instant (a tick
/// coinciding with the final flush).
fn merge_samples(finished: &[Finished]) -> Vec<(Nanos, TenantId, u64)> {
    let flushes = finished.first().map_or(0, |f| f.flush_marks.len());
    debug_assert!(finished.iter().all(|f| f.flush_marks.len() == flushes));
    let mut merged = Vec::new();
    for k in 0..flushes {
        let mut acc: BTreeMap<TenantId, u64> = BTreeMap::new();
        let mut at = Nanos::ZERO;
        for f in finished {
            let lo = f.flush_marks[k];
            let hi = f
                .flush_marks
                .get(k + 1)
                .copied()
                .unwrap_or(f.report.samples.len());
            for &(t, tenant, bytes) in &f.report.samples[lo..hi] {
                at = t; // every entry of one flush shares the flush time
                *acc.entry(tenant).or_insert(0) += bytes;
            }
        }
        merged.extend(acc.into_iter().map(|(tenant, bytes)| (at, tenant, bytes)));
    }
    merged
}
