//! The packet-level network simulator (the repo's Netbench equivalent).
//!
//! A deterministic discrete-event loop over output-queued nodes: hosts run
//! transport state machines and tag packets with tenant ranks; every output
//! port owns a scheduler-model queue; switches (and hosts) run QVISOR's
//! pre-processor at egress when deployed. Links have a serialization rate
//! and a propagation delay; routing is precomputed ECMP.
//!
//! The implementation is split by concern:
//!
//! * [`mod@self`] — the [`Simulation`] state, construction (including the
//!   QVISOR synthesis/deployment hookup), and the event dispatch loop;
//! * `traffic` — traffic sources: reliable flows and CBR streams, packet
//!   emission, and each flow's one retransmission timer;
//! * `forward` — device/port forwarding: the pre-processor and monitor
//!   hookup, the output-port state machine, and link serialization;
//! * `deliver` — destination-side delivery, ACK generation, and per-tenant
//!   stats collection;
//! * `queues` — per-port scheduler-model queue construction, port state
//!   and the per-tenant table.
//!
//! A port costs events only under contention: an idle one sends straight
//! to the wire, and its transmit-complete is a scheduled `PortFree` only
//! when a packet waits for it. Observers do not change that: they are paid
//! in observations, not in queue operations — an observed idle port still
//! sends around its queue and its `InstrumentedQueue` reports the enqueue
//! and dequeue that would have happened (DESIGN.md, "Port state machine").
//!
//! A hop recomputes only what a hop can change. A packet that arrives and
//! leaves through an idle, unobserved FIFO or PIFO port goes to the wire
//! from the arena slot it arrived in. Under `PreprocScope::Everywhere`
//! with no runtime adapter, the source's transform is final: later hops
//! record it instead of running the pre-processor again.

mod deliver;
mod forward;
mod queues;
#[cfg(test)]
mod tests;
mod traffic;

pub use traffic::{NewCbr, NewFlow};

use crate::config::{QvisorSetup, SimConfig};
use crate::report::SimReport;
use qvisor_core::{
    admit, AdaptError, Admitted, JointPolicy, Policy, PreProcessor, PreprocScope, QvisorError,
    Refused, RuntimeAdapter, RuntimeMonitor, SpecPaths, Target,
};
use qvisor_ranking::{RankCtx, RankFn};
use qvisor_sim::{
    json::Value, stable_hash, EventQueue, FlowId, Nanos, NodeId, Packet, PacketArena, PacketKind,
    PacketSlot, TenantId,
};
use qvisor_telemetry::{JournalEvent, Profiler, Telemetry};
use qvisor_topology::{NodeKind, Routes, Topology};
use qvisor_transport::Expiry;

use queues::{Port, TenantState};
use traffic::FlowState;

#[derive(Clone, Copy, Debug)]
pub(in crate::sim) enum Event {
    FlowStart(FlowId),
    CbrEmit(FlowId),
    /// `port` (flat table index; `node`'s) is done and a packet waits.
    PortFree {
        node: NodeId,
        port: u32,
    },
    Arrive {
        node: NodeId,
    },
    /// `flow`'s one retransmission timer, armed for `seq` — retransmitted
    /// `attempt` times so far — timing out at the event's instant.
    Timeout {
        flow: FlowId,
        seq: u64,
        attempt: u32,
    },
    /// Periodic control-plane tick driving runtime adaptation.
    ControlTick,
    /// Periodic goodput sampling tick.
    Sample,
}

/// Content-derived same-instant ordering key (see
/// [`EventQueue::schedule_keyed`]).
///
/// Events scheduled for the same nanosecond pop in `(class, node, a, b)`
/// order, every component a pure function of the event's *content* — never
/// of the order the scheduling code happened to run in. The pinned report
/// and export bytes depend on this order, so a change to the scheduling
/// code (a cut-through, a reordered branch) cannot move them.
///
/// Class 0 (control/sample ticks) sorts before every packet event, so a
/// delivery at exactly a sampling instant counts toward the *next* window.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(in crate::sim) struct EventKey {
    class: u8,
    node: u32,
    a: u64,
    b: u64,
}

pub(in crate::sim) fn kind_tag(kind: &PacketKind) -> u64 {
    match kind {
        PacketKind::Data => 0,
        PacketKind::Ack => 1,
        PacketKind::Datagram => 2,
    }
}

impl EventKey {
    pub(in crate::sim) fn control_tick() -> EventKey {
        EventKey {
            class: 0,
            node: 0,
            a: 0,
            b: 0,
        }
    }

    pub(in crate::sim) fn sample() -> EventKey {
        EventKey {
            class: 0,
            node: 0,
            a: 1,
            b: 0,
        }
    }

    /// Source-side traffic events: `FlowStart` and `CbrEmit` (a flow id is
    /// one or the other, never both, so they share a class).
    pub(in crate::sim) fn flow_event(src: NodeId, flow: FlowId) -> EventKey {
        EventKey {
            class: 1,
            node: src.index() as u32,
            a: flow.0,
            b: 0,
        }
    }

    pub(in crate::sim) fn timeout(src: NodeId, flow: FlowId, seq: u64, attempt: u32) -> EventKey {
        EventKey {
            class: 2,
            node: src.index() as u32,
            a: flow.0,
            b: (seq << 16) | (attempt as u64 & 0xFFFF),
        }
    }

    /// `port` counts within `node` (its position among the out-links).
    pub(in crate::sim) fn port_free(node: NodeId, port: u32) -> EventKey {
        EventKey {
            class: 3,
            node: node.index() as u32,
            a: port as u64,
            b: 0,
        }
    }

    /// Arrival of `p` at `to`. `(flow, seq, kind, sent_at)` identifies a
    /// packet instance: retransmissions and their ACKs differ in
    /// `sent_at`, duplicates of one instance cannot coexist in flight.
    ///
    /// Same-instant arrivals at one node order oldest-`sent_at` first,
    /// then by packet-identity hash. Sorting by flow id directly would
    /// systematically favour lower-numbered flows at every identical-
    /// timestamp arrival tie — in perfectly symmetric workloads (equal
    /// flows in lockstep over one bottleneck) that bias compounds into
    /// starvation. The hash varies per packet, so residual tie winners
    /// alternate pseudo-randomly and no flow is structurally preferred.
    /// (Queue admission is priority-drop, so fairness never hinges on
    /// arrival-tie order — see `PifoTree`'s drop policy.) The hash is
    /// [`arrival_tie`], computed once at emission into `Packet::tie`.
    pub(in crate::sim) fn arrive(to: NodeId, p: &Packet) -> EventKey {
        EventKey {
            class: 4,
            node: to.index() as u32,
            a: p.sent_at.as_nanos(),
            b: p.tie,
        }
    }
}

/// The packet-identity hash every emission site stores in `Packet::tie`.
pub(in crate::sim) fn arrival_tie(p: &Packet) -> u64 {
    stable_hash(&[p.flow.0, p.seq, kind_tag(&p.kind), p.sent_at.as_nanos()])
}

/// Parse `setup`'s operator policy, synthesize the joint policy and put it
/// through the deployment gate ([`admit`] on `target`, spans rooted at
/// `paths`, at `deny_warnings`). Returns the gate's verdict with the host
/// wall-clock nanoseconds the synthesis took (what `runtime_synth_ns` and
/// the `synthesize` profile site report).
pub(crate) fn judge(
    setup: &QvisorSetup,
    target: &Target,
    paths: &SpecPaths,
    deny_warnings: bool,
) -> Result<(Result<Admitted, Refused>, u64), QvisorError> {
    let policy = Policy::parse(&setup.policy)?;
    // determinism: allowed (self-profiler measures host synthesis cost;
    // stripped from deterministic exports)
    let started = std::time::Instant::now(); // determinism: allowed
    let joint = qvisor_core::synthesize(&setup.specs, &policy, setup.synth)?;
    let synth_ns = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    Ok((admit(joint, target, paths, deny_warnings), synth_ns))
}

/// Add the run's report to `telemetry` (so a shared registry sums runs):
/// each tenant row to the `net_*` counters, each completed flow to its
/// tenant's `net_fct_ns` and a `flow_complete` event, journalled among the
/// `live` events the run journalled itself ([`Simulation::journal`]).
fn publish(telemetry: &Telemetry, report: &SimReport, live: usize) {
    if !telemetry.is_enabled() {
        return;
    }
    for (t, row) in &report.tenants {
        let tenant = format!("T{}", t.0);
        let labels = [("tenant", tenant.as_str())];
        (telemetry.counter("net_sent_pkts", &labels)).add(row.sent_pkts);
        (telemetry.counter("net_delivered_pkts", &labels)).add(row.delivered_pkts);
        (telemetry.counter("net_delivered_bytes", &labels)).add(row.delivered_bytes);
        (telemetry.counter("net_dropped_pkts", &labels)).add(row.dropped_pkts);
        let fct_ns = telemetry.histogram("net_fct_ns", &labels);
        let flows = report.fct.records().iter().filter(|r| r.tenant == *t);
        flows.for_each(|r| fct_ns.record(r.fct().as_nanos()));
    }
    let completed = report.fct.records().iter().map(|r| {
        let fields = [
            ("flow", Value::from(r.flow.0)),
            ("tenant", Value::from(r.tenant.0 as u64)),
            ("size_bytes", Value::from(r.size)),
            ("fct_ns", Value::from(r.fct())),
        ];
        JournalEvent::new(r.end, "flow_complete", &fields)
    });
    telemetry.events_late(live, completed);
}

/// The simulator. Build with [`Simulation::new`], register tenant rank
/// functions, add traffic, then [`Simulation::run`].
pub struct Simulation {
    pub(in crate::sim) topo: Topology,
    pub(in crate::sim) routes: Routes,
    pub(in crate::sim) cfg: SimConfig,
    /// The deployed joint policy, as the deployment gate admitted it.
    pub(in crate::sim) deployment: Option<Admitted>,
    pub(in crate::sim) preproc: Option<PreProcessor>,
    pub(in crate::sim) monitor: Option<RuntimeMonitor>,
    pub(in crate::sim) adapter: Option<RuntimeAdapter>,
    /// The event core. Payloads are `Copy`: packets in flight are parked
    /// in `arena` and referenced by slot, so scheduling an event moves a
    /// few words instead of boxing a packet.
    pub(in crate::sim) events: EventQueue<(Event, Option<PacketSlot>), EventKey>,
    /// In-flight packet storage (freelist-recycled; no per-packet allocation
    /// on the forwarding path).
    pub(in crate::sim) arena: PacketArena,
    /// Every output port of every node; node `n` owns
    /// `ports[port_base[n]..port_base[n + 1]]`, in out-link order.
    pub(in crate::sim) ports: Vec<Port>,
    pub(in crate::sim) port_base: Vec<u32>,
    /// The event being dispatched sorts before a same-instant `PortFree`
    /// (`FlowStart`, `CbrEmit`, `Timeout`); see `Port::is_free`.
    pub(in crate::sim) before_port_free: bool,
    /// `preproc_at[node]`: every packet leaving `node` carries the
    /// pre-processor's transform, made there — the deployment's
    /// `PreprocScope`, resolved once at build (all `false` without a
    /// pre-processor).
    pub(in crate::sim) preproc_at: Vec<bool>,
    /// `PreprocScope::FirstHopOnly`: it runs where the packet was sent.
    pub(in crate::sim) preproc_first_hop: bool,
    /// The source's transform is final: `Everywhere` runs the
    /// pre-processor at the source, and with no adapter its table never
    /// changes, so a later hop would compute the same `txf_rank` and
    /// verdict again. Such a hop records the transform and skips it.
    pub(in crate::sim) transform_final: bool,
    pub(in crate::sim) flows: Vec<FlowState>,
    pub(in crate::sim) rank_fns: Vec<Option<Box<dyn RankFn>>>,
    pub(in crate::sim) report: SimReport,
    pub(in crate::sim) reliable_total: u64,
    pub(in crate::sim) cbr_live: u64,
    /// Packets emitted and not yet delivered or dropped.
    pub(in crate::sim) in_flight: u64,
    /// Events this run journalled live ([`Simulation::journal`]).
    journalled: usize,
    /// Indexed by `TenantId`; `None` for a tenant not seen here.
    pub(in crate::sim) tenants: Vec<Option<TenantState>>,
    /// Wall-clock cost of handling one event (self-profiler site).
    pub(in crate::sim) dispatch_prof: Profiler,
}

impl Simulation {
    /// Build a simulation over `topo` with `cfg`. Synthesizes the QVISOR
    /// joint policy when configured and deploys it if the deployment gate
    /// admits it on the configuration's target ([`SimConfig::target`]) at
    /// its default strictness: a policy the verifier finds an error in is
    /// refused with [`QvisorError::Deployment`].
    pub fn new(topo: Topology, cfg: SimConfig) -> Result<Simulation, QvisorError> {
        let deployment = match &cfg.qvisor {
            Some(setup) => match judge(setup, &cfg.target(), &SpecPaths::scenario(), false)? {
                (Ok(admitted), synth_ns) => Some((admitted, synth_ns)),
                (Err(refused), _) => return Err(QvisorError::Deployment(refused.to_string())),
            },
            None => None,
        };
        Simulation::deploy(topo, cfg, deployment)
    }

    /// Build the simulation deploying `deployment` — the gate's token for
    /// `cfg.qvisor`, with the wall-clock its synthesis took. The one path
    /// behind [`Simulation::new`] and the scenario engine's build.
    pub(crate) fn deploy(
        topo: Topology,
        cfg: SimConfig,
        deployment: Option<(Admitted, u64)>,
    ) -> Result<Simulation, QvisorError> {
        let routes = Routes::compute(&topo);
        let (deployment, preproc, monitor, adapter) = match (&cfg.qvisor, deployment) {
            (Some(setup), Some((deployment, synth_ns))) => {
                cfg.telemetry
                    .histogram("runtime_synth_ns", &[])
                    .record(synth_ns);
                cfg.telemetry.profiler("synthesize").record_ns(synth_ns);
                cfg.telemetry.gauge("runtime_transform_version", &[]).set(1);
                let preproc = PreProcessor::new(deployment.joint(), setup.unknown);
                let monitor = setup
                    .monitor
                    .map(|mc| RuntimeMonitor::new(&setup.specs, mc));
                let adapter = match (cfg.adaptation_interval, setup.monitor) {
                    (Some(_), Some(mc)) => Some(
                        RuntimeAdapter::new(
                            setup.specs.clone(),
                            deployment.joint().policy.clone(),
                            setup.synth,
                            mc,
                        )
                        .with_telemetry(&cfg.telemetry)
                        .with_gate(*deployment.target(), deployment.deny_warnings()),
                    ),
                    (Some(_), None) => {
                        return Err(QvisorError::Deployment(
                            "adaptation_interval requires a runtime monitor".into(),
                        ))
                    }
                    _ => None,
                };
                (Some(deployment), Some(preproc), monitor, adapter)
            }
            (None, None) => {
                if cfg.adaptation_interval.is_some() {
                    return Err(QvisorError::Deployment(
                        "adaptation_interval requires a QVISOR deployment".into(),
                    ));
                }
                (None, None, None, None)
            }
            _ => unreachable!("a joint policy is admitted exactly when QVISOR is deployed"),
        };

        let joint = deployment.as_ref().map(Admitted::joint);
        let (ports, port_base) = queues::build_ports(&topo, &cfg, joint)?;
        let scope = (cfg.qvisor.as_ref()).map(|q| q.scope);
        let preproc_at = topo
            .nodes()
            .iter()
            .map(|node| match scope {
                Some(PreprocScope::Everywhere) => true,
                Some(PreprocScope::SwitchesOnly) => node.kind == NodeKind::Switch,
                Some(PreprocScope::FirstHopOnly) | None => false,
            })
            .collect();
        let transform_final = scope == Some(PreprocScope::Everywhere) && adapter.is_none();
        let events = EventQueue::with_core(cfg.event_core);
        let dispatch_prof = cfg.telemetry.profiler("event_dispatch");
        Ok(Simulation {
            topo,
            routes,
            cfg,
            deployment,
            preproc,
            monitor,
            adapter,
            events,
            arena: PacketArena::with_capacity(64),
            ports,
            port_base,
            before_port_free: false,
            preproc_at,
            preproc_first_hop: scope == Some(PreprocScope::FirstHopOnly),
            transform_final,
            flows: Vec::new(),
            rank_fns: Vec::new(),
            report: SimReport::default(),
            reliable_total: 0,
            cbr_live: 0,
            in_flight: 0,
            journalled: 0,
            tenants: Vec::new(),
            dispatch_prof,
        })
    }

    /// The synthesized joint policy, when QVISOR is deployed.
    pub fn joint_policy(&self) -> Option<&JointPolicy> {
        self.deployment.as_ref().map(Admitted::joint)
    }

    /// Register the rank function computing `tenant`'s packet ranks at the
    /// end hosts. Tenants without one emit rank 0.
    pub fn register_rank_fn(&mut self, tenant: TenantId, f: Box<dyn RankFn>) {
        if self.rank_fns.len() <= tenant.index() {
            self.rank_fns.resize_with(tenant.index() + 1, || None);
        }
        self.rank_fns[tenant.index()] = Some(f);
    }

    pub(in crate::sim) fn compute_rank(&mut self, tenant: TenantId, ctx: &RankCtx) -> u64 {
        match self
            .rank_fns
            .get_mut(tenant.index())
            .and_then(|f| f.as_mut())
        {
            Some(f) => f.rank(ctx),
            None => 0,
        }
    }

    fn all_traffic_done(&self) -> bool {
        let done = self.report.fct.records().len() as u64;
        done == self.reliable_total && self.cbr_live == 0 && self.in_flight == 0
    }

    /// Count one event of the run at `t` — ahead of the clock for a
    /// transmit-complete, which `transmit` counts at transmit start.
    pub(in crate::sim) fn count_event(&mut self, t: Nanos) {
        self.report.events += 1;
        self.report.end_time = self.report.end_time.max(t);
    }

    /// Journal an event live, counted for [`publish`]: the run's one such site.
    fn journal(&mut self, now: Nanos, kind: &str, fields: &[(&str, Value)]) {
        self.cfg.telemetry.event(now, kind, fields);
        self.journalled += 1;
    }

    /// One control-plane tick: feed the monitor's view to the adapter;
    /// on a proposal, re-synthesize and, if the deployment gate admits the
    /// result, hot-reload the pre-processor. A refused re-synthesis (or a
    /// failed one) deploys nothing: it is counted in
    /// `reconfigurations_refused` and journalled as a
    /// `reconfiguration_refused` event with the refusal's codes, and the
    /// adapter proposes the change again at the next tick.
    ///
    /// Queue contents keep their old transformed ranks until they drain —
    /// the transition cost §2 acknowledges ("emptying the buffers") — but
    /// every packet processed after the reload uses the new joint policy.
    fn control_tick(&mut self, now: Nanos) {
        let (Some(adapter), Some(monitor), Some(preproc)) = (
            self.adapter.as_mut(),
            self.monitor.as_ref(),
            self.preproc.as_mut(),
        ) else {
            return;
        };
        let Some(proposal) = adapter.propose(monitor, now) else {
            return;
        };
        match adapter.apply(&proposal) {
            Ok(Some(deployment)) => {
                preproc.reload(&deployment);
                self.deployment = Some(deployment);
                self.report.reconfigurations += 1;
                let total = ("total", Value::from(self.report.reconfigurations));
                self.journal(now, "reconfiguration", &[total]);
            }
            Ok(None) => {}
            Err(err) => {
                self.report.reconfigurations_refused += 1;
                let why = match &err {
                    AdaptError::Refused(refused) => {
                        let codes = refused.codes().into_iter().map(Value::from);
                        ("codes", Value::from(codes.collect::<Vec<_>>()))
                    }
                    AdaptError::Synthesis(e) => ("error", Value::from(e.to_string())),
                };
                let total = ("total", Value::from(self.report.reconfigurations_refused));
                self.journal(now, "reconfiguration_refused", &[total, why]);
            }
        }
    }

    /// Process one popped event. Returns `false` when the caller must not
    /// count it: a dead retransmission timer, or a `PortFree`, which
    /// `transmit` counted when the transmission started.
    ///
    /// A reliable flow keeps one pending `Timeout`, armed for its earliest
    /// unacked deadline (`arm_timer`), not one per data packet. It is dead
    /// when its sequence was acknowledged before it fired — the event is
    /// not chased on ACK, it fires and the flow re-arms for what is then
    /// earliest — or when a fresh send's earlier deadline superseded it.
    /// Dead timers are *silently skipped*: no `report.events` count, no
    /// `end_time` advance, exactly as the stale timers of the
    /// timer-per-packet scheme were, so the pinned event counts measure
    /// work and not which dead timers happen to be pending; a timeout that
    /// finds its sequence unacked pops at the `(time, key)` its packet's
    /// own timer had and is counted.
    pub(in crate::sim) fn dispatch_event(
        &mut self,
        now: Nanos,
        ev: Event,
        packet: Option<PacketSlot>,
    ) -> bool {
        let _dispatch = self.dispatch_prof.time();
        self.before_port_free = matches!(
            ev,
            Event::FlowStart(_) | Event::CbrEmit(_) | Event::Timeout { .. }
        );
        match ev {
            Event::FlowStart(flow) => self.start_flow(flow, now),
            Event::CbrEmit(flow) => self.emit_cbr(flow, now),
            Event::PortFree { node, port } => {
                self.on_port_free(node, port, now);
                return false;
            }
            Event::Arrive { node } => {
                self.on_arrive(node, packet.expect("Arrive carries a packet"), now);
            }
            Event::Timeout { flow, seq, attempt } => {
                let fired = Expiry {
                    at: now,
                    seq,
                    attempt,
                };
                let live = (self.transport(flow)).and_then(|t| t.sender.on_expiry(fired));
                if let Some(req) = live {
                    self.send_data(flow, req, now);
                }
                self.arm_timer(flow);
                return live.is_some();
            }
            Event::ControlTick => {
                self.control_tick(now);
                let interval = self.cfg.adaptation_interval.expect("tick implies interval");
                if now + interval <= self.cfg.horizon {
                    self.events.schedule_keyed(
                        now + interval,
                        EventKey::control_tick(),
                        (Event::ControlTick, None),
                    );
                }
            }
            Event::Sample => {
                self.flush_window(now);
                let interval = self.cfg.sample_interval.expect("tick implies interval");
                if now + interval <= self.cfg.horizon {
                    self.events.schedule_keyed(
                        now + interval,
                        EventKey::sample(),
                        (Event::Sample, None),
                    );
                }
            }
        }
        true
    }

    /// Close the current goodput sampling window at `at`: push every
    /// tenant's non-zero delivered-byte count and reset the window.
    pub(in crate::sim) fn flush_window(&mut self, at: Nanos) {
        for (id, state) in self.tenants.iter_mut().enumerate() {
            if let Some(state) = state.as_mut().filter(|s| s.window_bytes > 0) {
                let bytes = std::mem::take(&mut state.window_bytes);
                self.report.samples.push((at, TenantId(id as u16), bytes));
            }
        }
    }

    /// Run to quiescence or the horizon; returns the report.
    pub fn run(mut self) -> SimReport {
        self.run_events();
        self.report.incomplete_flows = self.reliable_total - self.report.fct.records().len() as u64;
        let mut report = self.report;
        report.tenants = (self.tenants.iter().enumerate())
            .filter_map(|(id, state)| Some((TenantId(id as u16), state.as_ref()?.traffic)))
            .collect();
        // Before the sort: completion order is the order a live journal had.
        publish(&self.cfg.telemetry, &report, self.journalled);
        report.fct.sort_canonical();
        report
    }

    /// All of [`Simulation::run`] but assembling the report: tests look at
    /// the state it leaves.
    pub(in crate::sim) fn run_events(&mut self) {
        if let Some(interval) = self.cfg.adaptation_interval {
            assert!(
                interval > Nanos::ZERO,
                "adaptation interval must be positive"
            );
            self.events.schedule_keyed(
                interval,
                EventKey::control_tick(),
                (Event::ControlTick, None),
            );
        }
        if let Some(interval) = self.cfg.sample_interval {
            assert!(interval > Nanos::ZERO, "sample interval must be positive");
            self.events
                .schedule_keyed(interval, EventKey::sample(), (Event::Sample, None));
        }
        while let Some(t) = self.events.peek_time() {
            if t > self.cfg.horizon {
                break;
            }
            if self.all_traffic_done() {
                break;
            }
            let (now, (ev, packet)) = self.events.pop().expect("peeked");
            if self.dispatch_event(now, ev, packet) {
                self.count_event(now);
            }
        }
        // Flush the final partial sampling window so the series sums to
        // the delivered bytes.
        if self.cfg.sample_interval.is_some() {
            self.flush_window(self.report.end_time);
        }
    }
}
