use super::*;
use crate::config::SimConfig;
use qvisor_core::Backend;
use qvisor_ranking::PFabric;
use qvisor_scheduler::PacketQueue;
use qvisor_sim::{gbps, Nanos, TenantId};
use qvisor_topology::Dumbbell;
use qvisor_transport::SizeBucket;

fn dumbbell() -> Dumbbell {
    Dumbbell::build(2, gbps(1), gbps(1), Nanos::from_micros(1))
}

fn base_cfg() -> SimConfig {
    SimConfig {
        horizon: Nanos::from_secs(2),
        ..SimConfig::default()
    }
}

#[test]
fn single_flow_completes_with_sane_fct() {
    let d = dumbbell();
    let mut sim = Simulation::new(d.topology.clone(), base_cfg()).unwrap();
    sim.register_rank_fn(TenantId(1), Box::new(PFabric::default_datacenter()));
    sim.add_flow(NewFlow::new(
        TenantId(1),
        d.senders[0],
        d.receivers[0],
        150_000, // ~103 packets
        Nanos::ZERO,
    ));
    let r = sim.run();
    assert_eq!(r.incomplete_flows, 0);
    assert_eq!(r.fct.count(None), 1);
    let fct = r.fct.mean_fct_ms(None, SizeBucket::ALL).unwrap();
    // Ideal: 150 KB at 1 Gbps ≈ 1.2 ms plus RTTs; must be close.
    assert!(
        (1.0..3.0).contains(&fct),
        "FCT {fct} ms outside sane bounds"
    );
    let t = r.tenant(TenantId(1));
    assert_eq!(t.delivered_bytes, 150_000);
    // pFabric's remaining-size ranks let an elephant's early packets
    // starve behind its own later packets until a timeout refreshes
    // them; a couple of stale duplicates may be priority-dropped.
    assert!(t.dropped_pkts <= 3, "drops {}", t.dropped_pkts);
}

#[test]
fn simulation_is_deterministic() {
    let run = || {
        let d = dumbbell();
        let mut sim = Simulation::new(d.topology.clone(), base_cfg()).unwrap();
        sim.register_rank_fn(TenantId(1), Box::new(PFabric::default_datacenter()));
        for i in 0..8 {
            sim.add_flow(NewFlow::new(
                TenantId(1),
                d.senders[i % 2],
                d.receivers[(i + 1) % 2],
                20_000 + i as u64 * 7_000,
                Nanos::from_micros(i as u64 * 13),
            ));
        }
        let r = sim.run();
        (
            r.events,
            r.end_time,
            r.fct.mean_fct_ms(None, SizeBucket::ALL),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn congestion_drops_and_recovers() {
    // Two senders at 1 Gbps into a 0.5 Gbps bottleneck: drops must
    // occur, yet every flow completes via retransmission.
    let d = Dumbbell::build(2, gbps(1), 500_000_000, Nanos::from_micros(1));
    let mut sim = Simulation::new(d.topology.clone(), base_cfg()).unwrap();
    sim.register_rank_fn(TenantId(1), Box::new(PFabric::default_datacenter()));
    for i in 0..2 {
        sim.add_flow(NewFlow::new(
            TenantId(1),
            d.senders[i],
            d.receivers[i],
            400_000,
            Nanos::ZERO,
        ));
    }
    let r = sim.run();
    assert_eq!(r.incomplete_flows, 0);
    let t = r.tenant(TenantId(1));
    assert!(t.dropped_pkts > 0, "bottleneck must drop");
    assert_eq!(t.delivered_bytes, 800_000);
}

#[test]
fn random_loss_is_survivable() {
    let d = dumbbell();
    let cfg = SimConfig {
        random_loss: 0.05,
        ..base_cfg()
    };
    let mut sim = Simulation::new(d.topology.clone(), cfg).unwrap();
    sim.add_flow(NewFlow::new(
        TenantId(1),
        d.senders[0],
        d.receivers[0],
        100_000,
        Nanos::ZERO,
    ));
    let r = sim.run();
    assert_eq!(r.incomplete_flows, 0);
    assert!(r.random_losses > 0, "5% loss over ~140 packets");
}

#[test]
fn cbr_stream_delivers_and_tracks_deadlines() {
    let d = dumbbell();
    let mut sim = Simulation::new(d.topology.clone(), base_cfg()).unwrap();
    sim.add_cbr(NewCbr {
        tenant: TenantId(2),
        src: d.senders[0],
        dst: d.receivers[0],
        rate_bps: 100_000_000,
        pkt_size: 1_500,
        start: Nanos::ZERO,
        stop: Nanos::from_millis(1),
        deadline_offset: Nanos::from_micros(200),
    });
    let r = sim.run();
    let t = r.tenant(TenantId(2));
    // 100 Mbps, 1500 B -> one packet per 120 us -> 9 packets in 1 ms
    // (t=0 inclusive), all delivered well within 200 us on an idle path.
    assert!(t.delivered_pkts >= 8, "got {}", t.delivered_pkts);
    assert_eq!(t.deadline_missed, 0);
    assert_eq!(t.deadline_hit_rate(), Some(1.0));
}

#[test]
fn pifo_prioritizes_small_flow_under_contention() {
    // One elephant and one mouse share a bottleneck; with pFabric ranks
    // on a PIFO, the mouse's FCT must be near-ideal.
    let d = Dumbbell::build(2, gbps(1), gbps(1), Nanos::from_micros(1));
    let mut sim = Simulation::new(d.topology.clone(), base_cfg()).unwrap();
    sim.register_rank_fn(TenantId(1), Box::new(PFabric::default_datacenter()));
    // Elephant from sender 0, mouse from sender 1, same receiver.
    sim.add_flow(NewFlow::new(
        TenantId(1),
        d.senders[0],
        d.receivers[0],
        5_000_000,
        Nanos::ZERO,
    ));
    sim.add_flow(NewFlow::new(
        TenantId(1),
        d.senders[1],
        d.receivers[0],
        20_000,
        Nanos::from_millis(5), // arrives mid-elephant
    ));
    let r = sim.run();
    assert_eq!(r.incomplete_flows, 0);
    let small = r.fct.mean_fct_ms(None, SizeBucket::SMALL).unwrap();
    // Ideal ~0.2 ms; generous bound that FIFO would blow through.
    assert!(small < 1.0, "mouse FCT {small} ms too slow under PIFO");
}

#[test]
fn telemetry_observes_the_run() {
    let d = dumbbell();
    let telemetry = qvisor_telemetry::Telemetry::enabled();
    let cfg = SimConfig {
        telemetry: telemetry.clone(),
        ..base_cfg()
    };
    let run = || {
        let mut sim = Simulation::new(d.topology.clone(), cfg.clone()).unwrap();
        sim.register_rank_fn(TenantId(1), Box::new(PFabric::default_datacenter()));
        sim.add_flow(NewFlow::new(
            TenantId(1),
            d.senders[0],
            d.receivers[0],
            150_000,
            Nanos::ZERO,
        ));
        sim.run()
    };
    let r = run();
    assert_eq!(r.incomplete_flows, 0);
    // Per-tenant metrics are written from the report.
    let t1 = [("tenant", "T1")];
    let sent = r.tenant(TenantId(1)).sent_pkts;
    assert_eq!(telemetry.counter("net_sent_pkts", &t1).get(), sent);
    assert_eq!(telemetry.counter("net_delivered_bytes", &t1).get(), 150_000);
    assert_eq!(telemetry.counter("net_dropped_pkts", &t1).get(), 0);
    assert_eq!(telemetry.histogram("net_fct_ns", &t1).count(), 1);
    // A registry shared by two runs sums them.
    assert_eq!(run(), r);
    assert_eq!(telemetry.counter("net_sent_pkts", &t1).get(), 2 * sent);
    assert_eq!(telemetry.histogram("net_fct_ns", &t1).count(), 2);
    // Port queues and links reported through the same registry, and the
    // export round-trips through the report parser.
    let jsonl = telemetry.export_jsonl();
    assert!(jsonl.contains("sched_dequeued_pkts"));
    assert!(jsonl.contains("sched_sojourn_ns"));
    assert!(jsonl.contains("net_link_tx_bytes"));
    assert!(jsonl.contains("flow_complete"));
    let export = qvisor_telemetry::report::parse(&jsonl).unwrap();
    assert!(!export.counters.is_empty());
}

#[test]
fn rejects_non_host_endpoints() {
    let d = dumbbell();
    let mut sim = Simulation::new(d.topology.clone(), base_cfg()).unwrap();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        sim.add_flow(NewFlow::new(
            TenantId(1),
            d.left_switch,
            d.receivers[0],
            1_000,
            Nanos::ZERO,
        ));
    }));
    assert!(result.is_err());
}

// ---- The output-port state machine (DESIGN.md, "Port state machine") ----

/// Dispatch every pending event at or before `until` — `run`'s loop
/// without the doneness check — asserting at every `PortFree` pop that it
/// is the one and only pending wake-up of its port: the port is armed and
/// its transmission ends exactly now. (A port armed twice would pop a
/// second time disarmed, or armed for a later transmit-complete.)
fn step_through(sim: &mut Simulation, until: Nanos) -> u64 {
    let mut port_frees = 0;
    while sim.events.peek_time().is_some_and(|t| t <= until) {
        let (now, (ev, slot)) = sim.events.pop().expect("peeked");
        if let Event::PortFree { node, port } = ev {
            let p = &sim.ports[port as usize];
            assert!(p.armed, "PortFree popped on a disarmed port at {now}");
            assert_eq!(p.free_at, Some(now), "PortFree popped off its instant");
            assert!((sim.port_base[node.index()]..sim.port_base[node.index() + 1]).contains(&port));
            port_frees += 1;
        }
        if sim.dispatch_event(now, ev, slot) {
            sim.count_event(now);
        }
    }
    port_frees
}

/// A rank function that replays a fixed list of ranks, one per packet.
struct Scripted(std::collections::VecDeque<u64>);

impl Scripted {
    fn new(ranks: &[u64]) -> Box<Scripted> {
        Box::new(Scripted(ranks.iter().copied().collect()))
    }
}

impl qvisor_ranking::RankFn for Scripted {
    fn rank(&mut self, _: &qvisor_ranking::RankCtx) -> u64 {
        self.0.pop_front().expect("script covers every packet")
    }
    fn range(&self) -> qvisor_ranking::RankRange {
        qvisor_ranking::RankRange::new(0, 100)
    }
    fn name(&self) -> &'static str {
        "scripted"
    }
}

/// What waits in `port`'s queue, in dequeue order, as `(flow, seq)`.
fn drain_port(sim: &mut Simulation, port: u32) -> Vec<(u64, u64)> {
    std::iter::from_fn(|| sim.ports[port as usize].queue.dequeue(Nanos::ZERO))
        .map(|p| (p.flow.0, p.seq))
        .collect()
}

#[test]
fn flow_start_at_free_at_sends_the_min_rank_packet() {
    // Same-instant order: a FlowStart (class 1) at exactly the instant a
    // transmission ends sorts *before* the transmit-complete (class 3),
    // so its burst queues behind a port that is still busy, and the
    // transmit-complete then picks the burst's minimum rank — not the
    // packet that happened to be offered first.
    let d = dumbbell();
    let mut sim = Simulation::new(d.topology.clone(), base_cfg()).unwrap();
    sim.register_rank_fn(TenantId(1), Scripted::new(&[5]));
    sim.register_rank_fn(TenantId(2), Scripted::new(&[9, 1]));
    let wire = Nanos::from_micros(12); // 1 500 B at 1 Gbps
    let src = d.senders[0];
    sim.add_flow(NewFlow::new(
        TenantId(1),
        src,
        d.receivers[0],
        1_460,
        Nanos::ZERO,
    ));
    sim.add_flow(NewFlow::new(
        TenantId(2),
        src,
        d.receivers[0],
        2 * 1_460,
        wire,
    ));
    let port = sim.port_base[src.index()];
    assert!(
        sim.ports[port as usize].is_free(Nanos::ZERO, true),
        "never sent"
    );
    step_through(&mut sim, Nanos(wire.as_nanos() - 1));
    assert_eq!(sim.ports[port as usize].free_at, Some(wire));
    assert!(
        !sim.ports[port as usize].armed,
        "nothing waits: no PortFree"
    );
    assert_eq!(
        step_through(&mut sim, wire),
        1,
        "armed at `now`, popped at `now`"
    );
    let p = &sim.ports[port as usize];
    assert_eq!((p.free_at, p.armed), (Some(wire + wire), true));
    assert_eq!(
        drain_port(&mut sim, port),
        vec![(1, 0)],
        "rank 9 still waits"
    );
}

#[test]
fn arrive_at_free_at_transmits_immediately() {
    // ...while an Arrive (class 4) at that same instant sorts *after* the
    // transmit-complete: it finds the port free and goes out at once,
    // whatever its rank; a second same-instant arrival waits behind it.
    let d = Dumbbell::build(3, gbps(1), gbps(1), Nanos::from_micros(1));
    let mut sim = Simulation::new(d.topology.clone(), base_cfg()).unwrap();
    sim.register_rank_fn(TenantId(1), Scripted::new(&[5]));
    sim.register_rank_fn(TenantId(2), Scripted::new(&[9]));
    sim.register_rank_fn(TenantId(3), Scripted::new(&[1]));
    // X (1 500 B) reaches the left switch at 13 µs and holds the
    // bottleneck until 25 µs; Y (1 500 B, rank 9, sent at 12 µs) and Z
    // (540 B, rank 1, sent at 19.68 µs) both arrive at exactly 25 µs, Y
    // first (older `sent_at`).
    let free_at = Nanos(25_000);
    for (tenant, sender, size, start) in [
        (1, 0, 1_460, 0),
        (2, 1, 1_460, 12_000),
        (3, 2, 500, 25_000 - 1_000 - 540 * 8),
    ] {
        sim.add_flow(NewFlow::new(
            TenantId(tenant),
            d.senders[sender],
            d.receivers[0],
            size,
            Nanos(start),
        ));
    }
    let bottleneck = sim.port_base[d.left_switch.index()]
        + (d.topology.neighbors(d.left_switch))
            .position(|n| n == d.right_switch)
            .unwrap() as u32;
    step_through(&mut sim, Nanos(free_at.as_nanos() - 1));
    let p = &sim.ports[bottleneck as usize];
    assert_eq!((p.free_at, p.armed), (Some(free_at), false));
    assert_eq!(
        step_through(&mut sim, free_at),
        0,
        "no PortFree needed at 25 µs"
    );
    let p = &sim.ports[bottleneck as usize];
    assert_eq!((p.free_at, p.armed), (Some(free_at + Nanos(12_000)), true));
    assert_eq!(
        drain_port(&mut sim, bottleneck),
        vec![(2, 0)],
        "Z waits, Y left"
    );
}

#[test]
fn a_twelve_packet_burst_drains_without_a_timer() {
    // Every transmit start must re-arm while packets wait, or the tail of
    // a burst sits in the queue until its retransmission timers fire.
    let d = dumbbell();
    let mut sim = Simulation::new(d.topology.clone(), base_cfg()).unwrap();
    sim.add_flow(NewFlow::new(
        TenantId(1),
        d.senders[0],
        d.receivers[0],
        12 * 1_460,
        Nanos::ZERO,
    ));
    let r = sim.run();
    let t = r.tenant(TenantId(1));
    assert_eq!((t.sent_pkts, t.delivered_pkts, t.dropped_pkts), (12, 12, 0));
    assert_eq!(r.incomplete_flows, 0);
    // 12 back-to-back packets over three hops and the last ACK's return:
    // well inside the first 500 µs retransmission timeout.
    assert!(r.end_time < Nanos::from_micros(200), "took {}", r.end_time);
}

fn contended_world(horizon: Nanos) -> Simulation {
    let d = Dumbbell::build(3, gbps(1), 500_000_000, Nanos::from_micros(1));
    let cfg = SimConfig {
        horizon,
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(d.topology.clone(), cfg).unwrap();
    sim.register_rank_fn(TenantId(1), Box::new(PFabric::default_datacenter()));
    for i in 0..3 {
        sim.add_flow(NewFlow::new(
            TenantId(1),
            d.senders[i],
            d.receivers[(i + 1) % 3],
            60_000 + 25_000 * i as u64,
            Nanos::from_micros(7 * i as u64),
        ));
    }
    sim
}

#[test]
fn port_free_is_armed_at_most_once_per_port() {
    // Three windows into a half-rate bottleneck: queues build, drain and
    // priority-drop. `step_through` checks every PortFree pop.
    let mut sim = contended_world(Nanos::from_secs(2));
    let port_frees = step_through(&mut sim, Nanos::from_secs(2));
    assert!(port_frees > 200, "the world is contended: {port_frees}");
    assert_eq!(sim.report.fct.records().len() as u64, 3);
    assert!(sim.ports.iter().all(|p| !p.armed && p.queue.is_empty()));
}

#[test]
fn event_counts_match_the_engine_that_popped_every_port_free() {
    // `(horizon, events, end_time, incomplete)` recorded from the commit
    // whose every transmission scheduled, popped and counted a PortFree.
    // 12 µs and 37 µs end exactly on a transmit-complete; 36.999 µs,
    // 100 µs, 123.456 µs, 300 µs and 700 µs cut transmissions in
    // progress; the last row quiesces.
    for (horizon, events, end_time, incomplete) in [
        (12_000, 3, 12_000, 3),
        (36_999, 14, 36_000, 3),
        (37_000, 16, 37_000, 3),
        (100_000, 72, 99_320, 3),
        (123_456, 94, 123_320, 3),
        (300_000, 205, 295_280, 3),
        (650_000, 467, 650_000, 3),
        (700_000, 501, 699_320, 3),
        (2_000_000_000, 2_506, 4_680_560, 0),
    ] {
        let r = contended_world(Nanos(horizon)).run();
        assert_eq!(
            (r.events, r.end_time, r.incomplete_flows),
            (events, Nanos(end_time), incomplete),
            "horizon {horizon}"
        );
    }
}

#[test]
fn cut_through_equals_enqueue_then_dequeue() {
    use qvisor_scheduler::{Capacity, FifoQueue, PifoQueue};
    use qvisor_sim::{FlowId, SimRng};
    let buffer = Capacity::bytes(3_000);
    for scheduler in [Backend::Fifo, Backend::Pifo] {
        let d = dumbbell();
        let cfg = SimConfig {
            scheduler,
            buffer,
            ..base_cfg()
        };
        let mut sim = Simulation::new(d.topology.clone(), cfg).unwrap();
        let mut model: Box<dyn PacketQueue> = match scheduler {
            Backend::Fifo => Box::new(FifoQueue::new(buffer)),
            _ => Box::new(PifoQueue::new(buffer)),
        };
        let (src, dst) = (d.senders[0], d.receivers[0]);
        let mut rng = SimRng::seed_from(0xC077);
        let mut now = Nanos::ZERO;
        let (mut cut, mut refused) = (0, 0);
        for i in 0..400u64 {
            // Sizes around the whole-buffer boundary; ranks in the PIFO's
            // dense tier, on its edge, and in the overflow tier.
            let size = [40, 1_500, 2_999, 3_000, 3_001, 9_000][rng.below(6) as usize];
            let rank = [0, 7, 4_095, 4_096, 1 << 40][rng.below(5) as usize];
            let mut p = Packet::data(FlowId(i), TenantId(1), i, size, src, dst, rank, now);
            p.txf_rank = rank / 2;
            p.tie = rng.next();
            sim.in_flight += 1;
            sim.forward(src, p.clone(), now);
            let offered = model.enqueue(p, now);
            match model.dequeue(now) {
                Some(expect) => {
                    let (at, (ev, slot)) = sim.events.pop().expect("the packet is on the wire");
                    assert!(matches!(ev, Event::Arrive { .. }));
                    let sent = sim.arena.take(slot.expect("Arrive carries a packet"));
                    assert_eq!(format!("{sent:?}"), format!("{expect:?}"));
                    now = at;
                    cut += 1;
                }
                None => {
                    // Larger than the whole buffer: refused, as a queue
                    // would, never sent around it.
                    assert!(!offered.accepted() && size > 3_000);
                    refused += 1;
                    assert_eq!(sim.report.node_drops[&src], refused);
                }
            }
            assert!(sim.events.is_empty() && sim.in_flight == cut as u64);
            let port = &sim.ports[sim.port_base[src.index()] as usize];
            assert!(port.queue.is_empty() && !port.armed);
        }
        assert!(
            cut > 200 && refused > 80,
            "{cut} cut through, {refused} refused"
        );
    }
}

/// An observed port passes packets around its queue exactly where a bare
/// one cuts through: over `fifo` and `pifo`, never over a discipline that
/// keeps per-packet state — and the pass reports an enqueue and a dequeue
/// that never touched the queue.
#[test]
fn an_observed_idle_port_passes_only_over_an_exact_discipline() {
    use qvisor_ranking::RankRange;
    use qvisor_scheduler::Capacity;
    use qvisor_sim::FlowId;
    let span = RankRange { min: 0, max: 99 };
    for (scheduler, exact) in [
        (Backend::Fifo, true),
        (Backend::Pifo, true),
        (Backend::StrictStatic { queues: 4, span }, false),
        (Backend::SpPifo { queues: 4 }, false),
        (
            Backend::Aifo {
                window: 8,
                burst: 0.1,
            },
            false,
        ),
        (Backend::FairTree { tenants: 2 }, false),
    ] {
        let d = dumbbell();
        let telemetry = qvisor_telemetry::Telemetry::enabled();
        let cfg = SimConfig {
            scheduler,
            buffer: Capacity::bytes(3_000),
            telemetry: telemetry.clone(),
            ..base_cfg()
        };
        let mut sim = Simulation::new(d.topology.clone(), cfg).unwrap();
        for port in &sim.ports {
            assert!(matches!(port.queue, queues::PortQueue::Observed(_)));
            assert_eq!(port.queue.cuts_through(), exact, "{scheduler:?}");
        }
        let (src, dst) = (d.senders[0], d.receivers[0]);
        let p = Packet::data(FlowId(1), TenantId(1), 0, 1_500, src, dst, 7, Nanos::ZERO);
        sim.in_flight += 1;
        sim.forward(src, p, Nanos::ZERO);
        let port = &sim.ports[sim.port_base[src.index()] as usize];
        assert!(port.queue.is_empty() && !port.armed && port.free_at.is_some());
        let labels = [("queue", "n2.p0"), ("kind", port.queue.kind())];
        for counter in [
            "sched_offered_pkts",
            "sched_admitted_pkts",
            "sched_dequeued_pkts",
        ] {
            assert_eq!(telemetry.counter(counter, &labels).get(), 1, "{counter}");
        }
        for site in ["sched_enqueue", "sched_dequeue"] {
            assert_eq!(telemetry.profiler(site).stat().count, 1, "{site}");
        }
    }
}

/// Six flows over a half-rate bottleneck that also loses 3 % of arrivals:
/// retransmission timers pop live by the hundred, back off, and share
/// instants with ACKs.
fn lossy_world(tracer: &qvisor_telemetry::Tracer) -> Simulation {
    let d = Dumbbell::build(3, gbps(1), 500_000_000, Nanos::from_micros(1));
    let cfg = SimConfig {
        random_loss: 0.03,
        tracer: tracer.clone(),
        ..base_cfg()
    };
    let mut sim = Simulation::new(d.topology.clone(), cfg).unwrap();
    sim.register_rank_fn(TenantId(1), Box::new(PFabric::default_datacenter()));
    for i in 0..6 {
        sim.add_flow(NewFlow::new(
            TenantId(1),
            d.senders[i % 3],
            d.receivers[(i + 1) % 3],
            30_000 + 55_000 * i as u64,
            Nanos::from_micros(40 * i as u64),
        ));
    }
    sim
}

#[test]
fn a_lossy_run_equals_the_timer_per_packet_engine() {
    // Recorded from the commit whose every data packet scheduled its own
    // retransmission timer: one timer per flow may pop fewer dead timers
    // and nothing else — the same live timeouts at the same instants, so
    // the same events, report and trace, byte for byte.
    let fnv =
        |text: String| qvisor_sim::stable_hash(&text.bytes().map(u64::from).collect::<Vec<_>>());
    let tracer = qvisor_telemetry::Tracer::enabled(Default::default());
    let r = lossy_world(&tracer).run();
    assert_eq!(r.incomplete_flows, 0);
    let retransmitted = r.tenant(TenantId(1)).sent_pkts - r.tenant(TenantId(1)).delivered_pkts;
    assert!(retransmitted > 100, "timeouts popped live: {retransmitted}");
    assert_eq!(
        (r.events, r.end_time, r.random_losses),
        (10_393, Nanos(23_779_280), 165),
        "event count"
    );
    let report = crate::scenario::report_json(&r).to_pretty();
    assert_eq!(
        format!("{:016x}", fnv(report)),
        "ba0d8cb34ae9045e",
        "report"
    );
    // The trace whole, and without the verdict fields its records carry
    // since the SLO monitor reads the trace: as it was recorded then.
    let trace = tracer.snapshot().to_jsonl();
    let stripped = [",\"cross_tenant\":true", ",\"dup\":true", ",\"done\":true"]
        .iter()
        .fold(trace.clone(), |text, field| text.replace(field, ""));
    assert_eq!(
        format!("{:016x}", fnv(stripped)),
        "35b6ffbc102991af",
        "trace"
    );
    assert_eq!(format!("{:016x}", fnv(trace)), "72faa92a3ca77a2e", "trace");
}

#[test]
fn pending_events_scale_with_flows_not_packets() {
    // Mid-run, what is pending is the packets on the wire, the busy ports'
    // wake-ups, the flows yet to start and the flows' timers — one each,
    // two when a fresh send undercut a backed-off deadline. A timer per
    // packet kept every send of the last 500 µs pending: ≈ 40 a flow here.
    let mut sim = lossy_world(&qvisor_telemetry::Tracer::disabled());
    let mut checked = 0;
    for at in (100..6_000).step_by(100) {
        step_through(&mut sim, Nanos::from_micros(at));
        let in_flight = |f: &&FlowState| {
            matches!(
                f,
                FlowState::Reliable {
                    transport: Some(_),
                    ..
                }
            )
        };
        let live = sim.flows.iter().filter(in_flight).count() as u64;
        if live < 3 {
            continue;
        }
        let waking = sim.ports.iter().filter(|p| p.armed).count() as u64;
        let unstarted = sim.reliable_total - sim.report.fct.records().len() as u64 - live;
        let bound = sim.in_flight + waking + unstarted + 2 * live;
        let pending = sim.events.len() as u64;
        assert!(
            pending <= bound,
            "{pending} pending at {at} µs, {live} flows"
        );
        checked += 1;
    }
    assert!(checked > 20, "the run was mid-flight {checked} times");
}

// ---- The arena: a packet on an idle path keeps its slot ----

/// One packet and its ACK crossing an idle leaf–spine path, 4 hops each
/// way: the packet goes to the wire from the slot it arrived in, so the
/// arena never holds more than the one packet, in one slot, throughout.
#[test]
fn an_idle_path_occupies_one_arena_slot() {
    use qvisor_topology::{LeafSpine, LeafSpineConfig};
    let ls = LeafSpine::build(&LeafSpineConfig::small());
    let (src, dst) = (ls.hosts[0][0], ls.hosts[1][0]);
    let mut sim = Simulation::new(ls.topology.clone(), base_cfg()).unwrap();
    sim.add_flow(NewFlow::new(TenantId(1), src, dst, 1_000, Nanos::ZERO));
    let (mut slots, mut arrivals) = (std::collections::HashSet::new(), 0);
    while let Some((now, (ev, slot))) = sim.events.pop() {
        if let Event::Arrive { .. } = ev {
            slots.insert(slot.expect("Arrive carries a packet"));
            arrivals += 1;
        }
        if sim.dispatch_event(now, ev, slot) {
            sim.count_event(now);
        }
        assert!(sim.arena.len() <= 1, "{} parked at {now}", sim.arena.len());
    }
    assert_eq!(
        sim.report.fct.records().len() as u64,
        1,
        "the flow completed"
    );
    assert_eq!(arrivals, 8, "4 hops out, 4 back");
    assert_eq!(slots.len(), 1);
    assert_eq!(sim.arena.capacity(), 1);
    assert!(sim.arena.is_empty());
}

/// Every example scenario gives back every slot it parks a packet in:
/// empty when the run ends, or — where the horizon cuts packets off on a
/// wire — once their pending arrivals are drained.
#[test]
fn every_example_leaves_the_arena_empty() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/scenarios");
    let mut examples = 0;
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let text = std::fs::read_to_string(&path).unwrap();
        let spec = crate::scenario::ScenarioSpec::from_json(&text).unwrap();
        let mut sim = crate::scenario::Engine::new().build(&spec).unwrap();
        sim.run_events();
        let on_wires = sim.arena.len();
        if sim.in_flight == 0 {
            assert_eq!(on_wires, 0, "{}", path.display());
        }
        while let Some((_, (ev, slot))) = sim.events.pop() {
            if let Event::Arrive { .. } = ev {
                sim.arena.take(slot.expect("Arrive carries a packet"));
            }
        }
        assert!(sim.arena.is_empty(), "{}: a slot leaked", path.display());
        examples += 1;
    }
    assert!(examples >= 7, "{examples} examples");
}
