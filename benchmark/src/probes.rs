//! Layer probes: each per-layer metric measured from outside, by timing
//! calls into a layer's public functions (and by reading what the program
//! already exports about itself — the self-profiler's `profile` lines,
//! the daemon's Prometheus exposition).
//!
//! A traced run executes the whole suite once after its workload, on
//! inputs made by the workloads' own generators from the run's seed: the
//! dataplane packet pool and policy, the churn universe and op sequence,
//! and the fig4 document at *probe size* (same fabric, policy and
//! distributions, 200 flows instead of 2,000 — the observer-cost ratios
//! need five passes and must fit every traced run). The suite is the same
//! whatever workload was traced, so a row compares across runs; time
//! metrics are medians of batches, count metrics are exact for a seed.

use crate::calib::{timed, Bracket};
use crate::catalog::PER_LAYER;
use crate::result::Row;
use crate::spans::Recorder;
use crate::stats::{median_sorted, percentile_sorted, Summary};
use crate::workloads::fig4::{self, Observers, Pass, Shape};
use crate::workloads::{churn, dataplane, set_path};
use qvisor_core::config_api::{DeploymentConfig, SynthOptions, TenantConfig};
use qvisor_core::{
    synthesize, verify, Policy, PreProcessor, SpecPaths, UnknownTenantAction, Verdict,
};
use qvisor_netsim::scenario::{run_sweep, ScenarioError, SweepSpec};
use qvisor_netsim::{Engine, ScenarioSpec};
use qvisor_ranking::{RankCtx, RankFnSpec};
use qvisor_scheduler::{
    AifoQueue, FifoQueue, InstrumentedQueue, PacketQueue, PathStep, PifoQueue, PifoTree,
    SpPifoMapper, StaticRangeMapper, StrictPriorityBank, TreePath, TreeShape,
};
use qvisor_serve::registry::fnv1a;
use qvisor_serve::{ControlPlane, LogEntry, Request, SnapshotCell};
use qvisor_sim::json::Value;
use qvisor_sim::{EventCore, EventQueue, FlowId, Nanos, NodeId, Packet, SimRng, TenantId};
use qvisor_telemetry::Telemetry;
use qvisor_topology::{FatTree, LeafSpine, LeafSpineConfig, Routes};
use qvisor_transport::{FlowDef, ReliableReceiver, ReliableSender, SendReq};
use qvisor_workloads::{EmpiricalCdf, PoissonFlowGen};
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The per-layer rows under construction.
struct Layers {
    values: BTreeMap<&'static str, f64>,
    /// What the probes have to say beside the numbers, one line each.
    notes: Vec<String>,
    smoke: bool,
}

impl Layers {
    fn put(&mut self, name: &str, value: f64) {
        let metric = PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not in the catalogue"));
        self.values.insert(metric.name, value);
    }

    /// Full size, or the unit tests' size.
    fn size(&self, full: u64, smoke: u64) -> u64 {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// Median nanoseconds per operation over `batches` timed calls of `f`
/// (which returns how many operations it performed), after one untimed
/// call.
fn ns_per_op(batches: u64, mut f: impl FnMut() -> u64) -> f64 {
    f();
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let (ops, secs) = timed(1, &mut f);
            secs * 1e9 / ops.max(1) as f64
        })
        .collect();
    median(&samples)
}

fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).value
}

/// The netsim's delay mix: ~99 % path-latency scale, ~1 % RTO scale.
fn event_delay(rng: &mut SimRng) -> u64 {
    if rng.below(100) == 0 {
        500_000 + rng.below(8_000_000)
    } else {
        1 + rng.below(1_000_000)
    }
}

fn probe_sim(l: &mut Layers, seed: u64, snapshot_256: &str) {
    let pending = l.size(100_000, 2_000);
    let prefill = |rng: &mut SimRng| {
        let mut q: EventQueue<u64> = EventQueue::with_core(EventCore::Wheel);
        for i in 0..pending {
            q.schedule(Nanos(rng.below(1_000_000_000)), i);
        }
        q
    };
    let mut rng = SimRng::seed_from(seed).derive(0x51);
    let mut q = prefill(&mut rng);
    let churn = ns_per_op(7, || {
        let mut acc = 0u64;
        for i in 0..pending {
            let (at, id) = q.pop().expect("queue stays non-empty");
            acc = acc.wrapping_add(at.as_nanos()).wrapping_add(id);
            q.schedule_in(Nanos(event_delay(&mut rng)), i);
        }
        black_box(acc);
        pending
    });
    l.put("sim.event_core.churn_ns_per_op", churn);
    let drains: Vec<f64> = (0..5)
        .map(|_| {
            let mut q = prefill(&mut rng);
            let (acc, secs) = timed(1, || {
                let mut acc = 0u64;
                while let Some((at, id)) = q.pop() {
                    acc = acc.wrapping_add(at.as_nanos()).wrapping_add(id);
                }
                acc
            });
            black_box(acc);
            secs * 1e9 / pending as f64
        })
        .collect();
    l.put("sim.event_core.drain_ns_per_op", median(&drains));

    // JSON codec over the two documents the program parses most: a
    // scenario and a (256-tenant) chain snapshot.
    let docs = [fig4::document(seed, Shape::Full), snapshot_256.to_string()];
    let bytes: u64 = docs.iter().map(|d| d.len() as u64).sum();
    let rounds = l.size(20, 2);
    let parse_ns = ns_per_op(5, || {
        for _ in 0..rounds {
            for d in &docs {
                black_box(Value::parse(d).expect("document parses"));
            }
        }
        bytes * rounds
    });
    l.put("sim.json.parse_mb_per_s", 1_000.0 / parse_ns);
    let values: Vec<Value> = docs.iter().map(|d| Value::parse(d).unwrap()).collect();
    let out_bytes: u64 = values.iter().map(|v| v.to_compact().len() as u64).sum();
    let serialize_ns = ns_per_op(5, || {
        for _ in 0..rounds {
            for v in &values {
                black_box(v.to_compact());
            }
        }
        out_bytes * rounds
    });
    l.put("sim.json.serialize_mb_per_s", 1_000.0 / serialize_ns);
}

fn probe_topology(l: &mut Layers) {
    let rounds = l.size(5, 1);
    let leaf_spine = ns_per_op(5, || {
        for _ in 0..rounds {
            let ls = LeafSpine::build(&LeafSpineConfig::paper());
            black_box(Routes::compute(&ls.topology));
        }
        rounds
    });
    l.put("topology.leaf_spine_144.build_us", leaf_spine / 1_000.0);
    let fat_tree = ns_per_op(5, || {
        for _ in 0..rounds {
            let ft = FatTree::build(8, qvisor_sim::gbps(10), Nanos::from_micros(1));
            black_box(Routes::compute(&ft.topology));
        }
        rounds
    });
    l.put("topology.fat_tree_k8.build_us", fat_tree / 1_000.0);
}

fn probe_workloads_and_ranking(l: &mut Layers, seed: u64) {
    let hosts = LeafSpine::build(&LeafSpineConfig::paper()).all_hosts();
    let sizes = EmpiricalCdf::data_mining().scaled(1, 10);
    let gen = PoissonFlowGen {
        tenant: TenantId(1),
        hosts: &hosts,
        sizes: &sizes,
        rate_flows_per_sec: 10_000.0,
    };
    let flows = l.size(20_000, 500);
    let mut rng = SimRng::seed_from(seed).derive(0x57);
    let gen_ns = ns_per_op(5, || {
        black_box(gen.generate(flows as usize, &mut rng));
        flows
    });
    l.put("workloads.poisson_gen.flows_per_s", 1e9 / gen_ns);

    let ranks = l.size(1_000_000, 10_000);
    let specs = [
        (
            "ranking.pfabric.ns_per_rank",
            RankFnSpec::PFabric {
                unit_bytes: 1_000,
                max_rank: 10_000,
            },
        ),
        (
            "ranking.edf.ns_per_rank",
            RankFnSpec::Edf {
                unit_ns: 60_000,
                max_rank: 10,
            },
        ),
        (
            "ranking.stfq.ns_per_rank",
            RankFnSpec::Stfq { max_rank: 100_000 },
        ),
    ];
    for (name, spec) in specs {
        let mut f = spec.build();
        let ns = ns_per_op(5, || {
            let mut acc = 0u64;
            for i in 0..ranks {
                let now = Nanos(i * 100);
                let ctx = RankCtx {
                    now,
                    flow: FlowId(i % 512),
                    flow_size: 1_000_000,
                    bytes_sent: (i * 1_460) % 1_000_000,
                    pkt_size: 1_500,
                    deadline: Some(now + Nanos(300_000)),
                    weight: 1,
                };
                acc = acc.wrapping_add(f.rank(black_box(&ctx)));
            }
            black_box(acc);
            ranks
        });
        l.put(name, ns);
    }
}

/// The fig4 document's two tenants as a deployment.
fn fig4_deployment(seed: u64) -> DeploymentConfig {
    let spec = ScenarioSpec::from_json(&fig4::document(seed, Shape::Full)).expect("fig4 parses");
    let q = spec.qvisor.expect("fig4 deploys QVISOR");
    DeploymentConfig {
        tenants: q
            .tenants
            .iter()
            .map(|t| TenantConfig {
                id: t.id,
                name: t.name.clone(),
                algorithm: t.algorithm.clone(),
                rank_min: t.rank_min,
                rank_max: t.rank_max,
                levels: t.levels,
            })
            .collect(),
        policy: q.policy,
        synth: SynthOptions::default(),
    }
}

/// Process `pool` through `pre` in place, `rounds` times over.
fn preproc_ns(pre: &mut PreProcessor, pool: &[Packet], rounds: u64) -> f64 {
    let mut scratch = pool.to_vec();
    ns_per_op(5, || {
        for _ in 0..rounds {
            for p in scratch.iter_mut() {
                black_box(pre.process(p));
            }
        }
        rounds * scratch.len() as u64
    })
}

/// Returns the dataplane pool with transformed ranks, for the scheduler
/// probes, and the largest transformed rank.
fn probe_core(l: &mut Layers, seed: u64) -> (Vec<Packet>, u64) {
    let (dp_config, mut dp_pre, _) = dataplane::set_up(dataplane::DOCUMENT);
    let universe = DeploymentConfig::from_json(&churn::universe_document(128))
        .expect("universe document parses");
    let fig4_config = fig4_deployment(seed);

    let rounds = l.size(200, 5);
    let parse = ns_per_op(5, || {
        for _ in 0..rounds {
            black_box(Policy::parse(&dp_config.policy).expect("policy parses"));
        }
        rounds
    });
    l.put("core.policy_parse.us_t16", parse / 1_000.0);

    let mut mean_ops = 0.0;
    for (suffix, config, rounds) in [
        ("t2", &fig4_config, l.size(500, 5)),
        ("t16", &dp_config, l.size(100, 3)),
        ("t128", &universe, l.size(10, 1)),
    ] {
        let (specs, policy, synth) = config.build().expect("deployment lowers");
        let synth_ns = ns_per_op(5, || {
            for _ in 0..rounds {
                black_box(synthesize(&specs, &policy, synth).expect("synthesizes"));
            }
            rounds
        });
        l.put(&format!("core.synthesize.us_{suffix}"), synth_ns / 1_000.0);
        let joint = synthesize(&specs, &policy, synth).expect("synthesizes");
        let verify_ns = ns_per_op(5, || {
            for _ in 0..rounds {
                black_box(verify(&joint, &SpecPaths::config()));
            }
            rounds
        });
        l.put(&format!("core.verify.us_{suffix}"), verify_ns / 1_000.0);
        if suffix == "t16" {
            let chains: Vec<usize> = joint.chains().map(|(_, c)| c.ops().len()).collect();
            mean_ops = chains.iter().sum::<usize>() as f64 / chains.len() as f64;
        }
    }
    l.put("core.chain.mean_ops", mean_ops);

    let pool = dataplane::pool(seed, &dp_config);
    let rounds = l.size(64, 2);
    l.put(
        "core.preproc.ns_per_pkt_t16",
        preproc_ns(&mut dp_pre, &pool, rounds),
    );
    let processed: u64 = dp_config
        .tenants
        .iter()
        .map(|t| dp_pre.tenant_stats(TenantId(t.id)).processed)
        .sum();
    l.put(
        "core.preproc.unknown_share",
        dp_pre.unknown_seen as f64 / (processed + dp_pre.unknown_seen) as f64,
    );

    // The fig4 policy over a stream of its own two tenants.
    let joint2 = fig4_config.synthesize().expect("fig4 policy synthesizes");
    let mut pre2 = PreProcessor::new(&joint2, UnknownTenantAction::BestEffort);
    let mut rng = SimRng::seed_from(seed).derive(0xC0);
    let pool2: Vec<Packet> = (0..pool.len() as u64)
        .map(|i| {
            let t = &fig4_config.tenants[rng.below(2) as usize];
            Packet::data(
                FlowId(i),
                TenantId(t.id),
                i,
                dataplane::PKT_BYTES,
                NodeId(0),
                NodeId(1),
                t.rank_min + rng.below(t.rank_max - t.rank_min + 1),
                Nanos::ZERO,
            )
        })
        .collect();
    l.put(
        "core.preproc.ns_per_pkt_t2",
        preproc_ns(&mut pre2, &pool2, rounds),
    );

    let mut transformed = pool;
    for p in transformed.iter_mut() {
        dp_pre.process(p);
    }
    let worst = transformed.iter().map(|p| p.txf_rank).max().unwrap_or(0);
    (transformed, worst)
}

fn tree4() -> PifoTree<impl FnMut(&Packet) -> TreePath> {
    let shape = TreeShape::Internal(vec![TreeShape::Leaf; 4]);
    let mut virtual_time = [0u64; 4];
    PifoTree::new(
        &shape,
        move |p: &Packet| {
            let class = (p.flow.0 % 4) as usize;
            virtual_time[class] += 1;
            TreePath {
                steps: vec![PathStep {
                    child: class,
                    rank: virtual_time[class],
                }],
                leaf_rank: p.txf_rank,
            }
        },
        dataplane::buffer(),
    )
}

/// One backend on the pre-transformed dataplane stream: ns per offered
/// packet (generator loop subtracted) and the share dropped.
fn backend<Q: PacketQueue>(
    pool: &[Packet],
    offered: u64,
    gen_ns: f64,
    make: &mut dyn FnMut() -> Q,
) -> (f64, f64) {
    let mut off = Recorder::new(false, Instant::now());
    let mut drop_share = 0.0;
    let ns = ns_per_op(5, || {
        let mut queue = make();
        let tally = dataplane::drive(pool, |_| Verdict::Forward, &mut queue, offered, &mut off);
        assert_eq!(tally.leaked(), 0, "{} leaks packets", queue.kind());
        drop_share = tally.dropped as f64 / tally.offered as f64;
        offered
    });
    (ns - gen_ns, drop_share)
}

/// Share of dequeues that were rank inversions, counted by the program's
/// own exact mirror.
fn inversion_share<Q: PacketQueue>(pool: &[Packet], offered: u64, inner: Q) -> f64 {
    let mut off = Recorder::new(false, Instant::now());
    let mut queue = InstrumentedQueue::new(inner, &Telemetry::enabled(), "probe");
    dataplane::drive(pool, |_| Verdict::Forward, &mut queue, offered, &mut off);
    queue.inversion_count() as f64 / queue.dequeued_count().max(1) as f64
}

fn probe_scheduler(l: &mut Layers, pool: &[Packet], worst_rank: u64) {
    let offered = l.size(1 << 18, 1 << 11);
    let cap = dataplane::buffer();
    let gen_ns = ns_per_op(5, || {
        dataplane::empty_loop(pool, offered);
        offered
    });
    l.put("bench.gen.dataplane_loop_ns_per_pkt", gen_ns);

    let sp_pifo = || StrictPriorityBank::new(SpPifoMapper::new(8), cap);
    let strict = || StrictPriorityBank::new(StaticRangeMapper::new(0, worst_rank, 8), cap);
    let aifo = || AifoQueue::new(cap, 64, 0.1);

    let mut timed = |name: &str, result: (f64, f64), drops: bool| {
        l.put(&format!("scheduler.{name}.ns_per_pkt"), result.0);
        if drops {
            l.put(&format!("scheduler.{name}.drop_share"), result.1);
        }
    };
    let fifo = backend(pool, offered, gen_ns, &mut || FifoQueue::new(cap));
    timed("fifo", fifo, false);
    let pifo = backend(pool, offered, gen_ns, &mut || PifoQueue::new(cap));
    timed("pifo", pifo, true);
    timed(
        "sp_pifo8",
        backend(pool, offered, gen_ns, &mut { sp_pifo }),
        true,
    );
    timed(
        "strict8",
        backend(pool, offered, gen_ns, &mut { strict }),
        true,
    );
    timed("aifo", backend(pool, offered, gen_ns, &mut { aifo }), true);
    timed(
        "pifo_tree4",
        backend(pool, offered, gen_ns, &mut tree4),
        false,
    );
    let instrumented = backend(pool, offered, gen_ns, &mut || {
        InstrumentedQueue::new(PifoQueue::new(cap), &Telemetry::enabled(), "probe")
    });
    timed("pifo_instrumented", instrumented, false);

    l.put(
        "scheduler.pifo.inversion_share",
        inversion_share(pool, offered, PifoQueue::new(cap)),
    );
    l.put(
        "scheduler.sp_pifo8.inversion_share",
        inversion_share(pool, offered, sp_pifo()),
    );
    l.put(
        "scheduler.strict8.inversion_share",
        inversion_share(pool, offered, strict()),
    );
    l.put(
        "scheduler.aifo.inversion_share",
        inversion_share(pool, offered, aifo()),
    );
}

/// Sender and receiver of one reliable flow in lock-step. Returns
/// `(data packets delivered, retransmissions, sends)`.
fn lock_step(size: u64, loss_one_in: Option<u64>, rng: &mut SimRng) -> (u64, u64, u64) {
    let def = FlowDef::new(
        FlowId(0),
        TenantId(1),
        NodeId(0),
        NodeId(1),
        size,
        Nanos::ZERO,
    );
    let mut sender = ReliableSender::new(def, 1_460, 12);
    let mut receiver = ReliableReceiver::new();
    let now = Nanos::ZERO;
    let mut wire: VecDeque<SendReq> = sender.on_start(now).into();
    let (mut delivered, mut retransmits, mut sends) = (0u64, 0u64, 0u64);
    while let Some(req) = wire.pop_front() {
        sends += 1;
        if loss_one_in.is_some_and(|n| rng.below(n) == 0) {
            // Lost on the wire: its retransmission timer fires.
            if let Some(again) = sender.on_timeout(req.seq, now) {
                retransmits += 1;
                wire.push_back(again);
            }
            continue;
        }
        receiver.on_data(req.seq, req.payload);
        delivered += 1;
        wire.extend(sender.on_ack(req.seq, now).sends);
    }
    assert!(sender.is_complete() && receiver.received_bytes() == size);
    (delivered, retransmits, sends)
}

fn probe_transport(l: &mut Layers, seed: u64) {
    let size = l.size(20_000_000, 200_000);
    let mut rng = SimRng::seed_from(seed).derive(0x7A);
    let ns = ns_per_op(5, || lock_step(size, None, &mut rng).0);
    l.put("transport.reliable.ns_per_pkt", ns);
    let (_, retransmits, sends) = lock_step(size, Some(100), &mut rng);
    l.put(
        "transport.reliable.retransmit_share",
        retransmits as f64 / sends as f64,
    );
}

/// `profile` lines of a telemetry export: site → (calls, total
/// nanoseconds).
fn profile_sites(export: &str) -> BTreeMap<String, (u64, f64)> {
    export
        .lines()
        .filter_map(|line| Value::parse(line).ok())
        .filter(|v| v.get("type").and_then(Value::as_str) == Some("profile"))
        .filter_map(|v| {
            Some((
                v.get("name")?.as_str()?.to_string(),
                (v.get("count")?.as_u64()?, v.get("total_ns")?.as_f64()?),
            ))
        })
        .collect()
}

/// The program's own account of where one metrics-on `Simulation::run`
/// went, as shares of the run's wall on the benchmark's clock.
///
/// `sched_enqueue` and `sched_dequeue` nest inside `event_dispatch`, the
/// only site that sits directly in the run loop, so `unattributed` is
/// what is left of the wall once `event_dispatch` is taken out (event-queue
/// pops, the loop, the profiler's own clock reads). Dispatch's own work,
/// the two scheduler sites and `unattributed` therefore add to the whole
/// by definition; what can fail, and fails the traced run, is the sites
/// not fitting the run they describe: fewer dispatches than the report
/// counts events (stale retransmission timers are dispatched and not
/// counted, so more is normal), nested sites outgrowing `event_dispatch`,
/// or `event_dispatch` outgrowing the wall.
fn probe_profile(l: &mut Layers, pass: &Pass) -> Result<(), String> {
    let sites = profile_sites(&pass.telemetry_jsonl);
    let (dispatched, _) = sites.get("event_dispatch").copied().unwrap_or_default();
    let run_ns = pass.run_s * 1e9;
    let share = |site: &str| sites.get(site).map_or(0.0, |s| s.1) / run_ns;
    let nested = share("sched_enqueue") + share("sched_dequeue");
    let unattributed = 1.0 - share("event_dispatch");
    if dispatched < pass.events || nested > share("event_dispatch") || unattributed < 0.0 {
        return Err(format!(
            "the self-profiler's sites do not fit the run: {dispatched} dispatches for {} events, \
             event_dispatch {:.4} of the wall, nested sites {nested:.4}",
            pass.events,
            share("event_dispatch")
        ));
    }
    for site in [
        "event_dispatch",
        "sched_enqueue",
        "sched_dequeue",
        "synthesize",
    ] {
        l.put(&format!("profile.{site}.share"), share(site));
    }
    l.put("profile.unattributed.share", unattributed);
    l.notes.push(format!(
        "inside netsim.run by the program's own profiler (probe-size run, metrics on): \
         event_dispatch's own {:.1} % + sched_enqueue {:.1} % + sched_dequeue {:.1} % + \
         unattributed {:.1} % (the rest of the wall, by definition); {dispatched} dispatches \
         cover {} counted events, nested sites inside event_dispatch, event_dispatch inside the \
         wall: ok",
        (share("event_dispatch") - nested) * 100.0,
        share("sched_enqueue") * 100.0,
        share("sched_dequeue") * 100.0,
        unattributed * 100.0,
        pass.events
    ));
    Ok(())
}

/// A fat-tree document for the sharded engine, as JSON text: a tree
/// without `sim.shards` must report the rows absent, not fail to build.
fn sharded_document(seed: u64, shards: u64) -> String {
    let base = Value::parse(&fig4::document(seed, Shape::Smoke)).expect("fig4 document is JSON");
    let mut doc = Value::object();
    for (key, value) in base.as_object().expect("document is an object") {
        // The sharded engine refuses streaming alert rules.
        if key != "alerts" {
            doc = doc.set(key, value.clone());
        }
    }
    // The sharded engine runs up to a hundred times slower than the
    // oracle it shadows (99x on a k=8 tree on the recording host), so it
    // gets the small traffic matrix on a k=4 tree.
    let fat_tree = Value::object().set(
        "fat_tree",
        Value::object()
            .set("arity", 4u64)
            .set("rate_bps", 1_000_000_000u64)
            .set("delay_ns", 1_000u64),
    );
    set_path(&mut doc, &["topology"], fat_tree);
    // Its cost follows simulated time (one coordinator round trip per
    // lookahead window), so the horizon closes 20 ms after the last
    // arrival instead of 2 s.
    let sim = doc.get("sim").expect("document has sim").clone();
    let horizon = Value::object().set("after_last_arrival_ns", 20_000_000u64);
    set_path(
        &mut doc,
        &["sim"],
        sim.set("shards", shards).set("horizon", horizon),
    );
    doc.to_compact()
}

fn probe_netsim_and_telemetry(l: &mut Layers, seed: u64) -> Result<(), String> {
    let shape = if l.smoke { Shape::Smoke } else { Shape::Probe };
    let doc = fig4::document(seed, shape);
    let mut off = Recorder::new(false, Instant::now());
    // Each pass with the host's speed across it; `field` takes the median
    // of one of its phases at reference speed.
    let mut passes = |observers: Observers, n: usize| -> Vec<(Pass, f64)> {
        (0..n)
            .map(|_| {
                let bracket = Bracket::open(1);
                let pass = fig4::pass(&doc, observers, &mut off);
                (pass, bracket.close())
            })
            .collect()
    };
    let field = |passes: &[(Pass, f64)], f: &dyn Fn(&Pass) -> f64| {
        median(
            &passes
                .iter()
                .map(|(p, speed)| f(p) * speed)
                .collect::<Vec<_>>(),
        )
    };

    passes(Observers::default(), 1);
    let base = passes(Observers::default(), 3);
    let anchor = &base[0].0;
    l.put("netsim.codec.parse_us", field(&base, &|p| p.parse_s) * 1e6);
    l.put("netsim.check.us", field(&base, &|p| p.check_s) * 1e6);
    l.put("netsim.build.ms", field(&base, &|p| p.build_s) * 1e3);
    l.put("netsim.report_json.us", field(&base, &|p| p.report_s) * 1e6);
    let base_run_s = field(&base, &|p| p.run_s);
    l.put(
        "netsim.run.ns_per_event",
        base_run_s * 1e9 / anchor.events as f64,
    );
    l.put("netsim.run.events", anchor.events as f64);
    l.put("netsim.run.delivered_pkts", anchor.delivered_pkts as f64);
    l.put(
        "netsim.run.events_per_pkt",
        anchor.events as f64 / anchor.delivered_pkts.max(1) as f64,
    );
    l.put("netsim.run.small_fct_us", anchor.fct_us[0]);
    l.put("netsim.run.large_fct_us", anchor.fct_us[1]);
    let spec = ScenarioSpec::from_json(&doc).expect("probe document parses");
    let rounds = l.size(20, 2);
    let serialize = ns_per_op(5, || {
        for _ in 0..rounds {
            black_box(spec.to_json());
        }
        rounds
    });
    l.put("netsim.codec.serialize_us", serialize / 1_000.0);

    // Observer cost: the same document with each observer alone, then all
    // three, as a ratio of the unobserved run.
    let repeats = 2;
    let configs = [
        (
            "telemetry.metrics_only.wall_ratio",
            Observers {
                metrics: true,
                ..Observers::default()
            },
        ),
        (
            "telemetry.trace_only.wall_ratio",
            Observers {
                trace: true,
                ..Observers::default()
            },
        ),
        (
            "telemetry.monitor_only.wall_ratio",
            Observers {
                monitor: true,
                ..Observers::default()
            },
        ),
        ("telemetry.all.wall_ratio", Observers::ALL),
    ];
    for (name, observers) in configs {
        let observed = passes(observers, repeats);
        if observed
            .iter()
            .any(|(p, _)| p.fingerprint != anchor.fingerprint)
        {
            return Err(format!("{name}: observers changed the report"));
        }
        l.put(name, field(&observed, &|p| p.measured_s) / base_run_s);
        if observers == Observers::ALL {
            l.put(
                "telemetry.export_jsonl.ms",
                field(&observed, &|p| p.export_s[0]) * 1e3,
            );
            l.put(
                "telemetry.trace_snapshot.ms",
                field(&observed, &|p| p.export_s[1]) * 1e3,
            );
            l.put(
                "telemetry.monitor_export.ms",
                field(&observed, &|p| p.export_s[2]) * 1e3,
            );
            let (kept, evicted) = observed[0].0.trace_records;
            l.put(
                "telemetry.trace.evicted_share",
                evicted as f64 / (kept + evicted).max(1) as f64,
            );
        }
        if name == "telemetry.metrics_only.wall_ratio" {
            probe_profile(l, &observed[0].0)?;
        }
    }

    // Sweep fan-out: a 7-point load grid of the small fabric.
    let jobs = crate::host::nproc().min(2);
    let mut sweep_base = Value::parse(&fig4::document(seed, Shape::Smoke)).expect("JSON");
    set_path(
        &mut sweep_base,
        &["workloads", "0", "poisson", "flows"],
        Value::from(l.size(100, 20)),
    );
    let loads: Vec<Value> = (2..=8).map(|i| Value::from(i as f64 / 10.0)).collect();
    let axis = Value::object()
        .set("path", "workloads.0.poisson.arrival.load")
        .set("values", Value::from(loads));
    let sweep = SweepSpec::from_value(
        &Value::object()
            .set("base", sweep_base)
            .set("axes", Value::from(vec![axis])),
    )
    .map_err(|e| format!("sweep document: {e}"))?;
    let sweep_wall = |jobs: usize| -> Result<f64, String> {
        let mut walls = Vec::new();
        for _ in 0..2 {
            let (points, secs) = timed(jobs, || run_sweep(&sweep, jobs, false, false));
            assert_eq!(points.map_err(|e| e.to_string())?.len(), 7);
            walls.push(secs);
        }
        Ok(median(&walls))
    };
    let jobs1 = sweep_wall(1)?;
    l.put("netsim.sweep.jobs1_wall_s", jobs1);
    l.put("netsim.sweep.jobs2_speedup", jobs1 / sweep_wall(jobs)?);

    // The sharded engine against the sequential oracle, from JSON text.
    let (ratio, spread) = match ScenarioSpec::from_json(&sharded_document(seed, 2)) {
        // A codec that does not know the field means a tree without the
        // sharded engine: the rows are placeholders, and say so.
        Err(ScenarioError::Field { path, msg })
            if path == "sim.shards" && msg.starts_with("unknown field") =>
        {
            l.notes.push(
                "netsim.sharded.*: absent - this tree has no `sim.shards`; the two 0 rows are placeholders"
                    .to_string(),
            );
            (0.0, 0.0)
        }
        Err(e) => return Err(format!("sharded document: {e}")),
        Ok(sharded) => {
            let sequential =
                ScenarioSpec::from_json(&sharded_document(seed, 1)).expect("same document");
            let run = |spec: &ScenarioSpec, threads: usize| -> Result<(f64, u64), String> {
                let (report, wall) = timed(threads, || Engine::new().run(spec));
                let report = report.map_err(|e| e.to_string())?;
                let compact = qvisor_netsim::scenario::report_json(&report).to_compact();
                Ok((wall, fnv1a(compact.as_bytes())))
            };
            let (seq_wall, oracle) = run(&sequential, 1)?;
            let mut walls = Vec::new();
            for _ in 0..3 {
                let (wall, fingerprint) = run(&sharded, 2)?;
                if fingerprint != oracle {
                    return Err("sharded report differs from the sequential oracle".to_string());
                }
                walls.push(wall);
            }
            walls.sort_by(f64::total_cmp);
            let mid = median_sorted(&walls);
            (mid / seq_wall, (walls[2] - walls[0]) / mid)
        }
    };
    l.put("netsim.sharded.s2_wall_ratio", ratio);
    l.put("netsim.sharded.s2_spread", spread);
    Ok(())
}

fn apply(plane: &mut ControlPlane, request: &Request) -> Value {
    match request {
        Request::SubmitPolicy(t) => plane.submit(t.clone()),
        Request::WithdrawTenant(name) => plane.withdraw(name),
        other => panic!("the churn sequence has no {other:?}"),
    }
}

/// Returns the canonical snapshot of the fully live 256-tenant universe
/// (the JSON probe's second document).
fn probe_serve(l: &mut Layers, seed: u64) -> Result<String, String> {
    let (universe, window) = churn::dimensions(l.smoke);
    let config = DeploymentConfig::from_json(&churn::universe_document(universe))
        .map_err(|e| e.to_string())?;

    // The same op sequence as the workload, without the socket.
    let mut plane = ControlPlane::new(&config, false, Arc::new(SnapshotCell::default()))?;
    let mut sequence = churn::OpSequence::new(seed, &config, window);
    for op in sequence.warm_up() {
        apply(&mut plane, &op.request);
    }
    let mut by_kind: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut all = Vec::new();
    let mut submit_line = String::new();
    for op in sequence.by_ref().take(l.size(600, 40) as usize) {
        let t0 = Instant::now();
        let response = apply(&mut plane, &op.request);
        let us = t0.elapsed().as_nanos() as f64 / 1_000.0;
        let ok = response.get("ok").and_then(Value::as_bool) == Some(true);
        if ok != op.kind.accepted() {
            return Err(format!(
                "in-process {:?}: {}",
                op.kind,
                response.to_compact()
            ));
        }
        let name = match op.kind {
            churn::OpKind::Submit | churn::OpKind::Resubmit => "serve.control.submit_us",
            churn::OpKind::Withdraw => "serve.control.withdraw_us",
            churn::OpKind::Reject => "serve.control.reject_us",
        };
        by_kind.entry(name).or_default().push(us);
        all.push(us);
        if op.kind == churn::OpKind::Submit {
            submit_line = op.line;
        }
    }
    for (name, samples) in &by_kind {
        l.put(name, median(samples));
    }
    let in_process_ms = median(&all) / 1_000.0;

    let rounds = l.size(2_000, 20);
    let parse = ns_per_op(5, || {
        for _ in 0..rounds {
            black_box(Request::parse(submit_line.trim()).expect("submit line parses"));
        }
        rounds
    });
    l.put("serve.protocol.parse_us", parse / 1_000.0);

    // What a `snapshot` read costs the session thread.
    let snapshot = plane.snapshot();
    let rounds = l.size(200, 5);
    let encode = ns_per_op(5, || {
        for _ in 0..rounds {
            let response = Value::object()
                .set("ok", true)
                .set("result", "snapshot")
                .set("snapshot", snapshot.to_value());
            black_box(response.to_compact());
        }
        rounds
    });
    l.put("serve.snapshot.encode_us", encode / 1_000.0);

    let entries: Vec<LogEntry> = plane
        .log_value()
        .get("entries")
        .and_then(Value::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|e| LogEntry::from_value(e).ok())
        .collect();
    let replay = ns_per_op(3, || {
        let replayed = ControlPlane::replay(&config, false, &entries).expect("log replays");
        assert_eq!(replayed.snapshot().canonical, snapshot.canonical);
        entries.len() as u64
    });
    l.put("serve.replay.us_per_entry", replay / 1_000.0);

    // The same loop over the socket, briefly.
    let box_s = if l.smoke { 0.4 } else { 3.0 };
    let s = churn::session(seed, l.smoke, box_s, false)?;
    if !s.consistent || s.w.iter().chain(&s.r).any(|x| !x.ok) {
        return Err(format!("probe churn session failed: {:?}", s.notes));
    }
    let sorted_ms = |samples: &[churn::Sample]| {
        let mut ms: Vec<f64> = samples.iter().map(|x| x.latency_s * 1_000.0).collect();
        ms.sort_by(f64::total_cmp);
        ms
    };
    let (admit, read) = (sorted_ms(&s.w), sorted_ms(&s.r));
    if admit.is_empty() || read.is_empty() {
        return Err("probe churn session completed no request".to_string());
    }
    l.put(
        "serve.tcp.session_overhead_ms",
        median_sorted(&admit) - in_process_ms,
    );
    l.put("serve.commit_hist_p50_us", s.commit_hist_p50_us);
    l.put("serve.admit_p95_ms", percentile_sorted(&admit, 95.0));
    l.put("serve.admit_p99_ms", percentile_sorted(&admit, 99.0));
    l.put("serve.read_p50_ms", median_sorted(&read));
    l.put("serve.read_p99_ms", percentile_sorted(&read, 99.0));
    l.put("serve.tail_samples", admit.len() as f64);
    l.put("serve.ops_attempted", (admit.len() + read.len()) as f64);
    let rejected =
        s.w.iter()
            .filter(|x| x.kind == Some(churn::OpKind::Reject))
            .count();
    l.put("serve.rejected_share", rejected as f64 / admit.len() as f64);
    l.put("bench.gen.client_busy_share", s.client_busy_share);

    // Every tenant live: the snapshot document for the JSON probe.
    let mut full = ControlPlane::new(&config, false, Arc::new(SnapshotCell::default()))?;
    for t in &config.tenants {
        full.submit(t.clone());
    }
    Ok(full.snapshot().canonical.clone())
}

fn probe_fuzz(l: &mut Layers, seed: u64) {
    let cases = l.size(500, 10);
    let gen = ns_per_op(5, || {
        for i in 0..cases {
            black_box(qvisor_fuzz::generate_case(seed, i));
        }
        cases
    });
    l.put("fuzz.gen.us_per_case", gen / 1_000.0);
    let cases = l.size(200, 6);
    let generated: Vec<_> = (0..cases)
        .map(|i| qvisor_fuzz::generate_case(seed, i))
        .collect();
    let oracle = ns_per_op(3, || {
        for case in &generated {
            black_box(qvisor_fuzz::run_case(case));
        }
        cases
    });
    l.put("fuzz.oracle.us_per_case", oracle / 1_000.0);

    let opts = qvisor_fuzz::CampaignOpts {
        seed,
        cases: l.size(600, 12),
        jobs: 1,
    };
    let wall = |jobs: usize| {
        let walls: Vec<f64> = (0..3)
            .map(|_| {
                timed(jobs, || {
                    black_box(qvisor_fuzz::run_campaign(&qvisor_fuzz::CampaignOpts {
                        jobs,
                        ..opts
                    }))
                })
                .1
            })
            .collect();
        median(&walls)
    };
    l.put(
        "fuzz.campaign.jobs2_speedup",
        wall(1) / wall(crate::host::nproc().min(2)),
    );
    let report = qvisor_fuzz::run_campaign(&opts);
    let witnesses: usize = report.outcomes.iter().map(|o| o.witnesses_checked).sum();
    l.put("fuzz.witness_share", witnesses as f64 / opts.cases as f64);
    l.put(
        "fuzz.scenario_runs",
        report.outcomes.iter().filter(|o| o.scenario_ran).count() as f64,
    );
}

/// Run every probe: the per-layer rows in catalogue order, and the
/// probes' notes. `trace_overhead_share` is the one per-layer figure that
/// belongs to the traced workload and is measured by it.
pub fn run_all(
    seed: u64,
    smoke: bool,
    trace_overhead_share: f64,
) -> Result<(Vec<Row>, Vec<String>), String> {
    let mut l = Layers {
        values: BTreeMap::new(),
        notes: Vec::new(),
        smoke,
    };
    let mut started = Instant::now();
    let mut lap = |group: &str| {
        eprintln!(
            "qbench: probed {group} in {:.1} s",
            started.elapsed().as_secs_f64()
        );
        started = Instant::now();
    };
    let snapshot_256 = probe_serve(&mut l, seed)?;
    lap("serve");
    probe_sim(&mut l, seed, &snapshot_256);
    probe_topology(&mut l);
    probe_workloads_and_ranking(&mut l, seed);
    lap("sim, topology, workloads, ranking");
    let (pool, worst_rank) = probe_core(&mut l, seed);
    probe_scheduler(&mut l, &pool, worst_rank);
    probe_transport(&mut l, seed);
    lap("core, scheduler, transport");
    probe_netsim_and_telemetry(&mut l, seed)?;
    lap("netsim, telemetry");
    probe_fuzz(&mut l, seed);
    lap("fuzz");
    l.put("bench.trace_overhead_share", trace_overhead_share);

    let rows = PER_LAYER
        .iter()
        .map(|m| {
            let value = l
                .values
                .get(m.name)
                .ok_or(format!("no probe measured {}", m.name))?;
            Ok(Row::new(m.name, m.unit, Summary::single(*value)))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok((rows, l.notes))
}
