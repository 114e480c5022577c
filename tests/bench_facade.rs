//! `qvisor::bench` re-exports every `qvisor_*` item `benchmark/src` names.
//! Each is named here through the facade, so a change that drops one, or
//! points it at another item, fails this file before the benchmark's
//! own build would.

use qvisor::bench::{
    fnv1a, gbps, generate_case, report_json, run_campaign, run_case, run_sweep, synthesize, verify,
    AifoQueue, CampaignOpts, Capacity, ChainSnapshot, ControlPlane, Daemon, DeploymentConfig,
    EmpiricalCdf, Engine, Enqueue, EventCore, EventQueue, FatTree, FifoQueue, FlowDef, FlowId,
    InstrumentedQueue, LeafSpine, LeafSpineConfig, LogEntry, Nanos, NodeId, Packet, PacketQueue,
    PathStep, PifoQueue, PifoTree, PoissonFlowGen, Policy, PreProcessor, RankCtx, RankFnSpec,
    ReliableReceiver, ReliableSender, Request, Routes, ScenarioError, ScenarioSpec, SendReq,
    ServeOptions, SimRng, SizeBucket, SloMonitor, SnapshotCell, SpPifoMapper, SpecPaths,
    StaticRangeMapper, StrictPriorityBank, SweepSpec, SynthOptions, Telemetry, TenantConfig,
    TenantId, TraceConfig, Tracer, TreePath, TreeShape, UnknownTenantAction, Value, Verdict,
};
use std::any::type_name;

/// The crate a re-exported type (or trait, as `dyn`) is defined in.
fn home<T: ?Sized>() -> &'static str {
    let name = type_name::<T>();
    name.strip_prefix("dyn ")
        .unwrap_or(name)
        .split("::")
        .next()
        .unwrap()
}

#[test]
fn every_type_the_benchmark_names_is_the_crates_own() {
    let homes = [
        ("qvisor_core", home::<DeploymentConfig>()),
        ("qvisor_core", home::<SynthOptions>()),
        ("qvisor_core", home::<TenantConfig>()),
        ("qvisor_core", home::<Policy>()),
        ("qvisor_core", home::<PreProcessor>()),
        ("qvisor_core", home::<SpecPaths>()),
        ("qvisor_core", home::<UnknownTenantAction>()),
        ("qvisor_core", home::<Verdict>()),
        ("qvisor_fuzz", home::<CampaignOpts>()),
        ("qvisor_netsim", home::<ScenarioError>()),
        ("qvisor_netsim", home::<SweepSpec>()),
        ("qvisor_netsim", home::<Engine>()),
        ("qvisor_netsim", home::<ScenarioSpec>()),
        ("qvisor_ranking", home::<RankCtx>()),
        ("qvisor_ranking", home::<RankFnSpec>()),
        ("qvisor_scheduler", home::<AifoQueue>()),
        ("qvisor_scheduler", home::<Capacity>()),
        ("qvisor_scheduler", home::<Enqueue>()),
        ("qvisor_scheduler", home::<FifoQueue>()),
        ("qvisor_scheduler", home::<InstrumentedQueue<FifoQueue>>()),
        ("qvisor_scheduler", home::<dyn PacketQueue>()),
        ("qvisor_scheduler", home::<PathStep>()),
        ("qvisor_scheduler", home::<PifoQueue>()),
        (
            "qvisor_scheduler",
            home::<PifoTree<fn(&Packet) -> TreePath>>(),
        ),
        ("qvisor_scheduler", home::<SpPifoMapper>()),
        ("qvisor_scheduler", home::<StaticRangeMapper>()),
        (
            "qvisor_scheduler",
            home::<StrictPriorityBank<SpPifoMapper>>(),
        ),
        ("qvisor_scheduler", home::<TreePath>()),
        ("qvisor_scheduler", home::<TreeShape>()),
        ("qvisor_serve", home::<ChainSnapshot>()),
        ("qvisor_serve", home::<ControlPlane>()),
        ("qvisor_serve", home::<Daemon>()),
        ("qvisor_serve", home::<LogEntry>()),
        ("qvisor_serve", home::<Request>()),
        ("qvisor_serve", home::<ServeOptions>()),
        ("qvisor_serve", home::<SnapshotCell>()),
        ("qvisor_sim", home::<Value>()),
        ("qvisor_sim", home::<EventCore>()),
        ("qvisor_sim", home::<EventQueue<u32, u64>>()),
        ("qvisor_sim", home::<FlowId>()),
        ("qvisor_sim", home::<Nanos>()),
        ("qvisor_sim", home::<NodeId>()),
        ("qvisor_sim", home::<Packet>()),
        ("qvisor_sim", home::<SimRng>()),
        ("qvisor_sim", home::<TenantId>()),
        ("qvisor_telemetry", home::<SloMonitor>()),
        ("qvisor_telemetry", home::<Telemetry>()),
        ("qvisor_telemetry", home::<TraceConfig>()),
        ("qvisor_telemetry", home::<Tracer>()),
        ("qvisor_topology", home::<FatTree>()),
        ("qvisor_topology", home::<LeafSpine>()),
        ("qvisor_topology", home::<LeafSpineConfig>()),
        ("qvisor_topology", home::<Routes>()),
        ("qvisor_transport", home::<FlowDef>()),
        ("qvisor_transport", home::<ReliableReceiver>()),
        ("qvisor_transport", home::<ReliableSender>()),
        ("qvisor_transport", home::<SendReq>()),
        ("qvisor_transport", home::<SizeBucket>()),
        ("qvisor_workloads", home::<EmpiricalCdf>()),
        ("qvisor_workloads", home::<PoissonFlowGen>()),
    ];
    for (crate_name, found) in homes {
        assert_eq!(found, crate_name);
    }
}

#[test]
fn every_function_the_benchmark_names_is_reachable() {
    // Named by value: a dropped or renamed function fails to compile.
    let _ = (
        fnv1a as fn(&[u8]) -> u64,
        gbps,
        generate_case,
        report_json,
        run_campaign,
        run_case,
        run_sweep,
        synthesize,
        verify,
    );
    assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(gbps(10), 10_000_000_000);
}
