//! Event-core microbenchmark: calendar queue (`EventCore::Wheel`) vs
//! binary heap.
//!
//! Two **synthetic** patterns bound the core from outside what a run does
//! (10^4–10^7 pending, uniform delays up to 1 ms with a 1 % tail to
//! 8.5 ms — a guess that predates any measurement, kept as the stress
//! shape):
//!
//! * `drain` — schedule N events over one second, pop them all;
//! * `churn` — hold N pending events while repeatedly popping one and
//!   scheduling a replacement.
//!
//! One **measured** pattern replays the mix `fig4_fabric` was recorded
//! scheduling (8.26 M operations — 4.13 M schedules and as many pops —
//! 780 pending on average, 2.3 k at most), re-recorded when a flow started
//! keeping one retransmission timer instead of one per data packet:
//!
//! * `fabric` — ~180 packets in flight; popping an arrival schedules the
//!   next arrival one serialization time (128 / 512 / 3 k / 12 k ns) plus
//!   1 µs later; 47 % of transmissions have a packet waiting behind them
//!   and schedule the port's `PortFree` at the serialization time (an
//!   idle port schedules none); one arrival in 71 arms a flow's
//!   retransmission timer — 0.9 % of the events, nine in ten of which pop
//!   live, where a timer per data packet made 6.9 % of them timers that
//!   popped stale and most of a 2.6 k pending set. The timer is 100 µs
//!   ahead, not 500: the replay's packets never wait in a port queue, so
//!   its clock runs ≈ 3× fast, and a flow re-arms for its *earliest*
//!   unacked deadline (≈ 250 µs ahead on average) — either way the ≈ 50
//!   flows in flight hold ≈ 50 timers. What is pending is mostly what is
//!   not due for milliseconds: ~470 flow starts and CBR emissions standing
//!   in the far tiers behind ~300 near events. Keys and payloads have the
//!   netsim's sizes (a 72-byte entry).
//!
//! Both cores are cross-checked for identical pop checksums on every
//! pattern before anything is timed, so the bench doubles as a coarse
//! differential test.
//!
//! Usage: `cargo bench -p qvisor-bench --bench event_core [-- --smoke|--full]`
//! (`--smoke`/`--test` = 10^4 only, for CI bit-rot protection; `--full`
//! adds the 10^7 point to the default 10^4–10^6 sweep).

use qvisor_bench::harness::{bench_batched, print_header};
use qvisor_sim::{EventCore, EventQueue, Nanos, SimRng};

/// Next event delay: ~99% short path-latency scale, ~1% RTO-scale.
fn delay(rng: &mut SimRng) -> u64 {
    if rng.below(100) == 0 {
        500_000 + rng.below(8_000_000) // 0.5–8.5 ms timer tail
    } else {
        1 + rng.below(1_000_000) // up to 1 ms wire/propagation events
    }
}

fn prefill(core: EventCore, pending: usize, seed: u64) -> (EventQueue<u64>, SimRng) {
    let mut q = EventQueue::with_core(core);
    let mut rng = SimRng::seed_from(seed);
    for i in 0..pending as u64 {
        q.schedule(Nanos(rng.below(1_000_000_000)), i);
    }
    (q, rng)
}

/// Pop+reschedule `ops` times, keeping the pending count constant.
fn churn((mut q, mut rng): (EventQueue<u64>, SimRng), ops: usize) -> u64 {
    let mut acc = 0u64;
    for i in 0..ops as u64 {
        let (at, id) = q.pop().expect("queue stays non-empty");
        acc = acc.wrapping_add(at.as_nanos()).wrapping_add(id);
        q.schedule_in(Nanos(delay(&mut rng)), i);
    }
    acc
}

/// Pop everything.
fn drain((mut q, _): (EventQueue<u64>, SimRng)) -> u64 {
    let mut acc = 0u64;
    while let Some((at, id)) = q.pop() {
        acc = acc.wrapping_add(at.as_nanos()).wrapping_add(id);
    }
    acc
}

/// The netsim's event queue in size: a 24-byte content key and a 32-byte
/// payload. Key fields are `(class, node, a, b)` as in `EventKey`.
type FabricQueue = EventQueue<[u64; 4], (u8, u32, u64, u64)>;

const FLOW_EVENT: u8 = 1;
const PORT_FREE: u8 = 3;
const ARRIVE: u8 = 4;
const TIMEOUT: u8 = 2;

/// Pop one event of the measured mix and schedule what it causes.
fn fabric_step(q: &mut FabricQueue, rng: &mut SimRng) -> u64 {
    let (now, (class, ..), payload) = q.pop_keyed().expect("packets stay in flight");
    if class == ARRIVE {
        let tx = [128, 512, 3_000, 12_000][rng.below(4) as usize];
        let (port, id) = (rng.below(600) as u32, rng.next());
        if rng.below(100) < 47 {
            q.schedule_keyed(now + Nanos(tx), (PORT_FREE, port, 0, 0), [id; 4]);
        }
        let arrive = (ARRIVE, port, now.as_nanos(), id);
        q.schedule_keyed(now + Nanos(tx + 1_000), arrive, [id; 4]);
        if rng.below(71) == 0 {
            q.schedule_keyed(now + Nanos(100_000), (TIMEOUT, port, id, 0), [id; 4]);
        }
    }
    now.as_nanos().wrapping_add(payload[0])
}

/// A queue in the measured mix's steady state: the traffic not yet due
/// (flow starts and CBR emissions spread over the next 200 ms), the
/// packets in flight, then 600 µs of simulated time so the timer
/// population has saturated.
fn fabric_prefill(core: EventCore, seed: u64) -> (FabricQueue, SimRng) {
    let mut q = FabricQueue::with_core(core);
    let mut rng = SimRng::seed_from(seed);
    for i in 0..470 {
        let at = Nanos(1_000_000 + rng.below(200_000_000));
        q.schedule_keyed(at, (FLOW_EVENT, i, i as u64, 0), [i as u64; 4]);
    }
    for i in 0..180 {
        let at = Nanos(rng.below(5_000));
        q.schedule_keyed(at, (ARRIVE, i, 0, i as u64), [i as u64; 4]);
    }
    while q.now() < Nanos(600_000) {
        fabric_step(&mut q, &mut rng);
    }
    (q, rng)
}

fn fabric((mut q, mut rng): (FabricQueue, SimRng), ops: usize) -> u64 {
    (0..ops).fold(0u64, |acc, _| {
        acc.wrapping_add(fabric_step(&mut q, &mut rng))
    })
}

fn label(op: &str, core: EventCore, pending: usize) -> String {
    let core = match core {
        EventCore::Wheel => "wheel",
        EventCore::Heap => "heap",
    };
    format!("{op}_{core}_{pending}_pending")
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke" || a == "--test");
    let full = args.iter().any(|a| a == "--full");
    let sizes: &[usize] = if smoke {
        &[10_000]
    } else if full {
        &[10_000, 100_000, 1_000_000, 10_000_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    let churn_ops = if smoke { 10_000 } else { 100_000 };

    // Differential sanity before timing: identical traces, identical pops.
    for &n in sizes {
        let seed = n as u64;
        assert_eq!(
            drain(prefill(EventCore::Wheel, n, seed)),
            drain(prefill(EventCore::Heap, n, seed)),
            "cores disagree on drain({n})"
        );
        assert_eq!(
            churn(prefill(EventCore::Wheel, n, seed), churn_ops.min(n)),
            churn(prefill(EventCore::Heap, n, seed), churn_ops.min(n)),
            "cores disagree on churn({n})"
        );
    }

    let (q, _) = fabric_prefill(EventCore::Wheel, 7);
    let pending = q.len();
    assert!(
        (650..950).contains(&pending),
        "fabric mix drifted from the measured ~780 pending: {pending}"
    );
    assert_eq!(
        fabric(fabric_prefill(EventCore::Wheel, 7), churn_ops),
        fabric(fabric_prefill(EventCore::Heap, 7), churn_ops),
        "cores disagree on fabric"
    );

    print_header("event_core: calendar (wheel) vs binary heap (ns/iter = whole pattern)");
    println!("measured mix (fig4_fabric's recorded schedule):");
    for core in [EventCore::Wheel, EventCore::Heap] {
        bench_batched(
            &format!("{}_x{churn_ops}", label("fabric", core, pending)),
            || fabric_prefill(core, 42),
            |q| fabric(q, churn_ops),
        );
    }
    println!("synthetic mixes (uniform delays, 10^4-10^7 pending):");
    for &n in sizes {
        for core in [EventCore::Wheel, EventCore::Heap] {
            bench_batched(&label("drain", core, n), || prefill(core, n, 42), drain);
        }
        for core in [EventCore::Wheel, EventCore::Heap] {
            bench_batched(
                &format!("{}_x{churn_ops}", label("churn", core, n)),
                || prefill(core, n, 42),
                |q| churn(q, churn_ops),
            );
        }
    }
}
