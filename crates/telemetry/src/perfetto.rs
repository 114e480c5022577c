//! Chrome trace-event JSON exporter for [`TraceData`].
//!
//! The output is the classic Chrome trace-event format (the JSON flavour),
//! which loads directly in Perfetto (<https://ui.perfetto.dev>) and in
//! `chrome://tracing`. The mapping:
//!
//! * one *thread track* per queue/link label — dequeues render as complete
//!   (`"X"`) "queued" slices spanning the packet's residency, transmissions
//!   as `"X"` "tx" slices spanning serialization, drops and rank inversions
//!   as instant (`"i"`) markers;
//! * one *async span* per sampled packet (`"b"`/`"e"` nestable events keyed
//!   by `f<flow>.<seq>`, ACKs suffixed `.a`) covering first record to last,
//!   with async instants (`"n"`) for each lifecycle phase in between —
//!   `flow_start`, `rank`, `transform`, `enqueue`, `dequeue`, `tx`,
//!   `deliver`, `ack`, `drop`;
//! * spans are coloured per tenant (`cname`), so interleavings of different
//!   tenants' packets through a shared queue are visible at a glance.
//!
//! Timestamps are simulated time. The format's `ts`/`dur` unit is the
//! microsecond; nanosecond precision is kept by emitting three fractional
//! digits. All numbers are formatted from integers, so the export is
//! byte-deterministic — the determinism suite relies on this.

use crate::trace::{TraceData, TraceKind, NO_LABEL};
use qvisor_sim::json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Chrome's predefined reserved color names, cycled per tenant.
const TENANT_COLORS: [&str; 8] = [
    "thread_state_running",
    "rail_response",
    "rail_animation",
    "rail_load",
    "cq_build_passed",
    "cq_build_failed",
    "thread_state_iowait",
    "rail_idle",
];

fn tenant_color(tenant: u16) -> &'static str {
    TENANT_COLORS[tenant as usize % TENANT_COLORS.len()]
}

/// Nanoseconds rendered as a microsecond JSON number with three fractional
/// digits (`12345` → `12.345`). Integer formatting keeps bytes stable.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// JSON string literal (with quotes), escaped.
fn js(s: &str) -> String {
    Value::from(s).to_compact()
}

/// Async-span identity of a packet: `f<flow>.<seq>`, `.a` for ACKs.
fn span_id(flow: u64, seq: u64, ack: bool) -> String {
    if ack {
        format!("f{flow}.{seq}.a")
    } else {
        format!("f{flow}.{seq}")
    }
}

/// The common `pid`/`tid`/`ts` prefix of a track event.
fn track_prefix(tid: u32, t_ns: u64) -> String {
    format!("\"pid\":1,\"tid\":{},\"ts\":{}", tid + 1, micros(t_ns))
}

/// Convert a trace snapshot into Chrome trace-event JSON.
///
/// The result is a complete JSON object (`{"displayTimeUnit":...,
/// "traceEvents":[...]}`) ready to be written to a `.json` file and opened
/// in Perfetto. Output bytes are a pure function of the snapshot.
pub fn export_chrome(data: &TraceData) -> String {
    let mut events: Vec<String> = Vec::with_capacity(data.records.len() * 2 + 16);

    // Metadata: one process, tid 0 for packet lifecycles, one thread per
    // queue/link label.
    events.push(
        "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"qvisor\"}}"
            .to_string(),
    );
    events.push(
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\",\"args\":{\"name\":\"packets\"}}"
            .to_string(),
    );
    for (i, label) in data.labels.iter().enumerate() {
        events.push(format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":{}}}}}",
            i as u32 + 1,
            js(label),
        ));
    }

    // One async span per packet: begin at its first record, end at its last.
    let mut spans: BTreeMap<(u64, u64, bool), (u64, u64, u16)> = BTreeMap::new();
    for r in data.records.iter() {
        let t = r.t.as_nanos();
        spans
            .entry((r.flow, r.seq, r.ack))
            .and_modify(|(first, last, _)| {
                *first = (*first).min(t);
                *last = (*last).max(t);
            })
            .or_insert((t, t, r.tenant));
    }
    for (&(flow, seq, ack), &(first, last, tenant)) in &spans {
        let id = span_id(flow, seq, ack);
        let name = if ack {
            format!("T{tenant} ack f{flow}#{seq}")
        } else {
            format!("T{tenant} f{flow}#{seq}")
        };
        events.push(format!(
            "{{\"ph\":\"b\",\"cat\":\"packet\",\"id\":{},\"pid\":1,\"tid\":0,\"ts\":{},\"name\":{},\"cname\":{}}}",
            js(&id),
            micros(first),
            js(&name),
            js(tenant_color(tenant)),
        ));
        events.push(format!(
            "{{\"ph\":\"e\",\"cat\":\"packet\",\"id\":{},\"pid\":1,\"tid\":0,\"ts\":{},\"name\":{}}}",
            js(&id),
            micros(last),
            js(&name),
        ));
    }

    // Per-record events: an async instant on the packet's span for every
    // phase, plus slices/markers on the owning queue/link track.
    for r in data.records.iter() {
        let t = r.t.as_nanos();
        let id = span_id(r.flow, r.seq, r.ack);
        let mut args = String::new();
        let mut phase_name = r.kind.tag();
        match r.kind {
            TraceKind::FlowStart { size } => {
                let _ = write!(args, "\"size\":{size}");
            }
            TraceKind::RankComputed { rank } => {
                let _ = write!(args, "\"rank\":{rank}");
            }
            TraceKind::Transform { pre, post } => {
                let _ = write!(args, "\"pre\":{pre},\"post\":{post}");
            }
            TraceKind::Enqueue { rank } | TraceKind::Drop { rank } => {
                let _ = write!(args, "\"rank\":{rank}");
            }
            TraceKind::Dequeue { rank, wait_ns, .. } => {
                let _ = write!(args, "\"rank\":{rank},\"wait_ns\":{wait_ns}");
            }
            TraceKind::Inversion {
                rank,
                loser_flow,
                loser_seq,
                loser_rank,
            } => {
                let _ = write!(
                    args,
                    "\"rank\":{rank},\"loser\":\"f{loser_flow}#{loser_seq}\",\"loser_rank\":{loser_rank}"
                );
            }
            TraceKind::TxStart {
                bytes,
                tx_ns,
                prop_ns,
            } => {
                let _ = write!(
                    args,
                    "\"bytes\":{bytes},\"tx_ns\":{tx_ns},\"prop_ns\":{prop_ns}"
                );
            }
            TraceKind::Deliver { latency_ns, .. } | TraceKind::Ack { latency_ns, .. } => {
                let _ = write!(args, "\"latency_ns\":{latency_ns}");
            }
        }
        if r.ack && matches!(r.kind, TraceKind::Deliver { .. }) {
            phase_name = "ack";
        }
        events.push(format!(
            "{{\"ph\":\"n\",\"cat\":\"packet\",\"id\":{},\"pid\":1,\"tid\":0,\"ts\":{},\"name\":{},\"args\":{{{}}}}}",
            js(&id),
            micros(t),
            js(phase_name),
            args,
        ));

        if r.label == NO_LABEL {
            continue;
        }
        let who = if r.ack {
            format!("ack f{}#{}", r.flow, r.seq)
        } else {
            format!("f{}#{}", r.flow, r.seq)
        };
        match r.kind {
            TraceKind::Dequeue { rank, wait_ns, .. } => {
                // The residency slice: enqueue time to dequeue time.
                events.push(format!(
                    "{{\"ph\":\"X\",\"cat\":\"queue\",{},\"dur\":{},\"name\":{},\"cname\":{},\"args\":{{\"tenant\":{},\"rank\":{rank}}}}}",
                    track_prefix(r.label, t.saturating_sub(wait_ns)),
                    micros(wait_ns),
                    js(&format!("queued {who}")),
                    js(tenant_color(r.tenant)),
                    r.tenant,
                ));
            }
            TraceKind::TxStart { bytes, tx_ns, .. } => {
                events.push(format!(
                    "{{\"ph\":\"X\",\"cat\":\"link\",{},\"dur\":{},\"name\":{},\"cname\":{},\"args\":{{\"tenant\":{},\"bytes\":{bytes}}}}}",
                    track_prefix(r.label, t),
                    micros(tx_ns),
                    js(&format!("tx {who}")),
                    js(tenant_color(r.tenant)),
                    r.tenant,
                ));
            }
            TraceKind::Drop { rank } => {
                events.push(format!(
                    "{{\"ph\":\"i\",\"s\":\"t\",\"cat\":\"queue\",{},\"name\":{},\"args\":{{\"tenant\":{},\"rank\":{rank}}}}}",
                    track_prefix(r.label, t),
                    js(&format!("drop {who}")),
                    r.tenant,
                ));
            }
            TraceKind::Inversion {
                loser_flow,
                loser_seq,
                loser_rank,
                rank,
            } => {
                events.push(format!(
                    "{{\"ph\":\"i\",\"s\":\"t\",\"cat\":\"queue\",{},\"name\":{},\"args\":{{\"winner_rank\":{rank},\"loser_rank\":{loser_rank}}}}}",
                    track_prefix(r.label, t),
                    js(&format!(
                        "inversion {who} over f{loser_flow}#{loser_seq}"
                    )),
                ));
            }
            _ => {}
        }
    }

    let mut out = String::with_capacity(events.iter().map(|e| e.len() + 2).sum::<usize>() + 64);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (i, e) in events.iter().enumerate() {
        out.push_str(e);
        if i + 1 < events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceRecord;
    use qvisor_sim::Nanos;

    fn data() -> TraceData {
        TraceData {
            records: [
                TraceRecord::new(Nanos(0), 1, 0, 0, TraceKind::FlowStart { size: 100 }),
                TraceRecord::new(Nanos(1), 1, 0, 0, TraceKind::Transform { pre: 9, post: 4 })
                    .at_label(0),
                TraceRecord::new(Nanos(2), 1, 0, 0, TraceKind::Enqueue { rank: 4 }).at_label(0),
                TraceRecord::new(
                    Nanos(1_500),
                    1,
                    0,
                    0,
                    TraceKind::Dequeue {
                        rank: 4,
                        wait_ns: 1_498,
                        cross_tenant: false,
                    },
                )
                .at_label(0),
                TraceRecord::new(
                    Nanos(1_500),
                    1,
                    0,
                    0,
                    TraceKind::TxStart {
                        bytes: 100,
                        tx_ns: 800,
                        prop_ns: 1_000,
                    },
                )
                .at_label(0),
                TraceRecord::new(
                    Nanos(3_300),
                    1,
                    0,
                    0,
                    TraceKind::Deliver {
                        latency_ns: 3_300,
                        dup: false,
                    },
                ),
                TraceRecord::new(
                    Nanos(4_000),
                    1,
                    0,
                    7,
                    TraceKind::Ack {
                        latency_ns: 700,
                        done: true,
                    },
                )
                .as_ack(true),
            ]
            .into_iter()
            .collect(),
            labels: vec!["n0.p0".to_string()],
            ..TraceData::default()
        }
    }

    #[test]
    fn export_is_valid_json_with_expected_phases() {
        let json = export_chrome(&data());
        let v = Value::parse(&json).expect("chrome export parses as JSON");
        let events = v
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents array");
        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("ph").and_then(Value::as_str))
            .collect();
        for ph in ["M", "b", "e", "n", "X"] {
            assert!(phases.contains(&ph), "missing ph {ph} in {phases:?}");
        }
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(Value::as_str))
            .collect();
        for name in ["transform", "enqueue", "dequeue", "deliver", "queued f1#0"] {
            assert!(names.contains(&name), "missing name {name} in {names:?}");
        }
        // The queue track is named after the label.
        assert!(json.contains("\"n0.p0\""), "{json}");
        // Residency slice starts at enqueue time (2ns = 0.002µs).
        assert!(json.contains("\"ts\":0.002,\"dur\":1.498"), "{json}");
    }

    #[test]
    fn export_is_byte_deterministic() {
        assert_eq!(export_chrome(&data()), export_chrome(&data()));
    }

    #[test]
    fn acks_get_their_own_async_span() {
        let json = export_chrome(&data());
        assert!(json.contains("\"f1.0.a\""), "{json}");
        assert!(json.contains("T7 ack f1#0"), "{json}");
    }

    #[test]
    fn tenants_cycle_distinct_colors() {
        assert_ne!(tenant_color(0), tenant_color(1));
        assert_eq!(tenant_color(0), tenant_color(8));
    }
}
