//! Per-packet lifecycle flight recorder.
//!
//! While metrics (counters, histograms) answer *how much*, the tracer
//! answers *where and when*: it records per-packet lifecycle spans — flow
//! start, rank computation, QVISOR transform application (pre/post rank),
//! enqueue/dequeue/drop at every hop's queue, link serialization, and
//! delivery/ACK — into a compact bounded ring buffer keyed by simulated
//! time. Deterministic seeded per-flow sampling keeps full traces bounded
//! on large runs: whether a flow is sampled is a pure function of
//! `(seed, flow id)`, so the same run always traces the same flows.
//!
//! Like the rest of the crate, tracing is switched off at run time: a
//! [`Tracer::disabled`] handle holds no ring and each call on it is one
//! branch. The serialized [`TraceData`] model, its JSONL format, and the
//! [`render_report`] renderer depend only on that format, so they digest
//! traces from a file as readily as from a live ring (mirroring
//! [`crate::report`]).
//!
//! Exporters: [`crate::perfetto::export_chrome`] converts a [`TraceData`]
//! into Chrome trace-event JSON that loads in Perfetto / chrome://tracing;
//! [`render_report`] renders a textual per-hop latency breakdown and an
//! inversion timeline.

use qvisor_sim::json::Value;
use qvisor_sim::rng::stable_hash;
use qvisor_sim::stats::nearest_rank;
use qvisor_sim::Nanos;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

/// Label id meaning "no queue/link associated with this span".
pub const NO_LABEL: u32 = u32::MAX;

/// Trace schema version written into the `trace_meta` line.
const TRACE_SCHEMA_VERSION: u64 = 1;

/// Flight-recorder tuning.
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Maximum retained records; the oldest are evicted (and counted)
    /// beyond this, so memory stays bounded on arbitrarily long runs.
    pub capacity: usize,
    /// Trace a flow iff `hash(seed, flow) % sample_one_in == 0`; 1 traces
    /// every flow. Sampling is by flow so a sampled packet's whole
    /// lifecycle is present, never a random subset of its hops.
    pub sample_one_in: u64,
    /// Sampling seed. Changing it picks a different (but still
    /// deterministic) subset of flows.
    pub seed: u64,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            capacity: 1 << 18,
            sample_one_in: 1,
            seed: 1,
        }
    }
}

/// What one trace record describes. Ranks are transformed ranks (what the
/// hardware sorts on) unless stated otherwise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// A flow began emitting (reliable flows: at their start event; CBR
    /// streams: at their first emission).
    FlowStart {
        /// Flow size in bytes (CBR streams report their datagram size).
        size: u64,
    },
    /// The tenant's rank function assigned this packet its raw rank.
    RankComputed {
        /// Tenant-assigned rank.
        rank: u64,
    },
    /// QVISOR's pre-processor rewrote the rank at this hop.
    Transform {
        /// Tenant-assigned rank before the transform.
        pre: u64,
        /// Transformed rank the schedulers sort on.
        post: u64,
    },
    /// The packet entered the labelled queue.
    Enqueue {
        /// Transformed rank at enqueue.
        rank: u64,
    },
    /// The packet left the labelled queue.
    Dequeue {
        /// Transformed rank at dequeue.
        rank: u64,
        /// Queueing delay (dequeue time minus enqueue time).
        wait_ns: u64,
    },
    /// The packet was dropped (queue rejection/eviction when labelled;
    /// monitor/pre-processor/fault-injection drops otherwise).
    Drop {
        /// Transformed rank at the drop.
        rank: u64,
    },
    /// This dequeue was a rank inversion: the record's packet left the
    /// labelled queue while a strictly lower-ranked packet kept waiting.
    Inversion {
        /// Rank of the packet that left early (the record's packet).
        rank: u64,
        /// Flow of the lower-ranked packet that kept waiting.
        loser_flow: u64,
        /// Sequence number of the waiting packet.
        loser_seq: u64,
        /// Rank of the waiting packet (strictly below `rank`).
        loser_rank: u64,
    },
    /// The packet started serializing onto the labelled link.
    TxStart {
        /// Bytes on the wire.
        bytes: u64,
        /// Serialization time at the link rate.
        tx_ns: u64,
        /// Propagation delay to the next hop.
        prop_ns: u64,
    },
    /// A payload packet reached its destination.
    Deliver {
        /// End-to-end latency since the packet was first sent.
        latency_ns: u64,
    },
    /// An acknowledgement reached the original sender.
    Ack {
        /// Latency since the ACK was emitted.
        latency_ns: u64,
    },
}

impl TraceKind {
    /// Machine-readable kind tag used in the JSONL format.
    pub fn tag(&self) -> &'static str {
        match self {
            TraceKind::FlowStart { .. } => "flow_start",
            TraceKind::RankComputed { .. } => "rank",
            TraceKind::Transform { .. } => "transform",
            TraceKind::Enqueue { .. } => "enqueue",
            TraceKind::Dequeue { .. } => "dequeue",
            TraceKind::Drop { .. } => "drop",
            TraceKind::Inversion { .. } => "inversion",
            TraceKind::TxStart { .. } => "tx",
            TraceKind::Deliver { .. } => "deliver",
            TraceKind::Ack { .. } => "ack",
        }
    }

    /// The kind's payload as `(JSONL key, value)` pairs, in export order.
    fn for_each_field(&self, mut f: impl FnMut(&'static str, u64)) {
        match *self {
            TraceKind::FlowStart { size } => f("size", size),
            TraceKind::RankComputed { rank }
            | TraceKind::Enqueue { rank }
            | TraceKind::Drop { rank } => f("rank", rank),
            TraceKind::Transform { pre, post } => {
                f("pre", pre);
                f("post", post);
            }
            TraceKind::Dequeue { rank, wait_ns } => {
                f("rank", rank);
                f("wait_ns", wait_ns);
            }
            TraceKind::Inversion {
                rank,
                loser_flow,
                loser_seq,
                loser_rank,
            } => {
                f("rank", rank);
                f("loser_flow", loser_flow);
                f("loser_seq", loser_seq);
                f("loser_rank", loser_rank);
            }
            TraceKind::TxStart {
                bytes,
                tx_ns,
                prop_ns,
            } => {
                f("bytes", bytes);
                f("tx_ns", tx_ns);
                f("prop_ns", prop_ns);
            }
            TraceKind::Deliver { latency_ns } | TraceKind::Ack { latency_ns } => {
                f("latency_ns", latency_ns)
            }
        }
    }
}

/// Append `,"key":value` to a JSON object under construction. `key` must
/// need no escaping (every caller passes a literal). The integer goes
/// through a digit buffer, not `core::fmt`: a full ring exports a million
/// of them inside the measured phase.
fn push_field(out: &mut String, key: &str, value: u64) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    let mut rest = value;
    loop {
        start -= 1;
        digits[start] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    out.extend(digits[start..].iter().map(|&digit| char::from(digit)));
}

/// One recorded span/event of a sampled packet's lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulated time of the record.
    pub t: Nanos,
    /// Owning flow (raw id).
    pub flow: u64,
    /// Sequence number within the flow.
    pub seq: u64,
    /// Owning tenant (raw id).
    pub tenant: u16,
    /// True when this record belongs to an acknowledgement packet (ACKs
    /// share `flow`/`seq` with the data packet they acknowledge).
    pub ack: bool,
    /// Interned queue/link label, or [`NO_LABEL`].
    pub label: u32,
    /// What happened.
    pub kind: TraceKind,
}

impl TraceRecord {
    /// A record with no queue/link label and the data-packet flag.
    pub fn new(t: Nanos, flow: u64, seq: u64, tenant: u16, kind: TraceKind) -> TraceRecord {
        TraceRecord {
            t,
            flow,
            seq,
            tenant,
            ack: false,
            label: NO_LABEL,
            kind,
        }
    }

    /// Same record tied to an interned queue/link label.
    pub fn at_label(mut self, label: u32) -> TraceRecord {
        self.label = label;
        self
    }

    /// Same record marked as belonging to an ACK packet.
    pub fn as_ack(mut self, ack: bool) -> TraceRecord {
        self.ack = ack;
        self
    }
}

/// The records of a [`TraceData`], oldest first, packed into 32-byte slots
/// (64 for the few that need it) and unpacked as they are read. A
/// [`Tracer::snapshot`]'s are the recorder's own ring, shared with it until
/// its next record; any others are collected from [`TraceRecord`]s. Equal
/// when they hold the same records in the same order.
#[derive(Clone, Default)]
pub struct Records {
    slots: Arc<Slots>,
    /// Index of the oldest slot: the ring's `head` when it was lent.
    head: usize,
}

impl Records {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when there are no records.
    pub fn is_empty(&self) -> bool {
        self.slots.len() == 0
    }

    /// The records, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = TraceRecord> + '_ {
        oldest_first(&self.slots, self.head)
    }

    /// The newest record.
    pub fn last(&self) -> Option<TraceRecord> {
        let newest = self.head.checked_sub(1).or(self.len().checked_sub(1))?;
        Some(self.slots.record(newest))
    }

    /// Where the first halves of the slots live.
    #[cfg(test)]
    fn storage(&self) -> *const Half {
        self.slots.lo.as_ptr()
    }
}

impl FromIterator<TraceRecord> for Records {
    fn from_iter<I: IntoIterator<Item = TraceRecord>>(records: I) -> Records {
        let mut slots = Slots::default();
        records.into_iter().for_each(|r| slots.push(Slot::pack(r)));
        Records {
            slots: Arc::new(slots),
            head: 0,
        }
    }
}

impl PartialEq for Records {
    fn eq(&self, other: &Records) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for Records {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The records in `slots`, a ring whose oldest slot is at `head`: from
/// `head` to the end, then from the start.
fn oldest_first(slots: &Slots, head: usize) -> impl Iterator<Item = TraceRecord> + '_ {
    (head..slots.len()).chain(0..head).map(|i| slots.record(i))
}

/// A snapshot of everything the flight recorder holds: the retained
/// records (oldest first), the label table they index into, and the
/// recorder configuration. This is the unit of serialization — bench
/// binaries write it as JSONL, the CLI parses it back.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceData {
    /// Retained records, oldest first.
    pub records: Records,
    /// Interned queue/link labels; `TraceRecord::label` indexes here.
    pub labels: Vec<String>,
    /// Records evicted from the ring buffer before this snapshot.
    pub dropped: u64,
    /// Ring-buffer capacity the recorder ran with.
    pub capacity: u64,
    /// Sampling modulus the recorder ran with.
    pub sample_one_in: u64,
    /// Sampling seed the recorder ran with.
    pub seed: u64,
}

impl TraceData {
    /// Resolve a record's label, or `None` for [`NO_LABEL`] / out of range.
    #[cfg(test)]
    pub fn label_of(&self, r: &TraceRecord) -> Option<&str> {
        self.labels.get(r.label as usize).map(String::as_str)
    }

    /// Serialize as JSON lines: one `trace_meta` line, then one `span`
    /// line per record (oldest first, labels inlined as strings). The
    /// output is byte-deterministic given the records.
    ///
    /// Span lines are written straight into the output — a full ring is a
    /// quarter of a million of them — in exactly the bytes the compact
    /// [`Value`] rendering of the same object would have.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(64 + self.records.len() * 128);
        let meta = Value::object()
            .set("type", "trace_meta")
            .set("schema", TRACE_SCHEMA_VERSION)
            .set("dropped", self.dropped)
            .set("capacity", self.capacity)
            .set("sample_one_in", self.sample_one_in)
            .set("seed", self.seed);
        out.push_str(&meta.to_compact());
        out.push('\n');
        // Each label's `,"queue":"<escaped>"` fragment, rendered once.
        let queues: Vec<String> = self
            .labels
            .iter()
            .map(|label| format!(",\"queue\":{}", Value::from(label.as_str()).to_compact()))
            .collect();
        for r in self.records.iter() {
            out.push_str("{\"type\":\"span\"");
            push_field(&mut out, "t_ns", r.t.as_nanos());
            push_field(&mut out, "flow", r.flow);
            push_field(&mut out, "seq", r.seq);
            push_field(&mut out, "tenant", u64::from(r.tenant));
            if r.ack {
                out.push_str(",\"ack\":true");
            }
            if let Some(queue) = queues.get(r.label as usize) {
                out.push_str(queue);
            }
            out.push_str(",\"kind\":\"");
            out.push_str(r.kind.tag());
            out.push('"');
            r.kind
                .for_each_field(|key, value| push_field(&mut out, key, value));
            out.push_str("}\n");
        }
        out
    }

    /// Parse a JSONL trace export. Unknown line types and unknown span
    /// kinds are ignored (forward compatibility); malformed JSON is an
    /// error naming the line number. Round-tripping through
    /// [`TraceData::to_jsonl`] is byte-identical.
    pub fn parse(jsonl: &str) -> Result<TraceData, String> {
        if jsonl.lines().all(|l| l.trim().is_empty()) {
            return Err("empty trace (no JSONL lines)".into());
        }
        let mut data = TraceData::default();
        let mut slots = Slots::default();
        let mut label_ids: std::collections::BTreeMap<String, u32> =
            std::collections::BTreeMap::new();
        for (lineno, line) in jsonl.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let v = Value::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            let u = |key: &str| v.get(key).and_then(Value::as_u64).unwrap_or(0);
            match v.get("type").and_then(Value::as_str) {
                Some("trace_meta") => {
                    data.dropped = u("dropped");
                    data.capacity = u("capacity");
                    data.sample_one_in = u("sample_one_in");
                    data.seed = u("seed");
                }
                Some("span") => {
                    let kind = match v.get("kind").and_then(Value::as_str) {
                        Some("flow_start") => TraceKind::FlowStart { size: u("size") },
                        Some("rank") => TraceKind::RankComputed { rank: u("rank") },
                        Some("transform") => TraceKind::Transform {
                            pre: u("pre"),
                            post: u("post"),
                        },
                        Some("enqueue") => TraceKind::Enqueue { rank: u("rank") },
                        Some("dequeue") => TraceKind::Dequeue {
                            rank: u("rank"),
                            wait_ns: u("wait_ns"),
                        },
                        Some("drop") => TraceKind::Drop { rank: u("rank") },
                        Some("inversion") => TraceKind::Inversion {
                            rank: u("rank"),
                            loser_flow: u("loser_flow"),
                            loser_seq: u("loser_seq"),
                            loser_rank: u("loser_rank"),
                        },
                        Some("tx") => TraceKind::TxStart {
                            bytes: u("bytes"),
                            tx_ns: u("tx_ns"),
                            prop_ns: u("prop_ns"),
                        },
                        Some("deliver") => TraceKind::Deliver {
                            latency_ns: u("latency_ns"),
                        },
                        Some("ack") => TraceKind::Ack {
                            latency_ns: u("latency_ns"),
                        },
                        _ => continue,
                    };
                    let label = match v.get("queue").and_then(Value::as_str) {
                        Some(q) => *label_ids.entry(q.to_string()).or_insert_with(|| {
                            data.labels.push(q.to_string());
                            (data.labels.len() - 1) as u32
                        }),
                        None => NO_LABEL,
                    };
                    let tenant = u("tenant");
                    let tenant = u16::try_from(tenant).map_err(|_| {
                        format!("line {}: tenant {tenant} out of range", lineno + 1)
                    })?;
                    slots.push(Slot::pack(TraceRecord {
                        t: Nanos(u("t_ns")),
                        flow: u("flow"),
                        seq: u("seq"),
                        tenant,
                        ack: v.get("ack").and_then(Value::as_bool).unwrap_or(false),
                        label,
                        kind,
                    }));
                }
                _ => {}
            }
        }
        data.records = Records {
            slots: Arc::new(slots),
            head: 0,
        };
        Ok(data)
    }
}

/// The first 32 bytes of a packed record: all of a compact one, and the
/// identity of a wide one.
type Half = [u64; 4];

/// `packed`'s bit marking a compact record.
const COMPACT: u64 = 1 << 21;

/// One [`TraceRecord`] packed, nothing lost, in one of two forms. Both keep
/// `t` whole and pack `tenant | ack << 16 | kind tag << 17 | label << 32`
/// into one word, `packed`.
///
/// - **Compact**, 32 bytes, `lo = [t, flow | seq << 32, packed | COMPACT,
///   payload]`: when `flow` and `seq` are both below 2^32 and the kind's
///   payload fits one word. A one-field kind's payload is its field;
///   `Transform` and `Dequeue` need both fields below 2^32 (`p0 | p1 <<
///   32`); `TxStart` needs `bytes`, `tx_ns` and `prop_ns` below 2^20, 2^24
///   and 2^20 (`bytes | tx_ns << 20 | prop_ns << 44`).
/// - **Wide**, 64 bytes, `lo = [t, flow, packed, seq]` and `hi = [p0, p1,
///   p2, p3]`, the payload with unused words zero: everything else, and
///   always `Inversion`, whose payload is four words.
///
/// No record of a Fig. 4 run needs the wide form (its exact PIFOs invert
/// nothing), so the `hi` halves live apart from the `lo` ones ([`Slots`])
/// and are allocated only for a store that holds a wide record.
#[derive(Clone, Copy)]
struct Slot {
    lo: Half,
    /// `Some` exactly when the record is wide.
    hi: Option<Half>,
}

impl Slot {
    #[inline]
    fn pack(r: TraceRecord) -> Slot {
        let (tag, payload) = match r.kind {
            TraceKind::FlowStart { size } => (0, [size, 0, 0, 0]),
            TraceKind::RankComputed { rank } => (1, [rank, 0, 0, 0]),
            TraceKind::Transform { pre, post } => (2, [pre, post, 0, 0]),
            TraceKind::Enqueue { rank } => (3, [rank, 0, 0, 0]),
            TraceKind::Dequeue { rank, wait_ns } => (4, [rank, wait_ns, 0, 0]),
            TraceKind::Drop { rank } => (5, [rank, 0, 0, 0]),
            TraceKind::Inversion {
                rank,
                loser_flow,
                loser_seq,
                loser_rank,
            } => (6, [rank, loser_flow, loser_seq, loser_rank]),
            TraceKind::TxStart {
                bytes,
                tx_ns,
                prop_ns,
            } => (7, [bytes, tx_ns, prop_ns, 0]),
            TraceKind::Deliver { latency_ns } => (8, [latency_ns, 0, 0, 0]),
            TraceKind::Ack { latency_ns } => (9, [latency_ns, 0, 0, 0]),
        };
        let packed = u64::from(r.tenant)
            | (u64::from(r.ack) << 16)
            | (tag << 17)
            | (u64::from(r.label) << 32);
        let [p0, p1, p2, _] = payload;
        let word = match tag {
            2 | 4 => (p0 >> 32 == 0 && p1 >> 32 == 0).then_some(p0 | p1 << 32),
            6 => None,
            7 => (p0 >> 20 == 0 && p1 >> 24 == 0 && p2 >> 20 == 0)
                .then_some(p0 | p1 << 20 | p2 << 44),
            _ => Some(p0),
        };
        let t = r.t.as_nanos();
        match word {
            Some(word) if (r.flow | r.seq) >> 32 == 0 => Slot {
                lo: [t, r.flow | r.seq << 32, packed | COMPACT, word],
                hi: None,
            },
            _ => Slot {
                lo: [t, r.flow, packed, r.seq],
                hi: Some(payload),
            },
        }
    }

    /// Whether the record whose first half is `lo` is wide.
    #[inline]
    fn is_wide(lo: &Half) -> bool {
        lo[2] & COMPACT == 0
    }

    fn unpack(self) -> TraceRecord {
        let [t, ids, packed, word] = self.lo;
        let (flow, seq, [p0, p1, p2, p3]) = match self.hi {
            Some(payload) => (ids, word, payload),
            None => {
                let tag = (packed >> 17) & 0xf;
                let low = |bits: u32, shift: u32| (word >> shift) & ((1 << bits) - 1);
                let payload = match tag {
                    2 | 4 => [low(32, 0), word >> 32, 0, 0],
                    7 => [low(20, 0), low(24, 20), word >> 44, 0],
                    _ => [word, 0, 0, 0],
                };
                (ids & u64::from(u32::MAX), ids >> 32, payload)
            }
        };
        let kind = match (packed >> 17) & 0xf {
            0 => TraceKind::FlowStart { size: p0 },
            1 => TraceKind::RankComputed { rank: p0 },
            2 => TraceKind::Transform { pre: p0, post: p1 },
            3 => TraceKind::Enqueue { rank: p0 },
            4 => TraceKind::Dequeue {
                rank: p0,
                wait_ns: p1,
            },
            5 => TraceKind::Drop { rank: p0 },
            6 => TraceKind::Inversion {
                rank: p0,
                loser_flow: p1,
                loser_seq: p2,
                loser_rank: p3,
            },
            7 => TraceKind::TxStart {
                bytes: p0,
                tx_ns: p1,
                prop_ns: p2,
            },
            8 => TraceKind::Deliver { latency_ns: p0 },
            9 => TraceKind::Ack { latency_ns: p0 },
            tag => unreachable!("slot kind tag {tag} was not written by Slot::pack"),
        };
        TraceRecord {
            t: Nanos(t),
            flow,
            seq,
            tenant: packed as u16,
            ack: (packed >> 16) & 1 == 1,
            label: (packed >> 32) as u32,
            kind,
        }
    }
}

/// Packed records by index: every record's first half in `lo`, and a wide
/// record's second half at the same index of `hi`. Eight-byte aligned on
/// purpose: a `#[repr(align(64))]` slot ran no faster and took the peak RSS
/// of a fuzz campaign, one default-capacity tracer per case, from 9 to
/// 31–35 MB.
#[derive(Clone, Default)]
struct Slots {
    lo: Vec<Half>,
    /// Long enough to index every wide record; empty while there is none.
    hi: Vec<Half>,
}

impl Slots {
    fn len(&self) -> usize {
        self.lo.len()
    }

    /// Append `slot` (the collected form: `hi` grows as wide records come).
    fn push(&mut self, Slot { lo, hi }: Slot) {
        if let Some(hi) = hi {
            self.hi.resize(self.lo.len(), [0; 4]);
            self.hi.push(hi);
        }
        self.lo.push(lo);
    }

    /// The record at `i`, unpacked.
    #[inline]
    fn record(&self, i: usize) -> TraceRecord {
        let lo = self.lo[i];
        let hi = Slot::is_wide(&lo).then(|| self.hi[i]);
        Slot { lo, hi }.unpack()
    }
}

/// The ring of slots, which overwrites its oldest slot around the cache. A
/// default ring's first halves are 8.4 MB and keep 2 % of what a Fig. 4 run
/// writes into them, so an ordinary store would read each line for
/// ownership only to evict the simulator's own working set with it. On
/// x86_64 four non-temporal `movnti` stores write each half instead (SSE2
/// is part of the baseline); every other architecture assigns it. Both
/// write the same bytes.
///
/// Streamed stores are weakly ordered, so a [`fence`] must separate them
/// from any other access to the slots they wrote. Every access to the
/// slots is in this module, and it fences before any read: when `head`
/// wraps to 0 (before the lap that overwrites those slots again), in
/// [`Ring::slots`] (before a visit reads them), in [`Ring::lend`] (before
/// a snapshot, on any thread, reads them) and in `Drop` (before the
/// allocator gets the memory back). A fence per record ran 3.6× slower
/// than none at all.
#[allow(unsafe_code)]
mod ring {
    use super::{Half, Slot, Slots};
    use std::sync::Arc;

    #[derive(Default)]
    pub(super) struct Ring {
        /// The whole capacity of `slots.lo` is reserved by the first record
        /// — address space, not memory: a tracer that records a few
        /// hundred spans (one per fuzz case) touches a few pages of a
        /// default ring's 8.4 MB, and one that fills it never holds a
        /// half-grown copy beside it or leaves one behind as a hole in the
        /// heap. It fills by `push`, and from then on the oldest slot, at
        /// `head`, is overwritten in place by [`stream`]. `slots.hi`
        /// reserves nothing until the first wide record, which reserves
        /// all `capacity` halves the same way; it is zeroed as far as the
        /// highest index a wide record has taken, so it indexes every wide
        /// record and the pages past that stay untouched. Both are empty,
        /// reserving nothing, while the slots are `lent`.
        slots: Slots,
        /// Index of the oldest slot once the ring is full; 0 before.
        head: usize,
        /// The slots, from a snapshot until the next record: shared with
        /// every snapshot taken meanwhile, and never written.
        lent: Option<Arc<Slots>>,
    }

    impl Ring {
        /// Keep `slot` in a ring of `capacity`; `true` when that evicted
        /// the oldest record (at capacity 0: `slot` itself).
        #[inline]
        pub(super) fn push(&mut self, capacity: usize, slot: Slot) -> bool {
            let at = self.slots.lo.len();
            if at < capacity {
                if self.slots.lo.capacity() == 0 {
                    return self.reserve_and_push(capacity, slot);
                }
                if let Some(hi) = slot.hi {
                    *self.wide_half(capacity, at) = hi;
                }
                self.slots.lo.push(slot.lo);
                return false;
            }
            // `None` only for a ring of capacity 0, which keeps nothing.
            if let Some(oldest) = self.slots.lo.get_mut(self.head) {
                stream(oldest, slot.lo);
                if let Some(hi) = slot.hi {
                    stream(self.wide_half(capacity, self.head), hi);
                }
                self.head += 1;
                if self.head == capacity {
                    self.head = 0;
                    fence();
                }
            }
            true
        }

        /// The wide half at `at`, zeroed if the ring has not reached it.
        #[inline]
        fn wide_half(&mut self, capacity: usize, at: usize) -> &mut Half {
            if self.slots.hi.len() <= at {
                self.extend_wide_halves(capacity, at);
            }
            &mut self.slots.hi[at]
        }

        /// Zero the wide halves up to `at`; the ring's first wide record
        /// reserves all `capacity` of them first — address space, as for
        /// `lo`: the halves below `at` are written, the rest untouched. A
        /// zeroed allocation (`calloc`) instead cleared all of it whenever
        /// the allocator reused memory: a fuzz campaign, one ring per case,
        /// ran 2.5× slower and peaked at 40 MiB instead of 9.
        #[cold]
        #[inline(never)]
        fn extend_wide_halves(&mut self, capacity: usize, at: usize) {
            let hi = &mut self.slots.hi;
            hi.reserve_exact(capacity - hi.len());
            hi.resize(at + 1, [0; 4]);
        }

        /// [`Ring::push`] into a ring that reserves nothing: its first
        /// record, or its first since a snapshot. Reserves the whole ring,
        /// or takes the lent slots back — the same allocations once no
        /// snapshot holds them, else a copy of both halves into a whole
        /// ring of its own.
        #[cold]
        #[inline(never)]
        fn reserve_and_push(&mut self, capacity: usize, slot: Slot) -> bool {
            self.slots = match self.lent.take().map(Arc::try_unwrap) {
                None => Slots::default(),
                Some(Ok(slots)) => slots,
                Some(Err(shared)) => {
                    let whole = |halves: &[Half]| {
                        let mut copy = Vec::with_capacity(capacity);
                        copy.extend_from_slice(halves);
                        copy
                    };
                    Slots {
                        lo: whole(&shared.lo),
                        hi: if shared.hi.is_empty() {
                            Vec::new()
                        } else {
                            whole(&shared.hi)
                        },
                    }
                }
            };
            self.slots.lo.reserve_exact(capacity - self.slots.lo.len());
            self.push(capacity, slot)
        }

        pub(super) fn len(&self) -> usize {
            self.lent.as_deref().map_or(self.slots.len(), Slots::len)
        }

        /// The retained slots and the index of the oldest, lent or not.
        pub(super) fn slots(&self) -> (&Slots, usize) {
            // Slots overwritten since the last lap are still in flight.
            fence();
            (self.lent.as_deref().unwrap_or(&self.slots), self.head)
        }

        /// The retained slots and the index of the oldest, for a snapshot
        /// to keep: the ring's own allocations, not a copy. The ring writes
        /// no slot of them again; its next record takes them back.
        pub(super) fn lend(&mut self) -> (Arc<Slots>, usize) {
            // Slots overwritten since the last lap are still in flight.
            fence();
            let slots = &mut self.slots;
            let lent = self
                .lent
                .get_or_insert_with(|| Arc::new(std::mem::take(slots)));
            (Arc::clone(lent), self.head)
        }

        /// Where the first halves the ring writes live, how many fit there,
        /// and how many wide halves it has allocated.
        #[cfg(test)]
        pub(super) fn reserved(&self) -> (*const Half, usize, usize) {
            let Slots { lo, hi } = &self.slots;
            (lo.as_ptr(), lo.capacity(), hi.capacity())
        }
    }

    impl Drop for Ring {
        fn drop(&mut self) {
            // The slots go back to the allocator: streamed stores land first.
            fence();
        }
    }

    /// Overwrite `dst` with `src` without bringing `dst` into the cache.
    #[inline(always)]
    fn stream(dst: &mut Half, src: Half) {
        #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
        for (word, value) in dst.iter_mut().zip(src) {
            // SAFETY: `word` is a live, aligned `&mut u64` inside a half of
            // the ring, and SSE2 is statically enabled (the `cfg` above).
            // The ring writes only halves it owns alone: a snapshot's `Arc`
            // holds lent slots, which the ring takes back only from the
            // last holder. The ring is reachable only through a non-`Send`
            // `Rc`, so no thread but this one can touch it, and this one
            // accesses the half again only in this module, after the lap,
            // visit, lend or drop fence.
            unsafe { core::arch::x86_64::_mm_stream_si64((word as *mut u64).cast(), value as i64) };
        }
        #[cfg(not(all(target_arch = "x86_64", target_feature = "sse2")))]
        {
            *dst = src;
        }
    }

    /// Order every earlier [`stream`] before any later access to memory.
    #[inline]
    fn fence() {
        #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
        // SAFETY: SSE2, and with it SSE, is statically enabled (the `cfg`
        // above); `sfence` touches no memory.
        unsafe {
            core::arch::x86_64::_mm_sfence()
        };
    }
}

#[derive(Default)]
struct TraceBuf {
    ring: ring::Ring,
    /// Interned labels by id: the one copy of each.
    labels: Vec<String>,
    /// Every label id, sorted by its label: what [`Tracer::intern`]
    /// searches.
    by_label: Vec<u32>,
    dropped: u64,
}

/// Everything a [`Tracer`] holds, read where it lies: the visitor of
/// [`Tracer::visit`] gets one. Nothing is copied — the records are
/// unpacked from the ring one at a time as [`TraceView::records`] yields
/// them — so a reader that scans once pays for no [`TraceData`].
pub struct TraceView<'a> {
    slots: &'a Slots,
    head: usize,
    /// Interned queue/link labels; `TraceRecord::label` indexes here.
    pub labels: &'a [String],
    /// Records evicted from the ring buffer so far.
    pub dropped: u64,
    /// Ring-buffer capacity the recorder runs with.
    pub capacity: u64,
    /// Sampling modulus the recorder runs with.
    pub sample_one_in: u64,
    /// Sampling seed the recorder runs with.
    pub seed: u64,
}

impl<'a> TraceView<'a> {
    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = TraceRecord> + 'a {
        oldest_first(self.slots, self.head)
    }
}

/// The flight recorder. Cheaply cloneable; clones share one buffer.
/// The default value is *disabled*: sampling answers `false`,
/// recording is a no-op, and snapshots are empty.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Rc<RefCell<TraceBuf>>>,
    capacity: usize,
    sample_one_in: u64,
    seed: u64,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(b) => write!(f, "Tracer(records={})", b.borrow().ring.len()),
            None => write!(f, "Tracer(disabled)"),
        }
    }
}

impl Tracer {
    /// A recording instance with the given configuration.
    pub fn enabled(cfg: TraceConfig) -> Tracer {
        Tracer {
            inner: Some(Rc::new(RefCell::new(TraceBuf::default()))),
            capacity: cfg.capacity,
            sample_one_in: cfg.sample_one_in.max(1),
            seed: cfg.seed,
        }
    }

    /// A non-recording instance (same as `Tracer::default()`).
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether `flow` is in the sampled subset: a pure function of the
    /// configured seed and the flow id, so reruns trace the same flows.
    /// Always `false` when disabled.
    #[inline]
    pub fn sampled(&self, flow: u64) -> bool {
        match &self.inner {
            Some(_) => {
                self.sample_one_in <= 1
                    || stable_hash(&[self.seed, flow]).is_multiple_of(self.sample_one_in)
            }
            None => false,
        }
    }

    /// Intern a queue/link label, returning its stable id (first-seen
    /// order). Returns [`NO_LABEL`] when disabled.
    pub fn intern(&self, label: &str) -> u32 {
        let Some(buf) = &self.inner else {
            return NO_LABEL;
        };
        let buf = &mut *buf.borrow_mut();
        let labels = &buf.labels;
        match (buf.by_label).binary_search_by(|&id| labels[id as usize].as_str().cmp(label)) {
            Ok(at) => buf.by_label[at],
            Err(at) => {
                let id = buf.labels.len() as u32;
                buf.labels.push(label.to_string());
                buf.by_label.insert(at, id);
                id
            }
        }
    }

    /// Append one record, evicting (and counting) the oldest at
    /// capacity. Callers are expected to have checked
    /// [`Tracer::sampled`]; recording is unconditional here so
    /// non-flow records (if any) can still be traced.
    #[inline]
    pub fn record(&self, record: TraceRecord) {
        if let Some(buf) = &self.inner {
            let buf = &mut *buf.borrow_mut();
            if buf.ring.push(self.capacity, Slot::pack(record)) {
                buf.dropped += 1;
            }
        }
    }

    /// Records evicted so far (0 when disabled).
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |b| b.borrow().dropped)
    }

    /// Records currently retained (0 when disabled).
    pub fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, |b| b.borrow().ring.len())
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hand `visitor` everything recorded so far, in place (nothing when
    /// disabled), and return what it returns. The recorder stays borrowed
    /// for the call: the visitor must not record on it.
    pub fn visit<R>(&self, visitor: impl FnOnce(TraceView<'_>) -> R) -> R {
        let buf = self.inner.as_ref().map(|buf| buf.borrow());
        let none = Slots::default();
        let (slots, head) = buf.as_ref().map_or((&none, 0), |b| b.ring.slots());
        visitor(TraceView {
            slots,
            head,
            labels: buf.as_ref().map_or(&[][..], |b| &b.labels),
            dropped: buf.as_ref().map_or(0, |b| b.dropped),
            capacity: self.capacity as u64,
            sample_one_in: self.sample_one_in,
            seed: self.seed,
        })
    }

    /// Snapshot everything recorded so far (empty when disabled). The
    /// records are the ring itself, lent in O(1): nothing is decoded or
    /// copied unless the recorder records again while the snapshot lives.
    pub fn snapshot(&self) -> TraceData {
        let mut buf = self.inner.as_ref().map(|buf| buf.borrow_mut());
        let (slots, head) = buf
            .as_mut()
            .map_or_else(Default::default, |b| b.ring.lend());
        TraceData {
            records: Records { slots, head },
            labels: buf.as_ref().map_or_else(Vec::new, |b| b.labels.clone()),
            dropped: buf.as_ref().map_or(0, |b| b.dropped),
            capacity: self.capacity as u64,
            sample_one_in: self.sample_one_in,
            seed: self.seed,
        }
    }
}

/// Nearest-rank `p`-quantile of a sorted slice (`None` if empty).
fn quantile_sorted(sorted: &[u64], p: f64) -> Option<u64> {
    let rank = nearest_rank(p, sorted.len() as u64) as usize;
    sorted.get(rank - 1).copied()
}

fn fmt_opt(v: Option<u64>) -> String {
    v.map_or_else(|| "-".to_string(), |v| v.to_string())
}

fn percentile_row(name: String, values: &mut [u64]) -> Vec<String> {
    values.sort_unstable();
    vec![
        name,
        values.len().to_string(),
        fmt_opt(quantile_sorted(values, 0.50)),
        fmt_opt(quantile_sorted(values, 0.90)),
        fmt_opt(quantile_sorted(values, 0.99)),
        fmt_opt(values.last().copied()),
    ]
}

/// Render a textual per-hop latency breakdown: queueing delay per tenant
/// and per hop, link serialization and propagation per hop, end-to-end
/// delivery latency per tenant, and the inversion timeline naming the
/// exact packet pairs that inverted and in which queue.
pub fn render_report(data: &TraceData) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "trace report ({} span(s) retained, {} evicted, sampling 1-in-{}, seed {})\n",
        data.records.len(),
        data.dropped,
        data.sample_one_in.max(1),
        data.seed,
    ));
    if data.dropped > 0 {
        out.push_str("warning: ring buffer overflowed — the oldest spans are missing\n");
    }

    // (tenant, queue) -> queueing waits; queue -> (tx, prop) times.
    let mut queueing: BTreeMap<(u16, u32), Vec<u64>> = BTreeMap::new();
    let mut serialization: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    let mut propagation: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    let mut delivery: BTreeMap<u16, Vec<u64>> = BTreeMap::new();
    let mut inversions: Vec<TraceRecord> = Vec::new();
    let mut drops = 0u64;
    for r in data.records.iter() {
        match r.kind {
            TraceKind::Dequeue { wait_ns, .. } => {
                queueing
                    .entry((r.tenant, r.label))
                    .or_default()
                    .push(wait_ns);
            }
            TraceKind::TxStart { tx_ns, prop_ns, .. } => {
                serialization.entry(r.label).or_default().push(tx_ns);
                propagation.entry(r.label).or_default().push(prop_ns);
            }
            TraceKind::Deliver { latency_ns } => {
                delivery.entry(r.tenant).or_default().push(latency_ns);
            }
            TraceKind::Inversion { .. } => inversions.push(r),
            TraceKind::Drop { .. } => drops += 1,
            _ => {}
        }
    }

    let label_name = |id: u32| -> String {
        data.labels
            .get(id as usize)
            .cloned()
            .unwrap_or_else(|| "-".to_string())
    };
    let headers: Vec<String> = ["where", "count", "p50", "p90", "p99", "max"]
        .iter()
        .map(|s| s.to_string())
        .collect();

    if !queueing.is_empty() {
        out.push_str("\nqueueing delay (ns), per tenant and hop:\n");
        let rows: Vec<Vec<String>> = queueing
            .iter_mut()
            .map(|(&(tenant, label), waits)| {
                percentile_row(format!("T{tenant} @ {}", label_name(label)), waits)
            })
            .collect();
        crate::report::render_table(&mut out, &headers, &rows);
    }
    if !serialization.is_empty() {
        out.push_str("\nlink serialization (ns), per hop:\n");
        let rows: Vec<Vec<String>> = serialization
            .iter_mut()
            .map(|(&label, txs)| percentile_row(label_name(label), txs))
            .collect();
        crate::report::render_table(&mut out, &headers, &rows);
    }
    if !propagation.is_empty() {
        out.push_str("\npropagation (ns), per hop:\n");
        let rows: Vec<Vec<String>> = propagation
            .iter_mut()
            .map(|(&label, props)| percentile_row(label_name(label), props))
            .collect();
        crate::report::render_table(&mut out, &headers, &rows);
    }
    if !delivery.is_empty() {
        out.push_str("\nend-to-end delivery latency (ns), per tenant:\n");
        let rows: Vec<Vec<String>> = delivery
            .iter_mut()
            .map(|(&tenant, lats)| percentile_row(format!("T{tenant}"), lats))
            .collect();
        crate::report::render_table(&mut out, &headers, &rows);
    }
    if drops > 0 {
        out.push_str(&format!("\ndrops traced: {drops}\n"));
    }

    out.push_str(&format!("\ninversions ({}):\n", inversions.len()));
    if inversions.is_empty() {
        out.push_str("  none — every traced dequeue respected rank order\n");
    }
    for r in inversions {
        if let TraceKind::Inversion {
            rank,
            loser_flow,
            loser_seq,
            loser_rank,
        } = r.kind
        {
            out.push_str(&format!(
                "  t={}ns {}: T{} f{}#{} (rank {rank}) dequeued before f{loser_flow}#{loser_seq} (rank {loser_rank})\n",
                r.t.as_nanos(),
                label_name(r.label),
                r.tenant,
                r.flow,
                r.seq,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qvisor_sim::rng::SimRng;
    use std::collections::{BTreeSet, VecDeque};

    fn sample_data() -> TraceData {
        let q = 0u32;
        TraceData {
            records: [
                TraceRecord::new(Nanos(0), 1, 0, 1, TraceKind::FlowStart { size: 3000 }),
                TraceRecord::new(Nanos(10), 1, 0, 1, TraceKind::RankComputed { rank: 9 }),
                TraceRecord::new(Nanos(11), 1, 0, 1, TraceKind::Transform { pre: 9, post: 4 })
                    .at_label(q),
                TraceRecord::new(Nanos(12), 1, 0, 1, TraceKind::Enqueue { rank: 4 }).at_label(q),
                TraceRecord::new(
                    Nanos(500),
                    1,
                    0,
                    1,
                    TraceKind::Dequeue {
                        rank: 4,
                        wait_ns: 488,
                    },
                )
                .at_label(q),
                TraceRecord::new(
                    Nanos(500),
                    1,
                    0,
                    1,
                    TraceKind::Inversion {
                        rank: 4,
                        loser_flow: 2,
                        loser_seq: 7,
                        loser_rank: 1,
                    },
                )
                .at_label(q),
                TraceRecord::new(
                    Nanos(500),
                    1,
                    0,
                    1,
                    TraceKind::TxStart {
                        bytes: 1500,
                        tx_ns: 12_000,
                        prop_ns: 1_000,
                    },
                )
                .at_label(q),
                TraceRecord::new(
                    Nanos(13_500),
                    1,
                    0,
                    1,
                    TraceKind::Deliver { latency_ns: 13_500 },
                ),
                TraceRecord::new(Nanos(14_000), 1, 0, 1, TraceKind::Ack { latency_ns: 400 })
                    .as_ack(true),
            ]
            .into_iter()
            .collect(),
            labels: vec!["n0.p0".to_string()],
            dropped: 2,
            capacity: 1024,
            sample_one_in: 1,
            seed: 7,
        }
    }

    /// The export as the compact [`Value`] rendering of one object per
    /// line — the definition `to_jsonl`'s direct writes must reproduce.
    fn value_jsonl(data: &TraceData) -> String {
        let mut out = Value::object()
            .set("type", "trace_meta")
            .set("schema", TRACE_SCHEMA_VERSION)
            .set("dropped", data.dropped)
            .set("capacity", data.capacity)
            .set("sample_one_in", data.sample_one_in)
            .set("seed", data.seed)
            .to_compact();
        out.push('\n');
        for r in data.records.iter() {
            let mut line = Value::object()
                .set("type", "span")
                .set("t_ns", r.t)
                .set("flow", r.flow)
                .set("seq", r.seq)
                .set("tenant", r.tenant);
            if r.ack {
                line = line.set("ack", true);
            }
            if let Some(label) = data.label_of(&r) {
                line = line.set("queue", label);
            }
            line = line.set("kind", r.kind.tag());
            line = match r.kind {
                TraceKind::FlowStart { size } => line.set("size", size),
                TraceKind::RankComputed { rank } => line.set("rank", rank),
                TraceKind::Transform { pre, post } => line.set("pre", pre).set("post", post),
                TraceKind::Enqueue { rank } => line.set("rank", rank),
                TraceKind::Dequeue { rank, wait_ns } => {
                    line.set("rank", rank).set("wait_ns", wait_ns)
                }
                TraceKind::Drop { rank } => line.set("rank", rank),
                TraceKind::Inversion {
                    rank,
                    loser_flow,
                    loser_seq,
                    loser_rank,
                } => line
                    .set("rank", rank)
                    .set("loser_flow", loser_flow)
                    .set("loser_seq", loser_seq)
                    .set("loser_rank", loser_rank),
                TraceKind::TxStart {
                    bytes,
                    tx_ns,
                    prop_ns,
                } => line
                    .set("bytes", bytes)
                    .set("tx_ns", tx_ns)
                    .set("prop_ns", prop_ns),
                TraceKind::Deliver { latency_ns } => line.set("latency_ns", latency_ns),
                TraceKind::Ack { latency_ns } => line.set("latency_ns", latency_ns),
            };
            out.push_str(&line.to_compact());
            out.push('\n');
        }
        out
    }

    /// Every kind, with and without `ack` and a label, and fields at both
    /// ends of `u64`.
    fn exhaustive_records() -> Vec<TraceRecord> {
        let max = u64::MAX;
        let kinds = [
            TraceKind::FlowStart { size: max },
            TraceKind::RankComputed { rank: 0 },
            TraceKind::Transform { pre: max, post: 0 },
            TraceKind::Enqueue { rank: max },
            TraceKind::Dequeue {
                rank: 7,
                wait_ns: max,
            },
            TraceKind::Drop { rank: max },
            TraceKind::Inversion {
                rank: max,
                loser_flow: max,
                loser_seq: max,
                loser_rank: max - 1,
            },
            TraceKind::TxStart {
                bytes: max,
                tx_ns: 0,
                prop_ns: max,
            },
            TraceKind::Deliver { latency_ns: max },
            TraceKind::Ack { latency_ns: 0 },
        ];
        let mut records = Vec::new();
        for (i, &kind) in kinds.iter().enumerate() {
            for (label, ack) in [(NO_LABEL, false), (0, true), (1, false), (1, true)] {
                let t = if i % 2 == 0 {
                    Nanos(max)
                } else {
                    Nanos(i as u64)
                };
                records.push(
                    TraceRecord::new(t, max - i as u64, i as u64, u16::MAX, kind)
                        .at_label(label)
                        .as_ack(ack),
                );
            }
        }
        records
    }

    /// [`exhaustive_records`] with a label that needs every sort of escape.
    fn exhaustive_data() -> TraceData {
        let max = u64::MAX;
        TraceData {
            records: exhaustive_records().into_iter().collect(),
            labels: vec![
                "n0.p0".to_string(),
                "q\"uo\\te\n\ttab\u{1}\u{8}\u{c}\r é→".to_string(),
            ],
            dropped: max,
            capacity: 3,
            sample_one_in: max,
            seed: max,
        }
    }

    #[test]
    fn direct_jsonl_equals_the_value_rendering() {
        for data in [sample_data(), exhaustive_data(), TraceData::default()] {
            let jsonl = data.to_jsonl();
            assert_eq!(jsonl, value_jsonl(&data));
            assert_eq!(TraceData::parse(&jsonl).unwrap(), data);
        }
        // A label id past the table renders, like `NO_LABEL`, as no queue.
        let mut dangling = sample_data();
        dangling.records = (dangling.records.iter().enumerate())
            .map(|(i, r)| if i == 2 { r.at_label(9) } else { r })
            .collect();
        assert_eq!(dangling.to_jsonl(), value_jsonl(&dangling));
    }

    #[test]
    fn jsonl_round_trip_is_byte_identical() {
        // A wrapped snapshot of seeded records of every shape, labelled.
        let t = Tracer::enabled(TraceConfig {
            capacity: 64,
            sample_one_in: 3,
            seed: 11,
        });
        t.intern("n0.p0");
        t.intern("q\"uo\\te\n");
        let mut rng = SimRng::seed_from(12);
        (0..200).for_each(|_| {
            let label = [NO_LABEL, 0, 1][rng.below(3) as usize];
            t.record(any_record(&mut rng).at_label(label));
        });
        for data in [sample_data(), t.snapshot()] {
            let jsonl = data.to_jsonl();
            for line in jsonl.lines() {
                Value::parse(line).expect("valid JSON line");
            }
            let parsed = TraceData::parse(&jsonl).unwrap();
            assert_eq!(parsed.to_jsonl(), jsonl);
        }
        // Label ids come back in first-seen order, as the sample's are.
        let data = sample_data();
        assert_eq!(TraceData::parse(&data.to_jsonl()).unwrap(), data);
    }

    #[test]
    fn parse_rejects_garbage_and_tolerates_unknowns() {
        assert!(TraceData::parse("").is_err());
        let err = TraceData::parse("{\"type\":\"trace_meta\"}\nnope\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        // A tenant id that does not fit `u16` is refused, not truncated.
        let span = |tenant: u64| {
            format!(
                "{{\"type\":\"trace_meta\"}}\n{{\"type\":\"span\",\"t_ns\":1,\"flow\":1,\
                 \"seq\":0,\"tenant\":{tenant},\"kind\":\"rank\",\"rank\":3}}\n"
            )
        };
        assert_eq!(
            TraceData::parse(&span(70_001)).unwrap_err(),
            "line 2: tenant 70001 out of range"
        );
        let max = TraceData::parse(&span(u64::from(u16::MAX))).unwrap();
        assert_eq!(max.records.last().unwrap().tenant, u16::MAX);
        let ok = TraceData::parse(
            "{\"type\":\"mystery\"}\n{\"type\":\"span\",\"kind\":\"hologram\",\"t_ns\":1}\n",
        )
        .unwrap();
        assert!(ok.records.is_empty());
    }

    #[test]
    fn report_breaks_down_latency_and_names_inversion_pairs() {
        let text = render_report(&sample_data());
        assert!(text.contains("queueing delay"), "{text}");
        assert!(text.contains("T1 @ n0.p0"), "{text}");
        assert!(text.contains("link serialization"), "{text}");
        assert!(text.contains("12000"), "{text}");
        assert!(text.contains("end-to-end delivery latency"), "{text}");
        assert!(
            text.contains("f1#0 (rank 4) dequeued before f2#7 (rank 1)"),
            "{text}"
        );
        assert!(text.contains("warning: ring buffer overflowed"), "{text}");
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        assert!(!t.sampled(0));
        assert_eq!(t.intern("q"), NO_LABEL);
        t.record(TraceRecord::new(
            Nanos(1),
            1,
            0,
            0,
            TraceKind::FlowStart { size: 1 },
        ));
        assert!(t.is_empty());
        assert_eq!(t.snapshot(), TraceData::default());
    }

    #[test]
    fn sampling_is_deterministic_and_thins() {
        let cfg = TraceConfig {
            sample_one_in: 8,
            seed: 42,
            ..TraceConfig::default()
        };
        let a = Tracer::enabled(cfg);
        let b = Tracer::enabled(cfg);
        let picked: Vec<u64> = (0..1000).filter(|&f| a.sampled(f)).collect();
        let again: Vec<u64> = (0..1000).filter(|&f| b.sampled(f)).collect();
        assert_eq!(picked, again, "sampling must be a pure function");
        assert!(
            picked.len() > 50 && picked.len() < 250,
            "1-in-8 of 1000 flows picked {}",
            picked.len()
        );
        // A different seed picks a different subset.
        let c = Tracer::enabled(TraceConfig { seed: 43, ..cfg });
        let other: Vec<u64> = (0..1000).filter(|&f| c.sampled(f)).collect();
        assert_ne!(picked, other);
        // 1-in-1 samples everything.
        let all = Tracer::enabled(TraceConfig {
            sample_one_in: 1,
            ..TraceConfig::default()
        });
        assert!((0..100).all(|f| all.sampled(f)));
    }

    /// Push `records` into a ring of `capacity`, checking after every push
    /// that it agrees with a `Vec` model — it retains the last `capacity`
    /// records, oldest first, and counts the rest as dropped — and return
    /// the final `(retained timestamps, dropped)`.
    fn ring_after(capacity: usize, records: &[TraceRecord]) -> (Vec<u64>, u64) {
        let t = Tracer::enabled(TraceConfig {
            capacity,
            ..TraceConfig::default()
        });
        for (i, &record) in records.iter().enumerate() {
            t.record(record);
            let model = &records[..=i];
            let kept = &model[model.len() - model.len().min(capacity)..];
            let snap = t.snapshot();
            assert!(
                snap.records.iter().eq(kept.iter().copied()),
                "capacity {capacity}, push {i}"
            );
            assert_eq!(t.len(), kept.len(), "capacity {capacity}, push {i}");
            assert_eq!(t.dropped(), (model.len() - kept.len()) as u64);
            assert_eq!(snap.dropped, t.dropped());
        }
        let snap = t.snapshot();
        (
            snap.records.iter().map(|r| r.t.as_nanos()).collect(),
            snap.dropped,
        )
    }

    /// `pushes` records stamped `0, 1, 2, …`.
    fn stamped(pushes: u64) -> Vec<TraceRecord> {
        (0..pushes)
            .map(|i| TraceRecord::new(Nanos(i), i, 0, 0, TraceKind::FlowStart { size: i }))
            .collect()
    }

    /// 0, `u64::MAX`, a random word, one either side of 2^32, or a random
    /// word below 2^20: both slot forms, and every edge between them.
    fn any_word(rng: &mut SimRng) -> u64 {
        match rng.below(6) {
            0 => 0,
            1 => u64::MAX,
            2 => rng.next(),
            3 => u64::from(u32::MAX),
            4 => 1 << 32,
            _ => rng.below(1 << 20),
        }
    }

    /// A seeded record of any kind, `ack` either way, labelled `NO_LABEL`,
    /// `u32::MAX - 1` or 0, with tenant 0, `u16::MAX` or random and every
    /// `u64` field drawn by [`any_word`].
    fn any_record(rng: &mut SimRng) -> TraceRecord {
        let [a, b, c, d] = [(); 4].map(|_| any_word(rng));
        let kind = match rng.below(10) {
            0 => TraceKind::FlowStart { size: a },
            1 => TraceKind::RankComputed { rank: a },
            2 => TraceKind::Transform { pre: a, post: b },
            3 => TraceKind::Enqueue { rank: a },
            4 => TraceKind::Dequeue {
                rank: a,
                wait_ns: b,
            },
            5 => TraceKind::Drop { rank: a },
            6 => TraceKind::Inversion {
                rank: a,
                loser_flow: b,
                loser_seq: c,
                loser_rank: d,
            },
            7 => TraceKind::TxStart {
                bytes: a,
                tx_ns: b,
                prop_ns: c,
            },
            8 => TraceKind::Deliver { latency_ns: a },
            _ => TraceKind::Ack { latency_ns: a },
        };
        let tenant = [0, u16::MAX, rng.next() as u16][rng.below(3) as usize];
        TraceRecord::new(
            Nanos(any_word(rng)),
            any_word(rng),
            any_word(rng),
            tenant,
            kind,
        )
        .at_label([NO_LABEL, u32::MAX - 1, 0][rng.below(3) as usize])
        .as_ack(rng.below(2) == 1)
    }

    /// [`any_record`], drawn again until it packs compact.
    fn any_compact_record(rng: &mut SimRng) -> TraceRecord {
        loop {
            let r = any_record(rng);
            if Slot::pack(r).hi.is_none() {
                return r;
            }
        }
    }

    #[test]
    fn ring_buffer_evicts_oldest_and_counts() {
        assert_eq!(ring_after(3, &stamped(2)), (vec![0, 1], 0), "not yet full");
        assert_eq!(
            ring_after(3, &stamped(3)),
            (vec![0, 1, 2], 0),
            "exactly full"
        );
        assert_eq!(
            ring_after(3, &stamped(4)),
            (vec![1, 2, 3], 1),
            "first overwrite"
        );
        assert_eq!(ring_after(3, &stamped(5)), (vec![2, 3, 4], 2));
        assert_eq!(
            ring_after(3, &stamped(9)),
            (vec![6, 7, 8], 6),
            "wrapped twice"
        );
        assert_eq!(ring_after(4, &stamped(12)), (vec![8, 9, 10, 11], 8));
        assert_eq!(ring_after(1, &stamped(1)), (vec![0], 0));
        assert_eq!(ring_after(1, &stamped(4)), (vec![3], 3));
        assert_eq!(ring_after(0, &stamped(0)), (vec![], 0));
        assert_eq!(
            ring_after(0, &stamped(4)),
            (vec![], 4),
            "capacity 0 keeps nothing"
        );

        // Seeded records of every shape, through twenty laps of each ring.
        let mut rng = SimRng::seed_from(25);
        let (mut kinds, mut forms) = (BTreeSet::new(), BTreeSet::new());
        for capacity in [0, 1, 3, 7, 64] {
            let records: Vec<TraceRecord> = (0..20 * capacity.max(1) + 3)
                .map(|_| any_record(&mut rng))
                .collect();
            kinds.extend(records.iter().map(|r| r.kind.tag()));
            forms.extend(records.iter().map(|&r| Slot::pack(r).hi.is_some()));
            ring_after(capacity, &records);
        }
        assert_eq!(kinds.len(), 10, "every kind went through a ring");
        assert_eq!(forms.len(), 2, "both slot forms went through a ring");
        for r in exhaustive_records() {
            assert_eq!(Slot::pack(r).unpack(), r);
        }
    }

    /// Records on each side of every edge between the two slot forms, each
    /// with whether it is wide: `flow`, `seq` and both fields of each
    /// two-field kind at 2^32 − 1 and 2^32, the `TxStart` fields at 2^20 −
    /// 1 / 2^20 and 2^24 − 1 / 2^24, and `Inversion` however small, under
    /// both edge labels and either `ack`.
    fn edge_records() -> Vec<(TraceRecord, bool)> {
        let (below, at) = (u64::from(u32::MAX), 1u64 << 32);
        let one_field = [
            TraceKind::FlowStart { size: u64::MAX },
            TraceKind::RankComputed { rank: u64::MAX },
            TraceKind::Enqueue { rank: u64::MAX },
            TraceKind::Drop { rank: u64::MAX },
            TraceKind::Deliver {
                latency_ns: u64::MAX,
            },
            TraceKind::Ack {
                latency_ns: u64::MAX,
            },
        ];
        let mut kinds: Vec<(TraceKind, bool)> = one_field.iter().map(|&k| (k, false)).collect();
        for (a, b) in [(below, below), (at, 0), (0, at)] {
            let wide = a == at || b == at;
            kinds.push((TraceKind::Transform { pre: a, post: b }, wide));
            kinds.push((
                TraceKind::Dequeue {
                    rank: a,
                    wait_ns: b,
                },
                wide,
            ));
        }
        let tx = |bytes, tx_ns, prop_ns| TraceKind::TxStart {
            bytes,
            tx_ns,
            prop_ns,
        };
        let (b20, b24) = (1u64 << 20, 1u64 << 24);
        kinds.push((tx(b20 - 1, b24 - 1, b20 - 1), false));
        kinds.push((tx(b20, 0, 0), true));
        kinds.push((tx(0, b24, 0), true));
        kinds.push((tx(0, 0, b20), true));
        let inversion = TraceKind::Inversion {
            rank: 0,
            loser_flow: 0,
            loser_seq: 0,
            loser_rank: 0,
        };
        kinds.push((inversion, true));
        let mut records = Vec::new();
        for (kind, wide) in kinds {
            for (flow, seq) in [(below, below), (at, 0), (0, at)] {
                for (label, ack) in [(NO_LABEL, true), (u32::MAX - 1, false)] {
                    let r = TraceRecord::new(Nanos(u64::MAX), flow, seq, u16::MAX, kind)
                        .at_label(label)
                        .as_ack(ack);
                    records.push((r, wide || flow == at || seq == at));
                }
            }
        }
        records
    }

    #[test]
    fn each_record_takes_the_form_its_fields_fit() {
        assert_eq!(std::mem::size_of::<Half>(), 32);
        let edges = edge_records();
        for &(r, wide) in &edges {
            let slot = Slot::pack(r);
            assert_eq!(slot.hi.is_some(), wide, "{r:?}");
            assert_eq!(Slot::is_wide(&slot.lo), wide, "{r:?}");
            assert_eq!(slot.unpack(), r);
        }
        let wide = edges.iter().filter(|(_, wide)| *wide).count();
        assert!(wide > 0 && wide < edges.len(), "both forms");
        // Collected, and through a ring that wraps, in either order.
        let records: Vec<TraceRecord> = edges.iter().map(|&(r, _)| r).collect();
        let collected: Records = records.iter().copied().collect();
        assert!(collected.iter().eq(records.iter().copied()));
        let reversed: Vec<TraceRecord> = records.iter().rev().copied().collect();
        for capacity in [5, records.len()] {
            ring_after(capacity, &records);
            ring_after(capacity, &reversed);
        }
    }

    #[test]
    fn a_ring_of_compact_records_reserves_32_bytes_a_record_and_no_wide_half() {
        let capacity = TraceConfig::default().capacity;
        let t = Tracer::enabled(TraceConfig::default());
        let reserved = || t.inner.as_ref().unwrap().borrow().ring.reserved();
        let dequeue = |i: u64| {
            let kind = TraceKind::Dequeue {
                rank: i,
                wait_ns: 2 * i,
            };
            TraceRecord::new(Nanos(i), i % 2_048, i % 8_192, 1, kind)
        };
        (0..capacity as u64 + 1_000).for_each(|i| t.record(dequeue(i)));
        let (_, lo, hi) = reserved();
        assert_eq!(lo * std::mem::size_of::<Half>(), capacity * 32);
        assert_eq!(hi, 0, "no wide record, no wide half");
        assert_eq!(t.dropped(), 1_000);
        // The first wide record allocates the whole wide half.
        let inversion = TraceKind::Inversion {
            rank: 9,
            loser_flow: 1,
            loser_seq: 2,
            loser_rank: 3,
        };
        let wide = TraceRecord::new(Nanos(u64::MAX), 7, 7, 1, inversion);
        t.record(wide);
        assert_eq!(reserved().2, capacity);
        // Reserved whole, zeroed only as far as the record's slot, 1,000.
        let zeroed = || t.inner.as_ref().unwrap().borrow().ring.slots().0.hi.len();
        assert_eq!(zeroed(), 1_001);
        assert_eq!(t.snapshot().records.last(), Some(wide));
    }

    #[test]
    fn a_first_wide_record_mid_lap_leaves_a_held_snapshot_alone() {
        let t = Tracer::enabled(TraceConfig {
            capacity: 7,
            ..TraceConfig::default()
        });
        let reserved = || t.inner.as_ref().unwrap().borrow().ring.reserved();
        let compact = stamped(10);
        compact.iter().for_each(|&r| t.record(r));
        let held = t.snapshot();
        assert_eq!(held.records.head, 3, "mid-lap");
        let wide = TraceRecord::new(Nanos(10), 1 << 40, 0, 0, TraceKind::FlowStart { size: 3 });
        t.record(wide);
        let storage = reserved();
        assert_eq!(storage.2, 7, "the wide half, allocated by the copy");
        assert!(held.records.iter().eq(compact[3..].iter().copied()));
        drop(held);
        // Lent with its wide half, taken back with it.
        let mut model = compact[4..].to_vec();
        model.push(wide);
        let again = t.snapshot();
        assert!(again.records.iter().eq(model.iter().copied()));
        drop(again);
        t.record(compact[0]);
        assert_eq!(reserved(), storage, "both halves taken back");
        model.remove(0);
        model.push(compact[0]);
        t.visit(|view| assert!(view.records().eq(model.iter().copied())));
    }

    #[test]
    fn clones_share_one_buffer_and_label_table() {
        let t = Tracer::enabled(TraceConfig::default());
        let t2 = t.clone();
        let a = t.intern("n0.p0");
        let b = t2.intern("n0.p0");
        assert_eq!(a, b);
        assert_eq!(t2.intern("n0.p1"), a + 1);
        t.record(TraceRecord::new(Nanos(1), 1, 0, 0, TraceKind::Enqueue { rank: 5 }).at_label(a));
        assert_eq!(t2.len(), 1);
        let snap = t2.snapshot();
        assert_eq!(snap.label_of(&snap.records.last().unwrap()), Some("n0.p0"));
    }

    #[test]
    fn a_label_interns_once_under_its_first_seen_id() {
        let t = Tracer::enabled(TraceConfig::default());
        let mut rng = SimRng::seed_from(30);
        let mut first_seen: Vec<String> = Vec::new();
        for _ in 0..2_000 {
            let label = format!("n{}.p{}", rng.below(40), rng.below(6));
            let id = t.intern(&label);
            let at = first_seen.iter().position(|l| *l == label);
            assert_eq!(id as usize, at.unwrap_or(first_seen.len()), "{label}");
            if at.is_none() {
                first_seen.push(label);
            }
        }
        assert_eq!(t.snapshot().labels, first_seen);
    }

    #[test]
    fn the_visitor_reads_a_wrapped_ring_oldest_first_in_place() {
        let t = Tracer::enabled(TraceConfig {
            capacity: 300,
            sample_one_in: 3,
            seed: 5,
        });
        let label = t.intern("n0.p0");
        stamped(1_000)
            .into_iter()
            .for_each(|r| t.record(r.at_label(label)));
        t.visit(|view| {
            let stamps: Vec<u64> = view.records().map(|r| r.t.as_nanos()).collect();
            assert_eq!(stamps, (700..1_000).collect::<Vec<u64>>());
            assert_eq!(view.labels, ["n0.p0"]);
            assert_eq!((view.dropped, view.capacity), (700, 300));
            assert_eq!((view.sample_one_in, view.seed), (3, 5));
        });
        Tracer::disabled().visit(|view| {
            assert_eq!(view.records().count() + view.labels.len(), 0);
            assert_eq!(view.dropped, 0);
        });
    }

    #[test]
    fn snapshot_jsonl_round_trips() {
        let t = Tracer::enabled(TraceConfig {
            sample_one_in: 4,
            seed: 9,
            ..TraceConfig::default()
        });
        let q = t.intern("n1.p2");
        t.record(TraceRecord::new(Nanos(5), 3, 1, 2, TraceKind::Enqueue { rank: 8 }).at_label(q));
        t.record(TraceRecord::new(
            Nanos(9),
            3,
            1,
            2,
            TraceKind::Deliver { latency_ns: 4 },
        ));
        let snap = t.snapshot();
        let parsed = TraceData::parse(&snap.to_jsonl()).unwrap();
        assert_eq!(parsed, snap);
        assert_eq!(parsed.sample_one_in, 4);
    }

    #[test]
    fn the_first_record_reserves_the_whole_ring_and_nothing_moves_it() {
        let t = Tracer::enabled(TraceConfig {
            capacity: 800,
            ..TraceConfig::default()
        });
        let ring = || t.inner.as_ref().unwrap().borrow().ring.reserved();
        assert_eq!(ring().1, 0, "an unused tracer owns nothing");
        let record = |i| TraceRecord::new(Nanos(i), i, 0, 0, TraceKind::FlowStart { size: i });
        t.record(record(0));
        let reserved = ring();
        assert!(reserved.1 >= 800);
        (1..2_000).for_each(|i| t.record(record(i)));
        assert_eq!(
            ring(),
            reserved,
            "filled and overwritten where it was reserved"
        );
        assert_eq!((t.len(), t.dropped()), (800, 1_200));
    }

    /// The records of `data`, oldest first.
    fn records_of(data: &TraceData) -> Vec<TraceRecord> {
        data.records.iter().collect()
    }

    #[test]
    fn snapshots_between_records_match_a_deque_model() {
        let mut rng = SimRng::seed_from(34);
        for capacity in [0, 1, 7, 64] {
            let t = Tracer::enabled(TraceConfig {
                capacity,
                ..TraceConfig::default()
            });
            let mut model: VecDeque<TraceRecord> = VecDeque::new();
            let mut evicted = 0u64;
            // Every snapshot still held, with the records and evicted count
            // it was taken with.
            let mut held: Vec<(TraceData, Vec<TraceRecord>, u64)> = Vec::new();
            // Twenty laps of the ring.
            for step in 0..80 * capacity.max(1) {
                match rng.below(4) {
                    0 => {
                        let snap = t.snapshot();
                        let kept: Vec<TraceRecord> = model.iter().copied().collect();
                        assert_eq!(records_of(&snap), kept, "capacity {capacity}, step {step}");
                        held.push((snap, kept, evicted));
                    }
                    1 if !held.is_empty() => {
                        // Let one go: the ring may take its slots back.
                        held.swap_remove(rng.below(held.len() as u64) as usize);
                    }
                    _ => {
                        // Compact only for the first lap and a half, so the
                        // first wide record lands mid-lap, most likely while
                        // a snapshot is held.
                        let r = if step < 3 * capacity.max(1) {
                            any_compact_record(&mut rng)
                        } else {
                            any_record(&mut rng)
                        };
                        t.record(r);
                        model.push_back(r);
                        if model.len() > capacity {
                            model.pop_front();
                            evicted += 1;
                        }
                    }
                }
                assert_eq!((t.len(), t.dropped()), (model.len(), evicted));
                t.visit(|view| assert!(view.records().eq(model.iter().copied())));
                for (snap, kept, dropped) in &held {
                    assert_eq!(&records_of(snap), kept, "capacity {capacity}, step {step}");
                    assert_eq!(snap.dropped, *dropped, "capacity {capacity}, step {step}");
                }
            }
        }
    }

    #[test]
    fn a_snapshot_lends_the_ring_until_the_next_record() {
        let t = Tracer::enabled(TraceConfig {
            capacity: 100,
            ..TraceConfig::default()
        });
        let ring = || t.inner.as_ref().unwrap().borrow().ring.reserved();
        let record = |i| TraceRecord::new(Nanos(i), i, 0, 0, TraceKind::FlowStart { size: i });
        let stamps = |data: &TraceData| -> Vec<u64> {
            data.records.iter().map(|r| r.t.as_nanos()).collect()
        };
        // A snapshot of nothing, held over the first record.
        let empty = t.snapshot();
        (0..250).for_each(|i| t.record(record(i)));
        assert!(empty.records.is_empty());
        let (storage, reserved, wide) = ring();
        assert!(reserved >= 100);
        assert_eq!(wide, 0);

        let a = t.snapshot();
        let b = t.snapshot();
        assert_eq!(a.records.storage(), storage, "the snapshot is the ring");
        assert_eq!(b.records.storage(), storage, "two snapshots, one ring");
        assert_eq!(stamps(&a), (150..250).collect::<Vec<u64>>());
        assert_eq!((t.len(), t.dropped(), t.is_empty()), (100, 150, false));
        assert_eq!(format!("{t:?}"), "Tracer(records=100)");
        drop((a, b));
        t.record(record(250));
        assert_eq!(ring(), (storage, reserved, 0), "taken back, nothing copied");

        // Held across a record, a snapshot keeps its records; the ring
        // copies them into a whole ring of its own.
        let held = t.snapshot();
        t.record(record(251));
        let (copy, copy_reserved, _) = ring();
        assert_ne!(copy, storage);
        assert!(copy_reserved >= 100);
        assert_eq!(held.records.storage(), storage);
        assert_eq!(stamps(&held), (151..251).collect::<Vec<u64>>());
        assert_eq!(stamps(&t.snapshot()), (152..252).collect::<Vec<u64>>());
        assert_eq!(held.records.last(), Some(record(250)));
    }

    #[test]
    fn exporters_read_a_wrapped_snapshot_oldest_first() {
        let t = Tracer::enabled(TraceConfig {
            capacity: 7,
            ..TraceConfig::default()
        });
        let q = t.intern("n0.p0");
        let mut rng = SimRng::seed_from(77);
        let records: Vec<TraceRecord> = (0..31)
            .map(|i| {
                let kind = match i % 3 {
                    0 => TraceKind::Dequeue {
                        rank: i,
                        wait_ns: 10 * i,
                    },
                    1 => TraceKind::Inversion {
                        rank: i,
                        loser_flow: i + 100,
                        loser_seq: 0,
                        loser_rank: 0,
                    },
                    _ => TraceKind::Deliver { latency_ns: i },
                };
                TraceRecord::new(Nanos(i), i, 0, rng.below(3) as u16, kind).at_label(q)
            })
            .collect();
        records.iter().for_each(|&r| t.record(r));
        let snap = t.snapshot();
        assert_ne!(snap.records.head, 0, "the ring wrapped mid-lap");
        let unwrapped = TraceData {
            records: records[records.len() - 7..].iter().copied().collect(),
            ..snap.clone()
        };
        assert_eq!(snap, unwrapped);
        assert_eq!(snap.records.last(), records.last().copied());
        assert_eq!(
            crate::perfetto::export_chrome(&snap),
            crate::perfetto::export_chrome(&unwrapped)
        );
        let report = render_report(&snap);
        assert_eq!(report, render_report(&unwrapped));
        let inverted = |flow: u64| report.find(&format!(" f{flow}#0 (rank {flow})")).unwrap();
        assert!(inverted(25) < inverted(28), "{report}");
        assert_eq!(snap.to_jsonl(), value_jsonl(&unwrapped));
    }

    #[test]
    fn a_snapshot_is_shareable_across_threads() {
        fn shareable<T: Clone + std::fmt::Debug + Default + PartialEq + Send + Sync>() {}
        shareable::<TraceData>();
        shareable::<Records>();
    }
}
