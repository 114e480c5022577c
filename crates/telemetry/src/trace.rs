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
use std::io::{self, Write};
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

    /// The kind's payload as `(",\"key\":", value)` pairs, in export
    /// order, until `f` fails.
    fn for_each_field(
        &self,
        mut f: impl FnMut(&'static [u8], u64) -> io::Result<()>,
    ) -> io::Result<()> {
        match *self {
            TraceKind::FlowStart { size } => f(b",\"size\":", size),
            TraceKind::RankComputed { rank }
            | TraceKind::Enqueue { rank }
            | TraceKind::Drop { rank } => f(b",\"rank\":", rank),
            TraceKind::Transform { pre, post } => {
                f(b",\"pre\":", pre)?;
                f(b",\"post\":", post)
            }
            TraceKind::Dequeue { rank, wait_ns } => {
                f(b",\"rank\":", rank)?;
                f(b",\"wait_ns\":", wait_ns)
            }
            TraceKind::Inversion {
                rank,
                loser_flow,
                loser_seq,
                loser_rank,
            } => {
                f(b",\"rank\":", rank)?;
                f(b",\"loser_flow\":", loser_flow)?;
                f(b",\"loser_seq\":", loser_seq)?;
                f(b",\"loser_rank\":", loser_rank)
            }
            TraceKind::TxStart {
                bytes,
                tx_ns,
                prop_ns,
            } => {
                f(b",\"bytes\":", bytes)?;
                f(b",\"tx_ns\":", tx_ns)?;
                f(b",\"prop_ns\":", prop_ns)
            }
            TraceKind::Deliver { latency_ns } | TraceKind::Ack { latency_ns } => {
                f(b",\"latency_ns\":", latency_ns)
            }
        }
    }
}

/// The two ASCII digits of every number below 100, `00` to `99`.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0; 200];
    let mut n = 0;
    while n < 100 {
        pairs[2 * n] = b'0' + (n / 10) as u8;
        pairs[2 * n + 1] = b'0' + (n % 10) as u8;
        n += 1;
    }
    pairs
};

/// Write `prefix` (a literal, at most 24 bytes) and `value` in decimal, in
/// one write. The digits come two at a time from [`DIGIT_PAIRS`], not from
/// `core::fmt`: a full ring exports a million integers inside the measured
/// phase.
#[inline(always)]
fn write_field(out: &mut impl Write, prefix: &[u8], value: u64) -> io::Result<()> {
    let mut buf = [0u8; 44];
    let mut start = buf.len();
    let mut rest = value;
    while rest >= 100 {
        let pair = 2 * (rest % 100) as usize;
        rest /= 100;
        start -= 2;
        buf[start..start + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if rest >= 10 {
        let pair = 2 * rest as usize;
        start -= 2;
        buf[start..start + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        start -= 1;
        buf[start] = b'0' + rest as u8;
    }
    start -= prefix.len();
    buf[start..start + prefix.len()].copy_from_slice(prefix);
    out.write_all(&buf[start..])
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

/// The records of a [`TraceData`], oldest first, packed into 16-byte slots
/// (32 or 64 for the few that need it) and unpacked as they are read. A
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

    /// Where the first 16 bytes of the slots live.
    #[cfg(test)]
    fn storage(&self) -> *const Quarter {
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
fn oldest_first(slots: &Slots, head: usize) -> OldestFirst<'_> {
    OldestFirst {
        slots,
        at: head,
        end: head + slots.len(),
    }
}

/// [`oldest_first`]'s iterator: one index run from `head`, wrapped past the
/// end. Its `next` is always inlined, and the decode with it, so a reader's
/// loop unpacks in place and drops the fields it never reads; a closure
/// over two chained ranges was decoded out of line, and a `visit` scan of
/// a full ring ran ≈ 4× slower than over 32-byte slots.
struct OldestFirst<'a> {
    slots: &'a Slots,
    at: usize,
    end: usize,
}

impl Iterator for OldestFirst<'_> {
    type Item = TraceRecord;

    #[inline(always)]
    fn next(&mut self) -> Option<TraceRecord> {
        if self.at == self.end {
            return None;
        }
        let len = self.slots.len();
        let i = if self.at < len {
            self.at
        } else {
            self.at - len
        };
        self.at += 1;
        Some(self.slots.record(i))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.end - self.at, Some(self.end - self.at))
    }
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
    /// output is byte-deterministic given the records. The bytes of
    /// [`TraceData::write_jsonl`], collected.
    pub fn to_jsonl(&self) -> String {
        let mut out = Vec::with_capacity(64 + self.records.len() * 128);
        self.write_jsonl(&mut out)
            .expect("writing into a Vec cannot fail");
        String::from_utf8(out).expect("the export is UTF-8: JSON of UTF-8 labels")
    }

    /// Write [`TraceData::to_jsonl`]'s bytes into `out` as they are
    /// rendered, so an export to a file holds no copy of itself. Span
    /// lines are written straight out — a full ring is a quarter of a
    /// million of them — in exactly the bytes the compact [`Value`]
    /// rendering of the same object would have. Write to a buffered `out`:
    /// a line takes about a dozen writes.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        let meta = Value::object()
            .set("type", "trace_meta")
            .set("schema", TRACE_SCHEMA_VERSION)
            .set("dropped", self.dropped)
            .set("capacity", self.capacity)
            .set("sample_one_in", self.sample_one_in)
            .set("seed", self.seed);
        out.write_all(meta.to_compact().as_bytes())?;
        out.write_all(b"\n")?;
        // Each label's `,"queue":"<escaped>"` fragment, rendered once.
        let queues: Vec<String> = self
            .labels
            .iter()
            .map(|label| format!(",\"queue\":{}", Value::from(label.as_str()).to_compact()))
            .collect();
        for r in self.records.iter() {
            write_field(out, b"{\"type\":\"span\",\"t_ns\":", r.t.as_nanos())?;
            write_field(out, b",\"flow\":", r.flow)?;
            write_field(out, b",\"seq\":", r.seq)?;
            write_field(out, b",\"tenant\":", u64::from(r.tenant))?;
            if r.ack {
                out.write_all(b",\"ack\":true")?;
            }
            if let Some(queue) = queues.get(r.label as usize) {
                out.write_all(queue.as_bytes())?;
            }
            out.write_all(b",\"kind\":\"")?;
            out.write_all(r.kind.tag().as_bytes())?;
            out.write_all(b"\"")?;
            r.kind
                .for_each_field(|prefix, value| write_field(out, prefix, value))?;
            out.write_all(b"}\n")?;
        }
        Ok(())
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

/// The first 16 bytes of a packed record: all of a narrow one, and the
/// time and `packed` word of any other.
type Quarter = [u64; 2];

/// A wide record's payload, one word a field.
type Half = [u64; 4];

/// `packed`'s bit marking a compact record.
const COMPACT: u64 = 1 << 21;

/// Word 1's bit marking a narrow record. `packed` never sets it (its bits
/// 22–31 are always clear), so word 1 alone tells the three forms apart.
const NARROW: u64 = 1 << 22;

/// How a form splits a kind's payload into one word: each field's width
/// in bits, lowest first. `Inversion`'s four fields never fit one word.
struct Split {
    transform: [u32; 2],
    dequeue: [u32; 2],
    tx: [u32; 3],
    /// Every one-field kind.
    one: u32,
}

/// A narrow record's 41 payload bits. On the full-size Fig. 4 point the
/// transformed rank (a `transform`'s second field, a `dequeue`'s first)
/// stays below 2^10, so it gets 12 bits and the other field 29: a queueing
/// delay stays below 2^27. A `tx` carries at most 1,500 bytes, 12,000 ns
/// of serialization and 1,000 ns of propagation.
const NARROW_SPLIT: Split = Split {
    transform: [29, 12],
    dequeue: [12, 29],
    tx: [11, 16, 14],
    one: 41,
};

/// A compact record's payload word.
const COMPACT_SPLIT: Split = Split {
    transform: [32, 32],
    dequeue: [32, 32],
    tx: [20, 24, 20],
    one: 64,
};

impl Split {
    /// The payload of the kind tagged `tag` in one word, or `None` when a
    /// field does not fit its width. `Slot::pack` joins a compact payload
    /// here and a narrow one arm by arm from the same widths.
    #[inline(always)]
    fn join(&self, tag: u64, [p0, p1, p2, _]: [u64; 4]) -> Option<u64> {
        match tag {
            2 => join([p0, p1], self.transform),
            4 => join([p0, p1], self.dequeue),
            6 => None,
            7 => join([p0, p1, p2], self.tx),
            _ => join([p0], [self.one]),
        }
    }

    /// The inverse of [`Split::join`].
    #[inline(always)]
    fn split(&self, tag: u64, word: u64) -> [u64; 4] {
        let fields = |widths: &[u32]| {
            let mut payload = [0; 4];
            let mut shift = 0;
            for (field, &width) in payload.iter_mut().zip(widths) {
                *field = (word >> shift) & mask(width);
                shift += width;
            }
            payload
        };
        match tag {
            2 => fields(&self.transform),
            4 => fields(&self.dequeue),
            7 => fields(&self.tx),
            _ => fields(&[self.one]),
        }
    }
}

/// `fields` packed into one word at `widths`, lowest first, or `None` when
/// one is too wide for its width.
#[inline(always)]
fn join<const N: usize>(fields: [u64; N], widths: [u32; N]) -> Option<u64> {
    let mut word = 0;
    let mut shift = 0;
    for (field, width) in fields.into_iter().zip(widths) {
        if field & !mask(width) != 0 {
            return None;
        }
        word |= field << shift;
        shift += width;
    }
    Some(word)
}

/// The low `bits` bits set.
#[inline(always)]
const fn mask(bits: u32) -> u64 {
    u64::MAX >> (64 - bits)
}

/// One [`TraceRecord`] packed, nothing lost, in one of three forms. Every
/// form's first 16 bytes, `lo`, live in one array; the others store the
/// rest apart ([`Slots`]).
///
/// - **Narrow**, 16 bytes, `lo = [t | flow << 32 | seq << 48, tenant | ack
///   << 6 | kind tag << 7 | label << 11 | NARROW | payload << 23]`: when
///   `t` is below 2^32, `flow` and `seq` below 2^16, `tenant` below 64,
///   the label below 2,047 or [`NO_LABEL`] (stored as 2,047, all ones),
///   and the payload fits 41 bits as [`NARROW_SPLIT`] divides them.
/// - **Compact**, 32 bytes, `lo = [t, packed | COMPACT]` and `mid = [flow
///   | seq << 32, payload]`, where `packed = tenant | ack << 16 | kind tag
///   << 17 | label << 32`: when `flow` and `seq` are below 2^32 and the
///   payload fits one word as [`COMPACT_SPLIT`] divides it.
/// - **Wide**, 64 bytes, `lo = [t, packed]`, `mid = [flow, seq]` and `hi =
///   [p0, p1, p2, p3]`, the payload with unused words zero: everything
///   else, and always `Inversion`, whose payload is four words.
///
/// Every record of a full-size Fig. 4 run is narrow (its exact PIFOs
/// invert nothing), so a store that holds only narrow records allocates
/// neither `mid` nor `hi`.
#[derive(Clone, Copy)]
struct Slot {
    lo: Quarter,
    /// `Some` unless the record is narrow.
    mid: Option<Quarter>,
    /// `Some` exactly when the record is wide.
    hi: Option<Half>,
}

impl Slot {
    #[inline]
    fn pack(r: TraceRecord) -> Slot {
        // Each arm joins its own narrow payload, so a record branches on
        // its kind once; `NARROW_SPLIT.join` would match on the tag again.
        let n = &NARROW_SPLIT;
        let (tag, payload, narrow) = match r.kind {
            TraceKind::FlowStart { size } => (0, [size, 0, 0, 0], join([size], [n.one])),
            TraceKind::RankComputed { rank } => (1, [rank, 0, 0, 0], join([rank], [n.one])),
            TraceKind::Transform { pre, post } => {
                (2, [pre, post, 0, 0], join([pre, post], n.transform))
            }
            TraceKind::Enqueue { rank } => (3, [rank, 0, 0, 0], join([rank], [n.one])),
            TraceKind::Dequeue { rank, wait_ns } => {
                (4, [rank, wait_ns, 0, 0], join([rank, wait_ns], n.dequeue))
            }
            TraceKind::Drop { rank } => (5, [rank, 0, 0, 0], join([rank], [n.one])),
            TraceKind::Inversion {
                rank,
                loser_flow,
                loser_seq,
                loser_rank,
            } => (6, [rank, loser_flow, loser_seq, loser_rank], None),
            TraceKind::TxStart {
                bytes,
                tx_ns,
                prop_ns,
            } => (
                7,
                [bytes, tx_ns, prop_ns, 0],
                join([bytes, tx_ns, prop_ns], n.tx),
            ),
            TraceKind::Deliver { latency_ns } => {
                (8, [latency_ns, 0, 0, 0], join([latency_ns], [n.one]))
            }
            TraceKind::Ack { latency_ns } => {
                (9, [latency_ns, 0, 0, 0], join([latency_ns], [n.one]))
            }
        };
        let t = r.t.as_nanos();
        let tenant = u64::from(r.tenant);
        // `NO_LABEL` wraps to 0, so this holds for it and labels below 2,047.
        let label_fits = r.label.wrapping_add(1) < 1 << 11;
        if (t >> 32 | (r.flow | r.seq) >> 16 | tenant >> 6) == 0 && label_fits {
            if let Some(word) = narrow {
                let header = tenant
                    | u64::from(r.ack) << 6
                    | tag << 7
                    | u64::from(r.label & 0x7ff) << 11
                    | NARROW;
                return Slot {
                    lo: [t | r.flow << 32 | r.seq << 48, header | word << 23],
                    mid: None,
                    hi: None,
                };
            }
        }
        let packed = tenant | u64::from(r.ack) << 16 | tag << 17 | u64::from(r.label) << 32;
        match COMPACT_SPLIT.join(tag, payload) {
            Some(word) if (r.flow | r.seq) >> 32 == 0 => Slot {
                lo: [t, packed | COMPACT],
                mid: Some([r.flow | r.seq << 32, word]),
                hi: None,
            },
            _ => Slot {
                lo: [t, packed],
                mid: Some([r.flow, r.seq]),
                hi: Some(payload),
            },
        }
    }

    /// Whether the record whose first 16 bytes are `lo` is narrow.
    #[inline]
    fn is_narrow(lo: &Quarter) -> bool {
        lo[1] & NARROW != 0
    }

    /// Whether the record whose first 16 bytes are `lo` is wide.
    #[inline]
    fn is_wide(lo: &Quarter) -> bool {
        lo[1] & (NARROW | COMPACT) == 0
    }

    /// Inlined into every reader's loop ([`OldestFirst`]).
    #[inline(always)]
    fn unpack(self) -> TraceRecord {
        let [w0, w1] = self.lo;
        let field = |word: u64, shift: u32, bits: u32| (word >> shift) & mask(bits);
        // Time, flow, sequence, the `packed` word and the payload.
        let (t, flow, seq, packed, [p0, p1, p2, p3]) = match (self.mid, self.hi) {
            (None, _) => {
                let tag = field(w1, 7, 4);
                // All ones is `NO_LABEL`: one more, wrapped to 11 bits, less
                // one. Arithmetic, not a branch a reader would mispredict.
                let label = ((field(w1, 11, 11) + 1) & mask(11)) as u32;
                let label = u64::from(label.wrapping_sub(1));
                let packed = field(w1, 0, 6) | field(w1, 6, 1) << 16 | tag << 17 | label << 32;
                let payload = NARROW_SPLIT.split(tag, w1 >> 23);
                (
                    field(w0, 0, 32),
                    field(w0, 32, 16),
                    w0 >> 48,
                    packed,
                    payload,
                )
            }
            (Some([flow, seq]), Some(payload)) => (w0, flow, seq, w1, payload),
            (Some([ids, word]), None) => {
                let payload = COMPACT_SPLIT.split(field(w1, 17, 4), word);
                (w0, field(ids, 0, 32), ids >> 32, w1, payload)
            }
        };
        let kind = match field(packed, 17, 4) {
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
            ack: field(packed, 16, 1) == 1,
            label: (packed >> 32) as u32,
            kind,
        }
    }
}

/// Packed records by index, in three parts: every record's first 16 bytes
/// in `lo`, the next 16 of a compact or wide record at the same index of
/// `mid`, and a wide record's last 32 at the same index of `hi`.
/// Eight-byte aligned on purpose: a `#[repr(align(64))]` slot ran no faster
/// and took the peak RSS of a fuzz campaign, one default-capacity tracer
/// per case, from 9 to 31–35 MB.
#[derive(Clone, Default)]
struct Slots {
    lo: Vec<Quarter>,
    /// Long enough to index every compact or wide record; empty while
    /// there is none.
    mid: Vec<Quarter>,
    /// Long enough to index every wide record; empty while there is none.
    hi: Vec<Half>,
}

impl Slots {
    fn len(&self) -> usize {
        self.lo.len()
    }

    /// Append `slot` (the collected form: `mid` and `hi` grow as the
    /// records that need them come).
    fn push(&mut self, Slot { lo, mid, hi }: Slot) {
        fn place<const N: usize>(part: &mut Vec<[u64; N]>, at: usize, words: Option<[u64; N]>) {
            if let Some(words) = words {
                part.resize(at, [0; N]);
                part.push(words);
            }
        }
        place(&mut self.mid, self.lo.len(), mid);
        place(&mut self.hi, self.lo.len(), hi);
        self.lo.push(lo);
    }

    /// The record at `i`, unpacked in the caller's loop ([`Slot::unpack`]).
    #[inline(always)]
    fn record(&self, i: usize) -> TraceRecord {
        let lo = self.lo[i];
        let mid = (!Slot::is_narrow(&lo)).then(|| self.mid[i]);
        let hi = Slot::is_wide(&lo).then(|| self.hi[i]);
        Slot { lo, mid, hi }.unpack()
    }
}

/// The ring of slots, which overwrites its oldest slot around the cache. A
/// default ring's first parts are 4 MiB and keep 2 % of what a Fig. 4 run
/// writes into them, so an ordinary store would read each line for
/// ownership only to evict the simulator's own working set with it. On
/// x86_64 non-temporal `movnti` stores write each part, one a word (SSE2
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
    use super::{Slot, Slots};
    use std::sync::Arc;

    #[derive(Default)]
    pub(super) struct Ring {
        /// `slots.lo` reserves as [`room`] says from the first record: a
        /// tracer that records a few hundred spans (one per fuzz case)
        /// holds a few KiB, and one that fills a default ring grows to
        /// 4,096 slots and then reserves the rest of its 4 MiB at once —
        /// address space, not memory — so it never holds a half-grown copy
        /// of more than 64 KiB beside it or leaves one behind as a hole in
        /// the heap. It fills by `push`, and from then on the oldest slot,
        /// at `head`, is overwritten in place by [`stream`]. `slots.mid`
        /// reserves nothing until the first compact or wide record, and
        /// `slots.hi` nothing until the first wide one, and each then
        /// reserves by the same rule; each is zeroed as far as the highest
        /// index a record that needs it has taken, so it indexes every such
        /// record and the pages past that stay untouched. All three are
        /// empty, reserving nothing, while the slots are `lent`.
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
            while self.slots.lo.len() < capacity {
                let at = self.slots.lo.len();
                if at == self.slots.lo.capacity() {
                    // No room: the first record, the first since a
                    // snapshot, or a growing ring's next step. The cold
                    // call takes no slot: taken by value, the slot went to
                    // the stack for it on every record, and the fill read
                    // it back with wider loads than the stores, a
                    // store-forwarding stall. Once past
                    // this test, `push` never grows `lo` (it has room for
                    // `at`), so the fill makes no call before it stores.
                    self.reserve(capacity);
                    continue;
                }
                let Slots { lo, mid, hi } = &mut self.slots;
                lo.push(slot.lo);
                if let Some(words) = slot.mid {
                    *part(mid, capacity, at) = words;
                }
                if let Some(words) = slot.hi {
                    *part(hi, capacity, at) = words;
                }
                return false;
            }
            let Slots { lo, mid, hi } = &mut self.slots;
            // `None` only for a ring of capacity 0, which keeps nothing.
            if let Some(oldest) = lo.get_mut(self.head) {
                stream(oldest, slot.lo);
                if let Some(words) = slot.mid {
                    stream(part(mid, capacity, self.head), words);
                }
                if let Some(words) = slot.hi {
                    stream(part(hi, capacity, self.head), words);
                }
                self.head += 1;
                if self.head == capacity {
                    self.head = 0;
                    fence();
                }
            }
            true
        }

        /// Make room in `slots.lo` for its next slot, as [`room`] says: in
        /// the ring's own slots, or in the lent ones taken back — the same
        /// allocations once no snapshot holds them, else a copy of every
        /// part into reservations of the ring's own.
        #[cold]
        #[inline(never)]
        fn reserve(&mut self, capacity: usize) {
            match self.lent.take().map(Arc::try_unwrap) {
                None => {}
                Some(Ok(slots)) => self.slots = slots,
                Some(Err(shared)) => {
                    self.slots = Slots {
                        lo: copy(&shared.lo, capacity),
                        mid: copy(&shared.mid, capacity),
                        hi: copy(&shared.hi, capacity),
                    }
                }
            }
            let lo = &mut self.slots.lo;
            if lo.len() == lo.capacity() {
                lo.reserve_exact(room(lo.len() + 1, capacity) - lo.len());
            }
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

        /// Where the first parts the ring writes live, and how many of
        /// each part it has reserved.
        #[cfg(test)]
        pub(super) fn reserved(&self) -> (*const super::Quarter, [usize; 3]) {
            let Slots { lo, mid, hi } = &self.slots;
            (lo.as_ptr(), [lo.capacity(), mid.capacity(), hi.capacity()])
        }
    }

    impl Drop for Ring {
        fn drop(&mut self) {
            // The slots go back to the allocator: streamed stores land first.
            fence();
        }
    }

    /// The element at `at` of the part `part` of a ring of `capacity`,
    /// zeroed first if the part has not reached it.
    #[inline]
    fn part<const N: usize>(part: &mut Vec<[u64; N]>, capacity: usize, at: usize) -> &mut [u64; N] {
        if part.len() <= at {
            extend(part, capacity, at);
        }
        &mut part[at]
    }

    /// Zero `part` up to `at`, reserving first as [`room`] says where it
    /// has no room for `at` — address space, as for `lo`: the elements
    /// below `at` are written, the rest untouched. A zeroed allocation
    /// (`calloc`) of the whole part instead cleared all of it whenever the
    /// allocator reused memory: a fuzz campaign, one ring per case, ran
    /// 2.5× slower and peaked at 40 MiB instead of 9.
    #[cold]
    #[inline(never)]
    fn extend<const N: usize>(part: &mut Vec<[u64; N]>, capacity: usize, at: usize) {
        if at >= part.capacity() {
            part.reserve_exact(room(at + 1, capacity) - part.len());
        }
        part.resize(at + 1, [0; N]);
    }

    /// A ring of up to this many slots reserves all of each part at once;
    /// a larger one grows a part to this many first.
    const GROWN: usize = 4_096;

    /// How many elements a part of a ring of `capacity` reserves to hold
    /// `n`: the next power of two from 64 while `n` is at most [`GROWN`]
    /// and the ring larger, else all `capacity`. A fuzz case, one default
    /// ring of ≈ 900 records, then allocates a few KiB a part where a
    /// whole reservation took 4–8 MiB of address space each: the allocator
    /// placed those wherever the other thread's cases had left room, so
    /// how many of their pages a campaign touched, and its peak RSS and
    /// page faults with them, moved from one run to the next.
    fn room(n: usize, capacity: usize) -> usize {
        if capacity <= GROWN || n > GROWN {
            capacity
        } else {
            n.next_power_of_two().max(64)
        }
    }

    /// `part` copied into a reservation [`room`] allows for it; nothing
    /// for an empty part, which a ring reserves only when a record needs
    /// it.
    fn copy<const N: usize>(part: &[[u64; N]], capacity: usize) -> Vec<[u64; N]> {
        if part.is_empty() {
            return Vec::new();
        }
        let mut copy = Vec::with_capacity(room(part.len(), capacity));
        copy.extend_from_slice(part);
        copy
    }

    /// Overwrite `dst` with `src` without bringing `dst` into the cache.
    #[inline(always)]
    fn stream<const N: usize>(dst: &mut [u64; N], src: [u64; N]) {
        #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
        for (word, value) in dst.iter_mut().zip(src) {
            // SAFETY: `word` is a live, aligned `&mut u64` inside a part of
            // the ring, and SSE2 is statically enabled (the `cfg` above).
            // The ring writes only parts it owns alone: a snapshot's `Arc`
            // holds lent slots, which the ring takes back only from the
            // last holder. The ring is reachable only through a non-`Send`
            // `Rc`, so no thread but this one can touch it, and this one
            // accesses the part again only in this module, after the lap,
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
        // Streamed through a buffer smaller than a line, the same bytes.
        let data = exhaustive_data();
        let mut streamed = io::BufWriter::with_capacity(7, Vec::new());
        data.write_jsonl(&mut streamed).unwrap();
        assert_eq!(streamed.into_inner().unwrap(), data.to_jsonl().into_bytes());
        // A label id past the table renders, like `NO_LABEL`, as no queue.
        let mut dangling = sample_data();
        dangling.records = (dangling.records.iter().enumerate())
            .map(|(i, r)| if i == 2 { r.at_label(9) } else { r })
            .collect();
        assert_eq!(dangling.to_jsonl(), value_jsonl(&dangling));
    }

    #[test]
    fn an_integer_renders_as_core_fmt_does_at_every_digit_count() {
        let mut values = vec![0, u64::MAX];
        let mut power = 1u64;
        while let Some(next) = power.checked_mul(10) {
            values.extend([power - 1, power, power + 1, next / 2]);
            power = next;
        }
        values.extend([power - 1, power, power + 1]);
        for value in values {
            let mut out = Vec::new();
            write_field(&mut out, b",\"k\":", value).unwrap();
            assert_eq!(out, format!(",\"k\":{value}").into_bytes());
        }
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
    /// word below 2^12 or 2^20: every slot form, and edges between them.
    fn any_word(rng: &mut SimRng) -> u64 {
        match rng.below(8) {
            0 => 0,
            1 => u64::MAX,
            2 => rng.next(),
            3 => u64::from(u32::MAX),
            4 => 1 << 32,
            5 => rng.below(1 << 20),
            _ => rng.below(1 << 12),
        }
    }

    /// A seeded record of any kind, `ack` either way, labelled `NO_LABEL`,
    /// 2,046, 2,047, `u32::MAX - 1` or 0, with tenant 0, 63, `u16::MAX` or
    /// random and every `u64` field drawn by [`any_word`].
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
        let tenant = [0, 63, u16::MAX, rng.next() as u16][rng.below(4) as usize];
        let label = [NO_LABEL, 2_046, 2_047, u32::MAX - 1, 0][rng.below(5) as usize];
        TraceRecord::new(
            Nanos(any_word(rng)),
            any_word(rng),
            any_word(rng),
            tenant,
            kind,
        )
        .at_label(label)
        .as_ack(rng.below(2) == 1)
    }

    /// [`any_record`], drawn again until it packs no wider than `widest`.
    fn any_record_up_to(rng: &mut SimRng, widest: Form) -> TraceRecord {
        loop {
            let r = any_record(rng);
            if Form::of(r) <= widest {
                return r;
            }
        }
    }

    /// The three slot forms, narrowest first.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
    enum Form {
        Narrow,
        Compact,
        Wide,
    }

    impl Form {
        /// The form `r` packs into, checked against what its first 16
        /// bytes say.
        fn of(r: TraceRecord) -> Form {
            let slot = Slot::pack(r);
            let form = match (slot.mid, slot.hi) {
                (None, None) => Form::Narrow,
                (Some(_), None) => Form::Compact,
                (Some(_), Some(_)) => Form::Wide,
                (None, Some(_)) => panic!("a wide half without a remainder: {r:?}"),
            };
            assert_eq!(Slot::is_narrow(&slot.lo), form == Form::Narrow, "{r:?}");
            assert_eq!(Slot::is_wide(&slot.lo), form == Form::Wide, "{r:?}");
            form
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
            forms.extend(records.iter().map(|&r| Form::of(r)));
            ring_after(capacity, &records);
        }
        assert_eq!(kinds.len(), 10, "every kind went through a ring");
        assert_eq!(forms.len(), 3, "every slot form went through a ring");
        for r in exhaustive_records() {
            assert_eq!(Slot::pack(r).unpack(), r);
        }
    }

    /// Records on each side of every edge between the three slot forms,
    /// each with the form it takes. A narrow record — `t`, `flow` and `seq`
    /// at the top of their narrow widths, tenant 63, the label either edge
    /// value that fits — is varied one identity field at a time (`t` at
    /// 2^32, `flow` and `seq` at 2^16, 2^32 − 1 and 2^32, tenant 64, label
    /// 2,047) for every kind with its payload at each edge of each split:
    /// one field at 2^41 − 1 and 2^41, each field of the two-field kinds
    /// and of `TxStart` at the top of its narrow width, one past it, and at
    /// its compact edge, and `Inversion` however small.
    fn edge_records() -> Vec<(TraceRecord, Form)> {
        use Form::{Compact, Narrow, Wide};
        let p = |bits: u32| 1u64 << bits;
        let mut kinds = Vec::new();
        for (value, form) in [(p(41) - 1, Narrow), (p(41), Compact), (u64::MAX, Compact)] {
            kinds.extend([
                (TraceKind::FlowStart { size: value }, form),
                (TraceKind::RankComputed { rank: value }, form),
                (TraceKind::Enqueue { rank: value }, form),
                (TraceKind::Drop { rank: value }, form),
                (TraceKind::Deliver { latency_ns: value }, form),
                (TraceKind::Ack { latency_ns: value }, form),
            ]);
        }
        // Each field one past its narrow width, then one past its compact
        // width, with the other fields at zero; then all at the top of both.
        let edges = |narrow: &[u32], compact: &[u32]| {
            let fields = narrow.len();
            let mut cases = vec![
                (
                    narrow.iter().map(|&b| p(b) - 1).collect::<Vec<u64>>(),
                    Narrow,
                ),
                (compact.iter().map(|&b| p(b) - 1).collect(), Compact),
            ];
            for i in 0..fields {
                for (bits, form) in [(narrow[i], Compact), (compact[i], Wide)] {
                    let mut values = vec![0; fields];
                    values[i] = p(bits);
                    cases.push((values, form));
                }
            }
            cases
        };
        let (n, c) = (&NARROW_SPLIT, &COMPACT_SPLIT);
        for (v, form) in edges(&n.transform, &c.transform) {
            kinds.push((
                TraceKind::Transform {
                    pre: v[0],
                    post: v[1],
                },
                form,
            ));
        }
        for (v, form) in edges(&n.dequeue, &c.dequeue) {
            let kind = TraceKind::Dequeue {
                rank: v[0],
                wait_ns: v[1],
            };
            kinds.push((kind, form));
        }
        for (v, form) in edges(&n.tx, &c.tx) {
            let kind = TraceKind::TxStart {
                bytes: v[0],
                tx_ns: v[1],
                prop_ns: v[2],
            };
            kinds.push((kind, form));
        }
        let inversion = TraceKind::Inversion {
            rank: 0,
            loser_flow: 0,
            loser_seq: 0,
            loser_rank: 0,
        };
        kinds.push((inversion, Wide));

        let narrow = |label: u32, ack: bool, kind: TraceKind| {
            TraceRecord::new(Nanos(p(32) - 1), p(16) - 1, p(16) - 1, 63, kind)
                .at_label(label)
                .as_ack(ack)
        };
        let mut records = Vec::new();
        for (i, &(kind, form)) in kinds.iter().enumerate() {
            let (label, ack) = [(NO_LABEL, true), (2_046, false)][i % 2];
            let base = narrow(label, ack, kind);
            let identities = [
                (base, Narrow),
                (
                    TraceRecord {
                        t: Nanos(p(32)),
                        ..base
                    },
                    Compact,
                ),
                (base.at_label(2_047), Compact),
                (TraceRecord { tenant: 64, ..base }, Compact),
                (
                    TraceRecord {
                        flow: p(16),
                        ..base
                    },
                    Compact,
                ),
                (TraceRecord { seq: p(16), ..base }, Compact),
                (
                    TraceRecord {
                        flow: p(32) - 1,
                        ..base
                    },
                    Compact,
                ),
                (
                    TraceRecord {
                        seq: p(32) - 1,
                        ..base
                    },
                    Compact,
                ),
                (
                    TraceRecord {
                        flow: p(32),
                        ..base
                    },
                    Wide,
                ),
                (TraceRecord { seq: p(32), ..base }, Wide),
            ];
            records.extend(identities.map(|(r, at_least)| (r, form.max(at_least))));
        }
        records
    }

    #[test]
    fn each_record_takes_the_form_its_fields_fit() {
        assert_eq!(std::mem::size_of::<Quarter>(), 16);
        assert_eq!(std::mem::size_of::<Half>(), 32);
        let edges = edge_records();
        for &(r, form) in &edges {
            assert_eq!(Form::of(r), form, "{r:?}");
            assert_eq!(Slot::pack(r).unpack(), r);
        }
        let forms: BTreeSet<Form> = edges.iter().map(|&(_, form)| form).collect();
        assert_eq!(forms.len(), 3, "every form");
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
    fn a_ring_of_narrow_records_reserves_16_bytes_a_record_and_no_other_part() {
        let capacity = TraceConfig::default().capacity;
        let t = Tracer::enabled(TraceConfig::default());
        let ring = || t.inner.as_ref().unwrap().borrow().ring.reserved();
        let reserved = || ring().1;
        // How far the remainders and the wide halves are zeroed.
        let zeroed = || {
            let buf = t.inner.as_ref().unwrap().borrow();
            let slots = buf.ring.slots().0;
            [slots.mid.len(), slots.hi.len()]
        };
        let dequeue = |i: u64| {
            let kind = TraceKind::Dequeue {
                rank: i % 4_096,
                wait_ns: 2 * i,
            };
            TraceRecord::new(Nanos(i), i % 2_048, i % 8_192, 1, kind)
        };
        // `lo` doubles from 64 slots to 4,096, then reserves the rest of
        // the ring at once, and nothing moves it after that.
        t.record(dequeue(0));
        assert_eq!(reserved(), [64, 0, 0]);
        (1..4_096).for_each(|i| t.record(dequeue(i)));
        assert_eq!(reserved(), [4_096, 0, 0]);
        t.record(dequeue(4_096));
        let (storage, [lo, mid, hi]) = ring();
        assert_eq!(lo * std::mem::size_of::<Quarter>(), capacity * 16);
        (4_097..capacity as u64 + 1_000).for_each(|i| t.record(dequeue(i)));
        assert_eq!(
            ring(),
            (storage, [lo, mid, hi]),
            "filled where it was reserved"
        );
        assert_eq!(
            [mid, hi],
            [0, 0],
            "no record but narrow ones, no other part"
        );
        assert_eq!(t.dropped(), 1_000);
        // A compact record at slot 1,000 reserves 1,024 of the remainder,
        // zeroed only as far as its own slot.
        let compact = dequeue(1 << 20).at_label(2_047);
        t.record(compact);
        assert_eq!(reserved(), [lo, 1_024, 0]);
        assert_eq!(zeroed(), [1_001, 0]);
        // A wide one the same of the wide half, zeroed as far as 1,001.
        let inversion = TraceKind::Inversion {
            rank: 9,
            loser_flow: 1,
            loser_seq: 2,
            loser_rank: 3,
        };
        let wide = TraceRecord::new(Nanos(u64::MAX), 7, 7, 1, inversion);
        t.record(wide);
        assert_eq!(reserved(), [lo, 1_024, 1_024]);
        assert_eq!(zeroed(), [1_002, 1_002]);
        // Past slot 4,096, a compact record reserves the whole remainder.
        (1_002..4_096).for_each(|i| t.record(dequeue(i)));
        t.record(compact);
        assert_eq!(reserved(), [lo, capacity, 1_024]);
        assert_eq!(zeroed(), [4_097, 1_002]);
        let mut expected = vec![dequeue(capacity as u64 + 999), compact, wide];
        expected.extend((1_002..4_096).map(dequeue));
        expected.push(compact);
        let snap = t.snapshot();
        let newest: Vec<TraceRecord> = snap
            .records
            .iter()
            .skip(capacity - expected.len())
            .collect();
        assert_eq!(newest, expected);
    }

    #[test]
    fn a_wrapped_ring_of_every_form_copies_every_part_for_a_held_snapshot() {
        let t = Tracer::enabled(TraceConfig {
            capacity: 7,
            ..TraceConfig::default()
        });
        let reserved = || t.inner.as_ref().unwrap().borrow().ring.reserved();
        let mut rng = SimRng::seed_from(39);
        let mut model: VecDeque<TraceRecord> = VecDeque::new();
        let mut record = |form: Form, model: &mut VecDeque<TraceRecord>| loop {
            let r = any_record(&mut rng);
            if Form::of(r) == form {
                t.record(r);
                model.push_back(r);
                if model.len() > 7 {
                    model.pop_front();
                }
                return;
            }
        };
        // Ten records, every form among them: the ring wraps mid-lap with
        // every part reserved.
        use Form::{Compact, Narrow, Wide};
        let first = [Narrow, Compact, Wide, Narrow, Narrow, Compact, Narrow];
        first.iter().for_each(|&form| record(form, &mut model));
        for form in [Wide, Narrow, Compact] {
            record(form, &mut model);
        }
        let (storage, parts) = reserved();
        assert_eq!(parts, [7, 7, 7]);
        let held = t.snapshot();
        assert_eq!(held.records.head, 3, "mid-lap");
        let kept: Vec<TraceRecord> = model.iter().copied().collect();
        // A lap and a half of every form while the snapshot is held: the
        // ring writes into a copy of every part, never into the snapshot's.
        for step in 0..11 {
            record([Narrow, Compact, Wide][step % 3], &mut model);
            let (copy, copied) = reserved();
            assert_ne!(copy, storage, "step {step}");
            assert_eq!(copied, [7, 7, 7], "step {step}: every part copied whole");
            assert_eq!(records_of(&held), kept, "step {step}");
            t.visit(|view| assert!(view.records().eq(model.iter().copied())));
        }
        assert_eq!(held.records.storage(), storage);
        drop(held);
        // Taken back with no snapshot held: the copy is the ring now.
        let copy = reserved();
        let again = t.snapshot();
        assert!(again.records.iter().eq(model.iter().copied()));
        drop(again);
        record(Narrow, &mut model);
        assert_eq!(reserved(), copy, "every part taken back");
        t.visit(|view| assert!(view.records().eq(model.iter().copied())));
    }

    #[test]
    fn a_first_wide_record_mid_lap_leaves_a_held_snapshot_alone() {
        let t = Tracer::enabled(TraceConfig {
            capacity: 7,
            ..TraceConfig::default()
        });
        let reserved = || t.inner.as_ref().unwrap().borrow().ring.reserved();
        let narrow = stamped(10);
        narrow.iter().for_each(|&r| t.record(r));
        let held = t.snapshot();
        assert_eq!(held.records.head, 3, "mid-lap");
        let wide = TraceRecord::new(Nanos(10), 1 << 40, 0, 0, TraceKind::FlowStart { size: 3 });
        t.record(wide);
        let storage = reserved();
        assert_eq!(
            storage.1,
            [7, 7, 7],
            "the wide record's parts, reserved by the copy"
        );
        assert!(held.records.iter().eq(narrow[3..].iter().copied()));
        drop(held);
        // Lent with every part, taken back with them.
        let mut model = narrow[4..].to_vec();
        model.push(wide);
        let again = t.snapshot();
        assert!(again.records.iter().eq(model.iter().copied()));
        drop(again);
        t.record(narrow[0]);
        assert_eq!(reserved(), storage, "every part taken back");
        model.remove(0);
        model.push(narrow[0]);
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
        assert_eq!(ring().1, [0; 3], "an unused tracer owns nothing");
        let record = |i| TraceRecord::new(Nanos(i), i, 0, 0, TraceKind::FlowStart { size: i });
        t.record(record(0));
        let reserved = ring();
        assert!(reserved.1[0] >= 800);
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
                        // Narrow only for the first lap and a half, then no
                        // wide record for as long again, so the first of
                        // each wider form lands mid-lap, most likely while
                        // a snapshot is held.
                        let widest = match step / capacity.max(1) {
                            0..=2 => Form::Narrow,
                            3..=5 => Form::Compact,
                            _ => Form::Wide,
                        };
                        let r = any_record_up_to(&mut rng, widest);
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
        let (storage, [reserved, mid, hi]) = ring();
        assert!(reserved >= 100);
        assert_eq!([mid, hi], [0, 0]);

        let a = t.snapshot();
        let b = t.snapshot();
        assert_eq!(a.records.storage(), storage, "the snapshot is the ring");
        assert_eq!(b.records.storage(), storage, "two snapshots, one ring");
        assert_eq!(stamps(&a), (150..250).collect::<Vec<u64>>());
        assert_eq!((t.len(), t.dropped(), t.is_empty()), (100, 150, false));
        assert_eq!(format!("{t:?}"), "Tracer(records=100)");
        drop((a, b));
        t.record(record(250));
        assert_eq!(
            ring(),
            (storage, [reserved, 0, 0]),
            "taken back, nothing copied"
        );

        // Held across a record, a snapshot keeps its records; the ring
        // copies them into a whole ring of its own.
        let held = t.snapshot();
        t.record(record(251));
        let (copy, [copy_reserved, ..]) = ring();
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
