//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's side of each public call into
//! the program (choosing-metrics §4: spans inside the program are a later
//! change). They are kept in memory and written as JSON lines when the
//! run ends. A disabled recorder reads no clock, so the untraced run pays
//! one branch per boundary.

use qvisor_sim::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique within a trace file.
    pub id: u32,
    /// The span that caused this one; `None` for a rep's root span.
    pub parent: Option<u32>,
    /// Timed repetition the span belongs to.
    pub rep: u32,
    /// Layer boundary crossed, e.g. `netsim.run`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Recorder::start`]; pass it back to
/// [`Recorder::end`].
#[derive(Clone, Copy, Debug)]
pub struct Open(Option<usize>);

/// Records spans for one thread of one workload run.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    rep: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    /// A recorder measuring from `epoch`; `enabled = false` records
    /// nothing.
    pub fn new(enabled: bool, epoch: Instant) -> Recorder {
        Recorder {
            enabled,
            epoch,
            rep: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Is this recorder keeping spans?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Switch recording on or off between reps (traced runs alternate
    /// traced and untraced reps to measure the recorder's own cost).
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside an open span");
        self.enabled = enabled;
    }

    /// Label the spans that follow with repetition `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Open a span; its parent is the innermost span still open.
    pub fn start(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        let parent = self.stack.last().map(|&p| self.spans[p].id);
        let now = self.now_ns();
        self.spans.push(Span {
            id: index as u32,
            parent,
            rep: self.rep,
            name,
            start_ns: now,
            end_ns: now,
        });
        self.stack.push(index);
        Open(Some(index))
    }

    /// Close a span opened by [`Recorder::start`].
    pub fn end(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(index), "spans must close innermost first");
        self.spans[index].end_ns = self.now_ns();
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Absorb another thread's recorder, renumbering its span ids.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the part its children cover.
/// Children of one parent run in sequence here, so their durations add.
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut own: BTreeMap<u32, u64> = spans.iter().map(|s| (s.id, s.duration_ns())).collect();
    for s in spans {
        if let Some(parent) = s.parent {
            if let Some(t) = own.get_mut(&parent) {
                *t = t.saturating_sub(s.duration_ns());
            }
        }
    }
    own
}

/// Self time per span name as a share of the summed root spans, largest
/// first. Root spans' own self time appears under their own name, so the
/// shares sum to one.
pub fn self_shares(spans: &[Span]) -> Vec<(&'static str, f64, u64)> {
    let root_total: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::duration_ns)
        .sum();
    if root_total == 0 {
        return Vec::new();
    }
    let own = self_times(spans);
    let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let entry = by_name.entry(s.name).or_default();
        entry.0 += own[&s.id];
        entry.1 += 1;
    }
    let mut rows: Vec<(&'static str, f64, u64)> = by_name
        .into_iter()
        .map(|(name, (ns, count))| (name, ns as f64 / root_total as f64, count))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
    rows
}

/// Render spans as JSON lines: `{id, parent, workload, rep, name,
/// start_ns, end_ns}`.
pub fn to_jsonl(workload: &str, spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = match s.parent {
            Some(p) => Value::from(p),
            None => Value::Null,
        };
        let line = Value::object()
            .set("id", s.id)
            .set("parent", parent)
            .set("workload", workload)
            .set("rep", s.rep)
            .set("name", s.name)
            .set("start_ns", s.start_ns)
            .set("end_ns", s.end_ns);
        out.push_str(&line.to_compact());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            rep: 0,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span(0, None, "rep", 0, 100),
            span(1, Some(0), "build", 10, 30),
            span(2, Some(0), "run", 30, 90),
            span(3, Some(2), "export", 80, 90),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&0], 20);
        assert_eq!(own[&1], 20);
        assert_eq!(own[&2], 50);
        assert_eq!(own[&3], 10);
        let shares = self_shares(&spans);
        assert_eq!(shares[0].0, "run");
        let total: f64 = shares.iter().map(|r| r.1).sum();
        assert!(
            (total - 1.0).abs() < 1e-12,
            "shares sum to the root: {total}"
        );
    }

    #[test]
    fn recorder_nests_and_merges() {
        let epoch = Instant::now();
        let mut a = Recorder::new(true, epoch);
        a.set_rep(3);
        let root = a.start("rep");
        let child = a.start("call");
        a.end(child);
        a.end(root);
        let mut b = Recorder::new(true, epoch);
        let other = b.start("rep");
        let inner = b.start("call");
        b.end(inner);
        b.end(other);
        a.absorb(b);
        let spans = a.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].rep, 3);
        assert_eq!((spans[2].id, spans[3].parent), (2, Some(2)));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let jsonl = to_jsonl("w", spans);
        assert_eq!(jsonl.lines().count(), 4);
        assert!(jsonl.lines().next().unwrap().contains(r#""parent":null"#));
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut r = Recorder::new(false, Instant::now());
        let open = r.start("rep");
        r.end(open);
        assert!(r.spans().is_empty());
    }
}
