//! Bounded event journal keyed by simulated time.
//!
//! The journal is a ring buffer of structured events (policy recompiles,
//! adapter decisions, drops of interest). When full, the oldest events are
//! evicted and counted, so a long simulation can keep a journal of the most
//! recent activity at fixed memory cost without ever aborting or blocking.

use qvisor_sim::json::Value;
use qvisor_sim::Nanos;
use std::collections::VecDeque;

/// One structured journal entry.
#[derive(Clone, Debug)]
pub struct JournalEvent {
    /// Simulated time the event was recorded at.
    pub t: Nanos,
    /// Short machine-readable event kind, e.g. `"recompile"`.
    pub kind: String,
    /// Free-form structured payload, in insertion order.
    pub fields: Vec<(String, Value)>,
}

impl JournalEvent {
    /// The event `kind` at `t` with `fields`, in that order.
    pub fn new(t: Nanos, kind: &str, fields: &[(&str, Value)]) -> JournalEvent {
        let kind = kind.to_string();
        let fields = (fields.iter())
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        JournalEvent { t, kind, fields }
    }

    /// Render as a JSON object (`{"type":"event","t_ns":...,...}`).
    pub fn to_json(&self) -> Value {
        let mut fields = Value::object();
        for (k, v) in &self.fields {
            fields = fields.set(k, v.clone());
        }
        Value::object()
            .set("type", "event")
            .set("t_ns", self.t)
            .set("kind", self.kind.as_str())
            .set("fields", fields)
    }
}

/// Fixed-capacity ring buffer of [`JournalEvent`]s.
#[derive(Clone, Debug)]
pub struct Journal {
    events: VecDeque<JournalEvent>,
    capacity: usize,
    evicted: u64,
}

impl Default for Journal {
    fn default() -> Journal {
        Journal::new(crate::DEFAULT_JOURNAL_CAPACITY)
    }
}

impl Journal {
    /// A journal holding at most `capacity` events (capacity 0 records
    /// nothing but still counts evictions).
    pub fn new(capacity: usize) -> Journal {
        Journal {
            events: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
            evicted: 0,
        }
    }

    /// Append an event, evicting the oldest if full. Returns `true` when
    /// an event was evicted (or refused, at capacity 0) so callers can
    /// surface the loss — a silently truncated journal looks complete.
    pub fn push(&mut self, event: JournalEvent) -> bool {
        if self.capacity == 0 {
            self.evicted += 1;
            return true;
        }
        let evicting = self.events.len() == self.capacity;
        if evicting {
            self.events.pop_front();
            self.evicted += 1;
        }
        self.events.push_back(event);
        evicting
    }

    /// Push `late`, in time order, as if each had been pushed at its time
    /// among the last `among` events pushed, after any of the same instant;
    /// returns how many were evicted. Any of the `among` already evicted came
    /// before all that this push can keep.
    pub fn push_late(&mut self, among: usize, late: impl IntoIterator<Item = JournalEvent>) -> u64 {
        let retained = self.events.len();
        let live = self.events.split_off(retained - among.min(retained));
        let mut live = live.into_iter().peekable();
        let mut evicted = 0;
        for event in late {
            while let Some(earlier) = live.next_if(|l| l.t <= event.t) {
                evicted += u64::from(self.push(earlier));
            }
            evicted += u64::from(self.push(event));
        }
        evicted + live.map(|e| u64::from(self.push(e))).sum::<u64>()
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &JournalEvent> {
        self.events.iter()
    }

    /// Events evicted (or refused, at capacity 0) since creation.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, kind: &str) -> JournalEvent {
        JournalEvent {
            t: Nanos(t),
            kind: kind.to_string(),
            fields: vec![("x".to_string(), Value::from(t))],
        }
    }

    #[test]
    fn keeps_most_recent_when_full() {
        let mut j = Journal::new(3);
        for t in 0..5 {
            j.push(ev(t, "tick"));
        }
        assert_eq!(j.evicted(), 2);
        let ts: Vec<Nanos> = j.events().map(|e| e.t).collect();
        assert_eq!(ts, vec![Nanos(2), Nanos(3), Nanos(4)]);
    }

    #[test]
    fn zero_capacity_counts_but_keeps_nothing() {
        let mut j = Journal::new(0);
        j.push(ev(1, "tick"));
        assert_eq!(j.events().count(), 0);
        assert_eq!(j.evicted(), 1);
    }

    #[test]
    fn event_serialises_with_fields() {
        let line = ev(42, "recompile").to_json().to_compact();
        assert_eq!(
            line,
            r#"{"type":"event","t_ns":42,"kind":"recompile","fields":{"x":42}}"#
        );
    }
}
