//! Deterministic discrete-event queue.
//!
//! Events scheduled for the same instant pop in tie-break key order; the
//! classic [`EventQueue::schedule`] path uses a monotone sequence number
//! as the key (FIFO tie-break), while [`EventQueue::schedule_keyed`]
//! accepts a caller-supplied content key so the pop order is a pure
//! function of *what* was scheduled rather than the order the scheduling
//! code happened to run in — the property the simulator's pinned report
//! bytes rest on. Duplicate keys fall back to insertion order, so every
//! queue is deterministic on its own trace regardless.
//!
//! Two interchangeable cores implement that contract:
//!
//! * [`EventCore::Wheel`] — a calendar queue (`crate::calendar`: a ring
//!   of 256 ns buckets, sorted as the clock enters each): O(1) amortised
//!   schedule/pop, the default. This is the hot path of every
//!   packet-level experiment.
//! * [`EventCore::Heap`] — the original `BinaryHeap` on `(at, key, seq)`:
//!   O(log n), kept alive as the *differential oracle*, selected per queue
//!   with [`EventQueue::with_core`] (or a simulation's `event_core`). The
//!   test suite drives both cores with identical traces and asserts
//!   identical behaviour, down to every example scenario's report (see
//!   `tests/event_core_differential.rs` and TESTING.md).

use crate::calendar::Calendar;
use crate::time::Nanos;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Which data structure backs an [`EventQueue`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EventCore {
    /// Calendar queue (bucket rings with an overflow heap) — O(1)
    /// amortised, the production core and the default.
    #[default]
    Wheel,
    /// Comparison-based binary heap — the reference implementation used
    /// as the differential-testing oracle.
    Heap,
}

/// One scheduled event, ordered latest-`(at, key, seq)`-first.
pub(crate) struct Entry<E, K> {
    pub(crate) at: Nanos,
    pub(crate) key: K,
    pub(crate) seq: u64,
    pub(crate) event: E,
}

impl<E, K: Ord> Ord for Entry<E, K> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest (then
        // lowest key, then lowest seq) first.
        (other.at, &other.key, other.seq).cmp(&(self.at, &self.key, self.seq))
    }
}
impl<E, K: Ord> PartialOrd for Entry<E, K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E, K: Ord> PartialEq for Entry<E, K> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}
impl<E, K: Ord> Eq for Entry<E, K> {}

// A queue is built once per simulation and lives where it is built; boxing
// the calendar (its bitmaps and the open bucket's 256 list heads are
// inline) would put a pointer chase on every schedule and pop.
#[allow(clippy::large_enum_variant)]
enum Core<E, K> {
    Wheel(Calendar<E, K>),
    Heap(BinaryHeap<Entry<E, K>>),
}

/// A time-ordered event queue driving a discrete-event simulation.
///
/// The queue tracks the current simulation clock: [`EventQueue::pop`]
/// advances it to the popped event's timestamp, and scheduling an event in
/// the past is a logic error that panics.
///
/// `K` is the same-instant tie-break key. The default `u64` instantiation
/// keeps the historical FIFO behaviour through [`EventQueue::schedule`];
/// other key types are driven through [`EventQueue::schedule_keyed`].
pub struct EventQueue<E, K: Ord + Copy = u64> {
    core: Core<E, K>,
    /// Insertion counter: the final tie-break among equal `(at, key)`
    /// entries, and the key itself on the classic FIFO path.
    seq: u64,
    now: Nanos,
}

impl<E, K: Ord + Copy> Default for EventQueue<E, K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E, K: Ord + Copy> EventQueue<E, K> {
    /// An empty queue with the clock at time zero, on the default core
    /// (the calendar).
    pub fn new() -> Self {
        Self::with_core(EventCore::default())
    }

    /// An empty queue on an explicitly chosen core. Both cores implement
    /// the exact same `(time, key, seq)` total order; tests exploit this
    /// to diff them against each other.
    pub fn with_core(core: EventCore) -> Self {
        EventQueue {
            core: match core {
                EventCore::Wheel => Core::Wheel(Calendar::new()),
                EventCore::Heap => Core::Heap(BinaryHeap::new()),
            },
            seq: 0,
            now: Nanos::ZERO,
        }
    }

    /// Which core backs this queue.
    pub fn core(&self) -> EventCore {
        match self.core {
            Core::Wheel(_) => EventCore::Wheel,
            Core::Heap(_) => EventCore::Heap,
        }
    }

    /// Current simulation time (timestamp of the last popped event).
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Schedule `event` at absolute time `at` with an explicit tie-break
    /// key: same-instant events pop in ascending key order, and equal
    /// keys fall back to insertion order.
    ///
    /// # Panics
    /// Panics if `at` is before the current clock — causality violation.
    pub fn schedule_keyed(&mut self, at: Nanos, key: K, event: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at:?} now={:?}",
            self.now
        );
        let entry = Entry {
            at,
            key,
            seq: self.seq,
            event,
        };
        match &mut self.core {
            Core::Wheel(w) => w.push(entry),
            Core::Heap(h) => h.push(entry),
        }
        self.seq += 1;
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Nanos, E)> {
        self.pop_keyed().map(|(at, _, event)| (at, event))
    }

    /// Pop the earliest event together with its tie-break key.
    pub fn pop_keyed(&mut self) -> Option<(Nanos, K, E)> {
        let entry = match &mut self.core {
            Core::Wheel(w) => w.pop()?,
            Core::Heap(h) => h.pop()?,
        };
        debug_assert!(entry.at >= self.now);
        self.now = entry.at;
        Some((entry.at, entry.key, entry.event))
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<Nanos> {
        match &self.core {
            Core::Wheel(w) => w.peek_time(),
            Core::Heap(h) => h.peek().map(|e| e.at),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.core {
            Core::Wheel(w) => w.len(),
            Core::Heap(h) => h.len(),
        }
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<E> EventQueue<E, u64> {
    /// Schedule `event` at absolute time `at` (FIFO among ties: the
    /// tie-break key is the queue's own monotone insertion counter).
    ///
    /// # Panics
    /// Panics if `at` is before the current clock — causality violation.
    pub fn schedule(&mut self, at: Nanos, event: E) {
        let key = self.seq;
        self.schedule_keyed(at, key, event);
    }

    /// Schedule `event` at `delay` after the current clock.
    ///
    /// The target time saturates at [`Nanos::MAX`] instead of wrapping, so
    /// "infinite" delays park the event at the end of time rather than
    /// panicking (or worse, firing in the past).
    pub fn schedule_in(&mut self, delay: Nanos, event: E) {
        self.schedule(self.now.saturating_add(delay), event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every contract test runs on both cores.
    fn on_both(check: impl Fn(EventQueue<&'static str>)) {
        check(EventQueue::with_core(EventCore::Wheel));
        check(EventQueue::with_core(EventCore::Heap));
    }

    #[test]
    fn pops_in_time_order() {
        on_both(|mut q| {
            q.schedule(Nanos(30), "c");
            q.schedule(Nanos(10), "a");
            q.schedule(Nanos(20), "b");
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, vec!["a", "b", "c"]);
        });
    }

    #[test]
    fn ties_break_fifo() {
        on_both(|mut q| {
            for label in ["first", "second", "third"] {
                q.schedule(Nanos(5), label);
            }
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, vec!["first", "second", "third"]);
        });
    }

    #[test]
    fn keyed_ties_break_by_key_not_insertion_order() {
        for core in [EventCore::Wheel, EventCore::Heap] {
            let mut q: EventQueue<&'static str, (u8, u32)> = EventQueue::with_core(core);
            q.schedule_keyed(Nanos(5), (2, 0), "third");
            q.schedule_keyed(Nanos(5), (0, 9), "first");
            q.schedule_keyed(Nanos(5), (1, 1), "second");
            q.schedule_keyed(Nanos(1), (9, 9), "zeroth");
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, vec!["zeroth", "first", "second", "third"]);
        }
    }

    #[test]
    fn duplicate_keys_fall_back_to_insertion_order() {
        for core in [EventCore::Wheel, EventCore::Heap] {
            let mut q: EventQueue<&'static str, u8> = EventQueue::with_core(core);
            q.schedule_keyed(Nanos(5), 1, "a");
            q.schedule_keyed(Nanos(5), 1, "b");
            q.schedule_keyed(Nanos(5), 0, "z");
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, vec!["z", "a", "b"]);
        }
    }

    #[test]
    fn clock_advances_on_pop() {
        on_both(|mut q| {
            q.schedule(Nanos(100), "e");
            assert_eq!(q.now(), Nanos::ZERO);
            q.pop();
            assert_eq!(q.now(), Nanos(100));
        });
    }

    #[test]
    fn schedule_in_is_relative() {
        on_both(|mut q| {
            q.schedule(Nanos(50), "a");
            q.pop();
            q.schedule_in(Nanos(25), "b");
            assert_eq!(q.peek_time(), Some(Nanos(75)));
        });
    }

    #[test]
    fn schedule_in_saturates_instead_of_wrapping() {
        // Regression: `now + delay` used to wrap around u64 and panic as
        // "scheduled in the past". A near-MAX delay must saturate to
        // Nanos::MAX and stay last in the total order.
        on_both(|mut q| {
            q.schedule(Nanos(100), "first");
            q.pop();
            q.schedule_in(Nanos::MAX, "horizon");
            q.schedule_in(Nanos(1), "soon");
            assert_eq!(q.peek_time(), Some(Nanos(101)));
            assert_eq!(q.pop(), Some((Nanos(101), "soon")));
            assert_eq!(q.pop(), Some((Nanos::MAX, "horizon")));
        });
    }

    #[test]
    fn events_at_nanos_max_keep_fifo_order() {
        on_both(|mut q| {
            q.schedule_in(Nanos::MAX, "a");
            q.schedule(Nanos::MAX, "b");
            assert_eq!(q.pop(), Some((Nanos::MAX, "a")));
            assert_eq!(q.pop(), Some((Nanos::MAX, "b")));
        });
    }

    #[test]
    #[should_panic(expected = "event scheduled in the past")]
    fn past_scheduling_panics() {
        let mut q = EventQueue::new();
        q.schedule(Nanos(10), ());
        q.pop();
        q.schedule(Nanos(5), ());
    }

    #[test]
    fn len_and_empty() {
        on_both(|mut q| {
            assert!(q.is_empty());
            q.schedule(Nanos(1), "e");
            assert_eq!(q.len(), 1);
            q.pop();
            assert!(q.is_empty());
        });
    }

    #[test]
    fn same_time_interleaved_push_pop_stays_fifo() {
        on_both(|mut q| {
            q.schedule(Nanos(10), "1");
            q.schedule(Nanos(10), "2");
            assert_eq!(q.pop().unwrap().1, "1");
            q.schedule(Nanos(10), "3");
            assert_eq!(q.pop().unwrap().1, "2");
            assert_eq!(q.pop().unwrap().1, "3");
        });
    }
}
