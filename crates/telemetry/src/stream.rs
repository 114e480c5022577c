//! Fan-out snapshot streaming for long-running processes.
//!
//! The control-plane daemon publishes a telemetry snapshot after every
//! committed reconfiguration; any number of subscribers (TCP sessions
//! serving `subscribe-telemetry`) receive each published line. The bus is
//! deliberately minimal and thread-safe — it carries already-serialised
//! JSON lines, so it works identically whether the publisher's registry is
//! enabled (real snapshots) or disabled (empty exports).
//!
//! Delivery is at-most-once per subscriber and never blocks the publisher:
//! each subscriber owns a **bounded** queue
//! ([`DEFAULT_SUBSCRIBER_CAPACITY`] lines). A subscriber that stops
//! draining does not grow the daemon's heap without bound — on overflow
//! the oldest queued line is dropped and counted in
//! [`SnapshotBus::dropped_lines`], which the daemon surfaces in `status`
//! as `bus_lines_dropped`. Subscribers that have hung up are pruned on
//! the next publish.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::RecvError;
use std::sync::{Arc, Condvar, Mutex};

/// Default bound on each subscriber's queued-line backlog.
pub const DEFAULT_SUBSCRIBER_CAPACITY: usize = 1024;

#[derive(Debug, Default)]
struct SlotState {
    lines: VecDeque<String>,
    closed: bool,
}

#[derive(Debug, Default)]
struct Slot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

/// The receiving end of one [`SnapshotBus`] subscription.
///
/// Mirrors the blocking/non-blocking read surface of
/// `std::sync::mpsc::Receiver` so call sites can drain it the same way.
/// Dropping the receiver unsubscribes (pruned on the next publish).
#[derive(Debug)]
pub struct BusReceiver {
    slot: Arc<Slot>,
}

impl BusReceiver {
    /// Block until a line is available (or the bus is gone). Returns
    /// `Err` only when the bus has been dropped and the backlog is empty.
    pub fn recv(&self) -> Result<String, RecvError> {
        let mut st = self.slot.state.lock().expect("snapshot bus poisoned");
        loop {
            if let Some(line) = st.lines.pop_front() {
                return Ok(line);
            }
            if st.closed {
                return Err(RecvError);
            }
            st = self.slot.ready.wait(st).expect("snapshot bus poisoned");
        }
    }

    /// Drain every line currently queued, without blocking.
    pub fn try_iter(&self) -> impl Iterator<Item = String> {
        let mut st = self.slot.state.lock().expect("snapshot bus poisoned");
        std::mem::take(&mut st.lines).into_iter()
    }
}

impl Drop for BusReceiver {
    fn drop(&mut self) {
        self.slot
            .state
            .lock()
            .expect("snapshot bus poisoned")
            .closed = true;
    }
}

/// A broadcast bus for serialized telemetry snapshot lines.
///
/// Cloneless by design: share it behind an `Arc`. Publishing walks the
/// subscriber list under a short mutex; queue pushes are non-blocking and
/// bounded per subscriber (drop-oldest on overflow).
#[derive(Debug)]
pub struct SnapshotBus {
    subscribers: Mutex<Vec<Arc<Slot>>>,
    capacity: usize,
    dropped: AtomicU64,
}

impl Default for SnapshotBus {
    fn default() -> SnapshotBus {
        SnapshotBus::with_capacity(DEFAULT_SUBSCRIBER_CAPACITY)
    }
}

impl SnapshotBus {
    /// Create an empty bus with the default per-subscriber queue bound.
    pub fn new() -> SnapshotBus {
        SnapshotBus::default()
    }

    /// Create an empty bus bounding each subscriber queue to `capacity`
    /// lines (a capacity of 0 keeps one line).
    pub fn with_capacity(capacity: usize) -> SnapshotBus {
        SnapshotBus {
            subscribers: Mutex::new(Vec::new()),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
        }
    }

    /// Register a new subscriber; every subsequent [`publish`](Self::publish)
    /// queues one line for the returned receiver, up to the queue bound.
    /// Dropping the receiver unsubscribes (pruned on the next publish).
    pub fn subscribe(&self) -> BusReceiver {
        let slot = Arc::new(Slot::default());
        self.subscribers
            .lock()
            .expect("snapshot bus poisoned")
            .push(Arc::clone(&slot));
        BusReceiver { slot }
    }

    /// Deliver `line` to every live subscriber, pruning closed ones. On a
    /// full subscriber queue the oldest line is dropped (and counted) so
    /// a stalled subscriber sees the most recent snapshots when it
    /// resumes. Returns the number of subscribers that received the line.
    pub fn publish(&self, line: &str) -> usize {
        let mut subs = self.subscribers.lock().expect("snapshot bus poisoned");
        let mut dropped = 0u64;
        subs.retain(|slot| {
            let mut st = slot.state.lock().expect("snapshot bus poisoned");
            if st.closed {
                return false;
            }
            if st.lines.len() >= self.capacity {
                st.lines.pop_front();
                dropped += 1;
            }
            st.lines.push_back(line.to_string());
            slot.ready.notify_one();
            true
        });
        if dropped > 0 {
            self.dropped.fetch_add(dropped, Ordering::Relaxed);
        }
        subs.len()
    }

    /// Total lines dropped across all subscribers due to full queues.
    pub fn dropped_lines(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Number of currently registered subscribers (including any that have
    /// hung up but have not yet been pruned by a publish).
    pub fn len(&self) -> usize {
        self.subscribers
            .lock()
            .expect("snapshot bus poisoned")
            .len()
    }

    /// True when no subscribers are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Drop for SnapshotBus {
    fn drop(&mut self) {
        // Wake blocked receivers so recv() returns Err instead of hanging.
        let subs = self.subscribers.lock().expect("snapshot bus poisoned");
        for slot in subs.iter() {
            slot.state.lock().expect("snapshot bus poisoned").closed = true;
            slot.ready.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_reaches_every_subscriber() {
        let bus = SnapshotBus::new();
        let a = bus.subscribe();
        let b = bus.subscribe();
        assert_eq!(bus.publish("snap-1"), 2);
        assert_eq!(a.recv().unwrap(), "snap-1");
        assert_eq!(b.recv().unwrap(), "snap-1");
    }

    #[test]
    fn dropped_subscribers_are_pruned() {
        let bus = SnapshotBus::new();
        let a = bus.subscribe();
        let b = bus.subscribe();
        drop(b);
        assert_eq!(bus.publish("snap"), 1);
        assert_eq!(a.recv().unwrap(), "snap");
        assert_eq!(bus.len(), 1);
    }

    #[test]
    fn publish_without_subscribers_is_fine() {
        let bus = SnapshotBus::new();
        assert!(bus.is_empty());
        assert_eq!(bus.publish("snap"), 0);
    }

    #[test]
    fn cross_thread_delivery() {
        let bus = Arc::new(SnapshotBus::new());
        let rx = bus.subscribe();
        let publisher = {
            let bus = Arc::clone(&bus);
            std::thread::spawn(move || {
                for i in 0..10u32 {
                    bus.publish(&format!("line-{i}"));
                }
            })
        };
        publisher.join().unwrap();
        let got: Vec<String> = rx.try_iter().collect();
        assert_eq!(got.len(), 10);
        assert_eq!(got[9], "line-9");
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let bus = SnapshotBus::with_capacity(4);
        let rx = bus.subscribe();
        for i in 0..10u32 {
            bus.publish(&format!("line-{i}"));
        }
        assert_eq!(bus.dropped_lines(), 6);
        let got: Vec<String> = rx.try_iter().collect();
        assert_eq!(got, vec!["line-6", "line-7", "line-8", "line-9"]);
    }

    #[test]
    fn overflow_counts_per_subscriber() {
        let bus = SnapshotBus::with_capacity(1);
        let _a = bus.subscribe();
        let _b = bus.subscribe();
        bus.publish("one");
        bus.publish("two");
        bus.publish("three");
        // Two full queues, two publishes past capacity each.
        assert_eq!(bus.dropped_lines(), 4);
    }

    #[test]
    fn dropping_the_bus_unblocks_recv() {
        let bus = Arc::new(SnapshotBus::new());
        let rx = bus.subscribe();
        bus.publish("last");
        drop(bus);
        assert_eq!(rx.recv().unwrap(), "last");
        assert!(rx.recv().is_err(), "closed bus with empty backlog errors");
    }

    #[test]
    fn blocked_recv_wakes_on_publish() {
        let bus = Arc::new(SnapshotBus::new());
        let rx = bus.subscribe();
        let publisher = {
            let bus = Arc::clone(&bus);
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                bus.publish("wake");
            })
        };
        assert_eq!(rx.recv().unwrap(), "wake");
        publisher.join().unwrap();
    }
}
