//! Conservative-lookahead shard synchronization primitives.
//!
//! The sharded simulation engine (see `qvisor-netsim`) partitions the
//! topology across shards, each owning its own [`EventQueue`]. Shards
//! advance independently inside barrier-synchronized *windows*: given the
//! earliest pending event time across all shards, every event strictly
//! before
//!
//! ```text
//! bound = min_pending + lookahead
//! ```
//!
//! is safe to process, because a cross-shard packet sent at time `t`
//! cannot arrive before `t + lookahead` (the minimum propagation delay of
//! any cut edge — the classic conservative lookahead window of
//! Chandy/Misra-style parallel discrete-event simulation).
//!
//! [`ShardClock`] computes those bounds; [`MailboxGrid`] carries the
//! cross-shard handoffs between windows as per-(sender, receiver) pair
//! SPSC-style mailboxes, drained in canonical sender order so receivers
//! observe a deterministic injection sequence.

use crate::time::Nanos;

/// Computes the conservative window bound shards may advance to.
#[derive(Clone, Copy, Debug)]
pub struct ShardClock {
    lookahead: Nanos,
}

impl ShardClock {
    /// A clock with the given lookahead — the minimum propagation delay
    /// across all cut edges. Must be positive: a zero-delay cut edge
    /// admits no conservative window and is rejected upstream.
    pub fn new(lookahead: Nanos) -> ShardClock {
        assert!(lookahead > Nanos::ZERO, "shard lookahead must be positive");
        ShardClock { lookahead }
    }

    /// The lookahead window width.
    pub fn lookahead(&self) -> Nanos {
        self.lookahead
    }

    /// The next safe bound: every event strictly before the returned time
    /// can be processed without violating cross-shard causality.
    ///
    /// `next_pending` is each shard's earliest pending event time (after
    /// mailbox injection; `None` for an idle shard); `cap` limits the
    /// window (next sample/control tick, or horizon + 1). Returns `None`
    /// when no shard has pending work — the simulation is done advancing.
    pub fn safe_bound(
        &self,
        next_pending: impl IntoIterator<Item = Option<Nanos>>,
        cap: Nanos,
    ) -> Option<Nanos> {
        let min_pending = next_pending.into_iter().flatten().min()?;
        Some(min_pending.saturating_add(self.lookahead).min(cap))
    }
}

/// A single sender→receiver mailbox: an ordered buffer of timestamped
/// handoffs posted during one window and drained at the next barrier.
#[derive(Clone, Debug)]
pub struct Mailbox<T> {
    items: Vec<(Nanos, T)>,
}

impl<T> Default for Mailbox<T> {
    fn default() -> Self {
        Mailbox { items: Vec::new() }
    }
}

impl<T> Mailbox<T> {
    /// An empty mailbox.
    pub fn new() -> Mailbox<T> {
        Mailbox::default()
    }

    /// Post a handoff due at absolute time `at`.
    pub fn post(&mut self, at: Nanos, item: T) {
        self.items.push((at, item));
    }

    /// Number of pending handoffs.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Remove and return all pending handoffs in post order.
    pub fn drain(&mut self) -> Vec<(Nanos, T)> {
        std::mem::take(&mut self.items)
    }
}

/// All `n × n` sender→receiver mailboxes of an `n`-shard simulation.
///
/// Receivers drain their column in ascending sender order, so the
/// injection sequence each shard observes is a pure function of what was
/// posted — never of scheduling timing. (With content-keyed event queues
/// even that order is immaterial; the canonical drain order keeps the
/// layer deterministic on its own.)
#[derive(Debug)]
pub struct MailboxGrid<T> {
    shards: usize,
    boxes: Vec<Mailbox<T>>,
}

impl<T> MailboxGrid<T> {
    /// An empty grid for `shards` shards.
    pub fn new(shards: usize) -> MailboxGrid<T> {
        assert!(shards > 0, "mailbox grid needs at least one shard");
        MailboxGrid {
            shards,
            boxes: (0..shards * shards).map(|_| Mailbox::new()).collect(),
        }
    }

    /// Number of shards the grid serves.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Post a handoff from shard `from` to shard `to`, due at `at`.
    pub fn post(&mut self, from: usize, to: usize, at: Nanos, item: T) {
        debug_assert!(from < self.shards && to < self.shards);
        self.boxes[from * self.shards + to].post(at, item);
    }

    /// Drain everything addressed to shard `to`, in ascending sender
    /// order (then post order within a sender).
    pub fn drain_to(&mut self, to: usize) -> Vec<(Nanos, T)> {
        debug_assert!(to < self.shards);
        let mut out = Vec::new();
        for from in 0..self.shards {
            out.append(&mut self.boxes[from * self.shards + to].items);
        }
        out
    }

    /// True when no mailbox holds a pending handoff.
    pub fn is_empty(&self) -> bool {
        self.boxes.iter().all(Mailbox::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn safe_bound_is_min_pending_plus_lookahead() {
        let clock = ShardClock::new(Nanos(50));
        let bound = clock.safe_bound([Some(Nanos(200)), Some(Nanos(120)), None], Nanos(10_000));
        assert_eq!(bound, Some(Nanos(170)));
    }

    #[test]
    fn safe_bound_caps_at_tick() {
        let clock = ShardClock::new(Nanos(1_000));
        let bound = clock.safe_bound([Some(Nanos(980))], Nanos(1_000));
        assert_eq!(bound, Some(Nanos(1_000)));
    }

    #[test]
    fn safe_bound_none_when_all_idle() {
        let clock = ShardClock::new(Nanos(5));
        assert_eq!(clock.safe_bound([None, None], Nanos(100)), None);
    }

    #[test]
    fn safe_bound_saturates_near_the_end_of_time() {
        let clock = ShardClock::new(Nanos::MAX);
        let bound = clock.safe_bound([Some(Nanos(7))], Nanos::MAX);
        assert_eq!(bound, Some(Nanos::MAX));
    }

    #[test]
    #[should_panic(expected = "lookahead must be positive")]
    fn zero_lookahead_panics() {
        ShardClock::new(Nanos::ZERO);
    }

    #[test]
    fn grid_drains_in_sender_order() {
        let mut grid: MailboxGrid<&'static str> = MailboxGrid::new(3);
        grid.post(2, 1, Nanos(30), "from-2");
        grid.post(0, 1, Nanos(10), "from-0a");
        grid.post(0, 1, Nanos(20), "from-0b");
        grid.post(1, 0, Nanos(5), "other-column");
        assert_eq!(
            grid.drain_to(1),
            vec![
                (Nanos(10), "from-0a"),
                (Nanos(20), "from-0b"),
                (Nanos(30), "from-2"),
            ]
        );
        assert!(!grid.is_empty());
        assert_eq!(grid.drain_to(0), vec![(Nanos(5), "other-column")]);
        assert!(grid.is_empty());
    }
}
