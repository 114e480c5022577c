//! An ordered container keyed by `(rank, arrival)` — the body of the exact
//! PIFO and of every PIFO-tree node.
//!
//! Order is rank first, arrival second: [`RankIndex::pop_first`] returns
//! the earliest arrival of the smallest rank, [`RankIndex::pop_last`] the
//! latest arrival of the largest. Two tiers hold the entries, chosen by
//! the entry's rank and the index's window:
//!
//! * **Dense tier** — ranks in the window `[base, base + DENSE_RANKS)`.
//!   One FIFO per rank, kept as a circular doubly-linked list threaded
//!   through a slab (`heads[r]` is the first arrival of rank `base + r`;
//!   its `prev` is the last). A 64-word occupancy bitmap plus one summary
//!   word finds the smallest or largest occupied rank with two bit scans
//!   (Eiffel's find-first-set queue, the layout each ring of
//!   `qvisor_sim`'s calendar queue uses), so push and both pops are O(1)
//!   and move the value exactly once.
//! * **Overflow tier** — ranks below or above the window, in a
//!   `BTreeMap<(Rank, u64), T>` where the `u64` is an arrival counter.
//!
//! The window follows the ranks: `base` is the first rank pushed into an
//! empty index, rounded down to a multiple of [`DENSE_RANKS`]. It moves
//! only then — when a push falls outside it and nothing is resident — so a
//! rank lives in one tier for as long as entries of it do, and an index
//! whose ranks stay in one window never reaches the overflow tier, wherever
//! that window lies. A new index starts at `base = 0`.
//!
//! Overflow entries below the window sort before every dense entry and
//! those above it after, so the first entry is the overflow map's first
//! when that lies below `base` and the dense minimum otherwise (the map's
//! first when the dense tier is empty); symmetrically for the last. Both
//! questions touch the map only when it holds entries.

use qvisor_sim::Rank;
use std::collections::BTreeMap;

/// Width of the dense tier's window: a 12-bit rank field, the
/// pre-processor output width `qvisor_core::HardwareModel::max_rank`
/// documents. Synthesized joint spans sit well inside it, and a fully
/// grown bucket array is 16 KiB.
pub const DENSE_RANKS: u64 = 1 << 12;

/// Words in the dense tier's occupancy bitmap.
const WORDS: usize = (DENSE_RANKS / 64) as usize;

/// "No slot": an empty bucket, or the end of the freelist.
const NIL: u32 = u32::MAX;

/// One slab slot: a list node while occupied, a freelist link (through
/// `next`) while vacant.
#[derive(Debug)]
struct Slot<T> {
    prev: u32,
    next: u32,
    value: Option<T>,
}

/// An ordered multiset of `T` keyed by rank, FIFO among equal ranks.
#[derive(Debug)]
pub struct RankIndex<T> {
    slab: Vec<Slot<T>>,
    /// Head of the vacant-slot list (LIFO, so reused storage stays hot).
    free: u32,
    /// Lowest rank of the dense window, a multiple of [`DENSE_RANKS`].
    base: Rank,
    /// First arrival of each dense rank `base + r`, grown to the largest
    /// `r` seen.
    heads: Vec<u32>,
    /// Bit `r % 64` of word `r / 64` is set iff dense rank `base + r` is
    /// occupied.
    occupied: [u64; WORDS],
    /// Bit `w` is set iff `occupied[w]` is non-zero.
    summary: u64,
    dense_len: usize,
    overflow: BTreeMap<(Rank, u64), T>,
    /// Arrival counter for overflow keys. Dense FIFOs need none: a rank
    /// lives in exactly one tier while it has entries, so arrival order
    /// never crosses tiers.
    arrivals: u64,
}

impl<T> RankIndex<T> {
    /// An empty index. Allocates nothing until the first push.
    pub fn new() -> RankIndex<T> {
        RankIndex {
            slab: Vec::new(),
            free: NIL,
            base: 0,
            heads: Vec::new(),
            occupied: [0; WORDS],
            summary: 0,
            dense_len: 0,
            overflow: BTreeMap::new(),
            arrivals: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.dense_len + self.overflow.len()
    }

    /// Insert `value` after every resident entry of the same rank.
    #[inline]
    pub fn push(&mut self, rank: Rank, value: T) {
        let r = rank.wrapping_sub(self.base);
        if r < DENSE_RANKS {
            self.push_dense(r as usize, value);
        } else {
            self.push_outside(rank, value);
        }
    }

    /// [`Self::push`] of a rank outside the window: into the overflow
    /// tier, or — with nothing resident — into a window moved to the block
    /// holding `rank`.
    #[cold]
    fn push_outside(&mut self, rank: Rank, value: T) {
        if self.len() != 0 {
            self.overflow.insert((rank, self.arrivals), value);
            self.arrivals += 1;
            return;
        }
        self.base = rank & !(DENSE_RANKS - 1);
        self.push_dense((rank - self.base) as usize, value);
    }

    /// Append `value` to the FIFO of dense offset `r`.
    #[inline]
    fn push_dense(&mut self, r: usize, value: T) {
        if r >= self.heads.len() {
            self.heads.resize(r + 1, NIL);
        }
        let node = self.alloc(value);
        let head = self.heads[r];
        if head == NIL {
            self.heads[r] = node;
            self.occupied[r / 64] |= 1 << (r % 64);
            self.summary |= 1 << (r / 64);
        } else {
            let tail = self.slab[head as usize].prev;
            let slot = &mut self.slab[node as usize];
            slot.prev = tail;
            slot.next = head;
            self.slab[tail as usize].next = node;
            self.slab[head as usize].prev = node;
        }
        self.dense_len += 1;
    }

    /// Remove the first entry: smallest rank, earliest arrival.
    #[inline]
    pub fn pop_first(&mut self) -> Option<(Rank, T)> {
        match self.dense_min() {
            Some(r) if self.overflow.is_empty() => Some(self.pop_dense_first(r)),
            _ => self.pop_first_outside(),
        }
    }

    /// [`Self::pop_first`] when the dense tier is empty or the overflow
    /// tier is not.
    #[cold]
    fn pop_first_outside(&mut self) -> Option<(Rank, T)> {
        match self.dense_min() {
            Some(r) if !self.overflow_below() => Some(self.pop_dense_first(r)),
            _ => self.overflow.pop_first().map(|((rank, _), v)| (rank, v)),
        }
    }

    /// Remove the first arrival of dense offset `r`.
    #[inline]
    fn pop_dense_first(&mut self, r: usize) -> (Rank, T) {
        let head = self.heads[r];
        (self.base + r as Rank, self.unlink(r, head))
    }

    /// Remove the last entry: largest rank, latest arrival.
    #[inline]
    pub fn pop_last(&mut self) -> Option<(Rank, T)> {
        match self.dense_max() {
            Some(r) if self.overflow.is_empty() => Some(self.pop_dense_last(r)),
            _ => self.pop_last_outside(),
        }
    }

    /// [`Self::pop_last`] when the dense tier is empty or the overflow
    /// tier is not.
    #[cold]
    fn pop_last_outside(&mut self) -> Option<(Rank, T)> {
        match self.dense_max() {
            Some(r) if !self.overflow_above() => Some(self.pop_dense_last(r)),
            _ => self.overflow.pop_last().map(|((rank, _), v)| (rank, v)),
        }
    }

    /// Remove the last arrival of dense offset `r`.
    #[inline]
    fn pop_dense_last(&mut self, r: usize) -> (Rank, T) {
        let tail = self.slab[self.heads[r] as usize].prev;
        (self.base + r as Rank, self.unlink(r, tail))
    }

    /// The first entry, left in place.
    pub fn first(&self) -> Option<(Rank, &T)> {
        match self.dense_min() {
            Some(r) if !self.overflow_below() => {
                Some((self.base + r as Rank, self.value(self.heads[r])))
            }
            _ => {
                let (&(rank, _), v) = self.overflow.first_key_value()?;
                Some((rank, v))
            }
        }
    }

    /// Remove the earliest arrival of `rank` that `matches`.
    pub fn remove_first_where(
        &mut self,
        rank: Rank,
        mut matches: impl FnMut(&T) -> bool,
    ) -> Option<T> {
        let r = rank.wrapping_sub(self.base);
        if r >= DENSE_RANKS {
            let key = self
                .overflow
                .range((rank, 0)..=(rank, u64::MAX))
                .find_map(|(&key, v)| matches(v).then_some(key))?;
            return self.overflow.remove(&key);
        }
        let r = r as usize;
        let head = *self.heads.get(r).filter(|&&head| head != NIL)?;
        let mut node = head;
        while !matches(self.value(node)) {
            node = self.slab[node as usize].next;
            if node == head {
                return None;
            }
        }
        Some(self.unlink(r, node))
    }

    /// Does any entry of a rank strictly below `rank` satisfy `pred`?
    pub fn any_below(&self, rank: Rank, mut pred: impl FnMut(&T) -> bool) -> bool {
        let mut below = match rank.checked_sub(self.base) {
            None => None,
            Some(r) if r < DENSE_RANKS => self.dense_below(r as usize),
            Some(_) => self.dense_max(),
        };
        while let Some(r) = below {
            let head = self.heads[r];
            let mut node = head;
            loop {
                if pred(self.value(node)) {
                    return true;
                }
                node = self.slab[node as usize].next;
                if node == head {
                    break;
                }
            }
            below = self.dense_below(r);
        }
        !self.overflow.is_empty() && self.overflow.range(..(rank, 0)).any(|(_, v)| pred(v))
    }

    /// Rank of the first entry.
    pub fn first_rank(&self) -> Option<Rank> {
        match self.dense_min() {
            Some(r) if !self.overflow_below() => Some(self.base + r as Rank),
            _ => self.overflow.keys().next().map(|&(rank, _)| rank),
        }
    }

    /// Rank of the last entry.
    pub fn last_rank(&self) -> Option<Rank> {
        match self.dense_max() {
            Some(r) if !self.overflow_above() => Some(self.base + r as Rank),
            _ => self.overflow.keys().next_back().map(|&(rank, _)| rank),
        }
    }

    /// Entries from last to first: largest rank first, latest arrival
    /// first within a rank — the order repeated [`RankIndex::pop_last`]
    /// calls would remove them in.
    pub fn iter_rev(&self) -> IterRev<'_, T> {
        IterRev {
            index: self,
            above: self.overflow.range((self.base, 0)..),
            below: self.overflow.range(..(self.base, 0)),
            rank: self.dense_max(),
            node: NIL,
        }
    }

    /// Does the overflow tier's first entry lie below the window? Reads
    /// the map only when it holds entries.
    #[inline]
    fn overflow_below(&self) -> bool {
        !self.overflow.is_empty()
            && (self.overflow.first_key_value()).is_some_and(|(&(rank, _), _)| rank < self.base)
    }

    /// Does the overflow tier's last entry lie above the window? Every
    /// overflow rank at or past `base` does.
    #[inline]
    fn overflow_above(&self) -> bool {
        !self.overflow.is_empty()
            && (self.overflow.last_key_value()).is_some_and(|(&(rank, _), _)| rank >= self.base)
    }

    /// Smallest occupied dense rank, as an offset from `base`.
    fn dense_min(&self) -> Option<usize> {
        if self.summary == 0 {
            return None;
        }
        let w = self.summary.trailing_zeros() as usize;
        Some(w * 64 + self.occupied[w].trailing_zeros() as usize)
    }

    /// Largest occupied dense rank, as an offset from `base`.
    fn dense_max(&self) -> Option<usize> {
        if self.summary == 0 {
            return None;
        }
        let w = 63 - self.summary.leading_zeros() as usize;
        Some(w * 64 + 63 - self.occupied[w].leading_zeros() as usize)
    }

    /// Largest occupied dense offset strictly below `r`.
    fn dense_below(&self, r: usize) -> Option<usize> {
        let w = r / 64;
        let lower = self.occupied[w] & ((1u64 << (r % 64)) - 1);
        if lower != 0 {
            return Some(w * 64 + 63 - lower.leading_zeros() as usize);
        }
        let words = self.summary & ((1u64 << w) - 1);
        if words == 0 {
            return None;
        }
        let w = 63 - words.leading_zeros() as usize;
        Some(w * 64 + 63 - self.occupied[w].leading_zeros() as usize)
    }

    /// The value in occupied slot `node`.
    fn value(&self, node: u32) -> &T {
        let value = self.slab[node as usize].value.as_ref();
        value.expect("linked slot holds a value")
    }

    /// Take a vacant slot for `value`, linked to itself.
    fn alloc(&mut self, value: T) -> u32 {
        let node = self.free;
        if node != NIL {
            let slot = &mut self.slab[node as usize];
            self.free = slot.next;
            slot.prev = node;
            slot.next = node;
            slot.value = Some(value);
            return node;
        }
        let node = u32::try_from(self.slab.len())
            .ok()
            .filter(|&n| n != NIL)
            .expect("rank index exceeds u32 slots");
        self.slab.push(Slot {
            prev: node,
            next: node,
            value: Some(value),
        });
        node
    }

    /// Remove `node` from dense offset `r`'s list and return its value.
    fn unlink(&mut self, r: usize, node: u32) -> T {
        let Slot { prev, next, .. } = self.slab[node as usize];
        if next == node {
            self.heads[r] = NIL;
            self.occupied[r / 64] &= !(1 << (r % 64));
            if self.occupied[r / 64] == 0 {
                self.summary &= !(1 << (r / 64));
            }
        } else {
            self.slab[prev as usize].next = next;
            self.slab[next as usize].prev = prev;
            if self.heads[r] == node {
                self.heads[r] = next;
            }
        }
        let slot = &mut self.slab[node as usize];
        slot.next = self.free;
        self.free = node;
        self.dense_len -= 1;
        slot.value.take().expect("linked slot holds a value")
    }
}

/// Last-to-first iterator over a [`RankIndex`]; see
/// [`RankIndex::iter_rev`].
#[derive(Debug)]
pub struct IterRev<'a, T> {
    index: &'a RankIndex<T>,
    /// Overflow entries above the window, walked first.
    above: std::collections::btree_map::Range<'a, (Rank, u64), T>,
    /// Overflow entries below the window, walked last.
    below: std::collections::btree_map::Range<'a, (Rank, u64), T>,
    /// Dense rank being walked (tail to head), once `above` is spent.
    rank: Option<usize>,
    /// Next node to yield within `rank`; `NIL` = start at its tail.
    node: u32,
}

impl<'a, T> Iterator for IterRev<'a, T> {
    type Item = (Rank, &'a T);

    fn next(&mut self) -> Option<(Rank, &'a T)> {
        if let Some((&(rank, _), v)) = self.above.next_back() {
            return Some((rank, v));
        }
        let Some(r) = self.rank else {
            let (&(rank, _), v) = self.below.next_back()?;
            return Some((rank, v));
        };
        let head = self.index.heads[r];
        let node = if self.node == NIL {
            self.index.slab[head as usize].prev
        } else {
            self.node
        };
        let slot = &self.index.slab[node as usize];
        if node == head {
            self.rank = self.index.dense_below(r);
            self.node = NIL;
        } else {
            self.node = slot.prev;
        }
        let value = slot.value.as_ref().expect("linked slot holds a value");
        Some((self.index.base + r as Rank, value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<T>(q: &mut RankIndex<T>) -> Vec<(Rank, T)> {
        std::iter::from_fn(|| q.pop_first()).collect()
    }

    #[test]
    fn orders_by_rank_then_arrival_across_tiers() {
        let mut q = RankIndex::new();
        let ranks = [
            9,
            DENSE_RANKS,
            2,
            u64::MAX,
            9,
            DENSE_RANKS - 1,
            DENSE_RANKS,
            2,
        ];
        for (i, rank) in ranks.into_iter().enumerate() {
            q.push(rank, i);
        }
        assert_eq!(q.len(), 8);
        assert_eq!(q.first_rank(), Some(2));
        assert_eq!(q.last_rank(), Some(u64::MAX));
        let back: Vec<(Rank, usize)> = q.iter_rev().map(|(r, &v)| (r, v)).collect();
        let mut front = drain(&mut q);
        assert_eq!(
            front,
            vec![
                (2, 2),
                (2, 7),
                (9, 0),
                (9, 4),
                (DENSE_RANKS - 1, 5),
                (DENSE_RANKS, 1),
                (DENSE_RANKS, 6),
                (u64::MAX, 3),
            ]
        );
        front.reverse();
        assert_eq!(back, front, "iter_rev is the exact reverse of the order");
        assert_eq!(q.len(), 0);
        assert_eq!((q.first_rank(), q.last_rank()), (None, None));
    }

    #[test]
    fn pop_last_takes_latest_arrival_of_worst_rank() {
        let mut q = RankIndex::new();
        for (i, rank) in [5u64, 70, 70, 5, 4095, 4095].into_iter().enumerate() {
            q.push(rank, i);
        }
        let planned: Vec<usize> = q.iter_rev().map(|(_, &v)| v).collect();
        let popped: Vec<usize> = std::iter::from_fn(|| q.pop_last().map(|(_, v)| v)).collect();
        assert_eq!(popped, vec![5, 4, 2, 1, 3, 0]);
        assert_eq!(planned, popped);
        assert_eq!(q.last_rank(), None);
    }

    #[test]
    fn slots_are_recycled() {
        let mut q = RankIndex::new();
        for round in 0..100u64 {
            for i in 0..8u64 {
                q.push((round * 7 + i * 13) % 300, i);
            }
            for _ in 0..4 {
                q.pop_first();
                q.pop_last();
            }
        }
        assert_eq!(q.len(), 0);
        assert_eq!(q.slab.len(), 8, "slab never outgrows peak occupancy");
        assert_eq!(q.summary, 0);
        assert!(q.occupied.iter().all(|&w| w == 0));
    }

    #[test]
    fn first_peeks_the_earliest_arrival_of_the_smallest_rank() {
        let mut q = RankIndex::new();
        assert_eq!(q.first(), None);
        q.push(u64::MAX, 'a');
        q.push(DENSE_RANKS, 'b');
        q.push(DENSE_RANKS, 'c');
        assert_eq!(q.first(), Some((DENSE_RANKS, &'b')), "overflow tier");
        q.push(7, 'd');
        q.push(7, 'e');
        assert_eq!(q.first(), Some((7, &'d')), "dense sorts before overflow");
        assert_eq!(q.len(), 5, "first() removes nothing");
    }

    /// Removing the head, a middle entry and the only entry of a rank, in
    /// the dense tier (rank 70: word 1 of the bitmap) and the overflow tier.
    #[test]
    fn remove_first_where_unlinks_head_middle_and_only_entry() {
        for rank in [70, DENSE_RANKS - 1, DENSE_RANKS, u64::MAX] {
            let mut q = RankIndex::new();
            for v in [10, 20, 30, 20] {
                q.push(rank, v);
            }
            q.push(3, 99);
            assert_eq!(q.remove_first_where(rank, |&v| v == 7), None, "no match");
            assert_eq!(
                q.remove_first_where(rank.wrapping_add(1), |_| true),
                None,
                "empty rank"
            );
            assert_eq!(q.remove_first_where(rank - 1, |_| true), None, "empty rank");
            assert_eq!(q.len(), 5);
            // Middle: the *earlier* of the two 20s goes, the later stays.
            assert_eq!(q.remove_first_where(rank, |&v| v == 20), Some(20));
            // Head: the rank's FIFO now starts at 30.
            assert_eq!(q.remove_first_where(rank, |&v| v == 10), Some(10));
            assert_eq!(q.remove_first_where(3, |_| true), Some(99), "only entry");
            assert_eq!(q.first(), Some((rank, &30)));
            assert_eq!(drain(&mut q), vec![(rank, 30), (rank, 20)]);
            // The only entry of a rank takes its occupancy bits with it.
            q.push(rank, 1);
            assert_eq!(q.remove_first_where(rank, |_| true), Some(1));
            assert_eq!((q.len(), q.first(), q.last_rank()), (0, None, None));
            assert_eq!(q.summary, 0);
            assert!(q.occupied.iter().all(|&w| w == 0));
        }
    }

    #[test]
    fn any_below_walks_only_strictly_lower_ranks_in_both_tiers() {
        let mut q = RankIndex::new();
        assert!(!q.any_below(u64::MAX, |_| true), "empty");
        for (rank, v) in [
            (5, 'a'),
            (5, 'b'),
            (64, 'c'),
            (DENSE_RANKS - 1, 'd'),
            (DENSE_RANKS, 'e'),
            (u64::MAX, 'f'),
        ] {
            q.push(rank, v);
        }
        let below = |rank: Rank| {
            let mut seen = Vec::new();
            q.any_below(rank, |&v| {
                seen.push(v);
                false
            });
            seen.sort_unstable();
            seen
        };
        assert_eq!(below(0), vec![]);
        assert_eq!(below(5), vec![]);
        assert_eq!(below(6), vec!['a', 'b']);
        assert_eq!(below(64), vec!['a', 'b']);
        assert_eq!(below(DENSE_RANKS - 1), vec!['a', 'b', 'c']);
        assert_eq!(below(DENSE_RANKS), vec!['a', 'b', 'c', 'd']);
        assert_eq!(below(DENSE_RANKS + 1), vec!['a', 'b', 'c', 'd', 'e']);
        assert_eq!(below(u64::MAX), vec!['a', 'b', 'c', 'd', 'e']);
        assert!(q.any_below(65, |&v| v == 'c'));
        assert!(!q.any_below(64, |&v| v == 'c'));
        assert!(q.any_below(u64::MAX, |&v| v == 'e'));
        assert!(!q.any_below(u64::MAX, |&v| v == 'f'));
    }

    #[test]
    fn matches_sorted_vec_model() {
        // A deterministic mixed workload against a stable-sorted Vec, in
        // phases that each end with the index drained, so that every
        // phase's first push rebases the window: at 0, near 2^60 and near
        // u64::MAX. Ranks land inside the window (on the bitmap's word
        // boundaries too), below it and above it.
        let mut q = RankIndex::new();
        let mut model: Vec<(Rank, u64)> = Vec::new();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let (mut id, mut below, mut above, mut bases) = (0u64, 0, 0, Vec::new());
        let check = |q: &RankIndex<u64>, model: &[(Rank, u64)]| {
            assert_eq!(q.len(), model.len());
            assert_eq!(q.first().map(|(r, &v)| (r, v)), model.first().copied());
            assert_eq!(q.first_rank(), model.first().map(|e| e.0));
            assert_eq!(q.last_rank(), model.last().map(|e| e.0));
        };
        for phase in 0..30u64 {
            let origin = match phase % 3 {
                0 => next() % 64,
                1 => (1 << 60) + next() % (3 * DENSE_RANKS),
                _ => u64::MAX - next() % (3 * DENSE_RANKS),
            };
            let window = origin & !(DENSE_RANKS - 1);
            assert!(model.is_empty());
            for step in 0..1_500u64 {
                let x = next();
                let rank = match (step, x % 9) {
                    (0, _) => origin,
                    (_, 0) => window + x % 8,
                    (_, 1) => window + 60 + x % 8,
                    (_, 2) => window.saturating_add(DENSE_RANKS - 4 + x % 8),
                    (_, 3) => window + x % DENSE_RANKS,
                    (_, 4) => window.wrapping_sub(1 + x % 8),
                    (_, 5) => x % 8,
                    (_, 6) => window.saturating_add(DENSE_RANKS + x % 8),
                    _ => u64::MAX - x % 3,
                };
                match (step, (x >> 32) % 8) {
                    (0, _) | (_, 0..=2) => {
                        q.push(rank, id);
                        let at = model.partition_point(|&(r, _)| r <= rank);
                        model.insert(at, (rank, id));
                        id += 1;
                        if step == 0 {
                            assert_eq!(q.base, window, "phase {phase}: rebased on {origin}");
                            bases.push(q.base);
                        }
                        below += usize::from(rank < q.base);
                        above += usize::from(rank - q.base.min(rank) >= DENSE_RANKS);
                    }
                    (_, 3) => {
                        let want = (!model.is_empty()).then(|| model.remove(0));
                        assert_eq!(q.pop_first(), want);
                    }
                    (_, 4) => assert_eq!(q.pop_last(), model.pop()),
                    (_, 5) => {
                        // The earliest arrival of a resident rank (or of
                        // one nobody holds) whose value matches.
                        let rank = match model.len() {
                            0 => rank,
                            n => model[(x >> 8) as usize % n].0,
                        };
                        let k = (x >> 20) % 3;
                        let at = model.iter().position(|&(r, v)| r == rank && v % 3 == k);
                        let want = at.map(|at| model.remove(at).1);
                        assert_eq!(q.remove_first_where(rank, |&v| v % 3 == k), want);
                    }
                    (_, 6) => {
                        let k = (x >> 20) % 5;
                        let want = model.iter().any(|&(r, v)| r < rank && v % 5 == k);
                        assert_eq!(q.any_below(rank, |&v| v % 5 == k), want, "below {rank}");
                    }
                    _ => {
                        let got: Vec<(Rank, u64)> = q.iter_rev().map(|(r, &v)| (r, v)).collect();
                        let want: Vec<(Rank, u64)> = model.iter().rev().copied().collect();
                        assert_eq!(got, want);
                    }
                }
                check(&q, &model);
            }
            // Drain from both ends; the next phase starts on an empty index.
            while !model.is_empty() {
                if next() % 2 == 0 {
                    assert_eq!(q.pop_first(), Some(model.remove(0)));
                } else {
                    assert_eq!(q.pop_last(), model.pop());
                }
                check(&q, &model);
            }
            assert_eq!((q.pop_first(), q.pop_last()), (None, None));
        }
        assert!(
            below > 1_000 && above > 1_000,
            "below {below}, above {above}"
        );
        assert!(bases.contains(&0) && bases.iter().any(|&b| b > u64::MAX - 3 * DENSE_RANKS));
        assert!(bases.iter().any(|&b| b >> 60 == 1));
    }
}
