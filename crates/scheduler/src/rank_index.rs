//! An ordered container keyed by `(rank, arrival)` — the body of the exact
//! PIFO and of every PIFO-tree node.
//!
//! Order is rank first, arrival second: [`RankIndex::pop_first`] returns
//! the earliest arrival of the smallest rank, [`RankIndex::pop_last`] the
//! latest arrival of the largest. Two tiers hold the entries, chosen by
//! the entry's rank alone:
//!
//! * **Dense tier** — ranks below [`DENSE_RANKS`]. One FIFO per rank, kept
//!   as a circular doubly-linked list threaded through a slab (`heads[r]`
//!   is the first arrival of rank `r`; its `prev` is the last). A 64-word
//!   occupancy bitmap plus one summary word finds the smallest or largest
//!   occupied rank with two bit scans (Eiffel's find-first-set queue, the
//!   layout each ring of `qvisor_sim`'s calendar queue uses), so push and
//!   both pops are O(1) and move the value exactly once.
//! * **Overflow tier** — ranks at or above it, in a
//!   `BTreeMap<(Rank, u64), T>` where the `u64` is an arrival counter.
//!
//! Every dense rank sorts before every overflow rank, so the first entry
//! is the dense minimum when the dense tier is occupied and the overflow
//! map's first otherwise; the last entry is the overflow map's last when
//! it has one and the dense maximum otherwise.

use qvisor_sim::Rank;
use std::collections::BTreeMap;

/// Ranks below this live in the dense tier: a 12-bit rank field, the
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
    /// First arrival of each dense rank, grown to the largest rank seen.
    heads: Vec<u32>,
    /// Bit `r % 64` of word `r / 64` is set iff dense rank `r` is occupied.
    occupied: [u64; WORDS],
    /// Bit `w` is set iff `occupied[w]` is non-zero.
    summary: u64,
    dense_len: usize,
    overflow: BTreeMap<(Rank, u64), T>,
    /// Arrival counter for overflow keys. Dense FIFOs need none: a rank
    /// lives in exactly one tier, so arrival order never crosses tiers.
    arrivals: u64,
}

impl<T> RankIndex<T> {
    /// An empty index. Allocates nothing until the first push.
    pub fn new() -> RankIndex<T> {
        RankIndex {
            slab: Vec::new(),
            free: NIL,
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
    pub fn push(&mut self, rank: Rank, value: T) {
        if rank >= DENSE_RANKS {
            self.overflow.insert((rank, self.arrivals), value);
            self.arrivals += 1;
            return;
        }
        let r = rank as usize;
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
    pub fn pop_first(&mut self) -> Option<(Rank, T)> {
        let Some(r) = self.dense_min() else {
            return self.overflow.pop_first().map(|((rank, _), v)| (rank, v));
        };
        let head = self.heads[r];
        Some((r as Rank, self.unlink(r, head)))
    }

    /// Remove the last entry: largest rank, latest arrival.
    pub fn pop_last(&mut self) -> Option<(Rank, T)> {
        if let Some(((rank, _), v)) = self.overflow.pop_last() {
            return Some((rank, v));
        }
        let r = self.dense_max()?;
        let tail = self.slab[self.heads[r] as usize].prev;
        Some((r as Rank, self.unlink(r, tail)))
    }

    /// The first entry, left in place.
    pub fn first(&self) -> Option<(Rank, &T)> {
        let Some(r) = self.dense_min() else {
            let (&(rank, _), v) = self.overflow.first_key_value()?;
            return Some((rank, v));
        };
        Some((r as Rank, self.value(self.heads[r])))
    }

    /// Remove the earliest arrival of `rank` that `matches`.
    pub fn remove_first_where(
        &mut self,
        rank: Rank,
        mut matches: impl FnMut(&T) -> bool,
    ) -> Option<T> {
        if rank >= DENSE_RANKS {
            let key = self
                .overflow
                .range((rank, 0)..=(rank, u64::MAX))
                .find_map(|(&key, v)| matches(v).then_some(key))?;
            return self.overflow.remove(&key);
        }
        let r = rank as usize;
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
        let mut below = if rank < DENSE_RANKS {
            self.dense_below(rank as usize)
        } else {
            self.dense_max()
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
        rank > DENSE_RANKS && self.overflow.range(..(rank, 0)).any(|(_, v)| pred(v))
    }

    /// Rank of the first entry.
    pub fn first_rank(&self) -> Option<Rank> {
        match self.dense_min() {
            Some(r) => Some(r as Rank),
            None => self.overflow.keys().next().map(|&(rank, _)| rank),
        }
    }

    /// Rank of the last entry.
    pub fn last_rank(&self) -> Option<Rank> {
        match self.overflow.keys().next_back() {
            Some(&(rank, _)) => Some(rank),
            None => self.dense_max().map(|r| r as Rank),
        }
    }

    /// Entries from last to first: largest rank first, latest arrival
    /// first within a rank — the order repeated [`RankIndex::pop_last`]
    /// calls would remove them in.
    pub fn iter_rev(&self) -> IterRev<'_, T> {
        IterRev {
            index: self,
            overflow: self.overflow.iter(),
            rank: self.dense_max(),
            node: NIL,
        }
    }

    /// Smallest occupied dense rank.
    fn dense_min(&self) -> Option<usize> {
        if self.summary == 0 {
            return None;
        }
        let w = self.summary.trailing_zeros() as usize;
        Some(w * 64 + self.occupied[w].trailing_zeros() as usize)
    }

    /// Largest occupied dense rank.
    fn dense_max(&self) -> Option<usize> {
        if self.summary == 0 {
            return None;
        }
        let w = 63 - self.summary.leading_zeros() as usize;
        Some(w * 64 + 63 - self.occupied[w].leading_zeros() as usize)
    }

    /// Largest occupied dense rank strictly below `r`.
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

    /// Remove `node` from rank `r`'s list and return its value.
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
    overflow: std::collections::btree_map::Iter<'a, (Rank, u64), T>,
    /// Dense rank being walked (tail to head), once overflow is spent.
    rank: Option<usize>,
    /// Next node to yield within `rank`; `NIL` = start at its tail.
    node: u32,
}

impl<'a, T> Iterator for IterRev<'a, T> {
    type Item = (Rank, &'a T);

    fn next(&mut self) -> Option<(Rank, &'a T)> {
        if let Some((&(rank, _), v)) = self.overflow.next_back() {
            return Some((rank, v));
        }
        let r = self.rank?;
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
        Some((r as Rank, value))
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
        // Deterministic mixed workload across both tiers and the word
        // boundaries of the bitmap, against a stable-sorted Vec.
        let mut q = RankIndex::new();
        let mut model: Vec<(Rank, u64)> = Vec::new();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for step in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let rank = match x % 5 {
                0 => x % 8,
                1 => 60 + x % 8,
                2 => DENSE_RANKS - 4 + x % 8,
                3 => x % DENSE_RANKS,
                _ => u64::MAX - x % 3,
            };
            match (x >> 32) % 4 {
                0 | 1 => {
                    q.push(rank, step);
                    let at = model.partition_point(|&(r, _)| r <= rank);
                    model.insert(at, (rank, step));
                }
                2 => {
                    let want = (!model.is_empty()).then(|| model.remove(0));
                    assert_eq!(q.pop_first(), want);
                }
                _ => assert_eq!(q.pop_last(), model.pop()),
            }
            assert_eq!(q.len(), model.len());
            assert_eq!(q.first_rank(), model.first().map(|e| e.0));
            assert_eq!(q.last_rank(), model.last().map(|e| e.0));
            if step % 512 == 0 {
                let got: Vec<(Rank, u64)> = q.iter_rev().map(|(r, &v)| (r, v)).collect();
                let want: Vec<(Rank, u64)> = model.iter().rev().copied().collect();
                assert_eq!(got, want);
            }
        }
    }
}
