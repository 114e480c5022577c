//! Calendar queue — the O(1) event core behind
//! [`EventQueue`](crate::EventQueue), sized to the traffic a packet-level
//! run actually schedules (several hundred pending events: delays of 80 ns
//! to 13 µs, one retransmission timer ≤ 500 µs ahead per flow in flight,
//! and the flow starts and CBR emissions not due for milliseconds).
//!
//! Eiffel's circular find-first-set bucket queue, in four tiers whose lists
//! are threaded through one slab of nodes:
//!
//! * **Open bucket** — the 256 ns bucket the clock is in, split by
//!   nanosecond as the clock enters it: one `(key, seq)`-ordered list per
//!   offset. Every pop comes off the head of one of these lists.
//! * **Fine ring** — 4096 buckets × 256 ns, a sliding ≈ 1 ms window that
//!   starts at the cursor. A bucket is an unordered list: push is a prepend.
//! * **Coarse ring** — 4096 buckets × 2^20 ns (≈ 4.3 s), for entries past
//!   the fine window. A coarse bucket is relinked into the fine ring, node
//!   by node, when the clock enters it.
//! * **Heap** — a `BinaryHeap` for everything beyond the coarse window;
//!   entries move straight into the fine ring once it reaches them.
//!
//! Invariants (argued in DESIGN.md "Event core"): entries pop in strictly
//! increasing `(at, key, seq)` order, byte-identical to the binary-heap
//! oracle; between calls the cursor `cur` is the bucket of the last popped
//! entry, never ahead of the clock; a far tier is emptied before anything
//! in it is due; an entry is written once and relinked at most twice (far
//! tier → fine ring → open bucket), and nothing allocates per bucket.

use crate::events::Entry;
use crate::time::Nanos;
use std::collections::BinaryHeap;

/// log2 of the fine bucket width in ns.
const FINE_SHIFT: u32 = 8;
/// log2 of the bucket count of either ring.
const RING_BITS: u32 = 12;
/// Buckets per ring.
const RING: u64 = 1 << RING_BITS;
/// log2 of the coarse bucket width: one coarse bucket spans the fine ring.
const COARSE_SHIFT: u32 = FINE_SHIFT + RING_BITS;
/// Nanoseconds per fine bucket: the lists of the open bucket.
const SLOTS: usize = 1 << FINE_SHIFT;
/// Words in a ring's occupancy bitmap.
const WORDS: usize = RING as usize / 64;
/// "No node": an empty bucket, the end of a list or of the freelist.
const NIL: u32 = u32::MAX;

/// One slab slot: a list node while `event` is `Some`, a freelist link
/// (through `next`) while vacant.
struct Node<E, K> {
    next: u32,
    at: u64,
    key: K,
    seq: u64,
    event: Option<E>,
}

#[derive(Clone, Copy)]
struct Bucket {
    /// First node of the bucket's list.
    head: u32,
    /// Smallest `at` in the bucket, as an offset from the bucket's start
    /// (`u32::MAX` while empty), so the next pending time is found without
    /// walking a list.
    min_off: u32,
}

const EMPTY: Bucket = Bucket {
    head: NIL,
    min_off: u32::MAX,
};

/// A ring of `RING` buckets of `1 << shift` ns over a sliding window of
/// bucket indices (`at >> shift`), with the two-level occupancy bitmap
/// `RankIndex` uses: the next occupied bucket is two bit scans away.
struct Ring {
    shift: u32,
    buckets: Vec<Bucket>,
    /// Bit `s % 64` of word `s / 64` is set iff slot `s` is occupied.
    occupied: [u64; WORDS],
    /// Bit `w` is set iff `occupied[w]` is non-zero.
    summary: u64,
}

impl Ring {
    fn new(shift: u32) -> Ring {
        Ring {
            shift,
            buckets: vec![EMPTY; RING as usize],
            occupied: [0; WORDS],
            summary: 0,
        }
    }

    /// Prepend `node` to the bucket of its timestamp.
    fn link<E, K>(&mut self, slab: &mut [Node<E, K>], node: u32) {
        let at = slab[node as usize].at;
        let slot = ((at >> self.shift) % RING) as usize;
        let bucket = &mut self.buckets[slot];
        bucket.min_off = bucket.min_off.min((at & ((1 << self.shift) - 1)) as u32);
        slab[node as usize].next = std::mem::replace(&mut bucket.head, node);
        self.occupied[slot / 64] |= 1 << (slot % 64);
        self.summary |= 1 << (slot / 64);
    }

    /// Empty bucket `index`, returning the head of its list.
    fn take(&mut self, index: u64) -> u32 {
        let slot = (index % RING) as usize;
        self.occupied[slot / 64] &= !(1 << (slot % 64));
        if self.occupied[slot / 64] == 0 {
            self.summary &= !(1 << (slot / 64));
        }
        std::mem::replace(&mut self.buckets[slot], EMPTY).head
    }

    /// Lowest occupied slot `>= start`, if any (no wrap).
    fn scan(&self, start: usize) -> Option<usize> {
        let word = start / 64;
        let here = self.occupied[word] & (!0 << (start % 64));
        if here != 0 {
            return Some(word * 64 + here.trailing_zeros() as usize);
        }
        let later = self.summary & (!0 << word << 1);
        (later != 0).then(|| {
            let word = later.trailing_zeros() as usize;
            word * 64 + self.occupied[word].trailing_zeros() as usize
        })
    }

    /// The first occupied bucket of the window starting at bucket `from`,
    /// as `(bucket index, earliest at in it)`.
    fn first(&self, from: u64) -> Option<(u64, u64)> {
        let slot = self.scan((from % RING) as usize).or_else(|| self.scan(0))?;
        let index = from + ((slot as u64).wrapping_sub(from) % RING);
        let min_off = self.buckets[slot].min_off as u64;
        Some((index, (index << self.shift) | min_off))
    }
}

/// A calendar queue over `(at, key, seq, event)` entries.
///
/// Pure container: the owning [`EventQueue`](crate::EventQueue) assigns
/// sequence numbers and enforces the no-scheduling-in-the-past contract.
pub(crate) struct Calendar<E, K> {
    slab: Vec<Node<E, K>>,
    /// Head of the vacant-node list (LIFO, so reused storage stays hot).
    free: u32,
    /// The open bucket — fine bucket `cur`, the one the clock is in — split
    /// by nanosecond: `open[s]` is the last node of a circular list (its
    /// `next` is the first) of the entries at offset `s`, in `(key, seq)`
    /// order.
    open: [u32; SLOTS],
    /// Bit `s % 64` of word `s / 64` is set iff `open[s]` is occupied.
    open_bits: [u64; SLOTS / 64],
    fine: Ring,
    coarse: Ring,
    far: BinaryHeap<Entry<E, K>>,
    /// Cursor: fine-bucket index of the last popped entry.
    cur: u64,
    /// Earliest pending timestamp; exact whenever `len > 0`.
    next: u64,
    len: usize,
}

impl<E, K: Ord + Copy> Calendar<E, K> {
    pub(crate) fn new() -> Calendar<E, K> {
        Calendar {
            slab: Vec::new(),
            free: NIL,
            open: [NIL; SLOTS],
            open_bits: [0; SLOTS / 64],
            fine: Ring::new(FINE_SHIFT),
            coarse: Ring::new(COARSE_SHIFT),
            far: BinaryHeap::new(),
            cur: 0,
            next: 0,
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Earliest pending timestamp without popping (exact, O(1)).
    pub(crate) fn peek_time(&self) -> Option<Nanos> {
        (self.len > 0).then_some(Nanos(self.next))
    }

    /// Insert an entry. `entry.at` must be `>=` the last popped timestamp
    /// (enforced by the owning queue; debug-asserted here).
    pub(crate) fn push(&mut self, entry: Entry<E, K>) {
        let at = entry.at.0;
        let bucket = at >> FINE_SHIFT;
        debug_assert!(bucket >= self.cur, "calendar push behind the cursor");
        self.next = if self.len == 0 { at } else { self.next.min(at) };
        self.len += 1;
        if (at >> COARSE_SHIFT) - (self.cur >> RING_BITS) >= RING {
            return self.far.push(entry);
        }
        let node = self.alloc(entry);
        if bucket == self.cur {
            self.open_insert(node);
        } else if bucket - self.cur < RING {
            self.fine.link(&mut self.slab, node);
        } else {
            self.coarse.link(&mut self.slab, node);
        }
    }

    /// Remove and return the earliest entry.
    pub(crate) fn pop(&mut self) -> Option<Entry<E, K>> {
        if self.len == 0 {
            return None;
        }
        if self.next >> FINE_SHIFT != self.cur {
            self.refill();
        }
        // The open bucket holds every entry of `cur`, so the earliest
        // pending entry is the first of the list of its nanosecond.
        let slot = self.next as usize % SLOTS;
        let last = self.open[slot];
        let index = self.slab[last as usize].next;
        let node = &mut self.slab[index as usize];
        let after = std::mem::replace(&mut node.next, self.free);
        self.free = index;
        self.len -= 1;
        let entry = Entry {
            at: Nanos(node.at),
            key: node.key,
            seq: node.seq,
            event: node.event.take().expect("listed node holds an event"),
        };
        if index != last {
            self.slab[last as usize].next = after;
        } else {
            self.open[slot] = NIL;
            self.open_bits[slot / 64] &= !(1 << (slot % 64));
            self.next = match self.open_first(slot) {
                Some(slot) => (self.cur << FINE_SHIFT) | slot as u64,
                None => {
                    let [(_, fine), (_, coarse), (_, far)] = self.parked();
                    fine.min(coarse).min(far)
                }
            };
        }
        Some(entry)
    }

    /// Store `entry` in a vacant slab node, linked nowhere yet.
    fn alloc(&mut self, entry: Entry<E, K>) -> u32 {
        let node = Node {
            next: NIL,
            at: entry.at.0,
            key: entry.key,
            seq: entry.seq,
            event: Some(entry.event),
        };
        let index = match self.free {
            NIL => u32::try_from(self.slab.len()).unwrap_or(NIL),
            free => free,
        };
        assert!(index != NIL, "fewer than 2^32 - 1 pending events");
        match self.slab.get_mut(index as usize) {
            Some(vacant) => self.free = std::mem::replace(vacant, node).next,
            None => self.slab.push(node),
        }
        index
    }

    /// Link `node` into the open bucket's list for its nanosecond, keeping
    /// the list in `(key, seq)` order. A new last entry (FIFO keys) or
    /// first entry (a bucket's list arrives newest first) is placed without
    /// a walk.
    fn open_insert(&mut self, node: u32) {
        let n = &self.slab[node as usize];
        let (slot, order) = (n.at as usize % SLOTS, (n.key, n.seq));
        let last = self.open[slot];
        if last == NIL {
            self.open_bits[slot / 64] |= 1 << (slot % 64);
            self.slab[node as usize].next = node;
            self.open[slot] = node;
            return;
        }
        let precedes = |slab: &[Node<E, K>], other: u32| {
            (slab[other as usize].key, slab[other as usize].seq) < order
        };
        // `prev` is the node the new one goes after; after the last one
        // (whose successor is the first) when it is the new last or first.
        let mut prev = last;
        if precedes(&self.slab, last) {
            self.open[slot] = node;
        } else {
            while precedes(&self.slab, self.slab[prev as usize].next) {
                prev = self.slab[prev as usize].next;
            }
        }
        self.slab[node as usize].next = std::mem::replace(&mut self.slab[prev as usize].next, node);
    }

    /// Lowest occupied slot of the open bucket at or after `from`.
    fn open_first(&self, from: usize) -> Option<usize> {
        let mut mask = !0 << (from % 64);
        (from / 64..SLOTS / 64).find_map(|word| {
            let bits = self.open_bits[word] & std::mem::replace(&mut mask, !0);
            (bits != 0).then(|| word * 64 + bits.trailing_zeros() as usize)
        })
    }

    /// For the fine ring, the coarse ring and the heap: the first fine
    /// bucket the tier could hold an entry in and the earliest `at` in the
    /// tier (`u64::MAX` twice when it is empty).
    fn parked(&self) -> [(u64, u64); 3] {
        const NONE: (u64, u64) = (u64::MAX, u64::MAX);
        let coarse = self.coarse.first(self.cur >> RING_BITS);
        [
            self.fine.first(self.cur).unwrap_or(NONE),
            coarse.map_or(NONE, |(c, at)| (c << RING_BITS, at)),
            self.far
                .peek()
                .map_or(NONE, |e| (e.at.0 >> FINE_SHIFT, e.at.0)),
        ]
    }

    /// Open the earliest pending fine bucket (the open one is empty) and
    /// move the cursor to it. A far tier that could hold an entry at or
    /// before that bucket is emptied into the fine ring first, earliest
    /// tier first; the cursor may jump ahead to do so because nothing
    /// pending precedes the jump and the caller pops from the opened bucket
    /// before returning.
    fn refill(&mut self) {
        loop {
            let [(fine, _), (coarse, _), (far, _)] = self.parked();
            debug_assert!(self.cur <= fine.min(coarse).min(far));
            if coarse <= fine.min(far) {
                // Entering a coarse bucket: its span is exactly one fine
                // window, so every node has a fine slot.
                self.cur = coarse;
                let mut node = self.coarse.take(coarse >> RING_BITS);
                while node != NIL {
                    let next = self.slab[node as usize].next;
                    self.fine.link(&mut self.slab, node);
                    node = next;
                }
            } else if far <= fine {
                // The heap's earliest entry is due: it alone moves.
                self.cur = far;
                let entry = self.far.pop().expect("`far` is its bucket");
                let node = self.alloc(entry);
                self.fine.link(&mut self.slab, node);
            } else {
                self.cur = fine;
                break;
            }
        }
        let mut node = self.fine.take(self.cur);
        while node != NIL {
            let next = self.slab[node as usize].next;
            self.open_insert(node);
            node = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    type Cal = Calendar<u64, u64>;

    fn push(w: &mut Cal, at: u64, key: u64, seq: u64) {
        w.push(Entry {
            at: Nanos(at),
            key,
            seq,
            event: seq,
        });
    }

    fn pop(w: &mut Cal) -> Option<(u64, u64, u64)> {
        w.pop().map(|e| (e.at.0, e.key, e.seq))
    }

    fn drain(w: &mut Cal) -> Vec<(u64, u64, u64)> {
        std::iter::from_fn(|| pop(w)).collect()
    }

    /// A calendar whose clock (and cursor) stands at `now`.
    fn at_time(now: u64) -> Cal {
        let mut w = Cal::new();
        push(&mut w, now, 0, 0);
        assert_eq!(pop(&mut w), Some((now, 0, 0)));
        assert_eq!(w.cur, now >> FINE_SHIFT);
        w
    }

    /// Which tiers hold parked entries: `(fine, coarse, heap)`.
    fn tiers(w: &Cal) -> (bool, bool, bool) {
        (
            w.fine.summary != 0,
            w.coarse.summary != 0,
            !w.far.is_empty(),
        )
    }

    #[test]
    fn same_instant_pops_in_key_then_seq_order() {
        // Content keys arrive in arbitrary order, in a bucket the clock has
        // yet to enter; duplicates fall back to insertion order.
        let mut w = Cal::new();
        for (key, seq) in [(9, 0), (2, 1), (7, 2), (2, 3), (0, 4)] {
            push(&mut w, 4_000, key, seq);
        }
        let order: Vec<_> = drain(&mut w).into_iter().map(|(_, k, s)| (k, s)).collect();
        assert_eq!(order, vec![(0, 4), (2, 1), (2, 3), (7, 2), (9, 0)]);
    }

    #[test]
    fn same_instant_entries_from_every_tier_pop_in_key_order() {
        // One timestamp, reached through the heap, the coarse ring, the
        // fine ring and a push into the open bucket, as the clock closes in.
        let t = (1u64 << 40) + 77;
        let mut w = Cal::new();
        push(&mut w, t, 6, 0);
        assert_eq!(tiers(&w), (false, false, true), "beyond the coarse ring");
        push(&mut w, t - (1 << 31), 0, 1);
        pop(&mut w);
        push(&mut w, t, 2, 2);
        assert_eq!(tiers(&w), (false, true, true), "past the fine window");
        push(&mut w, t - (1 << 19), 0, 3);
        pop(&mut w);
        push(&mut w, t, 4, 4);
        assert_eq!(tiers(&w), (true, true, true), "inside the fine window");
        push(&mut w, t - 70, 0, 5);
        assert_eq!(pop(&mut w), Some((t - 70, 0, 5)));
        assert_eq!(w.cur, t >> FINE_SHIFT, "the shared bucket is open");
        assert_eq!(tiers(&w), (false, false, false), "and holds all of it");
        for (key, seq) in [(5, 6), (1, 7), (4, 8), (9, 9)] {
            push(&mut w, t, key, seq);
        }
        let keys: Vec<_> = drain(&mut w).into_iter().map(|(_, k, s)| (k, s)).collect();
        assert_eq!(
            keys,
            vec![(1, 7), (2, 2), (4, 4), (4, 8), (5, 6), (6, 0), (9, 9)]
        );
    }

    #[test]
    fn push_behind_every_pending_bucket_keeps_the_cursor_at_the_clock() {
        // A pop empties the open bucket; the next bucket is far ahead. The
        // cursor must stay with the clock, so that earlier pushes land in
        // buckets of their own (one prepend each) and not behind it.
        let mut w = Cal::new();
        push(&mut w, 1_000, 0, 0);
        push(&mut w, 900_000, 0, 1);
        assert_eq!(pop(&mut w), Some((1_000, 0, 0)));
        assert_eq!(w.cur, 1_000 >> FINE_SHIFT, "cursor ran ahead of the clock");
        assert_eq!(w.peek_time(), Some(Nanos(900_000)));
        push(&mut w, 1_500, 0, 2); // a later bucket, before every pending one
        push(&mut w, 1_001, 0, 3); // the emptied open bucket itself
        push(&mut w, 1_300, 0, 4);
        assert_eq!(w.open_bits.iter().map(|b| b.count_ones()).sum::<u32>(), 1);
        assert_eq!(w.peek_time(), Some(Nanos(1_001)));
        assert_eq!(
            drain(&mut w),
            vec![(1_001, 0, 3), (1_300, 0, 4), (1_500, 0, 2), (900_000, 0, 1)]
        );
    }

    #[test]
    fn tier_boundaries_are_where_the_constants_put_them() {
        // From a clock that is on neither a fine- nor a coarse-bucket edge.
        let now = (5u64 << COARSE_SHIFT) + (9 << FINE_SHIFT) + 3;
        let fine_span = RING << FINE_SHIFT; // 2^20 ns
        let mut expect = Vec::new();
        let mut w = at_time(now);
        let mut seq = 1;
        let mut add = |w: &mut Cal, at: u64, tier: (bool, bool, bool)| {
            push(w, at, 0, seq);
            assert_eq!(tiers(w), tier, "at = now + {}", at - now);
            expect.push((at, 0, seq));
            seq += 1;
        };
        // Last instant of the fine window: the start of `now`'s bucket
        // plus 2^20 ns, less one.
        add(&mut w, now - 3 + fine_span - 1, (true, false, false));
        add(&mut w, now - 3 + fine_span, (true, true, false));
        // The coarse window ends RING coarse buckets after `now`'s.
        let coarse_end = (5 + RING) << COARSE_SHIFT;
        add(&mut w, coarse_end - 1, (true, true, false));
        add(&mut w, coarse_end, (true, true, true));
        add(&mut w, u64::MAX, (true, true, true));
        add(&mut w, u64::MAX, (true, true, true));
        assert_eq!(w.far.len(), 3);
        assert_eq!(w.peek_time(), Some(Nanos(now - 3 + fine_span - 1)));
        assert_eq!(drain(&mut w), expect);
        assert_eq!(w.peek_time(), None);
    }

    #[test]
    fn ring_slots_wrap_with_the_window() {
        // The cursor sits six buckets before the ring index wraps; buckets
        // on both sides of the wrap, and the last one of the window, pop in
        // time order.
        let base = (3 * RING + RING - 6) << FINE_SHIFT;
        let mut w = at_time(base);
        let mut expect = Vec::new();
        for (seq, bucket) in [RING - 1, 7, 5, 6, 30, 1].into_iter().enumerate() {
            let at = base + (bucket << FINE_SHIFT) + seq as u64;
            push(&mut w, at, 0, seq as u64);
            expect.push((at, 0, seq as u64));
        }
        assert_eq!(tiers(&w), (true, false, false));
        expect.sort();
        assert_eq!(drain(&mut w), expect);
    }

    #[test]
    fn interleaved_push_pop_keeps_cached_peek_exact() {
        let mut w = Cal::new();
        push(&mut w, 3_000_000, 0, 0);
        assert_eq!(w.peek_time(), Some(Nanos(3_000_000)));
        push(&mut w, 2_600, 1, 1);
        assert_eq!(w.peek_time(), Some(Nanos(2_600)));
        assert_eq!(pop(&mut w), Some((2_600, 1, 1)));
        assert_eq!(
            w.peek_time(),
            Some(Nanos(3_000_000)),
            "from the coarse ring"
        );
        push(&mut w, 3_000_000, 2, 2);
        push(&mut w, 1 << 45, 3, 3);
        assert_eq!(pop(&mut w), Some((3_000_000, 0, 0)));
        assert_eq!(
            w.peek_time(),
            Some(Nanos(3_000_000)),
            "a tie is still pending"
        );
        assert_eq!(pop(&mut w), Some((3_000_000, 2, 2)));
        assert_eq!(w.peek_time(), Some(Nanos(1 << 45)), "from the heap");
        assert_eq!(pop(&mut w), Some((1 << 45, 3, 3)));
        assert_eq!(w.peek_time(), None);
        assert_eq!(pop(&mut w), None);
    }

    #[test]
    fn slab_is_recycled_not_grown() {
        // Steady churn holds the slab at the peak pending count.
        let mut w = Cal::new();
        for seq in 0..64 {
            push(&mut w, seq * 300, 0, seq);
        }
        for seq in 64..10_000 {
            let (at, ..) = pop(&mut w).unwrap();
            push(&mut w, at + 64 * 300, 0, seq);
        }
        assert_eq!(w.slab.len(), 64);
    }

    #[test]
    fn randomized_against_reference_sort() {
        // 72 random traces over spreads that sit inside the open bucket,
        // inside the fine ring, across the fine/coarse edge (2^20), inside
        // the coarse ring, across the coarse/heap edge (2^32) and far into
        // the heap.
        let mut rng = SimRng::seed_from(0x57EE1);
        for case in 0..72u64 {
            let spread = [200u64, 70_000, 1 << 21, 1 << 27, 1 << 33, 1 << 52][(case % 6) as usize];
            let n = 1 + rng.below(400);
            let mut w = Cal::new();
            let mut reference: Vec<(u64, u64, u64)> = Vec::new();
            let mut clock = 0u64;
            for seq in 0..n {
                // Bias toward collisions so tie-breaks are exercised;
                // random keys decouple key order from insertion order.
                let at = clock + rng.below(spread) / (1 + rng.below(4));
                let key = rng.below(8);
                push(&mut w, at, key, seq);
                reference.push((at, key, seq));
                if rng.below(3) == 0 {
                    let popped = pop(&mut w).expect("just pushed");
                    let min = *reference.iter().min().unwrap();
                    assert_eq!(popped, min, "case {case}");
                    reference.retain(|&e| e != min);
                    clock = popped.0;
                }
                let min = reference.iter().min().map(|e| Nanos(e.0));
                assert_eq!(w.peek_time(), min, "case {case}");
            }
            reference.sort();
            assert_eq!(drain(&mut w), reference, "case {case}");
        }
    }
}
