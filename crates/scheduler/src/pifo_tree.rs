//! Hierarchical PIFO trees (Sivaraman et al., SIGCOMM '16; the §5
//! "increasing specification expressivity" direction of the QVISOR paper).
//!
//! A PIFO tree schedules hierarchically: each internal node is a PIFO over
//! its *children*, each leaf a PIFO over packets. A packet enqueues with a
//! rank for every node on its root-to-leaf path; dequeue pops the root's
//! best child, recursing until a packet emerges. This expresses policies
//! flat PIFOs cannot, e.g. "fair-share between tenant groups, SRPT within
//! each" with per-group isolation of the fair shares.

use crate::queue::{Capacity, Enqueue, PacketQueue};
use crate::rank_index::RankIndex;
use qvisor_sim::{Nanos, Packet, Rank};

/// One step of a packet's path: the rank to use at that tree level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathStep {
    /// Child index to descend into (at the root: index into the root's
    /// children; and so on).
    pub child: usize,
    /// Rank for the PIFO at the *parent* of that child.
    pub rank: Rank,
}

/// A packet's full scheduling path: one step per tree level, ending at a
/// leaf, plus the rank within the leaf PIFO.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TreePath {
    /// Steps from the root downwards.
    pub steps: Vec<PathStep>,
    /// Rank inside the leaf PIFO.
    pub leaf_rank: Rank,
}

/// Assigns a [`TreePath`] to each packet (the "scheduling transaction" of
/// the PIFO-tree model).
pub trait TreeClassifier {
    /// Path for `p`. Must match the tree's shape.
    fn classify(&mut self, p: &Packet) -> TreePath;
}

impl<F: FnMut(&Packet) -> TreePath> TreeClassifier for F {
    fn classify(&mut self, p: &Packet) -> TreePath {
        self(p)
    }
}

/// Tree shape: an internal node lists its children; a leaf holds packets.
#[derive(Clone, Debug)]
pub enum TreeShape {
    /// An internal scheduling node.
    Internal(Vec<TreeShape>),
    /// A leaf queue.
    Leaf,
}

#[derive(Debug)]
enum Node {
    Internal {
        children: Vec<usize>,
        /// PIFO over child *occurrences*: each entry is a child slot index.
        pifo: RankIndex<usize>,
    },
    Leaf {
        pifo: RankIndex<Packet>,
    },
}

/// A hierarchical PIFO scheduler.
///
/// The whole tree shares one byte budget with the same *priority-drop*
/// admission as the flat [`crate::PifoQueue`]: a full buffer evicts the
/// packets that would have dequeued *last*, never the arrival, unless the
/// arrival itself is last. "Last" is well defined despite the hierarchy
/// because the tree's total dequeue order is the root PIFO's entry order —
/// each root pop emits exactly one packet — so the back of the root PIFO,
/// followed down through the back of each level, is the back of the whole
/// tree. Rank ties at the root keep residents (they were enqueued first).
///
/// The classifier runs for every offered packet — the scheduling
/// transaction computes ranks *before* admission — so stateful classifiers
/// (virtual-time counters) advance even for arrivals that end up rejected.
pub struct PifoTree<C: TreeClassifier> {
    nodes: Vec<Node>,
    root: usize,
    classifier: C,
    capacity: Capacity,
    bytes: u64,
    len: usize,
}

impl<C: TreeClassifier> PifoTree<C> {
    /// Build a tree of `shape` with `classifier` assigning paths.
    pub fn new(shape: &TreeShape, classifier: C, capacity: Capacity) -> PifoTree<C> {
        let mut nodes = Vec::new();
        let root = Self::build(shape, &mut nodes);
        PifoTree {
            nodes,
            root,
            classifier,
            capacity,
            bytes: 0,
            len: 0,
        }
    }

    fn build(shape: &TreeShape, nodes: &mut Vec<Node>) -> usize {
        match shape {
            TreeShape::Leaf => {
                nodes.push(Node::Leaf {
                    pifo: RankIndex::new(),
                });
                nodes.len() - 1
            }
            TreeShape::Internal(children) => {
                let child_ids: Vec<usize> =
                    children.iter().map(|c| Self::build(c, nodes)).collect();
                nodes.push(Node::Internal {
                    children: child_ids,
                    pifo: RankIndex::new(),
                });
                nodes.len() - 1
            }
        }
    }

    /// Number of tree nodes (for tests).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Walk down, inserting a reference at each internal node and the
    /// packet at the leaf.
    fn insert(&mut self, path: &TreePath, p: Packet) {
        let mut at = self.root;
        for step in &path.steps {
            match &mut self.nodes[at] {
                Node::Internal { children, pifo } => {
                    assert!(
                        step.child < children.len(),
                        "classifier path step out of range"
                    );
                    pifo.push(step.rank, step.child);
                    at = children[step.child];
                }
                Node::Leaf { .. } => panic!("classifier path longer than tree depth"),
            }
        }
        match &mut self.nodes[at] {
            Node::Leaf { pifo } => {
                self.bytes += p.size as u64;
                self.len += 1;
                pifo.push(path.leaf_rank, p);
            }
            Node::Internal { .. } => panic!("classifier path shorter than tree depth"),
        }
    }

    /// Root-level rank of the `k`-th entry from the back of the dequeue
    /// order (`k = 0` is the very last scheduling decision).
    fn rank_from_back(&self, k: usize) -> Option<Rank> {
        match &self.nodes[self.root] {
            Node::Internal { pifo, .. } => pifo.iter_rev().nth(k).map(|(r, _)| r),
            Node::Leaf { pifo } => pifo.iter_rev().nth(k).map(|(r, _)| r),
        }
    }

    /// Size of the next victim from the back of `node`'s dequeue order,
    /// advancing the per-node cursors in `taken`. The `j`-th-from-back
    /// entry for a child corresponds to that child's `j`-th-from-back
    /// packet, so consuming entries strictly back-to-front keeps the
    /// cursors aligned with [`PifoTree::pop_back`]'s removal order.
    fn size_from_back(&self, node: usize, taken: &mut [usize]) -> Option<u64> {
        match &self.nodes[node] {
            Node::Internal { children, pifo } => {
                let (_, &slot) = pifo.iter_rev().nth(taken[node])?;
                taken[node] += 1;
                self.size_from_back(children[slot], taken)
            }
            Node::Leaf { pifo } => {
                let size = pifo
                    .iter_rev()
                    .nth(taken[node])
                    .map(|(_, p)| p.size as u64)?;
                taken[node] += 1;
                Some(size)
            }
        }
    }

    /// Remove and return the packet that would have dequeued last.
    fn pop_back(&mut self) -> Option<Packet> {
        if self.len == 0 {
            return None;
        }
        let mut at = self.root;
        loop {
            match &mut self.nodes[at] {
                Node::Internal { children, pifo } => {
                    let (_, child) = pifo.pop_last()?;
                    at = children[child];
                }
                Node::Leaf { pifo } => {
                    let (_, p) = pifo.pop_last()?;
                    self.bytes -= p.size as u64;
                    self.len -= 1;
                    return Some(p);
                }
            }
        }
    }
}

impl<C: TreeClassifier> PacketQueue for PifoTree<C> {
    fn enqueue(&mut self, p: Packet, _now: Nanos) -> Enqueue {
        let size = p.size as u64;
        let path = self.classifier.classify(&p);
        if self.capacity.fits(self.bytes, size) {
            self.insert(&path, p);
            return Enqueue::Accepted;
        }
        // Priority drop (mirroring `PifoQueue`): plan first, commit after.
        // Victims are taken from the back of the tree's dequeue order and
        // must be *strictly* after the arrival at the root level — rank
        // ties keep residents, which enqueued (hence dequeue) first. Only
        // if strictly-later residents free enough bytes is the arrival
        // admitted; otherwise it is the victim and the tree is untouched.
        let arrival_rank = match path.steps.first() {
            Some(step) => step.rank,
            None => path.leaf_rank,
        };
        let mut taken = vec![0usize; self.nodes.len()];
        let mut freed = 0u64;
        let mut victims = 0usize;
        while !self.capacity.fits(self.bytes - freed, size) {
            match self.rank_from_back(victims) {
                Some(rank) if rank > arrival_rank => {}
                _ => return Enqueue::Rejected(Box::new(p)),
            }
            freed += self
                .size_from_back(self.root, &mut taken)
                .expect("root entry just observed implies a packet");
            victims += 1;
        }
        let dropped: Vec<Packet> = (0..victims)
            .map(|_| self.pop_back().expect("planned victim exists"))
            .collect();
        self.insert(&path, p);
        Enqueue::AcceptedDropped(dropped)
    }

    fn dequeue(&mut self, _now: Nanos) -> Option<Packet> {
        if self.len == 0 {
            return None;
        }
        let mut at = self.root;
        loop {
            match &mut self.nodes[at] {
                Node::Internal { children, pifo } => {
                    let (_, child) = pifo.pop_first()?;
                    at = children[child];
                }
                Node::Leaf { pifo } => {
                    let (_, p) = pifo.pop_first()?;
                    self.bytes -= p.size as u64;
                    self.len -= 1;
                    return Some(p);
                }
            }
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn bytes(&self) -> u64 {
        self.bytes
    }

    fn head_rank(&self) -> Option<Rank> {
        // The root's best entry rank (the tree's next scheduling decision).
        match &self.nodes[self.root] {
            Node::Internal { pifo, .. } => pifo.first_rank(),
            Node::Leaf { pifo } => pifo.first_rank(),
        }
    }

    fn kind(&self) -> &'static str {
        "pifo_tree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qvisor_sim::{FlowId, NodeId, TenantId};

    fn pkt(tenant: u16, seq: u64, rank: Rank) -> Packet {
        let mut p = Packet::data(
            FlowId(tenant as u64),
            TenantId(tenant),
            seq,
            100,
            NodeId(0),
            NodeId(1),
            rank,
            Nanos::ZERO,
        );
        p.txf_rank = rank;
        p
    }

    /// Two-tenant tree: root PIFO round-robins by a per-tenant virtual
    /// counter, leaves run SRPT within the tenant.
    fn two_tenant_tree() -> PifoTree<impl FnMut(&Packet) -> TreePath> {
        let shape = TreeShape::Internal(vec![TreeShape::Leaf, TreeShape::Leaf]);
        let mut counters = [0u64; 2];
        let classifier = move |p: &Packet| {
            let t = (p.tenant.0 - 1) as usize;
            counters[t] += 1;
            TreePath {
                steps: vec![PathStep {
                    child: t,
                    rank: counters[t], // per-tenant virtual time = fairness
                }],
                leaf_rank: p.txf_rank, // SRPT within the tenant
            }
        };
        PifoTree::new(&shape, classifier, Capacity::UNBOUNDED)
    }

    #[test]
    fn tree_shape_builds() {
        let t = two_tenant_tree();
        assert_eq!(t.node_count(), 3);
    }

    #[test]
    fn fair_across_tenants_srpt_within() {
        let mut t = two_tenant_tree();
        // Tenant 1 floods first with big ranks; tenant 2 arrives later.
        for i in 0..4 {
            t.enqueue(pkt(1, i, 100 - i), Nanos::ZERO);
        }
        for i in 0..4 {
            t.enqueue(pkt(2, 10 + i, 50 - i), Nanos::ZERO);
        }
        let order: Vec<u16> = std::iter::from_fn(|| t.dequeue(Nanos::ZERO))
            .map(|p| p.tenant.0)
            .collect();
        // Root fairness interleaves tenants 1:1 despite tenant 1's head
        // start in arrival order.
        assert_eq!(order, vec![1, 2, 1, 2, 1, 2, 1, 2]);
    }

    #[test]
    fn leaf_order_is_rank_order() {
        let mut t = two_tenant_tree();
        for (i, r) in [9u64, 1, 5].into_iter().enumerate() {
            t.enqueue(pkt(1, i as u64, r), Nanos::ZERO);
        }
        let ranks: Vec<Rank> = std::iter::from_fn(|| t.dequeue(Nanos::ZERO))
            .map(|p| p.txf_rank)
            .collect();
        assert_eq!(ranks, vec![1, 5, 9], "SRPT within the tenant leaf");
    }

    #[test]
    fn root_rank_ties_keep_residents() {
        // Constant root rank: the arrival always ties the residents at the
        // root, so a full buffer rejects it (FIFO-fair, like the flat
        // PIFO's tie rule) and leaves the tree untouched.
        let shape = TreeShape::Internal(vec![TreeShape::Leaf]);
        let classifier = |p: &Packet| TreePath {
            steps: vec![PathStep { child: 0, rank: 0 }],
            leaf_rank: p.txf_rank,
        };
        let mut t = PifoTree::new(&shape, classifier, Capacity::bytes(200));
        assert!(t.enqueue(pkt(1, 0, 1), Nanos::ZERO).accepted());
        assert!(t.enqueue(pkt(1, 1, 2), Nanos::ZERO).accepted());
        assert!(!t.enqueue(pkt(1, 2, 0), Nanos::ZERO).accepted());
        assert_eq!(t.len(), 2);
        assert_eq!(t.bytes(), 200);
    }

    #[test]
    fn full_tree_evicts_last_to_dequeue() {
        // Two-tenant fair tree, buffer of 4 packets. Tenant 1 fills the
        // whole buffer; a tenant-2 arrival (virtual time far behind) must
        // evict tenant 1's *last-to-dequeue* packet — the one with the
        // worst leaf rank — rather than being tail-dropped.
        let mut t = {
            let shape = TreeShape::Internal(vec![TreeShape::Leaf, TreeShape::Leaf]);
            let mut counters = [0u64; 2];
            let classifier = move |p: &Packet| {
                let c = (p.tenant.0 - 1) as usize;
                counters[c] += 1;
                TreePath {
                    steps: vec![PathStep {
                        child: c,
                        rank: counters[c],
                    }],
                    leaf_rank: p.txf_rank,
                }
            };
            PifoTree::new(&shape, classifier, Capacity::bytes(400))
        };
        for (seq, rank) in [(0u64, 5u64), (1, 9), (2, 3), (3, 7)] {
            assert!(t.enqueue(pkt(1, seq, rank), Nanos::ZERO).accepted());
        }
        let outcome = t.enqueue(pkt(2, 10, 1), Nanos::ZERO);
        assert!(outcome.accepted());
        let dropped: Vec<Packet> = outcome.dropped().collect();
        assert_eq!(dropped.len(), 1);
        assert_eq!(dropped[0].seq, 1, "worst-ranked tenant-1 packet evicted");
        assert_eq!(t.len(), 4);
        // Tenant 1 cannot evict its own older packets: its next arrival has
        // the highest virtual time of its class, i.e. it *is* the back.
        assert!(!t.enqueue(pkt(1, 4, 1), Nanos::ZERO).accepted());
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn eviction_plan_rejects_without_partial_eviction() {
        // The first victim from the back is strictly later than the
        // arrival, but freeing it is not enough and the next candidate
        // ties — the arrival must be rejected with NO evictions.
        let shape = TreeShape::Internal(vec![TreeShape::Leaf, TreeShape::Leaf]);
        let classifier = |p: &Packet| TreePath {
            steps: vec![PathStep {
                child: (p.tenant.0 - 1) as usize,
                rank: p.txf_rank,
            }],
            leaf_rank: p.txf_rank,
        };
        let mut t = PifoTree::new(&shape, classifier, Capacity::bytes(200));
        assert!(t.enqueue(pkt(1, 0, 4), Nanos::ZERO).accepted());
        assert!(t.enqueue(pkt(2, 1, 9), Nanos::ZERO).accepted());
        // 200-byte arrival at rank 4: victim rank 9 frees 100 bytes, the
        // next candidate (rank 4) ties the arrival.
        let mut big = pkt(1, 2, 4);
        big.size = 200;
        assert!(!t.enqueue(big, Nanos::ZERO).accepted());
        assert_eq!(t.len(), 2);
        assert_eq!(t.bytes(), 200);
    }

    #[test]
    fn three_level_hierarchy() {
        // Root: strict by group rank; groups: two leaves each.
        let shape = TreeShape::Internal(vec![
            TreeShape::Internal(vec![TreeShape::Leaf, TreeShape::Leaf]),
            TreeShape::Internal(vec![TreeShape::Leaf, TreeShape::Leaf]),
        ]);
        // Tenants 1,2 -> group 0; tenants 3,4 -> group 1 (lower priority).
        let classifier = |p: &Packet| {
            let t = p.tenant.0 as usize - 1;
            TreePath {
                steps: vec![
                    PathStep {
                        child: t / 2,
                        rank: (t / 2) as u64, // strict: group 0 first
                    },
                    PathStep {
                        child: t % 2,
                        rank: p.txf_rank,
                    },
                ],
                leaf_rank: p.txf_rank,
            }
        };
        let mut tree = PifoTree::new(&shape, classifier, Capacity::UNBOUNDED);
        assert_eq!(tree.node_count(), 7);
        tree.enqueue(pkt(3, 0, 1), Nanos::ZERO);
        tree.enqueue(pkt(1, 1, 9), Nanos::ZERO);
        tree.enqueue(pkt(4, 2, 2), Nanos::ZERO);
        tree.enqueue(pkt(2, 3, 5), Nanos::ZERO);
        let order: Vec<u16> = std::iter::from_fn(|| tree.dequeue(Nanos::ZERO))
            .map(|p| p.tenant.0)
            .collect();
        // Group 0 (tenants 1,2) strictly first — by rank within (2's 5
        // beats 1's 9) — then group 1 by rank (3's 1 beats 4's 2).
        assert_eq!(order, vec![2, 1, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "path step out of range")]
    fn bad_classifier_is_caught() {
        let shape = TreeShape::Internal(vec![TreeShape::Leaf]);
        let classifier = |_: &Packet| TreePath {
            steps: vec![PathStep { child: 7, rank: 0 }],
            leaf_rank: 0,
        };
        let mut t = PifoTree::new(&shape, classifier, Capacity::UNBOUNDED);
        t.enqueue(pkt(1, 0, 0), Nanos::ZERO);
    }
}
