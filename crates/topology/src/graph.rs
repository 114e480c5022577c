//! Network graph: nodes (hosts/switches) and directed capacitated links.

use qvisor_sim::{Nanos, NodeId};

/// What kind of device a node is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// An end host: sources and sinks traffic, never forwards.
    Host,
    /// A switch: forwards traffic, owns scheduled output ports.
    Switch,
}

/// A node in the topology.
#[derive(Clone, Debug)]
pub struct Node {
    /// Stable identifier; equals the node's index in [`Topology::nodes`].
    pub id: NodeId,
    /// Host or switch.
    pub kind: NodeKind,
    /// Human-readable name for logs and error messages.
    pub name: String,
}

/// A directed link. Physical cables are modelled as two directed links.
#[derive(Clone, Copy, Debug)]
pub struct Link {
    /// Transmitting node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Serialization rate in bits per second.
    pub rate_bps: u64,
    /// Propagation delay.
    pub delay: Nanos,
}

/// An immutable network topology.
///
/// Built once via [`TopologyBuilder`] (or the canned constructors in
/// [`crate::builders`]), then shared read-only by routing and the simulator.
#[derive(Clone, Debug, Default)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// Node `n`'s outgoing link indices are
    /// `out_links[out_start[n]..out_start[n + 1]]`, in insertion order
    /// (= port order).
    out_start: Vec<u32>,
    out_links: Vec<u32>,
}

impl Topology {
    /// Start building a topology.
    pub fn builder() -> TopologyBuilder {
        TopologyBuilder::default()
    }

    /// All nodes, indexable by `NodeId::index()`.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All directed links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Node metadata.
    ///
    /// # Panics
    /// Panics if `id` is not a node of this topology.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The directed link from `from` to `to`, if one exists.
    pub fn link_between(&self, from: NodeId, to: NodeId) -> Option<&Link> {
        self.out_links(from).find(|l| l.to == to)
    }

    /// Outgoing links of `from`, in port order.
    pub fn out_links(&self, from: NodeId) -> impl Iterator<Item = &Link> + '_ {
        let row = self.out_start[from.index()] as usize..self.out_start[from.index() + 1] as usize;
        self.out_links[row].iter().map(|&i| &self.links[i as usize])
    }

    /// Neighbors reachable in one hop from `from`, in port order.
    pub fn neighbors(&self, from: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_links(from).map(|l| l.to)
    }

    /// All host nodes.
    pub fn hosts(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Host)
            .map(|n| n.id)
    }

    /// All switch nodes.
    pub fn switches(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Switch)
            .map(|n| n.id)
    }

    /// Number of host nodes.
    pub fn host_count(&self) -> usize {
        self.hosts().count()
    }
}

/// Incremental topology construction.
#[derive(Default)]
pub struct TopologyBuilder {
    nodes: Vec<Node>,
    links: Vec<Link>,
}

impl TopologyBuilder {
    /// Add a node; returns its id.
    pub fn add_node(&mut self, kind: NodeKind, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            id,
            kind,
            name: name.into(),
        });
        id
    }

    /// Add a host node.
    pub fn add_host(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(NodeKind::Host, name)
    }

    /// Add a switch node.
    pub fn add_switch(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(NodeKind::Switch, name)
    }

    /// Add one directed link.
    ///
    /// # Panics
    /// Panics on unknown endpoints, self-loops, zero rate, or a duplicate
    /// directed link.
    pub fn add_directed_link(&mut self, from: NodeId, to: NodeId, rate_bps: u64, delay: Nanos) {
        assert!(from.index() < self.nodes.len(), "unknown node {from}");
        assert!(to.index() < self.nodes.len(), "unknown node {to}");
        assert_ne!(from, to, "self-loop on {from}");
        assert!(rate_bps > 0, "link rate must be positive");
        assert!(
            !self.links.iter().any(|l| l.from == from && l.to == to),
            "duplicate link {from}->{to}"
        );
        self.links.push(Link {
            from,
            to,
            rate_bps,
            delay,
        });
    }

    /// Add a bidirectional link (two directed links with equal properties).
    pub fn add_link(&mut self, a: NodeId, b: NodeId, rate_bps: u64, delay: Nanos) {
        self.add_directed_link(a, b, rate_bps, delay);
        self.add_directed_link(b, a, rate_bps, delay);
    }

    /// Finish construction.
    pub fn build(self) -> Topology {
        let links = self.links.iter().enumerate();
        let (out_start, out_links) = group_by_node(
            self.nodes.len(),
            links.map(|(i, l)| (l.from.index(), i as u32)),
        );
        Topology {
            nodes: self.nodes,
            links: self.links,
            out_start,
            out_links,
        }
    }
}

/// Group `items`, `(node, value)` pairs, by node into one flat table: node
/// `n`'s values are `values[start[n]..start[n + 1]]`, in `items` order. A
/// counting sort, two allocations whatever the node count.
pub(crate) fn group_by_node(
    nodes: usize,
    items: impl DoubleEndedIterator<Item = (usize, u32)> + Clone,
) -> (Vec<u32>, Vec<u32>) {
    // Count, then sum inclusively: `start[n]` ends node `n`'s run (the
    // extra entry, counting nothing, ends them all).
    let mut start = vec![0u32; nodes + 1];
    for (node, _) in items.clone() {
        start[node] += 1;
    }
    let mut end = 0;
    for s in &mut start {
        end += *s;
        *s = end;
    }
    // Fill each run back to front, walking the items backwards: `start[n]`
    // comes down to where node `n`'s run begins.
    let mut values = vec![0; end as usize];
    for (node, value) in items.rev() {
        start[node] -= 1;
        values[start[node] as usize] = value;
    }
    (start, values)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Topology {
        let mut b = Topology::builder();
        let h0 = b.add_host("h0");
        let s0 = b.add_switch("s0");
        let h1 = b.add_host("h1");
        b.add_link(h0, s0, 1_000, Nanos(10));
        b.add_link(s0, h1, 2_000, Nanos(20));
        b.build()
    }

    #[test]
    fn builder_assigns_sequential_ids() {
        let t = triangle();
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.node(NodeId(0)).name, "h0");
        assert_eq!(t.node(NodeId(1)).kind, NodeKind::Switch);
    }

    #[test]
    fn links_are_bidirectional() {
        let t = triangle();
        assert_eq!(t.links().len(), 4);
        let l = t.link_between(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(l.rate_bps, 1_000);
        let back = t.link_between(NodeId(1), NodeId(0)).unwrap();
        assert_eq!(back.delay, Nanos(10));
        assert!(t.link_between(NodeId(0), NodeId(2)).is_none());
    }

    #[test]
    fn host_and_switch_iterators() {
        let t = triangle();
        assert_eq!(t.hosts().collect::<Vec<_>>(), vec![NodeId(0), NodeId(2)]);
        assert_eq!(t.switches().collect::<Vec<_>>(), vec![NodeId(1)]);
        assert_eq!(t.host_count(), 2);
    }

    #[test]
    fn neighbors_in_port_order() {
        let t = triangle();
        assert_eq!(
            t.neighbors(NodeId(1)).collect::<Vec<_>>(),
            vec![NodeId(0), NodeId(2)]
        );
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loop() {
        let mut b = Topology::builder();
        let h = b.add_host("h");
        b.add_link(h, h, 1, Nanos(1));
    }

    #[test]
    #[should_panic(expected = "duplicate link")]
    fn rejects_duplicate_link() {
        let mut b = Topology::builder();
        let a = b.add_host("a");
        let c = b.add_host("c");
        b.add_directed_link(a, c, 1, Nanos(1));
        b.add_directed_link(a, c, 1, Nanos(1));
    }

    #[test]
    #[should_panic(expected = "link rate must be positive")]
    fn rejects_zero_rate() {
        let mut b = Topology::builder();
        let a = b.add_host("a");
        let c = b.add_host("c");
        b.add_directed_link(a, c, 0, Nanos(1));
    }
}
