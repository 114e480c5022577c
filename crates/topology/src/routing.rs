//! Shortest-path routing with ECMP.
//!
//! Routes are precomputed: for every (current node, destination host) pair
//! we store *all* shortest-path next hops; at forwarding time one of them is
//! picked by a stable hash of the flow id, so a flow always follows a single
//! path (no reordering) while flows spread across the fabric.

use crate::graph::{group_by_node, NodeKind, Topology};
use qvisor_sim::{stable_hash, FlowId, NodeId};

/// Precomputed ECMP routes: one flat (CSR) table.
///
/// Row `dst * n + at` of `starts` delimits, inside `ports`, the
/// shortest-path next hops from `at` towards `dst`, each as its position
/// among `Topology::out_links(at)`, in port order. Destination-major, the
/// order the per-destination BFS writes it in. A row is empty when `dst`
/// is unreachable, is not a host, or `at == dst`.
///
/// `single` answers the rows with one next hop — every hop of a host's
/// uplink and of a leaf–spine's down path — in one load: the row's port,
/// or `NOT_SINGLE` where the flow's hash has to choose, there is no route,
/// or the port does not fit a byte (a node with more than 254 links).
#[derive(Clone, Debug)]
pub struct Routes {
    nodes: usize,
    starts: Vec<u32>,
    ports: Vec<u16>,
    single: Vec<u8>,
}

/// A `Routes::single` entry that is not a port: ask the CSR rows.
const NOT_SINGLE: u8 = u8::MAX;

impl Routes {
    /// Compute all-pairs (node → host) shortest-path next hops by BFS from
    /// every destination over the reversed graph.
    ///
    /// Hop count is the metric (uniform per-hop cost), which matches
    /// leaf–spine/fat-tree ECMP practice.
    pub fn compute(topo: &Topology) -> Routes {
        let n = topo.node_count();
        // Reverse adjacency, flat: rev[rev_start[v]..rev_start[v + 1]] are
        // the nodes u with a link u->v.
        let (rev_start, rev) =
            group_by_node(n, topo.links().iter().map(|l| (l.to.index(), l.from.0)));
        // Forward adjacency in port order, flat: every destination's pass
        // reads all of it.
        let mut out_start = Vec::with_capacity(n + 1);
        let mut out = Vec::with_capacity(topo.links().len());
        for node in topo.nodes() {
            out_start.push(out.len());
            out.extend(topo.neighbors(node.id));
        }
        out_start.push(out.len());

        let mut starts = Vec::with_capacity(n * n + 1);
        let mut single = Vec::with_capacity(n * n);
        let mut ports = Vec::new();
        let mut dist = vec![u32::MAX; n];
        // The BFS queue: every node enters it at most once a pass.
        let mut q = Vec::with_capacity(n);
        for dst in topo.nodes() {
            if dst.kind != NodeKind::Host {
                // Only hosts terminate traffic: n empty rows.
                starts.resize(starts.len() + n, ports.len() as u32);
                single.resize(single.len() + n, NOT_SINGLE);
                continue;
            }
            let dst = dst.id;
            // BFS distances to dst over reversed edges.
            dist.fill(u32::MAX);
            dist[dst.index()] = 0;
            q.clear();
            q.push(dst);
            let mut head = 0;
            while let Some(&v) = q.get(head) {
                head += 1;
                let row = rev_start[v.index()] as usize..rev_start[v.index() + 1] as usize;
                for &u in &rev[row] {
                    if dist[u as usize] == u32::MAX {
                        dist[u as usize] = dist[v.index()] + 1;
                        q.push(NodeId(u));
                    }
                }
            }
            // next hop of u: any neighbor v with dist[v] == dist[u] - 1.
            for u in 0..n {
                let first = ports.len();
                starts.push(first as u32);
                let du = dist[u];
                if u != dst.index() && du != u32::MAX {
                    for (port, &v) in out[out_start[u]..out_start[u + 1]].iter().enumerate() {
                        if dist[v.index()] != u32::MAX && dist[v.index()] + 1 == du {
                            ports
                                .push(u16::try_from(port).expect("a node has at most 65536 ports"));
                        }
                    }
                }
                single.push(match ports[first..] {
                    [port] if port < NOT_SINGLE as u16 => port as u8,
                    _ => NOT_SINGLE,
                });
            }
        }
        starts.push(u32::try_from(ports.len()).expect("route table exceeds u32 entries"));
        Routes {
            nodes: n,
            starts,
            ports,
            single,
        }
    }

    /// The table row of `(at, dst)`.
    #[inline]
    fn row_index(&self, at: NodeId, dst: NodeId) -> usize {
        assert!(at.index() < self.nodes, "unknown node {at}");
        dst.index() * self.nodes + at.index()
    }

    /// The `ports` range holding the next hops from `at` to `dst`.
    fn row(&self, at: NodeId, dst: NodeId) -> std::ops::Range<usize> {
        let row = self.row_index(at, dst);
        self.starts[row] as usize..self.starts[row + 1] as usize
    }

    /// Index into `ports` of the ECMP choice for `flow`.
    fn ecmp_slot(&self, at: NodeId, dst: NodeId, flow: FlowId) -> usize {
        let row = self.row(at, dst);
        assert!(
            !row.is_empty(),
            "no route from {at} to {dst} (unreachable or at == dst)"
        );
        if row.len() == 1 {
            return row.start;
        }
        let h = stable_hash(&[flow.0, at.0 as u64, dst.0 as u64]);
        row.start + (h % row.len() as u64) as usize
    }

    /// The position among `Topology::out_links(at)` of the ECMP next hop's
    /// link for `flow` from `at` towards `dst`.
    ///
    /// Deterministic in `(flow, at, dst)`; per-flow so a flow's packets never
    /// reorder across paths.
    ///
    /// # Panics
    /// Panics if `dst` is unreachable from `at`.
    #[inline]
    pub fn ecmp_port(&self, at: NodeId, dst: NodeId, flow: FlowId) -> usize {
        match self.single[self.row_index(at, dst)] {
            NOT_SINGLE => self.ports[self.ecmp_slot(at, dst, flow)] as usize,
            port => port as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{Dumbbell, FatTree, LeafSpine, LeafSpineConfig};
    use crate::graph::Topology;
    use qvisor_sim::{gbps, Nanos, SimRng};
    use std::collections::{HashSet, VecDeque};

    /// All equal-cost next hops from `at` towards `dst`.
    fn next_hops(r: &Routes, t: &Topology, at: NodeId, dst: NodeId) -> Vec<NodeId> {
        let neighbors: Vec<NodeId> = t.neighbors(at).collect();
        r.ports[r.row(at, dst)]
            .iter()
            .map(|&port| neighbors[port as usize])
            .collect()
    }

    /// The ECMP next hop for `flow` from `at` towards `dst`: the node at
    /// the far end of [`Routes::ecmp_port`].
    fn ecmp_next_hop(r: &Routes, t: &Topology, at: NodeId, dst: NodeId, flow: FlowId) -> NodeId {
        t.neighbors(at).nth(r.ecmp_port(at, dst, flow)).unwrap()
    }

    /// The full ECMP path of `flow` from `src` to `dst`, inclusive of both
    /// endpoints: [`ecmp_next_hop`] followed hop by hop.
    fn ecmp_path(r: &Routes, t: &Topology, src: NodeId, dst: NodeId, flow: FlowId) -> Vec<NodeId> {
        let mut path = vec![src];
        let mut at = src;
        while at != dst {
            at = ecmp_next_hop(r, t, at, dst, flow);
            path.push(at);
            assert!(path.len() <= r.nodes, "routing loop from {src} to {dst}");
        }
        path
    }

    fn line() -> Topology {
        // h0 - s0 - s1 - h1
        let mut b = Topology::builder();
        let h0 = b.add_host("h0");
        let s0 = b.add_switch("s0");
        let s1 = b.add_switch("s1");
        let h1 = b.add_host("h1");
        b.add_link(h0, s0, 1_000, Nanos(1));
        b.add_link(s0, s1, 1_000, Nanos(1));
        b.add_link(s1, h1, 1_000, Nanos(1));
        b.build()
    }

    #[test]
    fn line_path() {
        let t = line();
        let r = Routes::compute(&t);
        let path = ecmp_path(&r, &t, NodeId(0), NodeId(3), FlowId(9));
        assert_eq!(path, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn no_route_to_non_host() {
        let t = line();
        let r = Routes::compute(&t);
        // s1 (NodeId 2) is a switch: no routes terminate there.
        assert!(next_hops(&r, &t, NodeId(0), NodeId(2)).is_empty());
    }

    #[test]
    fn leaf_spine_uses_all_spines() {
        let ls = LeafSpine::build(&LeafSpineConfig::paper());
        let r = Routes::compute(&ls.topology);
        let src = ls.hosts[0][0];
        let dst = ls.hosts[5][3];
        // Cross-rack: leaf should offer all 4 spines as next hops.
        let leaf = ls.leaf_switches[0];
        assert_eq!(next_hops(&r, &ls.topology, leaf, dst).len(), 4);
        // Different flows spread over spines.
        let spines: HashSet<NodeId> = (0..64)
            .map(|f| ecmp_path(&r, &ls.topology, src, dst, FlowId(f))[2])
            .collect();
        assert!(spines.len() > 1, "ECMP should use multiple spines");
        for s in &spines {
            assert!(ls.spine_switches.contains(s));
        }
    }

    #[test]
    fn same_rack_path_stays_in_rack() {
        let ls = LeafSpine::build(&LeafSpineConfig::small());
        let r = Routes::compute(&ls.topology);
        let a = ls.hosts[1][0];
        let b = ls.hosts[1][2];
        let path = ecmp_path(&r, &ls.topology, a, b, FlowId(1));
        assert_eq!(path, vec![a, ls.leaf_switches[1], b]);
    }

    #[test]
    fn per_flow_path_is_stable() {
        let ls = LeafSpine::build(&LeafSpineConfig::paper());
        let r = Routes::compute(&ls.topology);
        let src = ls.hosts[0][0];
        let dst = ls.hosts[8][15];
        let p1 = ecmp_path(&r, &ls.topology, src, dst, FlowId(77));
        let p2 = ecmp_path(&r, &ls.topology, src, dst, FlowId(77));
        assert_eq!(p1, p2);
        assert_eq!(p1.len(), 5); // host-leaf-spine-leaf-host
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn unreachable_panics() {
        let mut b = Topology::builder();
        let h0 = b.add_host("h0");
        let _h1 = b.add_host("h1");
        let t = b.build();
        let r = Routes::compute(&t);
        let _ = r.ecmp_port(h0, NodeId(1), FlowId(0));
    }

    #[test]
    #[should_panic(expected = "(unreachable or at == dst)")]
    fn next_hop_at_the_destination_panics() {
        let r = Routes::compute(&line());
        let _ = r.ecmp_port(NodeId(3), NodeId(3), FlowId(0));
    }

    /// Shortest-path next hops by the textbook definition, one forward BFS
    /// per source: nothing shared with `Routes::compute` but the topology.
    fn reference_hops(t: &Topology, at: NodeId, dst: NodeId) -> Vec<NodeId> {
        let dist_to_dst = |from: NodeId| -> Option<u32> {
            let mut dist = vec![None; t.node_count()];
            dist[from.index()] = Some(0u32);
            let mut q = VecDeque::from([from]);
            while let Some(u) = q.pop_front() {
                for v in t.neighbors(u) {
                    if dist[v.index()].is_none() {
                        dist[v.index()] = dist[u.index()].map(|d| d + 1);
                        q.push_back(v);
                    }
                }
            }
            dist[dst.index()]
        };
        if at == dst || t.node(dst).kind != NodeKind::Host {
            return Vec::new();
        }
        let Some(d) = dist_to_dst(at) else {
            return Vec::new();
        };
        t.neighbors(at)
            .filter(|&v| dist_to_dst(v) == Some(d - 1))
            .collect()
    }

    #[test]
    fn table_matches_a_reference_bfs() {
        let topologies = [
            line(),
            Dumbbell::build(3, gbps(1), gbps(1), Nanos(1_000)).topology,
            LeafSpine::build(&LeafSpineConfig::paper()).topology,
            FatTree::build(4, gbps(1), Nanos(1_000)).topology,
        ];
        for t in &topologies {
            let r = Routes::compute(t);
            for at in t.nodes().iter().map(|n| n.id) {
                let neighbors: Vec<NodeId> = t.neighbors(at).collect();
                // The reference BFS is per (at, dst): sample destinations
                // on the 157-node fabric, take every one elsewhere.
                let stride = if t.node_count() > 100 { 7 } else { 1 };
                for dst in t.nodes().iter().map(|n| n.id).step_by(stride) {
                    let hops = next_hops(&r, t, at, dst);
                    assert_eq!(hops, reference_hops(t, at, dst), "{at} -> {dst}");
                    // The port column names the same links, in port order.
                    for (i, &hop) in hops.iter().enumerate() {
                        let flow = (0..)
                            .map(FlowId)
                            .find(|&f| ecmp_next_hop(&r, t, at, dst, f) == hop);
                        let port = r.ecmp_port(at, dst, flow.unwrap());
                        assert_eq!(neighbors[port], hop, "{at} -> {dst} hop {i}");
                    }
                }
            }
        }
    }

    /// One switch and `hosts` hosts on it: the switch's ports run past
    /// what `Routes::single` holds in a byte.
    fn star(hosts: usize) -> Topology {
        let mut b = Topology::builder();
        let hub = b.add_switch("hub");
        for i in 0..hosts {
            let h = b.add_host(format!("h{i}"));
            b.add_link(hub, h, 1_000, Nanos(1));
        }
        b.build()
    }

    #[test]
    fn one_load_answer_equals_the_hashed_choice() {
        // (fabric, has multi-path rows): a dumbbell or a star has one path.
        let topologies = [
            (LeafSpine::build(&LeafSpineConfig::paper()).topology, true),
            (FatTree::build(4, gbps(1), Nanos(1_000)).topology, true),
            (
                Dumbbell::build(3, gbps(1), gbps(1), Nanos(1_000)).topology,
                false,
            ),
            (star(300), false),
        ];
        let mut rng = SimRng::seed_from(0x51_9E);
        for (t, multipath) in &topologies {
            let r = Routes::compute(t);
            assert_eq!(r.single.len(), t.node_count() * t.node_count());
            let (mut single, mut multi, mut wide) = (0, 0, 0);
            for dst in t.nodes().iter().map(|n| n.id) {
                for at in t.nodes().iter().map(|n| n.id) {
                    let row = r.row(at, dst);
                    // Set exactly on the one-hop rows whose port fits.
                    let fits = row.len() == 1 && r.ports[row.start] < NOT_SINGLE as u16;
                    assert_eq!(
                        r.single[r.row_index(at, dst)] != NOT_SINGLE,
                        fits,
                        "{at} -> {dst}"
                    );
                    match row.len() {
                        0 => continue,
                        1 if fits => single += 1,
                        1 => wide += 1,
                        _ => multi += 1,
                    }
                    for flow in (0..4).map(|_| FlowId(rng.next())) {
                        assert_eq!(
                            r.ecmp_port(at, dst, flow),
                            r.ports[r.ecmp_slot(at, dst, flow)] as usize,
                            "{at} -> {dst}, flow {}",
                            flow.0
                        );
                    }
                }
            }
            assert!(single > 0, "{single} one-hop rows");
            assert_eq!(multi > 0, *multipath, "{multi} multi-path rows");
            assert_eq!(wide > 0, t.node_count() > 256, "{wide} wide one-hop rows");
        }
    }

    #[test]
    #[should_panic(expected = "(unreachable or at == dst)")]
    fn port_at_the_destination_panics() {
        let r = Routes::compute(&line());
        let _ = r.ecmp_port(NodeId(3), NodeId(3), FlowId(0));
    }

    #[test]
    fn ecmp_paths_match_the_nested_table_they_replaced() {
        // FNV-1a over 10^4 random (src, dst, flow) paths on the paper's
        // fabric, recorded from the commit before the table went flat.
        let ls = LeafSpine::build(&LeafSpineConfig::paper());
        let r = Routes::compute(&ls.topology);
        let hosts = ls.all_hosts();
        let mut rng = SimRng::seed_from(0x0EC3);
        let mut words = Vec::new();
        for _ in 0..10_000 {
            let src = hosts[rng.below(hosts.len() as u64) as usize];
            let dst = hosts[rng.below(hosts.len() as u64) as usize];
            let flow = FlowId(rng.next());
            words.extend(
                ecmp_path(&r, &ls.topology, src, dst, flow)
                    .iter()
                    .map(|n| n.0 as u64),
            );
            words.push(u64::MAX);
        }
        assert_eq!(stable_hash(&words), PINNED_PATHS_HASH);
    }

    const PINNED_PATHS_HASH: u64 = 0x517d_8d8e_e4d4_6a2f;
}
