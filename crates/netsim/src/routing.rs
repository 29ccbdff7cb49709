//! Per-source shortest-path trees.
//!
//! Multicast routing in the paper's ns scenarios is a static per-source
//! shortest-path tree (dense-mode style, pruned to group members).  We run
//! Dijkstra from each source on propagation latency, with deterministic
//! tie-breaking on node id so identical topologies always yield identical
//! trees.

use crate::graph::{LinkId, NodeId, Topology};
use crate::time::SimDuration;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A shortest-path tree rooted at one source node.
///
/// Child edges live in one flat arena in CSR (compressed sparse row)
/// layout rather than a `Vec<Vec<_>>`: the engine's forwarding hot path
/// walks a node's children for every packet hop, and the flat layout lets
/// it do so by copying `(NodeId, LinkId)` pairs out by index — no
/// per-packet allocation, no aliasing with the rest of the engine state.
#[derive(Clone, Debug)]
pub struct Spt {
    /// The root.
    pub source: NodeId,
    /// Parent edge of each node (`None` for the root).
    pub parent: Vec<Option<(NodeId, LinkId)>>,
    /// All child edges, grouped by parent, each group sorted by child id.
    child_edges: Vec<(NodeId, LinkId)>,
    /// `child_edges[child_start[v] .. child_start[v + 1]]` are the
    /// children of node `v`; length `node_count + 1`.
    child_start: Vec<u32>,
    /// Propagation-latency distance from the root to each node.
    pub dist: Vec<SimDuration>,
}

impl Spt {
    /// Computes the tree rooted at `source` with every link usable.
    pub fn compute(topo: &Topology, source: NodeId) -> Spt {
        Spt::compute_masked(topo, source, None)
    }

    /// Computes the tree rooted at `source`, skipping links whose entry in
    /// `link_up` is `false` (fault injection: a downed link carries no
    /// traffic and routing must detour around it).  With a mask the graph
    /// may be disconnected; unreachable nodes get no parent, no children,
    /// and a [`SimDuration::MAX`] distance (see [`Spt::reachable`]).
    pub fn compute_masked(topo: &Topology, source: NodeId, link_up: Option<&[bool]>) -> Spt {
        let n = topo.node_count();
        assert!(source.idx() < n, "unknown source {source:?}");
        if let Some(mask) = link_up {
            assert_eq!(mask.len(), topo.link_count(), "link mask length mismatch");
        }
        let mut dist = vec![u64::MAX; n];
        let mut parent: Vec<Option<(NodeId, LinkId)>> = vec![None; n];
        let mut done = vec![false; n];
        let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
        dist[source.idx()] = 0;
        heap.push(Reverse((0, source.0)));

        while let Some(Reverse((d, u))) = heap.pop() {
            let u = NodeId(u);
            if done[u.idx()] {
                continue;
            }
            done[u.idx()] = true;
            for &(v, link) in topo.neighbors(u) {
                if let Some(mask) = link_up {
                    if !mask[link.idx()] {
                        continue;
                    }
                }
                let w = topo.link(link).params.latency.as_nanos();
                let nd = d + w;
                // Strict < keeps the first (lowest-id thanks to sorted
                // neighbour lists and heap ordering) parent on ties.
                if nd < dist[v.idx()] {
                    dist[v.idx()] = nd;
                    parent[v.idx()] = Some((u, link));
                    heap.push(Reverse((nd, v.0)));
                }
            }
        }

        // Counting sort into CSR: every reachable non-root contributes one
        // edge under its parent; filling in ascending node order keeps each
        // group sorted by child id without a per-group sort.
        let mut child_start = vec![0u32; n + 1];
        for p in parent.iter().flatten() {
            child_start[p.0.idx() + 1] += 1;
        }
        for i in 0..n {
            child_start[i + 1] += child_start[i];
        }
        let edge_count = child_start[n] as usize;
        let mut next = child_start.clone();
        let mut child_edges = vec![(NodeId(0), LinkId(0)); edge_count];
        for v in topo.nodes() {
            if let Some((p, link)) = parent[v.idx()] {
                child_edges[next[p.idx()] as usize] = (v, link);
                next[p.idx()] += 1;
            }
        }

        Spt {
            source,
            parent,
            child_edges,
            child_start,
            dist: dist.into_iter().map(SimDuration).collect(),
        }
    }

    /// Whether `node` is reachable from the root under the mask this tree
    /// was computed with.  Trees over a fully-up topology always return
    /// `true` (connectivity is enforced at build time).
    pub fn reachable(&self, node: NodeId) -> bool {
        node == self.source || self.parent[node.idx()].is_some()
    }

    /// Whether this tree routes any traffic over `link` — the invalidation
    /// test when a fault takes a link down.
    pub fn uses_link(&self, link: LinkId) -> bool {
        self.parent.iter().flatten().any(|&(_, l)| l == link)
    }

    /// The children of `node` in this tree, sorted by child id.
    #[cfg(test)]
    fn children(&self, node: NodeId) -> &[(NodeId, LinkId)] {
        let (start, end) = self.child_range(node);
        &self.child_edges[start..end]
    }

    /// Index range of `node`'s children in the flat edge arena; pair with
    /// [`Spt::child_edge`] to iterate by copy while mutating other state.
    pub fn child_range(&self, node: NodeId) -> (usize, usize) {
        (
            self.child_start[node.idx()] as usize,
            self.child_start[node.idx() + 1] as usize,
        )
    }

    /// The `i`-th edge in the flat child arena (copied out).
    pub fn child_edge(&self, i: usize) -> (NodeId, LinkId) {
        self.child_edges[i]
    }

    /// The path from the root to `node`, as a list of nodes starting at the
    /// root and ending at `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is unreachable under this tree's link mask.
    pub fn path_to(&self, node: NodeId) -> Vec<NodeId> {
        assert!(self.reachable(node), "{node:?} unreachable from the root");
        let mut rev = vec![node];
        let mut cur = node;
        while let Some((p, _)) = self.parent[cur.idx()] {
            rev.push(p);
            cur = p;
        }
        rev.reverse();
        debug_assert_eq!(rev[0], self.source);
        rev
    }

    /// One-way propagation delay from the root to `node`
    /// ([`SimDuration::MAX`] when unreachable under the link mask).
    pub fn delay_to(&self, node: NodeId) -> SimDuration {
        self.dist[node.idx()]
    }
}

/// All-pairs propagation delays.
///
/// Protocol baselines use this as a *converged-session oracle*: SRM assumes
/// every member has RTT estimates to every other member via its session
/// protocol; handing the baseline exact delays is strictly generous to it,
/// which is the conservative direction for comparisons against SHARQFEC.
///
/// Two representations, chosen automatically by [`DistanceOracle::compute`]:
///
/// * **Dense** — one Dijkstra row per node, `O(n²)` memory.  Used for
///   meshy topologies (paper scale: 113 nodes, trivially cheap).
/// * **Tree** — when the topology has exactly `n − 1` links (connectivity
///   is asserted at build time, so that means a tree), paths are unique
///   and `delay(a, b) = dist(a) + dist(b) − 2·dist(lca(a, b))` over
///   root-distances.  `O(n)` memory and `O(depth)` per query, with values
///   *identical* to the Dijkstra rows — large-scale runs stay bit-compatible
///   with the dense representation.
#[derive(Clone, Debug)]
pub struct DistanceOracle {
    repr: OracleRepr,
}

#[derive(Clone, Debug)]
enum OracleRepr {
    Dense {
        delays: Vec<Vec<SimDuration>>,
    },
    Tree {
        /// Parent of each node in the tree rooted at node 0 (the root maps
        /// to itself).
        parent: Vec<u32>,
        depth: Vec<u32>,
        /// Propagation latency from the root, in nanoseconds.
        dist: Vec<u64>,
    },
}

fn tree_lca(parent: &[u32], depth: &[u32], mut a: usize, mut b: usize) -> usize {
    while depth[a] > depth[b] {
        a = parent[a] as usize;
    }
    while depth[b] > depth[a] {
        b = parent[b] as usize;
    }
    while a != b {
        a = parent[a] as usize;
        b = parent[b] as usize;
    }
    a
}

impl DistanceOracle {
    /// Computes delays for every ordered pair — eagerly (dense) for meshy
    /// topologies, as `O(n)` tree arrays when the topology is a tree.
    pub fn compute(topo: &Topology) -> DistanceOracle {
        if topo.link_count() == topo.node_count() - 1 {
            // Connected with n − 1 links ⇒ a tree: unique paths make the
            // LCA distance exactly what Dijkstra would compute.
            let n = topo.node_count();
            let mut parent = vec![0u32; n];
            let mut depth = vec![0u32; n];
            let mut dist = vec![0u64; n];
            let mut seen = vec![false; n];
            let mut stack = vec![NodeId(0)];
            seen[0] = true;
            while let Some(u) = stack.pop() {
                for &(v, link) in topo.neighbors(u) {
                    if !seen[v.idx()] {
                        seen[v.idx()] = true;
                        parent[v.idx()] = u.0;
                        depth[v.idx()] = depth[u.idx()] + 1;
                        dist[v.idx()] = dist[u.idx()] + topo.link(link).params.latency.as_nanos();
                        stack.push(v);
                    }
                }
            }
            return DistanceOracle {
                repr: OracleRepr::Tree {
                    parent,
                    depth,
                    dist,
                },
            };
        }
        let delays = topo
            .nodes()
            .map(|src| Spt::compute(topo, src).dist)
            .collect();
        DistanceOracle {
            repr: OracleRepr::Dense { delays },
        }
    }

    /// Whether the compact tree representation is in use (equivalently:
    /// whether the topology is a tree).
    pub fn is_tree(&self) -> bool {
        matches!(self.repr, OracleRepr::Tree { .. })
    }

    /// One-way propagation delay between two nodes.
    pub fn one_way(&self, a: NodeId, b: NodeId) -> SimDuration {
        match &self.repr {
            OracleRepr::Dense { delays } => delays[a.idx()][b.idx()],
            OracleRepr::Tree {
                parent,
                depth,
                dist,
            } => {
                let l = tree_lca(parent, depth, a.idx(), b.idx());
                SimDuration(dist[a.idx()] + dist[b.idx()] - 2 * dist[l])
            }
        }
    }

    /// Round-trip propagation delay between two nodes.
    pub fn rtt(&self, a: NodeId, b: NodeId) -> SimDuration {
        self.one_way(a, b) * 2
    }

    /// On a tree topology, the neighbour of `at` on the unique path toward
    /// `to`.  This is what lets the engine forward down a source-rooted
    /// tree without materializing per-source [`Spt`]s: the children of
    /// `at` re-rooted at `src` are exactly its neighbours minus
    /// `tree_next_hop(at, src)`.
    ///
    /// # Panics
    ///
    /// Panics on a dense (non-tree) oracle or when `at == to`.
    pub fn tree_next_hop(&self, at: NodeId, to: NodeId) -> NodeId {
        let OracleRepr::Tree { parent, depth, .. } = &self.repr else {
            panic!("tree_next_hop requires a tree topology");
        };
        assert_ne!(at, to, "no next hop from a node to itself");
        // If `at` is an ancestor of `to`, step down through the child of
        // `at` on the path; otherwise the path leaves through the parent.
        if depth[to.idx()] > depth[at.idx()] {
            let mut v = to.idx();
            while depth[v] > depth[at.idx()] + 1 {
                v = parent[v] as usize;
            }
            if parent[v] as usize == at.idx() {
                return NodeId(v as u32);
            }
        }
        NodeId(parent[at.idx()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{LinkParams, TopologyBuilder};

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    /// A small diamond: 0-1 (1ms), 0-2 (5ms), 1-3 (1ms), 2-3 (1ms).
    fn diamond() -> (Topology, [NodeId; 4]) {
        let mut b = TopologyBuilder::new();
        let n0 = b.add_node("0");
        let n1 = b.add_node("1");
        let n2 = b.add_node("2");
        let n3 = b.add_node("3");
        b.add_link(n0, n1, LinkParams::lossless_infinite(ms(1)));
        b.add_link(n0, n2, LinkParams::lossless_infinite(ms(5)));
        b.add_link(n1, n3, LinkParams::lossless_infinite(ms(1)));
        b.add_link(n2, n3, LinkParams::lossless_infinite(ms(1)));
        (b.build(), [n0, n1, n2, n3])
    }

    #[test]
    fn spt_prefers_shorter_path() {
        let (t, [n0, n1, _n2, n3]) = diamond();
        let spt = Spt::compute(&t, n0);
        assert_eq!(spt.delay_to(n3), ms(2)); // via n1
        assert_eq!(spt.path_to(n3), vec![n0, n1, n3]);
    }

    #[test]
    fn spt_distance_is_true_shortest() {
        // In the diamond, n2 is actually closer via n1,n3: 1+1+1 = 3ms.
        let (t, [n0, _, n2, _]) = diamond();
        let spt = Spt::compute(&t, n0);
        assert_eq!(spt.delay_to(n2), ms(3));
    }

    #[test]
    fn root_has_no_parent_and_zero_distance() {
        let (t, [n0, ..]) = diamond();
        let spt = Spt::compute(&t, n0);
        assert!(spt.parent[n0.idx()].is_none());
        assert_eq!(spt.delay_to(n0), SimDuration::ZERO);
        assert_eq!(spt.path_to(n0), vec![n0]);
    }

    #[test]
    fn children_partition_non_roots() {
        let (t, [n0, ..]) = diamond();
        let spt = Spt::compute(&t, n0);
        let total: usize = t.nodes().map(|v| spt.children(v).len()).sum();
        assert_eq!(total, t.node_count() - 1);
    }

    #[test]
    fn csr_children_match_parent_edges_and_are_sorted() {
        let (t, [n0, ..]) = diamond();
        let spt = Spt::compute(&t, n0);
        for v in t.nodes() {
            let kids = spt.children(v);
            assert!(kids.windows(2).all(|w| w[0].0 < w[1].0), "sorted by id");
            let (start, end) = spt.child_range(v);
            for (off, &(child, link)) in kids.iter().enumerate() {
                assert_eq!(spt.child_edge(start + off), (child, link));
                assert_eq!(spt.parent[child.idx()], Some((v, link)));
            }
            assert_eq!(end - start, kids.len());
        }
    }

    #[test]
    fn tie_break_is_deterministic() {
        // Two equal-cost paths to n3: via n1 or n2 (both 2ms). The lower
        // node id (n1) must win, every time.
        let mut b = TopologyBuilder::new();
        let n0 = b.add_node("0");
        let n1 = b.add_node("1");
        let n2 = b.add_node("2");
        let n3 = b.add_node("3");
        b.add_link(n0, n1, LinkParams::lossless_infinite(ms(1)));
        b.add_link(n0, n2, LinkParams::lossless_infinite(ms(1)));
        b.add_link(n1, n3, LinkParams::lossless_infinite(ms(1)));
        b.add_link(n2, n3, LinkParams::lossless_infinite(ms(1)));
        let t = b.build();
        for _ in 0..5 {
            let spt = Spt::compute(&t, n0);
            assert_eq!(spt.parent[n3.idx()].unwrap().0, n1);
        }
    }

    #[test]
    fn masked_compute_detours_around_down_links() {
        let (t, [n0, n1, n2, n3]) = diamond();
        // Take link 0-1 down: everything must route via n2.
        let l01 = t.link_between(n0, n1).unwrap();
        let mut up = vec![true; t.link_count()];
        up[l01.idx()] = false;
        let spt = Spt::compute_masked(&t, n0, Some(&up));
        assert_eq!(spt.path_to(n3), vec![n0, n2, n3]);
        assert_eq!(spt.delay_to(n3), ms(6));
        assert_eq!(spt.path_to(n1), vec![n0, n2, n3, n1]);
        assert!(spt.uses_link(t.link_between(n2, n3).unwrap()));
        assert!(!spt.uses_link(l01));
        assert!(t.nodes().all(|v| spt.reachable(v)));
    }

    #[test]
    fn masked_compute_tolerates_disconnection() {
        let mut b = TopologyBuilder::new();
        let n0 = b.add_node("0");
        let n1 = b.add_node("1");
        let n2 = b.add_node("2");
        let l01 = b.add_link(n0, n1, LinkParams::lossless_infinite(ms(1)));
        b.add_link(n1, n2, LinkParams::lossless_infinite(ms(1)));
        let t = b.build();
        let mut up = vec![true; t.link_count()];
        up[l01.idx()] = false;
        let spt = Spt::compute_masked(&t, n0, Some(&up));
        assert!(spt.reachable(n0));
        assert!(!spt.reachable(n1));
        assert!(!spt.reachable(n2));
        assert_eq!(spt.delay_to(n2), SimDuration::MAX);
        assert!(spt.children(n0).is_empty());
    }

    #[test]
    #[should_panic(expected = "unreachable")]
    fn path_to_unreachable_panics() {
        let mut b = TopologyBuilder::new();
        let n0 = b.add_node("0");
        let n1 = b.add_node("1");
        let l = b.add_link(n0, n1, LinkParams::lossless_infinite(ms(1)));
        let t = b.build();
        let spt = Spt::compute_masked(&t, n0, Some(&[false; 1]));
        let _ = l;
        let _ = spt.path_to(n1);
    }

    #[test]
    fn oracle_is_symmetric_and_matches_spt() {
        let (t, [n0, n1, n2, n3]) = diamond();
        let oracle = DistanceOracle::compute(&t);
        assert!(!oracle.is_tree(), "the diamond has a cycle");
        for &a in &[n0, n1, n2, n3] {
            let spt = Spt::compute(&t, a);
            for &b in &[n0, n1, n2, n3] {
                assert_eq!(oracle.one_way(a, b), spt.delay_to(b));
                assert_eq!(oracle.one_way(a, b), oracle.one_way(b, a));
            }
        }
        assert_eq!(oracle.rtt(n0, n3), ms(4));
    }

    /// A lopsided 8-node tree with distinct latencies, built in scrambled
    /// link order so adjacency sorting matters.
    fn lopsided_tree() -> Topology {
        let mut b = TopologyBuilder::new();
        let n: Vec<NodeId> = (0..8).map(|i| b.add_node(format!("t{i}"))).collect();
        b.add_link(n[2], n[6], LinkParams::lossless_infinite(ms(4)));
        b.add_link(n[0], n[1], LinkParams::lossless_infinite(ms(1)));
        b.add_link(n[1], n[4], LinkParams::lossless_infinite(ms(7)));
        b.add_link(n[0], n[2], LinkParams::lossless_infinite(ms(2)));
        b.add_link(n[2], n[5], LinkParams::lossless_infinite(ms(3)));
        b.add_link(n[4], n[7], LinkParams::lossless_infinite(ms(5)));
        b.add_link(n[1], n[3], LinkParams::lossless_infinite(ms(9)));
        b.build()
    }

    #[test]
    fn tree_oracle_matches_dijkstra_on_every_pair() {
        let t = lopsided_tree();
        let oracle = DistanceOracle::compute(&t);
        assert!(oracle.is_tree());
        for a in t.nodes() {
            let spt = Spt::compute(&t, a);
            for b in t.nodes() {
                assert_eq!(
                    oracle.one_way(a, b),
                    spt.delay_to(b),
                    "oracle {a:?}->{b:?} must equal the Dijkstra distance"
                );
                assert_eq!(oracle.one_way(a, b), oracle.one_way(b, a));
            }
        }
    }

    #[test]
    fn tree_next_hop_walks_the_unique_path() {
        let t = lopsided_tree();
        let oracle = DistanceOracle::compute(&t);
        for src in t.nodes() {
            let spt = Spt::compute(&t, src);
            for dst in t.nodes() {
                if src == dst {
                    continue;
                }
                // Walk from dst toward src one hop at a time; the hops
                // must retrace the SPT path in reverse.
                let path = spt.path_to(dst);
                let mut cur = dst;
                for expect in path.iter().rev().skip(1) {
                    cur = oracle.tree_next_hop(cur, src);
                    assert_eq!(cur, *expect);
                }
                assert_eq!(cur, src);
            }
        }
    }

    #[test]
    #[should_panic(expected = "requires a tree topology")]
    fn tree_next_hop_rejects_dense_oracles() {
        let (t, [n0, n1, ..]) = diamond();
        let oracle = DistanceOracle::compute(&t);
        let _ = oracle.tree_next_hop(n0, n1);
    }
}
