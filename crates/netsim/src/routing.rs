//! Shortest-path multicast routing: one spanning forest per link mask.
//!
//! Multicast routing in the paper's ns scenarios is a static source-rooted
//! shortest-path tree (dense-mode style, pruned to group members).  Every
//! topology this repository generates is a tree, where that tree is the
//! same for every source, so the engine keeps one forest, [`Spt`], and
//! every source forwards over it; on a graph with cycles a source other
//! than the forest's root thereby follows the root's tree (DESIGN §10).
//! Ties break on (distance, node id), so identical topologies always
//! yield identical forests.

use crate::graph::{LinkId, NodeId, Topology};
use crate::time::SimDuration;

/// No node: the "not reached yet" root and the "depth unknown" mark.
const NONE: u32 = u32::MAX;

/// A shortest-path spanning forest over the up links: `source`'s
/// shortest-path tree, then one tree per component the link mask cuts off
/// from it, each rooted at its lowest node.
///
/// Every array holds `u32`/`u64` words indexed by node (flags indexed by
/// link for the edges), so a forwarding hop reads a few words and
/// [`Spt::recompute`] refills them in place without allocating.
#[derive(Clone, Debug)]
pub struct Spt {
    /// The root of the first tree.
    pub source: NodeId,
    /// Each node's parent; a root is its own.
    parent: Vec<u32>,
    /// The link to each node's parent (meaningless at a root).
    uplink: Vec<u32>,
    /// The root of each node's tree: two nodes are connected iff equal.
    root: Vec<u32>,
    /// Hops below the node's root.
    depth: Vec<u32>,
    /// Propagation latency below the node's root, in nanoseconds.
    dist: Vec<u64>,
    /// Whether each link is a forest edge.
    edges: Vec<bool>,
    /// The search's FIFO work list, then the depth pass's stack.
    work: Vec<u32>,
}

impl Spt {
    /// Computes the forest rooted at `source` with every link usable.
    pub fn compute(topo: &Topology, source: NodeId) -> Spt {
        let n = topo.node_count();
        assert!(source.idx() < n, "unknown source {source:?}");
        let mut spt = Spt {
            source,
            parent: vec![0; n],
            uplink: vec![0; n],
            root: vec![0; n],
            depth: vec![0; n],
            dist: vec![0; n],
            edges: vec![false; topo.link_count()],
            work: Vec::with_capacity(n),
        };
        spt.fill(topo, |_| true);
        spt
    }

    /// Computes the forest rooted at `source`, skipping links whose entry
    /// in `link_up` is `false` (fault injection: a downed link carries no
    /// traffic and routing must detour around it).  Nodes cut off from
    /// `source` are unreachable from it (see [`Spt::reachable`]).
    pub fn compute_masked(topo: &Topology, source: NodeId, link_up: &[bool]) -> Spt {
        let mut spt = Spt::compute(topo, source);
        spt.recompute(topo, link_up);
        spt
    }

    /// Recomputes the forest in place against a new link mask.
    pub fn recompute(&mut self, topo: &Topology, link_up: &[bool]) {
        assert_eq!(link_up.len(), topo.link_count(), "link mask length");
        self.fill(topo, |link| link_up[link.idx()]);
    }

    /// A FIFO label-correcting search from each root in turn: heap-free,
    /// and on an acyclic graph every node is queued once, so `O(n)`.
    fn fill(&mut self, topo: &Topology, up: impl Fn(LinkId) -> bool) {
        let n = self.parent.len();
        self.root.fill(NONE);
        self.depth.fill(NONE);
        self.dist.fill(u64::MAX);
        self.edges.fill(false);
        self.work.clear();
        let mut head = 0;
        for r in std::iter::once(self.source.0).chain(0..n as u32) {
            let ri = r as usize;
            if self.root[ri] != NONE {
                continue;
            }
            (self.root[ri], self.parent[ri]) = (r, r);
            (self.depth[ri], self.dist[ri]) = (0, 0);
            self.work.push(r);
            while let Some(&u) = self.work.get(head) {
                head += 1;
                let du = self.dist[u as usize];
                // The edge back up never improves: skip it unread, as a
                // depth-first walk of a tree would.
                let pu = self.parent[u as usize];
                for &(v, link) in topo.neighbors(NodeId(u)) {
                    if v.0 == pu || !up(link) {
                        continue;
                    }
                    let (v, nd) = (v.idx(), du + topo.link(link).params.latency.as_nanos());
                    // A tie goes to the parent with the least (distance,
                    // id), the one Dijkstra would settle first; `du < nd`
                    // keeps a zero-latency link from closing a cycle.
                    let p = self.parent[v];
                    let tie = nd == self.dist[v] && du < nd && (du, u) < (self.dist[p as usize], p);
                    if nd >= self.dist[v] && !tie {
                        continue;
                    }
                    if nd < self.dist[v] {
                        self.work.push(v as u32);
                    }
                    (self.root[v], self.parent[v], self.uplink[v]) = (r, u, link.0);
                    self.dist[v] = nd;
                }
            }
        }
        // Depths last, off the settled parents: the search may re-parent a
        // node after its children were reached.
        self.work.clear();
        for v in 0..n {
            let mut u = v;
            while self.depth[u] == NONE {
                self.work.push(u as u32);
                u = self.parent[u] as usize;
            }
            while let Some(w) = self.work.pop() {
                self.depth[w as usize] = self.depth[u] + 1;
                u = w as usize;
            }
        }
        for v in (0..n).filter(|&v| self.parent[v] as usize != v) {
            self.edges[self.uplink[v] as usize] = true;
        }
    }

    /// Whether `a` and `b` lie in one tree, i.e. are connected over the
    /// up links.
    #[inline]
    pub fn connects(&self, a: NodeId, b: NodeId) -> bool {
        self.root[a.idx()] == self.root[b.idx()]
    }

    /// Whether `node` is in `source`'s tree.  A forest over a fully-up
    /// topology reaches every node (connectivity is enforced at build time).
    pub fn reachable(&self, node: NodeId) -> bool {
        self.connects(self.source, node)
    }

    /// Whether `link` is a forest edge; a down link never is.
    #[inline]
    pub fn carries(&self, link: LinkId) -> bool {
        self.edges[link.idx()]
    }

    /// The edge from `node` up to its parent (`None` at a root).
    pub fn parent(&self, node: NodeId) -> Option<(NodeId, LinkId)> {
        let p = self.parent[node.idx()];
        (p != node.0).then(|| (NodeId(p), LinkId(self.uplink[node.idx()])))
    }

    /// The neighbour of `at` on the forest path toward `to`.  This is what
    /// lets every source forward over the one forest: the children of `at`
    /// in its tree re-rooted at `to` are its forest-edge neighbours other
    /// than `next_hop(at, to)`.
    ///
    /// # Panics
    ///
    /// Panics when `at == to`; the two must be connected.
    pub fn next_hop(&self, at: NodeId, to: NodeId) -> NodeId {
        assert_ne!(at, to, "no next hop from a node to itself");
        debug_assert!(self.connects(at, to), "{at:?} and {to:?} are not connected");
        let (parent, depth) = (&self.parent, &self.depth);
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

    /// The lowest common ancestor of two connected nodes.
    fn lca(&self, mut a: usize, mut b: usize) -> usize {
        let (parent, depth) = (&self.parent, &self.depth);
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

    /// The path from the root to `node`, as a list of nodes starting at the
    /// root and ending at `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is unreachable under this forest's link mask.
    pub fn path_to(&self, node: NodeId) -> Vec<NodeId> {
        assert!(self.reachable(node), "{node:?} unreachable from the root");
        let mut rev = vec![node];
        let mut cur = node;
        while let Some((p, _)) = self.parent(cur) {
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
        if self.reachable(node) {
            SimDuration(self.dist[node.idx()])
        } else {
            SimDuration::MAX
        }
    }
}

/// All-pairs propagation delays along the all-up forest: `delay(a, b) =
/// dist(a) + dist(b) − 2·dist(lca(a, b))` over node 0's shortest-path
/// tree, `O(n)` memory and `O(depth)` per query.
///
/// Protocol baselines use this as a *converged-session oracle*: SRM assumes
/// every member has RTT estimates to every other member via its session
/// protocol; handing the baseline exact delays is strictly generous to it,
/// which is the conservative direction for comparisons against SHARQFEC.
///
/// On a tree — every topology the repository generates — paths are unique
/// and this is the shortest-path delay of every pair.  On a graph with
/// cycles it is exact from node 0 and otherwise the delay along node 0's
/// tree, which is the path the engine delivers over (DESIGN §10).
#[derive(Clone, Debug)]
pub struct DistanceOracle {
    /// Node 0's all-up forest, which the engine's routing forest starts as.
    pub(crate) forest: Spt,
}

impl DistanceOracle {
    /// Computes node 0's shortest-path tree over every link.
    pub fn compute(topo: &Topology) -> DistanceOracle {
        DistanceOracle {
            forest: Spt::compute(topo, NodeId(0)),
        }
    }

    /// One-way propagation delay between two nodes.
    pub fn one_way(&self, a: NodeId, b: NodeId) -> SimDuration {
        let f = &self.forest;
        let l = f.lca(a.idx(), b.idx());
        SimDuration(f.dist[a.idx()] + f.dist[b.idx()] - 2 * f.dist[l])
    }

    /// Round-trip propagation delay between two nodes.
    pub fn rtt(&self, a: NodeId, b: NodeId) -> SimDuration {
        self.one_way(a, b) * 2
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
        assert!(spt.parent(n0).is_none());
        assert_eq!(spt.delay_to(n0), SimDuration::ZERO);
        assert_eq!(spt.path_to(n0), vec![n0]);
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
            assert_eq!(spt.parent(n3).unwrap().0, n1);
        }
    }

    #[test]
    fn masked_compute_detours_around_down_links() {
        let (t, [n0, n1, n2, n3]) = diamond();
        // Take link 0-1 down: everything must route via n2.
        let l01 = t.link_between(n0, n1).unwrap();
        let mut up = vec![true; t.link_count()];
        up[l01.idx()] = false;
        let spt = Spt::compute_masked(&t, n0, &up);
        assert_eq!(spt.path_to(n3), vec![n0, n2, n3]);
        assert_eq!(spt.delay_to(n3), ms(6));
        assert_eq!(spt.path_to(n1), vec![n0, n2, n3, n1]);
        assert!(spt.carries(t.link_between(n2, n3).unwrap()));
        assert!(!spt.carries(l01));
        assert!(t.nodes().all(|v| spt.reachable(v)));
    }

    #[test]
    fn masked_compute_tolerates_disconnection() {
        let mut b = TopologyBuilder::new();
        let n0 = b.add_node("0");
        let n1 = b.add_node("1");
        let n2 = b.add_node("2");
        let l01 = b.add_link(n0, n1, LinkParams::lossless_infinite(ms(1)));
        let l12 = b.add_link(n1, n2, LinkParams::lossless_infinite(ms(1)));
        let t = b.build();
        let mut up = vec![true; t.link_count()];
        up[l01.idx()] = false;
        let spt = Spt::compute_masked(&t, n0, &up);
        assert!(spt.reachable(n0));
        assert!(!spt.reachable(n1));
        assert!(!spt.reachable(n2));
        assert_eq!(spt.delay_to(n2), SimDuration::MAX);
        assert!(!spt.carries(l01));
        // The cut-off side is a tree of its own, rooted at its lowest node.
        assert!(spt.carries(l12) && spt.connects(n1, n2));
        assert_eq!(spt.parent(n2), Some((n1, l12)));
    }

    #[test]
    #[should_panic(expected = "unreachable")]
    fn path_to_unreachable_panics() {
        let mut b = TopologyBuilder::new();
        let n0 = b.add_node("0");
        let n1 = b.add_node("1");
        let l = b.add_link(n0, n1, LinkParams::lossless_infinite(ms(1)));
        let t = b.build();
        let spt = Spt::compute_masked(&t, n0, &[false; 1]);
        let _ = l;
        let _ = spt.path_to(n1);
    }

    #[test]
    fn oracle_is_symmetric_and_matches_spt() {
        // Every source's shortest-path tree in the diamond is node 0's (the
        // 5 ms link 0-2 is on no shortest path): the oracle is exact.
        let (t, [n0, n1, n2, n3]) = diamond();
        let oracle = DistanceOracle::compute(&t);
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
        let forest = Spt::compute(&t, NodeId(0));
        for src in t.nodes() {
            let spt = Spt::compute(&t, src);
            for dst in t.nodes() {
                if src == dst {
                    continue;
                }
                // Walk from dst toward src one hop at a time over node 0's
                // forest; the hops must retrace src's own SPT path in reverse.
                let path = spt.path_to(dst);
                let mut cur = dst;
                for expect in path.iter().rev().skip(1) {
                    cur = forest.next_hop(cur, src);
                    assert_eq!(cur, *expect);
                }
                assert_eq!(cur, src);
            }
        }
    }
}
