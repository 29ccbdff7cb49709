//! Network topology: nodes and links.
//!
//! Built once through [`TopologyBuilder`].  The graph structure (nodes,
//! links, adjacency) is then immutable for the lifetime of a simulation —
//! the paper's scenarios all use fixed wiring — but link *behaviour* can
//! change at runtime: a fault plan may swap a link's loss process via
//! [`Topology::set_loss_model`], and the engine tracks link up/down state
//! separately.

use crate::faults::LossModel;
use crate::link::LinkSpec;
use crate::time::SimDuration;
use core::fmt;

/// Identifier of a node, dense from 0.  The paper numbers its 113 session
/// members 0 (the source) through 112; topology builders preserve that
/// numbering.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The index as usize, for table lookups.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Identifier of an undirected link.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinkId(pub u32);

impl LinkId {
    /// The index as usize, for table lookups.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Link capacity: a finite bit rate, or infinitely fast (zero
/// serialization delay — the abstraction unit tests use for pure-latency
/// control links).
///
/// This used to be a bare `u64` where `0` silently meant "infinite", a
/// footgun for topology configs (a forgotten field looked like an
/// infinitely fast backbone).  Infinite capacity is now an explicit
/// variant and a zero rate is rejected at construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Bandwidth {
    /// No serialization delay at all.
    Infinite,
    /// A finite, non-zero bit rate.
    Bps(core::num::NonZeroU64),
}

impl Bandwidth {
    /// A finite rate in bits per second.
    ///
    /// # Panics
    ///
    /// Panics on `0` — write [`Bandwidth::Infinite`] if you mean an
    /// infinitely fast link.
    pub fn bps(bits_per_sec: u64) -> Bandwidth {
        match core::num::NonZeroU64::new(bits_per_sec) {
            Some(b) => Bandwidth::Bps(b),
            None => panic!(
                "bandwidth of 0 bit/s is rejected; use Bandwidth::Infinite \
                 for an infinitely fast link"
            ),
        }
    }

    /// The finite rate in bits per second, or `None` for an infinitely
    /// fast link.
    pub fn as_bps(self) -> Option<u64> {
        match self {
            Bandwidth::Infinite => None,
            Bandwidth::Bps(b) => Some(b.get()),
        }
    }
}

/// Physical parameters of a link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkParams {
    /// One-way propagation latency.
    pub latency: SimDuration,
    /// Link capacity.
    pub bandwidth: Bandwidth,
    /// Loss process applied per traversal, per direction, to lossy
    /// traffic classes.
    pub loss: LossModel,
}

impl LinkParams {
    /// Convenience constructor for a finite-rate link with i.i.d.
    /// Bernoulli loss (the historical default process).
    ///
    /// # Panics
    ///
    /// Panics if `loss` is outside `[0, 1]` or `bandwidth_bps` is zero
    /// (use [`LinkParams::infinite`] for an infinitely fast link).
    pub fn new(latency: SimDuration, bandwidth_bps: u64, loss: f64) -> LinkParams {
        LinkParams {
            latency,
            bandwidth: Bandwidth::bps(bandwidth_bps),
            loss: LossModel::bernoulli(loss),
        }
    }

    /// A lossless finite-rate link.
    pub fn lossless(latency: SimDuration, bandwidth_bps: u64) -> LinkParams {
        LinkParams::new(latency, bandwidth_bps, 0.0)
    }

    /// An infinitely fast (latency-only) link with Bernoulli loss.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is outside `[0, 1]`.
    pub fn infinite(latency: SimDuration, loss: f64) -> LinkParams {
        LinkParams {
            latency,
            bandwidth: Bandwidth::Infinite,
            loss: LossModel::bernoulli(loss),
        }
    }

    /// A lossless infinitely fast (latency-only) link.
    pub fn lossless_infinite(latency: SimDuration) -> LinkParams {
        LinkParams::infinite(latency, 0.0)
    }
}

/// Incrementally constructs a [`Topology`].
#[derive(Default)]
pub struct TopologyBuilder {
    labels: Vec<String>,
    links: Vec<LinkSpec>,
    /// Normalized `(min, max)` endpoint pairs, for O(1) duplicate checks
    /// (a linear scan per `add_link` would make building a 10⁶-link tree
    /// quadratic).  Lookup-only, never iterated: its order reaches nothing.
    seen_links: std::collections::HashSet<(u32, u32)>,
}

impl TopologyBuilder {
    /// An empty builder.
    pub fn new() -> TopologyBuilder {
        TopologyBuilder::default()
    }

    /// Adds a node and returns its id (ids are dense and sequential).
    pub fn add_node(&mut self, label: impl Into<String>) -> NodeId {
        let id = NodeId(self.labels.len() as u32);
        self.labels.push(label.into());
        id
    }

    /// Adds `n` nodes labelled `prefix0..prefixN-1`, returning their ids.
    pub fn add_nodes(&mut self, prefix: &str, n: usize) -> Vec<NodeId> {
        (0..n)
            .map(|i| self.add_node(format!("{prefix}{i}")))
            .collect()
    }

    /// Adds `n` unlabelled nodes (empty label, no per-node allocation),
    /// returning the contiguous id range.  Large generated topologies use
    /// this: a million `format!`ed labels are pure overhead when nodes
    /// are only ever addressed by id.
    pub fn add_unlabeled_nodes(&mut self, n: usize) -> std::ops::Range<u32> {
        let start = self.labels.len() as u32;
        self.labels.resize_with(self.labels.len() + n, String::new);
        start..start + n as u32
    }

    /// Adds an undirected link between two existing nodes.
    ///
    /// # Panics
    ///
    /// Panics on unknown endpoints, a self-loop, or a duplicate link.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, params: LinkParams) -> LinkId {
        assert!(a.idx() < self.labels.len(), "unknown node {a:?}");
        assert!(b.idx() < self.labels.len(), "unknown node {b:?}");
        assert_ne!(a, b, "self-loops are not allowed");
        let key = (a.0.min(b.0), a.0.max(b.0));
        assert!(self.seen_links.insert(key), "duplicate link {a:?}-{b:?}");
        let id = LinkId(self.links.len() as u32);
        self.links.push(LinkSpec { a, b, params });
        id
    }

    /// Finalizes the topology.
    ///
    /// # Panics
    ///
    /// Panics if the graph is empty or not connected — every paper scenario
    /// is a single connected session, and an unreachable node is always a
    /// builder bug.
    pub fn build(self) -> Topology {
        assert!(!self.labels.is_empty(), "topology must have nodes");
        let n = self.labels.len();
        let mut adjacency = vec![Vec::new(); n];
        for (i, l) in self.links.iter().enumerate() {
            adjacency[l.a.idx()].push((l.b, LinkId(i as u32)));
            adjacency[l.b.idx()].push((l.a, LinkId(i as u32)));
        }
        // Deterministic neighbour order regardless of insertion order.
        for adj in &mut adjacency {
            adj.sort_by_key(|(n, _)| *n);
        }
        let topo = Topology {
            labels: self.labels,
            links: self.links,
            adjacency,
        };
        assert!(
            topo.is_connected(),
            "topology must be connected (some node is unreachable)"
        );
        topo
    }
}

/// An immutable network graph.
#[derive(Clone)]
pub struct Topology {
    labels: Vec<String>,
    links: Vec<LinkSpec>,
    adjacency: Vec<Vec<(NodeId, LinkId)>>,
}

impl Topology {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.labels.len() as u32).map(NodeId)
    }

    /// Human label of a node.
    pub fn label(&self, node: NodeId) -> &str {
        &self.labels[node.idx()]
    }

    /// Specification of a link.
    pub fn link(&self, id: LinkId) -> &LinkSpec {
        &self.links[id.idx()]
    }

    /// Neighbours of a node with the connecting link, sorted by neighbour id.
    pub fn neighbors(&self, node: NodeId) -> &[(NodeId, LinkId)] {
        &self.adjacency[node.idx()]
    }

    /// Replaces a link's loss process (both directions).  Used by the
    /// fault-injection `SetLoss` event and by scenario post-passes that
    /// convert Bernoulli rates into burst models of equal mean.
    pub fn set_loss_model(&mut self, id: LinkId, model: LossModel) {
        self.links[id.idx()].params.loss = model;
    }

    /// The link joining two adjacent nodes, if any.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.adjacency[a.idx()]
            .iter()
            .find(|(n, _)| *n == b)
            .map(|&(_, l)| l)
    }

    fn is_connected(&self) -> bool {
        let n = self.node_count();
        let mut seen = vec![false; n];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &(v, _) in self.neighbors(u) {
                if !seen[v.idx()] {
                    seen[v.idx()] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == n
    }
}

impl fmt::Debug for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Topology({} nodes, {} links)",
            self.node_count(),
            self.link_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn build_simple_triangle() {
        let mut b = TopologyBuilder::new();
        let n0 = b.add_node("a");
        let n1 = b.add_node("b");
        let n2 = b.add_node("c");
        b.add_link(n0, n1, LinkParams::lossless(ms(1), 1_000_000));
        b.add_link(n1, n2, LinkParams::lossless(ms(2), 1_000_000));
        b.add_link(n2, n0, LinkParams::lossless(ms(3), 1_000_000));
        let t = b.build();
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.link_count(), 3);
        assert_eq!(t.neighbors(n0).len(), 2);
        assert_eq!(t.label(n1), "b");
        assert!(t.link_between(n0, n1).is_some());
        assert!(t.link_between(n0, n0).is_none());
    }

    #[test]
    fn add_nodes_labels_sequentially() {
        let mut b = TopologyBuilder::new();
        let ids = b.add_nodes("r", 3);
        assert_eq!(ids, vec![NodeId(0), NodeId(1), NodeId(2)]);
        b.add_link(ids[0], ids[1], LinkParams::lossless_infinite(ms(1)));
        b.add_link(ids[1], ids[2], LinkParams::lossless_infinite(ms(1)));
        let t = b.build();
        assert_eq!(t.label(NodeId(2)), "r2");
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        let mut b = TopologyBuilder::new();
        let n = b.add_node("x");
        b.add_link(n, n, LinkParams::lossless_infinite(ms(1)));
    }

    #[test]
    #[should_panic(expected = "duplicate link")]
    fn duplicate_link_rejected_either_direction() {
        let mut b = TopologyBuilder::new();
        let a = b.add_node("a");
        let c = b.add_node("b");
        b.add_link(a, c, LinkParams::lossless_infinite(ms(1)));
        b.add_link(c, a, LinkParams::lossless_infinite(ms(1)));
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn disconnected_graph_rejected() {
        let mut b = TopologyBuilder::new();
        b.add_node("a");
        b.add_node("b");
        b.build();
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn invalid_loss_rejected() {
        LinkParams::new(ms(1), 1_000_000, 1.5);
    }

    #[test]
    #[should_panic(expected = "bandwidth of 0")]
    fn zero_bandwidth_rejected() {
        LinkParams::new(ms(1), 0, 0.0);
    }

    #[test]
    #[should_panic(expected = "bandwidth of 0")]
    fn zero_bandwidth_rejected_in_bps_constructor() {
        Bandwidth::bps(0);
    }

    #[test]
    fn bandwidth_as_bps_round_trips() {
        assert_eq!(Bandwidth::bps(800_000).as_bps(), Some(800_000));
        assert_eq!(Bandwidth::Infinite.as_bps(), None);
    }

    #[test]
    fn neighbors_sorted_by_id() {
        let mut b = TopologyBuilder::new();
        let hub = b.add_node("hub");
        let n3 = b.add_node("n1");
        let n2 = b.add_node("n2");
        let n1 = b.add_node("n3");
        // Insert in scrambled order.
        b.add_link(hub, n1, LinkParams::lossless_infinite(ms(1)));
        b.add_link(hub, n3, LinkParams::lossless_infinite(ms(1)));
        b.add_link(hub, n2, LinkParams::lossless_infinite(ms(1)));
        let t = b.build();
        let ns: Vec<NodeId> = t.neighbors(hub).iter().map(|&(n, _)| n).collect();
        assert_eq!(ns, vec![n3, n2, n1]);
    }
}
