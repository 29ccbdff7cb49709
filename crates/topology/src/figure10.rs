//! The paper's Figure 10 test network.
//!
//! §6.1: "the sender or top ZCR, node 0, fed data to a 3 level hierarchy of
//! 112 receivers arranged as a mesh of 7 receivers that each fed balanced
//! trees.  The links connecting the source to the top 7 receivers in each
//! tree were initialized to 45 Mbit/sec with all other remaining links set
//! to a rate of 10 Mbit/sec.  Latencies between the receivers located
//! within each tree were set to 20 ms for each link while the latencies
//! used for the backbone links are shown in Figure 10."
//!
//! §6.2 pins the loss plan: "The loss rate between each of the seven mesh
//! nodes and their three children was set to 8%, while the loss rate
//! between the three children and their children was set to 4%.  Thus …
//! receivers 53 through 62 experienced the worst loss (on the order of
//! 28.3%) while receivers 89 through 100 experienced the least loss (on
//! the order of 13.4%)."
//!
//! The exact backbone latencies and loss rates are legible only in the
//! figure (not reproduced in the text), so this module interpolates them
//! under the constraints the text *does* pin (see `DESIGN.md` §5):
//! compounded end-to-end loss at the leaves of the worst tree ≈ 28.3 % and
//! of the best trees ≈ 13.4 %.  Solving `1-(1-p)(1-0.08)(1-0.04)` gives a
//! backbone loss of ≈ 18.8 % for the worst mesh link and ≈ 2 % for the
//! best; the remaining five are spread between those extremes.
//!
//! Numbering: each of the 7 trees occupies 16 consecutive ids —
//! tree *t* is nodes `16t+1 .. 16t+16`, with `16t+1` the mesh (backbone)
//! node, `16t+2..16t+4` its three children, and `16t+5..16t+16` the twelve
//! leaves (four per child).  This places receivers 53–62 among the leaves
//! of tree 3 (the worst-loss tree) and 89–100 in the least-loss region,
//! matching the text.
//!
//! Zones (3 levels, 29 zones): Z0 = everything; one level-1 zone per tree
//! (16 nodes, designed ZCR = the mesh node); one level-2 zone per child
//! (child + its 4 leaves, designed ZCR = the child).

use crate::BuiltTopology;
use sharqfec_netsim::{LinkParams, NodeId, SimDuration, TopologyBuilder};
use sharqfec_scoping::ZoneHierarchyBuilder;

/// Backbone (source → mesh node) one-way latencies in ms, one per tree.
const BACKBONE_LATENCY_MS: [u64; TREES] = [30, 40, 50, 60, 35, 10, 20];
/// Backbone loss rates, one per tree: tree 3 worst (≈ 18.8 % ⇒ 28.3 % at
/// its leaves), trees 5 and 6 best (2 % ⇒ 13.4 % at their leaves); see
/// the module docs for how the text pins them.
const BACKBONE_LOSS: [f64; TREES] = [0.05, 0.08, 0.12, 0.188, 0.10, 0.02, 0.02];
/// Loss on mesh-node → child links (paper: 8 %).
const MESH_CHILD_LOSS: f64 = 0.08;
/// Loss on child → leaf links (paper: 4 %).
const CHILD_LEAF_LOSS: f64 = 0.04;
/// Backbone bandwidth (paper: 45 Mbit/s).
const BACKBONE_BPS: u64 = 45_000_000;
/// Tree bandwidth (paper: 10 Mbit/s).
const TREE_BPS: u64 = 10_000_000;
/// Tree link latency (paper: 20 ms).
const TREE_LATENCY_MS: u64 = 20;

/// The one knob of the Figure 10 build: a factor on every loss rate
/// (the default reproduces the paper; loss-sweep ablations scale it).
#[derive(Clone, Debug)]
pub struct Figure10Params {
    loss_scale: f64,
}

impl Default for Figure10Params {
    fn default() -> Figure10Params {
        Figure10Params { loss_scale: 1.0 }
    }
}

impl Figure10Params {
    /// A lossless variant (session-maintenance experiments, §6.1: "the
    /// link loss rates shown do not apply for session traffic" — and the
    /// engine already spares session/NACK classes, but a fully lossless
    /// network is useful for isolating protocol logic in tests).
    pub fn lossless() -> Figure10Params {
        Figure10Params { loss_scale: 0.0 }
    }

    /// Scales every loss rate by `factor` (each clamped to [0, 1]) for
    /// loss-sweep ablations.
    pub fn scaled_loss(mut self, factor: f64) -> Figure10Params {
        self.loss_scale *= factor;
        self
    }

    /// One of the paper's loss rates under this build's scale.
    fn loss(&self, base: f64) -> f64 {
        (base * self.loss_scale).clamp(0.0, 1.0)
    }

    /// Compounded end-to-end loss from the source to a leaf of tree `t`.
    pub fn leaf_loss(&self, t: usize) -> f64 {
        1.0 - (1.0 - self.loss(BACKBONE_LOSS[t]))
            * (1.0 - self.loss(MESH_CHILD_LOSS))
            * (1.0 - self.loss(CHILD_LEAF_LOSS))
    }
}

/// Number of trees hanging off the backbone.
pub const TREES: usize = 7;
/// Children per mesh node.
pub const CHILDREN: usize = 3;
/// Leaves per child.
pub const LEAVES: usize = 4;
/// Nodes per tree (mesh node + children + leaves).
pub const TREE_SIZE: usize = 1 + CHILDREN + CHILDREN * LEAVES; // 16
/// Total receivers (112) — the paper's count.
pub const RECEIVERS: usize = TREES * TREE_SIZE;

/// The mesh (backbone) node of tree `t`.
pub fn mesh_node(t: usize) -> NodeId {
    NodeId((t * TREE_SIZE + 1) as u32)
}

/// Child `c` (0-based) of tree `t`.
pub fn child_node(t: usize, c: usize) -> NodeId {
    NodeId((t * TREE_SIZE + 2 + c) as u32)
}

/// Leaf `l` (0-based, 0..12) of tree `t`.
pub fn leaf_node(t: usize, l: usize) -> NodeId {
    NodeId((t * TREE_SIZE + 2 + CHILDREN + l) as u32)
}

/// Builds the Figure 10 network.
pub fn figure10(params: &Figure10Params) -> BuiltTopology {
    let mut b = TopologyBuilder::new();
    let source = b.add_node("src");
    // Create all receiver nodes first so ids are contiguous 1..=112.
    let mut receivers = Vec::with_capacity(RECEIVERS);
    for t in 0..TREES {
        let mesh = b.add_node(format!("t{t}-mesh"));
        receivers.push(mesh);
        for c in 0..CHILDREN {
            receivers.push(b.add_node(format!("t{t}-c{c}")));
        }
        for c in 0..CHILDREN {
            for l in 0..LEAVES {
                receivers.push(b.add_node(format!("t{t}-c{c}-l{l}")));
            }
        }
        debug_assert_eq!(mesh, mesh_node(t));
    }

    let tree = |base| {
        let lat = SimDuration::from_millis(TREE_LATENCY_MS);
        LinkParams::new(lat, TREE_BPS, params.loss(base))
    };
    for t in 0..TREES {
        let lat = SimDuration::from_millis(BACKBONE_LATENCY_MS[t]);
        let backbone = LinkParams::new(lat, BACKBONE_BPS, params.loss(BACKBONE_LOSS[t]));
        b.add_link(source, mesh_node(t), backbone);
        for c in 0..CHILDREN {
            b.add_link(mesh_node(t), child_node(t, c), tree(MESH_CHILD_LOSS));
            for l in 0..LEAVES {
                b.add_link(
                    child_node(t, c),
                    leaf_node(t, c * LEAVES + l),
                    tree(CHILD_LEAF_LOSS),
                );
            }
        }
    }
    let topology = b.build();
    let node_count = topology.node_count();
    debug_assert_eq!(node_count, 1 + RECEIVERS);

    // Zones.
    let mut zb = ZoneHierarchyBuilder::new(node_count);
    let all: Vec<NodeId> = (0..node_count as u32).map(NodeId).collect();
    let z0 = zb.root(&all);
    let mut designed_zcrs = vec![source];
    for t in 0..TREES {
        let tree_members: Vec<NodeId> = (0..TREE_SIZE)
            .map(|i| NodeId((t * TREE_SIZE + 1 + i) as u32))
            .collect();
        let z1 = zb.child(z0, &tree_members).expect("tree zone nests");
        debug_assert_eq!(designed_zcrs.len(), z1.idx());
        designed_zcrs.push(mesh_node(t));
        for c in 0..CHILDREN {
            let mut members = vec![child_node(t, c)];
            for l in 0..LEAVES {
                members.push(leaf_node(t, c * LEAVES + l));
            }
            let z2 = zb.child(z1, &members).expect("child zone nests");
            debug_assert_eq!(designed_zcrs.len(), z2.idx());
            designed_zcrs.push(child_node(t, c));
        }
    }
    let hierarchy = zb.build().expect("figure 10 hierarchy is valid");

    BuiltTopology {
        topology,
        source,
        receivers,
        hierarchy,
        designed_zcrs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharqfec_netsim::routing::Spt;
    use sharqfec_netsim::LinkId;

    #[test]
    fn counts_match_the_paper() {
        let built = figure10(&Figure10Params::default());
        assert_eq!(built.topology.node_count(), 113);
        assert_eq!(built.receivers.len(), 112);
        assert_eq!(built.hierarchy.zone_count(), 1 + 7 + 21);
        // 7 backbone + 7*3 child + 7*12 leaf links
        assert_eq!(built.topology.link_count(), 7 + 21 + 84);
    }

    #[test]
    fn loss_extremes_match_the_text() {
        let p = Figure10Params::default();
        // Worst-loss tree (tree 3, leaves = nodes 53..64): ~28.3%.
        let worst = p.leaf_loss(3);
        assert!(
            (worst - 0.283).abs() < 0.005,
            "worst leaf loss {worst} should be ~0.283"
        );
        // Least-loss trees (5 and 6): ~13.4%.
        for t in [5, 6] {
            let least = p.leaf_loss(t);
            assert!(
                (least - 0.134).abs() < 0.005,
                "least leaf loss {least} should be ~0.134"
            );
        }
        // Every other tree sits strictly between the extremes.
        for t in [0, 1, 2, 4] {
            let l = p.leaf_loss(t);
            assert!(l > p.leaf_loss(5) && l < p.leaf_loss(3), "tree {t}");
        }
    }

    #[test]
    fn worst_receivers_are_53_to_62() {
        // Leaves of tree 3 are nodes 53..=64; the text names 53–62 as the
        // worst-loss receivers, which our numbering covers.
        let first_leaf = leaf_node(3, 0);
        let last_leaf = leaf_node(3, 11);
        assert_eq!(first_leaf, NodeId(53));
        assert_eq!(last_leaf, NodeId(64));
    }

    #[test]
    fn least_loss_region_covers_89_to_100() {
        // Nodes 89..=96 are leaves of tree 5; 97..=100 are the mesh/children
        // of tree 6 — the two least-lossy trees.
        assert_eq!(leaf_node(5, 4), NodeId(89));
        assert_eq!(leaf_node(5, 11), NodeId(96));
        assert_eq!(mesh_node(6), NodeId(97));
        assert_eq!(child_node(6, 2), NodeId(100));
    }

    #[test]
    fn routing_depth_is_three_hops() {
        let built = figure10(&Figure10Params::default());
        let spt = Spt::compute(&built.topology, built.source);
        // Leaf of tree 0: backbone 30ms + 20 + 20 = 70ms.
        assert_eq!(spt.delay_to(leaf_node(0, 0)), SimDuration::from_millis(70));
        assert_eq!(spt.path_to(leaf_node(0, 0)).len(), 4);
    }

    #[test]
    fn designed_zcrs_head_their_zones() {
        let built = figure10(&Figure10Params::default());
        for zone in built.hierarchy.zones() {
            let zcr = built.zcr(zone.id);
            assert!(
                built.hierarchy.is_member(zone.id, zcr),
                "ZCR of {} must be a member",
                zone.id
            );
        }
        // Spot-check: zone of tree 2 has mesh node 33 as ZCR.
        let z_tree2 = built.hierarchy.smallest_zone(mesh_node(2));
        assert_eq!(built.zcr(z_tree2), NodeId(33));
    }

    #[test]
    fn zone_chain_depth_is_three_for_leaves() {
        let built = figure10(&Figure10Params::default());
        let chain = built.hierarchy.zone_chain(leaf_node(4, 7));
        assert_eq!(chain.len(), 3);
        // And one for the source.
        assert_eq!(built.hierarchy.zone_chain(built.source).len(), 1);
    }

    #[test]
    fn scaled_loss_clamps() {
        // ×10 takes tree 3's backbone (18.8 %) past 1: clamped, its leaves
        // lose everything.
        let p = Figure10Params::default().scaled_loss(10.0);
        assert_eq!(p.leaf_loss(3), 1.0);
        let built = figure10(&p);
        let losses: Vec<f64> = (0..built.topology.link_count() as u32)
            .map(|l| built.topology.link(LinkId(l)).params.loss.mean_loss())
            .collect();
        assert!(losses.iter().all(|&l| l <= 1.0) && losses.contains(&1.0));
        let p0 = Figure10Params::default().scaled_loss(0.0);
        assert_eq!(p0.leaf_loss(0), 0.0);
    }

    #[test]
    fn lossless_variant_has_no_loss() {
        let p = Figure10Params::lossless();
        for t in 0..TREES {
            assert_eq!(p.leaf_loss(t), 0.0);
        }
    }
}
