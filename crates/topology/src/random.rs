//! Seeded random topologies with automatic zone hierarchies.
//!
//! The paper evaluates on hand-built networks; a robust implementation
//! must survive networks nobody designed.  [`random_tree`] produces a
//! seed-deterministic random multicast tree with random latencies,
//! bandwidths, and loss rates, and partitions it into a zone hierarchy by
//! subtree — every zone physically contiguous by construction, so the
//! result is always a valid [`BuiltTopology`] for any protocol run.

use crate::BuiltTopology;
use sharqfec_netsim::{LinkParams, NodeId, SimDuration, SimRng, TopologyBuilder};
use sharqfec_scoping::ZoneHierarchyBuilder;

/// Parameters for [`random_tree`].
#[derive(Clone, Debug)]
pub struct RandomTreeParams {
    /// Number of receivers (the source is added on top).  Must be ≥ 1.
    pub receivers: usize,
    /// Maximum children per node (≥ 1); actual fan-out is random.
    pub max_fanout: usize,
    /// Latency range in milliseconds (inclusive low, exclusive high).
    pub latency_ms: (u64, u64),
    /// Per-link loss range.
    pub loss: (f64, f64),
    /// Minimum receivers in a subtree for it to get its own zone.
    pub zone_threshold: usize,
}

impl Default for RandomTreeParams {
    fn default() -> RandomTreeParams {
        RandomTreeParams {
            receivers: 24,
            max_fanout: 4,
            latency_ms: (5, 50),
            loss: (0.0, 0.15),
            zone_threshold: 4,
        }
    }
}

/// Builds a random tree topology; identical `(params, seed)` pairs yield
/// identical networks.
///
/// Zones: the root zone covers everyone; each direct subtree of the
/// source with at least `zone_threshold` receivers becomes a child zone
/// (its head is the designed ZCR).
pub fn random_tree(params: &RandomTreeParams, seed: u64) -> BuiltTopology {
    assert!(params.receivers >= 1, "need at least one receiver");
    assert!(params.max_fanout >= 1, "fan-out must be at least 1");
    assert!(
        params.latency_ms.0 < params.latency_ms.1,
        "latency range must be non-empty"
    );
    assert!(
        params.loss.0 <= params.loss.1 && params.loss.1 <= 1.0,
        "loss range invalid"
    );
    let mut rng = SimRng::new(seed ^ 0x52414E44_544F504F); // "RANDTOPO"

    let mut b = TopologyBuilder::new();
    let source = b.add_node("src");
    let mut receivers = Vec::with_capacity(params.receivers);
    // Attachment points: nodes that can still accept children.
    let mut open: Vec<(NodeId, usize)> = vec![(source, params.max_fanout)];
    // Track each receiver's top-level subtree (index into `subtrees`).
    let mut subtrees: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
    let mut subtree_of: Vec<usize> = Vec::new(); // parallel to receivers

    for i in 0..params.receivers {
        let slot = rng.index(open.len());
        let (parent, left) = open[slot];
        let lat = params.latency_ms.0 + rng.below(params.latency_ms.1 - params.latency_ms.0);
        let loss = rng.range_f64(params.loss.0, params.loss.1);
        let node = b.add_node(format!("r{i}"));
        b.add_link(
            parent,
            node,
            LinkParams::new(SimDuration::from_millis(lat), 10_000_000, loss),
        );
        receivers.push(node);

        // Bookkeep subtree membership.
        let subtree = if parent == source {
            subtrees.push((node, vec![node]));
            subtrees.len() - 1
        } else {
            let parent_ix = receivers.iter().position(|&r| r == parent).expect("known");
            let s = subtree_of[parent_ix];
            subtrees[s].1.push(node);
            s
        };
        subtree_of.push(subtree);

        // Update attachment points.
        if left == 1 {
            open.swap_remove(slot);
        } else {
            open[slot].1 = left - 1;
        }
        open.push((node, params.max_fanout));
    }

    let topology = b.build();
    let n = topology.node_count();
    let mut zb = ZoneHierarchyBuilder::new(n);
    let all: Vec<NodeId> = std::iter::once(source)
        .chain(receivers.iter().copied())
        .collect();
    let root = zb.root(&all);
    let mut designed_zcrs = vec![source];
    for (head, members) in &subtrees {
        if members.len() >= params.zone_threshold {
            let z = zb.child(root, members).expect("subtree is contiguous");
            debug_assert_eq!(z.idx(), designed_zcrs.len());
            designed_zcrs.push(*head);
        }
    }
    let hierarchy = zb.build().expect("valid by construction");

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
    use sharqfec_netsim::channel::Channel;
    use sharqfec_netsim::routing::Spt;

    #[test]
    fn is_deterministic_per_seed() {
        let p = RandomTreeParams::default();
        let a = random_tree(&p, 7);
        let b = random_tree(&p, 7);
        assert_eq!(a.topology.node_count(), b.topology.node_count());
        assert_eq!(a.hierarchy.zone_count(), b.hierarchy.zone_count());
        for n in a.topology.nodes() {
            let la = Spt::compute(&a.topology, a.source).delay_to(n);
            let lb = Spt::compute(&b.topology, b.source).delay_to(n);
            assert_eq!(la, lb);
        }
        let c = random_tree(&p, 8);
        // Different seeds should (overwhelmingly) give different shapes.
        let da: Vec<_> = a
            .topology
            .nodes()
            .map(|n| Spt::compute(&a.topology, a.source).delay_to(n))
            .collect();
        let dc: Vec<_> = c
            .topology
            .nodes()
            .map(|n| Spt::compute(&c.topology, c.source).delay_to(n))
            .collect();
        assert_ne!(da, dc);
    }

    #[test]
    fn counts_and_structure() {
        let p = RandomTreeParams {
            receivers: 30,
            ..RandomTreeParams::default()
        };
        let built = random_tree(&p, 3);
        assert_eq!(built.topology.node_count(), 31);
        assert_eq!(built.topology.link_count(), 30); // a tree
        assert_eq!(built.receivers.len(), 30);
    }

    #[test]
    fn zones_are_always_routable() {
        for seed in 0..20 {
            let built = random_tree(&RandomTreeParams::default(), seed);
            for zone in built.hierarchy.zones() {
                let zcr = built.zcr(zone.id);
                let spt = Spt::compute(&built.topology, zcr);
                let chan = Channel::new(built.topology.node_count(), &zone.members);
                assert!(
                    chan.is_spt_connected(&spt),
                    "seed {seed}: zone {} not contiguous",
                    zone.id
                );
            }
        }
    }

    #[test]
    fn fanout_is_respected() {
        let p = RandomTreeParams {
            receivers: 40,
            max_fanout: 2,
            ..RandomTreeParams::default()
        };
        let built = random_tree(&p, 11);
        for n in built.topology.nodes() {
            let degree = built.topology.neighbors(n).len();
            // children ≤ 2, plus possibly one parent link.
            assert!(degree <= 3, "node {n} has degree {degree}");
        }
    }

    #[test]
    fn loss_range_respected() {
        let p = RandomTreeParams {
            loss: (0.05, 0.10),
            ..RandomTreeParams::default()
        };
        let built = random_tree(&p, 5);
        for id in 0..built.topology.link_count() {
            let l = built
                .topology
                .link(sharqfec_netsim::graph::LinkId(id as u32));
            assert!((0.05..0.10).contains(&l.params.loss.mean_loss()));
        }
    }

    #[test]
    #[should_panic(expected = "at least one receiver")]
    fn zero_receivers_rejected() {
        random_tree(
            &RandomTreeParams {
                receivers: 0,
                ..RandomTreeParams::default()
            },
            1,
        );
    }
}
