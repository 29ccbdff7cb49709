//! Property-based tests for the scaled hierarchical generator.

use proptest::prelude::*;
use sharqfec_netsim::NodeId;
use sharqfec_topology::{scaled_tree, ScaledTopology, ScaledTreeParams};

/// Strategy: modest shapes (the invariants are shape-independent; size
/// only slows the suite down).
fn params() -> impl Strategy<Value = (ScaledTreeParams, u64)> {
    (1u32..4, 2usize..5, 0usize..200, 0u64..1000, 0u32..80).prop_map(
        |(depth, fanout, extra, seed, spread_pct)| {
            let mut p = ScaledTreeParams {
                depth,
                fanout,
                zone_spread: spread_pct as f64 / 100.0,
                ..ScaledTreeParams::default()
            };
            p.receivers = p.hub_count() + extra;
            (p, seed)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every non-hub receiver lives in exactly one leaf zone; hubs above
    /// the leaf level live in none; leaf hubs in exactly their own.
    #[test]
    fn every_receiver_in_exactly_one_leaf_zone((p, seed) in params()) {
        let t = scaled_tree(&p, seed);
        let h = &t.built.hierarchy;
        let n = t.built.topology.node_count();
        let mut leaf_zones_containing = vec![0u32; n];
        for &z in &h.leaves() {
            for &m in &h.zone(z).members {
                leaf_zones_containing[m.idx()] += 1;
            }
        }
        let above_leaf: usize = (1..p.depth).map(|l| p.fanout.pow(l)).sum();
        let mut outside = 0usize;
        for node in (0..n as u32).map(NodeId) {
            let c = leaf_zones_containing[node.idx()];
            prop_assert!(c <= 1, "node {node} in {c} leaf zones");
            if c == 0 {
                outside += 1;
            } else {
                // Its smallest zone is that leaf zone.
                prop_assert!(h.zone(h.smallest_zone(node)).children.is_empty(),
                    "node {node} in a leaf zone but smallest zone is interior");
            }
        }
        // Outside any leaf zone: the source plus the hubs above leaf level.
        prop_assert_eq!(outside, 1 + above_leaf);
    }

    /// The zone tree is well-formed: validated nesting, one zone per hub
    /// plus the root, levels mirror hub depth, each zone's ZCR is its
    /// first (lowest-id) member, and membership counts telescope.
    #[test]
    fn zone_tree_is_well_formed((p, seed) in params()) {
        let t = scaled_tree(&p, seed);
        let b = &t.built;
        prop_assert_eq!(b.hierarchy.zone_count(), 1 + p.hub_count());
        prop_assert_eq!(b.receivers.len(), p.receivers);
        prop_assert_eq!(b.topology.link_count(), b.topology.node_count() - 1);
        for zone in b.hierarchy.zones() {
            prop_assert!(zone.level <= p.depth);
            prop_assert_eq!(b.zcr(zone.id), zone.members[0]);
            // Children partition the zone minus the hub itself... minus
            // members attached directly (leaf receivers have no child
            // zones).
            let child_total: usize = zone
                .children
                .iter()
                .map(|&c| b.hierarchy.zone(c).members.len())
                .sum();
            prop_assert!(child_total < zone.members.len());
        }
    }

    /// Generation is deterministic and independent of the thread it runs
    /// on: concurrent builds of the same (params, seed) agree bit-for-bit
    /// with a build on the main thread.
    #[test]
    fn deterministic_across_threads((p, seed) in params()) {
        fn fingerprint(t: &ScaledTopology) -> (usize, Vec<u64>, Vec<Vec<NodeId>>) {
            let lat = (0..t.built.topology.link_count())
                .map(|i| {
                    t.built
                        .topology
                        .link(sharqfec_netsim::graph::LinkId(i as u32))
                        .params
                        .latency
                        .0
                })
                .collect();
            let members = t
                .built
                .hierarchy
                .zones()
                .iter()
                .map(|z| z.members.clone())
                .collect();
            (t.built.topology.node_count(), lat, members)
        }
        let local = fingerprint(&scaled_tree(&p, seed));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let p = p.clone();
                std::thread::spawn(move || fingerprint(&scaled_tree(&p, seed)))
            })
            .collect();
        for h in handles {
            prop_assert_eq!(h.join().expect("builder thread"), local.clone());
        }
    }
}
