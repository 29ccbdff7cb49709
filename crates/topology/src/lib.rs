//! Evaluation topologies.
//!
//! Every simulation in the paper runs on a concrete network; this crate
//! builds them:
//!
//! * [`figure10()`] — the paper's §6 test network: a source feeding 7
//!   backbone ("mesh") receivers over 45 Mbit/s links, each of which heads
//!   a balanced tree of 3 children × 4 leaves on 10 Mbit/s, 20 ms links —
//!   112 receivers under a 3-level zone hierarchy.
//! * [`simple`] — chains, stars, and balanced trees used by the §6.1
//!   ZCR-election experiments and unit tests.
//! * [`random_tree()`] — seeded random attachment trees for fuzzing.
//! * [`scaled_tree()`] — the one hub-tree generator: a source over
//!   `depth` levels of `fanout` hubs, each hub the designed ZCR of the zone
//!   over its subtree, from a few dozen receivers to 10⁶.  At depth 3 it is
//!   the §5.1 "national distribution" shape in miniature (regions → cities
//!   → suburbs → subscribers); the paper's full 10,000,210-receiver
//!   version is evaluated analytically in `sharqfec-analysis`.
//!
//! Each builder returns a [`BuiltTopology`]: graph + source + zone
//! hierarchy + the by-design Zone Closest Receivers (paper §5: "a cache is
//! placed next to the zone's Border Gateway Router").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figure10;
pub mod random;
pub mod scaled;
pub mod simple;

pub use figure10::{figure10, Figure10Params};
pub use random::{random_tree, RandomTreeParams};
pub use scaled::{scaled_tree, ScaledTopology, ScaledTreeParams};
pub use simple::{balanced_tree, chain, star};

use sharqfec_netsim::{NodeId, ShardPlan, Topology};
use sharqfec_scoping::{ZoneHierarchy, ZoneId};

/// A topology bundled with everything a protocol run needs.
#[derive(Debug)]
pub struct BuiltTopology {
    /// The network graph.
    pub topology: Topology,
    /// The data source.
    pub source: NodeId,
    /// All receivers (every session member except the source).
    pub receivers: Vec<NodeId>,
    /// The administrative zone hierarchy.
    pub hierarchy: ZoneHierarchy,
    /// The by-design ZCR of each zone, indexed by [`ZoneId`].  For the root
    /// zone this is the source.  Protocol runs may start from these
    /// (static configuration) or elect their own (paper §5.2).
    pub designed_zcrs: Vec<NodeId>,
}

impl BuiltTopology {
    /// All session members: source plus receivers.
    pub fn members(&self) -> Vec<NodeId> {
        let mut all = vec![self.source];
        all.extend_from_slice(&self.receivers);
        all
    }

    /// The by-design ZCR of a zone.
    pub fn zcr(&self, zone: ZoneId) -> NodeId {
        self.designed_zcrs[zone.idx()]
    }

    /// A deterministic [`ShardPlan`] for the sharded engine: the
    /// source-rooted subtrees of this (tree) topology are packed into at
    /// most `shards` shards, so no zone straddles a shard boundary and
    /// every inter-shard edge is one of the source's uplinks.  Non-tree
    /// topologies fall back to a single shard (serial execution).
    pub fn shard_plan(&self, shards: usize) -> ShardPlan {
        ShardPlan::by_subtrees(&self.topology, self.source, shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharqfec_netsim::routing::Spt;
    use sharqfec_scoping::ZoneId;

    /// Shared invariant check: every zone's membership must be contiguous
    /// under the source-rooted routing tree, or scope pruning would
    /// disconnect it (see `sharqfec-netsim::channel`).
    fn assert_zones_spt_connected(built: &BuiltTopology) {
        use sharqfec_netsim::channel::Channel;
        for zone in built.hierarchy.zones() {
            // A zone channel is rooted wherever repairs originate; the
            // strictest requirement is connectivity under the zone's own
            // ZCR as source. Check both the global source (for the root
            // zone) and the designed ZCR.
            let root = built.zcr(zone.id);
            let spt = Spt::compute(&built.topology, root);
            let chan = Channel::new(built.topology.node_count(), &zone.members);
            assert!(
                chan.is_spt_connected(&spt),
                "zone {} not SPT-connected from its ZCR {root}",
                zone.id
            );
        }
    }

    #[test]
    fn figure10_zones_are_routable() {
        let built = figure10(&Figure10Params::default());
        assert_zones_spt_connected(&built);
    }

    #[test]
    fn national_zones_are_routable() {
        // The §5.1 national shape in miniature: 3 hub levels of fan-out 2.
        let params = ScaledTreeParams {
            receivers: 38,
            depth: 3,
            fanout: 2,
            zone_spread: 0.0,
            ..ScaledTreeParams::default()
        };
        assert_zones_spt_connected(&scaled_tree(&params, 23).built);
    }

    #[test]
    fn simple_builders_zones_are_routable() {
        assert_zones_spt_connected(&chain(6));
        assert_zones_spt_connected(&star(6));
        assert_zones_spt_connected(&balanced_tree(3, 3));
    }

    #[test]
    fn members_includes_source_first() {
        let built = chain(4);
        let m = built.members();
        assert_eq!(m[0], built.source);
        assert_eq!(m.len(), 4);
    }

    #[test]
    fn zcr_of_root_zone_is_source() {
        for built in [chain(5), star(6), balanced_tree(2, 3)] {
            assert_eq!(built.zcr(ZoneId::ROOT), built.source);
        }
    }
}
