//! Hierarchical zone-tree generator for large-scale runs (10⁵–10⁶
//! receivers).
//!
//! [`random_tree`](crate::random_tree) shapes its network one random
//! attachment at a time, which is fine at hundreds of receivers but never
//! produces the deep, regular hub hierarchies the paper's scaling
//! argument lives on — and the paper-scale builders top out around 10³.
//! [`scaled_tree`] fills the gap: a source feeds `fanout` level-1 hubs,
//! each hub feeds `fanout` sub-hubs, and so on for `depth` hub levels;
//! every leaf hub heads a leaf zone of receivers whose sizes follow a
//! seeded jittered distribution that still sums to exactly
//! `receivers`.  Every hub heads a zone covering its subtree, so the zone
//! tree mirrors the physical tree, zone membership is a contiguous node-id
//! range (node ids are assigned in DFS preorder), and nothing O(n²) — or
//! even O(n) per node — is ever materialized:
//!
//! * nodes are added unlabelled (no per-node `String`), and a zone is
//!   named only by its [`ZoneId`];
//! * the engine side stays scale-safe too (tree routing oracle, lazy
//!   SPTs, range-encoded channels — see `sharqfec-netsim`).
//!
//! Identical `(params, seed)` pairs yield identical networks, independent
//! of thread count or build order.

use crate::BuiltTopology;
use sharqfec_netsim::prelude::{FaultEvent, FaultPlan};
use sharqfec_netsim::{LinkId, LinkParams, NodeId, SimDuration, SimRng, SimTime, TopologyBuilder};
use sharqfec_scoping::{ZoneHierarchyBuilder, ZoneId};

/// Parameters for [`scaled_tree`].
#[derive(Clone, Debug)]
pub struct ScaledTreeParams {
    /// Exact total receiver count (hubs are receivers too).  Must be at
    /// least the hub count `fanout + fanout² + … + fanout^depth`.
    pub receivers: usize,
    /// Hub levels between the source and the leaf receivers (≥ 1).
    pub depth: u32,
    /// Sub-hubs per hub (≥ 1); also the source's hub count.
    pub fanout: usize,
    /// Relative jitter of leaf-zone sizes in `[0, 1)`: 0 splits the
    /// receivers evenly, 0.5 draws zone weights in `[0.5, 1.5]`.  The
    /// total always stays exactly `receivers`.
    pub zone_spread: f64,
    /// Per-link loss range on hub links.
    pub hub_loss: (f64, f64),
    /// Per-link loss range on leaf links.
    pub leaf_loss: (f64, f64),
}

impl Default for ScaledTreeParams {
    fn default() -> ScaledTreeParams {
        ScaledTreeParams {
            receivers: 500,
            depth: 2,
            fanout: 4,
            zone_spread: 0.3,
            hub_loss: (0.0, 0.02),
            leaf_loss: (0.0, 0.05),
        }
    }
}

impl ScaledTreeParams {
    /// Picks a hierarchy shape for `receivers` total receivers: deeper
    /// and wider as the session grows, keeping leaf zones at a few
    /// hundred members so per-receiver state stays zone-bounded while the
    /// session spans orders of magnitude.
    pub fn for_receivers(receivers: usize) -> ScaledTreeParams {
        let (depth, fanout) = match receivers {
            0..=59 => (1, 2),
            60..=1_999 => (2, 4),
            2_000..=49_999 => (2, 10),
            50_000..=499_999 => (3, 10),
            _ => (3, 16),
        };
        ScaledTreeParams {
            receivers,
            depth,
            fanout,
            ..ScaledTreeParams::default()
        }
    }

    /// Number of hub nodes: `fanout + fanout² + … + fanout^depth`.
    pub fn hub_count(&self) -> usize {
        (1..=self.depth).map(|l| self.fanout.pow(l)).sum()
    }

    /// Number of leaf zones: `fanout^depth`.
    pub fn leaf_zone_count(&self) -> usize {
        self.fanout.pow(self.depth)
    }
}

/// A [`BuiltTopology`] produced by [`scaled_tree`], whose zones are
/// contiguous preorder node-id ranges.
#[derive(Debug)]
pub struct ScaledTopology {
    /// Graph, source, receivers, hierarchy, designed ZCRs.
    pub built: BuiltTopology,
}

impl ScaledTopology {
    /// The link bundle of a zone's region: every link internal to the
    /// zone's contiguous preorder member range plus the uplink that
    /// connects the zone's hub to its parent (the root zone has none).
    /// Taking the bundle down at once models a correlated regional
    /// outage — the paper-scale analogue of a metro backbone cut, not an
    /// independent per-link fault.
    ///
    /// Walks the members' adjacency lists, so the cost is proportional to
    /// the zone size, never the whole network.  In a tree a non-root
    /// zone's bundle has exactly as many links as the zone has members.
    pub fn zone_link_bundle(&self, zone: ZoneId) -> Vec<LinkId> {
        let members = &self.built.hierarchy.zone(zone).members;
        let (lo, hi) = (members[0], *members.last().unwrap());
        let mut links = Vec::with_capacity(members.len());
        for &m in members {
            for &(peer, link) in self.built.topology.neighbors(m) {
                // Internal links once (from the lower endpoint); the
                // hub's one lower neighbour is the uplink.
                if (peer > m && peer <= hi) || (m == lo && peer < lo) {
                    links.push(link);
                }
            }
        }
        links.sort_by_key(|l| l.0);
        links
    }

    /// Appends a correlated regional outage to `plan`: the whole
    /// [`zone_link_bundle`](Self::zone_link_bundle) goes down at `down`
    /// and comes back at `up`.
    ///
    /// # Panics
    ///
    /// Panics unless `down < up`.
    pub fn zone_outage(
        &self,
        plan: FaultPlan,
        zone: ZoneId,
        down: SimTime,
        up: SimTime,
    ) -> FaultPlan {
        assert!(down < up, "outage must end after it starts");
        let mut plan = plan;
        for l in self.zone_link_bundle(zone) {
            plan = plan
                .at(down, FaultEvent::LinkDown(l))
                .at(up, FaultEvent::LinkUp(l));
        }
        plan
    }
}

/// Hub-to-hub (and source-to-hub) latency range in ms, `[lo, hi)`,
/// drawn uniformly per link.
const HUB_LATENCY_MS: (u64, u64) = (10, 30);
/// Leaf-hub-to-receiver latency range in ms, `[lo, hi)`.
const LEAF_LATENCY_MS: (u64, u64) = (2, 20);
const _: () = assert!(
    HUB_LATENCY_MS.0 < HUB_LATENCY_MS.1 && LEAF_LATENCY_MS.0 < LEAF_LATENCY_MS.1,
    "latency ranges must be non-empty"
);

struct Gen<'a> {
    b: TopologyBuilder,
    zb: ZoneHierarchyBuilder,
    rng: SimRng,
    params: &'a ScaledTreeParams,
    /// Prefix sums of leaf-zone sizes, for O(1) subtree totals.
    leaf_prefix: Vec<u64>,
    designed_zcrs: Vec<NodeId>,
}

impl Gen<'_> {
    /// Nodes in the subtree of a hub at `level` owning leaf zones
    /// `[leaf_lo, leaf_hi)`: the hub chain below it plus the leaf
    /// members.
    fn subtree_nodes(&self, level: u32, leaf_lo: usize, leaf_hi: usize) -> u64 {
        let hubs: u64 = (0..=(self.params.depth - level))
            .map(|k| self.params.fanout.pow(k) as u64)
            .sum();
        hubs + self.leaf_prefix[leaf_hi] - self.leaf_prefix[leaf_lo]
    }

    fn hub_link(&mut self) -> LinkParams {
        let (lo, hi) = HUB_LATENCY_MS;
        let lat = lo + self.rng.below(hi - lo);
        let loss = self
            .rng
            .range_f64(self.params.hub_loss.0, self.params.hub_loss.1);
        LinkParams::new(SimDuration::from_millis(lat), 45_000_000, loss)
    }

    fn leaf_link(&mut self) -> LinkParams {
        let (lo, hi) = LEAF_LATENCY_MS;
        let lat = lo + self.rng.below(hi - lo);
        let loss = self
            .rng
            .range_f64(self.params.leaf_loss.0, self.params.leaf_loss.1);
        LinkParams::new(SimDuration::from_millis(lat), 10_000_000, loss)
    }

    /// Emits the hub described by `slot` (preorder) and its whole
    /// subtree.  Returns the next free node id.
    fn visit(&mut self, slot: Slot) -> u32 {
        let Slot {
            parent_node,
            parent_zone,
            level,
            id,
            leaf_lo,
            leaf_hi,
        } = slot;
        let hub = NodeId(id);
        let link = self.hub_link();
        self.b.add_link(parent_node, hub, link);

        // The subtree occupies the contiguous preorder range starting at
        // the hub itself.
        let total = self.subtree_nodes(level, leaf_lo, leaf_hi) as u32;
        let members: Vec<NodeId> = (id..id + total).map(NodeId).collect();
        let zone = self
            .zb
            .child(parent_zone, &members)
            .expect("contiguous subtree nests");
        debug_assert_eq!(zone.idx(), self.designed_zcrs.len());
        self.designed_zcrs.push(hub);

        if level == self.params.depth {
            // Leaf hub: attach this zone's receivers directly.
            let size = (self.leaf_prefix[leaf_hi] - self.leaf_prefix[leaf_lo]) as u32;
            for k in 0..size {
                let link = self.leaf_link();
                self.b.add_link(hub, NodeId(id + 1 + k), link);
            }
            id + 1 + size
        } else {
            let span = (leaf_hi - leaf_lo) / self.params.fanout;
            let mut next = id + 1;
            for c in 0..self.params.fanout {
                next = self.visit(Slot {
                    parent_node: hub,
                    parent_zone: zone,
                    level: level + 1,
                    id: next,
                    leaf_lo: leaf_lo + c * span,
                    leaf_hi: leaf_lo + (c + 1) * span,
                });
            }
            next
        }
    }
}

/// One hub's slot in the preorder walk: the parent it hangs off, its
/// level, its preorder node id, and the leaf-zone range `[leaf_lo,
/// leaf_hi)` its subtree owns.
struct Slot {
    parent_node: NodeId,
    parent_zone: ZoneId,
    level: u32,
    id: u32,
    leaf_lo: usize,
    leaf_hi: usize,
}

/// Builds a hierarchical scaled tree; identical `(params, seed)` pairs
/// yield identical networks.
///
/// Zones: the root zone covers everyone (ZCR = source); every hub heads a
/// zone over its subtree (ZCR = the hub), giving a zone tree of depth
/// `params.depth + 1`.
pub fn scaled_tree(params: &ScaledTreeParams, seed: u64) -> ScaledTopology {
    assert!(params.depth >= 1, "need at least one hub level");
    assert!(params.fanout >= 1, "fan-out must be at least 1");
    assert!(
        (0.0..1.0).contains(&params.zone_spread),
        "zone spread must be in [0, 1)"
    );
    assert!(
        params.hub_loss.0 <= params.hub_loss.1
            && params.leaf_loss.0 <= params.leaf_loss.1
            && params.hub_loss.1 <= 1.0
            && params.leaf_loss.1 <= 1.0,
        "loss ranges invalid"
    );
    let hub_count = params.hub_count();
    assert!(
        params.receivers >= hub_count,
        "receivers ({}) must cover the {hub_count} hubs",
        params.receivers
    );

    let mut rng = SimRng::new(seed ^ 0x5343414C_544F504F); // "SCALTOPO"

    // Apportion the non-hub receivers across leaf zones: jittered weights,
    // largest-remainder rounding, total exactly `rest`.
    let leaf_count = params.leaf_zone_count();
    let rest = (params.receivers - hub_count) as u64;
    let weights: Vec<f64> = (0..leaf_count)
        .map(|_| 1.0 + rng.range_f64(-params.zone_spread, params.zone_spread))
        .collect();
    let wsum: f64 = weights.iter().sum();
    let mut sizes = vec![0u64; leaf_count];
    let mut fracs: Vec<(usize, f64)> = Vec::with_capacity(leaf_count);
    let mut assigned = 0u64;
    for (i, w) in weights.iter().enumerate() {
        let quota = rest as f64 * w / wsum;
        sizes[i] = quota.floor() as u64;
        assigned += sizes[i];
        fracs.push((i, quota - quota.floor()));
    }
    // Ties broken by index, so apportionment is fully deterministic.
    fracs.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    for &(i, _) in fracs.iter().take((rest - assigned) as usize) {
        sizes[i] += 1;
    }
    let mut leaf_prefix = vec![0u64; leaf_count + 1];
    for (i, &s) in sizes.iter().enumerate() {
        leaf_prefix[i + 1] = leaf_prefix[i] + s;
    }
    debug_assert_eq!(leaf_prefix[leaf_count], rest);

    let total_nodes = 1 + params.receivers;
    let mut b = TopologyBuilder::new();
    let source = b.add_node("src");
    b.add_unlabeled_nodes(params.receivers);

    let mut zb = ZoneHierarchyBuilder::new(total_nodes);
    let all: Vec<NodeId> = (0..total_nodes as u32).map(NodeId).collect();
    let root = zb.root(&all);

    let mut gen = Gen {
        b,
        zb,
        rng,
        params,
        leaf_prefix,
        designed_zcrs: vec![source],
    };
    let leaves_per_top = leaf_count / params.fanout;
    let mut next = 1u32;
    for c in 0..params.fanout {
        next = gen.visit(Slot {
            parent_node: source,
            parent_zone: root,
            level: 1,
            id: next,
            leaf_lo: c * leaves_per_top,
            leaf_hi: (c + 1) * leaves_per_top,
        });
    }
    assert_eq!(next as usize, total_nodes, "preorder covered every node");

    let topology = gen.b.build();
    let hierarchy = gen.zb.build().expect("valid by construction");
    let receivers: Vec<NodeId> = (1..total_nodes as u32).map(NodeId).collect();

    ScaledTopology {
        built: BuiltTopology {
            topology,
            source,
            receivers,
            hierarchy,
            designed_zcrs: gen.designed_zcrs,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharqfec_netsim::channel::Channel;
    use sharqfec_netsim::routing::Spt;

    #[test]
    fn default_shape_counts() {
        let t = scaled_tree(&ScaledTreeParams::default(), 1);
        let b = &t.built;
        assert_eq!(b.topology.node_count(), 501);
        assert_eq!(b.topology.link_count(), 500, "a tree");
        assert_eq!(b.receivers.len(), 500);
        // Root + 4 level-1 + 16 level-2 hub zones.
        assert_eq!(b.hierarchy.zone_count(), 21);
        assert_eq!(b.zcr(ZoneId::ROOT), b.source);
    }

    #[test]
    fn receiver_total_is_exact_under_jitter() {
        for seed in 0..5 {
            let p = ScaledTreeParams {
                receivers: 997, // prime: exercises remainder apportionment
                zone_spread: 0.6,
                ..ScaledTreeParams::default()
            };
            let t = scaled_tree(&p, seed);
            assert_eq!(t.built.receivers.len(), 997, "seed {seed}");
            let leaf_members: usize = t
                .built
                .hierarchy
                .leaves()
                .iter()
                .map(|&z| t.built.hierarchy.zone(z).members.len())
                .sum();
            // Leaf zones cover everything except the source and the hubs
            // above leaf level (leaf hubs are members of their own zone).
            let above_leaf: usize = (1..p.depth).map(|l| p.fanout.pow(l)).sum();
            assert_eq!(leaf_members, 997 - above_leaf, "seed {seed}");
        }
    }

    #[test]
    fn is_deterministic_per_seed() {
        let p = ScaledTreeParams::default();
        let a = scaled_tree(&p, 7);
        let b = scaled_tree(&p, 7);
        assert_eq!(a.built.topology.node_count(), b.built.topology.node_count());
        for i in 0..a.built.topology.link_count() {
            let id = sharqfec_netsim::graph::LinkId(i as u32);
            let (la, lb) = (a.built.topology.link(id), b.built.topology.link(id));
            assert_eq!(la.params.latency, lb.params.latency);
            assert_eq!(la.params.loss.mean_loss(), lb.params.loss.mean_loss());
        }
        let c = scaled_tree(&p, 8);
        let lat = |t: &ScaledTopology| -> Vec<SimDuration> {
            (0..t.built.topology.link_count())
                .map(|i| {
                    t.built
                        .topology
                        .link(sharqfec_netsim::graph::LinkId(i as u32))
                        .params
                        .latency
                })
                .collect()
        };
        assert_ne!(lat(&a), lat(&c), "different seeds differ");
    }

    #[test]
    fn zones_are_contiguous_ranges_and_routable() {
        let t = scaled_tree(&ScaledTreeParams::default(), 3);
        let b = &t.built;
        for zone in b.hierarchy.zones() {
            // Contiguous preorder range: dense ids.
            let m = &zone.members;
            assert_eq!(
                m.last().unwrap().0 - m.first().unwrap().0 + 1,
                m.len() as u32,
                "zone {} members not contiguous",
                zone.id
            );
            // First member is the hub = designed ZCR.
            assert_eq!(b.zcr(zone.id), m[0]);
            let zcr = b.zcr(zone.id);
            let spt = Spt::compute(&b.topology, zcr);
            let chan = Channel::new(b.topology.node_count(), m);
            assert!(
                chan.is_spt_connected(&spt),
                "zone {} not contiguous",
                zone.id
            );
        }
    }

    #[test]
    fn zone_ids_follow_hub_preorder() {
        let t = scaled_tree(&ScaledTreeParams::default(), 2);
        let h = &t.built.hierarchy;
        // Level-1 zones are created in fan-out order right after the root;
        // zone 2 is the first child of hub 0 (preorder).
        assert_eq!(h.parent(ZoneId(1)), Some(ZoneId::ROOT));
        assert_eq!(h.parent(ZoneId(2)), Some(ZoneId(1)));
        // Each zone's hub comes after the previous zone's in preorder.
        let hubs: Vec<NodeId> = h.zones().iter().map(|z| z.members[0]).collect();
        assert!(hubs.windows(2).all(|w| w[0] < w[1]), "{hubs:?}");
    }

    #[test]
    fn zone_link_bundles_cover_each_region_exactly() {
        let t = scaled_tree(&ScaledTreeParams::default(), 4);
        let b = &t.built;
        for zone in b.hierarchy.zones() {
            let bundle = t.zone_link_bundle(zone.id);
            // In a tree: size-1 internal links, plus an uplink for every
            // zone but the root.
            let expect = if zone.id == ZoneId::ROOT {
                zone.members.len() - 1
            } else {
                zone.members.len()
            };
            assert_eq!(bundle.len(), expect, "zone {}", zone.id);
            // No duplicates, and every link touches the region.
            let mut seen = bundle.clone();
            seen.dedup();
            assert_eq!(seen.len(), bundle.len(), "zone {} duplicates", zone.id);
            let (lo, hi) = (zone.members[0], *zone.members.last().unwrap());
            for l in bundle {
                let spec = b.topology.link(l);
                let touches = |n: NodeId| n >= lo && n <= hi;
                assert!(
                    touches(spec.a) || touches(spec.b),
                    "zone {} pulled in a foreign link",
                    zone.id
                );
            }
        }
    }

    #[test]
    fn zone_outage_schedules_symmetric_down_up_pairs() {
        let t = scaled_tree(&ScaledTreeParams::default(), 4);
        let zone = t.built.hierarchy.leaves()[0];
        let down = SimTime::from_secs(10);
        let up = SimTime::from_secs(20);
        let plan = t.zone_outage(FaultPlan::new(), zone, down, up);
        let bundle = t.zone_link_bundle(zone);
        let mut downs = 0usize;
        let mut ups = 0usize;
        for (when, ev) in plan.events() {
            match ev {
                FaultEvent::LinkDown(l) => {
                    assert_eq!(*when, down);
                    assert!(bundle.contains(l));
                    downs += 1;
                }
                FaultEvent::LinkUp(l) => {
                    assert_eq!(*when, up);
                    assert!(bundle.contains(l));
                    ups += 1;
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert_eq!(downs, bundle.len());
        assert_eq!(ups, bundle.len());
    }

    #[test]
    fn for_receivers_scales_the_shape() {
        for n in [100usize, 1_000, 10_000] {
            let p = ScaledTreeParams::for_receivers(n);
            assert!(p.receivers >= p.hub_count(), "n={n}");
            let t = scaled_tree(&p, 42);
            assert_eq!(t.built.receivers.len(), n);
        }
        assert!(
            ScaledTreeParams::for_receivers(1_000_000).leaf_zone_count() >= 4096,
            "a million receivers must spread over thousands of leaf zones"
        );
    }

    #[test]
    #[should_panic(expected = "must cover")]
    fn too_few_receivers_rejected() {
        scaled_tree(
            &ScaledTreeParams {
                receivers: 3,
                ..ScaledTreeParams::default()
            },
            1,
        );
    }

    #[test]
    fn nodes_are_unlabelled_except_source() {
        let t = scaled_tree(&ScaledTreeParams::default(), 9);
        assert_eq!(t.built.topology.label(t.built.source), "src");
        assert_eq!(t.built.topology.label(NodeId(1)), "");
    }
}
