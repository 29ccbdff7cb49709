//! The hierarchy of administratively scoped zones (paper §3.2, Figure 2/3).
//!
//! SHARQFEC's localization rests on nesting: a single data channel with
//! maximum scope, plus one repair channel per zone, where zones form a tree
//! — every zone's member set is a subset of its parent's, and sibling zones
//! are disjoint.  A receiver belongs to a *chain* of zones from its
//! smallest (most local) zone up to the root; NACK scope escalation walks
//! up that chain.
//!
//! This crate is purely structural: it validates and answers queries about
//! the nesting.  Dynamic state (ZCR election, loss counts) lives in the
//! protocol crates.
//!
//! # Example
//!
//! ```
//! use sharqfec_netsim::NodeId;
//! use sharqfec_scoping::ZoneHierarchyBuilder;
//!
//! let n = |i| NodeId(i);
//! let mut b = ZoneHierarchyBuilder::new(6);
//! let root = b.root(&[n(0), n(1), n(2), n(3), n(4), n(5)]);
//! let left = b.child(root, &[n(1), n(2)]).unwrap();
//! let _right = b.child(root, &[n(3), n(4), n(5)]).unwrap();
//! let h = b.build().unwrap();
//!
//! assert_eq!(h.smallest_zone(n(2)), left);
//! assert_eq!(h.zone(left).parent, Some(root));
//! // Node 0 only belongs to the root zone.
//! assert_eq!(h.zone_chain(n(0)), vec![root]);
//! // Node 2's chain runs smallest -> largest.
//! assert_eq!(h.zone_chain(n(2)), vec![left, root]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sharqfec_netsim::{ChannelId, NodeId};
use std::sync::Arc;

/// Identifier of a zone within one [`ZoneHierarchy`], dense from 0.
/// Zone 0 is always the root (largest scope).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ZoneId(pub u32);

impl ZoneId {
    /// The root (largest-scope) zone.
    pub const ROOT: ZoneId = ZoneId(0);

    /// The index as usize, for table lookups.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }

    /// The engine channel carrying this zone's traffic.  Every set-up
    /// registers one channel per zone in zone order, so zone `z`'s channel
    /// is `ChannelId(z)`; this is the one place that rule is written.
    #[inline]
    pub fn channel(self) -> ChannelId {
        ChannelId(self.0)
    }
}

impl core::fmt::Debug for ZoneId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Z{}", self.0)
    }
}

impl core::fmt::Display for ZoneId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Z{}", self.0)
    }
}

/// One administratively scoped zone.
#[derive(Clone, Debug)]
pub struct Zone {
    /// This zone's id.
    pub id: ZoneId,
    /// Enclosing zone (`None` for the root).
    pub parent: Option<ZoneId>,
    /// Child zones, in creation order.
    pub children: Vec<ZoneId>,
    /// Session members inside this zone, sorted by node id.
    pub members: Vec<NodeId>,
    /// Nesting depth: 0 for the root, parent's level + 1 otherwise.
    pub level: u32,
}

/// Errors detected while building a hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScopeError {
    /// `root` was never called, or called twice.
    RootMisuse(&'static str),
    /// A child zone referenced an unknown parent.
    UnknownParent(ZoneId),
    /// A child zone contained a node its parent does not.
    NotNested {
        /// The offending zone.
        zone: ZoneId,
        /// The node missing from the parent.
        node: NodeId,
    },
    /// Two sibling zones share a node.
    SiblingOverlap {
        /// First sibling.
        a: ZoneId,
        /// Second sibling.
        b: ZoneId,
        /// A node they share.
        node: NodeId,
    },
    /// A zone was declared with no members.
    EmptyZone(ZoneId),
    /// A member node id was out of range.
    NodeOutOfRange(NodeId),
}

impl core::fmt::Display for ScopeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ScopeError::RootMisuse(msg) => write!(f, "root zone misuse: {msg}"),
            ScopeError::UnknownParent(z) => write!(f, "unknown parent zone {z}"),
            ScopeError::NotNested { zone, node } => {
                write!(f, "zone {zone} contains node {node} absent from its parent")
            }
            ScopeError::SiblingOverlap { a, b, node } => {
                write!(f, "sibling zones {a} and {b} overlap at node {node}")
            }
            ScopeError::EmptyZone(z) => write!(f, "zone {z} has no members"),
            ScopeError::NodeOutOfRange(n) => write!(f, "node {n} out of range"),
        }
    }
}

impl std::error::Error for ScopeError {}

/// Builder for a [`ZoneHierarchy`].
pub struct ZoneHierarchyBuilder {
    node_count: usize,
    zones: Vec<Zone>,
    have_root: bool,
}

impl ZoneHierarchyBuilder {
    /// Starts building a hierarchy over `node_count` session nodes.
    pub fn new(node_count: usize) -> ZoneHierarchyBuilder {
        ZoneHierarchyBuilder {
            node_count,
            zones: Vec::new(),
            have_root: false,
        }
    }

    /// Declares the root (largest-scope) zone.  Must be called exactly once,
    /// before any children.
    pub fn root(&mut self, members: &[NodeId]) -> ZoneId {
        assert!(!self.have_root, "root zone already declared");
        assert!(self.zones.is_empty(), "root must be the first zone");
        self.have_root = true;
        let mut ms: Vec<NodeId> = members.to_vec();
        ms.sort();
        ms.dedup();
        self.zones.push(Zone {
            id: ZoneId::ROOT,
            parent: None,
            children: Vec::new(),
            members: ms,
            level: 0,
        });
        ZoneId::ROOT
    }

    /// Declares a zone nested inside `parent`.
    pub fn child(&mut self, parent: ZoneId, members: &[NodeId]) -> Result<ZoneId, ScopeError> {
        if parent.idx() >= self.zones.len() {
            return Err(ScopeError::UnknownParent(parent));
        }
        let id = ZoneId(self.zones.len() as u32);
        let level = self.zones[parent.idx()].level + 1;
        let mut ms: Vec<NodeId> = members.to_vec();
        ms.sort();
        ms.dedup();
        self.zones[parent.idx()].children.push(id);
        self.zones.push(Zone {
            id,
            parent: Some(parent),
            children: Vec::new(),
            members: ms,
            level,
        });
        Ok(id)
    }

    /// Validates nesting and produces the hierarchy.
    pub fn build(self) -> Result<ZoneHierarchy, ScopeError> {
        if !self.have_root {
            return Err(ScopeError::RootMisuse("no root zone declared"));
        }
        // Per-zone sanity.
        for z in &self.zones {
            if z.members.is_empty() {
                return Err(ScopeError::EmptyZone(z.id));
            }
            for &m in &z.members {
                if m.idx() >= self.node_count {
                    return Err(ScopeError::NodeOutOfRange(m));
                }
            }
        }
        // Nesting: every member of a child is a member of the parent.
        // Member vectors are sorted, so a two-pointer subset scan checks
        // each child in O(|parent| + |child|) — a per-child `HashSet` of
        // the parent rebuilt fanout times was the dominant build cost at
        // 10⁵–10⁶ members.
        for z in &self.zones {
            if let Some(p) = z.parent {
                let parent = &self.zones[p.idx()].members;
                let mut pi = 0;
                for &m in &z.members {
                    while pi < parent.len() && parent[pi] < m {
                        pi += 1;
                    }
                    if pi >= parent.len() || parent[pi] != m {
                        return Err(ScopeError::NotNested {
                            zone: z.id,
                            node: m,
                        });
                    }
                }
            }
        }
        // Sibling disjointness: tag every member of every child with its
        // zone, sort once per parent, and look for adjacent duplicates.
        // O(n log n) per level instead of pairwise set intersections; one
        // buffer serves every parent.
        let mut tagged: Vec<(NodeId, ZoneId)> = Vec::new();
        for z in &self.zones {
            if z.children.len() < 2 {
                continue;
            }
            tagged.clear();
            tagged.extend(
                (z.children.iter())
                    .flat_map(|&c| self.zones[c.idx()].members.iter().map(move |&m| (m, c))),
            );
            tagged.sort();
            for w in tagged.windows(2) {
                if w[0].0 == w[1].0 {
                    return Err(ScopeError::SiblingOverlap {
                        a: w[0].1,
                        b: w[1].1,
                        node: w[0].0,
                    });
                }
            }
        }

        // Smallest zone per node: the deepest zone containing it.  Depth
        // increases with index only within one chain, so scan all zones and
        // keep the deepest hit.
        let mut smallest: Vec<Option<ZoneId>> = vec![None; self.node_count];
        for z in &self.zones {
            for &m in &z.members {
                let cur = &mut smallest[m.idx()];
                let replace = match cur {
                    None => true,
                    Some(old) => self.zones[old.idx()].level < z.level,
                };
                if replace {
                    *cur = Some(z.id);
                }
            }
        }

        Ok(ZoneHierarchy {
            zones: self.zones.into(),
            smallest: smallest.into(),
        })
    }
}

/// A validated nesting of administratively scoped zones.  Immutable once
/// built, so a clone shares the zone list and the smallest-zone table
/// (two pointer copies, however large the tree).
#[derive(Clone, Debug)]
pub struct ZoneHierarchy {
    zones: Arc<[Zone]>,
    /// Deepest zone containing each node (None if the node is outside the
    /// session entirely).
    smallest: Arc<[Option<ZoneId>]>,
}

impl ZoneHierarchy {
    /// Number of zones.
    pub fn zone_count(&self) -> usize {
        self.zones.len()
    }

    /// All zones, root first.
    pub fn zones(&self) -> &[Zone] {
        &self.zones
    }

    /// Zone lookup.
    pub fn zone(&self, id: ZoneId) -> &Zone {
        &self.zones[id.idx()]
    }

    /// The deepest (smallest-scope) zone containing `node`.
    ///
    /// # Panics
    ///
    /// Panics if the node belongs to no zone — every session member must be
    /// in at least the root zone.
    pub fn smallest_zone(&self, node: NodeId) -> ZoneId {
        self.smallest[node.idx()].unwrap_or_else(|| panic!("node {node} belongs to no zone"))
    }

    /// The chain of zones containing `node`, smallest first, ending at the
    /// root.  This is the NACK scope-escalation order.
    pub fn zone_chain(&self, node: NodeId) -> Vec<ZoneId> {
        let mut chain = Vec::new();
        let mut cur = Some(self.smallest_zone(node));
        while let Some(z) = cur {
            chain.push(z);
            cur = self.zones[z.idx()].parent;
        }
        chain
    }

    /// Whether `node` is a member of `zone`.
    pub fn is_member(&self, zone: ZoneId, node: NodeId) -> bool {
        self.zones[zone.idx()].members.binary_search(&node).is_ok()
    }

    /// The next-larger zone (parent), if any.
    pub fn parent(&self, zone: ZoneId) -> Option<ZoneId> {
        self.zones[zone.idx()].parent
    }

    /// Walks from `zone` up `steps` levels (clamped at the root).
    pub fn escalate(&self, zone: ZoneId, steps: u32) -> ZoneId {
        let mut cur = zone;
        for _ in 0..steps {
            match self.parent(cur) {
                Some(p) => cur = p,
                None => break,
            }
        }
        cur
    }

    /// Zones listed deepest-first (useful for bottom-up election phases the
    /// paper performs top-down: reverse it).
    pub fn zones_by_depth_desc(&self) -> Vec<ZoneId> {
        let mut ids: Vec<ZoneId> = self.zones.iter().map(|z| z.id).collect();
        ids.sort_by_key(|z| std::cmp::Reverse(self.zones[z.idx()].level));
        ids
    }

    /// Leaf zones (no children).
    pub fn leaves(&self) -> Vec<ZoneId> {
        self.zones
            .iter()
            .filter(|z| z.children.is_empty())
            .map(|z| z.id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// Paper Figure 3 shape: Z0 root over everything, Z1/Z2 intermediate,
    /// Z3..Z6 leaves.
    fn figure3() -> (ZoneHierarchy, [ZoneId; 7]) {
        let all: Vec<NodeId> = (0..14).map(n).collect();
        let mut b = ZoneHierarchyBuilder::new(14);
        let z0 = b.root(&all);
        let z1 = b
            .child(
                z0,
                &[n(2), n(4), n(5), n(8), n(9), n(10), n(11), n(12), n(13)],
            )
            .unwrap();
        let z2 = b.child(z0, &[n(3), n(6), n(7)]).unwrap();
        let z3 = b.child(z1, &[n(8), n(9), n(10)]).unwrap();
        let z4 = b.child(z1, &[n(5), n(11), n(12), n(13)]).unwrap();
        let z5 = b.child(z2, &[n(6)]).unwrap();
        let z6 = b.child(z2, &[n(7)]).unwrap();
        (b.build().unwrap(), [z0, z1, z2, z3, z4, z5, z6])
    }

    #[test]
    fn figure3_nesting_queries() {
        let (h, [z0, z1, _z2, _z3, z4, ..]) = figure3();
        assert_eq!(h.zone_count(), 7);
        assert_eq!(h.smallest_zone(n(11)), z4);
        assert_eq!(h.zone_chain(n(11)), vec![z4, z1, z0]);
        assert_eq!(h.smallest_zone(n(0)), z0);
        assert_eq!(h.zone_chain(n(0)), vec![z0]);
        assert_eq!(h.zone(z4).level, 2);
        assert_eq!(h.parent(z4), Some(z1));
        assert_eq!(h.parent(z0), None);
        // A clone shares the zone list and the smallest-zone table.
        let copy = h.clone();
        assert!(Arc::ptr_eq(&h.zones, &copy.zones) && Arc::ptr_eq(&h.smallest, &copy.smallest));
    }

    #[test]
    fn escalation_clamps_at_root() {
        let (h, [z0, z1, _, _, z4, ..]) = figure3();
        assert_eq!(h.escalate(z4, 0), z4);
        assert_eq!(h.escalate(z4, 1), z1);
        assert_eq!(h.escalate(z4, 2), z0);
        assert_eq!(h.escalate(z4, 99), z0);
    }

    #[test]
    fn membership_checks() {
        let (h, [z0, z1, z2, ..]) = figure3();
        assert!(h.is_member(z0, n(0)));
        assert!(h.is_member(z1, n(5)));
        assert!(!h.is_member(z2, n(5)));
    }

    #[test]
    fn leaves_and_depth_order() {
        let (h, [z0, _, _, z3, z4, z5, z6]) = figure3();
        assert_eq!(h.leaves(), vec![z3, z4, z5, z6]);
        let order = h.zones_by_depth_desc();
        assert_eq!(order.last(), Some(&z0));
        assert_eq!(h.zone(order[0]).level, 2);
    }

    #[test]
    fn non_nested_child_rejected() {
        let mut b = ZoneHierarchyBuilder::new(4);
        let z0 = b.root(&[n(0), n(1)]);
        b.child(z0, &[n(1), n(2)]).unwrap(); // n(2) not in root
        assert!(matches!(
            b.build().unwrap_err(),
            ScopeError::NotNested {
                node: NodeId(2),
                ..
            }
        ));
    }

    #[test]
    fn overlapping_siblings_rejected() {
        let mut b = ZoneHierarchyBuilder::new(4);
        let z0 = b.root(&[n(0), n(1), n(2)]);
        b.child(z0, &[n(0), n(1)]).unwrap();
        b.child(z0, &[n(1), n(2)]).unwrap();
        assert!(matches!(
            b.build().unwrap_err(),
            ScopeError::SiblingOverlap {
                node: NodeId(1),
                ..
            }
        ));
    }

    #[test]
    fn empty_zone_rejected() {
        let mut b = ZoneHierarchyBuilder::new(2);
        let z0 = b.root(&[n(0)]);
        b.child(z0, &[]).unwrap();
        assert!(matches!(b.build().unwrap_err(), ScopeError::EmptyZone(_)));
    }

    #[test]
    fn out_of_range_member_rejected() {
        let mut b = ZoneHierarchyBuilder::new(2);
        b.root(&[n(0), n(5)]);
        assert!(matches!(
            b.build().unwrap_err(),
            ScopeError::NodeOutOfRange(NodeId(5))
        ));
    }

    #[test]
    fn missing_root_rejected() {
        let b = ZoneHierarchyBuilder::new(2);
        assert!(matches!(b.build().unwrap_err(), ScopeError::RootMisuse(_)));
    }

    #[test]
    #[should_panic(expected = "already declared")]
    fn double_root_panics() {
        let mut b = ZoneHierarchyBuilder::new(2);
        b.root(&[n(0)]);
        b.root(&[n(0)]);
    }

    #[test]
    fn unknown_parent_rejected() {
        let mut b = ZoneHierarchyBuilder::new(2);
        b.root(&[n(0)]);
        assert_eq!(
            b.child(ZoneId(9), &[n(0)]).unwrap_err(),
            ScopeError::UnknownParent(ZoneId(9))
        );
    }

    #[test]
    fn members_are_sorted_and_deduped() {
        let mut b = ZoneHierarchyBuilder::new(4);
        b.root(&[n(3), n(1), n(3), n(0)]);
        let h = b.build().unwrap();
        assert_eq!(h.zone(ZoneId::ROOT).members, vec![n(0), n(1), n(3)]);
    }

    #[test]
    #[should_panic(expected = "belongs to no zone")]
    fn smallest_zone_panics_for_outsider() {
        let mut b = ZoneHierarchyBuilder::new(3);
        b.root(&[n(0), n(1)]);
        let h = b.build().unwrap();
        h.smallest_zone(n(2));
    }
}
