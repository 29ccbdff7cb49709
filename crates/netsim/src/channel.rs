//! Multicast channels (groups) with administrative scope.
//!
//! A channel is a set of member nodes.  Packets sent on a channel are
//! forwarded down the sender's shortest-path tree but *pruned at
//! non-member nodes*: a non-member never receives nor forwards the packet.
//! This is exactly the behaviour of a border router enforcing an
//! administratively scoped boundary (RFC 2365-style), which is the
//! mechanism SHARQFEC's zone hierarchy is built from — provided each
//! zone's member set is contiguous under the routing trees, which the
//! topology builders assert.

use crate::graph::NodeId;
use crate::routing::Spt;
use core::fmt;

/// Identifier of a channel, dense from 0.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChannelId(pub u32);

impl ChannelId {
    /// The index as usize, for table lookups.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

/// Membership set of one channel.
///
/// Membership is stored as sorted, disjoint id ranges rather than a
/// `Vec<bool>` over every node: a simulation registers one channel per
/// zone, so dense per-channel bitmaps cost `O(zones × nodes)` — gigabytes
/// at 10⁶ receivers — while zone members get contiguous ids from the
/// topology generators and collapse to a handful of ranges.
#[derive(Clone, Debug)]
pub struct Channel {
    /// Sorted disjoint half-open member id ranges `[start, end)`.
    ranges: Vec<(u32, u32)>,
    members: Vec<NodeId>,
}

impl Channel {
    /// Builds a channel over `node_count` possible nodes with the given
    /// members (order and duplicates are normalized away).
    pub fn new(node_count: usize, members: &[NodeId]) -> Channel {
        let mut members: Vec<NodeId> = members.to_vec();
        members.sort_unstable();
        members.dedup();
        if let Some(&last) = members.last() {
            assert!(last.idx() < node_count, "member {last:?} out of range");
        }
        let mut ranges: Vec<(u32, u32)> = Vec::new();
        for &m in &members {
            match ranges.last_mut() {
                Some((_, end)) if *end == m.0 => *end += 1,
                _ => ranges.push((m.0, m.0 + 1)),
            }
        }
        Channel { ranges, members }
    }

    /// Adds a member mid-run (dynamic membership — see
    /// `sharqfec_netsim::scenario`).  Idempotent: inserting an existing
    /// member is a no-op, so replicated membership events converge to the
    /// same set on every shard.
    pub fn insert(&mut self, node: NodeId) {
        let i = self.members.partition_point(|&m| m < node);
        if self.members.get(i) == Some(&node) {
            return;
        }
        self.members.insert(i, node);
        self.rebuild_ranges();
    }

    /// Removes a member mid-run.  Idempotent like [`Channel::insert`].
    pub fn remove(&mut self, node: NodeId) {
        let i = self.members.partition_point(|&m| m < node);
        if self.members.get(i) != Some(&node) {
            return;
        }
        self.members.remove(i);
        self.rebuild_ranges();
    }

    /// Recomputes the range encoding from the sorted member list.  O(m),
    /// only paid on membership *changes* — the hot `contains` path stays
    /// a binary search over the ranges.
    fn rebuild_ranges(&mut self) {
        self.ranges.clear();
        for &m in &self.members {
            match self.ranges.last_mut() {
                Some((_, end)) if *end == m.0 => *end += 1,
                _ => self.ranges.push((m.0, m.0 + 1)),
            }
        }
    }

    /// Whether `node` belongs to the channel.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        // Find the last range starting at or before the node.
        match self.ranges.partition_point(|&(start, _)| start <= node.0) {
            0 => false,
            i => node.0 < self.ranges[i - 1].1,
        }
    }

    /// Checks that the members form a connected subtree of the given
    /// source-rooted SPT — the precondition for scope pruning to reach
    /// every member.  Used by topology builders in debug assertions.
    pub fn is_spt_connected(&self, spt: &Spt) -> bool {
        // Every member's SPT path from the source must consist of members.
        self.contains(spt.source)
            && self
                .members
                .iter()
                .all(|&m| spt.reachable(m) && spt.path_to(m).iter().all(|&v| self.contains(v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{LinkParams, TopologyBuilder};
    use crate::time::SimDuration;

    #[test]
    fn membership_is_normalized() {
        let c = Channel::new(5, &[NodeId(3), NodeId(1), NodeId(3)]);
        assert_eq!(c.members, &[NodeId(1), NodeId(3)]);
        assert_eq!(c.members.len(), 2);
        assert!(!c.members.is_empty());
        assert!(c.contains(NodeId(1)));
        assert!(!c.contains(NodeId(0)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_member_rejected() {
        Channel::new(2, &[NodeId(2)]);
    }

    #[test]
    fn contiguous_members_collapse_to_one_range() {
        // The range encoding is what keeps per-channel memory O(ranges)
        // instead of O(node_count); contiguous zone ids must not fragment.
        let members: Vec<NodeId> = (10..500).map(NodeId).collect();
        let c = Channel::new(1000, &members);
        assert_eq!(c.members.len(), 490);
        assert!(!c.contains(NodeId(9)));
        assert!(c.contains(NodeId(10)));
        assert!(c.contains(NodeId(499)));
        assert!(!c.contains(NodeId(500)));
        assert!(!c.contains(NodeId(999)));
    }

    #[test]
    fn gapped_membership_answers_exactly() {
        let c = Channel::new(
            100,
            &[NodeId(0), NodeId(5), NodeId(6), NodeId(7), NodeId(99)],
        );
        for i in 0..100u32 {
            let expect = matches!(i, 0 | 5 | 6 | 7 | 99);
            assert_eq!(c.contains(NodeId(i)), expect, "node {i}");
        }
    }

    #[test]
    fn insert_and_remove_are_idempotent_and_keep_ranges_exact() {
        let mut c = Channel::new(100, &[NodeId(10), NodeId(11), NodeId(12)]);
        // Extend the contiguous run: still one range.
        c.insert(NodeId(13));
        c.insert(NodeId(13));
        assert_eq!(c.members, &[NodeId(10), NodeId(11), NodeId(12), NodeId(13)]);
        assert!(c.contains(NodeId(13)));
        // Punch a hole in the middle.
        c.remove(NodeId(11));
        c.remove(NodeId(11));
        assert!(!c.contains(NodeId(11)));
        assert!(c.contains(NodeId(10)) && c.contains(NodeId(12)));
        // A disjoint member far away.
        c.insert(NodeId(50));
        for i in 0..100u32 {
            let expect = matches!(i, 10 | 12 | 13 | 50);
            assert_eq!(c.contains(NodeId(i)), expect, "node {i}");
        }
        // Draining everything leaves an empty, still-queryable channel.
        for m in [10u32, 12, 13, 50] {
            c.remove(NodeId(m));
        }
        assert!(c.members.is_empty());
        assert!(!c.contains(NodeId(10)));
    }

    #[test]
    fn mutated_channel_matches_freshly_built_channel() {
        // insert/remove must land on exactly the encoding Channel::new
        // produces, so replicated membership events keep shards identical.
        let mut mutated = Channel::new(64, &(0..32).map(NodeId).collect::<Vec<_>>());
        mutated.remove(NodeId(7));
        mutated.insert(NodeId(40));
        let rebuilt: Vec<NodeId> = (0..32)
            .filter(|&i| i != 7)
            .chain(std::iter::once(40))
            .map(NodeId)
            .collect();
        let fresh = Channel::new(64, &rebuilt);
        assert_eq!(mutated.members, fresh.members);
        assert_eq!(mutated.ranges, fresh.ranges);
    }

    #[test]
    fn spt_connectivity_detects_gaps() {
        // chain 0-1-2-3
        let mut b = TopologyBuilder::new();
        let ids = b.add_nodes("n", 4);
        for w in ids.windows(2) {
            b.add_link(
                w[0],
                w[1],
                LinkParams::lossless_infinite(SimDuration::from_millis(1)),
            );
        }
        let t = b.build();
        let spt = Spt::compute(&t, ids[0]);

        let contiguous = Channel::new(4, &[ids[0], ids[1], ids[2]]);
        assert!(contiguous.is_spt_connected(&spt));

        // {0, 2} skips node 1: scope pruning could never deliver to 2.
        let gapped = Channel::new(4, &[ids[0], ids[2]]);
        assert!(!gapped.is_spt_connected(&spt));

        // Source outside the channel is also unreachable.
        let no_src = Channel::new(4, &[ids[1], ids[2]]);
        assert!(!no_src.is_spt_connected(&spt));
    }
}
