//! Multicast channels (groups) with administrative scope.
//!
//! A channel is a set of member nodes, kept only as sorted id ranges.
//! Packets sent on a channel are forwarded down the sender's shortest-path
//! tree but *pruned at non-member nodes*: a non-member never receives nor
//! forwards the packet.  This is exactly the behaviour of a border router
//! enforcing an administratively scoped boundary (RFC 2365-style), which
//! is the mechanism SHARQFEC's zone hierarchy is built from — provided
//! each zone's member set is contiguous under the routing trees, which the
//! topology builders assert.  Which zone a channel carries is the scoping
//! layer's rule (`ZoneId::channel` in `sharqfec-scoping`), not a field
//! here.

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
/// Membership is stored only as sorted, disjoint, merged id ranges — no
/// `Vec<bool>` over every node and no member list beside them: a
/// simulation registers one channel per zone, clones every channel into
/// each shard and edits it at every churn event, while zone members get
/// contiguous ids from the topology generators and collapse to a handful
/// of ranges.
#[derive(Clone, Debug)]
pub struct Channel {
    /// Sorted disjoint half-open member id ranges `[start, end)`, no two
    /// of them adjacent.
    ranges: Vec<(u32, u32)>,
}

impl Channel {
    /// Builds a channel over `node_count` possible nodes with the given
    /// members (order and duplicates are normalized away; a sorted list,
    /// as every zone's is, only ever appends or grows the last range).
    pub fn new(node_count: usize, members: &[NodeId]) -> Channel {
        let mut channel = Channel { ranges: Vec::new() };
        for &m in members {
            assert!(m.idx() < node_count, "member {m:?} out of range");
            channel.insert(m);
        }
        channel
    }

    /// Index of the first range starting after `node`: the range that
    /// could hold it is the one before.
    #[inline]
    fn after(&self, node: NodeId) -> usize {
        self.ranges.partition_point(|&(start, _)| start <= node.0)
    }

    /// Adds a member mid-run (dynamic membership — see
    /// `sharqfec_netsim::scenario`), growing, merging or adding one range.
    /// Idempotent: inserting an existing member is a no-op, so replicated
    /// membership events converge to the same set on every shard.
    pub fn insert(&mut self, node: NodeId) {
        let (i, n) = (self.after(node), node.0);
        let joins_prev = i > 0 && self.ranges[i - 1].1 >= n;
        let joins_next = self.ranges.get(i).is_some_and(|r| r.0 == n + 1);
        match (joins_prev, joins_next) {
            (true, _) if self.ranges[i - 1].1 > n => {} // already a member
            (true, true) => self.ranges[i - 1].1 = self.ranges.remove(i).1,
            (true, false) => self.ranges[i - 1].1 += 1,
            (false, true) => self.ranges[i].0 = n,
            (false, false) => self.ranges.insert(i, (n, n + 1)),
        }
    }

    /// Removes a member mid-run, shrinking, splitting or dropping its
    /// range.  Idempotent like [`Channel::insert`].
    pub fn remove(&mut self, node: NodeId) {
        let (i, n) = (self.after(node), node.0);
        if i == 0 || self.ranges[i - 1].1 <= n {
            return;
        }
        let (start, end) = self.ranges[i - 1];
        match (start == n, end == n + 1) {
            (true, true) => _ = self.ranges.remove(i - 1),
            (true, false) => self.ranges[i - 1].0 += 1,
            (false, true) => self.ranges[i - 1].1 -= 1,
            (false, false) => {
                self.ranges[i - 1].1 = n;
                self.ranges.insert(i, (n + 1, end));
            }
        }
    }

    /// Whether `node` belongs to the channel.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        match self.after(node) {
            0 => false,
            i => node.0 < self.ranges[i - 1].1,
        }
    }

    /// Every member, in id order.
    fn members(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.ranges
            .iter()
            .flat_map(|&(start, end)| (start..end).map(NodeId))
    }

    /// Checks that the members form a connected subtree of the given
    /// source-rooted SPT — the precondition for scope pruning to reach
    /// every member.  Used by topology builders in debug assertions.
    pub fn is_spt_connected(&self, spt: &Spt) -> bool {
        // Every member's SPT path from the source must consist of members.
        self.contains(spt.source)
            && self
                .members()
                .all(|m| spt.reachable(m) && spt.path_to(m).iter().all(|&v| self.contains(v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{LinkParams, TopologyBuilder};
    use crate::time::SimDuration;
    use std::collections::BTreeSet;

    #[test]
    fn membership_is_normalized() {
        let c = Channel::new(5, &[NodeId(3), NodeId(1), NodeId(3)]);
        assert_eq!(c.ranges, [(1, 2), (3, 4)]);
        assert_eq!(c.members().collect::<Vec<_>>(), [NodeId(1), NodeId(3)]);
        assert!(c.contains(NodeId(1)));
        assert!(!c.contains(NodeId(0)));
        // Sorted input with duplicates and adjacent ids merges the same way.
        let sorted = Channel::new(5, &[NodeId(1), NodeId(1), NodeId(2), NodeId(4)]);
        assert_eq!(sorted.ranges, [(1, 3), (4, 5)]);
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
        assert_eq!(c.ranges, [(10, 500)]);
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
        assert_eq!(c.ranges, [(10, 14)]);
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
        assert!(c.ranges.is_empty());
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
        assert!(mutated.members().eq(fresh.members()));
        assert_eq!(mutated.ranges, fresh.ranges);
    }

    proptest::proptest! {
        /// The ranges-only channel against a `BTreeSet` model: random
        /// starting rosters and `insert`/`remove` sequences over 64 nodes.
        /// `contains` agrees with the model after every step; the edited
        /// ranges end up sorted, disjoint, merged, and exactly those
        /// `Channel::new` builds from the model's set.
        #[test]
        fn edits_match_a_set_model(
            start in proptest::collection::vec(0u32..64, 0..48),
            ops in proptest::collection::vec((proptest::prelude::any::<bool>(), 0u32..64), 0..200),
        ) {
            let start: Vec<NodeId> = start.into_iter().map(NodeId).collect();
            let (mut c, mut model) = (Channel::new(64, &start), BTreeSet::from_iter(start));
            for (add, n) in ops.into_iter().map(|(add, id)| (add, NodeId(id))) {
                let _ = if add { model.insert(n) } else { model.remove(&n) };
                let edit = if add { Channel::insert } else { Channel::remove };
                edit(&mut c, n);
                assert!((0..64).map(NodeId).all(|m| c.contains(m) == model.contains(&m)));
            }
            let model: Vec<NodeId> = model.into_iter().collect();
            assert!(c.ranges.iter().all(|r| r.0 < r.1), "{:?}", c.ranges);
            assert!(c.ranges.windows(2).all(|w| w[0].1 < w[1].0), "{:?}", c.ranges);
            assert_eq!(&c.ranges, &Channel::new(64, &model).ranges);
            assert!(c.members().eq(model));
        }
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
