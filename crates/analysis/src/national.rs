//! The §5.1 national-distribution arithmetic (Figure 8).
//!
//! The paper sizes session state and traffic for a 4-level hierarchy:
//! 10 regions × 20 cities × 100 suburbs × 500 subscribers — one sender,
//! 10,000,210 receivers (dedicated caches at region and city bifurcations;
//! suburb representatives elected among the subscribers).
//!
//! Per level, a member participates in its own zone's session plus the
//! chain of its ancestor ZCRs' parent zones, so:
//!
//! * **RTTs maintained / receiver** = own-zone peers + Σ participants of
//!   each larger observable zone (the paper's 10 / 30 / 130 / 630 column);
//! * **session traffic** ∝ Σ n_α² over those zones, against n² non-scoped;
//! * **state ratio** = RTTs maintained / total non-scoped state
//!   (the paper's `x / 1,000,021` column).
//!
//! Note: the paper's suburb-row traffic entry is typeset corruptly
//! ("35,5000"); the formula it states (Σ n_α²) gives
//! 500² + 100² + 20² + 10² = 260,500, which is what we report.

/// One level of the hierarchy.
#[derive(Clone, Debug, PartialEq)]
pub struct NationalLevel {
    /// Level name.
    pub name: &'static str,
    /// Zone fan-out at this level (participants in one zone's session).
    pub participants: u64,
    /// Number of zones at this level.
    pub zones: u64,
    /// Receivers whose *smallest* zone is at this level.
    pub receivers: u64,
    /// RTT entries each such receiver maintains.
    pub rtts_per_receiver: u64,
    /// Scoped session-traffic units (Σ n_α² over observable zones).
    pub scoped_traffic: u64,
}

/// The Figure 8 computation.
#[derive(Clone, Debug)]
pub struct NationalAnalysis {
    /// Per-level rows, largest scope first (national → suburb).
    pub levels: Vec<NationalLevel>,
    /// Total receivers (the paper's 10,000,210).
    pub total_receivers: u64,
}

impl NationalAnalysis {
    /// Computes the table for a hierarchy with the given per-level
    /// fan-outs: `fanouts[0]` regions per nation, `fanouts[1]` cities per
    /// region, `fanouts[2]` suburbs per city, `fanouts[3]` subscribers per
    /// suburb.
    pub fn compute(fanouts: [u64; 4]) -> NationalAnalysis {
        let [regions, cities, suburbs, subs] = fanouts;
        let names = ["National", "Regional", "City", "Suburb"];
        // Participants of one zone's session at each level = its fan-out
        // (the child ZCRs / subscribers announcing there).
        let participants = [regions, cities, suburbs, subs];
        let zones = [1, regions, regions * cities, regions * cities * suburbs];
        // Receivers whose smallest zone is this level: the dedicated
        // caches (region, city) or the subscribers; the national zone has
        // only the sender.
        let receivers = [
            0,
            regions,
            regions * cities,
            regions * cities * suburbs * subs,
        ];

        let mut levels = Vec::with_capacity(4);
        let mut rtts: u64 = 0;
        let mut traffic: u64 = 0;
        for i in 0..4 {
            // A member at level i observes its own zone plus every larger
            // zone through its ZCR chain.
            rtts += participants[i];
            traffic += participants[i] * participants[i];
            levels.push(NationalLevel {
                name: names[i],
                participants: participants[i],
                zones: zones[i],
                receivers: receivers[i],
                rtts_per_receiver: rtts,
                scoped_traffic: traffic,
            });
        }
        NationalAnalysis {
            total_receivers: receivers.iter().sum(),
            levels,
        }
    }

    /// The paper's exact scenario.
    pub fn paper() -> NationalAnalysis {
        NationalAnalysis::compute([10, 20, 100, 500])
    }

    /// Non-scoped per-receiver state (track everyone else).
    pub fn nonscoped_state(&self) -> u64 {
        self.total_receivers
    }

    /// Non-scoped session-traffic units (n² with n = all members).
    pub fn nonscoped_traffic(&self) -> u64 {
        let n = self.total_receivers + 1; // + the sender
        n * n
    }

    /// The paper's state-reduction ratio denominators: it prints
    /// `x / 1,000,021` where `x = rtts/10` — i.e. ratios over
    /// `total_receivers`, reduced by the common factor 10.
    pub fn state_ratio(&self, level: usize) -> (u64, u64) {
        let rtts = self.levels[level].rtts_per_receiver;
        let total = self.total_receivers;
        let g = gcd(rtts, total);
        (rtts / g, total / g)
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_totals() {
        let a = NationalAnalysis::paper();
        assert_eq!(a.total_receivers, 10_000_210);
        assert_eq!(a.nonscoped_state(), 10_000_210);
    }

    #[test]
    fn rtts_per_receiver_match_figure8() {
        let a = NationalAnalysis::paper();
        let rtts: Vec<u64> = a.levels.iter().map(|l| l.rtts_per_receiver).collect();
        assert_eq!(rtts, vec![10, 30, 130, 630]);
    }

    #[test]
    fn zone_counts_match_figure8() {
        let a = NationalAnalysis::paper();
        let zones: Vec<u64> = a.levels.iter().map(|l| l.zones).collect();
        assert_eq!(zones, vec![1, 10, 200, 20_000]);
        let recv: Vec<u64> = a.levels.iter().map(|l| l.receivers).collect();
        assert_eq!(recv, vec![0, 10, 200, 10_000_000]);
    }

    #[test]
    fn scoped_traffic_matches_figure8_formula() {
        let a = NationalAnalysis::paper();
        let traffic: Vec<u64> = a.levels.iter().map(|l| l.scoped_traffic).collect();
        // 10², +20², +100², +500² — the suburb row corrects the paper's
        // garbled "35,5000" cell (see module docs).
        assert_eq!(traffic, vec![100, 500, 10_500, 260_500]);
    }

    #[test]
    fn state_ratios_match_figure8() {
        let a = NationalAnalysis::paper();
        assert_eq!(a.state_ratio(0), (1, 1_000_021));
        assert_eq!(a.state_ratio(1), (3, 1_000_021));
        assert_eq!(a.state_ratio(2), (13, 1_000_021));
        assert_eq!(a.state_ratio(3), (63, 1_000_021));
    }

    #[test]
    fn reduction_is_orders_of_magnitude() {
        let a = NationalAnalysis::paper();
        // Worst case (suburb): 630 entries instead of 10M; traffic units
        // 260,500 instead of ~10M² — "several orders of magnitude".
        let worst = a.levels.last().unwrap();
        assert!(a.nonscoped_state() / worst.rtts_per_receiver > 10_000);
        assert!(a.nonscoped_traffic() / worst.scoped_traffic > 100_000_000);
    }

    #[test]
    fn generic_fanouts_compose() {
        let a = NationalAnalysis::compute([2, 3, 4, 5]);
        assert_eq!(a.total_receivers, 2 + 6 + 2 * 3 * 4 * 5);
        let rtts: Vec<u64> = a.levels.iter().map(|l| l.rtts_per_receiver).collect();
        assert_eq!(rtts, vec![2, 5, 9, 14]);
    }

    /// The simulated miniature: `scaled_tree` with 3 hub levels of fan-out 2
    /// is `compute([2, 2, 2, 4])`, each suburb hub one of its 4 members.
    fn small() -> (NationalAnalysis, sharqfec_topology::BuiltTopology) {
        let params = sharqfec_topology::ScaledTreeParams {
            receivers: 38,
            depth: 3,
            fanout: 2,
            zone_spread: 0.0,
            ..Default::default()
        };
        let built = sharqfec_topology::scaled_tree(&params, 23).built;
        (NationalAnalysis::compute([2, 2, 2, 4]), built)
    }

    #[test]
    fn small_scale_counts() {
        let (a, built) = small();
        assert_eq!((a.total_receivers, built.receivers.len()), (38, 38));
        assert_eq!(built.topology.node_count(), 39);
        let zones: u64 = a.levels.iter().map(|l| l.zones).sum();
        assert_eq!((zones, built.hierarchy.zone_count()), (15, 15));
    }

    #[test]
    fn subscriber_zone_chain_is_four_deep() {
        // Chain depths count the model's `receivers` column: 2 region hubs,
        // 4 city hubs and 32 suburb members, each under all 4 zones.
        let (a, built) = small();
        let mut per_level = [0u64; 4];
        for &r in &built.receivers {
            per_level[built.hierarchy.zone_chain(r).len() - 1] += 1;
        }
        assert!(a.levels.iter().map(|l| l.receivers).eq(per_level));
        assert_eq!(per_level, [0, 2, 4, 32]);
    }

    #[test]
    fn hub_is_designed_zcr_of_its_zone() {
        let (_, built) = small();
        let spt = sharqfec_netsim::routing::Spt::compute(&built.topology, built.source);
        for zone in built.hierarchy.zones().iter().skip(1) {
            // The hub is the member nearest the source; `members` is sorted,
            // so a tie goes to the lowest id.
            let hub = zone.members.iter().min_by_key(|&&m| spt.delay_to(m));
            assert_eq!(Some(&built.zcr(zone.id)), hub, "zone {}", zone.id);
        }
    }
}
