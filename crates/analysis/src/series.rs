//! Time-series binning of recorder events: [`bin_deliveries`] scans the
//! raw event vector a `Raw`-mode recorder keeps and cuts it into the
//! paper's 0.1 s intervals of a [`BinSpec`] — the one binner every figure,
//! `Scenario::run_traffic` and the benchmark use.

use sharqfec_netsim::metrics::{Record, TrafficClass};
use sharqfec_netsim::{NodeId, SimTime};

/// The paper's bin width in seconds (§6.2 plots 0.1 s bins).
const WIDTH_SECS: f64 = 0.1;
/// The bin width in whole nanoseconds, the unit [`SimTime`] counts in:
/// dividing in `f64` puts an event exactly `k` widths after `start` into
/// bin `k − 1` for a third of all `k` (`0.3 / 0.1 < 3`), and the CBR
/// source sends on exact multiples of 10 ms.
const WIDTH_NS: u64 = 100_000_000;

/// A binning specification: window `[start, end)` cut into the paper's
/// 0.1 s bins.
#[derive(Clone, Debug)]
pub struct BinSpec {
    /// Window start.
    pub start: SimTime,
    /// Window end (exclusive).
    pub end: SimTime,
}

impl BinSpec {
    /// The paper's measurement window over `[start, end)`.
    pub fn paper(start: SimTime, end: SimTime) -> BinSpec {
        BinSpec { start, end }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        let span = self.end.saturating_since(self.start).as_nanos();
        span.div_ceil(WIDTH_NS) as usize
    }

    /// Bin index for an instant, or `None` if outside the window.
    pub fn index(&self, t: SimTime) -> Option<usize> {
        if t < self.start || t >= self.end {
            return None;
        }
        let offset = t.saturating_since(self.start).as_nanos();
        Some((offset / WIDTH_NS) as usize)
    }

    /// Midpoint time (seconds) of each bin, for plotting.
    pub fn midpoints(&self) -> Vec<f64> {
        let t0 = self.start.as_secs_f64();
        (0..self.bins())
            .map(|i| t0 + (i as f64 + 0.5) * WIDTH_SECS)
            .collect()
    }
}

/// Bins delivery records matching `classes` and `nodes`, yielding the
/// *average packet count per selected node* per bin — the paper's
/// Figures 14–21 y-axis.
pub fn bin_deliveries(
    records: &[Record],
    spec: &BinSpec,
    classes: &[TrafficClass],
    nodes: &[NodeId],
) -> Vec<f64> {
    let mut counts = vec![0u64; spec.bins()];
    // Selected nodes as a mask by id; an id past its end is unselected.
    let mut selected = vec![false; nodes.iter().map(|n| n.idx() + 1).max().unwrap_or(0)];
    nodes.iter().for_each(|n| selected[n.idx()] = true);
    for r in records {
        if !classes.contains(&r.class) || selected.get(r.node.idx()) != Some(&true) {
            continue;
        }
        if let Some(i) = spec.index(r.time) {
            counts[i] += 1;
        }
    }
    let n = nodes.len().max(1) as f64;
    counts.into_iter().map(|c| c as f64 / n).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharqfec_netsim::ChannelId;

    fn rec(t_ms: u64, node: u32, class: TrafficClass) -> Record {
        Record {
            time: SimTime::from_millis(t_ms),
            node: NodeId(node),
            src: NodeId(0),
            class,
            bytes: 1000,
            channel: ChannelId(0),
        }
    }

    #[test]
    fn spec_geometry() {
        let spec = BinSpec::paper(SimTime::from_secs(6), SimTime::from_secs(17));
        assert_eq!(spec.bins(), 110);
        assert_eq!(spec.index(SimTime::from_secs(6)), Some(0));
        assert_eq!(spec.index(SimTime::from_millis(6099)), Some(0));
        assert_eq!(spec.index(SimTime::from_millis(6100)), Some(1));
        assert_eq!(spec.index(SimTime::from_secs(17)), None);
        assert_eq!(spec.index(SimTime::from_secs(5)), None);
        let mids = spec.midpoints();
        assert_eq!(mids.len(), 110);
        assert!((mids[0] - 6.05).abs() < 1e-9);
    }

    #[test]
    fn deliveries_average_over_nodes() {
        let spec = BinSpec::paper(SimTime::ZERO, SimTime::from_secs(1));
        let records = vec![
            rec(10, 1, TrafficClass::Data),
            rec(20, 2, TrafficClass::Data),
            rec(30, 1, TrafficClass::Repair),
            rec(40, 3, TrafficClass::Data), // node 3: past every selected id
            rec(50, 1, TrafficClass::Nack), // class not selected
            rec(950, 2, TrafficClass::Data), // last bin
        ];
        let bins = bin_deliveries(
            &records,
            &spec,
            &[TrafficClass::Data, TrafficClass::Repair],
            &[NodeId(1), NodeId(2)],
        );
        assert_eq!(bins.len(), 10);
        assert!((bins[0] - 1.5).abs() < 1e-9); // 3 packets / 2 nodes
        assert!((bins[9] - 0.5).abs() < 1e-9);
        assert_eq!(bins[1], 0.0);
    }

    #[test]
    fn boundary_events_open_the_next_bin() {
        // 0.3 / 0.1, 0.6 / 0.1 and 0.7 / 0.1 all fall just short of the
        // integer in f64; the event belongs to the bin it opens.
        let spec = BinSpec::paper(SimTime::from_secs(6), SimTime::from_secs(17));
        for k in [3u64, 6, 7] {
            let t = SimTime::from_millis(6000 + 100 * k);
            assert_eq!(spec.index(t), Some(k as usize));
        }
        assert_eq!(spec.index(spec.end), None);
        let at = |ms| rec(ms, 1, TrafficClass::Data);
        let records = [at(6300), at(6600), at(6700), at(17_000)];
        let bins = bin_deliveries(&records, &spec, &[TrafficClass::Data], &[NodeId(1)]);
        let hit: Vec<usize> = (0..bins.len()).filter(|&i| bins[i] > 0.0).collect();
        assert_eq!(hit, [3, 6, 7]);
    }

    #[test]
    fn empty_selection_is_all_zeroes() {
        let spec = BinSpec::paper(SimTime::ZERO, SimTime::from_secs(1));
        let bins = bin_deliveries(&[], &spec, &[TrafficClass::Data], &[NodeId(1)]);
        assert!(bins.iter().all(|&b| b == 0.0));
        // No node selected: every record is skipped, node 0's too.
        let records = [rec(10, 0, TrafficClass::Data)];
        let bins = bin_deliveries(&records, &spec, &[TrafficClass::Data], &[]);
        assert!(bins.iter().all(|&b| b == 0.0));
    }
}
