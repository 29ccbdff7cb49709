//! The figure subcommands that are not sweeps: they compute (or run one
//! small simulation) and print, with no grid, summary file or gate.

use crate::RttExperiment;
use sharqfec_analysis::fig1::{ExampleTree, NonScopedFecModel};
use sharqfec_analysis::national::NationalAnalysis;
use sharqfec_analysis::stats::Summary;
use sharqfec_analysis::table::Table;
use sharqfec_netsim::{NodeId, RunSpec, SimTime, TrafficClass};
use sharqfec_session::core::ZcrSeeding;
use sharqfec_session::{setup_session_builder, SessionAgent, SessionConfig};
use sharqfec_topology::{balanced_tree, chain, star, BuiltTopology};
use std::collections::BTreeSet;

/// `fig01` — the paper's Figure 1 analysis (§3.1): compounded loss on
/// the example delivery tree, the probability that every receiver gets a
/// given packet, and the normalized traffic volume when non-scoped FEC is
/// sized for the worst receiver.
pub fn fig01() {
    let tree = ExampleTree::paper();
    let model = NonScopedFecModel::for_tree(&tree);

    println!("Figure 1 — example delivery tree, non-scoped FEC analysis");
    println!();
    println!(
        "P(all nodes receive a given packet) = {:.3}   (paper: 0.270)",
        tree.p_all_receive()
    );
    println!(
        "P(at least one receiver misses)     = {:.3}   (paper: \"better than 70%\")",
        1.0 - tree.p_all_receive()
    );
    let (worst_idx, worst_loss) = tree.worst();
    println!(
        "worst receiver ({}) total loss      = {:.4}  (paper: 0.0973)",
        tree.node(worst_idx).label,
        worst_loss
    );
    println!(
        "source redundancy ratio h/k         = {:.4}",
        model.redundancy_ratio()
    );
    println!();

    let mut t = Table::new(vec![
        "node",
        "link loss",
        "total loss",
        "normalized traffic",
    ]);
    for i in 1..tree.len() {
        let n = tree.node(i);
        t.row(vec![
            n.label.clone(),
            format!("{:.4}", n.link_loss),
            format!("{:.4}", tree.total_loss(i)),
            format!("{:.4}", model.normalized_traffic(tree.total_loss(i))),
        ]);
    }
    println!("{}", t.to_aligned());
    println!(
        "Reading: every node with less loss than {} carries > 1.0 units per useful",
        tree.node(worst_idx).label
    );
    println!("packet — the bandwidth waste scoped injection (Figure 2) eliminates.");
}

/// `fig08` — the paper's Figure 8 table (§5.1): receiver state and
/// session-traffic reduction through indirect RTT estimation on the
/// 10,000,210-receiver national distribution hierarchy.
pub fn fig08() {
    let a = NationalAnalysis::paper();

    println!("Figure 8 — national distribution hierarchy (10 regions x 20 cities");
    println!(
        "x 100 suburbs x 500 subscribers; 1 sender, {} receivers)",
        a.total_receivers
    );
    println!();

    let mut t = Table::new(vec!["", "National", "Regional", "City", "Suburb"]);
    let cols = |f: &dyn Fn(usize) -> String| -> Vec<String> { (0..4).map(f).collect() };
    let mut push = |label: &str, f: &dyn Fn(usize) -> String| {
        let mut row = vec![label.to_string()];
        row.extend(cols(f));
        t.row(row);
    };
    push("Receivers/zone", &|i| {
        // Dedicated caches at region/city; none at national; subscribers
        // at suburbs (paper row: 0 / 1 / 1 / 500).
        match i {
            0 => "0".into(),
            1 | 2 => "1".into(),
            _ => a.levels[3].participants.to_string(),
        }
    });
    push("Number of zones", &|i| a.levels[i].zones.to_string());
    push("Number of receivers", &|i| {
        a.levels[i].receivers.to_string()
    });
    push("RTTs maintained/receiver", &|i| {
        a.levels[i].rtts_per_receiver.to_string()
    });
    push("Scoped traffic units", &|i| {
        a.levels[i].scoped_traffic.to_string()
    });
    push("Traffic ratio (vs n^2)", &|i| {
        format!("{} / {}^2", a.levels[i].scoped_traffic, a.total_receivers)
    });
    push("State ratio", &|i| {
        let (num, den) = a.state_ratio(i);
        format!("{num} / {den}")
    });
    println!("{}", t.to_aligned());
    println!("Paper's corresponding rows: RTTs 10/30/130/630; state ratios");
    println!("1,3,13,63 over 1,000,021.  (The paper's suburb traffic cell is");
    println!("typeset corruptly as \"35,5000\"; the formula it states gives 260,500.)");
}

/// `fig11-13` — the paper's Figures 11–13 (§6.1): the ratio of estimated
/// to actual RTTs for probe messages ("fake NACKs") originating from
/// receivers 3, 25, and 36 on the Figure 10 network.
///
/// The probers multicast several probes at the largest scope; every other
/// receiver estimates the RTT to the prober through the indirect
/// ZCR-chain composition and we compare against the routing ground truth.
/// `elect` elects ZCRs dynamically instead of using the designed
/// (statically configured) ones.
pub fn fig11_13(elect: bool) {
    // The paper's probers (Figures 11, 12, 13 respectively).
    let probers = [NodeId(3), NodeId(25), NodeId(36)];
    let times: Vec<SimTime> = (0..5).map(|i| SimTime::from_secs(10 + 4 * i)).collect();
    let mut exp = RttExperiment::new(&probers, &times);
    if elect {
        exp = exp.elected();
    }
    let results = exp.run(42);

    println!(
        "Figures 11-13 — estimated/actual RTT ratios ({} ZCRs)",
        if elect { "elected" } else { "designed" }
    );
    println!();

    for res in &results {
        println!("Probe source: receiver {}", res.prober);
        let mut t = Table::new(vec![
            "probe#",
            "receivers",
            "with estimate",
            "within 5%",
            "within 10%",
            "ratio summary",
        ]);
        let max_seq = res.ratios.iter().map(|(_, s, _)| *s).max().unwrap_or(0);
        for seq in 0..=max_seq {
            let round: Vec<Option<f64>> = res
                .ratios
                .iter()
                .filter(|(_, s, _)| *s == seq)
                .map(|(_, _, r)| *r)
                .collect();
            let with: Vec<f64> = round.iter().flatten().copied().collect();
            let close5 = with.iter().filter(|r| (**r - 1.0).abs() < 0.05).count();
            let close10 = with.iter().filter(|r| (**r - 1.0).abs() < 0.10).count();
            let summary = if with.is_empty() {
                "-".to_string()
            } else {
                format!("{}", Summary::of(&with))
            };
            t.row(vec![
                seq.to_string(),
                round.len().to_string(),
                with.len().to_string(),
                close5.to_string(),
                close10.to_string(),
                summary,
            ]);
        }
        println!("{}", t.to_aligned());
        // The paper's headline: "more than 50% of receivers were able to
        // estimate the RTT to a NACK's sender to within a few percent".
        let last: Vec<f64> = res
            .ratios
            .iter()
            .filter(|(_, s, _)| *s == max_seq)
            .filter_map(|(_, _, r)| *r)
            .collect();
        let frac = last.iter().filter(|r| (**r - 1.0).abs() < 0.10).count() as f64
            / last.len().max(1) as f64;
        println!(
            "final round: {:.0}% of estimating receivers within 10% (paper: >50% within a few %)\n",
            frac * 100.0
        );
    }
}

fn run_case(name: &str, built: &BuiltTopology, t: &mut Table) {
    let mut engine = setup_session_builder(
        built,
        7,
        ZcrSeeding::Elect { root: built.source },
        SessionConfig::default(),
        SimTime::from_secs(1),
        &[],
    )
    .build();
    engine.advance(RunSpec::to(SimTime::from_secs(15)));

    // Count challenge/takeover control traffic.
    let controls = engine.recorder().total_sent(TrafficClass::Control);

    for zone in built.hierarchy.zones().iter().skip(1) {
        let expected = built.zcr(zone.id);
        let agents = zone
            .members
            .iter()
            .map(|&m| engine.agent::<SessionAgent>(m).expect("member"));
        let winners: BTreeSet<NodeId> = agents.filter_map(|a| a.core().zcr_of(zone.id)).collect();
        let [elected, correct] = elected_cells(&winners, expected);
        t.row(vec![
            name.to_string(),
            format!("{}", zone.id),
            format!("{expected}"),
            elected,
            correct,
            controls.to_string(),
        ]);
    }
}

/// The `zcr` table's "elected" and "correct" cells for the ZCRs a zone's
/// members name: the lowest id, with the number of distinct ones when the
/// members disagree.
fn elected_cells(winners: &BTreeSet<NodeId>, expected: NodeId) -> [String; 2] {
    let elected = match (winners.first(), winners.len()) {
        (None, _) => "-".to_string(),
        (Some(w), 1) => w.to_string(),
        (Some(w), n) => format!("{w} (of {n})"),
    };
    let correct = winners.len() == 1 && winners.first() == Some(&expected);
    [elected, correct.to_string()]
}

/// `zcr` — the paper's §6.1 election claim: "other networks that were
/// purely chain- or tree-based were also simulated, and, as expected, the
/// appropriate receivers were elected as the ZCR for each zone with each
/// election at each zone taking either one or two challenges."
///
/// Runs dynamic ZCR election (no designed caches) on chains, forks, and
/// balanced trees, reporting the winner per zone, whether it is the true
/// closest receiver, and how many challenge rounds were transmitted.
pub fn zcr() {
    println!("§6.1 — dynamic ZCR election convergence (Elect seeding, no caches)");
    println!();
    let mut t = Table::new(vec![
        "topology",
        "zone",
        "closest (truth)",
        "elected",
        "correct",
        "control msgs (run total)",
    ]);
    run_case("chain(6)", &chain(6), &mut t);
    run_case("fork/star(6)", &star(6), &mut t);
    run_case("tree(3,2)", &balanced_tree(3, 2), &mut t);
    run_case("tree(2,3)", &balanced_tree(2, 3), &mut t);
    println!("{}", t.to_aligned());
    println!("Expectation (paper): every zone elects its true closest receiver");
    println!("within one or two challenge rounds.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_disagreeing_zone_renders_the_same_row_every_time() {
        let cells = |ids: [u32; 3]| elected_cells(&ids.map(NodeId).into(), NodeId(2));
        assert_eq!(cells([9, 2, 5]), cells([5, 9, 2]));
        assert_eq!(cells([9, 2, 5]), ["2 (of 3)", "false"].map(String::from));
        assert_eq!(cells([2, 2, 2]), ["2", "true"].map(String::from));
    }
}
