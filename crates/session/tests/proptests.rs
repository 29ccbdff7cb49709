//! Property-based tests for the session layer: on randomly shaped
//! (lossless) networks, the echo protocol converges to exact RTTs between
//! zone peers, and indirect estimates through the ZCR chain stay within a
//! small tolerance of ground truth.

use proptest::prelude::*;
use sharqfec_netsim::routing::DistanceOracle;
use sharqfec_netsim::{LinkParams, NodeId, RunSpec, SimDuration, SimTime, TopologyBuilder};
use sharqfec_scoping::ZoneHierarchyBuilder;
use sharqfec_session::core::ZcrSeeding;
use sharqfec_session::{setup_session_builder, ProbePlan, SessionAgent, SessionConfig};
use sharqfec_topology::BuiltTopology;

/// A random two-subtree topology: source feeding two gateway receivers,
/// each heading a random star of leaves with random latencies, and one
/// zone per subtree.
#[derive(Clone, Debug)]
struct Shape {
    left: Vec<u64>,  // leaf latencies (ms) under gateway L
    right: Vec<u64>, // leaf latencies under gateway R
    gw_lat: (u64, u64),
}

fn shape() -> impl Strategy<Value = Shape> {
    (
        proptest::collection::vec(5u64..60, 1..5),
        proptest::collection::vec(5u64..60, 1..5),
        (5u64..60, 5u64..60),
    )
        .prop_map(|(left, right, gw_lat)| Shape {
            left,
            right,
            gw_lat,
        })
}

fn build(s: &Shape) -> BuiltTopology {
    let mut b = TopologyBuilder::new();
    let src = b.add_node("src");
    let gl = b.add_node("gl");
    let gr = b.add_node("gr");
    b.add_link(
        src,
        gl,
        LinkParams::lossless_infinite(SimDuration::from_millis(s.gw_lat.0)),
    );
    b.add_link(
        src,
        gr,
        LinkParams::lossless_infinite(SimDuration::from_millis(s.gw_lat.1)),
    );
    let mut receivers = vec![gl, gr];
    let mut left_members = vec![gl];
    let mut right_members = vec![gr];
    for &lat in &s.left {
        let n = b.add_node("l");
        b.add_link(
            gl,
            n,
            LinkParams::lossless_infinite(SimDuration::from_millis(lat)),
        );
        receivers.push(n);
        left_members.push(n);
    }
    for &lat in &s.right {
        let n = b.add_node("r");
        b.add_link(
            gr,
            n,
            LinkParams::lossless_infinite(SimDuration::from_millis(lat)),
        );
        receivers.push(n);
        right_members.push(n);
    }
    let topology = b.build();
    let n = topology.node_count();
    let mut zb = ZoneHierarchyBuilder::new(n);
    let all: Vec<NodeId> = std::iter::once(src)
        .chain(receivers.iter().copied())
        .collect();
    let root = zb.root(&all);
    zb.child(root, &left_members).expect("left nests");
    zb.child(root, &right_members).expect("right nests");
    let hierarchy = zb.build().expect("valid");
    BuiltTopology {
        topology,
        source: src,
        receivers,
        hierarchy,
        designed_zcrs: vec![src, gl, gr],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After a few announcement rounds, direct RTT estimates between zone
    /// peers equal the true RTTs exactly (lossless network, exact clocks).
    #[test]
    fn echo_rtts_converge_exactly(s in shape(), seed in any::<u64>()) {
        let built = build(&s);
        let mut engine = setup_session_builder(
            &built,
            seed,
            ZcrSeeding::Designed(built.designed_zcrs.clone()),
            SessionConfig::default(),
            SimTime::from_secs(1),
            &[],
        )
        .build();
        engine.advance(RunSpec::to(SimTime::from_secs(10)));
        let oracle = DistanceOracle::compute(&built.topology);
        // Check within the left zone: every pair of members.
        let zone = built.hierarchy.zones().iter().find(|z| z.id.0 == 1).unwrap().clone();
        for &a in &zone.members {
            let agent = engine.agent::<SessionAgent>(a).expect("agent");
            for &b in &zone.members {
                if a == b { continue; }
                let est = agent.core().direct_rtt(b);
                prop_assert!(est.is_some(), "{a} has no estimate for zone peer {b}");
                let est = est.unwrap().as_secs_f64();
                let truth = oracle.rtt(a, b).as_secs_f64();
                prop_assert!((est - truth).abs() < 1e-6,
                    "{a}->{b}: est {est} vs truth {truth}");
            }
        }
    }

    /// Probes from a random receiver are estimated by every other receiver
    /// within 15% of ground truth through the indirect chain.
    #[test]
    fn indirect_estimates_track_ground_truth(s in shape(), seed in any::<u64>(), pick in any::<u8>()) {
        let built = build(&s);
        let prober = built.receivers[pick as usize % built.receivers.len()];
        let probes = vec![(prober, ProbePlan {
            times: vec![SimTime::from_secs(8), SimTime::from_secs(10)],
        })];
        let mut engine = setup_session_builder(
            &built,
            seed,
            ZcrSeeding::Designed(built.designed_zcrs.clone()),
            SessionConfig::default(),
            SimTime::from_secs(1),
            &probes,
        )
        .build();
        engine.advance(RunSpec::to(SimTime::from_secs(11)));
        for &r in &built.receivers {
            if r == prober { continue; }
            let agent = engine.agent::<SessionAgent>(r).expect("agent");
            let last = agent
                .observations
                .iter()
                .rfind(|o| o.src == prober);
            prop_assert!(last.is_some(), "{r} never observed the probe");
            let obs = last.unwrap();
            let ratio = obs.ratio();
            prop_assert!(ratio.is_some(), "{r} formed no estimate for {prober}");
            let ratio = ratio.unwrap();
            prop_assert!((ratio - 1.0).abs() < 0.15,
                "{r} estimated {prober} at ratio {ratio}");
        }
    }
}
