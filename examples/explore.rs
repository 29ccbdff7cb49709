//! An interactive-ish exploration tool: run any protocol variant on any
//! built-in topology and inspect the result — summary, per-class traffic,
//! the NACK and ZLC probes after the first loss (the probe stream standing
//! in for the paper's *nam* animator) and the invariant auditor's verdict.
//!
//! Run: `cargo run --release --example explore -- [variant] [topology] [packets] [seed]`
//!
//!   variant  : full | ni | ns | ns_ni | ecsrm          (default full)
//!   topology : figure10 | scaled | chain | random      (default figure10)
//!   packets  : data packets                            (default 64)
//!   seed     : RNG seed                                (default 42)

use sharqfec_repro::netsim::{AuditConfig, RunSpec, SimDuration, SimTime, TrafficClass};
use sharqfec_repro::protocol::{setup_sharqfec_builder, SfAgent, SharqfecConfig, Variant};
use sharqfec_repro::topology::{
    chain, figure10, random_tree, scaled_tree, BuiltTopology, Figure10Params, RandomTreeParams,
    ScaledTreeParams,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let variant = args.get(1).map(String::as_str).unwrap_or("full");
    let topology = args.get(2).map(String::as_str).unwrap_or("figure10");
    let packets: u32 = args
        .get(3)
        .map(|s| s.parse().expect("packets"))
        .unwrap_or(64);
    let seed: u64 = args.get(4).map(|s| s.parse().expect("seed")).unwrap_or(42);

    let cfg = SharqfecConfig {
        total_packets: packets,
        ..SharqfecConfig::variant(match variant {
            "full" => Variant::Full,
            "ni" => Variant::NoInjection,
            "ns" => Variant::NoScoping,
            "ns_ni" => Variant::NoScopingNoInjection,
            "ecsrm" => Variant::Ecsrm,
            other => panic!("unknown variant {other} (full|ni|ns|ns_ni|ecsrm)"),
        })
    };
    let built: BuiltTopology = match topology {
        "figure10" => figure10(&Figure10Params::default()),
        "scaled" => scaled_tree(&ScaledTreeParams::default(), seed).built,
        "chain" => chain(8),
        "random" => random_tree(&RandomTreeParams::default(), seed),
        other => panic!("unknown topology {other} (figure10|scaled|chain|random)"),
    };

    println!(
        "exploring {variant} on {topology}: {} receivers, {} zones, {packets} packets, seed {seed}",
        built.receivers.len(),
        built.hierarchy.zone_count()
    );

    let mut b = setup_sharqfec_builder(&built, seed, cfg, SimTime::from_secs(1));
    // The auditor keeps every probe record; attaching it never perturbs
    // the run, so the summary below is the unaudited run's.
    b.audit(AuditConfig::default());
    let mut engine = b.build();
    engine.advance(RunSpec::to(SimTime::from_secs(
        6 + packets as u64 / 100 + 60,
    )));

    // Summary.
    let missing: u32 = built
        .receivers
        .iter()
        .map(|&r| engine.agent::<SfAgent>(r).expect("receiver").missing())
        .sum();
    let rec = engine.recorder();
    println!("\nper-class transmissions / deliveries / drops:");
    for class in [
        TrafficClass::Data,
        TrafficClass::Repair,
        TrafficClass::Nack,
        TrafficClass::Session,
        TrafficClass::Control,
    ] {
        let tx = rec.total_sent(class);
        let rx = rec.total_delivered(class);
        let dr = rec.total_dropped(class);
        println!("  {:<8} {:>7} / {:>8} / {:>6}", class.label(), tx, rx, dr);
    }
    println!("packets missing at horizon: {missing}");

    // NACK and ZLC decisions around the first data loss: who asked, and
    // what each zone learned of its loss.
    if let Some(first_drop) = rec.drops.iter().find(|d| d.class == TrafficClass::Data) {
        let from = first_drop.time;
        let to = from + SimDuration::from_millis(1500);
        println!(
            "\nNACK/ZLC probes for the 1.5 s after the first data loss (t={:.3}s, link n{}→n{}):",
            from.as_secs_f64(),
            first_drop.from.0,
            first_drop.to.0
        );
        let window: Vec<_> = engine
            .probe_records()
            .iter()
            .filter(|p| (from..to).contains(&p.time) && matches!(p.event.label(), "nack" | "zlc"))
            .collect();
        for p in window.iter().take(25) {
            let (t, node, e) = (p.time.as_secs_f64(), p.node.0, &p.event);
            println!("  {t:>10.6}  n{node:<4} {:<7} {e}", e.label());
        }
        if window.len() > 25 {
            println!("  … {} more probes", window.len() - 25);
        }
    } else {
        println!("\nno data losses occurred (lossless run).");
    }
    let report = engine.audit_report().expect("auditor attached");
    println!("\n{}", report.summary());
}
