//! The measurement protocol: identical repetitions of one workload in one
//! process, single-threaded, for `--seconds` seconds, the reference kernel
//! timed between every two of them; a reported timing is the median over
//! the repetitions of (seconds / the kernel's seconds beside it).
//!
//! The runs are deterministic, so all spread between repetitions is host
//! noise.  On this host the noise is a level that shifts by 10-40% for
//! minutes at a time, so neither the minimum nor the median of the raw
//! timings repeats from one invocation to the next, but their ratio to a
//! fixed kernel that slows down alike does (see README.md for what was
//! measured).  Set-up, which is tiny, is sampled throughout the invocation
//! and reported the same way.

use crate::alloc::counted;
use crate::host;
use crate::probes;
use crate::reference::{median, normalised, Reference};
use crate::spans::{Span, Tracer};
use crate::workloads::{count, Bench, CodecBench, Engines, Outcome, Proto, SimBench, Toggles};
use sharqfec_netsim::prelude::*;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The seed whose simulated statistics `expected.json` pins.
pub const PINNED_SEED: u64 = 42;

/// End-to-end metrics: `(name, unit)`, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("alloc_mb", "MB"),
    ("allocs", "count"),
];

/// Per-layer metrics: `(name, unit)`, as `BENCHMARK.json` lists them.  A
/// traced invocation prints every one; a layer the workload never enters
/// reads 0 (README.md has the applicability table).
pub const PER_LAYER: [(&str, &str); 57] = [
    // Build path -> setup_s.
    ("topology.generate_s", "s"),
    ("core.setup_s", "s"),
    ("srm.setup_s", "s"),
    ("netsim.build_s", "s"),
    ("fec.codec_new_us", "us"),
    ("alloc.setup_count", "count"),
    // Run phases -> wall_s.
    ("netsim.advance.join_s", "s"),
    ("netsim.advance.stream_s", "s"),
    ("netsim.advance.tail_s", "s"),
    ("netsim.advance.join_events", "count"),
    ("netsim.advance.stream_events", "count"),
    ("netsim.advance.tail_events", "count"),
    ("netsim.ns_per_event", "ns"),
    ("collect_s", "s"),
    ("analysis.bin_s", "s"),
    ("fec.object.encode_s", "s"),
    ("fec.object.push_s", "s"),
    ("fec.object.finish_s", "s"),
    ("trace.phase_cover_pct", "%"),
    ("trace.overhead_pct", "%"),
    // Counts (exact).
    ("netsim.events", "count"),
    ("netsim.delivered.session", "count"),
    ("netsim.delivered.data", "count"),
    ("netsim.delivered.repair", "count"),
    ("netsim.delivered.nack", "count"),
    ("netsim.sent.nack", "count"),
    ("netsim.sent.repair", "count"),
    ("netsim.dropped", "count"),
    ("netsim.pending_peak", "count"),
    ("netsim.spt_cached", "count"),
    ("netsim.state_bytes_per_rx", "B"),
    ("netsim.audit_events", "count"),
    ("netsim.recorder_resident_mb", "MB"),
    ("alloc.per_event", "count"),
    // Differentials.
    ("netsim.audit.overhead_s", "s"),
    ("netsim.recorder.raw_overhead_s", "s"),
    ("netsim.shard.wall_s_2", "s"),
    // Direct probes.
    ("netsim.queue.push_pop_ns", "ns"),
    ("netsim.fanout.delivery_ns", "ns"),
    ("netsim.routing.spt_compute_us", "us"),
    ("netsim.routing.oracle_compute_ms", "ms"),
    ("netsim.recorder.record_ns.raw", "ns"),
    ("netsim.recorder.record_ns.streaming", "ns"),
    ("netsim.recorder.record_ns.aggregate", "ns"),
    ("netsim.auditor.ingest_ns", "ns"),
    ("session.on_msg_ns", "ns"),
    ("session.on_timer_ns", "ns"),
    ("core.policy.injected_ns", "ns"),
    ("srm.fig10.advance_s", "s"),
    ("fec.encode_mb_s", "MB/s"),
    ("fec.decode_mb_s", "MB/s"),
    ("fec.encode_mb_s.p64", "MB/s"),
    ("fec.decode_mb_s.p64", "MB/s"),
    ("gf256.mul_acc_gb_s", "GB/s"),
    ("gf256.mul_gb_s", "GB/s"),
    // Host-side context of the traced invocation itself.
    ("host.on_cpu_s", "s"),
    ("host.runqueue_wait_s", "s"),
];

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What an invocation measured.
pub struct Report {
    /// The metric values (end-to-end or per-layer, by mode).
    pub metrics: Metrics,
    /// The repetitions' common outcome, at `--seed`.
    pub outcome: Outcome,
    /// The counted repetition's outcome, at [`PINNED_SEED`] (untraced only).
    pub pinned: Option<Outcome>,
    /// Timed repetitions (untraced) or interleaved rounds (traced).
    pub reps: usize,
    /// Set-up samples behind `setup_s` (untraced only).
    pub setup_samples: usize,
    /// Raw seconds, for the reader: the fastest and the median repetition,
    /// the fastest and the median kernel call, and the kernel's quiet-host
    /// seconds the ratios are multiplied by (untraced only).
    pub raw: [f64; 5],
    /// The fastest traced repetition's spans plus the probes' (traced only).
    pub spans: Vec<Span>,
}

/// Every repetition must produce identical simulated statistics.
fn same_outcome(first: &Outcome, now: &Outcome, rep: usize) -> Result<(), String> {
    if first == now {
        return Ok(());
    }
    Err(format!(
        "repetition {rep} differs from repetition 0: {:?} vs {:?}",
        now, first
    ))
}

/// A bench variant being repeated; keeps its fastest whole run.
struct Arm<B> {
    bench: B,
    run_min_s: f64,
    /// The spans of the repetition `run_min_s` came from (none if the
    /// tracer was off).
    fastest: Vec<Span>,
    outcome: Option<Outcome>,
    reps: usize,
}

impl<B: Bench> Arm<B> {
    fn new(bench: B) -> Arm<B> {
        Arm {
            bench,
            run_min_s: f64::INFINITY,
            fastest: Vec::new(),
            outcome: None,
            reps: 0,
        }
    }

    /// One repetition: set-up, timed run, check that the outcome is the
    /// arm's first outcome again.  Returns the run's seconds.
    fn rep(&mut self, tr: &mut Tracer) -> Result<f64, String> {
        tr.clear();
        let mut world = tr.span("setup", |tr| self.bench.setup(tr));
        let t = Instant::now();
        let outcome = black_box(tr.span("run", |tr| self.bench.run(&mut world, tr)));
        let secs = t.elapsed().as_secs_f64();
        drop(world);
        if secs < self.run_min_s {
            self.run_min_s = secs;
            self.fastest = tr.spans().to_vec();
        }
        self.reps += 1;
        match &self.outcome {
            Some(first) => same_outcome(first, &outcome, self.reps - 1)?,
            None => self.outcome = Some(outcome),
        }
        Ok(secs)
    }

    fn outcome(&self) -> &Outcome {
        self.outcome.as_ref().expect("at least one repetition ran")
    }
}

/// Times one build-and-drop set-up (the drop is outside the sample).
fn setup_sample<B: Bench>(bench: &B, off: &mut Tracer) -> f64 {
    let t = Instant::now();
    let world = black_box(bench.setup(off));
    let secs = t.elapsed().as_secs_f64();
    drop(world);
    secs
}

/// The untraced invocation: one warm-up repetition, then timed
/// repetitions of `bench` for `seconds` seconds, each followed by set-up
/// samples and a call of the reference kernel, then one counted repetition
/// of `pinned` (the same workload at [`PINNED_SEED`]); reports the
/// end-to-end metrics.
///
/// The counted repetition runs the pinned inputs whatever `--seed` is, so
/// `alloc_mb` and `allocs` are exact: they move when the code moves and
/// for no other reason.
pub fn end_to_end<B: Bench>(
    bench: &B,
    pinned: &B,
    mut kernel: Reference,
    seconds: f64,
) -> Result<Report, String> {
    const SETUPS_PER_REP: usize = 8;
    let mut off = Tracer::disabled();
    let mut arm = Arm::new(bench);
    // Warm-up: the allocator's pools and the kernel's table are in place
    // before anything is timed.
    arm.rep(&mut off)?;
    let (_, work) = kernel.run();

    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    // `refs[i]` is the kernel call before repetition `i`, `refs[i + 1]`
    // the one after it and its set-up samples.
    let mut refs = vec![kernel.run().0];
    let mut runs = Vec::new();
    let mut setups = Vec::new();
    while runs.is_empty() || Instant::now() < deadline {
        let i = runs.len();
        runs.push((arm.rep(&mut off)?, i));
        // Spread across the invocation, beside the kernel calls they are
        // divided by.
        for _ in 0..SETUPS_PER_REP {
            setups.push((setup_sample(bench, &mut off), i));
        }
        let (secs, order) = kernel.run();
        if order != work {
            return Err("the reference kernel did not repeat its work".into());
        }
        refs.push(secs);
    }

    let mut world = pinned.setup(&mut off);
    let (pinned_outcome, allocated) = counted(|| pinned.run(&mut world, &mut off));
    drop(world);

    let peak_rss_mb = host::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    let metrics = Metrics::from([
        ("wall_s", normalised(&runs, &refs, kernel.nominal_s())),
        ("setup_s", normalised(&setups, &refs, kernel.nominal_s())),
        ("peak_rss_mb", peak_rss_mb),
        ("alloc_mb", allocated.bytes as f64 / 1e6),
        ("allocs", allocated.calls as f64),
    ]);
    let fastest = |v: &mut dyn Iterator<Item = f64>| v.fold(f64::INFINITY, f64::min);
    Ok(Report {
        metrics,
        outcome: arm.outcome().clone(),
        pinned: Some(pinned_outcome),
        reps: runs.len(),
        setup_samples: setups.len(),
        raw: [
            fastest(&mut runs.iter().map(|r| r.0)),
            median(runs.iter().map(|r| r.0).collect()),
            fastest(&mut refs.iter().copied()),
            median(refs),
            kernel.nominal_s(),
        ],
        spans: Vec::new(),
    })
}

/// Interleaved rounds of a traced invocation: every differential is the
/// minimum of this many repetitions of each arm.
const ROUNDS: usize = 8;
/// Extra traced set-ups per round, for the set-up spans' minima.
const SETUPS_PER_ROUND: usize = 8;

/// Minimum duration per span name over every span list folded in.
#[derive(Default)]
struct BestByName(BTreeMap<&'static str, u64>);

impl BestByName {
    fn fold(&mut self, spans: &[Span]) {
        for s in spans {
            let best = self.0.entry(s.name).or_insert(u64::MAX);
            *best = (*best).min(s.dur_ns());
        }
    }

    /// Seconds of the fastest span called `name` (0 if none was seen).
    fn secs(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |&ns| ns as f64 / 1e9)
    }
}

/// One traced repetition of `arm` plus the round's extra set-ups, all
/// folded into `setup_best`.
fn traced_round<B: Bench>(
    arm: &mut Arm<B>,
    tr: &mut Tracer,
    setup_best: &mut BestByName,
) -> Result<(), String> {
    arm.rep(tr)?;
    setup_best.fold(tr.spans());
    for _ in 0..SETUPS_PER_ROUND {
        tr.clear();
        drop(arm.bench.setup(tr));
        setup_best.fold(tr.spans());
    }
    Ok(())
}

/// Seconds of the span called `name` in the arm's fastest repetition.
fn fastest_secs<B>(arm: &Arm<B>, name: &str) -> f64 {
    arm.fastest
        .iter()
        .find(|s| s.name == name)
        .map_or(0.0, |s| s.dur_ns() as f64 / 1e9)
}

fn zeroed_per_layer() -> Metrics {
    PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect()
}

/// Runs `f` as a span and stores its value under `metric`.
fn probe(tr: &mut Tracer, m: &mut Metrics, metric: &'static str, f: impl FnOnce() -> f64) {
    let v = tr.span(metric, |_| f());
    m.insert(metric, v);
}

/// What every traced invocation reports about itself: how much of its
/// fastest run the phase spans cover, and what recording them cost against
/// the same run with the tracer off.
fn trace_context<B: Bench>(m: &mut Metrics, traced: &Arm<B>, untraced: &Arm<B>) {
    let spans = &traced.fastest;
    let run = spans
        .iter()
        .position(|s| s.name == "run")
        .expect("every repetition records its run");
    let phases: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(run))
        .map(Span::dur_ns)
        .sum();
    m.insert(
        "trace.phase_cover_pct",
        100.0 * phases as f64 / spans[run].dur_ns() as f64,
    );
    m.insert(
        "trace.overhead_pct",
        100.0 * (traced.run_min_s - untraced.run_min_s) / untraced.run_min_s,
    );
    if let Some((on_cpu, waited)) = host::schedstat() {
        m.insert("host.on_cpu_s", on_cpu as f64 / 1e9);
        m.insert("host.runqueue_wait_s", waited as f64 / 1e9);
    }
}

/// Peak of `pending_timer_count + packets_in_flight`, sampled every 0.5
/// simulated seconds on a fresh world; also checks that stepping the
/// engine leaves every statistic untouched.
fn pending_peak(bench: &SimBench, expect: &Outcome) -> Result<u64, String> {
    fn step<M: Classify + Clone + Send + 'static>(e: &mut Engine<M>, until: SimTime) -> u64 {
        let half = SimDuration::from_millis(500);
        let (mut peak, mut t) = (0, SimTime::ZERO);
        while t < until {
            t = (t + half).min(until);
            e.advance(RunSpec::to(t));
            peak = peak.max(e.pending_timer_count() + e.packets_in_flight());
        }
        peak as u64
    }
    let mut off = Tracer::disabled();
    let mut world = bench.setup(&mut off);
    let peak = match &mut world.engine {
        Engines::Sf(e) => step(e, bench.spec.horizon),
        Engines::Srm(e) => step(e, bench.spec.horizon),
    };
    // `run` finds the engine already at the horizon: it advances through
    // no further events and extracts the results.
    let without_events = |o: &Outcome| {
        let mut o = o.clone();
        o.counts
            .retain(|(k, _)| !k.ends_with("events") || *k == "audit_events");
        o
    };
    let stepped = bench.run(&mut world, &mut off);
    same_outcome(&without_events(expect), &without_events(&stepped), 0)
        .map_err(|e| format!("stepped run: {e}"))?;
    Ok(peak)
}

/// The traced invocation of a simulated workload.
pub fn trace_sim(base: SimBench) -> Result<Report, String> {
    let with = |toggles: Toggles| SimBench { toggles, ..base };
    let own = Toggles::default();
    let mut traced = Arm::new(base);
    // The same run with the tracer off: what the differentials subtract
    // from, and what recording spans costs (`trace.overhead_pct`).
    let mut untraced = Arm::new(base);
    let mut no_audit = base.spec.audit_arm.then(|| {
        Arm::new(with(Toggles {
            audit: false,
            ..own
        }))
    });
    // What keeping raw records costs, where the workload keeps them.
    let mut aggregate = (base.spec.recorder() == RecorderMode::Raw).then(|| {
        Arm::new(with(Toggles {
            recorder: Some(RecorderMode::Aggregate),
            ..own
        }))
    });
    // 2 shards = this host's nproc; reported, not gated.
    let mut sharded = base
        .spec
        .two_shard_arm
        .then(|| Arm::new(with(Toggles { shards: 2, ..own })));

    // Interleaved rounds, so every arm sees the same slow and fast
    // stretches of the host.
    let mut off = Tracer::disabled();
    let mut tr = Tracer::recording();
    let mut setup_best = BestByName::default();
    for _ in 0..ROUNDS {
        traced_round(&mut traced, &mut tr, &mut setup_best)?;
        untraced.rep(&mut off)?;
        for arm in [&mut no_audit, &mut aggregate, &mut sharded]
            .into_iter()
            .flatten()
        {
            arm.rep(&mut off)?;
        }
    }
    let outcome = traced.outcome().clone();
    same_outcome(&outcome, untraced.outcome(), 0).map_err(|e| format!("untraced run: {e}"))?;
    let c = |key: &str| count(&outcome.counts, key) as f64;

    let mut m = zeroed_per_layer();
    for (span, metric) in [
        ("topology.generate", "topology.generate_s"),
        ("core.setup", "core.setup_s"),
        ("srm.setup", "srm.setup_s"),
        ("netsim.build", "netsim.build_s"),
    ] {
        m.insert(metric, setup_best.secs(span));
    }
    // The phases are the fastest repetition's own, so they sum to its run.
    let mut advance_s = 0.0;
    for (span, secs_metric, events_metric, events_key) in [
        (
            "netsim.advance.join",
            "netsim.advance.join_s",
            "netsim.advance.join_events",
            "join_events",
        ),
        (
            "netsim.advance.stream",
            "netsim.advance.stream_s",
            "netsim.advance.stream_events",
            "stream_events",
        ),
        (
            "netsim.advance.tail",
            "netsim.advance.tail_s",
            "netsim.advance.tail_events",
            "tail_events",
        ),
    ] {
        let secs = fastest_secs(&traced, span);
        advance_s += secs;
        m.insert(secs_metric, secs);
        m.insert(events_metric, c(events_key));
    }
    m.insert("netsim.ns_per_event", advance_s * 1e9 / c("events"));
    m.insert("collect_s", fastest_secs(&traced, "collect"));
    m.insert("analysis.bin_s", fastest_secs(&traced, "analysis.bin"));

    for (key, metric) in [
        ("events", "netsim.events"),
        ("delivered_session", "netsim.delivered.session"),
        ("delivered_data", "netsim.delivered.data"),
        ("delivered_repair", "netsim.delivered.repair"),
        ("delivered_nack", "netsim.delivered.nack"),
        ("nacks_sent", "netsim.sent.nack"),
        ("repairs_sent", "netsim.sent.repair"),
        ("dropped", "netsim.dropped"),
        ("spt_cached", "netsim.spt_cached"),
        ("audit_events", "netsim.audit_events"),
    ] {
        m.insert(metric, c(key));
    }
    let receivers = outcome.attempted as f64 / f64::from(base.spec.packets());
    m.insert("netsim.state_bytes_per_rx", c("state_bytes") / receivers);
    m.insert(
        "netsim.recorder_resident_mb",
        c("recorder_resident_bytes") / 1e6,
    );
    let peak = pending_peak(&base, &outcome)?;
    m.insert("netsim.pending_peak", peak as f64);

    let (mut world, in_setup) = counted(|| base.setup(&mut off));
    let (_, in_run) = counted(|| base.run(&mut world, &mut off));
    drop(world);
    m.insert("alloc.setup_count", in_setup.calls as f64);
    m.insert("alloc.per_event", in_run.calls as f64 / c("events"));

    let wall = untraced.run_min_s;
    if let Some(arm) = &no_audit {
        m.insert("netsim.audit.overhead_s", wall - arm.run_min_s);
    }
    if let Some(arm) = &aggregate {
        m.insert("netsim.recorder.raw_overhead_s", wall - arm.run_min_s);
    }
    if let Some(arm) = &sharded {
        m.insert("netsim.shard.wall_s_2", arm.run_min_s);
    }
    trace_context(&mut m, &traced, &untraced);

    // Direct probes, sized from this workload's own counts.
    tr.clear();
    let seed = base.seed;
    let mut world = with(Toggles {
        keep_probes: true,
        ..own
    })
    .setup(&mut off);
    let replayed = base.run(&mut world, &mut off);
    same_outcome(&outcome, &replayed, 0).map_err(|e| format!("probe-keeping run: {e}"))?;
    let records: Vec<ProbeRecord> = match &world.engine {
        Engines::Sf(e) => e.probe_records().to_vec(),
        Engines::Srm(e) => e.probe_records().to_vec(),
    };
    let built = &world.built;
    // Mean fan-out: deliveries per transmission, over every class.
    let delivered: f64 = [
        "delivered_session",
        "delivered_data",
        "delivered_repair",
        "delivered_nack",
    ]
    .iter()
    .map(|k| c(k))
    .sum();
    let fanout = (delivered / transmissions(&world.engine).max(1) as f64).round() as usize;
    let tr = &mut tr;
    probe(tr, &mut m, "netsim.queue.push_pop_ns", || {
        probes::queue_push_pop_ns(peak as usize, seed)
    });
    probe(tr, &mut m, "netsim.fanout.delivery_ns", || {
        probes::fanout_delivery_ns(built, fanout)
    });
    probe(tr, &mut m, "netsim.routing.spt_compute_us", || {
        probes::spt_compute_us(built)
    });
    probe(tr, &mut m, "netsim.routing.oracle_compute_ms", || {
        probes::oracle_compute_ms(built)
    });
    let nodes = built.topology.node_count();
    for (metric, mode) in [
        ("netsim.recorder.record_ns.raw", RecorderMode::Raw),
        (
            "netsim.recorder.record_ns.streaming",
            RecorderMode::Streaming,
        ),
        (
            "netsim.recorder.record_ns.aggregate",
            RecorderMode::Aggregate,
        ),
    ] {
        probe(tr, &mut m, metric, || {
            probes::recorder_record_ns(mode, nodes, seed)
        });
    }
    probe(tr, &mut m, "netsim.auditor.ingest_ns", || {
        probes::auditor_ingest_ns(&records)
    });
    match base.spec.proto {
        Proto::Sharqfec => {
            let (on_msg, on_timer) =
                tr.span("session.on_msg_ns", |_| probes::session_ns(built, seed));
            m.insert("session.on_msg_ns", on_msg);
            m.insert("session.on_timer_ns", on_timer);
            probe(
                tr,
                &mut m,
                "core.policy.injected_ns",
                probes::policy_injected_ns,
            );
        }
        Proto::Srm => probe(tr, &mut m, "srm.fig10.advance_s", || {
            probes::srm_fig10_advance_s(seed)
        }),
    }

    let mut spans = traced.fastest;
    spans.extend_from_slice(tr.spans());
    Ok(Report {
        metrics: m,
        outcome,
        pinned: None,
        reps: ROUNDS,
        setup_samples: 0,
        raw: [0.0; 5],
        spans,
    })
}

fn transmissions(engine: &Engines) -> usize {
    fn total(rec: &Recorder) -> usize {
        [
            TrafficClass::Session,
            TrafficClass::Data,
            TrafficClass::Repair,
            TrafficClass::Nack,
        ]
        .iter()
        .map(|&c| rec.total_sent(c))
        .sum()
    }
    match engine {
        Engines::Sf(e) => total(e.recorder()),
        Engines::Srm(e) => total(e.recorder()),
    }
}

/// The traced invocation of `codec_object`.
pub fn trace_codec(bench: &CodecBench) -> Result<Report, String> {
    let mut off = Tracer::disabled();
    let mut tr = Tracer::recording();
    let mut traced = Arm::new(bench);
    let mut untraced = Arm::new(bench);
    let mut setup_best = BestByName::default();
    for _ in 0..ROUNDS {
        traced_round(&mut traced, &mut tr, &mut setup_best)?;
        untraced.rep(&mut off)?;
    }

    let mut m = zeroed_per_layer();
    m.insert("fec.codec_new_us", setup_best.secs("fec.codec_new") * 1e6);
    for (span, metric) in [
        ("fec.object.encode", "fec.object.encode_s"),
        ("fec.object.push", "fec.object.push_s"),
        ("fec.object.finish", "fec.object.finish_s"),
    ] {
        m.insert(metric, fastest_secs(&traced, span));
    }
    let (world, in_setup) = counted(|| bench.setup(&mut off));
    drop(world);
    m.insert("alloc.setup_count", in_setup.calls as f64);
    trace_context(&mut m, &traced, &untraced);

    tr.clear();
    let (enc, dec) = tr.span("fec.encode_mb_s", |_| {
        probes::codec_mb_s(crate::workloads::SHARD)
    });
    m.insert("fec.encode_mb_s", enc);
    m.insert("fec.decode_mb_s", dec);
    // 64 B shards: per-call cost dominates.
    let (enc, dec) = tr.span("fec.encode_mb_s.p64", |_| probes::codec_mb_s(64));
    m.insert("fec.encode_mb_s.p64", enc);
    m.insert("fec.decode_mb_s.p64", dec);
    let (acc, mul) = tr.span("gf256.mul_acc_gb_s", |_| probes::gf256_gb_s());
    m.insert("gf256.mul_acc_gb_s", acc);
    m.insert("gf256.mul_gb_s", mul);

    let outcome = traced.outcome().clone();
    let mut spans = traced.fastest;
    spans.extend_from_slice(tr.spans());
    Ok(Report {
        metrics: m,
        outcome,
        pinned: None,
        reps: ROUNDS,
        setup_samples: 0,
        raw: [0.0; 5],
        spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// Spins for a scripted time per repetition and reports a scripted
    /// statistic.
    struct Scripted {
        spin_ms: Vec<u64>,
        stat: Vec<u64>,
        at: Cell<usize>,
    }

    impl Bench for Scripted {
        type World = usize;

        fn setup(&self, tr: &mut Tracer) -> usize {
            tr.span("build", |_| self.at.get())
        }

        fn run(&self, world: &mut usize, tr: &mut Tracer) -> Outcome {
            self.at.set(*world + 1);
            let until = Instant::now() + Duration::from_millis(self.spin_ms[*world]);
            tr.span("spin", |_| while Instant::now() < until {});
            Outcome {
                counts: vec![("stat", self.stat[*world])],
                attempted: 1,
                failed: 0,
            }
        }
    }

    #[test]
    fn an_arm_keeps_the_fastest_whole_run_and_rejects_a_differing_repetition() {
        let mut arm = Arm::new(Scripted {
            spin_ms: vec![40, 10, 40, 1],
            stat: vec![7, 7, 7, 8],
            at: Cell::new(0),
        });
        let mut tr = Tracer::recording();
        for _ in 0..3 {
            arm.rep(&mut tr).unwrap();
        }
        assert!((0.009..0.040).contains(&arm.run_min_s), "{}", arm.run_min_s);
        // The kept spans are the 10 ms repetition's, not the last one's.
        let spin = fastest_secs(&arm, "spin");
        assert!((0.009..=arm.run_min_s).contains(&spin), "{spin}");
        assert_eq!(fastest_secs(&arm, "missing"), 0.0);
        // The fourth repetition is the fastest, but it is not the same run.
        assert!(arm.rep(&mut tr).unwrap_err().contains("repetition 3"));
    }

    #[test]
    fn best_by_name_keeps_each_names_minimum() {
        let span = |name, start_ns, end_ns| Span {
            name,
            start_ns,
            end_ns,
            parent: None,
        };
        let mut best = BestByName::default();
        best.fold(&[span("a", 0, 300), span("b", 300, 400)]);
        best.fold(&[span("a", 10, 210), span("b", 210, 360)]);
        assert_eq!(best.secs("a"), 200e-9);
        assert_eq!(best.secs("b"), 100e-9);
        assert_eq!(best.secs("c"), 0.0);
    }
}
