//! Preemptive-injection sizing: the closed [`Policy`] enum.
//!
//! The paper sizes preemptive FEC with a fixed-gain EWMA of the measured
//! ZLC (§4).  TAROT-style controllers reframe the same decision as an
//! online optimization: predict the zone's loss process, then pick the
//! smallest redundancy `h` that meets a delivery target.  A [`Policy`] is
//! one of three predictors, each a variant over its own state:
//!
//! * [`EwmaPolicy`] — the paper's predictor, bit-identical to the
//!   original hard-coded agent path.
//! * [`PercentilePolicy`] — a quantile of the recent ZLC history held in
//!   a bounded ring buffer; conservative tail-tracking without EWMA lag.
//! * [`OptimizingPolicy`] — a Gilbert–Elliott-aware controller: it
//!   reconstructs the zone's *total* repair demand per measurement round
//!   (observed residual + what it injected itself), estimates the loss
//!   burst process from that, and chooses the smallest `h` whose modeled
//!   residual-loss probability meets a delivery target.
//!
//! A [`PolicyConfig`] picks one of the three; its only parameter is the
//! EWMA's gain, which the ablation sweeps.  Everything else the
//! predictors use is a constant beside its reader: `INITIAL_PRED`,
//! `QUANTILE` and `PERCENTILE_WINDOW`, `DELIVERY_TARGET`,
//! `OPTIMIZING_WINDOW`, `MAX_H` and `INITIAL_H`.
//!
//! Policies are fed by the agent's existing evidence path: ZLC
//! measurements ([`Policy::on_zlc_measurement`], the same observation
//! the probe layer records as `ProbeEvent::ZlcUpdate`) and NACK arrivals
//! ([`Policy::on_nack`]).  ZCR seat changes from the session layer reach
//! [`Policy::on_seat_change`] so a policy can discard history collected
//! while it was not responsible for a zone.  Every decision is recorded
//! as `ProbeEvent::PolicyDecision` and audited against
//! `chosen h ≤ group_size`.

use std::collections::VecDeque;

/// The EWMA's and the quantile tracker's prediction before any
/// measurement (paper §4: "a small number").
const INITIAL_PRED: f64 = 1.0;
/// The quantile of the recent ZLC history the percentile policy tracks.
const QUANTILE: f64 = 0.95;
/// Measurements the percentile policy keeps per level.
const PERCENTILE_WINDOW: usize = 32;
/// Probability a group must be covered by the first repair round, the
/// optimizing controller's target.
const DELIVERY_TARGET: f64 = 0.75;
/// Reconstructed demands the optimizing controller keeps per level.
const OPTIMIZING_WINDOW: usize = 8;
/// Hard cap on the optimizing controller's `h` (further clamped to the
/// group size).
const MAX_H: u32 = 16;
/// The optimizing controller's `h` before any demand has been observed.
const INITIAL_H: u32 = 0;

/// Sizes preemptive FEC injection for the zones one member represents,
/// built by [`PolicyConfig::build`].  Levels index the member's zone chain
/// (smallest zone first).  Every variant is deterministic plain data (no
/// clock, no RNG), so an agent holding one can be cloned.
#[derive(Clone, Debug)]
pub enum Policy {
    /// The paper's fixed-gain EWMA.
    Ewma(EwmaPolicy),
    /// A quantile of the recent ZLC history.
    Percentile(PercentilePolicy),
    /// The smallest `h` meeting a delivery target.
    Optimizing(OptimizingPolicy),
}

impl Policy {
    /// Folds one ZLC measurement — the worst residual repair demand any
    /// NACK in the zone advertised for a group, observed ~2.5 RTT after
    /// the group completed — into the predictor for `level`.
    pub fn on_zlc_measurement(&mut self, level: usize, observed: f64) {
        match self {
            Policy::Ewma(p) => p.pred[level] += p.gain * (observed - p.pred[level]),
            Policy::Percentile(p) => p.hist[level].push(PERCENTILE_WINDOW, observed),
            Policy::Optimizing(p) => {
                let st = &mut p.levels[level];
                // Reconstruct the round's gross demand: what the zone
                // still asked for on top of what we had already injected
                // for the group this measurement settles (FIFO pairing —
                // injections and measurements both proceed in group
                // order).
                let own = st.pending_h.pop_front().unwrap_or(0);
                st.demands.push(OPTIMIZING_WINDOW, observed + own as f64);
            }
        }
    }

    /// A NACK for `needed` repairs reached this member at `level`.  The
    /// optimizing controller folds it in as a floor on its next
    /// decision; the others only consume settled measurements.
    pub fn on_nack(&mut self, level: usize, needed: u32) {
        if let Policy::Optimizing(p) = self {
            let st = &mut p.levels[level];
            st.nack_floor = st.nack_floor.max(needed);
        }
    }

    /// This member gained (`is_zcr`) or lost the ZCR seat at `level`.  A
    /// gained seat resets the history-bearing policies' level: a fresh
    /// seat must not inherit demand observed from the vantage point of a
    /// different (or failed) representative.  The EWMA ignores seats.
    pub fn on_seat_change(&mut self, level: usize, is_zcr: bool) {
        match self {
            Policy::Percentile(p) if is_zcr => p.hist[level] = Ring::default(),
            Policy::Optimizing(p) if is_zcr => p.levels[level] = OptLevel::default(),
            _ => {}
        }
    }

    /// Current loss prediction for `level` (diagnostics, probes, and the
    /// `ZlcUpdate` event).
    pub fn predicted(&self, level: usize) -> f64 {
        match self {
            Policy::Ewma(p) => p.pred[level],
            Policy::Percentile(p) => p.quantile_of(level),
            Policy::Optimizing(p) => p.model(level).0,
        }
    }

    /// One injection decision: the prediction it was made from (what
    /// [`Policy::predicted`] read just before), and the number of FEC
    /// packets to inject preemptively into `level`'s zone for a freshly
    /// completed group, at most `group_size`: the rounded prediction for
    /// the EWMA and the quantile tracker; the optimizing controller's
    /// modeled `h`, raised to any NACK floor and clamped to `MAX_H`.
    pub fn decide(&mut self, level: usize, group_size: u32) -> (f64, u32) {
        let Policy::Optimizing(p) = self else {
            let pred = self.predicted(level);
            return (pred, (pred.round().max(0.0) as u32).min(group_size));
        };
        let (pred, h) = p.model(level);
        let st = &mut p.levels[level];
        let floor = std::mem::take(&mut st.nack_floor);
        let h = h.max(floor).min(MAX_H).min(group_size);
        st.pending_h.push_back(h);
        // Bound the FIFO: measurements for very late groups can be
        // skipped entirely (audit path), so stale entries must not pile
        // up and skew reconstruction forever.
        if st.pending_h.len() > OPTIMIZING_WINDOW {
            st.pending_h.pop_front();
        }
        (pred, h)
    }

    /// The count half of [`Policy::decide`], for a caller that records no
    /// prediction.
    pub fn injected(&mut self, level: usize, group_size: u32) -> usize {
        self.decide(level, group_size).1 as usize
    }

    /// Heap bytes the policy retains: its per-level state and the
    /// history buffers inside it.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let f64s = |n: usize| n * size_of::<f64>();
        match self {
            Policy::Ewma(p) => f64s(p.pred.capacity()),
            Policy::Percentile(p) => {
                let rings = p.hist.iter().map(|r| f64s(r.buf.capacity()));
                p.hist.capacity() * size_of::<Ring>() + rings.sum::<usize>()
            }
            Policy::Optimizing(p) => {
                let level = |l: &OptLevel| {
                    f64s(l.demands.buf.capacity()) + l.pending_h.capacity() * size_of::<u32>()
                };
                let levels = p.levels.iter().map(level).sum::<usize>();
                p.levels.capacity() * size_of::<OptLevel>() + levels
            }
        }
    }
}

/// The paper's fixed-gain EWMA: `pred += gain · (observed − pred)`,
/// injecting `round(pred)` packets.  Selected by default; bit-identical
/// to the original hard-coded agent path.
#[derive(Clone, Debug)]
pub struct EwmaPolicy {
    gain: f64,
    pred: Vec<f64>,
}

/// Per-level bounded history ring.
#[derive(Clone, Debug, Default)]
struct Ring {
    buf: Vec<f64>,
    next: usize,
}

impl Ring {
    fn push(&mut self, window: usize, v: f64) {
        if self.buf.len() < window {
            self.buf.push(v);
        } else {
            self.buf[self.next] = v;
            self.next = (self.next + 1) % window;
        }
    }
}

/// Predicts the ZLC as the `QUANTILE` of the last `PERCENTILE_WINDOW`
/// measurements.
///
/// Where the EWMA tracks the *mean* demand (and lags bursts by
/// `1/gain` rounds), a high quantile tracks the *tail*: under bursty
/// loss it keeps injecting near the recent worst case until the burst
/// ages out of the window.  An empty history predicts `INITIAL_PRED`.
#[derive(Clone, Debug)]
pub struct PercentilePolicy {
    hist: Vec<Ring>,
}

impl PercentilePolicy {
    /// The quantile of a level's history by linear interpolation on the
    /// sorted samples at rank `q·(n−1)`; `INITIAL_PRED` when empty.
    fn quantile_of(&self, level: usize) -> f64 {
        let buf = &self.hist[level].buf;
        if buf.is_empty() {
            return INITIAL_PRED;
        }
        let mut sorted = buf.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("ZLC samples are finite"));
        let rank = QUANTILE * (sorted.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        sorted[lo] + frac * (sorted[hi] - sorted[lo])
    }
}

/// Per-level state for the optimizing controller.
#[derive(Clone, Debug, Default)]
struct OptLevel {
    /// Ring of reconstructed total demands (observed residual + our own
    /// injection that round): the zone's loss process as a Gilbert–
    /// Elliott style sequence of per-group demand observations.
    demands: Ring,
    /// FIFO of h values injected but not yet matched to a measurement.
    pending_h: VecDeque<u32>,
    /// Worst shortfall advertised by a NACK since the last injection —
    /// a reactive floor under the model-chosen h, consumed on use.
    nack_floor: u32,
}

/// Chooses the smallest `h` whose modeled residual-loss probability
/// meets a delivery target, from a Gilbert–Elliott view of the zone's
/// demand process.
///
/// The ZLC measurement the agent feeds policies is *net of our own
/// injection* — when injection covered everyone, the observation is 0
/// regardless of how lossy the zone was.  A controller trained on the
/// net signal would conclude the zone is clean, cut `h`, provoke NACKs,
/// and oscillate.  This policy therefore reconstructs the *gross*
/// demand per measurement round as `observed + h_injected` (pairing
/// rounds through a FIFO of its own decisions) and models that:
///
/// * `p_loss` — fraction of rounds with any demand: the stationary
///   probability a group gets clipped by a bad-state visit.
/// * `b` — mean demand given demand > 0: the mean burst clip, which for
///   Gilbert–Elliott loss tracks the bad-state sojourn length.
/// * residual after injecting `h`: a burst needs more than `h` repairs
///   with probability ≈ `((b−1)/b)^h` (geometric sojourn tail), so the
///   group misses its first repair round with probability
///   `p_loss · ((b−1)/b)^h`.
///
/// It picks the smallest `h` pushing that below `1 − DELIVERY_TARGET`,
/// raised to any NACK-advertised shortfall since the last round and
/// clamped to `min(MAX_H, group_size)`.
#[derive(Clone, Debug)]
pub struct OptimizingPolicy {
    levels: Vec<OptLevel>,
}

impl OptimizingPolicy {
    /// A level's predicted demand `p_loss · b` and its modeled `h`, from
    /// one pass over the history: `p_loss` is the loss-round frequency,
    /// `b` the mean clip.  Both are `INITIAL_H` while the history is
    /// empty.
    fn model(&self, level: usize) -> (f64, u32) {
        let buf = &self.levels[level].demands.buf;
        if buf.is_empty() {
            return (INITIAL_H as f64, INITIAL_H);
        }
        let (mut lossy, mut sum) = (0usize, 0.0);
        for &d in buf.iter().filter(|&&d| d > 0.0) {
            lossy += 1;
            sum += d;
        }
        let p_loss = lossy as f64 / buf.len() as f64;
        let b = if lossy == 0 { 0.0 } else { sum / lossy as f64 };
        (p_loss * b, Self::model_h(p_loss, b))
    }

    /// Smallest `h` with `p_loss · ((b−1)/b)^h ≤ 1 − DELIVERY_TARGET`.
    fn model_h(p_loss: f64, b: f64) -> u32 {
        let eps = 1.0 - DELIVERY_TARGET;
        if p_loss <= eps || b <= 0.0 {
            return 0;
        }
        if b <= 1.0 {
            // Bursts clip one packet: a single repair covers the mean
            // bad-state visit.
            return 1;
        }
        let tail = (b - 1.0) / b;
        // h = ⌈ln(eps / p_loss) / ln(tail)⌉.
        let h = (eps / p_loss).ln() / tail.ln();
        h.ceil().max(0.0) as u32
    }
}

/// Injection-policy selection, carried by `SharqfecConfig` and threaded
/// through `EngineBuilder` and the bench CLI (`--policy`): which predictor
/// to build, with the one parameter a sweep varies.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PolicyConfig {
    /// The paper's fixed-gain EWMA (default).
    Ewma {
        /// New-sample weight, in `[0,1]` (paper: 0.25).
        gain: f64,
    },
    /// Quantile-of-recent-history predictor.
    Percentile,
    /// TAROT-style optimizing controller.
    Optimizing,
}

impl Default for PolicyConfig {
    /// The paper's EWMA with its §4 gain, 0.25.
    fn default() -> PolicyConfig {
        PolicyConfig::Ewma { gain: 0.25 }
    }
}

impl PolicyConfig {
    /// Resolves a CLI policy name (`ewma` | `percentile` | `optimizing`)
    /// to its default configuration.
    pub fn named(name: &str) -> Option<PolicyConfig> {
        match name {
            "ewma" => Some(PolicyConfig::default()),
            "percentile" => Some(PolicyConfig::Percentile),
            "optimizing" => Some(PolicyConfig::Optimizing),
            _ => None,
        }
    }

    /// The stable name of the configured predictor, recorded in
    /// `ProbeEvent::PolicyDecision` and accepted by [`PolicyConfig::named`].
    pub fn name(&self) -> &'static str {
        match self {
            PolicyConfig::Ewma { .. } => "ewma",
            PolicyConfig::Percentile => "percentile",
            PolicyConfig::Optimizing => "optimizing",
        }
    }

    /// The delivery/coverage target the configured predictor steers
    /// toward, or `0.0` for the EWMA, which is not target-driven
    /// (recorded in `ProbeEvent::PolicyDecision`).
    pub fn target(&self) -> f64 {
        match self {
            PolicyConfig::Ewma { .. } => 0.0,
            PolicyConfig::Percentile => QUANTILE,
            PolicyConfig::Optimizing => DELIVERY_TARGET,
        }
    }

    /// Validates invariants.
    ///
    /// # Panics
    ///
    /// Panics when an EWMA gain lies outside `[0,1]`.
    pub fn validate(&self) {
        if let PolicyConfig::Ewma { gain } = *self {
            assert!(
                (0.0..=1.0).contains(&gain),
                "EWMA gain must be a weight in [0,1]"
            );
        }
    }

    /// Builds the configured policy for a member with `levels` chain
    /// levels.
    ///
    /// # Panics
    ///
    /// Panics when [`PolicyConfig::validate`] does.
    pub fn build(&self, levels: usize) -> Policy {
        self.validate();
        match *self {
            PolicyConfig::Ewma { gain } => Policy::Ewma(EwmaPolicy {
                gain,
                pred: vec![INITIAL_PRED; levels],
            }),
            PolicyConfig::Percentile => Policy::Percentile(PercentilePolicy {
                hist: vec![Ring::default(); levels],
            }),
            PolicyConfig::Optimizing => Policy::Optimizing(OptimizingPolicy {
                levels: vec![OptLevel::default(); levels],
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ewma(gain: f64, levels: usize) -> Policy {
        PolicyConfig::Ewma { gain }.build(levels)
    }

    #[test]
    fn ewma_matches_the_papers_fold() {
        let mut p = ewma(0.25, 2);
        // pred = 1.0 → observe 5 → 1 + 0.25·(5−1) = 2.0
        p.on_zlc_measurement(0, 5.0);
        assert_eq!(p.predicted(0), 2.0);
        // Untouched level keeps its initial prediction.
        assert_eq!(p.predicted(1), INITIAL_PRED);
        // Rounds to nearest, clamps at the group size.
        assert_eq!(p.injected(0, 16), 2);
        p.on_zlc_measurement(0, 100.0);
        assert_eq!(p.injected(0, 16), 16);
    }

    #[test]
    fn ewma_decays_toward_zero_on_clean_measurements() {
        let mut p = ewma(0.25, 1);
        for _ in 0..16 {
            p.on_zlc_measurement(0, 0.0);
        }
        assert!(p.predicted(0) < 0.1);
        assert_eq!(p.injected(0, 16), 0);
    }

    #[test]
    fn percentile_empty_history_uses_the_initial_prediction() {
        let mut p = PolicyConfig::Percentile.build(1);
        assert_eq!(p.predicted(0), INITIAL_PRED);
        assert_eq!(p.injected(0, 16), 1);
    }

    #[test]
    fn percentile_all_equal_samples_returns_the_sample() {
        let mut p = PolicyConfig::Percentile.build(1);
        for _ in 0..40 {
            p.on_zlc_measurement(0, 7.0);
        }
        assert_eq!(p.predicted(0), 7.0);
        assert_eq!(p.injected(0, 16), 7);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        // Sorted: [0, 10]; q = 0.95 → rank 0.95 → 9.5.
        let mut p = PolicyConfig::Percentile.build(1);
        p.on_zlc_measurement(0, 10.0);
        p.on_zlc_measurement(0, 0.0);
        assert!((p.predicted(0) - 9.5).abs() < 1e-9, "{}", p.predicted(0));
    }

    #[test]
    fn percentile_window_evicts_oldest() {
        // Two 50s then 2s fill the window: rank 0.95·31 = 29.45 falls
        // between the last 2 and the first 50.
        let mut p = PolicyConfig::Percentile.build(1);
        for s in [50.0, 50.0].into_iter().chain([2.0; PERCENTILE_WINDOW - 2]) {
            p.on_zlc_measurement(0, s);
        }
        assert!((p.predicted(0) - (2.0 + 0.45 * 48.0)).abs() < 1e-9);
        // One more 2 ages the oldest 50 out: one 50 sits above the rank.
        p.on_zlc_measurement(0, 2.0);
        assert_eq!(p.predicted(0), 2.0);
    }

    #[test]
    fn percentile_seat_gain_clears_history() {
        let mut p = PolicyConfig::Percentile.build(2);
        p.on_zlc_measurement(0, 9.0);
        p.on_zlc_measurement(1, 9.0);
        p.on_seat_change(0, true);
        p.on_seat_change(1, false); // losing the seat keeps history
        assert_eq!(p.predicted(0), INITIAL_PRED);
        assert_eq!(p.predicted(1), 9.0);
    }

    #[test]
    fn optimizing_clean_history_chooses_zero() {
        let mut p = PolicyConfig::Optimizing.build(1);
        assert_eq!(p.injected(0, 16), INITIAL_H as usize);
        // A NACK floor makes the next round inject one.
        p.on_nack(0, 1);
        assert_eq!(p.injected(0, 16), 1);
        for _ in 0..7 {
            p.on_zlc_measurement(0, 0.0);
        }
        // p_loss fell under 1−target ⇒ no preemptive FEC.  (The predicted
        // demand is not 0: the injected round is itself part of the
        // reconstructed demand history, one lossy round in seven.)
        assert_eq!(p.injected(0, 16), 0);
        assert!(p.predicted(0) > 0.0 && p.predicted(0) < 0.25);
    }

    #[test]
    fn optimizing_persistent_bursts_raise_h() {
        let mut p = PolicyConfig::Optimizing.build(1);
        for _ in 0..10 {
            p.on_zlc_measurement(0, 6.0);
        }
        // Every round lost ~6 packets: h must cover most of the burst.
        let h = p.injected(0, 16);
        assert!(h >= 6, "burst demand 6 every round needs h >= 6, got {h}");
        assert!(h <= 16);
    }

    #[test]
    fn optimizing_reconstructs_gross_demand_past_own_injection() {
        let mut p = PolicyConfig::Optimizing.build(1);
        // Round trip: inject 4 (a NACK's floor), then the measurement
        // reads 0 because our own injection covered the zone.  Gross
        // demand is 4, not 0 — the policy must keep injecting rather than
        // concluding "clean".
        p.on_nack(0, 4);
        for _ in 0..8 {
            let h = p.injected(0, 16);
            assert!(h >= 1, "must not collapse to zero while demand persists");
            p.on_zlc_measurement(0, 0.0);
        }
        assert!(p.predicted(0) >= 1.0);
    }

    #[test]
    fn optimizing_nack_floor_is_consumed_once() {
        let mut p = PolicyConfig::Optimizing.build(1);
        for _ in 0..10 {
            p.on_zlc_measurement(0, 0.0); // model says 0
        }
        p.on_nack(0, 5);
        assert_eq!(p.injected(0, 16), 5); // floor applies…
        p.on_zlc_measurement(0, 0.0);
        assert!(p.injected(0, 16) <= 1); // …once
    }

    #[test]
    fn optimizing_clamps_to_max_h_and_group_size() {
        let heavy = || {
            let mut p = PolicyConfig::Optimizing.build(1);
            for _ in 0..4 {
                p.on_zlc_measurement(0, 40.0);
            }
            p
        };
        // The model asks for ⌈ln 0.25 / ln 0.975⌉ = 55.
        assert_eq!(heavy().injected(0, 64), MAX_H as usize);
        assert_eq!(heavy().injected(0, 8), 8); // group_size
    }

    #[test]
    fn optimizing_seat_gain_resets_the_level() {
        let mut p = PolicyConfig::Optimizing.build(1);
        for _ in 0..10 {
            p.on_zlc_measurement(0, 8.0);
        }
        assert!(p.injected(0, 16) >= 6);
        p.on_seat_change(0, true);
        assert_eq!(p.injected(0, 16), INITIAL_H as usize);
    }

    #[test]
    fn config_names_round_trip() {
        for (name, target) in [("ewma", 0.0), ("percentile", 0.95), ("optimizing", 0.75)] {
            let cfg = PolicyConfig::named(name).expect("known policy");
            assert_eq!((cfg.name(), cfg.target()), (name, target));
            let mut p = cfg.build(3);
            let built = format!("{p:?}").to_lowercase();
            assert!(built.starts_with(name), "{name} built {built}");
            // A decision reports the prediction it was made from.
            for observed in [0.0, 3.0, 7.5, 0.0] {
                p.on_zlc_measurement(1, observed);
                let before = p.predicted(1);
                let (pred, _) = p.decide(1, 16);
                assert_eq!(pred.to_bits(), before.to_bits(), "{name}");
            }
        }
        assert_eq!(PolicyConfig::named("fixed"), None);
    }

    #[test]
    fn config_default_is_the_papers_ewma() {
        assert_eq!(PolicyConfig::default(), PolicyConfig::Ewma { gain: 0.25 });
    }

    #[test]
    #[should_panic(expected = "EWMA gain")]
    fn config_rejects_a_gain_outside_the_unit_interval() {
        PolicyConfig::Ewma { gain: 1.5 }.validate();
    }
}
