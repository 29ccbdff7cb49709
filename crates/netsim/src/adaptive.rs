//! The SRM §V adaptive timer-window adjustment, shared by the protocol
//! crates.
//!
//! Both `sharqfec-srm` (the baseline's request/repair windows) and
//! `sharqfec-core` (the paper's §7 future-work extension of the NACK
//! window) adapt a suppression window `[lo·d, (lo+width)·d]` from the
//! same two EWMAs: duplicate requests/repairs overheard per recovery
//! round, and the member's own recovery delay in units of the distance
//! `d`.  The two crates had drifted copies of this logic; this module is
//! the single implementation, parameterized by [`AdaptiveConfig`] so each
//! caller keeps its published trigger points (they intentionally diverge
//! in `delay_high` — see the constructors in `sharqfec-core::adapt` and
//! `sharqfec-srm::timers`).
//!
//! Semantics when disabled: the adapter is *inert* — `saw_duplicate` and
//! `end_round` change nothing, so enabling adaptation mid-run starts from
//! the configured window and unbiased EWMAs rather than inheriting
//! averages accumulated while the window was fixed (those samples are
//! biased: suppression dynamics differ when the window cannot move).

/// Trigger points and step sizes for one adaptive window.
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveConfig {
    /// EWMA gain for the duplicate/delay averages (SRM: 1/4).
    pub gain: f64,
    /// Duplicate pressure at or above which the window widens (SRM: ~1).
    pub dup_high: f64,
    /// Duplicate pressure below which narrowing is considered.
    pub dup_low: f64,
    /// Delay (in units of `d`) above which narrowing kicks in.
    pub delay_high: f64,
    /// Additive widening steps `(lo, width)` under duplicate pressure.
    pub widen: (f64, f64),
    /// Subtractive narrowing steps `(lo, width)` for quiet slow rounds.
    pub narrow: (f64, f64),
    /// Floors `(min_lo, min_width)` preventing window collapse.
    pub floor: (f64, f64),
}

impl Default for AdaptiveConfig {
    /// The published SRM §V structure: gain 1/4, widen +0.1/+0.5, narrow
    /// −0.05/−0.1, floors 0.5, duplicate thresholds 1.0/0.25.
    /// `delay_high` is the callers' divergence point; the default is
    /// SRM's 1.5.
    fn default() -> AdaptiveConfig {
        AdaptiveConfig {
            gain: 0.25,
            dup_high: 1.0,
            dup_low: 0.25,
            delay_high: 1.5,
            widen: (0.1, 0.5),
            narrow: (0.05, 0.1),
            floor: (0.5, 0.5),
        }
    }
}

/// One adaptive window `[lo·d, (lo+width)·d]`.
#[derive(Clone, Debug)]
pub struct AdaptiveTimer {
    cfg: AdaptiveConfig,
    lo: f64,
    width: f64,
    ave_dup: f64,
    ave_delay: f64,
    round_dups: u32,
    enabled: bool,
}

impl AdaptiveTimer {
    /// Creates the adapter with initial window factors.
    pub fn new(lo: f64, width: f64, enabled: bool, cfg: AdaptiveConfig) -> AdaptiveTimer {
        AdaptiveTimer {
            cfg,
            lo,
            width,
            ave_dup: 0.0,
            ave_delay: 1.0,
            round_dups: 0,
            enabled,
        }
    }

    /// Current window start factor (C1/D1).
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Current window width factor (C2/D2).
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Current duplicate-pressure EWMA (diagnostics / probes).
    pub fn ave_dup(&self) -> f64 {
        self.ave_dup
    }

    /// Current recovery-delay EWMA in units of `d` (diagnostics / probes).
    pub fn ave_delay(&self) -> f64 {
        self.ave_delay
    }

    /// Turns adaptation on or off mid-run.  Turning it on resets the
    /// round's duplicate count so the next round starts clean; EWMAs were
    /// never fed while disabled, so they are already unbiased.
    pub fn set_enabled(&mut self, enabled: bool) {
        if enabled && !self.enabled {
            self.round_dups = 0;
        }
        self.enabled = enabled;
    }

    /// Records an overheard duplicate (request or repair) for the current
    /// recovery round.  Inert while disabled.
    pub fn saw_duplicate(&mut self) {
        if !self.enabled {
            return;
        }
        self.round_dups = self.round_dups.saturating_add(1);
    }

    /// Closes a recovery round: folds the round's duplicate count and
    /// this member's own timer delay (in units of `d`) into the EWMAs,
    /// then adjusts the window.  Inert while disabled (no EWMA
    /// bookkeeping either — see the module docs).
    pub fn end_round(&mut self, own_delay_in_d: f64) {
        if !self.enabled {
            self.round_dups = 0;
            return;
        }
        let dups = self.round_dups as f64;
        self.round_dups = 0;
        self.ave_dup += self.cfg.gain * (dups - self.ave_dup);
        self.ave_delay += self.cfg.gain * (own_delay_in_d - self.ave_delay);
        if self.ave_dup >= self.cfg.dup_high {
            // Duplicate pressure: widen for better suppression.
            self.lo += self.cfg.widen.0;
            self.width += self.cfg.widen.1;
        } else if self.ave_dup < self.cfg.dup_low && self.ave_delay > self.cfg.delay_high {
            // Quiet but slow: narrow cautiously.
            self.lo = (self.lo - self.cfg.narrow.0).max(self.cfg.floor.0);
            self.width = (self.width - self.cfg.narrow.1).max(self.cfg.floor.1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(enabled: bool) -> AdaptiveTimer {
        AdaptiveTimer::new(2.0, 2.0, enabled, AdaptiveConfig::default())
    }

    #[test]
    fn duplicate_pressure_widens_window() {
        let mut t = timer(true);
        for _ in 0..8 {
            for _ in 0..4 {
                t.saw_duplicate();
            }
            t.end_round(1.0);
        }
        assert!(
            t.lo() > 2.0 && t.width() > 2.0,
            "({}, {})",
            t.lo(),
            t.width()
        );
        assert!(t.ave_dup() > 1.0);
    }

    #[test]
    fn quiet_slow_rounds_narrow_to_floors() {
        let mut t = timer(true);
        for _ in 0..100 {
            t.end_round(10.0);
        }
        assert_eq!((t.lo(), t.width()), (0.5, 0.5));
    }

    #[test]
    fn quiet_fast_rounds_hold() {
        let mut t = timer(true);
        for _ in 0..10 {
            t.end_round(0.5);
        }
        assert_eq!((t.lo(), t.width()), (2.0, 2.0));
    }

    #[test]
    fn disabled_adapter_is_fully_inert() {
        let mut t = timer(false);
        for _ in 0..20 {
            t.saw_duplicate();
            t.saw_duplicate();
            t.end_round(10.0);
        }
        assert_eq!((t.lo(), t.width()), (2.0, 2.0));
        // Regression for the pre-fix behaviour: the EWMAs used to keep
        // folding while disabled, so a mid-run enable inherited averages
        // accumulated under fixed-window dynamics.
        assert_eq!(t.ave_dup(), 0.0);
        assert_eq!(t.ave_delay(), 1.0);
    }

    #[test]
    fn enabling_mid_run_starts_from_clean_state() {
        let mut t = timer(false);
        // Heavy disabled-phase traffic that would have biased the EWMAs.
        for _ in 0..20 {
            for _ in 0..5 {
                t.saw_duplicate();
            }
            t.end_round(10.0);
        }
        t.set_enabled(true);
        assert_eq!(t.ave_dup(), 0.0);
        assert_eq!(t.ave_delay(), 1.0);
        // First live round behaves exactly like a fresh adapter's.
        let mut fresh = timer(true);
        t.saw_duplicate();
        fresh.saw_duplicate();
        t.end_round(2.0);
        fresh.end_round(2.0);
        assert_eq!(t.ave_dup(), fresh.ave_dup());
        assert_eq!(t.ave_delay(), fresh.ave_delay());
        assert_eq!((t.lo(), t.width()), (fresh.lo(), fresh.width()));
    }

    #[test]
    fn delay_high_divergence_changes_narrowing_onset() {
        // The two call sites intentionally diverge in delay_high: SRM's
        // 1.5 narrows on moderately slow rounds, the core's 4.0 only on
        // very slow ones.  Pin both behaviours through the shared code.
        let srm = AdaptiveConfig::default();
        let core = AdaptiveConfig {
            delay_high: 4.0,
            ..AdaptiveConfig::default()
        };
        let run = |cfg: AdaptiveConfig| {
            let mut t = AdaptiveTimer::new(2.0, 2.0, true, cfg);
            for _ in 0..12 {
                t.end_round(3.0); // quiet, moderately slow rounds
            }
            (t.lo(), t.width())
        };
        assert!(run(srm).0 < 2.0, "SRM narrows at delay 3.0 > 1.5");
        assert_eq!(run(core), (2.0, 2.0), "core holds: 3.0 < 4.0");
    }
}
