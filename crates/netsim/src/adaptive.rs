//! The SRM §V adaptive timer-window adjustment, shared by the protocol
//! crates.
//!
//! Both `sharqfec-srm` (the baseline's request/repair windows) and
//! `sharqfec-core` (the paper's §7 future-work extension of the NACK
//! window) adapt a suppression window `[lo·d, (lo+width)·d]` from the
//! same two EWMAs: duplicate requests/repairs overheard per recovery
//! round, and the member's own recovery delay in units of the distance
//! `d`.  The two crates had drifted copies of this logic; this module is
//! the single implementation.  The gain, steps and floors are SRM §V's
//! and sit beside their reader, [`AdaptiveTimer::end_round`]; the one
//! trigger that varies, `delay_high`, is each caller's constructor
//! argument (the two intentionally diverge — see `DELAY_HIGH` in
//! `sharqfec-core::agent` and `sharqfec-srm`).
//!
//! Semantics when disabled: the adapter is *inert* — `saw_duplicate` and
//! `end_round` change nothing, neither the window nor the EWMAs.  Whether
//! it adapts is fixed at construction; there is no mid-run enable.

/// One adaptive window `[lo·d, (lo+width)·d]`.
#[derive(Clone, Debug)]
pub struct AdaptiveTimer {
    /// Delay (in units of `d`) above which narrowing kicks in.
    delay_high: f64,
    lo: f64,
    width: f64,
    ave_dup: f64,
    ave_delay: f64,
    round_dups: u32,
    enabled: bool,
}

impl AdaptiveTimer {
    /// Creates the adapter with initial window factors and its `delay_high`.
    pub fn new(lo: f64, width: f64, enabled: bool, delay_high: f64) -> AdaptiveTimer {
        AdaptiveTimer {
            delay_high,
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

    /// Records an overheard duplicate (request or repair) for the current
    /// recovery round.  Inert while disabled.
    pub fn saw_duplicate(&mut self) {
        if !self.enabled {
            return;
        }
        self.round_dups = self.round_dups.saturating_add(1);
    }

    /// EWMA gain for the duplicate/delay averages (SRM: 1/4).
    const GAIN: f64 = 0.25;
    /// Duplicate pressure at or above which the window widens (SRM: ~1).
    const DUP_HIGH: f64 = 1.0;
    /// Duplicate pressure below which narrowing is considered.
    const DUP_LOW: f64 = 0.25;
    /// Additive widening steps `(lo, width)` under duplicate pressure
    /// (SRM §V: +0.1/+0.5).
    const WIDEN: (f64, f64) = (0.1, 0.5);
    /// Subtractive narrowing steps `(lo, width)` for quiet slow rounds
    /// (SRM §V: −0.05/−0.1).
    const NARROW: (f64, f64) = (0.05, 0.1);
    /// Floors `(min_lo, min_width)` preventing window collapse.
    const FLOOR: (f64, f64) = (0.5, 0.5);

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
        self.ave_dup += Self::GAIN * (dups - self.ave_dup);
        self.ave_delay += Self::GAIN * (own_delay_in_d - self.ave_delay);
        if self.ave_dup >= Self::DUP_HIGH {
            // Duplicate pressure: widen for better suppression.
            self.lo += Self::WIDEN.0;
            self.width += Self::WIDEN.1;
        } else if self.ave_dup < Self::DUP_LOW && self.ave_delay > self.delay_high {
            // Quiet but slow: narrow cautiously.
            self.lo = (self.lo - Self::NARROW.0).max(Self::FLOOR.0);
            self.width = (self.width - Self::NARROW.1).max(Self::FLOOR.1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(enabled: bool) -> AdaptiveTimer {
        AdaptiveTimer::new(2.0, 2.0, enabled, 1.5)
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
        // folding while disabled, so the averages reported were ones
        // accumulated under fixed-window dynamics.
        assert_eq!(t.ave_dup(), 0.0);
        assert_eq!(t.ave_delay(), 1.0);
    }

    #[test]
    fn delay_high_divergence_changes_narrowing_onset() {
        // The two call sites intentionally diverge in delay_high: SRM's
        // 1.5 narrows on moderately slow rounds, the core's 4.0 only on
        // very slow ones.  Pin both behaviours through the shared code.
        let run = |delay_high: f64| {
            let mut t = AdaptiveTimer::new(2.0, 2.0, true, delay_high);
            for _ in 0..12 {
                t.end_round(3.0); // quiet, moderately slow rounds
            }
            (t.lo(), t.width())
        };
        assert!(run(1.5).0 < 2.0, "SRM narrows at delay 3.0 > 1.5");
        assert_eq!(run(4.0), (2.0, 2.0), "core holds: 3.0 < 4.0");
    }
}
