//! Simulation clock types.
//!
//! Time is kept as integer nanoseconds so that event ordering is exact and
//! runs are bit-reproducible; floating-point seconds appear only at the
//! edges (configuration and reporting).

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation clock (nanoseconds since t = 0).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulation time (nanoseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The start of simulated time, t = 0.
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; no event is ever scheduled here.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Builds an instant from whole seconds.
    pub const fn from_secs(s: u64) -> SimTime {
        SimTime(s * 1_000_000_000)
    }

    /// Builds an instant from whole milliseconds.
    pub const fn from_millis(ms: u64) -> SimTime {
        SimTime(ms * 1_000_000)
    }

    /// This instant as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Nanoseconds since t = 0.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Duration since an earlier instant; saturates at zero rather than
    /// panicking so clock-skew arithmetic in RTT estimators stays total.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// The largest representable span — routing uses it as the "node
    /// unreachable under the current link mask" sentinel.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Builds a span from whole seconds.
    pub const fn from_secs(s: u64) -> SimDuration {
        SimDuration(s * 1_000_000_000)
    }

    /// Builds a span from whole milliseconds.
    pub const fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1_000_000)
    }

    /// Builds a span from whole microseconds.
    #[cfg(test)]
    const fn from_micros(us: u64) -> SimDuration {
        SimDuration(us * 1_000)
    }

    /// Builds a span from fractional seconds (rounds to nanoseconds).
    pub fn from_secs_f64(s: f64) -> SimDuration {
        assert!(
            s >= 0.0 && s.is_finite(),
            "duration must be finite and >= 0"
        );
        SimDuration((s * 1e9).round() as u64)
    }

    /// This span as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Nanoseconds in this span.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Serialization time for `bytes` at `bits_per_sec`, rounded up to a
    /// whole nanosecond.
    ///
    /// # Panics
    ///
    /// Panics on a zero rate — infinitely fast links are represented
    /// explicitly (see `graph::Bandwidth::Infinite`), never by a zero
    /// sentinel.
    pub fn transmission(bytes: u32, bits_per_sec: u64) -> SimDuration {
        assert!(
            bits_per_sec > 0,
            "zero-rate transmission; use Bandwidth::Infinite for an \
             infinitely fast link"
        );
        let bits = bytes as u128 * 8;
        let nanos = (bits * 1_000_000_000).div_ceil(bits_per_sec as u128);
        SimDuration(nanos as u64)
    }

    /// Scales the span by a float factor (used for timer windows like
    /// "2.5 × RTT"); rounds to nanoseconds and saturates at zero.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(factor.is_finite(), "factor must be finite");
        let v = (self.0 as f64 * factor).round();
        SimDuration(if v <= 0.0 { 0 } else { v as u64 })
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction went negative"),
        )
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime minus duration went negative"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration subtraction went negative"),
        )
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self
            .0
            .checked_sub(rhs.0)
            .expect("SimDuration subtraction went negative");
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(2), SimTime::from_millis(2000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1000));
        assert_eq!(
            SimDuration::from_secs_f64(0.25),
            SimDuration::from_millis(250)
        );
    }

    #[test]
    fn arithmetic_round_trips() {
        let t = SimTime::from_secs(5);
        let d = SimDuration::from_millis(1500);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn transmission_time_matches_hand_math() {
        // 1000 bytes at 800 kbit/s = 10 ms exactly (the paper's data rate).
        assert_eq!(
            SimDuration::transmission(1000, 800_000),
            SimDuration::from_millis(10)
        );
        // 1000 bytes at 10 Mbit/s = 0.8 ms.
        assert_eq!(
            SimDuration::transmission(1000, 10_000_000),
            SimDuration::from_micros(800)
        );
    }

    #[test]
    #[should_panic(expected = "zero-rate transmission")]
    fn transmission_rejects_zero_rate() {
        // Infinitely fast links are Bandwidth::Infinite, never a 0 sentinel.
        let _ = SimDuration::transmission(1000, 0);
    }

    #[test]
    fn transmission_rounds_up() {
        // 1 byte at 3 bit/s: 8/3 s = 2.666..s -> ceil in nanos.
        let d = SimDuration::transmission(1, 3);
        assert_eq!(d.0, (8u64 * 1_000_000_000).div_ceil(3));
    }

    #[test]
    fn saturating_since_clamps() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(3);
        assert_eq!(late.saturating_since(early), SimDuration::from_secs(2));
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "went negative")]
    fn strict_subtraction_panics_when_negative() {
        let _ = SimTime::from_secs(1) - SimTime::from_secs(2);
    }

    #[test]
    fn mul_f64_rounds_and_clamps() {
        let d = SimDuration::from_secs(2);
        assert_eq!(d.mul_f64(2.5), SimDuration::from_secs(5));
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
        assert_eq!(d.mul_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn display_uses_seconds() {
        assert_eq!(format!("{}", SimTime::from_millis(1500)), "1.500000");
        assert_eq!(format!("{}", SimDuration::from_micros(250)), "0.000250");
    }

    #[test]
    fn scalar_mul_div() {
        let d = SimDuration::from_millis(20);
        assert_eq!(d * 3, SimDuration::from_millis(60));
        assert_eq!(d / 2, SimDuration::from_millis(10));
    }
}
