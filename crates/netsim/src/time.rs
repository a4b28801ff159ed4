//! Simulated time.
//!
//! The simulator clock is a monotonically increasing count of nanoseconds
//! since the start of the run. All scheduling is integer arithmetic so that a
//! run is a pure function of its inputs: there is no floating point anywhere
//! on the scheduling path (floats appear only in reporting helpers such as
//! [`SimTime::as_secs_f64`]).

// Other crates call these per frame, and rustc inlines across a crate
// boundary only what is marked (crates/netsim/DESIGN.md § Inlining policy).
#![deny(clippy::missing_inline_in_public_items)]

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub};

/// An instant in simulated time, in nanoseconds since the start of the run.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from a raw nanosecond count.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Seconds as a float, for reporting only.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Milliseconds as a float, for reporting only.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The span from `earlier` to `self`; saturates to zero if `earlier`
    /// is in the future.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a span.
    #[inline]
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from a raw nanosecond count.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from a float number of seconds (reporting/configuration
    /// convenience; rounds to the nearest nanosecond).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration((s * 1e9).round() as u64)
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Microseconds as a float, for reporting only.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Milliseconds as a float, for reporting only.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Seconds as a float, for reporting only.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True if the span is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// The time to serialize `bytes` octets at `bits_per_sec` onto a link.
    ///
    /// Integer arithmetic: `bytes * 8 * 1e9 / bits_per_sec`, in 64-bit
    /// when the product fits (every real frame: up to 2.3 GB) and in
    /// 128-bit otherwise — a 128-bit division is a library call.
    #[inline]
    pub fn serialization(bytes: usize, bits_per_sec: u64) -> SimDuration {
        assert!(bits_per_sec > 0, "link bandwidth must be positive");
        match (bytes as u64).checked_mul(8 * 1_000_000_000) {
            Some(bit_ns) => SimDuration(bit_ns / bits_per_sec),
            None => Self::serialization_wide(bytes, bits_per_sec),
        }
    }

    /// [`SimDuration::serialization`] in 128-bit arithmetic, saturating.
    #[cold]
    fn serialization_wide(bytes: usize, bits_per_sec: u64) -> SimDuration {
        let ns = bytes as u128 * 8 * 1_000_000_000 / bits_per_sec as u128;
        SimDuration(ns.min(u64::MAX as u128) as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_add(d.0)
                .expect("SimTime overflow: scheduled past u64 nanoseconds"),
        )
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, other: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(other.0)
                .expect("SimTime subtraction underflow"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(other.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, other: SimDuration) {
        *self = *self + other;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, other: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(other.0)
                .expect("SimDuration subtraction underflow"),
        )
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(k).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, k: u64) -> SimDuration {
        SimDuration(self.0 / k)
    }
}

impl fmt::Display for SimTime {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{:.6}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_ms(1000));
        assert_eq!(SimTime::from_ms(1), SimTime::from_us(1000));
        assert_eq!(SimTime::from_us(1), SimTime::from_ns(1000));
        assert_eq!(SimDuration::from_secs(2).as_ns(), 2_000_000_000);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_ms(5) + SimDuration::from_ms(3);
        assert_eq!(t, SimTime::from_ms(8));
        assert_eq!(t - SimTime::from_ms(5), SimDuration::from_ms(3));
        assert_eq!(SimDuration::from_ms(4) * 3, SimDuration::from_ms(12));
        assert_eq!(SimDuration::from_ms(9) / 3, SimDuration::from_ms(3));
    }

    #[test]
    fn serialization_time_100mbps() {
        // 1514-byte frame at 100 Mb/s = 121.12 us.
        let d = SimDuration::serialization(1514, 100_000_000);
        assert_eq!(d.as_ns(), 121_120);
        // Zero bytes serialize instantly.
        assert_eq!(SimDuration::serialization(0, 10_000_000), SimDuration::ZERO);
    }

    /// The 64-bit path and the 128-bit formula agree on both sides of the
    /// length where `bytes * 8e9` stops fitting in 64 bits.
    #[test]
    fn serialization_matches_the_128_bit_formula() {
        let fits = (u64::MAX / 8_000_000_000) as usize;
        assert!(
            (fits as u64).checked_mul(8_000_000_000).is_some()
                && (fits as u64 + 1).checked_mul(8_000_000_000).is_none()
        );
        for bps in [10_000_000u64, 100_000_000, 1_000_000_000] {
            for bytes in [0, 1, 64, 1518, 65_535, fits, fits + 1] {
                let wide = bytes as u128 * 8 * 1_000_000_000 / bps as u128;
                assert_eq!(
                    SimDuration::serialization(bytes, bps).as_ns() as u128,
                    wide.min(u64::MAX as u128),
                    "{bytes} B at {bps} b/s"
                );
            }
        }
    }

    #[test]
    fn saturating_since() {
        let a = SimTime::from_ms(10);
        let b = SimTime::from_ms(4);
        assert_eq!(a.saturating_since(b), SimDuration::from_ms(6));
        assert_eq!(b.saturating_since(a), SimDuration::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_ns(12)), "12ns");
        assert_eq!(format!("{}", SimDuration::from_us(12)), "12.000us");
        assert_eq!(format!("{}", SimDuration::from_ms(12)), "12.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(12)), "12.000000s");
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn subtraction_underflow_panics() {
        let _ = SimTime::from_ms(1) - SimTime::from_ms(2);
    }
}
