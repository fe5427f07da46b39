//! Simulated time.
//!
//! The clock is an integer number of nanoseconds since the start of the
//! simulation. Keeping the clock integral (rather than `f64` seconds) makes
//! event ordering exact and runs byte-for-byte reproducible across platforms.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};
use serde::Serialize;

/// An instant on the simulated clock, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Time since start as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time since start as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier` is
    /// in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// Largest representable duration; used as an "infinite" sentinel (e.g.
    /// an unreachable timeout).
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from fractional seconds, rounding to the nearest nanosecond.
    ///
    /// Negative or non-finite inputs clamp to zero: duration arithmetic in
    /// the protocol stack (e.g. RTO computation) must never go backwards in
    /// time.
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((s * 1e9).round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating addition.
    pub fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiply by an integer factor, saturating at the maximum.
    pub fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }

    /// Scale by a non-negative float factor (clamped), rounding to the
    /// nearest nanosecond.
    pub fn mul_f64(self, k: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * k)
    }

    /// The larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Clamp into `[lo, hi]`.
    pub fn clamp(self, lo: SimDuration, hi: SimDuration) -> SimDuration {
        debug_assert!(lo <= hi);
        self.max(lo).min(hi)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Panics in debug builds if `rhs` is later than `self`.
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(rhs <= self, "negative SimTime difference");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(d.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(d.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, d: SimDuration) {
        *self = *self - d;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, k: u64) -> SimDuration {
        SimDuration(self.0 / k)
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
        if self.0 == u64::MAX {
            write!(f, "inf")
        } else if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Transmission (serialization) delay of `bytes` at `bits_per_sec`.
///
/// This is the canonical bandwidth→delay conversion used by every link model;
/// keeping it here guarantees all components quantize identically.
pub fn serialization_delay(bytes: usize, bits_per_sec: u64) -> SimDuration {
    assert!(bits_per_sec > 0, "link rate must be positive");
    // bytes × 8 × 10⁹ fits a u64 for anything under 2.3 GB — every frame —
    // which spares the 128-bit division (a library call) per link service.
    let ns = match (bytes as u64).checked_mul(8 * 1_000_000_000) {
        Some(bit_ns) => bit_ns.div_ceil(bits_per_sec),
        None => serialization_delay_wide(bytes, bits_per_sec),
    };
    SimDuration::from_nanos(ns)
}

/// [`serialization_delay`] in 128-bit arithmetic, saturating at `u64::MAX` ns.
fn serialization_delay_wide(bytes: usize, bits_per_sec: u64) -> u64 {
    let bit_ns = bytes as u128 * 8 * 1_000_000_000;
    bit_ns.div_ceil(bits_per_sec as u128).min(u64::MAX as u128) as u64
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(2), SimTime::from_millis(2_000));
        assert_eq!(SimTime::from_millis(3), SimTime::from_micros(3_000));
        assert_eq!(SimTime::from_micros(5), SimTime::from_nanos(5_000));
        assert_eq!(SimDuration::from_secs(1).as_nanos(), 1_000_000_000);
    }

    #[test]
    fn arithmetic_roundtrip() {
        let t = SimTime::from_millis(100);
        let d = SimDuration::from_millis(40);
        assert_eq!((t + d) - t, d);
        assert_eq!(t + SimDuration::ZERO, t);
    }

    #[test]
    fn saturating_since_clamps() {
        let early = SimTime::from_millis(10);
        let late = SimTime::from_millis(20);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_millis(10));
    }

    #[test]
    fn from_secs_f64_clamps_bad_input() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs_f64(0.5),
            SimDuration::from_millis(500)
        );
    }

    #[test]
    fn serialization_delay_exact() {
        // 1500 bytes at 12 Mbps = 1 ms.
        assert_eq!(
            serialization_delay(1500, 12_000_000),
            SimDuration::from_millis(1)
        );
        // Rounds up to whole nanoseconds.
        assert_eq!(serialization_delay(1, 8_000_000_000).as_nanos(), 1);
        assert_eq!(serialization_delay(0, 1_000_000), SimDuration::ZERO);
    }

    #[test]
    fn serialization_delay_narrow_path_rounds_like_the_wide_one() {
        // Every rate crates/link/src/presets.rs uses, over every frame size
        // a 16-bit IP length can carry.
        const PRESET_RATES: [u64; 25] = [
            280_000, 400_000, 500_000, 600_000, 800_000, 1_000_000, 1_100_000, 1_500_000,
            2_200_000, 2_800_000, 4_000_000, 5_000_000, 6_000_000, 7_000_000, 8_000_000,
            9_000_000, 10_000_000, 12_000_000, 15_000_000, 16_000_000, 18_000_000, 22_000_000,
            35_000_000, 60_000_000, 1_000_000_000,
        ];
        for rate in PRESET_RATES {
            for bytes in 0..=65_535usize {
                assert_eq!(
                    serialization_delay(bytes, rate).as_nanos(),
                    serialization_delay_wide(bytes, rate),
                    "{bytes} bytes at {rate} bps"
                );
            }
        }
        // Past the u64 product the wide path takes over and saturates.
        assert_eq!(serialization_delay(usize::MAX, 1), SimDuration::MAX);
    }

    proptest! {
        #[test]
        fn serialization_delay_paths_agree_everywhere(
            bytes in (any::<u64>(), 0u32..64).prop_map(|(x, s)| (x >> s) as usize),
            rate in (any::<u64>(), 0u32..64).prop_map(|(x, s)| (x >> s).max(1)),
        ) {
            prop_assert_eq!(
                serialization_delay(bytes, rate).as_nanos(),
                serialization_delay_wide(bytes, rate)
            );
        }
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_millis(10);
        assert_eq!(d * 3, SimDuration::from_millis(30));
        assert_eq!(d / 2, SimDuration::from_millis(5));
        assert_eq!(d.mul_f64(1.5), SimDuration::from_millis(15));
        assert_eq!(d.mul_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn clamp_behaviour() {
        let lo = SimDuration::from_millis(200);
        let hi = SimDuration::from_secs(60);
        assert_eq!(SimDuration::from_millis(1).clamp(lo, hi), lo);
        assert_eq!(SimDuration::from_secs(100).clamp(lo, hi), hi);
        let mid = SimDuration::from_secs(1);
        assert_eq!(mid.clamp(lo, hi), mid);
    }
}
