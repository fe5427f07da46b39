//! 32-bit wrapping TCP sequence-number arithmetic (RFC 793 §3.3).
//!
//! Comparisons are defined modulo 2³², valid while the window of interest is
//! smaller than 2³¹: at a distance of exactly 2³¹ the sign of
//! [`SeqNum::distance`] is `i32::MIN` in *both* directions, so `before` holds
//! both ways and ordering is meaningless. Receive windows ≤ 8 MB keep real
//! traffic far inside the contract, and the `TcpSocket::validate` oracle
//! (DESIGN.md §5.8) enforces `snd_nxt - snd_una < 2³¹` on every event, so a
//! stack bug that overdrives the window trips an invariant instead of
//! silently inverting comparisons.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};
use serde::{DeError, Deserialize, Serialize, Value};

/// A TCP sequence number.
///
/// ```
/// use mpw_tcp::SeqNum;
/// let a = SeqNum(u32::MAX - 1);
/// let b = a + 4; // wraps
/// assert!(a.before(b));
/// assert_eq!(b - a, 4);
/// ```
///
/// The raw 32 bits are private to this module: outside it a sequence number
/// can be built ([`SeqNum()`]), compared, advanced by a length and
/// subtracted from another, and nothing else. Reading the field, taking the
/// value apart with a pattern, and turning it back into an integer (the wire
/// codec's `pub(crate) to_wire`) each fail to compile from another crate, so
/// raw `+`/`-`/`as u32`/`wrapping_*` on a sequence number cannot be written
/// there:
///
/// ```compile_fail,E0616
/// let raw = mpw_tcp::SeqNum(7).raw; // private field
/// ```
///
/// ```compile_fail,E0532
/// let mpw_tcp::SeqNum(raw) = mpw_tcp::SeqNum(7); // a fn is not a pattern
/// ```
///
/// ```compile_fail,E0624
/// let next = mpw_tcp::SeqNum(7).to_wire() + 1; // crate-private
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SeqNum {
    raw: u32,
}

/// The one way to make a [`SeqNum`](struct@SeqNum) from raw bits (an initial sequence
/// number, a parsed header field, a test literal). It shares the type's name
/// so construction reads `SeqNum(x)` while the field stays private.
#[allow(non_snake_case)]
#[inline]
pub const fn SeqNum(raw: u32) -> SeqNum {
    SeqNum { raw }
}

// The wrapper costs nothing: four bytes, as the bare `u32` on the wire.
const _: () = assert!(core::mem::size_of::<SeqNum>() == 4);

impl SeqNum {
    /// The raw bits, for the wire encoder only.
    pub(crate) fn to_wire(self) -> u32 {
        self.raw
    }

    /// Signed distance from `other` to `self` (positive if `self` is after).
    pub fn distance(self, other: SeqNum) -> i32 {
        self.raw.wrapping_sub(other.raw) as i32
    }

    /// `self < other` in sequence space.
    pub fn before(self, other: SeqNum) -> bool {
        self.distance(other) < 0
    }

    /// `self <= other` in sequence space.
    pub fn before_eq(self, other: SeqNum) -> bool {
        self.distance(other) <= 0
    }

    /// `self > other` in sequence space.
    pub fn after(self, other: SeqNum) -> bool {
        self.distance(other) > 0
    }

    /// `self >= other` in sequence space.
    pub fn after_eq(self, other: SeqNum) -> bool {
        self.distance(other) >= 0
    }

    /// The later of two sequence numbers.
    pub fn max(self, other: SeqNum) -> SeqNum {
        if self.after_eq(other) {
            self
        } else {
            other
        }
    }

    /// The earlier of two sequence numbers.
    pub fn min(self, other: SeqNum) -> SeqNum {
        if self.before_eq(other) {
            self
        } else {
            other
        }
    }

    /// Whether `self` lies in the half-open interval `[lo, hi)`.
    pub fn within(self, lo: SeqNum, hi: SeqNum) -> bool {
        self.after_eq(lo) && self.before(hi)
    }
}

impl Add<u32> for SeqNum {
    type Output = SeqNum;
    fn add(self, n: u32) -> SeqNum {
        SeqNum(self.raw.wrapping_add(n))
    }
}

impl AddAssign<u32> for SeqNum {
    fn add_assign(&mut self, n: u32) {
        self.raw = self.raw.wrapping_add(n);
    }
}

impl Sub<SeqNum> for SeqNum {
    type Output = u32;
    /// Unsigned distance; callers must know `self` is not before `rhs`.
    fn sub(self, rhs: SeqNum) -> u32 {
        debug_assert!(self.after_eq(rhs), "negative SeqNum difference");
        self.raw.wrapping_sub(rhs.raw)
    }
}

/// Serialized as the bare number.
impl Serialize for SeqNum {
    fn to_value(&self) -> Value {
        self.raw.to_value()
    }
}

impl Deserialize for SeqNum {
    fn from_value(v: &Value) -> Result<SeqNum, DeError> {
        u32::from_value(v).map(SeqNum)
    }
}

impl fmt::Debug for SeqNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.raw)
    }
}

impl fmt::Display for SeqNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ordering_without_wrap() {
        let a = SeqNum(100);
        let b = SeqNum(200);
        assert!(a.before(b));
        assert!(b.after(a));
        assert!(a.before_eq(a));
        assert!(a.after_eq(a));
        assert_eq!(b - a, 100);
        assert_eq!(b.distance(a), 100);
        assert_eq!(a.distance(b), -100);
    }

    #[test]
    fn ordering_across_wrap() {
        let a = SeqNum(u32::MAX - 10);
        let b = a + 20; // wraps
        assert_eq!(b, SeqNum(9));
        assert!(a.before(b));
        assert!(b.after(a));
        assert_eq!(b - a, 20);
    }

    #[test]
    fn min_max_across_wrap() {
        let a = SeqNum(u32::MAX - 1);
        let b = SeqNum(5);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn within_interval() {
        let lo = SeqNum(u32::MAX - 5);
        let hi = lo + 10;
        assert!(lo.within(lo, hi));
        assert!((lo + 9).within(lo, hi));
        assert!(!hi.within(lo, hi));
        assert!(!(lo + 10).within(lo, hi));
        assert!(SeqNum(2).within(lo, hi)); // wrapped interior point
    }

    #[test]
    fn ordering_holds_at_the_largest_valid_distance() {
        // 2³¹ − 1 is the largest distance with a well-defined order.
        let d = (1u32 << 31) - 1;
        for base in [0u32, 1, u32::MAX, u32::MAX - 1, 1 << 31, (1 << 31) - 1] {
            let a = SeqNum(base);
            let b = a + d;
            assert!(a.before(b), "base {base}");
            assert!(b.after(a), "base {base}");
            assert!(!b.before(a), "base {base}");
            assert_eq!(b - a, d, "base {base}");
            assert_eq!(a.max(b), b, "base {base}");
            assert_eq!(a.min(b), a, "base {base}");
        }
    }

    #[test]
    fn distance_of_exactly_half_the_space_is_ambiguous() {
        // At exactly 2³¹ the wrapped difference is i32::MIN from *both*
        // sides: each endpoint claims to be before the other. This is the
        // documented contract edge; the socket invariant oracle keeps the
        // stack strictly inside it (snd_nxt − snd_una < 2³¹).
        for base in [0u32, 7, u32::MAX, 1 << 31] {
            let a = SeqNum(base);
            let b = a + (1 << 31);
            assert_eq!(a.distance(b), i32::MIN, "base {base}");
            assert_eq!(b.distance(a), i32::MIN, "base {base}");
            assert!(a.before(b) && b.before(a), "base {base}");
            assert!(!a.after(b) && !b.after(a), "base {base}");
        }
    }

    proptest! {
        #[test]
        fn distance_is_antisymmetric(x: u32, y: u32) {
            let a = SeqNum(x);
            let b = SeqNum(y);
            prop_assert_eq!(a.distance(b), a.distance(b));
            if a.distance(b) != i32::MIN {
                prop_assert_eq!(a.distance(b), -(b.distance(a)));
            }
        }

        #[test]
        fn add_then_sub_roundtrips(x: u32, n in 0u32..1_000_000) {
            let a = SeqNum(x);
            let b = a + n;
            prop_assert_eq!(b - a, n);
            prop_assert!(a.before_eq(b));
        }

        #[test]
        fn ordering_is_total_within_half_window(x: u32, d in 1u32..(1 << 31)) {
            let a = SeqNum(x);
            let b = a + d;
            prop_assert!(a.before(b));
            prop_assert!(!b.before(a));
            prop_assert_eq!(a.max(b), b);
            prop_assert_eq!(a.min(b), a);
        }
    }
}
