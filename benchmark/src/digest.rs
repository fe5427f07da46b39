//! FNV-1a over the outputs of a repetition. The simulator is deterministic,
//! so every repetition of a workload must hash to the warm-up's digest: a
//! speed-only change leaves it identical, a protocol change must say why it
//! moved.

/// 64-bit FNV-1a, fed whole integers (little-endian bytes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(xs: &[u64]) -> u64 {
        let mut d = Digest::new();
        for &x in xs {
            d.u64(x);
        }
        d.value()
    }

    #[test]
    fn matches_the_reference_fnv1a_vectors() {
        // FNV-1a 64 of the empty input is the offset basis; of eight zero
        // bytes it is the basis multiplied by the prime eight times.
        assert_eq!(Digest::new().value(), 0xcbf2_9ce4_8422_2325);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for _ in 0..8 {
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(of(&[0]), h);
    }

    #[test]
    fn is_stable_and_order_sensitive() {
        assert_eq!(of(&[1, 2, 3]), of(&[1, 2, 3]));
        assert_ne!(of(&[1, 2, 3]), of(&[3, 2, 1]));
        assert_ne!(of(&[1, 2, 3]), of(&[1, 2, 4]));
        assert_ne!(of(&[1]), of(&[1, 0]));
    }
}
