//! Seeded SplitMix64 PRNG.
//!
//! The whole fuzzing engine draws randomness exclusively from this
//! generator, seeded from the CLI: identical (seed, iters) configurations
//! produce byte-identical campaigns. SplitMix64 is the standard one-word
//! mixer (Steele, Lea & Flood 2014); it is fast, passes BigCrush, and —
//! unlike anything reading the OS entropy pool — keeps the determinism
//! lint wall happy.

/// Deterministic 64-bit generator.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng { state: seed }
    }

    /// Generator for iteration `index` of a campaign seeded with `seed`.
    ///
    /// Deriving each iteration's stream from the pair rather than from a
    /// running generator makes iteration `i` behave the same whatever ran
    /// before it, so a finding replays from its target, seed and iteration.
    pub fn for_iteration(seed: u64, index: u64) -> Rng {
        let mut r = Rng::new(seed.wrapping_add((index.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        r.next_u64();
        r
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (0 when `n == 0`).
    pub fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            (self.next_u64() % n as u64) as usize
        }
    }

    /// One random byte.
    pub fn byte(&mut self) -> u8 {
        self.next_u64() as u8
    }

    /// True with probability `num` in `den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        den != 0 && self.next_u64() % den < num
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn iteration_rngs_are_chunking_invariant() {
        // The stream for (seed, i) depends only on the pair.
        let xs: Vec<u64> = (0..10).map(|i| Rng::for_iteration(3, i).next_u64()).collect();
        let ys: Vec<u64> = (0..10).map(|i| Rng::for_iteration(3, i).next_u64()).collect();
        assert_eq!(xs, ys);
        // Distinct iterations diverge.
        assert_ne!(xs[0], xs[1]);
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = Rng::new(1);
        for n in 1..40usize {
            for _ in 0..20 {
                assert!(r.below(n) < n);
            }
        }
        assert_eq!(r.below(0), 0);
    }
}
