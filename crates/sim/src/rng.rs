//! Reproducible random-number streams.
//!
//! Every simulation run is driven by a single root seed. Components draw from
//! *named streams* derived from that seed, so adding a random draw to one
//! component can never perturb the sequence seen by another — a property the
//! measurement harness depends on when comparing configurations run-for-run.
//!
//! The generator is a self-contained ChaCha8 keystream (no external crates),
//! keyed per stream. ChaCha8 gives high-quality, platform-independent output
//! at a few ns per draw, and the explicit implementation pins the sequence:
//! results can never shift under a dependency upgrade.

/// Factory for per-component random streams, keyed by `(root seed, stream id)`.
#[derive(Clone, Debug)]
pub struct RngFactory {
    root_seed: u64,
}

impl RngFactory {
    /// Create a factory for the given root seed.
    pub fn new(root_seed: u64) -> Self {
        RngFactory { root_seed }
    }

    /// Derive the stream with the given label. The same `(seed, label)` pair
    /// always yields an identical sequence.
    pub fn stream(&self, label: &str) -> SimRng {
        SimRng::from_parts(self.root_seed, label)
    }

    /// Derive a numbered sub-stream, e.g. one per replication.
    pub fn substream(&self, label: &str, index: u64) -> SimRng {
        SimRng::from_parts(self.root_seed, &format!("{label}#{index}"))
    }
}

/// The root seed of independent run `idx` of a campaign seeded `master` —
/// the one derivation every campaign uses, so a run can be replayed alone
/// from its `(master, idx)` pair.
pub fn derive_seed(master: u64, idx: u64) -> u64 {
    master.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(idx)
}

/// ChaCha8 keystream generator (RFC 7539 core, 8 rounds, 64-bit counter).
#[derive(Clone, Debug)]
struct ChaCha8 {
    key: [u32; 8],
    counter: u64,
    buf: [u32; 16],
    /// Next unread word in `buf`; 16 means "refill needed".
    idx: usize,
}

const CHACHA_CONSTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

impl ChaCha8 {
    #[expect(
        clippy::expect_used,
        reason = "chunks_exact guarantees every chunk is 4 bytes"
    )]
    fn from_seed(seed: [u8; 32]) -> Self {
        let mut key = [0u32; 8];
        for (i, chunk) in seed.chunks_exact(4).enumerate() {
            key[i] = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        ChaCha8 { key, counter: 0, buf: [0; 16], idx: 16 }
    }

    #[inline]
    fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
        s[a] = s[a].wrapping_add(s[b]);
        s[d] = (s[d] ^ s[a]).rotate_left(16);
        s[c] = s[c].wrapping_add(s[d]);
        s[b] = (s[b] ^ s[c]).rotate_left(12);
        s[a] = s[a].wrapping_add(s[b]);
        s[d] = (s[d] ^ s[a]).rotate_left(8);
        s[c] = s[c].wrapping_add(s[d]);
        s[b] = (s[b] ^ s[c]).rotate_left(7);
    }

    fn refill(&mut self) {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&CHACHA_CONSTS);
        state[4..12].copy_from_slice(&self.key);
        state[12] = self.counter as u32;
        state[13] = (self.counter >> 32) as u32;
        // state[14..16] is the nonce, fixed at zero: streams are separated
        // by key, not nonce.
        let initial = state;
        for _ in 0..4 {
            // Column round.
            Self::quarter_round(&mut state, 0, 4, 8, 12);
            Self::quarter_round(&mut state, 1, 5, 9, 13);
            Self::quarter_round(&mut state, 2, 6, 10, 14);
            Self::quarter_round(&mut state, 3, 7, 11, 15);
            // Diagonal round.
            Self::quarter_round(&mut state, 0, 5, 10, 15);
            Self::quarter_round(&mut state, 1, 6, 11, 12);
            Self::quarter_round(&mut state, 2, 7, 8, 13);
            Self::quarter_round(&mut state, 3, 4, 9, 14);
        }
        for (out, (s, i)) in self.buf.iter_mut().zip(state.iter().zip(initial.iter())) {
            *out = s.wrapping_add(*i);
        }
        self.counter = self.counter.wrapping_add(1);
        self.idx = 0;
    }

    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.idx >= 16 {
            self.refill();
        }
        let w = self.buf[self.idx];
        self.idx += 1;
        w
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let lo = u64::from(self.next_u32());
        let hi = u64::from(self.next_u32());
        lo | (hi << 32)
    }
}

/// A deterministic random stream handed to one component.
#[derive(Clone, Debug)]
pub struct SimRng {
    inner: ChaCha8,
}

impl SimRng {
    fn from_parts(root_seed: u64, label: &str) -> Self {
        // Mix the label into a 256-bit seed with a simple FNV-1a fold; the
        // ChaCha core does the heavy lifting for stream independence.
        let mut seed = [0u8; 32];
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ root_seed;
        for (i, chunk) in seed.chunks_mut(8).enumerate() {
            for &b in label.as_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            h ^= root_seed.rotate_left(i as u32 * 16 + 1);
            h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            chunk.copy_from_slice(&h.to_le_bytes());
        }
        SimRng { inner: ChaCha8::from_seed(seed) }
    }

    /// Seed a standalone stream directly (used by tests).
    pub fn seeded(seed: u64) -> Self {
        // splitmix64 expansion of the 64-bit seed into a 256-bit key.
        let mut state = seed;
        let mut bytes = [0u8; 32];
        for chunk in bytes.chunks_mut(8) {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            chunk.copy_from_slice(&z.to_le_bytes());
        }
        SimRng { inner: ChaCha8::from_seed(bytes) }
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn uniform(&mut self) -> f64 {
        (self.inner.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform() < p
        }
    }

    /// Uniform integer in `[lo, hi)`. Panics if the range is empty.
    ///
    /// Uses the widening-multiply reduction; the residual bias over a 64-bit
    /// draw is < 2⁻⁶⁴, far below anything a simulation could observe.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        let span = hi - lo;
        lo + ((u128::from(self.inner.next_u64()) * u128::from(span)) >> 64) as u64
    }

    /// Uniform `f64` in `(0, 1]` — safe to pass to `ln()`.
    fn uniform_open(&mut self) -> f64 {
        ((self.inner.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Exponentially distributed value with the given mean.
    ///
    /// Used for Poisson inter-arrivals of cross traffic and for randomized
    /// jitter processes.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "mean must be positive");
        -mean * self.uniform_open().ln()
    }

    /// Standard-normal draw via Box–Muller (single value; the pair's second
    /// half is intentionally discarded to keep the stream stateless).
    pub fn standard_normal(&mut self) -> f64 {
        let u1 = self.uniform_open();
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
    }

    /// Log-normal draw parameterized by the *target* mean and the sigma of
    /// the underlying normal. Heavy-tailed delays (cellular RTT spikes) use
    /// this shape.
    pub fn lognormal_with_mean(&mut self, target_mean: f64, sigma: f64) -> f64 {
        assert!(target_mean > 0.0);
        let mu = target_mean.ln() - sigma * sigma / 2.0;
        (mu + sigma * self.standard_normal()).exp()
    }

    /// Fresh 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_is_the_campaigns_historical_expression() {
        for (master, idx) in [(0u64, 0u64), (1, 0), (1, 41), (2013, 5_999), (u64::MAX, u64::MAX)] {
            assert_eq!(
                derive_seed(master, idx),
                master.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(idx)
            );
        }
        assert_eq!(derive_seed(1, 0), 0x9e37_79b9_7f4a_7c15);
        assert_eq!(derive_seed(7, 3), 0x5384_5412_7b09_6496);
    }

    #[test]
    fn streams_are_reproducible() {
        let f1 = RngFactory::new(42);
        let f2 = RngFactory::new(42);
        let mut a = f1.stream("wifi.loss");
        let mut b = f2.stream("wifi.loss");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn streams_are_independent_by_label() {
        let f = RngFactory::new(7);
        let mut a = f.stream("alpha");
        let mut b = f.stream("beta");
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = RngFactory::new(1).stream("x");
        let mut b = RngFactory::new(2).stream("x");
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seeded(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = SimRng::seeded(11);
        let n = 20_000;
        let mean = (0..n).map(|_| r.exponential(5.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.2, "mean was {mean}");
    }

    #[test]
    fn lognormal_mean_targets() {
        let mut r = SimRng::seeded(13);
        let n = 40_000;
        let mean = (0..n).map(|_| r.lognormal_with_mean(100.0, 0.8)).sum::<f64>() / n as f64;
        assert!((mean - 100.0).abs() < 5.0, "mean {mean}");
    }

    #[test]
    fn uniform_is_in_unit_interval_and_well_spread() {
        let mut r = SimRng::seeded(21);
        let n = 20_000;
        let mut mean = 0.0;
        for _ in 0..n {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
            mean += u;
        }
        mean /= n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn chacha_keystream_matches_reference_shape() {
        // Distinct counters must give unrelated blocks; draws never repeat
        // in short windows (keystream sanity, not a statistical test).
        let mut r = SimRng::seeded(0);
        let first: Vec<u64> = (0..64).map(|_| r.next_u64()).collect();
        let mut sorted = first.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), first.len(), "collision in 64 draws");
    }
}
