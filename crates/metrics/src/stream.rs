//! Streaming (constant-memory) distribution aggregates.
//!
//! Million-event campaigns (the 512 MB backlog runs of Figure 11, the
//! pooled per-packet RTT distributions of Figure 12) cannot afford to keep
//! every sample in a `Vec<f64>`: a single backlog transfer produces
//! hundreds of thousands of RTT observations per subflow. The types here
//! absorb samples one at a time in O(1) space:
//!
//! * [`StreamingStats`] — count / mean / M2 (Welford) plus min/max, with
//!   numerically stable pairwise merge (Chan et al.).
//! * [`LogHistogram`] — a fixed-budget log-bucketed histogram (16 buckets
//!   per octave) supporting mergeable quantiles, CDF/CCDF queries and the
//!   log-spaced series the CCDF figures plot.
//! * [`DistSummary`] — the composition used by the measurement harness:
//!   exact moments + histogram shape, serializable and mergeable.
//!
//! Each RTT and out-of-order delay sample the TCP/MPTCP layers take lands
//! in one [`DistSummary`] and nowhere else; only the wire analyzer keeps
//! an exact vector, as the capture cross-check's reference side.

use serde::{Deserialize, Serialize};

/// Count / mean / M2 running moments (Welford), with min/max.
///
/// ```
/// use mpw_metrics::StreamingStats;
/// let mut s = StreamingStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] { s.push(x); }
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.std_dev() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StreamingStats {
    /// Sample count.
    pub n: u64,
    /// Running mean.
    pub mean: f64,
    /// Sum of squared deviations from the mean (Welford's M2).
    pub m2: f64,
    /// Minimum seen (0 when empty).
    pub min: f64,
    /// Maximum seen (0 when empty).
    pub max: f64,
}

impl StreamingStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        StreamingStats::default()
    }

    /// Absorb one sample (non-finite values are ignored).
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        if self.n == 0 {
            self.min = x;
            self.max = x;
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Absorb another accumulator (Chan et al. parallel combination).
    pub fn merge(&mut self, other: &StreamingStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Sample count as usize.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Whether no sample has been absorbed.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Running mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample variance (n−1 denominator; 0 for fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.n > 1 {
            self.m2 / (self.n - 1) as f64
        } else {
            0.0
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

/// Buckets per octave (relative bucket width 2^(1/16) ≈ 4.4%).
const SUB: u32 = 16;
/// Lowest finite bucket edge; values below land in the underflow bucket.
const LO_EDGE: f64 = 0.0078125; // 2^-7
/// Octaves covered; with LO_EDGE this spans ~0.008 .. 8.4e6 (2^23).
const OCTAVES: u32 = 30;
/// Finite bucket count (fixed memory budget: 480 × 8 B).
const BUCKETS: usize = (SUB * OCTAVES) as usize;

/// Fixed-budget log-bucketed histogram.
///
/// The layout is identical for every instance (16 log₂ sub-buckets per
/// octave over ~0.008–8.4e6), so histograms merge by element-wise count
/// addition — exactly what pooling per-run distributions into a per-figure
/// distribution needs. Quantiles interpolate geometrically inside a bucket
/// and are clamped to the exact observed min/max, giving ≤ ~2% relative
/// error at constant memory.
///
/// ```
/// use mpw_metrics::LogHistogram;
/// let mut h = LogHistogram::new();
/// for i in 1..=1000 { h.push(i as f64); }
/// let p50 = h.quantile(0.5);
/// assert!((p50 / 500.0 - 1.0).abs() < 0.05);
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LogHistogram {
    /// Finite bucket counts (fixed layout, see [`LogHistogram`]).
    counts: Vec<u64>,
    /// Samples below the lowest edge (incl. zeros and negatives).
    underflow: u64,
    /// Samples at or above the highest edge.
    overflow: u64,
    /// Total samples.
    n: u64,
    /// Exact smallest sample (0 when empty).
    min: f64,
    /// Exact largest sample (0 when empty).
    max: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// Empty histogram (the full bucket vector is allocated up front; the
    /// memory budget is fixed and independent of sample count).
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0; BUCKETS],
            underflow: 0,
            overflow: 0,
            n: 0,
            min: 0.0,
            max: 0.0,
        }
    }

    /// Lower edge of finite bucket `i`.
    fn edge(i: usize) -> f64 {
        LO_EDGE * (i as f64 / SUB as f64).exp2()
    }

    /// Absorb one sample (non-finite values are ignored).
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        if self.n == 0 {
            self.min = x;
            self.max = x;
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        self.n += 1;
        if x < LO_EDGE {
            self.underflow += 1;
        } else {
            let idx = ((x / LO_EDGE).log2() * SUB as f64).floor() as usize;
            if idx >= BUCKETS {
                self.overflow += 1;
            } else {
                self.counts[idx] += 1;
            }
        }
    }

    /// Merge another histogram (identical fixed layout by construction).
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.n += other.n;
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Total samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Whether no sample has been absorbed.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Exact smallest sample (0 when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Exact largest sample (0 when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Fraction of samples ≤ `x` (the empirical CDF), interpolating
    /// geometrically inside the straddling bucket.
    pub fn frac_le(&self, x: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        if x >= self.max {
            return 1.0;
        }
        if x < self.min {
            return 0.0;
        }
        let mut acc = 0.0;
        // Underflow samples all lie in [min, LO_EDGE).
        if x >= LO_EDGE {
            acc += self.underflow as f64;
        } else {
            // Interpolate linearly across the underflow span.
            let span = (LO_EDGE - self.min).max(f64::MIN_POSITIVE);
            let frac = ((x - self.min) / span).clamp(0.0, 1.0);
            return (self.underflow as f64 * frac) / self.n as f64;
        }
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let lo = Self::edge(i);
            let hi = Self::edge(i + 1);
            if hi <= x {
                acc += c as f64;
            } else if lo <= x {
                // Geometric (log-space) interpolation within the bucket.
                let frac = (x / lo).log2() * SUB as f64;
                acc += c as f64 * frac.clamp(0.0, 1.0);
                break;
            } else {
                break;
            }
        }
        // Overflow samples lie in [top_edge, max]; x < max was handled
        // above, so interpolate across that span.
        let top = Self::edge(BUCKETS);
        if x >= top && self.overflow > 0 {
            let span = (self.max - top).max(f64::MIN_POSITIVE);
            let frac = ((x - top) / span).clamp(0.0, 1.0);
            acc += self.overflow as f64 * frac;
        }
        (acc / self.n as f64).clamp(0.0, 1.0)
    }

    /// Fraction of samples > `x` (the empirical CCDF).
    pub fn frac_above(&self, x: f64) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            1.0 - self.frac_le(x)
        }
    }

    /// The q-quantile, interpolated within its bucket and clamped to the
    /// exact observed [min, max].
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.n as f64;
        let mut acc = self.underflow as f64;
        if target <= acc && self.underflow > 0 {
            // Within the underflow span [min, LO_EDGE).
            let frac = target / self.underflow as f64;
            return (self.min + (LO_EDGE.min(self.max) - self.min) * frac)
                .clamp(self.min, self.max);
        }
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if acc + c as f64 >= target {
                let frac = ((target - acc) / c as f64).clamp(0.0, 1.0);
                let lo = Self::edge(i);
                // Geometric interpolation: lo · 2^(frac/SUB).
                let v = lo * (frac / SUB as f64).exp2();
                return v.clamp(self.min, self.max);
            }
            acc += c as f64;
        }
        // Overflow span [top_edge, max].
        if self.overflow > 0 {
            let frac = ((target - acc) / self.overflow as f64).clamp(0.0, 1.0);
            let top = Self::edge(BUCKETS).max(self.min);
            return (top + (self.max - top) * frac).clamp(self.min, self.max);
        }
        self.max
    }

    /// `(x, P(X > x))` pairs at `points` log-spaced x values spanning the
    /// observed range — same contract as [`crate::Ccdf::log_series`].
    pub fn log_series(&self, points: usize, floor: f64) -> Vec<(f64, f64)> {
        if self.n == 0 || points == 0 {
            return Vec::new();
        }
        let lo = self.min.max(floor);
        let hi = self.max.max(lo * (1.0 + 1e-9));
        let (llo, lhi) = (lo.ln(), hi.ln());
        (0..points)
            .map(|i| {
                let x = (llo + (lhi - llo) * i as f64 / (points - 1).max(1) as f64).exp();
                (x, self.frac_above(x))
            })
            .collect()
    }
}

/// Streaming distribution summary: exact moments ([`StreamingStats`]) plus
/// histogram shape ([`LogHistogram`]). Constant memory, mergeable, and
/// serializable — the replacement for `Vec<f64>` sample accumulation in
/// measurement outputs.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct DistSummary {
    /// Running moments (exact mean / variance / min / max).
    pub stats: StreamingStats,
    /// Log-bucketed shape (quantiles, CDF/CCDF queries).
    pub hist: LogHistogram,
}

impl DistSummary {
    /// Empty summary.
    pub fn new() -> Self {
        DistSummary::default()
    }

    /// Absorb one sample.
    pub fn push(&mut self, x: f64) {
        self.stats.push(x);
        self.hist.push(x);
    }

    /// Merge another summary.
    pub fn merge(&mut self, other: &DistSummary) {
        self.stats.merge(&other.stats);
        self.hist.merge(&other.hist);
    }

    /// Samples absorbed.
    pub fn count(&self) -> u64 {
        self.stats.n
    }

    /// Whether no sample has been absorbed.
    pub fn is_empty(&self) -> bool {
        self.stats.n == 0
    }

    /// Exact running mean.
    pub fn mean(&self) -> f64 {
        self.stats.mean
    }

    /// Exact minimum.
    pub fn min(&self) -> f64 {
        self.stats.min
    }

    /// Exact maximum.
    pub fn max(&self) -> f64 {
        self.stats.max
    }

    /// Approximate q-quantile (≤ ~2% relative error, exact at the ends).
    pub fn quantile(&self, q: f64) -> f64 {
        self.hist.quantile(q)
    }

    /// Fraction of samples ≤ `x`.
    pub fn frac_le(&self, x: f64) -> f64 {
        self.hist.frac_le(x)
    }

    /// Fraction of samples > `x`.
    pub fn frac_above(&self, x: f64) -> f64 {
        self.hist.frac_above(x)
    }

    /// Log-spaced CCDF series (see [`LogHistogram::log_series`]).
    pub fn log_series(&self, points: usize, floor: f64) -> Vec<(f64, f64)> {
        self.hist.log_series(points, floor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;
    use proptest::prelude::*;

    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut s = seed.max(1);
        move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    #[test]
    fn streaming_stats_match_batch_summary() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let batch = Summary::of(&xs);
        let mut s = StreamingStats::new();
        for &x in &xs {
            s.push(x);
        }
        assert_eq!(s.count() as usize, batch.n);
        assert!((s.mean() - batch.mean).abs() < 1e-12);
        assert!((s.std_dev() - batch.std_dev).abs() < 1e-12);
        assert_eq!(s.min, batch.min);
        assert_eq!(s.max, batch.max);
    }

    #[test]
    fn streaming_stats_merge_equals_concat() {
        let mut rnd = lcg(7);
        let xs: Vec<f64> = (0..500).map(|_| rnd() * 100.0).collect();
        let (a, b) = xs.split_at(137);
        let mut sa = StreamingStats::new();
        let mut sb = StreamingStats::new();
        a.iter().for_each(|&x| sa.push(x));
        b.iter().for_each(|&x| sb.push(x));
        sa.merge(&sb);
        let mut whole = StreamingStats::new();
        xs.iter().for_each(|&x| whole.push(x));
        assert_eq!(sa.n, whole.n);
        assert!((sa.mean - whole.mean).abs() < 1e-9);
        assert!((sa.std_dev() - whole.std_dev()).abs() < 1e-9);
        assert_eq!(sa.min, whole.min);
        assert_eq!(sa.max, whole.max);
    }

    #[test]
    fn streaming_stats_empty_and_single() {
        let mut s = StreamingStats::new();
        assert!(s.is_empty());
        assert_eq!((s.mean(), s.std_dev()), (0.0, 0.0));
        s.push(3.5);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.std_dev(), 0.0);
        let mut t = StreamingStats::new();
        t.merge(&s);
        assert_eq!(t.mean(), 3.5);
        s.merge(&StreamingStats::new());
        assert_eq!(s.n, 1);
    }

    #[test]
    fn log_histogram_quantiles_close_to_exact() {
        let mut rnd = lcg(11);
        let xs: Vec<f64> = (0..10_000).map(|_| 1.0 + rnd() * 999.0).collect();
        let mut h = LogHistogram::new();
        xs.iter().for_each(|&x| h.push(x));
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.1, 0.5, 0.9, 0.99] {
            let exact = crate::stats::quantile_sorted(&sorted, q);
            let got = h.quantile(q);
            assert!(
                (got / exact - 1.0).abs() < 0.05,
                "q{q}: got {got} exact {exact}"
            );
        }
        assert_eq!(h.quantile(0.0), h.min());
        assert_eq!(h.quantile(1.0), h.max());
    }

    #[test]
    fn log_histogram_frac_le_matches_ccdf() {
        let xs: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        let mut h = LogHistogram::new();
        xs.iter().for_each(|&x| h.push(x));
        let c = crate::Ccdf::of(&xs);
        for x in [1.0, 10.0, 123.0, 500.0, 999.0, 1000.0, 2000.0] {
            let got = h.frac_above(x);
            let exact = c.at(x);
            assert!(
                (got - exact).abs() < 0.03,
                "x={x}: hist {got} exact {exact}"
            );
        }
        assert_eq!(h.frac_above(1000.0), 0.0);
        assert_eq!(h.frac_le(0.5), 0.0);
    }

    #[test]
    fn log_histogram_merge_equals_concat() {
        let mut rnd = lcg(5);
        let xs: Vec<f64> = (0..2000).map(|_| rnd() * 5000.0).collect();
        let (a, b) = xs.split_at(700);
        let mut ha = LogHistogram::new();
        let mut hb = LogHistogram::new();
        a.iter().for_each(|&x| ha.push(x));
        b.iter().for_each(|&x| hb.push(x));
        ha.merge(&hb);
        let mut whole = LogHistogram::new();
        xs.iter().for_each(|&x| whole.push(x));
        assert_eq!(ha, whole);
    }

    #[test]
    fn log_histogram_handles_zeros_and_extremes() {
        let mut h = LogHistogram::new();
        // Zeros (in-order OFO samples) land in the underflow bucket.
        for _ in 0..90 {
            h.push(0.0);
        }
        for _ in 0..10 {
            h.push(100.0);
        }
        assert_eq!(h.count(), 100);
        assert!((h.frac_le(0.5) - 0.9).abs() < 1e-9);
        assert!((h.frac_above(50.0) - 0.1).abs() < 0.01);
        assert!(h.quantile(0.5) < 0.01);
        assert_eq!(h.quantile(1.0), 100.0);
        // Beyond-range values go to overflow but keep exact max.
        let mut big = LogHistogram::new();
        big.push(1e9);
        big.push(1.0);
        assert_eq!(big.max(), 1e9);
        assert_eq!(big.quantile(1.0), 1e9);
        assert_eq!(big.frac_above(2e9), 0.0);
    }

    #[test]
    fn log_series_spans_range_and_is_nonincreasing() {
        let mut h = LogHistogram::new();
        (1..=1000).for_each(|i| h.push(i as f64));
        let series = h.log_series(20, 1e-3);
        assert_eq!(series.len(), 20);
        assert!((series[0].0 - 1.0).abs() < 1e-9);
        assert!((series[19].0 - 1000.0).abs() < 1e-6);
        for w in series.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-12);
        }
        assert!(LogHistogram::new().log_series(10, 1e-3).is_empty());
    }

    #[test]
    fn dist_summary_composes_and_serializes() {
        let mut d = DistSummary::new();
        (1..=100).for_each(|i| d.push(i as f64));
        assert_eq!(d.count(), 100);
        assert!((d.mean() - 50.5).abs() < 1e-9);
        assert!((d.quantile(0.5) / 50.0 - 1.0).abs() < 0.1);
        let json = crate::to_json(&d);
        let v = serde_json::from_str::<serde_json::Value>(&json).expect("parse");
        let back = DistSummary::from_value(&v).expect("roundtrip");
        assert_eq!(back, d);
        let mut e = DistSummary::new();
        e.merge(&d);
        assert_eq!(e, d);
    }

    proptest! {
        #[test]
        fn hist_quantiles_are_monotone(xs in proptest::collection::vec(0.0f64..1e5, 1..300)) {
            let mut h = LogHistogram::new();
            xs.iter().for_each(|&x| h.push(x));
            let mut last = f64::NEG_INFINITY;
            for i in 0..=10 {
                let v = h.quantile(i as f64 / 10.0);
                prop_assert!(v >= last - 1e-9, "q{} = {v} < {last}", i);
                prop_assert!(v >= h.min() - 1e-9 && v <= h.max() + 1e-9);
                last = v;
            }
        }

        #[test]
        fn hist_cdf_is_monotone(
            xs in proptest::collection::vec(0.0f64..1e4, 1..200),
            probes in proptest::collection::vec(0.0f64..2e4, 2..20),
        ) {
            let mut h = LogHistogram::new();
            xs.iter().for_each(|&x| h.push(x));
            let mut probes = probes;
            probes.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for w in probes.windows(2) {
                prop_assert!(h.frac_le(w[1]) >= h.frac_le(w[0]) - 1e-9);
            }
        }
    }
}
