//! Streaming (bounded-memory) distribution aggregates.
//!
//! Million-event campaigns (the 512 MB backlog runs of Figure 11, the
//! pooled per-packet RTT distributions of Figure 12) cannot afford to keep
//! every sample in a `Vec<f64>`: a single backlog transfer produces
//! hundreds of thousands of RTT observations per subflow. The types here
//! absorb samples one at a time in O(1) space:
//!
//! * [`LogHistogram`] — a log-bucketed histogram (16 buckets per octave)
//!   with exact count, min and max, that stores only the window of buckets
//!   its samples touched, at most 480, supporting mergeable quantiles,
//!   CDF/CCDF queries and the log-spaced series the CCDF figures plot.
//! * [`DistSummary`] — the one distribution the rest of the workspace
//!   keeps: that histogram plus the sum of its samples, so the mean is
//!   exact too; serializable and mergeable.
//!
//! Each RTT and out-of-order delay sample the TCP/MPTCP layers take lands
//! in one [`DistSummary`] and nowhere else; the wire analyzer keeps the
//! same type, so the capture cross-check compares like with like.

use serde::{Serialize, Value};

/// Buckets per octave (relative bucket width 2^(1/16) ≈ 4.4%).
const SUB: u32 = 16;
/// Lowest finite bucket edge; values below land in the underflow bucket.
const LO_EDGE: f64 = 0.0078125; // 2^-7
/// Octaves covered; with LO_EDGE this spans ~0.008 .. 8.4e6 (2^23).
const OCTAVES: u32 = 30;
/// Finite bucket count of the layout (at most 480 × 8 B stored).
const BUCKETS: usize = (SUB * OCTAVES) as usize;
/// Buckets a new window opens with on each side of its first bucket, and
/// the least a window grows by past a sample that lands outside it. Four
/// octaves either side (1 KB) hold most RTT distributions whole, so a
/// socket's summary rarely reallocates mid-transfer.
const SLACK: usize = 4 * SUB as usize;

/// Log-bucketed histogram.
///
/// The layout is identical for every instance (16 log₂ sub-buckets per
/// octave over ~0.008–8.4e6), so histograms merge by element-wise count
/// addition — exactly what pooling per-run distributions into a per-figure
/// distribution needs. Quantiles interpolate geometrically inside a bucket
/// and are clamped to the exact observed min/max, giving ≤ ~2% relative
/// error. Only the window of buckets the samples touched is stored (none
/// until the first in-range sample; the window at least doubles when it
/// grows), so memory is bounded by that window, at most 480 counts. What
/// a reader sees — equality, the serialized form, every query — is the
/// full 480-bucket layout.
///
/// ```
/// use mpw_metrics::LogHistogram;
/// let mut h = LogHistogram::new();
/// for i in 1..=1000 { h.push(i as f64); }
/// let p50 = h.quantile(0.5);
/// assert!((p50 / 500.0 - 1.0).abs() < 0.05);
/// ```
#[derive(Clone, Debug, Default)]
pub struct LogHistogram {
    /// Counts of buckets `lo .. lo + counts.len()` (absolute indices into
    /// the layout, see [`LogHistogram`]); buckets outside hold zero.
    counts: Vec<u64>,
    /// Absolute index of `counts[0]` (0 while `counts` is empty).
    lo: usize,
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

impl PartialEq for LogHistogram {
    /// Equality of the full layout: where the windows lie does not matter.
    fn eq(&self, other: &Self) -> bool {
        self.underflow == other.underflow
            && self.overflow == other.overflow
            && self.n == other.n
            && self.min == other.min
            && self.max == other.max
            && self.dense().eq(other.dense())
    }
}

/// The dense form: all 480 counts in layout order, then the scalars, in
/// the field order the histogram has always serialized with.
impl Serialize for LogHistogram {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            (
                "counts".to_string(),
                Value::Seq(self.dense().map(Value::U64).collect()),
            ),
            ("underflow".to_string(), self.underflow.to_value()),
            ("overflow".to_string(), self.overflow.to_value()),
            ("n".to_string(), self.n.to_value()),
            ("min".to_string(), self.min.to_value()),
            ("max".to_string(), self.max.to_value()),
        ])
    }
}

impl LogHistogram {
    /// Empty histogram. It holds no bucket storage until the first sample
    /// that lands in a finite bucket.
    pub fn new() -> Self {
        LogHistogram::default()
    }

    /// Lower edge of finite bucket `i`.
    fn edge(i: usize) -> f64 {
        LO_EDGE * (i as f64 / SUB as f64).exp2()
    }

    /// The stored window as `(absolute bucket index, count)` pairs.
    fn window(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        (self.lo..).zip(self.counts.iter().copied())
    }

    /// All `BUCKETS` counts in layout order, zeros outside the window.
    fn dense(&self) -> impl Iterator<Item = u64> + '_ {
        let above = BUCKETS - self.lo - self.counts.len();
        std::iter::repeat_n(0, self.lo)
            .chain(self.counts.iter().copied())
            .chain(std::iter::repeat_n(0, above))
    }

    /// Grow the window to cover buckets `lo..hi`. A side that grows gains
    /// at least the window's old length (and at least `SLACK`) beyond the
    /// bucket that needed it, so a window reallocates O(log) times.
    #[cold]
    fn widen(&mut self, lo: usize, hi: usize) {
        let len = self.counts.len();
        let pad = SLACK.max(len);
        let (cur_lo, cur_hi) = if len == 0 {
            (BUCKETS, 0)
        } else {
            (self.lo, self.lo + len)
        };
        let new_lo = if lo < cur_lo {
            lo.saturating_sub(pad)
        } else {
            cur_lo
        };
        let new_hi = if hi > cur_hi {
            (hi + pad).min(BUCKETS)
        } else {
            cur_hi
        };
        let mut counts = vec![0; new_hi - new_lo];
        if len > 0 {
            counts[cur_lo - new_lo..][..len].copy_from_slice(&self.counts);
        }
        self.counts = counts;
        self.lo = new_lo;
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
            return;
        }
        let idx = ((x / LO_EDGE).log2() * SUB as f64).floor() as usize;
        // One range check in the common case: the window lies inside the
        // layout, so a bucket inside the window is a finite bucket.
        if let Some(c) = self.counts.get_mut(idx.wrapping_sub(self.lo)) {
            *c += 1;
        } else if idx >= BUCKETS {
            self.overflow += 1;
        } else {
            self.widen(idx, idx + 1);
            self.counts[idx - self.lo] += 1;
        }
    }

    /// Merge another histogram (identical layout by construction).
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
        if other.counts.is_empty() {
            return;
        }
        let (lo, hi) = (other.lo, other.lo + other.counts.len());
        if lo < self.lo || hi > self.lo + self.counts.len() {
            self.widen(lo, hi);
        }
        for (a, b) in self.counts[lo - self.lo..].iter_mut().zip(&other.counts) {
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
        for (i, c) in self.window() {
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
        for (i, c) in self.window() {
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
    /// observed range — ready to plot on the paper's log–log axes. Zero or
    /// negative samples are anchored at `floor`.
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

/// Streaming distribution summary: the histogram ([`LogHistogram`], which
/// also holds the exact count, min and max) plus the sum of the samples.
/// Bounded memory, mergeable, and serializable — the replacement for
/// `Vec<f64>` sample accumulation in measurement outputs.
///
/// ```
/// use mpw_metrics::DistSummary;
/// let mut d = DistSummary::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0, f64::NAN] { d.push(x); }
/// assert_eq!((d.count(), d.mean(), d.min(), d.max()), (8, 5.0, 2.0, 9.0));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct DistSummary {
    /// Sum of the finite samples.
    pub sum: f64,
    /// Log-bucketed shape (count, min, max, quantiles, CDF/CCDF queries).
    pub hist: LogHistogram,
}

impl DistSummary {
    /// Empty summary.
    pub fn new() -> Self {
        DistSummary::default()
    }

    /// Absorb one sample (non-finite values are ignored, as the histogram
    /// ignores them).
    pub fn push(&mut self, x: f64) {
        if x.is_finite() {
            self.sum += x;
        }
        self.hist.push(x);
    }

    /// Merge another summary.
    pub fn merge(&mut self, other: &DistSummary) {
        self.sum += other.sum;
        self.hist.merge(&other.hist);
    }

    /// Samples absorbed.
    pub fn count(&self) -> u64 {
        self.hist.count()
    }

    /// Whether no sample has been absorbed.
    pub fn is_empty(&self) -> bool {
        self.hist.is_empty()
    }

    /// Mean, `sum / count` (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.sum / self.count() as f64
        }
    }

    /// Exact minimum (0 when empty).
    pub fn min(&self) -> f64 {
        self.hist.min()
    }

    /// Exact maximum (0 when empty).
    pub fn max(&self) -> f64 {
        self.hist.max()
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
    use proptest::prelude::*;

    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut s = seed.max(1);
        move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64
        }
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
    fn log_histogram_frac_above_matches_exact_count() {
        let xs: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        let mut h = LogHistogram::new();
        xs.iter().for_each(|&x| h.push(x));
        for x in [1.0, 10.0, 123.0, 500.0, 999.0, 1000.0, 2000.0] {
            let got = h.frac_above(x);
            let exact = xs.iter().filter(|&&v| v > x).count() as f64 / xs.len() as f64;
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
        // Dyadic samples (k/8): every partial sum is exact, and so is the
        // mean, 50.5 / 8.
        (1..=100).for_each(|i| d.push(i as f64 / 8.0));
        assert_eq!((d.count(), d.sum, d.mean()), (100, 631.25, 6.3125));
        assert_eq!((d.min(), d.max()), (0.125, 12.5));
        assert!((d.quantile(0.5) / 6.25 - 1.0).abs() < 0.1);
        // Non-finite samples leave count, sum and mean where they were.
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            d.push(x);
            assert_eq!((d.count(), d.sum, d.mean()), (100, 631.25, 6.3125), "{x}");
        }
        assert_eq!(DistSummary::new().mean(), 0.0);
        // The written form: the sum, then the histogram's dense form.
        let json = serde_json::to_string(&d).expect("serialize");
        assert!(json.starts_with("{\"sum\":631.25,\"hist\":{\"counts\":[0,"), "{json}");
        // Merging with an empty summary is the identity, either way round.
        let mut e = DistSummary::new();
        e.merge(&d);
        assert_eq!(e, d);
        e.merge(&DistSummary::new());
        assert_eq!(e, d);
        // A split stream merges back to the whole.
        let (mut a, mut b) = (DistSummary::new(), DistSummary::new());
        (1..=40).for_each(|i| a.push(i as f64 / 8.0));
        (41..=100).for_each(|i| b.push(i as f64 / 8.0));
        a.merge(&b);
        assert_eq!(a, d);
    }

    /// The dense histogram of the fixed-budget era, kept verbatim as the
    /// reference the windowed [`LogHistogram`] must stay identical to:
    /// every bucket allocated up front, serialized by the derive.
    #[derive(Clone, Debug, PartialEq, Serialize)]
    struct Dense {
        counts: Vec<u64>,
        underflow: u64,
        overflow: u64,
        n: u64,
        min: f64,
        max: f64,
    }

    impl Dense {
        fn new() -> Self {
            Dense {
                counts: vec![0; BUCKETS],
                underflow: 0,
                overflow: 0,
                n: 0,
                min: 0.0,
                max: 0.0,
            }
        }

        fn edge(i: usize) -> f64 {
            LO_EDGE * (i as f64 / SUB as f64).exp2()
        }

        fn push(&mut self, x: f64) {
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

        fn merge(&mut self, other: &Dense) {
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

        fn frac_le(&self, x: f64) -> f64 {
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
            if x >= LO_EDGE {
                acc += self.underflow as f64;
            } else {
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
                    let frac = (x / lo).log2() * SUB as f64;
                    acc += c as f64 * frac.clamp(0.0, 1.0);
                    break;
                } else {
                    break;
                }
            }
            let top = Self::edge(BUCKETS);
            if x >= top && self.overflow > 0 {
                let span = (self.max - top).max(f64::MIN_POSITIVE);
                let frac = ((x - top) / span).clamp(0.0, 1.0);
                acc += self.overflow as f64 * frac;
            }
            (acc / self.n as f64).clamp(0.0, 1.0)
        }

        fn frac_above(&self, x: f64) -> f64 {
            if self.n == 0 {
                0.0
            } else {
                1.0 - self.frac_le(x)
            }
        }

        fn quantile(&self, q: f64) -> f64 {
            if self.n == 0 {
                return 0.0;
            }
            let target = q.clamp(0.0, 1.0) * self.n as f64;
            let mut acc = self.underflow as f64;
            if target <= acc && self.underflow > 0 {
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
                    let v = lo * (frac / SUB as f64).exp2();
                    return v.clamp(self.min, self.max);
                }
                acc += c as f64;
            }
            if self.overflow > 0 {
                let frac = ((target - acc) / self.overflow as f64).clamp(0.0, 1.0);
                let top = Self::edge(BUCKETS).max(self.min);
                return (top + (self.max - top) * frac).clamp(self.min, self.max);
            }
            self.max
        }

        fn log_series(&self, points: usize, floor: f64) -> Vec<(f64, f64)> {
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

    /// One drawn sample. `kind` 0–6 is never in a finite bucket (non-finite,
    /// zero, negative, underflow, overflow); 7 is a bucket's exact lower
    /// edge; the rest fall inside the bucket span `centre ± spread`.
    fn sample(kind: u8, u: f64, centre: usize, spread: usize) -> f64 {
        let pos =
            (centre as f64 + spread as f64 * (2.0 * u - 1.0)).clamp(0.0, BUCKETS as f64 - 1e-6);
        match kind {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => 0.0,
            4 => -u * 1e3,
            5 => LO_EDGE * u,
            6 => Dense::edge(BUCKETS) * (1.0 + u * 1e3),
            7 => Dense::edge(pos.floor() as usize),
            _ => LO_EDGE * (pos / SUB as f64).exp2(),
        }
    }

    /// Every query agrees bit for bit, and the JSON byte for byte.
    fn assert_same(h: &LogHistogram, m: &Dense) {
        assert_eq!(crate::to_json(h), crate::to_json(m));
        for q in [0.0, 1e-3, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999, 1.0] {
            assert_eq!(h.quantile(q).to_bits(), m.quantile(q).to_bits(), "q{q}");
        }
        let probes = (0..=BUCKETS + SUB as usize)
            .step_by(5)
            .map(Dense::edge)
            .chain([-1.0, 0.0, LO_EDGE / 2.0, 1.5, 1e12, m.min, m.max]);
        for x in probes {
            assert_eq!(
                h.frac_le(x).to_bits(),
                m.frac_le(x).to_bits(),
                "frac_le({x})"
            );
            assert_eq!(
                h.frac_above(x).to_bits(),
                m.frac_above(x).to_bits(),
                "frac_above({x})"
            );
        }
        for floor in [1e-3, 10.0] {
            let (a, b) = (h.log_series(17, floor), m.log_series(17, floor));
            assert_eq!(a.len(), b.len());
            for ((xa, pa), (xb, pb)) in a.into_iter().zip(b) {
                assert_eq!((xa.to_bits(), pa.to_bits()), (xb.to_bits(), pb.to_bits()));
            }
        }
    }

    #[test]
    fn dense_json_is_pinned() {
        /// The compact JSON of a histogram whose only non-zero buckets are
        /// `buckets`, followed by the scalar fields `tail`.
        fn pinned(buckets: &[(usize, u64)], tail: &str) -> String {
            let mut counts = vec!["0".to_string(); BUCKETS];
            for &(i, c) in buckets {
                counts[i] = c.to_string();
            }
            format!("{{\"counts\":[{}],{tail}}}", counts.join(","))
        }
        let json = |h: &LogHistogram| serde_json::to_string(h).expect("serialize");
        let empty = LogHistogram::new();
        assert_eq!(
            json(&empty),
            pinned(
                &[],
                "\"underflow\":0,\"overflow\":0,\"n\":0,\"min\":0.0,\"max\":0.0"
            )
        );
        // 1.0 = 2^7 · LO_EDGE: the first bucket of the eighth octave.
        let mut one = LogHistogram::new();
        one.push(1.0);
        assert_eq!(
            json(&one),
            pinned(
                &[(112, 1)],
                "\"underflow\":0,\"overflow\":0,\"n\":1,\"min\":1.0,\"max\":1.0"
            )
        );
        // 1000.0 lands in bucket ⌊16 · log₂(1000 / LO_EDGE)⌋ = 271; the
        // windows of 1.0 and 1000.0 do not touch before the merge.
        let mut other = LogHistogram::new();
        other.push(1000.0);
        other.push(0.0);
        other.push(1e9);
        let mut merged = one.clone();
        merged.merge(&other);
        assert_eq!(
            json(&merged),
            pinned(
                &[(112, 1), (271, 1)],
                "\"underflow\":1,\"overflow\":1,\"n\":4,\"min\":0.0,\"max\":1000000000.0"
            )
        );
    }

    #[test]
    fn out_of_range_samples_hold_no_buckets() {
        let mut h = LogHistogram::new();
        for x in [0.0, -3.0, LO_EDGE / 2.0, 1e9, f64::NAN] {
            h.push(x);
        }
        assert_eq!((h.count(), h.counts.capacity()), (4, 0));
        h.push(1.0);
        assert_eq!(h.counts.len(), 2 * SLACK + 1);
    }

    proptest! {
        /// Random streams (spanning every octave, out-of-range and
        /// non-finite values included) and random merge trees between them:
        /// empty into windowed, windowed into empty, disjoint and nested
        /// windows. The windowed histogram stays the dense one.
        #[test]
        fn windowed_matches_dense_reference(
            streams in proptest::collection::vec(
                (
                    0u8..4,
                    0usize..BUCKETS,
                    (0u32..10).prop_map(|k| (1usize << k) - 1),
                    proptest::collection::vec((0u8..24, 0.0f64..1.0), 0..48),
                ),
                1..7,
            ),
            merges in proptest::collection::vec((0usize..6, 0usize..6), 0..12),
        ) {
            let mut hs: Vec<LogHistogram> = Vec::new();
            let mut ms: Vec<Dense> = Vec::new();
            let mut whole = (LogHistogram::new(), Dense::new());
            for (mode, centre, spread, draws) in &streams {
                let (mut h, mut m) = (LogHistogram::new(), Dense::new());
                // Mode 0: nothing pushed; mode 1: nothing in range.
                let draws = if *mode == 0 { &[][..] } else { &draws[..] };
                for &(kind, u) in draws {
                    let kind = if *mode == 1 { kind % 7 } else { kind };
                    let x = sample(kind, u, *centre, *spread);
                    h.push(x);
                    m.push(x);
                    whole.0.push(x);
                    whole.1.push(x);
                }
                assert_same(&h, &m);
                hs.push(h);
                ms.push(m);
            }
            // Pooled by merging from empty, against pooled by pushing: equal
            // histograms whose windows grew differently.
            let mut pooled = (LogHistogram::new(), Dense::new());
            for (h, m) in hs.iter().zip(&ms) {
                pooled.0.merge(h);
                pooled.1.merge(m);
                assert_same(&pooled.0, &pooled.1);
            }
            assert_same(&whole.0, &whole.1);
            prop_assert_eq!(pooled.1 == whole.1, true);
            prop_assert_eq!(pooled.0 == whole.0, true);
            for &(i, j) in &merges {
                let (i, j) = (i % hs.len(), j % hs.len());
                let (h, m) = (hs[j].clone(), ms[j].clone());
                hs[i].merge(&h);
                ms[i].merge(&m);
                assert_same(&hs[i], &ms[i]);
            }
            for i in 0..hs.len() {
                for j in 0..hs.len() {
                    prop_assert_eq!(hs[i] == hs[j], ms[i] == ms[j]);
                }
            }
        }
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
