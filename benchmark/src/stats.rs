//! Order statistics for repeated timings: every wall-clock number the
//! benchmark prints is a median with its min, max, inter-quartile range and
//! sample count, never a lone mean.

/// Linear-interpolated percentile of an already sorted slice, `p` in 0..=1.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    percentile_sorted(&sorted(values), 0.5)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method: position `q·(n+1)`, clamped), so the
/// spreads printed here are the ones the acceptance driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |q: usize| {
        let j = (q * (n + 1) / 4).clamp(1, n - 1);
        let delta = (q * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Summary of one repeated timing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    /// Q3 − Q1 (0 for a single sample).
    pub iqr: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let v = sorted(values);
        let iqr = if v.len() >= 2 {
            let (q1, q3) = quartiles(&v);
            q3 - q1
        } else {
            0.0
        };
        Summary {
            median: percentile_sorted(&v, 0.5),
            min: v[0],
            max: v[v.len() - 1],
            iqr,
            n: v.len(),
        }
    }

    /// The same summary in another unit: every figure times `factor`.
    pub fn scaled(self, factor: f64) -> Summary {
        Summary {
            median: self.median * factor,
            min: self.min * factor,
            max: self.max * factor,
            iqr: self.iqr * factor,
            n: self.n,
        }
    }

    /// The summary of `numerator ÷ x` for a cost `x` (a rate from a time):
    /// the fastest sample is the highest rate, so min and max swap. The IQR
    /// is carried over as the same share of the median.
    pub fn inverted(self, numerator: f64) -> Summary {
        let median = numerator / self.median;
        Summary {
            median,
            min: numerator / self.max,
            max: numerator / self.min,
            iqr: median * self.iqr / self.median,
            n: self.n,
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "median {:.6} min {:.6} max {:.6} iqr {:.6} n {}",
            self.median, self.min, self.max, self.iqr, self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_interpolates_and_clamps() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile_sorted(&v, 0.0), 10.0);
        assert_eq!(percentile_sorted(&v, 1.0), 50.0);
        assert_eq!(percentile_sorted(&v, 0.25), 20.0);
        assert!((percentile_sorted(&v, 0.9) - 46.0).abs() < 1e-12);
        assert_eq!(percentile_sorted(&v, 7.0), 50.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }

    #[test]
    fn summary_reports_spread() {
        let s = Summary::of(&[5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (5.0, 1.0, 9.0, 9));
        assert!((s.iqr - 5.0).abs() < 1e-12);
        assert_eq!(Summary::of(&[2.0]).iqr, 0.0);
        assert_eq!(s.scaled(2.0).max, 18.0);
        let rate = s.inverted(90.0);
        assert_eq!(
            (rate.median, rate.min, rate.max, rate.n),
            (18.0, 10.0, 90.0, 9)
        );
    }
}
