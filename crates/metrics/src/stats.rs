//! Summary statistics matching the paper's reporting conventions:
//! sample mean ± standard error for the tables, box-and-whisker five-number
//! summaries for the download-time figures.

use serde::Serialize;

/// Mean ± standard error (and friends) of a sample.
///
/// ```
/// use mpw_metrics::Summary;
/// let s = Summary::of(&[1.0, 3.0]);
/// assert_eq!(s.pm(), "2.00±1.00"); // the paper's table-cell format
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator).
    pub std_dev: f64,
    /// Standard error of the mean.
    pub std_err: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarize a sample. Empty input yields zeros.
    pub fn of(xs: &[f64]) -> Summary {
        let n = xs.len();
        if n == 0 {
            return Summary::default();
        }
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let std_dev = var.sqrt();
        Summary {
            n,
            mean,
            std_dev,
            std_err: std_dev / (n as f64).sqrt(),
            min: xs.iter().copied().fold(f64::INFINITY, f64::min),
            max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// Render as the paper's `mean ± stderr` cell.
    pub fn pm(&self) -> String {
        if self.n == 0 {
            return "-".to_string();
        }
        format!("{:.2}±{:.2}", self.mean, self.std_err)
    }

    /// Render as `mean ± stderr` with a negligible-value marker below the
    /// threshold, as the paper's "~" for loss rates < 0.03%.
    pub fn pm_or_tilde(&self, negligible_below: f64) -> String {
        if self.n == 0 {
            return "-".to_string();
        }
        if self.mean < negligible_below {
            return "~".to_string();
        }
        self.pm()
    }
}

/// Box-and-whisker five-number summary (Figure 2/4/6/8/9/11 boxes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize)]
pub struct BoxPlot {
    /// Sample count.
    pub n: usize,
    /// Minimum (lower whisker).
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum (upper whisker).
    pub max: f64,
}

/// Linear-interpolation quantile of a *sorted* slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

impl BoxPlot {
    /// Build from an unsorted sample.
    pub fn of(xs: &[f64]) -> BoxPlot {
        if xs.is_empty() {
            return BoxPlot::default();
        }
        let mut v = xs.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in metrics"));
        BoxPlot {
            n: v.len(),
            min: v[0],
            q1: quantile_sorted(&v, 0.25),
            median: quantile_sorted(&v, 0.5),
            q3: quantile_sorted(&v, 0.75),
            max: v[v.len() - 1],
        }
    }

    /// One-line textual box: `min [q1 |med| q3] max`.
    pub fn render(&self) -> String {
        format!(
            "{:9.3} [{:9.3} |{:9.3}| {:9.3}] {:9.3}",
            self.min, self.q1, self.median, self.q3, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.n, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Sample std dev with n-1: sqrt(32/7).
        assert!((s.std_dev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert!((s.std_err - s.std_dev / (8.0f64).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn summary_handles_degenerate_inputs() {
        assert_eq!(Summary::of(&[]).n, 0);
        let one = Summary::of(&[3.5]);
        assert_eq!(one.mean, 3.5);
        assert_eq!(one.std_dev, 0.0);
    }

    #[test]
    fn pm_formats_like_the_paper() {
        let s = Summary::of(&[1.0, 3.0]);
        assert_eq!(s.pm(), "2.00±1.00");
        assert_eq!(Summary::of(&[0.0001, 0.0002]).pm_or_tilde(0.0003), "~");
        assert_eq!(Summary::default().pm(), "-");
    }

    #[test]
    fn boxplot_of_known_sample() {
        let b = BoxPlot::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(b.min, 1.0);
        assert_eq!(b.q1, 2.0);
        assert_eq!(b.median, 3.0);
        assert_eq!(b.q3, 4.0);
        assert_eq!(b.max, 5.0);
    }

    #[test]
    fn quantile_interpolates() {
        let v = [0.0, 10.0];
        assert_eq!(quantile_sorted(&v, 0.5), 5.0);
        assert_eq!(quantile_sorted(&v, 0.0), 0.0);
        assert_eq!(quantile_sorted(&v, 1.0), 10.0);
    }

    proptest! {
        #[test]
        fn quartiles_are_ordered(xs in proptest::collection::vec(0.0f64..1e6, 1..200)) {
            let b = BoxPlot::of(&xs);
            prop_assert!(b.min <= b.q1 + 1e-9);
            prop_assert!(b.q1 <= b.median + 1e-9);
            prop_assert!(b.median <= b.q3 + 1e-9);
            prop_assert!(b.q3 <= b.max + 1e-9);
        }

        #[test]
        fn mean_within_min_max(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let s = Summary::of(&xs);
            prop_assert!(s.mean >= s.min - 1e-9);
            prop_assert!(s.mean <= s.max + 1e-9);
        }
    }
}
