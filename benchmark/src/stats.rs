//! Order statistics for repeated samples.

/// Median, quartiles and sample count of one metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// A deterministic value measured once: every order statistic is the
    /// value itself.
    pub fn exact(v: f64) -> Summary {
        Summary {
            median: v,
            q1: v,
            q3: v,
            n: 1,
        }
    }

    /// Interquartile range as a share of the median (0 when the median
    /// is 0, so a metric that is always 0 never reads as noisy).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

/// Summarizes `xs` (any order). Quartiles use the same "exclusive"
/// interpolation as Python's `statistics.quantiles(xs, n=4)`, so a
/// spread computed here matches one computed from the printed values.
///
/// # Panics
///
/// Panics on an empty slice: a metric with no samples is a bug in the
/// caller, not a value.
pub fn summarize(xs: &[f64]) -> Summary {
    assert!(!xs.is_empty(), "summarize needs at least one sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    let (q1, q3) = if n == 1 {
        (v[0], v[0])
    } else {
        (exclusive_quartile(&v, 1), exclusive_quartile(&v, 3))
    };
    Summary { median, q1, q3, n }
}

/// The `i`-th of the three cut points of sorted `v` (len >= 2).
fn exclusive_quartile(v: &[f64], i: usize) -> f64 {
    let ld = v.len();
    let m = ld + 1;
    let j = (i * m / 4).clamp(1, ld - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
}

/// Median of `xs` (any order).
pub fn median(xs: &[f64]) -> f64 {
    summarize(xs).median
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn matches_python_statistics_quantiles() {
        // Reference values from Python 3:
        //   statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s = summarize(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]);
        assert_eq!(s.n, 10);
        assert!(close(s.median, 5.5));
        assert!(close(s.q1, 2.75));
        assert!(close(s.q3, 8.25));
        //   statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = summarize(&[16.0, 1.0, 4.0, 2.0, 8.0]);
        assert!(close(s.median, 4.0));
        assert!(close(s.q1, 1.5));
        assert!(close(s.q3, 12.0));
        //   statistics.quantiles([3, 7], n=4) == [2.0, 5.0, 8.0]
        let s = summarize(&[7.0, 3.0]);
        assert!(close(s.median, 5.0));
        assert!(close(s.q1, 2.0));
        assert!(close(s.q3, 8.0));
    }

    #[test]
    fn single_sample_is_its_own_quartiles() {
        let s = summarize(&[4.25]);
        assert_eq!(s, Summary::exact(4.25));
        assert_eq!(s.spread(), 0.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = summarize(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]);
        assert!(close(s.spread(), (8.25 - 2.75) / 5.5));
        assert_eq!(Summary::exact(0.0).spread(), 0.0);
    }
}
