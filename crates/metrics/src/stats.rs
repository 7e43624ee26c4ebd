//! Summary statistics for repeated-experiment reporting.

/// Mean / standard deviation / percentile summary of a sample.
///
/// The paper repeats each JCT/DE experiment ten times and plots the mean
/// with a standard-deviation error bar; `Summary` is that aggregation.
///
/// # Example
///
/// ```
/// use netpack_metrics::Summary;
/// let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(s.mean, 2.5);
/// assert_eq!(s.min, 1.0);
/// assert_eq!(s.max, 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for a single sample).
    pub std: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median (linear interpolation).
    pub p50: f64,
    /// 95th percentile (linear interpolation).
    pub p95: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarize a non-empty sample.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or contains a non-finite value.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "cannot summarize an empty sample");
        assert!(
            values.iter().all(|v| v.is_finite()),
            "sample contains non-finite values"
        );
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            mean,
            std: var.sqrt(),
            min: sorted[0],
            max: sorted[n - 1],
            p50: percentile(&sorted, 0.50),
            p95: percentile(&sorted, 0.95),
            n,
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.4} ± {:.4} (n={})", self.mean, self.std, self.n)
    }
}

/// Linear-interpolation percentile of an ascending-sorted slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&q));
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_constant_sample_has_zero_std() {
        let s = Summary::of(&[3.0, 3.0, 3.0]);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.p50, 3.0);
    }

    #[test]
    fn summary_std_matches_hand_computation() {
        // Sample {1, 5}: mean 3, sample variance (4+4)/1 = 8.
        let s = Summary::of(&[1.0, 5.0]);
        assert!((s.std - 8.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn percentiles_interpolate() {
        let s = Summary::of(&[0.0, 10.0]);
        assert_eq!(s.p50, 5.0);
        assert!((s.p95 - 9.5).abs() < 1e-12);
    }

    #[test]
    fn single_sample_summary() {
        let s = Summary::of(&[7.0]);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.p95, 7.0);
        assert_eq!(s.n, 1);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_sample_panics() {
        let _ = Summary::of(&[]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_sample_panics() {
        let _ = Summary::of(&[1.0, f64::NAN]);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!Summary::of(&[1.0]).to_string().is_empty());
    }
}
