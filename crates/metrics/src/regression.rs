//! Least-squares linear regression for the Fig. 6 simulator validation.

/// Result of an ordinary-least-squares fit `y = slope * x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Pearson correlation coefficient `r` (the paper reports 98% for its
    /// simulator-vs-testbed JCT fit).
    pub r: f64,
}

impl LinearFit {
    /// Coefficient of determination `r²`.
    pub fn r_squared(&self) -> f64 {
        self.r * self.r
    }
}

/// Fit `y = a*x + b` by least squares over paired samples.
///
/// Returns `None` when fewer than two points are given or when `x` has zero
/// variance (a vertical line has no OLS solution).
///
/// # Example
///
/// ```
/// use netpack_metrics::linear_fit;
/// let x = [1.0, 2.0, 3.0];
/// let y = [2.0, 4.0, 6.0];
/// let fit = linear_fit(&x, &y).unwrap();
/// assert!((fit.slope - 2.0).abs() < 1e-12);
/// assert!((fit.r - 1.0).abs() < 1e-12);
/// ```
///
/// # Panics
///
/// Panics if `x` and `y` have different lengths.
pub fn linear_fit(x: &[f64], y: &[f64]) -> Option<LinearFit> {
    assert_eq!(x.len(), y.len(), "paired samples must have equal length");
    let n = x.len();
    if n < 2 {
        return None;
    }
    let nf = n as f64;
    let mx = x.iter().sum::<f64>() / nf;
    let my = y.iter().sum::<f64>() / nf;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    let mut sxy = 0.0;
    for i in 0..n {
        let dx = x[i] - mx;
        let dy = y[i] - my;
        sxx += dx * dx;
        syy += dy * dy;
        sxy += dx * dy;
    }
    if sxx == 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let r = if syy == 0.0 {
        // y constant: perfectly predicted by the (horizontal) fit.
        1.0
    } else {
        sxy / (sxx.sqrt() * syy.sqrt())
    };
    Some(LinearFit {
        slope,
        intercept,
        r,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_noisy_line_with_high_r() {
        let x: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|&v| {
                3.0 * v
                    + 1.0
                    + if (v as usize).is_multiple_of(2) {
                        0.5
                    } else {
                        -0.5
                    }
            })
            .collect();
        let fit = linear_fit(&x, &y).unwrap();
        assert!((fit.slope - 3.0).abs() < 0.01);
        assert!((fit.intercept - 1.0).abs() < 0.5);
        assert!(fit.r > 0.999);
        assert!(fit.r_squared() > 0.998);
    }

    #[test]
    fn anti_correlated_data_has_negative_r() {
        let x = [0.0, 1.0, 2.0, 3.0];
        let y = [3.0, 2.0, 1.0, 0.0];
        let fit = linear_fit(&x, &y).unwrap();
        assert!((fit.r + 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs_return_none() {
        assert!(linear_fit(&[1.0], &[1.0]).is_none());
        assert!(linear_fit(&[2.0, 2.0], &[1.0, 3.0]).is_none());
    }

    #[test]
    fn constant_y_is_a_perfect_horizontal_fit() {
        let fit = linear_fit(&[1.0, 2.0, 3.0], &[5.0, 5.0, 5.0]).unwrap();
        assert_eq!(fit.slope, 0.0);
        assert_eq!(fit.intercept, 5.0);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_panic() {
        let _ = linear_fit(&[1.0], &[1.0, 2.0]);
    }
}
