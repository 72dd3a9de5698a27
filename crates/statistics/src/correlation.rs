//! Correlation.
//!
//! The paper's load-imbalance rule requires that "on a per-thread basis,
//! the times in the events are highly negatively correlated — a thread
//! that finishes the inner loop early will spend more time in the outer
//! loop waiting at the barrier". [`pearson`] is the primitive behind that
//! condition.

use crate::{Result, StatError};

fn check_pair(x: &[f64], y: &[f64], need: usize) -> Result<()> {
    if x.len() != y.len() {
        return Err(StatError::LengthMismatch {
            left: x.len(),
            right: y.len(),
        });
    }
    if x.len() < need {
        return Err(StatError::TooFewSamples { got: x.len(), need });
    }
    Ok(())
}

/// Pearson product-moment correlation coefficient, in `[-1, 1]`.
///
/// Returns [`StatError::Degenerate`] when either series has zero variance
/// (correlation is undefined for a constant series).
pub fn pearson(x: &[f64], y: &[f64]) -> Result<f64> {
    check_pair(x, y, 2)?;
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        let dx = a - mx;
        let dy = b - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return Err(StatError::Degenerate("zero variance series".into()));
    }
    // Clamp to counteract floating point drift just outside [-1, 1].
    Ok((sxy / (sxx.sqrt() * syy.sqrt())).clamp(-1.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn pearson_perfect_positive() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!(approx(pearson(&x, &y).unwrap(), 1.0));
    }

    #[test]
    fn pearson_perfect_negative() {
        // The paper's barrier-wait signature: inner-loop time up,
        // outer-loop wait time down, exactly anti-correlated.
        let inner = [5.0, 7.0, 9.0, 11.0];
        let outer: Vec<f64> = inner.iter().map(|t| 20.0 - t).collect();
        assert!(approx(pearson(&inner, &outer).unwrap(), -1.0));
    }

    #[test]
    fn pearson_uncorrelated_is_near_zero() {
        // A symmetric pattern orthogonal to the linear ramp.
        let x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let y = [1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0];
        assert!(pearson(&x, &y).unwrap().abs() < 1e-9);
    }

    #[test]
    fn pearson_constant_series_is_degenerate() {
        assert!(matches!(
            pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]),
            Err(StatError::Degenerate(_))
        ));
    }

    #[test]
    fn pearson_length_mismatch() {
        assert!(matches!(
            pearson(&[1.0, 2.0], &[1.0, 2.0, 3.0]),
            Err(StatError::LengthMismatch { left: 2, right: 3 })
        ));
    }

    #[test]
    fn pearson_needs_two_samples() {
        assert!(matches!(
            pearson(&[1.0], &[1.0]),
            Err(StatError::TooFewSamples { got: 1, need: 2 })
        ));
    }
}
