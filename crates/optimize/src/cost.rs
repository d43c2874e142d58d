//! Cost functions for numerical instantiation.
//!
//! The optimization target is Eq. (1) of the paper, the Hilbert–Schmidt infidelity
//! `1 − |Tr(U†_target U(θ))| / D`, which is invariant under a global phase. The
//! Levenberg–Marquardt optimizer works on a least-squares residual vector — following the
//! convention of BQSKit's Hilbert–Schmidt residual generator, the residuals are the real
//! and imaginary parts of the element-wise difference `U(θ) − U_target`, while success is
//! always judged by the phase-invariant infidelity.

use qudit_tensor::Matrix;

/// Hilbert–Schmidt infidelity `1 − |Tr(U†_target U)| / D` (Eq. 1 of the paper).
///
/// A NaN or infinite overlap gives `+∞`: such a unitary is never a success, and it
/// ranks last under both `<` and `f64::total_cmp`.
pub fn hs_infidelity(target: &Matrix<f64>, u: &Matrix<f64>) -> f64 {
    let d = target.rows() as f64;
    let overlap = target.hs_inner(u).abs();
    if !overlap.is_finite() {
        // `max` below would turn a NaN (and `1 − ∞`) into a perfect 0.
        return f64::INFINITY;
    }
    (1.0 - overlap / d).max(0.0)
}

/// Number of residual entries produced for a `dim × dim` target.
pub fn residual_len(dim: usize) -> usize {
    2 * dim * dim
}

/// Writes the residual vector `[Re(U − T)…, Im(U − T)…]` into `out`.
///
/// # Panics
///
/// Panics if shapes disagree or `out` is too short.
pub fn residuals_into(target: &Matrix<f64>, u: &Matrix<f64>, out: &mut [f64]) {
    assert_eq!(target.rows(), u.rows(), "target/unitary shape mismatch");
    assert_eq!(target.cols(), u.cols(), "target/unitary shape mismatch");
    let n = target.rows() * target.cols();
    assert!(out.len() >= 2 * n, "residual buffer too small");
    for (k, (t, v)) in target.as_slice().iter().zip(u.as_slice().iter()).enumerate() {
        out[k] = v.re - t.re;
        out[n + k] = v.im - t.im;
    }
}

/// Writes the Jacobian column for one parameter (`[Re(∂U)…, Im(∂U)…]`) into `out`.
///
/// # Panics
///
/// Panics if `out` is too short.
pub fn jacobian_column_into(grad: &Matrix<f64>, out: &mut [f64]) {
    let n = grad.rows() * grad.cols();
    assert!(out.len() >= 2 * n, "jacobian buffer too small");
    for (k, g) in grad.as_slice().iter().enumerate() {
        out[k] = g.re;
        out[n + k] = g.im;
    }
}

/// Sum of squared residuals (the quantity Levenberg–Marquardt decreases monotonically).
pub fn sum_of_squares(residuals: &[f64]) -> f64 {
    residuals.iter().map(|r| r * r).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qudit_tensor::C64;

    fn phase(m: &Matrix<f64>, theta: f64) -> Matrix<f64> {
        m.scale(C64::cis(theta))
    }

    #[test]
    fn infidelity_of_identical_unitaries_is_zero() {
        let u = Matrix::<f64>::identity(4);
        assert!(hs_infidelity(&u, &u) < 1e-15);
    }

    #[test]
    fn infidelity_is_phase_invariant() {
        let u = Matrix::<f64>::identity(4);
        let v = phase(&u, 1.234);
        assert!(hs_infidelity(&u, &v) < 1e-12);
    }

    #[test]
    fn infidelity_of_orthogonal_unitaries_is_one() {
        let i2 = Matrix::<f64>::identity(2);
        let x = Matrix::from_rows(&[vec![C64::zero(), C64::one()], vec![C64::one(), C64::zero()]]);
        assert!((hs_infidelity(&i2, &x) - 1.0).abs() < 1e-14);
    }

    #[test]
    fn non_finite_unitaries_score_infinite_and_finite_ones_keep_their_bits() {
        let target = Matrix::<f64>::identity(2);
        let with =
            |v: C64| Matrix::from_rows(&[vec![v, C64::zero()], vec![C64::zero(), C64::one()]]);
        for bad in
            [C64::new(f64::NAN, 0.0), C64::new(f64::INFINITY, 0.0), C64::new(0.0, -f64::INFINITY)]
        {
            assert_eq!(hs_infidelity(&target, &with(bad)), f64::INFINITY, "{bad:?}");
        }
        for good in [C64::one(), C64::new(0.3, -0.4), C64::new(-1.0, 0.0)] {
            let u = with(good);
            let expected = (1.0 - target.hs_inner(&u).abs() / 2.0).max(0.0);
            assert_eq!(hs_infidelity(&target, &u).to_bits(), expected.to_bits(), "{good:?}");
        }
    }

    #[test]
    fn residuals_zero_iff_equal() {
        let u = Matrix::<f64>::identity(2);
        let mut r = vec![0.0; residual_len(2)];
        residuals_into(&u, &u, &mut r);
        assert!(sum_of_squares(&r) < 1e-30);
        let x = Matrix::from_rows(&[vec![C64::zero(), C64::one()], vec![C64::one(), C64::zero()]]);
        residuals_into(&u, &x, &mut r);
        assert!((sum_of_squares(&r) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn jacobian_column_layout_matches_residual_layout() {
        let g = Matrix::from_fn(2, 2, |r, c| C64::new((r * 2 + c) as f64, -((r * 2 + c) as f64)));
        let mut col = vec![0.0; residual_len(2)];
        jacobian_column_into(&g, &mut col);
        assert_eq!(col[..4], [0.0, 1.0, 2.0, 3.0]);
        assert_eq!(col[4..], [0.0, -1.0, -2.0, -3.0]);
    }
}
