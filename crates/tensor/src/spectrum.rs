//! Spectra: the eigenvalues of a Hermitian matrix, and the operator-Schmidt spectrum
//! of an operator across a cut of its qudits.
//!
//! Both are deterministic. The eigensolver is cyclic Jacobi with a fixed pivot
//! order, so the same matrix gives the same bits on every run.

use crate::complex::C64;
use crate::matrix::Matrix;

/// Sweeps after which [`hermitian_eigenvalues`] stops even if the off-diagonal mass
/// has not reached its tolerance. Cyclic Jacobi converges quadratically; the 16×16
/// Gram matrices the synthesis bound diagonalizes need well under ten.
const MAX_SWEEPS: usize = 64;

/// The eigenvalues of a Hermitian matrix, in descending order, by cyclic Jacobi
/// rotations.
///
/// Only the upper triangle is read: each entry below the diagonal is taken as the
/// conjugate of its mirror, and the imaginary parts of the diagonal are ignored.
///
/// # Panics
///
/// Panics when `m` is not square.
pub fn hermitian_eigenvalues(m: &Matrix<f64>) -> Vec<f64> {
    assert!(m.is_square(), "eigenvalues need a square matrix, got {}×{}", m.rows(), m.cols());
    let n = m.rows();
    let mut a = m.as_slice().to_vec();
    for p in 0..n {
        a[p * n + p] = C64::from_real(a[p * n + p].re);
        for q in p + 1..n {
            a[q * n + p] = a[p * n + q].conj();
        }
    }
    let off_diagonal = |a: &[C64]| -> f64 {
        (0..n).map(|p| (p + 1..n).map(|q| a[p * n + q].norm_sqr()).sum::<f64>()).sum()
    };
    let total: f64 = a.iter().map(|z| z.norm_sqr()).sum();
    let tolerance = total * (n as f64 * f64::EPSILON).powi(2);
    for _ in 0..MAX_SWEEPS {
        if off_diagonal(&a) <= tolerance {
            break;
        }
        for p in 0..n {
            for q in p + 1..n {
                rotate(&mut a, n, p, q);
            }
        }
    }
    let mut values: Vec<f64> = (0..n).map(|p| a[p * n + p].re).collect();
    values.sort_by(|x, y| y.total_cmp(x));
    values
}

/// One Jacobi rotation `A ← J†·A·J` that zeroes entry `(p, q)` of the row-major
/// Hermitian `n × n` matrix `a`. The phase `e^{iφ}` of `a[p][q]` turns the 2×2 pivot
/// block real, and the real rotation angle follows Numerical Recipes' `jacobi`:
/// `J = [[c, s·e^{iφ}], [−s·e^{−iφ}, c]]` on coordinates `(p, q)`.
fn rotate(a: &mut [C64], n: usize, p: usize, q: usize) {
    let apq = a[p * n + q];
    let magnitude = apq.abs();
    if magnitude == 0.0 {
        return;
    }
    let phase = apq.scale(1.0 / magnitude);
    let (app, aqq) = (a[p * n + p].re, a[q * n + q].re);
    let theta = (aqq - app) / (2.0 * magnitude);
    let t = theta.signum() / (theta.abs() + theta.hypot(1.0));
    let c = 1.0 / t.hypot(1.0);
    let s = t * c;
    for k in (0..n).filter(|&k| k != p && k != q) {
        let (akp, akq) = (a[k * n + p], a[k * n + q]);
        let kp = akp.scale(c) - (phase.conj() * akq).scale(s);
        let kq = (phase * akp).scale(s) + akq.scale(c);
        a[k * n + p] = kp;
        a[p * n + k] = kp.conj();
        a[k * n + q] = kq;
        a[q * n + k] = kq.conj();
    }
    a[p * n + p] = C64::from_real(app - t * magnitude);
    a[q * n + q] = C64::from_real(aqq + t * magnitude);
    a[p * n + q] = C64::zero();
    a[q * n + p] = C64::zero();
}

/// The squared operator-Schmidt coefficients `σ₁² ≥ σ₂² ≥ …` of `u` across the cut
/// that separates the qudits in `side` from the rest.
///
/// They are the eigenvalues of `R·R†`, where `R` is `u` realigned across the cut:
/// `R[(a, a′), (b, b′)] = u[(a, b), (a′, b′)]`, with `a` the digits of the `side`
/// qudits and `b` those of the rest (qudit 0 is the most significant digit of a basis
/// index). They are computed on the Gram matrix of the smaller side, so there are
/// `min(d_A², d_B²)` of them. They sum to `‖u‖²_F`, the dimension for a unitary; a
/// product operator has one non-zero coefficient, and a CNOT has two, each 2.
///
/// # Panics
///
/// Panics when `u` is not square of dimension `Π radices`, or a `side` entry is not
/// a qudit index.
pub fn operator_schmidt_spectrum(u: &Matrix<f64>, radices: &[usize], side: &[usize]) -> Vec<f64> {
    let dim: usize = radices.iter().product();
    assert!(u.rows() == dim && u.cols() == dim, "operator must act on all of {radices:?}");
    assert!(side.iter().all(|&q| q < radices.len()), "cut side {side:?} is not in {radices:?}");
    let da: usize =
        radices.iter().enumerate().filter(|(q, _)| side.contains(q)).map(|(_, &r)| r).product();
    let db = dim / da;
    // The (side, rest) digit indices of every basis state.
    let split: Vec<(usize, usize)> = (0..dim)
        .map(|index| {
            let (mut a, mut b, mut rest) = (0, 0, index);
            let (mut wa, mut wb) = (1, 1);
            for (q, &radix) in radices.iter().enumerate().rev() {
                let digit = rest % radix;
                rest /= radix;
                if side.contains(&q) {
                    a += digit * wa;
                    wa *= radix;
                } else {
                    b += digit * wb;
                    wb *= radix;
                }
            }
            (a, b)
        })
        .collect();
    let mut realigned = Matrix::<f64>::zeros(da * da, db * db);
    for (row, &(a, b)) in split.iter().enumerate() {
        for (col, &(a2, b2)) in split.iter().enumerate() {
            realigned.set(a * da + a2, b * db + b2, u.get(row, col));
        }
    }
    let gram = if da <= db {
        realigned.matmul(&realigned.dagger())
    } else {
        realigned.dagger().matmul(&realigned)
    };
    hermitian_eigenvalues(&gram).into_iter().map(|v| v.max(0.0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: &[f64], b: &[f64], tol: f64) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= tol)
    }

    #[test]
    fn jacobi_diagonalizes_a_complex_hermitian_matrix() {
        // Q·diag(5, 2, −1, 0.5)·Q† for a unitary Q built from a complex Householder
        // reflection: the eigenvalues come back sorted, to rounding.
        let v = [C64::new(1.0, 0.5), C64::new(-0.3, 0.2), C64::new(0.7, -1.1), C64::new(0.1, 0.4)];
        let norm: f64 = v.iter().map(|z| z.norm_sqr()).sum();
        let q = Matrix::<f64>::from_fn(4, 4, |r, c| {
            let identity = if r == c { C64::one() } else { C64::zero() };
            identity - (v[r] * v[c].conj()).scale(2.0 / norm)
        });
        let d = Matrix::<f64>::from_fn(4, 4, |r, c| {
            if r == c {
                C64::from_real([5.0, 2.0, -1.0, 0.5][r])
            } else {
                C64::zero()
            }
        });
        let m = q.matmul(&d).matmul(&q.dagger());
        let values = hermitian_eigenvalues(&m);
        assert!(close(&values, &[5.0, 2.0, 0.5, -1.0], 1e-12), "{values:?}");
        // Deterministic: the same input gives the same bits.
        assert_eq!(values, hermitian_eigenvalues(&m));
    }

    #[test]
    fn jacobi_handles_diagonal_and_empty_matrices() {
        let m = Matrix::<f64>::from_fn(3, 3, |r, c| {
            if r == c {
                C64::from_real(r as f64)
            } else {
                C64::zero()
            }
        });
        assert_eq!(hermitian_eigenvalues(&m), vec![2.0, 1.0, 0.0]);
        assert!(hermitian_eigenvalues(&Matrix::<f64>::zeros(0, 0)).is_empty());
    }

    #[test]
    fn schmidt_spectra_of_product_and_entangling_operators() {
        let h = 1.0 / 2f64.sqrt();
        let hadamard = Matrix::<f64>::from_fn(2, 2, |r, c| {
            C64::from_real(if r == 1 && c == 1 { -h } else { h })
        });
        let phase = Matrix::<f64>::from_fn(2, 2, |r, c| {
            if r != c {
                C64::zero()
            } else if r == 0 {
                C64::one()
            } else {
                C64::new(0.6, 0.8)
            }
        });
        // A product operator has a single coefficient, the whole dimension.
        let product = hadamard.kron(&phase);
        assert!(close(
            &operator_schmidt_spectrum(&product, &[2, 2], &[0]),
            &[4.0, 0.0, 0.0, 0.0],
            1e-12
        ));
        // CNOT: two equal coefficients, whichever side is named.
        let cnot = Matrix::<f64>::from_fn(4, 4, |r, c| {
            let target = if r < 2 { r } else { r ^ 1 };
            if c == target {
                C64::one()
            } else {
                C64::zero()
            }
        });
        for side in [[0usize], [1]] {
            let spectrum = operator_schmidt_spectrum(&cnot, &[2, 2], &side);
            assert!(close(&spectrum, &[2.0, 2.0, 0.0, 0.0], 1e-12), "{spectrum:?}");
        }
    }

    #[test]
    fn schmidt_cut_follows_the_named_qudits() {
        // CNOT on qudits 0 and 2 of three qubits, identity on qudit 1: the cut {1}
        // sees a product operator, and the cuts {0} and {2} see the CNOT's two terms,
        // also when the larger side is named and the other side's Gram matrix is
        // diagonalized.
        let radices = [2usize, 2, 2];
        let u = Matrix::<f64>::from_fn(8, 8, |r, c| {
            let flipped = if c & 0b100 != 0 { c ^ 0b001 } else { c };
            if r == flipped {
                C64::one()
            } else {
                C64::zero()
            }
        });
        let middle = operator_schmidt_spectrum(&u, &radices, &[1]);
        assert!(close(&middle, &[8.0, 0.0, 0.0, 0.0], 1e-12), "{middle:?}");
        for side in [vec![0usize], vec![2], vec![0, 1], vec![1, 2]] {
            let spectrum = operator_schmidt_spectrum(&u, &radices, &side);
            assert_eq!(spectrum.len(), 4, "{side:?}");
            assert!(close(&spectrum, &[4.0, 4.0, 0.0, 0.0], 1e-12), "{side:?}: {spectrum:?}");
        }
    }
}
