//! Dense, row-major complex matrices.
//!
//! [`Matrix`] is the workhorse value type of the runtime: gate unitaries, gradient
//! components, and every intermediate tensor-network buffer that happens to be a
//! matrix are stored in this representation.

use std::cmp::Ordering;

use crate::complex::{Complex, Float};
use crate::{gemm, kron, Result, TensorError};

/// A dense, row-major complex matrix over precision `T`.
///
/// # Example
///
/// ```
/// use qudit_tensor::{Matrix, Complex};
/// let h: Matrix<f64> = Matrix::from_fn(2, 2, |r, c| {
///     let s = 1.0 / 2.0f64.sqrt();
///     if r == 1 && c == 1 { Complex::from_real(-s) } else { Complex::from_real(s) }
/// });
/// assert!(h.is_unitary(1e-12));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<Complex<T>>,
}

impl<T: Float> Matrix<T> {
    /// Creates a zero-filled matrix with the given dimensions.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![Complex::zero(); rows * cols] }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, Complex::one());
        }
        m
    }

    /// Creates a matrix by evaluating `f(row, col)` for each element.
    pub fn from_fn(
        rows: usize,
        cols: usize,
        mut f: impl FnMut(usize, usize) -> Complex<T>,
    ) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from nested rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows are ragged (different lengths).
    pub fn from_rows(rows: &[Vec<Complex<T>>]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map(|r| r.len()).unwrap_or(0);
        let mut data = Vec::with_capacity(nrows * ncols);
        for row in rows {
            assert_eq!(row.len(), ncols, "ragged rows passed to Matrix::from_rows");
            data.extend_from_slice(row);
        }
        Matrix { rows: nrows, cols: ncols, data }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidReshape`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<Complex<T>>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(TensorError::InvalidReshape { from: data.len(), to: rows * cols });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Immutable view of the row-major element buffer.
    #[inline]
    pub fn as_slice(&self) -> &[Complex<T>] {
        &self.data
    }

    /// Mutable view of the row-major element buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [Complex<T>] {
        &mut self.data
    }

    /// Consumes the matrix and returns its row-major buffer.
    pub fn into_vec(self) -> Vec<Complex<T>> {
        self.data
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> Complex<T> {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: Complex<T>) {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Matrix product `self · rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree. Use [`Matrix::try_matmul`] for a
    /// fallible variant.
    pub fn matmul(&self, rhs: &Matrix<T>) -> Matrix<T> {
        self.try_matmul(rhs).expect("matmul dimension mismatch")
    }

    /// Matrix product `self · rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `self.cols() != rhs.rows()`.
    pub fn try_matmul(&self, rhs: &Matrix<T>) -> Result<Matrix<T>> {
        if self.cols != rhs.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: vec![self.rows, self.cols],
                rhs: vec![rhs.rows, rhs.cols],
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        gemm::matmul_into(&self.data, self.rows, self.cols, &rhs.data, rhs.cols, &mut out.data);
        Ok(out)
    }

    /// Kronecker (tensor) product `self ⊗ rhs`.
    pub fn kron(&self, rhs: &Matrix<T>) -> Matrix<T> {
        let mut out = Matrix::zeros(self.rows * rhs.rows, self.cols * rhs.cols);
        kron::kron_into(
            &self.data,
            self.rows,
            self.cols,
            &rhs.data,
            rhs.rows,
            rhs.cols,
            &mut out.data,
        );
        out
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn hadamard(&self, rhs: &Matrix<T>) -> Result<Matrix<T>> {
        if self.rows != rhs.rows || self.cols != rhs.cols {
            return Err(TensorError::ShapeMismatch {
                op: "hadamard",
                lhs: vec![self.rows, self.cols],
                rhs: vec![rhs.rows, rhs.cols],
            });
        }
        let data = self.data.iter().zip(rhs.data.iter()).map(|(a, b)| *a * *b).collect();
        Ok(Matrix { rows: self.rows, cols: self.cols, data })
    }

    /// Transpose (no conjugation).
    pub fn transpose(&self) -> Matrix<T> {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }

    /// Conjugate transpose (dagger).
    pub fn dagger(&self) -> Matrix<T> {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.get(c, r).conj())
    }

    /// Element-wise complex conjugate.
    pub fn conj(&self) -> Matrix<T> {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|c| c.conj()).collect(),
        }
    }

    /// Matrix trace.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> Complex<T> {
        assert!(self.is_square(), "trace of non-square matrix");
        (0..self.rows).map(|i| self.get(i, i)).sum()
    }

    /// Sum of two matrices.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn add(&self, rhs: &Matrix<T>) -> Result<Matrix<T>> {
        if self.rows != rhs.rows || self.cols != rhs.cols {
            return Err(TensorError::ShapeMismatch {
                op: "add",
                lhs: vec![self.rows, self.cols],
                rhs: vec![rhs.rows, rhs.cols],
            });
        }
        let data = self.data.iter().zip(rhs.data.iter()).map(|(a, b)| *a + *b).collect();
        Ok(Matrix { rows: self.rows, cols: self.cols, data })
    }

    /// Difference `self - rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn sub(&self, rhs: &Matrix<T>) -> Result<Matrix<T>> {
        if self.rows != rhs.rows || self.cols != rhs.cols {
            return Err(TensorError::ShapeMismatch {
                op: "sub",
                lhs: vec![self.rows, self.cols],
                rhs: vec![rhs.rows, rhs.cols],
            });
        }
        let data = self.data.iter().zip(rhs.data.iter()).map(|(a, b)| *a - *b).collect();
        Ok(Matrix { rows: self.rows, cols: self.cols, data })
    }

    /// Scales every element by a complex factor.
    pub fn scale(&self, s: Complex<T>) -> Matrix<T> {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|c| *c * s).collect(),
        }
    }

    /// Hilbert–Schmidt inner product `Tr(self† · rhs)`.
    ///
    /// This is the quantity inside the infidelity cost function of Eq. (1) in the paper.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn hs_inner(&self, rhs: &Matrix<T>) -> Complex<T> {
        assert_eq!(self.rows, rhs.rows, "hs_inner shape mismatch");
        assert_eq!(self.cols, rhs.cols, "hs_inner shape mismatch");
        self.data.iter().zip(rhs.data.iter()).map(|(a, b)| a.conj() * *b).sum()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> T {
        self.data.iter().fold(T::zero(), |acc, c| acc + c.norm_sqr()).sqrt()
    }

    /// Largest element-wise distance to another matrix of the same shape.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_elementwise_distance(&self, rhs: &Matrix<T>) -> T {
        assert_eq!(self.rows, rhs.rows, "shape mismatch");
        assert_eq!(self.cols, rhs.cols, "shape mismatch");
        self.data.iter().zip(rhs.data.iter()).fold(T::zero(), |acc, (a, b)| acc.max(a.dist(*b)))
    }

    /// `true` if the matrix is the identity to within `tol` element-wise.
    pub fn is_identity(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        let tol = T::from_f64(tol);
        for r in 0..self.rows {
            for c in 0..self.cols {
                let expected = if r == c { Complex::one() } else { Complex::zero() };
                // A NaN distance (from an infinite or NaN entry) compares as `None`
                // and fails the check.
                let distance = self.get(r, c).dist(expected);
                if !matches!(distance.partial_cmp(&tol), Some(Ordering::Less | Ordering::Equal)) {
                    return false;
                }
            }
        }
        true
    }

    /// `true` if `self† · self` is the identity to within `tol`.
    pub fn is_unitary(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        self.dagger().matmul(self).is_identity(tol)
    }

    /// The largest element-wise deviation of `self† · self` from the identity — the
    /// quantity [`Matrix::is_unitary`] compares against its tolerance. Non-square
    /// matrices report infinity. Diagnostics use this to say *how far* from unitary a
    /// rejected matrix was, not just that it failed.
    pub fn unitary_deviation(&self) -> T {
        if !self.is_square() {
            return T::from_f64(f64::INFINITY);
        }
        let gram = self.dagger().matmul(self);
        let mut worst = T::zero();
        for r in 0..gram.rows {
            for c in 0..gram.cols {
                let expected = if r == c { Complex::one() } else { Complex::zero() };
                let distance = gram.get(r, c).dist(expected);
                if distance.to_f64().is_nan() {
                    // `max` would silently drop a NaN once a later finite element
                    // compares against it; report it so validation rejects the matrix.
                    return distance;
                }
                worst = worst.max(distance);
            }
        }
        worst
    }

    /// Converts every element to `f64` precision.
    pub fn to_f64(&self) -> Matrix<f64> {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|c| c.to_c64()).collect(),
        }
    }

    /// Iterator over `(row, col, value)` triples in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, Complex<T>)> + '_ {
        let cols = self.cols;
        self.data.iter().enumerate().map(move |(i, c)| (i / cols, i % cols, *c))
    }
}

impl<T: Float> std::fmt::Display for Matrix<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for r in 0..self.rows {
            write!(f, "[")?;
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", self.get(r, c))?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::C64;

    fn pauli_x() -> Matrix<f64> {
        Matrix::from_rows(&[vec![C64::zero(), C64::one()], vec![C64::one(), C64::zero()]])
    }

    fn pauli_y() -> Matrix<f64> {
        Matrix::from_rows(&[vec![C64::zero(), -C64::i()], vec![C64::i(), C64::zero()]])
    }

    fn pauli_z() -> Matrix<f64> {
        Matrix::from_rows(&[vec![C64::one(), C64::zero()], vec![C64::zero(), -C64::one()]])
    }

    #[test]
    fn unitary_deviation_measures_distance_from_unitarity() {
        assert!(pauli_x().unitary_deviation() < 1e-15);
        let scaled = pauli_x().scale(C64::from_real(1.1));
        let deviation = scaled.unitary_deviation();
        assert!((deviation - 0.21).abs() < 1e-12, "deviation {deviation}");
        assert!(!scaled.is_unitary(0.1));
        assert!(Matrix::<f64>::zeros(2, 3).unitary_deviation().is_infinite());

        // A NaN element must surface as a NaN deviation, not be masked by `max`.
        let mut poisoned = Matrix::<f64>::identity(3);
        poisoned.set(0, 0, C64::new(f64::NAN, 0.0));
        assert!(poisoned.unitary_deviation().is_nan());
    }

    #[test]
    fn identity_is_identity() {
        assert!(Matrix::<f64>::identity(5).is_identity(0.0));
        assert!(Matrix::<f64>::identity(5).is_unitary(1e-14));
    }

    #[test]
    fn pauli_algebra() {
        let (x, y, z) = (pauli_x(), pauli_y(), pauli_z());
        // X·Y = iZ
        let xy = x.matmul(&y);
        assert!(xy.max_elementwise_distance(&z.scale(C64::i())) < 1e-14);
        // X² = I
        assert!(x.matmul(&x).is_identity(1e-14));
        assert!(x.is_unitary(1e-14) && y.is_unitary(1e-14) && z.is_unitary(1e-14));
    }

    #[test]
    fn matmul_rectangular() {
        let a = Matrix::from_fn(2, 3, |r, c| C64::from_real((r * 3 + c) as f64));
        let b = Matrix::from_fn(3, 2, |r, c| C64::from_real((r * 2 + c) as f64));
        let c = a.matmul(&b);
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 2);
        assert_eq!(c.get(0, 0), C64::from_real(10.0));
        assert_eq!(c.get(1, 1), C64::from_real(40.0));
    }

    #[test]
    fn try_matmul_rejects_bad_shapes() {
        let a = Matrix::<f64>::zeros(2, 3);
        let b = Matrix::<f64>::zeros(2, 3);
        assert!(matches!(a.try_matmul(&b), Err(TensorError::ShapeMismatch { .. })));
    }

    #[test]
    fn kron_shapes_and_values() {
        let x = pauli_x();
        let id = Matrix::<f64>::identity(2);
        let cx_ish = id.kron(&x);
        assert_eq!(cx_ish.rows(), 4);
        assert_eq!(cx_ish.get(0, 1), C64::one());
        assert_eq!(cx_ish.get(2, 3), C64::one());
        assert!(cx_ish.is_unitary(1e-14));
    }

    #[test]
    fn non_finite_matrices_are_neither_identity_nor_unitary() {
        for bad in [C64::new(f64::INFINITY, 0.0), C64::new(f64::NAN, 0.0), C64::new(0.0, f64::NAN)]
        {
            let m = Matrix::from_rows(&[vec![bad, C64::zero()], vec![C64::zero(), C64::one()]]);
            assert!(!m.is_identity(1e-10), "{bad:?}");
            assert!(!m.is_unitary(1e-10), "{bad:?}");
        }
    }

    #[test]
    fn kron_of_unitaries_is_unitary() {
        let u = pauli_y().kron(&pauli_z()).kron(&pauli_x());
        assert!(u.is_unitary(1e-12));
        assert_eq!(u.rows(), 8);
    }

    #[test]
    fn hadamard_product() {
        let a = Matrix::from_fn(2, 2, |r, c| C64::from_real((r + c) as f64));
        let b = Matrix::from_fn(2, 2, |_, _| C64::from_real(2.0));
        let h = a.hadamard(&b).unwrap();
        assert_eq!(h.get(1, 1), C64::from_real(4.0));
        let bad = Matrix::<f64>::zeros(3, 3);
        assert!(a.hadamard(&bad).is_err());
    }

    #[test]
    fn dagger_and_trace() {
        let y = pauli_y();
        assert_eq!(y.dagger(), y); // Hermitian
        assert_eq!(y.trace(), C64::zero());
        assert_eq!(Matrix::<f64>::identity(3).trace(), C64::from_real(3.0));
    }

    #[test]
    fn hs_inner_and_norm() {
        let x = pauli_x();
        assert_eq!(x.hs_inner(&x), C64::from_real(2.0));
        assert!((x.frobenius_norm() - 2.0f64.sqrt()).abs() < 1e-14);
        let z = pauli_z();
        assert_eq!(x.hs_inner(&z), C64::zero());
    }

    #[test]
    fn add_sub_scale() {
        let x = pauli_x();
        let two_x = x.add(&x).unwrap();
        assert_eq!(two_x, x.scale(C64::from_real(2.0)));
        assert!(two_x.sub(&x).unwrap().max_elementwise_distance(&x) < 1e-15);
        assert!(x.add(&Matrix::zeros(3, 3)).is_err());
        assert!(x.sub(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::<f64>::from_vec(2, 2, vec![C64::zero(); 3]).is_err());
        assert!(Matrix::<f64>::from_vec(2, 2, vec![C64::zero(); 4]).is_ok());
    }

    #[test]
    fn transpose_vs_dagger() {
        let y = pauli_y();
        // Y is Hermitian: Y† = Y, and therefore Yᵀ = conj(Y).
        assert_eq!(y.dagger(), y);
        assert_eq!(y.transpose(), y.conj());
        assert_eq!(y.transpose().get(0, 1), C64::i());
        assert_eq!(y.dagger().get(0, 1), -C64::i());
    }

    #[test]
    fn display_and_iter() {
        let x = pauli_x();
        assert!(x.to_string().contains('['));
        let count = x.iter().filter(|(_, _, v)| *v == C64::one()).count();
        assert_eq!(count, 2);
    }

    #[test]
    fn f32_matrix_roundtrip() {
        let m: Matrix<f32> = Matrix::identity(4);
        assert!(m.to_f64().is_identity(0.0));
    }
}
