//! # qudit-tensor
//!
//! Dense complex linear-algebra substrate for the OpenQudit reproduction.
//!
//! The paper relies on `faer`, `nano-gemm`, and custom transpose routines for its
//! numerical kernels; this crate provides the equivalent functionality from scratch:
//!
//! * [`Complex`] — a minimal complex scalar generic over [`Float`] (`f32`/`f64`),
//! * [`Matrix`] — a dense, row-major complex matrix with the operations the tensor
//!   network virtual machine needs (GEMM, Kronecker product, Hadamard product,
//!   conjugate transpose, Hilbert–Schmidt inner products, unitarity checks),
//! * [`Tensor`] — a dense complex tensor with shape/stride metadata and the
//!   reshape–permute–reshape machinery used by the TTGT contraction strategy,
//! * [`spectrum`] — a deterministic cyclic-Jacobi Hermitian eigensolver and the
//!   operator-Schmidt spectrum of an operator across a cut of its qudits, which the
//!   synthesis engine's infidelity lower bound reads.
//!
//! # Example
//!
//! ```
//! use qudit_tensor::{Matrix, Complex};
//!
//! let x: Matrix<f64> = Matrix::from_rows(&[
//!     vec![Complex::zero(), Complex::one()],
//!     vec![Complex::one(), Complex::zero()],
//! ]);
//! let id = x.matmul(&x);
//! assert!(id.is_identity(1e-12));
//! ```

pub mod complex;
pub mod gemm;
pub mod kron;
pub mod matrix;
pub mod permute;
pub mod spectrum;
pub mod tensor;

pub use complex::{Complex, Float, C32, C64};
pub use matrix::Matrix;
pub use tensor::Tensor;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;

/// Errors produced by shape-checked tensor and matrix operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The shapes of the operands are incompatible for the requested operation.
    ShapeMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Shape of the left/first operand.
        lhs: Vec<usize>,
        /// Shape of the right/second operand (empty when not applicable).
        rhs: Vec<usize>,
    },
    /// A reshape was requested whose element count does not match the source.
    InvalidReshape {
        /// Number of elements in the source tensor.
        from: usize,
        /// Number of elements implied by the requested shape.
        to: usize,
    },
    /// A permutation vector was not a permutation of `0..rank`.
    InvalidPermutation {
        /// The offending permutation.
        perm: Vec<usize>,
        /// The rank of the tensor being permuted.
        rank: usize,
    },
    /// An index was out of bounds.
    IndexOutOfBounds {
        /// The offending index.
        index: Vec<usize>,
        /// The shape of the tensor being indexed.
        shape: Vec<usize>,
    },
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::ShapeMismatch { op, lhs, rhs } => {
                write!(f, "shape mismatch in {op}: lhs {lhs:?}, rhs {rhs:?}")
            }
            TensorError::InvalidReshape { from, to } => {
                write!(f, "invalid reshape: source has {from} elements, target implies {to}")
            }
            TensorError::InvalidPermutation { perm, rank } => {
                write!(f, "invalid permutation {perm:?} for rank-{rank} tensor")
            }
            TensorError::IndexOutOfBounds { index, shape } => {
                write!(f, "index {index:?} out of bounds for shape {shape:?}")
            }
        }
    }
}

impl std::error::Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_nonempty() {
        let e = TensorError::ShapeMismatch { op: "matmul", lhs: vec![2, 2], rhs: vec![3, 3] };
        assert!(!e.to_string().is_empty());
        let e = TensorError::InvalidReshape { from: 4, to: 5 };
        assert!(e.to_string().contains("reshape"));
        let e = TensorError::InvalidPermutation { perm: vec![0, 0], rank: 2 };
        assert!(e.to_string().contains("permutation"));
        let e = TensorError::IndexOutOfBounds { index: vec![5], shape: vec![2] };
        assert!(e.to_string().contains("out of bounds"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<TensorError>();
    }
}
