//! General matrix–matrix multiplication kernels.
//!
//! The paper delegates its inner-loop matrix products to `nano-gemm`; this module is the
//! from-scratch stand-in. The kernel is a cache-friendly ikj-ordered loop with a blocked
//! variant for larger operands. Quantum-compilation workloads multiply many *small*
//! matrices (2×2 up to a few hundred square for the PQC benchmarks), so the emphasis is
//! on low constant overhead rather than asymptotic tuning.

use crate::complex::{Complex, Float};

/// Block edge used by the tiled kernel.
const BLOCK: usize = 32;

/// Computes `out = a · b` where `a` is `m×k`, `b` is `k×n` and `out` is `m×n`,
/// all row-major.
///
/// # Panics
///
/// Panics (via debug assertions on slice indexing) if the slices are shorter than the
/// stated dimensions imply. Callers are expected to have validated shapes.
pub fn matmul_into<T: Float>(
    a: &[Complex<T>],
    m: usize,
    k: usize,
    b: &[Complex<T>],
    n: usize,
    out: &mut [Complex<T>],
) {
    assert!(a.len() >= m * k, "lhs buffer too small");
    assert!(b.len() >= k * n, "rhs buffer too small");
    assert!(out.len() >= m * n, "output buffer too small");
    for v in out[..m * n].iter_mut() {
        *v = Complex::zero();
    }
    if m * n * k <= 32 * 32 * 32 {
        matmul_ikj(a, m, k, b, n, out);
    } else {
        matmul_blocked(a, m, k, b, n, out);
    }
}

/// Accumulating product: `out += a · b`.
///
/// Used by the forward-mode AD rules in the TNVM, where a gradient component is a sum of
/// products (product rule).
pub fn matmul_acc_into<T: Float>(
    a: &[Complex<T>],
    m: usize,
    k: usize,
    b: &[Complex<T>],
    n: usize,
    out: &mut [Complex<T>],
) {
    assert!(a.len() >= m * k, "lhs buffer too small");
    assert!(b.len() >= k * n, "rhs buffer too small");
    assert!(out.len() >= m * n, "output buffer too small");
    matmul_ikj(a, m, k, b, n, out);
}

/// Simple ikj-ordered kernel (accumulates into `out`).
fn matmul_ikj<T: Float>(
    a: &[Complex<T>],
    m: usize,
    k: usize,
    b: &[Complex<T>],
    n: usize,
    out: &mut [Complex<T>],
) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (p, &a_ip) in a_row.iter().enumerate() {
            if a_ip.re == T::zero() && a_ip.im == T::zero() {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (j, &b_pj) in b_row.iter().enumerate() {
                out_row[j] += a_ip * b_pj;
            }
        }
    }
}

/// Blocked kernel for larger operands (accumulates into `out`).
fn matmul_blocked<T: Float>(
    a: &[Complex<T>],
    m: usize,
    k: usize,
    b: &[Complex<T>],
    n: usize,
    out: &mut [Complex<T>],
) {
    let mut ii = 0;
    while ii < m {
        let i_end = (ii + BLOCK).min(m);
        let mut pp = 0;
        while pp < k {
            let p_end = (pp + BLOCK).min(k);
            let mut jj = 0;
            while jj < n {
                let j_end = (jj + BLOCK).min(n);
                for i in ii..i_end {
                    let a_row = &a[i * k..(i + 1) * k];
                    let out_row = &mut out[i * n..(i + 1) * n];
                    for p in pp..p_end {
                        let a_ip = a_row[p];
                        if a_ip.re == T::zero() && a_ip.im == T::zero() {
                            continue;
                        }
                        let b_row = &b[p * n..(p + 1) * n];
                        for j in jj..j_end {
                            out_row[j] += a_ip * b_row[j];
                        }
                    }
                }
                jj = j_end;
            }
            pp = p_end;
        }
        ii = i_end;
    }
}

/// Element-wise (Hadamard) product `out[i] = a[i] * b[i]`.
pub fn hadamard_into<T: Float>(a: &[Complex<T>], b: &[Complex<T>], out: &mut [Complex<T>]) {
    assert_eq!(a.len(), b.len(), "hadamard operand length mismatch");
    assert!(out.len() >= a.len(), "hadamard output too small");
    for ((o, &x), &y) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
        *o = x * y;
    }
}

/// Accumulating element-wise product `out[i] += a[i] * b[i]`.
pub fn hadamard_acc_into<T: Float>(a: &[Complex<T>], b: &[Complex<T>], out: &mut [Complex<T>]) {
    assert_eq!(a.len(), b.len(), "hadamard operand length mismatch");
    assert!(out.len() >= a.len(), "hadamard output too small");
    for ((o, &x), &y) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
        *o += x * y;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Matrix, C64};

    fn naive(a: &Matrix<f64>, b: &Matrix<f64>) -> Matrix<f64> {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = C64::zero();
                for p in 0..a.cols() {
                    acc += a.get(i, p) * b.get(p, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
        // Small deterministic LCG so the kernel tests do not depend on `rand`.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        Matrix::from_fn(rows, cols, |_, _| C64::new(next(), next()))
    }

    #[test]
    fn small_kernel_matches_naive() {
        for (m, k, n) in [(1, 1, 1), (2, 3, 4), (4, 4, 4), (5, 2, 7)] {
            let a = random_matrix(m, k, (m * 100 + k) as u64);
            let b = random_matrix(k, n, (k * 100 + n) as u64);
            let fast = a.matmul(&b);
            let slow = naive(&a, &b);
            assert!(fast.max_elementwise_distance(&slow) < 1e-12, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn blocked_kernel_matches_naive() {
        let a = random_matrix(48, 40, 1);
        let b = random_matrix(40, 56, 2);
        let fast = a.matmul(&b);
        let slow = naive(&a, &b);
        assert!(fast.max_elementwise_distance(&slow) < 1e-10);
    }

    #[test]
    fn accumulating_matmul_adds() {
        let a = random_matrix(3, 3, 7);
        let b = random_matrix(3, 3, 8);
        let mut out = vec![C64::one(); 9];
        matmul_acc_into(a.as_slice(), 3, 3, b.as_slice(), 3, &mut out);
        let expected = naive(&a, &b);
        for (i, v) in out.iter().enumerate() {
            let e = expected.as_slice()[i] + C64::one();
            assert!(v.dist(e) < 1e-12);
        }
    }

    #[test]
    fn hadamard_kernels() {
        let a = [C64::new(1.0, 1.0), C64::new(2.0, 0.0)];
        let b = [C64::new(0.0, 1.0), C64::new(3.0, 0.0)];
        let mut out = [C64::zero(); 2];
        hadamard_into(&a, &b, &mut out);
        assert_eq!(out[0], C64::new(-1.0, 1.0));
        assert_eq!(out[1], C64::new(6.0, 0.0));
        hadamard_acc_into(&a, &b, &mut out);
        assert_eq!(out[1], C64::new(12.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "output buffer too small")]
    fn output_too_small_panics() {
        let a = [C64::one(); 4];
        let b = [C64::one(); 4];
        let mut out = [C64::zero(); 2];
        matmul_into(&a, 2, 2, &b, 2, &mut out);
    }
}
