//! Kronecker-product kernels.
//!
//! The KRON bytecode instruction of the TNVM (Table II in the paper) combines the
//! tensors of gates acting on disjoint qudits into a single larger tensor. These kernels
//! operate directly on flat row-major buffers so the virtual machine can run them against
//! its pre-allocated arena without constructing intermediate `Matrix` values.

use crate::complex::{Complex, Float};

/// Computes `out = a ⊗ b` where `a` is `ar×ac`, `b` is `br×bc`, and `out` is
/// `(ar·br)×(ac·bc)`, all row-major.
///
/// The loops walk `out` row by row and drive the innermost `b`-row scaling through
/// slice iterators (no per-element bounds checks), so the compiler can unroll and
/// vectorize it. Each element is the complex product `a_ij · b_pq` with the
/// `(re·re − im·im, re·im + im·re)` expansion of [`Complex`]'s `Mul`, and a zero
/// `a_ij` writes zeros without multiplying.
///
/// # Panics
///
/// Panics if any buffer is smaller than its stated dimensions imply.
#[allow(clippy::too_many_arguments)]
pub fn kron_into<T: Float>(
    a: &[Complex<T>],
    ar: usize,
    ac: usize,
    b: &[Complex<T>],
    br: usize,
    bc: usize,
    out: &mut [Complex<T>],
) {
    assert!(a.len() >= ar * ac, "kron lhs buffer too small");
    assert!(b.len() >= br * bc, "kron rhs buffer too small");
    let (or, oc) = (ar * br, ac * bc);
    assert!(out.len() >= or * oc, "kron output buffer too small");
    for i in 0..ar {
        let a_row = &a[i * ac..(i + 1) * ac];
        for p in 0..br {
            let b_row = &b[p * bc..(p + 1) * bc];
            let o_row = &mut out[(i * br + p) * oc..(i * br + p) * oc + oc];
            for (j, &a_ij) in a_row.iter().enumerate() {
                let o_block = &mut o_row[j * bc..(j + 1) * bc];
                if a_ij.re == T::zero() && a_ij.im == T::zero() {
                    for o in o_block.iter_mut() {
                        *o = Complex::zero();
                    }
                } else {
                    let (re, im) = (a_ij.re, a_ij.im);
                    for (o, &b_pq) in o_block.iter_mut().zip(b_row.iter()) {
                        *o = Complex {
                            re: re * b_pq.re - im * b_pq.im,
                            im: re * b_pq.im + im * b_pq.re,
                        };
                    }
                }
            }
        }
    }
}

/// Accumulating Kronecker product `out += a ⊗ b`.
///
/// Used by the product-rule expansion of KRON under forward-mode differentiation. A
/// zero `a_ij` leaves its output block untouched.
///
/// # Panics
///
/// Panics if any buffer is smaller than its stated dimensions imply.
#[allow(clippy::too_many_arguments)]
pub fn kron_acc_into<T: Float>(
    a: &[Complex<T>],
    ar: usize,
    ac: usize,
    b: &[Complex<T>],
    br: usize,
    bc: usize,
    out: &mut [Complex<T>],
) {
    assert!(a.len() >= ar * ac, "kron lhs buffer too small");
    assert!(b.len() >= br * bc, "kron rhs buffer too small");
    let (or, oc) = (ar * br, ac * bc);
    assert!(out.len() >= or * oc, "kron output buffer too small");
    for i in 0..ar {
        let a_row = &a[i * ac..(i + 1) * ac];
        for p in 0..br {
            let b_row = &b[p * bc..(p + 1) * bc];
            let o_row = &mut out[(i * br + p) * oc..(i * br + p) * oc + oc];
            for (j, &a_ij) in a_row.iter().enumerate() {
                if a_ij.re == T::zero() && a_ij.im == T::zero() {
                    continue;
                }
                let (re, im) = (a_ij.re, a_ij.im);
                let o_block = &mut o_row[j * bc..(j + 1) * bc];
                for (o, &b_pq) in o_block.iter_mut().zip(b_row.iter()) {
                    o.re += re * b_pq.re - im * b_pq.im;
                    o.im += re * b_pq.im + im * b_pq.re;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Matrix, C64};

    /// The index-arithmetic `out = a ⊗ b` the kernels are checked against.
    fn kron_oracle<T: Float>(
        a: &[Complex<T>],
        ar: usize,
        ac: usize,
        b: &[Complex<T>],
        br: usize,
        bc: usize,
        out: &mut [Complex<T>],
    ) {
        assert!(a.len() >= ar * ac, "kron lhs buffer too small");
        assert!(b.len() >= br * bc, "kron rhs buffer too small");
        let (or, oc) = (ar * br, ac * bc);
        assert!(out.len() >= or * oc, "kron output buffer too small");
        for i in 0..ar {
            for j in 0..ac {
                let a_ij = a[i * ac + j];
                let row0 = i * br;
                let col0 = j * bc;
                if a_ij.re == T::zero() && a_ij.im == T::zero() {
                    for p in 0..br {
                        let orow = (row0 + p) * oc + col0;
                        for q in 0..bc {
                            out[orow + q] = Complex::zero();
                        }
                    }
                    continue;
                }
                for p in 0..br {
                    let brow = p * bc;
                    let orow = (row0 + p) * oc + col0;
                    for q in 0..bc {
                        out[orow + q] = a_ij * b[brow + q];
                    }
                }
            }
        }
    }

    /// The index-arithmetic `out += a ⊗ b` the kernels are checked against.
    fn kron_acc_oracle<T: Float>(
        a: &[Complex<T>],
        ar: usize,
        ac: usize,
        b: &[Complex<T>],
        br: usize,
        bc: usize,
        out: &mut [Complex<T>],
    ) {
        assert!(a.len() >= ar * ac, "kron lhs buffer too small");
        assert!(b.len() >= br * bc, "kron rhs buffer too small");
        let (or, oc) = (ar * br, ac * bc);
        assert!(out.len() >= or * oc, "kron output buffer too small");
        for i in 0..ar {
            for j in 0..ac {
                let a_ij = a[i * ac + j];
                if a_ij.re == T::zero() && a_ij.im == T::zero() {
                    continue;
                }
                let row0 = i * br;
                let col0 = j * bc;
                for p in 0..br {
                    let brow = p * bc;
                    let orow = (row0 + p) * oc + col0;
                    for q in 0..bc {
                        out[orow + q] += a_ij * b[brow + q];
                    }
                }
            }
        }
    }

    #[test]
    fn kron_identity_with_x() {
        let id = Matrix::<f64>::identity(2);
        let x = Matrix::from_rows(&[vec![C64::zero(), C64::one()], vec![C64::one(), C64::zero()]]);
        let k = id.kron(&x);
        // Expected block-diagonal [[X, 0], [0, X]].
        for (r, c, v) in k.iter() {
            let expect =
                if (r / 2 == c / 2) && (r % 2 != c % 2) { C64::one() } else { C64::zero() };
            assert_eq!(v, expect, "element ({r},{c})");
        }
    }

    #[test]
    fn kron_dimensions_multiply() {
        let a = Matrix::<f64>::zeros(2, 3);
        let b = Matrix::<f64>::zeros(4, 5);
        let k = a.kron(&b);
        assert_eq!((k.rows(), k.cols()), (8, 15));
    }

    #[test]
    fn kron_mixed_radix() {
        // Qubit ⊗ qutrit identity = 6-dimensional identity.
        let q2 = Matrix::<f64>::identity(2);
        let q3 = Matrix::<f64>::identity(3);
        assert!(q2.kron(&q3).is_identity(0.0));
    }

    #[test]
    fn kron_scalar_structure() {
        let a = Matrix::from_rows(&[vec![C64::new(2.0, 0.0)]]);
        let b = Matrix::from_rows(&[
            vec![C64::new(1.0, 1.0), C64::zero()],
            vec![C64::zero(), C64::new(0.0, -1.0)],
        ]);
        let k = a.kron(&b);
        assert_eq!(k.get(0, 0), C64::new(2.0, 2.0));
        assert_eq!(k.get(1, 1), C64::new(0.0, -2.0));
    }

    #[test]
    fn kron_mixed_product_property() {
        // (A ⊗ B)(C ⊗ D) = (AC) ⊗ (BD)
        let a = Matrix::from_fn(2, 2, |r, c| C64::new((r + 2 * c) as f64, 1.0));
        let b = Matrix::from_fn(3, 3, |r, c| C64::new(r as f64, c as f64));
        let c = Matrix::from_fn(2, 2, |r, c| C64::new((r * c) as f64, -1.0));
        let d = Matrix::from_fn(3, 3, |r, c| C64::new((r + c) as f64, 0.5));
        let lhs = a.kron(&b).matmul(&c.kron(&d));
        let rhs = a.matmul(&c).kron(&b.matmul(&d));
        assert!(lhs.max_elementwise_distance(&rhs) < 1e-10);
    }

    fn lcg_matrix(rows: usize, cols: usize, seed: u64) -> Vec<C64> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        (0..rows * cols)
            .map(|i| if i % 4 == 0 { C64::zero() } else { C64::new(next(), next()) })
            .collect()
    }

    /// Every KRON operand shape `(ar, ac, br, bc)` the PQC templates over the
    /// registered radix mixes lower to (qubit, qutrit and ququart pairs and chains).
    const CIRCUIT_SHAPES: [(usize, usize, usize, usize); 16] = [
        (2, 2, 2, 2),
        (2, 2, 3, 3),
        (2, 2, 4, 4),
        (3, 3, 2, 2),
        (3, 3, 3, 3),
        (3, 3, 4, 4),
        (3, 3, 9, 9),
        (4, 4, 2, 2),
        (4, 4, 3, 3),
        (4, 4, 4, 4),
        (4, 4, 6, 6),
        (6, 6, 4, 4),
        (8, 8, 2, 2),
        (8, 8, 3, 3),
        (9, 9, 3, 3),
        (12, 12, 2, 2),
    ];

    /// Shapes with fewer than 16 output elements, and rectangular operands.
    const SMALL_AND_RECTANGULAR_SHAPES: [(usize, usize, usize, usize); 8] = [
        (1, 1, 1, 1),
        (1, 1, 2, 2),
        (2, 2, 1, 1),
        (1, 2, 3, 1),
        (2, 1, 1, 3),
        (3, 1, 1, 5),
        (1, 3, 2, 2),
        (3, 5, 4, 2),
    ];

    #[test]
    fn blocked_kron_matches_scalar_bitwise() {
        // The kernels against the index-arithmetic oracle, overwriting and
        // accumulating, with every fourth `a` entry an exact zero.
        for (ar, ac, br, bc) in CIRCUIT_SHAPES.into_iter().chain(SMALL_AND_RECTANGULAR_SHAPES) {
            let a = lcg_matrix(ar, ac, (ar * 7 + ac) as u64);
            let b = lcg_matrix(br, bc, (br * 7 + bc) as u64);
            let n = ar * br * ac * bc;
            let mut expected = vec![C64::new(0.5, -0.5); n];
            let mut actual = vec![C64::new(0.5, -0.5); n];
            kron_oracle(&a, ar, ac, &b, br, bc, &mut expected);
            kron_into(&a, ar, ac, &b, br, bc, &mut actual);
            for (i, (x, y)) in expected.iter().zip(actual.iter()).enumerate() {
                assert_eq!(x.re.to_bits(), y.re.to_bits(), "into re at {i}");
                assert_eq!(x.im.to_bits(), y.im.to_bits(), "into im at {i}");
            }
            let mut expected_acc = expected.clone();
            let mut actual_acc = expected.clone();
            kron_acc_oracle(&a, ar, ac, &b, br, bc, &mut expected_acc);
            kron_acc_into(&a, ar, ac, &b, br, bc, &mut actual_acc);
            for (i, (x, y)) in expected_acc.iter().zip(actual_acc.iter()).enumerate() {
                assert_eq!(x.re.to_bits(), y.re.to_bits(), "acc re at {i}");
                assert_eq!(x.im.to_bits(), y.im.to_bits(), "acc im at {i}");
            }
        }
    }

    #[test]
    fn kron_acc_adds() {
        let a = [C64::one(); 1];
        let b = [C64::one(); 1];
        let mut out = [C64::new(3.0, 0.0)];
        kron_acc_into(&a, 1, 1, &b, 1, 1, &mut out);
        assert_eq!(out[0], C64::new(4.0, 0.0));
    }
}
