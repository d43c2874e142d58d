//! # qudit-qgl
//!
//! The **Qudit Gate Language (QGL)** front-end and symbolic IR of the OpenQudit
//! reproduction.
//!
//! QGL lets a quantum expert define a gate as a symbolic, unitary-valued expression whose
//! syntax mirrors the on-paper matrix formulation:
//!
//! ```
//! use qudit_qgl::UnitaryExpression;
//!
//! let u3 = UnitaryExpression::new(
//!     "U3(θ, ϕ, λ) {
//!         [
//!             [ cos(θ/2), ~ e^(i*λ) * sin(θ/2) ],
//!             [ e^(i*ϕ) * sin(θ/2), e^(i*(ϕ+λ)) * cos(θ/2) ],
//!         ]
//!     }",
//! )?;
//! assert!(u3.check_unitary(&[0.4, 1.0, -0.3], 1e-12));
//!
//! // The analytical gradient is derived automatically — no Listing-1 boilerplate.
//! let grads = u3.gradient_matrices::<f64>(&[0.4, 1.0, -0.3])?;
//! assert_eq!(grads.len(), 3);
//! # Ok::<(), qudit_qgl::QglError>(())
//! ```
//!
//! The crate provides:
//!
//! * [`lexer`], [`parser`], [`ast`] — the QGL grammar of Fig. 2 in the paper,
//! * [`expr`] — real/imaginary symbolic trees ([`Expr`], [`ComplexExpr`]),
//! * [`lower`] — AST → symbolic-matrix lowering with Euler expansion and trig
//!   canonicalization,
//! * [`diff`] — symbolic differentiation,
//! * [`UnitaryExpression`] — the composable symbolic gate IR, and [`ExprKey`], its
//!   identity, computed once per expression,
//! * [`transform`] — matrix product, Kronecker product, dagger, control, substitution,
//!   wire permutation, and trace.

pub mod ast;
pub mod diff;
pub mod error;
pub mod expr;
pub mod key;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod transform;
pub mod unitary_expr;

pub use error::{QglError, Result};
pub use expr::{ComplexExpr, Expr};
pub use key::ExprKey;
pub use unitary_expr::UnitaryExpression;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_ss<T: Send + Sync>() {}
        assert_ss::<Expr>();
        assert_ss::<ComplexExpr>();
        assert_ss::<UnitaryExpression>();
        assert_ss::<ExprKey>();
        assert_ss::<QglError>();
    }
}
