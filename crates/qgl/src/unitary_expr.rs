//! [`UnitaryExpression`] — the symbolic IR for a quantum operation.
//!
//! A `UnitaryExpression` is the lowered form of a QGL gate definition: a square matrix of
//! [`ComplexExpr`] elements together with the gate's name, parameter list, and qudit
//! radices. From this single artifact OpenQudit derives the numeric unitary, the
//! analytical gradient, and (via `qudit-qvm`) the compiled evaluation program — replacing
//! the hand-written boilerplate of Listing 1 in the paper with the one-line definition of
//! Listing 2.

use crate::diff::Differentiator;
use crate::error::{QglError, Result};
use crate::expr::{ComplexExpr, Expr};
use crate::key::ExprKey;
use crate::lower::{lower, Value};
use crate::parser::parse_definition;
use qudit_tensor::{Complex, Float, Matrix};

/// A symbolic, unitary-valued expression over a list of real parameters.
///
/// Its identity, the [`ExprKey`] returned by [`UnitaryExpression::canonical_key`], is
/// computed once when the expression is built, and clones share it. Equality
/// (`==`) compares the content; `Debug` output omits the key.
#[derive(Clone)]
pub struct UnitaryExpression {
    name: String,
    radices: Vec<usize>,
    params: Vec<String>,
    elements: Vec<Vec<ComplexExpr>>,
    /// Rendered from the four fields above by every constructor and by `with_name`.
    key: ExprKey,
}

impl UnitaryExpression {
    /// Parses and lowers a QGL gate definition.
    ///
    /// # Errors
    ///
    /// Returns a [`QglError`] if the source fails to parse, references undeclared
    /// parameters, does not evaluate to a square matrix, or has a dimension inconsistent
    /// with its declared radices (or not a power of two when radices are omitted).
    ///
    /// # Example
    ///
    /// ```
    /// use qudit_qgl::UnitaryExpression;
    /// let rx = UnitaryExpression::new(
    ///     "RX(theta) { [[cos(theta/2), ~i*sin(theta/2)], [~i*sin(theta/2), cos(theta/2)]] }",
    /// )?;
    /// assert_eq!(rx.num_params(), 1);
    /// assert_eq!(rx.radices(), &[2]);
    /// # Ok::<(), qudit_qgl::QglError>(())
    /// ```
    pub fn new(source: &str) -> Result<Self> {
        let def = parse_definition(source)?;
        // The variables i, e, and π are reserved for their mathematical values; allowing
        // them as parameter names would silently shadow the constants.
        if let Some(reserved) =
            def.params.iter().find(|p| matches!(p.as_str(), "i" | "e" | "pi" | "π"))
        {
            return Err(QglError::ParameterMismatch {
                detail: format!("'{reserved}' is a reserved constant and cannot be a parameter"),
            });
        }
        let value = lower(&def.body, &def.params)?;
        let elements = match value {
            Value::Matrix(m) => m,
            Value::Scalar(_) => return Err(QglError::NotAMatrix),
        };
        Self::from_elements(def.name, def.radices, def.params, elements)
    }

    /// Builds a unitary expression directly from lowered elements.
    ///
    /// If `radices` is empty, the gate is assumed to act on qubits and the dimension must
    /// be a power of two; the radices are then inferred as `[2; log2(dim)]`.
    ///
    /// # Errors
    ///
    /// Returns a [`QglError`] on dimension/radix inconsistencies.
    pub fn from_elements(
        name: String,
        radices: Vec<usize>,
        params: Vec<String>,
        elements: Vec<Vec<ComplexExpr>>,
    ) -> Result<Self> {
        let rows = elements.len();
        let cols = elements.first().map(|r| r.len()).unwrap_or(0);
        if rows == 0 || rows != cols {
            return Err(QglError::NotSquare { rows, cols });
        }
        let radices = if radices.is_empty() {
            if !rows.is_power_of_two() || rows < 2 {
                return Err(QglError::NotPowerOfTwo { dim: rows });
            }
            vec![2; rows.trailing_zeros() as usize]
        } else {
            let expected: usize = radices.iter().product();
            if expected != rows {
                return Err(QglError::RadixMismatch { expected_dim: expected, found_dim: rows });
            }
            radices
        };
        // Every free variable must be a declared parameter (lowering already enforces
        // this for parsed sources; enforce it for programmatic construction too).
        for row in &elements {
            for el in row {
                for v in el.variables() {
                    if !params.contains(&v) {
                        return Err(QglError::ParameterMismatch {
                            detail: format!("element references undeclared parameter '{v}'"),
                        });
                    }
                }
            }
        }
        Ok(Self::from_parts_unchecked(name, radices, params, elements))
    }

    /// The gate's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The qudit radices this gate acts on.
    pub fn radices(&self) -> &[usize] {
        &self.radices
    }

    /// The number of qudits the gate acts on.
    pub fn num_qudits(&self) -> usize {
        self.radices.len()
    }

    /// The matrix dimension (product of the radices).
    pub fn dim(&self) -> usize {
        self.elements.len()
    }

    /// The declared parameter names, in order.
    pub fn params(&self) -> &[String] {
        &self.params
    }

    /// The number of parameters.
    pub fn num_params(&self) -> usize {
        self.params.len()
    }

    /// `true` if the expression has no parameters (a constant gate).
    pub fn is_constant(&self) -> bool {
        self.params.is_empty()
    }

    /// The symbolic matrix elements (row-major).
    pub fn elements(&self) -> &[Vec<ComplexExpr>] {
        &self.elements
    }

    /// A single symbolic element.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn element(&self, row: usize, col: usize) -> &ComplexExpr {
        &self.elements[row][col]
    }

    /// Total symbolic node count across all elements (used to gauge simplification).
    pub fn node_count(&self) -> usize {
        self.elements.iter().flat_map(|r| r.iter()).map(|e| e.node_count()).sum()
    }

    /// Evaluates the unitary at the given parameter values by walking the symbolic trees.
    ///
    /// This is the slow reference evaluator; the fast path compiles the expression with
    /// `qudit-qvm` instead.
    ///
    /// # Errors
    ///
    /// Returns [`QglError::ParameterMismatch`] if the number of values differs from the
    /// number of declared parameters.
    pub fn to_matrix<T: Float>(&self, params: &[f64]) -> Result<Matrix<T>> {
        if params.len() != self.params.len() {
            return Err(QglError::ParameterMismatch {
                detail: format!(
                    "gate '{}' expects {} parameter(s), got {}",
                    self.name,
                    self.params.len(),
                    params.len()
                ),
            });
        }
        let dim = self.dim();
        let mut m = Matrix::zeros(dim, dim);
        for (r, row) in self.elements.iter().enumerate() {
            for (c, el) in row.iter().enumerate() {
                let (re, im) = el.eval_with(&self.params, params);
                m.set(r, c, Complex::new(T::from_f64(re), T::from_f64(im)));
            }
        }
        Ok(m)
    }

    /// Symbolically differentiates every element with respect to parameter `param`.
    ///
    /// # Errors
    ///
    /// Returns [`QglError::ParameterMismatch`] if `param` is not declared.
    pub fn differentiate(&self, param: &str) -> Result<Vec<Vec<ComplexExpr>>> {
        if !self.params.iter().any(|p| p == param) {
            return Err(QglError::ParameterMismatch {
                detail: format!("gate '{}' has no parameter '{param}'", self.name),
            });
        }
        Ok(self.derivative(param))
    }

    /// The full symbolic gradient: one element matrix per parameter, in parameter order.
    pub fn gradient(&self) -> Vec<Vec<Vec<ComplexExpr>>> {
        self.params.iter().map(|p| self.derivative(p)).collect()
    }

    /// ∂/∂`param` of every element, with one memo across the elements so that a subtree
    /// they share is differentiated once.
    fn derivative(&self, param: &str) -> Vec<Vec<ComplexExpr>> {
        let mut differentiator = Differentiator::new(param);
        self.elements
            .iter()
            .map(|row| row.iter().map(|el| differentiator.diff_complex(el)).collect())
            .collect()
    }

    /// Numerically evaluates the gradient ∂U/∂θᵢ for every parameter by walking the
    /// symbolic derivative trees (slow reference path).
    ///
    /// # Errors
    ///
    /// Returns [`QglError::ParameterMismatch`] on a parameter-count mismatch.
    pub fn gradient_matrices<T: Float>(&self, params: &[f64]) -> Result<Vec<Matrix<T>>> {
        if params.len() != self.params.len() {
            return Err(QglError::ParameterMismatch {
                detail: format!(
                    "gate '{}' expects {} parameter(s), got {}",
                    self.name,
                    self.params.len(),
                    params.len()
                ),
            });
        }
        let dim = self.dim();
        let mut out = Vec::with_capacity(self.params.len());
        for grad in self.gradient() {
            let mut m = Matrix::zeros(dim, dim);
            for (r, row) in grad.iter().enumerate() {
                for (c, el) in row.iter().enumerate() {
                    let (re, im) = el.eval_with(&self.params, params);
                    m.set(r, c, Complex::new(T::from_f64(re), T::from_f64(im)));
                }
            }
            out.push(m);
        }
        Ok(out)
    }

    /// Checks numerically (at the supplied parameter point) that the expression is
    /// unitary to within `tol`.
    pub fn check_unitary(&self, params: &[f64], tol: f64) -> bool {
        match self.to_matrix::<f64>(params) {
            Ok(m) => m.is_unitary(tol),
            Err(_) => false,
        }
    }

    /// Renames every parameter by applying `f`, returning the renamed expression.
    ///
    /// Used when composing gates that share parameter names so that each occurrence stays
    /// independent (e.g. prefixing with an instruction index).
    pub fn map_params(&self, f: impl Fn(&str) -> String) -> UnitaryExpression {
        let mut new_params = Vec::with_capacity(self.params.len());
        let mut elements = self.elements.clone();
        for old in &self.params {
            let new = f(old);
            if new != *old {
                for row in elements.iter_mut() {
                    for el in row.iter_mut() {
                        *el = el.substitute(old, &Expr::var(new.clone()));
                    }
                }
            }
            new_params.push(new);
        }
        Self::from_parts_unchecked(self.name.clone(), self.radices.clone(), new_params, elements)
    }

    /// The expression's identity, usable as a cache key: its canonical text (the name,
    /// radices, parameters, and the s-expression form of every element) with a hash,
    /// both computed when the expression was built. The name is part of the identity,
    /// so a renamed copy of a gate has a different key.
    pub fn canonical_key(&self) -> &ExprKey {
        &self.key
    }

    /// Replaces the gate name.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self.key = render_key(&self.name, &self.radices, &self.params, &self.elements);
        self
    }

    /// Internal constructor used by the transform module, which guarantees invariants.
    pub(crate) fn from_parts_unchecked(
        name: String,
        radices: Vec<usize>,
        params: Vec<String>,
        elements: Vec<Vec<ComplexExpr>>,
    ) -> Self {
        let key = render_key(&name, &radices, &params, &elements);
        UnitaryExpression { name, radices, params, elements, key }
    }
}

/// Renders the canonical text of an expression's parts and hashes it.
fn render_key(
    name: &str,
    radices: &[usize],
    params: &[String],
    elements: &[Vec<ComplexExpr>],
) -> ExprKey {
    use std::fmt::Write as _;
    let mut key = String::new();
    let _ = write!(key, "{name}<{radices:?}>({params:?})");
    for row in elements {
        for el in row {
            let _ = write!(key, "|{}#{}", el.re, el.im);
        }
    }
    ExprKey::new(key)
}

impl PartialEq for UnitaryExpression {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.radices == other.radices
            && self.params == other.params
            && self.elements == other.elements
    }
}

impl std::fmt::Debug for UnitaryExpression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UnitaryExpression")
            .field("name", &self.name)
            .field("radices", &self.radices)
            .field("params", &self.params)
            .field("elements", &self.elements)
            .finish()
    }
}

impl std::fmt::Display for UnitaryExpression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}({}) on radices {:?}, dim {}",
            self.name,
            self.params.join(", "),
            self.radices,
            self.dim()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const U3_SRC: &str = "U3(θ, ϕ, λ) {
        [
            [ cos(θ/2), ~ e^(i*λ) * sin(θ/2) ],
            [ e^(i*ϕ) * sin(θ/2), e^(i*(ϕ+λ)) * cos(θ/2) ],
        ]
    }";

    #[test]
    fn u3_parses_and_is_unitary() {
        let u3 = UnitaryExpression::new(U3_SRC).unwrap();
        assert_eq!(u3.name(), "U3");
        assert_eq!(u3.num_params(), 3);
        assert_eq!(u3.radices(), &[2]);
        assert_eq!(u3.dim(), 2);
        for p in [[0.1, 0.2, 0.3], [1.0, -2.0, 0.5], [3.1, 0.0, -1.2]] {
            assert!(u3.check_unitary(&p, 1e-12), "params {p:?}");
        }
    }

    #[test]
    fn u3_matches_listing1_formula() {
        let u3 = UnitaryExpression::new(U3_SRC).unwrap();
        let (t, p, l) = (0.7, 1.1, -0.4);
        let m = u3.to_matrix::<f64>(&[t, p, l]).unwrap();
        let ct = (t / 2.0).cos();
        let st = (t / 2.0).sin();
        assert!((m.get(0, 0).re - ct).abs() < 1e-14);
        assert!((m.get(0, 1).re + l.cos() * st).abs() < 1e-14);
        assert!((m.get(0, 1).im + l.sin() * st).abs() < 1e-14);
        assert!((m.get(1, 0).re - p.cos() * st).abs() < 1e-14);
        assert!((m.get(1, 1).re - (p + l).cos() * ct).abs() < 1e-14);
    }

    #[test]
    fn u3_gradient_matches_listing1_gradient() {
        let u3 = UnitaryExpression::new(U3_SRC).unwrap();
        let (t, p, l) = (0.9, 0.3, 1.7);
        let grads = u3.gradient_matrices::<f64>(&[t, p, l]).unwrap();
        assert_eq!(grads.len(), 3);
        let ct = (t / 2.0).cos();
        let st = (t / 2.0).sin();
        // ∂/∂θ element (0,0) = -0.5 sin(θ/2)
        assert!((grads[0].get(0, 0).re + 0.5 * st).abs() < 1e-13);
        // ∂/∂ϕ element (1,0) = i e^{iϕ} sin(θ/2) → real part = -sin(ϕ) st
        assert!((grads[1].get(1, 0).re + p.sin() * st).abs() < 1e-13);
        assert!((grads[1].get(1, 0).im - p.cos() * st).abs() < 1e-13);
        // ∂/∂λ element (0,0) = 0, (1,0) = 0
        assert!(grads[2].get(0, 0).abs() < 1e-14);
        assert!(grads[2].get(1, 0).abs() < 1e-14);
        // ∂/∂λ element (1,1) = i e^{i(ϕ+λ)} cos(θ/2)
        assert!((grads[2].get(1, 1).im - (p + l).cos() * ct).abs() < 1e-13);
    }

    #[test]
    fn radix_validation() {
        // Explicit radices must match dimension.
        let bad = "G<3>(x) { [[cos(x), sin(x)], [~sin(x), cos(x)]] }";
        assert!(matches!(
            UnitaryExpression::new(bad),
            Err(QglError::RadixMismatch { expected_dim: 3, found_dim: 2 })
        ));
        // Without radices the dimension must be a power of two.
        let qutrit = "P3(x) { [[1,0,0],[0,e^(i*x),0],[0,0,1]] }";
        assert!(matches!(UnitaryExpression::new(qutrit), Err(QglError::NotPowerOfTwo { dim: 3 })));
        let qutrit_ok = "P3<3>(x) { [[1,0,0],[0,e^(i*x),0],[0,0,1]] }";
        let g = UnitaryExpression::new(qutrit_ok).unwrap();
        assert_eq!(g.radices(), &[3]);
        assert_eq!(g.num_qudits(), 1);
    }

    #[test]
    fn qubit_radices_inferred_from_dimension() {
        let cnot =
            UnitaryExpression::new("CNOT() { [[1,0,0,0],[0,1,0,0],[0,0,0,1],[0,0,1,0]] }").unwrap();
        assert_eq!(cnot.radices(), &[2, 2]);
        assert!(cnot.is_constant());
        assert!(cnot.check_unitary(&[], 1e-15));
    }

    #[test]
    fn non_square_rejected() {
        assert!(matches!(
            UnitaryExpression::new("B() { [[1, 0]] }"),
            Err(QglError::NotSquare { rows: 1, cols: 2 })
        ));
    }

    #[test]
    fn scalar_body_rejected() {
        assert!(matches!(UnitaryExpression::new("S(x) { cos(x) }"), Err(QglError::NotAMatrix)));
    }

    #[test]
    fn parameter_count_enforced_at_eval() {
        let u3 = UnitaryExpression::new(U3_SRC).unwrap();
        assert!(u3.to_matrix::<f64>(&[0.1]).is_err());
        assert!(u3.gradient_matrices::<f64>(&[0.1, 0.2]).is_err());
        assert!(u3.differentiate("nope").is_err());
    }

    #[test]
    fn map_params_renames_consistently() {
        let u3 = UnitaryExpression::new(U3_SRC).unwrap();
        let renamed = u3.map_params(|p| format!("g0_{p}"));
        assert_eq!(renamed.params()[0], "g0_θ");
        let a = u3.to_matrix::<f64>(&[0.3, 0.6, 0.9]).unwrap();
        let b = renamed.to_matrix::<f64>(&[0.3, 0.6, 0.9]).unwrap();
        assert!(a.max_elementwise_distance(&b) < 1e-15);
    }

    #[test]
    fn canonical_key_distinguishes_gates() {
        let u3 = UnitaryExpression::new(U3_SRC).unwrap();
        let rx = UnitaryExpression::new(
            "RX(theta) { [[cos(theta/2), ~i*sin(theta/2)], [~i*sin(theta/2), cos(theta/2)]] }",
        )
        .unwrap();
        assert_ne!(u3.canonical_key(), rx.canonical_key());
        assert_eq!(u3.canonical_key(), UnitaryExpression::new(U3_SRC).unwrap().canonical_key());

        // The name, the parameter names, the radices and every element are part of it.
        assert_ne!(u3.canonical_key(), u3.clone().with_name("V3").canonical_key());
        assert_eq!(u3.canonical_key(), u3.clone().with_name("U3").canonical_key());
        assert_ne!(u3.canonical_key(), u3.map_params(|p| format!("g0_{p}")).canonical_key());
        assert_eq!(u3.canonical_key(), u3.map_params(str::to_string).canonical_key());
        let cnot = "CNOT() { [[1,0,0,0],[0,1,0,0],[0,0,0,1],[0,0,1,0]] }";
        let key = UnitaryExpression::new(cnot).unwrap().canonical_key().clone();
        for changed in [cnot.replace("CNOT()", "CNOT<4>()"), cnot.replace("1,0]]", "~1,0]]")] {
            assert_ne!(
                &key,
                UnitaryExpression::new(&changed).unwrap().canonical_key(),
                "{changed}"
            );
        }
    }

    #[test]
    fn clones_share_the_key_text_and_debug_omits_it() {
        let u3 = UnitaryExpression::new(U3_SRC).unwrap();
        let copy = u3.clone();
        assert!(std::ptr::eq(u3.canonical_key().as_str(), copy.canonical_key().as_str()));
        let parsed = UnitaryExpression::new(U3_SRC).unwrap();
        assert!(!std::ptr::eq(u3.canonical_key().as_str(), parsed.canonical_key().as_str()));
        assert!(u3.canonical_key().as_str().starts_with("U3<[2]>("));
        assert!(!format!("{u3:?}").contains("key"));
    }

    #[test]
    fn from_elements_rejects_undeclared_params() {
        let el = ComplexExpr::from_real(Expr::var("x"));
        let res = UnitaryExpression::from_elements(
            "Bad".into(),
            vec![],
            vec![],
            vec![vec![el.clone(), ComplexExpr::zero()], vec![ComplexExpr::zero(), el]],
        );
        assert!(matches!(res, Err(QglError::ParameterMismatch { .. })));
    }

    #[test]
    fn reserved_constants_cannot_be_parameters() {
        for src in [
            "Bad(e) { [[cos(e), ~sin(e)], [sin(e), cos(e)]] }",
            "Bad(i) { [[cos(i), ~sin(i)], [sin(i), cos(i)]] }",
            "Bad(pi) { [[cos(pi), ~sin(pi)], [sin(pi), cos(pi)]] }",
        ] {
            assert!(
                matches!(UnitaryExpression::new(src), Err(QglError::ParameterMismatch { .. })),
                "{src} should be rejected"
            );
        }
    }

    #[test]
    fn display_and_f32_eval() {
        let u3 = UnitaryExpression::new(U3_SRC).unwrap();
        assert!(u3.to_string().contains("U3"));
        let m32 = u3.to_matrix::<f32>(&[0.5, 0.5, 0.5]).unwrap();
        let m64 = u3.to_matrix::<f64>(&[0.5, 0.5, 0.5]).unwrap();
        assert!(m32.to_f64().max_elementwise_distance(&m64) < 1e-6);
    }
}
