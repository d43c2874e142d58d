//! Symbolic differentiation of QGL expressions.
//!
//! OpenQudit replaces hand-derived analytical gradients (Listing 1 of the paper) with a
//! symbolic differentiation engine: every [`Expr`]/[`ComplexExpr`] can be differentiated
//! with respect to a named parameter, producing another symbolic expression that is then
//! simplified by the e-graph pass and compiled alongside the original.
//!
//! Gate elements share most of their subtrees through `Arc`s, and the product and
//! chain rules copy their operands into both terms, so a plain recursive walk would
//! differentiate a shared subtree once per path that reaches it: exponentially often in
//! a chain of shared products. A `Differentiator` walks each shared subtree once.

use crate::expr::{AddrMap, ComplexExpr, Expr};

/// Differentiates `expr` with respect to the variable `var`.
///
/// The resulting expression is built with the simplifying constructors on [`Expr`], so
/// trivially-zero branches collapse immediately.
pub fn diff(expr: &Expr, var: &str) -> Expr {
    Differentiator::new(var).diff(expr)
}

/// Differentiates a complex symbolic element component-wise (∂/∂θ of a real parameter
/// commutes with taking real and imaginary parts).
pub fn diff_complex(expr: &ComplexExpr, var: &str) -> ComplexExpr {
    Differentiator::new(var).diff_complex(expr)
}

/// Differentiates expressions with respect to one variable, walking every subtree once.
///
/// The memo is keyed on node addresses, the way `EGraph::add_exprs` walks its inputs: a
/// subtree reached again through the same `Arc` reuses the derivative it got the first
/// time, so the derivatives share that subtree's result too. Every input is borrowed for
/// `'a`, so no memoized node can be freed, and its address reused, while the memo lives.
/// One differentiator per parameter serves every element of a gate, so subtrees shared
/// across elements are walked once as well. The result is structurally identical to a
/// walk without the memo.
pub(crate) struct Differentiator<'a> {
    var: &'a str,
    memo: AddrMap<Expr>,
}

impl<'a> Differentiator<'a> {
    /// A differentiator with respect to `var`, with an empty memo.
    pub(crate) fn new(var: &'a str) -> Self {
        Differentiator { var, memo: AddrMap::default() }
    }

    /// Differentiates a complex element component-wise.
    pub(crate) fn diff_complex(&mut self, expr: &'a ComplexExpr) -> ComplexExpr {
        ComplexExpr { re: self.diff(&expr.re), im: self.diff(&expr.im) }
    }

    /// Differentiates `expr`, reusing the derivative of every node already walked.
    pub(crate) fn diff(&mut self, expr: &'a Expr) -> Expr {
        let key: *const Expr = expr;
        if let Some(done) = self.memo.get(&key) {
            return done.clone();
        }
        let out = match expr {
            Expr::Const(_) | Expr::Pi => Expr::zero(),
            Expr::Var(name) => {
                if name == self.var {
                    Expr::one()
                } else {
                    Expr::zero()
                }
            }
            Expr::Neg(a) => Expr::neg(self.diff(a)),
            Expr::Add(a, b) => Expr::add(self.diff(a), self.diff(b)),
            Expr::Sub(a, b) => Expr::sub(self.diff(a), self.diff(b)),
            Expr::Mul(a, b) => {
                // Product rule: a'b + ab'
                let (da, db) = (self.diff(a), self.diff(b));
                Expr::add(Expr::mul(da, b.as_ref().clone()), Expr::mul(a.as_ref().clone(), db))
            }
            Expr::Div(a, b) => {
                // Quotient rule: (a'b - ab') / b²
                let (da, db) = (self.diff(a), self.diff(b));
                if db.is_zero() {
                    Expr::div(da, b.as_ref().clone())
                } else {
                    Expr::div(
                        Expr::sub(
                            Expr::mul(da, b.as_ref().clone()),
                            Expr::mul(a.as_ref().clone(), db),
                        ),
                        Expr::mul(b.as_ref().clone(), b.as_ref().clone()),
                    )
                }
            }
            Expr::Pow(a, b) => {
                let (da, db) = (self.diff(a), self.diff(b));
                if db.is_zero() {
                    // d/dx a^c = c·a^(c-1)·a'
                    let c = b.as_ref().clone();
                    let cm1 = Expr::sub(c.clone(), Expr::one());
                    Expr::mul(Expr::mul(c, Expr::pow(a.as_ref().clone(), cm1)), da)
                } else {
                    // General case: a^b = exp(b·ln a); d = a^b (b'·ln a + b·a'/a)
                    let term1 = Expr::mul(db, Expr::ln(a.as_ref().clone()));
                    let term2 = Expr::div(Expr::mul(b.as_ref().clone(), da), a.as_ref().clone());
                    Expr::mul(expr.clone(), Expr::add(term1, term2))
                }
            }
            Expr::Sin(a) => Expr::mul(Expr::cos(a.as_ref().clone()), self.diff(a)),
            Expr::Cos(a) => Expr::neg(Expr::mul(Expr::sin(a.as_ref().clone()), self.diff(a))),
            Expr::Sqrt(a) => {
                // d/dx √a = a' / (2√a)
                Expr::div(
                    self.diff(a),
                    Expr::mul(Expr::constant(2.0), Expr::sqrt(a.as_ref().clone())),
                )
            }
            Expr::Exp(a) => Expr::mul(Expr::exp(a.as_ref().clone()), self.diff(a)),
            Expr::Ln(a) => Expr::div(self.diff(a), a.as_ref().clone()),
        };
        self.memo.insert(key, out.clone());
        out
    }
}

/// Central finite-difference approximation used by tests to validate the symbolic
/// derivative (`f'(x) ≈ [f(x+h) - f(x-h)] / 2h`).
pub fn finite_difference(expr: &Expr, names: &[String], values: &[f64], var: &str, h: f64) -> f64 {
    let idx = names.iter().position(|n| n == var).expect("finite_difference: unknown variable");
    let mut plus = values.to_vec();
    let mut minus = values.to_vec();
    plus[idx] += h;
    minus[idx] -= h;
    (expr.eval_with(names, &plus) - expr.eval_with(names, &minus)) / (2.0 * h)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn check_derivative(expr: &Expr, vars: &[&str], at: &[f64], wrt: &str) {
        let ns = names(vars);
        let sym = diff(expr, wrt).eval_with(&ns, at);
        let num = finite_difference(expr, &ns, at, wrt, 1e-6);
        assert!((sym - num).abs() < 1e-5, "d/d{wrt} of {expr}: symbolic {sym} vs numeric {num}");
    }

    #[test]
    fn constants_and_variables() {
        assert!(diff(&Expr::constant(3.0), "x").is_zero());
        assert!(diff(&Expr::Pi, "x").is_zero());
        assert!(diff(&Expr::var("x"), "x").is_one());
        assert!(diff(&Expr::var("y"), "x").is_zero());
    }

    #[test]
    fn trig_derivatives() {
        let x = Expr::var("x");
        let e = Expr::sin(Expr::div(x.clone(), Expr::constant(2.0)));
        check_derivative(&e, &["x"], &[0.9], "x");
        let e = Expr::cos(Expr::mul(Expr::constant(3.0), x.clone()));
        check_derivative(&e, &["x"], &[0.4], "x");
    }

    #[test]
    fn product_quotient_chain() {
        let x = Expr::var("x");
        let y = Expr::var("y");
        let e = Expr::mul(Expr::sin(x.clone()), Expr::cos(y.clone()));
        check_derivative(&e, &["x", "y"], &[0.3, 1.1], "x");
        check_derivative(&e, &["x", "y"], &[0.3, 1.1], "y");

        let q =
            Expr::div(Expr::sin(x.clone()), Expr::add(Expr::constant(2.0), Expr::cos(x.clone())));
        check_derivative(&q, &["x"], &[0.7], "x");
    }

    #[test]
    fn exp_ln_sqrt_pow() {
        let x = Expr::var("x");
        let e = Expr::exp(Expr::mul(Expr::constant(-0.5), x.clone()));
        check_derivative(&e, &["x"], &[1.3], "x");
        let e = Expr::ln(Expr::add(x.clone(), Expr::constant(2.0)));
        check_derivative(&e, &["x"], &[0.5], "x");
        let e = Expr::sqrt(Expr::add(Expr::mul(x.clone(), x.clone()), Expr::one()));
        check_derivative(&e, &["x"], &[0.8], "x");
        let e = Expr::pow(x.clone(), Expr::constant(3.0));
        check_derivative(&e, &["x"], &[1.7], "x");
        // Variable exponent (general power rule).
        let e = Expr::pow(Expr::add(x.clone(), Expr::constant(1.5)), Expr::var("x"));
        check_derivative(&e, &["x"], &[0.6], "x");
    }

    #[test]
    fn derivative_of_independent_expression_is_zero() {
        let e = Expr::mul(Expr::sin(Expr::var("a")), Expr::exp(Expr::var("b")));
        assert!(diff(&e, "c").is_zero());
    }

    #[test]
    fn u3_style_gradient_entry() {
        // The (0,0) entry of U3 is cos(θ/2); its derivative is -sin(θ/2)/2,
        // matching the hand-derived `-0.5 * st` of Listing 1 in the paper.
        let theta = Expr::var("theta");
        let entry = Expr::cos(Expr::div(theta.clone(), Expr::constant(2.0)));
        let d = diff(&entry, "theta");
        let ns = names(&["theta"]);
        for &t in &[0.0, 0.5, 1.3, 2.9] {
            let got = d.eval_with(&ns, &[t]);
            let expect = -0.5 * (t / 2.0).sin();
            assert!((got - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn complex_diff_is_componentwise() {
        let theta = Expr::var("t");
        // e^{iθ} = cos θ + i sin θ; derivative = -sin θ + i cos θ = i·e^{iθ}
        let z = ComplexExpr::new(Expr::cos(theta.clone()), Expr::sin(theta.clone()));
        let dz = diff_complex(&z, "t");
        let ns = names(&["t"]);
        let (re, im) = dz.eval_with(&ns, &[0.77]);
        assert!((re + 0.77f64.sin()).abs() < 1e-14);
        assert!((im - 0.77f64.cos()).abs() < 1e-14);
    }

    #[test]
    fn shared_subtrees_are_differentiated_once() {
        // eₖ₊₁ = eₖ·eₖ through one Arc per level: the 16-level chain reaches its leaf
        // along 2¹⁶ paths, and a walk per path builds a derivative of ~460,000 nodes.
        const LEVELS: usize = 16;
        let mut e = Expr::sin(Expr::var("x"));
        for _ in 0..LEVELS {
            let a = std::sync::Arc::new(e);
            e = Expr::Mul(a.clone(), a);
        }
        fn distinct_nodes(e: &Expr, seen: &mut std::collections::HashSet<*const Expr>) {
            if !seen.insert(e) {
                return;
            }
            match e {
                Expr::Const(_) | Expr::Pi | Expr::Var(_) => {}
                Expr::Neg(a)
                | Expr::Sin(a)
                | Expr::Cos(a)
                | Expr::Sqrt(a)
                | Expr::Exp(a)
                | Expr::Ln(a) => distinct_nodes(a, seen),
                Expr::Add(a, b)
                | Expr::Sub(a, b)
                | Expr::Mul(a, b)
                | Expr::Div(a, b)
                | Expr::Pow(a, b) => {
                    distinct_nodes(a, seen);
                    distinct_nodes(b, seen);
                }
            }
        }
        let d = diff(&e, "x");
        let mut seen = std::collections::HashSet::new();
        distinct_nodes(&d, &mut seen);
        assert!(seen.len() <= 8 * LEVELS, "derivative has {} distinct nodes", seen.len());
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn finite_difference_unknown_var_panics() {
        finite_difference(&Expr::var("x"), &names(&["x"]), &[1.0], "y", 1e-6);
    }
}
