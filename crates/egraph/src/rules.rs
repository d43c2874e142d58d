//! The rewrite-rule corpus.
//!
//! The paper bootstraps its rule set from Herbie's real-valued rules and expands it with
//! Enumo until it can discover the closed-form trigonometric identities on Wikipedia.
//! This module hand-curates the same identity families: arithmetic identities,
//! distributivity, negation pushing, Pythagorean and angle-sum/difference/double-angle
//! identities, exponential and logarithm laws, and power/square-root interactions. These
//! are sufficient to simplify the gate and gradient expressions of the benchmark gate set
//! (U3, U2, RX/RY/RZ, RZZ, CSUM, qutrit phase) and to reproduce the paper's U2 CSE
//! example.
//!
//! Herbie's commutativity and associativity rules are left out. Under the JIT's
//! safeguards (6 iterations, 4,000 e-nodes) they swamp the graph before the trig rules
//! pay off. With them, U3's gradient batch reached 4,002 e-nodes in 26–49 ms; without
//! them it ends its 6 iterations at 117 e-nodes in under 2 ms and extracts an equally
//! cheap program. RY's programs came out costlier than emitting the input unsimplified
//! (173.5 against 125.5 under the Table-I weights, 3 against 2 sin/cos); without them
//! they are cheaper (123.5). One corpus serves both the JIT and [`fold`](crate::fold).

use std::sync::OnceLock;

use crate::rewrite::Rewrite;

/// Returns the default rule set, parsed and slot-compiled on first use.
pub fn default_rules() -> &'static [Rewrite] {
    static RULES: OnceLock<Vec<Rewrite>> = OnceLock::new();
    RULES.get_or_init(build_default_rules)
}

fn build_default_rules() -> Vec<Rewrite> {
    let mut rules: Vec<Rewrite> = Vec::new();
    let mut uni = |name: &str, lhs: &str, rhs: &str| rules.push(Rewrite::new(name, lhs, rhs));

    // --- Arithmetic identities -------------------------------------------------------
    uni("add-zero", "(+ ?a 0)", "?a");
    uni("mul-one", "(* ?a 1)", "?a");
    uni("mul-zero", "(* ?a 0)", "0");
    uni("sub-zero", "(- ?a 0)", "?a");
    uni("sub-self", "(- ?a ?a)", "0");
    uni("div-one", "(/ ?a 1)", "?a");
    uni("div-self", "(/ ?a ?a)", "1");
    uni("neg-as-sub", "(- 0 ?a)", "(- ?a)");
    uni("sub-as-add-neg", "(- ?a ?b)", "(+ ?a (- ?b))");
    uni("add-neg-as-sub", "(+ ?a (- ?b))", "(- ?a ?b)");
    uni("neg-neg", "(- (- ?a))", "?a");
    uni("mul-neg-one", "(* -1 ?a)", "(- ?a)");
    uni("neg-mul", "(* (- ?a) ?b)", "(- (* ?a ?b))");
    uni("neg-mul-rev", "(- (* ?a ?b))", "(* (- ?a) ?b)");
    uni("neg-distribute-add", "(- (+ ?a ?b))", "(+ (- ?a) (- ?b))");
    uni("div-as-mul", "(/ (* ?a ?b) ?c)", "(* ?a (/ ?b ?c))");
    uni("div-div", "(/ (/ ?a ?b) ?c)", "(/ ?a (* ?b ?c))");
    uni("neg-div", "(/ (- ?a) ?b)", "(- (/ ?a ?b))");

    // --- Distributivity ---------------------------------------------------------------
    uni("distribute", "(* ?a (+ ?b ?c))", "(+ (* ?a ?b) (* ?a ?c))");
    uni("factor", "(+ (* ?a ?b) (* ?a ?c))", "(* ?a (+ ?b ?c))");
    uni("distribute-sub", "(* ?a (- ?b ?c))", "(- (* ?a ?b) (* ?a ?c))");
    uni("factor-sub", "(- (* ?a ?b) (* ?a ?c))", "(* ?a (- ?b ?c))");

    // --- Trigonometric identities ----------------------------------------------------
    // Parity.
    uni("sin-neg", "(sin (- ?a))", "(- (sin ?a))");
    uni("sin-neg-rev", "(- (sin ?a))", "(sin (- ?a))");
    uni("cos-neg", "(cos (- ?a))", "(cos ?a)");
    uni("sin-zero", "(sin 0)", "0");
    uni("cos-zero", "(cos 0)", "1");
    // Pythagorean identity (both groupings).
    uni("pythagoras", "(+ (* (sin ?a) (sin ?a)) (* (cos ?a) (cos ?a)))", "1");
    uni("pythagoras-rev", "(+ (* (cos ?a) (cos ?a)) (* (sin ?a) (sin ?a)))", "1");
    uni("one-minus-sin2", "(- 1 (* (sin ?a) (sin ?a)))", "(* (cos ?a) (cos ?a))");
    uni("one-minus-cos2", "(- 1 (* (cos ?a) (cos ?a)))", "(* (sin ?a) (sin ?a))");
    // Angle sum and difference.
    uni("sin-sum", "(sin (+ ?a ?b))", "(+ (* (sin ?a) (cos ?b)) (* (cos ?a) (sin ?b)))");
    uni("sin-sum-rev", "(+ (* (sin ?a) (cos ?b)) (* (cos ?a) (sin ?b)))", "(sin (+ ?a ?b))");
    uni("cos-sum", "(cos (+ ?a ?b))", "(- (* (cos ?a) (cos ?b)) (* (sin ?a) (sin ?b)))");
    uni("cos-sum-rev", "(- (* (cos ?a) (cos ?b)) (* (sin ?a) (sin ?b)))", "(cos (+ ?a ?b))");
    uni("sin-diff", "(sin (- ?a ?b))", "(- (* (sin ?a) (cos ?b)) (* (cos ?a) (sin ?b)))");
    uni("cos-diff", "(cos (- ?a ?b))", "(+ (* (cos ?a) (cos ?b)) (* (sin ?a) (sin ?b)))");
    // Double angle.
    uni("sin-double", "(sin (* 2 ?a))", "(* 2 (* (sin ?a) (cos ?a)))");
    uni("cos-double", "(cos (* 2 ?a))", "(- (* (cos ?a) (cos ?a)) (* (sin ?a) (sin ?a)))");

    // --- Exponential and logarithm laws ----------------------------------------------
    uni("exp-zero", "(exp 0)", "1");
    uni("exp-sum", "(exp (+ ?a ?b))", "(* (exp ?a) (exp ?b))");
    uni("exp-sum-rev", "(* (exp ?a) (exp ?b))", "(exp (+ ?a ?b))");
    uni("exp-neg", "(exp (- ?a))", "(/ 1 (exp ?a))");
    uni("ln-one", "(ln 1)", "0");
    uni("ln-exp", "(ln (exp ?a))", "?a");
    uni("exp-ln", "(exp (ln ?a))", "?a");
    uni("ln-mul", "(ln (* ?a ?b))", "(+ (ln ?a) (ln ?b))");

    // --- Powers and square roots ------------------------------------------------------
    uni("pow-zero", "(pow ?a 0)", "1");
    uni("pow-one", "(pow ?a 1)", "?a");
    uni("pow-two", "(pow ?a 2)", "(* ?a ?a)");
    uni("pow-two-rev", "(* ?a ?a)", "(pow ?a 2)");
    uni("sqrt-square", "(* (sqrt ?a) (sqrt ?a))", "?a");
    uni("pow-mul", "(* (pow ?a ?b) (pow ?a ?c))", "(pow ?a (+ ?b ?c))");

    rules
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::egraph::EGraph;
    use crate::rewrite::Runner;
    use qudit_qgl::Expr;

    fn prove_equal(a: &Expr, b: &Expr) -> bool {
        let mut g = EGraph::new();
        let ia = g.add_expr(a);
        let ib = g.add_expr(b);
        Runner::new(12, 50_000).run(&mut g, default_rules());
        g.same_class(ia, ib)
    }

    #[test]
    fn rule_set_is_nontrivial() {
        assert!(default_rules().len() > 40);
        // Parsed once: every call returns the same rules.
        assert!(std::ptr::eq(default_rules(), default_rules()));
    }

    #[test]
    fn proves_pythagorean_identity() {
        let t = Expr::var("t");
        let lhs = Expr::Add(
            std::sync::Arc::new(Expr::mul(Expr::sin(t.clone()), Expr::sin(t.clone()))),
            std::sync::Arc::new(Expr::mul(Expr::cos(t.clone()), Expr::cos(t.clone()))),
        );
        assert!(prove_equal(&lhs, &Expr::one()));
    }

    #[test]
    fn proves_cos_angle_sum() {
        let (a, b) = (Expr::var("a"), Expr::var("b"));
        let lhs = Expr::cos(Expr::add(a.clone(), b.clone()));
        let rhs = Expr::sub(
            Expr::mul(Expr::cos(a.clone()), Expr::cos(b.clone())),
            Expr::mul(Expr::sin(a.clone()), Expr::sin(b.clone())),
        );
        assert!(prove_equal(&lhs, &rhs));
    }

    #[test]
    fn proves_sin_parity() {
        let t = Expr::var("t");
        let lhs = Expr::sin(Expr::Neg(std::sync::Arc::new(t.clone())));
        let rhs = Expr::Neg(std::sync::Arc::new(Expr::sin(t.clone())));
        assert!(prove_equal(&lhs, &rhs));
    }

    #[test]
    fn proves_exp_product_law() {
        let (a, b) = (Expr::var("a"), Expr::var("b"));
        let lhs = Expr::exp(Expr::add(a.clone(), b.clone()));
        let rhs = Expr::mul(Expr::exp(a), Expr::exp(b));
        assert!(prove_equal(&lhs, &rhs));
    }

    #[test]
    fn proves_double_angle() {
        let t = Expr::var("t");
        let lhs = Expr::sin(Expr::mul(Expr::constant(2.0), t.clone()));
        let rhs =
            Expr::mul(Expr::constant(2.0), Expr::mul(Expr::sin(t.clone()), Expr::cos(t.clone())));
        assert!(prove_equal(&lhs, &rhs));
    }

    #[test]
    fn does_not_prove_false_identities() {
        let t = Expr::var("t");
        assert!(!prove_equal(&Expr::sin(t.clone()), &Expr::cos(t.clone())));
        assert!(!prove_equal(&Expr::var("a"), &Expr::var("b")));
    }
}
