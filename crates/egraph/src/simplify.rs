//! High-level simplification entry point used by the expression JIT pipeline.
//!
//! The pipeline (Fig. 3 of the paper) populates one e-graph with *all* the real and
//! imaginary component expressions of a gate's unitary and its gradient, runs equality
//! saturation, and then extracts each root in turn with the CSE-aware greedy extractor.

use std::collections::HashSet;

use qudit_qgl::expr::AddrMap;
use qudit_qgl::Expr;

use crate::cost::OpCost;
use crate::egraph::EGraph;
use crate::extract::GreedyExtractor;
use crate::rewrite::{RunReport, Runner};
use crate::rules::default_rules;

/// Configuration for a simplification pass.
#[derive(Debug, Clone)]
pub struct SimplifyConfig {
    /// Maximum saturation iterations.
    pub iter_limit: usize,
    /// Maximum e-node count before saturation is cut short.
    pub node_limit: usize,
}

impl Default for SimplifyConfig {
    fn default() -> Self {
        // QGL gate expressions are small and sparse; the paper notes their e-graphs are
        // not expected to grow large, and applies iteration/node safeguards. The cost
        // is paid once per gate per process (the `ExpressionCache` keeps the result).
        // On a 2-vCPU x86-64 host, simplifying the 23-gate library with gradients
        // takes 19-20 ms (medians of 15 cold runs per gate): QuquartU 12.6-12.8 ms
        // (node limit after 3 iterations), QutritU 4.9-5.5 ms (iteration limit), U3
        // and U2 under 0.6 ms each (iteration limit), and under 0.25 ms for every
        // other gate. RZ and RZZ also stop at the iteration limit; the rest saturate.
        SimplifyConfig { iter_limit: 6, node_limit: 4_000 }
    }
}

/// Counts the number of *distinct* `sin`/`cos` subexpressions across a batch.
///
/// With common subexpression elimination, a trig term that appears in several output
/// expressions is computed once, so uniqueness (not per-tree occurrence) is the measure
/// the Table-I cost model actually optimizes.
pub fn unique_trig_count(exprs: &[Expr]) -> usize {
    batch_counts(exprs).0
}

/// A batch's distinct `sin`/`cos` subexpressions ([`unique_trig_count`]) and its summed
/// tree node counts ([`Expr::node_count`]).
///
/// Gate batches share most subtrees through `Arc`s, so the walk memoizes on subtree
/// address, as [`EGraph::add_exprs`] does: a subtree reached again is not walked again,
/// its trig terms being in the set already and its node count in the memo.
pub(crate) fn batch_counts(exprs: &[Expr]) -> (usize, usize) {
    fn walk<'a>(e: &'a Expr, nodes: &mut AddrMap<usize>, trig: &mut HashSet<&'a Expr>) -> usize {
        if let Some(&n) = nodes.get(&(e as *const Expr)) {
            return n;
        }
        let n = match e {
            Expr::Const(_) | Expr::Pi | Expr::Var(_) => 1,
            Expr::Sin(a) | Expr::Cos(a) => {
                trig.insert(e);
                1 + walk(a, nodes, trig)
            }
            Expr::Neg(a) | Expr::Sqrt(a) | Expr::Exp(a) | Expr::Ln(a) => 1 + walk(a, nodes, trig),
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b)
            | Expr::Pow(a, b) => 1 + walk(a, nodes, trig) + walk(b, nodes, trig),
        };
        nodes.insert(e, n);
        n
    }
    let (mut nodes, mut trig) = (AddrMap::default(), HashSet::new());
    let total = exprs.iter().map(|e| walk(e, &mut nodes, &mut trig)).sum();
    (trig.len(), total)
}

/// The outcome of a simplification pass.
#[derive(Debug, Clone)]
pub struct SimplifyResult {
    /// The simplified expressions, in the same order as the inputs.
    pub exprs: Vec<Expr>,
    /// The saturation report (iterations, unions, node count).
    pub report: RunReport,
    /// Number of distinct `sin`/`cos` subexpressions before simplification.
    pub trig_before: usize,
    /// Number of distinct `sin`/`cos` subexpressions after simplification (with CSE,
    /// each distinct term is computed once).
    pub trig_after: usize,
    /// Total node count before simplification.
    pub nodes_before: usize,
    /// Total node count after simplification.
    pub nodes_after: usize,
}

/// Simplifies a batch of related expressions together (sharing one e-graph so that CSE
/// can act across them), using the default rule set and cost model.
///
/// This is the expression JIT's entry point: it returns the same expressions as
/// [`simplify_batch_with`] under the default configuration without computing the
/// before/after statistics.
pub fn simplify_batch(exprs: &[Expr]) -> Vec<Expr> {
    saturate_and_extract(exprs, &SimplifyConfig::default()).0
}

/// Simplifies a batch with an explicit configuration, returning statistics alongside the
/// simplified expressions.
pub fn simplify_batch_with(exprs: &[Expr], config: &SimplifyConfig) -> SimplifyResult {
    let (trig_before, nodes_before) = batch_counts(exprs);
    let (out, report) = saturate_and_extract(exprs, config);
    let (trig_after, nodes_after) = batch_counts(&out);
    SimplifyResult { exprs: out, report, trig_before, trig_after, nodes_before, nodes_after }
}

fn saturate_and_extract(exprs: &[Expr], config: &SimplifyConfig) -> (Vec<Expr>, RunReport) {
    let mut graph = EGraph::new();
    let roots = graph.add_exprs(exprs);
    let report = Runner::new(config.iter_limit, config.node_limit).run(&mut graph, default_rules());
    let out = GreedyExtractor::new(&graph, OpCost::new()).extract_many(&roots);
    (out, report)
}

/// Simplifies a single expression.
pub fn simplify(expr: &Expr) -> Expr {
    simplify_batch(std::slice::from_ref(expr)).remove(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qudit_qgl::diff::diff;
    use qudit_qgl::UnitaryExpression;

    #[test]
    fn simplify_preserves_value_on_gate_expressions() {
        let u3 = UnitaryExpression::new(
            "U3(a, b, c) {
                [
                    [ cos(a/2), ~ e^(i*c) * sin(a/2) ],
                    [ e^(i*b) * sin(a/2), e^(i*(b+c)) * cos(a/2) ],
                ]
            }",
        )
        .unwrap();
        // Gather all component expressions of the unitary and its gradient.
        let mut exprs = Vec::new();
        for row in u3.elements() {
            for el in row {
                exprs.push(el.re.clone());
                exprs.push(el.im.clone());
            }
        }
        for g in u3.gradient() {
            for row in &g {
                for el in row {
                    exprs.push(el.re.clone());
                    exprs.push(el.im.clone());
                }
            }
        }
        let result = simplify_batch_with(&exprs, &SimplifyConfig::default());
        assert_eq!(result.exprs.len(), exprs.len());
        let names = vec!["a".to_string(), "b".to_string(), "c".to_string()];
        let point = [0.8, -0.4, 1.9];
        for (orig, simp) in exprs.iter().zip(result.exprs.iter()) {
            let a = orig.eval_with(&names, &point);
            let b = simp.eval_with(&names, &point);
            assert!((a - b).abs() < 1e-10, "{orig} simplified to {simp}: {a} vs {b}");
        }
        // Simplification should not make things more trig-heavy overall.
        assert!(result.trig_after <= result.trig_before);
    }

    #[test]
    fn gradient_of_rz_phase_simplifies() {
        // d/dθ cos(θ/2) appears throughout the benchmark gates; check the gradient
        // batch shrinks or at least does not grow.
        let theta = Expr::var("t");
        let c = Expr::cos(Expr::div(theta.clone(), Expr::constant(2.0)));
        let s = Expr::sin(Expr::div(theta.clone(), Expr::constant(2.0)));
        let dc = diff(&c, "t");
        let ds = diff(&s, "t");
        let result = simplify_batch_with(&[c, s, dc, ds], &SimplifyConfig::default());
        assert!(result.nodes_after <= result.nodes_before);
        assert!(result.trig_after <= result.trig_before);
        assert!(result.report.iterations >= 1);
    }

    #[test]
    fn simplify_single_entry_point() {
        let t = Expr::var("t");
        let e = Expr::Add(
            std::sync::Arc::new(Expr::mul(Expr::sin(t.clone()), Expr::sin(t.clone()))),
            std::sync::Arc::new(Expr::mul(Expr::cos(t.clone()), Expr::cos(t))),
        );
        assert_eq!(simplify(&e), Expr::one());
    }
}
