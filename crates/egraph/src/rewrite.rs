//! Rewrite rules and the equality-saturation runner.
//!
//! A [`Rewrite`] is a pair of patterns `lhs → rhs`; saturation repeatedly e-matches every
//! rule against every e-class and unions the matched class with the instantiated
//! right-hand side. The paper notes that QGL expressions are small and sparse, so
//! saturation is expected to converge quickly, but standard safeguards (iteration and
//! node-count limits) are applied to prevent blow-up (Sec. III-C).
//!
//! # Slot compilation
//!
//! [`Rewrite::new`] parses both patterns once and compiles each into a [`SlotPattern`]:
//! the pattern tree is flattened in pre-order and every pattern variable becomes a
//! numbered slot, assigned in order of first occurrence in the left-hand side (the
//! right-hand side reuses that numbering). A substitution is then a slice of e-class ids
//! indexed by slot instead of a `HashMap<String, Id>`:
//!
//! * [`EGraph::match_pattern`] backtracks over one reusable slot array, binding a slot at
//!   its first occurrence and comparing at later ones, and hands out each complete match
//!   as a borrowed slice, so no map is built, cloned or merged per partial match;
//! * [`EGraph::instantiate`] reads the right-hand side's variables straight from the
//!   slice.
//!
//! Matches are enumerated in the order of the textbook child-by-child product: the
//! e-nodes of a class in stored order and, under one e-node, every choice made for
//! child 0's subpattern before any choice for child 1's (the pattern's pre-order). The
//! runner collects all matches of an iteration in that order, rule by rule and class by
//! class in ascending id order, before applying any, so the unions, the e-graph and
//! hence the extracted expressions do not depend on how a substitution is stored.

use std::collections::HashMap;

use crate::egraph::EGraph;
use crate::language::{Id, Op, Pattern};

/// A directed rewrite rule `lhs → rhs`.
#[derive(Debug, Clone)]
pub struct Rewrite {
    /// Human-readable rule name (used in reports and tests).
    pub name: String,
    /// Pattern to match.
    pub lhs: Pattern,
    /// Pattern to instantiate and union with the match.
    pub rhs: Pattern,
    /// `lhs` compiled to slots.
    searcher: SlotPattern,
    /// `rhs` compiled against `lhs`'s slot numbering.
    applier: SlotPattern,
}

impl Rewrite {
    /// Creates a rewrite from textual patterns.
    ///
    /// # Panics
    ///
    /// Panics if the right-hand side uses a pattern variable that the left-hand side
    /// does not bind (the rule would be unsound to instantiate).
    pub fn new(name: &str, lhs: &str, rhs: &str) -> Self {
        let lhs = Pattern::parse(lhs);
        let rhs = Pattern::parse(rhs);
        let bound = lhs.variables();
        for v in rhs.variables() {
            assert!(
                bound.contains(&v),
                "rewrite '{name}': rhs variable ?{v} is not bound by the lhs"
            );
        }
        let searcher = SlotPattern::new(&lhs);
        let applier = SlotPattern::compile(&rhs, searcher.vars.clone());
        Rewrite { name: name.to_string(), lhs, rhs, searcher, applier }
    }

    /// Creates the pair of rewrites `lhs → rhs` and `rhs → lhs`.
    ///
    /// # Panics
    ///
    /// Panics if either direction would reference an unbound variable.
    pub fn bidirectional(name: &str, lhs: &str, rhs: &str) -> Vec<Self> {
        vec![Rewrite::new(name, lhs, rhs), Rewrite::new(&format!("{name}-rev"), rhs, lhs)]
    }
}

/// One term of a [`SlotPattern`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum SlotTerm {
    /// A pattern variable, by slot.
    Var(usize),
    /// An operator applied to the terms at the given positions.
    Node(Op, Vec<usize>),
}

/// A [`Pattern`] compiled for e-matching: the terms in pre-order (the root is term 0)
/// with every variable replaced by a numbered slot. See the [module docs](self).
#[derive(Debug, Clone, PartialEq)]
pub struct SlotPattern {
    pub(crate) terms: Vec<SlotTerm>,
    vars: Vec<String>,
}

impl SlotPattern {
    /// Compiles a pattern, numbering its variables in order of first occurrence.
    pub fn new(pattern: &Pattern) -> Self {
        SlotPattern::compile(pattern, Vec::new())
    }

    fn compile(pattern: &Pattern, vars: Vec<String>) -> Self {
        fn walk(p: &Pattern, out: &mut SlotPattern) -> usize {
            let at = out.terms.len();
            match p {
                Pattern::Var(name) => {
                    let slot = out.slot(name).unwrap_or_else(|| {
                        out.vars.push(name.clone());
                        out.vars.len() - 1
                    });
                    out.terms.push(SlotTerm::Var(slot));
                }
                Pattern::Node(op, children) => {
                    out.terms.push(SlotTerm::Node(op.clone(), Vec::new()));
                    let positions = children.iter().map(|c| walk(c, out)).collect();
                    out.terms[at] = SlotTerm::Node(op.clone(), positions);
                }
            }
            at
        }
        let mut out = SlotPattern { terms: Vec::new(), vars };
        walk(pattern, &mut out);
        out
    }

    /// The slot of a pattern variable (named without its `?`).
    pub fn slot(&self, name: &str) -> Option<usize> {
        self.vars.iter().position(|v| v == name)
    }

    /// The number of slots, i.e. the length of every substitution for this pattern.
    pub fn num_slots(&self) -> usize {
        self.vars.len()
    }

    /// The operator at the root, or `None` if the root is a variable.
    fn root_op(&self) -> Option<&Op> {
        match &self.terms[0] {
            SlotTerm::Node(op, _) => Some(op),
            SlotTerm::Var(_) => None,
        }
    }
}

/// Why the saturation loop stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// No rule produced a new union in the last iteration — the e-graph is saturated.
    Saturated,
    /// The iteration limit was reached.
    IterationLimit,
    /// The node limit was reached.
    NodeLimit,
}

/// A report of a saturation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Number of iterations executed.
    pub iterations: usize,
    /// Total number of unions applied.
    pub unions: usize,
    /// Final e-node count.
    pub nodes: usize,
    /// Why the run stopped.
    pub stop_reason: StopReason,
}

/// The equality-saturation runner with the paper's safeguards.
#[derive(Debug, Clone)]
pub struct Runner {
    /// Maximum number of saturation iterations.
    pub iter_limit: usize,
    /// Maximum number of e-nodes before the run is cut short.
    pub node_limit: usize,
}

impl Default for Runner {
    fn default() -> Self {
        Runner { iter_limit: 8, node_limit: 10_000 }
    }
}

impl Runner {
    /// Creates a runner with explicit limits.
    pub fn new(iter_limit: usize, node_limit: usize) -> Self {
        Runner { iter_limit, node_limit }
    }

    /// Runs equality saturation with the given rules.
    pub fn run(&self, graph: &mut EGraph, rules: &[Rewrite]) -> RunReport {
        let mut total_unions = 0usize;
        for iteration in 0..self.iter_limit {
            if graph.node_count() > self.node_limit {
                return RunReport {
                    iterations: iteration,
                    unions: total_unions,
                    nodes: graph.node_count(),
                    stop_reason: StopReason::NodeLimit,
                };
            }
            // Phase 1: collect matches against the frozen e-graph. Rules are only
            // attempted against classes that contain the rule's root operator, which
            // keeps e-matching cheap on the small-but-wide e-graphs gate batches create.
            // Each match is `(rule, class, offset)`, its substitution being the rule's
            // `num_slots()` ids at `offset` in `bindings`.
            let mut pending: Vec<(usize, Id, usize)> = Vec::new();
            let mut bindings: Vec<Id> = Vec::new();
            {
                let all = graph.class_ids();
                let by_op = classes_by_op(graph);
                for (rule_idx, rule) in rules.iter().enumerate() {
                    let candidates = match rule.searcher.root_op() {
                        None => &all[..],
                        Some(op) => by_op.get(op).map_or(&[][..], Vec::as_slice),
                    };
                    graph.match_pattern(&rule.searcher, candidates, |class, subst| {
                        pending.push((rule_idx, class, bindings.len()));
                        bindings.extend_from_slice(subst);
                    });
                }
            }
            // Phase 2: apply.
            let mut unions_this_iter = 0usize;
            for &(rule_idx, class, at) in &pending {
                if graph.node_count() > self.node_limit {
                    break;
                }
                let rule = &rules[rule_idx];
                let subst = &bindings[at..at + rule.searcher.num_slots()];
                let new_id = graph.instantiate(&rule.applier, subst);
                if !graph.same_class(new_id, class) {
                    graph.union(new_id, class);
                    unions_this_iter += 1;
                }
            }
            graph.rebuild();
            total_unions += unions_this_iter;
            if unions_this_iter == 0 {
                return RunReport {
                    iterations: iteration + 1,
                    unions: total_unions,
                    nodes: graph.node_count(),
                    stop_reason: StopReason::Saturated,
                };
            }
        }
        RunReport {
            iterations: self.iter_limit,
            unions: total_unions,
            nodes: graph.node_count(),
            stop_reason: StopReason::IterationLimit,
        }
    }
}

/// Indexes the canonical classes by the operators of their e-nodes; every list is in
/// ascending id order. Only ever looked up, never iterated.
fn classes_by_op(graph: &EGraph) -> HashMap<&Op, Vec<Id>> {
    let mut index: HashMap<&Op, Vec<Id>> = HashMap::new();
    for (id, class) in graph.classes() {
        for node in &class.nodes {
            let with_op = index.entry(&node.op).or_default();
            if with_op.last() != Some(&id) {
                with_op.push(id);
            }
        }
    }
    index
}

#[cfg(test)]
mod tests {
    use super::*;
    use qudit_qgl::Expr;

    #[test]
    fn commutativity_discovers_equivalence() {
        let mut g = EGraph::new();
        let ab = g.add_expr(&Expr::Mul(
            std::sync::Arc::new(Expr::var("a")),
            std::sync::Arc::new(Expr::var("b")),
        ));
        let ba = g.add_expr(&Expr::Mul(
            std::sync::Arc::new(Expr::var("b")),
            std::sync::Arc::new(Expr::var("a")),
        ));
        assert!(!g.same_class(ab, ba));
        let rules = vec![Rewrite::new("mul-comm", "(* ?a ?b)", "(* ?b ?a)")];
        let report = Runner::default().run(&mut g, &rules);
        assert!(g.same_class(ab, ba));
        assert_eq!(report.stop_reason, StopReason::Saturated);
    }

    #[test]
    fn add_zero_identity() {
        let mut g = EGraph::new();
        // Build (+ x 0) without the constructor folding by assembling nodes manually.
        use crate::language::{Node, Op};
        let x = g.add(Node::leaf(Op::Var("x".into())));
        let zero = g.add(Node::leaf(Op::constant(0.0)));
        let sum = g.add(Node::new(Op::Add, vec![x, zero]));
        let rules = vec![Rewrite::new("add-zero", "(+ ?a 0)", "?a")];
        Runner::default().run(&mut g, &rules);
        assert!(g.same_class(sum, x));
    }

    #[test]
    fn node_limit_stops_explosive_rules() {
        let mut g = EGraph::new();
        // A long addition chain together with associativity/commutativity explores an
        // exponential number of re-associations; a small node limit must cut it short.
        let mut chain = Expr::var("v0");
        for k in 1..10 {
            chain = Expr::add(chain, Expr::var(format!("v{k}")));
        }
        g.add_expr(&chain);
        let rules = vec![
            Rewrite::new("add-comm", "(+ ?a ?b)", "(+ ?b ?a)"),
            Rewrite::new("add-assoc", "(+ (+ ?a ?b) ?c)", "(+ ?a (+ ?b ?c))"),
            Rewrite::new("add-assoc-rev", "(+ ?a (+ ?b ?c))", "(+ (+ ?a ?b) ?c)"),
        ];
        let report = Runner::new(50, 150).run(&mut g, &rules);
        assert_eq!(report.stop_reason, StopReason::NodeLimit);
        assert!(report.nodes >= 150);
    }

    #[test]
    fn iteration_limit_reported() {
        let mut g = EGraph::new();
        g.add_expr(&Expr::add(Expr::var("a"), Expr::var("b")));
        let rules = vec![Rewrite::new("grow", "?a", "(+ ?a 0)")];
        let report = Runner::new(1, 1_000_000).run(&mut g, &rules);
        assert_eq!(report.stop_reason, StopReason::IterationLimit);
    }

    #[test]
    #[should_panic(expected = "not bound")]
    fn unbound_rhs_variable_panics() {
        Rewrite::new("bad", "(sin ?x)", "(+ ?x ?y)");
    }

    #[test]
    fn bidirectional_creates_two_rules() {
        let rules = Rewrite::bidirectional("exp-law", "(exp (+ ?a ?b))", "(* (exp ?a) (exp ?b))");
        assert_eq!(rules.len(), 2);
        assert_ne!(rules[0].name, rules[1].name);
    }
}
