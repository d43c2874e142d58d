//! Greedy bottom-up expression extraction with CSE-aware cost zeroing.
//!
//! Optimal extraction from an e-graph can be phrased as an ILP, but the paper argues that
//! is too slow for a production compiler and instead uses a greedy heuristic
//! (Sec. III-C):
//!
//! 1. Stabilize costs across the e-graph by iteratively computing each e-class's minimum
//!    cost from the current costs of its children.
//! 2. Extract the lowest-cost expression for the requested root.
//! 3. Set the cost of every e-class traversed during that extraction to zero, so that
//!    subsequent extractions are incentivized to *reuse* already-computed subexpressions
//!    (common subexpression elimination).
//! 4. Repeat until all requested roots have been extracted.
//!
//! The canonical example is the U2 gate: once `e^{iλ}` and `e^{iϕ}` have been extracted,
//! the equivalent form `e^{iλ}·e^{iϕ}` of `e^{i(ϕ+λ)}` costs a single multiplication and
//! is chosen over a fresh complex exponential.
//!
//! # Incremental re-stabilization
//!
//! Step 1 is defined by sweeps: visit every e-class in ascending id order, recompute its
//! cost as the cheapest of its e-nodes (operator cost plus the children's *effective*
//! costs: zero once extracted, the stabilized cost otherwise), and repeat whole sweeps
//! until one changes nothing. A visit replaces the incumbent e-node only with a
//! strictly cheaper one (`<=` keeps the incumbent), so ties go to whichever node won
//! first, and the chosen nodes depend on the visit order, not just on the costs.
//!
//! Re-sweeping every class after each of up to hundreds of roots dominated the
//! expression JIT, so [`GreedyExtractor`] reaches the same fixpoint with a worklist:
//!
//! * After a class's first visit, a visit is a no-op unless a child's effective cost
//!   changed since the class's last visit. With unchanged children it recomputes the
//!   same totals, whose minimum is the incumbent's cost, and `<=` keeps the incumbent.
//! * So a class is only revisited when a child's effective cost changes, because the
//!   child was re-stabilized or zeroed by an extraction. When that happens during a
//!   sweep, a dependent with a larger id joins the current sweep (the full sweep would
//!   reach it later in this pass) and any other dependent joins the next sweep (the full
//!   sweep has already passed it). Extraction zeroes classes between sweeps, so their
//!   dependents start a fresh sweep.
//! * Each sweep visits its classes in ascending id order.
//!
//! Every visit that can change anything therefore happens in the same order, and sees
//! the same costs, as in the full sweep, so the costs, the chosen e-nodes and the
//! extracted expressions are identical; only the no-op visits are skipped.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use qudit_qgl::Expr;

use crate::cost::OpCost;
use crate::egraph::EGraph;
use crate::language::{Id, Op};

/// Marks a class with no extractable e-node yet.
const NO_CHOICE: usize = usize::MAX;

/// Greedy bottom-up extractor over an e-graph.
///
/// Classes are indexed densely by [`Id::index`]. Class `c`'s e-nodes are the flat nodes
/// `first_node[c]..first_node[c + 1]`, in the class's stored order, and flat node `n`'s
/// canonical children are `children[first_child[n]..first_child[n + 1]]`.
#[derive(Debug)]
pub struct GreedyExtractor<'a> {
    graph: &'a EGraph,
    first_node: Vec<usize>,
    /// Operator cost of each flat node.
    node_cost: Vec<f64>,
    first_child: Vec<usize>,
    children: Vec<usize>,
    /// Classes with an e-node that has class `c` as a child:
    /// `dependents[first_dependent[c]..first_dependent[c + 1]]`.
    first_dependent: Vec<usize>,
    dependents: Vec<usize>,
    /// Best cost per class under the current zeroing state; infinite until extractable.
    cost: Vec<f64>,
    /// Position of the chosen e-node within its class, or [`NO_CHOICE`].
    choice: Vec<usize>,
    /// The cost of using a class as a child: zero once extracted, `cost` otherwise.
    effective: Vec<f64>,
    /// Classes already extracted, with their expression cached for reuse.
    extracted: Vec<Option<Expr>>,
    on_stack: Vec<bool>,
    /// The classes left to visit in the current sweep, smallest id first (a heap with
    /// membership flags measured about 3× faster here than a `BTreeSet`).
    sweep: BinaryHeap<Reverse<usize>>,
    in_sweep: Vec<bool>,
    /// The classes to visit in the next sweep.
    next_sweep: Vec<usize>,
    in_next_sweep: Vec<bool>,
}

impl<'a> GreedyExtractor<'a> {
    /// Creates an extractor and performs the initial cost stabilization.
    pub fn new(graph: &'a EGraph, cost_model: OpCost) -> Self {
        let ids = graph.class_ids();
        let bound = ids.last().map_or(0, |id| id.index() + 1);
        let mut first_node = Vec::with_capacity(bound + 1);
        let (mut node_cost, mut first_child, mut children) = (Vec::new(), vec![0], Vec::new());
        // Counts class `c`'s dependents at `c + 1`; the running sum below makes offsets.
        let mut first_dependent = vec![0; bound + 1];
        for c in 0..bound {
            first_node.push(node_cost.len());
            let id = Id(c as u32);
            if graph.find(id) != id {
                continue;
            }
            for node in &graph.class(id).expect("canonical class").nodes {
                node_cost.push(cost_model.cost(&node.op));
                for &child in &node.children {
                    let child = graph.find(child).index();
                    children.push(child);
                    first_dependent[child + 1] += 1;
                }
                first_child.push(children.len());
            }
        }
        first_node.push(node_cost.len());
        let mut total = 0;
        for offset in &mut first_dependent {
            total += *offset;
            *offset = total;
        }
        let mut fill = first_dependent.clone();
        let mut dependents = vec![0; children.len()];
        for c in 0..bound {
            for n in first_node[c]..first_node[c + 1] {
                for &child in &children[first_child[n]..first_child[n + 1]] {
                    dependents[fill[child]] = c;
                    fill[child] += 1;
                }
            }
        }

        let mut ex = GreedyExtractor {
            graph,
            first_node,
            node_cost,
            first_child,
            children,
            first_dependent,
            dependents,
            cost: vec![f64::INFINITY; bound],
            choice: vec![NO_CHOICE; bound],
            effective: vec![f64::INFINITY; bound],
            extracted: vec![None; bound],
            on_stack: vec![false; bound],
            sweep: BinaryHeap::new(),
            in_sweep: vec![false; bound],
            next_sweep: Vec::new(),
            in_next_sweep: vec![false; bound],
        };
        for id in &ids {
            ex.schedule(id.index());
        }
        ex.stabilize();
        ex
    }

    /// The total cost of flat node `n` from its children's effective costs; infinite
    /// if a child is not extractable yet.
    fn node_total(&self, n: usize) -> f64 {
        let mut total = self.node_cost[n];
        for &child in self.node_children(n) {
            total += self.effective[child];
        }
        total
    }

    /// Recomputes class `c`'s best e-node, keeping the incumbent unless a node is
    /// strictly cheaper. Returns whether `c`'s effective cost changed.
    fn visit(&mut self, c: usize) -> bool {
        let first = self.first_node[c];
        let (mut best, mut choice) = (self.cost[c], self.choice[c]);
        for n in first..self.first_node[c + 1] {
            let total = self.node_total(n);
            if total < best {
                best = total;
                choice = n - first;
            }
        }
        if best == self.cost[c] {
            return false;
        }
        self.cost[c] = best;
        self.choice[c] = choice;
        if self.extracted[c].is_some() {
            return false;
        }
        self.effective[c] = best;
        true
    }

    /// Runs sweeps over the scheduled classes until none is left; see the module docs.
    fn stabilize(&mut self) {
        loop {
            while let Some(Reverse(c)) = self.sweep.pop() {
                self.in_sweep[c] = false;
                if !self.visit(c) {
                    continue;
                }
                for k in self.first_dependent[c]..self.first_dependent[c + 1] {
                    let d = self.dependents[k];
                    if d > c {
                        self.schedule(d);
                    } else if !self.in_next_sweep[d] {
                        self.in_next_sweep[d] = true;
                        self.next_sweep.push(d);
                    }
                }
            }
            if self.next_sweep.is_empty() {
                return;
            }
            for d in std::mem::take(&mut self.next_sweep) {
                self.in_next_sweep[d] = false;
                self.schedule(d);
            }
        }
    }

    /// Adds class `c` to the current sweep.
    fn schedule(&mut self, c: usize) {
        if !self.in_sweep[c] {
            self.in_sweep[c] = true;
            self.sweep.push(Reverse(c));
        }
    }

    /// The stabilized cost of an e-class under the current zeroing state, if the class
    /// is extractable at all.
    pub fn class_cost(&self, id: Id) -> Option<f64> {
        let cost = self.cost[self.graph.find(id).index()];
        cost.is_finite().then_some(cost)
    }

    /// Extracts the best expression for `root`, zeroing every traversed class so later
    /// extractions reuse the work.
    ///
    /// # Panics
    ///
    /// Panics if the class is not extractable (cannot happen for classes created by
    /// adding complete expressions).
    pub fn extract(&mut self, root: Id) -> Expr {
        let expr = self.extract_rec(self.graph.find(root).index());
        // Re-stabilize so that classes *above* the newly-zeroed ones can take advantage
        // of the cheaper children when the next root is extracted.
        self.stabilize();
        expr
    }

    fn extract_rec(&mut self, c: usize) -> Expr {
        if let Some(done) = &self.extracted[c] {
            return done.clone();
        }
        self.on_stack[c] = true;
        let mut choice = self.choice[c];
        assert!(choice != NO_CHOICE, "e-class e{c} has no extractable expression");
        // Guard against pathological cycles: if the chosen node recurses into a class
        // currently on the stack, fall back to the cheapest acyclic alternative.
        if self.node_children(self.first_node[c] + choice).iter().any(|&k| self.on_stack[k]) {
            choice = self.acyclic_alternative(c).unwrap_or(choice);
        }
        let n = self.first_node[c] + choice;
        let children: Vec<Expr> = (self.first_child[n]..self.first_child[n + 1])
            .map(|k| self.extract_rec(self.children[k]))
            .collect();
        let graph = self.graph;
        let op = &graph.class(Id(c as u32)).expect("canonical class").nodes[choice].op;
        let expr = node_to_expr(op, children);
        self.on_stack[c] = false;
        self.extracted[c] = Some(expr.clone());
        if self.effective[c] != 0.0 {
            // A fresh sweep after this extraction revisits everything that uses `c`.
            self.effective[c] = 0.0;
            for k in self.first_dependent[c]..self.first_dependent[c + 1] {
                self.schedule(self.dependents[k]);
            }
        }
        expr
    }

    fn node_children(&self, n: usize) -> &[usize] {
        &self.children[self.first_child[n]..self.first_child[n + 1]]
    }

    fn acyclic_alternative(&self, c: usize) -> Option<usize> {
        let first = self.first_node[c];
        let mut best: Option<(f64, usize)> = None;
        for n in first..self.first_node[c + 1] {
            if self.node_children(n).iter().any(|&k| self.on_stack[k]) {
                continue;
            }
            let total = self.node_total(n);
            if total.is_infinite() {
                continue;
            }
            match best {
                Some((b, _)) if b <= total => {}
                _ => best = Some((total, n - first)),
            }
        }
        best.map(|(_, choice)| choice)
    }

    /// Extracts a sequence of roots in order, sharing extraction state (and therefore
    /// CSE) across them.
    pub fn extract_many(&mut self, roots: &[Id]) -> Vec<Expr> {
        roots.iter().map(|&r| self.extract(r)).collect()
    }
}

/// Rebuilds an [`Expr`] node from an operator and already-extracted children.
pub(crate) fn node_to_expr(op: &Op, mut children: Vec<Expr>) -> Expr {
    match op {
        Op::Const(bits) => Expr::Const(f64::from_bits(*bits)),
        Op::Pi => Expr::Pi,
        Op::Var(name) => Expr::Var(name.clone()),
        Op::Neg => Expr::neg(children.remove(0)),
        Op::Sin => Expr::sin(children.remove(0)),
        Op::Cos => Expr::cos(children.remove(0)),
        Op::Sqrt => Expr::sqrt(children.remove(0)),
        Op::Exp => Expr::exp(children.remove(0)),
        Op::Ln => Expr::ln(children.remove(0)),
        Op::Add => {
            let b = children.pop().expect("add arity");
            let a = children.pop().expect("add arity");
            Expr::add(a, b)
        }
        Op::Sub => {
            let b = children.pop().expect("sub arity");
            let a = children.pop().expect("sub arity");
            Expr::sub(a, b)
        }
        Op::Mul => {
            let b = children.pop().expect("mul arity");
            let a = children.pop().expect("mul arity");
            Expr::mul(a, b)
        }
        Op::Div => {
            let b = children.pop().expect("div arity");
            let a = children.pop().expect("div arity");
            Expr::div(a, b)
        }
        Op::Pow => {
            let b = children.pop().expect("pow arity");
            let a = children.pop().expect("pow arity");
            Expr::pow(a, b)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rewrite::Runner;
    use crate::rules::default_rules;

    fn simplify_one(expr: &Expr) -> Expr {
        let mut g = EGraph::new();
        let root = g.add_expr(expr);
        Runner::new(12, 50_000).run(&mut g, default_rules());
        let mut ex = GreedyExtractor::new(&g, OpCost::new());
        ex.extract(root)
    }

    #[test]
    fn extracts_simplest_form_of_pythagoras() {
        let t = Expr::var("t");
        let e = Expr::Add(
            std::sync::Arc::new(Expr::mul(Expr::sin(t.clone()), Expr::sin(t.clone()))),
            std::sync::Arc::new(Expr::mul(Expr::cos(t.clone()), Expr::cos(t.clone()))),
        );
        let simplified = simplify_one(&e);
        assert_eq!(simplified, Expr::one());
    }

    #[test]
    fn extraction_preserves_value() {
        let t = Expr::var("t");
        let e = Expr::mul(
            Expr::sin(Expr::add(t.clone(), Expr::var("u"))),
            Expr::cos(Expr::sub(t.clone(), Expr::var("u"))),
        );
        let s = simplify_one(&e);
        let names = vec!["t".to_string(), "u".to_string()];
        for point in [[0.3, 0.8], [1.1, -0.4], [2.0, 0.0]] {
            let a = e.eval_with(&names, &point);
            let b = s.eval_with(&names, &point);
            assert!((a - b).abs() < 1e-12, "{a} vs {b} at {point:?}");
        }
    }

    #[test]
    fn extraction_does_not_increase_cost() {
        let t = Expr::var("t");
        let e = Expr::add(
            Expr::mul(Expr::sin(t.clone()), Expr::cos(t.clone())),
            Expr::mul(Expr::cos(t.clone()), Expr::sin(t.clone())),
        );
        let s = simplify_one(&e);
        assert!(s.trig_count() <= e.trig_count());
        assert!(s.node_count() <= e.node_count() + 2);
    }

    #[test]
    fn cse_zeroing_reuses_extracted_subexpressions() {
        // Mimics the paper's U2 example: extract cos(ϕ), sin(ϕ), cos(λ), sin(λ) first,
        // then cos(ϕ+λ). With those classes zeroed, the angle-sum expansion
        // cosϕcosλ − sinϕsinλ is cheaper (2 mul + 1 sub = 11) than a fresh cos (50+…),
        // so the extractor must pick the expanded, reusing form.
        let (phi, lam) = (Expr::var("phi"), Expr::var("lam"));
        let cp = Expr::cos(phi.clone());
        let sp = Expr::sin(phi.clone());
        let cl = Expr::cos(lam.clone());
        let sl = Expr::sin(lam.clone());
        let cpl = Expr::cos(Expr::add(phi.clone(), lam.clone()));

        let mut g = EGraph::new();
        let roots: Vec<Id> = [&cp, &sp, &cl, &sl, &cpl].iter().map(|e| g.add_expr(e)).collect();
        Runner::new(12, 50_000).run(&mut g, default_rules());
        let mut ex = GreedyExtractor::new(&g, OpCost::new());
        let exprs = ex.extract_many(&roots);

        // The first four extractions are the plain trig calls.
        assert_eq!(exprs[0], cp);
        assert_eq!(exprs[3], sl);
        // The fifth must not introduce a new trig node: it reuses the four extracted ones.
        assert_eq!(exprs[4].trig_count(), 4, "expected angle-sum reuse, got {}", exprs[4]);
        // And it must still be numerically correct.
        let names = vec!["phi".to_string(), "lam".to_string()];
        for point in [[0.2f64, 1.4], [1.0, -2.0]] {
            let expect = (point[0] + point[1]).cos();
            let got = exprs[4].eval_with(&names, &point);
            assert!((expect - got).abs() < 1e-12);
        }
    }

    #[test]
    fn without_prior_extraction_plain_cos_wins() {
        // Sanity check of the cost model: extracting cos(ϕ+λ) alone should keep the
        // single-cos form (cost 51) rather than expanding to four trig calls (cost 211).
        let (phi, lam) = (Expr::var("phi"), Expr::var("lam"));
        let cpl = Expr::cos(Expr::add(phi, lam));
        let s = simplify_one(&cpl);
        assert_eq!(s.trig_count(), 1);
    }

    #[test]
    fn extract_many_shares_across_roots() {
        let t = Expr::var("t");
        let a = Expr::sin(Expr::div(t.clone(), Expr::constant(2.0)));
        let b = Expr::mul(
            Expr::sin(Expr::div(t.clone(), Expr::constant(2.0))),
            Expr::cos(Expr::div(t.clone(), Expr::constant(2.0))),
        );
        let mut g = EGraph::new();
        let ra = g.add_expr(&a);
        let rb = g.add_expr(&b);
        Runner::new(10, 50_000).run(&mut g, default_rules());
        let mut ex = GreedyExtractor::new(&g, OpCost::new());
        let out = ex.extract_many(&[ra, rb]);
        assert_eq!(out[0], a);
        // Value preserved for the second root.
        let names = vec!["t".to_string()];
        for p in [[0.4], [2.2]] {
            assert!((out[1].eval_with(&names, &p) - b.eval_with(&names, &p)).abs() < 1e-12);
        }
    }
}
