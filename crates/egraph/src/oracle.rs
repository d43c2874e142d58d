//! Reference implementations of saturation, extraction and the batch statistics, kept
//! as test oracles.
//!
//! [`run_string_keyed`] is the saturation loop with the textbook e-matcher, whose
//! substitutions are `HashMap<String, Id>` merged child by child; [`SweepExtractor`]
//! re-stabilizes costs by sweeping every e-class to a fixpoint after each root. The
//! production runner and extractor must reproduce both exactly: the same e-graph, the
//! same run report, the same class costs after every root and the same expressions.
//! [`unique_trig_count_by_tree`] and [`Expr::node_count`] walk every path through a
//! batch; the memoized [`batch_counts`] behind the statistics of
//! [`simplify_batch_with`](crate::simplify::simplify_batch_with) must count the same.

use std::collections::HashMap;
use std::collections::HashSet;
use std::sync::Arc;

use qudit_qgl::{ComplexExpr, Expr};

use crate::cost::OpCost;
use crate::egraph::EGraph;
use crate::extract::GreedyExtractor;
use crate::language::{Id, Node, Op, Pattern};
use crate::rewrite::{Rewrite, RunReport, Runner, StopReason};
use crate::rules::default_rules;
use crate::simplify::{batch_counts, simplify_batch, SimplifyConfig};

/// A substitution binding pattern variables to e-class ids.
type Subst = HashMap<String, Id>;

fn merge_substs(a: &Subst, b: &Subst, graph: &EGraph) -> Option<Subst> {
    let mut out = a.clone();
    for (k, &v) in b {
        match out.get(k) {
            Some(&existing) if graph.find(existing) != graph.find(v) => return None,
            _ => {
                out.insert(k.clone(), v);
            }
        }
    }
    Some(out)
}

/// E-matching: all substitutions under which `pattern` matches e-class `id`.
fn match_pattern(graph: &EGraph, pattern: &Pattern, id: Id) -> Vec<Subst> {
    let id = graph.find(id);
    match pattern {
        Pattern::Var(name) => vec![Subst::from([(name.clone(), id)])],
        Pattern::Node(op, child_patterns) => {
            let mut results = Vec::new();
            let Some(class) = graph.class(id) else { return results };
            for node in &class.nodes {
                if &node.op != op || node.children.len() != child_patterns.len() {
                    continue;
                }
                // Match children left to right, threading compatible substitutions.
                let mut partial: Vec<Subst> = vec![Subst::new()];
                for (cp, &cid) in child_patterns.iter().zip(node.children.iter()) {
                    let mut next: Vec<Subst> = Vec::new();
                    for sub in &partial {
                        for m in match_pattern(graph, cp, cid) {
                            if let Some(merged) = merge_substs(sub, &m, graph) {
                                next.push(merged);
                            }
                        }
                    }
                    partial = next;
                    if partial.is_empty() {
                        break;
                    }
                }
                results.extend(partial);
            }
            results
        }
    }
}

fn instantiate(graph: &mut EGraph, pattern: &Pattern, subst: &Subst) -> Id {
    match pattern {
        Pattern::Var(name) => subst[name],
        Pattern::Node(op, children) => {
            let child_ids = children.iter().map(|c| instantiate(graph, c, subst)).collect();
            graph.add(Node { op: op.clone(), children: child_ids })
        }
    }
}

/// Adds an expression tree node by node, without sharing anything but hash-consing.
fn add_tree(graph: &mut EGraph, expr: &Expr) -> Id {
    let (op, kids): (Op, Vec<&Expr>) = match expr {
        Expr::Const(c) => (Op::constant(*c), vec![]),
        Expr::Pi => (Op::Pi, vec![]),
        Expr::Var(v) => (Op::Var(v.clone()), vec![]),
        Expr::Neg(a) => (Op::Neg, vec![a]),
        Expr::Sin(a) => (Op::Sin, vec![a]),
        Expr::Cos(a) => (Op::Cos, vec![a]),
        Expr::Sqrt(a) => (Op::Sqrt, vec![a]),
        Expr::Exp(a) => (Op::Exp, vec![a]),
        Expr::Ln(a) => (Op::Ln, vec![a]),
        Expr::Add(a, b) => (Op::Add, vec![a, b]),
        Expr::Sub(a, b) => (Op::Sub, vec![a, b]),
        Expr::Mul(a, b) => (Op::Mul, vec![a, b]),
        Expr::Div(a, b) => (Op::Div, vec![a, b]),
        Expr::Pow(a, b) => (Op::Pow, vec![a, b]),
    };
    let children = kids.into_iter().map(|k| add_tree(graph, k)).collect();
    graph.add(Node { op, children })
}

/// The saturation loop over the string-keyed matcher.
fn run_string_keyed(runner: &Runner, graph: &mut EGraph, rules: &[Rewrite]) -> RunReport {
    let mut total_unions = 0usize;
    for iteration in 0..runner.iter_limit {
        if graph.node_count() > runner.node_limit {
            return RunReport {
                iterations: iteration,
                unions: total_unions,
                nodes: graph.node_count(),
                stop_reason: StopReason::NodeLimit,
            };
        }
        let mut pending: Vec<(usize, Subst, Id)> = Vec::new();
        for (rule_idx, rule) in rules.iter().enumerate() {
            let candidates: Vec<Id> = match &rule.lhs {
                Pattern::Var(_) => graph.class_ids(),
                Pattern::Node(op, _) => graph
                    .class_ids()
                    .into_iter()
                    .filter(|&id| graph.class(id).unwrap().nodes.iter().any(|n| &n.op == op))
                    .collect(),
            };
            for class in candidates {
                for subst in match_pattern(graph, &rule.lhs, class) {
                    pending.push((rule_idx, subst, class));
                }
            }
        }
        let mut unions_this_iter = 0usize;
        for (rule_idx, subst, class) in pending {
            if graph.node_count() > runner.node_limit {
                break;
            }
            let new_id = instantiate(graph, &rules[rule_idx].rhs, &subst);
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
        iterations: runner.iter_limit,
        unions: total_unions,
        nodes: graph.node_count(),
        stop_reason: StopReason::IterationLimit,
    }
}

/// The greedy extractor that re-sweeps every class to a fixpoint after each root.
struct SweepExtractor<'a> {
    graph: &'a EGraph,
    cost_model: OpCost,
    best: HashMap<Id, (f64, Node)>,
    extracted: HashMap<Id, Expr>,
}

impl<'a> SweepExtractor<'a> {
    fn new(graph: &'a EGraph) -> Self {
        let mut ex = SweepExtractor {
            graph,
            cost_model: OpCost::new(),
            best: HashMap::new(),
            extracted: HashMap::new(),
        };
        ex.stabilize();
        ex
    }

    fn child_cost(&self, id: Id) -> Option<f64> {
        let id = self.graph.find(id);
        if self.extracted.contains_key(&id) {
            return Some(0.0);
        }
        self.best.get(&id).map(|(c, _)| *c)
    }

    fn node_total(&self, node: &Node) -> Option<f64> {
        let mut total = self.cost_model.cost(&node.op);
        for &child in &node.children {
            total += self.child_cost(child)?;
        }
        Some(total)
    }

    fn stabilize(&mut self) {
        let classes = self.graph.class_ids();
        loop {
            let mut changed = false;
            for &id in &classes {
                let id = self.graph.find(id);
                let Some(class) = self.graph.class(id) else { continue };
                let mut best: Option<(f64, Node)> = self.best.get(&id).cloned();
                for node in &class.nodes {
                    let Some(total) = self.node_total(node) else { continue };
                    match &best {
                        Some((c, _)) if *c <= total => {}
                        _ => best = Some((total, node.clone())),
                    }
                }
                if let Some((cost, node)) = best {
                    let prev = self.best.insert(id, (cost, node));
                    if prev.map(|(c, _)| c) != Some(cost) {
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }

    fn class_cost(&self, id: Id) -> Option<f64> {
        self.best.get(&self.graph.find(id)).map(|(c, _)| *c)
    }

    fn extract(&mut self, root: Id) -> Expr {
        let root = self.graph.find(root);
        let expr = self.extract_rec(root, &mut HashSet::new());
        self.stabilize();
        expr
    }

    fn extract_rec(&mut self, id: Id, on_stack: &mut HashSet<Id>) -> Expr {
        let id = self.graph.find(id);
        if let Some(done) = self.extracted.get(&id) {
            return done.clone();
        }
        on_stack.insert(id);
        let (_, node) = self.best.get(&id).cloned().expect("extractable class");
        let node = if node.children.iter().any(|c| on_stack.contains(&self.graph.find(*c))) {
            self.acyclic_alternative(id, on_stack).unwrap_or(node)
        } else {
            node
        };
        let children: Vec<Expr> =
            node.children.iter().map(|&c| self.extract_rec(c, on_stack)).collect();
        let expr = crate::extract::node_to_expr(&node.op, children);
        on_stack.remove(&id);
        self.extracted.insert(id, expr.clone());
        expr
    }

    fn acyclic_alternative(&self, id: Id, on_stack: &HashSet<Id>) -> Option<Node> {
        let mut best: Option<(f64, Node)> = None;
        for node in &self.graph.class(id)?.nodes {
            if node.children.iter().any(|c| on_stack.contains(&self.graph.find(*c))) {
                continue;
            }
            let Some(total) = self.node_total(node) else { continue };
            match &best {
                Some((c, _)) if *c <= total => {}
                _ => best = Some((total, node.clone())),
            }
        }
        best.map(|(_, n)| n)
    }
}

fn class_costs(ids: &[Id], cost: impl Fn(Id) -> Option<f64>) -> Vec<Option<u64>> {
    ids.iter().map(|&id| cost(id).map(f64::to_bits)).collect()
}

/// Runs the oracle and production pipelines on one batch and asserts they agree on
/// every observable: roots, run report, e-graph contents, class costs after every
/// extraction, and the extracted expressions. Returns the run's report and its final
/// count of live classes.
fn assert_pipelines_agree(exprs: &[Expr], runner: &Runner, what: &str) -> (RunReport, usize) {
    let mut old = EGraph::new();
    let old_roots: Vec<Id> = exprs.iter().map(|e| add_tree(&mut old, e)).collect();
    let old_report = run_string_keyed(runner, &mut old, default_rules());

    let mut graph = EGraph::new();
    let roots = graph.add_exprs(exprs);
    assert_eq!(roots, old_roots, "{what}: root classes");
    let report = runner.run(&mut graph, default_rules());
    assert_eq!(report, old_report, "{what}: run report");
    assert_eq!(graph.node_count(), old.node_count(), "{what}: node count");
    assert_eq!(graph.class_count(), old.class_count(), "{what}: class count");
    let ids = graph.class_ids();
    assert_eq!(ids, old.class_ids(), "{what}: class ids");
    for &id in &ids {
        assert_eq!(graph.class(id).unwrap().nodes, old.class(id).unwrap().nodes, "{what}: {id}");
    }

    let mut sweep = SweepExtractor::new(&graph);
    let mut greedy = GreedyExtractor::new(&graph, OpCost::new());
    let costs = |sweep: &SweepExtractor, greedy: &GreedyExtractor| {
        (
            class_costs(&ids, |id| sweep.class_cost(id)),
            class_costs(&ids, |id| greedy.class_cost(id)),
        )
    };
    let (expected, actual) = costs(&sweep, &greedy);
    assert_eq!(actual, expected, "{what}: stabilized costs");
    for (k, &root) in roots.iter().enumerate() {
        assert_eq!(greedy.extract(root), sweep.extract(root), "{what}: root {k}");
        let (expected, actual) = costs(&sweep, &greedy);
        assert_eq!(actual, expected, "{what}: costs after root {k}");
    }
    (report, graph.class_count())
}

fn default_runner() -> Runner {
    let config = SimplifyConfig::default();
    Runner::new(config.iter_limit, config.node_limit)
}

fn components(matrices: &[Vec<Vec<ComplexExpr>>]) -> Vec<Expr> {
    let mut out = Vec::new();
    for matrix in matrices {
        for el in matrix.iter().flatten() {
            out.push(el.re.clone());
            out.push(el.im.clone());
        }
    }
    out
}

/// `(gate, batch, iterations, unions, e-nodes, stop reason, live classes)` of the
/// default saturation run on every library gate's `unitary` batch and on its
/// `gradient` batch (the unitary with its gradient). The oracles check the run against
/// a second implementation; this table pins how the e-graph grows, so a storage change
/// that alters the graph fails even where the extracted expressions happen to agree.
const GROWTH: &[(&str, &str, usize, usize, usize, StopReason, usize)] = &[
    ("U3", "unitary", 5, 9, 45, StopReason::Saturated, 36),
    ("U3", "gradient", 6, 50, 117, StopReason::IterationLimit, 62),
    ("U2", "unitary", 5, 14, 52, StopReason::Saturated, 38),
    ("U2", "gradient", 6, 51, 107, StopReason::IterationLimit, 51),
    ("U1", "unitary", 1, 0, 5, StopReason::Saturated, 5),
    ("U1", "gradient", 2, 1, 8, StopReason::Saturated, 7),
    ("RX", "unitary", 3, 4, 17, StopReason::Saturated, 13),
    ("RX", "gradient", 3, 6, 25, StopReason::Saturated, 19),
    ("RY", "unitary", 3, 4, 17, StopReason::Saturated, 13),
    ("RY", "gradient", 3, 6, 25, StopReason::Saturated, 19),
    ("RZ", "unitary", 3, 5, 19, StopReason::Saturated, 12),
    ("RZ", "gradient", 6, 21, 46, StopReason::IterationLimit, 22),
    ("RZZ", "unitary", 3, 5, 19, StopReason::Saturated, 12),
    ("RZZ", "gradient", 6, 21, 46, StopReason::IterationLimit, 22),
    ("H", "unitary", 1, 0, 4, StopReason::Saturated, 4),
    ("H", "gradient", 1, 0, 4, StopReason::Saturated, 4),
    ("X", "unitary", 1, 0, 2, StopReason::Saturated, 2),
    ("X", "gradient", 1, 0, 2, StopReason::Saturated, 2),
    ("Y", "unitary", 1, 0, 4, StopReason::Saturated, 4),
    ("Y", "gradient", 1, 0, 4, StopReason::Saturated, 4),
    ("Z", "unitary", 1, 0, 4, StopReason::Saturated, 4),
    ("Z", "gradient", 1, 0, 4, StopReason::Saturated, 4),
    ("CNOT", "unitary", 1, 0, 2, StopReason::Saturated, 2),
    ("CNOT", "gradient", 1, 0, 2, StopReason::Saturated, 2),
    ("CZ", "unitary", 1, 0, 4, StopReason::Saturated, 4),
    ("CZ", "gradient", 1, 0, 4, StopReason::Saturated, 4),
    ("SWAP", "unitary", 1, 0, 2, StopReason::Saturated, 2),
    ("SWAP", "gradient", 1, 0, 2, StopReason::Saturated, 2),
    ("CP", "unitary", 1, 0, 5, StopReason::Saturated, 5),
    ("CP", "gradient", 2, 1, 8, StopReason::Saturated, 7),
    ("CSUM", "unitary", 1, 0, 2, StopReason::Saturated, 2),
    ("CSUM", "gradient", 1, 0, 2, StopReason::Saturated, 2),
    ("CSUM4", "unitary", 1, 0, 2, StopReason::Saturated, 2),
    ("CSUM4", "gradient", 1, 0, 2, StopReason::Saturated, 2),
    ("CSHIFT23", "unitary", 1, 0, 2, StopReason::Saturated, 2),
    ("CSHIFT23", "gradient", 1, 0, 2, StopReason::Saturated, 2),
    ("CSHIFT24", "unitary", 1, 0, 2, StopReason::Saturated, 2),
    ("CSHIFT24", "gradient", 1, 0, 2, StopReason::Saturated, 2),
    ("CSHIFT34", "unitary", 1, 0, 2, StopReason::Saturated, 2),
    ("CSHIFT34", "gradient", 1, 0, 2, StopReason::Saturated, 2),
    ("P3", "unitary", 1, 0, 8, StopReason::Saturated, 8),
    ("P3", "gradient", 2, 2, 15, StopReason::Saturated, 13),
    ("QutritU", "unitary", 6, 103, 285, StopReason::IterationLimit, 174),
    ("QutritU", "gradient", 6, 571, 1326, StopReason::IterationLimit, 706),
    ("QuquartU", "unitary", 6, 321, 856, StopReason::IterationLimit, 517),
    ("QuquartU", "gradient", 3, 1102, 4001, StopReason::NodeLimit, 2829),
];

#[test]
fn library_gate_batches_match_the_oracles() {
    let mut actual = Vec::new();
    for (name, gate) in qudit_circuit::gates::all_gates() {
        let mut with_gradient = vec![gate.elements().to_vec()];
        with_gradient.extend(gate.gradient());
        let batches = [("unitary", &with_gradient[..1]), ("gradient", &with_gradient[..])];
        for (batch, matrices) in batches {
            let exprs = components(matrices);
            let (report, classes) =
                assert_pipelines_agree(&exprs, &default_runner(), &format!("{name} {batch}"));
            actual.push((name, batch, report, classes));
        }
    }
    let table: String = actual
        .iter()
        .map(|(name, batch, r, classes)| {
            format!(
                "    (\"{name}\", \"{batch}\", {}, {}, {}, StopReason::{:?}, {classes}),\n",
                r.iterations, r.unions, r.nodes, r.stop_reason
            )
        })
        .collect();
    let pinned: Vec<_> = GROWTH
        .iter()
        .map(|&(name, batch, iterations, unions, nodes, stop_reason, classes)| {
            (name, batch, RunReport { iterations, unions, nodes, stop_reason }, classes)
        })
        .collect();
    assert!(
        actual == pinned,
        "saturation growth differs from the pinned table; it is now:\n{table}"
    );
}

/// [`unique_trig_count`](crate::simplify::unique_trig_count) by a walk of every path,
/// cloning each trig term into the set.
fn unique_trig_count_by_tree(exprs: &[Expr]) -> usize {
    fn walk(e: &Expr, set: &mut HashSet<Expr>) {
        match e {
            Expr::Sin(a) | Expr::Cos(a) => {
                set.insert(e.clone());
                walk(a, set);
            }
            Expr::Const(_) | Expr::Pi | Expr::Var(_) => {}
            Expr::Neg(a) | Expr::Sqrt(a) | Expr::Exp(a) | Expr::Ln(a) => walk(a, set),
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b)
            | Expr::Pow(a, b) => {
                walk(a, set);
                walk(b, set);
            }
        }
    }
    let mut set = HashSet::new();
    for e in exprs {
        walk(e, &mut set);
    }
    set.len()
}

#[test]
fn batch_statistics_match_their_tree_walks() {
    for (name, gate) in qudit_circuit::gates::all_gates() {
        let mut with_gradient = vec![gate.elements().to_vec()];
        with_gradient.extend(gate.gradient());
        for exprs in [components(&with_gradient[..1]), components(&with_gradient)] {
            let simplified = simplify_batch(&exprs);
            for batch in [&exprs, &simplified] {
                let nodes: usize = batch.iter().map(Expr::node_count).sum();
                assert_eq!(
                    batch_counts(batch),
                    (unique_trig_count_by_tree(batch), nodes),
                    "{name}"
                );
            }
        }
    }
}

/// A deterministic generator of small expression batches with shared subtrees.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((self.0 >> 33) % n as u64) as usize
    }

    fn expr(&mut self, depth: usize, pool: &mut Vec<Expr>) -> Expr {
        if depth == 0 || self.below(5) == 0 {
            if !pool.is_empty() && self.below(3) == 0 {
                return pool[self.below(pool.len())].clone();
            }
            return match self.below(6) {
                0 => Expr::var("a"),
                1 => Expr::var("b"),
                2 => Expr::var("c"),
                3 => Expr::Pi,
                _ => Expr::constant([0.0, 1.0, 2.0, -1.0, 0.5][self.below(5)]),
            };
        }
        let a = Arc::new(self.expr(depth - 1, pool));
        let e = match self.below(11) {
            0 => Expr::Neg(a),
            1 => Expr::Sin(a),
            2 => Expr::Cos(a),
            3 => Expr::Sqrt(a),
            4 => Expr::Exp(a),
            5 => Expr::Ln(a),
            k => {
                let b = Arc::new(self.expr(depth - 1, pool));
                match k {
                    6 => Expr::Add(a, b),
                    7 => Expr::Sub(a, b),
                    8 => Expr::Mul(a, b),
                    9 => Expr::Div(a, b),
                    _ => Expr::Pow(a, b),
                }
            }
        };
        pool.push(e.clone());
        e
    }
}

#[test]
fn random_expression_batches_match_the_oracles() {
    let mut stop_reasons = Vec::new();
    for seed in 0..72u64 {
        let mut rng = Lcg(seed);
        let mut pool = Vec::new();
        let mut batch: Vec<Expr> = (0..2 + rng.below(3)).map(|_| rng.expr(3, &mut pool)).collect();
        // The JIT simplifies expressions together with their derivatives.
        batch.push(qudit_qgl::diff::diff(&batch[0], "a"));
        // Small node limits keep the oracles fast; every third batch runs under tighter
        // limits still, so that saturation is cut short.
        let runner = if seed % 3 == 2 { Runner::new(4, 200) } else { Runner::new(6, 800) };
        let reason = assert_pipelines_agree(&batch, &runner, &format!("seed {seed}")).0.stop_reason;
        if !stop_reasons.contains(&reason) {
            stop_reasons.push(reason);
        }
    }
    assert!(stop_reasons.len() >= 2, "batches only stopped with {stop_reasons:?}");
}
