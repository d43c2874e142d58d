//! The e-graph data structure: union-find over e-classes, hash-consing of e-nodes,
//! congruence-closure rebuilding, and e-matching of rewrite patterns.
//!
//! The implementation follows the standard design popularized by the EGG library
//! (which the paper uses); it is re-implemented here from scratch so the workspace has no
//! external solver dependencies.

use std::collections::HashMap;

use qudit_qgl::Expr;

use crate::language::{Id, Node, Op};
use crate::rewrite::{SlotPattern, SlotTerm};

/// An equivalence class of e-nodes.
#[derive(Debug, Clone, Default)]
pub struct EClass {
    /// The e-nodes in this class (with canonical children at the last rebuild).
    pub nodes: Vec<Node>,
    /// Parent e-nodes that reference this class, together with the class they live in.
    pub parents: Vec<(Node, Id)>,
}

/// An e-graph over the real-valued expression language.
#[derive(Debug, Clone, Default)]
pub struct EGraph {
    unionfind: Vec<Id>,
    memo: HashMap<Node, Id>,
    classes: HashMap<Id, EClass>,
    dirty: Vec<Id>,
    node_count: usize,
}

/// Marks a slot that the current partial match has not bound yet.
const UNBOUND: Id = Id(u32::MAX);

impl EGraph {
    /// Creates an empty e-graph.
    pub fn new() -> Self {
        EGraph::default()
    }

    /// Total number of e-nodes added (an upper bound used for the saturation safeguard).
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of (canonical) e-classes currently alive.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Finds the canonical representative of an e-class.
    pub fn find(&self, id: Id) -> Id {
        let mut cur = id;
        loop {
            let parent = self.unionfind[cur.index()];
            if parent == cur {
                return cur;
            }
            cur = parent;
        }
    }

    fn find_mut(&mut self, id: Id) -> Id {
        // Path compression.
        let root = self.find(id);
        let mut cur = id;
        while cur != root {
            let next = self.unionfind[cur.index()];
            self.unionfind[cur.index()] = root;
            cur = next;
        }
        root
    }

    /// Canonicalizes a node's children.
    pub fn canonicalize(&self, node: &Node) -> Node {
        node.map_children(|c| self.find(c))
    }

    /// Adds a node (with already-added children) and returns its e-class.
    pub fn add(&mut self, node: Node) -> Id {
        let node = self.canonicalize(&node);
        if let Some(&id) = self.memo.get(&node) {
            return self.find(id);
        }
        let id = Id(self.unionfind.len() as u32);
        self.unionfind.push(id);
        let mut class = EClass::default();
        class.nodes.push(node.clone());
        self.classes.insert(id, class);
        for &child in &node.children {
            let child = self.find(child);
            if let Some(c) = self.classes.get_mut(&child) {
                c.parents.push((node.clone(), id));
            }
        }
        self.memo.insert(node, id);
        self.node_count += 1;
        id
    }

    /// Adds a full expression tree, returning the e-class of its root.
    pub fn add_expr(&mut self, expr: &Expr) -> Id {
        self.add_exprs(std::slice::from_ref(expr))[0]
    }

    /// Adds a batch of expression trees, returning the e-class of each root.
    ///
    /// Gate expressions and their gradients share most subtrees through `Arc`s, so the
    /// walk memoizes on node addresses: a subtree reached again through the same `Arc`
    /// maps to the e-class it got the first time without being walked again. The
    /// result is the same as adding each tree in full, since hash-consing would give
    /// every repeated node its existing class anyway.
    pub fn add_exprs(&mut self, exprs: &[Expr]) -> Vec<Id> {
        let mut memo = HashMap::new();
        exprs.iter().map(|e| self.add_shared(e, &mut memo)).collect()
    }

    fn add_shared(&mut self, expr: &Expr, memo: &mut HashMap<*const Expr, Id>) -> Id {
        let key: *const Expr = expr;
        if let Some(&id) = memo.get(&key) {
            return id;
        }
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
        let children = kids.into_iter().map(|k| self.add_shared(k, memo)).collect();
        let id = self.add(Node { op, children });
        memo.insert(key, id);
        id
    }

    /// Merges two e-classes, returning the surviving canonical id.
    pub fn union(&mut self, a: Id, b: Id) -> Id {
        let a = self.find_mut(a);
        let b = self.find_mut(b);
        if a == b {
            return a;
        }
        // Keep the class with more nodes as the root to bound merge cost.
        let (root, child) = {
            let an = self.classes.get(&a).map(|c| c.nodes.len()).unwrap_or(0);
            let bn = self.classes.get(&b).map(|c| c.nodes.len()).unwrap_or(0);
            if an >= bn {
                (a, b)
            } else {
                (b, a)
            }
        };
        self.unionfind[child.index()] = root;
        let child_class = self.classes.remove(&child).unwrap_or_default();
        let root_class = self.classes.entry(root).or_default();
        root_class.nodes.extend(child_class.nodes);
        root_class.parents.extend(child_class.parents);
        self.dirty.push(root);
        root
    }

    /// Restores the congruence invariant after unions: if two nodes become identical
    /// after canonicalization, their classes are merged; the memo table is re-keyed.
    pub fn rebuild(&mut self) {
        while let Some(dirty) = self.dirty.pop() {
            let dirty = self.find_mut(dirty);
            let parents = match self.classes.get(&dirty) {
                Some(c) => c.parents.clone(),
                None => continue,
            };
            let mut new_parents: Vec<(Node, Id)> = Vec::with_capacity(parents.len());
            let mut seen: HashMap<Node, Id> = HashMap::with_capacity(parents.len());
            for (node, class) in parents {
                let canon = self.canonicalize(&node);
                let class = self.find_mut(class);
                self.memo.remove(&node);
                if let Some(&existing) = self.memo.get(&canon) {
                    let existing = self.find_mut(existing);
                    if existing != class {
                        self.union(existing, class);
                    }
                } else {
                    self.memo.insert(canon.clone(), class);
                }
                let class = self.find_mut(class);
                match seen.get(&canon) {
                    Some(&prev) if prev == class => {}
                    _ => {
                        seen.insert(canon.clone(), class);
                        new_parents.push((canon, class));
                    }
                }
            }
            if let Some(c) = self.classes.get_mut(&self.find(dirty)) {
                c.parents = new_parents;
            }
            // Also canonicalize the node list of the class itself.
            let dirty = self.find(dirty);
            if let Some(c) = self.classes.get(&dirty) {
                let canon_nodes: Vec<Node> = c.nodes.iter().map(|n| self.canonicalize(n)).collect();
                let mut deduped: Vec<Node> = Vec::with_capacity(canon_nodes.len());
                for n in canon_nodes {
                    if !deduped.contains(&n) {
                        deduped.push(n);
                    }
                }
                self.classes.get_mut(&dirty).unwrap().nodes = deduped;
            }
        }
    }

    /// Iterates over the canonical e-class ids, in ascending id order.
    ///
    /// The sort is load-bearing: the backing map's iteration order varies between
    /// processes, and both the saturation runner and the extractor visit classes in
    /// this order. An unsorted walk would make rule-application (and hence tie-breaks
    /// among equal-cost extractions) process-dependent, which leaks all the way into
    /// the floating-point op order of JIT-compiled expressions — breaking the
    /// byte-for-byte reproducibility the synthesis engine guarantees.
    pub fn class_ids(&self) -> Vec<Id> {
        // detlint: allow(unsorted-map-iter) — sorted on the next line
        let mut ids: Vec<Id> = self.classes.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Returns the e-class for a canonical id.
    pub fn class(&self, id: Id) -> Option<&EClass> {
        self.classes.get(&self.find(id))
    }

    /// E-matching: calls `on_match(class, subst)` for every substitution under which
    /// `pattern` matches one of the `candidates`, class by class in the given order and,
    /// within a class, in the enumeration order described in the
    /// [`rewrite`](crate::rewrite) module docs. `subst[k]` is the canonical e-class
    /// bound to slot `k`.
    pub fn match_pattern(
        &self,
        pattern: &SlotPattern,
        candidates: &[Id],
        mut on_match: impl FnMut(Id, &[Id]),
    ) {
        let mut at = vec![UNBOUND; pattern.terms.len()];
        let mut subst = vec![UNBOUND; pattern.num_slots()];
        for &class in candidates {
            at[0] = self.find(class);
            self.match_term(pattern, 0, &mut at, &mut subst, &mut |s: &[Id]| on_match(class, s));
        }
    }

    /// Matches term `term` of `pattern` against class `at[term]` and, for each way it
    /// matches, continues with the next term in pre-order. Choosing an e-node for a
    /// `Node` term fills in `at` for its children, which pre-order visits later.
    fn match_term<F: FnMut(&[Id])>(
        &self,
        pattern: &SlotPattern,
        term: usize,
        at: &mut [Id],
        subst: &mut [Id],
        on_match: &mut F,
    ) {
        let Some(t) = pattern.terms.get(term) else {
            on_match(subst);
            return;
        };
        let id = at[term];
        match t {
            SlotTerm::Var(slot) => {
                if subst[*slot] == UNBOUND {
                    subst[*slot] = id;
                    self.match_term(pattern, term + 1, at, subst, on_match);
                    subst[*slot] = UNBOUND;
                } else if subst[*slot] == id {
                    self.match_term(pattern, term + 1, at, subst, on_match);
                }
            }
            SlotTerm::Node(op, children) => {
                let Some(class) = self.classes.get(&id) else { return };
                for node in &class.nodes {
                    if &node.op != op || node.children.len() != children.len() {
                        continue;
                    }
                    for (&child_term, &child) in children.iter().zip(&node.children) {
                        at[child_term] = self.find(child);
                    }
                    self.match_term(pattern, term + 1, at, subst, on_match);
                }
            }
        }
    }

    /// Instantiates a pattern under a substitution (`subst[k]` binds slot `k`), adding
    /// any new nodes, and returns the e-class of the instantiated root.
    ///
    /// # Panics
    ///
    /// Panics if `subst` is shorter than the pattern's slot count.
    pub fn instantiate(&mut self, pattern: &SlotPattern, subst: &[Id]) -> Id {
        self.instantiate_term(pattern, 0, subst)
    }

    fn instantiate_term(&mut self, pattern: &SlotPattern, term: usize, subst: &[Id]) -> Id {
        match &pattern.terms[term] {
            SlotTerm::Var(slot) => subst[*slot],
            SlotTerm::Node(op, children) => {
                let child_ids =
                    children.iter().map(|&c| self.instantiate_term(pattern, c, subst)).collect();
                self.add(Node { op: op.clone(), children: child_ids })
            }
        }
    }

    /// Returns `true` if the two ids are in the same e-class.
    pub fn same_class(&self, a: Id, b: Id) -> bool {
        self.find(a) == self.find(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::language::Pattern;

    fn add_mul_expr(g: &mut EGraph) -> (Id, Id, Id) {
        // (a * b), a, b
        let a = g.add(Node::leaf(Op::Var("a".into())));
        let b = g.add(Node::leaf(Op::Var("b".into())));
        let ab = g.add(Node::new(Op::Mul, vec![a, b]));
        (ab, a, b)
    }

    #[test]
    fn hashconsing_dedupes() {
        let mut g = EGraph::new();
        let (ab1, a, b) = add_mul_expr(&mut g);
        let ab2 = g.add(Node::new(Op::Mul, vec![a, b]));
        assert_eq!(ab1, ab2);
        assert_eq!(g.node_count(), 3);
    }

    #[test]
    fn union_and_find() {
        let mut g = EGraph::new();
        let a = g.add(Node::leaf(Op::Var("a".into())));
        let b = g.add(Node::leaf(Op::Var("b".into())));
        assert!(!g.same_class(a, b));
        g.union(a, b);
        g.rebuild();
        assert!(g.same_class(a, b));
    }

    #[test]
    fn congruence_closure() {
        // If a = b then f(a) = f(b) after rebuild.
        let mut g = EGraph::new();
        let a = g.add(Node::leaf(Op::Var("a".into())));
        let b = g.add(Node::leaf(Op::Var("b".into())));
        let fa = g.add(Node::new(Op::Sin, vec![a]));
        let fb = g.add(Node::new(Op::Sin, vec![b]));
        assert!(!g.same_class(fa, fb));
        g.union(a, b);
        g.rebuild();
        assert!(g.same_class(fa, fb));
    }

    #[test]
    fn nested_congruence() {
        // a = b implies g(f(a)) = g(f(b)).
        let mut g = EGraph::new();
        let a = g.add(Node::leaf(Op::Var("a".into())));
        let b = g.add(Node::leaf(Op::Var("b".into())));
        let fa = g.add(Node::new(Op::Cos, vec![a]));
        let fb = g.add(Node::new(Op::Cos, vec![b]));
        let gfa = g.add(Node::new(Op::Sqrt, vec![fa]));
        let gfb = g.add(Node::new(Op::Sqrt, vec![fb]));
        g.union(a, b);
        g.rebuild();
        assert!(g.same_class(gfa, gfb));
    }

    #[test]
    fn add_expr_and_structure() {
        let mut g = EGraph::new();
        let e = Expr::mul(Expr::sin(Expr::var("t")), Expr::sin(Expr::var("t")));
        let root = g.add_expr(&e);
        // sin(t) appears once thanks to hash-consing: nodes are t, sin(t), mul.
        assert_eq!(g.node_count(), 3);
        assert!(g.class(root).is_some());
    }

    /// Every substitution under which `pattern` matches class `id`.
    fn matches(g: &EGraph, pattern: &SlotPattern, id: Id) -> Vec<Vec<Id>> {
        let mut out = Vec::new();
        g.match_pattern(pattern, &[id], |_, subst| out.push(subst.to_vec()));
        out
    }

    fn slots(text: &str) -> SlotPattern {
        SlotPattern::new(&Pattern::parse(text))
    }

    #[test]
    fn pattern_matching_binds_variables() {
        let mut g = EGraph::new();
        let (ab, a, b) = add_mul_expr(&mut g);
        let pat = slots("(* ?x ?y)");
        let found = matches(&g, &pat, ab);
        assert_eq!(found.len(), 1);
        assert_eq!(g.find(found[0][pat.slot("x").unwrap()]), g.find(a));
        assert_eq!(g.find(found[0][pat.slot("y").unwrap()]), g.find(b));
        // Non-matching pattern.
        assert!(matches(&g, &slots("(+ ?x ?y)"), ab).is_empty());
    }

    #[test]
    fn nonlinear_pattern_requires_same_class() {
        let mut g = EGraph::new();
        let a = g.add(Node::leaf(Op::Var("a".into())));
        let b = g.add(Node::leaf(Op::Var("b".into())));
        let aa = g.add(Node::new(Op::Mul, vec![a, a]));
        let ab = g.add(Node::new(Op::Mul, vec![a, b]));
        let square = slots("(* ?x ?x)");
        assert_eq!(square.num_slots(), 1);
        assert_eq!(matches(&g, &square, aa).len(), 1);
        assert!(matches(&g, &square, ab).is_empty());
        // After a = b, (* a b) matches (* ?x ?x).
        g.union(a, b);
        g.rebuild();
        assert_eq!(matches(&g, &square, ab).len(), 1);
    }

    #[test]
    fn instantiate_creates_nodes() {
        let mut g = EGraph::new();
        let (_, a, b) = add_mul_expr(&mut g);
        let id = g.instantiate(&slots("(+ (* ?x ?y) 0)"), &[a, b]);
        assert!(g.class(id).is_some());
        assert!(g.node_count() >= 5);
    }

    #[test]
    fn constant_pattern_matches_only_that_constant() {
        let mut g = EGraph::new();
        let two = g.add(Node::leaf(Op::constant(2.0)));
        let three = g.add(Node::leaf(Op::constant(3.0)));
        let x = g.add(Node::leaf(Op::Var("x".into())));
        let two_x = g.add(Node::new(Op::Mul, vec![two, x]));
        let three_x = g.add(Node::new(Op::Mul, vec![three, x]));
        let pat = slots("(* 2 ?x)");
        assert_eq!(matches(&g, &pat, two_x).len(), 1);
        assert!(matches(&g, &pat, three_x).is_empty());
    }

    #[test]
    fn add_exprs_shares_arc_subtrees_across_the_batch() {
        let shared = Expr::sin(Expr::add(Expr::var("a"), Expr::var("b")));
        let batch = [Expr::mul(shared.clone(), Expr::var("c")), shared.clone()];
        let mut g = EGraph::new();
        let roots = g.add_exprs(&batch);
        // a, b, a+b, sin, c, mul: the second root reuses the first root's subtree.
        assert_eq!(g.node_count(), 6);
        let mut fresh = EGraph::new();
        assert_eq!(roots, vec![fresh.add_expr(&batch[0]), fresh.add_expr(&batch[1])]);
    }
}
