//! The e-graph data structure: union-find over e-classes, hash-consing of e-nodes,
//! congruence-closure rebuilding, and e-matching of rewrite patterns.
//!
//! The implementation follows the standard design popularized by the EGG library
//! (which the paper uses); it is re-implemented here from scratch so the workspace has no
//! external solver dependencies.
//!
//! # Storage
//!
//! Ids are dense: [`EGraph::add`] gives a new class the next union-find index. So the
//! classes sit in a vector indexed by id, with `None` where a class was merged into
//! another, and reaching a class never hashes. An e-node keeps its (at most two)
//! children inline, so canonicalizing, cloning, hashing and comparing a node allocate
//! nothing. Only the hash-consing memo, keyed by whole e-nodes, is a hash map.
//!
//! [`EGraph::add_exprs`] memoizes subtrees by address in an [`AddrMap`], which skips
//! SipHash: the allocator, not a caller, chooses addresses.
//!
//! [`EGraph::class_ids`] walks that vector, so it yields ascending ids with no sort.
//! The order is load-bearing: both the saturation runner and the extractor visit
//! classes in it, and any other order would change which rule applications and which
//! equal-cost e-nodes win, and so the floating-point op order of the JIT-compiled
//! expressions, which must be byte-for-byte reproducible.

use std::collections::HashMap;

use qudit_qgl::expr::AddrMap;
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
    /// `classes[id]` is the class of canonical id `id`, `None` once merged away.
    classes: Vec<Option<EClass>>,
    live_classes: usize,
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
        self.live_classes
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

    /// The class of a canonical id.
    fn canonical_class(&mut self, id: Id) -> &mut EClass {
        self.classes[id.index()].as_mut().expect("a canonical id has a class")
    }

    /// Adds a node (with already-added children) and returns its e-class.
    pub fn add(&mut self, node: Node) -> Id {
        let node = self.canonicalize(&node);
        if let Some(&id) = self.memo.get(&node) {
            return self.find(id);
        }
        let id = Id(self.unionfind.len() as u32);
        self.unionfind.push(id);
        self.classes.push(Some(EClass { nodes: vec![node.clone()], parents: Vec::new() }));
        self.live_classes += 1;
        for &child in &node.children {
            self.canonical_class(child).parents.push((node.clone(), id));
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
        let mut memo = AddrMap::default();
        exprs.iter().map(|e| self.add_shared(e, &mut memo)).collect()
    }

    fn add_shared(&mut self, expr: &Expr, memo: &mut AddrMap<Id>) -> Id {
        let key: *const Expr = expr;
        if let Some(&id) = memo.get(&key) {
            return id;
        }
        let (op, kids): (Op, [Option<&Expr>; 2]) = match expr {
            Expr::Const(c) => (Op::constant(*c), [None, None]),
            Expr::Pi => (Op::Pi, [None, None]),
            Expr::Var(v) => (Op::Var(v.clone()), [None, None]),
            Expr::Neg(a) => (Op::Neg, [Some(a), None]),
            Expr::Sin(a) => (Op::Sin, [Some(a), None]),
            Expr::Cos(a) => (Op::Cos, [Some(a), None]),
            Expr::Sqrt(a) => (Op::Sqrt, [Some(a), None]),
            Expr::Exp(a) => (Op::Exp, [Some(a), None]),
            Expr::Ln(a) => (Op::Ln, [Some(a), None]),
            Expr::Add(a, b) => (Op::Add, [Some(a), Some(b)]),
            Expr::Sub(a, b) => (Op::Sub, [Some(a), Some(b)]),
            Expr::Mul(a, b) => (Op::Mul, [Some(a), Some(b)]),
            Expr::Div(a, b) => (Op::Div, [Some(a), Some(b)]),
            Expr::Pow(a, b) => (Op::Pow, [Some(a), Some(b)]),
        };
        let children = kids.into_iter().flatten().map(|k| self.add_shared(k, memo)).collect();
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
        // Keep the class with more nodes as the root to bound merge cost; a tie keeps
        // `a`.
        let (root, child) =
            if self.canonical_class(a).nodes.len() >= self.canonical_class(b).nodes.len() {
                (a, b)
            } else {
                (b, a)
            };
        self.unionfind[child.index()] = root;
        let child_class = self.classes[child.index()].take().expect("a canonical id has a class");
        self.live_classes -= 1;
        let root_class = self.canonical_class(root);
        root_class.nodes.extend(child_class.nodes);
        root_class.parents.extend(child_class.parents);
        self.dirty.push(root);
        root
    }

    /// Restores the congruence invariant after unions: if two nodes become identical
    /// after canonicalization, their classes are merged; the memo table is re-keyed.
    ///
    /// A dirty class's parent list is taken, not copied: the repaired list replaces
    /// whatever the list of the class's root holds once the repair ends, so the parents
    /// that a union in between would have appended there are dropped either way.
    pub fn rebuild(&mut self) {
        while let Some(dirty) = self.dirty.pop() {
            let dirty = self.find_mut(dirty);
            let parents = match self.classes[dirty.index()].as_mut() {
                Some(c) => std::mem::take(&mut c.parents),
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
            // Also canonicalize the node list of the class itself.
            let dirty = self.find(dirty);
            let nodes = std::mem::take(&mut self.canonical_class(dirty).nodes);
            let mut deduped: Vec<Node> = Vec::with_capacity(nodes.len());
            for n in &nodes {
                let n = self.canonicalize(n);
                if !deduped.contains(&n) {
                    deduped.push(n);
                }
            }
            let class = self.canonical_class(dirty);
            class.parents = new_parents;
            class.nodes = deduped;
        }
    }

    /// The canonical e-class ids, in ascending id order (see the [module docs](self)).
    pub fn class_ids(&self) -> Vec<Id> {
        self.classes().map(|(id, _)| id).collect()
    }

    /// The canonical e-classes with their ids, in ascending id order.
    pub(crate) fn classes(&self) -> impl Iterator<Item = (Id, &EClass)> {
        self.classes
            .iter()
            .enumerate()
            .filter_map(|(k, class)| class.as_ref().map(|class| (Id(k as u32), class)))
    }

    /// Returns the e-class for a canonical id.
    pub fn class(&self, id: Id) -> Option<&EClass> {
        self.classes[self.find(id).index()].as_ref()
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
                let Some(class) = &self.classes[id.index()] else { return };
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
                let children =
                    children.iter().map(|&c| self.instantiate_term(pattern, c, subst)).collect();
                self.add(Node { op: op.clone(), children })
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
