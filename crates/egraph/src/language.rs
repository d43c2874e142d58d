//! The term language over which the e-graph operates.
//!
//! The language mirrors the real-valued symbolic expression nodes of `qudit-qgl`
//! (constants, π, variables, arithmetic, trigonometry, `sqrt`/`exp`/`ln`/`pow`) but with
//! children expressed as e-class ids, plus a textual pattern language used to state
//! rewrite rules (`?x` denotes a pattern variable).

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// An e-class identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Id(pub u32);

impl Id {
    /// The id as an index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// The operator of an e-node.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Op {
    /// A floating-point constant (stored as bits so that `Eq`/`Hash` are well-defined).
    Const(u64),
    /// The constant π.
    Pi,
    /// A named variable.
    Var(String),
    /// Unary negation.
    Neg,
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Power.
    Pow,
    /// Sine.
    Sin,
    /// Cosine.
    Cos,
    /// Square root.
    Sqrt,
    /// Natural exponential.
    Exp,
    /// Natural logarithm.
    Ln,
}

impl Op {
    /// The arity of the operator.
    pub fn arity(&self) -> usize {
        match self {
            Op::Const(_) | Op::Pi | Op::Var(_) => 0,
            Op::Neg | Op::Sin | Op::Cos | Op::Sqrt | Op::Exp | Op::Ln => 1,
            Op::Add | Op::Sub | Op::Mul | Op::Div | Op::Pow => 2,
        }
    }

    /// Creates a constant operator from an `f64`.
    pub fn constant(v: f64) -> Op {
        Op::Const(v.to_bits())
    }

    /// Returns the constant value if this is a constant (or π).
    pub fn as_const(&self) -> Option<f64> {
        match self {
            Op::Const(bits) => Some(f64::from_bits(*bits)),
            Op::Pi => Some(std::f64::consts::PI),
            _ => None,
        }
    }

    /// The operator's name as used in the textual pattern syntax.
    pub fn name(&self) -> String {
        match self {
            Op::Const(bits) => format!("{}", f64::from_bits(*bits)),
            Op::Pi => "pi".to_string(),
            Op::Var(v) => v.clone(),
            Op::Neg => "-".to_string(),
            Op::Add => "+".to_string(),
            Op::Sub => "-".to_string(),
            Op::Mul => "*".to_string(),
            Op::Div => "/".to_string(),
            Op::Pow => "pow".to_string(),
            Op::Sin => "sin".to_string(),
            Op::Cos => "cos".to_string(),
            Op::Sqrt => "sqrt".to_string(),
            Op::Exp => "exp".to_string(),
            Op::Ln => "ln".to_string(),
        }
    }
}

/// The children of an e-node, stored inline: no operator takes more than two.
///
/// Derefs to the live prefix `[Id]`, whose length is the operator's arity. `Eq` and
/// `Hash` see only that prefix, and hash it as a slice, so a node hashes as it did
/// when its children were a `Vec<Id>`.
#[derive(Debug, Clone, Copy)]
pub struct Children {
    len: u8,
    ids: [Id; 2],
}

impl Children {
    /// No children.
    const NONE: Children = Children { len: 0, ids: [Id(0); 2] };
}

impl Deref for Children {
    type Target = [Id];

    fn deref(&self) -> &[Id] {
        &self.ids[..self.len as usize]
    }
}

impl DerefMut for Children {
    fn deref_mut(&mut self) -> &mut [Id] {
        &mut self.ids[..self.len as usize]
    }
}

impl PartialEq for Children {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Children {}

impl Hash for Children {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl FromIterator<Id> for Children {
    /// # Panics
    ///
    /// Panics on more than two ids.
    fn from_iter<I: IntoIterator<Item = Id>>(iter: I) -> Self {
        let mut out = Children::NONE;
        for id in iter {
            assert!(out.len < 2, "an e-node has at most two children");
            out.ids[out.len as usize] = id;
            out.len += 1;
        }
        out
    }
}

impl<'a> IntoIterator for &'a Children {
    type Item = &'a Id;
    type IntoIter = std::slice::Iter<'a, Id>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// An e-node: an operator applied to e-class children.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Node {
    /// The operator.
    pub op: Op,
    /// Child e-class ids (length equals `op.arity()`).
    pub children: Children,
}

impl Node {
    /// Creates a leaf node.
    pub fn leaf(op: Op) -> Node {
        debug_assert_eq!(op.arity(), 0);
        Node { op, children: Children::NONE }
    }

    /// Creates a node with children.
    pub fn new(op: Op, children: Vec<Id>) -> Node {
        debug_assert_eq!(op.arity(), children.len(), "arity mismatch for {op:?}");
        Node { op, children: children.into_iter().collect() }
    }

    /// Returns a copy of the node with its children canonicalized by `f`.
    pub fn map_children(&self, mut f: impl FnMut(Id) -> Id) -> Node {
        let mut children = self.children;
        for c in children.iter_mut() {
            *c = f(*c);
        }
        Node { op: self.op.clone(), children }
    }
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.children.is_empty() {
            write!(f, "{}", self.op.name())
        } else {
            write!(f, "({}", self.op.name())?;
            for c in &self.children {
                write!(f, " {c}")?;
            }
            write!(f, ")")
        }
    }
}

/// A pattern term: either a pattern variable (`?x`) or an operator applied to
/// sub-patterns.
#[derive(Debug, Clone, PartialEq)]
pub enum Pattern {
    /// A pattern variable that may bind to any e-class.
    Var(String),
    /// An operator node with sub-patterns as children.
    Node(Op, Vec<Pattern>),
}

impl Pattern {
    /// Parses a pattern from an s-expression, e.g. `"(+ ?a (* ?b ?c))"`.
    ///
    /// Operator tokens are `+ - * / pow sin cos sqrt exp ln neg`; `-` with one argument
    /// is negation and with two is subtraction. Bare numbers and `pi` are constants, and
    /// any other bare token is a *concrete* variable (rarely useful in rules but allowed).
    ///
    /// # Panics
    ///
    /// Panics on malformed pattern text. Patterns are compile-time string literals inside
    /// this crate, so a malformed pattern is a programming error.
    pub fn parse(text: &str) -> Pattern {
        let tokens = tokenize_sexpr(text);
        let mut pos = 0usize;
        let p = parse_pattern(&tokens, &mut pos);
        assert_eq!(pos, tokens.len(), "trailing tokens in pattern '{text}'");
        p
    }

    /// The set of pattern-variable names used by this pattern.
    pub fn variables(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut Vec<String>) {
        match self {
            Pattern::Var(v) => {
                if !out.contains(v) {
                    out.push(v.clone());
                }
            }
            Pattern::Node(_, children) => {
                for c in children {
                    c.collect_vars(out);
                }
            }
        }
    }
}

fn tokenize_sexpr(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    for c in text.chars() {
        match c {
            '(' | ')' => {
                if !current.is_empty() {
                    tokens.push(std::mem::take(&mut current));
                }
                tokens.push(c.to_string());
            }
            c if c.is_whitespace() => {
                if !current.is_empty() {
                    tokens.push(std::mem::take(&mut current));
                }
            }
            c => current.push(c),
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

fn parse_pattern(tokens: &[String], pos: &mut usize) -> Pattern {
    let token = tokens.get(*pos).unwrap_or_else(|| panic!("unexpected end of pattern"));
    if token == "(" {
        *pos += 1;
        let head = tokens[*pos].clone();
        *pos += 1;
        let mut children = Vec::new();
        while tokens[*pos] != ")" {
            children.push(parse_pattern(tokens, pos));
        }
        *pos += 1; // consume ')'
        let op = match (head.as_str(), children.len()) {
            ("+", 2) => Op::Add,
            ("-", 1) | ("neg", 1) => Op::Neg,
            ("-", 2) => Op::Sub,
            ("*", 2) => Op::Mul,
            ("/", 2) => Op::Div,
            ("pow", 2) => Op::Pow,
            ("sin", 1) => Op::Sin,
            ("cos", 1) => Op::Cos,
            ("sqrt", 1) => Op::Sqrt,
            ("exp", 1) => Op::Exp,
            ("ln", 1) => Op::Ln,
            (other, n) => panic!("unknown pattern operator '{other}' with {n} children"),
        };
        Pattern::Node(op, children)
    } else {
        *pos += 1;
        if let Some(rest) = token.strip_prefix('?') {
            Pattern::Var(rest.to_string())
        } else if token == "pi" {
            Pattern::Node(Op::Pi, Vec::new())
        } else if let Ok(v) = token.parse::<f64>() {
            Pattern::Node(Op::constant(v), Vec::new())
        } else {
            Pattern::Node(Op::Var(token.clone()), Vec::new())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_arity_and_constants() {
        assert_eq!(Op::Add.arity(), 2);
        assert_eq!(Op::Sin.arity(), 1);
        assert_eq!(Op::Pi.arity(), 0);
        assert_eq!(Op::constant(2.0).as_const(), Some(2.0));
        assert!((Op::Pi.as_const().unwrap() - std::f64::consts::PI).abs() < 1e-15);
        assert_eq!(Op::Var("x".into()).as_const(), None);
    }

    #[test]
    fn node_display() {
        let n = Node::new(Op::Add, vec![Id(0), Id(1)]);
        assert_eq!(n.to_string(), "(+ e0 e1)");
        assert_eq!(Node::leaf(Op::Pi).to_string(), "pi");
    }

    #[test]
    fn pattern_parsing() {
        let p = Pattern::parse("(+ ?a (* ?b ?c))");
        match &p {
            Pattern::Node(Op::Add, children) => {
                assert!(matches!(children[0], Pattern::Var(ref v) if v == "a"));
                assert!(matches!(children[1], Pattern::Node(Op::Mul, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(p.variables(), vec!["a", "b", "c"]);
    }

    #[test]
    fn pattern_parses_constants_and_unary_minus() {
        let p = Pattern::parse("(* 2 (sin ?x))");
        match p {
            Pattern::Node(Op::Mul, children) => {
                assert!(matches!(children[0], Pattern::Node(Op::Const(_), _)));
            }
            other => panic!("unexpected {other:?}"),
        }
        let p = Pattern::parse("(- ?x)");
        assert!(matches!(p, Pattern::Node(Op::Neg, _)));
        let p = Pattern::parse("(- ?x ?y)");
        assert!(matches!(p, Pattern::Node(Op::Sub, _)));
        let p = Pattern::parse("pi");
        assert!(matches!(p, Pattern::Node(Op::Pi, _)));
    }

    #[test]
    #[should_panic(expected = "unknown pattern operator")]
    fn pattern_rejects_unknown_operator() {
        Pattern::parse("(sinh ?x)");
    }

    #[test]
    fn children_compare_and_hash_their_live_prefix_as_a_vec_does() {
        use std::collections::hash_map::DefaultHasher;
        fn hash_of(value: impl Hash) -> u64 {
            let mut hasher = DefaultHasher::new();
            value.hash(&mut hasher);
            hasher.finish()
        }
        for ids in [vec![], vec![Id(3)], vec![Id(3), Id(4)]] {
            let children: Children = ids.iter().copied().collect();
            assert_eq!(*children, ids[..]);
            assert_eq!(hash_of(children), hash_of(&ids));
        }
        // The slot past the arity takes no part.
        let stale = Children { len: 1, ids: [Id(1), Id(9)] };
        let one: Children = [Id(1)].into_iter().collect();
        assert_eq!(stale, one);
        assert_eq!(hash_of(stale), hash_of(one));
    }

    #[test]
    #[should_panic(expected = "at most two children")]
    fn children_refuse_a_third_id() {
        let _: Children = [Id(0), Id(1), Id(2)].into_iter().collect();
    }

    #[test]
    fn map_children_applies_function() {
        let n = Node::new(Op::Mul, vec![Id(3), Id(4)]);
        let m = n.map_children(|id| Id(id.0 + 10));
        assert_eq!(*m.children, [Id(13), Id(14)]);
    }
}
