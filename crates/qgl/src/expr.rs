//! Real-valued symbolic expression trees and complex symbolic elements.
//!
//! After parsing, QGL definitions are lowered into an internal representation consisting
//! of a 2-D array of complex symbolic elements; each element stores *separate* symbolic
//! trees for its real and imaginary parts, with all trigonometric functions
//! canonicalized to `sin`/`cos` (Sec. III-B of the paper). [`Expr`] is the real-valued
//! tree and [`ComplexExpr`] is the pair of trees.
//!
//! The constructors on [`Expr`] perform light local simplification (constant folding,
//! additive/multiplicative identities) so that programmatically composed expressions —
//! particularly gradients — do not balloon before they ever reach the e-graph pass.

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

/// A real-valued symbolic expression.
///
/// Subtrees are reference-counted ([`Arc`]) so that common subexpressions created during
/// composition and differentiation share storage.
#[derive(Debug, Clone)]
pub enum Expr {
    /// A literal constant.
    Const(f64),
    /// The constant π.
    Pi,
    /// A named real parameter (e.g. `θ`).
    Var(String),
    /// Unary negation.
    Neg(Arc<Expr>),
    /// Addition.
    Add(Arc<Expr>, Arc<Expr>),
    /// Subtraction.
    Sub(Arc<Expr>, Arc<Expr>),
    /// Multiplication.
    Mul(Arc<Expr>, Arc<Expr>),
    /// Division.
    Div(Arc<Expr>, Arc<Expr>),
    /// Power with an arbitrary real exponent.
    Pow(Arc<Expr>, Arc<Expr>),
    /// Sine.
    Sin(Arc<Expr>),
    /// Cosine.
    Cos(Arc<Expr>),
    /// Square root.
    Sqrt(Arc<Expr>),
    /// Natural exponential.
    Exp(Arc<Expr>),
    /// Natural logarithm.
    Ln(Arc<Expr>),
}

impl Expr {
    /// The constant zero.
    pub fn zero() -> Expr {
        Expr::Const(0.0)
    }

    /// The constant one.
    pub fn one() -> Expr {
        Expr::Const(1.0)
    }

    /// A literal constant.
    pub fn constant(v: f64) -> Expr {
        Expr::Const(v)
    }

    /// A named variable.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }

    /// Returns `true` if this expression is syntactically the constant zero.
    pub fn is_zero(&self) -> bool {
        matches!(self, Expr::Const(c) if *c == 0.0)
    }

    /// Returns `true` if this expression is syntactically the constant one.
    pub fn is_one(&self) -> bool {
        matches!(self, Expr::Const(c) if *c == 1.0)
    }

    /// Returns the constant value if this node is a literal constant or π.
    pub fn as_const(&self) -> Option<f64> {
        match self {
            Expr::Const(c) => Some(*c),
            Expr::Pi => Some(std::f64::consts::PI),
            _ => None,
        }
    }

    /// Addition with constant folding and identity elimination.
    #[allow(clippy::should_implement_trait)] // constructor-style API, not an operator
    pub fn add(a: Expr, b: Expr) -> Expr {
        match (a.as_const(), b.as_const()) {
            (Some(x), Some(y)) => return Expr::Const(x + y),
            (Some(0.0), None) => return b,
            (None, Some(0.0)) => return a,
            _ => {}
        }
        Expr::Add(Arc::new(a), Arc::new(b))
    }

    /// Subtraction with constant folding and identity elimination.
    #[allow(clippy::should_implement_trait)] // constructor-style API, not an operator
    pub fn sub(a: Expr, b: Expr) -> Expr {
        match (a.as_const(), b.as_const()) {
            (Some(x), Some(y)) => return Expr::Const(x - y),
            (None, Some(0.0)) => return a,
            (Some(0.0), None) => return Expr::neg(b),
            _ => {}
        }
        Expr::Sub(Arc::new(a), Arc::new(b))
    }

    /// Multiplication with constant folding and identity/annihilator elimination.
    #[allow(clippy::should_implement_trait)] // constructor-style API, not an operator
    pub fn mul(a: Expr, b: Expr) -> Expr {
        match (a.as_const(), b.as_const()) {
            (Some(x), Some(y)) => return Expr::Const(x * y),
            (Some(0.0), _) | (_, Some(0.0)) => return Expr::zero(),
            (Some(1.0), None) => return b,
            (None, Some(1.0)) => return a,
            (Some(-1.0), None) => return Expr::neg(b),
            (None, Some(-1.0)) => return Expr::neg(a),
            _ => {}
        }
        Expr::Mul(Arc::new(a), Arc::new(b))
    }

    /// Division with constant folding and identity elimination.
    #[allow(clippy::should_implement_trait)] // constructor-style API, not an operator
    pub fn div(a: Expr, b: Expr) -> Expr {
        match (a.as_const(), b.as_const()) {
            (Some(x), Some(y)) if y != 0.0 => return Expr::Const(x / y),
            (Some(0.0), None) => return Expr::zero(),
            (None, Some(1.0)) => return a,
            _ => {}
        }
        Expr::Div(Arc::new(a), Arc::new(b))
    }

    /// Negation with double-negation and constant folding.
    #[allow(clippy::should_implement_trait)] // constructor-style API, not an operator
    pub fn neg(a: Expr) -> Expr {
        if let Some(c) = a.as_const() {
            return Expr::Const(-c);
        }
        if let Expr::Neg(inner) = &a {
            return inner.as_ref().clone();
        }
        Expr::Neg(Arc::new(a))
    }

    /// Power with folding of the trivial exponents 0 and 1.
    pub fn pow(a: Expr, b: Expr) -> Expr {
        if let Some(e) = b.as_const() {
            if e == 0.0 {
                return Expr::one();
            }
            if e == 1.0 {
                return a;
            }
            if let Some(base) = a.as_const() {
                return Expr::Const(base.powf(e));
            }
        }
        Expr::Pow(Arc::new(a), Arc::new(b))
    }

    /// Sine with constant folding.
    pub fn sin(a: Expr) -> Expr {
        if let Some(c) = a.as_const() {
            return Expr::Const(c.sin());
        }
        Expr::Sin(Arc::new(a))
    }

    /// Cosine with constant folding.
    pub fn cos(a: Expr) -> Expr {
        if let Some(c) = a.as_const() {
            return Expr::Const(c.cos());
        }
        Expr::Cos(Arc::new(a))
    }

    /// Square root with constant folding.
    pub fn sqrt(a: Expr) -> Expr {
        if let Some(c) = a.as_const() {
            if c >= 0.0 {
                return Expr::Const(c.sqrt());
            }
        }
        Expr::Sqrt(Arc::new(a))
    }

    /// Natural exponential with constant folding of `exp(0) = 1`.
    pub fn exp(a: Expr) -> Expr {
        if let Some(c) = a.as_const() {
            if c == 0.0 {
                return Expr::one();
            }
            return Expr::Const(c.exp());
        }
        Expr::Exp(Arc::new(a))
    }

    /// Natural logarithm with constant folding.
    pub fn ln(a: Expr) -> Expr {
        if let Some(c) = a.as_const() {
            if c > 0.0 {
                return Expr::Const(c.ln());
            }
        }
        Expr::Ln(Arc::new(a))
    }

    /// Evaluates the expression given a mapping from variable name to value.
    ///
    /// Unknown variables evaluate to `f64::NAN`, which makes accidental unbound
    /// parameters loud in tests.
    pub fn eval(&self, lookup: &dyn Fn(&str) -> Option<f64>) -> f64 {
        match self {
            Expr::Const(c) => *c,
            Expr::Pi => std::f64::consts::PI,
            Expr::Var(name) => lookup(name).unwrap_or(f64::NAN),
            Expr::Neg(a) => -a.eval(lookup),
            Expr::Add(a, b) => a.eval(lookup) + b.eval(lookup),
            Expr::Sub(a, b) => a.eval(lookup) - b.eval(lookup),
            Expr::Mul(a, b) => a.eval(lookup) * b.eval(lookup),
            Expr::Div(a, b) => a.eval(lookup) / b.eval(lookup),
            Expr::Pow(a, b) => a.eval(lookup).powf(b.eval(lookup)),
            Expr::Sin(a) => a.eval(lookup).sin(),
            Expr::Cos(a) => a.eval(lookup).cos(),
            Expr::Sqrt(a) => a.eval(lookup).sqrt(),
            Expr::Exp(a) => a.eval(lookup).exp(),
            Expr::Ln(a) => a.eval(lookup).ln(),
        }
    }

    /// Evaluates using an ordered parameter list (`names[i]` ↦ `values[i]`).
    pub fn eval_with(&self, names: &[String], values: &[f64]) -> f64 {
        self.eval(&|n| names.iter().position(|p| p == n).map(|i| values[i]))
    }

    /// Collects the free variables of the expression in sorted order.
    pub fn variables(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_variables(&mut out);
        out
    }

    fn collect_variables(&self, out: &mut BTreeSet<String>) {
        match self {
            Expr::Const(_) | Expr::Pi => {}
            Expr::Var(name) => {
                out.insert(name.clone());
            }
            Expr::Neg(a)
            | Expr::Sin(a)
            | Expr::Cos(a)
            | Expr::Sqrt(a)
            | Expr::Exp(a)
            | Expr::Ln(a) => a.collect_variables(out),
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b)
            | Expr::Pow(a, b) => {
                a.collect_variables(out);
                b.collect_variables(out);
            }
        }
    }

    /// Returns `true` if the expression references `name`.
    pub fn depends_on(&self, name: &str) -> bool {
        match self {
            Expr::Const(_) | Expr::Pi => false,
            Expr::Var(n) => n == name,
            Expr::Neg(a)
            | Expr::Sin(a)
            | Expr::Cos(a)
            | Expr::Sqrt(a)
            | Expr::Exp(a)
            | Expr::Ln(a) => a.depends_on(name),
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b)
            | Expr::Pow(a, b) => a.depends_on(name) || b.depends_on(name),
        }
    }

    /// Substitutes every occurrence of variable `name` with `replacement`.
    pub fn substitute(&self, name: &str, replacement: &Expr) -> Expr {
        match self {
            Expr::Const(_) | Expr::Pi => self.clone(),
            Expr::Var(n) => {
                if n == name {
                    replacement.clone()
                } else {
                    self.clone()
                }
            }
            Expr::Neg(a) => Expr::neg(a.substitute(name, replacement)),
            Expr::Add(a, b) => {
                Expr::add(a.substitute(name, replacement), b.substitute(name, replacement))
            }
            Expr::Sub(a, b) => {
                Expr::sub(a.substitute(name, replacement), b.substitute(name, replacement))
            }
            Expr::Mul(a, b) => {
                Expr::mul(a.substitute(name, replacement), b.substitute(name, replacement))
            }
            Expr::Div(a, b) => {
                Expr::div(a.substitute(name, replacement), b.substitute(name, replacement))
            }
            Expr::Pow(a, b) => {
                Expr::pow(a.substitute(name, replacement), b.substitute(name, replacement))
            }
            Expr::Sin(a) => Expr::sin(a.substitute(name, replacement)),
            Expr::Cos(a) => Expr::cos(a.substitute(name, replacement)),
            Expr::Sqrt(a) => Expr::sqrt(a.substitute(name, replacement)),
            Expr::Exp(a) => Expr::exp(a.substitute(name, replacement)),
            Expr::Ln(a) => Expr::ln(a.substitute(name, replacement)),
        }
    }

    /// Renames a variable (a substitution by another variable).
    pub fn rename(&self, from: &str, to: &str) -> Expr {
        self.substitute(from, &Expr::var(to))
    }

    /// Number of nodes in the expression tree.
    pub fn node_count(&self) -> usize {
        match self {
            Expr::Const(_) | Expr::Pi | Expr::Var(_) => 1,
            Expr::Neg(a)
            | Expr::Sin(a)
            | Expr::Cos(a)
            | Expr::Sqrt(a)
            | Expr::Exp(a)
            | Expr::Ln(a) => 1 + a.node_count(),
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b)
            | Expr::Pow(a, b) => 1 + a.node_count() + b.node_count(),
        }
    }

    /// Number of trigonometric (`sin`/`cos`) nodes — the dominant cost in the paper's
    /// extraction cost model (Table I).
    pub fn trig_count(&self) -> usize {
        match self {
            Expr::Const(_) | Expr::Pi | Expr::Var(_) => 0,
            Expr::Sin(a) | Expr::Cos(a) => 1 + a.trig_count(),
            Expr::Neg(a) | Expr::Sqrt(a) | Expr::Exp(a) | Expr::Ln(a) => a.trig_count(),
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b)
            | Expr::Pow(a, b) => a.trig_count() + b.trig_count(),
        }
    }
}

impl PartialEq for Expr {
    fn eq(&self, other: &Self) -> bool {
        use Expr::*;
        match (self, other) {
            (Const(a), Const(b)) => a.to_bits() == b.to_bits(),
            (Pi, Pi) => true,
            (Var(a), Var(b)) => a == b,
            (Neg(a), Neg(b))
            | (Sin(a), Sin(b))
            | (Cos(a), Cos(b))
            | (Sqrt(a), Sqrt(b))
            | (Exp(a), Exp(b))
            | (Ln(a), Ln(b)) => a == b,
            (Add(a1, a2), Add(b1, b2))
            | (Sub(a1, a2), Sub(b1, b2))
            | (Mul(a1, a2), Mul(b1, b2))
            | (Div(a1, a2), Div(b1, b2))
            | (Pow(a1, a2), Pow(b1, b2)) => a1 == b1 && a2 == b2,
            _ => false,
        }
    }
}

impl Eq for Expr {}

impl Hash for Expr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Expr::Const(c) => c.to_bits().hash(state),
            Expr::Pi => {}
            Expr::Var(name) => name.hash(state),
            Expr::Neg(a)
            | Expr::Sin(a)
            | Expr::Cos(a)
            | Expr::Sqrt(a)
            | Expr::Exp(a)
            | Expr::Ln(a) => a.hash(state),
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b)
            | Expr::Pow(a, b) => {
                a.hash(state);
                b.hash(state);
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(c) => write!(f, "{c}"),
            Expr::Pi => write!(f, "pi"),
            Expr::Var(name) => write!(f, "{name}"),
            Expr::Neg(a) => write!(f, "(- {a})"),
            Expr::Add(a, b) => write!(f, "(+ {a} {b})"),
            Expr::Sub(a, b) => write!(f, "(- {a} {b})"),
            Expr::Mul(a, b) => write!(f, "(* {a} {b})"),
            Expr::Div(a, b) => write!(f, "(/ {a} {b})"),
            Expr::Pow(a, b) => write!(f, "(pow {a} {b})"),
            Expr::Sin(a) => write!(f, "(sin {a})"),
            Expr::Cos(a) => write!(f, "(cos {a})"),
            Expr::Sqrt(a) => write!(f, "(sqrt {a})"),
            Expr::Exp(a) => write!(f, "(exp {a})"),
            Expr::Ln(a) => write!(f, "(ln {a})"),
        }
    }
}

/// A map keyed by the address of an [`Expr`] node: the memo of a walk over `Arc`-shared
/// trees that visits each shared subtree once.
pub type AddrMap<V> = HashMap<*const Expr, V, BuildHasherDefault<AddrHasher>>;

/// The hasher of [`AddrMap`]: one multiply that spreads an address's bits, in place of
/// SipHash. Addresses come from the allocator, not from input, so no caller can craft
/// keys that collide.
#[derive(Debug, Default)]
pub struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_usize(&mut self, addr: usize) {
        self.0 = addr as u64;
    }

    fn finish(&self) -> u64 {
        // Fibonacci hashing: the product's high bits depend on every address bit.
        // Folding them down fills the low bits that pick the bucket, which alignment
        // leaves zero in the address itself.
        let h = self.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^ (h >> 32)
    }
}

/// A complex-valued symbolic element: separate real and imaginary [`Expr`] trees.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ComplexExpr {
    /// Real part.
    pub re: Expr,
    /// Imaginary part.
    pub im: Expr,
}

impl ComplexExpr {
    /// Creates a complex symbolic element from its parts.
    pub fn new(re: Expr, im: Expr) -> Self {
        ComplexExpr { re, im }
    }

    /// The additive identity.
    pub fn zero() -> Self {
        ComplexExpr { re: Expr::zero(), im: Expr::zero() }
    }

    /// The multiplicative identity.
    pub fn one() -> Self {
        ComplexExpr { re: Expr::one(), im: Expr::zero() }
    }

    /// The imaginary unit.
    pub fn i() -> Self {
        ComplexExpr { re: Expr::zero(), im: Expr::one() }
    }

    /// A purely real element from a constant.
    pub fn from_const(v: f64) -> Self {
        ComplexExpr { re: Expr::constant(v), im: Expr::zero() }
    }

    /// A purely real element from a real expression.
    pub fn from_real(re: Expr) -> Self {
        ComplexExpr { re, im: Expr::zero() }
    }

    /// Returns `true` if both parts are syntactically zero.
    pub fn is_zero(&self) -> bool {
        self.re.is_zero() && self.im.is_zero()
    }

    /// Returns `true` if this is syntactically the constant one.
    pub fn is_one(&self) -> bool {
        self.re.is_one() && self.im.is_zero()
    }

    /// Returns `true` if the element contains no free variables.
    pub fn is_constant(&self) -> bool {
        self.re.variables().is_empty() && self.im.variables().is_empty()
    }

    /// Complex addition.
    pub fn add(&self, other: &ComplexExpr) -> ComplexExpr {
        ComplexExpr {
            re: Expr::add(self.re.clone(), other.re.clone()),
            im: Expr::add(self.im.clone(), other.im.clone()),
        }
    }

    /// Complex subtraction.
    pub fn sub(&self, other: &ComplexExpr) -> ComplexExpr {
        ComplexExpr {
            re: Expr::sub(self.re.clone(), other.re.clone()),
            im: Expr::sub(self.im.clone(), other.im.clone()),
        }
    }

    /// Complex multiplication `(a+bi)(c+di) = (ac-bd) + (ad+bc)i`.
    pub fn mul(&self, other: &ComplexExpr) -> ComplexExpr {
        ComplexExpr {
            re: Expr::sub(
                Expr::mul(self.re.clone(), other.re.clone()),
                Expr::mul(self.im.clone(), other.im.clone()),
            ),
            im: Expr::add(
                Expr::mul(self.re.clone(), other.im.clone()),
                Expr::mul(self.im.clone(), other.re.clone()),
            ),
        }
    }

    /// Complex division.
    pub fn div(&self, other: &ComplexExpr) -> ComplexExpr {
        // (a+bi)/(c+di) = [(ac+bd) + (bc-ad)i] / (c²+d²)
        let denom = Expr::add(
            Expr::mul(other.re.clone(), other.re.clone()),
            Expr::mul(other.im.clone(), other.im.clone()),
        );
        ComplexExpr {
            re: Expr::div(
                Expr::add(
                    Expr::mul(self.re.clone(), other.re.clone()),
                    Expr::mul(self.im.clone(), other.im.clone()),
                ),
                denom.clone(),
            ),
            im: Expr::div(
                Expr::sub(
                    Expr::mul(self.im.clone(), other.re.clone()),
                    Expr::mul(self.re.clone(), other.im.clone()),
                ),
                denom,
            ),
        }
    }

    /// Negation.
    pub fn neg(&self) -> ComplexExpr {
        ComplexExpr { re: Expr::neg(self.re.clone()), im: Expr::neg(self.im.clone()) }
    }

    /// Complex conjugate.
    pub fn conj(&self) -> ComplexExpr {
        ComplexExpr { re: self.re.clone(), im: Expr::neg(self.im.clone()) }
    }

    /// Complex exponential of a symbolic element:
    /// `exp(a + bi) = e^a (cos b + i sin b)`.
    pub fn exp(&self) -> ComplexExpr {
        if self.re.is_zero() {
            // Pure phase: e^{ib} = cos b + i sin b (Euler), avoiding a spurious e^0.
            return ComplexExpr { re: Expr::cos(self.im.clone()), im: Expr::sin(self.im.clone()) };
        }
        let mag = Expr::exp(self.re.clone());
        ComplexExpr {
            re: Expr::mul(mag.clone(), Expr::cos(self.im.clone())),
            im: Expr::mul(mag, Expr::sin(self.im.clone())),
        }
    }

    /// Evaluates both parts with an ordered parameter list.
    pub fn eval_with(&self, names: &[String], values: &[f64]) -> (f64, f64) {
        (self.re.eval_with(names, values), self.im.eval_with(names, values))
    }

    /// Substitutes a variable in both parts.
    pub fn substitute(&self, name: &str, replacement: &Expr) -> ComplexExpr {
        ComplexExpr {
            re: self.re.substitute(name, replacement),
            im: self.im.substitute(name, replacement),
        }
    }

    /// Free variables of both parts.
    pub fn variables(&self) -> BTreeSet<String> {
        let mut v = self.re.variables();
        v.extend(self.im.variables());
        v
    }

    /// Total node count of both parts.
    pub fn node_count(&self) -> usize {
        self.re.node_count() + self.im.node_count()
    }
}

impl fmt::Display for ComplexExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}) + i({})", self.re, self.im)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Expr {
        Expr::var("t")
    }

    #[test]
    fn constant_folding_in_constructors() {
        assert_eq!(Expr::add(Expr::constant(2.0), Expr::constant(3.0)), Expr::Const(5.0));
        assert_eq!(Expr::mul(Expr::constant(2.0), Expr::constant(3.0)), Expr::Const(6.0));
        assert_eq!(Expr::mul(Expr::zero(), t()), Expr::Const(0.0));
        assert_eq!(Expr::mul(Expr::one(), t()), t());
        assert_eq!(Expr::add(t(), Expr::zero()), t());
        assert_eq!(Expr::sub(t(), Expr::zero()), t());
        assert_eq!(Expr::div(t(), Expr::one()), t());
        assert_eq!(Expr::pow(t(), Expr::zero()), Expr::one());
        assert_eq!(Expr::pow(t(), Expr::one()), t());
        assert_eq!(Expr::neg(Expr::neg(t())), t());
        assert_eq!(Expr::exp(Expr::zero()), Expr::one());
    }

    #[test]
    fn eval_matches_rust_math() {
        let e = Expr::add(
            Expr::mul(Expr::sin(t()), Expr::sin(t())),
            Expr::mul(Expr::cos(t()), Expr::cos(t())),
        );
        let v = e.eval_with(&["t".to_string()], &[0.37]);
        assert!((v - 1.0).abs() < 1e-14);

        let e2 = Expr::pow(Expr::var("x"), Expr::constant(3.0));
        assert!((e2.eval_with(&["x".to_string()], &[2.0]) - 8.0).abs() < 1e-14);

        let e3 = Expr::div(Expr::Pi, Expr::constant(2.0));
        assert!((e3.eval(&|_| None) - std::f64::consts::FRAC_PI_2).abs() < 1e-14);
    }

    #[test]
    fn unknown_variable_is_nan() {
        assert!(Expr::var("missing").eval(&|_| None).is_nan());
    }

    #[test]
    fn variables_and_depends_on() {
        let e = Expr::mul(Expr::sin(Expr::var("a")), Expr::add(Expr::var("b"), Expr::Pi));
        let vars: Vec<String> = e.variables().into_iter().collect();
        assert_eq!(vars, vec!["a".to_string(), "b".to_string()]);
        assert!(e.depends_on("a"));
        assert!(!e.depends_on("c"));
    }

    #[test]
    fn substitution() {
        let e = Expr::sin(Expr::var("x"));
        let s = e.substitute("x", &Expr::div(Expr::var("y"), Expr::constant(2.0)));
        assert_eq!(s, Expr::sin(Expr::div(Expr::var("y"), Expr::constant(2.0))));
        let r = e.rename("x", "z");
        assert!(r.depends_on("z") && !r.depends_on("x"));
    }

    #[test]
    fn node_and_trig_counts() {
        let e = Expr::mul(Expr::sin(t()), Expr::cos(t()));
        assert_eq!(e.trig_count(), 2);
        assert_eq!(e.node_count(), 5);
    }

    #[test]
    fn display_is_sexpr() {
        let e = Expr::add(Expr::sin(t()), Expr::constant(1.0));
        assert_eq!(e.to_string(), "(+ (sin t) 1)");
    }

    #[test]
    fn hash_eq_consistency() {
        use std::collections::HashSet;
        let a = Expr::mul(Expr::sin(t()), Expr::cos(t()));
        let b = Expr::mul(Expr::sin(t()), Expr::cos(t()));
        assert_eq!(a, b);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn complex_mul_matches_numeric() {
        let a = ComplexExpr::new(Expr::var("x"), Expr::constant(1.0));
        let b = ComplexExpr::new(Expr::constant(2.0), Expr::var("y"));
        let prod = a.mul(&b);
        let names = vec!["x".to_string(), "y".to_string()];
        let (re, im) = prod.eval_with(&names, &[3.0, 4.0]);
        // (3+i)(2+4i) = 6+12i+2i-4 = 2 + 14i
        assert!((re - 2.0).abs() < 1e-14);
        assert!((im - 14.0).abs() < 1e-14);
    }

    #[test]
    fn complex_div_matches_numeric() {
        let a = ComplexExpr::from_const(1.0);
        let b = ComplexExpr::new(Expr::constant(0.0), Expr::constant(1.0));
        let q = a.div(&b); // 1/i = -i
        let (re, im) = q.eval_with(&[], &[]);
        assert!((re - 0.0).abs() < 1e-14);
        assert!((im + 1.0).abs() < 1e-14);
    }

    #[test]
    fn complex_exp_is_euler_for_pure_imaginary() {
        let theta = Expr::var("t");
        let z = ComplexExpr::new(Expr::zero(), theta);
        let e = z.exp();
        assert_eq!(e.re, Expr::cos(Expr::var("t")));
        assert_eq!(e.im, Expr::sin(Expr::var("t")));
        // And no `exp` node should appear for the pure-phase case.
        assert!(!e.re.to_string().contains("exp"));
    }

    #[test]
    fn complex_exp_general() {
        let z = ComplexExpr::new(Expr::var("a"), Expr::var("b"));
        let e = z.exp();
        let names = vec!["a".to_string(), "b".to_string()];
        let (re, im) = e.eval_with(&names, &[0.5, 1.2]);
        let expected = (0.5f64).exp();
        assert!((re - expected * 1.2f64.cos()).abs() < 1e-12);
        assert!((im - expected * 1.2f64.sin()).abs() < 1e-12);
    }

    #[test]
    fn complex_helpers() {
        assert!(ComplexExpr::zero().is_zero());
        assert!(ComplexExpr::one().is_one());
        assert!(ComplexExpr::from_const(2.5).is_constant());
        assert!(!ComplexExpr::new(Expr::var("x"), Expr::zero()).is_constant());
        let conj = ComplexExpr::i().conj();
        let (re, im) = conj.eval_with(&[], &[]);
        assert_eq!((re, im), (0.0, -1.0));
    }
}
