//! Compilation of symbolic unitary expressions into flat register programs.
//!
//! This is the "expression JIT pipeline" of Fig. 3 in the paper: the symbolic matrix (and
//! its automatically-derived gradient) is simplified with the e-graph pass and then
//! emitted as a register program with global common-subexpression elimination across all
//! matrix elements and all partial derivatives. Constants are folded into the program,
//! and each distinct subexpression is computed exactly once per call.

use std::collections::HashMap;

use qudit_egraph::simplify::simplify_batch;
use qudit_qgl::{ComplexExpr, Expr, UnitaryExpression};
use qudit_tensor::{Complex, Float, Matrix};

use crate::program::{ExprProgram, Instr, OutputSlot, Reg};

/// Which derivative artifacts to compile alongside the unitary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum DiffMode {
    /// Only the unitary itself.
    #[default]
    None,
    /// The unitary and its gradient (one matrix per parameter).
    Gradient,
}

/// Options controlling expression compilation.
///
/// Every field is part of the [`ExpressionCache`](crate::ExpressionCache) key.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CompileOptions {
    /// Differentiation artifacts to generate.
    pub diff_mode: DiffMode,
    /// Whether to skip the e-graph simplification pass before emission (set to
    /// measure what simplification saves).
    pub skip_simplification: bool,
}

impl CompileOptions {
    /// Options for compiling the unitary together with its gradient.
    pub fn with_gradient() -> Self {
        CompileOptions { diff_mode: DiffMode::Gradient, ..Default::default() }
    }
}

/// A compiled QGL expression: the unitary program and, optionally, a combined
/// unitary+gradient program.
///
/// The gradient program recomputes the unitary as well; in the TNVM's forward-mode
/// sweep both are always needed together, and sharing the program lets every common
/// subexpression between U and ∂U be computed once.
#[derive(Debug, Clone)]
pub struct CompiledExpression {
    name: String,
    params: Vec<String>,
    dim: usize,
    radices: Vec<usize>,
    unitary: ExprProgram,
    gradient: Option<ExprProgram>,
}

impl CompiledExpression {
    /// Compiles a unitary expression with the given options.
    pub fn compile(expr: &UnitaryExpression, options: &CompileOptions) -> Self {
        let dim = expr.dim();
        let params = expr.params().to_vec();

        // Collect the component expressions: unitary first, then each ∂/∂θ in parameter
        // order, all flattened row-major with (re, im) interleaved.
        let mut components: Vec<Expr> = Vec::with_capacity(2 * dim * dim);
        let push_matrix = |mat: &[Vec<ComplexExpr>], components: &mut Vec<Expr>| {
            for row in mat {
                for el in row {
                    components.push(el.re.clone());
                    components.push(el.im.clone());
                }
            }
        };
        push_matrix(expr.elements(), &mut components);
        let unitary_len = components.len();
        if options.diff_mode == DiffMode::Gradient {
            for grad in expr.gradient() {
                push_matrix(&grad, &mut components);
            }
        }

        // Symbolic simplification over the whole batch (so CSE acts across U and ∂U).
        let simplified =
            if options.skip_simplification { components } else { simplify_batch(&components) };

        let unitary_exprs = &simplified[..unitary_len];
        let unitary = emit_program(unitary_exprs, &params);
        let gradient = if options.diff_mode == DiffMode::Gradient {
            Some(emit_program(&simplified, &params))
        } else {
            None
        };

        CompiledExpression {
            name: expr.name().to_string(),
            params,
            dim,
            radices: expr.radices().to_vec(),
            unitary,
            gradient,
        }
    }

    /// The gate name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The matrix dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The qudit radices.
    pub fn radices(&self) -> &[usize] {
        &self.radices
    }

    /// The parameter names in order.
    pub fn params(&self) -> &[String] {
        &self.params
    }

    /// Number of parameters.
    pub fn num_params(&self) -> usize {
        self.params.len()
    }

    /// The compiled unitary program.
    pub fn unitary_program(&self) -> &ExprProgram {
        &self.unitary
    }

    /// The compiled unitary+gradient program, if gradients were requested.
    pub fn gradient_program(&self) -> Option<&ExprProgram> {
        self.gradient.as_ref()
    }

    /// The scratch-register requirement across all compiled programs.
    pub fn scratch_len(&self) -> usize {
        self.unitary.num_regs.max(self.gradient.as_ref().map(|p| p.num_regs).unwrap_or(0))
    }

    /// Evaluates the unitary into a freshly allocated matrix (convenience/test path; the
    /// TNVM drives [`ExprProgram::run`] against its arena directly).
    pub fn evaluate_unitary<T: Float>(&self, params: &[T]) -> Matrix<T> {
        let out = self.unitary.run_alloc(params);
        Matrix::from_vec(self.dim, self.dim, out).expect("compiled output has matrix shape")
    }

    /// Evaluates the unitary and its gradient. Returns `(U, [∂U/∂θ₀, …])`.
    ///
    /// # Panics
    ///
    /// Panics if the expression was compiled without gradients.
    pub fn evaluate_with_gradient<T: Float>(&self, params: &[T]) -> (Matrix<T>, Vec<Matrix<T>>) {
        let program =
            self.gradient.as_ref().expect("expression was compiled without gradient support");
        let out = program.run_alloc(params);
        let n = self.dim * self.dim;
        let unitary = Matrix::from_vec(self.dim, self.dim, out[..n].to_vec())
            .expect("compiled output has matrix shape");
        let grads = (0..self.params.len())
            .map(|k| {
                Matrix::from_vec(self.dim, self.dim, out[(k + 1) * n..(k + 2) * n].to_vec())
                    .expect("compiled output has matrix shape")
            })
            .collect();
        (unitary, grads)
    }
}

/// Emits a register program computing `exprs` (interpreted as interleaved re/im pairs)
/// with global CSE.
///
/// Each distinct subexpression gets one register, found through two memos. The first is
/// keyed on node address: a subtree reached again through the same `Arc` is not walked
/// again, and every input is borrowed until emission ends, so no address is reused. The
/// second value-numbers the node by its [`Value`], its operation with its constant bits
/// or parameter index and its operand registers, so structurally equal subtrees at
/// different addresses share a register without hashing or comparing whole subtrees.
fn emit_program(exprs: &[Expr], params: &[String]) -> ExprProgram {
    let mut emitter =
        Emitter { params, instrs: Vec::new(), by_node: HashMap::new(), by_value: HashMap::new() };
    let regs: Vec<Reg> = exprs.iter().map(|e| emitter.emit(e)).collect();
    let outputs =
        regs.chunks_exact(2).map(|pair| OutputSlot { re: pair[0], im: pair[1] }).collect();
    ExprProgram {
        num_regs: emitter.instrs.len(),
        instrs: emitter.instrs,
        num_params: params.len(),
        outputs,
    }
}

/// The value number of one emitted instruction: the instruction without its
/// destination. `Pi` keeps its own tag, apart from a constant with π's bits.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Value {
    Const(u64),
    Pi,
    Param(u32),
    Neg(Reg),
    Sin(Reg),
    Cos(Reg),
    Sqrt(Reg),
    Exp(Reg),
    Ln(Reg),
    Add(Reg, Reg),
    Sub(Reg, Reg),
    Mul(Reg, Reg),
    Div(Reg, Reg),
    Pow(Reg, Reg),
}

impl Value {
    /// The instruction computing this value into `dst`.
    fn instr(self, dst: Reg) -> Instr {
        match self {
            Value::Const(bits) => Instr::LoadConst { dst, value: f64::from_bits(bits) },
            Value::Pi => Instr::LoadConst { dst, value: std::f64::consts::PI },
            Value::Param(index) => Instr::LoadParam { dst, index },
            Value::Neg(src) => Instr::Neg { dst, src },
            Value::Sin(src) => Instr::Sin { dst, src },
            Value::Cos(src) => Instr::Cos { dst, src },
            Value::Sqrt(src) => Instr::Sqrt { dst, src },
            Value::Exp(src) => Instr::Exp { dst, src },
            Value::Ln(src) => Instr::Ln { dst, src },
            Value::Add(a, b) => Instr::Add { dst, a, b },
            Value::Sub(a, b) => Instr::Sub { dst, a, b },
            Value::Mul(a, b) => Instr::Mul { dst, a, b },
            Value::Div(a, b) => Instr::Div { dst, a, b },
            Value::Pow(a, b) => Instr::Pow { dst, a, b },
        }
    }
}

struct Emitter<'a> {
    params: &'a [String],
    instrs: Vec<Instr>,
    by_node: HashMap<*const Expr, Reg>,
    by_value: HashMap<Value, Reg>,
}

impl<'a> Emitter<'a> {
    fn emit(&mut self, expr: &'a Expr) -> Reg {
        let node: *const Expr = expr;
        if let Some(&reg) = self.by_node.get(&node) {
            return reg;
        }
        let value = match expr {
            Expr::Const(c) => Value::Const(c.to_bits()),
            Expr::Pi => Value::Pi,
            Expr::Var(name) => Value::Param(
                self.params
                    .iter()
                    .position(|p| p == name)
                    .unwrap_or_else(|| panic!("unbound parameter '{name}' during emission"))
                    as u32,
            ),
            Expr::Neg(a) => Value::Neg(self.emit(a)),
            Expr::Sin(a) => Value::Sin(self.emit(a)),
            Expr::Cos(a) => Value::Cos(self.emit(a)),
            Expr::Sqrt(a) => Value::Sqrt(self.emit(a)),
            Expr::Exp(a) => Value::Exp(self.emit(a)),
            Expr::Ln(a) => Value::Ln(self.emit(a)),
            Expr::Add(a, b) => Value::Add(self.emit(a), self.emit(b)),
            Expr::Sub(a, b) => Value::Sub(self.emit(a), self.emit(b)),
            Expr::Mul(a, b) => Value::Mul(self.emit(a), self.emit(b)),
            Expr::Div(a, b) => Value::Div(self.emit(a), self.emit(b)),
            Expr::Pow(a, b) => Value::Pow(self.emit(a), self.emit(b)),
        };
        // Every instruction writes a fresh register, numbered in emission order.
        let instrs = &mut self.instrs;
        let reg = *self.by_value.entry(value).or_insert_with(|| {
            let dst = instrs.len() as Reg;
            instrs.push(value.instr(dst));
            dst
        });
        self.by_node.insert(node, reg);
        reg
    }
}

/// Evaluates a compiled expression into a caller-provided complex buffer. Helper used by
/// the TNVM's WRITE instruction.
pub fn write_unitary_into<T: Float>(
    compiled: &CompiledExpression,
    params: &[T],
    scratch: &mut [T],
    out: &mut [Complex<T>],
) {
    compiled.unitary_program().run(params, scratch, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    const U3_SRC: &str = "U3(a, b, c) {
        [
            [ cos(a/2), ~ e^(i*c) * sin(a/2) ],
            [ e^(i*b) * sin(a/2), e^(i*(b+c)) * cos(a/2) ],
        ]
    }";

    fn u3() -> UnitaryExpression {
        UnitaryExpression::new(U3_SRC).unwrap()
    }

    #[test]
    fn compiled_unitary_matches_tree_walk() {
        let expr = u3();
        let compiled = CompiledExpression::compile(&expr, &CompileOptions::default());
        for p in [[0.1, 0.2, 0.3], [1.4, -0.8, 2.2], [3.0, 0.0, -1.0]] {
            let fast = compiled.evaluate_unitary::<f64>(&p);
            let slow = expr.to_matrix::<f64>(&p).unwrap();
            assert!(fast.max_elementwise_distance(&slow) < 1e-12, "at {p:?}");
        }
    }

    #[test]
    fn compiled_gradient_matches_tree_walk() {
        let expr = u3();
        let compiled = CompiledExpression::compile(&expr, &CompileOptions::with_gradient());
        let p = [0.7, 1.3, -0.4];
        let (unitary, grads) = compiled.evaluate_with_gradient::<f64>(&p);
        let slow_u = expr.to_matrix::<f64>(&p).unwrap();
        let slow_g = expr.gradient_matrices::<f64>(&p).unwrap();
        assert!(unitary.max_elementwise_distance(&slow_u) < 1e-12);
        assert_eq!(grads.len(), 3);
        for (fast, slow) in grads.iter().zip(slow_g.iter()) {
            assert!(fast.max_elementwise_distance(slow) < 1e-12);
        }
    }

    #[test]
    fn cse_keeps_trig_instruction_count_low() {
        let expr = u3();
        let compiled = CompiledExpression::compile(&expr, &CompileOptions::default());
        let trig = compiled
            .unitary_program()
            .instrs
            .iter()
            .filter(|i| matches!(i, Instr::Sin { .. } | Instr::Cos { .. }))
            .count();
        // U3 needs sin(a/2), cos(a/2), sin/cos of b, c (and possibly b+c reused via
        // angle-sum): at most 8 distinct trig evaluations, far fewer than the 12
        // occurrences in the unsimplified element trees.
        assert!(trig <= 8, "got {trig} trig instructions");
        // And no exponential/log should survive Euler expansion.
        assert!(!compiled
            .unitary_program()
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::Exp { .. } | Instr::Ln { .. })));
    }

    #[test]
    fn skipping_simplification_still_correct() {
        let expr = u3();
        let opts = CompileOptions { skip_simplification: true, diff_mode: DiffMode::Gradient };
        let compiled = CompiledExpression::compile(&expr, &opts);
        let p = [0.5, 0.6, 0.7];
        let (unitary, _) = compiled.evaluate_with_gradient::<f64>(&p);
        assert!(unitary.max_elementwise_distance(&expr.to_matrix::<f64>(&p).unwrap()) < 1e-12);
    }

    #[test]
    fn constant_gate_compiles_to_constant_program() {
        let cnot =
            UnitaryExpression::new("CNOT() { [[1,0,0,0],[0,1,0,0],[0,0,0,1],[0,0,1,0]] }").unwrap();
        let compiled = CompiledExpression::compile(&cnot, &CompileOptions::default());
        assert_eq!(compiled.num_params(), 0);
        let m = compiled.evaluate_unitary::<f64>(&[]);
        assert!(m.is_unitary(1e-15));
        // Only constant loads are needed.
        assert!(compiled
            .unitary_program()
            .instrs
            .iter()
            .all(|i| matches!(i, Instr::LoadConst { .. })));
        // 0 and 1 are each loaded exactly once thanks to CSE.
        assert_eq!(compiled.unitary_program().len(), 2);
    }

    #[test]
    fn f32_precision_evaluation() {
        let expr = u3();
        let compiled = CompiledExpression::compile(&expr, &CompileOptions::with_gradient());
        let p32 = [0.3f32, 0.9, -1.1];
        let p64 = [0.3f64, 0.9, -1.1];
        let (u32m, _) = compiled.evaluate_with_gradient::<f32>(&p32);
        let (u64m, _) = compiled.evaluate_with_gradient::<f64>(&p64);
        assert!(u32m.to_f64().max_elementwise_distance(&u64m) < 1e-5);
    }

    #[test]
    fn metadata_accessors() {
        let compiled = CompiledExpression::compile(&u3(), &CompileOptions::with_gradient());
        assert_eq!(compiled.name(), "U3");
        assert_eq!(compiled.dim(), 2);
        assert_eq!(compiled.radices(), &[2]);
        assert_eq!(compiled.params().len(), 3);
        assert!(compiled.scratch_len() >= compiled.unitary_program().num_regs);
        assert!(compiled.gradient_program().is_some());
    }

    #[test]
    #[should_panic(expected = "without gradient")]
    fn gradient_requires_gradient_compilation() {
        let compiled = CompiledExpression::compile(&u3(), &CompileOptions::default());
        compiled.evaluate_with_gradient::<f64>(&[0.1, 0.2, 0.3]);
    }
}
