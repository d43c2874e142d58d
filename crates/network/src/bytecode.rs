//! The TNVM bytecode (Table II of the paper) and its generation from a contraction tree.
//!
//! The ahead-of-time compiler serializes the contraction tree into a two-section bytecode:
//! a *constant* section executed once at TNVM initialization (sub-trees with no parameter
//! dependence) and a *dynamic* section executed on every evaluation. Instructions operate
//! on abstract, labeled buffers; each instruction is annotated with the set of circuit
//! parameters its output depends on so the TNVM can specialize it for forward-mode
//! differentiation.

use std::collections::HashMap;

use qudit_qgl::{transform, ComplexExpr, ExprKey, UnitaryExpression};

use crate::network::{GateNode, ParamBinding, TensorNetwork};
use crate::path::{find_plan, ContractionTree};

/// An abstract buffer label.
pub type BufId = usize;

/// Names one instruction of a two-section program: the section it lives in and its
/// index within that section. Every [`BytecodeError`] that concerns an instruction
/// carries one, so a rejected program pinpoints the offending instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstrRef {
    /// `true` for the constant (init-time) section, `false` for the dynamic section.
    pub constant: bool,
    /// Index within the section.
    pub index: usize,
}

impl InstrRef {
    /// A reference into the constant section.
    pub fn constant(index: usize) -> InstrRef {
        InstrRef { constant: true, index }
    }

    /// A reference into the dynamic section.
    pub fn dynamic(index: usize) -> InstrRef {
        InstrRef { constant: false, index }
    }
}

impl std::fmt::Display for InstrRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let section = if self.constant { "constant" } else { "dynamic" };
        write!(f, "{section}[{}]", self.index)
    }
}

/// Typed errors for malformed TNVM bytecode.
///
/// Produced by [`TnvmProgram::validate`] and the fallible compilation entry point
/// [`try_compile_network`]; surfaced through `qudit_compile::error::CompileError` when
/// the pipeline's verifier rejects a program. Each instruction-level variant names the
/// offending instruction via [`InstrRef`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BytecodeError {
    /// An instruction references a buffer outside the buffer table.
    BufferOutOfRange {
        /// The offending instruction.
        at: InstrRef,
        /// The out-of-range buffer label.
        buf: BufId,
    },
    /// An instruction reads a buffer before any instruction wrote it.
    UseBeforeWrite {
        /// The offending instruction.
        at: InstrRef,
        /// The buffer read too early.
        buf: BufId,
    },
    /// Two instructions write the same buffer (the bytecode is single-assignment).
    DoubleWrite {
        /// The second writer.
        at: InstrRef,
        /// The buffer written twice.
        buf: BufId,
    },
    /// The program's output buffer is never written.
    OutputNeverWritten {
        /// The declared output buffer.
        output: BufId,
    },
    /// Codegen could not build an identity-padding expression (an internal
    /// inconsistency in the network's radices).
    InvalidIdentity {
        /// What went wrong.
        detail: String,
    },
    /// Codegen asked to reorder a value onto a support that does not contain one of
    /// its qudits (an internal contraction-tree inconsistency).
    SupportMismatch {
        /// The qudit missing from the target support.
        qudit: usize,
    },
}

impl std::fmt::Display for BytecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BytecodeError::BufferOutOfRange { at, buf } => {
                write!(f, "instruction {at} references out-of-range buffer {buf}")
            }
            BytecodeError::UseBeforeWrite { at, buf } => {
                write!(f, "instruction {at} reads buffer {buf} before it is written")
            }
            BytecodeError::DoubleWrite { at, buf } => {
                write!(f, "instruction {at} writes buffer {buf} more than once")
            }
            BytecodeError::OutputNeverWritten { output } => {
                write!(f, "output buffer {output} is never written")
            }
            BytecodeError::InvalidIdentity { detail } => {
                write!(f, "could not build identity-padding expression: {detail}")
            }
            BytecodeError::SupportMismatch { qudit } => {
                write!(f, "expansion target omits qudit {qudit} of the current support")
            }
        }
    }
}

impl std::error::Error for BytecodeError {}

/// A TNVM bytecode instruction (Table II).
#[derive(Debug, Clone, PartialEq)]
pub enum TnvmOp {
    /// Evaluates a compiled QGL expression, writing the resulting matrix to `out`.
    Write {
        /// Index into the program's expression table.
        expr_index: usize,
        /// How each of the expression's parameters binds to circuit parameters.
        bindings: Vec<ParamBinding>,
        /// Destination buffer.
        out: BufId,
    },
    /// Matrix multiplication `out = a · b`.
    Matmul {
        /// Left operand buffer.
        a: BufId,
        /// Right operand buffer.
        b: BufId,
        /// Destination buffer.
        out: BufId,
    },
    /// Kronecker product `out = a ⊗ b`.
    Kron {
        /// Left operand buffer.
        a: BufId,
        /// Right operand buffer.
        b: BufId,
        /// Destination buffer.
        out: BufId,
    },
    /// Element-wise (Hadamard) product `out = a ∘ b`.
    Hadamard {
        /// Left operand buffer.
        a: BufId,
        /// Right operand buffer.
        b: BufId,
        /// Destination buffer.
        out: BufId,
    },
    /// Fused reshape–permute–reshape: reinterprets `input` with `shape`, permutes the
    /// axes by `perm`, and reshapes back to a matrix in `out`.
    Transpose {
        /// Source buffer.
        input: BufId,
        /// Full multi-index shape of the source (row axes followed by column axes).
        shape: Vec<usize>,
        /// Axis permutation.
        perm: Vec<usize>,
        /// Destination buffer.
        out: BufId,
    },
}

impl TnvmOp {
    /// The destination buffer of this instruction.
    pub fn out(&self) -> BufId {
        match self {
            TnvmOp::Write { out, .. }
            | TnvmOp::Matmul { out, .. }
            | TnvmOp::Kron { out, .. }
            | TnvmOp::Hadamard { out, .. }
            | TnvmOp::Transpose { out, .. } => *out,
        }
    }

    /// The input buffers of this instruction.
    pub fn inputs(&self) -> Vec<BufId> {
        match self {
            TnvmOp::Write { .. } => vec![],
            TnvmOp::Matmul { a, b, .. }
            | TnvmOp::Kron { a, b, .. }
            | TnvmOp::Hadamard { a, b, .. } => vec![*a, *b],
            TnvmOp::Transpose { input, .. } => vec![*input],
        }
    }
}

/// Shape and dependence metadata for a buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferInfo {
    /// Number of matrix rows.
    pub rows: usize,
    /// Number of matrix columns.
    pub cols: usize,
    /// The circuit parameters the buffer depends on (sorted, deduplicated).
    pub params: Vec<usize>,
}

impl BufferInfo {
    /// Number of complex elements the buffer holds.
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// `true` if the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The compiled bytecode program for one parameterized quantum circuit.
#[derive(Debug, Clone)]
pub struct TnvmProgram {
    /// Unique expressions referenced by WRITE instructions (gate definitions plus any
    /// identity-padding and fusion-generated expressions).
    pub exprs: Vec<UnitaryExpression>,
    /// Buffer metadata, indexed by [`BufId`].
    pub buffers: Vec<BufferInfo>,
    /// Instructions executed once at TNVM initialization.
    pub constant_ops: Vec<TnvmOp>,
    /// Instructions executed on every evaluation call.
    pub dynamic_ops: Vec<TnvmOp>,
    /// The buffer holding the circuit unitary after execution.
    pub output: BufId,
    /// Number of circuit parameters.
    pub num_params: usize,
    /// The circuit's qudit radices.
    pub radices: Vec<usize>,
    /// Number of TRANSPOSE instructions eliminated by fusing them into leaf expressions.
    pub fused_transposes: usize,
}

impl TnvmProgram {
    /// The Hilbert-space dimension of the circuit.
    pub fn dim(&self) -> usize {
        self.radices.iter().product()
    }

    /// Number of complex elements in the value arena the TNVM allocates (excluding
    /// gradient storage): the sum of all buffer lengths.
    pub fn arena_elements(&self) -> usize {
        self.buffers.iter().map(BufferInfo::len).sum()
    }

    /// Total instruction count across both sections.
    pub fn len(&self) -> usize {
        self.constant_ops.len() + self.dynamic_ops.len()
    }

    /// `true` if the program contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Checks structural invariants: every instruction writes to a distinct buffer, reads
    /// only buffers written earlier (constant section first), and the output buffer is
    /// written.
    ///
    /// This is the *dataflow* check only — the full per-instruction shape/arity/radix
    /// typing lives in the `qudit-analyze` crate's program verifier, which builds on
    /// this one.
    ///
    /// # Errors
    ///
    /// Returns the first [`BytecodeError`] violated, naming the offending instruction.
    pub fn validate(&self) -> Result<(), BytecodeError> {
        if self.output >= self.buffers.len() {
            return Err(BytecodeError::OutputNeverWritten { output: self.output });
        }
        let mut written = vec![false; self.buffers.len()];
        let sections = [(true, &self.constant_ops), (false, &self.dynamic_ops)];
        for (constant, ops) in sections {
            for (index, op) in ops.iter().enumerate() {
                let at = InstrRef { constant, index };
                for input in op.inputs() {
                    if input >= self.buffers.len() {
                        return Err(BytecodeError::BufferOutOfRange { at, buf: input });
                    }
                    if !written[input] {
                        return Err(BytecodeError::UseBeforeWrite { at, buf: input });
                    }
                }
                let out = op.out();
                if out >= self.buffers.len() {
                    return Err(BytecodeError::BufferOutOfRange { at, buf: out });
                }
                if written[out] {
                    return Err(BytecodeError::DoubleWrite { at, buf: out });
                }
                written[out] = true;
            }
        }
        if !written[self.output] {
            return Err(BytecodeError::OutputNeverWritten { output: self.output });
        }
        Ok(())
    }
}

/// Compiles a tensor network into bytecode using the default contraction-plan strategy.
///
/// Codegen output over a well-formed [`TensorNetwork`] is valid by construction, so
/// this infallible wrapper suits the hot paths (frontier workers, instantiation). Use
/// [`try_compile_network`] when compiling untrusted or externally supplied structures
/// and a typed rejection is preferable to a panic.
///
/// # Panics
///
/// Panics if codegen produces malformed bytecode (an internal compiler bug).
pub fn compile_network(network: &TensorNetwork) -> TnvmProgram {
    try_compile_network(network).expect("contraction-tree codegen emits well-formed bytecode")
}

/// Fallible [`compile_network`]: compiles a tensor network into bytecode, returning a
/// typed [`BytecodeError`] instead of panicking when codegen encounters an internal
/// inconsistency or emits a program that fails [`TnvmProgram::validate`].
///
/// # Errors
///
/// Returns the first [`BytecodeError`] encountered during emission or validation.
pub fn try_compile_network(network: &TensorNetwork) -> Result<TnvmProgram, BytecodeError> {
    let plan = find_plan(network);
    let mut gen = Codegen::new(network);
    let root = plan.tree.as_ref().map(|t| gen.emit(t)).transpose()?;
    let output = gen.finish(root)?;
    let mut program = TnvmProgram {
        exprs: gen.exprs,
        buffers: gen.buffers,
        constant_ops: gen.constant_ops,
        dynamic_ops: gen.dynamic_ops,
        output,
        num_params: network.num_params(),
        radices: network.radices().to_vec(),
        fused_transposes: 0,
    };
    fuse_leaf_transposes(&mut program);
    program.validate()?;
    Ok(program)
}

/// A value produced during code generation: its buffer, axis order, and constness.
struct Emitted {
    buf: BufId,
    qudits: Vec<usize>,
    constant: bool,
}

struct Codegen<'a> {
    network: &'a TensorNetwork,
    exprs: Vec<UnitaryExpression>,
    expr_index: HashMap<ExprKey, usize>,
    buffers: Vec<BufferInfo>,
    constant_ops: Vec<TnvmOp>,
    dynamic_ops: Vec<TnvmOp>,
}

impl<'a> Codegen<'a> {
    fn new(network: &'a TensorNetwork) -> Self {
        Codegen {
            network,
            exprs: Vec::new(),
            expr_index: HashMap::new(),
            buffers: Vec::new(),
            constant_ops: Vec::new(),
            dynamic_ops: Vec::new(),
        }
    }

    fn intern_expr(&mut self, expr: &UnitaryExpression) -> usize {
        if let Some(&idx) = self.expr_index.get(expr.canonical_key()) {
            return idx;
        }
        self.exprs.push(expr.clone());
        let idx = self.exprs.len() - 1;
        self.expr_index.insert(expr.canonical_key().clone(), idx);
        idx
    }

    fn new_buffer(&mut self, rows: usize, cols: usize, params: Vec<usize>) -> BufId {
        self.buffers.push(BufferInfo { rows, cols, params });
        self.buffers.len() - 1
    }

    fn push_op(&mut self, op: TnvmOp, constant: bool) {
        if constant {
            self.constant_ops.push(op);
        } else {
            self.dynamic_ops.push(op);
        }
    }

    fn identity_expr(&mut self, qudits: &[usize]) -> Result<usize, BytecodeError> {
        let radices: Vec<usize> = qudits.iter().map(|&q| self.network.radices()[q]).collect();
        let dim: usize = radices.iter().product();
        let elements: Vec<Vec<ComplexExpr>> = (0..dim)
            .map(|r| {
                (0..dim)
                    .map(|c| if r == c { ComplexExpr::one() } else { ComplexExpr::zero() })
                    .collect()
            })
            .collect();
        let expr =
            UnitaryExpression::from_elements(format!("I{dim}"), radices, Vec::new(), elements)
                .map_err(|e| BytecodeError::InvalidIdentity { detail: e.to_string() })?;
        Ok(self.intern_expr(&expr))
    }

    fn emit_leaf(&mut self, node: &GateNode) -> Emitted {
        let expr = &self.network.expressions()[node.expr_index];
        let expr_index = self.intern_expr(expr);
        let dim = self.network.dim_of(&node.qudits);
        let params = node.circuit_params();
        let constant = params.is_empty();
        let out = self.new_buffer(dim, dim, params);
        self.push_op(TnvmOp::Write { expr_index, bindings: node.bindings.clone(), out }, constant);
        Emitted { buf: out, qudits: node.qudits.clone(), constant }
    }

    fn emit(&mut self, tree: &ContractionTree) -> Result<Emitted, BytecodeError> {
        match tree {
            ContractionTree::Leaf(i) => {
                let node = self.network.nodes()[*i].clone();
                Ok(self.emit_leaf(&node))
            }
            ContractionTree::Merge { earlier, later } => {
                let a = self.emit(earlier)?;
                let b = self.emit(later)?;
                self.emit_merge(a, b)
            }
        }
    }

    fn emit_merge(&mut self, earlier: Emitted, later: Emitted) -> Result<Emitted, BytecodeError> {
        let disjoint = earlier.qudits.iter().all(|q| !later.qudits.contains(q));
        if disjoint {
            // (A on S_A) ⊗ (B on S_B): axis order is the concatenation.
            let mut qudits = earlier.qudits.clone();
            qudits.extend_from_slice(&later.qudits);
            let dim = self.network.dim_of(&qudits);
            let params =
                union_params(&self.buffers[earlier.buf].params, &self.buffers[later.buf].params);
            let constant = earlier.constant && later.constant;
            let out = self.new_buffer(dim, dim, params);
            self.push_op(TnvmOp::Kron { a: earlier.buf, b: later.buf, out }, constant);
            return Ok(Emitted { buf: out, qudits, constant });
        }
        // Overlapping supports: expand both to the sorted union and multiply
        // (later · earlier).
        let mut union: Vec<usize> =
            earlier.qudits.iter().chain(later.qudits.iter()).copied().collect();
        union.sort_unstable();
        union.dedup();
        let a = self.expand(earlier, &union)?;
        let b = self.expand(later, &union)?;
        let dim = self.network.dim_of(&union);
        let params = union_params(&self.buffers[a.buf].params, &self.buffers[b.buf].params);
        let constant = a.constant && b.constant;
        let out = self.new_buffer(dim, dim, params);
        self.push_op(TnvmOp::Matmul { a: b.buf, b: a.buf, out }, constant);
        Ok(Emitted { buf: out, qudits: union, constant })
    }

    /// Expands an operator to a target (sorted) qudit support: pads missing wires with an
    /// identity via KRON, then reorders the axes via TRANSPOSE if necessary.
    fn expand(&mut self, value: Emitted, target: &[usize]) -> Result<Emitted, BytecodeError> {
        let mut current = value;
        let extra: Vec<usize> =
            target.iter().copied().filter(|q| !current.qudits.contains(q)).collect();
        if !extra.is_empty() {
            let id_index = self.identity_expr(&extra)?;
            let id_dim = self.network.dim_of(&extra);
            let id_buf = self.new_buffer(id_dim, id_dim, Vec::new());
            self.push_op(
                TnvmOp::Write { expr_index: id_index, bindings: Vec::new(), out: id_buf },
                true,
            );
            let mut qudits = current.qudits.clone();
            qudits.extend_from_slice(&extra);
            let dim = self.network.dim_of(&qudits);
            let params = self.buffers[current.buf].params.clone();
            let constant = current.constant;
            let out = self.new_buffer(dim, dim, params);
            self.push_op(TnvmOp::Kron { a: current.buf, b: id_buf, out }, constant);
            current = Emitted { buf: out, qudits, constant };
        }
        if current.qudits != target {
            let k = current.qudits.len();
            let row_dims: Vec<usize> =
                current.qudits.iter().map(|&q| self.network.radices()[q]).collect();
            let mut shape = row_dims.clone();
            shape.extend_from_slice(&row_dims);
            let mut perm = Vec::with_capacity(2 * k);
            for &q in target {
                let pos = current
                    .qudits
                    .iter()
                    .position(|&c| c == q)
                    .ok_or(BytecodeError::SupportMismatch { qudit: q })?;
                perm.push(pos);
            }
            for i in 0..k {
                perm.push(perm[i] + k);
            }
            let dim = self.network.dim_of(target);
            let params = self.buffers[current.buf].params.clone();
            let constant = current.constant;
            let out = self.new_buffer(dim, dim, params);
            self.push_op(TnvmOp::Transpose { input: current.buf, shape, perm, out }, constant);
            current = Emitted { buf: out, qudits: target.to_vec(), constant };
        }
        Ok(current)
    }

    /// Finalizes the program: pads the root operator to the full circuit width, reorders
    /// it to wire order, and returns the output buffer. An empty circuit produces the
    /// identity.
    fn finish(&mut self, root: Option<Emitted>) -> Result<BufId, BytecodeError> {
        let all: Vec<usize> = (0..self.network.num_qudits()).collect();
        let full = match root {
            Some(r) => self.expand(r, &all)?,
            None => {
                let id_index = self.identity_expr(&all)?;
                let dim = self.network.dim();
                let out = self.new_buffer(dim, dim, Vec::new());
                self.push_op(
                    TnvmOp::Write { expr_index: id_index, bindings: Vec::new(), out },
                    true,
                );
                Emitted { buf: out, qudits: all.clone(), constant: true }
            }
        };
        Ok(full.buf)
    }
}

fn union_params(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out: Vec<usize> = a.iter().chain(b.iter()).copied().collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// The contraction-tree fusion pass described in Sec. IV-A of the paper: a TRANSPOSE
/// applied directly to a leaf WRITE is pushed into the leaf's symbolic expression, so the
/// compiled code produces the already-transposed matrix and the runtime instruction
/// disappears.
fn fuse_leaf_transposes(program: &mut TnvmProgram) {
    // Usage count of every buffer as an instruction input.
    let mut uses = vec![0usize; program.buffers.len()];
    for op in program.constant_ops.iter().chain(program.dynamic_ops.iter()) {
        for input in op.inputs() {
            uses[input] += 1;
        }
    }
    // Producer map: buffer -> (section, index) for WRITE instructions only.
    let mut writers: HashMap<BufId, (bool, usize)> = HashMap::new();
    for (idx, op) in program.constant_ops.iter().enumerate() {
        if let TnvmOp::Write { out, .. } = op {
            writers.insert(*out, (true, idx));
        }
    }
    for (idx, op) in program.dynamic_ops.iter().enumerate() {
        if let TnvmOp::Write { out, .. } = op {
            writers.insert(*out, (false, idx));
        }
    }

    let mut fused = 0usize;
    for section_is_const in [true, false] {
        let section_len =
            if section_is_const { program.constant_ops.len() } else { program.dynamic_ops.len() };
        let mut removals: Vec<usize> = Vec::new();
        for idx in 0..section_len {
            let op = if section_is_const {
                program.constant_ops[idx].clone()
            } else {
                program.dynamic_ops[idx].clone()
            };
            let TnvmOp::Transpose { input, shape, perm, out } = op else { continue };
            let Some(&(writer_const, writer_idx)) = writers.get(&input) else { continue };
            if uses[input] != 1 {
                continue;
            }
            // Only wire-permutation transposes (row and column permuted identically) can
            // be pushed into the expression.
            let k = shape.len() / 2;
            if perm.len() != 2 * k || (0..k).any(|i| perm[k + i] != perm[i] + k) {
                continue;
            }
            let wire_perm = &perm[..k];
            let (expr_index, bindings) = {
                let writer_op = if writer_const {
                    &program.constant_ops[writer_idx]
                } else {
                    &program.dynamic_ops[writer_idx]
                };
                match writer_op {
                    TnvmOp::Write { expr_index, bindings, .. } => (*expr_index, bindings.clone()),
                    _ => continue,
                }
            };
            let permuted = match transform::permute_qudits(&program.exprs[expr_index], wire_perm) {
                Ok(p) => p,
                Err(_) => continue,
            };
            // Intern the permuted expression.
            let new_index = match program
                .exprs
                .iter()
                .position(|e| e.canonical_key() == permuted.canonical_key())
            {
                Some(i) => i,
                None => {
                    program.exprs.push(permuted);
                    program.exprs.len() - 1
                }
            };
            // Rewrite the WRITE to target the transpose's output directly.
            let new_write = TnvmOp::Write { expr_index: new_index, bindings, out };
            if writer_const {
                program.constant_ops[writer_idx] = new_write;
            } else {
                program.dynamic_ops[writer_idx] = new_write;
            }
            writers.remove(&input);
            writers.insert(out, (writer_const, writer_idx));
            removals.push(idx);
            fused += 1;
        }
        // Remove the fused transposes from this section (descending order keeps indices
        // valid). Writer indices recorded above are only reused within the same pass and
        // writes always precede their transposes, so removals after them are safe.
        for &idx in removals.iter().rev() {
            if section_is_const {
                program.constant_ops.remove(idx);
            } else {
                program.dynamic_ops.remove(idx);
            }
        }
        // Rebuild writer indices after removals for the next section iteration.
        writers.clear();
        for (idx, op) in program.constant_ops.iter().enumerate() {
            if let TnvmOp::Write { out, .. } = op {
                writers.insert(*out, (true, idx));
            }
        }
        for (idx, op) in program.dynamic_ops.iter().enumerate() {
            if let TnvmOp::Write { out, .. } = op {
                writers.insert(*out, (false, idx));
            }
        }
    }
    program.fused_transposes = fused;
}

#[cfg(test)]
mod tests {
    use super::*;
    use qudit_circuit::{builders, gates, QuditCircuit};

    fn program_for(circuit: &QuditCircuit) -> TnvmProgram {
        compile_network(&TensorNetwork::from_circuit(circuit))
    }

    #[test]
    fn empty_circuit_compiles_to_identity_write() {
        let p = program_for(&QuditCircuit::qubits(2));
        assert_eq!(p.dynamic_ops.len(), 0);
        assert_eq!(p.constant_ops.len(), 1);
        assert!(matches!(p.constant_ops[0], TnvmOp::Write { .. }));
        assert_eq!(p.buffers[p.output].rows, 4);
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn bell_circuit_bytecode_structure() {
        let mut c = QuditCircuit::qubits(2);
        let h = c.cache_operation(gates::hadamard()).unwrap();
        let cx = c.cache_operation(gates::cnot()).unwrap();
        c.append_ref_constant(h, vec![0], vec![]).unwrap();
        c.append_ref_constant(cx, vec![0, 1], vec![]).unwrap();
        let p = program_for(&c);
        // Everything is constant: the dynamic section is empty.
        assert!(p.dynamic_ops.is_empty());
        assert!(!p.constant_ops.is_empty());
        assert_eq!(p.num_params, 0);
        assert_eq!(p.buffers[p.output].rows, 4);
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn parameterized_ops_land_in_dynamic_section() {
        let c = builders::pqc_qubit_ladder(3, 1).unwrap();
        let p = program_for(&c);
        assert_eq!(p.num_params, c.num_params());
        // The CNOT write is constant; the U3 writes and every contraction touching them
        // are dynamic.
        assert!(!p.constant_ops.is_empty());
        assert!(!p.dynamic_ops.is_empty());
        let dynamic_writes =
            p.dynamic_ops.iter().filter(|o| matches!(o, TnvmOp::Write { .. })).count();
        assert_eq!(dynamic_writes, 5); // five U3 applications
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn buffer_params_propagate_through_contractions() {
        let c = builders::pqc_qubit_ladder(2, 1).unwrap();
        let p = program_for(&c);
        let out = &p.buffers[p.output];
        // The output depends on every circuit parameter.
        assert_eq!(out.params, (0..c.num_params()).collect::<Vec<_>>());
        assert_eq!(out.rows, 4);
        assert_eq!(out.cols, 4);
    }

    #[test]
    fn expression_table_is_deduplicated() {
        let c = builders::pqc_qubit_ladder(3, 2).unwrap();
        let p = program_for(&c);
        // U3 + CNOT (+ possibly identity paddings and fused variants), but nowhere near
        // one entry per operation.
        assert!(p.exprs.len() <= 5, "expression table has {} entries", p.exprs.len());
    }

    #[test]
    fn arena_and_len_reporting() {
        let c = builders::pqc_qubit_ladder(3, 1).unwrap();
        let p = program_for(&c);
        assert!(p.arena_elements() > 0);
        assert!(!p.is_empty());
        assert_eq!(p.dim(), 8);
    }

    #[test]
    fn reversed_two_qubit_location_fuses_transpose_into_write() {
        // A CNOT applied to location [1, 0] needs its axes reordered to wire order; the
        // fusion pass should push that permutation into the symbolic expression.
        let mut c = QuditCircuit::qubits(2);
        let cx = c.cache_operation(gates::cnot()).unwrap();
        let rx = c.cache_operation(gates::rx()).unwrap();
        c.append_ref(rx, vec![0]).unwrap();
        c.append_ref_constant(cx, vec![1, 0], vec![]).unwrap();
        let p = program_for(&c);
        assert!(p.fused_transposes >= 1, "expected at least one fused transpose");
        assert!(
            !p.constant_ops
                .iter()
                .chain(p.dynamic_ops.iter())
                .any(|o| matches!(o, TnvmOp::Transpose { .. })),
            "leaf transpose should have been fused away"
        );
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn validate_catches_corruption() {
        let c = builders::pqc_qubit_ladder(2, 1).unwrap();
        let mut p = program_for(&c);
        // Corrupt: make the first dynamic op read an unwritten buffer.
        let bogus = p.buffers.len();
        p.buffers.push(BufferInfo { rows: 2, cols: 2, params: vec![] });
        if let Some(TnvmOp::Write { out, .. }) = p.dynamic_ops.first_mut() {
            *out = bogus;
        }
        assert!(p.validate().is_err() || p.output != bogus);
    }

    #[test]
    fn op_inputs_and_out_accessors() {
        let w = TnvmOp::Write { expr_index: 0, bindings: vec![], out: 3 };
        assert_eq!(w.out(), 3);
        assert!(w.inputs().is_empty());
        let m = TnvmOp::Matmul { a: 1, b: 2, out: 4 };
        assert_eq!(m.inputs(), vec![1, 2]);
        let t = TnvmOp::Transpose { input: 5, shape: vec![2, 2], perm: vec![1, 0], out: 6 };
        assert_eq!(t.inputs(), vec![5]);
        let h = TnvmOp::Hadamard { a: 7, b: 8, out: 9 };
        assert_eq!(h.out(), 9);
    }

    #[test]
    fn qutrit_circuit_compiles() {
        let c = builders::pqc_qutrit_ladder(2, 1).unwrap();
        let p = program_for(&c);
        assert_eq!(p.dim(), 9);
        assert_eq!(p.buffers[p.output].rows, 9);
        assert_eq!(p.validate(), Ok(()));
    }
}
