//! The Tensor Network Virtual Machine (TNVM).
//!
//! The TNVM is a lightweight runtime that executes the bytecode produced by the AOT
//! compiler (`qudit-network`). Instantiation performs the one-time preparatory work the
//! paper describes (Sec. IV-B): it allocates a single contiguous arena for every
//! intermediate buffer, eagerly compiles every unique QGL expression referenced by WRITE
//! instructions (through the shared [`ExpressionCache`]), and immediately executes the
//! constant section. Every subsequent [`Tnvm::evaluate`] call only walks the dynamic
//! instruction list, running one `qudit-tensor` kernel per instruction.
//!
//! Gradients are propagated with forward-mode automatic differentiation: the AOT compiler
//! annotates each buffer with the circuit parameters it depends on, and each instruction
//! is specialized accordingly (product rule on MATMUL/KRON/HADAMARD with overlapping
//! parameter sets, plain linear maps on TRANSPOSE).
//!
//! # Two sweeps
//!
//! An evaluation walks the dynamic section twice:
//!
//! 1. the **value sweep** ([`Tnvm::evaluate_unitary`]) computes every buffer's value.
//!    In gradient mode its WRITEs also run the gate's gradient program, so the
//!    gate-level derivative blocks land in the gradient arena alongside the values;
//! 2. the **gradient sweep** ([`Tnvm::gradient`]) then walks the same instructions in
//!    program order and applies the product rule and the permutations to those blocks,
//!    reading operand values from the arena the value sweep left behind.
//!
//! [`Tnvm::evaluate`] is the two sweeps in sequence. Splitting them lets a caller
//! *defer* the gradient: a Levenberg–Marquardt trial step needs only the unitary to
//! judge the step, and asks for the gradient only when it accepts it. The contract is
//! that [`Tnvm::gradient`] belongs to the most recent [`Tnvm::evaluate_unitary`]; any
//! later value sweep or [`Tnvm::load`] replaces the values it reads.
//!
//! Because the gradient sweep reads every operand's value after the *whole* value
//! sweep has run, each buffer keeps its own arena storage: a placement that reused a
//! dead buffer's storage for a later value would hand the gradient sweep the wrong
//! operand. Buffers are therefore laid out back to back, never aliased.

use std::sync::Arc;

use qudit_network::{BufId, ParamBinding, TnvmOp, TnvmProgram};
use qudit_qvm::{CompileOptions, CompiledExpression, DiffMode, ExpressionCache};

use crate::counters::{BilinearTally, KernelCounters};
use qudit_tensor::complex::{Complex, Float};
use qudit_tensor::gemm;
use qudit_tensor::kron;
use qudit_tensor::permute;
use qudit_tensor::Matrix;

/// The result of one TNVM evaluation.
#[derive(Debug, Clone)]
pub struct EvalResult<T> {
    /// The circuit unitary.
    pub unitary: Matrix<T>,
    /// One ∂U/∂θᵢ per circuit parameter (empty when gradients were not requested).
    pub gradient: Vec<Matrix<T>>,
}

/// The Tensor Network Virtual Machine, generic over the numerical precision.
#[derive(Debug)]
pub struct Tnvm<T: Float> {
    program: TnvmProgram,
    diff_mode: DiffMode,
    compiled: Vec<Arc<CompiledExpression>>,
    /// Single arena holding every buffer's value storage.
    values: Vec<Complex<T>>,
    /// Offset of each buffer inside `values`.
    value_offsets: Vec<usize>,
    /// Arena holding gradient blocks.
    grads: Vec<Complex<T>>,
    /// For each buffer, the (circuit parameter, gradient-arena offset) pairs.
    grad_slots: Vec<Vec<(usize, usize)>>,
    /// Scratch registers for compiled-expression execution.
    scratch: Vec<T>,
    /// Staging buffer for WRITE outputs (unitary + per-gate-parameter gradients).
    write_staging: Vec<Complex<T>>,
    /// Staging buffer for gate parameter values.
    param_staging: Vec<T>,
    /// Scratch for TRANSPOSE outputs of gradient blocks.
    transpose_staging: Vec<Complex<T>>,
    /// Deterministic dispatch/flop/cache accounting, local to this VM (see
    /// [`crate::counters`] for why locality matters).
    counters: KernelCounters,
    /// Whether the arena holds a value sweep of the current program, which
    /// [`Tnvm::gradient`] requires.
    swept: bool,
}

impl<T: Float> Tnvm<T> {
    /// Builds a TNVM for `program`, compiling all expressions through `cache` and
    /// executing the constant section.
    pub fn new(program: &TnvmProgram, diff_mode: DiffMode, cache: &ExpressionCache) -> Self {
        let mut vm = Tnvm {
            program: program.clone(),
            diff_mode,
            compiled: Vec::new(),
            values: Vec::new(),
            value_offsets: Vec::new(),
            grads: Vec::new(),
            grad_slots: Vec::new(),
            scratch: Vec::new(),
            write_staging: Vec::new(),
            param_staging: Vec::new(),
            transpose_staging: Vec::new(),
            counters: KernelCounters::default(),
            swept: false,
        };
        vm.reinit(cache);
        vm
    }

    /// Re-targets the VM at a new program in place — the *recompile-on-expansion* path.
    ///
    /// A bottom-up synthesis search recompiles thousands of slightly extended circuits;
    /// building a fresh [`Tnvm`] for each would reallocate every arena from scratch.
    /// `load` keeps the differentiation mode, pulls compiled expressions from `cache`
    /// (hits for every gate already seen this process), reuses the existing arena and
    /// staging allocations when their capacity suffices, and re-executes the constant
    /// section of the new program.
    pub fn load(&mut self, program: &TnvmProgram, cache: &ExpressionCache) {
        self.program.clone_from(program);
        self.reinit(cache);
    }

    /// (Re)builds every derived structure — compiled expressions, arenas, staging
    /// buffers — from `self.program`, reusing existing allocations, and executes the
    /// constant section.
    fn reinit(&mut self, cache: &ExpressionCache) {
        let options = match self.diff_mode {
            DiffMode::None => CompileOptions::default(),
            DiffMode::Gradient => CompileOptions::with_gradient(),
        };
        let program = &self.program;
        self.swept = false;
        self.compiled.clear();
        let mut hits = 0u64;
        let mut misses = 0u64;
        self.compiled.extend(program.exprs.iter().map(|e| {
            let (compiled, hit) = cache.get_or_compile_traced(e, &options);
            if hit {
                hits += 1;
            } else {
                misses += 1;
            }
            compiled
        }));
        self.counters.cache_hits += hits;
        self.counters.cache_misses += misses;

        // Value arena: buffers back to back, never aliased (see the module docs).
        self.value_offsets.clear();
        let mut total = 0usize;
        for buf in &program.buffers {
            self.value_offsets.push(total);
            total += buf.len();
        }
        self.values.clear();
        self.values.resize(total, Complex::zero());

        // Gradient arena: one block per (buffer, dependent parameter).
        self.grad_slots.clear();
        let mut grad_total = 0usize;
        for buf in &program.buffers {
            let mut slots = Vec::with_capacity(buf.params.len());
            if self.diff_mode == DiffMode::Gradient {
                for &p in &buf.params {
                    slots.push((p, grad_total));
                    grad_total += buf.len();
                }
            }
            self.grad_slots.push(slots);
        }
        self.grads.clear();
        self.grads.resize(grad_total, Complex::zero());

        let scratch_len = self.compiled.iter().map(|c| c.scratch_len()).max().unwrap_or(0);
        let max_gate_out = self
            .compiled
            .iter()
            .map(|c| (1 + c.num_params()) * c.dim() * c.dim())
            .max()
            .unwrap_or(0);
        let max_gate_params = self.compiled.iter().map(|c| c.num_params()).max().unwrap_or(0);
        let max_buf_len = program.buffers.iter().map(|b| b.len()).max().unwrap_or(0);
        self.scratch.clear();
        self.scratch.resize(scratch_len, T::zero());
        self.write_staging.clear();
        self.write_staging.resize(max_gate_out, Complex::zero());
        self.param_staging.clear();
        self.param_staging.resize(max_gate_params, T::zero());
        self.transpose_staging.clear();
        self.transpose_staging.resize(max_buf_len, Complex::zero());

        // The constant section never reads circuit parameters and carries no
        // gradients.
        self.run_values(true, &[]);
    }

    /// The differentiation mode the VM was instantiated with.
    pub fn diff_mode(&self) -> DiffMode {
        self.diff_mode
    }

    /// The dispatch/flop/cache counters accumulated since construction (or since the
    /// last [`Tnvm::take_counters`]).
    pub fn counters(&self) -> &KernelCounters {
        &self.counters
    }

    /// Returns the accumulated counters and resets them to zero — the handoff used by
    /// instantiation to attribute kernel work to individual optimization starts.
    pub fn take_counters(&mut self) -> KernelCounters {
        std::mem::take(&mut self.counters)
    }

    /// Number of circuit parameters expected by [`Tnvm::evaluate`].
    pub fn num_params(&self) -> usize {
        self.program.num_params
    }

    /// The circuit's Hilbert-space dimension.
    pub fn dim(&self) -> usize {
        self.program.dim()
    }

    /// Total bytes of numerical storage held by the VM (value arena, gradient arena,
    /// and staging buffers). This is the quantity behind the paper's "211 KB for the
    /// 3-qubit shallow benchmark" observation.
    pub fn memory_bytes(&self) -> usize {
        let c = std::mem::size_of::<Complex<T>>();
        let f = std::mem::size_of::<T>();
        self.values.len() * c
            + self.grads.len() * c
            + self.write_staging.len() * c
            + self.transpose_staging.len() * c
            + self.scratch.len() * f
            + self.param_staging.len() * f
    }

    /// Evaluates the circuit unitary (and gradient, when enabled) at `params`: the
    /// value sweep followed, in gradient mode, by the gradient sweep.
    ///
    /// # Panics
    ///
    /// Panics if `params.len()` differs from [`Tnvm::num_params`].
    pub fn evaluate(&mut self, params: &[T]) -> EvalResult<T> {
        let unitary = self.evaluate_unitary(params);
        let gradient =
            if self.diff_mode == DiffMode::Gradient { self.gradient() } else { Vec::new() };
        EvalResult { unitary, gradient }
    }

    /// Runs the value sweep at `params` and returns the circuit unitary.
    ///
    /// In gradient mode the sweep also leaves the gate-level derivative blocks of every
    /// WRITE in the gradient arena, so a following [`Tnvm::gradient`] can finish the
    /// gradient at these parameters without re-running the values. Counts as one
    /// evaluation.
    ///
    /// # Panics
    ///
    /// Panics if `params.len()` differs from [`Tnvm::num_params`].
    pub fn evaluate_unitary(&mut self, params: &[T]) -> Matrix<T> {
        assert_eq!(
            params.len(),
            self.program.num_params,
            "TNVM expects {} parameter(s)",
            self.program.num_params
        );
        self.counters.evaluations += 1;
        self.run_values(false, params);
        self.swept = true;

        let out = self.program.output;
        let info = &self.program.buffers[out];
        let start = self.value_offsets[out];
        Matrix::from_vec(info.rows, info.cols, self.values[start..start + info.len()].to_vec())
            .expect("output buffer has matrix shape")
    }

    /// Runs the gradient sweep and returns one ∂U/∂θᵢ per circuit parameter, at the
    /// parameters of the most recent [`Tnvm::evaluate_unitary`].
    ///
    /// # Panics
    ///
    /// Panics if the VM was not built in [`DiffMode::Gradient`], or if no value sweep
    /// has run since construction or the last [`Tnvm::load`].
    pub fn gradient(&mut self) -> Vec<Matrix<T>> {
        assert_eq!(self.diff_mode, DiffMode::Gradient, "gradient sweep needs gradient mode");
        assert!(self.swept, "gradient sweep needs a preceding value sweep");
        let ops = std::mem::take(&mut self.program.dynamic_ops);
        for op in &ops {
            match *op {
                // The value sweep already wrote the gate-level derivative blocks.
                TnvmOp::Write { .. } => {}
                TnvmOp::Matmul { a, b, out } => {
                    self.bilinear_gradient(a, b, out, BilinearKind::Matmul)
                }
                TnvmOp::Kron { a, b, out } => self.bilinear_gradient(a, b, out, BilinearKind::Kron),
                TnvmOp::Hadamard { a, b, out } => {
                    self.bilinear_gradient(a, b, out, BilinearKind::Hadamard)
                }
                TnvmOp::Transpose { input, ref shape, ref perm, out } => {
                    self.transpose_gradient(input, shape, perm, out)
                }
            }
        }
        self.program.dynamic_ops = ops;

        let out = self.program.output;
        let info = &self.program.buffers[out];
        let mut grads = vec![Matrix::zeros(info.rows, info.cols); self.program.num_params];
        for &(param, offset) in &self.grad_slots[out] {
            grads[param] = Matrix::from_vec(
                info.rows,
                info.cols,
                self.grads[offset..offset + info.len()].to_vec(),
            )
            .expect("gradient block has matrix shape");
        }
        grads
    }

    /// The value sweep over one section.
    fn run_values(&mut self, constant: bool, params: &[T]) {
        let ops = if constant {
            std::mem::take(&mut self.program.constant_ops)
        } else {
            std::mem::take(&mut self.program.dynamic_ops)
        };
        for op in &ops {
            match *op {
                TnvmOp::Write { expr_index, ref bindings, out } => {
                    self.exec_write(expr_index, bindings, out, params)
                }
                TnvmOp::Matmul { a, b, out } => {
                    self.bilinear_value(a, b, out, BilinearKind::Matmul)
                }
                TnvmOp::Kron { a, b, out } => self.bilinear_value(a, b, out, BilinearKind::Kron),
                TnvmOp::Hadamard { a, b, out } => {
                    self.bilinear_value(a, b, out, BilinearKind::Hadamard)
                }
                TnvmOp::Transpose { input, ref shape, ref perm, out } => {
                    self.transpose_value(input, shape, perm, out)
                }
            }
        }
        if constant {
            self.program.constant_ops = ops;
        } else {
            self.program.dynamic_ops = ops;
        }
    }

    fn value_range(&self, buf: BufId) -> (usize, usize) {
        let start = self.value_offsets[buf];
        (start, start + self.program.buffers[buf].len())
    }

    fn grad_offset(&self, buf: BufId, param: usize) -> Option<usize> {
        self.grad_slots[buf].iter().find(|(p, _)| *p == param).map(|(_, o)| *o)
    }

    fn exec_write(
        &mut self,
        expr_index: usize,
        bindings: &[ParamBinding],
        out: BufId,
        params: &[T],
    ) {
        let compiled = Arc::clone(&self.compiled[expr_index]);
        let n = compiled.dim() * compiled.dim();
        self.counters.writes += 1;
        // Gather gate parameter values.
        for (k, binding) in bindings.iter().enumerate() {
            self.param_staging[k] = match binding {
                ParamBinding::Constant(v) => T::from_f64(*v),
                ParamBinding::Circuit(i) => params[*i],
            };
        }
        let gate_params = &self.param_staging[..bindings.len()];
        let needs_grad = self.diff_mode == DiffMode::Gradient && !self.grad_slots[out].is_empty();
        let (start, end) = self.value_range(out);
        if needs_grad {
            let program =
                compiled.gradient_program().expect("gradient mode compiles gradient programs");
            program.run(gate_params, &mut self.scratch, &mut self.write_staging);
            self.values[start..end].copy_from_slice(&self.write_staging[..n]);
            // Distribute gate-parameter gradients onto circuit-parameter slots.
            // First zero all slots of this buffer.
            let slots = self.grad_slots[out].clone();
            for &(_, offset) in &slots {
                for v in &mut self.grads[offset..offset + n] {
                    *v = Complex::zero();
                }
            }
            for (k, binding) in bindings.iter().enumerate() {
                if let ParamBinding::Circuit(p) = binding {
                    if let Some(offset) = self.grad_offset(out, *p) {
                        let src = &self.write_staging[(k + 1) * n..(k + 2) * n];
                        for (dst, s) in self.grads[offset..offset + n].iter_mut().zip(src) {
                            *dst += *s;
                        }
                    }
                }
            }
        } else {
            compiled.unitary_program().run(gate_params, &mut self.scratch, &mut self.write_staging);
            self.values[start..end].copy_from_slice(&self.write_staging[..n]);
        }
    }

    fn bilinear_value(&mut self, a: BufId, b: BufId, out: BufId, kind: BilinearKind) {
        let (ar, ac) = (self.program.buffers[a].rows, self.program.buffers[a].cols);
        let (br, bc) = (self.program.buffers[b].rows, self.program.buffers[b].cols);
        let ranges = (self.value_range(a), self.value_range(b), self.value_range(out));
        let (a_vals, b_vals, out_vals) =
            three_slices(&mut self.values, ranges.0, ranges.1, ranges.2);
        kind.apply(a_vals, ar, ac, b_vals, br, bc, out_vals, false);
        self.tally(a, b, out, kind, 1);
    }

    /// The product rule for one bilinear instruction: d(out) = d(a)∘b + a∘d(b), with
    /// terms dropped when the operand does not depend on the parameter.
    fn bilinear_gradient(&mut self, a: BufId, b: BufId, out: BufId, kind: BilinearKind) {
        let (ar, ac) = (self.program.buffers[a].rows, self.program.buffers[a].cols);
        let (br, bc) = (self.program.buffers[b].rows, self.program.buffers[b].cols);
        let (a_start, a_end) = self.value_range(a);
        let (b_start, b_end) = self.value_range(b);
        let n = self.program.buffers[out].len();
        let mut calls = 0u64;
        let out_slots = self.grad_slots[out].clone();
        for (param, out_offset) in out_slots {
            for v in &mut self.grads[out_offset..out_offset + n] {
                *v = Complex::zero();
            }
            // d(a) * b
            if let Some(a_goff) = self.grad_offset(a, param) {
                calls += 1;
                let (da, bv, dout) = grad_value_out(
                    &mut self.grads,
                    &self.values,
                    (a_goff, a_goff + (a_end - a_start)),
                    (b_start, b_end),
                    (out_offset, out_offset + n),
                );
                kind.apply(da, ar, ac, bv, br, bc, dout, true);
            }
            // a * d(b)
            if let Some(b_goff) = self.grad_offset(b, param) {
                calls += 1;
                let (db, av, dout) = grad_value_out(
                    &mut self.grads,
                    &self.values,
                    (b_goff, b_goff + (b_end - b_start)),
                    (a_start, a_end),
                    (out_offset, out_offset + n),
                );
                // Note operand order: value(a) ∘ grad(b).
                kind.apply(av, ar, ac, db, br, bc, dout, true);
            }
        }
        self.tally(a, b, out, kind, calls);
    }

    /// Counts `calls` kernel invocations of one bilinear instruction with a static flop
    /// estimate: 8 real flops per complex multiply-add for MATMUL (m·n·k of them), 6 per
    /// output element for the multiply-only KRON/HADAMARD.
    ///
    /// The MATMUL figure is the dense product's. The GEMM skips left-hand entries that
    /// are exactly zero, so on a circuit's identity-padded chain products it overstates
    /// the work done: one gradient sweep of the 3-qubit two-block template tallies
    /// 153,600 flops and executes 69,632, and the 4-qubit six-block partition template
    /// tallies 4,442,112 and executes 1,642,496.
    fn tally(&mut self, a: BufId, b: BufId, out: BufId, kind: BilinearKind, calls: u64) {
        let buffers = &self.program.buffers;
        let (tally, flops_per_call) = match kind {
            BilinearKind::Matmul => (
                BilinearTally::Matmul,
                8 * (buffers[a].rows * buffers[b].cols * buffers[a].cols) as u64,
            ),
            BilinearKind::Kron => (BilinearTally::Kron, 6 * buffers[out].len() as u64),
            BilinearKind::Hadamard => (BilinearTally::Hadamard, 6 * buffers[out].len() as u64),
        };
        self.counters.tally(tally, calls, flops_per_call);
    }

    fn transpose_value(&mut self, input: BufId, shape: &[usize], perm: &[usize], out: BufId) {
        let (i_start, i_end) = self.value_range(input);
        let (o_start, o_end) = self.value_range(out);
        let n = i_end - i_start;
        self.counters.transposes += 1;
        self.transpose_staging[..n].copy_from_slice(&self.values[i_start..i_end]);
        permute::permute_into(
            &self.transpose_staging[..n],
            shape,
            perm,
            &mut self.values[o_start..o_end],
        );
    }

    /// A permutation is linear, so each gradient block is permuted like the value.
    fn transpose_gradient(&mut self, input: BufId, shape: &[usize], perm: &[usize], out: BufId) {
        let n = self.program.buffers[input].len();
        let out_slots = self.grad_slots[out].clone();
        for (param, out_offset) in out_slots {
            if let Some(in_offset) = self.grad_offset(input, param) {
                self.transpose_staging[..n].copy_from_slice(&self.grads[in_offset..in_offset + n]);
                permute::permute_into(
                    &self.transpose_staging[..n],
                    shape,
                    perm,
                    &mut self.grads[out_offset..out_offset + n],
                );
            } else {
                for v in &mut self.grads[out_offset..out_offset + n] {
                    *v = Complex::zero();
                }
            }
        }
    }
}

/// The three bilinear bytecode operations share one gradient-propagation skeleton.
#[derive(Debug, Clone, Copy)]
enum BilinearKind {
    Matmul,
    Kron,
    Hadamard,
}

impl BilinearKind {
    #[allow(clippy::too_many_arguments)]
    fn apply<T: Float>(
        self,
        a: &[Complex<T>],
        ar: usize,
        ac: usize,
        b: &[Complex<T>],
        br: usize,
        bc: usize,
        out: &mut [Complex<T>],
        accumulate: bool,
    ) {
        match (self, accumulate) {
            (BilinearKind::Matmul, false) => {
                debug_assert_eq!(ac, br, "matmul inner dimensions");
                gemm::matmul_into(a, ar, ac, b, bc, out)
            }
            (BilinearKind::Matmul, true) => {
                debug_assert_eq!(ac, br, "matmul inner dimensions");
                gemm::matmul_acc_into(a, ar, ac, b, bc, out)
            }
            (BilinearKind::Kron, false) => kron::kron_into(a, ar, ac, b, br, bc, out),
            (BilinearKind::Kron, true) => kron::kron_acc_into(a, ar, ac, b, br, bc, out),
            (BilinearKind::Hadamard, false) => gemm::hadamard_into(a, b, out),
            (BilinearKind::Hadamard, true) => gemm::hadamard_acc_into(a, b, out),
        }
    }
}

/// Splits the value arena into three disjoint slices (two inputs and one output).
///
/// # Panics
///
/// Panics if the ranges overlap (the bytecode validator guarantees they never do).
fn three_slices<T>(
    arena: &mut [T],
    a: (usize, usize),
    b: (usize, usize),
    out: (usize, usize),
) -> (&[T], &[T], &mut [T]) {
    assert!(ranges_disjoint(a, out) && ranges_disjoint(b, out), "output overlaps an input");
    // Raw parts, because the inputs may overlap each other (a square of one buffer),
    // which `split_at_mut` cannot express next to the mutable output.
    let (out_slice, a_slice, b_slice) = unsafe {
        // SAFETY: the three ranges are pairwise disjoint (inputs may alias each other
        // only as immutable slices), all within bounds of `arena`.
        let base = arena.as_mut_ptr();
        let out_slice = std::slice::from_raw_parts_mut(base.add(out.0), out.1 - out.0);
        let a_slice = std::slice::from_raw_parts(base.add(a.0) as *const T, a.1 - a.0);
        let b_slice = std::slice::from_raw_parts(base.add(b.0) as *const T, b.1 - b.0);
        (out_slice, a_slice, b_slice)
    };
    (a_slice, b_slice, out_slice)
}

/// Splits the gradient arena (mutable, for one input-gradient block and the output block)
/// and the value arena (immutable, for the other operand's value).
fn grad_value_out<'g, 'v, T>(
    grads: &'g mut [T],
    values: &'v [T],
    grad_in: (usize, usize),
    value_in: (usize, usize),
    grad_out: (usize, usize),
) -> (&'g [T], &'v [T], &'g mut [T]) {
    assert!(ranges_disjoint(grad_in, grad_out), "gradient output overlaps its input");
    let (gin, gout) = unsafe {
        // SAFETY: `grad_in` and `grad_out` are disjoint ranges within `grads`.
        let base = grads.as_mut_ptr();
        let gin =
            std::slice::from_raw_parts(base.add(grad_in.0) as *const T, grad_in.1 - grad_in.0);
        let gout = std::slice::from_raw_parts_mut(base.add(grad_out.0), grad_out.1 - grad_out.0);
        (gin, gout)
    };
    (gin, &values[value_in.0..value_in.1], gout)
}

fn ranges_disjoint(a: (usize, usize), b: (usize, usize)) -> bool {
    a.1 <= b.0 || b.1 <= a.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use qudit_circuit::{builders, gates, QuditCircuit};
    use qudit_network::{compile_network, TensorNetwork};

    fn vm_for(circuit: &QuditCircuit, diff: DiffMode) -> Tnvm<f64> {
        let program = compile_network(&TensorNetwork::from_circuit(circuit));
        Tnvm::new(&program, diff, &ExpressionCache::new())
    }

    fn random_params(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                ((state >> 33) as f64 / (1u64 << 30) as f64) - 2.0
            })
            .collect()
    }

    #[test]
    fn bell_circuit_matches_reference() {
        let mut c = QuditCircuit::qubits(2);
        let h = c.cache_operation(gates::hadamard()).unwrap();
        let cx = c.cache_operation(gates::cnot()).unwrap();
        c.append_ref_constant(h, vec![0], vec![]).unwrap();
        c.append_ref_constant(cx, vec![0, 1], vec![]).unwrap();
        let mut vm = vm_for(&c, DiffMode::None);
        let u = vm.evaluate_unitary(&[]);
        let reference = c.unitary::<f64>(&[]).unwrap();
        assert!(u.max_elementwise_distance(&reference) < 1e-12);
    }

    #[test]
    fn parameterized_ladders_match_reference() {
        for (n, layers) in [(2usize, 1usize), (3, 2), (3, 4)] {
            let c = builders::pqc_qubit_ladder(n, layers).unwrap();
            let mut vm = vm_for(&c, DiffMode::None);
            let params = random_params(c.num_params(), (n * 10 + layers) as u64);
            let fast = vm.evaluate_unitary(&params);
            let slow = c.unitary::<f64>(&params).unwrap();
            assert!(
                fast.max_elementwise_distance(&slow) < 1e-10,
                "mismatch for {n} qubits, {layers} layers"
            );
            assert!(fast.is_unitary(1e-10));
        }
    }

    #[test]
    fn qutrit_ladder_matches_reference() {
        let c = builders::pqc_qutrit_ladder(2, 2).unwrap();
        let mut vm = vm_for(&c, DiffMode::None);
        let params = random_params(c.num_params(), 99);
        let fast = vm.evaluate_unitary(&params);
        let slow = c.unitary::<f64>(&params).unwrap();
        assert!(fast.max_elementwise_distance(&slow) < 1e-10);
    }

    #[test]
    fn reversed_location_and_nonadjacent_gates_match_reference() {
        let mut c = QuditCircuit::qubits(3);
        let cx = c.cache_operation(gates::cnot()).unwrap();
        let u3 = c.cache_operation(gates::u3()).unwrap();
        c.append_ref(u3, vec![1]).unwrap();
        c.append_ref_constant(cx, vec![2, 0], vec![]).unwrap();
        c.append_ref(u3, vec![2]).unwrap();
        c.append_ref_constant(cx, vec![1, 0], vec![]).unwrap();
        let params = random_params(c.num_params(), 5);
        let mut vm = vm_for(&c, DiffMode::None);
        let fast = vm.evaluate_unitary(&params);
        let slow = c.unitary::<f64>(&params).unwrap();
        assert!(fast.max_elementwise_distance(&slow) < 1e-11);
    }

    #[test]
    fn repeated_evaluation_is_consistent() {
        let c = builders::pqc_qubit_ladder(3, 2).unwrap();
        let mut vm = vm_for(&c, DiffMode::None);
        let p1 = random_params(c.num_params(), 1);
        let p2 = random_params(c.num_params(), 2);
        let a1 = vm.evaluate_unitary(&p1);
        let _ = vm.evaluate_unitary(&p2);
        let a1_again = vm.evaluate_unitary(&p1);
        assert!(a1.max_elementwise_distance(&a1_again) < 1e-14);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let c = builders::pqc_qubit_ladder(2, 1).unwrap();
        let params = random_params(c.num_params(), 7);
        let mut vm = vm_for(&c, DiffMode::Gradient);
        let result = vm.evaluate(&params);
        assert_eq!(result.gradient.len(), c.num_params());
        let h = 1e-6;
        for k in 0..c.num_params() {
            let mut plus = params.clone();
            let mut minus = params.clone();
            plus[k] += h;
            minus[k] -= h;
            let up = c.unitary::<f64>(&plus).unwrap();
            let um = c.unitary::<f64>(&minus).unwrap();
            let fd = up.sub(&um).unwrap().scale(qudit_tensor::C64::from_real(1.0 / (2.0 * h)));
            assert!(
                result.gradient[k].max_elementwise_distance(&fd) < 1e-5,
                "gradient mismatch for parameter {k}"
            );
        }
    }

    #[test]
    fn gradient_of_qutrit_circuit_matches_finite_differences() {
        let c = builders::pqc_qutrit_ladder(2, 1).unwrap();
        let params = random_params(c.num_params(), 21);
        let mut vm = vm_for(&c, DiffMode::Gradient);
        let result = vm.evaluate(&params);
        let h = 1e-6;
        for k in [0usize, 5, c.num_params() - 1] {
            let mut plus = params.clone();
            let mut minus = params.clone();
            plus[k] += h;
            minus[k] -= h;
            let up = c.unitary::<f64>(&plus).unwrap();
            let um = c.unitary::<f64>(&minus).unwrap();
            let fd = up.sub(&um).unwrap().scale(qudit_tensor::C64::from_real(1.0 / (2.0 * h)));
            assert!(
                result.gradient[k].max_elementwise_distance(&fd) < 1e-5,
                "gradient mismatch for parameter {k}"
            );
        }
    }

    #[test]
    fn gradient_of_constant_circuit_is_all_zero() {
        let c = builders::qft(3).unwrap();
        let mut vm = vm_for(&c, DiffMode::Gradient);
        let r = vm.evaluate(&[]);
        assert!(r.gradient.is_empty());
        assert!(r.unitary.is_unitary(1e-12));
    }

    #[test]
    fn shared_parameter_gradient_sums_contributions() {
        // Two RX gates bound to the *same* circuit parameter: dU/dθ must apply the
        // product rule across both occurrences. Build it by using a single parameterized
        // RX twice through a manually constructed circuit with one parameter.
        // The circuit API allocates distinct parameters per append, so emulate the
        // shared-parameter case with RZZ acting on overlapping wires instead:
        // U(θ) = RZZ(θ) on (0,1) then RZZ(θ') on (1,2); independence is the default, so
        // just validate gradient correctness on the overlapping-support composition.
        let mut c = QuditCircuit::qubits(3);
        let rzz = c.cache_operation(gates::rzz()).unwrap();
        c.append_ref(rzz, vec![0, 1]).unwrap();
        c.append_ref(rzz, vec![1, 2]).unwrap();
        let params = [0.4, -1.2];
        let mut vm = vm_for(&c, DiffMode::Gradient);
        let r = vm.evaluate(&params);
        let h = 1e-6;
        for k in 0..2 {
            let mut plus = params.to_vec();
            let mut minus = params.to_vec();
            plus[k] += h;
            minus[k] -= h;
            let fd = c
                .unitary::<f64>(&plus)
                .unwrap()
                .sub(&c.unitary::<f64>(&minus).unwrap())
                .unwrap()
                .scale(qudit_tensor::C64::from_real(1.0 / (2.0 * h)));
            assert!(r.gradient[k].max_elementwise_distance(&fd) < 1e-5);
        }
    }

    #[test]
    fn f32_precision_agrees_with_f64() {
        let c = builders::pqc_qubit_ladder(3, 2).unwrap();
        let program = compile_network(&TensorNetwork::from_circuit(&c));
        let cache = ExpressionCache::new();
        let mut vm64: Tnvm<f64> = Tnvm::new(&program, DiffMode::Gradient, &cache);
        let mut vm32: Tnvm<f32> = Tnvm::new(&program, DiffMode::Gradient, &cache);
        let params = random_params(c.num_params(), 3);
        let params32: Vec<f32> = params.iter().map(|&p| p as f32).collect();
        let r64 = vm64.evaluate(&params);
        let r32 = vm32.evaluate(&params32);
        assert!(r32.unitary.to_f64().max_elementwise_distance(&r64.unitary) < 1e-4);
        assert!(r32.gradient[0].to_f64().max_elementwise_distance(&r64.gradient[0]) < 1e-3);
    }

    #[test]
    fn memory_footprint_is_reported_and_modest() {
        let c = builders::pqc_qubit_ladder(3, 2).unwrap();
        let program = compile_network(&TensorNetwork::from_circuit(&c));
        let vm: Tnvm<f64> = Tnvm::new(&program, DiffMode::Gradient, &ExpressionCache::new());
        let bytes = vm.memory_bytes();
        assert!(bytes > 0);
        // The 3-qubit benchmarks must stay in the hundreds-of-kilobytes range (paper
        // reports ~211 KB for its shallow 3-qubit gradient workload).
        assert!(bytes < 2_000_000, "memory footprint unexpectedly large: {bytes} bytes");
    }

    #[test]
    fn cache_shared_across_vm_instantiations() {
        let c = builders::pqc_qubit_ladder(3, 2).unwrap();
        let program = compile_network(&TensorNetwork::from_circuit(&c));
        let cache = ExpressionCache::new();
        let _vm1: Tnvm<f64> = Tnvm::new(&program, DiffMode::Gradient, &cache);
        let misses_after_first = cache.stats().misses;
        let _vm2: Tnvm<f64> = Tnvm::new(&program, DiffMode::Gradient, &cache);
        assert_eq!(cache.stats().misses, misses_after_first, "second init should hit the cache");
        assert!(cache.stats().hits > 0);
    }

    #[test]
    fn load_retargets_vm_at_extended_program() {
        // The recompile-on-expansion path: one VM serves a sequence of growing
        // circuits, with results identical to freshly constructed VMs.
        let cache = ExpressionCache::new();
        let small = builders::pqc_qubit_ladder(2, 1).unwrap();
        let big = builders::pqc_qubit_ladder(2, 3).unwrap();
        let small_prog = compile_network(&TensorNetwork::from_circuit(&small));
        let big_prog = compile_network(&TensorNetwork::from_circuit(&big));

        let mut vm: Tnvm<f64> = Tnvm::new(&small_prog, DiffMode::Gradient, &cache);
        let p_small = random_params(small.num_params(), 4);
        let before = vm.evaluate(&p_small);

        vm.load(&big_prog, &cache);
        assert_eq!(vm.num_params(), big.num_params());
        let p_big = random_params(big.num_params(), 8);
        let extended = vm.evaluate(&p_big);
        let reference = big.unitary::<f64>(&p_big).unwrap();
        assert!(extended.unitary.max_elementwise_distance(&reference) < 1e-10);
        assert_eq!(extended.gradient.len(), big.num_params());

        // Loading back down also works, and reproduces the original result exactly.
        vm.load(&small_prog, &cache);
        let again = vm.evaluate(&p_small);
        assert!(again.unitary.max_elementwise_distance(&before.unitary) < 1e-14);
    }

    fn assert_bits_equal<T: Float>(a: &Matrix<T>, b: &Matrix<T>, what: &str) {
        let bits = |m: &Matrix<T>| -> Vec<(u64, u64)> {
            m.as_slice()
                .iter()
                .map(|z| (z.re.to_f64().to_bits(), z.im.to_f64().to_bits()))
                .collect()
        };
        assert_eq!(bits(a), bits(b), "{what}");
    }

    /// Runs every registered radix mix through one VM re-targeted with `load` (after a
    /// discarded value sweep at other parameters, like a rejected LM trial) and checks
    /// `evaluate_unitary` + `gradient` against a fresh VM's `evaluate`, bit for bit.
    fn check_split_sweeps<T: Float>(to_t: fn(f64) -> T) {
        let cache = ExpressionCache::new();
        let mut split: Option<Tnvm<T>> = None;
        for radices in
            [vec![2, 2], vec![3, 3], vec![4, 4], vec![2, 3], vec![2, 4], vec![3, 4], vec![2, 3, 4]]
        {
            let edges: Vec<(usize, usize)> = (0..radices.len() - 1).map(|q| (q, q + 1)).collect();
            let circuit = builders::pqc_template(&radices, &edges).unwrap();
            let program = compile_network(&TensorNetwork::from_circuit(&circuit));
            let vm = match split.as_mut() {
                Some(vm) => {
                    vm.load(&program, &cache);
                    vm
                }
                None => split.insert(Tnvm::new(&program, DiffMode::Gradient, &cache)),
            };
            let params: Vec<T> =
                random_params(circuit.num_params(), 41).into_iter().map(to_t).collect();
            let other: Vec<T> =
                random_params(circuit.num_params(), 42).into_iter().map(to_t).collect();
            let full = Tnvm::<T>::new(&program, DiffMode::Gradient, &cache).evaluate(&params);
            let _rejected = vm.evaluate_unitary(&other);
            let unitary = vm.evaluate_unitary(&params);
            let gradient = vm.gradient();
            assert_bits_equal(&unitary, &full.unitary, &format!("{radices:?} unitary"));
            assert_eq!(gradient.len(), full.gradient.len());
            for (k, (g, f)) in gradient.iter().zip(&full.gradient).enumerate() {
                assert_bits_equal(g, f, &format!("{radices:?} gradient {k}"));
            }
        }
    }

    #[test]
    fn split_sweeps_are_bit_identical_to_evaluate() {
        check_split_sweeps::<f64>(|x| x);
        check_split_sweeps::<f32>(|x| x as f32);
    }

    #[test]
    fn value_sweep_counts_one_evaluation_and_full_evaluate_tallies_both_sweeps() {
        let c = builders::pqc_qubit_ladder(3, 2).unwrap();
        let program = compile_network(&TensorNetwork::from_circuit(&c));
        let cache = ExpressionCache::new();
        let params = random_params(c.num_params(), 9);
        let mut split: Tnvm<f64> = Tnvm::new(&program, DiffMode::Gradient, &cache);
        let mut full: Tnvm<f64> = Tnvm::new(&program, DiffMode::Gradient, &cache);
        split.take_counters();
        full.take_counters();
        let _ = split.evaluate_unitary(&params);
        let values_only = *split.counters();
        assert_eq!(values_only.evaluations, 1);
        let _ = split.gradient();
        let _ = full.evaluate(&params);
        assert_eq!(split.counters(), full.counters(), "the two sweeps tally like one evaluate");
        assert!(values_only.flops.iter().sum::<u64>() < full.counters().flops.iter().sum());
    }

    #[test]
    #[should_panic(expected = "preceding value sweep")]
    fn gradient_sweep_requires_a_value_sweep() {
        let c = builders::pqc_qubit_ladder(2, 1).unwrap();
        let mut vm = vm_for(&c, DiffMode::Gradient);
        let _ = vm.gradient();
    }

    #[test]
    #[should_panic(expected = "TNVM expects")]
    fn wrong_parameter_count_panics() {
        let c = builders::pqc_qubit_ladder(2, 1).unwrap();
        let mut vm = vm_for(&c, DiffMode::None);
        let _ = vm.evaluate(&[0.0]);
    }

    /// 64-bit FNV-1a over the bits of the unitary, then of every gradient block.
    fn result_hash(result: &EvalResult<f64>) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for m in std::iter::once(&result.unitary).chain(&result.gradient) {
            for z in m.as_slice() {
                for byte in
                    z.re.to_bits().to_le_bytes().into_iter().chain(z.im.to_bits().to_le_bytes())
                {
                    hash ^= u64::from(byte);
                    hash = hash.wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        hash
    }

    #[test]
    fn blocked_backend_is_bit_identical_to_scalar() {
        // The 3-qubit 2-layer ladder at seed 11, pinned in both differentiation modes.
        let c = builders::pqc_qubit_ladder(3, 2).unwrap();
        let program = compile_network(&TensorNetwork::from_circuit(&c));
        let cache = ExpressionCache::new();
        let params = random_params(c.num_params(), 11);
        for (diff, pin) in
            [(DiffMode::None, 0x69cc_6fe3_2c61_a6a6), (DiffMode::Gradient, 0xa5ee_0e65_623e_68b5)]
        {
            let mut vm = Tnvm::<f64>::new(&program, diff, &cache);
            let hash = result_hash(&vm.evaluate(&params));
            assert_eq!(hash, pin, "{diff:?}: fingerprint {hash:#018x}");
        }
    }

    #[test]
    fn counters_track_dispatch_and_cache() {
        let c = builders::pqc_qubit_ladder(3, 2).unwrap();
        let program = compile_network(&TensorNetwork::from_circuit(&c));
        let cache = ExpressionCache::new();
        let mut vm: Tnvm<f64> = Tnvm::new(&program, DiffMode::Gradient, &cache);
        let after_init = *vm.counters();
        assert!(after_init.cache_misses > 0, "cold cache must record misses");
        assert_eq!(after_init.evaluations, 0);
        let params = random_params(c.num_params(), 17);
        let _ = vm.evaluate(&params);
        let taken = vm.take_counters();
        assert_eq!(taken.evaluations, 1);
        assert!(taken.writes > after_init.writes, "dynamic WRITEs must count");
        assert!(taken.kron > 0, "a ladder circuit KRONs");
        assert!(vm.counters().is_empty(), "take_counters must reset");
    }

    #[test]
    fn tiers_split_identical_dispatch_totals_differently() {
        // One gradient evaluation of the 3-qubit 2-layer ladder: MATMUL and KRON
        // dispatches and the flop estimate, pinned.
        let c = builders::pqc_qubit_ladder(3, 2).unwrap();
        let program = compile_network(&TensorNetwork::from_circuit(&c));
        let cache = ExpressionCache::new();
        let params = random_params(c.num_params(), 17);
        let mut vm = Tnvm::<f64>::new(&program, DiffMode::Gradient, &cache);
        vm.take_counters();
        let _ = vm.evaluate(&params);
        let counters = vm.take_counters();
        let totals = (counters.matmul, counters.kron, counters.flops.iter().sum::<u64>());
        assert_eq!(totals, (52, 45, 174_048), "(matmul, kron, flops)");
        assert_eq!((counters.writes, counters.transposes), (7, 1));
    }

    #[test]
    fn memory_bytes_accounts_for_kernel_workspace() {
        // Value arena, gradient arena and staging on the 3-qubit gradient ladder and
        // the 6-qubit value-only ladder, in bytes.
        let cache = ExpressionCache::new();
        for (n, layers, diff, pin) in
            [(3usize, 2usize, DiffMode::Gradient, 83_664usize), (6, 1, DiffMode::None, 338_896)]
        {
            let c = builders::pqc_qubit_ladder(n, layers).unwrap();
            let program = compile_network(&TensorNetwork::from_circuit(&c));
            let vm = Tnvm::<f64>::new(&program, diff, &cache);
            assert_eq!(vm.memory_bytes(), pin, "{n}-qubit ladder");
        }
    }

    #[test]
    fn load_keeps_backend_and_relowers() {
        // A VM re-targeted with `load` up to a larger program and back reproduces
        // fresh VMs of each program bit for bit.
        let cache = ExpressionCache::new();
        let small = builders::pqc_qubit_ladder(2, 1).unwrap();
        let big = builders::pqc_qubit_ladder(3, 2).unwrap();
        let small_prog = compile_network(&TensorNetwork::from_circuit(&small));
        let big_prog = compile_network(&TensorNetwork::from_circuit(&big));
        let p_small = random_params(small.num_params(), 2);
        let p_big = random_params(big.num_params(), 3);
        let fresh = |program: &TnvmProgram, params: &[f64]| {
            Tnvm::<f64>::new(program, DiffMode::Gradient, &cache).evaluate(params)
        };
        let mut vm = Tnvm::<f64>::new(&small_prog, DiffMode::Gradient, &cache);
        let _ = vm.evaluate(&p_small);
        vm.load(&big_prog, &cache);
        assert_eq!(result_hash(&vm.evaluate(&p_big)), result_hash(&fresh(&big_prog, &p_big)));
        vm.load(&small_prog, &cache);
        assert_eq!(result_hash(&vm.evaluate(&p_small)), result_hash(&fresh(&small_prog, &p_small)));
    }
}
