//! Layer 1: the TNVM bytecode / [`ExecPlan`] verifier.
//!
//! [`verify_program`] runs the full per-instruction typing discipline over both
//! bytecode sections — shapes, arities, radices, parameter-dependence annotations,
//! output aliasing — on top of the dataflow check
//! ([`TnvmProgram::validate`]). [`verify_plan`] then checks a lowered [`ExecPlan`]
//! against the tier's [`TargetDescriptor`]: section alignment, [`KernelSel`]
//! legality (blocked kernels only where the descriptor's thresholds are met, and
//! only on instructions that have a blocked implementation), and workspace bounds
//! for every blocked GEMM. [`verify_backend`] combines lowering and plan
//! verification for one registered tier.

use qudit_network::{InstrRef, TnvmOp, TnvmProgram};
use qudit_tensor::gemm;
use qudit_tnvm::{BackendKind, ExecPlan, KernelSel, TargetDescriptor};

use crate::AnalyzeError;

/// A typing violation inside a [`TnvmProgram`], naming the offending instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgramViolation {
    /// A qudit radix below 2.
    RadixTooSmall {
        /// Index of the qudit.
        index: usize,
        /// The offending radix.
        radix: usize,
    },
    /// The output buffer's shape does not match the program's Hilbert dimension.
    OutputShape {
        /// What was found versus what the radices require.
        detail: String,
    },
    /// A WRITE references an expression outside the expression table.
    ExprOutOfRange {
        /// The offending instruction.
        at: InstrRef,
        /// The out-of-range expression index.
        expr_index: usize,
        /// The expression-table length.
        table_len: usize,
    },
    /// A WRITE's binding count disagrees with its expression's parameter count.
    BindingArity {
        /// The offending instruction.
        at: InstrRef,
        /// The expression's parameter count.
        expected: usize,
        /// The binding count found.
        found: usize,
    },
    /// A WRITE binds a circuit parameter outside the program's parameter range.
    BindingOutOfRange {
        /// The offending instruction.
        at: InstrRef,
        /// The out-of-range circuit-parameter index.
        param: usize,
        /// The program's parameter count.
        num_params: usize,
    },
    /// An instruction's operand/output shapes are inconsistent.
    ShapeMismatch {
        /// The offending instruction.
        at: InstrRef,
        /// What disagreed.
        detail: String,
    },
    /// A TRANSPOSE's permutation is not a permutation of its axes.
    BadPermutation {
        /// The offending instruction.
        at: InstrRef,
        /// What disagreed.
        detail: String,
    },
    /// An instruction's output buffer is also one of its inputs (the interpreter's
    /// slice-disjointness contract forbids this).
    OutputAliasing {
        /// The offending instruction.
        at: InstrRef,
        /// The aliased buffer.
        buf: usize,
    },
    /// An instruction's output parameter-dependence annotation disagrees with its
    /// inputs (dependence must propagate as the exact sorted union).
    ParamAnnotation {
        /// The offending instruction.
        at: InstrRef,
        /// What disagreed.
        detail: String,
    },
    /// A buffer's parameter-dependence annotation is malformed (unsorted, duplicated,
    /// or out of range).
    BufferParams {
        /// The offending buffer.
        buf: usize,
        /// What is malformed.
        detail: String,
    },
    /// A constant-section instruction produces a parameter-dependent buffer (the
    /// constant section executes once, before any parameters exist).
    ConstantSectionParams {
        /// The offending instruction.
        at: InstrRef,
        /// Its parameter-dependent output buffer.
        buf: usize,
    },
}

impl std::fmt::Display for ProgramViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgramViolation::RadixTooSmall { index, radix } => {
                write!(f, "qudit {index} has radix {radix} (must be at least 2)")
            }
            ProgramViolation::OutputShape { detail } => {
                write!(f, "output buffer shape mismatch: {detail}")
            }
            ProgramViolation::ExprOutOfRange { at, expr_index, table_len } => write!(
                f,
                "instruction {at} references expression {expr_index} of a {table_len}-entry table"
            ),
            ProgramViolation::BindingArity { at, expected, found } => write!(
                f,
                "instruction {at} binds {found} parameter(s) but its expression has {expected}"
            ),
            ProgramViolation::BindingOutOfRange { at, param, num_params } => write!(
                f,
                "instruction {at} binds circuit parameter {param} of a {num_params}-parameter program"
            ),
            ProgramViolation::ShapeMismatch { at, detail } => {
                write!(f, "instruction {at} shape mismatch: {detail}")
            }
            ProgramViolation::BadPermutation { at, detail } => {
                write!(f, "instruction {at} bad permutation: {detail}")
            }
            ProgramViolation::OutputAliasing { at, buf } => {
                write!(f, "instruction {at} aliases buffer {buf} as both input and output")
            }
            ProgramViolation::ParamAnnotation { at, detail } => {
                write!(f, "instruction {at} parameter-dependence mismatch: {detail}")
            }
            ProgramViolation::BufferParams { buf, detail } => {
                write!(f, "buffer {buf} has malformed parameter annotation: {detail}")
            }
            ProgramViolation::ConstantSectionParams { at, buf } => write!(
                f,
                "constant-section instruction {at} writes parameter-dependent buffer {buf}"
            ),
        }
    }
}

/// A legality violation in an [`ExecPlan`] against its tier's descriptor.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanViolation {
    /// A kernel-selection vector is not index-aligned with its bytecode section.
    SectionLength {
        /// `"constant"` or `"dynamic"`.
        section: &'static str,
        /// The section's instruction count.
        expected: usize,
        /// The plan's selection count.
        found: usize,
    },
    /// A blocked kernel was selected where the tier's descriptor forbids it.
    IllegalKernel {
        /// The offending instruction.
        at: InstrRef,
        /// The tier whose descriptor was violated.
        tier: String,
        /// Why the selection is illegal.
        detail: String,
    },
    /// The plan's workspace is too small for a blocked GEMM it schedules.
    WorkspaceOverflow {
        /// The offending instruction.
        at: InstrRef,
        /// The workspace length the blocked kernel needs.
        required: usize,
        /// The workspace length the plan provides.
        provided: usize,
    },
}

impl std::fmt::Display for PlanViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanViolation::SectionLength { section, expected, found } => write!(
                f,
                "{section} kernel selections ({found}) are not aligned with the \
                 {section} section ({expected} instruction(s))"
            ),
            PlanViolation::IllegalKernel { at, tier, detail } => {
                write!(f, "instruction {at} has an illegal kernel for tier '{tier}': {detail}")
            }
            PlanViolation::WorkspaceOverflow { at, required, provided } => write!(
                f,
                "instruction {at} needs a {required}-scalar workspace but the plan \
                 provides {provided}"
            ),
        }
    }
}

/// What [`verify_program`] measured while checking (fed into the `analyze.*` trace
/// counters by the pipeline's verify pass).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProgramReport {
    /// Instructions checked across both sections.
    pub instructions: usize,
    /// Buffers whose annotations were checked.
    pub buffers: usize,
}

fn params_sorted_dedup(params: &[usize]) -> bool {
    params.windows(2).all(|w| w[0] < w[1])
}

/// Verifies the full per-instruction typing discipline of a [`TnvmProgram`].
///
/// Runs the dataflow check first ([`TnvmProgram::validate`]: single assignment,
/// def-before-use, output written), then checks, for every instruction of both
/// sections: operand/output shape consistency, WRITE expression/binding arity and
/// binding ranges, TRANSPOSE shape/permutation validity, output aliasing, exact
/// parameter-dependence propagation, and constant-section parameter independence;
/// plus buffer-annotation well-formedness, radix sanity, and the output buffer's
/// shape against the program's radices.
///
/// # Errors
///
/// Returns the first [`AnalyzeError`] violated, naming the offending instruction.
pub fn verify_program(program: &TnvmProgram) -> Result<ProgramReport, AnalyzeError> {
    program.validate()?;

    for (index, &radix) in program.radices.iter().enumerate() {
        if radix < 2 {
            return Err(ProgramViolation::RadixTooSmall { index, radix }.into());
        }
    }
    for (buf, info) in program.buffers.iter().enumerate() {
        if !params_sorted_dedup(&info.params) {
            return Err(ProgramViolation::BufferParams {
                buf,
                detail: format!("{:?} is not strictly ascending", info.params),
            }
            .into());
        }
        if let Some(&p) = info.params.last() {
            if p >= program.num_params {
                return Err(ProgramViolation::BufferParams {
                    buf,
                    detail: format!(
                        "depends on parameter {p} of a {}-parameter program",
                        program.num_params
                    ),
                }
                .into());
            }
        }
    }

    let mut report = ProgramReport { instructions: 0, buffers: program.buffers.len() };
    let sections = [(true, &program.constant_ops), (false, &program.dynamic_ops)];
    for (constant, ops) in sections {
        for (index, op) in ops.iter().enumerate() {
            let at = InstrRef { constant, index };
            report.instructions += 1;
            verify_op(program, op, at)?;
            if constant && !program.buffers[op.out()].params.is_empty() {
                return Err(ProgramViolation::ConstantSectionParams { at, buf: op.out() }.into());
            }
        }
    }

    let out = &program.buffers[program.output];
    let dim = program.dim();
    if out.rows != dim || out.cols != dim {
        return Err(ProgramViolation::OutputShape {
            detail: format!(
                "radices {:?} require {dim}x{dim}, output buffer {} is {}x{}",
                program.radices, program.output, out.rows, out.cols
            ),
        }
        .into());
    }
    Ok(report)
}

fn verify_op(program: &TnvmProgram, op: &TnvmOp, at: InstrRef) -> Result<(), AnalyzeError> {
    let buffers = &program.buffers;
    // Aliasing: the interpreter hands out disjoint sub-slices of one arena, so an
    // output that is also an input would be undefined behavior territory (and panics
    // in the slice-splitting helper today).
    for input in op.inputs() {
        if input == op.out() {
            return Err(ProgramViolation::OutputAliasing { at, buf: input }.into());
        }
    }
    match op {
        TnvmOp::Write { expr_index, bindings, out } => {
            let Some(expr) = program.exprs.get(*expr_index) else {
                return Err(ProgramViolation::ExprOutOfRange {
                    at,
                    expr_index: *expr_index,
                    table_len: program.exprs.len(),
                }
                .into());
            };
            if bindings.len() != expr.num_params() {
                return Err(ProgramViolation::BindingArity {
                    at,
                    expected: expr.num_params(),
                    found: bindings.len(),
                }
                .into());
            }
            let dim = expr.dim();
            let out_info = &buffers[*out];
            if out_info.rows != dim || out_info.cols != dim {
                return Err(ProgramViolation::ShapeMismatch {
                    at,
                    detail: format!(
                        "expression '{}' produces {dim}x{dim}, output buffer {out} is {}x{}",
                        expr.name(),
                        out_info.rows,
                        out_info.cols
                    ),
                }
                .into());
            }
            let mut circuit_params: Vec<usize> = Vec::new();
            for binding in bindings {
                if let Some(p) = binding.circuit_index() {
                    if p >= program.num_params {
                        return Err(ProgramViolation::BindingOutOfRange {
                            at,
                            param: p,
                            num_params: program.num_params,
                        }
                        .into());
                    }
                    circuit_params.push(p);
                }
            }
            circuit_params.sort_unstable();
            circuit_params.dedup();
            if out_info.params != circuit_params {
                return Err(ProgramViolation::ParamAnnotation {
                    at,
                    detail: format!(
                        "bindings depend on {:?}, output buffer {out} is annotated {:?}",
                        circuit_params, out_info.params
                    ),
                }
                .into());
            }
        }
        TnvmOp::Matmul { a, b, out } => {
            let (ai, bi, oi) = (&buffers[*a], &buffers[*b], &buffers[*out]);
            if ai.cols != bi.rows || oi.rows != ai.rows || oi.cols != bi.cols {
                return Err(ProgramViolation::ShapeMismatch {
                    at,
                    detail: format!(
                        "matmul ({}x{}) . ({}x{}) -> ({}x{})",
                        ai.rows, ai.cols, bi.rows, bi.cols, oi.rows, oi.cols
                    ),
                }
                .into());
            }
            check_union_params(program, at, &[*a, *b], *out)?;
        }
        TnvmOp::Kron { a, b, out } => {
            let (ai, bi, oi) = (&buffers[*a], &buffers[*b], &buffers[*out]);
            if oi.rows != ai.rows * bi.rows || oi.cols != ai.cols * bi.cols {
                return Err(ProgramViolation::ShapeMismatch {
                    at,
                    detail: format!(
                        "kron ({}x{}) x ({}x{}) -> ({}x{})",
                        ai.rows, ai.cols, bi.rows, bi.cols, oi.rows, oi.cols
                    ),
                }
                .into());
            }
            check_union_params(program, at, &[*a, *b], *out)?;
        }
        TnvmOp::Hadamard { a, b, out } => {
            let (ai, bi, oi) = (&buffers[*a], &buffers[*b], &buffers[*out]);
            if ai.rows != bi.rows || ai.cols != bi.cols || oi.rows != ai.rows || oi.cols != ai.cols
            {
                return Err(ProgramViolation::ShapeMismatch {
                    at,
                    detail: format!(
                        "hadamard ({}x{}) o ({}x{}) -> ({}x{})",
                        ai.rows, ai.cols, bi.rows, bi.cols, oi.rows, oi.cols
                    ),
                }
                .into());
            }
            check_union_params(program, at, &[*a, *b], *out)?;
        }
        TnvmOp::Transpose { input, shape, perm, out } => {
            let (ii, oi) = (&buffers[*input], &buffers[*out]);
            if perm.len() != shape.len() {
                return Err(ProgramViolation::BadPermutation {
                    at,
                    detail: format!(
                        "permutation has {} entries for a {}-axis shape",
                        perm.len(),
                        shape.len()
                    ),
                }
                .into());
            }
            let mut seen = vec![false; shape.len()];
            for &axis in perm {
                if axis >= shape.len() || seen[axis] {
                    return Err(ProgramViolation::BadPermutation {
                        at,
                        detail: format!("{perm:?} is not a permutation of 0..{}", shape.len()),
                    }
                    .into());
                }
                seen[axis] = true;
            }
            let volume: usize = shape.iter().product();
            if volume != ii.len() {
                return Err(ProgramViolation::ShapeMismatch {
                    at,
                    detail: format!(
                        "shape {shape:?} covers {volume} element(s), input buffer {input} \
                         holds {}",
                        ii.len()
                    ),
                }
                .into());
            }
            if oi.len() != ii.len() {
                return Err(ProgramViolation::ShapeMismatch {
                    at,
                    detail: format!(
                        "transpose preserves {} element(s), output buffer {out} holds {}",
                        ii.len(),
                        oi.len()
                    ),
                }
                .into());
            }
            check_union_params(program, at, &[*input], *out)?;
        }
    }
    Ok(())
}

fn check_union_params(
    program: &TnvmProgram,
    at: InstrRef,
    inputs: &[usize],
    out: usize,
) -> Result<(), AnalyzeError> {
    let mut union: Vec<usize> =
        inputs.iter().flat_map(|&b| program.buffers[b].params.iter().copied()).collect();
    union.sort_unstable();
    union.dedup();
    if program.buffers[out].params != union {
        return Err(ProgramViolation::ParamAnnotation {
            at,
            detail: format!(
                "inputs depend on {:?}, output buffer {out} is annotated {:?}",
                union, program.buffers[out].params
            ),
        }
        .into());
    }
    Ok(())
}

/// Verifies an [`ExecPlan`]'s legality against a tier's [`TargetDescriptor`].
///
/// Checks that both kernel-selection vectors are index-aligned with the bytecode
/// sections, that every [`KernelSel::Blocked`] selection lands on an instruction
/// family with a blocked implementation (MATMUL, KRON) *and* clears the descriptor's
/// threshold for it, and that the plan's workspace covers every blocked GEMM it
/// schedules. Scalar selections are always legal — a tier may lower conservatively,
/// never aggressively.
///
/// # Errors
///
/// Returns the first [`AnalyzeError`] violated, naming the offending instruction.
pub fn verify_plan(
    program: &TnvmProgram,
    plan: &ExecPlan,
    descriptor: &TargetDescriptor,
    tier: &str,
) -> Result<(), AnalyzeError> {
    if plan.constant_kernels.len() != program.constant_ops.len() {
        return Err(PlanViolation::SectionLength {
            section: "constant",
            expected: program.constant_ops.len(),
            found: plan.constant_kernels.len(),
        }
        .into());
    }
    if plan.dynamic_kernels.len() != program.dynamic_ops.len() {
        return Err(PlanViolation::SectionLength {
            section: "dynamic",
            expected: program.dynamic_ops.len(),
            found: plan.dynamic_kernels.len(),
        }
        .into());
    }
    let sections = [
        (true, &program.constant_ops, &plan.constant_kernels),
        (false, &program.dynamic_ops, &plan.dynamic_kernels),
    ];
    for (constant, ops, kernels) in sections {
        for (index, (op, sel)) in ops.iter().zip(kernels.iter()).enumerate() {
            if *sel != KernelSel::Blocked {
                continue;
            }
            let at = InstrRef { constant, index };
            match op {
                TnvmOp::Matmul { a, b, .. } => {
                    let m = program.buffers[*a].rows;
                    let k = program.buffers[*a].cols;
                    let n = program.buffers[*b].cols;
                    if m * n * k < descriptor.min_blocked_flops {
                        return Err(PlanViolation::IllegalKernel {
                            at,
                            tier: tier.to_string(),
                            detail: format!(
                                "blocked matmul below the flop threshold \
                                 ({m}*{n}*{k} < {})",
                                descriptor.min_blocked_flops
                            ),
                        }
                        .into());
                    }
                    let required = gemm::blocked_workspace_len(k);
                    if required > plan.workspace_scalars {
                        return Err(PlanViolation::WorkspaceOverflow {
                            at,
                            required,
                            provided: plan.workspace_scalars,
                        }
                        .into());
                    }
                }
                TnvmOp::Kron { out, .. } => {
                    let len = program.buffers[*out].len();
                    if len < descriptor.min_blocked_kron {
                        return Err(PlanViolation::IllegalKernel {
                            at,
                            tier: tier.to_string(),
                            detail: format!(
                                "blocked kron below the output threshold ({len} < {})",
                                descriptor.min_blocked_kron
                            ),
                        }
                        .into());
                    }
                }
                _ => {
                    return Err(PlanViolation::IllegalKernel {
                        at,
                        tier: tier.to_string(),
                        detail: "only MATMUL and KRON have blocked kernels".to_string(),
                    }
                    .into());
                }
            }
        }
    }
    Ok(())
}

/// Lowers `program` through one registered tier and verifies the resulting plan
/// against that tier's own descriptor.
///
/// # Errors
///
/// Returns the first [`AnalyzeError`] violated (program typing is *not* re-checked
/// here — run [`verify_program`] first).
pub fn verify_backend(program: &TnvmProgram, kind: BackendKind) -> Result<ExecPlan, AnalyzeError> {
    let backend = kind.instance();
    let plan = backend.lower(program);
    verify_plan(program, &plan, &backend.descriptor(), kind.name())?;
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qudit_circuit::builders;
    use qudit_network::{compile_network, TensorNetwork};

    fn program_for(radices: &[usize]) -> TnvmProgram {
        let blocks: Vec<(usize, usize)> = (0..radices.len() - 1).map(|i| (i, i + 1)).collect();
        let circuit = builders::pqc_template(radices, &blocks).unwrap();
        compile_network(&TensorNetwork::from_circuit(&circuit))
    }

    #[test]
    fn codegen_output_verifies_clean_across_radix_mixes() {
        for radices in [vec![2, 2], vec![3, 3], vec![2, 3], vec![2, 2, 2]] {
            let program = program_for(&radices);
            let report = verify_program(&program).unwrap();
            assert!(report.instructions >= program.len());
            for kind in BackendKind::all() {
                verify_backend(&program, kind).unwrap();
            }
        }
    }

    #[test]
    fn shape_corruption_is_rejected_with_the_instruction_named() {
        let mut program = program_for(&[2, 2]);
        // Corrupt the first dynamic instruction's output buffer shape.
        let out = program.dynamic_ops[0].out();
        program.buffers[out].rows += 1;
        let err = verify_program(&program).unwrap_err();
        let msg = err.to_string();
        assert!(
            matches!(
                err,
                AnalyzeError::Program(ProgramViolation::ShapeMismatch { .. })
                    | AnalyzeError::Program(ProgramViolation::OutputShape { .. })
            ),
            "{err:?}"
        );
        assert!(msg.contains("dynamic[0]") || msg.contains("output buffer"), "{msg}");
    }

    #[test]
    fn scalar_tier_plan_with_blocked_kernel_is_illegal() {
        let program = program_for(&[2, 2]);
        let mut plan = BackendKind::Scalar.instance().lower(&program);
        // Force a blocked selection the scalar descriptor forbids.
        let idx = program
            .dynamic_ops
            .iter()
            .position(|op| matches!(op, TnvmOp::Matmul { .. } | TnvmOp::Kron { .. }))
            .expect("pqc template contracts at least once dynamically");
        plan.dynamic_kernels[idx] = KernelSel::Blocked;
        let err = verify_plan(&program, &plan, &TargetDescriptor::scalar(), "scalar").unwrap_err();
        match &err {
            AnalyzeError::Plan(PlanViolation::IllegalKernel { at, tier, .. }) => {
                assert!(!at.constant);
                assert_eq!(at.index, idx);
                assert_eq!(tier, "scalar");
            }
            other => panic!("expected IllegalKernel, got {other:?}"),
        }
        assert!(err.to_string().contains(&format!("dynamic[{idx}]")));
    }

    #[test]
    fn workspace_overflow_is_rejected() {
        let program = program_for(&[2, 2]);
        let idx = program
            .dynamic_ops
            .iter()
            .position(|op| matches!(op, TnvmOp::Matmul { .. }))
            .expect("pqc template multiplies overlapping supports");
        // A permissive descriptor makes the blocked selection legal, so the
        // too-small workspace is the first violation.
        let permissive = TargetDescriptor { min_blocked_flops: 1, min_blocked_kron: 1 };
        let mut plan = ExecPlan {
            constant_kernels: vec![KernelSel::Scalar; program.constant_ops.len()],
            dynamic_kernels: vec![KernelSel::Scalar; program.dynamic_ops.len()],
            workspace_scalars: 0,
        };
        plan.dynamic_kernels[idx] = KernelSel::Blocked;
        let err = verify_plan(&program, &plan, &permissive, "custom").unwrap_err();
        assert!(
            matches!(err, AnalyzeError::Plan(PlanViolation::WorkspaceOverflow { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn section_misalignment_is_rejected() {
        let program = program_for(&[2, 2]);
        let mut plan = BackendKind::Scalar.instance().lower(&program);
        plan.dynamic_kernels.pop();
        let err = verify_plan(&program, &plan, &TargetDescriptor::scalar(), "scalar").unwrap_err();
        assert!(matches!(err, AnalyzeError::Plan(PlanViolation::SectionLength { .. })), "{err:?}");
    }

    #[test]
    fn dataflow_corruption_surfaces_as_bytecode_error() {
        let mut program = program_for(&[2, 2]);
        let out = program.dynamic_ops[0].out();
        // Duplicate the first dynamic instruction: a double write.
        let dup = program.dynamic_ops[0].clone();
        program.dynamic_ops.push(dup);
        let err = verify_program(&program).unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, AnalyzeError::Bytecode(_)), "{err:?}");
        assert!(msg.contains(&format!("buffer {out}")), "{msg}");
    }
}
