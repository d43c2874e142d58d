//! Layer 1: the TNVM bytecode verifier.
//!
//! [`verify_program`] runs the full per-instruction typing discipline over both
//! bytecode sections — shapes, arities, radices, parameter-dependence annotations,
//! output aliasing — on top of the dataflow check
//! ([`TnvmProgram::validate`]).

use qudit_network::{InstrRef, TnvmOp, TnvmProgram};

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
