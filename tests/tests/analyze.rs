//! Conformance suite for the static-analysis layer (`qudit-analyze`): the TNVM
//! bytecode verifier, the interleaved `Compiler::verify` knob and explicit
//! [`VerifyPass`], and the `detlint` determinism linter — including a proptest
//! mutation campaign asserting that random single-field corruptions of valid
//! programs are always rejected with a typed error and never panic.

use std::sync::OnceLock;

use openqudit::analyze::detlint;
use openqudit::circuit::builders;
use openqudit::prelude::*;
use proptest::prelude::*;

/// The radix mixes compiled programs must verify cleanly on: qubit pair, qutrit
/// pair, the mixed pair, and a three-qubit chain.
const RADIX_MIXES: [&[usize]; 4] = [&[2, 2], &[3, 3], &[2, 3], &[2, 2, 2]];

/// Compiles a PQC template over `radices` (nearest-neighbour couplings) down to
/// TNVM bytecode.
fn compiled_program(radices: &[usize]) -> TnvmProgram {
    let couplings: Vec<(usize, usize)> = (0..radices.len() - 1).map(|i| (i, i + 1)).collect();
    let circuit = builders::pqc_template(radices, &couplings).unwrap();
    try_compile_network(&TensorNetwork::from_circuit(&circuit)).unwrap()
}

/// One compiled program per radix mix, shared across proptest cases.
fn programs() -> &'static Vec<TnvmProgram> {
    static PROGRAMS: OnceLock<Vec<TnvmProgram>> = OnceLock::new();
    PROGRAMS.get_or_init(|| RADIX_MIXES.iter().map(|mix| compiled_program(mix)).collect())
}

#[test]
fn codegen_output_verifies_clean_for_every_radix_mix_and_backend() {
    for (mix, program) in RADIX_MIXES.iter().zip(programs()) {
        let report = verify_program(program)
            .unwrap_or_else(|e| panic!("clean program for {mix:?} rejected: {e}"));
        assert_eq!(report.instructions, program.constant_ops.len() + program.dynamic_ops.len());
    }
}

#[test]
fn shape_corruption_is_rejected_naming_the_instruction() {
    let mut program = compiled_program(&[2, 2]);
    let out = program.dynamic_ops[0].out();
    program.buffers[out].rows += 1;
    let err = verify_program(&program).unwrap_err();
    assert!(
        matches!(err, AnalyzeError::Program(_) | AnalyzeError::Bytecode(_)),
        "expected a typed program violation, got {err:?}"
    );
    let rendered = err.to_string();
    assert!(
        rendered.contains("dynamic[") || rendered.contains("constant["),
        "error does not name the offending instruction: {rendered}"
    );
}

#[test]
fn use_before_init_is_rejected_as_a_dataflow_violation() {
    let mut program = compiled_program(&[2, 2]);
    // Drop the first dynamic instruction: its destination is either read by a later
    // instruction (use-before-write) or is the declared output (never written).
    program.dynamic_ops.remove(0);
    let err = verify_program(&program).unwrap_err();
    assert!(
        matches!(
            err,
            AnalyzeError::Bytecode(
                BytecodeError::UseBeforeWrite { .. } | BytecodeError::OutputNeverWritten { .. }
            )
        ),
        "expected a dataflow violation, got {err:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Mutation campaign: a single-field corruption of a valid program must always
    /// surface as a typed `AnalyzeError` — never a panic, never a clean pass.
    #[test]
    fn single_field_corruptions_are_always_rejected(
        mix in 0usize..4,
        mutation in 0usize..8,
        pick in 0usize..1024,
    ) {
        let mut program = programs()[mix].clone();
        let what = match mutation {
            0 => {
                let i = pick % program.radices.len();
                program.radices[i] = 1;
                "radix set to 1"
            }
            1 => {
                let i = pick % program.buffers.len();
                program.buffers[i].rows += 1;
                "buffer row count inflated"
            }
            2 => {
                let i = pick % program.buffers.len();
                program.buffers[i].cols += 2;
                "buffer column count inflated"
            }
            3 => {
                program.output = program.buffers.len();
                "output buffer out of range"
            }
            4 => {
                program.num_params = 0;
                "parameter space collapsed"
            }
            5 => {
                let i = pick % program.dynamic_ops.len();
                let duplicate = program.dynamic_ops[i].clone();
                program.dynamic_ops.push(duplicate);
                "dynamic instruction duplicated"
            }
            6 => {
                program.dynamic_ops.remove(0);
                "first dynamic instruction dropped"
            }
            _ => {
                let Some(buffer) = program.buffers.iter_mut().find(|b| !b.params.is_empty())
                else {
                    return Err(TestCaseError::Reject("no parameterized buffer".to_string()));
                };
                let first = buffer.params[0];
                buffer.params.push(first);
                "buffer parameter annotation de-sorted"
            }
        };
        let verdict = verify_program(&program);
        prop_assert!(
            verdict.is_err(),
            "corruption '{what}' on mix {:?} verified clean",
            RADIX_MIXES[mix]
        );
        // The typed error must render a non-empty diagnostic.
        let rendered = verdict.unwrap_err().to_string();
        prop_assert!(!rendered.is_empty());
    }
}

#[test]
fn interleaved_verification_records_metrics_without_timing_entries() {
    let target = openqudit::circuit::gates::cnot().to_matrix::<f64>(&[]).unwrap();
    let report = Compiler::with_cache(ExpressionCache::new())
        .verify(VerifyLevel::Full)
        .default_passes()
        .compile(CompilationTask::new(target, SynthesisConfig::qubits(2)))
        .unwrap();
    assert!(report.result.success);
    // Interleaved verification must not perturb the pipeline's timing contract.
    assert_eq!(report.timings.len(), 3);
    let metric = |name: &str| report.metrics.get(name).copied().unwrap_or(0);
    assert!(metric("analyze.circuits_verified") >= 1, "{:?}", report.metrics);
    assert!(metric("analyze.programs_verified") >= 1, "{:?}", report.metrics);
    assert!(metric("analyze.instructions_checked") > 0);
}

#[test]
fn explicit_verify_pass_is_a_timed_pipeline_stage() {
    let target = openqudit::circuit::gates::cnot().to_matrix::<f64>(&[]).unwrap();
    let report = Compiler::with_cache(ExpressionCache::new())
        .default_passes()
        .add_pass(VerifyPass::default())
        .compile(CompilationTask::new(target, SynthesisConfig::qubits(2)))
        .unwrap();
    assert!(report.result.success);
    let names: Vec<&str> = report.timings.iter().map(|t| t.pass.as_str()).collect();
    assert_eq!(names, ["synthesis", "refine", "fold", "verify"]);
    assert!(report.metrics.get("analyze.programs_verified").copied().unwrap_or(0) >= 1);
}

#[test]
fn gate_set_violation_surfaces_as_a_verify_error() {
    use openqudit::circuit::gates;
    use openqudit::synth::SynthesisResult;

    // A hand-planted result using a gate outside the configured gate set: the
    // verifier must fail the compilation with a typed `CompileError::Verify`.
    let mut circuit = QuditCircuit::qubits(1);
    let h = circuit.cache_operation(gates::hadamard()).unwrap();
    circuit.append_ref_constant(h, vec![0], vec![]).unwrap();
    let target = circuit.unitary::<f64>(&[]).unwrap();
    let mut task = CompilationTask::new(target, SynthesisConfig::qubits(1));
    task.result = Some(SynthesisResult {
        circuit,
        params: vec![],
        infidelity: 0.0,
        nodes_expanded: 0,
        blocks: vec![],
        success: true,
        blocks_deleted: 0,
        refined_infidelity: None,
        params_folded: 0,
        gates_constified: 0,
    });
    let err = Compiler::with_cache(ExpressionCache::new())
        .add_pass(VerifyPass::new(VerifyLevel::Full))
        .compile(task)
        .unwrap_err();
    match err {
        CompileError::Verify { after, violation } => {
            assert_eq!(after, "verify");
            assert!(matches!(violation, AnalyzeError::Circuit(_)), "{violation:?}");
            let rendered = violation.to_string();
            assert!(rendered.contains("H"), "violation does not name the gate: {rendered}");
        }
        other => panic!("expected a verify error, got {other:?}"),
    }
}

#[test]
fn detlint_self_test_catches_the_planted_regressions() {
    detlint::self_test().unwrap_or_else(|e| panic!("detlint self-test failed:\n{e}"));
}

#[test]
fn workspace_sources_are_detlint_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    let report = detlint::lint_workspace(root).unwrap();
    assert!(report.files > 0, "linter scanned no files under {}", root.display());
    assert!(
        report.findings.is_empty(),
        "determinism hazards in the workspace:\n{}",
        report.findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );
}
