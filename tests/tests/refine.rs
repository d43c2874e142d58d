//! End-to-end tests for the post-synthesis refinement pass: deleting redundant
//! entangling blocks from a deliberately over-deep template must preserve the
//! solution, and an already-minimal result must come back structurally untouched.

use openqudit::circuit::builders;
use openqudit::prelude::*;
use openqudit_integration_tests::compile_default;

/// Instantiates a pqc template against `target` and wraps it as a synthesis result,
/// the shape `refine_deletions` consumes.
fn instantiated_result(
    radices: &[usize],
    blocks: &[(usize, usize)],
    target: &Matrix<f64>,
    cache: &ExpressionCache,
    seed: u64,
) -> SynthesisResult {
    let circuit = builders::pqc_template(radices, blocks).unwrap();
    let outcome = instantiate_circuit(
        &circuit,
        target,
        &InstantiateConfig { starts: 8, seed, ..Default::default() },
        cache,
    );
    assert!(outcome.success, "template instantiation failed: {}", outcome.infidelity);
    SynthesisResult {
        blocks: blocks.to_vec(),
        params: outcome.params,
        infidelity: outcome.infidelity,
        success: true,
        nodes_expanded: 0,
        blocks_deleted: 0,
        refined_infidelity: None,
        params_folded: 0,
        gates_constified: 0,
        circuit,
    }
}

#[test]
fn refine_shrinks_an_over_deep_two_qubit_template() {
    // The target is reachable at one entangling block; the result carries three.
    // Refinement must delete at least one block (it typically removes both padded
    // ones) while the final infidelity stays below the success threshold.
    let cache = ExpressionCache::new();
    let lean = builders::pqc_template(&[2, 2], &[(0, 1)]).unwrap();
    let target = reachable_target(&lean, 2026);
    let padded = instantiated_result(&[2, 2], &[(0, 1), (0, 1), (0, 1)], &target, &cache, 9);

    let refined = refine_deletions(&padded, &target, &RefineConfig::default(), &cache).unwrap();
    assert!(refined.blocks_deleted >= 1, "refine deleted nothing from the padded template");
    assert!(refined.infidelity < 1e-8, "refined infidelity {}", refined.infidelity);
    assert_eq!(refined.blocks.len() + refined.blocks_deleted, 3);
    assert_eq!(refined.params.len(), refined.circuit.num_params());
    assert_eq!(refined.refined_infidelity, Some(refined.infidelity));
    assert!(refined.success);

    // Cross-check the refined circuit on the independent baseline engine.
    let mut evaluator = BaselineEvaluator::from_qudit_circuit(&refined.circuit).unwrap();
    let (unitary, _) = evaluator.evaluate(&refined.params);
    assert!(
        hs_infidelity(&target, &unitary) < 1e-7,
        "baseline cross-check disagrees with the refined TNVM result"
    );
}

#[test]
fn refine_shrinks_an_over_deep_mixed_radix_template() {
    // A qubit–qutrit target reachable at one (2, 3) block, instantiated on a padded
    // two-block template. Neither block collapses to near-identity, since a block
    // keeps its constant CSHIFT23 entangler's Schmidt weights; but one block
    // suffices, so refinement must delete one, and the warm-start re-instantiation of
    // the shrunken template must stay under the success threshold.
    let cache = ExpressionCache::new();
    let lean = builders::pqc_template(&[2, 3], &[(0, 1)]).unwrap();
    let target = reachable_target(&lean, 2033);
    let padded = instantiated_result(&[2, 3], &[(0, 1), (0, 1)], &target, &cache, 11);

    let refined = refine_deletions(&padded, &target, &RefineConfig::default(), &cache).unwrap();
    assert!(refined.blocks_deleted >= 1, "refine deleted no mixed-radix block");
    assert_eq!(refined.blocks.len() + refined.blocks_deleted, 2);
    assert!(refined.infidelity < 1e-8, "refined infidelity {}", refined.infidelity);
    assert!(refined.success);
    assert_eq!(refined.params.len(), refined.circuit.num_params());
    assert_eq!(refined.circuit.radices(), &[2, 3]);

    // Cross-check on the independent full-width accumulator (the baseline engine has
    // no CSHIFT23 implementation).
    let unitary = refined.circuit.unitary::<f64>(&refined.params).unwrap();
    assert!(
        hs_infidelity(&target, &unitary) < 1e-7,
        "reference evaluation disagrees with the refined TNVM result"
    );
}

#[test]
fn refine_scores_reversed_mixed_blocks_with_op_order_dimensions() {
    // On [3, 2] the (2, 3)-registered entangler is applied with reversed wires; the
    // Schmidt scoring must follow the op's wire order (a 2×3 cut, not 3×2 — swapped
    // dimensions realign the wrong matrix and mis-rank the deletion candidates). The
    // padded block must be detected and deleted.
    let cache = ExpressionCache::new();
    let lean = builders::pqc_template(&[3, 2], &[(0, 1)]).unwrap();
    let target = reachable_target(&lean, 909);
    let padded = instantiated_result(&[3, 2], &[(0, 1), (0, 1)], &target, &cache, 13);

    let refined = refine_deletions(&padded, &target, &RefineConfig::default(), &cache).unwrap();
    assert!(refined.blocks_deleted >= 1, "refine deleted no reversed mixed-radix block");
    assert!(refined.infidelity < 1e-8, "refined infidelity {}", refined.infidelity);
}

#[test]
fn refine_never_touches_a_minimal_cnot_result() {
    let cache = ExpressionCache::new();
    let target = openqudit::circuit::gates::cnot().to_matrix::<f64>(&[]).unwrap();
    let minimal = instantiated_result(&[2, 2], &[(0, 1)], &target, &cache, 4);

    let mut config = RefineConfig::default();
    config.instantiate.trace = TraceRegistry::new();
    let refined = refine_deletions(&minimal, &target, &config, &cache).unwrap();
    assert_eq!(refined.blocks_deleted, 0, "a CNOT cannot be synthesized without its block");
    // Deleting the only block leaves locals alone, which the cut bound certifies
    // hopeless (1 − 1/√2 above the CNOT): the attempt is counted, never instantiated.
    let metrics = config.instantiate.trace.counters();
    assert_eq!(metrics.get("refine.attempts"), Some(&1), "{metrics:?}");
    assert_eq!(metrics.get("refine.attempts.certified"), Some(&1), "{metrics:?}");
    assert_eq!(metrics.get("instantiate.calls"), None, "{metrics:?}");
    assert_eq!(refined.blocks, minimal.blocks);
    assert_eq!(refined.circuit.num_ops(), minimal.circuit.num_ops());
    assert_eq!(refined.circuit.num_params(), minimal.circuit.num_params());
    assert!(refined.infidelity < 1e-8);
}

#[test]
fn pipeline_runs_refine_automatically() {
    // The default pipeline reports the refinement fields; a pipeline of the search
    // pass alone leaves `refined_infidelity` unset. Same seed, so the two runs
    // explore identical search trees.
    let template = builders::pqc_template(&[2, 2], &[(0, 1)]).unwrap();
    let target = reachable_target(&template, 31);
    let mut config = SynthesisConfig::qubits(2);
    config.max_blocks = 2;

    let refined = compile_default(&target, &config).unwrap();
    assert!(refined.success);
    assert!(refined.refined_infidelity.is_some());
    assert!(refined.infidelity < 1e-8);

    let unrefined = Compiler::with_cache(ExpressionCache::new())
        .add_pass(SynthesisPass)
        .compile(CompilationTask::new(target, config))
        .unwrap()
        .result;
    assert!(unrefined.success);
    assert!(unrefined.refined_infidelity.is_none());
    assert_eq!(unrefined.blocks_deleted, 0);
    // Refinement never leaves the result deeper than the raw search found it.
    assert!(refined.blocks.len() <= unrefined.blocks.len());
}

#[test]
fn pipeline_reports_measured_unitarity_deviation() {
    // A slightly-off target is rejected with the measured deviation in the message;
    // widening `unitary_tolerance` accepts the same matrix.
    let target = openqudit::circuit::gates::cnot().to_matrix::<f64>(&[]).unwrap();
    let off = target.scale(C64::from_real(1.0 + 3e-7));
    let config = SynthesisConfig::qubits(2);
    let err = compile_default(&off, &config).unwrap_err();
    let message = err.to_string();
    assert!(message.contains("not unitary"), "unexpected message: {message}");
    assert!(message.contains("e-"), "message lacks the measured deviation: {message}");

    let mut relaxed = config.clone();
    relaxed.unitary_tolerance = 1e-5;
    let result = compile_default(&off, &relaxed).unwrap();
    assert!(result.success, "infidelity {}", result.infidelity);
}
