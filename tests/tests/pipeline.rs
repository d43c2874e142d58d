//! End-to-end integration tests spanning the whole pipeline: QGL parsing → symbolic
//! differentiation → e-graph simplification → expression compilation → tensor-network
//! lowering → TNVM execution → numerical instantiation, cross-checked against the
//! baseline engine — plus the compiler-pass pipeline contracts: the default
//! `Compiler` pipeline matches its pinned result bit for bit, and the partitioned
//! pipeline synthesizes a 4-qubit target the monolithic search cannot practically
//! reach.

use openqudit::network::{compile_network, TensorNetwork};
use openqudit::prelude::*;
use openqudit_integration_tests::fnv1a;

fn params_for(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 30) as f64) - 2.0
        })
        .collect()
}

#[test]
fn qgl_definition_to_tnvm_round_trip() {
    // A gate defined here, from scratch, flows through the whole stack.
    let gate = UnitaryExpression::new(
        "Mix(alpha, beta) {
            [[cos(alpha)*cos(beta), ~sin(alpha), ~cos(alpha)*sin(beta), 0],
             [sin(alpha)*cos(beta), cos(alpha), ~sin(alpha)*sin(beta), 0],
             [sin(beta), 0, cos(beta), 0],
             [0, 0, 0, e^(i*(alpha+beta))]]
        }",
    )
    .unwrap();
    let mut circuit = QuditCircuit::qubits(3);
    let mix = circuit.cache_operation(gate).unwrap();
    let u3 = circuit.cache_operation(gates::u3()).unwrap();
    circuit.append_ref(u3, vec![2]).unwrap();
    circuit.append_ref(mix, vec![0, 1]).unwrap();
    circuit.append_ref(mix, vec![1, 2]).unwrap();

    let params = params_for(circuit.num_params(), 11);
    let code = compile_network(&TensorNetwork::from_circuit(&circuit));
    let cache = ExpressionCache::new();
    let mut vm: Tnvm<f64> = Tnvm::new(&code, DiffMode::Gradient, &cache);
    let result = vm.evaluate(&params);
    let reference = circuit.unitary::<f64>(&params).unwrap();
    assert!(result.unitary.max_elementwise_distance(&reference) < 1e-10);
    assert!(result.unitary.is_unitary(1e-10));

    // Gradient agrees with central finite differences of the reference evaluator.
    let h = 1e-6;
    for k in 0..circuit.num_params() {
        let mut plus = params.clone();
        let mut minus = params.clone();
        plus[k] += h;
        minus[k] -= h;
        let fd = circuit
            .unitary::<f64>(&plus)
            .unwrap()
            .sub(&circuit.unitary::<f64>(&minus).unwrap())
            .unwrap()
            .scale(C64::from_real(1.0 / (2.0 * h)));
        assert!(result.gradient[k].max_elementwise_distance(&fd) < 1e-5, "param {k}");
    }
}

#[test]
fn tnvm_and_baseline_agree_on_all_fig5_workloads() {
    use openqudit::circuit::builders;
    let workloads = vec![
        builders::pqc_qubit_ladder(2, 1).unwrap(),
        builders::pqc_qubit_ladder(3, 3).unwrap(),
        builders::pqc_qutrit_ladder(2, 1).unwrap(),
    ];
    let cache = ExpressionCache::new();
    for (i, circuit) in workloads.into_iter().enumerate() {
        let params = params_for(circuit.num_params(), 100 + i as u64);
        let mut tnvm_eval = TnvmEvaluator::new(&circuit, &cache);
        let mut base_eval = BaselineEvaluator::from_qudit_circuit(&circuit).unwrap();
        let (tu, tg) = tnvm_eval.evaluate(&params);
        let (bu, bg) = base_eval.evaluate(&params);
        assert!(tu.max_elementwise_distance(&bu) < 1e-9, "workload {i} unitary");
        for (a, b) in tg.iter().zip(bg.iter()) {
            assert!(a.max_elementwise_distance(b) < 1e-9, "workload {i} gradient");
        }
    }
}

#[test]
fn instantiation_agrees_between_backends() {
    use openqudit::circuit::builders;
    let circuit = builders::pqc_qubit_ladder(2, 1).unwrap();
    let target = reachable_target(&circuit, 77);
    let config = InstantiateConfig { starts: 4, seed: 5, ..Default::default() };
    let cache = ExpressionCache::new();
    let oq = instantiate_circuit(&circuit, &target, &config, &cache);
    let mut baseline = BaselineEvaluator::from_qudit_circuit(&circuit).unwrap();
    let bl = instantiate(&mut baseline, &target, &config);
    assert!(oq.infidelity < 1e-6, "openqudit infidelity {}", oq.infidelity);
    assert!(bl.infidelity < 1e-6, "baseline infidelity {}", bl.infidelity);
}

#[test]
fn expression_cache_amortizes_across_circuits() {
    use openqudit::circuit::builders;
    let cache = ExpressionCache::new();
    let a = builders::pqc_qubit_ladder(3, 2).unwrap();
    let b = builders::pqc_qubit_ladder(3, 6).unwrap();
    let _ = TnvmEvaluator::new(&a, &cache);
    let misses = cache.stats().misses;
    // The deeper circuit uses the same gate set, so no new compilations are needed.
    let _ = TnvmEvaluator::new(&b, &cache);
    assert_eq!(cache.stats().misses, misses);
}

#[test]
fn qft_on_tnvm_matches_closed_form() {
    use openqudit::circuit::builders;
    let circuit = builders::qft(3).unwrap();
    let code = compile_network(&TensorNetwork::from_circuit(&circuit));
    let cache = ExpressionCache::new();
    let mut vm: Tnvm<f64> = Tnvm::new(&code, DiffMode::None, &cache);
    let u = vm.evaluate_unitary(&[]);
    let dim = 8usize;
    let omega = 2.0 * std::f64::consts::PI / dim as f64;
    for j in 0..dim {
        for k in 0..dim {
            let expect = C64::cis(omega * (j * k) as f64).scale(1.0 / (dim as f64).sqrt());
            assert!(u.get(j, k).dist(expect) < 1e-10);
        }
    }
}

/// A pinned compile: `(blocks, FNV-1a of the params' and infidelity's bits,
/// nodes_expanded, blocks_deleted, params_folded, gates_constified,
/// refined_infidelity bits)`.
type CompilePin = (&'static [(usize, usize)], u64, usize, usize, usize, usize, Option<u64>);

/// The seed-404 3-qubit compile through `Compiler::default_passes`.
const DEFAULT_PIPELINE_PIN: CompilePin =
    (&[(0, 1), (1, 2)], 0x866fa7cb81571f4a, 5, 0, 0, 0, Some(0x0000000000000000));

#[test]
fn default_pipeline_matches_its_pinned_result() {
    // At a fixed seed, `synthesis → refine → fold` must return the same bits as
    // when it was pinned: blocks, parameters, infidelity, node count, and the
    // refinement and fold metrics. A multi-edge 3-qubit target exercises the racy
    // frontier path. A deliberate numerical change re-pins from the failure message.
    use openqudit::circuit::builders;
    let template = builders::pqc_template(&[2, 2, 2], &[(0, 1), (1, 2)]).unwrap();
    let target = reachable_target(&template, 404);
    let mut config = SynthesisConfig::qubits(3);
    config.max_blocks = 3;

    let report = Compiler::with_cache(ExpressionCache::new())
        .default_passes()
        .compile(CompilationTask::new(target, config))
        .unwrap();
    let r = &report.result;
    let hash = fnv1a(r.params.iter().chain([&r.infidelity]).map(|x| x.to_bits()));
    let refined = r.refined_infidelity.map(f64::to_bits);
    let actual = (
        r.blocks.as_slice(),
        hash,
        r.nodes_expanded,
        r.blocks_deleted,
        r.params_folded,
        r.gates_constified,
        refined,
    );
    assert!(
        actual == DEFAULT_PIPELINE_PIN,
        "default pipeline differs from its pin; it is now (&{:?}, 0x{hash:016x}, {}, {}, {}, {}, \
         {})",
        r.blocks,
        r.nodes_expanded,
        r.blocks_deleted,
        r.params_folded,
        r.gates_constified,
        refined.map_or("None".to_string(), |bits| format!("Some(0x{bits:016x})")),
    );
    assert_eq!(r.params.len(), r.circuit.num_params());
    // The report carries per-pass structure.
    let passes: Vec<&str> = report.timings.iter().map(|t| t.pass.as_str()).collect();
    assert_eq!(passes, vec!["synthesis", "refine", "fold"]);
    assert_eq!(report.metrics["search.nodes_expanded"], r.nodes_expanded as u64);
}

#[test]
fn partitioned_pipeline_synthesizes_a_four_qubit_target() {
    // The workload the monolithic search cannot practically reach: a 4-qubit unitary
    // entangling across the [0,1]|[2,3] cut (its template carries a block on the cut
    // edge (1, 2)). The target is reachable by a one-round partitioned template, so
    // the sketch must drive the infidelity below the threshold and the refined,
    // folded result must hold it under 1e-6 end to end. (The CI benchmark report
    // runs a deeper two-round partitioned workload in release mode.)
    use openqudit::circuit::builders;
    let round = [(0, 1), (2, 3), (1, 2)];
    let template = builders::pqc_template(&[2, 2, 2, 2], &round).unwrap();
    let target = reachable_target(&template, 71);

    let mut config = SynthesisConfig::qubits(4);
    config.instantiate.starts = 8;
    let compiler = Compiler::with_cache(ExpressionCache::new()).partitioned_passes();
    let report = compiler.compile(CompilationTask::new(target.clone(), config)).unwrap();
    let result = &report.result;
    assert!(result.success, "partitioned compile failed: infidelity {}", result.infidelity);
    assert!(result.infidelity < 1e-6, "infidelity {}", result.infidelity);
    assert_eq!(result.circuit.radices(), &[2, 2, 2, 2]);
    // The partition pass did the work; the search pass must have skipped.
    assert!(!report.metrics.contains_key("search.nodes_expanded"), "{:?}", report.metrics);
    assert_eq!(report.metrics.get("partition.groups"), Some(&2));
    assert_eq!(report.metrics.get("partition.cut_edges"), Some(&1));
    assert!(report.metrics["partition.rounds"] >= 1);
    // Every block stays on a coupling edge of the 4-qubit line.
    for &(a, b) in &result.blocks {
        assert!(b == a + 1, "block ({a},{b}) is not a line edge");
    }
    // Cross-check on the independent full-width matrix accumulator.
    let unitary = result.circuit.unitary::<f64>(&result.params).unwrap();
    assert!(
        hs_infidelity(&target, &unitary) < 1e-6,
        "reference evaluation disagrees with the partitioned result"
    );
}

#[test]
#[ignore = "slow in debug builds; CI runs it in release"]
fn refine_shrinks_an_escalated_wide_sketch() {
    // A wide target whose partitioned sketch needs four escalation rounds (12
    // blocks): the case where refine's deletion attempts pay off. Its template lays
    // the line's edges in path order, not in the partition's round order, so round 2
    // does not reach it. Refine must take it down to the six blocks its template was
    // built from.
    use openqudit::circuit::builders;
    let stream = 0x33f1_3d90_733f_dfe7;
    let template =
        builders::pqc_template(&[2; 4], &[(0, 1), (1, 2), (2, 3), (0, 1), (1, 2), (2, 3)]).unwrap();
    let target = reachable_target(&template, stream);
    let mut config = SynthesisConfig::with_radices(vec![2; 4]);
    config.max_blocks = 8;
    config.seed = stream >> 11;
    let report = Compiler::with_cache(ExpressionCache::new())
        .partitioned_passes()
        .compile(CompilationTask::new(target, config))
        .unwrap();
    assert!(report.result.success, "infidelity {}", report.result.infidelity);
    assert_eq!(report.metrics.get("partition.rounds"), Some(&4));
    assert_eq!(report.result.blocks.len(), 6, "{:?}", report.result.blocks);
    assert!(report.metrics.get("refine.attempts.accepted").is_some_and(|&n| n >= 1));
}

#[test]
fn partitioned_pipeline_passes_narrow_targets_through_unchanged() {
    // On a ≤3-qudit task the partition pass must skip and the tail of the pipeline
    // must produce exactly what the default pipeline produces.
    let target = openqudit::circuit::gates::cnot().to_matrix::<f64>(&[]).unwrap();
    let config = SynthesisConfig::qubits(2);
    let partitioned = Compiler::with_cache(ExpressionCache::new())
        .partitioned_passes()
        .compile(CompilationTask::new(target.clone(), config.clone()))
        .unwrap();
    let standard = Compiler::with_cache(ExpressionCache::new())
        .default_passes()
        .compile(CompilationTask::new(target, config))
        .unwrap();
    assert!(
        !partitioned.metrics.keys().any(|k| k.starts_with("partition.")),
        "the partition pass should skip a narrow target: {:?}",
        partitioned.metrics
    );
    assert_eq!(partitioned.result.blocks, standard.result.blocks);
    assert_eq!(partitioned.result.infidelity.to_bits(), standard.result.infidelity.to_bits());
    let a: Vec<u64> = partitioned.result.params.iter().map(|p| p.to_bits()).collect();
    let b: Vec<u64> = standard.result.params.iter().map(|p| p.to_bits()).collect();
    assert_eq!(a, b);
}

#[test]
fn mixed_radix_circuit_end_to_end() {
    // A qubit–qutrit system exercising mixed radices through the whole stack.
    let mut circuit = QuditCircuit::pure(vec![2, 3]);
    let rx = circuit.cache_operation(gates::rx()).unwrap();
    let p3 = circuit.cache_operation(gates::qutrit_phase()).unwrap();
    let ctrl = {
        // A custom qubit-controlled qutrit phase defined via the symbolic control transform.
        let controlled = openqudit::qgl::transform::control(&gates::qutrit_phase(), 2);
        circuit.cache_operation(controlled).unwrap()
    };
    circuit.append_ref(rx, vec![0]).unwrap();
    circuit.append_ref(p3, vec![1]).unwrap();
    circuit.append_ref(ctrl, vec![0, 1]).unwrap();
    let params = params_for(circuit.num_params(), 55);
    let code = compile_network(&TensorNetwork::from_circuit(&circuit));
    let cache = ExpressionCache::new();
    let mut vm: Tnvm<f64> = Tnvm::new(&code, DiffMode::Gradient, &cache);
    let result = vm.evaluate(&params);
    let reference = circuit.unitary::<f64>(&params).unwrap();
    assert_eq!(result.unitary.rows(), 6);
    assert!(result.unitary.max_elementwise_distance(&reference) < 1e-10);
}
