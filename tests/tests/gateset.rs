//! Gate-set conformance suite: the contract any [`GateSet`] — default or
//! user-registered — must satisfy to plug into the synthesis pipeline.
//!
//! * every template built from a registry evaluates to a unitary at arbitrary
//!   parameters (pure qubit, pure qutrit, and mixed qubit–qutrit systems),
//! * a mixed-radix `[2, 3]` target synthesizes end to end through the registry's
//!   embedded controlled-shift entangler,
//! * custom registrations round-trip: the gates a user registers are exactly the
//!   gates the synthesized circuit is made of,
//! * synthesis with a custom registry is deterministic (same seed → byte-identical
//!   results),
//! * registry validation rejects malformed gates (wrong arity, non-unitary), covered
//!   by proptest over scaled matrices.

use openqudit::circuit::{builders, gates};
use openqudit::prelude::*;
use openqudit_integration_tests::compile_default;
use proptest::prelude::*;

/// A deterministic pseudo-random parameter vector (golden-ratio low-discrepancy
/// stream over (−π, π)).
fn param_vector(count: usize, salt: u64) -> Vec<f64> {
    (0..count)
        .map(|k| {
            let step = (salt as usize * count + k + 1) as f64;
            let frac = (step * 0.6180339887498949) % 1.0;
            std::f64::consts::PI * (2.0 * frac - 1.0)
        })
        .collect()
}

#[test]
fn default_registry_templates_are_unitary_across_radix_mixes() {
    // Conformance: a two-block template over every supported radix mix must be
    // numerically unitary at arbitrary parameter points.
    for radices in [vec![2, 2], vec![3, 3], vec![2, 3], vec![3, 2], vec![2, 3, 2]] {
        let set = GateSet::default_for(&radices);
        let edges: Vec<(usize, usize)> = (0..radices.len() - 1).map(|q| (q, q + 1)).collect();
        let circuit = builders::pqc_template_with(&radices, &edges, &set).unwrap();
        for salt in 0..4u64 {
            let params = param_vector(circuit.num_params(), salt);
            let unitary = circuit.unitary::<f64>(&params).unwrap();
            assert!(
                unitary.unitary_deviation() < 1e-10,
                "template over {radices:?} is not unitary at salt {salt}"
            );
        }
    }
}

#[test]
fn mixed_radix_embedded_csum_synthesizes_end_to_end() {
    // The acceptance target: an embedded-CSUM (controlled-shift) unitary on a
    // qubit–qutrit pair with linear coupling must synthesize below 1e-8 infidelity
    // through the default registry's (2, 3) entangler.
    let target = gates::cshift23().to_matrix::<f64>(&[]).unwrap();
    let config = SynthesisConfig::with_radices(vec![2, 3]);
    let result = compile_default(&target, &config).unwrap();
    assert!(result.success, "mixed-radix search failed: infidelity {}", result.infidelity);
    assert!(result.infidelity < 1e-8);
    assert_eq!(result.circuit.radices(), &[2, 3]);
    assert_eq!(result.blocks, vec![(0, 1)], "one controlled-shift block suffices");

    // Cross-check on the independent full-width matrix accumulator (the baseline
    // engine has no CSHIFT23 implementation, so the reference evaluator stands in).
    let unitary = result.circuit.unitary::<f64>(&result.params).unwrap();
    assert!(
        hs_infidelity(&target, &unitary) < 1e-7,
        "reference evaluation disagrees with the TNVM result"
    );
}

#[test]
fn reversed_mixed_radices_synthesize_too() {
    // [3, 2] exercises the orientation path: the (2, 3)-registered entangler is
    // applied with its wires reversed so its expression radices match the wires.
    let template = builders::pqc_template(&[3, 2], &[(0, 1)]).unwrap();
    let target = reachable_target(&template, 61);
    let mut config = SynthesisConfig::with_radices(vec![3, 2]);
    config.max_blocks = 2;
    let result = compile_default(&target, &config).unwrap();
    assert!(result.success, "reversed mixed search failed: infidelity {}", result.infidelity);
    assert_eq!(result.circuit.radices(), &[3, 2]);
    let entangler_ops: Vec<&str> = result
        .circuit
        .ops()
        .iter()
        .filter(|op| op.location.len() == 2)
        .map(|op| result.circuit.expression(op.expr).unwrap().name())
        .collect();
    assert!(entangler_ops.iter().all(|&name| name == "CSHIFT23"), "{entangler_ops:?}");
}

#[test]
fn custom_gate_registration_round_trips_through_synthesis() {
    // Register a custom qubit gate set — RZZ entangler, U3 locals — and check the
    // synthesized circuit is built from exactly those gates.
    let mut set = GateSet::new();
    set.register_local(gates::u3()).unwrap();
    set.register_entangler(gates::rzz()).unwrap();
    assert_eq!(set.local(2).unwrap().name(), "U3");
    assert_eq!(set.entangler(2, 2).unwrap().name(), "RZZ");

    // CZ = RZZ(π) up to local phases, so it is reachable with one RZZ block.
    let target = gates::cz().to_matrix::<f64>(&[]).unwrap();
    let mut config = SynthesisConfig::qubits(2);
    config.gate_set = set;
    let result = compile_default(&target, &config).unwrap();
    assert!(result.success, "custom-set search failed: infidelity {}", result.infidelity);
    assert!(result.infidelity < 1e-8);
    let names: std::collections::BTreeSet<&str> =
        result.circuit.expressions().iter().map(|e| e.name()).collect();
    assert!(
        names.iter().all(|&n| n == "U3" || n == "RZZ"),
        "synthesized circuit used gates outside the registry: {names:?}"
    );
}

#[test]
fn same_seed_custom_gate_set_runs_are_byte_identical() {
    // The determinism guarantee must survive a user-supplied registry.
    let mut set = GateSet::new();
    set.register_local(gates::u3()).unwrap();
    set.register_entangler(gates::rzz()).unwrap();
    let template = builders::pqc_template(&[2, 2], &[(0, 1)]).unwrap();
    let target = reachable_target(&template, 88);
    let mut config = SynthesisConfig::qubits(2);
    config.gate_set = set;
    config.max_blocks = 3;

    let first = compile_default(&target, &config).unwrap();
    let second = compile_default(&target, &config).unwrap();
    assert_eq!(first.blocks, second.blocks);
    assert_eq!(first.blocks_deleted, second.blocks_deleted);
    let first_bits: Vec<u64> = first.params.iter().map(|p| p.to_bits()).collect();
    let second_bits: Vec<u64> = second.params.iter().map(|p| p.to_bits()).collect();
    assert_eq!(first_bits, second_bits, "parameters diverged between identical runs");
    assert_eq!(first.infidelity.to_bits(), second.infidelity.to_bits());
    assert_eq!(first.nodes_expanded, second.nodes_expanded);
}

#[test]
fn refine_recovers_a_custom_registry_from_the_result_circuit() {
    // A result synthesized over a custom registry must refine with a *default*
    // `RefineConfig` (no gate_set supplied): the pass derives the registry from the
    // circuit's own expressions instead of assuming the built-in gates — a CNOT-based
    // fallback would mis-shape the rebuild check against this RZZ template.
    let cache = ExpressionCache::new();
    let mut set = GateSet::new();
    set.register_local(gates::u3()).unwrap();
    set.register_entangler(gates::rzz()).unwrap();
    let lean = builders::pqc_template_with(&[2, 2], &[(0, 1)], &set).unwrap();
    let target = reachable_target(&lean, 42);
    let padded = builders::pqc_template_with(&[2, 2], &[(0, 1), (0, 1)], &set).unwrap();
    let outcome = instantiate_circuit(
        &padded,
        &target,
        &InstantiateConfig { starts: 8, seed: 5, ..Default::default() },
        &cache,
    );
    assert!(outcome.success, "padded custom template failed: {}", outcome.infidelity);
    let result = SynthesisResult {
        blocks: vec![(0, 1), (0, 1)],
        params: outcome.params,
        infidelity: outcome.infidelity,
        success: true,
        nodes_expanded: 0,
        blocks_deleted: 0,
        refined_infidelity: None,
        params_folded: 0,
        gates_constified: 0,
        circuit: padded,
    };

    let refined = refine_deletions(&result, &target, &RefineConfig::default(), &cache).unwrap();
    assert!(refined.blocks_deleted >= 1, "padded RZZ block was not deleted");
    assert!(refined.infidelity < 1e-8, "refined infidelity {}", refined.infidelity);
    let names: std::collections::BTreeSet<&str> =
        refined.circuit.expressions().iter().map(|e| e.name()).collect();
    assert!(
        names.iter().all(|&n| n == "U3" || n == "RZZ"),
        "refined circuit left the registry: {names:?}"
    );
}

#[test]
fn explicit_default_registry_matches_the_implicit_one_byte_for_byte() {
    // `GateSet::default_for` must reproduce the built-in behavior exactly: a config
    // whose registry is set explicitly returns bit-identical results to the stock
    // constructor, on pure-qubit and pure-qutrit systems.
    for radices in [vec![2, 2], vec![3, 3]] {
        let template = builders::pqc_template(&radices, &[(0, 1)]).unwrap();
        let target = reachable_target(&template, 19);
        let implicit_cfg = SynthesisConfig::with_radices(radices.clone());
        let mut explicit_cfg = SynthesisConfig::with_radices(radices.clone());
        explicit_cfg.gate_set = GateSet::default_for(&radices);

        let implicit = compile_default(&target, &implicit_cfg).unwrap();
        let explicit = compile_default(&target, &explicit_cfg).unwrap();
        assert!(implicit.success, "radices {radices:?}: {}", implicit.infidelity);
        assert_eq!(implicit.blocks, explicit.blocks, "radices {radices:?}");
        let implicit_bits: Vec<u64> = implicit.params.iter().map(|p| p.to_bits()).collect();
        let explicit_bits: Vec<u64> = explicit.params.iter().map(|p| p.to_bits()).collect();
        assert_eq!(implicit_bits, explicit_bits, "radices {radices:?}");
        assert_eq!(implicit.infidelity.to_bits(), explicit.infidelity.to_bits());
    }
}

#[test]
fn registry_misses_surface_as_structured_errors() {
    // A registry with locals but no entangler for the edge pair names the lookup key.
    let mut locals_only = GateSet::new();
    locals_only.register_local(gates::u3()).unwrap();
    locals_only.register_local(gates::qutrit_u()).unwrap();
    let mut config = SynthesisConfig::with_radices(vec![2, 3]);
    config.gate_set = locals_only;
    let target = gates::cshift23().to_matrix::<f64>(&[]).unwrap();
    match compile_default(&target, &config) {
        Err(CompileError::Synthesis(SynthesisError::InvalidCoupling(detail))) => {
            assert!(detail.contains("radix pair (2, 3)"), "{detail}");
        }
        other => panic!("expected InvalidCoupling, got {other:?}"),
    }

    // An empty registry fails on the first radix lookup.
    let mut empty_cfg = SynthesisConfig::qubits(2);
    empty_cfg.gate_set = GateSet::new();
    let cnot = gates::cnot().to_matrix::<f64>(&[]).unwrap();
    assert!(matches!(
        compile_default(&cnot, &empty_cfg),
        Err(CompileError::Synthesis(SynthesisError::UnsupportedRadix(2)))
    ));
}

#[test]
fn ququart_registry_synthesizes_end_to_end_with_no_engine_changes() {
    // The ROADMAP claim made concrete: registering radix-4 building blocks —
    // `QuquartU` locals and the mod-4 `CSUM4` entangler — is the only change ququarts
    // need; search, instantiation, refinement, and folding run unchanged.
    let set = GateSet::default_for(&[4, 4]);
    assert_eq!(set.local(4).unwrap().name(), "QuquartU");
    assert_eq!(set.entangler(4, 4).unwrap().name(), "CSUM4");

    let target = gates::csum4().to_matrix::<f64>(&[]).unwrap();
    let mut config = SynthesisConfig::with_radices(vec![4, 4]);
    config.max_blocks = 1;
    config.max_nodes = 4;
    let result = compile_default(&target, &config).unwrap();
    assert!(result.success, "ququart search failed: infidelity {}", result.infidelity);
    assert!(result.infidelity < 1e-8);
    assert_eq!(result.circuit.radices(), &[4, 4]);
    assert_eq!(result.blocks, vec![(0, 1)], "one CSUM4 block suffices");

    // Cross-check on the independent full-width matrix accumulator.
    let unitary = result.circuit.unitary::<f64>(&result.params).unwrap();
    assert!(
        hs_infidelity(&target, &unitary) < 1e-7,
        "reference evaluation disagrees with the TNVM result"
    );
}

#[test]
fn qubit_ququart_entangler_synthesizes_end_to_end() {
    // The (2, 4) embedded controlled-shift: its own unitary must synthesize in one
    // block through the default registry, exactly like cshift23 does for (2, 3).
    let target = gates::cshift24().to_matrix::<f64>(&[]).unwrap();
    let mut config = SynthesisConfig::with_radices(vec![2, 4]);
    config.max_blocks = 1;
    config.max_nodes = 4;
    assert_eq!(config.gate_set.entangler(2, 4).unwrap().name(), "CSHIFT24");
    let result = compile_default(&target, &config).unwrap();
    assert!(result.success, "(2,4) search failed: infidelity {}", result.infidelity);
    assert!(result.infidelity < 1e-8);
    assert_eq!(result.circuit.radices(), &[2, 4]);
    assert_eq!(result.blocks, vec![(0, 1)], "one CSHIFT24 block suffices");

    // Cross-check on the independent full-width matrix accumulator.
    let unitary = result.circuit.unitary::<f64>(&result.params).unwrap();
    assert!(
        hs_infidelity(&target, &unitary) < 1e-7,
        "reference evaluation disagrees with the TNVM result"
    );
}

#[test]
fn qutrit_ququart_entangler_synthesizes_end_to_end() {
    // The (3, 4) embedded controlled-shift closes the last built-in mixed-radix gap:
    // every pair over radices {2, 3, 4} now has a registered entangler.
    let target = gates::cshift34().to_matrix::<f64>(&[]).unwrap();
    let mut config = SynthesisConfig::with_radices(vec![3, 4]);
    config.max_blocks = 1;
    config.max_nodes = 4;
    assert_eq!(config.gate_set.entangler(3, 4).unwrap().name(), "CSHIFT34");
    let result = compile_default(&target, &config).unwrap();
    assert!(result.success, "(3,4) search failed: infidelity {}", result.infidelity);
    assert!(result.infidelity < 1e-8);
    assert_eq!(result.circuit.radices(), &[3, 4]);
    assert_eq!(result.blocks, vec![(0, 1)], "one CSHIFT34 block suffices");

    // Cross-check on the independent full-width matrix accumulator.
    let unitary = result.circuit.unitary::<f64>(&result.params).unwrap();
    assert!(
        hs_infidelity(&target, &unitary) < 1e-7,
        "reference evaluation disagrees with the TNVM result"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn registry_rejects_scaled_non_unitary_gates(scale in 1.05..4.0f64, slot in 0usize..2) {
        // A scaled identity is the minimal non-unitary gate: |s²·I − I| = s² − 1 > 0.
        // Registration must reject it for every scale bounded away from 1, at both
        // arities.
        let mut set = GateSet::new();
        let entangler = slot == 1;
        if entangler {
            let source = format!(
                "BadEnt() {{ [[{scale},0,0,0],[0,{scale},0,0],[0,0,{scale},0],[0,0,0,{scale}]] }}"
            );
            let expr = UnitaryExpression::new(&source).unwrap();
            prop_assert!(set.register_entangler(expr).is_err());
        } else {
            let source = format!("BadLocal() {{ [[{scale}, 0], [0, {scale}]] }}");
            let expr = UnitaryExpression::new(&source).unwrap();
            prop_assert!(set.register_local(expr).is_err());
        }
    }

    #[test]
    fn registry_rejects_arity_mismatches(slot in 0usize..2) {
        let mut set = GateSet::new();
        let use_local_slot = slot == 0;
        if use_local_slot {
            // Two-qudit gates cannot be locals.
            prop_assert!(set.register_local(gates::cnot()).is_err());
            prop_assert!(set.register_local(gates::csum()).is_err());
        } else {
            // One-qudit gates cannot be entanglers.
            prop_assert!(set.register_entangler(gates::u3()).is_err());
            prop_assert!(set.register_entangler(gates::qutrit_u()).is_err());
        }
        // Nothing slipped into the registry.
        prop_assert_eq!(set.locals().count(), 0);
        prop_assert_eq!(set.entanglers().count(), 0);
    }

    #[test]
    fn registry_accepts_every_builtin_unitary_in_its_slot(index in 0usize..64) {
        // The whole built-in gate library passes validation in the slot matching its
        // arity — the registry is no stricter than the gates the paper ships.
        let mut all = gates::all_gates();
        let at = index % all.len();
        let (name, gate) = all.swap_remove(at);
        let mut set = GateSet::new();
        let outcome = match gate.num_qudits() {
            1 => set.register_local(gate),
            2 => set.register_entangler(gate),
            _ => return Ok(()),
        };
        prop_assert!(outcome.is_ok(), "builtin {name} rejected: {outcome:?}");
    }
}
