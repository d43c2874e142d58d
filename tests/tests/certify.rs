//! Certificate conformance: the operator-Schmidt cut bound that refine, the search and
//! the partition rounds use to skip hopeless LM runs is sound on every radix mix (it
//! never exceeds an instantiated infidelity), tight where the theory says it is, and
//! reads the ranks of the registered entanglers correctly. Its two-qubit term, from
//! the Shende–Markov–Bullock CNOT-count invariant, is sound on three-CNOT and
//! near-boundary targets, certifies SWAP at two blocks, and applies only under a
//! CNOT-equivalent entangler.

use openqudit::prelude::*;
use openqudit::synth::{entangler_rank, CutBound};
use proptest::prelude::*;

/// The cut bound of a template with blocks on `edges` against `target`, over the
/// default gate set.
fn bound(target: &Matrix<f64>, radices: &[usize], edges: &[(usize, usize)]) -> f64 {
    CutBound::new(target, radices, &GateSet::default_for(radices), 1e-8).bound(edges)
}

#[test]
fn entangler_ranks_come_from_the_registry() {
    assert_eq!(entangler_rank(&gates::cnot()), 2);
    assert_eq!(entangler_rank(&gates::csum()), 3);
    assert_eq!(entangler_rank(&gates::cshift23()), 2);
    // A parameterized entangler is taken at the largest rank any operator on its
    // pair can have.
    assert_eq!(entangler_rank(&gates::rzz()), 4);
}

#[test]
fn bound_is_tight_for_a_depth_one_fit_of_a_depth_two_target() {
    // The target's (1, 2) block is the only one crossing the {2} cut, where it leaves
    // the CNOT's two equal Schmidt weights. A (0, 1) template does not cross that cut,
    // so its bound is 1 − 1/√2, and LM reaches exactly that.
    let radices = [2usize, 2, 2];
    let generator = builders::pqc_template(&radices, &[(0, 1), (1, 2)]).unwrap();
    let target = reachable_target(&generator, 5);
    let template = builders::pqc_template(&radices, &[(0, 1)]).unwrap();
    let config = InstantiateConfig { starts: 4, seed: 3, ..Default::default() };
    let fit = instantiate_circuit(&template, &target, &config, &ExpressionCache::new());
    let hopeless = 1.0 - 0.5f64.sqrt();
    let certificate = bound(&target, &radices, &[(0, 1)]);
    assert!((certificate - hopeless).abs() < 1e-12, "bound {certificate}");
    assert!((fit.infidelity - hopeless).abs() < 1e-9, "fit {}", fit.infidelity);
}

/// A gate set of U3 locals and `entangler`.
fn gate_set_with(entangler: UnitaryExpression) -> GateSet {
    let mut gate_set = GateSet::new();
    gate_set.register_local(gates::u3()).unwrap();
    gate_set.register_entangler(entangler).unwrap();
    gate_set
}

#[test]
fn two_qubit_term_certifies_swap_at_two_blocks() {
    // SWAP needs three CNOTs: the cut bound passes two blocks (full Schmidt rank), the
    // two-qubit term rules them out, and three blocks stay uncertified.
    let swap = gates::swap().to_matrix::<f64>(&[]).unwrap();
    let radices = [2usize, 2];
    let bound = CutBound::new(&swap, &radices, &GateSet::default_for(&radices), 1e-8);
    assert!(bound.certify(&[(0, 1), (0, 1)]).is_some_and(|b| b > 1e-2), "{bound:?}");
    assert_eq!(bound.certify(&[(0, 1); 3]), None);
    // The term needs a CNOT-equivalent entangler: CZ is one, RZZ is not.
    let cz = CutBound::new(&swap, &radices, &gate_set_with(gates::cz()), 1e-8);
    assert_eq!(cz.bound(&[(0, 1), (0, 1)]), bound.bound(&[(0, 1), (0, 1)]));
    let rzz = CutBound::new(&swap, &radices, &gate_set_with(gates::rzz()), 1e-8);
    assert_eq!(rzz.bound(&[(0, 1), (0, 1)]), 0.0);
    assert_eq!(rzz.certify(&[(0, 1)]), None);
}

#[test]
fn two_qubit_term_leaves_products_of_locals_alone() {
    // H ⊗ H needs no CNOT: neither the cut bound nor the two-qubit term may rule out
    // any template.
    let h = gates::hadamard().to_matrix::<f64>(&[]).unwrap();
    let target = h.kron(&h);
    let radices = [2usize, 2];
    let bound = CutBound::new(&target, &radices, &GateSet::default_for(&radices), 1e-8);
    for depth in 0..3 {
        assert!(bound.bound(&vec![(0, 1); depth]) < 1e-12, "depth {depth}: {bound:?}");
    }
}

/// A target generated by `depth` CNOT blocks.
fn generated_two_qubit_target(depth: usize, seed: u64) -> Matrix<f64> {
    let template = builders::pqc_template(&[2, 2], &vec![(0, 1); depth]).unwrap();
    reachable_target(&template, seed)
}

/// Checks that the bound of a `template_depth`-block template against `target` stays
/// at or below an 8-start fit.
fn two_qubit_bound_holds(target: &Matrix<f64>, template_depth: usize, seed: u64) -> TestCaseResult {
    let edges = vec![(0usize, 1usize); template_depth];
    let template = builders::pqc_template(&[2, 2], &edges).unwrap();
    let config = InstantiateConfig { starts: 8, seed, ..Default::default() };
    let fit = instantiate_circuit(&template, target, &config, &ExpressionCache::new());
    let certificate = bound(target, &[2, 2], &edges);
    prop_assert!(
        certificate <= fit.infidelity + 1e-12,
        "{template_depth} block(s): bound {certificate} above fit {}",
        fit.infidelity
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Three-CNOT targets against one- and two-block templates: the bound, its
    /// two-qubit term included, never exceeds an 8-start fit.
    #[test]
    fn two_qubit_bound_holds_on_three_cnot_targets(
        template_depth in 1usize..3,
        seed in 0u64..u64::MAX,
    ) {
        two_qubit_bound_holds(&generated_two_qubit_target(3, seed), template_depth, seed)?;
    }

    /// Targets at the edge of the term: a two-CNOT target times `rzz(θ)`, just past
    /// the two-CNOT class, and a three-CNOT target moved off unitarity within the
    /// default `unitary_tolerance`.
    #[test]
    fn two_qubit_bound_holds_near_the_boundary(
        perturb in 0usize..2,
        template_depth in 1usize..3,
        theta in 1e-4f64..0.1,
        seed in 0u64..u64::MAX,
    ) {
        let target = if perturb == 0 {
            let rzz = gates::rzz().to_matrix::<f64>(&[theta]).unwrap();
            generated_two_qubit_target(2, seed).matmul(&rzz)
        } else {
            // Up to θ·1e-8 per real and imaginary part of every element.
            let target = generated_two_qubit_target(3, seed);
            let mut stream = seed;
            let mut jitter = || {
                stream = stream.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                theta * 2e-8 * ((stream >> 11) as f64 / (1u64 << 53) as f64 - 0.5)
            };
            let perturbed =
                Matrix::from_fn(4, 4, |r, c| target.get(r, c) + C64::new(jitter(), jitter()));
            prop_assert!(perturbed.unitary_deviation() <= 1e-8);
            perturbed
        };
        two_qubit_bound_holds(&target, template_depth, seed)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random reachable targets against random templates on every radix mix: the
    /// bound holds at every parameter vector, so it never exceeds the infidelity an
    /// instantiation reaches.
    #[test]
    fn bound_never_exceeds_an_instantiated_infidelity(
        radices in prop_oneof![
            Just(vec![2usize, 2]), Just(vec![3, 3]), Just(vec![2, 3]), Just(vec![3, 2]),
            Just(vec![2, 2, 2]), Just(vec![2, 2, 3]), Just(vec![2, 2, 2, 2]),
        ],
        target_depth in 0usize..4,
        template_depth in 0usize..3,
        seed in 0u64..u64::MAX,
    ) {
        let chain: Vec<(usize, usize)> = (0..radices.len() - 1).map(|q| (q, q + 1)).collect();
        // Each block's edge is read from its own four bits of the seed.
        let edges = |depth: usize, salt: usize| -> Vec<(usize, usize)> {
            (0..depth).map(|i| chain[(seed >> (4 * i + 16 * salt)) as usize % chain.len()]).collect()
        };
        let generator = builders::pqc_template(&radices, &edges(target_depth, 1)).unwrap();
        let target = reachable_target(&generator, seed);
        let template_edges = edges(template_depth, 2);
        let template = builders::pqc_template(&radices, &template_edges).unwrap();
        let config = InstantiateConfig { starts: 1, seed, ..Default::default() };
        let fit = instantiate_circuit(&template, &target, &config, &ExpressionCache::new());
        let certificate = bound(&target, &radices, &template_edges);
        prop_assert!(
            certificate <= fit.infidelity + 1e-12,
            "{radices:?} template {template_edges:?}: bound {certificate} above fit {}",
            fit.infidelity
        );
    }
}
