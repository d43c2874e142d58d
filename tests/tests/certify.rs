//! Certificate conformance: the operator-Schmidt cut bound that refine and the search
//! use to skip hopeless LM runs is sound on every radix mix (it never exceeds an
//! instantiated infidelity), tight where the theory says it is, and reads the ranks
//! of the registered entanglers correctly.

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
