//! TNVM conformance suite: the evaluation results the VM must reproduce bit for bit.
//!
//! Every registered-gate-set radix mix (pure qubit, qutrit, ququart, and all mixed
//! pairs) and two deep qubit ladders are evaluated in both differentiation modes, and
//! an FNV-1a fingerprint over the bits of the unitary and every gradient block is
//! compared with a pinned table. `evaluate_unitary` must equal `evaluate().unitary`
//! bit for bit. A proptest sweep checks random templates against the circuit's
//! reference unitary and central finite differences, and the compile pin fixes the
//! CNOT compile's parameters, infidelity and blocks. A kernel change that moves one
//! bit of any result fails here; a deliberate numerical change regenerates the pins
//! from the failure messages.

use openqudit::circuit::builders;
use openqudit::prelude::*;
use openqudit_integration_tests::fnv1a;
use proptest::prelude::*;

/// Deterministic pseudo-random parameters in (−2, 2).
fn param_vector(count: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
    (0..count)
        .map(|_| {
            state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            ((state >> 33) as f64 / (1u64 << 30) as f64) - 2.0
        })
        .collect()
}

/// Fingerprint of one evaluation: the unitary's bits, then every gradient block's.
fn result_hash(result: &EvalResult<f64>) -> u64 {
    fnv1a(
        std::iter::once(&result.unitary)
            .chain(&result.gradient)
            .flat_map(|m| m.as_slice().iter().flat_map(|z| [z.re.to_bits(), z.im.to_bits()])),
    )
}

fn assert_matrices_bit_identical(a: &Matrix<f64>, b: &Matrix<f64>, what: &str) {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "{what}: shape");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice().iter()).enumerate() {
        assert_eq!(x.re.to_bits(), y.re.to_bits(), "{what}: re differs at element {i}");
        assert_eq!(x.im.to_bits(), y.im.to_bits(), "{what}: im differs at element {i}");
    }
}

/// Evaluates `circuit` at the seeded parameters and asserts the result's fingerprint
/// equals `pin`, and that `evaluate_unitary` reproduces `evaluate().unitary`.
fn assert_pinned(circuit: &QuditCircuit, diff: DiffMode, seed: u64, pin: u64, what: &str) {
    let program = compile_network(&TensorNetwork::from_circuit(circuit));
    let cache = ExpressionCache::new();
    let params = param_vector(circuit.num_params(), seed);
    let mut vm = Tnvm::<f64>::new(&program, diff, &cache);
    let result = vm.evaluate(&params);
    let hash = result_hash(&result);
    assert_eq!(hash, pin, "{what}: fingerprint {hash:#018x}");
    let unitary = vm.evaluate_unitary(&params);
    assert_matrices_bit_identical(&unitary, &result.unitary, &format!("{what}: unitary"));
}

/// Every radix mix the default gate set registers, with the fingerprints of its
/// `DiffMode::None` and `DiffMode::Gradient` evaluations at seed 7.
const RADIX_MIX_PINS: [(&[usize], u64, u64); 7] = [
    (&[2, 2], 0xc5f4_f584_09c9_01ac, 0x37b0_2a75_2b8b_a5dc),
    (&[3, 3], 0xd91a_acd7_20b0_f42c, 0xae66_b095_ae9c_9a78),
    (&[4, 4], 0x339a_7889_b55b_a4e6, 0x6e77_8410_2308_1ec1),
    (&[2, 3], 0x3ff2_ffa4_3d5e_bf16, 0xf35f_055c_ad46_648d),
    (&[2, 4], 0x604b_ba5e_cea7_c0bc, 0x3deb_2d93_972e_7357),
    (&[3, 4], 0x09cd_bfba_1f55_9cfa, 0x300d_ebd7_47f0_db5b),
    (&[2, 3, 4], 0xba52_1611_5992_df36, 0xb922_311e_97c6_db01),
];

#[test]
fn tiers_agree_bitwise_on_every_registered_radix_mix() {
    for (radices, none_pin, gradient_pin) in RADIX_MIX_PINS {
        let edges: Vec<(usize, usize)> = (0..radices.len() - 1).map(|q| (q, q + 1)).collect();
        let circuit = builders::pqc_template(radices, &edges).unwrap();
        for (diff, pin) in [(DiffMode::None, none_pin), (DiffMode::Gradient, gradient_pin)] {
            assert_pinned(&circuit, diff, 7, pin, &format!("{radices:?} {diff:?}"));
        }
    }
}

#[test]
fn tiers_agree_bitwise_on_deep_qubit_ladders() {
    // Deeper programs chain many MATMUL/KRON ops, so a one-bit kernel drift
    // compounds loudly.
    for (n, layers, pin) in [(3usize, 3usize, 0x0685_fbb1_7df9_a6e0), (4, 2, 0x0948_11e5_c214_deef)]
    {
        let circuit = builders::pqc_qubit_ladder(n, layers).unwrap();
        assert_pinned(
            &circuit,
            DiffMode::Gradient,
            (n * 10 + layers) as u64,
            pin,
            &format!("{n}-qubit {layers}-layer ladder"),
        );
    }
}

#[test]
fn blocked_tier_reports_workspace_and_larger_memory() {
    // The VM's numerical storage on the 3-qubit gradient ladder and the 6-qubit
    // value-only ladder, in bytes.
    let cache = ExpressionCache::new();
    for (n, layers, diff, pin) in
        [(3usize, 2usize, DiffMode::Gradient, 83_664usize), (6, 1, DiffMode::None, 338_896)]
    {
        let circuit = builders::pqc_qubit_ladder(n, layers).unwrap();
        let program = compile_network(&TensorNetwork::from_circuit(&circuit));
        let vm = Tnvm::<f64>::new(&program, diff, &cache);
        assert_eq!(vm.memory_bytes(), pin, "{n}-qubit ladder");
    }
}

#[test]
fn backend_threads_through_the_whole_stack() {
    // The CNOT compile at the default seed, pinned: parameter and infidelity bits
    // and the chosen blocks.
    const PARAMS_PIN: u64 = 0xb148_2d44_63a2_9e13;
    const INFIDELITY_BITS: u64 = 0x0;
    const BLOCKS: &[(usize, usize)] = &[(0, 1)];
    let target = openqudit::circuit::gates::cnot().to_matrix::<f64>(&[]).unwrap();
    let report = Compiler::with_cache(ExpressionCache::new())
        .default_passes()
        .compile(CompilationTask::new(target, SynthesisConfig::qubits(2)))
        .unwrap();
    let result = report.result;
    assert!(result.success);
    let params = fnv1a(result.params.iter().map(|p| p.to_bits()));
    assert_eq!(params, PARAMS_PIN, "params {params:#018x}");
    assert_eq!(result.infidelity.to_bits(), INFIDELITY_BITS, "{result:?}");
    assert_eq!(result.blocks, BLOCKS);
}

/// Central finite difference of `circuit`'s reference unitary in parameter `k`.
fn finite_difference(circuit: &QuditCircuit, params: &[f64], k: usize) -> Matrix<f64> {
    let h = 1e-6;
    let mut plus = params.to_vec();
    let mut minus = params.to_vec();
    plus[k] += h;
    minus[k] -= h;
    circuit
        .unitary::<f64>(&plus)
        .unwrap()
        .sub(&circuit.unitary::<f64>(&minus).unwrap())
        .unwrap()
        .scale(C64::from_real(1.0 / (2.0 * h)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random programs over radices 2/3/4 and mixed shapes: the unitary matches the
    /// circuit's reference unitary, every gradient block matches central finite
    /// differences, and `evaluate_unitary` equals `evaluate().unitary` bit for bit.
    #[test]
    fn tiers_agree_on_random_programs(
        radices in prop_oneof![
            Just(vec![2usize, 2]), Just(vec![3, 3]), Just(vec![4, 4]),
            Just(vec![2, 3]), Just(vec![2, 4]), Just(vec![3, 4]),
            Just(vec![2, 2, 2]), Just(vec![2, 3, 4]), Just(vec![4, 2, 3]),
        ],
        layers in 1usize..3,
        seed in 0u64..1000,
    ) {
        let chain: Vec<(usize, usize)> = (0..radices.len() - 1).map(|q| (q, q + 1)).collect();
        let edges: Vec<(usize, usize)> =
            chain.iter().cycle().take(chain.len() * layers).copied().collect();
        let circuit = builders::pqc_template(&radices, &edges).unwrap();
        let program = compile_network(&TensorNetwork::from_circuit(&circuit));
        let cache = ExpressionCache::new();
        let params = param_vector(circuit.num_params(), seed);
        let reference = circuit.unitary::<f64>(&params).unwrap();
        let fds: Vec<Matrix<f64>> =
            (0..params.len()).map(|k| finite_difference(&circuit, &params, k)).collect();
        for diff in [DiffMode::None, DiffMode::Gradient] {
            let what = format!("{radices:?} x{layers} {diff:?}");
            let mut vm = Tnvm::<f64>::new(&program, diff, &cache);
            let result = vm.evaluate(&params);
            let distance = result.unitary.max_elementwise_distance(&reference);
            prop_assert!(distance <= 1e-10, "{}: unitary off by {}", what, distance);
            for (k, (gradient, fd)) in result.gradient.iter().zip(&fds).enumerate() {
                let distance = gradient.max_elementwise_distance(fd);
                prop_assert!(distance <= 1e-5, "{}: gradient {} off by {}", what, k, distance);
            }
            let unitary = vm.evaluate_unitary(&params);
            assert_matrices_bit_identical(&unitary, &result.unitary, &what);
        }
    }
}
