//! Static cost-model conformance: the figures an optimization decision weighs.
//!
//! `estimate_plan` predicts the TNVM's kernel counters from a program alone. It
//! must agree *exactly* with the runtime `KernelCounters` of a full evaluation
//! (value sweep plus gradient sweep) on every registered radix mix and both
//! `DiffMode`s.

use openqudit::analyze::estimate_plan;
use openqudit::circuit::builders;
use openqudit::prelude::*;

/// The radix mixes of the analyze conformance suite: qubit pair, qutrit pair, the
/// mixed pair, and a three-qubit chain.
const RADIX_MIXES: [&[usize]; 4] = [&[2, 2], &[3, 3], &[2, 3], &[2, 2, 2]];

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

/// Compiles a PQC template over `radices` with `layers` rounds of
/// nearest-neighbour couplings down to TNVM bytecode.
fn compiled_program(radices: &[usize], layers: usize) -> TnvmProgram {
    let chain: Vec<(usize, usize)> = (0..radices.len() - 1).map(|i| (i, i + 1)).collect();
    let edges: Vec<(usize, usize)> =
        chain.iter().cycle().take(chain.len() * layers).copied().collect();
    let circuit = builders::pqc_template(radices, &edges).unwrap();
    try_compile_network(&TensorNetwork::from_circuit(&circuit)).unwrap()
}

#[test]
fn static_estimate_matches_runtime_counters_exactly() {
    // The cost model and the runtime tally must be the same arithmetic: exact
    // equality, no tolerance — on one- and two-layer templates of every mix.
    let cache = ExpressionCache::new();
    for mix in RADIX_MIXES {
        for layers in [1, 2] {
            let p = compiled_program(mix, layers);
            for mode in [DiffMode::None, DiffMode::Gradient] {
                let what = format!("{mix:?} x{layers} {mode:?}");
                let estimate = estimate_plan(&p, mode);
                let mut vm: Tnvm<f64> = Tnvm::new(&p, mode, &cache);
                let mut init = vm.take_counters();
                // Cache outcomes depend on what earlier constructions warmed;
                // the static model deliberately leaves them at zero.
                init.cache_hits = 0;
                init.cache_misses = 0;
                assert_eq!(init, estimate.init, "{what}: init counters");
                vm.evaluate(&param_vector(p.num_params, 11));
                assert_eq!(
                    vm.take_counters(),
                    estimate.per_evaluation,
                    "{what}: per-evaluation counters"
                );
            }
        }
    }
}
