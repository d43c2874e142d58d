//! Golden snapshot of numerical instantiation.
//!
//! Fixed-seed multi-start instantiations (TNVM in parallel and serially, and the
//! baseline engine) and one partitioned 4-qubit compile (at the default thread budget
//! and at one thread) are fingerprinted: an FNV-1a hash over the bits of the resulting
//! parameters and infidelity, plus the start and iteration counts (and, for the
//! compile, the chosen blocks). Any change to TNVM evaluation, the Levenberg–Marquardt
//! loop or the normal-equations assembly that moves a single bit of a result fails
//! here. Work-saving refactors must keep the table unchanged; a deliberate numerical
//! change regenerates it from the failure message.

use openqudit::prelude::*;
use openqudit_integration_tests::fnv1a;

fn result_hash(params: &[f64], infidelity: f64) -> u64 {
    fnv1a(params.iter().chain([&infidelity]).map(|x| x.to_bits()))
}

/// `(case, hash of params and infidelity, starts_used, total_iterations)`.
const GOLDEN: &[(&str, u64, usize, usize)] = &[
    ("2q.parallel", 0x6e388ac0763b3af3, 1, 15),
    ("2q.serial", 0x6e388ac0763b3af3, 1, 15),
    ("2q_short.parallel", 0x7bfa2e1f045f5fff, 8, 800),
    ("2q_short.serial", 0x7bfa2e1f045f5fff, 8, 800),
    ("3q.parallel", 0x01759cc374bac240, 1, 16),
    ("3q.serial", 0x01759cc374bac240, 1, 16),
    ("3q_deep.parallel", 0x4418ef6364fdac38, 8, 404),
    ("3q_deep.serial", 0x4418ef6364fdac38, 8, 404),
    ("2qt.parallel", 0x38949d513ab47f6f, 1, 21),
    ("2qt.serial", 0x38949d513ab47f6f, 1, 21),
    ("2q3.parallel", 0x28d7139f1602e79e, 2, 29),
    ("2q3.serial", 0x28d7139f1602e79e, 2, 29),
    ("2qq.parallel", 0xa87a0bca2db146c7, 3, 66),
    ("2qq.serial", 0xa87a0bca2db146c7, 3, 66),
    ("baseline.2q", 0xa74b2ab1891433de, 1, 18),
    ("baseline.3q", 0xa60f29c50a24473a, 1, 20),
];

/// Entangling blocks of a `pqc_template`.
type Blocks = &'static [(usize, usize)];

/// `(name, radices, ansatz blocks, target template blocks, seed)`: the target is a
/// reachable unitary of the (sometimes deeper) target template, so some cases
/// succeed on the first start and others run every start.
const TEMPLATES: &[(&str, &[usize], Blocks, Blocks, u64)] = &[
    ("2q", &[2, 2], &[(0, 1), (0, 1)], &[(0, 1), (0, 1)], 11),
    ("2q_short", &[2, 2], &[(0, 1)], &[(0, 1), (0, 1), (0, 1)], 12),
    ("3q", &[2, 2, 2], &[(0, 1), (1, 2)], &[(0, 1), (1, 2)], 13),
    ("3q_deep", &[2, 2, 2], &[(0, 1), (1, 2), (0, 1), (1, 2)], &[(0, 1), (1, 2), (0, 1)], 17),
    ("2qt", &[3, 3], &[(0, 1)], &[(0, 1)], 14),
    ("2q3", &[2, 3], &[(0, 1)], &[(0, 1)], 15),
    ("2qq", &[4, 4], &[], &[], 16),
];

fn cases() -> Vec<(String, u64, usize, usize)> {
    let cache = ExpressionCache::new();
    let mut out = Vec::new();
    for &(name, radices, blocks, target_blocks, seed) in TEMPLATES {
        let ansatz = builders::pqc_template(radices, blocks).unwrap();
        let target =
            reachable_target(&builders::pqc_template(radices, target_blocks).unwrap(), seed);
        for (mode, threads) in [("parallel", 0), ("serial", 1)] {
            let config = InstantiateConfig { threads, ..InstantiateConfig::multi_start(seed) };
            let r = instantiate_circuit(&ansatz, &target, &config, &cache);
            let hash = result_hash(&r.params, r.infidelity);
            out.push((format!("{name}.{mode}"), hash, r.starts_used, r.total_iterations));
        }
    }
    for (name, circuit, seed) in [
        ("baseline.2q", builders::pqc_qubit_ladder(2, 2).unwrap(), 21),
        ("baseline.3q", builders::pqc_qubit_ladder(3, 2).unwrap(), 22),
    ] {
        let target = reachable_target(&circuit, seed);
        let mut evaluator = BaselineEvaluator::from_qudit_circuit(&circuit).unwrap();
        let config = InstantiateConfig { starts: 4, ..InstantiateConfig::multi_start(seed) };
        let r = instantiate(&mut evaluator, &target, &config);
        out.push((
            name.to_string(),
            result_hash(&r.params, r.infidelity),
            r.starts_used,
            r.total_iterations,
        ));
    }
    out
}

/// The partitioned compile's `(hash of params and infidelity, blocks)`.
const GOLDEN_COMPILE: (u64, Blocks) = (0x73e4540847d22eb1, &[(0, 1), (2, 3), (1, 2)]);

fn partitioned_compile(threads: usize) -> (u64, Vec<(usize, usize)>) {
    let template = builders::pqc_template(&[2, 2, 2, 2], &[(0, 1), (2, 3), (1, 2)]).unwrap();
    let target = reachable_target(&template, 71);
    let compiler =
        Compiler::with_cache(ExpressionCache::new()).partitioned_passes().threads(threads);
    let report =
        compiler.compile(CompilationTask::new(target, SynthesisConfig::qubits(4))).unwrap();
    let result = &report.result;
    (result_hash(&result.params, result.infidelity), result.blocks.clone())
}

#[test]
fn instantiations_match_golden_table() {
    let actual = cases();
    let table: String = actual
        .iter()
        .map(|(case, hash, starts, iterations)| {
            format!("    (\"{case}\", 0x{hash:016x}, {starts}, {iterations}),\n")
        })
        .collect();
    let expected: Vec<(String, u64, usize, usize)> =
        GOLDEN.iter().map(|&(case, hash, s, i)| (case.to_string(), hash, s, i)).collect();
    assert!(
        actual == expected,
        "instantiation results differ from the golden table; the current table is:\n{table}"
    );
}

#[test]
fn partitioned_compile_matches_golden() {
    // `threads(0)` leaves the machine's parallelism; `threads(1)` runs the partition
    // rounds, the multi-starts and refine's restarts serially.
    for threads in [0, 1] {
        let (hash, blocks) = partitioned_compile(threads);
        assert!(
            (hash, blocks.as_slice()) == GOLDEN_COMPILE,
            "partitioned compile at threads({threads}) differs from the golden entry; it is \
             now (0x{hash:016x}, &{blocks:?})"
        );
    }
}
