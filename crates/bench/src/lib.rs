//! Benchmark harness for the OpenQudit reproduction.
//!
//! This crate holds the workload definitions of the `report_*` binaries that regenerate
//! every figure and table of the paper's evaluation. Each binary's module docs name the
//! figure it regenerates; `BENCH_synthesis.json` at the repository root holds the
//! committed synthesis medians.

use std::time::{Duration, Instant};

use openqudit::prelude::*;

/// One parameterized-circuit instantiation workload (a Fig. 5 benchmark case).
pub struct PqcWorkload {
    /// Human-readable name used in reports (e.g. "3-qubit shallow").
    pub name: &'static str,
    /// The ansatz circuit.
    pub circuit: QuditCircuit,
}

/// Builds the full Fig. 5 workload suite: shallow/deep qubit ladders and qutrit ladders
/// at two and three qudits.
pub fn fig5_workloads() -> Vec<PqcWorkload> {
    use openqudit::circuit::builders;
    vec![
        PqcWorkload {
            name: "2-qubit shallow",
            circuit: builders::pqc_qubit_ladder(2, 1).expect("valid builder arguments"),
        },
        PqcWorkload {
            name: "3-qubit shallow",
            circuit: builders::pqc_qubit_ladder(3, 3).expect("valid builder arguments"),
        },
        PqcWorkload {
            name: "3-qubit deep",
            circuit: builders::pqc_qubit_ladder(3, 8).expect("valid builder arguments"),
        },
        PqcWorkload {
            name: "2-qutrit shallow",
            circuit: builders::pqc_qutrit_ladder(2, 1).expect("valid builder arguments"),
        },
        PqcWorkload {
            name: "3-qutrit shallow",
            circuit: builders::pqc_qutrit_ladder(3, 3).expect("valid builder arguments"),
        },
    ]
}

/// Generates `count` instantiation targets for a workload: unitaries produced by the
/// ansatz itself at random parameters (so a perfect solution exists), which makes success
/// rates meaningful for both backends.
pub fn reachable_targets(circuit: &QuditCircuit, count: usize, seed: u64) -> Vec<Matrix<f64>> {
    (0..count).map(|k| reachable_target(circuit, seed + k as u64)).collect()
}

/// Measures the wall-clock time of `f`, returning its result and the elapsed duration.
pub fn time_it<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    // detlint: allow(wall-clock) — bench harness; elapsed time is the measurement
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Result of one instantiation timing run.
pub struct TimedInstantiation {
    /// Wall-clock time including (for the TNVM side) AOT compilation and TNVM init.
    pub elapsed: Duration,
    /// Whether the run reached the success threshold.
    pub success: bool,
    /// Final infidelity.
    pub infidelity: f64,
}

/// Runs TNVM-backed instantiation end to end (AOT compile → TNVM init → LM), matching
/// the paper's convention of charging OpenQudit for its one-time AOT cost.
pub fn run_openqudit_instantiation(
    circuit: &QuditCircuit,
    target: &Matrix<f64>,
    config: &InstantiateConfig,
    cache: &ExpressionCache,
) -> TimedInstantiation {
    let (result, elapsed) = time_it(|| instantiate_circuit(circuit, target, config, cache));
    TimedInstantiation { elapsed, success: result.success, infidelity: result.infidelity }
}

/// Runs the BQSKit-style baseline instantiation with the same LM optimizer.
pub fn run_baseline_instantiation(
    circuit: &QuditCircuit,
    target: &Matrix<f64>,
    config: &InstantiateConfig,
) -> TimedInstantiation {
    let (result, elapsed) = time_it(|| {
        let mut evaluator = BaselineEvaluator::from_qudit_circuit(circuit)
            .expect("benchmark circuits only use gates with baseline implementations");
        instantiate(&mut evaluator, target, config)
    });
    TimedInstantiation { elapsed, success: result.success, infidelity: result.infidelity }
}

/// Builds an OpenQudit QFT circuit (cheap cached-reference appends).
pub fn build_qft_openqudit(n: usize) -> QuditCircuit {
    openqudit::circuit::builders::qft(n).expect("valid qft size")
}

/// Builds an OpenQudit DTC circuit (Listing 4 of the paper).
pub fn build_dtc_openqudit(n: usize) -> QuditCircuit {
    openqudit::circuit::builders::dtc(n).expect("valid dtc size")
}

/// Builds the QFT circuit through the baseline framework (per-append checks).
pub fn build_qft_baseline(n: usize) -> BaselineCircuit {
    use openqudit::baseline::{CPhaseGate, ConstantGate};
    use std::sync::Arc;
    let mut circ = BaselineCircuit::qubits(n);
    for i in 0..n {
        circ.append_constant(Arc::new(ConstantGate::hadamard()), vec![i], vec![])
            .expect("valid append");
        for j in (i + 1)..n {
            let angle = std::f64::consts::PI / (1u64 << (j - i)) as f64;
            circ.append_constant(Arc::new(CPhaseGate), vec![j, i], vec![angle])
                .expect("valid append");
        }
    }
    for i in 0..n / 2 {
        circ.append_constant(Arc::new(ConstantGate::swap()), vec![i, n - 1 - i], vec![])
            .expect("valid append");
    }
    circ
}

/// Builds the DTC circuit through the baseline framework (per-append checks).
pub fn build_dtc_baseline(n: usize) -> BaselineCircuit {
    use openqudit::baseline::{RxGate, RzGate, RzzGate};
    use std::sync::Arc;
    let mut circ = BaselineCircuit::qubits(n);
    let mut counter = 0u64;
    let mut angle = move || {
        counter += 1;
        let frac = (counter as f64 * 0.6180339887498949) % 1.0;
        std::f64::consts::PI * (2.0 * frac - 1.0)
    };
    for _ in 0..n {
        for q in 0..n {
            circ.append_constant(Arc::new(RxGate), vec![q], vec![0.95 * std::f64::consts::PI])
                .expect("valid append");
        }
        for q in 0..n {
            circ.append_constant(Arc::new(RzGate), vec![q], vec![angle()]).expect("valid append");
        }
        for q in 0..n.saturating_sub(1) {
            circ.append_constant(Arc::new(RzzGate), vec![q, q + 1], vec![angle()])
                .expect("valid append");
        }
    }
    circ
}

/// One bottom-up synthesis workload: a named target over a qudit system.
pub struct SynthWorkload {
    /// Human-readable name used in reports.
    pub name: &'static str,
    /// The qudit radices of the system.
    pub radices: Vec<usize>,
    /// The target unitary.
    pub target: Matrix<f64>,
    /// Search depth bound (entangling blocks).
    pub max_blocks: usize,
}

/// Builds the synthesis workload suite: constant two-qubit gates plus reachable
/// random targets on qubit and qutrit systems (targets generated by the synthesis
/// template itself at random parameters, so a perfect solution always exists).
pub fn synthesis_workloads() -> Vec<SynthWorkload> {
    use openqudit::circuit::builders;
    let reachable = |radices: &[usize], blocks: &[(usize, usize)], seed: u64| {
        let template = builders::pqc_template(radices, blocks).expect("valid template");
        reachable_target(&template, seed)
    };
    vec![
        SynthWorkload {
            name: "2-qubit cnot",
            radices: vec![2, 2],
            target: openqudit::circuit::gates::cnot().to_matrix::<f64>(&[]).expect("constant gate"),
            max_blocks: 3,
        },
        SynthWorkload {
            name: "2-qubit reachable depth-2",
            radices: vec![2, 2],
            target: reachable(&[2, 2], &[(0, 1), (0, 1)], 41),
            max_blocks: 3,
        },
        SynthWorkload {
            name: "3-qubit reachable depth-2",
            radices: vec![2, 2, 2],
            target: reachable(&[2, 2, 2], &[(0, 1), (1, 2)], 43),
            max_blocks: 3,
        },
        SynthWorkload {
            name: "2-qutrit reachable depth-1",
            radices: vec![3, 3],
            target: reachable(&[3, 3], &[(0, 1)], 47),
            max_blocks: 2,
        },
        // Mixed-radix workload: the embedded controlled-shift entangler on a
        // qubit–qutrit pair, served by the default gate-set registry's (2, 3) entry.
        // Its presence here also folds the mixed path into the CI byte-for-byte
        // determinism diff over `report_synthesis`.
        SynthWorkload {
            name: "qubit-qutrit embedded csum",
            radices: vec![2, 3],
            target: openqudit::circuit::gates::cshift23()
                .to_matrix::<f64>(&[])
                .expect("constant gate"),
            max_blocks: 2,
        },
        // Partitioned workload: a 4-qubit target reachable by a two-round partitioned
        // template over the [0,1]|[2,3] cut — the width the monolithic search cannot
        // practically reach. `report_synthesis` compiles it through the partitioned
        // pipeline, folding the partition path into the CI byte-for-byte determinism
        // diff.
        SynthWorkload {
            name: "4-qubit partitioned reachable",
            radices: vec![2, 2, 2, 2],
            target: {
                let round = [(0usize, 1usize), (2, 3), (1, 2)];
                let blocks: Vec<(usize, usize)> = round.iter().cycle().take(6).copied().collect();
                let template =
                    builders::pqc_template(&[2, 2, 2, 2], &blocks).expect("valid template");
                reachable_target(&template, 53)
            },
            max_blocks: 8,
        },
    ]
}

/// The synthesis configuration a workload runs under. Refinement stays enabled: the
/// pass pipeline times the search, refinement, and folding stages separately, so the
/// report no longer needs to orchestrate them by hand.
pub fn synthesis_config(workload: &SynthWorkload) -> SynthesisConfig {
    let mut config = SynthesisConfig::with_radices(workload.radices.clone());
    config.max_blocks = workload.max_blocks;
    config
}

/// Formats a duration in engineering units for report tables.
pub fn fmt_duration(d: Duration) -> String {
    let secs = d.as_secs_f64();
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else {
        format!("{:.3} µs", secs * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_build_and_have_parameters() {
        for w in fig5_workloads() {
            assert!(w.circuit.num_params() > 0, "{} should be parameterized", w.name);
            assert!(w.circuit.num_ops() > 0);
        }
    }

    #[test]
    fn construction_builders_agree_on_op_counts() {
        for n in [3usize, 5] {
            assert_eq!(build_qft_openqudit(n).num_ops(), build_qft_baseline(n).num_ops());
            assert_eq!(build_dtc_openqudit(n).num_ops(), build_dtc_baseline(n).num_ops());
        }
    }

    #[test]
    fn both_backends_instantiate_the_same_workload() {
        let w = &fig5_workloads()[0];
        let target = reachable_targets(&w.circuit, 1, 3).remove(0);
        let cache = ExpressionCache::new();
        let config = InstantiateConfig { starts: 2, ..Default::default() };
        let oq = run_openqudit_instantiation(&w.circuit, &target, &config, &cache);
        let bl = run_baseline_instantiation(&w.circuit, &target, &config);
        assert!(oq.infidelity < 1e-4, "openqudit infidelity {}", oq.infidelity);
        assert!(bl.infidelity < 1e-4, "baseline infidelity {}", bl.infidelity);
    }

    #[test]
    fn synthesis_workloads_are_well_formed() {
        for w in synthesis_workloads() {
            let dim: usize = w.radices.iter().product();
            assert_eq!(w.target.rows(), dim, "{}", w.name);
            assert!(w.target.is_unitary(1e-8), "{}", w.name);
            let config = synthesis_config(&w);
            assert_eq!(config.radices, w.radices);
            assert_eq!(config.max_blocks, w.max_blocks);
        }
    }

    #[test]
    fn duration_formatting() {
        assert!(fmt_duration(Duration::from_secs(2)).contains('s'));
        assert!(fmt_duration(Duration::from_millis(5)).contains("ms"));
        assert!(fmt_duration(Duration::from_micros(7)).contains("µs"));
    }
}
