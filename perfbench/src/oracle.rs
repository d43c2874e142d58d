//! Correctness oracles that share no code with the paths under test: infidelities
//! are recomputed from `QuditCircuit::unitary`, the tree-interpreting reference
//! evaluator with dense embedding (no JIT, no TNVM, no cost module).

use openqudit::prelude::*;

/// Two infidelities of the same result may differ by at most this much.
pub const AGREEMENT: f64 = 1e-10;

/// A result counts as a success below this recomputed infidelity.
pub const SUCCESS: f64 = 1e-8;

/// Hilbert–Schmidt infidelity `1 − |Tr(T† U)| / D`, written out from the matrix
/// entries.
pub fn infidelity(target: &Matrix<f64>, u: &Matrix<f64>) -> f64 {
    let d = target.rows();
    let (mut re, mut im) = (0.0, 0.0);
    for r in 0..d {
        for c in 0..d {
            let (t, v) = (target.get(r, c), u.get(r, c));
            // conj(t) * v
            re += t.re * v.re + t.im * v.im;
            im += t.re * v.im - t.im * v.re;
        }
    }
    (1.0 - (re * re + im * im).sqrt() / d as f64).max(0.0)
}

/// Recomputes the infidelity of `circuit` at `params` against `target` with the
/// reference evaluator.
pub fn recomputed_infidelity(
    circuit: &QuditCircuit,
    params: &[f64],
    target: &Matrix<f64>,
) -> Result<f64, String> {
    let u = circuit.unitary::<f64>(params).map_err(|e| e.to_string())?;
    Ok(infidelity(target, &u))
}

/// Checks a reported infidelity against the recomputed one. Returns the recomputed
/// value, or a description of the disagreement.
pub fn check_result(
    circuit: &QuditCircuit,
    params: &[f64],
    target: &Matrix<f64>,
    reported: f64,
) -> Result<f64, String> {
    let recomputed = recomputed_infidelity(circuit, params, target)?;
    if (recomputed - reported).abs() > AGREEMENT || !reported.is_finite() {
        return Err(format!("reported infidelity {reported:e}, recomputed {recomputed:e}"));
    }
    Ok(recomputed)
}

/// Largest entry-wise distance between two matrices.
pub fn distance(a: &Matrix<f64>, b: &Matrix<f64>) -> f64 {
    let mut worst: f64 = 0.0;
    for r in 0..a.rows() {
        for c in 0..a.rows() {
            let (x, y) = (a.get(r, c), b.get(r, c));
            worst = worst.max((x.re - y.re).hypot(x.im - y.im));
        }
    }
    worst
}
