//! The baseline circuit container and evaluation engine.
//!
//! [`BaselineCircuit`] models how a traditional numerical compiler builds and evaluates
//! circuits: every append repeats safety checks (location validation, a numerical
//! unitarity probe of the gate, and an equality scan against the already-registered
//! gates), and the unitary/gradient are computed by accumulating full-width matrices with
//! prefix/suffix products — no tensor network, no symbolic simplification, no caching.
//! This is the comparison side of Figs. 4, 6, and 7, standing in for the Python
//! compilers the paper measured (the crate docs say why).

use std::sync::Arc;

use qudit_circuit::{embed_gate, OpParams, QuditCircuit};
use qudit_optimize::GradientEvaluator;
use qudit_tensor::Matrix;

use crate::gates::{gate_by_name, BaselineGate};

/// Errors produced by the baseline circuit.
#[derive(Debug, Clone, PartialEq)]
pub enum BaselineError {
    /// Location/radix validation failed.
    InvalidLocation(String),
    /// The gate failed its per-append unitarity probe.
    NotUnitary(String),
    /// Wrong number of parameter values.
    ParameterCount {
        /// Expected count.
        expected: usize,
        /// Found count.
        found: usize,
    },
    /// No baseline implementation exists for a gate name.
    UnknownGate(String),
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselineError::InvalidLocation(d) => write!(f, "invalid location: {d}"),
            BaselineError::NotUnitary(d) => write!(f, "gate is not unitary: {d}"),
            BaselineError::ParameterCount { expected, found } => {
                write!(f, "expected {expected} parameters, found {found}")
            }
            BaselineError::UnknownGate(name) => write!(f, "no baseline gate named '{name}'"),
        }
    }
}

impl std::error::Error for BaselineError {}

/// Result alias for baseline operations.
pub type Result<T> = std::result::Result<T, BaselineError>;

/// Parameter binding of one baseline operation.
#[derive(Debug, Clone)]
enum Binding {
    Free { offset: usize },
    Fixed(Vec<f64>),
}

/// One gate application.
#[derive(Debug, Clone)]
struct BaselineOp {
    gate: Arc<dyn BaselineGate>,
    location: Vec<usize>,
    binding: Binding,
}

/// A circuit evaluated the traditional way.
#[derive(Debug, Clone, Default)]
pub struct BaselineCircuit {
    radices: Vec<usize>,
    ops: Vec<BaselineOp>,
    registered: Vec<Arc<dyn BaselineGate>>,
    num_params: usize,
}

impl BaselineCircuit {
    /// Creates an empty circuit over qudits with the given radices.
    pub fn new(radices: Vec<usize>) -> Self {
        BaselineCircuit { radices, ..Default::default() }
    }

    /// Creates an empty `n`-qubit circuit.
    pub fn qubits(n: usize) -> Self {
        BaselineCircuit::new(vec![2; n])
    }

    /// Number of qudits.
    pub fn num_qudits(&self) -> usize {
        self.radices.len()
    }

    /// Hilbert-space dimension.
    pub fn dim(&self) -> usize {
        self.radices.iter().product()
    }

    /// Number of operations.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Number of free parameters.
    pub fn num_params(&self) -> usize {
        self.num_params
    }

    /// The per-append validation a traditional framework performs: location checking, a
    /// numerical unitarity probe, and an equality scan against every gate registered so
    /// far (to deduplicate definitions).
    fn check_gate(&mut self, gate: &Arc<dyn BaselineGate>, location: &[usize]) -> Result<()> {
        if location.len() != gate.radices().len() {
            return Err(BaselineError::InvalidLocation(format!(
                "gate '{}' arity {} vs location {:?}",
                gate.name(),
                gate.radices().len(),
                location
            )));
        }
        let mut seen = vec![false; self.num_qudits()];
        for (&q, &r) in location.iter().zip(gate.radices().iter()) {
            if q >= self.num_qudits() || seen[q] || self.radices[q] != r {
                return Err(BaselineError::InvalidLocation(format!(
                    "qudit {q} invalid for gate '{}'",
                    gate.name()
                )));
            }
            seen[q] = true;
        }
        // Unitarity probe at an arbitrary parameter point (repeated on every append —
        // this is the cost the reference-append mechanism of OpenQudit amortizes away).
        let probe: Vec<f64> = (0..gate.num_params()).map(|k| 0.37 + 0.59 * k as f64).collect();
        if !gate.unitary(&probe).is_unitary(1e-8) {
            return Err(BaselineError::NotUnitary(gate.name().to_string()));
        }
        // Equality scan against registered gates.
        let already_known = self.registered.iter().any(|g| {
            g.name() == gate.name()
                && g.num_params() == gate.num_params()
                && g.radices() == gate.radices()
                && g.unitary(&probe).max_elementwise_distance(&gate.unitary(&probe)) < 1e-12
        });
        if !already_known {
            self.registered.push(Arc::clone(gate));
        }
        Ok(())
    }

    /// Appends a parameterized gate.
    ///
    /// # Errors
    ///
    /// Returns a [`BaselineError`] if validation fails.
    pub fn append(&mut self, gate: Arc<dyn BaselineGate>, location: Vec<usize>) -> Result<()> {
        self.check_gate(&gate, &location)?;
        let offset = self.num_params;
        self.num_params += gate.num_params();
        self.ops.push(BaselineOp { gate, location, binding: Binding::Free { offset } });
        Ok(())
    }

    /// Appends a gate with fixed parameter values.
    ///
    /// # Errors
    ///
    /// Returns a [`BaselineError`] if validation fails or the value count is wrong.
    pub fn append_constant(
        &mut self,
        gate: Arc<dyn BaselineGate>,
        location: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<()> {
        self.check_gate(&gate, &location)?;
        if values.len() != gate.num_params() {
            return Err(BaselineError::ParameterCount {
                expected: gate.num_params(),
                found: values.len(),
            });
        }
        self.ops.push(BaselineOp { gate, location, binding: Binding::Fixed(values) });
        Ok(())
    }

    /// Converts an OpenQudit [`QuditCircuit`] into a baseline circuit by looking up each
    /// gate's hand-written implementation by name. Used by the benchmarks so both
    /// backends evaluate *exactly* the same ansatz.
    ///
    /// # Errors
    ///
    /// Returns [`BaselineError::UnknownGate`] if a gate has no baseline implementation.
    pub fn from_qudit_circuit(circuit: &QuditCircuit) -> Result<Self> {
        let mut out = BaselineCircuit::new(circuit.radices().to_vec());
        for op in circuit.ops() {
            let expr = circuit
                .expression(op.expr)
                .expect("circuit operations reference cached expressions");
            let gate = gate_by_name(expr.name())
                .ok_or_else(|| BaselineError::UnknownGate(expr.name().to_string()))?;
            match &op.params {
                OpParams::Parameterized { .. } => out.append(gate, op.location.clone())?,
                OpParams::Constant(values) => {
                    out.append_constant(gate, op.location.clone(), values.clone())?
                }
            }
        }
        Ok(out)
    }

    fn op_values(&self, op: &BaselineOp, params: &[f64]) -> Vec<f64> {
        match &op.binding {
            Binding::Fixed(values) => values.clone(),
            Binding::Free { offset } => params[*offset..*offset + op.gate.num_params()].to_vec(),
        }
    }

    /// Computes the circuit unitary by direct accumulation of embedded gate matrices.
    ///
    /// # Panics
    ///
    /// Panics if `params` has the wrong length.
    pub fn unitary(&self, params: &[f64]) -> Matrix<f64> {
        assert_eq!(params.len(), self.num_params, "wrong parameter count");
        let dim = self.dim();
        let mut total = Matrix::<f64>::identity(dim);
        for op in &self.ops {
            let values = self.op_values(op, params);
            let gate = op.gate.unitary(&values);
            let embedded = embed_gate(&gate, op.gate.radices(), &op.location, &self.radices);
            total = embedded.matmul(&total);
        }
        total
    }

    /// Computes the circuit unitary and its gradient with prefix/suffix full-width
    /// products (the standard non-tensor-network approach).
    ///
    /// # Panics
    ///
    /// Panics if `params` has the wrong length.
    pub fn unitary_and_gradient(&self, params: &[f64]) -> (Matrix<f64>, Vec<Matrix<f64>>) {
        let forward = self.forward(params);
        let gradient = self.gradient_from(params, &forward);
        (forward.unitary(), gradient)
    }

    /// The first half of [`BaselineCircuit::unitary_and_gradient`]: the embedded gate
    /// matrices and their prefix products, the last of which is the unitary.
    fn forward(&self, params: &[f64]) -> Forward {
        assert_eq!(params.len(), self.num_params, "wrong parameter count");
        // Embedded gate matrices.
        let mats: Vec<Matrix<f64>> = self
            .ops
            .iter()
            .map(|op| {
                let values = self.op_values(op, params);
                embed_gate(
                    &op.gate.unitary(&values),
                    op.gate.radices(),
                    &op.location,
                    &self.radices,
                )
            })
            .collect();
        // prefix[i] = op_{i-1} · … · op_0 (identity for i = 0).
        let mut prefix = Vec::with_capacity(mats.len() + 1);
        prefix.push(Matrix::<f64>::identity(self.dim()));
        for m in &mats {
            let last = prefix.last().expect("prefix is non-empty");
            prefix.push(m.matmul(last));
        }
        Forward { mats, prefix }
    }

    /// The second half of [`BaselineCircuit::unitary_and_gradient`]: suffix products
    /// and one full-width product per parameter, from `forward` at `params`.
    fn gradient_from(&self, params: &[f64], forward: &Forward) -> Vec<Matrix<f64>> {
        let Forward { mats, prefix } = forward;
        let dim = self.dim();
        let k = self.ops.len();
        // suffix[i] = op_{k-1} · … · op_i (identity for i = k).
        let mut suffix = vec![Matrix::<f64>::identity(dim); k + 1];
        for i in (0..k).rev() {
            suffix[i] = suffix[i + 1].matmul(&mats[i]);
        }

        let mut gradient = vec![Matrix::<f64>::zeros(dim, dim); self.num_params];
        for (i, op) in self.ops.iter().enumerate() {
            let Binding::Free { offset } = op.binding else { continue };
            let values = self.op_values(op, params);
            for (j, dgate) in op.gate.gradient(&values).into_iter().enumerate() {
                let embedded = embed_gate(&dgate, op.gate.radices(), &op.location, &self.radices);
                gradient[offset + j] = suffix[i + 1].matmul(&embedded).matmul(&prefix[i]);
            }
        }
        gradient
    }
}

/// The embedded gate matrices of one evaluation and their prefix products.
#[derive(Debug, Clone)]
struct Forward {
    mats: Vec<Matrix<f64>>,
    prefix: Vec<Matrix<f64>>,
}

impl Forward {
    fn unitary(&self) -> Matrix<f64> {
        self.prefix.last().expect("prefix is non-empty").clone()
    }
}

/// A [`GradientEvaluator`] backed by the baseline engine, so the same LM optimizer and
/// instantiation driver can be used for both sides of the comparison.
///
/// Trial evaluations defer the gradient the way the TNVM does: a trial computes the
/// embedded gates and prefix products, and only an accepted step pays for the suffix
/// and per-parameter products — the same operations as
/// [`BaselineCircuit::unitary_and_gradient`], so the comparison stays like for like.
#[derive(Debug, Clone)]
pub struct BaselineEvaluator {
    circuit: BaselineCircuit,
    /// The parameters and forward products of the last trial.
    trial: Option<(Vec<f64>, Forward)>,
}

impl BaselineEvaluator {
    /// Wraps a baseline circuit.
    pub fn new(circuit: BaselineCircuit) -> Self {
        BaselineEvaluator { circuit, trial: None }
    }

    /// Builds the evaluator directly from an OpenQudit circuit.
    ///
    /// # Errors
    ///
    /// Returns [`BaselineError::UnknownGate`] if a gate has no baseline implementation.
    pub fn from_qudit_circuit(circuit: &QuditCircuit) -> Result<Self> {
        Ok(BaselineEvaluator::new(BaselineCircuit::from_qudit_circuit(circuit)?))
    }
}

impl GradientEvaluator for BaselineEvaluator {
    fn num_params(&self) -> usize {
        self.circuit.num_params()
    }

    fn dim(&self) -> usize {
        self.circuit.dim()
    }

    fn evaluate(&mut self, params: &[f64]) -> (Matrix<f64>, Vec<Matrix<f64>>) {
        self.circuit.unitary_and_gradient(params)
    }

    fn evaluate_trial(&mut self, params: &[f64]) -> (Matrix<f64>, Option<Vec<Matrix<f64>>>) {
        let forward = self.circuit.forward(params);
        let unitary = forward.unitary();
        self.trial = Some((params.to_vec(), forward));
        (unitary, None)
    }

    fn deferred_gradient(&mut self) -> Vec<Matrix<f64>> {
        let (params, forward) = self.trial.as_ref().expect("a trial precedes its gradient");
        self.circuit.gradient_from(params, forward)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates::{ConstantGate, RzzGate, U3Gate};
    use qudit_circuit::builders;
    use qudit_tensor::C64;

    fn rng_params(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) as f64 / (1u64 << 30) as f64) - 2.0
            })
            .collect()
    }

    #[test]
    fn append_validation() {
        let mut c = BaselineCircuit::qubits(2);
        assert!(c.append(Arc::new(U3Gate), vec![0]).is_ok());
        assert!(matches!(
            c.append(Arc::new(U3Gate), vec![5]),
            Err(BaselineError::InvalidLocation(_))
        ));
        assert!(matches!(
            c.append(Arc::new(ConstantGate::csum()), vec![0, 1]),
            Err(BaselineError::InvalidLocation(_))
        ));
        assert!(matches!(
            c.append_constant(Arc::new(RzzGate), vec![0, 1], vec![]),
            Err(BaselineError::ParameterCount { .. })
        ));
        assert_eq!(c.num_params(), 3);
        assert_eq!(c.num_ops(), 1);
    }

    #[test]
    fn matches_openqudit_reference_unitary() {
        for (n, layers) in [(2usize, 1usize), (3, 2)] {
            let reference = builders::pqc_qubit_ladder(n, layers).unwrap();
            let baseline = BaselineCircuit::from_qudit_circuit(&reference).unwrap();
            assert_eq!(baseline.num_params(), reference.num_params());
            let params = rng_params(reference.num_params(), 3);
            let a = baseline.unitary(&params);
            let b = reference.unitary::<f64>(&params).unwrap();
            assert!(a.max_elementwise_distance(&b) < 1e-10);
        }
    }

    #[test]
    fn qutrit_conversion_matches_reference() {
        let reference = builders::pqc_qutrit_ladder(2, 1).unwrap();
        let baseline = BaselineCircuit::from_qudit_circuit(&reference).unwrap();
        let params = rng_params(reference.num_params(), 17);
        let a = baseline.unitary(&params);
        let b = reference.unitary::<f64>(&params).unwrap();
        assert!(a.max_elementwise_distance(&b) < 1e-10);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let reference = builders::pqc_qubit_ladder(2, 1).unwrap();
        let baseline = BaselineCircuit::from_qudit_circuit(&reference).unwrap();
        let params = rng_params(baseline.num_params(), 9);
        let (u, grads) = baseline.unitary_and_gradient(&params);
        assert!(u.is_unitary(1e-10));
        let h = 1e-6;
        for k in 0..baseline.num_params() {
            let mut plus = params.clone();
            let mut minus = params.clone();
            plus[k] += h;
            minus[k] -= h;
            let fd = baseline
                .unitary(&plus)
                .sub(&baseline.unitary(&minus))
                .unwrap()
                .scale(C64::from_real(1.0 / (2.0 * h)));
            assert!(grads[k].max_elementwise_distance(&fd) < 1e-5, "parameter {k}");
        }
    }

    #[test]
    fn gradient_agrees_with_tnvm() {
        let circuit = builders::pqc_qubit_ladder(3, 2).unwrap();
        let baseline = BaselineCircuit::from_qudit_circuit(&circuit).unwrap();
        let params = rng_params(circuit.num_params(), 23);
        let (bu, bg) = baseline.unitary_and_gradient(&params);

        let cache = qudit_qvm::ExpressionCache::new();
        let mut tnvm_eval = qudit_optimize::TnvmEvaluator::new(&circuit, &cache);
        let (tu, tg) = tnvm_eval.evaluate(&params);
        assert!(bu.max_elementwise_distance(&tu) < 1e-9);
        for (a, b) in bg.iter().zip(tg.iter()) {
            assert!(a.max_elementwise_distance(b) < 1e-9);
        }
    }

    #[test]
    fn unknown_gate_conversion_fails_loudly() {
        let mut c = qudit_circuit::QuditCircuit::qubits(1);
        let custom = qudit_qgl::UnitaryExpression::new(
            "Mystery(t) { [[cos(t), ~sin(t)], [sin(t), cos(t)]] }",
        )
        .unwrap();
        let r = c.cache_operation(custom).unwrap();
        c.append_ref(r, vec![0]).unwrap();
        assert!(matches!(
            BaselineCircuit::from_qudit_circuit(&c),
            Err(BaselineError::UnknownGate(_))
        ));
    }

    #[test]
    fn evaluator_trait_wiring() {
        let circuit = builders::pqc_qubit_ladder(2, 1).unwrap();
        let mut evaluator = BaselineEvaluator::from_qudit_circuit(&circuit).unwrap();
        assert_eq!(evaluator.num_params(), circuit.num_params());
        assert_eq!(evaluator.dim(), 4);
        let (u, g) = evaluator.evaluate(&rng_params(circuit.num_params(), 2));
        assert!(u.is_unitary(1e-10));
        assert_eq!(g.len(), circuit.num_params());
    }

    #[test]
    fn deferred_trial_gradient_is_bit_identical_to_eager_evaluation() {
        let circuit = builders::pqc_qubit_ladder(3, 2).unwrap();
        let mut evaluator = BaselineEvaluator::from_qudit_circuit(&circuit).unwrap();
        let params = rng_params(circuit.num_params(), 31);
        let (eager_u, eager_g) = evaluator.circuit.unitary_and_gradient(&params);
        let _ = evaluator.evaluate_trial(&rng_params(circuit.num_params(), 32));
        let (u, deferred) = evaluator.evaluate_trial(&params);
        assert!(deferred.is_none());
        let g = evaluator.deferred_gradient();
        let bits = |m: &Matrix<f64>| -> Vec<(u64, u64)> {
            m.as_slice().iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        assert_eq!(bits(&u), bits(&eager_u));
        assert_eq!(g.len(), eager_g.len());
        for (a, b) in g.iter().zip(&eager_g) {
            assert_eq!(bits(a), bits(b));
        }
    }

    #[test]
    fn error_display() {
        assert!(BaselineError::UnknownGate("Q".into()).to_string().contains("Q"));
        assert!(BaselineError::NotUnitary("X".into()).to_string().contains("unitary"));
    }
}
