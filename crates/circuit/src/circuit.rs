//! [`QuditCircuit`] — the extensible circuit representation of the OpenQudit library.
//!
//! The circuit stores each distinct gate definition once (via [`QuditCircuit::cache_operation`])
//! and records operations as lightweight references to those cached expressions. Appending
//! by reference avoids the repeated safety/equality checks that make construction slow in
//! traditional frameworks — this is the mechanism behind the Fig. 4 construction results.

use std::collections::HashMap;

use qudit_qgl::{ExprKey, UnitaryExpression};
use qudit_tensor::{Complex, Float, Matrix};

/// Errors produced while building or evaluating a circuit.
#[derive(Debug, Clone, PartialEq)]
pub enum CircuitError {
    /// The gate location does not match the gate's arity or the circuit's qudits.
    InvalidLocation {
        /// Description of the problem.
        detail: String,
    },
    /// A gate's radices do not match the circuit radices at its location.
    RadixMismatch {
        /// Description of the problem.
        detail: String,
    },
    /// An expression reference does not belong to this circuit.
    UnknownReference {
        /// The offending reference index.
        index: usize,
    },
    /// Wrong number of parameter values supplied.
    ParameterCount {
        /// Expected count.
        expected: usize,
        /// Found count.
        found: usize,
    },
    /// A cached expression failed validation.
    InvalidExpression {
        /// Description of the problem.
        detail: String,
    },
}

impl std::fmt::Display for CircuitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CircuitError::InvalidLocation { detail } => write!(f, "invalid location: {detail}"),
            CircuitError::RadixMismatch { detail } => write!(f, "radix mismatch: {detail}"),
            CircuitError::UnknownReference { index } => {
                write!(f, "unknown expression reference {index}")
            }
            CircuitError::ParameterCount { expected, found } => {
                write!(f, "expected {expected} parameter(s), found {found}")
            }
            CircuitError::InvalidExpression { detail } => {
                write!(f, "invalid expression: {detail}")
            }
        }
    }
}

impl std::error::Error for CircuitError {}

/// Result alias for circuit operations.
pub type Result<T> = std::result::Result<T, CircuitError>;

/// A lightweight handle to a gate definition cached in a circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExpressionRef(pub(crate) usize);

impl ExpressionRef {
    /// The reference's index into the circuit's expression table.
    pub fn index(self) -> usize {
        self.0
    }
}

/// How an operation obtains its parameter values.
#[derive(Debug, Clone, PartialEq)]
pub enum OpParams {
    /// The operation reads its values from the circuit parameter vector, starting at the
    /// recorded offset.
    Parameterized {
        /// Offset of this operation's first value in the circuit parameter vector.
        offset: usize,
    },
    /// The operation's values are baked in (a constant gate application).
    Constant(Vec<f64>),
}

/// A single gate application.
#[derive(Debug, Clone, PartialEq)]
pub struct Operation {
    /// Which cached expression this operation applies.
    pub expr: ExpressionRef,
    /// The qudit indices the gate acts on, most-significant first.
    pub location: Vec<usize>,
    /// Parameter binding.
    pub params: OpParams,
}

/// A parameterized quantum circuit over qudits of arbitrary radices.
///
/// # Example
///
/// ```
/// use qudit_circuit::{QuditCircuit, gates};
///
/// let mut circ = QuditCircuit::pure(vec![2, 2]);
/// let u3 = circ.cache_operation(gates::u3())?;
/// let cx = circ.cache_operation(gates::cnot())?;
/// circ.append_ref(u3, vec![0])?;
/// circ.append_ref(u3, vec![1])?;
/// circ.append_ref(cx, vec![0, 1])?;
/// assert_eq!(circ.num_ops(), 3);
/// assert_eq!(circ.num_params(), 6);
/// # Ok::<(), qudit_circuit::CircuitError>(())
/// ```
#[derive(Debug, Clone)]
pub struct QuditCircuit {
    radices: Vec<usize>,
    exprs: Vec<UnitaryExpression>,
    key_to_ref: HashMap<ExprKey, ExpressionRef>,
    ops: Vec<Operation>,
    num_params: usize,
}

impl QuditCircuit {
    /// Creates an empty circuit over qudits with the given radices.
    ///
    /// # Panics
    ///
    /// Panics if any radix is smaller than 2.
    pub fn pure(radices: Vec<usize>) -> Self {
        assert!(radices.iter().all(|&r| r >= 2), "qudit radices must be at least 2");
        QuditCircuit {
            radices,
            exprs: Vec::new(),
            key_to_ref: HashMap::new(),
            ops: Vec::new(),
            num_params: 0,
        }
    }

    /// Creates an empty circuit over `n` qubits.
    pub fn qubits(n: usize) -> Self {
        QuditCircuit::pure(vec![2; n])
    }

    /// Creates an empty circuit over `n` qutrits.
    pub fn qutrits(n: usize) -> Self {
        QuditCircuit::pure(vec![3; n])
    }

    /// The circuit's qudit radices.
    pub fn radices(&self) -> &[usize] {
        &self.radices
    }

    /// Number of qudits.
    pub fn num_qudits(&self) -> usize {
        self.radices.len()
    }

    /// Total Hilbert-space dimension (product of the radices).
    pub fn dim(&self) -> usize {
        self.radices.iter().product()
    }

    /// Number of operations appended so far.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Number of free (circuit-level) parameters.
    pub fn num_params(&self) -> usize {
        self.num_params
    }

    /// The appended operations, in order.
    pub fn ops(&self) -> &[Operation] {
        &self.ops
    }

    /// The cached expressions, indexed by [`ExpressionRef::index`].
    pub fn expressions(&self) -> &[UnitaryExpression] {
        &self.exprs
    }

    /// Resolves an expression reference.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownReference`] if the reference does not belong to
    /// this circuit.
    pub fn expression(&self, r: ExpressionRef) -> Result<&UnitaryExpression> {
        self.exprs.get(r.0).ok_or(CircuitError::UnknownReference { index: r.0 })
    }

    /// Caches a gate definition, returning a reference that can be appended cheaply.
    ///
    /// A gate whose [`UnitaryExpression::canonical_key`] is already cached gets the
    /// existing reference. The key includes the name, so a renamed copy of a cached
    /// gate is cached again.
    ///
    /// The (one-time) validation performed here — a numerical unitarity check at an
    /// arbitrary parameter point and structural validation already done by
    /// [`UnitaryExpression`] — is exactly the work that per-append construction paths
    /// must repeat and that the reference mechanism amortizes.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidExpression`] if the expression is not numerically
    /// unitary.
    pub fn cache_operation(&mut self, expr: UnitaryExpression) -> Result<ExpressionRef> {
        if let Some(&found) = self.key_to_ref.get(expr.canonical_key()) {
            return Ok(found);
        }
        let probe: Vec<f64> = (0..expr.num_params()).map(|k| 0.53 + 0.91 * k as f64).collect();
        if !expr.check_unitary(&probe, 1e-8) {
            return Err(CircuitError::InvalidExpression {
                detail: format!("expression '{}' is not unitary", expr.name()),
            });
        }
        let r = ExpressionRef(self.exprs.len());
        self.key_to_ref.insert(expr.canonical_key().clone(), r);
        self.exprs.push(expr);
        Ok(r)
    }

    fn validate_location(&self, expr: &UnitaryExpression, location: &[usize]) -> Result<()> {
        if location.len() != expr.num_qudits() {
            return Err(CircuitError::InvalidLocation {
                detail: format!(
                    "gate '{}' acts on {} qudit(s) but location has {}",
                    expr.name(),
                    expr.num_qudits(),
                    location.len()
                ),
            });
        }
        let mut seen = vec![false; self.num_qudits()];
        for (&q, &expected_radix) in location.iter().zip(expr.radices().iter()) {
            if q >= self.num_qudits() {
                return Err(CircuitError::InvalidLocation {
                    detail: format!(
                        "qudit index {q} out of range for {} qudits",
                        self.num_qudits()
                    ),
                });
            }
            if seen[q] {
                return Err(CircuitError::InvalidLocation {
                    detail: format!("qudit index {q} repeated in location"),
                });
            }
            seen[q] = true;
            if self.radices[q] != expected_radix {
                return Err(CircuitError::RadixMismatch {
                    detail: format!(
                        "gate '{}' expects radix {expected_radix} on wire, circuit qudit {q} has radix {}",
                        expr.name(),
                        self.radices[q]
                    ),
                });
            }
        }
        Ok(())
    }

    /// Appends a parameterized operation by reference. The gate's parameters become new
    /// trailing entries of the circuit parameter vector.
    ///
    /// # Errors
    ///
    /// Returns a [`CircuitError`] for unknown references or invalid locations.
    pub fn append_ref(&mut self, r: ExpressionRef, location: Vec<usize>) -> Result<()> {
        let expr = self.exprs.get(r.0).ok_or(CircuitError::UnknownReference { index: r.0 })?;
        self.validate_location(expr, &location)?;
        let offset = self.num_params;
        self.num_params += expr.num_params();
        self.ops.push(Operation { expr: r, location, params: OpParams::Parameterized { offset } });
        Ok(())
    }

    /// Appends a constant (fully bound) operation by reference.
    ///
    /// # Errors
    ///
    /// Returns a [`CircuitError`] for unknown references, invalid locations, or a wrong
    /// number of values.
    pub fn append_ref_constant(
        &mut self,
        r: ExpressionRef,
        location: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<()> {
        let expr = self.exprs.get(r.0).ok_or(CircuitError::UnknownReference { index: r.0 })?;
        self.validate_location(expr, &location)?;
        if values.len() != expr.num_params() {
            return Err(CircuitError::ParameterCount {
                expected: expr.num_params(),
                found: values.len(),
            });
        }
        self.ops.push(Operation { expr: r, location, params: OpParams::Constant(values) });
        Ok(())
    }

    /// Convenience for appending a single-qudit constant operation.
    ///
    /// # Errors
    ///
    /// Same as [`QuditCircuit::append_ref_constant`].
    pub fn append_constant_at(
        &mut self,
        r: ExpressionRef,
        qudit: usize,
        values: Vec<f64>,
    ) -> Result<()> {
        self.append_ref_constant(r, vec![qudit], values)
    }

    /// Caches and appends an expression in one step (the checked, non-amortized path).
    ///
    /// # Errors
    ///
    /// Returns a [`CircuitError`] if validation fails.
    pub fn append_expression(
        &mut self,
        expr: UnitaryExpression,
        location: Vec<usize>,
    ) -> Result<ExpressionRef> {
        let r = self.cache_operation(expr)?;
        self.append_ref(r, location)?;
        Ok(r)
    }

    /// Deletes the operation at `index`, re-packing the parameter offsets of every
    /// surviving parameterized operation.
    ///
    /// Returns the parameter mapping of the deletion: `mapping[k]` is the index the
    /// circuit's (new) `k`-th parameter had *before* the deletion. Refinement passes
    /// use this to project an optimized parameter vector onto the smaller circuit and
    /// warm-start its re-instantiation.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidLocation`] if `index` is out of range.
    pub fn delete_op(&mut self, index: usize) -> Result<Vec<usize>> {
        if index >= self.ops.len() {
            return Err(CircuitError::InvalidLocation {
                detail: format!(
                    "operation index {index} out of range for {} op(s)",
                    self.ops.len()
                ),
            });
        }
        self.ops.remove(index);
        let mut mapping = Vec::with_capacity(self.num_params);
        let mut next_offset = 0usize;
        for op in &mut self.ops {
            if let OpParams::Parameterized { offset } = &mut op.params {
                let count = self.exprs[op.expr.0].num_params();
                mapping.extend(*offset..*offset + count);
                *offset = next_offset;
                next_offset += count;
            }
        }
        self.num_params = next_offset;
        Ok(mapping)
    }

    /// Converts the parameterized operation at `index` into a *constant* application of
    /// the same expression at the given `values`, re-packing the parameter offsets of
    /// every later parameterized operation.
    ///
    /// Constant operations carry their values inline, so downstream consumers (the
    /// tensor-network lowering and the expression JIT) treat the gate as a fixed matrix
    /// instead of a parameterized kernel — the mechanism behind post-synthesis
    /// constant-folding's "compile cheaper expressions" payoff.
    ///
    /// Returns the parameter mapping of the conversion (same convention as
    /// [`QuditCircuit::delete_op`]): `mapping[k]` is the index the circuit's new `k`-th
    /// parameter had before the conversion.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidLocation`] if `index` is out of range,
    /// [`CircuitError::InvalidExpression`] if the operation is already constant, and
    /// [`CircuitError::ParameterCount`] if `values` does not match the expression's
    /// parameter count.
    pub fn constify_op(&mut self, index: usize, values: Vec<f64>) -> Result<Vec<usize>> {
        let op = self.ops.get(index).ok_or_else(|| CircuitError::InvalidLocation {
            detail: format!("operation index {index} out of range for {} op(s)", self.ops.len()),
        })?;
        let expected = self.exprs[op.expr.0].num_params();
        if !matches!(op.params, OpParams::Parameterized { .. }) {
            return Err(CircuitError::InvalidExpression {
                detail: format!("operation {index} is already constant"),
            });
        }
        if values.len() != expected {
            return Err(CircuitError::ParameterCount { expected, found: values.len() });
        }
        self.ops[index].params = OpParams::Constant(values);
        let mut mapping = Vec::with_capacity(self.num_params);
        let mut next_offset = 0usize;
        for op in &mut self.ops {
            if let OpParams::Parameterized { offset } = &mut op.params {
                let count = self.exprs[op.expr.0].num_params();
                mapping.extend(*offset..*offset + count);
                *offset = next_offset;
                next_offset += count;
            }
        }
        self.num_params = next_offset;
        Ok(mapping)
    }

    /// Extracts the parameter values for operation `op` from the circuit parameter
    /// vector.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::ParameterCount`] if `params` is shorter than the circuit
    /// requires.
    pub fn op_values(&self, op: &Operation, params: &[f64]) -> Result<Vec<f64>> {
        match &op.params {
            OpParams::Constant(values) => Ok(values.clone()),
            OpParams::Parameterized { offset } => {
                let expr = self.expression(op.expr)?;
                let end = offset + expr.num_params();
                if params.len() < end {
                    return Err(CircuitError::ParameterCount {
                        expected: end,
                        found: params.len(),
                    });
                }
                Ok(params[*offset..end].to_vec())
            }
        }
    }

    /// Computes the circuit unitary by direct full-width matrix accumulation.
    ///
    /// This is the *reference* evaluator: simple, always available, and O(D³) per gate.
    /// The fast path lowers the circuit to a tensor network and executes it on the TNVM.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::ParameterCount`] if `params` has the wrong length.
    pub fn unitary<T: Float>(&self, params: &[f64]) -> Result<Matrix<T>> {
        if params.len() != self.num_params {
            return Err(CircuitError::ParameterCount {
                expected: self.num_params,
                found: params.len(),
            });
        }
        let dim = self.dim();
        let mut total = Matrix::<T>::identity(dim);
        for op in &self.ops {
            let expr = self.expression(op.expr)?;
            let values = self.op_values(op, params)?;
            let gate = expr
                .to_matrix::<T>(&values)
                .map_err(|e| CircuitError::InvalidExpression { detail: e.to_string() })?;
            let embedded = embed_gate(&gate, expr.radices(), &op.location, &self.radices);
            total = embedded.matmul(&total);
        }
        Ok(total)
    }
}

/// Embeds a gate acting on `location` (with per-wire radices `gate_radices`) into the
/// full Hilbert space described by `circuit_radices`.
///
/// The element `(row, col)` of the embedded matrix is the gate element selected by the
/// digits of `row`/`col` at the location positions, provided all other digits agree
/// (identity on the rest of the system).
pub fn embed_gate<T: Float>(
    gate: &Matrix<T>,
    gate_radices: &[usize],
    location: &[usize],
    circuit_radices: &[usize],
) -> Matrix<T> {
    let n = circuit_radices.len();
    let dim: usize = circuit_radices.iter().product();
    let digits = |mut flat: usize| -> Vec<usize> {
        let mut d = vec![0usize; n];
        for i in (0..n).rev() {
            d[i] = flat % circuit_radices[i];
            flat /= circuit_radices[i];
        }
        d
    };
    let gate_index = |d: &[usize]| -> usize {
        location.iter().zip(gate_radices.iter()).fold(0usize, |acc, (&q, &r)| acc * r + d[q])
    };
    let mut out = Matrix::<T>::zeros(dim, dim);
    for row in 0..dim {
        let dr = digits(row);
        for col in 0..dim {
            let dc = digits(col);
            // Identity on wires outside the location.
            let mut rest_equal = true;
            for q in 0..n {
                if !location.contains(&q) && dr[q] != dc[q] {
                    rest_equal = false;
                    break;
                }
            }
            if !rest_equal {
                continue;
            }
            let g = gate.get(gate_index(&dr), gate_index(&dc));
            if g != Complex::zero() {
                out.set(row, col, g);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;

    #[test]
    fn build_small_circuit_and_count() {
        let mut c = QuditCircuit::qubits(3);
        let u3 = c.cache_operation(gates::u3()).unwrap();
        let cx = c.cache_operation(gates::cnot()).unwrap();
        for q in 0..3 {
            c.append_ref(u3, vec![q]).unwrap();
        }
        c.append_ref(cx, vec![0, 1]).unwrap();
        c.append_ref(cx, vec![1, 2]).unwrap();
        assert_eq!(c.num_ops(), 5);
        assert_eq!(c.num_params(), 9);
        assert_eq!(c.dim(), 8);
        assert_eq!(c.expressions().len(), 2);
    }

    #[test]
    fn cache_operation_dedupes_by_content() {
        let mut c = QuditCircuit::qubits(1);
        let a = c.cache_operation(gates::rx()).unwrap();
        let b = c.cache_operation(gates::rx()).unwrap();
        assert_eq!(a, b);
        assert_eq!(c.expressions().len(), 1);
        let other = c.cache_operation(gates::rz()).unwrap();
        assert_ne!(a, other);
        let renamed = c.cache_operation(gates::rx().with_name("MyRX")).unwrap();
        assert_ne!(a, renamed);
        assert_eq!(c.expressions().len(), 3);
    }

    #[test]
    fn cache_rejects_non_unitary() {
        let mut c = QuditCircuit::qubits(1);
        let bad = qudit_qgl::UnitaryExpression::new("Bad() { [[1, 1], [0, 1]] }").unwrap();
        assert!(matches!(c.cache_operation(bad), Err(CircuitError::InvalidExpression { .. })));
    }

    #[test]
    fn location_validation() {
        let mut c = QuditCircuit::pure(vec![2, 3]);
        let rx = c.cache_operation(gates::rx()).unwrap();
        let csum = c.cache_operation(gates::csum()).unwrap();
        // Wrong arity.
        assert!(matches!(c.append_ref(rx, vec![0, 1]), Err(CircuitError::InvalidLocation { .. })));
        // Out of range.
        assert!(matches!(c.append_ref(rx, vec![5]), Err(CircuitError::InvalidLocation { .. })));
        // Radix mismatch: RX on the qutrit wire.
        assert!(matches!(c.append_ref(rx, vec![1]), Err(CircuitError::RadixMismatch { .. })));
        // CSUM needs two qutrits; wire 0 is a qubit.
        assert!(matches!(c.append_ref(csum, vec![0, 1]), Err(CircuitError::RadixMismatch { .. })));
        // Repeated index.
        let mut cq = QuditCircuit::qubits(2);
        let cx = cq.cache_operation(gates::cnot()).unwrap();
        assert!(matches!(cq.append_ref(cx, vec![0, 0]), Err(CircuitError::InvalidLocation { .. })));
        // Valid appends.
        assert!(c.append_ref(rx, vec![0]).is_ok());
    }

    #[test]
    fn unknown_reference_rejected() {
        let mut a = QuditCircuit::qubits(1);
        let b_ref = {
            let mut b = QuditCircuit::qubits(1);
            b.cache_operation(gates::rx()).unwrap()
        };
        // The reference index happens to be valid only if `a` has cached something.
        assert!(matches!(a.append_ref(b_ref, vec![0]), Err(CircuitError::UnknownReference { .. })));
    }

    #[test]
    fn constant_append_checks_value_count() {
        let mut c = QuditCircuit::qubits(1);
        let rx = c.cache_operation(gates::rx()).unwrap();
        assert!(matches!(
            c.append_ref_constant(rx, vec![0], vec![]),
            Err(CircuitError::ParameterCount { expected: 1, found: 0 })
        ));
        assert!(c.append_ref_constant(rx, vec![0], vec![0.5]).is_ok());
        assert_eq!(c.num_params(), 0);
    }

    #[test]
    fn unitary_of_bell_circuit() {
        let mut c = QuditCircuit::qubits(2);
        let h = c.cache_operation(gates::hadamard()).unwrap();
        let cx = c.cache_operation(gates::cnot()).unwrap();
        c.append_ref(h, vec![0]).unwrap();
        c.append_ref(cx, vec![0, 1]).unwrap();
        let u = c.unitary::<f64>(&[]).unwrap();
        assert!(u.is_unitary(1e-12));
        // Column for |00⟩ must be the Bell state (|00⟩ + |11⟩)/√2.
        let s = 1.0 / 2.0_f64.sqrt();
        assert!((u.get(0, 0).re - s).abs() < 1e-12);
        assert!((u.get(3, 0).re - s).abs() < 1e-12);
        assert!(u.get(1, 0).abs() < 1e-12);
        assert!(u.get(2, 0).abs() < 1e-12);
    }

    #[test]
    fn unitary_respects_operation_order() {
        // X then H on one qubit: U = H·X.
        let mut c = QuditCircuit::qubits(1);
        let x = c.cache_operation(gates::x()).unwrap();
        let h = c.cache_operation(gates::hadamard()).unwrap();
        c.append_ref(x, vec![0]).unwrap();
        c.append_ref(h, vec![0]).unwrap();
        let u = c.unitary::<f64>(&[]).unwrap();
        let expect = gates::hadamard()
            .to_matrix::<f64>(&[])
            .unwrap()
            .matmul(&gates::x().to_matrix::<f64>(&[]).unwrap());
        assert!(u.max_elementwise_distance(&expect) < 1e-13);
    }

    #[test]
    fn parameterized_unitary_and_op_values() {
        let mut c = QuditCircuit::qubits(2);
        let rx = c.cache_operation(gates::rx()).unwrap();
        let rz = c.cache_operation(gates::rz()).unwrap();
        c.append_ref(rx, vec![0]).unwrap();
        c.append_ref_constant(rz, vec![1], vec![0.25]).unwrap();
        c.append_ref(rz, vec![0]).unwrap();
        assert_eq!(c.num_params(), 2);
        let params = [0.7, -0.3];
        let vals0 = c.op_values(&c.ops()[0], &params).unwrap();
        assert_eq!(vals0, vec![0.7]);
        let vals1 = c.op_values(&c.ops()[1], &params).unwrap();
        assert_eq!(vals1, vec![0.25]);
        let vals2 = c.op_values(&c.ops()[2], &params).unwrap();
        assert_eq!(vals2, vec![-0.3]);
        assert!(c.unitary::<f64>(&params).unwrap().is_unitary(1e-12));
        assert!(c.unitary::<f64>(&[0.1]).is_err());
    }

    #[test]
    fn delete_op_repacks_parameter_offsets() {
        let mut c = QuditCircuit::qubits(2);
        let rx = c.cache_operation(gates::rx()).unwrap();
        let u3 = c.cache_operation(gates::u3()).unwrap();
        c.append_ref(rx, vec![0]).unwrap(); // param 0
        c.append_ref(u3, vec![1]).unwrap(); // params 1..4
        c.append_ref_constant(rx, vec![0], vec![0.3]).unwrap();
        c.append_ref(rx, vec![1]).unwrap(); // param 4
        assert_eq!(c.num_params(), 5);

        // Deleting the U3 drops its three parameters and shifts the final RX down.
        let mapping = c.delete_op(1).unwrap();
        assert_eq!(mapping, vec![0, 4]);
        assert_eq!(c.num_ops(), 3);
        assert_eq!(c.num_params(), 2);
        let values = c.op_values(&c.ops()[2], &[0.7, -0.2]).unwrap();
        assert_eq!(values, vec![-0.2]);

        // The deleted circuit evaluates: same unitary as building it without the U3.
        let mut expect = QuditCircuit::qubits(2);
        let rx2 = expect.cache_operation(gates::rx()).unwrap();
        expect.append_ref(rx2, vec![0]).unwrap();
        expect.append_ref_constant(rx2, vec![0], vec![0.3]).unwrap();
        expect.append_ref(rx2, vec![1]).unwrap();
        let a = c.unitary::<f64>(&[0.7, -0.2]).unwrap();
        let b = expect.unitary::<f64>(&[0.7, -0.2]).unwrap();
        assert!(a.max_elementwise_distance(&b) < 1e-13);

        assert!(c.delete_op(99).is_err());
    }

    #[test]
    fn constify_op_bakes_values_and_repacks_offsets() {
        let mut c = QuditCircuit::qubits(2);
        let rx = c.cache_operation(gates::rx()).unwrap();
        let u3 = c.cache_operation(gates::u3()).unwrap();
        c.append_ref(rx, vec![0]).unwrap(); // param 0
        c.append_ref(u3, vec![1]).unwrap(); // params 1..4
        c.append_ref(rx, vec![1]).unwrap(); // param 4
        let reference = c.unitary::<f64>(&[0.3, 0.1, 0.2, 0.4, -0.9]).unwrap();

        // Constifying the U3 bakes its three values in and shifts the final RX down.
        let mapping = c.constify_op(1, vec![0.1, 0.2, 0.4]).unwrap();
        assert_eq!(mapping, vec![0, 4]);
        assert_eq!(c.num_ops(), 3);
        assert_eq!(c.num_params(), 2);
        assert!(matches!(c.ops()[1].params, OpParams::Constant(_)));
        let after = c.unitary::<f64>(&[0.3, -0.9]).unwrap();
        assert!(after.max_elementwise_distance(&reference) < 1e-14);

        // A second constify of the same op is rejected, as are bad indices/value counts.
        assert!(matches!(
            c.constify_op(1, vec![0.0; 3]),
            Err(CircuitError::InvalidExpression { .. })
        ));
        assert!(matches!(c.constify_op(99, vec![]), Err(CircuitError::InvalidLocation { .. })));
        assert!(matches!(
            c.constify_op(0, vec![0.0, 0.0]),
            Err(CircuitError::ParameterCount { expected: 1, found: 2 })
        ));
    }

    #[test]
    fn embed_gate_reverse_location() {
        // CNOT with control = qubit 1, target = qubit 0 (location [1, 0]).
        let cnot = gates::cnot().to_matrix::<f64>(&[]).unwrap();
        let emb = embed_gate(&cnot, &[2, 2], &[1, 0], &[2, 2]);
        // |01⟩ (control=qubit1 set) ↦ |11⟩
        assert_eq!(emb.get(3, 1).re, 1.0);
        assert_eq!(emb.get(1, 3).re, 1.0);
        assert_eq!(emb.get(0, 0).re, 1.0);
        assert_eq!(emb.get(2, 2).re, 1.0);
    }

    #[test]
    fn embed_gate_in_mixed_radix_space() {
        // RX on the qubit of a [3, 2] system: acts on qudit 1.
        let rxm = gates::rx().to_matrix::<f64>(&[1.1]).unwrap();
        let emb = embed_gate(&rxm, &[2], &[1], &[3, 2]);
        assert_eq!(emb.rows(), 6);
        assert!(emb.is_unitary(1e-12));
        // Block-diagonal: three identical 2x2 blocks.
        for block in 0..3 {
            for r in 0..2 {
                for c_ in 0..2 {
                    assert!(emb.get(2 * block + r, 2 * block + c_).dist(rxm.get(r, c_)) < 1e-14);
                }
            }
        }
    }

    #[test]
    fn qutrits_constructor() {
        let c = QuditCircuit::qutrits(2);
        assert_eq!(c.radices(), &[3, 3]);
        assert_eq!(c.dim(), 9);
    }

    #[test]
    fn error_display() {
        let e = CircuitError::ParameterCount { expected: 2, found: 1 };
        assert!(e.to_string().contains("expected 2"));
    }
}
